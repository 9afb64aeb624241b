//! Multi-emblem streams and the inter-emblem (outer) Reed–Solomon code.
//!
//! §3.1: "The outer code, or inter-emblem mechanism, protects against
//! whole-emblem failures, by including three parity emblems with each set
//! of 17 data emblems. This results in the full bit-for-bit restoration of
//! data contained within a series of 20 emblems in which any three are
//! missing altogether."
//!
//! Groups with fewer than 17 data emblems (the stream tail) use the
//! shortened RS(n+3, n) code — still any-3-of-(n+3) recoverable.
//!
//! [`StreamPlan`] is the only code that knows how payload chunks map to
//! emission slots and headers: the encoder stamps [`StreamPlan::header`],
//! and every reader — the native decoder here, the emulated restorer in
//! `micr_olonys` and the vault — places a frame through
//! [`StreamPlan::slot_of`], which admits only the exact header stamped at
//! the index it names. [`vote_stream_len`] is the one stream-length vote,
//! [`StreamPlan::place`] the one placement, and [`Placement::recover`] the
//! one outer-code recovery, behind both the native decoder and the
//! vault's whole-stream reads.

use crate::decode::{decode_emblem, DecodeError, DecodeStats};
use crate::encode::encode_emblem;
use crate::geometry::EmblemGeometry;
use crate::header::{EmblemHeader, EmblemKind};
use std::borrow::{Borrow, Cow};
use std::cmp::Reverse;
use ule_gf256::RsCode;
use ule_obs::Telemetry;
use ule_par::ThreadConfig;
use ule_raster::GrayImage;

/// Data emblems per full group.
pub const GROUP_DATA: usize = 17;
/// Parity emblems per group.
pub const GROUP_PARITY: usize = 3;

/// How a payload maps onto emblems — the one owner of the frozen
/// emission layout. Chunk `c` carries payload bytes `c·chunk_size ..`;
/// with the outer code on, every group of [`GROUP_DATA`] chunks (the last
/// group may be short) is followed by its [`GROUP_PARITY`] parity
/// emblems, and one global index numbers every emission in that order.
/// The encoder stamps [`StreamPlan::header`]; readers place a frame
/// through [`StreamPlan::slot_of`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamPlan {
    /// Payload bytes carried per emblem.
    pub chunk_size: usize,
    /// Number of data emblems.
    pub data_emblems: usize,
    /// Number of parity emblems (0 when the outer code is disabled).
    pub parity_emblems: usize,
    /// Total stream length in bytes.
    pub total_len: usize,
}

/// What one emission slot of a [`StreamPlan`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Payload chunk `c` (a data-kind emblem: system, index, data, …).
    Data(usize),
    /// Outer-parity emblem `pos` (`0..GROUP_PARITY`) of outer group `group`.
    Parity { group: usize, pos: usize },
}

impl StreamPlan {
    /// The layout of a `len`-byte stream cut into `chunk_cap`-byte chunks
    /// (at least one chunk, even for an empty stream).
    pub fn new(len: usize, chunk_cap: usize, with_parity: bool) -> Self {
        let chunk = chunk_cap.max(1);
        let data = len.div_ceil(chunk).max(1);
        let parity = if with_parity {
            data.div_ceil(GROUP_DATA) * GROUP_PARITY
        } else {
            0
        };
        StreamPlan {
            chunk_size: chunk,
            data_emblems: data,
            parity_emblems: parity,
            total_len: len,
        }
    }

    /// [`StreamPlan::new`] for a length read back from an archived
    /// header: `None` when the last emission index would not fit the
    /// header's 16-bit index field. No encoder writes such a stream, so
    /// a decoder must not size its chunk tables from one.
    pub fn checked(len: usize, chunk_cap: usize, with_parity: bool) -> Option<Self> {
        let plan = Self::new(len, chunk_cap, with_parity);
        (plan.total_emblems() <= usize::from(u16::MAX) + 1).then_some(plan)
    }

    pub fn total_emblems(&self) -> usize {
        self.data_emblems + self.parity_emblems
    }

    /// Whether the outer code is on.
    fn with_parity(&self) -> bool {
        self.parity_emblems > 0
    }

    /// Number of outer groups.
    fn groups(&self) -> usize {
        self.data_emblems.div_ceil(GROUP_DATA)
    }

    /// The chunks of outer group `group`.
    fn group_chunks(&self, group: usize) -> std::ops::Range<usize> {
        group * GROUP_DATA..((group + 1) * GROUP_DATA).min(self.data_emblems)
    }

    /// The stream bytes chunk `c` carries (empty past the stream's end).
    fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        (c * self.chunk_size).min(self.total_len)..((c + 1) * self.chunk_size).min(self.total_len)
    }

    /// The slot at emission index `emission` (`< total_emblems()`): the
    /// inverse of [`chunk_global_index`], which places each group.
    fn slot_at(&self, emission: usize) -> Slot {
        let parity = self.with_parity();
        let group = emission / (GROUP_DATA + if parity { GROUP_PARITY } else { 0 });
        let within = emission - chunk_global_index(group * GROUP_DATA, parity);
        let in_group = self.group_chunks(group).len();
        if within < in_group {
            Slot::Data(group * GROUP_DATA + within)
        } else {
            Slot::Parity {
                group,
                pos: within - in_group,
            }
        }
    }

    /// The emission index of `slot`.
    pub fn emission_of(&self, slot: Slot) -> usize {
        match slot {
            Slot::Data(c) => chunk_global_index(c, self.with_parity()),
            Slot::Parity { group, pos } => {
                chunk_global_index(group * GROUP_DATA, true) + self.group_chunks(group).len() + pos
            }
        }
    }

    /// The exact header the encoder stamps on emission `emission` of a
    /// `kind` stream (parity slots always carry [`EmblemKind::Parity`]).
    pub fn header(&self, kind: EmblemKind, emission: usize) -> EmblemHeader {
        let (kind, group, len) = match self.slot_at(emission) {
            Slot::Data(c) => (kind, c / GROUP_DATA, self.chunk_range(c).len()),
            Slot::Parity { group, .. } => (EmblemKind::Parity, group, self.chunk_size),
        };
        EmblemHeader::new(
            kind,
            emission as u16,
            group as u16,
            len as u32,
            self.total_len as u32,
        )
    }

    /// The slot whose stamped header is exactly `header` — index, group,
    /// parity-vs-data, payload length and stream length — or `None`: a
    /// damaged-but-checksum-colliding header, a frame from another stream
    /// or a forged payload length must not land in (or clobber) a genuine
    /// slot. Which data kind (system, index, data, …) a stream carries is
    /// the caller's check.
    pub fn slot_of(&self, header: &EmblemHeader) -> Option<Slot> {
        let emission = header.index as usize;
        // A data slot is stamped with the caller's kind; any non-parity
        // kind stands in for it.
        let kind = match header.kind {
            EmblemKind::Parity => EmblemKind::Data,
            kind => kind,
        };
        (emission < self.total_emblems() && *header == self.header(kind, emission))
            .then(|| self.slot_at(emission))
    }
}

/// Compute the emblem plan for `len` payload bytes.
pub fn plan(geom: &EmblemGeometry, len: usize, with_parity: bool) -> StreamPlan {
    StreamPlan::new(len, geom.payload_capacity(), with_parity)
}

/// One emission of a stream: the header stamped on the emblem and the
/// bytes it carries (a borrowed payload chunk, or an owned parity chunk).
pub type Emission<'a> = (EmblemHeader, Cow<'a, [u8]>);

/// Encode a payload into a sequence of emblem print masters.
///
/// Emission order per group: the group's data emblems, then its 3 parity
/// emblems; indices are global and sequential. With `with_parity = false`
/// only data emblems are produced (the paper's §4 paper-archive experiment
/// reports 26 emblems for 1.2 MB, i.e. data emblems only).
pub fn encode_stream(
    geom: &EmblemGeometry,
    kind: EmblemKind,
    payload: &[u8],
    with_parity: bool,
) -> Vec<GrayImage> {
    encode_stream_traced(
        geom,
        kind,
        payload,
        with_parity,
        ThreadConfig::Serial,
        &Telemetry::off(),
    )
}

/// [`encode_stream`] with the per-emblem work (outer-code parity, inner RS
/// encode, cell layout, rasterisation) fanned out across `threads` workers,
/// plus telemetry: spans for the outer-parity and render stages, counters
/// for data/parity emblem counts. It is [`stream_emissions`] followed by
/// one [`encode_emblem`] job per emission (`Medium::render` skips masters).
///
/// Determinism: emblem content is a pure function of `(header, chunk)`, and
/// both the outer-parity stage (one job per group) and the render stage
/// (one job per emblem) join their results in index order, so the produced
/// images are byte-identical to the serial path at any thread count
/// (`tests/parallel_identity.rs` pins this; `tests/golden_format.rs` pins
/// the absolute bytes so the frozen format cannot drift). The recorder
/// only observes, and the default [`Telemetry::off`] handle never reads
/// the clock.
pub fn encode_stream_traced(
    geom: &EmblemGeometry,
    kind: EmblemKind,
    payload: &[u8],
    with_parity: bool,
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Vec<GrayImage> {
    let emissions = stream_emissions(geom, kind, payload, with_parity, threads, tel);
    let _span = tel.span("archive.encode.render");
    ule_par::map(threads, &emissions, |(header, bytes)| {
        encode_emblem(geom, header, bytes)
    })
}

/// Stage 1 of every encoder (masters here, frames in `Medium::render`):
/// every emission of the stream in emission order, headers from
/// [`StreamPlan::header`]. The outer-code parity chunks are computed
/// here, one independent job per group; `parity_of` batches all byte
/// columns per slice-kernel call (DESIGN.md §12).
/// Panics if the stream needs more emissions than the 16-bit emblem
/// index can number.
pub fn stream_emissions<'a>(
    geom: &EmblemGeometry,
    kind: EmblemKind,
    payload: &'a [u8],
    with_parity: bool,
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Vec<Emission<'a>> {
    let p = StreamPlan::checked(payload.len(), geom.payload_capacity(), with_parity)
        .expect("stream exceeds the u16 emblem index space");
    let cap = p.chunk_size;
    let mut parity: Vec<Vec<Vec<u8>>> = if with_parity {
        let _span = tel.span("archive.encode.parity");
        ule_par::map_indexed(threads, p.groups(), |g| {
            let padded: Vec<Vec<u8>> = p
                .group_chunks(g)
                .map(|c| {
                    let mut chunk = payload[p.chunk_range(c)].to_vec();
                    chunk.resize(cap, 0);
                    chunk
                })
                .collect();
            let refs: Vec<&[u8]> = padded.iter().map(|c| c.as_slice()).collect();
            RsCode::new(refs.len() + GROUP_PARITY, refs.len()).parity_of(&refs)
        })
    } else {
        Vec::new()
    };
    tel.add("encode.data_emblems", p.data_emblems as u64);
    tel.add("encode.parity_emblems", p.parity_emblems as u64);
    (0..p.total_emblems())
        .map(|e| {
            let bytes = match p.slot_at(e) {
                Slot::Data(c) => Cow::Borrowed(&payload[p.chunk_range(c)]),
                Slot::Parity { group, pos } => Cow::Owned(std::mem::take(&mut parity[group][pos])),
            };
            (p.header(kind, e), bytes)
        })
        .collect()
}

/// A decoded emblem: its header, payload and decode stats.
pub type Decoded = (EmblemHeader, Vec<u8>, DecodeStats);

/// The per-frame half of every stream decoder: each scan through
/// [`decode_emblem`], fanned out across `threads` workers, one outcome
/// per scan in input order. With telemetry on, each scan gets a
/// `scan.decode.frame` span in its own recorder shard (merged back in
/// input order, so scheduling never reorders the trace) and the batch
/// lands on the `decode.*` health counters, where `clean_frames +
/// frames_corrected + frames_failed == frames_total` on any trace, and
/// each failed scan adds one to the `decode.fail.<cause>` counter of its
/// [`DecodeError::cause`], so the causes sum to `frames_failed`.
/// `scans` may hold images or borrows of them (`&[&GrayImage]`).
pub fn decode_frames<S: Borrow<GrayImage> + Sync>(
    geom: &EmblemGeometry,
    scans: &[S],
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Vec<Result<Decoded, DecodeError>> {
    if !tel.is_enabled() {
        return ule_par::map(threads, scans, |scan| decode_emblem(geom, scan.borrow()));
    }
    let shards = tel.fork(scans.len());
    let jobs: Vec<(&S, Telemetry)> = scans.iter().zip(shards.iter().cloned()).collect();
    let results = ule_par::map(threads, &jobs, |(scan, shard)| {
        let _frame = shard.span("scan.decode.frame");
        decode_emblem(geom, (*scan).borrow())
    });
    tel.absorb(shards);
    let (mut failed, mut clean, mut corrected) = (0u64, 0u64, 0u64);
    let (mut symbols, mut sync_errors, mut retries) = (0u64, 0u64, 0u64);
    for frame in &results {
        let (_, _, s) = match frame {
            Ok(decoded) => decoded,
            Err(e) => {
                failed += 1;
                tel.add(&format!("decode.fail.{}", e.cause()), 1);
                continue;
            }
        };
        if s.rs_corrected == 0 {
            clean += 1;
        } else {
            corrected += 1;
        }
        symbols += s.rs_corrected as u64;
        sync_errors += s.sync_errors as u64;
        retries += u64::from(s.header_copy_used > 0);
    }
    tel.add("decode.frames_total", results.len() as u64);
    tel.add("decode.frames_failed", failed);
    tel.add("decode.clean_frames", clean);
    tel.add("decode.corrected_symbols", symbols);
    tel.add("decode.sync_errors", sync_errors);
    if corrected > 0 {
        tel.add("decode.frames_corrected", corrected);
    }
    if retries > 0 {
        tel.add("decode.header_retries", retries);
    }
    results
}

/// Stream-level decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum StreamError {
    /// No scan decoded to a usable emblem.
    NoEmblems,
    /// The stream length most decoded emblems carry names no layout an
    /// encoder could write (its emblem indices overflow 16 bits).
    InconsistentHeaders,
    /// Whole emblems of one group are missing (lost frames, or scans too
    /// damaged to decode) beyond the outer code's budget. `expected` and
    /// `found` count the group's emblems; `missing` lists the absent
    /// **global** emblem indices, so the caller can name exactly which
    /// frames to go looking for.
    FrameLoss {
        group: u16,
        expected: usize,
        found: usize,
        missing: Vec<u16>,
    },
    /// The outer erasure decode itself failed (defensive: unreachable
    /// when the budget pre-check above holds).
    TooManyMissing {
        group: u16,
        missing: usize,
        correctable: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::NoEmblems => write!(f, "no decodable emblems"),
            StreamError::InconsistentHeaders => write!(f, "impossible emblem stream length"),
            StreamError::FrameLoss {
                group,
                expected,
                found,
                missing,
            } => write!(
                f,
                "group {group}: {found} of {expected} emblems present, missing indices {missing:?} \
                 are beyond outer-code recovery"
            ),
            StreamError::TooManyMissing { group, missing, correctable } => write!(
                f,
                "group {group}: {missing} emblems missing, outer code corrects at most {correctable}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Stream decode diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Scans handed in.
    pub scans: usize,
    /// Scans that failed individual emblem decoding.
    pub failed_scans: usize,
    /// Whole emblems reconstructed by the outer code.
    pub emblems_recovered: usize,
    /// Total bytes fixed by the inner code across emblems.
    pub rs_corrected: usize,
    /// Codeword slots (data *and* parity) declared as erasures during
    /// outer-code recovery. Unlike [`StreamStats::emblems_recovered`]
    /// (reconstructed data emblems only) this also counts missing parity
    /// frames the group had to decode around — the full erasure load the
    /// outer code carried.
    pub erasure_frames: usize,
}

/// Decode a set of scans (unordered, possibly incomplete and with
/// duplicates) back into the stream payload.
pub fn decode_stream(
    geom: &EmblemGeometry,
    scans: &[GrayImage],
) -> Result<(Vec<u8>, StreamStats), StreamError> {
    decode_stream_traced(geom, scans, ThreadConfig::Serial, &Telemetry::off())
}

/// [`decode_stream`] with the per-scan pipeline fanned out across
/// `threads` workers, plus telemetry: [`decode_frames`] decodes every
/// scan, [`vote_stream_len`] settles the stream length, the layout is
/// inferred from the decoded headers, [`StreamPlan::place`] places each
/// payload and [`Placement::recover`] runs the outer code.
///
/// The outer-code erasure recovery and reassembly run after the join and
/// consume per-scan results in input order, so payload bytes and
/// [`StreamStats`] are identical to the serial path at any thread count.
/// The recorder only observes. `scans` may hold images or borrows of
/// them (`&[&GrayImage]`).
pub fn decode_stream_traced<S: Borrow<GrayImage> + Sync>(
    geom: &EmblemGeometry,
    scans: &[S],
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Result<(Vec<u8>, StreamStats), StreamError> {
    // Individual decode; tolerate per-scan failures (the outer code's job).
    let results = decode_frames(geom, scans, threads, tel);
    let failed = results.iter().filter(|r| r.is_err()).count();
    let decoded: Vec<Decoded> = results.into_iter().flatten().collect();
    let total_len =
        vote_stream_len(decoded.iter().map(|(h, _, _)| h)).ok_or(StreamError::NoEmblems)?;

    // Did this stream carry outer parity? A frame with a slot under the
    // parity layout but none under the dense one says so: any surviving
    // parity emblem or, with all of them lost, a data emblem past group 0.
    // A checksum-colliding header has a slot under neither, so it cannot
    // flip an intact dense stream. A stream that lost all its parity and
    // every data emblem past group 0 looks dense, which can only misreport
    // FrameLoss details or fail a group whose parity is gone — never
    // corrupt the success path. A length whose layout overflows the
    // 16-bit emblem index is no stream any encoder wrote.
    let (len, cap) = (total_len as usize, geom.payload_capacity());
    let dense = StreamPlan::checked(len, cap, false).ok_or(StreamError::InconsistentHeaders)?;
    let plan = StreamPlan::checked(len, cap, true)
        .filter(|outer| {
            let betrays =
                |h: &EmblemHeader| outer.slot_of(h).is_some() && dense.slot_of(h).is_none();
            decoded.iter().any(|(h, _, _)| betrays(h))
        })
        .unwrap_or(dense);
    let (out, placed) = plan.place(decoded).recover(tel)?;
    let stats = StreamStats {
        scans: scans.len(),
        failed_scans: failed + placed.failed_scans,
        ..placed
    };
    Ok((out, stats))
}

/// The one stream-length vote: the `total_len` most of `headers` carry,
/// a tie going to the earliest such header in scan order (so every
/// thread count agrees); `None` for no headers. A frame naming another
/// length, e.g. one spliced in from another archive, then takes no slot
/// of the voted plan ([`StreamPlan::slot_of`]): it is a failed scan.
pub fn vote_stream_len<'a>(headers: impl IntoIterator<Item = &'a EmblemHeader>) -> Option<u32> {
    let mut tally = std::collections::BTreeMap::new();
    for (i, h) in headers.into_iter().enumerate() {
        tally.entry(h.total_len).or_insert((0usize, Reverse(i))).0 += 1;
    }
    tally
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .map(|(len, _)| len)
}

/// Decoded frames placed in the slots of one [`StreamPlan`]
/// ([`StreamPlan::place`]), ready for [`Placement::recover`].
#[derive(Debug)]
pub struct Placement<'p> {
    plan: &'p StreamPlan,
    chunks: Vec<Option<Vec<u8>>>,
    parity: Vec<Vec<Option<Vec<u8>>>>,
    /// The given frames' inner-RS corrections, and the frames no slot
    /// admitted as failed scans (`scans` is left to the caller).
    stats: StreamStats,
}

impl StreamPlan {
    /// Place decoded frames: a payload lands at the slot
    /// [`StreamPlan::slot_of`] admits its header to, if it is the length
    /// that header promises (first copy wins); any other frame is a
    /// failed scan, so it cannot clobber a genuine slot.
    pub fn place(&self, frames: impl IntoIterator<Item = Decoded>) -> Placement<'_> {
        let mut placed = Placement {
            plan: self,
            chunks: vec![None; self.data_emblems],
            parity: vec![vec![None; GROUP_PARITY]; self.groups()],
            stats: StreamStats::default(),
        };
        for (h, payload, ds) in frames {
            placed.stats.rs_corrected += ds.rs_corrected;
            match self
                .slot_of(&h)
                .filter(|_| payload.len() == h.payload_len as usize)
            {
                Some(Slot::Data(c)) => placed.chunks[c].get_or_insert(payload),
                Some(Slot::Parity { group, pos }) => {
                    placed.parity[group][pos].get_or_insert(payload)
                }
                None => {
                    placed.stats.failed_scans += 1;
                    continue;
                }
            };
        }
        placed
    }
}

impl Placement<'_> {
    /// The emission indices of the data slots no frame filled, in order.
    pub fn missing_data(&self) -> Vec<usize> {
        (0..self.chunks.len())
            .filter(|&c| self.chunks[c].is_none())
            .map(|c| self.plan.emission_of(Slot::Data(c)))
            .collect()
    }

    /// Bring each group's missing chunks back through the outer code and
    /// concatenate the stream. The returned [`StreamStats`] adds the outer
    /// code's work to the placement's.
    pub fn recover(self, tel: &Telemetry) -> Result<(Vec<u8>, StreamStats), StreamError> {
        let (plan, mut chunks, mut stats) = (self.plan, self.chunks, self.stats);
        for (group, group_parity) in self.parity.iter().enumerate() {
            let members = plan.group_chunks(group);
            let (base, in_group) = (members.start, members.len());
            let missing: Vec<usize> = (0..in_group)
                .filter(|&i| chunks[base + i].is_none())
                .collect();
            if missing.is_empty() {
                continue;
            }
            let parity_avail = group_parity.iter().filter(|p| p.is_some()).count();
            let missing_parity = GROUP_PARITY - parity_avail;
            if missing.len() + missing_parity > GROUP_PARITY {
                // Name the absent frames by their global emblem indices.
                // A stream encoded without parity counts only its data
                // emblems as expected — the three "missing" parity slots
                // are not lost frames, they never existed.
                let mut absent: Vec<u16> = missing
                    .iter()
                    .map(|&i| plan.emission_of(Slot::Data(base + i)) as u16)
                    .collect();
                let mut expected = in_group;
                if plan.with_parity() {
                    expected += GROUP_PARITY;
                    for (pos, p) in group_parity.iter().enumerate() {
                        if p.is_none() {
                            absent.push(plan.emission_of(Slot::Parity { group, pos }) as u16);
                        }
                    }
                }
                return Err(StreamError::FrameLoss {
                    group: group as u16,
                    expected,
                    found: expected - absent.len(),
                    missing: absent,
                });
            }
            // The group's codeword streams: data chunks, then parity.
            let streams: Vec<Option<&[u8]>> = chunks[members]
                .iter()
                .chain(group_parity)
                .map(Option::as_deref)
                .collect();
            let erased = streams.iter().filter(|s| s.is_none()).count();
            stats.erasure_frames += erased;
            let _recovery = tel.span("scan.decode.outer_recovery");
            let (solved, outer_corrected) = RsCode::new(in_group + GROUP_PARITY, in_group)
                .recover(&streams, plan.chunk_size)
                .map_err(|_| StreamError::TooManyMissing {
                    group: group as u16,
                    missing: erased,
                    correctable: GROUP_PARITY,
                })?;
            tel.add("decode.erasure_frames", erased as u64);
            tel.add("decode.outer_corrected_symbols", outer_corrected as u64);
            // Erased data chunks come first in `solved`; trim each to its
            // logical length (only the stream's final chunk is short).
            for (m, mut c) in missing.into_iter().zip(solved) {
                let chunk_no = base + m;
                c.truncate(plan.chunk_range(chunk_no).len());
                chunks[chunk_no] = Some(c);
                stats.emblems_recovered += 1;
            }
        }

        tel.add("decode.emblems_recovered", stats.emblems_recovered as u64);

        // Concatenate.
        let mut out = Vec::with_capacity(plan.total_len);
        for c in chunks {
            out.extend_from_slice(&c.expect("all chunks present after recovery"));
        }
        out.truncate(plan.total_len);
        Ok((out, stats))
    }
}

/// CRC-32 fingerprint of an image sequence (order-sensitive): the
/// byte-identity check used by the conformance net — `tests/golden_format.rs`
/// pins these against checked-in vectors and the report's `[E8]` section
/// compares them across thread counts — so both sides measure exactly the
/// same thing.
pub fn stream_crc32(images: &[GrayImage]) -> u32 {
    let mut st = 0xFFFF_FFFFu32;
    for im in images {
        st = ule_gf256::crc::crc32_update(st, im.as_bytes());
    }
    st ^ 0xFFFF_FFFF
}

/// Global emblem index of stream chunk `chunk` (a data/system emblem's
/// position in its stream): with the outer code on, every group of
/// [`GROUP_DATA`] chunks is followed by [`GROUP_PARITY`] parity emblems
/// that share the numbering. This is *the* frozen index layout: every
/// [`StreamPlan`] places its groups through it.
pub fn chunk_global_index(chunk: usize, with_parity: bool) -> usize {
    if with_parity {
        (chunk / GROUP_DATA) * (GROUP_DATA + GROUP_PARITY) + chunk % GROUP_DATA
    } else {
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> EmblemGeometry {
        EmblemGeometry::test_small()
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(131).wrapping_add(7))
            .collect()
    }

    /// Decoded data frames of a synthetic stream, no pixels: `n_chunks`
    /// chunks of `cap` bytes (the last one short by `tail_short`), chunk
    /// `c` filled with byte `c`, stamped by the plan with or without
    /// outer parity (its parity frames are left out).
    fn frames(
        kind: EmblemKind,
        n_chunks: usize,
        cap: usize,
        tail_short: usize,
        outer_parity: bool,
    ) -> (StreamPlan, Vec<Decoded>) {
        let plan = StreamPlan::new(n_chunks * cap - tail_short, cap, outer_parity);
        let frames = (0..n_chunks)
            .map(|c| {
                let h = plan.header(kind, plan.emission_of(Slot::Data(c)));
                (
                    h,
                    vec![c as u8; h.payload_len as usize],
                    DecodeStats::default(),
                )
            })
            .collect();
        (plan, frames)
    }

    #[test]
    fn plan_counts() {
        let g = geom();
        let cap = g.payload_capacity();
        let p = plan(&g, cap * 17, true);
        assert_eq!(p.data_emblems, 17);
        assert_eq!(p.parity_emblems, 3);
        let p = plan(&g, cap * 18, true);
        assert_eq!(p.data_emblems, 18);
        assert_eq!(p.parity_emblems, 6);
        let p = plan(&g, cap * 5, false);
        assert_eq!(p.parity_emblems, 0);
        // The frozen index layout: chunk 17 opens group 1 *after* group
        // 0's three parity emblems.
        assert_eq!(chunk_global_index(0, true), 0);
        assert_eq!(chunk_global_index(16, true), 16);
        assert_eq!(chunk_global_index(17, true), 20);
        assert_eq!(chunk_global_index(34, true), 40);
        assert_eq!(chunk_global_index(17, false), 17);
    }

    #[test]
    fn header_and_slot_of_are_inverses() {
        let cap = 10;
        for with_parity in [false, true] {
            for n in 1..=60usize {
                for tail in [cap, 1] {
                    let len = (n - 1) * cap + tail;
                    let p = StreamPlan::new(len, cap, with_parity);
                    assert_eq!(p.data_emblems, n);
                    // Every emission's header names exactly its own slot,
                    // chunks in order, each group's parity after its data.
                    let mut produced = std::collections::HashSet::new();
                    let (mut next_chunk, mut bytes) = (0, 0);
                    for e in 0..p.total_emblems() {
                        let h = p.header(EmblemKind::Index, e);
                        assert_eq!((h.index as usize, h.total_len as usize), (e, len));
                        let slot = p.slot_of(&h).expect("stamped header has a slot");
                        assert_eq!(p.emission_of(slot), e);
                        // Only the exact stamped header: one byte more or
                        // less of payload or stream names no slot.
                        for (dp, dt) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                            let forged = EmblemHeader {
                                payload_len: h.payload_len.wrapping_add_signed(dp),
                                total_len: h.total_len.wrapping_add_signed(dt),
                                ..h
                            };
                            assert_eq!(p.slot_of(&forged), None, "{forged:?}");
                        }
                        match slot {
                            Slot::Data(c) => {
                                assert_eq!((h.kind, c), (EmblemKind::Index, next_chunk));
                                next_chunk += 1;
                                bytes += h.payload_len as usize;
                            }
                            Slot::Parity { group, pos } => {
                                assert_eq!(h.kind, EmblemKind::Parity);
                                assert_eq!(h.payload_len as usize, cap);
                                assert_eq!(next_chunk, p.group_chunks(group).end);
                                assert!(pos < GROUP_PARITY);
                            }
                        }
                        produced.insert((h.kind == EmblemKind::Parity, h.group, h.index));
                    }
                    assert_eq!((next_chunk, bytes), (n, len));
                    // Every other (kind, group, index) around the layout
                    // names no slot.
                    for parity in [false, true] {
                        let kind = if parity {
                            EmblemKind::Parity
                        } else {
                            EmblemKind::Data
                        };
                        for group in 0..p.groups() as u16 + 2 {
                            for index in 0..p.total_emblems() as u16 + 25 {
                                let payload_len = (usize::from(index) < p.total_emblems())
                                    .then(|| p.header(kind, index.into()).payload_len);
                                let h = EmblemHeader::new(
                                    kind,
                                    index,
                                    group,
                                    payload_len.unwrap_or(1),
                                    len as u32,
                                );
                                assert_eq!(
                                    p.slot_of(&h).is_some(),
                                    produced.contains(&(parity, group, index)),
                                    "{n} chunks, parity {with_parity}: {h:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // The headers are the ones the encoder stamps (2 outer groups).
        let g = geom();
        let data = payload(g.payload_capacity() * 20 + 5);
        let p = plan(&g, data.len(), true);
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        assert_eq!(images.len(), p.total_emblems());
        for (e, image) in images.iter().enumerate() {
            let (h, _, _) = crate::decode::decode_emblem(&g, image).unwrap();
            assert_eq!(h, p.header(EmblemKind::Data, e));
        }
    }

    #[test]
    fn checked_plan_refuses_the_u16_overflow() {
        // 65 536 emissions end at index u16::MAX; one more chunk does not.
        assert!(StreamPlan::checked(65_536 * 7, 7, false).is_some());
        assert!(StreamPlan::checked(65_536 * 7 + 1, 7, false).is_none());
        assert!(StreamPlan::checked(u32::MAX as usize, 223, true).is_none());
        // With parity: 3 276 full groups, then a 13-chunk tail group.
        let most = 3276 * GROUP_DATA + 13;
        let p = StreamPlan::checked(most * 7, 7, true).unwrap();
        assert_eq!(p.total_emblems(), 65_536);
        assert!(StreamPlan::checked(most * 7 + 1, 7, true).is_none());
        // The encoder refuses such a stream instead of wrapping indices.
        let g = EmblemGeometry::test_micro();
        let too_long = vec![0u8; g.payload_capacity() * 65_536 + 1];
        let encode = || {
            stream_emissions(
                &g,
                EmblemKind::Data,
                &too_long,
                false,
                ThreadConfig::Serial,
                &Telemetry::off(),
            )
        };
        assert!(std::panic::catch_unwind(encode).is_err());
    }

    #[test]
    fn single_emblem_stream_roundtrip() {
        let g = geom();
        let data = payload(300);
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        assert_eq!(images.len(), 4); // 1 data + 3 parity
        let (out, stats) = decode_stream(&g, &images).unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.emblems_recovered, 0);
    }

    /// Two whole streams of different lengths in one pile, four frames
    /// each: the tie goes to the stream whose frame comes first, at any
    /// thread count, and the other stream's frames are failed scans.
    #[test]
    fn stream_length_tie_goes_to_the_earliest_frame() {
        let g = geom();
        let (a, b) = (payload(300), payload(200));
        let images_a = encode_stream(&g, EmblemKind::Data, &a, true);
        let images_b = encode_stream(&g, EmblemKind::Data, &b, true);
        for (first, second, want) in [(&images_a, &images_b, &a), (&images_b, &images_a, &b)] {
            let pile: Vec<&GrayImage> = first.iter().chain(second.iter()).collect();
            for threads in [ThreadConfig::Serial, ThreadConfig::Fixed(3)] {
                let (out, stats) = decode_stream_traced(&g, &pile, threads, &Telemetry::off())
                    .expect("the earliest stream decodes");
                assert_eq!(&out, want);
                assert_eq!(stats.failed_scans, 4);
            }
        }
    }

    /// The length most frames carry wins wherever a foreign frame sits,
    /// and the foreign frame takes no slot of the voted plan; no frames,
    /// no length.
    #[test]
    fn stream_length_vote_goes_to_the_majority() {
        assert_eq!(vote_stream_len([]), None);
        let (_, one) = frames(EmblemKind::Data, 1, 4, 1, false);
        let (plan, two) = frames(EmblemKind::Data, 2, 4, 0, false);
        for pile in [[&one, &two], [&two, &one]] {
            let pile: Vec<Decoded> = pile.into_iter().flatten().cloned().collect();
            assert_eq!(vote_stream_len(pile.iter().map(|(h, _, _)| h)), Some(8));
            let placed = plan.place(pile);
            assert_eq!(placed.stats.failed_scans, 1);
            assert!(placed.missing_data().is_empty());
        }
        assert_eq!(vote_stream_len([&one[0].0]), Some(3));
    }

    #[test]
    fn multi_emblem_stream_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity() * 4 + 123);
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        assert_eq!(images.len(), 5 + 3);
        let (out, _) = decode_stream(&g, &images).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn any_three_missing_recovered() {
        let g = geom();
        let data = payload(g.payload_capacity() * 5 + 17);
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        // Drop 3 emblems: two data + one parity.
        let kept: Vec<GrayImage> = images
            .iter()
            .enumerate()
            .filter(|(i, _)| ![1usize, 4, 7].contains(i))
            .map(|(_, im)| im.clone())
            .collect();
        let (out, stats) = decode_stream(&g, &kept).unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.emblems_recovered, 2); // the two data emblems
    }

    #[test]
    fn four_missing_fails() {
        let g = geom();
        let data = payload(g.payload_capacity() * 5);
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        let kept: Vec<GrayImage> = images
            .iter()
            .enumerate()
            .filter(|(i, _)| ![0usize, 1, 2, 5].contains(i))
            .map(|(_, im)| im.clone())
            .collect();
        match decode_stream(&g, &kept) {
            Err(StreamError::FrameLoss {
                group,
                expected,
                found,
                missing,
            }) => {
                assert_eq!(group, 0);
                assert_eq!(expected, 8); // 5 data + 3 parity
                assert_eq!(found, 4);
                assert_eq!(missing, vec![0, 1, 2, 5]);
            }
            other => panic!("expected FrameLoss, got {other:?}"),
        }
    }

    /// Placement alone names absent data slots by global emblem index
    /// across groups: chunk 18 is emission 21 under the outer layout.
    #[test]
    fn placement_names_missing_data_slots_by_global_index() {
        let (p, mut decoded) = frames(EmblemKind::Data, 20, 8, 0, true);
        decoded.remove(18);
        decoded.remove(2);
        let placed = p.place(decoded);
        assert_eq!(placed.stats.failed_scans, 0);
        assert_eq!(placed.missing_data(), vec![2, 21]);
    }

    #[test]
    fn unordered_and_duplicated_scans_ok() {
        let g = geom();
        let data = payload(g.payload_capacity() * 2 + 9);
        let mut images = encode_stream(&g, EmblemKind::Data, &data, true);
        images.reverse();
        let dup = images[0].clone();
        images.push(dup);
        let (out, _) = decode_stream(&g, &images).unwrap();
        assert_eq!(out, data);
        // The same for decoded frames placed directly: a duplicate and a
        // reversed order change nothing, and the short tail chunk ends the
        // stream.
        let (p, mut decoded) = frames(EmblemKind::System, 5, 4, 1, false);
        decoded.push(decoded[3].clone());
        decoded.reverse();
        let placed = p.place(decoded);
        assert_eq!(placed.stats.failed_scans, 0);
        let (out, _) = placed.recover(&Telemetry::off()).unwrap();
        assert_eq!(out.len(), 19);
        assert_eq!((out[0], out[16], out[18]), (0, 4, 4));
    }

    /// A chunk whose payload is shorter than its slot is not placed: its
    /// slot stays missing (frame loss), never a short, shifted stream —
    /// whether the header still promises the full chunk or was forged to
    /// promise the short one.
    #[test]
    fn truncated_payload_leaves_its_slot_missing() {
        let (p, mut decoded) = frames(EmblemKind::Data, 3, 6, 0, false);
        decoded[1].1.truncate(2); // chunk present, bytes short
        let mut forged = decoded.clone();
        forged[1].0.payload_len = 2;
        for pile in [decoded, forged] {
            let placed = p.place(pile);
            assert_eq!(placed.stats.failed_scans, 1);
            assert_eq!(placed.missing_data(), vec![1]);
            assert!(matches!(
                placed.recover(&Telemetry::off()),
                Err(StreamError::FrameLoss { missing, .. }) if missing == vec![1]
            ));
        }
    }

    #[test]
    fn no_parity_stream_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity() * 3 + 1);
        let images = encode_stream(&g, EmblemKind::Data, &data, false);
        assert_eq!(images.len(), 4);
        let (out, _) = decode_stream(&g, &images).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn no_parity_stream_missing_emblem_fails() {
        let g = geom();
        let data = payload(g.payload_capacity() * 3);
        let images = encode_stream(&g, EmblemKind::Data, &data, false);
        let kept = &images[1..];
        match decode_stream(&g, kept) {
            Err(StreamError::FrameLoss {
                expected,
                found,
                missing,
                ..
            }) => {
                // No parity was ever encoded, so only the three data
                // emblems count as expected — and only the lost one as
                // missing.
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
                assert_eq!(missing, vec![0]);
            }
            other => panic!("expected FrameLoss, got {other:?}"),
        }
    }

    #[test]
    fn rogue_header_cannot_flip_layout_or_poison_slots() {
        // A checksum-valid emblem whose header claims coordinates no
        // layout provides (the damaged-scan collision case): it must be
        // counted as a failed scan, not flip an intact dense multi-group
        // stream into the parity layout or displace a genuine chunk.
        let g = geom();
        let data = payload(g.payload_capacity() * 20 + 5); // 21 chunks, 2 groups
        let images = encode_stream(&g, EmblemKind::Data, &data, false);
        let rogue_h = EmblemHeader::new(EmblemKind::Data, 40, 1, 7, data.len() as u32);
        let mut scans = images.clone();
        scans.push(crate::encode::encode_emblem(&g, &rogue_h, &payload(7)));
        let (out, stats) = decode_stream(&g, &scans).unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.failed_scans, 1);
    }

    #[test]
    fn losing_every_parity_frame_still_decodes_a_multi_group_stream() {
        // With all parity emblems gone, the layout must be inferred from
        // the surviving data indices (group >= 1 disambiguates) so the
        // dense mapping does not mis-slot the second group.
        let g = geom();
        let data = payload(g.payload_capacity() * 20 + 5); // 21 chunks, 2 groups
        let images = encode_stream(&g, EmblemKind::Data, &data, true);
        assert_eq!(images.len(), 27); // 21 data + 6 parity
                                      // Parity emblems sit at indices 17..20 and 24..27 of the emission
                                      // order (after each group's data).
        let kept: Vec<GrayImage> = images
            .iter()
            .enumerate()
            .filter(|(i, _)| !(17..20).contains(i) && !(24..27).contains(i))
            .map(|(_, im)| im.clone())
            .collect();
        assert_eq!(kept.len(), 21);
        let (out, stats) = decode_stream(&g, &kept).unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.emblems_recovered, 0);
        // Decoded data frames alone, placed under the outer layout: the
        // second group's indices skip group 0's parity slots.
        let (p, decoded) = frames(EmblemKind::Data, 20, 8, 3, true);
        let (out, _) = p.place(decoded).recover(&Telemetry::off()).unwrap();
        assert_eq!(out.len(), 20 * 8 - 3);
        assert_eq!(out[17 * 8], 17, "group-1 chunks land at the right offset");
    }

    #[test]
    fn empty_payload_still_produces_an_emblem() {
        let g = geom();
        let images = encode_stream(&g, EmblemKind::System, &[], true);
        assert_eq!(images.len(), 4);
        let (out, _) = decode_stream(&g, &images).unwrap();
        assert!(out.is_empty());
    }
}
