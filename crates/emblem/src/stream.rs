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

use crate::decode::{decode_emblem, DecodeStats};
use crate::encode::encode_emblem;
use crate::geometry::EmblemGeometry;
use crate::header::{EmblemHeader, EmblemKind};
use ule_gf256::RsCode;
use ule_obs::Telemetry;
use ule_par::ThreadConfig;
use ule_raster::GrayImage;

/// Data emblems per full group.
pub const GROUP_DATA: usize = 17;
/// Parity emblems per group.
pub const GROUP_PARITY: usize = 3;

/// How a payload maps onto emblems.
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

impl StreamPlan {
    pub fn total_emblems(&self) -> usize {
        self.data_emblems + self.parity_emblems
    }
}

/// Compute the emblem plan for `len` payload bytes.
pub fn plan(geom: &EmblemGeometry, len: usize, with_parity: bool) -> StreamPlan {
    let chunk = geom.payload_capacity();
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
    encode_stream_with(geom, kind, payload, with_parity, ThreadConfig::Serial)
}

/// [`encode_stream`] with the per-emblem work (outer-code parity, inner RS
/// encode, cell layout, rasterisation) fanned out across `threads` workers.
///
/// Determinism: emblem content is a pure function of `(header, chunk)`, and
/// both the outer-parity stage (one job per group) and the render stage
/// (one job per emblem) join their results in index order, so the produced
/// images are byte-identical to the serial path at any thread count
/// (`tests/parallel_identity.rs` pins this; `tests/golden_format.rs` pins
/// the absolute bytes so the frozen format cannot drift).
pub fn encode_stream_with(
    geom: &EmblemGeometry,
    kind: EmblemKind,
    payload: &[u8],
    with_parity: bool,
    threads: ThreadConfig,
) -> Vec<GrayImage> {
    encode_stream_traced(geom, kind, payload, with_parity, threads, &Telemetry::off())
}

/// [`encode_stream_with`] plus telemetry: spans for the outer-parity and
/// render stages, counters for data/parity emblem counts. The recorder
/// only observes — emitted images are byte-identical to the untraced path
/// (and the default [`Telemetry::off`] handle never reads the clock).
pub fn encode_stream_traced(
    geom: &EmblemGeometry,
    kind: EmblemKind,
    payload: &[u8],
    with_parity: bool,
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Vec<GrayImage> {
    let p = plan(geom, payload.len(), with_parity);
    let cap = p.chunk_size;
    let total = payload.len() as u32;
    let n_groups = p.data_emblems.div_ceil(GROUP_DATA);
    let chunk = |c: usize| -> &[u8] {
        let start = c * cap;
        let end = ((c + 1) * cap).min(payload.len());
        &payload[start.min(payload.len())..end]
    };

    // Stage 1: outer-code parity chunks, one independent job per group.
    // `parity_of` batches all `cap` byte columns per slice-kernel call
    // (DESIGN.md §12) — byte-identical to the old column-at-a-time
    // `fill_parity` loop, which is exactly the per-column contract
    // `parity_of` documents and pins.
    let parity_chunks: Vec<Vec<Vec<u8>>> = if with_parity {
        let _span = tel.span("archive.encode.parity");
        ule_par::map_indexed(threads, n_groups, |g| {
            let base = g * GROUP_DATA;
            let in_group = (p.data_emblems - base).min(GROUP_DATA);
            let rs = RsCode::new(in_group + GROUP_PARITY, in_group);
            let padded: Vec<Vec<u8>> = (0..in_group)
                .map(|i| {
                    let mut c = chunk(base + i).to_vec();
                    c.resize(cap, 0);
                    c
                })
                .collect();
            let refs: Vec<&[u8]> = padded.iter().map(|c| c.as_slice()).collect();
            rs.parity_of(&refs)
        })
    } else {
        Vec::new()
    };

    // Stage 2: flatten to the emission order (group's data, then its
    // parity; global sequential indices), then render every emblem in
    // parallel.
    let mut jobs: Vec<(EmblemHeader, &[u8])> = Vec::with_capacity(p.total_emblems());
    let mut index = 0u16;
    for g in 0..n_groups {
        let base = g * GROUP_DATA;
        let in_group = (p.data_emblems - base).min(GROUP_DATA);
        for i in 0..in_group {
            let ch = chunk(base + i);
            let header = EmblemHeader::new(kind, index, g as u16, ch.len() as u32, total);
            jobs.push((header, ch));
            index += 1;
        }
        if with_parity {
            for pchunk in &parity_chunks[g] {
                let header =
                    EmblemHeader::new(EmblemKind::Parity, index, g as u16, cap as u32, total);
                jobs.push((header, pchunk.as_slice()));
                index += 1;
            }
        }
    }
    tel.add("encode.data_emblems", p.data_emblems as u64);
    tel.add("encode.parity_emblems", p.parity_emblems as u64);
    let _span = tel.span("archive.encode.render");
    ule_par::map(threads, &jobs, |(header, ch)| {
        encode_emblem(geom, header, ch)
    })
}

/// Stream-level decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum StreamError {
    /// No scan decoded to a usable emblem.
    NoEmblems,
    /// Emblems disagree about the stream length.
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
            StreamError::InconsistentHeaders => write!(f, "emblem headers disagree"),
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
    decode_stream_with(geom, scans, ThreadConfig::Serial)
}

/// [`decode_stream`] with the per-scan pipeline (locate border → resample
/// grid → inner RS errors correction) fanned out across `threads` workers.
/// The outer-code erasure recovery and reassembly run after the join and
/// consume per-scan results in input order, so payload bytes and
/// [`StreamStats`] are identical to the serial path at any thread count.
pub fn decode_stream_with(
    geom: &EmblemGeometry,
    scans: &[GrayImage],
    threads: ThreadConfig,
) -> Result<(Vec<u8>, StreamStats), StreamError> {
    decode_stream_traced(geom, scans, threads, &Telemetry::off())
}

/// [`decode_stream_with`] plus decode-health telemetry: a per-frame span
/// (recorded into one shard per scan, merged in input order after the
/// join — worker scheduling can never reorder the trace), RS corrected-
/// symbol and erasure counters, and the clean-frame fast-path hit ratio.
///
/// The recorder only observes: payload bytes and [`StreamStats`] are
/// identical to the untraced path, and a disabled handle skips the
/// sharded fan-out entirely.
pub fn decode_stream_traced(
    geom: &EmblemGeometry,
    scans: &[GrayImage],
    threads: ThreadConfig,
    tel: &Telemetry,
) -> Result<(Vec<u8>, StreamStats), StreamError> {
    let mut stats = StreamStats {
        scans: scans.len(),
        ..Default::default()
    };
    // Individual decode; tolerate per-scan failures (the outer code's job).
    // With telemetry on, each scan gets its own recorder shard (worker
    // writes stay item-local) and the shards merge back in input order.
    let results = if tel.is_enabled() {
        let shards = tel.fork(scans.len());
        let jobs: Vec<(&GrayImage, Telemetry)> = scans.iter().zip(shards.iter().cloned()).collect();
        let results = ule_par::map(threads, &jobs, |(scan, shard)| {
            let _frame = shard.span("scan.decode.frame");
            decode_emblem(geom, scan)
        });
        tel.absorb(shards);
        results
    } else {
        ule_par::map(threads, scans, |scan| decode_emblem(geom, scan))
    };
    let mut decoded: Vec<(EmblemHeader, Vec<u8>, DecodeStats)> = Vec::new();
    for r in results {
        match r {
            Ok(r) => decoded.push(r),
            Err(_) => stats.failed_scans += 1,
        }
    }
    tel.add("decode.frames_total", scans.len() as u64);
    tel.add("decode.frames_failed", stats.failed_scans as u64);
    if decoded.is_empty() {
        return Err(StreamError::NoEmblems);
    }
    let total_len = decoded[0].0.total_len;
    if decoded.iter().any(|(h, _, _)| h.total_len != total_len) {
        return Err(StreamError::InconsistentHeaders);
    }
    let mut clean_frames = 0u64;
    for (_, _, s) in &decoded {
        stats.rs_corrected += s.rs_corrected;
        if s.rs_corrected == 0 {
            clean_frames += 1;
        } else {
            tel.add("decode.frames_corrected", 1);
        }
        tel.add("decode.corrected_symbols", s.rs_corrected as u64);
        tel.add("decode.sync_errors", s.sync_errors as u64);
        if s.header_copy_used > 0 {
            tel.add("decode.header_retries", 1);
        }
    }
    tel.add("decode.clean_frames", clean_frames);

    let cap = geom.payload_capacity();
    let n_chunks = (total_len as usize).div_ceil(cap).max(1);
    let n_groups = n_chunks.div_ceil(GROUP_DATA);
    // Did this stream carry outer parity? Surviving parity emblems say so
    // directly; failing that, a data emblem whose (group, index) pair is
    // *valid* under the parity layout but *invalid* under the dense one
    // betrays the parity slots even when every parity frame was lost. The
    // two-sided consistency check matters: a damaged-but-checksum-
    // colliding header with an arbitrary out-of-range index must not flip
    // an intact dense stream into the parity layout (it reads as garbage
    // under both and is ignored here, then counted as a failed scan
    // below). Residual blind spot: a stream that lost all its parity
    // frames and every layout-disambiguating data emblem looks
    // parity-less; group-0 emblems never disambiguate (both layouts
    // agree there). Mis-inference can only misreport FrameLoss details
    // or fail a group whose parity is entirely gone — never silently
    // corrupt the success path.
    let data_consistent = |h: &EmblemHeader, with_parity: bool| -> bool {
        let group = h.group as usize;
        if group >= n_chunks.div_ceil(GROUP_DATA) {
            return false;
        }
        let start = chunk_global_index(group * GROUP_DATA, with_parity);
        let idx = h.index as usize;
        idx >= start && idx - start < group_data_count(group, n_chunks)
    };
    let had_parity = decoded.iter().any(|(h, _, _)| h.kind == EmblemKind::Parity)
        || decoded.iter().any(|(h, _, _)| {
            h.kind != EmblemKind::Parity && data_consistent(h, true) && !data_consistent(h, false)
        });

    // Rebuild chunk table: chunk c lives in group c / 17 at position c % 17.
    let mut chunks: Vec<Option<Vec<u8>>> = vec![None; n_chunks];
    let mut parity: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; GROUP_PARITY]; n_groups];
    for (h, payload, _) in decoded {
        let idx = h.index as usize;
        let group = h.group as usize;
        // A damaged-but-checksum-colliding header (or a scan from some
        // other archive) can carry any (group, index) pair; coordinates
        // inconsistent with this stream's layout count as a failed scan
        // instead of panicking on index math or clobbering a good slot.
        let group_start_idx = if group < n_groups {
            group_start_index(group, n_chunks, had_parity)
        } else {
            usize::MAX
        };
        if group >= n_groups || idx < group_start_idx {
            stats.failed_scans += 1;
            continue;
        }
        let in_group = group_data_count(group, n_chunks);
        match h.kind {
            EmblemKind::Parity => {
                // Parity emblems follow the group's data emblems: their
                // position within the group is recovered from the index.
                // An index inside the data range (or past the parity
                // slots) is another layout inconsistency — rejecting it
                // keeps a colliding header from clobbering a slot whose
                // genuine emblem would then be dropped as a duplicate.
                if idx < group_start_idx + in_group {
                    stats.failed_scans += 1;
                    continue;
                }
                let pos = idx - (group_start_idx + in_group);
                if pos >= GROUP_PARITY {
                    stats.failed_scans += 1;
                    continue;
                }
                if parity[group][pos].is_none() {
                    let mut p = payload;
                    p.resize(cap, 0);
                    parity[group][pos] = Some(p);
                }
            }
            _ => {
                // Same inconsistency guard for data: the index must land
                // inside its own group's data range, or first-copy-wins
                // would let garbage displace the genuine chunk.
                let pos = idx - group_start_idx;
                if pos >= in_group {
                    stats.failed_scans += 1;
                    continue;
                }
                let chunk_no = group * GROUP_DATA + pos;
                if chunks[chunk_no].is_none() {
                    chunks[chunk_no] = Some(payload);
                }
            }
        }
    }

    // Per-group erasure recovery.
    for group in 0..n_chunks.div_ceil(GROUP_DATA) {
        let in_group = group_data_count(group, n_chunks);
        let base = group * GROUP_DATA;
        let missing: Vec<usize> = (0..in_group)
            .filter(|&i| chunks[base + i].is_none())
            .collect();
        if missing.is_empty() {
            continue;
        }
        let parity_avail = parity[group].iter().filter(|p| p.is_some()).count();
        let missing_parity = GROUP_PARITY - parity_avail;
        if missing.len() + missing_parity > GROUP_PARITY {
            // Name the absent frames by their global emblem indices. A
            // stream encoded without parity counts only its data emblems
            // as expected — the three "missing" parity slots are not lost
            // frames, they never existed.
            let start = group_start_index(group, n_chunks, had_parity);
            let mut absent: Vec<u16> = missing.iter().map(|&i| (start + i) as u16).collect();
            let mut expected = in_group;
            if had_parity {
                expected += GROUP_PARITY;
                for (pi, p) in parity[group].iter().enumerate() {
                    if p.is_none() {
                        absent.push((start + in_group + pi) as u16);
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
        let rs = RsCode::new(in_group + GROUP_PARITY, in_group);
        // Erasure positions in codeword coordinates.
        let mut erasures: Vec<usize> = missing.clone();
        for (pi, p) in parity[group].iter().enumerate() {
            if p.is_none() {
                erasures.push(in_group + pi);
            }
        }
        stats.erasure_frames += erasures.len();
        let _recovery = tel.span("scan.decode.outer_recovery");
        let mut outer_corrected = 0u64;
        let mut recovered: Vec<Vec<u8>> = vec![vec![0u8; cap]; missing.len()];
        let mut col = vec![0u8; in_group + GROUP_PARITY];
        for j in 0..cap {
            for i in 0..in_group {
                col[i] = chunks[base + i]
                    .as_ref()
                    .map_or(0, |c| c.get(j).copied().unwrap_or(0));
            }
            for (pi, p) in parity[group].iter().enumerate() {
                col[in_group + pi] = p.as_ref().map_or(0, |c| c[j]);
            }
            let fixed =
                rs.decode(&mut col, &erasures)
                    .map_err(|_| StreamError::TooManyMissing {
                        group: group as u16,
                        missing: erasures.len(),
                        correctable: GROUP_PARITY,
                    })?;
            outer_corrected += fixed as u64;
            for (mi, &m) in missing.iter().enumerate() {
                recovered[mi][j] = col[m];
            }
        }
        tel.add("decode.erasure_frames", erasures.len() as u64);
        tel.add("decode.outer_corrected_symbols", outer_corrected);
        for (mi, m) in missing.into_iter().enumerate() {
            // Trim the final chunk to the stream tail length.
            let chunk_no = base + m;
            let logical_len = if chunk_no + 1 == n_chunks {
                total_len as usize - chunk_no * cap
            } else {
                cap
            };
            let mut c = std::mem::take(&mut recovered[mi]);
            c.truncate(logical_len);
            chunks[chunk_no] = Some(c);
            stats.emblems_recovered += 1;
        }
    }

    tel.add("decode.emblems_recovered", stats.emblems_recovered as u64);

    // Concatenate.
    let mut out = Vec::with_capacity(total_len as usize);
    for c in chunks {
        out.extend_from_slice(&c.expect("all chunks present after recovery"));
    }
    out.truncate(total_len as usize);
    Ok((out, stats))
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
/// that share the numbering. This is *the* frozen index layout — the
/// restorer's emulated path maps sequence numbers through it too.
pub fn chunk_global_index(chunk: usize, with_parity: bool) -> usize {
    if with_parity {
        (chunk / GROUP_DATA) * (GROUP_DATA + GROUP_PARITY) + chunk % GROUP_DATA
    } else {
        chunk
    }
}

/// Global emblem index at which `group`'s data emblems start. (Only the
/// last group can be short, so every preceding group is full and the
/// chunk mapping applies directly.)
fn group_start_index(group: usize, _n_chunks: usize, with_parity: bool) -> usize {
    chunk_global_index(group * GROUP_DATA, with_parity)
}

/// Number of data emblems in `group`.
fn group_data_count(group: usize, n_chunks: usize) -> usize {
    (n_chunks - group * GROUP_DATA).min(GROUP_DATA)
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
