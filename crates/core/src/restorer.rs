//! Restoration (Figure 2b): native fast path and the fully emulated path.
//!
//! The emulated path is the ULE proof: starting from nothing but the
//! Bootstrap text and the scans, it
//!
//! 1. parses the Bootstrap (letters → the VeRisc memory image holding the
//!    DynaRisc emulator + MODecode);
//! 2. runs MODecode *under the selected [`EmulationTier`]* on every scan
//!    to extract emblem headers and payloads — one independent DynaRisc
//!    machine per scan, fanned out over `ule_par` (`DESIGN.md` §9);
//! 3. assembles the system payloads into the DBDecode instruction stream;
//! 4. runs DBDecode on the concatenated data payloads to recover the SQL
//!    archive.
//!
//! No native decoder is invoked on any tier: even the host-engine tiers
//! execute only the *archived* MODecode/DBDecode instruction streams, with
//! MODecode read back out of the Bootstrap's own image prefix.
//!
//! Host-side work is limited to what the Bootstrap explicitly delegates
//! to the restoring user: scanning, thresholding pixels, laying out the
//! decoder's input memory, and reading the output region — "any standard
//! image handling libraries can be used for automating this task" (§3.3).

use crate::archiver::MicrOlonys;
use crate::bootstrap::document::Bootstrap;
use ule_compress::ArchiveError;
use ule_dynarisc::layout;
use ule_dynarisc::programs::modecode::ModecodeParams;
use ule_dynarisc::programs::{dbdecode, modecode};
use ule_dynarisc::{ThreadedImage, Vm, VmError};
use ule_emblem::geometry::RS_K;
use ule_emblem::stream::{chunk_global_index, GROUP_DATA};
use ule_emblem::{
    decode_stream, decode_stream_traced, record_decode_health, EmblemHeader, EmblemKind,
    StreamError,
};
use ule_gf256::crc::crc32_update;
use ule_obs::Telemetry;
use ule_par::ThreadConfig;
use ule_raster::GrayImage;
use ule_verisc::vm::{EngineKind, VeriscError};
use ule_verisc::NestedEmulator;

/// Restoration failures.
#[derive(Debug)]
pub enum RestoreError {
    /// Stream-level failure in the native path.
    Stream(StreamError),
    /// Archive container failed to decode.
    Archive(ArchiveError),
    /// The VeRisc machine faulted or ran out of budget.
    Verisc(VeriscError),
    /// A host DynaRisc machine faulted or ran out of budget
    /// ([`EmulationTier::Threaded`] / [`EmulationTier::Interpreter`]).
    DynaRisc(VmError),
    /// An emulated decoder reported a bad status word.
    DecoderStatus(u16),
    /// An emblem's header could not be parsed after emulated decode.
    BadHeader(usize),
    /// The emulated path found no system emblems (no decoder!).
    NoDecoder,
    /// Whole frames are missing — lost, or too damaged to decode — beyond
    /// what the restoration path can absorb (the emulated path has no
    /// outer-code recovery at all; the native path is limited by the
    /// outer code's budget). `expected`/`found` count the emblems of
    /// `kind`; `missing` lists the absent frames' global emblem indices,
    /// so the operator knows exactly which frames to hunt for.
    FrameLoss {
        kind: EmblemKind,
        expected: usize,
        found: usize,
        missing: Vec<usize>,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Stream(e) => write!(f, "emblem stream: {e}"),
            RestoreError::Archive(e) => write!(f, "archive: {e}"),
            RestoreError::Verisc(e) => write!(f, "verisc: {e}"),
            RestoreError::DynaRisc(e) => write!(f, "dynarisc: {e}"),
            RestoreError::DecoderStatus(s) => write!(f, "emulated decoder status {s}"),
            RestoreError::BadHeader(i) => write!(f, "scan {i}: unparseable emblem header"),
            RestoreError::NoDecoder => write!(f, "no system emblems found"),
            RestoreError::FrameLoss {
                kind,
                expected,
                found,
                missing,
            } => write!(
                f,
                "frame loss: {found} of {expected} {kind:?} emblems present, missing indices {missing:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<StreamError> for RestoreError {
    fn from(e: StreamError) -> Self {
        RestoreError::Stream(e)
    }
}
impl From<ArchiveError> for RestoreError {
    fn from(e: ArchiveError) -> Self {
        RestoreError::Archive(e)
    }
}
impl From<VeriscError> for RestoreError {
    fn from(e: VeriscError) -> Self {
        RestoreError::Verisc(e)
    }
}
impl From<VmError> for RestoreError {
    fn from(e: VmError) -> Self {
        RestoreError::DynaRisc(e)
    }
}

/// Diagnostics from a restoration run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreStats {
    pub scans: usize,
    pub emblems_recovered: usize,
    /// Symbol positions fixed by the inner Reed–Solomon code across every
    /// decoded frame, on the full native and the selective path alike.
    pub rs_corrected: usize,
    /// Frame slots (data *and* parity) the outer code had to treat as
    /// erasures during recovery — the decode-health signal behind
    /// [`RestoreStats::emblems_recovered`], which only counts the data
    /// emblems actually rebuilt.
    pub erasure_frames: usize,
    /// Total VeRisc instructions executed ([`EmulationTier::Nested`] only).
    pub verisc_steps: u64,
    /// Total DynaRisc instructions executed on a host engine
    /// ([`EmulationTier::Threaded`] / [`EmulationTier::Interpreter`] only).
    pub guest_steps: u64,
    /// CRC-32 over the per-frame MODecode outputs, concatenated in scan
    /// input order (emulated path only). Two emulated runs decoded the
    /// same frames identically iff these match — the per-run identity
    /// check the E12 gate and `tests/parallel_identity.rs` compare across
    /// tiers and thread counts.
    pub frame_crc32: u32,
    /// Data payload bytes decoded.
    pub archive_bytes: usize,
}

/// Which engine stack hosts the archived decoders on the emulated path.
///
/// Every tier executes the same archived MODecode/DBDecode instruction
/// streams; they differ only in who runs DynaRisc:
///
/// * [`Threaded`](EmulationTier::Threaded) — the pre-compiled
///   direct-dispatch engine (`ule_dynarisc::threaded`). The production
///   tier: fastest, and the one E12 holds to a small constant factor of
///   the native decoder.
/// * [`Interpreter`](EmulationTier::Interpreter) — the reference
///   interpreter (`ule_dynarisc::vm`), whose `step` match is the ISA
///   specification.
/// * [`Nested`](EmulationTier::Nested) — the DynaRisc emulator *written
///   in VeRisc*, hosted by one of the three independent from-scratch
///   VeRisc interpreters: the paper's portability proof (E5/E7), slowest
///   by ~3 decimal orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmulationTier {
    Threaded,
    Interpreter,
    Nested(EngineKind),
}

impl MicrOlonys {
    /// Native restoration: full damage tolerance (inner RS correction,
    /// outer-code erasure recovery), no emulation. The per-scan pipeline
    /// (locate → decode → inner RS errors correction) fans out across
    /// `self.threads`; the outer errors-and-erasures recovery joins the
    /// results in index order, so the restored bytes are identical at any
    /// thread count.
    ///
    /// Records into `self.telemetry`: a `restore.native` span over the
    /// whole pass, the per-frame RS and erasure counters from the stream
    /// decoder, and decompression codec counters. The recorder only
    /// observes — restored bytes and stats are identical with it off.
    pub fn restore_native(
        &self,
        data_scans: &[GrayImage],
    ) -> Result<(Vec<u8>, RestoreStats), RestoreError> {
        let tel = &self.telemetry;
        let _span = tel.span("restore.native");
        let geom = self.medium.geometry;
        let (archive, s) =
            decode_stream_traced(&geom, data_scans, self.threads, tel).map_err(|e| match e {
                // Surface lost frames as the structured top-level error so
                // campaign runners and operators see indices, not prose.
                StreamError::FrameLoss {
                    expected,
                    found,
                    missing,
                    ..
                } => RestoreError::FrameLoss {
                    kind: EmblemKind::Data,
                    expected,
                    found,
                    missing: missing.iter().map(|&i| i as usize).collect(),
                },
                other => RestoreError::Stream(other),
            })?;
        let dump = {
            let _decompress = tel.span("restore.decompress");
            ule_compress::decompress(&archive)?
        };
        tel.add("codec.restore.bytes_in", archive.len() as u64);
        tel.add("codec.restore.bytes_out", dump.len() as u64);
        Ok((
            dump,
            RestoreStats {
                scans: s.scans,
                emblems_recovered: s.emblems_recovered,
                rs_corrected: s.rs_corrected,
                erasure_frames: s.erasure_frames,
                archive_bytes: archive.len(),
                ..Default::default()
            },
        ))
    }

    /// [`MicrOlonys::restore_native`] recording into `tel` instead of
    /// `self.telemetry`. Kept only because the out-of-workspace benchmark
    /// (`benchmark/`) times it; new code sets the field instead.
    pub fn restore_native_traced(
        &self,
        data_scans: &[GrayImage],
        tel: &Telemetry,
    ) -> Result<(Vec<u8>, RestoreStats), RestoreError> {
        self.clone()
            .with_telemetry(tel.clone())
            .restore_native(data_scans)
    }

    /// Selective-restore primitive (S16, `DESIGN.md` §11): decode *only*
    /// the named scans — `(global emblem index, scan)` pairs, typically
    /// the frames a vault content index maps a single table to — fanned
    /// out across `self.threads`, and return one outcome per pick, in
    /// input order: `Some(payload)` for every scan that decoded to its
    /// expected global index, `None` for the rest.
    ///
    /// Unlike [`MicrOlonys::restore_native`] this does no outer-code
    /// recovery (the caller chose exactly these frames; recovery would
    /// need frames it deliberately did not scan). A scan that fails to
    /// decode, or whose decoded header names a different global index
    /// than the caller expected (a frame filed on the wrong spot of the
    /// shelf), comes back `None`, so a caller that can rebuild the failed
    /// frames keeps the good payloads and decodes only the rebuilt ones.
    ///
    /// Also returns the per-frame decode health: a [`RestoreStats`] whose
    /// `rs_corrected` aggregates the inner-RS fixes of every frame that
    /// came back `Some`. `self.telemetry` gets a `restore.selective` span,
    /// the `selective.frames_*` counters, and the same decode-health
    /// counters the stream decoder records
    /// ([`ule_emblem::record_decode_health`]).
    pub fn restore_frames(
        &self,
        scans: &[(usize, &GrayImage)],
    ) -> (Vec<Option<Vec<u8>>>, RestoreStats) {
        let tel = &self.telemetry;
        let _span = tel.span("restore.selective");
        let geom = self.medium.geometry;
        let results = ule_par::map(self.threads, scans, |(_, scan)| {
            ule_emblem::decode_emblem(&geom, scan)
        });
        record_decode_health(tel, &results);
        let mut stats = RestoreStats {
            scans: scans.len(),
            ..Default::default()
        };
        let outcomes: Vec<Option<Vec<u8>>> = scans
            .iter()
            .zip(results)
            .map(|(&(expect, _), r)| match r {
                Ok((h, payload, ds)) if h.index as usize == expect => {
                    stats.rs_corrected += ds.rs_corrected;
                    stats.archive_bytes += payload.len();
                    Some(payload)
                }
                _ => None,
            })
            .collect();
        let decoded = outcomes.iter().flatten().count();
        tel.add("selective.frames_requested", scans.len() as u64);
        tel.add("selective.frames_decoded", decoded as u64);
        tel.add("selective.frames_failed", (scans.len() - decoded) as u64);
        (outcomes, stats)
    }

    /// Verify that scanned system emblems really carry the DBDecode
    /// stream (a self-check the archiver can run before shipping media).
    pub fn verify_system_emblems(&self, system_scans: &[GrayImage]) -> Result<bool, RestoreError> {
        let geom = self.medium.geometry;
        let (sys_bytes, _) = decode_stream(&geom, system_scans)?;
        let expected: Vec<u8> = ule_dynarisc::programs::dbdecode::program()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        Ok(sys_bytes == expected)
    }

    /// Fully emulated restoration from the Bootstrap text plus scans.
    ///
    /// `tier` selects who executes the archived decoders (see
    /// [`EmulationTier`]); every tier runs the same MODecode/DBDecode
    /// instruction streams and produces byte-identical output. Scans must
    /// be clean (pristine or lightly degraded) — the archived MODecode
    /// handles the paper's zero-error film scans; damaged media go through
    /// [`MicrOlonys::restore_native`].
    ///
    /// The per-scan MODecode runs fan out over `threads`: each scan's
    /// decode is a pure function of (Bootstrap, scan) on a private machine
    /// instance, `ule_par::map` joins results in input order, and
    /// everything order-sensitive (header parsing, stream assembly, stats
    /// accumulation, the frame CRC) happens after the join on the calling
    /// thread — so the restored bytes and [`RestoreStats::frame_crc32`]
    /// are identical at any thread count (`DESIGN.md` §9;
    /// `tests/parallel_identity.rs` is the proof). The final DBDecode pass
    /// consumes the *concatenated* stream and stays on the calling thread.
    pub fn restore_emulated(
        bootstrap_text: &str,
        scans: &[GrayImage],
        tier: EmulationTier,
        threads: ThreadConfig,
    ) -> Result<(Vec<u8>, RestoreStats), RestoreError> {
        Self::restore_emulated_traced(bootstrap_text, scans, tier, threads, &Telemetry::off())
    }

    /// [`MicrOlonys::restore_emulated`] with emulation telemetry: spans
    /// for the per-scan MODecode fan-out and the final DBDecode pass,
    /// guest/VeRisc step counters, and per-tier dispatch counts (one
    /// dispatch per guest program run). All recording happens on the
    /// calling thread after the `ule_par` join, in input order, so the
    /// restored bytes, stats and trace are identical at any thread count.
    pub fn restore_emulated_traced(
        bootstrap_text: &str,
        scans: &[GrayImage],
        tier: EmulationTier,
        threads: ThreadConfig,
        tel: &Telemetry,
    ) -> Result<(Vec<u8>, RestoreStats), RestoreError> {
        let _span = tel.span("restore.emulated");
        let boot = Bootstrap::parse(bootstrap_text)
            .map_err(|e| RestoreError::Archive(ArchiveError::Corrupt(e.to_string())))?;
        let mut stats = RestoreStats {
            scans: scans.len(),
            ..Default::default()
        };

        // Steps 1–4 per the walkthrough, once per scan, fanned out:
        // threshold pixels, lay out the decoder memory, run MODecode.
        // The host tiers read MODecode back out of the Bootstrap's image
        // prefix — the document, not the native codebase, supplies the
        // decoder on every tier.
        let outs: Vec<Result<(Vec<u8>, u64), RestoreError>> = {
            let _frames = tel.span("restore.emulated.frames");
            match tier {
                EmulationTier::Nested(kind) => ule_par::map(threads, scans, |scan| {
                    run_modecode_nested(&boot, scan, kind)
                }),
                _ => {
                    let runner = GuestRunner::for_tier(tier, modecode_from_prefix(&boot)?);
                    ule_par::map(threads, scans, |scan| {
                        run_modecode_hosted(&boot, scan, &runner)
                    })
                }
            }
        };
        tel.add("emulated.scans", scans.len() as u64);
        tel.add(
            &format!("emulated.dispatch.{}", tier_label(tier)),
            scans.len() as u64,
        );
        let mut decoded: Vec<(EmblemHeader, Vec<u8>)> = Vec::with_capacity(scans.len());
        let mut crc = 0xFFFF_FFFFu32;
        for (i, res) in outs.into_iter().enumerate() {
            let (out, steps) = res?;
            match tier {
                EmulationTier::Nested(_) => stats.verisc_steps += steps,
                _ => stats.guest_steps += steps,
            }
            crc = crc32_update(crc, &out);
            // The emulated decoder's output is untrusted: a hostile scan
            // can hand back fewer than 16 bytes, or a crafted header
            // whose payload length reaches past the buffer.
            let header = out
                .get(..16)
                .ok_or(RestoreError::BadHeader(i))
                .and_then(|h| {
                    EmblemHeader::from_bytes(h).map_err(|_| RestoreError::BadHeader(i))
                })?;
            let payload = out
                .get(16..16 + header.payload_len as usize)
                .ok_or(RestoreError::BadHeader(i))?
                .to_vec();
            decoded.push((header, payload));
        }
        stats.frame_crc32 = crc ^ 0xFFFF_FFFF;

        // Steps 5–6: assemble the DBDecode stream (system emblems) and the
        // data archive. Scans arrive in any order, possibly duplicated,
        // possibly with frames missing; `assemble_stream` sorts this out
        // and names any absent frame by its global emblem index.
        let chunk_cap = boot.nblocks * RS_K;
        let sys_bytes =
            assemble_stream(&decoded, EmblemKind::System, chunk_cap, boot.outer_parity)?;
        let dbdecode_words: Vec<u16> = sys_bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();

        let archive = assemble_stream(&decoded, EmblemKind::Data, chunk_cap, boot.outer_parity)?;
        stats.archive_bytes = archive.len();

        // Run DBDecode on the selected tier over the concatenated stream.
        let out_len = if archive.len() >= 14 {
            u64::from_le_bytes(archive[6..14].try_into().unwrap()) as usize
        } else {
            0
        };
        let (guest_mem, out_base) = layout::build_memory(&archive, out_len, &[]);
        let _dbdecode = tel.span("restore.emulated.dbdecode");
        tel.add(&format!("emulated.dispatch.{}", tier_label(tier)), 1);
        let guest = match tier {
            EmulationTier::Nested(kind) => {
                let mut emu = NestedEmulator::from_image_prefix(
                    &boot.image_prefix,
                    boot.symbols.clone(),
                    &guest_mem,
                );
                emu.load_guest_program(&dbdecode_words, boot.prog_capacity);
                emu.reset_guest();
                // ~5k VeRisc instructions per guest-decoded byte was
                // measured; budget 4× that for safety.
                let budget =
                    100_000u64.saturating_add(20_000 * (archive.len() as u64 + out_len as u64));
                stats.verisc_steps += emu.run(kind, budget)?;
                emu.dyn_mem()
            }
            _ => {
                let runner = GuestRunner::for_tier(tier, dbdecode_words);
                let fuel = dbdecode::step_budget(archive.len(), out_len);
                let (mem, steps) = runner.run(guest_mem, fuel)?;
                stats.guest_steps += steps;
                mem
            }
        };
        let status = u16::from_le_bytes([guest[0], guest[1]]);
        if status != 0 {
            return Err(RestoreError::DecoderStatus(status));
        }
        tel.add("emulated.guest_steps", stats.guest_steps);
        tel.add("emulated.verisc_steps", stats.verisc_steps);
        Ok((layout::read_output(&guest, out_base), stats))
    }
}

/// Telemetry label of an [`EmulationTier`] (the `emulated.dispatch.*`
/// counter family).
fn tier_label(tier: EmulationTier) -> &'static str {
    match tier {
        EmulationTier::Threaded => "threaded",
        EmulationTier::Interpreter => "interpreter",
        EmulationTier::Nested(_) => "nested",
    }
}

/// A host DynaRisc engine holding one archived program, shareable across
/// the per-scan fan-out ([`ThreadedImage`] is `Sync`; the interpreter
/// re-decodes from its own copy of the words).
enum GuestRunner {
    /// Reference interpreter — re-decodes every step.
    Interpreter(Vec<u16>),
    /// Pre-compiled threaded code — one handler pointer per word.
    Threaded(ThreadedImage),
}

impl GuestRunner {
    fn for_tier(tier: EmulationTier, program: Vec<u16>) -> GuestRunner {
        match tier {
            EmulationTier::Threaded => GuestRunner::Threaded(ThreadedImage::compile(&program)),
            _ => GuestRunner::Interpreter(program),
        }
    }

    /// Run the program to completion over `mem` under `fuel`; returns the
    /// final data memory and the DynaRisc instruction count.
    fn run(&self, mem: Vec<u8>, fuel: u64) -> Result<(Vec<u8>, u64), VmError> {
        match self {
            GuestRunner::Interpreter(words) => {
                let mut vm = Vm::new(words.clone(), mem);
                let steps = vm.run(fuel)?;
                Ok((vm.mem, steps))
            }
            GuestRunner::Threaded(image) => {
                let mut vm = image.instantiate(mem);
                let steps = vm.run(fuel)?;
                Ok((vm.mem, steps))
            }
        }
    }
}

/// Read the MODecode instruction stream back out of the Bootstrap's image
/// prefix (the `PROG` region of the archived VeRisc memory image, one
/// 16-bit word per cell). Trailing zero cells past the program's final RET
/// are unreachable and harmless.
fn modecode_from_prefix(boot: &Bootstrap) -> Result<Vec<u16>, RestoreError> {
    let corrupt = |msg: &str| RestoreError::Archive(ArchiveError::Corrupt(msg.to_string()));
    let base = *boot
        .symbols
        .get("PROG")
        .ok_or_else(|| corrupt("Bootstrap image lacks a PROG symbol"))? as usize;
    let end = base
        .checked_add(boot.prog_capacity)
        .filter(|&e| e <= boot.image_prefix.len())
        .ok_or_else(|| corrupt("Bootstrap PROG region exceeds the image prefix"))?;
    Ok(boot.image_prefix[base..end]
        .iter()
        .map(|&cell| cell as u16)
        .collect())
}

/// Reassemble one emblem stream (`kind`) from emulator-decoded emblems,
/// tolerating arbitrary order, duplicates, and interleaved other-kind
/// emblems. The emulated path has no outer-code recovery, so *every*
/// chunk must be present; a shortfall is reported as
/// [`RestoreError::FrameLoss`] naming the missing frames' global emblem
/// indices (derived from the Bootstrap's outer-layout line — sequence
/// numbers skip parity slots when the outer code is on).
fn assemble_stream(
    decoded: &[(EmblemHeader, Vec<u8>)],
    kind: EmblemKind,
    chunk_cap: usize,
    outer_parity: bool,
) -> Result<Vec<u8>, RestoreError> {
    let items: Vec<&(EmblemHeader, Vec<u8>)> =
        decoded.iter().filter(|(h, _)| h.kind == kind).collect();
    if items.is_empty() {
        // With zero emblems of the kind even the stream length is unknown;
        // a missing decoder gets its dedicated error, data gets the
        // minimal truthful report (at least emblem 0 is gone).
        if kind == EmblemKind::System {
            return Err(RestoreError::NoDecoder);
        }
        return Err(RestoreError::FrameLoss {
            kind,
            expected: 1,
            found: 0,
            missing: vec![0],
        });
    }
    let total = items[0].0.total_len as usize;
    let expected_chunks = total.div_ceil(chunk_cap.max(1)).max(1);
    let mut chunks: Vec<Option<&[u8]>> = vec![None; expected_chunks];
    for (h, p) in items {
        let idx = h.index as usize;
        let group = h.group as usize;
        let start = chunk_global_index(group * GROUP_DATA, outer_parity);
        // An index outside the group's own data range is a malformed
        // header; rejecting it keeps garbage from displacing the genuine
        // chunk (first copy wins below) — the slot stays missing instead.
        if idx < start || idx - start >= GROUP_DATA {
            continue;
        }
        let chunk = group * GROUP_DATA + (idx - start);
        if chunk < expected_chunks && chunks[chunk].is_none() {
            chunks[chunk] = Some(p.as_slice());
        }
    }
    let missing: Vec<usize> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_none())
        .map(|(c, _)| chunk_global_index(c, outer_parity))
        .collect();
    if !missing.is_empty() {
        return Err(RestoreError::FrameLoss {
            kind,
            expected: expected_chunks,
            found: expected_chunks - missing.len(),
            missing,
        });
    }
    let mut out = Vec::with_capacity(total);
    for c in &chunks {
        out.extend_from_slice(c.expect("missing chunks rejected above"));
    }
    if out.len() < total {
        // Every expected emblem arrived but the bytes fall short: an
        // emblem's payload was truncated, i.e. content corruption rather
        // than frame loss.
        return Err(RestoreError::Archive(ArchiveError::Corrupt(format!(
            "{kind:?} stream holds {} bytes, headers promise {total}",
            out.len()
        ))));
    }
    out.truncate(total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic decoded-emblem list: `n_chunks` chunks of `cap` bytes
    /// (the last one short by `tail_short`), laid out with or without
    /// outer parity.
    fn stream(
        kind: EmblemKind,
        n_chunks: usize,
        cap: usize,
        tail_short: usize,
        outer_parity: bool,
    ) -> Vec<(EmblemHeader, Vec<u8>)> {
        let total = n_chunks * cap - tail_short;
        (0..n_chunks)
            .map(|c| {
                let len = if c + 1 == n_chunks {
                    cap - tail_short
                } else {
                    cap
                };
                let h = EmblemHeader::new(
                    kind,
                    chunk_global_index(c, outer_parity) as u16,
                    (c / GROUP_DATA) as u16,
                    len as u32,
                    total as u32,
                );
                (h, vec![c as u8; len])
            })
            .collect()
    }

    #[test]
    fn parity_layout_index_mapping() {
        assert_eq!(chunk_global_index(0, true), 0);
        assert_eq!(chunk_global_index(16, true), 16);
        // Chunk 17 opens group 1 *after* group 0's three parity emblems.
        assert_eq!(chunk_global_index(17, true), 20);
        assert_eq!(chunk_global_index(34, true), 40);
        assert_eq!(chunk_global_index(17, false), 17);
    }

    #[test]
    fn multi_group_parity_stream_assembles() {
        // 20 chunks span two groups; under the parity layout the second
        // group's indices are shifted by 3 — the dense-index assumption
        // this used to hide.
        let decoded = stream(EmblemKind::Data, 20, 8, 3, true);
        let out = assemble_stream(&decoded, EmblemKind::Data, 8, true).unwrap();
        assert_eq!(out.len(), 20 * 8 - 3);
        assert_eq!(out[17 * 8], 17, "group-1 chunks land at the right offset");
    }

    #[test]
    fn missing_chunks_named_by_global_index() {
        let mut decoded = stream(EmblemKind::Data, 20, 8, 0, true);
        decoded.remove(18); // chunk 18 = global emblem index 21
        decoded.remove(2); // chunk 2 = global emblem index 2
        match assemble_stream(&decoded, EmblemKind::Data, 8, true) {
            Err(RestoreError::FrameLoss {
                kind,
                expected,
                found,
                missing,
            }) => {
                assert_eq!(kind, EmblemKind::Data);
                assert_eq!(expected, 20);
                assert_eq!(found, 18);
                assert_eq!(missing, vec![2, 21]);
            }
            other => panic!("expected FrameLoss, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_and_shuffle_are_harmless() {
        let mut decoded = stream(EmblemKind::System, 5, 4, 1, false);
        let dup = decoded[3].clone();
        decoded.push(dup);
        decoded.reverse();
        let out = assemble_stream(&decoded, EmblemKind::System, 4, false).unwrap();
        assert_eq!(out.len(), 19);
        assert_eq!(out[0], 0);
        assert_eq!(out[16], 4);
    }

    #[test]
    fn truncated_payload_is_corruption_not_frame_loss() {
        let mut decoded = stream(EmblemKind::Data, 3, 6, 0, false);
        decoded[1].1.truncate(2); // chunk present, bytes short
        match assemble_stream(&decoded, EmblemKind::Data, 6, false) {
            Err(RestoreError::Archive(ArchiveError::Corrupt(_))) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn restore_frames_decodes_only_the_named_scans() {
        let sys = MicrOlonys::test_tiny();
        let dump: Vec<u8> = (0..4000u64)
            .flat_map(|i| format!("{}\n", i.wrapping_mul(0x9E37_79B9) % 1_000_000_007).into_bytes())
            .collect();
        let out = sys.archive(&dump);
        assert!(out.stats.data_emblems > 5, "want indices 1/4/2 on data");
        let scans = sys.medium.scan_all(&out.data_frames, 19);
        // Emission order == global index order, so frame i carries index i.
        let picks: Vec<(usize, &ule_raster::GrayImage)> =
            [1usize, 4, 2].iter().map(|&i| (i, &scans[i])).collect();
        let (got, stats) = sys.restore_frames(&picks);
        assert_eq!(got.len(), 3, "one outcome per pick, in input order");
        assert_eq!(stats.scans, 3);
        // Payloads must match the full-restore bytes chunk for chunk.
        let cap = sys.medium.geometry.payload_capacity();
        let archive = ule_compress::compress(sys.scheme, &dump);
        for (&(idx, _), payload) in picks.iter().zip(&got) {
            let payload = payload.as_ref().expect("named scan decodes");
            // Indices 1/4/2 sit in group 0's data range: chunk == index.
            let start = idx * cap;
            assert_eq!(payload.as_slice(), &archive[start..start + payload.len()]);
        }
    }

    #[test]
    fn restore_frames_names_misfiled_and_undecodable_scans() {
        let sys = MicrOlonys::test_tiny();
        let dump = b"COPY t (a) FROM stdin;\n1\n2\n\\.\n".repeat(40);
        let out = sys.archive(&dump);
        let scans = sys.medium.scan_all(&out.data_frames, 23);
        let blank = ule_raster::GrayImage::new(scans[0].width(), scans[0].height(), 255);
        // Scan 2 handed in under index 1 (misfiled), a blank under 3.
        let picks: Vec<(usize, &ule_raster::GrayImage)> =
            vec![(0, &scans[0]), (1, &scans[2]), (3, &blank)];
        let sys = sys.with_telemetry(ule_obs::Telemetry::enabled());
        let (got, _) = sys.restore_frames(&picks);
        assert!(got[0].is_some());
        assert_eq!(got[1], None, "misfiled scan");
        assert_eq!(got[2], None, "undecodable scan");
        // The misfiled scan decodes cleanly, so only the blank is a
        // decode failure; both count as failed picks.
        let tel = &sys.telemetry;
        assert_eq!(tel.counter("decode.frames_total"), 3);
        assert_eq!(tel.counter("decode.frames_failed"), 1);
        assert_eq!(tel.counter("selective.frames_failed"), 2);
    }

    #[test]
    fn empty_kind_reports_no_decoder_or_loss() {
        let decoded = stream(EmblemKind::Data, 2, 4, 0, false);
        assert!(matches!(
            assemble_stream(&decoded, EmblemKind::System, 4, false),
            Err(RestoreError::NoDecoder)
        ));
        let decoded = stream(EmblemKind::System, 2, 4, 0, false);
        assert!(matches!(
            assemble_stream(&decoded, EmblemKind::Data, 4, false),
            Err(RestoreError::FrameLoss { missing, .. }) if missing == vec![0]
        ));
    }
}

/// Host-side preprocessing sanctioned by the Bootstrap — pixel array
/// (threshold 128) plus the MODecode parameter block and its laid-out
/// guest memory.
fn modecode_memory(boot: &Bootstrap, scan: &GrayImage) -> (Vec<u8>, u32, ModecodeParams) {
    let pixels: Vec<u8> = scan
        .as_bytes()
        .iter()
        .map(|&p| if p < 128 { 0u8 } else { 255 })
        .collect();
    let params = ModecodeParams {
        width: scan.width() as u16,
        height: scan.height() as u16,
        cols: boot.cols as u16,
        rows: boot.rows as u16,
        cell_px: boot.cell_px as u16,
        origin_px: boot.origin_px as u16,
        nblocks: boot.nblocks as u16,
        xoff: boot.xoff as u16,
        yoff: boot.yoff as u16,
    };
    let max_out = 16 + 2 * boot.nblocks * 255 + 64;
    let (guest_mem, out_base) = layout::build_memory(&pixels, max_out, &params.to_words());
    (guest_mem, out_base, params)
}

/// Run MODecode inside the nested VeRisc emulator for one scan. Returns
/// the output region and the VeRisc instruction count.
fn run_modecode_nested(
    boot: &Bootstrap,
    scan: &GrayImage,
    engine: EngineKind,
) -> Result<(Vec<u8>, u64), RestoreError> {
    let (guest_mem, out_base, _) = modecode_memory(boot, scan);
    let mut emu =
        NestedEmulator::from_image_prefix(&boot.image_prefix, boot.symbols.clone(), &guest_mem);
    emu.reset_guest();
    let cells = boot.cols as u64 * boot.rows as u64;
    let budget = 2_000_000u64.saturating_add(cells * 60_000);
    let steps = emu.run(engine, budget)?;
    let guest = emu.dyn_mem();
    let status = u16::from_le_bytes([guest[0], guest[1]]);
    if status != 0 {
        return Err(RestoreError::DecoderStatus(status));
    }
    Ok((layout::read_output(&guest, out_base), steps))
}

/// Run MODecode on a host DynaRisc engine for one scan. Returns the
/// output region and the DynaRisc instruction count.
fn run_modecode_hosted(
    boot: &Bootstrap,
    scan: &GrayImage,
    runner: &GuestRunner,
) -> Result<(Vec<u8>, u64), RestoreError> {
    let (guest_mem, out_base, params) = modecode_memory(boot, scan);
    let (mem, steps) = runner.run(guest_mem, modecode::step_budget(&params))?;
    let status = u16::from_le_bytes([mem[0], mem[1]]);
    if status != 0 {
        return Err(RestoreError::DecoderStatus(status));
    }
    Ok((layout::read_output(&mem, out_base), steps))
}
