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
use std::borrow::Borrow;
use ule_compress::ArchiveError;
use ule_dynarisc::layout;
use ule_dynarisc::programs::modecode::ModecodeParams;
use ule_dynarisc::programs::{dbdecode, modecode};
use ule_dynarisc::{ThreadedImage, Vm, VmError};
use ule_emblem::geometry::RS_K;
use ule_emblem::header::HEADER_BYTES;
use ule_emblem::stream::{vote_stream_len, Decoded, StreamPlan};
use ule_emblem::{
    decode_stream, decode_stream_traced, DecodeStats, EmblemHeader, EmblemKind, StreamError,
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
    /// decoded frame.
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
/// * [`Threaded`](EmulationTier::Threaded) — the pre-decoded one-loop
///   engine (`ule_dynarisc::threaded`). The production
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
    /// `data_scans` may hold images or borrows of them.
    pub fn restore_native<S: Borrow<GrayImage> + Sync>(
        &self,
        data_scans: &[S],
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
        let boot = Bootstrap::parse(bootstrap_text).map_err(|e| corrupt(&e.to_string()))?;
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
                EmulationTier::Nested(kind) => {
                    NestedEmulator::check_image_prefix(
                        &boot.image_prefix,
                        &boot.symbols,
                        boot.prog_capacity,
                    )
                    .map_err(|e| corrupt(&format!("Bootstrap image: {e}")))?;
                    ule_par::map(threads, scans, |scan| {
                        run_modecode_nested(&boot, scan, kind)
                    })
                }
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
        let mut decoded: Vec<Decoded> = Vec::with_capacity(scans.len());
        let mut crc = 0xFFFF_FFFFu32;
        for (i, res) in outs.into_iter().enumerate() {
            let (out, steps) = res?;
            match tier {
                EmulationTier::Nested(_) => stats.verisc_steps += steps,
                _ => stats.guest_steps += steps,
            }
            crc = crc32_update(crc, &out);
            // The emulated decoder's output is untrusted: a hostile scan
            // can hand back less than a header, or a crafted header whose
            // payload length reaches past the buffer.
            let header = out
                .get(..HEADER_BYTES)
                .ok_or(RestoreError::BadHeader(i))
                .and_then(|h| {
                    EmblemHeader::from_bytes(h).map_err(|_| RestoreError::BadHeader(i))
                })?;
            let payload = out
                .get(HEADER_BYTES..HEADER_BYTES + header.payload_len as usize)
                .ok_or(RestoreError::BadHeader(i))?
                .to_vec();
            decoded.push((header, payload, DecodeStats::default()));
        }
        stats.frame_crc32 = crc ^ 0xFFFF_FFFF;

        // Steps 5–6: assemble the DBDecode stream (system emblems) and the
        // data archive. Scans arrive in any order, possibly duplicated,
        // possibly with frames missing or foreign; `emulated_stream` sorts
        // this out and names any absent frame by its global emblem index.
        let cap = boot.nblocks.saturating_mul(RS_K);
        let sys_bytes = emulated_stream(&decoded, EmblemKind::System, cap, boot.outer_parity)?;
        let dbdecode_words: Vec<u16> = sys_bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();

        let archive = emulated_stream(&decoded, EmblemKind::Data, cap, boot.outer_parity)?;
        stats.archive_bytes = archive.len();

        // Run DBDecode on the selected tier over the concatenated stream.
        let out_len = dbdecode::output_len(&archive)
            .ok_or_else(|| corrupt("archive claims more bytes than its LZSS stream holds"))?;
        let (guest_mem, out_base) = layout::build_memory(&archive, out_len, &[]);
        let _dbdecode = tel.span("restore.emulated.dbdecode");
        tel.add(&format!("emulated.dispatch.{}", tier_label(tier)), 1);
        let guest = match tier {
            EmulationTier::Nested(kind) => {
                if dbdecode_words.len() > boot.prog_capacity {
                    return Err(corrupt(
                        "DBDecode stream exceeds the Bootstrap's prog-capacity",
                    ));
                }
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
        Ok((layout::try_read_output(&guest, out_base)?, stats))
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
    /// Pre-decoded slots run by one dispatch loop.
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

/// A structurally invalid archive: [`ArchiveError::Corrupt`] with `msg`.
fn corrupt(msg: &str) -> RestoreError {
    RestoreError::Archive(ArchiveError::Corrupt(msg.to_string()))
}

/// One emblem stream from the emulator-decoded frames of its `kind`
/// (other kinds, parity among them, are skipped), settled by the length
/// vote and placement of `ule_emblem::stream` under the Bootstrap's
/// chunk capacity `cap` and `outer:` line. This path has no outer-code
/// recovery: an empty data slot is [`RestoreError::FrameLoss`] naming its
/// global emblem index. A voted length past the 16-bit emblem index is
/// corruption, refused before any table is sized.
fn emulated_stream(
    decoded: &[Decoded],
    kind: EmblemKind,
    cap: usize,
    outer_parity: bool,
) -> Result<Vec<u8>, RestoreError> {
    let frames = decoded.iter().filter(|(h, _, _)| h.kind == kind);
    let Some(len) = vote_stream_len(frames.clone().map(|(h, _, _)| h)) else {
        // With no frame of the kind even the stream length is unknown; a
        // missing decoder gets its own error, data the minimal truthful
        // report (at least emblem 0 is gone).
        return Err(match kind {
            EmblemKind::System => RestoreError::NoDecoder,
            _ => RestoreError::FrameLoss {
                kind,
                expected: 1,
                found: 0,
                missing: vec![0],
            },
        });
    };
    let plan = StreamPlan::checked(len as usize, cap, outer_parity).ok_or_else(|| {
        corrupt(&format!(
            "{kind:?} stream of {len} bytes overflows the 16-bit emblem index"
        ))
    })?;
    let placed = plan.place(frames.cloned());
    let missing = placed.missing_data();
    if !missing.is_empty() {
        return Err(RestoreError::FrameLoss {
            kind,
            expected: plan.data_emblems,
            found: plan.data_emblems - missing.len(),
            missing,
        });
    }
    // Every data slot is filled, so recovery only concatenates.
    Ok(placed.recover(&Telemetry::off())?.0)
}

/// The MODecode parameter block for one scan. Every field is a 16-bit
/// guest word, and so is MODecode's coded-byte total (`nblocks × 255`):
/// a Bootstrap or scan whose geometry does not fit is `Corrupt`, never
/// silently wrapped.
fn modecode_params(boot: &Bootstrap, scan: &GrayImage) -> Result<ModecodeParams, RestoreError> {
    let word = |name: &str, v: usize| {
        u16::try_from(v).map_err(|_| {
            corrupt(&format!(
                "geometry {name}={v} does not fit MODecode's 16-bit parameter block"
            ))
        })
    };
    let params = ModecodeParams {
        width: word("scan width", scan.width())?,
        height: word("scan height", scan.height())?,
        cols: word("cols", boot.cols)?,
        rows: word("rows", boot.rows)?,
        cell_px: word("cell_px", boot.cell_px)?,
        origin_px: word("origin", boot.origin_px)?,
        nblocks: word("nblocks", boot.nblocks)?,
        xoff: word("xoff", boot.xoff)?,
        yoff: word("yoff", boot.yoff)?,
    };
    word("nblocks × 255", params.nblocks as usize * 255)?;
    Ok(params)
}

/// Host-side preprocessing sanctioned by the Bootstrap — pixel array
/// (threshold 128) plus the MODecode parameter block and its laid-out
/// guest memory. The geometry is checked before anything is allocated.
fn modecode_memory(
    boot: &Bootstrap,
    scan: &GrayImage,
) -> Result<(Vec<u8>, u32, ModecodeParams), RestoreError> {
    let params = modecode_params(boot, scan)?;
    let pixels: Vec<u8> = scan
        .as_bytes()
        .iter()
        .map(|&p| if p < 128 { 0u8 } else { 255 })
        .collect();
    let max_out = 16 + 2 * params.nblocks as usize * 255 + 64;
    let (guest_mem, out_base) = layout::build_memory(&pixels, max_out, &params.to_words());
    Ok((guest_mem, out_base, params))
}

/// Run MODecode inside the nested VeRisc emulator for one scan. Returns
/// the output region and the VeRisc instruction count.
fn run_modecode_nested(
    boot: &Bootstrap,
    scan: &GrayImage,
    engine: EngineKind,
) -> Result<(Vec<u8>, u64), RestoreError> {
    let (guest_mem, out_base, params) = modecode_memory(boot, scan)?;
    let mut emu =
        NestedEmulator::from_image_prefix(&boot.image_prefix, boot.symbols.clone(), &guest_mem);
    emu.reset_guest();
    let cells = params.cols as u64 * params.rows as u64;
    let budget = 2_000_000u64.saturating_add(cells.saturating_mul(60_000));
    let steps = emu.run(engine, budget)?;
    let guest = emu.dyn_mem();
    let status = u16::from_le_bytes([guest[0], guest[1]]);
    if status != 0 {
        return Err(RestoreError::DecoderStatus(status));
    }
    Ok((layout::try_read_output(&guest, out_base)?, steps))
}

/// Run MODecode on a host DynaRisc engine for one scan. Returns the
/// output region and the DynaRisc instruction count.
fn run_modecode_hosted(
    boot: &Bootstrap,
    scan: &GrayImage,
    runner: &GuestRunner,
) -> Result<(Vec<u8>, u64), RestoreError> {
    let (guest_mem, out_base, params) = modecode_memory(boot, scan)?;
    let (mem, steps) = runner.run(guest_mem, modecode::step_budget(&params))?;
    let status = u16::from_le_bytes([mem[0], mem[1]]);
    if status != 0 {
        return Err(RestoreError::DecoderStatus(status));
    }
    Ok((layout::try_read_output(&mem, out_base)?, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_emblem::stream::{chunk_global_index, Slot};

    /// Synthetic decoded-emblem list: `n_chunks` chunks of `cap` bytes
    /// (the last one short by `tail_short`), laid out with or without
    /// outer parity.
    fn stream(
        kind: EmblemKind,
        n_chunks: usize,
        cap: usize,
        tail_short: usize,
        outer_parity: bool,
    ) -> Vec<Decoded> {
        let plan = StreamPlan::new(n_chunks * cap - tail_short, cap, outer_parity);
        (0..n_chunks)
            .map(|c| {
                let h = plan.header(kind, plan.emission_of(Slot::Data(c)));
                let payload = vec![c as u8; h.payload_len as usize];
                (h, payload, DecodeStats::default())
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
        // group's indices are shifted by 3.
        let decoded = stream(EmblemKind::Data, 20, 8, 3, true);
        let out = emulated_stream(&decoded, EmblemKind::Data, 8, true).unwrap();
        assert_eq!(out.len(), 20 * 8 - 3);
        assert_eq!(out[17 * 8], 17, "group-1 chunks land at the right offset");
    }

    #[test]
    fn missing_chunks_named_by_global_index() {
        let mut decoded = stream(EmblemKind::Data, 20, 8, 0, true);
        decoded.remove(18); // chunk 18 = global emblem index 21
        decoded.remove(2); // chunk 2 = global emblem index 2
        match emulated_stream(&decoded, EmblemKind::Data, 8, true) {
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
        let out = emulated_stream(&decoded, EmblemKind::System, 4, false).unwrap();
        assert_eq!(out.len(), 19);
        assert_eq!(out[0], 0);
        assert_eq!(out[16], 4);
    }

    #[test]
    fn empty_kind_reports_no_decoder_or_loss() {
        let decoded = stream(EmblemKind::Data, 2, 4, 0, false);
        assert!(matches!(
            emulated_stream(&decoded, EmblemKind::System, 4, false),
            Err(RestoreError::NoDecoder)
        ));
        let decoded = stream(EmblemKind::System, 2, 4, 0, false);
        assert!(matches!(
            emulated_stream(&decoded, EmblemKind::Data, 4, false),
            Err(RestoreError::FrameLoss { missing, .. }) if missing == vec![0]
        ));
    }
}
