//! Per-layer tracing from the outside: each public layer call is timed on
//! its own, around the call, from the benchmark's code (the program itself
//! carries no spans below whole frames). A traced round decomposes the
//! operations of its workload into these calls and checks each layer's
//! output against an oracle, like the untraced ops.

use std::collections::BTreeMap;

use ule::dynarisc::programs::dbdecode;
use ule::dynarisc::{layout, ThreadedImage};
use ule::emblem::geometry::EDGE_CELLS;
use ule::emblem::locate::{edge_map, find_border_box};
use ule::emblem::stream::{chunk_global_index, GROUP_DATA};
use ule::emblem::{
    decode_emblem, encode_emblem, inner_decode_with, inner_encode, EmblemGeometry, EmblemHeader,
    EmblemKind,
};
use ule::gf256::crc::crc32;
use ule::media::Medium;
use ule::obs::Telemetry;
use ule::olonys::{Bootstrap, MicrOlonys};
use ule::par::ThreadConfig;
use ule::raster::GrayImage;

use crate::{stats, timed, Report, Wrong};

/// Scan `frames` through `medium`'s channel, one `Medium::scan` per frame
/// with the per-frame seed `seed ^ (i + 1)` that `Medium::scan_all_with`
/// uses, fanned out over `threads`. Returns the scans and each call's
/// wall time (ms).
pub fn scan_frames(
    medium: &Medium,
    frames: &[GrayImage],
    seed: u64,
    threads: ThreadConfig,
) -> (Vec<GrayImage>, Vec<f64>) {
    ule::par::map_indexed(threads, frames.len(), |i| {
        timed(|| medium.scan(&frames[i], seed ^ (i as u64 + 1)))
    })
    .into_iter()
    .unzip()
}

/// CRC-32 of every frame, in order.
pub fn frame_crcs(frames: &[GrayImage]) -> Vec<u32> {
    frames.iter().map(|f| crc32(f.as_bytes())).collect()
}

/// The data-emblem jobs of a classic archive of `container` on `sys`
/// for [`Layers::probe_write`], checked against the archive's frames.
pub fn classic_jobs<'a>(
    sys: &MicrOlonys,
    container: &'a [u8],
    frame_crcs: &'a [u32],
) -> impl Iterator<Item = (EmblemHeader, &'a [u8], u32)> + 'a {
    let with_parity = sys.with_parity;
    let total = container.len() as u32;
    container
        .chunks(sys.medium.geometry.payload_capacity())
        .enumerate()
        .map(move |(c, chunk)| {
            let index = chunk_global_index(c, with_parity);
            let header = EmblemHeader::new(
                EmblemKind::Data,
                index as u16,
                (c / GROUP_DATA) as u16,
                chunk.len() as u32,
                total,
            );
            (header, chunk, frame_crcs[index])
        })
}

/// How far (in percent of the untraced op time) the Σ of a read's
/// separately timed layers may miss it.
pub const RECONCILE_PCT: f64 = 10.0;

/// Per-frame read-path layer times (summed) and decode health counts.
#[derive(Default)]
pub struct FrameLayers {
    pub frames: usize,
    pub failed: usize,
    pub threshold_ms: f64,
    pub locate_ms: f64,
    pub edge_map_ms: f64,
    pub decode_ms: f64,
    pub inner_rs_ms: f64,
    pub corrected: usize,
    pub sync_errors: usize,
}

impl FrameLayers {
    /// Decompose one `decode_emblem` call: the full decode first, then
    /// Otsu threshold, border location and edge map on their own, then the
    /// inner RS decode alone on the frame's re-encoded bytes with the
    /// decoder's reported corrections re-injected.
    pub fn probe(&mut self, geom: &EmblemGeometry, scan: &GrayImage) -> Result<(), Wrong> {
        self.frames += 1;
        let (res, decode_ms) = timed(|| decode_emblem(geom, scan));
        self.decode_ms += decode_ms;
        let (bit, threshold_ms) = timed(|| scan.threshold(scan.otsu_threshold()));
        let (bbox, locate_ms) = timed(|| find_border_box(&bit));
        self.threshold_ms += threshold_ms;
        self.locate_ms += locate_ms;
        if let Some(b) = bbox {
            let cell_w = b.width() as f64 / (geom.cols + 2 * EDGE_CELLS) as f64;
            self.edge_map_ms += timed(|| edge_map(&bit, b, cell_w * 3.0)).1;
        }
        drop(bit);
        let Ok((_, payload, stats)) = res else {
            self.failed += 1;
            return Ok(());
        };
        self.corrected += stats.rs_corrected;
        self.sync_errors += stats.sync_errors;
        // The interleave puts consecutive coded bytes in consecutive
        // blocks, so the first `rs_corrected` bytes spread the errors
        // round-robin: no block gets more than a successful decode fixed.
        let mut coded = inner_encode(geom, &payload);
        for byte in &mut coded[..stats.rs_corrected] {
            *byte ^= 0xA5;
        }
        let (rs, inner_rs_ms) = timed(|| inner_decode_with(geom, &coded, ThreadConfig::Serial));
        self.inner_rs_ms += inner_rs_ms;
        match rs {
            Ok((fixed, n)) if n == stats.rs_corrected && fixed.starts_with(&payload) => Ok(()),
            _ => Err("inner RS probe disagrees with decode_emblem".into()),
        }
    }

    /// Decode time not spent in threshold, locate, edge map or inner RS:
    /// grid sampling, calibration, header and cell decode.
    pub fn sample_cells_ms(&self) -> f64 {
        self.decode_ms - self.threshold_ms - self.locate_ms - self.edge_map_ms - self.inner_rs_ms
    }

    fn absorb(&mut self, o: &FrameLayers) {
        self.frames += o.frames;
        self.failed += o.failed;
        self.threshold_ms += o.threshold_ms;
        self.locate_ms += o.locate_ms;
        self.edge_map_ms += o.edge_map_ms;
        self.decode_ms += o.decode_ms;
        self.inner_rs_ms += o.inner_rs_ms;
        self.corrected += o.corrected;
        self.sync_errors += o.sync_errors;
    }

    fn per_frame(&self, total: f64) -> f64 {
        total / self.frames.max(1) as f64
    }

    fn decoded(&self) -> usize {
        self.frames - self.failed
    }
}

/// One traced read operation, for overhead, selectivity and the
/// reconciliation of layer sums against the untraced op time.
pub struct ReadProbe {
    pub class: String,
    /// The untraced op's wall time.
    pub op_ms: f64,
    pub frames_decoded: usize,
    /// Frames a full read of the same medium decodes.
    pub frames_total: usize,
    /// Mean `decode_emblem` time per frame on this op's medium.
    pub decode_ms_per_frame: f64,
    /// The same op with the program's telemetry on.
    pub traced_ms: f64,
    /// Σ of the separately timed layer calls making up the op.
    pub layer_sum_ms: f64,
}

/// What [`Layers::probe_restore`] measured.
pub struct RestoreProbe {
    /// The restore was bit-exact (a structured error otherwise).
    pub ok: bool,
    /// Wall time of the restore with telemetry on.
    pub traced_ms: f64,
    /// Σ of the frames' `decode_emblem` calls, outer recovery and
    /// decompress, each timed on its own.
    pub layer_sum_ms: f64,
}

/// Everything a traced run measures.
#[derive(Default)]
pub struct Layers {
    /// Frame decode layers per `"<medium> <path>"`.
    pub frames: BTreeMap<String, FrameLayers>,
    /// Write-path calls per `(layer, medium)`: Σ ms and call count.
    pub write: BTreeMap<(&'static str, String), (f64, usize)>,
    /// Whole-op layer calls (compress, decompress, Bootstrap, DBDecode,
    /// outer recovery, vault ops …): every call's ms.
    pub calls: BTreeMap<String, Vec<f64>>,
    pub erasure_frames: Vec<usize>,
    pub guest_steps: u64,
    pub reads: Vec<ReadProbe>,
    /// Decay-ladder outcomes per rung label: (restored, attempted).
    pub ladder: BTreeMap<String, (usize, usize)>,
}

impl Layers {
    pub fn frame(&mut self, key: &str) -> &mut FrameLayers {
        self.frames.entry(key.to_string()).or_default()
    }

    pub fn call(&mut self, name: &str, ms: f64) {
        self.calls.entry(name.to_string()).or_default().push(ms);
    }

    pub fn ladder_outcome(&mut self, rung: String, ok: bool) {
        let e = self.ladder.entry(rung).or_default();
        e.0 += usize::from(ok);
        e.1 += 1;
    }

    pub fn write_call(&mut self, layer: &'static str, medium: &str, ms: f64) {
        let e = self.write.entry((layer, medium.to_string())).or_default();
        e.0 += ms;
        e.1 += 1;
    }

    fn mean_call(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    }

    /// Mean decode time per frame over every frame key starting with
    /// `medium`.
    pub fn decode_ms_per_frame(&self, medium: &str) -> f64 {
        let mut all = FrameLayers::default();
        for (_, f) in self.frames.iter().filter(|(k, _)| k.starts_with(medium)) {
            all.absorb(f);
        }
        all.per_frame(all.decode_ms)
    }

    /// Encode + print one emblem per job `(header, chunk, expected frame
    /// CRC)` on `medium`, timing each `encode_emblem` and `Medium::print`
    /// call; every printed frame must match the archive's.
    pub fn probe_write<'a>(
        &mut self,
        label: &str,
        medium: &Medium,
        jobs: impl IntoIterator<Item = (EmblemHeader, &'a [u8], u32)>,
    ) -> Result<(), Wrong> {
        let geom = medium.geometry;
        for (header, chunk, crc) in jobs {
            let (emblem, encode_ms) = timed(|| encode_emblem(&geom, &header, chunk));
            let (frame, print_ms) = timed(|| medium.print(&emblem));
            self.write_call("emblem.encode_ms", label, encode_ms);
            self.write_call("media.print_ms", label, print_ms);
            if crc32(frame.as_bytes()) != crc {
                return Err(format!(
                    "{label}: re-encoded frame {} differs",
                    header.index
                ));
            }
        }
        Ok(())
    }

    /// Time `compress` and `decompress` of `bytes`; returns the container.
    pub fn probe_compress(&mut self, sys: &MicrOlonys, bytes: &[u8]) -> Result<Vec<u8>, Wrong> {
        let (container, ms) = timed(|| ule::compress::compress(sys.scheme, bytes));
        self.call("compress.compress_ms", ms);
        let (back, ms) = timed(|| ule::compress::decompress(&container));
        self.call("compress.decompress_ms", ms);
        if back.ok().as_deref() != Some(bytes) {
            return Err("decompress(compress(bytes)) differs".into());
        }
        Ok(container)
    }

    /// Time `make_bootstrap` on `sys` and `Bootstrap::parse` of the
    /// archive's Bootstrap `expect`.
    pub fn probe_bootstrap(&mut self, sys: &MicrOlonys, expect: &Bootstrap) -> Result<(), Wrong> {
        let (boot, ms) = timed(|| sys.make_bootstrap());
        self.call("core.make_bootstrap_ms", ms);
        let text = expect.to_text();
        let (parsed, ms) = timed(|| Bootstrap::parse(&text));
        self.call("core.bootstrap_parse_ms", ms);
        // Vault archives stamp their manifest on top of the classic
        // Bootstrap; the decoding-stack part must match.
        let mut stack = expect.clone();
        stack.vault = None;
        if boot != stack || parsed.ok().as_ref() != Some(expect) {
            return Err("Bootstrap differs from the archive's".into());
        }
        Ok(())
    }

    /// A native restore on `sys` decomposed. First the restore with the
    /// program's telemetry on: its `scan.decode.outer_recovery` and
    /// `restore.decompress` spans time those steps on their own, and its
    /// wall time is the traced op time. Then every frame through
    /// [`FrameLayers::probe`] under `key`, so the per-frame decode times
    /// come from separate `decode_emblem` calls. Wrong bytes abort.
    pub fn probe_restore(
        &mut self,
        key: &str,
        sys: &MicrOlonys,
        scans: &[GrayImage],
        dump: &[u8],
    ) -> Result<RestoreProbe, Wrong> {
        let tel = Telemetry::enabled();
        let (res, traced_ms) = timed(|| sys.restore_native_traced(scans, &tel));
        let ok = match res {
            Ok((bytes, _)) if bytes == dump => true,
            Ok(_) => return Err(format!("{key}: traced restore returned wrong bytes")),
            Err(_) => false,
        };
        let trace = tel.snapshot();
        let span_ms = |name: &str| trace.spans.get(name).map(|s| s.wall_ns as f64 / 1e6);
        let outer_ms = span_ms("scan.decode.outer_recovery");
        if let Some(ms) = outer_ms {
            self.call("emblem.outer_recovery_ms", ms);
        }
        if ok {
            let erasures = trace.counters.get("decode.erasure_frames").copied();
            self.erasure_frames.push(erasures.unwrap_or(0) as usize);
        }
        let before = self.frame(key).decode_ms;
        for scan in scans {
            self.frame(key).probe(&sys.medium.geometry, scan)?;
        }
        let decode_ms = self.frame(key).decode_ms - before;
        Ok(RestoreProbe {
            ok,
            traced_ms,
            layer_sum_ms: decode_ms
                + outer_ms.unwrap_or(0.0)
                + span_ms("restore.decompress").unwrap_or(0.0),
        })
    }

    /// A pristine native restore traced for the reconciliation under
    /// `class`: [`Layers::probe_restore`] under `key`, with the untraced
    /// `restore_native` run once before it and twice after. Their median
    /// is the op time, so neither a change of machine load between the
    /// two sides of the comparison nor one slow run decides it.
    pub fn probe_pristine(
        &mut self,
        class: &str,
        key: &str,
        sys: &MicrOlonys,
        scans: &[GrayImage],
        dump: &[u8],
    ) -> Result<(), Wrong> {
        let untraced = || {
            let (res, ms) = timed(|| sys.restore_native(scans));
            match res {
                Ok((bytes, _)) if bytes == dump => Ok(ms),
                Ok(_) => Err(format!("{class}: restore returned wrong bytes")),
                Err(e) => Err(format!("{class}: pristine restore failed: {e}")),
            }
        };
        let before = untraced()?;
        let p = self.probe_restore(key, sys, scans, dump)?;
        if !p.ok {
            return Err(format!("{class}: pristine traced restore failed"));
        }
        let ops = [before, untraced()?, untraced()?];
        self.reads.push(ReadProbe {
            class: class.to_string(),
            op_ms: stats::median(&ops),
            frames_decoded: scans.len(),
            frames_total: scans.len(),
            decode_ms_per_frame: self.decode_ms_per_frame(key),
            traced_ms: p.traced_ms,
            layer_sum_ms: p.layer_sum_ms,
        });
        Ok(())
    }

    /// Run the archived DBDecode program on the threaded DynaRisc engine
    /// over one container, as the emulated restore does, and check its
    /// output against `expect`.
    pub fn probe_dbdecode(&mut self, container: &[u8], expect: &[u8]) -> Result<(), Wrong> {
        let out_len = container.get(6..14).map_or(0, |b| {
            u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize
        });
        let (run, ms) = timed(|| {
            let image = ThreadedImage::compile(&dbdecode::program());
            let (mem, out_base) = layout::build_memory(container, out_len, &[]);
            let mut vm = image.instantiate(mem);
            vm.run(dbdecode::step_budget(container.len(), out_len))
                .map(|steps| (steps, vm.mem, out_base))
        });
        let (steps, mem, out_base) = run.map_err(|e| format!("DBDecode faulted: {e:?}"))?;
        if mem[..2] != [0, 0] || layout::read_output(&mem, out_base) != expect {
            return Err("DBDecode output differs".into());
        }
        self.call("dynarisc.dbdecode_ms", ms);
        self.guest_steps += steps;
        Ok(())
    }

    /// Print the per-medium × path × layer table and the read
    /// reconciliation, and build the per-layer report. A read class whose
    /// layer sum misses its untraced op time by more than
    /// [`RECONCILE_PCT`] fails the run.
    pub fn report(&self) -> Result<Report, Wrong> {
        println!("-- layer table: mean ms per frame (count/frame for health) --");
        println!(
            "{:<22} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>6}",
            "medium path",
            "frames",
            "threshold",
            "locate",
            "edge_map",
            "sample",
            "inner_rs",
            "decode",
            "loc/dec",
            "corrected",
            "failed"
        );
        let mut all = FrameLayers::default();
        for (key, f) in &self.frames {
            all.absorb(f);
            println!(
                "{key:<22} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6.1}% {:>9.2} {:>6}",
                f.frames,
                f.per_frame(f.threshold_ms),
                f.per_frame(f.locate_ms),
                f.per_frame(f.edge_map_ms),
                f.per_frame(f.sample_cells_ms()),
                f.per_frame(f.inner_rs_ms),
                f.per_frame(f.decode_ms),
                100.0 * f.locate_ms / f.decode_ms,
                f.corrected as f64 / f.decoded().max(1) as f64,
                f.failed
            );
        }
        let mut media: BTreeMap<&str, FrameLayers> = BTreeMap::new();
        for (key, f) in &self.frames {
            let medium = key.split(' ').next().unwrap_or(key);
            media.entry(medium).or_default().absorb(f);
        }
        for (m, f) in &media {
            for (name, total) in [
                ("raster.threshold_ms", f.threshold_ms),
                ("emblem.locate_ms", f.locate_ms),
                ("emblem.edge_map_ms", f.edge_map_ms),
                ("emblem.sample_cells_ms", f.sample_cells_ms()),
                ("emblem.decode_ms", f.decode_ms),
            ] {
                println!("{name}.{m} {:.3} ms", f.per_frame(total));
            }
            println!(
                "gf256.inner_rs_ms.{m} {:.3} ms",
                f.inner_rs_ms / f.decoded().max(1) as f64
            );
        }
        println!("-- write path: mean ms per call --");
        let mut write_tot: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for ((layer, medium), (ms, n)) in &self.write {
            println!("{layer}.{medium} {:.3} ms (n={n})", ms / *n as f64);
            let e = write_tot.entry(layer).or_default();
            e.0 += ms;
            e.1 += n;
        }
        println!("-- whole-op layer calls: mean ms --");
        for (name, v) in &self.calls {
            println!("{name:<32} {:>10.3}  (n={})", self.mean_call(name), v.len());
        }
        for (rung, (ok, n)) in &self.ladder {
            println!("ladder {rung:<28} restored {ok} of {n}");
        }

        println!("-- reads: untraced op time vs Σ separately timed layers, and traced op time --");
        let mut classes: BTreeMap<&str, Vec<&ReadProbe>> = BTreeMap::new();
        for r in &self.reads {
            classes.entry(&r.class).or_default().push(r);
        }
        let mut misses = Vec::new();
        for (class, reads) in &classes {
            // The median over the class's reads, so that one read caught
            // by a burst of machine load does not decide the class.
            let errs: Vec<f64> = reads
                .iter()
                .map(|r| 100.0 * (r.layer_sum_ms - r.op_ms) / r.op_ms)
                .collect();
            let err = stats::median(&errs);
            let verdict = if err.abs() <= RECONCILE_PCT {
                "ok"
            } else {
                misses.push(format!("{class} ({err:+.1}%)"));
                "MISS"
            };
            let n = reads.len() as f64;
            let mean = |f: fn(&ReadProbe) -> f64| reads.iter().map(|r| f(r)).sum::<f64>() / n;
            println!(
                "{class:<28} op {:>9.3} ms  layers {:>9.3} ms  median diff {err:>+6.2}% (≤{RECONCILE_PCT}%: {verdict}, n={n})  traced {:>9.3} ms  frames/op {:.1}",
                mean(|r| r.op_ms),
                mean(|r| r.layer_sum_ms),
                mean(|r| r.traced_ms),
                mean(|r| r.frames_decoded as f64)
            );
        }
        if !misses.is_empty() {
            return Err(format!(
                "layer sums miss the untraced op time by more than {RECONCILE_PCT}%: {}",
                misses.join(", ")
            ));
        }

        let n_reads = self.reads.len().max(1) as f64;
        let op_total: f64 = self.reads.iter().map(|r| r.op_ms).sum();
        let traced_total: f64 = self.reads.iter().map(|r| r.traced_ms).sum();
        let dbdecode_ms: f64 = self
            .calls
            .get("dynarisc.dbdecode_ms")
            .map_or(0.0, |v| v.iter().sum());
        let dbdecode_runs = self
            .calls
            .get("dynarisc.dbdecode_ms")
            .map_or(1, |v| v.len().max(1));
        let write_mean = |layer: &str| write_tot.get(layer).map_or(0.0, |(ms, n)| ms / *n as f64);
        let mut m = BTreeMap::new();
        m.insert("raster.threshold_ms", all.per_frame(all.threshold_ms));
        m.insert("emblem.locate_ms", all.per_frame(all.locate_ms));
        m.insert("emblem.edge_map_ms", all.per_frame(all.edge_map_ms));
        m.insert(
            "emblem.sample_cells_ms",
            all.per_frame(all.sample_cells_ms()),
        );
        m.insert("emblem.decode_ms", all.per_frame(all.decode_ms));
        m.insert(
            "gf256.inner_rs_ms",
            all.inner_rs_ms / all.decoded().max(1) as f64,
        );
        m.insert(
            "gf256.corrected_symbols",
            all.corrected as f64 / all.decoded().max(1) as f64,
        );
        m.insert(
            "emblem.sync_errors",
            all.sync_errors as f64 / all.decoded().max(1) as f64,
        );
        m.insert(
            "emblem.frame_fail_ratio",
            all.failed as f64 / all.frames.max(1) as f64,
        );
        m.insert(
            "emblem.erasure_frames",
            self.erasure_frames.iter().sum::<usize>() as f64
                / self.erasure_frames.len().max(1) as f64,
        );
        m.insert(
            "emblem.outer_recovery_ms",
            self.mean_call("emblem.outer_recovery_ms"),
        );
        m.insert("emblem.encode_ms", write_mean("emblem.encode_ms"));
        m.insert("media.print_ms", write_mean("media.print_ms"));
        m.insert("media.scan_ms", write_mean("media.scan_ms"));
        m.insert(
            "compress.compress_ms",
            self.mean_call("compress.compress_ms"),
        );
        m.insert(
            "compress.decompress_ms",
            self.mean_call("compress.decompress_ms"),
        );
        m.insert(
            "core.make_bootstrap_ms",
            self.mean_call("core.make_bootstrap_ms"),
        );
        m.insert(
            "core.bootstrap_parse_ms",
            self.mean_call("core.bootstrap_parse_ms"),
        );
        m.insert("dynarisc.dbdecode_ms", dbdecode_ms / dbdecode_runs as f64);
        m.insert(
            "dynarisc.guest_steps",
            self.guest_steps as f64 / dbdecode_runs as f64,
        );
        m.insert(
            "dynarisc.guest_mips",
            self.guest_steps as f64 / (dbdecode_ms * 1e3),
        );
        m.insert(
            "read.overhead_ms",
            self.reads
                .iter()
                .map(|r| r.op_ms - r.frames_decoded as f64 * r.decode_ms_per_frame)
                .sum::<f64>()
                / n_reads,
        );
        m.insert(
            "read.frames_per_read",
            self.reads.iter().map(|r| r.frames_decoded).sum::<usize>() as f64 / n_reads,
        );
        m.insert(
            "read.selectivity",
            self.reads.iter().map(|r| r.frames_decoded).sum::<usize>() as f64
                / self
                    .reads
                    .iter()
                    .map(|r| r.frames_total)
                    .sum::<usize>()
                    .max(1) as f64,
        );
        m.insert("trace.overhead_ratio", traced_total / op_total);
        Ok(Report {
            attempted: (all.frames + self.reads.len()) as u64,
            failed: 0,
            metrics: m,
        })
    }
}
