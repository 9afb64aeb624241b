//! `report` — regenerate every evaluation artifact of the paper in one
//! run, printing paper-reported vs. measured values side by side.
//!
//! ```sh
//! cargo run --release -p ule_bench --bin report            # quick (small TPC-H)
//! cargo run --release -p ule_bench --bin report -- --full  # paper-scale (~1.2 MB dump)
//! cargo run --release -p ule_bench --bin report -- --e11   # one section alone
//! ```
//!
//! Arguments: `--full`, plus at most one section flag (`--t1`, `--e1` …
//! `--e15`, one per row of `SECTIONS`). An unknown argument or a second
//! section flag prints the usage line and exits 2.
//!
//! Results are recorded in `EXPERIMENTS.md`.
//!
//! The report is a CI gate, not just prose: every quantitative paper claim
//! it reproduces (E1 density, E4 damage boundaries, E8 byte-identity, ...)
//! is also asserted through [`Checks`], and the process exits non-zero if
//! any check fails — so a regression in a reproduced number breaks the
//! build instead of waiting for someone to eyeball the output.

use std::time::{Duration, Instant};
use ule_compress::Scheme;
use ule_emblem::stream::stream_crc32;
use ule_emblem::{decode_emblem, decode_stream, encode_stream, EmblemGeometry, EmblemKind};
use ule_media::Medium;
use ule_par::ThreadConfig;
use ule_verisc::vm::EngineKind;

/// Accumulated paper-claim checks; a failure turns into exit code 1.
/// Every check — pass or fail — is kept with its detail line, so
/// `BENCH_report.json` records the full pass/fail list instead of only
/// the failures.
#[derive(Default)]
struct Checks {
    results: Vec<(String, bool, String)>,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        let tag = if ok { "[check ok]  " } else { "[CHECK FAIL]" };
        println!("  {tag} {name}: {detail}");
        self.results.push((name.to_string(), ok, detail));
    }
}

/// Machine-readable sibling of the prose report: measured numbers keyed
/// by experiment, written to `BENCH_report.json` so runs can be diffed
/// and trended without scraping stdout. Hand-rolled flat JSON, same
/// convention as the fuzz campaign's `BENCH_fuzz.json` (no serde in the
/// workspace).
#[derive(Default)]
struct Recorder {
    mode: String,
    sections: Vec<(String, Vec<(String, String)>)>,
}

impl Recorder {
    fn put(&mut self, exp: &str, key: &str, value: String) {
        if !self.sections.iter().any(|(e, _)| e == exp) {
            self.sections.push((exp.to_string(), Vec::new()));
        }
        let sec = self.sections.iter_mut().find(|(e, _)| e == exp).unwrap();
        sec.1.push((key.to_string(), value));
    }
    fn num(&mut self, exp: &str, key: &str, v: f64) {
        self.put(exp, key, format!("{v:.4}"));
    }
    fn int(&mut self, exp: &str, key: &str, v: u64) {
        self.put(exp, key, v.to_string());
    }
    fn flag(&mut self, exp: &str, key: &str, v: bool) {
        self.put(exp, key, v.to_string());
    }
    fn ms(&mut self, exp: &str, key: &str, d: Duration) {
        self.num(exp, key, d.as_secs_f64() * 1e3);
    }
    fn write(&self, path: &str, checks: &Checks) {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        for (exp, kvs) in self.sections.iter() {
            json.push_str(&format!("  \"{exp}\": {{\n"));
            for (j, (k, v)) in kvs.iter().enumerate() {
                let comma = if j + 1 < kvs.len() { "," } else { "" };
                json.push_str(&format!("    \"{k}\": {v}{comma}\n"));
            }
            json.push_str("  },\n");
        }
        // The per-check pass/fail list — an array (not an object) because
        // some gates run once per configuration under the same name
        // (e.g. `e8_byte_identity` at 2/4/8 threads).
        json.push_str("  \"checks\": [\n");
        for (i, (name, ok, detail)) in checks.results.iter().enumerate() {
            let comma = if i + 1 < checks.results.len() {
                ","
            } else {
                ""
            };
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"ok\": {ok}, \"detail\": \"{}\"}}{comma}\n",
                ule_obs::json_escape(name),
                ule_obs::json_escape(detail)
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, &json).expect("write BENCH_report.json");
        println!("\nreport json: {path}");
    }
}

/// One report run, handed to every section.
struct Run {
    /// `--full`: paper-scale workloads instead of the quick gate run.
    full: bool,
    /// Exactly one section was requested, so it also runs its slow
    /// extras (E12's nested-VeRisc baseline).
    solo: bool,
    checks: Checks,
    rec: Recorder,
}

impl Run {
    /// TPC-H scale factor of the archived dump.
    fn scale(&self) -> f64 {
        if self.full {
            0.00115
        } else {
            0.0002
        }
    }
}

/// Every report section, in run order. `--<name>` runs that row alone.
const SECTIONS: &[(&str, fn(&mut Run))] = &[
    ("t1", t1_isa),
    ("e1", e1_paper_archive),
    ("e2", e2_microfilm),
    ("e3", e3_cinema),
    ("e4", e4_robustness),
    ("e5", e5_portability),
    ("e6", e6_compression),
    ("e7", e7_emulation_overhead),
    ("e8", e8_parallel_scaling),
    ("e9", e9_recovery_envelope),
    ("e10", e10_vault),
    ("e11", e11_kernels),
    ("e12", e12_emulated_restore),
    ("e13", e13_query),
    ("e14", e14_obs),
    ("e15", e15_repair),
];

/// The command line: `--full`, and the [`SECTIONS`] row to run alone.
struct Args {
    full: bool,
    only: Option<usize>,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut full, mut only) = (false, None);
        for arg in args {
            if arg == "--full" {
                full = true;
                continue;
            }
            let row = arg
                .strip_prefix("--")
                .and_then(|name| SECTIONS.iter().position(|(n, _)| *n == name))
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            if only.replace(row).is_some() {
                return Err(format!("`{arg}`: only one section flag may be given"));
            }
        }
        Ok(Args { full, only })
    }

    fn rows(&self) -> std::ops::Range<usize> {
        self.only.map_or(0..SECTIONS.len(), |row| row..row + 1)
    }

    /// The `mode` recorded in `BENCH_report.json`.
    fn mode(&self) -> &'static str {
        match self.only {
            Some(row) => SECTIONS[row].0,
            None if self.full => "full",
            None => "quick",
        }
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        let flags: Vec<String> = SECTIONS.iter().map(|(n, _)| format!("--{n}")).collect();
        eprintln!(
            "report: {err}\nusage: report [--full] [{}]",
            flags.join(" | ")
        );
        std::process::exit(2);
    });
    println!(
        "ULE / Micr'Olonys evaluation report ({} mode{})",
        if args.full { "full" } else { "quick" },
        match args.only {
            Some(row) => format!(", [{}] only", SECTIONS[row].0.to_uppercase()),
            None => String::new(),
        }
    );
    println!("==========================================================");
    let mut run = Run {
        full: args.full,
        solo: args.only.is_some(),
        checks: Checks::default(),
        rec: Recorder {
            mode: args.mode().into(),
            ..Recorder::default()
        },
    };
    for (_, section) in &SECTIONS[args.rows()] {
        section(&mut run);
    }
    run.rec.write("BENCH_report.json", &run.checks);
    let total = run.checks.results.len();
    let failed: Vec<_> = run.checks.results.iter().filter(|r| !r.1).collect();
    if failed.is_empty() {
        println!("\nreport complete: all {total} paper-claim checks passed.");
    } else {
        println!(
            "\nreport FAILED: {} of {total} paper-claim checks did not hold:",
            failed.len()
        );
        for (name, _, detail) in failed {
            println!("  - {name}: {detail}");
        }
        std::process::exit(1);
    }
}

fn t1_isa(_run: &mut Run) {
    println!(
        "\n[T1] Table 1 — DynaRisc instruction set ({} opcodes)",
        ule_dynarisc::isa::OPCODE_COUNT
    );
    let mut last = "";
    for (class, mnemonic, operands) in ule_dynarisc::isa::table1() {
        if class != last {
            println!("  {class}:");
            last = class;
        }
        println!("    {mnemonic:<5} {operands}");
    }
}

fn e1_paper_archive(run: &mut Run) {
    let scale = run.scale();
    let Run { checks, .. } = run;
    println!("\n[E1] Paper archive (§4) — TPC-H SF {scale} on A4 @600dpi");
    let t0 = Instant::now();
    let dump = ule_tpch::dump_for_scale(scale, 42);
    println!(
        "  dump: {} bytes (paper: ~1.2 MB)          [gen {:?}]",
        dump.len(),
        t0.elapsed()
    );
    let medium = Medium::paper_a4_600dpi();
    let geom = medium.geometry;

    // Apples-to-apples with the paper's reported row: raw payload pages.
    let raw_pages = geom.emblems_for(dump.len());
    println!(
        "  raw-payload emblems: {} -> density {:.1} KB/page   (paper: 26 emblems, 50 KB/page)",
        raw_pages,
        dump.len() as f64 / raw_pages as f64 / 1000.0
    );
    // The paper's density row, checked on its own 1.23 MB archive size so
    // the gate is independent of the --full/quick workload scale.
    let paper_pages = geom.emblems_for(1_230_000);
    let paper_density = 1_230_000.0 / paper_pages as f64 / 1000.0;
    checks.check(
        "e1_pages",
        (25..=27).contains(&paper_pages),
        format!("1.23 MB -> {paper_pages} pages (paper: 26)"),
    );
    checks.check(
        "e1_density",
        (44.0..=53.0).contains(&paper_density),
        format!("{paper_density:.1} KB/page (paper: ~50 KB/page)"),
    );

    // With DBCoder compression (the design's actual pipeline).
    let t1 = Instant::now();
    let archive = ule_compress::compress(Scheme::Lzss, &dump);
    let lzss_pages = geom.emblems_for(archive.len());
    println!(
        "  lzss archive: {} bytes -> {} emblems -> effective density {:.1} KB/page",
        archive.len(),
        lzss_pages,
        dump.len() as f64 / lzss_pages as f64 / 1000.0
    );

    // End-to-end encode + print + scan + decode (compressed pipeline).
    let emblems = encode_stream(&geom, EmblemKind::Data, &archive, true);
    let frames = medium.print_all(&emblems);
    let encode_time = t1.elapsed();
    let t2 = Instant::now();
    let scans = medium.scan_all(&frames, 600);
    let (restored_arc, stats) = decode_stream(&geom, &scans).expect("decode stream");
    let restored = ule_compress::decompress(&restored_arc).expect("decompress");
    let decode_time = t2.elapsed();
    assert_eq!(restored, dump);
    println!(
        "  encode+print: {encode_time:?}   scan+decode: {decode_time:?}   (paper: 6 min / 3 min 20 s on 2016/2019 CPUs)"
    );
    println!(
        "  round trip: bit-exact over {} frames ({} bytes RS-corrected)",
        frames.len(),
        stats.rs_corrected
    );
}

fn film_roundtrip(medium: &Medium, paper_emblems: usize) {
    let payload = ule_bench::logo_payload();
    let geom = medium.geometry;
    let emblems = encode_stream(&geom, EmblemKind::Data, &payload, false);
    println!(
        "  payload 102400 B -> {} emblems (paper: {paper_emblems}) on {}x{} frames",
        emblems.len(),
        medium.frame_width,
        medium.frame_height
    );
    let t = Instant::now();
    let frames = medium.print_all(&emblems);
    let scans = medium.scan_all(&frames, 1964);
    let (restored, stats) = decode_stream(&geom, &scans).expect("decode");
    assert_eq!(restored, payload);
    println!(
        "  scan {}x{} -> bit-exact restore, {} B RS-corrected   [{:?}]",
        scans[0].width(),
        scans[0].height(),
        stats.rs_corrected,
        t.elapsed()
    );
}

fn e2_microfilm(_run: &mut Run) {
    println!("\n[E2] Microfilm archive (§4) — 16mm, IMAGELINK-class frames");
    let medium = Medium::microfilm_16mm();
    film_roundtrip(&medium, 3);
    println!(
        "  reel capacity model: {:.2} GB / 66 m (paper: 1.3 GB); 1 TB ≈ {} reels (paper: ~800)",
        medium.capacity_bytes(66.0) as f64 / 1e9,
        (1.0e12 / medium.capacity_bytes(66.0) as f64).ceil()
    );
}

fn e3_cinema(_run: &mut Run) {
    println!("\n[E3] Cinema film archive (§4) — 35mm 2K write, 4K grayscale scan");
    film_roundtrip(&Medium::cinema_35mm(), 3);
}

fn e4_robustness(run: &mut Run) {
    let Run { checks, .. } = run;
    println!(
        "\n[E4] Robustness (§3.1) — inner code: 'up to 7.2% damaged data within a single emblem'"
    );
    let geom = EmblemGeometry::test_small();
    let (img, payload, _) = ule_bench::sample_emblem(&geom, 11);
    println!("  (theoretical per-block limit: 16/223 = 7.17%; area damage also clips");
    println!("   partial cells, so decodability ends just under the byte-level bound)");
    println!("  damage%  decoded  rs_corrected");
    let mut ok_below = true;
    let mut garbage_above = false;
    for pct in [0.0, 0.02, 0.04, 0.05, 0.06, 0.065, 0.07, 0.08, 0.10] {
        let damaged = ule_bench::damage_emblem(&img, &geom, pct, 23);
        match decode_emblem(&geom, &damaged) {
            Ok((_, p, stats)) if p == payload => {
                println!("  {:>6.1}%  yes      {}", pct * 100.0, stats.rs_corrected)
            }
            Ok(_) => {
                garbage_above = true;
                println!("  {:>6.1}%  WRONG    -", pct * 100.0)
            }
            Err(e) => {
                // EXPERIMENTS.md E4: area damage decodes through 6.0%; the
                // 7.17% byte-level bound is unreachable by area damage
                // because clipped partial cells also corrupt bytes.
                if pct <= 0.06 {
                    ok_below = false;
                }
                println!("  {:>6.1}%  no ({e})", pct * 100.0)
            }
        }
    }
    checks.check(
        "e4_inner_below_boundary",
        ok_below,
        "area damage <= 6.0% decodes bit-exact (paper: up to 7.2% of bytes)".into(),
    );
    checks.check(
        "e4_inner_no_garbage",
        !garbage_above,
        "beyond-boundary damage never yields silently wrong bytes".into(),
    );

    println!("  outer code: 'full restoration ... in which any three are missing'");
    let payload = ule_bench::random_payload(geom.payload_capacity() * 17, 9);
    let emblems = encode_stream(&geom, EmblemKind::Data, &payload, true);
    println!("  group: {} emblems (17 data + 3 parity)", emblems.len());
    println!("  missing  restored");
    let mut outer_ok = true;
    for missing in 0..=4usize {
        let kept: Vec<_> = emblems.iter().skip(missing).cloned().collect();
        match decode_stream(&geom, &kept) {
            Ok((p, stats)) if p == payload => {
                if missing > 3 {
                    outer_ok = false;
                }
                println!(
                    "  {missing:>7}  yes (recovered {} whole emblems)",
                    stats.emblems_recovered
                )
            }
            Ok(_) => {
                outer_ok = false;
                println!("  {missing:>7}  WRONG")
            }
            Err(e) => {
                if missing <= 3 {
                    outer_ok = false;
                }
                println!("  {missing:>7}  no ({e})")
            }
        }
    }
    checks.check(
        "e4_outer_any_three",
        outer_ok,
        "any 3 of 20 emblems recoverable, 4 fails cleanly".into(),
    );
}

fn e5_portability(_run: &mut Run) {
    println!("\n[E5] Portability (§4) — independent VeRisc implementations");
    let lines = ule_verisc::spec::pseudocode_lines();
    println!("  bootstrap pseudocode: {lines} lines (paper: < 500 lines)");
    let sys = micr_olonys::MicrOlonys {
        medium: Medium::test_micro(),
        with_parity: false,
        ..micr_olonys::MicrOlonys::test_tiny()
    };
    let dump = b"COPY t (k) FROM stdin;\n1\n2\n3\n\\.\n".to_vec();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let (prose, letters) = out.bootstrap.page_count();
    println!("  bootstrap document: {prose} prose pages + {letters} letter pages (paper: 4 + 3; see EXPERIMENTS.md note)");
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    for kind in EngineKind::ALL {
        let t = Instant::now();
        let (restored, stats) = micr_olonys::MicrOlonys::restore_emulated(
            &text,
            &scans,
            micr_olonys::EmulationTier::Nested(kind),
            ThreadConfig::Serial,
        )
        .expect("restore");
        assert_eq!(restored, dump);
        println!(
            "  {:<12} -> bit-exact, {:>11} VeRisc instrs, {:?}",
            kind.name(),
            stats.verisc_steps,
            t.elapsed()
        );
    }
    println!("  all implementations agree (the paper's JS/Python/C++/C# result, mechanised)");
}

fn e6_compression(run: &mut Run) {
    let scale = run.scale();
    println!("\n[E6] DBCoder schemes (§3.1 'close to LZMA') — TPC-H SF {scale} dump");
    let dump = ule_tpch::dump_for_scale(scale, 42);
    println!(
        "  {:<14} {:>10} {:>8} {:>12} {:>12}",
        "scheme", "bytes", "ratio", "compress", "decompress"
    );
    for scheme in Scheme::ALL {
        let t0 = Instant::now();
        let arc = ule_compress::compress(scheme, &dump);
        let ct = t0.elapsed();
        let t1 = Instant::now();
        let back = ule_compress::decompress(&arc).unwrap();
        let dt = t1.elapsed();
        assert_eq!(back, dump);
        println!(
            "  {:<14} {:>10} {:>7.2}x {:>12?} {:>12?}",
            scheme.name(),
            arc.len(),
            dump.len() as f64 / arc.len() as f64,
            ct,
            dt
        );
    }
}

fn e7_emulation_overhead(_run: &mut Run) {
    println!("\n[E7] Decode-tier ablation — the cost of universality (decode only; queries run at bare metal, §2)");
    let dump = ule_tpch::dump_for_scale(0.0002, 42);
    let data = &dump[..8192];
    let archive = ule_compress::compress(Scheme::Lzss, data);
    let (mem, out_base) = ule_dynarisc::layout::build_memory(&archive, data.len(), &[]);
    let program = ule_dynarisc::programs::dbdecode::program();

    let t = Instant::now();
    let native = ule_compress::decompress(&archive).unwrap();
    let t_native = t.elapsed();
    assert_eq!(native, data);

    let t = Instant::now();
    let mut vm = ule_dynarisc::Vm::new(program.clone(), mem.clone());
    vm.run(1_000_000_000).unwrap();
    let t_dyn = t.elapsed();
    let dyn_steps = vm.steps();
    assert_eq!(ule_dynarisc::layout::read_output(&vm.mem, out_base), data);

    let t = Instant::now();
    let mut emu = ule_verisc::NestedEmulator::new(&program, &mem);
    let v_steps = emu.run(EngineKind::MatchBased, 1_000_000_000_000).unwrap();
    let t_nested = t.elapsed();
    assert_eq!(
        ule_dynarisc::layout::read_output(&emu.dyn_mem(), out_base),
        data
    );

    println!("  tier                 time          vs native   instructions");
    println!("  native Rust          {t_native:>12?}  1.0x");
    println!(
        "  DynaRisc VM          {t_dyn:>12?}  {:.0}x        {dyn_steps} guest instrs",
        t_dyn.as_secs_f64() / t_native.as_secs_f64().max(1e-9)
    );
    println!(
        "  nested VeRisc        {t_nested:>12?}  {:.0}x        {v_steps} VeRisc instrs ({:.0} per guest instr)",
        t_nested.as_secs_f64() / t_native.as_secs_f64().max(1e-9),
        v_steps as f64 / dyn_steps as f64
    );
}

fn e8_parallel_scaling(run: &mut Run) {
    let scale = run.scale();
    let Run { checks, rec, .. } = run;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n[E8] Parallel archive/restore scaling — E1 workload (TPC-H SF {scale}, A4 @600dpi), {cores} core(s) available"
    );
    let dump = ule_tpch::dump_for_scale(scale, 42);
    // Untimed warm-up so the serial baseline is not charged for first-run
    // costs (page faults, allocator growth) that later runs skip.
    let warmup = micr_olonys::MicrOlonys::paper_default().archive(&dump);
    drop(warmup);
    println!("  threads  archive                     restore                     frames");
    let mut serial: Option<(Duration, Duration, u32)> = None;
    let mut speedup4 = 1.0f64;
    for threads in [1usize, 2, 4, 8] {
        let sys = micr_olonys::MicrOlonys::paper_default().with_threads(if threads == 1 {
            ThreadConfig::Serial
        } else {
            ThreadConfig::Fixed(threads)
        });
        let t = Instant::now();
        let out = sys.archive(&dump);
        let t_arch = t.elapsed();
        // The same fingerprint the golden-vector suite pins, so E8 can hold
        // a u32 per run instead of hundreds of MB of A4 frames.
        let crc = stream_crc32(&out.data_frames) ^ stream_crc32(&out.system_frames);
        let t = Instant::now();
        let (restored, _) = sys.restore_native(&out.data_frames).expect("restore");
        let t_rest = t.elapsed();
        assert_eq!(restored, dump, "E8 restore must be bit-exact");
        let (s_arch, s_rest, s_crc) = *serial.get_or_insert((t_arch, t_rest, crc));
        let sp_a = s_arch.as_secs_f64() / t_arch.as_secs_f64().max(1e-9);
        let sp_r = s_rest.as_secs_f64() / t_rest.as_secs_f64().max(1e-9);
        if threads == 4 {
            speedup4 = sp_a;
        }
        let mbs = dump.len() as f64 / 1e6 / t_arch.as_secs_f64().max(1e-9);
        println!(
            "  {threads:>7}  {t_arch:>10.2?} ({mbs:>5.2} MB/s, {sp_a:>4.2}x)  {t_rest:>10.2?} ({sp_r:>4.2}x)         {}",
            if threads == 1 {
                "serial baseline"
            } else if crc == s_crc {
                "identical to serial"
            } else {
                "DIFFER FROM SERIAL"
            }
        );
        // threads == 1 *is* the baseline — comparing its CRC to itself
        // would be a vacuous check, so only the parallel runs are gated.
        if threads > 1 {
            checks.check(
                "e8_byte_identity",
                crc == s_crc,
                format!("frames at {threads} threads are byte-identical to serial"),
            );
            rec.flag("e8", &format!("byte_identical_{threads}t"), crc == s_crc);
        } else {
            rec.ms("e8", "archive_serial_ms", t_arch);
            rec.ms("e8", "restore_serial_ms", t_rest);
        }
    }
    rec.num("e8", "archive_speedup_4t", speedup4);
    // The scaling claim needs hardware the pool can actually use (>= 4
    // cores) AND a quiet machine — wall-clock speedup on a shared CI
    // runner is noise, not a regression signal. So the hard gate is
    // opt-in: set ULE_E8_STRICT=1 when measuring on dedicated multicore
    // hardware (EXPERIMENTS.md E8). Byte-identity, the deterministic half
    // of the E8 contract, is gated unconditionally above.
    let strict = std::env::var("ULE_E8_STRICT").is_ok_and(|v| v != "0");
    if strict && cores >= 4 {
        checks.check(
            "e8_speedup_4t",
            speedup4 > 1.5,
            format!("archive speedup at 4 threads = {speedup4:.2}x (target > 1.5x)"),
        );
    } else {
        println!(
            "  4-thread archive speedup {speedup4:.2}x (target > 1.5x on >= 4 dedicated cores; \
             hard gate via ULE_E8_STRICT=1, see EXPERIMENTS.md E8)"
        );
    }
}

fn e10_vault(run: &mut Run) {
    use ule_vault::{RestorePath, Vault, VaultError};
    let scale = run.scale();
    let Run { checks, rec, .. } = run;
    println!(
        "\n[E10] Vault: selective restore + cross-reel parity (S16) — TPC-H SF {scale}, \
         fine-grained tiny geometry"
    );
    let t0 = Instant::now();
    let w = ule_bench::E10Workload::new(scale, 42, ThreadConfig::Serial);
    println!(
        "  shelf: {} segments ({} tables), {} data + {} index + {} sys frames, \
         {} content reels + {} parity reels   [built in {:?}]",
        w.archive.stats.segments,
        w.archive.stats.tables,
        w.archive.stats.data_frames,
        w.archive.stats.index_frames,
        w.archive.stats.sys_frames,
        w.archive.stats.content_reels,
        w.archive.stats.parity_reels,
        t0.elapsed()
    );

    // Full restore: the baseline every selective figure is against.
    let t = Instant::now();
    let (full_dump, full_stats) = w
        .vault
        .restore_all(&w.archive.bootstrap, &w.scans)
        .expect("full restore");
    let t_full = t.elapsed();
    assert_eq!(full_dump, w.dump, "full restore must be bit-exact");
    println!(
        "  full restore: {} frames scanned, {:?}",
        full_stats.frames_decoded, t_full
    );

    // Selective restore per table: frames scanned and latency vs full.
    println!("  table      frames  of-full  latency   vs-full  identical");
    let mut orders_fraction = 1.0f64;
    for table in ["lineitem", "orders", "customer", "nation"] {
        let t = Instant::now();
        let (bytes, stats) = w
            .vault
            .restore_table(&w.archive.bootstrap, &w.scans, table)
            .expect("selective restore");
        let dt = t.elapsed();
        let identical = Some(bytes.as_slice()) == w.expected_table(table);
        let fraction = stats.frames_decoded as f64 / full_stats.frames_decoded as f64;
        if table == "orders" {
            orders_fraction = fraction;
        }
        println!(
            "  {table:<9} {:>6}  {:>6.1}%  {dt:>8.2?}  {:>6.2}x  {}",
            stats.frames_decoded,
            fraction * 100.0,
            t_full.as_secs_f64() / dt.as_secs_f64().max(1e-9),
            if identical { "yes" } else { "NO" }
        );
        checks.check(
            &format!("e10_selective_identity_{table}"),
            identical && stats.path == RestorePath::Selective,
            format!("selective {table} bytes == full-restore slice, no fallback"),
        );
    }
    checks.check(
        "e10_selective_scan_fraction",
        orders_fraction < 0.30,
        format!(
            "one table (orders) scans {:.1}% of the full-restore frames (target < 30%)",
            orders_fraction * 100.0
        ),
    );
    rec.ms("e10", "full_restore_ms", t_full);
    rec.num("e10", "orders_scan_fraction", orders_fraction);

    // Lost-reel recovery gate: drop each content reel in turn; a single
    // loss per parity group must restore byte-identically.
    let t = Instant::now();
    let mut lost_ok = true;
    for lost in 0..w.archive.stats.content_reels {
        let mut scans = w.scans.clone();
        scans[lost] = None;
        match w.vault.restore_all(&w.archive.bootstrap, &scans) {
            Ok((dump, stats)) => {
                lost_ok &= dump == w.dump && stats.reels_reconstructed == 1;
            }
            Err(e) => {
                println!("  lost reel {lost}: {e}");
                lost_ok = false;
            }
        }
    }
    println!(
        "  lost-reel sweep: every single content reel dropped and rebuilt from parity [{:?}]",
        t.elapsed()
    );
    checks.check(
        "e10_lost_reel_identity",
        lost_ok,
        "any single lost reel restores byte-identically via cross-reel parity".into(),
    );

    // Two reels down in one group must be the structured ReelLoss error.
    let mut scans = w.scans.clone();
    scans[0] = None;
    scans[1] = None;
    let clean = matches!(
        w.vault.restore_all(&w.archive.bootstrap, &scans),
        Err(VaultError::ReelLoss { group: 0, .. })
    );
    checks.check(
        "e10_reel_loss_structured",
        clean,
        "two lost reels in one group fail as VaultError::ReelLoss, no panic".into(),
    );

    // Pre-S16 compatibility: a classic archive (no vault line) restores
    // through the vault's fallback path.
    let classic = micr_olonys::MicrOlonys::test_tiny();
    let out = classic.archive(&w.dump);
    let scans: ule_vault::ReelScans = vec![Some(classic.medium.scan_all(&out.data_frames, 1964))];
    let vault = Vault::single_reel(classic);
    let ok = matches!(
        vault.restore_all(&out.bootstrap, &scans),
        Ok((dump, stats)) if dump == w.dump && stats.path == RestorePath::Classic
    );
    checks.check(
        "e10_pre_s16_fallback",
        ok,
        "a pre-S16 archive (no vault manifest) restores via the classic path".into(),
    );
}

fn e13_query(run: &mut Run) {
    use ule_tpch::archival::ShelfQuery;
    use ule_tpch::queries;
    use ule_vault::zones::ZonePredicate;
    let scale = run.scale();
    let Run { checks, rec, .. } = run;
    println!(
        "\n[E13] Archival query engine: TPC-H aggregation over cold media, no full restore — \
         SF {scale}, date-clustered dump, zone-mapped catalog"
    );
    let t0 = Instant::now();
    let w = ule_bench::E13Workload::new(scale, 42, ThreadConfig::Serial);
    println!(
        "  shelf: {} segments ({} tables), {} data frames, {} content + {} parity reels   \
         [built in {:?}]",
        w.archive.stats.segments,
        w.archive.stats.tables,
        w.archive.stats.data_frames,
        w.archive.stats.content_reels,
        w.archive.stats.parity_reels,
        t0.elapsed()
    );

    // Baselines: the monolithic restore (+ Database load) every query
    // figure is against, and E10's selective restore of the fact table.
    let t = Instant::now();
    let (full_dump, full_stats) = w
        .vault
        .restore_all(&w.archive.bootstrap, &w.scans)
        .expect("full restore");
    let t_full = t.elapsed();
    assert_eq!(full_dump, w.dump, "full restore must be bit-exact");
    let loaded = ule_tpch::parse_dump(&full_dump).expect("load restored dump");
    let (_, sel_li) = w
        .vault
        .restore_table(&w.archive.bootstrap, &w.scans, "lineitem")
        .expect("selective lineitem");
    println!(
        "  baselines: full restore {} frames ({t_full:?}), selective lineitem {} frames",
        full_stats.frames_decoded, sel_li.frames_decoded
    );

    // The three query shapes, streamed straight off the shelf.
    let shelf = w.shelf();
    const CUTOFF: &str = "1995-06-30";
    let t = Instant::now();
    let (q1, s1) = shelf.pricing_summary(CUTOFF).expect("q1");
    let t_q1 = t.elapsed();
    let t = Instant::now();
    let (q6, s6) = shelf.forecast_revenue("1994", 24).expect("q6");
    let t_q6 = t.elapsed();
    let t = Instant::now();
    let (q3, s3) = shelf.top_customers(10).expect("q3");
    let t_q3 = t.elapsed();

    let q1_oracle = queries::pricing_summary(&loaded, CUTOFF).expect("q1 oracle");
    let q6_oracle = queries::forecast_revenue(&loaded, "1994", 24).expect("q6 oracle");
    let q3_oracle = queries::top_customers(&loaded, 10);

    println!("  query                 frames  of-full   zones  latency   identical");
    for (name, stats, dt, same) in [
        ("Q1 pricing_summary", &s1, t_q1, q1 == q1_oracle),
        ("Q6 forecast_revenue", &s6, t_q6, q6 == q6_oracle),
        ("Q3 top_customers", &s3, t_q3, q3 == q3_oracle),
    ] {
        println!(
            "  {name:<21} {:>6}  {:>6.1}%  {:>3}/{:<3}  {dt:>8.2?}  {}",
            stats.frames_decoded,
            stats.frames_decoded as f64 / full_stats.frames_decoded as f64 * 100.0,
            stats.zones_selected,
            stats.zones_total,
            if same { "yes" } else { "NO" }
        );
    }
    checks.check(
        "e13_q1_answer_identity",
        q1 == q1_oracle,
        "streamed Q1 == full restore + load + query".into(),
    );
    checks.check(
        "e13_q6_answer_identity",
        q6 == q6_oracle,
        "streamed Q6 == full restore + load + query".into(),
    );
    checks.check(
        "e13_q3_answer_identity",
        q3 == q3_oracle,
        "streamed Q3 == full restore + load + query".into(),
    );
    for (name, stats) in [("q1", &s1), ("q6", &s6), ("q3", &s3)] {
        checks.check(
            &format!("e13_{name}_frames_below_full"),
            stats.frames_decoded < full_stats.frames_decoded,
            format!(
                "{} frames scanned, full restore scans {}",
                stats.frames_decoded, full_stats.frames_decoded
            ),
        );
    }
    // The headline pruning gate: the Q6 date window plus the quantity
    // bound must beat even E10's whole-table selective restore by 2x.
    let q6_fraction = s6.frames_decoded as f64 / sel_li.frames_decoded as f64;
    checks.check(
        "e13_q6_beats_selective_restore",
        q6_fraction < 0.50,
        format!(
            "Q6 scans {:.1}% of the selective lineitem restore (target < 50%)",
            q6_fraction * 100.0
        ),
    );

    // Streaming identity on every catalogued table: the unpruned scan's
    // pieces must concatenate to the exact dump slice.
    let mut stream_ok = true;
    for entry in &w.archive.index.entries {
        let (scan, _) = w
            .vault
            .query_table(
                &w.archive.bootstrap,
                &w.scans,
                &entry.name,
                &ZonePredicate::all(),
            )
            .expect("unpruned scan");
        let expect =
            &w.dump[entry.dump_start as usize..(entry.dump_start + entry.dump_len) as usize];
        if scan.concat() != expect {
            println!(
                "  [!] {}: unpruned scan differs from dump slice",
                entry.name
            );
            stream_ok = false;
        }
    }
    checks.check(
        "e13_streaming_identity_all_tables",
        stream_ok,
        format!(
            "unpruned streaming scans byte-identical to the dump on all {} segments",
            w.archive.index.entries.len()
        ),
    );

    // Pre-zone-map compatibility: the same dump archived with the PR-4
    // era composition (no zones) answers identically via the fallback.
    let (pvault, parc, pscans) = w.plain();
    let plain = ShelfQuery::new(&pvault, &parc.bootstrap, &pscans);
    let (p1, ps1) = plain.pricing_summary(CUTOFF).expect("plain q1");
    let (p6, _) = plain.forecast_revenue("1994", 24).expect("plain q6");
    let (p3, _) = plain.top_customers(10).expect("plain q3");
    checks.check(
        "e13_pre_zone_map_identity",
        p1 == q1_oracle && p6 == q6_oracle && p3 == q3_oracle && !ps1.pruned,
        "a no-zones (PR-4 era) archive answers identically through the fallback".into(),
    );

    rec.int(
        "e13",
        "full_restore_frames",
        full_stats.frames_decoded as u64,
    );
    rec.int(
        "e13",
        "selective_lineitem_frames",
        sel_li.frames_decoded as u64,
    );
    rec.int("e13", "q1_frames", s1.frames_decoded as u64);
    rec.int("e13", "q6_frames", s6.frames_decoded as u64);
    rec.int("e13", "q3_frames", s3.frames_decoded as u64);
    rec.num("e13", "q6_fraction_of_selective", q6_fraction);
    rec.int("e13", "q1_zones_selected", s1.zones_selected as u64);
    rec.int("e13", "q1_zones_total", s1.zones_total as u64);
    rec.int("e13", "q6_zones_selected", s6.zones_selected as u64);
    rec.int("e13", "q6_zones_total", s6.zones_total as u64);
    rec.ms("e13", "q1_ms", t_q1);
    rec.ms("e13", "q6_ms", t_q6);
    rec.ms("e13", "q3_ms", t_q3);
    rec.ms("e13", "full_restore_ms", t_full);
}

fn e14_obs(run: &mut Run) {
    use micr_olonys::MicrOlonys;
    use ule_obs::Telemetry;
    use ule_vault::zones::{ColumnRange, ZonePredicate};
    let scale = run.scale();
    let Run { checks, rec, .. } = run;
    println!(
        "\n[E14] Pipeline observability (ule_obs) — span-tree profile, decode-health counters, \
         machine-readable trace"
    );

    // Identity + overhead subject: the classic pipeline on the tiny
    // medium, scanned through the channel so decode does real RS work.
    let sys = MicrOlonys::test_tiny();
    let dump = ule_tpch::dump_for_scale(scale, 42);
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all(&out.data_frames, 0xE14);

    // Gate 1: the recorder only observes — restored bytes (and the RS
    // work done to get them) are identical with telemetry on and off.
    let (bytes_off, stats_off) = sys.restore_native(&scans).expect("restore, telemetry off");
    let (bytes_on, stats_on) = sys
        .clone()
        .with_telemetry(Telemetry::enabled())
        .restore_native(&scans)
        .expect("restore, telemetry on");
    checks.check(
        "e14_identity",
        bytes_on == bytes_off
            && bytes_off == dump
            && stats_on.rs_corrected == stats_off.rs_corrected,
        "enabled-mode restore bytes are identical to disabled-mode (and bit-exact)".into(),
    );

    // Gate 2: enabled-mode restore overhead, the median of the per-round
    // on/off ratios of an interleaved same-process A/B.
    let (t_off, t_on, on_per_off) = time_ab(
        E14_ROUNDS,
        || {
            std::hint::black_box(sys.restore_native(&scans).expect("restore"));
        },
        || {
            let traced = sys.clone().with_telemetry(Telemetry::enabled());
            std::hint::black_box(traced.restore_native(&scans).expect("restore"));
        },
    );
    let overhead = on_per_off - 1.0;
    println!(
        "  restore wall-clock: telemetry off {t_off:.2?}, on {t_on:.2?} -> overhead {:+.2}%",
        overhead * 100.0
    );
    checks.check(
        "e14_overhead",
        overhead <= 0.05,
        format!(
            "enabled-mode restore overhead {:+.2}% (target <= 5%)",
            overhead * 100.0
        ),
    );

    // The combined pipeline trace: ONE recorder across an archive, a
    // fault-injected scan/decode, a selective restore and an E13 query —
    // the whole Figure-2 loop in a single span tree.
    let tel = Telemetry::enabled();
    let traced_sys = sys.clone().with_telemetry(tel.clone());
    let traced = traced_sys.archive(&dump);
    assert_eq!(traced.stats.archive_bytes, out.stats.archive_bytes);
    // `ule_fault` damage: blotches at 3% area on every data frame — inside
    // the inner code's E4 budget, so the restore succeeds *by correcting*
    // and the RS-health counters must light up.
    let plan = ule_fault::FaultPlan::single(ule_fault::Blotch);
    let severity = [0.02, 0.01, 0.005, 0.002, 0.001]
        .into_iter()
        .find(|&sev| {
            let probe = plan.apply(&scans, sev, 0xE14C0DE);
            sys.restore_native(&probe).is_ok()
        })
        .expect("some blotch severity decodes on the tiny medium");
    let damaged = plan.apply(&scans, severity, 0xE14C0DE);
    let (dbytes, dstats) = traced_sys
        .restore_native(&damaged)
        .expect("damaged restore");
    checks.check(
        "e14_damage_bit_exact",
        dbytes == dump,
        "fault-injected restore is still bit-exact".into(),
    );
    let corrected = tel.counter("decode.corrected_symbols");
    println!(
        "  damage run (blotch {severity}): {} corrected symbols across {} frames ({} clean)",
        corrected,
        tel.counter("decode.frames_total"),
        tel.counter("decode.clean_frames"),
    );
    checks.check(
        "e14_rs_counters_nonzero",
        corrected > 0 && dstats.rs_corrected > 0,
        format!("damage run surfaces RS work: {corrected} corrected symbols (> 0)"),
    );

    // Selective restore + one E13 query through a telemetry-attached
    // vault, sharing the same recorder.
    let w = ule_bench::E13Workload::new(scale, 42, ThreadConfig::Serial);
    let vault = w.vault.clone().with_telemetry(tel.clone());
    let (sel_bytes, _) = vault
        .restore_table(&w.archive.bootstrap, &w.scans, "orders")
        .expect("selective restore");
    let entry = w.archive.index.find("orders").expect("orders catalogued");
    assert_eq!(
        sel_bytes.as_slice(),
        &w.dump[entry.dump_start as usize..(entry.dump_start + entry.dump_len) as usize]
    );
    let pred = ZonePredicate::all().with(ColumnRange::between(
        "l_shipdate",
        "1994-01-01",
        "1994-12-31",
    ));
    let (_, qs) = vault
        .query_table(&w.archive.bootstrap, &w.scans, "lineitem", &pred)
        .expect("query");
    checks.check(
        "e14_query_counters",
        qs.zones_pruned > 0 && tel.counter("query.zones_pruned") == qs.zones_pruned as u64,
        format!(
            "query telemetry matches engine stats ({}/{} zones pruned)",
            qs.zones_pruned, qs.zones_total
        ),
    );

    // The trace must hold per-stage spans for every pipeline leg E14
    // exercises: archive, scan/decode, selective restore, the query.
    let trace = tel.snapshot();
    let wanted = [
        "archive",
        "archive.compress",
        "archive.print",
        "scan.decode.frame",
        "restore.selective",
        "vault.query_table",
    ];
    let missing: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|s| !trace.spans.contains_key(*s))
        .collect();
    checks.check(
        "e14_trace_spans",
        missing.is_empty(),
        if missing.is_empty() {
            "per-stage spans present for archive, scan/decode, selective restore and query".into()
        } else {
            format!("missing spans: {missing:?}")
        },
    );

    // Both export surfaces: the machine-readable trace and the profile.
    let json = trace.to_json();
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    println!(
        "  trace json: BENCH_trace.json ({} spans, {} counters)",
        trace.spans.len(),
        trace.counters.len()
    );
    println!("  span-tree profile:");
    for line in trace.render().lines() {
        println!("    {line}");
    }

    rec.num("e14", "restore_overhead_pct", overhead * 100.0);
    rec.int("e14", "corrected_symbols", corrected);
    rec.int(
        "e14",
        "erasure_frames",
        tel.counter("decode.erasure_frames"),
    );
    rec.int("e14", "clean_frames", tel.counter("decode.clean_frames"));
    rec.int("e14", "query_zones_pruned", qs.zones_pruned as u64);
    rec.int("e14", "trace_spans", trace.spans.len() as u64);
    rec.int("e14", "trace_counters", trace.counters.len() as u64);
}

fn e15_repair(run: &mut Run) {
    use ule_vault::layout::StreamId;
    use ule_vault::{RestorePath, ShardPlan, Vault, VaultError};
    let scale = run.scale();
    let Run { checks, rec, .. } = run;
    println!(
        "\n[E15] Multi-parity reel groups + scrub-and-repair (§16) — RS(5, 3) shelf, \
         TPC-H SF {scale}"
    );
    let t0 = Instant::now();
    let w = ule_bench::E15Workload::new(scale, 42, ThreadConfig::Serial);
    let layout = &w.archive.layout;
    let m = layout.group_parity;
    println!(
        "  shelf: {} content reels in {} groups x {} parity reels each   [built in {:?}]",
        w.archive.stats.content_reels,
        layout.groups(),
        m,
        t0.elapsed()
    );
    rec.int("e15", "content_reels", w.archive.stats.content_reels as u64);
    rec.int("e15", "parity_reels", w.archive.stats.parity_reels as u64);
    rec.int("e15", "group_parity", m as u64);

    // Loss sweep: 0..=m lost reels in group 0 must restore byte-identically;
    // m+1 must fail as a structured ReelLoss naming every lost reel. Each
    // loss count also runs under scratch+blotch damage on the survivors.
    let damage = ule_fault::FaultPlan::single(ule_fault::BurstScratch {
        orientation: ule_fault::Orientation::Vertical,
    })
    .with(ule_fault::Blotch);
    let severity = [0.01, 0.005, 0.002, 0.001, 0.0005]
        .into_iter()
        .find(|&sev| {
            let probe: ule_vault::ReelScans = w
                .scans
                .iter()
                .map(|r| r.as_ref().map(|f| damage.apply(f, sev, 0xE15)))
                .collect();
            matches!(
                w.vault.restore_all(&w.archive.bootstrap, &probe),
                Ok((dump, _)) if dump == w.dump
            )
        })
        .expect("some scratch+blotch severity restores on the tiny medium");
    rec.num("e15", "damage_severity", severity);
    let group0: Vec<usize> = layout
        .group_members(0)
        .chain(layout.parity_reels_of(0))
        .collect();
    for lost_n in 0..=m + 1 {
        let lost = &group0[..lost_n];
        for (damaged, label) in [(false, "pristine"), (true, "scratch+blotch")] {
            let mut scans: ule_vault::ReelScans = if damaged {
                w.scans
                    .iter()
                    .map(|r| r.as_ref().map(|f| damage.apply(f, severity, 0xE15)))
                    .collect()
            } else {
                w.scans.clone()
            };
            for &r in lost {
                scans[r] = None;
            }
            let t = Instant::now();
            let res = w.vault.restore_all(&w.archive.bootstrap, &scans);
            let dt = t.elapsed();
            if lost_n <= m {
                let ok = matches!(
                    &res,
                    Ok((dump, stats)) if *dump == w.dump && stats.reels_reconstructed == lost_n
                );
                println!(
                    "  {lost_n} lost reel(s), {label:<14}: byte-identical={} [{dt:?}]",
                    if ok { "yes" } else { "NO" }
                );
                checks.check(
                    &format!(
                        "e15_identity_{lost_n}_lost_{}",
                        if damaged { "damaged" } else { "clean" }
                    ),
                    ok,
                    format!("{lost_n} lost reel(s) under {label} scans restore byte-identically"),
                );
                if !damaged {
                    rec.ms("e15", &format!("restore_{lost_n}_lost_ms"), dt);
                }
            } else {
                let ok = matches!(
                    &res,
                    Err(VaultError::ReelLoss { group: 0, lost: l, recoverable })
                        if *recoverable == m && *l == lost
                );
                println!(
                    "  {lost_n} lost reel(s), {label:<14}: structured ReelLoss={} [{dt:?}]",
                    if ok { "yes" } else { "NO" }
                );
                checks.check(
                    &format!("e15_reel_loss_structured_{}", if damaged { "damaged" } else { "clean" }),
                    ok,
                    format!(
                        "{lost_n} losses (m+1) fail as ReelLoss naming all {lost_n} reels of group 0, \
                         recoverable={m}"
                    ),
                );
            }
        }
    }

    // Degraded-mode selective read: a lost data reel must be rebuilt
    // per-frame — only the offsets the table touches, never the whole reel.
    let data_start = layout.sys_frames() + layout.index_frames();
    let mut picked = None;
    'outer: for table in ["lineitem", "orders", "customer", "partsupp"] {
        let Some(entry) = w.archive.index.find(table) else {
            continue;
        };
        let positions: Vec<usize> = w
            .archive
            .index
            .chunk_range(entry)
            .map(|c| layout.chunk_position(StreamId::Data, c))
            .collect();
        for r in 0..layout.content_reels() {
            if r * layout.reel_capacity < data_start {
                continue;
            }
            let needed = positions
                .iter()
                .filter(|&&p| layout.reel_of(p).0 == r)
                .count();
            if needed > 0 && needed < layout.reel_frames(r) {
                picked = Some((table, r, needed));
                break 'outer;
            }
        }
    }
    let (table, lost, needed) = picked.expect("some table partially covers a data reel");
    let mut scans = w.scans.clone();
    scans[lost] = None;
    let t = Instant::now();
    let (bytes, stats) = w
        .vault
        .restore_table(&w.archive.bootstrap, &scans, table)
        .expect("degraded selective restore");
    let dt = t.elapsed();
    let identical = Some(bytes.as_slice()) == w.expected_table(table);
    println!(
        "  degraded selective ({table}, reel {lost} lost): {} of {} reel frames rebuilt [{dt:?}]",
        stats.frames_reconstructed,
        layout.reel_frames(lost)
    );
    checks.check(
        "e15_degraded_selective",
        identical
            && stats.path == RestorePath::Selective
            && stats.frames_reconstructed == needed
            && stats.frames_reconstructed < layout.reel_frames(lost),
        format!(
            "selective {table} under a lost reel rebuilds exactly {needed} of {} frames",
            layout.reel_frames(lost)
        ),
    );
    rec.int(
        "e15",
        "degraded_frames_rebuilt",
        stats.frames_reconstructed as u64,
    );
    rec.int(
        "e15",
        "degraded_reel_frames",
        layout.reel_frames(lost) as u64,
    );
    rec.ms("e15", "degraded_selective_ms", dt);

    // Scrub -> repair -> scrub convergence: one reel missing, one frame
    // blanked in another; repair rebuilds both as pristine emblems, the
    // second scrub is clean and a second repair is a no-op.
    let mut scans = w.scans.clone();
    scans[0] = None;
    let blank = {
        let f = &scans[1].as_ref().unwrap()[3];
        ule_raster::GrayImage::new(f.width(), f.height(), 255)
    };
    scans[1].as_mut().unwrap()[3] = blank;
    let t = Instant::now();
    let scrub1 = w.vault.scrub(&w.archive.bootstrap, &scans).expect("scrub");
    let (clean, correctable, scrub_lost) = scrub1.counts();
    println!(
        "  scrub: {clean} clean / {correctable} correctable / {scrub_lost} lost reels, \
         {} damaged frames [{:?}]",
        scrub1.damaged_frames(),
        t.elapsed()
    );
    checks.check(
        "e15_scrub_classifies",
        scrub_lost == 1 && correctable == 1 && !scrub1.is_clean(),
        "scrub reports the missing reel lost and the blanked-frame reel correctable".into(),
    );
    let t = Instant::now();
    let repair = w
        .vault
        .repair(&w.archive.bootstrap, &mut scans)
        .expect("repair");
    let t_repair = t.elapsed();
    println!(
        "  repair: {} reels rebuilt, {} frames re-encoded, {} recovery frames decoded [{t_repair:?}]",
        repair.reels_rebuilt.len(),
        repair.frames_reencoded,
        repair.recovery_frames_decoded
    );
    let scrub2 = w
        .vault
        .scrub(&w.archive.bootstrap, &scans)
        .expect("re-scrub");
    let repair2 = w
        .vault
        .repair(&w.archive.bootstrap, &mut scans)
        .expect("re-repair");
    let restored = matches!(
        w.vault.restore_all(&w.archive.bootstrap, &scans),
        Ok((dump, stats)) if dump == w.dump && stats.reels_reconstructed == 0
    );
    checks.check(
        "e15_repair_convergence",
        repair.unrepairable.is_empty() && scrub2.is_clean() && restored,
        "scrub-after-repair is clean and the repaired shelf restores with no reconstruction".into(),
    );
    checks.check(
        "e15_repair_idempotent",
        repair2.is_noop(),
        "a second repair on the repaired shelf is a no-op".into(),
    );
    rec.int(
        "e15",
        "repair_reels_rebuilt",
        repair.reels_rebuilt.len() as u64,
    );
    rec.int(
        "e15",
        "repair_frames_reencoded",
        repair.frames_reencoded as u64,
    );
    rec.ms("e15", "repair_ms", t_repair);

    // Single-parity compatibility: the pre-§16 RS(k+1, k) shape still
    // archives, survives one loss and fails structured at two.
    let classic = Vault::sharded(
        micr_olonys::MicrOlonys::test_tiny(),
        ShardPlan::single_parity(12, 2),
    );
    let dump = ule_tpch::dump_for_scale(0.0001, 7);
    let arc = classic.archive(&dump);
    let pristine = classic.scan_reels(&arc, 7);
    let mut one = pristine.clone();
    one[0] = None;
    let one_ok = matches!(
        classic.restore_all(&arc.bootstrap, &one),
        Ok((d, _)) if d == dump
    );
    let mut two = pristine;
    two[0] = None;
    two[1] = None;
    let two_ok = matches!(
        classic.restore_all(&arc.bootstrap, &two),
        Err(VaultError::ReelLoss {
            group: 0,
            recoverable: 1,
            ..
        })
    );
    checks.check(
        "e15_single_parity_compat",
        one_ok && two_ok,
        "single-parity shelves keep their pre-§16 behaviour (1 loss ok, 2 structured)".into(),
    );
}

/// Rounds of [`time_ab`]: odd, so each side has a true median.
const AB_ROUNDS: usize = 5;

/// Rounds of the `e14_overhead` A/B: its 5 % bound is within the
/// per-round noise of a ~130 ms restore on a shared 2-core runner, so
/// its median ratio needs more rounds than the kernel speedups do.
const E14_ROUNDS: usize = 21;

/// Interleaved A/B wall-clock: `rounds` (odd) rounds, each timing `a` and
/// `b` once with the order alternating round by round (a b, b a, a b, …);
/// returns the median of each side and the median of the per-round
/// ratios `b / a`. Every ratio gate in this report is timed through
/// here: a load change on a shared runner lands on both sides instead of
/// on whichever one happened to run during it, and the medians discard
/// one-off scheduling hiccups. A gate on the ratio itself reads the
/// third value: the two runs of one round are adjacent and share the
/// machine's load, while the two sides' medians may come from rounds
/// under different load.
fn time_ab<A: FnMut(), B: FnMut()>(rounds: usize, mut a: A, mut b: B) -> (Duration, Duration, f64) {
    fn timed(f: &mut dyn FnMut()) -> Duration {
        let t = Instant::now();
        f();
        t.elapsed()
    }
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        if round % 2 == 0 {
            ta.push(timed(&mut a));
            tb.push(timed(&mut b));
        } else {
            tb.push(timed(&mut b));
            ta.push(timed(&mut a));
        }
    }
    let mut ratios: Vec<f64> = ta
        .iter()
        .zip(&tb)
        .map(|(a, b)| b.as_secs_f64() / a.as_secs_f64().max(1e-9))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ta.sort();
    tb.sort();
    (ta[rounds / 2], tb[rounds / 2], ratios[rounds / 2])
}

fn e11_kernels(run: &mut Run) {
    let Run { checks, rec, .. } = run;
    use ule_bench::scalar;
    use ule_emblem::{inner_decode_with, inner_encode};
    use ule_gf256::RsCode;

    println!(
        "\n[E11] Vectorized GF(256)/CRC kernel layer (DESIGN.md §12) — \
         scalar-vs-kernel A/B, retained baselines from ule_bench::scalar"
    );

    // Correctness cross-checks before any timing: the two sides of every
    // A/B must be bit-identical or the ratios are meaningless.
    let buf = ule_bench::random_payload(4 << 20, 0xE11);
    assert_eq!(ule_gf256::crc32(&buf), scalar::crc32_bitwise(&buf));
    assert_eq!(
        ule_gf256::crc16_ccitt(&buf[..65536]),
        scalar::crc16_ccitt_bitwise(&buf[..65536])
    );
    let rs = RsCode::new(255, 223);
    let srs = scalar::ScalarRs::new(255, 223);
    let msgs: Vec<Vec<u8>> = (0..64u64)
        .map(|s| ule_bench::random_payload(223, s + 1))
        .collect();
    for m in &msgs {
        assert_eq!(rs.encode(m), srs.encode(m), "encoders must agree");
    }

    // CRC-32: slice-by-8 vs the original bitwise loop, 4 MiB.
    let (t_bit, t_tab, _) = time_ab(
        AB_ROUNDS,
        || {
            std::hint::black_box(scalar::crc32_bitwise(std::hint::black_box(&buf)));
        },
        || {
            std::hint::black_box(ule_gf256::crc32(std::hint::black_box(&buf)));
        },
    );
    let mbs = |len: usize, d: Duration| len as f64 / 1e6 / d.as_secs_f64().max(1e-9);
    let crc_speedup = t_bit.as_secs_f64() / t_tab.as_secs_f64().max(1e-9);
    println!("  primitive        scalar           kernel           speedup");
    println!(
        "  crc32 (4 MiB)    {:>7.1} MB/s    {:>8.1} MB/s    {crc_speedup:>5.2}x",
        mbs(buf.len(), t_bit),
        mbs(buf.len(), t_tab)
    );

    // RS(255,223) encode: kernel long division vs scalar LFSR. 64
    // messages per pass, enough passes for a stable median.
    let passes = 24usize;
    let enc_bytes = passes * msgs.len() * 223;
    let (t_senc, t_kenc, _) = time_ab(
        AB_ROUNDS,
        || {
            for _ in 0..passes {
                for m in &msgs {
                    std::hint::black_box(srs.encode(std::hint::black_box(m)));
                }
            }
        },
        || {
            for _ in 0..passes {
                for m in &msgs {
                    std::hint::black_box(rs.encode(std::hint::black_box(m)));
                }
            }
        },
    );
    let enc_speedup = t_senc.as_secs_f64() / t_kenc.as_secs_f64().max(1e-9);
    println!(
        "  rs encode        {:>7.1} MB/s    {:>8.1} MB/s    {enc_speedup:>5.2}x",
        mbs(enc_bytes, t_senc),
        mbs(enc_bytes, t_kenc)
    );

    // Clean-frame scan cost on the production medium's geometry: the
    // inner-decode of an undamaged emblem byte stream is a pure syndromes
    // pass (the decode fast path), so this pair is exactly what
    // `Medium::scan_all` + decode pays in RS work per clean frame —
    // kernel `inner_decode_with` vs a faithful replica of the pre-kernel
    // clean path (de-interleave + scalar syndromes per block).
    let geom = ule_media::Medium::microfilm_16mm().geometry;
    let payload = ule_bench::random_payload(geom.payload_capacity(), 0xC1EA);
    let coded = inner_encode(&geom, &payload);
    let nblocks = geom.rs_blocks();
    let (t_sscan, t_kscan, _) = time_ab(
        AB_ROUNDS,
        || {
            // Pre-kernel clean inner-decode, reproduced byte for byte.
            let mut out = Vec::with_capacity(nblocks * 223);
            for b in 0..nblocks {
                let cw: Vec<u8> = (0..255).map(|i| coded[i * nblocks + b]).collect();
                assert!(srs.is_clean(&cw), "clean stream must have zero syndromes");
                out.extend_from_slice(&cw[..223]);
            }
            std::hint::black_box(out);
        },
        || {
            let (out, fixed) =
                inner_decode_with(&geom, &coded, ThreadConfig::Serial).expect("clean decode");
            assert_eq!(fixed, 0);
            std::hint::black_box(out);
        },
    );
    let scan_speedup = t_sscan.as_secs_f64() / t_kscan.as_secs_f64().max(1e-9);
    println!(
        "  clean decode     {:>7.1} MB/s    {:>8.1} MB/s    {scan_speedup:>5.2}x   \
         ({} frame of 16mm microfilm, {nblocks} blocks, syndromes only)",
        mbs(coded.len(), t_sscan),
        mbs(coded.len(), t_kscan),
        1
    );

    rec.num("e11", "crc32_speedup", crc_speedup);
    rec.num("e11", "rs_encode_speedup", enc_speedup);
    rec.num("e11", "clean_scan_speedup", scan_speedup);
    checks.check(
        "e11_crc32_speedup",
        crc_speedup >= 8.0,
        format!("sliced-table CRC-32 is {crc_speedup:.2}x the bitwise baseline (target >= 8x)"),
    );
    checks.check(
        "e11_rs_encode_speedup",
        enc_speedup >= 4.0,
        format!("kernel RS(255,223) encode is {enc_speedup:.2}x the scalar LFSR (target >= 4x)"),
    );
    checks.check(
        "e11_clean_scan_speedup",
        scan_speedup >= 1.5,
        format!(
            "clean-frame inner decode is {scan_speedup:.2}x the pre-kernel scalar path \
             (target >= 1.5x; EXPERIMENTS.md E11 records the measured figure)"
        ),
    );
}

fn e12_emulated_restore(run: &mut Run) {
    // The nested-VeRisc tier is too slow for the default gate run: the
    // section run alone (the CI leg) or `--full` times it.
    let measure_nested = run.full || run.solo;
    let Run { checks, rec, .. } = run;
    use micr_olonys::{EmulationTier, MicrOlonys};
    println!(
        "\n[E12] Parallel emulated restore — pre-decoded DynaRisc engine (DESIGN.md §9) \
         vs native, tiny medium"
    );
    // Same workload as `tests/parallel_identity.rs`'s emulated matrix:
    // pristine frames on the tiny medium, several data emblems.
    let sys = MicrOlonys {
        with_parity: false,
        ..MicrOlonys::test_tiny()
    };
    let dump = ule_tpch::dump_for_scale(0.0001, 2026);
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    println!(
        "  workload: {} byte dump, {} frames ({} system + {} data)",
        dump.len(),
        scans.len(),
        out.system_frames.len(),
        out.data_frames.len()
    );

    // The gated ratio (threaded serial vs native) is one interleaved
    // pair; the other two tiers are timed as a second pair.
    let run_tier = |tier: EmulationTier, threads: ThreadConfig| {
        MicrOlonys::restore_emulated(&text, &scans, tier, threads).expect("emulated restore")
    };
    let (mut ser, mut par, mut int) = (None, None, None);
    let (t_native, t_ser, _) = time_ab(
        AB_ROUNDS,
        || {
            let (r, _) = sys
                .restore_native(&out.data_frames)
                .expect("native restore");
            std::hint::black_box(r);
        },
        || ser = Some(run_tier(EmulationTier::Threaded, ThreadConfig::Serial)),
    );
    let (t_par, t_int, _) = time_ab(
        AB_ROUNDS,
        || par = Some(run_tier(EmulationTier::Threaded, ThreadConfig::Fixed(4))),
        || int = Some(run_tier(EmulationTier::Interpreter, ThreadConfig::Serial)),
    );
    let vsn = |t: Duration| t.as_secs_f64() / t_native.as_secs_f64().max(1e-9);
    let ((b_ser, s_ser), (b_par, s_par), (b_int, s_int)) =
        (ser.unwrap(), par.unwrap(), int.unwrap());

    println!("  tier                      time          vs native");
    println!("  native Rust               {t_native:>12.2?}  1.00x");
    println!(
        "  threaded, serial          {t_ser:>12.2?}  {:.2}x     ({} guest instrs)",
        vsn(t_ser),
        s_ser.guest_steps
    );
    println!(
        "  threaded, 4 threads       {t_par:>12.2?}  {:.2}x",
        vsn(t_par)
    );
    println!(
        "  interpreter, serial       {t_int:>12.2?}  {:.2}x",
        vsn(t_int)
    );

    rec.ms("e12", "native_ms", t_native);
    rec.ms("e12", "threaded_serial_ms", t_ser);
    rec.ms("e12", "threaded_4t_ms", t_par);
    rec.ms("e12", "interpreter_serial_ms", t_int);
    rec.num("e12", "threaded_overhead_vs_native", vsn(t_ser));
    rec.int("e12", "guest_steps", s_ser.guest_steps);
    rec.put(
        "e12",
        "frame_crc32",
        format!("\"{:08x}\"", s_ser.frame_crc32),
    );

    checks.check(
        "e12_threaded_bytes",
        b_ser == dump,
        "threaded-tier emulated restore is bit-exact".into(),
    );
    checks.check(
        "e12_thread_count_identity",
        b_par == b_ser
            && s_par.frame_crc32 == s_ser.frame_crc32
            && s_par.guest_steps == s_ser.guest_steps,
        format!(
            "4-thread run matches serial (bytes, frame crc {:08x}, {} guest instrs)",
            s_ser.frame_crc32, s_ser.guest_steps
        ),
    );
    checks.check(
        "e12_engine_identity",
        b_int == b_ser
            && s_int.frame_crc32 == s_ser.frame_crc32
            && s_int.guest_steps == s_ser.guest_steps,
        "interpreter tier matches threaded tier bit for bit (bytes, crc, fuel)".into(),
    );
    // The throughput claim: a fully emulated restore within one order of
    // the native decoder. Gated unconditionally — the threaded engine's
    // measured overhead (~1.5x, EXPERIMENTS.md E12) leaves room for
    // runner noise.
    checks.check(
        "e12_overhead",
        vsn(t_ser) <= 8.0,
        format!(
            "threaded emulated restore is {:.2}x native (target <= 8x)",
            vsn(t_ser)
        ),
    );

    if measure_nested {
        // PR-6 baseline: before the threaded engine, the only emulated
        // path ran MODecode inside the DynaRisc-in-VeRisc emulator.
        // One timed run — at ~500x native, a median of three buys nothing.
        let t = Instant::now();
        let (b_nested, s_nested) = MicrOlonys::restore_emulated(
            &text,
            &scans,
            EmulationTier::Nested(EngineKind::MatchBased),
            ThreadConfig::Serial,
        )
        .expect("nested restore");
        let t_nested = t.elapsed();
        println!(
            "  nested VeRisc, serial     {t_nested:>12.2?}  {:.0}x      ({} VeRisc instrs)",
            vsn(t_nested),
            s_nested.verisc_steps
        );
        let speedup = t_nested.as_secs_f64() / t_ser.as_secs_f64().max(1e-9);
        println!("  threaded speedup over the nested baseline: {speedup:.0}x");
        rec.ms("e12", "nested_serial_ms", t_nested);
        rec.num("e12", "speedup_vs_nested_baseline", speedup);
        checks.check(
            "e12_nested_identity",
            b_nested == b_ser && s_nested.frame_crc32 == s_ser.frame_crc32,
            "nested tier restores the same bytes and frame crc".into(),
        );
    } else {
        println!(
            "  (nested-VeRisc baseline skipped in the gate run — `--e12` or `--full` times it; \
             EXPERIMENTS.md E12 records the figure)"
        );
    }
}

fn e9_recovery_envelope(run: &mut Run) {
    let Run { full, checks, .. } = run;
    // Severity semantics per model: damaged area fraction (scratches,
    // blotches, tears, spotting), dynamic range lost (fade), fraction of
    // frames lost/displaced (frame-set models) — `ule_fault::models`.
    // Targets sit under the §3.1 7.2% boundary the way E4 calibrated it
    // (area damage decodes bit-exact through 6.0%), at the outer code's
    // any-3-per-group budget for frame loss, and at the full axis for
    // reordering. `DESIGN.md` §10 holds the method.
    println!(
        "\n[E9] Recovery envelope (§3.1 'up to 7.2% damaged data', 'any three missing') — \
         physical fault injection"
    );
    // Quick mode is gate-only (one trial per case, bisect_steps = 0);
    // --full buys the real envelope brackets recorded in EXPERIMENTS.md.
    let bisect = if *full { 5 } else { 0 };
    let campaign = ule_fault::RecoveryEnvelope::new(bisect).with_threads(ThreadConfig::Auto);
    for (slug, medium) in [
        ("paper", Medium::paper_a4_600dpi()),
        ("microfilm", Medium::microfilm_16mm()),
        ("cinema", Medium::cinema_35mm()),
    ] {
        let t = Instant::now();
        let workload = ule_bench::E9Workload::new(medium, 0xE900 + slug.len() as u64);
        let results = campaign.run(&workload.cases());
        println!(
            "  {} — {} scans (2 data + 3 parity), campaign {:?}",
            workload.medium.name,
            workload.scans.len(),
            t.elapsed()
        );
        println!("    model          target  gate  max-ok  min-fail  trials");
        for r in &results {
            let model = r.label.split('/').next_back().unwrap_or(&r.label);
            println!(
                "    {model:<14} {:>5.2}  {}  {:>6.2}  {:>8}  {:>6}",
                r.target,
                if r.target_ok { "ok  " } else { "FAIL" },
                r.max_ok,
                if !r.full_axis() {
                    format!("{:.2}", r.min_fail)
                } else if r.trials > 1 || r.target >= 1.0 {
                    // Genuinely probed across the axis and nothing failed.
                    "none".to_string()
                } else {
                    // Gate-only mode: severities above the target were
                    // never probed, so no failure bound is known.
                    "-".to_string()
                },
                r.trials
            );
        }
        let all_ok = results.iter().all(|r| r.target_ok);
        let failed: Vec<&str> = results
            .iter()
            .filter(|r| !r.target_ok)
            .map(|r| r.label.as_str())
            .collect();
        checks.check(
            &format!("e9_envelope_{slug}"),
            all_ok,
            if all_ok {
                format!(
                    "all {} fault models survive their §3.1-anchored target severities",
                    results.len()
                )
            } else {
                format!("failed targets: {failed:?}")
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(args: &[&str]) -> Result<(Vec<&'static str>, &'static str), String> {
        let args = Args::parse(args.iter().map(|a| a.to_string()))?;
        let names = SECTIONS[args.rows()].iter().map(|(n, _)| *n).collect();
        Ok((names, args.mode()))
    }

    #[test]
    fn arguments_select_section_rows() {
        for (i, (name, _)) in SECTIONS.iter().enumerate() {
            assert!(SECTIONS[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
        // The flags CI passes.
        for name in ["e11", "e12", "e13", "e14", "e15"] {
            assert_eq!(rows(&[&format!("--{name}")]), Ok((vec![name], name)));
        }
        assert_eq!(rows(&["--e13", "--full"]), Ok((vec!["e13"], "e13")));
        // No section flag: every row, in table order.
        let all = [
            "t1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "e15",
        ];
        assert_eq!(rows(&[]), Ok((all.to_vec(), "quick")));
        assert_eq!(rows(&["--full"]), Ok((all.to_vec(), "full")));
        for bad in ["--e16", "--e1l", "e11", "--"] {
            assert!(rows(&[bad]).is_err(), "{bad} must be rejected");
        }
        assert!(rows(&["--e11", "--e12"]).is_err(), "two section flags");
    }
}
