//! Archive/restore benchmark for Micr'Olonys / ULE.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <film-read|shelf-mix|archive-roundtrip> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. Set-up (dump, archive, print,
//! scan) runs [`SETUPS`] times (film-read: twice, its set-up being the
//! slowest) and may fan out over the available cores;
//! then one untimed warm-up round and closed-loop timed rounds (one client,
//! no think time) on `ThreadConfig::Serial` until `--seconds` have passed.
//! Every timed operation is checked against an oracle; wrong bytes abort
//! the run with a non-zero exit code. The gated timings are scaled by the
//! speed probe timed after every operation (see `speed`).
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replaces the
//! timed rounds by traced rounds that time each public layer call from the
//! outside and report the per-layer metrics. Human-readable detail goes to
//! standard output first; the last line is one JSON object.

mod film;
mod layers;
mod roundtrip;
mod shelf;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use ule::par::ThreadConfig;

/// Base seed of the decay ladders' fault placement (xor the rung index).
pub const LADDER_FAULT_SEED: u64 = 0xD1CE_0000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run `setup` `n` times, keeping the last state; returns it with every
/// set-up's wall time in seconds (the previous state is dropped before
/// the next set-up starts, so at most one is alive).
pub fn repeat_setup<S>(n: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut state = None;
    for _ in 0..n.max(1) {
        drop(state.take());
        let (s, ms) = timed(&mut setup);
        times.push(ms / 1e3);
        state = Some(s);
    }
    println!("setup_s samples: {times:?}");
    (state.expect("at least one set-up"), times)
}

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("archive_mb_s", "MB/s"),
    ("restore_frames_per_s", "frames/s"),
    ("read_frames_per_s", "frames/s"),
    ("decayed_ok_ratio", "ratio"),
    ("decayed_frames_per_s", "frames/s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("raster.threshold_ms", "ms"),
    ("emblem.locate_ms", "ms"),
    ("emblem.edge_map_ms", "ms"),
    ("emblem.sample_cells_ms", "ms"),
    ("emblem.decode_ms", "ms"),
    ("gf256.inner_rs_ms", "ms"),
    ("gf256.corrected_symbols", "count"),
    ("emblem.sync_errors", "count"),
    ("emblem.frame_fail_ratio", "ratio"),
    ("emblem.erasure_frames", "count"),
    ("emblem.outer_recovery_ms", "ms"),
    ("emblem.encode_ms", "ms"),
    ("media.print_ms", "ms"),
    ("media.scan_ms", "ms"),
    ("compress.compress_ms", "ms"),
    ("compress.decompress_ms", "ms"),
    ("core.make_bootstrap_ms", "ms"),
    ("core.bootstrap_parse_ms", "ms"),
    ("dynarisc.dbdecode_ms", "ms"),
    ("dynarisc.guest_steps", "count"),
    ("dynarisc.guest_mips", "MIPS"),
    ("read.overhead_ms", "ms"),
    ("read.frames_per_read", "count"),
    ("read.selectivity", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The worker pool set-up may use: at most the machine's core count.
/// Measured phases always run [`ThreadConfig::Serial`].
pub fn setup_threads() -> ThreadConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ThreadConfig::Fixed(cores)
}

/// Run `f`, returning its result and the wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A wrong-bytes verdict: the run is aborted.
pub type Wrong = String;

/// One kind of timed operation: its latencies and the work each op moves.
#[derive(Default)]
struct Kind {
    ms: Vec<f64>,
    /// Frames or bytes one op of this kind moves.
    amount: f64,
}

/// Everything a timed run accumulates for the end-to-end report.
///
/// Operations are recorded per class (`archive`, `restore`, `read`,
/// `degraded`, …) and kind (medium, table, query and parameter, ladder
/// rung). On a shared machine a run's latencies drift with the load of
/// its neighbours by tens of percent, and the lower decile of each kind
/// is what stays put, so gated figures are built from per-kind lower
/// deciles (see `stats::low_decile`). They are work per second, so inputs
/// that differ a little in size between seeds compare. Medians and tails
/// of every kind are printed. A phase of machine load that lasts the whole
/// run moves every lower decile alike; the speed probe timed after each
/// op (see `speed`) scales it out.
#[derive(Default)]
pub struct Tally {
    /// Structured errors from operations expected to succeed (intact
    /// media, degraded reads within the parity budget). Restores on the
    /// decay ladder may fail by design and count in `decayed_*` instead.
    pub failed: u64,
    pub decayed_ok: u64,
    pub decayed_total: u64,
    ops: BTreeMap<(&'static str, String), Kind>,
    /// Wall time of the speed probe after each op (ms).
    probe_ms: Vec<f64>,
}

impl Tally {
    /// Record one timed op of `class`/`kind` that moved `amount` frames
    /// or bytes, then time the speed probe once.
    pub fn op(&mut self, class: &'static str, kind: impl Into<String>, ms: f64, amount: f64) {
        let k = self.ops.entry((class, kind.into())).or_default();
        k.ms.push(ms);
        k.amount = amount;
        self.probe_ms.push(speed::probe_ms());
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|k| k.ms.len() as u64).sum()
    }

    /// Every latency of `class` whose kind passes `pick`.
    pub fn samples(&self, class: &str, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|((c, k), _)| *c == class && pick(k))
            .flat_map(|(_, k)| k.ms.iter().copied())
            .collect()
    }

    fn kinds<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a Kind> + 'a {
        self.ops
            .iter()
            .filter(move |((c, _), _)| *c == class)
            .map(|(_, k)| k)
    }

    /// Work per second at lower-decile latency: Σ amount / Σ latency over
    /// the class's kinds.
    pub fn rate(&self, class: &str) -> f64 {
        let (amount, ms) = self.kinds(class).fold((0.0, 0.0), |(a, m), k| {
            (a + k.amount, m + stats::low_decile(&k.ms))
        });
        amount / (ms / 1e3)
    }
}

/// Print a workload-specific figure by name (not part of the JSON).
pub fn print_named(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value:.3} {unit}");
}

/// Print `<prefix>_p50_ms` and `<prefix>_tail_ms` of a latency sample,
/// with the tail's percentile and the sample count.
pub fn print_latency(prefix: &str, samples: &[f64]) {
    if let Some(s) = stats::Summary::of(samples) {
        print_named(&format!("{prefix}_p50_ms"), s.p50, "ms");
        match s.tail {
            Some((pct, v)) => println!("metric {prefix}_tail_ms {v:.3} ms (p{pct:.0}, n={})", s.n),
            None => println!("metric {prefix}_tail_ms n/a (n={} < 11)", s.n),
        }
    }
}

/// The result of one run: the final JSON line's content.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// End-to-end report from `setups` (seconds) and the timed tally;
    /// `read` names the class behind `read_frames_per_s`.
    pub fn end_to_end(setups: &[f64], t: &Tally, read: &str) -> Report {
        println!("-- operations: latency (ms) per class/kind --");
        for ((class, kind), k) in &t.ops {
            if let Some(s) = stats::Summary::of(&k.ms) {
                println!(
                    "{:<34} amount {:>9}  p10 {:>9.3}  {}",
                    format!("{class}/{kind}"),
                    k.amount,
                    stats::low_decile(&k.ms),
                    s.describe("ms")
                );
            }
        }
        let classes: std::collections::BTreeSet<&str> = t.ops.keys().map(|(c, _)| *c).collect();
        for class in classes {
            println!("{class:<34} {:.3} units/s at per-kind p10", t.rate(class));
        }
        // Machine speed of this run relative to the reference: above 1 on
        // a slower machine (or phase), where the raw figures read worse.
        let slowdown = stats::low_decile(&t.probe_ms) / speed::REFERENCE_MS;
        let raw = [
            ("setup_s", stats::median(setups)),
            ("archive_mb_s", t.rate("archive") / 1e6),
            ("restore_frames_per_s", t.rate("restore")),
            ("read_frames_per_s", t.rate(read)),
            ("decayed_frames_per_s", t.rate("degraded")),
        ];
        println!(
            "speed probe: p10 {:.3} ms over {} probes (reference {} ms), slowdown {slowdown:.4}",
            stats::low_decile(&t.probe_ms),
            t.probe_ms.len(),
            speed::REFERENCE_MS
        );
        let attempted = t.attempted();
        let mut m = BTreeMap::new();
        for (name, v) in raw {
            // Set-up time scales down with the slowdown, rates up.
            let scaled = if name == "setup_s" {
                v / slowdown
            } else {
                v * slowdown
            };
            println!("{name}: raw {v:.4}, scaled to the reference speed {scaled:.4}");
            m.insert(name, scaled);
        }
        m.insert(
            "decayed_ok_ratio",
            t.decayed_ok as f64 / t.decayed_total.max(1) as f64,
        );
        m.insert(
            "ok_ratio",
            (attempted - t.failed) as f64 / attempted.max(1) as f64,
        );
        println!(
            "failed_ratio {:.4} ({} of {attempted} ops returned a structured error outside the decay ladder)",
            t.failed as f64 / attempted.max(1) as f64,
            t.failed,
        );
        Report {
            attempted,
            failed: t.failed,
            metrics: m,
        }
    }

    /// The final JSON line, metrics in `spec` order.
    fn json(&self, spec: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(spec.len());
        for (name, unit) in spec {
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Run the timed loop: `round` until `seconds` have elapsed (at least
/// once). Callers run their untimed warm-up first.
pub fn closed_loop(
    seconds: f64,
    mut round: impl FnMut() -> Result<(), Wrong>,
) -> Result<usize, Wrong> {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        round()?;
        rounds += 1;
    }
    println!(
        "timed rounds: {rounds} in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    Ok(rounds)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (setup threads: {:?}, measured: Serial)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup_threads()
    );
    let result = match args.workload.as_str() {
        "film-read" => film::run(&args),
        "shelf-mix" => shelf::run(&args),
        "archive-roundtrip" => roundtrip::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    match result.and_then(|r| r.json(spec)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
