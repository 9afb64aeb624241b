//! CI fuzz smoke campaign: every registered target for its suggested
//! iteration budget, one JSON report, non-zero exit on any failure.
//!
//! ```text
//! fuzz_smoke [--seed N] [--scale PERCENT] [--target NAME] [--out BENCH_fuzz.json]
//! ```
//!
//! `--scale 10` runs 10% of each target's budget (fast local sanity);
//! CI runs the full budget. `--target dynarisc-diff` runs that one target
//! alone (an unknown name exits 2, like an unknown flag), so a leg can
//! run one target deeper: `--target dynarisc-diff --scale 1000` is ten
//! times its suggested budget. The per-target wall-clock ceiling turns a
//! hang into a failed leg instead of a stuck runner.

use std::time::Duration;
use ule_fuzz::{all_targets, fuzz_target, FuzzOutcome};

/// Per-target wall-clock ceiling. Generous for the image-decode targets;
/// a clean campaign finishes far below it.
const TARGET_BUDGET: Duration = Duration::from_secs(120);

fn main() {
    let mut seed: u64 = 0x001E_2026;
    let mut scale: u64 = 100;
    let mut out_path = String::from("BENCH_fuzz.json");
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed").parse().expect("--seed: u64"),
            "--scale" => scale = value("--scale").parse().expect("--scale: percent"),
            "--target" => only = Some(value("--target")),
            "--out" => out_path = value("--out"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut targets = all_targets();
    if let Some(name) = &only {
        targets.retain(|t| t.name() == name);
        if targets.is_empty() {
            eprintln!("unknown target: {name}");
            std::process::exit(2);
        }
    }
    let mut reports = Vec::new();
    let mut failed = false;
    for target in &targets {
        let iterations = (target.suggested_iterations() * scale / 100).max(1);
        let report = fuzz_target(target.as_ref(), seed, iterations, TARGET_BUDGET);
        let status = match report.outcome {
            FuzzOutcome::Clean => "clean",
            FuzzOutcome::Panicked => "PANIC",
            FuzzOutcome::TimedOut => "TIMEOUT",
        };
        eprintln!(
            "{:<18} {:>8} iters  {:>10.0} iters/s  {}",
            report.name,
            report.iterations,
            report.iters_per_sec(),
            status
        );
        if let Some(f) = &report.failure {
            failed = true;
            eprintln!(
                "  seed {} iteration {}: {}\n  minimized input ({} bytes): {:02x?}",
                report.seed,
                f.iteration,
                f.message,
                f.input.len(),
                f.input
            );
        }
        if report.outcome == FuzzOutcome::TimedOut {
            failed = true;
        }
        reports.push(report);
    }

    let total: u64 = reports.iter().map(|r| r.iterations).sum();
    eprintln!("total: {total} iterations across {} targets", reports.len());

    // Hand-rolled JSON (no serde in the workspace): flat and line-oriented
    // so the report gate can parse it with a few string finds.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"total_iterations\": {total},\n"));
    json.push_str("  \"targets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let outcome = match r.outcome {
            FuzzOutcome::Clean => "clean",
            FuzzOutcome::Panicked => "panic",
            FuzzOutcome::TimedOut => "timeout",
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iterations\": {}, \"elapsed_s\": {:.3}, \"iters_per_s\": {:.1}, \"outcome\": \"{}\"}}{}\n",
            r.name,
            r.iterations,
            r.elapsed.as_secs_f64(),
            r.iters_per_sec(),
            outcome,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("report: {out_path}");

    if failed {
        std::process::exit(1);
    }
}
