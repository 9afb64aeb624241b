//! The paper's §4 "Paper archive" experiment (E1): archive a TPC-H dump
//! to A4 pages at 600 dpi and restore it from simulated scans.
//!
//! ```sh
//! cargo run --release --example paper_archive            # quick (SF 0.0002)
//! cargo run --release --example paper_archive -- --full  # SF 0.001, ~1.2 MB
//! ```

use std::time::Instant;
use ule::media::Medium;
use ule::olonys::MicrOlonys;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 0.00115 } else { 0.0002 };

    println!("generating TPC-H at SF {scale} and dumping (pg_dump style)...");
    let dump = ule::tpch::dump_for_scale(scale, 42);
    println!("dump: {} bytes (paper used ~1.2 MB)", dump.len());

    let system = MicrOlonys::paper_default();
    let medium = Medium::paper_a4_600dpi();

    let t0 = Instant::now();
    let out = system.archive(&dump);
    let encode_time = t0.elapsed();
    println!(
        "encoded into {} data emblems (+{} parity/system frames) in {:.1?}",
        out.stats.data_emblems,
        out.data_frames.len() - out.stats.data_emblems + out.system_frames.len(),
        encode_time
    );
    println!(
        "density: {:.1} KB of source per A4 page (paper: ~50 KB/page with 26 pages)",
        out.stats.density_per_frame / 1000.0
    );
    println!(
        "note: with DBCoder's {} compression the page count drops below the\n\
         paper's 26 — they reported raw-payload pages; see EXPERIMENTS.md E1.",
        system.scheme
    );

    println!("scanning pages with the laser print+scan degradation model...");
    let t1 = Instant::now();
    let scans = medium.scan_all(&out.data_frames, 600, system.threads);
    let (restored, stats) = system.restore_native(&scans).expect("restore");
    let decode_time = t1.elapsed();
    assert_eq!(restored, dump, "round trip must be bit-exact");
    println!(
        "restored {} bytes bit-exact in {:.1?} ({} bytes RS-corrected)",
        restored.len(),
        decode_time,
        stats.rs_corrected
    );

    // And the database itself survives semantically:
    let db = ule::tpch::parse_dump(&restored).expect("parse restored dump");
    let orders = db.table("orders").expect("orders table");
    println!(
        "restored database: {} tables, {} orders rows, SUM(o_totalprice) = {} cents",
        db.tables.len(),
        orders.rows.len(),
        orders.sum_cents("o_totalprice").unwrap()
    );
}
