//! Cross-crate integration: the full Figure 2 pipeline on the TPC-H
//! substrate, spanning tpch → compress → emblem → media → core.

use ule::compress::Scheme;
use ule::olonys::MicrOlonys;
use ule::par::ThreadConfig;

/// The tiny system on the worker pool `ULE_TEST_THREADS` names: CI runs
/// this suite serial and at 4 threads, and the restored bytes
/// must not notice.
fn tiny() -> MicrOlonys {
    MicrOlonys::test_tiny().with_threads(ThreadConfig::from_env_or(ThreadConfig::Serial))
}

#[test]
fn tpch_dump_archives_and_restores_bit_exact() {
    let dump = ule::tpch::dump_for_scale(0.00005, 11);
    assert!(dump.len() > 5_000);
    let system = tiny();
    let out = system.archive(&dump);
    let scans = system.medium.scan_all(&out.data_frames, 4242);
    let (restored, _) = system.restore_native(&scans).expect("restore");
    assert_eq!(restored, dump);

    // The restored artifact is a loadable database, not just bytes.
    let db = ule::tpch::parse_dump(&restored).expect("parse");
    let original = ule::tpch::parse_dump(&dump).expect("parse original");
    assert_eq!(db, original);
}

#[test]
fn all_schemes_survive_the_media_path() {
    let dump = ule::tpch::dump_for_scale(0.00002, 3);
    for scheme in Scheme::ALL {
        let system = MicrOlonys { scheme, ..tiny() };
        let out = system.archive(&dump);
        let scans = system.medium.scan_all(&out.data_frames, 7 + scheme as u64);
        let (restored, _) = system.restore_native(&scans).expect("restore");
        assert_eq!(restored, dump, "scheme {scheme}");
    }
}

#[test]
fn archive_stats_are_consistent() {
    let dump = ule::tpch::dump_for_scale(0.00005, 5);
    let system = MicrOlonys::test_tiny();
    let out = system.archive(&dump);
    assert_eq!(out.stats.dump_bytes, dump.len());
    assert!(out.stats.archive_bytes > 0);
    let cap = system.medium.geometry.payload_capacity();
    assert_eq!(
        out.stats.data_emblems,
        out.stats.archive_bytes.div_ceil(cap)
    );
    let per_frame = out.stats.density_per_frame;
    assert!((per_frame - dump.len() as f64 / out.stats.data_emblems as f64).abs() < 1.0);
}

#[test]
fn damaged_and_missing_media_still_restore() {
    // Combine the §3.1 protections: dusty scans AND a lost frame.
    let dump = ule::tpch::dump_for_scale(0.0001, 9);
    let system = MicrOlonys::test_tiny();
    let out = system.archive(&dump);
    assert!(out.data_frames.len() >= 4);
    let mut scans = Vec::new();
    for (i, f) in out.data_frames.iter().enumerate() {
        if i == 1 {
            continue; // this frame is lost forever
        }
        scans.push(system.medium.scan_with_severity(f, 33 + i as u64, 1.5));
    }
    let (restored, stats) = system.restore_native(&scans).expect("restore");
    assert_eq!(restored, dump);
    assert_eq!(stats.emblems_recovered, 1);
}
