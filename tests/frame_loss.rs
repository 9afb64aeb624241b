//! Frame-loss and frame-reorder recovery: the §3.1 outer-code budget
//! exercised with *whole frames* removed or shuffled — the failure shapes
//! of lost pages and spliced reels — across both restoration paths.
//!
//! Below the redundancy budget restore must be bit-exact; above it the
//! failure must be the structured [`RestoreError::FrameLoss`] /
//! [`StreamError::FrameLoss`] naming the absent global emblem indices —
//! never a panic, never a hang, never silent garbage. The worker pool is
//! taken from `ULE_TEST_THREADS`, so the CI matrix runs this file serial
//! and 4-threaded.

use ule::emblem::{decode_stream_traced, encode_stream_traced, EmblemKind, StreamError};
use ule::fault::{FaultPlan, FrameLossFault, FrameReorderFault};
use ule::media::Medium;
use ule::obs::Telemetry;
use ule::olonys::{EmulationTier, MicrOlonys, RestoreError};
use ule::par::ThreadConfig;
use ule::raster::GrayImage;

fn threads() -> ThreadConfig {
    ThreadConfig::from_env_or(ThreadConfig::Serial)
}

/// A dump big enough for two outer-code groups on the tiny medium.
fn two_group_dump() -> Vec<u8> {
    ule::tpch::dump_for_scale(0.0001, 77)
}

fn drop_frames(frames: &[GrayImage], victims: &[usize]) -> Vec<GrayImage> {
    frames
        .iter()
        .enumerate()
        .filter(|(i, _)| !victims.contains(i))
        .map(|(_, f)| f.clone())
        .collect()
}

#[test]
fn loss_below_budget_restores_bit_exact_per_group() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let n = out.data_frames.len();
    assert!(n > 20, "want at least two groups, got {n} frames");
    let scans = sys.medium.scan_all_with(&out.data_frames, 41, threads());

    // Three whole frames gone from group 0 (the outer code's exact
    // budget), plus one from the tail group.
    for victims in [vec![0usize, 7, 19], vec![2, 10, 16], vec![n - 1, 3, 11]] {
        let kept = drop_frames(&scans, &victims);
        let (restored, stats) = sys
            .restore_native(&kept)
            .unwrap_or_else(|e| panic!("victims {victims:?}: {e}"));
        assert_eq!(restored, dump, "victims {victims:?}");
        // At least the lost *data* emblems were rebuilt (parity victims
        // don't need rebuilding).
        assert!(stats.emblems_recovered >= 1, "victims {victims:?}");
    }
}

#[test]
fn loss_above_budget_fails_with_named_frames() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all_with(&out.data_frames, 42, threads());

    // Four frames from group 0: one past the any-3 budget.
    let victims = [1usize, 4, 9, 13];
    let kept = drop_frames(&scans, &victims);
    match sys.restore_native(&kept) {
        Err(RestoreError::FrameLoss {
            kind,
            expected,
            found,
            missing,
        }) => {
            assert_eq!(kind, EmblemKind::Data);
            assert_eq!(expected, 20, "group 0 holds 17 data + 3 parity");
            assert_eq!(found, 16);
            assert_eq!(missing, vec![1, 4, 9, 13]);
        }
        other => panic!("expected FrameLoss, got {other:?}"),
    }
}

#[test]
fn shuffled_scans_restore_bit_exact() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all_with(&out.data_frames, 43, threads());

    // Full-severity reorder: every frame displaced (spliced-reel chaos).
    let shuffled = FaultPlan::single(FrameReorderFault).apply(&scans, 1.0, 99);
    assert_eq!(shuffled.len(), scans.len());
    assert_ne!(shuffled, scans, "shuffle must actually move frames");
    let (restored, _) = sys.restore_native(&shuffled).expect("reordered restore");
    assert_eq!(restored, dump);
}

#[test]
fn loss_and_reorder_combined_stay_within_budget() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all_with(&out.data_frames, 44, threads());
    let n = scans.len();

    // The canonical frame-set models at a severity that keeps every
    // group under the any-3 budget: floor(0.08 * n) frames lost overall.
    let plan = FaultPlan::new()
        .with(FrameLossFault)
        .with(FrameReorderFault);
    let faulted = plan.apply(&scans, 0.08, 7);
    assert!(faulted.len() < n);
    let (restored, _) = sys.restore_native(&faulted).expect("combined faults");
    assert_eq!(restored, dump);
}

#[test]
fn production_geometry_stream_loss_matrix() {
    // The same budget at the stream layer on all three §4 production
    // geometries: 2 data + 3 parity emblems; any 3 lost is recoverable,
    // 4 lost must fail as a clean FrameLoss naming the victims.
    let off = Telemetry::off();
    for medium in [
        Medium::paper_a4_600dpi(),
        Medium::microfilm_16mm(),
        Medium::cinema_35mm(),
    ] {
        let geom = medium.geometry;
        let payload: Vec<u8> = (0..geom.payload_capacity() + 500)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(5))
            .collect();
        let images = encode_stream_traced(&geom, EmblemKind::Data, &payload, true, threads(), &off);
        assert_eq!(images.len(), 5, "{}", medium.name);

        let kept = drop_frames(&images, &[0, 2, 4]);
        let (restored, stats) = decode_stream_traced(&geom, &kept, threads(), &off)
            .unwrap_or_else(|e| panic!("{}: 3 lost of 5 must restore: {e}", medium.name));
        assert_eq!(restored, payload, "{}", medium.name);
        // Victims 0/2/4 are one data and two parity emblems; only the
        // data emblem needs rebuilding.
        assert_eq!(stats.emblems_recovered, 1, "{}", medium.name);

        let kept = drop_frames(&images, &[0, 1, 2, 3]);
        match decode_stream_traced(&geom, &kept, threads(), &off) {
            Err(StreamError::FrameLoss {
                group,
                expected,
                found,
                missing,
            }) => {
                assert_eq!(group, 0, "{}", medium.name);
                assert_eq!(expected, 5, "{}", medium.name);
                assert_eq!(found, 1, "{}", medium.name);
                assert_eq!(missing, vec![0, 1, 2, 3], "{}", medium.name);
            }
            other => panic!("{}: expected FrameLoss, got {other:?}", medium.name),
        }
    }
}

#[test]
fn emulated_path_reports_lost_frames_and_survives_shuffles() {
    // The emulated path (no outer-code recovery) must name missing frames
    // instead of splicing a garbled stream — and must not care about scan
    // order at all.
    let sys = MicrOlonys {
        medium: Medium::test_micro(),
        with_parity: false,
        ..MicrOlonys::test_tiny()
    };
    let dump = b"COPY t (a) FROM stdin;\n1\n2\n3\n4\n5\n\\.\n".to_vec();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let n_sys = out.system_frames.len();
    assert!(n_sys >= 2, "want a multi-emblem system stream, got {n_sys}");

    // A seeded full shuffle of system + data together must restore.
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    let shuffled = FaultPlan::single(FrameReorderFault).apply(&scans, 1.0, 3);
    let (restored, _) =
        MicrOlonys::restore_emulated(&text, &shuffled, EmulationTier::Threaded, threads())
            .expect("shuffled emulated restore");
    assert_eq!(restored, dump);

    // Losing the last system frame names it.
    let mut scans = drop_frames(&out.system_frames, &[n_sys - 1]);
    scans.extend(out.data_frames.iter().cloned());
    match MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, threads()) {
        Err(RestoreError::FrameLoss {
            kind,
            expected,
            found,
            missing,
        }) => {
            assert_eq!(kind, EmblemKind::System);
            assert_eq!(expected, n_sys);
            assert_eq!(found, n_sys - 1);
            assert_eq!(missing, vec![n_sys - 1]);
        }
        other => panic!("expected system FrameLoss, got {other:?}"),
    }

    // Losing the only data frame names it too.
    let scans = out.system_frames.clone();
    match MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, threads()) {
        Err(RestoreError::FrameLoss { kind, missing, .. }) => {
            assert_eq!(kind, EmblemKind::Data);
            assert_eq!(missing, vec![0]);
        }
        other => panic!("expected data FrameLoss, got {other:?}"),
    }
}

#[test]
fn emulated_path_ignores_parity_frames_in_the_pile() {
    // An archive written with the outer code on hands the restorer parity
    // emblems too; the sequential walkthrough must skip them (and the
    // Bootstrap's outer line must teach it the index layout).
    let sys = MicrOlonys {
        medium: Medium::test_micro(),
        ..MicrOlonys::test_tiny()
    };
    let dump = b"COPY t (a) FROM stdin;\n9\n8\n\\.\n".to_vec();
    let out = sys.archive(&dump);
    assert!(out.bootstrap.outer_parity);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    scans.reverse();
    let (restored, _) =
        MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, threads())
            .expect("parity-bearing emulated restore");
    assert_eq!(restored, dump);
}
