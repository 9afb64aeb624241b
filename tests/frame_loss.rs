//! Frame-loss and frame-reorder recovery: the §3.1 outer-code budget
//! exercised with *whole frames* removed or shuffled — the failure shapes
//! of lost pages and spliced reels — across both restoration paths.
//!
//! Below the redundancy budget restore must be bit-exact; above it the
//! failure must be the structured [`RestoreError::FrameLoss`] /
//! [`StreamError::FrameLoss`] naming the absent global emblem indices —
//! never a panic, never a hang, never silent garbage. The worker pool is
//! taken from `ULE_TEST_THREADS`, so CI runs this file serial and
//! 4-threaded.

use proptest::prelude::*;
use std::sync::OnceLock;
use ule::emblem::{
    decode_stream, decode_stream_traced, encode_emblem, encode_stream, EmblemHeader, EmblemKind,
    StreamError,
};
use ule::fault::{FaultPlan, FrameLossFault, FrameReorderFault};
use ule::media::Medium;
use ule::obs::Telemetry;
use ule::olonys::{ArchiveOutput, EmulationTier, MicrOlonys, RestoreError};
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
    let scans = sys.medium.scan_all(&out.data_frames, 41, threads());

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
    let scans = sys.medium.scan_all(&out.data_frames, 42, threads());

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
    let scans = sys.medium.scan_all(&out.data_frames, 43, threads());

    // Full-severity reorder: every frame displaced (spliced-reel chaos).
    let shuffled = FaultPlan::single(FrameReorderFault).apply(&scans, 1.0, 99);
    assert_eq!(shuffled.len(), scans.len());
    assert_ne!(shuffled, scans, "shuffle must actually move frames");
    let (restored, _) = sys.restore_native(&shuffled).expect("reordered restore");
    assert_eq!(restored, dump);
}

/// A frame spliced in from another archive names another stream length.
/// The length most frames carry wins, the stray counts as a failed scan,
/// and the outer code rebuilds the chunk it displaced.
#[test]
fn frame_spliced_from_another_archive_is_a_failed_scan() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let a = sys.archive(&dump);
    let b = sys.archive(&ule::tpch::dump_for_scale(0.00005, 78));
    let mut frames = a.data_frames.clone();
    frames[1] = b.data_frames[1].clone();
    let scans = sys.medium.scan_all(&frames, 45, threads());

    let (restored, _) = sys.restore_native(&scans).expect("spliced restore");
    assert_eq!(restored, dump);
    let (_, stats) =
        decode_stream_traced(&sys.medium.geometry, &scans, threads(), &Telemetry::off())
            .expect("spliced stream");
    assert!(stats.failed_scans >= 1, "{stats:?}");
    assert!(stats.emblems_recovered >= 1, "{stats:?}");
}

#[test]
fn loss_and_reorder_combined_stay_within_budget() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all(&out.data_frames, 44, threads());
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
        let images = encode_stream(&geom, EmblemKind::Data, &payload, true);
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

    // Without a single system frame there is no decoder to run.
    match MicrOlonys::restore_emulated(&text, &out.data_frames, EmulationTier::Threaded, threads())
    {
        Err(RestoreError::NoDecoder) => {}
        other => panic!("expected NoDecoder, got {other:?}"),
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

/// A one-column COPY dump of `rows` seeded pseudo-random numbers, so it
/// does not compress away: a small archive of a chosen frame count on
/// the micro medium (600 rows fill 16 data frames).
fn copy_dump(rows: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    let mut dump = b"COPY t (a) FROM stdin;\n".to_vec();
    for _ in 0..rows {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        dump.extend_from_slice(format!("{}\n", x >> 40).as_bytes());
    }
    dump.extend_from_slice(b"\\.\n");
    dump
}

fn micro(with_parity: bool) -> MicrOlonys {
    MicrOlonys {
        medium: Medium::test_micro(),
        with_parity,
        ..MicrOlonys::test_tiny()
    }
    .with_threads(threads())
}

/// A one-frame archive's data frame among another archive's frames
/// cannot set the emulated path's stream length: the length vote the
/// native decoder takes settles it there too, whether the foreign frame
/// comes first or last in the pile.
#[test]
fn emulated_path_votes_the_stream_length_like_native() {
    let sys = micro(false);
    let dump = copy_dump(600, 5);
    let a = sys.archive(&dump);
    let b = sys.archive(&copy_dump(10, 6));
    assert!(a.data_frames.len() > 2, "{}", a.data_frames.len());
    assert_eq!(b.data_frames.len(), 1);
    let text = a.bootstrap.to_text();
    let foreign = b.data_frames[0].clone();
    let mut first = vec![foreign.clone()];
    first.extend(a.data_frames.iter().cloned());
    let mut last = a.data_frames.clone();
    last.push(foreign);
    for (order, data) in [("first", first), ("last", last)] {
        let mut pile = a.system_frames.clone();
        pile.extend(data.iter().cloned());
        for tier in [EmulationTier::Threaded, EmulationTier::Interpreter] {
            let (restored, _) = MicrOlonys::restore_emulated(&text, &pile, tier, threads())
                .unwrap_or_else(|e| panic!("foreign frame {order}, {tier:?}: {e}"));
            assert!(
                restored == dump,
                "foreign frame {order}, {tier:?}: wrong bytes"
            );
        }
        let (restored, _) = sys.restore_native(&data).expect("native restore");
        assert!(restored == dump, "foreign frame {order}: native bytes");
    }
}

/// Data emission `e` (of group 0) of an archive, forged: a CRC-valid
/// header promising five bytes less than the slot carries, over the
/// first that many bytes of the real chunk.
fn forge_short_chunk(sys: &MicrOlonys, data_frames: &[GrayImage], e: usize) -> GrayImage {
    let geom = sys.medium.geometry;
    let (archive, _) = decode_stream(&geom, data_frames).expect("pristine stream");
    let cap = geom.payload_capacity();
    let short = cap - 5;
    let header = EmblemHeader::new(
        EmblemKind::Data,
        e as u16,
        0,
        short as u32,
        archive.len() as u32,
    );
    sys.medium.print(&encode_emblem(
        &geom,
        &header,
        &archive[e * cap..e * cap + short],
    ))
}

/// A frame whose header is not exactly the one stamped at its index —
/// here a forged payload length — takes no slot: the native decoder
/// counts it as a failed scan and rebuilds the chunk through the outer
/// code, and the emulated path (no outer code) names it as lost.
#[test]
fn forged_payload_length_is_a_failed_scan() {
    let sys = MicrOlonys::test_tiny().with_threads(threads());
    let dump = two_group_dump();
    let out = sys.archive(&dump);
    let mut frames = out.data_frames.clone();
    frames[1] = forge_short_chunk(&sys, &out.data_frames, 1);
    let (restored, _) = sys.restore_native(&frames).expect("forged-frame restore");
    assert!(restored == dump, "native bytes");
    let (_, stats) =
        decode_stream_traced(&sys.medium.geometry, &frames, threads(), &Telemetry::off())
            .expect("forged-frame stream");
    assert!(stats.failed_scans >= 1, "{stats:?}");
    assert!(stats.emblems_recovered >= 1, "{stats:?}");

    let sys = micro(false);
    let out = sys.archive(&copy_dump(300, 7));
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    scans[out.system_frames.len() + 1] = forge_short_chunk(&sys, &out.data_frames, 1);
    let text = out.bootstrap.to_text();
    match MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, threads()) {
        Err(RestoreError::FrameLoss {
            kind,
            expected,
            found,
            missing,
        }) => {
            assert_eq!(kind, EmblemKind::Data);
            assert_eq!((expected, found), (out.data_frames.len(), expected - 1));
            assert_eq!(missing, vec![1]);
        }
        other => panic!("expected FrameLoss, got {other:?}"),
    }
}

/// One archive of the pile differential: its dump, its frames and the
/// data frames of another archive to splice in.
struct DiffArchive {
    sys: MicrOlonys,
    dump: Vec<u8>,
    out: ArchiveOutput,
    foreign: Vec<GrayImage>,
}

/// The differential's archives on the micro medium: two outer groups
/// with parity, and one dense stream without.
fn diff_archives() -> &'static [DiffArchive; 2] {
    static ARCHIVES: OnceLock<[DiffArchive; 2]> = OnceLock::new();
    ARCHIVES.get_or_init(|| {
        [(true, 800), (false, 300)].map(|(with_parity, rows)| {
            let sys = micro(with_parity).with_threads(ThreadConfig::Serial);
            let dump = copy_dump(rows, rows as u64);
            let out = sys.archive(&dump);
            let foreign = sys.archive(&copy_dump(rows / 3, 9)).data_frames;
            DiffArchive {
                sys,
                dump,
                out,
                foreign,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Native and emulated restore of one faulted pile agree: frame loss,
    /// reorder, a duplicated frame or a foreign splice on an archive's
    /// data frames (the emulated path also gets the system frames). An
    /// emulated `Ok` is native's `Ok` with the same, right bytes; a
    /// native failure is an emulated failure; the emulated path may
    /// report `FrameLoss` where native recovers through the outer code;
    /// and both answers are the same serial and 4-threaded.
    #[test]
    fn native_and_emulated_agree_on_faulted_piles(
        pick in 0usize..2,
        fault in 0usize..4,
        severity in 0u32..=40,
        seed in any::<u64>(),
    ) {
        let a = &diff_archives()[pick];
        let frames = &a.out.data_frames;
        let at = |n: usize| (seed >> 16) as usize % n;
        let mut data = match fault {
            0 => FaultPlan::single(FrameLossFault).apply(frames, f64::from(severity) / 100.0, seed),
            1 => FaultPlan::single(FrameReorderFault).apply(frames, f64::from(severity) / 100.0, seed),
            _ => frames.clone(),
        };
        match fault {
            2 => data.insert(at(data.len() + 1), frames[seed as usize % frames.len()].clone()),
            3 => {
                let stray = a.foreign[seed as usize % a.foreign.len()].clone();
                if seed & 1 == 0 {
                    data.insert(at(data.len() + 1), stray);
                } else {
                    let i = at(data.len());
                    data[i] = stray;
                }
            }
            _ => {}
        }
        let text = a.out.bootstrap.to_text();
        let run = |threads: ThreadConfig| {
            let native = a.sys.clone().with_threads(threads).restore_native(&data).map(|(b, _)| b);
            let mut pile = a.out.system_frames.clone();
            pile.extend(data.iter().cloned());
            let emulated =
                MicrOlonys::restore_emulated(&text, &pile, EmulationTier::Threaded, threads)
                    .map(|(b, _)| b);
            (native, emulated)
        };
        let (native, emulated) = run(ThreadConfig::Serial);
        let case = format!("archive {pick}, fault {fault}, severity {severity}%, seed {seed}");
        match (&native, &emulated) {
            (Ok(n), Ok(e)) => prop_assert!(n == e && *e == a.dump, "{case}: bytes differ"),
            (Err(_), Ok(_)) => panic!("{case}: emulated Ok where native fails: {native:?}"),
            (Ok(n), Err(RestoreError::FrameLoss { .. })) => prop_assert!(*n == a.dump, "{case}"),
            (Ok(_), Err(e)) => panic!("{case}: emulated {e:?} where native restores"),
            (Err(_), Err(_)) => {}
        }
        let (native4, emulated4) = run(ThreadConfig::Fixed(4));
        prop_assert_eq!(format!("{native:?}"), format!("{native4:?}"), "{}", case);
        prop_assert_eq!(format!("{emulated:?}"), format!("{emulated4:?}"), "{}", case);
    }
}
