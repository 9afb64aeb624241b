//! E14 telemetry contract: the recorder only *observes*. Restored bytes,
//! restore stats, and decode-health counters must be identical whether
//! telemetry is off, on, serial, or running over the `ule_par` pool — and
//! the counters must agree exactly with the faults we inject.

use ule::fault::{Blotch, FaultPlan};
use ule::obs::Telemetry;
use ule::olonys::MicrOlonys;
use ule::par::ThreadConfig;

fn tiny(threads: ThreadConfig) -> MicrOlonys {
    MicrOlonys::test_tiny().with_threads(threads)
}

fn sample_dump() -> Vec<u8> {
    ule::tpch::dump_for_scale(0.0001, 2026)
}

/// Degraded channel scans (one frame dropped, per-frame scan noise) so the
/// identity claim covers inner-RS corrections *and* outer-code recovery.
fn degraded_scans(
    sys: &MicrOlonys,
    out: &ule::olonys::ArchiveOutput,
) -> Vec<ule::raster::GrayImage> {
    out.data_frames
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(i, f)| sys.medium.scan(f, 90 + i as u64))
        .collect()
}

#[test]
fn telemetry_on_restore_is_byte_identical_to_off() {
    let dump = sample_dump();
    for threads in [ThreadConfig::Serial, ThreadConfig::Fixed(4)] {
        let sys = tiny(threads);
        let out = sys.archive(&dump);
        let scans = degraded_scans(&sys, &out);

        let (bytes_off, stats_off) = sys.restore_native(&scans).expect("telemetry-off restore");
        assert_eq!(bytes_off, dump);

        let tel = Telemetry::enabled();
        let (bytes_on, stats_on) = sys
            .restore_native_traced(&scans, &tel)
            .expect("telemetry-on restore");

        assert_eq!(
            bytes_on, bytes_off,
            "enabled telemetry changed restored bytes at {threads:?}"
        );
        assert_eq!(stats_on.scans, stats_off.scans);
        assert_eq!(stats_on.rs_corrected, stats_off.rs_corrected);
        assert_eq!(stats_on.erasure_frames, stats_off.erasure_frames);
        assert_eq!(stats_on.emblems_recovered, stats_off.emblems_recovered);

        // The recorder saw the same work the stats report.
        assert_eq!(
            tel.counter("decode.corrected_symbols"),
            stats_on.rs_corrected as u64
        );
        assert_eq!(
            tel.counter("decode.erasure_frames"),
            stats_on.erasure_frames as u64
        );

        // The field-carried recorder and the argument-taking shim record
        // the same thing: same bytes, stats, counters and span calls.
        let field = Telemetry::enabled();
        let (bytes_field, stats_field) = sys
            .clone()
            .with_telemetry(field.clone())
            .restore_native(&scans)
            .expect("field-telemetry restore");
        assert_eq!(bytes_field, bytes_on);
        assert_eq!(format!("{stats_field:?}"), format!("{stats_on:?}"));
        let (a, b) = (field.snapshot(), tel.snapshot());
        assert_eq!(a.counters, b.counters, "counters differ at {threads:?}");
        assert_eq!(
            span_calls(&a),
            span_calls(&b),
            "spans differ at {threads:?}"
        );
    }
}

fn span_calls(t: &ule::obs::Trace) -> Vec<(String, u64)> {
    t.spans.iter().map(|(n, s)| (n.clone(), s.calls)).collect()
}

#[test]
fn counters_are_identical_serial_and_threaded() {
    // The sharded recorder (one shard per worker, absorbed in input order)
    // must make the *trace* thread-count-invariant too: same counters and
    // span call counts. Wall-clock is the only field allowed to differ.
    let dump = sample_dump();
    let sys_serial = tiny(ThreadConfig::Serial);
    let out = sys_serial.archive(&dump);
    let scans = degraded_scans(&sys_serial, &out);

    let traced_serial = sys_serial.with_telemetry(Telemetry::enabled());
    let (bytes_serial, _) = traced_serial
        .restore_native(&scans)
        .expect("serial restore");

    let traced_par = tiny(ThreadConfig::Fixed(4)).with_telemetry(Telemetry::enabled());
    let (bytes_par, _) = traced_par.restore_native(&scans).expect("4-thread restore");

    assert_eq!(bytes_par, bytes_serial);
    let (a, b) = (
        traced_serial.telemetry.snapshot(),
        traced_par.telemetry.snapshot(),
    );
    assert_eq!(a.counters, b.counters, "counters differ serial vs 4-thread");
    assert_eq!(span_calls(&a), span_calls(&b), "span call counts differ");
}

#[test]
fn corrected_frame_counter_matches_injected_fault_count() {
    // Counter accuracy: blotch exactly K frames of an otherwise pristine
    // master set; the decode-health counters must report exactly K
    // corrected frames, with every other frame clean.
    let dump = sample_dump();
    let sys = tiny(ThreadConfig::Serial);
    let out = sys.archive(&dump);
    let mut frames = out.data_frames.clone();
    let total = frames.len();
    let damaged_idx = [1usize, 4, 7];
    assert!(total > 8, "want enough frames to damage 3, got {total}");

    let plan = FaultPlan::single(Blotch);
    for (k, &i) in damaged_idx.iter().enumerate() {
        let hit = plan.apply(&frames[i..i + 1], 0.002, 0xE14 + k as u64);
        frames[i] = hit.into_iter().next().unwrap();
    }

    let sys = sys.with_telemetry(Telemetry::enabled());
    let (bytes, stats) = sys.restore_native(&frames).expect("damaged restore");
    let tel = &sys.telemetry;
    assert_eq!(bytes, dump, "blotched frames must still decode bit-exact");

    let k = damaged_idx.len() as u64;
    assert_eq!(tel.counter("decode.frames_total"), total as u64);
    assert_eq!(
        tel.counter("decode.frames_corrected"),
        k,
        "exactly {k} frames were damaged"
    );
    assert_eq!(tel.counter("decode.clean_frames"), total as u64 - k);
    assert_eq!(tel.counter("decode.frames_failed"), 0);
    assert_eq!(
        tel.counter("decode.corrected_symbols"),
        stats.rs_corrected as u64
    );
    assert!(stats.rs_corrected >= damaged_idx.len());
}

#[test]
fn disabled_telemetry_records_nothing_on_a_full_pipeline() {
    // `Telemetry::off()` is the default everywhere; a full
    // archive→scan→restore run through it must leave the trace empty.
    let dump = sample_dump();
    let sys = tiny(ThreadConfig::Serial);
    assert!(!sys.telemetry.is_enabled(), "telemetry is off by default");
    let out = sys.archive(&dump);
    let scans = degraded_scans(&sys, &out);
    let (bytes, _) = sys.restore_native(&scans).expect("restore");
    assert_eq!(bytes, dump);
    let trace = sys.telemetry.snapshot();
    assert!(trace.spans.is_empty());
    assert!(trace.counters.is_empty());
}

#[test]
fn failed_frames_are_counted_by_cause() {
    // A seeded damaged pile: some frames blanked end to end (no border to
    // find), the rest under heavy or moderate salt-and-pepper (headers or
    // inner RS blocks unreadable). Every failed frame lands on exactly one
    // cause counter, and the counters are the same at any thread count.
    use ule::emblem::decode_frames;
    use ule::fault::{FrameBlankFault, SaltPepper};

    let sys = tiny(ThreadConfig::Serial);
    let out = sys.archive(&sample_dump());
    let frames = &out.data_frames;
    assert!(frames.len() >= 8, "want 8 frames, got {}", frames.len());
    let mut pile = FaultPlan::single(FrameBlankFault).apply(&frames[..4], 0.5, 0xFA11);
    pile.extend(FaultPlan::single(SaltPepper).apply(&frames[4..8], 0.12, 0xFA12));
    pile.extend(FaultPlan::single(SaltPepper).apply(&frames[8..], 0.02, 0xFA13));

    let causes = [
        "border_not_found",
        "calibration_mismatch",
        "header_unreadable",
        "rs_failure",
    ];
    let counts = |threads| {
        let tel = Telemetry::enabled();
        decode_frames(&sys.medium.geometry, &pile, threads, &tel);
        let by_cause: Vec<u64> = causes
            .iter()
            .map(|c| tel.counter(&format!("decode.fail.{c}")))
            .collect();
        (
            by_cause,
            tel.counter("decode.frames_failed"),
            tel.snapshot().counters,
        )
    };
    let (by_cause, failed, serial) = counts(ThreadConfig::Serial);
    assert_eq!(by_cause.iter().sum::<u64>(), failed, "{by_cause:?}");
    assert!(
        by_cause.iter().filter(|&&n| n > 0).count() >= 2,
        "want at least two causes, got {by_cause:?}"
    );
    assert_eq!(counts(ThreadConfig::Fixed(4)).2, serial);
}
