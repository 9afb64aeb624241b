//! The ULE end-to-end proof (Figure 2b): restore an archived database
//! using *only* the Bootstrap document and the scans — every decoder runs
//! inside the nested VeRisc → DynaRisc emulator.

use micr_olonys::{EmulationTier, MicrOlonys, ThreadConfig};
use ule_media::Medium;
use ule_verisc::vm::EngineKind;

fn micro_system() -> MicrOlonys {
    MicrOlonys {
        medium: Medium::test_micro(),
        with_parity: false,
        ..MicrOlonys::test_tiny()
    }
}

fn sample_dump() -> Vec<u8> {
    let mut s = String::from("CREATE TABLE nation (n_nationkey integer, n_name text);\n");
    s.push_str("COPY nation (n_nationkey, n_name) FROM stdin;\n");
    for (i, n) in ["ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT"]
        .iter()
        .enumerate()
    {
        s.push_str(&format!("{i}\t{n}\n"));
    }
    s.push_str("\\.\n");
    s.into_bytes()
}

#[test]
fn full_emulated_restoration_from_bootstrap_text() {
    let sys = micro_system();
    let dump = sample_dump();
    let out = sys.archive(&dump);

    // The restorer gets: the printed bootstrap text and ALL frames in an
    // arbitrary order (system + data mixed — headers sort it out).
    let bootstrap_text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    scans.reverse(); // order must not matter

    let (restored, stats) = MicrOlonys::restore_emulated(
        &bootstrap_text,
        &scans,
        EmulationTier::Nested(EngineKind::MatchBased),
        ThreadConfig::Serial,
    )
    .expect("emulated restore");
    assert_eq!(restored, dump, "restored dump differs");
    assert!(
        stats.verisc_steps > 1_000_000,
        "suspiciously few VeRisc steps: {}",
        stats.verisc_steps
    );
}

#[test]
fn emulated_restore_agrees_across_all_engines() {
    // The portability claim: any independent VeRisc implementation
    // restores the same bytes.
    let sys = micro_system();
    let dump = b"COPY t (a, b) FROM stdin;\n1\tx\n2\ty\n\\.\n".to_vec();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let (restored, _) = MicrOlonys::restore_emulated(
            &text,
            &scans,
            EmulationTier::Nested(kind),
            ThreadConfig::Serial,
        )
        .expect("restore");
        results.push((kind, restored));
    }
    for w in results.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
    }
    assert_eq!(results[0].1, dump);
}

#[test]
fn emulated_restore_agrees_across_all_tiers() {
    // The throughput rebuild must not change one byte: the threaded
    // engine, the reference interpreter, and the nested VeRisc emulator
    // restore identical dumps with identical per-frame CRCs.
    let sys = micro_system();
    let dump = sample_dump();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    let tiers = [
        EmulationTier::Threaded,
        EmulationTier::Interpreter,
        EmulationTier::Nested(EngineKind::MatchBased),
    ];
    let mut results = Vec::new();
    for tier in tiers {
        let (restored, stats) =
            MicrOlonys::restore_emulated(&text, &scans, tier, ThreadConfig::Serial)
                .expect("restore");
        results.push((tier, restored, stats.frame_crc32));
    }
    for w in results.windows(2) {
        assert_eq!(w[0].1, w[1].1, "bytes: {:?} vs {:?}", w[0].0, w[1].0);
        assert_eq!(w[0].2, w[1].2, "frame crc: {:?} vs {:?}", w[0].0, w[1].0);
    }
    assert_eq!(results[0].1, dump);
}

#[test]
fn host_tiers_count_guest_steps_and_agree_on_them() {
    // Both host engines execute the same archived instruction stream, so
    // their DynaRisc instruction counts must match exactly — fuel parity
    // is part of the bit-identical contract.
    let sys = micro_system();
    let dump = sample_dump();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    let (_, threaded) =
        MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, ThreadConfig::Serial)
            .expect("threaded");
    let (_, interp) = MicrOlonys::restore_emulated(
        &text,
        &scans,
        EmulationTier::Interpreter,
        ThreadConfig::Serial,
    )
    .expect("interpreter");
    assert!(threaded.guest_steps > 10_000, "guest work not counted");
    assert_eq!(threaded.guest_steps, interp.guest_steps);
    assert_eq!(threaded.verisc_steps, 0);
    assert_eq!(interp.verisc_steps, 0);
}

#[test]
fn native_restore_handles_degraded_scans() {
    let sys = MicrOlonys::test_tiny();
    let dump = sample_dump().repeat(8);
    let out = sys.archive(&dump);
    let scans = sys.medium.scan_all(&out.data_frames, 99);
    let (restored, stats) = sys.restore_native(&scans).expect("native restore");
    assert_eq!(restored, dump);
    assert_eq!(stats.scans, out.data_frames.len());
}

#[test]
fn native_restore_survives_three_missing_frames() {
    let sys = MicrOlonys::test_tiny();
    // Enough data for several emblems in one group.
    let dump: Vec<u8> = (0..6000u32)
        .flat_map(|i| format!("{}\t{}\n", i, i * 31).into_bytes())
        .collect();
    let out = sys.archive(&dump);
    assert!(out.data_frames.len() >= 6, "want a multi-emblem group");
    let kept: Vec<_> = out
        .data_frames
        .iter()
        .enumerate()
        .filter(|(i, _)| ![0usize, 2, 4].contains(i))
        .map(|(_, f)| sys.medium.scan(f, 7))
        .collect();
    let (restored, stats) = sys.restore_native(&kept).expect("restore with erasures");
    assert_eq!(restored, dump);
    assert!(stats.emblems_recovered >= 1);
}

#[test]
fn system_emblems_carry_the_decoder() {
    let sys = MicrOlonys::test_tiny();
    let out = sys.archive(b"tiny");
    let scans = sys.medium.scan_all(&out.system_frames, 3);
    assert!(sys.verify_system_emblems(&scans).unwrap());
}
