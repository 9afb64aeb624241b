//! The ULE end-to-end proof (Figure 2b): restore an archived database
//! using *only* the Bootstrap document and the scans — every decoder runs
//! inside the nested VeRisc → DynaRisc emulator.

use micr_olonys::{EmulationTier, MicrOlonys, RestoreError, ThreadConfig};
use ule_compress::ArchiveError;
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

/// Replace `key=value` on the Bootstrap's `geometry:` line.
fn edit_geometry(text: &str, key: &str, value: &str) -> String {
    edit_line(text, "geometry:", |line| {
        let field = line
            .split_whitespace()
            .find(|f| f.starts_with(&format!("{key}=")))
            .expect("geometry field");
        line.replacen(field, &format!("{key}={value}"), 1)
    })
}

/// Rewrite the Bootstrap line starting with `prefix` through `edit`.
fn edit_line(text: &str, prefix: &str, edit: impl Fn(&str) -> String) -> String {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix))
        .expect("bootstrap line");
    text.replacen(line, &edit(line), 1)
}

#[test]
fn hostile_bootstrap_geometry_is_corrupt_not_an_abort() {
    // MODecode's parameter block and its coded-byte total are 16-bit guest
    // words: a geometry that does not fit must be refused before any
    // guest memory is sized from it — not wrap, fault or abort.
    let sys = micro_system();
    let dump = sample_dump();
    let out = sys.archive(&dump);
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    for tier in [EmulationTier::Threaded, EmulationTier::Interpreter] {
        let (restored, _) = MicrOlonys::restore_emulated(&text, &scans, tier, ThreadConfig::Serial)
            .expect("unedited document restores");
        assert_eq!(restored, dump, "{tier:?}");
        for (key, value) in [
            ("nblocks", "1000000000000"),
            ("cell_px", "65539"),
            ("cols", "65537"),
        ] {
            let hostile = edit_geometry(&text, key, value);
            match MicrOlonys::restore_emulated(&hostile, &scans, tier, ThreadConfig::Serial) {
                Err(RestoreError::Archive(ArchiveError::Corrupt(_))) => {}
                other => panic!("{tier:?} {key}={value}: expected Corrupt, got {other:?}"),
            }
        }
    }
}

/// One checksum-valid `test_micro` frame whose header claims a
/// `u32::MAX`-byte stream: a layout of millions of chunks, far past what
/// the 16-bit emblem index can number.
fn hostile_length_frame(sys: &MicrOlonys) -> ule_raster::GrayImage {
    use ule_emblem::{encode_emblem, EmblemHeader, EmblemKind};
    let header = EmblemHeader::new(EmblemKind::Data, 0, 0, 10, u32::MAX);
    let emblem = encode_emblem(&sys.medium.geometry, &header, &[0x5A; 10]);
    sys.medium.print(&emblem)
}

#[test]
fn hostile_stream_length_is_refused_by_the_native_decoder() {
    // The stream layout is sized from the header's length only after the
    // 16-bit index check: no chunk table for millions of chunks.
    let sys = micro_system();
    match sys.restore_native(&[hostile_length_frame(&sys)]) {
        Err(RestoreError::Stream(ule_emblem::StreamError::InconsistentHeaders)) => {}
        other => panic!("expected InconsistentHeaders, got {other:?}"),
    }
}

#[test]
fn hostile_stream_length_is_corrupt_on_the_emulated_path() {
    let sys = micro_system();
    let out = sys.archive(&sample_dump());
    let mut scans = out.system_frames.clone();
    scans.push(hostile_length_frame(&sys));
    match MicrOlonys::restore_emulated(
        &out.bootstrap.to_text(),
        &scans,
        EmulationTier::Threaded,
        ThreadConfig::Serial,
    ) {
        Err(RestoreError::Archive(ArchiveError::Corrupt(_))) => {}
        // A frame-loss report here would list millions of indices.
        other => panic!("expected Corrupt, got {:.200}", format!("{other:?}")),
    }
}

/// Set (or, with `None`, drop) one `NAME=addr` pair of the `symbols:` line.
fn edit_symbol(text: &str, name: &str, value: Option<&str>) -> String {
    edit_line(text, "symbols:", |line| {
        line.split(' ')
            .filter_map(|f| match f.split_once('=') {
                Some((k, _)) if k == name => value.map(|v| format!("{k}={v}")),
                _ => Some(f.to_string()),
            })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// Restore a `test_micro` archive through the Nested tier from a
/// Bootstrap edited by `edit`; the answer must be `Corrupt`, not a panic.
fn nested_restore_is_corrupt(edit: impl Fn(&str) -> String) {
    let sys = micro_system();
    let out = sys.archive(&sample_dump());
    let hostile = edit(&out.bootstrap.to_text());
    assert_ne!(
        hostile,
        out.bootstrap.to_text(),
        "the edit must change the text"
    );
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    let tier = EmulationTier::Nested(EngineKind::TableDriven);
    let threads = ThreadConfig::from_env_or(ThreadConfig::Serial);
    match MicrOlonys::restore_emulated(&hostile, &scans, tier, threads) {
        Err(RestoreError::Archive(ArchiveError::Corrupt(_))) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn nested_tier_refuses_a_prog_capacity_below_dbdecode() {
    nested_restore_is_corrupt(|t| edit_line(t, "prog-capacity:", |_| "prog-capacity: 1".into()));
}

#[test]
fn nested_tier_refuses_a_symbols_line_without_prog() {
    nested_restore_is_corrupt(|t| edit_symbol(t, "PROG", None));
}

#[test]
fn nested_tier_refuses_a_prog_past_the_image() {
    nested_restore_is_corrupt(|t| edit_symbol(t, "PROG", Some("4000000000")));
}

#[test]
fn nested_tier_refuses_hostile_dynmem_and_state_cells() {
    nested_restore_is_corrupt(|t| edit_symbol(t, "DYNMEM", None));
    nested_restore_is_corrupt(|t| edit_symbol(t, "DYNMEM", Some("4000000000")));
    nested_restore_is_corrupt(|t| edit_symbol(t, "REGS", Some("4000000000")));
    nested_restore_is_corrupt(|t| edit_symbol(t, "SP", None));
}
