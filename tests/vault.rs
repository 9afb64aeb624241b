//! Vault degradation matrix (S16, `DESIGN.md` §11): the content index,
//! selective restore, and cross-reel parity exercised under damage.
//!
//! The contract mirrors `tests/frame_loss.rs` one layer up:
//!
//! * index stream damaged beyond its RS budget → selective restore falls
//!   back to the full scan and still returns byte-identical tables;
//! * one content reel missing per parity group → cross-reel
//!   reconstruction succeeds, full and selective restores bit-exact;
//! * two reels missing in one group → the structured
//!   [`VaultError::ReelLoss`] naming the group and reels — never a
//!   panic, never silent garbage.
//!
//! The worker pool is taken from `ULE_TEST_THREADS`, so the CI matrix
//! (`e15-repair`) runs this file serial and 4-threaded.

use ule::fault::{FaultPlan, FrameBlankFault};
use ule::obs::Telemetry;
use ule::olonys::{Bootstrap, MicrOlonys};
use ule::par::ThreadConfig;
use ule::vault::layout::StreamId;
use ule::vault::zones::{ColumnRange, ZonePredicate};
use ule::vault::{
    ReelScans, RestorePath, ShardPlan, Vault, VaultArchive, VaultError, VaultRestoreStats,
};

fn threads() -> ThreadConfig {
    ThreadConfig::from_env_or(ThreadConfig::Serial)
}

fn vault() -> Vault {
    Vault::sharded(
        MicrOlonys::test_tiny().with_threads(threads()),
        ShardPlan::single_parity(12, 2),
    )
}

/// The E15 gated topology: `RS(5, 3)` groups — any two lost reels per
/// group reconstruct, a third is structured failure.
fn vault_m2() -> Vault {
    Vault::sharded(
        MicrOlonys::test_tiny().with_threads(threads()),
        ShardPlan::with_parity(12, 3, 2),
    )
}

/// A dump big enough for several reels on the tiny medium.
fn dump() -> Vec<u8> {
    ule::tpch::dump_for_scale(0.0001, 77)
}

/// `lineitem` rows shipped in 1994, read out of `COPY` text: the header
/// names the columns, `\.` ends the rows.
fn shipped_1994(copy: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(copy).expect("COPY text");
    let mut lines = text.lines();
    let header = lines.next().expect("COPY header");
    let columns = &header[header.find('(').unwrap() + 1..header.find(')').unwrap()];
    let ci = columns
        .split(", ")
        .position(|c| c == "l_shipdate")
        .expect("l_shipdate column");
    lines
        .take_while(|line| *line != "\\.")
        .filter(|row| ("1994-01-01"..="1994-12-31").contains(&row.split('\t').nth(ci).unwrap()))
        .map(String::from)
        .collect()
}

/// Rung 2 of the read ladder on every catalog reader: with the index
/// unusable, each one falls back to the full scan and still answers
/// exactly what the archived dump holds.
fn assert_every_reader_falls_back(
    v: &Vault,
    arc: &VaultArchive,
    bootstrap: &Bootstrap,
    scans: &ReelScans,
    dump: &[u8],
) {
    let slice = |table: &str| {
        let e = arc.index.find(table).unwrap();
        &dump[e.dump_start as usize..(e.dump_start + e.dump_len) as usize]
    };
    let fell_back = |reader: &str, stats: VaultRestoreStats| {
        assert!(
            stats.index_fallback,
            "{reader}: index damage must be detected"
        );
        assert_eq!(stats.path, RestorePath::Full, "{reader}");
    };

    let (bytes, stats) = v.restore_table(bootstrap, scans, "orders").unwrap();
    fell_back("restore_table", stats);
    assert_eq!(bytes, slice("orders"));

    let (scan, q) = v
        .query_table(bootstrap, scans, "orders", &ZonePredicate::all())
        .unwrap();
    fell_back("query_table(all)", q.restore);
    assert_eq!(scan.concat(), slice("orders"));

    let pred = ZonePredicate::all().with(ColumnRange::between(
        "l_shipdate",
        "1994-01-01",
        "1994-12-31",
    ));
    let (scan, q) = v.query_table(bootstrap, scans, "lineitem", &pred).unwrap();
    fell_back("query_table(l_shipdate)", q.restore);
    let expected = shipped_1994(slice("lineitem"));
    assert!(!expected.is_empty(), "the predicate selects some rows");
    assert_eq!(shipped_1994(&scan.concat()), expected);

    let (names, stats) = v.list_tables(bootstrap, scans).unwrap();
    fell_back("list_tables", stats);
    assert_eq!(names, arc.index.tables());
}

#[test]
fn damaged_index_falls_back_to_full_restore_byte_identical() {
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let mut scans = v.scan_reels(&arc, 21);

    // Blank every index frame: the index stream (and its outer parity)
    // is gone beyond any RS budget. The data frames are untouched.
    let layout = arc.layout;
    let idx_start = layout.sys_frames();
    let blank = FaultPlan::single(FrameBlankFault);
    for q in 0..layout.index_frames() {
        let (reel, off) = layout.reel_of(idx_start + q);
        let frames = scans[reel].as_mut().unwrap();
        frames[off] = blank.apply(&frames[off..off + 1], 1.0, 99)[0].clone();
    }

    assert_every_reader_falls_back(&v, &arc, &arc.bootstrap, &scans, &dump);
}

#[test]
fn bad_index_crc_in_manifest_falls_back_byte_identical() {
    // The manifest's trailing CRC disagrees with a perfectly readable
    // index stream: trust neither, fall back to the full scan, and still
    // return the exact bytes.
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let scans = v.scan_reels(&arc, 31);
    let mut bootstrap = arc.bootstrap.clone();
    bootstrap.vault.as_mut().unwrap().index_crc32 ^= 0x1;

    assert_every_reader_falls_back(&v, &arc, &bootstrap, &scans, &dump);
}

#[test]
fn truncated_index_reel_is_a_structured_shape_error() {
    // A shelf whose final reel lost its tail frames (torn tape, partial
    // scan) disagrees with the manifest's frame counts: selective restore
    // must report the shape mismatch, not index out of bounds.
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let mut scans = v.scan_reels(&arc, 32);
    let frames = scans[0].as_mut().unwrap();
    assert!(frames.len() >= 2, "reel 0 too small to truncate");
    frames.truncate(frames.len() - 1);

    match v.restore_table(&arc.bootstrap, &scans, "orders") {
        Err(VaultError::ShapeMismatch(msg)) => {
            assert!(msg.contains("frames"), "unhelpful message: {msg}");
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn record_length_field_past_the_stream_is_a_structured_error() {
    use ule::vault::split_records;

    // Length prefix promising more bytes than the stream holds.
    let mut stream = 100u32.to_le_bytes().to_vec();
    stream.extend_from_slice(&[0u8; 10]);
    match split_records(&stream) {
        Err(VaultError::ShapeMismatch(msg)) => {
            assert!(msg.contains("promises"), "unhelpful message: {msg}");
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // u32::MAX prefix: the offset arithmetic must not overflow.
    match split_records(&u32::MAX.to_le_bytes()) {
        Err(VaultError::ShapeMismatch(_)) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // A dangling sub-prefix tail after a valid record.
    let mut stream = 2u32.to_le_bytes().to_vec();
    stream.extend_from_slice(&[7, 7, 1, 2]);
    match split_records(&stream) {
        Err(VaultError::ShapeMismatch(msg)) => {
            assert!(msg.contains("dangling"), "unhelpful message: {msg}");
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // And the happy path splits cleanly.
    let mut stream = 3u32.to_le_bytes().to_vec();
    stream.extend_from_slice(&[9, 9, 9]);
    stream.extend_from_slice(&0u32.to_le_bytes());
    let records = split_records(&stream).unwrap();
    assert_eq!(records, vec![&[9u8, 9, 9][..], &[][..]]);
}

#[test]
fn one_reel_lost_per_group_reconstructs_bit_exact() {
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let pristine = v.scan_reels(&arc, 22);
    let layout = arc.layout;
    assert!(
        layout.content_reels() >= 3,
        "want a multi-reel shelf, got {}",
        layout.content_reels()
    );

    // Lose one content reel out of every parity group.
    for lost in 0..layout.content_reels() {
        let mut scans: ReelScans = pristine.clone();
        scans[lost] = None;
        let (restored, stats) = v
            .restore_all(&arc.bootstrap, &scans)
            .unwrap_or_else(|e| panic!("reel {lost} lost: {e}"));
        assert_eq!(restored, dump, "reel {lost} lost");
        assert_eq!(stats.reels_reconstructed, 1);
        assert!(stats.frames_reconstructed > 0);
    }

    // Selective restore across a lost reel: still byte-identical and
    // still cheaper than reconstructing everything.
    let mut scans: ReelScans = pristine.clone();
    scans[layout.content_reels() - 1] = None;
    let entry = arc.index.find("lineitem").unwrap();
    let (bytes, stats) = v.restore_table(&arc.bootstrap, &scans, "lineitem").unwrap();
    assert_eq!(stats.path, RestorePath::Selective);
    let start = entry.dump_start as usize;
    assert_eq!(bytes, &dump[start..start + entry.dump_len as usize]);
}

#[test]
fn lost_reel_plus_blanked_sibling_frame_degrades_to_the_outer_code() {
    // The double fault: a whole reel gone AND one unreadable frame on a
    // surviving sibling of the same parity group. Cross-reel recovery is
    // per-offset, so the damaged sibling costs exactly one offset of the
    // rebuilt reel (returned blank) — and the stream-level outer code
    // absorbs both failed frames. The shelf must restore bit-exact, not
    // brick.
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let mut scans = v.scan_reels(&arc, 27);
    let layout = arc.layout;
    assert!(layout.content_reels() >= 4, "want two full parity groups");

    // The first group always holds two content reels (guard above);
    // the last one holds only one when the reel count is odd.
    let lost = 1;
    let sibling = 0; // same group (group_reels == 2)
    assert_eq!(layout.group_of(lost), layout.group_of(sibling));
    let blank = FaultPlan::single(FrameBlankFault);
    let frames = scans[sibling].as_mut().unwrap();
    frames[0] = blank.apply(&frames[0..1], 1.0, 7)[0].clone();
    scans[lost] = None;

    let (restored, stats) = v.restore_all(&arc.bootstrap, &scans).unwrap();
    assert_eq!(restored, dump);
    assert_eq!(stats.reels_reconstructed, 1);
    // Every offset but the damaged one was rebuilt from parity.
    assert_eq!(stats.frames_reconstructed, layout.reel_frames(lost) - 1);
    assert!(stats.recovery_frames_decoded > 0);
}

#[test]
fn lost_parity_reel_alone_is_harmless() {
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let mut scans = v.scan_reels(&arc, 23);
    for g in 0..arc.layout.groups() {
        for r in arc.layout.parity_reels_of(g) {
            scans[r] = None;
        }
    }
    let (restored, stats) = v.restore_all(&arc.bootstrap, &scans).unwrap();
    assert_eq!(restored, dump);
    assert_eq!(stats.reels_reconstructed, 0);
}

#[test]
fn two_reels_lost_in_one_group_is_a_clean_structured_error() {
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let layout = arc.layout;
    assert!(layout.group_reels == 2 && layout.content_reels() >= 2);

    // Both members of group 0 gone: parity covers only one.
    let mut scans = v.scan_reels(&arc, 24);
    scans[0] = None;
    scans[1] = None;
    match v.restore_all(&arc.bootstrap, &scans) {
        Err(VaultError::ReelLoss {
            group,
            lost,
            recoverable,
        }) => {
            assert_eq!(group, 0);
            assert_eq!(lost, vec![0, 1]);
            assert_eq!(recoverable, 1);
        }
        other => panic!("expected ReelLoss, got {other:?}"),
    }

    // A content reel plus its own parity reel is just as fatal — and just
    // as clean.
    let mut scans = v.scan_reels(&arc, 25);
    scans[0] = None;
    let parity_reel = layout.parity_reel_of(0, 0);
    scans[parity_reel] = None;
    match v.restore_table(&arc.bootstrap, &scans, "orders") {
        Err(VaultError::ReelLoss { group, lost, .. }) => {
            assert_eq!(group, 0);
            assert!(lost.contains(&parity_reel));
        }
        other => panic!("expected ReelLoss, got {other:?}"),
    }
}

#[test]
fn multi_parity_survives_any_two_losses_per_group() {
    let v = vault_m2();
    let dump = dump();
    let arc = v.archive(&dump);
    let layout = arc.layout;
    assert_eq!(layout.group_parity, 2);
    assert!(layout.groups() >= 1);
    let pristine = v.scan_reels(&arc, 41);

    // Every pair of reels in group 0 (members and parity alike): the
    // RS(5, 3) group must solve both.
    let group0: Vec<usize> = layout
        .group_members(0)
        .chain(layout.parity_reels_of(0))
        .collect();
    for (ai, &a) in group0.iter().enumerate() {
        for &b in &group0[ai + 1..] {
            let mut scans = pristine.clone();
            scans[a] = None;
            scans[b] = None;
            let (restored, stats) = v
                .restore_all(&arc.bootstrap, &scans)
                .unwrap_or_else(|e| panic!("reels {a},{b} lost: {e}"));
            assert_eq!(restored, dump, "reels {a},{b} lost");
            // Only lost *content* reels are rebuilt on restore; lost
            // parity reels cost nothing here.
            let content_lost =
                usize::from(a < layout.content_reels()) + usize::from(b < layout.content_reels());
            assert_eq!(stats.reels_reconstructed, content_lost, "reels {a},{b}");
        }
    }

    // The bootstrap survives its own wire format with the parity depth
    // intact, and the reparsed document restores identically.
    let reparsed = ule::olonys::Bootstrap::parse(&arc.bootstrap.to_text()).unwrap();
    assert_eq!(reparsed.vault.as_ref().unwrap().parity_reels, 2);
    let mut scans = pristine.clone();
    scans[0] = None;
    scans[1] = None;
    let (restored, _) = v.restore_all(&reparsed, &scans).unwrap();
    assert_eq!(restored, dump);
}

#[test]
fn m_plus_one_losses_name_every_lost_reel_and_group() {
    let v = vault_m2();
    let dump = dump();
    let arc = v.archive(&dump);
    let layout = arc.layout;
    let mut scans = v.scan_reels(&arc, 42);
    let gone = vec![0, 1, layout.parity_reel_of(0, 1)];
    for &r in &gone {
        scans[r] = None;
    }
    match v.restore_all(&arc.bootstrap, &scans) {
        Err(VaultError::ReelLoss {
            group,
            lost,
            recoverable,
        }) => {
            assert_eq!(group, 0);
            assert_eq!(lost, gone, "every lost reel named");
            assert_eq!(recoverable, 2);
        }
        other => panic!("expected ReelLoss, got {other:?}"),
    }
}

#[test]
fn damaged_frame_in_selective_range_is_rebuilt_not_full_scanned() {
    // Degraded-mode read: a frame inside the requested table's range no
    // longer decodes. The old behaviour was SelectiveFallback (full
    // scan); now the frame is rebuilt from its parity group's surviving
    // columns and the read stays selective.
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let mut scans = v.scan_reels(&arc, 43);
    let layout = arc.layout;

    let entry = arc.index.find("orders").unwrap();
    let chunks: Vec<usize> = arc.index.chunk_range(entry).collect();
    let pos = layout.chunk_position(StreamId::Data, chunks[chunks.len() / 2]);
    let (reel, off) = layout.reel_of(pos);
    let blank = FaultPlan::single(FrameBlankFault);
    let frames = scans[reel].as_mut().unwrap();
    frames[off] = blank.apply(&frames[off..off + 1], 1.0, 17)[0].clone();

    let tel = Telemetry::enabled();
    let traced = v.clone().with_telemetry(tel.clone());
    let (bytes, stats) = traced
        .restore_table(&arc.bootstrap, &scans, "orders")
        .unwrap();
    assert_eq!(stats.path, RestorePath::Selective, "no full-scan fallback");
    assert_eq!(stats.frames_reconstructed, 1, "exactly the damaged frame");
    assert_eq!(stats.reels_reconstructed, 1);
    // The retry decodes only the rebuilt frame; the first attempt's good
    // payloads are kept, not decoded again.
    assert_eq!(
        tel.counter("selective.frames_requested"),
        chunks.len() as u64 + 1
    );
    // Decode health covers the selective frames too, not just the index
    // stream: the blanked frame fails once and its rebuild is counted
    // again, so the clean-frame ratio sees every decoded frame.
    let total = tel.counter("decode.frames_total");
    assert_eq!(
        total,
        (layout.index_frames() + chunks.len() + 1) as u64,
        "index frames + table frames + the one retried frame"
    );
    assert_eq!(tel.counter("decode.frames_failed"), 1);
    assert_eq!(
        tel.counter("decode.clean_frames")
            + tel.counter("decode.frames_corrected")
            + tel.counter("decode.frames_failed"),
        total
    );
    let start = entry.dump_start as usize;
    assert_eq!(bytes, &dump[start..start + entry.dump_len as usize]);
}

#[test]
fn degraded_selective_restore_rebuilds_only_needed_frames() {
    // A whole data reel gone: selective restore must rebuild only the
    // offsets the requested table touches, never the whole reel.
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let layout = arc.layout;
    let pristine = v.scan_reels(&arc, 44);
    let data_start = layout.sys_frames() + layout.index_frames();

    // Find a (table, reel) pair where the reel is pure data stream and
    // the table needs some but not all of its frames.
    let mut picked = None;
    'outer: for table in ["lineitem", "orders", "customer", "partsupp"] {
        let Some(entry) = arc.index.find(table) else {
            continue;
        };
        let positions: Vec<usize> = arc
            .index
            .chunk_range(entry)
            .map(|c| layout.chunk_position(StreamId::Data, c))
            .collect();
        for r in 0..layout.content_reels() {
            if r * layout.reel_capacity < data_start {
                continue; // holds sys/index frames: whole-reel territory
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

    let mut scans = pristine.clone();
    scans[lost] = None;
    let entry = arc.index.find(table).unwrap();
    let (bytes, stats) = v.restore_table(&arc.bootstrap, &scans, table).unwrap();
    assert_eq!(stats.path, RestorePath::Selective);
    assert_eq!(
        stats.frames_reconstructed, needed,
        "{table}: exactly the frames the read touches"
    );
    assert!(stats.frames_reconstructed < layout.reel_frames(lost));
    assert_eq!(stats.reels_reconstructed, 1);
    let start = entry.dump_start as usize;
    assert_eq!(bytes, &dump[start..start + entry.dump_len as usize]);
}

#[test]
fn scrub_on_a_clean_shelf_is_a_noop_and_repair_idempotent() {
    let v = vault_m2();
    let arc = v.archive(&dump());
    let mut scans = v.scan_reels(&arc, 45);

    let report = v.scrub(&arc.bootstrap, &scans).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let (clean, correctable, lost) = report.counts();
    assert_eq!(clean, arc.layout.total_reels());
    assert_eq!((correctable, lost), (0, 0));
    for g in &report.groups {
        assert!(g.recoverable);
        assert_eq!(g.parity_mismatch_offsets, 0);
    }

    let before = scans.clone();
    let repair = v.repair(&arc.bootstrap, &mut scans).unwrap();
    assert!(repair.is_noop(), "{repair:?}");
    assert_eq!(repair.frames_reencoded, 0);
    for (a, b) in before.iter().zip(&scans) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.as_bytes(),
                y.as_bytes(),
                "repair must not touch a clean shelf"
            );
        }
    }
}

#[test]
fn scrub_repair_scrub_converges_under_losses_and_damage() {
    let v = vault_m2();
    let dump = dump();
    let arc = v.archive(&dump);
    let layout = arc.layout;
    let mut scans = v.scan_reels(&arc, 46);

    // One reel of group 0 gone, one frame of a sibling blanked.
    scans[0] = None;
    let blank = FaultPlan::single(FrameBlankFault);
    let frames = scans[1].as_mut().unwrap();
    frames[3] = blank.apply(&frames[3..4], 1.0, 5)[0].clone();

    let report = v.scrub(&arc.bootstrap, &scans).unwrap();
    assert!(!report.is_clean());
    let (_, correctable, lost) = report.counts();
    assert_eq!(lost, 1, "the missing reel");
    assert_eq!(correctable, 1, "the blank-frame sibling");
    assert_eq!(report.reels[1].damaged, vec![3]);
    assert!(report.groups[0].recoverable);

    let repair = v.repair(&arc.bootstrap, &mut scans).unwrap();
    assert!(repair.unrepairable.is_empty(), "{repair:?}");
    assert!(repair.reels_rebuilt.contains(&0));
    assert!(repair.reels_rebuilt.contains(&1));
    assert_eq!(repair.frames_reencoded, layout.reel_frames(0) + 1);

    // Convergence: the repaired shelf scrubs clean, a second repair is a
    // no-op, and a restore needs no reconstruction at all.
    let again = v.scrub(&arc.bootstrap, &scans).unwrap();
    assert!(again.is_clean(), "{again:?}");
    assert!(v.repair(&arc.bootstrap, &mut scans).unwrap().is_noop());
    let (restored, stats) = v.restore_all(&arc.bootstrap, &scans).unwrap();
    assert_eq!(restored, dump);
    assert_eq!(stats.reels_reconstructed, 0);
}

#[test]
fn scrub_past_the_budget_reports_lost_and_repair_declines() {
    let v = vault_m2();
    let arc = v.archive(&dump());
    let layout = arc.layout;
    let mut scans = v.scan_reels(&arc, 47);
    let gone = vec![0, 1, 2];
    for &r in &gone {
        scans[r] = None;
    }

    let report = v.scrub(&arc.bootstrap, &scans).unwrap();
    assert!(!report.groups[0].recoverable);
    assert_eq!(report.groups[0].lost, gone);
    let before_len: Vec<usize> = scans
        .iter()
        .map(|r| r.as_ref().map_or(0, |f| f.len()))
        .collect();
    let repair = v.repair(&arc.bootstrap, &mut scans).unwrap();
    for &r in &gone {
        assert!(repair.unrepairable.contains(&r), "{repair:?}");
        assert!(scans[r].is_none(), "unrepairable reel left untouched");
    }
    let after_len: Vec<usize> = scans
        .iter()
        .map(|r| r.as_ref().map_or(0, |f| f.len()))
        .collect();
    assert_eq!(before_len, after_len);
    // Other groups (if any) are untouched and healthy.
    assert!(layout.groups() < 2 || report.groups[1].recoverable);
}

#[test]
fn selective_restore_scans_a_fraction_of_the_shelf() {
    // The E10 economics at test scale: one mid-size table must cost a
    // small fraction of the full-scan frame count (the report gates the
    // production number; this keeps the property in `cargo test`).
    let v = vault();
    let dump = dump();
    let arc = v.archive(&dump);
    let scans = v.scan_reels(&arc, 26);
    let (_, full) = v.restore_all(&arc.bootstrap, &scans).unwrap();
    let (_, sel) = v.restore_table(&arc.bootstrap, &scans, "orders").unwrap();
    assert!(
        sel.frames_decoded * 2 < full.frames_decoded,
        "selective {} vs full {} frames",
        sel.frames_decoded,
        full.frames_decoded
    );
}
