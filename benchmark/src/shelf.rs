//! `shelf-mix`: a seeded operation mix against a zone-mapped vault shelf.
//!
//! Set-up generates a TPC-H SF 0.0002 database, clusters the fact tables
//! on their dates, dumps it, archives the dump with
//! `Vault::sharded(test_tiny, ShardPlan::with_parity(…, 3, 2))` and scans
//! every reel once. A round is one pass of the mix: `restore_table` over
//! every catalogued table, `ShelfQuery` Q1/Q6/Q3 with seeded cutoffs,
//! years and sizes, `list_tables`, degraded reads (one content reel
//! missing), `restore_all`, `scrub`, `repair` of a damaged copy followed by
//! a confirming `scrub`, and one `Vault::archive`. Frames are tiny (~2 ms
//! to decode), so the vault's read path — index read, frame handling, the
//! fallback ladder, chunk decode, per-record decompress, row feeding — is
//! visible next to the pixel layers.

use ule::emblem::decode_emblem;
use ule::emblem::stream::{decode_stream_traced, stream_crc32};
use ule::gf256::crc::crc32;
use ule::obs::Telemetry;
use ule::olonys::MicrOlonys;
use ule::par::ThreadConfig;
use ule::raster::rng::SplitMix64;
use ule::raster::GrayImage;
use ule::tpch::archival::ShelfQuery;
use ule::tpch::queries::{self, ForecastRevenueAcc};
use ule::tpch::Database;
use ule::vault::layout::StreamId;
use ule::vault::zones::{ColumnRange, ZonePredicate};
use ule::vault::{ReelScans, ShardPlan, Vault, VaultArchive};
use ule_bench::cluster_on_dates;

use crate::layers::{frame_crcs, scan_frames, Layers, ReadProbe};
use crate::{
    closed_loop, print_latency, print_named, repeat_setup, setup_threads, stats, timed, Args,
    Report, Tally, Wrong, SETUPS,
};

/// TPC-H scale factor of the shelf's dump.
const SCALE: f64 = 0.0002;

/// Scrub and repair run on every this-many-th pass (the warm-up pass
/// included): they are the slowest operations and feed no gated metric.
const MAINTENANCE_EVERY: usize = 4;

/// Tables read with the reel under them missing, per pass; Q6 over the
/// year below runs with lineitem's reel missing.
const DEGRADED_TABLES: [&str; 2] = ["lineitem", "orders"];
const DEGRADED_Q6_YEAR: &str = "1995";

struct State {
    db: Database,
    dump: Vec<u8>,
    /// Serial vault for the measured phases.
    vault: Vault,
    archive: VaultArchive,
    frames_crc: u32,
    scans: ReelScans,
    tables: Vec<String>,
    /// Passes run so far.
    pass: usize,
}

impl State {
    fn expected(&self, table: &str) -> &[u8] {
        let e = self.archive.index.find(table).expect("catalogued table");
        &self.dump[e.dump_start as usize..(e.dump_start + e.dump_len) as usize]
    }

    /// The content reel holding the middle data chunk of `table`: losing
    /// it forces a degraded read of that table to rebuild frames.
    fn reel_under(&self, table: &str) -> usize {
        let e = self.archive.index.find(table).expect("catalogued table");
        let chunks = self.archive.index.chunk_range(e);
        let mid = chunks.start + (chunks.end - chunks.start) / 2;
        let layout = &self.archive.layout;
        layout.reel_of(layout.chunk_position(StreamId::Data, mid)).0
    }

    fn shelf(&self) -> ShelfQuery<'_> {
        ShelfQuery::new(&self.vault, &self.archive.bootstrap, &self.scans)
    }

    fn total_frames(&self) -> usize {
        self.scans.iter().flatten().map(Vec::len).sum()
    }
}

fn setup(seed: u64, mut layers: Option<&mut Layers>) -> State {
    let mut db = Database::generate(SCALE, seed);
    cluster_on_dates(&mut db);
    let dump = ule::tpch::sql_dump(&db);
    let threads = setup_threads();
    let system = MicrOlonys::test_tiny();
    let total = Vault::single_reel(system.clone())
        .plan_layout(&dump)
        .total_frames();
    let plan = ShardPlan::with_parity(total.div_ceil(6).max(8), 3, 2);
    let archive = Vault::sharded(system.clone().with_threads(threads), plan).archive(&dump);
    let medium = &system.medium;
    let scan_seed = seed ^ 0x5CA1_0000;
    let scans = archive
        .reels
        .iter()
        .map(|r| {
            let (s, ms) = scan_frames(
                medium,
                &r.frames,
                scan_seed ^ ((r.id as u64 + 1) << 32),
                threads,
            );
            if let Some(l) = layers.as_deref_mut() {
                for t in ms {
                    l.write_call("media.scan_ms", "tiny", t);
                }
            }
            Some(s)
        })
        .collect();
    let frames: Vec<GrayImage> = archive
        .reels
        .iter()
        .flat_map(|r| r.frames.clone())
        .collect();
    let tables = archive
        .index
        .tables()
        .iter()
        .map(|t| t.to_string())
        .collect();
    State {
        db,
        frames_crc: stream_crc32(&frames),
        dump,
        vault: Vault::sharded(system, plan),
        archive,
        scans,
        tables,
        pass: 0,
    }
}

fn fingerprints(st: &State) {
    let scans: Vec<GrayImage> = st.scans.iter().flatten().flatten().cloned().collect();
    println!(
        "input dump: {} bytes crc32 {:08x}; shelf: {} reels, {} frames, frames crc32 {:08x}, scans crc32 {:08x}",
        st.dump.len(),
        crc32(&st.dump),
        st.scans.len(),
        scans.len(),
        st.frames_crc,
        stream_crc32(&scans)
    );
}

/// Q1 cutoffs, Q6 years and Q3 sizes: each pass runs every entry once,
/// in a seeded order. A fixed menu keeps each query kind's cost the same
/// across seeds, so per-kind figures compare between runs.
const Q1_CUTOFFS: [&str; 3] = ["1993-06-30", "1995-06-30", "1997-06-30"];
const Q6_YEARS: [&str; 3] = ["1993", "1995", "1997"];
const Q6_MAX_QTY: i64 = 24;
const Q3_SIZES: [usize; 3] = [5, 10, 20];

/// Seeded in-place shuffle (Fisher–Yates).
fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i + 1));
    }
}

/// Count a structured error on an op expected to succeed; wrong bytes
/// abort.
fn settle<T>(t: &mut Tally, res: Result<Option<T>, Wrong>) -> Result<Option<T>, Wrong> {
    let v = res?;
    if v.is_none() {
        t.failed += 1;
    }
    Ok(v)
}

fn check(ok: bool, what: &str) -> Result<(), Wrong> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} returned wrong bytes"))
    }
}

/// `restore_table` against the dump slice; `Some(frames decoded)` on
/// success, `None` on a structured error.
fn restore_table(
    st: &State,
    scans: &ReelScans,
    table: &str,
) -> (Result<Option<usize>, Wrong>, f64) {
    let (res, ms) = timed(|| st.vault.restore_table(&st.archive.bootstrap, scans, table));
    let v = match res {
        Ok((bytes, s)) => check(bytes == st.expected(table), table)
            .map(|_| Some(s.frames_decoded + s.recovery_frames_decoded)),
        Err(_) => Ok(None),
    };
    (v, ms)
}

/// Q6 against the answer on the generated database.
fn q6(st: &State, scans: &ReelScans, year: &str) -> (Result<Option<usize>, Wrong>, f64) {
    let shelf = ShelfQuery::new(&st.vault, &st.archive.bootstrap, scans);
    let (res, ms) = timed(|| shelf.forecast_revenue(year, Q6_MAX_QTY));
    let v = match res {
        Ok((v, s)) => {
            let want = queries::forecast_revenue(&st.db, year, Q6_MAX_QTY).ok();
            check(Some(v) == want, "Q6").map(|_| Some(s.frames_decoded))
        }
        Err(_) => Ok(None),
    };
    (v, ms)
}

/// One pass of the mix.
fn round(st: &mut State, rng: &mut SplitMix64, t: &mut Tally) -> Result<(), Wrong> {
    full_restore_and_archive(st, t)?;
    let mut tables = st.tables.clone();
    shuffle(rng, &mut tables);
    for table in &tables {
        let (res, ms) = restore_table(st, &st.scans, table);
        let frames = settle(t, res)?.unwrap_or(0);
        t.op("read", table.as_str(), ms, frames as f64);
    }
    let mut queries_order: Vec<usize> = (0..3 * Q1_CUTOFFS.len()).collect();
    shuffle(rng, &mut queries_order);
    for q in queries_order {
        let (which, i) = (q / 3, q % 3);
        match which {
            0 => {
                let cutoff = Q1_CUTOFFS[i];
                let (res, ms) = timed(|| st.shelf().pricing_summary(cutoff));
                let frames = match res {
                    Ok((rows, s)) => {
                        let want = queries::pricing_summary(&st.db, cutoff).ok();
                        check(Some(rows) == want, "Q1")?;
                        s.frames_decoded
                    }
                    Err(_) => {
                        t.failed += 1;
                        0
                    }
                };
                t.op("read", format!("q1 {cutoff}"), ms, frames as f64);
            }
            1 => {
                let year = Q6_YEARS[i];
                let (res, ms) = q6(st, &st.scans, year);
                let frames = settle(t, res)?.unwrap_or(0);
                t.op("read", format!("q6 {year}"), ms, frames as f64);
            }
            _ => {
                let n = Q3_SIZES[i];
                let (res, ms) = timed(|| st.shelf().top_customers(n));
                let frames = match res {
                    Ok((top, s)) => {
                        check(top == queries::top_customers(&st.db, n), "Q3")?;
                        s.frames_decoded
                    }
                    Err(_) => {
                        t.failed += 1;
                        0
                    }
                };
                t.op("read", format!("q3 top{n}"), ms, frames as f64);
            }
        }
    }
    let (res, ms) = timed(|| st.vault.list_tables(&st.archive.bootstrap, &st.scans));
    match res {
        Ok((names, _)) => check(names == st.tables, "list_tables")?,
        Err(_) => t.failed += 1,
    }
    t.op("index", "list_tables", ms, 0.0);

    // Degraded reads: the reel under the table goes missing.
    for table in DEGRADED_TABLES {
        let lost = st.reel_under(table);
        let reel = st.scans[lost].take();
        let (res, ms) = restore_table(st, &st.scans, table);
        degraded(t, format!("{table} reel lost"), res, ms)?;
        if table == "lineitem" {
            // ShelfQuery's stats do not count reconstruction frames, so
            // the degraded Q6 is timed and checked but kept out of the
            // frames-per-second class.
            let (res, ms) = q6(st, &st.scans, DEGRADED_Q6_YEAR);
            t.decayed_total += 1;
            t.decayed_ok += u64::from(settle(t, res)?.is_some());
            t.op(
                "degraded_q6",
                format!("{DEGRADED_Q6_YEAR} reel lost"),
                ms,
                0.0,
            );
        }
        st.scans[lost] = reel;
    }

    if st.pass.is_multiple_of(MAINTENANCE_EVERY) {
        scrub(st, "intact", t)?;
        repair(st, rng, t)?;
    }
    st.pass += 1;
    full_restore_and_archive(st, t)
}

/// One `restore_all` and one `Vault::archive`. A pass runs this at its
/// start and at its end, so the samples spread over the run and their
/// lower decile can come from a quiet phase of the machine.
fn full_restore_and_archive(st: &State, t: &mut Tally) -> Result<(), Wrong> {
    let (res, ms) = timed(|| st.vault.restore_all(&st.archive.bootstrap, &st.scans));
    let frames = match res {
        Ok((bytes, s)) => {
            check(bytes == st.dump, "restore_all")?;
            s.frames_decoded
        }
        Err(_) => {
            t.failed += 1;
            0
        }
    };
    t.op("restore", "restore_all", ms, frames as f64);
    let (arc, ms) = timed(|| st.vault.archive(&st.dump));
    let frames: Vec<GrayImage> = arc.reels.into_iter().flat_map(|r| r.frames).collect();
    check(stream_crc32(&frames) == st.frames_crc, "Vault::archive")?;
    t.op("archive", "vault", ms, st.dump.len() as f64);
    Ok(())
}

fn degraded(
    t: &mut Tally,
    kind: String,
    res: Result<Option<usize>, Wrong>,
    ms: f64,
) -> Result<(), Wrong> {
    t.decayed_total += 1;
    let frames = settle(t, res)?;
    t.decayed_ok += u64::from(frames.is_some());
    t.op("degraded", kind, ms, frames.unwrap_or(0) as f64);
    Ok(())
}

/// Scrub the shelf as it stands; it must come back clean.
fn scrub(st: &State, kind: &'static str, t: &mut Tally) -> Result<(), Wrong> {
    let (res, ms) = timed(|| st.vault.scrub(&st.archive.bootstrap, &st.scans));
    match res {
        Ok(report) => check(report.is_clean(), "scrub")?,
        Err(_) => t.failed += 1,
    }
    t.op("scrub", kind, ms, st.total_frames() as f64);
    Ok(())
}

/// Damage a copy of the shelf (one content reel and one parity reel lost),
/// repair it, confirm with a scrub, then put the scanned reels back.
/// Returns the repair's time (ms).
fn repair(st: &mut State, rng: &mut SplitMix64, t: &mut Tally) -> Result<f64, Wrong> {
    let layout = st.archive.layout;
    let content = rng.next_below(layout.content_reels());
    let parity = layout.parity_reel_of(layout.groups() - 1, rng.next_below(layout.group_parity));
    let saved = [
        (content, st.scans[content].take()),
        (parity, st.scans[parity].take()),
    ];
    let (res, ms) = timed(|| st.vault.repair(&st.archive.bootstrap, &mut st.scans));
    let frames = match res {
        Ok(report) => {
            check(
                report.unrepairable.is_empty() && report.frames_reencoded > 0,
                "repair",
            )?;
            report.frames_reencoded
        }
        Err(_) => {
            t.failed += 1;
            0
        }
    };
    t.op("repair", "one content + one parity reel", ms, frames as f64);
    scrub(st, "after repair", t)?;
    for (r, reel) in saved {
        st.scans[r] = reel;
    }
    Ok(ms)
}

/// Shelf positions of the index stream's frames: every selective read
/// decodes all of them first.
fn index_positions(st: &State) -> Vec<usize> {
    let layout = &st.archive.layout;
    (0..layout.index_frames())
        .map(|q| layout.position(StreamId::Index, q))
        .collect()
}

/// Shelf positions of the data frames holding `table`.
fn table_positions(st: &State, table: &str) -> Vec<usize> {
    let layout = &st.archive.layout;
    let e = st.archive.index.find(table).expect("catalogued table");
    st.archive
        .index
        .chunk_range(e)
        .map(|c| layout.chunk_position(StreamId::Data, c))
        .collect()
}

/// Σ of one separately timed `decode_emblem` call per shelf position.
fn decode_sum(st: &State, positions: &[usize]) -> f64 {
    let layout = &st.archive.layout;
    let geom = st.vault.system.medium.geometry;
    positions
        .iter()
        .map(|&p| {
            let (r, o) = layout.reel_of(p);
            let scan = &st.scans[r].as_ref().expect("intact shelf")[o];
            timed(|| decode_emblem(&geom, scan)).1
        })
        .sum()
}

/// A traced pass: the same reads with their layers timed separately.
fn traced_round(st: &mut State, rng: &mut SplitMix64, l: &mut Layers) -> Result<(), Wrong> {
    let sys = st.vault.system.clone();
    let geom = sys.medium.geometry;
    let layout = st.archive.layout;

    // Every frame of the shelf through the decode probes.
    for scan in st.scans.iter().flatten().flatten() {
        l.frame("tiny shelf").probe(&geom, scan)?;
    }
    let per_frame = l.decode_ms_per_frame("tiny");

    // Index stream with its first frame lost, so the outer code rebuilds
    // it; the program's own span times the recovery.
    let index_scans: Vec<GrayImage> = (1..layout.index_frames())
        .map(|e| {
            let (r, o) = layout.reel_of(layout.position(StreamId::Index, e));
            st.scans[r].as_ref().expect("intact shelf")[o].clone()
        })
        .collect();
    let tel = Telemetry::enabled();
    let (index, stats) = decode_stream_traced(&geom, &index_scans, ThreadConfig::Serial, &tel)
        .map_err(|e| format!("index stream: {e}"))?;
    check(index == st.archive.index.to_bytes(), "index stream")?;
    let recovery = tel
        .snapshot()
        .spans
        .get("scan.decode.outer_recovery")
        .copied();
    let recovery = recovery.ok_or("index stream decoded without outer recovery")?;
    l.call("emblem.outer_recovery_ms", recovery.wall_ns as f64 / 1e6);
    l.erasure_frames.push(stats.erasure_frames);

    // Write path: re-encode the index stream's data emblems.
    let index_bytes = st.archive.index.to_bytes();
    let cap = layout.chunk_cap;
    let jobs: Vec<_> = index_bytes
        .chunks(cap)
        .enumerate()
        .map(|(c, chunk)| {
            let pos = layout.chunk_position(StreamId::Index, c);
            let (r, o) = layout.reel_of(pos);
            let crc = frame_crcs(&st.archive.reels[r].frames[o..=o])[0];
            (layout.frame_info(pos).header, chunk, crc)
        })
        .collect();
    l.probe_write("tiny", &sys.medium, jobs)?;
    l.probe_bootstrap(&sys, &st.archive.bootstrap)?;

    // Per-table records: compress/decompress, DBDecode on the threaded
    // engine, and restore_table reconciled against its layers and timed
    // again with the program's telemetry on.
    let traced = st.vault.clone().with_telemetry(Telemetry::enabled());
    for table in st.tables.clone() {
        let expected = st.expected(&table).to_vec();
        let container = l.probe_compress(&sys, &expected)?;
        let decompress_ms = *l.calls["compress.decompress_ms"]
            .last()
            .expect("just timed");
        if table == "orders" {
            l.probe_dbdecode(&container, &expected)?;
        }
        let untraced = || {
            let (res, ms) = timed(|| {
                st.vault
                    .restore_table(&st.archive.bootstrap, &st.scans, &table)
            });
            let (bytes, s) = res.map_err(|e| format!("{table}: {e}"))?;
            check(bytes == expected, &table).map(|_| (s, ms))
        };
        // The op runs once before its frames' decodes are timed and twice
        // after; the median is the op time (see `Layers::probe_pristine`).
        let (s, before) = untraced()?;
        let layer_sum_ms = decode_sum(st, &index_positions(st))
            + decode_sum(st, &table_positions(st, &table))
            + decompress_ms;
        let op_ms = stats::median(&[before, untraced()?.1, untraced()?.1]);
        let (res, traced_ms) =
            timed(|| traced.restore_table(&st.archive.bootstrap, &st.scans, &table));
        check(res.is_ok_and(|(b, _)| b == expected), &table)?;
        l.reads.push(ReadProbe {
            class: "restore_table".into(),
            op_ms,
            frames_decoded: s.frames_decoded,
            frames_total: s.data_frames_total,
            decode_ms_per_frame: per_frame,
            traced_ms,
            layer_sum_ms,
        });
    }

    // Q6: the index frames' decodes, its lineitem frames at lineitem's
    // mean decode time (which zones it reads is the vault's choice) and
    // the decompress of the share of lineitem it touched are the layer
    // sum. ShelfQuery minus the bare query_table scan of the same
    // predicate is the row feed, printed but left out of the sum (it is a
    // remainder of this very op).
    let lineitem = st.expected("lineitem").to_vec();
    let container = ule::compress::compress(sys.scheme, &lineitem);
    let lineitem_positions = table_positions(st, "lineitem");
    let index = index_positions(st);
    for year in Q6_YEARS {
        let untraced = || {
            let (res, ms) = q6(st, &st.scans, year);
            res?.ok_or("Q6 failed on an intact shelf")?;
            Ok::<_, Wrong>(ms)
        };
        let before = untraced()?;
        let lineitem_per_frame =
            decode_sum(st, &lineitem_positions) / lineitem_positions.len() as f64;
        let index_ms = decode_sum(st, &index);
        let (_, lineitem_decompress) = timed(|| ule::compress::decompress(&container));
        let op_ms = stats::median(&[before, untraced()?, untraced()?]);
        let acc = ForecastRevenueAcc::new(year, Q6_MAX_QTY).map_err(|e| e.to_string())?;
        let (lo, hi) = acc.date_window();
        let pred = ZonePredicate::all()
            .with(ColumnRange::between("l_shipdate", lo, hi))
            .with(ColumnRange::at_most(
                "l_quantity",
                &(Q6_MAX_QTY - 1).to_string(),
            ));
        let (res, scan_ms) = timed(|| {
            st.vault
                .query_table(&st.archive.bootstrap, &st.scans, "lineitem", &pred)
        });
        let (_, q) = res.map_err(|e| format!("query_table: {e}"))?;
        let feed_ms = op_ms - scan_ms;
        l.call("tpch.feed_ms", feed_ms);
        l.call(
            "vault.zones_pruned_ratio",
            q.zones_pruned as f64 / q.zones_total.max(1) as f64,
        );
        let shelf = ShelfQuery::new(&traced, &st.archive.bootstrap, &st.scans);
        let (res, traced_ms) = timed(|| shelf.forecast_revenue(year, Q6_MAX_QTY));
        let want = queries::forecast_revenue(&st.db, year, Q6_MAX_QTY).ok();
        check(res.ok().map(|(v, _)| v) == want, "traced Q6")?;
        let touched = q.bytes_touched as f64 / lineitem.len() as f64;
        l.reads.push(ReadProbe {
            class: "query_q6".into(),
            op_ms,
            frames_decoded: q.restore.frames_decoded,
            frames_total: q.restore.data_frames_total,
            decode_ms_per_frame: per_frame,
            traced_ms,
            layer_sum_ms: index_ms
                + q.restore.frames_decoded.saturating_sub(index.len()) as f64 * lineitem_per_frame
                + lineitem_decompress * touched,
        });
    }

    // Whole-op vault layers.
    let (res, ms) = timed(|| st.vault.list_tables(&st.archive.bootstrap, &st.scans));
    check(
        res.map(|(n, _)| n == st.tables).unwrap_or(false),
        "list_tables",
    )?;
    l.call("vault.list_tables_ms", ms);
    let (res, ms) = timed(|| st.vault.restore_all(&st.archive.bootstrap, &st.scans));
    check(
        res.map(|(b, _)| b == st.dump).unwrap_or(false),
        "restore_all",
    )?;
    l.call("vault.restore_all_ms", ms);
    for table in ["lineitem", "orders"] {
        let lost = st.reel_under(table);
        let reel = st.scans[lost].take();
        let (res, ms) = timed(|| {
            st.vault
                .restore_table(&st.archive.bootstrap, &st.scans, table)
        });
        st.scans[lost] = reel;
        let (bytes, s) = res.map_err(|e| format!("degraded {table}: {e}"))?;
        check(bytes == st.expected(table), table)?;
        l.call("vault.degraded_read_ms", ms);
        l.call(
            "vault.recovery_frames_per_read",
            s.recovery_frames_decoded as f64,
        );
    }
    let (res, ms) = timed(|| st.vault.scrub(&st.archive.bootstrap, &st.scans));
    check(res.map(|r| r.is_clean()).unwrap_or(false), "scrub")?;
    l.call("vault.scrub_ms", ms);
    let ms = repair(st, rng, &mut Tally::default())?;
    l.call("vault.repair_ms", ms);
    let (arc, ms) = timed(|| st.vault.archive(&st.dump));
    let frames: Vec<GrayImage> = arc.reels.into_iter().flat_map(|r| r.frames).collect();
    check(stream_crc32(&frames) == st.frames_crc, "Vault::archive")?;
    l.call("vault.archive_ms", ms);
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, Wrong> {
    let mut rng = SplitMix64::new(args.seed ^ 0x5E1F_0000);
    if args.trace {
        let mut l = Layers::default();
        let mut st = setup(args.seed, Some(&mut l));
        fingerprints(&st);
        round(&mut st, &mut rng, &mut Tally::default())?;
        closed_loop(args.seconds, || traced_round(&mut st, &mut rng, &mut l))?;
        return l.report();
    }
    let (mut st, setups) = repeat_setup(SETUPS, || setup(args.seed, None));
    fingerprints(&st);
    round(&mut st, &mut rng, &mut Tally::default())?;
    let mut t = Tally::default();
    closed_loop(args.seconds, || round(&mut st, &mut rng, &mut t))?;
    let report = Report::end_to_end(&setups, &t, "read");
    print_latency("table_restore", &t.samples("read", |k| !k.starts_with('q')));
    print_latency("query", &t.samples("read", |k| k.starts_with('q')));
    let mut degraded = t.samples("degraded", |_| true);
    degraded.extend(t.samples("degraded_q6", |_| true));
    print_latency("degraded_read", &degraded);
    print_named("scrub_frames_per_s", t.rate("scrub"), "frames/s");
    print_named("repair_frames_per_s", t.rate("repair"), "frames/s");
    Ok(report)
}
