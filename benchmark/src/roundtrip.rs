//! `archive-roundtrip`: a classic `MicrOlonys::test_tiny` archive.
//!
//! Set-up archives a TPC-H SF 0.0001 dump and scans its data and system
//! frames once. A round archives again (frames checked against set-up),
//! restores natively, restores through the archived decoders
//! (`restore_emulated(Threaded, Serial)`: Bootstrap parse, MODecode per
//! frame and DBDecode, all DynaRisc guest code), and walks a small decay
//! ladder on the tiny medium. It is the only workload where guest
//! execution and the write path (compress, encode, print) carry most of the
//! time, so a gain on emblem decode that costs emblem encode shows here.

use ule::emblem::stream::stream_crc32;
use ule::fault::{FaultModel, FaultPlan, FrameLossFault, SaltPepper};
use ule::gf256::crc::crc32;
use ule::olonys::{Bootstrap, EmulationTier, MicrOlonys};
use ule::par::ThreadConfig;
use ule::raster::GrayImage;

use crate::layers::{classic_jobs, frame_crcs, scan_frames, Layers};
use crate::{
    closed_loop, print_named, repeat_setup, setup_threads, timed, Args, Report, Tally, Wrong,
    LADDER_FAULT_SEED, SETUPS,
};

/// TPC-H scale factor of the archived dump.
const SCALE: f64 = 0.0001;

/// The tiny medium's decay ladder: (model, severity), each model once
/// inside and once outside its envelope with a margin that holds for every
/// seed (salt-and-pepper: per-frame inner RS; frame loss: the outer code's
/// three-per-group budget over two groups).
fn ladder() -> Vec<(Box<dyn FaultModel>, f64)> {
    vec![
        (Box::new(SaltPepper), 0.02),
        (Box::new(SaltPepper), 0.06),
        (Box::new(FrameLossFault), 0.08),
        (Box::new(FrameLossFault), 0.5),
    ]
}

struct State {
    dump: Vec<u8>,
    /// Serial system for the measured phases.
    sys: MicrOlonys,
    frames_crc: u32,
    frame_crcs: Vec<u32>,
    bootstrap: Bootstrap,
    bootstrap_text: String,
    data_scans: Vec<GrayImage>,
    /// Data then system scans: what the emulated restore reads.
    all_scans: Vec<GrayImage>,
}

fn setup(seed: u64, layers: Option<&mut Layers>) -> State {
    let dump = ule::tpch::dump_for_scale(SCALE, seed);
    let threads = setup_threads();
    let sys = MicrOlonys::test_tiny();
    let out = sys.clone().with_threads(threads).archive(&dump);
    let scan_seed = seed ^ 0x5CA1_0000;
    let (data_scans, data_ms) = scan_frames(&sys.medium, &out.data_frames, scan_seed, threads);
    let (sys_scans, sys_ms) =
        scan_frames(&sys.medium, &out.system_frames, scan_seed ^ 0x5, threads);
    if let Some(l) = layers {
        for t in data_ms.into_iter().chain(sys_ms) {
            l.write_call("media.scan_ms", "tiny", t);
        }
    }
    let all_scans = data_scans.iter().chain(&sys_scans).cloned().collect();
    State {
        frames_crc: stream_crc32(&out.data_frames),
        frame_crcs: frame_crcs(&out.data_frames),
        bootstrap_text: out.bootstrap.to_text(),
        bootstrap: out.bootstrap,
        dump,
        sys,
        data_scans,
        all_scans,
    }
}

fn fingerprints(st: &State) {
    println!(
        "input dump: {} bytes crc32 {:08x}; {} data + {} system frames, data frames crc32 {:08x}, scans crc32 {:08x}",
        st.dump.len(),
        crc32(&st.dump),
        st.data_scans.len(),
        st.all_scans.len() - st.data_scans.len(),
        st.frames_crc,
        stream_crc32(&st.all_scans)
    );
}

/// Count a structured error; wrong bytes abort.
fn verdict<E>(st: &State, res: Result<Vec<u8>, E>, what: &str) -> Result<bool, Wrong> {
    match res {
        Ok(bytes) if bytes == st.dump => Ok(true),
        Ok(_) => Err(format!("{what} returned wrong bytes")),
        Err(_) => Ok(false),
    }
}

fn emulated(st: &State) -> (Result<Vec<u8>, ule::olonys::RestoreError>, f64) {
    timed(|| {
        MicrOlonys::restore_emulated(
            &st.bootstrap_text,
            &st.all_scans,
            EmulationTier::Threaded,
            ThreadConfig::Serial,
        )
        .map(|(bytes, _)| bytes)
    })
}

fn round(st: &State, t: &mut Tally) -> Result<(), Wrong> {
    let (out, ms) = timed(|| st.sys.archive(&st.dump));
    if stream_crc32(&out.data_frames) != st.frames_crc {
        return Err("archive frames differ from set-up".into());
    }
    t.op("archive", "tiny", ms, st.dump.len() as f64);

    let (res, ms) = timed(|| st.sys.restore_native(&st.data_scans).map(|(b, _)| b));
    if !verdict(st, res, "restore_native")? {
        t.failed += 1;
    }
    t.op("restore", "native", ms, st.data_scans.len() as f64);

    let (res, ms) = emulated(st);
    if !verdict(st, res, "restore_emulated")? {
        t.failed += 1;
    }
    t.op("read", "emulated", ms, st.all_scans.len() as f64);

    for (rung, (model, sev)) in ladder().into_iter().enumerate() {
        let kind = format!("{} {sev}", model.name());
        let scans = decay(st, rung, model, sev);
        let (res, ms) = timed(|| st.sys.restore_native(&scans).map(|(b, _)| b));
        t.decayed_ok += u64::from(verdict(st, res, "ladder restore")?);
        t.op("degraded", kind, ms, scans.len() as f64);
        t.decayed_total += 1;
    }
    Ok(())
}

/// The ladder rung's damaged copy of the data scans (damage placement
/// fixed per rung, as on film-read).
fn decay(st: &State, rung: usize, model: Box<dyn FaultModel>, sev: f64) -> Vec<GrayImage> {
    let mut plan = FaultPlan::new();
    plan.push(model);
    plan.apply(&st.data_scans, sev, LADDER_FAULT_SEED ^ rung as u64)
}

fn traced_round(st: &State, l: &mut Layers) -> Result<(), Wrong> {
    let container = l.probe_compress(&st.sys, &st.dump)?;
    l.probe_bootstrap(&st.sys, &st.bootstrap)?;
    l.probe_write(
        "tiny",
        &st.sys.medium,
        classic_jobs(&st.sys, &container, &st.frame_crcs),
    )?;
    l.probe_dbdecode(&container, &st.dump)?;

    l.probe_pristine(
        "restore_native",
        "tiny restore",
        &st.sys,
        &st.data_scans,
        &st.dump,
    )?;

    // Emulated restore: MODecode is what remains after Bootstrap parse
    // and DBDecode.
    let (res, emulated_ms) = emulated(st);
    if !verdict(st, res, "restore_emulated")? {
        return Err("restore_emulated failed on pristine scans".into());
    }
    let last = |l: &Layers, name: &str| *l.calls[name].last().expect("probed this round");
    let modecode_ms =
        emulated_ms - last(l, "dynarisc.dbdecode_ms") - last(l, "core.bootstrap_parse_ms");
    l.call("dynarisc.restore_emulated_ms", emulated_ms);
    l.call("dynarisc.modecode_ms", modecode_ms);

    for (rung, (model, sev)) in ladder().into_iter().enumerate() {
        let name = model.name();
        let scans = decay(st, rung, model, sev);
        let p = l.probe_restore("tiny ladder", &st.sys, &scans, &st.dump)?;
        l.ladder_outcome(format!("tiny {name} {sev}"), p.ok);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, Wrong> {
    if args.trace {
        let mut l = Layers::default();
        let st = setup(args.seed, Some(&mut l));
        fingerprints(&st);
        round(&st, &mut Tally::default())?;
        closed_loop(args.seconds, || traced_round(&st, &mut l))?;
        return l.report();
    }
    let (st, setups) = repeat_setup(SETUPS, || setup(args.seed, None));
    fingerprints(&st);
    round(&st, &mut Tally::default())?;
    let mut t = Tally::default();
    closed_loop(args.seconds, || round(&st, &mut t))?;
    let report = Report::end_to_end(&setups, &t, "read");
    print_named("emulated_frames_per_s", t.rate("read"), "frames/s");
    Ok(report)
}
