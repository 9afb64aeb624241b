//! `film-read`: classic Micr'Olonys archives on the three production media.
//!
//! Set-up archives one TPC-H SF 0.0001 dump per medium (one data emblem
//! plus three outer-parity emblems each), prints and scans every frame
//! once. A round re-archives on each medium, restores each medium natively
//! from the pristine scans (film has no selective read path, so these
//! restores are its reads too), and walks the decay ladder: `ule_fault` models
//! applied to the cached scans at severities on both sides of the
//! EXPERIMENTS.md E9 brackets, each restored natively. The pixel layers do
//! nearly all the work; vault and DynaRisc do none.

use ule::emblem::stream::stream_crc32;
use ule::fault::{
    Blotch, BurstScratch, FaultModel, FaultPlan, FrameLossFault, Orientation, SaltPepper,
};
use ule::gf256::crc::crc32;
use ule::media::Medium;
use ule::olonys::{Bootstrap, MicrOlonys};
use ule::raster::GrayImage;

use crate::layers::{classic_jobs, frame_crcs, scan_frames, Layers};
use crate::{
    closed_loop, repeat_setup, setup_threads, timed, Args, Report, Tally, Wrong, LADDER_FAULT_SEED,
};

/// TPC-H scale factor of the archived dump.
const SCALE: f64 = 0.0001;

/// Set-ups per run: two, not the usual three, because scanning twelve
/// production frames makes this the slowest set-up by far.
const FILM_SETUPS: usize = 2;

/// Pristine-restore passes per round; the lower decile of each medium's
/// samples is what the throughputs use.
const RESTORES: usize = 2;

/// The production media, with their metric labels.
fn media() -> [(&'static str, Medium); 3] {
    [
        ("cinema", Medium::cinema_35mm()),
        ("microfilm", Medium::microfilm_16mm()),
        ("a4", Medium::paper_a4_600dpi()),
    ]
}

/// One rung of the decay ladder: (medium index, fault model, severity).
/// Each model sits once at or below its E9 max-ok bracket and once at or
/// above its min-fail bracket; with the damage placed the same way for
/// every seed (see `decay`) each rung's outcome is the same for every
/// seed, and the ladder flags a change that moves a bracket across a rung.
fn ladder() -> Vec<(usize, Box<dyn FaultModel>, f64)> {
    let v = || -> Box<dyn FaultModel> {
        Box::new(BurstScratch {
            orientation: Orientation::Vertical,
        })
    };
    vec![
        (1, v(), 0.02),
        (1, v(), 0.05),
        (1, Box::new(FrameLossFault), 0.75),
        (1, Box::new(FrameLossFault), 1.0),
        (0, Box::new(SaltPepper), 0.02),
        (0, Box::new(SaltPepper), 0.06),
        (0, Box::new(Blotch), 0.02),
        (0, Box::new(Blotch), 0.10),
    ]
}

/// One medium's archive and its cached scans.
struct Film {
    label: &'static str,
    /// Serial system for the measured phases.
    sys: MicrOlonys,
    frames_crc: u32,
    frame_crcs: Vec<u32>,
    bootstrap: Bootstrap,
    scans: Vec<GrayImage>,
}

struct State {
    dump: Vec<u8>,
    films: Vec<Film>,
}

/// Build the dump, archive it on every medium, print and scan every frame.
/// With `layers`, each scan call's time is recorded.
fn setup(seed: u64, mut layers: Option<&mut Layers>) -> State {
    let dump = ule::tpch::dump_for_scale(SCALE, seed);
    let threads = setup_threads();
    let films = media()
        .into_iter()
        .enumerate()
        .map(|(i, (label, medium))| {
            let sys = MicrOlonys {
                medium: medium.clone(),
                ..MicrOlonys::paper_default()
            };
            let out = sys.clone().with_threads(threads).archive(&dump);
            let scan_seed = seed ^ 0x5CA1_0000 ^ i as u64;
            let (scans, ms) = scan_frames(&medium, &out.data_frames, scan_seed, threads);
            if let Some(l) = layers.as_deref_mut() {
                for t in ms {
                    l.write_call("media.scan_ms", label, t);
                }
            }
            Film {
                label,
                sys,
                frames_crc: stream_crc32(&out.data_frames),
                frame_crcs: frame_crcs(&out.data_frames),
                bootstrap: out.bootstrap,
                scans,
            }
        })
        .collect();
    State { dump, films }
}

fn fingerprints(st: &State) {
    println!(
        "input dump: {} bytes crc32 {:08x}",
        st.dump.len(),
        crc32(&st.dump)
    );
    for f in &st.films {
        println!(
            "input {}: {} frames, frames crc32 {:08x}, scans crc32 {:08x}",
            f.label,
            f.scans.len(),
            f.frames_crc,
            stream_crc32(&f.scans)
        );
    }
}

/// The ladder rung's damaged copy of the cached scans. Where the damage
/// lands is fixed per rung, as in E9: scratches and blotches kill a frame
/// or not by position, so a seed-dependent placement would flip rungs
/// between seeds by chance.
fn decay(film: &Film, rung: usize, model: Box<dyn FaultModel>, sev: f64) -> Vec<GrayImage> {
    let mut plan = FaultPlan::new();
    plan.push(model);
    plan.apply(&film.scans, sev, LADDER_FAULT_SEED ^ rung as u64)
}

/// Archive on `film`'s medium; the frames must match set-up's.
fn archive(st: &State, film: &Film, t: &mut Tally) -> Result<(), Wrong> {
    let (out, ms) = timed(|| film.sys.archive(&st.dump));
    if stream_crc32(&out.data_frames) != film.frames_crc {
        return Err(format!("{}: archive frames differ from set-up", film.label));
    }
    t.op("archive", film.label, ms, st.dump.len() as f64);
    Ok(())
}

/// Native restore of `scans`: `Ok(true)` bit-exact, `Ok(false)` a
/// structured error, `Err` wrong bytes.
fn restore(st: &State, film: &Film, scans: &[GrayImage]) -> (Result<bool, Wrong>, f64) {
    let (res, ms) = timed(|| film.sys.restore_native(scans));
    let verdict = match res {
        Ok((bytes, _)) if bytes == st.dump => Ok(true),
        Ok(_) => Err(format!("{}: restore returned wrong bytes", film.label)),
        Err(_) => Ok(false),
    };
    (verdict, ms)
}

/// One round. The archive and pristine-restore passes are spread through
/// the round, between ladder rungs, so that their lower decile can come
/// from a quiet phase of the machine; archives, the cheapest ops, run
/// every second rung.
fn round(st: &State, t: &mut Tally) -> Result<(), Wrong> {
    let rungs = ladder();
    let half = rungs.len() / RESTORES;
    for (rung, (m, model, sev)) in rungs.into_iter().enumerate() {
        if rung % 2 == 0 {
            archive_pass(st, t)?;
        }
        if rung % half == 0 {
            restore_pass(st, t)?;
        }
        let film = &st.films[m];
        let kind = format!("{} {} {sev}", film.label, model.name());
        let scans = decay(film, rung, model, sev);
        let (ok, ms) = restore(st, film, &scans);
        t.op("degraded", kind, ms, scans.len() as f64);
        t.decayed_total += 1;
        t.decayed_ok += u64::from(ok?);
    }
    archive_pass(st, t)
}

fn archive_pass(st: &State, t: &mut Tally) -> Result<(), Wrong> {
    for film in &st.films {
        archive(st, film, t)?;
    }
    Ok(())
}

fn restore_pass(st: &State, t: &mut Tally) -> Result<(), Wrong> {
    for film in &st.films {
        let (ok, ms) = restore(st, film, &film.scans);
        if !ok? {
            t.failed += 1;
        }
        t.op("restore", film.label, ms, film.scans.len() as f64);
    }
    Ok(())
}

/// A traced round: every restore decomposed into its layer calls.
fn traced_round(st: &State, l: &mut Layers) -> Result<(), Wrong> {
    for film in &st.films {
        let container = l.probe_compress(&film.sys, &st.dump)?;
        l.probe_bootstrap(&film.sys, &film.bootstrap)?;
        let jobs = classic_jobs(&film.sys, &container, &film.frame_crcs);
        l.probe_write(film.label, &film.sys.medium, jobs)?;
        if film.label == "cinema" {
            l.probe_dbdecode(&container, &st.dump)?;
        }
        l.probe_pristine(
            &format!("{} restore_native", film.label),
            &format!("{} restore", film.label),
            &film.sys,
            &film.scans,
            &st.dump,
        )?;
    }
    for (rung, (m, model, sev)) in ladder().into_iter().enumerate() {
        let film = &st.films[m];
        let name = model.name();
        let scans = decay(film, rung, model, sev);
        let key = format!("{} ladder", film.label);
        let p = l.probe_restore(&key, &film.sys, &scans, &st.dump)?;
        l.ladder_outcome(format!("{} {name} {sev}", film.label), p.ok);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, Wrong> {
    if args.trace {
        let mut l = Layers::default();
        let st = setup(args.seed, Some(&mut l));
        fingerprints(&st);
        warm_up(&st)?;
        closed_loop(args.seconds, || traced_round(&st, &mut l))?;
        let report = l.report()?;
        locate_share(&l)?;
        return Ok(report);
    }
    let (st, setups) = repeat_setup(FILM_SETUPS, || setup(args.seed, None));
    fingerprints(&st);
    let mut t = Tally::default();
    warm_up(&st)?;
    closed_loop(args.seconds, || round(&st, &mut t))?;
    Ok(Report::end_to_end(&setups, &t, "restore"))
}

/// Untimed warm-up: one archive per medium (so the heap has grown to
/// what archiving needs) and one restore on the cheapest medium.
fn warm_up(st: &State) -> Result<(), Wrong> {
    for film in &st.films {
        archive(st, film, &mut Tally::default())?;
    }
    let film = &st.films[0];
    match restore(st, film, &film.scans).0? {
        true => Ok(()),
        false => Err("warm-up restore failed".into()),
    }
}

/// Shape check on the layer table: border location is at least 60% of
/// per-frame decode on every production medium, or the run fails.
fn locate_share(l: &Layers) -> Result<(), Wrong> {
    for (label, _) in media() {
        let f = l
            .frames
            .get(&format!("{label} restore"))
            .ok_or_else(|| format!("{label}: no traced restore"))?;
        let share = 100.0 * f.locate_ms / f.decode_ms;
        println!("{label}: emblem.locate_ms is {share:.1}% of emblem.decode_ms (must be ≥60%)");
        if share < 60.0 {
            return Err(format!(
                "{label}: emblem.locate_ms is only {share:.1}% of emblem.decode_ms"
            ));
        }
    }
    Ok(())
}
