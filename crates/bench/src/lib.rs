//! Shared workload builders for the evaluation report (system **S13**).
//!
//! Every table and figure in the paper's evaluation (§4) maps to one
//! section of the `report` binary — see the experiment index in
//! `DESIGN.md` and the recorded results in `EXPERIMENTS.md`.

use std::sync::Arc;
use ule_emblem::{
    decode_stream, encode_emblem, stream::stream_emissions, EmblemGeometry, EmblemHeader,
    EmblemKind,
};
use ule_fault::{
    Blotch, BurstScratch, ContrastFade, EdgeTear, EnvelopeCase, FaultModel, FaultPlan,
    FrameLossFault, FrameReorderFault, Orientation, SaltPepper,
};
use ule_media::Medium;
use ule_raster::GrayImage;

pub mod scalar;

/// Deterministic pseudo-random payload of `n` bytes (incompressible-ish).
pub fn random_payload(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// The synthetic 102 400-byte stand-in for the paper's logo TIFF (E2/E3).
pub fn logo_payload() -> Vec<u8> {
    let mut img = GrayImage::new(320, 320, 255);
    for y in 0..320usize {
        for x in 0..320usize {
            let dx = x as f64 - 160.0;
            let dy = y as f64 - 160.0;
            let r = (dx * dx + dy * dy).sqrt();
            if (60.0..90.0).contains(&r) || (110.0..130.0).contains(&r) {
                img.set(x, y, 0);
            }
        }
    }
    img.into_raw()
}

/// One filled emblem image for a geometry (max payload).
pub fn sample_emblem(geom: &EmblemGeometry, seed: u64) -> (GrayImage, Vec<u8>, EmblemHeader) {
    let payload = random_payload(geom.payload_capacity(), seed);
    let header = EmblemHeader::new(
        EmblemKind::Data,
        0,
        0,
        payload.len() as u32,
        payload.len() as u32,
    );
    (encode_emblem(geom, &header, &payload), payload, header)
}

/// Paint a fraction of an emblem's *data region* with a corrupting pattern
/// (localised damage), mimicking §3.1's "damaged data within a single
/// emblem" figure. Returns the damaged copy.
pub fn damage_emblem(
    img: &GrayImage,
    geom: &EmblemGeometry,
    fraction: f64,
    seed: u64,
) -> GrayImage {
    use ule_emblem::geometry::{EDGE_CELLS, OVERHEAD_ROWS, QUIET_CELLS};
    let mut out = img.clone();
    let cp = geom.cell_px;
    let origin = (QUIET_CELLS + EDGE_CELLS) * cp;
    let data_rows = geom.rows - OVERHEAD_ROWS;
    let region_h = data_rows * cp;
    let region_w = geom.cols * cp;
    let band_h = ((region_h as f64) * fraction) as usize;
    let y0 = origin + OVERHEAD_ROWS * cp + (seed as usize % (region_h.saturating_sub(band_h) + 1));
    for y in y0..(y0 + band_h).min(img.height()) {
        for x in origin..(origin + region_w).min(img.width()) {
            out.set(x, y, if (x / cp + y / cp) % 2 == 0 { 0 } else { 255 });
        }
    }
    out
}

/// The E9 fault-model sweep: every model in the standard zoo paired with
/// the severity its §3.1-anchored gate must survive.
///
/// Area-fraction models (horizontal scratches, blotches) target 4% — under
/// the paper's 7.2% intra-emblem byte boundary with the margin E4 measured
/// for area damage (bit-exact through 6.0%). Vertical scratches target 2%:
/// a narrow band clips every 16-cell byte it crosses, amplifying area into
/// byte damage by roughly `(w + byte_width) / w`, and the measured
/// boundary on the finest-pitch medium (cinema 2K) sits at ~2.5–3%.
/// Salt-and-pepper targets 3% of *pixels* flipped (cell means absorb most
/// specks; the fine-pitch boundary is ~3–4%). [`ContrastFade`]'s axis is
/// dynamic range lost (Otsu thresholding keeps decoding past 50%; 30% is
/// the conservative gate). [`EdgeTear`] and [`FrameLossFault`] kill whole
/// frames, so the outer code's any-3-per-group budget gates them: on the
/// 5-frame E9 workload (2 data + 3 parity) that is severity 0.6 for loss
/// and 0.4 (2 torn frames) for tears. Reordering alone must never break a
/// restorer — a full axis. `EXPERIMENTS.md` E9 records the measured
/// brackets behind these numbers.
pub fn e9_model_sweep() -> Vec<(Box<dyn FaultModel>, f64)> {
    vec![
        (
            Box::new(BurstScratch {
                orientation: Orientation::Vertical,
            }),
            0.02,
        ),
        (
            Box::new(BurstScratch {
                orientation: Orientation::Horizontal,
            }),
            0.04,
        ),
        (Box::new(Blotch), 0.04),
        (Box::new(EdgeTear), 0.40),
        (Box::new(SaltPepper), 0.03),
        (Box::new(ContrastFade), 0.30),
        (Box::new(FrameLossFault), 0.60),
        (Box::new(FrameReorderFault), 1.0),
    ]
}

/// The scans and payload of one E9 workload: a 2-data + 3-parity emblem
/// group printed and scanned on `medium`. Scans are computed once and
/// shared (`Arc`) across every envelope trial — physical decay varies per
/// trial, the scanner pass does not.
pub struct E9Workload {
    pub medium: Medium,
    pub payload: Arc<Vec<u8>>,
    pub scans: Arc<Vec<GrayImage>>,
}

impl E9Workload {
    pub fn new(medium: Medium, seed: u64) -> Self {
        let geom = medium.geometry;
        let payload = random_payload(geom.payload_capacity() + 500, seed);
        let serial = ule_par::ThreadConfig::Serial;
        let emissions = stream_emissions(
            &geom,
            EmblemKind::Data,
            &payload,
            true,
            serial,
            &ule_obs::Telemetry::off(),
        );
        let frames = medium.render(&emissions, serial);
        let scans = medium.scan_all(&frames, seed ^ 0xE9, serial);
        Self {
            medium,
            payload: Arc::new(payload),
            scans: Arc::new(scans),
        }
    }

    /// One [`EnvelopeCase`] per model in [`e9_model_sweep`]: inject the
    /// fault into the cached scans at the probed severity, run the full
    /// native restore, demand bit-exact payload recovery. Each trial is
    /// deterministic in `(model, severity)` — the campaign is replayable.
    pub fn cases(&self) -> Vec<EnvelopeCase> {
        e9_model_sweep()
            .into_iter()
            .map(|(model, target)| {
                let label = format!("{}/{}", self.medium.name, model.name());
                let mut plan = FaultPlan::new();
                plan.push(model);
                let geom = self.medium.geometry;
                let scans = Arc::clone(&self.scans);
                let payload = Arc::clone(&self.payload);
                EnvelopeCase::new(label, target, move |severity| {
                    let faulted = plan.apply(&scans, severity, 0xE9C0_FFEE);
                    match decode_stream(&geom, &faulted) {
                        Ok((restored, _)) => restored == **payload,
                        Err(_) => false,
                    }
                })
            })
            .collect()
    }
}

/// The E10 workload: a TPC-H dump archived as a parity-sharded vault on
/// the fine-grained tiny medium (so the archive spans enough frames for
/// frames-scanned fractions to be meaningful), with pristine reel scans
/// cached for the selective-restore / lost-reel measurements.
pub struct E10Workload {
    pub vault: ule_vault::Vault,
    pub dump: Vec<u8>,
    pub archive: ule_vault::VaultArchive,
    pub scans: ule_vault::ReelScans,
}

impl E10Workload {
    /// Build the workload at TPC-H `scale`. Reel capacity is chosen so
    /// the shelf holds ~6 content reels in 3-reel parity groups.
    pub fn new(scale: f64, seed: u64, threads: ule_par::ThreadConfig) -> Self {
        let dump = ule_tpch::dump_for_scale(scale, seed);
        let system = micr_olonys::MicrOlonys::test_tiny().with_threads(threads);
        // Size the shelf from the byte-level plan (no frames rendered) to
        // pick a capacity giving ~6 content reels (min 8 frames so tiny
        // dumps still shard).
        let total = ule_vault::Vault::single_reel(system.clone())
            .plan_layout(&dump)
            .total_frames();
        let vault = ule_vault::Vault::sharded(
            system,
            ule_vault::ShardPlan::single_parity(total.div_ceil(6).max(8), 3),
        );
        let archive = vault.archive(&dump);
        let scans = vault.scan_reels(&archive, seed ^ 0xE10);
        Self {
            vault,
            dump,
            archive,
            scans,
        }
    }

    /// The dump slice the catalog maps `table` to — what a selective
    /// restore must reproduce byte for byte.
    pub fn expected_table(&self, table: &str) -> Option<&[u8]> {
        let e = self.archive.index.find(table)?;
        Some(&self.dump[e.dump_start as usize..(e.dump_start + e.dump_len) as usize])
    }
}

/// Cluster the fact tables on their date predicate columns before
/// dumping. TPC-H dates are uniform per row, so in generation order every
/// zone spans the whole 1992–1998 window and a date range prunes nothing;
/// `COPY` row order is semantically irrelevant, so an archival dump is
/// free to choose the order that makes its zone maps selective — the
/// archival analogue of clustering a table on its partition key.
pub fn cluster_on_dates(db: &mut ule_tpch::Database) {
    for (name, col) in [("lineitem", "l_shipdate"), ("orders", "o_orderdate")] {
        if let Some(t) = db.tables.iter_mut().find(|t| t.name == name) {
            if let Some(ci) = t.columns.iter().position(|c| *c == col) {
                t.rows
                    .sort_by(|a, b| a[ci].cmp(&b[ci]).then_with(|| a.cmp(b)));
            }
        }
    }
}

/// The E13 workload: a date-clustered TPC-H dump archived as a zone-mapped
/// vault, with the generating [`ule_tpch::Database`] kept around as the
/// answer-identity oracle for the streaming queries.
pub struct E13Workload {
    pub vault: ule_vault::Vault,
    pub db: ule_tpch::Database,
    pub dump: Vec<u8>,
    pub archive: ule_vault::VaultArchive,
    pub scans: ule_vault::ReelScans,
}

impl E13Workload {
    pub fn new(scale: f64, seed: u64, threads: ule_par::ThreadConfig) -> Self {
        let mut db = ule_tpch::Database::generate(scale, seed);
        cluster_on_dates(&mut db);
        let dump = ule_tpch::sql_dump(&db);
        let system = micr_olonys::MicrOlonys::test_tiny().with_threads(threads);
        let total = ule_vault::Vault::single_reel(system.clone())
            .plan_layout(&dump)
            .total_frames();
        let vault = ule_vault::Vault::sharded(
            system,
            ule_vault::ShardPlan::single_parity(total.div_ceil(6).max(8), 3),
        );
        let archive = vault.archive(&dump);
        let scans = vault.scan_reels(&archive, seed ^ 0xE13);
        Self {
            vault,
            db,
            dump,
            archive,
            scans,
        }
    }

    /// The queryable shelf over the cached scans.
    pub fn shelf(&self) -> ule_tpch::archival::ShelfQuery<'_> {
        ule_tpch::archival::ShelfQuery::new(&self.vault, &self.archive.bootstrap, &self.scans)
    }

    /// The same dump archived *without* zone maps — the PR-4-era
    /// composition the no-zones fallback must answer identically on.
    pub fn plain(
        &self,
    ) -> (
        ule_vault::Vault,
        ule_vault::VaultArchive,
        ule_vault::ReelScans,
    ) {
        let vault =
            ule_vault::Vault::sharded(self.vault.system.clone(), self.vault.plan).without_zones();
        let archive = vault.archive(&self.dump);
        let scans = vault.scan_reels(&archive, 0x13E);
        (vault, archive, scans)
    }
}

/// The E15 workload: the E10 shelf re-sharded as RS(5, 3) reel groups —
/// three content reels plus **two** parity reels per group — so the
/// repair gate can sweep 0..=m+1 simultaneous reel losses and exercise
/// `Vault::scrub` / `Vault::repair` (`DESIGN.md` §16).
pub struct E15Workload {
    pub vault: ule_vault::Vault,
    pub dump: Vec<u8>,
    pub archive: ule_vault::VaultArchive,
    pub scans: ule_vault::ReelScans,
}

impl E15Workload {
    /// Build the workload at TPC-H `scale` with m = 2 parity reels per
    /// 3-reel group. Capacity sizing mirrors [`E10Workload::new`].
    pub fn new(scale: f64, seed: u64, threads: ule_par::ThreadConfig) -> Self {
        let dump = ule_tpch::dump_for_scale(scale, seed);
        let system = micr_olonys::MicrOlonys::test_tiny().with_threads(threads);
        let total = ule_vault::Vault::single_reel(system.clone())
            .plan_layout(&dump)
            .total_frames();
        let vault = ule_vault::Vault::sharded(
            system,
            ule_vault::ShardPlan::with_parity(total.div_ceil(6).max(8), 3, 2),
        );
        let archive = vault.archive(&dump);
        let scans = vault.scan_reels(&archive, seed ^ 0xE15);
        Self {
            vault,
            dump,
            archive,
            scans,
        }
    }

    /// The dump slice the catalog maps `table` to.
    pub fn expected_table(&self, table: &str) -> Option<&[u8]> {
        let e = self.archive.index.find(table)?;
        Some(&self.dump[e.dump_start as usize..(e.dump_start + e.dump_len) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logo_payload_is_102kb() {
        assert_eq!(logo_payload().len(), 102_400);
    }

    #[test]
    fn damage_is_bounded_to_data_region() {
        let geom = EmblemGeometry::test_small();
        let (img, _, _) = sample_emblem(&geom, 1);
        let damaged = damage_emblem(&img, &geom, 0.05, 3);
        let changed = img.diff_fraction(&damaged);
        assert!(changed > 0.0 && changed < 0.10, "changed {changed}");
    }

    #[test]
    fn random_payload_deterministic() {
        assert_eq!(random_payload(64, 5), random_payload(64, 5));
        assert_ne!(random_payload(64, 5), random_payload(64, 6));
    }

    #[test]
    fn e10_workload_is_sharded_and_selective_restore_is_cheap() {
        let w = E10Workload::new(0.0001, 7, ule_par::ThreadConfig::Serial);
        assert!(w.archive.stats.content_reels >= 2);
        assert!(w.archive.stats.parity_reels >= 1);
        let (bytes, stats) = w
            .vault
            .restore_table(&w.archive.bootstrap, &w.scans, "orders")
            .unwrap();
        assert_eq!(bytes.as_slice(), w.expected_table("orders").unwrap());
        assert!(stats.frames_decoded < stats.data_frames_total);
    }

    #[test]
    fn e15_workload_survives_two_losses_per_group() {
        let w = E15Workload::new(0.0001, 7, ule_par::ThreadConfig::Serial);
        assert_eq!(w.vault.plan.parity_reels, 2);
        let mut scans = w.scans.clone();
        scans[0] = None;
        scans[1] = None;
        let (dump, stats) = w.vault.restore_all(&w.archive.bootstrap, &scans).unwrap();
        assert_eq!(dump, w.dump);
        assert_eq!(stats.reels_reconstructed, 2);
    }

    #[test]
    fn e13_workload_is_clustered_and_prunes() {
        let w = E13Workload::new(0.0001, 7, ule_par::ThreadConfig::Serial);
        // Clustering: lineitem rows arrive in shipdate order.
        let li = w.db.tables.iter().find(|t| t.name == "lineitem").unwrap();
        let ship = li.columns.iter().position(|c| *c == "l_shipdate").unwrap();
        assert!(li.rows.windows(2).all(|p| p[0][ship] <= p[1][ship]));
        // A narrow query beats the whole-table selective restore.
        let (_, stats) = w.shelf().forecast_revenue("1994", 24).unwrap();
        let (_, sel) = w
            .vault
            .restore_table(&w.archive.bootstrap, &w.scans, "lineitem")
            .unwrap();
        assert!(stats.frames_decoded <= sel.frames_decoded);
        // The plain variant carries no zones at all.
        let (_, parc, _) = w.plain();
        assert!(parc.index.entries.iter().all(|e| e.zones.is_empty()));
    }

    #[test]
    fn e9_workload_covers_the_model_zoo_and_survives_severity_zero() {
        let w = E9Workload::new(Medium::test_tiny(), 7);
        assert_eq!(w.scans.len(), 5, "2 data + 3 parity frames");
        let cases = w.cases();
        assert_eq!(cases.len(), e9_model_sweep().len());
        for case in &cases {
            assert!(
                (case.survives)(0.0),
                "{}: severity 0 must survive",
                case.label
            );
        }
    }
}
