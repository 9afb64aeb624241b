//! Analog media simulation (system **S10** in `DESIGN.md`).
//!
//! The paper evaluates Micr'Olonys on three visual analog media, each with
//! physical write/read hardware we substitute with calibrated simulation
//! (see `DESIGN.md` §2 for the substitution argument):
//!
//! * **archival paper** — A4 at 600 dpi, Canon ImageRunner class laser
//!   print + scan (§4 "Paper archive": 26 emblems for a 1.2 MB archive,
//!   50 KB/page);
//! * **16 mm microfilm** — IMAGELINK 9600 class writer, 3888×5498 bitonal
//!   frames, 1.3 GB per 66 m reel (§4 "Microfilm archive");
//! * **35 mm cinema film** — Arrilaser 2K full-aperture write (2048×1556),
//!   DFT Scanity 4K grayscale scan (§4 "Cinema film archive"); the paper
//!   notes cinema scanners are "sharper, low-distortion", reflected in the
//!   gentler degradation preset.
//!
//! A [`Medium`] couples an emblem geometry with frame dimensions, a
//! degradation preset, and linear-density figures so the capacity models
//! the paper reports (pages per archive, GB per reel) can be regenerated.
//!
//! Beyond the per-pixel scanner physics, [`Medium::scan_with_faults`]
//! layers *physical decay* on top: an `ule_fault` [`FaultPlan`] (tears,
//! stains, scratches, fading, lost or reordered frames) applied at a
//! severity knob — the workload of the E9 recovery-envelope campaign.
//! [`Medium::canonical_fault_plan`] names each medium's standard decay
//! scenario.

use ule_emblem::{encode_emblem_into, stream::Emission, EmblemGeometry};
use ule_fault::{
    Blotch, BurstScratch, ContrastFade, EdgeTear, FaultPlan, FrameLossFault, FrameReorderFault,
    Orientation, SaltPepper,
};
use ule_par::ThreadConfig;
use ule_raster::draw::blit;
use ule_raster::{DegradeParams, GrayImage, Scanner};

/// One analog storage medium: geometry, frame format, and scan physics.
#[derive(Clone, Debug)]
pub struct Medium {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Emblem geometry used on this medium.
    pub geometry: EmblemGeometry,
    /// Written frame/page width in pixels.
    pub frame_width: usize,
    /// Written frame/page height in pixels.
    pub frame_height: usize,
    /// Degradation preset applied by [`Medium::scan`].
    pub degrade: DegradeParams,
    /// Frames per meter of medium (paper: sheets, so this models a box of
    /// sheets per "meter of shelf" and is only meaningful for film).
    pub frames_per_meter: f64,
}

impl Medium {
    /// A4 paper at 600 dpi: 210×297 mm → 4960×7016 px.
    pub fn paper_a4_600dpi() -> Self {
        Self {
            name: "A4 paper @600dpi",
            geometry: EmblemGeometry::paper_a4_600dpi(),
            frame_width: 4960,
            frame_height: 7016,
            degrade: DegradeParams {
                noise_sigma: 14.0,
                dust_per_mpx: 3.0,
                dust_max_radius: 1.5,
                scratches: 0,
                scratch_width: 0.0,
                fade_amplitude: 8.0,
                hotspots: 0,
                hotspot_amplitude: 0.0,
                row_jitter: 0.4,
                lens_k: 0.0012,
                scan_scale: 1.0,
            },
            // Sheets are discrete; keep a nominal figure (200 sheets/m of
            // archive box depth).
            frames_per_meter: 200.0,
        }
    }

    /// 16 mm microfilm, IMAGELINK 9600 class (bitonal 3888×5498 frames).
    /// `frames_per_meter` is derived from the paper's stated capacity:
    /// 1.3 GB per 66 m reel at ~44 KB of payload per frame.
    pub fn microfilm_16mm() -> Self {
        let geometry = EmblemGeometry::microfilm_16mm();
        let frames_per_meter = 1.3e9 / 66.0 / geometry.payload_capacity() as f64;
        Self {
            name: "16mm microfilm",
            geometry,
            frame_width: 3888,
            frame_height: 5498,
            degrade: DegradeParams {
                noise_sigma: 16.0,
                dust_per_mpx: 6.0,
                dust_max_radius: 2.0,
                scratches: 1,
                scratch_width: 1.0,
                fade_amplitude: 14.0,
                hotspots: 1,
                hotspot_amplitude: 25.0,
                row_jitter: 0.7,
                lens_k: 0.0020,
                // The paper's microfilm reader produced ~5000×7000 scans of
                // 3888×5498 frames (≈1.28×).
                scan_scale: 1.28,
            },
            frames_per_meter,
        }
    }

    /// 35 mm black-and-white cinema film: 2K full-aperture frames written
    /// by an Arrilaser-class recorder, scanned at 4K grayscale
    /// (Scanity-class). Low-distortion per the paper's observation.
    pub fn cinema_35mm() -> Self {
        Self {
            name: "35mm cinema film",
            geometry: EmblemGeometry::cinema_2k(),
            frame_width: 2048,
            frame_height: 1556,
            degrade: DegradeParams {
                noise_sigma: 8.0,
                dust_per_mpx: 2.0,
                dust_max_radius: 1.5,
                scratches: 0,
                scratch_width: 0.0,
                fade_amplitude: 6.0,
                hotspots: 0,
                hotspot_amplitude: 0.0,
                row_jitter: 0.2,
                lens_k: 0.0006,
                scan_scale: 2.0, // 2K frame scanned at 4K
            },
            // Standard 4-perf 35 mm frame pitch: 19.05 mm.
            frames_per_meter: 1000.0 / 19.05,
        }
    }

    /// A miniature medium for fast tests: small emblems, small frames,
    /// mild noise.
    pub fn test_tiny() -> Self {
        let geometry = EmblemGeometry::test_small();
        Self {
            name: "test medium",
            geometry,
            frame_width: geometry.image_width() + 60,
            frame_height: geometry.image_height() + 40,
            degrade: DegradeParams {
                noise_sigma: 10.0,
                row_jitter: 0.3,
                ..Default::default()
            },
            frames_per_meter: 100.0,
        }
    }

    /// Miniature medium with the one-block micro geometry: used by the
    /// emulated-restoration tests where per-cell cost is ~10^4 VeRisc
    /// instructions.
    pub fn test_micro() -> Self {
        let geometry = EmblemGeometry::test_micro();
        Self {
            name: "micro test medium",
            geometry,
            frame_width: geometry.image_width() + 60,
            frame_height: geometry.image_height() + 40,
            degrade: DegradeParams::pristine(),
            frames_per_meter: 100.0,
        }
    }

    /// Render ("print"/"film") one emblem centered on a white frame.
    ///
    /// # Panics
    /// Panics if the emblem image exceeds the frame dimensions.
    pub fn print(&self, emblem: &GrayImage) -> GrayImage {
        let (mut frame, x, y) = self.blank_frame(emblem.width(), emblem.height());
        blit(&mut frame, emblem, x, y);
        frame
    }

    /// Lay each emission onto its own frame, one job per emission across
    /// `threads`, in emission order: the emblem is painted in place at
    /// `print`'s offset, so the bytes are those of `print(&encode_emblem(..))`
    /// with no master. Panics like `print` if the emblem exceeds the frame.
    pub fn render(&self, emissions: &[Emission<'_>], threads: ThreadConfig) -> Vec<GrayImage> {
        let g = &self.geometry;
        ule_par::map(threads, emissions, |(header, bytes)| {
            let (mut frame, x, y) = self.blank_frame(g.image_width(), g.image_height());
            encode_emblem_into(&mut frame, x, y, g, header, bytes);
            frame
        })
    }

    /// A white frame and the offset that centres a `w × h` emblem on it.
    fn blank_frame(&self, w: usize, h: usize) -> (GrayImage, usize, usize) {
        let (fw, fh) = (self.frame_width, self.frame_height);
        assert!(
            w <= fw && h <= fh,
            "emblem {w}x{h} exceeds {} frame {fw}x{fh}",
            self.name
        );
        (GrayImage::new(fw, fh, 255), (fw - w) / 2, (fh - h) / 2)
    }

    /// Scan one frame with this medium's degradation preset.
    pub fn scan(&self, frame: &GrayImage, seed: u64) -> GrayImage {
        Scanner::new(self.degrade.clone(), seed).scan(frame)
    }

    /// Scan with severities scaled by `severity` (robustness sweeps).
    pub fn scan_with_severity(&self, frame: &GrayImage, seed: u64, severity: f64) -> GrayImage {
        Scanner::new(self.degrade.scaled(severity), seed).scan(frame)
    }

    /// Print a whole emblem stream to frames.
    pub fn print_all(&self, emblems: &[GrayImage]) -> Vec<GrayImage> {
        self.print_all_with(emblems, ThreadConfig::Serial)
    }

    /// [`Medium::print_all`] with frame rasterisation fanned out across
    /// `threads` workers. Each frame is a pure function of its emblem, so
    /// the frames are byte-identical to the serial path.
    pub fn print_all_with(&self, emblems: &[GrayImage], threads: ThreadConfig) -> Vec<GrayImage> {
        ule_par::map(threads, emblems, |e| self.print(e))
    }

    /// Scan a set of frames (seed is perturbed per frame).
    pub fn scan_all(&self, frames: &[GrayImage], seed: u64) -> Vec<GrayImage> {
        self.scan_all_with(frames, seed, ThreadConfig::Serial)
    }

    /// [`Medium::scan_all`] across `threads` workers. The per-frame seed
    /// depends only on the frame index, so scans are identical to the
    /// serial path at any thread count.
    ///
    /// Scans of undamaged frames decode on the Reed–Solomon clean-frame
    /// fast path (`ule_gf256::RsCode::decode` returns after one
    /// slice-kernel syndromes pass — `DESIGN.md` §12), so a verification
    /// sweep over an intact shelf costs sampling plus syndromes, never
    /// Berlekamp–Massey; the report's `[E11]` section and `EXPERIMENTS.md`
    /// E11 quantify the resulting scan-throughput gain.
    pub fn scan_all_with(
        &self,
        frames: &[GrayImage],
        seed: u64,
        threads: ThreadConfig,
    ) -> Vec<GrayImage> {
        ule_par::map_indexed(threads, frames.len(), |i| {
            self.scan(&frames[i], seed ^ (i as u64 + 1))
        })
    }

    /// [`Medium::scan_all_with`] followed by physical fault injection: the
    /// scans are pushed through `plan` at `severity` (see `ule_fault` for
    /// the model zoo and severity semantics, `DESIGN.md` §10 for the
    /// method). Faults are applied in the scan domain — decay damage is
    /// modelled as it *appears* in the digitised image, which keeps
    /// envelope campaigns re-scannable-free and is equivalent for the
    /// saturated defects the models produce. Deterministic in
    /// `(seed, severity)` and independent of `threads`; frame-set models
    /// in the plan may drop or reorder whole scans.
    pub fn scan_with_faults(
        &self,
        frames: &[GrayImage],
        seed: u64,
        plan: &FaultPlan,
        severity: f64,
        threads: ThreadConfig,
    ) -> Vec<GrayImage> {
        let scans = self.scan_all_with(frames, seed, threads);
        plan.apply_with(&scans, severity, seed ^ 0xFA17_FA17_FA17_FA17, threads)
    }

    /// The canonical fault scenario for this medium — the `FaultPlan`
    /// whose injected scans the golden suite pins (`tests/golden_format.rs`)
    /// and E9 reports alongside the per-model envelopes. Each plan
    /// composes the decay modes §3.1 and the archival literature name for
    /// that carrier: paper tears, stains and foxing; film scratches,
    /// fading and splice damage.
    pub fn canonical_fault_plan(&self) -> FaultPlan {
        match self.name {
            "A4 paper @600dpi" => FaultPlan::new()
                .with(EdgeTear)
                .with(Blotch)
                .with(SaltPepper)
                .with(FrameLossFault),
            "16mm microfilm" => FaultPlan::new()
                .with(BurstScratch {
                    orientation: Orientation::Vertical,
                })
                .with(ContrastFade)
                .with(SaltPepper)
                .with(FrameLossFault),
            "35mm cinema film" => FaultPlan::new()
                .with(BurstScratch {
                    orientation: Orientation::Horizontal,
                })
                .with(ContrastFade)
                .with(FrameReorderFault),
            // Test media: one cheap pixel model plus both frame-set models
            // so the fast suites still cross the loss/reorder paths.
            _ => FaultPlan::new()
                .with(SaltPepper)
                .with(FrameLossFault)
                .with(FrameReorderFault),
        }
    }

    /// Payload bytes stored per frame.
    pub fn payload_per_frame(&self) -> usize {
        self.geometry.payload_capacity()
    }

    /// Capacity model: bytes stored on `meters` of this medium
    /// (data emblems only — the paper's 1.3 GB/66 m figure).
    pub fn capacity_bytes(&self, meters: f64) -> u64 {
        (self.frames_per_meter * meters * self.payload_per_frame() as f64) as u64
    }

    /// Frames that fit on one physical reel (or archive box) of `meters`
    /// of this medium — the natural `reel_capacity` for a vault (S16)
    /// sharded over real carriers: 66 m of 16 mm microfilm, a 305 m
    /// cinema reel, a 200-sheet archive box. At least 1, so a
    /// pathologically short reel still holds a frame.
    pub fn reel_capacity(&self, meters: f64) -> usize {
        ((self.frames_per_meter * meters) as usize).max(1)
    }

    /// Frames (pages) needed for `len` payload bytes, data emblems only.
    pub fn frames_for(&self, len: usize) -> usize {
        self.geometry.emblems_for(len)
    }

    /// Density in payload bytes per frame/page for a `len`-byte archive —
    /// the "50 KB per page" figure of §4.
    pub fn density_per_frame(&self, len: usize) -> f64 {
        len as f64 / self.frames_for(len) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use ule_emblem::{decode_emblem, encode_emblem, EmblemHeader, EmblemKind};

    #[test]
    fn emblems_fit_their_media_frames() {
        for m in [
            Medium::paper_a4_600dpi(),
            Medium::microfilm_16mm(),
            Medium::cinema_35mm(),
        ] {
            assert!(m.geometry.image_width() <= m.frame_width, "{}", m.name);
            assert!(m.geometry.image_height() <= m.frame_height, "{}", m.name);
        }
    }

    #[test]
    fn microfilm_reel_capacity_matches_paper() {
        let m = Medium::microfilm_16mm();
        let cap = m.capacity_bytes(66.0);
        // §4: "capable of storing 1.3GB in a single 66 meter reel".
        assert!((1.25e9..1.35e9).contains(&(cap as f64)), "cap={cap}");
    }

    #[test]
    fn paper_page_density_near_50kb() {
        let m = Medium::paper_a4_600dpi();
        let density = m.density_per_frame(1_230_000);
        assert!((44_000.0..53_000.0).contains(&density), "density={density}");
        // And the page count is the paper's ~26.
        let pages = m.frames_for(1_230_000);
        assert!((25..=27).contains(&pages), "pages={pages}");
    }

    #[test]
    fn print_centers_emblem_on_white_frame() {
        let m = Medium::test_tiny();
        let g = m.geometry;
        let header = EmblemHeader::new(EmblemKind::Data, 0, 0, 4, 4);
        let emblem = encode_emblem(&g, &header, &[1, 2, 3, 4]);
        let frame = m.print(&emblem);
        assert_eq!(frame.width(), m.frame_width);
        assert_eq!(frame.get(0, 0), 255);
        assert_eq!(frame.get(frame.width() - 1, frame.height() - 1), 255);
    }

    /// `n` emissions with distinct headers and near-full-capacity payloads.
    fn emissions(g: &EmblemGeometry, n: u16) -> Vec<Emission<'static>> {
        (0..n)
            .map(|i| {
                let len = g.payload_capacity() - i as usize;
                let payload: Vec<u8> = (0..len)
                    .map(|j| (j as u8).wrapping_mul(37) ^ i as u8)
                    .collect();
                let header = EmblemHeader::new(EmblemKind::Data, i, 0, len as u32, len as u32);
                (header, Cow::Owned(payload))
            })
            .collect()
    }

    #[test]
    fn render_matches_print_of_the_master() {
        // Every preset, an emblem that exactly fills its frame, and odd
        // margins (the centring offset rounds down on both axes).
        let tiny = Medium::test_tiny();
        let g = tiny.geometry;
        let media = [
            Medium::paper_a4_600dpi(),
            Medium::microfilm_16mm(),
            Medium::cinema_35mm(),
            Medium::test_micro(),
            Medium {
                frame_width: g.image_width(),
                frame_height: g.image_height(),
                ..tiny.clone()
            },
            Medium {
                frame_width: g.image_width() + 7,
                frame_height: g.image_height() + 3,
                ..tiny.clone()
            },
            tiny,
        ];
        for m in media {
            let n = if m.frame_width > 2000 { 1 } else { 3 };
            let emissions = emissions(&m.geometry, n);
            let printed: Vec<GrayImage> = emissions
                .iter()
                .map(|(h, p)| m.print(&encode_emblem(&m.geometry, h, p)))
                .collect();
            let rendered = m.render(&emissions, ThreadConfig::Fixed(2));
            assert!(
                rendered == printed,
                "{} {}x{}",
                m.name,
                m.frame_width,
                m.frame_height
            );
        }
    }

    #[test]
    fn oversize_emblem_panics_in_render_with_prints_message() {
        let tiny = Medium::test_tiny();
        let g = tiny.geometry;
        let m = Medium {
            frame_height: g.image_height() - 1,
            ..tiny
        };
        let emissions = emissions(&g, 1);
        let master = encode_emblem(&g, &emissions[0].0, &emissions[0].1);
        let message = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("formatted message")
        };
        let printed = message(&|| drop(m.print(&master)));
        let rendered = message(&|| drop(m.render(&emissions, ThreadConfig::Serial)));
        assert_eq!(printed, "emblem 804x324 exceeds test medium frame 864x323");
        assert_eq!(rendered, printed);
    }

    #[test]
    fn tiny_medium_roundtrip_through_print_and_scan() {
        let m = Medium::test_tiny();
        let g = m.geometry;
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let header =
            EmblemHeader::new(EmblemKind::Data, 0, 0, data.len() as u32, data.len() as u32);
        let emblem = encode_emblem(&g, &header, &data);
        let scan = m.scan(&m.print(&emblem), 77);
        let (h, p, _) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(h.payload_len as usize, data.len());
        assert_eq!(p, data);
    }

    #[test]
    fn severity_zero_scan_of_bitonal_master_is_clean() {
        let m = Medium::test_tiny();
        let g = m.geometry;
        let header = EmblemHeader::new(EmblemKind::Data, 0, 0, 1, 1);
        let emblem = encode_emblem(&g, &header, &[42]);
        let frame = m.print(&emblem);
        let scan = m.scan_with_severity(&frame, 1, 0.0);
        assert_eq!(scan, frame);
    }

    #[test]
    fn cinema_scan_doubles_resolution() {
        let m = Medium::cinema_35mm();
        assert_eq!(m.degrade.scan_scale, 2.0);
        // 2048 * 2 = 4096 — the Scanity 4K scan dimension of §4.
        assert_eq!((m.frame_width as f64 * m.degrade.scan_scale) as usize, 4096);
    }

    #[test]
    fn reel_capacity_tracks_physical_reel_lengths() {
        let m = Medium::microfilm_16mm();
        // 66 m reel ≈ 1.3 GB / ~44 KB per frame.
        let frames = m.reel_capacity(66.0);
        assert!((28_000..32_000).contains(&frames), "frames={frames}");
        assert_eq!(Medium::test_tiny().reel_capacity(0.0), 1, "floor of 1");
    }

    #[test]
    fn frames_for_rounds_up() {
        let m = Medium::test_tiny();
        let cap = m.payload_per_frame();
        assert_eq!(m.frames_for(cap + 1), 2);
    }

    #[test]
    fn scan_with_faults_at_severity_zero_matches_plain_scan() {
        let m = Medium::test_tiny();
        let g = m.geometry;
        let header = EmblemHeader::new(EmblemKind::Data, 0, 0, 3, 3);
        let frames = vec![m.print(&encode_emblem(&g, &header, &[1, 2, 3]))];
        let plan = m.canonical_fault_plan();
        let faulted = m.scan_with_faults(&frames, 5, &plan, 0.0, ThreadConfig::Serial);
        assert_eq!(faulted, m.scan_all(&frames, 5));
    }

    #[test]
    fn scan_with_faults_is_thread_identical() {
        let m = Medium::test_tiny();
        let g = m.geometry;
        let frames: Vec<GrayImage> = (0..5u8)
            .map(|i| {
                let header = EmblemHeader::new(EmblemKind::Data, i as u16, 0, 1, 1);
                m.print(&encode_emblem(&g, &header, &[i]))
            })
            .collect();
        let plan = m.canonical_fault_plan();
        let serial = m.scan_with_faults(&frames, 9, &plan, 0.6, ThreadConfig::Serial);
        for threads in [2usize, 4] {
            let par = m.scan_with_faults(&frames, 9, &plan, 0.6, ThreadConfig::Fixed(threads));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn production_media_have_distinct_canonical_plans() {
        let labels: Vec<String> = [
            Medium::paper_a4_600dpi(),
            Medium::microfilm_16mm(),
            Medium::cinema_35mm(),
            Medium::test_tiny(),
        ]
        .iter()
        .map(|m| m.canonical_fault_plan().label())
        .collect();
        assert_eq!(labels[0], "edge-tear+blotch+salt-pepper+frame-loss");
        assert_eq!(labels[1], "scratch-v+fade+salt-pepper+frame-loss");
        assert_eq!(labels[2], "scratch-h+fade+frame-reorder");
        assert_eq!(labels[3], "salt-pepper+frame-loss+frame-reorder");
    }
}
