//! Scanner / media degradation simulation.
//!
//! §3.1 of the paper enumerates the error sources emblems must survive:
//! film distortion and damage ("fading, hot spots, scratches"), scanner
//! lenses that "change straight lines into curves", "small perturbations or
//! unsteady movements" of linear-array transports, and dust. [`Scanner`]
//! models each effect with seeded, reproducible noise so robustness
//! experiments can sweep severity deterministically.

use crate::image::GrayImage;
use crate::rng::SplitMix64;
use crate::sample::bilinear;

/// Degradation severities. All default to zero (an ideal scanner); media
/// profiles in `ule-media` supply calibrated presets.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradeParams {
    /// Additive Gaussian intensity noise, sigma in gray levels.
    pub noise_sigma: f64,
    /// Dust specks per megapixel (drawn as dark or light blobs).
    pub dust_per_mpx: f64,
    /// Maximum dust radius in pixels.
    pub dust_max_radius: f64,
    /// Number of straight scratches across the frame.
    pub scratches: usize,
    /// Scratch width in pixels.
    pub scratch_width: f64,
    /// Peak amplitude of low-frequency fading (gray levels, brightens).
    pub fade_amplitude: f64,
    /// Number of circular hot spots (localised over-exposure).
    pub hotspots: usize,
    /// Peak hot-spot brightening in gray levels.
    pub hotspot_amplitude: f64,
    /// Per-row horizontal jitter from transport wobble, in pixels (peak).
    pub row_jitter: f64,
    /// Radial lens distortion coefficient (positive = barrel). The
    /// displacement at the image corner is roughly `k * (diag/2)` pixels
    /// per unit of normalised radius cubed; keep |k| ≤ 0.02.
    pub lens_k: f64,
    /// Output resolution scale (1.0 = same as input; 2.0 models the 4K
    /// scan of a 2K film frame).
    pub scan_scale: f64,
}

impl Default for DegradeParams {
    fn default() -> Self {
        Self {
            noise_sigma: 0.0,
            dust_per_mpx: 0.0,
            dust_max_radius: 0.0,
            scratches: 0,
            scratch_width: 0.0,
            fade_amplitude: 0.0,
            hotspots: 0,
            hotspot_amplitude: 0.0,
            row_jitter: 0.0,
            lens_k: 0.0,
            scan_scale: 1.0,
        }
    }
}

impl DegradeParams {
    /// An ideal, noise-free scan.
    pub fn pristine() -> Self {
        Self::default()
    }

    /// Multiply every severity by `f` (used for robustness sweeps). A
    /// negative or NaN `f` counts as 0, an ideal scan.
    pub fn scaled(&self, f: f64) -> Self {
        let f = f.max(0.0);
        Self {
            noise_sigma: self.noise_sigma * f,
            dust_per_mpx: self.dust_per_mpx * f,
            dust_max_radius: self.dust_max_radius,
            scratches: (self.scratches as f64 * f).round() as usize,
            scratch_width: self.scratch_width,
            fade_amplitude: self.fade_amplitude * f,
            hotspots: (self.hotspots as f64 * f).round() as usize,
            hotspot_amplitude: self.hotspot_amplitude,
            row_jitter: self.row_jitter * f,
            lens_k: self.lens_k * f,
            scan_scale: self.scan_scale,
        }
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` without the `round` call, which is
/// a libm call on baseline x86-64. Clamping first gives the same result
/// (rounding is monotone and 0 and 255 are integers), and on [0, 255]
/// `c − trunc(c)` is exact, so comparing it with 0.5 rounds half away from
/// zero as `round` does. NaN maps to 0 either way.
#[inline]
fn round_to_u8(v: f64) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as u8;
    t + (c - t as f64 >= 0.5) as u8
}

/// A deterministic scanner: `scan()` maps a print master to the grayscale
/// image a physical scanner would deliver.
pub struct Scanner {
    params: DegradeParams,
    seed: u64,
}

struct Blob {
    x: f64,
    y: f64,
    r: f64,
    delta: f64,
}

struct Scratch {
    // Line through (x0, y0) with direction (dx, dy), normalised.
    x0: f64,
    y0: f64,
    dx: f64,
    dy: f64,
    width: f64,
    delta: f64,
}

impl Scanner {
    pub fn new(params: DegradeParams, seed: u64) -> Self {
        Self { params, seed }
    }

    pub fn params(&self) -> &DegradeParams {
        &self.params
    }

    /// Produce the scanned image of `master`.
    pub fn scan(&self, master: &GrayImage) -> GrayImage {
        let p = &self.params;
        let out_w = ((master.width() as f64) * p.scan_scale).round().max(1.0) as usize;
        let out_h = ((master.height() as f64) * p.scan_scale).round().max(1.0) as usize;
        let mut rng = SplitMix64::new(self.seed);

        // Pre-draw the defect geometry in *output* coordinates.
        let mpx = (out_w * out_h) as f64 / 1.0e6;
        let n_dust = (p.dust_per_mpx * mpx).round() as usize;
        let mut dust = Vec::with_capacity(n_dust);
        for _ in 0..n_dust {
            dust.push(Blob {
                x: rng.next_f64() * out_w as f64,
                y: rng.next_f64() * out_h as f64,
                r: 0.5 + rng.next_f64() * p.dust_max_radius.max(0.5),
                // Dust is dark on a light background and light on film negatives;
                // flip a coin.
                delta: if rng.next_f64() < 0.5 { -255.0 } else { 255.0 },
            });
        }
        let mut hotspots = Vec::with_capacity(p.hotspots);
        for _ in 0..p.hotspots {
            hotspots.push(Blob {
                x: rng.next_f64() * out_w as f64,
                y: rng.next_f64() * out_h as f64,
                r: (out_w.min(out_h) as f64) * (0.05 + rng.next_f64() * 0.1),
                delta: p.hotspot_amplitude,
            });
        }
        let mut scratches = Vec::with_capacity(p.scratches);
        for _ in 0..p.scratches {
            let angle = rng.next_f64() * std::f64::consts::PI;
            scratches.push(Scratch {
                x0: rng.next_f64() * out_w as f64,
                y0: rng.next_f64() * out_h as f64,
                dx: angle.cos(),
                dy: angle.sin(),
                width: 0.5 + rng.next_f64() * p.scratch_width.max(0.5),
                delta: if rng.next_f64() < 0.5 { -200.0 } else { 200.0 },
            });
        }
        // Row jitter offsets (smooth random walk, clamped).
        let mut jitter = vec![0.0f64; out_h];
        let mut j = 0.0f64;
        for slot in jitter.iter_mut() {
            j += (rng.next_f64() - 0.5) * 0.4 * p.row_jitter.max(0.0);
            j = j.clamp(-p.row_jitter, p.row_jitter);
            *slot = j;
        }
        // Fading: low-frequency sinusoidal brightness field with random phase.
        let fade_px = rng.next_f64() * std::f64::consts::TAU;
        let fade_py = rng.next_f64() * std::f64::consts::TAU;

        let cx = out_w as f64 / 2.0;
        let cy = out_h as f64 / 2.0;
        let half_diag = (cx * cx + cy * cy).sqrt();
        let inv_scale = 1.0 / p.scan_scale;

        // Pass 1: geometry + fading + sensor noise, row by row (defects are
        // painted sparsely afterwards — a page-sized frame has tens of
        // millions of pixels). Terms that depend only on the column are
        // tabulated and terms that depend only on the row are hoisted. Each
        // pixel still evaluates the same f64 expressions in the same order
        // and the noise is drawn in row-major order, so the bytes are those
        // of the plain per-pixel loop (the contract in DESIGN.md §2).
        let mut out = GrayImage::new(out_w, out_h, 0);
        let identity_geometry = p.lens_k == 0.0 && p.row_jitter == 0.0 && p.scan_scale == 1.0;
        let fade = p.fade_amplitude > 0.0;
        let fade_gain = p.fade_amplitude * 0.5;
        // Per column: x − cx, the squared normalised lens radius term and
        // the horizontal fade.
        let col_dx: Vec<f64> = (0..out_w).map(|x| x as f64 - cx).collect();
        let col_rx2: Vec<f64> = col_dx
            .iter()
            .map(|&dx| {
                let rx = dx / half_diag;
                rx * rx
            })
            .collect();
        let col_fade: Vec<f64> = if fade {
            (0..out_w)
                .map(|x| (x as f64 / out_w as f64 * 2.3 + fade_px).sin())
                .collect()
        } else {
            Vec::new()
        };
        // One row of f64 values, finished stage by stage: geometry, fade,
        // noise, then rounding into the output row.
        let mut vals = vec![0.0f64; out_w];
        let (mut src_x, mut src_y) = (vec![0.0f64; out_w], vec![0.0f64; out_w]);
        for (y, row) in out.as_bytes_mut().chunks_exact_mut(out_w).enumerate() {
            if identity_geometry {
                for (v, &m) in vals.iter_mut().zip(master.row(y)) {
                    *v = m as f64;
                }
            } else {
                let dy = y as f64 - cy;
                let ry = dy / half_diag;
                let ry2 = ry * ry;
                let jit = jitter[y];
                // Source coordinates first, then the samples: two short
                // loops keep more pixels in flight than one long one.
                let coords = src_x.iter_mut().zip(src_y.iter_mut());
                for (((sx, sy), &dx), &rx2) in coords.zip(&col_dx).zip(&col_rx2) {
                    let factor = 1.0 + p.lens_k * (rx2 + ry2);
                    *sx = (cx + dx * factor + jit) * inv_scale;
                    *sy = (cy + dy * factor) * inv_scale;
                }
                for ((v, &sx), &sy) in vals.iter_mut().zip(&src_x).zip(&src_y) {
                    *v = bilinear(master, sx, sy);
                }
            }
            if fade {
                let fy = (y as f64 / out_h as f64 * 1.7 + fade_py).sin();
                for (v, &fx) in vals.iter_mut().zip(&col_fade) {
                    *v += fade_gain * (fx + fy);
                }
            }
            if p.noise_sigma > 0.0 {
                for v in vals.iter_mut() {
                    *v += rng.next_gaussian() * p.noise_sigma;
                }
            }
            for (px, &v) in row.iter_mut().zip(&vals) {
                *px = round_to_u8(v);
            }
        }

        // Pass 2: sparse defects, each painted only over its footprint.
        let add_clamped = |out: &mut GrayImage, x: usize, y: usize, delta: f64| {
            let v = (out.get(x, y) as f64 + delta).round().clamp(0.0, 255.0) as u8;
            out.set(x, y, v);
        };
        for h in &hotspots {
            let r = h.r.ceil() as isize;
            let hx = h.x.round() as isize;
            let hy = h.y.round() as isize;
            for y in (hy - r).max(0)..(hy + r + 1).min(out_h as isize) {
                for x in (hx - r).max(0)..(hx + r + 1).min(out_w as isize) {
                    let d2 = (x as f64 - h.x).powi(2) + (y as f64 - h.y).powi(2);
                    if d2 < h.r * h.r {
                        add_clamped(
                            &mut out,
                            x as usize,
                            y as usize,
                            h.delta * (1.0 - d2 / (h.r * h.r)),
                        );
                    }
                }
            }
        }
        for scr in &scratches {
            // Walk the line across the frame, painting a disc per step.
            let diag = ((out_w * out_w + out_h * out_h) as f64).sqrt();
            let mut t = -diag;
            while t <= diag {
                let x = scr.x0 + t * scr.dx;
                let y = scr.y0 + t * scr.dy;
                t += 0.5;
                if x < -scr.width
                    || y < -scr.width
                    || x >= out_w as f64 + scr.width
                    || y >= out_h as f64 + scr.width
                {
                    continue;
                }
                let r = scr.width.ceil() as isize;
                let sx = x.round() as isize;
                let sy = y.round() as isize;
                for yy in (sy - r).max(0)..(sy + r + 1).min(out_h as isize) {
                    for xx in (sx - r).max(0)..(sx + r + 1).min(out_w as isize) {
                        let px = xx as f64 - scr.x0;
                        let py = yy as f64 - scr.y0;
                        let dist = (px * scr.dy - py * scr.dx).abs();
                        if dist < scr.width {
                            let target = if scr.delta < 0.0 { 0.0 } else { 255.0 };
                            let v = out.get(xx as usize, yy as usize) as f64;
                            out.set(xx as usize, yy as usize, (v * 0.2 + target * 0.8) as u8);
                        }
                    }
                }
            }
        }
        for d in &dust {
            let r = d.r.ceil() as isize;
            let dx0 = d.x.round() as isize;
            let dy0 = d.y.round() as isize;
            let fill = if d.delta < 0.0 { 0u8 } else { 255 };
            for y in (dy0 - r).max(0)..(dy0 + r + 1).min(out_h as isize) {
                for x in (dx0 - r).max(0)..(dx0 + r + 1).min(out_w as isize) {
                    let d2 = (x as f64 - d.x).powi(2) + (y as f64 - d.y).powi(2);
                    if d2 < d.r * d.r {
                        out.set(x as usize, y as usize, fill);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::fill_rect;

    fn master() -> GrayImage {
        let mut img = GrayImage::new(100, 100, 255);
        fill_rect(&mut img, 20, 20, 60, 60, 0);
        img
    }

    #[test]
    fn pristine_scan_is_identity() {
        let m = master();
        let s = Scanner::new(DegradeParams::pristine(), 1).scan(&m);
        assert_eq!(s, m);
    }

    #[test]
    fn scan_is_deterministic_per_seed() {
        let m = master();
        let p = DegradeParams {
            noise_sigma: 10.0,
            dust_per_mpx: 500.0,
            dust_max_radius: 2.0,
            ..Default::default()
        };
        let a = Scanner::new(p.clone(), 7).scan(&m);
        let b = Scanner::new(p.clone(), 7).scan(&m);
        let c = Scanner::new(p, 8).scan(&m);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_perturbs_but_preserves_structure() {
        let m = master();
        let p = DegradeParams {
            noise_sigma: 8.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 3).scan(&m);
        // Interior of the black square stays predominantly dark.
        assert!(s.get(50, 50) < 80);
        assert!(s.get(5, 5) > 175);
        // Roughly half the pixels move: clamping at 0/255 hides the half of
        // the Gaussian that pushes past the rails on a bitonal master.
        assert!(s.diff_fraction(&m) > 0.3);
    }

    #[test]
    fn scan_scale_resizes_output() {
        let m = master();
        let p = DegradeParams {
            scan_scale: 2.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 1).scan(&m);
        assert_eq!(s.width(), 200);
        assert_eq!(s.height(), 200);
        // Same structure at doubled coordinates.
        assert!(s.get(100, 100) < 30);
        assert!(s.get(10, 10) > 220);
    }

    #[test]
    fn dust_creates_saturated_specks() {
        let m = GrayImage::new(200, 200, 128);
        let p = DegradeParams {
            dust_per_mpx: 2000.0,
            dust_max_radius: 3.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 11).scan(&m);
        let extremes = s.as_bytes().iter().filter(|&&v| v == 0 || v == 255).count();
        assert!(extremes > 50, "only {extremes} saturated pixels");
    }

    #[test]
    fn lens_distortion_moves_edges_not_centre() {
        let m = master();
        let p = DegradeParams {
            lens_k: 0.05,
            ..Default::default()
        };
        let s = Scanner::new(p, 1).scan(&m);
        // Centre pixel unchanged; some pixels near the square's border moved.
        assert_eq!(s.get(50, 50), m.get(50, 50));
        assert!(s.diff_fraction(&m) > 0.001);
    }

    #[test]
    fn scaled_zero_is_pristine() {
        let p = DegradeParams {
            noise_sigma: 5.0,
            dust_per_mpx: 100.0,
            scratches: 3,
            fade_amplitude: 20.0,
            hotspots: 2,
            row_jitter: 1.5,
            lens_k: 0.01,
            ..Default::default()
        };
        let z = p.scaled(0.0);
        assert_eq!(z.noise_sigma, 0.0);
        assert_eq!(z.scratches, 0);
        assert_eq!(z.lens_k, 0.0);
    }

    #[test]
    fn round_to_u8_matches_round_then_clamp() {
        let mut probes = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -0.4,
            -0.5,
            -0.6,
            0.5,
            0.49999999999999994,
            254.49999999999997,
            254.5,
            255.0,
            255.4,
            255.5,
            1e300,
        ];
        let mut rng = SplitMix64::new(5);
        probes.extend((0..10_000).map(|_| rng.next_f64() * 300.0 - 20.0));
        // Every half-way point and its two f64 neighbours (never zero).
        probes.extend((-2..260).flat_map(|k| {
            let h = k as f64 + 0.5;
            let (b, pos) = (h.to_bits(), h > 0.0);
            let below = f64::from_bits(if pos { b - 1 } else { b + 1 });
            let above = f64::from_bits(if pos { b + 1 } else { b - 1 });
            [h, below, above]
        }));
        for v in probes {
            assert_eq!(round_to_u8(v), v.round().clamp(0.0, 255.0) as u8, "{v:?}");
        }
    }

    #[test]
    fn negative_or_nan_severity_scans_like_zero() {
        let m = master();
        let p = DegradeParams {
            noise_sigma: 5.0,
            scratches: 2,
            hotspots: 1,
            hotspot_amplitude: 30.0,
            row_jitter: 1.5,
            lens_k: 0.01,
            ..Default::default()
        };
        let zero = Scanner::new(p.scaled(0.0), 4).scan(&m);
        for f in [-0.5, f64::NAN] {
            assert_eq!(p.scaled(f), p.scaled(0.0), "severity {f}");
            assert_eq!(Scanner::new(p.scaled(f), 4).scan(&m), zero, "severity {f}");
        }
    }
}
