//! Emblem decoding: scanned image → header + payload.
//!
//! The decoder mirrors what the paper's MOCoder must do after scanning:
//!
//! 1. threshold the grayscale scan (Otsu — robust to fading);
//! 2. locate the thick black border and build per-scanline edge maps;
//! 3. resample the cell grid *relative to the border*, which compensates
//!    lens curvature and transport jitter (the §3.1 distortion sources);
//! 4. verify the calibration dots (orientation/geometry check);
//! 5. read the redundant header copies;
//! 6. read the data region, reverse the self-clocking cell code,
//!    de-interleave, and run inner Reed–Solomon correction per block.

use crate::encode::calibration_level;
use crate::geometry::{EmblemGeometry, EDGE_CELLS, HEADER_COPIES, OVERHEAD_ROWS, RS_K, RS_N};
use crate::header::{EmblemHeader, HEADER_BYTES};
use crate::locate::{edge_map, find_border_box, EdgeMap};
use crate::manchester::{bits_to_bytes, decode_cells};
use ule_par::ThreadConfig;
use ule_raster::GrayImage;

/// Decoding diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Bytes corrected by the inner RS code across all blocks.
    pub rs_corrected: usize,
    /// Which header copy parsed cleanly (0-based; HEADER_COPIES = majority vote).
    pub header_copy_used: usize,
    /// Self-clocking violations observed in the data region.
    pub sync_errors: usize,
    /// Fraction (per mille) of calibration cells that matched.
    pub calibration_match_pm: u16,
}

/// Decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// No border square found in the scan.
    BorderNotFound,
    /// Border found but the calibration dots don't match this geometry.
    CalibrationMismatch { matched_pm: u16 },
    /// No header copy could be parsed (individually or by majority vote).
    HeaderUnreadable,
    /// An inner RS block had more errors than it can correct.
    RsFailure { block: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BorderNotFound => write!(f, "emblem border not found"),
            DecodeError::CalibrationMismatch { matched_pm } => {
                write!(
                    f,
                    "calibration dots mismatch ({}% matched)",
                    *matched_pm as f64 / 10.0
                )
            }
            DecodeError::HeaderUnreadable => write!(f, "no readable header copy"),
            DecodeError::RsFailure { block } => write!(f, "inner RS failure in block {block}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// The failed stage, as the `decode.fail.<cause>` trace counters name
    /// it.
    pub fn cause(&self) -> &'static str {
        match self {
            DecodeError::BorderNotFound => "border_not_found",
            DecodeError::CalibrationMismatch { .. } => "calibration_mismatch",
            DecodeError::HeaderUnreadable => "header_unreadable",
            DecodeError::RsFailure { .. } => "rs_failure",
        }
    }
}

/// Grid resampler: maps content-cell coordinates to scan pixels by
/// interpolating between the border edges (per-scanline), then calls each
/// cell white when the mean intensity of its central block reaches the
/// threshold.
///
/// Terms that depend only on the frame, the column or the row are computed
/// once, and each cell evaluates the same f64 expressions a per-cell
/// sampler would; `DESIGN.md` §5 states the determinism contract.
struct GridSampler<'a> {
    scan: &'a GrayImage,
    edges: EdgeMap,
    threshold: u8,
    rows: usize,
    /// Horizontal grid fraction of every content column.
    u: Vec<f64>,
    half_w: f64,
    half_h: f64,
    block: usize,
    /// Bit patterns of the `(left, right)` edge pair `columns` was built for.
    columns_for: Option<(u64, u64)>,
    columns: Vec<Column>,
    #[cfg(test)]
    column_refreshes: usize,
}

/// The row-independent half of one content column under a given
/// left/right edge pair: its clipped pixel span and the top edge and
/// border height at its centre.
#[derive(Clone, Copy, Default)]
struct Column {
    x0: usize,
    x1: usize,
    yt: f64,
    /// `yb - yt + 1.0`.
    height: f64,
}

impl<'a> GridSampler<'a> {
    fn new(
        scan: &'a GrayImage,
        bit: &GrayImage,
        geom: &EmblemGeometry,
        threshold: u8,
    ) -> Option<Self> {
        let bbox = find_border_box(bit)?;
        let total_cols = (geom.cols + 2 * EDGE_CELLS) as f64;
        let total_rows = (geom.rows + 2 * EDGE_CELLS) as f64;
        let cell_w = bbox.width() as f64 / total_cols;
        let cell_h = bbox.height() as f64 / total_rows;
        let border_px = cell_w * 3.0;
        let edges = edge_map(bit, bbox, border_px);
        let half_w = (cell_w * 0.3).max(0.5);
        let half_h = (cell_h * 0.3).max(0.5);
        let u = (0..geom.cols)
            .map(|cx| (EDGE_CELLS as f64 + cx as f64 + 0.5) / (geom.cols + 2 * EDGE_CELLS) as f64)
            .collect();
        Some(Self {
            scan,
            edges,
            threshold,
            rows: geom.rows,
            u,
            half_w,
            half_h,
            block: ((half_w.min(half_h) * 2.0).round() as usize).max(1),
            columns_for: None,
            columns: vec![Column::default(); geom.cols],
            #[cfg(test)]
            column_refreshes: 0,
        })
    }

    /// Decide the leading `out.len()` cells of content row `cy`
    /// (`true` = white).
    fn sample_row(&mut self, cy: usize, out: &mut [bool]) {
        assert!(out.len() <= self.columns.len(), "row longer than the grid");
        let bbox = self.edges.bbox;
        let v = (EDGE_CELLS as f64 + cy as f64 + 0.5) / (self.rows + 2 * EDGE_CELLS) as f64;
        // First approximation of the row from the box, then interpolate
        // along the border edge maps (which absorb smooth distortion).
        let y_rough = bbox.y0 as f64 + v * (bbox.height() as f64 - 1.0);
        let yi = (round_half_away(y_rough - bbox.y0 as f64).max(0) as usize)
            .min(self.edges.left.len() - 1);
        self.build_columns(self.edges.left[yi], self.edges.right[yi]);

        let (w, h) = (self.scan.width(), self.scan.height());
        let pixels = self.scan.as_bytes();
        let t = u64::from(self.threshold);
        for (white, col) in out.iter_mut().zip(&self.columns) {
            let y = col.yt + v * col.height;
            let y0 = (y - self.half_h).max(0.0) as usize;
            let y1 = (y0 + self.block).min(h);
            let n = ((col.x1 - col.x0) * y1.saturating_sub(y0)) as u64;
            let sum: u64 = (y0..y1)
                .map(|yy| {
                    let row = &pixels[yy * w + col.x0..yy * w + col.x1];
                    u64::from(row.iter().map(|&p| u32::from(p)).sum::<u32>())
                })
                .sum();
            // `sum / n >= t` in exact integers: when `sum < t·n` the true
            // mean sits at least `1/n` below `t`, so the f64 mean does
            // too. An empty (fully clipped) block has mean 0.
            *white = if n == 0 { t == 0 } else { sum >= t * n };
        }
    }

    /// Build the column side for the left/right edge pair `(xl, xr)`,
    /// unless it is already built for that exact pair.
    fn build_columns(&mut self, xl: f64, xr: f64) {
        let pair = (xl.to_bits(), xr.to_bits());
        if self.columns_for == Some(pair) {
            return;
        }
        self.columns_for = Some(pair);
        #[cfg(test)]
        {
            self.column_refreshes += 1;
        }
        let e = &self.edges;
        let last = e.top.len() as isize - 1;
        let w = self.scan.width();
        for (col, &u) in self.columns.iter_mut().zip(&self.u) {
            let x = xl + u * (xr - xl + 1.0);
            let xi = round_half_away(x - e.bbox.x0 as f64).clamp(0, last) as usize;
            let x0 = (x - self.half_w).max(0.0) as usize;
            let (yt, yb) = (e.top[xi], e.bottom[xi]);
            *col = Column {
                x0,
                x1: (x0 + self.block).min(w).max(x0),
                yt,
                height: yb - yt + 1.0,
            };
        }
    }
}

/// `f.round() as isize` without the libm call: truncate, then compare the
/// remainder (exact, since `f` and its truncation share their exponent
/// range) with ±0.5, so halves round away from zero. NaN gives 0 and the
/// infinities saturate, as the cast does.
#[inline]
fn round_half_away(f: f64) -> isize {
    let t = f as isize;
    let frac = f - t as f64;
    if frac >= 0.5 {
        t.saturating_add(1)
    } else if frac <= -0.5 {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Decode a single emblem from a (possibly degraded) grayscale scan.
pub fn decode_emblem(
    geom: &EmblemGeometry,
    scan: &GrayImage,
) -> Result<(EmblemHeader, Vec<u8>, DecodeStats), DecodeError> {
    let threshold = scan.otsu_threshold();
    let bit = scan.threshold(threshold);
    let mut sampler =
        GridSampler::new(scan, &bit, geom, threshold).ok_or(DecodeError::BorderNotFound)?;
    let mut stats = DecodeStats::default();

    // Calibration row: verify the large-scale dots.
    let mut calibration = vec![false; geom.cols];
    sampler.sample_row(0, &mut calibration);
    let matched = calibration
        .iter()
        .enumerate()
        .filter(|&(cx, &white)| white == calibration_level(cx))
        .count();
    stats.calibration_match_pm = (matched * 1000 / geom.cols) as u16;
    if stats.calibration_match_pm < 850 {
        return Err(DecodeError::CalibrationMismatch {
            matched_pm: stats.calibration_match_pm,
        });
    }

    // Header copies.
    let mut cells = vec![false; HEADER_BYTES * 8 * 2];
    let mut header: Option<EmblemHeader> = None;
    let mut copies_bits: Vec<Vec<bool>> = Vec::with_capacity(HEADER_COPIES);
    for copy in 0..HEADER_COPIES {
        sampler.sample_row(1 + copy, &mut cells);
        let dec = decode_cells(&cells, true);
        let bytes = bits_to_bytes(&dec.bits);
        if let Ok(h) = EmblemHeader::from_bytes(&bytes) {
            header = Some(h);
            stats.header_copy_used = copy;
            break;
        }
        copies_bits.push(dec.bits);
    }
    let header = match header {
        Some(h) => h,
        None => {
            // Majority vote across the copies we collected.
            let nbits = HEADER_BYTES * 8;
            let mut voted = vec![false; nbits];
            for (i, slot) in voted.iter_mut().enumerate() {
                let ones = copies_bits
                    .iter()
                    .filter(|c| c.get(i) == Some(&true))
                    .count();
                *slot = ones * 2 > copies_bits.len();
            }
            stats.header_copy_used = HEADER_COPIES;
            EmblemHeader::from_bytes(&bits_to_bytes(&voted))
                .map_err(|_| DecodeError::HeaderUnreadable)?
        }
    };

    // Data region: one continuous self-clocked run.
    let data_rows = geom.rows - OVERHEAD_ROWS;
    let mut cells = vec![false; data_rows * geom.cols];
    for (cy, row) in cells.chunks_mut(geom.cols).enumerate() {
        sampler.sample_row(cy + OVERHEAD_ROWS, row);
    }
    let dec = decode_cells(&cells, true);
    stats.sync_errors = dec.sync_errors.len();
    let coded_all = bits_to_bytes(&dec.bits);

    // De-interleave and correct each inner block.
    let (mut payload, fixed) = inner_decode_with(geom, &coded_all, ThreadConfig::Serial)?;
    stats.rs_corrected += fixed;
    payload.truncate(header.payload_len as usize);
    Ok((header, payload, stats))
}

/// De-interleave an inner-coded byte stream (the layout
/// [`crate::encode::inner_encode`] produces) and run errors-only
/// Reed–Solomon correction on every block,
/// fanning the independent blocks out across `threads` workers.
///
/// Returns the untruncated payload (`rs_blocks() * 223` bytes) plus the
/// total number of corrected byte positions. This is the byte-level half
/// of [`decode_emblem`], exposed so damage experiments can drive the §3.1
/// intra-emblem boundary without synthesising pixel scans.
///
/// Undamaged blocks take [`ule_gf256::RsCode::decode`]'s clean-frame fast
/// path — one slice-kernel syndromes pass each, no Berlekamp–Massey — so
/// scanning intact media is syndromes-bound (`DESIGN.md` §12, report
/// `[E11]`).
pub fn inner_decode_with(
    geom: &EmblemGeometry,
    coded: &[u8],
    threads: ThreadConfig,
) -> Result<(Vec<u8>, usize), DecodeError> {
    let nblocks = geom.rs_blocks();
    assert!(
        coded.len() >= nblocks * RS_N,
        "coded stream shorter than {} blocks",
        nblocks
    );
    // De-interleave inside each parallel job: the codeword is built,
    // corrected and returned by the same worker, so no intermediate
    // block table (or per-block clone) is ever materialised.
    let rs = geom.inner_code();
    let results = ule_par::map_indexed(threads, nblocks, |b| {
        let mut cw: Vec<u8> = (0..RS_N).map(|i| coded[i * nblocks + b]).collect();
        rs.decode(&mut cw, &[]).map(|fixed| (cw, fixed))
    });
    let mut payload = Vec::with_capacity(nblocks * RS_K);
    let mut corrected = 0;
    for (b, r) in results.into_iter().enumerate() {
        match r {
            Ok((cw, fixed)) => {
                corrected += fixed;
                payload.extend_from_slice(&cw[..RS_K]);
            }
            Err(_) => return Err(DecodeError::RsFailure { block: b }),
        }
    }
    Ok((payload, corrected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_emblem;
    use crate::header::EmblemKind;
    use ule_fault::{Blotch, BurstScratch, ContrastFade, FaultPlan, Orientation, SaltPepper};
    use ule_raster::{DegradeParams, Scanner};

    fn geom() -> EmblemGeometry {
        EmblemGeometry::test_small()
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    fn hdr(len: usize) -> EmblemHeader {
        EmblemHeader::new(EmblemKind::Data, 3, 1, len as u32, len as u32)
    }

    /// The per-cell sampler `GridSampler` replaced, kept as its oracle:
    /// the cell centre with libm rounding, the clipped f64 block mean, and
    /// `>= threshold as f64`.
    fn reference_is_white(s: &GridSampler, g: &EmblemGeometry, cx: usize, cy: usize) -> bool {
        let e = &s.edges;
        let (total_cols, total_rows) = (g.cols + 2 * EDGE_CELLS, g.rows + 2 * EDGE_CELLS);
        let u = (EDGE_CELLS as f64 + cx as f64 + 0.5) / total_cols as f64;
        let v = (EDGE_CELLS as f64 + cy as f64 + 0.5) / total_rows as f64;
        let y_rough = e.bbox.y0 as f64 + v * (e.bbox.height() as f64 - 1.0);
        let yi = ((y_rough - e.bbox.y0 as f64).round() as usize).min(e.left.len() - 1);
        let (xl, xr) = (e.left[yi], e.right[yi]);
        let x = xl + u * (xr - xl + 1.0);
        let xi =
            ((x - e.bbox.x0 as f64).round() as isize).clamp(0, e.top.len() as isize - 1) as usize;
        let (yt, yb) = (e.top[xi], e.bottom[xi]);
        let y = yt + v * (yb - yt + 1.0);

        let cell_w = e.bbox.width() as f64 / total_cols as f64;
        let cell_h = e.bbox.height() as f64 / total_rows as f64;
        let half_w = (cell_w * 0.3).max(0.5);
        let half_h = (cell_h * 0.3).max(0.5);
        let x0 = (x - half_w).max(0.0) as usize;
        let y0 = (y - half_h).max(0.0) as usize;
        let block = ((half_w.min(half_h) * 2.0).round() as usize).max(1);

        let x1 = (x0 + block).min(s.scan.width());
        let y1 = (y0 + block).min(s.scan.height());
        let mean = if x0 >= x1 || y0 >= y1 {
            0.0
        } else {
            let mut sum = 0u64;
            for yy in y0..y1 {
                for xx in x0..x1 {
                    sum += s.scan.get(xx, yy) as u64;
                }
            }
            sum as f64 / ((x1 - x0) * (y1 - y0)) as f64
        };
        mean >= s.threshold as f64
    }

    #[test]
    fn grid_sampler_matches_the_per_cell_oracle() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let scan = |params: DegradeParams, seed: u64| Scanner::new(params, seed).scan(&img);
        let noisy = DegradeParams {
            noise_sigma: 10.0,
            ..Default::default()
        };
        let scaled = |scan_scale: f64| DegradeParams {
            scan_scale,
            ..noisy.clone()
        };
        let faulted = |plan: FaultPlan, severity: f64, seed: u64| {
            plan.apply(&[scan(noisy.clone(), seed)], severity, seed)
                .remove(0)
        };
        let scratch_v = BurstScratch {
            orientation: Orientation::Vertical,
        };
        let cases: Vec<(&str, GrayImage)> = vec![
            ("pristine", img.clone()),
            (
                "noise + row jitter",
                scan(
                    DegradeParams {
                        noise_sigma: 30.0,
                        row_jitter: 0.6,
                        ..Default::default()
                    },
                    42,
                ),
            ),
            (
                "fade + lens",
                scan(
                    DegradeParams {
                        fade_amplitude: 25.0,
                        lens_k: 0.02,
                        ..noisy.clone()
                    },
                    43,
                ),
            ),
            ("scale 1.28", scan(scaled(1.28), 44)),
            ("scale 1.5", scan(scaled(1.5), 45)),
            ("scale 2.0", scan(scaled(2.0), 46)),
            (
                "dust",
                scan(
                    DegradeParams {
                        dust_per_mpx: 40.0,
                        dust_max_radius: 2.0,
                        ..noisy.clone()
                    },
                    9,
                ),
            ),
            (
                "salt-pepper",
                faulted(FaultPlan::single(SaltPepper), 0.04, 47),
            ),
            ("blotch", faulted(FaultPlan::single(Blotch), 0.03, 48)),
            ("scratch-v", faulted(FaultPlan::single(scratch_v), 0.03, 49)),
            (
                "contrast-fade",
                faulted(FaultPlan::single(ContrastFade), 0.7, 50),
            ),
        ];
        let (mut reused, mut recomputed) = (0, 0);
        for (name, scan) in &cases {
            let threshold = scan.otsu_threshold();
            let bit = scan.threshold(threshold);
            let mut sampler = GridSampler::new(scan, &bit, &g, threshold)
                .unwrap_or_else(|| panic!("{name}: border not found"));
            let mut row = vec![false; g.cols];
            for cy in 0..g.rows {
                sampler.sample_row(cy, &mut row);
                for (cx, &white) in row.iter().enumerate() {
                    assert_eq!(
                        white,
                        reference_is_white(&sampler, &g, cx, cy),
                        "{name}: cell ({cx}, {cy})"
                    );
                }
            }
            // The first row always builds the column side.
            reused += g.rows - sampler.column_refreshes;
            recomputed += sampler.column_refreshes - 1;
        }
        assert!(reused > 0, "no row reused the column side");
        assert!(recomputed > 0, "no row rebuilt the column side");
    }

    #[test]
    fn round_half_away_matches_libm_round() {
        let mut values = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            -0.49999999999999994,
            4503599627370495.5,
            -4503599627370495.5,
            9007199254740993.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in -4000..4000 {
            let half = k as f64 / 8.0;
            values.push(half);
            // The neighbours of every eighth, halves included.
            if half != 0.0 {
                values.push(f64::from_bits(half.to_bits() - 1));
                values.push(f64::from_bits(half.to_bits() + 1));
            }
        }
        for f in values {
            assert_eq!(round_half_away(f), f.round() as isize, "{f:e}");
        }
    }

    #[test]
    fn pristine_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let (h, p, stats) = decode_emblem(&g, &img).unwrap();
        assert_eq!(h.index, 3);
        assert_eq!(p, data);
        assert_eq!(stats.rs_corrected, 0);
        assert_eq!(stats.sync_errors, 0);
        assert_eq!(stats.calibration_match_pm, 1000);
    }

    #[test]
    fn partial_payload_roundtrip() {
        let g = geom();
        let data = payload(100);
        let img = encode_emblem(&g, &hdr(100), &data);
        let (_, p, _) = decode_emblem(&g, &img).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn noisy_scan_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let params = DegradeParams {
            noise_sigma: 30.0,
            row_jitter: 0.6,
            fade_amplitude: 15.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 42).scan(&img);
        let (_, p, _) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn rescaled_scan_roundtrip() {
        // A 1.5x scan resolution (like 2K film scanned at 4K, scaled down).
        let g = geom();
        let data = payload(200);
        let img = encode_emblem(&g, &hdr(200), &data);
        let params = DegradeParams {
            scan_scale: 1.5,
            noise_sigma: 10.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 5).scan(&img);
        let (_, p, _) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn dusty_scan_is_corrected_by_inner_rs() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let params = DegradeParams {
            dust_per_mpx: 40.0,
            dust_max_radius: 2.0,
            noise_sigma: 10.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 9).scan(&img);
        let (_, p, stats) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
        assert!(stats.rs_corrected > 0, "dust should force RS corrections");
    }

    #[test]
    fn blank_image_reports_border_not_found() {
        let g = geom();
        let img = GrayImage::new(400, 300, 255);
        assert_eq!(
            decode_emblem(&g, &img).unwrap_err(),
            DecodeError::BorderNotFound
        );
    }

    #[test]
    fn wrong_geometry_rejected_by_calibration() {
        let g = geom();
        let data = payload(50);
        let img = encode_emblem(&g, &hdr(50), &data);
        // Try to decode with a much wider geometry: cell sampling lands on
        // wrong positions and the calibration row cannot match.
        let wrong = EmblemGeometry::new(512, 96, 3);
        let err = decode_emblem(&wrong, &img).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::CalibrationMismatch { .. } | DecodeError::HeaderUnreadable
            ),
            "{err:?}"
        );
    }
}
