//! Sub-pixel sampling.

use crate::image::GrayImage;

/// Bilinear sample at fractional coordinates (edge-clamped).
#[inline]
pub fn bilinear(img: &GrayImage, x: f64, y: f64) -> f64 {
    let (w, h) = (img.width(), img.height());
    // Interior: all four taps are in bounds, so index the buffer directly.
    // `x` and `y` are non-negative there, so truncation is their floor.
    let (fx, fy, p00, p10, p01, p11) =
        if x >= 0.0 && y >= 0.0 && x < w as f64 - 1.0 && y < h as f64 - 1.0 {
            let (x0, y0) = (x as usize, y as usize);
            let i = y0 * w + x0;
            let d = img.as_bytes();
            let (top, bottom) = (&d[i..i + 2], &d[i + w..i + w + 2]);
            (
                x - x0 as f64,
                y - y0 as f64,
                top[0],
                top[1],
                bottom[0],
                bottom[1],
            )
        } else {
            let x0 = x.floor();
            let y0 = y.floor();
            let x0i = x0 as isize;
            let y0i = y0 as isize;
            (
                x - x0,
                y - y0,
                img.get_clamped(x0i, y0i),
                img.get_clamped(x0i + 1, y0i),
                img.get_clamped(x0i, y0i + 1),
                img.get_clamped(x0i + 1, y0i + 1),
            )
        };
    let (p00, p10, p01, p11) = (p00 as f64, p10 as f64, p01 as f64, p11 as f64);
    p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let img = GrayImage::from_raw(2, 2, vec![0, 100, 200, 50]);
        assert_eq!(bilinear(&img, 0.0, 0.0), 0.0);
        assert_eq!(bilinear(&img, 1.0, 0.0), 100.0);
        assert_eq!(bilinear(&img, 0.0, 1.0), 200.0);
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let img = GrayImage::from_raw(2, 1, vec![0, 100]);
        assert!((bilinear(&img, 0.5, 0.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bilinear_clamps_taps_past_the_edge() {
        let img = GrayImage::from_raw(3, 2, vec![0, 100, 50, 200, 50, 150]);
        // Interior and edge taps meet without a seam.
        assert!((bilinear(&img, 1.999_999, 0.0) - 50.0).abs() < 1e-3);
        assert_eq!(bilinear(&img, 2.0, 0.0), 50.0);
        assert_eq!(bilinear(&img, 7.5, 1.0), 150.0);
        assert_eq!(bilinear(&img, -4.0, -1.5), 0.0);
        assert!((bilinear(&img, 0.5, 5.0) - 125.0).abs() < 1e-9);
    }
}
