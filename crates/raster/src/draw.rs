//! Drawing primitives for emblem rendering.
//!
//! Both work a row slice at a time (one `fill` or `copy_from_slice` per
//! pixel row); the rendered bytes are those of a per-pixel loop.

use crate::image::GrayImage;

/// Fill the axis-aligned rectangle `[x, x+w) × [y, y+h)` (clipped).
pub fn fill_rect(img: &mut GrayImage, x: usize, y: usize, w: usize, h: usize, v: u8) {
    let (width, height) = (img.width(), img.height());
    let (x0, x1) = (x.min(width), x.saturating_add(w).min(width));
    let data = img.as_bytes_mut();
    for yy in y.min(height)..y.saturating_add(h).min(height) {
        data[yy * width + x0..yy * width + x1].fill(v);
    }
}

/// Draw a square ring (frame) of the given thickness, outer edge at
/// `(x, y)` with outer size `size`.
pub fn draw_ring(img: &mut GrayImage, x: usize, y: usize, size: usize, thickness: usize, v: u8) {
    let t = thickness.min(size / 2 + 1);
    fill_rect(img, x, y, size, t, v); // top
    fill_rect(img, x, y + size - t, size, t, v); // bottom
    fill_rect(img, x, y, t, size, v); // left
    fill_rect(img, x + size - t, y, t, size, v); // right
}

/// Copy `src` into `dst` with its top-left corner at `(x, y)` (clipped).
pub fn blit(dst: &mut GrayImage, src: &GrayImage, x: usize, y: usize) {
    let w = src.width().min(dst.width().saturating_sub(x));
    let h = src.height().min(dst.height().saturating_sub(y));
    // Origin at or past the right edge: nothing to copy, and `at` may pass the end.
    if w == 0 {
        return;
    }
    let width = dst.width();
    let data = dst.as_bytes_mut();
    for yy in 0..h {
        let at = (y + yy) * width + x;
        data[at..at + w].copy_from_slice(&src.row(yy)[..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The per-pixel `fill_rect` the row-slice one replaced: the oracle.
    fn fill_rect_per_pixel(img: &mut GrayImage, x: usize, y: usize, w: usize, h: usize, v: u8) {
        let x1 = (x + w).min(img.width());
        let y1 = (y + h).min(img.height());
        for yy in y.min(img.height())..y1 {
            for xx in x.min(img.width())..x1 {
                img.set(xx, yy, v);
            }
        }
    }

    /// The per-pixel `blit` the row-slice one replaced: the oracle.
    fn blit_per_pixel(dst: &mut GrayImage, src: &GrayImage, x: usize, y: usize) {
        let w = src.width().min(dst.width().saturating_sub(x));
        let h = src.height().min(dst.height().saturating_sub(y));
        for yy in 0..h {
            for xx in 0..w {
                dst.set(x + xx, y + yy, src.get(xx, yy));
            }
        }
    }

    fn noise(rng: &mut SplitMix64, w: usize, h: usize) -> GrayImage {
        GrayImage::from_raw(w, h, (0..w * h).map(|_| rng.next_u64() as u8).collect())
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = GrayImage::new(4, 4, 255);
        fill_rect(&mut img, 2, 2, 10, 10, 0);
        assert_eq!(img.get(1, 1), 255);
        assert_eq!(img.get(2, 2), 0);
        assert_eq!(img.get(3, 3), 0);
    }

    #[test]
    fn ring_leaves_interior() {
        let mut img = GrayImage::new(10, 10, 255);
        draw_ring(&mut img, 0, 0, 10, 2, 0);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(1, 5), 0);
        assert_eq!(img.get(9, 9), 0);
        assert_eq!(img.get(5, 5), 255);
    }

    #[test]
    fn blit_places_and_clips() {
        let mut dst = GrayImage::new(4, 4, 255);
        let src = GrayImage::new(3, 3, 7);
        blit(&mut dst, &src, 2, 2);
        assert_eq!(dst.get(2, 2), 7);
        assert_eq!(dst.get(3, 3), 7);
        assert_eq!(dst.get(1, 1), 255);
    }

    /// Row-slice `fill_rect` against the per-pixel oracle: empty
    /// rectangles, origins at or past either edge, partial overlap on
    /// every side, and random rectangles on random images.
    #[test]
    fn fill_rect_matches_per_pixel_oracle() {
        let mut rng = SplitMix64::new(0xF111);
        let mut cases = vec![
            (7, 5, 0, 0, 0, 3),   // w = 0
            (7, 5, 2, 1, 3, 0),   // h = 0
            (7, 5, 7, 0, 3, 2),   // x = width
            (7, 5, 9, 1, 3, 2),   // x > width
            (7, 5, 1, 5, 3, 2),   // y = height
            (7, 5, 0, 0, 7, 5),   // exactly the image
            (7, 5, 0, 0, 20, 20), // larger than the image
            (7, 5, 5, 1, 4, 2),   // overlaps the right edge
            (7, 5, 1, 4, 3, 4),   // overlaps the bottom edge
            (7, 5, 0, 2, 1, 2),   // touches the left edge
            (7, 5, 3, 0, 2, 1),   // touches the top edge
            (0, 4, 0, 0, 3, 3),   // zero-width image
            (4, 0, 0, 0, 3, 3),   // zero-height image
        ];
        for _ in 0..500 {
            let (iw, ih) = (rng.next_below(13), rng.next_below(13));
            cases.push((
                iw,
                ih,
                rng.next_below(iw + 4),
                rng.next_below(ih + 4),
                rng.next_below(iw + 4),
                rng.next_below(ih + 4),
            ));
        }
        for (iw, ih, x, y, w, h) in cases {
            let base = noise(&mut rng, iw, ih);
            let v = rng.next_u64() as u8;
            let (mut got, mut want) = (base.clone(), base);
            fill_rect(&mut got, x, y, w, h, v);
            fill_rect_per_pixel(&mut want, x, y, w, h, v);
            assert_eq!(
                got.as_bytes(),
                want.as_bytes(),
                "{iw}x{ih} rect ({x}, {y}) {w}x{h}"
            );
        }
    }

    /// Row-slice `blit` against the per-pixel oracle: a source larger
    /// than the destination, origins at or past either edge, partial
    /// overlap on the right and bottom, empty images, and random cases.
    #[test]
    fn blit_matches_per_pixel_oracle() {
        let mut rng = SplitMix64::new(0xB117);
        let mut cases = vec![
            (6, 5, 9, 8, 0, 0), // source larger than the destination
            (6, 5, 9, 8, 2, 3), // larger and offset
            (6, 5, 3, 2, 6, 1), // x = width
            (6, 5, 3, 2, 8, 1), // x > width
            (6, 5, 3, 2, 1, 5), // y = height
            (6, 5, 3, 2, 4, 1), // overlaps the right edge
            (6, 5, 3, 2, 1, 4), // overlaps the bottom edge
            (6, 5, 3, 2, 0, 0), // top-left corner
            (6, 5, 6, 5, 0, 0), // exactly the destination
            (6, 5, 0, 3, 1, 1), // zero-width source
            (6, 5, 3, 0, 1, 1), // zero-height source
            (0, 5, 3, 2, 0, 0), // zero-width destination
        ];
        for _ in 0..500 {
            let (dw, dh) = (rng.next_below(13), rng.next_below(13));
            cases.push((
                dw,
                dh,
                rng.next_below(dw + 5),
                rng.next_below(dh + 5),
                rng.next_below(dw + 4),
                rng.next_below(dh + 4),
            ));
        }
        for (dw, dh, sw, sh, x, y) in cases {
            let base = noise(&mut rng, dw, dh);
            let src = noise(&mut rng, sw, sh);
            let (mut got, mut want) = (base.clone(), base);
            blit(&mut got, &src, x, y);
            blit_per_pixel(&mut want, &src, x, y);
            assert_eq!(
                got.as_bytes(),
                want.as_bytes(),
                "{sw}x{sh} onto {dw}x{dh} at ({x}, {y})"
            );
        }
    }
}
