//! Emblem rendering: payload bytes → emblem pixels on a master or a frame.

use crate::geometry::{
    EmblemGeometry, EDGE_CELLS, GAP_CELLS, HEADER_COPIES, OVERHEAD_ROWS, QUIET_CELLS, RS_K, RS_N,
};
use crate::header::{EmblemHeader, HEADER_BYTES};
use crate::manchester::{bytes_to_bits, encode_cells};
use ule_raster::draw::fill_rect;
use ule_raster::GrayImage;

/// Apply the inner RS code and byte-interleave across blocks: byte `i` of
/// block `b` lands at position `i * nblocks + b`, so a contiguous damaged
/// patch spreads across many blocks.
pub fn inner_encode(geom: &EmblemGeometry, payload: &[u8]) -> Vec<u8> {
    let nblocks = geom.rs_blocks();
    assert!(
        payload.len() <= nblocks * RS_K,
        "payload exceeds emblem capacity"
    );
    let rs = geom.inner_code();
    let mut padded = payload.to_vec();
    padded.resize(nblocks * RS_K, 0);
    let mut coded = vec![0u8; nblocks * RS_N];
    for (b, msg) in padded.chunks(RS_K).enumerate() {
        for (i, &byte) in rs.encode(msg).iter().enumerate() {
            coded[i * nblocks + b] = byte;
        }
    }
    coded
}

/// The calibration-row level for content cell `cx` (row 0): a solid 4-cell
/// black start mark, then alternating 2-white / 2-black large-scale dots.
#[inline]
pub fn calibration_level(cx: usize) -> bool {
    if cx < 4 {
        false // black
    } else {
        ((cx - 4) / 2) % 2 == 0 // 2 white, 2 black, ...
    }
}

/// Build the full content-cell grid (`true` = white) for one emblem.
pub fn content_cells(geom: &EmblemGeometry, header: &EmblemHeader, payload: &[u8]) -> Vec<bool> {
    let (cols, rows) = (geom.cols, geom.rows);
    let mut cells = vec![true; cols * rows];

    // Row 0: calibration dots.
    for cx in 0..cols {
        cells[cx] = calibration_level(cx);
    }

    // Rows 1..=3: redundant header copies (one per row, rest of row white).
    let header_bits = bytes_to_bits(&header.to_bytes());
    debug_assert_eq!(header_bits.len(), HEADER_BYTES * 8);
    for copy in 0..HEADER_COPIES {
        let row = 1 + copy;
        let hcells = encode_cells(&header_bits, true);
        cells[row * cols..row * cols + hcells.len()].copy_from_slice(&hcells);
    }

    // Rows 4..: one continuous self-clocked run over the coded payload,
    // extended with zero bits to fill the region (keeps the clock alive so
    // the decoder can treat the region as a single run).
    let coded = inner_encode(geom, payload);
    let mut bits = bytes_to_bits(&coded);
    let region_bits = (rows - OVERHEAD_ROWS) * cols / 2;
    bits.resize(region_bits, false);
    let data_cells = encode_cells(&bits, true);
    cells[OVERHEAD_ROWS * cols..].copy_from_slice(&data_cells);
    cells
}

/// Render an emblem print master (bitonal: 0 = black ink, 255 = white):
/// [`encode_emblem_into`] on a white image of the emblem's size.
pub fn encode_emblem(geom: &EmblemGeometry, header: &EmblemHeader, payload: &[u8]) -> GrayImage {
    let mut img = GrayImage::new(geom.image_width(), geom.image_height(), 255);
    encode_emblem_into(&mut img, 0, 0, geom, header, payload);
    img
}

/// Paint an emblem onto a white `img`, its top-left corner at `(x, y)`.
/// Only black ink is written, so `img` is the quiet zone: a medium's frame
/// takes the emblem with no master in between. Panics if it does not fit.
pub fn encode_emblem_into(
    img: &mut GrayImage,
    x: usize,
    y: usize,
    geom: &EmblemGeometry,
    header: &EmblemHeader,
    payload: &[u8],
) {
    let (cp, width) = (geom.cell_px, img.width());
    let fits = x + geom.image_width() <= width && y + geom.image_height() <= img.height();
    assert!(fits, "emblem does not fit the image");

    // Thick black border ring.
    let border_off = QUIET_CELLS * cp;
    let border_size_w = (geom.cols + 2 * EDGE_CELLS) * cp;
    let border_size_h = (geom.rows + 2 * EDGE_CELLS) * cp;
    let t = (EDGE_CELLS - GAP_CELLS) * cp;
    for (bx, by, w, h) in [
        (border_off, border_off, border_size_w, t),
        (border_off, border_off + border_size_h - t, border_size_w, t),
        (border_off, border_off, t, border_size_h),
        (border_off + border_size_w - t, border_off, t, border_size_h),
    ] {
        fill_rect(img, x + bx, y + by, w, h, 0);
    }

    // Content cells, row-major: paint each cell row into its first pixel
    // row, then copy that span into the cell row's other `cp - 1` rows.
    let cells = content_cells(geom, header, payload);
    let origin = (QUIET_CELLS + EDGE_CELLS) * cp;
    let span = geom.cols * cp;
    let data = img.as_bytes_mut();
    for (cy, row) in cells.chunks_exact(geom.cols).enumerate() {
        let start = (y + origin + cy * cp) * width + x + origin;
        for (px, &white) in data[start..start + span].chunks_exact_mut(cp).zip(row) {
            if !white {
                px.fill(0);
            }
        }
        for k in 1..cp {
            data.copy_within(start..start + span, start + k * width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::EmblemKind;

    fn geom() -> EmblemGeometry {
        EmblemGeometry::test_small()
    }

    fn header(len: u32) -> EmblemHeader {
        EmblemHeader::new(EmblemKind::Data, 0, 0, len, len)
    }

    #[test]
    fn image_dimensions_match_geometry() {
        let g = geom();
        let img = encode_emblem(&g, &header(10), &[1; 10]);
        assert_eq!(img.width(), g.image_width());
        assert_eq!(img.height(), g.image_height());
        assert!(img.is_bitonal());
    }

    #[test]
    fn quiet_zone_is_white_border_is_black() {
        let g = geom();
        let img = encode_emblem(&g, &header(1), &[9]);
        assert_eq!(img.get(0, 0), 255);
        let b = QUIET_CELLS * g.cell_px + 1;
        assert_eq!(img.get(b, b), 0);
        // Gap ring between border and content is white.
        let gpx = (QUIET_CELLS + EDGE_CELLS - GAP_CELLS) * g.cell_px + 1;
        assert_eq!(img.get(gpx, gpx), 255);
    }

    #[test]
    fn inner_encode_interleaves() {
        let g = geom();
        let nblocks = g.rs_blocks();
        assert!(nblocks >= 2, "test geometry should have multiple blocks");
        let payload: Vec<u8> = (0..g.payload_capacity()).map(|i| i as u8).collect();
        let coded = inner_encode(&g, &payload);
        assert_eq!(coded.len(), nblocks * RS_N);
        // First nblocks coded bytes are byte 0 of every block, i.e. the
        // first byte of every 223-byte chunk of the payload.
        for b in 0..nblocks {
            assert_eq!(coded[b], payload[b * RS_K]);
        }
    }

    #[test]
    fn calibration_pattern_shape() {
        assert!(!calibration_level(0));
        assert!(!calibration_level(3));
        assert!(calibration_level(4));
        assert!(calibration_level(5));
        assert!(!calibration_level(6));
        assert!(!calibration_level(7));
        assert!(calibration_level(8));
    }

    #[test]
    #[should_panic(expected = "exceeds emblem capacity")]
    fn oversized_payload_panics() {
        let g = geom();
        let too_big = vec![0u8; g.payload_capacity() + 1];
        encode_emblem(&g, &header(0), &too_big);
    }

    #[test]
    fn content_grid_has_expected_size() {
        let g = geom();
        let cells = content_cells(&g, &header(5), &[1, 2, 3, 4, 5]);
        assert_eq!(cells.len(), g.cols * g.rows);
    }
}
