//! MODecode — the MOCoder emblem reader in DynaRisc assembly.
//!
//! Reads a scanned emblem (as a flat array of pixel intensities, exactly
//! what the Bootstrap instructs the restoring user to prepare with
//! "standard image handling libraries"), samples the cell grid, reverses
//! the self-clocking cell code, and de-interleaves the inner-RS blocks.
//!
//! Scope note (`DESIGN.md` §6): this archived decoder handles clean scans
//! — the paper's film experiments decoded "without any errors". Damaged
//! media go through the native MOCoder decoder with full Reed–Solomon
//! correction; porting Berlekamp–Massey to DynaRisc is listed as future
//! work, as the paper itself defers richer DBCoder/MOCoder features.
//!
//! Parameters (u16 LE words at `layout::PARAM_BASE`):
//!
//! | #  | meaning                                        |
//! |----|------------------------------------------------|
//! | 0  | scan width in pixels                           |
//! | 1  | scan height in pixels                          |
//! | 2  | content cols (cells)                           |
//! | 3  | content rows (cells)                           |
//! | 4  | cell pitch in pixels                           |
//! | 5  | origin: offset of content cell (0,0) in pixels |
//! | 6  | inner RS block count                           |
//! | 7  | emblem x offset within the scan                |
//! | 8  | emblem y offset within the scan                |
//!
//! Output: the 16-byte emblem header followed by the de-interleaved
//! payload area (`nblocks × 223` bytes); `out_len = 16 + payload_len`.

use crate::asm::Asm;
use crate::layout::{build_memory, try_read_output, PARAM_BASE};
use crate::programs::{status, ProgError};
use crate::vm::Vm;

/// Host-side parameter block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModecodeParams {
    pub width: u16,
    pub height: u16,
    pub cols: u16,
    pub rows: u16,
    pub cell_px: u16,
    pub origin_px: u16,
    pub nblocks: u16,
    pub xoff: u16,
    pub yoff: u16,
}

impl ModecodeParams {
    pub fn to_words(self) -> [u16; 9] {
        [
            self.width,
            self.height,
            self.cols,
            self.rows,
            self.cell_px,
            self.origin_px,
            self.nblocks,
            self.xoff,
            self.yoff,
        ]
    }
}

/// Build the MODecode instruction stream.
pub fn program() -> Vec<u16> {
    let mut a = Asm::new();
    let sample = a.label();
    let sample_black = a.label();
    let next_cell = a.label();
    let nc_no_wrap = a.label();
    let read_byte = a.label();
    let rb_bit = a.label();
    let hdr_loop = a.label();
    let data_loop = a.label();
    let b_loop = a.label();
    let i_loop = a.label();

    // ---- parameter load ----
    a.ldi_d(3, PARAM_BASE);
    a.ldm_word_inc(15, 3); // width
    a.ldm_word_inc(4, 3); // height (unused)
    a.ldm_word_inc(9, 3); // cols
    a.ldm_word_inc(4, 3); // rows (unused)
    a.ldm_word_inc(14, 3); // cell_px
    a.ldm_word_inc(5, 3); // origin
    a.ldm_word_inc(8, 3); // nblocks
    a.ldm_word_inc(12, 3); // xoff
    a.ldm_word_inc(13, 3); // yoff
                           // base_x = xoff + origin + cell/2 ; base_y = yoff + origin + cell/2
    a.move_r(4, 14);
    a.lsr_i(4, 1);
    a.add(12, 5);
    a.add(12, 4);
    a.add(13, 5);
    a.add(13, 4);
    // D4 = out_base
    a.ldi_d(3, 0x18);
    a.ldm_word_inc(1, 3);
    a.ldm_word_inc(0, 3);
    a.move_d_pair(4, 0);
    a.move_d_d(1, 4);

    // ---- header: 16 bytes from content row 1 ----
    a.ldi(2, 0); // cx
    a.ldi(3, 1); // cy
    a.ldi(11, 16);
    a.bind(hdr_loop);
    a.call(read_byte);
    a.stm_byte_inc(6, 1);
    a.subi(11, 1);
    a.jnz(hdr_loop);

    // ---- data region: nblocks*255 coded bytes from rows 4.. ----
    // Save nblocks at scratch 0x02 for phase B.
    a.ldi_d(3, 2);
    a.stm_word(8, 3);
    a.ldi(4, 255);
    a.mul(8, 4); // coded_total (fits 16 bits for all geometries)
                 // D6 = codedbase = out_base + 16 + coded_total
    a.move_d_d(6, 4);
    a.addi_d(6, 16);
    a.add_d_r(6, 8);
    a.move_d_d(1, 6);
    a.ldi(2, 0);
    a.ldi(3, 4);
    a.bind(data_loop);
    a.call(read_byte);
    a.stm_byte_inc(6, 1);
    a.subi(8, 1);
    a.jnz(data_loop);

    // ---- phase B: de-interleave, dropping block parity ----
    a.ldi_d(3, 2);
    a.ldm_word(4, 3); // nblocks
    a.move_d_d(1, 4);
    a.addi_d(1, 16); // payload dst
    a.ldi(11, 0); // b
    a.bind(b_loop);
    a.ldi(10, 0); // i
    a.bind(i_loop);
    a.move_r(0, 10);
    a.mul(0, 4); // i * nblocks
    a.add(0, 11); // + b
    a.move_d_d(2, 6);
    a.add_d_r(2, 0);
    a.ldm_byte(5, 2);
    a.stm_byte_inc(5, 1);
    a.addi(10, 1);
    a.cmpi(10, 223);
    a.jnz(i_loop);
    a.addi(11, 1);
    a.cmp(11, 4);
    a.jnz(b_loop);

    // ---- out_len = 16 + payload_len (u32 at out_base+6) ----
    a.move_d_d(2, 4);
    a.addi_d(2, 6);
    a.ldm_word_inc(1, 2);
    a.ldm_word(0, 2);
    a.addi(1, 16);
    a.adci(0, 0);
    a.ldi_d(3, 0x14);
    a.stm_word_inc(1, 3);
    a.stm_word(0, 3);
    a.ldi(4, status::OK);
    a.ldi_d(3, 0);
    a.stm_word(4, 3);
    a.ret();

    // ---- subroutine: sample(R0=cx, R1=cy) -> R0 level; clobbers R1,R4,R5,D5
    a.bind(sample);
    a.mul(0, 14); // cx*cell
    a.add(0, 12); // + base_x
    a.move_r(4, 1);
    a.mul(4, 14); // cy*cell
    a.add(4, 13); // + base_y  => py
    a.move_r(5, 4);
    a.mul(5, 15); // low(py*w)
    a.mul_hi(4, 15); // high(py*w)
    a.add(5, 0);
    a.adci(4, 0); // + px
    a.addi(5, 0x40);
    a.adci(4, 0); // + IN_BASE
    a.move_d_pair(5, 4); // D5 = (R4:R5)
    a.ldm_byte(0, 5);
    a.cmpi(0, 128);
    a.jc(sample_black);
    a.ldi(0, 1);
    a.ret();
    a.bind(sample_black);
    a.ldi(0, 0);
    a.ret();

    // ---- subroutine: next_cell -> R0 level at (cx,cy), advances cx/cy
    a.bind(next_cell);
    a.move_r(0, 2);
    a.move_r(1, 3);
    a.call(sample);
    a.addi(2, 1);
    a.cmp(2, 9);
    a.jnz(nc_no_wrap);
    a.ldi(2, 0);
    a.addi(3, 1);
    a.bind(nc_no_wrap);
    a.ret();

    // ---- subroutine: read_byte -> R6 (8 bits, MSB first); clobbers R0,R1,R4,R5,R7,R10
    a.bind(read_byte);
    a.ldi(6, 0);
    a.ldi(7, 8);
    a.bind(rb_bit);
    a.call(next_cell);
    a.move_r(10, 0); // h1
    a.call(next_cell);
    a.xor(0, 10); // bit = h1 ^ h2
    a.lsl_i(6, 1);
    a.or(6, 0);
    a.subi(7, 1);
    a.jnz(rb_bit);
    a.ret();

    a.finish()
}

/// Step budget for a given geometry (generous: ~60 instructions per cell).
pub fn step_budget(params: &ModecodeParams) -> u64 {
    let cells = params.cols as u64 * params.rows as u64;
    200_000 + 120 * cells
}

/// Run MODecode on the host VM. `pixels` is the row-major scan (1 byte per
/// pixel). Returns `header_bytes(16) ++ payload_area(nblocks*223)`.
pub fn run(pixels: &[u8], params: &ModecodeParams) -> Result<Vec<u8>, ProgError> {
    assert_eq!(pixels.len(), params.width as usize * params.height as usize);
    let n = params.nblocks as usize;
    // The program parks its coded-byte scratch at out_base + 16 + n*255 and
    // fills another n*255 bytes there before de-interleaving downward.
    let max_out = 16 + 2 * n * 255 + 64;
    let (mem, out_base) = build_memory(pixels, max_out, &params.to_words());
    let mut vm = Vm::new(program(), mem);
    vm.run(step_budget(params))?;
    let st = u16::from_le_bytes([vm.mem[0], vm.mem[1]]);
    if st != status::OK {
        return Err(ProgError::Status(st));
    }
    Ok(try_read_output(&vm.mem, out_base)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_emblem::geometry::{EDGE_CELLS, QUIET_CELLS};
    use ule_emblem::{encode_emblem, EmblemGeometry, EmblemHeader, EmblemKind};

    fn params_for(geom: &EmblemGeometry, width: u16, height: u16) -> ModecodeParams {
        ModecodeParams {
            width,
            height,
            cols: geom.cols as u16,
            rows: geom.rows as u16,
            cell_px: geom.cell_px as u16,
            origin_px: ((QUIET_CELLS + EDGE_CELLS) * geom.cell_px) as u16,
            nblocks: geom.rs_blocks() as u16,
            xoff: 0,
            yoff: 0,
        }
    }

    #[test]
    fn reads_pristine_emblem_exactly() {
        let geom = EmblemGeometry::test_small();
        let payload: Vec<u8> = (0..geom.payload_capacity())
            .map(|i| (i as u8).wrapping_mul(73).wrapping_add(5))
            .collect();
        let header = EmblemHeader::new(
            EmblemKind::Data,
            2,
            0,
            payload.len() as u32,
            payload.len() as u32,
        );
        let img = encode_emblem(&geom, &header, &payload);
        let p = params_for(&geom, img.width() as u16, img.height() as u16);
        let out = run(img.as_bytes(), &p).unwrap();
        assert_eq!(&out[..16], &header.to_bytes());
        assert_eq!(&out[16..16 + payload.len()], &payload[..]);
    }

    #[test]
    fn short_payload_reports_its_length() {
        let geom = EmblemGeometry::test_small();
        let payload = b"short payload".to_vec();
        let header = EmblemHeader::new(
            EmblemKind::System,
            0,
            0,
            payload.len() as u32,
            payload.len() as u32,
        );
        let img = encode_emblem(&geom, &header, &payload);
        let p = params_for(&geom, img.width() as u16, img.height() as u16);
        let out = run(img.as_bytes(), &p).unwrap();
        // out_len = 16 + payload_len from the decoded header
        assert_eq!(out.len(), 16 + payload.len());
        assert_eq!(&out[16..], &payload[..]);
    }

    #[test]
    fn matches_native_emblem_decoder() {
        let geom = EmblemGeometry::test_small();
        let payload: Vec<u8> = (0..500).map(|i| (i % 251) as u8).collect();
        let header = EmblemHeader::new(
            EmblemKind::Data,
            1,
            0,
            payload.len() as u32,
            payload.len() as u32,
        );
        let img = encode_emblem(&geom, &header, &payload);
        // Native path
        let (nh, np, _) = ule_emblem::decode_emblem(&geom, &img).unwrap();
        // Emulated path
        let p = params_for(&geom, img.width() as u16, img.height() as u16);
        let out = run(img.as_bytes(), &p).unwrap();
        let eh = EmblemHeader::from_bytes(&out[..16]).unwrap();
        assert_eq!(nh, eh);
        assert_eq!(np, &out[16..16 + np.len()]);
    }

    #[test]
    fn emblem_at_offset_in_larger_scan() {
        let geom = EmblemGeometry::test_small();
        let payload = vec![0xA7u8; 64];
        let header = EmblemHeader::new(EmblemKind::Data, 0, 0, 64, 64);
        let img = encode_emblem(&geom, &header, &payload);
        // Paste into a larger white canvas at (17, 23).
        let mut canvas = ule_raster::GrayImage::new(img.width() + 50, img.height() + 40, 255);
        ule_raster::draw::blit(&mut canvas, &img, 17, 23);
        let mut p = params_for(&geom, canvas.width() as u16, canvas.height() as u16);
        p.xoff = 17;
        p.yoff = 23;
        let out = run(canvas.as_bytes(), &p).unwrap();
        assert_eq!(&out[16..16 + 64], &payload[..]);
    }

    #[test]
    fn program_is_compact() {
        let words = program();
        assert!(words.len() < 400, "modecode is {} words", words.len());
    }
}
