//! Vectorized GF(2^8) slice kernels (the S1 kernel layer, `DESIGN.md` §12).
//!
//! Every byte the archive pipeline touches flows through constant-times-
//! slice products in GF(2^8): Reed–Solomon parity (`RsCode::fill_parity`),
//! syndrome evaluation (`RsCode::syndromes`), stream-level column parity
//! (`RsCode::parity_of`). The scalar form — one [`Gf256::mul`] log/exp
//! lookup pair per byte — leaves the CPU, not the medium, as the
//! bottleneck. This module provides the slice-oriented primitives the hot
//! paths are rewritten on:
//!
//! * [`GfKernels::mul_slice`] — `dst[i] = c · src[i]`
//! * [`GfKernels::mul_add_slice`] — `dst[i] ^= c · src[i]`
//! * [`GfKernels::eval_desc`] — Horner evaluation over 8-byte slices
//!   (the syndrome shape)
//!
//! The technique is the portable cousin of Plank-style split-table Galois
//! kernels ("Screaming Fast Galois Field Arithmetic", the ISA-L approach):
//! for each constant `c` the kernel holds two 16-entry tables
//!
//! ```text
//! lo[v] = c · v          (v = 0..15, the low nibble)
//! hi[v] = c · (v << 4)   (v = 0..15, the high nibble)
//! ```
//!
//! so `c · x = lo[x & 15] ^ hi[x >> 4]` — multiplication distributes over
//! the nibble split because GF(2^8) addition is XOR. SIMD ISAs gather 16
//! such lookups with one shuffle; plain Rust cannot, so the inner loop uses
//! a u64-SWAR equivalent built from the same tables: for each bit `j` of
//! the source bytes, the mask `((s >> j) & 0x0101..01) * (c · 2^j)` places
//! `c · 2^j` in exactly the lanes whose bit `j` is set (lane products fit a
//! byte, so the integer multiply cannot carry across lanes), and XORing the
//! eight partials reconstructs `c · x` in all eight lanes at once. The
//! eight per-bit constants `c · 2^j` are rows 1, 2, 4, 8 of the two split
//! tables. No `unsafe`, no new dependencies, byte-identical to the scalar
//! path — `tests/prop_kernels.rs` pins the equivalence under the pinned
//! `PROPTEST_SEED`, and the golden-format suite pins the absolute archive
//! bytes.
//!
//! Throughput on the E11 harness (the report's `[E11]` section):
//! ≥4× on RS(255,223) encode and ≥8× on CRC32 over the retained scalar
//! baselines.

use crate::gf::Gf256;

/// Broadcast mask: one set bit per 8-bit lane of a `u64`.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// Split-table multiply kernels for every GF(2^8) constant.
///
/// Construction builds 256 × 32 bytes of tables (8 KB) from a [`Gf256`]
/// field — microseconds, so codecs build one per instance. All slice
/// operations are branch-free in the steady state and process eight bytes
/// per SWAR step.
///
/// ```
/// use ule_gf256::{Gf256, GfKernels};
/// let gf = Gf256::new();
/// let k = GfKernels::new(&gf);
/// let src = [1u8, 2, 3, 250, 0, 90];
/// let mut dst = [0u8; 6];
/// k.mul_slice(0x57, &src, &mut dst);
/// for (s, d) in src.iter().zip(&dst) {
///     assert_eq!(*d, gf.mul(0x57, *s));
/// }
/// ```
#[derive(Clone)]
pub struct GfKernels {
    /// `split[c][v]     = c · v` (low-nibble table),
    /// `split[c][16+v]  = c · (v << 4)` (high-nibble table).
    split: Box<[[u8; 32]]>,
}

impl GfKernels {
    /// Build the split tables for every constant of `gf`.
    pub fn new(gf: &Gf256) -> Self {
        let mut split = vec![[0u8; 32]; 256].into_boxed_slice();
        for (c, row) in split.iter_mut().enumerate() {
            for v in 0..16u8 {
                row[v as usize] = gf.mul(c as u8, v);
                row[16 + v as usize] = gf.mul(c as u8, v << 4);
            }
        }
        Self { split }
    }

    /// The eight per-bit SWAR constants `c · 2^j` (rows 1/2/4/8 of the two
    /// split tables), widened for the lane-broadcast multiply.
    #[inline(always)]
    fn bit_consts(&self, c: u8) -> [u64; 8] {
        let t = &self.split[c as usize];
        [
            t[1] as u64,
            t[2] as u64,
            t[4] as u64,
            t[8] as u64,
            t[17] as u64,
            t[18] as u64,
            t[20] as u64,
            t[24] as u64,
        ]
    }

    /// `c · x` via the two 16-entry tables (the scalar-tail form).
    #[inline(always)]
    fn mul_one(&self, c: u8, x: u8) -> u8 {
        let t = &self.split[c as usize];
        t[(x & 0x0F) as usize] ^ t[16 + (x >> 4) as usize]
    }

    /// Eight lanes of `c · x` at once from the per-bit constants.
    #[inline(always)]
    fn mul_word(ct: &[u64; 8], s: u64) -> u64 {
        let mut acc = (s & LANE_LSB) * ct[0];
        acc ^= ((s >> 1) & LANE_LSB) * ct[1];
        acc ^= ((s >> 2) & LANE_LSB) * ct[2];
        acc ^= ((s >> 3) & LANE_LSB) * ct[3];
        acc ^= ((s >> 4) & LANE_LSB) * ct[4];
        acc ^= ((s >> 5) & LANE_LSB) * ct[5];
        acc ^= ((s >> 6) & LANE_LSB) * ct[6];
        acc ^= ((s >> 7) & LANE_LSB) * ct[7];
        acc
    }

    /// `dst[i] = c · src[i]` for every byte.
    ///
    /// # Panics
    /// Panics unless `src` and `dst` have equal lengths.
    pub fn mul_slice(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => {
                let ct = self.bit_consts(c);
                let mut s8 = src.chunks_exact(8);
                let mut d8 = dst.chunks_exact_mut(8);
                for (s, d) in (&mut s8).zip(&mut d8) {
                    let w = u64::from_le_bytes(s.try_into().unwrap());
                    d.copy_from_slice(&Self::mul_word(&ct, w).to_le_bytes());
                }
                for (s, d) in s8.remainder().iter().zip(d8.into_remainder()) {
                    *d = self.mul_one(c, *s);
                }
            }
        }
    }

    /// `dst[i] ^= c · src[i]` for every byte (fused multiply-accumulate,
    /// the Reed–Solomon inner step).
    ///
    /// # Panics
    /// Panics unless `src` and `dst` have equal lengths.
    pub fn mul_add_slice(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_add_slice length mismatch");
        match c {
            0 => {}
            1 => xor_slice(src, dst),
            _ => {
                let ct = self.bit_consts(c);
                let mut s8 = src.chunks_exact(8);
                let mut d8 = dst.chunks_exact_mut(8);
                for (s, d) in (&mut s8).zip(&mut d8) {
                    let sw = u64::from_le_bytes(s.try_into().unwrap());
                    let dw = u64::from_le_bytes(d.as_ref().try_into().unwrap());
                    d.copy_from_slice(&(dw ^ Self::mul_word(&ct, sw)).to_le_bytes());
                }
                for (s, d) in s8.remainder().iter().zip(d8.into_remainder()) {
                    *d ^= self.mul_one(c, *s);
                }
            }
        }
    }

    /// Evaluate `Σ_j data[j] · x^(len-1-j)` — the polynomial a codeword
    /// spells with byte 0 as the highest-weight coefficient, i.e. exactly
    /// the syndrome shape `S_i = c(α^i)`.
    ///
    /// Plain Horner is a chain of dependent multiplies (one per byte); this
    /// form runs Horner *over 8-byte slices*: each chunk contributes
    /// `b0·x^7 ^ b1·x^6 ^ … ^ b7` through eight independent split-table
    /// lookups, and only the per-chunk fold `acc·x^8` stays on the
    /// dependency chain — an 8× shorter critical path.
    pub fn eval_desc(&self, gf: &Gf256, x: u8, data: &[u8]) -> u8 {
        if x == 0 {
            return data.last().copied().unwrap_or(0);
        }
        // x^1 .. x^8 as split-table rows; xp[k] = x^(k+1).
        let mut xp = [0u8; 8];
        let mut p = 1u8;
        for slot in xp.iter_mut() {
            p = gf.mul(p, x);
            *slot = p;
        }
        let head = data.len() % 8;
        let mut acc = 0u8;
        for &b in &data[..head] {
            acc = self.mul_one(x, acc) ^ b;
        }
        let x8 = xp[7];
        for chunk in data[head..].chunks_exact(8) {
            let mut term = chunk[7];
            term ^= self.mul_one(xp[0], chunk[6]);
            term ^= self.mul_one(xp[1], chunk[5]);
            term ^= self.mul_one(xp[2], chunk[4]);
            term ^= self.mul_one(xp[3], chunk[3]);
            term ^= self.mul_one(xp[4], chunk[2]);
            term ^= self.mul_one(xp[5], chunk[1]);
            term ^= self.mul_one(xp[6], chunk[0]);
            acc = self.mul_one(x8, acc) ^ term;
        }
        acc
    }
}

/// `dst[i] ^= src[i]`, eight bytes per step — GF(2^8) slice addition (and
/// the `c = 1` case of [`GfKernels::mul_add_slice`]).
///
/// The 32-byte case is fully unrolled: that is the RS(255,223) parity
/// window, folded once per message byte by `RsCode::fill_parity`, so it is
/// the single hottest slice length in the archive pipeline.
///
/// # Panics
/// Panics unless `src` and `dst` have equal lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    if src.len() == 32 {
        let mut w = [0u64; 4];
        for (i, slot) in w.iter_mut().enumerate() {
            let s = u64::from_le_bytes(src[i * 8..i * 8 + 8].try_into().unwrap());
            let d = u64::from_le_bytes(dst[i * 8..i * 8 + 8].try_into().unwrap());
            *slot = s ^ d;
        }
        for (i, slot) in w.iter().enumerate() {
            dst[i * 8..i * 8 + 8].copy_from_slice(&slot.to_le_bytes());
        }
        return;
    }
    let mut s8 = src.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for (s, d) in (&mut s8).zip(&mut d8) {
        let sw = u64::from_le_bytes(s.try_into().unwrap());
        let dw = u64::from_le_bytes(d.as_ref().try_into().unwrap());
        d.copy_from_slice(&(sw ^ dw).to_le_bytes());
    }
    for (s, d) in s8.remainder().iter().zip(d8.into_remainder()) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn mul_slice_matches_scalar_for_every_constant() {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let src = sample(37, 5); // odd length exercises the SWAR tail
        let mut dst = vec![0u8; 37];
        for c in 0..=255u8 {
            k.mul_slice(c, &src, &mut dst);
            for (s, d) in src.iter().zip(&dst) {
                assert_eq!(*d, gf.mul(c, *s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn mul_add_slice_accumulates() {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let src = sample(41, 9);
        let base = sample(41, 77);
        for c in [0u8, 1, 2, 0x1D, 0x80, 0xFF] {
            let mut dst = base.clone();
            k.mul_add_slice(c, &src, &mut dst);
            for i in 0..src.len() {
                assert_eq!(dst[i], base[i] ^ gf.mul(c, src[i]), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn eval_desc_matches_naive_horner() {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        for len in [0usize, 1, 7, 8, 9, 16, 63, 255] {
            let data = sample(len, len as u8);
            for x in [0u8, 1, 2, 3, 0x53, 0xFF] {
                let mut naive = 0u8;
                for &b in &data {
                    naive = gf.mul(naive, x) ^ b;
                }
                assert_eq!(k.eval_desc(&gf, x, &data), naive, "len={len} x={x}");
            }
        }
    }

    #[test]
    fn xor_slice_is_gf_addition() {
        let a = sample(19, 1);
        let mut b = sample(19, 2);
        let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        xor_slice(&a, &mut b);
        assert_eq!(b, expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let mut dst = [0u8; 3];
        k.mul_slice(2, &[1, 2], &mut dst);
    }
}
