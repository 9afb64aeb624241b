//! Retained scalar baselines for the E11 kernel A/B.
//!
//! These are the pre-kernel implementations of the byte-loop hot paths —
//! the bitwise CRCs and the one-`Gf256::mul`-per-byte Reed–Solomon
//! parity/syndrome loops — kept in-tree so the report's `[E11]` gate
//! always measures the vectorized kernels against the exact code they
//! replaced, on the same host, in the same process. They are reference
//! implementations only: nothing in the pipeline calls them,
//! and they are bit-for-bit equivalent to the kernel paths (the `[E11]`
//! section asserts the equivalence on every run before timing anything).

use ule_gf256::{poly, Gf256};

/// The original bitwise CRC-32 (IEEE 802.3, reflected), one bit at a time.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in data {
        state ^= b as u32;
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    state ^ 0xFFFF_FFFF
}

/// The original bitwise CRC-16/CCITT-FALSE, one bit at a time.
pub fn crc16_ccitt_bitwise(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// The pre-kernel scalar RS(n, k) encoder/syndrome half: log/exp-table
/// multiplies in per-byte loops, exactly as `RsCode` ran before the
/// kernel layer (`DESIGN.md` §12).
pub struct ScalarRs {
    gf: Gf256,
    n: usize,
    k: usize,
    /// Generator polynomial, ascending coefficients, monic.
    gen: Vec<u8>,
}

impl ScalarRs {
    /// Build the scalar codec for RS(n, k) — same generator construction
    /// as [`ule_gf256::RsCode::new`].
    pub fn new(n: usize, k: usize) -> Self {
        let gf = Gf256::new();
        let mut gen = vec![1u8];
        for i in 0..(n - k) {
            gen = poly::mul(&gf, &gen, &[gf.exp(i), 1]);
        }
        Self { gf, n, k, gen }
    }

    /// Scalar synthetic division: one `Gf256::mul` per parity coefficient
    /// per message byte.
    pub fn fill_parity(&self, cw: &mut [u8]) {
        assert_eq!(cw.len(), self.n);
        let p = self.n - self.k;
        let mut rem = vec![0u8; p];
        for j in 0..self.k {
            let factor = cw[j] ^ rem[0];
            rem.copy_within(1.., 0);
            rem[p - 1] = 0;
            if factor != 0 {
                for (i, slot) in rem.iter_mut().enumerate() {
                    *slot ^= self.gf.mul(factor, self.gen[p - 1 - i]);
                }
            }
        }
        cw[self.k..].copy_from_slice(&rem);
    }

    /// Encode `msg` into a fresh codeword, scalar parity.
    pub fn encode(&self, msg: &[u8]) -> Vec<u8> {
        assert_eq!(msg.len(), self.k);
        let mut cw = vec![0u8; self.n];
        cw[..self.k].copy_from_slice(msg);
        self.fill_parity(&mut cw);
        cw
    }

    /// Scalar per-byte Horner syndromes.
    pub fn syndromes(&self, cw: &[u8]) -> Vec<u8> {
        (0..self.n - self.k)
            .map(|i| {
                let x = self.gf.exp(i);
                cw.iter().fold(0u8, |acc, &b| self.gf.mul(acc, x) ^ b)
            })
            .collect()
    }

    /// Scalar clean check — the cost a pre-kernel scan paid per clean
    /// codeword.
    pub fn is_clean(&self, cw: &[u8]) -> bool {
        self.syndromes(cw).iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_gf256::RsCode;

    #[test]
    fn scalar_baselines_match_kernel_implementations() {
        let data: Vec<u8> = (0..999u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc32_bitwise(&data), ule_gf256::crc32(&data));
        assert_eq!(crc16_ccitt_bitwise(&data), ule_gf256::crc16_ccitt(&data));

        let rs = RsCode::new(255, 223);
        let srs = ScalarRs::new(255, 223);
        let msg: Vec<u8> = (0..223u32).map(|i| (i * 7 % 256) as u8).collect();
        let cw = rs.encode(&msg);
        assert_eq!(srs.encode(&msg), cw);
        assert!(srs.is_clean(&cw));
        let mut noisy = cw;
        noisy[17] ^= 0x42;
        assert_eq!(srs.syndromes(&noisy), rs.syndromes(&noisy));
    }
}
