//! Systematic Reed–Solomon codec with errors-and-erasures decoding.
//!
//! The code is defined over GF(2^8) with generator roots `alpha^0 ..
//! alpha^(n-k-1)` (first consecutive root = 0). Codewords are laid out
//! `[message | parity]`; byte `j` carries the coefficient of
//! `x^(n-1-j)`, which makes shortened codes (n < 255) work transparently:
//! a shortened codeword is the tail of a full-length codeword whose leading
//! message bytes are zero.
//!
//! Decoding uses Berlekamp–Massey (with Blahut's erasure initialisation),
//! Chien search and Forney's formula, so both the paper's intra-emblem
//! RS(255,223) code (16 unknown byte errors per block) and the inter-emblem
//! RS(20,17) code (3 known-missing emblems per group of 20) are served by
//! the same implementation.
//!
//! The hot paths run on the slice kernels of [`crate::kernels`]
//! (`DESIGN.md` §12): encoding is one [`GfKernels::mul_add_slice`] per
//! message coefficient over the parity window, syndromes are Horner over
//! 8-byte slices ([`GfKernels::eval_desc`]), [`RsCode::parity_of`] batches
//! whole byte columns per slice call, and [`RsCode::decode`] takes a
//! **clean-frame fast path**: syndromes are computed first and an all-zero
//! vector returns immediately, so scanning undamaged media never runs
//! Berlekamp–Massey/Chien/Forney at all.

use crate::gf::{Gf256, GROUP_ORDER};
use crate::kernels::{xor_slice, GfKernels};
use crate::poly;

/// Decoding failure reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// More errors/erasures than the code can correct, or an inconsistent
    /// received word (locator degree does not match its root count, or the
    /// corrected word still has non-zero syndromes).
    TooManyErrors,
    /// An erasure index lies outside the codeword.
    BadErasure { index: usize, codeword_len: usize },
    /// Input slice length does not match the code parameters.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "uncorrectable codeword"),
            RsError::BadErasure {
                index,
                codeword_len,
            } => {
                write!(
                    f,
                    "erasure index {index} out of range for codeword of {codeword_len}"
                )
            }
            RsError::LengthMismatch { expected, got } => {
                write!(f, "expected slice of length {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic RS(n, k) code over GF(2^8).
///
/// ```
/// use ule_gf256::RsCode;
/// let rs = RsCode::new(255, 223); // MOCoder's inner code
/// let msg: Vec<u8> = (0..223).map(|i| (i * 7) as u8).collect();
/// let mut cw = rs.encode(&msg);
/// for i in [0, 50, 100, 200] { cw[i] ^= 0xA5; } // 4 byte errors
/// let fixed = rs.decode(&mut cw, &[]).unwrap();
/// assert_eq!(fixed, 4);
/// assert_eq!(&cw[..223], &msg[..]);
/// ```
#[derive(Clone)]
pub struct RsCode {
    gf: Gf256,
    kernels: GfKernels,
    n: usize,
    k: usize,
    /// Generator polynomial, ascending coefficients, degree n-k (monic).
    gen: Vec<u8>,
    /// The generator tail in descending coefficient order without the
    /// monic head: `gen_window[i] = gen[p - 1 - i]` for `i < p`. This is
    /// the constant slice every long-division step folds into the parity
    /// window.
    gen_window: Vec<u8>,
    /// Per-factor product rows of the generator window: row `f` (at
    /// `[f * p .. (f + 1) * p]`) is `f · gen_window`, materialised at
    /// construction with [`GfKernels::mul_slice`]. `fill_parity` folds one
    /// whole row per message coefficient with a word-wide XOR — the split
    /// tables fully precomputed for the only constant slice the encoder
    /// ever multiplies (≤ 8 KB per code).
    enc_rows: Vec<u8>,
}

impl RsCode {
    /// Construct an RS(n, k) code. `n` ≤ 255, `0 < k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= GROUP_ORDER, "n must be <= 255");
        assert!(k > 0 && k < n, "need 0 < k < n");
        let gf = Gf256::new();
        // g(x) = prod_{i=0}^{n-k-1} (x + alpha^i)
        let mut gen = vec![1u8];
        for i in 0..(n - k) {
            gen = poly::mul(&gf, &gen, &[gf.exp(i), 1]);
        }
        let p = n - k;
        let gen_window: Vec<u8> = (0..p).map(|i| gen[p - 1 - i]).collect();
        let kernels = GfKernels::new(&gf);
        let mut enc_rows = vec![0u8; 256 * p];
        for (f, row) in enc_rows.chunks_exact_mut(p).enumerate() {
            kernels.mul_slice(f as u8, &gen_window, row);
        }
        Self {
            gf,
            kernels,
            n,
            k,
            gen,
            gen_window,
            enc_rows,
        }
    }

    /// Codeword length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity bytes (2t).
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of correctable unknown errors (t).
    pub fn max_errors(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Borrow the field (used by callers embedding GF tables elsewhere).
    pub fn field(&self) -> &Gf256 {
        &self.gf
    }

    /// Borrow the slice kernels this code runs its hot paths on.
    pub fn kernels(&self) -> &GfKernels {
        &self.kernels
    }

    /// The generator polynomial, ascending coefficients (monic, degree
    /// `parity_len()`).
    pub fn generator(&self) -> &[u8] {
        &self.gen
    }

    /// Encode `msg` (length k) into a fresh n-byte codeword `[msg | parity]`.
    pub fn encode(&self, msg: &[u8]) -> Vec<u8> {
        assert_eq!(msg.len(), self.k, "message must be exactly k bytes");
        let mut cw = vec![0u8; self.n];
        cw[..self.k].copy_from_slice(msg);
        self.fill_parity(&mut cw);
        cw
    }

    /// Column-wise parity over `k` equal-length message streams: byte `j`
    /// of stream `i` sits at codeword position `i` of column `j`. Returns
    /// the `parity_len()` parity streams, each of the shared stream
    /// length. This is the shape both stream-level RS uses share — the
    /// inter-emblem outer code (three parity emblems per group of 17) and
    /// the cross-reel parity reels of the vault (S16, one parity reel per
    /// reel group): any `parity_len()` whole streams may be lost and
    /// recovered per column via [`RsCode::decode`] with their positions
    /// given as erasures.
    ///
    /// # Panics
    /// Panics unless exactly `k` streams of one common length are given.
    pub fn parity_of(&self, msgs: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(msgs.len(), self.k, "need exactly k message streams");
        let len = msgs.first().map_or(0, |m| m.len());
        assert!(
            msgs.iter().all(|m| m.len() == len),
            "message streams must share one length"
        );
        let p = self.parity_len();
        // Column-batched LFSR: run the same synthetic division
        // `fill_parity` performs, but with whole byte *streams* in each
        // register slot — every column advances one step per
        // `mul_add_slice`, instead of re-running the division column by
        // column. The per-column arithmetic is identical, so the parity
        // bytes match `fill_parity` exactly (pinned by unit test below).
        let mut rem: Vec<Vec<u8>> = vec![vec![0u8; len]; p];
        let mut factor = vec![0u8; len];
        for m in msgs {
            factor.copy_from_slice(m);
            xor_slice(&rem[0], &mut factor);
            rem.rotate_left(1);
            rem[p - 1].fill(0);
            for (i, r) in rem.iter_mut().enumerate() {
                self.kernels.mul_add_slice(self.gen_window[i], &factor, r);
            }
        }
        rem
    }

    /// Compute parity over `cw[..k]` and write it into `cw[k..]`.
    ///
    /// Polynomial long division of `msg(x) · x^p` by `g(x)`, shift-free:
    /// the dividend sits in a `k + p` scratch buffer and each step folds
    /// `factor · gen_window` — a precomputed kernel row — into the sliding
    /// parity window with one word-wide XOR. Same remainder as the classic
    /// LFSR form byte for byte (the scalar reference in the test module
    /// and `ule_bench::scalar` pin it), ≥4× its throughput (report `[E11]`).
    pub fn fill_parity(&self, cw: &mut [u8]) {
        assert_eq!(cw.len(), self.n);
        let p = self.parity_len();
        // n <= 255 always (asserted at construction), so the dividend
        // scratch lives on the stack.
        let mut scratch = [0u8; 255];
        let buf = &mut scratch[..self.n];
        buf[..self.k].copy_from_slice(&cw[..self.k]);
        buf[self.k..].fill(0);
        for j in 0..self.k {
            let factor = buf[j];
            if factor != 0 {
                let row = &self.enc_rows[factor as usize * p..(factor as usize + 1) * p];
                xor_slice(row, &mut buf[j + 1..j + 1 + p]);
            }
        }
        cw[self.k..].copy_from_slice(&buf[self.k..]);
    }

    /// Syndromes S_i = c(alpha^i), i = 0..2t-1. All-zero means clean.
    ///
    /// Each syndrome is a Horner evaluation over 8-byte slices
    /// ([`GfKernels::eval_desc`]): byte 0 has weight `alpha^(i*(n-1))`.
    /// This is the whole cost of scanning a clean codeword — see
    /// [`RsCode::decode`]'s clean-frame fast path and `DESIGN.md` §12.
    ///
    /// ```
    /// use ule_gf256::RsCode;
    /// let rs = RsCode::new(20, 17);
    /// let mut cw = rs.encode(&[7u8; 17]);
    /// assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
    /// cw[3] ^= 0x10; // any corruption leaves a non-zero syndrome
    /// assert!(rs.syndromes(&cw).iter().any(|&s| s != 0));
    /// ```
    pub fn syndromes(&self, cw: &[u8]) -> Vec<u8> {
        let p = self.parity_len();
        let mut syn = vec![0u8; p];
        for (i, s) in syn.iter_mut().enumerate() {
            *s = self.kernels.eval_desc(&self.gf, self.gf.exp(i), cw);
        }
        syn
    }

    /// True if the codeword has no detectable errors.
    ///
    /// This is the syndromes-only check the scan pipeline leans on: for
    /// undamaged media it is the *entire* decode cost (`DESIGN.md` §12).
    ///
    /// ```
    /// use ule_gf256::RsCode;
    /// let rs = RsCode::new(255, 223);
    /// let msg: Vec<u8> = (0..223).map(|i| i as u8).collect();
    /// let mut cw = rs.encode(&msg);
    /// assert!(rs.is_clean(&cw));
    /// cw[100] ^= 1;
    /// assert!(!rs.is_clean(&cw));
    /// ```
    pub fn is_clean(&self, cw: &[u8]) -> bool {
        self.syndromes(cw).iter().all(|&s| s == 0)
    }

    /// Correct `cw` in place. `erasures` lists byte indices known to be
    /// unreliable (their current contents are ignored). Returns the number
    /// of corrected byte positions.
    ///
    /// Capacity: `2 * errors + erasures <= n - k`.
    ///
    /// **Clean-frame fast path**: syndromes are computed first and an
    /// all-zero vector returns `Ok(0)` immediately, so a clean codeword
    /// costs exactly one [`RsCode::syndromes`] pass — Berlekamp–Massey,
    /// Chien search and Forney never run. Scanning undamaged media (the
    /// overwhelmingly common archival case) is therefore syndromes-bound;
    /// `DESIGN.md` §12 and the report's `[E11]` section quantify it.
    pub fn decode(&self, cw: &mut [u8], erasures: &[usize]) -> Result<usize, RsError> {
        self.decode_positions(cw, erasures).map(|p| p.len())
    }

    /// Like [`RsCode::decode`], but returns the corrected byte *positions*
    /// rather than just their count. This is the decode-health surface the
    /// telemetry layer records (`RestoreStats::rs_corrected` and the
    /// E14 counters): the Chien search already finds these indices, so
    /// exposing them costs nothing the count-only path was not paying.
    ///
    /// ```
    /// use ule_gf256::RsCode;
    /// let rs = RsCode::new(20, 17);
    /// let mut cw = rs.encode(&[9u8; 17]);
    /// cw[4] ^= 0x21;
    /// let fixed = rs.decode_positions(&mut cw, &[]).unwrap();
    /// assert_eq!(fixed, vec![4]);
    /// ```
    pub fn decode_positions(
        &self,
        cw: &mut [u8],
        erasures: &[usize],
    ) -> Result<Vec<usize>, RsError> {
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        for &e in erasures {
            if e >= self.n {
                return Err(RsError::BadErasure {
                    index: e,
                    codeword_len: self.n,
                });
            }
        }
        let p = self.parity_len();
        if erasures.len() > p {
            return Err(RsError::TooManyErrors);
        }
        // Clean-frame fast path: an all-zero syndrome vector proves the
        // received word is already a codeword (and erasure positions hold
        // correct values), so the algebraic machinery below never runs.
        let syn = self.syndromes(cw);
        if syn.iter().all(|&s| s == 0) {
            return Ok(Vec::new());
        }
        let gf = &self.gf;

        // Erasure locator Γ(x) = prod (1 + X_j x), X_j = alpha^(n-1-pos).
        let mut gamma = vec![1u8];
        for &e in erasures {
            let xj = gf.exp(self.n - 1 - e);
            gamma = poly::mul(gf, &gamma, &[1, xj]);
        }

        // Berlekamp–Massey with erasure initialisation (Blahut):
        // start from Λ = B = Γ, L = e, iterate r = e .. 2t-1.
        let e_count = erasures.len();
        let mut lambda = gamma.clone();
        let mut b = gamma.clone();
        let mut l = e_count;
        let mut m = 1usize;
        let mut bden = 1u8;
        for r in e_count..p {
            // Discrepancy Δ = Σ_j Λ_j S_{r-j}.
            let mut delta = 0u8;
            for (j, &lj) in lambda.iter().enumerate() {
                if j <= r {
                    delta ^= gf.mul(lj, syn[r - j]);
                }
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= r + e_count {
                let t_poly = lambda.clone();
                lambda = self.bm_update(&lambda, &b, delta, bden, m);
                l = r + 1 - l + e_count;
                b = t_poly;
                bden = delta;
                m = 1;
            } else {
                lambda = self.bm_update(&lambda, &b, delta, bden, m);
                m += 1;
            }
        }

        let deg = poly::degree(&lambda).ok_or(RsError::TooManyErrors)?;
        if deg > p {
            return Err(RsError::TooManyErrors);
        }

        // Chien search over the n valid positions.
        let mut positions = Vec::with_capacity(deg);
        for j in 0..self.n {
            let weight = self.n - 1 - j;
            // Test Λ(X^-1) where X = alpha^weight.
            let xinv = gf.exp(GROUP_ORDER - weight % GROUP_ORDER);
            if poly::eval(gf, &lambda, xinv) == 0 {
                positions.push(j);
            }
        }
        if positions.len() != deg {
            return Err(RsError::TooManyErrors);
        }

        // Ω(x) = S(x)Λ(x) mod x^2t, then Forney.
        let mut omega = poly::mul(gf, &syn, &lambda);
        omega.truncate(p);
        let lambda_d = poly::derivative(&lambda);
        for &j in &positions {
            let weight = self.n - 1 - j;
            let x = gf.exp(weight);
            let xinv = gf.exp(GROUP_ORDER - weight % GROUP_ORDER);
            let num = poly::eval(gf, &omega, xinv);
            let den = poly::eval(gf, &lambda_d, xinv);
            if den == 0 {
                return Err(RsError::TooManyErrors);
            }
            let magnitude = gf.mul(x, gf.div(num, den));
            cw[j] ^= magnitude;
        }

        // Final consistency check: corrected word must be a codeword.
        if !self.is_clean(cw) {
            return Err(RsError::TooManyErrors);
        }
        Ok(positions)
    }

    /// Λ ← Λ + (Δ / b) · x^m · B
    fn bm_update(&self, lambda: &[u8], b: &[u8], delta: u8, bden: u8, m: usize) -> Vec<u8> {
        let gf = &self.gf;
        let coef = gf.div(delta, bden);
        let mut shifted = vec![0u8; m + b.len()];
        for (i, &bi) in b.iter().enumerate() {
            shifted[m + i] = gf.mul(coef, bi);
        }
        poly::add(lambda, &shifted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg(k: usize, seed: u8) -> Vec<u8> {
        (0..k)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn decode_positions_names_the_injected_error_sites() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 5);
        let mut cw = rs.encode(&msg);
        // Mixed case: two random errors plus one declared erasure.
        cw[10] ^= 0x5a;
        cw[200] ^= 0x01;
        cw[77] = 0xff;
        let mut fixed = rs.decode_positions(&mut cw, &[77]).unwrap();
        fixed.sort_unstable();
        assert_eq!(fixed, vec![10, 77, 200]);
        assert_eq!(&cw[..223], msg.as_slice());
        // Clean codeword: the fast path reports no positions.
        let mut clean = rs.encode(&msg);
        assert!(rs.decode_positions(&mut clean, &[]).unwrap().is_empty());
    }

    #[test]
    fn parity_of_recovers_any_lost_stream() {
        // The cross-reel shape: 3 content streams + 1 parity stream under
        // RS(4,3); dropping any one stream must be recoverable per column.
        let rs = RsCode::new(4, 3);
        let streams: Vec<Vec<u8>> = (0..3u8).map(|s| sample_msg(40, s * 7 + 1)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let parity = rs.parity_of(&refs);
        assert_eq!(parity.len(), 1);
        assert_eq!(parity[0].len(), 40);
        for lost in 0..3usize {
            let mut recovered = vec![0u8; 40];
            for j in 0..40 {
                let mut cw = [0u8; 4];
                for (i, s) in streams.iter().enumerate() {
                    cw[i] = if i == lost { 0 } else { s[j] };
                }
                cw[3] = parity[0][j];
                rs.decode(&mut cw, &[lost]).unwrap();
                recovered[j] = cw[lost];
            }
            assert_eq!(recovered, streams[lost], "lost stream {lost}");
        }
    }

    #[test]
    fn parity_of_matches_fill_parity_per_column() {
        let rs = RsCode::new(20, 17);
        let streams: Vec<Vec<u8>> = (0..17u8).map(|s| sample_msg(9, s)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let parity = rs.parity_of(&refs);
        assert_eq!(parity.len(), 3);
        for j in 0..9 {
            let mut cw = vec![0u8; 20];
            for (i, s) in streams.iter().enumerate() {
                cw[i] = s[j];
            }
            rs.fill_parity(&mut cw);
            for (pi, ps) in parity.iter().enumerate() {
                assert_eq!(ps[j], cw[17 + pi]);
            }
        }
    }

    #[test]
    fn clean_roundtrip_255_223() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 3);
        let cw = rs.encode(&msg);
        assert!(rs.is_clean(&cw));
        assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 9);
        for nerr in [1usize, 2, 8, 16] {
            let mut cw = rs.encode(&msg);
            for e in 0..nerr {
                cw[e * 14 + 3] ^= (e as u8) | 1;
            }
            let fixed = rs.decode(&mut cw, &[]).unwrap();
            assert_eq!(fixed, nerr, "nerr={nerr}");
            assert_eq!(&cw[..223], &msg[..]);
        }
    }

    #[test]
    fn rejects_t_plus_one_errors() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 1);
        let mut cw = rs.encode(&msg);
        for e in 0..17 {
            cw[e * 9 + 2] ^= 0x5A;
        }
        // Either detected as uncorrectable, or (rarely for RS) miscorrected;
        // with 17 errors > t the decoder must not claim success with the
        // original message intact.
        match rs.decode(&mut cw, &[]) {
            Err(RsError::TooManyErrors) => {}
            Ok(_) => assert_ne!(&cw[..223], &msg[..], "cannot genuinely fix t+1 errors"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn corrects_2t_erasures() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 77);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = (0..32).map(|i| i * 7 + 1).collect();
        for &e in &erasures {
            cw[e] = 0xEE;
        }
        let fixed = rs.decode(&mut cw, &erasures).unwrap();
        assert!(fixed <= 32);
        assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn mixed_errors_and_erasures_within_budget() {
        // 2*errors + erasures <= 32 : use 10 errors + 12 erasures.
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 42);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = (0..12).map(|i| i * 3).collect();
        for &e in &erasures {
            cw[e] = !cw[e];
        }
        for i in 0..10 {
            cw[100 + i * 5] ^= 0x80 | i as u8 | 1;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn outer_code_20_17_restores_three_missing() {
        // The paper's inter-emblem configuration: 17 data + 3 parity,
        // any 3 whole emblems may vanish.
        let rs = RsCode::new(20, 17);
        let msg = sample_msg(17, 5);
        let mut cw = rs.encode(&msg);
        let gone = [2usize, 9, 19];
        for &g in &gone {
            cw[g] = 0;
        }
        rs.decode(&mut cw, &gone).unwrap();
        assert_eq!(&cw[..17], &msg[..]);
    }

    #[test]
    fn outer_code_rejects_four_missing() {
        let rs = RsCode::new(20, 17);
        let msg = sample_msg(17, 5);
        let mut cw = rs.encode(&msg);
        let gone = [2usize, 9, 13, 19];
        for &g in &gone {
            cw[g] = 1;
        }
        assert!(rs.decode(&mut cw, &gone).is_err());
    }

    #[test]
    fn erasure_value_is_ignored_not_trusted() {
        let rs = RsCode::new(20, 17);
        let msg = sample_msg(17, 8);
        let mut cw = rs.encode(&msg);
        // Erased byte happens to still hold the right value: must still work.
        rs.decode(&mut cw.clone(), &[4]).unwrap();
        cw[4] = 0xFF;
        rs.decode(&mut cw, &[4]).unwrap();
        assert_eq!(&cw[..17], &msg[..]);
    }

    #[test]
    fn error_in_parity_region_is_corrected() {
        let rs = RsCode::new(255, 223);
        let msg = sample_msg(223, 10);
        let mut cw = rs.encode(&msg);
        cw[240] ^= 0x31;
        cw[254] ^= 0x02;
        assert_eq!(rs.decode(&mut cw, &[]).unwrap(), 2);
        assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn shortened_code_roundtrip() {
        let rs = RsCode::new(60, 40);
        let msg = sample_msg(40, 21);
        let mut cw = rs.encode(&msg);
        for i in 0..10 {
            cw[i * 6 + 1] ^= 0x11 + i as u8;
        }
        rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(&cw[..40], &msg[..]);
    }

    #[test]
    fn decode_reports_length_mismatch() {
        let rs = RsCode::new(20, 17);
        let mut short = vec![0u8; 10];
        assert!(matches!(
            rs.decode(&mut short, &[]),
            Err(RsError::LengthMismatch {
                expected: 20,
                got: 10
            })
        ));
    }

    #[test]
    fn decode_reports_bad_erasure_index() {
        let rs = RsCode::new(20, 17);
        let mut cw = rs.encode(&sample_msg(17, 0));
        assert!(matches!(
            rs.decode(&mut cw, &[25]),
            Err(RsError::BadErasure { .. })
        ));
    }

    #[test]
    fn zero_message_is_zero_codeword() {
        let rs = RsCode::new(255, 223);
        let cw = rs.encode(&vec![0u8; 223]);
        assert!(cw.iter().all(|&b| b == 0));
    }

    /// The pre-kernel scalar parity loop, retained as the reference the
    /// SWAR rewrite is pinned against (and mirrored by the E11 baseline in
    /// `ule_bench::scalar`).
    fn fill_parity_scalar(rs: &RsCode, cw: &mut [u8]) {
        let p = rs.parity_len();
        let mut rem = vec![0u8; p];
        for j in 0..rs.k() {
            let factor = cw[j] ^ rem[0];
            rem.copy_within(1.., 0);
            rem[p - 1] = 0;
            if factor != 0 {
                for (i, slot) in rem.iter_mut().enumerate() {
                    *slot ^= rs.gf.mul(factor, rs.gen[p - 1 - i]);
                }
            }
        }
        cw[rs.k()..].copy_from_slice(&rem);
    }

    /// The pre-kernel per-byte Horner syndrome loop, same role.
    fn syndromes_scalar(rs: &RsCode, cw: &[u8]) -> Vec<u8> {
        (0..rs.parity_len())
            .map(|i| {
                let x = rs.gf.exp(i);
                cw.iter().fold(0u8, |acc, &b| rs.gf.mul(acc, x) ^ b)
            })
            .collect()
    }

    #[test]
    fn kernel_parity_and_syndromes_match_scalar_references() {
        for (n, k) in [(255usize, 223usize), (20, 17), (60, 40), (4, 3)] {
            let rs = RsCode::new(n, k);
            for seed in 0..4u8 {
                let msg = sample_msg(k, seed.wrapping_mul(91));
                let mut kernel_cw = vec![0u8; n];
                kernel_cw[..k].copy_from_slice(&msg);
                let mut scalar_cw = kernel_cw.clone();
                rs.fill_parity(&mut kernel_cw);
                fill_parity_scalar(&rs, &mut scalar_cw);
                assert_eq!(kernel_cw, scalar_cw, "n={n} k={k} seed={seed}");
                let mut noisy = kernel_cw.clone();
                noisy[seed as usize % n] ^= 0x5A;
                assert_eq!(
                    rs.syndromes(&noisy),
                    syndromes_scalar(&rs, &noisy),
                    "n={n} k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn max_errors_matches_paper_ratio() {
        let rs = RsCode::new(255, 223);
        assert_eq!(rs.max_errors(), 16);
        // 16 correctable bytes per 223 data bytes = 7.17% ≈ the paper's 7.2%.
        let pct = 100.0 * rs.max_errors() as f64 / rs.k() as f64;
        assert!((pct - 7.2).abs() < 0.1, "got {pct}");
    }
}
