//! Polynomials over GF(2^8), coefficient order: index i = coefficient of x^i.

use crate::gf::Gf256;

/// Evaluate `p(x)` by Horner's rule.
#[inline]
pub fn eval(gf: &Gf256, p: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in p.iter().rev() {
        acc = gf.mul(acc, x) ^ c;
    }
    acc
}

/// Multiply two polynomials (allocates the product).
pub fn mul(gf: &Gf256, a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] ^= gf.mul(ai, bj);
        }
    }
    out
}

/// Add two polynomials.
pub fn add(a: &[u8], b: &[u8]) -> Vec<u8> {
    let n = a.len().max(b.len());
    let mut out = vec![0u8; n];
    for (i, slot) in out.iter_mut().enumerate() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        *slot = x ^ y;
    }
    out
}

/// Formal derivative. In characteristic 2 the even-power terms vanish:
/// d/dx sum c_i x^i = sum over odd i of c_i x^(i-1).
pub fn derivative(p: &[u8]) -> Vec<u8> {
    if p.len() <= 1 {
        return Vec::new();
    }
    let mut out = vec![0u8; p.len() - 1];
    for i in (1..p.len()).step_by(2) {
        out[i - 1] = p[i];
    }
    out
}

/// Degree, treating trailing zeros as absent. Returns `None` for the zero
/// polynomial.
pub fn degree(p: &[u8]) -> Option<usize> {
    p.iter().rposition(|&c| c != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_constant_and_linear() {
        let gf = Gf256::new();
        assert_eq!(eval(&gf, &[7], 99), 7);
        // p(x) = 3 + 2x at x=5 -> 3 ^ mul(2,5)
        assert_eq!(eval(&gf, &[3, 2], 5), 3 ^ gf.mul(2, 5));
    }

    #[test]
    fn mul_by_one_is_identity() {
        let gf = Gf256::new();
        let p = [1u8, 2, 3, 4];
        assert_eq!(mul(&gf, &p, &[1]), p.to_vec());
    }

    #[test]
    fn mul_evaluates_consistently() {
        let gf = Gf256::new();
        let a = [5u8, 0, 9];
        let b = [1u8, 7];
        let ab = mul(&gf, &a, &b);
        for x in [0u8, 1, 2, 50, 200] {
            assert_eq!(
                eval(&gf, &ab, x),
                gf.mul(eval(&gf, &a, x), eval(&gf, &b, x))
            );
        }
    }

    #[test]
    fn derivative_in_char2() {
        // d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + c3 x^2
        let p = [10u8, 20, 30, 40];
        assert_eq!(derivative(&p), vec![20, 0, 40]);
    }

    #[test]
    fn degree_ignores_trailing_zeros() {
        assert_eq!(degree(&[0, 0, 0]), None);
        assert_eq!(degree(&[1]), Some(0));
        assert_eq!(degree(&[0, 5, 0]), Some(1));
    }
}
