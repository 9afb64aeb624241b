//! Finite-field arithmetic and Reed–Solomon coding for Micr'Olonys.
//!
//! This crate is the coding-theory substrate of the ULE reproduction
//! (system **S1** in `DESIGN.md`). It provides:
//!
//! * [`Gf256`] — arithmetic in GF(2^8) with the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the field used by the paper's
//!   RS(255,223) inner code (the CCSDS/MOCoder parameterisation).
//! * [`poly`] — polynomials over GF(2^8) used by the codec internals.
//! * [`rs`] — a systematic Reed–Solomon encoder/decoder supporting both
//!   unknown-error correction (Berlekamp–Massey + Chien + Forney) and
//!   erasure / mixed errors-and-erasures decoding. MOCoder uses
//!   `RsCode::new(255, 223)` intra-emblem (corrects up to 16 byte errors,
//!   16/223 ≈ 7.2% of user data, matching §3.1 of the paper) and
//!   `RsCode::new(20, 17)` across emblem groups (any 3 missing emblems of
//!   20 are recovered by erasure decoding).
//! * [`kernels`] — the vectorized slice layer (`DESIGN.md` §12): per-
//!   constant 4-bit split tables driving u64-SWAR [`GfKernels::mul_slice`]
//!   / [`GfKernels::mul_add_slice`] primitives plus slice-Horner
//!   evaluation; every `RsCode` hot path (parity, syndromes, column
//!   parity) is rewritten on them, and [`RsCode::decode`] takes a
//!   clean-frame fast path (syndromes-only when nothing is damaged).
//! * [`crc`] — CRC-16/CCITT and CRC-32 (IEEE) used for header and archive
//!   integrity checks, table-driven: [`crc32`] folds sixteen bytes per
//!   step over sliced tables (slice-by-8, doubled), [`crc16_ccitt`] one
//!   byte per lookup. [`crc32_update`] is the streaming form callers use
//!   to fingerprint frame sequences without concatenating them.
//!
//! Everything is implemented from scratch (no external coding crates), is
//! deterministic, and allocates only at codec construction time. The
//! report's `[E11]` section gates the kernel speedups (≥4× RS encode,
//! ≥8× CRC-32 over the retained scalar baselines).

pub mod crc;
pub mod gf;
pub mod kernels;
pub mod poly;
pub mod rs;

pub use crc::{crc16_ccitt, crc32, crc32_update};
pub use gf::Gf256;
pub use kernels::GfKernels;
pub use rs::{RsCode, RsError};
