//! DBCoder — database layout encoder/decoder (system **S2** in `DESIGN.md`).
//!
//! The paper's DBCoder converts the textual database archive (a pg_dump-style
//! SQL file) into a compact binary layout before media encoding. Its stated
//! scheme is "LZ77 and arithmetic coding … close to 7-Zip's LZMA"; columnar
//! layouts are listed as future work (§5). This crate implements:
//!
//! * [`lzss`] — byte-oriented LZ77 with flag bits (window 4096, len 3–18).
//!   This is the **archival default**: its decoder is small enough to be
//!   ported to DynaRisc assembly (`ule-dynarisc`'s `DBDecode` program), which
//!   is the whole point of ULE — the decoder travels with the data.
//! * [`lza`] — LZ77 (1 MiB window, lazy matching) + adaptive binary
//!   arithmetic coding (LZMA-style range coder, bit-tree models). This is
//!   the paper's "LZ77 + arithmetic coding" high-ratio scheme.
//! * [`rle`] — run-length baseline.
//! * [`columnar`] — the future-work extension: SQL-dump-aware columnar
//!   re-layout (per-column dictionary / delta-varint) with an LZA backend.
//! * [`container`] — the `ULEA` archive container: scheme id, original
//!   length, CRC-32, payload. [`compress`]/[`decompress`] are the public
//!   entry points used by Micr'Olonys.

pub mod arith;
pub mod bitio;
pub mod columnar;
pub mod container;
pub mod lza;
pub mod lzss;
pub mod matchfinder;
pub mod rle;

pub use container::{compress, decompress, ArchiveError, Scheme};

/// Upper bound on what a decoder pre-allocates for its output buffer.
/// `expected_len` comes from an archive header that may be corrupted, so
/// decoders start no larger than this and let the vector grow naturally —
/// their truncation checks stop a lying length long before it matters.
pub(crate) const MAX_PREALLOC: usize = 1 << 20;
