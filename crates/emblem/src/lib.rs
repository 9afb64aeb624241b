//! MOCoder — the media layout encoder/decoder (system **S4** in `DESIGN.md`).
//!
//! MOCoder performs the "physical" layout of bits across 2D barcodes the
//! paper calls *emblems* (§3.1, Figure 1). Unlike QR codes, emblems:
//!
//! * pair the bit signal with the clock signal (differential-Manchester
//!   style, [`manchester`]) instead of relying on separate timing patterns,
//!   giving robust **local** clock recovery;
//! * are surrounded by a thick black square plus large-scale black/white
//!   dots ([`geometry`]) for fast, robust detection of emblem geometry and
//!   type;
//! * carry multi-megabyte streams across many emblems with **nested
//!   Reed–Solomon** protection: an inner RS(255,223) per emblem (corrects
//!   up to 7.2% damaged data) and an outer RS(20,17) across groups of 20
//!   emblems (any 3 whole emblems may be lost) — see [`stream`].
//!
//! Encoding paints emblems onto [`ule_raster::GrayImage`]s (a master, or a
//! medium's frame in place: [`encode_emblem_into`]); decoding
//! consumes (possibly degraded, rescaled) scans and follows the border
//! geometry to resample the cell grid, so lens curvature and transport
//! jitter are compensated exactly the way §3.1 demands.
//!
//! Emblems in a stream are independent, so each stream stage has two
//! forms: a plain serial one ([`encode_stream`], [`decode_stream`]) and a
//! full one ([`encode_stream_traced`], [`decode_stream_traced`]) that
//! takes a [`ThreadConfig`] and a telemetry handle and fans the
//! per-emblem work out across a scoped worker pool — with output
//! byte-identical to the serial path at any thread count, because the
//! on-medium format is frozen (`DESIGN.md` §9).

pub mod decode;
pub mod encode;
pub mod geometry;
pub mod header;
pub mod locate;
pub mod manchester;
pub mod stream;

pub use decode::{decode_emblem, inner_decode_with, DecodeError, DecodeStats};
pub use encode::{encode_emblem, encode_emblem_into, inner_encode};
pub use geometry::EmblemGeometry;
pub use header::{EmblemHeader, EmblemKind};
pub use stream::{
    decode_frames, decode_stream, decode_stream_traced, encode_stream, encode_stream_traced,
    StreamError,
};
pub use ule_par::ThreadConfig;
