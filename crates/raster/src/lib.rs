//! Raster imaging and scanner simulation (system **S3** in `DESIGN.md`).
//!
//! Micr'Olonys stores data as printed/filmed pictures and reads it back via
//! scanners. This crate supplies the imaging substrate:
//!
//! * [`image::GrayImage`] — 8-bit grayscale raster (bitonal images are the
//!   0/255 special case, as with the paper's bitonal TIFF microfilm frames);
//! * [`pnm`] — PGM (P5) / PBM (P4) serialization so every artifact in the
//!   pipeline can be dumped and inspected;
//! * [`draw`] — the rectangle/grid primitives the emblem renderer uses;
//! * [`sample`] — the bilinear sampler the scanner's geometry pass reads
//!   through (2K film frames are scanned at 4K in the paper's cinema
//!   experiment);
//! * [`scan`] — the physical degradation model of §3.1: fading, hot spots,
//!   scratches, dust, lens curvature and transport jitter, all seeded and
//!   deterministic;
//! * [`rng`] — a small splitmix64 generator so degradations are
//!   reproducible without external dependencies.

pub mod draw;
pub mod image;
pub mod pnm;
pub mod rng;
pub mod sample;
pub mod scan;

pub use image::GrayImage;
pub use scan::{DegradeParams, Scanner};
