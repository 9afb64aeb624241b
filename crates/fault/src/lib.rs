//! Physical fault injection for archival media (system **S15** in
//! `DESIGN.md` §10).
//!
//! The paper's robustness story (§3.1) promises survival of *decades of
//! physical decay*: scratched film, stained and torn pages, faded ink,
//! lost reel segments, pages re-filed out of order. The damage harness the
//! earlier experiments used (isolated codeword byte flips, uniform scanner
//! noise) exercises the Reed–Solomon math but nothing like those failure
//! shapes. This crate supplies them:
//!
//! * [`FaultModel`] — one seeded, deterministic damage mechanism. Pixel
//!   models damage individual scanned frames ([`FaultModel::apply_frame`]);
//!   frame-set models restructure the scan list itself
//!   ([`FaultModel::apply_set`]) — losing or reordering whole frames the
//!   way a spliced reel or a dropped folder would.
//! * [`models`] — the calibrated model zoo: burst scratches, blotches,
//!   contrast fade, edge tears, salt-and-pepper spotting, whole-frame loss
//!   and reordering. Each documents its severity semantics; severity `0.0`
//!   is always the identity.
//! * [`FaultPlan`] — a composable sequence of models applied at one
//!   severity knob, serially and deterministically in `(severity, seed)`
//!   (E9 fans out across cases instead, [`RecoveryEnvelope`]).
//! * [`RecoveryEnvelope`] — the campaign runner: binary-searches the
//!   maximum survivable severity of an arbitrary recovery predicate, the
//!   engine behind experiment E9 (`DESIGN.md` §7).
//!
//! The crate deliberately depends only on `ule_raster` (images, RNG) and
//! `ule_par` (worker pool): media wiring lives in `ule_media`
//! (`Medium::scan_with_faults`, `Medium::canonical_fault_plan`) and the
//! archive/restore predicates live in `ule_bench`'s E9 section, so fault
//! injection stays reusable against any pipeline stage.

pub mod envelope;
pub mod models;
pub mod plan;

pub use envelope::{EnvelopeCase, EnvelopeResult, RecoveryEnvelope};
pub use models::{
    Blotch, BurstScratch, ContrastFade, EdgeTear, FaultModel, FrameBlankFault, FrameLossFault,
    FrameReorderFault, Orientation, SaltPepper,
};
pub use plan::FaultPlan;
pub use ule_par::ThreadConfig;
