//! [`FaultPlan`] — a composable damage scenario.

use crate::models::FaultModel;
use ule_raster::rng::SplitMix64;
use ule_raster::GrayImage;

/// A sequence of [`FaultModel`]s applied to a set of scanned frames at a
/// single severity knob. The plan runs in two stages:
///
/// 1. **per-frame damage** — every model's [`FaultModel::apply_frame`]
///    runs on every frame. Each `(step, frame)` pair derives its own RNG
///    from the plan seed, so a frame's damage depends on its index alone,
///    never on the order frames are visited;
/// 2. **frame-set restructuring** — every model's
///    [`FaultModel::apply_set`] runs once over the whole list, in step
///    order (losing or reordering frames is inherently a list-level
///    operation).
///
/// Severity `0.0` is the identity by construction *and* by contract: each
/// model must be a no-op at zero, and `crates/fault/tests/prop_fault.rs`
/// holds a property test over arbitrary plans.
pub struct FaultPlan {
    steps: Vec<Box<dyn FaultModel>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan (the identity at every severity).
    pub fn new() -> Self {
        Self { steps: Vec::new() }
    }

    /// A plan with a single model — the shape the E9 envelope campaign
    /// sweeps, one axis at a time.
    pub fn single(model: impl FaultModel + 'static) -> Self {
        Self::new().with(model)
    }

    /// Append a model (builder style).
    pub fn with(mut self, model: impl FaultModel + 'static) -> Self {
        self.steps.push(Box::new(model));
        self
    }

    /// Append an already-boxed model.
    pub fn push(&mut self, model: Box<dyn FaultModel>) {
        self.steps.push(model);
    }

    /// The models in application order.
    pub fn steps(&self) -> &[Box<dyn FaultModel>] {
        &self.steps
    }

    /// Human-readable scenario label: the model names joined with `+`.
    pub fn label(&self) -> String {
        if self.steps.is_empty() {
            return "identity".into();
        }
        self.steps
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Apply every step at `severity` to `frames`, deterministically in
    /// `(severity, seed)`.
    pub fn apply(&self, frames: &[GrayImage], severity: f64, seed: u64) -> Vec<GrayImage> {
        let severity = severity.clamp(0.0, 1.0);
        // Stage 1: pixel damage. The RNG stream of a step/frame pair
        // depends only on (seed, step, frame index).
        let mut out = frames.to_vec();
        for (i, f) in out.iter_mut().enumerate() {
            for (si, step) in self.steps.iter().enumerate() {
                let mut rng = SplitMix64::new(mix(seed, si as u64, i as u64));
                step.apply_frame(f, severity, &mut rng);
            }
        }
        // Stage 2: frame-set restructuring, in step order.
        for (si, step) in self.steps.iter().enumerate() {
            let mut rng = SplitMix64::new(mix(seed, si as u64, u64::MAX));
            step.apply_set(&mut out, severity, &mut rng);
        }
        out
    }
}

/// Decorrelate the per-(seed, step, frame) RNG streams.
fn mix(seed: u64, step: u64, frame: u64) -> u64 {
    // One splitmix scramble over the packed coordinates: adjacent
    // (step, frame) pairs must not produce adjacent RNG states.
    let mut z =
        seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ frame.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{
        Blotch, BurstScratch, ContrastFade, FrameLossFault, FrameReorderFault, Orientation,
        SaltPepper,
    };

    fn frames(n: u8) -> Vec<GrayImage> {
        (0..n)
            .map(|i| {
                let mut f = GrayImage::new(80, 60, 255);
                for y in 0..60 {
                    for x in 0..80 {
                        if (x + y + i as usize) % 3 == 0 {
                            f.set(x, y, 0);
                        }
                    }
                }
                f
            })
            .collect()
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
            .with(BurstScratch {
                orientation: Orientation::Vertical,
            })
            .with(Blotch)
            .with(ContrastFade)
            .with(SaltPepper)
            .with(FrameLossFault)
            .with(FrameReorderFault)
    }

    #[test]
    fn empty_plan_is_identity() {
        let fs = frames(4);
        assert_eq!(FaultPlan::new().apply(&fs, 0.8, 3), fs);
    }

    #[test]
    fn severity_zero_is_identity() {
        let fs = frames(5);
        assert_eq!(sample_plan().apply(&fs, 0.0, 123), fs);
    }

    #[test]
    fn deterministic_in_seed_and_severity() {
        let fs = frames(5);
        let p = sample_plan();
        assert_eq!(p.apply(&fs, 0.4, 9), p.apply(&fs, 0.4, 9));
        // A different seed moves the damage.
        assert_ne!(p.apply(&fs, 0.4, 9), p.apply(&fs, 0.4, 10));
    }

    #[test]
    fn label_joins_model_names() {
        assert_eq!(FaultPlan::new().label(), "identity");
        assert_eq!(
            FaultPlan::single(Blotch).with(ContrastFade).label(),
            "blotch+fade"
        );
    }

    #[test]
    fn steps_apply_in_order() {
        // Fade after scratch fades the scratch; scratch after fade leaves
        // the scratch saturated — the two orders must differ.
        let fs = frames(1);
        let a = FaultPlan::new()
            .with(BurstScratch {
                orientation: Orientation::Vertical,
            })
            .with(ContrastFade)
            .apply(&fs, 0.5, 5);
        let b = FaultPlan::new()
            .with(ContrastFade)
            .with(BurstScratch {
                orientation: Orientation::Vertical,
            })
            .apply(&fs, 0.5, 5);
        assert_ne!(a, b);
    }
}
