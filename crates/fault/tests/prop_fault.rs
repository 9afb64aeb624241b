//! Property tests over arbitrary fault plans: severity 0 is the identity
//! on scanned frames, and fault application is a pure function of
//! `(plan, severity, seed)` — the thread count (including the CI
//! `ULE_TEST_THREADS` matrix) never changes a byte.

use proptest::prelude::*;
use ule_fault::{
    Blotch, BurstScratch, ContrastFade, EdgeTear, FaultPlan, FrameLossFault, FrameReorderFault,
    Orientation, SaltPepper, ThreadConfig,
};
use ule_raster::{DegradeParams, GrayImage, Scanner};

/// Build a plan from a selector list (the proptest-arbitrary encoding of
/// "any sequence of models").
fn plan_from(selectors: &[u8]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &s in selectors {
        plan = match s % 8 {
            0 => plan.with(BurstScratch {
                orientation: Orientation::Vertical,
            }),
            1 => plan.with(BurstScratch {
                orientation: Orientation::Horizontal,
            }),
            2 => plan.with(Blotch),
            3 => plan.with(ContrastFade),
            4 => plan.with(EdgeTear),
            5 => plan.with(SaltPepper),
            6 => plan.with(FrameLossFault),
            _ => plan.with(FrameReorderFault),
        };
    }
    plan
}

/// Genuine scanned frames: small seeded masters pushed through the
/// degradation model, so the identity property is checked on the same
/// kind of pixel data the restore pipeline consumes.
fn scanned_frames(n: usize, seed: u64) -> Vec<GrayImage> {
    let params = DegradeParams {
        noise_sigma: 9.0,
        dust_per_mpx: 40.0,
        dust_max_radius: 1.5,
        row_jitter: 0.3,
        ..Default::default()
    };
    (0..n)
        .map(|i| {
            let mut master = GrayImage::new(72, 54, 255);
            for y in 0..54 {
                for x in 0..72 {
                    if (x / 3 + y / 3 + i) % 2 == 0 {
                        master.set(x, y, 0);
                    }
                }
            }
            Scanner::new(params.clone(), seed ^ (i as u64 + 1)).scan(&master)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_plan_at_severity_zero_is_identity(
        selectors in proptest::collection::vec(any::<u8>(), 0..6),
        nframes in 1usize..6,
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let plan = plan_from(&selectors);
        let frames = scanned_frames(nframes, seed);
        let out = plan.apply(&frames, 0.0, plan_seed);
        prop_assert_eq!(out, frames);
    }

    #[test]
    fn same_seed_application_is_thread_identical(
        selectors in proptest::collection::vec(any::<u8>(), 1..6),
        nframes in 1usize..6,
        severity in 0.0f64..1.0,
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let plan = plan_from(&selectors);
        let frames = scanned_frames(nframes, seed);
        // CI runs this test with ULE_TEST_THREADS unset and set to 4;
        // the env-selected pool, an explicit 4-thread pool, and the serial
        // path must all produce identical bytes.
        let serial = plan.apply(&frames, severity, plan_seed);
        let env = plan.apply_with(
            &frames, severity, plan_seed, ThreadConfig::from_env_or(ThreadConfig::Serial));
        let four = plan.apply_with(&frames, severity, plan_seed, ThreadConfig::Fixed(4));
        prop_assert_eq!(&env, &serial);
        prop_assert_eq!(&four, &serial);
    }

    #[test]
    fn same_seed_same_bytes_at_any_severity(
        selectors in proptest::collection::vec(any::<u8>(), 1..6),
        severity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let plan = plan_from(&selectors);
        let frames = scanned_frames(3, 77);
        prop_assert_eq!(
            plan.apply(&frames, severity, seed),
            plan.apply(&frames, severity, seed)
        );
    }
}
