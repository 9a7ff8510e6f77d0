//! Property tests for the tuning machinery: GBT learning behaviour,
//! space soundness, and featurisation robustness over random shapes.

use iolb_autotune::features::{featurize, NUM_FEATURES};
use iolb_autotune::gbt::{Gbrt, GbrtParams};
use iolb_autotune::ConfigSpace;
use iolb_core::optimality::TileKind;
use iolb_core::shapes::{ConvShape, WinogradTile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_shape() -> impl Strategy<Value = ConvShape> {
    (
        prop_oneof![Just(1usize), Just(3), Just(16), Just(64), Just(96)],
        8usize..=64,
        prop_oneof![Just(16usize), Just(32), Just(96), Just(128)],
        prop_oneof![Just(1usize), Just(3), Just(5)],
        1usize..=2,
    )
        .prop_map(|(cin, hw, cout, k, stride)| ConvShape::square(cin, hw, cout, k, stride, k / 2))
        .prop_filter("valid", |s| s.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sampled configurations always belong to their space, and pruned
    /// samples belong to the full space too.
    #[test]
    fn sampling_sound(shape in random_shape(), seed in 0u64..1000) {
        let full = ConfigSpace::new(shape, TileKind::Direct, 96 * 1024, false);
        let pruned = ConfigSpace::new(shape, TileKind::Direct, 96 * 1024, true);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            if let Some(cfg) = pruned.sample(&mut rng, 256) {
                prop_assert!(pruned.contains(&cfg));
                prop_assert!(full.contains(&cfg), "pruned sample outside full space");
            }
            if let Some(cfg) = full.sample(&mut rng, 256) {
                prop_assert!(full.contains(&cfg));
            }
        }
    }

    /// Neighbour moves stay inside the space.
    #[test]
    fn neighbours_stay_inside(shape in random_shape(), seed in 0u64..1000) {
        let space = ConfigSpace::new(shape, TileKind::Direct, 96 * 1024, true);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(mut cfg) = space.sample(&mut rng, 256) {
            for _ in 0..32 {
                cfg = space.neighbor(&cfg, &mut rng);
                prop_assert!(space.contains(&cfg));
            }
        }
    }

    /// Feature vectors are finite with the declared arity for every
    /// sampled configuration, direct or Winograd.
    #[test]
    fn features_always_finite(shape in random_shape(), seed in 0u64..1000) {
        let kinds: Vec<TileKind> = if shape.supports_winograd(WinogradTile::F2X3) {
            vec![TileKind::Direct, TileKind::Winograd(WinogradTile::F2X3)]
        } else {
            vec![TileKind::Direct]
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in kinds {
            let space = ConfigSpace::new(shape, kind, 96 * 1024, false);
            if let Some(cfg) = space.sample(&mut rng, 256) {
                let f = featurize(&shape, kind, &cfg);
                prop_assert_eq!(f.len(), NUM_FEATURES);
                for v in &f {
                    prop_assert!(v.is_finite());
                }
            }
        }
    }

    /// GBT fits a noiseless linear function to low training error and
    /// interpolates between seen points sanely (predictions bounded by
    /// the target range).
    #[test]
    fn gbt_fits_linear_targets(seed in 0u64..1000, slope in 0.5f64..4.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..120).map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(-1.0..1.0)]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| slope * r[0]).collect();
        let model = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut rng);
        let rmse = model.rmse(&rows, &targets);
        prop_assert!(rmse < slope, "rmse {rmse} too high for slope {slope}");
        let lo = targets.iter().cloned().fold(f64::MAX, f64::min);
        let hi = targets.iter().cloned().fold(f64::MIN, f64::max);
        let pred = model.predict(&[5.0, 0.0]);
        prop_assert!(pred >= lo - slope && pred <= hi + slope, "pred {pred} outside [{lo},{hi}]");
    }

    /// Boosted ensembles are deterministic given the RNG seed.
    #[test]
    fn gbt_deterministic(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..50).map(|i| ((i * i) % 17) as f64).collect();
        let m1 = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut StdRng::seed_from_u64(7));
        let m2 = Gbrt::fit(&rows, &targets, GbrtParams::default(), &mut StdRng::seed_from_u64(7));
        let probe = vec![rng.gen_range(0.0..50.0)];
        prop_assert_eq!(m1.predict(&probe), m2.predict(&probe));
    }
}

/// Golden bits: a fit on one real featurised sample (ResNet-18 `layer1`,
/// 24 sampled configurations, log-costs from the `Measurer`) predicts
/// four training rows and four unseen ones to exactly these bits. The
/// constants were generated at the commit before the split search was
/// presorted, so the in-crate oracle cannot drift together with the code
/// it checks.
#[test]
fn gbt_predictions_on_a_real_sample_are_pinned() {
    use iolb_autotune::Measurer;
    use iolb_gpusim::DeviceSpec;
    const GOLDEN: [u64; 8] = [
        0xbffe4763a08a9eee,
        0xbffc554da7152369,
        0xbffa9f470707e941,
        0xc001320d73da30f6,
        0xbffa47ad589f86e0,
        0xc001a9ca3d1a22e3,
        0xbffbf09f34aafb6e,
        0xbff892095fb06a54,
    ];
    let shape = ConvShape::square(64, 56, 64, 3, 1, 1);
    let device = DeviceSpec::v100();
    let space = ConfigSpace::new(shape, TileKind::Direct, device.smem_per_sm, true);
    let measurer = Measurer::new(device, shape, TileKind::Direct);
    let mut rng = StdRng::seed_from_u64(0xA7E);
    let (mut rows, mut targets) = (Vec::new(), Vec::new());
    while rows.len() < 28 {
        let cfg = space.sample(&mut rng, 64).expect("layer1 has configurations");
        let Some(ms) = measurer.measure_ms(&cfg) else { continue };
        rows.push(featurize(&shape, TileKind::Direct, &cfg));
        targets.push(ms.ln());
    }
    let model = Gbrt::fit(&rows[..24], &targets[..24], GbrtParams::default(), &mut rng);
    let got: Vec<u64> = rows[20..].iter().map(|r| model.predict(r).to_bits()).collect();
    assert_eq!(got, GOLDEN, "{got:#018x?}");
}
