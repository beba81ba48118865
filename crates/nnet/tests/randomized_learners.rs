//! Randomized tests on the learners: output ranges, normalizer algebra,
//! weighting monotonicity and tree structure invariants, over inputs drawn
//! from the in-tree seeded PCG32 stream.

use esp_nnet::{DecisionTree, LossKind, Mlp, MlpConfig, Normalizer, TrainExample, TreeConfig};
use esp_runtime::Pcg32;

const CASES: u64 = 32;

fn random_example(rng: &mut Pcg32, dim: usize) -> TrainExample {
    TrainExample {
        x: (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect(),
        target: rng.next_f64(),
        weight: rng.gen_range(0.01..5.0),
    }
}

fn random_examples(rng: &mut Pcg32, dim: usize, lo: usize, hi: usize) -> Vec<TrainExample> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| random_example(rng, dim)).collect()
}

#[test]
fn mlp_output_stays_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x0071_u64.wrapping_add(case));
        let data = random_examples(&mut rng, 4, 4, 24);
        let probe: Vec<f64> = (0..4).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let cfg = MlpConfig {
            hidden: rng.gen_range(0..6usize),
            max_epochs: 15,
            patience: 15,
            restarts: 1,
            seed: rng.next_u64(),
            ..MlpConfig::default()
        };
        let (m, report) = Mlp::train(&data, &cfg);
        let y = m.predict(&probe);
        assert!((0.0..=1.0).contains(&y), "y = {y}");
        assert!(report.best_thresholded_error.is_finite());
        assert!(report.epochs <= 15);
    }
}

#[test]
fn losses_are_nonnegative_and_bounded_by_weight() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x1055_u64.wrapping_add(case));
        let data = random_examples(&mut rng, 3, 2, 16);
        let cfg = MlpConfig {
            hidden: 3,
            max_epochs: 5,
            restarts: 1,
            ..MlpConfig::default()
        };
        let (m, _) = Mlp::train(&data, &cfg);
        let total_weight: f64 = data.iter().map(|d| d.weight).sum();
        let loss = m.loss(&data);
        let terr = m.thresholded_error(&data);
        assert!(loss >= -1e-12);
        assert!(terr >= -1e-12);
        assert!(
            loss <= total_weight + 1e-9,
            "loss {loss} > weight {total_weight}"
        );
        assert!(terr <= total_weight + 1e-9);
    }
}

#[test]
fn sse_loss_also_trains() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x55E0_u64.wrapping_add(case));
        let data = random_examples(&mut rng, 3, 4, 16);
        let cfg = MlpConfig {
            hidden: 3,
            loss: LossKind::Sse,
            max_epochs: 10,
            restarts: 1,
            seed: rng.next_u64(),
            ..MlpConfig::default()
        };
        let (m, _) = Mlp::train(&data, &cfg);
        assert!((0.0..=1.0).contains(&m.predict(&data[0].x)));
    }
}

#[test]
fn normalizer_centres_training_rows() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x0_0a3_u64.wrapping_add(case));
        let n_rows = rng.gen_range(2..32usize);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..3).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let n = Normalizer::fit(rows.iter().map(|r| r.as_slice()));
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| n.transform(r)).collect();
        for j in 0..3 {
            let mean: f64 = transformed.iter().map(|r| r[j]).sum::<f64>() / rows.len() as f64;
            assert!(mean.abs() < 1e-6, "column {j} mean {mean}");
            let var: f64 = transformed.iter().map(|r| r[j] * r[j]).sum::<f64>() / rows.len() as f64;
            assert!(var < 1.0 + 1e-6, "column {j} var {var}");
        }
    }
}

#[test]
fn tree_predictions_are_probabilities_and_depth_bounded() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x73EE_u64.wrapping_add(case));
        let data = random_examples(&mut rng, 3, 2, 32);
        let max_depth = rng.gen_range(1..6usize);
        let t = DecisionTree::train(
            &data,
            &TreeConfig {
                max_depth,
                ..TreeConfig::default()
            },
        );
        assert!(t.depth() <= max_depth);
        assert!(t.num_leaves() >= 1);
        for ex in &data {
            let p = t.predict(&ex.x);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}

#[test]
fn tree_is_exact_on_separable_single_feature() {
    let mut tested = 0u64;
    let mut case = 0u64;
    // keep drawing until we have CASES non-degenerate splits (the old
    // proptest harness discarded degenerate draws the same way)
    while tested < CASES {
        let mut rng = Pcg32::seed_from_u64(0x5e9a_u64.wrapping_add(case));
        case += 1;
        let threshold = rng.gen_range(-0.8..0.8);
        let n = rng.gen_range(8..40usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // skip degenerate cases where all points land on one side
        let left = xs.iter().filter(|x| **x <= threshold).count();
        if left == 0 || left == xs.len() {
            continue;
        }
        // require a visible margin so the split threshold generalises
        if xs.iter().any(|x| (x - threshold).abs() <= 1e-3) {
            continue;
        }
        tested += 1;
        let data: Vec<TrainExample> = xs
            .iter()
            .map(|&x| TrainExample {
                x: vec![x],
                target: if x > threshold { 1.0 } else { 0.0 },
                weight: 1.0,
            })
            .collect();
        let t = DecisionTree::train(&data, &TreeConfig::default());
        for ex in &data {
            assert_eq!(t.predict_taken(&ex.x), ex.target > 0.5);
        }
    }
}
