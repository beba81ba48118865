//! The flat SoA kernels must be **bitwise identical** to the preserved
//! nested-`Vec` reference implementation (`tests/reference`): same
//! forwards, same gradients, same full training trajectories. This is the
//! contract that lets the kernel rewrite keep PR 1's thread-count
//! determinism guarantee and PR 2's artifact bit-compatibility without
//! revalidating any downstream table.

mod reference;

use esp_nnet::{coalesce_examples, LossKind, Mlp, MlpConfig, TrainExample};
use esp_runtime::Pcg32;
use reference::RefMlp;

fn random_flat(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect()
}

fn random_rows(rng: &mut Pcg32, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

fn random_data(rng: &mut Pcg32, n: usize, dim: usize) -> Vec<TrainExample> {
    (0..n)
        .map(|_| TrainExample {
            x: (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            target: rng.gen_range(0.0..1.0),
            weight: rng.gen_range(0.05..2.0),
        })
        .collect()
}

#[test]
fn forward_is_bitwise_identical_to_reference() {
    let mut rng = Pcg32::seed_from_u64(0xF0);
    for (inputs, hidden) in [(1, 1), (4, 0), (7, 3), (24, 10)] {
        let flat = random_flat(&mut rng, Mlp::param_count(inputs, hidden));
        let kernel = Mlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        let reference = RefMlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        assert_eq!(kernel.flat_weights(), reference.flat_weights());
        for x in random_rows(&mut rng, 64, inputs) {
            assert_eq!(
                kernel.predict(&x).to_bits(),
                reference.predict(&x).to_bits(),
                "forward diverged at inputs={inputs} hidden={hidden}"
            );
        }
    }
}

#[test]
fn gradient_is_bitwise_identical_to_reference() {
    let mut rng = Pcg32::seed_from_u64(0xF1);
    for (inputs, hidden) in [(3, 0), (5, 4), (24, 10)] {
        let flat = random_flat(&mut rng, Mlp::param_count(inputs, hidden));
        let kernel = Mlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        let reference = RefMlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        let data = random_data(&mut rng, 150, inputs);
        for kind in [LossKind::Linear, LossKind::Sse] {
            let (ref_grad, ref_loss) = reference.gradient(&data, kind);
            let mut g = vec![0.0; kernel.num_params()];
            let mut h = Vec::new();
            let mut terr = vec![0.0; data.len()];
            let loss = kernel.accumulate_gradient(&data, kind, &mut g, &mut h, &mut terr);
            assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{kind:?} loss diverged");
            for (i, (k, r)) in g.iter().zip(&ref_grad).enumerate() {
                assert_eq!(
                    k.to_bits(),
                    r.to_bits(),
                    "{kind:?} gradient diverged at flat index {i}"
                );
            }
            // and the fused terr terms sum to the reference sweep's value
            let fused: f64 = terr.iter().sum();
            assert_eq!(
                fused.to_bits(),
                reference.thresholded_error(&data).to_bits()
            );
        }
    }
}

#[test]
fn loss_and_thresholded_error_match_reference_bitwise() {
    let mut rng = Pcg32::seed_from_u64(0xF2);
    let flat = random_flat(&mut rng, Mlp::param_count(6, 5));
    let kernel = Mlp::from_flat_weights(6, 5, &flat).expect("valid length");
    let reference = RefMlp::from_flat_weights(6, 5, &flat).expect("valid length");
    let data = random_data(&mut rng, 300, 6);
    assert_eq!(
        kernel.loss(&data).to_bits(),
        reference.loss(&data).to_bits()
    );
    assert_eq!(
        kernel.thresholded_error(&data).to_bits(),
        reference.thresholded_error(&data).to_bits()
    );
}

/// Whole training runs — init, every fused epoch, early stopping, restart
/// selection — reproduce the two-pass reference bit for bit, across both
/// stop reasons, both losses, and the degenerate zero-hidden topology.
#[test]
fn full_training_run_is_bitwise_identical_to_reference() {
    let mut rng = Pcg32::seed_from_u64(0xF3);
    let data = random_data(&mut rng, 128 * 2 + 37, 8);
    let cases = [
        // several restarts, max_epochs stop
        MlpConfig {
            hidden: 6,
            restarts: 3,
            max_epochs: 35,
            patience: 100,
            seed: 901,
            ..MlpConfig::default()
        },
        // tight patience: the early-stopping path must fire identically
        MlpConfig {
            hidden: 5,
            restarts: 2,
            max_epochs: 200,
            patience: 3,
            seed: 902,
            ..MlpConfig::default()
        },
        // SSE loss
        MlpConfig {
            hidden: 4,
            loss: LossKind::Sse,
            restarts: 2,
            max_epochs: 30,
            patience: 10,
            seed: 903,
            ..MlpConfig::default()
        },
        // zero-hidden linear model
        MlpConfig {
            hidden: 0,
            restarts: 1,
            max_epochs: 25,
            patience: 25,
            seed: 904,
            ..MlpConfig::default()
        },
    ];
    for cfg in cases {
        let (km, kr) = Mlp::train(&data, &cfg);
        let (rm, rr) = RefMlp::train(&data, &cfg);
        assert_eq!(kr, rr, "report diverged for {cfg:?}");
        let kb: Vec<u64> = km.flat_weights().iter().map(|x| x.to_bits()).collect();
        let rb: Vec<u64> = rm.flat_weights().iter().map(|x| x.to_bits()).collect();
        assert_eq!(kb, rb, "weights diverged for {cfg:?}");
    }
}

/// Training the coalesced dataset agrees with training the raw one to
/// float-reassociation noise (the merge is exact in real arithmetic), and
/// both make the same hard decisions on every training row.
#[test]
fn training_on_coalesced_data_matches_raw_decisions() {
    let mut rng = Pcg32::seed_from_u64(0xF4);
    // Heavy duplication: 12 distinct rows replicated with varying targets.
    let distinct = random_rows(&mut rng, 12, 5);
    let data: Vec<TrainExample> = (0..480)
        .map(|i| TrainExample {
            x: distinct[i % 12].clone(),
            target: if (i * 7) % 10 < 5 { 0.0 } else { 1.0 },
            weight: 0.1 + ((i * 3) % 8) as f64 / 4.0,
        })
        .collect();
    let (merged, stats) = coalesce_examples(&data);
    assert_eq!(stats.examples_out, 12);
    let cfg = MlpConfig {
        hidden: 6,
        restarts: 2,
        max_epochs: 60,
        patience: 60,
        seed: 31,
        ..MlpConfig::default()
    };
    let (m_raw, _) = Mlp::train(&data, &cfg);
    let (m_co, _) = Mlp::train(&merged, &cfg);
    // Identical objective ⇒ near-identical terr on the full raw set…
    let terr_raw = m_raw.thresholded_error(&data);
    let terr_co = m_co.thresholded_error(&data);
    assert!(
        (terr_raw - terr_co).abs() < 1e-6,
        "coalescing changed training quality: {terr_raw} vs {terr_co}"
    );
    // …and the same hard prediction on every distinct row.
    for row in &distinct {
        assert_eq!(m_raw.predict_taken(row), m_co.predict_taken(row));
    }
}

/// Training sizes that put every remainder in the last panel tile (1..=9,
/// 36 = Table 4's typical fold, 127) and every chunk boundary (128 is one
/// full chunk; 129 and 136 add a second chunk of one row and of one tile).
const TILE_SIZES: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 36, 127, 128, 129, 136];

/// The paper's 158-input encoding at its 10 hidden units, and the one-unit
/// and zero-hidden widths that take the kernel's other branches.
const TILE_SHAPES: [(usize, usize); 3] = [(158, 10), (158, 1), (158, 0)];

/// The training kernel forwards through panel tiles, padding a partial last
/// tile with copies of a real row; the padded lanes must leave no trace in
/// the gradient, the loss or the thresholded-error terms.
#[test]
fn tiled_gradient_is_bitwise_identical_to_reference_at_every_remainder() {
    let mut rng = Pcg32::seed_from_u64(0xF5);
    for (inputs, hidden) in TILE_SHAPES {
        // Init-sized weights keep the tanh units off saturation, so every
        // gradient element is live.
        let scale = 1.0 / (inputs as f64).sqrt();
        let flat: Vec<f64> = (0..Mlp::param_count(inputs, hidden))
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let kernel = Mlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        let reference = RefMlp::from_flat_weights(inputs, hidden, &flat).expect("valid length");
        let mut g = vec![0.0; kernel.num_params()];
        let mut scratch = Vec::new();
        for n in TILE_SIZES {
            let data = random_data(&mut rng, n, inputs);
            let mut terr = vec![0.0; n];
            for kind in [LossKind::Linear, LossKind::Sse] {
                let (ref_grad, ref_loss) = reference.gradient(&data, kind);
                let loss = kernel.accumulate_gradient(&data, kind, &mut g, &mut scratch, &mut terr);
                let at = format!("{kind:?} inputs={inputs} hidden={hidden} n={n}");
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{at}: loss diverged");
                let kb: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                let rb: Vec<u64> = ref_grad.iter().map(|x| x.to_bits()).collect();
                assert_eq!(kb, rb, "{at}: gradient diverged");
                let fused: f64 = terr.iter().sum();
                assert_eq!(
                    fused.to_bits(),
                    reference.thresholded_error(&data).to_bits(),
                    "{at}: thresholded error diverged"
                );
            }
        }
    }
}

/// Whole training runs over the tiles transposed once per `Mlp::train`
/// call reproduce the reference at every tile remainder.
#[test]
fn tiled_training_run_is_bitwise_identical_to_reference_at_every_remainder() {
    let mut rng = Pcg32::seed_from_u64(0xF6);
    for (inputs, hidden) in TILE_SHAPES {
        for n in TILE_SIZES {
            let data = random_data(&mut rng, n, inputs);
            for loss in [LossKind::Linear, LossKind::Sse] {
                let cfg = MlpConfig {
                    hidden,
                    loss,
                    restarts: 2,
                    max_epochs: 12,
                    patience: 4,
                    seed: 905 + n as u64,
                    ..MlpConfig::default()
                };
                let (km, kr) = Mlp::train(&data, &cfg);
                let (rm, rr) = RefMlp::train(&data, &cfg);
                let at = format!("{loss:?} inputs={inputs} hidden={hidden} n={n}");
                assert_eq!(kr, rr, "{at}: report diverged");
                let kb: Vec<u64> = km.flat_weights().iter().map(|x| x.to_bits()).collect();
                let rb: Vec<u64> = rm.flat_weights().iter().map(|x| x.to_bits()).collect();
                assert_eq!(kb, rb, "{at}: weights diverged");
            }
        }
    }
}
