//! Randomized tests for the feature encoding: stable dimensionality, valid
//! one-hots and consistent masking for arbitrary feature records drawn from
//! the in-tree seeded PCG32 stream.

use esp_core::{encode, FeatureSet, ENCODED_DIM};
use esp_core::{BranchFeatures, SuccessorFeatures};
use esp_ir::term::TermKind;
use esp_ir::{BranchOp, Lang, Opcode, ProcKind};
use esp_runtime::Pcg32;

const CASES: u64 = 128;

fn random_opcode(rng: &mut Pcg32) -> Option<Opcode> {
    if rng.gen_bool(0.5) {
        None
    } else {
        Some(Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())])
    }
}

fn random_succ(rng: &mut Pcg32) -> SuccessorFeatures {
    SuccessorFeatures {
        dominates: rng.gen_bool(0.5),
        postdominates: rng.gen_bool(0.5),
        ends_with: TermKind::ALL[rng.gen_range(0..TermKind::ALL.len())],
        loop_header: rng.gen_bool(0.5),
        back_edge: rng.gen_bool(0.5),
        exit_edge: rng.gen_bool(0.5),
        use_before_def: rng.gen_bool(0.5),
        has_call: rng.gen_bool(0.5),
    }
}

fn random_features(rng: &mut Pcg32) -> BranchFeatures {
    BranchFeatures {
        br_opcode: BranchOp::ALL[rng.gen_range(0..BranchOp::ALL.len())],
        backward: rng.gen_bool(0.5),
        operand_opcode: random_opcode(rng),
        ra_opcode: random_opcode(rng),
        ra_meaningful: rng.gen_bool(0.5),
        rb_opcode: random_opcode(rng),
        rb_meaningful: rng.gen_bool(0.5),
        loop_header: rng.gen_bool(0.5),
        lang: if rng.gen_bool(0.5) {
            Lang::Fort
        } else {
            Lang::C
        },
        proc_kind: match rng.gen_range(0..3u32) {
            0 => ProcKind::Leaf,
            1 => ProcKind::NonLeaf,
            _ => ProcKind::CallSelf,
        },
        taken: random_succ(rng),
        not_taken: random_succ(rng),
        extended: None,
    }
}

fn random_feature_set(rng: &mut Pcg32) -> FeatureSet {
    FeatureSet {
        opcode_features: rng.gen_bool(0.5),
        context_features: rng.gen_bool(0.5),
        successor_features: rng.gen_bool(0.5),
        extended: false,
    }
}

#[test]
fn encoding_dimension_is_constant() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0xE2C0_u64.wrapping_add(case));
        let f = random_features(&mut rng);
        let set = random_feature_set(&mut rng);
        let (v, mask) = encode(&f, &set);
        assert_eq!(v.len(), ENCODED_DIM);
        assert_eq!(mask.len(), ENCODED_DIM);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(
            v.iter().all(|x| (0.0..=1.0).contains(x)),
            "raw encoding is 0/1"
        );
    }
}

#[test]
fn onehot_blocks_sum_to_one() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x0e07_u64.wrapping_add(case));
        let f = random_features(&mut rng);
        let (v, _) = encode(&f, &FeatureSet::default());
        let nb = BranchOp::ALL.len();
        let slot = Opcode::ALL.len() + 1;
        assert_eq!(v[..nb].iter().sum::<f64>(), 1.0);
        let mut off = nb + 1;
        for _ in 0..3 {
            assert_eq!(v[off..off + slot].iter().sum::<f64>(), 1.0);
            off += slot;
        }
        // proc kind one-hot
        let pk_off = off + 2;
        assert_eq!(v[pk_off..pk_off + 3].iter().sum::<f64>(), 1.0);
    }
}

#[test]
fn disabled_groups_have_fully_false_masks() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0xD15A_u64.wrapping_add(case));
        let f = random_features(&mut rng);
        let set = FeatureSet {
            opcode_features: false,
            context_features: false,
            successor_features: false,
            extended: false,
        };
        let (_, mask) = encode(&f, &set);
        assert!(mask.iter().all(|m| !m));
    }
}

#[test]
fn masks_depend_only_on_meaningfulness_not_values() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x3A5C_u64.wrapping_add(case));
        let f = random_features(&mut rng);
        let (_, m1) = encode(&f, &FeatureSet::default());
        let mut altered = f;
        altered.backward = !altered.backward;
        altered.taken.has_call = !altered.taken.has_call;
        let (_, m2) = encode(&altered, &FeatureSet::default());
        assert_eq!(m1, m2, "mask must not depend on feature *values*");
    }
}
