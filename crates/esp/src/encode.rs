//! Numeric encoding of [`BranchFeatures`]: one-hot categorical expansion,
//! training-set normalization, and the paper's dependent-feature gating
//! ("setting their input activity to 0 *after* the normalization step").
//!
//! A [`FeatureSet`] selects which Table 2 feature groups participate — the
//! knob behind the feature-importance ablations.

use esp_ir::term::TermKind;
use esp_ir::{BranchOp, Lang, Opcode, ProcKind};
use esp_nnet::Normalizer;

use crate::features::{BranchFeatures, SuccessorFeatures};

/// Which feature groups to encode (the paper's 24 on by default). Dropping
/// groups implements the paper's "we have not investigated the impact of not
/// having enough data in the feature set" direction as an ablation; turning
/// on [`FeatureSet::extended`] appends the analysis-derived block from
/// `esp-analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Features 1–5: branch opcode, direction and the operand-definition
    /// opcode chain.
    pub opcode_features: bool,
    /// Features 6–8: loop header, language, procedure kind.
    pub context_features: bool,
    /// Features 9–24: the two successor blocks.
    pub successor_features: bool,
    /// The analysis-derived extension (off by default: the paper-faithful
    /// 24-feature path is byte-identical with this flag off). Extends the
    /// encoded vector by [`EXTENDED_DIM`] positions, so models trained with
    /// it are dimensionally incompatible with the default.
    pub extended: bool,
}

impl Default for FeatureSet {
    fn default() -> Self {
        FeatureSet {
            opcode_features: true,
            context_features: true,
            successor_features: true,
            extended: false,
        }
    }
}

impl FeatureSet {
    /// A stable identity string for train-config stamps, the provenance a
    /// published `.espm` fold records.
    ///
    /// For non-extended sets this is byte-identical to the `Debug` output
    /// the stamp used before the `extended` flag existed, so every fold
    /// trained on the default feature set describes its training the same
    /// way it always has. Extended sets get a distinct tag, which is exactly
    /// right: the encoded dimension differs.
    pub fn stamp_tag(&self) -> String {
        let base = format!(
            "FeatureSet {{ opcode_features: {}, context_features: {}, successor_features: {}",
            self.opcode_features, self.context_features, self.successor_features
        );
        if self.extended {
            format!("{base}, extended: true }}")
        } else {
            format!("{base} }}")
        }
    }
}

const OPCODES: usize = Opcode::ALL.len(); // 37
const OPC_SLOT: usize = OPCODES + 1; // + '?'
const TERM_KINDS: usize = TermKind::ALL.len(); // 6

/// Dimensionality of the full encoded vector (independent of the
/// [`FeatureSet`]: disabled groups are zeroed, keeping dimensions stable so
/// models can be compared).
pub const ENCODED_DIM: usize =
    // 1 br opcode; 2 direction
    BranchOp::ALL.len() + 1
    // 3,4,5 opcode chain
    + 3 * OPC_SLOT
    // 6 loop header; 7 language
    + 2
    // 8 proc kind
    + 3
    // 9..16 and 17..24: per-successor 7 binary + term kind one-hot
    + 2 * (7 + TERM_KINDS);

/// Extra positions appended under [`FeatureSet::extended`]: a 3-way
/// decided-direction one-hot, a 3-way null-test one-hot, and four binary
/// facts (constant LHS, loop-invariant condition, loop guard, guard keeps
/// the taken arm in the loop).
pub const EXTENDED_DIM: usize = 3 + 3 + 4;

/// Dimensionality of the encoded vector under `set`: [`ENCODED_DIM`] for
/// the paper-faithful sets, plus [`EXTENDED_DIM`] when extended.
pub const fn encoded_dim(set: &FeatureSet) -> usize {
    if set.extended {
        ENCODED_DIM + EXTENDED_DIM
    } else {
        ENCODED_DIM
    }
}

fn push_onehot(v: &mut Vec<f64>, index: Option<usize>, len: usize) {
    let base = v.len();
    v.resize(base + len, 0.0);
    if let Some(i) = index {
        v[base + i] = 1.0;
    }
}

fn push_succ(v: &mut Vec<f64>, s: &SuccessorFeatures) {
    v.push(s.dominates as u8 as f64);
    v.push(s.postdominates as u8 as f64);
    push_onehot(v, Some(s.ends_with.ordinal()), TERM_KINDS);
    v.push(s.loop_header as u8 as f64);
    v.push(s.back_edge as u8 as f64);
    v.push(s.exit_edge as u8 as f64);
    v.push(s.use_before_def as u8 as f64);
    v.push(s.has_call as u8 as f64);
}

/// Encode one feature record into a raw (un-normalized) vector plus the mask
/// of *meaningful* positions. Masked-out positions are zeroed after
/// normalization, exactly as §3.1.1 prescribes for dependent features;
/// disabled feature groups are masked wholesale.
pub fn encode(f: &BranchFeatures, set: &FeatureSet) -> (Vec<f64>, Vec<bool>) {
    let mut v = Vec::with_capacity(ENCODED_DIM);
    let mut mask = Vec::with_capacity(ENCODED_DIM);
    encode_into(f, set, &mut v, &mut mask);
    (v, mask)
}

/// [`encode`] into caller-owned buffers (cleared first): the allocation-free
/// entry point batched prediction paths reuse across many sites.
pub fn encode_into(f: &BranchFeatures, set: &FeatureSet, v: &mut Vec<f64>, mask: &mut Vec<bool>) {
    v.clear();
    mask.clear();

    // --- features 1–5 ---
    let start = v.len();
    push_onehot(v, Some(f.br_opcode.ordinal()), BranchOp::ALL.len());
    v.push(f.backward as u8 as f64);
    let opc_index = |o: Option<Opcode>| Some(o.map_or(OPCODES, |o| o.ordinal()));
    push_onehot(v, opc_index(f.operand_opcode), OPC_SLOT);
    mask.resize(v.len(), set.opcode_features);
    // features 4 and 5 are *dependent*: meaningful only when the feature-3
    // instruction reads the corresponding source register.
    push_onehot(v, opc_index(f.ra_opcode), OPC_SLOT);
    mask.resize(v.len(), set.opcode_features && f.ra_meaningful);
    push_onehot(v, opc_index(f.rb_opcode), OPC_SLOT);
    mask.resize(v.len(), set.opcode_features && f.rb_meaningful);
    debug_assert_eq!(v.len() - start, BranchOp::ALL.len() + 1 + 3 * OPC_SLOT);

    // --- features 6–8 ---
    v.push(f.loop_header as u8 as f64);
    v.push(matches!(f.lang, Lang::Fort) as u8 as f64);
    let pk = match f.proc_kind {
        ProcKind::Leaf => 0,
        ProcKind::NonLeaf => 1,
        ProcKind::CallSelf => 2,
    };
    push_onehot(v, Some(pk), 3);
    mask.resize(v.len(), set.context_features);

    // --- features 9–24 ---
    push_succ(v, &f.taken);
    push_succ(v, &f.not_taken);
    mask.resize(v.len(), set.successor_features);

    // --- analysis-derived extension (opt-in) ---
    if set.extended {
        match &f.extended {
            None => {
                // No facts attached: all positions meaningless.
                v.resize(v.len() + EXTENDED_DIM, 0.0);
                mask.resize(v.len(), false);
            }
            Some(e) => {
                let decided = match e.decided {
                    Some(true) => 0,
                    Some(false) => 1,
                    None => 2,
                };
                push_onehot(v, Some(decided), 3);
                let ptr = match e.pointer_test {
                    esp_analyze::PointerTest::No => 0,
                    esp_analyze::PointerTest::Unproven => 1,
                    esp_analyze::PointerTest::ProvenNonNull => 2,
                };
                push_onehot(v, Some(ptr), 3);
                v.push(e.lhs_const as u8 as f64);
                v.push(e.invariant as u8 as f64);
                v.push(e.guard as u8 as f64);
                mask.resize(v.len(), true);
                // Dependent feature: "taken arm stays in the loop" only
                // means something for branches that are guards.
                v.push(e.guard_taken_stays as u8 as f64);
                mask.resize(v.len(), e.guard);
            }
        }
    }

    debug_assert_eq!(v.len(), encoded_dim(set));
    debug_assert_eq!(mask.len(), encoded_dim(set));
}

/// A fitted encoder: normalization statistics plus the feature-set choice.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedEncoder {
    norm: Normalizer,
    set: FeatureSet,
}

impl FittedEncoder {
    /// Fit normalization over raw training rows.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn fit(rows: &[(Vec<f64>, Vec<bool>)], set: FeatureSet) -> Self {
        let norm = Normalizer::fit(rows.iter().map(|(v, _)| v.as_slice()));
        FittedEncoder { norm, set }
    }

    /// Rebuild an encoder from persisted normalization statistics and the
    /// feature-set choice — the import half of model artifacts.
    pub fn from_parts(norm: Normalizer, set: FeatureSet) -> Self {
        FittedEncoder { norm, set }
    }

    /// The fitted normalization statistics (export half of model artifacts).
    pub fn normalizer(&self) -> &Normalizer {
        &self.norm
    }

    /// The feature-set choice baked into this encoder.
    pub fn feature_set(&self) -> &FeatureSet {
        &self.set
    }

    /// Normalize a raw row and zero its masked positions.
    pub fn transform(&self, row: &[f64], mask: &[bool]) -> Vec<f64> {
        let mut out = row.to_vec();
        self.transform_in_place(&mut out, mask);
        out
    }

    /// [`FittedEncoder::transform`] appended onto a growing row-major panel:
    /// the raw row lands at the end of `panel` and is normalized + gated in
    /// place there. This is how batched prediction builds the contiguous
    /// input panels the batch-major kernels (`esp_nnet::PanelScratch`)
    /// consume; each appended row is bitwise identical to
    /// [`FittedEncoder::transform`] of the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted dimensionality.
    pub fn transform_extend(&self, row: &[f64], mask: &[bool], panel: &mut Vec<f64>) {
        let base = panel.len();
        panel.extend_from_slice(row);
        self.transform_in_place(&mut panel[base..], mask);
    }

    /// Normalize + gate a row in place (same arithmetic as
    /// [`FittedEncoder::transform`], so results are bitwise identical).
    pub(crate) fn transform_in_place(&self, row: &mut [f64], mask: &[bool]) {
        self.norm.apply(row);
        for (x, keep) in row.iter_mut().zip(mask) {
            if !keep {
                *x = 0.0;
            }
        }
    }

    /// Encode + normalize + gate one feature record.
    pub fn encode(&self, f: &BranchFeatures) -> Vec<f64> {
        let (row, mask) = encode(f, &self.set);
        self.transform(&row, &mask)
    }

    /// [`FittedEncoder::encode`] into caller-owned buffers: the raw encoding
    /// lands in `mask`'s sibling buffer `row`, which is then normalized and
    /// gated in place. Zero allocations once the buffers have grown to
    /// [`ENCODED_DIM`]; bitwise identical to [`FittedEncoder::encode`].
    pub fn encode_into(&self, f: &BranchFeatures, row: &mut Vec<f64>, mask: &mut Vec<bool>) {
        encode_into(f, &self.set, row, mask);
        self.transform_in_place(row, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use esp_ir::ProgramAnalysis;
    use esp_lang::{compile_source, CompilerConfig};

    fn sample_features() -> Vec<BranchFeatures> {
        let src = r#"
            int helper(int v) { if (v < 0) { return 0; } return v; }
            int main() {
                int i = 0;
                int s = 0;
                while (i < 30) {
                    if (i % 3 == 0) { s = s + helper(i); }
                    i = i + 1;
                }
                return s;
            }
        "#;
        let prog = compile_source("t", src, esp_ir::Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        prog.branch_sites()
            .into_iter()
            .map(|s| extract(&prog, &analysis, s))
            .collect()
    }

    #[test]
    fn encoding_has_stable_dimension() {
        for f in sample_features() {
            let (v, mask) = encode(&f, &FeatureSet::default());
            assert_eq!(v.len(), ENCODED_DIM);
            assert_eq!(mask.len(), ENCODED_DIM);
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn onehots_are_onehot() {
        for f in sample_features() {
            let (v, _) = encode(&f, &FeatureSet::default());
            // branch opcode block
            let bo: f64 = v[..BranchOp::ALL.len()].iter().sum();
            assert_eq!(bo, 1.0, "branch opcode one-hot");
            // the three opcode-chain blocks each sum to exactly 1 ('?' is a
            // category)
            let mut off = BranchOp::ALL.len() + 1;
            for _ in 0..3 {
                let s: f64 = v[off..off + OPC_SLOT].iter().sum();
                assert_eq!(s, 1.0, "opcode-chain one-hot");
                off += OPC_SLOT;
            }
        }
    }

    #[test]
    fn dependent_features_are_masked_when_meaningless() {
        let feats = sample_features();
        let f = feats
            .iter()
            .find(|f| !f.ra_meaningful)
            .expect("some branch has a meaningless RA feature");
        let (_, mask) = encode(f, &FeatureSet::default());
        let ra_block = BranchOp::ALL.len() + 1 + OPC_SLOT;
        assert!(
            mask[ra_block..ra_block + OPC_SLOT].iter().all(|m| !m),
            "RA one-hot must be masked"
        );
    }

    #[test]
    fn disabled_groups_are_masked() {
        let f = sample_features()[0];
        let set = FeatureSet {
            successor_features: false,
            ..FeatureSet::default()
        };
        let (_, mask) = encode(&f, &set);
        let succ_len = 2 * (7 + TERM_KINDS);
        assert!(mask[ENCODED_DIM - succ_len..].iter().all(|m| !m));
        // and the fitted encoder zeroes them
        let rows: Vec<_> = sample_features().iter().map(|f| encode(f, &set)).collect();
        let enc = FittedEncoder::fit(&rows, set);
        let x = enc.encode(&f);
        assert!(x[ENCODED_DIM - succ_len..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn normalization_keeps_masked_zero_and_values_finite() {
        let feats = sample_features();
        let rows: Vec<_> = feats
            .iter()
            .map(|f| encode(f, &FeatureSet::default()))
            .collect();
        let enc = FittedEncoder::fit(&rows, FeatureSet::default());
        for f in &feats {
            let x = enc.encode(f);
            assert_eq!(x.len(), ENCODED_DIM);
            assert!(x.iter().all(|v| v.is_finite()));
        }
        assert!(enc.feature_set().opcode_features);
    }
}
