//! The ESP model: train on a corpus of profiled programs, predict branches
//! of unseen programs.

use std::cell::RefCell;
use std::sync::OnceLock;

use esp_exec::Profile;
use esp_ir::{BranchId, Program, ProgramAnalysis};
use esp_nnet::{DecisionTree, Mlp, MlpConfig, Net, TrainExample, TreeConfig};

use crate::encode::{encode, FeatureSet, FittedEncoder};
use crate::extended::ExtendedContext;
use crate::features::{extract, BranchFeatures};

/// One profiled program of the training corpus.
///
/// Its executed sites are extracted the first time a model trains on it
/// and kept for every later model: the leave-one-out folds of a language
/// group all train on the same `TrainingProgram`s, so each program's
/// features are extracted once per study, not once per fold.
pub struct TrainingProgram<'a> {
    prog: &'a Program,
    analysis: &'a ProgramAnalysis,
    profile: &'a Profile,
    sites: OnceLock<Vec<Site>>,
}

/// One executed branch site, as training sees it before encoding: its
/// Table 2 features (without the extended block), its taken probability
/// `t_k` and its normalized branch weight `n_k`.
struct Site {
    id: BranchId,
    features: BranchFeatures,
    taken_prob: f64,
    weight: f64,
}

impl<'a> TrainingProgram<'a> {
    /// A compiled program, its analyses and its one-run profile.
    pub fn new(prog: &'a Program, analysis: &'a ProgramAnalysis, profile: &'a Profile) -> Self {
        TrainingProgram {
            prog,
            analysis,
            profile,
            sites: OnceLock::new(),
        }
    }

    /// Every executed branch site in `branch_sites()` order, extracted on
    /// first use. Sites that never executed carry no dynamic information
    /// and are skipped, matching the paper's weighting (their `n_k` is 0).
    fn sites(&self) -> &[Site] {
        self.sites.get_or_init(|| {
            self.prog
                .branch_sites()
                .into_iter()
                .filter_map(|id| {
                    Some(Site {
                        id,
                        taken_prob: self.profile.counts(id)?.taken_prob()?,
                        features: extract(self.prog, self.analysis, id),
                        weight: self.profile.weight(id),
                    })
                })
                .collect()
        })
    }
}

/// Which learner maps features to taken-probabilities.
#[derive(Debug, Clone, PartialEq)]
pub enum Learner {
    /// The paper's feed-forward network (§3.1.1).
    Net(MlpConfig),
    /// The decision-tree alternative (§3.1.2).
    Tree(TreeConfig),
}

impl Default for Learner {
    fn default() -> Self {
        Learner::Net(MlpConfig::default())
    }
}

/// ESP training configuration.
#[derive(Debug, Clone)]
pub struct EspConfig {
    /// Learner choice and hyper-parameters.
    pub learner: Learner,
    /// Which Table 2 feature groups to use.
    pub features: FeatureSet,
    /// Worker threads for the leave-one-out folds a study runs on the
    /// `esp-runtime` pool (Table 4 and the dynamic-arena table); `0` (the
    /// default) means one per available core. Each fold trains its network
    /// on one thread, so the count never changes any result — only
    /// wall-clock time.
    pub threads: usize,
    /// Merge training examples with bit-identical encoded feature rows into
    /// one example (summed weight, weight-averaged target) before training.
    /// Exact for both `LossKind`s up to float reassociation — see
    /// `esp_nnet::coalesce_examples` for the algebra — and on (the default)
    /// it typically shrinks corpus training sets severalfold, since the
    /// mostly-categorical Table 2 features collide heavily.
    pub coalesce: bool,
}

impl Default for EspConfig {
    fn default() -> Self {
        EspConfig {
            learner: Learner::default(),
            features: FeatureSet::default(),
            threads: 0,
            coalesce: true,
        }
    }
}

enum Fitted {
    /// A network at its stored precision: f64 from training, f32 from
    /// [`EspModel::quantize`] or an f32 artifact.
    Net(Net),
    Tree(DecisionTree),
}

thread_local! {
    /// The row-major input panel the predict entry points build; with the
    /// kernel's own per-thread scratch, batched prediction stays
    /// allocation-free per row once both have grown to the model's shape.
    static PANEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Encode and weight every executed branch site of `corpus` into the
/// learner's training set (the front half of [`EspModel::train`]). Each
/// program's sites are extracted on its first use and reused after that;
/// the feature set's extended block, the encoding, the normalization and
/// the coalescing are computed per call.
///
/// When `cfg.coalesce` is on, examples with bit-identical encoded rows are
/// merged (the training objective is unchanged — see
/// [`esp_nnet::coalesce_examples`]); the `esp_train_examples_raw_total` /
/// `esp_train_examples_coalesced_total` counters record the shrink.
///
/// # Panics
///
/// Panics if the corpus contains no executed branches.
pub fn build_training_set(
    corpus: &[TrainingProgram<'_>],
    cfg: &EspConfig,
) -> (FittedEncoder, Vec<TrainExample>) {
    training_set(&corpus.iter().collect::<Vec<_>>(), cfg)
}

/// [`build_training_set`] over borrowed programs, so a fold can train on a
/// subset of a group without giving up the group's extracted sites.
fn training_set(
    corpus: &[&TrainingProgram<'_>],
    cfg: &EspConfig,
) -> (FittedEncoder, Vec<TrainExample>) {
    let mut raw: Vec<(Vec<f64>, Vec<bool>)> = Vec::new();
    let mut targets: Vec<(f64, f64)> = Vec::new(); // (t_k, n_k)
    for tp in corpus {
        let ext = cfg
            .features
            .extended
            .then(|| ExtendedContext::new(tp.prog, tp.analysis));
        for site in tp.sites() {
            let mut f = site.features;
            if let Some(ctx) = &ext {
                ctx.attach(site.id, &mut f);
            }
            raw.push(encode(&f, &cfg.features));
            targets.push((site.taken_prob, site.weight));
        }
    }
    assert!(
        !raw.is_empty(),
        "training corpus contains no executed branches"
    );
    let encoder = FittedEncoder::fit(&raw, cfg.features);
    // Normalize each raw row where it lies: the training set reuses the
    // rows instead of holding a second copy.
    let data: Vec<TrainExample> = raw
        .into_iter()
        .zip(targets)
        .map(|((mut x, mask), (target, weight))| {
            encoder.transform_in_place(&mut x, &mask);
            TrainExample { x, target, weight }
        })
        .collect();
    if !cfg.coalesce {
        return (encoder, data);
    }
    let (merged, stats) = esp_nnet::coalesce_examples(&data);
    let m = esp_obs::global_metrics();
    m.counter("esp_train_examples_raw_total")
        .add(stats.examples_in as u64);
    m.counter("esp_train_examples_coalesced_total")
        .add(stats.examples_out as u64);
    esp_obs::instant!(
        "esp",
        "coalesce",
        before = stats.examples_in,
        after = stats.examples_out,
    );
    (encoder, merged)
}

/// A trained evidence-based static predictor.
pub struct EspModel {
    encoder: FittedEncoder,
    fitted: Fitted,
    examples: usize,
}

impl EspModel {
    /// Train on a corpus of profiled programs.
    ///
    /// Each *executed* branch site contributes one example: its encoded
    /// Table 2 features, its true taken-probability `t_k`, and its
    /// normalized branch weight `n_k` (execution count over the program's
    /// total conditional-branch executions, §3.1). Sites that never executed
    /// carry no dynamic information and are skipped, matching the paper's
    /// weighting (their `n_k` is 0).
    ///
    /// # Panics
    ///
    /// Panics if the corpus contains no executed branches.
    pub fn train(corpus: &[TrainingProgram<'_>], cfg: &EspConfig) -> Self {
        Self::train_on(&corpus.iter().collect::<Vec<_>>(), cfg)
    }

    /// [`EspModel::train`] over borrowed programs (how a leave-one-out
    /// fold trains on the rest of its group).
    pub(crate) fn train_on(corpus: &[&TrainingProgram<'_>], cfg: &EspConfig) -> Self {
        let (encoder, data) = {
            let _sp = esp_obs::span!("esp", "encode", programs = corpus.len());
            training_set(corpus, cfg)
        };
        let fitted = match &cfg.learner {
            Learner::Net(mcfg) => Fitted::Net(Net::F64(Mlp::train(&data, mcfg).0)),
            Learner::Tree(tcfg) => Fitted::Tree(DecisionTree::train(&data, tcfg)),
        };
        EspModel {
            encoder,
            fitted,
            examples: data.len(),
        }
    }

    /// Rebuild a network-backed model from its persisted parts (fitted
    /// encoder, network at its stored precision, example count) — the
    /// import half of model artifacts. A model rebuilt from the parts
    /// exported by [`EspModel::encoder`]/[`EspModel::net`] predicts
    /// bitwise-identically to the original.
    pub fn from_net_parts(encoder: FittedEncoder, net: Net, examples: usize) -> Self {
        EspModel {
            encoder,
            fitted: Fitted::Net(net),
            examples,
        }
    }

    /// The f32 serving narrowing of this model: network parameters rounded
    /// to f32 once, inference in f32 thereafter (see
    /// [`esp_nnet::Mlp::quantize`]). The encoder (normalization statistics)
    /// stays f64 — only the network is quantized. `None` for tree learners.
    /// Quantizing an already-quantized model is the identity.
    pub fn quantize(&self) -> Option<EspModel> {
        let net = self.net()?.quantize();
        Some(EspModel::from_net_parts(
            self.encoder.clone(),
            net,
            self.examples,
        ))
    }

    /// Parameter precision of the underlying predictor in bits: 32 for a
    /// quantized network, 64 otherwise (trees store f64 thresholds).
    pub fn precision_bits(&self) -> u32 {
        self.net().map_or(64, Net::precision_bits)
    }

    /// Number of training examples used.
    pub fn num_examples(&self) -> usize {
        self.examples
    }

    /// The fitted encoder (feature set + normalization statistics).
    pub fn encoder(&self) -> &FittedEncoder {
        &self.encoder
    }

    /// The fitted network at its stored precision, or `None` for a tree.
    pub fn net(&self) -> Option<&Net> {
        match &self.fitted {
            Fitted::Net(net) => Some(net),
            Fitted::Tree(_) => None,
        }
    }

    /// The trained f64 network's flattened parameters, or `None` for a tree
    /// or quantized model. Exposed so determinism tests can assert
    /// bitwise-identical training outcomes across thread counts.
    pub fn net_weights(&self) -> Option<Vec<f64>> {
        match self.net()? {
            Net::F64(m) => Some(m.flat_weights()),
            Net::F32(_) => None,
        }
    }

    /// The one place a prediction reaches the fitted predictor: forward a
    /// row-major `panel` of `rows` encoded, normalized rows. Networks run
    /// the batch-major kernel at their stored precision — full 8-row tiles
    /// autovectorized across examples, each lane in the scalar summation
    /// order, so every row is bitwise identical to a one-row call. Trees
    /// walk the rows one by one.
    fn forward(&self, panel: &[f64], rows: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows);
        match &self.fitted {
            Fitted::Net(net) => net.predict_panel_into(panel, rows, &mut out),
            Fitted::Tree(t) => {
                let dim = self.encoder.normalizer().dim();
                out.extend((0..rows).map(|r| t.predict(&panel[r * dim..(r + 1) * dim])));
            }
        }
        out
    }

    /// The model's estimated probability that `site` is taken.
    pub fn predict_prob(&self, prog: &Program, analysis: &ProgramAnalysis, site: BranchId) -> f64 {
        self.predict_prob_sites(prog, analysis, &[site])[0]
    }

    /// Predict from a *raw* encoded feature row plus its meaningful-position
    /// mask — the pair produced by [`crate::encode::encode`] — applying this
    /// model's normalization and gating first. This is the wire-level entry
    /// point used by `esp-serve`: clients ship raw rows, the server owns the
    /// training-set statistics, and the result is bitwise identical to
    /// [`EspModel::predict_prob`] on the same branch site.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the encoder's dimensionality.
    pub fn predict_prob_encoded(&self, row: &[f64], mask: &[bool]) -> f64 {
        self.predict_prob_encoded_batch([(row, mask)])[0]
    }

    /// Batched [`EspModel::predict_prob_encoded`]: normalize every raw
    /// `(row, mask)` pair onto a contiguous row-major panel
    /// ([`FittedEncoder::transform_extend`]) and forward the whole panel at
    /// once. The panel is thread-local — no allocations per row after
    /// warm-up. Used by `esp-serve` for the rows that miss its cache.
    /// Bitwise identical to calling [`EspModel::predict_prob_encoded`] per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the encoder's dimensionality.
    pub fn predict_prob_encoded_batch<'a, I>(&self, rows: I) -> Vec<f64>
    where
        I: IntoIterator<Item = (&'a [f64], &'a [bool])>,
    {
        PANEL.with(|cell| {
            let panel = &mut *cell.borrow_mut();
            panel.clear();
            let mut n = 0usize;
            for (row, mask) in rows {
                self.encoder.transform_extend(row, mask, panel);
                n += 1;
            }
            self.forward(panel, n)
        })
    }

    /// Batched site prediction: extract + encode every branch in `sites`
    /// onto a contiguous row-major panel and forward it at once.
    /// Probabilities come back in `sites` order, bitwise identical to
    /// per-site [`EspModel::predict_prob`] — the entry point for eval loops.
    pub fn predict_prob_sites(
        &self,
        prog: &Program,
        analysis: &ProgramAnalysis,
        sites: &[BranchId],
    ) -> Vec<f64> {
        let mut row = Vec::new();
        let mut mask = Vec::new();
        let ext = self
            .encoder
            .feature_set()
            .extended
            .then(|| ExtendedContext::new(prog, analysis));
        PANEL.with(|cell| {
            let panel = &mut *cell.borrow_mut();
            panel.clear();
            for &site in sites {
                let mut f = extract(prog, analysis, site);
                if let Some(ctx) = &ext {
                    ctx.attach(site, &mut f);
                }
                self.encoder.encode_into(&f, &mut row, &mut mask);
                panel.extend_from_slice(&row);
            }
            self.forward(panel, sites.len())
        })
    }

    /// Hard taken/not-taken prediction at the paper's 0.5 threshold.
    pub fn predict_taken(
        &self,
        prog: &Program,
        analysis: &ProgramAnalysis,
        site: BranchId,
    ) -> bool {
        self.predict_prob(prog, analysis, site) > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_exec::{run, ExecLimits};
    use esp_ir::Lang;
    use esp_lang::{compile_source, CompilerConfig};

    struct Owned {
        prog: Program,
        analysis: ProgramAnalysis,
        profile: Profile,
    }

    fn build(src: &str) -> Owned {
        let prog = compile_source("t", src, Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = run(&prog, &ExecLimits::default()).unwrap().profile;
        Owned {
            prog,
            analysis,
            profile,
        }
    }

    const LOOPY: &str = r#"
        int main() {
            int i = 0;
            int s = 0;
            while (i < 200) {
                if (s > 100000) { return s; }
                s = s + i;
                i = i + 1;
            }
            return s;
        }
    "#;

    const LOOPY2: &str = r#"
        int main() {
            int j = 5;
            int t = 0;
            while (j < 300) {
                if (t < 0) { return 0; }
                t = t + j % 11;
                j = j + 1;
            }
            return t;
        }
    "#;

    fn cheap_cfg() -> EspConfig {
        EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 4,
                max_epochs: 120,
                patience: 20,
                restarts: 1,
                ..MlpConfig::default()
            }),
            features: FeatureSet::default(),
            ..EspConfig::default()
        }
    }

    #[test]
    fn learns_loop_bias_across_programs() {
        let a = build(LOOPY);
        let b = build(LOOPY2);
        let corpus = [TrainingProgram::new(&a.prog, &a.analysis, &a.profile)];
        let model = EspModel::train(&corpus, &cheap_cfg());
        assert!(model.num_examples() > 0);
        // predict on the *other* program: latch branches (taken-side back
        // edge) must be predicted taken.
        for site in b.prog.branch_sites() {
            let f = crate::features::extract(&b.prog, &b.analysis, site);
            if f.taken.back_edge {
                assert!(
                    model.predict_taken(&b.prog, &b.analysis, site),
                    "latch branch predicted not-taken"
                );
            }
            let p = model.predict_prob(&b.prog, &b.analysis, site);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn tree_learner_also_works() {
        let a = build(LOOPY);
        let corpus = [TrainingProgram::new(&a.prog, &a.analysis, &a.profile)];
        let cfg = EspConfig {
            learner: Learner::Tree(TreeConfig::default()),
            features: FeatureSet::default(),
            ..EspConfig::default()
        };
        let model = EspModel::train(&corpus, &cfg);
        let b = build(LOOPY2);
        for site in b.prog.branch_sites() {
            let f = crate::features::extract(&b.prog, &b.analysis, site);
            if f.taken.back_edge {
                assert!(model.predict_taken(&b.prog, &b.analysis, site));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no executed branches")]
    fn empty_corpus_rejected() {
        let src = "int main() { return 3; }";
        let a = build(src);
        let corpus = [TrainingProgram::new(&a.prog, &a.analysis, &a.profile)];
        let _ = EspModel::train(&corpus, &cheap_cfg());
    }
}
