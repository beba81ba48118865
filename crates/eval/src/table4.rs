//! Table 4: the headline comparison — BTFNT, APHC, DSHC(B&L), DSHC(Ours),
//! ESP and perfect static prediction, per program with group averages.

use std::collections::HashMap;
use std::path::PathBuf;

use esp_artifact::{ModelArtifact, ModelMeta, Registry};
use esp_core::{leave_one_out, EspConfig, EspModel, Learner, TrainingProgram};
use esp_corpus::Group;
use esp_heur::{measure_rates, perfect_predict, Aphc, BranchCtx, Btfnt, Dshc, HeuristicRates};
use esp_ir::{BranchId, Lang};

use crate::data::{BenchData, SuiteData};
use crate::fmt::{pct, TextTable};
use crate::miss::{mean, miss_rate};
use crate::quant::{
    within_bound, FoldQuantReport, PublishOutcome, QuantGateConfig, QuantGateReport,
};

/// Options for the Table 4 study.
#[derive(Debug, Clone, Default)]
pub struct Table4Config {
    /// ESP learner and feature options.
    pub esp: EspConfig,
    /// Registry root to publish every fold model to (`--save-model`), as
    /// `table4-<lang>-fold<i>` version 1; `None` publishes nothing.
    pub model_cache: Option<PathBuf>,
    /// Optional f32 quantization gate (`--precision f32`): score each fold's
    /// quantized model against its f64 reference and report/publish.
    pub quant: Option<QuantGateConfig>,
}

/// One program's Table 4 row (fractions, not percentages).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Program name.
    pub name: String,
    /// Benchmark group (drives the averages).
    pub group: Group,
    /// BTFNT miss rate.
    pub btfnt: f64,
    /// APHC (fixed-order Ball–Larus) miss rate.
    pub aphc: f64,
    /// DSHC with the published B&L hit rates.
    pub dshc_bl: f64,
    /// DSHC with hit rates measured on this corpus.
    pub dshc_ours: f64,
    /// ESP (leave-one-out within the program's language group).
    pub esp: f64,
    /// Perfect static profile prediction.
    pub perfect: f64,
}

/// Compute every row of Table 4. This is the expensive call: it runs one
/// ESP training fold per program (leave-one-out within the C group and
/// within the Fortran group, §4).
pub fn compute(suite: &SuiteData, cfg: &Table4Config) -> Vec<Table4Row> {
    compute_with_quant(suite, cfg).0
}

/// [`compute`], plus the f32 quantization gate when `cfg.quant` is set.
///
/// The gate rides the fold loop's serial phase: in fold order, each fold's
/// f64 model, which has already scored its held-out program, is quantized
/// to f32 and scored on the same sites, prediction flips (`> 0.5`
/// disagreements) are counted, and the fold's f32 miss rate is measured
/// with the same accounting as the table. Folds within the flip bound are
/// published beside the f64 folds in `cfg.model_cache`, if set, as
/// `table4-<lang>-fold<i>-f32`; folds over it are refused. The returned
/// report carries the pooled verdict. Table 4's rows are computed from
/// the f64 models either way — the gate never perturbs the published
/// numbers.
pub fn compute_with_quant(
    suite: &SuiteData,
    cfg: &Table4Config,
) -> (Vec<Table4Row>, Option<QuantGateReport>) {
    // Heuristic machinery shared by all programs.
    let aphc = Aphc::table1_order();
    let dshc_bl = Dshc::new(HeuristicRates::ball_larus_mips());
    let measured = measure_rates(
        suite
            .benches
            .iter()
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );
    let dshc_ours = Dshc::new(measured);

    // Default to coin-flip scoring; overwritten by the CV folds below. A
    // language group with fewer than two programs cannot be cross-validated
    // and keeps the coin-flip rate.
    let mut esp_miss: Vec<f64> = suite
        .benches
        .iter()
        .map(|b| miss_rate(b, |_| None))
        .collect();
    let mut gate_folds: Vec<FoldQuantReport> = Vec::new();
    for_each_fold(suite, cfg, |f| {
        esp_miss[f.bench] = f.miss;
        if let Some(qcfg) = &cfg.quant {
            gate_folds.push(quant_fold(suite, cfg, qcfg, &f));
        }
    });

    let rows = suite
        .benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let ctx_of = |site| BranchCtx::new(&b.prog, &b.analysis, site);
            Table4Row {
                name: b.bench.name.to_string(),
                group: b.bench.group,
                btfnt: miss_rate(b, |s| Some(Btfnt.predict(&ctx_of(s)))),
                aphc: miss_rate(b, |s| aphc.predict(&ctx_of(s))),
                dshc_bl: miss_rate(b, |s| dshc_bl.predict(&ctx_of(s))),
                dshc_ours: miss_rate(b, |s| dshc_ours.predict(&ctx_of(s))),
                esp: esp_miss[i],
                perfect: miss_rate(b, |s| perfect_predict(&b.profile, s)),
            }
        })
        .collect();
    let gate = cfg.quant.as_ref().map(|q| QuantGateReport {
        flip_bound: q.flip_bound,
        folds: gate_folds,
    });
    (rows, gate)
}

/// One leave-one-out fold, as [`for_each_fold`] hands it out.
pub(crate) struct Fold<'a> {
    /// Language group of the fold.
    pub lang: Lang,
    /// Position of the held-out program within its language group.
    pub index: usize,
    /// Suite index of the held-out program.
    pub bench: usize,
    /// The fold's model, trained on the rest of the group.
    pub model: &'a EspModel,
    /// Its taken-probability for every branch site of the held-out
    /// program, in `branch_sites()` order.
    pub probs: &'a [f64],
    /// The held-out program's miss rate under those predictions.
    pub miss: f64,
}

/// The paper's cross-validation (§4), shared by Table 4 and the dynamic
/// arena table: within the C group and within the Fortran group, hold out
/// each program in turn, train the fold's model with [`leave_one_out`] and
/// score every branch site of the held-out program in one batched kernel
/// pass, inside the fold's `table4_fold` span. The folds of both groups
/// train and score on the `esp-runtime` pool at `cfg.esp.threads`, each on
/// one worker. Then, one at a time in fold order, each fold is published
/// to `cfg.model_cache` (if set) and handed to `visit`, so registry writes
/// and log lines come out in the same order at every thread count. A
/// language group with fewer than two programs cannot be cross-validated
/// and is skipped.
pub(crate) fn for_each_fold(
    suite: &SuiteData,
    cfg: &Table4Config,
    mut visit: impl FnMut(Fold<'_>),
) {
    let groups: Vec<(Lang, Vec<usize>, Vec<TrainingProgram<'_>>)> = [Lang::C, Lang::Fort]
        .into_iter()
        .map(|lang| (lang, suite.lang_indices(lang)))
        .filter(|(_, idx)| idx.len() >= 2)
        .map(|(lang, idx)| {
            let group = idx
                .iter()
                .map(|&i| {
                    let b = &suite.benches[i];
                    TrainingProgram::new(&b.prog, &b.analysis, &b.profile)
                })
                .collect();
            (lang, idx, group)
        })
        .collect();
    // Every fold as (group, position of the held-out program), in order.
    let folds: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, (_, idx, _))| (0..idx.len()).map(move |i| (g, i)))
        .collect();
    let fold_metrics = esp_obs::global_metrics();
    let folds_total = fold_metrics.counter("esp_eval_folds_total");
    let fold_ms = fold_metrics.histogram("esp_eval_fold_ms");
    let fold_miss = fold_metrics.histogram("esp_eval_fold_miss_permille");
    let scored = esp_runtime::parallel_map(cfg.esp.threads, &folds, |&(g, index)| {
        let (lang, idx, group) = &groups[g];
        let b = &suite.benches[idx[index]];
        let mut sp = esp_obs::span!(
            "eval",
            "table4_fold",
            lang = if *lang == Lang::C { "C" } else { "Fortran" },
            fold = index,
            bench = b.bench.name,
        );
        let t0 = std::time::Instant::now();
        let model = leave_one_out(group, index, &cfg.esp);
        let sites = b.prog.branch_sites();
        let probs = model.predict_prob_sites(&b.prog, &b.analysis, &sites);
        let miss = threshold_miss_rate(b, &sites, &probs);
        folds_total.inc();
        fold_ms.record(t0.elapsed().as_millis() as u64);
        fold_miss.record((miss * 1000.0).round() as u64);
        if sp.is_enabled() {
            sp.arg("miss", miss);
        }
        (model, probs, miss)
    });
    for (&(g, index), (model, probs, miss)) in folds.iter().zip(&scored) {
        let (lang, idx, _) = &groups[g];
        publish_fold(suite, cfg, *lang, index, model);
        visit(Fold {
            lang: *lang,
            index,
            bench: idx[index],
            model,
            probs,
            miss: *miss,
        });
    }
}

/// `b`'s miss rate when each of `sites` is predicted taken iff its
/// probability is over the paper's 0.5 threshold (`predict_taken`).
fn threshold_miss_rate(b: &BenchData, sites: &[BranchId], probs: &[f64]) -> f64 {
    let taken: HashMap<BranchId, bool> = sites
        .iter()
        .zip(probs)
        .map(|(&site, &p)| (site, p > 0.5))
        .collect();
    miss_rate(b, |site| taken.get(&site).copied())
}

/// Registry name of a Table 4 fold model: `table4-<lang>-fold<i>`.
fn fold_name(lang: Lang, fold: usize) -> String {
    let lang_tag = match lang {
        Lang::C => "c",
        Lang::Fort => "fort",
    };
    format!("table4-{lang_tag}-fold{fold}")
}

/// The provenance a fold artifact of this run records, for a model that
/// saw `examples` training examples.
fn fold_meta(suite: &SuiteData, esp: &EspConfig, fold: usize, examples: usize) -> ModelMeta {
    ModelMeta {
        corpus_id: suite.config.name.to_string(),
        seed: match &esp.learner {
            Learner::Net(m) => m.seed,
            _ => 0,
        },
        fold: Some(fold as u32),
        examples: examples as u64,
        train_config: train_config_stamp(esp),
    }
}

/// One fold's leg of the f32 quantization gate: quantize the fold's f64
/// model, rescore the held-out program, count prediction flips against the
/// f64 probabilities, measure the f32 miss rate, and publish (or refuse)
/// the quantized artifact. Tree learners cannot be quantized; their folds
/// score zero sites and publish nothing.
fn quant_fold(
    suite: &SuiteData,
    cfg: &Table4Config,
    qcfg: &QuantGateConfig,
    f: &Fold<'_>,
) -> FoldQuantReport {
    let b = &suite.benches[f.bench];
    let name = format!("{}-f32", fold_name(f.lang, f.index));
    let mut report = FoldQuantReport {
        name: name.clone(),
        bench: b.bench.name.to_string(),
        sites: 0,
        flips: 0,
        miss_f64: f.miss,
        miss_f32: f.miss,
        outcome: PublishOutcome::NotRequested,
    };
    let Some(qmodel) = f.model.quantize() else {
        return report; // tree learner: nothing to quantize
    };
    let sites = b.prog.branch_sites();
    let qprobs = qmodel.predict_prob_sites(&b.prog, &b.analysis, &sites);
    report.sites = sites.len();
    report.flips = f
        .probs
        .iter()
        .zip(&qprobs)
        .filter(|(p, q)| (**p > 0.5) != (**q > 0.5))
        .count();
    esp_obs::global_metrics()
        .counter("esp_quant_flips_total")
        .add(report.flips as u64);
    report.miss_f32 = threshold_miss_rate(b, &sites, &qprobs);
    if let Some(dir) = &cfg.model_cache {
        if within_bound(report.flips, report.sites, qcfg.flip_bound) {
            let meta = fold_meta(suite, &cfg.esp, f.index, qmodel.num_examples());
            let reg = Registry::open(dir);
            report.outcome = match ModelArtifact::from_model(&qmodel, meta, None)
                .and_then(|a| reg.save(&name, 1, &a))
            {
                Ok(path) => {
                    eprintln!(
                        "  fold {name}: f32 artifact published to {}",
                        path.display()
                    );
                    PublishOutcome::Published(path)
                }
                Err(e) => {
                    eprintln!("  fold {name}: cannot publish f32 artifact ({e})");
                    PublishOutcome::Failed(e.to_string())
                }
            };
        } else {
            eprintln!(
                "  fold {name}: REFUSED to publish f32 artifact \
                 ({} of {} predictions flipped, rate {:.4} > bound {:.4})",
                report.flips,
                report.sites,
                report.flip_rate(),
                qcfg.flip_bound
            );
            report.outcome = PublishOutcome::Refused;
        }
    }
    report
}

/// Canonical stamp for the parts of an [`EspConfig`] that change what a
/// trained fold computes, recorded as provenance (`ModelMeta::train_config`)
/// in every published fold artifact, so a reader of the registry can tell
/// how a model was trained. `threads` is deliberately excluded: every
/// thread count produces bitwise-identical models. `coalesce` is included —
/// the merged training set perturbs weights at ulp level. The feature set
/// contributes its [`FeatureSet::stamp_tag`] (not its `Debug` form), which
/// keeps the default paper-24 stamp byte-identical to the one artifacts
/// have always carried, while the extended set yields a distinct tag.
///
/// [`FeatureSet::stamp_tag`]: esp_core::FeatureSet::stamp_tag
pub fn train_config_stamp(cfg: &EspConfig) -> String {
    format!(
        "{:?} | {} | coalesce={}",
        cfg.learner,
        cfg.features.stamp_tag(),
        cfg.coalesce
    )
}

/// When `cfg.model_cache` names a registry, publish one fold's f64 model
/// there as `table4-<lang>-fold<i>` version 1.
fn publish_fold(suite: &SuiteData, cfg: &Table4Config, lang: Lang, fold: usize, model: &EspModel) {
    let Some(dir) = &cfg.model_cache else { return };
    let name = fold_name(lang, fold);
    let meta = fold_meta(suite, &cfg.esp, fold, model.num_examples());
    match ModelArtifact::from_model(model, meta, None)
        .and_then(|a| Registry::open(dir).save(&name, 1, &a))
    {
        Ok(path) => eprintln!("  fold {name}: saved to {}", path.display()),
        Err(e) => eprintln!("  fold {name}: cannot save ({e})"),
    }
}

/// Group-average summary of Table 4 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Summary {
    /// `(label, [btfnt, aphc, dshc_bl, dshc_ours, esp, perfect])` per group
    /// plus the overall average last.
    pub averages: Vec<(String, [f64; 6])>,
}

/// Compute group and overall averages in the paper's order.
pub fn summarize(rows: &[Table4Row]) -> Table4Summary {
    let avg = |sel: &dyn Fn(&Table4Row) -> bool| -> [f64; 6] {
        let picked: Vec<&Table4Row> = rows.iter().filter(|r| sel(r)).collect();
        let col =
            |f: &dyn Fn(&Table4Row) -> f64| mean(&picked.iter().map(|r| f(r)).collect::<Vec<_>>());
        [
            col(&|r| r.btfnt),
            col(&|r| r.aphc),
            col(&|r| r.dshc_bl),
            col(&|r| r.dshc_ours),
            col(&|r| r.esp),
            col(&|r| r.perfect),
        ]
    };
    let mut averages = Vec::new();
    for (label, group) in [
        ("Other C Avg", Group::OtherC),
        ("SPEC C Avg", Group::SpecC),
        ("SPEC Fortran Avg", Group::SpecFortran),
        ("Perf Club Avg", Group::PerfectClub),
    ] {
        averages.push((label.to_string(), avg(&|r: &Table4Row| r.group == group)));
    }
    averages.push(("Overall Avg".to_string(), avg(&|_| true)));
    Table4Summary { averages }
}

/// Render Table 4 in the paper's layout.
pub fn table4(suite: &SuiteData, cfg: &Table4Config) -> String {
    let rows = compute(suite, cfg);
    render_rows(suite, &rows)
}

/// Render precomputed rows (so callers can reuse `compute`'s output).
pub fn render_rows(suite: &SuiteData, rows: &[Table4Row]) -> String {
    let summary = summarize(rows);
    let mut t = TextTable::new(vec![
        "Program",
        "BTFNT",
        "APHC",
        "DSHC(B&L)",
        "DSHC(Ours)",
        "ESP",
        "Perfect",
    ]);
    let mut prev_group = None;
    for row in rows {
        if prev_group.is_some() && prev_group != Some(row.group) {
            // group average row before moving on
            if let Some((label, a)) = summary
                .averages
                .iter()
                .find(|(l, _)| l.starts_with(prev_group_label(prev_group.expect("set"))))
            {
                t.separator();
                t.row(avg_row(label, a));
                t.separator();
            }
        }
        prev_group = Some(row.group);
        t.row(vec![
            row.name.clone(),
            pct(row.btfnt),
            pct(row.aphc),
            pct(row.dshc_bl),
            pct(row.dshc_ours),
            pct(row.esp),
            pct(row.perfect),
        ]);
    }
    if let Some(g) = prev_group {
        if let Some((label, a)) = summary
            .averages
            .iter()
            .find(|(l, _)| l.starts_with(prev_group_label(g)))
        {
            t.separator();
            t.row(avg_row(label, a));
        }
    }
    let (label, a) = summary.averages.last().expect("overall average exists");
    t.separator();
    t.row(avg_row(label, a));
    format!(
        "Table 4: branch misprediction rates ({})\n\n{}",
        suite.config.name,
        t.render()
    )
}

fn prev_group_label(g: Group) -> &'static str {
    match g {
        Group::OtherC => "Other C",
        Group::SpecC => "SPEC C",
        Group::SpecFortran => "SPEC Fortran",
        Group::PerfectClub => "Perf Club",
    }
}

fn avg_row(label: &str, a: &[f64; 6]) -> Vec<String> {
    let mut v = vec![label.to_string()];
    v.extend(a.iter().map(|x| pct(*x)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, group: Group, base: f64) -> Table4Row {
        Table4Row {
            name: name.to_string(),
            group,
            btfnt: base + 0.05,
            aphc: base + 0.03,
            dshc_bl: base + 0.03,
            dshc_ours: base + 0.02,
            esp: base + 0.01,
            perfect: base,
        }
    }

    #[test]
    fn summarize_averages_per_group_and_overall() {
        let rows = vec![
            row("a", Group::OtherC, 0.10),
            row("b", Group::OtherC, 0.20),
            row("c", Group::SpecFortran, 0.30),
        ];
        let s = summarize(&rows);
        assert_eq!(s.averages.len(), 5);
        let other_c = &s.averages[0];
        assert!(other_c.0.starts_with("Other C"));
        assert!(
            (other_c.1[5] - 0.15).abs() < 1e-12,
            "perfect avg of 0.10/0.20"
        );
        let overall = s.averages.last().expect("overall");
        assert!((overall.1[0] - (0.15 + 0.25 + 0.35) / 3.0).abs() < 1e-12);
        // empty groups average to zero rather than NaN
        let spec_c = &s.averages[1];
        assert_eq!(spec_c.1[0], 0.0);
    }
}
