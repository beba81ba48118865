//! Program-based profile estimation — the paper's stated next goal ("Our
//! next goal will be to incorporate this branch probability data to perform
//! program-based profile estimation using ESP", §6) in the style of
//! Wu & Larus (MICRO'94).
//!
//! Given a per-branch taken-probability (from ESP's network output, from
//! DSHC's combined evidence, or a flat 0.5 baseline), intra-procedural block
//! frequencies are estimated by solving the flow equations
//!
//! ```text
//! freq(entry) = 1
//! freq(b)     = Σ_{p → b} freq(p) · prob(p → b)
//! ```
//!
//! iteratively in reverse postorder (cycles converge geometrically once
//! branch probabilities are clamped away from 1).

use esp_ir::{BranchId, FuncId, Program, Terminator};

use crate::data::BenchData;

/// Clamp applied to branch probabilities so loops have finite expected trip
/// counts (Wu & Larus use the same device).
const PROB_CLAMP: f64 = 0.99;

/// Estimate relative block frequencies of one function (entry = 1.0).
///
/// `branch_prob` supplies the taken-probability of each conditional branch
/// site; switch edges are split uniformly.
pub fn estimate_block_freq(
    prog: &Program,
    func: FuncId,
    branch_prob: &mut dyn FnMut(BranchId) -> f64,
) -> Vec<f64> {
    let f = prog.func(func);
    let n = f.num_blocks();
    // Pre-compute edge probabilities per block.
    let mut edges: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n]; // succ index, prob
    for (id, block) in f.iter_blocks() {
        let out = &mut edges[id.index()];
        match &block.term {
            Terminator::FallThrough { target } | Terminator::Jump { target } => {
                out.push((target.index(), 1.0));
            }
            Terminator::Call { next, .. } => out.push((next.index(), 1.0)),
            Terminator::CondBranch {
                taken, not_taken, ..
            } => {
                let p =
                    branch_prob(BranchId { func, block: id }).clamp(1.0 - PROB_CLAMP, PROB_CLAMP);
                out.push((taken.index(), p));
                out.push((not_taken.index(), 1.0 - p));
            }
            Terminator::Switch {
                targets, default, ..
            } => {
                let k = targets.len() + 1;
                let p = 1.0 / k as f64;
                for t in targets {
                    out.push((t.index(), p));
                }
                out.push((default.index(), p));
            }
            Terminator::Return { .. } => {}
        }
    }

    // Gauss–Seidel in RPO; geometric convergence for clamped loops.
    let analysis = esp_ir::FuncAnalysis::analyze(f);
    let rpo = analysis.cfg.reverse_postorder();
    let mut freq = vec![0.0f64; n];
    for _ in 0..200 {
        let mut delta = 0.0f64;
        for &b in &rpo {
            let incoming: f64 = if b.index() == 0 {
                1.0
            } else {
                analysis
                    .cfg
                    .preds(b)
                    .iter()
                    .map(|e| {
                        let p = edges[e.from.index()]
                            .iter()
                            .filter(|(to, _)| *to == b.index())
                            .map(|(_, p)| *p)
                            .sum::<f64>();
                        freq[e.from.index()] * p
                    })
                    .sum()
            };
            delta = delta.max((incoming - freq[b.index()]).abs());
            freq[b.index()] = incoming;
        }
        if delta < 1e-9 {
            break;
        }
    }
    freq
}

/// How well estimated frequencies track the measured profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqReport {
    /// Pearson correlation of `ln(1 + freq)` between estimate and
    /// measurement, over blocks of executed functions.
    pub log_correlation: f64,
    /// Mean absolute error of the *relative* block frequencies.
    pub mean_abs_error: f64,
    /// Number of blocks compared.
    pub blocks: usize,
}

/// Evaluate a probability source against the program's real profile.
///
/// For every function that executed, estimated relative frequencies are
/// compared with measured block counts normalised by the function's entry
/// count.
pub fn evaluate_estimation(
    data: &BenchData,
    branch_prob: &mut dyn FnMut(BranchId) -> f64,
) -> FreqReport {
    let mut est_all = Vec::new();
    let mut real_all = Vec::new();
    for (fid, f) in data.prog.iter_funcs() {
        let entry_count = data.profile.block_count(fid, f.entry());
        if entry_count == 0 {
            continue;
        }
        let est = estimate_block_freq(&data.prog, fid, branch_prob);
        for (id, _) in f.iter_blocks() {
            let real = data.profile.block_count(fid, id) as f64 / entry_count as f64;
            est_all.push(est[id.index()]);
            real_all.push(real);
        }
    }
    let n = est_all.len();
    if n == 0 {
        return FreqReport {
            log_correlation: 0.0,
            mean_abs_error: 0.0,
            blocks: 0,
        };
    }
    let loge: Vec<f64> = est_all.iter().map(|x| (1.0 + x).ln()).collect();
    let logr: Vec<f64> = real_all.iter().map(|x| (1.0 + x).ln()).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (me, mr) = (mean(&loge), mean(&logr));
    let mut cov = 0.0;
    let mut ve = 0.0;
    let mut vr = 0.0;
    for i in 0..n {
        cov += (loge[i] - me) * (logr[i] - mr);
        ve += (loge[i] - me).powi(2);
        vr += (logr[i] - mr).powi(2);
    }
    let denom = (ve * vr).sqrt();
    let corr = if denom > 0.0 { cov / denom } else { 0.0 };
    let mae = est_all
        .iter()
        .zip(&real_all)
        .map(|(e, r)| (e - r).abs())
        .sum::<f64>()
        / n as f64;
    FreqReport {
        log_correlation: corr,
        mean_abs_error: mae,
        blocks: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_corpus::suite;
    use esp_lang::CompilerConfig;

    #[test]
    fn perfect_probabilities_estimate_frequencies_well() {
        let bench = suite()
            .into_iter()
            .find(|b| b.name == "sort")
            .expect("sort");
        let data = crate::data::BenchData::build(&bench, &CompilerConfig::default());
        // oracle probabilities straight from the profile
        let profile = data.profile.clone();
        let mut oracle = |site: BranchId| {
            profile
                .counts(site)
                .and_then(|c| c.taken_prob())
                .unwrap_or(0.5)
        };
        let report = evaluate_estimation(&data, &mut oracle);
        assert!(report.blocks > 20);
        assert!(
            report.log_correlation > 0.9,
            "oracle-probability estimation should track reality: {report:?}"
        );

        // flat 0.5 probabilities must be strictly worse
        let mut flat = |_: BranchId| 0.5;
        let flat_report = evaluate_estimation(&data, &mut flat);
        assert!(
            flat_report.log_correlation < report.log_correlation,
            "flat {flat_report:?} vs oracle {report:?}"
        );
    }

    #[test]
    fn straight_line_function_has_unit_frequencies() {
        use esp_ir::{FuncId, FunctionBuilder, Isa, Lang, Program};
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let e = b.entry_block();
        let n1 = b.new_block();
        b.set_fallthrough(e, n1);
        b.set_return(n1, None);
        let prog = Program {
            name: "t".into(),
            funcs: vec![b.finish()],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        let freq = estimate_block_freq(&prog, FuncId(0), &mut |_| 0.5);
        assert!((freq[0] - 1.0).abs() < 1e-9);
        assert!((freq[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loop_frequency_matches_expected_trip_count() {
        use esp_ir::{BranchOp, FuncId, FunctionBuilder, Isa, Lang, Program, Reg};
        // entry -> head; head: branch (taken=body p) | exit; body -> head
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let c: Reg = b.fresh_reg();
        let e = b.entry_block();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, c, 1);
        b.set_fallthrough(e, head);
        b.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
        b.set_jump(body, head);
        b.set_return(exit, None);
        let prog = Program {
            name: "t".into(),
            funcs: vec![b.finish()],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        // p(taken=stay in loop) = 0.9 => head executes ~1/(1-0.9) = 10 times
        let freq = estimate_block_freq(&prog, FuncId(0), &mut |_| 0.9);
        assert!(
            (freq[1] - 10.0).abs() < 0.2,
            "head frequency {} should be ~10",
            freq[1]
        );
        assert!((freq[3] - 1.0).abs() < 1e-6, "exit runs once");
    }
}
