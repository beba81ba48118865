//! Per-heuristic hit rates: the published Ball–Larus numbers and a
//! measurement harness for re-deriving them on any corpus (the paper's
//! DSHC(B&L) vs DSHC(Ours) distinction, and its Table 6).

use esp_exec::Profile;
use esp_ir::{Program, ProgramAnalysis};

use crate::balllarus::Heuristic;
use crate::ctx::BranchCtx;

/// Hit rate (probability the heuristic's prediction is correct) per
/// heuristic, plus how much branch weight it was measured over.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicRates {
    hit: [f64; 9],
    /// Dynamic executions each heuristic's measurement covered.
    pub coverage: [u64; 9],
}

impl HeuristicRates {
    /// The hit rates reported by Ball & Larus on the MIPS (the complement of
    /// the miss rates in the paper's Table 6, "B&L (MIPS)" column). These are
    /// the numbers Wu & Larus plugged into Dempster–Shafer — the paper's
    /// DSHC(B&L) configuration.
    pub fn ball_larus_mips() -> Self {
        let mut hit = [0.0; 9];
        for (h, miss) in [
            (Heuristic::LoopBranch, 0.12),
            (Heuristic::Pointer, 0.40),
            (Heuristic::Opcode, 0.16),
            (Heuristic::Guard, 0.38),
            (Heuristic::LoopExit, 0.20),
            (Heuristic::LoopHeader, 0.25),
            (Heuristic::Call, 0.22),
            (Heuristic::Store, 0.45),
            (Heuristic::Return, 0.28),
        ] {
            hit[h.ordinal()] = 1.0 - miss;
        }
        HeuristicRates {
            hit,
            coverage: [0; 9],
        }
    }

    /// Rebuild a rate table from persisted arrays (the inverse of
    /// [`HeuristicRates::hit_array`] plus the public `coverage` field) — the
    /// import half of model artifacts.
    pub fn from_parts(hit: [f64; 9], coverage: [u64; 9]) -> Self {
        HeuristicRates { hit, coverage }
    }

    /// All nine hit rates in `Heuristic::ordinal` order (export half of
    /// model artifacts).
    pub fn hit_array(&self) -> [f64; 9] {
        self.hit
    }

    /// The hit rate of one heuristic.
    pub fn hit_rate(&self, h: Heuristic) -> f64 {
        self.hit[h.ordinal()]
    }

    /// The miss rate of one heuristic (`1 − hit`).
    pub fn miss_rate(&self, h: Heuristic) -> f64 {
        1.0 - self.hit_rate(h)
    }
}

/// Measure per-heuristic hit rates over profiled programs, weighting each
/// branch site by its dynamic execution count (this reproduces the "Ours"
/// columns of Table 6 and supplies DSHC(Ours)).
///
/// Heuristics that never apply anywhere keep the neutral rate 0.5.
pub fn measure_rates<'a, I>(runs: I) -> HeuristicRates
where
    I: IntoIterator<Item = (&'a Program, &'a ProgramAnalysis, &'a Profile)>,
{
    let mut correct = [0.0f64; 9];
    let mut total = [0.0f64; 9];
    let mut coverage = [0u64; 9];
    for (prog, analysis, profile) in runs {
        for site in prog.branch_sites() {
            let Some(counts) = profile.counts(site) else {
                continue; // never executed
            };
            let ctx = BranchCtx::new(prog, analysis, site);
            for h in Heuristic::TABLE1_ORDER {
                let Some(pred) = h.predict(&ctx) else {
                    continue;
                };
                correct[h.ordinal()] += counts.executed as f64 - counts.misses(Some(pred));
                total[h.ordinal()] += counts.executed as f64;
                coverage[h.ordinal()] += counts.executed;
            }
        }
    }
    let mut hit = [0.5f64; 9];
    for i in 0..9 {
        if total[i] > 0.0 {
            hit[i] = correct[i] / total[i];
        }
    }
    HeuristicRates { hit, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_exec::{run, ExecLimits};
    use esp_ir::Lang;
    use esp_lang::{compile_source, CompilerConfig};

    #[test]
    fn published_rates_match_table6() {
        let r = HeuristicRates::ball_larus_mips();
        assert!((r.hit_rate(Heuristic::LoopBranch) - 0.88).abs() < 1e-12);
        assert!((r.miss_rate(Heuristic::Store) - 0.45).abs() < 1e-12);
        assert!((r.miss_rate(Heuristic::Pointer) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn measured_loop_rate_is_high_on_loopy_code() {
        let src = r#"
            int main() {
                int i = 0;
                int s = 0;
                while (i < 1000) { s = s + i; i = i + 1; }
                return s;
            }
        "#;
        let prog = compile_source("t", src, Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = run(&prog, &ExecLimits::default()).unwrap().profile;
        let rates = measure_rates([(&prog, &analysis, &profile)]);
        assert!(
            rates.hit_rate(Heuristic::LoopBranch) > 0.95,
            "loop branch hit rate {} too low",
            rates.hit_rate(Heuristic::LoopBranch)
        );
        assert!(rates.coverage[Heuristic::LoopBranch.ordinal()] > 500);
        // heuristics that never applied stay neutral
        assert_eq!(rates.hit_rate(Heuristic::Pointer), 0.5);
    }
}
