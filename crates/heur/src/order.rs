//! Searching for the best fixed heuristic order — the experiment Ball &
//! Larus ran to pick APHC's ordering ("They determined the best fixed order
//! by conducting an experiment in which all possible orders were
//! considered", §2.1).
//!
//! [`evaluate_order`] scores a candidate order the same way Table 4 scores
//! APHC (uncovered branches count half); [`greedy_order`] builds an order by
//! repeatedly appending the heuristic that performs best on the
//! still-uncovered branch weight; [`exhaustive_order`] tries every
//! permutation of a (small) heuristic subset.

use esp_exec::Profile;
use esp_ir::{Program, ProgramAnalysis};

use crate::balllarus::Heuristic;
use crate::combine::Aphc;
use crate::ctx::BranchCtx;

/// One profiled program, borrowed for order evaluation.
pub type Run<'a> = (&'a Program, &'a ProgramAnalysis, &'a Profile);

/// Dynamic miss rate of a fixed order over the given runs (uncovered
/// branches are scored as coin flips). Returns 0 when nothing executed.
pub fn evaluate_order(order: &[Heuristic], runs: &[Run<'_>]) -> f64 {
    let aphc = Aphc::with_order(order.to_vec());
    let mut misses = 0.0f64;
    let mut total = 0u64;
    for (prog, analysis, profile) in runs {
        for site in prog.branch_sites() {
            let Some(c) = profile.counts(site) else {
                continue;
            };
            total += c.executed;
            let ctx = BranchCtx::new(prog, analysis, site);
            misses += c.misses(aphc.predict(&ctx));
        }
    }
    if total == 0 {
        0.0
    } else {
        misses / total as f64
    }
}

/// Greedy order construction: repeatedly append the heuristic whose
/// predictions are most accurate on the branch weight not yet covered by
/// the prefix. A practical stand-in for the exhaustive search on all nine
/// heuristics (9! orders).
pub fn greedy_order(runs: &[Run<'_>]) -> Vec<Heuristic> {
    let mut remaining: Vec<Heuristic> = Heuristic::TABLE1_ORDER.to_vec();
    let mut order: Vec<Heuristic> = Vec::new();
    while !remaining.is_empty() {
        let mut best: Option<(usize, f64, u64)> = None; // (idx, hit rate, coverage)
        for (i, h) in remaining.iter().enumerate() {
            let mut correct = 0.0f64;
            let mut covered = 0u64;
            for (prog, analysis, profile) in runs {
                for site in prog.branch_sites() {
                    let Some(c) = profile.counts(site) else {
                        continue;
                    };
                    let ctx = BranchCtx::new(prog, analysis, site);
                    // skip branches the prefix already decides
                    if order.iter().any(|o| o.predict(&ctx).is_some()) {
                        continue;
                    }
                    let Some(pred) = h.predict(&ctx) else {
                        continue;
                    };
                    covered += c.executed;
                    correct += c.executed as f64 - c.misses(Some(pred));
                }
            }
            let rate = if covered > 0 {
                correct / covered as f64
            } else {
                0.0
            };
            // prefer higher accuracy; break ties toward more coverage
            let better = match best {
                None => true,
                Some((_, r, cov)) => rate > r + 1e-12 || (rate > r - 1e-12 && covered > cov),
            };
            if better {
                best = Some((i, rate, covered));
            }
        }
        let (idx, _, _) = best.expect("remaining nonempty");
        order.push(remaining.remove(idx));
    }
    order
}

/// Exhaustively evaluate every permutation of `subset` (≤ 7 heuristics keeps
/// this tractable) and return the best order with its miss rate.
///
/// # Panics
///
/// Panics if `subset` is empty or longer than 7.
pub fn exhaustive_order(subset: &[Heuristic], runs: &[Run<'_>]) -> (Vec<Heuristic>, f64) {
    assert!(
        !subset.is_empty() && subset.len() <= 7,
        "exhaustive search is limited to 1..=7 heuristics"
    );
    let mut best: Option<(Vec<Heuristic>, f64)> = None;
    let mut perm: Vec<Heuristic> = subset.to_vec();
    permute(&mut perm, 0, &mut |candidate| {
        let rate = evaluate_order(candidate, runs);
        if best.as_ref().is_none_or(|(_, r)| rate < *r) {
            best = Some((candidate.to_vec(), rate));
        }
    });
    best.expect("at least one permutation")
}

fn permute(v: &mut Vec<Heuristic>, k: usize, visit: &mut impl FnMut(&[Heuristic])) {
    if k == v.len() {
        visit(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, visit);
        v.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_exec::{run, ExecLimits};
    use esp_ir::Lang;
    use esp_lang::{compile_source, CompilerConfig};

    fn sample_runs() -> Vec<(Program, ProgramAnalysis, Profile)> {
        let sources = [
            r#"int main() {
                int *p = alloc_int(8);
                int i;
                int s = 0;
                for (i = 0; i < 8; i = i + 1) { p[i] = i * 3; }
                for (i = 0; i < 200; i = i + 1) {
                    if (p == null) { return 0 - 1; }
                    s = s + p[i % 8];
                    if (s < 0) { return 0; }
                }
                return s;
            }"#,
            r#"int main() {
                int i = 0;
                int s = 0;
                while (i < 300) {
                    if (i % 2 == 0) { s = s + 1; } else { s = s - 1; }
                    i = i + 1;
                }
                return s;
            }"#,
        ];
        sources
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let prog =
                    compile_source(&format!("p{i}"), src, Lang::C, &CompilerConfig::default())
                        .expect("compiles");
                let analysis = ProgramAnalysis::analyze(&prog);
                let profile = run(&prog, &ExecLimits::default()).expect("runs").profile;
                (prog, analysis, profile)
            })
            .collect()
    }

    #[test]
    fn evaluate_order_scores_table1_order() {
        let owned = sample_runs();
        let runs: Vec<Run<'_>> = owned.iter().map(|(p, a, f)| (p, a, f)).collect();
        let rate = evaluate_order(&Heuristic::TABLE1_ORDER, &runs);
        assert!((0.0..=1.0).contains(&rate));
        // loopy corpus: the fixed order must beat coin flipping
        assert!(rate < 0.5, "APHC rate {rate}");
    }

    #[test]
    fn greedy_order_is_a_permutation_and_competitive() {
        let owned = sample_runs();
        let runs: Vec<Run<'_>> = owned.iter().map(|(p, a, f)| (p, a, f)).collect();
        let order = greedy_order(&runs);
        assert_eq!(order.len(), 9);
        let mut sorted = order.clone();
        sorted.sort_by_key(|h| h.ordinal());
        assert_eq!(sorted, Heuristic::TABLE1_ORDER.to_vec());
        // the greedy order must be at least as good as the worst permutation
        // of itself on this corpus; sanity: it beats random guessing
        assert!(evaluate_order(&order, &runs) < 0.5);
    }

    #[test]
    fn exhaustive_search_finds_no_worse_than_given_order() {
        let owned = sample_runs();
        let runs: Vec<Run<'_>> = owned.iter().map(|(p, a, f)| (p, a, f)).collect();
        let subset = [
            Heuristic::LoopBranch,
            Heuristic::Pointer,
            Heuristic::Opcode,
            Heuristic::Return,
        ];
        let (best, best_rate) = exhaustive_order(&subset, &runs);
        assert_eq!(best.len(), 4);
        let given_rate = evaluate_order(&subset, &runs);
        assert!(best_rate <= given_rate + 1e-12);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn exhaustive_rejects_large_subsets() {
        let owned = sample_runs();
        let runs: Vec<Run<'_>> = owned.iter().map(|(p, a, f)| (p, a, f)).collect();
        let _ = exhaustive_order(&Heuristic::TABLE1_ORDER, &runs);
    }
}
