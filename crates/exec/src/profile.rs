//! Dynamic branch profiles.

use esp_ir::{BlockId, BranchId, FuncId};

/// Dynamic counts for one static conditional-branch site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    /// How many times the branch executed.
    pub executed: u64,
    /// How many times it was taken (`taken <= executed`).
    pub taken: u64,
}

impl BranchCounts {
    /// Fraction of executions in which the branch was taken, or `None` when
    /// it never executed.
    ///
    /// This is the per-site ground-truth probability every study keys on:
    /// the training target of the ESP network (§3.1) and the oracle the
    /// Wu–Larus frequency estimation consults. It is exactly
    /// `taken / executed` — no smoothing, no prior — so a branch that ran
    /// once reports `0.0` or `1.0`, and one that never ran reports `None`
    /// rather than a fabricated `0.5`.
    pub fn taken_prob(&self) -> Option<f64> {
        (self.executed > 0).then(|| self.taken as f64 / self.executed as f64)
    }

    /// Mispredictions of the *perfect static* predictor for this branch: the
    /// minority direction count (the paper's "perfect static profile
    /// prediction", Table 4 last column).
    ///
    /// A static predictor picks **one** direction per site, so the best any
    /// static scheme can do is predict the majority direction and eat the
    /// minority mass: `perfect_misses == min(taken, not_taken)` where
    /// `not_taken = executed - taken`. Scoring the streamed outcomes with a
    /// fixed majority-direction prediction must reproduce this count
    /// event-for-event (`crates/sim/tests/trace_consistency.rs` pins that
    /// equivalence against a [`BranchSink`](crate::BranchSink)).
    pub fn perfect_misses(&self) -> u64 {
        self.taken.min(self.executed - self.taken)
    }

    /// Mispredictions charged to the static prediction `pred` for this
    /// branch, the paper's one scoring rule: a branch predicted taken
    /// (`Some(true)`) or not taken (`Some(false)`) is charged its
    /// executions in the other direction, and one no predictor covers
    /// (`None`) is charged half its executions, the expectation of Table
    /// 5's "uniform random" default. A hit tally is `executed as f64 -
    /// misses(..)`, exact below 2^53 executions.
    pub fn misses(&self, pred: Option<bool>) -> f64 {
        match pred {
            Some(true) => (self.executed - self.taken) as f64,
            Some(false) => self.taken as f64,
            None => self.executed as f64 / 2.0,
        }
    }
}

/// The dynamic profile of one program run.
///
/// Keys are static [`BranchId`]s; branch sites that never executed do not
/// appear (callers that need all sites should iterate
/// [`esp_ir::Program::branch_sites`] and treat missing entries as zero).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Executed conditional-branch sites, in id order.
    branches: Vec<(BranchId, BranchCounts)>,
    /// Function `f`'s blocks count into
    /// `block_exec[block_base[f]..block_base[f + 1]]`.
    block_base: Vec<usize>,
    block_exec: Vec<u64>,
    /// Total dynamic IR instructions executed (terminators included).
    pub dyn_insns: u64,
    /// Total dynamic conditional-branch executions.
    pub dyn_cond_branches: u64,
}

impl Profile {
    /// Assemble the profile of one run from its dense counters: the
    /// per-block execution counts laid out by `block_base` (one offset per
    /// function, plus the total), the executed conditional-branch sites in
    /// id order, and the dynamic instruction count.
    pub(crate) fn from_counts(
        block_base: Vec<usize>,
        block_exec: Vec<u64>,
        branches: Vec<(BranchId, BranchCounts)>,
        dyn_insns: u64,
    ) -> Profile {
        debug_assert!(branches.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert_eq!(block_base.last().copied(), Some(block_exec.len()));
        Profile {
            dyn_cond_branches: branches.iter().map(|(_, c)| c.executed).sum(),
            branches,
            block_base,
            block_exec,
            dyn_insns,
        }
    }

    /// Counts for one branch site, or `None` if it never executed.
    pub fn counts(&self, id: BranchId) -> Option<&BranchCounts> {
        let i = self.branches.binary_search_by_key(&id, |(b, _)| *b).ok()?;
        Some(&self.branches[i].1)
    }

    /// Iterate over executed branch sites in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&BranchId, &BranchCounts)> {
        self.branches.iter().map(|(id, c)| (id, c))
    }

    /// Number of distinct branch sites that executed at least once.
    pub fn executed_sites(&self) -> usize {
        self.branches.len()
    }

    /// The *normalized branch weight* of a site (§3.1): its execution count
    /// divided by the program's total conditional-branch executions. Zero for
    /// never-executed sites.
    pub fn weight(&self, id: BranchId) -> f64 {
        if self.dyn_cond_branches == 0 {
            return 0.0;
        }
        self.counts(id)
            .map(|c| c.executed as f64 / self.dyn_cond_branches as f64)
            .unwrap_or(0.0)
    }

    /// Dynamic execution count of a basic block (used by the Figure 2 case
    /// study). Zero when the block never ran or is not in the program.
    pub fn block_count(&self, func: FuncId, block: BlockId) -> u64 {
        match self.block_base.get(func.index()..=func.index() + 1) {
            Some(&[lo, hi]) if block.index() < hi - lo => self.block_exec[lo + block.index()],
            _ => 0,
        }
    }

    /// Fraction of all executed conditional branches that were taken
    /// (Table 3's "%Taken" column). `None` when no branch ran.
    pub fn overall_taken_fraction(&self) -> Option<f64> {
        if self.dyn_cond_branches == 0 {
            return None;
        }
        let taken: u64 = self.branches.iter().map(|(_, c)| c.taken).sum();
        Some(taken as f64 / self.dyn_cond_branches as f64)
    }

    /// The number of hottest branch sites that together account for at least
    /// `fraction` (in `[0, 1]`) of all executed conditional branches —
    /// Table 3's quantile columns (Q-50 … Q-100).
    pub fn quantile_sites(&self, fraction: f64) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0,1], got {fraction}"
        );
        if self.dyn_cond_branches == 0 {
            return 0;
        }
        let mut counts: Vec<u64> = self.branches.iter().map(|(_, c)| c.executed).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let target = (fraction * self.dyn_cond_branches as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i + 1;
            }
        }
        counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::{BranchOp, CmpOp, FunctionBuilder, Isa, Lang, Program};

    fn bid(b: u32) -> BranchId {
        BranchId {
            func: FuncId(0),
            block: BlockId(b),
        }
    }

    /// A one-function, four-block profile whose `(block, executed, taken)`
    /// sites are its executed conditional branches.
    fn profile_with_sites(sites: &[(u32, u64, u64)]) -> Profile {
        let mut block_exec = vec![0; 4];
        let branches = sites
            .iter()
            .map(|&(b, executed, taken)| {
                block_exec[b as usize] = executed;
                (bid(b), BranchCounts { executed, taken })
            })
            .collect();
        Profile::from_counts(vec![0, 4], block_exec, branches, 0)
    }

    #[test]
    fn counts_and_weight() {
        let p = profile_with_sites(&[(0, 3, 3), (1, 1, 0)]);
        assert_eq!(p.counts(bid(0)).unwrap().executed, 3);
        assert_eq!(p.counts(bid(0)).unwrap().taken, 3);
        assert_eq!(p.weight(bid(0)), 0.75);
        assert_eq!(p.weight(bid(9)), 0.0);
        assert_eq!(p.executed_sites(), 2);
        assert_eq!(p.dyn_cond_branches, 4);
        assert_eq!(p.overall_taken_fraction(), Some(0.75));
    }

    #[test]
    fn misses_per_direction() {
        let c = BranchCounts {
            executed: 10,
            taken: 7,
        };
        assert_eq!(c.misses(Some(true)), 3.0);
        assert_eq!(c.misses(Some(false)), 7.0);
        assert_eq!(c.misses(None), 5.0);
    }

    #[test]
    fn perfect_misses_is_minority_count() {
        let c = BranchCounts {
            executed: 10,
            taken: 7,
        };
        assert_eq!(c.perfect_misses(), 3);
        assert_eq!(c.taken_prob(), Some(0.7));
        let never = BranchCounts::default();
        assert_eq!(never.taken_prob(), None);
    }

    #[test]
    fn quantiles_count_hottest_sites() {
        // site 0: 90 executions, site 1: 9, site 2: 1
        let p = profile_with_sites(&[(0, 90, 90), (1, 9, 9), (2, 1, 1)]);
        assert_eq!(p.quantile_sites(0.5), 1);
        assert_eq!(p.quantile_sites(0.9), 1);
        assert_eq!(p.quantile_sites(0.95), 2);
        assert_eq!(p.quantile_sites(1.0), 3);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn quantile_rejects_bad_fraction() {
        let p = Profile::default();
        let _ = p.quantile_sites(1.5);
    }

    #[test]
    fn empty_profile_edge_cases() {
        let p = Profile::default();
        assert_eq!(p.quantile_sites(0.5), 0);
        assert_eq!(p.overall_taken_fraction(), None);
        assert_eq!(p.weight(bid(0)), 0.0);
        assert_eq!(p.block_count(FuncId(0), BlockId(0)), 0);
    }

    /// main() { i = 0; while (i < 3) { i = i + 1; helper(); } return i; }
    /// with `helper` a single returning block.
    fn loop_calling_helper() -> Program {
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let i = m.fresh_reg();
        let c = m.fresh_reg();
        let entry = m.entry_block();
        let head = m.new_block();
        let body = m.new_block();
        let exit = m.new_block();
        m.push_load_imm(entry, i, 0);
        m.set_fallthrough(entry, head);
        m.push_cmp_imm(head, CmpOp::Lt, c, i, 3);
        m.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
        m.push_alu_imm(body, esp_ir::AluOp::Add, i, i, 1);
        m.set_call(body, FuncId(1), vec![], None, head);
        m.set_return(exit, Some(i));
        let mut h = FunctionBuilder::new("helper", 0, Lang::C);
        let e = h.entry_block();
        h.set_return(e, None);
        Program {
            name: "t".into(),
            funcs: vec![m.finish(), h.finish()],
            main: FuncId(0),
            isa: Isa::Alpha,
        }
    }

    #[test]
    fn only_conditional_branch_blocks_have_counts() {
        let p = crate::run(&loop_calling_helper(), &crate::ExecLimits::default())
            .unwrap()
            .profile;
        let block = |f, b| p.block_count(FuncId(f), BlockId(b));
        assert_eq!(
            [block(0, 0), block(0, 1), block(0, 2), block(0, 3)],
            [1, 4, 3, 1]
        );
        assert_eq!(block(1, 0), 3);
        let head = p.counts(bid(1)).unwrap();
        assert_eq!((head.executed, head.taken), (4, 3));
        // Executed blocks ending in a fall-through, a call or a return are
        // not branch sites.
        assert_eq!(p.counts(bid(0)), None);
        assert_eq!(p.counts(bid(2)), None);
        assert_eq!(p.counts(bid(3)), None);
        let helper = BranchId {
            func: FuncId(1),
            block: BlockId(0),
        };
        assert_eq!(p.counts(helper), None);
        assert_eq!(p.executed_sites(), 1);
        assert_eq!(p.dyn_cond_branches, 4);
    }

    #[test]
    fn ids_outside_the_program_read_as_never_executed() {
        let p = crate::run(&loop_calling_helper(), &crate::ExecLimits::default())
            .unwrap()
            .profile;
        // A block past the end of its function, even where the next
        // function's counters follow in the dense layout.
        assert_eq!(p.block_count(FuncId(0), BlockId(4)), 0);
        assert_eq!(p.block_count(FuncId(1), BlockId(1)), 0);
        // A function past the end of the program.
        assert_eq!(p.block_count(FuncId(2), BlockId(0)), 0);
        assert_eq!(p.block_count(FuncId(u32::MAX), BlockId(u32::MAX)), 0);
        for id in [
            bid(99),
            BranchId {
                func: FuncId(2),
                block: BlockId(1),
            },
            BranchId {
                func: FuncId(u32::MAX),
                block: BlockId(u32::MAX),
            },
        ] {
            assert_eq!(p.counts(id), None);
            assert_eq!(p.weight(id), 0.0);
        }
    }
}
