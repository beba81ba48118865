//! Integer value-range analysis with widening and branch-edge refinement.
//!
//! Each register carries a closed interval `[lo, hi]` of possible *integer*
//! values; registers holding floats (or anything the analysis cannot bound)
//! degrade to the full range, which is always sound. Three things make the
//! analysis useful on the corpus:
//!
//! * allocation results are `[1, i64::MAX]` — the interpreter's heap starts
//!   with a reserved null slot, so every `Alloc` address is non-null, which
//!   is what proves pointer null-tests one-sided;
//! * branch edges refine their operands (`i < n` bounds `i` on the taken
//!   edge), including *through* materialised compare flags (the Alpha
//!   `cmplt f, i, n; bne f` pattern) when nothing redefines the compared
//!   registers between the compare and the branch;
//! * loop heads widen: a bound that moved between sweeps is pushed to
//!   ±∞, so loops with data-dependent trip counts terminate quickly. The
//!   widening points are the targets of reverse-postorder retreating edges,
//!   which cuts every cycle of the CFG (natural loop or not).
//!
//! Arithmetic transfer is deliberately conservative: only `Add`/`Sub` (with
//! overflow check — the interpreter wraps, so an overflowing bound poisons
//! the interval to full) and the compare/move family are modelled; anything
//! else is the full range. Like SCCP, a branch is only reported decided
//! when the interpreter would certainly take that direction.

use esp_ir::cfg::{Cfg, Edge, EdgeKind};
use esp_ir::defuse::{effective_compare, CompareRhs};
use esp_ir::insn::{AluOp, CmpOp, Insn};
use esp_ir::term::{BranchOp, Terminator};
use esp_ir::{BlockId, Function, Reg};

use crate::solver::{solve, Analysis, Direction, Solution};

/// A closed integer interval `[lo, hi]`; `lo <= hi` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// The unbounded interval.
pub const FULL: Interval = Interval {
    lo: i64::MIN,
    hi: i64::MAX,
};

impl Interval {
    /// The singleton interval `[v, v]`.
    pub fn constant(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Smallest interval containing both.
    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when empty.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Whether the interval is the single value `v`.
    fn is_constant(self, v: i64) -> bool {
        self.lo == v && self.hi == v
    }

    fn add(self, other: Interval) -> Interval {
        match (self.lo.checked_add(other.lo), self.hi.checked_add(other.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => FULL, // a wrapping bound invalidates the whole interval
        }
    }

    fn sub(self, other: Interval) -> Interval {
        match (self.lo.checked_sub(other.hi), self.hi.checked_sub(other.lo)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => FULL,
        }
    }
}

/// Evaluate `a op b` over intervals: `Some(true)` when the comparison
/// certainly holds, `Some(false)` when it certainly fails, `None` otherwise.
pub fn compare(op: CmpOp, a: Interval, b: Interval) -> Option<bool> {
    let disjoint = a.hi < b.lo || b.hi < a.lo;
    match op {
        CmpOp::Eq => {
            if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
                Some(true)
            } else if disjoint {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ne => compare(CmpOp::Eq, a, b).map(|r| !r),
        CmpOp::Lt => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => compare(CmpOp::Le, a, b).map(|r| !r),
        CmpOp::Ge => compare(CmpOp::Lt, a, b).map(|r| !r),
    }
}

/// Constrain `(lhs, rhs)` under the assumption `lhs op rhs` holds. Returns
/// `None` when the constraint is unsatisfiable (the edge is infeasible).
fn refine(op: CmpOp, lhs: Interval, rhs: Interval) -> Option<(Interval, Interval)> {
    match op {
        CmpOp::Eq => {
            let both = lhs.intersect(rhs)?;
            Some((both, both))
        }
        CmpOp::Ne => {
            // Intervals cannot carve holes; only singleton endpoints shave.
            let shave = |x: Interval, c: Interval| -> Option<Interval> {
                if c.lo != c.hi {
                    return Some(x);
                }
                let c = c.lo;
                let mut out = x;
                if out.lo == c && out.hi == c {
                    return None;
                }
                if out.lo == c {
                    out.lo = out.lo.saturating_add(1);
                }
                if out.hi == c {
                    out.hi = out.hi.saturating_sub(1);
                }
                Some(out)
            };
            Some((shave(lhs, rhs)?, shave(rhs, lhs)?))
        }
        CmpOp::Lt => {
            let l = lhs.intersect(Interval {
                lo: i64::MIN,
                hi: rhs.hi.saturating_sub(1),
            })?;
            let r = rhs.intersect(Interval {
                lo: lhs.lo.saturating_add(1),
                hi: i64::MAX,
            })?;
            Some((l, r))
        }
        CmpOp::Le => {
            let l = lhs.intersect(Interval {
                lo: i64::MIN,
                hi: rhs.hi,
            })?;
            let r = rhs.intersect(Interval {
                lo: lhs.lo,
                hi: i64::MAX,
            })?;
            Some((l, r))
        }
        CmpOp::Gt => refine(CmpOp::Lt, rhs, lhs).map(|(r, l)| (l, r)),
        CmpOp::Ge => refine(CmpOp::Le, rhs, lhs).map(|(r, l)| (l, r)),
    }
}

fn branch_cmp_op(op: BranchOp) -> CmpOp {
    match op {
        BranchOp::Beq | BranchOp::Fbeq => CmpOp::Eq,
        BranchOp::Bne | BranchOp::Fbne => CmpOp::Ne,
        BranchOp::Blt | BranchOp::Fblt => CmpOp::Lt,
        BranchOp::Ble | BranchOp::Fble => CmpOp::Le,
        BranchOp::Bgt | BranchOp::Fbgt => CmpOp::Gt,
        BranchOp::Bge | BranchOp::Fbge => CmpOp::Ge,
    }
}

struct IntervalAnalysis<'a> {
    func: &'a Function,
    /// Blocks that are the target of an RPO retreating edge — the widening
    /// points. Covers every natural-loop header and any irreducible cycle
    /// entry, so chaotic iteration terminates.
    widen_at: Vec<bool>,
}

impl IntervalAnalysis<'_> {
    /// The position (insn index) of the compare materialising the branch
    /// flag, when the through-flag refinement is valid: the compare must be
    /// the *last* def of the flag and neither compared register may be
    /// redefined afterwards.
    fn flag_compare_valid(&self, block: BlockId) -> bool {
        let bb = self.func.block(block);
        let Terminator::CondBranch { rs, rt: None, .. } = &bb.term else {
            return false;
        };
        let Some(def_pos) = bb.insns.iter().rposition(|i| i.def() == Some(*rs)) else {
            return false;
        };
        let (lhs, rhs_reg) = match &bb.insns[def_pos] {
            Insn::Cmp { a, b, .. } => (*a, Some(*b)),
            Insn::CmpImm { a, .. } => (*a, None),
            _ => return false,
        };
        bb.insns[def_pos + 1..]
            .iter()
            .all(|i| i.def() != Some(lhs) && rhs_reg.is_none_or(|r| i.def() != Some(r)))
    }
}

impl Analysis for IntervalAnalysis<'_> {
    type State = Vec<Interval>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Vec<Interval> {
        // Registers are zero-initialised; parameters are unknown.
        let mut s = vec![Interval::constant(0); self.func.num_regs as usize];
        for p in &self.func.params {
            s[p.index()] = FULL;
        }
        s
    }

    fn join(&self, into: &mut Vec<Interval>, from: &Vec<Interval>) {
        for (a, b) in into.iter_mut().zip(from) {
            *a = a.hull(*b);
        }
    }

    fn widen(&self, block: BlockId, old: &Vec<Interval>, new: Vec<Interval>) -> Vec<Interval> {
        if !self.widen_at[block.index()] {
            return new;
        }
        old.iter()
            .zip(new)
            .map(|(o, n)| Interval {
                lo: if n.lo < o.lo {
                    i64::MIN
                } else {
                    o.lo.min(n.lo)
                },
                hi: if n.hi > o.hi {
                    i64::MAX
                } else {
                    o.hi.max(n.hi)
                },
            })
            .collect()
    }

    fn transfer(&self, block: BlockId, s: &mut Vec<Interval>) {
        let bb = self.func.block(block);
        for insn in &bb.insns {
            match insn {
                Insn::Alu { op, dst, a, b } => {
                    let (a, b) = (s[a.index()], s[b.index()]);
                    s[dst.index()] = match op {
                        AluOp::Add => a.add(b),
                        AluOp::Sub => a.sub(b),
                        _ => FULL,
                    };
                }
                Insn::AluImm { op, dst, a, imm } => {
                    let (a, b) = (s[a.index()], Interval::constant(*imm));
                    s[dst.index()] = match op {
                        AluOp::Add => a.add(b),
                        AluOp::Sub => a.sub(b),
                        _ => FULL,
                    };
                }
                Insn::Cmp { op, dst, a, b } => {
                    s[dst.index()] = match compare(*op, s[a.index()], s[b.index()]) {
                        Some(r) => Interval::constant(r as i64),
                        None => Interval { lo: 0, hi: 1 },
                    };
                }
                Insn::CmpImm { op, dst, a, imm } => {
                    s[dst.index()] = match compare(*op, s[a.index()], Interval::constant(*imm)) {
                        Some(r) => Interval::constant(r as i64),
                        None => Interval { lo: 0, hi: 1 },
                    };
                }
                Insn::FCmp { dst, .. } => s[dst.index()] = Interval { lo: 0, hi: 1 },
                Insn::LoadImm { dst, imm } => s[dst.index()] = Interval::constant(*imm),
                Insn::Mov { dst, src } => s[dst.index()] = s[src.index()],
                Insn::CMov { c, dst, src } => {
                    let c = s[c.index()];
                    s[dst.index()] = if c.is_constant(0) {
                        s[dst.index()]
                    } else if c.lo > 0 || c.hi < 0 {
                        s[src.index()]
                    } else {
                        s[dst.index()].hull(s[src.index()])
                    };
                }
                // The heap starts with a reserved null slot, so every
                // allocation address is at least 1.
                Insn::Alloc { dst, .. } | Insn::AllocImm { dst, .. } => {
                    s[dst.index()] = Interval {
                        lo: 1,
                        hi: i64::MAX,
                    };
                }
                Insn::Fpu { dst, .. }
                | Insn::LoadFImm { dst, .. }
                | Insn::CvtFI { dst, .. }
                | Insn::CvtIF { dst, .. }
                | Insn::Load { dst, .. } => s[dst.index()] = FULL,
                Insn::Store { .. } => {}
            }
        }
        if let Terminator::Call { dst: Some(d), .. } = &bb.term {
            s[d.index()] = FULL;
        }
    }

    fn edge_state(&self, edge: &Edge, out: &Vec<Interval>) -> Option<Vec<Interval>> {
        let bb = self.func.block(edge.from);
        match &bb.term {
            Terminator::CondBranch { op, rs, rt, .. } => {
                let holds = match edge.kind {
                    EdgeKind::Taken => true,
                    EdgeKind::NotTaken => false,
                    _ => return Some(out.clone()),
                };
                let mut s = out.clone();
                if !op.is_float() {
                    // Direct refinement on the branch's own operands.
                    let cmp = if holds {
                        branch_cmp_op(*op)
                    } else {
                        branch_cmp_op(op.negate())
                    };
                    let rhs_itv = match rt {
                        Some(r) => s[r.index()],
                        None => Interval::constant(0),
                    };
                    let (l, r) = refine(cmp, s[rs.index()], rhs_itv)?;
                    s[rs.index()] = l;
                    if let Some(rt) = rt {
                        s[rt.index()] = r;
                    }
                    // Through-flag refinement: `cmp f, a, b; b{eq,ne} f`
                    // constrains a and b too, when nothing redefined them.
                    if rt.is_none() && self.flag_compare_valid(edge.from) {
                        if let Some(ec) = effective_compare(bb) {
                            if !ec.is_float && ec.lhs != *rs {
                                let cmp = if holds { ec.op } else { ec.op.negate() };
                                let rhs_itv = match ec.rhs {
                                    CompareRhs::Reg(r) => s[r.index()],
                                    CompareRhs::Imm(v) => Interval::constant(v),
                                };
                                let (l, r) = refine(cmp, s[ec.lhs.index()], rhs_itv)?;
                                s[ec.lhs.index()] = l;
                                if let CompareRhs::Reg(rr) = ec.rhs {
                                    s[rr.index()] = r;
                                }
                            }
                        }
                    }
                }
                Some(s)
            }
            Terminator::Switch { index, targets, .. } => {
                let idx = out[index.index()];
                let feasible = match edge.kind {
                    EdgeKind::SwitchCase(k) => {
                        idx.intersect(Interval::constant(k as i64)).is_some()
                    }
                    // The default fires for anything outside [0, len).
                    EdgeKind::SwitchDefault => idx.lo < 0 || idx.hi >= targets.len() as i64,
                    _ => true,
                };
                if !feasible {
                    return None;
                }
                let mut s = out.clone();
                if let EdgeKind::SwitchCase(k) = edge.kind {
                    s[index.index()] = Interval::constant(k as i64);
                }
                Some(s)
            }
            _ => Some(out.clone()),
        }
    }
}

/// The interval fixpoint of one function.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    solution: Solution<Vec<Interval>>,
    /// Per block: `Some(taken)` when the ending conditional branch is
    /// proved one-sided by ranges alone.
    pub decided: Vec<Option<bool>>,
}

impl IntervalOutcome {
    /// The interval of `reg` at the end of `b`, if `b` is feasible.
    pub fn range_at_exit(&self, b: BlockId, reg: Reg) -> Option<Interval> {
        self.solution.output[b.index()]
            .as_ref()
            .map(|s| s[reg.index()])
    }
}

/// Run the interval analysis over `func`.
pub fn interval_analysis(func: &Function, cfg: &Cfg) -> IntervalOutcome {
    let n = cfg.num_blocks();
    let rpo = cfg.reverse_postorder();
    let mut pos = vec![0usize; n];
    for (i, b) in rpo.iter().enumerate() {
        pos[b.index()] = i;
    }
    let mut widen_at = vec![false; n];
    for e in cfg.edges() {
        if pos[e.from.index()] >= pos[e.to.index()] {
            widen_at[e.to.index()] = true;
        }
    }
    let analysis = IntervalAnalysis { func, widen_at };
    let solution = solve(cfg, &analysis);
    let decided = (0..func.num_blocks())
        .map(|i| {
            let out = solution.output[i].as_ref()?;
            let Terminator::CondBranch { op, rs, rt, .. } = &func.block(BlockId(i as u32)).term
            else {
                return None;
            };
            if op.is_float() {
                return None;
            }
            let rhs = match rt {
                Some(r) => out[r.index()],
                None => Interval::constant(0),
            };
            compare(branch_cmp_op(*op), out[rs.index()], rhs)
        })
        .collect();
    IntervalOutcome { solution, decided }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::builder::FunctionBuilder;
    use esp_ir::Lang;

    /// i = 0; loop: i = i + 1; cmp t, i < 10; bne t -> loop, exit
    /// The loop guard itself is undecided, but inside the loop the bound
    /// `i <= 10` must hold after widening + edge refinement.
    #[test]
    fn induction_variable_bounded_by_loop_guard() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let i = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, i, 0);
        b.set_fallthrough(e, body);
        b.push_alu_imm(body, AluOp::Add, i, i, 1);
        b.push_cmp_imm(body, CmpOp::Lt, t, i, 10);
        b.set_cond_branch(body, BranchOp::Bne, t, None, body, exit);
        b.set_return(exit, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = interval_analysis(&f, &cfg);
        assert_eq!(out.decided[1], None, "loop guard is data dependent");
        // At loop exit, the not-taken refinement through the flag pins
        // i >= 10; i's upper bound was widened away.
        let at_exit = out.range_at_exit(BlockId(2), i).expect("exit feasible");
        assert!(
            at_exit.lo >= 10,
            "exit edge must refine i >= 10, got {at_exit:?}"
        );
    }

    #[test]
    fn allocation_results_are_nonnull() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let p = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let null = b.new_block();
        let ok = b.new_block();
        b.push(e, Insn::AllocImm { dst: p, words: 4 });
        b.push_cmp_imm(e, CmpOp::Eq, t, p, 0);
        b.set_cond_branch(e, BranchOp::Bne, t, None, null, ok);
        b.set_return(null, None);
        b.set_return(ok, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = interval_analysis(&f, &cfg);
        assert_eq!(out.decided[0], Some(false), "alloc result is never null");
        let r = out.range_at_exit(BlockId(0), p).unwrap();
        assert!(r.lo >= 1);
    }

    #[test]
    fn refine_is_sound_and_detects_empty() {
        let a = Interval { lo: 0, hi: 10 };
        let b = Interval { lo: 5, hi: 5 };
        let (l, _) = refine(CmpOp::Lt, a, b).unwrap();
        assert_eq!((l.lo, l.hi), (0, 4));
        assert!(refine(CmpOp::Lt, Interval::constant(7), b).is_none());
        let (l, _) = refine(CmpOp::Ne, Interval { lo: 0, hi: 3 }, Interval::constant(0)).unwrap();
        assert_eq!(l.lo, 1);
    }

    #[test]
    fn switch_cases_refine_and_prune() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let i = b.fresh_reg();
        let e = b.entry_block();
        let c0 = b.new_block();
        let c1 = b.new_block();
        let d = b.new_block();
        b.push_load_imm(e, i, 1);
        b.set_switch(e, i, vec![c0, c1], d);
        b.set_return(c0, None);
        b.set_return(c1, None);
        b.set_return(d, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = interval_analysis(&f, &cfg);
        assert!(out.range_at_exit(c0, i).is_none(), "case 0 infeasible");
        assert_eq!(out.range_at_exit(c1, i), Some(Interval::constant(1)));
        assert!(out.range_at_exit(d, i).is_none(), "default infeasible");
    }
}
