//! Backward register liveness and dead-definition detection.
//!
//! A register is live at a point when some path from that point reads it
//! before redefining it. The analysis runs on the generic solver in
//! [`Direction::Backward`](crate::solver::Direction): the solver's `input`
//! is each block's live-*out* set and its `output` the live-*in* set.
//!
//! [`dead_defs`] replays each block against its live-out set to find
//! instruction-level definitions whose value is never read — the linter's
//! dead-store diagnostic. `CMov` is handled soundly for free because its
//! `uses()` include the destination (a conditional move reads the old value
//! when the condition is zero).

use esp_ir::cfg::{Cfg, Edge};
use esp_ir::term::Terminator;
use esp_ir::{BlockId, Function, Reg};

use crate::solver::{solve, Analysis, Direction, Solution};

struct Liveness<'a> {
    func: &'a Function,
}

impl Analysis for Liveness<'_> {
    type State = Vec<bool>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> Vec<bool> {
        vec![false; self.func.num_regs as usize]
    }

    fn join(&self, into: &mut Vec<bool>, from: &Vec<bool>) {
        for (a, b) in into.iter_mut().zip(from) {
            *a |= *b;
        }
    }

    fn edge_state(&self, _edge: &Edge, out: &Vec<bool>) -> Option<Vec<bool>> {
        Some(out.clone())
    }

    fn transfer(&self, block: BlockId, live: &mut Vec<bool>) {
        let bb = self.func.block(block);
        if let Terminator::Call { dst: Some(d), .. } = &bb.term {
            live[d.index()] = false;
        }
        for u in bb.term.uses() {
            live[u.index()] = true;
        }
        for insn in bb.insns.iter().rev() {
            if let Some(d) = insn.def() {
                live[d.index()] = false;
            }
            for u in insn.uses() {
                live[u.index()] = true;
            }
        }
    }
}

/// Compute liveness for `func`: `input[b]` is block `b`'s live-out set,
/// `output[b]` its live-in set (both indexed by register).
pub fn liveness(func: &Function, cfg: &Cfg) -> Solution<Vec<bool>> {
    solve(cfg, &Liveness { func })
}

/// An instruction whose register definition is never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadDef {
    /// Block containing the dead definition.
    pub block: BlockId,
    /// Instruction index within the block.
    pub insn: usize,
    /// The register whose value is dead.
    pub reg: Reg,
}

/// Find instruction definitions that no later read observes. Blocks whose
/// live-out is unknown (no path to an exit) are skipped — a store on a path
/// that never returns is not evidence of anything.
pub fn dead_defs(func: &Function, sol: &Solution<Vec<bool>>) -> Vec<DeadDef> {
    let mut out = Vec::new();
    for bi in 0..func.num_blocks() {
        let Some(live_out) = &sol.input[bi] else {
            continue;
        };
        let block = BlockId(bi as u32);
        let bb = func.block(block);
        let mut live = live_out.clone();
        if let Terminator::Call { dst: Some(d), .. } = &bb.term {
            live[d.index()] = false;
        }
        for u in bb.term.uses() {
            live[u.index()] = true;
        }
        for (idx, insn) in bb.insns.iter().enumerate().rev() {
            if let Some(d) = insn.def() {
                if !live[d.index()] {
                    out.push(DeadDef {
                        block,
                        insn: idx,
                        reg: d,
                    });
                }
                live[d.index()] = false;
            }
            for u in insn.uses() {
                live[u.index()] = true;
            }
        }
    }
    out.sort_by_key(|d| (d.block.0, d.insn));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::builder::FunctionBuilder;
    use esp_ir::insn::AluOp;
    use esp_ir::Lang;

    #[test]
    fn overwritten_def_is_dead_final_def_is_not() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let r = b.fresh_reg();
        let e = b.entry_block();
        b.push_load_imm(e, r, 1); // dead: overwritten below
        b.push_load_imm(e, r, 2); // live: returned
        b.set_return(e, Some(r));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dead = dead_defs(&f, &liveness(&f, &cfg));
        assert_eq!(
            dead,
            vec![DeadDef {
                block: BlockId(0),
                insn: 0,
                reg: r
            }]
        );
    }

    #[test]
    fn value_live_across_blocks_is_not_dead() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let r = b.fresh_reg();
        let s = b.fresh_reg();
        let e = b.entry_block();
        let x = b.new_block();
        b.push_load_imm(e, r, 7);
        b.set_fallthrough(e, x);
        b.push_alu_imm(x, AluOp::Add, s, r, 1);
        b.set_return(x, Some(s));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dead = dead_defs(&f, &liveness(&f, &cfg));
        assert!(dead.is_empty(), "got {dead:?}");
    }

    #[test]
    fn cmov_keeps_prior_def_alive() {
        let mut b = FunctionBuilder::new("t", 1, Lang::C);
        let c = esp_ir::Reg(0); // param: condition
        let r = b.fresh_reg();
        let s = b.fresh_reg();
        let e = b.entry_block();
        b.push_load_imm(e, r, 1); // NOT dead: CMov may keep it
        b.push_load_imm(e, s, 2);
        b.push(e, esp_ir::insn::Insn::CMov { c, dst: r, src: s });
        b.set_return(e, Some(r));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dead = dead_defs(&f, &liveness(&f, &cfg));
        assert!(dead.is_empty(), "got {dead:?}");
    }
}
