//! IR-level clean-up: code layout, jump threading, block merging and
//! unreachable-code removal.
//!
//! The layout pass runs for every compilation (the lowering phase creates
//! blocks in construction order, not code order); the others only at `-O1`,
//! mirroring how much CFG clean-up real compilers of the era did.

use esp_ir::{BasicBlock, BlockId, Function, Terminator};

/// Reorder blocks into natural code layout and normalise
/// jump/fall-through terminators.
///
/// Layout policy (the classic DFS placement compilers use): starting from the
/// entry, each block is followed by its preferred successor — the
/// fall-through arm of a conditional branch, the continuation of a call, the
/// target of an unconditional transfer — whenever that block is not yet
/// placed. Taken arms and switch cases are placed later. Afterwards every
/// unconditional transfer to the textually next block becomes a
/// [`Terminator::FallThrough`] and every other one a [`Terminator::Jump`],
/// so branch *direction* (Table 2, feature 2) is meaningful.
pub fn layout(func: &mut Function) {
    let n = func.blocks.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut stack: Vec<u32> = vec![0];
    while let Some(start) = stack.pop() {
        if placed[start as usize] {
            continue;
        }
        let mut b = start;
        loop {
            placed[b as usize] = true;
            order.push(b);
            let (pref, others): (Option<u32>, Vec<u32>) = match &func.blocks[b as usize].term {
                Terminator::FallThrough { target } | Terminator::Jump { target } => {
                    (Some(target.0), vec![])
                }
                Terminator::CondBranch {
                    taken, not_taken, ..
                } => (Some(not_taken.0), vec![taken.0]),
                Terminator::Call { next, .. } => (Some(next.0), vec![]),
                Terminator::Switch {
                    targets, default, ..
                } => (Some(default.0), targets.iter().map(|t| t.0).collect()),
                Terminator::Return { .. } => (None, vec![]),
            };
            for o in others.into_iter().rev() {
                if !placed[o as usize] {
                    stack.push(o);
                }
            }
            match pref {
                Some(p) if !placed[p as usize] => b = p,
                _ => break,
            }
        }
    }
    for i in 0..n as u32 {
        if !placed[i as usize] {
            order.push(i);
        }
    }

    let mut map = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        map[old as usize] = new as u32;
    }
    permute(func, &order, &map);
    normalize(func);
}

/// Apply a block permutation: `order[new] = old`, `map[old] = new`.
fn permute(func: &mut Function, order: &[u32], map: &[u32]) {
    let old_blocks = std::mem::take(&mut func.blocks);
    let mut slots: Vec<Option<BasicBlock>> = old_blocks.into_iter().map(Some).collect();
    func.blocks = order
        .iter()
        .map(|&old| slots[old as usize].take().expect("each block moved once"))
        .collect();
    for b in &mut func.blocks {
        retarget(&mut b.term, |t| BlockId(map[t.index()]));
    }
}

/// Rewrite every block target of a terminator.
fn retarget(term: &mut Terminator, f: impl Fn(BlockId) -> BlockId) {
    match term {
        Terminator::FallThrough { target } | Terminator::Jump { target } => *target = f(*target),
        Terminator::CondBranch {
            taken, not_taken, ..
        } => {
            *taken = f(*taken);
            *not_taken = f(*not_taken);
        }
        Terminator::Call { next, .. } => *next = f(*next),
        Terminator::Switch {
            targets, default, ..
        } => {
            for t in targets.iter_mut() {
                *t = f(*t);
            }
            *default = f(*default);
        }
        Terminator::Return { .. } => {}
    }
}

/// Convert unconditional transfers to the next block into fall-throughs and
/// all other fall-throughs into jumps.
fn normalize(func: &mut Function) {
    for i in 0..func.blocks.len() {
        let next = BlockId(i as u32 + 1);
        let term = &mut func.blocks[i].term;
        match term {
            Terminator::Jump { target } if *target == next => {
                *term = Terminator::FallThrough { target: next };
            }
            Terminator::FallThrough { target } if *target != next => {
                *term = Terminator::Jump { target: *target };
            }
            _ => {}
        }
    }
}

/// Redirect edges that point at empty unconditional blocks straight to their
/// final destination (jump threading). The emptied blocks become unreachable
/// and are removed by [`remove_unreachable`].
fn thread_jumps(func: &mut Function) {
    let n = func.blocks.len();
    // resolve(b): follow chains of empty jump blocks, with a cycle guard.
    let resolve = |start: BlockId, blocks: &[BasicBlock]| -> BlockId {
        let mut cur = start;
        for _ in 0..n {
            let b = &blocks[cur.index()];
            if !b.insns.is_empty() {
                return cur;
            }
            match b.term {
                Terminator::Jump { target } | Terminator::FallThrough { target }
                    if target != cur =>
                {
                    cur = target;
                }
                _ => return cur,
            }
        }
        start // cycle of empty blocks: leave as-is
    };
    let blocks_snapshot = func.blocks.clone();
    for b in &mut func.blocks {
        retarget(&mut b.term, |t| resolve(t, &blocks_snapshot));
    }
}

/// Merge each block into its unique predecessor when that predecessor ends
/// with an unconditional transfer to it (classic straightening).
fn merge_blocks(func: &mut Function) {
    loop {
        let n = func.blocks.len();
        let mut pred_count = vec![0usize; n];
        for b in &func.blocks {
            for s in b.term.successors() {
                pred_count[s.index()] += 1;
            }
        }
        let mut merged = false;
        for a in 0..n {
            let target = match func.blocks[a].term {
                Terminator::Jump { target } | Terminator::FallThrough { target } => target,
                _ => continue,
            };
            let t = target.index();
            if t == a || t == 0 || pred_count[t] != 1 {
                continue;
            }
            let victim = std::mem::replace(
                &mut func.blocks[t],
                BasicBlock {
                    insns: Vec::new(),
                    term: Terminator::Jump { target },
                },
            );
            func.blocks[a].insns.extend(victim.insns);
            func.blocks[a].term = victim.term;
            merged = true;
            break; // pred counts are stale; recompute
        }
        if !merged {
            return;
        }
    }
}

/// Drop blocks unreachable from the entry, compacting ids.
fn remove_unreachable(func: &mut Function) {
    let n = func.blocks.len();
    let mut reach = vec![false; n];
    let mut stack = vec![0u32];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reach[b as usize], true) {
            continue;
        }
        for s in func.blocks[b as usize].term.successors() {
            if !reach[s.index()] {
                stack.push(s.0);
            }
        }
    }
    if reach.iter().all(|r| *r) {
        return;
    }
    let mut map = vec![u32::MAX; n];
    let mut order = Vec::new();
    for (i, r) in reach.iter().enumerate() {
        if *r {
            map[i] = order.len() as u32;
            order.push(i as u32);
        }
    }
    let old_blocks = std::mem::take(&mut func.blocks);
    let mut slots: Vec<Option<BasicBlock>> = old_blocks.into_iter().map(Some).collect();
    func.blocks = order
        .iter()
        .map(|&old| slots[old as usize].take().expect("each block moved once"))
        .collect();
    for b in &mut func.blocks {
        retarget(&mut b.term, |t| BlockId(map[t.index()]));
    }
    normalize(func);
}

/// The full `-O1` clean-up pipeline: thread → merge → remove → layout.
pub fn cleanup(func: &mut Function) {
    thread_jumps(func);
    remove_unreachable(func);
    merge_blocks(func);
    remove_unreachable(func);
    layout(func);
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::{validate_function, BranchOp, FunctionBuilder, Lang, Reg};

    /// entry branches; arms jump through an empty trampoline to exit.
    fn with_trampoline() -> Function {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let tramp = b.new_block();
        let t = b.new_block();
        let f = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, c, 1);
        b.set_cond_branch(e, BranchOp::Bne, c, None, t, f);
        b.set_jump(tramp, exit);
        // t and f are non-empty so only the trampoline threads away.
        b.push_load_imm(t, c, 2);
        b.set_jump(t, tramp);
        b.push_load_imm(f, c, 3);
        b.set_jump(f, tramp);
        b.set_return(exit, None);
        b.finish()
    }

    #[test]
    fn threading_bypasses_empty_blocks() {
        let mut f = with_trampoline();
        thread_jumps(&mut f);
        // t and f now jump straight to exit
        assert_eq!(f.blocks[2].term, Terminator::Jump { target: BlockId(4) });
        assert_eq!(f.blocks[3].term, Terminator::Jump { target: BlockId(4) });
        remove_unreachable(&mut f);
        assert_eq!(f.blocks.len(), 4, "trampoline removed");
        validate_function(&f).unwrap();
    }

    #[test]
    fn layout_places_not_taken_arm_next() {
        // build out of order: entry(0) branch t=3 f=1 … after layout the
        // not-taken arm must directly follow the entry.
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let f_arm = b.new_block();
        let exit = b.new_block();
        let t_arm = b.new_block();
        b.push_load_imm(e, c, 1);
        b.set_cond_branch(e, BranchOp::Bne, c, None, t_arm, f_arm);
        b.set_jump(f_arm, exit);
        b.set_jump(t_arm, exit);
        b.set_return(exit, None);
        let mut f = b.finish();
        layout(&mut f);
        validate_function(&f).unwrap();
        match &f.blocks[0].term {
            Terminator::CondBranch { not_taken, .. } => assert_eq!(*not_taken, BlockId(1)),
            other => panic!("unexpected {other:?}"),
        }
        // the taken arm is placed after the fall-through chain
        assert!(matches!(
            f.blocks.last().expect("blocks nonempty").term,
            Terminator::Jump { .. }
        ));
        // and a return block still exists somewhere
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Return { .. })));
    }

    #[test]
    fn normalize_rewrites_adjacent_jumps() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let e = b.entry_block();
        let n1 = b.new_block();
        b.set_jump(e, n1);
        b.set_return(n1, None);
        let mut f = b.finish();
        layout(&mut f);
        assert_eq!(
            f.blocks[0].term,
            Terminator::FallThrough { target: BlockId(1) }
        );
    }

    #[test]
    fn merge_straightens_chains() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let r = b.fresh_reg();
        let e = b.entry_block();
        let mid = b.new_block();
        let end = b.new_block();
        b.push_load_imm(e, r, 1);
        b.set_jump(e, mid);
        b.push_load_imm(mid, r, 2);
        b.set_jump(mid, end);
        b.push_load_imm(end, r, 3);
        b.set_return(end, Some(r));
        let mut f = b.finish();
        merge_blocks(&mut f);
        remove_unreachable(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insns.len(), 3);
        validate_function(&f).unwrap();
    }

    #[test]
    fn cleanup_preserves_execution() {
        use esp_ir::{FuncId, Isa, Program};
        // loop summing 0..n then trampoline indirection
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let i = b.fresh_reg();
        let s = b.fresh_reg();
        let c = b.fresh_reg();
        let e = b.entry_block();
        let h = b.new_block();
        let body = b.new_block();
        let tramp = b.new_block();
        let x = b.new_block();
        b.push_load_imm(e, i, 0);
        b.push_load_imm(e, s, 0);
        b.set_jump(e, h);
        b.push_cmp_imm(h, esp_ir::CmpOp::Lt, c, i, 10);
        b.set_cond_branch(h, BranchOp::Bne, c, None, body, tramp);
        b.push_alu(body, esp_ir::AluOp::Add, s, s, i);
        b.push_alu_imm(body, esp_ir::AluOp::Add, i, i, 1);
        b.set_jump(body, h);
        b.set_jump(tramp, x);
        b.set_return(x, Some(s));
        let mut f = b.finish();
        cleanup(&mut f);
        validate_function(&f).unwrap();
        let prog = Program {
            name: "p".into(),
            funcs: vec![f],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        let out = esp_exec_run(&prog);
        assert_eq!(out, 45);
        let _ = Reg(0);
    }

    // tiny helper to avoid a dev-dependency cycle: esp-exec is a
    // dev-dependency of esp-lang
    fn esp_exec_run(prog: &esp_ir::Program) -> i64 {
        let out = esp_exec::run(prog, &esp_exec::ExecLimits::default()).expect("runs");
        match out.ret {
            Some(esp_exec::Value::Int(v)) => v,
            other => panic!("unexpected return {other:?}"),
        }
    }
}
