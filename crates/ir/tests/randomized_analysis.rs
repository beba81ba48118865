//! Randomized tests for the CFG analyses: dominators checked against the
//! naive set-based definition, post-dominator duality, RPO validity, and
//! natural-loop invariants — all over randomly generated CFGs drawn from the
//! in-tree seeded PCG32 stream (so every run explores the same cases).

use esp_ir::{BlockId, BranchOp, Cfg, DomTree, FunctionBuilder, Lang, LoopInfo, Reg, Terminator};
use esp_runtime::Pcg32;

const CASES: u64 = 64;

/// A compact description of a random CFG: per block, a terminator shape and
/// target indices (taken modulo the block count at build time).
#[derive(Debug, Clone)]
enum TermShape {
    Jump(usize),
    Cond(usize, usize),
    Ret,
}

/// Weighted like the old proptest strategy: 3 Cond : 2 Jump : 1 Ret.
fn random_shapes(rng: &mut Pcg32) -> Vec<TermShape> {
    let n = rng.gen_range(1..14usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6u32) {
            0..=2 => TermShape::Cond(rng.gen_range(0..64usize), rng.gen_range(0..64usize)),
            3..=4 => TermShape::Jump(rng.gen_range(0..64usize)),
            _ => TermShape::Ret,
        })
        .collect()
}

fn random_function(shapes: Vec<TermShape>) -> esp_ir::Function {
    let n = shapes.len().max(1);
    let mut b = FunctionBuilder::new("rand", 0, Lang::C);
    let r = b.fresh_reg();
    for _ in 1..n {
        b.new_block();
    }
    b.push_load_imm(BlockId(0), r, 1);
    for (i, shape) in shapes.iter().enumerate().take(n) {
        let id = BlockId(i as u32);
        match shape {
            TermShape::Jump(t) => b.set_jump(id, BlockId((t % n) as u32)),
            TermShape::Cond(t, f) => b.set_cond_branch(
                id,
                BranchOp::Bne,
                r,
                None,
                BlockId((t % n) as u32),
                BlockId((f % n) as u32),
            ),
            TermShape::Ret => b.set_return(id, None),
        }
    }
    b.finish()
}

/// Run `check` over `CASES` random CFGs, one seeded stream per case so a
/// failure report pinpoints the reproducing seed.
fn for_random_cfgs(base_seed: u64, mut check: impl FnMut(&Cfg)) {
    for case in 0..CASES {
        let seed = base_seed.wrapping_add(case);
        let mut rng = Pcg32::seed_from_u64(seed);
        let f = random_function(random_shapes(&mut rng));
        let cfg = Cfg::new(&f);
        check(&cfg);
    }
}

/// Naive dominance: `a` dominates `b` iff `b` is reachable and removing `a`
/// makes `b` unreachable from the entry (or `a == b`).
fn naive_dominates(cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
    if a == b {
        return true;
    }
    if !cfg.is_reachable(b) {
        return false;
    }
    // BFS from entry avoiding `a`.
    let mut seen = vec![false; cfg.num_blocks()];
    let mut stack = vec![BlockId(0)];
    if a == BlockId(0) {
        return true; // entry dominates everything reachable
    }
    seen[0] = true;
    while let Some(x) = stack.pop() {
        for e in cfg.succs(x) {
            if e.to != a && !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    !seen[b.index()]
}

#[test]
fn dominators_match_naive_definition() {
    for_random_cfgs(0xD011, |cfg| {
        let dom = DomTree::dominators(cfg);
        let n = cfg.num_blocks();
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (BlockId(a as u32), BlockId(b as u32));
                if !cfg.is_reachable(b) {
                    continue; // dominance undefined off the reachable region
                }
                assert_eq!(
                    dom.dominates(a, b),
                    naive_dominates(cfg, a, b),
                    "a={a} b={b}"
                );
            }
        }
    });
}

#[test]
fn rpo_is_a_permutation_with_entry_first() {
    for_random_cfgs(0x4290, |cfg| {
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), cfg.num_blocks());
        assert_eq!(rpo[0], BlockId(0));
        let mut seen = vec![false; cfg.num_blocks()];
        for b in &rpo {
            assert!(!seen[b.index()]);
            seen[b.index()] = true;
        }
    });
}

#[test]
fn back_edges_iff_target_dominates_source() {
    for_random_cfgs(0xBACC, |cfg| {
        let dom = DomTree::dominators(cfg);
        let loops = LoopInfo::new(cfg, &dom);
        for e in cfg.edges() {
            let expected = cfg.is_reachable(e.from) && dom.dominates(e.to, e.from);
            assert_eq!(
                loops.is_back_edge(e.from, e.to),
                expected,
                "edge {} -> {}",
                e.from,
                e.to
            );
        }
    });
}

#[test]
fn loop_headers_dominate_their_bodies() {
    for_random_cfgs(0x100f, |cfg| {
        let dom = DomTree::dominators(cfg);
        let loops = LoopInfo::new(cfg, &dom);
        for l in loops.loops() {
            for i in 0..cfg.num_blocks() {
                let b = BlockId(i as u32);
                if l.contains(b) {
                    assert!(
                        dom.dominates(l.header, b),
                        "header {} must dominate body block {b}",
                        l.header
                    );
                }
            }
            // latches are body members carrying the back edge
            for latch in &l.latches {
                assert!(l.contains(*latch));
                assert!(loops.is_back_edge(*latch, l.header));
            }
        }
    });
}

#[test]
fn postdominators_respect_exit_reachability() {
    for_random_cfgs(0x9d03, |cfg| {
        let pdom = DomTree::postdominators(cfg);
        // every exit block post-dominates itself and nothing it can't reach
        for i in 0..cfg.num_blocks() {
            let b = BlockId(i as u32);
            assert!(pdom.dominates(b, b));
            if cfg.succs(b).is_empty() {
                // an exit can only be post-dominated by itself
                for j in 0..cfg.num_blocks() {
                    let a = BlockId(j as u32);
                    if a != b {
                        assert!(!pdom.dominates(a, b), "{a} pdom exit {b}");
                    }
                }
            }
        }
    });
}

#[test]
fn exit_edges_leave_some_loop() {
    for_random_cfgs(0xE817, |cfg| {
        let dom = DomTree::dominators(cfg);
        let loops = LoopInfo::new(cfg, &dom);
        for e in cfg.edges() {
            let expected = loops
                .loops()
                .iter()
                .any(|l| l.contains(e.from) && !l.contains(e.to));
            assert_eq!(loops.is_exit_edge(e.from, e.to), expected);
        }
    });
}

#[test]
fn terminator_successors_are_consistent_with_cfg() {
    // cheap determinism check reused by the randomized harness
    let f = random_function(vec![
        TermShape::Cond(1, 2),
        TermShape::Jump(0),
        TermShape::Ret,
    ]);
    let cfg = Cfg::new(&f);
    for (id, block) in f.iter_blocks() {
        let succs: Vec<BlockId> = cfg.succs(id).iter().map(|e| e.to).collect();
        assert_eq!(succs, block.term.successors());
    }
    let _ = (Reg(0), Terminator::Return { value: None });
}
