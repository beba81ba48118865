//! Dominator and post-dominator trees.
//!
//! Implemented with the Cooper–Harvey–Kennedy iterative algorithm ("A Simple,
//! Fast Dominance Algorithm"), which is easily fast enough for the block
//! counts in this study and is straightforward to verify against the naive
//! set-based definition (see the property tests).

use crate::cfg::Cfg;
use crate::program::BlockId;

const UNDEF: u32 = u32::MAX;

/// A dominator tree over one function's CFG (forward = dominators,
/// reverse = post-dominators).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block; `UNDEF` for roots and unreachable
    /// blocks.
    idom: Vec<u32>,
    /// Depth in the dominator tree (roots have depth 0).
    depth: Vec<u32>,
    /// Whether the block participates (is reachable in the traversal
    /// direction).
    covered: Vec<bool>,
}

/// Build adjacency in the traversal direction from an edge list.
///
/// Multiple roots (the post-dominator case: one per exit block) are joined
/// under a *virtual root* at index `n`; without it the Cooper–Harvey–Kennedy
/// `intersect` walk cannot converge between two different root trees (the
/// chains would cycle at the self-rooted exits forever).
fn compute(n: usize, roots: &[usize], edges: &[(usize, usize)]) -> DomTree {
    let vroot = n; // the virtual super-root
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        succ[u].push(v);
        pred[v].push(u);
    }

    // Reverse postorder from the roots; the virtual root gets number 0 and
    // every real node numbers from 1.
    let mut visited = vec![false; n];
    let mut post: Vec<usize> = Vec::with_capacity(n);
    for &r in roots {
        if visited[r] {
            continue;
        }
        visited[r] = true;
        let mut stack: Vec<(usize, usize)> = vec![(r, 0)];
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succ[b].len() {
                let nx = succ[b][*i];
                *i += 1;
                if !visited[nx] {
                    visited[nx] = true;
                    stack.push((nx, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
    }
    let mut rpo = post;
    rpo.reverse();
    let mut rpo_num = vec![UNDEF; n + 1];
    rpo_num[vroot] = 0;
    for (i, &b) in rpo.iter().enumerate() {
        rpo_num[b] = i as u32 + 1;
    }

    let mut idom = vec![UNDEF; n + 1];
    idom[vroot] = vroot as u32;
    for &r in roots {
        idom[r] = vroot as u32;
    }

    let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while rpo_num[a as usize] > rpo_num[b as usize] {
                a = idom[a as usize];
            }
            while rpo_num[b as usize] > rpo_num[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };

    let is_root = {
        let mut m = vec![false; n];
        for &r in roots {
            m[r] = true;
        }
        m
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if is_root[b] {
                continue;
            }
            let mut new_idom = UNDEF;
            for &p in &pred[b] {
                if idom[p] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p as u32
                } else {
                    intersect(&idom, new_idom, p as u32)
                };
            }
            if new_idom != UNDEF && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    // Depths before erasing the virtual root (roots sit at depth 1, which
    // only matters relatively for the `dominates` climb).
    let mut depth = vec![0u32; n + 1];
    for &b in &rpo {
        if idom[b] != UNDEF {
            depth[b] = depth[idom[b] as usize] + 1;
        }
    }

    // Erase the virtual root from the public view.
    for x in idom.iter_mut() {
        if *x == vroot as u32 {
            *x = UNDEF;
        }
    }
    idom.truncate(n);
    depth.truncate(n);

    DomTree {
        idom,
        depth,
        covered: visited,
    }
}

impl DomTree {
    /// The dominator tree of `cfg` (rooted at the entry block).
    pub fn dominators(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let edges: Vec<(usize, usize)> = cfg
            .edges()
            .map(|e| (e.from.index(), e.to.index()))
            .collect();
        compute(n, &[0], &edges)
    }

    /// The post-dominator tree of `cfg` (rooted at the set of exit blocks,
    /// i.e. blocks with no successors).
    ///
    /// Blocks that cannot reach any exit (infinite loops) are uncovered:
    /// [`DomTree::dominates`] returns `false` for them except on identity.
    pub fn postdominators(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let edges: Vec<(usize, usize)> = cfg
            .edges()
            .map(|e| (e.to.index(), e.from.index()))
            .collect();
        let roots: Vec<usize> = (0..n)
            .filter(|&b| cfg.succs(BlockId(b as u32)).is_empty())
            .collect();
        compute(n, &roots, &edges)
    }

    /// Immediate dominator of `b`, or `None` for roots and uncovered blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let v = self.idom[b.index()];
        (v != UNDEF).then_some(BlockId(v))
    }

    /// Whether `a` dominates `b` (reflexively: every block dominates itself).
    ///
    /// For a post-dominator tree this reads "a post-dominates b".
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.covered[a.index()] || !self.covered[b.index()] {
            return false;
        }
        let target = a.0;
        let mut cur = b.0;
        while self.depth[cur as usize] > self.depth[target as usize] {
            cur = self.idom[cur as usize];
            if cur == UNDEF {
                return false;
            }
        }
        cur == target
    }

    /// Depth of `b` in the tree (roots at depth 0).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{Function, Lang};
    use crate::term::BranchOp;

    /// e(0) -> h(1); h -> body(2) | exit(3); body -> h
    fn simple_loop() -> Function {
        let mut b = FunctionBuilder::new("l", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let h = b.new_block();
        let body = b.new_block();
        let x = b.new_block();
        b.push_load_imm(e, c, 0);
        b.set_fallthrough(e, h);
        b.set_cond_branch(h, BranchOp::Bne, c, None, body, x);
        b.set_jump(body, h);
        b.set_return(x, None);
        b.finish()
    }

    #[test]
    fn loop_dominators() {
        let f = simple_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(1)));
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(1)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn loop_postdominators() {
        let f = simple_loop();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::postdominators(&cfg);
        // exit (3) post-dominates everything
        for b in 0..4 {
            assert!(pdom.dominates(BlockId(3), BlockId(b)), "exit pdom b{b}");
        }
        // loop head (1) post-dominates entry and body
        assert!(pdom.dominates(BlockId(1), BlockId(0)));
        assert!(pdom.dominates(BlockId(1), BlockId(2)));
        // body does not post-dominate the head
        assert!(!pdom.dominates(BlockId(2), BlockId(1)));
    }

    #[test]
    fn diamond_neither_arm_postdominates() {
        let mut b = FunctionBuilder::new("d", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let t = b.new_block();
        let n = b.new_block();
        let x = b.new_block();
        b.push_load_imm(e, c, 1);
        b.set_cond_branch(e, BranchOp::Bne, c, None, t, n);
        b.set_jump(t, x);
        b.set_fallthrough(n, x);
        b.set_return(x, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::postdominators(&cfg);
        assert!(dom.dominates(BlockId(0), BlockId(1)));
        assert!(dom.dominates(BlockId(0), BlockId(2)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!pdom.dominates(BlockId(1), BlockId(0)));
        assert!(!pdom.dominates(BlockId(2), BlockId(0)));
        assert!(pdom.dominates(BlockId(3), BlockId(0)));
    }

    #[test]
    fn infinite_loop_is_uncovered_by_postdom() {
        // entry -> spin; spin -> spin  (no exits reachable from spin)
        let mut b = FunctionBuilder::new("inf", 0, Lang::C);
        let e = b.entry_block();
        let spin = b.new_block();
        b.set_fallthrough(e, spin);
        b.set_jump(spin, spin);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::postdominators(&cfg);
        assert!(!pdom.dominates(BlockId(0), BlockId(1)));
        assert!(
            pdom.dominates(BlockId(1), BlockId(1)),
            "identity still holds"
        );
    }
}
