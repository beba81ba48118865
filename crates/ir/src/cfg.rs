//! Per-function control-flow graphs with labelled edges.

use crate::program::{BlockId, Function};
use crate::term::Terminator;

/// How an edge leaves its source block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Taken arm of a conditional branch.
    Taken,
    /// Fall-through arm of a conditional branch.
    NotTaken,
    /// Unconditional transfer (fall-through, jump, or return from a call
    /// terminator to its continuation).
    Uncond,
    /// Case `i` of a switch's jump table.
    SwitchCase(u32),
    /// Default arm of a switch.
    SwitchDefault,
}

/// A directed CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// How the edge leaves `from`.
    pub kind: EdgeKind,
}

/// Successor/predecessor structure of one [`Function`].
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<Edge>>,
    preds: Vec<Vec<Edge>>,
    reachable: Vec<bool>,
}

impl Cfg {
    /// Build the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (id, block) in func.iter_blocks() {
            let edges: Vec<Edge> = match &block.term {
                Terminator::FallThrough { target } | Terminator::Jump { target } => vec![Edge {
                    from: id,
                    to: *target,
                    kind: EdgeKind::Uncond,
                }],
                Terminator::CondBranch {
                    taken, not_taken, ..
                } => vec![
                    Edge {
                        from: id,
                        to: *taken,
                        kind: EdgeKind::Taken,
                    },
                    Edge {
                        from: id,
                        to: *not_taken,
                        kind: EdgeKind::NotTaken,
                    },
                ],
                Terminator::Call { next, .. } => vec![Edge {
                    from: id,
                    to: *next,
                    kind: EdgeKind::Uncond,
                }],
                Terminator::Switch {
                    targets, default, ..
                } => {
                    let mut v: Vec<Edge> = targets
                        .iter()
                        .enumerate()
                        .map(|(i, t)| Edge {
                            from: id,
                            to: *t,
                            kind: EdgeKind::SwitchCase(i as u32),
                        })
                        .collect();
                    v.push(Edge {
                        from: id,
                        to: *default,
                        kind: EdgeKind::SwitchDefault,
                    });
                    v
                }
                Terminator::Return { .. } => vec![],
            };
            for e in &edges {
                preds[e.to.index()].push(*e);
            }
            succs[id.index()] = edges;
        }

        // Depth-first reachability from the entry block.
        let mut reachable = vec![false; n];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b.index()], true) {
                continue;
            }
            for e in &succs[b.index()] {
                if !reachable[e.to.index()] {
                    stack.push(e.to);
                }
            }
        }

        Cfg {
            succs,
            preds,
            reachable,
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succs.len()
    }

    /// Outgoing edges of `b`, in terminator order (taken edge first for
    /// conditional branches).
    pub fn succs(&self, b: BlockId) -> &[Edge] {
        &self.succs[b.index()]
    }

    /// Incoming edges of `b`.
    pub fn preds(&self, b: BlockId) -> &[Edge] {
        &self.preds[b.index()]
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable[b.index()]
    }

    /// All edges of the graph, grouped by source block.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.succs.iter().flatten()
    }

    /// Blocks in reverse postorder of a depth-first traversal from the entry.
    ///
    /// Unreachable blocks are appended at the end in index order so that every
    /// block receives a position.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.num_blocks();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS computing postorder.
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < self.succs[b.index()].len() {
                let next = self.succs[b.index()][*i].to;
                *i += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                post.push(BlockId(i as u32));
            }
        }
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::Lang;
    use crate::program::Reg;
    use crate::term::BranchOp;

    /// diamond: e -> (t | n) -> x
    fn diamond() -> Function {
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
        b.finish()
    }

    use crate::program::Function;

    #[test]
    fn diamond_edges() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)).len(), 2);
        assert_eq!(cfg.succs(BlockId(0))[0].kind, EdgeKind::Taken);
        assert_eq!(cfg.succs(BlockId(0))[1].kind, EdgeKind::NotTaken);
        assert_eq!(cfg.preds(BlockId(3)).len(), 2);
        assert_eq!(cfg.edges().count(), 4);
        assert!(cfg.is_reachable(BlockId(3)));
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_is_a_permutation() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0));
        let mut seen = vec![false; f.num_blocks()];
        for b in &rpo {
            assert!(!seen[b.index()], "duplicate block in RPO");
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
        // exit comes after both arms
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_reported() {
        let mut b = FunctionBuilder::new("u", 0, Lang::C);
        let e = b.entry_block();
        let dead = b.new_block();
        b.set_return(e, None);
        b.set_return(dead, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
        // RPO still contains the unreachable block (at the end).
        assert_eq!(cfg.reverse_postorder().len(), 2);
    }

    #[test]
    fn switch_edges_enumerate_cases() {
        let mut b = FunctionBuilder::new("s", 0, Lang::C);
        let i = b.fresh_reg();
        let e = b.entry_block();
        let c0 = b.new_block();
        let c1 = b.new_block();
        let d = b.new_block();
        b.push_load_imm(e, i, 0);
        b.set_switch(e, i, vec![c0, c1], d);
        b.set_return(c0, None);
        b.set_return(c1, None);
        b.set_return(d, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let kinds: Vec<EdgeKind> = cfg.succs(BlockId(0)).iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EdgeKind::SwitchCase(0),
                EdgeKind::SwitchCase(1),
                EdgeKind::SwitchDefault
            ]
        );
        let _ = Reg(0);
    }
}
