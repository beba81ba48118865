//! Natural-loop analysis, following the definition Ball & Larus (and this
//! paper) use: a *back edge* is an edge `u → v` where `v` dominates `u`; the
//! natural loop of a header `v` is `v` plus every block that can reach a back
//! edge's tail without passing through `v`.

use std::collections::HashSet;

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::program::BlockId;

/// One natural loop (back edges sharing a header are merged).
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header.
    pub header: BlockId,
    /// Membership bitset indexed by block.
    pub body: Vec<bool>,
    /// Tails of the back edges into `header`.
    pub latches: Vec<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to the loop body (headers are members).
    pub fn contains(&self, b: BlockId) -> bool {
        self.body[b.index()]
    }

    /// Number of blocks in the body.
    pub fn len(&self) -> usize {
        self.body.iter().filter(|m| **m).count()
    }

    /// Whether the loop body is empty (never true for well-formed loops).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Loop structure of one function.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    loops: Vec<Loop>,
    is_header: Vec<bool>,
    in_any_loop: Vec<bool>,
    back_edges: HashSet<(u32, u32)>,
    exit_edges: HashSet<(u32, u32)>,
    leads_to_header: Vec<bool>,
}

impl LoopInfo {
    /// Analyse the natural loops of `cfg` given its dominator tree.
    pub fn new(cfg: &Cfg, dom: &DomTree) -> Self {
        let n = cfg.num_blocks();

        // 1. Find back edges (only from blocks reachable from the entry).
        let mut back_edges: HashSet<(u32, u32)> = HashSet::new();
        for e in cfg.edges() {
            if cfg.is_reachable(e.from) && dom.dominates(e.to, e.from) {
                back_edges.insert((e.from.0, e.to.0));
            }
        }

        // 2. Natural loop bodies, merging back edges by header.
        let mut headers: Vec<BlockId> = back_edges
            .iter()
            .map(|&(_, h)| BlockId(h))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        headers.sort();

        let mut loops = Vec::with_capacity(headers.len());
        for header in headers {
            let mut body = vec![false; n];
            body[header.index()] = true;
            let mut latches = Vec::new();
            let mut stack = Vec::new();
            for &(u, h) in &back_edges {
                if h == header.0 {
                    latches.push(BlockId(u));
                    if !body[u as usize] {
                        body[u as usize] = true;
                        stack.push(BlockId(u));
                    }
                }
            }
            while let Some(b) = stack.pop() {
                for e in cfg.preds(b) {
                    if !body[e.from.index()] && cfg.is_reachable(e.from) {
                        body[e.from.index()] = true;
                        stack.push(e.from);
                    }
                }
            }
            latches.sort();
            loops.push(Loop {
                header,
                body,
                latches,
            });
        }

        // 3. Derived per-block and per-edge facts.
        let mut is_header = vec![false; n];
        let mut in_any_loop = vec![false; n];
        for l in &loops {
            is_header[l.header.index()] = true;
            for (i, m) in l.body.iter().enumerate() {
                if *m {
                    in_any_loop[i] = true;
                }
            }
        }

        let mut exit_edges: HashSet<(u32, u32)> = HashSet::new();
        for e in cfg.edges() {
            for l in &loops {
                if l.contains(e.from) && !l.contains(e.to) {
                    exit_edges.insert((e.from.0, e.to.0));
                }
            }
        }

        // 4. "Is a loop header or unconditionally passes control to one"
        //    (Table 2, feature 12): follow sole-successor chains with a cycle
        //    guard.
        let mut leads_to_header = vec![false; n];
        for (b, leads) in leads_to_header.iter_mut().enumerate() {
            let mut cur = BlockId(b as u32);
            let mut steps = 0usize;
            loop {
                if is_header[cur.index()] {
                    *leads = true;
                    break;
                }
                let succs = cfg.succs(cur);
                if succs.len() != 1 || steps > n {
                    break;
                }
                if succs[0].kind != crate::cfg::EdgeKind::Uncond {
                    break;
                }
                cur = succs[0].to;
                steps += 1;
            }
        }

        LoopInfo {
            loops,
            is_header,
            in_any_loop,
            back_edges,
            exit_edges,
            leads_to_header,
        }
    }

    /// The discovered loops, ordered by header block index.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Whether `b` is a natural-loop header.
    pub fn is_header(&self, b: BlockId) -> bool {
        self.is_header[b.index()]
    }

    /// Whether `b` belongs to the body of any loop.
    pub fn in_loop(&self, b: BlockId) -> bool {
        self.in_any_loop[b.index()]
    }

    /// Whether the edge `from → to` is a loop back edge.
    pub fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.back_edges.contains(&(from.0, to.0))
    }

    /// Whether the edge `from → to` exits some loop (source inside the body,
    /// destination outside it).
    pub fn is_exit_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.exit_edges.contains(&(from.0, to.0))
    }

    /// Whether `b` is a loop header or unconditionally passes control to a
    /// loop header (Table 2, feature 12 / the Loop Header heuristic's
    /// pre-header case).
    pub fn leads_to_header(&self, b: BlockId) -> bool {
        self.leads_to_header[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{Function, Lang};
    use crate::term::BranchOp;

    /// entry(0) -> pre(1) -> head(2); head -> body(3)|exit(4); body -> head
    fn loop_with_preheader() -> Function {
        let mut b = FunctionBuilder::new("l", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let pre = b.new_block();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, c, 0);
        b.set_fallthrough(e, pre);
        b.set_jump(pre, head);
        b.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
        b.set_jump(body, head);
        b.set_return(exit, None);
        b.finish()
    }

    fn analyse(f: &Function) -> (Cfg, LoopInfo) {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(&cfg);
        let li = LoopInfo::new(&cfg, &dom);
        (cfg, li)
    }

    #[test]
    fn finds_single_loop() {
        let f = loop_with_preheader();
        let (_, li) = analyse(&f);
        assert_eq!(li.loops().len(), 1);
        let l = &li.loops()[0];
        assert_eq!(l.header, BlockId(2));
        assert!(l.contains(BlockId(2)));
        assert!(l.contains(BlockId(3)));
        assert!(!l.contains(BlockId(1)));
        assert_eq!(l.latches, vec![BlockId(3)]);
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
    }

    #[test]
    fn edge_classification() {
        let f = loop_with_preheader();
        let (_, li) = analyse(&f);
        assert!(li.is_back_edge(BlockId(3), BlockId(2)));
        assert!(!li.is_back_edge(BlockId(1), BlockId(2)));
        assert!(li.is_exit_edge(BlockId(2), BlockId(4)));
        assert!(!li.is_exit_edge(BlockId(2), BlockId(3)));
        assert!(li.is_header(BlockId(2)));
        assert!(li.in_loop(BlockId(3)));
        assert!(!li.in_loop(BlockId(4)));
    }

    #[test]
    fn preheader_leads_to_header() {
        let f = loop_with_preheader();
        let (_, li) = analyse(&f);
        assert!(li.leads_to_header(BlockId(2)), "header itself");
        assert!(li.leads_to_header(BlockId(1)), "direct pre-header");
        assert!(li.leads_to_header(BlockId(0)), "chain of unconditionals");
        assert!(!li.leads_to_header(BlockId(4)), "exit block");
    }

    #[test]
    fn nested_loops_share_blocks() {
        // entry(0)->oh(1); oh-> ih(2)|exit(5); ih-> ib(3)|olatch(4);
        // ib->ih; olatch->oh
        let mut b = FunctionBuilder::new("nest", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let oh = b.new_block();
        let ih = b.new_block();
        let ib = b.new_block();
        let ol = b.new_block();
        let x = b.new_block();
        b.push_load_imm(e, c, 0);
        b.set_fallthrough(e, oh);
        b.set_cond_branch(oh, BranchOp::Bne, c, None, ih, x);
        b.set_cond_branch(ih, BranchOp::Beq, c, None, ib, ol);
        b.set_jump(ib, ih);
        b.set_jump(ol, oh);
        let f = {
            b.set_return(x, None);
            b.finish()
        };
        let (_, li) = analyse(&f);
        assert_eq!(li.loops().len(), 2);
        let outer = li.loops().iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = li.loops().iter().find(|l| l.header == BlockId(2)).unwrap();
        assert!(
            outer.contains(BlockId(2)) && outer.contains(BlockId(3)) && outer.contains(BlockId(4))
        );
        assert!(inner.contains(BlockId(3)));
        assert!(!inner.contains(BlockId(4)), "outer latch not in inner loop");
        assert!(li.is_back_edge(BlockId(4), BlockId(1)));
        assert!(li.is_back_edge(BlockId(3), BlockId(2)));
        // ih -> ol exits the inner loop while staying in the outer one.
        assert!(li.is_exit_edge(BlockId(2), BlockId(4)));
    }

    #[test]
    fn loopless_function_has_no_loops() {
        let mut b = FunctionBuilder::new("s", 0, Lang::C);
        let e = b.entry_block();
        b.set_return(e, None);
        let f = b.finish();
        let (_, li) = analyse(&f);
        assert!(li.loops().is_empty());
        assert!(!li.is_header(BlockId(0)));
        assert!(!li.in_loop(BlockId(0)));
    }
}
