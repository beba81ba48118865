//! A CART-style decision-tree learner.
//!
//! The paper notes (§3.1.2) that "preliminary results we have obtained using
//! decision trees instead of neural networks are comparable to the neural
//! net results presented here. Moreover, decision trees are easier to use…".
//! This module provides that alternative learner over the same encoded
//! feature vectors and the same weighted examples, so the two can be compared
//! head-to-head (see the `ablation_tree` bench).

use crate::mlp::TrainExample;

/// Tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum total example weight needed to attempt a split.
    pub min_split_weight: f64,
    /// Minimum weighted impurity improvement for a split to be kept.
    /// Zero (the default) allows zero-gain splits on impure nodes, which a
    /// greedy learner needs to get through XOR-like feature interactions;
    /// depth still bounds growth.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_split_weight: 1e-6,
            min_gain: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Weighted mean taken-probability of the examples in the leaf.
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `x[feature] <= threshold`
        left: Box<Node>,
        /// `x[feature] > threshold`
        right: Box<Node>,
    },
}

/// A trained decision tree predicting taken-probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    inputs: usize,
}

/// Weighted mean target of a set of examples (0.5 for zero weight).
fn mean_target(idx: &[usize], data: &[TrainExample]) -> f64 {
    let mut w = 0.0;
    let mut s = 0.0;
    for &i in idx {
        w += data[i].weight;
        s += data[i].weight * data[i].target;
    }
    if w > 0.0 {
        s / w
    } else {
        0.5
    }
}

/// Weighted misprediction cost of predicting the majority direction —
/// the same objective the network minimises, so the two learners are
/// directly comparable.
fn impurity(idx: &[usize], data: &[TrainExample]) -> f64 {
    let mut w = 0.0;
    let mut taken = 0.0;
    for &i in idx {
        w += data[i].weight;
        taken += data[i].weight * data[i].target;
    }
    // Predict taken iff weighted mean > 0.5; cost is the minority mass.
    taken.min(w - taken)
}

fn build(idx: Vec<usize>, data: &[TrainExample], depth: usize, cfg: &TreeConfig) -> Node {
    let prob = mean_target(&idx, data);
    let total_w: f64 = idx.iter().map(|&i| data[i].weight).sum();
    if depth >= cfg.max_depth || total_w < cfg.min_split_weight || idx.len() < 2 {
        return Node::Leaf { prob };
    }
    let parent_cost = impurity(&idx, data);
    if parent_cost <= 0.0 {
        return Node::Leaf { prob };
    }

    let dims = data[idx[0]].x.len();
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    let mut order = idx.clone();
    for f in 0..dims {
        order.sort_unstable_by(|&a, &b| {
            data[a].x[f]
                .partial_cmp(&data[b].x[f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Sweep thresholds between distinct consecutive values, maintaining
        // left-side weight/taken sums incrementally.
        let mut lw = 0.0;
        let mut lt = 0.0;
        let tw: f64 = order.iter().map(|&i| data[i].weight).sum();
        let tt: f64 = order.iter().map(|&i| data[i].weight * data[i].target).sum();
        for k in 0..order.len() - 1 {
            let i = order[k];
            lw += data[i].weight;
            lt += data[i].weight * data[i].target;
            let x_here = data[i].x[f];
            let x_next = data[order[k + 1]].x[f];
            if x_next <= x_here {
                continue;
            }
            let rw = tw - lw;
            let rt = tt - lt;
            let cost = lt.min(lw - lt) + rt.min(rw - rt);
            let gain = parent_cost - cost;
            if gain >= cfg.min_gain && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, f, 0.5 * (x_here + x_next)));
            }
        }
    }

    match best {
        None => Node::Leaf { prob },
        Some((_, feature, threshold)) => {
            let (l, r): (Vec<usize>, Vec<usize>) = idx
                .into_iter()
                .partition(|&i| data[i].x[feature] <= threshold);
            if l.is_empty() || r.is_empty() {
                return Node::Leaf { prob };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(l, data, depth + 1, cfg)),
                right: Box::new(build(r, data, depth + 1, cfg)),
            }
        }
    }
}

impl DecisionTree {
    /// Train a tree on weighted examples.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or examples disagree on dimensionality.
    pub fn train(data: &[TrainExample], cfg: &TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty corpus");
        let inputs = data[0].x.len();
        assert!(
            data.iter().all(|d| d.x.len() == inputs),
            "inconsistent feature dimensionality"
        );
        let idx: Vec<usize> = (0..data.len()).collect();
        DecisionTree {
            root: build(idx, data, 0, cfg),
            inputs,
        }
    }

    /// Estimated probability that the branch is taken.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimensionality mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Hard taken/not-taken decision at 0.5.
    pub fn predict_taken(&self, x: &[f64]) -> bool {
        self.predict(x) > 0.5
    }

    /// Number of leaves (the tree's "rule count").
    pub fn num_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Maximum depth of the tree.
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(x: Vec<f64>, target: f64, weight: f64) -> TrainExample {
        TrainExample { x, target, weight }
    }

    #[test]
    fn learns_threshold_rule() {
        let data: Vec<TrainExample> = (0..50)
            .map(|i| {
                let x = i as f64 / 25.0 - 1.0;
                ex(vec![x], if x > 0.2 { 1.0 } else { 0.0 }, 1.0)
            })
            .collect();
        let t = DecisionTree::train(&data, &TreeConfig::default());
        assert!(t.predict(&[0.9]) > 0.5);
        assert!(t.predict(&[-0.5]) < 0.5);
        assert!(t.num_leaves() >= 2);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn learns_xor_with_two_levels() {
        let mut data = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let t = if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 };
            data.push(ex(vec![a, b], t, 1.0));
        }
        let t = DecisionTree::train(&data, &TreeConfig::default());
        assert!(t.predict(&[0.0, 1.0]) > 0.5);
        assert!(t.predict(&[1.0, 1.0]) < 0.5);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn respects_weights() {
        let data = vec![
            ex(vec![0.0], 1.0, 10.0),
            ex(vec![0.0], 0.0, 1.0), // same x, lighter
        ];
        let t = DecisionTree::train(&data, &TreeConfig::default());
        assert!(t.predict(&[0.0]) > 0.5);
    }

    #[test]
    fn depth_limit_enforced() {
        let data: Vec<TrainExample> = (0..128)
            .map(|i| {
                let x = i as f64;
                ex(vec![x], (i % 2) as f64, 1.0) // maximally unsplittable
            })
            .collect();
        let t = DecisionTree::train(
            &data,
            &TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
        );
        assert!(t.depth() <= 3);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let data = vec![ex(vec![0.0], 1.0, 1.0), ex(vec![1.0], 1.0, 1.0)];
        let t = DecisionTree::train(&data, &TreeConfig::default());
        assert_eq!(t.num_leaves(), 1);
        assert!(t.predict_taken(&[0.5]));
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn empty_training_rejected() {
        let _ = DecisionTree::train(&[], &TreeConfig::default());
    }
}
