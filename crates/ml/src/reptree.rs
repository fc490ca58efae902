//! REP-Tree: a fast regression tree with reduced-error pruning and
//! backfitting (the paper's reference [18] / WEKA's `REPTree`).
//!
//! The learner splits the training data into a *grow* set and a *prune*
//! set. The tree is grown on the grow set with variance-reduction splits
//! and constant (mean) leaves — sorting each numeric attribute only once,
//! at the root, as the paper notes. Pruning then walks the tree bottom-up and
//! collapses any subtree whose prune-set error is no better than a single
//! leaf's; finally, *backfitting* re-estimates the surviving leaf means
//! with the grow and prune data combined, recovering the observations the
//! held-out set withheld.

use crate::regressor::{check_training_data, Model, Regressor};
use crate::split::SplitKernel;
use crate::MlError;
use f2pm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;

/// REP-Tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct RepTreeParams {
    /// Minimum instances to attempt a split.
    pub min_instances: usize,
    /// Hard depth cap.
    pub max_depth: usize,
    /// Fraction of the data held out for reduced-error pruning.
    pub prune_fraction: f64,
    /// Whether to prune at all (WEKA's `-P` switch disables it).
    pub prune: bool,
    /// Shuffle seed for the grow/prune split.
    pub seed: u64,
    /// Presort each feature once at the root of the grow set and partition
    /// the columns down the tree (see `M5Params::presort`); bit-identical
    /// to the per-node re-sort, kept switchable for equivalence tests.
    pub presort: bool,
}

impl Default for RepTreeParams {
    fn default() -> Self {
        RepTreeParams {
            min_instances: 4,
            max_depth: 30,
            prune_fraction: 1.0 / 3.0,
            prune: true,
            seed: 0x5eed,
            presort: true,
        }
    }
}

/// The REP-Tree learning method.
#[derive(Debug, Clone)]
pub struct RepTree {
    params: RepTreeParams,
}

impl RepTree {
    /// Create with the given hyper-parameters.
    pub fn new(params: RepTreeParams) -> Self {
        RepTree { params }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Grow-set mean at this node (used when collapsing).
        mean: f64,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted REP-Tree.
#[derive(Debug, Clone)]
pub struct RepTreeModel {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: usize,
    pub(crate) width: usize,
}

impl RepTreeModel {
    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    fn descend(&self, row: &[f64]) -> usize {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { .. } => return at,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl Model for RepTreeModel {
    fn width(&self) -> usize {
        self.width
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        match &self.nodes[self.descend(row)] {
            Node::Leaf { value } => *value,
            Node::Split { .. } => unreachable!("descend stops at leaves"),
        }
    }
}

impl RepTree {
    /// Fit, returning the concrete tree (for diagnostics and persistence).
    pub fn fit_tree(&self, x: &Matrix, y: &[f64]) -> Result<RepTreeModel, MlError> {
        check_training_data(x, y)?;
        let n = x.rows();

        // Grow/prune split (deterministic).
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        idx.shuffle(&mut rng);
        let prune_n = if self.params.prune {
            ((n as f64 * self.params.prune_fraction) as usize).min(n.saturating_sub(1))
        } else {
            0
        };
        let (prune_idx, grow_idx) = idx.split_at(prune_n);

        let mut nodes = Vec::new();
        let mut kernel = SplitKernel::new(x, y, grow_idx.to_vec(), self.params.presort);
        let root = kernel.root();
        let root = grow(&mut kernel, y, root, 0, &self.params, &mut nodes);

        let mut model = RepTreeModel {
            nodes,
            root,
            width: x.cols(),
        };
        if self.params.prune && !prune_idx.is_empty() {
            rep_prune(&mut model, x, y, prune_idx.to_vec());
            backfit(&mut model, x, y, &idx);
        }
        Ok(model)
    }
}

impl Regressor for RepTree {
    fn name(&self) -> String {
        "rep_tree".to_string()
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn Model>, MlError> {
        Ok(Box::new(self.fit_tree(x, y)?))
    }
}

fn mean_of(y: &[f64], idx: &[usize]) -> f64 {
    if idx.is_empty() {
        0.0
    } else {
        idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
    }
}

fn grow(
    kernel: &mut SplitKernel,
    y: &[f64],
    node: Range<usize>,
    depth: usize,
    params: &RepTreeParams,
    nodes: &mut Vec<Node>,
) -> usize {
    let splittable = |rows: &[usize], depth: usize| {
        rows.len() >= params.min_instances.max(2) && depth < params.max_depth
    };
    let rows = kernel.rows(node.clone());
    let mean = mean_of(y, rows);
    let split = if splittable(rows, depth) {
        kernel.best_split(node.clone(), params.min_instances / 2)
    } else {
        None
    };
    let Some((feature, threshold)) = split else {
        nodes.push(Node::Leaf { value: mean });
        return nodes.len() - 1;
    };
    let mid = kernel.partition(node.clone(), (feature, threshold), |l, r| {
        splittable(l, depth + 1) || splittable(r, depth + 1)
    });
    let left = grow(kernel, y, node.start..mid, depth + 1, params, nodes);
    let right = grow(kernel, y, mid..node.end, depth + 1, params, nodes);
    nodes.push(Node::Split {
        feature,
        threshold,
        left,
        right,
        mean,
    });
    nodes.len() - 1
}

/// Reduced-error pruning: collapse any subtree whose prune-set SSE is not
/// beaten by its own leaves. Returns the subtree's prune-set SSE.
fn rep_prune(model: &mut RepTreeModel, x: &Matrix, y: &[f64], prune_idx: Vec<usize>) {
    let root = model.root;
    prune_rec(&mut model.nodes, root, x, y, prune_idx);
}

fn prune_rec(nodes: &mut Vec<Node>, at: usize, x: &Matrix, y: &[f64], idx: Vec<usize>) -> f64 {
    let (feature, threshold, left, right, mean) = match &nodes[at] {
        Node::Leaf { value } => {
            return idx.iter().map(|&i| (y[i] - value) * (y[i] - value)).sum();
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
            mean,
        } => (*feature, *threshold, *left, *right, *mean),
    };
    let (li, ri): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| x[(i, feature)] <= threshold);
    let sub_sse = prune_rec(nodes, left, x, y, li) + prune_rec(nodes, right, x, y, ri);
    let leaf_sse: f64 = idx.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
    if leaf_sse <= sub_sse {
        nodes[at] = Node::Leaf { value: mean };
        leaf_sse
    } else {
        sub_sse
    }
}

/// Backfitting: recompute every leaf value as the mean of *all* training
/// instances (grow + prune) routed to it.
fn backfit(model: &mut RepTreeModel, x: &Matrix, y: &[f64], all_idx: &[usize]) {
    let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); model.nodes.len()];
    for &i in all_idx {
        let leaf = model.descend(x.row(i));
        sums[leaf].0 += y[i];
        sums[leaf].1 += 1;
    }
    for (node, (sum, count)) in model.nodes.iter_mut().zip(&sums) {
        if let Node::Leaf { value } = node {
            if *count > 0 {
                *value = sum / *count as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step function with noise: ideal for a constant-leaf tree.
    fn steps(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * 9.0;
            let noise = ((i * 31) % 7) as f64 * 0.01;
            x.row_mut(i).copy_from_slice(&[a, (i % 5) as f64]);
            y.push(a.floor() * 10.0 + noise);
        }
        (x, y)
    }

    #[test]
    fn fits_step_function() {
        let (x, y) = steps(400);
        let m = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        let mae = m
            .predict_batch(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        assert!(mae < 1.5, "mae {mae}");
    }

    #[test]
    fn beats_a_single_mean() {
        let (x, y) = steps(300);
        let m = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let tree_mae = m
            .predict_batch(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        let mean_mae = y.iter().map(|t| (t - mean).abs()).sum::<f64>() / y.len() as f64;
        assert!(tree_mae < mean_mae / 5.0, "tree {tree_mae} mean {mean_mae}");
    }

    #[test]
    fn pruning_controls_overfitting_on_noise() {
        // Pure noise target: the pruned tree should collapse to (nearly)
        // a single leaf, the unpruned tree will memorize.
        let n = 300;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        let mut state = 12345u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            x[(i, 0)] = i as f64;
            y.push(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
        let pruned = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        let unpruned = RepTree::new(RepTreeParams {
            prune: false,
            ..RepTreeParams::default()
        })
        .fit(&x, &y)
        .unwrap();
        // Evaluate on fresh noise indices (odd vs even split proxy):
        // the pruned tree must not be (much) worse than predicting ~0 and
        // should generalize better than the memorizing tree on average.
        let pruned_rtm = pruned_model_leaves(pruned.as_ref());
        let unpruned_rtm = pruned_model_leaves(unpruned.as_ref());
        assert!(
            pruned_rtm < unpruned_rtm,
            "pruned {pruned_rtm} leaves vs unpruned {unpruned_rtm}"
        );
    }

    fn pruned_model_leaves(m: &dyn Model) -> usize {
        // Leaf-count proxy: count distinct predictions over a probe grid.
        let mut preds: Vec<i64> = (0..300)
            .map(|i| (m.predict_row(&[i as f64]) * 1e9) as i64)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds.len()
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = steps(200);
        let a = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        let b = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        for i in 0..x.rows() {
            assert_eq!(a.predict_row(x.row(i)), b.predict_row(x.row(i)));
        }
    }

    #[test]
    fn presort_produces_bit_identical_trees() {
        let (x, y) = steps(400);
        for prune in [true, false] {
            let fast = RepTree::new(RepTreeParams {
                presort: true,
                prune,
                ..RepTreeParams::default()
            })
            .fit_tree(&x, &y)
            .unwrap();
            let slow = RepTree::new(RepTreeParams {
                presort: false,
                prune,
                ..RepTreeParams::default()
            })
            .fit_tree(&x, &y)
            .unwrap();
            assert_eq!(fast.leaf_count(), slow.leaf_count(), "prune={prune}");
            for i in 0..x.rows() {
                assert_eq!(
                    fast.predict_row(x.row(i)),
                    slow.predict_row(x.row(i)),
                    "row {i} (prune={prune})"
                );
            }
        }
    }

    #[test]
    fn tiny_dataset_becomes_single_leaf() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let y = [10.0, 20.0];
        let m = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        // With 2 samples the grow set is 1-2 points → mean leaf.
        let p = m.predict_row(&[1.5]);
        assert!((10.0..=20.0).contains(&p));
    }

    #[test]
    fn rejects_bad_input() {
        let reg = RepTree::new(RepTreeParams::default());
        assert!(reg.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }

    #[test]
    fn backfitting_uses_all_data() {
        // One clear split; grow set and prune set disagree slightly on the
        // leaf means; backfitting must land on the combined mean.
        let n = 100;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            x[(i, 0)] = if i < n / 2 { 0.0 } else { 1.0 };
            y.push(if i < n / 2 { 10.0 } else { 20.0 });
        }
        let m = RepTree::new(RepTreeParams::default()).fit(&x, &y).unwrap();
        assert!((m.predict_row(&[0.0]) - 10.0).abs() < 1e-9);
        assert!((m.predict_row(&[1.0]) - 20.0).abs() < 1e-9);
    }
}
