//! M5P model trees (Wang & Witten, "Inducing model trees for continuous
//! classes" — the paper's reference [17]).
//!
//! Three stages, exactly as §III-D describes:
//!
//! 1. **Growth** — recursive splitting that minimizes intra-subset
//!    variation: the split maximizing the *standard deviation reduction*
//!    `SDR = sd(S) − Σ |S_i|/|S| · sd(S_i)` is chosen; growth stops when
//!    the subset's deviation falls below a fraction of the global one or
//!    too few instances remain.
//! 2. **Pruning** — every inner node carries a linear regression plane; the
//!    subtree is replaced by that plane when its complexity-corrected error
//!    (Quinlan's `(n + v)/(n − v)` factor) beats the subtree's.
//! 3. **Smoothing** — a leaf prediction is blended with the linear models
//!    of every ancestor on the way back to the root,
//!    `p' = (n·p + k·q)/(n + k)`, removing sharp discontinuities between
//!    adjacent leaves.

use crate::linreg::LinearModel;
use crate::regressor::{check_training_data, Model, Regressor};
use crate::split::{sd, SplitKernel};
use crate::MlError;
use f2pm_linalg::Matrix;
use std::ops::Range;

/// M5P hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct M5Params {
    /// Minimum instances to attempt a split.
    pub min_instances: usize,
    /// Stop splitting when subset sd < `sd_fraction` × global sd.
    pub sd_fraction: f64,
    /// Smoothing constant `k` (Wang & Witten use 15).
    pub smoothing_k: f64,
    /// Hard depth cap.
    pub max_depth: usize,
    /// Whether to run the pruning stage.
    pub prune: bool,
    /// Sort each feature once at the root into a column that every split
    /// partitions in place (order-preserving), instead of re-sorting at
    /// every node. Produces bit-identical trees; exists so equivalence
    /// tests can pin the fast path to the re-sorting reference.
    pub presort: bool,
}

impl Default for M5Params {
    fn default() -> Self {
        M5Params {
            // With ~30 input columns a leaf needs comfortably more than
            // p + 1 instances before its regression plane is stable.
            min_instances: 40,
            sd_fraction: 0.05,
            // Smoothing defaults off: on the F2PM workloads the ancestor
            // planes near the root are fit across mixed leak regimes and
            // blending them in measurably degrades accuracy (set k ≈ 15
            // to match Wang & Witten's original recipe).
            smoothing_k: 0.0,
            max_depth: 20,
            prune: true,
            presort: true,
        }
    }
}

/// The M5P learning method.
#[derive(Debug, Clone)]
pub struct M5Prime {
    params: M5Params,
}

impl M5Prime {
    /// Create with the given hyper-parameters.
    pub fn new(params: M5Params) -> Self {
        M5Prime { params }
    }
}

/// Arena node of the fitted tree.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        model: LinearModel,
        n: usize,
    },
    Leaf {
        model: LinearModel,
        n: usize,
    },
}

/// A fitted M5P model tree.
#[derive(Debug, Clone)]
pub struct M5Model {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: usize,
    pub(crate) width: usize,
    pub(crate) smoothing_k: f64,
}

impl M5Model {
    /// Number of leaves (diagnostics).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Smoothed prediction (Wang & Witten stage 3).
    fn predict_smoothed(&self, at: usize, row: &[f64]) -> (f64, usize) {
        match &self.nodes[at] {
            Node::Leaf { model, n } => (model.predict_row(row), *n),
            Node::Split {
                feature,
                threshold,
                left,
                right,
                model,
                ..
            } => {
                let child = if row[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
                let (p_child, n_child) = self.predict_smoothed(child, row);
                let q = model.predict_row(row);
                let k = self.smoothing_k;
                let p = (n_child as f64 * p_child + k * q) / (n_child as f64 + k);
                (p, n_child)
            }
        }
    }
}

impl Model for M5Model {
    fn width(&self) -> usize {
        self.width
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_smoothed(self.root, row).0
    }
}

impl M5Prime {
    /// Fit, returning the concrete model tree (for diagnostics — leaf
    /// counts, depth — and persistence).
    pub fn fit_m5(&self, x: &Matrix, y: &[f64]) -> Result<M5Model, MlError> {
        check_training_data(x, y)?;
        let mut kernel = SplitKernel::new(x, y, (0..x.rows()).collect(), self.params.presort);
        let root = kernel.root();
        let mut builder = Builder {
            x,
            y,
            params: &self.params,
            global_sd: sd(y, kernel.rows(root.clone())),
            nodes: Vec::new(),
        };
        let root = builder.grow(&mut kernel, root, 0)?;
        let mut nodes = builder.nodes;
        if self.params.prune {
            prune(&mut nodes, root, x, y);
        }
        Ok(M5Model {
            nodes,
            root,
            width: x.cols(),
            smoothing_k: self.params.smoothing_k,
        })
    }
}

impl Regressor for M5Prime {
    fn name(&self) -> String {
        "m5p".to_string()
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn Model>, MlError> {
        Ok(Box::new(self.fit_m5(x, y)?))
    }
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    params: &'a M5Params,
    global_sd: f64,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    fn grow(
        &mut self,
        kernel: &mut SplitKernel,
        node: Range<usize>,
        depth: usize,
    ) -> Result<usize, MlError> {
        let rows = kernel.rows(node.clone());
        let n = rows.len();
        let stop = !self.splittable(rows, depth);
        let model = self.fit_node_model(rows)?;
        let split = if stop {
            None
        } else {
            kernel.best_split(node.clone(), self.params.min_instances / 2)
        };
        let Some((feature, threshold)) = split else {
            self.nodes.push(Node::Leaf { model, n });
            return Ok(self.nodes.len() - 1);
        };
        let mid = kernel.partition(node.clone(), (feature, threshold), |l, r| {
            self.splittable(l, depth + 1) || self.splittable(r, depth + 1)
        });
        // The right child is empty only when the midpoint threshold of
        // two adjacent floats rounds up to the upper value.
        debug_assert!(node.start < mid);
        let left = self.grow(kernel, node.start..mid, depth + 1)?;
        let right = self.grow(kernel, mid..node.end, depth + 1)?;
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left,
            right,
            model,
            n,
        });
        Ok(self.nodes.len() - 1)
    }

    /// Whether a node of these rows at this depth searches for a split:
    /// enough instances, depth to spare, and a deviation that is not
    /// already a small fraction of the global one.
    fn splittable(&self, rows: &[usize], depth: usize) -> bool {
        rows.len() >= self.params.min_instances.max(2)
            && depth < self.params.max_depth
            && sd(self.y, rows) >= self.params.sd_fraction * self.global_sd
    }

    /// Fit the node's linear plane; fall back to a constant when the
    /// subset is too small for a stable regression.
    fn fit_node_model(&self, idx: &[usize]) -> Result<LinearModel, MlError> {
        let p = self.x.cols();
        if idx.len() <= p + 1 {
            let mean = idx.iter().map(|&i| self.y[i]).sum::<f64>() / idx.len().max(1) as f64;
            return Ok(LinearModel::constant(mean, p));
        }
        LinearModel::fit_rows(self.x, self.y, idx)
    }
}

/// Quinlan's complexity-corrected mean absolute error of a linear model on
/// a subset: `MAE × (n + v) / (n − v)` with `v` = effective parameters.
fn corrected_error(model: &LinearModel, x: &Matrix, y: &[f64], idx: &[usize]) -> f64 {
    let n = idx.len() as f64;
    let v = (model.coefficients.iter().filter(|c| **c != 0.0).count() + 1) as f64;
    let mae = idx
        .iter()
        .map(|&i| (model.predict_row(x.row(i)) - y[i]).abs())
        .sum::<f64>()
        / n;
    if n > v {
        mae * (n + v) / (n - v)
    } else {
        mae * 1e6 // hopeless overfit
    }
}

/// Bottom-up pruning: replace a subtree with its node plane when the
/// corrected error does not get worse.
fn prune(nodes: &mut Vec<Node>, at: usize, x: &Matrix, y: &[f64]) {
    // Gather the training subset reaching each node by re-routing.
    let all: Vec<usize> = (0..x.rows()).collect();
    prune_rec(nodes, at, x, y, all);
}

fn prune_rec(nodes: &mut Vec<Node>, at: usize, x: &Matrix, y: &[f64], idx: Vec<usize>) -> f64 {
    let (feature, threshold, left, right) = match &nodes[at] {
        Node::Leaf { model, .. } => return corrected_error(model, x, y, &idx),
        Node::Split {
            feature,
            threshold,
            left,
            right,
            ..
        } => (*feature, *threshold, *left, *right),
    };
    let (li, ri): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| x[(i, feature)] <= threshold);
    if li.is_empty() || ri.is_empty() {
        // Degenerate routing (can happen after upstream pruning) — collapse.
        if let Node::Split { model, n, .. } = nodes[at].clone() {
            let err = corrected_error(&model, x, y, &idx);
            nodes[at] = Node::Leaf { model, n };
            return err;
        }
        unreachable!()
    }
    let nl = li.len() as f64;
    let nr = ri.len() as f64;
    let err_l = prune_rec(nodes, left, x, y, li);
    let err_r = prune_rec(nodes, right, x, y, ri);
    let subtree_err = (nl * err_l + nr * err_r) / (nl + nr);

    if let Node::Split { model, n, .. } = nodes[at].clone() {
        let node_err = corrected_error(&model, x, y, &idx);
        if node_err <= subtree_err {
            nodes[at] = Node::Leaf { model, n };
            return node_err;
        }
        subtree_err
    } else {
        unreachable!()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Piecewise-linear *continuous* target: two regimes split on feature
    /// 0 at a = 5 (both regimes meet at y = 11) — the structure M5P is
    /// built to exploit.
    fn piecewise(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * 10.0; // 0..10
            let b = ((i * 7) % 13) as f64;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(if a <= 5.0 {
                2.0 * a + 1.0
            } else {
                -3.0 * a + 26.0
            });
        }
        (x, y)
    }

    #[test]
    fn fits_piecewise_linear_far_better_than_one_plane() {
        // Smoothing off: this test checks the *structure* (split + leaf
        // planes) reproduces the generator exactly; smoothing is covered by
        // its own test below.
        let (x, y) = piecewise(300);
        let tree = M5Prime::new(M5Params {
            smoothing_k: 0.0,
            ..M5Params::default()
        })
        .fit(&x, &y)
        .unwrap();
        let plane = crate::LinearRegression::new().fit(&x, &y).unwrap();
        let mae = |m: &dyn Model| {
            m.predict_batch(&x)
                .unwrap()
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t).abs())
                .sum::<f64>()
                / y.len() as f64
        };
        let tree_mae = mae(tree.as_ref());
        let plane_mae = mae(plane.as_ref());
        assert!(
            tree_mae < plane_mae / 4.0,
            "tree {tree_mae:.4} vs plane {plane_mae:.4}"
        );
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let y = [7.0; 5];
        let reg = M5Prime::new(M5Params::default());
        let m = reg.fit(&x, &y).unwrap();
        assert!((m.predict_row(&[2.5]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_makes_predictions_continuous_at_boundaries() {
        let (x, y) = piecewise(300);
        let m = M5Prime::new(M5Params::default()).fit(&x, &y).unwrap();
        // Step across the regime boundary in tiny increments: smoothed
        // predictions must not jump violently.
        let mut last = m.predict_row(&[4.9, 5.0]);
        let mut max_jump = 0.0_f64;
        for k in 1..=20 {
            let a = 4.9 + k as f64 * 0.01;
            let p = m.predict_row(&[a, 5.0]);
            max_jump = max_jump.max((p - last).abs());
            last = p;
        }
        // The generator is continuous at the boundary; the smoothed tree
        // must not jump more than a few units across it.
        assert!(max_jump < 3.0, "max jump {max_jump}");
        // And smoothing must actually reduce the jump vs the raw tree.
        let raw = M5Prime::new(M5Params {
            smoothing_k: 0.0,
            ..M5Params::default()
        })
        .fit(&x, &y)
        .unwrap();
        let raw_jump = (raw.predict_row(&[5.001, 5.0]) - raw.predict_row(&[4.999, 5.0])).abs();
        let smooth_jump = (m.predict_row(&[5.001, 5.0]) - m.predict_row(&[4.999, 5.0])).abs();
        assert!(
            smooth_jump <= raw_jump + 1e-9,
            "smooth {smooth_jump} raw {raw_jump}"
        );
    }

    #[test]
    fn pruning_keeps_accuracy_on_piecewise_data() {
        let (x, y) = piecewise(200);
        for prune in [true, false] {
            let m = M5Prime::new(M5Params {
                prune,
                smoothing_k: 0.0,
                ..M5Params::default()
            })
            .fit(&x, &y)
            .unwrap();
            let mae = m
                .predict_batch(&x)
                .unwrap()
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t).abs())
                .sum::<f64>()
                / y.len() as f64;
            assert!(mae < 0.5, "prune={prune} mae {mae}");
        }
    }

    #[test]
    fn min_instances_respected() {
        let (x, y) = piecewise(40);
        let m = M5Prime::new(M5Params {
            min_instances: 40,
            ..M5Params::default()
        })
        .fit(&x, &y)
        .unwrap();
        // Whole dataset below min_instances → a single (linear) leaf;
        // prediction is the global plane, poor on piecewise data but finite.
        let p = m.predict_batch(&x).unwrap();
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_degenerate_input() {
        let reg = M5Prime::new(M5Params::default());
        assert!(reg.fit(&Matrix::zeros(0, 1), &[]).is_err());
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(reg.fit(&x, &[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn presort_produces_bit_identical_trees() {
        // The presorted path must reproduce the re-sorting reference
        // exactly: same structure, same thresholds, same predictions (==,
        // not within-tolerance — the accumulation order is identical).
        let (x, y) = piecewise(350);
        for smoothing_k in [0.0, 15.0] {
            for prune in [true, false] {
                let base = M5Params {
                    smoothing_k,
                    prune,
                    min_instances: 20,
                    ..M5Params::default()
                };
                let fast = M5Prime::new(M5Params {
                    presort: true,
                    ..base
                })
                .fit_m5(&x, &y)
                .unwrap();
                let slow = M5Prime::new(M5Params {
                    presort: false,
                    ..base
                })
                .fit_m5(&x, &y)
                .unwrap();
                assert_eq!(fast.leaf_count(), slow.leaf_count());
                assert_eq!(fast.depth(), slow.depth());
                for i in 0..x.rows() {
                    assert_eq!(
                        fast.predict_row(x.row(i)),
                        slow.predict_row(x.row(i)),
                        "row {i} (k={smoothing_k}, prune={prune})"
                    );
                }
            }
        }
    }

    #[test]
    fn concrete_fit_agrees_with_boxed_fit() {
        // The concrete fit path (the one that yields a persistable
        // `M5Model`) must predict exactly like the Regressor-trait path.
        let n = 150;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * 10.0;
            let b = ((i * 7) % 13) as f64;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(if a <= 5.0 { 2.0 * a + b } else { 30.0 - a });
        }
        let reg = M5Prime::new(M5Params::default());
        let boxed = reg.fit(&x, &y).unwrap();
        let concrete = reg.fit_m5(&x, &y).unwrap();
        for i in 0..x.rows() {
            assert_eq!(boxed.predict_row(x.row(i)), concrete.predict_row(x.row(i)));
        }
    }
}
