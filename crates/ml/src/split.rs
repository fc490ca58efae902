//! The variance-reduction split kernel M5P and REP-Tree share: both
//! split where the *standard deviation reduction*
//! `SDR = sd(S) − Σ |S_i|/|S| · sd(S_i)` is largest. A node is a range of
//! positions, and [`SplitKernel::rows`] holds its rows in *node order*
//! (the root's order, filtered down the tree), the order every per-node
//! sum runs in.
//!
//! With `presort`, each feature is sorted once at the root into its own
//! contiguous column of `(value, target, row)` entries. A split
//! stable-partitions the node's range of every column in place, so each
//! child range holds its rows sorted by value with ties in node order:
//! exactly what a stable re-sort of the child's rows (`presort: false`,
//! the reference) produces. The scan then sees the same cuts in the same
//! order with the same prefix sums, and the trees are bit-identical.

use f2pm_linalg::Matrix;
use std::cmp::Ordering;
use std::ops::Range;

/// One row of a feature column.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    value: f64,
    target: f64,
    row: usize,
}

/// A node split: rows with `x[feature] <= threshold` go left.
pub(crate) type Split = (usize, f64);

/// Node ranges over the training rows, with their split search and
/// in-place partitioning.
pub(crate) struct SplitKernel<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    /// The root's rows; every node is a range of it, in node order.
    rows: Vec<usize>,
    /// `x.cols()` columns of `rows.len()` entries each, each sorted by
    /// value with ties in node order (empty without presort).
    columns: Vec<Entry>,
    entry_scratch: Vec<Entry>,
    row_scratch: Vec<usize>,
    /// Indexed by row: whether it goes left at the split being applied.
    goes_left: Vec<bool>,
}

impl<'a> SplitKernel<'a> {
    /// A kernel over the given root rows (in the order the per-node sums
    /// run), presorted when `presort` is set.
    pub(crate) fn new(x: &'a Matrix, y: &'a [f64], rows: Vec<usize>, presort: bool) -> Self {
        let n = rows.len();
        let mut columns = Vec::new();
        if presort {
            columns.reserve_exact(n * x.cols());
            for feature in 0..x.cols() {
                let start = columns.len();
                columns.extend(rows.iter().map(|&i| entry(x, y, i, feature)));
                sort_column(&mut columns[start..]);
            }
        }
        SplitKernel {
            x,
            y,
            rows,
            columns,
            entry_scratch: Vec::with_capacity(n),
            row_scratch: Vec::with_capacity(n),
            goes_left: vec![false; x.rows()],
        }
    }

    /// The root node's range.
    pub(crate) fn root(&self) -> Range<usize> {
        0..self.rows.len()
    }

    /// A node's rows in node order.
    pub(crate) fn rows(&self, node: Range<usize>) -> &[usize] {
        &self.rows[node]
    }

    /// Where a node's range of a feature column sits in `columns`.
    fn column(&self, feature: usize, node: &Range<usize>) -> Range<usize> {
        let at = feature * self.rows.len();
        at + node.start..at + node.end
    }

    /// The SDR-maximizing split of a node, or `None` when the node's
    /// targets are constant or no cut between distinct values leaves both
    /// sides with at least `min_side` rows. The first feature and the
    /// first cut win ties.
    pub(crate) fn best_split(&mut self, node: Range<usize>, min_side: usize) -> Option<Split> {
        let min_side = min_side.max(1);
        let sd_all = sd(self.y, &self.rows[node.clone()]);
        if sd_all == 0.0 {
            return None;
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for feature in 0..self.x.cols() {
            if self.columns.is_empty() {
                // Reference path: a stable sort of the node's own rows.
                let mut column = std::mem::take(&mut self.entry_scratch);
                column.clear();
                column.extend(
                    self.rows[node.clone()]
                        .iter()
                        .map(|&i| entry(self.x, self.y, i, feature)),
                );
                sort_column(&mut column);
                scan_cuts(&column, feature, min_side, sd_all, &mut best);
                self.entry_scratch = column;
            } else {
                let column = &self.columns[self.column(feature, &node)];
                scan_cuts(column, feature, min_side, sd_all, &mut best);
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Split a node's range into its left rows then its right rows, both
    /// in node order, and return where the right child starts. The
    /// feature columns follow only when `columns_needed(left, right)`
    /// says a child will search for a split of its own.
    pub(crate) fn partition(
        &mut self,
        node: Range<usize>,
        (feature, threshold): Split,
        columns_needed: impl FnOnce(&[usize], &[usize]) -> bool,
    ) -> usize {
        let mut left = 0;
        for &i in &self.rows[node.clone()] {
            self.goes_left[i] = self.x[(i, feature)] <= threshold;
            left += usize::from(self.goes_left[i]);
        }
        let mid = node.start + left;
        let goes_left = &self.goes_left;
        stable_partition(&mut self.rows[node.clone()], &mut self.row_scratch, |&i| {
            goes_left[i]
        });
        let (left, right) = self.rows[node.clone()].split_at(mid - node.start);
        if !self.columns.is_empty() && columns_needed(left, right) {
            for f in (0..self.x.cols()).filter(|&f| f != feature) {
                let column = self.column(f, &node);
                stable_partition(&mut self.columns[column], &mut self.entry_scratch, |e| {
                    goes_left[e.row]
                });
            }
        }
        mid
    }
}

fn entry(x: &Matrix, y: &[f64], row: usize, feature: usize) -> Entry {
    Entry {
        value: x[(row, feature)],
        target: y[row],
        row,
    }
}

/// Stable sort by value; the NaN-is-equal fallback never fires on the
/// finite training data but keeps the comparator total.
fn sort_column(column: &mut [Entry]) {
    column.sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap_or(Ordering::Equal));
}

/// Move the items `left` accepts to the front and the rest behind them,
/// keeping the relative order on both sides. Branch-free: every item is
/// written to both destinations and only the cursor of its side moves.
fn stable_partition<T: Copy + Default>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    left: impl Fn(&T) -> bool,
) {
    scratch.clear();
    scratch.resize(items.len(), T::default());
    let (mut l, mut r) = (0, 0);
    for i in 0..items.len() {
        let item = items[i];
        let goes_left = left(&item);
        items[l] = item;
        scratch[r] = item;
        l += usize::from(goes_left);
        r += usize::from(!goes_left);
    }
    items[l..].copy_from_slice(&scratch[..r]);
}

/// Scan one feature's sorted cuts with incremental variance statistics
/// (prefix sums → O(1) sd at each cut), updating `best`.
fn scan_cuts(
    column: &[Entry],
    feature: usize,
    min_side: usize,
    sd_all: f64,
    best: &mut Option<(usize, f64, f64)>,
) {
    let n = column.len();
    let total: f64 = column.iter().map(|e| e.target).sum();
    let total2: f64 = column.iter().map(|e| e.target * e.target).sum();
    let (mut sum, mut sum2) = (0.0, 0.0);
    for cut in 0..n - 1 {
        let yi = column[cut].target;
        sum += yi;
        sum2 += yi * yi;
        let nl = cut + 1;
        let nr = n - nl;
        if nl < min_side || nr < min_side {
            continue;
        }
        let (xv, xn) = (column[cut].value, column[cut + 1].value);
        if xv == xn {
            continue; // cannot split between equal values
        }
        let sd_l = sd_from_sums(sum, sum2, nl);
        let sd_r = sd_from_sums(total - sum, total2 - sum2, nr);
        let sdr = sd_all - (nl as f64 / n as f64) * sd_l - (nr as f64 / n as f64) * sd_r;
        if best.is_none_or(|(_, _, b)| sdr > b) {
            *best = Some((feature, 0.5 * (xv + xn), sdr));
        }
    }
}

#[inline]
fn sd_from_sums(sum: f64, sum2: f64, n: usize) -> f64 {
    let nf = n as f64;
    let var = (sum2 / nf - (sum / nf) * (sum / nf)).max(0.0);
    var.sqrt()
}

/// Population standard deviation of `y` over `rows`, summed in the order
/// given.
pub(crate) fn sd(y: &[f64], rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let n = rows.len() as f64;
    let mean = rows.iter().map(|&i| y[i]).sum::<f64>() / n;
    let var = rows
        .iter()
        .map(|&i| (y[i] - mean) * (y[i] - mean))
        .sum::<f64>()
        / n;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m5p::{M5Model, M5Params, M5Prime};
    use crate::regressor::Model;
    use crate::reptree::{RepTree, RepTreeModel, RepTreeParams};
    use proptest::prelude::*;

    #[test]
    fn best_split_finds_a_step_boundary() {
        // A step function has a unique variance-optimal cut: the step.
        let n = 100;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * 10.0;
            x.row_mut(i).copy_from_slice(&[a, ((i * 7) % 13) as f64]);
            y.push(if a <= 5.0 { 0.0 } else { 100.0 });
        }
        for presort in [false, true] {
            let mut kernel = SplitKernel::new(&x, &y, (0..n).collect(), presort);
            let (feature, threshold) = kernel.best_split(kernel.root(), 2).expect("split exists");
            assert_eq!(feature, 0);
            assert!((threshold - 5.0).abs() < 0.2, "threshold {threshold}");
        }
    }

    #[test]
    fn no_split_between_equal_values() {
        let x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0], &[1.0]]);
        let y = [1.0, 2.0, 3.0, 4.0];
        for presort in [false, true] {
            let mut kernel = SplitKernel::new(&x, &y, (0..4).collect(), presort);
            assert!(kernel.best_split(kernel.root(), 1).is_none());
        }
    }

    /// Split both kernels all the way down, node by node, and check that
    /// they find the same splits and the same child rows.
    fn assert_same_descent(a: &mut SplitKernel, b: &mut SplitKernel, node: Range<usize>) {
        for min_side in [1, 2, 8] {
            assert_eq!(
                a.best_split(node.clone(), min_side),
                b.best_split(node.clone(), min_side),
                "node {node:?}, min_side {min_side}"
            );
        }
        let Some(split) = a.best_split(node.clone(), 1) else {
            return;
        };
        let mid = a.partition(node.clone(), split, |_, _| true);
        assert_eq!(mid, b.partition(node.clone(), split, |_, _| true));
        assert_eq!(a.rows(node.clone()), b.rows(node.clone()));
        assert_same_descent(a, b, node.start..mid);
        assert_same_descent(a, b, mid..node.end);
    }

    #[test]
    fn presorted_descent_matches_the_resort_reference_with_ties() {
        // Duplicated feature values exercise the tie-order discipline.
        let n = 120;
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::new();
        for i in 0..n {
            let a = ((i / 4) % 10) as f64; // heavy ties
            let b = (i % 7) as f64;
            let c = (i as f64 * 0.13).sin();
            x.row_mut(i).copy_from_slice(&[a, b, c]);
            y.push(a * 3.0 + b - c * 2.0);
        }
        // A scrambled subset, as REP-Tree's grow set is.
        let rows: Vec<usize> = (0..n).filter(|i| i % 3 != 1).map(|i| (i * 7) % n).collect();
        let mut fast = SplitKernel::new(&x, &y, rows.clone(), true);
        let mut slow = SplitKernel::new(&x, &y, rows, false);
        let root = fast.root();
        assert_same_descent(&mut fast, &mut slow, root);
    }

    /// A deterministic dataset whose features repeat a few values
    /// (±0.0 and adjacent floats among them) and whose targets tie too.
    fn tied_data(n: usize, p: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let one_up = f64::from_bits(1.0_f64.to_bits() + 1);
        let pool = [
            -0.0,
            0.0,
            1.0,
            one_up,
            f64::from_bits(one_up.to_bits() + 1),
            -2.5,
            7.0,
        ];
        let mut x = Matrix::zeros(n, p);
        let mut y = vec![0.0; n];
        for i in 0..n {
            for j in 0..p {
                let r = next();
                x[(i, j)] = match r % 4 {
                    0 | 1 => pool[(r >> 8) as usize % pool.len()],
                    2 => ((r >> 8) % 5) as f64,
                    _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 10.0,
                };
            }
            let r = next();
            y[i] = match r % 3 {
                0 => [-0.0, 0.0, 3.0][(r >> 8) as usize % 3],
                _ => 4.0 * x[(i, 0)] - x[(i, p - 1)] + ((r >> 8) % 7) as f64,
            };
        }
        (x, y)
    }

    fn same_predictions(a: &dyn Model, b: &dyn Model, x: &Matrix) -> Result<(), TestCaseError> {
        for i in 0..x.rows() {
            let (pa, pb) = (a.predict_row(x.row(i)), b.predict_row(x.row(i)));
            prop_assert!(pa.to_bits() == pb.to_bits() || (pa.is_nan() && pb.is_nan()));
            prop_assert_eq!(pa, pb, "row {}", i);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn presort_grows_bit_identical_trees(
            n in 2_usize..401,
            p in 1_usize..13,
            min_at in 0_usize..3,
            seed in 0_u64..u64::MAX,
        ) {
            let (x, y) = tied_data(n, p, seed);
            let min_instances = [2, 4, 40][min_at];
            for smoothing_k in [0.0, 15.0] {
                for prune in [true, false] {
                    let fit = |presort: bool| -> M5Model {
                        M5Prime::new(M5Params {
                            min_instances,
                            smoothing_k,
                            prune,
                            presort,
                            ..M5Params::default()
                        })
                        .fit_m5(&x, &y)
                        .unwrap()
                    };
                    let (fast, slow) = (fit(true), fit(false));
                    prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
                    prop_assert_eq!(fast.depth(), slow.depth());
                    same_predictions(&fast, &slow, &x)?;
                }
            }
            for prune in [true, false] {
                let fit = |presort: bool| -> RepTreeModel {
                    RepTree::new(RepTreeParams {
                        min_instances,
                        prune,
                        presort,
                        ..RepTreeParams::default()
                    })
                    .fit_tree(&x, &y)
                    .unwrap()
                };
                let (fast, slow) = (fit(true), fit(false));
                prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
                same_predictions(&fast, &slow, &x)?;
            }
        }
    }
}
