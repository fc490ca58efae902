//! The scoring state shared by the kernel models (SVR, LS-SVM).
//!
//! Both models predict as `bias + Σ coeff_i · k(z, sv_i)` over a
//! standardized query row `z`. [`KernelExpansion`] holds that expansion
//! and scores it once for both:
//!
//! * [`KernelExpansion::predict_row`] — single row, standardizing into a
//!   stack buffer (no heap traffic for the paper's ≤ 44-column layouts);
//! * [`KernelExpansion::predict_batch`] — a whole matrix, fanning out over
//!   scoped threads with **one** standardized-row buffer per thread,
//!   reused across all of the thread's rows.
//!
//! A linear kernel collapses the expansion to its primal weights
//! `w = Σ coeff_i · sv_i`, so a row costs one O(d) dot product instead of
//! one kernel evaluation per support vector. `w` is derived in
//! [`KernelExpansion::new`] — the one constructor that fitting,
//! `LsSvmModel::from_parts` and both model formats go through — and is
//! never persisted, so every construction path scores identically.
//!
//! The two paths are bit-identical: both call the same per-row scorer, so
//! `predict_equivalence` tests assert `==`, not "close".

use crate::kernel::Kernel;
use f2pm_linalg::{Matrix, Standardizer};

/// Row count above which [`KernelExpansion::predict_batch`] *considers*
/// fanning out over threads. Below it, one kernel-model row costs
/// `support.rows()` kernel evaluations (typically well under 50 µs
/// total) — not worth a spawn.
pub(crate) const PREDICT_PARALLEL_THRESHOLD: usize = 128;

/// Serial threshold on total work: rows × kernel evaluations per row
/// must clear this before the batch path spawns workers (a primal row
/// counts as one evaluation). The `predict_2000` bench showed batch
/// scoring *slower* than the per-row loop at moderate sizes — spawn/join
/// plus band bookkeeping cost more than they bought — so fan-out now
/// requires the work to dwarf the ~10 µs/thread spawn overhead (≥ 2²¹
/// evaluations ≈ several milliseconds of scoring).
pub(crate) const PREDICT_PARALLEL_MIN_EVALS: usize = 1 << 21;

/// Stack scratch width for single-row prediction. The paper's aggregated
/// layouts are 30 columns (44 with stddev features); anything wider falls
/// back to one heap allocation.
pub(crate) const ROW_SCRATCH_WIDTH: usize = 64;

/// A fitted kernel expansion `bias + Σ coeff_i · k(z, sv_i)`.
#[derive(Debug, Clone)]
pub(crate) struct KernelExpansion {
    pub(crate) kernel: Kernel,
    pub(crate) standardizer: Standardizer,
    /// Support vectors (standardized), one per row.
    pub(crate) support: Matrix,
    /// One dual coefficient per support row.
    pub(crate) coeffs: Vec<f64>,
    pub(crate) bias: f64,
    /// Linear kernel only: the primal weights `w = Σ coeff_i · sv_i`.
    primal: Option<Vec<f64>>,
}

impl KernelExpansion {
    /// Assemble an expansion, deriving the primal weights of a linear
    /// kernel. `support` must hold one row per coefficient.
    pub(crate) fn new(
        kernel: Kernel,
        standardizer: Standardizer,
        support: Matrix,
        coeffs: Vec<f64>,
        bias: f64,
    ) -> KernelExpansion {
        assert_eq!(
            support.rows(),
            coeffs.len(),
            "one dual coefficient per support row"
        );
        let primal = (kernel == Kernel::Linear).then(|| {
            let mut w = vec![0.0; support.cols()];
            for (i, &c) in coeffs.iter().enumerate() {
                f2pm_linalg::axpy(c, support.row(i), &mut w);
            }
            w
        });
        KernelExpansion {
            kernel,
            standardizer,
            support,
            coeffs,
            bias,
            primal,
        }
    }

    /// Feature count of the rows this expansion scores.
    pub(crate) fn width(&self) -> usize {
        self.support.cols()
    }

    /// Score one standardized row.
    #[inline]
    fn score(&self, z: &[f64]) -> f64 {
        if let Some(w) = &self.primal {
            return self.bias + f2pm_linalg::dot(w, z);
        }
        let mut acc = self.bias;
        for (i, c) in self.coeffs.iter().enumerate() {
            acc += c * self.kernel.eval(z, self.support.row(i));
        }
        acc
    }

    /// Score one raw (unstandardized) row.
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        with_row_scratch(row.len(), |z| {
            z.copy_from_slice(row);
            self.standardizer.transform_row(z);
            self.score(z)
        })
    }

    /// Score every row of `x`, in parallel bands.
    ///
    /// The caller has already validated `x.cols()` against the width.
    pub(crate) fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let n = x.rows();
        let mut out = vec![0.0; n];
        if n == 0 {
            return out;
        }
        // Per-thread scratch, reused across the band's rows. Stack-backed
        // at the paper's widths so the serial path costs exactly what the
        // per-row loop does (a heap Vec here measured ~7% slower at 2000
        // rows — the whole predict_2000 regression).
        let score_band = |first: usize, band: &mut [f64]| {
            with_row_scratch(x.cols(), |z| {
                for (local, slot) in band.iter_mut().enumerate() {
                    z.copy_from_slice(x.row(first + local));
                    self.standardizer.transform_row(z);
                    *slot = self.score(z);
                }
            })
        };
        let per_row = self.primal.as_ref().map_or(self.support.rows(), |_| 1);
        let evals = n.saturating_mul(per_row);
        let workers = if n >= PREDICT_PARALLEL_THRESHOLD && evals >= PREDICT_PARALLEL_MIN_EVALS {
            f2pm_linalg::pool_threads().min(n)
        } else {
            1
        };
        if workers <= 1 {
            score_band(0, &mut out);
        } else {
            let band = n.div_ceil(workers);
            let score_band = &score_band;
            crossbeam::thread::scope(|scope| {
                for (t, chunk) in out.chunks_mut(band).enumerate() {
                    scope.spawn(move |_| score_band(t * band, chunk));
                }
            })
            .expect("predict_batch scope");
        }
        out
    }
}

/// Run `f` on a scratch row of `width`, on the stack at the paper's widths.
fn with_row_scratch<R>(width: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if width <= ROW_SCRATCH_WIDTH {
        f(&mut [0.0; ROW_SCRATCH_WIDTH][..width])
    } else {
        f(&mut vec![0.0; width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(kernel: Kernel) -> KernelExpansion {
        let mut sv = Matrix::zeros(40, 3);
        for i in 0..40 {
            sv.row_mut(i).copy_from_slice(&[
                (i as f64 * 0.3).sin(),
                i as f64,
                (i as f64 * 0.7).cos() * 5.0,
            ]);
        }
        let st = Standardizer::fit(&sv);
        let coeffs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.13).sin()).collect();
        KernelExpansion::new(kernel, st, sv, coeffs, 2.5)
    }

    fn queries() -> Matrix {
        let mut x = Matrix::zeros(PREDICT_PARALLEL_THRESHOLD + 11, 3);
        for i in 0..x.rows() {
            x.row_mut(i)
                .copy_from_slice(&[i as f64 * 0.1, 40.0 - i as f64, (i as f64).sqrt()]);
        }
        x
    }

    #[test]
    fn batch_is_bit_identical_to_rows() {
        let x = queries();
        for kernel in [Kernel::Rbf { gamma: 0.2 }, Kernel::Linear] {
            let e = fixture(kernel);
            let batch = e.predict_batch(&x);
            for i in 0..x.rows() {
                assert_eq!(batch[i], e.predict_row(x.row(i)), "{kernel:?} row {i}");
            }
        }
    }

    #[test]
    fn linear_primal_weights_match_the_dual_sum() {
        let e = fixture(Kernel::Linear);
        let x = queries();
        for i in 0..x.rows() {
            let mut z = x.row(i).to_vec();
            e.standardizer.transform_row(&mut z);
            let dual = e.bias
                + (0..e.coeffs.len())
                    .map(|j| e.coeffs[j] * Kernel::Linear.eval(&z, e.support.row(j)))
                    .sum::<f64>();
            let primal = e.predict_row(x.row(i));
            assert!(
                (primal - dual).abs() <= 1e-12 * dual.abs().max(1.0),
                "row {i}: {primal} vs {dual}"
            );
        }
    }

    #[test]
    fn wide_rows_take_the_heap_fallback() {
        let w = ROW_SCRATCH_WIDTH + 8;
        let sv = Matrix::zeros(3, w);
        let row = vec![1.0; w];
        for kernel in [Kernel::Rbf { gamma: 0.2 }, Kernel::Linear] {
            let st = Standardizer::fit(&sv);
            let e = KernelExpansion::new(kernel, st, sv.clone(), vec![1.0; 3], 0.0);
            assert!(e.predict_row(&row).is_finite());
        }
    }

    #[test]
    fn empty_query_batch_is_empty() {
        let e = fixture(Kernel::Rbf { gamma: 0.2 });
        assert!(e.predict_batch(&Matrix::zeros(0, 3)).is_empty());
    }
}
