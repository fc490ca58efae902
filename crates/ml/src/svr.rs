//! ε-insensitive Support-Vector Regression (the paper's "SVM" row, WEKA's
//! `SMOreg` analogue).
//!
//! We solve the bias-absorbed dual by coordinate descent: with the kernel
//! augmented as `Q = K + 1` (the constant term absorbs the bias, removing
//! the equality constraint of the classic SMO formulation), the dual is
//!
//! ```text
//!   min_β  ½ βᵀQβ − yᵀβ + ε‖β‖₁   s.t.  |β_i| ≤ C
//! ```
//!
//! whose per-coordinate minimizer has the closed form
//! `β_i ← clip(S(β_i − g_i/Q_ii, ε/Q_ii), ±C)` — a soft-thresholded Newton
//! step. This is the standard liblinear-style dual coordinate method; it
//! retains the defining SVR property that samples inside the ε-tube get
//! exactly zero coefficient (sparse support vectors).
//!
//! The linear kernel (the paper's SMOreg default) reads the gradient off
//! the primal weights, `(Kβ)_i = wᵀz_i` with `w = Σ β_j z_j`, so a
//! coordinate costs O(d) instead of O(n) and no n × n Gram is built; the
//! descent itself (order, soft-threshold, clamp, shrinking) is shared.
//!
//! Features are standardized internally (kernel methods are
//! scale-sensitive; the testbed mixes MiB-scale memory counters with
//! percent-scale CPU numbers).

use crate::batch::KernelExpansion;
use crate::kernel::Kernel;
use crate::regressor::{check_training_data, Model, Regressor};
use crate::MlError;
use f2pm_linalg::{Matrix, Standardizer};

/// SVR hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvrParams {
    /// Kernel.
    pub kernel: Kernel,
    /// Box constraint `C`.
    pub c: f64,
    /// ε-tube half-width (in target units, seconds of RTTF).
    pub epsilon: f64,
    /// Maximum coordinate sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance on the largest β change in a sweep.
    pub tol: f64,
    /// LIBSVM-style shrinking: drop coordinates pinned at ±C *or* resting
    /// at zero inside the ε tube from the sweep, re-checking them on
    /// periodic full passes (cadence tied to how much the set shrank, and
    /// always before declaring convergence). Disable for the plain
    /// reference sweep — the equivalence tests compare both settings.
    pub shrinking: bool,
    /// Problem-size activation threshold for shrinking: below this many
    /// training rows, `shrinking: true` is ignored and the plain sweep
    /// runs. On the Gram path the gradient axpy per *moved* coordinate
    /// is full-length either way (see `coordinate_descent`), so at
    /// small/medium n the sweeps are axpy-bound and shrinking's
    /// bookkeeping is pure overhead: forced on, it lost to the plain
    /// sweep at n = 800 and n = 1600. Only once the pinned-majority
    /// late phase is large enough for the skipped evaluations to outweigh
    /// the bookkeeping does shrinking engage. Set to 0 to force shrinking
    /// at any size (the equivalence tests do).
    pub shrink_min_n: usize,
}

/// Default [`SvrParams::shrink_min_n`]: sized so shrinking stays off at
/// every size the perf suite showed it losing (≤ 1600) with margin, and
/// engages in the same regime where the O(n²)-storage kernel pressure
/// starts to dominate training anyway.
pub const SVR_SHRINK_MIN_N: usize = 4000;

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            // γ sized for ~30 standardized inputs: squared distances scale
            // with dimensionality (E‖u−v‖² ≈ 2p), so γ ≈ 1/p keeps the
            // kernel informative instead of collapsing to a diagonal.
            kernel: Kernel::Rbf { gamma: 0.03 },
            c: 1000.0,
            epsilon: 5.0,
            max_sweeps: 400,
            tol: 1e-4,
            shrinking: true,
            shrink_min_n: SVR_SHRINK_MIN_N,
        }
    }
}

/// The ε-SVR learning method.
#[derive(Debug, Clone)]
pub struct SvrRegressor {
    params: SvrParams,
}

impl SvrRegressor {
    /// Create with the given hyper-parameters.
    pub fn new(params: SvrParams) -> Self {
        SvrRegressor { params }
    }
}

/// A fitted SVR model (support vectors + coefficients; the bias is Σβ
/// from the absorbed constant kernel term).
#[derive(Debug, Clone)]
pub struct SvrModel(pub(crate) KernelExpansion);

impl SvrModel {
    /// Number of support vectors (rows with non-zero dual coefficient).
    pub fn support_count(&self) -> usize {
        self.0.support.rows()
    }
}

impl Model for SvrModel {
    fn width(&self) -> usize {
        self.0.width()
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.0.predict_row(row)
    }

    fn predict_batch(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        crate::regressor::check_batch_width(self.width(), x)?;
        Ok(self.0.predict_batch(x))
    }
}

/// Where the coordinate descent reads `(Kβ)_i − y_i` from. With
/// `Q = K + 1` the effective gradient of coordinate `i` is that plus Σβ.
enum Gradient<'a> {
    /// Any kernel: the Gram matrix `K` plus the cached `Kβ − y`, updated
    /// by one O(n) Gram row per moved coordinate.
    Gram(Matrix, Vec<f64>),
    /// Linear kernel: the rows `z`, targets `y` and primal `w = Σ β_j z_j`,
    /// so `(Kβ)_i = wᵀz_i` costs O(d) and no Gram matrix exists.
    Primal(&'a Matrix, &'a [f64], Vec<f64>),
}

impl Gradient<'_> {
    #[inline]
    fn core(&self, i: usize) -> f64 {
        match self {
            Gradient::Gram(_, g_core) => g_core[i],
            Gradient::Primal(z, y, w) => f2pm_linalg::dot(w, z.row(i)) - y[i],
        }
    }

    /// Account for `β_i += delta`.
    #[inline]
    fn moved(&mut self, i: usize, delta: f64) {
        match self {
            // g_core += delta * K[:, i] (full-length, so shrunk coordinates
            // stay consistent for reactivation); symmetric: row == column.
            Gradient::Gram(k, g_core) => {
                for (gk, kk) in g_core.iter_mut().zip(k.row(i)) {
                    *gk += delta * kk;
                }
            }
            Gradient::Primal(z, _, w) => f2pm_linalg::axpy(delta, z.row(i), w),
        }
    }
}

impl SvrRegressor {
    /// Fit, returning the concrete model type (exposes support-vector
    /// diagnostics the boxed [`Model`] hides).
    ///
    /// A linear kernel trains in the primal, every other kernel on its
    /// Gram matrix; both run the same descent.
    pub fn fit_svr(&self, x: &Matrix, y: &[f64]) -> Result<SvrModel, MlError> {
        self.fit_dual(x, y, self.params.kernel == Kernel::Linear)
    }

    /// [`Self::fit_svr`] with the gradient source chosen by `primal`
    /// (only meaningful for a linear kernel) — the equivalence test pins
    /// the primal path against the Gram path through this.
    fn fit_dual(&self, x: &Matrix, y: &[f64], primal: bool) -> Result<SvrModel, MlError> {
        check_training_data(x, y)?;
        let p = &self.params;
        let standardizer = Standardizer::fit(x);
        let z = standardizer.transform(x);
        let n = z.rows();
        let (grad, k_diag): (_, Vec<f64>) = if primal {
            let k_diag = (0..n)
                .map(|i| f2pm_linalg::dot(z.row(i), z.row(i)))
                .collect();
            (Gradient::Primal(&z, y, vec![0.0; z.cols()]), k_diag)
        } else {
            // Bias absorption without forming Q = K + 11ᵀ: since
            // (Qβ)_i = (Kβ)_i + Σβ and Q_ii = K_ii + 1, it suffices to keep
            // the raw Gram plus one running scalar — no O(n²) add pass, no
            // second n×n matrix.
            let k = p.kernel.matrix(&z);
            let k_diag = (0..n).map(|i| k[(i, i)]).collect();
            let g_core = y.iter().map(|v| -v).collect();
            (Gradient::Gram(k, g_core), k_diag)
        };
        let beta = coordinate_descent(p, &k_diag, grad)?;

        // Keep only support vectors.
        let keep: Vec<usize> = (0..z.rows()).filter(|&i| beta[i] != 0.0).collect();
        let support = z.select_rows(&keep);
        let beta_sv: Vec<f64> = keep.iter().map(|&i| beta[i]).collect();
        let bias: f64 = beta_sv.iter().sum(); // from the +1 kernel term
        Ok(SvrModel(KernelExpansion::new(
            p.kernel,
            standardizer,
            support,
            beta_sv,
            bias,
        )))
    }
}

/// The dual coordinate descent, given each coordinate's `K_ii`,
/// returning β.
fn coordinate_descent(
    p: &SvrParams,
    k_diag: &[f64],
    mut grad: Gradient,
) -> Result<Vec<f64>, MlError> {
    let n = k_diag.len();
    let shrinking = p.shrinking && n >= p.shrink_min_n;

    let mut beta = vec![0.0; n];
    // The effective gradient of coordinate i is grad.core(i) + s with
    // s = Σβ.
    let mut s = 0.0_f64;

    // Shrinking state: sweep only over `active`; a coordinate that
    // sits *unmoved* at a pin — the box bound ±C, or zero strictly
    // inside the ε tube (the overwhelming majority once the tube is
    // wide) — for two consecutive visits is dropped until the next
    // full pass. Full passes re-check every coordinate and always run
    // before convergence is declared, so a shrunk coordinate whose
    // gradient drifts back gets reactivated.
    //
    // Gradient maintenance stays exact for every coordinate: the Gram
    // source updates its cache full-length on purpose (the contiguous
    // row update vectorizes, while an active-set-restricted
    // gather/scatter measured *slower* despite doing O(|active|) work),
    // and the primal source derives each gradient from `w` on demand.
    // Reactivation therefore needs no reconstruction and the shrunk
    // trajectory stays on the reference sweep's float path. Shrinking
    // buys exactly the skipped per-coordinate evaluations, which is what
    // the eval-bound late phase of a long solve is made of.
    //
    // The full-pass cadence scales with how much the set shrank: a
    // full pass costs n/|active| shrunk sweeps, so a fixed short
    // cadence (the old FULL_PASS_EVERY = 8) made full passes dominate
    // exactly when shrinking was winning — the reason the
    // svr_train_800x12 bench showed shrinking as a no-op.
    const FULL_PASS_MIN: usize = 8;
    const FULL_PASS_MAX: usize = 64;
    let mut active: Vec<usize> = (0..n).collect();
    let mut next_active: Vec<usize> = Vec::with_capacity(n);
    let mut pinned = vec![0u8; n];
    let mut since_full = 0usize;
    let mut full_every = FULL_PASS_MIN;

    let mut converged = false;
    for _ in 0..p.max_sweeps {
        let full = !shrinking || active.len() == n || since_full >= full_every;
        if full {
            since_full = 0;
            if active.len() != n {
                active.clear();
                active.extend(0..n);
                pinned.iter_mut().for_each(|c| *c = 0);
            }
        } else {
            since_full += 1;
        }
        let mut max_delta = 0.0_f64;
        next_active.clear();
        for r in 0..active.len() {
            let i = active[r];
            let qii = k_diag[i] + 1.0;
            if qii <= 0.0 {
                next_active.push(i);
                continue;
            }
            let gi = grad.core(i) + s;
            let unreg = beta[i] - gi / qii;
            let tgt = soft(unreg, p.epsilon / qii);
            let new = tgt.clamp(-p.c, p.c);
            let delta = new - beta[i];
            if delta != 0.0 {
                beta[i] = new;
                grad.moved(i, delta);
                s += delta;
                max_delta = max_delta.max(delta.abs());
            }
            // A skipped coordinate is a true no-op only while its
            // update stays pinned, and the running bias Σβ drags every
            // gradient as the others move — a coordinate *exactly* at a
            // pin can unpin a few sweeps later. So only shrink
            // coordinates pinned with a 10% safety margin: zeros whose
            // gradient is safely interior to the ε tube, and bound
            // coordinates whose unclamped target overshoots the box by
            // a clear gap.
            let at_pin = (beta[i] == p.c && tgt >= 1.1 * p.c)
                || (beta[i] == -p.c && tgt <= -1.1 * p.c)
                || (beta[i] == 0.0 && gi.abs() < 0.9 * p.epsilon);
            let keep = if shrinking && delta == 0.0 && at_pin {
                pinned[i] = pinned[i].saturating_add(1);
                pinned[i] < 2
            } else {
                pinned[i] = 0;
                true
            };
            if keep {
                next_active.push(i);
            }
        }
        std::mem::swap(&mut active, &mut next_active);
        // Re-derive the cadence from the shrink ratio: full passes are
        // spaced so the shrunk sweeps between them cost roughly one
        // full pass's work.
        full_every = if active.is_empty() {
            FULL_PASS_MIN
        } else {
            (n / active.len()).clamp(FULL_PASS_MIN, FULL_PASS_MAX)
        };
        if max_delta <= p.tol {
            if full {
                converged = true;
                break;
            }
            // The shrunk set converged: force a full verification
            // pass before accepting.
            since_full = full_every;
        }
    }
    if !converged {
        // SVR duals converge slowly near the tube boundary; accept the
        // iterate (WEKA's SMOreg behaves the same with its checkTol),
        // but refuse clearly unusable fits.
        let worst = beta.iter().fold(0.0_f64, |m, b| m.max(b.abs()));
        if !worst.is_finite() {
            return Err(MlError::DidNotConverge { stage: "svr dual" });
        }
    }
    Ok(beta)
}

impl Regressor for SvrRegressor {
    fn name(&self) -> String {
        "svm".to_string()
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn Model>, MlError> {
        Ok(Box::new(self.fit_svr(x, y)?))
    }
}

#[inline]
fn soft(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 1);
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64 * 6.0;
            x[(i, 0)] = t;
            y.push((t).sin() * 50.0 + 100.0);
        }
        (x, y)
    }

    fn linear_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64;
            let b = (i as f64 * 0.7).sin() * 10.0;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(2.0 * a + 5.0 * b + 30.0);
        }
        (x, y)
    }

    #[test]
    fn rbf_svr_fits_a_sine() {
        let (x, y) = sine_data(120);
        let m = SvrRegressor::new(SvrParams {
            kernel: Kernel::Rbf { gamma: 2.0 },
            epsilon: 2.0,
            ..SvrParams::default()
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
        assert!(mae < 5.0, "mae {mae}");
    }

    #[test]
    fn linear_svr_fits_a_plane() {
        let (x, y) = linear_data(100);
        let m = SvrRegressor::new(SvrParams {
            kernel: Kernel::Linear,
            epsilon: 1.0,
            c: 10_000.0,
            ..SvrParams::default()
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
        // ε-insensitive fit tolerates errors up to ~ε.
        assert!(mae < 3.0, "mae {mae}");
    }

    #[test]
    fn epsilon_tube_produces_sparse_support() {
        let (x, y) = sine_data(150);
        let wide = SvrRegressor::new(SvrParams {
            kernel: Kernel::Rbf { gamma: 2.0 },
            epsilon: 25.0, // wide tube → few SVs
            ..SvrParams::default()
        });
        let concrete = wide.fit_svr(&x, &y).unwrap();
        assert!(
            concrete.support_count() < 100,
            "support {} of 150",
            concrete.support_count()
        );
        // A tighter tube needs more support vectors.
        let tight = SvrRegressor::new(SvrParams {
            kernel: Kernel::Rbf { gamma: 2.0 },
            epsilon: 1.0,
            ..SvrParams::default()
        })
        .fit_svr(&x, &y)
        .unwrap();
        assert!(tight.support_count() > concrete.support_count());
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [42.0; 4];
        let m = SvrRegressor::new(SvrParams::default()).fit(&x, &y).unwrap();
        // Everything inside the ε tube around a constant: prediction within
        // ε of the constant everywhere.
        let p = m.predict_row(&[1.5]);
        assert!((p - 42.0).abs() <= 6.0, "p {p}");
    }

    #[test]
    fn rejects_bad_input() {
        let reg = SvrRegressor::new(SvrParams::default());
        assert!(reg.fit(&Matrix::zeros(0, 1), &[]).is_err());
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(reg.fit(&x, &[f64::INFINITY, 1.0]).is_err());
    }

    #[test]
    fn linear_primal_path_matches_the_gram_path() {
        // Converged agreement: with a sweep budget that reaches the
        // tolerance, the primal gradient source and the Gram matrix land
        // on the same optimum, with and without shrinking.
        let noisy = |n: usize, phase: f64| {
            let mut x = Matrix::zeros(n, 5);
            let mut y = Vec::with_capacity(n);
            for i in 0..n {
                let t = i as f64 + phase;
                let row = [
                    t,
                    (t * 0.7).sin() * 10.0,
                    (t * 0.13).cos() * 3.0 + t * 0.01,
                    (t * 1.9).sin(),
                    ((t * 0.37).sin() * 4.0).round(),
                ];
                x.row_mut(i).copy_from_slice(&row);
                // An RTTF-like target running down towards zero, with a
                // slow wave no linear model captures.
                let truth = 1000.0 - 2.4 * row[0] + 5.0 * row[1] - 8.0 * row[2] + row[4];
                y.push((truth + (t * 0.05).sin() * 80.0 + (t * 2.3).sin() * 25.0).max(1.0));
            }
            (x, y)
        };
        let (x, y) = noisy(400, 0.0);
        let (vx, vy) = noisy(150, 0.5);
        for shrinking in [false, true] {
            let reg = SvrRegressor::new(SvrParams {
                kernel: Kernel::Linear,
                c: 100.0,
                max_sweeps: 20_000,
                shrinking,
                shrink_min_n: 0,
                ..SvrParams::default()
            });
            let smae = |m: &SvrModel| {
                let pred = m.predict_batch(&vx).unwrap();
                crate::Metrics::compute(&pred, &vy, crate::SMaeThreshold::paper_default()).smae
            };
            let primal = smae(&reg.fit_dual(&x, &y, true).unwrap());
            let gram = smae(&reg.fit_dual(&x, &y, false).unwrap());
            assert!(
                (primal - gram).abs() <= 1e-6 * gram,
                "shrinking {shrinking}: S-MAE primal {primal} vs gram {gram}"
            );
        }
    }
}
