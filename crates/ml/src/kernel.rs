//! Kernels shared by the SVR and LS-SVM models.

use f2pm_linalg::{mirror_upper, on_triangle_bands, syrk_rows, syrk_rows_upper_scratch, Matrix};

/// Sample count above which [`Kernel::matrix`] fans out over threads.
///
/// Lowered from the original 512: with the symmetric blocked path one
/// Gram row costs ~`n · p` flops plus (for RBF) `n` `exp` calls, so at
/// n = 256 a band is already ≥ 100 µs of work — an order of magnitude
/// above the ~10 µs spawn/join cost per scoped thread (see the
/// `gram_matrix` bench and DESIGN.md "Performance architecture").
pub const PARALLEL_THRESHOLD: usize = 256;

/// Sample count below which [`Kernel::matrix`] keeps the direct per-pair
/// evaluation ([`Kernel::matrix_reference`]): the Gram detour costs two
/// extra passes over the matrix, which only pays once `n²` is non-trivial.
const BLOCKED_THRESHOLD: usize = 32;

/// Kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(u, v) = uᵀv`.
    Linear,
    /// `k(u, v) = exp(−γ ‖u − v‖²)`.
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluate the kernel on two rows.
    #[inline]
    pub fn eval(&self, u: &[f64], v: &[f64]) -> f64 {
        debug_assert_eq!(u.len(), v.len());
        match self {
            Kernel::Linear => f2pm_linalg::dot(u, v),
            Kernel::Rbf { gamma } => {
                let mut d2 = 0.0;
                for (a, b) in u.iter().zip(v) {
                    let d = a - b;
                    d2 += d * d;
                }
                (-gamma * d2).exp()
            }
        }
    }

    /// Full symmetric kernel matrix of a sample set.
    ///
    /// Built on the blocked symmetric rank-k update `G = X·Xᵀ` from
    /// `f2pm-linalg`: the linear kernel *is* that Gram, and the RBF kernel
    /// reuses it through `‖u − v‖² = ‖u‖² + ‖v‖² − 2 uᵀv`, with the squared
    /// norms read off `G`'s diagonal (so the diagonal distance is exactly
    /// zero and `K_ii` exactly 1). Only the upper triangle is computed and
    /// transformed; the lower one is mirrored. Above [`PARALLEL_THRESHOLD`]
    /// rows the triangle fans out over scoped threads in bands of equal
    /// triangle area (each band writes a disjoint slice — no locks).
    ///
    /// Values can differ from [`Kernel::matrix_reference`] by a few ulps
    /// (the norm trick reassociates the distance computation); everything
    /// downstream tolerates that, and the property tests pin it to a
    /// 1e-9 relative band.
    pub fn matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        if n < BLOCKED_THRESHOLD {
            return self.matrix_reference(x);
        }
        let workers = if n >= PARALLEL_THRESHOLD {
            f2pm_linalg::worker_count(n, n * n / 2)
        } else {
            1
        };
        match self {
            Kernel::Linear => syrk_rows(x),
            Kernel::Rbf { gamma } => {
                // Scratch variant: the strict lower triangle starts out
                // unspecified, but the transform below only reads `j >= i`
                // and `mirror_upper` overwrites the rest.
                let mut g = syrk_rows_upper_scratch(x);
                // Squared row norms straight from the Gram diagonal: using
                // the *same* dot products keeps `sq[i] + sq[i] − 2·G_ii`
                // exactly zero, hence an exact unit diagonal after exp.
                let sq: Vec<f64> = (0..n).map(|i| g[(i, i)]).collect();
                let gamma = *gamma;
                let sq = &sq;
                on_triangle_bands(g.as_mut_slice(), n, workers, move |first, band| {
                    let rows = band.len() / n;
                    for local in 0..rows {
                        let i = first + local;
                        let sqi = sq[i];
                        let row = &mut band[local * n..(local + 1) * n];
                        for j in i..n {
                            let d2 = (sqi + sq[j] - 2.0 * row[j]).max(0.0);
                            row[j] = (-gamma * d2).exp();
                        }
                    }
                });
                mirror_upper(&mut g);
                g
            }
        }
    }

    /// Reference kernel matrix: direct per-pair evaluation of the upper
    /// triangle, mirrored. This is the small-`n` path of [`Kernel::matrix`]
    /// and the baseline the equivalence tests and the `gram_matrix` bench
    /// compare against.
    pub fn matrix_reference(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            let ri = x.row(i);
            for j in i..n {
                let v = self.eval(ri, x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_kernel_is_dot() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_properties() {
        let k = Kernel::Rbf { gamma: 0.5 };
        // Self-similarity is 1.
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        // Symmetric, in (0, 1], decreasing in distance.
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0 && near <= 1.0);
        assert_eq!(
            k.eval(&[0.0, 1.0], &[1.0, 0.0]),
            k.eval(&[1.0, 0.0], &[0.0, 1.0])
        );
    }

    fn wavy(n: usize, p: usize) -> Matrix {
        let mut x = Matrix::zeros(n, p);
        for i in 0..n {
            for j in 0..p {
                x[(i, j)] = ((i * p + j) as f64 * 0.37).sin() * 2.0
                    + (i as f64 * 0.11).cos()
                    + i as f64 / n as f64;
            }
        }
        x
    }

    #[test]
    fn kernel_matrix_symmetric_unit_diagonal_for_rbf() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[2.0, 2.0]]);
        let k = Kernel::Rbf { gamma: 1.0 }.matrix(&x);
        for i in 0..3 {
            assert_eq!(k[(i, i)], 1.0);
            for j in 0..3 {
                assert_eq!(k[(i, j)], k[(j, i)]);
            }
        }
    }

    #[test]
    fn blocked_rbf_diagonal_is_exactly_one() {
        // Above BLOCKED_THRESHOLD the norm-trick path runs; the diagonal
        // must still be *exactly* 1 (squared norms come from the Gram
        // diagonal itself, so the self-distance is exactly zero).
        let x = wavy(100, 5);
        let k = Kernel::Rbf { gamma: 0.7 }.matrix(&x);
        for i in 0..100 {
            assert_eq!(k[(i, i)], 1.0, "diagonal at {i}");
        }
    }

    /// Shared check: `matrix` vs `matrix_reference` within 1e-9 relative
    /// (the norm trick reassociates the distance sum, so a few ulps of
    /// drift are expected; exact symmetry is not negotiable).
    fn assert_close_to_reference(kern: Kernel, x: &Matrix) {
        let fast = kern.matrix(x);
        let refr = kern.matrix_reference(x);
        let n = x.rows();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (fast[(i, j)], refr[(i, j)]);
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{kern:?} at ({i},{j}): {a} vs {b}"
                );
                assert_eq!(fast[(i, j)], fast[(j, i)], "symmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_matrix_matches_reference() {
        // Big enough for the Gram path, below the parallel threshold.
        let x = wavy(120, 4);
        for kern in [Kernel::Linear, Kernel::Rbf { gamma: 0.4 }] {
            assert_close_to_reference(kern, &x);
        }
    }

    #[test]
    fn parallel_matrix_matches_reference() {
        // Crosses PARALLEL_THRESHOLD so the banded thread path runs.
        let x = wavy(PARALLEL_THRESHOLD + 37, 3);
        for kern in [Kernel::Linear, Kernel::Rbf { gamma: 0.4 }] {
            assert_close_to_reference(kern, &x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_gram_paths_agree(
            vals in proptest::collection::vec(-3.0_f64..3.0, 160),
            gamma in 0.01_f64..2.0,
        ) {
            // 40 x 4: above BLOCKED_THRESHOLD, so the syrk path is active.
            let x = Matrix::from_vec(40, 4, vals);
            assert_close_to_reference(Kernel::Linear, &x);
            assert_close_to_reference(Kernel::Rbf { gamma }, &x);
        }
    }
}
