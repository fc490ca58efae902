//! Least squares with an intercept over a subset of rows.
//!
//! Linear Regression and every M5P node model (`f2pm-ml`) fit through
//! [`ols`], which reads only the rows it is given, on the one [`Cholesky`]
//! factor. It takes one decision from the data. A full-rank design solves
//! the centered normal equations scaled to unit diagonal (the correlation
//! matrix), so both rank tests are independent of feature units. A
//! rank-deficient design (the all-parameters one carries swap used and
//! swap free, which are complementary), or one with no more rows than
//! columns, solves the uncentered Gram of `[1 | X]` with a tiny ridge.

use crate::{axpy, dot, Cholesky, LinalgError, Matrix, Result};

/// A column counts as constant when its centered norm is at most this
/// fraction of `max|x| · √m`: its spread is down at the rounding level
/// of its values.
const COLUMN_TOL: f64 = 1e-10;

/// A squared pivot of the correlation factor is the share of a column's
/// variance the earlier columns leave unexplained. At or below this the
/// normal equations lose too many digits, and the fit takes the ridge.
const PIVOT_TOL: f64 = 1e-10;

/// Ridge of the rank-deficient path, relative to the Gram's largest
/// diagonal entry (at least 1).
const RIDGE: f64 = 1e-8;

/// Fit `y ≈ b₀ + Σⱼ bⱼ·xⱼ` by least squares over the listed `rows` of
/// `x` and `y`, in the order given. Returns `(b₀, [b₁ … b_p])`.
///
/// # Panics
/// Panics if a row index is out of bounds.
pub fn ols(x: &Matrix, y: &[f64], rows: &[usize]) -> Result<(f64, Vec<f64>)> {
    fit(x, y, rows, normal_equations)
}

/// How a fit forms `(Σ v vᵀ, Σ v·t)`; see [`normal_equations`].
type NormalEquations =
    fn(&[usize], usize, &mut dyn FnMut(usize, &mut [f64]) -> f64) -> (Matrix, Vec<f64>);

fn fit(
    x: &Matrix,
    y: &[f64],
    rows: &[usize],
    normal_equations: NormalEquations,
) -> Result<(f64, Vec<f64>)> {
    if y.len() != x.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "ols",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if let Some(fit) = centered_fit(x, y, rows, normal_equations) {
        return Ok(fit);
    }
    let p = x.cols();
    let (gram, xty) = normal_equations(rows, p + 1, &mut |i, v| {
        v[0] = 1.0;
        v[1..].copy_from_slice(x.row(i));
        y[i]
    });
    let scale = (0..=p).map(|j| gram[(j, j)]).fold(0.0_f64, f64::max);
    let mut beta = Cholesky::factor_ridged(&gram, scale.max(1.0) * RIDGE)?.solve(&xty)?;
    let intercept = beta.remove(0);
    Ok((intercept, beta))
}

/// The full-rank fit, or `None` when the design fails either rank test.
fn centered_fit(
    x: &Matrix,
    y: &[f64],
    rows: &[usize],
    normal_equations: NormalEquations,
) -> Option<(f64, Vec<f64>)> {
    let p = x.cols();
    if rows.len() <= p {
        return None;
    }
    let m = rows.len() as f64;
    let mut mean = vec![0.0; p];
    let mut peak = vec![0.0_f64; p];
    let mut ybar = 0.0;
    for &i in rows {
        for ((s, pk), &v) in mean.iter_mut().zip(&mut peak).zip(x.row(i)) {
            *s += v;
            *pk = pk.max(v.abs());
        }
        ybar += y[i];
    }
    mean.iter_mut().for_each(|s| *s /= m);
    ybar /= m;
    let (mut corr, xty) = normal_equations(rows, p, &mut |i, v| {
        for ((vj, xj), mj) in v.iter_mut().zip(x.row(i)).zip(&mean) {
            *vj = xj - mj;
        }
        y[i] - ybar
    });
    let norms: Vec<f64> = (0..p).map(|j| corr[(j, j)].sqrt()).collect();
    // `>` is false for the NaN norms of non-finite input, so they fail too.
    if !(0..p).all(|j| norms[j] > COLUMN_TOL * peak[j] * m.sqrt()) {
        return None;
    }
    for j in 0..p {
        for k in 0..j {
            corr[(j, k)] /= norms[j] * norms[k];
        }
        corr[(j, j)] = 1.0;
    }
    let chol = Cholesky::factor(&corr).ok()?;
    if (0..p).any(|j| chol.l()[(j, j)].powi(2) <= PIVOT_TOL) {
        return None;
    }
    let z = chol
        .solve(&(0..p).map(|j| xty[j] / norms[j]).collect::<Vec<_>>())
        .ok()?;
    let coefficients: Vec<f64> = (0..p).map(|j| z[j] / norms[j]).collect();
    Some((ybar - dot(&coefficients, &mean), coefficients))
}

/// Rows gathered into one block of [`normal_equations`].
const BLOCK_ROWS: usize = 64;

/// Edge of the register tile of [`normal_equations`]: one
/// `TILE × TILE` block of the Gram stays in registers across a row block.
const TILE: usize = 8;

/// `(Σ v vᵀ, Σ v·t)` over `rows`, where `row(i, v)` fills `v` for row `i`
/// and returns its target `t`. Each entry sums its rows in the order
/// given; only the lower triangle, the half [`Cholesky`] reads, is formed.
///
/// The rows are gathered [`BLOCK_ROWS`] at a time into a zero-padded
/// block, and each lower `TILE × TILE` tile of the Gram takes the whole
/// block as a run of outer products in registers. Every entry still adds
/// its products one row at a time in row order, so the sums are the ones
/// a row-at-a-time update forms, bit for bit.
fn normal_equations(
    rows: &[usize],
    n: usize,
    row: &mut dyn FnMut(usize, &mut [f64]) -> f64,
) -> (Matrix, Vec<f64>) {
    let w = n.div_ceil(TILE) * TILE;
    let mut padded = vec![0.0; w * w];
    let mut rhs = vec![0.0; n];
    let mut block = vec![0.0; BLOCK_ROWS * w];
    let mut targets = [0.0; BLOCK_ROWS];
    for chunk in rows.chunks(BLOCK_ROWS) {
        for ((v, t), &i) in block.chunks_exact_mut(w).zip(&mut targets).zip(chunk) {
            *t = row(i, &mut v[..n]);
        }
        let block = &block[..chunk.len() * w];
        for j0 in (0..w).step_by(TILE) {
            for k0 in (0..=j0).step_by(TILE) {
                tile_update(&mut padded, w, j0, k0, block);
            }
        }
        for (v, &t) in block.chunks_exact(w).zip(&targets) {
            axpy(t, &v[..n], &mut rhs);
        }
    }
    let mut gram = Matrix::zeros(n, n);
    for j in 0..n {
        gram.row_mut(j)[..=j].copy_from_slice(&padded[j * w..j * w + j + 1]);
    }
    (gram, rhs)
}

/// Add `Σ_v v[j0 + a] · v[k0 + b]` over the block's rows `v` (width `w`)
/// to the tile of `gram` at `(j0, k0)`, one row after another.
#[inline]
fn tile_update(gram: &mut [f64], w: usize, j0: usize, k0: usize, block: &[f64]) {
    let mut acc = [[0.0; TILE]; TILE];
    for (a, out) in acc.iter_mut().enumerate() {
        out.copy_from_slice(&gram[(j0 + a) * w + k0..][..TILE]);
    }
    for v in block.chunks_exact(w) {
        let (vj, vk) = (&v[j0..j0 + TILE], &v[k0..k0 + TILE]);
        // An indexed inner loop over a slice: LLVM keeps each `acc` row
        // in one vector register. Iterating a fixed-size array here makes
        // it vectorize across rows instead, through memory.
        for (row, &a) in acc.iter_mut().zip(vj) {
            for c in 0..TILE {
                row[c] += a * vk[c];
            }
        }
    }
    for (a, out) in acc.iter().enumerate() {
        gram[(j0 + a) * w + k0..][..TILE].copy_from_slice(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_rows(x: &Matrix) -> Vec<usize> {
        (0..x.rows()).collect()
    }

    /// Residual 2-norm of the fit `(b0, b)` over every row.
    fn residual_norm(x: &Matrix, y: &[f64], b0: f64, b: &[f64]) -> f64 {
        (0..x.rows())
            .map(|i| (b0 + dot(b, x.row(i)) - y[i]).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Twelve rows whose first two columns are complementary, as swap
    /// used and swap free are (they sum to 2048).
    fn complementary_design() -> (Matrix, Vec<f64>) {
        let n = 12;
        let mut x = Matrix::zeros(n, 3);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let t = i as f64;
            let used = 300.0 + 40.0 * t + 7.0 * (0.9 * t).sin();
            x.row_mut(i)
                .copy_from_slice(&[used, 2048.0 - used, (0.4 * t).cos()]);
            y[i] = 900.0 - 1.5 * used + 20.0 * (0.4 * t).cos() + (1.3 * t).sin();
        }
        (x, y)
    }

    #[test]
    fn exact_square_solve() {
        // Three rows, intercept plus two slopes: a square system.
        let x = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[-1.0, 0.5]]);
        let y: Vec<f64> = (0..3).map(|i| 4.0 + dot(&[1.0, -1.0], x.row(i))).collect();
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        assert!((b0 - 4.0).abs() < 1e-12);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // y = 3 + 2t sampled with no noise at 5 points.
        let x = Matrix::from_vec(5, 1, (0..5).map(f64::from).collect());
        let y: Vec<f64> = (0..5).map(|t| 3.0 + 2.0 * f64::from(t)).collect();
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        assert!((b0 - 3.0).abs() < 1e-10);
        assert!((b[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn collinear_design_falls_back_to_ridge() {
        // Second column is 2x the first.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0], &[4.0, 8.0]]);
        let y = [3.0, 5.0, 7.0, 9.0];
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        assert!(residual_norm(&x, &y, b0, &b) < 1e-3);
    }

    #[test]
    fn underdetermined_falls_back_to_ridge() {
        // Two rows, four unknowns: an interpolating solution exists.
        let x = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
        let y = [3.0, 5.0];
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        let r = residual_norm(&x, &y, b0, &b);
        assert!(r < 1e-3, "residual {r}");
    }

    #[test]
    fn constant_column_and_bad_input() {
        // A constant column is collinear with the intercept.
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[2.0, 5.0], &[3.0, 5.0], &[4.0, 5.0]]);
        let y = [1.0, 3.0, 5.0, 7.0];
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        assert!(residual_norm(&x, &y, b0, &b) < 1e-3);
        assert!(matches!(
            ols(&x, &y[..3], &[0, 1, 2]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let mut bad = x.clone();
        bad[(1, 0)] = f64::NAN;
        assert!(matches!(
            ols(&bad, &y, &all_rows(&x)),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn index_list_fit_is_bit_identical_to_a_row_copy() {
        let (x, y) = complementary_design();
        let idx = [11, 0, 3, 3, 7, 5, 9, 1];
        let copy = x.select_rows(&idx);
        let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
        // Columns {0, 2} are full rank; all three take the ridge path.
        for cols in [&[0, 2][..], &[0, 1, 2]] {
            let (xc, copy_c) = (x.select_columns(cols), copy.select_columns(cols));
            let full_rank = centered_fit(&xc, &y, &idx, normal_equations).is_some();
            assert_eq!(full_rank, cols.len() == 2, "columns {cols:?}");
            let (b0, b) = ols(&xc, &y, &idx).unwrap();
            let (c0, c) = ols(&copy_c, &ys, &all_rows(&copy_c)).unwrap();
            assert_eq!(b0.to_bits(), c0.to_bits(), "columns {cols:?}");
            assert_eq!(b, c, "columns {cols:?}");
        }
    }

    #[test]
    fn ridge_path_keeps_the_qr_fallback_bits() {
        // Computed by the earlier QR-based least-squares solve, whose
        // ridge fallback the rank-deficient path must keep bit for bit.
        const GOLDEN: [u64; 4] = [
            0xbf34084054895465, // intercept -3.056675964548449e-4
            0xbff1157c179ce5ab, // -1.0677452967050651
            0x3fdc456fc53cf6a7, // 0.44173807393586134
            0x4031cd5f3ef722c5, // 17.802234587989705
        ];
        let (x, y) = complementary_design();
        let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
        let bits: Vec<u64> = std::iter::once(b0).chain(b).map(f64::to_bits).collect();
        assert_eq!(bits, GOLDEN);
    }

    /// The row-at-a-time update the blocked kernel replaced: each row
    /// adds its outer product to the lower triangle, one short axpy per
    /// Gram row.
    fn row_at_a_time(
        rows: &[usize],
        n: usize,
        row: &mut dyn FnMut(usize, &mut [f64]) -> f64,
    ) -> (Matrix, Vec<f64>) {
        let mut gram = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut v = vec![0.0; n];
        for &i in rows {
            let t = row(i, &mut v);
            for j in 0..n {
                axpy(v[j], &v[..=j], &mut gram.row_mut(j)[..=j]);
            }
            axpy(t, &v, &mut rhs);
        }
        (gram, rhs)
    }

    fn bits(b0: f64, b: &[f64]) -> Vec<u64> {
        std::iter::once(b0)
            .chain(b.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn blocked_normal_equations_keep_the_row_at_a_time_bits() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut branches = [0_usize; 2];
        // Widths 1..=40 cover partial tiles and more than four of them.
        for p in 1..=40_usize {
            // Row counts off the block edge, and one with no more rows
            // than columns (the ridge branch).
            for m in [
                p.div_ceil(2),
                BLOCK_ROWS - 1,
                BLOCK_ROWS + 1,
                2 * BLOCK_ROWS + 3,
            ] {
                for complementary in [false, true] {
                    let mut x = Matrix::zeros(m, p);
                    let mut y = vec![0.0; m];
                    for i in 0..m {
                        for j in 0..p {
                            x[(i, j)] = 100.0 * noise() + 10.0 * j as f64;
                        }
                        if complementary && p > 1 {
                            // Swap used and swap free: the ridge branch.
                            x[(i, 1)] = 2048.0 - x[(i, 0)];
                        }
                        y[i] = 500.0 + 50.0 * noise() + x[(i, 0)];
                    }
                    // A scrambled index list with one row repeated.
                    let mut rows: Vec<usize> = (0..m).map(|k| (7 * k + 3) % m).collect();
                    rows.push(rows[0]);
                    let full_rank = centered_fit(&x, &y, &rows, normal_equations).is_some();
                    assert_eq!(
                        full_rank,
                        centered_fit(&x, &y, &rows, row_at_a_time).is_some(),
                        "p {p}, m {m}"
                    );
                    branches[usize::from(full_rank)] += 1;
                    let (b0, b) = ols(&x, &y, &rows).unwrap();
                    let (r0, r) = fit(&x, &y, &rows, row_at_a_time).unwrap();
                    assert_eq!(bits(b0, &b), bits(r0, &r), "p {p}, m {m}, {complementary}");
                    let gram = |ne: NormalEquations| {
                        ne(&rows, p + 1, &mut |i, v| {
                            v[0] = 1.0;
                            v[1..].copy_from_slice(x.row(i));
                            y[i]
                        })
                    };
                    let ((g, t), (gr, tr)) = (gram(normal_equations), gram(row_at_a_time));
                    assert_eq!(bits(0.0, g.as_slice()), bits(0.0, gr.as_slice()));
                    assert_eq!(bits(0.0, &t), bits(0.0, &tr));
                }
            }
        }
        assert!(
            branches.iter().all(|&b| b > 40),
            "branches taken {branches:?}"
        );
    }

    proptest! {
        #[test]
        fn solve_minimizes_residual(
            vals in proptest::collection::vec(-5.0_f64..5.0, 18),
            bt in proptest::collection::vec(-3.0_f64..3.0, 4),
            noise in proptest::collection::vec(-0.1_f64..0.1, 6),
        ) {
            // A well-conditioned 6 x 3 design (identity block added).
            let mut x = Matrix::from_vec(6, 3, vals);
            for i in 0..3 { x[(i, i)] += 10.0; }
            let y: Vec<f64> = (0..6)
                .map(|i| bt[0] + dot(&bt[1..], x.row(i)) + noise[i])
                .collect();
            let (b0, b) = ols(&x, &y, &all_rows(&x)).unwrap();
            let r_opt = residual_norm(&x, &y, b0, &b);
            // No perturbation of the intercept or a slope lowers the residual.
            for j in 0..4 {
                for delta in [-1e-3, 1e-3] {
                    let (mut p0, mut pb) = (b0, b.clone());
                    if j == 0 { p0 += delta } else { pb[j - 1] += delta }
                    prop_assert!(residual_norm(&x, &y, p0, &pb) + 1e-12 >= r_opt);
                }
            }
        }
    }
}
