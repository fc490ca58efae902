//! Parallel row-Gram kernels.
//!
//! The kernel Gram matrices of the SVR/LS-SVM solvers reduce to one
//! primitive: [`syrk_rows`] / [`syrk_rows_upper`], the symmetric rank-k
//! update `G = X·Xᵀ` over *rows* (a `rows × rows` Gram, the
//! transpose-free counterpart of [`Matrix::gram`]'s `AᵀA`). It falls back
//! to straight serial loops below a size threshold and fans out over
//! `std::thread::scope` above it, handing each worker a disjoint band of
//! output rows (no synchronization, no unsafe).
//!
//! Every kernel sums over the shared dimension in plain ascending order
//! (`k = 0, 1, …`), so a naive three-loop reference with a sequential
//! inner sum reproduces the serial *and* parallel results
//! **bit-for-bit** — the property tests below assert exact equality, not
//! closeness.

use crate::Matrix;

/// Minimum number of output elements before any of the kernels spawns
/// worker threads. Below this the spawn/join overhead (~10 µs/thread)
/// is comparable to the whole computation.
pub const PARALLEL_MIN_ELEMS: usize = 64 * 1024;

/// Worker count for a kernel producing `elems` output elements across
/// `rows` distributable rows: 1 below [`PARALLEL_MIN_ELEMS`], otherwise
/// the effective pool width ([`crate::pool_threads`]) capped by the row
/// count.
pub fn worker_count(rows: usize, elems: usize) -> usize {
    if elems < PARALLEL_MIN_ELEMS || rows < 2 {
        return 1;
    }
    crate::pool_threads().min(rows).max(1)
}

/// Row Gram matrix `G = X·Xᵀ` (symmetric, `rows × rows`), computing only
/// the upper triangle and mirroring it into the lower one.
pub fn syrk_rows(x: &Matrix) -> Matrix {
    let mut g = syrk_rows_upper_scratch(x);
    mirror_upper(&mut g);
    g
}

/// Upper-triangular half of `X·Xᵀ`: entries `(i, j)` with `j ≥ i` are
/// filled, the strict lower triangle is left at zero. Callers that
/// post-process the triangle (e.g. the RBF distance transform) mirror
/// afterwards via [`mirror_upper`] to avoid touching entries twice.
pub fn syrk_rows_upper(x: &Matrix) -> Matrix {
    let mut g = syrk_rows_upper_scratch(x);
    let n = g.rows();
    let data = g.as_mut_slice();
    for i in 1..n {
        data[i * n..i * n + i].fill(0.0);
    }
    g
}

/// [`syrk_rows_upper`] into a pooled scratch matrix: the upper triangle
/// (including the diagonal) holds `X·Xᵀ`, the strict lower triangle is
/// **unspecified**. The fast path for callers that overwrite the lower
/// half anyway ([`syrk_rows`], the RBF Gram transform) — skipping the
/// zero-fill also skips the page faults of a fresh allocation, which
/// cost more than the arithmetic at campaign scale.
pub fn syrk_rows_upper_scratch(x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut g = Matrix::scratch(n, n);
    if n == 0 {
        return g;
    }
    // One shared transpose so the register tiles stream contiguous
    // feature rows (columns of `x`); for the campaign shapes this is a
    // few hundred KiB, amortized across every band and panel.
    let xt = x.transpose();
    let workers = worker_count(n, n * n / 2);
    on_triangle_bands(g.as_mut_slice(), n, workers, |first_row, band| {
        syrk_band(x, &xt, first_row, band)
    });
    g
}

/// Register-tile shape of the syrk microkernel: [`SYRK_TILE_ROWS`] ×
/// [`SYRK_TILE_COLS`] accumulators live in registers across the whole
/// `k` sweep, so each Gram entry is stored exactly once, and the eight
/// row chains give the FMA units independent work — a single
/// accumulator vector serializes on the multiply-add latency and runs
/// severalfold slower on the same data.
const SYRK_TILE_COLS: usize = 8;
const SYRK_TILE_ROWS: usize = 8;

/// Sequential dot of `a` against column `j` of `xt` (ascending `k`),
/// the scalar edge/tail path of the syrk kernel.
#[inline]
fn dot_col_seq(a: &[f64], xt: &Matrix, j: usize) -> f64 {
    let mut s = 0.0;
    for (k, &aik) in a.iter().enumerate() {
        s += aik * xt[(k, j)];
    }
    s
}

/// Upper-triangle kernel for one row band: walk the band in
/// [`SYRK_TILE_ROWS`]-row groups and [`SYRK_TILE_COLS`]-wide column
/// tiles of the transposed operand, accumulating `Σ_k x_ik · x_jk` in
/// registers in plain ascending-`k` order. The triangle's ragged edge
/// (columns left of the tile rows' diagonals) and tile tails fall back
/// to the scalar column dot, which accumulates in the same order.
fn syrk_band(x: &Matrix, xt: &Matrix, first_row: usize, band: &mut [f64]) {
    // The tile loop streams `p` rows of
    // `xt` at once, and `p x SYRK_BLOCK_COLS` doubles must stay L1-resident
    // alongside the tile rows of `x` and the output slices.
    const SYRK_BLOCK_COLS: usize = 128;
    let n = x.rows();
    let rows = band.len() / n.max(1);
    for jj in (first_row..n).step_by(SYRK_BLOCK_COLS) {
        let jend = (jj + SYRK_BLOCK_COLS).min(n);
        let mut local = 0;
        while local < rows {
            let i0 = first_row + local;
            if i0 >= jend {
                break;
            }
            if rows - local < SYRK_TILE_ROWS || i0 + SYRK_TILE_ROWS > jend {
                // Not enough rows (or panel too short) for a full tile:
                // single-row scalar sweep.
                let arow = x.row(i0);
                let grow = &mut band[local * n..(local + 1) * n];
                for j in jj.max(i0)..jend {
                    grow[j] = dot_col_seq(arow, xt, j);
                }
                local += 1;
                continue;
            }
            let arows: [&[f64]; SYRK_TILE_ROWS] = std::array::from_fn(|r| x.row(i0 + r));
            // Vectorizable region starts where all tile rows are on or
            // right of the diagonal; the ragged edge before it is scalar.
            let vstart = jj.max(i0 + SYRK_TILE_ROWS - 1);
            for (r, arow) in arows.iter().enumerate() {
                let grow = &mut band[(local + r) * n..(local + r + 1) * n];
                for j in jj.max(i0 + r)..vstart {
                    grow[j] = dot_col_seq(arow, xt, j);
                }
            }
            let mut j = vstart;
            while j + SYRK_TILE_COLS <= jend {
                let mut acc = [[0.0f64; SYRK_TILE_COLS]; SYRK_TILE_ROWS];
                for k in 0..x.cols() {
                    let xr = &xt.row(k)[j..j + SYRK_TILE_COLS];
                    for (accr, arow) in acc.iter_mut().zip(arows.iter()) {
                        let a = arow[k];
                        for w in 0..SYRK_TILE_COLS {
                            accr[w] += a * xr[w];
                        }
                    }
                }
                for (r, vals) in acc.iter().enumerate() {
                    let at = (local + r) * n + j;
                    band[at..at + SYRK_TILE_COLS].copy_from_slice(vals);
                }
                j += SYRK_TILE_COLS;
            }
            for (r, arow) in arows.iter().enumerate() {
                let grow = &mut band[(local + r) * n..(local + r + 1) * n];
                for jt in j..jend {
                    grow[jt] = dot_col_seq(arow, xt, jt);
                }
            }
            local += SYRK_TILE_ROWS;
        }
    }
}

/// Copy the upper triangle of a square matrix onto its strict lower
/// triangle, making it symmetric. Tiled so both the row-wise writes and
/// the column-wise reads stay within a cache-resident square.
pub fn mirror_upper(g: &mut Matrix) {
    let n = g.rows();
    debug_assert_eq!(n, g.cols(), "mirror_upper needs a square matrix");
    const TILE: usize = 32;
    for ii in (0..n).step_by(TILE) {
        let iend = (ii + TILE).min(n);
        for jj in (0..=ii).step_by(TILE) {
            let jend = (jj + TILE).min(n);
            for i in ii..iend {
                for j in jj..jend.min(i) {
                    g[(i, j)] = g[(j, i)];
                }
            }
        }
    }
}

/// Run `f(first_row, band)` over row bands of a square `n × n` buffer,
/// fanning out over `workers` scoped threads. Band boundaries equalize
/// *upper-triangle* area (row `i` carries `n − i` entries), so triangular
/// kernels like [`syrk_rows_upper`] stay load-balanced; for full-row
/// kernels the skew is harmless.
pub fn on_triangle_bands<F>(data: &mut [f64], n: usize, workers: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(data.len(), n * n);
    if workers <= 1 || n < 2 {
        f(0, data);
        return;
    }
    // Row boundaries with ~equal triangle area per band.
    let total = n * (n + 1) / 2;
    let target = total.div_ceil(workers);
    let mut bounds = vec![0usize];
    let mut acc = 0usize;
    for i in 0..n {
        acc += n - i;
        if acc >= target && *bounds.last().unwrap() < i + 1 {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    if *bounds.last().unwrap() != n {
        bounds.push(n);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = data;
        for w in bounds.windows(2) {
            let (start, end) = (w[0], w[1]);
            let (band, tail) = rest.split_at_mut((end - start) * n);
            rest = tail;
            scope.spawn(move || f(start, band));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference X·Xᵀ: naive triple loop with a plain sequential inner
    /// sum — the accumulation order every blocked kernel must reproduce.
    fn naive_syrk(x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..x.cols() {
                    s += x[(i, k)] * x[(j, k)];
                }
                g[(i, j)] = s;
            }
        }
        g
    }

    fn deterministic(rows: usize, cols: usize, phase: f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = ((i * cols + j) as f64 * 0.37 + phase).sin() * 3.0;
            }
        }
        m
    }

    #[test]
    fn syrk_matches_naive_bitwise_across_sizes() {
        for n in [1, 2, 31, 32, 33, 97, 260] {
            let x = deterministic(n, 7, 0.5);
            assert_eq!(syrk_rows(&x), naive_syrk(&x), "n = {n}");
        }
    }

    #[test]
    fn parallel_syrk_matches_naive_bitwise() {
        let x = deterministic(400, 11, 0.9);
        const { assert!(400 * 400 / 2 >= PARALLEL_MIN_ELEMS) };
        assert_eq!(syrk_rows(&x), naive_syrk(&x));
    }

    #[test]
    fn syrk_upper_leaves_lower_zero() {
        let x = deterministic(5, 3, 0.2);
        let g = syrk_rows_upper(&x);
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(g[(i, j)], 0.0);
            }
            assert!(g[(i, i)] > 0.0 || x.row(i).iter().all(|v| *v == 0.0));
        }
    }

    #[test]
    fn mirror_makes_symmetric() {
        let n = 130; // crosses the mirror tile size
        let mut g = deterministic(n, n, 0.8);
        mirror_upper(&mut g);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(g[(i, j)], g[(j, i)], "({i},{j})");
            }
        }
    }

    #[test]
    fn triangle_bands_cover_every_row_once() {
        let n = 130;
        let mut data = vec![0.0; n * n];
        on_triangle_bands(&mut data, n, 4, |first, band| {
            let rows = band.len() / n;
            for local in 0..rows {
                band[local * n] = (first + local) as f64 + 1.0;
            }
        });
        for i in 0..n {
            assert_eq!(data[i * n], i as f64 + 1.0, "row {i} visited once");
        }
    }

    proptest! {
        #[test]
        fn prop_syrk_matches_naive(
            vals in proptest::collection::vec(-10.0_f64..10.0, 48),
            cols in 1usize..8,
        ) {
            let rows = 48 / cols;
            let a = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec());
            prop_assert_eq!(syrk_rows(&a), naive_syrk(&a));
        }
    }
}
