//! Sliding-window maintenance of Cholesky factors.
//!
//! A sliding-window retrain retires the `r` leading rows/columns of the
//! factored matrix and borders it by `k` incoming ones. One kernel,
//! [`Cholesky::shift_window`], does every such shift — equal or unequal,
//! retire-only (`k = 0`) or extend-only (`r = 0`) — so the engine never
//! pays the `O(n³)` refactorization for an `O(k)`-row window shift:
//!
//! * **Kept rows.** The trailing block of the old factor already
//!   satisfies `A₂₂ = L₂₂L₂₂ᵀ + L₂₁L₂₁ᵀ`, so the kept rows' new factor is
//!   a *positive* rank-`r` recombination, annihilated row by row with
//!   Householder reflections. Unconditionally stable (it is a QR
//!   factorization in disguise), so it never needs a conditioning guard.
//! * **Border rows.** The cross block `B` is forward-solved against the
//!   new kept factor (`Y = L'⁻¹B`), and the `k × k` Schur complement
//!   `C − YᵀY` is factored. Only this step can fail: a non-positive-
//!   definite border reports [`LinalgError::NotPositiveDefinite`] with
//!   the absolute pivot index.
//!
//! Both happen in **one left-looking sweep** over the triangle, in blocks
//! of [`LANES`] kept rows. Each block is slid into place from source
//! offset `r`, held transposed (`[column][row]`) so the block's rows are
//! the SIMD lanes, receives every earlier pivot's reflection — each inner
//! loop an 8-wide multiply-add with no horizontal reduction — then
//! finishes its own pivots serially and forward-solves the border rows
//! against itself while it is still in cache. The earlier pivots'
//! reflectors live in a small `m × ⌈r/8⌉·8` store (each coupling row as
//! it stood at its pivot, plus `v₀` and `τ`), so no kept row is read
//! twice. Every row receives the same reflections in the same pivot
//! order as the textbook row-by-row recombination; only the summation
//! order inside a reflection's projection differs.
//!
//! The multi-RHS solve ([`Cholesky::solve_multi`]) keeps the right-hand
//! sides interleaved row-major (`n × k`, one row per unknown) so both
//! substitution sweeps run contiguous length-`k` axpys — this is the
//! "triangular-solve plumbing" that lets the LS-SVM refresh its dual
//! solution from an updated factor at `O(n²)` instead of rebuilding and
//! refactoring the Gram matrix.

use crate::{Cholesky, LinalgError, Matrix, Result};

/// Kept rows per sweep block: one 512-bit vector of `f64` lanes.
const LANES: usize = 8;

/// One value per row of a sweep block.
type Lanes = [f64; LANES];

impl Cholesky {
    /// One sliding-window shift: retire the `r` leading rows/columns of
    /// the factored matrix and border it by `k = c.rows()` incoming ones,
    /// leaving the factor of order `n − r + k`.
    ///
    /// `b` is the `(n − r) × k` cross block between the kept and the new
    /// rows; `c` the `k × k` diagonal block of the new rows (only its
    /// lower triangle is read). Cost `O((n−r)²·(r + k))`.
    ///
    /// When `r == k` (the factored order is unchanged — the continuous-
    /// retraining steady state) the shift runs inside the factor's own
    /// buffer; otherwise it writes one new buffer of the new order. On
    /// error (non-positive-definite shifted window, non-finite border) an
    /// `r ≠ k` shift leaves the factor untouched, but an `r == k` one
    /// **leaves it unusable** and the caller must rebuild cold — which is
    /// exactly the retrain engine's fallback contract.
    pub fn shift_window(&mut self, r: usize, b: &Matrix, c: &Matrix) -> Result<()> {
        let n = self.order();
        let k = c.rows();
        if r > n || b.rows() != n - r || b.cols() != k || c.cols() != k {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky shift_window",
                lhs: b.shape(),
                rhs: c.shape(),
            });
        }
        if !b.is_finite() || !c.is_finite() {
            return Err(LinalgError::NonFinite {
                what: "cholesky shift blocks",
            });
        }
        if r == 0 && k == 0 {
            return Ok(());
        }
        self.sweep(r, b, c)
    }

    /// The one row sweep behind [`Cholesky::shift_window`]: retire the
    /// `r` leading rows, then border by `b`, `c`.
    fn sweep(&mut self, r: usize, b: &Matrix, c: &Matrix) -> Result<()> {
        let n = self.order();
        let k = c.rows();
        let m = n - r;
        // In place, destination row i overwrites source row i — the source
        // of kept row i − r, which the sweep has already loaded — and its
        // entries past the diagonal are already zero, so only lower
        // triangles are written.
        let mut fresh = (m + k != n).then(|| Matrix::zeros(m + k, m + k));
        let mut sweep = Sweep::new(m, r, k);
        let mut i0 = 0;
        while i0 < m {
            let rows = LANES.min(m - i0);
            sweep.load(&self.l, i0, rows);
            sweep.fold(i0, rows)?;
            sweep.solve_border(b, i0, rows);
            sweep.store(fresh.as_mut().unwrap_or(&mut self.l), i0, rows);
            i0 += rows;
        }
        sweep.factor_border(fresh.as_mut().unwrap_or(&mut self.l), c)?;
        if let Some(l) = fresh {
            self.l = l;
        }
        Ok(())
    }

    /// Solve `A X = B` for `k` right-hand sides stored *row-major
    /// interleaved*: `b` is `n × k` with row `i` holding the `i`-th entry
    /// of every right-hand side. Both substitution sweeps then run
    /// contiguous length-`k` axpys instead of `k` independent strided
    /// solves. Returns `X` in the same layout.
    pub fn solve_multi(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.order();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_multi",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut y = b.clone();
        self.forward_multi_in_place(&mut y);
        self.backward_multi_in_place(&mut y);
        Ok(y)
    }

    /// Forward substitution `L Y = B` over `k` interleaved right-hand
    /// sides, in place.
    fn forward_multi_in_place(&self, y: &mut Matrix) {
        let n = self.order();
        let k = y.cols();
        if k == 0 {
            return;
        }
        if k == 2 {
            return self.forward_2rhs(y.as_mut_slice());
        }
        // Row-panel blocking: rows [i0, i1) first absorb every already-
        // solved row — j-blocked so a block of solved rows stays in cache
        // across the whole panel instead of being re-streamed per row,
        // and solved-row pairs fused into one sweep of the target row —
        // then solve against the panel's own triangle.
        const PANEL: usize = 64;
        let data = y.as_mut_slice();
        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + PANEL).min(n);
            let (solved, rest) = data.split_at_mut(i0 * k);
            let block = &mut rest[..(i1 - i0) * k];
            for jj in (0..i0).step_by(PANEL) {
                let jend = (jj + PANEL).min(i0);
                for (local, yi) in block.chunks_exact_mut(k).enumerate() {
                    let li = self.l.row(i0 + local);
                    let mut j = jj;
                    while j + 1 < jend {
                        crate::axpy2(
                            -li[j],
                            &solved[j * k..(j + 1) * k],
                            -li[j + 1],
                            &solved[(j + 1) * k..(j + 2) * k],
                            yi,
                        );
                        j += 2;
                    }
                    if j < jend {
                        crate::axpy(-li[j], &solved[j * k..(j + 1) * k], yi);
                    }
                }
            }
            for i in i0..i1 {
                let li = self.l.row(i);
                let (done, cur) = block.split_at_mut((i - i0) * k);
                let yi = &mut cur[..k];
                for (j, &lij) in li[i0..i].iter().enumerate() {
                    crate::axpy(-lij, &done[j * k..(j + 1) * k], yi);
                }
                let inv = 1.0 / li[i];
                for a in yi.iter_mut() {
                    *a *= inv;
                }
            }
            i0 = i1;
        }
    }

    /// Forward substitution specialised to two interleaved right-hand
    /// sides (the engine's `(1 | y)` dual refresh): both accumulators
    /// live in registers across the whole gather over the contiguous
    /// `L` row, with two partial chains per side to hide add latency.
    fn forward_2rhs(&self, data: &mut [f64]) {
        for i in 0..self.order() {
            let li = self.l.row(i);
            let (solved, cur) = data.split_at_mut(2 * i);
            let (mut a0, mut a1, mut b0, mut b1) = (0.0, 0.0, 0.0, 0.0);
            let mut quads = solved.chunks_exact(4);
            let mut lj = li[..i].chunks_exact(2);
            for (s, l2) in (&mut quads).zip(&mut lj) {
                a0 += l2[0] * s[0];
                b0 += l2[0] * s[1];
                a1 += l2[1] * s[2];
                b1 += l2[1] * s[3];
            }
            if let (&[s0, s1], &[l0]) = (quads.remainder(), lj.remainder()) {
                a0 += l0 * s0;
                b0 += l0 * s1;
            }
            let inv = 1.0 / li[i];
            cur[0] = (cur[0] - (a0 + a1)) * inv;
            cur[1] = (cur[1] - (b0 + b1)) * inv;
        }
    }

    /// Back substitution specialised to two right-hand sides: the solved
    /// pair stays in registers while the pending column is swept once in
    /// scatter form (the gather form would stride down a column of `L`).
    fn backward_2rhs(&self, data: &mut [f64]) {
        let n = self.order();
        for i in (0..n).rev() {
            let li = self.l.row(i);
            let (pending, rest) = data.split_at_mut(2 * i);
            let inv = 1.0 / li[i];
            let a = rest[0] * inv;
            let b = rest[1] * inv;
            rest[0] = a;
            rest[1] = b;
            for (p, &lij) in pending.chunks_exact_mut(2).zip(li[..i].iter()) {
                p[0] -= lij * a;
                p[1] -= lij * b;
            }
        }
    }

    /// Back substitution `Lᵀ X = Y` over `k` interleaved right-hand sides,
    /// in place (outer-product form: row `i` of `L` is read contiguously).
    fn backward_multi_in_place(&self, y: &mut Matrix) {
        let n = self.order();
        let k = y.cols();
        if k == 0 {
            return;
        }
        if k == 2 {
            return self.backward_2rhs(y.as_mut_slice());
        }
        let data = y.as_mut_slice();
        for i in (0..n).rev() {
            let li = self.l.row(i);
            let (pending, rest) = data.split_at_mut(i * k);
            let yi = &mut rest[..k];
            let inv = 1.0 / li[i];
            for a in yi.iter_mut() {
                *a *= inv;
            }
            for (j, &lij) in li[..i].iter().enumerate() {
                let yj = &mut pending[j * k..(j + 1) * k];
                for (a, &b) in yj.iter_mut().zip(yi.iter()) {
                    *a -= lij * b;
                }
            }
        }
    }
}

/// Working state of one [`Cholesky::sweep`] over `m` kept rows, `r`
/// retired columns and `k` border rows.
struct Sweep {
    m: usize,
    r: usize,
    /// `r` rounded up to whole [`LANES`] groups; the padding columns of
    /// the coupling block start at zero and every reflection keeps them
    /// there, so they change no result.
    rs: usize,
    k: usize,
    /// The current block's factor columns: `cols[q][lane]` is column `q`
    /// of kept row `i0 + lane`.
    cols: Vec<Lanes>,
    /// The current block's retired coupling: `coupling[c][lane]`.
    coupling: Vec<Lanes>,
    /// Pivot `j`'s coupling row as it stood at its pivot (`rs` wide).
    u: Vec<f64>,
    /// Pivot `j`'s reflector scalars `v₀ⱼ`, `τⱼ` (`τⱼ = 0`: none).
    v0: Vec<f64>,
    tau: Vec<f64>,
    /// Border rows solved so far, `k × m` row-major: `Y = L'⁻¹B`.
    y: Vec<f64>,
}

impl Sweep {
    fn new(m: usize, r: usize, k: usize) -> Self {
        let rs = r.next_multiple_of(LANES);
        Sweep {
            m,
            r,
            rs,
            k,
            cols: vec![[0.0; LANES]; m.next_multiple_of(LANES)],
            coupling: vec![[0.0; LANES]; rs],
            u: vec![0.0; m * rs],
            v0: vec![0.0; m],
            tau: vec![0.0; m],
            y: vec![0.0; k * m],
        }
    }

    /// Slide kept rows `i0..i0 + rows` into the block, transposed. Kept
    /// row `i` is source row `r + i` with its coupling in that row's first
    /// `r` columns. Unused lanes of a short last block are zeroed.
    fn load(&mut self, l: &Matrix, i0: usize, rows: usize) {
        let r = self.r;
        let last = i0 + rows - 1;
        // Column by column, so each block column is written as one whole
        // cache line while the source rows stream in step. Unused lanes
        // repeat the last row until they are zeroed below.
        let src: [&[f64]; LANES] =
            std::array::from_fn(|lane| &l.row(r + last.min(i0 + lane))[..r + i0]);
        for (c, cw) in self.coupling[..r].iter_mut().enumerate() {
            *cw = std::array::from_fn(|lane| src[lane][c]);
        }
        for (q, col) in self.cols[..i0].iter_mut().enumerate() {
            *col = std::array::from_fn(|lane| src[lane][r + q]);
        }
        for (q, col) in self.cols[i0..i0 + LANES].iter_mut().enumerate() {
            *col = std::array::from_fn(|lane| {
                if q <= lane && lane < rows {
                    l[(r + i0 + lane, r + i0 + q)]
                } else {
                    0.0
                }
            });
        }
        if rows < LANES {
            for cw in self.coupling[..r].iter_mut().chain(&mut self.cols[..i0]) {
                cw[rows..].fill(0.0);
            }
        }
    }

    /// Apply every earlier pivot's reflection to the block, then finish
    /// the block's own pivots in order.
    fn fold(&mut self, i0: usize, rows: usize) -> Result<()> {
        let rs = self.rs;
        if rs > 0 {
            for j in 0..i0 {
                if self.tau[j] != 0.0 {
                    reflect(
                        &mut self.cols[j],
                        &mut self.coupling,
                        &self.u[j * rs..(j + 1) * rs],
                        self.v0[j],
                        self.tau[j],
                    );
                }
            }
        }
        for lane in 0..rows {
            let j = i0 + lane;
            let d = self.cols[j][lane];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let uj = &mut self.u[j * rs..(j + 1) * rs];
            for (u, w) in uj.iter_mut().zip(&self.coupling) {
                *u = w[lane];
            }
            let sigma = crate::dot(uj, uj);
            if sigma == 0.0 {
                continue; // τ = 0: nothing to annihilate.
            }
            let rho = (d * d + sigma).sqrt();
            if !rho.is_finite() {
                return Err(LinalgError::NonFinite {
                    what: "cholesky rank update pivot",
                });
            }
            // Cancellation-free v₀ = d − ρ, so the new pivot comes out +ρ.
            let v0 = -sigma / (d + rho);
            let tau = 2.0 / (v0 * v0 + sigma);
            // All lanes take the reflection: the block's finished rows
            // only change entries above their diagonal (never stored) and
            // coupling they no longer need.
            reflect(&mut self.cols[j], &mut self.coupling, uj, v0, tau);
            self.cols[j][lane] = rho;
            self.v0[j] = v0;
            self.tau[j] = tau;
        }
        Ok(())
    }

    /// Forward-solve the border rows' entries for the block's columns.
    fn solve_border(&mut self, b: &Matrix, i0: usize, rows: usize) {
        for t in 0..self.k {
            let y = &mut self.y[t * self.m..(t + 1) * self.m];
            let acc = lanes_dot(&self.cols[..i0], &y[..i0]);
            for lane in 0..rows {
                let i = i0 + lane;
                let mut s = b[(i, t)] - acc[lane];
                for q in i0..i {
                    s -= self.cols[q][lane] * y[q];
                }
                y[i] = s / self.cols[i][lane];
            }
        }
    }

    /// Write the finished block into destination rows `i0..i0 + rows`.
    fn store(&self, dst: &mut Matrix, i0: usize, rows: usize) {
        let stride = dst.cols();
        let block = &mut dst.as_mut_slice()[i0 * stride..(i0 + rows) * stride];
        // Column by column, mirroring `load`.
        for (q, col) in self.cols[..i0].iter().enumerate() {
            for (lane, &v) in col[..rows].iter().enumerate() {
                block[lane * stride + q] = v;
            }
        }
        for (lane, row) in block.chunks_exact_mut(stride).enumerate() {
            for (v, col) in row[i0..=i0 + lane].iter_mut().zip(&self.cols[i0..]) {
                *v = col[lane];
            }
        }
    }

    /// Factor the border's Schur complement `C − YYᵀ` and write the `k`
    /// border rows `[Y | L_S]` after the kept ones.
    fn factor_border(&self, dst: &mut Matrix, c: &Matrix) -> Result<()> {
        let (m, k) = (self.m, self.k);
        if k == 0 {
            return Ok(());
        }
        let y = |t: usize| &self.y[t * m..(t + 1) * m];
        // `factor` only reads the lower triangle.
        let mut s = Matrix::scratch(k, k);
        for t in 0..k {
            for u in 0..=t {
                s[(t, u)] = c[(t, u)] - crate::dot(y(t), y(u));
            }
        }
        let ls = match Cholesky::factor(&s) {
            Ok(f) => f,
            Err(LinalgError::NotPositiveDefinite { pivot }) => {
                return Err(LinalgError::NotPositiveDefinite { pivot: m + pivot })
            }
            Err(e) => return Err(e),
        };
        for t in 0..k {
            let row = dst.row_mut(m + t);
            row[..m].copy_from_slice(y(t));
            row[m..=m + t].copy_from_slice(&ls.l.row(t)[..=t]);
        }
        Ok(())
    }
}

/// `Σ_q cols[q]·x[q]` per lane, in four interleaved partial sums so the
/// adds do not serialize on one accumulator.
fn lanes_dot(cols: &[Lanes], x: &[f64]) -> Lanes {
    let mut acc = [[0.0; LANES]; 4];
    let mut quads = cols.chunks_exact(4);
    let mut xq = x.chunks_exact(4);
    for (c4, x4) in (&mut quads).zip(&mut xq) {
        for (a, (c, &xv)) in acc.iter_mut().zip(c4.iter().zip(x4)) {
            for lane in 0..LANES {
                a[lane] += c[lane] * xv;
            }
        }
    }
    for (a, (c, &xv)) in acc
        .iter_mut()
        .zip(quads.remainder().iter().zip(xq.remainder()))
    {
        for lane in 0..LANES {
            a[lane] += c[lane] * xv;
        }
    }
    let mut out = [0.0; LANES];
    for lane in 0..LANES {
        out[lane] = (acc[0][lane] + acc[1][lane]) + (acc[2][lane] + acc[3][lane]);
    }
    out
}

/// Apply one stored reflection `H = I − τvvᵀ`, `v = [v₀ eⱼ | u]`, to every
/// lane of a block: `col` is the block's column `j`, `coupling` its
/// coupling rows.
fn reflect(col: &mut Lanes, coupling: &mut [Lanes], u: &[f64], v0: f64, tau: f64) {
    let proj = lanes_dot(coupling, u);
    let mut coef = [0.0; LANES];
    for lane in 0..LANES {
        coef[lane] = tau * (v0 * col[lane] + proj[lane]);
        col[lane] -= coef[lane] * v0;
    }
    // Whole LANES-row groups with fixed-size inner loops: every update is
    // one vector op. (Over a variable-length row loop the compiler
    // vectorizes across rows instead, with gathers and scatters.)
    for (w8, u8) in coupling.chunks_exact_mut(LANES).zip(u.chunks_exact(LANES)) {
        for (w, &uc) in w8.iter_mut().zip(u8) {
            for lane in 0..LANES {
                w[lane] -= coef[lane] * uc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random stream in [-1, 1).
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    /// Random SPD matrix `M Mᵀ + ridge·I` of order `n`.
    fn spd(n: usize, seed: u64, ridge: f64) -> Matrix {
        let mut next = rng(seed);
        let mut m = Matrix::zeros(n, n);
        for v in m.as_mut_slice() {
            *v = next();
        }
        let mut a = crate::syrk_rows(&m);
        for i in 0..n {
            a[(i, i)] += ridge;
        }
        a
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut next = rng(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = next();
        }
        m
    }

    /// Max elementwise difference between two factors, scaled.
    fn factor_diff(a: &Cholesky, b: &Cholesky) -> f64 {
        assert_eq!(a.order(), b.order());
        let mut worst = 0.0_f64;
        for i in 0..a.order() {
            for j in 0..=i {
                let scale = b.l()[(i, j)].abs().max(1.0);
                worst = worst.max((a.l()[(i, j)] - b.l()[(i, j)]).abs() / scale);
            }
        }
        worst
    }

    /// `a[rows, cols]` for half-open index ranges.
    fn block(a: &Matrix, rows: (usize, usize), cols: (usize, usize)) -> Matrix {
        a.select_rows(&(rows.0..rows.1).collect::<Vec<_>>())
            .select_columns(&(cols.0..cols.1).collect::<Vec<_>>())
    }

    /// Factor the window `[0, n)` of a random SPD matrix of order `n + k`,
    /// shift it by `r` rows out and `k` in, and return it next to the cold
    /// factor of the shifted window `[r, n + k)`.
    fn shifted_and_cold(n: usize, r: usize, k: usize, seed: u64) -> (Cholesky, Cholesky) {
        let total = n + k;
        let a = spd(total, seed, total as f64);
        let mut warm = Cholesky::factor(&block(&a, (0, n), (0, n))).unwrap();
        let b = block(&a, (r, n), (n, total));
        let c = block(&a, (n, total), (n, total));
        warm.shift_window(r, &b, &c).unwrap();
        let cold = Cholesky::factor(&block(&a, (r, total), (r, total))).unwrap();
        (warm, cold)
    }

    #[test]
    fn extend_only_shift_matches_cold_factor() {
        for (n, k) in [(1, 1), (8, 3), (40, 7), (64, 64)] {
            let (warm, cold) = shifted_and_cold(n, 0, k, 11 + n as u64);
            let diff = factor_diff(&warm, &cold);
            assert!(diff < 1e-10, "n={n} k={k}: {diff:e}");
        }
    }

    #[test]
    fn retire_only_shift_matches_cold_factor() {
        for (n, r) in [(2, 1), (10, 3), (50, 13), (64, 1)] {
            let (warm, cold) = shifted_and_cold(n, r, 0, 29 + r as u64);
            let diff = factor_diff(&warm, &cold);
            assert!(diff < 1e-10, "n={n} r={r}: {diff:e}");
        }
    }

    #[test]
    fn shift_window_matches_cold_factor() {
        // Seeds are the ones the equal (131 + n) and unequal (177 + n + r)
        // cases have always used.
        for (n, r, k, seed) in [
            // equal, in place
            (2, 1, 1, 133),
            (12, 4, 4, 143),
            (40, 8, 8, 171),
            (70, 16, 16, 201),
            (90, 40, 40, 221),
            // unequal
            (20, 3, 7, 200),
            (30, 9, 2, 216),
            (60, 7, 8, 244),
            (60, 8, 6, 245),
            (33, 17, 5, 227),
            // the whole window
            (5, 5, 0, 187),
            (6, 6, 3, 189),
        ] {
            let (warm, cold) = shifted_and_cold(n, r, k, seed);
            let diff = factor_diff(&warm, &cold);
            assert!(diff < 1e-10, "n={n} r={r} k={k}: {diff:e}");
        }
    }

    #[test]
    fn retire_all_rows_gives_empty_factor() {
        let empty = Matrix::zeros(0, 0);
        let mut ch = Cholesky::factor(&spd(5, 1, 5.0)).unwrap();
        ch.shift_window(5, &empty, &empty).unwrap();
        assert_eq!(ch.order(), 0);
        assert!(Cholesky::factor(&spd(3, 1, 3.0))
            .unwrap()
            .shift_window(4, &empty, &empty)
            .is_err());
    }

    #[test]
    fn equal_shift_keeps_the_factor_buffer() {
        let (n, r) = (40, 7);
        let a = spd(n + r, 5, (n + r) as f64);
        let mut ch = Cholesky::factor(&block(&a, (0, n), (0, n))).unwrap();
        let before = ch.l().as_slice().as_ptr();
        let b = block(&a, (r, n), (n, n + r));
        let c = block(&a, (n, n + r), (n, n + r));
        ch.shift_window(r, &b, &c).unwrap();
        assert_eq!(ch.order(), n);
        assert_eq!(ch.l().as_slice().as_ptr(), before, "r == k reallocated");
    }

    #[test]
    fn extend_only_shift_rejects_indefinite_border_and_keeps_factor() {
        let n = 6;
        let a = spd(n, 3, n as f64);
        let mut ch = Cholesky::factor(&a).unwrap();
        let before = ch.l().clone();
        // A huge cross block makes the Schur complement indefinite.
        let mut b = Matrix::zeros(n, 2);
        for v in b.as_mut_slice() {
            *v = 100.0;
        }
        let c = Matrix::identity(2);
        match ch.shift_window(0, &b, &c) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => {
                assert!(pivot >= n, "pivot {pivot} should be absolute");
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert_eq!(
            ch.l().as_slice(),
            before.as_slice(),
            "factor must be untouched"
        );
    }

    #[test]
    fn solve_multi_matches_per_column_solve() {
        let n = 20;
        let k = 5;
        let a = spd(n, 5, n as f64);
        let ch = Cholesky::factor(&a).unwrap();
        let b = random_matrix(n, k, 23);
        let x = ch.solve_multi(&b).unwrap();
        for j in 0..k {
            let bj = b.col(j);
            let xj = ch.solve(&bj).unwrap();
            for i in 0..n {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-12, "({i},{j})");
            }
        }
        assert!(ch.solve_multi(&Matrix::zeros(n + 1, k)).is_err());
    }

    #[test]
    fn shift_window_rejects_indefinite_border() {
        // The in-place (r == k) path is destructive on error by contract
        // (callers rebuild cold), but the error itself must still carry
        // the absolute pivot.
        let n = 10;
        let r = 2;
        let a = spd(n, 53, n as f64);
        let mut ch = Cholesky::factor(&a).unwrap();
        let mut b = Matrix::zeros(n - r, r);
        for v in b.as_mut_slice() {
            *v = 100.0;
        }
        let c = Matrix::identity(r);
        match ch.shift_window(r, &b, &c) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => {
                assert!(pivot >= n - r, "pivot {pivot} should be absolute");
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One shift of any shape matches the cold factor of the shifted
        /// window. `shape` pins the edge cases the sweep special-cases:
        /// extend only, retire only, the whole window retired, and the
        /// in-place `r == k`; the rest draw `r` and `k` independently.
        #[test]
        fn prop_shift_window_matches_cold_factor(
            seed in 0u64..500,
            n in 1usize..261,
            shape in 0usize..6,
            r in 0usize..25,
            k in 0usize..25,
        ) {
            let r = match shape {
                0 => 0,
                2 => n,
                _ => r.min(n),
            };
            let k = match shape {
                1 => 0,
                3 => r,
                _ => k,
            };
            let (warm, cold) = shifted_and_cold(n, r, k, seed);
            let diff = factor_diff(&warm, &cold);
            prop_assert!(diff < 1e-9, "n={n} r={r} k={k}: {diff:e}");
        }

        /// Warm factor after a random sequence of shifts — half of them
        /// the engine's steady-state `r == k` — matches the cold factor of
        /// the final window.
        #[test]
        fn prop_window_shifts_match_cold_factor(
            seed in 0u64..500,
            n0 in 6usize..24,
            shifts in proptest::collection::vec((0usize..10, 0usize..10), 1..6),
        ) {
            let total = n0 + shifts.iter().map(|s| s.0.max(s.1)).sum::<usize>();
            let a = spd(total, seed, total as f64 + 4.0);
            let mut warm = Cholesky::factor(&block(&a, (0, n0), (0, n0))).unwrap();
            let (mut lo, mut hi) = (0usize, n0);
            for &(retire, append) in &shifts {
                let retire = retire.min(hi - lo - 1);
                let append = if append % 2 == 0 { retire } else { append };
                let b = block(&a, (lo + retire, hi), (hi, hi + append));
                let c = block(&a, (hi, hi + append), (hi, hi + append));
                warm.shift_window(retire, &b, &c).unwrap();
                lo += retire;
                hi += append;
            }
            let cold = Cholesky::factor(&block(&a, (lo, hi), (lo, hi))).unwrap();
            let diff = factor_diff(&warm, &cold);
            prop_assert!(diff < 1e-8, "window [{lo},{hi}): {diff:e}");
        }
    }
}
