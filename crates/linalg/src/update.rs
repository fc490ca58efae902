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
//! **Register-resident coupling.** The block's retired coupling is `r`
//! rows of [`LANES`] values, rounded up to whole groups of 8 rows. Its
//! width is a compile-time constant, dispatched once per sweep: up to
//! three groups (`r ≤ 24`) the coupling is a fixed-size array, so at
//! the steady state (`r ≤ 8`) its 8 rows stay in vector registers across
//! every pivot's reflection instead of being reloaded and stored back
//! per pivot. A wider retirement runs the same generic code over a heap
//! buffer; both sum each projection in the same order.
//!
//! **One in-place path.** The factor's buffer has a row stride of at
//! least its order, grown geometrically when a shift needs more, so
//! every shift — any `r`, any `k` — runs inside it: destination row `i`
//! only overwrites source rows the sweep has already loaded, entries
//! past a row's diagonal are zero before and after, and rows a shrinking
//! shift leaves past the new order are zeroed. No steady-state shift
//! allocates, zero-fills or first-touches an order² buffer.
//!
//! **Fused forward solve.** [`Cholesky::shift_window_forward`] carries
//! two interleaved right-hand sides (the LS-SVM's `(1 | y)`) through the
//! sweep and forward-solves each block's rows while its columns are in
//! cache, then the border rows, so the caller's dual refresh only runs
//! the backward pass ([`Cholesky::solve_multi_backward`]). Per-lane
//! even/odd-column accumulators reproduce the two-RHS forward
//! substitution's summation order, so the result equals
//! [`Cholesky::solve_multi`]'s forward pass bit for bit.
//!
//! The sweep stays single-threaded: a pipelined wavefront over the pool
//! (blocks of rows handed along as their pivots finish) cut the shift
//! at n = 1800 from 15.5 to 13.2 ms on a 2-thread machine, but the
//! serving workload around it lost 16% of its throughput to the cores
//! the retrain then took from the reactor.
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
    /// Every shift runs inside the factor's own buffer (see the module
    /// docs). On error (non-positive-definite shifted window, non-finite
    /// border) an extend-only shift (`r == 0`) leaves the factor
    /// untouched, but a shift that retires rows **may leave it
    /// unusable**, and the caller must rebuild cold — which is exactly
    /// the retrain engine's fallback contract.
    pub fn shift_window(&mut self, r: usize, b: &Matrix, c: &Matrix) -> Result<()> {
        self.shift(r, b, c, None)
    }

    /// [`shift_window`](Self::shift_window), also forward-solving
    /// `L' Z = rhs` against the new factor `L'` in the same sweep: `rhs`
    /// holds two right-hand sides interleaved (`(n − r + k) × 2`) and is
    /// overwritten by `Z`, bit for bit the forward half of
    /// [`solve_multi`](Self::solve_multi) on the new factor. Finish the
    /// solve with [`solve_multi_backward`](Self::solve_multi_backward).
    /// On error `rhs` is unspecified.
    pub fn shift_window_forward(
        &mut self,
        r: usize,
        b: &Matrix,
        c: &Matrix,
        rhs: &mut Matrix,
    ) -> Result<()> {
        let order = (self.order() + c.rows()).checked_sub(r);
        if order != Some(rhs.rows()) || rhs.cols() != 2 {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky shift_window_forward",
                lhs: c.shape(),
                rhs: rhs.shape(),
            });
        }
        self.shift(r, b, c, Some(rhs.as_mut_slice()))
    }

    fn shift(&mut self, r: usize, b: &Matrix, c: &Matrix, rhs: Option<&mut [f64]>) -> Result<()> {
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
        self.sweep(r, b, c, rhs)
    }

    /// The one row sweep behind [`Cholesky::shift_window`]: retire the
    /// `r` leading rows, then border by `b`, `c`, forward-solving `rhs`
    /// along the way.
    fn sweep(
        &mut self,
        r: usize,
        b: &Matrix,
        c: &Matrix,
        mut rhs: Option<&mut [f64]>,
    ) -> Result<()> {
        let n = self.order();
        let k = c.rows();
        let m = n - r;
        let mut sweep = Sweep::new(m, r, k);
        let l = &mut self.l;
        let rhs_kept = rhs.as_deref_mut();
        // One dispatch per sweep on the coupling width (see module docs).
        const ZERO: Lanes = [0.0; LANES];
        match sweep.rs {
            0 => sweep.kept_rows(l, [ZERO; 0], b, rhs_kept),
            8 => sweep.kept_rows(l, [ZERO; 8], b, rhs_kept),
            16 => sweep.kept_rows(l, [ZERO; 16], b, rhs_kept),
            24 => sweep.kept_rows(l, [ZERO; 24], b, rhs_kept),
            rs => sweep.kept_rows(l, vec![ZERO; rs], b, rhs_kept),
        }?;
        // Only the border can fail here, and it is factored before any
        // border row is written: an extend-only shift that fails has not
        // touched the factor (the kept rows were already in place).
        let schur = sweep.factor_border(c)?;
        self.reserve(m + k, m);
        sweep.store_border(&mut self.l, &schur);
        // Rows a shrinking shift left past the new order go back to zero.
        for i in m + k..n {
            self.l.row_mut(i)[..=i].fill(0.0);
        }
        self.n = m + k;
        if let Some(rhs) = rhs {
            self.forward_2rhs(rhs, m);
        }
        Ok(())
    }

    /// Make the buffer's row stride hold a factor of order `order`,
    /// keeping the first `rows` rows. It grows by at least a sixteenth,
    /// so a window that keeps growing a few rows per shift copies its
    /// factor `O(log n)` times, and one that fluctuates by a few runs
    /// around its size stops growing after its first shift. (A quarter or
    /// a half measured worse: the `refresh` benchmark at seed 7 peaked at
    /// 125 and 144 MiB against 117 MiB on a 2-thread box, as the slack
    /// pages of a pooled, zero-filled buffer all become resident.)
    fn reserve(&mut self, order: usize, rows: usize) {
        let stride = self.l.cols();
        if order <= stride {
            return;
        }
        let stride = order.max(stride + stride / 16);
        let mut l = Matrix::zeros(stride, stride);
        for i in 0..rows {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        self.l = l;
    }

    /// Solve `A X = B` for `k` right-hand sides stored *row-major
    /// interleaved*: `b` is `n × k` with row `i` holding the `i`-th entry
    /// of every right-hand side. Both substitution sweeps then run
    /// contiguous length-`k` axpys instead of `k` independent strided
    /// solves. Returns `X` in the same layout.
    pub fn solve_multi(&self, b: &Matrix) -> Result<Matrix> {
        self.check_rhs(b, "cholesky solve_multi")?;
        let mut y = b.clone();
        self.forward_multi_in_place(&mut y);
        self.backward_multi_in_place(&mut y);
        Ok(y)
    }

    /// The backward half of [`solve_multi`](Self::solve_multi): solve
    /// `Lᵀ X = Y` in place for `Y` in the same interleaved layout — the
    /// forward half being done, e.g., by
    /// [`shift_window_forward`](Self::shift_window_forward).
    pub fn solve_multi_backward(&self, y: &mut Matrix) -> Result<()> {
        self.check_rhs(y, "cholesky solve_multi_backward")?;
        self.backward_multi_in_place(y);
        Ok(())
    }

    fn check_rhs(&self, b: &Matrix, op: &'static str) -> Result<()> {
        let n = self.order();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        Ok(())
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
            return self.forward_2rhs(y.as_mut_slice(), 0);
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
    /// sides (the engine's `(1 | y)` dual refresh), for rows `start..`
    /// (the rows before it already solved): both accumulators live in
    /// registers across the whole gather over the contiguous `L` row,
    /// with two partial chains per side — even and odd columns — to hide
    /// add latency. [`Sweep::forward_rhs`] keeps the same chains.
    fn forward_2rhs(&self, data: &mut [f64], start: usize) {
        for i in start..self.order() {
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
    /// `r` rounded up to whole [`LANES`] groups; the padding columns of the
    /// coupling block start at zero and every reflection keeps them
    /// there, so they change no result.
    rs: usize,
    k: usize,
    /// Pivot `j`'s coupling row as it stood at its pivot (`rs` wide).
    u: Vec<f64>,
    /// Pivot `j`'s reflector scalars `v₀ⱼ`, `τⱼ` (`τⱼ = 0`: none).
    v0: Vec<f64>,
    tau: Vec<f64>,
    /// Border rows solved so far, `k × m` row-major: `Y = L'⁻¹B`.
    y: Vec<f64>,
}

/// One block of kept rows in flight: rows `i0..i0 + rows`.
struct Block<C> {
    i0: usize,
    rows: usize,
    /// `cols[q][lane]` is factor column `q` of kept row `i0 + lane`.
    cols: Vec<Lanes>,
    /// The retired coupling, `coupling[c][lane]` (`rs` rows).
    coupling: C,
}

impl Sweep {
    fn new(m: usize, r: usize, k: usize) -> Self {
        let rs = r.next_multiple_of(LANES);
        Sweep {
            m,
            r,
            rs,
            k,
            u: vec![0.0; m * rs],
            v0: vec![0.0; m],
            tau: vec![0.0; m],
            y: vec![0.0; k * m],
        }
    }

    /// Sweep every block of kept rows through `l`, in place. `coupling`
    /// is a zeroed coupling block; as a fixed-size array it is the
    /// register-resident case of the module docs.
    ///
    /// Blocks go two at a time: both take the reflections of every pivot
    /// before them in one interleaved pass — two independent dependency
    /// chains, where one block alone leaves the vector units waiting on
    /// each reflection's latency — then the first block finishes and
    /// the second takes its pivots and finishes. Every row still receives
    /// the same reflections in the same order.
    fn kept_rows<C: AsMut<[Lanes]> + Clone>(
        &mut self,
        l: &mut Matrix,
        coupling: C,
        b: &Matrix,
        mut rhs: Option<&mut [f64]>,
    ) -> Result<()> {
        let cols = vec![[0.0; LANES]; self.m.next_multiple_of(LANES)];
        let block = |cols, coupling| Block {
            i0: 0,
            rows: 0,
            cols,
            coupling,
        };
        let [mut first, mut second] =
            [block(cols.clone(), coupling.clone()), block(cols, coupling)];
        let mut i0 = 0;
        while i0 < self.m {
            self.load(l, &mut first, i0);
            let pair = i0 + LANES < self.m;
            if pair {
                self.load(l, &mut second, i0 + LANES);
                self.apply_pivots([&mut first, &mut second], 0..i0);
            } else {
                self.apply_pivots([&mut first], 0..i0);
            }
            self.finish(l, &mut first, b, rhs.as_deref_mut())?;
            if pair {
                self.apply_pivots([&mut second], i0..i0 + LANES);
                self.finish(l, &mut second, b, rhs.as_deref_mut())?;
            }
            i0 += 2 * LANES;
        }
        Ok(())
    }

    /// Slide kept rows `i0..` (up to [`LANES`] of them) into a block,
    /// transposed. Kept row `i` is source row `r + i` with its coupling in
    /// that row's first `r` columns. Unused lanes of a short last block
    /// are zeroed.
    fn load<C: AsMut<[Lanes]>>(&self, l: &Matrix, blk: &mut Block<C>, i0: usize) {
        let r = self.r;
        let rows = LANES.min(self.m - i0);
        let last = i0 + rows - 1;
        (blk.i0, blk.rows) = (i0, rows);
        let coupling = blk.coupling.as_mut();
        // Column by column, so each block column is written as one whole
        // cache line while the source rows stream in step. Unused lanes
        // repeat the last row until they are zeroed below.
        let src: [&[f64]; LANES] =
            std::array::from_fn(|lane| &l.row(r + last.min(i0 + lane))[..r + i0]);
        for (c, cw) in coupling[..r].iter_mut().enumerate() {
            *cw = std::array::from_fn(|lane| src[lane][c]);
        }
        for (q, col) in blk.cols[..i0].iter_mut().enumerate() {
            *col = std::array::from_fn(|lane| src[lane][r + q]);
        }
        for (q, col) in blk.cols[i0..i0 + LANES].iter_mut().enumerate() {
            *col = std::array::from_fn(|lane| {
                if q <= lane && lane < rows {
                    l[(r + i0 + lane, r + i0 + q)]
                } else {
                    0.0
                }
            });
        }
        if rows < LANES {
            for cw in coupling[..r].iter_mut().chain(&mut blk.cols[..i0]) {
                cw[rows..].fill(0.0);
            }
        }
    }

    /// Apply the stored reflections of `pivots` to every block of
    /// `blocks`, interleaved. The loop works on local copies of the
    /// blocks' couplings, written back once at the end: for a fixed-size
    /// `C`, nothing else can reach those copies, so the compiler keeps
    /// them in registers across every pivot. (Not inlined, so that this
    /// holds whatever the caller looks like.)
    #[inline(never)]
    fn apply_pivots<C: AsMut<[Lanes]> + Clone, const B: usize>(
        &self,
        mut blocks: [&mut Block<C>; B],
        pivots: std::ops::Range<usize>,
    ) {
        let rs = self.rs;
        if rs == 0 {
            return;
        }
        let mut w: [C; B] = std::array::from_fn(|b| blocks[b].coupling.clone());
        for j in pivots {
            let tau = self.tau[j];
            if tau != 0.0 {
                let u = &self.u[j * rs..(j + 1) * rs];
                for (blk, w) in blocks.iter_mut().zip(&mut w) {
                    reflect(&mut blk.cols[j], w.as_mut(), u, self.v0[j], tau);
                }
            }
        }
        for (blk, w) in blocks.into_iter().zip(w) {
            blk.coupling = w;
        }
    }

    /// Finish a block whose earlier pivots are all applied: its own
    /// pivots, its border and right-hand-side entries, and its store.
    fn finish<C: AsMut<[Lanes]>>(
        &mut self,
        l: &mut Matrix,
        blk: &mut Block<C>,
        b: &Matrix,
        rhs: Option<&mut [f64]>,
    ) -> Result<()> {
        self.pivot(blk)?;
        self.solve_border(b, blk);
        if let Some(rhs) = rhs {
            forward_rhs(rhs, blk);
        }
        // Without retired rows the block is already in place.
        if self.r > 0 {
            store(l, blk);
        }
        Ok(())
    }

    /// Finish the block's own pivots in order, each reflecting the whole
    /// block.
    fn pivot<C: AsMut<[Lanes]>>(&mut self, blk: &mut Block<C>) -> Result<()> {
        let rs = self.rs;
        let coupling = blk.coupling.as_mut();
        for lane in 0..blk.rows {
            let j = blk.i0 + lane;
            let d = blk.cols[j][lane];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let uj = &mut self.u[j * rs..(j + 1) * rs];
            for (u, w) in uj.iter_mut().zip(coupling.iter()) {
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
            reflect(&mut blk.cols[j], coupling, uj, v0, tau);
            blk.cols[j][lane] = rho;
            self.v0[j] = v0;
            self.tau[j] = tau;
        }
        Ok(())
    }

    /// Forward-solve the border rows' entries for the block's columns.
    fn solve_border<C>(&mut self, b: &Matrix, blk: &Block<C>) {
        let (i0, cols) = (blk.i0, &blk.cols);
        for t in 0..self.k {
            let y = &mut self.y[t * self.m..(t + 1) * self.m];
            let acc = lanes_dot(&cols[..i0], &y[..i0]);
            for lane in 0..blk.rows {
                let i = i0 + lane;
                let mut s = b[(i, t)] - acc[lane];
                for q in i0..i {
                    s -= cols[q][lane] * y[q];
                }
                y[i] = s / cols[i][lane];
            }
        }
    }

    /// Factor the border's Schur complement `C − YYᵀ`.
    fn factor_border(&self, c: &Matrix) -> Result<Cholesky> {
        let (m, k) = (self.m, self.k);
        // `factor` only reads the lower triangle.
        let mut s = Matrix::scratch(k, k);
        for t in 0..k {
            for u in 0..=t {
                s[(t, u)] = c[(t, u)] - crate::dot(self.border_row(t), self.border_row(u));
            }
        }
        Cholesky::factor(&s).map_err(|e| match e {
            LinalgError::NotPositiveDefinite { pivot } => {
                LinalgError::NotPositiveDefinite { pivot: m + pivot }
            }
            e => e,
        })
    }

    /// Write the `k` border rows `[Y | L_S]` after the kept ones.
    fn store_border(&self, dst: &mut Matrix, schur: &Cholesky) {
        let m = self.m;
        for t in 0..self.k {
            let row = dst.row_mut(m + t);
            row[..m].copy_from_slice(self.border_row(t));
            row[m..=m + t].copy_from_slice(&schur.l.row(t)[..=t]);
        }
    }

    /// Border row `t`'s solved entries `Y[t]`.
    fn border_row(&self, t: usize) -> &[f64] {
        &self.y[t * self.m..(t + 1) * self.m]
    }
}

/// Forward-solve a block's rows of two interleaved right-hand sides
/// (`rhs[2i]`, `rhs[2i + 1]`), in [`Cholesky::forward_2rhs`]'s summation
/// order: per side, one chain over even columns and one over odd ones,
/// each in column order — across the block's lanes for the solved
/// columns, then per lane within the block.
fn forward_rhs<C>(rhs: &mut [f64], blk: &Block<C>) {
    let (i0, cols) = (blk.i0, &blk.cols);
    let mut acc = [[0.0; LANES]; 4];
    // `i0` is a whole number of blocks, so the pairs cover `..i0`.
    for (q2, z) in cols[..i0].chunks_exact(2).zip(rhs.chunks_exact(4)) {
        for lane in 0..LANES {
            acc[0][lane] += q2[0][lane] * z[0];
            acc[1][lane] += q2[0][lane] * z[1];
            acc[2][lane] += q2[1][lane] * z[2];
            acc[3][lane] += q2[1][lane] * z[3];
        }
    }
    for lane in 0..blk.rows {
        let i = i0 + lane;
        let [mut a0, mut b0, mut a1, mut b1] = acc.map(|a| a[lane]);
        for q in i0..i {
            let l = cols[q][lane];
            if q % 2 == 0 {
                a0 += l * rhs[2 * q];
                b0 += l * rhs[2 * q + 1];
            } else {
                a1 += l * rhs[2 * q];
                b1 += l * rhs[2 * q + 1];
            }
        }
        let inv = 1.0 / cols[i][lane];
        rhs[2 * i] = (rhs[2 * i] - (a0 + a1)) * inv;
        rhs[2 * i + 1] = (rhs[2 * i + 1] - (b0 + b1)) * inv;
    }
}

/// Write a finished block into its destination rows.
fn store<C>(dst: &mut Matrix, blk: &Block<C>) {
    let (i0, rows, cols) = (blk.i0, blk.rows, &blk.cols);
    let stride = dst.cols();
    let block = &mut dst.as_mut_slice()[i0 * stride..(i0 + rows) * stride];
    // Column by column, mirroring `load`.
    for (q, col) in cols[..i0].iter().enumerate() {
        for (lane, &v) in col[..rows].iter().enumerate() {
            block[lane * stride + q] = v;
        }
    }
    for (lane, row) in block.chunks_exact_mut(stride).enumerate() {
        for (v, col) in row[i0..=i0 + lane].iter_mut().zip(&cols[i0..]) {
            *v = col[lane];
        }
    }
}

/// `Σ_q cols[q]·x[q]` per lane over whole groups of [`LANES`] columns,
/// in four interleaved partial sums (column `q` into sum `q mod 4`,
/// each from `0.0`, joined as `(s₀ + s₁) + (s₂ + s₃)`) so the adds do not
/// serialize on one accumulator.
#[inline(always)]
fn lanes_dot(cols: &[Lanes], x: &[f64]) -> Lanes {
    debug_assert_eq!(cols.len() % LANES, 0);
    let mut acc = [[0.0; LANES]; 4];
    for (c8, x8) in cols.chunks_exact(LANES).zip(x.chunks_exact(LANES)) {
        for (q, (c, &xv)) in c8.iter().zip(x8).enumerate() {
            acc[q % 4] = std::array::from_fn(|lane| acc[q % 4][lane] + c[lane] * xv);
        }
    }
    std::array::from_fn(|lane| (acc[0][lane] + acc[1][lane]) + (acc[2][lane] + acc[3][lane]))
}

/// Apply one stored reflection `H = I − τvvᵀ`, `v = [v₀ eⱼ | u]`, to every
/// lane of a block: `col` is the block's column `j`, `coupling` its
/// coupling rows.
#[inline(always)]
fn reflect(col: &mut Lanes, coupling: &mut [Lanes], u: &[f64], v0: f64, tau: f64) {
    let proj = lanes_dot(coupling, u);
    let coef: Lanes = std::array::from_fn(|lane| tau * (v0 * col[lane] + proj[lane]));
    *col = std::array::from_fn(|lane| col[lane] - coef[lane] * v0);
    // Whole LANES-row groups, each row one whole-vector update. (Over one
    // variable-length row loop the compiler vectorizes across rows
    // instead, with gathers and scatters.)
    for (w8, u8) in coupling.chunks_exact_mut(LANES).zip(u.chunks_exact(LANES)) {
        for (w, &uc) in w8.iter_mut().zip(u8) {
            *w = std::array::from_fn(|lane| w[lane] - coef[lane] * uc);
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
    fn shifts_within_the_stride_keep_the_factor_buffer() {
        // Growing reserves some slack; shifts of any shape that
        // fit it (shrinking ones included) run in that same buffer, and
        // rows a shrinking shift leaves behind go back to zero.
        let n = 40;
        let total = n + 24;
        let a = spd(total, 9, total as f64);
        let mut ch = Cholesky::factor(&block(&a, (0, n), (0, n))).unwrap();
        let (mut lo, mut hi) = (0, n);
        let mut buffer = None;
        for (r, k) in [(0, 3), (7, 6), (6, 7), (9, 0), (0, 8)] {
            let b = block(&a, (lo + r, hi), (hi, hi + k));
            let c = block(&a, (hi, hi + k), (hi, hi + k));
            ch.shift_window(r, &b, &c).unwrap();
            (lo, hi) = (lo + r, hi + k);
            let ptr = ch.l().as_slice().as_ptr();
            assert_eq!(
                *buffer.get_or_insert(ptr),
                ptr,
                "{r} out, {k} in reallocated"
            );
            let l = ch.l();
            assert!((0..l.rows())
                .all(|i| (0..l.cols()).all(|j| (i < hi - lo && j <= i) || l[(i, j)] == 0.0)));
            let cold = Cholesky::factor(&block(&a, (lo, hi), (lo, hi))).unwrap();
            assert!(factor_diff(&ch, &cold) < 1e-10);
        }
    }

    /// FNV-1a over the bit patterns of `vals`, continuing from `hash`.
    fn fnv1a(mut hash: u64, vals: impl IntoIterator<Item = f64>) -> u64 {
        for v in vals {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// A fixed sequence of 20 shifts over an order-300 window — equal and
    /// unequal, extend- and retire-only, and retirements past one
    /// coupling group — must reproduce the pinned factors and the fused
    /// forward solutions bit for bit; the fused forward solve must also
    /// equal the two-RHS forward pass on every resulting factor. The
    /// matrix is built by plain loops and the first factor by the scalar
    /// kernel, so the checksums depend on no thread count.
    #[test]
    fn golden_shift_sequence_is_bit_identical() {
        const SHIFTS: [(usize, usize); 20] = [
            (7, 7),
            (7, 6),
            (6, 7),
            (0, 9),
            (12, 12),
            (9, 3),
            (0, 1),
            (20, 14),
            (3, 0),
            (8, 8),
            (1, 2),
            (17, 25),
            (5, 5),
            (0, 8),
            (26, 9),
            (7, 8),
            (33, 33),
            (2, 0),
            (11, 4),
            (6, 6),
        ];
        const N0: usize = 300;
        const FEATURES: usize = 16;
        let total = N0 + SHIFTS.iter().map(|s| s.1).sum::<usize>();
        let x = random_matrix(total, FEATURES, 71);
        let mut a = Matrix::zeros(total, total);
        for i in 0..total {
            for j in 0..total {
                let mut s = 0.0;
                for f in 0..FEATURES {
                    s += x[(i, f)] * x[(j, f)];
                }
                a[(i, j)] = s;
            }
            a[(i, i)] += 4.0;
        }
        let mut next = rng(72);
        let labels: Vec<f64> = (0..total).map(|_| next()).collect();
        let mut ch = Cholesky::factor_scalar(&block(&a, (0, N0), (0, N0))).unwrap();
        let (mut lo, mut hi) = (0usize, N0);
        let (mut hash_l, mut hash_fwd) = (0xcbf2_9ce4_8422_2325_u64, 0xcbf2_9ce4_8422_2325_u64);
        for (r, k) in SHIFTS {
            let b = block(&a, (lo + r, hi), (hi, hi + k));
            let c = block(&a, (hi, hi + k), (hi, hi + k));
            let n = hi - lo - r + k;
            let mut rhs = Matrix::zeros(n, 2);
            for i in 0..n {
                rhs[(i, 0)] = 1.0;
                rhs[(i, 1)] = labels[lo + r + i];
            }
            let mut reference = rhs.clone();
            ch.shift_window_forward(r, &b, &c, &mut rhs).unwrap();
            (lo, hi) = (lo + r, hi + k);
            ch.forward_2rhs(reference.as_mut_slice(), 0);
            assert!(
                rhs.as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .all(|(f, s)| f.to_bits() == s.to_bits()),
                "{r} out, {k} in: fused forward solve differs from the forward pass"
            );
            for i in 0..n {
                hash_l = fnv1a(hash_l, ch.l().row(i)[..=i].iter().copied());
            }
            hash_fwd = fnv1a(hash_fwd, rhs.as_slice().iter().copied());
        }
        assert_eq!(hi - lo, 287);
        assert_eq!(hash_l, 0xb6de_e7c1_2bce_c6fc, "factor checksum");
        assert_eq!(hash_fwd, 0x4f08_9485_a20e_7c8a, "forward solution checksum");
    }

    #[test]
    fn fused_forward_then_backward_solves_the_shifted_window() {
        let (n, r, k) = (30, 5, 9);
        let a = spd(n + k, 41, (n + k) as f64);
        let mut ch = Cholesky::factor(&block(&a, (0, n), (0, n))).unwrap();
        let b = block(&a, (r, n), (n, n + k));
        let c = block(&a, (n, n + k), (n, n + k));
        let rhs = random_matrix(n - r + k, 2, 43);
        let mut bad = Matrix::zeros(n - r + k, 3);
        assert!(ch
            .clone()
            .shift_window_forward(r, &b, &c, &mut bad)
            .is_err());
        let mut x = rhs.clone();
        ch.shift_window_forward(r, &b, &c, &mut x).unwrap();
        ch.solve_multi_backward(&mut x).unwrap();
        let want = ch.solve_multi(&rhs).unwrap();
        assert_eq!(x.as_slice(), want.as_slice());
        assert!(ch.solve_multi_backward(&mut Matrix::zeros(n, 2)).is_err());
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
        // A shift that retires rows may leave the factor unusable on error
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
        /// the engine's steady-state `r == k`, and retirements up to three
        /// coupling groups wide — matches the cold factor of the final
        /// window.
        #[test]
        fn prop_window_shifts_match_cold_factor(
            seed in 0u64..500,
            n0 in 6usize..48,
            shifts in proptest::collection::vec((0usize..25, 0usize..25), 1..6),
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
