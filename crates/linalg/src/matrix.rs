//! Dense row-major matrix.

use crate::{dot, LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// Rows are contiguous in memory, which matches the dominant access pattern
/// of the regression solvers in `f2pm-ml` (iterate over samples = rows).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Minimum element count for the drop-time buffer pool. Smaller
/// allocations are cheap to refault; buffers at or above this (8 MiB)
/// cost milliseconds of page faults to recreate, which dominates the
/// Gram-matrix hot path when models are fit repeatedly (CV folds,
/// benches).
const POOL_MIN_ELEMS: usize = 1 << 20;

thread_local! {
    /// One cached large backing buffer per thread. Holding a single
    /// slot bounds retained memory to the largest recent matrix while
    /// still turning the common alloc-compute-drop-realloc cycle of
    /// equal-sized Gram matrices into a no-fault reuse.
    static BUF_POOL: std::cell::RefCell<Option<Vec<f64>>> = const { std::cell::RefCell::new(None) };
}

/// Fetch a pooled buffer resized to `len` (contents unspecified), or
/// `None` if the pool is empty or too small.
fn pool_take(len: usize) -> Option<Vec<f64>> {
    if len < POOL_MIN_ELEMS {
        return None;
    }
    BUF_POOL.with(|p| {
        let mut slot = p.borrow_mut();
        match slot.take() {
            Some(mut v) if v.capacity() >= len => {
                if v.len() >= len {
                    v.truncate(len);
                } else {
                    v.resize(len, 0.0);
                }
                Some(v)
            }
            other => {
                *slot = other;
                None
            }
        }
    })
}

impl Drop for Matrix {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.data);
        if v.capacity() >= POOL_MIN_ELEMS {
            BUF_POOL.with(|p| {
                let mut slot = p.borrow_mut();
                let keep = slot
                    .as_ref()
                    .is_none_or(|old| old.capacity() < v.capacity());
                if keep {
                    *slot = Some(v);
                }
            });
        }
    }
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows * cols;
        let data = match pool_take(len) {
            Some(mut v) => {
                v.fill(0.0);
                v
            }
            None => vec![0.0; len],
        };
        Matrix { rows, cols, data }
    }

    /// Matrix of the given shape with **unspecified** (but initialized)
    /// contents — a scratch target for kernels that overwrite every
    /// element. Reuses the drop-time buffer pool when possible, which
    /// skips both the zero-fill and the page faults of a fresh
    /// allocation; callers must not read an element before writing it.
    pub fn scratch(rows: usize, cols: usize) -> Self {
        let len = rows * cols;
        let data = pool_take(len).unwrap_or_else(|| vec![0.0; len]);
        Matrix { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an explicit shape and row-major backing vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: backing length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Recover the row-major backing vector (the inverse of
    /// [`Matrix::from_vec`]), so callers that wrap a reusable flat buffer
    /// in a matrix for one batched call can take the allocation back.
    pub fn into_vec(mut self) -> Vec<f64> {
        std::mem::take(&mut self.data)
    }

    /// Build from a slice of row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The raw row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major backing slice, mutably (for in-place kernels).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Whether every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), x)).collect())
    }

    /// Transposed matrix-vector product `Aᵀ x` without forming `Aᵀ`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t",
                lhs: (self.cols, self.rows),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi != 0.0 {
                crate::axpy(xi, self.row(i), &mut out);
            }
        }
        Ok(out)
    }

    /// Matrix-matrix product `A B`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the inner loop streams over contiguous rows of
        // `other` and `out`, which is the cache-friendly order for row-major
        // storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                crate::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric, `cols x cols`), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for row in 0..self.rows {
            let r = self.row(row);
            for j in 0..n {
                let rj = r[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..n {
                    g[(j, k)] += rj * r[k];
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                g[(j, k)] = g[(k, j)];
            }
        }
        g
    }

    /// Append a leading column of ones (intercept column), returning a new
    /// `rows x (cols+1)` matrix.
    pub fn with_intercept(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            out[(i, 0)] = 1.0;
            out.row_mut(i)[1..].copy_from_slice(self.row(i));
        }
        out
    }

    /// Select a subset of columns (in the given order) into a new matrix.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (d, &j) in dst.iter_mut().zip(idx) {
                *d = src[j];
            }
        }
        out
    }

    /// Select a subset of rows (in the given order) into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (dst, &i) in (0..idx.len()).zip(idx) {
            out.row_mut(dst).copy_from_slice(self.row(i));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = small();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "backing length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 7.0];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_dimension_check() {
        let m = small();
        assert!(matches!(
            m.matvec(&[1.0, 2.0, 3.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_known_product() {
        let a = small();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gram_equals_at_a() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = m.gram();
        let expect = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - expect[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = vec![1.0, -1.0, 2.0];
        let fast = m.matvec_t(&x).unwrap();
        let slow = m.transpose().matvec(&x).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn with_intercept_prepends_ones() {
        let m = small().with_intercept();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.col(0), vec![1.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 3.0, 4.0]);
    }

    #[test]
    fn select_columns_and_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = m.select_columns(&[2, 0]);
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]));
        let r = m.select_rows(&[1, 0, 1]);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(r.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = small();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn debug_output_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    proptest! {
        #[test]
        fn matmul_associativity_with_identity(
            vals in proptest::collection::vec(-100.0_f64..100.0, 9)
        ) {
            let a = Matrix::from_vec(3, 3, vals);
            let i = Matrix::identity(3);
            let ai = a.matmul(&i).unwrap();
            let ia = i.matmul(&a).unwrap();
            prop_assert_eq!(&ai, &a);
            prop_assert_eq!(&ia, &a);
        }

        #[test]
        fn gram_is_symmetric_psd_diagonal(
            vals in proptest::collection::vec(-10.0_f64..10.0, 12)
        ) {
            let a = Matrix::from_vec(4, 3, vals);
            let g = a.gram();
            for i in 0..3 {
                prop_assert!(g[(i, i)] >= -1e-12);
                for j in 0..3 {
                    prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
                }
            }
        }
    }
}
