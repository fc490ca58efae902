//! Free functions over `&[f64]` slices.
//!
//! The hot inner loops of the regressors (coordinate descent, SMO, CG) are
//! built from these primitives. They are deliberately slice-based and
//! allocation-free so the callers can reuse workhorse buffers (perf-book:
//! "Reusing Collections").

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ (the hot path skips the check in
/// release via `debug_assert!`).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Manual 4-way unroll: helps LLVM vectorize the reduction without
    // requiring -ffast-math style reassociation.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`, the classic BLAS axpy.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Fused axpy pair `y += a0·x0 + a1·x1` in one sweep: one `y`
/// load/store and one loop per element instead of two, which is what
/// short-vector update kernels (where per-sweep overhead rivals the
/// arithmetic) need to keep the SIMD units fed.
#[inline]
pub fn axpy2(a0: f64, x0: &[f64], a1: f64, x1: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x0.len(), y.len(), "axpy2: length mismatch");
    debug_assert_eq!(x1.len(), y.len(), "axpy2: length mismatch");
    // Explicit 8-wide blocks: the auto-vectorizer's main loop wants ≥ 32
    // elements before it engages, which the short panel vectors of the
    // rank-k kernels never reach — a fixed trip count of 8 compiles to
    // one full-width SIMD op per block on every ISA tier instead.
    let split = y.len() / 8 * 8;
    let (y8, yt) = y.split_at_mut(split);
    let (x08, x0t) = x0.split_at(split);
    let (x18, x1t) = x1.split_at(split);
    for ((yc, xc), zc) in y8
        .chunks_exact_mut(8)
        .zip(x08.chunks_exact(8))
        .zip(x18.chunks_exact(8))
    {
        for i in 0..8 {
            yc[i] += a0 * xc[i] + a1 * zc[i];
        }
    }
    for ((yi, xi), zi) in yt.iter_mut().zip(x0t).zip(x1t) {
        *yi += a0 * xi + a1 * zi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_handles_tail_lengths() {
        // Lengths around the unroll width of 4.
        for n in 0..9 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let expect: f64 = a.iter().map(|x| x * x).sum();
            assert_eq!(dot(&a, &a), expect, "n = {n}");
        }
    }

    #[test]
    fn norm2_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    proptest! {
        #[test]
        fn dot_commutes(a in proptest::collection::vec(-1e3_f64..1e3, 0..64)) {
            let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let ab = dot(&a, &b);
            let ba = dot(&b, &a);
            prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
        }

        #[test]
        fn dot_matches_naive(a in proptest::collection::vec(-1e3_f64..1e3, 0..64)) {
            let b: Vec<f64> = a.iter().map(|x| x - 2.0).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot(&a, &b);
            prop_assert!((naive - fast).abs() <= 1e-6 * (1.0 + naive.abs()));
        }

        #[test]
        fn norm2_nonnegative_and_scales(
            a in proptest::collection::vec(-1e3_f64..1e3, 1..32),
            alpha in -10.0_f64..10.0,
        ) {
            let n = norm2(&a);
            prop_assert!(n >= 0.0);
            let b: Vec<f64> = a.iter().map(|x| alpha * x).collect();
            prop_assert!((norm2(&b) - alpha.abs() * n).abs() <= 1e-8 * (1.0 + n));
        }

        #[test]
        fn axpy_into_zero_copies(
            x in proptest::collection::vec(-1e3_f64..1e3, 0..32),
        ) {
            // y = 0 + 1*x reproduces x exactly.
            let mut y = vec![0.0; x.len()];
            axpy(1.0, &x, &mut y);
            prop_assert_eq!(y, x);
        }
    }
}
