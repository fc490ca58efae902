//! Free functions over `&[f64]` slices.
//!
//! The hot inner loops of the regressors (coordinate descent, SMO, CG) are
//! built from these primitives. They are deliberately slice-based and
//! allocation-free so the callers can reuse workhorse buffers (perf-book:
//! "Reusing Collections").

/// Dot product of two equal-length slices.
///
/// The summation order is part of the contract: lane `k` sums
/// `a[j] * b[j]` over `j ≡ k (mod 4)` below `⌊len/4⌋·4`, in index order,
/// a tail sums the remaining products in order, and the result is
/// `((s0 + s1) + (s2 + s3)) + tail`. Every model that reduces through
/// `dot` keeps its bits only while that order holds, and
/// `LinearModel::predict_columns` in f2pm-ml mirrors it column by column.
///
/// # Panics
/// Panics if `b` is shorter than `a`; a longer `b` is a debug-build
/// assertion failure and is truncated in release.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // The four lane sums live in one `[f64; 4]` over `chunks_exact(4)`:
    // that form compiles to packed multiplies and adds with no bounds
    // checks, where indexing `a[j]`..`b[j + 3]` compiles to scalar ones
    // and a compare per element. Same additions, same order, same bits.
    let (a4, b4) = (a.chunks_exact(4), b[..a.len()].chunks_exact(4));
    let tail = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .fold(0.0, |acc, (x, y)| acc + x * y);
    let mut s = [0.0; 4];
    for (x, y) in a4.zip(b4) {
        for k in 0..4 {
            s[k] += x[k] * y[k];
        }
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
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

    /// `dot`'s documented summation order, one scalar add at a time.
    fn dot_oracle(a: &[f64], b: &[f64]) -> f64 {
        let unrolled = a.len() / 4 * 4;
        let mut lanes = [0.0; 4];
        let mut tail = 0.0;
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            if j < unrolled {
                lanes[j % 4] += x * y;
            } else {
                tail += x * y;
            }
        }
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
    }

    /// Seeded values over a wide exponent range (so lanes cancel and
    /// round differently), with one in `special_every` drawn from signed
    /// zeros, subnormals, ±inf and NaN (`special_every == 0`: none).
    fn seeded_values(seed: u64, n: usize, special_every: u64) -> Vec<f64> {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            -2.2e-310,
            f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                if special_every > 0 && r % special_every == 0 {
                    return SPECIAL[(r >> 32) as usize % SPECIAL.len()];
                }
                let mantissa = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                mantissa * 2f64.powi((r % 61) as i32 - 30)
            })
            .collect()
    }

    /// Bit for bit against the oracle at every length up to 67 (the
    /// build's widths, 30 and 3, included) and every start alignment
    /// mod 4. Rust leaves NaN payloads unspecified, so a NaN result only
    /// has to be a NaN.
    #[test]
    fn dot_matches_the_lane_order_oracle_bit_for_bit() {
        let mut finite = 0;
        for len in 0..=67 {
            for seed in 0..6 {
                for special_every in [0, 16, 3] {
                    let a = seeded_values(2 * seed + 1, len + 3, special_every);
                    let b = seeded_values(2 * seed + 2, len + 3, special_every);
                    for off in 0..4 {
                        let (a, b) = (&a[off..off + len], &b[off..off + len]);
                        let (got, want) = (dot(a, b), dot_oracle(a, b));
                        if want.is_nan() {
                            assert!(got.is_nan(), "len {len} seed {seed}: {got} != NaN");
                        } else {
                            finite += 1;
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "len {len} seed {seed} every {special_every} off {off}: {got:e} != {want:e}"
                            );
                        }
                    }
                }
            }
        }
        assert!(finite > 2000, "only {finite} non-NaN cases");
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
