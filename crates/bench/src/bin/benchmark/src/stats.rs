//! Order statistics shared by every workload and by `--repeat`.

/// Samples sorted ascending (NaN-free input assumed; `total_cmp` keeps the
/// order total regardless).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so `--repeat` spreads match an external check.
/// A single sample yields itself three times.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) over all samples —
/// defined for any non-empty sample, unlike the rank rule below.
///
/// # Panics
/// Panics on an empty sample.
pub fn interpolated(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the tail rule chooses among, in units of 0.01 %,
/// highest last (p90, p99, p99.9, p99.99).
const TAIL_LEVELS: [usize; 4] = [9_000, 9_900, 9_990, 9_999];

/// 1-based nearest rank of the `level`-th (0.01 % units) percentile among
/// `n` samples, in exact integer arithmetic.
fn rank(level: usize, n: usize) -> usize {
    (level * n).div_ceil(10_000).clamp(1, n)
}

/// The tail rule: the highest of p90/p99/p99.9/p99.99 whose nearest-rank
/// sample has at least [`MIN_BEYOND`] samples ranked above it. Returns
/// `(percentile, value)`, or `None` below 100 samples.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_LEVELS
        .iter()
        .rev()
        .find(|&&level| n > 0 && n - rank(level, n) >= MIN_BEYOND)
        .map(|&level| (level as f64 / 100.0, v[rank(level, n) - 1]))
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already sorted,
/// non-empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let level = (q * 10_000.0).round() as usize;
    sorted[rank(level, sorted.len()) - 1]
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of any sample; 0 for an
/// empty one (a layer a run did not exercise).
pub fn rank_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        nearest_rank(&sorted(values), q)
    }
}

/// `(max − min) / median`, the `--repeat` range spread.
pub fn range_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let med = median(&v);
    (v[v.len() - 1] - v[0]) / med.abs().max(f64::MIN_POSITIVE)
}

/// `(q3 − q1) / median`, the spread the regression bounds are set
/// against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spreads() {
        let v = [9.0, 10.0, 11.0, 10.0];
        assert!((range_share(&v) - 0.2).abs() < 1e-12);
        // quantiles([9, 10, 10, 11], n=4) == [9.25, 10.0, 10.75]
        assert!((iqr_share(&v) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantile() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(interpolated(&v, 0.5), 3.0);
        assert_eq!(interpolated(&v, 0.9), 4.6);
        assert_eq!(interpolated(&[2.0], 0.9), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, leaving exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90 of 99, leaving 9 → unsupported.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        // 100k samples: p99.99 leaves 10.
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.99, 99_990.0)));
        assert_eq!(supported_tail(&[]), None);
    }
}
