//! Order statistics used by every metric: nearest-rank percentiles for
//! latencies, and the quartile rule the acceptance criterion uses for
//! run-to-run spread.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. Empty input
/// yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1) as `(q, value)`, or `None` below 20 samples,
/// where only the median qualifies.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 20).then(|| ((n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// First and third quartile by the exclusive method — the same numbers
/// as Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// rule is written in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Seven samples: p90 is the maximum by nearest rank.
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile(&seven, 0.9), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((0.5, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((0.9, 90.0)));
        for n in [20usize, 37, 600, 1350] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, value) = supported_tail(&v).unwrap();
            assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
            assert_eq!(percentile(&v, q), value);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
