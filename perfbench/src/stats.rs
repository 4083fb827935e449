//! Order statistics for the benchmark's reported figures.
//!
//! Percentiles use the nearest-rank rule; a percentile is reportable only
//! when at least [`MIN_BEYOND`] samples lie strictly beyond it, so a tail
//! figure never rests on one or two outliers.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is how run-to-run spread is judged.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() as f64 + 1.0;
    let at = |p: f64| {
        let pos = p * m;
        let j = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_count_and_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 0.95).expect("200 samples leave 10 beyond p95");
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.n, 200);
        assert_eq!(p95.beyond, 10);
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!(p50.value, 100.0);
        assert_eq!(p50.beyond, 100);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), None, "only 9 beyond p95");
        assert_eq!(percentile(&[], 0.5), None);
        assert!(percentile(&samples, 0.9).is_some());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..300).map(|i| ((i * 7919) % 300) as f64).collect();
        let a = percentile(&samples, 0.95).unwrap();
        samples.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&samples, 0.95).unwrap());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
