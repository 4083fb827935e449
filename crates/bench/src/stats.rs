//! Paired-seed statistics for claims that change trajectories.
//!
//! A change is compared with its parent on the same seeds: each seed's
//! metric under the change is divided by the parent's, and the analysis
//! runs on the log of that ratio. [`paired_log_ratios`] builds the deltas,
//! [`bootstrap_mean_ci`] gives a seeded percentile-bootstrap confidence
//! interval of their mean (stratified when several groups are pooled), and
//! [`non_inferior`] turns an interval into a verdict against a margin.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// `ln(change / parent)` per seed, in seed order. Both slices hold one
/// strictly positive value per seed, in the same order.
pub fn paired_log_ratios(parent: &[f64], change: &[f64]) -> Vec<f64> {
    assert_eq!(
        parent.len(),
        change.len(),
        "paired samples differ in length"
    );
    parent
        .iter()
        .zip(change)
        .map(|(&p, &c)| {
            assert!(p > 0.0 && c > 0.0, "log ratio of a non-positive value");
            (c / p).ln()
        })
        .collect()
}

/// A mean with its bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeanCi {
    /// The mean of the deltas (for strata, the mean of the stratum means).
    pub mean: f64,
    /// Lower end of the interval.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
}

/// Mean of the stratum means.
fn pooled_mean(strata: &[&[f64]]) -> f64 {
    let means = strata
        .iter()
        .map(|s| s.iter().sum::<f64>() / s.len() as f64);
    means.sum::<f64>() / strata.len() as f64
}

/// Percentile-bootstrap confidence interval of the mean of the deltas,
/// pooled over `strata` (each a non-empty group of deltas, e.g. one per
/// system and tuner): the statistic is the mean of the stratum means, and
/// each of the `resamples` resamples draws every stratum with replacement
/// from itself. `level` is the two-sided coverage (0.95 for a 95%
/// interval). Seeded by `seed`, so the interval is reproducible.
pub fn bootstrap_mean_ci(strata: &[&[f64]], level: f64, resamples: usize, seed: u64) -> MeanCi {
    assert!(!strata.is_empty() && strata.iter().all(|s| !s.is_empty()));
    assert!(level > 0.0 && level < 1.0 && resamples > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats: Vec<f64> = (0..resamples)
        .map(|_| {
            let total: f64 = strata
                .iter()
                .map(|s| {
                    let sum: f64 = (0..s.len()).map(|_| s[rng.random_range(0..s.len())]).sum();
                    sum / s.len() as f64
                })
                .sum();
            total / strata.len() as f64
        })
        .collect();
    stats.sort_by(f64::total_cmp);
    let tail = (1.0 - level) / 2.0;
    let at = |q: f64| stats[((q * resamples as f64).floor() as usize).min(resamples - 1)];
    MeanCi {
        mean: pooled_mean(strata),
        lo: at(tail),
        hi: at(1.0 - tail),
    }
}

/// Non-inferiority for a lower-is-better metric: the interval's upper end
/// lies below `ln(1 + margin)`, i.e. the data rule out the change being
/// worse by a factor of `1 + margin` or more.
pub fn non_inferior(ci: &MeanCi, margin: f64) -> bool {
    ci.hi < (1.0 + margin).ln()
}

/// A log ratio as a percentage change (`ln 1.02` → `2.0`).
pub fn percent(log_ratio: f64) -> f64 {
    (log_ratio.exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_ratios_known_answer() {
        let d = paired_log_ratios(&[1.0, 2.0, 4.0], &[2.0, 2.0, 2.0]);
        let ln2 = std::f64::consts::LN_2;
        assert_eq!(d, vec![ln2, 0.0, -ln2]);
        assert!((percent(ln2) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn identical_samples_give_a_zero_interval() {
        let runs = [3.0, 5.5, 1.25, 8.0];
        let d = paired_log_ratios(&runs, &runs);
        let ci = bootstrap_mean_ci(&[&d], 0.95, 1000, 7);
        assert_eq!((ci.mean, ci.lo, ci.hi), (0.0, 0.0, 0.0));
    }

    #[test]
    fn interval_matches_the_normal_approximation() {
        // Deltas 0..=99 / 100: mean 0.495, standard error of the mean
        // 0.2901 / √100 = 0.02901, so a 95% interval of about ±0.0569.
        let d: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let ci = bootstrap_mean_ci(&[&d], 0.95, 4000, 11);
        assert!((ci.mean - 0.495).abs() < 1e-12);
        assert!((ci.lo - (0.495 - 0.0569)).abs() < 0.006, "lo={}", ci.lo);
        assert!((ci.hi - (0.495 + 0.0569)).abs() < 0.006, "hi={}", ci.hi);
        assert_eq!(ci, bootstrap_mean_ci(&[&d], 0.95, 4000, 11), "seeded");
    }

    #[test]
    fn strata_are_weighted_equally() {
        let a = [0.0; 10];
        let b = [1.0; 2];
        let ci = bootstrap_mean_ci(&[&a, &b], 0.9, 200, 3);
        assert_eq!((ci.mean, ci.lo, ci.hi), (0.5, 0.5, 0.5));
    }

    #[test]
    fn verdict_reads_the_upper_end() {
        let ci = |hi: f64| MeanCi {
            mean: 0.0,
            lo: -0.05,
            hi,
        };
        assert!(non_inferior(&ci(0.019), 0.02));
        assert!(!non_inferior(&ci(0.0199), 0.02), "ln 1.02 = 0.01980");
        assert!(!non_inferior(&ci(0.03), 0.02));
    }
}
