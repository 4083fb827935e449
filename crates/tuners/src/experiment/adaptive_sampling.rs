//! Adaptive sampling for experiment-driven management
//! (Babu, Borisov, Duan, Herodotou & Thummala, HotOS 2009 — the
//! "Shivnath" row of Table 2).
//!
//! The HotOS position: pick the next experiment by balancing *exploitation*
//! (sample near good observed regions) against *exploration* (sample far
//! from everything tried), with cheap nonparametric estimates instead of a
//! full surrogate model. This implementation scores candidates with a
//! distance-weighted k-NN runtime estimate minus an exploration bonus
//! proportional to the distance to the nearest tried point.

use crate::util::candidate_pool;
use autotune_core::{Configuration, History, Recommendation, Tuner, TunerFamily, TuningContext};
use autotune_math::batch::{argmin_first, chunked_scores};
use autotune_math::matrix::dist2;
use rand::rngs::StdRng;

/// The adaptive-sampling tuner.
#[derive(Debug)]
pub struct AdaptiveSamplingTuner {
    /// Bootstrap random samples before the adaptive phase.
    pub bootstrap: usize,
    /// Neighbours in the k-NN estimate.
    pub k: usize,
    /// Exploration weight (relative to the observed runtime spread).
    pub beta: f64,
    /// Candidate-pool size per step.
    pub pool_size: usize,
}

impl Default for AdaptiveSamplingTuner {
    fn default() -> Self {
        AdaptiveSamplingTuner {
            bootstrap: 8,
            k: 3,
            beta: 0.8,
            pool_size: 400,
        }
    }
}

impl AdaptiveSamplingTuner {
    /// Creates the tuner with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// k-NN estimate from a precomputed squared-distance row. The scoring
    /// loop shares one row per candidate between this estimate and the
    /// exploration bonus, so each candidate touches the training set once.
    fn knn_from_dists(&self, dists: &[f64], ys: &[f64]) -> f64 {
        let mut d: Vec<(f64, f64)> = dists.iter().copied().zip(ys.iter().copied()).collect();
        d.sort_by(|a, b| a.0.total_cmp(&b.0));
        let k = self.k.min(d.len()).max(1);
        let mut num = 0.0;
        let mut den = 0.0;
        for &(dist, y) in d.iter().take(k) {
            let w = 1.0 / (dist + 1e-6);
            num += w * y;
            den += w;
        }
        num / den
    }
}

impl Tuner for AdaptiveSamplingTuner {
    fn name(&self) -> &str {
        "adaptive-sampling"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::ExperimentDriven
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        if history.len() < self.bootstrap {
            // Bootstrap with the default first, then random samples.
            if history.is_empty() {
                return ctx.space.default_config();
            }
            return ctx.space.random_config(rng);
        }
        let (xs, ys) = history.training_set(&ctx.space);
        let spread = {
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(1e-9)
        };
        let anchors = crate::util::best_anchors(history, &ctx.space, 2);
        let pool = candidate_pool(ctx.space.dim(), self.pool_size, &anchors, 30, 0.15, rng);
        // One shared squared-distance row per candidate feeds both the
        // k-NN estimate and the exploration bonus; chunked so large pools
        // can score on spare cores (bit-identical either way). Lower score = more attractive: predicted runtime minus
        // the exploration bonus.
        let scores = chunked_scores(&pool, |chunk| {
            chunk
                .iter()
                .map(|p| {
                    let dists: Vec<f64> = xs.iter().map(|xi| dist2(p, xi)).collect();
                    let est = self.knn_from_dists(&dists, &ys);
                    let nearest = dists.iter().copied().fold(f64::INFINITY, f64::min).sqrt();
                    est - self.beta * spread * nearest
                })
                .collect()
        });
        match argmin_first(&scores) {
            Some(j) => ctx.space.decode(&pool[j]),
            None => ctx.space.random_config(rng),
        }
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: "adaptive sampling (k-NN exploit + distance explore)".into(),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no experiments run".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearchTuner;
    use autotune_core::{tune, ConfigSpace, FunctionObjective, ParamSpec};

    fn bowl() -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        let space = ConfigSpace::new(
            (0..3)
                .map(|i| ParamSpec::float(&format!("x{i}"), 0.0, 1.0, 0.95, ""))
                .collect(),
        );
        FunctionObjective::new(space, "bowl", |x| {
            x.iter().map(|v| (v - 0.25) * (v - 0.25)).sum::<f64>() + 0.5
        })
    }

    #[test]
    fn beats_or_matches_random_on_average() {
        let mut wins = 0;
        for seed in 0..6 {
            let mut obj = bowl();
            let mut a = AdaptiveSamplingTuner::new();
            let ours = tune(&mut obj, &mut a, 35, seed).best.unwrap().runtime_secs;
            let mut obj = bowl();
            let mut r = RandomSearchTuner;
            let theirs = tune(&mut obj, &mut r, 35, seed).best.unwrap().runtime_secs;
            if ours <= theirs {
                wins += 1;
            }
        }
        assert!(wins >= 4, "adaptive sampling won only {wins}/6");
    }

    #[test]
    fn knn_estimate_interpolates() {
        let t = AdaptiveSamplingTuner::new();
        let xs = [vec![0.0], vec![1.0]];
        let ys = vec![0.0, 10.0];
        let knn = |x: &[f64]| {
            let dists: Vec<f64> = xs.iter().map(|xi| dist2(x, xi)).collect();
            t.knn_from_dists(&dists, &ys)
        };
        let mid = knn(&[0.5]);
        assert!((mid - 5.0).abs() < 0.5, "mid={mid}");
        let near0 = knn(&[0.05]);
        assert!(near0 < 2.0, "near0={near0}");
    }

    #[test]
    fn bootstrap_starts_with_default() {
        let mut obj = bowl();
        let mut t = AdaptiveSamplingTuner::new();
        let out = tune(&mut obj, &mut t, 3, 1);
        let first = &out.history.all()[0].config;
        assert_eq!(first.f64("x0"), 0.95);
    }

    #[test]
    fn exploration_bonus_prefers_unvisited_when_beta_high() {
        let mut t = AdaptiveSamplingTuner::new();
        t.beta = 100.0;
        t.bootstrap = 2;
        let mut obj = bowl();
        let out = tune(&mut obj, &mut t, 10, 3);
        // With huge exploration weight, proposals should spread out: check
        // min pairwise distance of post-bootstrap proposals is not tiny.
        let pts: Vec<Vec<f64>> = out.history.all()[2..]
            .iter()
            .map(|o| o.config.iter().map(|(_, v)| v.as_f64().unwrap()).collect())
            .collect();
        let min_d = autotune_math::lhs::min_pairwise_dist2(&pts);
        assert!(min_d > 1e-4, "exploration collapsed: {min_d}");
    }
}
