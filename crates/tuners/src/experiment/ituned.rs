//! iTuned: experiment-driven tuning with Latin hypercube initialization,
//! a Gaussian-process response surface, and Expected-Improvement
//! experiment selection (Duan, Thummala & Babu, PVLDB 2009).
//!
//! The loop: (1) stratify the first `n0` experiments with LHS so every
//! knob's range is covered; (2) fit a GP to (config → log runtime);
//! (3) run the experiment with the highest Expected Improvement; repeat.
//! This is the tutorial's flagship experiment-driven approach and the
//! backbone of the Table 1/Table 2 comparisons.
//!
//! The loop itself is the shared GP-BO engine (`crate::bo::GpBo`, also
//! behind OtterTune). iTuned supplies its training set (every observation,
//! log runtimes) and its pool (600 uniform points kept for a few steps of
//! a search epoch, plus 128 uniform points and perturbations of the three
//! incumbents and the rule-of-thumb seed drawn at every step), and keeps
//! its own
//! design constants: 10 maximin restarts and at most 3 rule seeds.

use crate::bo::{GpBo, Pool, TrainingSet, FRESH_RANDOM};
use crate::util::{best_anchors, candidate_pool, log_runtimes, SearchConstraints};
use autotune_core::{
    Configuration, History, Recommendation, SurrogateStats, Tuner, TunerFamily, TuningContext,
};
use rand::rngs::StdRng;

/// Maximin restarts of the initial Latin hypercube.
const LHS_RESTARTS: usize = 10;
/// Constraint seed configurations the initial design admits.
const RULE_SEEDS: usize = 3;
/// Uniform random candidates of the persistent set (besides the fresh
/// part's).
const POOL_SIZE: usize = 600;

/// The iTuned tuner.
#[derive(Debug)]
pub struct ITunedTuner {
    /// LHS initialization budget (`None`: `2 * dim`, clamped to 6..=20).
    init_samples: Option<usize>,
    bo: GpBo,
}

impl Default for ITunedTuner {
    fn default() -> Self {
        ITunedTuner {
            init_samples: None,
            bo: GpBo::new(LHS_RESTARTS, RULE_SEEDS),
        }
    }
}

impl ITunedTuner {
    /// Creates an iTuned tuner with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the LHS initialization budget.
    pub fn with_init(mut self, n: usize) -> Self {
        self.init_samples = Some(n.max(2));
        self
    }

    /// Overrides the exploration jitter ξ of the EI criterion (default
    /// 0.01).
    pub fn with_xi(mut self, xi: f64) -> Self {
        self.bo.xi = xi;
        self
    }

    /// Adds known configurations to the initial design, right after the
    /// vendor default — iTuned's "use available information" rule: a
    /// DBA's current setting, a published rule of thumb, or the best
    /// configurations of the nearest past session (the warm-start entry
    /// point, see [`crate::warm::best_k_configs`]) are free evidence. The
    /// tuner evaluates them early, so the recommendation can never be
    /// worse than the best seed.
    pub fn with_seed_configs(mut self, cfgs: impl IntoIterator<Item = Configuration>) -> Self {
        self.bo.seeds.extend(cfgs);
        self
    }

    /// Applies rule-based knob knowledge (dependencies, prior seeds).
    /// Opt-in: without this call the tuner's trajectories are unchanged.
    pub fn with_constraints(mut self, constraints: SearchConstraints) -> Self {
        self.bo.constraints = Some(constraints);
        self
    }
}

impl Tuner for ITunedTuner {
    fn name(&self) -> &str {
        "ituned"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::ExperimentDriven
    }

    fn surrogate_stats(&self) -> Option<SurrogateStats> {
        self.bo.stats()
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let dim = ctx.space.dim();
        let n0 = self.init_samples.unwrap_or((2 * dim).clamp(6, 20));
        if let Some(row) = self.bo.design_row(ctx, n0, history.len(), rng) {
            return row;
        }
        // Model phase: GP on log runtimes, EI over random points plus
        // perturbations of the three incumbents and of the combined
        // rule-of-thumb config, so the priors' neighbourhood stays
        // reachable even when the incumbents sit elsewhere.
        let (xs, _) = history.training_set(&ctx.space);
        let train = TrainingSet {
            xs,
            ys: log_runtimes(history),
            moving_prefix: None,
        };
        let mut anchors = best_anchors(history, &ctx.space, 3);
        let rule_of_thumb = self.bo.constraints.as_ref().and_then(|c| c.seeds().first());
        anchors.extend(rule_of_thumb.map(|seed| ctx.space.encode(seed)));
        let pool = Pool {
            key: Default::default(),
            persistent: |rng: &mut StdRng| candidate_pool(dim, POOL_SIZE, &[], 0, 0.1, rng),
            fresh: |rng: &mut StdRng| candidate_pool(dim, FRESH_RANDOM, &anchors, 40, 0.1, rng),
        };
        self.bo.propose(ctx, train, pool, rng)
    }

    fn finish(&mut self) {
        self.bo.release();
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: format!(
                    "LHS + GP + Expected Improvement over {} experiments",
                    history.len()
                ),
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
    use autotune_core::{tune, ConfigSpace, FunctionObjective, Objective, ParamSpec};
    use autotune_math::lhs::is_latin;
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;

    fn bowl(dim: usize) -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        let space = ConfigSpace::new(
            (0..dim)
                .map(|i| ParamSpec::float(&format!("x{i}"), 0.0, 1.0, 0.9, ""))
                .collect(),
        );
        FunctionObjective::new(space, "bowl", |x| {
            x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>() + 1.0
        })
    }

    #[test]
    fn initial_phase_is_latin() {
        use autotune_math::lhs::maximin_lhs;
        use rand::SeedableRng;
        let mut obj = bowl(3);
        let ctx = TuningContext {
            space: obj.space().clone(),
            profile: obj.profile(),
        };
        let mut tuner = ITunedTuner::new().with_init(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut history = History::new();
        let mut design = Vec::new();
        for _ in 0..8 {
            let cfg = tuner.propose(&ctx, &history, &mut rng);
            history.push(obj.evaluate(&cfg, &mut rng));
            design.push(ctx.space.encode(&cfg));
        }
        // Row 0 is the vendor default; the rest are the maximin draw from
        // the same RNG state, which as a whole is Latin.
        let lhs = maximin_lhs(8, 3, LHS_RESTARTS, &mut StdRng::seed_from_u64(1));
        assert!(is_latin(&lhs));
        assert_eq!(design[0], ctx.space.encode(&ctx.space.default_config()));
        assert_eq!(design[1..], lhs[1..]);
    }

    #[test]
    fn ituned_beats_random_search_on_smooth_objective() {
        let budget = 30;
        let mut wins = 0;
        for seed in 0..5 {
            let mut obj = bowl(4);
            let mut it = ITunedTuner::new();
            let gp_best = tune(&mut obj, &mut it, budget, seed)
                .best
                .unwrap()
                .runtime_secs;
            let mut obj = bowl(4);
            let mut rs = RandomSearchTuner;
            let rs_best = tune(&mut obj, &mut rs, budget, seed)
                .best
                .unwrap()
                .runtime_secs;
            if gp_best <= rs_best {
                wins += 1;
            }
        }
        assert!(wins >= 4, "iTuned won only {wins}/5 against random search");
    }

    #[test]
    fn ituned_tunes_the_dbms_within_small_budget() {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = ITunedTuner::new();
        let out = tune(&mut sim, &mut tuner, 30, 7);
        let best = out.best.unwrap();
        assert!(
            best.runtime_secs < default_rt * 0.6,
            "default={default_rt} ituned={}",
            best.runtime_secs
        );
    }

    #[test]
    fn proposals_stay_valid() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let ctx = TuningContext {
            space: sim.space().clone(),
            profile: sim.profile(),
        };
        let mut tuner = ITunedTuner::new().with_init(6);
        let mut rng = rand::SeedableRng::seed_from_u64(2);
        let mut history = History::new();
        for _ in 0..10 {
            let cfg = tuner.propose(&ctx, &history, &mut rng);
            assert!(ctx.space.validate_config(&cfg).is_ok());
            history.push(sim.evaluate(&cfg, &mut rng));
        }
    }
}
