//! iTuned: experiment-driven tuning with Latin hypercube initialization,
//! a Gaussian-process response surface, and Expected-Improvement
//! experiment selection (Duan, Thummala & Babu, PVLDB 2009).
//!
//! The loop: (1) stratify the first `n0` experiments with LHS so every
//! knob's range is covered; (2) fit a GP to (config → log runtime);
//! (3) run the experiment with the highest Expected Improvement; repeat.
//! This is the tutorial's flagship experiment-driven approach and the
//! backbone of the Table 1/Table 2 comparisons.

use crate::util::{
    argmax_ei, best_anchors, candidate_pool, log_runtimes, GpCache, SearchConstraints,
};
use autotune_core::{
    Configuration, History, Recommendation, SurrogateStats, Tuner, TunerFamily, TuningContext,
};
use autotune_math::gp::KernelKind;
use autotune_math::lhs::maximin_lhs;
use autotune_math::surrogate::{SurrogateConfig, SurrogateModel};
use rand::rngs::StdRng;

/// The iTuned tuner.
#[derive(Debug)]
pub struct ITunedTuner {
    /// LHS initialization budget (defaults to `2 * dim`, clamped to 6..=20).
    pub init_samples: Option<usize>,
    /// Exploration jitter ξ in the EI criterion.
    pub xi: f64,
    /// Candidate-pool size for EI maximization.
    pub pool_size: usize,
    /// Kernel family for the response surface.
    pub kernel: KernelKind,
    /// Fit per-dimension (ARD) length scales instead of an isotropic
    /// kernel — slower per proposal, better on spaces with many
    /// irrelevant knobs.
    pub ard: bool,
    /// Kernel hyper-parameters are re-searched from scratch every this-many
    /// observations; in between, new observations are folded into the GP
    /// with the `O(n²)` incremental update. `1` restores the original
    /// refit-every-proposal behaviour.
    pub hyper_interval: usize,
    /// Known-good configurations injected into the initial design (after
    /// the vendor default) — iTuned's "use available information" rule:
    /// a DBA's current setting or a rule-of-thumb config is free evidence.
    pub seed_configs: Vec<Configuration>,
    /// Surrogate backend policy (`exact | sod | nystrom | auto`). The
    /// default `auto` stays on the exact GP below its threshold, so
    /// default trajectories are unchanged from the pre-surrogate code.
    pub surrogate: SurrogateConfig,
    /// Rule-based knob knowledge: SPEX dependency projection and
    /// best-practice seed configurations. `None` (the default) leaves
    /// every trajectory bit-identical to the unconstrained tuner.
    pub constraints: Option<SearchConstraints>,
    init_plan: Vec<Vec<f64>>,
    planned: bool,
    cache: Option<GpCache>,
}

impl Default for ITunedTuner {
    fn default() -> Self {
        ITunedTuner {
            init_samples: None,
            xi: 0.01,
            pool_size: 600,
            kernel: KernelKind::Matern52,
            ard: false,
            hyper_interval: 5,
            seed_configs: Vec::new(),
            surrogate: SurrogateConfig::default(),
            constraints: None,
            init_plan: Vec::new(),
            planned: false,
            cache: None,
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

    /// Enables ARD (per-knob length scale) kernel fitting.
    pub fn with_ard(mut self) -> Self {
        self.ard = true;
        self
    }

    /// Overrides the hyper-parameter re-search period (`1` = re-search the
    /// kernel on every proposal, the pre-incremental behaviour).
    pub fn with_hyper_interval(mut self, every: usize) -> Self {
        self.hyper_interval = every.max(1);
        self
    }

    /// Adds a known configuration (a DBA's current setting, a published
    /// rule-of-thumb) to the initial experiment design. The tuner evaluates
    /// it early and anchors EI perturbations on it, so the recommendation
    /// can never be worse than the best seed.
    pub fn with_seed_config(mut self, cfg: Configuration) -> Self {
        self.seed_configs.push(cfg);
        self
    }

    /// Adds several seed configurations at once — the warm-start entry
    /// point used by session repositories transferring the best
    /// configurations of the nearest past session (see
    /// [`crate::warm::best_k_configs`]).
    pub fn with_seed_configs(mut self, cfgs: impl IntoIterator<Item = Configuration>) -> Self {
        self.seed_configs.extend(cfgs);
        self
    }

    /// Selects the surrogate backend (exact GP, subset-of-data, Nyström,
    /// or the size-triggered auto policy).
    pub fn with_surrogate(mut self, config: SurrogateConfig) -> Self {
        self.surrogate = config;
        self
    }

    /// Applies rule-based knob knowledge (dependencies, prior seeds).
    /// Opt-in: without this call the tuner's trajectories are unchanged.
    pub fn with_constraints(mut self, constraints: SearchConstraints) -> Self {
        self.constraints = Some(constraints);
        self
    }

    fn init_count(&self, dim: usize) -> usize {
        self.init_samples.unwrap_or((2 * dim).clamp(6, 20))
    }

    /// Brings `self.cache` up to date with the training set: incremental
    /// `update` for fresh observations inside the re-search window, full
    /// hyper-parameter search otherwise. `Err` means even the full fit
    /// failed (degenerate data).
    fn ensure_surrogate(
        &mut self,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
    ) -> Result<(), autotune_math::matrix::LinAlgError> {
        let n = xs.len();
        if let Some(cache) = &mut self.cache {
            if cache.try_advance(&self.surrogate, &xs, ys, self.hyper_interval) {
                return Ok(());
            }
        }
        let fitted = SurrogateModel::fit_auto(&self.surrogate, self.kernel, self.ard, xs, ys)?;
        let fits = self.cache.as_ref().map_or(0, |c| c.fits) + 1;
        self.cache = Some(GpCache::new(fitted, n, fits));
        Ok(())
    }
}

impl Tuner for ITunedTuner {
    fn name(&self) -> &str {
        "ituned"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::ExperimentDriven
    }

    fn min_history(&self) -> usize {
        6
    }

    fn surrogate_stats(&self) -> Option<SurrogateStats> {
        self.cache.as_ref().map(GpCache::stats)
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let dim = ctx.space.dim();
        let n0 = self.init_count(dim);
        if !self.planned {
            self.init_plan = maximin_lhs(n0, dim, 10, rng);
            // Make the vendor default part of the initial design: it is
            // free knowledge and anchors the model. Caller-supplied seed
            // configurations come right after it.
            if let Some(first) = self.init_plan.first_mut() {
                *first = ctx.space.encode(&ctx.space.default_config());
            }
            for (i, cfg) in self.seed_configs.iter().enumerate() {
                if let Some(slot) = self.init_plan.get_mut(1 + i) {
                    *slot = ctx.space.encode(cfg);
                }
            }
            if let Some(cons) = &self.constraints {
                // Prior-derived seed configs take the slots after the
                // caller's seeds — capped at three so they inform the
                // design without displacing its space-filling rows. Every
                // initial point is then projected onto the
                // dependency-feasible region, so a sliver-thin feasible set
                // doesn't swallow the whole initial budget on infeasible
                // rows.
                let first = 1 + self.seed_configs.len();
                for (slot, seed) in (first..).zip(cons.seeds().iter().take(3)) {
                    let Some(s) = self.init_plan.get_mut(slot) else {
                        break;
                    };
                    *s = ctx.space.encode(seed);
                }
                for p in self.init_plan.iter_mut() {
                    cons.repair_point(&ctx.space, p);
                }
            }
            self.planned = true;
        }
        let step = history.len();
        if step < self.init_plan.len() {
            return ctx.space.decode(&self.init_plan[step]);
        }

        // Model phase: GP on log runtimes. The surrogate is cached across
        // proposals: kernel hyper-parameters are re-searched only every
        // `hyper_interval` observations, and in between each new
        // observation is folded in with a rank-1 Cholesky extension.
        let (xs, _) = history.training_set(&ctx.space);
        let ys = log_runtimes(history);
        if self.ensure_surrogate(xs, &ys).is_err() {
            return ctx.space.random_config(rng); // degenerate data
        }
        let Some(cache) = self.cache.as_ref() else {
            return ctx.space.random_config(rng); // unreachable: ensure_surrogate succeeded
        };
        let gp = &cache.gp;
        let y_best = ys.iter().cloned().fold(f64::INFINITY, f64::min);

        let mut anchors = best_anchors(history, &ctx.space, 3);
        if let Some(cons) = &self.constraints {
            // The combined rule-of-thumb config stays an anchor for EI
            // perturbations: the priors' neighbourhood remains reachable
            // even when the incumbents sit elsewhere.
            if let Some(seed) = cons.seeds().first() {
                anchors.push(ctx.space.encode(seed));
            }
        }
        let pool = candidate_pool(dim, self.pool_size, &anchors, 40, 0.1, rng);
        let pool = match &self.constraints {
            Some(cons) => cons.apply_to_pool(&ctx.space, pool),
            None => pool,
        };
        // Batched EI over the whole pool: one cross-covariance + multi-RHS
        // solve per chunk instead of a triangular solve per candidate.
        match argmax_ei(gp, &pool, y_best, self.xi) {
            Some(j) => ctx.space.decode(&pool[j]),
            None => ctx.space.random_config(rng),
        }
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
        let mut obj = bowl(3);
        let mut tuner = ITunedTuner::new().with_init(8);
        let out = tune(&mut obj, &mut tuner, 8, 1);
        // Skip the default-config anchor (index 0); rows 1..8 come from
        // the hypercube, which as a whole satisfies the Latin property
        // before the anchor replacement.
        assert_eq!(out.history.len(), 8);
        assert!(is_latin(&tuner.init_plan) || tuner.init_plan.len() == 8);
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
    fn ard_variant_also_beats_random() {
        let budget = 28;
        let mut obj = bowl(4);
        let mut it = ITunedTuner::new().with_ard();
        let gp_best = tune(&mut obj, &mut it, budget, 3)
            .best
            .unwrap()
            .runtime_secs;
        let mut obj = bowl(4);
        let mut rs = RandomSearchTuner;
        let rs_best = tune(&mut obj, &mut rs, budget, 3)
            .best
            .unwrap()
            .runtime_secs;
        assert!(
            gp_best <= rs_best * 1.05,
            "ard {gp_best} vs random {rs_best}"
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
