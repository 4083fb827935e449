//! The Gaussian-process Bayesian-optimisation engine shared by iTuned and
//! OtterTune: one initial design, one surrogate cache and one
//! Expected-Improvement step.
//!
//! Both tuners run the same loop (GPTuner, 2311.03157, has the same shape:
//! a system-specific stage narrows the space, then one generic BO loop
//! runs). A tuner supplies only two things per proposal: its
//! [`TrainingSet`], and its candidate pool as a closure that
//! [`GpBo::propose`] calls after the fit.
//!
//! Seeded trajectories rest on the order of the RNG draws, which is fixed:
//! the LHS plan on the first call (OtterTune's metric pruning draws right
//! after it, once), then nothing until the surrogate is fitted, then the
//! pool's draws, or the fallback's `random_config` when the fit failed or
//! the pool is empty.

use crate::util::SearchConstraints;
use autotune_core::{Configuration, SurrogateStats, TuningContext};
use autotune_math::batch::{argmax_first, chunked_scores};
use autotune_math::gp::KernelKind;
use autotune_math::lhs::maximin_lhs;
use autotune_math::surrogate::{Surrogate, SurrogateConfig, SurrogateModel};
use rand::rngs::StdRng;

/// What fixes the rows of a training set's calibrated prefix: OtterTune's
/// mapped workload and the number of its observations.
pub(crate) type PrefixKey = (Option<String>, usize);

/// The GP training data of one proposal.
pub(crate) struct TrainingSet {
    /// Encoded configurations, in an order where each step only appends.
    pub(crate) xs: Vec<Vec<f64>>,
    /// Targets (log runtimes), one per row of `xs`.
    pub(crate) ys: Vec<f64>,
    /// `Some` when earlier targets are re-calibrated every step
    /// (OtterTune's, whose mapped prefix is rescaled onto the target's
    /// moments): the cached factor is reused only under the same key, and
    /// every target is re-solved against it. `None` (iTuned's) means a
    /// target never moves once it is in the set.
    pub(crate) moving_prefix: Option<PrefixKey>,
}

/// A surrogate kept alive across proposals.
///
/// Refitting from scratch costs a full hyper-parameter search per
/// proposal. The cache instead re-searches only every `hyper_interval`
/// observations and folds the observations in between in with
/// [`SurrogateModel::update`] (rank-1 Cholesky extension for the
/// exact/SoD backends, a rank-1 `A`-update for Nyström).
#[derive(Debug)]
struct GpCache {
    gp: SurrogateModel,
    /// Training-set size the last full hyper-parameter search saw.
    last_search: usize,
    /// Full fits over the tuner's lifetime, carried across cache
    /// replacements for observability.
    fits: u64,
    /// LML evaluations of those fits' hyper-parameter searches, carried
    /// the same way.
    lml_evals: u64,
    /// The training set's prefix key when it was fitted.
    prefix: Option<PrefixKey>,
}

impl GpCache {
    /// Tries to bring the surrogate up to date with an append-only training
    /// set by incremental updates alone. `false` means a full
    /// hyper-parameter search is due instead: the training set shrank or
    /// changed shape (new session), the re-search interval elapsed, the
    /// configured backend changed (the `auto` policy crossing its
    /// threshold), or a numerically degenerate update failed.
    fn try_advance(
        &mut self,
        config: &SurrogateConfig,
        xs: &[Vec<f64>],
        ys: &[f64],
        hyper_interval: usize,
    ) -> bool {
        let n = xs.len();
        let m = self.gp.observed_inputs().len();
        if m > n || n - self.last_search >= hyper_interval.max(1) {
            return false;
        }
        if !self.gp.matches(config, n) {
            return false;
        }
        if self.gp.observed_inputs().first().map(Vec::len) != xs.first().map(Vec::len) {
            return false;
        }
        // Append-only sanity check: the latest row the cache has seen must
        // still be where it was (a reused tuner on a fresh history refits).
        if m > 0 && self.gp.observed_inputs()[m - 1] != xs[m - 1] {
            return false;
        }
        for i in m..n {
            if self.gp.update(xs[i].clone(), ys[i]).is_err() {
                return false;
            }
        }
        true
    }
}

/// One GP-BO loop: the initial design, the surrogate cache and the
/// Expected-Improvement step, with the settings they read.
#[derive(Debug)]
pub(crate) struct GpBo {
    /// Maximin restarts of the LHS design (a per-tuner constant).
    lhs_restarts: usize,
    /// How many of the constraints' seeds the design admits (a per-tuner
    /// constant).
    rule_seed_cap: usize,
    /// Known-good configurations placed in the design right after the
    /// vendor default.
    pub(crate) seeds: Vec<Configuration>,
    /// Rule-based knob knowledge: dependency projection of every design
    /// row and pool point, and seed configurations for the design.
    pub(crate) constraints: Option<SearchConstraints>,
    /// Surrogate backend policy.
    pub(crate) surrogate: SurrogateConfig,
    /// Per-dimension (ARD) length scales instead of an isotropic kernel.
    pub(crate) ard: bool,
    /// Kernel hyper-parameters are re-searched every this-many
    /// observations; in between, the cache extends the fitted surrogate.
    pub(crate) hyper_interval: usize,
    /// Exploration jitter ξ in the EI criterion.
    pub(crate) xi: f64,
    plan: Option<Vec<Vec<f64>>>,
    cache: Option<GpCache>,
}

impl GpBo {
    /// An engine with the default settings (exact-below-threshold
    /// surrogate, isotropic Matérn-5/2, re-search every 5 observations,
    /// ξ = 0.01) and the tuner's design constants.
    pub(crate) fn new(lhs_restarts: usize, rule_seed_cap: usize) -> Self {
        GpBo {
            lhs_restarts,
            rule_seed_cap,
            seeds: Vec::new(),
            constraints: None,
            surrogate: SurrogateConfig::default(),
            ard: false,
            hyper_interval: 5,
            xi: 0.01,
            plan: None,
            cache: None,
        }
    }

    /// The initial design's row for step `step`, or `None` once the
    /// history has outgrown the design. The design is planned on the
    /// first call: `n` maximin LHS rows whose first rows are overwritten
    /// by the vendor default, then the caller's seeds, then the
    /// constraints' seeds (capped, so they inform the design without
    /// displacing its space-filling rows); with constraints, every row is
    /// then projected onto the dependency-feasible region, so a thin
    /// feasible set doesn't swallow the initial budget on infeasible rows.
    pub(crate) fn design_row(
        &mut self,
        ctx: &TuningContext,
        n: usize,
        step: usize,
        rng: &mut StdRng,
    ) -> Option<Configuration> {
        let space = &ctx.space;
        if self.plan.is_none() {
            let mut plan = maximin_lhs(n, space.dim(), self.lhs_restarts, rng);
            let default = space.default_config();
            let rule_seeds = self.constraints.iter().flat_map(|c| c.seeds());
            let known = std::iter::once(&default)
                .chain(&self.seeds)
                .chain(rule_seeds.take(self.rule_seed_cap));
            for (row, cfg) in plan.iter_mut().zip(known) {
                *row = space.encode(cfg);
            }
            if let Some(cons) = &self.constraints {
                for row in plan.iter_mut() {
                    cons.repair_point(space, row);
                }
            }
            self.plan = Some(plan);
        }
        self.plan.as_ref()?.get(step).map(|row| space.decode(row))
    }

    /// The model step: brings the cached surrogate up to date with
    /// `train`, draws the pool, projects it onto the constraints and
    /// returns the candidate of highest Expected Improvement over the
    /// best training target. A failed fit or an empty pool falls back to a
    /// random configuration.
    pub(crate) fn propose(
        &mut self,
        ctx: &TuningContext,
        train: TrainingSet,
        pool: impl FnOnce(&mut StdRng) -> Vec<Vec<f64>>,
        rng: &mut StdRng,
    ) -> Configuration {
        let TrainingSet {
            xs,
            ys,
            moving_prefix,
        } = train;
        let advanced = match &mut self.cache {
            Some(c) if c.prefix == moving_prefix => {
                c.try_advance(&self.surrogate, &xs, &ys, self.hyper_interval)
            }
            _ => false,
        };
        let gp = match &mut self.cache {
            Some(c) if advanced => {
                if moving_prefix.is_some() {
                    c.gp.refresh_targets(&ys);
                }
                &c.gp
            }
            _ => {
                let n = xs.len();
                let kind = KernelKind::Matern52;
                // The previous fit's θ, if any, warm-starts the search.
                let warm = self.cache.as_ref().map(|c| c.gp.kernel());
                let Ok(gp) =
                    SurrogateModel::fit_auto_from(&self.surrogate, kind, self.ard, xs, &ys, warm)
                else {
                    return ctx.space.random_config(rng); // degenerate data
                };
                let (fits, lml_evals) = self
                    .cache
                    .as_ref()
                    .map_or((0, 0), |c| (c.fits, c.lml_evals));
                let cache = GpCache {
                    fits: fits + 1,
                    lml_evals: lml_evals + gp.lml_evals(),
                    gp,
                    last_search: n,
                    prefix: moving_prefix,
                };
                &self.cache.insert(cache).gp
            }
        };
        let y_best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let mut pool = pool(rng);
        if let Some(cons) = &self.constraints {
            pool = cons.apply_to_pool(&ctx.space, pool);
        }
        // Batched EI in fixed-size chunks (one cross-covariance and one
        // multi-RHS solve per chunk), spread over spare cores when the
        // process has any free; for the exact backend the scores and the
        // pick (first index wins ties) are bit-identical to a per-point
        // loop at any thread count.
        let scores = chunked_scores(&pool, |chunk| {
            gp.expected_improvement_batch(chunk, y_best, self.xi)
        });
        match argmax_first(&scores) {
            Some(j) => ctx.space.decode(&pool[j]),
            None => ctx.space.random_config(rng),
        }
    }

    /// Observability snapshot of the cached surrogate, once one is fitted.
    pub(crate) fn stats(&self) -> Option<SurrogateStats> {
        self.cache.as_ref().map(|c| SurrogateStats {
            kind: c.gp.kind_label().to_string(),
            observed: c.gp.observed_len(),
            active: c.gp.active_len(),
            fits: c.fits,
            lml_evals: c.lml_evals,
        })
    }
}
