//! The Gaussian-process Bayesian-optimisation engine shared by iTuned and
//! OtterTune: one initial design, one surrogate cache and one
//! Expected-Improvement step.
//!
//! Both tuners run the same loop (GPTuner, 2311.03157, has the same shape:
//! a system-specific stage narrows the space, then one generic BO loop
//! runs). A tuner supplies only two things per proposal: its
//! [`TrainingSet`], and its candidate [`Pool`] as two closures that
//! [`GpBo::propose`] calls after the fit.
//!
//! The kernel's hyper-parameters are searched when the training set has
//! grown 25% since the last search; in between, each observation extends
//! the fitted surrogate by a rank-1 update. The pool's persistent part is
//! drawn at each search and again every [`SET_LIFETIME`] proposals, and
//! for the exact surrogate its whitened cross-covariance columns grow by
//! one row per observation, so scoring it costs `O(n·P)` instead of a
//! fresh `O(n²·P)` solve.
//!
//! Seeded trajectories rest on the order of the RNG draws, which is fixed:
//! the LHS plan on the first call (OtterTune's metric pruning draws right
//! after it, once), then nothing until the surrogate is fitted; then the
//! persistent part's draws at the first proposal after each search, after
//! a set's [`SET_LIFETIME`] proposals, or on a change of its key; then the
//! fresh part's draws at every proposal; or the fallback's `random_config`
//! when the fit failed or no candidate scores.

use crate::util::SearchConstraints;
use autotune_core::{Configuration, SurrogateStats, TuningContext};
use autotune_math::batch::{argmax_first, SCORING_CHUNK};
use autotune_math::gp::{GaussianProcess, KernelKind};
use autotune_math::lhs::maximin_lhs;
use autotune_math::surrogate::{Surrogate, SurrogateConfig, SurrogateModel};
use rand::rngs::StdRng;

/// What fixes the rows of a training set's calibrated prefix: OtterTune's
/// mapped workload and the number of its observations.
pub(crate) type PrefixKey = (Option<String>, usize);

/// What the persistent part of a pool depends on besides the search
/// epoch: OtterTune's top knobs and the incumbent its other knobs are
/// pinned to (empty for iTuned). A change of key redraws the set.
pub(crate) type SetKey = (Vec<usize>, Vec<f64>);

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

/// The candidate pool of one proposal, in two parts. The persistent part
/// is drawn at most once per search epoch and scored from columns kept up
/// to date across its proposals; the fresh part is drawn at every step.
pub(crate) struct Pool<P, F> {
    /// The persistent part's key.
    pub(crate) key: SetKey,
    /// Draws the persistent part: after each search, after
    /// [`SET_LIFETIME`] proposals, and when `key` changes.
    pub(crate) persistent: P,
    /// Draws the fresh part ([`FRESH_RANDOM`] random points, perturbations
    /// of the incumbents, OtterTune's mapped configurations).
    pub(crate) fresh: F,
}

/// A surrogate kept alive across proposals.
///
/// Refitting from scratch costs a full hyper-parameter search per
/// proposal. The cache instead re-searches once the training set has grown
/// 25% since the last search (at least one observation), so a session of
/// n observations runs O(log n) searches, and folds the observations in
/// between in with [`SurrogateModel::update`] (rank-1 Cholesky extension
/// for the exact/SoD backends, a rank-1 `A`-update for Nyström).
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
    /// The epoch's current persistent candidates.
    set: Option<CandidateSet>,
}

/// `last + max(1, ⌈last / 4⌉)`: the training-set size at which the
/// search after one at `last` observations runs.
fn next_search(last: usize) -> usize {
    last + last.div_ceil(4).max(1)
}

impl GpCache {
    /// Tries to bring the surrogate up to date with an append-only training
    /// set by incremental updates alone. `false` means a full
    /// hyper-parameter search is due instead: the training set shrank or
    /// changed shape (new session), it reached [`next_search`],
    /// the configured backend changed (the `auto` policy crossing its
    /// threshold), or a numerically degenerate update failed.
    fn try_advance(&mut self, config: &SurrogateConfig, xs: &[Vec<f64>], ys: &[f64]) -> bool {
        let n = xs.len();
        let m = self.gp.observed_inputs().len();
        if m > n || n >= next_search(self.last_search) {
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

/// Proposals one persistent set serves before it is redrawn. Its best
/// points are taken one per step while the rest of it stays as drawn, so
/// a set kept for a whole search epoch (up to a quarter of `n` steps)
/// offers ever weaker candidates: over 1000 paired seeds that cost
/// hadoop-terasort's iTuned 6% and dbms-oltp's OtterTune 7% of best
/// runtime (DESIGN.md §4c).
const SET_LIFETIME: usize = 4;

/// Uniform random points each pool's fresh part starts with, besides the
/// persistent set's (one scoring chunk). With [`SET_LIFETIME`] they keep
/// the search as wide as a pool drawn afresh at every step.
pub(crate) const FRESH_RANDOM: usize = SCORING_CHUNK;

/// The persistent part of the pool within one search epoch, in blocks of
/// [`SCORING_CHUNK`] points, so the sparse backends score it in the same
/// fixed chunks as any pool. A redraw reuses the blocks' buffers, so a
/// session's sets do not churn the allocator.
#[derive(Debug, Default)]
struct CandidateSet {
    key: SetKey,
    /// The cache's fit count when the set was drawn: a search redraws it.
    fit: u64,
    /// Proposals the set has served.
    proposals: usize,
    blocks: Vec<CandidateBlock>,
    /// The exact factor's jitter the blocks' columns were solved against.
    /// An update that falls back to a refactorization changes it, and the
    /// columns are rebuilt.
    jitter: f64,
}

/// One block of a [`CandidateSet`].
#[derive(Debug, Default)]
struct CandidateBlock {
    points: Vec<Vec<f64>>,
    /// Points already proposed. They keep their place, so ties resolve to
    /// the same index as in a freshly drawn pool, but no longer score.
    taken: Vec<bool>,
    /// Row-major whitened cross-covariance `L⁻¹·K(X, points)`, one row per
    /// training point it covers (exact backend only; empty otherwise).
    v: Vec<f64>,
    /// Each column's squared norm over `v`'s rows, accumulated in
    /// ascending row order as [`GaussianProcess::predict_batch`] does.
    sumsq: Vec<f64>,
    /// Each point's prior variance `k(q, q) + σn²`.
    prior: Vec<f64>,
}

impl CandidateSet {
    /// Replaces the points with a new draw for the cache's `fit`-th fit
    /// and clears the columns.
    fn redraw(&mut self, key: SetKey, points: Vec<Vec<f64>>, gp: &SurrogateModel, fit: u64) {
        self.key = key;
        self.fit = fit;
        self.proposals = 0;
        self.jitter = match gp {
            SurrogateModel::Exact(gp) => gp.jitter(),
            _ => 0.0,
        };
        self.blocks
            .resize_with(points.len().div_ceil(SCORING_CHUNK), Default::default);
        let mut points = points.into_iter();
        for block in &mut self.blocks {
            block.points.clear();
            block.points.extend(points.by_ref().take(SCORING_CHUNK));
            let width = block.points.len();
            block.taken.clear();
            block.taken.resize(width, false);
            block.v.clear();
            block.sumsq.clear();
            block.sumsq.resize(width, 0.0);
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.points.len()).sum()
    }

    /// EI of every point, in order, with `f64::NEG_INFINITY` for points
    /// already taken. The exact backend extends each block's columns by
    /// the rows observed since the last step and scores from them,
    /// `O(n·P)`; the sparse backends score the points with their batch EI.
    /// `reserve_rows` sizes the columns for the rest of the epoch.
    fn scores(
        &mut self,
        gp: &SurrogateModel,
        y_best: f64,
        xi: f64,
        reserve_rows: usize,
    ) -> Vec<f64> {
        let targets = match gp {
            SurrogateModel::Exact(exact) => {
                if exact.jitter().to_bits() != self.jitter.to_bits() {
                    self.jitter = exact.jitter();
                    for block in &mut self.blocks {
                        block.v.clear();
                        block.sumsq.fill(0.0);
                    }
                }
                Some(exact.whitened_targets())
            }
            _ => None,
        };
        let mut scores = Vec::with_capacity(self.len());
        for block in &mut self.blocks {
            let from = scores.len();
            match (gp, &targets) {
                (SurrogateModel::Exact(exact), Some((y_mean, w))) => {
                    block.extend(exact, reserve_rows);
                    let moments = block.exact_moments(*y_mean, w).into_iter();
                    let ei = moments
                        .map(|(mu, var)| GaussianProcess::ei_from_moments(mu, var, y_best, xi));
                    scores.extend(ei);
                }
                _ => scores.extend(gp.expected_improvement_batch(&block.points, y_best, xi)),
            }
            for (score, &taken) in scores[from..].iter_mut().zip(&block.taken) {
                if taken {
                    *score = f64::NEG_INFINITY;
                }
            }
        }
        scores
    }

    /// Marks point `j` taken and returns it.
    fn take(&mut self, j: usize) -> &[f64] {
        let block = &mut self.blocks[j / SCORING_CHUNK];
        block.taken[j % SCORING_CHUNK] = true;
        &block.points[j % SCORING_CHUNK]
    }
}

impl CandidateBlock {
    /// Brings the columns up to every training row of `gp`: one kernel row
    /// and one forward-substitution row per new observation, and each new
    /// row's squares added to the column norms.
    fn extend(&mut self, gp: &GaussianProcess, reserve_rows: usize) {
        let width = self.points.len();
        let from = self.v.len() / width;
        if from == 0 {
            let kernel = gp.kernel();
            self.prior.clear();
            let prior = self
                .points
                .iter()
                .map(|q| kernel.eval(q, q) + kernel.noise_variance);
            self.prior.extend(prior);
            self.v.reserve_exact(reserve_rows * width);
        }
        gp.extend_whitened_columns(&self.points, &mut self.v);
        for row in self.v[from * width..].chunks_exact(width) {
            for (acc, &x) in self.sumsq.iter_mut().zip(row) {
                *acc += x * x;
            }
        }
    }

    /// Predictive mean and variance of every point from the columns:
    /// `μ = ȳ + Σ_i V[i,j]·w[i]` with `w = L⁻¹(y − ȳ)`, and
    /// `σ² = k(q, q) + σn² − Σ_i V[i,j]²`.
    fn exact_moments(&self, y_mean: f64, w: &[f64]) -> Vec<(f64, f64)> {
        let width = self.points.len();
        let mut mu = vec![0.0; width];
        for (row, &wi) in self.v.chunks_exact(width).zip(w) {
            for (acc, &x) in mu.iter_mut().zip(row) {
                *acc += x * wi;
            }
        }
        mu.iter()
            .zip(&self.prior)
            .zip(&self.sumsq)
            .map(|((&m, &prior), &vv)| (y_mean + m, (prior - vv).max(0.0)))
            .collect()
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
    /// Exploration jitter ξ in the EI criterion.
    pub(crate) xi: f64,
    plan: Option<Vec<Vec<f64>>>,
    cache: Option<GpCache>,
}

impl GpBo {
    /// An engine with the default settings (exact-below-threshold
    /// surrogate, isotropic Matérn-5/2, ξ = 0.01) and the tuner's design
    /// constants.
    pub(crate) fn new(lhs_restarts: usize, rule_seed_cap: usize) -> Self {
        GpBo {
            lhs_restarts,
            rule_seed_cap,
            seeds: Vec::new(),
            constraints: None,
            surrogate: SurrogateConfig::default(),
            ard: false,
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
    /// `train`, draws the pool's persistent part unless the epoch has one
    /// under `pool.key` younger than [`SET_LIFETIME`] proposals, draws its
    /// fresh part, projects both onto the constraints, and returns the
    /// candidate of highest Expected Improvement over the best training
    /// target (persistent points first, the first index winning ties). A
    /// persistent point that is proposed leaves the set. A failed fit or an
    /// empty pool falls back to a random configuration.
    pub(crate) fn propose<P, F>(
        &mut self,
        ctx: &TuningContext,
        train: TrainingSet,
        pool: Pool<P, F>,
        rng: &mut StdRng,
    ) -> Configuration
    where
        P: FnOnce(&mut StdRng) -> Vec<Vec<f64>>,
        F: FnOnce(&mut StdRng) -> Vec<Vec<f64>>,
    {
        let TrainingSet {
            xs,
            ys,
            moving_prefix,
        } = train;
        let advanced = match &mut self.cache {
            Some(c) if c.prefix == moving_prefix => c.try_advance(&self.surrogate, &xs, &ys),
            _ => false,
        };
        let cache = match &mut self.cache {
            Some(c) if advanced => {
                if moving_prefix.is_some() {
                    c.gp.refresh_targets(&ys);
                }
                c
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
                let (fits, lml_evals, set) = self
                    .cache
                    .take()
                    .map_or((0, 0, None), |c| (c.fits, c.lml_evals, c.set));
                self.cache.insert(GpCache {
                    fits: fits + 1,
                    lml_evals: lml_evals + gp.lml_evals(),
                    gp,
                    last_search: n,
                    prefix: moving_prefix,
                    set,
                })
            }
        };
        let y_best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let project = |points: Vec<Vec<f64>>| match &self.constraints {
            Some(cons) => cons.apply_to_pool(&ctx.space, points),
            None => points,
        };
        let n = ys.len();
        let set = match &mut cache.set {
            Some(set)
                if set.fit == cache.fits && set.key == pool.key && set.proposals < SET_LIFETIME =>
            {
                set
            }
            slot => {
                let points = project((pool.persistent)(rng));
                let set = slot.get_or_insert_with(CandidateSet::default);
                set.redraw(pool.key, points, &cache.gp, cache.fits);
                set
            }
        };
        let fresh = project((pool.fresh)(rng));
        // The most rows the set's columns reach before a search or the end
        // of its lifetime replaces it.
        let reserve_rows =
            (n + SET_LIFETIME - 1 - set.proposals).min(next_search(cache.last_search) - 1);
        let gp = &cache.gp;
        let mut scores = set.scores(gp, y_best, self.xi, reserve_rows);
        set.proposals += 1;
        // The fresh part in fixed-size chunks (one cross-covariance and
        // one multi-RHS solve per chunk); for the exact backend every score
        // is bit-identical to a per-point `predict`. Scoring runs on the
        // proposing thread: it takes a few hundred microseconds, and a
        // helper thread started for it makes the proposal wait until the
        // scheduler runs the helper, on a busy host a time slice, several
        // times the work it would save.
        for chunk in fresh.chunks(SCORING_CHUNK) {
            scores.extend(gp.expected_improvement_batch(chunk, y_best, self.xi));
        }
        let persistent = set.len();
        match argmax_first(&scores) {
            Some(j) if j < persistent => ctx.space.decode(set.take(j)),
            Some(j) => ctx.space.decode(&fresh[j - persistent]),
            None => ctx.space.random_config(rng),
        }
    }

    /// Drops the epoch's candidate set and its columns, the bulk of the
    /// engine's memory, once no further proposal will be made; the fitted
    /// surrogate and its stats stay.
    pub(crate) fn release(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.set = None;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ITunedTuner;
    use autotune_core::{tune, Tuner};
    use autotune_math::gp::Kernel;
    use autotune_math::lhs::latin_hypercube;
    use autotune_sim::{DbmsSimulator, NoiseModel};
    use rand::SeedableRng;

    #[test]
    fn searches_run_on_25_percent_growth() {
        let schedule: Vec<usize> = std::iter::successors(Some(20), |&n| Some(next_search(n)))
            .take_while(|&n| n < 112)
            .collect();
        assert_eq!(schedule, [20, 25, 32, 40, 50, 63, 79, 99]);
        assert_eq!(next_search(1), 2);
        assert_eq!(next_search(3), 4);
        // dbms-oltp's 12 knobs give a 20-row design, so proposals at 20..60
        // observations search at 20, 25, 32, 40 and 50.
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut tuner = ITunedTuner::new();
        tune(&mut sim, &mut tuner, 60, 5);
        let stats = tuner.surrogate_stats().expect("fitted");
        assert_eq!((stats.fits, stats.observed), (5, 59));
    }

    fn toy(x: &[f64]) -> f64 {
        (3.0 * x[0]).sin() + 0.5 * x[1] + 2.0
    }

    /// An exact surrogate on the first `n` of 60 toy points, the remaining
    /// points, and a 300-point candidate set over three blocks.
    fn exact_setup(n: usize) -> (SurrogateModel, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(41);
        let xs = latin_hypercube(60, 2, &mut rng);
        let ys: Vec<f64> = xs.iter().map(|x| toy(x)).collect();
        let mut kernel = Kernel::new(KernelKind::Matern52, 2, 0.3);
        kernel.noise_variance = 1e-4;
        let gp = GaussianProcess::fit(kernel, xs[..n].to_vec(), &ys[..n]).expect("fit");
        let points = latin_hypercube(300, 2, &mut rng);
        (SurrogateModel::Exact(gp), xs[n..].to_vec(), points)
    }

    #[test]
    fn the_set_follows_updates_and_a_target_refresh() {
        let (mut model, rest, points) = exact_setup(30);
        let mut set = CandidateSet::default();
        set.redraw(Default::default(), points.clone(), &model, 1);
        set.scores(&model, 2.0, 0.01, 40);
        for x in &rest[..9] {
            model.update(x.clone(), toy(x)).expect("update");
        }
        let SurrogateModel::Exact(gp) = &mut model else {
            unreachable!()
        };
        let ys: Vec<f64> = gp
            .training_targets()
            .iter()
            .map(|y| 1.5 * y - 0.2)
            .collect();
        gp.refresh_targets(&ys);
        set.scores(&model, 2.0, 0.01, 40);
        let SurrogateModel::Exact(gp) = &model else {
            unreachable!()
        };
        let (y_mean, w) = gp.whitened_targets();
        let from_set: Vec<(f64, f64)> = set
            .blocks
            .iter()
            .flat_map(|b| b.exact_moments(y_mean, &w))
            .collect();
        let batch = gp.predict_batch(&points);
        assert_eq!(from_set.len(), points.len());
        for (j, ((mu, var), (mu_b, var_b))) in from_set.into_iter().zip(batch).enumerate() {
            assert_eq!(var.to_bits(), var_b.to_bits(), "variance of point {j}");
            assert!(
                (mu - mu_b).abs() <= 1e-12 * mu_b.abs(),
                "mean of point {j}: {mu} vs {mu_b}"
            );
        }
    }

    #[test]
    fn a_taken_point_leaves_the_set() {
        let (model, _, points) = exact_setup(30);
        let mut set = CandidateSet::default();
        set.redraw(Default::default(), points.clone(), &model, 1);
        let first = set.scores(&model, 2.0, 0.01, 40);
        let j = argmax_first(&first).expect("a point scores");
        assert_eq!(set.take(j), &points[j][..]);
        let second = set.scores(&model, 2.0, 0.01, 40);
        assert_eq!(second[j], f64::NEG_INFINITY);
        assert_ne!(argmax_first(&second), Some(j));
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            if i != j {
                assert_eq!(a.to_bits(), b.to_bits(), "point {i} moved");
            }
        }
        // A redraw reuses the buffers and starts from a clean mask.
        set.redraw(Default::default(), points, &model, 2);
        let third = set.scores(&model, 2.0, 0.01, 40);
        assert!(first
            .iter()
            .zip(&third)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
