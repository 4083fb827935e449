//! OtterTune: automatic DBMS tuning through large-scale machine learning
//! (Van Aken, Pavlo, Gordon & Zhang, SIGMOD 2017; demo PVLDB 2018).
//!
//! The pipeline, reproduced stage by stage:
//!
//! 1. **Metric pruning** — factor-analyse the runtime metrics gathered
//!    across all past workloads (PCA here), cluster metrics by their
//!    factor loadings (k-means), keep one representative per cluster.
//! 2. **Knob ranking** — Lasso path over (knob settings → runtime): knobs
//!    entering the path first matter most. The GP searches only the set
//!    of the top-k knobs, so each proposal walks the path only until that
//!    set is decided (`top_knobs`); [`rank_knobs`] still ranks every
//!    knob, and the set is its first k.
//! 3. **Workload mapping** — match the target workload to the most similar
//!    past workload by distance in pruned-metric space at comparable
//!    configurations.
//! 4. **Recommendation** — Gaussian process over the mapped workload's
//!    data plus the target's own observations, Expected Improvement on the
//!    top-ranked knobs.
//!
//! Stage 4 runs on the GP-BO engine shared with iTuned (`crate::bo::GpBo`).
//! OtterTune supplies its training set (the mapped prefix, calibrated onto
//! the target's moments, then the target's rows; the mapped workload keys
//! the surrogate cache) and its pool: 400 top-knob random points with the
//! other knobs pinned to the incumbent, kept for a few steps of a search
//! epoch unless the top knobs or the incumbent change; then, drawn at
//! every step, 128 more such points, perturbations of the incumbent and
//! of the mapped workload's best configurations, and those configurations
//! themselves. Its design constants are a 5-row bootstrap, 8 maximin
//! restarts and at most 2 rule seeds. Of stages 1–3 only metric pruning
//! draws from the RNG, once, right after the design is planned.

use crate::bo::{GpBo, Pool, TrainingSet, FRESH_RANDOM};
use crate::util::{best_anchors, candidate_pool, log_runtimes, log_target, SearchConstraints};
use autotune_core::{
    ConfigSpace, Configuration, History, KnobRanking, Metrics, Observation, Recommendation,
    SurrogateStats, Tuner, TunerFamily, TuningContext,
};
use autotune_math::kmeans::{kmeans, representatives};
use autotune_math::lasso::{rank_by_path, top_k_by_path};
use autotune_math::matrix::{dist2, Matrix};
use autotune_math::pca::Pca;
use autotune_math::stats::{mean, standardize, std_dev};
use rand::rngs::StdRng;

/// A past workload stored in the tuning repository.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RepoWorkload {
    /// Workload identifier.
    pub id: String,
    /// Observations gathered while tuning it.
    pub observations: Vec<Observation>,
}

/// The repository of previously tuned workloads.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct WorkloadRepository {
    /// Stored workloads.
    pub workloads: Vec<RepoWorkload>,
}

impl WorkloadRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a workload's observation log.
    pub fn add(&mut self, id: &str, observations: Vec<Observation>) {
        self.workloads.push(RepoWorkload {
            id: id.to_string(),
            observations,
        });
    }

    /// Total observations across workloads.
    pub fn total_observations(&self) -> usize {
        self.workloads.iter().map(|w| w.observations.len()).sum()
    }

    /// All observations flattened.
    pub fn all_observations(&self) -> impl Iterator<Item = &Observation> {
        self.workloads.iter().flat_map(|w| w.observations.iter())
    }

    /// Serializes the repository to JSON (for persistence across tuning
    /// services — OtterTune's repository is its long-term asset).
    pub fn to_json(&self) -> String {
        // lint:allow(unwrap) serializing a plain in-memory data struct cannot fail
        serde_json::to_string(self).expect("repository serializes")
    }

    /// Restores a repository from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Stage 1: metric pruning. Returns the names of the retained metrics.
pub fn prune_metrics(
    repo: &WorkloadRepository,
    max_clusters: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    // Metric matrix over every repo observation.
    let mut names: Vec<String> = repo
        .all_observations()
        .flat_map(|o| o.metrics.keys().cloned())
        .collect();
    names.sort();
    names.dedup();
    if names.is_empty() {
        return names;
    }
    let rows: Vec<Vec<f64>> = repo
        .all_observations()
        .map(|o| {
            names
                .iter()
                .map(|n| o.metrics.get(n).copied().unwrap_or(0.0))
                .collect()
        })
        .collect();
    if rows.len() < 3 {
        return names;
    }
    // Standardize each metric column, then treat each METRIC as a point
    // whose coordinates are its (standardized) values across observations,
    // compressed by PCA to a handful of factors.
    let n = rows.len();
    let p = names.len();
    let mut by_metric: Vec<Vec<f64>> = vec![vec![0.0; n]; p];
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            by_metric[j][i] = v;
        }
    }
    for col in by_metric.iter_mut() {
        *col = standardize(col);
    }
    let metric_matrix = Matrix::from_rows(&by_metric);
    let factors = 5.min(n.saturating_sub(1)).max(1);
    let Ok(pca) = Pca::fit(&metric_matrix, factors.min(metric_matrix.cols())) else {
        return names;
    };
    let points: Vec<Vec<f64>> = (0..p)
        .map(|j| pca.transform_row(metric_matrix.row(j)))
        .collect();
    let k = max_clusters.min(p).max(1);
    let result = kmeans(&points, k, 4, 60, rng);
    let reps = representatives(&points, &result);
    let mut kept: Vec<String> = reps.into_iter().map(|i| names[i].clone()).collect();
    kept.sort();
    kept.dedup();
    kept
}

/// The design stage 2 ranks on: encoded knob settings → the GP's target
/// ([`log_target`], so a failed run ranks as the surrogate sees it). `None`
/// below 4 observations, where every knob ranks equal, in space order.
fn ranking_design(
    space: &ConfigSpace,
    observations: &[&Observation],
) -> Option<(Matrix, Vec<f64>)> {
    if observations.len() < 4 {
        return None;
    }
    let rows: Vec<Vec<f64>> = observations
        .iter()
        .map(|o| space.encode(&o.config))
        .collect();
    let y = observations.iter().map(|o| log_target(o)).collect();
    Some((Matrix::from_rows(&rows), y))
}

/// Stage 2: knob ranking by Lasso path order.
pub fn rank_knobs(space: &ConfigSpace, observations: &[&Observation]) -> KnobRanking {
    let Some((x, y)) = ranking_design(space, observations) else {
        return KnobRanking::new(
            space
                .params()
                .iter()
                .map(|p| (p.name.clone(), 0.0))
                .collect(),
        );
    };
    let order = rank_by_path(&x, &y);
    let p = order.len();
    KnobRanking::new(
        order
            .into_iter()
            .enumerate()
            .map(|(rank, idx)| {
                (
                    space.params()[idx].name.clone(),
                    (p - rank) as f64 / p as f64,
                )
            })
            .collect(),
    )
}

/// The space indices of [`rank_knobs`]' `k` top knobs, as a sorted set.
/// The Lasso path stops as soon as the set is decided
/// ([`top_k_by_path`]), so this is cheaper than ranking every knob.
fn top_knobs(space: &ConfigSpace, observations: &[&Observation], k: usize) -> Vec<usize> {
    match ranking_design(space, observations) {
        Some((x, y)) => top_k_by_path(&x, &y, k),
        None => (0..k.min(space.dim())).collect(),
    }
}

/// Distance between the target history and one repo workload in pruned
/// metric space: for every target observation, find the repo observation
/// with the nearest *configuration* and accumulate metric distance.
/// `target_xs` and `candidate_xs` are the encoded configurations of the
/// target's and the candidate's observations, in order.
fn workload_distance(
    target: &History,
    target_xs: &[Vec<f64>],
    candidate: &RepoWorkload,
    candidate_xs: &[Vec<f64>],
    pruned: &[String],
    scale: &Metrics,
) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (t, tx) in target.all().iter().zip(target_xs) {
        let nearest = candidate
            .observations
            .iter()
            .zip(candidate_xs)
            .map(|(o, x)| (o, dist2(x, tx)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((near, _)) = nearest else { continue };
        let mut d = 0.0;
        for m in pruned {
            let s = scale.get(m).copied().unwrap_or(1.0).max(1e-9);
            let a = t.metrics.get(m).copied().unwrap_or(0.0) / s;
            let b = near.metrics.get(m).copied().unwrap_or(0.0) / s;
            d += (a - b) * (a - b);
        }
        total += d;
        count += 1;
    }
    if count == 0 {
        f64::INFINITY
    } else {
        total / count as f64
    }
}

/// Stage 3: workload mapping. Returns the index of the most similar repo
/// workload, or `None` for an empty repository.
pub fn map_workload(
    space: &ConfigSpace,
    target: &History,
    repo: &WorkloadRepository,
    pruned: &[String],
) -> Option<usize> {
    if repo.workloads.is_empty() || target.is_empty() {
        return None;
    }
    // Per-metric scale over the repo for normalized distance.
    let mut scale = Metrics::new();
    for m in pruned {
        let vals: Vec<f64> = repo
            .all_observations()
            .map(|o| o.metrics.get(m).copied().unwrap_or(0.0))
            .collect();
        scale.insert(m.clone(), std_dev(&vals).max(1e-9));
    }
    let encode = |obs: &[Observation]| -> Vec<Vec<f64>> {
        obs.iter().map(|o| space.encode(&o.config)).collect()
    };
    let target_xs = encode(target.all());
    let mut best = None;
    let mut best_d = f64::INFINITY;
    for (i, w) in repo.workloads.iter().enumerate() {
        let xs = encode(&w.observations);
        let d = workload_distance(target, &target_xs, w, &xs, pruned, &scale);
        if d < best_d {
            best_d = d;
            best = Some(i);
        }
    }
    best
}

/// LHS bootstrap size on the target workload.
const INIT_SAMPLES: usize = 5;
/// Maximin restarts of the bootstrap design.
const LHS_RESTARTS: usize = 8;
/// Constraint seed configurations the bootstrap design admits.
const RULE_SEEDS: usize = 2;
/// Knobs the GP varies freely (the Lasso top-k); the rest stay pinned to
/// the incumbent in the random part of the pool.
const TOP_KNOBS: usize = 6;
/// Metric clusters kept in pruning.
const METRIC_CLUSTERS: usize = 8;

/// The OtterTune tuner.
pub struct OtterTuneTuner {
    /// Repository of past workloads (may be empty — cold start).
    pub repository: WorkloadRepository,
    /// Mapped repo workload id (after mapping happens).
    pub mapped_workload: Option<String>,
    /// Retained metric names, pruned once right after the bootstrap design
    /// is planned.
    pruned_metrics: Option<Vec<String>>,
    bo: GpBo,
}

impl OtterTuneTuner {
    /// Creates an OtterTune tuner backed by a repository.
    pub fn new(repository: WorkloadRepository) -> Self {
        OtterTuneTuner {
            repository,
            mapped_workload: None,
            pruned_metrics: None,
            bo: GpBo::new(LHS_RESTARTS, RULE_SEEDS),
        }
    }

    /// Retained metrics after pruning (populated lazily).
    pub fn pruned_metrics(&self) -> &[String] {
        self.pruned_metrics.as_deref().unwrap_or_default()
    }

    /// Adds a past session's observation log to the repository under `id` —
    /// the warm-start entry point for persistent session stores: workload
    /// mapping will consider the transferred log like any other repository
    /// workload, and its best configurations become EI anchors.
    pub fn with_transfer(mut self, id: &str, observations: Vec<Observation>) -> Self {
        self.repository.add(id, observations);
        self
    }

    /// Applies rule-based knob knowledge (dependencies, prior seeds).
    /// Opt-in: without this call the tuner's trajectories are unchanged.
    pub fn with_constraints(mut self, constraints: SearchConstraints) -> Self {
        self.bo.constraints = Some(constraints);
        self
    }
}

impl Tuner for OtterTuneTuner {
    fn name(&self) -> &str {
        "ottertune"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::MachineLearning
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
        let row = self.bo.design_row(ctx, INIT_SAMPLES, history.len(), rng);
        let pruned = self
            .pruned_metrics
            .get_or_insert_with(|| prune_metrics(&self.repository, METRIC_CLUSTERS, rng));
        if let Some(row) = row {
            return row;
        }

        // Map the target onto the repository.
        let mapped = map_workload(&ctx.space, history, &self.repository, pruned)
            .map(|i| &self.repository.workloads[i]);
        self.mapped_workload = mapped.map(|w| w.id.clone());
        let mapped_obs = mapped.map_or(&[][..], |w| &w.observations);

        // Training data: calibrated mapped data first, then the target
        // history. Mapped-first ordering makes every new target
        // observation an *append*, which the surrogate cache turns into a
        // rank-1 Cholesky extension instead of a refit; the calibration
        // moves with every target observation, so the prefix's targets
        // move too.
        let (mut xs, _) = history.training_set(&ctx.space);
        let target_ys = log_runtimes(history);
        let target_mean = mean(&target_ys);
        let target_sd = std_dev(&target_ys).max(1e-6);
        let mapped_ys: Vec<f64> = mapped_obs.iter().map(log_target).collect();
        let m_mean = mean(&mapped_ys);
        let m_sd = std_dev(&mapped_ys).max(1e-6);
        // Decile-style calibration: shift the mapped workload's response
        // distribution onto the target's.
        let mut ys: Vec<f64> = mapped_ys
            .iter()
            .map(|my| (my - m_mean) / m_sd * target_sd + target_mean)
            .collect();
        ys.extend(target_ys);
        xs.splice(0..0, mapped_obs.iter().map(|o| ctx.space.encode(&o.config)));
        let train = TrainingSet {
            xs,
            ys,
            moving_prefix: Some((self.mapped_workload.clone(), mapped_obs.len())),
        };

        // Knob ranking over everything we know.
        let all_obs: Vec<&Observation> = history.all().iter().chain(mapped_obs).collect();
        let top = top_knobs(&ctx.space, &all_obs, TOP_KNOBS);

        // Candidate pool: (a) random points varying only the top knobs
        // (others pinned to the incumbent), most of them kept while both
        // stay the same, and (b) unpinned perturbations
        // of the incumbent AND of the mapped workload's best configurations
        // — the transferred knowledge must stay reachable even when it
        // differs from the incumbent in low-ranked knobs — plus (c) those
        // transferred configurations themselves.
        let base = best_anchors(history, &ctx.space, 1)
            .pop()
            .unwrap_or_else(|| vec![0.5; dim]);
        let mut best_mapped: Vec<&Observation> = mapped_obs.iter().collect();
        best_mapped.sort_by(|a, b| a.runtime_secs.total_cmp(&b.runtime_secs));
        let mut anchors = vec![base.clone()];
        anchors.extend(
            best_mapped
                .iter()
                .take(3)
                .map(|o| ctx.space.encode(&o.config)),
        );
        let pinned = |k: usize, rng: &mut StdRng| {
            let mut pool = candidate_pool(dim, k, &[], 0, 0.1, rng);
            for p in pool.iter_mut() {
                for d in (0..dim).filter(|d| !top.contains(d)) {
                    p[d] = base[d];
                }
            }
            pool
        };
        let pool = Pool {
            key: (top.clone(), base.clone()),
            persistent: |rng: &mut StdRng| pinned(400, rng),
            fresh: |rng: &mut StdRng| {
                let mut pool = pinned(FRESH_RANDOM, rng);
                pool.extend(candidate_pool(dim, 0, &anchors, 40, 0.08, rng));
                pool.extend(anchors.iter().skip(1).cloned());
                pool
            },
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
                    "OtterTune pipeline; mapped workload: {}; pruned metrics: {}",
                    self.mapped_workload
                        .as_deref()
                        .unwrap_or("none (cold start)"),
                    self.pruned_metrics().len()
                ),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no observations".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::dbms::DbmsWorkload;
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::{DbmsSimulator, NodeSpec};
    use rand::SeedableRng;

    /// Builds a repository by random-sampling some DBMS workloads.
    fn build_repo(per_workload: usize, seed: u64) -> WorkloadRepository {
        let mut repo = WorkloadRepository::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for (id, wl) in [
            ("oltp-like", DbmsWorkload::oltp()),
            ("olap-like", DbmsWorkload::olap()),
            ("mixed-like", DbmsWorkload::mixed()),
        ] {
            let mut sim =
                DbmsSimulator::new(NodeSpec::default(), wl).with_noise(NoiseModel::none());
            let mut obs = Vec::new();
            // Include the default so workload mapping has an anchor.
            let d = sim.space().default_config();
            obs.push(sim.evaluate(&d, &mut rng));
            for _ in 0..per_workload.saturating_sub(1) {
                let c = sim.space().random_config(&mut rng);
                obs.push(sim.evaluate(&c, &mut rng));
            }
            repo.add(id, obs);
        }
        repo
    }

    #[test]
    fn metric_pruning_reduces_dimensionality() {
        let repo = build_repo(15, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let pruned = prune_metrics(&repo, 6, &mut rng);
        let all: usize = {
            let mut names: Vec<String> = repo
                .all_observations()
                .flat_map(|o| o.metrics.keys().cloned())
                .collect();
            names.sort();
            names.dedup();
            names.len()
        };
        assert!(!pruned.is_empty());
        assert!(pruned.len() <= 6);
        assert!(
            pruned.len() < all,
            "pruning should drop metrics ({all} total)"
        );
    }

    #[test]
    fn knob_ranking_finds_memory_knobs_for_olap() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let mut obs = Vec::new();
        for _ in 0..60 {
            let c = sim.space().random_config(&mut rng);
            obs.push(sim.evaluate(&c, &mut rng));
        }
        let refs: Vec<&Observation> = obs.iter().collect();
        let ranking = rank_knobs(sim.space(), &refs);
        let top5 = ranking.top_k(5);
        assert!(
            top5.contains(&"work_mem_mb") || top5.contains(&"shared_buffers_mb"),
            "top5={top5:?}"
        );
    }

    #[test]
    fn top_knobs_is_the_ranking_prefix_as_a_set() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
        let space = sim.space().clone();
        let obs: Vec<Observation> = (0..24)
            .map(|_| {
                let c = space.random_config(&mut rng);
                sim.evaluate(&c, &mut rng)
            })
            .collect();
        // Below 4 observations every knob ranks equal, in space order.
        for n in [0, 3, 4, 12, 24] {
            let refs: Vec<&Observation> = obs[..n].iter().collect();
            let ranking = rank_knobs(&space, &refs);
            for k in 0..=space.dim() + 1 {
                let mut want: Vec<usize> = ranking
                    .top_k(k)
                    .into_iter()
                    .filter_map(|name| space.index_of(name))
                    .collect();
                want.sort_unstable();
                assert_eq!(top_knobs(&space, &refs, k), want, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn workload_mapping_picks_the_right_twin() {
        let repo = build_repo(12, 4);
        // Target = a fresh OLTP instance; its metric signature should map
        // to "oltp-like", not "olap-like".
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut rng = StdRng::seed_from_u64(5);
        let mut history = History::new();
        let d = sim.space().default_config();
        history.push(sim.evaluate(&d, &mut rng));
        for _ in 0..4 {
            let c = sim.space().random_config(&mut rng);
            history.push(sim.evaluate(&c, &mut rng));
        }
        let mut rng2 = StdRng::seed_from_u64(6);
        let pruned = prune_metrics(&repo, 8, &mut rng2);
        let mapped = map_workload(sim.space(), &history, &repo, &pruned).unwrap();
        // The OLTP target must map to a transactional twin (oltp-like or
        // the 75%-point-select mixed workload), never the analytical one.
        assert_ne!(repo.workloads[mapped].id, "olap-like");
    }

    #[test]
    fn ottertune_with_repo_beats_defaults_quickly() {
        let repo = build_repo(20, 7);
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = OtterTuneTuner::new(repo);
        let out = tune(&mut sim, &mut tuner, 20, 8);
        let best = out.best.unwrap().runtime_secs;
        assert!(
            best < default_rt * 0.6,
            "default={default_rt} ottertune={best}"
        );
        assert!(tuner.mapped_workload.is_some());
    }

    #[test]
    fn repository_roundtrips_through_json() {
        let repo = build_repo(6, 21);
        let json = repo.to_json();
        let back = WorkloadRepository::from_json(&json).unwrap();
        assert_eq!(back.workloads.len(), repo.workloads.len());
        assert_eq!(back.total_observations(), repo.total_observations());
        assert_eq!(back.workloads[0].id, repo.workloads[0].id);
        assert_eq!(
            back.workloads[0].observations[0].config,
            repo.workloads[0].observations[0].config
        );
    }

    #[test]
    fn cold_start_still_works() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = OtterTuneTuner::new(WorkloadRepository::new());
        let out = tune(&mut sim, &mut tuner, 18, 9);
        let best = out.best.unwrap().runtime_secs;
        assert!(best < default_rt, "default={default_rt} cold={best}");
        assert!(tuner.mapped_workload.is_none());
    }
}
