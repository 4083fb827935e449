//! **Experiments C1–C7** — the quantitative claims scattered through the
//! tutorial's prose, each regenerated as a measurement (see DESIGN.md's
//! experiment index).

use crate::exec::SessionExecutor;
use crate::sensitivity::{oat_sensitivity, significant_knobs};
use autotune_core::{tune, Objective};
use autotune_math::anova::effect_decomposition;
use autotune_math::design::TwoLevelDesign;
use autotune_sim::cluster::{ClusterSpec, NodeSpec};
use autotune_sim::hadoop::{benchmark_config, HadoopJob, HadoopSimulator};
use autotune_sim::paralleldb::ParallelDbBaseline;
use autotune_sim::spark::SparkSimulator;
use autotune_sim::{dbms::knobs as dbms, hadoop::knobs as hadoop};
use autotune_sim::{DbmsSimulator, NoiseModel};
use autotune_tuners::adaptive::ColtTuner;
use autotune_tuners::experiment::ITunedTuner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// A labelled objective constructor — `fn` pointers are `Send + Copy`, so
/// these fan out over executor jobs without cloning state.
type ObjectiveEntry = (&'static str, fn() -> Box<dyn Objective>);
/// A labelled tuner constructor, same fan-out idiom.
type TunerEntry = (&'static str, fn() -> Box<dyn autotune_core::Tuner>);

// ---------------------------------------------------------------------------
// C1: misconfiguration hurts, tuning yields order-of-magnitude gains
// ---------------------------------------------------------------------------

/// C1 result for one system.
#[derive(Debug, Serialize)]
pub struct SpeedupClaimRow {
    /// System label.
    pub system: String,
    /// Default-configuration runtime (s).
    pub default_secs: f64,
    /// Worst random configuration runtime over 40 samples (s).
    pub worst_secs: f64,
    /// Best tuned runtime (iTuned, 40 experiments) (s).
    pub tuned_secs: f64,
    /// default / tuned.
    pub speedup: f64,
    /// worst / default (the misconfiguration penalty).
    pub misconfig_penalty: f64,
}

/// Runs C1 across the three systems (one executor job per system).
pub fn speedup_claim(seed: u64) -> Vec<SpeedupClaimRow> {
    let objectives: [ObjectiveEntry; 3] = [
        ("DBMS (OLTP)", || {
            Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::none()))
        }),
        ("Hadoop (TeraSort)", || {
            Box::new(HadoopSimulator::terasort_default().with_noise(NoiseModel::none()))
        }),
        ("Spark (aggregation)", || {
            Box::new(SparkSimulator::aggregation_default().with_noise(NoiseModel::none()))
        }),
    ];
    SessionExecutor::from_env().run(
        objectives
            .iter()
            .map(|&(label, make)| {
                move || {
                    let mut obj = make();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let default_secs = obj
                        .evaluate(&obj.space().default_config(), &mut rng)
                        .runtime_secs;
                    let mut worst: f64 = 0.0;
                    for _ in 0..40 {
                        let c = obj.space().random_config(&mut rng);
                        worst = worst.max(obj.evaluate(&c, &mut rng).runtime_secs);
                    }
                    let mut tuner = ITunedTuner::new();
                    let tuned_secs = tune(obj.as_mut(), &mut tuner, 40, seed)
                        .best
                        .expect("ran")
                        .runtime_secs;
                    SpeedupClaimRow {
                        system: label.to_string(),
                        default_secs,
                        worst_secs: worst,
                        tuned_secs,
                        speedup: default_secs / tuned_secs,
                        misconfig_penalty: worst / default_secs,
                    }
                }
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// C2: untuned Hadoop is several-fold slower than a parallel DBMS; tuning
// closes the gap
// ---------------------------------------------------------------------------

/// C2 result for one analytical workload.
#[derive(Debug, Serialize)]
pub struct HadoopGapRow {
    /// Workload name.
    pub workload: String,
    /// Parallel DB runtime (s).
    pub parallel_db_secs: f64,
    /// As-benchmarked (untuned) Hadoop runtime (s).
    pub hadoop_untuned_secs: f64,
    /// Tuned Hadoop runtime (iTuned, 30 experiments) (s).
    pub hadoop_tuned_secs: f64,
    /// untuned gap (×).
    pub gap_untuned: f64,
    /// tuned gap (×).
    pub gap_tuned: f64,
}

/// Runs C2 over the analytical suite (one executor job per workload).
pub fn hadoop_gap(seed: u64) -> Vec<HadoopGapRow> {
    let cluster = ClusterSpec::homogeneous(8, NodeSpec::default());
    let data_mb = 32_768.0;
    let db = ParallelDbBaseline::new(cluster.clone());
    let (cluster, db) = (&cluster, &db);
    let jobs = HadoopJob::analytical_suite(data_mb)
        .into_iter()
        .map(|job| {
            move || {
                let task = ParallelDbBaseline::task_for_job(&job);
                let db_secs = db.runtime_secs(task, data_mb);
                let sim = HadoopSimulator::new(cluster.clone(), job.clone())
                    .with_noise(NoiseModel::none());
                let untuned = sim.simulate(&benchmark_config(cluster)).runtime_secs;
                let mut sim = HadoopSimulator::new(cluster.clone(), job.clone())
                    .with_noise(NoiseModel::none());
                // Seed the design with the rule-of-thumb benchmark config —
                // the realistic starting point a Hadoop operator already
                // has. Most random Hadoop configs fail outright, so without
                // the anchor a small budget can stay entirely in failure
                // regions.
                let mut tuner = ITunedTuner::new().with_seed_configs([benchmark_config(cluster)]);
                let tuned = tune(&mut sim, &mut tuner, 30, seed)
                    .best
                    .expect("ran")
                    .runtime_secs;
                HadoopGapRow {
                    workload: job.name,
                    parallel_db_secs: db_secs,
                    hadoop_untuned_secs: untuned,
                    hadoop_tuned_secs: tuned,
                    gap_untuned: untuned / db_secs,
                    gap_tuned: tuned / db_secs,
                }
            }
        })
        .collect();
    SessionExecutor::from_env().run(jobs)
}

// ---------------------------------------------------------------------------
// C3: only a minority of exposed knobs matter (≈30 of 200 for Spark)
// ---------------------------------------------------------------------------

/// C3 result.
#[derive(Debug, Serialize)]
pub struct SensitivityReport {
    /// System label.
    pub system: String,
    /// Knobs in the modelled space.
    pub total_knobs: usize,
    /// Knobs whose one-at-a-time impact exceeds 5% of default runtime.
    pub significant: Vec<String>,
    /// Impact per knob (name, fraction of default runtime).
    pub impacts: Vec<(String, f64)>,
}

/// Runs C3 for Spark and the DBMS (one executor job per system).
pub fn knob_sensitivity() -> Vec<SensitivityReport> {
    fn report(label: &str, obj: &mut dyn Objective) -> SensitivityReport {
        let ranking = oat_sensitivity(obj);
        SensitivityReport {
            system: label.into(),
            total_knobs: obj.space().dim(),
            significant: significant_knobs(&ranking, 0.05),
            impacts: ranking
                .entries()
                .iter()
                .map(|(n, v)| (n.clone(), *v))
                .collect(),
        }
    }
    type Job = Box<dyn FnOnce() -> SensitivityReport + Send>;
    let jobs: Vec<Job> = vec![
        Box::new(|| {
            let mut spark = SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
            report("Spark (aggregation)", &mut spark)
        }),
        Box::new(|| {
            let mut dbms = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
            report("DBMS (OLTP)", &mut dbms)
        }),
    ];
    SessionExecutor::from_env().run(jobs)
}

// ---------------------------------------------------------------------------
// C4: parameters interact (challenge (i))
// ---------------------------------------------------------------------------

/// C4 result for one knob pair.
#[derive(Debug, Serialize)]
pub struct InteractionRow {
    /// System label.
    pub system: String,
    /// The knob pair.
    pub knobs: (String, String),
    /// Main effect magnitudes of each knob.
    pub main_effects: (f64, f64),
    /// Two-factor interaction magnitude.
    pub interaction: f64,
    /// Interaction relative to the smaller main effect.
    pub interaction_ratio: f64,
}

/// Measures two documented interactions with full 2² factorials embedded
/// in the real simulators (one executor job per factorial).
pub fn interactions() -> Vec<InteractionRow> {
    type Job = Box<dyn FnOnce() -> InteractionRow + Send>;
    let mut jobs: Vec<Job> = Vec::new();

    // DBMS: shared_buffers × work_mem compete for the same RAM.
    jobs.push(Box::new(|| {
        let sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let space = sim.space();
        let design = TwoLevelDesign::full_factorial(2);
        let (ka, kb) = (dbms::SHARED_BUFFERS_MB, dbms::WORK_MEM_MB);
        let responses: Vec<f64> = (0..design.runs())
            .map(|r| {
                let mut c = space.default_config();
                // High levels chosen so that high+high overcommits RAM.
                c.set(
                    ka,
                    autotune_core::ParamValue::Int(if design.level(r, 0) > 0.0 {
                        12_288
                    } else {
                        1_024
                    }),
                );
                c.set(
                    kb,
                    autotune_core::ParamValue::Int(if design.level(r, 1) > 0.0 { 256 } else { 4 }),
                );
                sim.simulate(&c).runtime_secs
            })
            .collect();
        let dec = effect_decomposition(&design, &responses);
        let inter = dec.strongest_interaction().map(|(_, e)| e).unwrap_or(0.0);
        let min_main = dec.main_effects[0].abs().min(dec.main_effects[1].abs());
        InteractionRow {
            system: "DBMS (OLTP)".into(),
            knobs: (ka.into(), kb.into()),
            main_effects: (dec.main_effects[0].abs(), dec.main_effects[1].abs()),
            interaction: inter,
            interaction_ratio: inter / min_main.max(1e-9),
        }
    }));

    // Hadoop: io_sort_mb × map_heap_mb (buffer must fit in heap).
    jobs.push(Box::new(|| {
        let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let space = sim.space();
        let design = TwoLevelDesign::full_factorial(2);
        let responses: Vec<f64> = (0..design.runs())
            .map(|r| {
                let mut c = space.default_config();
                c.set(
                    hadoop::IO_SORT_MB,
                    autotune_core::ParamValue::Int(if design.level(r, 0) > 0.0 {
                        1024
                    } else {
                        64
                    }),
                );
                c.set(
                    hadoop::MAP_HEAP_MB,
                    autotune_core::ParamValue::Int(if design.level(r, 1) > 0.0 {
                        4096
                    } else {
                        1024
                    }),
                );
                sim.simulate(&c).runtime_secs
            })
            .collect();
        let dec = effect_decomposition(&design, &responses);
        let inter = dec.strongest_interaction().map(|(_, e)| e).unwrap_or(0.0);
        let min_main = dec.main_effects[0].abs().min(dec.main_effects[1].abs());
        InteractionRow {
            system: "Hadoop (TeraSort)".into(),
            knobs: (hadoop::IO_SORT_MB.into(), hadoop::MAP_HEAP_MB.into()),
            main_effects: (dec.main_effects[0].abs(), dec.main_effects[1].abs()),
            interaction: inter,
            interaction_ratio: inter / min_main.max(1e-9),
        }
    }));

    SessionExecutor::from_env().run(jobs)
}

// ---------------------------------------------------------------------------
// C5: adaptive tuning wins on ad-hoc workloads (cumulative cost)
// ---------------------------------------------------------------------------

/// C5 result for one tuner.
#[derive(Debug, Serialize)]
pub struct AdhocRow {
    /// Tuner label.
    pub tuner: String,
    /// Sum of all runtimes endured during the session (s) — the cost a
    /// *live* ad-hoc workload pays while being tuned.
    pub cumulative_secs: f64,
    /// Best single runtime found (s).
    pub best_secs: f64,
    /// Worst single runtime endured (s).
    pub worst_secs: f64,
}

/// Runs C5: adaptive (COLT) vs experiment-driven (iTuned) on a live OLTP
/// stream of `rounds` epochs (one executor job per tuner).
pub fn adhoc_comparison(rounds: usize, seed: u64) -> Vec<AdhocRow> {
    let contenders: [TunerEntry; 3] = [
        ("colt (adaptive)", || Box::new(ColtTuner::new())),
        (
            "ituned (experiment-driven)",
            || Box::new(ITunedTuner::new()),
        ),
        ("random (control)", || {
            Box::new(autotune_tuners::baselines::RandomSearchTuner)
        }),
    ];
    SessionExecutor::from_env().run(
        contenders
            .iter()
            .map(|&(name, make)| {
                move || {
                    let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
                    let mut tuner = make();
                    let out = tune(&mut sim, tuner.as_mut(), rounds, seed);
                    let rts = out.history.runtimes();
                    AdhocRow {
                        tuner: name.to_string(),
                        cumulative_secs: rts.iter().sum(),
                        best_secs: rts.iter().cloned().fold(f64::MAX, f64::min),
                        worst_secs: rts.iter().cloned().fold(f64::MIN, f64::max),
                    }
                }
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// C6: ML tuners need training data; accuracy degrades on unseen workloads
// ---------------------------------------------------------------------------

/// C6 result for one training-set size.
#[derive(Debug, Serialize)]
pub struct TrainingSizeRow {
    /// Training observations available to the model.
    pub repo_observations: usize,
    /// Rank correlation (Spearman) of GP runtime predictions with truth
    /// when trained on the *target workload's own* observations.
    pub accuracy_seen: f64,
    /// Rank correlation when trained only on a *different* workload's
    /// observations (the unseen-application scenario).
    pub accuracy_unseen: f64,
}

/// Runs C6: Table 1's machine-learning weaknesses measured directly —
/// prediction accuracy as a function of training-set size, for a model
/// trained on the target workload ("seen") vs one trained on a different
/// workload's history ("unseen application").
pub fn ml_training_size(sizes: &[usize], seed: u64) -> Vec<TrainingSizeRow> {
    use autotune_math::gp::{GaussianProcess, KernelKind};
    use autotune_math::stats::spearman;

    let target = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
    let other = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
    let space = {
        let s: &autotune_core::ConfigSpace = target.space();
        s.clone()
    };

    // Held-out test set on the target workload.
    let mut rng = StdRng::seed_from_u64(seed);
    let test: Vec<(Vec<f64>, f64)> = (0..40)
        .map(|_| {
            let c = space.random_config(&mut rng);
            (space.encode(&c), target.simulate(&c).runtime_secs.ln())
        })
        .collect();
    let test_x: Vec<Vec<f64>> = test.iter().map(|(x, _)| x.clone()).collect();
    let test_y: Vec<f64> = test.iter().map(|(_, y)| *y).collect();

    // One replicate: sample `n` training runs from `sim`, fit an ARD GP
    // (per-knob length scales are essential — most DBMS knobs barely move
    // the runtime, and an isotropic kernel drowns in them), score against
    // the held-out target-workload test set.
    let score = |sim: &DbmsSimulator, n: usize, rng: &mut StdRng| -> f64 {
        if n < 4 {
            return 0.0;
        }
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let c = space.random_config(rng);
            xs.push(space.encode(&c));
            ys.push(sim.simulate(&c).runtime_secs.ln());
        }
        let Ok(gp) = GaussianProcess::fit_auto_ard(KernelKind::Matern52, xs, &ys) else {
            return 0.0;
        };
        let pred: Vec<f64> = test_x.iter().map(|x| gp.predict_mean(x)).collect();
        spearman(&pred, &test_y)
    };

    // Average each accuracy over a few training-set draws so the rows
    // reflect the size effect rather than one lucky/unlucky sample.
    const REPLICATES: u64 = 3;
    let mean_score = |sim: &DbmsSimulator, n: usize| -> f64 {
        (0..REPLICATES)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed + 1 + r);
                score(sim, n, &mut rng)
            })
            .sum::<f64>()
            / REPLICATES as f64
    };

    // Each size's six ARD fits are independent of every other size's —
    // fan the rows out.
    let (target, other, mean_score) = (&target, &other, &mean_score);
    SessionExecutor::from_env().run(
        sizes
            .iter()
            .map(|&n| {
                move || TrainingSizeRow {
                    repo_observations: n,
                    accuracy_seen: mean_score(target, n),
                    accuracy_unseen: mean_score(other, n),
                }
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// C7: cost models break on heterogeneous clusters; experiment-driven
// tuners do not care
// ---------------------------------------------------------------------------

/// C7 result for one cluster shape.
#[derive(Debug, Serialize)]
pub struct HeterogeneityRow {
    /// Cluster label.
    pub cluster: String,
    /// Heterogeneity index (CV of node compute rates).
    pub heterogeneity: f64,
    /// Median relative prediction error of the Starfish cost model.
    pub cost_model_error: f64,
    /// iTuned speedup at 35 experiments (search doesn't need a model).
    pub ituned_speedup: f64,
}

/// Runs C7 on a homogeneous vs heterogeneous 6-node cluster (one executor
/// job per cluster shape).
pub fn heterogeneity(seed: u64) -> Vec<HeterogeneityRow> {
    use autotune_tuners::cost::{JobProfile, MrCostModel};
    let clusters = vec![
        (
            "homogeneous x6",
            ClusterSpec::homogeneous(6, NodeSpec::default()),
        ),
        ("heterogeneous x6", ClusterSpec::heterogeneous(6)),
    ];
    let jobs = clusters
        .into_iter()
        .map(|(label, cluster)| {
            move || {
                let sim = HadoopSimulator::new(cluster.clone(), HadoopJob::terasort(16_384.0))
                    .with_noise(NoiseModel::none());
                // Cost-model error over feasible random configs.
                let default = sim.space().default_config();
                let run = sim.simulate(&default);
                let obs = autotune_core::Observation {
                    config: default.clone(),
                    runtime_secs: run.runtime_secs,
                    cost: run.runtime_secs,
                    metrics: run.metrics,
                    failed: false,
                };
                let model = MrCostModel {
                    job: JobProfile::estimate(&obs, &sim.profile()),
                    profile: sim.profile(),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut errs = Vec::new();
                while errs.len() < 25 {
                    let mut c = sim.space().random_config(&mut rng);
                    use rand::RngExt;
                    c.set(
                        hadoop::MAP_SLOTS,
                        autotune_core::ParamValue::Int(rng.random_range(1..=4)),
                    );
                    c.set(
                        hadoop::REDUCE_SLOTS,
                        autotune_core::ParamValue::Int(rng.random_range(1..=2)),
                    );
                    c.set(hadoop::MAP_HEAP_MB, autotune_core::ParamValue::Int(1024));
                    c.set(hadoop::REDUCE_HEAP_MB, autotune_core::ParamValue::Int(1024));
                    c.set(hadoop::IO_SORT_MB, autotune_core::ParamValue::Int(256));
                    let p = model.predict(&c);
                    let r = sim.simulate(&c);
                    if p < 1e6 && !r.failed {
                        errs.push(((p - r.runtime_secs) / r.runtime_secs).abs());
                    }
                }
                let cost_model_error = autotune_math::stats::median(&errs);

                // Experiment-driven speedup is model-free.
                let mut sim2 = HadoopSimulator::new(cluster.clone(), HadoopJob::terasort(16_384.0))
                    .with_noise(NoiseModel::none());
                let base = sim2.simulate(&default).runtime_secs;
                let mut tuner = ITunedTuner::new();
                let best = tune(&mut sim2, &mut tuner, 35, seed)
                    .best
                    .expect("ran")
                    .runtime_secs;

                HeterogeneityRow {
                    cluster: label.to_string(),
                    heterogeneity: cluster.heterogeneity(),
                    cost_model_error,
                    ituned_speedup: base / best,
                }
            }
        })
        .collect();
    SessionExecutor::from_env().run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_shapes_hold() {
        let rows = speedup_claim(3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.speedup > 1.0, "{}: no gain", r.system);
            assert!(
                r.misconfig_penalty > 1.0,
                "{}: misconfig should hurt",
                r.system
            );
        }
        // Order-of-magnitude claim: at least one system shows ≥ 5x.
        assert!(rows.iter().any(|r| r.speedup >= 5.0));
    }

    #[test]
    fn c2_gap_shrinks_with_tuning() {
        let rows = hadoop_gap(3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.gap_untuned > 1.0, "{}: no gap", r.workload);
            assert!(
                r.gap_tuned < r.gap_untuned,
                "{}: tuning should shrink the gap",
                r.workload
            );
        }
        assert!(
            rows.iter().any(|r| (3.1..=6.5).contains(&r.gap_untuned)),
            "at least one workload inside the paper's 3.1-6.5x band: {:?}",
            rows.iter().map(|r| r.gap_untuned).collect::<Vec<_>>()
        );
    }

    #[test]
    fn c3_minority_of_knobs_significant() {
        let reports = knob_sensitivity();
        for r in &reports {
            assert!(
                !r.significant.is_empty(),
                "{}: something must matter",
                r.system
            );
            assert!(
                r.significant.len() < r.total_knobs,
                "{}: not every knob should matter",
                r.system
            );
        }
    }

    #[test]
    fn c4_interactions_are_material() {
        let rows = interactions();
        assert_eq!(rows.len(), 2);
        // DBMS memory knobs: the interaction must be a substantial
        // fraction of the smaller main effect (they share the same RAM).
        assert!(
            rows[0].interaction_ratio > 0.25,
            "DBMS interaction too weak: {:?}",
            rows[0]
        );
    }

    #[test]
    fn c5_adaptive_has_lowest_risk() {
        let rows = adhoc_comparison(25, 3);
        let colt = &rows[0];
        let random = &rows[2];
        assert!(colt.worst_secs < random.worst_secs);
    }

    #[test]
    fn c6_training_size_and_unseen_workload_effects() {
        let rows = ml_training_size(&[5, 40], 3);
        assert_eq!(rows.len(), 2);
        // More training data helps on the seen workload...
        assert!(
            rows[1].accuracy_seen > rows[0].accuracy_seen,
            "seen accuracy should grow: {rows:?}"
        );
        // ...and a well-trained model still misleads on an unseen
        // application (Table 1's ML weakness).
        assert!(
            rows[1].accuracy_seen > rows[1].accuracy_unseen,
            "unseen should trail seen: {rows:?}"
        );
    }

    #[test]
    fn c7_hetero_hurts_cost_model_not_search() {
        let rows = heterogeneity(3);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].heterogeneity > rows[0].heterogeneity);
        assert!(
            rows[1].cost_model_error > rows[0].cost_model_error,
            "hetero should hurt the model: {:?}",
            rows
        );
        assert!(rows[1].ituned_speedup > 1.2, "search still works");
    }
}
