//! Integration across the three target platforms: the same tuner code
//! drives the DBMS, Hadoop, and Spark simulators through the identical
//! `Objective` interface (the tutorial's framing: one problem, three
//! systems).

use autotune::core::{tune, Objective, SystemKind};
use autotune::prelude::*;
use autotune::sim::hadoop::HadoopJob;
use autotune::sim::spark::SparkApp;

fn boxed_objectives() -> Vec<Box<dyn Objective>> {
    vec![
        Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::none())),
        Box::new(HadoopSimulator::terasort_default().with_noise(NoiseModel::none())),
        Box::new(SparkSimulator::aggregation_default().with_noise(NoiseModel::none())),
    ]
}

#[test]
fn profiles_report_correct_system_kinds() {
    let kinds: Vec<SystemKind> = boxed_objectives()
        .iter()
        .map(|o| o.profile().system)
        .collect();
    assert_eq!(
        kinds,
        vec![SystemKind::Dbms, SystemKind::Hadoop, SystemKind::Spark]
    );
}

#[test]
fn ituned_improves_all_three_systems() {
    for mut obj in boxed_objectives() {
        let baseline = {
            let cfg = obj.space().default_config();
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            obj.evaluate(&cfg, &mut rng).runtime_secs
        };
        let mut tuner = ITunedTuner::new();
        let out = tune(obj.as_mut(), &mut tuner, 30, 17);
        let best = out.best.unwrap().runtime_secs;
        assert!(
            best < baseline * 0.7,
            "{}: {baseline} -> {best}",
            obj.name()
        );
    }
}

#[test]
fn rulebooks_match_their_systems() {
    for obj in boxed_objectives() {
        let profile = obj.profile();
        let book = rulebook_for(profile.system);
        let (cfg, applied) = book.apply(obj.space(), &profile);
        assert!(obj.space().validate_config(&cfg).is_ok());
        assert!(
            applied.len() >= 5,
            "{:?}: only {} rules fired",
            profile.system,
            applied.len()
        );
    }
}

#[test]
fn wrong_rulebook_does_nothing() {
    // Spark rules aimed at a DBMS space: no knob names match, nothing
    // fires, configuration stays default — rules don't corrupt foreign
    // systems.
    let db = DbmsSimulator::oltp_default();
    let book = spark_rulebook();
    let (cfg, applied) = book.apply(db.space(), &db.profile());
    assert!(applied.is_empty());
    assert_eq!(cfg, db.space().default_config());
}

#[test]
fn spex_constraints_prevent_failures_on_all_systems() {
    for mut obj in boxed_objectives() {
        let mut spex = SpexTuner::new(obj.space());
        let out = tune(obj.as_mut(), &mut spex, 20, 3);
        let failures = out.history.all().iter().filter(|o| o.failed).count();
        assert_eq!(
            failures,
            0,
            "{}: SPEX-repaired configs must not fail",
            obj.name()
        );
    }
}

#[test]
fn iterative_workloads_reward_caching_knobs() {
    // Spark logistic regression: a tuned storage fraction should appear in
    // iTuned's winning configuration region (cached_fraction > 0 at best).
    let cluster = ClusterSpec::homogeneous(8, NodeSpec::default());
    let mut sim = SparkSimulator::new(cluster, SparkApp::logistic_regression(8_192.0, 10))
        .with_noise(NoiseModel::none());
    let mut tuner = ITunedTuner::new();
    let out = tune(&mut sim, &mut tuner, 35, 23);
    let best = out.best.unwrap();
    assert!(
        best.metrics.get("cached_fraction").copied().unwrap_or(0.0) > 0.2,
        "best iterative config should cache: {:?}",
        best.metrics.get("cached_fraction")
    );
}

#[test]
fn hadoop_tuning_closes_the_parallel_db_gap() {
    // §2.3 claim C2 end-to-end: tuning Hadoop shrinks the gap vs the
    // parallel DB substantially.
    let cluster = ClusterSpec::homogeneous(8, NodeSpec::default());
    let data_mb = 32_768.0;
    let job = HadoopJob::wordcount(data_mb);
    let db = ParallelDbBaseline::new(cluster.clone());
    let task = ParallelDbBaseline::task_for_job(&job);
    let db_rt = db.runtime_secs(task, data_mb);

    let sim = HadoopSimulator::new(cluster.clone(), job.clone()).with_noise(NoiseModel::none());
    let untuned = sim
        .simulate(&autotune::sim::hadoop::benchmark_config(&cluster))
        .runtime_secs;

    // Anchor the design on the operator's rule-of-thumb config; most
    // random Hadoop configs fail outright, so an unseeded small budget
    // can spend itself entirely in failure regions.
    let seed_cfg = autotune::sim::hadoop::benchmark_config(&cluster);
    let mut sim = HadoopSimulator::new(cluster, job).with_noise(NoiseModel::none());
    let mut tuner = ITunedTuner::new().with_seed_configs([seed_cfg]);
    let out = tune(&mut sim, &mut tuner, 40, 29);
    let tuned = out.best.unwrap().runtime_secs;

    let gap_before = untuned / db_rt;
    let gap_after = tuned / db_rt;
    assert!(
        gap_after < gap_before * 0.6,
        "tuning should close most of the gap: {gap_before:.1}x -> {gap_after:.1}x"
    );
}
