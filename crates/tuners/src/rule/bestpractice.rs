//! Published best-practice rule books for the three target systems —
//! the concrete content a rule-based tuner ships with.
//!
//! Sources encoded here are the classics every DBA/ops checklist repeats:
//! PostgreSQL wiki tuning guide (buffer pool 25% of RAM, work_mem scaled
//! to concurrency), Hadoop "definitive guide"-era shuffle guidance
//! (bigger sort buffer, compression on, reducers ≈ 0.95–1.75× slots), and
//! Spark's official tuning page (kryo, 2–3 tasks per core, executors
//! sized to the node).

use super::engine::{Condition, Rule, RuleBook, RuleValue};
use autotune_core::{ParamValue, SystemKind, WorkloadClass};
use autotune_sim::{dbms::knobs as dbms, hadoop::knobs as hadoop, spark::knobs as spark};

/// Rule book for the simulated DBMS.
pub fn dbms_rulebook() -> RuleBook {
    use Condition::*;
    RuleBook::new()
        .with(Rule::new(
            "shared-buffers-25pct",
            vec![SystemIs(SystemKind::Dbms)],
            dbms::SHARED_BUFFERS_MB,
            RuleValue::MemFractionMb(0.25),
            "PostgreSQL wiki: shared_buffers = 25% of RAM",
        ))
        .with(Rule::new(
            "work-mem-oltp",
            vec![SystemIs(SystemKind::Dbms), WorkloadIs(WorkloadClass::Oltp)],
            dbms::WORK_MEM_MB,
            RuleValue::MemFractionMb(1.0 / 512.0),
            "many concurrent sessions: keep per-sort memory small",
        ))
        .with(Rule::new(
            "work-mem-olap",
            vec![SystemIs(SystemKind::Dbms), WorkloadIs(WorkloadClass::Olap)],
            dbms::WORK_MEM_MB,
            RuleValue::MemFractionMb(1.0 / 16.0),
            "few analytical sessions: large sorts should stay in memory",
        ))
        .with(Rule::new(
            "maintenance-mem",
            vec![SystemIs(SystemKind::Dbms)],
            dbms::MAINTENANCE_WORK_MEM_MB,
            RuleValue::MemFractionMb(1.0 / 16.0),
            "vacuum and index builds want generous memory",
        ))
        .with(Rule::new(
            "wal-buffers-64mb",
            vec![SystemIs(SystemKind::Dbms)],
            dbms::WAL_BUFFERS_MB,
            RuleValue::Literal(ParamValue::Int(64)),
            "cap WAL buffer at 64 MB (guidance: 3% of shared_buffers, capped)",
        ))
        .with(Rule::new(
            "checkpoint-15min",
            vec![SystemIs(SystemKind::Dbms)],
            dbms::CHECKPOINT_TIMEOUT_S,
            RuleValue::Literal(ParamValue::Int(900)),
            "spread checkpoints: 15 minutes instead of 5",
        ))
        .with(Rule::new(
            "parallel-workers-olap",
            vec![SystemIs(SystemKind::Dbms), WorkloadIs(WorkloadClass::Olap)],
            dbms::MAX_PARALLEL_WORKERS,
            RuleValue::CoresTimes(1.0),
            "analytical scans should use every core",
        ))
        .with(Rule::new(
            "ssd-random-page-cost",
            vec![SystemIs(SystemKind::Dbms), DiskFasterThan(400.0)],
            dbms::RANDOM_PAGE_COST,
            RuleValue::Literal(ParamValue::Float(1.1)),
            "SSDs: random reads cost nearly the same as sequential",
        ))
        .with(Rule::new(
            "ssd-io-concurrency",
            vec![SystemIs(SystemKind::Dbms), DiskFasterThan(400.0)],
            dbms::EFFECTIVE_IO_CONCURRENCY,
            RuleValue::Literal(ParamValue::Int(200)),
            "SSDs sustain deep async I/O queues",
        ))
        .with(Rule::new(
            "stats-target-olap",
            vec![SystemIs(SystemKind::Dbms), WorkloadIs(WorkloadClass::Olap)],
            dbms::STATS_TARGET,
            RuleValue::Literal(ParamValue::Int(250)),
            "complex joins need detailed statistics",
        ))
}

/// Rule book for the simulated Hadoop deployment.
pub fn hadoop_rulebook() -> RuleBook {
    use Condition::*;
    RuleBook::new()
        .with(Rule::new(
            "reducers-near-slots",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::REDUCE_TASKS,
            RuleValue::TotalCoresTimes(0.5),
            "guidance: reducers ≈ 0.95-1.75 × reduce slots",
        ))
        .with(Rule::new(
            "map-slots-half-cores",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::MAP_SLOTS,
            RuleValue::CoresTimes(0.5),
            "split cores between map and reduce slots",
        ))
        .with(Rule::new(
            "reduce-slots-quarter-cores",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::REDUCE_SLOTS,
            RuleValue::CoresTimes(0.25),
            "split cores between map and reduce slots",
        ))
        .with(Rule::new(
            "big-sort-buffer",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::IO_SORT_MB,
            RuleValue::Literal(ParamValue::Int(512)),
            "avoid multi-spill maps on large inputs",
        ))
        .with(Rule::new(
            "sort-factor-64",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::IO_SORT_FACTOR,
            RuleValue::Literal(ParamValue::Int(64)),
            "merge wider to avoid extra passes",
        ))
        .with(Rule::new(
            "map-heap-fits-buffer",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::MAP_HEAP_MB,
            RuleValue::Literal(ParamValue::Int(2048)),
            "heap must hold the sort buffer comfortably",
        ))
        .with(Rule::new(
            "compress-intermediate",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::COMPRESS_MAP_OUTPUT,
            RuleValue::Literal(ParamValue::Bool(true)),
            "always compress map output on shuffle-heavy clusters",
        ))
        .with(Rule::new(
            "snappy-codec",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::COMPRESS_CODEC,
            RuleValue::Literal(ParamValue::Str("snappy".into())),
            "snappy: good ratio at negligible CPU",
        ))
        .with(Rule::new(
            "combiner-on",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::USE_COMBINER,
            RuleValue::Literal(ParamValue::Bool(true)),
            "rule of thumb — blind spot: useless for sort-type jobs",
        ))
        .with(Rule::new(
            "slowstart-overlap",
            vec![SystemIs(SystemKind::Hadoop)],
            hadoop::SLOWSTART,
            RuleValue::Literal(ParamValue::Float(0.5)),
            "overlap shuffle with the second half of the map phase",
        ))
        .with(Rule::new(
            "more-parallel-copies",
            vec![SystemIs(SystemKind::Hadoop), MinNodes(4)],
            hadoop::SHUFFLE_PARALLEL_COPIES,
            RuleValue::Literal(ParamValue::Int(20)),
            "more fetch threads on larger clusters",
        ))
}

/// Rule book for the simulated Spark deployment.
pub fn spark_rulebook() -> RuleBook {
    use Condition::*;
    RuleBook::new()
        .with(Rule::new(
            "one-executor-per-node",
            vec![SystemIs(SystemKind::Spark)],
            spark::EXECUTOR_INSTANCES,
            RuleValue::NodesTimes(1.0),
            "one fat executor per node as a starting point",
        ))
        .with(Rule::new(
            "five-cores-per-executor",
            vec![SystemIs(SystemKind::Spark)],
            spark::EXECUTOR_CORES,
            RuleValue::CoresTimes(0.625),
            "~5 cores per executor balances HDFS throughput and GC",
        ))
        .with(Rule::new(
            "executor-memory-most-of-node",
            vec![SystemIs(SystemKind::Spark)],
            spark::EXECUTOR_MEMORY_MB,
            RuleValue::MemFractionMb(0.6),
            "leave headroom for OS and overhead",
        ))
        .with(Rule::new(
            "partitions-2x-cores",
            vec![SystemIs(SystemKind::Spark)],
            spark::SHUFFLE_PARTITIONS,
            RuleValue::TotalCoresTimes(2.0),
            "official guide: 2-3 tasks per core",
        ))
        .with(Rule::new(
            "parallelism-2x-cores",
            vec![SystemIs(SystemKind::Spark)],
            spark::DEFAULT_PARALLELISM,
            RuleValue::TotalCoresTimes(2.0),
            "official guide: 2-3 tasks per core",
        ))
        .with(Rule::new(
            "kryo",
            vec![SystemIs(SystemKind::Spark)],
            spark::SERIALIZER,
            RuleValue::Literal(ParamValue::Str("kryo".into())),
            "kryo is strictly better once registered",
        ))
        .with(Rule::new(
            "cache-heavy-iterative",
            vec![
                SystemIs(SystemKind::Spark),
                WorkloadIs(WorkloadClass::Iterative),
            ],
            spark::STORAGE_FRACTION,
            RuleValue::Literal(ParamValue::Float(0.7)),
            "iterative jobs live or die by caching",
        ))
        .with(Rule::new(
            "shuffle-heavy-batch",
            vec![
                SystemIs(SystemKind::Spark),
                WorkloadIs(WorkloadClass::Batch),
            ],
            spark::STORAGE_FRACTION,
            RuleValue::Literal(ParamValue::Float(0.2)),
            "batch queries need execution memory, not cache",
        ))
        .with(Rule::new(
            "broadcast-64mb",
            vec![SystemIs(SystemKind::Spark)],
            spark::BROADCAST_THRESHOLD_MB,
            RuleValue::Literal(ParamValue::Int(64)),
            "broadcast dimension tables aggressively",
        ))
}

/// Picks the rule book matching a profile's system kind.
pub fn rulebook_for(system: SystemKind) -> RuleBook {
    match system {
        SystemKind::Dbms => dbms_rulebook(),
        SystemKind::Hadoop => hadoop_rulebook(),
        SystemKind::Spark => spark_rulebook(),
        SystemKind::Other => RuleBook::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::engine::RuleBasedTuner;
    use autotune_core::{tune, Objective, Tuner};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::{DbmsSimulator, HadoopSimulator, SparkSimulator};

    #[test]
    fn dbms_rules_beat_defaults() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = RuleBasedTuner::new("dbms-rules", dbms_rulebook());
        let out = tune(&mut sim, &mut tuner, 1, 1);
        let tuned_rt = out.best.unwrap().runtime_secs;
        assert!(
            tuned_rt < default_rt * 0.8,
            "default={default_rt} rules={tuned_rt}"
        );
    }

    #[test]
    fn hadoop_rules_beat_defaults() {
        let mut sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = RuleBasedTuner::new("hadoop-rules", hadoop_rulebook());
        let out = tune(&mut sim, &mut tuner, 1, 1);
        let tuned_rt = out.best.unwrap().runtime_secs;
        assert!(
            tuned_rt < default_rt * 0.5,
            "default={default_rt} rules={tuned_rt}"
        );
    }

    #[test]
    fn spark_rules_beat_defaults() {
        let mut sim = SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = RuleBasedTuner::new("spark-rules", spark_rulebook());
        let out = tune(&mut sim, &mut tuner, 1, 1);
        let tuned_rt = out.best.unwrap().runtime_secs;
        assert!(
            tuned_rt < default_rt * 0.8,
            "default={default_rt} rules={tuned_rt}"
        );
    }

    #[test]
    fn rule_configs_are_valid_for_their_spaces() {
        use autotune_core::{SystemProfile, TuningContext};
        use rand::SeedableRng;
        let cases: Vec<(Box<dyn Objective>, RuleBook)> = vec![
            (Box::new(DbmsSimulator::oltp_default()), dbms_rulebook()),
            (
                Box::new(HadoopSimulator::terasort_default()),
                hadoop_rulebook(),
            ),
            (
                Box::new(SparkSimulator::aggregation_default()),
                spark_rulebook(),
            ),
        ];
        for (obj, book) in cases {
            let ctx = TuningContext {
                space: obj.space().clone(),
                profile: obj.profile(),
            };
            let mut t = RuleBasedTuner::new("x", book);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            let cfg = t.propose(&ctx, &autotune_core::History::new(), &mut rng);
            assert!(ctx.space.validate_config(&cfg).is_ok());
            let _ = SystemProfile::default();
        }
    }

    #[test]
    fn rulebook_for_dispatch() {
        assert!(!rulebook_for(SystemKind::Dbms).is_empty());
        assert!(!rulebook_for(SystemKind::Hadoop).is_empty());
        assert!(!rulebook_for(SystemKind::Spark).is_empty());
        assert!(rulebook_for(SystemKind::Other).is_empty());
    }
}
