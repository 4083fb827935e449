//! An analytical Spark cost model in the Starfish mould: estimate an
//! application profile from one profiled run, then search the model for a
//! recommended configuration (§2.4 approaches of this kind include
//! Ernest-style analytic predictors and the what-if engines ported from
//! the MapReduce world).

use autotune_core::{
    Configuration, History, Observation, Recommendation, SystemProfile, Tuner, TunerFamily,
    TuningContext,
};
use autotune_sim::spark::knobs;
use rand::rngs::StdRng;

/// Application profile estimated from one profiled Spark run.
#[derive(Debug, Clone)]
pub struct SparkAppProfile {
    /// Input size (MB).
    pub input_mb: f64,
    /// CPU core-ms per MB processed.
    pub cpu_ms_per_mb: f64,
    /// Shuffle bytes per input byte.
    pub shuffle_ratio: f64,
    /// Rounds (iterations × stages) approximated from task counts.
    pub work_multiplier: f64,
}

impl SparkAppProfile {
    /// Estimates the profile from a profiling observation.
    pub fn estimate(obs: &Observation, profile: &SystemProfile) -> Self {
        let input_mb = profile.input_mb.max(1.0);
        let metric = |k: &str, d: f64| obs.metrics.get(k).copied().unwrap_or(d);
        let shuffle_mb = metric("shuffle_mb", input_mb * 0.3);
        let slots = metric("slots", 2.0).max(1.0);
        let tasks = metric("tasks", 200.0);
        // Total work ≈ runtime × slots; subtract scheduling overhead.
        let overhead = metric("task_overhead_secs", 0.0);
        let work_core_secs = (obs.runtime_secs - overhead).max(1.0) * slots * 0.7;
        let work_multiplier = (tasks / 200.0).clamp(0.5, 50.0);
        SparkAppProfile {
            input_mb,
            cpu_ms_per_mb: (work_core_secs * 1000.0 / (input_mb * work_multiplier))
                .clamp(0.5, 200.0),
            shuffle_ratio: (shuffle_mb / input_mb).clamp(0.001, 4.0),
            work_multiplier,
        }
    }
}

/// The analytic Spark cost model.
#[derive(Debug, Clone)]
pub struct SparkCostModel {
    /// Estimated application profile.
    pub app: SparkAppProfile,
    /// Deployment description.
    pub profile: SystemProfile,
}

impl SparkCostModel {
    /// Predicted runtime (seconds) under a configuration.
    pub fn predict(&self, config: &Configuration) -> f64 {
        let p = &self.profile;
        let a = &self.app;
        let instances = config.f64(knobs::EXECUTOR_INSTANCES);
        let cores = config.f64(knobs::EXECUTOR_CORES);
        let exec_mem = config.f64(knobs::EXECUTOR_MEMORY_MB);
        let parts = config.f64(knobs::SHUFFLE_PARTITIONS).max(1.0);
        let mem_fraction = config.f64(knobs::MEMORY_FRACTION);
        let storage_fraction = config.f64(knobs::STORAGE_FRACTION);
        let serializer = config.str(knobs::SERIALIZER);
        let overhead_factor = config.f64(knobs::MEMORY_OVERHEAD_FACTOR);

        let total_mem = p.memory_per_node_mb * p.nodes as f64;
        if instances * exec_mem * (1.0 + overhead_factor) > total_mem {
            return 1e7; // the cluster manager refuses the allocation
        }
        let total_cores = p.total_cores() as f64;
        let slots = (instances * cores).max(1.0);
        let contention = (instances * cores / total_cores).max(1.0);

        let (ser_size, ser_cpu) = if serializer == "kryo" {
            (0.6, 2.0)
        } else {
            (1.0, 6.0)
        };
        let gc = 1.0 + if serializer == "java" { 0.12 } else { 0.04 };

        let work_mb = a.input_mb * a.work_multiplier;
        let cpu_secs =
            work_mb * (a.cpu_ms_per_mb + ser_cpu * 0.3) / 1000.0 * gc * contention / slots;
        let read_secs = a.input_mb / (p.disk_mbps * p.nodes as f64).max(1.0);

        // Spill when a task's working set exceeds its execution share.
        let exec_share = exec_mem * mem_fraction * (1.0 - storage_fraction * 0.5) / cores.max(1.0);
        let per_task_mb = a.input_mb / parts * ser_size * 1.5;
        let spill_mb = (per_task_mb - exec_share).max(0.0) * parts;
        let spill_secs = 2.0 * spill_mb / (p.disk_mbps * p.nodes as f64).max(1.0);

        let shuffle_mb = a.input_mb * a.shuffle_ratio * ser_size;
        let shuffle_secs = shuffle_mb / (p.nodes as f64 * p.network_mbps * 0.5).max(1.0);
        // Per-task launch overhead, amortized across the slots.
        let sched_secs = parts * a.work_multiplier * 0.05 / slots;

        4.0 + cpu_secs + read_secs + spill_secs + shuffle_secs + sched_secs
    }
}

/// Profiling-run → model → recommendation tuner for Spark.
#[derive(Debug, Default)]
pub struct SparkCostTuner {
    model: Option<SparkCostModel>,
    candidates: Vec<Configuration>,
    cursor: usize,
}

impl SparkCostTuner {
    /// Creates the tuner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted model, after the profiling run.
    pub fn model(&self) -> Option<&SparkCostModel> {
        self.model.as_ref()
    }
}

impl Tuner for SparkCostTuner {
    fn name(&self) -> &str {
        "spark-cost-model"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::CostModeling
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        if history.is_empty() {
            return ctx.space.default_config();
        }
        if self.model.is_none() {
            let app = SparkAppProfile::estimate(&history.all()[0], &ctx.profile);
            let model = SparkCostModel {
                app,
                profile: ctx.profile.clone(),
            };
            let mut scored: Vec<(f64, Configuration)> = (0..2000)
                .map(|_| {
                    let c = ctx.space.random_config(rng);
                    (model.predict(&c), c)
                })
                .collect();
            scored.sort_by(|x, y| x.0.total_cmp(&y.0));
            self.candidates = scored.into_iter().take(8).map(|(_, c)| c).collect();
            self.model = Some(model);
        }
        let c = self
            .candidates
            .get(self.cursor.min(self.candidates.len().saturating_sub(1)))
            .cloned()
            .unwrap_or_else(|| ctx.space.default_config());
        self.cursor += 1;
        c
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: "best of analytic-model-recommended candidates".into(),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no runs".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::SparkSimulator;

    #[test]
    fn spark_cost_tuner_beats_defaults_quickly() {
        let mut sim = SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = SparkCostTuner::new();
        let out = tune(&mut sim, &mut tuner, 6, 3);
        let best = out.best.unwrap().runtime_secs;
        assert!(
            best < default_rt * 0.5,
            "default={default_rt} cost-model={best}"
        );
        assert!(tuner.model().is_some());
    }

    #[test]
    fn model_rejects_over_allocation() {
        use autotune_core::ParamValue;
        use rand::SeedableRng;
        let mut sim = SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
        let default = sim.space().default_config();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let obs = sim.evaluate(&default, &mut rng);
        let model = SparkCostModel {
            app: SparkAppProfile::estimate(&obs, &sim.profile()),
            profile: sim.profile(),
        };
        let mut huge = default.clone();
        huge.set("executor_instances", ParamValue::Int(32));
        huge.set("executor_memory_mb", ParamValue::Int(65536));
        assert!(model.predict(&huge) >= 1e7);
        assert!(model.predict(&default) < 1e6);
    }

    #[test]
    fn model_prefers_kryo_and_parallelism() {
        use autotune_core::ParamValue;
        use rand::SeedableRng;
        let mut sim = SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
        let default = sim.space().default_config();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let obs = sim.evaluate(&default, &mut rng);
        let model = SparkCostModel {
            app: SparkAppProfile::estimate(&obs, &sim.profile()),
            profile: sim.profile(),
        };
        let mut scaled = default.clone();
        scaled.set("executor_instances", ParamValue::Int(8));
        scaled.set("executor_cores", ParamValue::Int(4));
        scaled.set("executor_memory_mb", ParamValue::Int(8192));
        assert!(model.predict(&scaled) < model.predict(&default));
        let mut kryo = scaled.clone();
        kryo.set("serializer", ParamValue::Str("kryo".into()));
        assert!(model.predict(&kryo) < model.predict(&scaled));
    }
}
