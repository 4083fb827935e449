//! Starfish-style profile → what-if → recommend tuning for MapReduce
//! (Herodotou & Babu, PVLDB 2011; Starfish, CIDR 2011).
//!
//! The workflow: run the job once under the current configuration with
//! profiling on, estimate a *job profile* (data-flow ratios and CPU
//! rates), then answer what-if questions with an analytical cost model
//! and search that model (it costs microseconds per candidate, so the
//! search is free) for the recommended configuration. Only the profiling
//! run touches the real system.

use autotune_core::{
    ConfigSpace, Configuration, History, Observation, Recommendation, SystemProfile, Tuner,
    TunerFamily, TuningContext,
};
use autotune_sim::hadoop::knobs;
use rand::rngs::StdRng;

/// A MapReduce job profile, estimated from one profiled run.
#[derive(Debug, Clone)]
pub struct JobProfile {
    /// Input size (MB).
    pub input_mb: f64,
    /// Map output / input ratio (post-combiner, uncompressed).
    pub map_output_ratio: f64,
    /// Map CPU cost per input MB (core-ms).
    pub map_cpu_ms_per_mb: f64,
    /// Reduce CPU cost per shuffled MB (core-ms).
    pub reduce_cpu_ms_per_mb: f64,
    /// Job output / shuffle ratio.
    pub output_ratio: f64,
}

impl JobProfile {
    /// Estimates the profile from the profiling run's observation and the
    /// deployment profile. Metric names follow `autotune-sim`'s Hadoop
    /// engine (a real deployment would read task counters).
    pub fn estimate(obs: &Observation, profile: &SystemProfile) -> Self {
        let input_mb = profile.input_mb.max(1.0);
        let metric = |k: &str, d: f64| obs.metrics.get(k).copied().unwrap_or(d);
        let maps = metric("maps", 1.0).max(1.0);
        let shuffle_mb = metric("shuffle_mb", input_mb * 0.5);
        let map_task_secs = metric("map_task_secs", 10.0);
        let reduce_task_secs = metric("reduce_task_secs", 10.0);
        let spills = metric("spills", maps) / maps;
        let merge_passes = metric("merge_passes", 0.0);
        let reduce_merge_passes = metric("reduce_merge_passes", 0.0);
        let skew = metric("skew_factor", 1.0);

        let split_mb = input_mb / maps;
        let out_per_map = shuffle_mb / maps;
        // Back out the map CPU rate: observed task time minus the I/O the
        // counters explain (split read + spill/merge traffic) minus task
        // launch overhead.
        let spill_io = out_per_map * (spills - 1.0).max(0.0) / spills.max(1.0)
            + out_per_map * (1.0 + 2.0 * merge_passes);
        let map_io_secs = (split_mb + spill_io) / profile.disk_mbps;
        let map_cpu_ms_per_mb =
            ((map_task_secs - map_io_secs - 1.0).max(0.05) * 1000.0 / split_mb).clamp(0.5, 100.0);

        // Reduce side: counters tell us the per-reduce volume directly.
        let reduces = obs
            .config
            .get(knobs::REDUCE_TASKS)
            .and_then(|v| v.as_f64())
            .unwrap_or(1.0)
            .max(1.0);
        let output_ratio = 0.5; // unknown without output counters
        let per_reduce = (shuffle_mb / reduces * skew).max(1.0);
        let reduce_io_secs = (per_reduce * 2.0 * reduce_merge_passes
            + per_reduce * output_ratio * 2.0)
            / profile.disk_mbps;
        let reduce_cpu_ms_per_mb = ((reduce_task_secs - reduce_io_secs - 1.0).max(0.05) * 1000.0
            / per_reduce)
            .clamp(0.5, 100.0);

        JobProfile {
            input_mb,
            map_output_ratio: (shuffle_mb / input_mb).clamp(0.001, 4.0),
            map_cpu_ms_per_mb,
            reduce_cpu_ms_per_mb,
            output_ratio,
        }
    }
}

/// The analytical MapReduce cost model the what-if engine evaluates.
/// Deliberately simpler than the "real system" (`autotune-sim`'s engine):
/// homogeneous nodes, no skew, no slow-start subtleties — which is exactly
/// the weakness Table 1 lists for cost modeling ("not effective on
/// heterogeneous clusters", "simplified assumptions").
#[derive(Debug, Clone)]
pub struct MrCostModel {
    /// Estimated job profile.
    pub job: JobProfile,
    /// Deployment (homogeneous view: mean node).
    pub profile: SystemProfile,
}

impl MrCostModel {
    /// Predicted job runtime (seconds) under a configuration.
    pub fn predict(&self, config: &Configuration) -> f64 {
        let p = &self.profile;
        let j = &self.job;
        let nodes = p.nodes as f64;

        let io_sort_mb = config.f64(knobs::IO_SORT_MB);
        let io_sort_factor = config.f64(knobs::IO_SORT_FACTOR);
        let reduce_tasks = config.f64(knobs::REDUCE_TASKS).max(1.0);
        let map_slots = config.f64(knobs::MAP_SLOTS);
        let reduce_slots = config.f64(knobs::REDUCE_SLOTS);
        let compress = config.bool(knobs::COMPRESS_MAP_OUTPUT);
        let codec = config.str(knobs::COMPRESS_CODEC);
        let slowstart = config.f64(knobs::SLOWSTART);
        let combiner = config.bool(knobs::USE_COMBINER);
        let split_mb = config.f64(knobs::SPLIT_SIZE_MB);
        let copies = config.f64(knobs::SHUFFLE_PARALLEL_COPIES);
        let map_heap = config.f64(knobs::MAP_HEAP_MB);
        let reduce_heap = config.f64(knobs::REDUCE_HEAP_MB);

        // Infeasible settings get the same penalty shape as reality.
        let committed = map_slots * map_heap + reduce_slots * reduce_heap + 1024.0;
        if committed > p.memory_per_node_mb * 1.3 || io_sort_mb > map_heap * 0.7 {
            return 1e7;
        }

        let (codec_ratio, codec_cpu_ms) = match codec {
            "zlib" => (0.35, 18.0),
            "snappy" => (0.55, 3.0),
            _ => (0.60, 1.5),
        };

        let maps = (j.input_mb / split_mb).ceil().max(1.0);
        let map_waves = (maps / (map_slots * nodes).max(1.0)).ceil();
        let out_per_map_raw = split_mb * j.map_output_ratio;
        // The model does not know the job's true combiner reduction — it
        // assumes a generic 30% when enabled (a documented blind spot).
        let out_per_map = if combiner {
            out_per_map_raw * 0.7
        } else {
            out_per_map_raw
        };
        let spills = (out_per_map_raw / (io_sort_mb * 0.8)).ceil().max(1.0);
        let merge_passes = if spills > 1.0 {
            (spills.ln() / io_sort_factor.ln()).ceil().max(1.0)
        } else {
            0.0
        };
        let out_compressed = if compress {
            out_per_map * codec_ratio
        } else {
            out_per_map
        };
        let compress_cpu = if compress {
            out_per_map * codec_cpu_ms / 1000.0
        } else {
            0.0
        };
        let spill_io = out_per_map_raw * (spills - 1.0).max(0.0) / spills
            + out_compressed * (1.0 + 2.0 * merge_passes);
        let map_task = split_mb / p.disk_mbps
            + split_mb * j.map_cpu_ms_per_mb / 1000.0
            + compress_cpu
            + spill_io / p.disk_mbps
            + 1.0;
        let map_phase = map_task * map_waves;

        let shuffle_mb = out_compressed * maps;
        let fetch_rate = (reduce_tasks * copies * 10.0).min(nodes * p.network_mbps * 0.5);
        let shuffle_raw = shuffle_mb / fetch_rate.max(1.0);
        let overlap = (1.0 - slowstart).clamp(0.0, 1.0) * 0.9;
        let shuffle = shuffle_raw * (1.0 - overlap) + shuffle_raw * overlap * 0.1;

        let reduce_waves = (reduce_tasks / (reduce_slots * nodes).max(1.0)).ceil();
        let per_reduce = shuffle_mb / reduce_tasks;
        let reduce_buffer = reduce_heap * 0.5;
        let reduce_merge_passes = if per_reduce > reduce_buffer {
            ((per_reduce / reduce_buffer).ln() / io_sort_factor.ln())
                .ceil()
                .max(1.0)
        } else {
            0.0
        };
        let decompress_cpu_ms = if compress { codec_cpu_ms * 0.3 } else { 0.0 };
        let reduce_task = per_reduce * (j.reduce_cpu_ms_per_mb + decompress_cpu_ms) / 1000.0
            + per_reduce * 2.0 * reduce_merge_passes / p.disk_mbps
            + per_reduce * j.output_ratio * 2.0 / p.disk_mbps
            + 1.0;
        let reduce_phase = reduce_task * reduce_waves;

        8.0 + map_phase + shuffle + reduce_phase
    }
}

/// The Starfish-style tuner: profiling run, then model search, then a
/// handful of model-optimal candidates validated on the real system.
#[derive(Debug, Default)]
pub struct WhatIfTuner {
    model: Option<MrCostModel>,
    candidates: Vec<Configuration>,
    cursor: usize,
}

impl WhatIfTuner {
    /// Creates the tuner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted cost model, once the profiling run happened.
    pub fn model(&self) -> Option<&MrCostModel> {
        self.model.as_ref()
    }

    fn search_model(
        &self,
        model: &MrCostModel,
        space: &ConfigSpace,
        rng: &mut StdRng,
        top: usize,
    ) -> Vec<Configuration> {
        let mut scored: Vec<(f64, Configuration)> = (0..2000)
            .map(|_| {
                let c = space.random_config(rng);
                (model.predict(&c), c)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().take(top).map(|(_, c)| c).collect()
    }
}

impl Tuner for WhatIfTuner {
    fn name(&self) -> &str {
        "starfish-whatif"
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
            return ctx.space.default_config(); // the profiling run
        }
        if self.model.is_none() {
            let profiling_run = &history.all()[0];
            let job = JobProfile::estimate(profiling_run, &ctx.profile);
            let model = MrCostModel {
                job,
                profile: ctx.profile.clone(),
            };
            self.candidates = self.search_model(&model, &ctx.space, rng, 8);
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
        let best = history.best();
        match best {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: "best of model-recommended candidates (what-if search)".into(),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no runs yet".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::cluster::ClusterSpec;
    use autotune_sim::hadoop::{HadoopJob, HadoopSimulator};
    use autotune_sim::noise::NoiseModel;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn whatif_beats_defaults_with_tiny_budget() {
        let mut sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = WhatIfTuner::new();
        // 1 profiling run + 5 validations — the whole point of cost models
        // is needing almost no real runs.
        let out = tune(&mut sim, &mut tuner, 6, 3);
        let best = out.best.unwrap().runtime_secs;
        assert!(
            best < default_rt * 0.4,
            "default={default_rt} whatif={best}"
        );
    }

    #[test]
    fn model_prediction_correlates_with_simulator() {
        let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let default = sim.space().default_config();
        let obs_run = sim.simulate(&default);
        let obs = Observation {
            config: default.clone(),
            runtime_secs: obs_run.runtime_secs,
            cost: obs_run.runtime_secs,
            metrics: obs_run.metrics,
            failed: false,
        };
        let model = MrCostModel {
            job: JobProfile::estimate(&obs, &sim.profile()),
            profile: sim.profile(),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut pred = Vec::new();
        let mut actual = Vec::new();
        for _ in 0..120 {
            let mut c = sim.space().random_config(&mut rng);
            // Keep the memory knobs feasible so the comparison exercises
            // the interesting (non-cliff) region of the space.
            use autotune_core::ParamValue;
            c.set(
                "map_slots_per_node",
                ParamValue::Int(rng.random_range(1..=4)),
            );
            c.set(
                "reduce_slots_per_node",
                ParamValue::Int(rng.random_range(1..=2)),
            );
            c.set("map_heap_mb", ParamValue::Int(2048));
            c.set("reduce_heap_mb", ParamValue::Int(2048));
            c.set("io_sort_mb", ParamValue::Int(rng.random_range(32..=1024)));
            let p = model.predict(&c);
            let run = sim.simulate(&c);
            // Compare on the feasible region; both sides agree that
            // infeasible configs are catastrophic, which would dominate
            // the rank correlation.
            if p < 1e6 && !run.failed {
                pred.push(p);
                actual.push(run.runtime_secs);
            }
        }
        assert!(pred.len() >= 15, "too few feasible samples: {}", pred.len());
        let rho = autotune_math::stats::spearman(&pred, &actual);
        assert!(rho > 0.5, "model rank-correlation too weak: {rho}");
    }

    #[test]
    fn model_error_grows_on_heterogeneous_cluster() {
        // Table 1: cost modeling is "not effective on heterogeneous
        // clusters" — the model assumes the mean node.
        let homo = HadoopSimulator::new(
            ClusterSpec::homogeneous(6, autotune_sim::NodeSpec::default()),
            HadoopJob::terasort(16_384.0),
        )
        .with_noise(NoiseModel::none());
        let hetero =
            HadoopSimulator::new(ClusterSpec::heterogeneous(6), HadoopJob::terasort(16_384.0))
                .with_noise(NoiseModel::none());

        let err = |sim: &HadoopSimulator| {
            let default = sim.space().default_config();
            let run = sim.simulate(&default);
            let obs = Observation {
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
            let mut rng = StdRng::seed_from_u64(7);
            let mut errs = Vec::new();
            for _ in 0..30 {
                let c = sim.space().random_config(&mut rng);
                let p = model.predict(&c);
                let a = sim.simulate(&c).runtime_secs;
                if p < 1e6 && a < 1e6 {
                    errs.push(((p - a) / a).abs());
                }
            }
            autotune_math::stats::median(&errs)
        };
        let e_homo = err(&homo);
        let e_hetero = err(&hetero);
        assert!(
            e_hetero > e_homo,
            "hetero error {e_hetero} should exceed homo error {e_homo}"
        );
    }

    #[test]
    fn infeasible_configs_predicted_catastrophic() {
        let sim = HadoopSimulator::terasort_default();
        let model = MrCostModel {
            job: JobProfile {
                input_mb: 32_768.0,
                map_output_ratio: 1.0,
                map_cpu_ms_per_mb: 3.0,
                reduce_cpu_ms_per_mb: 5.0,
                output_ratio: 1.0,
            },
            profile: sim.profile(),
        };
        let mut c = sim.space().default_config();
        c.set("map_slots_per_node", autotune_core::ParamValue::Int(32));
        c.set("map_heap_mb", autotune_core::ParamValue::Int(8192));
        assert!(model.predict(&c) >= 1e7);
    }
}
