//! MRTuner: holistic MapReduce optimization with the
//! Producer–Transporter–Consumer (PTC) model (Shi, Zou, Lu et al.,
//! PVLDB 7(13), 2014 — reference \[21\] of the tutorial).
//!
//! MRTuner's insight: a MapReduce job is a three-stage pipeline —
//! *producers* (map tasks emitting sorted runs), the *transporter*
//! (shuffle), and *consumers* (reduce tasks) — and the job is fast when
//! the three stages are **rate-balanced** so the pipeline never stalls.
//! Rather than searching blindly, MRTuner solves for the configuration
//! that equalizes stage rates, which prunes the space to a handful of
//! candidate plans evaluated analytically.

use autotune_core::{
    Configuration, History, ParamValue, Recommendation, SystemProfile, Tuner, TunerFamily,
    TuningContext,
};
use rand::rngs::StdRng;
use serde::Serialize;

/// Throughput of each pipeline stage under a configuration (MB/s of map
/// output moved end to end).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PtcRates {
    /// Rate at which map tasks produce shuffle-ready output.
    pub producer_mbps: f64,
    /// Rate at which the shuffle moves data to reducers.
    pub transporter_mbps: f64,
    /// Rate at which reducers merge + apply the reduce function.
    pub consumer_mbps: f64,
}

impl PtcRates {
    /// The pipeline bottleneck rate.
    pub fn bottleneck_mbps(&self) -> f64 {
        self.producer_mbps
            .min(self.transporter_mbps)
            .min(self.consumer_mbps)
    }

    /// Which stage limits the pipeline.
    pub fn bottleneck_stage(&self) -> &'static str {
        let b = self.bottleneck_mbps();
        if b == self.producer_mbps {
            "producer (map)"
        } else if b == self.transporter_mbps {
            "transporter (shuffle)"
        } else {
            "consumer (reduce)"
        }
    }

    /// Imbalance: max rate / min rate (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self
            .producer_mbps
            .max(self.transporter_mbps)
            .max(self.consumer_mbps);
        max / self.bottleneck_mbps().max(1e-9)
    }
}

/// The PTC analytical model for a job on a cluster.
#[derive(Debug, Clone)]
pub struct PtcModel {
    /// Deployment description.
    pub profile: SystemProfile,
    /// Map output bytes per input byte (post-combiner estimate).
    pub map_output_ratio: f64,
    /// Map CPU core-ms per MB.
    pub map_cpu_ms_per_mb: f64,
    /// Reduce CPU core-ms per shuffled MB.
    pub reduce_cpu_ms_per_mb: f64,
}

impl PtcModel {
    /// Builds the model from a profiling observation (same counters the
    /// Starfish what-if engine uses).
    pub fn from_observation(obs: &autotune_core::Observation, profile: &SystemProfile) -> Self {
        let job = super::whatif::JobProfile::estimate(obs, profile);
        PtcModel {
            profile: profile.clone(),
            map_output_ratio: job.map_output_ratio,
            map_cpu_ms_per_mb: job.map_cpu_ms_per_mb,
            reduce_cpu_ms_per_mb: job.reduce_cpu_ms_per_mb,
        }
    }

    /// Stage rates under a configuration.
    pub fn rates(&self, config: &Configuration) -> PtcRates {
        let p = &self.profile;
        let nodes = p.nodes as f64;
        let map_slots = config.f64("map_slots_per_node") * nodes;
        let reduce_slots = config.f64("reduce_slots_per_node") * nodes;
        let reduce_tasks = config.f64("reduce_tasks").max(1.0);
        let io_sort_mb = config.f64("io_sort_mb");
        let compress = config.bool("compress_map_output");
        let copies = config.f64("shuffle_parallel_copies");
        let split_mb = config.f64("split_size_mb");

        // Producer: per-slot map throughput in *output* MB/s, discounted
        // by spill passes.
        let spills = (split_mb * self.map_output_ratio / (io_sort_mb * 0.8))
            .ceil()
            .max(1.0);
        let per_map_input_mbps = 1.0
            / (1.0 / p.disk_mbps
                + self.map_cpu_ms_per_mb / 1000.0
                + (spills - 1.0).max(0.0) * 2.0 / p.disk_mbps);
        let codec_ratio = if compress { 0.5 } else { 1.0 };
        let producer = per_map_input_mbps * self.map_output_ratio * codec_ratio * map_slots;

        // Transporter: fetch concurrency vs network ceiling (compressed
        // bytes move faster per logical MB).
        let active_reducers = reduce_tasks.min(reduce_slots);
        let transporter = (active_reducers * copies * 10.0).min(nodes * p.network_mbps * 0.5)
            / codec_ratio.max(1e-9)
            * codec_ratio; // rate in compressed MB/s equals logical rate * ratio⁻¹ * ratio
                           // Consumer: reduce-side merge + reduce function.
        let consumer = active_reducers
            / (self.reduce_cpu_ms_per_mb / 1000.0 + 2.0 / p.disk_mbps).max(1e-9)
            * codec_ratio;

        PtcRates {
            producer_mbps: producer,
            transporter_mbps: transporter,
            consumer_mbps: consumer,
        }
    }

    /// Predicted job time: shuffle volume over the bottleneck rate, plus
    /// the non-pipelined head (first map wave) and tail (last merge).
    pub fn predict(&self, config: &Configuration) -> f64 {
        let p = &self.profile;
        // Feasibility guard identical to the full what-if model.
        let committed = config.f64("map_slots_per_node") * config.f64("map_heap_mb")
            + config.f64("reduce_slots_per_node") * config.f64("reduce_heap_mb")
            + 1024.0;
        if committed > p.memory_per_node_mb * 1.3
            || config.f64("io_sort_mb") > config.f64("map_heap_mb") * 0.7
        {
            return 1e7;
        }
        let shuffle_mb = p.input_mb * self.map_output_ratio;
        let rates = self.rates(config);
        let pipeline = shuffle_mb / rates.bottleneck_mbps().max(1e-9);
        let head = config.f64("split_size_mb") / p.disk_mbps + 2.0;
        let tail = shuffle_mb / config.f64("reduce_tasks").max(1.0) / p.disk_mbps;
        8.0 + pipeline + head + tail
    }

    /// MRTuner's plan search: enumerate the small candidate lattice the
    /// PTC balance equations admit (reducer counts near slot multiples,
    /// spill-free sort buffers, compression on/off) and return the best
    /// few plans by predicted time.
    pub fn candidate_plans(
        &self,
        space: &autotune_core::ConfigSpace,
        top: usize,
    ) -> Vec<Configuration> {
        let p = &self.profile;
        let nodes = p.nodes as f64;
        let cores = p.cores_per_node as f64;
        let mut plans: Vec<(f64, Configuration)> = Vec::new();
        for &map_frac in &[0.25, 0.5, 0.75] {
            for &red_frac in &[0.25, 0.5] {
                for &waves in &[1.0, 1.5, 3.0] {
                    for &compress in &[false, true] {
                        let map_slots = (cores * map_frac).max(1.0).round();
                        let red_slots = (cores * red_frac).max(1.0).round();
                        let reducers = (red_slots * nodes * waves).round().max(1.0);
                        // Spill-free sort buffer for the expected map output.
                        let split = 128.0;
                        let want_buffer = (split * self.map_output_ratio / 0.8).clamp(64.0, 1024.0);
                        let heap = (want_buffer * 2.0).clamp(512.0, 4096.0);
                        let mut c = space.default_config();
                        let set_int = |c: &mut Configuration, k: &str, v: f64| {
                            c.set(k, ParamValue::Int(v.round() as i64));
                        };
                        set_int(&mut c, "map_slots_per_node", map_slots);
                        set_int(&mut c, "reduce_slots_per_node", red_slots);
                        set_int(&mut c, "reduce_tasks", reducers.min(512.0));
                        set_int(&mut c, "io_sort_mb", want_buffer);
                        set_int(&mut c, "map_heap_mb", heap);
                        set_int(&mut c, "reduce_heap_mb", heap);
                        set_int(&mut c, "io_sort_factor", 64.0);
                        c.set("compress_map_output", ParamValue::Bool(compress));
                        c.set("compress_codec", ParamValue::Str("snappy".into()));
                        c.set("slowstart_completed_maps", ParamValue::Float(0.5));
                        set_int(&mut c, "shuffle_parallel_copies", 20.0);
                        if space.validate_config(&c).is_err() {
                            continue;
                        }
                        plans.push((self.predict(&c), c));
                    }
                }
            }
        }
        plans.sort_by(|a, b| a.0.total_cmp(&b.0));
        plans.into_iter().map(|(_, c)| c).take(top).collect()
    }
}

/// The MRTuner tuner: profile once, enumerate PTC-balanced plans, validate
/// the best few on the real system.
#[derive(Debug, Default)]
pub struct MrTuner {
    model: Option<PtcModel>,
    plans: Vec<Configuration>,
    cursor: usize,
}

impl MrTuner {
    /// Creates the tuner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted PTC model.
    pub fn model(&self) -> Option<&PtcModel> {
        self.model.as_ref()
    }
}

impl Tuner for MrTuner {
    fn name(&self) -> &str {
        "mrtuner"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::CostModeling
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        if history.is_empty() {
            return ctx.space.default_config(); // profiling run
        }
        if self.model.is_none() {
            let model = PtcModel::from_observation(&history.all()[0], &ctx.profile);
            self.plans = model.candidate_plans(&ctx.space, 6);
            self.model = Some(model);
        }
        let c = self
            .plans
            .get(self.cursor.min(self.plans.len().saturating_sub(1)))
            .cloned()
            .unwrap_or_else(|| ctx.space.default_config());
        self.cursor += 1;
        c
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => {
                let rationale = match &self.model {
                    Some(m) => format!(
                        "PTC-balanced plan; bottleneck at recommendation: {}",
                        m.rates(&b.config).bottleneck_stage()
                    ),
                    None => "profiling incomplete".into(),
                };
                Recommendation {
                    config: b.config.clone(),
                    expected_runtime: Some(b.runtime_secs),
                    rationale,
                }
            }
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
    use autotune_sim::cluster::ClusterSpec;
    use autotune_sim::hadoop::{HadoopJob, HadoopSimulator};
    use autotune_sim::noise::NoiseModel;
    use rand::SeedableRng;

    fn model_for(sim: &HadoopSimulator) -> PtcModel {
        let default = sim.space().default_config();
        let run = sim.simulate(&default);
        let obs = autotune_core::Observation {
            config: default,
            runtime_secs: run.runtime_secs,
            cost: run.runtime_secs,
            metrics: run.metrics,
            failed: false,
        };
        PtcModel::from_observation(&obs, &sim.profile())
    }

    #[test]
    fn default_config_bottlenecks_on_the_reduce_side() {
        // One reducer: either its fetch (transporter) or its merge
        // (consumer) serializes the pipeline — never the map side.
        let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let model = model_for(&sim);
        let rates = model.rates(&sim.space().default_config());
        assert_ne!(rates.bottleneck_stage(), "producer (map)");
        assert!(
            rates.imbalance() > 5.0,
            "imbalance {:.1}",
            rates.imbalance()
        );
    }

    #[test]
    fn balanced_plans_have_lower_imbalance() {
        let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let model = model_for(&sim);
        let default_imbalance = model.rates(&sim.space().default_config()).imbalance();
        let plans = model.candidate_plans(sim.space(), 3);
        assert!(!plans.is_empty());
        let best_imbalance = model.rates(&plans[0]).imbalance();
        assert!(
            best_imbalance < default_imbalance / 2.0,
            "default {default_imbalance:.1} vs plan {best_imbalance:.1}"
        );
    }

    #[test]
    fn mrtuner_beats_defaults_in_few_runs() {
        let mut sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = MrTuner::new();
        let out = tune(&mut sim, &mut tuner, 5, 1);
        let best = out.best.unwrap().runtime_secs;
        assert!(
            best < default_rt * 0.2,
            "default={default_rt} mrtuner={best}"
        );
        assert!(out.recommendation.rationale.contains("bottleneck"));
    }

    #[test]
    fn plans_are_feasible_and_valid() {
        let sim = HadoopSimulator::new(
            ClusterSpec::homogeneous(4, autotune_sim::NodeSpec::default()),
            HadoopJob::wordcount(8_192.0),
        )
        .with_noise(NoiseModel::none());
        let model = model_for(&sim);
        let plans = model.candidate_plans(sim.space(), 10);
        let mut rng = StdRng::seed_from_u64(2);
        let _ = &mut rng;
        for p in &plans {
            assert!(sim.space().validate_config(p).is_ok());
            assert!(!sim.simulate(p).failed, "plan OOMs: {p}");
        }
    }

    #[test]
    fn prediction_orders_good_and_bad_configs() {
        let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
        let model = model_for(&sim);
        let default = sim.space().default_config();
        let plan = &model.candidate_plans(sim.space(), 1)[0];
        assert!(model.predict(plan) < model.predict(&default));
    }
}
