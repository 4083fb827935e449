//! Dynamic configuration of partitioning in Spark applications
//! (Gounaris, Kougka, Tous, Montes & Torres, IEEE TPDS 2017).
//!
//! Their observation: `spark.sql.shuffle.partitions` (and
//! `default.parallelism`) is the knob that matters most *per stage*, and
//! the right value can be found online by reacting to spill volume and
//! scheduling overhead between consecutive runs/batches of the same
//! application — no model required.

use autotune_core::{
    Configuration, History, Observation, ParamValue, Recommendation, Tuner, TunerFamily,
    TuningContext,
};
use autotune_sim::spark::knobs;
use rand::rngs::StdRng;

/// Online shuffle-partition controller for Spark.
#[derive(Debug)]
pub struct DynamicPartitionTuner {
    /// Grow factor when spills are observed.
    pub grow: f64,
    /// Shrink factor when scheduling overhead dominates.
    pub shrink: f64,
    /// Fraction of runtime spent on task overhead that triggers shrinking.
    pub overhead_threshold: f64,
    current: Option<Configuration>,
    last: Option<Observation>,
    /// Adjustment log.
    pub actions: Vec<String>,
}

impl Default for DynamicPartitionTuner {
    fn default() -> Self {
        DynamicPartitionTuner {
            grow: 1.5,
            shrink: 0.6,
            overhead_threshold: 0.15,
            current: None,
            last: None,
            actions: Vec::new(),
        }
    }
}

impl DynamicPartitionTuner {
    /// Creates the controller.
    pub fn new() -> Self {
        Self::default()
    }

    fn scale_partitions(
        space: &autotune_core::ConfigSpace,
        config: &mut Configuration,
        factor: f64,
    ) {
        for knob in [knobs::SHUFFLE_PARTITIONS, knobs::DEFAULT_PARALLELISM] {
            if let (Some(ParamValue::Int(v)), Some(spec)) =
                (config.get(knob).cloned(), space.spec(knob))
            {
                if let autotune_core::ParamDomain::Int { min, max, .. } = spec.domain {
                    config.set(
                        knob,
                        ParamValue::Int(((v as f64 * factor).round() as i64).clamp(min, max)),
                    );
                }
            }
        }
    }
}

impl Tuner for DynamicPartitionTuner {
    fn name(&self) -> &str {
        "dynamic-partitioning"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::Adaptive
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        _history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        let mut config = self
            .current
            .clone()
            .unwrap_or_else(|| ctx.space.default_config());
        if let Some(last) = &self.last {
            let spilled = last.metrics.get("spilled_mb").copied().unwrap_or(0.0);
            let overhead = last
                .metrics
                .get("task_overhead_secs")
                .copied()
                .unwrap_or(0.0);
            let overhead_frac = overhead / last.runtime_secs.max(1e-9);
            if spilled > 1.0 {
                Self::scale_partitions(&ctx.space, &mut config, self.grow);
                self.actions
                    .push(format!("grow partitions: {spilled:.0} MB spilled"));
            } else if overhead_frac > self.overhead_threshold {
                Self::scale_partitions(&ctx.space, &mut config, self.shrink);
                self.actions.push(format!(
                    "shrink partitions: {:.0}% scheduling overhead",
                    overhead_frac * 100.0
                ));
            }
        }
        self.current = Some(config.clone());
        config
    }

    fn observe(&mut self, obs: &Observation) {
        // Revert on regression.
        if let Some(prev) = &self.last {
            if obs.failed || obs.runtime_secs > prev.runtime_secs * 1.15 {
                self.current = Some(prev.config.clone());
                self.actions.push("rollback".into());
                return;
            }
        }
        self.last = Some(obs.clone());
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        Recommendation {
            config: self
                .current
                .clone()
                .unwrap_or_else(|| ctx.space.default_config()),
            expected_runtime: history.best().map(|o| o.runtime_secs),
            rationale: format!("dynamic partitioning: {} adjustments", self.actions.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::cluster::{ClusterSpec, NodeSpec};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::spark::{SparkApp, SparkSimulator};

    fn streaming_sim() -> SparkSimulator {
        SparkSimulator::new(
            ClusterSpec::homogeneous(4, NodeSpec::default()),
            SparkApp::streaming(64.0, 20),
        )
        .with_noise(NoiseModel::none())
    }

    #[test]
    fn shrinks_partitions_for_tiny_batches() {
        // Streaming micro-batches with the 200-partition default: task
        // overhead dominates, the controller should shrink.
        let mut sim = streaming_sim();
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut t = DynamicPartitionTuner::new();
        let out = tune(&mut sim, &mut t, 12, 1);
        let final_cfg = &out.recommendation.config;
        assert!(
            final_cfg.i64("shuffle_partitions") < 200,
            "should shrink from 200: {}",
            final_cfg.i64("shuffle_partitions")
        );
        let final_rt = sim.simulate(final_cfg).runtime_secs;
        assert!(
            final_rt < default_rt,
            "default={default_rt} tuned={final_rt}"
        );
        assert!(t.actions.iter().any(|a| a.contains("shrink")));
    }

    #[test]
    fn grows_partitions_when_spilling() {
        // Big sort with few partitions on small executors → spills.
        let mut sim = SparkSimulator::new(
            ClusterSpec::homogeneous(8, NodeSpec::default()),
            SparkApp::sort(65_536.0),
        )
        .with_noise(NoiseModel::none());
        let mut start = sim.space().default_config();
        start.set("shuffle_partitions", ParamValue::Int(8));
        let spilling = sim.simulate(&start);
        assert!(spilling.metrics["spilled_mb"] > 0.0, "premise: spills");

        let mut t = DynamicPartitionTuner::new();
        t.current = Some(start.clone());
        let out = tune(&mut sim, &mut t, 10, 2);
        let final_cfg = &out.recommendation.config;
        assert!(
            final_cfg.i64("shuffle_partitions") > 8,
            "should grow from 8: {}",
            final_cfg.i64("shuffle_partitions")
        );
        assert!(t.actions.iter().any(|a| a.contains("grow")));
    }

    #[test]
    fn stabilizes_rather_than_oscillating() {
        let mut sim = streaming_sim();
        let mut t = DynamicPartitionTuner::new();
        let out = tune(&mut sim, &mut t, 25, 3);
        // The last few configs should be identical (converged).
        let tail: Vec<i64> = out.history.all()[20..]
            .iter()
            .map(|o| o.config.i64("shuffle_partitions"))
            .collect();
        let first = tail[0];
        assert!(
            tail.iter().all(|&v| (v - first).abs() <= first / 3 + 1),
            "still oscillating: {tail:?}"
        );
    }
}
