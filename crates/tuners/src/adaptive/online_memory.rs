//! Online adaptive memory management — STMM's *online* mode: react to the
//! live metric feed (hit ratios, spills, overcommit) each epoch instead of
//! planning from a model. The feedback rules mirror what DB2's memory
//! tuner does between intervals.

use autotune_core::{
    Configuration, History, Observation, ParamValue, Recommendation, Tuner, TunerFamily,
    TuningContext,
};
use autotune_sim::dbms::knobs;
use rand::rngs::StdRng;

/// Feedback-driven memory controller for the simulated DBMS.
#[derive(Debug, Default)]
pub struct OnlineMemoryTuner {
    current: Option<Configuration>,
    last: Option<Observation>,
    /// Adjustment log for reporting.
    pub actions: Vec<String>,
}

impl OnlineMemoryTuner {
    /// Creates the controller.
    pub fn new() -> Self {
        Self::default()
    }

    fn scale_knob(
        space: &autotune_core::ConfigSpace,
        config: &mut Configuration,
        knob: &str,
        factor: f64,
    ) {
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

impl Tuner for OnlineMemoryTuner {
    fn name(&self) -> &str {
        "online-memory"
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
        let Some(last) = &self.last else {
            self.current = Some(config.clone());
            return config; // first epoch: observe the status quo
        };
        let get = |k: &str| last.metrics.get(k).copied().unwrap_or(0.0);

        // Priority 1: never swap. Shrink the biggest consumers.
        if get("mem_overcommit") > 0.95 {
            Self::scale_knob(&ctx.space, &mut config, knobs::SHARED_BUFFERS_MB, 0.7);
            Self::scale_knob(&ctx.space, &mut config, knobs::WORK_MEM_MB, 0.7);
            self.actions.push("shrink: near overcommit".into());
        } else if get("sort_spills") + get("hash_spills") > 0.0 {
            // Priority 2: stop spilling.
            Self::scale_knob(&ctx.space, &mut config, knobs::WORK_MEM_MB, 2.0);
            self.actions.push("grow work_mem: spills observed".into());
        } else if get("buffer_hit_ratio") < 0.97 {
            // Priority 3: feed the buffer pool.
            Self::scale_knob(&ctx.space, &mut config, knobs::SHARED_BUFFERS_MB, 1.5);
            self.actions.push("grow shared_buffers: misses".into());
        } else if get("checkpoint_burst_secs") > last.runtime_secs * 0.01 {
            Self::scale_knob(&ctx.space, &mut config, knobs::CHECKPOINT_TIMEOUT_S, 1.5);
            self.actions.push("stretch checkpoints: bursts".into());
        }
        self.current = Some(config.clone());
        config
    }

    fn observe(&mut self, obs: &Observation) {
        // Roll back if the last adjustment made things worse or failed.
        if let Some(prev) = &self.last {
            if obs.failed || obs.runtime_secs > prev.runtime_secs * 1.1 {
                self.current = Some(prev.config.clone());
                self.actions.push("rollback".into());
                return; // keep prev as the reference epoch
            }
        }
        self.last = Some(obs.clone());
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let config = self
            .current
            .clone()
            .unwrap_or_else(|| ctx.space.default_config());
        Recommendation {
            config,
            expected_runtime: history.best().map(|o| o.runtime_secs),
            rationale: format!("online memory feedback: {} actions", self.actions.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;

    #[test]
    fn converges_to_faster_memory_config() {
        for mk in [DbmsSimulator::oltp_default, DbmsSimulator::olap_default] {
            let mut sim = mk().with_noise(NoiseModel::none());
            let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
            let mut t = OnlineMemoryTuner::new();
            let out = tune(&mut sim, &mut t, 15, 1);
            let final_rt = sim.simulate(&out.recommendation.config).runtime_secs;
            assert!(
                final_rt < default_rt * 0.75,
                "{}: default={default_rt} online={final_rt}",
                sim.workload.name
            );
        }
    }

    #[test]
    fn never_ends_in_overcommit() {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut t = OnlineMemoryTuner::new();
        let out = tune(&mut sim, &mut t, 25, 2);
        let run = sim.simulate(&out.recommendation.config);
        assert!(!run.failed);
        assert!(run.metrics["mem_overcommit"] < 1.05);
    }

    #[test]
    fn actions_are_recorded() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let mut t = OnlineMemoryTuner::new();
        let _ = tune(&mut sim, &mut t, 10, 3);
        assert!(!t.actions.is_empty());
        assert!(t.actions.iter().any(|a| a.contains("work_mem")));
    }
}
