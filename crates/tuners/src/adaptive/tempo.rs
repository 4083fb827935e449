//! Tempo-style robust, self-tuning resource management for multi-tenant
//! databases (Tan & Babu, PVLDB 9(10), 2016 — reference \[23\]).
//!
//! Tempo's contract: given per-tenant SLOs, continuously shift the shared
//! resource (memory here) toward the tenant with the worst normalized SLO
//! ratio, taking it from the tenant with the most headroom — a max-min
//! feedback controller that provably converges to the fair point and, by
//! moving in small verified steps, never makes a configuration *much*
//! worse than the incumbent (the "robust" part: it avoids the error-prone
//! settings §2.2(i) warns about).

use autotune_core::{
    Configuration, History, Observation, ParamValue, Recommendation, Tuner, TunerFamily,
    TuningContext,
};
use rand::rngs::StdRng;

/// The Tempo controller over `mem_share_*` knobs.
#[derive(Debug)]
pub struct TempoTuner {
    /// Fraction of the donor's share moved per epoch.
    pub step: f64,
    current: Option<Configuration>,
    last: Option<Observation>,
    /// Number of reallocations performed.
    pub reallocations: usize,
}

impl Default for TempoTuner {
    fn default() -> Self {
        TempoTuner {
            step: 0.25,
            current: None,
            last: None,
            reallocations: 0,
        }
    }
}

impl TempoTuner {
    /// Creates the controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fraction of the donor's share moved per epoch (builder
    /// style).
    pub fn with_step(mut self, step: f64) -> Self {
        self.step = step;
        self
    }

    /// The `slo_ratio_*` metrics of an observation as (tenant, ratio).
    fn ratios(obs: &Observation) -> Vec<(String, f64)> {
        obs.metrics
            .iter()
            .filter_map(|(k, v)| k.strip_prefix("slo_ratio_").map(|t| (t.to_string(), *v)))
            .collect()
    }
}

impl Tuner for TempoTuner {
    fn name(&self) -> &str {
        "tempo"
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
            return config; // epoch 0: observe the status quo
        };
        let ratios = Self::ratios(last);
        if ratios.len() < 2 {
            return config; // not a multi-tenant objective
        }
        let Some((needy, needy_ratio)) = ratios.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned()
        else {
            return config;
        };
        let Some((donor, donor_ratio)) = ratios.iter().min_by(|a, b| a.1.total_cmp(&b.1)).cloned()
        else {
            return config;
        };
        // Converged: everyone within 5% of the same normalized ratio.
        if needy_ratio <= donor_ratio * 1.05 {
            self.current = Some(config.clone());
            return config;
        }
        let donor_knob = format!("mem_share_{donor}");
        let needy_knob = format!("mem_share_{needy}");
        let donor_share = config.f64(&donor_knob);
        let needy_share = config.f64(&needy_knob);
        let moved = donor_share * self.step;
        let clamp = |v: f64| v.clamp(0.05, 1.0);
        config.set(&donor_knob, ParamValue::Float(clamp(donor_share - moved)));
        config.set(&needy_knob, ParamValue::Float(clamp(needy_share + moved)));
        self.reallocations += 1;
        self.current = Some(config.clone());
        config
    }

    fn observe(&mut self, obs: &Observation) {
        // Robustness: revert the move if the worst ratio got worse.
        if let Some(prev) = &self.last {
            let prev_worst = prev.metrics.get("worst_slo_ratio").copied();
            let new_worst = obs.metrics.get("worst_slo_ratio").copied();
            if let (Some(p), Some(n)) = (prev_worst, new_worst) {
                if n > p * 1.02 {
                    self.current = Some(prev.config.clone());
                    return;
                }
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
            rationale: format!("max-min SLO feedback: {} reallocations", self.reallocations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::multitenant::MultiTenantDbms;
    use autotune_sim::NoiseModel;

    fn host() -> MultiTenantDbms {
        MultiTenantDbms::standard_three_tenants().with_noise(NoiseModel::none())
    }

    #[test]
    fn tempo_meets_slos_that_equal_shares_miss() {
        let mut mt = host();
        let equal_violation = mt.worst_violation(&mt.space().default_config());
        assert!(equal_violation > 1.0, "premise: equal shares infeasible");
        let mut tempo = TempoTuner::new();
        let out = tune(&mut mt, &mut tempo, 25, 1);
        let final_violation = mt.worst_violation(&out.recommendation.config);
        assert!(
            final_violation < 1.0,
            "Tempo should reach SLO feasibility: {equal_violation:.2} -> {final_violation:.2}"
        );
        assert!(tempo.reallocations > 0);
    }

    #[test]
    fn tempo_beats_random_search_at_equal_budget() {
        let budget = 20;
        let mut mt = host();
        let mut tempo = TempoTuner::new();
        let t = tune(&mut mt, &mut tempo, budget, 2);
        let tempo_v = host().worst_violation(&t.recommendation.config);

        let mut mt = host();
        let mut random = crate::baselines::RandomSearchTuner;
        let r = tune(&mut mt, &mut random, budget, 2);
        let rand_v = host().worst_violation(&r.best.unwrap().config);
        assert!(
            tempo_v <= rand_v * 1.05,
            "tempo {tempo_v:.3} vs random {rand_v:.3}"
        );
    }

    #[test]
    fn converges_and_stops_reallocating() {
        let mut mt = host();
        let mut tempo = TempoTuner::new();
        let _ = tune(&mut mt, &mut tempo, 40, 3);
        let after_long = tempo.reallocations;
        // Reallocation count must be well below the epoch count once the
        // ratios equalize (it stops moving memory at the fixed point).
        assert!(
            after_long < 35,
            "still reallocating every epoch: {after_long}"
        );
    }

    #[test]
    fn noop_on_single_objective_systems() {
        use autotune_sim::DbmsSimulator;
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut tempo = TempoTuner::new();
        let out = tune(&mut sim, &mut tempo, 5, 4);
        // No slo_ratio metrics → Tempo holds the defaults.
        assert_eq!(out.recommendation.config, sim.space().default_config());
    }
}
