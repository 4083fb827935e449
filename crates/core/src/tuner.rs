//! The [`Tuner`] trait and the six-family taxonomy from the tutorial.
//!
//! Every concrete tuner in `autotune-tuners` implements this trait; the
//! [`crate::session::TuningSession`] drives the propose → evaluate →
//! observe loop uniformly, so the bench harness can compare families
//! head-to-head (Table 1 of the paper).

use crate::history::History;
use crate::objective::SystemProfile;
use crate::space::{ConfigSpace, Configuration};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The six categories of automatic parameter tuning approaches
/// (§2.1 of Lu et al., VLDB 2019).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TunerFamily {
    /// Expert rules / tuning guides, no model.
    RuleBased,
    /// Analytical cost models over system internals.
    CostModeling,
    /// Modular or complete system simulation.
    SimulationBased,
    /// Search guided by actual experiment runs.
    ExperimentDriven,
    /// Black-box models learned from observations.
    MachineLearning,
    /// Online adjustment while the application runs.
    Adaptive,
}

impl TunerFamily {
    /// All six families in the paper's order.
    pub fn all() -> [TunerFamily; 6] {
        [
            TunerFamily::RuleBased,
            TunerFamily::CostModeling,
            TunerFamily::SimulationBased,
            TunerFamily::ExperimentDriven,
            TunerFamily::MachineLearning,
            TunerFamily::Adaptive,
        ]
    }
}

impl fmt::Display for TunerFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TunerFamily::RuleBased => "rule-based",
            TunerFamily::CostModeling => "cost modeling",
            TunerFamily::SimulationBased => "simulation-based",
            TunerFamily::ExperimentDriven => "experiment-driven",
            TunerFamily::MachineLearning => "machine learning",
            TunerFamily::Adaptive => "adaptive",
        };
        f.write_str(s)
    }
}

/// Everything a tuner may consult besides the observation history.
#[derive(Debug, Clone)]
pub struct TuningContext {
    /// The knob space being tuned.
    pub space: ConfigSpace,
    /// Deployment profile (hardware, workload class, data size).
    pub profile: SystemProfile,
}

/// A snapshot of the surrogate model a GP-backed tuner currently holds,
/// surfaced through [`Tuner::surrogate_stats`] for observability (the
/// serve layer's `/metrics` endpoint reports it per session).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateStats {
    /// Observations the model is fitted on, which its per-prediction cost
    /// scales with.
    pub active: usize,
    /// Full hyper-parameter-search fits performed so far.
    pub fits: u64,
    /// Log-marginal-likelihood evaluations those searches spent, summed
    /// (a value-plus-gradient evaluation counts as one).
    pub lml_evals: u64,
}

/// Final output of a tuning session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended configuration.
    pub config: Configuration,
    /// Expected runtime under the recommendation, if the tuner has a model.
    pub expected_runtime: Option<f64>,
    /// Why the tuner recommends this configuration.
    pub rationale: String,
}

/// An automatic parameter tuner.
///
/// The contract: the session repeatedly calls [`Tuner::propose`], runs the
/// objective, and feeds the result back through [`Tuner::observe`]. When
/// the budget is spent it asks for a final [`Tuner::recommend`]ation.
/// Tuners that do not search (rule-based, cost models) simply propose
/// their computed configuration every time.
pub trait Tuner {
    /// Short identifier, e.g. `"ituned"`.
    fn name(&self) -> &str;

    /// Which of the paper's six families this tuner belongs to.
    fn family(&self) -> TunerFamily;

    /// Chooses the next configuration to evaluate.
    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration;

    /// Receives the result of the last proposal. Default: no-op.
    fn observe(&mut self, _obs: &crate::objective::Observation) {}

    /// The session has ended (finished or cancelled): no further proposal
    /// will be asked for, so the tuner may drop state only proposing uses.
    /// [`Tuner::recommend`] and [`Tuner::surrogate_stats`] must still
    /// answer as before. Default: no-op.
    fn finish(&mut self) {}

    /// Produces the final recommendation given everything observed.
    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(best) => Recommendation {
                config: best.config.clone(),
                expected_runtime: Some(best.runtime_secs),
                rationale: format!(
                    "best of {} observed runs ({} tuner)",
                    history.len(),
                    self.name()
                ),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no observations; falling back to defaults".to_string(),
            },
        }
    }

    /// Stats about the surrogate model currently held, if the tuner is
    /// model-based and has fitted one. Default: `None` (model-free tuners
    /// and tuners still in their initial design phase).
    fn surrogate_stats(&self) -> Option<SurrogateStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Observation, SystemProfile};
    use crate::param::ParamSpec;
    use rand::SeedableRng;

    struct FixedTuner {
        cfg: Configuration,
    }

    impl Tuner for FixedTuner {
        fn name(&self) -> &str {
            "fixed"
        }
        fn family(&self) -> TunerFamily {
            TunerFamily::RuleBased
        }
        fn propose(
            &mut self,
            _ctx: &TuningContext,
            _history: &History,
            _rng: &mut StdRng,
        ) -> Configuration {
            self.cfg.clone()
        }
    }

    fn ctx() -> TuningContext {
        TuningContext {
            space: ConfigSpace::new(vec![ParamSpec::float("x", 0.0, 1.0, 0.5, "")]),
            profile: SystemProfile::default(),
        }
    }

    #[test]
    fn family_display_and_all() {
        assert_eq!(TunerFamily::all().len(), 6);
        assert_eq!(TunerFamily::RuleBased.to_string(), "rule-based");
        assert_eq!(TunerFamily::MachineLearning.to_string(), "machine learning");
    }

    #[test]
    fn default_recommend_uses_best_history() {
        let c = ctx();
        let mut t = FixedTuner {
            cfg: c.space.default_config(),
        };
        let mut h = History::new();
        h.push(Observation::ok(c.space.decode(&[0.2]), 8.0));
        h.push(Observation::ok(c.space.decode(&[0.8]), 3.0));
        let mut rng = StdRng::seed_from_u64(0);
        let _ = t.propose(&c, &h, &mut rng);
        let rec = t.recommend(&c, &h);
        assert_eq!(rec.expected_runtime, Some(3.0));
        assert_eq!(rec.config, c.space.decode(&[0.8]));
    }

    #[test]
    fn default_recommend_falls_back_to_defaults() {
        let c = ctx();
        let t = FixedTuner {
            cfg: c.space.default_config(),
        };
        let rec = t.recommend(&c, &History::new());
        assert_eq!(rec.config, c.space.default_config());
        assert!(rec.expected_runtime.is_none());
    }
}
