//! Neural-network tuning in the spirit of Rodd & Kulkarni (IJCSIS 2010,
//! "Adaptive Tuning Algorithm for Performance Tuning of Database
//! Management System") — the Table 2 "Neural Networks / Memory
//! parameters" row.
//!
//! A small MLP learns (configuration → log runtime) from the observations
//! made so far; each round it is retrained and the next experiment is the
//! candidate the network predicts fastest, with ε-greedy exploration.

use crate::util::{best_anchors, candidate_pool, log_runtimes};
use autotune_core::{Configuration, History, Recommendation, Tuner, TunerFamily, TuningContext};
use autotune_math::mlp::{Activation, Mlp, TrainConfig};
use autotune_math::stats::{mean, std_dev};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The neural-network tuner.
#[derive(Debug)]
pub struct RoddTuner {
    /// Random bootstrap samples before the network is trusted.
    pub bootstrap: usize,
    /// Exploration probability.
    pub epsilon: f64,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs per round.
    pub epochs: usize,
}

impl Default for RoddTuner {
    fn default() -> Self {
        RoddTuner {
            bootstrap: 10,
            epsilon: 0.1,
            hidden: 16,
            epochs: 200,
        }
    }
}

impl RoddTuner {
    /// Creates the tuner with default settings.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tuner for RoddTuner {
    fn name(&self) -> &str {
        "rodd-nn"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::MachineLearning
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let dim = ctx.space.dim();
        if history.len() < self.bootstrap {
            if history.is_empty() {
                return ctx.space.default_config();
            }
            return ctx.space.random_config(rng);
        }
        if rng.random_range(0.0..1.0) < self.epsilon {
            return ctx.space.random_config(rng);
        }

        // Train the network on standardized log runtimes. The network's
        // own RNG is derived from the session RNG so runs are reproducible.
        let (xs, _) = history.training_set(&ctx.space);
        let ys_raw = log_runtimes(history);
        let m = mean(&ys_raw);
        let s = std_dev(&ys_raw).max(1e-6);
        let ys: Vec<Vec<f64>> = ys_raw.iter().map(|y| vec![(y - m) / s]).collect();
        let mut net_rng = StdRng::seed_from_u64(rng.random_range(0..u64::MAX));
        let mut net = Mlp::new(
            &[dim, self.hidden, self.hidden, 1],
            Activation::Relu,
            &mut net_rng,
        );
        let cfg = TrainConfig {
            learning_rate: 0.02,
            epochs: self.epochs,
            batch_size: 16,
            weight_decay: 1e-4,
        };
        net.train(&xs, &ys, &cfg, &mut net_rng);

        // Propose the candidate the network likes best.
        let anchors = best_anchors(history, &ctx.space, 3);
        let pool = candidate_pool(dim, 400, &anchors, 30, 0.12, rng);
        let mut best = None;
        let mut best_pred = f64::INFINITY;
        for p in pool {
            let pred = net.predict_scalar(&p);
            if pred < best_pred {
                best_pred = pred;
                best = Some(p);
            }
        }
        match best {
            Some(p) => ctx.space.decode(&p),
            None => ctx.space.random_config(rng),
        }
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: "neural-network surrogate with ε-greedy exploration".into(),
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale: "no observations".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearchTuner;
    use autotune_core::{tune, ConfigSpace, FunctionObjective, ParamSpec};

    fn bowl() -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        let space = ConfigSpace::new(
            (0..4)
                .map(|i| ParamSpec::float(&format!("x{i}"), 0.0, 1.0, 0.9, ""))
                .collect(),
        );
        FunctionObjective::new(space, "bowl", |x| {
            x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>() + 1.0
        })
    }

    #[test]
    fn nn_tuner_beats_random_on_average() {
        let mut wins = 0;
        for seed in 0..5 {
            let mut obj = bowl();
            let mut nn = RoddTuner::new();
            let ours = tune(&mut obj, &mut nn, 35, seed).best.unwrap().runtime_secs;
            let mut obj = bowl();
            let mut r = RandomSearchTuner;
            let theirs = tune(&mut obj, &mut r, 35, seed).best.unwrap().runtime_secs;
            if ours <= theirs * 1.02 {
                wins += 1;
            }
        }
        assert!(wins >= 3, "NN tuner won only {wins}/5");
    }

    #[test]
    fn bootstrap_phase_is_random_then_model() {
        let mut obj = bowl();
        let mut nn = RoddTuner {
            bootstrap: 5,
            epsilon: 0.0,
            ..RoddTuner::new()
        };
        let out = tune(&mut obj, &mut nn, 12, 1);
        assert_eq!(out.history.len(), 12);
        // The model phase should land close to the optimum basin.
        let best = out.best.unwrap().runtime_secs;
        assert!(best < 1.3, "best={best}");
    }

    #[test]
    fn tunes_memory_knobs_on_dbms() {
        use autotune_core::Objective;
        use autotune_sim::noise::NoiseModel;
        use autotune_sim::DbmsSimulator;
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut nn = RoddTuner::new();
        let out = tune(&mut sim, &mut nn, 30, 2);
        let best = out.best.unwrap().runtime_secs;
        assert!(best < default_rt * 0.7, "default={default_rt} nn={best}");
    }
}
