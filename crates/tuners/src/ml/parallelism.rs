//! ML-based parallelism optimization in the spirit of Hernández, Pérez,
//! Gupta & Muntés-Mulero (FGCS 2018, "Using Machine Learning to Optimize
//! Parallelism in Big Data Applications" — reference \[11\] of the
//! tutorial).
//!
//! Their system learns, across *many* applications, the mapping from
//! cheap application features (input size, shuffle ratio, iteration
//! count, cluster shape) to the best parallelism settings (executors,
//! cores, partitions), then predicts good settings for an unseen
//! application without tuning it. This module reproduces the workflow
//! with a ridge-regression model per parallelism knob over engineered
//! features.

use autotune_core::{
    ConfigSpace, Configuration, History, Observation, ParamValue, Recommendation, SystemProfile,
    Tuner, TunerFamily, TuningContext,
};
use autotune_math::linreg::{ridge, LinearFit};
use autotune_math::matrix::Matrix;
use autotune_sim::spark::knobs;
use rand::rngs::StdRng;

/// The parallelism knobs the model predicts (log2 targets).
const TARGET_KNOBS: [&str; 3] = [
    knobs::EXECUTOR_INSTANCES,
    knobs::EXECUTOR_CORES,
    knobs::SHUFFLE_PARTITIONS,
];

/// One training example: app features + the parallelism settings that won.
#[derive(Debug, Clone)]
pub struct ParallelismExample {
    /// Feature vector (see [`app_features`]).
    pub features: Vec<f64>,
    /// log2 of the winning value per target knob.
    pub targets: [f64; 3],
}

/// Engineered application features: `[1, log2(input), shuffle_ratio,
/// iterations, log2(total cores), log2(total mem)]`.
pub fn app_features(profile: &SystemProfile, probe: Option<&Observation>) -> Vec<f64> {
    let shuffle_ratio = probe
        .and_then(|o| o.metrics.get("shuffle_mb"))
        .map(|s| (s / profile.input_mb.max(1.0)).min(5.0))
        .unwrap_or(0.5);
    vec![
        1.0,
        profile.input_mb.max(1.0).log2(),
        shuffle_ratio,
        1.0, // iterations unknown pre-run; the probe-free estimate
        (profile.total_cores().max(1) as f64).log2(),
        profile.total_memory_mb().max(1.0).log2(),
    ]
}

/// Cross-application parallelism model: one ridge regressor per knob.
#[derive(Debug, Clone)]
pub struct ParallelismModel {
    fits: Vec<LinearFit>,
}

impl ParallelismModel {
    /// Trains from examples gathered over past applications.
    ///
    /// # Panics
    /// Panics with fewer than 4 examples.
    pub fn train(examples: &[ParallelismExample]) -> Self {
        assert!(examples.len() >= 4, "need at least 4 training apps");
        let x = Matrix::from_rows(
            &examples
                .iter()
                .map(|e| e.features.clone())
                .collect::<Vec<_>>(),
        );
        let fits = (0..TARGET_KNOBS.len())
            .map(|k| {
                let y: Vec<f64> = examples.iter().map(|e| e.targets[k]).collect();
                // lint:allow(unwrap) the 1e-3 ridge jitter keeps the normal equations SPD
                ridge(&x, &y, 1e-3).expect("ridge solvable with jitter")
            })
            .collect();
        ParallelismModel { fits }
    }

    /// Predicts the parallelism settings for an application, clamped into
    /// the knob domains of `space`.
    pub fn predict(
        &self,
        space: &ConfigSpace,
        profile: &SystemProfile,
        probe: Option<&Observation>,
    ) -> Configuration {
        let features = app_features(profile, probe);
        let mut config = space.default_config();
        for (k, knob) in TARGET_KNOBS.iter().enumerate() {
            let Some(spec) = space.spec(knob) else {
                continue;
            };
            if let autotune_core::ParamDomain::Int { min, max, .. } = spec.domain {
                let log2 = self.fits[k].predict(&features);
                let value = (log2.exp2().round() as i64).clamp(min, max);
                config.set(knob, ParamValue::Int(value));
            }
        }
        config
    }

    /// Builds a training example from a tuned session: features of the
    /// app + the best configuration found.
    pub fn example_from_session(
        profile: &SystemProfile,
        history: &History,
    ) -> Option<ParallelismExample> {
        let best = history.best()?;
        let probe = history.all().first();
        let mut targets = [0.0; 3];
        for (k, knob) in TARGET_KNOBS.iter().enumerate() {
            targets[k] = best.config.get(knob)?.as_f64()?.max(1.0).log2();
        }
        Some(ParallelismExample {
            features: app_features(profile, probe),
            targets,
        })
    }
}

/// Tuner wrapper: predicts parallelism from the trained model, leaves
/// everything else at defaults, and (like the paper's system) needs *no*
/// tuning runs on the new application.
#[derive(Debug)]
pub struct ParallelismTuner {
    /// The trained cross-application model.
    pub model: ParallelismModel,
}

impl ParallelismTuner {
    /// Wraps a trained model.
    pub fn new(model: ParallelismModel) -> Self {
        ParallelismTuner { model }
    }
}

impl Tuner for ParallelismTuner {
    fn name(&self) -> &str {
        "ml-parallelism"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::MachineLearning
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        self.model
            .predict(&ctx.space, &ctx.profile, history.all().first())
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let config = self
            .model
            .predict(&ctx.space, &ctx.profile, history.all().first());
        Recommendation {
            expected_runtime: history
                .all()
                .iter()
                .find(|o| o.config == config)
                .map(|o| o.runtime_secs),
            config,
            rationale: "parallelism predicted by cross-application regression".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ITunedTuner;
    use autotune_core::{tune, Objective};
    use autotune_sim::cluster::{ClusterSpec, NodeSpec};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::spark::{SparkApp, SparkSimulator};

    /// Builds training examples by tuning several Spark apps of different
    /// sizes with iTuned, exactly how the original system gathers data.
    fn training_corpus() -> Vec<ParallelismExample> {
        let mut out = Vec::new();
        for (i, input_mb) in [2_048.0, 4_096.0, 8_192.0, 16_384.0, 32_768.0]
            .into_iter()
            .enumerate()
        {
            let mut sim = SparkSimulator::new(
                ClusterSpec::homogeneous(8, NodeSpec::default()),
                SparkApp::aggregation(input_mb),
            )
            .with_noise(NoiseModel::none());
            let mut tuner = ITunedTuner::new();
            let outcome = tune(&mut sim, &mut tuner, 25, i as u64);
            if let Some(ex) =
                ParallelismModel::example_from_session(&sim.profile(), &outcome.history)
            {
                out.push(ex);
            }
        }
        out
    }

    #[test]
    fn model_transfers_to_unseen_app_size() {
        let corpus = training_corpus();
        assert!(corpus.len() >= 4);
        let model = ParallelismModel::train(&corpus);

        // An input size never seen during training.
        let mut sim = SparkSimulator::new(
            ClusterSpec::homogeneous(8, NodeSpec::default()),
            SparkApp::aggregation(12_288.0),
        )
        .with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = ParallelismTuner::new(model);
        let out = tune(&mut sim, &mut tuner, 1, 9);
        let predicted_rt = out.best.unwrap().runtime_secs;
        assert!(
            predicted_rt < default_rt * 0.7,
            "zero-shot prediction should beat defaults: {default_rt} -> {predicted_rt}"
        );
    }

    #[test]
    fn predictions_respect_domains() {
        let corpus = training_corpus();
        let model = ParallelismModel::train(&corpus);
        let sim = SparkSimulator::aggregation_default();
        let cfg = model.predict(sim.space(), &sim.profile(), None);
        assert!(sim.space().validate_config(&cfg).is_ok());
        assert!(cfg.i64("executor_instances") >= 1);
    }

    #[test]
    fn features_scale_with_profile() {
        let small = SystemProfile {
            input_mb: 1_024.0,
            ..SystemProfile::default()
        };
        let big = SystemProfile {
            input_mb: 65_536.0,
            nodes: 16,
            ..SystemProfile::default()
        };
        let fs = app_features(&small, None);
        let fb = app_features(&big, None);
        assert!(fb[1] > fs[1], "input feature grows");
        assert!(fb[4] > fs[4], "core feature grows");
    }

    #[test]
    #[should_panic(expected = "at least 4 training apps")]
    fn tiny_corpus_rejected() {
        let _ = ParallelismModel::train(&[]);
    }
}
