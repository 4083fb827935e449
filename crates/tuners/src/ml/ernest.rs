//! Ernest: efficient performance prediction for large-scale advanced
//! analytics (Venkataraman et al., NSDI 2016).
//!
//! Ernest predicts the runtime of an analytics job at *full* cluster scale
//! from a handful of cheap runs on *small* samples, by fitting a
//! non-negative least squares model over interpretable scale features:
//!
//! `t(s, m) = θ₀ + θ₁·(s/m) + θ₂·log(m) + θ₃·m`
//!
//! (serial term, per-machine parallel work, tree-aggregation depth,
//! all-to-all communication). Non-negativity keeps every term physically
//! meaningful. [`ErnestTuner`] applies the model to right-size
//! `executor_instances` for a Spark application.

use autotune_core::{
    Configuration, History, ParamValue, Recommendation, Tuner, TunerFamily, TuningContext,
};
use autotune_math::linreg::{mape, nnls, LinearFit};
use autotune_math::matrix::Matrix;
use autotune_sim::spark::knobs;
use rand::rngs::StdRng;

/// One training sample: data scale, machine count, measured runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSample {
    /// Fraction of the full input (0, 1].
    pub data_scale: f64,
    /// Machines (executors) used.
    pub machines: f64,
    /// Measured runtime, seconds.
    pub runtime_secs: f64,
}

/// The fitted Ernest model.
#[derive(Debug, Clone)]
pub struct ErnestModel {
    fit: LinearFit,
}

impl ErnestModel {
    /// Feature map `[1, s/m, log2(m), m]`.
    pub fn features(data_scale: f64, machines: f64) -> Vec<f64> {
        let m = machines.max(1.0);
        vec![1.0, data_scale / m, m.log2().max(0.0), m]
    }

    /// Fits the NNLS model to samples.
    ///
    /// # Panics
    /// Panics if fewer than 4 samples are provided (underdetermined).
    pub fn fit(samples: &[ScaleSample]) -> Self {
        assert!(samples.len() >= 4, "Ernest needs at least 4 samples");
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| Self::features(s.data_scale, s.machines))
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = samples.iter().map(|s| s.runtime_secs).collect();
        ErnestModel {
            fit: nnls(&x, &y, 50_000, 1e-10),
        }
    }

    /// Model coefficients `[θ₀, θ₁, θ₂, θ₃]`.
    pub fn coefficients(&self) -> &[f64] {
        &self.fit.weights
    }

    /// Predicted runtime at a scale/machine point.
    pub fn predict(&self, data_scale: f64, machines: f64) -> f64 {
        self.fit.predict(&Self::features(data_scale, machines))
    }

    /// Machine count minimizing predicted runtime at full scale, within
    /// `[1, max_machines]`.
    pub fn best_machines(&self, max_machines: usize) -> usize {
        (1..=max_machines.max(1))
            .min_by(|&a, &b| {
                self.predict(1.0, a as f64)
                    .total_cmp(&self.predict(1.0, b as f64))
            })
            .unwrap_or(1)
    }

    /// Machine count minimizing predicted *cost* (machines × runtime) while
    /// staying within `slowdown_tolerance` of the fastest predicted
    /// runtime — Ernest's cloud-provisioning use case.
    pub fn cheapest_machines(&self, max_machines: usize, slowdown_tolerance: f64) -> usize {
        let best = self.best_machines(max_machines);
        let best_rt = self.predict(1.0, best as f64);
        (1..=max_machines.max(1))
            .filter(|&m| self.predict(1.0, m as f64) <= best_rt * slowdown_tolerance)
            .min_by(|&a, &b| {
                let ca = a as f64 * self.predict(1.0, a as f64);
                let cb = b as f64 * self.predict(1.0, b as f64);
                ca.total_cmp(&cb)
            })
            .unwrap_or(best)
    }

    /// MAPE of the model on hold-out samples.
    pub fn validation_error(&self, samples: &[ScaleSample]) -> f64 {
        let pred: Vec<f64> = samples
            .iter()
            .map(|s| self.predict(s.data_scale, s.machines))
            .collect();
        let actual: Vec<f64> = samples.iter().map(|s| s.runtime_secs).collect();
        mape(&pred, &actual)
    }
}

/// Tuner that right-sizes `executor_instances` with an Ernest model built
/// from a short sweep over machine counts.
#[derive(Debug)]
pub struct ErnestTuner {
    /// Machine counts probed during training.
    pub probe_machines: Vec<i64>,
    model: Option<ErnestModel>,
}

impl Default for ErnestTuner {
    fn default() -> Self {
        ErnestTuner {
            probe_machines: vec![1, 2, 4, 8],
            model: None,
        }
    }
}

impl ErnestTuner {
    /// Creates the tuner with the default probe schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted model, once probing is done.
    pub fn model(&self) -> Option<&ErnestModel> {
        self.model.as_ref()
    }
}

impl Tuner for ErnestTuner {
    fn name(&self) -> &str {
        "ernest"
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
        let step = history.len();
        let base = ctx.space.default_config();
        if step < self.probe_machines.len() {
            let mut c = base;
            c.set(
                knobs::EXECUTOR_INSTANCES,
                ParamValue::Int(self.probe_machines[step]),
            );
            return c;
        }
        if self.model.is_none() {
            let samples: Vec<ScaleSample> = history.all()[..self.probe_machines.len()]
                .iter()
                .zip(&self.probe_machines)
                .map(|(o, &m)| ScaleSample {
                    data_scale: 1.0,
                    machines: m as f64,
                    runtime_secs: o.runtime_secs,
                })
                .collect();
            self.model = Some(ErnestModel::fit(&samples));
        }
        let Some(model) = self.model.as_ref() else {
            return base; // unreachable: fitted above
        };
        let max_m = ctx
            .space
            .spec(knobs::EXECUTOR_INSTANCES)
            .and_then(|s| match s.domain {
                autotune_core::ParamDomain::Int { max, .. } => Some(max as usize),
                _ => None,
            })
            .unwrap_or(32);
        let best = model.best_machines(max_m);
        let mut c = ctx.space.default_config();
        c.set(knobs::EXECUTOR_INSTANCES, ParamValue::Int(best as i64));
        c
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: match &self.model {
                    Some(m) => format!(
                        "Ernest NNLS scale model θ = {:?}",
                        m.coefficients()
                            .iter()
                            .map(|c| (c * 100.0).round() / 100.0)
                            .collect::<Vec<_>>()
                    ),
                    None => "probing incomplete".into(),
                },
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
    use autotune_sim::cluster::{ClusterSpec, NodeSpec};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::spark::{SparkApp, SparkSimulator};

    /// Generates scale samples from the Spark simulator by varying the
    /// executor count and input fraction.
    fn spark_samples(scales: &[f64], machines: &[i64]) -> Vec<ScaleSample> {
        let cluster = ClusterSpec::homogeneous(16, NodeSpec::default());
        let mut out = Vec::new();
        for &s in scales {
            let sim = SparkSimulator::new(cluster.clone(), SparkApp::aggregation(32_768.0 * s))
                .with_noise(NoiseModel::none());
            for &m in machines {
                let mut c = sim.space().default_config();
                c.set("executor_instances", ParamValue::Int(m));
                c.set("executor_cores", ParamValue::Int(2));
                let rt = sim.simulate(&c).runtime_secs;
                out.push(ScaleSample {
                    data_scale: s,
                    machines: m as f64,
                    runtime_secs: rt,
                });
            }
        }
        out
    }

    #[test]
    fn model_extrapolates_to_full_scale() {
        // Train on small scales / few machines; validate at full scale.
        let train = spark_samples(&[0.05, 0.1, 0.2], &[1, 2, 4]);
        let model = ErnestModel::fit(&train);
        let test = spark_samples(&[1.0], &[8, 12]);
        let err = model.validation_error(&test);
        assert!(err < 40.0, "extrapolation MAPE too high: {err}%");
    }

    #[test]
    fn coefficients_nonnegative() {
        let train = spark_samples(&[0.1, 0.3], &[1, 2, 4, 8]);
        let model = ErnestModel::fit(&train);
        for c in model.coefficients() {
            assert!(*c >= 0.0);
        }
    }

    #[test]
    fn best_machines_balances_parallelism_and_overhead() {
        // Synthetic truth: t = 10 + 100/m + 0.5*m → optimum near m = 14.
        let samples: Vec<ScaleSample> = (1..=10)
            .map(|m| ScaleSample {
                data_scale: 1.0,
                machines: m as f64,
                runtime_secs: 10.0 + 100.0 / m as f64 + 0.5 * m as f64,
            })
            .collect();
        let model = ErnestModel::fit(&samples);
        let best = model.best_machines(32);
        assert!((10..=20).contains(&best), "best={best}");
        // Cheapest within 20% slowdown should use fewer machines.
        let cheap = model.cheapest_machines(32, 1.2);
        assert!(cheap <= best);
    }

    #[test]
    fn ernest_tuner_picks_good_executor_count() {
        let cluster = ClusterSpec::homogeneous(16, NodeSpec::default());
        let mut sim = SparkSimulator::new(cluster, SparkApp::aggregation(32_768.0))
            .with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = ErnestTuner::new();
        let out = tune(&mut sim, &mut tuner, 6, 1);
        let best = out.best.unwrap().runtime_secs;
        assert!(best < default_rt, "default={default_rt} ernest={best}");
        assert!(tuner.model().is_some());
    }

    #[test]
    #[should_panic(expected = "at least 4 samples")]
    fn too_few_samples_rejected() {
        let _ = ErnestModel::fit(&[ScaleSample {
            data_scale: 1.0,
            machines: 1.0,
            runtime_secs: 1.0,
        }]);
    }
}
