//! Tuning sessions: the driver loop that connects a [`Tuner`] to an
//! [`Objective`] under a [`Budget`], records history, and produces the
//! final outcome used by examples and the bench harness.

use crate::history::History;
use crate::objective::{Budget, Objective, Observation};
use crate::tuner::{Recommendation, Tuner, TuningContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Result of a completed tuning session.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Final recommendation from the tuner.
    pub recommendation: Recommendation,
    /// Best observation actually measured.
    pub best: Option<Observation>,
    /// Full observation history.
    pub history: History,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// Wall-clock seconds spent inside the session (tuner + objective).
    pub wall_secs: f64,
    /// Wall-clock seconds spent inside tuner proposals only — the tuner's
    /// own overhead, one of the Table 1 comparison axes.
    pub tuner_overhead_secs: f64,
}

impl TuningOutcome {
    /// Speedup of the best found configuration over a baseline runtime
    /// (`baseline / best`); returns 1.0 if nothing was observed or if even
    /// the best observation failed — a failed run's runtime is a timeout
    /// penalty, not a measurement, so no speedup claim can rest on it.
    pub fn speedup_over(&self, baseline_runtime: f64) -> f64 {
        match &self.best {
            Some(b) if !b.failed && b.runtime_secs > 0.0 => baseline_runtime / b.runtime_secs,
            _ => 1.0,
        }
    }
}

/// Drives one tuner against one objective.
pub struct TuningSession<'a> {
    objective: &'a mut dyn Objective,
    tuner: &'a mut dyn Tuner,
    budget: Budget,
    seed: u64,
}

impl<'a> TuningSession<'a> {
    /// Creates a session with the given RNG seed (sessions are fully
    /// deterministic given seed + objective).
    pub fn new(
        objective: &'a mut dyn Objective,
        tuner: &'a mut dyn Tuner,
        budget: Budget,
        seed: u64,
    ) -> Self {
        TuningSession {
            objective,
            tuner,
            budget,
            seed,
        }
    }

    /// Runs the propose → evaluate → observe loop to budget exhaustion.
    pub fn run(self) -> TuningOutcome {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ctx = TuningContext {
            space: self.objective.space().clone(),
            profile: self.objective.profile(),
        };
        let mut history = History::new();
        let mut tuner_secs = 0.0;
        let mut evaluations = 0usize;

        while evaluations < self.budget.max_evaluations {
            let t0 = Instant::now();
            let config = self.tuner.propose(&ctx, &history, &mut rng);
            tuner_secs += t0.elapsed().as_secs_f64();

            // A configuration already measured replays the stored
            // observation instead of re-running; the duplicate still counts
            // against the budget to keep family comparisons honest.
            let obs = match history.find_config(&config) {
                Some(prev) => prev.clone(),
                None => {
                    // Position time-varying objectives at the observation
                    // index before evaluating (no-op for stateless ones).
                    self.objective.seek(history.len() as u64);
                    self.objective.evaluate(&config, &mut rng)
                }
            };
            evaluations += 1;

            let t1 = Instant::now();
            self.tuner.observe(&obs);
            tuner_secs += t1.elapsed().as_secs_f64();
            history.push(obs);
        }

        let t2 = Instant::now();
        let recommendation = self.tuner.recommend(&ctx, &history);
        tuner_secs += t2.elapsed().as_secs_f64();

        TuningOutcome {
            recommendation,
            best: history.best().cloned(),
            history,
            evaluations,
            wall_secs: start.elapsed().as_secs_f64(),
            tuner_overhead_secs: tuner_secs,
        }
    }
}

/// Convenience: run `tuner` against `objective` for `evals` evaluations.
pub fn tune(
    objective: &mut dyn Objective,
    tuner: &mut dyn Tuner,
    evals: usize,
    seed: u64,
) -> TuningOutcome {
    TuningSession::new(objective, tuner, Budget::evaluations(evals), seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use crate::param::ParamSpec;
    use crate::space::{ConfigSpace, Configuration};
    use crate::tuner::{TunerFamily, TuningContext};

    /// Pure random-search tuner used to exercise the session plumbing.
    struct RandomTuner;

    impl Tuner for RandomTuner {
        fn name(&self) -> &str {
            "random"
        }
        fn family(&self) -> TunerFamily {
            TunerFamily::ExperimentDriven
        }
        fn propose(
            &mut self,
            ctx: &TuningContext,
            _history: &History,
            rng: &mut StdRng,
        ) -> Configuration {
            ctx.space.random_config(rng)
        }
    }

    fn sphere_objective() -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        let space = ConfigSpace::new(vec![
            ParamSpec::float("a", 0.0, 1.0, 0.9, ""),
            ParamSpec::float("b", 0.0, 1.0, 0.9, ""),
        ]);
        FunctionObjective::new(space, "sphere", |x| {
            x.iter().map(|v| (v - 0.2) * (v - 0.2)).sum::<f64>() + 1.0
        })
    }

    #[test]
    fn session_respects_budget_and_finds_improvement() {
        let mut obj = sphere_objective();
        let mut tuner = RandomTuner;
        let outcome = tune(&mut obj, &mut tuner, 40, 7);
        assert_eq!(outcome.evaluations, 40);
        assert_eq!(outcome.history.len(), 40);
        let best = outcome.best.as_ref().unwrap();
        // Default config scores (0.7)^2*2 + 1 = 1.98; random search should
        // land well below that in 40 tries.
        assert!(best.runtime_secs < 1.5, "best={}", best.runtime_secs);
        assert_eq!(
            outcome.recommendation.expected_runtime,
            Some(best.runtime_secs)
        );
    }

    #[test]
    fn session_deterministic_under_seed() {
        let run = |seed| {
            let mut obj = sphere_objective();
            let mut tuner = RandomTuner;
            tune(&mut obj, &mut tuner, 15, seed)
                .best
                .unwrap()
                .runtime_secs
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn duplicate_proposals_reuse_observations() {
        struct ConstantTuner;
        impl Tuner for ConstantTuner {
            fn name(&self) -> &str {
                "const"
            }
            fn family(&self) -> TunerFamily {
                TunerFamily::RuleBased
            }
            fn propose(
                &mut self,
                ctx: &TuningContext,
                _h: &History,
                _rng: &mut StdRng,
            ) -> Configuration {
                ctx.space.default_config()
            }
        }
        let space = ConfigSpace::new(vec![ParamSpec::float("a", 0.0, 1.0, 0.5, "")]);
        let mut calls = 0usize;
        let mut obj = FunctionObjective::new(space, "counter", move |_x| {
            calls += 1;
            calls as f64 // would differ per call if re-evaluated
        });
        let mut tuner = ConstantTuner;
        let outcome = tune(&mut obj, &mut tuner, 5, 1);
        // All 5 observations identical because the first was replayed.
        let rts = outcome.history.runtimes();
        assert!(rts.iter().all(|&r| r == rts[0]), "{rts:?}");
    }

    #[test]
    fn speedup_helper() {
        let mut obj = sphere_objective();
        let mut tuner = RandomTuner;
        let outcome = tune(&mut obj, &mut tuner, 20, 3);
        let s = outcome.speedup_over(2.0);
        assert!(s > 1.0);
    }

    #[test]
    fn speedup_ignores_failed_best() {
        let mut obj = sphere_objective();
        let mut tuner = RandomTuner;
        let mut outcome = tune(&mut obj, &mut tuner, 5, 4);
        // An all-failed session must not claim a speedup from the penalty
        // runtime of its least-bad failure.
        let mut failed = outcome.best.clone().unwrap();
        failed.failed = true;
        failed.runtime_secs = 0.001; // absurdly good-looking penalty value
        outcome.best = Some(failed);
        assert_eq!(outcome.speedup_over(100.0), 1.0);
        // And an absent best stays at 1.0 too.
        outcome.best = None;
        assert_eq!(outcome.speedup_over(100.0), 1.0);
    }
}
