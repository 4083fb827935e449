//! Shared harness: run a named tuner against a fresh objective and collect
//! the comparison axes Table 1 talks about (speedup, real runs consumed,
//! tuner overhead, failure exposure, robustness to noise).

use autotune_core::{tune, Objective, Tuner};
use autotune_sim::NoiseModel;
use autotune_tuners::adaptive::{ColtTuner, OnlineMemoryTuner};
use autotune_tuners::baselines::RandomSearchTuner;
use autotune_tuners::cost::{SparkCostTuner, StmmTuner, WhatIfTuner};
use autotune_tuners::experiment::{AdaptiveSamplingTuner, ITunedTuner, RrsTuner, SardTuner};
use autotune_tuners::ml::{OtterTuneTuner, RoddTuner, WorkloadRepository};
use autotune_tuners::rule::{dbms_rulebook, hadoop_rulebook, spark_rulebook, RuleBasedTuner};
use autotune_tuners::simulation::{AddmTuner, DistortedShadow, SimulationSearchTuner};
use serde::Serialize;

/// Summary of one tuning session for the comparison tables.
#[derive(Debug, Clone, Serialize)]
pub struct SessionRow {
    /// Tuner name.
    pub tuner: String,
    /// Family (rendered).
    pub family: String,
    /// Best runtime found (seconds).
    pub best_runtime: f64,
    /// Speedup over the objective's default configuration.
    pub speedup: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
    /// Distinct configurations actually run (duplicates replayed).
    pub distinct_runs: usize,
    /// Failed (crashed/OOM) runs the tuner exposed the system to.
    pub failures: usize,
    /// Worst runtime endured during tuning, relative to the default
    /// (risk: how badly did tuning hurt live traffic).
    pub worst_over_default: f64,
}

/// RNG seed for the deterministic default-config baseline evaluation.
pub const BASELINE_SEED: u64 = 0xBA5E;

/// Runs one tuner against one freshly built objective. Returns the row
/// and, beside it, the wall-clock seconds the tuner spent computing: the
/// one measurement that differs run to run, so it stays out of the row.
pub fn run_session(
    make_objective: &dyn Fn() -> Box<dyn Objective>,
    tuner: &mut dyn Tuner,
    budget: usize,
    seed: u64,
) -> (SessionRow, f64) {
    let mut obj = make_objective();
    let baseline = eval_default_baseline(obj.as_mut());
    finish_session(make_objective, tuner, budget, seed, baseline)
}

/// [`run_session`] with the baseline evaluation routed through an
/// [`EvalMemo`](crate::exec::EvalMemo): sessions sharing an objective
/// identity (named by `scope`) replay the recorded baseline instead of
/// re-simulating it. The baseline is pure — fresh objective, fresh RNG
/// seeded with [`BASELINE_SEED`] — so replay is exact and the returned
/// row is identical to [`run_session`]'s.
pub fn run_session_memo(
    make_objective: &dyn Fn() -> Box<dyn Objective>,
    tuner: &mut dyn Tuner,
    budget: usize,
    seed: u64,
    memo: &crate::exec::EvalMemo,
    scope: &str,
) -> (SessionRow, f64) {
    let mut obj = make_objective();
    let default_cfg = obj.space().default_config();
    let baseline = memo.replay_or_eval(scope, BASELINE_SEED, &default_cfg, || {
        eval_default_baseline(obj.as_mut())
    });
    finish_session(make_objective, tuner, budget, seed, baseline)
}

/// Deterministic baseline: the default config evaluated with a fixed RNG.
fn eval_default_baseline(obj: &mut dyn Objective) -> f64 {
    let default_cfg = obj.space().default_config();
    let mut rng = rand::SeedableRng::seed_from_u64(BASELINE_SEED);
    obj.evaluate(&default_cfg, &mut rng).runtime_secs
}

fn finish_session(
    make_objective: &dyn Fn() -> Box<dyn Objective>,
    tuner: &mut dyn Tuner,
    budget: usize,
    seed: u64,
    baseline: f64,
) -> (SessionRow, f64) {
    let mut obj = make_objective();
    let outcome = tune(obj.as_mut(), tuner, budget, seed);
    let best = outcome
        .best
        .as_ref()
        .map(|b| b.runtime_secs)
        .unwrap_or(f64::NAN);
    let distinct: std::collections::BTreeSet<u64> = outcome
        .history
        .all()
        .iter()
        .map(|o| o.config.stable_hash())
        .collect();
    let worst = outcome
        .history
        .runtimes()
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    let row = SessionRow {
        tuner: tuner.name().to_string(),
        family: tuner.family().to_string(),
        best_runtime: best,
        speedup: baseline / best,
        evaluations: outcome.evaluations,
        distinct_runs: distinct.len(),
        failures: outcome.history.all().iter().filter(|o| o.failed).count(),
        worst_over_default: worst / baseline,
    };
    (row, outcome.tuner_overhead_secs)
}

/// The representative tuner of each of the paper's six families for a
/// given system kind, plus the random-search control.
pub fn family_representatives(
    system: autotune_core::SystemKind,
) -> Vec<(&'static str, Box<dyn Tuner>)> {
    use autotune_core::SystemKind::*;
    let rules = match system {
        Dbms => dbms_rulebook(),
        Hadoop => hadoop_rulebook(),
        Spark => spark_rulebook(),
        Other => dbms_rulebook(),
    };
    // Cost models and diagnosers are system-specific (a Table 1 point in
    // itself): each system gets the member of the family built for it.
    let cost: Box<dyn Tuner> = match system {
        Dbms | Other => Box::new(StmmTuner::new()),
        Hadoop => Box::new(WhatIfTuner::new()),
        Spark => Box::new(SparkCostTuner::new()),
    };
    let simulation: Box<dyn Tuner> = match system {
        Dbms | Other => Box::new(AddmTuner::new()),
        Hadoop => {
            let shadow =
                autotune_sim::HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
            let mut t = SimulationSearchTuner::new(DistortedShadow::new(
                move |c: &autotune_core::Configuration| shadow.simulate(c).runtime_secs,
                0.25,
            ));
            t.shadow_budget = 1500;
            Box::new(t)
        }
        Spark => {
            let shadow =
                autotune_sim::SparkSimulator::aggregation_default().with_noise(NoiseModel::none());
            let mut t = SimulationSearchTuner::new(DistortedShadow::new(
                move |c: &autotune_core::Configuration| shadow.simulate(c).runtime_secs,
                0.25,
            ));
            t.shadow_budget = 1500;
            Box::new(t)
        }
    };
    vec![
        (
            "rule-based",
            Box::new(RuleBasedTuner::new("best-practice", rules)) as Box<dyn Tuner>,
        ),
        ("cost-modeling", cost),
        ("simulation-based", simulation),
        ("experiment-driven", Box::new(ITunedTuner::new())),
        (
            "machine-learning",
            Box::new(OtterTuneTuner::new(WorkloadRepository::new())),
        ),
        ("adaptive", Box::new(ColtTuner::new())),
        ("control: random", Box::new(RandomSearchTuner)),
    ]
}

/// The eleven Table 2 DBMS approaches as constructible tuners (those that
/// are tuners; the analysis-only rows are handled by `table2`).
pub fn dbms_tuner_zoo() -> Vec<(&'static str, Box<dyn Tuner>)> {
    vec![
        (
            "rules",
            Box::new(RuleBasedTuner::new("dbms-rules", dbms_rulebook())) as Box<dyn Tuner>,
        ),
        ("stmm", Box::new(StmmTuner::new())),
        ("addm", Box::new(AddmTuner::new())),
        ("sard", Box::new(SardTuner::new(4))),
        ("adaptive-sampling", Box::new(AdaptiveSamplingTuner::new())),
        ("ituned", Box::new(ITunedTuner::new())),
        ("rrs", Box::new(RrsTuner::new())),
        ("rodd-nn", Box::new(RoddTuner::new())),
        (
            "ottertune",
            Box::new(OtterTuneTuner::new(WorkloadRepository::new())),
        ),
        ("colt", Box::new(ColtTuner::new())),
        ("online-memory", Box::new(OnlineMemoryTuner::new())),
    ]
}

/// Noise model used across the comparison experiments.
pub fn standard_noise() -> NoiseModel {
    NoiseModel::realistic()
}

/// Renders rows as an aligned text table, with each row's tuner wall
/// clock from `overheads_secs` (same order) in the `overhead` column.
pub fn render_rows(rows: &[SessionRow], overheads_secs: &[f64]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<18} {:>10} {:>8} {:>6} {:>6} {:>9} {:>8}\n",
        "tuner", "family", "best(s)", "speedup", "runs", "fails", "overhead", "risk"
    ));
    for (r, overhead) in rows.iter().zip(overheads_secs) {
        out.push_str(&format!(
            "{:<22} {:<18} {:>10.0} {:>7.2}x {:>6} {:>6} {:>8.2}s {:>7.2}x\n",
            r.tuner,
            r.family,
            r.best_runtime,
            r.speedup,
            r.distinct_runs,
            r.failures,
            overhead,
            r.worst_over_default,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_sim::DbmsSimulator;

    #[test]
    fn session_row_has_consistent_fields() {
        let make = || {
            Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::none()))
                as Box<dyn Objective>
        };
        let mut tuner = RandomSearchTuner;
        let (row, overhead) = run_session(&make, &mut tuner, 10, 1);
        assert_eq!(row.evaluations, 10);
        assert!(row.distinct_runs <= 10);
        assert!(row.speedup.is_finite());
        assert!(row.worst_over_default >= 1.0 || row.failures == 0);
        assert!(overhead >= 0.0);
    }

    #[test]
    fn representatives_cover_six_families() {
        let reps = family_representatives(autotune_core::SystemKind::Dbms);
        assert_eq!(reps.len(), 7);
        let families: std::collections::HashSet<String> =
            reps.iter().map(|(_, t)| t.family().to_string()).collect();
        assert_eq!(families.len(), 6, "six distinct families expected");
    }

    #[test]
    fn zoo_has_eleven_entries() {
        assert_eq!(dbms_tuner_zoo().len(), 11);
    }

    #[test]
    fn render_contains_headers() {
        let s = render_rows(&[], &[]);
        assert!(s.contains("speedup"));
    }
}
