//! Proof artifact for rule-based search constraints
//! (`SearchConstraints::for_platform`: best-practice seeds plus SPEX
//! dependency projection): do they buy an experiment-driven search
//! anything end to end?
//!
//! For each analytics scenario (dbms-olap, hadoop-terasort, spark-agg),
//! noiseless:
//!
//! 1. Establish a reference optimum: a seeded 3000-point random probe,
//!    plus the best point any tuning arm finds (the reference is the
//!    minimum over everything this experiment evaluates).
//! 2. Run iTuned with and without the constraints over 30 seeds and
//!    record, per run, the best runtime at the budget as a ratio to the
//!    optimum, and the first evaluation whose runtime lands within 1% of
//!    the optimum (censored at `budget + 1` when a run never gets there;
//!    reported, not gated — most runs are censored).
//! 3. Pair the arms by seed. A scenario is a win when the constrained
//!    arm's best is strictly lower on at least 90% of the pairs (27/30);
//!    the constraints must win at least 2 of the 3 scenarios, or [`run`]
//!    panics.

use autotune_core::{tune, Objective};
use autotune_sim::{DbmsSimulator, HadoopSimulator, NoiseModel, SparkSimulator};
use autotune_tuners::experiment::ITunedTuner;
use autotune_tuners::util::SearchConstraints;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// A factory producing a fresh noiseless objective per run.
type MakeObjective = Box<dyn Fn() -> Box<dyn Objective>>;

/// One scenario's paired comparison.
#[derive(Debug, Serialize)]
pub struct ScenarioRow {
    /// Target system.
    pub system: String,
    /// Reference optimum runtime (min over probe + all arms).
    pub optimum: f64,
    /// Per seed, the unconstrained arm's best runtime at the budget over
    /// the optimum.
    pub ratio_unconstrained: Vec<f64>,
    /// Same for the constrained arm (paired by seed).
    pub ratio_constrained: Vec<f64>,
    /// Mean of `ratio_unconstrained`.
    pub mean_ratio_unconstrained: f64,
    /// Mean of `ratio_constrained`.
    pub mean_ratio_constrained: f64,
    /// Seeds whose constrained best is strictly lower than the
    /// unconstrained best.
    pub paired_wins: usize,
    /// Mean evals to land within 1% of the optimum, unconstrained iTuned
    /// (censored runs count as `budget + 1`).
    pub evals_unconstrained: f64,
    /// Same, with the constraints applied.
    pub evals_constrained: f64,
    /// Best runtime found by the unconstrained arm (best seed).
    pub best_unconstrained: f64,
    /// Best runtime found by the constrained arm (best seed).
    pub best_constrained: f64,
    /// Runs (out of `seeds`) where the unconstrained arm never reached
    /// the 1% band.
    pub censored_unconstrained: usize,
    /// Same for the constrained arm.
    pub censored_constrained: usize,
    /// Whether `paired_wins` reaches the 90% bar.
    pub win: bool,
}

/// The whole comparison, as committed in `constrained_search.json`.
#[derive(Debug, Serialize)]
pub struct ConstrainedSearchReport {
    /// Evaluation budget per tuning run.
    pub budget: usize,
    /// Seeds per arm.
    pub seeds: Vec<u64>,
    /// Random-probe size used for the reference optimum.
    pub probe: usize,
    /// Band around the optimum counted as "arrived" (fraction).
    pub tolerance: f64,
    /// One row per scenario.
    pub scenarios: Vec<ScenarioRow>,
    /// Scenarios where the constrained arm won.
    pub wins: usize,
}

/// Share of seed pairs the constrained arm must win for a scenario win.
const PAIRED_WIN_FRACTION: f64 = 0.9;

/// Every per-run history of one arm: the full runtime trajectories, so
/// the metrics can be computed once the reference optimum (a function of
/// *all* arms) is known.
fn run_arm(
    make: &dyn Fn() -> Box<dyn Objective>,
    constraints: Option<&SearchConstraints>,
    budget: usize,
    seeds: &[u64],
) -> Vec<Vec<f64>> {
    seeds
        .iter()
        .map(|&seed| {
            let mut obj = make();
            let mut tuner = ITunedTuner::new();
            if let Some(c) = constraints {
                tuner = tuner.with_constraints(c.clone());
            }
            let out = tune(obj.as_mut(), &mut tuner, budget, seed);
            out.history.all().iter().map(|o| o.runtime_secs).collect()
        })
        .collect()
}

/// First 1-based evaluation index whose runtime is within `tol` of the
/// optimum; `budget + 1` when the run never arrives.
fn evals_to_band(trajectory: &[f64], optimum: f64, tol: f64, budget: usize) -> usize {
    trajectory
        .iter()
        .position(|&rt| rt <= optimum * (1.0 + tol))
        .map(|i| i + 1)
        .unwrap_or(budget + 1)
}

/// Runs both arms on the three scenarios and checks the ≥2-of-3 gate.
///
/// # Panics
/// When the constraints win fewer than 2 of the 3 scenarios.
pub fn run() -> ConstrainedSearchReport {
    let (budget, probe, seeds): (usize, usize, Vec<u64>) = (40, 3000, (1..=30).collect());
    let tolerance = 0.01;

    let systems: Vec<(&str, &str, MakeObjective)> = vec![
        (
            "dbms-olap",
            "dbms",
            Box::new(|| Box::new(DbmsSimulator::olap_default().with_noise(NoiseModel::none()))),
        ),
        (
            "hadoop-terasort",
            "hadoop",
            Box::new(|| {
                Box::new(HadoopSimulator::terasort_default().with_noise(NoiseModel::none()))
            }),
        ),
        (
            "spark-agg",
            "spark",
            Box::new(|| {
                Box::new(SparkSimulator::aggregation_default().with_noise(NoiseModel::none()))
            }),
        ),
    ];

    let mut scenarios = Vec::new();
    for (name, platform, make) in &systems {
        let mut obj = make();
        let constraints = SearchConstraints::for_platform(platform, obj.space())
            .expect("platform has a rule book");

        // Reference probe: seeded uniform random sweep of the full space.
        let mut rng = StdRng::seed_from_u64(7_777);
        let mut optimum = f64::INFINITY;
        for _ in 0..probe {
            let cfg = obj.space().random_config(&mut rng);
            optimum = optimum.min(obj.evaluate(&cfg, &mut rng).runtime_secs);
        }

        let plain = run_arm(make, None, budget, &seeds);
        let constrained = run_arm(make, Some(&constraints), budget, &seeds);
        // The reference optimum is the min over everything evaluated, so
        // "within 1%" means the same thing for both arms.
        for t in plain.iter().chain(&constrained) {
            for &rt in t {
                optimum = optimum.min(rt);
            }
        }

        let mean_evals = |runs: &[Vec<f64>]| {
            runs.iter()
                .map(|t| evals_to_band(t, optimum, tolerance, budget))
                .sum::<usize>() as f64
                / runs.len() as f64
        };
        let censored = |runs: &[Vec<f64>]| {
            runs.iter()
                .filter(|t| evals_to_band(t, optimum, tolerance, budget) > budget)
                .count()
        };
        let best = |runs: &[Vec<f64>]| runs.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
        let ratios = |runs: &[Vec<f64>]| -> Vec<f64> {
            runs.iter()
                .map(|t| t.iter().cloned().fold(f64::INFINITY, f64::min) / optimum)
                .collect()
        };
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (ratio_plain, ratio_constrained) = (ratios(&plain), ratios(&constrained));
        let paired_wins = ratio_plain
            .iter()
            .zip(&ratio_constrained)
            .filter(|(p, c)| c < p)
            .count();
        scenarios.push(ScenarioRow {
            system: name.to_string(),
            optimum,
            mean_ratio_unconstrained: mean(&ratio_plain),
            mean_ratio_constrained: mean(&ratio_constrained),
            ratio_unconstrained: ratio_plain,
            ratio_constrained,
            paired_wins,
            evals_unconstrained: mean_evals(&plain),
            evals_constrained: mean_evals(&constrained),
            best_unconstrained: best(&plain),
            best_constrained: best(&constrained),
            censored_unconstrained: censored(&plain),
            censored_constrained: censored(&constrained),
            win: paired_wins as f64 >= (PAIRED_WIN_FRACTION * seeds.len() as f64).ceil(),
        });
    }

    let wins = scenarios.iter().filter(|r| r.win).count();
    assert!(wins >= 2, "constrained search won only {wins}/3 scenarios");
    ConstrainedSearchReport {
        budget,
        seeds,
        probe,
        tolerance,
        scenarios,
        wins,
    }
}
