//! Ablations over the design choices DESIGN.md calls out:
//!
//! * acquisition function inside the GP loop (Expected Improvement vs
//!   lower-confidence-bound vs plain predicted-mean vs random),
//! * LHS vs uniform initialization,
//! * Lasso vs ANOVA/PB knob ranking agreement.

use crate::exec::SessionExecutor;
use autotune_core::{tune, Objective, Tuner};
use autotune_sim::{DbmsSimulator, NoiseModel};
use autotune_tuners::experiment::{ITunedTuner, SardTuner};
use autotune_tuners::ml::rank_knobs;
use serde::Serialize;

/// Result of one ablation arm.
#[derive(Debug, Serialize)]
pub struct AblationRow {
    /// Arm label.
    pub arm: String,
    /// Median speedup over `trials` seeds.
    pub median_speedup: f64,
    /// Min / max speedup across seeds.
    pub range: (f64, f64),
}

fn median_speedup(
    make_tuner: impl Fn() -> Box<dyn Tuner> + Sync,
    budget: usize,
    trials: u64,
) -> AblationRow {
    // Each seed's trial is an independent session — fan them out.
    let make_tuner = &make_tuner;
    let speedups = SessionExecutor::from_env().run(
        (0..trials)
            .map(|seed| {
                move || {
                    let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
                    let base = sim.simulate(&sim.space().default_config()).runtime_secs;
                    let mut tuner = make_tuner();
                    let best = tune(&mut sim, tuner.as_mut(), budget, seed)
                        .best
                        .expect("ran")
                        .runtime_secs;
                    base / best
                }
            })
            .collect(),
    );
    let med = autotune_math::stats::median(&speedups);
    let lo = speedups.iter().cloned().fold(f64::MAX, f64::min);
    let hi = speedups.iter().cloned().fold(f64::MIN, f64::max);
    AblationRow {
        arm: String::new(),
        median_speedup: med,
        range: (lo, hi),
    }
}

/// Budget-split / acquisition ablation at a small (18-run) budget: how
/// much of the budget should feed the model vs. stratified coverage?
/// iTuned's own guidance (n0 ≈ 2·dim initialization, which at this budget
/// means *all* stratified coverage) is one arm; GP-heavy splits and plain
/// random search are the others.
pub fn acquisition_ablation(budget: usize, trials: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let mut r = median_speedup(|| Box::new(ITunedTuner::new()), budget, trials);
    r.arm = "iTuned default (n0 = 2*dim: stratification-heavy)".into();
    rows.push(r);

    let mut r = median_speedup(|| Box::new(ITunedTuner::new().with_init(8)), budget, trials);
    r.arm = "iTuned, 8-point init (GP/EI-heavy)".into();
    rows.push(r);

    let mut r = median_speedup(
        // Extreme jitter ≈ pure exploration.
        || Box::new(ITunedTuner::new().with_init(8).with_xi(2.0)),
        budget,
        trials,
    );
    r.arm = "iTuned, 8-point init, xi=2.0".into();
    rows.push(r);

    let mut r = median_speedup(
        || Box::new(autotune_tuners::baselines::RandomSearchTuner),
        budget,
        trials,
    );
    r.arm = "random search (no model)".into();
    rows.push(r);
    rows
}

/// Initialization ablation: LHS vs pure-random bootstrap for iTuned.
pub fn init_ablation(budget: usize, trials: u64) -> Vec<AblationRow> {
    // LHS is iTuned's default; the "uniform" arm replaces the plan with a
    // pure random phase by setting the init budget to 1 (forcing the GP to
    // learn from unstructured points it proposes itself).
    let mut rows = Vec::new();
    let mut r = median_speedup(|| Box::new(ITunedTuner::new().with_init(8)), budget, trials);
    r.arm = "LHS init (8 stratified points)".into();
    rows.push(r);
    let mut r = median_speedup(|| Box::new(ITunedTuner::new().with_init(2)), budget, trials);
    r.arm = "minimal init (2 points, no stratification)".into();
    rows.push(r);
    rows
}

/// Ranking ablation: Lasso-path ranking vs PB main-effect ranking, both
/// scored by top-4 overlap with the OAT ground truth.
pub fn ranking_ablation(seed: u64) -> Vec<AblationRow> {
    let truth = {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        crate::sensitivity::oat_sensitivity(&mut sim)
    };
    let mut rows = Vec::new();

    // Lasso over random samples.
    {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let mut obs = Vec::new();
        for _ in 0..60 {
            let c = sim.space().random_config(&mut rng);
            obs.push(sim.evaluate(&c, &mut rng));
        }
        let refs: Vec<&autotune_core::Observation> = obs.iter().collect();
        let ranking = rank_knobs(sim.space(), &refs);
        let overlap = ranking.top_k_overlap(&truth, 4);
        rows.push(AblationRow {
            arm: "lasso path (60 random samples)".into(),
            median_speedup: overlap,
            range: (overlap, overlap),
        });
    }

    // SARD PB design.
    {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut sard = SardTuner::new(4);
        let runs = SardTuner::design_runs(sim.space().dim());
        let _ = tune(&mut sim, &mut sard, runs + 1, seed);
        let overlap = sard
            .ranking()
            .map(|r| r.top_k_overlap(&truth, 4))
            .unwrap_or(0.0);
        rows.push(AblationRow {
            arm: format!("plackett-burman ({runs} design runs)"),
            median_speedup: overlap,
            range: (overlap, overlap),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisition_arms_ordered_sensibly() {
        let rows = acquisition_ablation(18, 3);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.median_speedup >= 1.0, "{}: no gain", r.arm);
        }
        // iTuned's own budget-split guidance should not lose to the
        // GP-heavy variant at this budget.
        assert!(rows[0].median_speedup * 1.1 >= rows[1].median_speedup);
    }

    #[test]
    fn ranking_arms_produce_overlaps() {
        let rows = ranking_ablation(5);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.median_speedup));
        }
        // Both rankers should find at least one truly-important knob.
        assert!(rows.iter().any(|r| r.median_speedup >= 0.25));
    }
}
