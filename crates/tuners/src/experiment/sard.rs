//! SARD: Statistical Approach for Ranking Database parameters
//! (Debnath, Lilja & Mokbel, ICDE Workshops 2008).
//!
//! SARD runs a Plackett–Burman two-level screening design over the knobs
//! and ranks them by main-effect magnitude — with `n` knobs screened in
//! roughly `n + 1` real runs instead of `2^n`. The tuner then spends any
//! remaining budget searching only the top-ranked knobs (the standard
//! SARD-then-search pipeline).

use autotune_core::{
    Configuration, History, KnobRanking, Recommendation, Tuner, TunerFamily, TuningContext,
};
use autotune_math::design::TwoLevelDesign;
use rand::rngs::StdRng;
use rand::RngExt;

/// Unit-cube coordinates for the two PB levels (kept interior so integer
/// knobs land on distinct values).
const LOW: f64 = 0.15;
const HIGH: f64 = 0.85;

/// The SARD tuner.
#[derive(Debug)]
pub struct SardTuner {
    design: Option<TwoLevelDesign>,
    /// Knobs to keep for the search phase.
    pub top_k: usize,
    ranking: Option<KnobRanking>,
}

impl SardTuner {
    /// Creates a SARD tuner that searches the `top_k` ranked knobs.
    pub fn new(top_k: usize) -> Self {
        SardTuner {
            design: None,
            top_k: top_k.max(1),
            ranking: None,
        }
    }

    /// Number of design runs needed for a space of `dim` knobs.
    pub fn design_runs(dim: usize) -> usize {
        autotune_math::design::pb_runs_for(dim).unwrap_or(24)
    }

    /// The knob ranking, once the screening phase is complete.
    pub fn ranking(&self) -> Option<&KnobRanking> {
        self.ranking.as_ref()
    }

    /// Computes the ranking from completed design runs.
    pub fn compute_ranking(
        design: &TwoLevelDesign,
        ctx: &TuningContext,
        history: &History,
    ) -> KnobRanking {
        let runs = design.runs().min(history.len());
        let responses: Vec<f64> = history.all()[..runs]
            .iter()
            .map(|o| o.runtime_secs)
            .collect();
        // If the design is not complete, rank what we have (padded with
        // the mean so effects of unseen runs cancel).
        let mean = autotune_math::stats::mean(&responses);
        let mut padded = responses;
        padded.resize(design.runs(), mean);
        let effects = design.main_effects(&padded);
        KnobRanking::new(
            ctx.space
                .params()
                .iter()
                .zip(&effects)
                .map(|(p, e)| (p.name.clone(), e.abs()))
                .collect(),
        )
    }
}

impl Tuner for SardTuner {
    fn name(&self) -> &str {
        "sard"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::ExperimentDriven
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let dim = ctx.space.dim();
        if self.design.is_none() {
            self.design = TwoLevelDesign::plackett_burman(dim);
        }
        let Some(design) = self.design.as_ref() else {
            // No Plackett-Burman generator covers this dimensionality;
            // degrade to random search instead of panicking mid-benchmark.
            return ctx.space.random_config(rng);
        };
        let step = history.len();
        if step < design.runs() {
            // Screening phase: run the design rows in order.
            let point = design.run_to_unit(step, LOW, HIGH);
            return ctx.space.decode(&point);
        }
        // Search phase: random search restricted to the top-k knobs, the
        // rest pinned at the best design run's values.
        if self.ranking.is_none() {
            self.ranking = Some(Self::compute_ranking(design, ctx, history));
        }
        let Some(ranking) = self.ranking.as_ref() else {
            return ctx.space.random_config(rng); // unreachable: assigned above
        };
        let top: Vec<&str> = ranking.top_k(self.top_k);
        let base = history
            .best()
            .map(|o| o.config.clone())
            .unwrap_or_else(|| ctx.space.default_config());
        let mut point = ctx.space.encode(&base);
        // Shrinking local search on the important knobs: early proposals
        // explore their full range, later ones refine around the incumbent.
        let search_step = step - design.runs();
        let progress = (search_step as f64 / 30.0).min(1.0);
        let radius = 1.0 - 0.9 * progress;
        for name in top {
            let Some(idx) = ctx.space.index_of(name) else {
                continue; // ranking only names knobs of this space
            };
            let center = point[idx];
            point[idx] = if radius >= 1.0 {
                rng.random_range(0.0..1.0)
            } else {
                (center + rng.random_range(-radius..radius)).clamp(0.0, 1.0)
            };
        }
        ctx.space.decode(&point)
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let rationale = match &self.ranking {
            Some(r) => format!(
                "PB screening over {} knobs; most impactful: {}",
                ctx.space.dim(),
                r.top_k(self.top_k).join(", ")
            ),
            None => "screening incomplete".to_string(),
        };
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale,
            },
            None => Recommendation {
                config: ctx.space.default_config(),
                expected_runtime: None,
                rationale,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, ConfigSpace, FunctionObjective, Objective, ParamSpec};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;

    fn weighted_objective() -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        // Knob importance: w0 >> w1 >> others ~ 0.
        let space = ConfigSpace::new(
            (0..6)
                .map(|i| ParamSpec::float(&format!("k{i}"), 0.0, 1.0, 0.5, ""))
                .collect(),
        );
        FunctionObjective::new(space, "weighted", |x| {
            20.0 * x[0] + 5.0 * x[1] + 0.1 * x[2] + 0.05 * x[3] + 10.0
        })
    }

    #[test]
    fn ranking_identifies_dominant_knobs() {
        let mut obj = weighted_objective();
        let mut tuner = SardTuner::new(2);
        let runs = SardTuner::design_runs(6);
        let out = tune(&mut obj, &mut tuner, runs + 1, 1);
        let ranking = tuner.ranking().expect("ranking computed");
        assert_eq!(ranking.names()[0], "k0");
        assert_eq!(ranking.names()[1], "k1");
        // The irrelevant knobs should rank clearly below.
        assert!(ranking.importance("k0") > 10.0 * ranking.importance("k4"));
        let _ = out;
    }

    #[test]
    fn screening_uses_exactly_design_runs() {
        assert_eq!(SardTuner::design_runs(6), 8);
        assert_eq!(SardTuner::design_runs(12), 16);
        let mut obj = weighted_objective();
        let mut tuner = SardTuner::new(2);
        let out = tune(&mut obj, &mut tuner, 8, 2);
        // All 8 proposals are design rows (two-level points).
        for obs in out.history.all() {
            for (_, v) in obs.config.iter() {
                let f = v.as_f64().unwrap();
                assert!(
                    (f - 0.15).abs() < 1e-9 || (f - 0.85).abs() < 1e-9,
                    "non-design level {f}"
                );
            }
        }
    }

    #[test]
    fn search_phase_improves_over_screening() {
        let mut obj = weighted_objective();
        let mut tuner = SardTuner::new(2);
        let runs = SardTuner::design_runs(6);
        let screening_only = tune(&mut obj, &mut tuner, runs, 3)
            .best
            .unwrap()
            .runtime_secs;
        let mut obj = weighted_objective();
        let mut tuner = SardTuner::new(2);
        let with_search = tune(&mut obj, &mut tuner, runs + 50, 3)
            .best
            .unwrap()
            .runtime_secs;
        assert!(with_search <= screening_only);
        // Optimum is 10.0 (x0 = x1 = 0); screening alone bottoms out at
        // 20*0.15 + 5*0.15 + ... ≈ 13.8.
        assert!(
            with_search < 12.0,
            "search should approach the optimum: {with_search}"
        );
    }

    #[test]
    fn sard_ranks_dbms_memory_knobs_highly() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let mut tuner = SardTuner::new(3);
        let runs = SardTuner::design_runs(sim.space().dim());
        let _ = tune(&mut sim, &mut tuner, runs + 1, 5);
        let ranking = tuner.ranking().expect("ranked");
        let top4: Vec<&str> = ranking.top_k(4);
        assert!(
            top4.contains(&"work_mem_mb") || top4.contains(&"shared_buffers_mb"),
            "memory knobs should rank near the top: {top4:?}"
        );
    }
}
