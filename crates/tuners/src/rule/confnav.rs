//! ConfNav: knob navigation and impact ranking in the spirit of
//! Xu et al. (ESEC/FSE 2015, "Hey, You Have Given Me Too Many Knobs!").
//!
//! That work shows most exposed knobs are never worth touching and argues
//! for surfacing a small, ranked subset. `ConfNavTuner` reproduces the
//! workflow: a cheap one-at-a-time (OAT) probe of each knob at low /
//! default / high levels, an impact ranking from the observed spreads, and
//! a final configuration assembled from each knob's best probed level —
//! with only the top-ranked knobs moved off their defaults.

use autotune_core::{
    Configuration, History, KnobRanking, Recommendation, Tuner, TunerFamily, TuningContext,
};
use rand::rngs::StdRng;

/// Probe levels in unit-cube coordinates: the low / high settings the
/// one-at-a-time sweep visits for every knob.
const LEVELS: [f64; 2] = [0.15, 0.85];

/// One-at-a-time knob ranking + navigation tuner.
#[derive(Debug)]
pub struct ConfNavTuner {
    /// How many top knobs to move off defaults in the final config.
    pub top_k: usize,
    plan: Vec<(usize, f64)>, // (knob index, level) probes in order
    planned: bool,
}

impl ConfNavTuner {
    /// Creates the tuner; `top_k` knobs will be navigated.
    pub fn new(top_k: usize) -> Self {
        ConfNavTuner {
            top_k: top_k.max(1),
            plan: Vec::new(),
            planned: false,
        }
    }

    /// Total probes this tuner wants: one default run + 2 per knob.
    pub fn probes_needed(dim: usize) -> usize {
        1 + 2 * dim
    }

    /// Builds the ranking from a completed probe history (default run
    /// first, then `LEVELS` per knob in order).
    pub fn ranking(&self, ctx: &TuningContext, history: &History) -> KnobRanking {
        let dim = ctx.space.dim();
        let obs = history.all();
        let mut entries = Vec::with_capacity(dim);
        if obs.is_empty() {
            return KnobRanking::new(entries);
        }
        let default_rt = obs[0].runtime_secs;
        for (i, spec) in ctx.space.params().iter().enumerate() {
            let lo_idx = 1 + 2 * i;
            let hi_idx = lo_idx + 1;
            if hi_idx >= obs.len() {
                entries.push((spec.name.clone(), 0.0));
                continue;
            }
            let lo = obs[lo_idx].runtime_secs;
            let hi = obs[hi_idx].runtime_secs;
            // Impact: the spread this knob alone can cause, relative to
            // the default runtime.
            let spread =
                (lo.max(hi).max(default_rt) - lo.min(hi).min(default_rt)) / default_rt.max(1e-9);
            entries.push((spec.name.clone(), spread));
        }
        KnobRanking::new(entries)
    }

    fn best_levels(&self, ctx: &TuningContext, history: &History) -> Configuration {
        let obs = history.all();
        let mut config = ctx.space.default_config();
        if obs.is_empty() {
            return config;
        }
        let ranking = self.ranking(ctx, history);
        let default_rt = obs[0].runtime_secs;
        for name in ranking.top_k(self.top_k) {
            let Some(i) = ctx.space.index_of(name) else {
                continue; // ranking only names knobs of this space
            };
            let lo_idx = 1 + 2 * i;
            let hi_idx = lo_idx + 1;
            if hi_idx >= obs.len() {
                continue;
            }
            let lo = obs[lo_idx].runtime_secs;
            let hi = obs[hi_idx].runtime_secs;
            let (best_rt, level) = if lo < hi {
                (lo, LEVELS[0])
            } else {
                (hi, LEVELS[1])
            };
            if best_rt < default_rt {
                let spec = &ctx.space.params()[i];
                config.set(name, spec.domain.decode(level));
            }
        }
        config
    }
}

impl Tuner for ConfNavTuner {
    fn name(&self) -> &str {
        "confnav"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::RuleBased
    }

    fn min_history(&self) -> usize {
        3
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        if !self.planned {
            self.plan = (0..ctx.space.dim())
                .flat_map(|i| LEVELS.iter().map(move |&l| (i, l)))
                .collect();
            self.planned = true;
        }
        let step = history.len();
        if step == 0 {
            return ctx.space.default_config(); // baseline probe
        }
        let probe = step - 1;
        if probe < self.plan.len() {
            let (knob, level) = self.plan[probe];
            let mut point = ctx.space.encode(&ctx.space.default_config());
            point[knob] = level;
            return ctx.space.decode(&point);
        }
        // Probing done: propose the navigated configuration.
        self.best_levels(ctx, history)
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let config = self.best_levels(ctx, history);
        let ranking = self.ranking(ctx, history);
        Recommendation {
            config,
            expected_runtime: None,
            rationale: format!(
                "one-at-a-time navigation; top knobs: {}",
                ranking
                    .top_k(self.top_k)
                    .into_iter()
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, ConfigSpace, FunctionObjective, ParamSpec};

    fn objective() -> FunctionObjective<impl FnMut(&[f64]) -> f64> {
        // x0 dominates, optimum near high x0 / low x1; x2 irrelevant.
        let space = ConfigSpace::new(vec![
            ParamSpec::float("big", 0.0, 1.0, 0.5, ""),
            ParamSpec::float("medium", 0.0, 1.0, 0.5, ""),
            ParamSpec::float("noise", 0.0, 1.0, 0.5, ""),
        ]);
        FunctionObjective::new(space, "weighted", |x| {
            10.0 * (1.0 - x[0]) + 2.0 * x[1] + 0.01 * x[2] + 1.0
        })
    }

    #[test]
    fn probes_needed_counts_baseline_plus_two_per_knob() {
        assert_eq!(ConfNavTuner::probes_needed(3), 7);
        assert_eq!(ConfNavTuner::probes_needed(12), 25);
    }

    #[test]
    fn full_workflow_ranks_and_improves() {
        let mut obj = objective();
        let mut t = ConfNavTuner::new(2);
        let probes = ConfNavTuner::probes_needed(3) + 3;
        let out = tune(&mut obj, &mut t, probes, 1);
        // Default runtime: 10*0.5 + 2*0.5 + 0.005 + 1 = 7.005.
        let default_rt = out.history.all()[0].runtime_secs;
        assert!((default_rt - 7.005).abs() < 1e-9);
        // Final proposals should beat the default decisively.
        let best = out.best.unwrap().runtime_secs;
        assert!(best < 3.0, "best={best}");
        assert!(out.recommendation.rationale.contains("big"));
    }

    #[test]
    fn irrelevant_knob_ranked_last() {
        let mut obj = objective();
        let mut t = ConfNavTuner::new(3);
        let probes = ConfNavTuner::probes_needed(3);
        let out = tune(&mut obj, &mut t, probes, 1);
        let ctx = TuningContext {
            space: obj_space(),
            profile: autotune_core::SystemProfile::default(),
        };
        let ranking = t.ranking(&ctx, &out.history);
        assert_eq!(ranking.names()[0], "big");
        assert_eq!(*ranking.names().last().unwrap(), "noise");
    }

    fn obj_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            ParamSpec::float("big", 0.0, 1.0, 0.5, ""),
            ParamSpec::float("medium", 0.0, 1.0, 0.5, ""),
            ParamSpec::float("noise", 0.0, 1.0, 0.5, ""),
        ])
    }
}
