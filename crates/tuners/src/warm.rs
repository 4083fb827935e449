//! Warm-starting tuners from past sessions.
//!
//! OtterTune's defining advantage (§2.2 of the tutorial) is its repository
//! of past tuning sessions: a new session on a familiar workload starts
//! from transferred knowledge instead of a blank slate. This module holds
//! the transfer primitives shared by the GP-based tuners and the
//! `autotune-serve` session repository:
//!
//! * [`best_k_configs`] distils a past observation log into its k best
//!   distinct configurations — seed material for
//!   [`ITunedTuner::with_seed_configs`](crate::experiment::ITunedTuner::with_seed_configs).
//! * [`warm_started_ituned`] / [`warm_started_ottertune`] build the two
//!   GP tuners pre-loaded with a past session's log.

use crate::experiment::ITunedTuner;
use crate::ml::{OtterTuneTuner, WorkloadRepository};
use autotune_core::{Configuration, Observation};

/// The `k` best (lowest-runtime, non-failed) *distinct* configurations of
/// a past observation log, best first. Failed runs never seed a new
/// session; duplicates (re-evaluations of the same point) are collapsed.
pub fn best_k_configs(observations: &[Observation], k: usize) -> Vec<Configuration> {
    let mut ranked: Vec<&Observation> = observations.iter().filter(|o| !o.failed).collect();
    ranked.sort_by(|a, b| a.runtime_secs.total_cmp(&b.runtime_secs));
    let mut out: Vec<Configuration> = Vec::new();
    for o in ranked {
        if out.len() >= k {
            break;
        }
        if !out.contains(&o.config) {
            out.push(o.config.clone());
        }
    }
    out
}

/// An iTuned tuner seeded with the best configurations of a past session:
/// the transferred configs join the initial design right after the vendor
/// default, so the new session re-measures proven settings within its
/// first few evaluations.
pub fn warm_started_ituned(past: &[Observation], seeds: usize) -> ITunedTuner {
    ITunedTuner::new().with_seed_configs(best_k_configs(past, seeds))
}

/// An OtterTune tuner whose repository is pre-loaded with a past session's
/// log under `source_id`: workload mapping finds it immediately, and its
/// observations calibrate the GP from the first model-phase proposal.
pub fn warm_started_ottertune(source_id: &str, past: &[Observation]) -> OtterTuneTuner {
    OtterTuneTuner::new(WorkloadRepository::new()).with_transfer(source_id, past.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, History, Objective, Tuner, TuningContext};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn past_log(n: usize, seed: u64) -> Vec<Observation> {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = vec![sim.evaluate(&sim.space().default_config(), &mut rng)];
        for _ in 1..n {
            let c = sim.space().random_config(&mut rng);
            obs.push(sim.evaluate(&c, &mut rng));
        }
        obs
    }

    #[test]
    fn best_k_skips_failed_and_duplicates() {
        let mut obs = past_log(6, 1);
        obs[0].failed = true;
        obs[0].runtime_secs = 0.0001; // looks unbeatable but failed
        let dup = obs[1].clone();
        obs.push(dup);
        let best = best_k_configs(&obs, 3);
        assert_eq!(best.len(), 3);
        assert!(!best.contains(&obs[0].config), "failed run must not seed");
        let mut distinct = best.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), best.len());
    }

    #[test]
    fn best_k_handles_small_logs() {
        assert!(best_k_configs(&[], 3).is_empty());
        let obs = past_log(2, 2);
        assert_eq!(best_k_configs(&obs, 5).len(), 2);
    }

    #[test]
    fn warm_ituned_reaches_past_best_faster_than_cold() {
        // Seed session: a generous budget finds a good OLTP config.
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let seed_out = tune(&mut sim, &mut ITunedTuner::new(), 25, 11);
        let target = seed_out.best.as_ref().unwrap().runtime_secs * 1.05;
        let evals_to_target = |history: &History| {
            history
                .best_so_far()
                .iter()
                .position(|&r| r <= target)
                .map(|i| i + 1)
        };

        // Warm restart on the same workload.
        let mut sim2 = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut warm = warm_started_ituned(seed_out.history.all(), 2);
        let warm_out = tune(&mut sim2, &mut warm, 12, 12);
        let warm_evals = evals_to_target(&warm_out.history);
        assert!(
            warm_evals.is_some_and(|e| e <= 3),
            "warm start should re-measure the transferred best within the \
             first evaluations; took {warm_evals:?}"
        );
    }

    #[test]
    fn warm_ottertune_maps_to_the_transferred_session() {
        let past = past_log(12, 3);
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
        let mut tuner = warm_started_ottertune("seed-session", &past);
        let out = tune(&mut sim, &mut tuner, 10, 4);
        assert_eq!(tuner.mapped_workload.as_deref(), Some("seed-session"));
        assert!(out.best.is_some());
    }

    #[test]
    fn seed_configs_survive_builder_composition() {
        let seeds = best_k_configs(&past_log(12, 3), 2);
        let mut tuner = ITunedTuner::new()
            .with_seed_configs([seeds[0].clone()])
            .with_seed_configs([seeds[1].clone()]);
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let ctx = TuningContext {
            space: sim.space().clone(),
            profile: sim.profile(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut history = History::new();
        let mut design = Vec::new();
        for _ in 0..3 {
            let cfg = tuner.propose(&ctx, &history, &mut rng);
            history.push(sim.evaluate(&cfg, &mut rng));
            design.push(cfg);
        }
        // Both calls' seeds follow the vendor default, in call order.
        assert_eq!(design[0], ctx.space.default_config());
        assert_eq!(design[1..], seeds[..]);
    }
}
