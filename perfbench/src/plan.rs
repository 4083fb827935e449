//! Workload definitions: which sessions each workload runs, derived from
//! the run's seed alone.

use autotune_serve::session::splitmix64;
use autotune_serve::wal::Durability;

/// Evaluations each advance request asks for.
pub const STEPS_PER_REQUEST: usize = 4;

/// The four simulated systems, in a fixed order.
pub const SYSTEMS: [&str; 4] = ["dbms-oltp", "dbms-olap", "hadoop-terasort", "spark-agg"];

/// One tuning session as the client creates it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Target system.
    pub system: &'static str,
    /// Tuner name.
    pub tuner: &'static str,
    /// Session seed.
    pub seed: u64,
    /// Evaluation budget.
    pub budget: usize,
}

impl SessionPlan {
    /// The `POST /sessions` body.
    pub fn spec_json(&self) -> String {
        format!(
            "{{\"system\":\"{}\",\"tuner\":\"{}\",\"seed\":{},\"budget\":{},\
             \"noise\":\"none\",\"warm_start\":false,\"surrogate\":\"auto\"}}",
            self.system, self.tuner, self.seed, self.budget
        )
    }
}

/// Seed of session `index` of a run.
pub fn session_seed(run_seed: u64, index: u64) -> u64 {
    splitmix64(run_seed ^ splitmix64(index))
}

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GP tuners advancing mid-size sessions; propose dominates.
    GpAdvance,
    /// Daemon restart on a crash image; replay dominates.
    Restart,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "gp-advance" => Some(Workload::GpAdvance),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GpAdvance => "gp-advance",
            Workload::Restart => "restart",
        }
    }

    /// Durability the daemon runs with.
    pub fn durability(self) -> Durability {
        match self {
            Workload::GpAdvance => Durability::Flush,
            Workload::Restart => Durability::Fsync,
        }
    }

    /// Measured units of a run of `seconds`: rounds of a steady workload,
    /// restarts of `restart`. The work is set by the run length and the
    /// estimated seconds per unit on a 2-core machine, not by the clock,
    /// so two commits compared on the same seed do the same work.
    pub fn measured_units(self, seconds: u64) -> usize {
        let (unit_s, min) = match self {
            Workload::GpAdvance => (3.5, 2),
            Workload::Restart => (5.0, 4),
        };
        ((seconds as f64 / unit_s).round() as usize).max(min)
    }

    /// Tuner mix, for the provenance record.
    pub fn tuner_mix(self) -> &'static str {
        match self {
            Workload::GpAdvance => "ituned+ottertune",
            Workload::Restart => "ituned (running) + colt (finished)",
        }
    }
}

/// GP budgets of one `gp-advance` round, one per system: every round
/// holds the same mix of systems, tuners and history lengths.
const GP_BUDGETS: [usize; 4] = [64, 80, 96, 112];

/// Sessions of round `round` of `gp-advance`. A round is one unit of
/// measured work: the client drives all of its sessions to their budgets
/// before the next round starts.
pub fn round(run_seed: u64, round: usize) -> Vec<SessionPlan> {
    (0..4)
        .map(|k| SessionPlan {
            system: SYSTEMS[k],
            tuner: if k % 2 == 0 { "ituned" } else { "ottertune" },
            seed: session_seed(run_seed, (round * 4 + k) as u64),
            budget: GP_BUDGETS[k],
        })
        .collect()
}

/// Evaluations a `restart` GP session has done when the crash image is
/// taken.
pub const CRASH_AT: usize = 48;

/// Budget of a `restart` GP session: after the restart each one has this
/// many minus [`CRASH_AT`] evaluations left, and finishes.
pub const RESTART_GP_BUDGET: usize = 80;

/// Budget of a finished `colt` session in the `restart` image.
pub const RESTART_COLT_BUDGET: usize = 512;

/// Sessions in the `restart` crash image: two iTuned sessions per
/// system, stopped at [`CRASH_AT`] evaluations (still running), and two
/// finished `colt` sessions. The GP sessions are iTuned only: across ten
/// seeds an OtterTune session took 0.16-0.55 s to reach 48 evaluations
/// and an iTuned one 0.09-0.14 s, so OtterTune made the image's replay
/// time follow the run's seed rather than the code.
pub fn restart_image(run_seed: u64) -> Vec<SessionPlan> {
    let mut plans: Vec<SessionPlan> = (0..8)
        .map(|k| SessionPlan {
            system: SYSTEMS[k / 2],
            tuner: "ituned",
            seed: session_seed(run_seed, k as u64),
            budget: RESTART_GP_BUDGET,
        })
        .collect();
    plans.extend((0..2).map(|k| SessionPlan {
        system: SYSTEMS[3 - k],
        tuner: "colt",
        seed: session_seed(run_seed, 8 + k as u64),
        budget: RESTART_COLT_BUDGET,
    }));
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_a_function_of_the_seed() {
        assert_eq!(round(7, 2), round(7, 2));
        assert_ne!(round(7, 2), round(8, 2));
        assert_ne!(round(7, 0)[0].seed, round(7, 1)[0].seed);
    }

    #[test]
    fn run_length_sets_the_work() {
        assert_eq!(Workload::GpAdvance.measured_units(20), 6);
        assert_eq!(Workload::GpAdvance.measured_units(1), 2);
        assert_eq!(Workload::Restart.measured_units(20), 4);
    }

    #[test]
    fn rounds_differ_only_in_seeds() {
        let shape = |r| {
            round(1, r)
                .into_iter()
                .map(|p| (p.system, p.tuner, p.budget))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(0), shape(5));
    }

    #[test]
    fn spec_json_is_a_valid_session_spec() {
        for plan in restart_image(3) {
            let spec: autotune_serve::spec::SessionSpec =
                serde_json::from_str(&plan.spec_json()).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.seed, plan.seed);
        }
    }
}
