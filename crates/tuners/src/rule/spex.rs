//! SPEX-style constraint inference and misconfiguration detection
//! (Xu et al., SOSP 2013 — "Do Not Blame Users for Misconfigurations").
//!
//! SPEX extracts *constraints* over configuration parameters (value
//! ranges, cross-parameter relationships, environment dependencies) and
//! uses them to catch error-prone settings before they take the system
//! down. Here the constraint language covers the cross-knob resource
//! relationships our simulators actually punish, and the checker doubles
//! as a *repair* engine: a tuner that takes any proposed configuration and
//! saturates it into the feasible region.

use autotune_core::{
    ConfigSpace, Configuration, History, ParamValue, SystemProfile, Tuner, TunerFamily,
    TuningContext,
};
use autotune_sim::{dbms::knobs as dbms, hadoop::knobs as hadoop, spark::knobs as spark};
use rand::rngs::StdRng;

/// A cross-parameter constraint.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// Weighted sum of knob values must stay below a fraction of per-node
    /// memory: `Σ weight_i * knob_i ≤ limit_fraction * memory_mb`.
    MemorySum {
        /// (knob, weight) terms.
        terms: Vec<(String, f64)>,
        /// Fraction of per-node memory allowed.
        limit_fraction: f64,
        /// Human explanation.
        why: String,
    },
    /// One knob must be at most `factor` × another knob.
    AtMostFactorOf {
        /// Constrained knob.
        knob: String,
        /// Reference knob.
        of: String,
        /// Allowed factor.
        factor: f64,
        /// Human explanation.
        why: String,
    },
    /// Product of two knobs must not exceed a fraction of a resource
    /// (e.g. slots × heap ≤ node memory).
    ProductUnderMemory {
        /// First knob.
        a: String,
        /// Second knob.
        b: String,
        /// Fraction of per-node memory allowed.
        limit_fraction: f64,
        /// Human explanation.
        why: String,
    },
}

/// A constraint violation found in a configuration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which constraint (rendered).
    pub constraint: String,
    /// Measured left-hand side.
    pub actual: f64,
    /// Allowed limit.
    pub limit: f64,
}

impl Constraint {
    /// Checks a configuration; `None` means satisfied.
    pub fn check(&self, config: &Configuration, profile: &SystemProfile) -> Option<Violation> {
        match self {
            Constraint::MemorySum {
                terms,
                limit_fraction,
                why,
            } => {
                let actual: f64 = terms
                    .iter()
                    .map(|(k, w)| config.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) * w)
                    .sum();
                let limit = profile.memory_per_node_mb * limit_fraction;
                (actual > limit).then(|| Violation {
                    constraint: why.clone(),
                    actual,
                    limit,
                })
            }
            Constraint::AtMostFactorOf {
                knob,
                of,
                factor,
                why,
            } => {
                let a = config.get(knob).and_then(|v| v.as_f64())?;
                let b = config.get(of).and_then(|v| v.as_f64())?;
                let limit = b * factor;
                (a > limit).then(|| Violation {
                    constraint: why.clone(),
                    actual: a,
                    limit,
                })
            }
            Constraint::ProductUnderMemory {
                a,
                b,
                limit_fraction,
                why,
            } => {
                let va = config.get(a).and_then(|v| v.as_f64())?;
                let vb = config.get(b).and_then(|v| v.as_f64())?;
                let actual = va * vb;
                let limit = profile.memory_per_node_mb * limit_fraction;
                (actual > limit).then(|| Violation {
                    constraint: why.clone(),
                    actual,
                    limit,
                })
            }
        }
    }
}

/// Deployment budgets that instantiate the constraint books: how many
/// concurrent sessions charge the per-session memory pools, how many
/// nodes the cluster has, and whether executor overhead is budgeted at
/// its worst case (safety/repair) or its default (search prior).
struct InferBudget {
    sessions: f64,
    nodes: f64,
    worst_case_overhead: bool,
}

/// Inferred constraint set for one system, plus check/repair operations.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint.
    pub fn with(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The constraints themselves (`util::SearchConstraints` turns them
    /// into search-space projections).
    pub fn all(&self) -> &[Constraint] {
        &self.constraints
    }

    /// All violations in a configuration.
    pub fn check(&self, config: &Configuration, profile: &SystemProfile) -> Vec<Violation> {
        self.constraints
            .iter()
            .filter_map(|c| c.check(config, profile))
            .collect()
    }

    /// Repairs a configuration by scaling the offending numeric knobs down
    /// until all constraints pass (up to a fixed point). Returns the
    /// repaired configuration and how many violations were fixed.
    pub fn repair(
        &self,
        space: &ConfigSpace,
        config: &Configuration,
        profile: &SystemProfile,
    ) -> (Configuration, usize) {
        let mut fixed = config.clone();
        let mut repairs = 0;
        for _ in 0..16 {
            let violations = self.check(&fixed, profile);
            if violations.is_empty() {
                break;
            }
            for c in &self.constraints {
                if let Some(v) = c.check(&fixed, profile) {
                    let scale = (v.limit / v.actual).clamp(0.01, 0.95);
                    for knob in constraint_knobs(c) {
                        if let Some(ParamValue::Int(x)) = fixed.get(&knob).cloned() {
                            let new = ((x as f64 * scale).floor() as i64).max(1);
                            let clamped = match &space.spec(&knob) {
                                Some(spec) => match &spec.domain {
                                    autotune_core::ParamDomain::Int { min, max, .. } => {
                                        new.clamp(*min, *max)
                                    }
                                    _ => new,
                                },
                                None => new,
                            };
                            fixed.set(&knob, ParamValue::Int(clamped));
                        }
                    }
                    repairs += 1;
                }
            }
        }
        (fixed, repairs)
    }

    /// "Mines" constraints from a system's knob space and profile — the
    /// SPEX idea of extracting constraints from source/docs, instantiated
    /// for the resource knobs our simulators expose. Deployment-agnostic:
    /// budgets assume a generic busy deployment (64 concurrent DBMS
    /// sessions, 8 worker nodes, worst-case executor overhead).
    pub fn infer_for(space: &ConfigSpace) -> Self {
        Self::infer_with(
            space,
            &InferBudget {
                sessions: 64.0,
                nodes: 8.0,
                worst_case_overhead: true,
            },
        )
    }

    /// Like [`ConstraintSet::infer_for`], but instantiated against an
    /// actual deployment. The constraint *shapes* are identical — only the
    /// budgets change: concurrent-session estimates come from the workload
    /// class and core count (an analytic workload runs ~one heavy query
    /// per core; a transactional one multiplexes many short sessions per
    /// core), the cluster size comes from the profile, and executor
    /// overhead is budgeted at the space's default rather than its
    /// worst case — `util::SearchConstraints` uses these as a search
    /// prior, not an admission check, so they budget the typical config.
    pub fn infer_for_profile(space: &ConfigSpace, profile: &SystemProfile) -> Self {
        use autotune_core::WorkloadClass;
        let cores = profile.cores_per_node.max(1) as f64;
        let sessions = match profile.workload {
            WorkloadClass::Olap | WorkloadClass::Batch | WorkloadClass::Iterative => cores,
            WorkloadClass::Mixed => cores * 2.0,
            WorkloadClass::Oltp | WorkloadClass::Streaming => cores * 8.0,
        };
        Self::infer_with(
            space,
            &InferBudget {
                sessions: sessions.max(1.0),
                nodes: profile.nodes.max(1) as f64,
                worst_case_overhead: false,
            },
        )
    }

    fn infer_with(space: &ConfigSpace, budget: &InferBudget) -> Self {
        let has = |k: &str| space.spec(k).is_some();
        let mut set = ConstraintSet::new();
        // DBMS memory books: the per-session pools are charged once per
        // concurrently active operation — roughly half the sessions sort
        // at once, a quarter touch temp tables.
        if has(dbms::SHARED_BUFFERS_MB) && has(dbms::WORK_MEM_MB) {
            set = set.with(Constraint::MemorySum {
                terms: vec![
                    (dbms::SHARED_BUFFERS_MB.into(), 1.0),
                    (dbms::WORK_MEM_MB.into(), (budget.sessions * 0.5).max(1.0)),
                    (dbms::MAINTENANCE_WORK_MEM_MB.into(), 1.0),
                    (dbms::WAL_BUFFERS_MB.into(), 1.0),
                    (
                        dbms::TEMP_BUFFERS_MB.into(),
                        (budget.sessions * 0.25).max(1.0),
                    ),
                ],
                limit_fraction: 0.9,
                why: "DBMS memory pools must fit in RAM".into(),
            });
        }
        // Hadoop heap books.
        if has(hadoop::IO_SORT_MB) && has(hadoop::MAP_HEAP_MB) {
            set = set.with(Constraint::AtMostFactorOf {
                knob: hadoop::IO_SORT_MB.into(),
                of: hadoop::MAP_HEAP_MB.into(),
                factor: 0.6,
                why: "sort buffer must fit inside the map JVM heap".into(),
            });
        }
        if has(hadoop::MAP_SLOTS) && has(hadoop::MAP_HEAP_MB) {
            set = set.with(Constraint::ProductUnderMemory {
                a: hadoop::MAP_SLOTS.into(),
                b: hadoop::MAP_HEAP_MB.into(),
                limit_fraction: 0.6,
                why: "map slots × heap must fit in node memory".into(),
            });
        }
        if has(hadoop::REDUCE_SLOTS) && has(hadoop::REDUCE_HEAP_MB) {
            set = set.with(Constraint::ProductUnderMemory {
                a: hadoop::REDUCE_SLOTS.into(),
                b: hadoop::REDUCE_HEAP_MB.into(),
                limit_fraction: 0.4,
                why: "reduce slots × heap must fit in node memory".into(),
            });
        }
        // Spark allocation books.
        if has(spark::EXECUTOR_INSTANCES) && has(spark::EXECUTOR_MEMORY_MB) {
            // The cluster manager charges executor memory multiplied by
            // (1 + overhead factor). The safety budget (repair engine)
            // assumes the largest overhead the space allows so no repaired
            // config can overcommit; the prior budget assumes the default
            // overhead, which is what a recommended config actually runs.
            let overhead = space
                .spec(spark::MEMORY_OVERHEAD_FACTOR)
                .and_then(|s| match s.domain {
                    autotune_core::ParamDomain::Float { min: _, max, .. } => {
                        if budget.worst_case_overhead {
                            Some(max)
                        } else {
                            s.default.as_f64()
                        }
                    }
                    _ => None,
                })
                .unwrap_or(0.0);
            set = set.with(Constraint::ProductUnderMemory {
                a: spark::EXECUTOR_INSTANCES.into(),
                b: spark::EXECUTOR_MEMORY_MB.into(),
                limit_fraction: 0.95 * budget.nodes / (1.0 + overhead),
                why: "executors × (memory + overhead) must fit in the cluster".into(),
            });
        }
        if has(spark::BROADCAST_THRESHOLD_MB) && has(spark::EXECUTOR_MEMORY_MB) {
            // Broadcast tables are pinned (deserialized, ~2x) in every
            // executor heap; only a sliver of the heap is safe to promise.
            set = set.with(Constraint::AtMostFactorOf {
                knob: spark::BROADCAST_THRESHOLD_MB.into(),
                of: spark::EXECUTOR_MEMORY_MB.into(),
                factor: 0.1,
                why: "broadcast tables must fit in a sliver of each executor heap".into(),
            });
        }
        set
    }
}

fn constraint_knobs(c: &Constraint) -> Vec<String> {
    match c {
        Constraint::MemorySum { terms, .. } => terms.iter().map(|(k, _)| k.clone()).collect(),
        Constraint::AtMostFactorOf { knob, .. } => vec![knob.clone()],
        // Scale both factors: either alone may be pinned at its domain
        // minimum (e.g. the smallest allowed heap), which would wedge the
        // repair loop.
        Constraint::ProductUnderMemory { a, b, .. } => vec![a.clone(), b.clone()],
    }
}

/// The SPEX tuner: proposes random configurations *repaired* into the
/// feasible region — demonstrating that constraint checking alone removes
/// the catastrophic part of the search space.
#[derive(Debug)]
pub struct SpexTuner {
    constraints: ConstraintSet,
}

impl SpexTuner {
    /// Infers constraints from the space at first use.
    pub fn new(space: &ConfigSpace) -> Self {
        SpexTuner {
            constraints: ConstraintSet::infer_for(space),
        }
    }

    /// The inferred constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }
}

impl Tuner for SpexTuner {
    fn name(&self) -> &str {
        "spex"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::RuleBased
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        _history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let candidate = ctx.space.random_config(rng);
        let (repaired, _) = self
            .constraints
            .repair(&ctx.space, &candidate, &ctx.profile);
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{Objective, SystemProfile};
    use autotune_sim::dbms::dbms_space;
    use autotune_sim::hadoop::hadoop_space;
    use rand::SeedableRng;

    fn dbms_profile() -> SystemProfile {
        SystemProfile {
            memory_per_node_mb: 16384.0,
            ..SystemProfile::default()
        }
    }

    #[test]
    fn detects_dbms_memory_overcommit() {
        let space = dbms_space();
        let set = ConstraintSet::infer_for(&space);
        assert!(!set.is_empty());
        let mut cfg = space.default_config();
        cfg.set("shared_buffers_mb", ParamValue::Int(16384));
        cfg.set("work_mem_mb", ParamValue::Int(1024));
        let violations = set.check(&cfg, &dbms_profile());
        assert!(!violations.is_empty());
        assert!(violations[0].actual > violations[0].limit);
    }

    #[test]
    fn default_config_is_feasible() {
        let space = dbms_space();
        let set = ConstraintSet::infer_for(&space);
        assert!(set
            .check(&space.default_config(), &dbms_profile())
            .is_empty());
    }

    #[test]
    fn repair_restores_feasibility() {
        let space = dbms_space();
        let set = ConstraintSet::infer_for(&space);
        let mut cfg = space.default_config();
        cfg.set("shared_buffers_mb", ParamValue::Int(65536));
        cfg.set("work_mem_mb", ParamValue::Int(4096));
        let (fixed, repairs) = set.repair(&space, &cfg, &dbms_profile());
        assert!(repairs > 0);
        assert!(set.check(&fixed, &dbms_profile()).is_empty());
        assert!(space.validate_config(&fixed).is_ok());
    }

    #[test]
    fn hadoop_sort_buffer_constraint() {
        let space = hadoop_space();
        let set = ConstraintSet::infer_for(&space);
        let mut cfg = space.default_config();
        cfg.set("io_sort_mb", ParamValue::Int(2048));
        cfg.set("map_heap_mb", ParamValue::Int(1024));
        assert!(!set.check(&cfg, &SystemProfile::default()).is_empty());
        let (fixed, _) = set.repair(&space, &cfg, &SystemProfile::default());
        assert!(set.check(&fixed, &SystemProfile::default()).is_empty());
    }

    #[test]
    fn spex_tuner_avoids_failures_random_does_not() {
        use autotune_sim::noise::NoiseModel;
        use autotune_sim::DbmsSimulator;
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut spex = SpexTuner::new(sim.space());
        let out = autotune_core::tune(&mut sim, &mut spex, 30, 5);
        let spex_failures = out.history.all().iter().filter(|o| o.failed).count();

        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut random = crate::baselines::RandomSearchTuner;
        let out = autotune_core::tune(&mut sim, &mut random, 30, 5);
        let random_failures = out.history.all().iter().filter(|o| o.failed).count();

        assert!(
            spex_failures < random_failures || random_failures == 0,
            "spex {spex_failures} vs random {random_failures}"
        );
        assert_eq!(spex_failures, 0, "repaired configs must never OOM");
    }

    #[test]
    fn spex_proposals_are_valid() {
        use autotune_sim::DbmsSimulator;
        let sim = DbmsSimulator::oltp_default();
        let ctx = TuningContext {
            space: sim.space().clone(),
            profile: sim.profile(),
        };
        let mut t = SpexTuner::new(&ctx.space);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let cfg = t.propose(&ctx, &History::new(), &mut rng);
            assert!(ctx.space.validate_config(&cfg).is_ok());
        }
    }
}
