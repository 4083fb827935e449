//! ADDM-style automatic performance diagnosis (Dias et al., CIDR 2005:
//! "Automatic Performance Diagnosis and Tuning in Oracle").
//!
//! ADDM attributes database time ("DB time") to wait/consumption
//! categories using an internal DAG model of the system, ranks findings by
//! time impact, and attaches concrete tuning recommendations to each. This
//! module reproduces the workflow against the simulated DBMS's metric
//! vocabulary: each [`Finding`] names the implicated component, its time
//! impact, and the knob adjustment that addresses it; [`AddmTuner`]
//! applies the top finding each round — diagnosis-driven iterative tuning.

use autotune_core::{
    Configuration, History, Observation, ParamValue, Recommendation, Tuner, TunerFamily,
    TuningContext,
};
use rand::rngs::StdRng;

/// A knob adjustment attached to a finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Adjustment {
    /// Multiply an integer knob by a factor (clamped into its domain).
    Scale {
        /// Knob name.
        knob: String,
        /// Multiplier.
        factor: f64,
    },
    /// Set a knob to a specific value.
    Set {
        /// Knob name.
        knob: String,
        /// New value.
        value: ParamValue,
    },
}

impl Adjustment {
    /// Applies the adjustment to a configuration, clamping into domain.
    pub fn apply(&self, space: &autotune_core::ConfigSpace, config: &mut Configuration) {
        match self {
            Adjustment::Scale { knob, factor } => {
                let Some(spec) = space.spec(knob) else { return };
                if let (
                    Some(ParamValue::Int(v)),
                    autotune_core::ParamDomain::Int { min, max, .. },
                ) = (config.get(knob).cloned(), &spec.domain)
                {
                    let new = ((v as f64 * factor).round() as i64).clamp(*min, *max);
                    config.set(knob, ParamValue::Int(new));
                }
            }
            Adjustment::Set { knob, value } => {
                if space.spec(knob).is_some() {
                    config.set(knob, value.clone());
                }
            }
        }
    }
}

/// One ranked diagnosis.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Component at fault, e.g. `"buffer pool"`.
    pub component: String,
    /// Estimated share of run time attributable (seconds).
    pub impact_secs: f64,
    /// What to do about it.
    pub adjustments: Vec<Adjustment>,
    /// Human-readable diagnosis.
    pub diagnosis: String,
}

/// Diagnoses a DBMS observation into ranked findings.
///
/// Metric names follow `autotune-sim`'s DBMS engine (a real deployment
/// would read the wait-event interface).
pub fn diagnose_dbms(obs: &Observation) -> Vec<Finding> {
    let m = &obs.metrics;
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut findings = Vec::new();

    // Memory overcommit dominates everything when present.
    if get("mem_overcommit") > 1.0 {
        findings.push(Finding {
            component: "memory".into(),
            impact_secs: obs.runtime_secs * 0.8,
            adjustments: vec![
                Adjustment::Scale {
                    knob: "shared_buffers_mb".into(),
                    factor: 0.5,
                },
                Adjustment::Scale {
                    knob: "work_mem_mb".into(),
                    factor: 0.5,
                },
            ],
            diagnosis: "configured memory exceeds physical RAM; the server is swapping".into(),
        });
    }
    let rand_secs = get("io_rand_secs");
    if rand_secs > 0.0 {
        findings.push(Finding {
            component: "buffer pool".into(),
            impact_secs: rand_secs * (1.0 - get("buffer_hit_ratio")),
            adjustments: vec![Adjustment::Scale {
                knob: "shared_buffers_mb".into(),
                factor: 2.0,
            }],
            diagnosis: format!(
                "random reads spend {rand_secs:.1}s at hit ratio {:.2}; grow the buffer pool",
                get("buffer_hit_ratio")
            ),
        });
    }
    let spills = get("sort_spills") + get("hash_spills");
    if spills > 0.0 {
        findings.push(Finding {
            component: "sort/hash memory".into(),
            impact_secs: get("temp_files_mb") / 200.0, // I/O time of temp traffic
            adjustments: vec![Adjustment::Scale {
                knob: "work_mem_mb".into(),
                factor: 4.0,
            }],
            diagnosis: format!("{spills:.0} operators spilled to disk; grow work_mem"),
        });
    }
    let burst = get("checkpoint_burst_secs");
    if burst > 0.0 {
        findings.push(Finding {
            component: "checkpointing".into(),
            impact_secs: burst,
            adjustments: vec![
                Adjustment::Scale {
                    knob: "checkpoint_timeout_s".into(),
                    factor: 2.0,
                },
                Adjustment::Scale {
                    knob: "bgwriter_delay_ms".into(),
                    factor: 0.5,
                },
            ],
            diagnosis: "checkpoint write bursts stall foreground I/O".into(),
        });
    }
    let locks = get("lock_wait_secs");
    if locks > 0.0 {
        findings.push(Finding {
            component: "locking".into(),
            impact_secs: locks,
            adjustments: vec![Adjustment::Scale {
                knob: "deadlock_timeout_ms".into(),
                factor: 2.0,
            }],
            diagnosis: "sessions wait on locks; raise deadlock detection timeout".into(),
        });
    }
    if get("plan_quality") < 0.9 && get("plan_quality") > 0.0 {
        findings.push(Finding {
            component: "query planner".into(),
            impact_secs: obs.runtime_secs * (1.0 - get("plan_quality")) * 0.5,
            adjustments: vec![Adjustment::Set {
                knob: "default_statistics_target".into(),
                value: ParamValue::Int(250),
            }],
            diagnosis: "plans deviate from optimal; collect richer statistics".into(),
        });
    }
    findings.sort_by(|a, b| b.impact_secs.total_cmp(&a.impact_secs));
    findings
}

/// The ADDM tuner: run → diagnose → apply top finding → repeat.
#[derive(Debug, Default)]
pub struct AddmTuner {
    current: Option<Configuration>,
    /// Findings produced in the last diagnosis (for reporting).
    pub last_findings: Vec<String>,
}

impl AddmTuner {
    /// Creates the tuner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tuner for AddmTuner {
    fn name(&self) -> &str {
        "addm"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::SimulationBased
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        history: &History,
        rng: &mut StdRng,
    ) -> Configuration {
        let Some(best) = history.best() else {
            let d = ctx.space.default_config();
            self.current = Some(d.clone());
            return d;
        };
        // Diagnose the best run so far and apply its findings in impact
        // order, skipping any adjustment whose resulting configuration was
        // already measured (otherwise a finding the system cannot act on —
        // e.g. statistics already collected — wedges the loop).
        let base = best.config.clone();
        let findings = diagnose_dbms(best);
        self.last_findings = findings.iter().map(|f| f.diagnosis.clone()).collect();
        for finding in &findings {
            let mut next = base.clone();
            for adj in &finding.adjustments {
                adj.apply(&ctx.space, &mut next);
            }
            if history.find_config(&next).is_none() {
                self.current = Some(next.clone());
                return next;
            }
        }
        // Every diagnosis exhausted: local refinement around the best.
        let next = ctx.space.neighbor(&base, 0.05, 0.3, rng);
        self.current = Some(next.clone());
        next
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        match history.best() {
            Some(b) => Recommendation {
                config: b.config.clone(),
                expected_runtime: Some(b.runtime_secs),
                rationale: format!(
                    "diagnosis-driven tuning; last findings: {}",
                    self.last_findings.join(" | ")
                ),
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
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;
    use rand::SeedableRng;

    fn observe(sim: &DbmsSimulator, cfg: &Configuration) -> Observation {
        let run = sim.simulate(cfg);
        Observation {
            config: cfg.clone(),
            runtime_secs: run.runtime_secs,
            cost: run.runtime_secs,
            metrics: run.metrics,
            failed: run.failed,
        }
    }

    #[test]
    fn diagnoses_low_hit_ratio_on_defaults() {
        let sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let obs = observe(&sim, &sim.space().default_config());
        let findings = diagnose_dbms(&obs);
        assert!(!findings.is_empty());
        let components: Vec<&str> = findings.iter().map(|f| f.component.as_str()).collect();
        assert!(components.contains(&"buffer pool"), "{components:?}");
        assert!(components.contains(&"sort/hash memory"), "{components:?}");
    }

    #[test]
    fn diagnoses_swap_as_top_finding() {
        let sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let mut cfg = sim.space().default_config();
        cfg.set("shared_buffers_mb", ParamValue::Int(8192));
        cfg.set("work_mem_mb", ParamValue::Int(400));
        let obs = observe(&sim, &cfg);
        let findings = diagnose_dbms(&obs);
        assert_eq!(findings[0].component, "memory");
    }

    #[test]
    fn findings_ranked_by_impact() {
        let sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let obs = observe(&sim, &sim.space().default_config());
        let findings = diagnose_dbms(&obs);
        for w in findings.windows(2) {
            assert!(w[0].impact_secs >= w[1].impact_secs);
        }
    }

    #[test]
    fn addm_tuner_improves_iteratively() {
        let mut sim = DbmsSimulator::olap_default().with_noise(NoiseModel::none());
        let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
        let mut tuner = AddmTuner::new();
        let out = tune(&mut sim, &mut tuner, 10, 1);
        let best = out.best.unwrap().runtime_secs;
        assert!(best < default_rt * 0.7, "default={default_rt} addm={best}");
        // Convergence curve should be (weakly) improving.
        let curve = out.history.best_so_far();
        assert!(curve.last().unwrap() <= &curve[0]);
    }

    #[test]
    fn adjustments_respect_domains() {
        let sim = DbmsSimulator::oltp_default();
        let space = sim.space();
        let mut cfg = space.default_config();
        let adj = Adjustment::Scale {
            knob: "shared_buffers_mb".into(),
            factor: 1e9,
        };
        adj.apply(space, &mut cfg);
        assert!(space.validate_config(&cfg).is_ok());
        assert_eq!(cfg.i64("shared_buffers_mb"), 65536);
    }

    #[test]
    fn proposals_always_valid() {
        let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::none());
        let ctx = TuningContext {
            space: sim.space().clone(),
            profile: sim.profile(),
        };
        let mut tuner = AddmTuner::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut history = History::new();
        for _ in 0..6 {
            let cfg = tuner.propose(&ctx, &history, &mut rng);
            assert!(ctx.space.validate_config(&cfg).is_ok());
            history.push(sim.evaluate(&cfg, &mut rng));
        }
    }
}
