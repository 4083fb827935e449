//! Session specifications: the JSON body of `POST /sessions` and the
//! factory functions that turn a spec into live objective + tuner objects.
//!
//! The catalog deliberately mirrors the `autotune` CLI (`autotune list`):
//! the same system names resolve to the same simulators, so a session
//! tuned over HTTP is comparable to one tuned at the command line. Only
//! the search tuners that benefit from a service (GP-based and the random
//! baseline) are exposed; one-shot rule/cost tuners have no use for a
//! persistent session.
//!
//! A spec may ask for rule-based search constraints (`"constraints":
//! true`): the session's GP tuner then seeds its initial design from the
//! platform's best-practice rule book and projects candidates onto the
//! SPEX-feasible region, both built in-process. `false` (the default)
//! keeps the unconstrained search and its bit-identical trajectories.

use crate::drift::{DetectorKind, DriftDetector};
use crate::{ServeError, ServeResult};
use autotune_core::{Configuration, Objective, Observation, Tuner};
use autotune_math::surrogate::SurrogateConfig;
use autotune_sim::noise::NoiseModel;
use autotune_sim::{
    ClusterSpec, DbmsSimulator, FlippingObjective, HadoopSimulator, MultiTenantDbms, SparkSimulator,
};
use autotune_tuners::adaptive::{ColtTuner, TempoTuner};
use autotune_tuners::baselines::RandomSearchTuner;
use autotune_tuners::util::SearchConstraints;
use autotune_tuners::warm::{best_k_configs, warm_started_ituned, warm_started_ottertune};
use autotune_tuners::{experiment::ITunedTuner, ml::OtterTuneTuner, ml::WorkloadRepository};
use serde::{Deserialize, Serialize};

/// How many transferred configurations seed a warm-started iTuned session.
pub const WARM_SEED_CONFIGS: usize = 2;

/// Knobs of the adaptive tuner family (`colt` / `tempo`), all optional in
/// request bodies. Defaults match the tuners' own defaults, so a spec
/// without an `adaptive` object behaves exactly like the CLI tuners.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptiveSpec {
    /// COLT: seconds one reconfiguration costs (a trial is adopted only
    /// when its gain exceeds this).
    pub reconfig_cost: f64,
    /// COLT perturbation radius / Tempo reallocation fraction.
    pub step: f64,
}

impl Default for AdaptiveSpec {
    fn default() -> Self {
        AdaptiveSpec {
            reconfig_cost: 0.0,
            step: 0.25,
        }
    }
}

impl Deserialize for AdaptiveSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for AdaptiveSpec"))?;
        let mut spec = AdaptiveSpec::default();
        if let Some((_, rv)) = map.iter().find(|(k, _)| k == "reconfig_cost") {
            spec.reconfig_cost = f64::from_value(rv)?;
        }
        if let Some((_, sv)) = map.iter().find(|(k, _)| k == "step") {
            spec.step = f64::from_value(sv)?;
        }
        Ok(spec)
    }
}

/// Drift-detection settings of a session, all optional in request bodies.
/// The default detector is `"off"`: sessions without a `drift` object keep
/// their pre-drift bit-identical trajectories.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriftSpec {
    /// Detector kind: `off` (default), `ph` (Page–Hinkley), or `cusum`.
    pub detector: String,
    /// Alarm threshold on the detector statistic.
    pub threshold: f64,
    /// Slack term δ: drift magnitude the detector ignores.
    pub delta: f64,
    /// Per-epoch canary probes used to calibrate the baseline signature
    /// distance before the detector arms.
    pub min_obs: usize,
    /// Canary cadence: every `probe_every` evaluations the session spends
    /// one step re-running the vendor-default configuration and feeds
    /// *only* that observation to the detector. Holding the configuration
    /// fixed is what makes the statistic identifiable — trial configs sit
    /// at wildly varying distances from the reference, so feeding every
    /// observation conflates config-induced and workload-induced change.
    pub probe_every: usize,
}

impl Default for DriftSpec {
    fn default() -> Self {
        DriftSpec {
            detector: "off".to_string(),
            threshold: 1.0,
            delta: 0.1,
            min_obs: 1,
            probe_every: 5,
        }
    }
}

impl Deserialize for DriftSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for DriftSpec"))?;
        let mut spec = DriftSpec::default();
        if let Some((_, dv)) = map.iter().find(|(k, _)| k == "detector") {
            spec.detector = String::from_value(dv)?;
        }
        if let Some((_, tv)) = map.iter().find(|(k, _)| k == "threshold") {
            spec.threshold = f64::from_value(tv)?;
        }
        if let Some((_, dv)) = map.iter().find(|(k, _)| k == "delta") {
            spec.delta = f64::from_value(dv)?;
        }
        if let Some((_, mv)) = map.iter().find(|(k, _)| k == "min_obs") {
            spec.min_obs = usize::from_value(mv)?;
        }
        if let Some((_, pv)) = map.iter().find(|(k, _)| k == "probe_every") {
            spec.probe_every = usize::from_value(pv)?;
        }
        Ok(spec)
    }
}

impl DriftSpec {
    /// Whether drift detection is on for this session.
    pub fn is_enabled(&self) -> bool {
        self.detector != "off"
    }

    /// Builds the session's detector (`None` when off); unknown detector
    /// names fail at create time like every other bad spec field.
    pub fn build_detector(&self) -> ServeResult<Option<DriftDetector>> {
        if !self.is_enabled() {
            return Ok(None);
        }
        let kind = DetectorKind::parse(&self.detector).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown drift detector '{}' (expected off|ph|cusum)",
                self.detector
            ))
        })?;
        Ok(Some(DriftDetector::new(
            kind,
            self.threshold,
            self.delta,
            self.min_obs,
        )))
    }
}

/// Everything needed to (re)build one tuning session deterministically.
///
/// The vendored serde derive has no field defaults, so `Deserialize` is
/// hand-written below: every field except `surrogate` is required in
/// request bodies (see README quick-start for examples); a missing
/// `surrogate` reads as `"auto"`, keeping pre-surrogate specs and
/// on-disk `meta.json` files valid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionSpec {
    /// Target system name (`dbms-oltp`, `dbms-olap`, `hadoop-terasort`,
    /// `spark-agg`, `mtdbms-three`, or a mid-run workload flip like
    /// `dbms-flip@20`).
    pub system: String,
    /// Tuner name (`ituned`, `ottertune`, `random`, `colt`, `tempo`).
    pub tuner: String,
    /// RNG seed; same spec + same seed → same recommendation.
    pub seed: u64,
    /// Evaluation budget (tuner-driven runs; the baseline probe is extra).
    pub budget: usize,
    /// Noise model (`none`, `realistic`, `cloud`).
    pub noise: String,
    /// Whether to warm-start from the nearest finished past session.
    pub warm_start: bool,
    /// GP surrogate backend for the model-based tuners
    /// (`exact | sod | nystrom | auto`); ignored by `random`.
    pub surrogate: String,
    /// Whether the GP tuners search under the platform's rule-based
    /// constraints (see `SearchConstraints::for_platform`); ignored by
    /// the other tuners.
    pub constraints: bool,
    /// Adaptive-family tuner knobs; defaults when absent.
    pub adaptive: AdaptiveSpec,
    /// Drift-detection settings; detection off when absent.
    pub drift: DriftSpec,
}

impl Deserialize for SessionSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for SessionSpec"))?;
        let surrogate = match map.iter().find(|(k, _)| k == "surrogate") {
            Some((_, sv)) => String::from_value(sv)?,
            None => "auto".to_string(),
        };
        // Specs written before the field became a bool carry a string:
        // `""` meant unconstrained, and any path named the one committed
        // artifact the in-process constraints now reproduce.
        let constraints = match map.iter().find(|(k, _)| k == "constraints") {
            Some((_, serde::Value::Text(path))) => !path.is_empty(),
            Some((_, cv)) => bool::from_value(cv)?,
            None => false,
        };
        let adaptive = match map.iter().find(|(k, _)| k == "adaptive") {
            Some((_, av)) => AdaptiveSpec::from_value(av)?,
            None => AdaptiveSpec::default(),
        };
        let drift = match map.iter().find(|(k, _)| k == "drift") {
            Some((_, dv)) => DriftSpec::from_value(dv)?,
            None => DriftSpec::default(),
        };
        Ok(SessionSpec {
            system: serde::__field(map, "system", "SessionSpec")?,
            tuner: serde::__field(map, "tuner", "SessionSpec")?,
            seed: serde::__field(map, "seed", "SessionSpec")?,
            budget: serde::__field(map, "budget", "SessionSpec")?,
            noise: serde::__field(map, "noise", "SessionSpec")?,
            warm_start: serde::__field(map, "warm_start", "SessionSpec")?,
            surrogate,
            constraints,
            adaptive,
            drift,
        })
    }
}

impl SessionSpec {
    /// Validates names early so a bad spec fails at create time, not at
    /// first advance.
    pub fn validate(&self) -> ServeResult<()> {
        build_objective(self)?;
        build_tuner(self, None)?;
        self.drift.build_detector()?;
        if self.drift.is_enabled() && self.drift.probe_every < 2 {
            return Err(ServeError::BadRequest(
                "drift.probe_every must be at least 2 (1 would leave no steps for proposals)"
                    .into(),
            ));
        }
        if self.budget == 0 {
            return Err(ServeError::BadRequest("budget must be positive".into()));
        }
        Ok(())
    }

    /// The platform prefix of the system name (`dbms-oltp` → `dbms`):
    /// sessions on the same platform share a knob space, so only they are
    /// eligible warm-start sources for each other.
    pub fn platform(&self) -> &str {
        self.system.split('-').next().unwrap_or(&self.system)
    }

    /// The surrogate configuration this spec names.
    pub fn surrogate_config(&self) -> ServeResult<SurrogateConfig> {
        SurrogateConfig::parse(&self.surrogate).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown surrogate '{}' (expected exact|sod|nystrom|auto)",
                self.surrogate
            ))
        })
    }

    /// The rule-based constraints this spec asks for, or `None` for the
    /// (default) unconstrained search. A platform without a rule book
    /// fails at create time like every other bad spec field.
    pub fn search_constraints(&self) -> ServeResult<Option<SearchConstraints>> {
        if !self.constraints {
            return Ok(None);
        }
        let space = build_objective(self)?.space().clone();
        SearchConstraints::for_platform(self.platform(), &space)
            .map(Some)
            .ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "no constraint support for platform '{}'",
                    self.platform()
                ))
            })
    }
}

/// Resolves the noise-model name (same vocabulary as the CLI `--noise`
/// flag).
pub fn build_noise(name: &str) -> ServeResult<NoiseModel> {
    match name {
        "none" => Ok(NoiseModel::none()),
        "realistic" => Ok(NoiseModel::realistic()),
        "cloud" => Ok(NoiseModel::noisy_cloud()),
        other => Err(ServeError::BadRequest(format!(
            "unknown noise model '{other}' (expected none|realistic|cloud)"
        ))),
    }
}

/// Parses a mid-run workload-flip system name (`dbms-flip@20` →
/// `("dbms", 20)`): the named platform's canonical workload pair with the
/// flip at evaluation index `N`.
pub fn parse_flip_system(system: &str) -> Option<(&str, u64)> {
    let (platform, rest) = system.split_once("-flip@")?;
    let at = rest.parse::<u64>().ok()?;
    Some((platform, at))
}

/// Builds the simulated objective a spec names.
pub fn build_objective(spec: &SessionSpec) -> ServeResult<Box<dyn Objective + Send>> {
    let noise = build_noise(&spec.noise)?;
    if let Some((platform, at)) = parse_flip_system(&spec.system) {
        // Each platform's canonical drift scenario: the first workload
        // flips to a sibling that shares the knob space but stresses the
        // system differently.
        let (before, after): (Box<dyn Objective + Send>, Box<dyn Objective + Send>) = match platform
        {
            "dbms" => (
                Box::new(DbmsSimulator::oltp_default().with_noise(noise)),
                Box::new(DbmsSimulator::olap_default().with_noise(noise)),
            ),
            "hadoop" => (
                Box::new(HadoopSimulator::terasort_default().with_noise(noise)),
                // The batch window changes character entirely: a
                // shuffle-heavy join over 4× the data on a heterogeneous
                // cluster, so the stale terasort model actively misleads.
                Box::new(
                    HadoopSimulator::new(
                        ClusterSpec::heterogeneous(8),
                        autotune_sim::hadoop::HadoopJob::join(131_072.0),
                    )
                    .with_noise(noise),
                ),
            ),
            "spark" => (
                Box::new(SparkSimulator::aggregation_default().with_noise(noise)),
                // Same story for spark: a wide shuffle sort over 4× the
                // data on a heterogeneous cluster replaces the in-memory
                // aggregation.
                Box::new(
                    SparkSimulator::new(
                        ClusterSpec::heterogeneous(8),
                        autotune_sim::spark::SparkApp::sort(131_072.0),
                    )
                    .with_noise(noise),
                ),
            ),
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown flip platform '{other}' (expected dbms|hadoop|spark)"
                )))
            }
        };
        return Ok(Box::new(FlippingObjective::new(before, after, at)));
    }
    Ok(match spec.system.as_str() {
        "dbms-oltp" => Box::new(DbmsSimulator::oltp_default().with_noise(noise)),
        "dbms-olap" => Box::new(DbmsSimulator::olap_default().with_noise(noise)),
        "hadoop-terasort" => Box::new(HadoopSimulator::terasort_default().with_noise(noise)),
        "spark-agg" => Box::new(SparkSimulator::aggregation_default().with_noise(noise)),
        "mtdbms-three" => Box::new(MultiTenantDbms::standard_three_tenants().with_noise(noise)),
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown system '{other}' (expected dbms-oltp|dbms-olap|hadoop-terasort|\
                 spark-agg|mtdbms-three|<platform>-flip@N)"
            )))
        }
    })
}

/// Builds the tuner a spec names, optionally warm-started with a past
/// session's observation log (`(source id, observations)`).
pub fn build_tuner(
    spec: &SessionSpec,
    warm: Option<(&str, &[Observation])>,
) -> ServeResult<Box<dyn Tuner + Send>> {
    let surrogate = spec.surrogate_config()?;
    let constraints = spec.search_constraints()?;
    Ok(match spec.tuner.as_str() {
        "ituned" => {
            let mut t = match warm {
                Some((_, past)) => {
                    warm_started_ituned(past, WARM_SEED_CONFIGS).with_surrogate(surrogate)
                }
                None => ITunedTuner::new().with_surrogate(surrogate),
            };
            if let Some(c) = constraints {
                t = t.with_constraints(c);
            }
            Box::new(t)
        }
        "ottertune" => {
            let mut t = match warm {
                Some((id, past)) => warm_started_ottertune(id, past).with_surrogate(surrogate),
                None => OtterTuneTuner::new(WorkloadRepository::new()).with_surrogate(surrogate),
            };
            if let Some(c) = constraints {
                t = t.with_constraints(c);
            }
            Box::new(t)
        }
        "random" => Box::new(RandomSearchTuner),
        // The adaptive family (§6): online tuners that never stray far
        // from the incumbent. They model-free ignore surrogate and warm
        // observations — a warm source still matters for drift re-matching
        // bookkeeping, but contributes no search state here.
        "colt" => Box::new(
            ColtTuner::new()
                .with_reconfig_cost(spec.adaptive.reconfig_cost)
                .with_step(spec.adaptive.step),
        ),
        "tempo" => Box::new(TempoTuner::new().with_step(spec.adaptive.step)),
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown tuner '{other}' (expected ituned|ottertune|random|colt|tempo)"
            )))
        }
    })
}

/// The configurations a warm source contributes, surfaced for inspection
/// endpoints (what would transfer, without building the tuner).
pub fn warm_preview(past: &[Observation]) -> Vec<Configuration> {
    best_k_configs(past, WARM_SEED_CONFIGS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(system: &str, tuner: &str) -> SessionSpec {
        SessionSpec {
            system: system.into(),
            tuner: tuner.into(),
            seed: 1,
            budget: 5,
            noise: "none".into(),
            warm_start: false,
            surrogate: "auto".into(),
            constraints: false,
            adaptive: AdaptiveSpec::default(),
            drift: DriftSpec::default(),
        }
    }

    #[test]
    fn catalog_matches_cli_names() {
        for sys in ["dbms-oltp", "dbms-olap", "hadoop-terasort", "spark-agg"] {
            for tun in ["ituned", "ottertune", "random"] {
                spec(sys, tun).validate().expect("valid spec");
            }
        }
        assert!(spec("dbms-oltp", "mystery").validate().is_err());
        assert!(spec("mystery", "ituned").validate().is_err());
        assert!(build_noise("cloudy").is_err());
        let mut zero = spec("dbms-oltp", "random");
        zero.budget = 0;
        assert!(zero.validate().is_err());
    }

    #[test]
    fn surrogate_names_validate_and_default() {
        for name in ["exact", "sod", "nystrom", "auto"] {
            let mut s = spec("dbms-oltp", "ituned");
            s.surrogate = name.into();
            s.validate().expect("valid surrogate name");
        }
        let mut bad = spec("dbms-oltp", "ituned");
        bad.surrogate = "krylov".into();
        assert!(bad.validate().is_err());

        // Pre-surrogate request bodies (no `surrogate` key) still parse and
        // read as auto — on-disk meta.json back-compat.
        let legacy = r#"{"system":"dbms-oltp","tuner":"ituned","seed":1,
                         "budget":5,"noise":"none","warm_start":false}"#;
        let s: SessionSpec = serde_json::from_str(legacy).expect("legacy spec");
        assert_eq!(s.surrogate, "auto");
        assert_eq!(s, spec("dbms-oltp", "ituned"));
    }

    #[test]
    fn constraints_field_decodes_bools_and_legacy_strings() {
        let body = |constraints: &str| {
            format!(
                r#"{{"system":"dbms-oltp","tuner":"ituned","seed":1,
                    "budget":5,"noise":"none","warm_start":false{constraints}}}"#
            )
        };
        let decode = |constraints: &str| {
            serde_json::from_str::<SessionSpec>(&body(constraints))
                .expect("spec parses")
                .constraints
        };
        assert!(decode(r#","constraints":true"#));
        assert!(!decode(r#","constraints":false"#));
        // Absent key and the `""` every earlier meta.json carries mean
        // unconstrained; a legacy artifact path means constrained.
        assert!(!decode(""));
        assert!(!decode(r#","constraints":"""#));
        assert!(decode(
            r#","constraints":"bench_results/knob_constraints.json""#
        ));
        assert!(serde_json::from_str::<SessionSpec>(&body(r#","constraints":3"#)).is_err());
        // The bool round-trips.
        let mut s = spec("dbms-oltp", "ituned");
        s.constraints = true;
        let back: SessionSpec =
            serde_json::from_str(&serde_json::to_string(&s).expect("serialize"))
                .expect("deserialize");
        assert_eq!(back, s);
    }

    #[test]
    fn constraints_resolve_per_platform() {
        assert!(spec("dbms-oltp", "ituned")
            .search_constraints()
            .expect("unconstrained")
            .is_none());
        for sys in ["dbms-oltp", "dbms-flip@6", "hadoop-terasort", "spark-agg"] {
            let mut c = spec(sys, "ituned");
            c.constraints = true;
            c.validate().expect("platform has constraints");
            assert!(c.search_constraints().expect("builds").is_some());
        }
        // No rule book for the multi-tenant DBMS: a create-time error.
        let mut bad = spec("mtdbms-three", "ituned");
        bad.constraints = true;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn platform_prefixes() {
        assert_eq!(spec("dbms-oltp", "random").platform(), "dbms");
        assert_eq!(spec("hadoop-terasort", "random").platform(), "hadoop");
        assert_eq!(spec("spark-agg", "random").platform(), "spark");
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec("spark-agg", "ituned");
        let json = serde_json::to_string(&s).expect("serialize");
        let back: SessionSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
    }
}
