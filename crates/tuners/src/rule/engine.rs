//! A typed rule engine for configuration tuning.
//!
//! Rule-based tuning (§2.1 category 1) encodes what human experts, vendor
//! tuning guides, and online checklists say: *"set the buffer pool to 25%
//! of RAM"*, *"enable intermediate compression on shuffle-heavy jobs"*.
//! Rules are conditions over the [`SystemProfile`] plus an action that
//! computes a knob value from the profile; the engine applies every
//! matching rule and clamps results into the knob domain.

use autotune_core::{
    ConfigSpace, Configuration, History, ParamValue, Recommendation, SystemKind, SystemProfile,
    Tuner, TunerFamily, TuningContext, WorkloadClass,
};
use rand::rngs::StdRng;

/// A predicate over the deployment profile.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always applies.
    Always,
    /// Target platform matches.
    SystemIs(SystemKind),
    /// Workload class matches.
    WorkloadIs(WorkloadClass),
    /// At least this many nodes.
    MinNodes(usize),
    /// Per-node memory at least this many MB.
    MinMemoryMb(f64),
    /// Storage is SSD-class (disk bandwidth above threshold MB/s).
    DiskFasterThan(f64),
    /// Input data at least this many MB.
    MinInputMb(f64),
}

impl Condition {
    /// Evaluates the predicate.
    pub fn matches(&self, p: &SystemProfile) -> bool {
        match self {
            Condition::Always => true,
            Condition::SystemIs(k) => p.system == *k,
            Condition::WorkloadIs(w) => p.workload == *w,
            Condition::MinNodes(n) => p.nodes >= *n,
            Condition::MinMemoryMb(m) => p.memory_per_node_mb >= *m,
            Condition::DiskFasterThan(mbps) => p.disk_mbps > *mbps,
            Condition::MinInputMb(m) => p.input_mb >= *m,
        }
    }
}

/// How a rule computes the knob value from the profile.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleValue {
    /// A literal value.
    Literal(ParamValue),
    /// `fraction` of per-node memory, in MB (integer knobs).
    MemFractionMb(f64),
    /// `factor × cores-per-node`, as an integer.
    CoresTimes(f64),
    /// `factor × total cluster cores`, as an integer.
    TotalCoresTimes(f64),
    /// `factor × node count`, as an integer.
    NodesTimes(f64),
}

impl RuleValue {
    /// Computes the concrete value for a profile.
    pub fn compute(&self, p: &SystemProfile) -> ParamValue {
        match self {
            RuleValue::Literal(v) => v.clone(),
            RuleValue::MemFractionMb(f) => {
                ParamValue::Int((p.memory_per_node_mb * f).round().max(1.0) as i64)
            }
            RuleValue::CoresTimes(f) => {
                ParamValue::Int((p.cores_per_node as f64 * f).round().max(0.0) as i64)
            }
            RuleValue::TotalCoresTimes(f) => {
                ParamValue::Int((p.total_cores() as f64 * f).round().max(1.0) as i64)
            }
            RuleValue::NodesTimes(f) => {
                ParamValue::Int((p.nodes as f64 * f).round().max(1.0) as i64)
            }
        }
    }
}

/// One expert rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule identifier (for the audit trail).
    pub name: String,
    /// All conditions must hold.
    pub conditions: Vec<Condition>,
    /// Knob this rule sets.
    pub knob: String,
    /// Value computation.
    pub value: RuleValue,
    /// Why the experts recommend this.
    pub rationale: String,
}

impl Rule {
    /// Builder convenience.
    pub fn new(
        name: &str,
        conditions: Vec<Condition>,
        knob: &str,
        value: RuleValue,
        rationale: &str,
    ) -> Self {
        Rule {
            name: name.to_string(),
            conditions,
            knob: knob.to_string(),
            value,
            rationale: rationale.to_string(),
        }
    }

    /// Whether this rule applies to a profile.
    pub fn applies(&self, p: &SystemProfile) -> bool {
        self.conditions.iter().all(|c| c.matches(p))
    }
}

/// A rule that fired, for the audit trail.
#[derive(Debug, Clone)]
pub struct AppliedRule {
    /// Rule name.
    pub rule: String,
    /// Knob that was set.
    pub knob: String,
    /// Value after domain clamping.
    pub value: ParamValue,
}

/// An ordered rule collection; later rules override earlier ones.
#[derive(Debug, Clone, Default)]
pub struct RuleBook {
    rules: Vec<Rule>,
}

impl RuleBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in application order (later rules override earlier
    /// ones). `util::SearchConstraints` turns them into search seeds.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Applies every matching rule on top of the defaults, clamping values
    /// into each knob's domain. Returns the configuration and the audit
    /// trail of applied rules.
    pub fn apply(
        &self,
        space: &ConfigSpace,
        profile: &SystemProfile,
    ) -> (Configuration, Vec<AppliedRule>) {
        let mut config = space.default_config();
        let mut applied = Vec::new();
        for rule in &self.rules {
            if !rule.applies(profile) {
                continue;
            }
            let Some(spec) = space.spec(&rule.knob) else {
                continue; // rule for a knob this space doesn't expose
            };
            let raw = rule.value.compute(profile);
            // Clamp via encode-after-saturating: decode(encode) of an
            // in-domain value is identity; out-of-range numerics saturate.
            let value = clamp_into_domain(&spec.domain, raw);
            config.set(&rule.knob, value.clone());
            applied.push(AppliedRule {
                rule: rule.name.clone(),
                knob: rule.knob.clone(),
                value,
            });
        }
        (config, applied)
    }
}

/// Saturates a value into a domain (numeric clamp; categorical/bool pass
/// through if valid, else the default-ish first choice).
fn clamp_into_domain(domain: &autotune_core::ParamDomain, value: ParamValue) -> ParamValue {
    use autotune_core::ParamDomain as D;
    match (domain, &value) {
        (D::Int { min, max, .. }, ParamValue::Int(v)) => ParamValue::Int(*v.min(max).max(min)),
        (D::Float { min, max, .. }, ParamValue::Float(v)) => ParamValue::Float(v.clamp(*min, *max)),
        (D::Int { min, max, .. }, ParamValue::Float(v)) => {
            ParamValue::Int((v.round() as i64).clamp(*min, *max))
        }
        (D::Float { min, max, .. }, ParamValue::Int(v)) => {
            ParamValue::Float((*v as f64).clamp(*min, *max))
        }
        (D::Bool, ParamValue::Bool(_)) => value,
        (D::Categorical { choices }, ParamValue::Str(s)) if choices.contains(s) => value,
        (D::Categorical { choices }, _) => ParamValue::Str(choices[0].clone()),
        (D::Bool, _) => ParamValue::Bool(false),
        // Mistyped rule values (e.g. a Bool aimed at an Int knob): keep
        // the knob's default by signalling with the domain midpoint.
        (D::Int { .. } | D::Float { .. }, _) => domain.decode(0.5),
    }
}

/// The rule-based tuner: applies a [`RuleBook`] once and proposes the
/// resulting configuration (the session replays the duplicate proposals).
#[derive(Debug)]
pub struct RuleBasedTuner {
    book: RuleBook,
    label: String,
    last_applied: Vec<AppliedRule>,
}

impl RuleBasedTuner {
    /// Wraps a rule book.
    pub fn new(label: &str, book: RuleBook) -> Self {
        RuleBasedTuner {
            book,
            label: label.to_string(),
            last_applied: Vec::new(),
        }
    }

    /// Audit trail of the last application.
    pub fn applied_rules(&self) -> &[AppliedRule] {
        &self.last_applied
    }
}

impl Tuner for RuleBasedTuner {
    fn name(&self) -> &str {
        &self.label
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::RuleBased
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        _history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        let (config, applied) = self.book.apply(&ctx.space, &ctx.profile);
        self.last_applied = applied;
        config
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let (config, applied) = self.book.apply(&ctx.space, &ctx.profile);
        let expected = history
            .all()
            .iter()
            .find(|o| o.config == config)
            .map(|o| o.runtime_secs);
        Recommendation {
            config,
            expected_runtime: expected,
            rationale: format!(
                "{} expert rules fired: {}",
                applied.len(),
                applied
                    .iter()
                    .map(|a| a.rule.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::ParamSpec;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            ParamSpec::int_log("buffer_mb", 64, 65536, 128, ""),
            ParamSpec::int("workers", 0, 32, 2, ""),
            ParamSpec::boolean("compress", false, ""),
        ])
    }

    fn profile() -> SystemProfile {
        SystemProfile {
            system: SystemKind::Dbms,
            workload: WorkloadClass::Olap,
            memory_per_node_mb: 16384.0,
            cores_per_node: 8,
            nodes: 1,
            disk_mbps: 200.0,
            network_mbps: 1000.0,
            input_mb: 10_000.0,
        }
    }

    #[test]
    fn conditions_evaluate() {
        let p = profile();
        assert!(Condition::Always.matches(&p));
        assert!(Condition::SystemIs(SystemKind::Dbms).matches(&p));
        assert!(!Condition::SystemIs(SystemKind::Spark).matches(&p));
        assert!(Condition::MinMemoryMb(8192.0).matches(&p));
        assert!(!Condition::MinNodes(2).matches(&p));
        assert!(!Condition::DiskFasterThan(300.0).matches(&p));
    }

    #[test]
    fn mem_fraction_rule_fires_and_clamps() {
        let book = RuleBook::new().with(Rule::new(
            "buffer-25pct",
            vec![Condition::SystemIs(SystemKind::Dbms)],
            "buffer_mb",
            RuleValue::MemFractionMb(0.25),
            "classic 25% of RAM guidance",
        ));
        let (cfg, applied) = book.apply(&space(), &profile());
        assert_eq!(cfg.i64("buffer_mb"), 4096);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].rule, "buffer-25pct");
    }

    #[test]
    fn out_of_domain_values_saturate() {
        let book = RuleBook::new().with(Rule::new(
            "huge",
            vec![Condition::Always],
            "buffer_mb",
            RuleValue::MemFractionMb(100.0), // 1.6 TB on a 16 GB box
            "",
        ));
        let (cfg, _) = book.apply(&space(), &profile());
        assert_eq!(cfg.i64("buffer_mb"), 65536, "clamped to domain max");
    }

    #[test]
    fn non_matching_rules_leave_defaults() {
        let book = RuleBook::new().with(Rule::new(
            "spark-only",
            vec![Condition::SystemIs(SystemKind::Spark)],
            "workers",
            RuleValue::CoresTimes(1.0),
            "",
        ));
        let (cfg, applied) = book.apply(&space(), &profile());
        assert!(applied.is_empty());
        assert_eq!(cfg.i64("workers"), 2);
    }

    #[test]
    fn later_rules_override() {
        let book = RuleBook::new()
            .with(Rule::new(
                "a",
                vec![Condition::Always],
                "workers",
                RuleValue::Literal(ParamValue::Int(4)),
                "",
            ))
            .with(Rule::new(
                "b",
                vec![Condition::Always],
                "workers",
                RuleValue::CoresTimes(1.0),
                "",
            ));
        let (cfg, applied) = book.apply(&space(), &profile());
        assert_eq!(cfg.i64("workers"), 8);
        assert_eq!(applied.len(), 2);
    }

    #[test]
    fn rules_for_unknown_knobs_skipped() {
        let book = RuleBook::new().with(Rule::new(
            "alien",
            vec![Condition::Always],
            "no_such_knob",
            RuleValue::Literal(ParamValue::Int(1)),
            "",
        ));
        let (cfg, applied) = book.apply(&space(), &profile());
        assert!(applied.is_empty());
        assert!(space().validate_config(&cfg).is_ok());
    }

    #[test]
    fn tuner_proposes_rule_config() {
        use rand::SeedableRng;
        let book = RuleBook::new().with(Rule::new(
            "c",
            vec![Condition::Always],
            "compress",
            RuleValue::Literal(ParamValue::Bool(true)),
            "",
        ));
        let mut t = RuleBasedTuner::new("rules", book);
        let ctx = TuningContext {
            space: space(),
            profile: profile(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = t.propose(&ctx, &History::new(), &mut rng);
        assert!(cfg.bool("compress"));
        assert_eq!(t.applied_rules().len(), 1);
        let rec = t.recommend(&ctx, &History::new());
        assert!(rec.rationale.contains('c'));
    }
}
