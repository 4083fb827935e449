//! Shared helpers for tuner implementations: candidate-pool generation,
//! penalized objective extraction from history, and the rule-based search
//! constraints. The Gaussian-process surrogate cache and the EI step live
//! in the GP-BO engine (`crate::bo`).

use crate::rule::spex::Constraint as SpexConstraint;
use crate::rule::{dbms_rulebook, hadoop_rulebook, spark_rulebook, ConstraintSet, RuleBook};
use autotune_core::{
    ConfigSpace, Configuration, History, Objective, ParamDomain, ParamValue, SystemProfile,
};
use autotune_sim::{DbmsSimulator, HadoopSimulator, SparkSimulator};
use rand::rngs::StdRng;
use rand::RngExt;

/// Generates a candidate pool in the unit cube: uniform random points plus
/// Gaussian-ish perturbations of `anchors` (typically the best configs so
/// far). Standard acquisition-maximization pool for iTuned/OtterTune.
pub fn candidate_pool(
    dim: usize,
    n_random: usize,
    anchors: &[Vec<f64>],
    per_anchor: usize,
    radius: f64,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut pool = Vec::with_capacity(n_random + anchors.len() * per_anchor);
    for _ in 0..n_random {
        pool.push((0..dim).map(|_| rng.random_range(0.0..1.0)).collect());
    }
    for anchor in anchors {
        for _ in 0..per_anchor {
            pool.push(
                anchor
                    .iter()
                    .map(|&v| (v + rng.random_range(-radius..radius)).clamp(0.0, 1.0))
                    .collect(),
            );
        }
    }
    pool
}

/// A pairwise/linear dependency with knob names resolved to dimension
/// indices of one concrete space.
#[derive(Debug, Clone)]
enum ResolvedDep {
    /// `raw[a] <= factor * raw[b]`.
    LeFactor { a: usize, b: usize, factor: f64 },
    /// `Π raw[i]^1 * weight_i ... <= limit` (weights multiply each term).
    ProductLe {
        terms: Vec<(usize, f64)>,
        limit: f64,
    },
    /// `Σ weight_i * raw[i] <= limit`.
    SumLe {
        terms: Vec<(usize, f64)>,
        limit: f64,
    },
}

/// Rule-based knowledge (paper §2.1) applied to an experiment-driven
/// search: the platform's best-practice rule book and SPEX constraint
/// inference, evaluated in-process against its canonical deployment
/// profiles and resolved against one configuration space.
///
/// Consumers are strictly opt-in: a tuner without constraints follows the
/// exact historical code path, so seeded trajectories stay bit-identical.
/// With constraints, candidates are projected onto the SPEX-feasible
/// region (never rejected, so pools keep their size), and the rule
/// book's recommendations become seed configurations for the initial
/// design.
#[derive(Debug, Clone)]
pub struct SearchConstraints {
    deps: Vec<ResolvedDep>,
    seeds: Vec<Configuration>,
}

/// Unit-cube coordinate of a raw numeric value under a domain (clamped;
/// categorical raw values are choice indices).
fn unit_of(domain: &ParamDomain, raw: f64) -> f64 {
    let lerp = |lo: f64, hi: f64, v: f64| {
        if hi > lo {
            ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            0.5
        }
    };
    match domain {
        ParamDomain::Int { min, max, log } => {
            let v = raw.clamp(*min as f64, *max as f64);
            if *log {
                lerp((*min as f64).ln(), (*max as f64).ln(), v.ln())
            } else {
                lerp(*min as f64, *max as f64, v)
            }
        }
        ParamDomain::Float { min, max, log } => {
            let v = raw.clamp(*min, *max);
            if *log {
                lerp(min.ln(), max.ln(), v.ln())
            } else {
                lerp(*min, *max, v)
            }
        }
        ParamDomain::Bool => raw.clamp(0.0, 1.0),
        ParamDomain::Categorical { choices } => {
            lerp(0.0, choices.len().saturating_sub(1) as f64, raw)
        }
    }
}

/// Raw numeric value of a parameter value (booleans 0/1, categoricals
/// their choice index; `None` for a string that names no choice).
fn numeric_value(domain: &ParamDomain, value: &ParamValue) -> Option<f64> {
    match (domain, value) {
        (ParamDomain::Categorical { choices }, ParamValue::Str(s)) => {
            choices.iter().position(|c| c == s).map(|i| i as f64)
        }
        (_, v) => v.as_f64(),
    }
}

/// Raw numeric value of a parameter decoded from a unit coordinate.
fn raw_of(domain: &ParamDomain, u: f64) -> f64 {
    numeric_value(domain, &domain.decode(u)).unwrap_or(0.0)
}

/// A raw numeric value turned back into a domain-typed `ParamValue`,
/// clamped into the domain.
fn value_of(domain: &ParamDomain, raw: f64) -> ParamValue {
    match domain {
        ParamDomain::Int { min, max, .. } => {
            ParamValue::Int((raw.round() as i64).clamp(*min, *max))
        }
        ParamDomain::Float { min, max, .. } => ParamValue::Float(raw.clamp(*min, *max)),
        ParamDomain::Bool => ParamValue::Bool(raw >= 0.5),
        ParamDomain::Categorical { choices } => {
            let i = (raw.round() as usize).min(choices.len().saturating_sub(1));
            ParamValue::Str(choices[i].clone())
        }
    }
}

/// Per knob, the rule book's recommendation: the last rule on the knob
/// that applies to one of `profiles`, computed against the first profile
/// it applies to and clamped into the declared domain.
fn rule_priors(
    book: &RuleBook,
    profiles: &[SystemProfile],
    space: &ConfigSpace,
) -> Vec<(String, ParamValue)> {
    let mut out = Vec::new();
    for spec in space.params() {
        let prior = book
            .rules()
            .iter()
            .rev()
            .filter(|rule| rule.knob == spec.name)
            .find_map(|rule| {
                let profile = profiles.iter().find(|p| rule.applies(p))?;
                numeric_value(&spec.domain, &rule.value.compute(profile))
            });
        if let Some(v) = prior {
            out.push((spec.name.clone(), value_of(&spec.domain, v)));
        }
    }
    out
}

/// SPEX constraints inferred per profile and merged positionally (the
/// inference emits the same shapes in the same order for a fixed space):
/// each keeps its most permissive budget, so no configuration feasible
/// for some workload the platform serves is excluded. Memory fractions
/// scale by the first profile's per-node memory.
fn spex_deps(profiles: &[SystemProfile], space: &ConfigSpace) -> Vec<ResolvedDep> {
    let sets: Vec<ConstraintSet> = profiles
        .iter()
        .map(|p| ConstraintSet::infer_for_profile(space, p))
        .collect();
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    let memory_mb = profiles[0].memory_per_node_mb;
    let index = |name: &str| space.index_of(name);
    let mut deps = Vec::new();
    for (i, c) in first.all().iter().enumerate() {
        let variants = sets[1..].iter().map(|s| &s.all()[i]);
        let resolved = match c {
            SpexConstraint::MemorySum {
                terms,
                limit_fraction,
                ..
            } => {
                let mut weights: Vec<f64> = terms.iter().map(|t| t.1).collect();
                let mut fraction = *limit_fraction;
                for v in variants {
                    if let SpexConstraint::MemorySum {
                        terms,
                        limit_fraction,
                        ..
                    } = v
                    {
                        for (w, t) in weights.iter_mut().zip(terms) {
                            *w = w.min(t.1);
                        }
                        fraction = fraction.max(*limit_fraction);
                    }
                }
                terms
                    .iter()
                    .zip(weights)
                    .map(|((name, _), w)| index(name).map(|i| (i, w)))
                    .collect::<Option<Vec<_>>>()
                    .map(|terms| ResolvedDep::SumLe {
                        terms,
                        limit: fraction * memory_mb,
                    })
            }
            SpexConstraint::AtMostFactorOf {
                knob, of, factor, ..
            } => {
                let mut f = *factor;
                for v in variants {
                    if let SpexConstraint::AtMostFactorOf { factor, .. } = v {
                        f = f.max(*factor);
                    }
                }
                index(knob)
                    .zip(index(of))
                    .map(|(a, b)| ResolvedDep::LeFactor { a, b, factor: f })
            }
            SpexConstraint::ProductUnderMemory {
                a,
                b,
                limit_fraction,
                ..
            } => {
                let mut fraction = *limit_fraction;
                for v in variants {
                    if let SpexConstraint::ProductUnderMemory { limit_fraction, .. } = v {
                        fraction = fraction.max(*limit_fraction);
                    }
                }
                index(a).zip(index(b)).map(|(a, b)| ResolvedDep::ProductLe {
                    terms: vec![(a, 1.0), (b, 1.0)],
                    limit: fraction * memory_mb,
                })
            }
        };
        deps.extend(resolved);
    }
    deps
}

impl SearchConstraints {
    /// Builds the constraints for a platform (`dbms`, `hadoop`, `spark`)
    /// from its best-practice rule book and SPEX inference over its
    /// canonical deployment profiles; `None` for any other platform.
    pub fn for_platform(platform: &str, space: &ConfigSpace) -> Option<Self> {
        let (book, profiles) = match platform {
            "dbms" => (
                dbms_rulebook(),
                vec![
                    DbmsSimulator::oltp_default().profile(),
                    DbmsSimulator::olap_default().profile(),
                ],
            ),
            "hadoop" => (
                hadoop_rulebook(),
                vec![HadoopSimulator::terasort_default().profile()],
            ),
            "spark" => (
                spark_rulebook(),
                vec![SparkSimulator::aggregation_default().profile()],
            ),
            _ => return None,
        };
        // Seed configurations: first the combined rule-of-thumb config
        // (every knob at its recommendation), then one config per knob
        // that moves only that knob — the iTuned "use available
        // information" designs.
        let priors = rule_priors(&book, &profiles, space);
        let mut seeds = Vec::with_capacity(priors.len() + 1);
        if !priors.is_empty() {
            let mut combined = space.default_config();
            for (name, value) in &priors {
                combined.set(name, value.clone());
            }
            seeds.push(combined);
            for (name, value) in priors {
                let mut single = space.default_config();
                single.set(&name, value);
                seeds.push(single);
            }
        }
        Some(SearchConstraints {
            deps: spex_deps(&profiles, space),
            seeds,
        })
    }

    /// Prior-derived seed configurations (combined rule-of-thumb first).
    pub fn seeds(&self) -> &[Configuration] {
        &self.seeds
    }

    /// Whether a unit-cube point satisfies every resolved dependency.
    pub fn satisfies(&self, space: &ConfigSpace, point: &[f64]) -> bool {
        if self.deps.is_empty() {
            return true;
        }
        let raw: Vec<f64> = space
            .params()
            .iter()
            .zip(point)
            .map(|(spec, &u)| raw_of(&spec.domain, u))
            .collect();
        self.deps.iter().all(|d| match d {
            ResolvedDep::LeFactor { a, b, factor } => raw[*a] <= factor * raw[*b] + 1e-9,
            ResolvedDep::ProductLe { terms, limit } => {
                terms.iter().map(|&(i, w)| raw[i] * w).product::<f64>() <= limit + 1e-9
            }
            ResolvedDep::SumLe { terms, limit } => {
                terms.iter().map(|&(i, w)| raw[i] * w).sum::<f64>() <= limit + 1e-9
            }
        })
    }

    /// Projects a unit-cube point onto the dependency-feasible region by
    /// scaling violating terms down in raw space (the standard repair for
    /// budget-style constraints: a product or sum over the limit shrinks
    /// multiplicatively toward the feasible surface; `a ≤ f·b` clamps
    /// `a`). Domain minima are respected, so a contradictory dependency
    /// leaves the point where the domain floor forces it — repair is best
    /// effort, never a panic.
    pub fn repair_point(&self, space: &ConfigSpace, point: &mut [f64]) {
        if self.deps.is_empty() {
            return;
        }
        let mut raw: Vec<f64> = space
            .params()
            .iter()
            .zip(point.iter())
            .map(|(spec, &u)| raw_of(&spec.domain, u))
            .collect();
        let floor = |spec: &autotune_core::ParamSpec, v: f64| match &spec.domain {
            ParamDomain::Int { min, .. } => v.max(*min as f64),
            ParamDomain::Float { min, .. } => v.max(*min),
            _ => v,
        };
        let mut changed = false;
        for d in &self.deps {
            match d {
                ResolvedDep::LeFactor { a, b, factor } => {
                    let cap = factor * raw[*b];
                    if raw[*a] > cap + 1e-9 {
                        raw[*a] = floor(&space.params()[*a], cap);
                        changed = true;
                    }
                }
                ResolvedDep::ProductLe { terms, limit } => {
                    let p: f64 = terms.iter().map(|&(i, w)| raw[i] * w).product();
                    if p > *limit + 1e-9 && p > 0.0 && *limit > 0.0 {
                        let s = (limit / p).powf(1.0 / terms.len() as f64);
                        for &(i, _) in terms {
                            raw[i] = floor(&space.params()[i], raw[i] * s);
                        }
                        changed = true;
                    }
                }
                ResolvedDep::SumLe { terms, limit } => {
                    let s: f64 = terms.iter().map(|&(i, w)| raw[i] * w).sum();
                    if s > *limit + 1e-9 && s > 0.0 && *limit > 0.0 {
                        let scale = limit / s;
                        for &(i, _) in terms {
                            raw[i] = floor(&space.params()[i], raw[i] * scale);
                        }
                        changed = true;
                    }
                }
            }
        }
        if changed {
            for (i, spec) in space.params().iter().enumerate() {
                point[i] = unit_of(&spec.domain, raw[i]);
            }
        }
    }

    /// Projects every point of a candidate pool onto the
    /// dependency-feasible region. Projection (rather than rejection)
    /// keeps the pool's size and diversity even when the feasible region
    /// is a sliver of the declared space, and a contradictory dependency
    /// leaves points where the domain floor forces them — constraints
    /// never empty a search.
    pub fn apply_to_pool(&self, space: &ConfigSpace, mut pool: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        for p in pool.iter_mut() {
            self.repair_point(space, p);
        }
        pool
    }
}

/// Unit-cube encodings of the `k` best (lowest-runtime) observations.
pub fn best_anchors(history: &History, space: &ConfigSpace, k: usize) -> Vec<Vec<f64>> {
    let mut obs: Vec<_> = history.all().iter().collect();
    obs.sort_by(|a, b| a.runtime_secs.total_cmp(&b.runtime_secs));
    obs.iter()
        .take(k)
        .map(|o| space.encode(&o.config))
        .collect()
}

/// Runtimes with failures inflated so models learn to avoid them
/// (a failed run's measured runtime already includes the penalty, but we
/// additionally guard against zero-runtime artifacts).
pub fn penalized_runtimes(history: &History) -> Vec<f64> {
    history
        .all()
        .iter()
        .map(|o| {
            if o.failed {
                o.runtime_secs.max(1e-6) * 1.5
            } else {
                o.runtime_secs.max(1e-6)
            }
        })
        .collect()
}

/// Log-transformed penalized runtimes — GP/Lasso targets are far better
/// behaved in log space because runtimes span orders of magnitude.
pub fn log_runtimes(history: &History) -> Vec<f64> {
    penalized_runtimes(history)
        .into_iter()
        .map(|r| r.ln())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{Observation, ParamSpec};
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            ParamSpec::float("x", 0.0, 1.0, 0.5, ""),
            ParamSpec::float("y", 0.0, 1.0, 0.5, ""),
        ])
    }

    #[test]
    fn pool_size_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let anchors = vec![vec![0.9, 0.1]];
        let pool = candidate_pool(2, 10, &anchors, 5, 0.2, &mut rng);
        assert_eq!(pool.len(), 15);
        for p in &pool {
            assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn anchors_are_best_observations() {
        let s = space();
        let mut h = History::new();
        for (u, rt) in [(0.1, 5.0), (0.5, 1.0), (0.9, 3.0)] {
            h.push(Observation::ok(s.decode(&[u, u]), rt));
        }
        let anchors = best_anchors(&h, &s, 2);
        assert_eq!(anchors.len(), 2);
        assert!((anchors[0][0] - 0.5).abs() < 1e-9);
        assert!((anchors[1][0] - 0.9).abs() < 1e-9);
    }

    /// `x + y <= limit` over the test space, without seeds.
    fn sum_le(limit: f64) -> SearchConstraints {
        SearchConstraints {
            deps: vec![ResolvedDep::SumLe {
                terms: vec![(0, 1.0), (1, 1.0)],
                limit,
            }],
            seeds: Vec::new(),
        }
    }

    #[test]
    fn dependencies_project_instead_of_rejecting() {
        let s = space();
        let c = sum_le(1.2);
        // x + y <= 1.2: a satisfying point is untouched, a violator is
        // scaled down onto the feasible surface — never dropped.
        assert!(c.satisfies(&s, &[0.3, 0.3]));
        assert!(!c.satisfies(&s, &[0.7, 0.9]));
        let pool = vec![vec![0.3, 0.3], vec![0.7, 0.9]];
        let out = c.apply_to_pool(&s, pool);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![0.3, 0.3]);
        assert!(c.satisfies(&s, &out[1]), "violator projected to feasible");
        let sum: f64 = out[1].iter().sum();
        assert!((sum - 1.2).abs() < 1e-6, "lands on the surface, got {sum}");
        // A contradictory dependency (limit below any reachable value)
        // cannot be repaired — the point is left as it was.
        let c = sum_le(-1.0);
        let out = c.apply_to_pool(&s, vec![vec![0.3, 0.3], vec![0.9, 0.9]]);
        assert_eq!(out, vec![vec![0.3, 0.3], vec![0.9, 0.9]]);
    }

    #[test]
    fn platforms_get_rule_seeds_and_spex_dependencies() {
        use crate::rule::{dbms_rulebook, hadoop_rulebook, spark_rulebook, RuleBook};
        let platforms: [(&str, ConfigSpace, RuleBook); 3] = [
            ("dbms", autotune_sim::dbms::dbms_space(), dbms_rulebook()),
            (
                "hadoop",
                autotune_sim::hadoop::hadoop_space(),
                hadoop_rulebook(),
            ),
            (
                "spark",
                autotune_sim::spark::spark_space(),
                spark_rulebook(),
            ),
        ];
        for (platform, space, book) in platforms {
            let c = SearchConstraints::for_platform(platform, &space).expect("known platform");
            assert!(!c.deps.is_empty(), "{platform}: SPEX dependencies");
            // Combined seed first, then at most one single-knob seed per
            // knob the rule book covers; the combined seed carries every
            // single seed's move.
            let knobs: std::collections::BTreeSet<&str> = book
                .rules()
                .iter()
                .map(|r| r.knob.as_str())
                .filter(|k| space.spec(k).is_some())
                .collect();
            let seeds = c.seeds();
            assert!(seeds.len() >= 2, "{platform}: rule seeds");
            assert!(seeds.len() <= knobs.len() + 1, "{platform}");
            let default = space.default_config();
            for seed in seeds {
                space.validate_config(seed).expect("seed is a valid config");
            }
            for single in &seeds[1..] {
                for spec in space.params() {
                    let v = single.get(&spec.name);
                    if v != default.get(&spec.name) {
                        assert_eq!(v, seeds[0].get(&spec.name), "{platform}: {}", spec.name);
                    }
                }
            }
        }
        let dbms = autotune_sim::dbms::dbms_space();
        assert!(SearchConstraints::for_platform("mtdbms", &dbms).is_none());
    }

    /// A dependency rendered with knob names; `{}` prints the shortest
    /// string that round-trips, so the text pins every bit.
    fn render(dep: &ResolvedDep, space: &ConfigSpace) -> String {
        let name = |i: usize| space.params()[i].name.as_str();
        let terms = |terms: &[(usize, f64)], op: &str| {
            terms
                .iter()
                .map(|&(i, w)| format!("{w}*{}", name(i)))
                .collect::<Vec<_>>()
                .join(op)
        };
        match dep {
            ResolvedDep::LeFactor { a, b, factor } => {
                format!("{} <= {factor}*{}", name(*a), name(*b))
            }
            ResolvedDep::ProductLe { terms: t, limit } => format!("{} <= {limit}", terms(t, " x ")),
            ResolvedDep::SumLe { terms: t, limit } => format!("{} <= {limit}", terms(t, " + ")),
        }
    }

    #[test]
    fn dependencies_are_pinned() {
        // The merged SPEX budgets: dbms takes the smaller per-session
        // weights of its OLTP and OLAP profiles.
        let want: [(&str, ConfigSpace, &[&str]); 3] = [
            (
                "dbms",
                autotune_sim::dbms::dbms_space(),
                &[
                    "1*shared_buffers_mb + 4*work_mem_mb + 1*maintenance_work_mem_mb \
                   + 1*wal_buffers_mb + 2*temp_buffers_mb <= 14745.6",
                ],
            ),
            (
                "hadoop",
                autotune_sim::hadoop::hadoop_space(),
                &[
                    "io_sort_mb <= 0.6*map_heap_mb",
                    "1*map_slots_per_node x 1*map_heap_mb <= 9830.4",
                    "1*reduce_slots_per_node x 1*reduce_heap_mb <= 6553.6",
                ],
            ),
            (
                "spark",
                autotune_sim::spark::spark_space(),
                &[
                    "1*executor_instances x 1*executor_memory_mb <= 113198.54545454544",
                    "broadcast_threshold_mb <= 0.1*executor_memory_mb",
                ],
            ),
        ];
        for (platform, space, deps) in want {
            let c = SearchConstraints::for_platform(platform, &space).expect("known platform");
            let got: Vec<String> = c.deps.iter().map(|d| render(d, &space)).collect();
            assert_eq!(got, deps, "{platform}");
        }
    }

    #[test]
    fn dependencies_on_knobs_outside_the_space_are_dropped() {
        // The test space has none of the platform knobs: every SPEX
        // dependency is unresolvable, so everything satisfies.
        let s = space();
        let c = SearchConstraints::for_platform("spark", &s).expect("spark");
        assert!(c.deps.is_empty());
        assert!(c.seeds().is_empty());
        assert!(c.satisfies(&s, &[0.9, 0.9]));
    }

    #[test]
    fn failures_are_penalized() {
        let s = space();
        let mut h = History::new();
        let mut bad = Observation::ok(s.decode(&[0.5, 0.5]), 10.0);
        bad.failed = true;
        h.push(bad);
        h.push(Observation::ok(s.decode(&[0.2, 0.2]), 10.0));
        let rts = penalized_runtimes(&h);
        assert!(rts[0] > rts[1]);
        let lrts = log_runtimes(&h);
        assert!((lrts[1] - 10.0f64.ln()).abs() < 1e-12);
    }
}
