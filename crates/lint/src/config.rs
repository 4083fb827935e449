//! Workspace layout knowledge: which crate a file belongs to, whether it is
//! test-only code, and which rules apply where.
//!
//! The scopes mirror the determinism contract documented in DESIGN.md:
//!
//! * **D1 `unseeded-rng`** — everywhere outside `#[cfg(test)]`. Tuner
//!   evaluations must be replayable from a seed, so entropy-based RNG
//!   construction is banned workspace-wide.
//! * **D2 `wall-clock`** — the pure-evaluation crates `math`, `sim`,
//!   `tuners`, plus `serve`: the daemon must replay sessions from the WAL
//!   byte-identically, so clock reads there need an explicit suppression
//!   with a reason (e.g. audit-only creation timestamps). Session overhead
//!   accounting in `core` (and timing in the `bench` harness / criterion
//!   benches) legitimately reads the clock and is out of scope.
//! * **D3 `hash-iter`** — `core`, `tuners`, `bench`, `serve` library
//!   sources. Any `HashMap`/`HashSet` there risks order-dependent iteration
//!   feeding a report (or a WAL); use `BTreeMap`/`BTreeSet` or suppress with
//!   a reason proving the container is never iterated.
//! * **D4 `nan-ord`** — everywhere outside tests. `partial_cmp(..).unwrap()`
//!   panics mid-benchmark on the first NaN; `total_cmp` degrades gracefully.
//! * **D5 `unwrap`** — the library crates `core`, `math`, `sim`, `tuners`,
//!   `serve`. Library code propagates errors (`autotune-core::error`,
//!   `autotune-serve::ServeError`) or justifies the invariant inline.
//!
//! The semantic rules added on top of the item tree:
//!
//! * **U1 `safety-comment`** — every `unsafe` block and `unsafe fn` must be
//!   directly preceded by a `// SAFETY:` comment stating its invariant.
//! * **U2 `unsafe-scope`** — `unsafe` may only appear in the allowlisted
//!   modules ([`ALLOWED_UNSAFE_FILES`]); anywhere else it is reported.
//! * **U3 `simd-fallback`** — every call to an AVX2 kernel
//!   (`#[target_feature(enable = "avx2")]`) must be feature-gated and the
//!   dispatching function must keep a reachable scalar fallback; a kernel
//!   with no dispatcher at all is reported too.
//! * **K1 `knob-unknown`** — a knob-name string (or const) at a knob
//!   consumer site that does not resolve in the workspace knob table.
//! * **K2 `knob-domain`** — a knob default/bound inconsistent at its
//!   definition, or a literal `set(...)` value outside the declared domain.
//! * **K3 `knob-unused`** (warn) — a knob defined in a params module but
//!   never referenced anywhere else in the workspace.
//!
//! The statement-level concurrency & durability rules (C-series), driven
//! by the [`Protocol`] declaration below:
//!
//! * **C1 `lock-order`** — a cycle in the crate-wide lock-acquisition
//!   graph (lock B taken while holding A in one place, A while holding B
//!   in another, directly or one call level deep).
//! * **C2 `blocking-while-locked`** — fsync/recv/sleep/socket I/O or a
//!   durability wait reached while a mutex guard is live in scope.
//! * **C3 `condvar-wait-not-in-loop`** — a guard-passing condvar wait not
//!   lexically inside a `while`/`loop` (missed-wakeup hazard).
//! * **C4 `ack-before-durable`** — in the serve crate, a mutating handler
//!   path that emits a 2xx response without first reaching a durability
//!   wait.
//! * **C5 `unwaited-ticket`** — a commit ticket / RAII driver guard that
//!   can drop without its wait/disarm method on some path.

/// Files in which `unsafe` is permitted (U2 allowlist). Vendored crates are
/// never scanned, so they need no entries here.
pub const ALLOWED_UNSAFE_FILES: &[&str] = &[
    // Parked spare-core helpers: one lifetime erasure of a region's job,
    // which the region withdraws or waits out before it returns.
    "crates/math/src/batch.rs",
    "crates/math/src/simd.rs",
    // Signal handler registration for the serve daemon: a single audited
    // `signal(2)` FFI call whose handler only performs an atomic store.
    "crates/serve/src/signal.rs",
];

/// The concurrency & durability protocol the C-series rules enforce. The
/// rules are data-driven so the protocol is declared here, in one place,
/// rather than hard-coded in the analyzers: which functions acquire locks,
/// which calls block, which calls are the durability barrier the serve
/// protocol requires before a 2xx ack, and which RAII values must be
/// explicitly discharged on every path.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Free functions that acquire a mutex and return the guard
    /// (`lock(&field)` — the poison-recovering helper in
    /// `scheduler.rs`). The lock key is the last field segment of the
    /// first argument. Functions *named* like these are themselves
    /// excluded from analysis (they are the lock primitive).
    pub lock_fns: &'static [&'static str],
    /// Methods that acquire a mutex (`mutex.lock()`); the lock key is the
    /// last segment of the receiver path.
    pub lock_methods: &'static [&'static str],
    /// Calls that block the current thread (fsync, channel receive,
    /// sleep, socket accept): reaching one while a guard is live is C2.
    pub blocking_calls: &'static [&'static str],
    /// Condvar wait methods that take the guard as an argument and must
    /// sit inside a `while`/`loop` (C3). They also count as blocking for
    /// C2, except for the guard they consume.
    pub condvar_waits: &'static [&'static str],
    /// Condvar waits with a built-in predicate (`wait_while`); exempt
    /// from C3 and treated like [`Self::condvar_waits`] for C2.
    pub condvar_pred_waits: &'static [&'static str],
    /// Durability-await calls (the group-commit ticket wait). Reaching
    /// one marks a path durable for C4; they block for C2 purposes.
    pub durability_waits: &'static [&'static str],
    /// Response-constructor methods whose first argument is a literal
    /// HTTP status (`Response::json(200, ..)`); a 2xx call is an ack.
    pub ack_fns: &'static [&'static str],
    /// Type name the ack constructors hang off.
    pub ack_recv: &'static str,
    /// State-mutating handler functions in the protocol crate: every path
    /// from entry to a 2xx ack must pass a durability wait (C4).
    pub mutating_handlers: &'static [&'static str],
    /// `(producer, discharge)` pairs for C5: a producer call bound by
    /// `let` arms an obligation discharged only by calling the discharge
    /// method on (or with) one of the bound names. A producer spelled
    /// `Type::method` matches a path-qualified call; a bare name matches
    /// a method or free call.
    pub obligations: &'static [(&'static str, &'static str)],
    /// Crate the C4/C5 protocol rules apply to.
    pub protocol_crate: &'static str,
}

/// The workspace's own protocol: serve-layer group commit + driver guards.
pub const DEFAULT_PROTOCOL: Protocol = Protocol {
    lock_fns: &["lock"],
    lock_methods: &["lock"],
    blocking_calls: &[
        "sync_all",
        "sync_data",
        "recv",
        "recv_timeout",
        "sleep",
        "accept",
        "read_exact",
        "write_all",
    ],
    condvar_waits: &["wait", "wait_timeout"],
    condvar_pred_waits: &["wait_while", "wait_timeout_while"],
    durability_waits: &["wait_durable"],
    ack_fns: &["json", "text"],
    ack_recv: "Response",
    mutating_handlers: &["create_session", "advance_session", "cancel_session"],
    obligations: &[
        ("durability_barrier", "wait_durable"),
        ("DriverGuard::new", "disarm"),
    ],
    protocol_crate: "serve",
};

/// Finding severity: errors fail the build, warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, but does not make the exit code nonzero.
    Warning,
    /// Build-failing.
    Error,
}

impl Severity {
    /// Stable lowercase label used in reports and SARIF levels.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: unseeded RNG construction.
    UnseededRng,
    /// D2: wall-clock reads in pure-evaluation crates.
    WallClock,
    /// D3: hash-ordered containers in report-feeding crates.
    HashIter,
    /// D4: NaN-unsafe float ordering.
    NanOrd,
    /// D5: `unwrap`/`expect` in library crates.
    Unwrap,
    /// U1: `unsafe` without a `// SAFETY:` justification.
    SafetyComment,
    /// U2: `unsafe` outside the allowlisted modules.
    UnsafeScope,
    /// U3: AVX2 kernel without a guarded dispatcher + scalar fallback.
    SimdFallback,
    /// K1: knob reference that does not resolve in the knob table.
    KnobUnknown,
    /// K2: knob default/bound/value outside its declared domain.
    KnobDomain,
    /// K3: knob defined but never referenced (warn-level).
    KnobUnused,
    /// C1: lock-acquisition cycle across the crate's lock-order graph.
    LockOrder,
    /// C2: blocking call reached while a mutex guard is live in scope.
    BlockingLock,
    /// C3: condvar wait not re-checked inside a `while`/`loop`.
    CondvarLoop,
    /// C4: 2xx ack emitted on a path that never awaited durability.
    AckDurable,
    /// C5: commit ticket / RAII guard dropped without wait/disarm.
    TicketDrop,
    /// A `lint:allow` suppression with no reason.
    BareAllow,
}

/// Every rule, for parsing and report metadata.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::UnseededRng,
    RuleId::WallClock,
    RuleId::HashIter,
    RuleId::NanOrd,
    RuleId::Unwrap,
    RuleId::SafetyComment,
    RuleId::UnsafeScope,
    RuleId::SimdFallback,
    RuleId::KnobUnknown,
    RuleId::KnobDomain,
    RuleId::KnobUnused,
    RuleId::LockOrder,
    RuleId::BlockingLock,
    RuleId::CondvarLoop,
    RuleId::AckDurable,
    RuleId::TicketDrop,
    RuleId::BareAllow,
];

impl RuleId {
    /// Short stable id (`D1`..`D5`, `U1`..`U3`, `K1`..`K3`, `A0`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnseededRng => "D1",
            RuleId::WallClock => "D2",
            RuleId::HashIter => "D3",
            RuleId::NanOrd => "D4",
            RuleId::Unwrap => "D5",
            RuleId::SafetyComment => "U1",
            RuleId::UnsafeScope => "U2",
            RuleId::SimdFallback => "U3",
            RuleId::KnobUnknown => "K1",
            RuleId::KnobDomain => "K2",
            RuleId::KnobUnused => "K3",
            RuleId::LockOrder => "C1",
            RuleId::BlockingLock => "C2",
            RuleId::CondvarLoop => "C3",
            RuleId::AckDurable => "C4",
            RuleId::TicketDrop => "C5",
            RuleId::BareAllow => "A0",
        }
    }

    /// Human name, also accepted in suppression directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnseededRng => "unseeded-rng",
            RuleId::WallClock => "wall-clock",
            RuleId::HashIter => "hash-iter",
            RuleId::NanOrd => "nan-ord",
            RuleId::Unwrap => "unwrap",
            RuleId::SafetyComment => "safety-comment",
            RuleId::UnsafeScope => "unsafe-scope",
            RuleId::SimdFallback => "simd-fallback",
            RuleId::KnobUnknown => "knob-unknown",
            RuleId::KnobDomain => "knob-domain",
            RuleId::KnobUnused => "knob-unused",
            RuleId::LockOrder => "lock-order",
            RuleId::BlockingLock => "blocking-while-locked",
            RuleId::CondvarLoop => "condvar-wait-not-in-loop",
            RuleId::AckDurable => "ack-before-durable",
            RuleId::TicketDrop => "unwaited-ticket",
            RuleId::BareAllow => "bare-allow",
        }
    }

    /// Severity class of findings this rule produces.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::KnobUnused => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Parses a rule id or name as written in a suppression directive.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
    }

    /// One-line description used in reports.
    pub fn message(self) -> &'static str {
        match self {
            RuleId::UnseededRng => {
                "unseeded RNG construction breaks replayability; seed from the session (StdRng::seed_from_u64)"
            }
            RuleId::WallClock => {
                "wall-clock read inside a pure-evaluation crate; thread time in via parameters"
            }
            RuleId::HashIter => {
                "hash-ordered container in report-feeding code; use BTreeMap/BTreeSet or sort before output"
            }
            RuleId::NanOrd => {
                "NaN-unsafe float ordering panics on NaN; use f64::total_cmp or handle the None"
            }
            RuleId::Unwrap => {
                "unwrap/expect in library code; propagate via autotune-core::error or justify inline"
            }
            RuleId::SafetyComment => {
                "unsafe without a justification; add a `// SAFETY:` comment directly above stating the invariant"
            }
            RuleId::UnsafeScope => {
                "unsafe outside the audited allowlist (math::simd, serve::signal); keep raw-pointer and FFI code in the audited modules"
            }
            RuleId::SimdFallback => {
                "AVX2 kernel call without a feature guard and reachable scalar fallback in the dispatching function"
            }
            RuleId::KnobUnknown => {
                "knob name does not resolve in the workspace knob table; fix the typo or register the knob"
            }
            RuleId::KnobDomain => {
                "knob value/default/bounds outside the declared domain; align with the params-module definition"
            }
            RuleId::KnobUnused => {
                "knob defined but never referenced by any tuner, engine, or scenario; wire it up or drop it"
            }
            RuleId::LockOrder => {
                "lock-acquisition cycle: these locks are taken in conflicting orders across the crate; pick one global order"
            }
            RuleId::BlockingLock => {
                "blocking call while a mutex guard is live; drop or scope the guard before fsync/recv/sleep/IO"
            }
            RuleId::CondvarLoop => {
                "condvar wait outside a while/loop; a spurious or stolen wakeup skips the predicate re-check"
            }
            RuleId::AckDurable => {
                "2xx response on a path that never awaited durability; call the durability wait before acking"
            }
            RuleId::TicketDrop => {
                "commit ticket or RAII guard can drop without its wait/disarm on this path; discharge it on every path"
            }
            RuleId::BareAllow => "lint:allow without a reason; state why the suppression is sound",
        }
    }
}

/// What the analyzer knows about a file before scanning it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCtx {
    /// Workspace crate directory name (`core`, `math`, ..., or `autotune`
    /// for the root package).
    pub crate_name: String,
    /// True for integration-test files (under a `tests/` directory); all
    /// rules skip these wholesale.
    pub is_test_source: bool,
    /// True for files under a `src/` directory (as opposed to benches or
    /// examples); crate-scoped rules only apply here.
    pub is_lib_source: bool,
}

/// Classifies a workspace-relative path (`crates/core/src/pareto.rs`).
/// Returns `None` for files the analyzer should skip entirely.
pub fn classify(rel_path: &str) -> Option<FileCtx> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return None;
    }
    let (crate_name, rest) = if parts.first() == Some(&"crates") {
        (parts.get(1)?.to_string(), &parts[2..])
    } else {
        ("autotune".to_string(), &parts[..])
    };
    let is_test_source = rest.first() == Some(&"tests");
    let is_lib_source = rest.first() == Some(&"src");
    Some(FileCtx {
        crate_name,
        is_test_source,
        is_lib_source,
    })
}

/// True when `rule` is in scope for the file. Test sources are excluded for
/// every rule; `#[cfg(test)]` regions inside live files are handled by the
/// rule engine's token mask, not here.
pub fn rule_applies(rule: RuleId, ctx: &FileCtx) -> bool {
    if ctx.is_test_source {
        return false;
    }
    let in_crates = |names: &[&str]| names.contains(&ctx.crate_name.as_str());
    match rule {
        RuleId::UnseededRng | RuleId::NanOrd => true,
        RuleId::WallClock => ctx.is_lib_source && in_crates(&["math", "sim", "tuners", "serve"]),
        RuleId::HashIter => ctx.is_lib_source && in_crates(&["core", "tuners", "bench", "serve"]),
        RuleId::Unwrap => {
            ctx.is_lib_source && in_crates(&["core", "math", "sim", "tuners", "serve"])
        }
        // The unsafe audit is workspace-wide: unsafe anywhere outside the
        // allowlist is a finding, and allowlisted unsafe still needs its
        // SAFETY justification and dispatch contract.
        RuleId::SafetyComment | RuleId::UnsafeScope | RuleId::SimdFallback => true,
        // Knob consumers live in the simulators, tuners, and bench harness.
        RuleId::KnobUnknown | RuleId::KnobDomain => {
            ctx.is_lib_source && in_crates(&["sim", "tuners", "bench"])
        }
        // Knob definitions live in the simulator params modules.
        RuleId::KnobUnused => ctx.is_lib_source && in_crates(&["sim"]),
        // Generic concurrency rules: any library source that takes locks.
        RuleId::LockOrder | RuleId::BlockingLock | RuleId::CondvarLoop => ctx.is_lib_source,
        // Protocol-conformance rules are scoped to the serve crate, whose
        // durability protocol they encode.
        RuleId::AckDurable | RuleId::TicketDrop => {
            ctx.is_lib_source && ctx.crate_name == DEFAULT_PROTOCOL.protocol_crate
        }
        RuleId::BareAllow => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_paths() {
        let ctx = classify("crates/core/src/pareto.rs").expect("classified");
        assert_eq!(ctx.crate_name, "core");
        assert!(ctx.is_lib_source);
        assert!(!ctx.is_test_source);

        let ctx = classify("crates/bench/tests/determinism.rs").expect("classified");
        assert!(ctx.is_test_source);

        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("target/debug/build/foo.rs"), None);
    }

    #[test]
    fn classify_root_package() {
        let ctx = classify("src/lib.rs").expect("classified");
        assert_eq!(ctx.crate_name, "autotune");
        assert!(ctx.is_lib_source);
        let ctx = classify("examples/quickstart.rs").expect("classified");
        assert!(!ctx.is_lib_source);
        assert!(!ctx.is_test_source);
    }

    #[test]
    fn scopes_match_the_contract() {
        let core = classify("crates/core/src/session.rs").expect("classified");
        assert!(!rule_applies(RuleId::WallClock, &core));
        assert!(rule_applies(RuleId::HashIter, &core));
        assert!(rule_applies(RuleId::Unwrap, &core));

        let math = classify("crates/math/src/gp.rs").expect("classified");
        assert!(rule_applies(RuleId::WallClock, &math));
        assert!(!rule_applies(RuleId::HashIter, &math));
        assert!(rule_applies(RuleId::SafetyComment, &math));
        assert!(rule_applies(RuleId::SimdFallback, &math));

        let bench_bin = classify("crates/bench/src/bin/exec_speedup.rs").expect("classified");
        assert!(!rule_applies(RuleId::WallClock, &bench_bin));
        assert!(rule_applies(RuleId::NanOrd, &bench_bin));
        assert!(!rule_applies(RuleId::Unwrap, &bench_bin));
        assert!(rule_applies(RuleId::KnobUnknown, &bench_bin));

        let lint = classify("crates/lint/src/rules.rs").expect("classified");
        assert!(rule_applies(RuleId::UnseededRng, &lint));
        assert!(!rule_applies(RuleId::Unwrap, &lint));
        assert!(rule_applies(RuleId::UnsafeScope, &lint));
        assert!(!rule_applies(RuleId::KnobUnknown, &lint));

        let sim = classify("crates/sim/src/dbms/params.rs").expect("classified");
        assert!(rule_applies(RuleId::KnobUnused, &sim));
        assert!(rule_applies(RuleId::KnobDomain, &sim));

        let serve = classify("crates/serve/src/wal.rs").expect("classified");
        assert!(rule_applies(RuleId::WallClock, &serve));
        assert!(rule_applies(RuleId::HashIter, &serve));
        assert!(rule_applies(RuleId::Unwrap, &serve));
        assert!(!rule_applies(RuleId::KnobUnknown, &serve));
        let serve_tests = classify("crates/serve/tests/http_api.rs").expect("classified");
        assert!(!rule_applies(RuleId::WallClock, &serve_tests));

        // The approximate-GP surrogate and ANN index modules are library
        // sources of already-scoped crates: the full D-series contract
        // applies to them with no new configuration.
        let surrogate = classify("crates/math/src/surrogate.rs").expect("classified");
        assert!(rule_applies(RuleId::WallClock, &surrogate));
        assert!(rule_applies(RuleId::Unwrap, &surrogate));
        assert!(rule_applies(RuleId::NanOrd, &surrogate));
        let ann = classify("crates/serve/src/ann.rs").expect("classified");
        assert!(rule_applies(RuleId::WallClock, &ann));
        assert!(rule_applies(RuleId::HashIter, &ann));
        assert!(rule_applies(RuleId::Unwrap, &ann));
        assert!(rule_applies(RuleId::UnseededRng, &ann));

        // The drift detector and the signature summarizer carry the same
        // determinism contract as the recovery path they feed: detector
        // state and projection matrices must be pure functions of seeds,
        // so the full D-series (and for drift.rs the C-series lock rules)
        // is pinned to both modules.
        let drift = classify("crates/serve/src/drift.rs").expect("classified");
        assert!(rule_applies(RuleId::WallClock, &drift));
        assert!(rule_applies(RuleId::HashIter, &drift));
        assert!(rule_applies(RuleId::Unwrap, &drift));
        assert!(rule_applies(RuleId::UnseededRng, &drift));
        assert!(rule_applies(RuleId::NanOrd, &drift));
        assert!(rule_applies(RuleId::LockOrder, &drift));
        let sig = classify("crates/core/src/signature.rs").expect("classified");
        assert!(rule_applies(RuleId::UnseededRng, &sig));
        assert!(rule_applies(RuleId::HashIter, &sig));
        assert!(rule_applies(RuleId::Unwrap, &sig));
        assert!(rule_applies(RuleId::NanOrd, &sig));
    }

    #[test]
    fn c_series_scopes() {
        let serve = classify("crates/serve/src/server.rs").expect("classified");
        assert!(rule_applies(RuleId::LockOrder, &serve));
        assert!(rule_applies(RuleId::BlockingLock, &serve));
        assert!(rule_applies(RuleId::CondvarLoop, &serve));
        assert!(rule_applies(RuleId::AckDurable, &serve));
        assert!(rule_applies(RuleId::TicketDrop, &serve));

        // Generic concurrency rules run in every library crate; the
        // protocol rules stay inside serve.
        let core = classify("crates/core/src/executor.rs").expect("classified");
        assert!(rule_applies(RuleId::LockOrder, &core));
        assert!(rule_applies(RuleId::BlockingLock, &core));
        assert!(!rule_applies(RuleId::AckDurable, &core));
        assert!(!rule_applies(RuleId::TicketDrop, &core));

        let serve_tests = classify("crates/serve/tests/http_api.rs").expect("classified");
        assert!(!rule_applies(RuleId::LockOrder, &serve_tests));
        assert!(!rule_applies(RuleId::AckDurable, &serve_tests));
    }

    #[test]
    fn parse_accepts_id_and_name() {
        assert_eq!(RuleId::parse("D4"), Some(RuleId::NanOrd));
        assert_eq!(RuleId::parse("d4"), Some(RuleId::NanOrd));
        assert_eq!(RuleId::parse("nan-ord"), Some(RuleId::NanOrd));
        assert_eq!(RuleId::parse("unwrap"), Some(RuleId::Unwrap));
        assert_eq!(RuleId::parse("U1"), Some(RuleId::SafetyComment));
        assert_eq!(RuleId::parse("safety-comment"), Some(RuleId::SafetyComment));
        assert_eq!(RuleId::parse("K1"), Some(RuleId::KnobUnknown));
        assert_eq!(RuleId::parse("knob-unused"), Some(RuleId::KnobUnused));
        assert_eq!(RuleId::parse("C1"), Some(RuleId::LockOrder));
        assert_eq!(RuleId::parse("c4"), Some(RuleId::AckDurable));
        assert_eq!(RuleId::parse("unwaited-ticket"), Some(RuleId::TicketDrop));
        assert_eq!(RuleId::parse("nonsense"), None);
    }

    #[test]
    fn severities() {
        assert_eq!(RuleId::KnobUnused.severity(), Severity::Warning);
        assert_eq!(RuleId::KnobUnknown.severity(), Severity::Error);
        assert_eq!(RuleId::SafetyComment.severity(), Severity::Error);
        assert_eq!(Severity::Warning.label(), "warning");
    }
}
