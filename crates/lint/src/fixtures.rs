//! Embedded good/bad source snippets, one pair per rule, plus suppression
//! cases. The integration tests scan each snippet under its designated
//! workspace-relative path and assert the expected rule ids; keeping the
//! snippets here (rather than as on-disk `.rs` files) means the workspace
//! self-scan can never trip over its own bad examples — string literals are
//! stripped by the lexer.

/// A fixture: source text scanned as if it lived at `path`, expected to
/// produce exactly the rule ids in `expect` (in report order).
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// Short label for test diagnostics.
    pub label: &'static str,
    /// Workspace-relative path the snippet is classified under.
    pub path: &'static str,
    /// The snippet source.
    pub src: &'static str,
    /// Expected rule ids, sorted.
    pub expect: &'static [&'static str],
}

/// D2 bad: wall-clock read inside a pure-evaluation crate.
pub const D2_BAD: Fixture = Fixture {
    label: "d2-bad",
    path: "crates/math/src/fixture.rs",
    src: r#"
pub fn timed_solve() -> f64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_secs_f64()
}
"#,
    expect: &["D2"],
};

/// D2 good: the same read is legitimate in `core` session accounting.
pub const D2_GOOD: Fixture = Fixture {
    label: "d2-good",
    path: "crates/core/src/fixture.rs",
    src: r#"
pub fn session_overhead() -> std::time::Instant {
    std::time::Instant::now()
}
"#,
    expect: &[],
};

/// D3 bad: hash-ordered container in report-feeding code.
pub const D3_BAD: Fixture = Fixture {
    label: "d3-bad",
    path: "crates/bench/src/fixture.rs",
    src: r#"
use std::collections::HashMap;
pub fn tally(xs: &[u32]) -> HashMap<u32, u32> {
    let mut m = HashMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
"#,
    expect: &["D3", "D3", "D3"],
};

/// D3 good: ordered container, deterministic iteration.
pub const D3_GOOD: Fixture = Fixture {
    label: "d3-good",
    path: "crates/bench/src/fixture.rs",
    src: r#"
use std::collections::BTreeMap;
pub fn tally(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
"#,
    expect: &[],
};

/// D4 bad: NaN-unsafe sort key. Scanned under `bench` (not a D5 crate) so
/// the chained `unwrap` is claimed by D4 alone.
pub const D4_BAD: Fixture = Fixture {
    label: "d4-bad",
    path: "crates/bench/src/fixture.rs",
    src: r#"
pub fn rank(xs: &mut Vec<(String, f64)>) {
    xs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
}
"#,
    expect: &["D4"],
};

/// D4 good: total order over floats.
pub const D4_GOOD: Fixture = Fixture {
    label: "d4-good",
    path: "crates/bench/src/fixture.rs",
    src: r#"
pub fn rank(xs: &mut Vec<(String, f64)>) {
    xs.sort_by(|a, b| a.1.total_cmp(&b.1));
}
"#,
    expect: &[],
};

/// D5 bad: unwrap and expect in a library crate (two findings).
pub const D5_BAD: Fixture = Fixture {
    label: "d5-bad",
    path: "crates/tuners/src/fixture.rs",
    src: r#"
pub fn first_len(xs: &[Vec<f64>]) -> usize {
    let head = xs.first().unwrap();
    let alt = xs.last().expect("nonempty");
    head.len().max(alt.len())
}
"#,
    expect: &["D5", "D5"],
};

/// D5 good: errors propagate.
pub const D5_GOOD: Fixture = Fixture {
    label: "d5-good",
    path: "crates/tuners/src/fixture.rs",
    src: r#"
use autotune_core::error::{CoreError, CoreResult};
pub fn first_len(xs: &[Vec<f64>]) -> CoreResult<usize> {
    let head = xs.first().ok_or(CoreError::EmptyBudget)?;
    Ok(head.len())
}
"#,
    expect: &[],
};

/// Suppression with a reason: the finding is waived, no residue.
pub const SUPPRESSED: Fixture = Fixture {
    label: "suppressed",
    path: "crates/tuners/src/fixture.rs",
    src: r#"
pub fn head(xs: &[f64]) -> f64 {
    // lint:allow(unwrap) caller guarantees nonempty via ConfigSpace::validate
    *xs.first().unwrap()
}
"#,
    expect: &[],
};

/// A bare allow: the target finding is waived but the reason-less directive
/// is itself reported.
pub const BARE_ALLOW: Fixture = Fixture {
    label: "bare-allow",
    path: "crates/tuners/src/fixture.rs",
    src: r#"
pub fn head(xs: &[f64]) -> f64 {
    // lint:allow(unwrap)
    *xs.first().unwrap()
}
"#,
    expect: &["A0"],
};

/// U1 bad: an unsafe block with no `// SAFETY:` justification. Scanned
/// under the allowlisted SIMD file so U2 stays quiet and the U1 finding is
/// isolated.
pub const U1_BAD: Fixture = Fixture {
    label: "u1-bad",
    path: "crates/math/src/simd.rs",
    src: r#"
pub fn read_raw(p: *const f64) -> f64 {
    unsafe { *p }
}
"#,
    expect: &["U1"],
};

/// U1 good: the justification sits directly above the unsafe block.
pub const U1_GOOD: Fixture = Fixture {
    label: "u1-good",
    path: "crates/math/src/simd.rs",
    src: r#"
pub fn read_raw(p: *const f64) -> f64 {
    // SAFETY: caller guarantees `p` is valid for reads and aligned.
    unsafe { *p }
}
"#,
    expect: &[],
};

/// U2 bad: perfectly documented unsafe — in a crate where unsafe is not
/// allowed at all.
pub const U2_BAD: Fixture = Fixture {
    label: "u2-bad",
    path: "crates/core/src/fixture.rs",
    src: r#"
pub fn read_raw(p: *const f64) -> f64 {
    // SAFETY: caller guarantees `p` is valid for reads and aligned.
    unsafe { *p }
}
"#,
    expect: &["U2"],
};

/// U2 good: the same code is fine inside the audited SIMD module.
pub const U2_GOOD: Fixture = Fixture {
    label: "u2-good",
    path: "crates/math/src/simd.rs",
    src: r#"
pub fn read_raw(p: *const f64) -> f64 {
    // SAFETY: caller guarantees `p` is valid for reads and aligned.
    unsafe { *p }
}
"#,
    expect: &[],
};

/// U3 bad: the AVX2 call is feature-guarded but the dispatcher has no
/// reachable scalar fallback — on a non-AVX2 machine the function silently
/// does nothing.
pub const U3_BAD: Fixture = Fixture {
    label: "u3-bad",
    path: "crates/math/src/simd.rs",
    src: r#"
// SAFETY: `unsafe` only due to `#[target_feature]`; callers verify AVX2.
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, |a, b| a + b)
}
pub fn sum(xs: &[f64]) -> f64 {
    if has_avx2() {
        // SAFETY: AVX2 support verified above.
        return unsafe { sum_avx2(xs) };
    }
    0.0
}
"#,
    expect: &["U3"],
};

/// U3 good: guarded dispatch with a scalar fallback function.
pub const U3_GOOD: Fixture = Fixture {
    label: "u3-good",
    path: "crates/math/src/simd.rs",
    src: r#"
// SAFETY: `unsafe` only due to `#[target_feature]`; callers verify AVX2.
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, |a, b| a + b)
}
fn sum_scalar(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    for &x in xs {
        s += x;
    }
    s
}
pub fn sum(xs: &[f64]) -> f64 {
    if has_avx2() {
        // SAFETY: AVX2 support verified above.
        return unsafe { sum_avx2(xs) };
    }
    sum_scalar(xs)
}
"#,
    expect: &[],
};

/// C1 bad: two functions nest the same two locks in opposite orders — a
/// classic ABBA deadlock. Both witness acquisitions are reported.
pub const C1_BAD: Fixture = Fixture {
    label: "c1-bad",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn queue_then_commit(sh: &Shared) {
    let q = lock(&sh.queue);
    let c = lock(&sh.commit);
    drop(c);
    drop(q);
}
pub fn commit_then_queue(sh: &Shared) {
    let c = lock(&sh.commit);
    let q = lock(&sh.queue);
    drop(q);
    drop(c);
}
"#,
    expect: &["C1", "C1"],
};

/// C1 good: every function agrees on queue-before-commit.
pub const C1_GOOD: Fixture = Fixture {
    label: "c1-good",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn append(sh: &Shared) {
    let q = lock(&sh.queue);
    let c = lock(&sh.commit);
    drop(c);
    drop(q);
}
pub fn drain(sh: &Shared) {
    let q = lock(&sh.queue);
    let c = lock(&sh.commit);
    drop(c);
    drop(q);
}
"#,
    expect: &[],
};

/// C2 bad: fdatasync while the state guard is live — every other thread
/// touching that mutex stalls behind disk latency.
pub const C2_BAD: Fixture = Fixture {
    label: "c2-bad",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn flush(sh: &Shared, file: &mut File) -> std::io::Result<()> {
    let g = lock(&sh.state);
    file.sync_all()?;
    drop(g);
    Ok(())
}
"#,
    expect: &["C2"],
};

/// C2 good: the guard is scoped out before the sync.
pub const C2_GOOD: Fixture = Fixture {
    label: "c2-good",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn flush(sh: &Shared, file: &mut File) -> std::io::Result<()> {
    {
        let g = lock(&sh.state);
        g.clear();
    }
    file.sync_all()
}
"#,
    expect: &[],
};

/// C3 bad: the condvar wait sits under an `if`, so a spurious (or stolen)
/// wakeup proceeds without re-checking the predicate.
pub const C3_BAD: Fixture = Fixture {
    label: "c3-bad",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn take_one(sh: &Shared) -> usize {
    let mut q = lock(&sh.queue);
    if q.pending == 0 {
        q = sh.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    q.pending
}
"#,
    expect: &["C3"],
};

/// C3 good: the wait re-checks its predicate in a `while` loop. The wait
/// atomically releases `q` (passed as the argument), so no C2 either.
pub const C3_GOOD: Fixture = Fixture {
    label: "c3-good",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn take_one(sh: &Shared) -> usize {
    let mut q = lock(&sh.queue);
    while q.pending == 0 {
        q = sh.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    q.pending
}
"#,
    expect: &[],
};

/// C4 bad: the PR-6 cancel-bug shape — a state-mutating handler builds
/// its 2xx before awaiting durability, so a crash between the two acks a
/// mutation the journal never kept.
pub const C4_BAD: Fixture = Fixture {
    label: "c4-bad",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn cancel_session(state: &State) -> ServeResult<Response> {
    let ticket = lock(&state.sessions).cancel();
    let resp = Response::json(200, &Cancelled);
    state.sink.wait_durable(ticket);
    Ok(resp)
}
"#,
    expect: &["C4"],
};

/// C4 good: durability first, then the ack.
pub const C4_GOOD: Fixture = Fixture {
    label: "c4-good",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn cancel_session(state: &State) -> ServeResult<Response> {
    let ticket = lock(&state.sessions).cancel();
    state.sink.wait_durable(ticket);
    Ok(Response::json(200, &Cancelled))
}
"#,
    expect: &[],
};

/// C5 bad: the early-return path drops the commit ticket without ever
/// waiting on it; the finding anchors at the producing statement.
pub const C5_BAD: Fixture = Fixture {
    label: "c5-bad",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn checkpoint(state: &State, skip: bool) -> ServeResult<u64> {
    let (sink, ticket) = state.durability_barrier();
    if skip {
        return Ok(0);
    }
    sink.wait_durable(ticket);
    Ok(ticket)
}
"#,
    expect: &["C5"],
};

/// C5 good: every path discharges the ticket before leaving.
pub const C5_GOOD: Fixture = Fixture {
    label: "c5-good",
    path: "crates/serve/src/fixture.rs",
    src: r#"
pub fn checkpoint(state: &State, skip: bool) -> ServeResult<u64> {
    let (sink, ticket) = state.durability_barrier();
    if skip {
        sink.wait_durable(ticket);
        return Ok(0);
    }
    sink.wait_durable(ticket);
    Ok(ticket)
}
"#,
    expect: &[],
};

/// Every single-file fixture, for exhaustive test loops.
pub const ALL: &[Fixture] = &[
    D2_BAD, D2_GOOD, D3_BAD, D3_GOOD, D4_BAD, D4_GOOD, D5_BAD, D5_GOOD, SUPPRESSED, BARE_ALLOW,
    U1_BAD, U1_GOOD, U2_BAD, U2_GOOD, U3_BAD, U3_GOOD, C1_BAD, C1_GOOD, C2_BAD, C2_GOOD, C3_BAD,
    C3_GOOD, C4_BAD, C4_GOOD, C5_BAD, C5_GOOD,
];

/// A multi-file fixture: the C1 lock-order graph is per crate, so a cycle
/// can span files of one crate scanned together.
#[derive(Debug, Clone, Copy)]
pub struct MultiFixture {
    /// Short label for test diagnostics.
    pub label: &'static str,
    /// `(workspace-relative path, source)` pairs scanned as one workspace.
    pub files: &'static [(&'static str, &'static str)],
    /// Expected rule ids, in report order (sorted by file, line, rule).
    pub expect: &'static [&'static str],
}

/// C1 interprocedural bad: the lock set crosses files — `enqueue` holds
/// the queue while calling a helper (defined in another file of the same
/// crate) that takes the commit lock, while `drain` nests the two
/// directly in the opposite order. Both edges of the cycle are witnessed
/// in `flow.rs`: the helper call site and the direct nested acquisition.
pub const C1_BAD_MULTI: MultiFixture = MultiFixture {
    label: "c1-bad-multi",
    files: &[
        (
            "crates/serve/src/fixture/wal_util.rs",
            r#"
pub fn note_error(sh: &Shared, msg: String) {
    let c = lock(&sh.commit);
    c.error = Some(msg);
}
"#,
        ),
        (
            "crates/serve/src/fixture/flow.rs",
            r#"
pub fn enqueue(sh: &Shared, msg: String) {
    let q = lock(&sh.queue);
    note_error(sh, msg);
    drop(q);
}
pub fn drain(sh: &Shared) {
    let c = lock(&sh.commit);
    let q = lock(&sh.queue);
    drop(q);
    drop(c);
}
"#,
        ),
    ],
    expect: &["C1", "C1"],
};

/// C1 interprocedural good: the helper is only called after the queue
/// guard is released, so the crate-wide order stays acyclic.
pub const C1_GOOD_MULTI: MultiFixture = MultiFixture {
    label: "c1-good-multi",
    files: &[
        (
            "crates/serve/src/fixture/wal_util.rs",
            r#"
pub fn note_error(sh: &Shared, msg: String) {
    let c = lock(&sh.commit);
    c.error = Some(msg);
}
"#,
        ),
        (
            "crates/serve/src/fixture/flow.rs",
            r#"
pub fn enqueue(sh: &Shared, msg: String) {
    let q = lock(&sh.queue);
    drop(q);
    note_error(sh, msg);
}
pub fn drain(sh: &Shared) {
    let c = lock(&sh.commit);
    let q = lock(&sh.queue);
    drop(q);
    drop(c);
}
"#,
        ),
    ],
    expect: &[],
};

/// Every multi-file fixture, for exhaustive test loops.
pub const ALL_MULTI: &[MultiFixture] = &[C1_BAD_MULTI, C1_GOOD_MULTI];
