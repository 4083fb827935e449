//! Fixture-based rule tests, JSON round-trip, the two historical serve bug
//! shapes, and binary exit-code checks for `autotune-lint`. The workspace
//! self-scan itself is the root package's `tests/lint_clean.rs`.

use std::path::Path;
use std::process::Command;

use autotune_lint::fixtures;
use autotune_lint::{find_workspace_root, scan_sources, Finding, Report};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// Scans one fixture as a one-file workspace.
fn scan_one(fx: &fixtures::Fixture) -> Vec<Finding> {
    scan_sources(&[(fx.path, fx.src)]).findings
}

#[test]
fn fixtures_produce_expected_rules() {
    for fx in fixtures::ALL {
        let mut got: Vec<String> = scan_one(fx).into_iter().map(|f| f.rule).collect();
        got.sort();
        assert_eq!(
            got, fx.expect,
            "fixture `{}` (scanned as {}) produced unexpected findings",
            fx.label, fx.path
        );
    }
}

#[test]
fn multi_fixtures_produce_expected_rules() {
    for fx in fixtures::ALL_MULTI {
        let got: Vec<String> = scan_sources(fx.files)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(
            got, fx.expect,
            "multi-fixture `{}` produced unexpected findings",
            fx.label
        );
    }
}

#[test]
fn findings_carry_location_and_snippet() {
    let findings = scan_one(&fixtures::D4_BAD);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.file, fixtures::D4_BAD.path);
    assert_eq!(f.line, 3);
    assert!(f.snippet.contains("partial_cmp"));
    assert_eq!(f.name, "nan-ord");
}

#[test]
fn new_rules_fire_at_expected_lines() {
    // Single-file rules.
    for (fx, rule, line) in [
        (&fixtures::U1_BAD, "U1", 3),
        (&fixtures::U2_BAD, "U2", 4),
        (&fixtures::U3_BAD, "U3", 10),
        (&fixtures::C2_BAD, "C2", 4),
        (&fixtures::C3_BAD, "C3", 5),
        (&fixtures::C4_BAD, "C4", 4),
        (&fixtures::C5_BAD, "C5", 3),
    ] {
        let findings = scan_one(fx);
        assert_eq!(findings.len(), 1, "fixture `{}`", fx.label);
        assert_eq!(findings[0].rule, rule, "fixture `{}`", fx.label);
        assert_eq!(findings[0].line, line, "fixture `{}`", fx.label);
    }
    // C1 reports both witness acquisitions of the ABBA cycle.
    let findings = scan_one(&fixtures::C1_BAD);
    let got: Vec<(String, u32)> = findings.into_iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, vec![("C1".into(), 4), ("C1".into(), 10)]);
    // C1 across files: the cycle's witnesses are the helper call site
    // (whose lock set comes from the other file's summary) and the
    // directly nested acquisition.
    let report = scan_sources(fixtures::C1_BAD_MULTI.files);
    let got: Vec<(String, String, u32)> = report
        .findings
        .into_iter()
        .map(|f| (f.rule, f.file, f.line))
        .collect();
    let flow = "crates/serve/src/fixture/flow.rs".to_string();
    assert_eq!(
        got,
        vec![("C1".into(), flow.clone(), 4), ("C1".into(), flow, 9),]
    );
}

#[test]
fn json_report_round_trips() {
    let report = Report::new(scan_one(&fixtures::D5_BAD), 1);
    let back: Report = serde_json::from_str(&report.json()).expect("report JSON parses");
    assert_eq!(back, report);
    assert_eq!(back.findings.len(), 2);
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "expected clean exit, stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Materializes `(rel_path, src)` pairs under a fresh temp dir, runs the
/// binary on it with `args`, and returns (exit code, stdout).
fn run_on_temp_workspace(
    tag: &str,
    files: &[(&str, &str)],
    args: &[&str],
) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("autotune-lint-it-{tag}-{}", std::process::id()));
    for (rel, src) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("temp dir");
        std::fs::write(path, src).expect("write fixture");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .args(args)
        .arg(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_bad_source() {
    let (code, stdout) = run_on_temp_workspace(
        "d4",
        &[(fixtures::D4_BAD.path, fixtures::D4_BAD.src)],
        &["--json"],
    );
    assert_eq!(code, Some(1));
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "D4");
    assert_eq!(report.findings[0].file, fixtures::D4_BAD.path);
}

#[test]
fn binary_refuses_retired_options() {
    for args in [["--rules", "C4"], ["--format", "sarif"]] {
        let clean = [(fixtures::D4_GOOD.path, fixtures::D4_GOOD.src)];
        let (code, _) = run_on_temp_workspace("flags", &clean, &args);
        assert_eq!(code, Some(2), "{args:?}");
    }
}

#[test]
fn reintroduced_cancel_ack_bug_is_caught_by_c4() {
    // The exact shape PR 6 shipped and later had to fix: cancel_session
    // builds its 200 before waiting on the Cancelled record's commit
    // ticket, so a crash between the two acknowledges a cancellation the
    // journal never kept.
    let src = r#"
fn cancel_session(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id);
    let mut s = lock(&entry.session);
    s.cancel();
    let summary = SessionSummary { id };
    let response = Response::json(200, &summary);
    let (sink, ticket) = s.durability_barrier();
    drop(s);
    sink.wait_durable(ticket);
    Ok(response)
}
"#;
    let (code, stdout) = run_on_temp_workspace(
        "cancel-ack",
        &[("crates/serve/src/server.rs", src)],
        &["--json"],
    );
    assert_eq!(code, Some(1), "{stdout}");
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, "C4");
    assert_eq!(f.file, "crates/serve/src/server.rs");
    assert_eq!(f.line, 7, "finding anchors at the premature ack");
    assert!(f.snippet.contains("Response::json(200"), "{}", f.snippet);
}

#[test]
fn reintroduced_create_lock_fsync_bug_is_caught_by_c2() {
    // The shape commit 75c9cd1 shipped and a later commit fixed:
    // create_session holds the id-allocation lock across the group-commit
    // wait, so every other create queues behind an fsync.
    let src = r#"
fn create_session(state: &Arc<DaemonState>, request: &Request) -> ServeResult<Response> {
    let spec: SessionSpec = request.json()?;
    let _create_guard = lock(&state.create_lock);
    let id = state.repo.next_id()?;
    let session = LiveSession::create_with(&state.repo, id, spec, state.sink())?;
    let (sink, ticket) = session.durability_barrier();
    lock(&state.shard(id).sessions).insert(id, SessionEntry::new(session));
    sink.wait_durable(ticket)?;
    Ok(Response::json(201, &CreateResponse { id }))
}
"#;
    let (code, stdout) = run_on_temp_workspace(
        "create-fsync",
        &[("crates/serve/src/server.rs", src)],
        &["--json"],
    );
    assert_eq!(code, Some(1), "{stdout}");
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1, "{stdout}");
    let f = &report.findings[0];
    assert_eq!(f.rule, "C2");
    assert_eq!(f.file, "crates/serve/src/server.rs");
    assert_eq!(f.line, 9, "finding anchors at the wait under the guard");
    assert!(f.snippet.contains("wait_durable"), "{}", f.snippet);
}
