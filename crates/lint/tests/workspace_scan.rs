//! Fixture-based rule tests, JSON round-trip, SARIF snapshot, workspace
//! self-scan, and binary exit-code checks for `autotune-lint`.

use std::path::Path;
use std::process::Command;

use autotune_lint::fixtures;
use autotune_lint::{find_workspace_root, scan_source, scan_sources, scan_workspace, Report};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// Scans a multi-file fixture as one mini-workspace.
fn scan_multi(fx: &fixtures::MultiFixture) -> Report {
    let files: Vec<(String, String)> = fx
        .files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    scan_sources(&files)
}

#[test]
fn fixtures_produce_expected_rules() {
    for fx in fixtures::ALL {
        let mut got: Vec<String> = scan_source(fx.path, fx.src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
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
        let got: Vec<String> = scan_multi(fx)
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
    let findings = scan_source(fixtures::D4_BAD.path, fixtures::D4_BAD.src);
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
        (&fixtures::K2_DEF_BAD, "K2", 3),
        (&fixtures::C2_BAD, "C2", 4),
        (&fixtures::C3_BAD, "C3", 5),
        (&fixtures::C4_BAD, "C4", 4),
        (&fixtures::C5_BAD, "C5", 3),
    ] {
        let findings = scan_source(fx.path, fx.src);
        assert_eq!(findings.len(), 1, "fixture `{}`", fx.label);
        assert_eq!(findings[0].rule, rule, "fixture `{}`", fx.label);
        assert_eq!(findings[0].line, line, "fixture `{}`", fx.label);
    }
    // C1 reports both witness acquisitions of the ABBA cycle.
    let findings = scan_source(fixtures::C1_BAD.path, fixtures::C1_BAD.src);
    let got: Vec<(String, u32)> = findings.into_iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, vec![("C1".into(), 4), ("C1".into(), 10)]);
    // Cross-file rules.
    for (fx, rule, line) in [
        (&fixtures::K1_BAD_MULTI, "K1", 4),
        (&fixtures::K2_SET_BAD_MULTI, "K2", 3),
        (&fixtures::K3_BAD_MULTI, "K3", 10),
    ] {
        let report = scan_multi(fx);
        assert_eq!(report.findings.len(), 1, "fixture `{}`", fx.label);
        assert_eq!(report.findings[0].rule, rule, "fixture `{}`", fx.label);
        assert_eq!(report.findings[0].line, line, "fixture `{}`", fx.label);
    }
    // C1 across files: the cycle's witnesses are the helper call site
    // (whose lock set comes from the other file's summary) and the
    // directly nested acquisition.
    let report = scan_multi(&fixtures::C1_BAD_MULTI);
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
fn k3_is_warning_and_does_not_error_the_report() {
    let report = scan_multi(&fixtures::K3_BAD_MULTI);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].severity, "warning");
    assert!(!report.is_clean());
    assert!(!report.has_errors());
}

#[test]
fn json_report_round_trips() {
    let findings = scan_source(fixtures::D5_BAD.path, fixtures::D5_BAD.src);
    let report = Report::new(findings, 1);
    let back: Report = serde_json::from_str(&report.json()).expect("report JSON parses");
    assert_eq!(back, report);
    assert_eq!(back.findings.len(), 2);
}

#[test]
fn sarif_snapshot_for_one_finding() {
    let findings = scan_source(fixtures::D4_BAD.path, fixtures::D4_BAD.src);
    let report = Report::new(findings, 1);
    let sarif = report.sarif();
    // Shape snapshot: the one result block, byte-exact. (The rule catalog
    // above it is covered by the unit tests.)
    let expected_result = r#"  "runs": [
    {
      "tool": {
        "driver": {
          "name": "autotune-lint","#;
    assert!(
        sarif.contains(expected_result),
        "SARIF run/tool framing changed:\n{sarif}"
    );
    let expected = r#"      "results": [
        {
          "ruleId": "D4",
          "level": "error",
          "message": {
            "text": "NaN-unsafe float ordering panics on NaN; use f64::total_cmp or handle the None"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "crates/bench/src/fixture.rs"
                },
                "region": {
                  "startLine": 3,
                  "snippet": {
                    "text": "xs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());"
                  }
                }
              }
            }
          ]
        }
      ]"#;
    assert!(
        sarif.contains(expected),
        "SARIF result shape changed:\n{sarif}"
    );
}

#[test]
fn sarif_snapshot_for_c_series_finding() {
    let findings = scan_source(fixtures::C4_BAD.path, fixtures::C4_BAD.src);
    let report = Report::new(findings, 1);
    let sarif = report.sarif();
    // The C-series rules appear in the auto-derived rule catalog …
    for (id, name) in [
        ("C1", "lock-order"),
        ("C2", "blocking-while-locked"),
        ("C3", "condvar-wait-not-in-loop"),
        ("C4", "ack-before-durable"),
        ("C5", "unwaited-ticket"),
    ] {
        assert!(
            sarif.contains(&format!("\"id\": \"{id}\"")),
            "missing catalog entry for {id}:\n{sarif}"
        );
        assert!(
            sarif.contains(&format!("\"name\": \"{name}\"")),
            "missing catalog name for {id}:\n{sarif}"
        );
    }
    // … and a C4 result block is byte-exact.
    let expected = r#"      "results": [
        {
          "ruleId": "C4",
          "level": "error",
          "message": {
            "text": "2xx response on a path that never awaited durability; call the durability wait before acking"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "crates/serve/src/fixture.rs"
                },
                "region": {
                  "startLine": 4,
                  "snippet": {
                    "text": "let resp = Response::json(200, &Cancelled);"
                  }
                }
              }
            }
          ]
        }
      ]"#;
    assert!(
        sarif.contains(expected),
        "SARIF C4 result shape changed:\n{sarif}"
    );
}

#[test]
fn workspace_self_scan_is_clean() {
    let report = scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        report.is_clean(),
        "workspace self-scan must be clean, found:\n{}",
        report.human()
    );
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(report.files_scanned > 100);
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
        "d1",
        &[("crates/tuners/src/fixture.rs", fixtures::D1_BAD.src)],
        &["--json"],
    );
    assert_eq!(code, Some(1));
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "D1");
    assert_eq!(report.findings[0].file, "crates/tuners/src/fixture.rs");
}

#[test]
fn binary_catches_injected_knob_typo_across_crates() {
    // The typo lives in a tuner crate; the knob table comes from the sim
    // params module — the finding proves the scan is cross-crate.
    let (code, stdout) =
        run_on_temp_workspace("k1", fixtures::K1_BAD_MULTI.files, &["--format", "json"]);
    assert_eq!(code, Some(1));
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "K1");
    assert_eq!(report.findings[0].file, "crates/tuners/src/fixture.rs");
    assert!(report.findings[0].snippet.contains("executor_memory_mbb"));
}

#[test]
fn binary_warnings_do_not_fail_the_run() {
    let (code, stdout) =
        run_on_temp_workspace("k3", fixtures::K3_BAD_MULTI.files, &["--format", "json"]);
    assert_eq!(code, Some(0), "warnings alone must exit 0:\n{stdout}");
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "K3");
    assert_eq!(report.findings[0].severity, "warning");
}

#[test]
fn rules_filter_restricts_report_and_exit_code() {
    let files = &[("crates/serve/src/fixture.rs", fixtures::C4_BAD.src)];
    // Selected rule matches: finding reported, exit 1.
    let (code, stdout) = run_on_temp_workspace("rules-hit", files, &["--rules", "C4", "--json"]);
    assert_eq!(code, Some(1), "{stdout}");
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "C4");
    assert_eq!(report.findings[0].line, 4);
    // Rule names work too.
    let (code, _) = run_on_temp_workspace(
        "rules-name",
        files,
        &["--rules", "ack-before-durable", "--json"],
    );
    assert_eq!(code, Some(1));
    // Filtering to an unrelated rule empties the report and the exit code.
    let (code, stdout) = run_on_temp_workspace("rules-miss", files, &["--rules", "D5", "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    let report: Report = serde_json::from_str(&stdout).expect("JSON output parses");
    assert!(report.findings.is_empty());
    // Unknown rules are a usage error, including the retired K4–K6.
    for bad in ["C9", "K4", "knob-cross"] {
        let (code, _) = run_on_temp_workspace("rules-bad", files, &["--rules", bad]);
        assert_eq!(code, Some(2), "--rules {bad}");
    }
    // The filter applies to SARIF output as well.
    let (code, stdout) = run_on_temp_workspace(
        "rules-sarif",
        files,
        &["--rules", "C4", "--format", "sarif"],
    );
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"ruleId\": \"C4\""));
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
        &["--rules", "C4", "--json"],
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
fn binary_emits_sarif() {
    let (code, stdout) = run_on_temp_workspace(
        "sarif",
        &[("crates/tuners/src/fixture.rs", fixtures::D1_BAD.src)],
        &["--format", "sarif"],
    );
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"version\": \"2.1.0\""));
    assert!(stdout.contains("\"ruleId\": \"D1\""));
}
