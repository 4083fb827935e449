//! The `claims` command line: entries are unique, every entry's artifact
//! is committed, and a misspelt entry or a stray argument is refused
//! instead of silently running something else.

use std::path::Path;
use std::process::{Command, Output};

fn claims(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_claims"))
        .args(args)
        .output()
        .expect("claims runs")
}

/// `(name, artifact path)` for every registry entry, from `claims list`.
fn entries() -> Vec<(String, String)> {
    let out = claims(&["list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|l| {
            let (name, artifact) = l.split_once('\t').expect("name<TAB>artifact");
            (name.to_string(), artifact.to_string())
        })
        .collect()
}

#[test]
fn bad_arguments_exit_non_zero_with_one_line() {
    for args in [
        &["run", "tabel1"][..],
        &["run", "table1", "abc"],
        &["run"],
        &["list", "extra"],
        &[],
    ] {
        let out = claims(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn entry_names_and_artifacts_are_unique() {
    let entries = entries();
    assert!(entries.len() >= 16);
    let names: std::collections::BTreeSet<&str> = entries.iter().map(|e| e.0.as_str()).collect();
    assert_eq!(names.len(), entries.len(), "duplicate entry name");
    let artifacts: std::collections::BTreeSet<&str> =
        entries.iter().map(|e| e.1.as_str()).collect();
    assert_eq!(
        artifacts.len(),
        entries.len(),
        "two entries share an artifact"
    );
}

#[test]
fn every_artifact_is_committed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, artifact) in entries() {
        assert!(artifact.starts_with("bench_results/"), "{name}: {artifact}");
        assert!(root.join(&artifact).is_file(), "{name}: {artifact} missing");
    }
}
