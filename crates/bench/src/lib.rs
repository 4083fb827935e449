//! # autotune-bench
//!
//! The benchmark harness that regenerates **every table and quantitative
//! claim** of Lu et al. (VLDB 2019): Table 1 ([`table1`]), Table 2
//! ([`table2`]), and the prose claims C1–C7 ([`claims`]), plus the
//! ground-truth knob-sensitivity oracle ([`sensitivity`]), shared
//! session plumbing ([`harness`]), paired-seed claim statistics
//! ([`stats`]), and a repository-backed replay mode
//! ([`replay`]) that summarizes an `autotune-serve` session store without
//! re-running any evaluations.
//!
//! Binaries (see `src/bin/`): `table1`, `table2`, `speedup_claim`,
//! `hadoop_vs_db`, `spark_sensitivity`, `interactions`, `replay_repo`.
//! Criterion benches live in `benches/`.

#![warn(missing_docs)]

pub mod ablation;
pub mod claims;
pub mod exec;
pub mod harness;
pub mod replay;
pub mod sensitivity;
pub mod stats;
pub mod table1;
pub mod table2;

use std::path::Path;

/// Writes a serializable report to `bench_results/<name>.json` (relative
/// to the workspace root), creating the directory if needed.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, json);
    }
}

/// The checked-out commit (`git rev-parse HEAD`, with `+dirty` when
/// tracked files differ from it), or `unknown`: the provenance stamp of a
/// committed timing artifact.
pub fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|changes| !changes.trim().is_empty());
            format!("{}{}", head.trim(), if dirty { "+dirty" } else { "" })
        }
        None => "unknown".to_string(),
    }
}
