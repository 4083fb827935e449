//! # autotune-bench
//!
//! The benchmark harness that regenerates **every table and quantitative
//! claim** of Lu et al. (VLDB 2019): Table 1 ([`table1`]), Table 2
//! ([`table2`]), the prose claims C1–C7 ([`claims`]) and the design
//! ablations ([`ablation`]), plus two proof experiments for extensions
//! ([`constrained_search`], [`drift_recovery`]). Shared pieces: the
//! ground-truth knob-sensitivity oracle ([`sensitivity`]), session
//! plumbing ([`harness`]), the session fan-out ([`exec`]), paired-seed
//! claim statistics ([`stats`]), and a repository-backed replay mode
//! ([`replay`]) that summarizes an `autotune-serve` session store without
//! re-running any evaluations.
//!
//! Binaries (see `src/bin/`): `claims` runs every deterministic experiment
//! above from one registry (`claims list`, `claims run <name>|all`) and
//! writes its committed artifact under `bench_results/`; `gp_regret`
//! compares GP trajectories over paired seeds; `gp_speedup`,
//! `exec_speedup` and `serve_load` time things; `replay_repo` summarizes a
//! session store. Criterion benches live in `benches/`.

#![warn(missing_docs)]

pub mod ablation;
pub mod claims;
pub mod constrained_search;
pub mod drift_recovery;
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
///
/// # Panics
/// When the directory or the file cannot be written, naming the path: a
/// generator that failed quietly would leave the old committed file in
/// place, and the artifact check would pass on it.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    write_json_in(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"),
        name,
        value,
    );
}

fn write_json_in<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("serializing {}: {e}", path.display()));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        panic!("writing {}: {e}", path.display());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "writing")]
    fn write_json_panics_when_the_directory_cannot_be_made() {
        // A regular file where the directory should be.
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        write_json_in(&file.join("sub"), "report", &1u8);
    }
}
