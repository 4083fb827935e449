//! `autotune-lint`: a workspace determinism & numerical-robustness analyzer.
//!
//! The parallel `SessionExecutor` promises byte-identical reports at any
//! thread count, and every experiment table is only trustworthy if tuner
//! evaluations are pure and replayable. This crate enforces the invariants
//! that property rests on that neither the compiler nor a test already
//! checks, as token-level rules over the workspace's own sources (the
//! workspace vendors no parser crates, so [`lexer`] is a small
//! purpose-built lexer):
//!
//! | id | name | scope | what it catches |
//! |----|------|-------|-----------------|
//! | D2 | `wall-clock` | `math`, `sim`, `tuners`, `serve` src | `Instant::now`, `SystemTime::now` |
//! | D3 | `hash-iter` | `core`, `tuners`, `bench`, `serve` src | `HashMap` / `HashSet` (order hazard) |
//! | D4 | `nan-ord` | everywhere | `partial_cmp(..).unwrap()` / `.expect(..)` |
//! | D5 | `unwrap` | `core`, `math`, `sim`, `tuners`, `serve` src | `.unwrap()` / `.expect(..)` |
//!
//! On top of the token stream, [`parser`] builds a scoped item tree
//! (fn/mod/impl/trait spans, `unsafe` blocks, attributes) that powers the
//! unsafe audit:
//!
//! | id | name | scope | what it catches |
//! |----|------|-------|-----------------|
//! | U1 | `safety-comment` | everywhere | `unsafe` without a `// SAFETY:` justification |
//! | U2 | `unsafe-scope` | everywhere | `unsafe` outside `math::{simd,batch}`, `serve::signal` |
//! | U3 | `simd-fallback` | everywhere | AVX2 kernel without guard + scalar fallback |
//!
//! [`parser::parse_body`] further parses each fn body into a statement /
//! expression tree, and [`callgraph`] summarizes every fn's direct lock
//! acquisitions and durability waits per crate. Together they power the
//! C-series concurrency & durability-protocol analyzers in
//! [`concurrency`] (protocol configuration lives in
//! [`config::DEFAULT_PROTOCOL`]):
//!
//! | id | name | scope | what it catches |
//! |----|------|-------|-----------------|
//! | C1 | `lock-order` | all `src` | cycle in the per-crate lock-acquisition graph |
//! | C2 | `blocking-while-locked` | all `src` | fsync / recv / sleep / wait under a live guard |
//! | C3 | `condvar-wait-not-in-loop` | all `src` | `wait` result not re-checked in a loop |
//! | C4 | `ack-before-durable` | `serve` src | 2xx ack path missing a durability wait |
//! | C5 | `unwaited-ticket` | `serve` src | ticket / driver guard dropped unwaited on a path |
//!
//! `#[cfg(test)]` items and `tests/` directories are exempt. Findings can be
//! waived inline with a justified `lint:allow` comment (see [`suppress`]);
//! a reason-less allow is itself reported (`A0 bare-allow`). Every rule is
//! an error: any surviving finding fails the run.
//!
//! Retired rules, each with no finding on any committed tree and another
//! check that already covers it (DESIGN.md §4b has the evidence):
//!
//! | id | name | what covers it now |
//! |----|------|--------------------|
//! | D1 | `unseeded-rng` | the compiler: the vendored `rand` has no `thread_rng` / `from_entropy` / `from_os_rng` |
//! | K1 | `knob-unknown` | the compiler: consumers name knobs by the `params::knobs` constants |
//! | K2 | `knob-domain` | `ParamSpec::validate` at definition sites; literal `set` values are unchecked |
//! | K3 | `knob-unused` | nothing (it only warned, and nothing read warnings) |
//! | K4–K6 | knob-interval dataflow | never fired on this workspace |

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod concurrency;
pub mod config;
pub mod fixtures;
pub mod items;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod suppress;

pub use report::{Finding, Report};
pub use rules::scan_sources;

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "bench_results"];

/// Recursively collects `.rs` files under `root`, workspace-relative and
/// sorted for deterministic reports.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans every workspace source under `root` and returns the report.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let paths = collect_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, fs::read_to_string(path)?));
    }
    Ok(scan_sources(&files))
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`; falls back to `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_skips_vendor_and_target() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        let files = collect_sources(&root).expect("workspace readable");
        assert!(files.iter().all(|p| {
            let rel = p.strip_prefix(&root).unwrap_or(p).to_string_lossy();
            !rel.starts_with("vendor/") && !rel.starts_with("target/")
        }));
        assert!(files
            .iter()
            .any(|p| p.to_string_lossy().contains("crates/lint/src/lib.rs")));
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(root.join("crates").is_dir());
    }
}
