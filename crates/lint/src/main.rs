//! CLI for the workspace determinism & semantic analyzer.
//!
//! ```text
//! autotune-lint [--json] [PATH]
//! ```
//!
//! Scans the workspace rooted at `PATH` (default: the enclosing workspace of
//! the current directory), prints the report (human-readable, or JSON with
//! `--json`), and exits 1 if any finding survives suppression, 2 on a usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: autotune-lint [--json] [PATH]");
                println!("Scans workspace Rust sources for determinism, unsafe-audit,");
                println!("and concurrency/durability findings.");
                println!("Exits 0 when clean, 1 on findings, 2 on usage or I/O errors.");
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("autotune-lint: unrecognized argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        autotune_lint::find_workspace_root(&cwd)
    });

    match autotune_lint::scan_workspace(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.json());
            } else {
                print!("{}", report.human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("autotune-lint: failed to scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
