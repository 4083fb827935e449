//! CLI for the workspace determinism & semantic analyzer.
//!
//! ```text
//! autotune-lint [--format human|json|sarif] [--json] [--rules LIST] [PATH]
//! ```
//!
//! Scans the workspace rooted at `PATH` (default: the enclosing workspace of
//! the current directory), prints the report in the chosen format (`--json`
//! is shorthand for `--format json`), and exits nonzero if any
//! error-severity finding survives suppression — warnings (`K3`) are
//! reported but do not fail the run.
//!
//! `--rules` restricts the report to a comma-separated list of rule ids or
//! names (`--rules C1,C4` or `--rules lock-order,ack-before-durable`). The
//! whole scan still runs (cross-file rules need the full pass); only the
//! report and the exit code are filtered.

use std::path::PathBuf;
use std::process::ExitCode;

use autotune_lint::config::RuleId;
use autotune_lint::Report;

/// Output format for the report.
enum Format {
    Human,
    Json,
    Sarif,
}

/// Parses a `--rules` value into rule ids; `Err` carries the bad token.
fn parse_rules(value: &str) -> Result<Vec<RuleId>, String> {
    let mut out = Vec::new();
    for token in value.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        match RuleId::parse(token) {
            Some(rule) => out.push(rule),
            None => return Err(token.to_string()),
        }
    }
    if out.is_empty() {
        return Err(value.to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut rules: Option<Vec<RuleId>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                let Some(value) = args.next() else {
                    eprintln!("autotune-lint: --format requires a value (human|json|sarif)");
                    return ExitCode::from(2);
                };
                format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => {
                        eprintln!("autotune-lint: unknown format `{other}` (human|json|sarif)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--rules" => {
                let Some(value) = args.next() else {
                    eprintln!(
                        "autotune-lint: --rules requires a comma-separated list (e.g. C1,C4)"
                    );
                    return ExitCode::from(2);
                };
                match parse_rules(&value) {
                    Ok(list) => rules = Some(list),
                    Err(bad) => {
                        eprintln!("autotune-lint: unknown rule `{bad}` in --rules");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: autotune-lint [--format human|json|sarif] [--json] [--rules LIST] [PATH]"
                );
                println!("Scans workspace Rust sources for determinism, unsafe-audit,");
                println!("knob-registry, and concurrency/durability findings.");
                println!("--rules LIST  report only these rules (ids or names, comma-separated)");
                println!(
                    "Exits 0 when no errors (warnings allowed), 1 on errors, 2 on I/O errors."
                );
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
            let report = match rules {
                Some(list) => {
                    let keep: Vec<&str> = list.iter().map(|r| r.id()).collect();
                    let files_scanned = report.files_scanned;
                    let findings = report
                        .findings
                        .into_iter()
                        .filter(|f| keep.contains(&f.rule.as_str()))
                        .collect();
                    Report::new(findings, files_scanned)
                }
                None => report,
            };
            match format {
                Format::Human => print!("{}", report.human()),
                Format::Json => println!("{}", report.json()),
                Format::Sarif => println!("{}", report.sarif()),
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
