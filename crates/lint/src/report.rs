//! Finding and report types, with human-readable and JSON rendering.

use serde::{Deserialize, Serialize};

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Stable rule id (`D2`..`D5`, `U1`..`U3`, `C1`..`C5`, `A0`).
    pub rule: String,
    /// Human rule name (`wall-clock`, ..., `bare-allow`).
    pub name: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Why this is a finding and what to do instead.
    pub message: String,
}

/// Everything one analyzer run produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Findings sorted by (file, line, rule) for deterministic output.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Builds a report, sorting findings deterministically.
    pub fn new(mut findings: Vec<Finding>, files_scanned: usize) -> Self {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule.as_str(),
            ))
        });
        Report {
            findings,
            files_scanned,
        }
    }

    /// True when any finding survived suppression: every rule is an
    /// error, so this is what makes the binary's exit code nonzero.
    pub fn has_errors(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable rendering, one finding per line plus a summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{} {}] {}\n    {}\n",
                f.file, f.line, f.rule, f.name, f.message, f.snippet
            ));
        }
        out.push_str(&format!(
            "autotune-lint: {} error(s) in {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// JSON rendering (round-trips through `serde_json::from_str`).
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // Serialization of plain strings/ints cannot fail; keep the
            // binary total regardless.
            format!("{{\"error\": \"serialization failed: {e}\"}}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            name: "unwrap".to_string(),
            file: file.to_string(),
            line,
            snippet: "x.unwrap()".to_string(),
            message: "m".to_string(),
        }
    }

    #[test]
    fn report_sorts_deterministically() {
        let r = Report::new(
            vec![
                finding("b.rs", 9, "D5"),
                finding("a.rs", 3, "D5"),
                finding("a.rs", 3, "D4"),
            ],
            2,
        );
        let keys: Vec<(String, u32, String)> = r
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a.rs".to_string(), 3, "D4".to_string()),
                ("a.rs".to_string(), 3, "D5".to_string()),
                ("b.rs".to_string(), 9, "D5".to_string()),
            ]
        );
    }

    #[test]
    fn json_round_trips() {
        let r = Report::new(vec![finding("a.rs", 1, "D5")], 1);
        let back: Report = serde_json::from_str(&r.json()).expect("valid JSON");
        assert_eq!(back, r);
    }

    #[test]
    fn human_rendering_has_location_and_summary() {
        let r = Report::new(vec![finding("crates/core/src/x.rs", 7, "D5")], 3);
        let text = r.human();
        assert!(text.contains("crates/core/src/x.rs:7: [D5 unwrap]"));
        assert!(text.contains("1 error(s) in 3 file(s) scanned"));
    }
}
