//! Inline suppression directives.
//!
//! A finding can be waived with a line comment of the form
//! `lint:allow(<rule>) <reason>` — for example
//! `// lint:allow(unwrap) length checked two lines above`. The directive
//! suppresses matching findings on its own line and on the line directly
//! below (so it can sit on its own line above the offending statement).
//! Rules are named by id (`D5`) or name (`unwrap`); several may be listed
//! comma-separated. A directive with no reason text after the closing paren
//! is itself reported as an `A0 bare-allow` finding: suppressions must carry
//! their justification.

use crate::config::RuleId;
use crate::lexer::LineComment;
use crate::report::Finding;

/// A parsed `lint:allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Rules the directive names (unknown names are dropped).
    pub rules: Vec<RuleId>,
    /// True when non-empty reason text follows the closing paren.
    pub has_reason: bool,
    /// The raw comment text, for reporting.
    pub raw: String,
}

impl Directive {
    /// True when this directive waives `rule` for a finding on `line`.
    pub fn covers(&self, rule_id: &str, line: u32) -> bool {
        (line == self.line || line == self.line + 1) && self.rules.iter().any(|r| r.id() == rule_id)
    }
}

const MARKER: &str = "lint:allow(";

/// Extracts directives from the file's line comments.
pub fn parse_directives(comments: &[LineComment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let Some(start) = c.text.find(MARKER) else {
            continue;
        };
        let after = &c.text[start + MARKER.len()..];
        let Some(close) = after.find(')') else {
            continue; // Unterminated; treat as prose.
        };
        let rules: Vec<RuleId> = after[..close]
            .split(',')
            .filter_map(|s| RuleId::parse(s.trim()))
            .collect();
        let has_reason = !after[close + 1..].trim().is_empty();
        out.push(Directive {
            line: c.line,
            rules,
            has_reason,
            raw: c.text.trim().to_string(),
        });
    }
    out
}

/// Drops findings waived by a directive and reports bare (reason-less)
/// directives as `A0` findings.
pub fn apply(raw: Vec<Finding>, directives: &[Directive], file: &str) -> Vec<Finding> {
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !directives.iter().any(|d| d.covers(&f.rule, f.line)))
        .collect();
    for d in directives.iter().filter(|d| !d.has_reason) {
        out.push(Finding {
            rule: RuleId::BareAllow.id().to_string(),
            name: RuleId::BareAllow.name().to_string(),
            file: file.to_string(),
            line: d.line,
            snippet: d.raw.clone(),
            message: RuleId::BareAllow.message().to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: u32, text: &str) -> LineComment {
        LineComment {
            line,
            text: text.to_string(),
        }
    }

    fn finding(rule: RuleId, line: u32) -> Finding {
        Finding {
            rule: rule.id().to_string(),
            name: rule.name().to_string(),
            file: "f.rs".to_string(),
            line,
            snippet: String::new(),
            message: String::new(),
        }
    }

    #[test]
    fn parses_rule_and_reason() {
        let ds = parse_directives(&[comment(4, " lint:allow(unwrap) bounds checked above")]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rules, vec![RuleId::Unwrap]);
        assert!(ds[0].has_reason);
        assert!(ds[0].covers("D5", 4));
        assert!(ds[0].covers("D5", 5));
        assert!(!ds[0].covers("D5", 6));
        assert!(!ds[0].covers("D4", 4));
    }

    #[test]
    fn multiple_rules_comma_separated() {
        let ds = parse_directives(&[comment(1, " lint:allow(D4, unwrap) shared justification")]);
        assert_eq!(ds[0].rules, vec![RuleId::NanOrd, RuleId::Unwrap]);
    }

    #[test]
    fn suppresses_same_and_next_line_only() {
        let ds = parse_directives(&[comment(10, " lint:allow(unwrap) invariant")]);
        let kept = apply(
            vec![
                finding(RuleId::Unwrap, 10),
                finding(RuleId::Unwrap, 11),
                finding(RuleId::Unwrap, 12),
            ],
            &ds,
            "f.rs",
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 12);
    }

    #[test]
    fn bare_allow_is_a_finding_but_still_suppresses() {
        let ds = parse_directives(&[comment(3, " lint:allow(unwrap)")]);
        let kept = apply(vec![finding(RuleId::Unwrap, 3)], &ds, "f.rs");
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "A0");
        assert_eq!(kept[0].line, 3);
    }

    #[test]
    fn prose_mentions_are_not_directives() {
        let ds = parse_directives(&[comment(1, " suppression uses lint:allow syntax")]);
        assert!(ds.is_empty());
    }
}
