//! The rule engine: `#[cfg(test)]` region masking, the token-stream
//! matchers for rules D2–D5, and the item-tree matchers for the unsafe
//! audit (U1–U3). The statement-level C-series concurrency checks live in
//! [`crate::concurrency`] and are wired in here. The C1 lock-order graph
//! is per-crate, so the scan accumulates edges across files and runs
//! cycle detection once per crate.

use std::collections::BTreeMap;

use crate::callgraph::CrateIndex;
use crate::concurrency;
use crate::config::{
    classify, rule_applies, FileCtx, RuleId, ALLOWED_UNSAFE_FILES, DEFAULT_PROTOCOL,
};
use crate::items::{ItemKind, ItemTree};
use crate::lexer::{lex, Lexed, LineComment, Token};
use crate::parser;
use crate::report::{Finding, Report};
use crate::suppress;

/// Everything derived from one file before rules run: the lexed stream,
/// the test mask, the item tree, and parsed suppression directives.
pub struct Prepared {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate/test classification.
    pub ctx: FileCtx,
    /// Token stream + line comments.
    pub lexed: Lexed,
    /// Per-token test-only mask (parallel to `lexed.tokens`): the one
    /// place that decides what is test code.
    pub mask: Vec<bool>,
    /// Scoped item tree.
    pub tree: ItemTree,
    /// Source lines, for finding snippets.
    pub src_lines: Vec<String>,
    /// Parsed `lint:allow` directives.
    pub directives: Vec<suppress::Directive>,
}

/// Lexes, masks, parses, and classifies one file. Returns `None` for files
/// the analyzer skips entirely (vendored / build output).
pub fn prepare(rel_path: &str, src: &str) -> Option<Prepared> {
    let ctx = classify(rel_path)?;
    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let tree = parser::parse(&lexed.tokens);
    let directives = suppress::parse_directives(&lexed.comments);
    Some(Prepared {
        rel: rel_path.to_string(),
        ctx,
        mask,
        tree,
        src_lines: src.lines().map(str::to_string).collect(),
        directives,
        lexed,
    })
}

/// Builds the finding for `rule` at `line` in the prepared file.
fn finding_at(p: &Prepared, rule: RuleId, line: u32) -> Finding {
    Finding {
        rule: rule.id().to_string(),
        name: rule.name().to_string(),
        file: p.rel.clone(),
        line,
        snippet: p
            .src_lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
        message: rule.message().to_string(),
    }
}

/// Runs every in-scope per-file rule over a prepared file against its
/// crate's call-graph index; returns the suppressed findings plus this
/// file's raw C1 lock-order edges for the crate-wide cycle pass.
fn scan_file(p: &Prepared, index: &CrateIndex) -> (Vec<Finding>, Vec<concurrency::Edge>) {
    if p.ctx.is_test_source {
        return (Vec::new(), Vec::new());
    }
    let mut raw: Vec<(RuleId, u32)> = Vec::new();
    let claimed = match_nan_ord(&p.lexed.tokens, &p.mask, &mut raw, &p.ctx);
    match_wall_clock(&p.lexed.tokens, &p.mask, &mut raw, &p.ctx);
    match_hash_iter(&p.lexed.tokens, &p.mask, &mut raw, &p.ctx);
    match_unwrap(&p.lexed.tokens, &p.mask, &mut raw, &p.ctx, &claimed);

    if rule_applies(RuleId::SafetyComment, &p.ctx) {
        match_safety_comment(p, &mut raw);
    }
    if rule_applies(RuleId::UnsafeScope, &p.ctx) {
        match_unsafe_scope(p, &mut raw);
    }
    if rule_applies(RuleId::SimdFallback, &p.ctx) {
        match_simd_fallback(p, &mut raw);
    }

    let analysis = concurrency::analyze_file(p, &DEFAULT_PROTOCOL, index);
    raw.extend(analysis.findings);

    let findings = raw
        .into_iter()
        .map(|(rule, line)| finding_at(p, rule, line))
        .collect();
    (
        suppress::apply(findings, &p.directives, &p.rel),
        analysis.edges,
    )
}

/// Scans `(rel_path, source)` pairs as one workspace: prepare every file,
/// build the per-crate call-graph indexes, scan each file against its
/// crate's index, then run the C1 lock-order-cycle pass per crate.
pub fn scan_sources<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> Report {
    let prepared: Vec<Prepared> = files
        .iter()
        .filter_map(|(rel, src)| prepare(rel.as_ref(), src.as_ref()))
        .collect();

    let mut crate_indexes: BTreeMap<String, CrateIndex> = BTreeMap::new();
    for p in &prepared {
        if p.ctx.is_lib_source && !p.ctx.is_test_source {
            crate_indexes
                .entry(p.ctx.crate_name.clone())
                .or_default()
                .add_file(&p.tree, &p.lexed.tokens, &p.mask, &DEFAULT_PROTOCOL);
        }
    }
    let empty_index = CrateIndex::default();

    let mut findings = Vec::new();
    let mut crate_edges: BTreeMap<String, Vec<(String, concurrency::Edge)>> = BTreeMap::new();
    for p in &prepared {
        let index = crate_indexes.get(&p.ctx.crate_name).unwrap_or(&empty_index);
        let (file_findings, edges) = scan_file(p, index);
        findings.extend(file_findings);
        if !edges.is_empty() {
            crate_edges
                .entry(p.ctx.crate_name.clone())
                .or_default()
                .extend(edges.into_iter().map(|e| (p.rel.clone(), e)));
        }
    }
    // C1 pass: cycles in each crate's accumulated lock graph. These
    // findings are created after per-file suppression ran, so directives
    // are honored here.
    for edges in crate_edges.values() {
        for (file, line) in concurrency::cycle_findings(edges) {
            let Some(p) = prepared.iter().find(|p| p.rel == file) else {
                continue;
            };
            if p.directives
                .iter()
                .any(|d| d.covers(RuleId::LockOrder.id(), line))
            {
                continue;
            }
            findings.push(finding_at(p, RuleId::LockOrder, line));
        }
    }
    Report::new(findings, files.len())
}

/// True when the item starting at token `span_start` is inside masked
/// (test-only) code.
fn span_masked(p: &Prepared, span_start: usize) -> bool {
    p.mask.get(span_start).copied().unwrap_or(false)
}

/// U1: every `unsafe` block / `unsafe fn` (or impl/trait) must carry a
/// `// SAFETY:` line comment — in the contiguous comment run directly above
/// the item (above its attributes, for attributed items), or trailing on
/// the `unsafe` line itself.
fn match_safety_comment(p: &Prepared, out: &mut Vec<(RuleId, u32)>) {
    let unsafe_nodes = p.tree.collect(|i| i.is_unsafe);
    for item in unsafe_nodes {
        if span_masked(p, item.span.0) {
            continue;
        }
        let anchor = if item.kind == ItemKind::UnsafeBlock {
            item.unsafe_line
        } else {
            item.attrs
                .iter()
                .map(|a| a.line)
                .min()
                .map_or(item.line, |al| al.min(item.line))
        };
        if !has_safety_comment(&p.lexed.comments, anchor, item.unsafe_line) {
            out.push((RuleId::SafetyComment, item.unsafe_line));
        }
    }
}

/// True when a `SAFETY:` comment covers an unsafe construct anchored at
/// `anchor` (its first attribute/keyword line): either somewhere in the
/// contiguous run of line comments ending at `anchor - 1`, or trailing on
/// the `unsafe` keyword's own line.
fn has_safety_comment(comments: &[LineComment], anchor: u32, unsafe_line: u32) -> bool {
    if comments
        .iter()
        .any(|c| c.line == unsafe_line && c.text.contains("SAFETY:"))
    {
        return true;
    }
    let mut line = anchor.saturating_sub(1);
    while line > 0 {
        let Some(c) = comments.iter().find(|c| c.line == line) else {
            return false;
        };
        if c.text.contains("SAFETY:") {
            return true;
        }
        line -= 1;
    }
    false
}

/// U2: `unsafe` only in the allowlisted files; anywhere else is reported.
fn match_unsafe_scope(p: &Prepared, out: &mut Vec<(RuleId, u32)>) {
    if ALLOWED_UNSAFE_FILES.contains(&p.rel.as_str()) {
        return;
    }
    for item in p.tree.collect(|i| i.is_unsafe) {
        if span_masked(p, item.span.0) {
            continue;
        }
        out.push((RuleId::UnsafeScope, item.unsafe_line));
    }
}

/// Identifiers that prove a call site is feature-gated.
const FEATURE_GUARDS: &[&str] = &["has_avx2", "is_x86_feature_detected"];

/// U3: every AVX2 kernel (`#[target_feature(enable = "avx2")]` fn) must be
/// dispatched behind a runtime feature guard with a reachable scalar
/// fallback in the same dispatching function; a kernel nothing in the file
/// references at all is reported at its definition.
fn match_simd_fallback(p: &Prepared, out: &mut Vec<(RuleId, u32)>) {
    let kernels: Vec<_> = p
        .tree
        .collect(|i| i.kind == ItemKind::Fn && i.is_avx2_kernel())
        .into_iter()
        .filter(|i| !span_masked(p, i.span.0))
        .collect();
    if kernels.is_empty() {
        return;
    }
    let tokens = &p.lexed.tokens;

    // Dispatch-contract check: call sites inside non-kernel functions.
    let fns = p
        .tree
        .collect(|i| i.kind == ItemKind::Fn && !i.is_avx2_kernel());
    for f in &fns {
        if span_masked(p, f.span.0) {
            continue;
        }
        for idx in f.span.0..f.span.1.min(tokens.len()) {
            let is_call = tokens[idx]
                .ident()
                .is_some_and(|id| kernels.iter().any(|k| k.name == id))
                && tokens.get(idx + 1).is_some_and(|t| t.is_punct('('));
            if !is_call || p.mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            // Skip call sites that belong to a *nested* kernel's span.
            if kernels.iter().any(|k| idx >= k.span.0 && idx < k.span.1) {
                continue;
            }
            let guarded = tokens[f.span.0..idx]
                .iter()
                .any(|t| t.ident().is_some_and(|id| FEATURE_GUARDS.contains(&id)));
            let fallback = has_scalar_fallback(tokens, idx + 1, f.span.1.min(tokens.len()));
            if !guarded || !fallback {
                out.push((RuleId::SimdFallback, tokens[idx].line));
            }
        }
    }

    // Reachability check: a kernel referenced nowhere outside its own body
    // has no dispatcher at all.
    for k in &kernels {
        let referenced = tokens.iter().enumerate().any(|(idx, t)| {
            (idx < k.span.0 || idx >= k.span.1)
                && t.ident() == Some(k.name.as_str())
                && tokens.get(idx + 1).is_some_and(|n| n.is_punct('('))
                && !p.mask.get(idx).copied().unwrap_or(false)
        });
        if !referenced {
            out.push((RuleId::SimdFallback, k.line));
        }
    }
}

/// True when tokens after an AVX2 call site (up to the end of the
/// dispatching fn) contain a scalar fallback: a loop, or a call to a
/// `*_generic` / `*_scalar` function.
fn has_scalar_fallback(tokens: &[Token], from: usize, to: usize) -> bool {
    (from..to).any(|j| {
        let Some(id) = tokens[j].ident() else {
            return false;
        };
        id == "for"
            || id == "while"
            || ((id.ends_with("_generic") || id.ends_with("_scalar"))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('(')))
    })
}

/// Marks token spans that belong to test-only items: anything annotated
/// `#[test]` (or `#[foo::test]`-style) or `#[cfg(test)]` / `#[cfg(all(test,
/// ...))]`. `#[cfg(not(test))]` is live production code and stays unmasked.
/// An inner `#![cfg(test)]` masks the rest of the file.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`.
        if tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            let (end, is_test) = read_attr(tokens, i + 3);
            if is_test {
                for m in mask.iter_mut().skip(i) {
                    *m = true;
                }
                return mask;
            }
            i = end;
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (mut end, mut is_test) = read_attr(tokens, i + 2);
        // Collect any further attributes on the same item.
        while tokens.get(end).is_some_and(|t| t.is_punct('#'))
            && tokens.get(end + 1).is_some_and(|t| t.is_punct('['))
        {
            let (next_end, next_test) = read_attr(tokens, end + 2);
            is_test |= next_test;
            end = next_end;
        }
        if !is_test {
            i = end;
            continue;
        }
        let item_end = skip_item(tokens, end);
        for m in mask.iter_mut().take(item_end).skip(i) {
            *m = true;
        }
        i = item_end;
    }
    mask
}

/// Reads an attribute body starting just after `[`; returns (index after the
/// closing `]`, whether the attribute marks test-only code).
fn read_attr(tokens: &[Token], start: usize) -> (usize, bool) {
    let mut depth = 1usize; // brackets
    let mut idents: Vec<&str> = Vec::new();
    let mut i = start;
    while i < tokens.len() && depth > 0 {
        match &tokens[i].tok {
            crate::lexer::Tok::Punct('[') => depth += 1,
            crate::lexer::Tok::Punct(']') => depth -= 1,
            crate::lexer::Tok::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
        i += 1;
    }
    let is_test = match idents.first() {
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        // `#[test]`, `#[tokio::test]`, ... — but not `#[cfg_attr(test, ..)]`.
        Some(_) => idents.last() == Some(&"test"),
        None => false,
    };
    (i, is_test)
}

/// Returns the index just past the item starting at `start`: either the
/// matching `}` of its first brace block, or a `;` reached before any brace.
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    let mut depth = 0usize;
    let mut seen_brace = false;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
            seen_brace = true;
        } else if tokens[i].is_punct('}') {
            depth = depth.saturating_sub(1);
            if seen_brace && depth == 0 {
                return i + 1;
            }
        } else if tokens[i].is_punct(';') && !seen_brace {
            return i + 1;
        }
        i += 1;
    }
    tokens.len()
}

/// D2: `Instant::now` / `SystemTime::now` in pure-evaluation crates.
fn match_wall_clock(tokens: &[Token], mask: &[bool], out: &mut Vec<(RuleId, u32)>, ctx: &FileCtx) {
    if !rule_applies(RuleId::WallClock, ctx) {
        return;
    }
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let is_clock_type = tokens[i].is_ident("Instant") || tokens[i].is_ident("SystemTime");
        if is_clock_type
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push((RuleId::WallClock, tokens[i].line));
        }
    }
}

/// D3: `HashMap`/`HashSet` in report-feeding crates. The analyzer is
/// type-blind, so it conservatively flags the container at its mention
/// (import or construction): proving "never iterated" is exactly what the
/// suppression reason is for.
fn match_hash_iter(tokens: &[Token], mask: &[bool], out: &mut Vec<(RuleId, u32)>, ctx: &FileCtx) {
    if !rule_applies(RuleId::HashIter, ctx) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push((RuleId::HashIter, t.line));
        }
    }
}

/// D4: `partial_cmp(...)` chained into `.unwrap()` / `.expect(...)`.
/// Returns the token indices of the chained `unwrap`/`expect` idents so D5
/// does not double-report them.
fn match_nan_ord(
    tokens: &[Token],
    mask: &[bool],
    out: &mut Vec<(RuleId, u32)>,
    ctx: &FileCtx,
) -> Vec<usize> {
    let mut claimed = Vec::new();
    let applies = rule_applies(RuleId::NanOrd, ctx);
    for i in 0..tokens.len() {
        if mask[i] || !tokens[i].is_ident("partial_cmp") {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Find the matching close paren.
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        // `j` is just past the close paren; look for `.unwrap` / `.expect`.
        if tokens.get(j).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(j + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            claimed.push(j + 1);
            if applies {
                out.push((RuleId::NanOrd, tokens[i].line));
            }
        }
    }
    claimed
}

/// D5: `.unwrap()` / `.expect(...)` in library crates, excluding call sites
/// already claimed by D4.
fn match_unwrap(
    tokens: &[Token],
    mask: &[bool],
    out: &mut Vec<(RuleId, u32)>,
    ctx: &FileCtx,
    claimed: &[usize],
) {
    if !rule_applies(RuleId::Unwrap, ctx) {
        return;
    }
    for i in 1..tokens.len() {
        if mask[i] || claimed.contains(&i) {
            continue;
        }
        let is_call = (tokens[i].is_ident("unwrap") || tokens[i].is_ident("expect"))
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if is_call {
            out.push((RuleId::Unwrap, tokens[i].line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
        scan_sources(&[(path, src)])
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token present");
        assert!(mask[unwrap_idx]);
        let live_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live token present");
        assert!(!mask[live_idx]);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", src),
            vec![("D5".to_string(), 2)]
        );
    }

    #[test]
    fn test_attr_masks_following_fn_only() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", src),
            vec![("D5".to_string(), 3)]
        );
    }

    #[test]
    fn d4_claims_suppress_double_reporting() {
        // One partial_cmp unwrap: D4 fires, D5 must not.
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", src),
            vec![("D4".to_string(), 1)]
        );
    }

    #[test]
    fn d5_catches_plain_unwrap_but_not_unwrap_or() {
        let src = "fn f() { a.unwrap(); b.unwrap_or(0); c.expect(\"msg\"); }\n";
        assert_eq!(
            rules_at("crates/tuners/src/x.rs", src),
            vec![("D5".to_string(), 1), ("D5".to_string(), 1)]
        );
    }

    #[test]
    fn d2_scopes_to_pure_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_at("crates/math/src/x.rs", src),
            vec![("D2".to_string(), 1)]
        );
        assert!(rules_at("crates/core/src/x.rs", src).is_empty());
        assert!(rules_at("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_flags_hash_containers_in_scope() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        let found = rules_at("crates/bench/src/x.rs", src);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|(r, _)| r == "D3"));
        assert!(rules_at("crates/math/src/x.rs", src).is_empty());
    }

    // -- U-series --

    #[test]
    fn u1_requires_safety_comment_on_unsafe_block() {
        let src = "\
pub fn f(p: *const f64) -> f64 {
    unsafe { *p }
}
";
        let got = rules_at("crates/math/src/simd.rs", src);
        assert_eq!(got, vec![("U1".to_string(), 2)]);

        let good = "\
pub fn f(p: *const f64) -> f64 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
";
        assert!(rules_at("crates/math/src/simd.rs", good).is_empty());
    }

    #[test]
    fn u1_comment_run_may_span_lines_and_sit_above_attrs() {
        let src = "\
// SAFETY: callers must check AVX2 at runtime; this function reads
// 4 lanes per iteration and n is rounded down to a multiple of 4.
#[target_feature(enable = \"avx2\")]
pub unsafe fn k(xs: *const f64) {}
fn dispatch(xs: *const f64) { if has_avx2() { unsafe { k(xs) }; return; } for _ in 0..1 {} }
";
        // The kernel's U1 passes; the dispatch-site unsafe block has no
        // SAFETY comment and is reported.
        let got = rules_at("crates/math/src/simd.rs", src);
        assert_eq!(got, vec![("U1".to_string(), 5)]);
    }

    #[test]
    fn u1_accepts_trailing_same_line_comment() {
        let src = "fn f(p: *const u8) { unsafe { p.read() }; } // SAFETY: p nonnull by contract\n";
        assert!(rules_at("crates/math/src/simd.rs", src).is_empty());
    }

    #[test]
    fn u2_reports_unsafe_outside_allowlist() {
        let src = "\
// SAFETY: justified, but in the wrong place.
pub fn f(p: *const f64) -> f64 {
    // SAFETY: p valid.
    unsafe { *p }
}
";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("U2".to_string(), 4)]);
        // Same source in the allowlisted file: clean.
        assert!(rules_at("crates/math/src/simd.rs", src).is_empty());
    }

    #[test]
    fn u2_reports_unsafe_fn_and_impl() {
        let src = "\
// SAFETY: documented but misplaced.
pub unsafe fn raw() {}
";
        let got = rules_at("crates/tuners/src/x.rs", src);
        assert_eq!(got, vec![("U2".to_string(), 2)]);
    }

    #[test]
    fn u3_passes_guarded_dispatch_with_fallback() {
        let src = "\
// SAFETY: AVX2 verified by caller via has_avx2.
#[target_feature(enable = \"avx2\")]
unsafe fn axpy_avx2(n: usize) {}
pub fn axpy(n: usize) {
    if has_avx2() {
        // SAFETY: AVX2 support verified above.
        unsafe { axpy_avx2(n) };
        return;
    }
    for _i in 0..n {}
}
";
        assert!(rules_at("crates/math/src/simd.rs", src).is_empty());
    }

    #[test]
    fn u3_flags_unguarded_call_and_missing_fallback() {
        let unguarded = "\
// SAFETY: AVX2 verified by caller.
#[target_feature(enable = \"avx2\")]
unsafe fn k_avx2(n: usize) {}
pub fn k(n: usize) {
    // SAFETY: assumed.
    unsafe { k_avx2(n) };
    for _i in 0..n {}
}
";
        assert_eq!(
            rules_at("crates/math/src/simd.rs", unguarded),
            vec![("U3".to_string(), 6)]
        );

        let no_fallback = "\
// SAFETY: AVX2 verified by caller.
#[target_feature(enable = \"avx2\")]
unsafe fn k_avx2(n: usize) {}
pub fn k(n: usize) {
    if has_avx2() {
        // SAFETY: verified above.
        unsafe { k_avx2(n) };
    }
}
";
        assert_eq!(
            rules_at("crates/math/src/simd.rs", no_fallback),
            vec![("U3".to_string(), 7)]
        );
    }

    #[test]
    fn u3_accepts_generic_fallback_call_and_flags_orphan_kernel() {
        let generic = "\
// SAFETY: AVX2 verified by caller.
#[target_feature(enable = \"avx2\")]
unsafe fn t_avx2(n: usize) {}
fn t_generic(n: usize) {}
pub fn t(n: usize) {
    if has_avx2() {
        // SAFETY: verified above.
        unsafe { t_avx2(n) };
        return;
    }
    t_generic(n);
}
";
        assert!(rules_at("crates/math/src/simd.rs", generic).is_empty());

        let orphan = "\
// SAFETY: AVX2 verified by caller (but nothing calls this).
#[target_feature(enable = \"avx2\")]
unsafe fn orphan_avx2(n: usize) {}
";
        assert_eq!(
            rules_at("crates/math/src/simd.rs", orphan),
            vec![("U3".to_string(), 3)]
        );
    }

    #[test]
    fn unsafe_in_cfg_test_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(p: *const u8) { unsafe { p.read() }; }
}
";
        assert!(rules_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn u_findings_can_be_suppressed_with_reason() {
        let src = "\
pub fn f(p: *const f64) -> f64 {
    // lint:allow(U1, U2) vetted FFI shim, audited in review 2026-06
    unsafe { *p }
}
";
        assert!(rules_at("crates/core/src/x.rs", src).is_empty());
    }
}
