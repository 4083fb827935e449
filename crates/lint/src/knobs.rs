//! The workspace knob table and the K-series rules.
//!
//! Every tuner family consumes `(knob → domain → measurement)` triples, so
//! a knob that is misnamed, re-ranged, or silently unused corrupts every
//! downstream table without failing a test. This module extracts the knob
//! definitions from the simulator params modules
//! (`crates/sim/src/*/params.rs`: `pub const NAME: &str = "..."` plus the
//! `ParamSpec::{int,int_log,float,float_log,boolean,categorical}` builder
//! calls) into a [`KnobTable`], then checks consumer crates against it:
//!
//! * **K1 `knob-unknown`** — a knob-name string at a consumer site
//!   (config accessors, knob helper fns, advisory struct fields, knob-name
//!   arrays) that does not resolve in the table.
//! * **K2 `knob-domain`** — builder bounds/defaults inconsistent at a
//!   definition site, or a literal `set(...)` value outside the declared
//!   domain (wrong range, wrong type, unknown categorical choice).
//! * **K3 `knob-unused`** (warn) — a table knob never referenced (by const
//!   or by name string) outside its defining params module.

use std::collections::BTreeMap;

use crate::config::RuleId;
use crate::lexer::{parse_num, Tok, Token};

/// The statically-resolvable part of a knob's domain.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobDomain {
    /// Integer range (bounds kept as f64 for uniform comparisons).
    Int {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Float range.
    Float {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Boolean switch.
    Bool,
    /// Fixed string choices.
    Categorical {
        /// Allowed choices.
        choices: Vec<String>,
    },
    /// Builder arguments were not literal; only the name is known.
    Unknown,
}

/// One extracted knob definition.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobDef {
    /// Knob name (the string tuners use).
    pub name: String,
    /// The `const` identifier bound to the name, when one exists.
    pub const_ident: Option<String>,
    /// Defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the definition (the const, falling back to the
    /// builder call).
    pub line: u32,
    /// Statically-known domain.
    pub domain: KnobDomain,
}

/// The workspace knob table: every knob the params modules declare.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnobTable {
    /// Knob name → definition (ordered for deterministic reports).
    pub knobs: BTreeMap<String, KnobDef>,
    /// Const identifier → knob name (`SHARED_BUFFERS_MB` → ...).
    pub consts: BTreeMap<String, String>,
}

impl KnobTable {
    /// True when `name` is a declared knob.
    pub fn resolves(&self, name: &str) -> bool {
        self.knobs.contains_key(name)
    }
}

/// True for files whose knob/param definitions feed the table.
pub fn is_params_file(rel_path: &str) -> bool {
    rel_path.starts_with("crates/sim/") && rel_path.ends_with("/params.rs")
}

/// Builds the knob table from `(rel_path, tokens)` pairs of every scanned
/// file (only params files contribute).
pub fn extract_table<'a>(files: impl Iterator<Item = (&'a str, &'a [Token])>) -> KnobTable {
    let mut table = KnobTable::default();
    for (rel, tokens) in files {
        if !is_params_file(rel) {
            continue;
        }
        extract_consts(rel, tokens, &mut table);
        for call in builder_calls(tokens) {
            let Some(name) = resolve_name_arg(call.args.first(), &table) else {
                continue;
            };
            table.knobs.insert(
                name.clone(),
                KnobDef {
                    name,
                    const_ident: call.name_const.clone(),
                    file: rel.to_string(),
                    line: call.line,
                    domain: call.domain(),
                },
            );
        }
    }
    table
}

/// Collects `pub const NAME: &str = "...";` bindings.
fn extract_consts(rel: &str, tokens: &[Token], table: &mut KnobTable) {
    let _ = rel;
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("const") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        let Some(const_ident) = name_tok.ident() else {
            continue;
        };
        // const NAME : & str = "literal"
        if tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('&'))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("str"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct('='))
        {
            if let Some(lit) = tokens.get(i + 6).and_then(Token::str_lit) {
                table
                    .consts
                    .insert(const_ident.to_string(), lit.to_string());
            }
        }
    }
}

/// A `ParamSpec::<ctor>(...)` call split into top-level argument token runs.
struct BuilderCall<'a> {
    ctor: &'a str,
    line: u32,
    args: Vec<Vec<&'a Token>>,
    /// Const ident used as the name argument, if any.
    name_const: Option<String>,
}

impl BuilderCall<'_> {
    /// Parses the statically-known domain from the builder arguments.
    fn domain(&self) -> KnobDomain {
        match self.ctor {
            "int" | "int_log" | "float" | "float_log" => {
                let min = num_arg(self.args.get(1));
                let max = num_arg(self.args.get(2));
                match (min, max) {
                    (Some(min), Some(max)) if self.ctor.starts_with("int") => {
                        KnobDomain::Int { min, max }
                    }
                    (Some(min), Some(max)) => KnobDomain::Float { min, max },
                    _ => KnobDomain::Unknown,
                }
            }
            "boolean" => KnobDomain::Bool,
            "categorical" => {
                let choices: Vec<String> = self
                    .args
                    .get(1)
                    .map(|arg| {
                        arg.iter()
                            .filter_map(|t| t.str_lit().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default();
                if choices.is_empty() {
                    KnobDomain::Unknown
                } else {
                    KnobDomain::Categorical { choices }
                }
            }
            _ => KnobDomain::Unknown,
        }
    }

    /// The default-value argument index for range builders.
    fn default_arg(&self) -> Option<f64> {
        match self.ctor {
            "int" | "int_log" | "float" | "float_log" => num_arg(self.args.get(3)),
            _ => None,
        }
    }
}

/// Parses an argument token run as a (possibly negated) numeric literal.
fn num_arg(arg: Option<&Vec<&Token>>) -> Option<f64> {
    let arg = arg?;
    match arg.as_slice() {
        [t] => parse_num(t.num_lit()?),
        [neg, t] if neg.is_punct('-') => parse_num(t.num_lit()?).map(|v| -v),
        _ => None,
    }
}

/// Finds every `ParamSpec::<ctor>(...)` call and splits its arguments.
fn builder_calls(tokens: &[Token]) -> Vec<BuilderCall<'_>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if tokens[i].is_ident("ParamSpec")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 4].is_punct('(')
        {
            if let Some(ctor) = tokens[i + 3].ident() {
                let (args, end) = split_args(tokens, i + 4);
                let name_const = args
                    .first()
                    .and_then(|a| a.last())
                    .and_then(|t| t.ident())
                    .map(str::to_string);
                out.push(BuilderCall {
                    ctor,
                    line: tokens[i].line,
                    args,
                    name_const,
                });
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Splits the call starting at the `(` at `open` into top-level argument
/// token runs; returns the runs and the index past the closing `)`.
fn split_args(tokens: &[Token], open: usize) -> (Vec<Vec<&Token>>, usize) {
    let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                depth += 1;
                if depth > 1 {
                    args.last_mut().expect("nonempty").push(&tokens[i]);
                }
            }
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    let trailing_empty = args.last().is_some_and(Vec::is_empty);
                    if trailing_empty && args.len() == 1 {
                        args.clear();
                    }
                    return (args, i + 1);
                }
                args.last_mut().expect("nonempty").push(&tokens[i]);
            }
            Tok::Punct(',') if depth == 1 => args.push(Vec::new()),
            _ => {
                if depth >= 1 {
                    args.last_mut().expect("nonempty").push(&tokens[i]);
                }
            }
        }
        i += 1;
    }
    (args, i)
}

/// Resolves a builder-call name argument (string literal or const ident)
/// to the knob name.
fn resolve_name_arg(arg: Option<&Vec<&Token>>, table: &KnobTable) -> Option<String> {
    let arg = arg?;
    // Name may be `"lit"`, `CONST`, or `knobs::CONST` — take the last atom.
    let last = arg.last()?;
    if let Some(lit) = last.str_lit() {
        return Some(lit.to_string());
    }
    let ident = last.ident()?;
    table.consts.get(ident).cloned()
}

/// Config accessor methods whose first string argument is a knob name.
const KNOB_ACCESSORS: &[&str] = &["set", "i64", "f64", "bool", "str", "spec"];

/// Free helper functions whose string arguments are knob names.
const KNOB_HELPER_FNS: &[&str] = &["has", "scale_knob", "set"];

/// Struct fields initialized with knob-name strings (tuning advisories).
const KNOB_FIELDS: &[&str] = &["knob", "of"];

/// K1 + K2 consumer-site checks over one file's token stream (`mask` marks
/// test-only tokens). Pushes `(rule, line)` pairs into `out`.
pub fn check_consumers(
    tokens: &[Token],
    mask: &[bool],
    table: &KnobTable,
    out: &mut Vec<(RuleId, u32)>,
) {
    let mut claimed: Vec<usize> = Vec::new(); // token indices already checked
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        // `.accessor("name", ...)` — also drives the K2 value check for set.
        if tokens[i].is_punct('.')
            && tokens
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|id| KNOB_ACCESSORS.contains(&id))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let (args, _) = split_args(tokens, i + 2);
            if let Some(name_arg) = args.first() {
                if let Some((idx, name)) = knob_name_atom(name_arg) {
                    claimed.push(idx);
                    if !table.resolves(&name) {
                        out.push((RuleId::KnobUnknown, tokens_line(name_arg)));
                    } else if tokens.get(i + 1).is_some_and(|t| t.is_ident("set")) {
                        if let Some(def) = table.knobs.get(&name) {
                            check_set_value(args.get(1), def, out);
                        }
                    }
                }
            }
            continue;
        }
        // Helper fn call: every top-level string argument is a knob name.
        if tokens[i]
            .ident()
            .is_some_and(|id| KNOB_HELPER_FNS.contains(&id))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.'))
        {
            let (args, _) = split_args(tokens, i + 1);
            for arg in &args {
                if let Some((idx, name)) = knob_name_atom(arg) {
                    claimed.push(idx);
                    if !table.resolves(&name) {
                        out.push((RuleId::KnobUnknown, tokens_line(arg)));
                    }
                }
            }
            continue;
        }
        // Advisory struct field: `knob: "name"` (single colon, not a path).
        if tokens[i]
            .ident()
            .is_some_and(|id| KNOB_FIELDS.contains(&id))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(lit) = tokens.get(i + 2).and_then(Token::str_lit) {
                claimed.push(i + 2);
                if !table.resolves(lit) {
                    out.push((RuleId::KnobUnknown, tokens[i + 2].line));
                }
            }
            continue;
        }
        // Knob-name array: `[...]` of string literals near a `knob` ident
        // (`for knob in ["a", "b"]`, `const TARGET_KNOBS: ... = ["a"]`).
        if tokens[i].is_punct('[') && near_knob_ident(tokens, i) {
            let (elems, _) = split_args(tokens, i);
            let all_strs = !elems.is_empty()
                && elems
                    .iter()
                    .all(|e| e.len() == 1 && e[0].str_lit().is_some());
            if all_strs {
                for e in &elems {
                    if let Some(lit) = e[0].str_lit() {
                        if !table.resolves(lit) {
                            out.push((RuleId::KnobUnknown, e[0].line));
                        }
                    }
                }
            }
            continue;
        }
    }
    let _ = claimed;
}

/// True when one of the few tokens before `idx` is an identifier whose
/// lowercase form contains "knob".
fn near_knob_ident(tokens: &[Token], idx: usize) -> bool {
    (1..=6).any(|back| {
        idx.checked_sub(back)
            .and_then(|j| tokens.get(j))
            .and_then(Token::ident)
            .is_some_and(|id| id.to_ascii_lowercase().contains("knob"))
    })
}

/// Extracts a checkable knob-name atom from an argument run: a string
/// literal, or a path whose final ident is a known-const shape (checked by
/// the caller against the table). Returns `(token_index_in_run, name)` —
/// only string literals are returned; const idents resolve by definition.
fn knob_name_atom(arg: &[&Token]) -> Option<(usize, String)> {
    match arg {
        [t] => t.str_lit().map(|s| (0, s.to_string())),
        // `"lit".into()` / `"lit".to_string()` style.
        [t, rest @ ..]
            if t.str_lit().is_some() && rest.first().is_some_and(|r| r.is_punct('.')) =>
        {
            t.str_lit().map(|s| (0, s.to_string()))
        }
        _ => None,
    }
}

/// The first token's line in an argument run (for finding locations).
fn tokens_line(arg: &[&Token]) -> u32 {
    arg.first().map(|t| t.line).unwrap_or(0)
}

/// K2 value check for `set(name, ParamValue::Variant(literal))` calls.
fn check_set_value(value_arg: Option<&Vec<&Token>>, def: &KnobDef, out: &mut Vec<(RuleId, u32)>) {
    let Some(arg) = value_arg else { return };
    // Find `Int|Float|Bool|Str ( literal )` inside the argument run.
    for w in 0..arg.len() {
        let Some(variant) = arg[w].ident() else {
            continue;
        };
        if !matches!(variant, "Int" | "Float" | "Bool" | "Str") {
            continue;
        }
        if !arg.get(w + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let line = arg[w].line;
        let inner = &arg[w + 2..];
        let ok = match (variant, &def.domain) {
            ("Int", KnobDomain::Int { min, max }) | ("Float", KnobDomain::Float { min, max }) => {
                match literal_value(inner) {
                    Some(v) => v >= *min && v <= *max,
                    None => return, // computed value: not statically checkable
                }
            }
            ("Str", KnobDomain::Categorical { choices }) => {
                match inner.first().and_then(|t| t.str_lit()) {
                    Some(s) => choices.iter().any(|c| c == s),
                    None => return,
                }
            }
            ("Bool", KnobDomain::Bool) => true,
            // Literal of one type against a domain of another: only flag
            // when the value is actually a literal (computed expressions
            // may produce the right type via casts).
            (_, KnobDomain::Unknown) => true,
            ("Int", _) | ("Float", _) => literal_value(inner).is_none(),
            ("Str", _) => inner.first().and_then(|t| t.str_lit()).is_none(),
            ("Bool", _) => !matches!(
                inner.first().and_then(|t| t.ident()),
                Some("true") | Some("false")
            ),
            _ => true,
        };
        if !ok {
            out.push((RuleId::KnobDomain, line));
        }
        return;
    }
}

/// Parses `lit )` or `- lit )` at the head of a token run.
fn literal_value(inner: &[&Token]) -> Option<f64> {
    match inner {
        [t, close, ..] if close.is_punct(')') => parse_num(t.num_lit()?),
        [neg, t, close, ..] if neg.is_punct('-') && close.is_punct(')') => {
            parse_num(t.num_lit()?).map(|v| -v)
        }
        _ => None,
    }
}

/// K2 definition-site checks: every `ParamSpec` builder call with literal
/// bounds must satisfy `min <= default <= max`.
pub fn check_definitions(tokens: &[Token], mask: &[bool], out: &mut Vec<(RuleId, u32)>) {
    // Map token index ranges to the mask via the call's first token.
    let mut idx = 0usize;
    for call in builder_calls(tokens) {
        // Locate the call's opening token index to consult the mask.
        while idx < tokens.len()
            && !(tokens[idx].line == call.line && tokens[idx].is_ident("ParamSpec"))
        {
            idx += 1;
        }
        if idx < tokens.len() && mask[idx] {
            continue;
        }
        let (min, max) = match call.domain() {
            KnobDomain::Int { min, max } | KnobDomain::Float { min, max } => (min, max),
            _ => continue,
        };
        let Some(default) = call.default_arg() else {
            continue;
        };
        if min > max || default < min || default > max {
            out.push((RuleId::KnobDomain, call.line));
        }
    }
}

/// K3: table knobs never referenced (by const ident or name string) in any
/// file other than their defining params module. Returns
/// `(defining_file, rule, line, knob_name)` tuples — the def-site span so
/// the finding can point at the exact `ParamSpec` builder to delete.
pub fn unused_knobs<'a>(
    table: &KnobTable,
    files: impl Iterator<Item = (&'a str, &'a [Token])> + Clone,
) -> Vec<(String, RuleId, u32, String)> {
    let mut out = Vec::new();
    for def in table.knobs.values() {
        let referenced = files.clone().any(|(rel, tokens)| {
            if rel == def.file {
                return false;
            }
            tokens.iter().any(|t| {
                t.str_lit() == Some(def.name.as_str())
                    || (def.const_ident.is_some() && t.ident() == def.const_ident.as_deref())
            })
        });
        if !referenced {
            out.push((
                def.file.clone(),
                RuleId::KnobUnused,
                def.line,
                def.name.clone(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const PARAMS: &str = r#"
pub mod knobs {
    pub const BUFFER_MB: &str = "buffer_pool_mb";
    pub const CODEC: &str = "codec";
}
pub fn space() -> ConfigSpace {
    use knobs::*;
    ConfigSpace::new(vec![
        ParamSpec::int_log(BUFFER_MB, 64, 65536, 128, "buffer pool"),
        ParamSpec::float("fraction", 0.1, 0.9, 0.5, "share"),
        ParamSpec::categorical(CODEC, &["zlib", "lz4"], "zlib", "codec"),
        ParamSpec::boolean("compress", false, "switch"),
    ])
}
"#;

    fn table_for(src: &str) -> KnobTable {
        let lexed = lex(src);
        extract_table([("crates/sim/src/dbms/params.rs", lexed.tokens.as_slice())].into_iter())
    }

    #[test]
    fn extracts_consts_and_builders() {
        let table = table_for(PARAMS);
        assert_eq!(
            table.consts.get("BUFFER_MB").map(String::as_str),
            Some("buffer_pool_mb")
        );
        assert!(table.resolves("buffer_pool_mb"));
        assert!(table.resolves("fraction"));
        assert!(table.resolves("codec"));
        assert!(table.resolves("compress"));
        assert!(!table.resolves("nonsense"));
        match &table.knobs["buffer_pool_mb"].domain {
            KnobDomain::Int { min, max } => {
                assert_eq!(*min, 64.0);
                assert_eq!(*max, 65536.0);
            }
            other => panic!("unexpected domain {other:?}"),
        }
        match &table.knobs["codec"].domain {
            KnobDomain::Categorical { choices } => assert_eq!(choices, &["zlib", "lz4"]),
            other => panic!("unexpected domain {other:?}"),
        }
    }

    #[test]
    fn non_params_files_do_not_feed_the_table() {
        let lexed = lex(PARAMS);
        let table =
            extract_table([("crates/tuners/src/x.rs", lexed.tokens.as_slice())].into_iter());
        assert!(table.knobs.is_empty());
    }

    fn consumer_findings(table: &KnobTable, src: &str) -> Vec<(RuleId, u32)> {
        let lexed = lex(src);
        let mask = vec![false; lexed.tokens.len()];
        let mut out = Vec::new();
        check_consumers(&lexed.tokens, &mask, table, &mut out);
        out
    }

    #[test]
    fn k1_flags_unresolved_accessor_names() {
        let table = table_for(PARAMS);
        let src = r#"
fn f(c: &Configuration) {
    let a = c.i64("buffer_pool_mb");
    let b = c.i64("buffer_pool_mbb");
    let d = c.f64("fraction");
}
"#;
        let got = consumer_findings(&table, src);
        assert_eq!(got, vec![(RuleId::KnobUnknown, 4)]);
    }

    #[test]
    fn k1_checks_helper_fns_fields_and_arrays() {
        let table = table_for(PARAMS);
        let src = r#"
fn f() {
    if has("buffer_pool_mb") && has("missing_one") {}
    let adv = Advice { knob: "fraction".into(), delta: 1.0 };
    let bad = Advice { knob: "fracton".into(), delta: 1.0 };
    for knob in ["codec", "compess"] { touch(knob); }
}
"#;
        let got = consumer_findings(&table, src);
        assert_eq!(
            got,
            vec![
                (RuleId::KnobUnknown, 3),
                (RuleId::KnobUnknown, 5),
                (RuleId::KnobUnknown, 6),
            ]
        );
    }

    #[test]
    fn k2_flags_out_of_domain_set_values() {
        let table = table_for(PARAMS);
        let src = r#"
fn f(c: &mut Configuration) {
    c.set("buffer_pool_mb", ParamValue::Int(128));
    c.set("buffer_pool_mb", ParamValue::Int(1));
    c.set("fraction", ParamValue::Float(0.5));
    c.set("fraction", ParamValue::Float(2.5));
    c.set("codec", ParamValue::Str("lz4".into()));
    c.set("codec", ParamValue::Str("zstd".into()));
    c.set("buffer_pool_mb", ParamValue::Int(computed));
}
"#;
        let got = consumer_findings(&table, src);
        assert_eq!(
            got,
            vec![
                (RuleId::KnobDomain, 4),
                (RuleId::KnobDomain, 6),
                (RuleId::KnobDomain, 8),
            ]
        );
    }

    #[test]
    fn k2_definition_site_checks() {
        let src = r#"
fn space() {
    let a = ParamSpec::int("ok", 1, 10, 5, "fine");
    let b = ParamSpec::int("bad_default", 1, 10, 42, "default outside");
    let c = ParamSpec::float("inverted", 5.0, 1.0, 2.0, "min > max");
}
"#;
        let lexed = lex(src);
        let mask = vec![false; lexed.tokens.len()];
        let mut out = Vec::new();
        check_definitions(&lexed.tokens, &mask, &mut out);
        assert_eq!(out, vec![(RuleId::KnobDomain, 4), (RuleId::KnobDomain, 5)]);
    }

    #[test]
    fn k3_reports_unreferenced_knobs() {
        let params = lex(PARAMS);
        let consumer = lex(r#"fn f(c: &C) { c.i64("buffer_pool_mb"); let x = CODEC; }"#);
        let files = [
            ("crates/sim/src/dbms/params.rs", params.tokens.as_slice()),
            ("crates/tuners/src/x.rs", consumer.tokens.as_slice()),
        ];
        let table = extract_table(files.iter().map(|&(r, t)| (r, t)));
        let unused = unused_knobs(&table, files.iter().map(|&(r, t)| (r, t)));
        // buffer_pool_mb referenced by string, codec via its const ident;
        // fraction and compress are unused.
        let names: Vec<&str> = unused.iter().map(|(_, _, _, n)| n.as_str()).collect();
        assert_eq!(unused.len(), 2, "unused: {unused:?}");
        assert!(unused
            .iter()
            .all(|(f, r, _, _)| f == "crates/sim/src/dbms/params.rs" && *r == RuleId::KnobUnused));
        assert_eq!(names, vec!["compress", "fraction"]);
    }
}
