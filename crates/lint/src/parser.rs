//! A lightweight recursive-descent parser from the token stream to the
//! scoped item tree ([`crate::items`]).
//!
//! This is not a full Rust grammar: it recognizes exactly the scope
//! structure the semantic rules need — `fn` / `mod` / `impl` / `trait`
//! items (with modifiers and attributes), `unsafe` markers on items, and
//! `unsafe { ... }` blocks inside function bodies — and is deliberately
//! permissive about everything else (types, generics, operators are
//! skipped by delimiter matching). Unknown constructs never abort a parse;
//! at worst an exotic item is skipped, which fails *open* (no spurious
//! findings) rather than closed.
//!
//! For the statement-level C-series rules, [`parse_body`] additionally
//! parses a function body's token span into a [`Block`] of [`Stmt`]s:
//! `let` bindings, call expressions (free, path-qualified, and method
//! calls with receiver paths and argument ident lists), `if` / `while` /
//! `for` / `loop` / `match` structure, early `return`s, and closures
//! (whose calls are recorded as *deferred* — they may run later or
//! never). The same fail-open discipline applies: anything the grammar
//! does not model is consumed as part of a plain statement with its calls
//! still collected, and the cursor provably advances every iteration, so
//! malformed input degrades to a coarser tree, never a panic or a
//! spurious structure.

use crate::items::{Attr, Item, ItemKind, ItemTree};
use crate::lexer::{Tok, Token};

/// Parses a lexed token stream into an item tree.
pub fn parse(tokens: &[Token]) -> ItemTree {
    let mut tree = ItemTree::default();
    let mut pos = 0usize;
    parse_items(
        tokens,
        &mut pos,
        tokens.len(),
        &mut tree.items,
        Some(&mut tree.inner_attrs),
    );
    tree
}

/// Item keywords that start a scope the tree records.
const SCOPE_KEYWORDS: &[&str] = &["fn", "mod", "impl", "trait"];

/// Item keywords that are skipped as opaque items.
const OPAQUE_KEYWORDS: &[&str] = &[
    "struct",
    "enum",
    "union",
    "use",
    "static",
    "const",
    "type",
    "macro_rules",
    "macro",
];

/// Modifier keywords that may precede an item keyword.
const MODIFIERS: &[&str] = &["pub", "default", "async", "extern"];

/// Parses items in `tokens[*pos..end]` into `out`. `inner` receives
/// `#![...]` attributes when the caller wants them (top level only).
fn parse_items(
    tokens: &[Token],
    pos: &mut usize,
    end: usize,
    out: &mut Vec<Item>,
    mut inner: Option<&mut Vec<Attr>>,
) {
    while *pos < end {
        // Inner attribute `#![...]`.
        if tokens[*pos].is_punct('#')
            && tokens.get(*pos + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(*pos + 2).is_some_and(|t| t.is_punct('['))
        {
            let line = tokens[*pos].line;
            *pos += 3;
            let attr = read_attr_body(tokens, pos, end, line);
            if let Some(sink) = inner.as_deref_mut() {
                sink.push(attr);
            }
            continue;
        }
        // Outer attributes.
        let mut attrs = Vec::new();
        while *pos < end
            && tokens[*pos].is_punct('#')
            && tokens.get(*pos + 1).is_some_and(|t| t.is_punct('['))
        {
            let line = tokens[*pos].line;
            *pos += 2;
            attrs.push(read_attr_body(tokens, pos, end, line));
        }
        if *pos >= end {
            break;
        }
        if let Some(item) = parse_one_item(tokens, pos, end, attrs) {
            out.push(item);
        }
    }
}

/// Parses one item (with already-collected attributes) or skips one token.
fn parse_one_item(tokens: &[Token], pos: &mut usize, end: usize, attrs: Vec<Attr>) -> Option<Item> {
    let start = *pos;
    let start_line = tokens[start].line;
    let mut is_unsafe = false;
    let mut unsafe_line = 0u32;

    // Consume modifiers (`pub`, `pub(crate)`, `const fn`, `unsafe fn`,
    // `extern "C" fn`, ...) up to the item keyword.
    let mut i = *pos;
    while i < end {
        match tokens[i].ident() {
            Some("unsafe") => {
                is_unsafe = true;
                unsafe_line = tokens[i].line;
                i += 1;
            }
            Some("const") => {
                // `const fn` is a modifier only when `fn` (or more
                // modifiers) follow; otherwise it is a `const` item.
                if tokens
                    .get(i + 1)
                    .and_then(Token::ident)
                    .is_some_and(|id| id == "fn" || MODIFIERS.contains(&id) || id == "unsafe")
                {
                    i += 1;
                } else {
                    break;
                }
            }
            Some(m) if MODIFIERS.contains(&m) => {
                i += 1;
                // `pub(crate)` / `pub(in path)` visibility scope.
                if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
                    i = skip_delimited(tokens, i, end, '(', ')');
                }
                // `extern "C"` ABI string.
                if m == "extern" && tokens.get(i).is_some_and(|t| t.str_lit().is_some()) {
                    i += 1;
                }
            }
            _ => break,
        }
    }

    let Some(keyword) = tokens.get(i).filter(|_| i < end).and_then(Token::ident) else {
        *pos += 1;
        return None;
    };

    if SCOPE_KEYWORDS.contains(&keyword) {
        let kind = match keyword {
            "fn" => ItemKind::Fn,
            "mod" => ItemKind::Mod,
            "impl" => ItemKind::Impl,
            "trait" => ItemKind::Trait,
            _ => unreachable!("keyword list matches kinds"),
        };
        i += 1;
        let name = match kind {
            ItemKind::Fn | ItemKind::Mod | ItemKind::Trait => tokens
                .get(i)
                .filter(|_| i < end)
                .and_then(Token::ident)
                .unwrap_or("")
                .to_string(),
            _ => String::new(),
        };
        if kind == ItemKind::Fn && name.is_empty() {
            // `fn(i32) -> i32` function-pointer type position, not an item.
            *pos = i;
            return None;
        }
        // Scan to the body `{` or a terminating `;` (`mod name;`, trait
        // method declaration, extern fn declaration).
        while i < end && !tokens[i].is_punct('{') && !tokens[i].is_punct(';') {
            i += 1;
        }
        if i >= end || tokens[i].is_punct(';') {
            *pos = (i + 1).min(end);
            return Some(Item {
                kind,
                name,
                line: start_line,
                unsafe_line,
                span: (start, *pos),
                body_span: None,
                attrs,
                is_unsafe,
                children: Vec::new(),
            });
        }
        let body_start = i + 1;
        let body_end = matching_brace(tokens, i, end);
        let mut children = Vec::new();
        match kind {
            ItemKind::Fn => scan_fn_body(tokens, body_start, body_end, &mut children),
            _ => {
                let mut p = body_start;
                parse_items(tokens, &mut p, body_end, &mut children, None);
            }
        }
        *pos = (body_end + 1).min(end);
        return Some(Item {
            kind,
            name,
            line: start_line,
            unsafe_line,
            span: (start, *pos),
            body_span: (kind == ItemKind::Fn).then_some((body_start, body_end)),
            attrs,
            is_unsafe,
            children,
        });
    }

    if OPAQUE_KEYWORDS.contains(&keyword) || is_unsafe {
        // Opaque item (struct/enum/const/use/...), or `unsafe impl Send`
        // style already handled above; skip to its end.
        *pos = skip_opaque_item(tokens, i, end);
        return None;
    }

    // Not an item start (stray expression token at item level, macro
    // invocation, ...). Advance one token; macro bodies are harmless
    // because their delimiters are balanced and contain no item keywords
    // we would misparse into overlapping spans.
    *pos += 1;
    None
}

/// Reads an attribute body starting just after `[`, collecting ident and
/// string atoms until the matching `]`.
fn read_attr_body(tokens: &[Token], pos: &mut usize, end: usize, line: u32) -> Attr {
    let mut depth = 1usize;
    let mut attr = Attr {
        line,
        idents: Vec::new(),
        strs: Vec::new(),
    };
    while *pos < end && depth > 0 {
        match &tokens[*pos].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            Tok::Ident(s) => attr.idents.push(s.clone()),
            Tok::Str(s) => attr.strs.push(s.clone()),
            _ => {}
        }
        *pos += 1;
    }
    attr
}

/// Scans a function body for `unsafe { ... }` blocks and nested items.
/// Unsafe blocks nested inside other unsafe blocks are recorded too (each
/// one carries its own safety obligation).
fn scan_fn_body(tokens: &[Token], start: usize, end: usize, out: &mut Vec<Item>) {
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.is_ident("unsafe") {
            let next = tokens.get(i + 1).filter(|_| i + 1 < end);
            if next.is_some_and(|n| n.is_punct('{')) {
                let body_end = matching_brace(tokens, i + 1, end);
                out.push(Item {
                    kind: ItemKind::UnsafeBlock,
                    name: String::new(),
                    line: t.line,
                    unsafe_line: t.line,
                    span: (i, (body_end + 1).min(end)),
                    body_span: None,
                    attrs: Vec::new(),
                    is_unsafe: true,
                    children: Vec::new(),
                });
                // Keep scanning *inside* the block for nested unsafe.
                i += 2;
                continue;
            }
            if next.is_some_and(|n| {
                n.ident()
                    .is_some_and(|id| id == "fn" || MODIFIERS.contains(&id) || id == "extern")
            }) {
                // Nested `unsafe fn` item inside a body.
                let mut p = i;
                parse_items_single(tokens, &mut p, end, out);
                i = p;
                continue;
            }
            i += 1;
            continue;
        }
        if t.ident().is_some_and(|id| SCOPE_KEYWORDS.contains(&id)) {
            // Possible nested item (`fn helper() {...}` inside a body).
            // `fn` in type position (`fn(i32)`) is rejected by the parser.
            let before = i;
            let mut p = i;
            parse_items_single(tokens, &mut p, end, out);
            i = p.max(before + 1);
            continue;
        }
        i += 1;
    }
}

/// Parses exactly one item at `*pos` (no attribute collection — nested
/// items inside bodies rarely carry rule-relevant attributes, and `#`
/// tokens in expression position would misparse).
fn parse_items_single(tokens: &[Token], pos: &mut usize, end: usize, out: &mut Vec<Item>) {
    if let Some(item) = parse_one_item(tokens, pos, end, Vec::new()) {
        out.push(item);
    }
}

/// Returns the index of the `}` matching the `{` at `open`, or `end`.
fn matching_brace(tokens: &[Token], open: usize, end: usize) -> usize {
    debug_assert!(tokens[open].is_punct('{'));
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// Skips past a `open ... close` delimited run starting at `open_idx`.
fn skip_delimited(tokens: &[Token], open_idx: usize, end: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < end {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Skips an opaque item starting at `i`: ends at a `;` outside delimiters,
/// or at the matching `}` of its first brace block (struct/enum bodies,
/// `macro_rules!` braces, const-block initializers run to their `;`).
fn skip_opaque_item(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    let mut seen_brace_at_top = false;
    while j < end {
        match &tokens[j].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => {
                if tokens[j].is_punct('{') && depth == 0 {
                    seen_brace_at_top = true;
                }
                depth += 1;
            }
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 && seen_brace_at_top && tokens[j].is_punct('}') {
                    // A top-level brace block closed; `struct S { .. }` and
                    // `macro_rules! m { .. }` end here, initializer blocks
                    // (`const X: T = { .. };`) continue to the `;`.
                    if !tokens
                        .get(j + 1)
                        .is_some_and(|t| t.is_punct(';') || t.is_punct('.') || t.is_punct('='))
                    {
                        return j + 1;
                    }
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

// ---------------------------------------------------------------------------
// Statement / expression tree (C-series support)
// ---------------------------------------------------------------------------

/// A `{ ... }` body parsed into statements, with its token span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Token span `[start, end)` strictly inside the braces.
    pub span: (usize, usize),
}

/// Control structure of one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression / `let` / assignment statement; brace sub-blocks that
    /// execute inline where they appear are in [`Stmt::subs`].
    Plain,
    /// `if cond { .. } [else ..]`. An `else if` chain nests as an
    /// else-block holding a single `If` statement.
    If {
        /// The then-branch body.
        then_blk: Block,
        /// The else-branch body, when present.
        else_blk: Option<Block>,
    },
    /// `while cond { .. }` and `for pat in iter { .. }` (both may run
    /// zero times).
    While {
        /// The loop body.
        body: Block,
    },
    /// `loop { .. }` (runs at least once).
    Loop {
        /// The loop body.
        body: Block,
    },
    /// `match scrutinee { arms }`; one block per arm (guard calls are
    /// prepended to the arm block as a synthetic head statement).
    Match {
        /// Arm bodies in source order.
        arms: Vec<Block>,
    },
}

/// One call expression observed in a statement: free `f(..)`, path
/// `A::b::f(..)`, or method `recv.f(..)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Final callee name (`f` in all the forms above).
    pub callee: String,
    /// Receiver path for method calls (`self.shared.queue.lock()` →
    /// `["self", "shared", "queue"]`) or the module/type path of a
    /// path-qualified call (`Response::json(..)` → `["Response"]`);
    /// empty for unqualified free calls and for receivers that are not
    /// plain ident paths (call results, indexing, parenthesized).
    pub recv: Vec<String>,
    /// Identifier sequence of each top-level argument, in order
    /// (`f(&mut self.dir, n)` → `[["self", "dir"], ["n"]]`); an argument
    /// with no identifiers contributes an empty list.
    pub args: Vec<Vec<String>>,
    /// First argument parsed as an integer, when it is a single numeric
    /// literal (`Response::json(201, ..)` → `Some(201)`).
    pub arg0_num: Option<i64>,
    /// True for `recv.f(..)` method syntax.
    pub is_method: bool,
    /// 1-based source line of the callee token.
    pub line: u32,
    /// Token index of the callee.
    pub tok: usize,
    /// True when the call sits inside a closure body: it runs later (or
    /// never), so path-sensitive rules must not treat it as reached at
    /// this point.
    pub deferred: bool,
    /// True when the call's value is consumed through a projection
    /// chained onto it (`lock(&g).progress`, `lock(&q).pending.len()`):
    /// whatever the statement binds is the projection, not the call's
    /// return value itself. Identity adapters that hand the value back
    /// (`.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`) are looked
    /// through and do not count as projections.
    pub projected: bool,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Control structure.
    pub kind: StmtKind,
    /// 1-based line the statement starts on.
    pub line: u32,
    /// Token span `[start, end)` covering the whole statement.
    pub span: (usize, usize),
    /// End of the statement's flat head: for structured statements, the
    /// index of the first body `{`; for plain statements, `span.1`.
    pub head_end: usize,
    /// Names bound by `let` patterns (including `if let` / `while let`
    /// and `for` patterns). Path segments of enum patterns are included;
    /// consumers match on exact names they themselves bound.
    pub bindings: Vec<String>,
    /// Calls in the statement head (condition / scrutinee / flat
    /// expression), including deferred closure-body calls, in token
    /// order.
    pub calls: Vec<Call>,
    /// Brace sub-blocks of a plain statement (bare `{ .. }` blocks,
    /// `unsafe { .. }`, struct-literal and block-expression braces at
    /// the statement's top level): they execute inline where they
    /// appear.
    pub subs: Vec<Block>,
    /// True for `return ...` statements.
    pub is_return: bool,
}

impl Stmt {
    /// All directly nested blocks in source order: structured bodies
    /// (then/else, loop body, match arms) followed by plain sub-blocks.
    pub fn blocks(&self) -> Vec<&Block> {
        let mut out: Vec<&Block> = Vec::new();
        match &self.kind {
            StmtKind::Plain => {}
            StmtKind::If { then_blk, else_blk } => {
                out.push(then_blk);
                if let Some(e) = else_blk {
                    out.push(e);
                }
            }
            StmtKind::While { body } | StmtKind::Loop { body } => out.push(body),
            StmtKind::Match { arms } => out.extend(arms.iter()),
        }
        out.extend(self.subs.iter());
        out
    }
}

/// Item keywords that, at statement position, introduce a nested item
/// whose code does not execute here (the item parser records it
/// separately for per-fn analysis).
const ITEM_IN_BODY: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "use",
    "type",
    "macro_rules",
];

/// Keywords that can precede `(` without being a call.
const NON_CALLEE_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "unsafe", "fn", "impl", "where", "pub", "dyn", "await",
];

/// Parses the token range `[start, end)` (a function body) into a
/// statement tree. Fail-open: constructs the grammar does not model are
/// consumed as part of a plain statement (their calls still collected),
/// and the cursor advances every iteration, so malformed input can at
/// worst produce a coarser tree — never a panic and never an infinite
/// loop.
pub fn parse_body(tokens: &[Token], start: usize, end: usize) -> Block {
    let end = end.min(tokens.len());
    let start = start.min(end);
    let mut stmts = Vec::new();
    let mut i = start;
    while i < end {
        if tokens[i].is_punct(';') || tokens[i].is_punct(',') {
            i += 1;
            continue;
        }
        let before = i;
        if let Some(stmt) = parse_stmt(tokens, &mut i, end) {
            stmts.push(stmt);
        }
        if i <= before {
            i = before + 1; // fail-open: always make progress
        }
    }
    Block {
        stmts,
        span: (start, end),
    }
}

/// Dispatches one statement at `*pos`. Returns `None` for nested items
/// (skipped opaquely).
fn parse_stmt(tokens: &[Token], pos: &mut usize, end: usize) -> Option<Stmt> {
    let i = *pos;
    match tokens[i].ident() {
        Some("let") => parse_let(tokens, pos, end),
        Some("if") => Some(parse_if(tokens, pos, end, Vec::new())),
        Some("while") | Some("for") => Some(parse_while(tokens, pos, end)),
        Some("loop") => Some(parse_loop(tokens, pos, end, Vec::new())),
        Some("match") => Some(parse_match(tokens, pos, end, Vec::new())),
        Some(kw) if ITEM_IN_BODY.contains(&kw) => {
            *pos = skip_opaque_item(tokens, i, end);
            None
        }
        _ => Some(parse_plain(tokens, pos, end, Vec::new())),
    }
}

/// Parses `let PAT [: TYPE] = INIT ;`, collecting pattern binding names,
/// then dispatching the initializer (which may itself be an `if` /
/// `match` / `loop` expression).
fn parse_let(tokens: &[Token], pos: &mut usize, end: usize) -> Option<Stmt> {
    let start = *pos;
    let line = tokens[start].line;
    let mut bindings = Vec::new();
    let mut i = start + 1;
    let mut depth = 0usize;
    let mut in_type = false;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(':') {
            in_type = true;
        } else if depth == 0 && t.is_punct(';') {
            // `let x;` — declaration without initializer.
            *pos = i + 1;
            return Some(Stmt {
                kind: StmtKind::Plain,
                line,
                span: (start, i + 1),
                head_end: i + 1,
                bindings,
                calls: Vec::new(),
                subs: Vec::new(),
                is_return: false,
            });
        } else if depth == 0 && t.is_punct('=') {
            i += 1;
            break;
        } else if !in_type {
            if let Some(id) = t.ident() {
                if !matches!(id, "mut" | "ref" | "box") {
                    bindings.push(id.to_string());
                }
            }
        }
        i += 1;
    }
    if i >= end {
        *pos = end;
        return Some(Stmt {
            kind: StmtKind::Plain,
            line,
            span: (start, end),
            head_end: end,
            bindings,
            calls: Vec::new(),
            subs: Vec::new(),
            is_return: false,
        });
    }
    *pos = i;
    let mut stmt = match tokens[i].ident() {
        Some("if") => parse_if(tokens, pos, end, bindings),
        Some("match") => parse_match(tokens, pos, end, bindings),
        Some("loop") => parse_loop(tokens, pos, end, bindings),
        _ => parse_plain(tokens, pos, end, bindings),
    };
    stmt.line = line;
    stmt.span.0 = start;
    Some(stmt)
}

/// Parses a plain (expression / assignment) statement. `bindings`
/// carries `let` pattern names when called from [`parse_let`].
fn parse_plain(tokens: &[Token], pos: &mut usize, end: usize, bindings: Vec<String>) -> Stmt {
    let start = *pos;
    let line = tokens[start].line;
    let mut calls = Vec::new();
    let mut subs = Vec::new();
    let is_return = tokens[start].is_ident("return");
    let mut depth = 0usize; // parens + brackets
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break; // enclosing delimiter closes: not ours
            }
            depth -= 1;
            i += 1;
            continue;
        }
        if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
            i += 1; // consume the terminator / arm-element boundary
            break;
        }
        if depth == 0 && t.is_punct('}') {
            break; // enclosing block closes
        }
        if t.is_punct('{') {
            if depth > 0 {
                // Struct literal or block expression inside parens: scan
                // transparently (its calls are still collected below).
                i += 1;
                continue;
            }
            let body_end = matching_brace(tokens, i, end);
            subs.push(parse_body(tokens, i + 1, body_end));
            i = (body_end + 1).min(end);
            // Only `else` / method-chain / `?` continuations extend the
            // statement past a top-level block; anything else (including
            // a missing semicolon after `unsafe { .. }` tail blocks)
            // ends it.
            match tokens.get(i).filter(|_| i < end) {
                Some(n) if n.is_ident("else") || n.is_punct('.') || n.is_punct('?') => {}
                _ => break,
            }
            continue;
        }
        if let Some(next) = try_closure(tokens, i, end, start, &mut calls) {
            i = next;
            continue;
        }
        if let Some(call) = read_call(tokens, i, end, false) {
            calls.push(call);
        }
        i += 1;
    }
    *pos = i;
    Stmt {
        kind: StmtKind::Plain,
        line,
        span: (start, i),
        head_end: i,
        bindings,
        calls,
        subs,
        is_return,
    }
}

/// Parses `if cond { .. } [else if .. | else { .. }]`.
fn parse_if(tokens: &[Token], pos: &mut usize, end: usize, mut bindings: Vec<String>) -> Stmt {
    let start = *pos;
    let line = tokens[start].line;
    let mut calls = Vec::new();
    let mut i = start + 1;
    let brace = scan_head(tokens, &mut i, end, &mut calls, &mut bindings);
    if brace >= end {
        // Malformed condition: degrade to a flat statement.
        *pos = end;
        return Stmt {
            kind: StmtKind::Plain,
            line,
            span: (start, end),
            head_end: end,
            bindings,
            calls,
            subs: Vec::new(),
            is_return: false,
        };
    }
    let then_end = matching_brace(tokens, brace, end);
    let then_blk = parse_body(tokens, brace + 1, then_end);
    let mut i = (then_end + 1).min(end);
    let mut else_blk = None;
    if i < end && tokens[i].is_ident("else") {
        i += 1;
        if i < end && tokens[i].is_ident("if") {
            let mut p = i;
            let nested = parse_if(tokens, &mut p, end, Vec::new());
            let span = nested.span;
            else_blk = Some(Block {
                stmts: vec![nested],
                span,
            });
            i = p;
        } else if i < end && tokens[i].is_punct('{') {
            let else_end = matching_brace(tokens, i, end);
            else_blk = Some(parse_body(tokens, i + 1, else_end));
            i = (else_end + 1).min(end);
        }
    }
    *pos = i;
    Stmt {
        kind: StmtKind::If { then_blk, else_blk },
        line,
        span: (start, i),
        head_end: brace,
        bindings,
        calls,
        subs: Vec::new(),
        is_return: false,
    }
}

/// Parses `while cond { .. }` / `while let PAT = expr { .. }` /
/// `for PAT in iter { .. }` — all modeled as [`StmtKind::While`].
fn parse_while(tokens: &[Token], pos: &mut usize, end: usize) -> Stmt {
    let start = *pos;
    let line = tokens[start].line;
    let is_for = tokens[start].is_ident("for");
    let mut bindings = Vec::new();
    let mut i = start + 1;
    if is_for {
        // Pattern up to `in` at depth 0.
        let mut depth = 0usize;
        while i < end {
            let t = &tokens[i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_ident("in") {
                i += 1;
                break;
            } else if t.is_punct('{') {
                break; // malformed `for`; scan_head will stop here
            } else if let Some(id) = t.ident() {
                if !matches!(id, "mut" | "ref") {
                    bindings.push(id.to_string());
                }
            }
            i += 1;
        }
    }
    let mut calls = Vec::new();
    let brace = scan_head(tokens, &mut i, end, &mut calls, &mut bindings);
    if brace >= end {
        *pos = end;
        return Stmt {
            kind: StmtKind::Plain,
            line,
            span: (start, end),
            head_end: end,
            bindings,
            calls,
            subs: Vec::new(),
            is_return: false,
        };
    }
    let body_end = matching_brace(tokens, brace, end);
    let body = parse_body(tokens, brace + 1, body_end);
    *pos = (body_end + 1).min(end);
    Stmt {
        kind: StmtKind::While { body },
        line,
        span: (start, *pos),
        head_end: brace,
        bindings,
        calls,
        subs: Vec::new(),
        is_return: false,
    }
}

/// Parses `loop { .. }`.
fn parse_loop(tokens: &[Token], pos: &mut usize, end: usize, bindings: Vec<String>) -> Stmt {
    let start = *pos;
    let line = tokens[start].line;
    let i = start + 1;
    if i < end && tokens[i].is_punct('{') {
        let body_end = matching_brace(tokens, i, end);
        let body = parse_body(tokens, i + 1, body_end);
        *pos = (body_end + 1).min(end);
        return Stmt {
            kind: StmtKind::Loop { body },
            line,
            span: (start, *pos),
            head_end: i,
            bindings,
            calls: Vec::new(),
            subs: Vec::new(),
            is_return: false,
        };
    }
    // `loop` not followed by `{` (malformed): flat fallback.
    *pos = i;
    let mut stmt = parse_plain(tokens, pos, end, bindings);
    stmt.line = line;
    stmt.span.0 = start;
    stmt
}

/// Parses `match scrutinee { PAT [if GUARD] => BODY, .. }`.
fn parse_match(tokens: &[Token], pos: &mut usize, end: usize, mut bindings: Vec<String>) -> Stmt {
    let start = *pos;
    let line = tokens[start].line;
    let mut calls = Vec::new();
    let mut i = start + 1;
    let brace = scan_head(tokens, &mut i, end, &mut calls, &mut bindings);
    if brace >= end {
        *pos = end;
        return Stmt {
            kind: StmtKind::Plain,
            line,
            span: (start, end),
            head_end: end,
            bindings,
            calls,
            subs: Vec::new(),
            is_return: false,
        };
    }
    let body_end = matching_brace(tokens, brace, end);
    let mut arms = Vec::new();
    let mut j = brace + 1;
    while j < body_end {
        // Pattern + optional guard, up to `=>` at depth 0.
        let arm_start = j;
        let mut depth = 0usize;
        let mut arrow = body_end;
        while j < body_end {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0
                && t.is_punct('=')
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('>'))
            {
                arrow = j;
                break;
            }
            j += 1;
        }
        if arrow >= body_end {
            break; // no more arms
        }
        // Guard calls (`Some(x) if x.is_terminal() => ..`).
        let mut head_calls = Vec::new();
        scan_calls(tokens, arm_start, arrow, &mut head_calls, false);
        // Arm body: a brace block, or an expression up to `,` at depth 0.
        j = arrow + 2;
        let mut arm_blk;
        if j < body_end && tokens[j].is_punct('{') {
            let arm_end = matching_brace(tokens, j, body_end);
            arm_blk = parse_body(tokens, j + 1, arm_end);
            j = (arm_end + 1).min(body_end);
        } else {
            let expr_start = j;
            let mut depth = 0usize;
            while j < body_end {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is_punct(',') {
                    break;
                }
                j += 1;
            }
            arm_blk = parse_body(tokens, expr_start, j);
        }
        if !head_calls.is_empty() {
            // Synthetic head statement so guard calls stay visible to the
            // analyzers walking arm blocks.
            arm_blk.stmts.insert(
                0,
                Stmt {
                    kind: StmtKind::Plain,
                    line: tokens[arm_start].line,
                    span: (arm_start, arrow),
                    head_end: arrow,
                    bindings: Vec::new(),
                    calls: head_calls,
                    subs: Vec::new(),
                    is_return: false,
                },
            );
        }
        arms.push(arm_blk);
        if j < body_end && tokens[j].is_punct(',') {
            j += 1;
        }
    }
    *pos = (body_end + 1).min(end);
    Stmt {
        kind: StmtKind::Match { arms },
        line,
        span: (start, *pos),
        head_end: brace,
        bindings,
        calls,
        subs: Vec::new(),
        is_return: false,
    }
}

/// Scans a control-flow head (`if` / `while` condition, `match`
/// scrutinee) up to its body's `{` at depth 0, collecting calls, closure
/// bodies (deferred), and `let`-pattern bindings (`if let PAT = ..`).
/// Returns the brace index, or `end` when the head is malformed.
fn scan_head(
    tokens: &[Token],
    i: &mut usize,
    end: usize,
    calls: &mut Vec<Call>,
    bindings: &mut Vec<String>,
) -> usize {
    let head_start = *i;
    let mut depth = 0usize;
    let mut in_let_pat = false;
    while *i < end {
        let t = &tokens[*i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
            *i += 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
            *i += 1;
            continue;
        }
        if t.is_punct('{') {
            if depth == 0 {
                // Struct literals are illegal unparenthesized in
                // condition position, so a depth-0 `{` is the body.
                return *i;
            }
            *i += 1;
            continue;
        }
        if t.is_ident("let") {
            in_let_pat = true;
            *i += 1;
            continue;
        }
        if in_let_pat {
            if depth == 0 && t.is_punct('=') {
                in_let_pat = false;
            } else if let Some(id) = t.ident() {
                if !matches!(id, "mut" | "ref" | "box") {
                    bindings.push(id.to_string());
                }
            }
            *i += 1;
            continue;
        }
        if let Some(next) = try_closure(tokens, *i, end, head_start, calls) {
            *i = next;
            continue;
        }
        if let Some(call) = read_call(tokens, *i, end, false) {
            calls.push(call);
        }
        *i += 1;
    }
    end
}

/// Collects every call in `[from, to)` into `calls`. When `deferred` is
/// false, closure bodies found in the range are collected with
/// `deferred = true`; a deferred range stays deferred throughout.
fn scan_calls(tokens: &[Token], from: usize, to: usize, calls: &mut Vec<Call>, deferred: bool) {
    let mut i = from;
    while i < to {
        if !deferred {
            if let Some(next) = try_closure(tokens, i, to, from, calls) {
                i = next;
                continue;
            }
        }
        if let Some(call) = read_call(tokens, i, to, deferred) {
            calls.push(call);
        }
        i += 1;
    }
}

/// If `tokens[i]` opens a closure (`|args| body`, `move |args| body`,
/// `|| body`), collects the body's calls as deferred and returns the
/// index just past the closure body. Detection: a `|` whose preceding
/// token is an opening delimiter, separator, `=`, `:`, or `move` /
/// `return` / `else` — operand positions (`a | b`, `a || b`) never
/// match, because their `|` follows an operand or another `|`.
fn try_closure(
    tokens: &[Token],
    i: usize,
    to: usize,
    range_start: usize,
    calls: &mut Vec<Call>,
) -> Option<usize> {
    if !tokens[i].is_punct('|') {
        return None;
    }
    let prev_ok = i == range_start || i == 0 || {
        let p = &tokens[i - 1];
        p.is_punct('(')
            || p.is_punct(',')
            || p.is_punct('=')
            || p.is_punct('{')
            || p.is_punct(';')
            || p.is_punct(':')
            || p.is_ident("move")
            || p.is_ident("return")
            || p.is_ident("else")
    };
    if !prev_ok {
        return None;
    }
    // Parameters: to the closing `|`.
    let mut j = i + 1;
    while j < to && !tokens[j].is_punct('|') {
        j += 1;
    }
    if j + 1 >= to {
        return Some(to);
    }
    j += 1; // past closing '|'
    if tokens[j].is_punct('{') {
        let body_end = matching_brace(tokens, j, to);
        scan_calls(tokens, j + 1, body_end, calls, true);
        return Some((body_end + 1).min(to));
    }
    // Expression body: to `,` / `;` at depth 0 or a closing delimiter.
    let body_start = j;
    let mut depth = 0usize;
    while j < to {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(',') || t.is_punct(';')) {
            break;
        }
        j += 1;
    }
    scan_calls(tokens, body_start, j, calls, true);
    Some(j)
}

/// Reads one call expression whose callee ident is at `i` (followed by
/// `(`), extracting the receiver/qualifier path and per-argument ident
/// lists. Returns `None` when `tokens[i]` is not a callee (keyword, `fn`
/// definition head, macro name, plain ident).
fn read_call(tokens: &[Token], i: usize, end: usize, deferred: bool) -> Option<Call> {
    let name = tokens[i].ident()?;
    if !tokens
        .get(i + 1)
        .filter(|_| i + 1 < end)
        .is_some_and(|t| t.is_punct('('))
    {
        return None;
    }
    if NON_CALLEE_KEYWORDS.contains(&name) {
        return None;
    }
    if i > 0 && (tokens[i - 1].is_ident("fn") || tokens[i - 1].is_punct('!')) {
        // `fn name(..)` definition head; `name!(..)` is a macro and its
        // `!` lexes between ident and paren, so this arm is defensive.
        return None;
    }
    let is_method = i > 0 && tokens[i - 1].is_punct('.');
    let mut recv = Vec::new();
    if is_method {
        // Walk the receiver path back through `ident . ident . ...`.
        let mut j = i - 1; // at '.'
        while j > 0 {
            if let Some(id) = tokens[j - 1].ident() {
                recv.push(id.to_string());
                if j >= 2 && tokens[j - 2].is_punct('.') {
                    j -= 2;
                    continue;
                }
            } else {
                // Receiver is not a plain path (call result, index,
                // parenthesized): leave it unresolved.
                recv.clear();
            }
            break;
        }
        recv.reverse();
    } else if i >= 3 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
        // Path-qualified free call `a::B::f(..)`: walk segments back.
        let mut k = i as isize - 3;
        while k >= 0 {
            if let Some(id) = tokens[k as usize].ident() {
                recv.push(id.to_string());
                if k >= 2
                    && tokens[(k - 1) as usize].is_punct(':')
                    && tokens[(k - 2) as usize].is_punct(':')
                {
                    k -= 3;
                    continue;
                }
            }
            break;
        }
        recv.reverse();
    }
    // Arguments: split the paren range on top-level commas.
    let args_end = skip_delimited(tokens, i + 1, end, '(', ')');
    let inner_end = args_end.saturating_sub(1).max(i + 2); // before ')'
    let mut args: Vec<Vec<String>> = Vec::new();
    let mut arg0_toks = 0usize;
    let mut arg0_num = None;
    {
        let mut depth = 0usize;
        let mut cur: Vec<String> = Vec::new();
        let mut cur_toks = 0usize;
        let mut any = false;
        let mut k = i + 2;
        while k < inner_end {
            let t = &tokens[k];
            any = true;
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(',') {
                if args.is_empty() {
                    arg0_toks = cur_toks;
                }
                args.push(std::mem::take(&mut cur));
                cur_toks = 0;
                k += 1;
                continue;
            }
            if let Some(id) = t.ident() {
                if !matches!(id, "mut" | "ref" | "move" | "as" | "dyn") {
                    cur.push(id.to_string());
                }
            }
            if args.is_empty() && arg0_num.is_none() && cur_toks == 0 {
                if let Some(text) = t.num_lit() {
                    arg0_num = crate::lexer::parse_num(text).map(|v| v as i64);
                }
            }
            cur_toks += 1;
            k += 1;
        }
        if any {
            if args.is_empty() {
                arg0_toks = cur_toks;
            }
            args.push(cur);
        }
    }
    if arg0_toks != 1 {
        arg0_num = None; // only a lone numeric literal counts
    }
    // Projection: look past identity adapters, then a `.segment` means
    // the statement consumes a projection of the value, not the value.
    let mut projected = false;
    let mut after = args_end;
    while after + 1 < end && tokens[after].is_punct('.') {
        let Some(id) = tokens[after + 1].ident() else {
            break;
        };
        let is_call = after + 2 < end && tokens[after + 2].is_punct('(');
        if is_call && matches!(id, "unwrap" | "expect" | "unwrap_or_else") {
            after = skip_delimited(tokens, after + 2, end, '(', ')');
            continue;
        }
        projected = true;
        break;
    }
    Some(Call {
        callee: name.to_string(),
        recv,
        args,
        arg0_num,
        is_method,
        line: tokens[i].line,
        tok: i,
        deferred,
        projected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> ItemTree {
        parse(&lex(src).tokens)
    }

    #[test]
    fn parses_fns_mods_impls() {
        let src = r#"
pub fn alpha() { let x = 1; }
mod inner {
    fn beta() {}
    impl Foo {
        pub(crate) fn gamma(&self) -> u32 { 7 }
    }
}
trait T { fn decl(&self); fn with_default(&self) {} }
"#;
        let tree = tree_of(src);
        assert_eq!(tree.items.len(), 3);
        assert_eq!(tree.items[0].kind, ItemKind::Fn);
        assert_eq!(tree.items[0].name, "alpha");
        assert_eq!(tree.items[1].kind, ItemKind::Mod);
        assert_eq!(tree.items[1].name, "inner");
        let inner = &tree.items[1].children;
        assert_eq!(inner.len(), 2);
        assert_eq!(inner[0].name, "beta");
        assert_eq!(inner[1].kind, ItemKind::Impl);
        assert_eq!(inner[1].children[0].name, "gamma");
        let tr = &tree.items[2];
        assert_eq!(tr.kind, ItemKind::Trait);
        let names: Vec<&str> = tr.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["decl", "with_default"]);
    }

    #[test]
    fn unsafe_fn_and_blocks_are_recorded() {
        let src = r#"
unsafe fn kernel(x: *const f64) -> f64 { *x }
pub fn dispatch(x: &[f64]) -> f64 {
    if feature() {
        // SAFETY: checked
        return unsafe { kernel(x.as_ptr()) };
    }
    x[0]
}
"#;
        let tree = tree_of(src);
        let kernel = &tree.items[0];
        assert!(kernel.is_unsafe);
        assert_eq!(kernel.unsafe_line, 2);
        assert_eq!(kernel.kind, ItemKind::Fn);
        let dispatch = &tree.items[1];
        assert!(!dispatch.is_unsafe);
        let blocks: Vec<&Item> = dispatch
            .children
            .iter()
            .filter(|c| c.kind == ItemKind::UnsafeBlock)
            .collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].line, 6);
    }

    #[test]
    fn nested_unsafe_blocks_each_recorded() {
        let src = "fn f() { unsafe { unsafe { x } } }";
        let tree = tree_of(src);
        let blocks = tree.collect(|i| i.kind == ItemKind::UnsafeBlock);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn attributes_and_cfg_tracking() {
        let src = r#"
#[cfg(test)]
mod tests { fn t() {} }
#[cfg(not(test))]
fn live() {}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn wide() {}
"#;
        let tree = tree_of(src);
        assert_eq!(tree.items[0].attrs[0].idents, vec!["cfg", "test"]);
        assert_eq!(tree.items[1].attrs[0].idents, vec!["cfg", "not", "test"]);
        let wide = &tree.items[2];
        assert!(wide.is_avx2_kernel());
        assert!(wide.is_unsafe);
        assert_eq!(wide.attrs.len(), 2);
        assert_eq!(wide.attrs[1].strs, vec!["avx2"]);
    }

    #[test]
    fn inner_attrs_are_collected() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}";
        let tree = tree_of(src);
        assert_eq!(tree.inner_attrs.len(), 1);
        assert_eq!(tree.inner_attrs[0].idents, vec!["forbid", "unsafe_code"]);
        assert_eq!(tree.items.len(), 1);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn f() { let g: fn(i32) -> i32 = h; let u: unsafe fn() = k; }";
        let tree = tree_of(src);
        assert_eq!(tree.items.len(), 1);
        assert!(tree.items[0].children.is_empty());
    }

    #[test]
    fn opaque_items_are_skipped_without_derailing() {
        let src = r#"
use std::fmt;
const N: usize = { 3 + 4 };
static S: &str = "x";
struct Point { x: f64, y: f64 }
enum E { A, B(u8) }
macro_rules! m { ($x:expr) => { $x + 1 }; }
fn after_all() {}
"#;
        let tree = tree_of(src);
        assert_eq!(tree.items.len(), 1);
        assert_eq!(tree.items[0].name, "after_all");
    }

    #[test]
    fn spans_cover_items() {
        let src = "fn a() { x } fn b() { y }";
        let tree = tree_of(src);
        let toks = lex(src).tokens;
        let (s, e) = tree.items[0].span;
        assert!(toks[s].is_ident("fn"));
        assert!(toks[e - 1].is_punct('}'));
        assert!(tree.items[1].span.0 >= e);
    }

    #[test]
    fn unsafe_impl_and_trait() {
        let src = "unsafe impl Send for X {} unsafe trait T {} fn live() {}";
        let tree = tree_of(src);
        assert_eq!(tree.items.len(), 3);
        assert!(tree.items[0].is_unsafe);
        assert_eq!(tree.items[0].kind, ItemKind::Impl);
        assert!(tree.items[1].is_unsafe);
        assert_eq!(tree.items[1].kind, ItemKind::Trait);
    }

    // -- statement tree --------------------------------------------------

    /// Parses the body of the first (only) fn in `src`.
    fn body_of(src: &str) -> (Vec<Token>, Block) {
        let tokens = lex(src).tokens;
        let tree = parse(&tokens);
        let (s, e) = tree.items[0].body_span.expect("fn has a body");
        let block = parse_body(&tokens, s, e);
        (tokens, block)
    }

    #[test]
    fn body_span_points_inside_braces() {
        let src = "fn f(x: u32) -> u32 { g(x); 7 }";
        let tokens = lex(src).tokens;
        let tree = parse(&tokens);
        let (s, e) = tree.items[0].body_span.expect("has body");
        assert!(tokens[s].is_ident("g"));
        assert!(tokens[e].is_punct('}'));
        assert!(tree.items[0]
            .children
            .iter()
            .all(|c| c.kind != ItemKind::Fn));
    }

    #[test]
    fn plain_statements_collect_calls_and_bindings() {
        let (_, b) = body_of("fn f() { let mut g = lock(&state.sessions); g.insert(k, v); }");
        assert_eq!(b.stmts.len(), 2);
        assert_eq!(b.stmts[0].bindings, vec!["g"]);
        assert_eq!(b.stmts[0].calls.len(), 1);
        let call = &b.stmts[0].calls[0];
        assert_eq!(call.callee, "lock");
        assert!(!call.is_method);
        assert_eq!(
            call.args,
            vec![vec!["state".to_string(), "sessions".to_string()]]
        );
        let ins = &b.stmts[1].calls[0];
        assert_eq!(ins.callee, "insert");
        assert!(ins.is_method);
        assert_eq!(ins.recv, vec!["g"]);
        assert_eq!(ins.args.len(), 2);
    }

    #[test]
    fn method_chains_and_paths_resolve_receivers() {
        let (_, b) = body_of(
            "fn f() { self.shared.queue.lock(); Response::json(201, body); wal::open(dir)?; }",
        );
        let c0 = &b.stmts[0].calls[0];
        assert_eq!(c0.callee, "lock");
        assert_eq!(c0.recv, vec!["self", "shared", "queue"]);
        let c1 = &b.stmts[1].calls[0];
        assert_eq!(c1.callee, "json");
        assert_eq!(c1.recv, vec!["Response"]);
        assert_eq!(c1.arg0_num, Some(201));
        let c2 = &b.stmts[2].calls[0];
        assert_eq!(c2.callee, "open");
        assert_eq!(c2.recv, vec!["wal"]);
    }

    #[test]
    fn if_else_and_match_structure() {
        let src = r#"
fn f() {
    if let Some(s) = probe() {
        s.advance();
    } else if retry {
        again();
    } else {
        stop();
    }
    match kind {
        Kind::A if guard_fn(x) => handle_a(),
        Kind::B => { handle_b(); }
        _ => {}
    }
}
"#;
        let (_, b) = body_of(src);
        assert_eq!(b.stmts.len(), 2);
        let StmtKind::If { then_blk, else_blk } = &b.stmts[0].kind else {
            panic!("expected if");
        };
        assert!(b.stmts[0].bindings.contains(&"s".to_string()));
        assert_eq!(b.stmts[0].calls[0].callee, "probe");
        assert_eq!(then_blk.stmts[0].calls[0].callee, "advance");
        let chain = else_blk.as_ref().expect("else");
        let StmtKind::If { else_blk: last, .. } = &chain.stmts[0].kind else {
            panic!("expected else-if chain");
        };
        assert!(last.is_some());
        let StmtKind::Match { arms } = &b.stmts[1].kind else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        // Guard call surfaces as a synthetic head statement of the arm.
        assert_eq!(arms[0].stmts[0].calls[0].callee, "guard_fn");
        assert_eq!(arms[0].stmts[1].calls[0].callee, "handle_a");
        assert_eq!(arms[1].stmts[0].calls[0].callee, "handle_b");
    }

    #[test]
    fn loops_and_returns() {
        let src = r#"
fn f() {
    for job in queue.drain(len) {
        run(job);
    }
    while !*done {
        done = cv.wait(done);
    }
    loop {
        if ready() { return finish(); }
    }
}
"#;
        let (_, b) = body_of(src);
        let StmtKind::While { body } = &b.stmts[0].kind else {
            panic!("expected for-as-while");
        };
        assert_eq!(b.stmts[0].bindings, vec!["job"]);
        assert_eq!(b.stmts[0].calls[0].callee, "drain");
        assert_eq!(body.stmts[0].calls[0].callee, "run");
        let StmtKind::While { body } = &b.stmts[1].kind else {
            panic!("expected while");
        };
        assert_eq!(body.stmts[0].calls[0].callee, "wait");
        let StmtKind::Loop { body } = &b.stmts[2].kind else {
            panic!("expected loop");
        };
        let StmtKind::If { then_blk, .. } = &body.stmts[0].kind else {
            panic!("expected if in loop");
        };
        assert!(then_blk.stmts[0].is_return);
        assert_eq!(then_blk.stmts[0].calls[0].callee, "finish");
    }

    #[test]
    fn closures_defer_their_calls() {
        let src = r#"
fn f() {
    spawn(move || { work(unit); });
    let n = xs.iter().map(|x| x.cost()).sum();
    direct();
}
"#;
        let (_, b) = body_of(src);
        let spawn_calls: Vec<(&str, bool)> = b.stmts[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.deferred))
            .collect();
        assert!(spawn_calls.contains(&("spawn", false)));
        assert!(spawn_calls.contains(&("work", true)));
        let map_stmt: Vec<(&str, bool)> = b.stmts[1]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.deferred))
            .collect();
        assert!(map_stmt.contains(&("cost", true)));
        assert!(map_stmt.contains(&("iter", false)));
        assert!(!b.stmts[2].calls[0].deferred);
    }

    #[test]
    fn sub_blocks_and_or_patterns_do_not_confuse_closures() {
        let src = r#"
fn f() {
    let done = failed || { let s = lock(&entry.session); s.step() };
    let v = a | b;
}
"#;
        let (_, b) = body_of(src);
        assert_eq!(b.stmts[0].subs.len(), 1);
        let sub = &b.stmts[0].subs[0];
        assert_eq!(sub.stmts[0].calls[0].callee, "lock");
        assert_eq!(sub.stmts[1].calls[0].callee, "step");
        // `a | b` produced no closure and no calls.
        assert!(b.stmts[1].calls.is_empty());
    }

    #[test]
    fn statement_spans_stay_in_bounds_and_ordered() {
        let src = r#"
fn f() {
    let x = g(1);
    if x { h(); }
    match x { _ => i(), }
}
"#;
        let (tokens, b) = body_of(src);
        fn check(blk: &Block, n: usize) {
            assert!(blk.span.1 <= n);
            for s in &blk.stmts {
                assert!(s.span.0 <= s.span.1 && s.span.1 <= n, "span in bounds");
                assert!(s.head_end <= s.span.1 || matches!(s.kind, StmtKind::Plain));
                for sub in s.blocks() {
                    check(sub, n);
                }
            }
        }
        check(&b, tokens.len());
    }

    #[test]
    fn parse_body_is_fail_open_on_malformed_input() {
        // Unbalanced braces, stray arrows, truncated closures: must not
        // panic and must terminate.
        for src in [
            "fn f() { if { } }",
            "fn f() { match } }",
            "fn f() { let = ; loop }",
            "fn f() { x.map(|y ",
            "fn f() { ) ] } { ( }",
            "fn f() { a => b, }",
        ] {
            let tokens = lex(src).tokens;
            let tree = parse(&tokens);
            if let Some(item) = tree.items.first() {
                if let Some((s, e)) = item.body_span {
                    let blk = parse_body(&tokens, s, e);
                    assert!(blk.span.1 <= tokens.len());
                }
            }
            // Also drive parse_body over the whole file regardless of
            // item structure (worst-case recovery).
            let blk = parse_body(&tokens, 0, tokens.len());
            assert!(blk.span.1 <= tokens.len());
        }
    }
}
