//! C-series analyzers: statement-level concurrency and
//! durability-protocol rules over the parsed statement tree
//! ([`crate::parser::parse_body`]) and the per-crate call graph
//! ([`crate::callgraph`]).
//!
//! - **C1 lock-order**: every lock acquisition made while another guard
//!   is live contributes an edge `held → acquired` to a per-crate
//!   lock-order graph (one call level of interprocedural propagation:
//!   calling a function whose summary acquires locks counts as acquiring
//!   them here). Any edge that lies on a cycle is reported at its
//!   acquisition site.
//! - **C2 blocking-while-locked**: a configured blocking call (fsync,
//!   channel `recv`, `sleep`, socket I/O, condvar/handle waits) reached
//!   while a tracked `MutexGuard` binding is live. Condvar waits exempt
//!   the guard they atomically release (passed as an argument).
//! - **C3 condvar-wait-not-in-loop**: a guard-taking `wait` /
//!   `wait_timeout` not lexically inside a `while` / `for` / `loop`
//!   body — a missed-wakeup / spurious-wakeup hazard. The `*_while`
//!   predicate variants are exempt by construction.
//! - **C4 ack-before-durable**: in a configured state-mutating handler,
//!   a path that reaches a 2xx response constructor before reaching a
//!   durability wait (directly or via a one-level callee summary).
//! - **C5 unwaited-ticket-drop**: a `let`-bound obligation value (commit
//!   ticket pair, RAII driver guard) with a path to scope end or an
//!   explicit `return` on which its discharge method was never called.
//!   Any other use of the value (moved, stored, closed over) counts as
//!   an escape and discharges the obligation — fail-open.
//!
//! Known false-negative limits (by design, documented in DESIGN.md §4b):
//! calls inside closures are deferred and not credited to the enclosing
//! path; guards passed by reference with a single-ident argument are
//! treated as moved (released); lock keys are canonicalized to their
//! last field segment, so distinct fields with the same name conflate;
//! interprocedural propagation is one call level with name-based
//! resolution; `?` early returns are not modeled as exits for C5; and
//! obligations constructed without a `let` binding are not tracked.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{lock_key, CrateIndex};
use crate::config::{rule_applies, Protocol, RuleId};
use crate::items::ItemKind;
use crate::lexer::Token;
use crate::parser::{parse_body, Block, Call, Stmt, StmtKind};
use crate::rules::Prepared;

/// One lock-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Canonical key of the held lock.
    pub from: String,
    /// Canonical key of the newly acquired lock.
    pub to: String,
    /// 1-based line of the nested acquisition (the witness site).
    pub line: u32,
}

/// Per-file C-series output: C2–C5 findings (to merge into the per-file
/// pass) plus raw C1 edges (cycle detection is per-crate; see
/// [`cycle_findings`]).
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// `(rule, line)` pairs, pre-suppression.
    pub findings: Vec<(RuleId, u32)>,
    /// Lock-order edges observed in this file.
    pub edges: Vec<Edge>,
}

/// Runs every in-scope C-series analyzer over a prepared file.
pub fn analyze_file(p: &Prepared, protocol: &Protocol, index: &CrateIndex) -> FileAnalysis {
    let mut out = FileAnalysis::default();
    let c1 = rule_applies(RuleId::LockOrder, &p.ctx);
    let c2 = rule_applies(RuleId::BlockingLock, &p.ctx);
    let c3 = rule_applies(RuleId::CondvarLoop, &p.ctx);
    let c4 = rule_applies(RuleId::AckDurable, &p.ctx);
    let c5 = rule_applies(RuleId::TicketDrop, &p.ctx);
    if !(c1 || c2 || c3 || c4 || c5) {
        return out;
    }
    let tokens = &p.lexed.tokens;
    p.tree.walk(&mut |item| {
        if item.kind != ItemKind::Fn {
            return;
        }
        let Some((bs, be)) = item.body_span else {
            return;
        };
        if p.mask.get(item.span.0).copied().unwrap_or(false) {
            return;
        }
        if protocol.lock_fns.contains(&item.name.as_str()) {
            // The lock helper itself is the acquisition primitive.
            return;
        }
        let block = parse_body(tokens, bs, be);
        if c1 || c2 {
            let mut scopes: Vec<Vec<GuardSlot>> = Vec::new();
            walk_locks(&block, protocol, index, &mut scopes, c2, &mut out);
        }
        if c3 {
            walk_c3(&block, protocol, false, &mut out.findings);
        }
        if c4 && protocol.mutating_handlers.contains(&item.name.as_str()) {
            walk_c4(&block, protocol, index, false, &mut out.findings);
        }
        if c5 {
            let mut state: Vec<Oblig> = Vec::new();
            let mut leaks: BTreeSet<u32> = BTreeSet::new();
            walk_c5(tokens, &block, protocol, &mut state, &mut leaks);
            out.findings
                .extend(leaks.into_iter().map(|l| (RuleId::TicketDrop, l)));
        }
    });
    if !c1 {
        out.edges.clear();
    }
    out
}

/// Reports the witness line of every lock-order edge that lies on a
/// cycle of the crate-wide acquisition graph, as `(file, line)` pairs.
pub fn cycle_findings(edges: &[(String, Edge)]) -> Vec<(String, u32)> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, e) in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let mut out: Vec<(String, u32)> = edges
        .iter()
        .filter(|(_, e)| reaches(&adj, &e.to, &e.from))
        .map(|(file, e)| (file.clone(), e.line))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// True when `target` is reachable from `from` in the edge graph.
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, target: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == target {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

// ---------------------------------------------------------------------------
// C1 + C2: guard-scope walk
// ---------------------------------------------------------------------------

/// A live, tracked mutex guard.
struct GuardSlot {
    /// Binding name (`let g = lock(..)`); statement temporaries are not
    /// tracked past their statement and never produce a slot.
    name: String,
    /// Canonical lock key.
    key: String,
}

/// True for calls that block the current thread.
fn is_blocking(call: &Call, protocol: &Protocol) -> bool {
    protocol.blocking_calls.contains(&call.callee.as_str())
        || protocol.durability_waits.contains(&call.callee.as_str())
        || is_condvar_wait(call, protocol)
}

/// True for guard-releasing condvar-style waits (including the
/// predicate variants and zero-arg handle `wait()`s).
fn is_condvar_wait(call: &Call, protocol: &Protocol) -> bool {
    call.is_method
        && (protocol.condvar_waits.contains(&call.callee.as_str())
            || protocol.condvar_pred_waits.contains(&call.callee.as_str()))
}

/// Walks a block tracking live guard bindings per lexical scope,
/// emitting C1 edges at nested acquisitions and C2 findings at blocking
/// calls under a live guard.
fn walk_locks(
    block: &Block,
    protocol: &Protocol,
    index: &CrateIndex,
    scopes: &mut Vec<Vec<GuardSlot>>,
    c2: bool,
    out: &mut FileAnalysis,
) {
    scopes.push(Vec::new());
    for stmt in &block.stmts {
        let mut new_guard: Option<GuardSlot> = None;
        for call in &stmt.calls {
            if call.deferred {
                continue;
            }
            if let Some(key) = lock_key(call, protocol) {
                for g in scopes.iter().flatten() {
                    if g.key != key {
                        out.edges.push(Edge {
                            from: g.key.clone(),
                            to: key.clone(),
                            line: call.line,
                        });
                    }
                }
                // Only plain `let g = ..lock()..;` statements create a
                // tracked guard. A lock in an `if let` / `while` / `match`
                // head is a statement temporary (dropped at the end of the
                // condition expression in the common `.field.clone()`
                // shapes this codebase uses), and the head's pattern
                // bindings are not the guard. Likewise a projected lock
                // (`let n = lock(&q).pending.len();`) binds the
                // projection, not the guard, which dies with the
                // statement.
                if new_guard.is_none() && matches!(stmt.kind, StmtKind::Plain) && !call.projected {
                    if let Some(name) = stmt.bindings.iter().find(|b| b.as_str() != "_") {
                        new_guard = Some(GuardSlot {
                            name: name.clone(),
                            key,
                        });
                    }
                }
                continue;
            }
            // Interprocedural, one call level: a local callee's direct
            // acquisitions count as acquisitions at this call site.
            // `drop(x)` never resolves here: the free function shadows
            // any same-named `Drop::drop` impl summaries in the index.
            if call.callee != "drop" {
                if let Some(sum) = index.fns.get(call.callee.as_str()) {
                    for l in &sum.locks {
                        for g in scopes.iter().flatten() {
                            if g.key != *l {
                                out.edges.push(Edge {
                                    from: g.key.clone(),
                                    to: l.clone(),
                                    line: call.line,
                                });
                            }
                        }
                    }
                }
            }
            let condvar = is_condvar_wait(call, protocol);
            if c2 && is_blocking(call, protocol) {
                let hazard = scopes.iter().flatten().any(|g| {
                    !(condvar && call.args.iter().any(|a| a.len() == 1 && a[0] == g.name))
                });
                if hazard {
                    out.findings.push((RuleId::BlockingLock, call.line));
                }
            }
            if !condvar {
                // A guard passed as a bare single-ident argument (incl.
                // `drop(g)`) is treated as moved: released. Borrowed
                // passes (`f(&g)`) are indistinguishable at token level
                // and release too — a documented false-negative bias.
                for a in &call.args {
                    if a.len() == 1 {
                        kill(scopes, &a[0]);
                    }
                }
            }
        }
        if let Some(g) = new_guard {
            if let Some(top) = scopes.last_mut() {
                top.push(g);
            }
        }
        for blk in stmt.blocks() {
            walk_locks(blk, protocol, index, scopes, c2, out);
        }
    }
    scopes.pop();
}

/// Releases the innermost guard named `name`.
fn kill(scopes: &mut [Vec<GuardSlot>], name: &str) {
    for scope in scopes.iter_mut().rev() {
        if let Some(pos) = scope.iter().rposition(|g| g.name == name) {
            scope.remove(pos);
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// C3: condvar wait must sit in a loop
// ---------------------------------------------------------------------------

/// Flags guard-taking condvar waits not lexically inside a loop body.
fn walk_c3(block: &Block, protocol: &Protocol, in_loop: bool, out: &mut Vec<(RuleId, u32)>) {
    for stmt in &block.stmts {
        for call in &stmt.calls {
            if call.deferred {
                continue;
            }
            if call.is_method
                && protocol.condvar_waits.contains(&call.callee.as_str())
                && !call.args.is_empty()
                && !in_loop
            {
                out.push((RuleId::CondvarLoop, call.line));
            }
        }
        let loops = matches!(stmt.kind, StmtKind::While { .. } | StmtKind::Loop { .. });
        for blk in stmt.blocks() {
            walk_c3(blk, protocol, in_loop || loops, out);
        }
    }
}

// ---------------------------------------------------------------------------
// C4: no 2xx ack before a durability wait
// ---------------------------------------------------------------------------

/// True when the call marks the path durable: a configured wait, or a
/// one-level local callee whose summary waits.
fn is_wait_call(call: &Call, protocol: &Protocol, index: &CrateIndex) -> bool {
    protocol.durability_waits.contains(&call.callee.as_str())
        || index.fns.get(call.callee.as_str()).is_some_and(|s| s.waits)
}

/// True for 2xx ack constructors (`Response::json(200, ..)`).
fn is_ack_call(call: &Call, protocol: &Protocol) -> bool {
    protocol.ack_fns.contains(&call.callee.as_str())
        && call.recv.last().map(String::as_str) == Some(protocol.ack_recv)
        && call.arg0_num.is_some_and(|n| (200..=299).contains(&n))
}

/// Path-sensitively walks a handler body. Returns `(waited_after,
/// diverged)`: whether every path reaching the end of the block has
/// passed a durability wait, and whether every path through the block
/// returns early. Branch joins AND the waited flag over non-diverging
/// branches; `while` bodies may run zero times so they do not update the
/// flag; `loop` bodies run at least once and do.
fn walk_c4(
    block: &Block,
    protocol: &Protocol,
    index: &CrateIndex,
    entry_waited: bool,
    out: &mut Vec<(RuleId, u32)>,
) -> (bool, bool) {
    let mut waited = entry_waited;
    for stmt in &block.stmts {
        // Head calls and plain sub-blocks, in token order.
        enum Ev<'a> {
            Call(&'a Call),
            Sub(&'a Block),
        }
        let mut evs: Vec<(usize, Ev)> = stmt
            .calls
            .iter()
            .filter(|c| !c.deferred)
            .map(|c| (c.tok, Ev::Call(c)))
            .collect();
        if matches!(stmt.kind, StmtKind::Plain) {
            evs.extend(stmt.subs.iter().map(|b| (b.span.0, Ev::Sub(b))));
        }
        evs.sort_by_key(|(tok, _)| *tok);
        for (_, ev) in evs {
            match ev {
                Ev::Call(c) => {
                    if is_wait_call(c, protocol, index) {
                        waited = true;
                    } else if is_ack_call(c, protocol) && !waited {
                        out.push((RuleId::AckDurable, c.line));
                    }
                }
                Ev::Sub(b) => {
                    let (w, d) = walk_c4(b, protocol, index, waited, out);
                    waited = w;
                    if d {
                        return (waited, true);
                    }
                }
            }
        }
        match &stmt.kind {
            StmtKind::Plain => {}
            StmtKind::If { then_blk, else_blk } => {
                let (wt, dt) = walk_c4(then_blk, protocol, index, waited, out);
                let (we, de) = match else_blk {
                    Some(e) => walk_c4(e, protocol, index, waited, out),
                    None => (waited, false),
                };
                if dt && de {
                    return (waited, true);
                }
                waited = match (dt, de) {
                    (true, _) => we,
                    (_, true) => wt,
                    _ => wt && we,
                };
            }
            StmtKind::While { body } => {
                // May run zero times: findings inside still report, but
                // the exit flag keeps the entry value.
                let _ = walk_c4(body, protocol, index, waited, out);
            }
            StmtKind::Loop { body } => {
                let (wb, db) = walk_c4(body, protocol, index, waited, out);
                waited = wb;
                if db {
                    return (waited, true);
                }
            }
            StmtKind::Match { arms } => {
                let mut live: Vec<bool> = Vec::new();
                for arm in arms {
                    let (w, d) = walk_c4(arm, protocol, index, waited, out);
                    if !d {
                        live.push(w);
                    }
                }
                if !arms.is_empty() && live.is_empty() {
                    return (waited, true);
                }
                if !live.is_empty() {
                    waited = live.iter().all(|w| *w);
                }
            }
        }
        if stmt.is_return {
            return (waited, true);
        }
    }
    (waited, false)
}

// ---------------------------------------------------------------------------
// C5: obligations must be discharged on every path
// ---------------------------------------------------------------------------

/// One armed obligation: a `let`-bound producer result that must see its
/// discharge method before going out of scope.
#[derive(Debug, Clone)]
struct Oblig {
    /// Names bound by the producing `let` pattern.
    members: Vec<String>,
    /// 1-based line of the producing statement (the finding anchor).
    line: u32,
    /// Method that discharges the obligation.
    discharge: &'static str,
    /// True once discharged (or escaped — fail open).
    discharged: bool,
}

/// If `call` matches a configured producer, returns its discharge
/// method. `Type::method` producers match path-qualified calls; bare
/// names match any call with that callee.
fn producer_discharge(call: &Call, protocol: &Protocol) -> Option<&'static str> {
    for (producer, discharge) in protocol.obligations {
        match producer.split_once("::") {
            Some((ty, method)) => {
                if call.callee == method && call.recv.last().map(String::as_str) == Some(ty) {
                    return Some(discharge);
                }
            }
            None => {
                if call.callee == *producer {
                    return Some(discharge);
                }
            }
        }
    }
    None
}

/// Token ranges of a statement's flat head: the condition/scrutinee for
/// structured statements, the whole span minus sub-block interiors for
/// plain ones.
fn head_ranges(stmt: &Stmt) -> Vec<(usize, usize)> {
    if !matches!(stmt.kind, StmtKind::Plain) {
        return vec![(stmt.span.0, stmt.head_end.min(stmt.span.1))];
    }
    let mut out = Vec::new();
    let mut cur = stmt.span.0;
    for sub in &stmt.subs {
        out.push((cur, sub.span.0.max(cur)));
        cur = sub.span.1.max(cur);
    }
    out.push((cur, stmt.span.1.max(cur)));
    out
}

/// What one statement does to an armed obligation.
fn stmt_discharges(tokens: &[Token], stmt: &Stmt, ob: &Oblig) -> bool {
    // An explicit discharge call naming a member (receiver or argument).
    for call in &stmt.calls {
        if call.deferred {
            continue;
        }
        if call.callee == ob.discharge
            && (call.recv.iter().any(|r| ob.members.contains(r))
                || call
                    .args
                    .iter()
                    .any(|a| a.iter().any(|x| ob.members.contains(x))))
        {
            return true;
        }
    }
    // Any other mention of a member — beyond a bare `drop(member)`,
    // which keeps the obligation armed — escapes the value (moved,
    // stored, closed over): fail open, treat as discharged.
    let mut mentions = 0usize;
    for (s, e) in head_ranges(stmt) {
        for t in tokens.iter().take(e.min(tokens.len())).skip(s) {
            if t.ident()
                .is_some_and(|id| ob.members.iter().any(|m| m == id))
            {
                mentions += 1;
            }
        }
    }
    let dropped = stmt
        .calls
        .iter()
        .filter(|c| {
            !c.is_method
                && c.callee == "drop"
                && c.args.len() == 1
                && c.args[0].len() == 1
                && ob.members.contains(&c.args[0][0])
        })
        .count();
    mentions > dropped
}

/// Joins branch states back into `state`: an obligation stays
/// discharged only if every non-diverging branch discharged it
/// (diverging branches reported their own leaks at the `return`).
fn merge_states(state: &mut [Oblig], branches: &[(Vec<Oblig>, bool)]) {
    for (i, ob) in state.iter_mut().enumerate() {
        if ob.discharged {
            continue;
        }
        let live: Vec<&Vec<Oblig>> = branches
            .iter()
            .filter(|(_, diverged)| !diverged)
            .map(|(s, _)| s)
            .collect();
        if !live.is_empty() && live.iter().all(|s| s[i].discharged) {
            ob.discharged = true;
        }
    }
}

/// Path-sensitively tracks obligations through a block. Obligations
/// created inside the block are leak-checked at its end and removed;
/// returns true when every path through the block exits via `return`.
fn walk_c5(
    tokens: &[Token],
    block: &Block,
    protocol: &Protocol,
    state: &mut Vec<Oblig>,
    leaks: &mut BTreeSet<u32>,
) -> bool {
    let base = state.len();
    for stmt in &block.stmts {
        // Effects on existing obligations first (the creating statement
        // itself must not scan its own pattern/producer mention).
        for ob in state.iter_mut() {
            if !ob.discharged && stmt_discharges(tokens, stmt, ob) {
                ob.discharged = true;
            }
        }
        // New obligations from `let`-bound producer calls.
        if stmt.bindings.iter().any(|b| b != "_") {
            for call in &stmt.calls {
                if call.deferred {
                    continue;
                }
                if let Some(discharge) = producer_discharge(call, protocol) {
                    state.push(Oblig {
                        members: stmt.bindings.clone(),
                        line: stmt.line,
                        discharge,
                        discharged: false,
                    });
                }
            }
        }
        let diverged_here = match &stmt.kind {
            StmtKind::Plain => {
                let mut d = false;
                for sub in &stmt.subs {
                    if walk_c5(tokens, sub, protocol, state, leaks) {
                        d = true;
                    }
                }
                d
            }
            StmtKind::If { then_blk, else_blk } => {
                let mut s1 = state.clone();
                let d1 = walk_c5(tokens, then_blk, protocol, &mut s1, leaks);
                let (s2, d2) = match else_blk {
                    Some(e) => {
                        let mut s = state.clone();
                        let d = walk_c5(tokens, e, protocol, &mut s, leaks);
                        (s, d)
                    }
                    None => (state.clone(), false),
                };
                merge_states(state, &[(s1, d1), (s2, d2)]);
                d1 && d2
            }
            StmtKind::While { body } | StmtKind::Loop { body } => {
                // Fail open: a discharge anywhere in the body counts
                // (the body may or may not run; per-iteration leaks of
                // body-created obligations are caught by scoping).
                let mut s = state.clone();
                let _ = walk_c5(tokens, body, protocol, &mut s, leaks);
                for (i, ob) in state.iter_mut().enumerate() {
                    if s[i].discharged {
                        ob.discharged = true;
                    }
                }
                false
            }
            StmtKind::Match { arms } => {
                if arms.is_empty() {
                    false
                } else {
                    let mut branches = Vec::new();
                    let mut all_diverge = true;
                    for arm in arms {
                        let mut s = state.clone();
                        let d = walk_c5(tokens, arm, protocol, &mut s, leaks);
                        all_diverge &= d;
                        branches.push((s, d));
                    }
                    merge_states(state, &branches);
                    all_diverge
                }
            }
        };
        if diverged_here {
            state.truncate(base);
            return true;
        }
        if stmt.is_return {
            for ob in state.iter().filter(|o| !o.discharged) {
                leaks.insert(ob.line);
            }
            state.truncate(base);
            return true;
        }
    }
    // Scope end: obligations created in this block leak if still armed.
    for ob in state[base..].iter().filter(|o| !o.discharged) {
        leaks.insert(ob.line);
    }
    state.truncate(base);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_PROTOCOL;
    use crate::rules;

    /// Scans `src` as a serve lib file and returns `(rule, line)` pairs
    /// plus raw edges.
    fn analyze(src: &str) -> FileAnalysis {
        let p = rules::prepare("crates/serve/src/server.rs", src).expect("classifies");
        let mut index = CrateIndex::default();
        index.add_file(&p.tree, &p.lexed.tokens, &p.mask, &DEFAULT_PROTOCOL);
        analyze_file(&p, &DEFAULT_PROTOCOL, &index)
    }

    fn rules_of(src: &str) -> Vec<(&'static str, u32)> {
        analyze(src)
            .findings
            .into_iter()
            .map(|(r, l)| (r.id(), l))
            .collect()
    }

    #[test]
    fn c1_edges_and_cycles() {
        let src = "\
fn ab(m: &Shared) {
    let a = lock(&m.alpha);
    let b = lock(&m.beta);
    b.touch(); a.touch();
}
fn ba(m: &Shared) {
    let b = lock(&m.beta);
    let a = lock(&m.alpha);
    a.touch(); b.touch();
}
";
        let fa = analyze(src);
        assert_eq!(fa.edges.len(), 2);
        let tagged: Vec<(String, Edge)> = fa
            .edges
            .into_iter()
            .map(|e| ("f.rs".to_string(), e))
            .collect();
        let cycles = cycle_findings(&tagged);
        assert_eq!(
            cycles,
            vec![("f.rs".to_string(), 3), ("f.rs".to_string(), 8)]
        );
    }

    #[test]
    fn c1_consistent_order_is_clean() {
        let src = "\
fn ab(m: &Shared) { let a = lock(&m.alpha); let b = lock(&m.beta); b.t(); a.t(); }
fn ab2(m: &Shared) { let a = lock(&m.alpha); let b = lock(&m.beta); b.t(); a.t(); }
";
        let fa = analyze(src);
        let tagged: Vec<(String, Edge)> = fa
            .edges
            .into_iter()
            .map(|e| ("f.rs".to_string(), e))
            .collect();
        assert!(cycle_findings(&tagged).is_empty());
    }

    #[test]
    fn c1_sees_one_level_through_calls() {
        let src = "\
fn helper(m: &Shared) {
    let b = lock(&m.beta);
    b.touch();
}
fn outer(m: &Shared) {
    let a = lock(&m.alpha);
    helper(m);
    a.touch();
}
fn reversed(m: &Shared) {
    let b = lock(&m.beta);
    let a = lock(&m.alpha);
    a.touch(); b.touch();
}
";
        let fa = analyze(src);
        let tagged: Vec<(String, Edge)> = fa
            .edges
            .into_iter()
            .map(|e| ("f.rs".to_string(), e))
            .collect();
        // alpha→beta via the helper call (line 7), beta→alpha direct
        // (line 12): a cycle involving both witness lines.
        assert_eq!(
            cycle_findings(&tagged),
            vec![("f.rs".to_string(), 7), ("f.rs".to_string(), 12)]
        );
    }

    #[test]
    fn c2_blocking_under_guard_and_release() {
        let bad = "\
fn f(m: &Shared, file: &File) {
    let g = lock(&m.inner);
    file.sync_all();
    g.touch();
}
";
        assert_eq!(rules_of(bad), vec![("C2", 3)]);
        let good = "\
fn f(m: &Shared, file: &File) {
    let g = lock(&m.inner);
    drop(g);
    file.sync_all();
}
";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn c2_condvar_exempts_its_own_guard_only() {
        let own = "\
fn f(m: &Shared) {
    let mut g = lock(&m.inner);
    while !*g { g = m.cv.wait(g); }
}
";
        assert!(rules_of(own).is_empty());
        let other = "\
fn f(m: &Shared) {
    let outer = lock(&m.outer);
    let mut g = lock(&m.inner);
    while !*g { g = m.cv.wait(g); }
    outer.touch();
}
";
        assert_eq!(rules_of(other), vec![("C2", 4)]);
    }

    #[test]
    fn c2_guard_scopes_end_at_block_close() {
        let src = "\
fn f(m: &Shared, file: &File) {
    {
        let g = lock(&m.inner);
        g.touch();
    }
    file.sync_all();
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn c3_wait_outside_loop_fires() {
        let bad = "\
fn f(m: &Shared) {
    let mut g = lock(&m.inner);
    g = m.cv.wait(g);
    g.touch();
}
";
        assert_eq!(rules_of(bad), vec![("C3", 3)]);
        let good = "\
fn f(m: &Shared) {
    let mut g = lock(&m.inner);
    while !g.ready { g = m.cv.wait(g); }
}
";
        assert!(rules_of(good).is_empty());
        // Predicate variants and zero-arg handle waits are exempt.
        let exempt = "\
fn f(m: &Shared, handle: &JobHandle) {
    let mut g = lock(&m.inner);
    g = m.cv.wait_while(g, |s| !s.ready);
    drop(g);
    handle.wait();
}
";
        assert!(rules_of(exempt).is_empty());
    }

    #[test]
    fn c4_ack_before_wait_fires_line_exact() {
        let bad = "\
fn cancel_session(state: &Shared, id: u64) -> Result<Response, Error> {
    let mut s = lock(&state.sessions);
    let ticket = s.cancel(id)?;
    drop(s);
    let out = Response::json(200, &body);
    state.sink.wait_durable(ticket)?;
    Ok(out)
}
";
        assert_eq!(rules_of(bad), vec![("C4", 5)]);
        let good = "\
fn cancel_session(state: &Shared, id: u64) -> Result<Response, Error> {
    let mut s = lock(&state.sessions);
    let ticket = s.cancel(id)?;
    drop(s);
    state.sink.wait_durable(ticket)?;
    Ok(Response::json(200, &body))
}
";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn c4_joins_branches_and_sees_helper_waits() {
        // One branch waits, the other does not: the ack after the join
        // must fire; error acks (4xx/5xx) never do.
        let src = "\
fn advance_session(state: &Shared, fast: bool) -> Result<Response, Error> {
    if fast {
        state.sink.wait_durable(t)?;
    }
    Ok(Response::json(200, &body))
}
";
        assert_eq!(rules_of(src), vec![("C4", 5)]);
        let helper = "\
fn await_commit(state: &Shared, t: u64) -> Result<(), Error> {
    state.sink.wait_durable(t)
}
fn create_session(state: &Shared) -> Result<Response, Error> {
    await_commit(state, t)?;
    Ok(Response::json(201, &body))
}
fn cancel_session(state: &Shared) -> Result<Response, Error> {
    Ok(Response::json(409, &body))
}
";
        assert!(rules_of(helper).is_empty());
    }

    #[test]
    fn c4_only_applies_to_configured_handlers_in_serve() {
        let src = "\
fn status_probe(state: &Shared) -> Result<Response, Error> {
    Ok(Response::json(200, &body))
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn c5_unwaited_ticket_paths() {
        let bad = "\
fn f(session: &mut LiveSession, failed: bool) -> Result<(), Error> {
    let (sink, ticket) = session.durability_barrier();
    if failed {
        return Err(Error::backpressure());
    }
    sink.wait_durable(ticket)?;
    Ok(())
}
";
        assert_eq!(rules_of(bad), vec![("C5", 2)]);
        let good = "\
fn f(session: &mut LiveSession, failed: bool) -> Result<(), Error> {
    let (sink, ticket) = session.durability_barrier();
    if failed {
        sink.wait_durable(ticket)?;
        return Err(Error::backpressure());
    }
    sink.wait_durable(ticket)?;
    Ok(())
}
";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn c5_tracks_driver_guards_and_escapes() {
        let bad = "\
fn f(entry: &SessionEntry) {
    let guard = DriverGuard::new(entry);
    run(unit);
}
";
        assert_eq!(rules_of(bad), vec![("C5", 2)]);
        let good = "\
fn f(entry: &SessionEntry) {
    let guard = DriverGuard::new(entry);
    run(unit);
    guard.disarm();
}
";
        assert!(rules_of(good).is_empty());
        // Moving the value somewhere else escapes the local obligation.
        let escaped = "\
fn f(entry: &SessionEntry, keep: &mut Vec<DriverGuard>) {
    let guard = DriverGuard::new(entry);
    keep.push(guard);
}
";
        assert!(rules_of(escaped).is_empty());
    }

    #[test]
    fn c_rules_skip_test_code_and_other_crates() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(m: &Shared, file: &File) {
        let g = lock(&m.inner);
        file.sync_all();
        g.touch();
    }
}
";
        assert!(rules_of(src).is_empty());
        // C4/C5 are protocol-crate-scoped: the same handler in core is
        // not checked.
        let p = rules::prepare(
            "crates/core/src/x.rs",
            "fn create_session(s: &S) -> Result<Response, Error> { Ok(Response::json(200, &b)) }\n",
        )
        .expect("classifies");
        let index = CrateIndex::default();
        let fa = analyze_file(&p, &DEFAULT_PROTOCOL, &index);
        assert!(fa.findings.is_empty());
    }
}
