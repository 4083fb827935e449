//! Per-crate call-graph summaries for the C-series rules.
//!
//! The C-series analyzers are one-call-level interprocedural: when a
//! function holding a lock calls another function in the same crate, the
//! callee's *direct* lock acquisitions and durability waits are credited
//! to the call site. That needs a side table of per-function summaries,
//! built here by parsing every non-test `fn` body in the crate.
//!
//! Resolution is by bare function name: Rust method dispatch is not
//! modeled, so same-named functions across impls and files are merged
//! into one summary (the union of their effects). That conflation is
//! deliberate — it keeps shard replicas of one logical lock unified and
//! errs toward reporting an edge rather than missing one — and is
//! documented as a known limit in DESIGN.md §4b.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Protocol;
use crate::items::{ItemKind, ItemTree};
use crate::lexer::Token;
use crate::parser::{self, Block, Call};

/// What one function does directly (no transitive closure): the lock
/// keys it acquires anywhere in its body, and whether it awaits
/// durability.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Canonical lock keys acquired in the body (see [`lock_key`]).
    pub locks: BTreeSet<String>,
    /// True when the body directly calls a configured durability wait.
    pub waits: bool,
}

/// Function summaries for one crate, keyed by bare function name.
#[derive(Debug, Clone, Default)]
pub struct CrateIndex {
    /// name → merged summary (same-named functions union their effects).
    pub fns: BTreeMap<String, FnSummary>,
}

impl CrateIndex {
    /// Folds one file's functions into the index. Functions whose token
    /// span is masked as test code are skipped, as are the lock
    /// primitives themselves (a helper named `lock` *is* the acquisition,
    /// not a caller of one).
    pub fn add_file(
        &mut self,
        tree: &ItemTree,
        tokens: &[Token],
        mask: &[bool],
        protocol: &Protocol,
    ) {
        tree.walk(&mut |item| {
            if item.kind != ItemKind::Fn {
                return;
            }
            let Some((bs, be)) = item.body_span else {
                return;
            };
            if mask.get(item.span.0).copied().unwrap_or(false) {
                return;
            }
            if protocol.lock_fns.contains(&item.name.as_str()) {
                return;
            }
            let block = parser::parse_body(tokens, bs, be);
            let summary = self.fns.entry(item.name.clone()).or_default();
            summarize(&block, protocol, summary);
        });
    }
}

/// Accumulates a block's direct lock acquisitions and durability waits.
fn summarize(block: &Block, protocol: &Protocol, out: &mut FnSummary) {
    for stmt in &block.stmts {
        for call in &stmt.calls {
            if call.deferred {
                continue;
            }
            if let Some(key) = lock_key(call, protocol) {
                out.locks.insert(key);
            }
            if protocol.durability_waits.contains(&call.callee.as_str()) {
                out.waits = true;
            }
        }
        for sub in stmt.blocks() {
            summarize(sub, protocol, out);
        }
    }
}

/// The canonical lock key a call acquires, if it is a lock acquisition:
/// the last field segment of the lock path. `lock(&state.create_lock)` →
/// `create_lock`; `lock(&state.shard(id).sessions)` → `sessions`;
/// `self.queue.lock()` → `queue`. Same-named fields on different types
/// conflate (documented limit: shard replicas of one logical lock stay
/// unified, at the cost of occasional false sharing between unrelated
/// locks that happen to share a field name).
pub fn lock_key(call: &Call, protocol: &Protocol) -> Option<String> {
    if !call.is_method && call.recv.is_empty() && protocol.lock_fns.contains(&call.callee.as_str())
    {
        return call.args.first().and_then(|a| a.last()).cloned();
    }
    if call.is_method && protocol.lock_methods.contains(&call.callee.as_str()) {
        return call.recv.last().cloned();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_PROTOCOL;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn index_of(src: &str) -> CrateIndex {
        let lexed = lex(src);
        let tree = parser::parse(&lexed.tokens);
        let mask = test_mask(&lexed.tokens);
        let mut idx = CrateIndex::default();
        idx.add_file(&tree, &lexed.tokens, &mask, &DEFAULT_PROTOCOL);
        idx
    }

    #[test]
    fn summaries_record_locks_and_waits() {
        let src = r#"
fn holds_two(state: &Shared) {
    let a = lock(&state.gate);
    let b = state.sessions.lock();
    drop(b);
    drop(a);
}
fn awaits(sink: &WalSink, t: u64) -> Result<(), Error> {
    sink.wait_durable(t)
}
fn idle() { compute(); }
"#;
        let idx = index_of(src);
        let two = &idx.fns["holds_two"];
        assert_eq!(
            two.locks.iter().cloned().collect::<Vec<_>>(),
            vec!["gate", "sessions"]
        );
        assert!(!two.waits);
        assert!(idx.fns["awaits"].waits);
        assert!(idx.fns["idle"].locks.is_empty());
    }

    #[test]
    fn test_fns_and_lock_helpers_are_excluded() {
        let src = r#"
fn lock(m: &Mutex) -> Guard { m.lock().unwrap_or_else(|e| e.into_inner()) }
#[cfg(test)]
mod tests {
    fn helper(state: &S) { let g = lock(&state.inner); }
}
"#;
        let idx = index_of(src);
        assert!(!idx.fns.contains_key("lock"), "lock primitive excluded");
        assert!(!idx.fns.contains_key("helper"), "test code excluded");
    }

    #[test]
    fn lock_key_takes_last_field_segment() {
        let src = "fn f(state: &S, id: u64) { let g = lock(&state.shard(id).sessions); }";
        let idx = index_of(src);
        assert!(idx.fns["f"].locks.contains("sessions"));
    }

    #[test]
    fn deferred_closure_locks_are_not_credited() {
        let src = "fn f(q: &Q) { spawn(move || { let g = lock(&q.inner); g.run(); }); }";
        let idx = index_of(src);
        assert!(idx.fns["f"].locks.is_empty());
    }
}
