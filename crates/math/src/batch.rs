//! Deterministic fork-join on spare cores, fixed-size chunked pool
//! scoring, and index-order argmax/argmin.
//!
//! [`par_map`] is the one way independent work in this workspace runs in
//! parallel: the GP hyper-parameter search's Nelder–Mead starts,
//! candidate-pool scoring ([`chunked_scores`]), and daemon session
//! recovery. It keeps two properties no matter how it
//! is scheduled:
//!
//! * **Value determinism** — every item is computed by the same function
//!   on the same input whichever thread runs it, and results come back in
//!   input order. Callers reduce them in that order, so output is
//!   bit-identical with or without spare cores.
//! * **No oversubscription, no knob** — a process-wide budget holds
//!   `available_parallelism() − 1` spare-core tokens. A region claims what
//!   it can use without blocking and returns it when it ends; a nested or
//!   concurrent region that finds none runs serially on its caller. The
//!   budget is read lazily, on the first region with two or more items.
//!
//! Pool scoring keeps its chunk boundaries at the fixed [`SCORING_CHUNK`],
//! never derived from the thread count, so per-chunk floating-point work
//! is the same in serial and parallel runs. [`argmax_first`] /
//! [`argmin_first`] resolve ties toward the lowest index with a strict
//! comparison, matching the `if score > best { ... }` loops the tuners
//! historically used.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of pool items scored per work unit. A fixed constant — never
/// derived from the worker count — so chunk boundaries (and thus any
/// per-chunk floating-point work) are identical in serial and parallel
/// runs.
pub const SCORING_CHUNK: usize = 128;

/// Spare-core tokens held by one parallel region, returned to their
/// budget on drop. The token count publishes no other data (results
/// travel through thread joins), so the budget is updated `Relaxed`.
pub struct SpareCores<'a> {
    budget: &'a AtomicUsize,
    held: usize,
}

impl SpareCores<'static> {
    /// Claims up to `want` tokens from the process-wide budget without
    /// blocking; the claim may hold fewer, or none. Claiming zero never
    /// touches the budget (no `available_parallelism()` call).
    pub fn claim(want: usize) -> SpareCores<'static> {
        static BUDGET: OnceLock<AtomicUsize> = OnceLock::new();
        static NONE: AtomicUsize = AtomicUsize::new(0);
        if want == 0 {
            return SpareCores {
                budget: &NONE,
                held: 0,
            };
        }
        let budget = BUDGET.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            AtomicUsize::new(cores - 1)
        });
        SpareCores::claim_from(budget, want)
    }
}

impl<'a> SpareCores<'a> {
    fn claim_from(budget: &'a AtomicUsize, want: usize) -> SpareCores<'a> {
        let (Ok(free) | Err(free)) =
            budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                Some(free - free.min(want))
            });
        SpareCores {
            budget,
            held: free.min(want),
        }
    }

    /// Tokens held: how many threads may run beside the caller.
    pub fn count(&self) -> usize {
        self.held
    }
}

impl Drop for SpareCores<'_> {
    fn drop(&mut self) {
        if self.held > 0 {
            self.budget.fetch_add(self.held, Ordering::Relaxed);
        }
    }
}

/// Maps `f` over `items` on the calling thread plus as many spare cores
/// as the budget grants (at most one fewer than the items), returning
/// results in input order. Items may be borrowed (`&slice`) or owned; each
/// moves into `f` exactly once. Uneven items balance themselves: every
/// thread pulls the next index from one shared counter. A panic in `f`
/// propagates once every thread has stopped.
pub fn par_map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let spare = SpareCores::claim(items.len().saturating_sub(1));
    fork_join(items, spare.count(), f)
}

/// Maps `f` over `items` on the calling thread plus up to `workers` scoped
/// threads, all pulling indices from one shared counter, and returns the
/// results in input order. `workers == 0` runs serially on the caller
/// without spawning. Sizing `workers` is the caller's business:
/// [`par_map`] sizes it from the spare-core budget.
pub fn fork_join<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len().saturating_sub(1));
    if workers == 0 {
        return items.into_iter().map(f).collect();
    }
    // The counter hands out every index once, so each slot is full when
    // its index is drawn.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(item) = item {
                done.push((i, f(item)));
            }
        }
    };
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(run)).collect();
        let mut parts = vec![run()];
        for handle in handles {
            parts.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        parts
    });
    let mut done: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Applies `score` to fixed-size chunks of `items` through [`par_map`]
/// and concatenates the results in submission order. `score` must map a
/// chunk to one result per item (in order); the output is then indexed
/// like `items`. The set of chunks and the per-chunk computation do not
/// depend on how many cores run them, so the output is bit-identical
/// either way. A panic in `score` propagates.
pub fn chunked_scores<T, R, F>(items: &[T], score: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    par_map(items.chunks(SCORING_CHUNK), score)
        .into_iter()
        .flatten()
        .collect()
}

/// Index of the strictly greatest value, first index winning ties; `None`
/// for an empty slice or when no value exceeds `f64::NEG_INFINITY` (all
/// NaN / -inf). Strict `>` from a `NEG_INFINITY` incumbent reproduces the
/// historical `if v > best` scan exactly, NaN entries skipped.
pub fn argmax_first(values: &[f64]) -> Option<usize> {
    let mut best = f64::NEG_INFINITY;
    let mut idx = None;
    for (i, &v) in values.iter().enumerate() {
        if v > best {
            best = v;
            idx = Some(i);
        }
    }
    idx
}

/// Index of the strictly smallest value, first index winning ties; `None`
/// for an empty slice or when no value goes below `f64::INFINITY`.
pub fn argmin_first(values: &[f64]) -> Option<usize> {
    let mut best = f64::INFINITY;
    let mut idx = None;
    for (i, &v) in values.iter().enumerate() {
        if v < best {
            best = v;
            idx = Some(i);
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn score_chunk(chunk: &[f64]) -> Vec<f64> {
        // Chunk-dependent arithmetic: a reduction over the chunk feeds
        // every output, so wrong chunk boundaries change the values.
        let s: f64 = chunk.iter().sum();
        chunk.iter().map(|v| v * 2.0 + s * 0.0 + v.sin()).collect()
    }

    #[test]
    fn chunked_scores_cover_every_item_in_order() {
        let items: Vec<f64> = (0..517).map(|i| i as f64 * 0.37).collect();
        let out = chunked_scores(&items, score_chunk);
        assert_eq!(out.len(), items.len());
        for (i, v) in items.iter().enumerate() {
            assert_eq!(out[i].to_bits(), (v * 2.0 + v.sin()).to_bits());
        }
    }

    #[test]
    fn chunked_scores_empty_pool() {
        let out: Vec<f64> = chunked_scores(&[], |c: &[f64]| c.to_vec());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_scores_match_serial_bitwise() {
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).cos()).collect();
        let serial: Vec<f64> = items.chunks(SCORING_CHUNK).flat_map(score_chunk).collect();
        let via_helper = chunked_scores(&items, score_chunk);
        for (a, b) in serial.iter().zip(&via_helper) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fork_join_keeps_index_order_under_uneven_items() {
        // Early indices are the slow ones, so later ones finish first.
        let out = fork_join((0..24).collect(), 3, |i: u64| {
            std::thread::sleep(std::time::Duration::from_micros((24 - i) * 40));
            i * i
        });
        assert_eq!(out, (0..24).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_claim_never_exceeds_the_free_tokens_and_returns_them() {
        let budget = AtomicUsize::new(2);
        {
            let a = SpareCores::claim_from(&budget, 5);
            assert_eq!(a.count(), 2);
            let b = SpareCores::claim_from(&budget, 1);
            assert_eq!(b.count(), 0, "an exhausted budget grants nothing");
        }
        assert_eq!(budget.load(Ordering::Relaxed), 2, "dropped claims return");
        let c = SpareCores::claim_from(&budget, 1);
        assert_eq!((c.count(), budget.load(Ordering::Relaxed)), (1, 1));
    }

    #[test]
    fn no_workers_runs_every_item_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = fork_join(vec![(); 9], 0, |()| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_panicking_item_propagates() {
        let caught = std::panic::catch_unwind(|| {
            fork_join((0..8).collect(), 2, |i: usize| {
                assert_ne!(i, 5, "item five fails");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn argmax_first_wins_ties_at_lowest_index() {
        assert_eq!(argmax_first(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax_first(&[f64::NAN, 0.5, 0.5]), Some(1));
        assert_eq!(argmax_first(&[]), None);
        assert_eq!(argmax_first(&[f64::NAN, f64::NEG_INFINITY]), None);
    }

    #[test]
    fn argmin_first_wins_ties_at_lowest_index() {
        assert_eq!(argmin_first(&[4.0, 1.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmin_first(&[]), None);
        assert_eq!(argmin_first(&[f64::NAN, f64::INFINITY]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn par_map_keeps_input_order(n in 0usize..200, salt in 0u64..1_000) {
            let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ salt).collect();
            let out = par_map(&items, |v| v.rotate_left(7) ^ 0xA5);
            let want: Vec<u64> = items.iter().map(|v| v.rotate_left(7) ^ 0xA5).collect();
            prop_assert_eq!(out, want);
        }

        #[test]
        fn fork_join_matches_serial_at_any_worker_count(n in 0usize..64, workers in 0usize..4) {
            let f = |i: usize| (i as f64 * 0.7).sin().to_bits();
            let got = fork_join((0..n).collect(), workers, f);
            let want: Vec<u64> = (0..n).map(f).collect();
            prop_assert_eq!(got, want);
        }
    }
}
