//! Deterministic fork-join on parked spare-core helpers, fixed-size
//! chunked pool scoring, and index-order argmax/argmin.
//!
//! [`par_map`] is the one way independent work in this workspace runs in
//! parallel: the GP hyper-parameter search's BFGS starts, the GP-BO
//! proposal's candidate scoring, pool scoring ([`chunked_scores`]),
//! daemon session recovery and the bench's session executor
//! ([`fork_join`]). It keeps two properties no matter how it is
//! scheduled:
//!
//! * **Value determinism** — every item is computed by the same function
//!   on the same input whichever thread runs it, and results come back in
//!   input order. Callers reduce them in that order, so output is
//!   bit-identical with or without spare cores.
//! * **No oversubscription, no knob** — the process keeps
//!   `available_parallelism() − 1` helper threads, parked between
//!   regions. A region claims the free ones it can use without blocking
//!   and puts them back when it ends; a nested or concurrent region that
//!   finds none runs serially on its caller. The helpers start on the
//!   first region with two or more items.
//!
//! A region offers its job to the helpers it claimed and then runs items
//! itself from the shared counter. When the caller runs out of items it
//! withdraws the job from every helper that has not taken it yet, and
//! waits only for the ones that did: a helper the scheduler has not run
//! in time costs the region nothing. A panic on a helper is caught there
//! and raised again on the caller; the helper stays parked for the next
//! region.
//!
//! Pool scoring keeps its chunk boundaries at the fixed [`SCORING_CHUNK`],
//! never derived from the thread count, so per-chunk floating-point work
//! is the same in serial and parallel runs. [`argmax_first`] /
//! [`argmin_first`] resolve ties toward the lowest index with a strict
//! comparison, matching the `if score > best { ... }` loops the tuners
//! historically used.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of pool items scored per work unit. A fixed constant — never
/// derived from the worker count — so chunk boundaries (and thus any
/// per-chunk floating-point work) are identical in serial and parallel
/// runs.
pub const SCORING_CHUNK: usize = 128;

/// A region's work as a helper runs it: pull items from the region's
/// counter until none is left.
type Job<'a> = &'a (dyn Fn() + Sync + 'a);

/// What a helper's slot holds. Only the region that claimed the helper
/// writes `Offered` or takes `Finished`; only the helper takes `Offered`.
enum Slot {
    Idle,
    /// A region's job, not yet taken.
    Offered(Job<'static>),
    /// The helper took the job and is running it.
    Running,
    /// The helper ran the job; `Err` carries its panic.
    Finished(std::thread::Result<()>),
}

/// One parked helper thread's mailbox.
struct Helper {
    slot: Mutex<Slot>,
    changed: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Helper {
    fn new() -> Self {
        Helper {
            slot: Mutex::new(Slot::Idle),
            changed: Condvar::new(),
        }
    }

    /// The helper thread's body: take each offered job, run it, report.
    fn serve(&self) {
        let mut slot = lock(&self.slot);
        loop {
            if let Slot::Offered(job) = *slot {
                *slot = Slot::Running;
                drop(slot);
                let ran = panic::catch_unwind(AssertUnwindSafe(job));
                slot = lock(&self.slot);
                *slot = Slot::Finished(ran);
                self.changed.notify_all();
            } else {
                slot = self
                    .changed
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Withdraws the job if the helper has not taken it, else waits until
    /// it has finished; returns the helper's panic, if any, and leaves the
    /// slot idle.
    fn settle(&self) -> std::thread::Result<()> {
        let mut slot = lock(&self.slot);
        while let Slot::Running = *slot {
            slot = self
                .changed
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match std::mem::replace(&mut *slot, Slot::Idle) {
            Slot::Finished(ran) => ran,
            _ => Ok(()),
        }
    }
}

/// The free helpers. Each is a spare-core token: a region that holds it
/// may run one thread beside its caller.
struct Pool {
    free: Mutex<Vec<Arc<Helper>>>,
}

impl Pool {
    /// Parks `helpers` helper threads; a failed spawn leaves fewer.
    fn start(helpers: usize) -> Pool {
        let free = (0..helpers)
            .filter_map(|i| {
                let helper = Arc::new(Helper::new());
                let parked = Arc::clone(&helper);
                std::thread::Builder::new()
                    .name(format!("spare-core-{i}"))
                    .spawn(move || parked.serve())
                    .ok()
                    .map(|_| helper)
            })
            .collect();
        Pool {
            free: Mutex::new(free),
        }
    }

    /// Claims up to `want` free helpers without waiting for any.
    fn claim(&self, want: usize) -> SpareCores<'_> {
        let mut free = lock(&self.free);
        let keep = free.len().saturating_sub(want);
        SpareCores {
            pool: self,
            held: free.split_off(keep),
        }
    }
}

/// Helpers held by one parallel region, put back on drop.
struct SpareCores<'p> {
    pool: &'p Pool,
    held: Vec<Arc<Helper>>,
}

impl SpareCores<'static> {
    /// Claims up to `want` of the process's helpers, starting them on the
    /// first claim; claiming zero starts nothing.
    fn claim(want: usize) -> SpareCores<'static> {
        static POOL: OnceLock<Pool> = OnceLock::new();
        static EMPTY: Pool = Pool {
            free: Mutex::new(Vec::new()),
        };
        if want == 0 {
            return SpareCores {
                pool: &EMPTY,
                held: Vec::new(),
            };
        }
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Pool::start(cores - 1)
        })
        .claim(want)
    }
}

impl SpareCores<'_> {
    /// Runs `job` on the caller and offers it to every held helper. Returns
    /// once the caller's run has returned and every helper that took the
    /// job has finished it; the others never see it. The first panic, the
    /// caller's before any helper's, is raised again here.
    fn run(&self, job: Job<'_>) {
        // SAFETY: only the lifetime is erased. The erased reference is
        // stored in held helpers' slots and nowhere else, and `settle`
        // runs on every held helper below before `run` returns or unwinds
        // (the caller's own panic is caught first): it clears a job not
        // yet taken under the slot's lock, so that helper can no longer
        // take it, and waits for a helper that took it until the job has
        // returned. No use of `job` outlives this call.
        let job: Job<'static> = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
        for helper in &self.held {
            *lock(&helper.slot) = Slot::Offered(job);
            helper.changed.notify_all();
        }
        let mut ran = panic::catch_unwind(AssertUnwindSafe(job));
        for helper in &self.held {
            ran = ran.and(helper.settle());
        }
        if let Err(panic) = ran {
            panic::resume_unwind(panic);
        }
    }
}

impl Drop for SpareCores<'_> {
    fn drop(&mut self) {
        if !self.held.is_empty() {
            lock(&self.pool.free).append(&mut self.held);
        }
    }
}

/// Maps `f` over `items` on the calling thread plus as many spare cores
/// as are free (at most one fewer than the items), returning results in
/// input order. Items may be borrowed (`&slice`) or owned; each moves into
/// `f` exactly once. A panic in `f` propagates.
pub fn par_map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    fork_join(items.into_iter().collect(), usize::MAX, f)
}

/// Maps `f` over `items` on the calling thread plus up to `workers` free
/// helpers, and returns the results in input order. Every thread pulls the
/// next index from one shared counter, so uneven items balance
/// themselves. With no free helper (or `workers == 0`) the items run
/// serially on the caller. A panic in `f` propagates once no other thread
/// runs an item of the region.
pub fn fork_join<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let spare = SpareCores::claim(workers.min(items.len().saturating_sub(1)));
    if spare.held.is_empty() {
        return items.into_iter().map(f).collect();
    }
    // The counter hands out every index once, so each slot is full when
    // its index is drawn.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(slots.len()));
    spare.run(&|| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                break;
            };
            let item = lock(slot).take();
            if let Some(item) = item {
                mine.push((i, f(item)));
            }
        }
        lock(&done).append(&mut mine);
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
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
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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
    fn a_claim_never_exceeds_the_free_helpers_and_returns_them() {
        // Claims need no running helper threads.
        let pool = Pool {
            free: Mutex::new(vec![Arc::new(Helper::new()), Arc::new(Helper::new())]),
        };
        {
            let a = pool.claim(5);
            assert_eq!(a.held.len(), 2);
            let b = pool.claim(1);
            assert!(b.held.is_empty(), "an exhausted pool grants nothing");
        }
        assert_eq!(lock(&pool.free).len(), 2, "dropped claims return");
        let c = pool.claim(1);
        assert_eq!((c.held.len(), lock(&pool.free).len()), (1, 1));
    }

    /// Runs one region on `pool` whose caller waits, up to 10 s, for a
    /// helper to take its job; returns whether one did.
    fn a_helper_joins(pool: &Pool) -> bool {
        let caller = std::thread::current().id();
        let deadline = Instant::now() + Duration::from_secs(10);
        let joined = AtomicBool::new(false);
        pool.claim(1).run(&|| {
            if std::thread::current().id() != caller {
                joined.store(true, Ordering::Release);
            }
            while !joined.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        joined.into_inner()
    }

    #[test]
    fn a_region_does_not_wait_for_a_helper_that_has_not_taken_its_job() {
        // The helper's thread is held until the region is over, or for
        // 10 s if the region waits for it.
        let (release, gate) = mpsc::channel::<()>();
        let helper = Arc::new(Helper::new());
        let parked = Arc::clone(&helper);
        std::thread::spawn(move || {
            let _ = gate.recv_timeout(Duration::from_secs(10));
            parked.serve();
        });
        let pool = Pool {
            free: Mutex::new(vec![Arc::clone(&helper)]),
        };
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        pool.claim(1)
            .run(&|| lock(&ran_on).push(std::thread::current().id()));
        assert_eq!(*lock(&ran_on), [caller], "the region waited for the helper");
        assert!(
            matches!(*lock(&helper.slot), Slot::Idle),
            "the job was withdrawn"
        );
        release.send(()).expect("the helper thread is alive");
        assert!(
            a_helper_joins(&pool),
            "once released, the helper takes jobs"
        );
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_helper_survives() {
        let pool = Pool::start(1);
        let caller = std::thread::current().id();
        let deadline = Instant::now() + Duration::from_secs(10);
        let helper_took = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.claim(1).run(&|| {
                if std::thread::current().id() != caller {
                    helper_took.store(true, Ordering::Release);
                    panic!("the helper's item fails");
                }
                while !helper_took.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        }));
        assert!(helper_took.into_inner(), "the helper took the job");
        assert!(caught.is_err(), "the helper's panic reached the caller");
        assert!(a_helper_joins(&pool), "the helper survived its panic");
        assert_eq!(lock(&pool.free).len(), 1);
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
