//! Bounded thread-pool scheduler with admission control.
//!
//! Session work (advance requests) runs on a fixed pool of worker threads
//! behind a bounded queue. Admission control is strict: when the queue is
//! full, [`Scheduler::submit`] fails immediately with [`ServeError::Busy`]
//! (surfaced as HTTP 429) instead of letting requests pile up — an
//! evaluation can take arbitrarily long, so unbounded queueing would turn
//! overload into unbounded latency.
//!
//! Shutdown is graceful for *running* work: workers finish the job in
//! their hands, then exit. Jobs still queued are dropped unrun, so
//! whatever a job owns is dropped with it; the daemon's driver jobs own a
//! guard whose `Drop` wakes the HTTP handlers that wait on them, which then
//! report 503 instead of hanging. Durability is unaffected — sessions log
//! every observation to the WAL as it happens, so a dropped advance job
//! loses requested-but-unstarted work only.

use crate::{ServeError, ServeResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks a mutex, recovering the data from a poisoned lock (a panicked
/// worker must not wedge the whole daemon).
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    cap: usize,
}

/// The bounded worker pool.
pub struct Scheduler {
    state: Arc<PoolState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `workers` threads behind a queue of at most `queue_cap`
    /// pending jobs.
    pub fn new(workers: usize, queue_cap: usize) -> Scheduler {
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cap: queue_cap.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Scheduler {
            state,
            workers: Mutex::new(handles),
        }
    }

    /// Submits a job, failing fast with [`ServeError::Busy`] when the
    /// queue is at capacity (admission control → HTTP 429). A rejected
    /// job is dropped before this returns.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> ServeResult<()> {
        if self.state.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Busy);
        }
        {
            let mut queue = lock(&self.state.queue);
            if queue.len() >= self.state.cap {
                return Err(ServeError::Busy);
            }
            queue.push_back(Box::new(job));
        }
        self.state.cv.notify_one();
        Ok(())
    }

    /// Pending (not yet running) jobs — the `/metrics` queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.state.queue).len()
    }

    /// Graceful shutdown: in-flight jobs finish, queued jobs are dropped
    /// unrun, workers join. Concurrent calls are safe (the second joins
    /// nothing).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
        // Dropping the remaining jobs drops what they own.
        lock(&self.state.queue).clear();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = lock(&state.queue);
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state
                    .cv
                    .wait(queue)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A job that blocks its worker until the returned opener runs.
    fn blocker() -> (impl FnOnce() + Send + 'static, impl FnOnce()) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let job = move || {
            let (lock_, cv) = &*g;
            let mut open = lock(lock_);
            while !*open {
                open = cv.wait(open).unwrap();
            }
        };
        let open = move || {
            let (lock_, cv) = &*gate;
            *lock(lock_) = true;
            cv.notify_all();
        };
        (job, open)
    }

    /// Sends on its channel when dropped: tells a run job from a dropped one.
    struct DropFlag(mpsc::Sender<&'static str>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            let _ = self.0.send("dropped");
        }
    }

    #[test]
    fn jobs_run() {
        let sched = Scheduler::new(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..6 {
            let tx = tx.clone();
            sched.submit(move || tx.send(i * 2).unwrap()).unwrap();
        }
        drop(tx);
        let mut results: Vec<i32> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let sched = Scheduler::new(1, 1);
        // Occupy the single worker.
        let (job, open) = blocker();
        sched.submit(job).unwrap();
        // Wait until the worker picked the job up, then fill the queue.
        while sched.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.submit(|| ()).unwrap();
        let (tx, rx) = mpsc::channel();
        let flag = DropFlag(tx);
        let rejected = sched.submit(move || drop(flag));
        assert!(matches!(rejected, Err(ServeError::Busy)));
        assert_eq!(rx.try_recv(), Ok("dropped"), "rejected job dropped at once");
        open();
    }

    #[test]
    fn shutdown_drops_queued_jobs_unrun() {
        let sched = Scheduler::new(1, 16);
        let (job, open) = blocker();
        sched.submit(job).unwrap();
        while sched.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, rx) = mpsc::channel();
        let flag = DropFlag(tx.clone());
        sched
            .submit(move || {
                let _ = flag.0.send("ran");
            })
            .unwrap();
        drop(tx);
        // Release the in-flight job only after shutdown is underway, from
        // a helper thread.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            open();
        });
        sched.shutdown();
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec!["dropped"]);
        assert!(matches!(sched.submit(|| ()), Err(ServeError::Busy)));
        opener.join().unwrap();
    }
}
