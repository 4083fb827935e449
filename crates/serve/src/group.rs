//! Group commit: one fsync window shared by every session's WAL appends.
//!
//! ## Why a shared journal
//!
//! With per-session WAL files, `fsync` durability costs one disk sync per
//! observation *per session* — and syncs to different files cannot be
//! merged, so a fleet of K sessions pays K syncs per round no matter how
//! the writes are scheduled. The classic database answer (see the
//! group-commit discussion in the tuning literature this repo
//! reproduces: log-bound OLTP systems batch commits precisely because
//! fsync dominates) is a single shared log: the daemon appends every
//! session's records to one `journal.walj` at the repository root and
//! syncs it **once per batch**, whatever mix of sessions the batch holds.
//! The journal is the *only* log group-mode records are written to; the
//! per-session `wal.jsonl` files belong to the direct sink.
//!
//! ## Protocol: asynchronous appends, commit-point durability
//!
//! [`GroupCommitWal::append`] frames the record, enqueues it, and returns
//! a monotonically increasing **ticket** immediately — it never blocks on
//! the disk. A session driver therefore produces records at evaluation
//! speed, and the batch the committer drains grows with the offered load
//! instead of being capped at one record per blocked writer. Durability
//! is awaited only where it is observable: response paths (and snapshot
//! writers) call [`GroupCommitWal::wait_durable`] with the last ticket
//! they depend on, which blocks until the commit watermark passes it.
//! This is the textbook group-commit shape: transactions block at their
//! commit point, not at every log write.
//!
//! The whole pipeline is **demand-driven**: appends are pure queue pushes
//! (no committer wakeup — a record sitting in memory and a record sitting
//! unsynced in the page cache are equally volatile, so flushing it early
//! buys nothing), and the committer wakes only when some commit point
//! waits past the durable watermark or the daemon shuts down. Each wake
//! drains the *entire* queue — everything that accumulated since the last
//! demand is the batch — writes it with one buffered write, and issues
//! one `fdatasync` covering all of it. Batch size therefore adapts to
//! offered load with no timers: an idle daemon syncs per request (the
//! request's own wait is the demand), a saturated one amortizes the sync
//! across every record produced in the window. Without demand gating, a
//! steady producer forces a wakeup + write syscall per record and a sync
//! per tiny batch, and the scheduling overhead eats the win.
//!
//! A journal write/sync failure is fatal to the writer: the error is
//! sticky, every current and future `wait_durable` reports it, and
//! further appends are refused. Records the daemon already applied in
//! memory stay visible, but no response claiming durability is sent for
//! them — honest failure beats silent data loss.
//!
//! ## Journal retention
//!
//! The journal only matters for records not yet covered by a durable
//! session snapshot. Sessions report covered records via
//! [`GroupCommitWal::mark_clean_at`]; the release is deferred until the
//! committer has synced the covering ticket (so the live count never
//! runs ahead of the disk), and when the live count hits zero the
//! committer truncates the journal at the start of the next batch. On
//! startup the daemon folds any surviving journal tail into per-session
//! recovery (see [`crate::wal::read_journal`]) and deletes it once every
//! recovered session is re-snapshotted; tails for sessions it cannot
//! recover are set aside under an orphan name, never deleted.

use crate::scheduler::lock;
use crate::wal::{self, WalRecord};
use crate::{ServeError, ServeResult};
use autotune_core::SessionId;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Group-commit counters surfaced on `/metrics`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupCommitStats {
    /// Commit windows (one `fdatasync` each) since startup.
    pub batches: u64,
    /// Records made durable since startup.
    pub records: u64,
    /// Most records covered by a single sync.
    pub max_batch: u64,
    /// Mean records per sync — the fsync amortization factor.
    pub mean_batch: f64,
}

/// One record waiting for the next commit window.
struct Pending {
    ticket: u64,
    journal_frame: Vec<u8>,
}

/// An appended snapshot-log frame awaiting durability. Once `ticket` is
/// synced the committer fdatasyncs the session's log (and its directory
/// entry when the frame created the file), drops the session's
/// direct-mode WAL for terminal frames, and releases `covered` journal
/// records — all off the session worker's critical path.
struct DeferredSnap {
    dir: PathBuf,
    covered: u64,
    ticket: u64,
    terminal: bool,
    created: bool,
}

/// Queue + shutdown flag under one mutex: an append observes shutdown in
/// the same critical section it would enqueue in, so no record can slip
/// into the queue after the committer's final drain.
struct Queue {
    pending: Vec<Pending>,
    next_ticket: u64,
    /// Deferred journal-retention releases: (ticket, records). Applied by
    /// the committer once `ticket` is synced, so snapshot writers never
    /// stall waiting for the disk just to do retention bookkeeping.
    cleaned: Vec<(u64, u64)>,
    /// Appended frames the committer lands once their ticket is synced.
    deferred: Vec<DeferredSnap>,
    /// Highest ticket any `wait_durable` caller is (or was) blocked on —
    /// the committer's signal that an fdatasync is actually needed.
    wanted: u64,
    shutdown: bool,
}

/// Commit watermark shared between the committer and `wait_durable`.
struct CommitState {
    /// Highest ticket whose batch has been fsynced.
    committed: u64,
    /// Sticky journal failure; fails every wait at or past it.
    error: Option<String>,
}

struct Shared {
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Journal records not yet covered by a durable snapshot. The
    /// committer truncates the journal when this reaches zero.
    live: AtomicI64,
    batches: AtomicU64,
    records: AtomicU64,
    max_batch: AtomicU64,
}

/// The shared group-commit writer: one per daemon, fsync durability.
pub struct GroupCommitWal {
    shared: Arc<Shared>,
    journal_path: PathBuf,
    committer: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitWal {
    /// Starts the committer thread; the shared journal lives at
    /// `<root>/journal.walj`.
    pub fn start(root: &Path) -> Arc<GroupCommitWal> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                next_ticket: 0,
                cleaned: Vec::new(),
                deferred: Vec::new(),
                wanted: 0,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            commit: Mutex::new(CommitState {
                committed: 0,
                error: None,
            }),
            commit_cv: Condvar::new(),
            live: AtomicI64::new(0),
            batches: AtomicU64::new(0),
            records: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        });
        let journal_path = root.join(wal::JOURNAL_FILE);
        let committer = {
            let shared = Arc::clone(&shared);
            let journal_path = journal_path.clone();
            std::thread::spawn(move || committer_loop(&shared, &journal_path))
        };
        Arc::new(GroupCommitWal {
            shared,
            journal_path,
            committer: Mutex::new(Some(committer)),
        })
    }

    /// Where the shared journal lives.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// Enqueues one record for `session` and returns its commit ticket
    /// without waiting for the disk. Callers that promise durability
    /// must [`Self::wait_durable`] the ticket before making the promise.
    pub fn append(&self, session: SessionId, record: &WalRecord) -> ServeResult<u64> {
        let journal_frame = wal::encode_journal_entry(session, record)?;
        self.check()?;
        let ticket = {
            let mut queue = lock(&self.shared.queue);
            if queue.shutdown {
                return Err(ServeError::Busy);
            }
            queue.next_ticket += 1;
            let ticket = queue.next_ticket;
            queue.pending.push(Pending {
                ticket,
                journal_frame,
            });
            ticket
        };
        // No wakeup: the committer has nothing useful to do with this
        // record until some commit point waits on it. `wait_durable` (and
        // shutdown) notify; until then appends are pure queue pushes.
        Ok(ticket)
    }

    /// The sticky journal failure, if the journal has failed.
    pub fn check(&self) -> ServeResult<()> {
        match lock(&self.shared.commit).error.clone() {
            Some(msg) => Err(journal_error(msg)),
            None => Ok(()),
        }
    }

    /// Blocks until the batch containing `ticket` is fsynced (or the
    /// journal failed). Ticket 0 (nothing appended) returns immediately.
    pub fn wait_durable(&self, ticket: u64) -> ServeResult<()> {
        if ticket == 0 {
            return Ok(());
        }
        {
            let commit = lock(&self.shared.commit);
            if commit.committed >= ticket {
                return Ok(());
            }
            if let Some(msg) = commit.error.clone() {
                return Err(journal_error(msg));
            }
        }
        // Declare demand: the committer syncs lazily, only when a commit
        // point is actually waiting past the durable watermark.
        {
            let mut queue = lock(&self.shared.queue);
            if queue.wanted < ticket {
                queue.wanted = ticket;
            }
        }
        self.shared.queue_cv.notify_all();
        let mut commit = lock(&self.shared.commit);
        loop {
            if commit.committed >= ticket {
                return Ok(());
            }
            if let Some(msg) = commit.error.clone() {
                return Err(journal_error(msg));
            }
            commit = self
                .shared
                .commit_cv
                .wait(commit)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Reports that `n` journal records up to `ticket` are covered by a
    /// durable snapshot. The release is deferred: the committer applies
    /// it once `ticket` is synced (a snapshot may cover records the
    /// journal has not committed yet — releasing them early could let
    /// the truncation drop *other* sessions' uncovered records). When
    /// every live record is covered, the committer truncates the journal
    /// at the next batch boundary.
    pub fn mark_clean_at(&self, n: u64, ticket: u64) {
        if n > 0 {
            lock(&self.shared.queue).cleaned.push((ticket, n));
        }
    }

    /// Hands over a frame just appended to the snapshot log in `dir` for
    /// deferred durability: once `ticket` is synced, the committer
    /// fdatasyncs the log (and the directory, when the frame `created`
    /// the file), deletes the per-session WAL for `terminal` frames, and
    /// releases `covered` journal records. The landing happens *before*
    /// waiters at or past `ticket` are released, so a client that saw the
    /// covering response also finds the frame durable. Returns false when
    /// the committer has shut down (the caller must sync the log itself).
    pub fn defer_snapshot(
        &self,
        dir: PathBuf,
        covered: u64,
        ticket: u64,
        terminal: bool,
        created: bool,
    ) -> bool {
        {
            let mut queue = lock(&self.shared.queue);
            if queue.shutdown {
                return false;
            }
            queue.deferred.push(DeferredSnap {
                dir,
                covered,
                ticket,
                terminal,
                created,
            });
            // The snapshot itself demands durability of what it covers —
            // usually the same ticket the session's response is about to
            // wait on, so this rarely adds a sync window of its own.
            if queue.wanted < ticket {
                queue.wanted = ticket;
            }
        }
        self.shared.queue_cv.notify_all();
        true
    }

    /// Commit counters since startup.
    pub fn stats(&self) -> GroupCommitStats {
        let batches = self.shared.batches.load(Ordering::SeqCst);
        let records = self.shared.records.load(Ordering::SeqCst);
        GroupCommitStats {
            batches,
            records,
            max_batch: self.shared.max_batch.load(Ordering::SeqCst),
            mean_batch: if batches > 0 {
                records as f64 / batches as f64
            } else {
                0.0
            },
        }
    }

    /// Drains pending records (committing them) and stops the committer.
    /// Appends after shutdown fail with [`ServeError::Busy`].
    pub fn shutdown(&self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.queue_cv.notify_all();
        let handle = lock(&self.committer).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for GroupCommitWal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn journal_error(msg: String) -> ServeError {
    ServeError::Io(std::io::Error::other(msg))
}

fn committer_loop(shared: &Shared, journal_path: &Path) {
    let mut journal: Option<File> = None;
    // Highest ticket written (and flushed) to the journal file, and the
    // highest one actually fdatasynced. Records between the two live in
    // the page cache: cheap to add to, one sync makes them all durable.
    let mut written: u64 = 0;
    let mut synced: u64 = 0;
    let mut unsynced_records: u64 = 0;
    loop {
        let (batch, shutdown) = {
            let mut queue = lock(&shared.queue);
            // Sleep until a commit point actually needs durability (or
            // shutdown). Pending records accumulate in memory meanwhile —
            // that's the batch — and a lone low-load request still syncs
            // immediately because its own wait declares the demand. An
            // appended frame whose covering ticket is already durable
            // also wakes us: nothing else would, and it must land.
            loop {
                if queue.shutdown
                    || queue.wanted > synced
                    || queue.deferred.iter().any(|d| d.ticket <= synced)
                {
                    break;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            // Apply retention releases whose covering ticket is durable:
            // doing this before the write lets a fully covered journal
            // truncate in the same round.
            queue.cleaned.retain(|&(ticket, n)| {
                if ticket <= synced {
                    shared.live.fetch_sub(n as i64, Ordering::SeqCst);
                    false
                } else {
                    true
                }
            });
            (std::mem::take(&mut queue.pending), queue.shutdown)
        };

        let mut outcome = Ok(());
        if !batch.is_empty() {
            outcome = write_batch(shared, journal_path, &mut journal, &batch);
            if outcome.is_ok() {
                written = batch.last().map(|p| p.ticket).unwrap_or(written);
                unsynced_records += batch.len() as u64;
            }
        }
        // Sync only when a commit point demands it (re-read after the
        // write: a waiter may have declared demand mid-batch) or when
        // shutting down, so the final drain leaves nothing volatile.
        let demand = shutdown || lock(&shared.queue).wanted > synced;
        if outcome.is_ok() && demand && written > synced {
            outcome = sync_journal(journal.as_mut(), journal_path);
            if outcome.is_ok() {
                synced = written;
                shared.batches.fetch_add(1, Ordering::SeqCst);
                shared.records.fetch_add(unsynced_records, Ordering::SeqCst);
                shared
                    .max_batch
                    .fetch_max(unsynced_records, Ordering::SeqCst);
                unsynced_records = 0;
            }
        }
        // Land frames whose covering ticket is now durable — before
        // releasing commit waiters, so a client that saw the covering
        // response also finds the frame (and warm-start reads of a
        // just-finished session) durable.
        if outcome.is_ok() {
            let ready: Vec<DeferredSnap> = {
                let mut queue = lock(&shared.queue);
                let mut keep = Vec::new();
                let mut ready = Vec::new();
                for snap in queue.deferred.drain(..) {
                    if snap.ticket <= synced {
                        ready.push(snap);
                    } else {
                        keep.push(snap);
                    }
                }
                queue.deferred = keep;
                ready
            };
            for snap in &ready {
                land_snapshot(shared, snap);
            }
        }
        match outcome {
            Ok(()) => {
                let mut commit = lock(&shared.commit);
                if commit.committed < synced {
                    commit.committed = synced;
                }
                drop(commit);
                shared.commit_cv.notify_all();
            }
            Err(msg) => {
                // Sticky: every waiter past the watermark sees it, and
                // the queue refuses further appends.
                lock(&shared.commit).error.get_or_insert(msg);
                shared.commit_cv.notify_all();
                lock(&shared.queue).shutdown = true;
                return;
            }
        }
        if shutdown {
            return;
        }
    }
}

/// Writes one drained batch to the journal (buffered write + flush to the
/// page cache; durability comes from the demand-driven sync).
fn write_batch(
    shared: &Shared,
    journal_path: &Path,
    journal: &mut Option<File>,
    batch: &[Pending],
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("journal {}: {e}", journal_path.display());
    if journal.is_none() {
        *journal = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(journal_path)
                .map_err(io)?,
        );
    }
    let Some(file) = journal.as_mut() else {
        return Err(io(std::io::Error::other("journal handle unavailable")));
    };
    // Retention: every previously journaled record is covered by a
    // durable snapshot (mark_clean runs only after a durability wait, so
    // live <= 0 implies nothing written is still volatile) — recycle the
    // file before the batch instead of growing without bound. An empty
    // journal is left alone: the truncation would be a no-op, and a
    // journal that is not a regular file refuses it.
    if shared.live.load(Ordering::SeqCst) <= 0 {
        if file.metadata().map_err(io)?.len() > 0 {
            file.set_len(0).map_err(io)?;
        }
        shared.live.store(0, Ordering::SeqCst);
    }
    for p in batch {
        file.write_all(&p.journal_frame).map_err(io)?;
    }
    file.flush().map_err(io)?;
    shared.live.fetch_add(batch.len() as i64, Ordering::SeqCst);
    Ok(())
}

/// Makes one appended frame durable: one fdatasync of the snapshot log
/// (plus a directory sync when the frame created it), drop the
/// per-session WAL for terminal frames, and release the covered journal
/// records. A failure is session-local — the journal keeps the uncovered
/// records (no retention release) and recovery replays the journal tail
/// — so it is logged rather than made sticky.
fn land_snapshot(shared: &Shared, snap: &DeferredSnap) {
    let land = || -> std::io::Result<()> {
        File::open(snap.dir.join(wal::SNAPSHOT_FILE))?.sync_data()?;
        if snap.created {
            wal::sync_dir(&snap.dir);
        }
        if snap.terminal {
            wal::release_wal(&snap.dir, true)?;
        }
        Ok(())
    };
    match land() {
        Ok(()) => {
            shared.live.fetch_sub(snap.covered as i64, Ordering::SeqCst);
        }
        Err(e) => {
            if !snap.dir.exists() {
                // Retention evicted the session while this snapshot was
                // queued. Its journal records cover nothing anyone can
                // still recover, so release them — holding them would
                // pin `live` above zero and the journal could never
                // truncate again.
                shared.live.fetch_sub(snap.covered as i64, Ordering::SeqCst);
            } else {
                eprintln!(
                    "autotune-serve: deferred snapshot for {} failed: {e}",
                    snap.dir.display()
                );
            }
        }
    }
}

/// One `fdatasync` covering every record written since the last one.
fn sync_journal(journal: Option<&mut File>, journal_path: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("journal {}: {e}", journal_path.display());
    match journal {
        Some(file) => file.sync_data().map_err(io),
        None => Err(io(std::io::Error::other("journal handle unavailable"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{Configuration, Observation};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("autotune-group-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn record(seq: u64) -> WalRecord {
        WalRecord::Obs {
            seq,
            obs: Observation::ok(Configuration::new(), seq as f64),
        }
    }

    #[test]
    fn concurrent_appends_from_many_sessions_land_in_the_journal() {
        let root = tmpdir("fanin");
        let group = GroupCommitWal::start(&root);
        let mut threads = Vec::new();
        for s in 1..=4u64 {
            let group = Arc::clone(&group);
            threads.push(std::thread::spawn(move || {
                let mut last = 0;
                for seq in 0..8u64 {
                    last = group.append(SessionId::new(s), &record(seq)).unwrap();
                }
                group.wait_durable(last).unwrap();
            }));
        }
        for t in threads {
            t.join().unwrap();
        }

        // The journal holds all 32, demuxed per session and in order.
        let (map, corruption) = wal::read_journal(group.journal_path()).unwrap();
        assert!(corruption.is_none());
        assert_eq!(map.len(), 4);
        assert!(map.values().all(|v| v.len() == 8));

        let stats = group.stats();
        assert_eq!(stats.records, 32);
        assert!(stats.batches >= 1 && stats.batches <= 32);
        assert!(stats.mean_batch >= 1.0);
        group.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tickets_are_monotonic_and_waitable_out_of_order() {
        let root = tmpdir("tickets");
        let group = GroupCommitWal::start(&root);
        let t1 = group.append(SessionId::new(1), &record(0)).unwrap();
        let t2 = group.append(SessionId::new(2), &record(0)).unwrap();
        let t3 = group.append(SessionId::new(1), &record(1)).unwrap();
        assert!(t1 < t2 && t2 < t3);
        // Waiting the highest ticket first covers the earlier ones too.
        group.wait_durable(t3).unwrap();
        group.wait_durable(t1).unwrap();
        group.wait_durable(0).unwrap();
        let (map, _) = wal::read_journal(group.journal_path()).unwrap();
        assert_eq!(map[&SessionId::new(1)].len(), 2);
        assert_eq!(map[&SessionId::new(2)].len(), 1);
        group.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mark_clean_recycles_the_journal() {
        let root = tmpdir("retain");
        let group = GroupCommitWal::start(&root);
        let t = group.append(SessionId::new(1), &record(0)).unwrap();
        group.wait_durable(t).unwrap();
        let before = fs::metadata(group.journal_path()).unwrap().len();
        assert!(before > 0);

        // Snapshot covered the record: journal is recycled by the next batch.
        group.mark_clean_at(1, t);
        let t = group.append(SessionId::new(1), &record(1)).unwrap();
        group.wait_durable(t).unwrap();
        let after = fs::metadata(group.journal_path()).unwrap().len();
        assert!(
            after <= before,
            "journal truncated before the next batch ({before} -> {after})"
        );
        // Only the post-snapshot record survives in the journal.
        let (map, _) = wal::read_journal(group.journal_path()).unwrap();
        assert_eq!(map[&SessionId::new(1)].len(), 1);
        group.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn evicted_session_releases_covered_journal_records() {
        let root = tmpdir("evicted");
        let group = GroupCommitWal::start(&root);
        let s1 = SessionId::new(1);
        let s2 = SessionId::new(2);
        let t1 = group.append(s1, &record(0)).unwrap();
        group.wait_durable(t1).unwrap();

        // Hand over a frame for a session whose directory retention has
        // already deleted: landing fails, but the covered records must
        // still be released or `live` never returns to zero and the
        // journal can never truncate again.
        let missing_dir = root.join("s-000001");
        assert!(group.defer_snapshot(missing_dir, 1, t1, true, false));
        for _ in 0..500 {
            if group.shared.live.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            group.shared.live.load(Ordering::SeqCst),
            0,
            "deferred frame was processed"
        );

        // With the eviction released, the next batch recycles the
        // journal: only the new session's record survives in it.
        let t2 = group.append(s2, &record(0)).unwrap();
        group.wait_durable(t2).unwrap();
        let (map, _) = wal::read_journal(group.journal_path()).unwrap();
        assert!(
            !map.contains_key(&s1),
            "evicted session's records released; journal recycled"
        );
        assert_eq!(map[&s2].len(), 1);
        group.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_drains_pending_and_rejects_new_appends() {
        let root = tmpdir("shutdown");
        let group = GroupCommitWal::start(&root);
        let t = group.append(SessionId::new(1), &record(0)).unwrap();
        group.shutdown();
        // The pending record was committed by the final drain.
        group.wait_durable(t).unwrap();
        assert!(matches!(
            group.append(SessionId::new(1), &record(1)),
            Err(ServeError::Busy)
        ));
        let _ = fs::remove_dir_all(&root);
    }
}
