//! The daemon: sharded session registry, HTTP routing, advance
//! coalescing, and graceful shutdown.
//!
//! ## Endpoints
//!
//! | Method & path | Body | Effect |
//! |---|---|---|
//! | `POST /sessions` | [`SessionSpec`] | create session (runs the baseline probe; resolves the warm-start source) |
//! | `GET /sessions` | — | list all sessions |
//! | `GET /sessions/{id}` | — | full detail incl. recommendation |
//! | `POST /sessions/{id}/advance` | `{"steps": N}` | run N evaluations on the session's shard (429 when the shard queue is full) |
//! | `POST /sessions/{id}/cancel` | — | cancel the session |
//! | `GET /sessions/{id}/csv` | — | observation history as CSV |
//! | `GET /metrics` | — | [`MetricsReport`] |
//! | `GET /healthz` | — | liveness probe |
//! | `POST /shutdown` | — | request graceful shutdown |
//!
//! ## Sharding
//!
//! Sessions hash onto `shards` independent shards
//! (`splitmix64(id) % shards`), each with its own session index and its
//! own bounded [`Scheduler`]. Unrelated sessions therefore never contend
//! on a lock: a slow advance in one shard cannot delay lookups, creates,
//! or advances in another. `/metrics` reports per-shard queue depths.
//!
//! ## Advance coalescing
//!
//! Concurrent `POST /sessions/{id}/advance` calls on the *same* session
//! do not queue one scheduler job each (they would serialize on the
//! session mutex anyway, wasting queue slots and worker threads).
//! Instead each session carries an **advance gate** holding an absolute
//! evaluation-count watermark: a request raises the watermark to
//! `min(current + steps, budget)` and exactly one **driver job** runs
//! evaluations until the (possibly re-raised) watermark is reached, while
//! every other request just waits on the gate's condvar. Each waiter
//! returns once the session reaches *its* watermark, reporting the
//! evaluations that ran on its watch. Determinism is unaffected: the
//! split-RNG scheme (see [`crate::session`]) makes the observation stream
//! a pure function of (seed, step), however advances are batched.
//!
//! Every session mutation is WAL-logged before it is acknowledged (at the
//! configured durability — see [`crate::wal`] and [`crate::group`]), so
//! killing the daemon at any point and restarting it on the same data
//! directory recovers every session.

use crate::drift::DriftEvent;
use crate::group::GroupCommitWal;
use crate::http::{read_request, Request, Response};
use crate::metrics::{
    Endpoint, EndpointHistograms, LatencyHistogram, MetricsReport, SessionMetrics,
};
use crate::repo::{SessionMeta, SessionRepository};
use crate::scheduler::{lock, Scheduler};
use crate::session::{baseline_probe, splitmix64, LiveSession};
use crate::spec::{build_objective, SessionSpec};
use crate::wal::{self, Durability, SessionStatus, WalSink, DEFAULT_SNAPSHOT_EVERY};
use crate::{ServeError, ServeResult};
use autotune_core::{history_to_csv, Recommendation, SessionId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon settings (see `autotune-serve --help` for the CLI flags).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the persistent session repository.
    pub data_dir: PathBuf,
    /// Worker threads executing session jobs, **per shard**.
    pub workers: usize,
    /// Max queued (not yet running) jobs before 429, **per shard**.
    pub queue_cap: usize,
    /// Snapshot-compaction interval in observations.
    pub snapshot_every: usize,
    /// Independent session shards (index + scheduler each).
    pub shards: usize,
    /// WAL durability mode. `Flush` (default) survives a process crash
    /// with buffered per-session appends; `Fsync` additionally survives
    /// an OS crash, batching fsyncs through the shared group-commit
    /// journal.
    pub durability: Durability,
    /// Cap on terminal (finished/cancelled) session directories; oldest
    /// are evicted past the cap. `None` keeps everything.
    pub retain_finished: Option<usize>,
}

impl DaemonConfig {
    /// Config with defaults for everything but the data directory.
    pub fn new(data_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            data_dir: data_dir.into(),
            workers: 2,
            queue_cap: 8,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            shards: 4,
            durability: Durability::Flush,
            retain_finished: None,
        }
    }
}

/// Response body of `POST /sessions`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CreateResponse {
    /// The new session's id.
    pub id: SessionId,
    /// Which finished session seeded it, when warm-started and a source
    /// was found.
    pub warm_source: Option<SessionId>,
    /// Runtime of the baseline probe (vendor defaults).
    pub baseline_runtime: f64,
    /// Lifecycle state label.
    pub status: String,
}

/// Request body of `POST /sessions/{id}/advance`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvanceRequest {
    /// How many evaluations to run (capped by the remaining budget).
    pub steps: usize,
}

/// Response body of `POST /sessions/{id}/advance`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvanceResponse {
    /// The session.
    pub id: SessionId,
    /// Evaluations that ran during this request (under coalescing,
    /// evaluations driven on this request's watch, capped at `steps`).
    pub ran: usize,
    /// Total tuner-driven evaluations so far.
    pub evaluations: usize,
    /// Lifecycle state label after the request.
    pub status: String,
    /// Best successful runtime so far.
    pub best_runtime: Option<f64>,
}

/// One row of `GET /sessions`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The session.
    pub id: SessionId,
    /// Lifecycle state label.
    pub status: String,
    /// Tuner-driven evaluations so far.
    pub evaluations: usize,
    /// Best successful runtime so far.
    pub best_runtime: Option<f64>,
}

/// Response body of `GET /sessions/{id}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionDetail {
    /// The session.
    pub id: SessionId,
    /// The spec it was created from.
    pub spec: SessionSpec,
    /// Lifecycle state label.
    pub status: String,
    /// Tuner-driven evaluations so far.
    pub evaluations: usize,
    /// Remaining evaluation budget.
    pub remaining_budget: usize,
    /// Best successful runtime so far.
    pub best_runtime: Option<f64>,
    /// Warm-start source, if any.
    pub warm_source: Option<SessionId>,
    /// Final recommendation once finished.
    pub recommendation: Option<Recommendation>,
    /// Current drift epoch (0 until the first detected drift).
    pub epoch: u32,
    /// Every drift the session has detected, oldest first.
    pub drift_events: Vec<DriftEvent>,
}

/// Advance-coalescing state of one session (see module docs).
struct AdvanceGate {
    /// Absolute evaluation watermark requested so far.
    target: usize,
    /// Whether a driver job is scheduled or running.
    driver: bool,
    /// Last driver failure, reported to waiters that saw no progress.
    failed: Option<String>,
    /// Generation counter bumped (under this mutex) whenever session
    /// state changes. Waiters sample it before reading session state and
    /// sleep only if it is unchanged when they re-acquire the gate —
    /// otherwise a notify landing between the session read and the wait
    /// would be lost and every such miss costs a full `GATE_POLL`.
    progress: u64,
    /// Lowest evaluation watermark any current waiter is sleeping for
    /// (`usize::MAX` when nobody waits). The driver notifies only when
    /// the count crosses it — waking every waiter after every single
    /// evaluation just burns the core they are all sharing. Reset to MAX
    /// on each notify; surviving waiters re-arm when they re-check.
    watch: usize,
}

/// One session as held by a shard: the session itself plus its gate.
struct SessionEntry {
    session: Mutex<LiveSession>,
    /// Requests waiting for `session` through [`SessionEntry::request_lock`].
    /// The advance driver yields (up to [`HANDOFF_YIELDS`] times) before
    /// its next step while this is non-zero: a mutex gives no hand-off, so
    /// a driver re-locking right after each step could keep an inspector
    /// waiting for the whole advance instead of one step.
    waiting: AtomicUsize,
    gate: Mutex<AdvanceGate>,
    gate_cv: Condvar,
}

impl SessionEntry {
    fn new(session: LiveSession) -> Arc<SessionEntry> {
        Arc::new(SessionEntry {
            session: Mutex::new(session),
            waiting: AtomicUsize::new(0),
            gate: Mutex::new(AdvanceGate {
                target: 0,
                driver: false,
                failed: None,
                progress: 0,
                watch: usize::MAX,
            }),
            gate_cv: Condvar::new(),
        })
    }

    /// Locks the session for a request handler (inspection, cancel, an
    /// advance reading its progress), announcing the wait so a running
    /// driver lets the request in at its next step boundary.
    fn request_lock(&self) -> MutexGuard<'_, LiveSession> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let session = lock(&self.session);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        session
    }
}

/// One shard: an independent session index + worker pool.
struct Shard {
    sessions: Mutex<BTreeMap<SessionId, Arc<SessionEntry>>>,
    scheduler: Scheduler,
}

struct DaemonState {
    repo: SessionRepository,
    config: DaemonConfig,
    shards: Vec<Shard>,
    group: Option<Arc<GroupCommitWal>>,
    endpoint_stats: EndpointHistograms,
    /// Durations of advance steps that performed a full surrogate
    /// hyper-parameter fit (the `surrogate_fit` row of `/metrics`).
    fit_stats: LatencyHistogram,
    /// Serializes id allocation + directory creation across creates.
    create_lock: Mutex<()>,
    /// High-water mark of allocated ids: retention may delete the
    /// highest-numbered directory, and ids must never be reused.
    id_hwm: AtomicU64,
    shutdown: AtomicBool,
}

impl DaemonState {
    fn shard_index(&self, id: SessionId) -> usize {
        (splitmix64(id.value()) % self.shards.len() as u64) as usize
    }

    fn shard(&self, id: SessionId) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// The WAL sink new and recovered sessions write through.
    fn sink(&self) -> WalSink {
        match &self.group {
            Some(g) => WalSink::Group(Arc::clone(g)),
            None => WalSink::Direct(self.config.durability),
        }
    }
}

/// A running daemon instance.
pub struct Daemon {
    state: Arc<DaemonState>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

/// Milliseconds since the Unix epoch, for session-creation stamps. The
/// value is audit metadata only — it never feeds a tuning decision, an
/// RNG, or a comparison between sessions, so replay determinism holds.
fn now_unix_ms() -> u64 {
    // lint:allow(wall-clock) creation timestamp is audit metadata only; recovery reads it back from meta.json and never re-stamps
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Daemon {
    /// Starts a daemon on `addr` (use port 0 for an ephemeral port):
    /// opens the repository, folds any group-commit journal tail into
    /// per-session recovery, recovers every session on disk, enforces
    /// retention, and begins accepting connections.
    pub fn start(addr: &str, config: DaemonConfig) -> ServeResult<Daemon> {
        let repo = SessionRepository::open(&config.data_dir)?;

        // Journal fold-in: records whose per-session WAL write was lost
        // (OS crash after the journal fsync) survive only here. Read it
        // before touching any session; it may be deleted only once every
        // tail has been re-snapshotted durably into its session's files —
        // tails left over for sessions that cannot be recovered are set
        // aside on disk, never discarded.
        let journal_path = repo.root().join(wal::JOURNAL_FILE);
        let (mut journal_map, journal_corruption) = wal::read_journal(&journal_path)?;
        if let Some(note) = journal_corruption {
            eprintln!("autotune-serve: {note}");
        }

        let mut pending: Vec<(SessionMeta, Vec<wal::WalRecord>)> = Vec::new();
        for id in repo.list_ids()? {
            let meta = match repo.read_meta(id) {
                Ok(m) => m,
                // Half-created directory (crash between mkdir and meta
                // write): nothing observed yet, nothing to recover.
                Err(ServeError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            // A crash can strand staged deferred snapshots (ticket-named
            // tmp files the committer never landed). Recovery ignores
            // their contents — the journal retains every record they
            // would have covered — so just sweep them.
            if let Ok(entries) = std::fs::read_dir(repo.session_dir(id)) {
                for entry in entries.flatten() {
                    if entry
                        .file_name()
                        .to_string_lossy()
                        .starts_with("snapshot.json.tmp")
                    {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
            let tail = journal_map.remove(&id).unwrap_or_default();
            pending.push((meta, tail));
        }
        let mut recovered = recover_sessions(&repo, &config, pending)?;
        if journal_map.is_empty() {
            match std::fs::remove_file(&journal_path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        } else {
            // Tails remain for sessions with no recoverable meta.json —
            // a directory lost to a crash, or one evicted by retention
            // before the journal truncated. These records were
            // acknowledged as durable, so deleting them is not an option;
            // leaving the file in place is not either (the group
            // committer recycles the journal once its live count is
            // zero). Set it aside under an orphan name and say so.
            let ids: Vec<String> = journal_map.keys().map(|id| id.to_string()).collect();
            let orphan = orphan_journal_path(repo.root());
            std::fs::rename(&journal_path, &orphan)?;
            eprintln!(
                "autotune-serve: journal holds records for unrecoverable session(s) {}; retained at {}",
                ids.join(", "),
                orphan.display()
            );
        }

        if let Some(retain) = config.retain_finished {
            for id in repo.enforce_retention(retain)? {
                recovered.retain(|(rid, _)| *rid != id);
            }
        }

        // Group commit exists to batch *fsyncs*; under flush durability a
        // buffered per-session append is already optimal, so the group
        // sink only engages for `--durability fsync`.
        let group = if config.durability == Durability::Fsync {
            Some(GroupCommitWal::start(repo.root()))
        } else {
            None
        };

        // The listener stays *blocking*: a polling accept loop would put a
        // fixed sleep in front of every new connection. Shutdown wakes the
        // blocked `accept` with a throwaway self-connection instead.
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let nshards = config.shards.max(1);
        let shards: Vec<Shard> = (0..nshards)
            .map(|_| Shard {
                sessions: Mutex::new(BTreeMap::new()),
                scheduler: Scheduler::new(config.workers, config.queue_cap),
            })
            .collect();

        let id_hwm = recovered
            .iter()
            .map(|(id, _)| id.value())
            .max()
            .unwrap_or(0);
        let state = Arc::new(DaemonState {
            repo,
            config,
            shards,
            group,
            endpoint_stats: EndpointHistograms::default(),
            fit_stats: LatencyHistogram::default(),
            create_lock: Mutex::new(()),
            id_hwm: AtomicU64::new(id_hwm),
            shutdown: AtomicBool::new(false),
        });
        for (id, mut session) in recovered {
            session.set_sink(state.sink());
            lock(&state.shard(id).sessions).insert(id, SessionEntry::new(session));
        }

        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || accept_loop(&accept_state, listener));

        Ok(Daemon {
            state,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether `POST /shutdown` (or a test) requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, finish in-flight jobs (drivers
    /// stop at the next step boundary; waiters report partial progress or
    /// 503), drain the group-commit queue, then snapshot every session so
    /// restarts recover without replaying a long WAL tail.
    pub fn graceful_shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // Unblock the accept loop; it re-checks the flag per accept.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        for shard in &self.state.shards {
            shard.scheduler.shutdown();
        }
        if let Some(group) = &self.state.group {
            group.shutdown();
        }
        for shard in &self.state.shards {
            let sessions = lock(&shard.sessions);
            for entry in sessions.values() {
                let _ = lock(&entry.session).write_snapshot();
                entry.gate_cv.notify_all();
            }
        }
    }
}

/// Recovers the sessions `Daemon::start` found on disk (ascending id,
/// each with its journal tail) and returns them in id order.
///
/// Sessions recover independently, so they run through
/// [`autotune_math::batch::par_map`], with one exception: a
/// `warm_start` session reads other sessions' files while it recovers
/// (its creation-time source and any drift-event sources), and a
/// source's last records may sit only in the journal until the source's
/// own recovery re-snapshots them. So every `warm_start: false` session
/// recovers first, concurrently; then the warm-started ones recover one
/// at a time, in id order. Corruption notes print and the first error
/// returns in id order.
fn recover_sessions(
    repo: &SessionRepository,
    config: &DaemonConfig,
    pending: Vec<(SessionMeta, Vec<wal::WalRecord>)>,
) -> ServeResult<Vec<(SessionId, LiveSession)>> {
    let recover_one = |(meta, tail): (SessionMeta, Vec<wal::WalRecord>)| {
        let had_tail = !tail.is_empty();
        let mut session = LiveSession::recover_with(
            repo,
            meta,
            config.snapshot_every,
            WalSink::Direct(config.durability),
            tail,
        )?;
        if had_tail {
            // Make the journal-only records durable in the session's own
            // files, so the journal can be deleted once startup is done.
            session.write_snapshot()?;
        }
        Ok(session)
    };
    let (warm, cold): (Vec<_>, Vec<_>) = pending
        .into_iter()
        .partition(|(meta, _)| meta.spec.warm_start);
    let cold_ids: Vec<SessionId> = cold.iter().map(|(meta, _)| meta.id).collect();
    let mut results: BTreeMap<SessionId, ServeResult<LiveSession>> = cold_ids
        .into_iter()
        .zip(autotune_math::batch::par_map(cold, recover_one))
        .collect();
    for job in warm {
        let id = job.0.id;
        results.insert(id, recover_one(job));
    }
    let mut recovered = Vec::with_capacity(results.len());
    for (id, result) in results {
        let session = result?;
        if let Some(note) = session.recovery_corruption() {
            eprintln!("autotune-serve: session {id}: {note}");
        }
        recovered.push((id, session));
    }
    Ok(recovered)
}

/// A free name to set an unconsumed startup journal aside under
/// (`journal.walj.orphan`, then `.orphan-1`, `.orphan-2`, … if earlier
/// orphans already exist).
fn orphan_journal_path(root: &std::path::Path) -> PathBuf {
    let base = root.join(format!("{}.orphan", wal::JOURNAL_FILE));
    if !base.exists() {
        return base;
    }
    let mut i: u64 = 1;
    loop {
        let candidate = root.join(format!("{}.orphan-{i}", wal::JOURNAL_FILE));
        if !candidate.exists() {
            return candidate;
        }
        i += 1;
    }
}

fn accept_loop(state: &Arc<DaemonState>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    drop(stream); // the shutdown wake-up connection
                    return;
                }
                let state = Arc::clone(state);
                std::thread::spawn(move || handle_connection(&state, stream));
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, ECONNABORTED…): back
                // off briefly rather than spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn handle_connection(state: &Arc<DaemonState>, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let response = match read_request(&mut stream) {
        Ok(request) => route(state, &request),
        Err(e) => Response::from_error(&e),
    };
    let _ = response.write_to(&mut stream);
}

/// Dispatches one request to its handler, timing it for `/metrics`.
fn route(state: &Arc<DaemonState>, request: &Request) -> Response {
    // lint:allow(wall-clock) request latency feeds the /metrics histograms only, never a tuning decision
    let start = std::time::Instant::now();
    let segments = request.segments();
    let (endpoint, result) = match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) | ("GET", ["healthz"]) => (
            Endpoint::Other,
            Ok(Response::json(
                200,
                &BTreeMap::from([
                    ("service".to_string(), "autotune-serve".to_string()),
                    ("status".to_string(), "ok".to_string()),
                ]),
            )),
        ),
        ("POST", ["sessions"]) => (Endpoint::Create, create_session(state, request)),
        ("GET", ["sessions"]) => (Endpoint::Inspect, list_sessions(state)),
        ("GET", ["sessions", id]) => (
            Endpoint::Inspect,
            parse_id(id).and_then(|id| session_detail(state, id)),
        ),
        ("POST", ["sessions", id, "advance"]) => (
            Endpoint::Advance,
            parse_id(id).and_then(|id| advance_session(state, id, request)),
        ),
        ("POST", ["sessions", id, "cancel"]) => (
            Endpoint::Cancel,
            parse_id(id).and_then(|id| cancel_session(state, id)),
        ),
        ("GET", ["sessions", id, "csv"]) => (
            Endpoint::Csv,
            parse_id(id).and_then(|id| export_csv(state, id)),
        ),
        ("GET", ["metrics"]) => (Endpoint::Metrics, metrics(state)),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            (Endpoint::Other, Ok(Response::text(200, "shutting down\n")))
        }
        _ => (
            Endpoint::Other,
            Err(ServeError::NotFound(format!(
                "{} {}",
                request.method, request.path
            ))),
        ),
    };
    state
        .endpoint_stats
        .record(endpoint, start.elapsed().as_micros() as u64);
    result.unwrap_or_else(|e| Response::from_error(&e))
}

fn parse_id(raw: &str) -> ServeResult<SessionId> {
    raw.parse()
        .map_err(|_| ServeError::BadRequest(format!("bad session id '{raw}'")))
}

fn find_session(state: &DaemonState, id: SessionId) -> ServeResult<Arc<SessionEntry>> {
    lock(&state.shard(id).sessions)
        .get(&id)
        .cloned()
        .ok_or_else(|| ServeError::NotFound(format!("session {id}")))
}

fn create_session(state: &Arc<DaemonState>, request: &Request) -> ServeResult<Response> {
    if state.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::Busy);
    }
    let spec: SessionSpec = request.json()?;
    spec.validate()?;

    // Serialize id allocation + directory creation (not the whole session
    // index: creates in different shards proceed while lookups continue).
    let _create_guard = lock(&state.create_lock);
    let id = {
        // Retention may have deleted the highest-numbered directory; the
        // in-memory high-water mark keeps ids monotonic regardless.
        let disk = state.repo.next_id()?.value();
        let hwm = state.id_hwm.load(Ordering::SeqCst);
        let id = disk.max(hwm + 1);
        state.id_hwm.store(id, Ordering::SeqCst);
        SessionId::new(id)
    };

    // Pre-run the probe (the same observation 0 LiveSession::create will
    // record) to obtain the workload signature the warm-start lookup
    // needs before the tuner exists.
    let probe = baseline_probe(&mut *build_objective(&spec)?, spec.seed, 0);

    let warm_source = if spec.warm_start {
        state
            .repo
            .nearest_finished(spec.platform(), &probe.metrics, None)?
    } else {
        None
    };
    let warm_obs = match warm_source {
        Some(src) => Some(state.repo.load_observations(src)?),
        None => None,
    };

    let meta = SessionMeta {
        id,
        spec,
        warm_source,
        created_unix_ms: now_unix_ms(),
    };
    let session = LiveSession::create_with(
        &state.repo,
        meta,
        warm_obs,
        state.config.snapshot_every,
        state.sink(),
    )?;
    let response = CreateResponse {
        id,
        warm_source,
        baseline_runtime: probe.runtime_secs,
        status: session.status().label().to_string(),
    };
    // Commit point: the 201 promises the session (and its probe record)
    // survives a crash, so wait for the group journal before responding.
    // The create lock's job (id allocation + directory creation) is done
    // once the entry is registered; holding it across the group sync
    // would serialize every create behind one fdatasync.
    let (sink, ticket) = session.durability_barrier();
    lock(&state.shard(id).sessions).insert(id, SessionEntry::new(session));
    drop(_create_guard);
    sink.wait_durable(ticket)?;
    Ok(Response::json(201, &response))
}

fn list_sessions(state: &DaemonState) -> ServeResult<Response> {
    let mut rows: Vec<SessionSummary> = Vec::new();
    for shard in &state.shards {
        let sessions = lock(&shard.sessions);
        rows.extend(sessions.values().map(|entry| {
            let s = entry.request_lock();
            SessionSummary {
                id: s.meta.id,
                status: s.status().label().to_string(),
                evaluations: s.evaluations(),
                best_runtime: s.best_runtime(),
            }
        }));
    }
    rows.sort_by_key(|r| r.id);
    Ok(Response::json(200, &rows))
}

fn session_detail(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    let s = entry.request_lock();
    let detail = SessionDetail {
        id: s.meta.id,
        spec: s.meta.spec.clone(),
        status: s.status().label().to_string(),
        evaluations: s.evaluations(),
        remaining_budget: s.meta.spec.budget.saturating_sub(s.evaluations()),
        best_runtime: s.best_runtime(),
        warm_source: s.meta.warm_source,
        recommendation: s.recommendation().cloned(),
        epoch: s.epoch(),
        drift_events: s.drift_events().to_vec(),
    };
    Ok(Response::json(200, &detail))
}

/// How often a waiter rechecks session state — a backstop against a
/// missed notification; the driver notifies after every evaluation.
const GATE_POLL: Duration = Duration::from_millis(50);

/// How many times the advance driver yields to waiting requests before
/// its next step: enough for a request woken by the unlock to take the
/// session lock, bounded so that requests that keep arriving cannot stall
/// the driver.
const HANDOFF_YIELDS: usize = 64;

/// Clears a session's driver flag if the driver job never reaches its
/// own hand-off: the queued closure was dropped unrun (scheduler
/// shutdown, or rejection inside `submit`) or the worker panicked
/// mid-drive. Without this, `gate.driver` stays true forever — waiters
/// spin on the poll instead of getting their 503/partial response, and
/// the session is wedged because no new driver can ever be submitted.
struct DriverGuard {
    entry: Arc<SessionEntry>,
    armed: bool,
}

impl DriverGuard {
    fn new(entry: Arc<SessionEntry>) -> DriverGuard {
        DriverGuard { entry, armed: true }
    }

    /// The driver completed its own hand-off; the guard stands down.
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for DriverGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut gate = lock(&self.entry.gate);
        gate.driver = false;
        if std::thread::panicking() && gate.failed.is_none() {
            gate.failed = Some("driver job panicked".to_string());
        }
        gate.progress = gate.progress.wrapping_add(1);
        gate.watch = usize::MAX;
        drop(gate);
        self.entry.gate_cv.notify_all();
    }
}

fn advance_session(
    state: &Arc<DaemonState>,
    id: SessionId,
    request: &Request,
) -> ServeResult<Response> {
    let body: AdvanceRequest = request.json()?;
    if body.steps == 0 {
        return Err(ServeError::BadRequest("steps must be positive".into()));
    }
    let entry = find_session(state, id)?;

    let (start_evals, budget, finished) = {
        let s = entry.request_lock();
        // Advancing a cancelled session is a conflict. Advancing a
        // *finished* one is not: budget exhaustion is the natural end of
        // the very operation being requested, and under concurrent
        // advances "finished before my request was checked" vs "finished
        // while I waited" is a pure race — both must answer identically
        // (200, final state, `ran: 0` for the latecomer) or the API is
        // nondeterministic under load.
        if s.status() == SessionStatus::Cancelled {
            return Err(ServeError::Conflict(format!(
                "session {} is cancelled",
                s.meta.id
            )));
        }
        (
            s.evaluations(),
            s.meta.spec.budget,
            s.status().is_terminal(),
        )
    };
    let my_target = (start_evals + body.steps).min(budget);

    // Raise the gate; become the driver only if no driver is active. A
    // finished session needs no driver: the wait loop below returns its
    // final state on the first iteration.
    let submit_driver = !finished && {
        let mut gate = lock(&entry.gate);
        if gate.target < my_target {
            gate.target = my_target;
        }
        if gate.driver {
            false
        } else {
            gate.driver = true;
            gate.failed = None;
            true
        }
    };
    if submit_driver {
        let job_state = Arc::clone(state);
        // The guard travels inside the closure: if the job is rejected
        // here, dropped from the queue at shutdown, or its worker
        // panics, the guard's Drop clears the driver flag and wakes
        // waiters — only a driver that runs may hand off itself.
        let guard = DriverGuard::new(Arc::clone(&entry));
        // On rejection (queue full → 429) submit drops the closure before
        // returning, so the guard has already reset the gate.
        state
            .shard(id)
            .scheduler
            .submit(move || drive_session(&job_state, guard))?;
    }

    // Wait for the session to reach *our* watermark (or stop early).
    loop {
        // Sample the gate generation *before* the session read: any
        // evaluation landing after this point bumps it under the gate
        // mutex, so the wait below cannot miss it.
        let seen = lock(&entry.gate).progress;
        let (evals, status, best, barrier) = {
            let s = entry.request_lock();
            (
                s.evaluations(),
                s.status(),
                s.best_runtime(),
                s.durability_barrier(),
            )
        };
        if evals >= my_target || status.is_terminal() {
            // Commit point: every observation this response reports must
            // be durable before the client hears about it. The wait runs
            // outside the session lock so the driver keeps evaluating.
            let (sink, ticket) = barrier;
            sink.wait_durable(ticket)?;
            let ran = evals.saturating_sub(start_evals).min(body.steps);
            return Ok(Response::json(
                200,
                &AdvanceResponse {
                    id,
                    ran,
                    evaluations: evals,
                    status: status.label().to_string(),
                    best_runtime: best,
                },
            ));
        }
        let mut gate = lock(&entry.gate);
        if gate.progress != seen {
            // Steps landed (or the driver stepped down) since the sample:
            // `evals` may be stale — e.g. the driver reached our watermark
            // and stepped down between the session read and this lock.
            // Re-read before judging the driver's absence or waiting.
            continue;
        }
        if !gate.driver || state.shutdown.load(Ordering::SeqCst) {
            // The driver stopped short of our watermark (scheduler
            // shutdown, a dropped or panicked driver job, a WAL failure)
            // — or the daemon is shutting down, in which case waiting
            // further is pointless: the driver stops at its next step
            // boundary anyway.
            let failed = gate.failed.clone();
            drop(gate);
            let ran = evals.saturating_sub(start_evals).min(body.steps);
            if ran > 0 {
                // Partial progress is still progress; report it (durably).
                let (sink, ticket) = barrier;
                sink.wait_durable(ticket)?;
                return Ok(Response::json(
                    200,
                    &AdvanceResponse {
                        id,
                        ran,
                        evaluations: evals,
                        status: status.label().to_string(),
                        best_runtime: best,
                    },
                ));
            }
            return match failed {
                Some(msg) => Err(ServeError::Io(std::io::Error::other(msg))),
                None => Ok(Response::text(503, "daemon is shutting down\n")),
            };
        }
        // Arm the wake watermark: the driver notifies once the count
        // crosses the lowest armed target (GATE_POLL is the backstop).
        gate.watch = gate.watch.min(my_target);
        let gate = entry
            .gate_cv
            .wait_timeout(gate, GATE_POLL)
            .map(|(g, _)| g)
            .unwrap_or_else(|poison| poison.into_inner().0);
        drop(gate);
    }
}

/// The single driver job for one session: runs evaluations until the
/// gate's watermark (re-read after reaching it, so watermarks raised
/// mid-run extend the same job), the session turns terminal, or shutdown.
/// Owns the [`DriverGuard`]: the normal hand-off below disarms it; every
/// abnormal exit (panic, never ran) leaves it armed so its Drop resets
/// the gate.
fn drive_session(state: &Arc<DaemonState>, mut guard: DriverGuard) {
    let entry = Arc::clone(&guard.entry);
    let mut failure: Option<String> = None;
    let mut finished_terminal = false;
    loop {
        let target = lock(&entry.gate).target;
        loop {
            if state.shutdown.load(Ordering::SeqCst) || failure.is_some() {
                break;
            }
            for _ in 0..HANDOFF_YIELDS {
                if entry.waiting.load(Ordering::SeqCst) == 0 {
                    break;
                }
                std::thread::yield_now();
            }
            let mut s = lock(&entry.session);
            if s.status().is_terminal() || s.evaluations() >= target {
                finished_terminal = s.status().is_terminal();
                break;
            }
            // One evaluation per lock hold, and a yield to waiting
            // requests before the next: inspection endpoints and cancel
            // stay responsive during a long advance.
            let fits_before = s.surrogate_stats().map_or(0, |st| st.fits);
            // lint:allow(wall-clock) step duration feeds the surrogate-fit /metrics histogram only, never a tuning decision
            let step_start = std::time::Instant::now();
            if let Err(e) = s.advance(1) {
                failure = Some(e.to_string());
            }
            let stats_after = s.surrogate_stats();
            if stats_after.map_or(0, |st| st.fits) > fits_before {
                // Attribute the step to the fit histogram only when this
                // advance actually re-searched hyper-parameters.
                let micros = u64::try_from(step_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                state.fit_stats.record_micros(micros);
            }
            let evals = s.evaluations();
            let terminal = s.status().is_terminal();
            drop(s);
            let mut gate = lock(&entry.gate);
            gate.progress = gate.progress.wrapping_add(1);
            // Wake waiters only when one of them can actually return:
            // their lowest armed watermark was crossed, the session went
            // terminal, or the step failed.
            let wake = terminal || failure.is_some() || evals >= gate.watch;
            if wake {
                gate.watch = usize::MAX;
            }
            drop(gate);
            if wake {
                entry.gate_cv.notify_all();
            }
        }
        // Hand off under the gate lock: either the watermark was raised
        // while we were finishing (keep driving) or we step down.
        let mut gate = lock(&entry.gate);
        let done = failure.is_some() || state.shutdown.load(Ordering::SeqCst) || {
            let s = lock(&entry.session);
            s.status().is_terminal() || s.evaluations() >= gate.target
        };
        if done {
            gate.driver = false;
            gate.failed = failure.take();
            gate.progress = gate.progress.wrapping_add(1);
            gate.watch = usize::MAX;
            guard.disarm();
            drop(gate);
            entry.gate_cv.notify_all();
            break;
        }
    }
    if finished_terminal {
        if let Some(retain) = state.config.retain_finished {
            enforce_retention(state, retain);
        }
    }
}

/// Applies the retention cap after a session turned terminal: evicts the
/// oldest terminal session directories (protecting warm-start sources)
/// and drops the evicted sessions from their shards.
fn enforce_retention(state: &Arc<DaemonState>, retain: usize) {
    let evicted = match state.repo.enforce_retention(retain) {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("autotune-serve: retention sweep failed: {e}");
            return;
        }
    };
    for id in evicted {
        lock(&state.shard(id).sessions).remove(&id);
    }
}

fn cancel_session(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    let mut s = entry.request_lock();
    s.cancel()?;
    let summary = SessionSummary {
        id,
        status: s.status().label().to_string(),
        evaluations: s.evaluations(),
        best_runtime: s.best_runtime(),
    };
    let barrier = s.durability_barrier();
    drop(s);
    let mut gate = lock(&entry.gate);
    gate.progress = gate.progress.wrapping_add(1);
    gate.watch = usize::MAX;
    drop(gate);
    entry.gate_cv.notify_all();
    // Commit point: the 200 promises the cancellation survives a crash,
    // so wait for the Cancelled record's group journal sync (outside the
    // session lock) exactly as create and advance do for theirs.
    let (sink, ticket) = barrier;
    sink.wait_durable(ticket)?;
    Ok(Response::json(200, &summary))
}

fn export_csv(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    let s = entry.request_lock();
    Ok(Response::csv(history_to_csv(s.history(), s.space())))
}

fn metrics(state: &DaemonState) -> ServeResult<Response> {
    let mut rows: Vec<SessionMetrics> = Vec::new();
    for shard in &state.shards {
        let sessions = lock(&shard.sessions);
        rows.extend(sessions.values().map(|entry| {
            let s = entry.request_lock();
            SessionMetrics {
                id: s.meta.id,
                status: s.status().label().to_string(),
                evaluations: s.evaluations(),
                best_runtime: s.best_runtime(),
                wal_bytes: s.wal_bytes(),
                surrogate: s.surrogate_stats(),
                drift_epoch: s.epoch(),
                drifts: s.drift_events().len(),
            }
        }));
    }
    rows.sort_by_key(|r| r.id);
    let shard_queue_depths: Vec<usize> = state
        .shards
        .iter()
        .map(|s| s.scheduler.queue_depth())
        .collect();
    // In group mode records live in the shared journal, not per-session
    // WAL files, so count the journal toward the WAL byte total too.
    let journal_bytes = state
        .group
        .as_ref()
        .and_then(|g| std::fs::metadata(g.journal_path()).ok())
        .map(|m| m.len())
        .unwrap_or(0);
    let report = MetricsReport {
        queue_depth: shard_queue_depths.iter().sum(),
        workers: state.config.workers * state.shards.len(),
        wal_bytes_total: rows.iter().map(|r| r.wal_bytes).sum::<u64>() + journal_bytes,
        shards: state.shards.len(),
        shard_queue_depths,
        durability: state.config.durability.label().to_string(),
        endpoints: state.endpoint_stats.report(),
        group_commit: state.group.as_ref().map(|g| g.stats()),
        surrogate_fit: state.fit_stats.summary_labeled("surrogate_fit"),
        drifts_total: rows.iter().map(|r| r.drifts).sum(),
        sessions: rows,
    };
    Ok(Response::json(200, &report))
}
