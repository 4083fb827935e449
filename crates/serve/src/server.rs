//! The daemon: the session index, HTTP routing, advance coalescing, and
//! graceful shutdown.
//!
//! ## Endpoints
//!
//! | Method & path | Body | Effect |
//! |---|---|---|
//! | `POST /sessions` | [`SessionSpec`] | create session (runs the baseline probe; resolves the warm-start source) |
//! | `GET /sessions` | — | list all sessions |
//! | `GET /sessions/{id}` | — | full detail incl. recommendation |
//! | `POST /sessions/{id}/advance` | `{"steps": N}` | run N evaluations on the worker pool (429 when its queue is full) |
//! | `POST /sessions/{id}/cancel` | — | cancel the session |
//! | `GET /sessions/{id}/csv` | — | observation history as CSV |
//! | `GET /metrics` | — | [`MetricsReport`] |
//! | `GET /healthz` | — | liveness probe |
//! | `POST /shutdown` | — | request graceful shutdown |
//!
//! ## One index, one pool, a published view
//!
//! Sessions live in one index and advance on one bounded [`Scheduler`].
//! Each session carries a **gate** mutex beside its session mutex. Under
//! the gate sits the session's *view* — status, evaluation count, best
//! runtime, recommendation, drift epoch and events, surrogate stats, the
//! last durability ticket and the last driver failure — republished
//! after every step and every other change. Listing, detail, `/metrics`
//! and advance waiters read only the view and the session's fixed
//! metadata, so they never wait for a step in flight. Only the driver
//! job touches a session while it runs; the two requests that need the
//! live session (cancel and CSV export) hand their work to the driver,
//! which runs it at its next step boundary, or run it themselves when no
//! driver runs. The gate is always taken before the session.
//!
//! ## Advance coalescing
//!
//! Concurrent `POST /sessions/{id}/advance` calls on the *same* session
//! do not queue one scheduler job each (they would serialize on the
//! session anyway, wasting queue slots and worker threads). Instead the
//! gate holds an absolute evaluation-count watermark: a request raises
//! the watermark to `min(current + steps, budget)` and exactly one
//! **driver job** runs evaluations until the (possibly re-raised)
//! watermark is reached, while every other request just waits on the
//! gate's condvar. Each waiter returns once the session reaches *its*
//! watermark, reporting the evaluations that ran on its watch.
//! Determinism is unaffected: the split-RNG scheme (see
//! [`crate::session`]) makes the observation stream a pure function of
//! (seed, step), however advances are batched.
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
use crate::session::{baseline_probe, LiveSession};
use crate::spec::{build_objective, SessionSpec};
use crate::wal::{self, Durability, SessionStatus, WalSink, DEFAULT_SNAPSHOT_EVERY};
use crate::{ServeError, ServeResult};
use autotune_core::{history_to_csv, Recommendation, SessionId, SurrogateStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon settings (see `autotune-serve --help` for the CLI flags).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the persistent session repository.
    pub data_dir: PathBuf,
    /// Worker threads executing session jobs.
    pub workers: usize,
    /// Max queued (not yet running) jobs before 429.
    pub queue_cap: usize,
    /// Snapshot-compaction interval in observations.
    pub snapshot_every: usize,
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
    /// Config with defaults for everything but the data directory: one
    /// worker per available core and a queue of 32.
    pub fn new(data_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            data_dir: data_dir.into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 32,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
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
    /// The driver failure that stopped this request's steps early, such
    /// as a compaction that failed after its record reached the journal
    /// (every step counted in `ran` is still durable). `null` when
    /// nothing failed.
    pub error: Option<String>,
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

/// What requests read of a session instead of locking it (see module
/// docs). Republished under the gate after every change to the session;
/// the recommendation and drift events are shared, so copying a view out
/// costs the same at any history length.
#[derive(Clone)]
struct SessionView {
    status: SessionStatus,
    /// Observations in the history, the baseline probe included.
    observed: usize,
    best_runtime: Option<f64>,
    recommendation: Option<Arc<Recommendation>>,
    epoch: u32,
    drift_events: Arc<[DriftEvent]>,
    surrogate: Option<SurrogateStats>,
    /// Durability ticket of the session's last logged record.
    ticket: u64,
    /// Last driver failure: a 500 to waiters that saw no progress, the
    /// `error` field of a 200 to waiters that did.
    failed: Option<String>,
}

impl SessionView {
    fn of(session: &LiveSession) -> SessionView {
        let mut view = SessionView {
            status: session.status(),
            observed: 0,
            best_runtime: None,
            recommendation: None,
            epoch: 0,
            drift_events: Arc::from([]),
            surrogate: None,
            ticket: 0,
            failed: None,
        };
        view.refresh(session);
        view
    }

    /// Brings the view up to date with `session`. Only the observations
    /// since the last refresh are read, and the recommendation and drift
    /// events are copied only when they change.
    fn refresh(&mut self, session: &LiveSession) {
        let all = session.history().all();
        for obs in all.get(self.observed..).unwrap_or_default() {
            let better = self
                .best_runtime
                .is_none_or(|best| obs.runtime_secs.total_cmp(&best).is_lt());
            if !obs.failed && better {
                self.best_runtime = Some(obs.runtime_secs);
            }
        }
        self.observed = all.len();
        self.status = session.status();
        self.epoch = session.epoch();
        self.surrogate = session.surrogate_stats();
        self.ticket = session.durability_barrier().1;
        if self.recommendation.is_none() {
            self.recommendation = session.recommendation().cloned().map(Arc::new);
        }
        if self.drift_events.len() != session.drift_events().len() {
            self.drift_events = session.drift_events().into();
        }
    }

    /// Tuner-driven evaluations (the baseline probe is excluded).
    fn evaluations(&self) -> usize {
        self.observed.saturating_sub(1)
    }

    fn summary(&self, id: SessionId) -> SessionSummary {
        SessionSummary {
            id,
            status: self.status.label().to_string(),
            evaluations: self.evaluations(),
            best_runtime: self.best_runtime,
        }
    }
}

/// Whether a driver job exists for a session, and whether it has started.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    Idle,
    Queued,
    Running,
}

/// Work a request hands to the running driver, run on the live session
/// at the driver's next step boundary.
type Errand = Box<dyn FnOnce(&mut LiveSession) + Send>;

/// A session's gate: its published view plus advance coalescing.
struct Gate {
    view: SessionView,
    /// Absolute evaluation watermark requested so far.
    target: usize,
    driver: Driver,
    /// Lowest evaluation watermark any current waiter is sleeping for
    /// (`usize::MAX` when nobody waits). The driver notifies only when
    /// the count crosses it — waking every waiter after every single
    /// evaluation just burns the core they are all sharing. Reset to MAX
    /// on each notify; surviving waiters re-arm when they re-check.
    watch: usize,
    /// Work queued for the running driver's next step boundary.
    errands: Vec<Errand>,
}

/// One session in the index.
struct SessionEntry {
    /// The session's metadata; fixed for its lifetime.
    meta: SessionMeta,
    /// The session's directory, for WAL sizes.
    dir: PathBuf,
    /// The sink the session logs through, for durability waits.
    sink: WalSink,
    /// The live session: locked by its driver, or with the gate held.
    session: Mutex<LiveSession>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
}

impl SessionEntry {
    fn new(session: LiveSession, dir: PathBuf) -> Arc<SessionEntry> {
        Arc::new(SessionEntry {
            meta: session.meta.clone(),
            dir,
            sink: session.durability_barrier().0,
            gate: Mutex::new(Gate {
                view: SessionView::of(&session),
                target: 0,
                driver: Driver::Idle,
                watch: usize::MAX,
                errands: Vec::new(),
            }),
            session: Mutex::new(session),
            gate_cv: Condvar::new(),
        })
    }

    /// A copy of the session's published view.
    fn view(&self) -> SessionView {
        lock(&self.gate).view.clone()
    }

    /// Runs `work` on the live session: at the running driver's next step
    /// boundary, or here with the gate held when no driver runs. The view
    /// is republished after the work and waiters are woken.
    fn with_session<T: Send + 'static>(&self, work: fn(&mut LiveSession) -> T) -> T {
        loop {
            let mut gate = lock(&self.gate);
            if gate.driver != Driver::Running {
                let mut session = lock(&self.session);
                let out = work(&mut session);
                gate.view.refresh(&session);
                gate.watch = usize::MAX;
                drop(session);
                drop(gate);
                self.gate_cv.notify_all();
                return out;
            }
            let (tx, rx) = mpsc::channel();
            gate.errands.push(Box::new(move |session| {
                let _ = tx.send(work(session));
            }));
            drop(gate);
            if let Ok(out) = rx.recv() {
                return out;
            }
            // The driver died before the boundary and dropped the errand;
            // no driver runs now, so the next round does the work here.
        }
    }
}

struct DaemonState {
    repo: SessionRepository,
    config: DaemonConfig,
    sessions: Mutex<BTreeMap<SessionId, Arc<SessionEntry>>>,
    scheduler: Scheduler,
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
    /// The WAL sink new and recovered sessions write through.
    fn sink(&self) -> WalSink {
        match &self.group {
            Some(g) => WalSink::Group(Arc::clone(g)),
            None => WalSink::Direct(self.config.durability),
        }
    }

    /// Adds a session to the index.
    fn insert(&self, session: LiveSession) {
        let id = session.meta.id;
        let entry = SessionEntry::new(session, self.repo.session_dir(id));
        lock(&self.sessions).insert(id, entry);
    }

    /// Every indexed session, ascending id, without holding the index.
    fn entries(&self) -> Vec<Arc<SessionEntry>> {
        lock(&self.sessions).values().cloned().collect()
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
            // A crash mid-rewrite of a snapshot log can strand its tmp
            // file (and older daemons staged ticket-named ones). Recovery
            // ignores their contents — the old log, WAL and journal still
            // hold every record they would have covered — so just sweep
            // them.
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

        let id_hwm = recovered
            .iter()
            .map(|(id, _)| id.value())
            .max()
            .unwrap_or(0);
        let state = Arc::new(DaemonState {
            repo,
            sessions: Mutex::new(BTreeMap::new()),
            scheduler: Scheduler::new(config.workers, config.queue_cap),
            config,
            group,
            endpoint_stats: EndpointHistograms::default(),
            fit_stats: LatencyHistogram::default(),
            create_lock: Mutex::new(()),
            id_hwm: AtomicU64::new(id_hwm),
            shutdown: AtomicBool::new(false),
        });
        for (_, mut session) in recovered {
            session.set_sink(state.sink());
            state.insert(session);
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
        self.state.scheduler.shutdown();
        if let Some(group) = &self.state.group {
            group.shutdown();
        }
        for entry in self.state.entries() {
            let gate = lock(&entry.gate);
            let compacted = lock(&entry.session).write_snapshot();
            if let Err(e) = compacted {
                eprintln!(
                    "autotune-serve: session {}: final compaction failed: {e}",
                    entry.meta.id
                );
            }
            drop(gate);
            entry.gate_cv.notify_all();
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
    lock(&state.sessions)
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

    // Serialize id allocation + directory creation (not the session
    // index: lookups continue while a create runs).
    let create_guard = lock(&state.create_lock);
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
    let created = LiveSession::create_with(
        &state.repo,
        meta,
        warm_obs,
        state.config.snapshot_every,
        state.sink(),
    );
    // The create lock's job (id allocation + directory creation) is done;
    // holding it across the group sync would serialize every create
    // behind one fdatasync.
    drop(create_guard);
    // A create that fails once its directory exists takes the directory
    // with it: no client holds the id, so a restart must not find the
    // session either. (A conflict means the directory is another's.)
    let discard = |e: ServeError| {
        if !matches!(e, ServeError::Conflict(_)) {
            let _ = state.repo.delete_session(id);
        }
        e
    };
    let session = created.map_err(discard)?;
    // Commit point: the 201 promises the session (and its probe record)
    // survives a crash, so wait for the group journal before responding
    // and before the session joins the index.
    let (sink, ticket) = session.durability_barrier();
    sink.wait_durable(ticket).map_err(discard)?;
    let response = CreateResponse {
        id,
        warm_source,
        baseline_runtime: probe.runtime_secs,
        status: session.status().label().to_string(),
    };
    state.insert(session);
    Ok(Response::json(201, &response))
}

fn list_sessions(state: &DaemonState) -> ServeResult<Response> {
    let rows: Vec<SessionSummary> = state
        .entries()
        .iter()
        .map(|entry| entry.view().summary(entry.meta.id))
        .collect();
    Ok(Response::json(200, &rows))
}

fn session_detail(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    let view = entry.view();
    let meta = &entry.meta;
    let detail = SessionDetail {
        id,
        spec: meta.spec.clone(),
        status: view.status.label().to_string(),
        evaluations: view.evaluations(),
        remaining_budget: meta.spec.budget.saturating_sub(view.evaluations()),
        best_runtime: view.best_runtime,
        warm_source: meta.warm_source,
        recommendation: view.recommendation.as_deref().cloned(),
        epoch: view.epoch,
        drift_events: view.drift_events.to_vec(),
    };
    Ok(Response::json(200, &detail))
}

/// How often a waiter rechecks the view — a backstop for daemon
/// shutdown, which sets its flag without taking any gate.
const GATE_POLL: Duration = Duration::from_millis(50);

/// Clears a session's driver flag if the driver job never reaches its
/// own hand-off: the queued closure was dropped unrun (scheduler
/// shutdown, or rejection inside `submit`) or the worker panicked
/// mid-drive. Without this, the driver flag stays set forever — waiters
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
        gate.driver = Driver::Idle;
        if std::thread::panicking() && gate.view.failed.is_none() {
            gate.view.failed = Some("driver job panicked".to_string());
        }
        // Dropping the errands wakes their requests, which then run the
        // work themselves.
        gate.errands.clear();
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

    let mut gate = lock(&entry.gate);
    // Advancing a cancelled session is a conflict. Advancing a *finished*
    // one is not: budget exhaustion is the natural end of the very
    // operation being requested, and under concurrent advances "finished
    // before my request was checked" vs "finished while I waited" is a
    // pure race — both must answer identically (200, final state,
    // `ran: 0` for the latecomer) or the API is nondeterministic under
    // load.
    if gate.view.status == SessionStatus::Cancelled {
        return Err(ServeError::Conflict(format!("session {id} is cancelled")));
    }
    let start_evals = gate.view.evaluations();
    let my_target = (start_evals + body.steps).min(entry.meta.spec.budget);
    // Raise the gate; become the driver only if no driver exists. A
    // finished session needs no driver: the wait loop below returns its
    // final state on the first iteration.
    if !gate.view.status.is_terminal() {
        gate.target = gate.target.max(my_target);
        if gate.driver == Driver::Idle {
            gate.driver = Driver::Queued;
            gate.view.failed = None;
            drop(gate);
            let job_state = Arc::clone(state);
            // The guard travels inside the closure: if the job is
            // rejected here (queue full → 429, the closure is dropped
            // before `submit` returns), dropped from the queue at
            // shutdown, or its worker panics, the guard's Drop resets the
            // gate and wakes waiters — only a driver that runs may hand
            // off itself.
            let guard = DriverGuard::new(Arc::clone(&entry));
            state
                .scheduler
                .submit(move || drive_session(&job_state, guard))?;
            gate = lock(&entry.gate);
        }
    }

    // Wait for the session to reach *our* watermark (or stop early). The
    // view is read and the wait begins under the same gate lock, so no
    // notify can slip in between.
    loop {
        let view = &gate.view;
        let ran = view
            .evaluations()
            .saturating_sub(start_evals)
            .min(body.steps);
        let reached = view.evaluations() >= my_target || view.status.is_terminal();
        let stopped = gate.driver == Driver::Idle || state.shutdown.load(Ordering::SeqCst);
        if reached || (stopped && ran > 0) {
            // Commit point: every observation this response reports must
            // be durable before the client hears about it. Partial
            // progress — the driver stopped short of our watermark — is
            // still progress and is reported the same way, with the
            // driver's failure, if any, in `error`.
            let reply = AdvanceResponse {
                id,
                ran,
                evaluations: view.evaluations(),
                status: view.status.label().to_string(),
                best_runtime: view.best_runtime,
                error: view.failed.clone(),
            };
            let ticket = view.ticket;
            drop(gate);
            entry.sink.wait_durable(ticket)?;
            return Ok(Response::json(200, &reply));
        }
        if stopped {
            // The driver stopped short of our watermark with nothing run
            // (scheduler shutdown, a dropped or panicked driver job, a WAL
            // failure) — or the daemon is shutting down, in which case
            // waiting further is pointless: the driver stops at its next
            // step boundary anyway.
            return match gate.view.failed.clone() {
                Some(msg) => Err(ServeError::Io(std::io::Error::other(msg))),
                None => Ok(Response::text(503, "daemon is shutting down\n")),
            };
        }
        // Arm the wake watermark: the driver notifies once the count
        // crosses the lowest armed target (GATE_POLL is the backstop).
        gate.watch = gate.watch.min(my_target);
        gate = entry
            .gate_cv
            .wait_timeout(gate, GATE_POLL)
            .map(|(g, _)| g)
            .unwrap_or_else(|poison| poison.into_inner().0);
    }
}

/// The single driver job for one session: runs evaluations until the
/// gate's watermark (re-read at every step boundary, so watermarks raised
/// mid-run extend the same job), the session turns terminal, or shutdown.
/// At each boundary it runs the errands requests left on the gate and
/// republishes the view. Owns the [`DriverGuard`]: the normal hand-off
/// below disarms it; every abnormal exit (panic, never ran) leaves it
/// armed so its Drop resets the gate.
fn drive_session(state: &Arc<DaemonState>, mut guard: DriverGuard) {
    let entry = Arc::clone(&guard.entry);
    lock(&entry.gate).driver = Driver::Running;
    let mut failure: Option<String> = None;
    loop {
        // Step boundary, gate before session.
        let mut gate = lock(&entry.gate);
        let mut session = lock(&entry.session);
        for errand in std::mem::take(&mut gate.errands) {
            errand(&mut session);
        }
        gate.view.refresh(&session);
        drop(session);
        let view = &gate.view;
        let terminal = view.status.is_terminal();
        let done = terminal
            || failure.is_some()
            || state.shutdown.load(Ordering::SeqCst)
            || view.evaluations() >= gate.target;
        // Wake waiters only when one of them can actually return: their
        // lowest armed watermark was crossed, or the driver stops.
        let wake = done || view.evaluations() >= gate.watch;
        if wake {
            gate.watch = usize::MAX;
        }
        if done {
            // Hand off under the gate lock: a watermark raised from here
            // on finds no driver and submits a new one.
            gate.driver = Driver::Idle;
            gate.view.failed = failure.take();
            guard.disarm();
        }
        drop(gate);
        if wake {
            entry.gate_cv.notify_all();
        }
        if done {
            if terminal {
                if let Some(retain) = state.config.retain_finished {
                    enforce_retention(state, retain);
                }
            }
            return;
        }

        let mut session = lock(&entry.session);
        let fits_before = session.surrogate_stats().map_or(0, |st| st.fits);
        // lint:allow(wall-clock) step duration feeds the surrogate-fit /metrics histogram only, never a tuning decision
        let step_start = std::time::Instant::now();
        if let Err(e) = session.advance(1) {
            failure = Some(e.to_string());
        }
        if session.surrogate_stats().map_or(0, |st| st.fits) > fits_before {
            // Attribute the step to the fit histogram only when this
            // advance actually re-searched hyper-parameters.
            let micros = u64::try_from(step_start.elapsed().as_micros()).unwrap_or(u64::MAX);
            state.fit_stats.record_micros(micros);
        }
    }
}

/// Applies the retention cap after a session turned terminal: evicts the
/// oldest terminal session directories (protecting warm-start sources)
/// and drops the evicted sessions from the index.
fn enforce_retention(state: &Arc<DaemonState>, retain: usize) {
    let evicted = match state.repo.enforce_retention(retain) {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("autotune-serve: retention sweep failed: {e}");
            return;
        }
    };
    let mut sessions = lock(&state.sessions);
    for id in evicted {
        sessions.remove(&id);
    }
}

fn cancel_session(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    entry.with_session(LiveSession::cancel)?;
    // The view was republished with the cancellation before the work
    // returned. Commit point: the 200 promises the cancellation survives
    // a crash, so wait for the Cancelled record's group journal sync
    // (outside any lock) exactly as create and advance do for theirs.
    let view = entry.view();
    entry.sink.wait_durable(view.ticket)?;
    Ok(Response::json(200, &view.summary(id)))
}

fn export_csv(state: &DaemonState, id: SessionId) -> ServeResult<Response> {
    let entry = find_session(state, id)?;
    let csv = entry.with_session(|s| history_to_csv(s.history(), s.space()));
    Ok(Response::csv(csv))
}

fn metrics(state: &DaemonState) -> ServeResult<Response> {
    let rows: Vec<SessionMetrics> = state
        .entries()
        .iter()
        .map(|entry| {
            let view = entry.view();
            SessionMetrics {
                id: entry.meta.id,
                status: view.status.label().to_string(),
                evaluations: view.evaluations(),
                best_runtime: view.best_runtime,
                wal_bytes: wal::wal_bytes(&entry.dir),
                surrogate: view.surrogate,
                drift_epoch: view.epoch,
                drifts: view.drift_events.len(),
            }
        })
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
        queue_depth: state.scheduler.queue_depth(),
        workers: state.config.workers.max(1),
        wal_bytes_total: rows.iter().map(|r| r.wal_bytes).sum::<u64>() + journal_bytes,
        durability: state.config.durability.label().to_string(),
        endpoints: state.endpoint_stats.report(),
        group_commit: state.group.as_ref().map(|g| g.stats()),
        surrogate_fit: state.fit_stats.summary_labeled("surrogate_fit"),
        drifts_total: rows.iter().map(|r| r.drifts).sum(),
        sessions: rows,
    };
    Ok(Response::json(200, &report))
}
