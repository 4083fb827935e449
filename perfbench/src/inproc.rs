//! In-process passes over the sessions a daemon run drove: the real
//! `LiveSession` (timing `advance` and `recover_with`) and the traced
//! [`Mirror`]. Both must reproduce the daemon's histories and
//! recommendations byte for byte, and [`check_same_files`] holds the
//! replica's files to those `LiveSession` wrote. Each pass leaves its data
//! directory in place for that comparison; the run's clean-up removes it.

use crate::drive::{Outcome, Tracked};
use crate::image;
use crate::plan::{Workload, STEPS_PER_REQUEST};
use crate::trace::{Mirror, Spans};
use autotune_core::history_to_csv;
use autotune_serve::group::GroupCommitWal;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::wal::{self, Durability, SessionStatus, WalSink, DEFAULT_SNAPSHOT_EVERY};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timings of one `LiveSession` pass (microseconds).
#[derive(Debug, Default, Clone)]
pub struct LivePass {
    /// `LiveSession::advance`.
    pub advance_us: f64,
    /// `wait_durable` at each request's commit point.
    pub wait_us: f64,
    /// `SessionRepository::recover_session`, called on its own.
    pub read_us: f64,
    /// `LiveSession::recover_with`.
    pub recover_with_us: f64,
    /// Advance requests made.
    pub requests: u64,
    /// Evaluations run.
    pub evaluations: u64,
    /// Observations recovered.
    pub recovered: u64,
    /// Digest of the session's files after each request (direct sinks
    /// only; see [`check_same_files`]).
    pub trail: Vec<u64>,
}

fn meta(s: &Tracked) -> SessionMeta {
    SessionMeta {
        id: s.id,
        spec: serde_json::from_str(&s.plan.spec_json()).expect("session spec"),
        warm_source: None,
        created_unix_ms: 0,
    }
}

/// Opens a fresh repository at `dir` and the sink the daemon would give
/// its sessions there (group commit under `fsync`).
fn fresh(
    dir: &Path,
    durability: Durability,
) -> (SessionRepository, Option<Arc<GroupCommitWal>>, WalSink) {
    let _ = std::fs::remove_dir_all(dir);
    let repo = SessionRepository::open(dir).expect("open repository");
    let group = (durability == Durability::Fsync).then(|| GroupCommitWal::start(repo.root()));
    let sink = match &group {
        Some(g) => WalSink::Group(Arc::clone(g)),
        None => WalSink::Direct(durability),
    };
    (repo, group, sink)
}

fn check(what: &str, s: &Tracked, csv: &str, rec: &str, want: &Outcome) {
    assert!(
        csv == want.csv,
        "{what}: session {} history differs from the daemon's",
        s.id
    );
    assert!(
        rec == want.recommendation,
        "{what}: session {} recommendation differs from the daemon's",
        s.id
    );
}

fn live_json(live: &LiveSession) -> (String, String) {
    (
        history_to_csv(live.history(), live.space()),
        serde_json::to_string(&live.recommendation().cloned()).expect("recommendation json"),
    )
}

/// Runs `sessions` from creation to budget with `LiveSession`, the same
/// steps per call as the client asked for, timing each `advance`.
pub fn live_create(
    workload: Workload,
    sessions: &[Tracked],
    expect: &[Outcome],
    dir: &Path,
) -> LivePass {
    let (repo, group, sink) = fresh(dir, workload.durability());
    let direct = matches!(sink, WalSink::Direct(_));
    let mut pass = LivePass::default();
    for (s, want) in sessions.iter().zip(expect) {
        let mut live =
            LiveSession::create_with(&repo, meta(s), None, DEFAULT_SNAPSHOT_EVERY, sink.clone())
                .expect("create");
        while live.status() == SessionStatus::Running {
            let t = Instant::now();
            pass.evaluations += live.advance(STEPS_PER_REQUEST).expect("advance") as u64;
            pass.advance_us += t.elapsed().as_secs_f64() * 1e6;
            let (sink, ticket) = live.durability_barrier();
            let t = Instant::now();
            sink.wait_durable(ticket).expect("durable");
            pass.wait_us += t.elapsed().as_secs_f64() * 1e6;
            pass.requests += 1;
            if direct {
                pass.trail.push(image::digest(&repo.session_dir(s.id)));
            }
        }
        let (csv, rec) = live_json(&live);
        check("LiveSession", s, &csv, &rec, want);
    }
    if let Some(g) = group {
        g.shutdown();
    }
    pass
}

/// The traced counterpart of [`live_create`]. Returns the spans, the
/// pass's wall seconds (without the digests) and its trail.
pub fn mirror_create(
    workload: Workload,
    sessions: &[Tracked],
    expect: &[Outcome],
    dir: &Path,
) -> (Spans, f64, Vec<u64>) {
    let (repo, group, sink) = fresh(dir, workload.durability());
    let direct = matches!(sink, WalSink::Direct(_));
    let mut spans = Spans::default();
    let mut trail = Vec::new();
    let mut digest_s = 0.0;
    let start = Instant::now();
    for (s, want) in sessions.iter().zip(expect) {
        let mut m = Mirror::create(
            &repo,
            &meta(s),
            sink.clone(),
            DEFAULT_SNAPSHOT_EVERY,
            &mut spans,
        );
        while m.status() == SessionStatus::Running {
            m.advance(STEPS_PER_REQUEST, &mut spans);
            m.wait_durable(&mut spans);
            if direct {
                let t = Instant::now();
                trail.push(image::digest(&repo.session_dir(s.id)));
                digest_s += t.elapsed().as_secs_f64();
            }
        }
        check(
            "traced replica",
            s,
            &m.csv(),
            &m.recommendation_json(),
            want,
        );
    }
    let wall_s = start.elapsed().as_secs_f64() - digest_s;
    if let Some(g) = group {
        g.shutdown();
    }
    (spans, wall_s, trail)
}

/// Fails unless the traced replica's pass left the same session files
/// (metadata, WAL and snapshot, byte for byte) as the `LiveSession` pass,
/// at the end and, with direct sinks, after every request, so the
/// replica's persistence and replay are the program's: a snapshot taken
/// at another point, or holding other contents, fails even when the
/// histories agree. With group commit only the end state is compared:
/// the committer lands deferred snapshots on its own schedule. The shared
/// journal is left out too, as the committer truncates it at points set
/// by its own timing.
pub fn check_same_files(
    live_dir: &Path,
    live_trail: &[u64],
    mirror_dir: &Path,
    mirror_trail: &[u64],
) {
    if let Some(at) = live_trail
        .iter()
        .zip(mirror_trail)
        .position(|(a, b)| a != b)
    {
        panic!("traced replica's session files differ from LiveSession's after request {at}");
    }
    assert_eq!(
        live_trail.len(),
        mirror_trail.len(),
        "traced replica made other requests than LiveSession"
    );
    if let Some(diff) = image::first_difference(live_dir, mirror_dir, &[wal::JOURNAL_FILE]) {
        panic!("traced replica's files differ from LiveSession's: {diff}");
    }
}

/// Journal tails by session, read the way `Daemon::start` reads them.
fn journal_tails(
    root: &Path,
) -> std::collections::BTreeMap<autotune_core::SessionId, Vec<wal::WalRecord>> {
    let (tails, corruption) =
        wal::read_journal(&root.join(wal::JOURNAL_FILE)).expect("read journal");
    assert!(
        corruption.is_none(),
        "crash image journal is corrupt: {corruption:?}"
    );
    tails
}

/// Removes staged deferred snapshots, as `Daemon::start` does.
fn sweep_staged(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("list session dir").flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with("snapshot.json.tmp")
        {
            std::fs::remove_file(entry.path()).expect("sweep staged snapshot");
        }
    }
}

/// Recovers every session of the data directory `image` (copied to `dir`)
/// with `LiveSession::recover_with`, timing the file read on its own
/// first; then advances the running ones to their budgets. Final state
/// must match `expect`.
pub fn live_recover(
    workload: Workload,
    sessions: &[Tracked],
    expect: &[Outcome],
    image: &Path,
    dir: &Path,
) -> LivePass {
    let _ = std::fs::remove_dir_all(dir);
    crate::image::copy_tree(image, dir);
    let repo = SessionRepository::open(dir).expect("open repository");
    let mut tails = journal_tails(dir);
    let durability = workload.durability();
    let mut pass = LivePass::default();
    let mut lives = Vec::new();
    for s in sessions {
        sweep_staged(&repo.session_dir(s.id));
        // One untimed read first, so the timed read and `recover_with`
        // (which reads again) both find the files in the page cache.
        repo.recover_session(s.id).expect("read session");
        let t = Instant::now();
        repo.recover_session(s.id).expect("read session");
        pass.read_us += t.elapsed().as_secs_f64() * 1e6;
        let tail = tails.remove(&s.id).unwrap_or_default();
        let had_tail = !tail.is_empty();
        let meta = repo.read_meta(s.id).expect("meta");
        let t = Instant::now();
        let mut live = LiveSession::recover_with(
            &repo,
            meta,
            DEFAULT_SNAPSHOT_EVERY,
            WalSink::Direct(durability),
            tail,
        )
        .expect("recover");
        pass.recover_with_us += t.elapsed().as_secs_f64() * 1e6;
        pass.recovered += live.history().len() as u64;
        if had_tail {
            live.write_snapshot().expect("fold journal tail");
        }
        lives.push(live);
    }
    let _ = std::fs::remove_file(dir.join(wal::JOURNAL_FILE));
    let group = (durability == Durability::Fsync).then(|| GroupCommitWal::start(repo.root()));
    for live in &mut lives {
        live.set_sink(match &group {
            Some(g) => WalSink::Group(Arc::clone(g)),
            None => WalSink::Direct(durability),
        });
        while live.status() == SessionStatus::Running {
            let t = Instant::now();
            pass.evaluations += live.advance(STEPS_PER_REQUEST).expect("advance") as u64;
            pass.advance_us += t.elapsed().as_secs_f64() * 1e6;
            let (sink, ticket) = live.durability_barrier();
            let t = Instant::now();
            sink.wait_durable(ticket).expect("durable");
            pass.wait_us += t.elapsed().as_secs_f64() * 1e6;
            pass.requests += 1;
        }
    }
    for ((s, live), want) in sessions.iter().zip(&lives).zip(expect) {
        let (csv, rec) = live_json(live);
        check("recovered LiveSession", s, &csv, &rec, want);
    }
    if let Some(g) = group {
        g.shutdown();
    }
    pass
}

/// The traced counterpart of [`live_recover`].
pub fn mirror_recover(
    workload: Workload,
    sessions: &[Tracked],
    expect: &[Outcome],
    image: &Path,
    dir: &Path,
) -> (Spans, f64) {
    let _ = std::fs::remove_dir_all(dir);
    crate::image::copy_tree(image, dir);
    let repo = SessionRepository::open(dir).expect("open repository");
    let mut tails = journal_tails(dir);
    let durability = workload.durability();
    let mut spans = Spans::default();
    let mut startup = Spans::default();
    let start = Instant::now();
    let mut mirrors = Vec::new();
    for s in sessions {
        sweep_staged(&repo.session_dir(s.id));
        let tail = tails.remove(&s.id).unwrap_or_default();
        let had_tail = !tail.is_empty();
        let meta = repo.read_meta(s.id).expect("meta");
        let mut m = Mirror::recover(
            &repo,
            &meta,
            tail,
            WalSink::Direct(durability),
            DEFAULT_SNAPSHOT_EVERY,
            &mut spans,
        );
        if had_tail {
            // Startup work outside `recover_with`; kept out of the spans.
            m.write_snapshot(&mut startup);
        }
        mirrors.push(m);
    }
    spans.recovery_us = spans.layer_sum_us();
    let _ = std::fs::remove_file(dir.join(wal::JOURNAL_FILE));
    let group = (durability == Durability::Fsync).then(|| GroupCommitWal::start(repo.root()));
    for m in &mut mirrors {
        m.set_sink(match &group {
            Some(g) => WalSink::Group(Arc::clone(g)),
            None => WalSink::Direct(durability),
        });
        while m.status() == SessionStatus::Running {
            m.advance(STEPS_PER_REQUEST, &mut spans);
            m.wait_durable(&mut spans);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    for ((s, m), want) in sessions.iter().zip(&mirrors).zip(expect) {
        check(
            "traced replica",
            s,
            &m.csv(),
            &m.recommendation_json(),
            want,
        );
    }
    if let Some(g) = group {
        g.shutdown();
    }
    (spans, wall_s)
}
