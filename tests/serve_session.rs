//! The serve session step machine under crashes: a session dropped after
//! any number of steps and recovered from its log must finish exactly as
//! the uninterrupted run does — also when the crash tore the snapshot
//! log's last frame mid-append — a finished session recovers without
//! replaying its tuner, a constrained session recovers without any
//! constraint file on disk, a session whose `meta.json` names a retired
//! surrogate backend recovers as if it named none, and a daemon
//! restarting on a crash image
//! recovers all of its sessions — concurrently where that is safe — so
//! that each one finishes as the uninterrupted run does. A daemon whose
//! group journal fails (it points at a full device) acknowledges nothing
//! more, keeps no session it failed to create, and a restart recovers
//! exactly the acknowledged prefix; so does one whose session snapshot
//! log fails on append while the journal holds. While one worker runs a long advance,
//! listing, detail, `/metrics` and CSV export answer, and a cancel is
//! durable before its acknowledgement.

use autotune_core::SessionId;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::server::{
    AdvanceResponse, CreateResponse, Daemon, DaemonConfig, SessionDetail, SessionSummary,
};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::{
    encode_journal_entry, encode_record, Durability, SessionStatus, WalRecord, WalSink,
    JOURNAL_FILE, SNAPSHOT_FILE, WAL_FILE,
};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

const BUDGET: usize = 18;
/// Small enough that the cuts land on both sides of several snapshots.
const SNAPSHOT_EVERY: usize = 4;

fn fresh_repo(tag: &str) -> (PathBuf, SessionRepository) {
    let root = std::env::temp_dir().join(format!(
        "autotune-serve-session-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let repo = SessionRepository::open(&root).expect("open repository");
    (root, repo)
}

fn spec(system: &str, tuner: &str, seed: u64, budget: usize, drift: bool) -> SessionSpec {
    let mut spec = SessionSpec {
        system: system.into(),
        tuner: tuner.into(),
        seed,
        budget,
        noise: "none".into(),
        warm_start: false,
        constraints: false,
        adaptive: Default::default(),
        drift: Default::default(),
    };
    if drift {
        spec.drift.detector = "ph".into();
    }
    spec
}

fn meta(repo: &SessionRepository, spec: SessionSpec) -> SessionMeta {
    SessionMeta {
        id: repo.next_id().expect("next id"),
        spec,
        warm_source: None,
        created_unix_ms: 0,
    }
}

/// History, drift events and recommendation, serialized.
fn outcome(session: &LiveSession) -> (String, String, String) {
    (
        serde_json::to_string(session.history()).expect("history json"),
        serde_json::to_string(session.drift_events()).expect("events json"),
        serde_json::to_string(&session.recommendation()).expect("recommendation json"),
    )
}

#[test]
fn every_cut_of_a_drifting_session_recovers_byte_identical() {
    let drift_spec = || spec("dbms-flip@6", "random", 5, BUDGET, true);
    let (root_ref, repo_ref) = fresh_repo("ref");
    let mut reference = LiveSession::create(&repo_ref, meta(&repo_ref, drift_spec()), None, 64)
        .expect("create reference");
    assert_eq!(reference.advance(BUDGET).expect("advance"), BUDGET);
    assert_eq!(reference.status(), SessionStatus::Finished);
    let want = outcome(&reference);
    let drift_at = reference
        .drift_events()
        .first()
        .expect("premise: the flip is detected")
        .at_seq as usize;
    // Step k leaves k + 1 observations. The canary that raised the alarm
    // is observation drift_at - 1 (cut k = drift_at - 1, alarm pending);
    // the Drift record and its re-probe land in step drift_at.
    assert!(
        drift_at + 1 < BUDGET,
        "premise: steps follow the Drift record"
    );

    for cut in 0..=BUDGET {
        let (root, repo) = fresh_repo(&format!("cut{cut}"));
        let m = meta(&repo, drift_spec());
        let id = m.id;
        {
            let mut victim = LiveSession::create(&repo, m, None, SNAPSHOT_EVERY).expect("create");
            for _ in 0..cut {
                assert_eq!(victim.advance(1).expect("step"), 1, "cut {cut}");
            }
        }
        let mut back =
            LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), SNAPSHOT_EVERY)
                .expect("recover");
        assert_eq!(back.history().len(), cut + 1, "cut {cut}: history length");
        if cut + 1 == drift_at {
            // The alarm raised by the last canary survives recovery: the
            // very next step opens the new epoch at the recorded index.
            assert!(back.drift_events().is_empty(), "cut {cut}");
            back.advance(1).expect("re-probe step");
            assert_eq!(
                back.drift_events().first().map(|e| e.at_seq as usize),
                Some(drift_at),
                "cut {cut}: pending alarm lost in recovery"
            );
        }
        if cut >= drift_at {
            assert!(back.epoch() >= 1, "cut {cut}: drift event lost in recovery");
        }
        if back.status() == SessionStatus::Running {
            back.advance(BUDGET).expect("finish");
        }
        assert_eq!(back.status(), SessionStatus::Finished, "cut {cut}");
        assert_eq!(outcome(&back), want, "cut {cut}: recovered run diverged");
        let _ = fs::remove_dir_all(&root);
    }
    let _ = fs::remove_dir_all(&root_ref);
}

#[test]
fn every_cut_of_a_compacting_ituned_session_recovers_byte_identical() {
    /// dbms-oltp's design has 20 rows; past it the hyper-parameters are
    /// searched at 20 and 25 observations, so cuts fall both inside an
    /// epoch, with an extended candidate set, and after a re-search.
    const BUDGET: usize = 30;
    /// Every third observation appends a frame, so the cuts fall just
    /// before, on and just after each append.
    const EVERY: usize = 3;
    let ituned = || spec("dbms-oltp", "ituned", 8, BUDGET, false);
    let (root_ref, repo_ref) = fresh_repo("ituned-ref");
    let mut reference =
        LiveSession::create(&repo_ref, meta(&repo_ref, ituned()), None, 64).expect("create");
    reference.advance(BUDGET).expect("advance");
    assert!(
        reference.surrogate_stats().is_some_and(|st| st.fits >= 2),
        "premise: the session re-searches in its GP phase"
    );
    let want = outcome(&reference);

    // `torn`: the crash hit the frame append that the last step made:
    // the frame is half written and the WAL, truncated only after the
    // append, still holds every record since the previous frame.
    let torn_cut = 3 * EVERY - 1;
    let cuts = (0..=BUDGET).map(|cut| (cut, false));
    for (cut, torn) in cuts.chain([(torn_cut, true)]) {
        let (root, repo) = fresh_repo(&format!("ituned-cut{cut}-{torn}"));
        let m = meta(&repo, ituned());
        let id = m.id;
        let history = {
            let mut victim = LiveSession::create(&repo, m, None, EVERY).expect("create");
            for _ in 0..cut {
                assert_eq!(victim.advance(1).expect("step"), 1, "cut {cut}");
            }
            victim.history().all().to_vec()
        };
        if torn {
            let dir = repo.session_dir(id);
            let log = fs::read(dir.join(SNAPSHOT_FILE)).expect("log");
            let body = &log[..log.len() - 1];
            let last = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            fs::write(
                dir.join(SNAPSHOT_FILE),
                &log[..last + (log.len() - last) / 2],
            )
            .expect("tear the last frame");
            let mut wal = Vec::new();
            for (seq, obs) in history.iter().enumerate().skip(history.len() - EVERY) {
                let record = WalRecord::Obs {
                    seq: seq as u64,
                    obs: obs.clone(),
                };
                wal.extend(encode_record(&record).expect("frame"));
            }
            fs::write(dir.join(WAL_FILE), wal).expect("restore the WAL");
        }
        let mut back =
            LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), EVERY).expect("recover");
        assert_eq!(back.history().len(), cut + 1, "cut {cut}: history length");
        assert_eq!(back.recovery_corruption().is_some(), torn, "cut {cut}");
        // The torn frame is repaired at recovery, before any new record.
        let repaired = autotune_serve::wal::recover(&repo.session_dir(id)).expect("reread");
        assert!(
            repaired.corruption.is_none(),
            "cut {cut}: {:?}",
            repaired.corruption
        );
        assert_eq!(repaired.observations.len(), cut + 1, "cut {cut}");
        if back.status() == SessionStatus::Running {
            back.advance(BUDGET).expect("finish");
        }
        assert_eq!(outcome(&back), want, "cut {cut}: recovered run diverged");
        let end = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), EVERY)
            .expect("recover the finished session");
        assert!(
            end.recovery_corruption().is_none(),
            "cut {cut}: log left damaged"
        );
        assert_eq!(outcome(&end), want, "cut {cut}: log lost records");
        let _ = fs::remove_dir_all(&root);
    }
    let _ = fs::remove_dir_all(&root_ref);
}

#[test]
fn finished_session_recovers_without_replaying_its_tuner() {
    let (root, repo) = fresh_repo("finished");
    let m = meta(&repo, spec("dbms-oltp", "ituned", 3, 24, false));
    let id = m.id;
    let mut live = LiveSession::create(&repo, m, None, SNAPSHOT_EVERY).expect("create");
    live.advance(24).expect("advance");
    assert_eq!(live.status(), SessionStatus::Finished);
    assert!(
        live.surrogate_stats().is_some(),
        "premise: the live tuner fitted its surrogate"
    );

    let back = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), SNAPSHOT_EVERY)
        .expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(outcome(&back), outcome(&live));
    assert!(
        back.surrogate_stats().is_none(),
        "a finished session's tuner must not be replayed"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn constrained_session_recovers_without_an_artifact_file() {
    const BUDGET: usize = 20;
    const CUT: usize = 9;
    let constrained = || {
        let mut s = spec("dbms-oltp", "ituned", 11, BUDGET, false);
        s.constraints = true;
        s
    };
    let (root_ref, repo_ref) = fresh_repo("constrained-ref");
    let mut reference = LiveSession::create(&repo_ref, meta(&repo_ref, constrained()), None, 64)
        .expect("create reference");
    reference.advance(BUDGET).expect("advance");
    assert_eq!(reference.status(), SessionStatus::Finished);
    let unconstrained = {
        let (root, repo) = fresh_repo("unconstrained-ref");
        let m = meta(&repo, spec("dbms-oltp", "ituned", 11, BUDGET, false));
        let mut plain = LiveSession::create(&repo, m, None, 64).expect("create");
        plain.advance(BUDGET).expect("advance");
        let _ = fs::remove_dir_all(&root);
        outcome(&plain)
    };
    assert_ne!(
        outcome(&reference),
        unconstrained,
        "premise: the constraints steer the search"
    );

    let (root, repo) = fresh_repo("constrained-cut");
    let m = meta(&repo, constrained());
    let id = m.id;
    {
        let mut victim = LiveSession::create(&repo, m, None, SNAPSHOT_EVERY).expect("create");
        victim.advance(CUT).expect("advance to the cut");
    }
    // Sessions written before the field became a bool name an artifact
    // path; the file no longer exists anywhere, and recovery must not
    // look for it.
    let meta_path = repo.session_dir(id).join("meta.json");
    let text = fs::read_to_string(&meta_path).expect("meta.json");
    assert!(text.contains("\"constraints\": true"), "{text}");
    fs::write(
        &meta_path,
        text.replace(
            "\"constraints\": true",
            "\"constraints\": \"/nonexistent/bench_results/knob_constraints.json\"",
        ),
    )
    .expect("rewrite meta.json");
    let mut back = LiveSession::recover_with(
        &repo,
        repo.read_meta(id).expect("legacy meta decodes"),
        SNAPSHOT_EVERY,
        WalSink::Direct(Durability::Flush),
        Vec::new(),
    )
    .expect("recover without an artifact file");
    assert_eq!(back.history().len(), CUT + 1);
    back.advance(BUDGET).expect("finish");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(
        outcome(&back),
        outcome(&reference),
        "recovered run diverged"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_ref);
}

/// A session whose `meta.json` still names a sparse surrogate backend
/// (the `surrogate` key the GP tuners no longer read) recovers mid-session
/// and finishes exactly as the same spec without the key does.
#[test]
fn legacy_surrogate_meta_recovers_and_finishes_as_without_it() {
    const BUDGET: usize = 26;
    /// Past dbms-oltp's 20-row design, so recovery replays GP proposals.
    const CUT: usize = 22;
    let ituned = || spec("dbms-oltp", "ituned", 12, BUDGET, false);
    let (root_ref, repo_ref) = fresh_repo("legacy-surrogate-ref");
    let mut reference =
        LiveSession::create(&repo_ref, meta(&repo_ref, ituned()), None, 64).expect("create");
    reference.advance(BUDGET).expect("advance");
    assert_eq!(reference.status(), SessionStatus::Finished);

    let (root, repo) = fresh_repo("legacy-surrogate-cut");
    let m = meta(&repo, ituned());
    let id = m.id;
    {
        let mut victim = LiveSession::create(&repo, m, None, SNAPSHOT_EVERY).expect("create");
        victim.advance(CUT).expect("advance to the cut");
        assert!(
            victim.surrogate_stats().is_some(),
            "premise: the cut falls in the GP phase"
        );
    }
    let meta_path = repo.session_dir(id).join("meta.json");
    let text = fs::read_to_string(&meta_path).expect("meta.json");
    assert!(!text.contains("surrogate"), "{text}");
    assert!(text.contains("\"constraints\": false"), "{text}");
    fs::write(
        &meta_path,
        text.replace(
            "\"constraints\": false",
            "\"surrogate\": \"nystrom\",\n    \"constraints\": false",
        ),
    )
    .expect("rewrite meta.json");
    let legacy = repo.read_meta(id).expect("legacy meta decodes");
    assert_eq!(legacy.spec, ituned());
    let mut back = LiveSession::recover(&repo, legacy, SNAPSHOT_EVERY).expect("recover");
    assert_eq!(back.history().len(), CUT + 1);
    back.advance(BUDGET).expect("finish");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(
        outcome(&back),
        outcome(&reference),
        "recovered run diverged"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_ref);
}

/// Minimal HTTP client: one request per connection, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status code");
    let payload = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, payload.to_string())
}

#[test]
fn daemon_start_recovers_concurrently_without_losing_a_record() {
    const SOURCE: u64 = 1;
    const WARM: u64 = 2;
    const SOURCE_BUDGET: usize = 12;
    const BUDGET: usize = 26;
    // The crash image, by id: a finished random-search source whose
    // records after the baseline probe (its `Finished` record included)
    // sit only in the group journal; an iTuned session warm-started from
    // it, cut after its first seeded step so the rest of its initial
    // design still comes from the source's best configurations; and four
    // cold iTuned sessions cut at different points, the last one past
    // its initial design (at most 20 points), so its recovery replays GP
    // proposals.
    let source_spec = spec("dbms-oltp", "random", 21, SOURCE_BUDGET, false);
    let mut warm_spec = spec("dbms-oltp", "ituned", 22, BUDGET, false);
    warm_spec.warm_start = true;
    let running: Vec<(u64, SessionSpec, usize)> = vec![
        (WARM, warm_spec, 1),
        (3, spec("dbms-oltp", "ituned", 23, BUDGET, false), 3),
        (4, spec("dbms-olap", "ituned", 24, BUDGET, false), 9),
        (5, spec("spark-agg", "ituned", 25, BUDGET, false), 17),
        (6, spec("hadoop-terasort", "ituned", 26, BUDGET, false), 23),
    ];
    let meta_for = |id: u64, spec: &SessionSpec| SessionMeta {
        id: SessionId::new(id),
        spec: spec.clone(),
        warm_source: spec.warm_start.then_some(SessionId::new(SOURCE)),
        created_unix_ms: 0,
    };

    // Uninterrupted runs.
    let (root_ref, repo_ref) = fresh_repo("daemon-ref");
    let mut source =
        LiveSession::create(&repo_ref, meta_for(SOURCE, &source_spec), None, 64).expect("source");
    source.advance(SOURCE_BUDGET).expect("finish source");
    assert_eq!(source.status(), SessionStatus::Finished);
    let source_obs = source.history().all().to_vec();
    let mut want = vec![(SOURCE, outcome(&source))];
    for (id, spec, _) in &running {
        let warm = spec.warm_start.then(|| source_obs.clone());
        let mut s = LiveSession::create(&repo_ref, meta_for(*id, spec), warm, 64).expect("create");
        s.advance(BUDGET).expect("finish");
        assert!(
            s.surrogate_stats().is_some_and(|st| st.fits >= 1),
            "premise: {id} reaches its GP phase"
        );
        want.push((*id, outcome(&s)));
    }

    // The crash image.
    let (root, repo) = fresh_repo("daemon-crash");
    LiveSession::create(&repo, meta_for(SOURCE, &source_spec), None, SNAPSHOT_EVERY)
        .expect("create source");
    let mut journal = Vec::new();
    for (seq, obs) in source_obs.iter().enumerate().skip(1) {
        let record = WalRecord::Obs {
            seq: seq as u64,
            obs: obs.clone(),
        };
        journal.extend(encode_journal_entry(SessionId::new(SOURCE), &record).expect("frame"));
    }
    let finished = WalRecord::Finished {
        recommendation: source.recommendation().expect("recommendation").clone(),
    };
    journal.extend(encode_journal_entry(SessionId::new(SOURCE), &finished).expect("frame"));
    fs::write(root.join(JOURNAL_FILE), journal).expect("write journal");
    for (id, spec, cut) in &running {
        let warm = spec.warm_start.then(|| source_obs.clone());
        let mut s =
            LiveSession::create(&repo, meta_for(*id, spec), warm, SNAPSHOT_EVERY).expect("create");
        assert_eq!(s.advance(*cut).expect("advance to the cut"), *cut);
    }
    assert!(
        repo.load_observations(SessionId::new(SOURCE))
            .expect("source on disk")
            .len()
            == 1,
        "premise: the source's own files hold only its probe"
    );

    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("restart");
    let addr = daemon.addr();
    let (status, body) = request(addr, "GET", "/sessions", "");
    assert_eq!(status, 200, "{body}");
    let listed: Vec<SessionSummary> = serde_json::from_str(&body).expect("session list");
    let mut expected = vec![(SessionId::new(SOURCE), SOURCE_BUDGET)];
    expected.extend(
        running
            .iter()
            .map(|(id, _, cut)| (SessionId::new(*id), *cut)),
    );
    let got: Vec<(SessionId, usize)> = listed.iter().map(|s| (s.id, s.evaluations)).collect();
    assert_eq!(got, expected, "every session recovers at its cut");
    for (id, _, _) in &running {
        let path = format!("/sessions/{}/advance", SessionId::new(*id));
        let (status, body) = request(addr, "POST", &path, &format!("{{\"steps\":{BUDGET}}}"));
        assert_eq!(status, 200, "{body}");
    }
    daemon.graceful_shutdown();

    for (id, want) in want {
        let id = SessionId::new(id);
        let back = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), SNAPSHOT_EVERY)
            .expect("recover");
        assert_eq!(back.status(), SessionStatus::Finished, "{id}");
        assert_eq!(outcome(&back), want, "{id}: restarted run diverged");
    }
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_ref);
}

/// A journal that fails on write: the group journal of a daemon points at
/// `/dev/full` (through a symlink in the test's own directory), so its
/// first batch — a new session's baseline probe — fails with ENOSPC. The
/// create answers 500 and leaves no session behind. The failure must be
/// sticky — later appends are refused and every durability wait errors —
/// no advance is acknowledged, and once a regular journal file is back, a
/// restarted daemon recovers exactly the acknowledged prefix and finishes
/// the session as an uninterrupted run does.
#[test]
fn a_full_journal_fails_sticky_and_recovery_keeps_the_acknowledged_prefix() {
    const ACKED: usize = 5;
    let session_spec = || spec("dbms-oltp", "random", 31, BUDGET, false);
    let (root_ref, repo_ref) = fresh_repo("full-ref");
    let mut reference = LiveSession::create(&repo_ref, meta(&repo_ref, session_spec()), None, 64)
        .expect("create reference");
    reference.advance(BUDGET).expect("finish reference");

    let (root, _repo) = fresh_repo("full");
    let mut config = DaemonConfig::new(&root);
    config.durability = Durability::Fsync;
    config.snapshot_every = SNAPSHOT_EVERY;
    let journal = root.join(JOURNAL_FILE);
    let body = serde_json::to_string(&session_spec()).expect("spec json");
    let advance = |addr: SocketAddr, id: SessionId, steps: usize| {
        let path = format!("/sessions/{id}/advance");
        request(addr, "POST", &path, &format!("{{\"steps\":{steps}}}"))
    };

    // The acknowledged prefix, on a regular journal.
    let daemon = Daemon::start("127.0.0.1:0", config.clone()).expect("start");
    let (status, created) = request(daemon.addr(), "POST", "/sessions", &body);
    assert_eq!(status, 201, "{created}");
    let id = serde_json::from_str::<CreateResponse>(&created)
        .expect("create response")
        .id;
    let (status, reply) = advance(daemon.addr(), id, ACKED);
    assert_eq!(status, 200, "{reply}");
    daemon.graceful_shutdown();

    // Restart, then point the journal at a full device. Startup has
    // already folded the journal (reads of /dev/full never end).
    let daemon = Daemon::start("127.0.0.1:0", config.clone()).expect("restart");
    let _ = fs::remove_file(&journal);
    std::os::unix::fs::symlink("/dev/full", &journal).expect("symlink the journal");
    let (status, reply) = request(daemon.addr(), "POST", "/sessions", &body);
    assert_eq!(status, 500, "the first batch fails: {reply}");
    assert!(reply.contains("os error 28"), "ENOSPC: {reply}");
    for steps in [1, 1, 3] {
        let (status, reply) = advance(daemon.addr(), id, steps);
        assert_eq!(status, 500, "the failure is sticky: {reply}");
        assert!(reply.contains("os error 28"), "{reply}");
    }
    daemon.graceful_shutdown();

    // A regular journal again: recovery yields the acknowledged prefix.
    fs::remove_file(&journal).expect("remove the symlink");
    fs::write(&journal, b"").expect("empty journal");
    let daemon = Daemon::start("127.0.0.1:0", config).expect("recover");
    let (status, listed) = request(daemon.addr(), "GET", "/sessions", "");
    assert_eq!(status, 200, "{listed}");
    let listed: Vec<SessionSummary> = serde_json::from_str(&listed).expect("session list");
    let evaluations: Vec<(SessionId, usize)> =
        listed.iter().map(|s| (s.id, s.evaluations)).collect();
    assert_eq!(
        evaluations,
        vec![(id, ACKED)],
        "recovers at the acknowledged prefix"
    );
    let (status, reply) = advance(daemon.addr(), id, BUDGET);
    assert_eq!(status, 200, "{reply}");
    daemon.graceful_shutdown();

    let repo = SessionRepository::open(&root).expect("reopen");
    let back = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), SNAPSHOT_EVERY)
        .expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(
        outcome(&back),
        outcome(&reference),
        "restarted run diverged"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_ref);
}

/// A snapshot log that fails on append: once a session of an fsync
/// daemon has landed a frame, its `snapshot.json` is set aside and the
/// name pointed at `/dev/full`, so every later compaction fails with
/// ENOSPC while the group journal keeps working. Each observation must
/// then be either acknowledged (a 200 that counts it), durable and
/// recovered, or answered with an error and never recovered; an advance
/// whose steps ran into a failed compaction says so, with a 500 or with
/// `error` set on its 200. A restart with the real log back in place
/// recovers exactly the acknowledged prefix, and the journal has kept
/// every record no landed frame covers.
#[test]
fn a_full_snapshot_log_recovers_exactly_the_acknowledged_prefix() {
    const ACKED: usize = 5;
    let session_spec = || spec("dbms-oltp", "random", 32, BUDGET, false);
    let (root_ref, repo_ref) = fresh_repo("full-snap-ref");
    let mut reference = LiveSession::create(&repo_ref, meta(&repo_ref, session_spec()), None, 64)
        .expect("create reference");
    reference.advance(BUDGET).expect("finish reference");

    let (root, repo) = fresh_repo("full-snap");
    let mut config = DaemonConfig::new(&root);
    config.durability = Durability::Fsync;
    config.snapshot_every = SNAPSHOT_EVERY;
    let body = serde_json::to_string(&session_spec()).expect("spec json");
    let advance = |addr: SocketAddr, id: SessionId, steps: usize| {
        let path = format!("/sessions/{id}/advance");
        request(addr, "POST", &path, &format!("{{\"steps\":{steps}}}"))
    };

    let daemon = Daemon::start("127.0.0.1:0", config.clone()).expect("start");
    let (status, created) = request(daemon.addr(), "POST", "/sessions", &body);
    assert_eq!(status, 201, "{created}");
    let id = serde_json::from_str::<CreateResponse>(&created)
        .expect("create response")
        .id;
    let (status, reply) = advance(daemon.addr(), id, ACKED);
    assert_eq!(status, 200, "{reply}");

    // A frame covers observations 0..4; the next compaction is due at 8.
    let log = repo.session_dir(id).join(SNAPSHOT_FILE);
    let aside = repo.session_dir(id).join("snapshot.json.aside");
    fs::rename(&log, &aside).expect("set the log aside");
    std::os::unix::fs::symlink("/dev/full", &log).expect("symlink the log");
    let mut acked = ACKED;
    let mut errors = 0;
    for steps in [1, 1, 2, 3, 1, 4] {
        let (status, reply) = advance(daemon.addr(), id, steps);
        match status {
            200 => {
                let reply: AdvanceResponse = serde_json::from_str(&reply).expect("advance");
                assert!(reply.evaluations >= acked, "{reply:?}");
                acked = reply.evaluations;
                // The history holds the probe plus every evaluation. The
                // step that makes it due for compaction, and every later
                // one (each retries the compaction), writes into the full
                // log: those answers must carry the failure.
                let failed_compaction = acked + 1 >= 2 * SNAPSHOT_EVERY;
                assert_eq!(reply.error.is_some(), failed_compaction, "{reply:?}");
                errors += usize::from(failed_compaction);
            }
            500 => errors += 1,
            _ => panic!("unexpected answer {status}: {reply}"),
        }
    }
    assert!(
        acked >= 2 * SNAPSHOT_EVERY,
        "premise: failed compactions fell among the steps ({acked} acknowledged, {errors} errors)"
    );
    daemon.graceful_shutdown();

    // The real log is back; no frame landed while it was away.
    fs::remove_file(&log).expect("remove the symlink");
    fs::rename(&aside, &log).expect("restore the log");
    let frames = autotune_serve::wal::recover(&repo.session_dir(id)).expect("read the log");
    assert!(
        frames.observations.len() <= SNAPSHOT_EVERY,
        "a frame landed"
    );
    let daemon = Daemon::start("127.0.0.1:0", config).expect("recover");
    let (status, listed) = request(daemon.addr(), "GET", "/sessions", "");
    assert_eq!(status, 200, "{listed}");
    let listed: Vec<SessionSummary> = serde_json::from_str(&listed).expect("session list");
    let evaluations: Vec<(SessionId, usize)> =
        listed.iter().map(|s| (s.id, s.evaluations)).collect();
    assert_eq!(
        evaluations,
        vec![(id, acked)],
        "recovers exactly the acknowledged prefix"
    );
    let (status, csv) = request(daemon.addr(), "GET", &format!("/sessions/{id}/csv"), "");
    assert_eq!(status, 200, "{csv}");
    let mut prefix = autotune_core::History::new();
    for obs in &reference.history().all()[..=acked] {
        prefix.push(obs.clone());
    }
    assert_eq!(
        csv,
        autotune_core::history_to_csv(&prefix, reference.space()),
        "the recovered history is the acknowledged prefix"
    );
    let (status, reply) = advance(daemon.addr(), id, BUDGET);
    assert_eq!(status, 200, "{reply}");
    daemon.graceful_shutdown();

    let back = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), SNAPSHOT_EVERY)
        .expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(
        outcome(&back),
        outcome(&reference),
        "restarted run diverged"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_ref);
}

/// One worker runs a 200-step iTuned advance. Once the session is past
/// its initial design (at most 20 points), so that every step fits a GP,
/// each read answers while the advance still runs, and a cancel sent mid
/// advance is acknowledged, durable before the acknowledgement, and ends
/// the advance with its partial progress.
#[test]
fn reads_and_cancel_are_served_while_an_advance_runs() {
    const STEPS: usize = 200;
    let (root, _repo) = fresh_repo("concurrent");
    let mut config = DaemonConfig::new(&root);
    config.workers = 1;
    config.durability = Durability::Fsync;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();
    let body = serde_json::to_string(&spec("dbms-oltp", "ituned", 41, STEPS, false)).expect("spec");
    let (status, created) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{created}");
    let id = serde_json::from_str::<CreateResponse>(&created)
        .expect("create response")
        .id;
    let advance = std::thread::spawn(move || {
        let path = format!("/sessions/{id}/advance");
        request(addr, "POST", &path, &format!("{{\"steps\":{STEPS}}}"))
    });

    let detail = format!("/sessions/{id}");
    loop {
        let (status, reply) = request(addr, "GET", &detail, "");
        assert_eq!(status, 200, "{reply}");
        let evaluations = serde_json::from_str::<SessionDetail>(&reply)
            .expect("detail")
            .evaluations;
        assert!(!advance.is_finished(), "the advance ended at {evaluations}");
        if evaluations > 20 {
            break;
        }
    }
    let csv = format!("/sessions/{id}/csv");
    for path in ["/sessions", detail.as_str(), "/metrics", csv.as_str()] {
        let (status, reply) = request(addr, "GET", path, "");
        assert_eq!(status, 200, "{path}: {reply}");
        assert!(
            !advance.is_finished(),
            "GET {path} waited for the whole advance"
        );
    }

    let (status, reply) = request(addr, "POST", &format!("/sessions/{id}/cancel"), "");
    assert_eq!(status, 200, "{reply}");
    let cancelled: SessionSummary = serde_json::from_str(&reply).expect("cancel summary");
    assert_eq!(cancelled.status, "cancelled");
    // Durable now: no shutdown, no flush, just what the 200 promised.
    let on_disk = autotune_serve::wal::recover(&root.join(id.to_string()))
        .expect("cancelled log durable before the 200");
    assert!(on_disk.corruption.is_none(), "{:?}", on_disk.corruption);
    assert_eq!(on_disk.status, SessionStatus::Cancelled);
    assert_eq!(on_disk.observations.len(), cancelled.evaluations + 1);

    let (status, reply) = advance.join().expect("advance thread");
    assert_eq!(status, 200, "{reply}");
    let advanced: AdvanceResponse = serde_json::from_str(&reply).expect("advance response");
    assert_eq!(advanced.status, "cancelled", "{reply}");
    assert!(advanced.ran > 20 && advanced.ran < STEPS, "{reply}");
    assert_eq!(advanced.evaluations, cancelled.evaluations, "{reply}");
    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}
