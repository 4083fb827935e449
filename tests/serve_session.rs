//! The serve session step machine under crashes: a session dropped after
//! any number of steps and recovered from its log must finish exactly as
//! the uninterrupted run does, a finished session recovers without
//! replaying its tuner, a constrained session recovers without any
//! constraint file on disk, and a daemon restarting on a crash image
//! recovers all of its sessions — concurrently where that is safe — so
//! that each one finishes as the uninterrupted run does.

use autotune_core::SessionId;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::server::{Daemon, DaemonConfig, SessionSummary};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::{
    encode_journal_entry, Durability, SessionStatus, WalRecord, WalSink, JOURNAL_FILE,
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
        surrogate: "auto".into(),
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
