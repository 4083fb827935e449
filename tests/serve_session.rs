//! The serve session step machine under crashes: a session dropped after
//! any number of steps and recovered from its log must finish exactly as
//! the uninterrupted run does, a finished session recovers without
//! replaying its tuner, and a constrained session recovers without any
//! constraint file on disk.

use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::{Durability, SessionStatus, WalSink};
use std::fs;
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
