//! Drift-aware adaptive sessions: the online tuner family over the serve
//! layer, workload-flip detection, WAL drift-event recovery, and the
//! legacy-spec regression guarantees (ISSUE 10).
//!
//! The determinism bar is the same as `wal_recovery.rs`: a session that
//! detects a drift, re-probes, re-matches a warm source, and restarts its
//! search must recover byte-identically from a crash at any point —
//! including a crash *between* the drift record and its re-probe
//! observation.

use autotune_core::SessionId;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::SessionStatus;
use std::fs;
use std::path::PathBuf;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("autotune-drift-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn spec(system: &str, tuner: &str, seed: u64, budget: usize) -> SessionSpec {
    SessionSpec {
        system: system.into(),
        tuner: tuner.into(),
        seed,
        budget,
        noise: "none".into(),
        warm_start: false,
        constraints: false,
        adaptive: Default::default(),
        drift: Default::default(),
    }
}

fn drift_spec(system: &str, tuner: &str, seed: u64, budget: usize) -> SessionSpec {
    let mut s = spec(system, tuner, seed, budget);
    s.drift.detector = "ph".into();
    s
}

fn meta(repo: &SessionRepository, spec: SessionSpec) -> SessionMeta {
    SessionMeta {
        id: repo.next_id().expect("next id"),
        spec,
        warm_source: None,
        created_unix_ms: 0,
    }
}

fn history_json(session: &LiveSession) -> String {
    serde_json::to_string(session.history()).expect("serialize history")
}

#[test]
fn adaptive_tuners_finish_sessions_and_recover_identically() {
    for (system, tuner) in [("dbms-oltp", "colt"), ("mtdbms-three", "tempo")] {
        // Reference: uninterrupted run.
        let root_a = fresh_root(&format!("adaptive-ref-{tuner}"));
        let repo_a = SessionRepository::open(&root_a).expect("open");
        let mut reference = LiveSession::create(
            &repo_a,
            meta(&repo_a, spec(system, tuner, 11, 10)),
            None,
            100,
        )
        .expect("create");
        reference.advance(10).expect("advance");
        assert_eq!(reference.status(), SessionStatus::Finished);
        assert!(reference.recommendation().is_some());

        // Crashed mid-run, recovered, finished: byte-identical history.
        let root_b = fresh_root(&format!("adaptive-crash-{tuner}"));
        let repo_b = SessionRepository::open(&root_b).expect("open");
        let m = meta(&repo_b, spec(system, tuner, 11, 10));
        let id = m.id;
        {
            let mut victim = LiveSession::create(&repo_b, m, None, 4).expect("create");
            victim.advance(6).expect("advance");
        }
        let mut back =
            LiveSession::recover(&repo_b, repo_b.read_meta(id).expect("meta"), 4).expect("recover");
        back.advance(10).expect("finish");
        assert_eq!(history_json(&reference), history_json(&back), "{tuner}");
        assert_eq!(
            serde_json::to_string(&reference.recommendation().expect("rec").config).unwrap(),
            serde_json::to_string(&back.recommendation().expect("rec").config).unwrap(),
            "{tuner}"
        );
        let _ = fs::remove_dir_all(&root_a);
        let _ = fs::remove_dir_all(&root_b);
    }
}

#[test]
fn flip_session_detects_drift_and_is_deterministic() {
    let run = |tag: &str| {
        let root = fresh_root(tag);
        let repo = SessionRepository::open(&root).expect("open");
        let mut s = LiveSession::create(
            &repo,
            meta(&repo, drift_spec("dbms-flip@6", "random", 3, 20)),
            None,
            100,
        )
        .expect("create");
        s.advance(20).expect("advance");
        let out = (
            history_json(&s),
            s.epoch(),
            serde_json::to_string(s.drift_events()).expect("events"),
        );
        let _ = fs::remove_dir_all(&root);
        out
    };
    let (history, epoch, events) = run("flip-a");
    assert!(epoch >= 1, "workload flip never detected");
    assert_ne!(events, "[]");
    let again = run("flip-b");
    assert_eq!(
        (history, epoch, events),
        again,
        "detection not deterministic"
    );
}

#[test]
fn detection_off_flip_session_never_drifts() {
    let root = fresh_root("flip-off");
    let repo = SessionRepository::open(&root).expect("open");
    let mut s = LiveSession::create(
        &repo,
        meta(&repo, spec("dbms-flip@6", "random", 3, 20)),
        None,
        100,
    )
    .expect("create");
    s.advance(20).expect("advance");
    assert_eq!(s.epoch(), 0);
    assert!(s.drift_events().is_empty());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn drifted_session_crash_recovers_byte_identical() {
    // Reference: uninterrupted drift-on run over the flip.
    let root_a = fresh_root("drift-ref");
    let repo_a = SessionRepository::open(&root_a).expect("open");
    let mut reference = LiveSession::create(
        &repo_a,
        meta(&repo_a, drift_spec("dbms-flip@6", "random", 5, 18)),
        None,
        100,
    )
    .expect("create");
    reference.advance(18).expect("advance");
    assert!(reference.epoch() >= 1, "premise: the flip is detected");

    // Crash *after* the drift, recover, finish.
    let root_b = fresh_root("drift-crash");
    let repo_b = SessionRepository::open(&root_b).expect("open");
    let m = meta(&repo_b, drift_spec("dbms-flip@6", "random", 5, 18));
    let id = m.id;
    {
        let mut victim = LiveSession::create(&repo_b, m, None, 100).expect("create");
        victim.advance(14).expect("advance");
        assert!(victim.epoch() >= 1, "crash point is past the drift");
    }
    let mut back =
        LiveSession::recover(&repo_b, repo_b.read_meta(id).expect("meta"), 100).expect("recover");
    assert!(back.epoch() >= 1, "drift event lost in recovery");
    back.advance(18).expect("finish");
    assert_eq!(history_json(&reference), history_json(&back));
    assert_eq!(
        serde_json::to_string(reference.drift_events()).unwrap(),
        serde_json::to_string(back.drift_events()).unwrap()
    );
    let _ = fs::remove_dir_all(&root_a);
    let _ = fs::remove_dir_all(&root_b);
}

#[test]
fn dangling_drift_record_replays_the_reprobe() {
    // Reference run for comparison.
    let root_a = fresh_root("dangle-ref");
    let repo_a = SessionRepository::open(&root_a).expect("open");
    let mut reference = LiveSession::create(
        &repo_a,
        meta(&repo_a, drift_spec("dbms-flip@6", "random", 5, 18)),
        None,
        100,
    )
    .expect("create");
    reference.advance(18).expect("advance");
    let ev = reference.drift_events().first().expect("drift").clone();

    // Crash simulation: truncate the victim's WAL right after the Drift
    // record, so the epoch's re-probe observation is lost.
    let root_b = fresh_root("dangle-crash");
    let repo_b = SessionRepository::open(&root_b).expect("open");
    let m = meta(&repo_b, drift_spec("dbms-flip@6", "random", 5, 18));
    let id = m.id;
    {
        let mut victim = LiveSession::create(&repo_b, m, None, 100).expect("create");
        victim.advance(14).expect("advance");
        assert!(victim.epoch() >= 1, "crash point is past the drift");
    }
    let wal_path = repo_b.session_dir(id).join("wal.jsonl");
    let wal = fs::read_to_string(&wal_path).expect("read wal");
    let mut kept = String::new();
    for line in wal.lines() {
        kept.push_str(line);
        kept.push('\n');
        if line.contains("\"Drift\"") {
            break; // drop everything after the drift record
        }
    }
    assert_ne!(kept.len(), wal.len(), "premise: records follow the drift");
    fs::write(&wal_path, kept).expect("truncate");

    let mut back =
        LiveSession::recover(&repo_b, repo_b.read_meta(id).expect("meta"), 100).expect("recover");
    // Recovery redid the re-probe: the history extends exactly one past
    // the drift index, byte-identical to the reference prefix.
    assert_eq!(back.history().len() as u64, ev.at_seq + 1);
    let ref_prefix: Vec<_> = reference.history().all()[..back.history().len()].to_vec();
    assert_eq!(
        serde_json::to_string(&ref_prefix).unwrap(),
        serde_json::to_string(&back.history().all().to_vec()).unwrap(),
        "redone re-probe diverged"
    );
    // And the recovered session finishes exactly like the reference.
    back.advance(18).expect("finish");
    assert_eq!(history_json(&reference), history_json(&back));
    let _ = fs::remove_dir_all(&root_a);
    let _ = fs::remove_dir_all(&root_b);
}

#[test]
fn legacy_meta_json_parses_and_behaves_identically() {
    // A pre-drift on-disk meta.json (no adaptive/drift keys) must parse
    // with detection off and default adaptive knobs...
    let legacy = r#"{
        "id": 1,
        "spec": {"system":"dbms-oltp","tuner":"random","seed":9,
                 "budget":6,"noise":"none","warm_start":false},
        "warm_source": null,
        "created_unix_ms": 0
    }"#;
    let m: SessionMeta = serde_json::from_str(legacy).expect("legacy meta");
    assert!(!m.spec.drift.is_enabled());
    assert_eq!(m.spec.adaptive, Default::default());

    // ...and recover/advance exactly like a session created today with
    // the same (defaulted) spec: write the legacy meta verbatim, run the
    // session on top of it, and compare to a fresh-spec run.
    let root = fresh_root("legacy");
    let repo = SessionRepository::open(&root).expect("open");
    let modern = meta(&repo, spec("dbms-oltp", "random", 9, 6));
    let id = modern.id;
    fs::create_dir_all(repo.session_dir(id)).expect("dir");
    fs::write(
        repo.session_dir(id).join("meta.json"),
        legacy.replace("\"id\": 1", &format!("\"id\": {}", id.value())),
    )
    .expect("write legacy meta");
    // Seed the log the way a legacy daemon would have: recover the empty
    // session is not valid (no probe), so drive a modern twin instead and
    // compare its bytes against a recovery through the legacy meta.
    let root_b = fresh_root("legacy-twin");
    let repo_b = SessionRepository::open(&root_b).expect("open");
    let mut twin = LiveSession::create(
        &repo_b,
        meta(&repo_b, spec("dbms-oltp", "random", 9, 6)),
        None,
        100,
    )
    .expect("create");
    twin.advance(6).expect("advance");

    // Copy the twin's log under the legacy meta and recover through it.
    for f in ["wal.jsonl", "snapshot.json"] {
        let src = repo_b.session_dir(twin.meta.id).join(f);
        if src.exists() {
            fs::copy(&src, repo.session_dir(id).join(f)).expect("copy log");
        }
    }
    let back =
        LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), 100).expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(history_json(&twin), history_json(&back));
    assert_eq!(back.epoch(), 0);
    assert!(back.drift_events().is_empty());
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&root_b);
}

#[test]
fn drift_off_spec_matches_legacy_trajectory_bytes() {
    // The acceptance bar: adding the drift machinery must not perturb
    // detection-off sessions. A drift-off session and one created from a
    // parsed legacy spec (no drift key at all) produce identical bytes.
    let legacy_spec: SessionSpec = serde_json::from_str(
        r#"{"system":"dbms-oltp","tuner":"ituned","seed":4,
            "budget":8,"noise":"realistic","warm_start":false}"#,
    )
    .expect("legacy spec");
    let root_a = fresh_root("off-legacy");
    let repo_a = SessionRepository::open(&root_a).expect("open");
    let mut a = LiveSession::create(
        &repo_a,
        SessionMeta {
            id: repo_a.next_id().expect("id"),
            spec: legacy_spec,
            warm_source: None,
            created_unix_ms: 0,
        },
        None,
        100,
    )
    .expect("create");
    a.advance(8).expect("advance");

    let root_b = fresh_root("off-explicit");
    let repo_b = SessionRepository::open(&root_b).expect("open");
    let mut explicit = spec("dbms-oltp", "ituned", 4, 8);
    explicit.noise = "realistic".into();
    let mut b = LiveSession::create(&repo_b, meta(&repo_b, explicit), None, 100).expect("create");
    b.advance(8).expect("advance");

    assert_eq!(history_json(&a), history_json(&b));
    let _ = fs::remove_dir_all(&root_a);
    let _ = fs::remove_dir_all(&root_b);
}

#[test]
fn retention_protects_drift_rematched_warm_sources() {
    let root = fresh_root("retention");
    let repo = SessionRepository::open(&root).expect("open");

    // Finish a few dbms sessions: warm-start candidates.
    let mut finished = Vec::new();
    for seed in 1..=3u64 {
        let m = meta(&repo, spec("dbms-oltp", "random", seed, 2));
        let id = m.id;
        let mut s = LiveSession::create(&repo, m, None, 100).expect("create");
        s.advance(2).expect("advance");
        finished.push(id);
    }

    // A drifted warm-started session re-matches one of them mid-run.
    let mut dspec = drift_spec("dbms-flip@6", "random", 5, 18);
    dspec.warm_start = true;
    let m = meta(&repo, dspec);
    let drifted_id = m.id;
    let probe_metrics = {
        let mut s = LiveSession::create(&repo, m, None, 100).expect("create");
        s.advance(18).expect("advance");
        assert!(s.epoch() >= 1, "premise: drift detected");
        s.history().all()[0].metrics.clone()
    };
    let rematched = {
        let back = LiveSession::recover(&repo, repo.read_meta(drifted_id).expect("meta"), 100)
            .expect("recover");
        back.drift_events()
            .iter()
            .find_map(|e| e.warm_source)
            .expect("drift re-matched a warm source")
    };
    assert!(finished.contains(&rematched));

    // Retention down to 1 terminal session must keep the re-matched
    // source alive — a recovery of the drifted session needs its log.
    let evicted = repo.enforce_retention(1).expect("retention");
    assert!(!evicted.contains(&rematched), "evicted a drift warm source");
    assert!(repo.load_observations(rematched).is_ok());

    // Ball-tree invalidation: an evicted session must never be returned
    // by a later re-match against the same platform.
    for id in &evicted {
        let hit = repo
            .nearest_finished("dbms", &probe_metrics, Some(drifted_id))
            .expect("query");
        assert_ne!(hit, Some(*id), "evicted session served from the index");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn flip_and_mtdbms_specs_validate() {
    for sys in [
        "dbms-flip@6",
        "hadoop-flip@8",
        "spark-flip@8",
        "mtdbms-three",
    ] {
        spec(sys, "random", 1, 5).validate().expect("valid system");
    }
    for tun in ["colt", "tempo"] {
        spec("dbms-oltp", tun, 1, 5)
            .validate()
            .expect("valid tuner");
    }
    assert!(spec("dbms-flip@x", "random", 1, 5).validate().is_err());
    assert!(spec("mtdbms-flip@4", "random", 1, 5).validate().is_err());
    let mut bad = drift_spec("dbms-oltp", "random", 1, 5);
    bad.drift.detector = "mystery".into();
    assert!(bad.validate().is_err());

    // cusum is a valid detector too.
    let mut c = drift_spec("dbms-oltp", "random", 1, 5);
    c.drift.detector = "cusum".into();
    c.validate().expect("cusum validates");
}

#[test]
fn session_ids_are_stable_across_advances() {
    // Guard against accidental SessionId reuse in the drift tests above.
    let root = fresh_root("ids");
    let repo = SessionRepository::open(&root).expect("open");
    let a = meta(&repo, spec("dbms-oltp", "random", 1, 2));
    let first = a.id;
    let mut s = LiveSession::create(&repo, a, None, 100).expect("create");
    s.advance(2).expect("advance");
    let b = meta(&repo, spec("dbms-oltp", "random", 2, 2));
    assert_eq!(b.id, SessionId::new(first.value() + 1));
    let _ = fs::remove_dir_all(&root);
}
