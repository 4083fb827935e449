//! Warm-start transfer through the session repository: a new GP session
//! on a familiar workload reaches the past session's best runtime in
//! measurably fewer evaluations than a cold session with the same seed.

use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::SessionStatus;
use std::fs;
use std::path::PathBuf;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("autotune-warm-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn spec(seed: u64, budget: usize, warm: bool) -> SessionSpec {
    SessionSpec {
        system: "dbms-oltp".into(),
        tuner: "ituned".into(),
        seed,
        budget,
        noise: "none".into(),
        warm_start: warm,
        constraints: false,
        adaptive: Default::default(),
        drift: Default::default(),
    }
}

/// Evaluations until the best-so-far curve reaches `target` (1-indexed,
/// probe excluded), or `None` if it never does.
fn evals_to_target(session: &LiveSession, target: f64) -> Option<usize> {
    session
        .history()
        .best_so_far()
        .iter()
        .skip(1) // the probe is not a tuner evaluation
        .position(|&r| r <= target)
        .map(|i| i + 1)
}

#[test]
fn warm_started_session_converges_in_fewer_evaluations() {
    let root = fresh_root("transfer");
    let repo = SessionRepository::open(&root).expect("open");

    // Seed session: a generous cold GP run that finds a good config.
    let seed_meta = SessionMeta {
        id: repo.next_id().expect("id"),
        spec: spec(11, 25, false),
        warm_source: None,
        created_unix_ms: 0,
    };
    let seed_id = seed_meta.id;
    let mut seed_session = LiveSession::create(&repo, seed_meta, None, 16).expect("create");
    seed_session.advance(25).expect("advance");
    assert_eq!(seed_session.status(), SessionStatus::Finished);
    let seed_best = seed_session
        .best_runtime()
        .expect("seed session found a best");
    let target = seed_best * 1.05;

    // Cold control: fresh GP session, new seed, no transfer.
    let cold_meta = SessionMeta {
        id: repo.next_id().expect("id"),
        spec: spec(12, 12, false),
        warm_source: None,
        created_unix_ms: 0,
    };
    let mut cold = LiveSession::create(&repo, cold_meta, None, 16).expect("create");
    cold.advance(12).expect("advance");
    let cold_evals = evals_to_target(&cold, target);

    // Warm session: same seed as the cold control, but seeded from the
    // repository's nearest finished session (found via its own probe
    // signature, exactly as the daemon does it).
    let warm_spec = spec(12, 12, true);
    let probe_metrics = {
        use autotune_serve::session::eval_seed;
        use autotune_serve::spec::build_objective;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut objective = build_objective(&warm_spec).expect("objective");
        let default = objective.space().default_config();
        let mut rng = StdRng::seed_from_u64(eval_seed(warm_spec.seed, 0));
        objective.evaluate(&default, &mut rng).metrics
    };
    let warm_source = repo
        .nearest_finished(warm_spec.platform(), &probe_metrics, None)
        .expect("lookup")
        .expect("a finished session on the platform exists");
    assert_eq!(
        warm_source, seed_id,
        "workload mapping finds the seed session"
    );

    let warm_obs = repo.load_observations(warm_source).expect("load");
    let warm_meta = SessionMeta {
        id: repo.next_id().expect("id"),
        spec: warm_spec,
        warm_source: Some(warm_source),
        created_unix_ms: 0,
    };
    let warm_id = warm_meta.id;
    let mut warm = LiveSession::create(&repo, warm_meta, Some(warm_obs), 16).expect("create");
    warm.advance(12).expect("advance");
    let warm_evals = evals_to_target(&warm, target);

    // The transferred configs are re-measured within the first few
    // evaluations, so the warm session reaches the target almost
    // immediately — and strictly earlier than the cold control.
    let warm_evals = warm_evals.expect("warm session reaches the seed best");
    assert!(
        warm_evals <= 3,
        "warm start should hit the transferred best early, took {warm_evals}"
    );
    // When cold never reached the target within budget, warm wins outright.
    if let Some(c) = cold_evals {
        assert!(
            warm_evals < c,
            "warm ({warm_evals}) must beat cold ({c}) to the seed best"
        );
    }

    // Crash-recovering the warm session rebuilds the very same tuner:
    // its history replays byte-identically from meta.warm_source.
    drop(warm);
    let recovered =
        LiveSession::recover(&repo, repo.read_meta(warm_id).expect("meta"), 16).expect("recover");
    assert_eq!(
        serde_json::to_string(recovered.history()).expect("json"),
        {
            // Rebuild the reference run in a second repository.
            let root2 = fresh_root("transfer-ref");
            let repo2 = SessionRepository::open(&root2).expect("open");
            // Replant the seed session so observations transfer equally.
            let seed2 = SessionMeta {
                id: repo2.next_id().expect("id"),
                spec: spec(11, 25, false),
                warm_source: None,
                created_unix_ms: 0,
            };
            let mut s2 = LiveSession::create(&repo2, seed2, None, 16).expect("create");
            s2.advance(25).expect("advance");
            let obs2 = repo2.load_observations(s2.meta.id).expect("load");
            let warm2 = SessionMeta {
                id: repo2.next_id().expect("id"),
                spec: spec(12, 12, true),
                warm_source: Some(s2.meta.id),
                created_unix_ms: 0,
            };
            let mut w2 = LiveSession::create(&repo2, warm2, Some(obs2), 16).expect("create");
            w2.advance(12).expect("advance");
            let json = serde_json::to_string(w2.history()).expect("json");
            let _ = fs::remove_dir_all(&root2);
            json
        },
        "recovered warm session replays identically to a fresh warm run"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_lookup_ignores_other_platforms_and_unfinished_sessions() {
    let root = fresh_root("eligibility");
    let repo = SessionRepository::open(&root).expect("open");

    // A running (unfinished) dbms session: not eligible.
    let running = SessionMeta {
        id: repo.next_id().expect("id"),
        spec: spec(1, 10, false),
        warm_source: None,
        created_unix_ms: 0,
    };
    let mut r = LiveSession::create(&repo, running, None, 16).expect("create");
    r.advance(2).expect("advance");

    // A finished spark session: wrong platform.
    let spark = SessionMeta {
        id: repo.next_id().expect("id"),
        spec: SessionSpec {
            system: "spark-agg".into(),
            tuner: "random".into(),
            seed: 2,
            budget: 3,
            noise: "none".into(),
            warm_start: false,
            constraints: false,
            adaptive: Default::default(),
            drift: Default::default(),
        },
        warm_source: None,
        created_unix_ms: 0,
    };
    let mut sp = LiveSession::create(&repo, spark, None, 16).expect("create");
    sp.advance(3).expect("advance");
    assert_eq!(sp.status(), SessionStatus::Finished);

    let probe = r.history().all()[0].metrics.clone();
    assert_eq!(
        repo.nearest_finished("dbms", &probe, None).expect("lookup"),
        None,
        "no finished dbms session ⇒ no warm source"
    );
    assert!(
        repo.nearest_finished("spark", &sp.history().all()[0].metrics.clone(), None)
            .expect("lookup")
            .is_some(),
        "the finished spark session maps on its own platform"
    );
    let _ = fs::remove_dir_all(&root);
}
