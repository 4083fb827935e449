//! Repository GC and retention: terminal sessions drop their WAL once
//! the final snapshot is durable, `retain_finished` evicts oldest-first,
//! warm-start sources survive eviction, snapshot-only directories
//! recover fully, and eviction invalidates the cached workload-mapping
//! index so evicted sessions stop being warm-start candidates.

use autotune_core::SessionId;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::SessionStatus;
use std::fs;
use std::path::PathBuf;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("autotune-retain-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn spec(seed: u64, budget: usize, warm: bool) -> SessionSpec {
    SessionSpec {
        system: "dbms-oltp".into(),
        tuner: "random".into(),
        seed,
        budget,
        noise: "none".into(),
        warm_start: warm,
        constraints: false,
        adaptive: Default::default(),
        drift: Default::default(),
    }
}

fn finish_session(
    repo: &SessionRepository,
    seed: u64,
    warm_source: Option<SessionId>,
) -> SessionId {
    let meta = SessionMeta {
        id: repo.next_id().expect("next id"),
        spec: spec(seed, 2, warm_source.is_some()),
        warm_source,
        created_unix_ms: 0,
    };
    let id = meta.id;
    let warm = warm_source.map(|src| repo.load_observations(src).expect("warm obs"));
    let mut s = LiveSession::create(repo, meta, warm, 16).expect("create");
    s.advance(2).expect("advance");
    assert_eq!(s.status(), SessionStatus::Finished);
    id
}

#[test]
fn finished_session_deletes_wal_and_recovers_from_snapshot_only() {
    let root = fresh_root("snapshot-only");
    let repo = SessionRepository::open(&root).expect("open");
    let id = finish_session(&repo, 1, None);

    let dir = repo.session_dir(id);
    assert!(
        !dir.join("wal.jsonl").exists(),
        "terminal snapshot must delete the WAL"
    );
    assert!(dir.join("snapshot.json").exists());

    // Snapshot-only recovery restores the full session.
    let back = LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), 16).expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(back.history().len(), 3, "probe + 2 evaluations");
    assert!(back.recommendation().is_some());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn retention_evicts_oldest_terminal_sessions_first() {
    let root = fresh_root("oldest-first");
    let repo = SessionRepository::open(&root).expect("open");
    let ids: Vec<SessionId> = (0..5).map(|i| finish_session(&repo, i, None)).collect();

    let evicted = repo.enforce_retention(2).expect("retention");
    assert_eq!(evicted, ids[..3].to_vec(), "oldest three evicted");
    for id in &ids[..3] {
        assert!(!repo.session_dir(*id).exists(), "{id} evicted");
    }
    for id in &ids[3..] {
        assert!(repo.session_dir(*id).exists(), "{id} retained");
    }

    // Idempotent: already under the cap.
    assert!(repo.enforce_retention(2).expect("retention").is_empty());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn retention_spares_running_sessions_and_warm_sources() {
    let root = fresh_root("protected");
    let repo = SessionRepository::open(&root).expect("open");

    // Oldest: a finished session that seeds a later warm-started one.
    let source = finish_session(&repo, 1, None);
    let other = finish_session(&repo, 2, None);
    let warm_child = finish_session(&repo, 3, Some(source));

    // A running session is never a retention subject.
    let running_meta = SessionMeta {
        id: repo.next_id().expect("next id"),
        spec: spec(9, 50, false),
        warm_source: None,
        created_unix_ms: 0,
    };
    let running_id = running_meta.id;
    let mut running = LiveSession::create(&repo, running_meta, None, 16).expect("create");
    running.advance(1).expect("advance");
    assert_eq!(running.status(), SessionStatus::Running);

    // Cap at 1 terminal dir: `source` (oldest) would go first, but it is
    // referenced as a warm source, so `other` and then `warm_child` go.
    let evicted = repo.enforce_retention(1).expect("retention");
    assert_eq!(evicted, vec![other, warm_child]);
    assert!(repo.session_dir(source).exists(), "warm source protected");
    assert!(repo.session_dir(running_id).exists(), "running spared");

    // A new warm child: recovery reloads the source's observations from
    // the repository — exactly why eviction must spare the source.
    let child2 = finish_session(&repo, 4, Some(source));
    let back =
        LiveSession::recover(&repo, repo.read_meta(child2).expect("meta"), 16).expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);

    // With a plain finished session added, cap 2 evicts the oldest
    // unprotected terminal dir (child2) and keeps the protected source,
    // even though the source is older.
    let plain = finish_session(&repo, 5, None);
    let evicted = repo.enforce_retention(2).expect("retention");
    assert_eq!(evicted, vec![child2], "oldest unprotected terminal goes");
    assert!(
        repo.session_dir(source).exists(),
        "warm source still protected"
    );
    assert!(repo.session_dir(plain).exists());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_invalidates_signature_cache() {
    let root = fresh_root("sig-cache");
    let repo = SessionRepository::open(&root).expect("open");
    let ids: Vec<SessionId> = (0..4).map(|i| finish_session(&repo, i, None)).collect();

    // Warm up the cache: every finished session is a mapping candidate and
    // the nearest lookup resolves through the cached index.
    let sigs = repo.finished_signatures("dbms", None).expect("signatures");
    assert_eq!(sigs.len(), 4);
    let probe = sigs[0].metrics.clone();
    assert_eq!(
        repo.nearest_finished("dbms", &probe, Some(ids[0]))
            .expect("nearest"),
        Some(ids[1]),
        "same spec+noise=none probes are identical; lowest id wins"
    );

    // GC down to 2 terminal sessions (`--retain 2`): the two oldest go.
    let evicted = repo.enforce_retention(2).expect("retention");
    assert_eq!(evicted, ids[..2].to_vec());

    // The cache must have dropped the evicted sessions: they are neither
    // listed as candidates nor returned by the nearest lookup.
    let sigs = repo.finished_signatures("dbms", None).expect("signatures");
    assert_eq!(
        sigs.iter().map(|s| s.id).collect::<Vec<_>>(),
        ids[2..].to_vec(),
        "evicted sessions must leave the candidate list"
    );
    assert_eq!(
        repo.nearest_finished("dbms", &probe, None)
            .expect("nearest"),
        Some(ids[2]),
        "nearest must re-resolve among survivors only"
    );

    // A directory deleted behind the repository's back (a second daemon's
    // GC) is swept on the next query too.
    fs::remove_dir_all(repo.session_dir(ids[2])).expect("external delete");
    assert_eq!(
        repo.nearest_finished("dbms", &probe, None)
            .expect("nearest"),
        Some(ids[3]),
        "externally deleted session must be swept from the cache"
    );
    let _ = fs::remove_dir_all(&root);
}
