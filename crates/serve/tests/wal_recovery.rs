//! Crash-recovery guarantees of the session repository: a session killed
//! at any point and recovered from disk continues exactly where the
//! uninterrupted run would have been, a WAL torn at any byte offset
//! recovers every complete record, a snapshot log torn or corrupted
//! anywhere recovers a valid prefix and the session still ends as the
//! uninterrupted run does, a legacy single-object snapshot still
//! recovers, and compaction writes grow linearly with session length.

use autotune_core::SessionId;
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::SessionSpec;
use autotune_serve::wal::{self, SessionStatus, Snapshot, WalRecord};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A new, empty directory path. The counter keeps two tests that run at
/// once with the same tag (two reference runs of one seed) out of each
/// other's files.
fn fresh_root(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!(
        "autotune-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    root
}

fn spec(tuner: &str, seed: u64, budget: usize) -> SessionSpec {
    SessionSpec {
        system: "dbms-oltp".into(),
        tuner: tuner.into(),
        seed,
        budget,
        noise: "realistic".into(),
        warm_start: false,
        surrogate: "auto".into(),
        constraints: false,
        adaptive: Default::default(),
        drift: Default::default(),
    }
}

fn meta(repo: &SessionRepository, spec: SessionSpec) -> SessionMeta {
    SessionMeta {
        id: repo.next_id().expect("next id"),
        spec,
        warm_source: None,
        created_unix_ms: 0,
    }
}

/// History serialized to its canonical JSON — byte comparison baseline.
fn history_json(session: &LiveSession) -> String {
    serde_json::to_string(session.history()).expect("serialize history")
}

#[test]
fn crashed_session_recovers_byte_identical_and_continues() {
    // Reference: one uninterrupted GP session.
    let root_a = fresh_root("uninterrupted");
    let repo_a = SessionRepository::open(&root_a).expect("open");
    let mut reference =
        LiveSession::create(&repo_a, meta(&repo_a, spec("ituned", 42, 12)), None, 5)
            .expect("create");
    reference.advance(12).expect("advance");
    assert_eq!(reference.status(), SessionStatus::Finished);

    // Same spec, crashed mid-run: advance 7, then "crash" (drop the live
    // session without a final snapshot) and tear the WAL tail.
    let root_b = fresh_root("crashed");
    let repo_b = SessionRepository::open(&root_b).expect("open");
    let m = meta(&repo_b, spec("ituned", 42, 12));
    let id = m.id;
    {
        let mut victim = LiveSession::create(&repo_b, m, None, 5).expect("create");
        victim.advance(7).expect("advance");
        // snapshot_every=5 ⇒ a snapshot exists and the WAL holds a tail.
    }
    {
        // Simulate a torn append: garbage half-line at the WAL tail.
        use std::io::Write;
        let wal_path = repo_b.session_dir(id).join("wal.jsonl");
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open wal");
        f.write_all(b"{\"Obs\":{\"seq\":99,\"obs\":{\"conf")
            .expect("tear");
    }

    let recovered_meta = repo_b.read_meta(id).expect("meta");
    let mut recovered = LiveSession::recover(&repo_b, recovered_meta, 5).expect("recover");
    assert_eq!(recovered.status(), SessionStatus::Running);
    assert_eq!(recovered.history().len(), 8, "probe + 7 evaluations");

    // The replayed prefix is byte-identical to the reference's prefix.
    let ref_prefix: Vec<_> = reference.history().all()[..8].to_vec();
    assert_eq!(
        serde_json::to_string(&ref_prefix).expect("json"),
        serde_json::to_string(&recovered.history().all().to_vec()).expect("json"),
        "recovered history must replay byte-identically"
    );

    // And the recovered session finishes exactly like the uninterrupted
    // one: same history bytes, same recommendation.
    recovered.advance(12).expect("finish");
    assert_eq!(recovered.status(), SessionStatus::Finished);
    assert_eq!(history_json(&reference), history_json(&recovered));
    let rec_a =
        serde_json::to_string(&reference.recommendation().expect("rec").config).expect("json");
    let rec_b =
        serde_json::to_string(&recovered.recommendation().expect("rec").config).expect("json");
    assert_eq!(rec_a, rec_b);

    let _ = fs::remove_dir_all(&root_a);
    let _ = fs::remove_dir_all(&root_b);
}

#[test]
fn finished_session_recovers_terminal_with_recommendation() {
    let root = fresh_root("finished");
    let repo = SessionRepository::open(&root).expect("open");
    let m = meta(&repo, spec("random", 7, 6));
    let id = m.id;
    let mut s = LiveSession::create(&repo, m, None, 100).expect("create");
    s.advance(6).expect("advance");
    let best = s.best_runtime();
    drop(s);

    let back =
        LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), 100).expect("recover");
    assert_eq!(back.status(), SessionStatus::Finished);
    assert_eq!(back.best_runtime(), best);
    assert!(back.recommendation().is_some());
    let _ = fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chopping the WAL at *any* byte offset past the probe record leaves
    /// a recoverable log: every complete line survives, the torn tail is
    /// dropped, and the observation prefix matches the original run.
    #[test]
    fn truncated_wal_recovers_complete_prefix(
        seed in 0u64..1000,
        budget in 2usize..8,
        cut_back in 1usize..200,
    ) {
        let root = fresh_root(&format!("prop-{seed}-{budget}-{cut_back}"));
        let repo = SessionRepository::open(&root).expect("open");
        // Budget above the advanced step count: the session stays Running,
        // so no finish-time compaction empties the WAL under the test.
        let m = meta(&repo, spec("random", seed, budget + 2));
        let id = m.id;
        // snapshot_every larger than the run: everything stays in the WAL.
        let mut s = LiveSession::create(&repo, m, None, 1000).expect("create");
        s.advance(budget).expect("advance");
        let full: Vec<_> = s.history().all().to_vec();
        drop(s);

        let wal_path = repo.session_dir(id).join("wal.jsonl");
        let bytes = fs::read(&wal_path).expect("read wal");
        let first_line_end = bytes.iter().position(|&b| b == b'\n').expect("line") + 1;
        // Cut somewhere after the first record so recovery has work to do.
        let cut = (bytes.len().saturating_sub(cut_back)).max(first_line_end);
        fs::write(&wal_path, &bytes[..cut]).expect("truncate");

        let kept_lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let recovered = wal::recover(&repo.session_dir(id)).expect("recover");

        // Count the observation records among surviving complete frames
        // (the final line may be a Finished record). Every complete line
        // still validates — truncation only tears the tail.
        let text = String::from_utf8(bytes[..cut].to_vec()).expect("utf8");
        let complete: Vec<&str> = text
            .split('\n')
            .take(kept_lines)
            .collect();
        let expect_obs = complete
            .iter()
            .filter(|l| {
                wal::decode_frame(l)
                    .and_then(|payload| serde_json::from_str::<WalRecord>(payload).ok())
                    .map(|r| matches!(r, WalRecord::Obs { .. }))
                    .unwrap_or(false)
            })
            .count();
        prop_assert_eq!(recovered.observations.len(), expect_obs);
        // The surviving prefix matches the original run byte-for-byte.
        let original_prefix: Vec<_> = full[..expect_obs].to_vec();
        prop_assert_eq!(
            serde_json::to_string(&recovered.observations).expect("json"),
            serde_json::to_string(&original_prefix).expect("json")
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// Flipping any single byte of the WAL is *detected*: recovery never
    /// panics, never silently applies a mutated record, and stops cleanly
    /// at the last record before the corrupted frame.
    #[test]
    fn flipped_byte_is_detected_and_recovery_stops_at_last_valid_record(
        seed in 0u64..1000,
        budget in 2usize..8,
        flip_pos in 0usize..10_000,
        flip_bit in 0u32..8,
    ) {
        let root = fresh_root(&format!("flip-{seed}-{budget}-{flip_pos}-{flip_bit}"));
        let repo = SessionRepository::open(&root).expect("open");
        let m = meta(&repo, spec("random", seed, budget + 2));
        let id = m.id;
        let mut s = LiveSession::create(&repo, m, None, 1000).expect("create");
        s.advance(budget).expect("advance");
        let full: Vec<_> = s.history().all().to_vec();
        drop(s);

        let wal_path = repo.session_dir(id).join("wal.jsonl");
        let mut bytes = fs::read(&wal_path).expect("read wal");
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        fs::write(&wal_path, &bytes).expect("write corrupted wal");

        // Recovery must not panic and must not error: the prefix before
        // the corrupted frame is independently checksummed and sound.
        let recovered = wal::recover(&repo.session_dir(id)).expect("no panic, no error");
        prop_assert!(
            recovered.corruption.is_some(),
            "a flipped bit must be reported, not absorbed"
        );

        // Which frame was hit? Everything before it must survive intact;
        // nothing at or after it may be applied.
        let mut line_start = 0usize;
        let mut intact_obs = 0usize;
        for line in bytes.split(|&b| b == b'\n') {
            let line_end = line_start + line.len();
            if pos >= line_start && pos <= line_end {
                break; // the corrupted frame (newline flip counts here too)
            }
            if let Ok(text) = std::str::from_utf8(line) {
                if let Some(payload) = wal::decode_frame(text) {
                    if matches!(
                        serde_json::from_str::<WalRecord>(payload),
                        Ok(WalRecord::Obs { .. })
                    ) {
                        intact_obs += 1;
                    }
                }
            }
            line_start = line_end + 1;
        }
        prop_assert_eq!(recovered.observations.len(), intact_obs);
        let original_prefix: Vec<_> = full[..intact_obs].to_vec();
        prop_assert_eq!(
            serde_json::to_string(&recovered.observations).expect("json"),
            serde_json::to_string(&original_prefix).expect("json")
        );
        let _ = fs::remove_dir_all(&root);
    }
}

/// Log-test sessions: random search, so a case runs in milliseconds.
const LOG_BUDGET: usize = 10;
/// Steps before the simulated crash: frames at 3 and 6 observations,
/// observations 6 and 7 in the WAL.
const LOG_CUT: usize = 7;
const LOG_EVERY: usize = 3;

/// History, recommendation and status of a finished session, serialized.
fn outcome(session: &LiveSession) -> (String, String) {
    assert_eq!(session.status(), SessionStatus::Finished);
    (
        history_json(session),
        serde_json::to_string(&session.recommendation()).expect("json"),
    )
}

/// Runs a session to `steps` and drops it; returns its repository, root,
/// id and history.
fn crashed_run(
    tag: &str,
    seed: u64,
    steps: usize,
) -> (
    PathBuf,
    SessionRepository,
    SessionId,
    Vec<autotune_core::Observation>,
) {
    let root = fresh_root(tag);
    let repo = SessionRepository::open(&root).expect("open");
    let m = meta(&repo, spec("random", seed, LOG_BUDGET));
    let id = m.id;
    let mut s = LiveSession::create(&repo, m, None, LOG_EVERY).expect("create");
    s.advance(steps).expect("advance");
    let history = s.history().all().to_vec();
    (root, repo, id, history)
}

/// The uninterrupted run of the log tests' spec.
fn reference_outcome(seed: u64) -> (String, String) {
    let (root, repo, id, _) = crashed_run(&format!("log-ref-{seed}"), seed, LOG_BUDGET);
    let back =
        LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), LOG_EVERY).expect("recover");
    let want = outcome(&back);
    let _ = fs::remove_dir_all(&root);
    want
}

/// Byte ranges of the snapshot log's frames, newline included.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    spans
}

/// Recovers the damaged session, checks that what survived is a
/// byte-identical prefix of the original `expect_len` observations long
/// and that recovery repaired the files, finishes it, and checks it ends
/// as the uninterrupted run does and leaves a log that recovers cleanly.
fn recover_and_finish(
    repo: &SessionRepository,
    id: SessionId,
    original: &[autotune_core::Observation],
    expect_len: usize,
    seed: u64,
) {
    let dir = repo.session_dir(id);
    let recovered = wal::recover(&dir).expect("recover");
    assert!(recovered.corruption.is_some(), "damage must be reported");
    assert_eq!(recovered.observations.len(), expect_len);
    assert_eq!(
        serde_json::to_string(&recovered.observations).expect("json"),
        serde_json::to_string(&original[..expect_len]).expect("json")
    );
    let mut back = LiveSession::recover(repo, repo.read_meta(id).expect("meta"), LOG_EVERY)
        .expect("recover session");
    // Recovery repairs the damage at once: no later frame or record can
    // land behind it, so a second crash loses nothing.
    let repaired = wal::recover(&dir).expect("recover repaired");
    assert!(repaired.corruption.is_none(), "{:?}", repaired.corruption);
    assert_eq!(repaired.observations.len(), expect_len);
    // With every frame lost even the probe is recomputed, and it counts
    // as a step.
    back.advance(LOG_BUDGET + 1).expect("finish");
    assert_eq!(outcome(&back), reference_outcome(seed));
    let clean = wal::recover(&dir).expect("recover finished");
    assert!(clean.corruption.is_none(), "{:?}", clean.corruption);
    assert_eq!(clean.observations.len(), LOG_BUDGET + 1);
    assert_eq!(clean.status, SessionStatus::Finished);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cutting the snapshot log at any byte leaves its complete frames:
    /// recovery keeps them (plus the WAL when no frame was lost) and the
    /// session recomputes the rest, ending byte-identical.
    #[test]
    fn truncated_snapshot_log_recovers_a_prefix_and_continues_identically(
        seed in 0u64..1000,
        cut_at in 0usize..100_000,
    ) {
        let (root, repo, id, original) =
            crashed_run(&format!("log-cut-{seed}-{cut_at}"), seed, LOG_CUT);
        let path = repo.session_dir(id).join(wal::SNAPSHOT_FILE);
        let bytes = fs::read(&path).expect("read log");
        let spans = frame_spans(&bytes);
        prop_assert_eq!(spans.len(), 2, "premise: frames at 3 and 6 observations");
        let cut = cut_at % bytes.len();
        fs::write(&path, &bytes[..cut]).expect("truncate log");
        // A frame is kept when everything but (at most) its newline
        // survived; a torn frame loses the WAL's continuation too.
        let kept = spans.iter().filter(|(_, end)| cut + 1 >= *end).count();
        let expect_len = if kept == spans.len() { LOG_CUT + 1 } else { kept * LOG_EVERY };
        if kept == spans.len() {
            // Only the final newline went: nothing to report or lose.
            prop_assert_eq!(wal::recover(&repo.session_dir(id)).expect("recover").observations.len(), expect_len);
        } else {
            recover_and_finish(&repo, id, &original, expect_len, seed);
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Flipping any bit of the snapshot log is detected: recovery keeps
    /// the frames before the damaged one, ignores the WAL past the gap,
    /// and the session recomputes the rest, ending byte-identical.
    #[test]
    fn flipped_snapshot_log_byte_recovers_a_prefix_and_continues_identically(
        seed in 0u64..1000,
        flip_pos in 0usize..100_000,
        flip_bit in 0u32..8,
    ) {
        let (root, repo, id, original) =
            crashed_run(&format!("log-flip-{seed}-{flip_pos}-{flip_bit}"), seed, LOG_CUT);
        let path = repo.session_dir(id).join(wal::SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).expect("read log");
        let spans = frame_spans(&bytes);
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        fs::write(&path, &bytes).expect("write corrupted log");
        let hit = spans.iter().position(|(start, end)| (*start..*end).contains(&pos)).expect("frame");
        recover_and_finish(&repo, id, &original, hit * LOG_EVERY, seed);
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn legacy_snapshot_recovers_and_its_first_compaction_writes_a_log() {
    const SEED: u64 = 17;
    const LEGACY_SEQ: usize = 5;
    // A session whose files a daemon wrote before the snapshot log
    // existed: one JSON object covering 5 observations, the rest in the
    // WAL.
    let (root, repo, id, original) = crashed_run("legacy", SEED, LOG_CUT);
    let dir = repo.session_dir(id);
    let legacy = Snapshot {
        seq: LEGACY_SEQ as u64,
        history: autotune_core::History::from_observations(original[..LEGACY_SEQ].to_vec()),
        status: SessionStatus::Running,
        recommendation: None,
        drift_events: Vec::new(),
    };
    fs::write(
        dir.join(wal::SNAPSHOT_FILE),
        serde_json::to_string(&legacy).expect("legacy json"),
    )
    .expect("write legacy snapshot");
    let mut wal_bytes = Vec::new();
    for (seq, obs) in original.iter().enumerate().skip(LEGACY_SEQ) {
        wal_bytes.extend(
            wal::encode_record(&WalRecord::Obs {
                seq: seq as u64,
                obs: obs.clone(),
            })
            .expect("frame"),
        );
    }
    fs::write(dir.join(wal::WAL_FILE), wal_bytes).expect("write wal");

    let recovered = wal::recover(&dir).expect("legacy recovers");
    assert!(recovered.corruption.is_none());
    assert_eq!(recovered.snapshot_seq, LEGACY_SEQ as u64);
    assert_eq!(
        serde_json::to_string(&recovered.observations).expect("json"),
        serde_json::to_string(&original).expect("json")
    );

    // The first compaction (due at the next step: 3 observations past
    // the legacy snapshot) rewrites the file once as a one-frame log;
    // later ones append to it.
    let mut back =
        LiveSession::recover(&repo, repo.read_meta(id).expect("meta"), LOG_EVERY).expect("recover");
    back.advance(1).expect("step");
    let log = fs::read(dir.join(wal::SNAPSHOT_FILE)).expect("log");
    assert_ne!(log.first(), Some(&b'{'), "rewritten as a log");
    assert_eq!(frame_spans(&log).len(), 1);
    back.advance(LOG_BUDGET).expect("finish");
    assert_eq!(outcome(&back), reference_outcome(SEED));
    let log = fs::read(dir.join(wal::SNAPSHOT_FILE)).expect("log");
    assert!(frame_spans(&log).len() > 1, "later compactions append");
    let clean = wal::recover(&dir).expect("recover log");
    assert!(clean.corruption.is_none());
    assert_eq!(clean.observations.len(), LOG_BUDGET + 1);
    let _ = fs::remove_dir_all(&root);
}

/// Bytes this thread has passed to `write`-family calls (`wchar`).
#[cfg(target_os = "linux")]
fn thread_write_bytes() -> u64 {
    let io = fs::read_to_string("/proc/thread-self/io").expect("read /proc/thread-self/io");
    io.lines()
        .find_map(|l| l.strip_prefix("wchar: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("wchar field")
}

/// Every byte a session of `observations` writes (metadata, WAL, snapshot
/// log), compacting at the default interval.
#[cfg(target_os = "linux")]
fn session_write_bytes(observations: usize) -> u64 {
    let root = fresh_root(&format!("linear-{observations}"));
    let repo = SessionRepository::open(&root).expect("open");
    let m = meta(&repo, spec("random", 5, observations - 1));
    let before = thread_write_bytes();
    let mut s = LiveSession::create(&repo, m, None, wal::DEFAULT_SNAPSHOT_EVERY).expect("create");
    s.advance(observations).expect("advance");
    assert_eq!(s.status(), SessionStatus::Finished);
    let written = thread_write_bytes() - before;
    let _ = fs::remove_dir_all(&root);
    written
}

#[cfg(target_os = "linux")]
#[test]
fn compaction_writes_grow_linearly_with_session_length() {
    // Rewriting the whole history at every compaction makes writes grow
    // quadratically: about 3.6x for twice the observations.
    let short = session_write_bytes(128);
    let long = session_write_bytes(256);
    assert!(
        long as f64 <= 2.2 * short as f64,
        "256 observations wrote {long} B, 128 wrote {short} B"
    );
}

#[test]
fn session_ids_allocate_past_recovered_sessions() {
    let root = fresh_root("ids");
    let repo = SessionRepository::open(&root).expect("open");
    let m1 = meta(&repo, spec("random", 1, 2));
    LiveSession::create(&repo, m1, None, 16).expect("create");
    let m2 = meta(&repo, spec("random", 2, 2));
    assert_eq!(m2.id, SessionId::new(2));
    LiveSession::create(&repo, m2, None, 16).expect("create");
    assert_eq!(repo.next_id().expect("next"), SessionId::new(3));
    let _ = fs::remove_dir_all(&root);
}
