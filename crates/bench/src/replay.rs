//! Repository-backed replay: benchmark analysis over the `autotune-serve`
//! session store, without re-running a single evaluation.
//!
//! The serve daemon's WAL records every observation of every session. The
//! replay mode rebuilds those histories from disk and recomputes the
//! bench harness's summary statistics (best runtime, speedup over the
//! baseline probe, convergence), so a long-lived tuning service doubles
//! as a benchmark corpus: `replay_repo <data-dir>` turns days of served
//! sessions into a comparison table for free.

use autotune_core::{History, SessionId};
use autotune_serve::repo::SessionRepository;
use autotune_serve::wal::SessionStatus;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Summary of one replayed session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayedSession {
    /// The session's id in the repository.
    pub id: SessionId,
    /// Target system name from the spec.
    pub system: String,
    /// Tuner name from the spec.
    pub tuner: String,
    /// Lifecycle state label at replay time.
    pub status: String,
    /// Tuner-driven evaluations recorded (probe excluded).
    pub evaluations: usize,
    /// Runtime of the baseline probe (vendor defaults), if recorded.
    pub baseline_runtime: Option<f64>,
    /// Best successful runtime in the log.
    pub best_runtime: Option<f64>,
    /// `baseline / best` when both are available and the best run
    /// succeeded; the serve-side analogue of
    /// `TuningOutcome::speedup_over`.
    pub speedup: Option<f64>,
    /// Evaluations until the best-so-far curve got within 5% of the final
    /// best — the convergence statistic of the bench harness.
    pub evals_to_near_best: Option<usize>,
    /// Which session warm-started this one, if any.
    pub warm_source: Option<SessionId>,
}

/// Replay report over one repository.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// One row per readable session, ascending id.
    pub sessions: Vec<ReplayedSession>,
    /// Session directories that could not be replayed (corrupt or
    /// half-created), by id string.
    pub skipped: Vec<String>,
}

/// Evaluations until the curve reaches `target` (1-indexed over tuner
/// evaluations, probe excluded).
fn evals_to_target(history: &History, target: f64) -> Option<usize> {
    history
        .best_so_far()
        .iter()
        .skip(1)
        .position(|&r| r <= target)
        .map(|i| i + 1)
}

/// Rebuilds every session in the repository at `root` from its WAL +
/// snapshot and computes summary statistics. Never evaluates an
/// objective; unreadable sessions are reported in
/// [`ReplayReport::skipped`] rather than failing the whole replay.
pub fn replay_repository(root: &Path) -> std::io::Result<ReplayReport> {
    let repo = SessionRepository::open(root).map_err(|e| std::io::Error::other(e.to_string()))?;
    let ids = repo
        .list_ids()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut sessions = Vec::new();
    let mut skipped = Vec::new();
    for id in ids {
        let (meta, recovered) = match (repo.read_meta(id), repo.recover_session(id)) {
            (Ok(m), Ok(r)) => (m, r),
            _ => {
                skipped.push(id.to_string());
                continue;
            }
        };
        let history = History::from_observations(recovered.observations);
        let baseline = history
            .all()
            .first()
            .filter(|o| !o.failed)
            .map(|o| o.runtime_secs);
        let best = history.best().filter(|o| !o.failed).map(|o| o.runtime_secs);
        let speedup = match (baseline, best) {
            (Some(b), Some(best)) if best > 0.0 => Some(b / best),
            _ => None,
        };
        let evals_to_near_best = best.and_then(|b| evals_to_target(&history, b * 1.05));
        sessions.push(ReplayedSession {
            id,
            system: meta.spec.system,
            tuner: meta.spec.tuner,
            status: match recovered.status {
                SessionStatus::Running => "running",
                SessionStatus::Finished => "finished",
                SessionStatus::Cancelled => "cancelled",
            }
            .to_string(),
            evaluations: history.len().saturating_sub(1),
            baseline_runtime: baseline,
            best_runtime: best,
            speedup,
            evals_to_near_best,
            warm_source: meta.warm_source,
        });
    }
    Ok(ReplayReport { sessions, skipped })
}

/// Renders the report as the bench harness's usual fixed-width table.
pub fn render_table(report: &ReplayReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<16} {:<10} {:<9} {:>6} {:>10} {:>10} {:>8} {:>8}\n",
        "session", "system", "tuner", "status", "evals", "baseline", "best", "speedup", "to-best"
    ));
    for s in &report.sessions {
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.2}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<10} {:<16} {:<10} {:<9} {:>6} {:>10} {:>10} {:>8} {:>8}\n",
            s.id.to_string(),
            s.system,
            s.tuner,
            s.status,
            s.evaluations,
            fmt_opt(s.baseline_runtime),
            fmt_opt(s.best_runtime),
            fmt_opt(s.speedup),
            s.evals_to_near_best
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ));
    }
    if !report.skipped.is_empty() {
        out.push_str(&format!(
            "skipped (unreadable): {}\n",
            report.skipped.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_serve::repo::SessionMeta;
    use autotune_serve::session::LiveSession;
    use autotune_serve::spec::SessionSpec;

    #[test]
    fn replay_summarizes_served_sessions_without_evaluating() {
        let root =
            std::env::temp_dir().join(format!("autotune-bench-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let repo = SessionRepository::open(&root).expect("open");
        let meta = SessionMeta {
            id: repo.next_id().expect("id"),
            spec: SessionSpec {
                system: "dbms-oltp".into(),
                tuner: "random".into(),
                seed: 9,
                budget: 5,
                noise: "none".into(),
                warm_start: false,
                constraints: false,
                adaptive: Default::default(),
                drift: Default::default(),
            },
            warm_source: None,
            created_unix_ms: 0,
        };
        let mut s = LiveSession::create(&repo, meta, None, 16).expect("create");
        s.advance(5).expect("advance");
        drop(s);
        // A half-created directory must be skipped, not fatal.
        std::fs::create_dir_all(root.join("s-000099")).expect("mkdir");

        let report = replay_repository(&root).expect("replay");
        assert_eq!(report.sessions.len(), 1);
        let row = &report.sessions[0];
        assert_eq!(row.status, "finished");
        assert_eq!(row.evaluations, 5);
        assert!(row.baseline_runtime.is_some());
        assert!(row.speedup.is_some_and(|s| s >= 1.0));
        assert_eq!(report.skipped, vec!["s-000099".to_string()]);

        let table = render_table(&report);
        assert!(table.contains("dbms-oltp"), "{table}");
        assert!(table.contains("skipped"), "{table}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
