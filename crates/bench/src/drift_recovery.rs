//! Proof artifact for the drift subsystem: after a mid-run workload flip,
//! does online detection (re-probe + tuner restart) actually recover the
//! search faster than ignoring the flip?
//!
//! For each flip scenario (dbms, hadoop, spark — workload flips at
//! evaluation 15 of 60), noiseless:
//!
//! 1. Establish a post-flip reference optimum: seek the flip objective
//!    past the flip and run a seeded 3000-point random probe, then fold in
//!    the best post-flip point any arm evaluates.
//! 2. Run serve-layer sessions (iTuned) with the Page–Hinkley detector on
//!    and off over five seeds and record, per run, the first post-flip
//!    evaluation whose runtime lands within 1% of the post-flip optimum
//!    (censored when a run never gets there).
//! 3. The detection-on arm must need fewer evaluations (mean over seeds)
//!    on at least 2 of the 3 scenarios — the acceptance bar for the drift
//!    subsystem.
//!
//! A determinism gate rides along: the detection-off trajectory must be
//! byte-identical to a session created from a legacy spec JSON that
//! predates the `drift`/`adaptive` fields entirely. [`run`] panics when
//! either gate fails.

use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::LiveSession;
use autotune_serve::spec::{build_objective, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fs;
use std::path::Path;

/// One flip scenario's comparison.
#[derive(Debug, Serialize)]
pub struct ScenarioRow {
    /// Flip system spec (e.g. `dbms-flip@15`).
    pub system: String,
    /// Post-flip reference optimum (probe ∪ post-flip arm evals).
    pub post_optimum: f64,
    /// Mean post-flip evals to land within 1% of the post-flip optimum
    /// with detection off (censored runs count as the post-flip budget
    /// plus one).
    pub evals_detection_off: f64,
    /// Same, with the Page–Hinkley detector on.
    pub evals_detection_on: f64,
    /// Runs (out of `seeds`) where the detector fired after the flip.
    pub detections: usize,
    /// Mean evaluations between the flip and the detector firing, over
    /// detecting runs.
    pub mean_detection_delay: f64,
    /// Per detection-on run, in seed order: evaluations between the flip
    /// and the re-probe that opens the post-drift epoch (`null` when the
    /// detector did not fire after the flip).
    pub detection_delays: Vec<Option<u64>>,
    /// Per detection-on run: evaluations between the flip and the first
    /// canary at or after it, the earliest evaluation that can show the
    /// flip to the detector. A run that fires on that canary re-probes on
    /// the next evaluation, so its detection delay is this plus one.
    pub first_canary_delays: Vec<u64>,
    /// Censored runs with detection off.
    pub censored_off: usize,
    /// Censored runs with detection on.
    pub censored_on: usize,
    /// Whether detection-on needed strictly fewer evaluations.
    pub win: bool,
}

/// The whole comparison, as committed in `drift_recovery.json`.
#[derive(Debug, Serialize)]
pub struct DriftRecoveryReport {
    /// Evaluation budget per session (excluding the baseline probe).
    pub budget: usize,
    /// Evaluation index the workload flips at.
    pub flip_at: usize,
    /// Seeds per arm.
    pub seeds: Vec<u64>,
    /// Random-probe size behind the post-flip reference optimum.
    pub probe: usize,
    /// Band around the post-flip optimum counted as "arrived" (fraction).
    pub tolerance: f64,
    /// One row per flip scenario.
    pub scenarios: Vec<ScenarioRow>,
    /// Scenarios where detection-on won.
    pub wins: usize,
    /// Detection-off trajectories matched a pre-drift legacy spec
    /// byte-for-byte.
    pub legacy_identical: bool,
}

fn spec(system: &str, seed: u64, budget: usize, detector: &str) -> SessionSpec {
    // Both arms search under the rule-based constraints: without them,
    // plain iTuned cannot reach the 1% band on the dbms scenario inside
    // any reasonable budget, detection on or off.
    let mut s = SessionSpec {
        system: system.into(),
        tuner: "ituned".into(),
        seed,
        budget,
        noise: "none".into(),
        warm_start: false,
        constraints: true,
        adaptive: Default::default(),
        drift: Default::default(),
    };
    s.drift.detector = detector.into();
    // Noiseless canaries sit at exactly zero distance until the workload
    // moves, so the detector can afford to be much twitchier than the
    // noise-robust library defaults (the hadoop flip only shifts the
    // default-config signature by ~0.09 normalized RMS).
    s.drift.threshold = 0.05;
    s.drift.delta = 0.01;
    // Halve the canary tax: with the default cadence of 5 the detection
    // arm spends 20% of its post-flip budget on probes.
    s.drift.probe_every = 10;
    s
}

/// Runs one session to completion in `repo` and returns its runtime
/// trajectory plus every drift event's re-probe index.
fn run_in(repo: &SessionRepository, spec: SessionSpec) -> (Vec<f64>, Vec<u64>) {
    let budget = spec.budget;
    let meta = SessionMeta {
        id: repo.next_id().expect("id"),
        spec,
        warm_source: None,
        created_unix_ms: 0,
    };
    let mut s = LiveSession::create(repo, meta, None, usize::MAX).expect("create");
    s.advance(budget).expect("advance");
    let trajectory = s.history().all().iter().map(|o| o.runtime_secs).collect();
    let reprobes = s.drift_events().iter().map(|e| e.at_seq).collect();
    (trajectory, reprobes)
}

/// Observation index of the first canary at or after `flip_at`: a canary
/// runs every `probe_every` indices into an epoch, and each drift event
/// opens an epoch at its re-probe index (`reprobes`, ascending).
fn first_canary_from(flip_at: u64, probe_every: u64, reprobes: &[u64]) -> u64 {
    let mut start = 0;
    for &next in reprobes.iter().chain([u64::MAX].iter()) {
        let k = flip_at.saturating_sub(start).div_ceil(probe_every).max(1);
        let canary = start + k * probe_every;
        if canary < next {
            return canary;
        }
        start = next;
    }
    unreachable!("the last epoch is unbounded")
}

/// Runs one session in a throwaway repo (no warm-start fleet).
fn run_session(root: &Path, spec: SessionSpec) -> (Vec<f64>, Vec<u64>) {
    let _ = fs::remove_dir_all(root);
    let repo = SessionRepository::open(root).expect("open repo");
    let out = run_in(&repo, spec);
    let _ = fs::remove_dir_all(root);
    out
}

/// A repo holding one *finished* session tuned on the post-flip workload
/// (`<platform>-flip@0` — the flip pair with the flip at evaluation 0 is
/// the post-flip workload throughout). This is the fleet history the
/// drift re-match queries: OtterTune-style workload mapping only pays off
/// when some prior session actually tuned the incoming workload.
fn fleet_repo(root: &Path, system: &str, seed: u64, budget: usize) -> SessionRepository {
    let _ = fs::remove_dir_all(root);
    let repo = SessionRepository::open(root).expect("open repo");
    let platform = system.split('-').next().expect("platform");
    let warmup = spec(&format!("{platform}-flip@0"), seed ^ 0x5EED, budget, "off");
    run_in(&repo, warmup);
    repo
}

/// First 1-based post-flip evaluation index within `tol` of the post-flip
/// optimum; censored at the post-flip eval count plus one.
fn evals_to_band(trajectory: &[f64], flip_at: usize, optimum: f64, tol: f64) -> usize {
    let post = &trajectory[flip_at.min(trajectory.len())..];
    post.iter()
        .position(|&rt| rt <= optimum * (1.0 + tol))
        .map(|i| i + 1)
        .unwrap_or(post.len() + 1)
}

/// Runs both arms on the three flip scenarios, then the legacy-spec
/// identity check, in session stores under the system temp directory.
///
/// # Panics
/// When detection wins fewer than 2 of the 3 scenarios, or when the
/// detection-off trajectory differs from the legacy spec's.
pub fn run() -> DriftRecoveryReport {
    let (budget, flip_at, probe, seeds): (usize, usize, usize, Vec<u64>) =
        (60, 15, 3000, vec![1, 2, 3, 4, 5]);
    let tolerance = 0.01;
    let systems = [
        format!("dbms-flip@{flip_at}"),
        format!("hadoop-flip@{flip_at}"),
        format!("spark-flip@{flip_at}"),
    ];
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "autotune-drift-recovery-{tag}-{}",
            std::process::id()
        ))
    };

    let mut scenarios = Vec::new();
    for system in &systems {
        // Post-flip reference optimum: probe the flipped landscape.
        let mut obj = build_objective(&spec(system, 0, budget, "off")).expect("objective");
        obj.seek(flip_at as u64);
        let mut rng = StdRng::seed_from_u64(7_777);
        let mut post_optimum = f64::INFINITY;
        for _ in 0..probe {
            let cfg = obj.space().random_config(&mut rng);
            post_optimum = post_optimum.min(obj.evaluate(&cfg, &mut rng).runtime_secs);
        }

        let mut off_runs = Vec::new();
        let mut on_runs = Vec::new();
        let mut detection_delays = Vec::new();
        let mut first_canary_delays = Vec::new();
        for &seed in &seeds {
            // Both arms run against the same fleet history; only the
            // detection-on arm ever queries it (drift re-match), so it
            // runs first to keep the repo identical at query time.
            let root = tmp("arena");
            let repo = fleet_repo(&root, system, seed, budget);
            let mut on = spec(system, seed, budget, "ph");
            on.warm_start = true;
            let probe_every = on.drift.probe_every as u64;
            let (t, reprobes) = run_in(&repo, on);
            let flip = flip_at as u64;
            detection_delays.push(reprobes.iter().find(|&&at| at > flip).map(|at| at - flip));
            first_canary_delays.push(first_canary_from(flip, probe_every, &reprobes) - flip);
            on_runs.push(t);
            let mut off = spec(system, seed, budget, "off");
            off.warm_start = true;
            let (t, _) = run_in(&repo, off);
            off_runs.push(t);
            let _ = fs::remove_dir_all(&root);
        }
        // Fold post-flip arm evals into the reference so "within 1%"
        // means the same thing for both arms.
        for t in off_runs.iter().chain(&on_runs) {
            for &rt in &t[flip_at.min(t.len())..] {
                post_optimum = post_optimum.min(rt);
            }
        }

        let mean_evals = |runs: &[Vec<f64>]| {
            runs.iter()
                .map(|t| evals_to_band(t, flip_at, post_optimum, tolerance))
                .sum::<usize>() as f64
                / runs.len() as f64
        };
        let censored = |runs: &[Vec<f64>]| {
            runs.iter()
                .filter(|t| evals_to_band(t, flip_at, post_optimum, tolerance) > t.len() - flip_at)
                .count()
        };
        let delays: Vec<f64> = detection_delays
            .iter()
            .flatten()
            .map(|&d| d as f64)
            .collect();
        scenarios.push(ScenarioRow {
            system: system.clone(),
            post_optimum,
            evals_detection_off: mean_evals(&off_runs),
            evals_detection_on: mean_evals(&on_runs),
            detections: delays.len(),
            mean_detection_delay: if delays.is_empty() {
                f64::NAN
            } else {
                delays.iter().sum::<f64>() / delays.len() as f64
            },
            detection_delays,
            first_canary_delays,
            censored_off: censored(&off_runs),
            censored_on: censored(&on_runs),
            win: mean_evals(&on_runs) < mean_evals(&off_runs),
        });
    }

    // Regression gate: detection-off bytes match a legacy spec that has
    // no drift/adaptive fields at all and still names the constraints by
    // the artifact path specs carried before the field became a bool.
    let legacy: SessionSpec = serde_json::from_str(&format!(
        r#"{{"system":"dbms-flip@{flip_at}","tuner":"ituned","seed":1,
            "budget":{budget},"noise":"none","warm_start":false,
            "constraints":"bench_results/knob_constraints.json"}}"#
    ))
    .expect("legacy spec parses");
    let (legacy_t, _) = run_session(&tmp("legacy"), legacy);
    let (off_t, _) = run_session(
        &tmp("off-gate"),
        spec(&format!("dbms-flip@{flip_at}"), 1, budget, "off"),
    );
    let legacy_identical = legacy_t == off_t;
    assert!(
        legacy_identical,
        "detection-off trajectory diverged from the legacy spec"
    );

    let wins = scenarios.iter().filter(|r| r.win).count();
    assert!(
        wins >= 2,
        "drift detection won only {wins}/3 flip scenarios"
    );
    DriftRecoveryReport {
        budget,
        flip_at,
        seeds,
        probe,
        tolerance,
        scenarios,
        wins,
        legacy_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::first_canary_from;

    #[test]
    fn first_canary_follows_the_epochs_drift_events_open() {
        assert_eq!(first_canary_from(15, 10, &[]), 20);
        assert_eq!(first_canary_from(20, 10, &[]), 20);
        assert_eq!(first_canary_from(0, 10, &[]), 10);
        // A re-probe at 12 opens an epoch whose first canary is at 22.
        assert_eq!(first_canary_from(15, 10, &[12]), 22);
        // A re-probe before the epoch's first canary moves it.
        assert_eq!(first_canary_from(5, 10, &[3]), 13);
        assert_eq!(first_canary_from(25, 10, &[21]), 31);
    }
}
