//! The untraced runs: an in-process `autotune-serve` daemon driven over
//! TCP by one closed-loop client (the next request leaves only after the
//! previous reply).

use crate::client::{Client, MAX_ATTEMPTS};
use crate::image;
use crate::plan::{self, SessionPlan, Workload, CRASH_AT, STEPS_PER_REQUEST};
use crate::procfs::{self, Sample};
use autotune_core::SessionId;
use autotune_serve::server::{Daemon, DaemonConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Restarts on the final data directory of an untraced steady run: at
/// least this many, and until they add up to [`RECOVER_TOTAL_S`].
const MIN_RECOVER_REPS: usize = 7;

/// Seconds of `Daemon::start` a steady run's `recover_s` median rests on.
const RECOVER_TOTAL_S: f64 = 1.0;

/// A session the client created.
#[derive(Debug, Clone)]
pub struct Tracked {
    /// What was created.
    pub plan: SessionPlan,
    /// Its id.
    pub id: SessionId,
    /// Runtime of its baseline probe.
    pub baseline: f64,
}

/// What the daemon reports for a session at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `GET /sessions/{id}/csv`.
    pub csv: String,
    /// The recommendation, re-serialized (`null` while running).
    pub recommendation: String,
    /// Best runtime.
    pub best: f64,
    /// Lifecycle label.
    pub status: String,
}

/// Resource use over a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU milliseconds.
    pub cpu_ms: f64,
    /// Bytes written to files.
    pub file_bytes: u64,
}

impl Usage {
    fn add(&mut self, other: Usage) {
        self.wall_s += other.wall_s;
        self.cpu_ms += other.cpu_ms;
        self.file_bytes += other.file_bytes;
    }
}

/// An open measurement window.
struct Window {
    start: Instant,
    proc: Sample,
}

impl Window {
    fn open() -> Window {
        Window {
            start: Instant::now(),
            proc: procfs::sample(),
        }
    }

    fn close(self) -> Usage {
        let wall_s = self.start.elapsed().as_secs_f64();
        let now = procfs::sample();
        Usage {
            wall_s,
            cpu_ms: now.cpu_ms - self.proc.cpu_ms,
            file_bytes: procfs::file_bytes_written(self.proc, now),
        }
    }
}

/// Starts a daemon on an existing or empty data directory.
pub fn start_daemon(dir: &Path, workload: Workload) -> Daemon {
    let mut config = DaemonConfig::new(dir);
    config.durability = workload.durability();
    Daemon::start("127.0.0.1:0", config).expect("start daemon")
}

fn create(client: &mut Client, plan: &SessionPlan) -> Tracked {
    let reply = client.create(&plan.spec_json());
    assert_eq!(
        reply.status, "running",
        "created session {} not running",
        reply.id
    );
    Tracked {
        plan: plan.clone(),
        id: reply.id,
        baseline: reply.baseline_runtime,
    }
}

/// Advances `sessions` round-robin, `steps` evaluations per request, from
/// `start[i]` evaluations until each is finished or has `stop_at`
/// evaluations. Records each reply's round trip; returns the
/// evaluations run.
///
/// An advance is not idempotent. A failed request, or a reply whose count
/// falls short of what was asked (the daemon can answer from a stale count
/// once its driver has stepped down), may still have run its steps, so the
/// count is then re-read with `GET /sessions/{id}` and only what is left is
/// asked for: no session runs past `stop_at`.
fn drive(
    client: &mut Client,
    sessions: &[Tracked],
    steps: usize,
    start: &[usize],
    stop_at: Option<usize>,
    rtt_ms: &mut Vec<f64>,
) -> u64 {
    let mut done = start.to_vec();
    let mut stalls = vec![0usize; sessions.len()];
    let mut open: Vec<usize> = (0..sessions.len()).collect();
    while !open.is_empty() {
        open.retain(|&i| {
            let s = &sessions[i];
            let target = stop_at.unwrap_or(s.plan.budget);
            let ask = steps.min(target - done[i]);
            let (evaluations, status) = match client.advance(s.id, ask) {
                Some(adv) => {
                    rtt_ms.push(adv.rtt_ms);
                    let r = adv.reply;
                    if r.evaluations == done[i] + ask || r.status != "running" {
                        (r.evaluations, r.status)
                    } else {
                        let d = client.detail(s.id);
                        (d.evaluations, d.status)
                    }
                }
                None => {
                    let d = client.detail(s.id);
                    (d.evaluations, d.status)
                }
            };
            if evaluations == done[i] {
                stalls[i] += 1;
                assert!(
                    stalls[i] < MAX_ATTEMPTS,
                    "session {} made no progress in {MAX_ATTEMPTS} advances",
                    s.id
                );
            } else {
                stalls[i] = 0;
            }
            done[i] = evaluations;
            status == "running" && done[i] < target
        });
    }
    done.iter().zip(start).map(|(d, s)| (d - s) as u64).sum()
}

/// Tuner-driven evaluations in a `GET /sessions/{id}/csv` history: one
/// row per observation after the header, the first being the baseline
/// probe.
fn csv_evaluations(csv: &str) -> usize {
    csv.lines().count() - 2
}

/// Reads what the daemon holds for each session.
pub fn outcomes(client: &mut Client, sessions: &[Tracked]) -> Vec<Outcome> {
    sessions
        .iter()
        .map(|s| {
            let detail = client.detail(s.id);
            Outcome {
                csv: client.csv(s.id),
                recommendation: serde_json::to_string(&detail.recommendation)
                    .expect("recommendation json"),
                best: detail.best_runtime.expect("a successful run"),
                status: detail.status,
            }
        })
        .collect()
}

/// Starts a daemon on a fresh copy of `image`, timing `Daemon::start`,
/// and checks that every session's history survived byte for byte.
fn restart_on_copy(
    client: &mut Client,
    image: &Path,
    copy: &Path,
    workload: Workload,
    sessions: &[Tracked],
    expect: &[Outcome],
) -> (Daemon, Usage) {
    let _ = std::fs::remove_dir_all(copy);
    image::copy_tree(image, copy);
    image::write_back();
    let window = Window::open();
    let daemon = start_daemon(copy, workload);
    let usage = window.close();
    client.retarget(daemon.addr());
    for (s, want) in sessions.iter().zip(expect) {
        assert!(
            client.csv(s.id) == want.csv,
            "session {}: history after restart differs from before",
            s.id
        );
    }
    (daemon, usage)
}

/// Result of a `gp-advance` run.
pub struct SteadyRun {
    /// Seconds of each set-up made.
    pub setup_s: Vec<f64>,
    /// Every session, in creation order.
    pub sessions: Vec<Tracked>,
    /// Sessions per round.
    pub per_round: usize,
    /// Rounds measured.
    pub rounds: usize,
    /// The measured phase.
    pub usage: Usage,
    /// Peak resident set at the end of the measured phase, MiB.
    pub peak_rss_mib: f64,
    /// Evaluations in the measured phase.
    pub evaluations: u64,
    /// Advance round trips, milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Final daemon state per session.
    pub outcomes: Vec<Outcome>,
    /// `GET /metrics` at the end of the measured phase.
    pub metrics_json: String,
    /// Data-directory bytes after shutdown.
    pub stored_bytes: u64,
    /// Observations the data directory holds.
    pub stored_obs: u64,
    /// `Daemon::start` seconds on copies of the final data directory.
    pub recover_s: Vec<f64>,
    /// The final data directory (kept for the traced run).
    pub data_dir: PathBuf,
}

/// One timed set-up: a daemon started on an empty `dir` and round 0's
/// sessions created on it.
fn set_up(client: &mut Client, seed: u64, dir: &Path) -> (Daemon, Vec<Tracked>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    image::write_back();
    let t = Instant::now();
    let daemon = start_daemon(dir, Workload::GpAdvance);
    client.retarget(daemon.addr());
    let created = plan::round(seed, 0)
        .iter()
        .map(|p| create(client, p))
        .collect();
    (daemon, created, t.elapsed().as_secs_f64())
}

/// Runs a `gp-advance` workload: `setups` set-ups (the last one is kept),
/// `rounds` measured rounds and restarts on the final data directory:
/// one, or with `repeat_restarts` enough for a steady median.
pub fn steady(
    seed: u64,
    rounds: usize,
    root: &Path,
    setups: usize,
    repeat_restarts: bool,
) -> (SteadyRun, Client) {
    let workload = Workload::GpAdvance;
    let dir = root.join("data");
    let mut client = Client::default();
    let mut setup_s = Vec::new();
    for _ in 1..setups {
        let (d, _, t) = set_up(&mut client, seed, &dir);
        setup_s.push(t);
        d.graceful_shutdown();
    }
    let (daemon, mut sessions, last) = set_up(&mut client, seed, &dir);
    setup_s.push(last);
    let per_round = sessions.len();

    let mut usage = Usage::default();
    let mut rtt_ms = Vec::new();
    let mut evaluations = 0;
    for r in 0..rounds {
        let window = Window::open();
        if r > 0 {
            let next: Vec<Tracked> = plan::round(seed, r)
                .iter()
                .map(|p| create(&mut client, p))
                .collect();
            sessions.extend(next);
        }
        evaluations += drive(
            &mut client,
            &sessions[r * per_round..],
            STEPS_PER_REQUEST,
            &vec![0; per_round],
            None,
            &mut rtt_ms,
        );
        usage.add(window.close());
    }
    let peak_rss_mib = procfs::peak_rss_mib();

    let outcomes = outcomes(&mut client, &sessions);
    for (s, o) in sessions.iter().zip(&outcomes) {
        assert_eq!(o.status, "finished", "session {} did not finish", s.id);
    }
    let metrics_json = client.metrics();
    daemon.graceful_shutdown();
    let stored_bytes = procfs::dir_bytes(&dir);
    let stored_obs = sessions.iter().map(|s| s.plan.budget as u64 + 1).sum();

    let copy = root.join("restart");
    let mut recover_s = Vec::new();
    loop {
        let (d, usage) = restart_on_copy(&mut client, &dir, &copy, workload, &sessions, &outcomes);
        recover_s.push(usage.wall_s);
        d.graceful_shutdown();
        let enough =
            recover_s.len() >= MIN_RECOVER_REPS && recover_s.iter().sum::<f64>() >= RECOVER_TOTAL_S;
        if !repeat_restarts || enough || recover_s.len() >= 100 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&copy);

    let run = SteadyRun {
        setup_s,
        sessions,
        per_round,
        rounds,
        usage,
        peak_rss_mib,
        evaluations,
        rtt_ms,
        outcomes,
        metrics_json,
        stored_bytes,
        stored_obs,
        recover_s,
        data_dir: dir,
    };
    (run, client)
}

/// Result of a `restart` run.
pub struct RestartRun {
    /// Set-up seconds of each crash image built.
    pub setup_s: Vec<f64>,
    /// The image's sessions.
    pub sessions: Vec<Tracked>,
    /// The crash image.
    pub image: PathBuf,
    /// The uninterrupted daemon's final state (the reference).
    pub reference: Vec<Outcome>,
    /// Observations the image holds.
    pub image_obs: u64,
    /// Image bytes.
    pub image_bytes: u64,
    /// `Daemon::start` seconds per restart.
    pub recover_s: Vec<f64>,
    /// Start-to-last-reply seconds of each restart's resumed work.
    pub resume_s: Vec<f64>,
    /// Evaluations run after each restart.
    pub resumed_evals: u64,
    /// Daemon start plus resumed advances, summed over restarts.
    pub usage: Usage,
    /// Peak resident set at the end of the restarts, MiB.
    pub peak_rss_mib: f64,
    /// Advance round trips after restarts, milliseconds.
    pub rtt_ms: Vec<f64>,
    /// `GET /metrics` after the last restart's resumed work.
    pub metrics_json: String,
}

fn is_gp(plan: &SessionPlan) -> bool {
    plan.tuner != "colt"
}

/// Evaluations per request while a crash image is built. Every request
/// under `fsync` waits for an `fdatasync`, whose latency follows the
/// shared disk: at 4 steps per request the build's 350 syncs made its
/// time vary by a third from run to run. [`CRASH_AT`] is a multiple.
const BUILD_STEPS: usize = 16;

/// Builds a crash image: an `fsync` daemon runs the `colt` sessions to
/// their budgets and the GP sessions to [`CRASH_AT`] evaluations, and its
/// data directory is copied while it is still running and idle.
fn build_image(client: &mut Client, seed: u64, dir: &Path, image: &Path) -> (Daemon, Vec<Tracked>) {
    let daemon = start_daemon(dir, Workload::Restart);
    client.retarget(daemon.addr());
    let sessions: Vec<Tracked> = plan::restart_image(seed)
        .iter()
        .map(|p| create(client, p))
        .collect();
    let (gp, colt): (Vec<Tracked>, Vec<Tracked>) =
        sessions.iter().cloned().partition(|s| is_gp(&s.plan));
    let mut sink = Vec::new();
    drive(
        client,
        &colt,
        BUILD_STEPS,
        &vec![0; colt.len()],
        None,
        &mut sink,
    );
    drive(
        client,
        &gp,
        BUILD_STEPS,
        &vec![0; gp.len()],
        Some(CRASH_AT),
        &mut sink,
    );
    for s in &gp {
        let d = client.detail(s.id);
        assert!(
            d.status == "running" && d.evaluations == CRASH_AT,
            "crash-image session {} is {} at {} evaluations, not running at {CRASH_AT}",
            s.id,
            d.status,
            d.evaluations
        );
    }
    assert!(
        image::wait_quiet(dir, Duration::from_millis(100), Duration::from_secs(30)),
        "data directory never settled"
    );
    image::copy_tree(dir, image);
    (daemon, sessions)
}

/// Runs a `restart` workload: `setups` image builds (the last is kept),
/// an uninterrupted reference, then `restarts` restarts on fresh copies
/// of the image.
pub fn restart(seed: u64, restarts: usize, root: &Path, setups: usize) -> (RestartRun, Client) {
    let workload = Workload::Restart;
    let dir = root.join("live");
    let image = root.join("image");
    let mut client = Client::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&image);
        image::write_back();
        let t = Instant::now();
        let (daemon, sessions) = build_image(&mut client, seed, &dir, &image);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < setups {
            daemon.graceful_shutdown();
        } else {
            kept = Some((daemon, sessions));
        }
    }
    let (daemon, sessions) = kept.expect("at least one set-up");
    let precrash = outcomes(&mut client, &sessions);
    let (gp, gp_start): (Vec<Tracked>, Vec<usize>) = sessions
        .iter()
        .zip(&precrash)
        .filter(|(s, _)| is_gp(&s.plan))
        .map(|(s, o)| (s.clone(), csv_evaluations(&o.csv)))
        .unzip();
    let mut sink = Vec::new();
    drive(
        &mut client,
        &gp,
        STEPS_PER_REQUEST,
        &gp_start,
        None,
        &mut sink,
    );
    let reference = outcomes(&mut client, &sessions);
    for (s, o) in sessions.iter().zip(&reference) {
        assert_eq!(
            o.status, "finished",
            "reference session {} did not finish",
            s.id
        );
    }
    daemon.graceful_shutdown();
    let image_obs = precrash
        .iter()
        .map(|o| o.csv.lines().count() as u64 - 1)
        .sum();
    let image_bytes = procfs::dir_bytes(&image);

    let copy = root.join("restart");
    let (mut recover_s, mut resume_s, mut rtt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut usage = Usage::default();
    let mut resumed_evals = 0;
    let mut metrics_json = String::new();
    for _ in 0..restarts {
        let (daemon, started) =
            restart_on_copy(&mut client, &image, &copy, workload, &sessions, &precrash);
        let window = Window::open();
        resumed_evals += drive(
            &mut client,
            &gp,
            STEPS_PER_REQUEST,
            &gp_start,
            None,
            &mut rtt_ms,
        );
        let resumed = window.close();
        recover_s.push(started.wall_s);
        resume_s.push(started.wall_s + resumed.wall_s);
        usage.add(started);
        usage.add(resumed);
        let after = outcomes(&mut client, &sessions);
        for ((s, got), want) in sessions.iter().zip(&after).zip(&reference) {
            assert!(
                got == want,
                "session {}: resumed run differs from the uninterrupted one",
                s.id
            );
        }
        metrics_json = client.metrics();
        daemon.graceful_shutdown();
    }
    let peak_rss_mib = procfs::peak_rss_mib();
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&dir);

    let run = RestartRun {
        setup_s,
        sessions,
        image,
        reference,
        image_obs,
        image_bytes,
        recover_s,
        resume_s,
        resumed_evals,
        usage,
        peak_rss_mib,
        rtt_ms,
        metrics_json,
    };
    (run, client)
}
