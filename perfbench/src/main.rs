//! Benchmark of the `autotune-serve` tuning daemon.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gp-advance --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` and `perfbench/layers.json`):
//! `gp-advance` and `restart`. With `--trace 0` the run drives
//! an in-process daemon over TCP and reports the end-to-end metrics; with
//! `--trace 1` it repeats the daemon run and then replays the same
//! sessions in-process, once through `LiveSession` and once through a
//! traced replica, and reports the per-layer metrics. Every run checks
//! its outputs; a failed check panics, so the process exits non-zero and
//! prints no result line. The last line of standard output is the result
//! as one JSON object.

mod client;
mod drive;
mod image;
mod inproc;
mod plan;
mod procfs;
mod stats;
mod trace;

use drive::{RestartRun, SteadyRun};
use plan::Workload;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

/// Set-ups per untraced `gp-advance` run; `setup_s` is their median.
const STEADY_SETUPS: usize = 15;

/// Crash images built per untraced `restart` run; `setup_s` is the
/// median of their build times.
const RESTART_SETUPS: usize = 5;

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The part of `layers.json` the program enforces.
#[derive(Deserialize)]
struct LayerDoc {
    coverage_tolerance: f64,
}

struct Report {
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: BTreeMap::new(),
        }
    }

    /// Records a metric and prints it with its unit and sample count.
    fn add(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        assert!(value.is_finite(), "{name} is not finite");
        println!("metric {name} = {value} {unit} (n={samples})");
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Records the median and p95 of advance round trips.
    fn latency(&mut self, rtt_ms: &[f64]) {
        let p50 = stats::percentile(rtt_ms, 0.50).expect("advance p50");
        let p95 = stats::percentile(rtt_ms, 0.95).unwrap_or_else(|| {
            panic!(
                "{} advance samples leave fewer than {} beyond p95",
                rtt_ms.len(),
                stats::MIN_BEYOND
            )
        });
        self.add("advance_p50_ms", p50.value, "ms", p50.n);
        self.add("advance_p95_ms", p95.value, "ms", p95.n);
        println!("  p95 rests on {} samples beyond it", p95.beyond);
    }

    /// Records the median of repeated measurements, printing their
    /// quartiles beside it.
    fn median(&mut self, name: &str, samples: &[f64], unit: &str) {
        self.add(name, stats::median(samples), unit, samples.len());
        if samples.len() >= 2 {
            let (q1, q3) = stats::quartiles(samples);
            println!("  {name} quartiles {q1} .. {q3}");
        }
    }
}

/// Removes the run's data directory when `main` returns or a failed
/// check unwinds it.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_data");
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        argv.get(at + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = get("--workload");
    Args {
        workload: Workload::parse(&workload)
            .unwrap_or_else(|| usage(&format!("unknown workload {workload}"))),
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed must be an integer")),
        seconds: get("--seconds")
            .parse()
            .unwrap_or_else(|_| usage("--seconds must be an integer")),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace must be 0 or 1"),
        },
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}\nusage: perfbench --workload gp-advance|restart --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance commit={} nproc={nproc} profile={profile} workload={} durability={} tuners={} seed={} seconds={} trace={} clients=1",
        git_commit(),
        args.workload.name(),
        args.workload.durability().label(),
        args.workload.tuner_mix(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn speedup_geomean(baselines_and_bests: impl Iterator<Item = (f64, f64)>) -> (f64, usize) {
    let ratios: Vec<f64> = baselines_and_bests
        .map(|(base, best)| base / best)
        .collect();
    (stats::geomean(&ratios), ratios.len())
}

/// Group-commit batch statistics from a `GET /metrics` body (zero when
/// the daemon ran without group commit, as under `flush`).
fn group_metrics(report: &mut Report, metrics_json: &str) {
    let metrics: autotune_serve::metrics::MetricsReport =
        serde_json::from_str(metrics_json).expect("metrics json");
    let (batches, mean_batch, records) = metrics
        .group_commit
        .map_or((0, 0.0, 0), |g| (g.batches, g.mean_batch, g.records));
    report.add("group.batches", batches as f64, "count", records as usize);
    report.add("group.mean_batch", mean_batch, "count", batches as usize);
}

/// The same-seed check of an untraced run: the first session of each
/// (system, tuner) pair is re-run in-process and must repeat the daemon's
/// history and recommendation exactly.
fn spot_check(
    workload: Workload,
    sessions: &[drive::Tracked],
    outcomes: &[drive::Outcome],
    root: &Path,
) {
    let mut seen = HashSet::new();
    let (picked, want): (Vec<_>, Vec<_>) = sessions
        .iter()
        .zip(outcomes)
        .filter(|(s, _)| seen.insert((s.plan.system, s.plan.tuner)))
        .map(|(s, o)| (s.clone(), o.clone()))
        .unzip();
    inproc::live_create(workload, &picked, &want, &root.join("spot"));
    println!(
        "  same-seed check: {} sessions re-run in-process",
        picked.len()
    );
}

fn steady_end_to_end(run: &SteadyRun, report: &mut Report) {
    report.median("setup_s", &run.setup_s, "s");
    report.add(
        "obs_per_s",
        run.evaluations as f64 / run.usage.wall_s,
        "1/s",
        run.evaluations as usize,
    );
    report.latency(&run.rtt_ms);
    report.median("recover_s", &run.recover_s, "s");
    report.add(
        "cpu_ms_per_obs",
        run.usage.cpu_ms / run.evaluations as f64,
        "ms",
        run.evaluations as usize,
    );
    report.add(
        "write_bytes_per_obs",
        run.usage.file_bytes as f64 / run.evaluations as f64,
        "B",
        run.evaluations as usize,
    );
    report.add(
        "stored_bytes_per_obs",
        run.stored_bytes as f64 / run.stored_obs as f64,
        "B",
        run.stored_obs as usize,
    );
    let (geo, n) = speedup_geomean(
        run.sessions
            .iter()
            .zip(&run.outcomes)
            .map(|(s, o)| (s.baseline, o.best)),
    );
    report.add("speedup_geomean", geo, "x", n);
    report.add("peak_rss_mb", run.peak_rss_mib, "MiB", 1);
    println!(
        "  measured {} rounds of {} sessions in {:.3} s",
        run.rounds, run.per_round, run.usage.wall_s
    );
}

fn restart_end_to_end(run: &RestartRun, report: &mut Report) {
    let restarts = run.recover_s.len();
    let handled = restarts as u64 * run.image_obs + run.resumed_evals;
    report.median("setup_s", &run.setup_s, "s");
    report.add(
        "obs_per_s",
        run.resumed_evals as f64 / run.resume_s.iter().sum::<f64>(),
        "1/s",
        run.resumed_evals as usize,
    );
    report.latency(&run.rtt_ms);
    report.median("recover_s", &run.recover_s, "s");
    report.add(
        "cpu_ms_per_obs",
        run.usage.cpu_ms / handled as f64,
        "ms",
        handled as usize,
    );
    report.add(
        "write_bytes_per_obs",
        run.usage.file_bytes as f64 / handled as f64,
        "B",
        handled as usize,
    );
    report.add(
        "stored_bytes_per_obs",
        run.image_bytes as f64 / run.image_obs as f64,
        "B",
        run.image_obs as usize,
    );
    let (geo, n) = speedup_geomean(
        run.sessions
            .iter()
            .zip(&run.reference)
            .map(|(s, o)| (s.baseline, o.best)),
    );
    report.add("speedup_geomean", geo, "x", n);
    report.add("peak_rss_mb", run.peak_rss_mib, "MiB", 1);
    println!(
        "  {restarts} restarts of an image holding {} observations",
        run.image_obs
    );
}

/// Per-layer metrics shared by every workload. `n` is the observation
/// count the `_per_obs` figures divide by.
fn layer_metrics(
    report: &mut Report,
    spans: &trace::Spans,
    n: u64,
    live: &inproc::LivePass,
    recovery: &inproc::LivePass,
) {
    let per = |us: f64| us / n as f64;
    let nz = n as usize;
    report.add(
        "tuners.propose_us_per_obs",
        per(spans.propose_us),
        "us",
        spans.proposals as usize,
    );
    report.add("tuners.observe_us_per_obs", per(spans.observe_us), "us", nz);
    let ratio = spans.dedup_hits as f64 / spans.live_proposals.max(1) as f64;
    report.add(
        "tuners.dedup_hit_ratio",
        ratio,
        "ratio",
        spans.live_proposals as usize,
    );
    report.add(
        "tuners.recommend_us",
        spans.recommend_us / spans.recommends.max(1) as f64,
        "us",
        spans.recommends as usize,
    );
    report.add(
        "math.fits",
        spans.fits as f64,
        "count",
        spans.recommends as usize,
    );
    report.add(
        "math.active_n_max",
        spans.active_max as f64,
        "count",
        spans.recommends as usize,
    );
    report.add("sim.evaluate_us_per_obs", per(spans.evaluate_us), "us", nz);
    report.add(
        "wal.encode_us_per_obs",
        per(spans.encode_us),
        "us",
        spans.records as usize,
    );
    report.add(
        "wal.record_bytes_per_obs",
        spans.record_bytes as f64 / n as f64,
        "B",
        spans.records as usize,
    );
    report.add(
        "wal.append_us_per_obs",
        per(spans.append_us),
        "us",
        spans.records as usize,
    );
    report.add(
        "wal.snapshot_us_per_obs",
        per(spans.snapshot_us),
        "us",
        spans.snapshots as usize,
    );
    report.add(
        "wal.snapshot_bytes_per_obs",
        spans.snapshot_bytes as f64 / n as f64,
        "B",
        spans.snapshots as usize,
    );
    report.add(
        "wal.snapshots",
        spans.snapshots as f64,
        "count",
        spans.snapshots as usize,
    );
    report.add(
        "group.wait_durable_us_per_obs",
        per(spans.wait_durable_us),
        "us",
        nz,
    );
    let rec_n = recovery.recovered.max(1) as f64;
    report.add(
        "repo.recover_read_us_per_obs",
        recovery.read_us / rec_n,
        "us",
        recovery.recovered as usize,
    );
    report.add(
        "session.replay_us_per_obs",
        (recovery.recover_with_us - recovery.read_us) / rec_n,
        "us",
        recovery.recovered as usize,
    );
    report.add(
        "session.dedup_us_per_obs",
        per(spans.dedup_us),
        "us",
        spans.live_proposals as usize,
    );
    report.add(
        "session.advance_us_per_obs",
        live.advance_us / live.evaluations.max(1) as f64,
        "us",
        live.evaluations as usize,
    );
}

/// Client round trip minus what the session layer and the durability
/// wait account for, per request.
fn residual_us(rtt_ms: &[f64], live: &inproc::LivePass) -> f64 {
    let rtt_us = rtt_ms.iter().sum::<f64>() * 1e3 / rtt_ms.len() as f64;
    rtt_us - (live.advance_us + live.wait_us) / live.requests as f64
}

/// Fails unless the layer spans cover the session layer's own time within
/// `layers.json`'s tolerance; returns the share they cover.
fn check_coverage(what: &str, layer_us: f64, session_us: f64) -> f64 {
    let doc: LayerDoc = serde_json::from_str(include_str!("../layers.json")).expect("layers.json");
    let coverage = layer_us / session_us;
    assert!(
        (coverage - 1.0).abs() <= doc.coverage_tolerance,
        "layer spans cover {coverage:.3} of {what}, outside 1 ± {}",
        doc.coverage_tolerance
    );
    coverage
}

fn run_steady(args: &Args, root: &Path, report: &mut Report) -> client::Counters {
    let w = args.workload;
    // The traced run attributes time to layers and has no bounds: one set-up
    // and one round are enough, and keep it cheap beside the untraced runs.
    let (setups, rounds) = if args.trace {
        (1, 1)
    } else {
        (STEADY_SETUPS, w.measured_units(args.seconds))
    };
    let (run, client) = drive::steady(args.seed, rounds, root, setups, !args.trace);
    if !args.trace {
        spot_check(w, &run.sessions, &run.outcomes, root);
        steady_end_to_end(&run, report);
        return client.counters;
    }
    let (mirror_dir, live_dir) = (root.join("mirror"), root.join("live"));
    let (spans, traced_wall, trail) =
        inproc::mirror_create(w, &run.sessions, &run.outcomes, &mirror_dir);
    let live = inproc::live_create(w, &run.sessions, &run.outcomes, &live_dir);
    inproc::check_same_files(&live_dir, &live.trail, &mirror_dir, &trail);
    let recovery = inproc::live_recover(
        w,
        &run.sessions,
        &run.outcomes,
        &run.data_dir,
        &root.join("recover"),
    );
    assert_eq!(
        spans.evaluations, run.evaluations,
        "traced replica ran other work than the daemon"
    );
    layer_metrics(report, &spans, spans.evaluations, &live, &recovery);
    group_metrics(report, &run.metrics_json);
    report.add(
        "server.residual_us_per_request",
        residual_us(&run.rtt_ms, &live),
        "us",
        run.rtt_ms.len(),
    );
    let coverage = check_coverage("session time", spans.layer_sum_us(), live.advance_us);
    report.add("trace.coverage", coverage, "ratio", 1);
    let untraced = run.evaluations as f64 / run.usage.wall_s;
    let traced = spans.evaluations as f64 / traced_wall;
    report.add("trace.overhead", traced / untraced, "ratio", 1);
    client.counters
}

fn run_restart(args: &Args, root: &Path, report: &mut Report) -> client::Counters {
    let w = args.workload;
    let (setups, restarts) = if args.trace {
        (1, 1)
    } else {
        (RESTART_SETUPS, w.measured_units(args.seconds))
    };
    let (run, client) = drive::restart(args.seed, restarts, root, setups);
    if !args.trace {
        spot_check(w, &run.sessions, &run.reference, root);
        restart_end_to_end(&run, report);
        return client.counters;
    }
    let (mirror_dir, live_dir) = (root.join("mirror"), root.join("live"));
    let (spans, traced_wall) =
        inproc::mirror_recover(w, &run.sessions, &run.reference, &run.image, &mirror_dir);
    let live = inproc::live_recover(w, &run.sessions, &run.reference, &run.image, &live_dir);
    inproc::check_same_files(&live_dir, &live.trail, &mirror_dir, &[]);
    assert_eq!(
        spans.evaluations, run.resumed_evals,
        "traced replica ran other work than the daemon"
    );
    layer_metrics(
        report,
        &spans,
        spans.evaluations + spans.recovered,
        &live,
        &live,
    );
    group_metrics(report, &run.metrics_json);
    report.add(
        "server.residual_us_per_request",
        residual_us(&run.rtt_ms, &live),
        "us",
        run.rtt_ms.len(),
    );
    let coverage = check_coverage(
        "session time",
        spans.layer_sum_us(),
        live.recover_with_us + live.advance_us,
    );
    report.add("trace.coverage", coverage, "ratio", 1);
    // Recovery on its own too: it is a fifth of the total, so replay the
    // replica performs but `recover_with` skipped would pass the check
    // above.
    let recovery = check_coverage("recovery time", spans.recovery_us, live.recover_with_us);
    println!("  recovery coverage {recovery:.3}");
    let untraced = run.resumed_evals as f64 / run.resume_s.iter().sum::<f64>();
    let traced = spans.evaluations as f64 / traced_wall;
    report.add("trace.overhead", traced / untraced, "ratio", 1);
    client.counters
}

fn main() {
    let args = parse_args();
    provenance(&args);
    let root = PathBuf::from(".bench_data").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create benchmark data dir");
    let _cleanup = Cleanup(root.clone());
    let mut report = Report::new();
    let counters = match args.workload {
        Workload::GpAdvance => run_steady(&args, &root, &mut report),
        Workload::Restart => run_restart(&args, &root, &mut report),
    };
    if !args.trace {
        let success = 1.0 - counters.failed as f64 / counters.attempted as f64;
        report.add(
            "success_rate",
            success,
            "ratio",
            counters.attempted as usize,
        );
        println!(
            "  {} of {} operations failed and were retried",
            counters.failed, counters.attempted
        );
    }
    let out = Output {
        correct: true,
        attempted: counters.attempted,
        failed: counters.failed,
        metrics: report.metrics,
    };
    println!("{}", serde_json::to_string(&out).expect("result json"));
}
