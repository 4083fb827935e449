//! Paired-seed regret of the GP tuners: does a change to the GP path keep
//! the best runtime iTuned and OtterTune reach?
//!
//! Run mode tunes the session mix of perfbench's `gp-advance` workload —
//! iTuned and OtterTune on dbms-oltp (budget 64), dbms-olap (80),
//! hadoop-terasort (96) and spark-agg (112), noiseless, built as the
//! daemon builds them — for seeds `1..=N`, through
//! `SessionExecutor`, and writes one record per session: the default
//! configuration's (probe) runtime, the best runtime, the hyper-parameter
//! searches (fits) and the LML evaluations they spent.
//!
//! Compare mode pairs two run files by (system, tuner, seed) — a parent
//! commit's and a change's — and prints, per (system, tuner) and pooled,
//! the mean of `ln(best_change / best_parent)` with a 95% percentile
//! bootstrap interval, and the non-inferiority verdict at a 2% margin
//! (the interval's upper end below `ln 1.02`).
//!
//! ```text
//! cargo run --release -p autotune-bench --bin gp_regret -- --seeds N --out run.json [--commit ID]
//! cargo run --release -p autotune-bench --bin gp_regret -- --compare parent.json change.json [--out summary.json]
//! ```

use autotune_bench::exec::SessionExecutor;
use autotune_bench::stats::{bootstrap_mean_ci, non_inferior, paired_log_ratios, percent, MeanCi};
use autotune_core::tune;
use autotune_serve::spec::{build_objective, build_tuner, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// (system, budget) of the session mix, in perfbench's order.
const MIX: [(&str, usize); 4] = [
    ("dbms-oltp", 64),
    ("dbms-olap", 80),
    ("hadoop-terasort", 96),
    ("spark-agg", 112),
];

/// The GP tuners, each run on every system.
const TUNERS: [&str; 2] = ["ituned", "ottertune"];

/// Non-inferiority margin on the best runtime.
const MARGIN: f64 = 0.02;

/// Bootstrap resamples per interval.
const RESAMPLES: usize = 10_000;

/// Bootstrap seed (fixed, so a comparison is reproducible).
const BOOTSTRAP_SEED: u64 = 0x5eed_2025;

/// One tuning session's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SessionRecord {
    system: String,
    tuner: String,
    seed: u64,
    budget: usize,
    /// Runtime of the default configuration (s).
    probe_runtime: f64,
    /// Best runtime the session reached (s).
    best_runtime: f64,
    /// Hyper-parameter searches over the session.
    fits: u64,
    /// LML evaluations those searches spent.
    lml_evals: u64,
}

/// A run file.
#[derive(Debug, Serialize, Deserialize)]
struct RunReport {
    /// Commit the run was built from.
    commit: String,
    /// Seeds `1..=seeds` were run.
    seeds: u64,
    records: Vec<SessionRecord>,
}

/// One (system, tuner) row of a comparison, or the pooled row.
#[derive(Debug, Serialize)]
struct PairRow {
    system: String,
    tuner: String,
    seeds: usize,
    /// Mean log ratio of the best runtime (change over parent), with its
    /// 95% bootstrap interval.
    best_log_ratio: MeanCi,
    /// The same three numbers as percentage changes.
    best_change_pct: Vec<f64>,
    /// Whether the interval's upper end is below `ln(1 + MARGIN)`.
    non_inferior: bool,
    /// LML evaluations per hyper-parameter search, parent and change.
    lml_evals_per_search: Vec<f64>,
    /// Mean searches per session, parent and change.
    fits_per_session: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct Comparison {
    parent_commit: String,
    change_commit: String,
    seeds: usize,
    margin: f64,
    resamples: usize,
    pairs: Vec<PairRow>,
    pooled: PairRow,
}

fn usage() -> ! {
    eprintln!(
        "usage: gp_regret --seeds N --out FILE [--commit ID]\n       \
         gp_regret --compare PARENT.json CHANGE.json [--out FILE]"
    );
    std::process::exit(2);
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

fn run_session(system: &str, tuner_name: &str, seed: u64, budget: usize) -> SessionRecord {
    let spec = spec(system, tuner_name, seed, budget);
    let mut objective = build_objective(&spec).expect("known system");
    let mut tuner = build_tuner(&spec, None).expect("known tuner");
    let default = objective.space().default_config();
    let probe = objective.evaluate(&default, &mut StdRng::seed_from_u64(seed));
    let outcome = tune(objective.as_mut(), tuner.as_mut(), budget, seed);
    let stats = tuner.surrogate_stats();
    SessionRecord {
        system: system.into(),
        tuner: tuner_name.into(),
        seed,
        budget,
        probe_runtime: probe.runtime_secs,
        best_runtime: outcome.history.best_runtime(),
        fits: stats.as_ref().map_or(0, |s| s.fits),
        lml_evals: stats.as_ref().map_or(0, |s| s.lml_evals),
    }
}

fn run(seeds: u64, out: &str, commit: String) {
    let mut jobs = Vec::new();
    for seed in 1..=seeds {
        for (system, budget) in MIX {
            for tuner in TUNERS {
                jobs.push(move || run_session(system, tuner, seed, budget));
            }
        }
    }
    let records = SessionExecutor::from_env().run(jobs);
    let report = RunReport {
        commit,
        seeds,
        records,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "gp_regret: {} sessions over {seeds} seeds -> {out}",
        report.records.len()
    );
}

fn load(path: &str) -> RunReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

/// The records of one (system, tuner), in seed order.
fn select<'a>(run: &'a RunReport, system: &str, tuner: &str) -> Vec<&'a SessionRecord> {
    let mut rows: Vec<&SessionRecord> = run
        .records
        .iter()
        .filter(|r| r.system == system && r.tuner == tuner)
        .collect();
    rows.sort_by_key(|r| r.seed);
    rows
}

fn per_search(rows: &[&[&SessionRecord]]) -> f64 {
    let evals: u64 = rows
        .iter()
        .flat_map(|r| r.iter())
        .map(|r| r.lml_evals)
        .sum();
    let fits: u64 = rows.iter().flat_map(|r| r.iter()).map(|r| r.fits).sum();
    evals as f64 / fits.max(1) as f64
}

fn per_session(rows: &[&[&SessionRecord]]) -> f64 {
    let fits: u64 = rows.iter().flat_map(|r| r.iter()).map(|r| r.fits).sum();
    let sessions: usize = rows.iter().map(|r| r.len()).sum();
    fits as f64 / sessions.max(1) as f64
}

fn row(
    system: &str,
    tuner: &str,
    deltas: &[&[f64]],
    parent: &[&[&SessionRecord]],
    change: &[&[&SessionRecord]],
) -> PairRow {
    let ci = bootstrap_mean_ci(deltas, 0.95, RESAMPLES, BOOTSTRAP_SEED);
    PairRow {
        system: system.into(),
        tuner: tuner.into(),
        seeds: deltas[0].len(),
        best_log_ratio: ci,
        best_change_pct: vec![percent(ci.mean), percent(ci.lo), percent(ci.hi)],
        non_inferior: non_inferior(&ci, MARGIN),
        lml_evals_per_search: vec![per_search(parent), per_search(change)],
        fits_per_session: vec![per_session(parent), per_session(change)],
    }
}

fn compare(parent_path: &str, change_path: &str, out: Option<&str>) {
    let (parent, change) = (load(parent_path), load(change_path));
    let mut pairs = Vec::new();
    let mut all_deltas = Vec::new();
    let mut all_parent = Vec::new();
    let mut all_change = Vec::new();
    for (system, _) in MIX {
        for tuner in TUNERS {
            let p = select(&parent, system, tuner);
            let c = select(&change, system, tuner);
            let seeds: Vec<u64> = p.iter().map(|r| r.seed).collect();
            assert!(!seeds.is_empty(), "{system}/{tuner}: no sessions");
            assert_eq!(
                seeds,
                c.iter().map(|r| r.seed).collect::<Vec<_>>(),
                "{system}/{tuner}: the two runs cover different seeds"
            );
            let best =
                |rows: &[&SessionRecord]| rows.iter().map(|r| r.best_runtime).collect::<Vec<_>>();
            let deltas = paired_log_ratios(&best(&p), &best(&c));
            pairs.push(row(system, tuner, &[&deltas], &[&p], &[&c]));
            all_deltas.push(deltas);
            all_parent.push(p);
            all_change.push(c);
        }
    }
    let strata: Vec<&[f64]> = all_deltas.iter().map(Vec::as_slice).collect();
    let parents: Vec<&[&SessionRecord]> = all_parent.iter().map(Vec::as_slice).collect();
    let changes: Vec<&[&SessionRecord]> = all_change.iter().map(Vec::as_slice).collect();
    let pooled = row("pooled", "all", &strata, &parents, &changes);
    let report = Comparison {
        parent_commit: parent.commit.clone(),
        change_commit: change.commit.clone(),
        seeds: pooled.seeds,
        margin: MARGIN,
        resamples: RESAMPLES,
        pairs,
        pooled,
    };
    println!(
        "gp_regret: best runtime, change {} over parent {}, {} paired seeds, 95% bootstrap CI",
        report.change_commit, report.parent_commit, report.seeds
    );
    println!(
        "{:<16} {:<10} {:>9} {:>22} {:>13} {:>16}",
        "system", "tuner", "mean %", "CI %", "non-inferior", "evals/search"
    );
    for r in report.pairs.iter().chain(std::iter::once(&report.pooled)) {
        let (mean, lo, hi) = (
            r.best_change_pct[0],
            r.best_change_pct[1],
            r.best_change_pct[2],
        );
        println!(
            "{:<16} {:<10} {:>+9.3} {:>22} {:>13} {:>16}",
            r.system,
            r.tuner,
            mean,
            format!("[{lo:+.3}, {hi:+.3}]"),
            r.non_inferior,
            format!(
                "{:.1} -> {:.1}",
                r.lml_evals_per_search[0], r.lml_evals_per_search[1]
            ),
        );
    }
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&report).expect("serializable report");
        std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(parent), Some(change)) = (args.get(i + 1), args.get(i + 2)) else {
            usage()
        };
        compare(parent, change, value("--out").as_deref());
        return;
    }
    let seeds = value("--seeds")
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| usage());
    let out = value("--out").unwrap_or_else(|| usage());
    run(
        seeds,
        &out,
        value("--commit").unwrap_or_else(autotune_bench::git_commit),
    );
}
