//! Proof artifact for the execution layer: measures the parallel-vs-
//! sequential wall-clock ratio on a real Table 1 workload and checks that
//! both paths produce identical JSON.
//!
//! One Table 1 run is short enough that a single ratio is mostly noise,
//! so the run is repeated as [`PAIRS`] sequential/parallel pairs, the
//! order alternating from pair to pair, at a budget where one sequential
//! run takes about half a second on 2 cores. The report gives the median
//! speedup with its minimum and maximum; every pair must produce
//! identical JSON.
//!
//! `cargo run --release -p autotune-bench --bin exec_speedup [budget] [seed]`
//!
//! A malformed or extra argument is refused with a one-line message.

use autotune_bench::exec::SessionExecutor;
use autotune_bench::table1;
use autotune_math::stats::median;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Sequential/parallel pairs timed.
const PAIRS: usize = 7;

#[derive(Serialize)]
struct ExecSpeedupReport {
    /// Cores the machine reports (available parallelism).
    cores: usize,
    /// Worker threads the parallel run used.
    parallel_threads: usize,
    /// Table 1 budget of every run.
    budget: usize,
    /// Table 1 seed of every run.
    seed: u64,
    /// Sequential/parallel pairs timed.
    pairs: usize,
    /// Median wall clock of the sequential Table 1 runs (s).
    sequential_secs: f64,
    /// Median wall clock of the parallel Table 1 runs (s).
    parallel_secs: f64,
    /// Median over pairs of sequential / parallel.
    speedup: f64,
    /// Smallest pair speedup.
    speedup_min: f64,
    /// Largest pair speedup.
    speedup_max: f64,
    /// Every pair's speedup, in run order.
    speedups: Vec<f64>,
    /// Whether every pair's parallel report is
    /// byte-identical to its sequential one.
    identical_json: bool,
}

/// Wall clock of one Table 1 run, and its JSON.
fn timed_run(exec: &SessionExecutor, budget: usize, seed: u64) -> (f64, String) {
    let t0 = Instant::now();
    let (report, _) = table1::run_with(exec, budget, seed);
    let secs = t0.elapsed().as_secs_f64();
    (
        secs,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
}

/// `[budget] [seed]`, defaulting to 60 and 3.
fn parse_args(args: &[String]) -> Result<(usize, u64), String> {
    if let Some(extra) = args.get(2) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let budget = args.first().map_or(Ok(60), |v| {
        v.parse()
            .map_err(|_| format!("budget expects a number, got '{v}'"))
    })?;
    let seed = args.get(1).map_or(Ok(3), |v| {
        v.parse()
            .map_err(|_| format!("seed expects a number, got '{v}'"))
    })?;
    Ok((budget, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (budget, seed) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("exec_speedup: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let seq_exec = SessionExecutor::with_threads(1);
    let par_exec = SessionExecutor::from_env();
    let parallel_threads = par_exec.threads();
    let (mut seq_secs, mut par_secs, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let mut identical_json = true;
    for pair in 0..PAIRS {
        eprintln!(
            "pair {}/{PAIRS}: Table 1 (budget={budget}, seed={seed}), sequential and {parallel_threads} threads…",
            pair + 1
        );
        // Alternate which side runs first, so drift in the machine's
        // speed over the run does not favour one side.
        let (seq, par) = if pair.is_multiple_of(2) {
            let seq = timed_run(&seq_exec, budget, seed);
            (seq, timed_run(&par_exec, budget, seed))
        } else {
            let par = timed_run(&par_exec, budget, seed);
            (timed_run(&seq_exec, budget, seed), par)
        };
        identical_json &= seq.1 == par.1;
        speedups.push(seq.0 / par.0.max(1e-9));
        seq_secs.push(seq.0);
        par_secs.push(par.0);
    }
    let speedup = median(&speedups);

    let report = ExecSpeedupReport {
        cores,
        parallel_threads,
        budget,
        seed,
        pairs: PAIRS,
        sequential_secs: median(&seq_secs),
        parallel_secs: median(&par_secs),
        speedup,
        speedup_min: speedups.iter().copied().fold(f64::INFINITY, f64::min),
        speedup_max: speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        speedups,
        identical_json,
    };
    println!(
        "cores={} threads={} pairs={} median sequential={:.2}s parallel={:.2}s speedup={:.2}x (min {:.2}x, max {:.2}x) identical_json={}",
        report.cores,
        report.parallel_threads,
        report.pairs,
        report.sequential_secs,
        report.parallel_secs,
        report.speedup,
        report.speedup_min,
        report.speedup_max,
        report.identical_json,
    );
    assert!(
        report.identical_json,
        "every parallel report must match its sequential report byte-for-byte"
    );
    if cores >= 4 {
        assert!(
            report.speedup >= 2.0,
            "expected a median >=2x wall-clock speedup on {cores} cores, got {:.2}x",
            report.speedup
        );
    }
    autotune_bench::write_json("exec_speedup", &report);
    eprintln!("wrote bench_results/exec_speedup.json");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_and_positional_numbers_parse() {
        assert_eq!(parse_args(&[]), Ok((60, 3)));
        assert_eq!(parse_args(&args(&["40"])), Ok((40, 3)));
        assert_eq!(parse_args(&args(&["40", "7"])), Ok((40, 7)));
    }

    #[test]
    fn malformed_or_extra_arguments_are_refused() {
        assert_eq!(
            parse_args(&args(&["abc"])),
            Err("budget expects a number, got 'abc'".to_string())
        );
        assert_eq!(
            parse_args(&args(&["40", "-1"])),
            Err("seed expects a number, got '-1'".to_string())
        );
        assert_eq!(
            parse_args(&args(&["40", "7", "9"])),
            Err("unexpected argument '9'".to_string())
        );
    }
}
