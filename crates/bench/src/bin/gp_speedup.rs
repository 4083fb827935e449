//! Proof artifact for the batched GP inference layer: times per-point
//! `predict` against `predict_batch` over a grid of training-set and
//! candidate-pool sizes, verifies the two paths agree exactly, and writes
//! `bench_results/gp_speedup.json`.
//! `cargo run --release -p autotune-bench --bin gp_speedup [dim] [seed]`
//!
//! Runs single-threaded by construction: it calls `predict_batch`
//! directly, below the spare-core chunking layer, so the reported
//! speedup is the algorithmic one (shared cross-covariance + multi-RHS
//! solve), not thread parallelism.

use autotune_math::gp::{GaussianProcess, Kernel, KernelKind};
use autotune_math::lhs::latin_hypercube;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct GridPoint {
    /// Training-set size.
    n: usize,
    /// Candidate-pool size.
    pool: usize,
    /// Best-of-repeats wall clock for the per-point `predict` loop (s).
    per_point_secs: f64,
    /// Best-of-repeats wall clock for one `predict_batch` call (s).
    batched_secs: f64,
    /// per_point / batched.
    speedup: f64,
    /// Max |difference| between the two paths' means and variances
    /// (expected to be exactly 0.0 — the batch path is bit-identical).
    max_abs_diff: f64,
}

#[derive(Serialize)]
struct GpSpeedupReport {
    /// Input dimensionality of the synthetic tuning surface.
    dim: usize,
    /// Kernel family used for the measurements.
    kernel: String,
    grid: Vec<GridPoint>,
    /// Speedup at the acceptance point (n = 200, pool = 400).
    speedup_at_200_400: f64,
}

/// Best-of-`reps` wall clock of `f`, with the result kept alive.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let dim = arg_or(1, 8usize).max(1);
    let seed = arg_or(2, 42u64);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut grid = Vec::new();
    let mut speedup_at_200_400 = 0.0;
    for &n in &[50usize, 200, 500] {
        // A fixed, representative kernel: the proof measures inference,
        // not hyper-parameter search, so no fit_auto here.
        let mut kernel = Kernel::new(KernelKind::Matern52, dim, 0.4);
        for (d, l) in kernel.length_scales.iter_mut().enumerate() {
            *l = 0.25 + 0.1 * d as f64;
        }
        kernel.noise_variance = 1e-4;
        let xs = latin_hypercube(n, dim, &mut rng);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                x.iter()
                    .enumerate()
                    .map(|(d, v)| (v * (1.0 + d as f64)).sin())
                    .sum()
            })
            .collect();
        let gp = GaussianProcess::fit(kernel, xs, &ys).expect("synthetic GP fits");

        for &pool_size in &[100usize, 400, 1000] {
            let pool = latin_hypercube(pool_size, dim, &mut rng);
            let reps = (2_000_000 / (n * pool_size)).clamp(3, 50);
            let per_point_secs = best_of(reps, || {
                pool.iter().map(|p| gp.predict(p)).collect::<Vec<_>>()
            });
            let batched_secs = best_of(reps, || gp.predict_batch(&pool));

            let scalar: Vec<(f64, f64)> = pool.iter().map(|p| gp.predict(p)).collect();
            let batched = gp.predict_batch(&pool);
            let max_abs_diff = scalar
                .iter()
                .zip(&batched)
                .map(|((m1, v1), (m2, v2))| (m1 - m2).abs().max((v1 - v2).abs()))
                .fold(0.0f64, f64::max);

            let speedup = per_point_secs / batched_secs.max(1e-12);
            eprintln!(
                "n={n:4} pool={pool_size:5}: per-point={:.3}ms batched={:.3}ms \
                 speedup={speedup:.2}x max_diff={max_abs_diff:e}",
                per_point_secs * 1e3,
                batched_secs * 1e3,
            );
            if n == 200 && pool_size == 400 {
                speedup_at_200_400 = speedup;
            }
            grid.push(GridPoint {
                n,
                pool: pool_size,
                per_point_secs,
                batched_secs,
                speedup,
                max_abs_diff,
            });
        }
    }

    let report = GpSpeedupReport {
        dim,
        kernel: "matern52-ard".into(),
        grid,
        speedup_at_200_400,
    };
    for g in &report.grid {
        assert_eq!(
            g.max_abs_diff, 0.0,
            "batched predictions must be bit-identical to per-point \
             (n={}, pool={})",
            g.n, g.pool
        );
    }
    assert!(
        report.speedup_at_200_400 >= 3.0,
        "expected >=3x batched speedup at n=200/pool=400, got {:.2}x",
        report.speedup_at_200_400
    );
    println!(
        "gp batched inference: {:.2}x at n=200/pool=400 (all {} grid points bit-identical)",
        report.speedup_at_200_400,
        report.grid.len()
    );
    autotune_bench::write_json("gp_speedup", &report);
    eprintln!("wrote bench_results/gp_speedup.json");
}

fn arg_or<T: std::str::FromStr>(i: usize, default: T) -> T {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
