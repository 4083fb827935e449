//! Proof artifact for the sub-cubic GP surrogate backends. Two parts:
//!
//! * **Scale** — fixed-kernel fit + predict wall clock of the exact GP
//!   vs subset-of-data (SoD) and Nyström at n = 1k/3k/10k. The sparse
//!   backends hold a budget of m inducing/active points, so fit drops
//!   from `O(n³)` to `O(n·m²)` and predict from `O(n²)` to `O(m²)` per
//!   query. Each backend's mean is scored against the true function
//!   (the exact GP's own error is the yardstick) and against the exact
//!   GP's mean.
//! * **Regret** — iTuned on the analytics trio (dbms-olap,
//!   hadoop-terasort, spark-agg) with each backend forced, small m; the
//!   sparse backends' best-found runtime must stay within 5 % of exact.
//!
//! Warm-start lookup is not measured here: it runs when a session is
//! created and when drift re-matches an epoch, never per advance, over
//! signatures of at most 26 metrics, and `serve::repo` serves it with a
//! plain scan (see its module docs for the scan-vs-tree numbers).
//!
//! `cargo run --release -p autotune-bench --bin gp_scale [--smoke]`
//!
//! `--smoke` shrinks every dimension for CI (seconds, no assertions on
//! the speedup floor, which needs real n to show).

use autotune_core::{tune, Objective};
use autotune_math::gp::{GaussianProcess, Kernel, KernelKind};
use autotune_math::kmeans::farthest_point_subset;
use autotune_math::lhs::latin_hypercube;
use autotune_math::surrogate::{NystromGp, Surrogate, SurrogateConfig};
use autotune_sim::{DbmsSimulator, HadoopSimulator, NoiseModel, SparkSimulator};
use autotune_tuners::experiment::ITunedTuner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 8;

#[derive(Serialize)]
struct ScalePoint {
    /// Training-set size.
    n: usize,
    /// Sparse budget m (inducing / active points).
    m: usize,
    /// Exact GP: Cholesky fit seconds (best of reps).
    exact_fit_secs: f64,
    /// Exact GP: batched predict seconds over the query pool.
    exact_predict_secs: f64,
    /// SoD: subset selection + exact fit over the subset.
    sod_fit_secs: f64,
    /// SoD: batched predict seconds.
    sod_predict_secs: f64,
    /// Nyström: Kmm/Knm assembly + factorizations.
    nystrom_fit_secs: f64,
    /// Nyström: batched predict seconds.
    nystrom_predict_secs: f64,
    /// (exact fit+predict) / (sod fit+predict).
    sod_speedup: f64,
    /// (exact fit+predict) / (nystrom fit+predict).
    nystrom_speedup: f64,
    /// RMSE of SoD means vs exact means over the pool.
    sod_rmse: f64,
    /// RMSE of Nyström means vs exact means over the pool.
    nystrom_rmse: f64,
    /// RMSE of exact means vs the true function over the pool.
    exact_truth_rmse: f64,
    /// RMSE of SoD means vs the true function over the pool.
    sod_truth_rmse: f64,
    /// RMSE of Nyström means vs the true function over the pool.
    nystrom_truth_rmse: f64,
}

#[derive(Serialize)]
struct RegretRow {
    /// Target system.
    system: String,
    /// Mean best runtime over seeds, exact backend.
    exact_best: f64,
    /// Mean best runtime over seeds, SoD backend.
    sod_best: f64,
    /// Mean best runtime over seeds, Nyström backend.
    nystrom_best: f64,
    /// (sod − exact) / exact.
    sod_delta: f64,
    /// (nystrom − exact) / exact.
    nystrom_delta: f64,
}

#[derive(Serialize)]
struct GpScaleReport {
    dim: usize,
    kernel: String,
    smoke: bool,
    scale: Vec<ScalePoint>,
    /// min(sod, nystrom) fit+predict speedup at the largest n.
    speedup_at_max_n: f64,
    regret: Vec<RegretRow>,
    /// Worst sparse-vs-exact regret delta across systems and backends.
    regret_delta_max: f64,
}

/// Runs `f` `reps` times (at least once); returns the best wall-clock
/// seconds and the last result, so a timed fit also yields its model.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one rep"))
}

fn fixed_kernel() -> Kernel {
    let mut kernel = Kernel::new(KernelKind::Matern52, DIM, 0.4);
    for (d, l) in kernel.length_scales.iter_mut().enumerate() {
        *l = 0.25 + 0.1 * d as f64;
    }
    kernel.noise_variance = 1e-4;
    kernel
}

fn synthetic(xs: &[Vec<f64>]) -> Vec<f64> {
    xs.iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(d, v)| (v * (1.0 + d as f64)).sin())
                .sum()
        })
        .collect()
}

/// RMSE of predicted means against `target` values.
fn rmse(preds: &[(f64, f64)], target: &[f64]) -> f64 {
    let se: f64 = preds
        .iter()
        .zip(target)
        .map(|((m, _), t)| (m - t) * (m - t))
        .sum();
    (se / preds.len() as f64).sqrt()
}

fn scale_point(n: usize, m: usize, pool_size: usize, rng: &mut StdRng) -> ScalePoint {
    let kernel = fixed_kernel();
    let xs = latin_hypercube(n, DIM, rng);
    let ys = synthetic(&xs);
    let pool = latin_hypercube(pool_size, DIM, rng);
    let truth = synthetic(&pool);
    let reps = if n <= 1000 { 3 } else { 1 };

    let (exact_fit_secs, exact) = best_of(reps, || {
        GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).expect("exact fit")
    });
    let (exact_predict_secs, exact_preds) = best_of(reps, || exact.predict_batch(&pool));
    let exact_means: Vec<f64> = exact_preds.iter().map(|(m, _)| *m).collect();

    let (sod_fit_secs, (idx, sod)) = best_of(reps, || {
        let idx = farthest_point_subset(&xs, m);
        let sx: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let sy: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let gp = GaussianProcess::fit(kernel.clone(), sx, &sy).expect("sod fit");
        (idx, gp)
    });
    let (sod_predict_secs, sod_preds) = best_of(reps.max(3), || sod.predict_batch(&pool));

    let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
    let (nystrom_fit_secs, ny) = best_of(reps, || {
        NystromGp::fit(kernel.clone(), xs.clone(), &ys, zs.clone()).expect("nystrom fit")
    });
    let (nystrom_predict_secs, ny_preds) =
        best_of(reps.max(3), || Surrogate::predict_batch(&ny, &pool));

    let exact_total = exact_fit_secs + exact_predict_secs;
    let point = ScalePoint {
        n,
        m,
        exact_fit_secs,
        exact_predict_secs,
        sod_fit_secs,
        sod_predict_secs,
        nystrom_fit_secs,
        nystrom_predict_secs,
        sod_speedup: exact_total / (sod_fit_secs + sod_predict_secs).max(1e-12),
        nystrom_speedup: exact_total / (nystrom_fit_secs + nystrom_predict_secs).max(1e-12),
        sod_rmse: rmse(&sod_preds, &exact_means),
        nystrom_rmse: rmse(&ny_preds, &exact_means),
        exact_truth_rmse: rmse(&exact_preds, &truth),
        sod_truth_rmse: rmse(&sod_preds, &truth),
        nystrom_truth_rmse: rmse(&ny_preds, &truth),
    };
    eprintln!(
        "n={n:6} m={m}: exact fit={:.2}s predict={:.3}s truth-rmse={:.3} | sod {:.1}x rmse={:.3} truth-rmse={:.3} | nystrom {:.1}x rmse={:.3} truth-rmse={:.3}",
        exact_fit_secs,
        exact_predict_secs,
        point.exact_truth_rmse,
        point.sod_speedup,
        point.sod_rmse,
        point.sod_truth_rmse,
        point.nystrom_speedup,
        point.nystrom_rmse,
        point.nystrom_truth_rmse,
    );
    point
}

/// A factory producing a fresh noiseless objective per tuning run.
type MakeObjective = Box<dyn Fn() -> Box<dyn Objective>>;

/// Mean best runtime over seeds for one backend on one system.
fn tuned_best(
    make: &dyn Fn() -> Box<dyn Objective>,
    cfg: SurrogateConfig,
    budget: usize,
    seeds: &[u64],
) -> f64 {
    let mut total = 0.0;
    for &seed in seeds {
        let mut obj = make();
        let mut tuner = ITunedTuner::new().with_surrogate(cfg);
        let out = tune(obj.as_mut(), &mut tuner, budget, seed);
        total += out.best.expect("tuned run has a best").runtime_secs;
    }
    total / seeds.len() as f64
}

fn regret_rows(budget: usize, m: usize, seeds: &[u64]) -> Vec<RegretRow> {
    let systems: Vec<(&str, MakeObjective)> = vec![
        (
            "dbms-olap",
            Box::new(|| Box::new(DbmsSimulator::olap_default().with_noise(NoiseModel::none()))),
        ),
        (
            "hadoop-terasort",
            Box::new(|| {
                Box::new(HadoopSimulator::terasort_default().with_noise(NoiseModel::none()))
            }),
        ),
        (
            "spark-agg",
            Box::new(|| {
                Box::new(SparkSimulator::aggregation_default().with_noise(NoiseModel::none()))
            }),
        ),
    ];
    systems
        .iter()
        .map(|(name, make)| {
            let exact_best = tuned_best(make, SurrogateConfig::exact(), budget, seeds);
            let sod_best = tuned_best(make, SurrogateConfig::sod(m), budget, seeds);
            let nystrom_best = tuned_best(make, SurrogateConfig::nystrom(m), budget, seeds);
            let row = RegretRow {
                system: name.to_string(),
                exact_best,
                sod_best,
                nystrom_best,
                sod_delta: (sod_best - exact_best) / exact_best,
                nystrom_delta: (nystrom_best - exact_best) / exact_best,
            };
            eprintln!(
                "{name}: exact={exact_best:.4} sod={sod_best:.4} ({:+.2}%) nystrom={nystrom_best:.4} ({:+.2}%)",
                row.sod_delta * 100.0,
                row.nystrom_delta * 100.0,
            );
            row
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rng = StdRng::seed_from_u64(42);

    let (ns, m, pool) = if smoke {
        (vec![200usize, 400], 64, 50)
    } else {
        (vec![1_000usize, 3_000, 10_000], 256, 200)
    };
    let scale: Vec<ScalePoint> = ns
        .iter()
        .map(|&n| scale_point(n, m, pool, &mut rng))
        .collect();
    let last = scale.last().expect("at least one scale point");
    let speedup_at_max_n = last.sod_speedup.min(last.nystrom_speedup);

    let (budget, regret_m, seeds): (usize, usize, Vec<u64>) = if smoke {
        (14, 8, vec![1])
    } else {
        // m = 32 of a 40-step budget: small enough that both sparse paths
        // genuinely engage on every refit past the threshold, large enough
        // that Nyström's clamped variance doesn't starve EI exploration
        // (m = 16 loses up to ~30% on hadoop-terasort).
        (40, 32, vec![1, 2, 3])
    };
    let regret = regret_rows(budget, regret_m, &seeds);
    let regret_delta_max = regret
        .iter()
        .flat_map(|r| [r.sod_delta, r.nystrom_delta])
        .fold(f64::NEG_INFINITY, f64::max);

    let report = GpScaleReport {
        dim: DIM,
        kernel: "matern52-ard".into(),
        smoke,
        scale,
        speedup_at_max_n,
        regret,
        regret_delta_max,
    };

    if !smoke {
        assert!(
            report.speedup_at_max_n >= 10.0,
            "expected >=10x sparse fit+predict speedup at n=10k, got {:.1}x",
            report.speedup_at_max_n
        );
        assert!(
            report.regret_delta_max <= 0.05,
            "sparse regret delta {:.3} exceeds 5%",
            report.regret_delta_max
        );
    }
    println!(
        "gp_scale: {:.1}x sparse speedup at n={}, worst regret delta {:+.2}%",
        report.speedup_at_max_n,
        report.scale.last().map(|p| p.n).unwrap_or(0),
        report.regret_delta_max * 100.0,
    );
    autotune_bench::write_json("gp_scale", &report);
    eprintln!("wrote bench_results/gp_scale.json");
}
