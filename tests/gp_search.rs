//! Quality guard for the GP hyper-parameter search: on a fixed corpus of
//! session histories, the gradient-based search behind
//! `GaussianProcess::fit_auto` must reach a log marginal likelihood (LML)
//! at least as high as a reference Nelder–Mead search, within
//! `1e-6 · (1 + |LML|)`.
//!
//! The corpus is seeded random-search histories of the four simulated
//! systems, cut at n ∈ {20, 40, 64, 96, 112} observations, with log
//! runtimes as targets (what the GP tuners fit). Each prefix is searched
//! cold (three fixed starts) and warm (from the θ of the cold fit five
//! observations earlier, plus one cold start: the path a tuner's cached
//! surrogate takes). The reference is the search `fit_auto` used before:
//! Nelder–Mead from the same three cold starts, 120 iterations, tolerance
//! 1e-7, scored through `GaussianProcess::fit(..).log_marginal_likelihood()`.

use autotune::core::{tune, Objective};
use autotune::math::gp::{GaussianProcess, Kernel, KernelKind};
use autotune::math::stats::std_dev;
use autotune::prelude::*;

/// Builds a fresh simulated system.
type MakeObjective = fn() -> Box<dyn Objective>;

/// Prefix lengths of each history in the corpus.
const SIZES: [usize; 5] = [20, 40, 64, 96, 112];

/// Observations between a warm start's fit and the fit it seeds.
const WARM_GAP: usize = 5;

/// Nelder–Mead simplex minimization of `f` from `x0` (reflection 1,
/// expansion 2, contraction 0.5, shrink 0.5); `scale` sets the initial
/// simplex edge, and the run stops after `max_iter` iterations or once the
/// simplex's value spread is within `tol · (1 + |best|)`. Returns the best
/// point and value.
fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    scale: f64,
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, f64) {
    let dim = x0.len();
    let mut eval = |x: &[f64]| {
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    let mut simplex: Vec<(Vec<f64>, f64)> = vec![(x0.to_vec(), eval(x0))];
    for d in 0..dim {
        let mut x = x0.to_vec();
        x[d] += if x[d].abs() > 1e-12 {
            scale * x[d].abs()
        } else {
            scale
        };
        let v = eval(&x);
        simplex.push((x, v));
    }
    for _ in 0..max_iter {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (best, worst) = (simplex[0].1, simplex[dim].1);
        if (worst - best).abs() <= tol * (1.0 + best.abs()) {
            break;
        }
        let mut centroid = vec![0.0; dim];
        for (x, _) in simplex.iter().take(dim) {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / dim as f64;
            }
        }
        let worst_x = simplex[dim].0.clone();
        let toward = |t: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&worst_x)
                .map(|(c, w)| c + t * (c - w))
                .collect()
        };
        let reflect = toward(1.0);
        let fr = eval(&reflect);
        if fr < simplex[0].1 {
            let expand = toward(2.0);
            let fe = eval(&expand);
            simplex[dim] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < simplex[dim - 1].1 {
            simplex[dim] = (reflect, fr);
        } else {
            let contract = toward(-0.5);
            let fc = eval(&contract);
            if fc < simplex[dim].1 {
                simplex[dim] = (contract, fc);
            } else {
                let best_x = simplex[0].0.clone();
                for item in simplex.iter_mut().skip(1) {
                    let x: Vec<f64> = best_x
                        .iter()
                        .zip(&item.0)
                        .map(|(b, xi)| b + 0.5 * (xi - b))
                        .collect();
                    let v = eval(&x);
                    *item = (x, v);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    simplex.swap_remove(0)
}

/// The isotropic Matérn-5/2 kernel at θ = (ln ℓ, ln σf², ln σn²), clamped
/// into the search box.
fn kernel_at(dim: usize, theta: &[f64]) -> Kernel {
    let mut k = Kernel::new(KernelKind::Matern52, dim, theta[0].exp().clamp(1e-3, 1e3));
    k.signal_variance = theta[1].exp().clamp(1e-8, 1e6);
    k.noise_variance = theta[2].exp().clamp(1e-10, 1e4);
    k
}

/// The reference search's best LML: three Nelder–Mead starts.
fn nelder_mead_lml(xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let dim = xs[0].len();
    let var = std_dev(ys).max(1e-6).powi(2);
    let neg_lml = |theta: &[f64]| {
        GaussianProcess::fit(kernel_at(dim, theta), xs.to_vec(), ys)
            .map_or(f64::INFINITY, |gp| -gp.log_marginal_likelihood())
    };
    [(0.2f64, 0.01), (0.5, 0.1), (1.5, 0.001)]
        .iter()
        .map(|&(length, noise)| {
            let start = [length.ln(), var.ln(), (var * noise).ln()];
            -nelder_mead(neg_lml, &start, 0.4, 120, 1e-7).1
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// One system's history: its default run plus seeded random
/// configurations, as encoded points and log runtimes.
fn history(mut objective: Box<dyn Objective>, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = SIZES[SIZES.len() - 1];
    let outcome = tune(objective.as_mut(), &mut RandomSearchTuner, n, seed);
    let (xs, runtimes) = outcome.history.training_set(objective.space());
    (xs, runtimes.iter().map(|r| r.ln()).collect())
}

/// Checks one system's prefixes; returns the number of fits, how many
/// ended strictly above the reference, and the LML evaluations the cold
/// and the warm searches spent.
fn check_system(label: &str, objective: Box<dyn Objective>, seed: u64) -> (usize, usize, [u64; 2]) {
    let (xs, ys) = history(objective, seed);
    let (mut entries, mut above, mut evals) = (0, 0, [0, 0]);
    for n in SIZES {
        let (x, y) = (&xs[..n], &ys[..n]);
        let reference = nelder_mead_lml(x, y);
        let tol = 1e-6 * (1.0 + reference.abs());
        let cold =
            GaussianProcess::fit_auto(KernelKind::Matern52, x.to_vec(), y).expect("cold fit");
        let m = n - WARM_GAP;
        let earlier = GaussianProcess::fit_auto(KernelKind::Matern52, xs[..m].to_vec(), &ys[..m])
            .expect("earlier fit");
        let warm = GaussianProcess::fit_auto_from(
            KernelKind::Matern52,
            x.to_vec(),
            y,
            Some(earlier.kernel()),
        )
        .expect("warm fit");
        for (path, gp) in [("cold", &cold), ("warm", &warm)] {
            let lml = gp.log_marginal_likelihood();
            assert!(
                lml >= reference - tol,
                "{label} n={n} {path}: LML {lml} below Nelder–Mead's {reference}"
            );
            entries += 1;
            above += usize::from(lml > reference);
            evals[usize::from(path == "warm")] += gp.lml_evals();
        }
    }
    (entries, above, evals)
}

#[test]
fn search_reaches_nelder_mead_lml_on_the_corpus() {
    let systems: [(&str, MakeObjective); 4] = [
        ("dbms-oltp", || Box::new(DbmsSimulator::oltp_default())),
        ("dbms-olap", || Box::new(DbmsSimulator::olap_default())),
        ("hadoop-terasort", || {
            Box::new(HadoopSimulator::terasort_default())
        }),
        ("spark-agg", || {
            Box::new(SparkSimulator::aggregation_default())
        }),
    ];
    let results: Vec<(usize, usize, [u64; 2])> = std::thread::scope(|scope| {
        let handles: Vec<_> = systems
            .iter()
            .enumerate()
            .map(|(k, &(label, make))| {
                scope.spawn(move || check_system(label, make(), 11 + k as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("corpus check"))
            .collect()
    });
    let entries: usize = results.iter().map(|r| r.0).sum();
    let above: usize = results.iter().map(|r| r.1).sum();
    let per_search =
        |path: usize| results.iter().map(|r| r.2[path]).sum::<u64>() as f64 / (entries / 2) as f64;
    assert_eq!(entries, 2 * SIZES.len() * systems.len());
    eprintln!(
        "gp search corpus: {entries} fits, {above} strictly above Nelder–Mead; \
         LML evaluations per search: {:.1} cold, {:.1} warm",
        per_search(0),
        per_search(1)
    );
}
