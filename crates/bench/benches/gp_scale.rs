//! Sparse-surrogate backends under Criterion: fixed-kernel fit + batched
//! predict for exact vs SoD vs Nyström at a scale where the `O(n³)` →
//! `O(n·m²)` gap is visible in seconds.
//! The committed proof artifact (`bench_results/gp_scale.json`) comes
//! from the `gp_scale` *bin*; this harness tracks regressions.

use autotune_math::gp::{GaussianProcess, Kernel, KernelKind};
use autotune_math::kmeans::farthest_point_subset;
use autotune_math::lhs::latin_hypercube;
use autotune_math::surrogate::{NystromGp, Surrogate};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const DIM: usize = 8;
const N: usize = 800;
const M: usize = 96;

fn training_data(n: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs = latin_hypercube(n, DIM, rng);
    let ys = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(d, v)| (v * (1.0 + d as f64)).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

fn fixed_kernel() -> Kernel {
    let mut kernel = Kernel::new(KernelKind::Matern52, DIM, 0.4);
    for (d, l) in kernel.length_scales.iter_mut().enumerate() {
        *l = 0.25 + 0.1 * d as f64;
    }
    kernel.noise_variance = 1e-4;
    kernel
}

fn bench_surrogate_fit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let (xs, ys) = training_data(N, &mut rng);
    let kernel = fixed_kernel();
    let idx = farthest_point_subset(&xs, M);
    let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();

    let mut group = c.benchmark_group("surrogate_fit_n800_m96");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| {
            black_box(GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).expect("exact fit"))
        })
    });
    group.bench_function("sod", |b| {
        b.iter(|| {
            let idx = farthest_point_subset(&xs, M);
            let sx: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
            let sy: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
            black_box(GaussianProcess::fit(kernel.clone(), sx, &sy).expect("sod fit"))
        })
    });
    group.bench_function("nystrom", |b| {
        b.iter(|| {
            black_box(
                NystromGp::fit(kernel.clone(), xs.clone(), &ys, zs.clone()).expect("nystrom fit"),
            )
        })
    });
    group.finish();

    let exact = GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).expect("exact fit");
    let ny = NystromGp::fit(kernel, xs.clone(), &ys, zs).expect("nystrom fit");
    let pool = latin_hypercube(200, DIM, &mut rng);
    let mut group = c.benchmark_group("surrogate_predict_n800_m96_pool200");
    group.sample_size(20);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(exact.predict_batch(&pool)))
    });
    group.bench_function("nystrom", |b| {
        b.iter(|| black_box(Surrogate::predict_batch(&ny, &pool)))
    });
    group.finish();
}

criterion_group!(benches, bench_surrogate_fit);
criterion_main!(benches);
