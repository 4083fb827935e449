//! The kernel-row contract through the public API: every entry of
//! `Kernel::cross_covariance` is `Kernel::eval` of its pair, bit for bit,
//! and `predict_batch` is `predict` at every query, for isotropic and ARD
//! kernels of both kinds. The shapes leave ragged vector tails (widths
//! that are not a multiple of 4 or 8), the length scales run from 1e-3
//! to 1e3, and the queries include duplicates of training points and
//! near-duplicates, so the kernel's `exp` sees 0, arguments below 2⁻⁵⁴,
//! arguments beyond −512 and subnormal results.

use autotune::math::gp::{GaussianProcess, Kernel, KernelKind};

/// A deterministic point in `[0, 1)^dim`.
fn point(dim: usize, salt: usize) -> Vec<f64> {
    (0..dim)
        .map(|d| ((salt * 31 + d * 17) as f64 * 0.618_033_988_749_895).fract())
        .collect()
}

/// `n` training points and a query set of width `m` built around them:
/// exact duplicates, points a hair away (1e-13), points a fixed step away
/// in one coordinate, and fresh points.
fn points(dim: usize, n: usize, m: usize, step: f64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..n).map(|i| point(dim, i)).collect();
    let qs = (0..m)
        .map(|j| {
            let mut q = xs[j % n].clone();
            match j % 4 {
                0 => {}
                1 => q[0] += 1e-13,
                2 => q[dim - 1] += step,
                _ => q = point(dim, 1000 + j),
            }
            q
        })
        .collect();
    (xs, qs)
}

fn kernels(dim: usize) -> Vec<Kernel> {
    let mut out = Vec::new();
    for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
        for ls in [1e-3, 0.3, 1e3] {
            let mut k = Kernel::new(kind, dim, ls);
            k.signal_variance = 1.7;
            k.noise_variance = 1e-3;
            out.push(k);
        }
        // ARD: scales spread over 1e-3..1e3 across the dimensions.
        let mut k = Kernel::new(kind, dim, 1.0);
        for (d, l) in k.length_scales.iter_mut().enumerate() {
            *l = 10f64.powf(-3.0 + 6.0 * d as f64 / (dim.max(2) - 1) as f64);
        }
        k.signal_variance = 0.8;
        k.noise_variance = 1e-3;
        out.push(k);
    }
    out
}

#[test]
fn cross_covariance_equals_eval_bitwise() {
    let (mut subnormal, mut underflow, mut unit_but_apart) = (0, 0, 0);
    for dim in [1usize, 5, 12] {
        for (n, m) in [(1usize, 1usize), (3, 5), (7, 13), (9, 23), (16, 33)] {
            // Steps chosen so that at ℓ = 1e-3 the squared exponential
            // (0.0381) and Matérn-5/2 (0.325) land in the subnormal range.
            for step in [0.0381, 0.325] {
                let (xs, qs) = points(dim, n, m, step);
                for kernel in kernels(dim) {
                    let k = kernel.cross_covariance(&xs, &qs);
                    for (i, x) in xs.iter().enumerate() {
                        for (j, q) in qs.iter().enumerate() {
                            let want = kernel.eval(x, q);
                            assert_eq!(
                                k[(i, j)].to_bits(),
                                want.to_bits(),
                                "{kernel:?}: entry ({i}, {j}) of {n} x {m}"
                            );
                            if want > 0.0 && want < f64::MIN_POSITIVE {
                                subnormal += 1;
                            }
                            if want == 0.0 {
                                underflow += 1;
                            }
                            if want == kernel.signal_variance && x != q {
                                unit_but_apart += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(subnormal > 0, "no subnormal kernel value was exercised");
    assert!(underflow > 0, "no exp argument beyond -745 was exercised");
    assert!(
        unit_but_apart > 0,
        "no near-duplicate pair evaluated to the signal variance"
    );
}

#[test]
fn predict_batch_equals_predict_bitwise() {
    for dim in [1usize, 5, 12] {
        for (n, m) in [(3usize, 5usize), (9, 23), (16, 33)] {
            let (xs, qs) = points(dim, n, m, 0.0381);
            let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin() + x[dim - 1]).collect();
            for kernel in kernels(dim) {
                let gp = GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).expect("fits");
                for (q, (mu, var)) in qs.iter().zip(gp.predict_batch(&qs)) {
                    let (mu1, var1) = gp.predict(q);
                    assert_eq!(mu.to_bits(), mu1.to_bits(), "{kernel:?}: mean at {q:?}");
                    assert_eq!(
                        var.to_bits(),
                        var1.to_bits(),
                        "{kernel:?}: variance at {q:?}"
                    );
                }
            }
        }
    }
}
