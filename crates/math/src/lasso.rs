//! Lasso (L1-penalized least squares) via cyclic coordinate descent, plus a
//! regularization path.
//!
//! OtterTune ranks configuration knobs by running Lasso over
//! (knob-settings → performance) observations and watching the order in
//! which knob coefficients become non-zero as the penalty decreases — knobs
//! that "enter the path" first matter most.

use crate::matrix::Matrix;
use crate::stats::{mean, std_dev};

/// A fitted lasso model in the *standardized* feature space.
#[derive(Debug, Clone)]
pub struct LassoFit {
    /// Coefficients for standardized features.
    pub coefficients: Vec<f64>,
    /// Intercept in original target units.
    pub intercept: f64,
    /// Penalty used.
    pub lambda: f64,
    /// Coordinate-descent sweeps performed.
    pub iterations: usize,
    feature_means: Vec<f64>,
    feature_sds: Vec<f64>,
}

impl LassoFit {
    /// Predicts the target for a raw (unstandardized) feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len());
        let mut y = self.intercept;
        for j in 0..x.len() {
            let sd = self.feature_sds[j];
            if sd > 0.0 {
                y += self.coefficients[j] * (x[j] - self.feature_means[j]) / sd;
            }
        }
        y
    }

    /// Number of non-zero coefficients.
    pub fn support_size(&self) -> usize {
        self.coefficients.iter().filter(|c| **c != 0.0).count()
    }
}

fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// The design with every column standardized (constant columns — sd 0 —
/// left all-zero and frozen at a zero coefficient) and the centred target:
/// everything a lasso fit needs that does not depend on the penalty.
/// Columns are stored contiguously (column-major), the layout the
/// coordinate-descent sweeps read.
struct Standardized {
    n: usize,
    p: usize,
    /// Column `j` at `cols[j * n..(j + 1) * n]`.
    cols: Vec<f64>,
    means: Vec<f64>,
    sds: Vec<f64>,
    /// Column squared norms / n.
    col_sq: Vec<f64>,
    y_mean: f64,
    centred: Vec<f64>,
}

impl Standardized {
    fn new(x: &Matrix, y: &[f64]) -> Self {
        let n = x.rows();
        let p = x.cols();
        assert_eq!(y.len(), n, "lasso: row mismatch");
        assert!(n > 0 && p > 0, "lasso: empty design");
        let mut cols = vec![0.0; n * p];
        let mut means = vec![0.0; p];
        let mut sds = vec![0.0; p];
        for (j, out) in cols.chunks_exact_mut(n).enumerate() {
            let col = x.col(j);
            means[j] = mean(&col);
            sds[j] = std_dev(&col);
            if sds[j] > 0.0 {
                for (o, v) in out.iter_mut().zip(&col) {
                    *o = (v - means[j]) / sds[j];
                }
            }
        }
        let col_sq = cols
            .chunks_exact(n)
            .map(|c| c.iter().map(|v| v * v).sum::<f64>() / n as f64)
            .collect();
        let y_mean = mean(y);
        Standardized {
            n,
            p,
            cols,
            means,
            sds,
            col_sq,
            y_mean,
            centred: y.iter().map(|v| v - y_mean).collect(),
        }
    }

    fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.n..(j + 1) * self.n]
    }

    /// The smallest penalty at which every coefficient is zero:
    /// `max_j |x_jᵀ y_c| / n`.
    fn lambda_max(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.p {
            if self.sds[j] <= 0.0 {
                continue;
            }
            let mut corr = 0.0;
            for (xv, yv) in self.col(j).iter().zip(&self.centred) {
                corr += xv * yv;
            }
            best = best.max((corr / self.n as f64).abs());
        }
        best
    }

    /// Cyclic coordinate descent from all-zero coefficients. Returns the
    /// coefficients and the number of sweeps performed.
    fn descend(&self, lambda: f64, max_iter: usize, tol: f64) -> (Vec<f64>, usize) {
        assert!(lambda >= 0.0, "lasso: negative lambda");
        let n = self.n as f64;
        let mut beta = vec![0.0; self.p];
        let mut residual = self.centred.clone();
        let mut iterations = 0;
        for it in 0..max_iter {
            iterations = it + 1;
            let mut max_delta = 0.0f64;
            for (j, b) in beta.iter_mut().enumerate() {
                let sq = self.col_sq[j];
                if sq <= 0.0 {
                    continue;
                }
                let col = self.col(j);
                let old = *b;
                // rho = (1/n) x_jᵀ (residual + x_j * old)
                let mut rho = 0.0;
                for (xv, rv) in col.iter().zip(&residual) {
                    rho += xv * rv;
                }
                rho = rho / n + sq * old;
                let new = soft_threshold(rho, lambda) / sq;
                if new != old {
                    let delta = new - old;
                    for (rv, xv) in residual.iter_mut().zip(col) {
                        *rv -= delta * xv;
                    }
                    *b = new;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < tol {
                break;
            }
        }
        (beta, iterations)
    }
}

/// Fits lasso `min 1/(2n) ||y - Xb||² + lambda ||b||₁` with features
/// standardized internally. `x` is `n x p` (rows = observations).
pub fn lasso(x: &Matrix, y: &[f64], lambda: f64, max_iter: usize, tol: f64) -> LassoFit {
    let s = Standardized::new(x, y);
    let (coefficients, iterations) = s.descend(lambda, max_iter, tol);
    LassoFit {
        coefficients,
        intercept: s.y_mean,
        lambda,
        iterations,
        feature_means: s.means,
        feature_sds: s.sds,
    }
}

/// The smallest lambda at which all coefficients are zero.
pub fn lambda_max(x: &Matrix, y: &[f64]) -> f64 {
    Standardized::new(x, y).lambda_max()
}

/// One point on the lasso regularization path.
#[derive(Debug, Clone)]
pub struct PathPoint {
    /// Penalty for this fit.
    pub lambda: f64,
    /// Coefficients at this penalty.
    pub coefficients: Vec<f64>,
}

/// Points on the path [`rank_by_path`] and [`top_k_by_path`] walk.
const RANK_STEPS: usize = 30;
/// λ_min / λ_max of that path.
const RANK_RATIO: f64 = 1e-3;
/// A feature has entered the path once its |coefficient| exceeds this.
const ENTERED: f64 = 1e-10;

impl Standardized {
    /// The penalties of a geometric `steps`-point path from `lambda_max`
    /// down to `lambda_max * ratio`.
    fn path_lambdas(&self, steps: usize, ratio: f64) -> Vec<f64> {
        assert!(steps >= 2, "lasso_path: need at least 2 steps");
        assert!(ratio > 0.0 && ratio < 1.0, "lasso_path: ratio in (0,1)");
        let lmax = self.lambda_max().max(1e-12);
        let lmin = lmax * ratio;
        (0..steps)
            .map(|s| {
                let t = s as f64 / (steps - 1) as f64;
                (lmax.ln() + t * (lmin.ln() - lmax.ln())).exp()
            })
            .collect()
    }

    /// The coefficients of one path point: a cold fit from all-zero
    /// coefficients, independent of every other point.
    fn path_point(&self, lambda: f64) -> Vec<f64> {
        self.descend(lambda, 500, 1e-7).0
    }
}

/// Computes a geometric lasso path from `lambda_max` down to
/// `lambda_max * ratio` over `steps` points. The design is standardized
/// once for the whole path; every fit on it starts from all-zero
/// coefficients (no warm start), so each point equals a standalone
/// [`lasso`] fit at its penalty.
pub fn lasso_path(x: &Matrix, y: &[f64], steps: usize, ratio: f64) -> Vec<PathPoint> {
    let design = Standardized::new(x, y);
    design
        .path_lambdas(steps, ratio)
        .into_iter()
        .map(|lambda| PathPoint {
            lambda,
            coefficients: design.path_point(lambda),
        })
        .collect()
}

/// Records path point `step` as the entry step of every feature that is
/// non-zero in `coefficients` for the first time; returns how many entered.
fn mark_entries(entry_step: &mut [usize], coefficients: &[f64], step: usize) -> usize {
    let mut entered = 0;
    for (e, c) in entry_step.iter_mut().zip(coefficients) {
        if *e == usize::MAX && c.abs() > ENTERED {
            *e = step;
            entered += 1;
        }
    }
    entered
}

/// All features ordered by entry step, ties (and features that never
/// entered) by descending final |coefficient|, then by index.
fn path_order(entry_step: &[usize], final_coefs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entry_step.len()).collect();
    order.sort_by(|&a, &b| {
        entry_step[a]
            .cmp(&entry_step[b])
            .then_with(|| final_coefs[b].abs().total_cmp(&final_coefs[a].abs()))
    });
    order
}

/// Ranks features by the order in which they first become non-zero along a
/// lasso path (earlier = more important). Features that never activate are
/// ranked last by final |coefficient|. Returns feature indices, most
/// important first.
pub fn rank_by_path(x: &Matrix, y: &[f64]) -> Vec<usize> {
    let path = lasso_path(x, y, RANK_STEPS, RANK_RATIO);
    let mut entry_step = vec![usize::MAX; x.cols()];
    for (s, point) in path.iter().enumerate() {
        mark_entries(&mut entry_step, &point.coefficients, s);
    }
    // lint:allow(unwrap) lasso_path asserts at least 2 steps
    let final_coefs = &path.last().expect("non-empty path").coefficients;
    path_order(&entry_step, final_coefs)
}

/// The first `k` features of [`rank_by_path`]'s order, as a sorted index
/// set, from as few path points as decide it. The path is walked from
/// `lambda_max` and stops at the point where the `k`-th feature enters.
/// The last point (λ_min) is fitted only when it is needed: when more
/// features enter at that point than the set has room for, its final
/// coefficients pick among them, and when fewer than `k` features ever
/// enter, the whole path runs. Every point is an independent cold fit on
/// one standardized design, so the points walked are bit-identical to
/// [`lasso_path`]'s and the set equals the prefix of [`rank_by_path`].
pub fn top_k_by_path(x: &Matrix, y: &[f64], k: usize) -> Vec<usize> {
    let p = x.cols();
    let design = Standardized::new(x, y);
    let lambdas = design.path_lambdas(RANK_STEPS, RANK_RATIO);
    let last = lambdas.len() - 1;
    let mut entry_step = vec![usize::MAX; p];
    let mut entered = 0;
    let mut step = 0;
    let final_coefs = loop {
        let coefficients = design.path_point(lambdas[step]);
        entered += mark_entries(&mut entry_step, &coefficients, step);
        if entered == k {
            return (0..p).filter(|&j| entry_step[j] != usize::MAX).collect();
        }
        if step == last {
            break coefficients;
        }
        if entered > k {
            break design.path_point(lambdas[last]);
        }
        step += 1;
    };
    let mut top = path_order(&entry_step, &final_coefs);
    top.truncate(k);
    top.sort_unstable();
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// y = 5*x0 - 3*x1 + noise; x2..x4 irrelevant.
    fn synthetic(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..5).map(|_| rng.random_range(-1.0..1.0)).collect();
            let noise: f64 = rng.random_range(-0.05..0.05);
            ys.push(5.0 * x[0] - 3.0 * x[1] + noise);
            rows.push(x);
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn zero_lambda_recovers_ols_fit() {
        let (x, y) = synthetic(200, 1);
        let fit = lasso(&x, &y, 0.0, 2000, 1e-10);
        // Check predictions, not raw coefficients (standardized space).
        let mut max_err: f64 = 0.0;
        for i in 0..x.rows() {
            max_err = max_err.max((fit.predict(x.row(i)) - y[i]).abs());
        }
        assert!(max_err < 0.2, "max_err={max_err}");
    }

    #[test]
    fn heavy_lambda_zeroes_everything() {
        let (x, y) = synthetic(100, 2);
        let lmax = lambda_max(&x, &y);
        let fit = lasso(&x, &y, lmax * 1.01, 500, 1e-9);
        assert_eq!(fit.support_size(), 0);
    }

    #[test]
    fn moderate_lambda_selects_true_support() {
        let (x, y) = synthetic(300, 3);
        let lmax = lambda_max(&x, &y);
        let fit = lasso(&x, &y, lmax * 0.1, 1000, 1e-9);
        assert!(fit.coefficients[0].abs() > 0.1);
        assert!(fit.coefficients[1].abs() > 0.1);
        for j in 2..5 {
            assert!(
                fit.coefficients[j].abs() < 0.05,
                "noise feature {j} active: {}",
                fit.coefficients[j]
            );
        }
    }

    #[test]
    fn path_is_monotone_in_support() {
        let (x, y) = synthetic(200, 4);
        let path = lasso_path(&x, &y, 20, 1e-3);
        let first_support = path[0]
            .coefficients
            .iter()
            .filter(|c| c.abs() > 1e-10)
            .count();
        let last_support = path
            .last()
            .unwrap()
            .coefficients
            .iter()
            .filter(|c| c.abs() > 1e-10)
            .count();
        assert!(first_support <= last_support);
        assert_eq!(first_support, 0, "path should start empty at lambda_max");
    }

    #[test]
    fn ranking_puts_true_features_first() {
        let (x, y) = synthetic(300, 5);
        let order = rank_by_path(&x, &y);
        let top2: Vec<usize> = order[..2].to_vec();
        assert!(top2.contains(&0), "order={order:?}");
        assert!(top2.contains(&1), "order={order:?}");
    }

    #[test]
    fn constant_column_stays_zero() {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let a: f64 = rng.random_range(-1.0..1.0);
            rows.push(vec![a, 7.0]); // second column constant
            ys.push(2.0 * a);
        }
        let x = Matrix::from_rows(&rows);
        let fit = lasso(&x, &ys, 0.01, 500, 1e-9);
        assert_eq!(fit.coefficients[1], 0.0);
        assert!(fit.coefficients[0].abs() > 0.1);
    }

    /// The per-fit-standardizing implementation the hoisted path replaced,
    /// kept as the bit-identity reference.
    mod reference {
        use super::super::soft_threshold;
        use crate::matrix::Matrix;
        use crate::stats::{mean, std_dev};

        fn lasso(x: &Matrix, y: &[f64], lambda: f64, max_iter: usize, tol: f64) -> Vec<f64> {
            let n = x.rows();
            let p = x.cols();
            let mut means = vec![0.0; p];
            let mut sds = vec![0.0; p];
            let mut xs = Matrix::zeros(n, p);
            for j in 0..p {
                let col = x.col(j);
                means[j] = mean(&col);
                sds[j] = std_dev(&col);
                if sds[j] > 0.0 {
                    for i in 0..n {
                        xs[(i, j)] = (col[i] - means[j]) / sds[j];
                    }
                }
            }
            let y_mean = mean(y);
            let mut beta = vec![0.0; p];
            let mut residual: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            let col_sq: Vec<f64> = (0..p)
                .map(|j| (0..n).map(|i| xs[(i, j)] * xs[(i, j)]).sum::<f64>() / n as f64)
                .collect();
            for _ in 0..max_iter {
                let mut max_delta = 0.0f64;
                for j in 0..p {
                    if col_sq[j] <= 0.0 {
                        continue;
                    }
                    let old = beta[j];
                    let mut rho = 0.0;
                    for i in 0..n {
                        rho += xs[(i, j)] * residual[i];
                    }
                    rho = rho / n as f64 + col_sq[j] * old;
                    let new = soft_threshold(rho, lambda) / col_sq[j];
                    if new != old {
                        let delta = new - old;
                        for i in 0..n {
                            residual[i] -= delta * xs[(i, j)];
                        }
                        beta[j] = new;
                        max_delta = max_delta.max(delta.abs());
                    }
                }
                if max_delta < tol {
                    break;
                }
            }
            beta
        }

        fn lambda_max(x: &Matrix, y: &[f64]) -> f64 {
            let n = x.rows();
            let y_mean = mean(y);
            let mut best = 0.0f64;
            for j in 0..x.cols() {
                let col = x.col(j);
                let m = mean(&col);
                let sd = std_dev(&col);
                if sd <= 0.0 {
                    continue;
                }
                let mut corr = 0.0;
                for i in 0..n {
                    corr += (col[i] - m) / sd * (y[i] - y_mean);
                }
                best = best.max((corr / n as f64).abs());
            }
            best
        }

        /// `(lambda, coefficients)` per path point.
        pub fn lasso_path(x: &Matrix, y: &[f64], steps: usize, ratio: f64) -> Vec<(f64, Vec<f64>)> {
            let lmax = lambda_max(x, y).max(1e-12);
            let lmin = lmax * ratio;
            (0..steps)
                .map(|s| {
                    let t = s as f64 / (steps - 1) as f64;
                    let lambda = (lmax.ln() + t * (lmin.ln() - lmax.ln())).exp();
                    (lambda, lasso(x, y, lambda, 500, 1e-7))
                })
                .collect()
        }

        pub fn rank_by_path(x: &Matrix, y: &[f64]) -> Vec<usize> {
            let p = x.cols();
            let path = lasso_path(x, y, 30, 1e-3);
            let mut entry_step = vec![usize::MAX; p];
            for (s, (_, coefs)) in path.iter().enumerate() {
                for j in 0..p {
                    if entry_step[j] == usize::MAX && coefs[j].abs() > 1e-10 {
                        entry_step[j] = s;
                    }
                }
            }
            let final_coefs = &path.last().expect("non-empty path").1;
            let mut order: Vec<usize> = (0..p).collect();
            order.sort_by(|&a, &b| {
                entry_step[a]
                    .cmp(&entry_step[b])
                    .then_with(|| final_coefs[b].abs().total_cmp(&final_coefs[a].abs()))
            });
            order
        }
    }

    #[test]
    fn hoisted_path_is_bitwise_identical_to_per_fit_standardization() {
        // Knob-like designs: mixed scales, a constant column, correlated
        // pairs, and n both below and above p.
        for (seed, n, p) in [
            (1u64, 8usize, 12usize),
            (2, 30, 5),
            (3, 64, 12),
            (4, 112, 13),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut r: Vec<f64> = (0..p)
                        .map(|j| rng.random_range(0.0..1.0) * (1.0 + j as f64 * 37.0))
                        .collect();
                    r[p - 1] = 4.0;
                    r[1] = 0.8 * r[0] + 0.2 * r[1];
                    r
                })
                .collect();
            let ys: Vec<f64> = rows
                .iter()
                .map(|r| (r[0] / 7.0).sin() * 50.0 + r[2] * 0.3 + rng.random_range(-1.0..1.0))
                .collect();
            let x = Matrix::from_rows(&rows);
            let path = lasso_path(&x, &ys, 30, 1e-3);
            let want = reference::lasso_path(&x, &ys, 30, 1e-3);
            assert_eq!(path.len(), want.len());
            for (got, (lambda, coefs)) in path.iter().zip(&want) {
                assert_eq!(got.lambda.to_bits(), lambda.to_bits(), "seed {seed}");
                let got_bits: Vec<u64> = got.coefficients.iter().map(|c| c.to_bits()).collect();
                let want_bits: Vec<u64> = coefs.iter().map(|c| c.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "seed {seed} lambda {lambda}");
            }
            let order = reference::rank_by_path(&x, &ys);
            assert_eq!(rank_by_path(&x, &ys), order);
            assert_top_k_is_prefix(&x, &ys, &order);
        }
    }

    /// Checks [`top_k_by_path`] against the sorted first `k` of the
    /// reference ranking `order`, for every `k` from 0 past `p`.
    fn assert_top_k_is_prefix(x: &Matrix, y: &[f64], order: &[usize]) {
        for k in 0..=order.len() + 1 {
            let mut want = order[..k.min(order.len())].to_vec();
            want.sort_unstable();
            assert_eq!(top_k_by_path(x, y, k), want, "k = {k}, order {order:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

        /// Designs whose columns are fresh, rescaled copies of an earlier
        /// column (the same once standardized, up to rounding) or constant
        /// (never enter). Several features entering at one path point, and
        /// fewer than k ever entering, are both common here: the early stop
        /// must still pick the reference ranking's top-k set.
        #[test]
        fn top_k_matches_the_reference_ranking_prefix(
            seed in 0u64..1_000_000,
            n in 4usize..40,
            kinds in collection::vec(0u32..3, 1..10),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = kinds.len();
            let mut rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..p).map(|_| rng.random_range(0.0..1.0)).collect())
                .collect();
            for (j, kind) in kinds.iter().enumerate() {
                let src = rng.random_range(0..j.max(1));
                let scale = rng.random_range(0.5..3.0);
                for r in rows.iter_mut() {
                    match kind {
                        1 if j > 0 => r[j] = scale * r[src] + 1.0,
                        2 => r[j] = 3.0,
                        _ => {}
                    }
                }
            }
            let weights: Vec<f64> = (0..p).map(|_| rng.random_range(-2.0..2.0)).collect();
            let ys: Vec<f64> = rows
                .iter()
                .map(|r| {
                    r.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
                        + rng.random_range(-0.1..0.1)
                })
                .collect();
            let x = Matrix::from_rows(&rows);
            assert_top_k_is_prefix(&x, &ys, &reference::rank_by_path(&x, &ys));
        }
    }

    #[test]
    fn soft_threshold_properties() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }
}
