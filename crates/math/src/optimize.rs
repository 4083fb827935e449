//! Bounded quasi-Newton minimization: BFGS with a backtracking line search,
//! projected onto a box. The Gaussian-process hyper-parameter search
//! ([`crate::gp::GaussianProcess::fit_auto`]) runs it on the negated log
//! marginal likelihood and its analytic gradient.

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Objective evaluations consumed (a value-plus-gradient call counts
    /// as one).
    pub evaluations: usize,
}

/// Largest step, per coordinate, one iteration may take before the line
/// search shortens it.
const MAX_STEP: f64 = 2.0;

/// Sufficient-decrease constant of the Armijo condition.
const ARMIJO: f64 = 1e-4;

/// Halvings the line search tries before giving up on a direction.
const BACKTRACKS: usize = 30;

/// Minimizes `f` over the box `[lo, hi]` from `x0` (projected onto the box
/// first) by BFGS with a backtracking line search.
///
/// `f(x, grad)` returns the value at `x` and writes the gradient into
/// `grad`; a non-finite value marks `x` infeasible, and the line search
/// backs away from it. Each iteration fixes the coordinates that sit on a
/// bound with the gradient pushing outward, steps along the quasi-Newton
/// direction over the rest (capped at `MAX_STEP` = 2 per coordinate),
/// projects the trial point onto the box and halves the step until the
/// Armijo condition holds. The run stops after `max_iter` iterations, when
/// the projected gradient's largest entry is at most `gtol`, when an
/// accepted step lowers the value by at most `ftol · (1 + |value|)`, or
/// when the line search fails.
///
/// Deterministic: the same inputs give the same iterates, bit for bit.
pub fn bfgs_box(
    mut f: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    lo: &[f64],
    hi: &[f64],
    max_iter: usize,
    gtol: f64,
    ftol: f64,
) -> OptResult {
    let dim = x0.len();
    assert!(dim > 0, "bfgs_box: empty start point");
    assert!(
        lo.len() == dim && hi.len() == dim,
        "bfgs_box: bound length mismatch"
    );
    let project = |x: &mut [f64]| {
        for ((v, &l), &h) in x.iter_mut().zip(lo).zip(hi) {
            *v = v.clamp(l, h);
        }
    };
    let mut x = x0.to_vec();
    project(&mut x);
    let mut g = vec![0.0; dim];
    let mut fx = f(&x, &mut g);
    let mut evaluations = 1;
    if !fx.is_finite() {
        return OptResult {
            x,
            value: f64::INFINITY,
            evaluations,
        };
    }
    // Inverse-Hessian approximation, row-major; identity until the first
    // curvature pair rescales it.
    let identity = |h: &mut [f64]| {
        h.fill(0.0);
        for i in 0..dim {
            h[i * dim + i] = 1.0;
        }
    };
    let mut h = vec![0.0; dim * dim];
    identity(&mut h);
    let mut curved = false;
    let (mut xn, mut gn, mut p) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
    for _ in 0..max_iter {
        // Coordinates pinned by a bound the gradient pushes against.
        let free: Vec<bool> = (0..dim)
            .map(|i| !((x[i] <= lo[i] && g[i] > 0.0) || (x[i] >= hi[i] && g[i] < 0.0)))
            .collect();
        let pg_max = (0..dim)
            .filter(|&i| free[i])
            .fold(0.0f64, |m, i| m.max(g[i].abs()));
        if pg_max <= gtol {
            break;
        }
        let direction = |h: &[f64], p: &mut [f64]| {
            for i in 0..dim {
                p[i] = if free[i] {
                    -(0..dim)
                        .filter(|&j| free[j])
                        .map(|j| h[i * dim + j] * g[j])
                        .sum::<f64>()
                } else {
                    0.0
                };
            }
        };
        direction(&h, &mut p);
        let slope: f64 = p.iter().zip(&g).map(|(a, b)| a * b).sum();
        if slope >= 0.0 || !slope.is_finite() {
            // The approximation lost positive definiteness on the free
            // coordinates: restart from steepest descent.
            identity(&mut h);
            curved = false;
            direction(&h, &mut p);
        }
        let longest = p.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if longest > MAX_STEP {
            p.iter_mut().for_each(|v| *v *= MAX_STEP / longest);
        }
        let mut t = 1.0;
        let mut accepted = None;
        for _ in 0..BACKTRACKS {
            for i in 0..dim {
                xn[i] = x[i] + t * p[i];
            }
            project(&mut xn);
            let fv = f(&xn, &mut gn);
            evaluations += 1;
            let decrease: f64 = (0..dim).map(|i| g[i] * (xn[i] - x[i])).sum();
            if fv.is_finite() && fv <= fx + ARMIJO * decrease {
                accepted = Some(fv);
                break;
            }
            t *= 0.5;
        }
        let Some(fv) = accepted else {
            break;
        };
        let s: Vec<f64> = (0..dim).map(|i| xn[i] - x[i]).collect();
        let y: Vec<f64> = (0..dim).map(|i| gn[i] - g[i]).collect();
        let sy: f64 = s.iter().zip(&y).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|v| v * v).sum();
        let ss: f64 = s.iter().map(|v| v * v).sum();
        if sy > 1e-12 * (ss * yy).sqrt() && yy > 0.0 {
            if !curved {
                // Scale the identity to the observed curvature before the
                // first update (Nocedal & Wright, eq. 6.20).
                identity(&mut h);
                h.iter_mut().for_each(|v| *v *= sy / yy);
                curved = true;
            }
            // H ← (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ, with ρ = 1 / sᵀy.
            let rho = 1.0 / sy;
            let hy: Vec<f64> = (0..dim)
                .map(|i| (0..dim).map(|j| h[i * dim + j] * y[j]).sum())
                .collect();
            let yhy: f64 = y.iter().zip(&hy).map(|(a, b)| a * b).sum();
            for i in 0..dim {
                for j in 0..dim {
                    h[i * dim + j] +=
                        rho * ((1.0 + rho * yhy) * s[i] * s[j] - hy[i] * s[j] - s[i] * hy[j]);
                }
            }
        }
        let gained = fx - fv;
        std::mem::swap(&mut x, &mut xn);
        std::mem::swap(&mut g, &mut gn);
        fx = fv;
        if gained <= ftol * (1.0 + fx.abs()) {
            break;
        }
    }
    OptResult {
        x,
        value: fx,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64], g: &mut [f64]) -> f64 {
        for (gi, v) in g.iter_mut().zip(x) {
            *gi = 2.0 * (v - 0.3);
        }
        x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum()
    }

    fn rosenbrock(x: &[f64], g: &mut [f64]) -> f64 {
        let a = 1.0 - x[0];
        let b = x[1] - x[0] * x[0];
        g[0] = -2.0 * a - 400.0 * x[0] * b;
        g[1] = 200.0 * b;
        a * a + 100.0 * b * b
    }

    const WIDE: [f64; 2] = [-10.0, 10.0];

    #[test]
    fn minimizes_a_sphere() {
        let r = bfgs_box(
            sphere,
            &[0.9, 0.9, 0.9],
            &[-1.0; 3],
            &[1.0; 3],
            100,
            1e-10,
            0.0,
        );
        assert!(r.value < 1e-12, "value={}", r.value);
        for v in &r.x {
            assert!((v - 0.3).abs() < 1e-6);
        }
        assert!(r.evaluations < 20, "evaluations={}", r.evaluations);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let lo = [WIDE[0]; 2];
        let hi = [WIDE[1]; 2];
        let r = bfgs_box(rosenbrock, &[-1.2, 1.0], &lo, &hi, 500, 1e-8, 0.0);
        assert!(r.value < 1e-10, "value={}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-4 && (r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn stops_on_an_active_bound() {
        // The minimum of (x − 5)² + (y − 0.5)² over [0, 1]² is (1, 0.5).
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 5.0);
            g[1] = 2.0 * (x[1] - 0.5);
            (x[0] - 5.0).powi(2) + (x[1] - 0.5).powi(2)
        };
        let r = bfgs_box(f, &[0.2, 0.9], &[0.0; 2], &[1.0; 2], 100, 1e-10, 0.0);
        assert_eq!(r.x[0], 1.0, "pinned at the upper bound");
        assert!((r.x[1] - 0.5).abs() < 1e-8, "y={}", r.x[1]);
    }

    #[test]
    fn backs_away_from_infeasible_points() {
        // Infeasible (NaN) above x = 3; the minimum sits at x = 2.9 and
        // the first quasi-Newton step from 2.5 overshoots to 3.3.
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 2.9);
            if x[0] > 3.0 {
                f64::NAN
            } else {
                (x[0] - 2.9).powi(2)
            }
        };
        let r = bfgs_box(f, &[2.5], &[-5.0], &[5.0], 100, 1e-10, 0.0);
        assert!(r.value.is_finite());
        assert!((r.x[0] - 2.9).abs() < 1e-6, "x={}", r.x[0]);
    }

    #[test]
    fn an_infeasible_start_is_reported_not_searched() {
        let r = bfgs_box(|_, _| f64::INFINITY, &[3.0], &[0.0], &[1.0], 10, 1e-8, 0.0);
        assert_eq!(r.x, vec![1.0], "the start is projected onto the box");
        assert_eq!(r.value, f64::INFINITY);
        assert_eq!(r.evaluations, 1);
    }
}
