//! Gaussian-process regression with ARD kernels, plus the Expected
//! Improvement and UCB acquisition functions.
//!
//! This is the statistical core of two surveyed tuners: **iTuned** (Duan et
//! al., PVLDB 2009 — LHS initialization, GP response surface, Expected
//! Improvement to pick the next experiment) and **OtterTune** (Van Aken et
//! al., SIGMOD 2017 — GP recommendation with noise-aware exploration).

use crate::cholesky::Cholesky;
use crate::matrix::{dot, LinAlgError, Matrix};
use crate::optimize::nelder_mead;
use crate::stats::{mean, normal_cdf, normal_pdf, std_dev};

/// Kernel families supported by [`GaussianProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Squared exponential (RBF): smooth, infinitely differentiable.
    SquaredExponential,
    /// Matérn 5/2: the standard choice for hyper-parameter tuning surfaces
    /// (twice differentiable, less over-smooth than RBF).
    Matern52,
}

/// Kernel with automatic relevance determination (one length-scale per
/// input dimension), signal variance, and observation noise.
#[derive(Debug, Clone)]
pub struct Kernel {
    kind: KernelKind,
    /// Per-dimension length scales (positive).
    pub length_scales: Vec<f64>,
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Observation noise variance σ_n².
    pub noise_variance: f64,
}

impl Kernel {
    /// Creates a kernel with uniform length scales.
    pub fn new(kind: KernelKind, dim: usize, length_scale: f64) -> Self {
        assert!(dim > 0 && length_scale > 0.0);
        Kernel {
            kind,
            length_scales: vec![length_scale; dim],
            signal_variance: 1.0,
            noise_variance: 1e-6,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.length_scales.len()
    }

    /// Scaled squared distance `sum(((a_d - b_d) / l_d)^2)`.
    fn r2(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim());
        debug_assert_eq!(b.len(), self.dim());
        a.iter()
            .zip(b)
            .zip(&self.length_scales)
            .map(|((x, y), l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum()
    }

    /// Covariance between two points (noise excluded).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.value_from_r2(self.r2(a, b))
    }

    /// Kernel value from a scaled squared distance. The single shared tail
    /// of every evaluation path (direct, cached-difference, batched), so
    /// they cannot drift apart numerically.
    fn value_from_r2(&self, r2: f64) -> f64 {
        let base = match self.kind {
            KernelKind::SquaredExponential => (-0.5 * r2).exp(),
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                let s = (5.0f64).sqrt() * r;
                (1.0 + s + 5.0 * r2 / 3.0) * (-s).exp()
            }
        };
        self.signal_variance * base
    }

    /// Cross-covariance between a training set (rows) and a query pool
    /// (columns): the `n × m` matrix with entry `(i, j) = eval(xs[i],
    /// queries[j])`, noise excluded. Column `j` is exactly the `k*` vector
    /// [`GaussianProcess::predict`] builds for `queries[j]`, entry for
    /// entry.
    pub fn cross_covariance(&self, xs: &[Vec<f64>], queries: &[Vec<f64>]) -> Matrix {
        let (n, m) = (xs.len(), queries.len());
        let mut scratch = CrossCovScratch::default();
        let mut out = vec![0.0f64; n * m];
        self.cross_covariance_rows(xs, queries, &mut scratch, &mut out);
        Matrix::from_vec(n, m, out)
    }

    /// Core of [`Kernel::cross_covariance`] writing into caller-owned
    /// buffers (`out` is the row-major `n × m` result, fully overwritten)
    /// so repeated pool scoring can reuse one allocation instead of paying
    /// a fresh multi-hundred-KB one — and its page faults — per call.
    ///
    /// Query coordinates are transposed to dimension-major so the scaled
    /// squared distances accumulate across whole rows. Each entry's r2 is
    /// built with the same per-dimension subtract-divide-square operations,
    /// in the same ascending-dimension order, as [`Kernel::r2`] — only the
    /// loop nest differs, so the values are bit-identical to per-point
    /// `eval`.
    pub(crate) fn cross_covariance_rows(
        &self,
        xs: &[Vec<f64>],
        queries: &[Vec<f64>],
        scratch: &mut CrossCovScratch,
        out: &mut [f64],
    ) {
        let (n, m) = (xs.len(), queries.len());
        assert_eq!(out.len(), n * m, "cross_covariance: output size mismatch");
        if n == 0 || m == 0 {
            return;
        }
        let dim = self.dim();
        let qt = &mut scratch.qt;
        qt.resize(dim * m, 0.0);
        for (j, q) in queries.iter().enumerate() {
            debug_assert_eq!(q.len(), dim);
            for (d, &v) in q.iter().enumerate() {
                qt[d * m + j] = v;
            }
        }
        scratch.r2.resize(m, 0.0);
        scratch.row.resize(m, 0.0);
        for (i, x) in xs.iter().enumerate() {
            debug_assert_eq!(x.len(), dim);
            scratch.r2.iter_mut().for_each(|v| *v = 0.0);
            for (d, (&xd, &l)) in x.iter().zip(&self.length_scales).enumerate() {
                let qrow = &qt[d * m..(d + 1) * m];
                crate::simd::scaled_sq_accum(xd, l, qrow, &mut scratch.r2);
            }
            self.fill_row_from_r2(&scratch.r2, &mut scratch.row, &mut out[i * m..(i + 1) * m]);
        }
    }

    /// Fills `out[j] = value_from_r2(r2[j])` for a whole row. The algebraic
    /// passes (sqrt, polynomial, final scale) run as vectorizable row
    /// sweeps while `exp` stays the scalar libm call; each element's
    /// operation tree is exactly that of [`Kernel::value_from_r2`], so every
    /// entry is bit-identical to the per-point path.
    fn fill_row_from_r2(&self, r2: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(r2.len(), out.len());
        debug_assert_eq!(r2.len(), scratch.len());
        match self.kind {
            KernelKind::SquaredExponential => {
                for (slot, &v) in out.iter_mut().zip(r2) {
                    *slot = -0.5 * v;
                }
                for slot in out.iter_mut() {
                    *slot = self.signal_variance * slot.exp();
                }
            }
            KernelKind::Matern52 => {
                // `(5.0f64).sqrt()` is the same value every value_from_r2 call
                // computes; hoisting it changes nothing per element.
                let sqrt5 = (5.0f64).sqrt();
                for ((sj, pj), &v) in scratch.iter_mut().zip(out.iter_mut()).zip(r2) {
                    let s = sqrt5 * v.sqrt();
                    *sj = s;
                    *pj = 1.0 + s + 5.0 * v / 3.0;
                }
                for (slot, &s) in out.iter_mut().zip(scratch.iter()) {
                    *slot = self.signal_variance * (*slot * (-s).exp());
                }
            }
        }
    }

    /// Full covariance matrix over a point set, noise added on diagonal.
    pub fn covariance(&self, xs: &[Vec<f64>]) -> Matrix {
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.eval(&xs[i], &xs[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k.add_diagonal_mut(self.noise_variance);
        k
    }
}

/// Reusable buffers for [`Kernel::cross_covariance_rows`]: the
/// dimension-major query transpose plus the per-row r2/output scratch.
#[derive(Default)]
pub(crate) struct CrossCovScratch {
    qt: Vec<f64>,
    r2: Vec<f64>,
    row: Vec<f64>,
}

/// Raw per-dimension differences for every training pair `i < j`, computed
/// once per hyper-parameter search. Each length-scale/noise candidate
/// rebuilds its covariance by rescaling these differences instead of
/// re-reading the `n × d` training matrix, hoisting the subtraction out of
/// the `O(n² · d)` inner loop of every marginal-likelihood evaluation.
/// Read-only once built, so the search's parallel starts share one copy.
///
/// Stored dimension-major (`diffs[d * pairs + p]`, pairs in lexicographic
/// order), so the pairs `(i, i+1..n)` of one matrix row are contiguous in
/// every dimension: their scaled squared distances build up as one vector
/// sweep `acc[p] += (diff / l_d)²` per dimension, and the kernel tail runs
/// as one [`Kernel::fill_row_from_r2`] sweep straight into the row.
///
/// Determinism contract: the stored difference for pair `(i, j)` is the
/// same `x_i[d] - x_j[d]` subtraction [`Kernel::r2`] performs, and each
/// pair's r2 is built from it with the same divide-square-add sequence, in
/// the same ascending-dimension order — only the loop nest differs — so a
/// covariance built from the cache is bit-identical to
/// [`Kernel::covariance`]. (The ‖a‖² + ‖b‖² − 2a·b expansion would be
/// faster still, but rounds differently — it would silently perturb every
/// seeded tuner trajectory.)
struct PairwiseDiffs {
    n: usize,
    pairs: usize,
    diffs: Vec<f64>,
}

impl PairwiseDiffs {
    fn new(xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let pairs = n * n.saturating_sub(1) / 2;
        let mut diffs = vec![0.0; pairs * dim];
        let mut p = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                for (d, (a, b)) in xs[i].iter().zip(&xs[j]).enumerate() {
                    diffs[d * pairs + p] = a - b;
                }
                p += 1;
            }
        }
        PairwiseDiffs { n, pairs, diffs }
    }

    /// Writes the covariance matrix for `kernel` over the cached training
    /// set into `scratch.cov` (noise added on the diagonal), overwriting
    /// every entry. Bit-identical to `kernel.covariance(xs)`:
    /// off-diagonals go through the shared `value_from_r2` arithmetic, and
    /// the diagonal `eval(x, x)` is exactly `signal_variance` for both
    /// kernel kinds (`x - x` is `+0.0`, and `exp(-0.0) == 1.0`), to which
    /// `add_diagonal_mut` adds the noise — reproduced here as one `sv + nv`
    /// addition.
    fn covariance_into(&self, kernel: &Kernel, scratch: &mut MarginalScratch) {
        debug_assert_eq!(self.diffs.len(), self.pairs * kernel.dim());
        debug_assert_eq!(scratch.cov.shape(), (self.n, self.n));
        let n = self.n;
        let diag = kernel.signal_variance + kernel.noise_variance;
        let data = scratch.cov.data_mut();
        // Row i's pairs (i, i+1..n) start at p0 in every dimension.
        let mut p0 = 0;
        for i in 0..n {
            let len = n - i - 1;
            let r2 = &mut scratch.r2[..len];
            r2.fill(0.0);
            for (d, &l) in kernel.length_scales.iter().enumerate() {
                let start = d * self.pairs + p0;
                crate::simd::scaled_sq_accum_diffs(l, &self.diffs[start..start + len], r2);
            }
            let row = &mut data[i * n + i + 1..(i + 1) * n];
            kernel.fill_row_from_r2(r2, &mut scratch.tail[..len], row);
            data[i * n + i] = diag;
            for j in i + 1..n {
                data[j * n + i] = data[i * n + j];
            }
            p0 += len;
        }
    }
}

/// Everything about `-log p(y | X, θ)` that does not depend on the
/// hyper-parameters θ — the pair cache and the centred targets — built
/// once per hyper-parameter search and shared read-only by every
/// candidate evaluation, whichever thread runs it.
struct MarginalCache {
    pairs: PairwiseDiffs,
    centred: Vec<f64>,
}

/// One evaluating thread's buffers: the `n × n` covariance plus one row's
/// r2 and the Matérn tail's scratch, each fully overwritten before use.
struct MarginalScratch {
    cov: Matrix,
    r2: Vec<f64>,
    tail: Vec<f64>,
}

impl MarginalCache {
    fn new(xs: &[Vec<f64>], ys: &[f64]) -> Self {
        let y_mean = mean(ys);
        MarginalCache {
            pairs: PairwiseDiffs::new(xs),
            centred: ys.iter().map(|y| y - y_mean).collect(),
        }
    }

    /// Fresh buffers for one thread's evaluations.
    fn scratch(&self) -> MarginalScratch {
        let n = self.pairs.n;
        MarginalScratch {
            cov: Matrix::zeros(n, n),
            r2: vec![0.0; n],
            tail: vec![0.0; n],
        }
    }

    /// `-log p(y | X, θ)` for one hyper-parameter candidate: the exact
    /// negated value [`GaussianProcess::fit`] would store in
    /// `log_marginal` for this kernel. Returns `None` where `fit` would
    /// return a factorization error.
    fn neg_log_marginal(&self, kernel: &Kernel, scratch: &mut MarginalScratch) -> Option<f64> {
        self.pairs.covariance_into(kernel, scratch);
        let (chol, _jitter) = Cholesky::decompose_with_jitter(&scratch.cov, 1e-10, 12).ok()?;
        let alpha = chol.solve(&self.centred);
        let n = self.centred.len() as f64;
        let lml = -0.5 * dot(&self.centred, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        debug_assert!(
            lml.is_finite(),
            "GP log-marginal-likelihood is non-finite despite a successful factorization"
        );
        Some(-lml)
    }
}

/// Per-thread buffers for [`GaussianProcess::predict_batch`]. Pool scoring
/// runs every tuner iteration with the same shapes, so the `n × m`
/// cross-covariance and solve buffers (easily hundreds of KB) are kept
/// warm per thread instead of being reallocated — and page-faulted back
/// in — on every call. Each buffer is fully overwritten before use, so
/// reuse never changes a value; per-thread storage keeps the chunked
/// parallel scoring path allocation-free as well.
#[derive(Default)]
struct BatchScratch {
    cross: CrossCovScratch,
    kstar: Vec<f64>,
    v: Vec<f64>,
    mu: Vec<f64>,
    vv: Vec<f64>,
}

thread_local! {
    static BATCH_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::default());
}

/// A fitted Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    y_mean: f64,
    alpha: Vec<f64>,
    chol: Cholesky,
    /// Diagonal jitter the factorization actually carries (beyond the
    /// kernel's noise variance); [`GaussianProcess::update`] must add the
    /// same amount to each appended diagonal entry.
    jitter: f64,
    log_marginal: f64,
}

impl GaussianProcess {
    /// Fits a GP with the given (fixed) kernel to centred targets.
    pub fn fit(kernel: Kernel, xs: Vec<Vec<f64>>, ys: &[f64]) -> Result<Self, LinAlgError> {
        assert_eq!(xs.len(), ys.len(), "GP fit: x/y length mismatch");
        assert!(!xs.is_empty(), "GP fit: empty training set");
        for x in &xs {
            assert_eq!(x.len(), kernel.dim(), "GP fit: dim mismatch");
        }
        debug_assert!(
            xs.iter().flatten().all(|v| v.is_finite()) && ys.iter().all(|y| y.is_finite()),
            "GP fit fed non-finite training data"
        );
        let y_mean = mean(ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();
        let k = kernel.covariance(&xs);
        let (chol, jitter) = Cholesky::decompose_with_jitter(&k, 1e-10, 12)?;
        let alpha = chol.solve(&centred);
        // log p(y|X) = -1/2 yᵀα - 1/2 log|K| - n/2 log 2π
        let n = xs.len() as f64;
        let log_marginal = -0.5 * dot(&centred, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        debug_assert!(
            log_marginal.is_finite(),
            "GP log-marginal-likelihood is non-finite despite a successful factorization"
        );
        Ok(GaussianProcess {
            kernel,
            xs,
            ys: ys.to_vec(),
            y_mean,
            alpha,
            chol,
            jitter,
            log_marginal,
        })
    }

    /// Recomputes the mean-centred weights and log marginal likelihood from
    /// the stored targets, reusing the existing factor: two triangular
    /// solves, `O(n²)`.
    fn recompute_weights(&mut self) {
        self.y_mean = mean(&self.ys);
        let centred: Vec<f64> = self.ys.iter().map(|y| y - self.y_mean).collect();
        self.alpha = self.chol.solve(&centred);
        let n = self.xs.len() as f64;
        self.log_marginal = -0.5 * dot(&centred, &self.alpha)
            - 0.5 * self.chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
    }

    /// Folds one new observation into the fitted model **incrementally**:
    /// the Cholesky factor is extended in `O(n²)` ([`Cholesky::extend`])
    /// instead of being rebuilt in `O(n³)`, then the weights are recomputed
    /// against the re-centred targets. The kernel hyper-parameters are kept
    /// as-is — callers that tune them should re-fit periodically (e.g.
    /// every k observations) and use `update` in between.
    ///
    /// Falls back to a full [`GaussianProcess::fit`] (with jitter search)
    /// when the extended matrix is not numerically positive definite; only
    /// if that refit also fails is an error returned, in which case the
    /// model is left in its previous state.
    pub fn update(&mut self, x: Vec<f64>, y: f64) -> Result<(), LinAlgError> {
        assert_eq!(x.len(), self.kernel.dim(), "GP update: dim mismatch");
        debug_assert!(
            x.iter().all(|v| v.is_finite()) && y.is_finite(),
            "GP update fed a non-finite observation"
        );
        let row: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, &x)).collect();
        let diag = self.kernel.eval(&x, &x) + self.kernel.noise_variance + self.jitter;
        match self.chol.extend(&row, diag) {
            Ok(()) => {
                self.xs.push(x);
                self.ys.push(y);
                self.recompute_weights();
                Ok(())
            }
            Err(_) => {
                let mut xs = self.xs.clone();
                xs.push(x);
                let mut ys = self.ys.clone();
                ys.push(y);
                let refit = Self::fit(self.kernel.clone(), xs, &ys)?;
                *self = refit;
                Ok(())
            }
        }
    }

    /// Replaces **all** training targets (the inputs and kernel stay fixed)
    /// and recomputes the weights against the existing factor in `O(n²)`.
    ///
    /// This serves models whose targets are re-calibrated as context grows
    /// — e.g. OtterTune rescales transferred workload observations onto the
    /// target workload's response distribution after every new observation.
    pub fn refresh_targets(&mut self, ys: &[f64]) {
        assert_eq!(
            ys.len(),
            self.xs.len(),
            "GP refresh_targets: length mismatch"
        );
        debug_assert!(
            ys.iter().all(|y| y.is_finite()),
            "GP refresh_targets fed non-finite targets"
        );
        self.ys = ys.to_vec();
        self.recompute_weights();
    }

    /// Fits a GP and tunes kernel hyper-parameters (shared log length
    /// scale, log signal variance, log noise variance) by maximizing the
    /// log marginal likelihood with Nelder–Mead. Targets are standardized
    /// internally via the signal-variance parameter.
    ///
    /// The three starts search independently (through
    /// [`crate::batch::par_map`], on spare cores when there are any) and
    /// are reduced in start order with a strict `<`, so the chosen θ does
    /// not depend on the schedule.
    pub fn fit_auto(kind: KernelKind, xs: Vec<Vec<f64>>, ys: &[f64]) -> Result<Self, LinAlgError> {
        assert!(!xs.is_empty());
        let dim = xs[0].len();
        let y_sd = std_dev(ys).max(1e-6);
        // Pairwise differences and centred targets are
        // hyper-parameter-independent: compute them once, outside the
        // search; each start reuses one covariance buffer of its own.
        let cache = MarginalCache::new(&xs, ys);
        // Three deterministic starts spanning short/medium/long correlation.
        let starts = [
            vec![(0.2f64).ln(), (y_sd * y_sd).ln(), (y_sd * y_sd * 0.01).ln()],
            vec![(0.5f64).ln(), (y_sd * y_sd).ln(), (y_sd * y_sd * 0.1).ln()],
            vec![
                (1.5f64).ln(),
                (y_sd * y_sd).ln(),
                (y_sd * y_sd * 0.001).ln(),
            ],
        ];
        let searched = crate::batch::par_map(&starts, |s| {
            let mut scratch = cache.scratch();
            let mut objective = |theta: &[f64]| -> f64 {
                let ls = theta[0].exp().clamp(1e-3, 1e3);
                let sv = theta[1].exp().clamp(1e-8, 1e6);
                let nv = theta[2].exp().clamp(1e-10, 1e4);
                let mut k = Kernel::new(kind, dim, ls);
                k.signal_variance = sv;
                k.noise_variance = nv;
                cache
                    .neg_log_marginal(&k, &mut scratch)
                    .unwrap_or(f64::INFINITY)
            };
            nelder_mead(&mut objective, s, 0.4, 120, 1e-7)
        });
        let mut best: Option<Vec<f64>> = None;
        let mut best_v = f64::INFINITY;
        for r in searched {
            if r.value < best_v {
                best_v = r.value;
                best = Some(r.x);
            }
        }
        let theta = best.ok_or(LinAlgError::NoConvergence { iterations: 0 })?;
        let mut kernel = Kernel::new(kind, dim, theta[0].exp().clamp(1e-3, 1e3));
        kernel.signal_variance = theta[1].exp().clamp(1e-8, 1e6);
        kernel.noise_variance = theta[2].exp().clamp(1e-10, 1e4);
        GaussianProcess::fit(kernel, xs, ys)
    }

    /// Fits a GP with **automatic relevance determination**: a separate
    /// length scale per input dimension, seeded from the isotropic
    /// [`GaussianProcess::fit_auto`] solution and refined by coordinate
    /// descent on the log marginal likelihood. Irrelevant knobs drift to
    /// long length scales (the kernel ignores them) — the GP-side
    /// equivalent of knob ranking.
    pub fn fit_auto_ard(
        kind: KernelKind,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
    ) -> Result<Self, LinAlgError> {
        let iso = Self::fit_auto(kind, xs.clone(), ys)?;
        let dim = iso.kernel.dim();
        let mut kernel = iso.kernel.clone();
        let mut best_lml = iso.log_marginal;
        let cache = MarginalCache::new(&xs, ys);
        let mut scratch = cache.scratch();
        // Coordinate descent: each dimension tries a few multiplicative
        // adjustments of its length scale, keeping improvements.
        for _sweep in 0..2 {
            for d in 0..dim {
                let current = kernel.length_scales[d];
                for factor in [0.25, 0.5, 2.0, 4.0] {
                    let mut k = kernel.clone();
                    k.length_scales[d] = (current * factor).clamp(1e-3, 1e3);
                    if let Some(neg) = cache.neg_log_marginal(&k, &mut scratch) {
                        if -neg > best_lml {
                            best_lml = -neg;
                            kernel = k;
                        }
                    }
                }
            }
        }
        GaussianProcess::fit(kernel, xs, ys)
    }

    /// Relevance of each input dimension: inverse length scale, normalized
    /// so the most relevant dimension scores 1.0.
    pub fn relevance(&self) -> Vec<f64> {
        let inv: Vec<f64> = self.kernel.length_scales.iter().map(|l| 1.0 / l).collect();
        let max = inv.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        inv.iter().map(|v| v / max).collect()
    }

    /// Predictive mean and variance at a query point.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.dim(), "GP predict: dim mismatch");
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mu = self.y_mean + dot(&kstar, &self.alpha);
        let v = self.chol.solve_lower(&kstar);
        let var = (self.kernel.eval(x, x) + self.kernel.noise_variance - dot(&v, &v)).max(0.0);
        (mu, var)
    }

    /// Predictive mean only: the kernel row and one dot product against
    /// the precomputed weights — `O(n·d)`, skipping the `O(n²)` triangular
    /// solve that only the variance needs. Bit-identical to `predict(x).0`.
    pub fn predict_mean(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.kernel.dim(), "GP predict: dim mismatch");
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        self.y_mean + dot(&kstar, &self.alpha)
    }

    /// Predictive mean and variance for a whole query pool at once.
    ///
    /// Builds the `n × m` cross-covariance once, takes all means from a
    /// single streaming pass against `alpha`, and all variances from one
    /// multi-RHS blocked forward solve ([`Cholesky::solve_lower_multi`]).
    /// Each output pair is **bit-identical** to `predict(&queries[j])`:
    /// the per-entry kernel arithmetic, the per-column solve order, and the
    /// ascending-`i` accumulation of both dot products match the scalar
    /// path operation for operation (see DESIGN.md, "Batched GP
    /// inference").
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if queries.is_empty() {
            return Vec::new();
        }
        for q in queries {
            assert_eq!(q.len(), self.kernel.dim(), "GP predict: dim mismatch");
        }
        let n = self.xs.len();
        let m = queries.len();
        // The n×m cross-covariance and solve buffers are thread-local and
        // persist across calls: pool scoring runs every tuner iteration,
        // and re-allocating (and re-faulting) hundreds of KB per call
        // costs more than the arithmetic it feeds. Buffer reuse changes
        // no values — every entry is fully overwritten.
        BATCH_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.kstar.resize(n * m, 0.0);
            self.kernel
                .cross_covariance_rows(&self.xs, queries, &mut s.cross, &mut s.kstar);
            // Means: accumulate dot(k*_j, alpha) for every column j in one
            // pass over the rows; ascending-i accumulation from 0.0
            // matches `dot`.
            s.mu.resize(m, 0.0);
            s.mu.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
                let ai = self.alpha[i];
                for (acc, &kv) in s.mu.iter_mut().zip(&s.kstar[i * m..(i + 1) * m]) {
                    *acc += kv * ai;
                }
            }
            // Variances: v_j = L⁻¹ k*_j for all columns at once, then the
            // column-wise squared norms, again accumulated in ascending i.
            s.v.clear();
            s.v.extend_from_slice(&s.kstar);
            self.chol.solve_lower_multi_in_place(&mut s.v, m);
            s.vv.resize(m, 0.0);
            s.vv.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
                for (acc, &val) in s.vv.iter_mut().zip(&s.v[i * m..(i + 1) * m]) {
                    *acc += val * val;
                }
            }
            queries
                .iter()
                .enumerate()
                .map(|(j, q)| {
                    let mu = self.y_mean + s.mu[j];
                    let var =
                        (self.kernel.eval(q, q) + self.kernel.noise_variance - s.vv[j]).max(0.0);
                    (mu, var)
                })
                .collect()
        })
    }

    /// Log marginal likelihood of the fit.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Training inputs.
    pub fn training_inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Training targets (raw, un-centred).
    pub fn training_targets(&self) -> &[f64] {
        &self.ys
    }

    /// Expected Improvement from predictive moments (minimization). The
    /// single formula behind the scalar and batch entry points — and the
    /// sparse surrogates' acquisition path ([`crate::surrogate`]), so every
    /// backend scores candidates with identical arithmetic.
    pub(crate) fn ei_from_moments(mu: f64, var: f64, y_best: f64, xi: f64) -> f64 {
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (y_best - mu - xi).max(0.0);
        }
        let z = (y_best - mu - xi) / sigma;
        // Clamp at zero: the erf approximation inside `normal_cdf` can
        // return an epsilon-negative tail for hopeless candidates.
        ((y_best - mu - xi) * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
    }

    /// Expected Improvement for *minimization* at `x`, given the incumbent
    /// best observed value `y_best` and an exploration jitter `xi >= 0`.
    pub fn expected_improvement(&self, x: &[f64], y_best: f64, xi: f64) -> f64 {
        let (mu, var) = self.predict(x);
        Self::ei_from_moments(mu, var, y_best, xi)
    }

    /// Expected Improvement for every candidate in a pool, through
    /// [`GaussianProcess::predict_batch`]. `out[j]` is bit-identical to
    /// `expected_improvement(&queries[j], y_best, xi)`.
    pub fn expected_improvement_batch(
        &self,
        queries: &[Vec<f64>],
        y_best: f64,
        xi: f64,
    ) -> Vec<f64> {
        self.predict_batch(queries)
            .into_iter()
            .map(|(mu, var)| Self::ei_from_moments(mu, var, y_best, xi))
            .collect()
    }

    /// Lower confidence bound `mu - beta * sigma` (for minimization).
    pub fn lower_confidence_bound(&self, x: &[f64], beta: f64) -> f64 {
        let (mu, var) = self.predict(x);
        mu - beta * var.sqrt()
    }

    /// Lower confidence bound for every candidate in a pool. `out[j]` is
    /// bit-identical to `lower_confidence_bound(&queries[j], beta)`.
    pub fn lower_confidence_bound_batch(&self, queries: &[Vec<f64>], beta: f64) -> Vec<f64> {
        self.predict_batch(queries)
            .into_iter()
            .map(|(mu, var)| mu - beta * var.sqrt())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lhs::latin_hypercube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite training data")]
    fn nan_targets_are_caught_at_fit_in_debug_builds() {
        let kernel = Kernel::new(KernelKind::SquaredExponential, 1, 0.5);
        let _ = GaussianProcess::fit(kernel, vec![vec![0.1], vec![0.9]], &[1.0, f64::NAN]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite observation")]
    fn nan_update_is_caught_in_debug_builds() {
        let kernel = Kernel::new(KernelKind::SquaredExponential, 1, 0.5);
        let mut gp =
            GaussianProcess::fit(kernel, vec![vec![0.1], vec![0.9]], &[1.0, 2.0]).expect("fits");
        let _ = gp.update(vec![0.5], f64::NAN);
    }

    fn toy_function(x: &[f64]) -> f64 {
        (3.0 * x[0]).sin() + 0.5 * x[1]
    }

    fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = latin_hypercube(n, 2, &mut rng);
        let ys = xs.iter().map(|x| toy_function(x)).collect();
        (xs, ys)
    }

    #[test]
    fn gp_interpolates_training_points() {
        let (xs, ys) = training_data(15, 1);
        let mut k = Kernel::new(KernelKind::SquaredExponential, 2, 0.4);
        k.noise_variance = 1e-8;
        let gp = GaussianProcess::fit(k, xs.clone(), &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, var) = gp.predict(x);
            assert!((mu - y).abs() < 1e-3, "mu={mu} y={y}");
            assert!(var < 1e-4);
        }
    }

    #[test]
    fn gp_generalizes_nearby() {
        let (xs, ys) = training_data(40, 2);
        let gp = GaussianProcess::fit_auto(KernelKind::Matern52, xs, &ys).unwrap();
        let mut max_err: f64 = 0.0;
        for i in 0..10 {
            let t = i as f64 / 10.0 + 0.05;
            let q = [t, 1.0 - t];
            let (mu, _) = gp.predict(&q);
            max_err = max_err.max((mu - toy_function(&q)).abs());
        }
        assert!(max_err < 0.25, "max_err={max_err}");
    }

    #[test]
    fn variance_grows_away_from_data() {
        let xs = vec![vec![0.5, 0.5]];
        let ys = vec![1.0];
        let k = Kernel::new(KernelKind::SquaredExponential, 2, 0.2);
        let gp = GaussianProcess::fit(k, xs, &ys).unwrap();
        let (_, near_var) = gp.predict(&[0.5, 0.5]);
        let (_, far_var) = gp.predict(&[0.0, 0.0]);
        assert!(far_var > near_var * 10.0);
    }

    #[test]
    fn matern_and_rbf_agree_at_zero_distance() {
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let k = Kernel::new(kind, 3, 0.7);
            let x = [0.3, 0.3, 0.3];
            assert!((k.eval(&x, &x) - k.signal_variance).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_decreases_with_distance() {
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let k = Kernel::new(kind, 1, 0.5);
            let v1 = k.eval(&[0.0], &[0.1]);
            let v2 = k.eval(&[0.0], &[0.5]);
            let v3 = k.eval(&[0.0], &[1.0]);
            assert!(v1 > v2 && v2 > v3);
        }
    }

    #[test]
    fn ei_positive_in_unexplored_regions_zero_at_bad_known() {
        let xs = vec![vec![0.1], vec![0.9]];
        let ys = vec![0.0, 5.0];
        let mut k = Kernel::new(KernelKind::SquaredExponential, 1, 0.15);
        k.noise_variance = 1e-8;
        let gp = GaussianProcess::fit(k, xs, &ys).unwrap();
        let y_best = 0.0;
        let ei_unexplored = gp.expected_improvement(&[0.5], y_best, 0.0);
        let ei_at_bad = gp.expected_improvement(&[0.9], y_best, 0.0);
        assert!(ei_unexplored > ei_at_bad);
        assert!(ei_at_bad < 1e-6);
    }

    #[test]
    fn lcb_below_mean() {
        let (xs, ys) = training_data(10, 3);
        let gp = GaussianProcess::fit(Kernel::new(KernelKind::Matern52, 2, 0.4), xs, &ys).unwrap();
        let q = [0.33, 0.77];
        let (mu, _) = gp.predict(&q);
        assert!(gp.lower_confidence_bound(&q, 2.0) <= mu);
    }

    #[test]
    fn log_marginal_prefers_reasonable_noise() {
        // Fitting noiseless data: tiny-noise kernel should have higher
        // marginal likelihood than huge-noise kernel.
        let (xs, ys) = training_data(20, 4);
        let mut k_good = Kernel::new(KernelKind::SquaredExponential, 2, 0.5);
        k_good.noise_variance = 1e-6;
        let mut k_bad = k_good.clone();
        k_bad.noise_variance = 10.0;
        let g1 = GaussianProcess::fit(k_good, xs.clone(), &ys).unwrap();
        let g2 = GaussianProcess::fit(k_bad, xs, &ys).unwrap();
        assert!(g1.log_marginal_likelihood() > g2.log_marginal_likelihood());
    }

    #[test]
    fn ard_identifies_the_relevant_dimension() {
        // y depends only on x0; ARD should give x0 the shortest length
        // scale (highest relevance).
        let mut rng = StdRng::seed_from_u64(11);
        let xs = latin_hypercube(35, 3, &mut rng);
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let gp = GaussianProcess::fit_auto_ard(KernelKind::SquaredExponential, xs, &ys).unwrap();
        let rel = gp.relevance();
        assert!((rel[0] - 1.0).abs() < 1e-12, "x0 most relevant: {rel:?}");
        assert!(rel[1] < 0.7 && rel[2] < 0.7, "irrelevant dims: {rel:?}");
    }

    #[test]
    fn ard_marginal_likelihood_at_least_isotropic() {
        let (xs, ys) = training_data(25, 13);
        let iso = GaussianProcess::fit_auto(KernelKind::Matern52, xs.clone(), &ys).unwrap();
        let ard = GaussianProcess::fit_auto_ard(KernelKind::Matern52, xs, &ys).unwrap();
        assert!(ard.log_marginal_likelihood() >= iso.log_marginal_likelihood() - 1e-9);
    }

    #[test]
    fn incremental_update_matches_fresh_fit() {
        let (xs, ys) = training_data(25, 6);
        let mut k = Kernel::new(KernelKind::Matern52, 2, 0.4);
        k.noise_variance = 1e-6;
        // Fit on the first 15 points, update with the remaining 10.
        let mut inc = GaussianProcess::fit(k.clone(), xs[..15].to_vec(), &ys[..15]).unwrap();
        for i in 15..25 {
            inc.update(xs[i].clone(), ys[i]).unwrap();
        }
        let full = GaussianProcess::fit(k, xs.clone(), &ys).unwrap();
        for i in 0..12 {
            let t = i as f64 / 12.0;
            let q = [t, 1.0 - 0.7 * t];
            let (m1, v1) = inc.predict(&q);
            let (m2, v2) = full.predict(&q);
            assert!((m1 - m2).abs() < 1e-9, "mean {m1} vs {m2}");
            assert!((v1 - v2).abs() < 1e-9, "var {v1} vs {v2}");
        }
        assert!((inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-8);
    }

    #[test]
    fn update_handles_duplicate_points() {
        // Appending an exact duplicate of a training point makes the
        // near-noise-free kernel matrix (numerically) singular; update must
        // absorb it — via a hairline pivot or the jittered-refit fallback —
        // rather than erroring out.
        let xs = vec![vec![0.2, 0.8], vec![0.7, 0.3]];
        let ys = vec![1.0, 2.0];
        let mut k = Kernel::new(KernelKind::SquaredExponential, 2, 0.5);
        k.noise_variance = 1e-12;
        let mut gp = GaussianProcess::fit(k, xs, &ys).unwrap();
        gp.update(vec![0.2, 0.8], 1.0).unwrap();
        assert_eq!(gp.training_inputs().len(), 3);
        let (mu, _) = gp.predict(&[0.2, 0.8]);
        assert!((mu - 1.0).abs() < 0.05, "mu={mu}");
    }

    #[test]
    fn refresh_targets_matches_refit_on_new_ys() {
        let (xs, ys) = training_data(20, 8);
        let mut k = Kernel::new(KernelKind::Matern52, 2, 0.6);
        k.noise_variance = 1e-4;
        let mut gp = GaussianProcess::fit(k.clone(), xs.clone(), &ys).unwrap();
        let shifted: Vec<f64> = ys.iter().map(|y| 3.0 * y - 1.5).collect();
        gp.refresh_targets(&shifted);
        let fresh = GaussianProcess::fit(k, xs, &shifted).unwrap();
        let q = [0.41, 0.59];
        assert!((gp.predict(&q).0 - fresh.predict(&q).0).abs() < 1e-10);
        assert!((gp.log_marginal_likelihood() - fresh.log_marginal_likelihood()).abs() < 1e-9);
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_per_point_predict() {
        let (xs, ys) = training_data(30, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let pool = latin_hypercube(67, 2, &mut rng);
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let mut k = Kernel::new(kind, 2, 0.37);
            k.length_scales[1] = 0.81; // exercise the ARD path
            k.noise_variance = 1e-5;
            let gp = GaussianProcess::fit(k, xs.clone(), &ys).unwrap();
            let batch = gp.predict_batch(&pool);
            for (q, (bm, bv)) in pool.iter().zip(&batch) {
                let (m, v) = gp.predict(q);
                assert_eq!(m.to_bits(), bm.to_bits(), "mean drifted for {kind:?}");
                assert_eq!(v.to_bits(), bv.to_bits(), "variance drifted for {kind:?}");
            }
        }
    }

    #[test]
    fn predict_mean_fast_path_is_bitwise_identical() {
        let (xs, ys) = training_data(25, 23);
        let gp = GaussianProcess::fit(Kernel::new(KernelKind::Matern52, 2, 0.5), xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        for q in latin_hypercube(40, 2, &mut rng) {
            assert_eq!(gp.predict_mean(&q).to_bits(), gp.predict(&q).0.to_bits());
        }
    }

    #[test]
    fn batch_acquisitions_are_bitwise_identical_to_scalar() {
        let (xs, ys) = training_data(20, 25);
        let gp = GaussianProcess::fit(Kernel::new(KernelKind::SquaredExponential, 2, 0.4), xs, &ys)
            .unwrap();
        let y_best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut rng = StdRng::seed_from_u64(26);
        let pool = latin_hypercube(50, 2, &mut rng);
        let ei = gp.expected_improvement_batch(&pool, y_best, 0.01);
        let lcb = gp.lower_confidence_bound_batch(&pool, 2.0);
        for (j, q) in pool.iter().enumerate() {
            assert_eq!(
                ei[j].to_bits(),
                gp.expected_improvement(q, y_best, 0.01).to_bits()
            );
            assert_eq!(
                lcb[j].to_bits(),
                gp.lower_confidence_bound(q, 2.0).to_bits()
            );
        }
    }

    #[test]
    fn cached_neg_log_marginal_matches_full_fit_bitwise() {
        // The invariant that keeps fit_auto / fit_auto_ard trajectories
        // unchanged by the pair cache: for any kernel, the cached
        // objective must equal -fit(...).log_marginal to the bit. Shapes
        // cover a lone point, a single pair, ragged tile tails, and the
        // isotropic as well as per-dimension (ARD) length scales.
        for dim in [1usize, 12, 13] {
            for n in [1usize, 2, 7, 64, 113] {
                let mut rng = StdRng::seed_from_u64((dim * 1000 + n) as u64);
                let xs = latin_hypercube(n, dim, &mut rng);
                let ys: Vec<f64> = xs
                    .iter()
                    .map(|x| (3.0 * x[0]).sin() + 0.5 * x[dim - 1])
                    .collect();
                let cache = MarginalCache::new(&xs, &ys);
                let mut scratch = cache.scratch();
                for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
                    for (ls, ard, sv, nv) in [
                        (0.2, false, 1.0, 1e-6),
                        (0.55, true, 2.5, 1e-3),
                        (3.0, true, 0.4, 1e-8),
                    ] {
                        let mut k = Kernel::new(kind, dim, ls);
                        if ard {
                            for (d, l) in k.length_scales.iter_mut().enumerate() {
                                *l *= 0.3 + 0.45 * d as f64;
                            }
                        }
                        k.signal_variance = sv;
                        k.noise_variance = nv;
                        let neg = cache.neg_log_marginal(&k, &mut scratch).unwrap();
                        let gp = GaussianProcess::fit(k, xs.clone(), &ys).unwrap();
                        assert_eq!(
                            neg.to_bits(),
                            (-gp.log_marginal).to_bits(),
                            "cached LML drifted for {kind:?} d={dim} n={n} ls={ls} ard={ard}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fit_auto_beats_fixed_bad_kernel() {
        let (xs, ys) = training_data(25, 5);
        let auto =
            GaussianProcess::fit_auto(KernelKind::SquaredExponential, xs.clone(), &ys).unwrap();
        let mut bad = Kernel::new(KernelKind::SquaredExponential, 2, 100.0);
        bad.noise_variance = 1.0;
        let fixed = GaussianProcess::fit(bad, xs, &ys).unwrap();
        assert!(auto.log_marginal_likelihood() >= fixed.log_marginal_likelihood());
    }
}
