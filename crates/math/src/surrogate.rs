//! Sparse Gaussian-process surrogates: sub-cubic drop-in backends for the
//! exact GP behind iTuned and OtterTune.
//!
//! Exact GP regression costs `O(n³)` per fit and `O(n²)` per predictive
//! variance, which caps session length (ROADMAP "GP at scale"). This
//! module provides two classic approximations behind one [`Surrogate`]
//! trait that [`GaussianProcess`] itself also implements:
//!
//! * **Subset of data** ([`SodGp`]) — fit the exact GP on a budgeted,
//!   deterministically chosen farthest-point subset of the observations:
//!   `O(m³)` fit, `O(m²)` predict, with `m` fixed by the budget.
//! * **Nyström / projected process** ([`NystromGp`]) — condition on `m`
//!   inducing points but regress against *all* `n` observations through
//!   the DTC (deterministic training conditional) equations: `O(n·m²)`
//!   fit, `O(m²)` per predictive variance. At `m = n` the DTC posterior
//!   equals the exact GP posterior, which is what the convergence tests
//!   pin down.
//!
//! [`SurrogateModel`] is the enum the tuners hold; [`SurrogateConfig`]
//! selects a backend (`exact | sod | nystrom`) or the `auto` policy that
//! stays exact below a training-set threshold and switches to Nyström
//! above it. Every selection rule is deterministic — the active set is a
//! pure function of the observation history (see
//! [`crate::kmeans::farthest_point_subset`]) — so seeded tuner
//! trajectories remain reproducible under every backend.

use crate::cholesky::Cholesky;
use crate::gp::{GaussianProcess, Kernel, KernelKind};
use crate::kmeans::farthest_point_subset;
use crate::matrix::{dot, LinAlgError, Matrix};
use crate::stats::mean;

/// Backend selection policy for [`SurrogateModel::fit_auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateKind {
    /// The exact `O(n³)` Gaussian process — bit-identical to the
    /// historical code path.
    Exact,
    /// Subset-of-data: exact GP over a farthest-point subset.
    Sod,
    /// Nyström/DTC inducing-point approximation over all observations.
    Nystrom,
    /// Exact below [`SurrogateConfig::auto_threshold`] observations,
    /// Nyström at or above it.
    Auto,
}

impl SurrogateKind {
    /// Stable lowercase name (the serve API's `surrogate` field values).
    pub fn name(self) -> &'static str {
        match self {
            SurrogateKind::Exact => "exact",
            SurrogateKind::Sod => "sod",
            SurrogateKind::Nystrom => "nystrom",
            SurrogateKind::Auto => "auto",
        }
    }
}

/// Configuration for surrogate selection, carried by each GP tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurrogateConfig {
    /// Which backend to fit (or the auto policy).
    pub kind: SurrogateKind,
    /// Active-set / inducing-point budget `m` for the sparse backends.
    pub budget: usize,
    /// Training-set size at which `auto` abandons the exact solver.
    pub auto_threshold: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            kind: SurrogateKind::Auto,
            budget: 256,
            auto_threshold: 256,
        }
    }
}

impl SurrogateConfig {
    /// The always-exact configuration (the pre-surrogate behaviour).
    pub fn exact() -> Self {
        SurrogateConfig {
            kind: SurrogateKind::Exact,
            ..Self::default()
        }
    }

    /// Subset-of-data with the given active-set budget.
    pub fn sod(budget: usize) -> Self {
        SurrogateConfig {
            kind: SurrogateKind::Sod,
            budget: budget.max(1),
            ..Self::default()
        }
    }

    /// Nyström with the given inducing-point budget.
    pub fn nystrom(budget: usize) -> Self {
        SurrogateConfig {
            kind: SurrogateKind::Nystrom,
            budget: budget.max(1),
            ..Self::default()
        }
    }

    /// Parses a backend name (`exact | sod | nystrom | auto`) into a config
    /// with default budget/threshold. `None` for unknown names.
    pub fn parse(name: &str) -> Option<Self> {
        let kind = match name {
            "exact" => SurrogateKind::Exact,
            "sod" => SurrogateKind::Sod,
            "nystrom" => SurrogateKind::Nystrom,
            "auto" => SurrogateKind::Auto,
            _ => return None,
        };
        Some(SurrogateConfig {
            kind,
            ..Self::default()
        })
    }

    /// The concrete backend a fit over `n` observations uses: `auto`
    /// resolves against the threshold, everything else is itself.
    pub fn resolve(&self, n: usize) -> SurrogateKind {
        match self.kind {
            SurrogateKind::Auto => {
                if n < self.auto_threshold.max(1) {
                    SurrogateKind::Exact
                } else {
                    SurrogateKind::Nystrom
                }
            }
            k => k,
        }
    }
}

/// The prediction/acquisition surface every GP-like surrogate offers.
/// [`GaussianProcess`] implements it by delegation, so code written
/// against the trait runs unchanged — and bit-identically — on the exact
/// model.
pub trait Surrogate {
    /// Stable backend label (`"exact"`, `"sod"`, `"nystrom"`).
    fn kind_label(&self) -> &'static str;

    /// Observations the model has absorbed (full history length).
    fn observed_len(&self) -> usize;

    /// Size of the active training set / inducing set the per-prediction
    /// cost actually scales with.
    fn active_len(&self) -> usize;

    /// Predictive mean and variance at one query point.
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// Predictive mean and variance for a whole query pool.
    fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)>;

    /// Batched Expected Improvement (minimization), through the same
    /// moment formula as the exact GP.
    fn expected_improvement_batch(&self, queries: &[Vec<f64>], y_best: f64, xi: f64) -> Vec<f64> {
        self.predict_batch(queries)
            .into_iter()
            .map(|(mu, var)| GaussianProcess::ei_from_moments(mu, var, y_best, xi))
            .collect()
    }

    /// Batched lower confidence bound `mu - beta * sigma` (minimization).
    fn lower_confidence_bound_batch(&self, queries: &[Vec<f64>], beta: f64) -> Vec<f64> {
        self.predict_batch(queries)
            .into_iter()
            .map(|(mu, var)| mu - beta * var.sqrt())
            .collect()
    }
}

impl Surrogate for GaussianProcess {
    fn kind_label(&self) -> &'static str {
        "exact"
    }

    fn observed_len(&self) -> usize {
        self.training_inputs().len()
    }

    fn active_len(&self) -> usize {
        self.training_inputs().len()
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        GaussianProcess::predict(self, x)
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)> {
        GaussianProcess::predict_batch(self, queries)
    }

    fn expected_improvement_batch(&self, queries: &[Vec<f64>], y_best: f64, xi: f64) -> Vec<f64> {
        GaussianProcess::expected_improvement_batch(self, queries, y_best, xi)
    }

    fn lower_confidence_bound_batch(&self, queries: &[Vec<f64>], beta: f64) -> Vec<f64> {
        GaussianProcess::lower_confidence_bound_batch(self, queries, beta)
    }
}

/// Subset-of-data surrogate: the exact GP fitted on a budgeted
/// farthest-point subset of the observations. Keeps the full history
/// alongside so append-only updates and target refreshes stay possible;
/// between hyper-parameter refits, new observations join the active set
/// incrementally (rank-1 Cholesky extension), so the active set is the
/// selected subset plus the recent tail until the next refit reselects.
#[derive(Debug, Clone)]
pub struct SodGp {
    gp: GaussianProcess,
    /// Indices into `xs`/`ys` of the active points, ascending at fit time,
    /// appended in arrival order afterwards.
    active_idx: Vec<usize>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl SodGp {
    /// Selects a farthest-point subset of at most `budget` observations and
    /// fits the exact GP (hyper-parameter search included) on it. With
    /// `budget >= n` the selection is the identity and the result is
    /// bit-identical to the exact fit.
    pub fn fit_auto(
        kind: KernelKind,
        ard: bool,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
        budget: usize,
    ) -> Result<Self, LinAlgError> {
        Self::fit_auto_from(kind, ard, xs, ys, budget, None)
    }

    /// [`SodGp::fit_auto`] whose isotropic search starts from `warm` (see
    /// [`GaussianProcess::fit_auto_from`]).
    fn fit_auto_from(
        kind: KernelKind,
        ard: bool,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
        budget: usize,
        warm: Option<&Kernel>,
    ) -> Result<Self, LinAlgError> {
        assert_eq!(xs.len(), ys.len(), "SoD fit: x/y length mismatch");
        assert!(!xs.is_empty(), "SoD fit: empty training set");
        let active_idx = farthest_point_subset(&xs, budget.max(1));
        let sub_xs: Vec<Vec<f64>> = active_idx.iter().map(|&i| xs[i].clone()).collect();
        let sub_ys: Vec<f64> = active_idx.iter().map(|&i| ys[i]).collect();
        let gp = search(kind, ard, sub_xs, &sub_ys, warm)?;
        Ok(SodGp {
            gp,
            active_idx,
            xs,
            ys: ys.to_vec(),
        })
    }

    /// Appends one observation: it joins both the history and the active
    /// set (incremental exact-GP update). The active set is trimmed back to
    /// the budget at the next full refit, not here.
    pub fn update(&mut self, x: Vec<f64>, y: f64) -> Result<(), LinAlgError> {
        self.gp.update(x.clone(), y)?;
        self.xs.push(x);
        self.ys.push(y);
        self.active_idx.push(self.xs.len() - 1);
        Ok(())
    }

    /// Replaces all history targets and re-solves the active GP's weights
    /// against its existing factor (`O(m²)`).
    pub fn refresh_targets(&mut self, ys: &[f64]) {
        assert_eq!(ys.len(), self.xs.len(), "SoD refresh: length mismatch");
        self.ys = ys.to_vec();
        let sub_ys: Vec<f64> = self.active_idx.iter().map(|&i| ys[i]).collect();
        self.gp.refresh_targets(&sub_ys);
    }

    /// Full observation history (inputs).
    pub fn observed_inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// The active exact GP (over the subset).
    pub fn gp(&self) -> &GaussianProcess {
        &self.gp
    }
}

impl Surrogate for SodGp {
    fn kind_label(&self) -> &'static str {
        "sod"
    }

    fn observed_len(&self) -> usize {
        self.xs.len()
    }

    fn active_len(&self) -> usize {
        self.active_idx.len()
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.gp.predict(x)
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.gp.predict_batch(queries)
    }

    fn expected_improvement_batch(&self, queries: &[Vec<f64>], y_best: f64, xi: f64) -> Vec<f64> {
        self.gp.expected_improvement_batch(queries, y_best, xi)
    }

    fn lower_confidence_bound_batch(&self, queries: &[Vec<f64>], beta: f64) -> Vec<f64> {
        self.gp.lower_confidence_bound_batch(queries, beta)
    }
}

/// The hyper-parameter search every backend runs on its (sub)set: the ARD
/// coordinate sweeps, or the isotropic search started from `warm` when
/// there is one.
fn search(
    kind: KernelKind,
    ard: bool,
    xs: Vec<Vec<f64>>,
    ys: &[f64],
    warm: Option<&Kernel>,
) -> Result<GaussianProcess, LinAlgError> {
    if ard {
        GaussianProcess::fit_auto_ard(kind, xs, ys)
    } else {
        GaussianProcess::fit_auto_from(kind, xs, ys, warm)
    }
}

/// Nyström / projected-process (DTC) surrogate.
///
/// With inducing points `Z` (m of them), noise variance `σ²`, and the
/// cross-covariances `Kmm = K(Z,Z)`, `Knm = K(X,Z)`:
///
/// ```text
/// A  = σ²·Kmm + Knmᵀ·Knm                      (m×m)
/// μ* = ȳ + k*ᵀ · A⁻¹·Knmᵀ·(y − ȳ)
/// v* = k(x,x) + σ² − k*ᵀ·Kmm⁻¹·k* + σ²·k*ᵀ·A⁻¹·k*
/// ```
///
/// Fitting costs `O(n·m²)` (the Gram product dominates; it reuses the
/// blocked [`Matrix::gram`] kernel), predictions `O(m²)`. At `m = n`,
/// `Z = X` these equations reduce algebraically to the exact GP
/// posterior, so accuracy is controlled by the budget alone.
#[derive(Debug, Clone)]
pub struct NystromGp {
    kernel: Kernel,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    zs: Vec<Vec<f64>>,
    /// `K(X,Z)`, kept for O(n·m) target refreshes and row-append updates.
    knm: Matrix,
    /// `σ²·Kmm + KnmᵀKnm` (jitter-free; each factorization searches its
    /// own jitter).
    amat: Matrix,
    y_mean: f64,
    lmm: Cholesky,
    la: Cholesky,
    /// `A⁻¹·Knmᵀ·(y − ȳ)`.
    w: Vec<f64>,
    /// LML evaluations of the search that chose `kernel` (0 when the
    /// kernel was given).
    lml_evals: u64,
}

impl NystromGp {
    /// Fits the DTC model for a fixed kernel and inducing set.
    pub fn fit(
        kernel: Kernel,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
        zs: Vec<Vec<f64>>,
    ) -> Result<Self, LinAlgError> {
        assert_eq!(xs.len(), ys.len(), "Nystrom fit: x/y length mismatch");
        assert!(!xs.is_empty(), "Nystrom fit: empty training set");
        assert!(!zs.is_empty(), "Nystrom fit: empty inducing set");
        let kmm = kernel.cross_covariance(&zs, &zs);
        let (lmm, _) = Cholesky::decompose_with_jitter(&kmm, 1e-10, 12)?;
        let knm = kernel.cross_covariance(&xs, &zs);
        let mut amat = knm.gram();
        let nv = kernel.noise_variance;
        let m = zs.len();
        for i in 0..m {
            for j in 0..m {
                amat[(i, j)] += nv * kmm[(i, j)];
            }
        }
        let (la, _) = Cholesky::decompose_with_jitter(&amat, 1e-10, 12)?;
        let mut model = NystromGp {
            kernel,
            xs,
            ys: ys.to_vec(),
            zs,
            knm,
            amat,
            y_mean: 0.0,
            lmm,
            la,
            w: Vec::new(),
            lml_evals: 0,
        };
        model.solve_weights();
        Ok(model)
    }

    /// Recomputes `ȳ` and `w = A⁻¹·Knmᵀ·(y − ȳ)` from the stored
    /// cross-covariance: `O(n·m + m²)`.
    fn solve_weights(&mut self) {
        self.y_mean = mean(&self.ys);
        let m = self.zs.len();
        let mut rhs = vec![0.0; m];
        for (i, &y) in self.ys.iter().enumerate() {
            let yc = y - self.y_mean;
            if yc == 0.0 {
                continue;
            }
            for (acc, &k) in rhs.iter_mut().zip(self.knm.row(i)) {
                *acc += k * yc;
            }
        }
        self.w = self.la.solve(&rhs);
    }

    /// Appends one observation: one kernel row, a rank-1 update of `A`,
    /// and an `O(m³)` refactorization — no dependence on `n` beyond the
    /// weight re-solve. The model is untouched if the refactorization
    /// fails.
    pub fn update(&mut self, x: Vec<f64>, y: f64) -> Result<(), LinAlgError> {
        assert_eq!(x.len(), self.kernel.dim(), "Nystrom update: dim mismatch");
        let m = self.zs.len();
        let row: Vec<f64> = self.zs.iter().map(|z| self.kernel.eval(z, &x)).collect();
        let mut amat = self.amat.clone();
        for i in 0..m {
            for j in 0..m {
                amat[(i, j)] += row[i] * row[j];
            }
        }
        let (la, _) = Cholesky::decompose_with_jitter(&amat, 1e-10, 12)?;
        self.amat = amat;
        self.la = la;
        let mut knm_data = self.knm.data().to_vec();
        knm_data.extend_from_slice(&row);
        self.knm = Matrix::from_vec(self.xs.len() + 1, m, knm_data);
        self.xs.push(x);
        self.ys.push(y);
        self.solve_weights();
        Ok(())
    }

    /// Replaces all targets (inputs and kernel fixed): `O(n·m + m²)`.
    pub fn refresh_targets(&mut self, ys: &[f64]) {
        assert_eq!(ys.len(), self.xs.len(), "Nystrom refresh: length mismatch");
        self.ys = ys.to_vec();
        self.solve_weights();
    }

    /// Full observation history (inputs).
    pub fn observed_inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// The inducing points.
    pub fn inducing_points(&self) -> &[Vec<f64>] {
        &self.zs
    }

    /// The kernel the model was fitted with.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }
}

impl Surrogate for NystromGp {
    fn kind_label(&self) -> &'static str {
        "nystrom"
    }

    fn observed_len(&self) -> usize {
        self.xs.len()
    }

    fn active_len(&self) -> usize {
        self.zs.len()
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.dim(), "Nystrom predict: dim mismatch");
        let kstar: Vec<f64> = self.zs.iter().map(|z| self.kernel.eval(z, x)).collect();
        let mu = self.y_mean + dot(&kstar, &self.w);
        let u = self.lmm.solve_lower(&kstar);
        let t = self.la.solve_lower(&kstar);
        let nv = self.kernel.noise_variance;
        let var = (self.kernel.eval(x, x) + nv - dot(&u, &u) + nv * dot(&t, &t)).max(0.0);
        (mu, var)
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if queries.is_empty() {
            return Vec::new();
        }
        let m = self.zs.len();
        let q = queries.len();
        // m×q cross-covariance: column j is the k* vector of queries[j].
        let kq = self.kernel.cross_covariance(&self.zs, queries);
        let mut mu = vec![0.0; q];
        for i in 0..m {
            let wi = self.w[i];
            for (acc, &kv) in mu.iter_mut().zip(&kq.data()[i * q..(i + 1) * q]) {
                *acc += kv * wi;
            }
        }
        let mut u = kq.data().to_vec();
        self.lmm.solve_lower_multi_in_place(&mut u, q);
        let mut t = kq.data().to_vec();
        self.la.solve_lower_multi_in_place(&mut t, q);
        let mut uu = vec![0.0; q];
        let mut tt = vec![0.0; q];
        for i in 0..m {
            for (acc, &v) in uu.iter_mut().zip(&u[i * q..(i + 1) * q]) {
                *acc += v * v;
            }
            for (acc, &v) in tt.iter_mut().zip(&t[i * q..(i + 1) * q]) {
                *acc += v * v;
            }
        }
        let nv = self.kernel.noise_variance;
        queries
            .iter()
            .enumerate()
            .map(|(j, x)| {
                let mean = self.y_mean + mu[j];
                let var = (self.kernel.eval(x, x) + nv - uu[j] + nv * tt[j]).max(0.0);
                (mean, var)
            })
            .collect()
    }
}

/// The surrogate a GP tuner holds: one of the three backends, chosen by
/// [`SurrogateConfig`] at fit time. The `Exact` arm delegates to the
/// untouched [`GaussianProcess`] code path, so default-configured tuners
/// remain bit-identical to their pre-surrogate trajectories.
#[derive(Debug, Clone)]
pub enum SurrogateModel {
    /// Exact GP over the full history.
    Exact(GaussianProcess),
    /// Subset-of-data.
    Sod(SodGp),
    /// Nyström/DTC.
    Nystrom(NystromGp),
}

impl SurrogateModel {
    /// Fits the backend `config` resolves to for this training-set size,
    /// hyper-parameter search included. Sparse backends run the search on
    /// the farthest-point subset (`O(budget³)` per likelihood evaluation)
    /// and, for Nyström, carry the learned kernel into the full-data DTC
    /// solve.
    pub fn fit_auto(
        config: &SurrogateConfig,
        kind: KernelKind,
        ard: bool,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
    ) -> Result<Self, LinAlgError> {
        Self::fit_auto_from(config, kind, ard, xs, ys, None)
    }

    /// [`SurrogateModel::fit_auto`] whose isotropic hyper-parameter search
    /// starts from `warm`, the kernel of an earlier fit, plus one cold
    /// start (see [`GaussianProcess::fit_auto_from`]); ARD fits ignore
    /// `warm`.
    pub fn fit_auto_from(
        config: &SurrogateConfig,
        kind: KernelKind,
        ard: bool,
        xs: Vec<Vec<f64>>,
        ys: &[f64],
        warm: Option<&Kernel>,
    ) -> Result<Self, LinAlgError> {
        match config.resolve(xs.len()) {
            SurrogateKind::Exact | SurrogateKind::Auto => {
                Ok(SurrogateModel::Exact(search(kind, ard, xs, ys, warm)?))
            }
            SurrogateKind::Sod => Ok(SurrogateModel::Sod(SodGp::fit_auto_from(
                kind,
                ard,
                xs,
                ys,
                config.budget,
                warm,
            )?)),
            SurrogateKind::Nystrom => {
                let idx = farthest_point_subset(&xs, config.budget.max(1));
                let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
                let sub_ys: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
                let hyper = search(kind, ard, zs.clone(), &sub_ys, warm)?;
                let mut model = NystromGp::fit(hyper.kernel().clone(), xs, ys, zs)?;
                model.lml_evals = hyper.lml_evals();
                Ok(SurrogateModel::Nystrom(model))
            }
        }
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        match self {
            SurrogateModel::Exact(gp) => gp.kernel(),
            SurrogateModel::Sod(s) => s.gp.kernel(),
            SurrogateModel::Nystrom(n) => n.kernel(),
        }
    }

    /// Log-marginal-likelihood evaluations the hyper-parameter search that
    /// produced this model spent.
    pub fn lml_evals(&self) -> u64 {
        match self {
            SurrogateModel::Exact(gp) => gp.lml_evals(),
            SurrogateModel::Sod(s) => s.gp.lml_evals(),
            SurrogateModel::Nystrom(n) => n.lml_evals,
        }
    }

    /// Appends one observation incrementally.
    pub fn update(&mut self, x: Vec<f64>, y: f64) -> Result<(), LinAlgError> {
        match self {
            SurrogateModel::Exact(gp) => gp.update(x, y),
            SurrogateModel::Sod(s) => s.update(x, y),
            SurrogateModel::Nystrom(n) => n.update(x, y),
        }
    }

    /// Replaces all history targets, keeping inputs and kernel.
    pub fn refresh_targets(&mut self, ys: &[f64]) {
        match self {
            SurrogateModel::Exact(gp) => gp.refresh_targets(ys),
            SurrogateModel::Sod(s) => s.refresh_targets(ys),
            SurrogateModel::Nystrom(n) => n.refresh_targets(ys),
        }
    }

    /// The full observation history the model has absorbed.
    pub fn observed_inputs(&self) -> &[Vec<f64>] {
        match self {
            SurrogateModel::Exact(gp) => gp.training_inputs(),
            SurrogateModel::Sod(s) => s.observed_inputs(),
            SurrogateModel::Nystrom(n) => n.observed_inputs(),
        }
    }

    /// Whether a fit over `n` observations under `config` would use the
    /// same backend this model already is — the auto policy's switch
    /// detector: when it says `false`, the caller refits.
    pub fn matches(&self, config: &SurrogateConfig, n: usize) -> bool {
        let want = config.resolve(n);
        matches!(
            (self, want),
            (SurrogateModel::Exact(_), SurrogateKind::Exact)
                | (SurrogateModel::Sod(_), SurrogateKind::Sod)
                | (SurrogateModel::Nystrom(_), SurrogateKind::Nystrom)
        )
    }
}

impl Surrogate for SurrogateModel {
    fn kind_label(&self) -> &'static str {
        match self {
            SurrogateModel::Exact(_) => "exact",
            SurrogateModel::Sod(_) => "sod",
            SurrogateModel::Nystrom(_) => "nystrom",
        }
    }

    fn observed_len(&self) -> usize {
        self.observed_inputs().len()
    }

    fn active_len(&self) -> usize {
        match self {
            SurrogateModel::Exact(gp) => Surrogate::active_len(gp),
            SurrogateModel::Sod(s) => s.active_len(),
            SurrogateModel::Nystrom(n) => n.active_len(),
        }
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        match self {
            SurrogateModel::Exact(gp) => GaussianProcess::predict(gp, x),
            SurrogateModel::Sod(s) => Surrogate::predict(s, x),
            SurrogateModel::Nystrom(n) => Surrogate::predict(n, x),
        }
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self {
            SurrogateModel::Exact(gp) => GaussianProcess::predict_batch(gp, queries),
            SurrogateModel::Sod(s) => s.predict_batch(queries),
            SurrogateModel::Nystrom(n) => Surrogate::predict_batch(n, queries),
        }
    }

    fn expected_improvement_batch(&self, queries: &[Vec<f64>], y_best: f64, xi: f64) -> Vec<f64> {
        match self {
            SurrogateModel::Exact(gp) => gp.expected_improvement_batch(queries, y_best, xi),
            SurrogateModel::Sod(s) => s.expected_improvement_batch(queries, y_best, xi),
            SurrogateModel::Nystrom(n) => {
                Surrogate::expected_improvement_batch(n, queries, y_best, xi)
            }
        }
    }

    fn lower_confidence_bound_batch(&self, queries: &[Vec<f64>], beta: f64) -> Vec<f64> {
        match self {
            SurrogateModel::Exact(gp) => gp.lower_confidence_bound_batch(queries, beta),
            SurrogateModel::Sod(s) => s.lower_confidence_bound_batch(queries, beta),
            SurrogateModel::Nystrom(n) => Surrogate::lower_confidence_bound_batch(n, queries, beta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lhs::latin_hypercube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(x: &[f64]) -> f64 {
        (3.0 * x[0]).sin() + 0.5 * x[1] + 0.2 * x[0] * x[1]
    }

    fn data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = latin_hypercube(n, 2, &mut rng);
        let ys = xs.iter().map(|x| toy(x)).collect();
        (xs, ys)
    }

    fn test_kernel() -> Kernel {
        let mut k = Kernel::new(KernelKind::Matern52, 2, 0.4);
        k.noise_variance = 1e-4;
        k.signal_variance = 1.2;
        k
    }

    #[test]
    fn sod_with_full_budget_is_bitwise_exact() {
        let (xs, ys) = data(24, 1);
        let sod = SodGp::fit_auto(KernelKind::Matern52, false, xs.clone(), &ys, 100).unwrap();
        let exact = GaussianProcess::fit_auto(KernelKind::Matern52, xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for q in latin_hypercube(20, 2, &mut rng) {
            let (sm, sv) = Surrogate::predict(&sod, &q);
            let (em, ev) = exact.predict(&q);
            assert_eq!(sm.to_bits(), em.to_bits());
            assert_eq!(sv.to_bits(), ev.to_bits());
        }
        assert_eq!(sod.active_len(), 24);
        assert_eq!(sod.observed_len(), 24);
    }

    #[test]
    fn nystrom_at_full_inducing_set_matches_exact_gp() {
        let (xs, ys) = data(30, 3);
        let kernel = test_kernel();
        let exact = GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).unwrap();
        let ny = NystromGp::fit(kernel, xs.clone(), &ys, xs).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut max_dm: f64 = 0.0;
        let mut max_dv: f64 = 0.0;
        for q in latin_hypercube(25, 2, &mut rng) {
            let (em, ev) = exact.predict(&q);
            let (nm, nv) = Surrogate::predict(&ny, &q);
            max_dm = max_dm.max((em - nm).abs());
            max_dv = max_dv.max((ev - nv).abs());
        }
        assert!(max_dm < 1e-6, "mean diff {max_dm}");
        assert!(max_dv < 1e-6, "var diff {max_dv}");
    }

    #[test]
    fn nystrom_accuracy_improves_with_budget() {
        let (xs, ys) = data(60, 5);
        let kernel = test_kernel();
        let exact = GaussianProcess::fit(kernel.clone(), xs.clone(), &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let queries = latin_hypercube(30, 2, &mut rng);
        let err = |budget: usize| -> f64 {
            let idx = farthest_point_subset(&xs, budget);
            let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
            let ny = NystromGp::fit(kernel.clone(), xs.clone(), &ys, zs).unwrap();
            queries
                .iter()
                .map(|q| (exact.predict(q).0 - Surrogate::predict(&ny, q).0).abs())
                .fold(0.0f64, f64::max)
        };
        let coarse = err(6);
        let fine = err(40);
        let full = err(60);
        assert!(
            fine <= coarse + 1e-12,
            "budget 40 err {fine} vs budget 6 err {coarse}"
        );
        assert!(full < 1e-6, "full budget should recover exact: {full}");
    }

    #[test]
    fn nystrom_incremental_update_matches_fresh_fit() {
        let (xs, ys) = data(40, 7);
        let kernel = test_kernel();
        let idx = farthest_point_subset(&xs[..30], 12);
        let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let mut inc =
            NystromGp::fit(kernel.clone(), xs[..30].to_vec(), &ys[..30], zs.clone()).unwrap();
        for i in 30..40 {
            inc.update(xs[i].clone(), ys[i]).unwrap();
        }
        let fresh = NystromGp::fit(kernel, xs.clone(), &ys, zs).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for q in latin_hypercube(20, 2, &mut rng) {
            let (im, iv) = Surrogate::predict(&inc, &q);
            let (fm, fv) = Surrogate::predict(&fresh, &q);
            assert!((im - fm).abs() < 1e-8, "mean {im} vs {fm}");
            assert!((iv - fv).abs() < 1e-8, "var {iv} vs {fv}");
        }
        assert_eq!(inc.observed_len(), 40);
        assert_eq!(inc.active_len(), 12);
    }

    #[test]
    fn nystrom_batch_matches_scalar_predict() {
        let (xs, ys) = data(35, 9);
        let idx = farthest_point_subset(&xs, 10);
        let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let ny = NystromGp::fit(test_kernel(), xs, &ys, zs).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let pool = latin_hypercube(33, 2, &mut rng);
        let batch = Surrogate::predict_batch(&ny, &pool);
        for (q, &(bm, bv)) in pool.iter().zip(&batch) {
            let (sm, sv) = Surrogate::predict(&ny, q);
            assert!((bm - sm).abs() < 1e-12, "mean {bm} vs {sm}");
            assert!((bv - sv).abs() < 1e-12, "var {bv} vs {sv}");
        }
    }

    #[test]
    fn nystrom_refresh_targets_matches_refit() {
        let (xs, ys) = data(30, 11);
        let idx = farthest_point_subset(&xs, 10);
        let zs: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let mut ny = NystromGp::fit(test_kernel(), xs.clone(), &ys, zs.clone()).unwrap();
        let shifted: Vec<f64> = ys.iter().map(|y| 2.0 * y + 0.7).collect();
        ny.refresh_targets(&shifted);
        let fresh = NystromGp::fit(test_kernel(), xs, &shifted, zs).unwrap();
        let q = [0.37, 0.61];
        let (rm, rv) = Surrogate::predict(&ny, &q);
        let (fm, fv) = Surrogate::predict(&fresh, &q);
        assert!((rm - fm).abs() < 1e-10);
        assert!((rv - fv).abs() < 1e-12);
    }

    #[test]
    fn auto_policy_switches_at_threshold() {
        let cfg = SurrogateConfig {
            kind: SurrogateKind::Auto,
            budget: 8,
            auto_threshold: 20,
        };
        assert_eq!(cfg.resolve(19), SurrogateKind::Exact);
        assert_eq!(cfg.resolve(20), SurrogateKind::Nystrom);
        let (xs, ys) = data(25, 12);
        let small = SurrogateModel::fit_auto(
            &cfg,
            KernelKind::Matern52,
            false,
            xs[..10].to_vec(),
            &ys[..10],
        )
        .unwrap();
        assert_eq!(small.kind_label(), "exact");
        let large = SurrogateModel::fit_auto(&cfg, KernelKind::Matern52, false, xs, &ys).unwrap();
        assert_eq!(large.kind_label(), "nystrom");
        assert_eq!(large.active_len(), 8);
        assert!(!large.matches(&cfg, 10), "shrinking past threshold refits");
        assert!(large.matches(&cfg, 26));
    }

    #[test]
    fn config_parse_round_trips_names() {
        for name in ["exact", "sod", "nystrom", "auto"] {
            let cfg = SurrogateConfig::parse(name).unwrap();
            assert_eq!(cfg.kind.name(), name);
        }
        assert!(SurrogateConfig::parse("bogus").is_none());
    }

    #[test]
    fn exact_model_delegates_bitwise() {
        let (xs, ys) = data(20, 13);
        let cfg = SurrogateConfig::exact();
        let model =
            SurrogateModel::fit_auto(&cfg, KernelKind::Matern52, false, xs.clone(), &ys).unwrap();
        let gp = GaussianProcess::fit_auto(KernelKind::Matern52, xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let pool = latin_hypercube(15, 2, &mut rng);
        let a = model.expected_improvement_batch(&pool, 0.1, 0.01);
        let b = gp.expected_improvement_batch(&pool, 0.1, 0.01);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
