//! # autotune-math
//!
//! Numerical substrate for the `autotune` workspace — everything the six
//! families of parameter tuners from Lu et al. (VLDB 2019, "Speedup Your
//! Analytics") need, implemented from scratch on `std` + `rand`:
//!
//! * dense linear algebra and Cholesky solves ([`matrix`], [`cholesky`]),
//! * Gaussian-process regression with EI/UCB acquisition ([`gp`]) — the
//!   engine behind iTuned and OtterTune,
//! * Latin hypercube sampling ([`lhs`]) and Plackett–Burman screening
//!   designs ([`design`]) — iTuned initialization and SARD knob ranking,
//! * k-means++ ([`kmeans`]), Lasso paths ([`lasso`]), and PCA ([`pca`]) —
//!   the OtterTune pipeline stages,
//! * OLS/ridge/NNLS regression ([`linreg`]) — the Ernest scaling model,
//! * a small MLP ([`mlp`]) — the Rodd neural-network tuner,
//! * a bounded BFGS search ([`optimize`]) and effect-size ANOVA
//!   ([`anova`]),
//! * deterministic chunked pool scoring and index-order argmax/argmin
//!   ([`batch`]) — the acquisition hot path shared by the GP tuners.
//!
//! All stochastic routines take an explicit `&mut StdRng` so every
//! experiment in the workspace is reproducible under a seed.

#![warn(missing_docs)]
// Indexed loops are the clearest way to write the numeric kernels in this
// crate (simultaneous row/column indexing, triangular updates); the
// iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod anova;
pub mod batch;
pub mod cholesky;
pub mod design;
pub mod gp;
pub mod kmeans;
pub mod lasso;
pub mod lhs;
pub mod linreg;
pub mod matrix;
pub mod mlp;
pub mod optimize;
pub mod pca;
mod simd;
pub mod stats;

pub use cholesky::Cholesky;
pub use gp::{GaussianProcess, Kernel, KernelKind};
pub use matrix::{LinAlgError, Matrix};
