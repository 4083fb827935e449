//! # autotune-tuners
//!
//! The six families of automatic parameter tuning approaches surveyed by
//! Lu, Chen, Herodotou & Babu (VLDB 2019), each implemented as
//! [`autotune_core::Tuner`]s plus the standalone analyses the original
//! systems provide:
//!
//! | Module | Category | Systems reproduced |
//! |---|---|---|
//! | [`rule`] | rule-based | best-practice rule books, SPEX, ConfNav |
//! | [`cost`] | cost modeling | STMM, Starfish-style what-if |
//! | [`simulation`] | simulation-based | trace replay (Narayanan), ADDM |
//! | [`experiment`] | experiment-driven | SARD, adaptive sampling, iTuned, RRS |
//! | [`ml`] | machine learning | OtterTune, Rodd NN, Ernest |
//! | [`adaptive`] | adaptive | COLT, online memory manager, dynamic partitioning |
//! | [`baselines`] | — | defaults, random search, grid search |
//!
//! [`warm`] holds the cross-session transfer primitives: distilling a past
//! observation log into seed configurations and building GP tuners
//! pre-loaded with a past session (the `autotune-serve` warm-start path).

#![warn(missing_docs)]

pub mod adaptive;
pub mod baselines;
mod bo;
pub mod cost;
pub mod experiment;
pub mod ml;
pub mod rule;
pub mod simulation;
pub mod util;
pub mod warm;
