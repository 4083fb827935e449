//! # autotune-core
//!
//! The tuning framework at the centre of the `autotune` workspace: typed
//! knob specifications and configuration spaces, the [`Objective`]
//! abstraction over tunable systems, the [`Tuner`] trait with the paper's
//! six-family taxonomy, observation histories, knob rankings, and the
//! session driver that runs a tuner against an objective under a budget.
//!
//! This crate is deliberately system-agnostic: the simulated DBMS, Hadoop,
//! and Spark targets live in `autotune-sim`, and the concrete tuner
//! implementations in `autotune-tuners`. A downstream user tuning a *real*
//! system only needs to implement [`Objective`].
//!
//! ```
//! use autotune_core::prelude::*;
//!
//! // A two-knob space and its vendor-default configuration.
//! let space = ConfigSpace::new(vec![
//!     ParamSpec::int_log("buffer_mb", 64, 8192, 128, "buffer pool size"),
//!     ParamSpec::float("fraction", 0.0, 1.0, 0.25, "memory fraction"),
//! ]);
//! let default = space.default_config();
//! assert!(space.validate_config(&default).is_ok());
//! let encoded = space.encode(&default);
//! assert_eq!(encoded.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod history;
pub mod id;
pub mod objective;
pub mod param;
pub mod pareto;
pub mod ranking;
pub mod session;
pub mod space;
pub mod tuner;

pub use error::{CoreError, CoreResult};
pub use export::{config_to_properties, history_to_csv};
pub use history::History;
pub use id::SessionId;
pub use objective::{
    Budget, FunctionObjective, Metrics, Objective, Observation, SystemKind, SystemProfile,
    WorkloadClass,
};
pub use param::{ParamDomain, ParamSpec, ParamValue};
pub use pareto::{cheapest_within_deadline, hypervolume, pareto_front, ParetoPoint};
pub use ranking::KnobRanking;
pub use session::{tune, TuningOutcome, TuningSession};
pub use space::{ConfigSpace, Configuration};
pub use tuner::{Recommendation, SurrogateStats, Tuner, TunerFamily, TuningContext};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::export::{config_to_properties, history_to_csv};
    pub use crate::history::History;
    pub use crate::id::SessionId;
    pub use crate::objective::{
        Budget, FunctionObjective, Metrics, Objective, Observation, SystemKind, SystemProfile,
        WorkloadClass,
    };
    pub use crate::param::{ParamDomain, ParamSpec, ParamValue};
    pub use crate::pareto::{cheapest_within_deadline, pareto_front, ParetoPoint};
    pub use crate::ranking::KnobRanking;
    pub use crate::session::{tune, TuningOutcome, TuningSession};
    pub use crate::space::{ConfigSpace, Configuration};
    pub use crate::tuner::{Recommendation, Tuner, TunerFamily, TuningContext};
}
