//! # vmtherm
//!
//! Umbrella crate for the **vmtherm** workspace — a production-quality Rust
//! reproduction of *"Virtual Machine Level Temperature Profiling and
//! Prediction in Cloud Datacenters"* (Wu et al., ICDCS 2016).
//!
//! It re-exports the four member crates, plus the unit newtypes as
//! [`units`]:
//!
//! - [`svm`] (`vmtherm-svm`) — ε-SVR with an SMO
//!   solver, kernels, scaling, cross-validation and grid search (the
//!   LIBSVM + easygrid substitute).
//! - [`sim`] (`vmtherm-sim`) — the datacenter thermal simulator standing in
//!   for the paper's physical testbed.
//! - [`core`] (`vmtherm-core`) — the paper's contribution: stable (SVR) and
//!   dynamic (calibrated curve) CPU temperature prediction, baselines,
//!   evaluation, and thermal management.
//! - [`obs`] (`vmtherm-obs`) — dependency-free observability: metrics
//!   registry, span timers and the schema-versioned JSONL event log that
//!   the pipeline is instrumented with.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `vmtherm-bench` for the figure-regeneration harness.
//!
//! ```
//! use vmtherm::core::WarmupCurve;
//! use vmtherm::units::{Celsius, Seconds};
//!
//! let curve = WarmupCurve::standard(Celsius::new(30.0), Celsius::new(60.0));
//! assert_eq!(curve.value(Seconds::ZERO), 30.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use vmtherm_core as core;
pub use vmtherm_obs as obs;
pub use vmtherm_sim as sim;
pub use vmtherm_svm as svm;

/// Unit-safety newtypes ([`Celsius`](units::Celsius),
/// [`Watts`](units::Watts), [`Seconds`](units::Seconds),
/// [`Utilization`](units::Utilization)) shared by every member crate.
pub mod units {
    pub use vmtherm_units::*;
}
