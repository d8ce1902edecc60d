//! # vmtherm-core
//!
//! VM-level CPU temperature profiling and prediction for cloud
//! datacenters — a from-scratch reproduction of **Wu, Li, Garraghan,
//! Jiang, Ye & Zomaya, "Virtual Machine Level Temperature Profiling and
//! Prediction in Cloud Datacenters", ICDCS 2016**.
//!
//! Two predictors, exactly as in the paper:
//!
//! 1. **Stable temperature** ([`stable::StablePredictor`]): an ε-SVR with
//!    RBF kernel (grid-searched, 10-fold CV) maps the Eq. (2) feature
//!    vector `(θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env)` to the stable CPU
//!    temperature ψ_stable of Eq. (1).
//! 2. **Dynamic temperature** ([`dynamic::DynamicPredictor`]): the
//!    pre-defined logarithmic curve ψ*(t) of Eq. (3), calibrated online
//!    with learning rate λ = 0.8 every Δ_update seconds (Eqs. 4–8), and
//!    re-anchored at reconfigurations (VM boot/stop/migration).
//!
//! Plus the baselines the paper positions itself against
//! ([`baseline`]: RC model \[5\], task-temperature profiles \[4\], naive
//! persistence, linear regression), the evaluation harness ([`eval`]) and
//! a thermal anomaly detector that turns persistent prediction residuals
//! into fault alarms ([`anomaly`]). Further extensions: split-conformal
//! prediction intervals ([`interval`]), predictive CRAC setpoint
//! optimization ([`setpoint`]) and a fleet monitor with automatic
//! re-anchoring ([`monitor`]).
//!
//! ## End-to-end example
//!
//! ```
//! use vmtherm_core::dynamic::{DynamicConfig, DynamicPredictor};
//! use vmtherm_core::predictor::OnlinePredictor;
//! use vmtherm_core::stable::{run_experiments, StablePredictor, TrainingOptions};
//! use vmtherm_core::units::{Celsius, Seconds};
//! use vmtherm_sim::{CaseGenerator, SimDuration};
//! use vmtherm_svm::svr::SvrParams;
//!
//! # fn main() -> Result<(), vmtherm_core::error::PredictError> {
//! // 1. Collect training records (the paper's experiment campaign).
//! let mut cases = CaseGenerator::new(7);
//! let configs: Vec<_> = cases
//!     .random_cases(12, 0)
//!     .into_iter()
//!     .map(|c| c.with_duration(SimDuration::from_secs(700)))
//!     .collect();
//! let outcomes = run_experiments(&configs);
//!
//! // 2. Train the stable model (fixed params here; grid search by default).
//! let options = TrainingOptions::new().with_params(SvrParams::new().with_c(64.0));
//! let stable = StablePredictor::fit(&outcomes, &options)?;
//!
//! // 3. Predict ψ_stable for a configuration, then run the dynamic
//! //    predictor from the current temperature toward it.
//! let snapshot = &outcomes[0].snapshot;
//! let psi = stable.predict(snapshot);
//! let mut dynamic = DynamicPredictor::new(DynamicConfig::new())?;
//! dynamic.anchor(Seconds::ZERO, Celsius::new(25.0), Celsius::new(psi));
//! dynamic.observe(Seconds::new(15.0), Celsius::new(31.0));
//! let forecast = dynamic.predict_ahead(Seconds::new(15.0), Seconds::new(60.0)); // ψ(75) per Eq. (8)
//! assert!(forecast.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library code is panic-free: a vetted unwrap/expect/panic carries an
// `#[expect(..., reason = "...")]` at the statement, and xtask lint L10
// pins how many there are (test code is exempt through clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Replay determinism: no hash-ordered collections, wall clocks or threads
// outside index-addressed merges (the list is in clippy.toml).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// `!(x > 0.0)` rejects NaN as well as non-positive values — the validation
// idiom used throughout; and numeric solver loops index several parallel
// arrays at once, where iterator zips would obscure the maths.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod anomaly;
pub mod baseline;
pub mod calibration;
pub mod curve;
pub mod dynamic;
pub mod error;
pub mod eval;
pub mod features;
pub mod fleet;
pub mod interval;
pub mod monitor;
pub mod predictor;
pub mod setpoint;
pub mod stable;
/// Unit-safety newtypes shared across the workspace, re-exported from
/// [`vmtherm_units`] so predictor callers need only one dependency.
pub mod units {
    pub use vmtherm_units::*;
}

pub use anomaly::{ResidualDetector, ThermalWatchdog};
pub use calibration::Calibrator;
pub use curve::WarmupCurve;
pub use dynamic::{DynamicConfig, DynamicPredictor};
pub use error::PredictError;
pub use features::FeatureEncoding;
pub use interval::{Interval, IntervalPredictor};
pub use monitor::{DegradationStats, FleetMonitor};
pub use predictor::OnlinePredictor;
pub use setpoint::{SetpointAdvice, SetpointOptimizer, SetpointSearch};
pub use stable::{StablePredictor, TrainingOptions};
