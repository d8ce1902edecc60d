//! # vmtherm-sim
//!
//! A discrete-time **datacenter thermal simulator**: servers with lumped-RC
//! thermal networks, power models driven by per-VM workloads, fans,
//! quantized noisy temperature sensors, room ambient models, live VM
//! migration and an event-driven engine.
//!
//! It stands in for the physical testbed of *"Virtual Machine Level
//! Temperature Profiling and Prediction in Cloud Datacenters"*
//! (Wu et al., ICDCS 2016): where the authors ran experiments on real
//! servers and read IPMI sensors, this crate runs the same protocol on
//! simulated physics. The learned models in `vmtherm-core` only ever see
//! `(configuration, sensor reading)` pairs — never the physics — exactly
//! as in the paper.
//!
//! ## Quick start: one experiment record
//!
//! ```
//! use vmtherm_sim::experiment::ExperimentConfig;
//! use vmtherm_sim::server::ServerSpec;
//! use vmtherm_sim::units::Celsius;
//! use vmtherm_sim::vm::VmSpec;
//! use vmtherm_sim::workload::TaskProfile;
//!
//! let config = ExperimentConfig::new(
//!     ServerSpec::standard("node-1"),
//!     vec![
//!         VmSpec::new("web", 2, 4.0, TaskProfile::WebServer),
//!         VmSpec::new("batch", 4, 8.0, TaskProfile::CpuBound),
//!     ],
//!     Celsius::new(25.0), // ambient
//!     42,                 // seed
//! );
//! let outcome = config.run();
//! // ψ_stable: mean sensor temperature after t_break = 600 s (Eq. 1).
//! assert!(outcome.psi_stable > 25.0);
//! ```
//!
//! ## Module map
//!
//! - [`time`] — millisecond-precision simulation clock
//! - [`workload`] — task profiles and utilization traces (ξ_VM's tasks)
//! - [`vm`] / [`server`] / [`datacenter`] — the modelled fleet
//! - [`power`] / [`thermal`] / [`fan`] / [`sensor`] / [`environment`] — physics
//! - [`migration`] — live pre-copy migration costs
//! - [`engine`] — event-driven stepping and telemetry
//! - [`telemetry`] — time series and traces
//! - [`experiment`] — the paper's run-to-stable record collection protocol
//! - [`scenario`] — declarative scenarios, the seeded fuzzer's generator,
//!   differential-oracle battery and shrinker

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

pub mod cooling;
pub mod datacenter;
/// Unit-safety newtypes shared across the workspace, re-exported from
/// [`vmtherm_units`] so simulator callers need only one dependency.
pub mod units {
    pub use vmtherm_units::*;
}
pub mod engine;
pub mod environment;
pub mod error;
pub mod experiment;
pub mod fan;
pub mod fault;
pub mod migration;
pub mod power;
pub mod scenario;
pub mod sensor;
pub mod server;
pub mod telemetry;
pub mod thermal;
pub mod time;
pub mod vm;
pub mod workload;

pub use datacenter::Datacenter;
pub use engine::{ClockMode, Event, SimEvent, Simulation, StepStats};
pub use environment::AmbientModel;
pub use error::SimError;
pub use experiment::{CaseGenerator, ConfigSnapshot, ExperimentConfig, ExperimentOutcome};
pub use fault::{
    DropoutFault, FaultPlan, FaultStats, JitterFault, LostEventFault, SpikeFault, StuckFault,
};
pub use scenario::{
    oracle::{OracleFailure, ScenarioReport},
    shrink::ShrinkResult,
    Scenario,
};
pub use server::{Server, ServerId, ServerSpec};
pub use telemetry::{Series, ServerTrace, TelemetryError, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use vm::{Vm, VmId, VmSpec};
pub use workload::TaskProfile;
