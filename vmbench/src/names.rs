//! Every workload, metric and span name the benchmark emits.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; `tests/vmbench.rs` checks that the two agree.

/// The fig1a protocol with grid search.
pub const PAPER_TRAIN: &str = "paper-train";
/// fig1a `--fast`, fig1b and fig1c end to end.
pub const PAPER_FAST: &str = "paper-fast";
/// The 48-server faulted fleet on 2 threads, monitored every tick.
pub const FLEET_DENSE: &str = "fleet-dense";
/// The mostly idle 48-server fleet on the event clock, monitored every tick.
pub const FLEET_IDLE_EVENT: &str = "fleet-idle-event";
/// All workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = [PAPER_TRAIN, PAPER_FAST, FLEET_DENSE, FLEET_IDLE_EVENT];

/// Median wall time of one op.
pub const OP_S: &str = "op_s";
/// Median wall time of one set-up.
pub const SETUP_S: &str = "setup_s";
/// Peak resident memory of the workload's process.
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";
/// End-to-end metrics and their units, as printed with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [(OP_S, "s"), (SETUP_S, "s"), (PEAK_RSS_MIB, "MiB")];

/// Experiments run per op.
pub const SIM_EXPERIMENT_RUNS: &str = "sim.experiment.runs";
/// Self time in experiment campaigns per op.
pub const SIM_EXPERIMENT_BUSY_S: &str = "sim.experiment.busy_s";
/// Experiments run in one set-up.
pub const SIM_EXPERIMENT_SETUP_RUNS: &str = "sim.experiment.setup_runs";
/// Self time in experiment campaigns in one set-up.
pub const SIM_EXPERIMENT_SETUP_BUSY_S: &str = "sim.experiment.setup_busy_s";
/// Self time building and running dynamic scenarios per op.
pub const SIM_SCENARIO_BUSY_S: &str = "sim.scenario.busy_s";
/// Self time in `Simulation::step` per op.
pub const SIM_ENGINE_STEP_BUSY_S: &str = "sim.engine.step_busy_s";
/// Server integrations performed per op.
pub const SIM_ENGINE_SERVER_STEPS: &str = "sim.engine.server_steps";
/// Server integrations a dense fixed-step run would perform per op.
pub const SIM_ENGINE_DENSE_SERVER_STEPS: &str = "sim.engine.dense_server_steps";
/// Dense over performed server integrations.
pub const SIM_ENGINE_SKIP_FACTOR: &str = "sim.engine.skip_factor";
/// Step self time per performed server integration.
pub const SIM_ENGINE_NS_PER_SERVER_STEP: &str = "sim.engine.ns_per_server_step";
/// Step self time at the op's thread count over the same at one thread.
pub const SIM_SHARD_SERIAL_RATIO: &str = "sim.shard.serial_ratio";
/// Samples dropped by the fault injector per op.
pub const SIM_FAULT_DROPPED: &str = "sim.fault.dropped";
/// Spikes injected per op.
pub const SIM_FAULT_SPIKED: &str = "sim.fault.spiked";
/// Samples delivered with a jittered timestamp per op.
pub const SIM_FAULT_JITTERED: &str = "sim.fault.jittered";
/// Grid-search cells scored per op.
pub const SVM_GRID_CELLS: &str = "svm.grid.cells";
/// Cross-validation folds trained per op.
pub const SVM_CV_FOLDS: &str = "svm.cv.folds";
/// Time inside cross-validation folds per op, summed across threads.
pub const SVM_CV_BUSY_S: &str = "svm.cv.busy_s";
/// Self time in `StablePredictor::fit` per op.
pub const CORE_STABLE_FIT_BUSY_S: &str = "core.stable.fit_busy_s";
/// SMO solves per op.
pub const SVM_SMO_SOLVES: &str = "svm.smo.solves";
/// Time inside SMO solves per op, summed across threads.
pub const SVM_SMO_BUSY_S: &str = "svm.smo.busy_s";
/// SMO iterations per op.
pub const SVM_SMO_ITERATIONS: &str = "svm.smo.iterations";
/// Median SMO solve time (bucket-interpolated histogram quantile).
pub const SVM_SMO_SOLVE_P50_US: &str = "svm.smo.solve_p50_us";
/// 99th-percentile SMO solve time (bucket-interpolated histogram quantile).
pub const SVM_SMO_SOLVE_P99_US: &str = "svm.smo.solve_p99_us";
/// Kernel row-cache hits per op.
pub const SVM_KERNEL_CACHE_HITS: &str = "svm.kernel.cache_hits";
/// Kernel row-cache misses per op.
pub const SVM_KERNEL_CACHE_MISSES: &str = "svm.kernel.cache_misses";
/// Kernel row-cache hits over lookups.
pub const SVM_KERNEL_HIT_RATIO: &str = "svm.kernel.hit_ratio";
/// Configurations scored by the stable model per op.
pub const CORE_STABLE_PREDICT_ROWS: &str = "core.stable.predict_rows";
/// Self time scoring held-out cases with the stable model per op.
pub const CORE_STABLE_PREDICT_BUSY_S: &str = "core.stable.predict_busy_s";
/// Dynamic-predictor replays per op.
pub const CORE_DYNAMIC_EVALS: &str = "core.dynamic.evals";
/// Self time in dynamic-predictor replays per op.
pub const CORE_DYNAMIC_EVAL_BUSY_S: &str = "core.dynamic.eval_busy_s";
/// Calibration (γ) updates per op.
pub const CORE_CALIBRATION_GAMMA_UPDATES: &str = "core.calibration.gamma_updates";
/// Self time in monitor observation sweeps per op.
pub const CORE_MONITOR_OBSERVE_BUSY_S: &str = "core.monitor.observe_busy_s";
/// Observe self time per monitored server per tick.
pub const CORE_MONITOR_NS_PER_SERVER_UPDATE: &str = "core.monitor.ns_per_server_update";
/// Sensor samples the monitor ingested per op.
pub const CORE_MONITOR_SAMPLES_INGESTED: &str = "core.monitor.samples_ingested";
/// Forecasts scored against matured readings per op.
pub const CORE_MONITOR_FORECASTS_SCORED: &str = "core.monitor.forecasts_scored";
/// Forecasts scored over forecasts issued.
pub const CORE_MONITOR_SCORED_RATIO: &str = "core.monitor.scored_ratio";
/// Predictor re-anchors per op.
pub const CORE_MONITOR_REANCHORS: &str = "core.monitor.reanchors";
/// Median traced op wall time over median untraced op wall time.
pub const OBS_OVERHEAD_RATIO: &str = "obs.overhead_ratio";
/// Interquartile range of each traced op over the untraced median.
pub const OBS_OVERHEAD_RATIO_IQR: &str = "obs.overhead_ratio_iqr";
/// Share of traced op wall time that no layer span covers.
pub const TRACE_UNATTRIBUTED_RATIO: &str = "trace.unattributed_ratio";

/// Per-layer metrics and their units, as printed with tracing on.
pub const PER_LAYER: [(&str, &str); 40] = [
    (SIM_EXPERIMENT_RUNS, "count"),
    (SIM_EXPERIMENT_BUSY_S, "s"),
    (SIM_EXPERIMENT_SETUP_RUNS, "count"),
    (SIM_EXPERIMENT_SETUP_BUSY_S, "s"),
    (SIM_SCENARIO_BUSY_S, "s"),
    (SIM_ENGINE_STEP_BUSY_S, "s"),
    (SIM_ENGINE_SERVER_STEPS, "count"),
    (SIM_ENGINE_DENSE_SERVER_STEPS, "count"),
    (SIM_ENGINE_SKIP_FACTOR, "ratio"),
    (SIM_ENGINE_NS_PER_SERVER_STEP, "ns"),
    (SIM_SHARD_SERIAL_RATIO, "ratio"),
    (SIM_FAULT_DROPPED, "count"),
    (SIM_FAULT_SPIKED, "count"),
    (SIM_FAULT_JITTERED, "count"),
    (SVM_GRID_CELLS, "count"),
    (SVM_CV_FOLDS, "count"),
    (SVM_CV_BUSY_S, "s"),
    (CORE_STABLE_FIT_BUSY_S, "s"),
    (SVM_SMO_SOLVES, "count"),
    (SVM_SMO_BUSY_S, "s"),
    (SVM_SMO_ITERATIONS, "count"),
    (SVM_SMO_SOLVE_P50_US, "us"),
    (SVM_SMO_SOLVE_P99_US, "us"),
    (SVM_KERNEL_CACHE_HITS, "count"),
    (SVM_KERNEL_CACHE_MISSES, "count"),
    (SVM_KERNEL_HIT_RATIO, "ratio"),
    (CORE_STABLE_PREDICT_ROWS, "count"),
    (CORE_STABLE_PREDICT_BUSY_S, "s"),
    (CORE_DYNAMIC_EVALS, "count"),
    (CORE_DYNAMIC_EVAL_BUSY_S, "s"),
    (CORE_CALIBRATION_GAMMA_UPDATES, "count"),
    (CORE_MONITOR_OBSERVE_BUSY_S, "s"),
    (CORE_MONITOR_NS_PER_SERVER_UPDATE, "ns"),
    (CORE_MONITOR_SAMPLES_INGESTED, "count"),
    (CORE_MONITOR_FORECASTS_SCORED, "count"),
    (CORE_MONITOR_SCORED_RATIO, "ratio"),
    (CORE_MONITOR_REANCHORS, "count"),
    (OBS_OVERHEAD_RATIO, "ratio"),
    (OBS_OVERHEAD_RATIO_IQR, "ratio"),
    (TRACE_UNATTRIBUTED_RATIO, "ratio"),
];

/// Top-level span around one op.
pub const OP: &str = "op";
/// Top-level span around the traced set-up.
pub const SETUP: &str = "setup";
/// Span around an experiment campaign (`training_campaign`, `run_experiments`).
pub const EXPERIMENT: &str = "sim.experiment";
/// Span around building and running one dynamic scenario.
pub const SCENARIO: &str = "sim.scenario";
/// Span around building a fleet simulation and its monitor.
pub const BUILD: &str = "sim.build";
/// Span around one `Simulation::step`.
pub const STEP: &str = "sim.engine.step";
/// Span around `StablePredictor::fit`.
pub const FIT: &str = "core.stable.fit";
/// Span around scoring held-out cases with the stable model.
pub const PREDICT: &str = "core.stable.predict";
/// Span around one dynamic-predictor replay.
pub const DYNAMIC: &str = "core.dynamic.eval";
/// Span around one monitor observation sweep.
pub const OBSERVE: &str = "core.monitor.observe";
