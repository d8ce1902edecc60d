//! The single definition point for every metric, span, and alert name in
//! the workspace.
//!
//! Lint rule L5 enforces that constants prefixed `METRIC_`, `SPAN_`, or
//! `ALERT_` are defined only here, so dashboards and docs can trust one
//! canonical list. Per-server gauges append a `{server="N"}` label suffix
//! to the base names below (via [`server_gauge`] / [`labeled_metric`],
//! which escape label values); the registry treats the full labelled
//! string as an opaque key.

/// Engine steps executed (counter).
pub const METRIC_ENGINE_STEPS: &str = "vmtherm_engine_steps_total";
/// Wall-clock nanoseconds per engine step (histogram, ns buckets).
pub const METRIC_ENGINE_STEP_NS: &str = "vmtherm_engine_step_ns";
/// Simulation events applied by the engine (counter).
pub const METRIC_ENGINE_EVENTS: &str = "vmtherm_engine_events_total";
/// RK4 substeps the thermal integrator ran, without those it skipped at a
/// bitwise fixed point (counter).
pub const METRIC_THERMAL_SUBSTEPS: &str = "vmtherm_thermal_substeps_total";
/// Wall-clock nanoseconds per SMO solve (histogram, ns buckets).
pub const METRIC_SMO_SOLVE_NS: &str = "vmtherm_smo_solve_ns";
/// SMO optimizer iterations across all solves (counter).
pub const METRIC_SMO_ITERATIONS: &str = "vmtherm_smo_iterations_total";
/// Kernel row-cache hits across all solves (counter).
pub const METRIC_KERNEL_CACHE_HITS: &str = "vmtherm_kernel_cache_hits_total";
/// Kernel row-cache misses across all solves (counter).
pub const METRIC_KERNEL_CACHE_MISSES: &str = "vmtherm_kernel_cache_misses_total";
/// Cross-validation folds trained (counter).
pub const METRIC_CV_FOLDS: &str = "vmtherm_cv_folds_total";
/// Calibration (γ) updates applied (counter).
pub const METRIC_GAMMA_UPDATES: &str = "vmtherm_gamma_updates_total";
/// Re-anchor operations across the fleet (counter).
pub const METRIC_REANCHOR_TOTAL: &str = "vmtherm_reanchor_total";
/// Sensor samples ingested by the fleet monitor (counter).
pub const METRIC_SAMPLES_INGESTED: &str = "vmtherm_samples_ingested_total";
/// Forecasts issued by the fleet monitor (counter).
pub const METRIC_FORECASTS_ISSUED: &str = "vmtherm_forecasts_issued_total";
/// Forecasts scored against matured ground truth (counter).
pub const METRIC_FORECASTS_SCORED: &str = "vmtherm_forecasts_scored_total";
/// Absolute forecast error in °C (histogram, °C buckets).
pub const METRIC_FORECAST_ABS_ERR_C: &str = "vmtherm_forecast_abs_err_celsius";

/// Base name of the per-server rolling-MSE gauge (°C²).
pub const METRIC_MONITOR_ROLLING_MSE: &str = "vmtherm_monitor_rolling_mse";
/// Base name of the per-server |γ| gauge.
pub const METRIC_MONITOR_GAMMA_ABS: &str = "vmtherm_monitor_gamma_abs";
/// Base name of the per-server seconds-since-re-anchor gauge.
pub const METRIC_MONITOR_SINCE_REANCHOR: &str = "vmtherm_monitor_since_reanchor_secs";
/// Base name of the per-server forecast-maturity queue-depth gauge.
pub const METRIC_MONITOR_PENDING: &str = "vmtherm_monitor_pending_forecasts";
/// Base name of the per-server holdover gauge (1 while the stream is stale
/// and the monitor is forecasting without fresh samples, else 0).
pub const METRIC_MONITOR_HOLDOVER: &str = "vmtherm_monitor_holdover";
/// Base name of the per-server absolute-forecast-error summary (°C,
/// p50/p95/p99 via the P² sketch).
pub const METRIC_MONITOR_PRED_ABS_ERR: &str = "vmtherm_monitor_pred_abs_err_c";
/// Base name of the per-server thermal-headroom gauge (°C below the
/// configured die-temperature limit).
pub const METRIC_MONITOR_TEMP_HEADROOM: &str = "vmtherm_monitor_temp_headroom_c";
/// Wall-clock nanoseconds per fleet-monitor observation sweep (summary).
pub const METRIC_MONITOR_OBSERVE_NS: &str = "vmtherm_monitor_observe_ns";
/// Fleet-wide MSE over all matured forecasts, reduced deterministically
/// in server-index order by the fleet monitor (gauge, degC squared).
pub const METRIC_MONITOR_FLEET_MSE: &str = "vmtherm_monitor_fleet_mse";
/// Fleet-level p95 absolute forecast error merged from the per-server
/// P squared sketches in server-index order (gauge, degC).
pub const METRIC_MONITOR_FLEET_PRED_ERR_P95: &str = "vmtherm_monitor_fleet_pred_abs_err_p95_c";

/// Sensor samples dropped by the fault injector (counter).
pub const METRIC_FAULT_DROPPED_SAMPLES: &str = "vmtherm_fault_dropped_samples_total";
/// Sensor samples replaced by a stuck-at value (counter).
pub const METRIC_FAULT_STUCK_SAMPLES: &str = "vmtherm_fault_stuck_samples_total";
/// Spike outliers injected into delivered samples (counter).
pub const METRIC_FAULT_SPIKES_INJECTED: &str = "vmtherm_fault_spikes_injected_total";
/// Samples delivered with a jittered (skewed) timestamp (counter).
pub const METRIC_FAULT_JITTERED_SAMPLES: &str = "vmtherm_fault_jittered_samples_total";
/// Reconfiguration events lost before reaching monitoring (counter).
pub const METRIC_FAULT_EVENTS_LOST: &str = "vmtherm_fault_events_lost_total";

/// Out-of-order samples absorbed by the monitor's holdover path (counter).
pub const METRIC_MONITOR_OOO_ABSORBED: &str = "vmtherm_monitor_ooo_absorbed_total";
/// Spike outliers rejected before reaching the γ calibrator (counter).
pub const METRIC_MONITOR_SPIKES_REJECTED: &str = "vmtherm_monitor_spikes_rejected_total";
/// Samples flagged as a suspected stuck sensor (counter).
pub const METRIC_MONITOR_STUCK_SUSPECTED: &str = "vmtherm_monitor_stuck_suspected_total";
/// Times a server stream went stale and entered holdover (counter).
pub const METRIC_MONITOR_HOLDOVER_ENTRIES: &str = "vmtherm_monitor_holdover_entries_total";
/// Forced re-anchors triggered by stream recovery (counter).
pub const METRIC_MONITOR_RECOVERY_REANCHORS: &str = "vmtherm_monitor_recovery_reanchors_total";
/// Pending forecasts expired unscored because their target fell inside a
/// telemetry gap (counter).
pub const METRIC_MONITOR_FORECASTS_EXPIRED: &str = "vmtherm_monitor_forecasts_expired_total";

/// Top-level span around a scripted experiment run.
pub const SPAN_EXPERIMENT_RUN: &str = "experiment_run";
/// Span around a batch of engine steps (`run_until` / `run_for`).
pub const SPAN_ENGINE_RUN: &str = "engine_run";
/// Span around fitting the stable SVR predictor.
pub const SPAN_STABLE_TRAIN: &str = "stable_train";
/// Span around a single SMO solve.
pub const SPAN_SMO_SOLVE: &str = "smo_solve";
/// Span around one cross-validation fold.
pub const SPAN_CV_FOLD: &str = "cv_fold";
/// Span around replaying a series through a dynamic predictor.
pub const SPAN_DYNAMIC_EVAL: &str = "dynamic_eval";
/// Span around one fleet-monitor observation sweep.
pub const SPAN_MONITOR_OBSERVE: &str = "monitor_observe";

/// HTTP requests handled by the scrape server (counter).
pub const METRIC_SCRAPE_REQUESTS: &str = "vmtherm_scrape_requests_total";

/// Alert-rule transitions into the firing state (counter).
pub const ALERT_FIRED_TOTAL: &str = "vmtherm_alerts_fired_total";
/// Alert-rule transitions back to inactive (counter).
pub const ALERT_CLEARED_TOTAL: &str = "vmtherm_alerts_cleared_total";
/// Alert instances currently firing (gauge).
pub const ALERT_ACTIVE: &str = "vmtherm_alerts_active";
/// Base name of the per-rule firing gauge (1 while firing, labelled
/// `{alert="rule-name"}`).
pub const ALERT_ACTIVE_BASE: &str = "vmtherm_alert_active";
/// Flight-recorder incident dumps written on alert firings (counter).
pub const ALERT_DUMPS_TOTAL: &str = "vmtherm_alert_flight_dumps_total";

/// Renders a labelled metric key with escaped label values, e.g.
/// `vmtherm_alert_active{alert="headroom"}`. The registry treats the full
/// string as an opaque key; escaping here keeps the Prometheus exposition
/// valid for pathological label values.
pub fn labeled_metric(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", crate::registry::escape_label_value(v)))
        .collect();
    format!("{base}{{{}}}", body.join(","))
}

/// Renders a per-server gauge key, e.g. `vmtherm_monitor_rolling_mse{server="3"}`.
pub fn server_gauge(base: &str, server: usize) -> String {
    labeled_metric(base, &[("server", &server.to_string())])
}

/// `# HELP` text for the workspace's canonical metric families; `None` for
/// names the registry picked up outside this module.
#[must_use]
pub fn help(base: &str) -> Option<&'static str> {
    Some(match base {
        _ if base == METRIC_ENGINE_STEPS => "Engine steps executed.",
        _ if base == METRIC_ENGINE_STEP_NS => "Wall-clock nanoseconds per engine step.",
        _ if base == METRIC_ENGINE_EVENTS => "Simulation events applied by the engine.",
        _ if base == METRIC_THERMAL_SUBSTEPS => {
            "RK4 substeps the thermal integrator ran; substeps skipped at a bitwise fixed point are not counted."
        }
        _ if base == METRIC_SMO_SOLVE_NS => "Wall-clock nanoseconds per SMO solve.",
        _ if base == METRIC_SMO_ITERATIONS => "SMO optimizer iterations across all solves.",
        _ if base == METRIC_KERNEL_CACHE_HITS => "Kernel row-cache hits across all solves.",
        _ if base == METRIC_KERNEL_CACHE_MISSES => "Kernel row-cache misses across all solves.",
        _ if base == METRIC_CV_FOLDS => "Cross-validation folds trained.",
        _ if base == METRIC_GAMMA_UPDATES => "Calibration (gamma) updates applied.",
        _ if base == METRIC_REANCHOR_TOTAL => "Re-anchor operations across the fleet.",
        _ if base == METRIC_SAMPLES_INGESTED => "Sensor samples ingested by the fleet monitor.",
        _ if base == METRIC_FORECASTS_ISSUED => "Forecasts issued by the fleet monitor.",
        _ if base == METRIC_FORECASTS_SCORED => "Forecasts scored against matured ground truth.",
        _ if base == METRIC_FORECAST_ABS_ERR_C => "Absolute forecast error in Celsius.",
        _ if base == METRIC_MONITOR_ROLLING_MSE => "Per-server rolling MSE over recent forecasts.",
        _ if base == METRIC_MONITOR_GAMMA_ABS => "Per-server absolute calibration gamma.",
        _ if base == METRIC_MONITOR_SINCE_REANCHOR => "Per-server seconds since last re-anchor.",
        _ if base == METRIC_MONITOR_PENDING => "Per-server forecast-maturity queue depth.",
        _ if base == METRIC_MONITOR_HOLDOVER => "Per-server holdover flag (1 while stale).",
        _ if base == METRIC_MONITOR_PRED_ABS_ERR => {
            "Per-server absolute forecast error summary in Celsius."
        }
        _ if base == METRIC_MONITOR_TEMP_HEADROOM => {
            "Per-server Celsius of headroom below the die-temperature limit."
        }
        _ if base == METRIC_MONITOR_OBSERVE_NS => {
            "Wall-clock nanoseconds per fleet-monitor observation sweep."
        }
        _ if base == METRIC_MONITOR_FLEET_MSE => {
            "Fleet-wide MSE over all matured forecasts (deterministic reduce)."
        }
        _ if base == METRIC_MONITOR_FLEET_PRED_ERR_P95 => {
            "Fleet-level p95 absolute forecast error merged from per-server sketches."
        }
        _ if base == METRIC_FAULT_DROPPED_SAMPLES => "Samples dropped by the fault injector.",
        _ if base == METRIC_FAULT_STUCK_SAMPLES => "Samples replaced by a stuck-at value.",
        _ if base == METRIC_FAULT_SPIKES_INJECTED => "Spike outliers injected into deliveries.",
        _ if base == METRIC_FAULT_JITTERED_SAMPLES => "Samples delivered with a skewed timestamp.",
        _ if base == METRIC_FAULT_EVENTS_LOST => "Reconfiguration events lost before monitoring.",
        _ if base == METRIC_MONITOR_OOO_ABSORBED => "Out-of-order samples absorbed.",
        _ if base == METRIC_MONITOR_SPIKES_REJECTED => "Spike outliers rejected by the monitor.",
        _ if base == METRIC_MONITOR_STUCK_SUSPECTED => "Samples quarantined as stuck-sensor.",
        _ if base == METRIC_MONITOR_HOLDOVER_ENTRIES => "Times a stream went stale into holdover.",
        _ if base == METRIC_MONITOR_RECOVERY_REANCHORS => "Forced re-anchors on stream recovery.",
        _ if base == METRIC_MONITOR_FORECASTS_EXPIRED => {
            "Forecasts expired unscored inside telemetry gaps."
        }
        _ if base == METRIC_SCRAPE_REQUESTS => "HTTP requests handled by the scrape server.",
        _ if base == ALERT_FIRED_TOTAL => "Alert-rule transitions into the firing state.",
        _ if base == ALERT_CLEARED_TOTAL => "Alert-rule transitions back to inactive.",
        _ if base == ALERT_ACTIVE => "Alert instances currently firing.",
        _ if base == ALERT_ACTIVE_BASE => "Per-rule firing flag (1 while firing).",
        _ if base == ALERT_DUMPS_TOTAL => "Flight-recorder incident dumps written.",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_gauge_embeds_label() {
        assert_eq!(
            server_gauge(METRIC_MONITOR_GAMMA_ABS, 2),
            "vmtherm_monitor_gamma_abs{server=\"2\"}"
        );
    }

    #[test]
    fn labeled_metric_escapes_values() {
        assert_eq!(labeled_metric("m", &[]), "m");
        assert_eq!(
            labeled_metric("m", &[("alert", "a\"b\\c"), ("server", "1")]),
            "m{alert=\"a\\\"b\\\\c\",server=\"1\"}"
        );
    }

    #[test]
    fn canonical_families_have_help_text() {
        for base in [
            METRIC_ENGINE_STEPS,
            METRIC_MONITOR_PRED_ABS_ERR,
            METRIC_MONITOR_TEMP_HEADROOM,
            ALERT_FIRED_TOTAL,
            ALERT_ACTIVE_BASE,
        ] {
            assert!(help(base).is_some(), "no help for {base}");
        }
        assert!(help("third_party_metric").is_none());
    }
}
