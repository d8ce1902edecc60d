//! Fleet monitoring: the paper's deployment mode as a reusable component.
//!
//! "Then the model received data collected online and output prediction
//! values" — [`FleetMonitor`] wires one calibrated [`DynamicPredictor`]
//! per server to a running simulation: it consumes sensor samples, watches
//! the event log and **re-anchors automatically** on every reconfiguration
//! (VM boot/stop, migration start/completion) using fresh ψ_stable
//! predictions from the stable model, while scoring each forecast when its
//! target time arrives.

use crate::dynamic::{DynamicConfig, DynamicPredictor};
use crate::error::PredictError;
use crate::predictor::OnlinePredictor;
use crate::stable::StablePredictor;
use std::collections::VecDeque;
use vmtherm_obs::{self as obs, names, ObsEvent};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_sim::{ServerId, SimEvent, SimTime, Simulation, TelemetryError, TimeSeries};
use vmtherm_units::{Celsius, Seconds};

static OBS_REANCHORS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_REANCHOR_TOTAL);
static OBS_SAMPLES: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_SAMPLES_INGESTED);
static OBS_ISSUED: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FORECASTS_ISSUED);
static OBS_SCORED: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FORECASTS_SCORED);
static OBS_ABS_ERR: obs::LazyHistogram = obs::LazyHistogram::new(
    names::METRIC_FORECAST_ABS_ERR_C,
    obs::Histogram::celsius_buckets,
);
static OBS_OOO: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_MONITOR_OOO_ABSORBED);
static OBS_SPIKES_REJECTED: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_MONITOR_SPIKES_REJECTED);
static OBS_STUCK_SUSPECTED: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_MONITOR_STUCK_SUSPECTED);
static OBS_HOLDOVER_ENTRIES: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_MONITOR_HOLDOVER_ENTRIES);
static OBS_RECOVERY_REANCHORS: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_MONITOR_RECOVERY_REANCHORS);
static OBS_EXPIRED: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_MONITOR_FORECASTS_EXPIRED);
static OBS_OBSERVE_NS: obs::LazySummary = obs::LazySummary::new(names::METRIC_MONITOR_OBSERVE_NS);

/// Forecast errors kept per server for the rolling-MSE drift gauge.
const ROLLING_WINDOW: usize = 128;

/// Default die-temperature limit (°C) the headroom gauge measures against;
/// a common throttle point for commodity server CPUs.
pub const DEFAULT_TEMP_LIMIT_C: f64 = 85.0;

/// Per-server drift gauges, registered against the global registry with a
/// `{server="N"}` label when the observability layer is enabled.
#[derive(Debug)]
struct ServerGauges {
    rolling_mse: obs::Gauge,
    gamma_abs: obs::Gauge,
    since_reanchor: obs::Gauge,
    pending: obs::Gauge,
    holdover: obs::Gauge,
    /// °C below the configured die-temperature limit at the latest sample.
    headroom: obs::Gauge,
    /// Absolute forecast-error summary (p50/p95/p99 via the P² sketch).
    pred_err: obs::Summary,
}

impl ServerGauges {
    fn register(server: usize) -> ServerGauges {
        let reg = obs::global();
        ServerGauges {
            rolling_mse: reg.gauge(&names::server_gauge(
                names::METRIC_MONITOR_ROLLING_MSE,
                server,
            )),
            gamma_abs: reg.gauge(&names::server_gauge(
                names::METRIC_MONITOR_GAMMA_ABS,
                server,
            )),
            since_reanchor: reg.gauge(&names::server_gauge(
                names::METRIC_MONITOR_SINCE_REANCHOR,
                server,
            )),
            pending: reg.gauge(&names::server_gauge(names::METRIC_MONITOR_PENDING, server)),
            holdover: reg.gauge(&names::server_gauge(names::METRIC_MONITOR_HOLDOVER, server)),
            headroom: reg.gauge(&names::server_gauge(
                names::METRIC_MONITOR_TEMP_HEADROOM,
                server,
            )),
            pred_err: reg.summary(&names::server_gauge(
                names::METRIC_MONITOR_PRED_ABS_ERR,
                server,
            )),
        }
    }
}

/// How the monitor degrades when the telemetry stream misbehaves.
///
/// All thresholds are in the simulation's units (seconds, °C). The
/// defaults are conservative for 1 s sampling: a 30 s silence is a stale
/// stream, a 12 °C instantaneous deviation from the calibrated curve is a
/// spike (the physics moves a few tenths of a degree per second), and 30
/// bit-identical readings in a row from a noisy quantized sensor mean the
/// sensor is stuck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Silence (s) after which a server stream is stale and the monitor
    /// enters holdover: it keeps forecasting from the anchored curve but
    /// stops pretending it has fresh ground truth.
    pub staleness_secs: f64,
    /// Absolute deviation (°C) from the calibrated prediction beyond which
    /// a sample is rejected as a spike and never reaches the γ calibrator
    /// (protects Eq. 5–6 from single-outlier poisoning).
    pub spike_threshold_c: f64,
    /// Bit-identical consecutive readings before a sensor is declared
    /// stuck and quarantined from calibration. Sensor noise plus
    /// quantization make accidental exact repeats of this length
    /// essentially impossible, and the gate must not depend on the
    /// calibrated prediction: by the time the run is this long, γ has
    /// already chased the frozen value, so a deviation test would never
    /// fire (exactly the poisoning this policy exists to stop).
    pub stuck_run: usize,
    /// How far (s) a matured forecast's target may sit past the newest
    /// accepted sample and still be scored against it; targets that fell
    /// deeper into a telemetry gap expire unscored.
    pub score_tolerance_secs: f64,
    /// Force exactly one re-anchor when a stale stream recovers, so the
    /// curve restarts from the measured temperature instead of trusting a
    /// calibration that drifted blind through the gap.
    pub reanchor_on_recovery: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            staleness_secs: 30.0,
            spike_threshold_c: 12.0,
            stuck_run: 30,
            score_tolerance_secs: 2.0,
            reanchor_on_recovery: true,
        }
    }
}

impl DegradationPolicy {
    fn validate(&self) -> Result<(), PredictError> {
        if !(self.staleness_secs > 0.0) {
            return Err(PredictError::invalid(
                "staleness_secs",
                format!("must be > 0, got {}", self.staleness_secs),
            ));
        }
        if !(self.spike_threshold_c > 0.0) {
            return Err(PredictError::invalid(
                "spike_threshold_c",
                format!("must be > 0, got {}", self.spike_threshold_c),
            ));
        }
        if self.stuck_run < 2 {
            return Err(PredictError::invalid(
                "stuck_run",
                format!("must be >= 2, got {}", self.stuck_run),
            ));
        }
        if !(self.score_tolerance_secs >= 0.0) {
            return Err(PredictError::invalid(
                "score_tolerance_secs",
                format!("must be >= 0, got {}", self.score_tolerance_secs),
            ));
        }
        Ok(())
    }
}

/// What the degradation machinery did for one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Out-of-order samples absorbed (dropped without effect).
    pub ooo_absorbed: u64,
    /// Spike outliers rejected before calibration.
    pub spikes_rejected: u64,
    /// Readings quarantined as a suspected stuck sensor.
    pub stuck_suspected: u64,
    /// Times the stream went stale and the monitor entered holdover.
    pub holdover_entries: u64,
    /// Forced re-anchors on stream recovery.
    pub recovery_reanchors: u64,
    /// Matured forecasts expired unscored because their target fell
    /// inside a telemetry gap.
    pub forecasts_expired: u64,
}

/// Rolling forecast-accuracy statistics for one server.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Matured (scored) forecasts.
    pub scored: usize,
    /// Sum of squared forecast errors.
    pub sum_sq_err: f64,
}

impl ServerStats {
    /// Mean squared forecast error, `NaN` before any forecast matured.
    #[must_use]
    pub fn mse(&self) -> f64 {
        if self.scored == 0 {
            f64::NAN
        } else {
            self.sum_sq_err / self.scored as f64
        }
    }
}

/// One predictor per server plus pending-forecast bookkeeping.
///
/// A monitor covers a contiguous **range** of global server indices
/// (`first_server .. first_server + servers()`); the common whole-fleet
/// case is simply the range starting at zero. Ranged monitors are the
/// building block of [`crate::fleet::ShardedMonitor`]: every internal
/// vector is local to the range while gauges, events and public
/// accessors speak global server ids, so a sharded fleet produces
/// bit-identical per-server state to one monitor covering everything.
#[derive(Debug)]
pub struct FleetMonitor {
    stable: StablePredictor,
    gap_secs: f64,
    /// First global server index this monitor covers.
    lo: usize,
    /// Whether [`FleetMonitor::observe`] must cover the whole simulation
    /// (true for [`FleetMonitor::new`] monitors, false for range shards
    /// that intentionally own a slice of a larger fleet).
    strict: bool,
    predictors: Vec<DynamicPredictor>,
    /// Per-server queue of `(target_time, forecast)`.
    pending: Vec<VecDeque<(f64, f64)>>,
    stats: Vec<ServerStats>,
    /// How much of the simulation event log has been consumed.
    log_cursor: usize,
    anchored: bool,
    /// Per-server re-anchor counts (including the initial anchor).
    reanchors: Vec<u64>,
    /// Per-server time (s) of the most recent anchor.
    last_anchor: Vec<f64>,
    /// Per-server window of recent squared forecast errors for the
    /// rolling-MSE gauge.
    recent_sq_err: Vec<VecDeque<f64>>,
    /// Drift gauges; registered lazily once the obs layer is enabled.
    gauges: Vec<ServerGauges>,
    /// Degradation thresholds for faulted delivery streams.
    policy: DegradationPolicy,
    /// Per-server degradation counters.
    degradation: Vec<DegradationStats>,
    /// Per-server accepted samples (monotone by construction: out-of-order
    /// arrivals are absorbed before or during the push).
    ingested: Vec<TimeSeries>,
    /// Per-server read position into the simulation's delivery stream.
    delivered_cursor: Vec<usize>,
    /// Per-server timestamp (s) of the newest clean-path sample already
    /// consumed, `NaN` before any. Event-driven simulations leave the
    /// trace untouched while a server sleeps; without this guard the
    /// unchanged last sample would re-feed the calibrator every tick.
    last_clean_t: Vec<f64>,
    /// Per-server `(bit pattern, run length)` of the newest delivered
    /// reading, for stuck-sensor detection without float equality.
    stuck_run: Vec<(u64, usize)>,
    /// Per-server time (s) of the most recent delivery, `NaN` before any.
    last_delivery: Vec<f64>,
    /// Per-server holdover flag: the stream is stale and forecasts ride
    /// the anchored curve alone.
    holdover: Vec<bool>,
    /// Per-server absolute forecast-error P² sketches, maintained
    /// unconditionally (unlike the lazily registered gauges) so fleet
    /// roll-ups don't depend on the obs layer being enabled.
    pred_err: Vec<obs::QuantileSketch>,
    /// Die-temperature limit (°C) the headroom gauge measures against.
    temp_limit_c: f64,
}

impl FleetMonitor {
    /// Creates a monitor for `servers` hosts with forecast horizon
    /// `gap_secs`.
    ///
    /// # Errors
    ///
    /// Propagates invalid [`DynamicConfig`]s.
    pub fn new(
        stable: StablePredictor,
        config: DynamicConfig,
        servers: usize,
        gap_secs: Seconds,
    ) -> Result<Self, PredictError> {
        let mut monitor = Self::with_range(stable, config, 0, servers, gap_secs)?;
        monitor.strict = true;
        Ok(monitor)
    }

    /// Creates a monitor covering the global server range
    /// `first_server .. first_server + servers`, with forecast horizon
    /// `gap_secs`. Gauge names, observability events and public
    /// accessors all use global server indices, so ranged monitors over
    /// a partition of the fleet are indistinguishable from one monitor
    /// over the whole fleet.
    ///
    /// # Errors
    ///
    /// Propagates invalid [`DynamicConfig`]s.
    pub fn with_range(
        stable: StablePredictor,
        config: DynamicConfig,
        first_server: usize,
        servers: usize,
        gap_secs: Seconds,
    ) -> Result<Self, PredictError> {
        let gap_secs = gap_secs.get();
        if !(gap_secs > 0.0) {
            return Err(PredictError::invalid(
                "gap_secs",
                format!("must be > 0, got {gap_secs}"),
            ));
        }
        let predictors: Result<Vec<_>, _> = (0..servers)
            .map(|_| DynamicPredictor::new(config))
            .collect();
        Ok(FleetMonitor {
            stable,
            gap_secs,
            lo: first_server,
            strict: false,
            predictors: predictors?,
            pending: vec![VecDeque::new(); servers],
            stats: vec![ServerStats::default(); servers],
            log_cursor: 0,
            anchored: false,
            reanchors: vec![0; servers],
            last_anchor: vec![0.0; servers],
            recent_sq_err: vec![VecDeque::new(); servers],
            gauges: Vec::new(),
            policy: DegradationPolicy::default(),
            degradation: vec![DegradationStats::default(); servers],
            ingested: vec![TimeSeries::new(); servers],
            delivered_cursor: vec![0; servers],
            last_clean_t: vec![f64::NAN; servers],
            stuck_run: vec![(0, 0); servers],
            last_delivery: vec![f64::NAN; servers],
            holdover: vec![false; servers],
            pred_err: vec![obs::QuantileSketch::new(); servers],
            temp_limit_c: DEFAULT_TEMP_LIMIT_C,
        })
    }

    /// First global server index this monitor covers (0 for a
    /// whole-fleet monitor).
    #[must_use]
    pub fn first_server(&self) -> usize {
        self.lo
    }

    /// Maps a global server id to this monitor's local index, `None`
    /// when the server is outside the covered range.
    fn local(&self, server: ServerId) -> Option<usize> {
        let local = server.raw().checked_sub(self.lo)?;
        (local < self.predictors.len()).then_some(local)
    }

    /// Replaces the die-temperature limit the per-server headroom gauge
    /// measures against (default [`DEFAULT_TEMP_LIMIT_C`]).
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidConfig`] for a non-finite or non-positive
    /// limit.
    pub fn with_temp_limit(mut self, limit: Celsius) -> Result<Self, PredictError> {
        let limit = limit.get();
        if !(limit.is_finite() && limit > 0.0) {
            return Err(PredictError::invalid(
                "temp_limit_c",
                format!("must be finite and > 0, got {limit}"),
            ));
        }
        self.temp_limit_c = limit;
        Ok(self)
    }

    /// The die-temperature limit (°C) behind the headroom gauge.
    #[must_use]
    pub fn temp_limit_c(&self) -> f64 {
        self.temp_limit_c
    }

    /// Replaces the degradation policy (validating it).
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidConfig`] for out-of-domain thresholds.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Result<Self, PredictError> {
        policy.validate()?;
        self.policy = policy;
        Ok(self)
    }

    /// The active degradation policy.
    #[must_use]
    pub fn policy(&self) -> &DegradationPolicy {
        &self.policy
    }

    /// Degradation counters for a server.
    #[must_use]
    pub fn degradation(&self, server: ServerId) -> DegradationStats {
        self.local(server)
            .and_then(|i| self.degradation.get(i))
            .copied()
            .unwrap_or_default()
    }

    /// Whether a server's stream is currently stale (holdover active).
    #[must_use]
    pub fn in_holdover(&self, server: ServerId) -> bool {
        self.local(server)
            .and_then(|i| self.holdover.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// Re-anchors one server's predictor and does the observability
    /// bookkeeping (counter, event record, time-of-anchor).
    fn reanchor(
        &mut self,
        sim: &Simulation,
        sid: ServerId,
        t_secs: f64,
        ambient_c: Celsius,
        reason: &'static str,
    ) {
        let Some(local) = self.local(sid) else {
            return; // another shard's server
        };
        let Ok(server) = sim.datacenter().server(sid) else {
            return;
        };
        let snap = ConfigSnapshot::capture(sim, sid, ambient_c);
        let phi0 = server.die_temperature();
        let psi_stable = self.stable.predict(&snap);
        self.apply_anchor(local, t_secs, phi0, psi_stable, reason);
    }

    /// Anchors one predictor to an already-computed ψ_stable and records
    /// the bookkeeping shared by the scalar and batch anchor paths.
    fn apply_anchor(
        &mut self,
        idx: usize,
        t_secs: f64,
        phi0: f64,
        psi_stable: f64,
        reason: &'static str,
    ) {
        self.predictors[idx].anchor(
            Seconds::new(t_secs),
            Celsius::new(phi0),
            Celsius::new(psi_stable),
        );
        self.reanchors[idx] += 1;
        self.last_anchor[idx] = t_secs;
        OBS_REANCHORS.inc();
        let global = self.lo + idx;
        obs::emit_with(|| ObsEvent::Reanchor {
            t_secs,
            server: global,
            phi0_c: phi0,
            psi_stable_c: psi_stable,
            reason: reason.to_string(),
        });
    }

    /// Number of monitored servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.predictors.len()
    }

    /// Forecast horizon (s).
    #[must_use]
    pub fn gap_secs(&self) -> f64 {
        self.gap_secs
    }

    /// Consumes the simulation's current state: new events re-anchor the
    /// affected predictors; each server's newest sensor sample feeds
    /// calibration; matured forecasts are scored; one fresh forecast per
    /// server is enqueued. Call once per simulation step (after
    /// `sim.step()`); `ambient_c` is the room temperature used when
    /// capturing configuration snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has more servers than the monitor.
    pub fn observe(&mut self, sim: &Simulation, ambient_c: Celsius) {
        let _span = obs::span(names::SPAN_MONITOR_OBSERVE);
        let _sweep_timer = OBS_OBSERVE_NS.start_timer();
        let n = self.servers();
        assert!(
            !self.strict || sim.datacenter().len() <= self.lo + n,
            "monitor covers servers {}..{}, simulation has {}",
            self.lo,
            self.lo + n,
            sim.datacenter().len()
        );
        // Servers of this monitor's range that exist in the simulation,
        // as local indices.
        let covered = sim.datacenter().len().saturating_sub(self.lo).min(n);
        if obs::enabled() && self.gauges.is_empty() {
            let lo = self.lo;
            self.gauges = (0..n).map(|i| ServerGauges::register(lo + i)).collect();
        }

        // Initial anchor for every covered server, once traces exist:
        // one batch ψ_stable prediction over the range instead of a
        // scalar predict per server. `predict_batch` is per-sample
        // independent (bitwise equal to scalar predicts), so a range
        // batch anchors exactly as a whole-fleet batch would.
        if !self.anchored {
            self.anchored = true;
            let t = sim.now().as_secs_f64();
            let snapshots: Vec<ConfigSnapshot> = (0..covered)
                .map(|idx| ConfigSnapshot::capture(sim, ServerId::new(self.lo + idx), ambient_c))
                .collect();
            let psi = self.stable.predict_batch(&snapshots);
            for (idx, psi_stable) in psi.into_iter().enumerate() {
                let Ok(server) = sim.datacenter().server(ServerId::new(self.lo + idx)) else {
                    continue;
                };
                let phi0 = server.die_temperature();
                self.apply_anchor(idx, t, phi0, psi_stable, "initial");
            }
        }

        // Re-anchor on new reconfiguration events. An entry the fault
        // plan marked lost never reached the monitor: no event re-anchor;
        // the spike/staleness machinery has to absorb the drift instead.
        while self.log_cursor < sim.log().len() {
            let (at, event) = &sim.log()[self.log_cursor];
            let at = at.as_secs_f64();
            let lost = sim.log_entry_lost(self.log_cursor);
            self.log_cursor += 1;
            if lost {
                continue;
            }
            let touched: Vec<(ServerId, &'static str)> = match event {
                SimEvent::VmBooted { server, .. } => vec![(*server, "vm_boot")],
                SimEvent::VmStopped { server, .. } => vec![(*server, "vm_stop")],
                SimEvent::MigrationStarted { source, dest, .. } => {
                    vec![(*source, "migration_start"), (*dest, "migration_start")]
                }
                SimEvent::MigrationCompleted { source, dest, .. } => {
                    vec![
                        (*source, "migration_complete"),
                        (*dest, "migration_complete"),
                    ]
                }
                _ => vec![],
            };
            for (sid, reason) in touched {
                self.reanchor(sim, sid, at, ambient_c, reason);
            }
        }

        // Feed samples, score matured forecasts, enqueue fresh ones.
        let now = sim.now().as_secs_f64();
        for idx in 0..covered {
            let global = self.lo + idx;
            let sid = ServerId::new(global);
            // A faulted delivery stream goes through the degradation
            // machinery; the clean path below reads the physics trace
            // directly and is untouched by fault handling.
            if sim.delivered(sid).is_some() {
                self.observe_faulted(sim, idx, now, ambient_c);
                continue;
            }
            let Ok(trace) = sim.trace(sid) else { continue };
            let Some((t, measured)) = trace.sensor_c.last() else {
                continue;
            };
            // Event-driven simulations record nothing while a server
            // sleeps; consume each sample once (bit-compare: timestamps
            // are copied verbatim, and NaN-before-any never matches).
            if self.last_clean_t[idx].to_bits() == t.to_bits() {
                continue;
            }
            self.last_clean_t[idx] = t;
            self.predictors[idx].observe(Seconds::new(t), Celsius::new(measured));
            OBS_SAMPLES.inc();
            obs::emit_with(|| ObsEvent::Sample {
                t_secs: t,
                server: global,
                temp_c: measured,
            });
            while let Some(&(target, forecast)) = self.pending[idx].front() {
                if target > now {
                    break;
                }
                self.pending[idx].pop_front();
                let err = measured - forecast;
                self.stats[idx].scored += 1;
                self.stats[idx].sum_sq_err += err * err;
                if self.recent_sq_err[idx].len() >= ROLLING_WINDOW {
                    self.recent_sq_err[idx].pop_front();
                }
                self.recent_sq_err[idx].push_back(err * err);
                OBS_SCORED.inc();
                OBS_ABS_ERR.observe(err.abs());
                self.pred_err[idx].observe(err.abs());
                if let Some(gauges) = self.gauges.get(idx) {
                    gauges.pred_err.observe(err.abs());
                }
                obs::emit_with(|| ObsEvent::ForecastScored {
                    t_secs: now,
                    server: global,
                    err_c: err,
                });
            }
            let forecast =
                self.predictors[idx].predict_ahead(Seconds::new(t), Seconds::new(self.gap_secs));
            if forecast.is_finite() {
                self.pending[idx].push_back((t + self.gap_secs, forecast));
                OBS_ISSUED.inc();
                obs::emit_with(|| ObsEvent::Forecast {
                    t_secs: t,
                    server: global,
                    target_t_secs: t + self.gap_secs,
                    temp_c: forecast,
                });
            }
            if let Some(gauges) = self.gauges.get(idx) {
                gauges.rolling_mse.set(self.rolling_mse(sid));
                gauges.gamma_abs.set(self.predictors[idx].gamma().abs());
                gauges.since_reanchor.set(now - self.last_anchor[idx]);
                gauges.pending.set(self.pending[idx].len() as f64);
                gauges.headroom.set(self.temp_limit_c - measured);
            }
        }
    }

    /// Ingests one server's faulted delivery stream: absorbs out-of-order
    /// samples, quarantines spikes and suspected-stuck readings before
    /// they reach the γ calibrator, tracks staleness/holdover, forces one
    /// re-anchor on stream recovery, expires forecasts that matured inside
    /// a gap and keeps forecasting from the anchored curve throughout.
    fn observe_faulted(&mut self, sim: &Simulation, idx: usize, now: f64, ambient_c: Celsius) {
        let global = self.lo + idx;
        let sid = ServerId::new(global);
        let policy = self.policy;
        let Some(delivered) = sim.delivered(sid) else {
            return;
        };
        let start = self.delivered_cursor[idx];
        self.delivered_cursor[idx] = delivered.len();
        for &(t, v) in &delivered[start..] {
            let prev = self.last_delivery[idx];
            let recovered = prev.is_finite() && t - prev >= policy.staleness_secs;
            self.last_delivery[idx] = if prev.is_finite() { prev.max(t) } else { t };

            // Stuck tracking on the raw bit pattern: sensor noise plus
            // quantization make long accidental exact repeats unlikely.
            let bits = v.to_bits();
            let (last_bits, run) = self.stuck_run[idx];
            self.stuck_run[idx] = if bits == last_bits {
                (bits, run + 1)
            } else {
                (bits, 1)
            };

            // Out-of-order arrivals carry stale information: absorb them
            // into holdover rather than rewinding the calibrator.
            if let Some((last_t, _)) = self.ingested[idx].last() {
                if t < last_t {
                    self.degradation[idx].ooo_absorbed += 1;
                    OBS_OOO.inc();
                    continue;
                }
            }

            // The stream came back after a gap: re-anchor once from the
            // measured temperature before trusting calibration again —
            // γ drifted blind through the silence.
            if recovered && policy.reanchor_on_recovery {
                let snap = ConfigSnapshot::capture(sim, sid, ambient_c);
                let psi_stable = self.stable.predict(&snap);
                self.apply_anchor(idx, t, v, psi_stable, "recovery");
                self.degradation[idx].recovery_reanchors += 1;
                OBS_RECOVERY_REANCHORS.inc();
                self.holdover[idx] = false;
            }

            let estimate = self.predictors[idx].predict_ahead(Seconds::new(t), Seconds::ZERO);
            if estimate.is_finite() && (v - estimate).abs() > policy.spike_threshold_c {
                self.degradation[idx].spikes_rejected += 1;
                OBS_SPIKES_REJECTED.inc();
                continue;
            }
            if self.stuck_run[idx].1 >= policy.stuck_run {
                self.degradation[idx].stuck_suspected += 1;
                OBS_STUCK_SUSPECTED.inc();
                continue;
            }

            // Accepted: record it and feed the calibrator.
            let recorded = self.ingested[idx].push(
                SimTime::from_millis((t * 1000.0).round().max(0.0) as u64),
                v,
            );
            if let Err(TelemetryError::NonMonotonicTime { .. }) = recorded {
                // Sub-millisecond inversions the ordering check missed.
                self.degradation[idx].ooo_absorbed += 1;
                OBS_OOO.inc();
                continue;
            }
            self.predictors[idx].observe(Seconds::new(t), Celsius::new(v));
            OBS_SAMPLES.inc();
            obs::emit_with(|| ObsEvent::Sample {
                t_secs: t,
                server: global,
                temp_c: v,
            });
        }

        // Staleness bookkeeping at observation time.
        let last = self.last_delivery[idx];
        if last.is_finite() {
            if !self.holdover[idx] && now - last >= policy.staleness_secs {
                self.holdover[idx] = true;
                self.degradation[idx].holdover_entries += 1;
                OBS_HOLDOVER_ENTRIES.inc();
            } else if self.holdover[idx] && now - last < policy.staleness_secs {
                self.holdover[idx] = false;
            }
        }

        // Score matured forecasts against the newest accepted sample;
        // targets that matured inside a telemetry gap expire unscored
        // rather than being graded against stale ground truth.
        let reference = self.ingested[idx].last();
        while let Some(&(target, forecast)) = self.pending[idx].front() {
            if target > now {
                break;
            }
            self.pending[idx].pop_front();
            match reference {
                Some((rt, rv)) if target - rt <= policy.score_tolerance_secs => {
                    let err = rv - forecast;
                    self.stats[idx].scored += 1;
                    self.stats[idx].sum_sq_err += err * err;
                    if self.recent_sq_err[idx].len() >= ROLLING_WINDOW {
                        self.recent_sq_err[idx].pop_front();
                    }
                    self.recent_sq_err[idx].push_back(err * err);
                    OBS_SCORED.inc();
                    OBS_ABS_ERR.observe(err.abs());
                    self.pred_err[idx].observe(err.abs());
                    if let Some(gauges) = self.gauges.get(idx) {
                        gauges.pred_err.observe(err.abs());
                    }
                    obs::emit_with(|| ObsEvent::ForecastScored {
                        t_secs: now,
                        server: global,
                        err_c: err,
                    });
                }
                _ => {
                    self.degradation[idx].forecasts_expired += 1;
                    OBS_EXPIRED.inc();
                }
            }
        }

        // Forecast from the wall clock: holdover keeps issuing even while
        // the stream is silent — the anchored curve is all we have.
        let forecast =
            self.predictors[idx].predict_ahead(Seconds::new(now), Seconds::new(self.gap_secs));
        if forecast.is_finite() {
            self.pending[idx].push_back((now + self.gap_secs, forecast));
            OBS_ISSUED.inc();
            obs::emit_with(|| ObsEvent::Forecast {
                t_secs: now,
                server: global,
                target_t_secs: now + self.gap_secs,
                temp_c: forecast,
            });
        }
        if let Some(gauges) = self.gauges.get(idx) {
            gauges.rolling_mse.set(self.rolling_mse(sid));
            gauges.gamma_abs.set(self.predictors[idx].gamma().abs());
            gauges.since_reanchor.set(now - self.last_anchor[idx]);
            gauges.pending.set(self.pending[idx].len() as f64);
            gauges
                .holdover
                .set(if self.holdover[idx] { 1.0 } else { 0.0 });
            if let Some((_, v)) = self.ingested[idx].last() {
                gauges.headroom.set(self.temp_limit_c - v);
            }
        }
    }

    /// MSE over the most recent [`ROLLING_WINDOW`] scored forecasts for a
    /// server (`NaN` before any matured). While fewer than a full window
    /// have been scored this equals [`ServerStats::mse`].
    #[must_use]
    pub fn rolling_mse(&self, server: ServerId) -> f64 {
        match self.local(server).and_then(|i| self.recent_sq_err.get(i)) {
            Some(w) if !w.is_empty() => w.iter().sum::<f64>() / w.len() as f64,
            _ => f64::NAN,
        }
    }

    /// Number of anchor operations performed for a server, including the
    /// initial anchor.
    #[must_use]
    pub fn reanchor_count(&self, server: ServerId) -> u64 {
        self.local(server)
            .and_then(|i| self.reanchors.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Seconds of simulation time of a server's most recent anchor.
    #[must_use]
    pub fn last_anchor_secs(&self, server: ServerId) -> f64 {
        self.local(server)
            .and_then(|i| self.last_anchor.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    /// Depth of a server's forecast-maturity queue.
    #[must_use]
    pub fn pending_forecasts(&self, server: ServerId) -> usize {
        self.local(server)
            .and_then(|i| self.pending.get(i))
            .map_or(0, VecDeque::len)
    }

    /// The current forecast (`gap_secs` ahead of the latest sample) for a
    /// server, if one is pending.
    #[must_use]
    pub fn latest_forecast(&self, server: ServerId) -> Option<(f64, f64)> {
        self.pending.get(self.local(server)?)?.back().copied()
    }

    /// Per-server accuracy stats.
    #[must_use]
    pub fn stats(&self, server: ServerId) -> ServerStats {
        self.local(server)
            .and_then(|i| self.stats.get(i))
            .copied()
            .unwrap_or_default()
    }

    /// Fleet-wide MSE over all matured forecasts (`NaN` before any).
    #[must_use]
    pub fn fleet_mse(&self) -> f64 {
        let scored: usize = self.stats.iter().map(|s| s.scored).sum();
        if scored == 0 {
            return f64::NAN;
        }
        self.stats.iter().map(|s| s.sum_sq_err).sum::<f64>() / scored as f64
    }

    /// Per-server accuracy stats for the whole covered range, in local
    /// (range) order. [`crate::fleet::ShardedMonitor`] concatenates
    /// these slices in shard order to reduce fleet gauges with exactly
    /// the floating-point association a whole-fleet monitor uses.
    #[must_use]
    pub fn server_stats(&self) -> &[ServerStats] {
        &self.stats
    }

    /// One server's absolute forecast-error P² sketch (p50/p95/p99),
    /// maintained whether or not the obs layer is enabled.
    #[must_use]
    pub fn pred_err_sketch(&self, server: ServerId) -> Option<&obs::QuantileSketch> {
        self.pred_err.get(self.local(server)?)
    }

    /// All per-server forecast-error sketches in local (range) order.
    #[must_use]
    pub fn pred_err_sketches(&self) -> &[obs::QuantileSketch] {
        &self.pred_err
    }

    /// Fleet-level roll-up of the per-server forecast-error sketches,
    /// folded in server-index order (see
    /// [`obs::MergedQuantiles::absorb`] for the merge contract).
    #[must_use]
    pub fn fleet_pred_err(&self) -> obs::MergedQuantiles {
        let mut merged = obs::MergedQuantiles::new();
        for sketch in &self.pred_err {
            merged.absorb(sketch);
        }
        merged
    }

    /// The per-server dynamic predictors (read access for diagnostics).
    #[must_use]
    pub fn predictors(&self) -> &[DynamicPredictor] {
        &self.predictors
    }

    /// Cross-checks the monitor's internal bookkeeping against the
    /// simulation it has been observing — the monitor-side oracle of
    /// the scenario fuzzer's battery. Returns one message per violated
    /// consistency rule (empty = healthy):
    ///
    /// * **coverage** — every delivered sample has been consumed
    ///   (`delivered_cursor` matches the stream length, never past it);
    /// * **ingestion** — accepted samples are finite and no newer than
    ///   the simulation clock;
    /// * **anchoring** — anchor timestamps are finite, not in the
    ///   future, and re-anchor counts are consistent with the recovery
    ///   counters;
    /// * **forecasts** — pending queues are sorted by target time with
    ///   finite values;
    /// * **scoring** — squared-error accumulators are finite and
    ///   non-negative, holdover flags imply a recorded holdover entry.
    #[must_use]
    pub fn invariant_report(&self, sim: &Simulation) -> Vec<String> {
        let mut violations = Vec::new();
        let now = sim.now().as_secs_f64();
        for i in 0..self.servers() {
            let global = self.lo + i;
            let id = ServerId::new(global);
            if let Some(stream) = sim.delivered(id) {
                let cursor = self.delivered_cursor.get(i).copied().unwrap_or(0);
                if cursor != stream.len() {
                    violations.push(format!(
                        "server {global}: consumed {cursor} of {} delivered samples",
                        stream.len()
                    ));
                }
            }
            if let Some(ingested) = self.ingested.get(i) {
                if let Some((t, v)) = ingested.iter().last() {
                    if !t.is_finite() || t > now {
                        violations.push(format!(
                            "server {global}: ingested sample at t={t} beyond clock {now}"
                        ));
                    }
                    if !v.is_finite() {
                        violations.push(format!(
                            "server {global}: non-finite ingested value at t={t}"
                        ));
                    }
                }
            }
            let anchor = self.last_anchor.get(i).copied().unwrap_or(0.0);
            if !anchor.is_finite() || anchor > now {
                violations.push(format!(
                    "server {global}: anchor at t={anchor} beyond clock {now}"
                ));
            }
            let reanchors = self.reanchors.get(i).copied().unwrap_or(0);
            let degradation = self.degradation.get(i).copied().unwrap_or_default();
            if degradation.recovery_reanchors > reanchors {
                violations.push(format!(
                    "server {global}: {} recovery re-anchors exceed {reanchors} total anchors",
                    degradation.recovery_reanchors
                ));
            }
            if self.holdover.get(i).copied().unwrap_or(false) && degradation.holdover_entries == 0 {
                violations.push(format!(
                    "server {global}: in holdover with no holdover entry recorded"
                ));
            }
            if let Some(pending) = self.pending.get(i) {
                let mut prev = f64::NEG_INFINITY;
                for &(target, forecast) in pending {
                    if !target.is_finite() || !forecast.is_finite() || target < prev {
                        violations.push(format!(
                            "server {global}: pending forecast ({target}, {forecast}) \
                             out of order or non-finite"
                        ));
                        break;
                    }
                    prev = target;
                }
            }
            if let Some(stats) = self.stats.get(i) {
                if !stats.sum_sq_err.is_finite() || stats.sum_sq_err < 0.0 {
                    violations.push(format!(
                        "server {global}: squared-error accumulator {} invalid",
                        stats.sum_sq_err
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::{
        AmbientModel, CaseGenerator, ClockMode, Datacenter, Event, ServerSpec, SimDuration,
        SimTime, TaskProfile, VmSpec,
    };
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    /// Serializes tests that drive `FleetMonitor::observe` so the one test
    /// that enables the global obs registry cannot pollute (or be polluted
    /// by) concurrently running monitors.
    fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn stable_model() -> StablePredictor {
        let mut generator = CaseGenerator::new(42);
        let configs: Vec<_> = generator
            .random_cases(60, 1_000)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(900)))
            .collect();
        let outcomes = run_experiments(&configs);
        StablePredictor::fit(
            &outcomes,
            &TrainingOptions::new().with_params(
                SvrParams::new()
                    .with_c(128.0)
                    .with_epsilon(0.05)
                    .with_kernel(Kernel::rbf(0.02)),
            ),
        )
        .unwrap()
    }

    fn fleet_sim() -> Simulation {
        let mut dc = Datacenter::new();
        for i in 0..3 {
            dc.add_server(
                ServerSpec::standard(format!("n{i}")),
                Celsius::new(24.0),
                i as u64,
            );
        }
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
        for i in 0..3 {
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), 2 + i as u32, 4.0, TaskProfile::CpuBound),
            )
            .unwrap();
        }
        sim
    }

    #[test]
    fn monitor_scores_forecasts_in_band() {
        let _guard = obs_test_lock();
        let mut sim = fleet_sim();
        let mut monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 3, Seconds::new(60.0)).unwrap();
        // A mid-run burst on server 0 exercises re-anchoring.
        sim.schedule(
            SimTime::from_secs(600),
            Event::BootVm {
                server: ServerId::new(0),
                spec: VmSpec::new("burst", 4, 8.0, TaskProfile::CpuBound),
            },
        );
        for _ in 0..1500 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        let fleet = monitor.fleet_mse();
        assert!(fleet.is_finite());
        assert!(fleet < 3.0, "fleet mse {fleet}");
        for i in 0..3 {
            let s = monitor.stats(ServerId::new(i));
            assert!(s.scored > 1000, "server {i} scored only {}", s.scored);
        }
        // The latest forecast exists and is sane.
        let (target, value) = monitor.latest_forecast(ServerId::new(0)).unwrap();
        assert!(target > 1400.0);
        assert!((20.0..90.0).contains(&value));
        let report = monitor.invariant_report(&sim);
        assert!(report.is_empty(), "consistency violations: {report:?}");
    }

    #[test]
    fn event_mode_sparse_traces_flow_through_the_clean_path() {
        let _guard = obs_test_lock();
        let mut dc = Datacenter::new();
        for i in 0..3 {
            dc.add_server(
                ServerSpec::standard(format!("n{i}")),
                Celsius::new(24.0),
                i as u64,
            );
        }
        let mut sim =
            Simulation::new(dc, AmbientModel::Fixed(24.0), 7).with_clock(ClockMode::Event);
        for i in 0..3 {
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), 1, 2.0, TaskProfile::Idle),
            )
            .unwrap();
        }
        let mut monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 3, Seconds::new(60.0)).unwrap();
        for _ in 0..1500 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        // The fleet actually slept — traces are irregular, not 1 Hz.
        assert!(sim.step_stats().skip_factor() > 2.0);
        for i in 0..3 {
            let sid = ServerId::new(i);
            let samples = sim.trace(sid).unwrap().sensor_c.len();
            assert!(samples < 1200, "server {i} trace not sparse: {samples}");
            let s = monitor.stats(sid);
            assert!(s.scored > 10, "server {i} scored only {}", s.scored);
            // Each sample is consumed once: forecasts (and scores) cannot
            // outnumber the sparse samples that triggered them.
            assert!(
                s.scored <= samples,
                "server {i} re-consumed sleeping samples: {} scored, {samples} samples",
                s.scored
            );
            assert!(!monitor.in_holdover(sid), "clean stream flagged stale");
        }
        let fleet = monitor.fleet_mse();
        assert!(fleet.is_finite(), "fleet mse {fleet}");
        let report = monitor.invariant_report(&sim);
        assert!(report.is_empty(), "consistency violations: {report:?}");
    }

    #[test]
    fn reanchoring_happens_on_events() {
        let _guard = obs_test_lock();
        let mut sim = fleet_sim();
        let mut monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 3, Seconds::new(60.0)).unwrap();
        for _ in 0..5 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        let before = monitor.predictors()[1]
            .curve_value(Seconds::new(1.0))
            .unwrap();
        // Boot a heavy VM on server 1 → its predictor must re-anchor to a
        // hotter target.
        sim.schedule(
            SimTime::from_secs(6),
            Event::BootVm {
                server: ServerId::new(1),
                spec: VmSpec::new("hog", 8, 16.0, TaskProfile::CpuBound),
            },
        );
        for _ in 0..10 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        let after = monitor.predictors()[1]
            .curve_value(Seconds::new(2000.0))
            .unwrap();
        assert!(after > before + 2.0, "no re-anchor: {before} -> {after}");
    }

    #[test]
    fn migration_reanchors_once_per_affected_server() {
        let _guard = obs_test_lock();
        let mut dc = Datacenter::new();
        for i in 0..3 {
            dc.add_server(
                ServerSpec::standard(format!("n{i}")),
                Celsius::new(24.0),
                i as u64,
            );
        }
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
        let vm = sim
            .boot_vm_now(
                ServerId::new(0),
                VmSpec::new("mover", 2, 4.0, TaskProfile::CpuBound),
            )
            .unwrap();
        let mut monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 3, Seconds::new(5.0)).unwrap();

        vmtherm_obs::set_enabled(true);
        let registry = vmtherm_obs::global();
        let reanchor_total_before = registry.counter(names::METRIC_REANCHOR_TOTAL).get();

        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
        // First observe anchors every server once, plus one more on server 0
        // for the `VmBooted` event already in the log.
        assert_eq!(monitor.reanchor_count(ServerId::new(0)), 2, "server 0");
        assert_eq!(monitor.reanchor_count(ServerId::new(1)), 1, "server 1");
        assert_eq!(monitor.reanchor_count(ServerId::new(2)), 1, "server 2");

        sim.schedule(
            SimTime::from_secs(6),
            Event::MigrateVm {
                vm,
                dest: ServerId::new(1),
            },
        );
        // Run past MigrationStarted (t=6) but not MigrationCompleted
        // (4 GB at 10 Gbit/s × 1.3 ≈ 4.2 s later).
        while sim.now() < SimTime::from_secs(8) {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        assert!(sim
            .log()
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::MigrationStarted { .. })));
        assert_eq!(monitor.reanchor_count(ServerId::new(0)), 3, "source");
        assert_eq!(monitor.reanchor_count(ServerId::new(1)), 2, "dest");
        assert_eq!(monitor.reanchor_count(ServerId::new(2)), 1, "bystander");

        // Run past MigrationCompleted and long enough to mature forecasts,
        // but fewer than ROLLING_WINDOW of them so the rolling-MSE gauge
        // must equal the all-time ServerStats MSE.
        while sim.now() < SimTime::from_secs(60) {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }
        assert!(sim
            .log()
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::MigrationCompleted { .. })));
        assert_eq!(monitor.reanchor_count(ServerId::new(0)), 4, "source done");
        assert_eq!(monitor.reanchor_count(ServerId::new(1)), 3, "dest done");
        assert_eq!(
            monitor.reanchor_count(ServerId::new(2)),
            1,
            "bystander done"
        );

        // The global counter moved by exactly the per-server totals.
        let total: u64 = (0..3)
            .map(|i| monitor.reanchor_count(ServerId::new(i)))
            .sum();
        assert_eq!(
            registry.counter(names::METRIC_REANCHOR_TOTAL).get() - reanchor_total_before,
            total
        );

        // Drift gauges agree with ServerStats and the monitor's own view.
        for i in 0..3 {
            let sid = ServerId::new(i);
            let stats = monitor.stats(sid);
            assert!(
                stats.scored > 0 && stats.scored < super::ROLLING_WINDOW,
                "server {i} scored {}",
                stats.scored
            );
            let mse = registry
                .gauge(&names::server_gauge(names::METRIC_MONITOR_ROLLING_MSE, i))
                .get();
            assert!((mse - stats.mse()).abs() < 1e-12, "server {i} mse gauge");
            assert!((mse - monitor.rolling_mse(sid)).abs() < 1e-12);
            let gamma_abs = registry
                .gauge(&names::server_gauge(names::METRIC_MONITOR_GAMMA_ABS, i))
                .get();
            assert!(
                (gamma_abs - monitor.predictors()[i].gamma().abs()).abs() < 1e-12,
                "server {i} gamma gauge"
            );
            let since = registry
                .gauge(&names::server_gauge(
                    names::METRIC_MONITOR_SINCE_REANCHOR,
                    i,
                ))
                .get();
            assert!(
                (since - (sim.now().as_secs_f64() - monitor.last_anchor_secs(sid))).abs() < 1e-9,
                "server {i} since-reanchor gauge"
            );
            let pending = registry
                .gauge(&names::server_gauge(names::METRIC_MONITOR_PENDING, i))
                .get();
            assert_eq!(pending as usize, monitor.pending_forecasts(sid));
            let headroom = registry
                .gauge(&names::server_gauge(names::METRIC_MONITOR_TEMP_HEADROOM, i))
                .get();
            let (_, measured) = sim.trace(sid).unwrap().sensor_c.last().unwrap();
            assert!(
                (headroom - (DEFAULT_TEMP_LIMIT_C - measured)).abs() < 1e-9,
                "server {i} headroom gauge {headroom} vs measured {measured}"
            );
            let pred_err =
                registry.summary(&names::server_gauge(names::METRIC_MONITOR_PRED_ABS_ERR, i));
            assert_eq!(
                pred_err.count(),
                stats.scored as u64,
                "server {i} pred-err summary count"
            );
            assert!(pred_err.quantile(0.95) >= pred_err.quantile(0.5));
        }
        // The observe-sweep latency summary saw every observe call.
        assert!(registry.summary(names::METRIC_MONITOR_OBSERVE_NS).count() > 0);
        vmtherm_obs::set_enabled(false);
    }

    #[test]
    fn temp_limit_is_validated_and_applied() {
        let monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 1, Seconds::new(60.0))
                .unwrap()
                .with_temp_limit(Celsius::new(95.0))
                .unwrap();
        assert_eq!(monitor.temp_limit_c(), 95.0);
        assert!(matches!(
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 1, Seconds::new(60.0))
                .unwrap()
                .with_temp_limit(Celsius::new(-1.0)),
            Err(PredictError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_bad_gap() {
        assert!(matches!(
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 2, Seconds::ZERO),
            Err(PredictError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn unmonitored_server_queries_are_safe() {
        let monitor =
            FleetMonitor::new(stable_model(), DynamicConfig::new(), 1, Seconds::new(60.0)).unwrap();
        assert!(monitor.latest_forecast(ServerId::new(9)).is_none());
        assert_eq!(monitor.stats(ServerId::new(9)), ServerStats::default());
        assert!(monitor.fleet_mse().is_nan());
    }
}
