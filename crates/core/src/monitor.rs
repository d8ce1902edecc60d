//! Fleet monitoring: the paper's deployment mode as a reusable component.
//!
//! "Then the model received data collected online and output prediction
//! values" — [`FleetMonitor`] wires one calibrated [`DynamicPredictor`]
//! per server to a running simulation: it consumes sensor samples, watches
//! the event log and **re-anchors automatically** on every reconfiguration
//! (VM boot/stop, migration start/completion) using fresh ψ_stable
//! predictions from the stable model, while scoring each forecast when its
//! target time arrives.
//!
//! The monitor keeps one record per server. Each `observe` runs the
//! initial anchor and the event log, then updates in one loop the
//! records of the servers the engine woke in the step since the last
//! observe ([`Simulation::recorded_since`]), or every record when the
//! engine cannot name them. Fleet-level values fold the records in
//! server-index order: [`FleetMonitor::fleet_mse`] and
//! [`FleetMonitor::fleet_pred_err`].
//!
//! `observe` counts, times and traces, but writes no gauge or summary.
//! [`FleetMonitor::publish`] is the one export path: a reader calls it
//! before it reads the obs registry, and it writes every drift gauge,
//! each server's forecast-error summary and the fleet roll-up gauges as
//! of the last `observe`.

use crate::dynamic::{DynamicConfig, DynamicPredictor};
use crate::error::PredictError;
use crate::predictor::OnlinePredictor;
use crate::stable::StablePredictor;
use std::collections::VecDeque;
use vmtherm_obs::{self as obs, names, ObsEvent};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_sim::{ServerId, SimEvent, SimTime, Simulation};
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

/// Die-temperature limit (°C) the headroom gauge measures against; a
/// common throttle point for commodity server CPUs.
const TEMP_LIMIT_C: f64 = 85.0;

// How the monitor degrades when a delivered telemetry stream misbehaves,
// in the simulation's units. The values are conservative for 1 s
// sampling: the physics moves a few tenths of a degree per second.

/// Silence (s) after which a delivered stream is stale and the monitor
/// enters holdover: it keeps forecasting from the anchored curve but
/// stops pretending it has fresh ground truth. When the stream comes
/// back, the server re-anchors once from the measured temperature, since
/// γ drifted blind through the gap.
const STALENESS_SECS: f64 = 30.0;

/// Absolute deviation (°C) from the calibrated prediction beyond which a
/// delivered sample is rejected as a spike and never reaches the γ
/// calibrator (protects Eq. 5–6 from single-outlier poisoning).
const SPIKE_THRESHOLD_C: f64 = 12.0;

/// Bit-identical consecutive delivered readings before a sensor is
/// declared stuck and quarantined from calibration. Sensor noise plus
/// quantization make accidental exact repeats of this length essentially
/// impossible, and the gate must not depend on the calibrated
/// prediction: by the time the run is this long, γ has already chased
/// the frozen value, so a deviation test would never fire.
const STUCK_RUN: usize = 30;

/// How far (s) a matured forecast's target may sit past the newest
/// accepted delivered sample and still be scored against it; targets
/// that fell deeper into a telemetry gap expire unscored.
const SCORE_TOLERANCE_SECS: f64 = 2.0;

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

/// What one `observe` call shares with every per-server update.
struct Tick<'a> {
    sim: &'a Simulation,
    stable: &'a StablePredictor,
    ambient_c: Celsius,
    /// The simulation clock (s).
    now: f64,
    gap_secs: f64,
}

/// Everything the monitor keeps for one server.
#[derive(Debug)]
pub(crate) struct ServerRecord {
    predictor: DynamicPredictor,
    /// Queue of `(target_time, forecast)`.
    pub(crate) pending: VecDeque<(f64, f64)>,
    stats: ServerStats,
    /// Anchor operations, including the initial anchor.
    reanchors: u64,
    /// Time (s) of the most recent anchor.
    last_anchor: f64,
    /// Recent squared forecast errors for the rolling-MSE gauge.
    recent_sq_err: VecDeque<f64>,
    /// Absolute forecast-error P² sketch, maintained whether or not the
    /// obs layer is enabled; the fleet roll-up folds it and
    /// [`FleetMonitor::publish`] exports it.
    pred_err: obs::QuantileSketch,
    /// Timestamp (s) of the newest engine sample consumed, `NaN` before
    /// any. Event-driven simulations leave the trace (and the delivery
    /// stream it feeds) untouched while a server sleeps; without this
    /// guard the unchanged last sample would re-feed the calibrator, and
    /// a forecast would be issued, every tick.
    last_engine_t: f64,
    /// The newest accepted sample `(t, value)`, its timestamp rounded to
    /// whole milliseconds as `TimeSeries::push` stores it.
    last_accepted: Option<(f64, f64)>,
    degradation: DegradationStats,
    /// Read position into the simulation's delivery stream.
    delivered_cursor: usize,
    /// `(bit pattern, run length)` of the newest delivered reading, for
    /// stuck-sensor detection without float equality.
    stuck_run: (u64, usize),
    /// Time (s) of the most recent delivery, `NaN` before any.
    last_delivery: f64,
    /// The delivered stream is stale and forecasts ride the anchored
    /// curve alone.
    holdover: bool,
}

impl ServerRecord {
    fn new(predictor: DynamicPredictor) -> Self {
        ServerRecord {
            predictor,
            pending: VecDeque::new(),
            stats: ServerStats::default(),
            reanchors: 0,
            last_anchor: 0.0,
            recent_sq_err: VecDeque::new(),
            pred_err: obs::QuantileSketch::new(),
            last_engine_t: f64::NAN,
            last_accepted: None,
            degradation: DegradationStats::default(),
            delivered_cursor: 0,
            stuck_run: (0, 0),
            last_delivery: f64::NAN,
            holdover: false,
        }
    }

    /// Anchors the predictor to an already-computed ψ_stable and does the
    /// bookkeeping (counter, event record, time-of-anchor).
    fn anchor(&mut self, server: usize, t_secs: f64, phi0: f64, psi_stable: f64, reason: &str) {
        self.predictor.anchor(
            Seconds::new(t_secs),
            Celsius::new(phi0),
            Celsius::new(psi_stable),
        );
        self.reanchors += 1;
        self.last_anchor = t_secs;
        OBS_REANCHORS.inc();
        obs::emit_with(|| ObsEvent::Reanchor {
            t_secs,
            server,
            phi0_c: phi0,
            psi_stable_c: psi_stable,
            reason: reason.to_string(),
        });
    }

    /// Consumes the server's newest engine sample, once: feeds the
    /// calibrator, scores matured forecasts and issues one fresh
    /// forecast. A clean stream takes the sample as is and forecasts from
    /// its time; a delivered stream first runs the degradation filters
    /// over its new deliveries and forecasts from the clock, so holdover
    /// keeps issuing while the stream is silent.
    fn update(&mut self, tick: &Tick<'_>, server: usize) {
        let sid = ServerId::new(server);
        let Ok(trace) = tick.sim.trace(sid) else {
            return;
        };
        let Some((t, measured)) = trace.sensor_c.last() else {
            return;
        };
        // Bit-compare: timestamps are copied verbatim, and NaN-before-any
        // never matches.
        if self.last_engine_t.to_bits() == t.to_bits() {
            return;
        }
        self.last_engine_t = t;
        let (origin, tolerance) = match tick.sim.delivered(sid) {
            Some(delivered) => {
                self.ingest_delivered(tick, server, delivered);
                (tick.now, SCORE_TOLERANCE_SECS)
            }
            // A clean stream has no gaps, so nothing expires.
            None => {
                self.accept(server, t, measured);
                (t, f64::INFINITY)
            }
        };
        self.settle(server, tick.now, tolerance);
        self.issue(server, origin, tick.gap_secs);
    }

    /// Runs the new deliveries through the degradation filters: absorbs
    /// out-of-order samples, forces one re-anchor on stream recovery,
    /// quarantines spikes and suspected-stuck readings before they reach
    /// the γ calibrator, then tracks staleness/holdover at `tick.now`.
    fn ingest_delivered(&mut self, tick: &Tick<'_>, server: usize, delivered: &[(f64, f64)]) {
        let start = self.delivered_cursor;
        self.delivered_cursor = delivered.len();
        for &(t, v) in &delivered[start..] {
            let prev = self.last_delivery;
            let recovered = prev.is_finite() && t - prev >= STALENESS_SECS;
            self.last_delivery = if prev.is_finite() { prev.max(t) } else { t };

            let bits = v.to_bits();
            let (last_bits, run) = self.stuck_run;
            self.stuck_run = (bits, if bits == last_bits { run + 1 } else { 1 });

            // Out-of-order arrivals carry stale information: absorb them
            // into holdover rather than rewinding the calibrator.
            if self.last_accepted.is_some_and(|(last_t, _)| t < last_t) {
                self.degradation.ooo_absorbed += 1;
                OBS_OOO.inc();
                continue;
            }
            if recovered {
                let snap = ConfigSnapshot::capture(tick.sim, ServerId::new(server), tick.ambient_c);
                let psi_stable = tick.stable.predict(&snap);
                self.anchor(server, t, v, psi_stable, "recovery");
                self.degradation.recovery_reanchors += 1;
                OBS_RECOVERY_REANCHORS.inc();
                self.holdover = false;
            }
            let estimate = self.predictor.predict_ahead(Seconds::new(t), Seconds::ZERO);
            if estimate.is_finite() && (v - estimate).abs() > SPIKE_THRESHOLD_C {
                self.degradation.spikes_rejected += 1;
                OBS_SPIKES_REJECTED.inc();
                continue;
            }
            if self.stuck_run.1 >= STUCK_RUN {
                self.degradation.stuck_suspected += 1;
                OBS_STUCK_SUSPECTED.inc();
                continue;
            }
            if !self.accept(server, t, v) {
                // Sub-millisecond inversions the ordering check missed.
                self.degradation.ooo_absorbed += 1;
                OBS_OOO.inc();
            }
        }

        let last = self.last_delivery;
        if last.is_finite() {
            let stale = tick.now - last >= STALENESS_SECS;
            if stale && !self.holdover {
                self.holdover = true;
                self.degradation.holdover_entries += 1;
                OBS_HOLDOVER_ENTRIES.inc();
            } else if !stale {
                self.holdover = false;
            }
        }
    }

    /// Records an accepted sample and feeds it to the calibrator; `false`
    /// (nothing recorded) when its millisecond-rounded time runs behind
    /// the newest accepted one.
    fn accept(&mut self, server: usize, t: f64, v: f64) -> bool {
        let t_ms = SimTime::from_millis((t * 1000.0).round().max(0.0) as u64).as_secs_f64();
        if self.last_accepted.is_some_and(|(last_t, _)| t_ms < last_t) {
            return false;
        }
        self.last_accepted = Some((t_ms, v));
        self.predictor.observe(Seconds::new(t), Celsius::new(v));
        OBS_SAMPLES.inc();
        obs::emit_with(|| ObsEvent::Sample {
            t_secs: t,
            server,
            temp_c: v,
        });
        true
    }

    /// Scores every forecast whose target has arrived against the newest
    /// accepted sample; a target more than `tolerance` seconds past that
    /// sample matured inside a telemetry gap and expires unscored rather
    /// than being graded against stale ground truth.
    fn settle(&mut self, server: usize, now: f64, tolerance: f64) {
        while let Some(&(target, forecast)) = self.pending.front() {
            if target > now {
                break;
            }
            self.pending.pop_front();
            let Some((_, rv)) = self
                .last_accepted
                .filter(|&(rt, _)| target - rt <= tolerance)
            else {
                self.degradation.forecasts_expired += 1;
                OBS_EXPIRED.inc();
                continue;
            };
            let err = rv - forecast;
            self.stats.scored += 1;
            self.stats.sum_sq_err += err * err;
            if self.recent_sq_err.len() >= ROLLING_WINDOW {
                self.recent_sq_err.pop_front();
            }
            self.recent_sq_err.push_back(err * err);
            OBS_SCORED.inc();
            OBS_ABS_ERR.observe(err.abs());
            self.pred_err.observe(err.abs());
            obs::emit_with(|| ObsEvent::ForecastScored {
                t_secs: now,
                server,
                err_c: err,
            });
        }
    }

    /// Enqueues one forecast `gap_secs` ahead of `origin`.
    fn issue(&mut self, server: usize, origin: f64, gap_secs: f64) {
        let forecast = self
            .predictor
            .predict_ahead(Seconds::new(origin), Seconds::new(gap_secs));
        if forecast.is_finite() {
            let target = origin + gap_secs;
            self.pending.push_back((target, forecast));
            OBS_ISSUED.inc();
            obs::emit_with(|| ObsEvent::Forecast {
                t_secs: origin,
                server,
                target_t_secs: target,
                temp_c: forecast,
            });
        }
    }

    fn rolling_mse(&self) -> f64 {
        let window = &self.recent_sq_err;
        if window.is_empty() {
            f64::NAN
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }
}

/// One predictor per server plus pending-forecast bookkeeping, for the
/// whole fleet.
#[derive(Debug)]
pub struct FleetMonitor {
    stable: StablePredictor,
    gap_secs: f64,
    /// One record per server, indexed by global server id.
    records: Vec<ServerRecord>,
    /// How much of the simulation event log has been consumed.
    log_cursor: usize,
    anchored: bool,
    /// The simulation clock at the last `observe`, `None` before any.
    observed_at: Option<SimTime>,
}

impl FleetMonitor {
    /// Creates a monitor for `servers` hosts with forecast horizon
    /// `gap_secs`.
    ///
    /// # Errors
    ///
    /// Propagates invalid [`DynamicConfig`]s and rejects a non-positive
    /// `gap_secs`.
    pub fn new(
        stable: StablePredictor,
        config: DynamicConfig,
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
        let records = (0..servers)
            .map(|_| DynamicPredictor::new(config).map(ServerRecord::new))
            .collect::<Result<_, _>>()?;
        Ok(FleetMonitor {
            stable,
            gap_secs,
            records,
            log_cursor: 0,
            anchored: false,
            observed_at: None,
        })
    }

    pub(crate) fn record(&self, server: ServerId) -> Option<&ServerRecord> {
        self.records.get(server.raw())
    }

    /// Number of monitored servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.records.len()
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
    /// `sim.step()`), then only the servers the step woke are visited;
    /// `ambient_c` is the room temperature used when capturing
    /// configuration snapshots. One monitor follows one simulation.
    /// It writes no gauge or summary: see [`FleetMonitor::publish`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation has more servers than the monitor.
    pub fn observe(&mut self, sim: &Simulation, ambient_c: Celsius) {
        let span = obs::span(names::SPAN_MONITOR_OBSERVE);
        let covered = sim.datacenter().len();
        assert!(
            covered <= self.records.len(),
            "monitor covers {} servers, simulation has {covered}",
            self.records.len()
        );

        // Initial anchor for every server, once traces exist: one batch
        // ψ_stable prediction instead of a scalar predict per server.
        if !self.anchored {
            self.anchored = true;
            let t = sim.now().as_secs_f64();
            let snapshots: Vec<ConfigSnapshot> = (0..covered)
                .map(|server| ConfigSnapshot::capture(sim, ServerId::new(server), ambient_c))
                .collect();
            let psi = self.stable.predict_batch(&snapshots);
            for (server, psi_stable) in psi.into_iter().enumerate() {
                let Ok(host) = sim.datacenter().server(ServerId::new(server)) else {
                    continue;
                };
                let phi0 = host.die_temperature();
                self.records[server].anchor(server, t, phi0, psi_stable, "initial");
            }
        }

        // Re-anchor on new reconfiguration events. An entry the fault
        // plan marked lost never reached the monitor: no event re-anchor;
        // the spike/staleness machinery has to absorb the drift instead.
        while self.log_cursor < sim.log().len() {
            let (at, event) = &sim.log()[self.log_cursor];
            let lost = sim.log_entry_lost(self.log_cursor);
            self.log_cursor += 1;
            if lost {
                continue;
            }
            let touched: &[(ServerId, &str)] = match event {
                SimEvent::VmBooted { server, .. } => &[(*server, "vm_boot")],
                SimEvent::VmStopped { server, .. } => &[(*server, "vm_stop")],
                SimEvent::MigrationStarted { source, dest, .. } => {
                    &[(*source, "migration_start"), (*dest, "migration_start")]
                }
                SimEvent::MigrationCompleted { source, dest, .. } => &[
                    (*source, "migration_complete"),
                    (*dest, "migration_complete"),
                ],
                _ => &[],
            };
            for &(sid, reason) in touched {
                let (Some(record), Ok(host)) = (
                    self.records.get_mut(sid.raw()),
                    sim.datacenter().server(sid),
                ) else {
                    continue;
                };
                let snap = ConfigSnapshot::capture(sim, sid, ambient_c);
                let psi_stable = self.stable.predict(&snap);
                record.anchor(
                    sid.raw(),
                    at.as_secs_f64(),
                    host.die_temperature(),
                    psi_stable,
                    reason,
                );
            }
        }

        let tick = Tick {
            sim,
            stable: &self.stable,
            ambient_c,
            now: sim.now().as_secs_f64(),
            gap_secs: self.gap_secs,
        };
        // Only a server that recorded since the last observe can hold a
        // new sample, and a visit that finds none changes nothing. The
        // engine names those servers after exactly one step; otherwise
        // every server is visited.
        let batch = self.observed_at.and_then(|since| sim.recorded_since(since));
        self.observed_at = Some(sim.now());
        match batch {
            Some(batch) => {
                for &server in batch {
                    self.records[server].update(&tick, server);
                }
            }
            None => {
                for (server, record) in self.records[..covered].iter_mut().enumerate() {
                    record.update(&tick, server);
                }
            }
        }
        if let Some(dur_ns) = span.finish() {
            OBS_OBSERVE_NS.observe(dur_ns as f64);
        }
    }

    /// Writes the monitor's state to the global obs registry, as of the
    /// last [`observe`](Self::observe): for each server updated at least
    /// once, its six drift gauges and a copy of its forecast-error sketch
    /// as its `{server="N"}` summary; then the fleet roll-up gauges. A
    /// no-op while the obs layer is disabled or before any observe.
    ///
    /// This is the monitor's only gauge and summary write. A reader calls
    /// it before it reads the registry: once per tick before
    /// [`obs::eval_alerts`], or once before an export. Each summary is
    /// replaced, not fed, so it describes this monitor alone.
    pub fn publish(&self) {
        let Some(at) = self.observed_at.filter(|_| obs::enabled()) else {
            return;
        };
        let now = at.as_secs_f64();
        let reg = obs::global();
        for (server, r) in self.records.iter().enumerate() {
            if r.last_engine_t.is_nan() {
                continue;
            }
            let gauge = |name| reg.gauge(&names::server_gauge(name, server));
            gauge(names::METRIC_MONITOR_ROLLING_MSE).set(r.rolling_mse());
            gauge(names::METRIC_MONITOR_GAMMA_ABS).set(r.predictor.gamma().abs());
            gauge(names::METRIC_MONITOR_SINCE_REANCHOR).set(now - r.last_anchor);
            gauge(names::METRIC_MONITOR_PENDING).set(r.pending.len() as f64);
            gauge(names::METRIC_MONITOR_HOLDOVER).set(if r.holdover { 1.0 } else { 0.0 });
            if let Some((_, v)) = r.last_accepted {
                gauge(names::METRIC_MONITOR_TEMP_HEADROOM).set(TEMP_LIMIT_C - v);
            }
            reg.summary(&names::server_gauge(
                names::METRIC_MONITOR_PRED_ABS_ERR,
                server,
            ))
            .replace(&r.pred_err);
        }
        reg.gauge(names::METRIC_MONITOR_FLEET_MSE)
            .set(self.fleet_mse());
        reg.gauge(names::METRIC_MONITOR_FLEET_PRED_ERR_P95)
            .set(self.fleet_pred_err().quantile(0.95));
    }

    /// Degradation counters for a server.
    #[must_use]
    pub fn degradation(&self, server: ServerId) -> DegradationStats {
        self.record(server)
            .map(|r| r.degradation)
            .unwrap_or_default()
    }

    /// Whether a server's stream is currently stale (holdover active).
    #[must_use]
    pub fn in_holdover(&self, server: ServerId) -> bool {
        self.record(server).is_some_and(|r| r.holdover)
    }

    /// MSE over the most recent `ROLLING_WINDOW` (128) scored forecasts for a
    /// server (`NaN` before any matured). While fewer than a full window
    /// have been scored this equals [`ServerStats::mse`].
    #[must_use]
    pub fn rolling_mse(&self, server: ServerId) -> f64 {
        self.record(server)
            .map_or(f64::NAN, ServerRecord::rolling_mse)
    }

    /// Number of anchor operations performed for a server, including the
    /// initial anchor.
    #[must_use]
    pub fn reanchor_count(&self, server: ServerId) -> u64 {
        self.record(server).map_or(0, |r| r.reanchors)
    }

    /// Seconds of simulation time of a server's most recent anchor.
    #[must_use]
    pub fn last_anchor_secs(&self, server: ServerId) -> f64 {
        self.record(server).map_or(0.0, |r| r.last_anchor)
    }

    /// The current forecast (`gap_secs` ahead of the latest sample) for a
    /// server, if one is pending.
    #[must_use]
    pub fn latest_forecast(&self, server: ServerId) -> Option<(f64, f64)> {
        self.record(server)?.pending.back().copied()
    }

    /// Per-server accuracy stats.
    #[must_use]
    pub fn stats(&self, server: ServerId) -> ServerStats {
        self.record(server).map(|r| r.stats).unwrap_or_default()
    }

    /// Fleet-wide MSE over all matured forecasts (`NaN` before any),
    /// folded in server-index order.
    #[must_use]
    pub fn fleet_mse(&self) -> f64 {
        let scored: usize = self.records.iter().map(|r| r.stats.scored).sum();
        if scored == 0 {
            return f64::NAN;
        }
        self.records.iter().map(|r| r.stats.sum_sq_err).sum::<f64>() / scored as f64
    }

    /// Fleet-level roll-up of the per-server forecast-error sketches,
    /// folded in server-index order (see
    /// [`obs::MergedQuantiles::absorb`] for the merge contract).
    #[must_use]
    pub fn fleet_pred_err(&self) -> obs::MergedQuantiles {
        let mut merged = obs::MergedQuantiles::new();
        for record in &self.records {
            merged.absorb(&record.pred_err);
        }
        merged
    }

    /// A server's dynamic predictor (read access for diagnostics).
    #[must_use]
    pub fn predictor(&self, server: ServerId) -> Option<&DynamicPredictor> {
        self.record(server).map(|r| &r.predictor)
    }

    /// Cross-checks the monitor's internal bookkeeping against the
    /// simulation it has been observing — the monitor-side oracle of
    /// the scenario fuzzer's battery. Returns one message per violated
    /// consistency rule (empty = healthy):
    ///
    /// * **coverage** — every delivered sample has been consumed
    ///   (`delivered_cursor` matches the stream length, never past it);
    /// * **ingestion** — the newest accepted sample is finite and no
    ///   newer than the simulation clock;
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
        for (server, r) in self.records.iter().enumerate() {
            if let Some(stream) = sim.delivered(ServerId::new(server)) {
                if r.delivered_cursor != stream.len() {
                    violations.push(format!(
                        "server {server}: consumed {} of {} delivered samples",
                        r.delivered_cursor,
                        stream.len()
                    ));
                }
            }
            if let Some((t, v)) = r.last_accepted {
                if !t.is_finite() || t > now {
                    violations.push(format!(
                        "server {server}: ingested sample at t={t} beyond clock {now}"
                    ));
                }
                if !v.is_finite() {
                    violations.push(format!(
                        "server {server}: non-finite ingested value at t={t}"
                    ));
                }
            }
            if !r.last_anchor.is_finite() || r.last_anchor > now {
                violations.push(format!(
                    "server {server}: anchor at t={} beyond clock {now}",
                    r.last_anchor
                ));
            }
            if r.degradation.recovery_reanchors > r.reanchors {
                violations.push(format!(
                    "server {server}: {} recovery re-anchors exceed {} total anchors",
                    r.degradation.recovery_reanchors, r.reanchors
                ));
            }
            if r.holdover && r.degradation.holdover_entries == 0 {
                violations.push(format!(
                    "server {server}: in holdover with no holdover entry recorded"
                ));
            }
            let mut prev = f64::NEG_INFINITY;
            for &(target, forecast) in &r.pending {
                if !target.is_finite() || !forecast.is_finite() || target < prev {
                    violations.push(format!(
                        "server {server}: pending forecast ({target}, {forecast}) \
                         out of order or non-finite"
                    ));
                    break;
                }
                prev = target;
            }
            if !r.stats.sum_sq_err.is_finite() || r.stats.sum_sq_err < 0.0 {
                violations.push(format!(
                    "server {server}: squared-error accumulator {} invalid",
                    r.stats.sum_sq_err
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::fault::{FaultPlan, SpikeFault};
    use vmtherm_sim::{
        AmbientModel, CaseGenerator, ClockMode, Datacenter, Event, ServerSpec, SimDuration,
        SimTime, TaskProfile, VmSpec,
    };
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    /// Serializes tests that drive `FleetMonitor::observe` so the one test
    /// that enables the global obs registry cannot pollute (or be polluted
    /// by) concurrently running monitors, here and in `fleet`'s tests.
    pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
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
        let stable = stable_model();
        // The clean trace, then a spike-only delivery stream: a sleeping
        // server records nothing, so neither stream may issue (and then
        // expire) a forecast per tick while it sleeps.
        let spikes = FaultPlan::new(0x5EED)
            .with_spike(SpikeFault::random(0.01, Celsius::new(15.0), Celsius::new(25.0)).unwrap());
        for plan in [None, Some(spikes)] {
            let faulted = plan.is_some();
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
            if let Some(plan) = plan {
                sim.set_fault_plan(plan).unwrap();
            }
            for i in 0..3 {
                sim.boot_vm_now(
                    ServerId::new(i),
                    VmSpec::new(format!("v{i}"), 1, 2.0, TaskProfile::Idle),
                )
                .unwrap();
            }
            let mut monitor =
                FleetMonitor::new(stable.clone(), DynamicConfig::new(), 3, Seconds::new(60.0))
                    .unwrap();
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
                assert!(
                    s.scored > 10,
                    "server {i} scored only {} (faulted {faulted})",
                    s.scored
                );
                // Each sample is consumed once: forecasts settled (scored
                // or expired) cannot outnumber the sparse samples that
                // triggered them.
                let settled = s.scored as u64 + monitor.degradation(sid).forecasts_expired;
                assert!(
                    settled <= samples as u64,
                    "server {i} re-consumed sleeping samples: {settled} settled, \
                     {samples} samples (faulted {faulted})"
                );
                assert!(!monitor.in_holdover(sid), "sparse stream flagged stale");
            }
            let fleet = monitor.fleet_mse();
            assert!(fleet.is_finite(), "fleet mse {fleet}");
            let report = monitor.invariant_report(&sim);
            assert!(report.is_empty(), "consistency violations: {report:?}");
        }
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
        let before = monitor
            .predictor(ServerId::new(1))
            .unwrap()
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
        let after = monitor
            .predictor(ServerId::new(1))
            .unwrap()
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
        monitor.publish();
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
                (gamma_abs - monitor.predictor(sid).unwrap().gamma().abs()).abs() < 1e-12,
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
            assert_eq!(pending as usize, monitor.record(sid).unwrap().pending.len());
            let headroom = registry
                .gauge(&names::server_gauge(names::METRIC_MONITOR_TEMP_HEADROOM, i))
                .get();
            let (_, measured) = sim.trace(sid).unwrap().sensor_c.last().unwrap();
            assert!(
                (headroom - (TEMP_LIMIT_C - measured)).abs() < 1e-9,
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
