//! Dependency-free observability layer for the vmtherm workspace.
//!
//! Three pillars, sized for an offline/vendored build where `tracing` and
//! `prometheus` are unavailable:
//!
//! 1. a process-global [`Registry`] of counters, gauges, and fixed-bucket
//!    histograms, exportable as Prometheus text or JSON ([`registry`]);
//! 2. a span/timer API ([`span`](fn@span)) with thread-local span stacks that
//!    aggregates into a per-run timing tree;
//! 3. a schema-versioned JSONL event log ([`event`]) with a ring-buffer
//!    mode, parsed and rendered by [`report`] (the `vmtherm obs-report`
//!    subcommand).
//!
//! The whole layer is **off by default**. Instrumented hot paths go through
//! [`LazyCounter`] / [`LazyHistogram`] / [`LazySummary`] handles or
//! [`span`](fn@span) guards, all of which check one relaxed atomic load
//! first — when disabled, instrumentation costs a branch and nothing else,
//! and nothing allocates. A timed region is a span; a histogram or summary
//! reporting its latency observes [`SpanGuard::finish`]'s duration, so the
//! region reads the clock once at open and once at close. The one timer,
//! [`LazyHistogram::start_timer`], is for sampled timing outside the tree.

#![warn(missing_docs)]
// Library code is panic-free: a vetted unwrap/expect/panic carries an
// `#[expect(..., reason = "...")]` at the statement, and xtask lint L10
// pins how many there are (test code is exempt through clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod alert;
pub mod event;
pub mod json;
pub mod names;
pub mod registry;
pub mod report;
pub mod serve;
pub mod sketch;
mod span;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

pub use alert::{AlertEngine, AlertEvent, AlertRule, Cmp};
pub use event::{EventLog, ObsEvent, TraceMode, SCHEMA_VERSION};
pub use json::Json;
pub use registry::{Counter, Gauge, Histogram, Registry, Summary};
pub use serve::ScrapeServer;
pub use sketch::{MergedQuantiles, QuantileSketch};
pub use span::{reset_spans, span, span_stats, SpanGuard, SpanStat};

/// Serializes tests that toggle the process-global flags.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
static TRACE_LOG: Mutex<Option<EventLog>> = Mutex::new(None);
static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ALERT_ENGINE: Mutex<Option<AlertEngine>> = Mutex::new(None);
static FLIGHT_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// True when the observability layer is recording. Instrumentation sites
/// branch on this; it is a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the metrics/span layer on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global metrics registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// True when structured events are being collected.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Starts collecting structured events into a fresh log with the given
/// retention mode, and enables the layer.
pub fn enable_trace(mode: TraceMode) {
    let mut log = TRACE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    *log = Some(EventLog::new(mode));
    drop(log);
    TRACING.store(true, Ordering::Relaxed);
    set_enabled(true);
}

/// Stops event collection and returns everything buffered so far.
pub fn disable_trace() -> Vec<ObsEvent> {
    TRACING.store(false, Ordering::Relaxed);
    let mut log = TRACE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    log.take().map(|mut l| l.drain()).unwrap_or_default()
}

/// Appends one structured event; a no-op unless tracing is on.
pub fn emit(event: ObsEvent) {
    if !tracing() {
        return;
    }
    let mut log = TRACE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(log) = log.as_mut() {
        log.push(event);
    }
}

/// Like [`emit`], but the event is only constructed when tracing is on —
/// use on hot paths where building the record itself has a cost.
#[inline]
pub fn emit_with(build: impl FnOnce() -> ObsEvent) {
    if tracing() {
        emit(build());
    }
}

/// Clones the currently buffered trace events without draining them; empty
/// when tracing is off. This is the flight recorder's read path.
pub fn snapshot_trace() -> Vec<ObsEvent> {
    let log = TRACE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    log.as_ref().map(EventLog::snapshot).unwrap_or_default()
}

/// Installs an alert engine for [`eval_alerts`] to tick, replacing any
/// previous one (state machines restart cold).
pub fn install_alerts(engine: AlertEngine) {
    let mut guard = ALERT_ENGINE.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = Some(engine);
}

/// Removes the installed alert engine, if any.
pub fn clear_alerts() {
    let mut guard = ALERT_ENGINE.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = None;
}

/// Arms the flight recorder: on every alert firing, the trace ring is
/// snapshotted to `dir/alert-<rule>-<instance>-t<secs>.jsonl` (the dump
/// includes the alert record itself as its final line). Requires tracing
/// to be on for dumps to have content.
pub fn set_flight_dir(dir: PathBuf) {
    let mut guard = FLIGHT_DIR.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = Some(dir);
}

/// Disarms the flight recorder.
pub fn clear_flight_dir() {
    let mut guard = FLIGHT_DIR.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = None;
}

/// JSON view of the installed alert engine for the `/alerts` endpoint; an
/// empty rules/active pair when no engine is installed.
pub fn alerts_json() -> Json {
    let guard = ALERT_ENGINE.lock().unwrap_or_else(PoisonError::into_inner);
    match guard.as_ref() {
        Some(engine) => engine.to_json(),
        None => Json::obj(vec![
            ("rules", Json::Arr(Vec::new())),
            ("active", Json::Arr(Vec::new())),
        ]),
    }
}

/// Runs one alert-evaluation tick at sim time `t_secs`: updates the
/// `ALERT_*` counters and gauges, emits trace records for every
/// transition, and writes flight-recorder dumps for firings when armed.
/// A no-op returning no events unless [`install_alerts`] was called.
pub fn eval_alerts(t_secs: f64) -> Vec<AlertEvent> {
    let mut guard = ALERT_ENGINE.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(engine) = guard.as_mut() else {
        return Vec::new();
    };
    let registry = global();
    let mut events = engine.eval(registry, t_secs);
    for event in &mut events {
        if event.fired {
            registry.counter(names::ALERT_FIRED_TOTAL).inc();
            if let Some(path) = write_flight_dump(event) {
                registry.counter(names::ALERT_DUMPS_TOTAL).inc();
                event.dump = Some(path);
            }
        } else {
            registry.counter(names::ALERT_CLEARED_TOTAL).inc();
        }
        emit(ObsEvent::Alert {
            t_secs: event.t_secs,
            name: event.rule.clone(),
            instance: event.instance.clone(),
            value: event.value,
            threshold: event.threshold,
            fired: event.fired,
        });
    }
    registry
        .gauge(names::ALERT_ACTIVE)
        .set(engine.active_count() as f64);
    for rule in engine.rules() {
        let key = names::labeled_metric(names::ALERT_ACTIVE_BASE, &[("alert", &rule.name)]);
        registry
            .gauge(&key)
            .set(f64::from(u8::from(engine.rule_active(&rule.name))));
    }
    events
}

/// Snapshots the trace ring to a per-alert JSONL file; `None` when the
/// recorder is disarmed, tracing is off, or the write fails (alerting must
/// never take the run down over an I/O error).
fn write_flight_dump(event: &AlertEvent) -> Option<String> {
    let dir = {
        let guard = FLIGHT_DIR.lock().unwrap_or_else(PoisonError::into_inner);
        guard.clone()?
    };
    let preceding = snapshot_trace();
    if preceding.is_empty() {
        return None;
    }
    let mut text = event::to_jsonl(&preceding);
    text.push_str(
        &ObsEvent::Alert {
            t_secs: event.t_secs,
            name: event.rule.clone(),
            instance: event.instance.clone(),
            value: event.value,
            threshold: event.threshold,
            fired: event.fired,
        }
        .to_json()
        .render(),
    );
    text.push('\n');
    let file = dir.join(format!(
        "alert-{}-{}-t{:.0}.jsonl",
        sanitize_component(&event.rule),
        sanitize_component(&event.instance),
        event.t_secs,
    ));
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&file, text).ok()?;
    Some(file.to_string_lossy().into_owned())
}

/// Maps a rule or instance name onto a filesystem-safe filename component.
fn sanitize_component(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A counter handle resolved against the global registry on first use.
/// `const`-constructible so instrumentation sites can own a `static`.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declares a counter bound to `name` in the global registry.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn handle(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// Increments by one when the layer is enabled.
    #[inline]
    pub fn inc(&self) {
        if enabled() {
            self.handle().inc();
        }
    }

    /// Increments by `n` when the layer is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.handle().add(n);
        }
    }
}

/// A histogram handle resolved against the global registry on first use.
pub struct LazyHistogram {
    name: &'static str,
    bounds: fn() -> Vec<f64>,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram bound to `name` with the given bucket bounds.
    pub const fn new(name: &'static str, bounds: fn() -> Vec<f64>) -> LazyHistogram {
        LazyHistogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    fn handle(&self) -> &Histogram {
        self.cell
            .get_or_init(|| global().histogram(self.name, self.bounds))
    }

    /// Records one observation when the layer is enabled.
    #[inline]
    pub fn observe(&self, value: f64) {
        if enabled() {
            self.handle().observe(value);
        }
    }

    /// Starts a wall-clock timer whose elapsed nanoseconds are recorded on
    /// drop. When the layer is disabled the timer holds no timestamp and its
    /// drop is a branch on `None`. For sampled timing outside the span tree;
    /// a region that is a span takes its latency from [`SpanGuard::finish`].
    #[inline]
    pub fn start_timer(&'static self) -> Timer {
        Timer {
            hist: self,
            start: enabled().then(std::time::Instant::now),
        }
    }
}

/// RAII timer from [`LazyHistogram::start_timer`]: records the elapsed
/// nanoseconds into its histogram on drop.
pub struct Timer {
    hist: &'static LazyHistogram,
    start: Option<std::time::Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.observe(ns as f64);
        }
    }
}

/// A summary (quantile-sketch) handle resolved against the global registry
/// on first use.
pub struct LazySummary {
    name: &'static str,
    cell: OnceLock<Summary>,
}

impl LazySummary {
    /// Declares a summary bound to `name` in the global registry.
    pub const fn new(name: &'static str) -> LazySummary {
        LazySummary {
            name,
            cell: OnceLock::new(),
        }
    }

    fn handle(&self) -> &Summary {
        self.cell.get_or_init(|| global().summary(self.name))
    }

    /// Records one observation when the layer is enabled.
    #[inline]
    pub fn observe(&self, value: f64) {
        if enabled() {
            self.handle().observe(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_handles_are_inert_when_disabled() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        static C: LazyCounter = LazyCounter::new("lib_test_disabled_total");
        set_enabled(false);
        C.inc();
        C.add(5);
        // Nothing registered: the name must not appear in the registry.
        assert!(!global()
            .names()
            .contains(&"lib_test_disabled_total".to_string()));
    }

    #[test]
    fn lazy_handles_record_when_enabled() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        static C: LazyCounter = LazyCounter::new("lib_test_enabled_total");
        static H: LazyHistogram = LazyHistogram::new("lib_test_ns", Histogram::ns_buckets);
        static S: LazySummary = LazySummary::new("lib_test_summary_ns");
        set_enabled(true);
        C.add(3);
        {
            let _t = H.start_timer();
        }
        S.observe(7.0);
        set_enabled(false);
        assert_eq!(global().counter("lib_test_enabled_total").get(), 3);
        assert_eq!(global().summary("lib_test_summary_ns").count(), 1);
        assert_eq!(
            global()
                .histogram("lib_test_ns", Histogram::ns_buckets)
                .count(),
            1
        );
    }

    #[test]
    fn trace_buffer_collects_and_drains() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_trace(TraceMode::Ring(4));
        emit(ObsEvent::Meta {
            cmd: "test".to_string(),
        });
        emit_with(|| ObsEvent::GammaUpdate {
            t_secs: 1.0,
            gamma: 0.5,
        });
        let events = disable_trace();
        set_enabled(false);
        assert!(events.contains(&ObsEvent::Meta {
            cmd: "test".to_string()
        }));
        assert!(!tracing());
        // After disable, emits are dropped.
        emit(ObsEvent::Meta {
            cmd: "late".to_string(),
        });
        assert!(snapshot_trace().is_empty());
    }

    #[test]
    fn alert_tick_updates_metrics_and_writes_flight_dump() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_trace(TraceMode::Ring(8));
        let dir = std::env::temp_dir().join("vmtherm_obs_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        set_flight_dir(dir.clone());
        global().gauge("flight_test_g").set(10.0);
        install_alerts(AlertEngine::new(vec![AlertRule {
            name: "flight_test_high".to_string(),
            metric: "flight_test_g".to_string(),
            quantile: None,
            cmp: Cmp::Gt,
            threshold: 5.0,
            for_ticks: 1,
            clear_threshold: 5.0,
        }]));
        emit(ObsEvent::Meta {
            cmd: "pre-incident".to_string(),
        });
        let fired_before = global().counter(names::ALERT_FIRED_TOTAL).get();

        let events = eval_alerts(42.0);
        assert_eq!(events.len(), 1);
        assert!(events[0].fired);
        assert_eq!(
            global().counter(names::ALERT_FIRED_TOTAL).get(),
            fired_before + 1
        );
        assert_eq!(global().gauge(names::ALERT_ACTIVE).get(), 1.0);
        let per_rule =
            names::labeled_metric(names::ALERT_ACTIVE_BASE, &[("alert", "flight_test_high")]);
        assert_eq!(global().gauge(&per_rule).get(), 1.0);

        // The dump holds the preceding ring plus the alert record, and
        // round-trips through the report parser.
        let dump = events[0].dump.clone().expect("flight dump written");
        let text = std::fs::read_to_string(&dump).expect("dump readable");
        let parsed = report::parse_jsonl(&text).expect("dump parses");
        assert!(parsed
            .iter()
            .any(|e| matches!(e, ObsEvent::Meta { cmd } if cmd == "pre-incident")));
        assert!(matches!(
            parsed.last(),
            Some(ObsEvent::Alert { fired: true, .. })
        ));

        // Clearing: drop below threshold for one tick.
        global().gauge("flight_test_g").set(1.0);
        let cleared = eval_alerts(43.0);
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].fired);
        assert_eq!(global().gauge(names::ALERT_ACTIVE).get(), 0.0);
        assert_eq!(global().gauge(&per_rule).get(), 0.0);

        clear_alerts();
        clear_flight_dir();
        disable_trace();
        set_enabled(false);
        assert!(eval_alerts(44.0).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
