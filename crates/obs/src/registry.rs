//! Metrics registry: counters, gauges, fixed-bucket histograms, and
//! quantile-sketch summaries.
//!
//! Handles (`Counter`, `Gauge`, `Histogram`, `Summary`) are cheap
//! `Arc`-backed clones that write with relaxed atomics (summaries take a
//! short uncontended lock around their sketch); the registry itself is a
//! name → metric map behind a mutex that is only locked on registration and
//! on export. Snapshots render as Prometheus text exposition format or as
//! JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;
use crate::names;
use crate::sketch::QuantileSketch;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the counter by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` value set on it.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))
    }
}

impl Gauge {
    /// Replaces the gauge value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Upper bounds of each bucket, ascending; an implicit +Inf bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// counts[i] observations fell in bucket i (<= bounds[i]); the final
    /// element counts observations above every bound.
    counts: Vec<AtomicU64>,
    /// Sum of all observed values, stored as f64 bits and updated by CAS.
    sum_bits: AtomicU64,
    /// Total number of observations.
    count: AtomicU64,
}

/// A fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Histogram {
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Buckets tuned for nanosecond-scale timings (100ns … 10s).
    pub fn ns_buckets() -> Vec<f64> {
        vec![
            1e2, 2.5e2, 5e2, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6,
            1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 1e10,
        ]
    }

    /// Buckets tuned for °C error magnitudes (0.01 °C … 50 °C).
    pub fn celsius_buckets() -> Vec<f64> {
        vec![
            0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0,
        ]
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|b| value > *b);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of all observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation within
    /// the containing bucket. Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let inner = &self.0;
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, c) in inner.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            let next = cumulative + in_bucket;
            if (next as f64) >= rank && in_bucket > 0 {
                let lo = if i == 0 { 0.0 } else { inner.bounds[i - 1] };
                let hi = inner.bounds.get(i).copied().unwrap_or(lo);
                let frac = ((rank - cumulative as f64) / in_bucket as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            cumulative = next;
        }
        inner.bounds.last().copied().unwrap_or(0.0)
    }

    fn snapshot(&self) -> (Vec<(f64, u64)>, u64, f64) {
        let inner = &self.0;
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(inner.bounds.len() + 1);
        for (i, c) in inner.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            let bound = inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            buckets.push((bound, cumulative));
        }
        (buckets, self.count(), self.sum())
    }
}

/// A streaming quantile summary backed by a deterministic P² sketch
/// ([`QuantileSketch`]); exported as Prometheus `summary` lines with
/// p50/p95/p99 `quantile` labels.
#[derive(Clone, Default)]
pub struct Summary(Arc<Mutex<QuantileSketch>>);

impl std::fmt::Debug for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Summary")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Summary {
    fn lock(&self) -> std::sync::MutexGuard<'_, QuantileSketch> {
        // A poisoned sketch only means a panic elsewhere mid-observe; the
        // marker state is always structurally valid.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation (non-finite values are ignored).
    pub fn observe(&self, value: f64) {
        self.lock().observe(value);
    }

    /// Replaces the summary's state with a copy of `sketch`, for a caller
    /// that keeps its own sketch and exports it as of a point in time.
    pub fn replace(&self, sketch: &QuantileSketch) {
        self.lock().clone_from(sketch);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.lock().sum()
    }

    /// Estimate for the tracked quantile nearest to `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.lock().quantile(q)
    }

    /// All tracked `(q, estimate)` pairs, ascending by q.
    #[must_use]
    pub fn quantiles(&self) -> [(f64, f64); 3] {
        self.lock().quantiles()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Summary(Summary),
}

/// A named collection of metrics.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned registry only means a panic elsewhere; the metric map
        // itself is always structurally valid.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it on first use.
    /// If `name` is already a different metric kind, a detached handle is
    /// returned so callers never panic.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bounds on first use.
    pub fn histogram(&self, name: &str, bounds: fn() -> Vec<f64>) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::with_bounds(bounds()),
        }
    }

    /// Returns the summary registered under `name`, creating it on first
    /// use. Summaries estimate p50/p95/p99 with a deterministic fixed-size
    /// P² sketch (see [`crate::sketch`]).
    pub fn summary(&self, name: &str) -> Summary {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Summary(Summary::default()))
        {
            Metric::Summary(s) => s.clone(),
            _ => Summary::default(),
        }
    }

    /// Zeroes every registered metric in place. Existing handles stay
    /// attached, so cached `Lazy*` instrumentation sites keep reporting into
    /// the registry after a reset (used between benchmark rounds).
    pub fn reset(&self) {
        let map = self.lock();
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0.0_f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for c in &h.0.counts {
                        c.store(0, Ordering::Relaxed);
                    }
                    h.0.sum_bits.store(0.0_f64.to_bits(), Ordering::Relaxed);
                    h.0.count.store(0, Ordering::Relaxed);
                }
                Metric::Summary(s) => s.lock().reset(),
            }
        }
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Renders every metric in Prometheus text exposition format.
    ///
    /// Families (metrics sharing a base name, e.g. per-server labelled
    /// gauges) are grouped under a single `# HELP`/`# TYPE` header pair;
    /// histograms and summaries emit their full triplet (`_bucket`s with a
    /// closing `+Inf` / `quantile` series, then `_sum` and `_count`) with
    /// any embedded labels preserved on every line.
    pub fn to_prometheus(&self) -> String {
        let map = self.lock();
        // Group by family so `# TYPE` appears exactly once per base name
        // even when labelled instances interleave with other families in
        // the sorted key order.
        let mut families: BTreeMap<&str, Vec<(&String, &Metric)>> = BTreeMap::new();
        for (name, metric) in map.iter() {
            families
                .entry(base_name(name))
                .or_default()
                .push((name, metric));
        }
        let mut out = String::new();
        for (base, members) in families {
            if let Some(help) = names::help(base) {
                out.push_str(&format!("# HELP {base} {}\n", escape_help(help)));
            }
            let kind = match members[0].1 {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
                Metric::Summary(_) => "summary",
            };
            out.push_str(&format!("# TYPE {base} {kind}\n"));
            for (name, metric) in members {
                let labels = label_body(name);
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let (buckets, count, sum) = h.snapshot();
                        for (bound, cumulative) in &buckets {
                            let le = if bound.is_finite() {
                                format!("{bound}")
                            } else {
                                "+Inf".to_string()
                            };
                            let series = with_label(base, "_bucket", labels, "le", &le);
                            out.push_str(&format!("{series} {cumulative}\n"));
                        }
                        out.push_str(&format!("{} {sum}\n", suffixed(base, "_sum", labels)));
                        out.push_str(&format!("{} {count}\n", suffixed(base, "_count", labels)));
                    }
                    Metric::Summary(s) => {
                        for (q, est) in s.quantiles() {
                            let series = with_label(base, "", labels, "quantile", &format!("{q}"));
                            out.push_str(&format!("{series} {est}\n"));
                        }
                        out.push_str(&format!("{} {}\n", suffixed(base, "_sum", labels), s.sum()));
                        out.push_str(&format!(
                            "{} {}\n",
                            suffixed(base, "_count", labels),
                            s.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// Numeric snapshot of every metric whose family base name is `base`,
    /// as `(full key, value)` pairs in sorted key order. Counters and
    /// gauges yield their value; histograms and summaries yield the
    /// `q`-quantile (default p99). This is the read API the alert engine
    /// evaluates rules against.
    pub fn family_values(&self, base: &str, q: Option<f64>) -> Vec<(String, f64)> {
        let q = q.unwrap_or(0.99);
        let map = self.lock();
        map.iter()
            .filter(|(name, _)| base_name(name) == base)
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.get() as f64,
                    Metric::Gauge(g) => g.get(),
                    Metric::Histogram(h) => h.quantile(q),
                    Metric::Summary(s) => s.quantile(q),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Renders every metric as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        let map = self.lock();
        let mut pairs = Vec::with_capacity(map.len());
        for (name, metric) in map.iter() {
            let value = match metric {
                Metric::Counter(c) => Json::obj(vec![
                    ("type", Json::str("counter")),
                    ("value", Json::Num(c.get() as f64)),
                ]),
                Metric::Gauge(g) => Json::obj(vec![
                    ("type", Json::str("gauge")),
                    ("value", Json::Num(g.get())),
                ]),
                Metric::Histogram(h) => {
                    let (buckets, count, sum) = h.snapshot();
                    let bucket_json = buckets
                        .iter()
                        .map(|(bound, cumulative)| {
                            Json::obj(vec![
                                ("le", Json::Num(*bound)),
                                ("cumulative", Json::Num(*cumulative as f64)),
                            ])
                        })
                        .collect();
                    Json::obj(vec![
                        ("type", Json::str("histogram")),
                        ("count", Json::Num(count as f64)),
                        ("sum", Json::Num(sum)),
                        ("p50", Json::Num(h.quantile(0.5))),
                        ("p99", Json::Num(h.quantile(0.99))),
                        ("buckets", Json::Arr(bucket_json)),
                    ])
                }
                Metric::Summary(s) => {
                    let [(_, p50), (_, p95), (_, p99)] = s.quantiles();
                    Json::obj(vec![
                        ("type", Json::str("summary")),
                        ("count", Json::Num(s.count() as f64)),
                        ("sum", Json::Num(s.sum())),
                        ("p50", Json::Num(p50)),
                        ("p95", Json::Num(p95)),
                        ("p99", Json::Num(p99)),
                    ])
                }
            };
            pairs.push((name.clone(), value));
        }
        Json::Obj(pairs)
    }
}

/// Strips an embedded `{label="..."}` suffix so TYPE lines use the family name.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label body of a full metric key: `a{x="1"}` → `x="1"`, else `""`.
fn label_body(name: &str) -> &str {
    match (name.find('{'), name.rfind('}')) {
        (Some(open), Some(close)) if close > open => &name[open + 1..close],
        _ => "",
    }
}

/// `base` + `suffix`, re-attaching any label body: `a_sum{x="1"}`.
fn suffixed(base: &str, suffix: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{labels}}}")
    }
}

/// `base` + `suffix` with `extra="value"` merged into the label body.
fn with_label(base: &str, suffix: &str, labels: &str, extra: &str, value: &str) -> String {
    let value = escape_label_value(value);
    if labels.is_empty() {
        format!("{base}{suffix}{{{extra}=\"{value}\"}}")
    } else {
        format!("{base}{suffix}{{{labels},{extra}=\"{value}\"}}")
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text exposition format:
/// backslash and newline become `\\` and `\n` (quotes stay literal).
#[must_use]
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("hits_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits_total").get(), 5);
        let g = reg.gauge("temp");
        g.set(42.5);
        assert_eq!(reg.gauge("temp").get(), 42.5);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::with_bounds(vec![10.0, 20.0, 30.0]);
        for v in [5.0, 15.0, 25.0, 25.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 70.0);
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((20.0..=30.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn histogram_overflow_bucket_counts() {
        let h = Histogram::with_bounds(vec![1.0]);
        h.observe(100.0);
        let (buckets, count, _) = h.snapshot();
        assert_eq!(count, 1);
        assert_eq!(buckets, vec![(1.0, 0), (f64::INFINITY, 1)]);
    }

    #[test]
    fn prometheus_text_includes_all_families() {
        let reg = Registry::new();
        reg.counter("a_total").inc();
        reg.gauge("b{server=\"0\"}").set(1.5);
        reg.histogram("c_ns", Histogram::ns_buckets).observe(300.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 1"));
        assert!(text.contains("# TYPE b gauge"));
        assert!(text.contains("b{server=\"0\"} 1.5"));
        assert!(text.contains("c_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("c_ns_count 1"));
    }

    #[test]
    fn json_snapshot_has_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("h", || vec![1.0, 2.0]);
        h.observe(1.5);
        let json = reg.to_json();
        let entry = json.get("h").expect("h present");
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(entry.get("count").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        reg.counter("x").inc();
        // Asking for the same name as a gauge must not panic.
        reg.gauge("x").set(1.0);
        assert_eq!(reg.counter("x").get(), 1);
        reg.summary("x").observe(1.0);
        assert_eq!(reg.counter("x").get(), 1);
    }

    #[test]
    fn summary_exposes_quantile_series_and_triplet() {
        let reg = Registry::new();
        let s = reg.summary("lat_ns");
        for i in 1..=100 {
            s.observe(i as f64);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat_ns summary"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.95\"}"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("lat_ns_sum 5050"), "{text}");
        assert!(text.contains("lat_ns_count 100"), "{text}");
        let json = reg.to_json();
        let entry = json.get("lat_ns").expect("lat_ns present");
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("summary"));
        let p50 = entry.get("p50").and_then(Json::as_num).expect("p50");
        assert!((p50 - 50.0).abs() < 3.0, "p50 = {p50}");
    }

    #[test]
    fn labelled_histograms_and_summaries_keep_labels_on_every_line() {
        let reg = Registry::new();
        reg.histogram("h_ns{server=\"2\"}", || vec![1.0])
            .observe(5.0);
        reg.summary("s_c{server=\"3\"}").observe(1.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE h_ns histogram"), "{text}");
        assert!(
            text.contains("h_ns_bucket{server=\"2\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("h_ns_sum{server=\"2\"} 5"), "{text}");
        assert!(text.contains("h_ns_count{server=\"2\"} 1"), "{text}");
        assert!(
            text.contains("s_c{server=\"3\",quantile=\"0.5\"} 1"),
            "{text}"
        );
        assert!(text.contains("s_c_count{server=\"3\"} 1"), "{text}");
    }

    #[test]
    fn type_header_appears_once_per_family() {
        let reg = Registry::new();
        reg.gauge("fleet{server=\"0\"}").set(1.0);
        reg.gauge("fleet{server=\"1\"}").set(2.0);
        reg.counter("fleet2_total").inc();
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE fleet gauge").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE fleet2_total counter").count(), 1);
    }

    #[test]
    fn pathological_label_values_are_escaped() {
        let reg = Registry::new();
        let key = format!(
            "weird{{name=\"{}\"}}",
            escape_label_value("a\\b \"quoted\"\nnewline")
        );
        reg.gauge(&key).set(1.0);
        let text = reg.to_prometheus();
        // One line per metric: the raw newline must have been escaped away.
        assert!(
            text.contains("weird{name=\"a\\\\b \\\"quoted\\\"\\nnewline\"} 1"),
            "{text}"
        );
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition:\n{text}");
        }
    }

    #[test]
    fn help_lines_are_emitted_and_escaped() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        let reg = Registry::new();
        reg.counter(crate::names::METRIC_ENGINE_STEPS).inc();
        let text = reg.to_prometheus();
        assert!(
            text.contains(&format!("# HELP {} ", crate::names::METRIC_ENGINE_STEPS)),
            "{text}"
        );
    }

    #[test]
    fn family_values_reads_every_kind() {
        let reg = Registry::new();
        reg.counter("fv_total").add(3);
        reg.gauge("fv_g{server=\"0\"}").set(1.5);
        reg.gauge("fv_g{server=\"1\"}").set(2.5);
        let s = reg.summary("fv_s");
        for i in 1..=100 {
            s.observe(i as f64);
        }
        assert_eq!(
            reg.family_values("fv_total", None),
            vec![("fv_total".to_string(), 3.0)]
        );
        let gauges = reg.family_values("fv_g", None);
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].1, 1.5);
        assert_eq!(gauges[1].1, 2.5);
        let p50 = reg.family_values("fv_s", Some(0.5))[0].1;
        assert!((p50 - 50.0).abs() < 3.0, "p50 = {p50}");
        assert!(reg.family_values("missing", None).is_empty());
    }
}
