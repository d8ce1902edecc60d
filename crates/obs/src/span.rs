//! Span/timer API with thread-local span stacks.
//!
//! `span("name")` returns a guard; while the guard lives, nested spans see
//! the name on their thread's stack, so each close records a slash-joined
//! path (`experiment_run/engine_run`). Closed spans aggregate into a global
//! path → `SpanStat` table that `obs-report` renders as a timing tree, and
//! emit a [`crate::event::ObsEvent::Span`] record when tracing is on. A
//! metric that reports a span's latency takes it from
//! [`SpanGuard::finish`], so each timed region has one clock pair.
//!
//! When the layer is disabled ([`crate::enabled`] is false) the guard holds
//! no timestamp and its drop is a branch on `None` — the
//! zero-overhead-when-disabled guarantee.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::event::ObsEvent;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate timing for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closes.
    pub total_ns: u64,
    /// Longest single close, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// Mean duration per close, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
    }
}

/// Aggregates keyed by the span stack itself, so a close looks its path up
/// by slice and joins no string; [`span_stats`] joins the keys.
static SPAN_STATS: Mutex<BTreeMap<Vec<&'static str>, SpanStat>> = Mutex::new(BTreeMap::new());

/// RAII guard returned by [`span`]; records timing when dropped or
/// [`finish`](SpanGuard::finish)ed.
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span. When the layer is disabled this is a single relaxed load
/// and the returned guard does nothing on drop.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    STACK.with(|stack| {
        if let Ok(mut stack) = stack.try_borrow_mut() {
            stack.push(name);
        }
    });
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl SpanGuard {
    /// Closes the span now and returns the duration it recorded, so a
    /// metric reporting the same region reads this one clock pair instead
    /// of its own. `None` when the layer was disabled at open.
    pub fn finish(mut self) -> Option<u64> {
        self.close()
    }

    fn close(&mut self) -> Option<u64> {
        let start = self.start.take()?;
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|stack| {
            let Ok(mut stack) = stack.try_borrow_mut() else {
                return;
            };
            if stack.is_empty() {
                return;
            }
            let mut stats = SPAN_STATS.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(stat) = stats.get_mut(stack.as_slice()) {
                stat.record(dur_ns);
            } else {
                stats.entry(stack.clone()).or_default().record(dur_ns);
            }
            drop(stats);
            crate::emit_with(|| ObsEvent::Span {
                path: stack.join("/"),
                dur_ns,
            });
            stack.pop();
        });
        Some(dur_ns)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Snapshot of all span paths and their aggregate timings, sorted by the
/// slash-joined path.
pub fn span_stats() -> Vec<(String, SpanStat)> {
    let stats = SPAN_STATS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<(String, SpanStat)> = stats.iter().map(|(k, v)| (k.join("/"), *v)).collect();
    drop(stats);
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Clears the aggregate span table (for tests and benchmarks).
pub fn reset_spans() {
    SPAN_STATS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests toggle the process-global enabled flag, so they serialize.
    use crate::TEST_LOCK;

    #[test]
    fn disabled_span_records_nothing() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::set_enabled(false);
        {
            let _g = span("quiet");
        }
        assert!(span_stats().iter().all(|(p, _)| p != "quiet"));
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::set_enabled(true);
        {
            let _outer = span("outer_t");
            let _inner = span("inner_t");
        }
        crate::set_enabled(false);
        let stats = span_stats();
        let paths: Vec<&str> = stats.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"outer_t"), "paths = {paths:?}");
        assert!(paths.contains(&"outer_t/inner_t"), "paths = {paths:?}");
        let (_, inner) = stats.iter().find(|(p, _)| p == "outer_t/inner_t").unwrap();
        assert_eq!(inner.count, 1);
    }

    #[test]
    fn repeat_spans_aggregate() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::set_enabled(true);
        for _ in 0..3 {
            let _g = span("thrice_t");
        }
        crate::set_enabled(false);
        let stats = span_stats();
        let (_, stat) = stats.iter().find(|(p, _)| p == "thrice_t").unwrap();
        assert_eq!(stat.count, 3);
        assert!(stat.mean_ns() > 0.0);
    }

    #[test]
    fn finish_returns_the_recorded_duration_once() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let stat = |path: &str| span_stats().into_iter().find(|(p, _)| p == path);
        crate::set_enabled(true);
        let dur_ns = span("finish_t").finish().expect("enabled span times");
        crate::set_enabled(false);
        let (_, recorded) = stat("finish_t").unwrap();
        assert_eq!(recorded.count, 1);
        assert_eq!(recorded.total_ns, dur_ns);
        assert_eq!(recorded.max_ns, dur_ns);

        assert_eq!(span("finish_off_t").finish(), None);
        assert!(stat("finish_off_t").is_none());
    }

    #[test]
    fn span_stats_sort_by_joined_path() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_spans();
        crate::set_enabled(true);
        {
            let _dash = span("a-b");
        }
        {
            let _a = span("a");
            let _b = span("b");
        }
        crate::set_enabled(false);
        let paths: Vec<String> = span_stats().into_iter().map(|(p, _)| p).collect();
        // The keys sort as ["a"] < ["a", "b"] < ["a-b"]; the joined paths
        // must not: '-' sorts before '/'.
        assert_eq!(paths, ["a", "a-b", "a/b"]);
    }
}
