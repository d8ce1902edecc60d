//! Bench-side spans around every layer call.
//!
//! The benchmark times the crates from outside: each call into a layer is
//! wrapped in a span that records its name, start, end, parent and op id.
//! Spans stay in memory (up to [`RECORD_CAP`]) and are written as JSONL
//! when the run ends. Per-name totals and self times (a span's duration
//! minus the part its child spans cover) are kept for every span, kept
//! records or not, so the layer table is exact however long the run.
//!
//! A disabled tracer records nothing; `enter`/`exit` are then one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most span records held for the JSONL file; a fleet op opens two spans
/// per tick, so long traced runs would otherwise hold millions.
pub const RECORD_CAP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the run.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Op the span belongs to (0 is the traced set-up).
    pub op: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Aggregate timing of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Token returned by [`Tracer::enter`], handed back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Span(Option<u64>);

/// Records spans for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u32,
    next_id: u64,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    dropped: u64,
    layers: BTreeMap<&'static str, LayerTime>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            layers: BTreeMap::new(),
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Span {
        if !self.enabled {
            return Span(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
        Span(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order, a bug in the caller.
    pub fn exit(&mut self, span: Span) {
        let Some(id) = span.0 else {
            return;
        };
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without an open span");
        assert_eq!(open.id, id, "spans closed out of order");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let layer = self.layers.entry(open.name).or_default();
        layer.count += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(open.child_ns);
        if self.records.len() < RECORD_CAP {
            self.records.push(SpanRecord {
                id,
                parent: self.stack.last().map(|p| p.id),
                op: self.op,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Per-name totals, sorted by name.
    #[must_use]
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.layers
    }

    /// Self time of the spans named `name`, seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
    }

    /// Forgets the per-name totals; kept records stay for the JSONL file.
    pub fn reset_totals(&mut self) {
        self.layers.clear();
    }

    /// Spans not kept as records because [`RECORD_CAP`] was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept records as JSONL, one span per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.op, r.name, r.start_ns, r.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.enter("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit(outer);
        let outer = tr.layers()["outer"];
        let inner = tr.layers()["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"inner\"") && lines[0].contains("\"parent\":0"));
        assert!(lines[1].contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.enter("x");
        tr.exit(s);
        assert!(tr.layers().is_empty());
        assert!(tr.to_jsonl().is_empty());
    }
}
