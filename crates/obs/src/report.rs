//! Parses JSONL trace files and renders a timing tree plus top-line metrics.
//!
//! This is the engine behind `vmtherm obs-report`. Parsing is strict — every
//! line must be a valid schema-v1 record — so the CI smoke step doubles as
//! schema validation for traces produced by instrumented runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::ObsEvent;
use crate::json;
use crate::span::SpanStat;

/// One rejected JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Parses a JSONL document into events, validating every line against the
/// schema. Blank lines are permitted; any other invalid line is an error.
pub fn parse_jsonl(text: &str) -> Result<Vec<ObsEvent>, Vec<LineError>> {
    let mut events = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| ObsEvent::from_json(&v))
        {
            Ok(event) => events.push(event),
            Err(message) => errors.push(LineError {
                line: i + 1,
                message,
            }),
        }
    }
    if errors.is_empty() {
        Ok(events)
    } else {
        Err(errors)
    }
}

/// Aggregated view of a trace, ready to render.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Commands named in `meta` records, in order of appearance.
    pub cmds: Vec<String>,
    /// Aggregated span timings keyed by slash-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Every recorded duration per path, ascending, backing the
    /// nearest-rank p50/p95/p99 columns in [`render`].
    pub span_durations: BTreeMap<String, Vec<u64>>,
    /// Fault-injection events per channel (`stuck`, `spike`, …).
    pub faults: BTreeMap<String, u64>,
    /// Alert firings per rule name.
    pub alerts_fired: BTreeMap<String, u64>,
    /// Alert clears per rule name.
    pub alerts_cleared: BTreeMap<String, u64>,
    /// Record count per event kind.
    pub kind_counts: BTreeMap<String, u64>,
    /// SMO solves seen.
    pub smo_solves: u64,
    /// Total SMO iterations across solves.
    pub smo_iterations: u64,
    /// SMO solves that converged.
    pub smo_converged: u64,
    /// Kernel cache hits / misses across solves.
    pub cache_hits: u64,
    /// Kernel cache misses across solves.
    pub cache_misses: u64,
    /// γ updates seen, and the last γ value.
    pub gamma_updates: u64,
    /// Most recent γ value, if any update was traced.
    pub last_gamma: Option<f64>,
    /// Re-anchor count per reason string.
    pub reanchors: BTreeMap<String, u64>,
    /// Scored forecasts and their accumulated |error|.
    pub forecasts_scored: u64,
    /// Sum of |forecast error| in °C over scored forecasts.
    pub sum_abs_err_c: f64,
}

impl TraceReport {
    /// Mean absolute forecast error over scored forecasts, °C.
    pub fn mean_abs_err_c(&self) -> f64 {
        if self.forecasts_scored == 0 {
            0.0
        } else {
            self.sum_abs_err_c / self.forecasts_scored as f64
        }
    }
}

/// Aggregates parsed events into a [`TraceReport`].
pub fn summarize(events: &[ObsEvent]) -> TraceReport {
    let mut report = TraceReport::default();
    for event in events {
        *report
            .kind_counts
            .entry(event.kind().to_string())
            .or_insert(0) += 1;
        match event {
            ObsEvent::Meta { cmd } => report.cmds.push(cmd.clone()),
            ObsEvent::Span { path, dur_ns } => {
                let stat = report.spans.entry(path.clone()).or_default();
                stat.count += 1;
                stat.total_ns += dur_ns;
                stat.max_ns = stat.max_ns.max(*dur_ns);
                report
                    .span_durations
                    .entry(path.clone())
                    .or_default()
                    .push(*dur_ns);
            }
            ObsEvent::SmoSolve {
                iterations,
                converged,
                cache_hits,
                cache_misses,
                ..
            } => {
                report.smo_solves += 1;
                report.smo_iterations += *iterations as u64;
                report.smo_converged += u64::from(*converged);
                report.cache_hits += cache_hits;
                report.cache_misses += cache_misses;
            }
            ObsEvent::GammaUpdate { gamma, .. } => {
                report.gamma_updates += 1;
                report.last_gamma = Some(*gamma);
            }
            ObsEvent::Reanchor { reason, .. } => {
                *report.reanchors.entry(reason.clone()).or_insert(0) += 1;
            }
            ObsEvent::ForecastScored { err_c, .. } => {
                report.forecasts_scored += 1;
                report.sum_abs_err_c += err_c.abs();
            }
            ObsEvent::Fault { channel, .. } => {
                *report.faults.entry(channel.clone()).or_insert(0) += 1;
            }
            ObsEvent::Alert { name, fired, .. } => {
                let per_rule = if *fired {
                    &mut report.alerts_fired
                } else {
                    &mut report.alerts_cleared
                };
                *per_rule.entry(name.clone()).or_insert(0) += 1;
            }
            ObsEvent::Sample { .. } | ObsEvent::Forecast { .. } => {}
        }
    }
    for durations in report.span_durations.values_mut() {
        durations.sort_unstable();
    }
    report
}

/// The nearest-rank `q` quantile of ascending `sorted`: its ⌈q·n⌉-th
/// smallest value, always one that was recorded.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// A span-tree node: children keyed (and therefore rendered) by name, so
/// sibling ordering is explicitly deterministic regardless of how paths
/// interleave lexicographically (a `-` sorts before `/`, so flat path
/// iteration can split a parent from its children).
#[derive(Default)]
struct SpanNode<'a> {
    path: Option<&'a str>,
    children: BTreeMap<&'a str, SpanNode<'a>>,
}

fn build_span_tree(report: &TraceReport) -> SpanNode<'_> {
    let mut root = SpanNode::default();
    for path in report.spans.keys() {
        let mut node = &mut root;
        for segment in path.split('/') {
            node = node.children.entry(segment).or_default();
        }
        node.path = Some(path);
    }
    root
}

fn render_span_tree(out: &mut String, node: &SpanNode<'_>, depth: usize, report: &TraceReport) {
    for (name, child) in &node.children {
        let indent = 2 + depth * 2;
        match child.path.and_then(|p| report.spans.get(p).map(|s| (p, s))) {
            Some((path, stat)) => {
                let quantiles = report
                    .span_durations
                    .get(path)
                    .filter(|d| !d.is_empty())
                    .map(|d| {
                        format!(
                            "  p50 {:>9}  p95 {:>9}  p99 {:>9}",
                            fmt_ns(nearest_rank(d, 0.5) as f64),
                            fmt_ns(nearest_rank(d, 0.95) as f64),
                            fmt_ns(nearest_rank(d, 0.99) as f64),
                        )
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{:indent$}{name:<24} calls {:>6}  total {:>10}  mean {:>10}  max {:>10}{quantiles}",
                    "",
                    stat.count,
                    fmt_ns(stat.total_ns as f64),
                    fmt_ns(stat.mean_ns()),
                    fmt_ns(stat.max_ns as f64),
                );
            }
            // An interior segment that never closed as a span itself.
            None => {
                let _ = writeln!(out, "{:indent$}{name}", "");
            }
        }
        render_span_tree(out, child, depth + 1, report);
    }
}

/// Renders the timing tree and top-line metrics as human-readable text.
pub fn render(report: &TraceReport) -> String {
    let mut out = String::new();
    if !report.cmds.is_empty() {
        let _ = writeln!(out, "commands: {}", report.cmds.join(", "));
    }

    let _ = writeln!(out, "\ntiming tree ({} span paths):", report.spans.len());
    if report.spans.is_empty() {
        let _ = writeln!(out, "  (no spans recorded — was the run traced?)");
    }
    render_span_tree(&mut out, &build_span_tree(report), 0, report);

    let _ = writeln!(out, "\ntop-line metrics:");
    let mut kinds: Vec<String> = report
        .kind_counts
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    kinds.sort();
    let _ = writeln!(out, "  records: {}", kinds.join(" "));
    if report.smo_solves > 0 {
        let lookups = report.cache_hits + report.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            100.0 * report.cache_hits as f64 / lookups as f64
        };
        let _ = writeln!(
            out,
            "  smo: {} solves ({} converged), {} iterations, cache hit rate {hit_rate:.1}%",
            report.smo_solves, report.smo_converged, report.smo_iterations,
        );
    }
    if report.gamma_updates > 0 {
        let _ = writeln!(
            out,
            "  calibration: {} γ updates, last γ = {:.4}",
            report.gamma_updates,
            report.last_gamma.unwrap_or(0.0),
        );
    }
    if !report.reanchors.is_empty() {
        let reasons: Vec<String> = report
            .reanchors
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        let _ = writeln!(out, "  re-anchors: {}", reasons.join(" "));
    }
    if report.forecasts_scored > 0 {
        let _ = writeln!(
            out,
            "  forecasts: {} scored, mean |err| = {:.3} °C",
            report.forecasts_scored,
            report.mean_abs_err_c(),
        );
    }
    if !report.faults.is_empty() {
        let channels: Vec<String> = report
            .faults
            .iter()
            .map(|(c, n)| format!("{c}={n}"))
            .collect();
        let _ = writeln!(out, "  faults injected: {}", channels.join(" "));
    }
    if !report.alerts_fired.is_empty() || !report.alerts_cleared.is_empty() {
        let mut rules: Vec<&String> = report
            .alerts_fired
            .keys()
            .chain(report.alerts_cleared.keys())
            .collect();
        rules.sort();
        rules.dedup();
        let cells: Vec<String> = rules
            .iter()
            .map(|rule| {
                format!(
                    "{rule} fired={} cleared={}",
                    report.alerts_fired.get(*rule).copied().unwrap_or(0),
                    report.alerts_cleared.get(*rule).copied().unwrap_or(0),
                )
            })
            .collect();
        let _ = writeln!(out, "  alerts: {}", cells.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> String {
        let events = [
            ObsEvent::Meta {
                cmd: "monitor".to_string(),
            },
            ObsEvent::Span {
                path: "experiment_run".to_string(),
                dur_ns: 4_000_000,
            },
            ObsEvent::Span {
                path: "experiment_run/engine_run".to_string(),
                dur_ns: 3_000_000,
            },
            ObsEvent::Span {
                path: "experiment_run/engine_run".to_string(),
                dur_ns: 1_000_000,
            },
            ObsEvent::Span {
                path: "stable_train".to_string(),
                dur_ns: 9_000_000,
            },
            ObsEvent::Span {
                path: "stable_train/smo_solve".to_string(),
                dur_ns: 8_000_000,
            },
            ObsEvent::GammaUpdate {
                t_secs: 15.0,
                gamma: 0.2,
            },
            ObsEvent::Reanchor {
                t_secs: 100.0,
                server: 0,
                phi0_c: 45.0,
                psi_stable_c: 60.0,
                reason: "vm_boot".to_string(),
            },
            ObsEvent::ForecastScored {
                t_secs: 75.0,
                server: 0,
                err_c: -0.5,
            },
            ObsEvent::ForecastScored {
                t_secs: 90.0,
                server: 0,
                err_c: 1.5,
            },
            ObsEvent::SmoSolve {
                n: 100,
                iterations: 500,
                converged: true,
                dur_ns: 8_000_000,
                cache_hits: 80,
                cache_misses: 20,
            },
        ];
        crate::event::to_jsonl(&events)
    }

    #[test]
    fn parses_and_summarizes_a_trace() {
        let events = parse_jsonl(&trace()).expect("valid trace");
        let report = summarize(&events);
        assert_eq!(report.cmds, vec!["monitor"]);
        assert_eq!(report.spans["experiment_run/engine_run"].count, 2);
        assert_eq!(
            report.spans["experiment_run/engine_run"].total_ns,
            4_000_000
        );
        assert_eq!(report.gamma_updates, 1);
        assert_eq!(report.reanchors["vm_boot"], 1);
        assert_eq!(report.forecasts_scored, 2);
        assert!((report.mean_abs_err_c() - 1.0).abs() < 1e-12);
        assert_eq!(report.smo_iterations, 500);
    }

    #[test]
    fn render_shows_tree_and_toplines() {
        let events = parse_jsonl(&trace()).expect("valid trace");
        let text = render(&summarize(&events));
        assert!(text.contains("engine_run"), "{text}");
        assert!(text.contains("smo_solve"), "{text}");
        assert!(text.contains("re-anchors: vm_boot=1"), "{text}");
        assert!(text.contains("cache hit rate 80.0%"), "{text}");
    }

    #[test]
    fn invalid_lines_are_reported_with_numbers() {
        let text =
            "{\"v\":1,\"kind\":\"meta\",\"cmd\":\"x\"}\nnot json\n{\"v\":2,\"kind\":\"meta\"}\n";
        let errors = parse_jsonl(text).expect_err("invalid lines");
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 2);
        assert_eq!(errors[1].line, 3);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let events = parse_jsonl("\n\n{\"v\":1,\"kind\":\"meta\",\"cmd\":\"x\"}\n\n").unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn span_quantile_columns_render_from_bucket_counts() {
        let events: Vec<ObsEvent> = (0..100)
            .map(|i| ObsEvent::Span {
                path: "engine_run".to_string(),
                dur_ns: 1_000 + i * 10,
            })
            .collect();
        let report = summarize(&events);
        let durations = &report.span_durations["engine_run"];
        assert_eq!(durations.len(), 100);
        // The 50th of 100 ascending durations 1,000, 1,010, …, 1,990 ns.
        assert_eq!(nearest_rank(durations, 0.5), 1_490);
        let text = render(&report);
        assert!(text.contains("p50    1.49µs"), "{text}");
        assert!(text.contains("p95    1.94µs"), "{text}");
        assert!(text.contains("p99    1.98µs"), "{text}");
    }

    /// A one-call span's quantiles are its one duration, never a value
    /// interpolated past its max inside a histogram bucket.
    #[test]
    fn one_call_span_quantiles_are_its_recorded_duration() {
        let events = [ObsEvent::Span {
            path: "stable_train".to_string(),
            dur_ns: 220_710,
        }];
        let text = render(&summarize(&events));
        let line = text
            .lines()
            .find(|l| l.contains("stable_train"))
            .expect("span line");
        assert!(
            line.ends_with("p50  220.71µs  p95  220.71µs  p99  220.71µs"),
            "{line}"
        );
    }

    #[test]
    fn span_tree_children_stay_under_their_parent() {
        // Lexicographically, "engine-run" < "engine/child" (`-` < `/`), so
        // flat path iteration would split `engine` from its child. The
        // explicit tree must keep the child indented under its parent.
        let events = [
            ObsEvent::Span {
                path: "engine".to_string(),
                dur_ns: 10,
            },
            ObsEvent::Span {
                path: "engine-run".to_string(),
                dur_ns: 10,
            },
            ObsEvent::Span {
                path: "engine/child".to_string(),
                dur_ns: 5,
            },
        ];
        let text = render(&summarize(&events));
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("calls")).collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("  engine "), "{text}");
        assert!(lines[1].starts_with("    child "), "{text}");
        assert!(lines[2].starts_with("  engine-run "), "{text}");
    }

    #[test]
    fn faults_and_alerts_summarize_and_render() {
        let events = [
            ObsEvent::Fault {
                t_secs: 10.0,
                server: 0,
                channel: "stuck".to_string(),
            },
            ObsEvent::Fault {
                t_secs: 11.0,
                server: 1,
                channel: "stuck".to_string(),
            },
            ObsEvent::Fault {
                t_secs: 12.0,
                server: 0,
                channel: "spike".to_string(),
            },
            ObsEvent::Alert {
                t_secs: 20.0,
                name: "headroom".to_string(),
                instance: "x".to_string(),
                value: 2.0,
                threshold: 3.0,
                fired: true,
            },
            ObsEvent::Alert {
                t_secs: 30.0,
                name: "headroom".to_string(),
                instance: "x".to_string(),
                value: 6.0,
                threshold: 3.0,
                fired: false,
            },
        ];
        let report = summarize(&events);
        assert_eq!(report.faults["stuck"], 2);
        assert_eq!(report.faults["spike"], 1);
        assert_eq!(report.alerts_fired["headroom"], 1);
        assert_eq!(report.alerts_cleared["headroom"], 1);
        let text = render(&report);
        assert!(text.contains("faults injected: spike=1 stuck=2"), "{text}");
        assert!(
            text.contains("alerts: headroom fired=1 cleared=1"),
            "{text}"
        );
    }
}
