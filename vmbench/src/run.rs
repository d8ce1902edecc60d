//! Runs one workload: repeated set-ups, the timed window, the traced
//! pass, the reference run, and every output check.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::names;
use crate::stats::{median, quartiles, tail_percentile};
use crate::trace::{LayerTime, Tracer};
use crate::workloads::{Checked, Outputs, Workload, DEFAULT_SEED};
use vmtherm_core::stable::TrainingOptions;
use vmtherm_obs::{self as obs, names as obs_names, Histogram};

/// Set-ups run at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is their median. The fleet set-ups take
/// about 10 ms on a 2-vCPU VM; with the median of five, their
/// interquartile range over ten runs was 12–22% of the median.
pub const SETUP_REPEATS: usize = 5;

/// See [`SETUP_REPEATS`].
pub const SETUP_SECONDS: f64 = 1.0;

/// Timed window when none is given (s); `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Seed-42 output bit patterns, `<workload>.<output> 0x<bits>` per line.
const GOLDENS: &str = include_str!("../goldens.txt");

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window (s); at least one op always runs.
    pub seconds: f64,
    /// Whether to make the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where to write the traced spans as JSONL.
    pub spans: Option<PathBuf>,
}

/// What one run measured and found.
#[derive(Debug)]
pub struct Report {
    /// Ops run, untraced and traced.
    pub attempted: usize,
    /// Ops whose outputs failed a check.
    pub failed: usize,
    /// Up to the first few check failures, for the log.
    pub problems: Vec<String>,
    /// `names::END_TO_END` values, in that order.
    pub end_to_end: Vec<f64>,
    /// `names::PER_LAYER` values, in that order; empty without tracing.
    pub per_layer: Vec<f64>,
    /// Further `name value unit` lines and the layer tables.
    pub notes: Vec<String>,
}

impl Report {
    /// True when every op passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Golden outputs of `workload` at [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics on a malformed line in the goldens file, which is compiled in.
#[must_use]
pub fn goldens(workload: &str) -> Vec<(&'static str, u64)> {
    GOLDENS
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|line| {
            let (key, bits) = line.split_once(char::is_whitespace).expect("golden line");
            let (w, output) = key.split_once('.').expect("golden key");
            let bits = bits.trim().strip_prefix("0x").expect("hex golden");
            let bits = u64::from_str_radix(bits, 16).expect("hex golden");
            (w == workload).then_some((output, bits))
        })
        .collect()
}

/// The `want` outputs that `got` does not reproduce bit for bit.
fn mismatches(got: &Outputs, want: &[(&str, u64)], what: &str) -> Vec<String> {
    want.iter()
        .filter_map(|(key, bits)| match got.iter().find(|(k, _)| k == key) {
            Some((_, b)) if b == bits => None,
            Some((_, b)) => Some(format!("{key} {b:#018x} differs from {what} {bits:#018x}")),
            None => Some(format!("{key} missing; {what} has {bits:#018x}")),
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Mean of the counts named `name` over `checks`.
fn mean_count(checks: &[Checked], name: &str) -> f64 {
    let total = checks
        .iter()
        .flat_map(|c| &c.counts)
        .filter(|(n, _)| *n == name)
        .fold(0.0, |sum, (_, v)| sum + v);
    total / checks.len().max(1) as f64
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `workload` and checks every op it ran.
pub fn run<W: Workload>(workload: &W, opts: &Options) -> Report {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut input = None;
    while setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        let t0 = Instant::now();
        input = Some(workload.setup(&mut Tracer::off()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");

    // The timed window: closed loop, tracing off.
    let mut op_s = Vec::new();
    let mut checks = Vec::new();
    let mut untraced = Tracer::off();
    let window = Instant::now();
    while op_s.is_empty() || window.elapsed().as_secs_f64() < opts.seconds {
        let t0 = Instant::now();
        let state = workload.op(&input, &mut untraced);
        op_s.push(t0.elapsed().as_secs_f64());
        checks.push(workload.check(&input, &state));
    }
    let (per_layer, reference) = if opts.trace {
        traced_pass(workload, &input, &op_s, opts, &mut checks, &mut notes)
    } else {
        (Vec::new(), workload.reference(&input, &mut Tracer::off()))
    };

    // Every op must reproduce the first op, the reference run and, at the
    // default seed, the goldens.
    let first = checks[0].outputs.clone();
    let goldens = if opts.seed == DEFAULT_SEED {
        goldens(W::NAME)
    } else {
        Vec::new()
    };
    let mut failed = 0;
    let mut problems = Vec::new();
    for (i, c) in checks.iter().enumerate() {
        let mut found = c.problems.clone();
        found.extend(mismatches(&c.outputs, &first, "op 0"));
        if let Some(want) = &reference {
            found.extend(mismatches(&c.outputs, want, "the reference run"));
        }
        found.extend(mismatches(&c.outputs, &goldens, "the golden"));
        if !found.is_empty() {
            failed += 1;
            problems.extend(found.into_iter().map(|p| format!("op {i}: {p}")).take(3));
        }
    }
    problems.truncate(10);

    for (key, bits) in &first {
        notes.push(format!("output {key} {bits:#018x}"));
    }
    for (name, value, unit) in &checks[0].quality {
        notes.push(format!("{name} {value} {unit}"));
    }
    let [q1, q2, q3] = quartiles(&op_s);
    notes.push(format!(
        "op_s quartiles {q1} {q2} {q3} over {} ops",
        op_s.len()
    ));
    if let Some((p, v)) = tail_percentile(&op_s) {
        notes.push(format!("op_p{p}_s {v} s"));
    }
    if W::SERVER_SECONDS > 0.0 {
        // Over the whole timed window, so slow ops count in full.
        let throughput = W::SERVER_SECONDS * op_s.len() as f64 / op_s.iter().sum::<f64>();
        notes.push(format!("fleet_throughput {throughput} server-s/host-s"));
    }

    Report {
        attempted: checks.len(),
        failed,
        problems,
        end_to_end: vec![median(&op_s), median(&setup_s), peak_rss_mib()],
        per_layer,
        notes,
    }
}

/// The traced pass: one traced set-up, then each untraced op once more
/// with the obs layer on and a span around every layer call, then the
/// reference run. Appends the traced ops' checks to `checks` and returns
/// the per-layer metrics and the reference outputs.
fn traced_pass<W: Workload>(
    workload: &W,
    input: &W::Input,
    untraced_s: &[f64],
    opts: &Options,
    checks: &mut Vec<Checked>,
    notes: &mut Vec<String>,
) -> (Vec<f64>, Option<Outputs>) {
    obs::global().reset();
    obs::reset_spans();
    obs::set_enabled(true);
    let mut tr = Tracer::on();
    let span = tr.enter(names::SETUP);
    let _ = workload.setup(&mut tr);
    tr.exit(span);
    let setup = Setup {
        runs: obs_span_total("experiment_run").count,
        busy_s: tr.self_s(names::EXPERIMENT),
        layers: tr.layers().clone(),
    };
    tr.reset_totals();
    obs::global().reset();
    obs::reset_spans();

    let first_traced = checks.len();
    let mut traced_s = Vec::with_capacity(untraced_s.len());
    for k in 1..=untraced_s.len() {
        tr.set_op(u32::try_from(k).unwrap_or(u32::MAX));
        let t0 = Instant::now();
        let span = tr.enter(names::OP);
        let state = workload.op(input, &mut tr);
        tr.exit(span);
        traced_s.push(t0.elapsed().as_secs_f64());
        checks.push(workload.check(input, &state));
    }
    obs::set_enabled(false);

    // Traced as well, so its step time compares with the traced ops'.
    let mut serial = Tracer::on();
    let reference = workload.reference(input, &mut serial);
    let serial_step_s = W::SERIAL_REFERENCE.then(|| serial.self_s(names::STEP));

    let traced = &checks[first_traced..];
    let per_layer = layer_metrics::<W>(&tr, traced, untraced_s, &traced_s, &setup, serial_step_s);
    notes.extend(layer_table("setup", &setup.layers, 1));
    notes.extend(layer_table("op", tr.layers(), traced.len()));
    for (path, stat) in obs::span_stats() {
        notes.push(format!(
            "obs_span {path} count {:.1} total_s {:.6}  (per op, summed across threads)",
            stat.count as f64 / traced.len() as f64,
            stat.total_ns as f64 * 1e-9 / traced.len() as f64
        ));
    }
    if let Some(path) = &opts.spans {
        match std::fs::write(path, tr.to_jsonl()) {
            Ok(()) => notes.push(format!(
                "spans written to {} ({} beyond the record cap not kept)",
                path.display(),
                tr.dropped()
            )),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    (per_layer, reference)
}

/// What the traced set-up recorded.
struct Setup {
    /// Experiments run.
    runs: u64,
    /// Self time in experiment campaigns (s).
    busy_s: f64,
    /// Span totals.
    layers: BTreeMap<&'static str, LayerTime>,
}

/// Aggregate of the obs span paths ending in `leaf`.
fn obs_span_total(leaf: &str) -> obs::SpanStat {
    let suffix = format!("/{leaf}");
    obs::span_stats()
        .into_iter()
        .filter(|(path, _)| path == leaf || path.ends_with(&suffix))
        .fold(obs::SpanStat::default(), |acc, (_, s)| obs::SpanStat {
            count: acc.count + s.count,
            total_ns: acc.total_ns + s.total_ns,
            max_ns: acc.max_ns.max(s.max_ns),
        })
}

/// The per-layer metrics of a traced pass, in `names::PER_LAYER` order.
/// `serial_step_s` is the step self time of a one-thread rerun of an op,
/// for workloads that step on more threads.
fn layer_metrics<W: Workload>(
    tr: &Tracer,
    traced: &[Checked],
    untraced_s: &[f64],
    traced_s: &[f64],
    setup: &Setup,
    serial_step_s: Option<f64>,
) -> Vec<f64> {
    let k = traced.len() as f64;
    let reg = obs::global();
    let counter = |name: &str| reg.counter(name).get() as f64 / k;
    let busy = |name: &str| tr.self_s(name) / k;
    let count = |name: &str| mean_count(traced, name);
    let smo = reg.histogram(obs_names::METRIC_SMO_SOLVE_NS, Histogram::ns_buckets);
    let folds = counter(obs_names::METRIC_CV_FOLDS);
    let hits = counter(obs_names::METRIC_KERNEL_CACHE_HITS);
    let misses = counter(obs_names::METRIC_KERNEL_CACHE_MISSES);
    let server_steps = count(names::SIM_ENGINE_SERVER_STEPS);
    let step_busy = busy(names::STEP);
    let observe_busy = busy(names::OBSERVE);
    let base = median(untraced_s);
    let overhead: Vec<f64> = traced_s.iter().map(|t| t / base).collect();
    let [q1, _, q3] = quartiles(&overhead);
    let op = tr.layers().get(names::OP).copied().unwrap_or_default();

    names::PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            names::SIM_EXPERIMENT_RUNS => obs_span_total("experiment_run").count as f64 / k,
            names::SIM_EXPERIMENT_BUSY_S => busy(names::EXPERIMENT),
            names::SIM_EXPERIMENT_SETUP_RUNS => setup.runs as f64,
            names::SIM_EXPERIMENT_SETUP_BUSY_S => setup.busy_s,
            names::SIM_SCENARIO_BUSY_S => busy(names::SCENARIO),
            names::SIM_ENGINE_STEP_BUSY_S => step_busy,
            names::SIM_ENGINE_SKIP_FACTOR => {
                ratio(count(names::SIM_ENGINE_DENSE_SERVER_STEPS), server_steps)
            }
            names::SIM_ENGINE_NS_PER_SERVER_STEP => ratio(step_busy * 1e9, server_steps),
            // Without a serial rerun the op either steps on one thread
            // (ratio 1) or not at all (0).
            names::SIM_SHARD_SERIAL_RATIO => ratio(step_busy, serial_step_s.unwrap_or(step_busy)),
            names::SVM_GRID_CELLS => folds / TrainingOptions::new().folds as f64,
            names::SVM_CV_FOLDS => folds,
            names::SVM_CV_BUSY_S => obs_span_total("cv_fold").total_ns as f64 * 1e-9 / k,
            names::CORE_STABLE_FIT_BUSY_S => busy(names::FIT),
            names::SVM_SMO_SOLVES => smo.count() as f64 / k,
            names::SVM_SMO_BUSY_S => smo.sum() * 1e-9 / k,
            names::SVM_SMO_ITERATIONS => counter(obs_names::METRIC_SMO_ITERATIONS),
            names::SVM_SMO_SOLVE_P50_US => smo.quantile(0.5) * 1e-3,
            names::SVM_SMO_SOLVE_P99_US => smo.quantile(0.99) * 1e-3,
            names::SVM_KERNEL_CACHE_HITS => hits,
            names::SVM_KERNEL_CACHE_MISSES => misses,
            names::SVM_KERNEL_HIT_RATIO => ratio(hits, hits + misses),
            names::CORE_STABLE_PREDICT_BUSY_S => busy(names::PREDICT),
            names::CORE_DYNAMIC_EVAL_BUSY_S => busy(names::DYNAMIC),
            names::CORE_CALIBRATION_GAMMA_UPDATES => counter(obs_names::METRIC_GAMMA_UPDATES),
            names::CORE_MONITOR_OBSERVE_BUSY_S => observe_busy,
            names::CORE_MONITOR_NS_PER_SERVER_UPDATE => {
                ratio(observe_busy * 1e9, W::SERVER_SECONDS)
            }
            names::CORE_MONITOR_SAMPLES_INGESTED => counter(obs_names::METRIC_SAMPLES_INGESTED),
            names::CORE_MONITOR_SCORED_RATIO => ratio(
                counter(obs_names::METRIC_FORECASTS_SCORED),
                counter(obs_names::METRIC_FORECASTS_ISSUED),
            ),
            names::OBS_OVERHEAD_RATIO => median(traced_s) / base,
            names::OBS_OVERHEAD_RATIO_IQR => q3 - q1,
            names::TRACE_UNATTRIBUTED_RATIO => ratio(op.self_ns as f64, op.total_ns as f64),
            // Work counts read from public accessors.
            other => count(other),
        })
        .collect()
}

/// `layer` lines of the self-time table, per `ops`.
fn layer_table(group: &str, layers: &BTreeMap<&'static str, LayerTime>, ops: usize) -> Vec<String> {
    let n = ops.max(1) as f64;
    layers
        .iter()
        .map(|(name, l)| {
            format!(
                "layer {group} {name} count {:.1} self_s {:.6} total_s {:.6}  (per {group})",
                l.count as f64 / n,
                l.self_ns as f64 * 1e-9 / n,
                l.total_ns as f64 * 1e-9 / n
            )
        })
        .collect()
}
