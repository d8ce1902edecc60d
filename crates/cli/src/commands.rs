//! The CLI subcommands. Each returns its human-readable output so tests
//! can drive commands without spawning processes.

use crate::args::Flags;
use std::fmt::Write as _;
use std::fs;
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::features::FeatureEncoding;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_core::stable::{
    dataset_from_outcomes, run_experiments, run_experiments_threaded, StablePredictor,
    TrainingOptions,
};
use vmtherm_obs::{self as obs, report, ObsEvent, TraceMode};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_sim::scenario::{generate, oracle, shrink};
use vmtherm_sim::units::{Celsius, Seconds, Watts};
use vmtherm_sim::{
    AmbientModel, CaseGenerator, ClockMode, Datacenter, DropoutFault, Event, FaultPlan,
    JitterFault, LostEventFault, Scenario, ServerSpec, SimDuration, SimTime, Simulation,
    SpikeFault, StuckFault, TaskProfile, VmSpec,
};
use vmtherm_svm::data::Dataset;
use vmtherm_svm::metrics;

/// Top-level usage text.
pub const USAGE: &str = "\
vmtherm — VM-level temperature profiling and prediction (Wu et al., ICDCS 2016)

USAGE: vmtherm <COMMAND> [FLAGS]

GLOBAL FLAGS (any command except obs-report):
  --metrics FILE  write the metrics registry on exit (.json extension selects
                  JSON, anything else Prometheus text format)
  --trace FILE    append schema-versioned JSONL events (spans, forecasts,
                  calibration updates, re-anchors, SMO solves) to FILE
  --serve-metrics ADDR
                  serve /metrics, /metrics.json, /alerts and /healthz over
                  HTTP while the command runs (e.g. 127.0.0.1:9464)
  --alerts SPEC   evaluate alert rules on every simulated tick; SPEC is
                  `default` or semicolon-separated rules of the form
                  `[name:] metric[.pNN] <|> THRESH [for N] [clear V]`
  --flight-dir DIR
                  keep a ring of recent trace events and dump them to
                  DIR/alert-*.jsonl whenever an alert fires
                  [--flight-ring N=512 ring capacity when --trace is absent]

COMMANDS:
  collect   run randomized thermal experiments, write Eq. (2) records (libsvm format)
            --out FILE [--cases N=200] [--seed S=42] [--duration SECS=1200]
            [--threads T=1 run experiments on T worker threads; each job
            is a lockstep group of up to 8 experiments sharing one
            simulation; results are bit-identical for every T]
  train     train the stable-temperature SVR from records
            --records FILE --out MODEL [--grid] [--folds K=10] [--seed S]
  eval      score a model against labeled records (prints MSE/MAE);
            records are scored in one batched kernel pass
            --model MODEL --records FILE
  predict   print one prediction per record (targets ignored); records are
            scored in one batched kernel pass
            --model MODEL --records FILE
  monitor   simulate a server with a mid-run burst; write empirical vs forecast CSV
            --model MODEL --out CSV [--vms N=5] [--fans F=4] [--ambient C=24]
            [--secs T=1800] [--burst-at SECS=900] [--gap G=60] [--update U=15] [--seed S=7]
  chaos     drive the fleet monitor through the monitor scenario with
            injected telemetry faults; report accuracy and the
            graceful-degradation counters
            --model MODEL [--dropout F=0] [--stuck F=0] [--spike P=0]
            [--jitter P=0] [--lost P=0] [--fault-seed S=64023]
            [--vms N=5] [--fans F=4] [--ambient C=24] [--secs T=1800]
            [--burst-at SECS=900] [--gap G=60] [--seed S=7]
            [--clock fixed|event]
            (--dropout/--stuck are target sample fractions lost to 45 s
            outage windows; --spike/--jitter/--lost are per-sample/event
            probabilities; --clock event lets thermally steady servers
            sleep between sparse wake-ups, physics bit-identical to
            fixed stepping)
  watchdog  simulate a silent fan failure and report when the residual
            watchdog raises the alarm
            --model MODEL [--fail N=2] [--fail-at SECS=900] [--secs T=3000]
            [--vms N=5] [--ambient C=24] [--seed S=7]
  setpoint  recommend the highest safe CRAC supply temperature for a
            simulated fleet and report the cooling-power saving
            --model MODEL [--servers N=6] [--vms-per N=4] [--limit C=68]
            [--margin C=1.5] [--min C=16] [--max C=32] [--seed S=7]
  fuzz      sample seeded scenarios and run each through the differential
            oracle battery (determinism, fixed-vs-event clock equivalence,
            clean-path identity, physical invariants); shrink any violation to a minimal repro JSON
            [--seed S=61474] [--cases K=50] [--dir DIR=tests/scenarios]
            [--shrink-budget N=400] [--out FILE write a campaign record
            (JSON) whether or not violations were found]
            exits non-zero when any case violates an oracle, after the
            minimized repros are written
  replay    re-run checked-in scenario files through the oracle battery
            [--path FILE_OR_DIR=tests/scenarios] [--model MODEL also drive
            the fleet monitor over each run and check its consistency
            report]
  obs-report  summarize a JSONL trace: per-span timing tree and top-line
            counters (validates every line against the event schema)
            --trace FILE
  obs-serve  run a built-in demo fleet and serve its live metrics over HTTP
            (default alert rules are installed unless --alerts is given;
            --secs 0 binds the port and exits, for smoke tests)
            [--addr A=127.0.0.1:9464] [--secs T=30] [--hz H=50]
            [--model MODEL] [--vms N=5] [--fans F=4] [--ambient C=24]
            [--seed S=7] [--clock fixed|event event-driven sparse stepping]
";

/// Parses the `--clock` flag shared by the simulation-driving commands:
/// `fixed` (default) steps every server every tick; `event` enables
/// sparse steady-state wake-ups (physics bit-identical to fixed).
fn parse_clock(flags: &Flags) -> Result<ClockMode, String> {
    match flags.get("clock") {
        None | Some("fixed") => Ok(ClockMode::Fixed),
        Some("event") => Ok(ClockMode::Event),
        Some(other) => Err(format!("--clock must be `fixed` or `event`, got `{other}`")),
    }
}

/// One subcommand: its name, its body and the flags the body reads.
type Command = (
    &'static str,
    fn(&Flags) -> Result<String, String>,
    &'static [&'static str],
);

/// Every subcommand. A flag its row does not list (nor [`OBS_FLAGS`],
/// which every command but `obs-report` takes) is rejected before the
/// command runs.
const COMMANDS: [Command; 12] = [
    (
        "collect",
        collect,
        &["out", "cases", "seed", "duration", "threads"],
    ),
    ("train", train, &["records", "out", "grid", "folds", "seed"]),
    ("eval", eval, &["model", "records"]),
    ("predict", predict, &["model", "records"]),
    (
        "monitor",
        monitor,
        &[
            "model", "out", "vms", "fans", "ambient", "secs", "burst-at", "gap", "update", "seed",
        ],
    ),
    (
        "chaos",
        chaos,
        &[
            "model",
            "vms",
            "fans",
            "ambient",
            "secs",
            "burst-at",
            "gap",
            "dropout",
            "stuck",
            "spike",
            "jitter",
            "lost",
            "seed",
            "fault-seed",
            "clock",
        ],
    ),
    (
        "watchdog",
        watchdog,
        &["model", "fail", "fail-at", "secs", "vms", "ambient", "seed"],
    ),
    (
        "setpoint",
        setpoint,
        &[
            "model", "servers", "vms-per", "limit", "margin", "min", "max", "seed",
        ],
    ),
    (
        "fuzz",
        fuzz,
        &["seed", "cases", "shrink-budget", "dir", "out"],
    ),
    ("replay", replay, &["path", "model"]),
    ("obs-report", obs_report, &["trace"]),
    (
        "obs-serve",
        obs_serve,
        &[
            "addr", "secs", "hz", "vms", "fans", "ambient", "seed", "model", "clock",
        ],
    ),
];

/// The global observability flags (see [`ObsSinks`]).
const OBS_FLAGS: [&str; 6] = [
    "metrics",
    "trace",
    "serve-metrics",
    "alerts",
    "flight-dir",
    "flight-ring",
];

/// Runs one subcommand.
///
/// # Errors
///
/// A human-readable message on an unknown command or flag, bad flag
/// values, I/O failure or pipeline errors.
pub fn run(command: &str, flags: &Flags) -> Result<String, String> {
    let Some(&(_, body, known)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command `{command}`\n\n{USAGE}"));
    };
    // `obs-report` consumes a trace file; every other command may produce one.
    if command == "obs-report" {
        flags.reject_unknown(command, known)?;
        return body(flags);
    }
    flags.reject_unknown(command, &[known, &OBS_FLAGS].concat())?;
    let sinks = ObsSinks::init(command, flags)?;
    let result = body(flags);
    let flushed = sinks.flush();
    match (result, flushed) {
        (Ok(output), Ok(())) => Ok(output),
        (Err(e), _) => Err(e),
        (Ok(_), Err(e)) => Err(e),
    }
}

/// Where the observability global flags (`--metrics`, `--trace`,
/// `--serve-metrics`, `--alerts`, `--flight-dir`) direct their output.
/// Created before a command runs (enabling the global registry, event log,
/// alert engine and scrape server as needed) and flushed after it finishes.
struct ObsSinks {
    metrics: Option<String>,
    trace: Option<String>,
    server: Option<obs::ScrapeServer>,
    /// Ring tracing was enabled for the flight recorder (no `--trace`), so
    /// the buffered events are discarded on flush rather than written out.
    ring_trace: bool,
    enabled: bool,
}

impl ObsSinks {
    fn init(command: &str, flags: &Flags) -> Result<ObsSinks, String> {
        let metrics = flags.get("metrics").map(str::to_string);
        let trace = flags.get("trace").map(str::to_string);
        let serve = flags.get("serve-metrics").map(str::to_string);
        let flight = flags.get("flight-dir").map(str::to_string);
        // Parse everything fallible before touching any global state, so a
        // bad spec leaves the process exactly as it was.
        let rules = match flags.get("alerts") {
            Some(spec) => {
                Some(obs::alert::parse_rules(spec).map_err(|e| format!("--alerts: {e}"))?)
            }
            None => None,
        };
        let ring: usize = flags.num("flight-ring", 512)?;
        if ring == 0 {
            return Err("--flight-ring must be positive".to_string());
        }

        let enabled = metrics.is_some()
            || trace.is_some()
            || serve.is_some()
            || flight.is_some()
            || rules.is_some();
        if enabled {
            obs::set_enabled(true);
        }
        let ring_trace = flight.is_some() && trace.is_none();
        if trace.is_some() || ring_trace {
            obs::enable_trace(if ring_trace {
                TraceMode::Ring(ring)
            } else {
                TraceMode::Unbounded
            });
            obs::emit(ObsEvent::Meta {
                cmd: command.to_string(),
            });
        }
        if let Some(dir) = &flight {
            obs::set_flight_dir(std::path::PathBuf::from(dir));
        }
        if let Some(rules) = rules {
            obs::install_alerts(obs::AlertEngine::new(rules));
        }
        let server = match &serve {
            Some(addr) => match obs::ScrapeServer::start(addr) {
                Ok(server) => Some(server),
                Err(e) => {
                    // Undo the partial setup above before surfacing the error.
                    obs::clear_alerts();
                    obs::clear_flight_dir();
                    if trace.is_some() || ring_trace {
                        let _ = obs::disable_trace();
                    }
                    obs::set_enabled(false);
                    return Err(format!("--serve-metrics {addr}: {e}"));
                }
            },
            None => None,
        };
        Ok(ObsSinks {
            metrics,
            trace,
            server,
            ring_trace,
            enabled,
        })
    }

    fn flush(self) -> Result<(), String> {
        let ObsSinks {
            metrics,
            trace,
            server,
            ring_trace,
            enabled,
        } = self;
        // Stop answering scrapes before tearing the rest down.
        drop(server);
        // Alerts and the flight recorder are process-global: only an
        // invocation that may have installed them clears them, so a
        // command without obs flags never tears down another's.
        if enabled {
            obs::clear_alerts();
            obs::clear_flight_dir();
        }
        let mut result = Ok(());
        if let Some(path) = trace {
            let text = obs::event::to_jsonl(&obs::disable_trace());
            // Append so a collect → train → monitor pipeline accumulates one
            // trace across invocations.
            result = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| std::io::Write::write_all(&mut f, text.as_bytes()))
                .map_err(|e| format!("writing trace {path}: {e}"));
        } else if ring_trace {
            let _ = obs::disable_trace();
        }
        if let Some(path) = metrics {
            let registry = obs::global();
            let text = if path.ends_with(".json") {
                registry.to_json().render_pretty()
            } else {
                registry.to_prometheus()
            };
            if let Err(e) = fs::write(&path, text) {
                result = result.and(Err(format!("writing metrics {path}: {e}")));
            }
        }
        if enabled {
            obs::set_enabled(false);
        }
        result
    }
}

fn obs_report(flags: &Flags) -> Result<String, String> {
    let path = flags.require("trace")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = report::parse_jsonl(&text).map_err(|errors| {
        let mut msg = format!("{path}: {} invalid line(s)", errors.len());
        for err in errors.iter().take(5) {
            let _ = write!(msg, "\n  {err}");
        }
        if errors.len() > 5 {
            let _ = write!(msg, "\n  ... and {} more", errors.len() - 5);
        }
        msg
    })?;
    if events.is_empty() {
        return Err(format!("{path}: no events"));
    }
    Ok(report::render(&report::summarize(&events)))
}

fn collect(flags: &Flags) -> Result<String, String> {
    let out = flags.require("out")?;
    let cases: usize = flags.num("cases", 200)?;
    let seed: u64 = flags.num("seed", 42)?;
    let duration: u64 = flags.num("duration", 1200)?;
    let threads: usize = flags.num("threads", 1)?;
    if duration <= 600 {
        return Err("--duration must exceed t_break = 600 s".to_string());
    }
    let mut generator = CaseGenerator::new(seed);
    let configs: Vec<_> = generator
        .random_cases(cases, seed.wrapping_mul(31).wrapping_add(1_000))
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(duration)))
        .collect();
    let outcomes = run_experiments_threaded(&configs, threads);
    let ds = dataset_from_outcomes(&outcomes, FeatureEncoding::Full);
    fs::write(out, ds.to_libsvm()).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "collected {} records ({} features each) into {out}",
        ds.len(),
        ds.dim()
    ))
}

fn load_records(path: &str) -> Result<Dataset, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Dataset::from_libsvm(&text, FeatureEncoding::Full.dim())
        .map_err(|e| format!("parsing {path}: {e}"))
}

fn train(flags: &Flags) -> Result<String, String> {
    let records = flags.require("records")?;
    let out = flags.require("out")?;
    let folds: usize = flags.num("folds", 10)?;
    let seed: u64 = flags.num("seed", 0xA11CE)?;
    let ds = load_records(records)?;
    let options = if flags.switch("grid") {
        TrainingOptions::new().with_folds(folds).with_seed(seed)
    } else {
        TrainingOptions::new().with_params(vmtherm_bench::tuned_params())
    };
    let n = ds.len();
    let model = StablePredictor::fit_dataset(ds, &options).map_err(|e| format!("training: {e}"))?;
    fs::write(out, model.save_to_string()).map_err(|e| format!("writing {out}: {e}"))?;
    let mut msg = format!(
        "trained on {n} records: {} support vectors -> {out}",
        model.num_support_vectors()
    );
    if let Some(cv) = model.cv_mse() {
        let _ = write!(msg, " (grid CV MSE {cv:.3})");
    }
    Ok(msg)
}

fn load_model(path: &str) -> Result<StablePredictor, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    StablePredictor::load_from_string(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn eval(flags: &Flags) -> Result<String, String> {
    let model = load_model(flags.require("model")?)?;
    let ds = load_records(flags.require("records")?)?;
    let predictions = model
        .predict_features_batch(ds.features())
        .map_err(|e| format!("predicting: {e}"))?;
    let mse = metrics::mse(ds.targets(), &predictions);
    let mae = metrics::mae(ds.targets(), &predictions);
    let max = metrics::max_error(ds.targets(), &predictions);
    Ok(format!(
        "{} records: MSE = {mse:.3}  MAE = {mae:.3}  max = {max:.3}\n\
         paper reference (Fig. 1a): stable MSE within 1.10",
        ds.len()
    ))
}

fn predict(flags: &Flags) -> Result<String, String> {
    let model = load_model(flags.require("model")?)?;
    let ds = load_records(flags.require("records")?)?;
    let predictions = model
        .predict_features_batch(ds.features())
        .map_err(|e| format!("predicting: {e}"))?;
    let mut out = String::new();
    for p in predictions {
        let _ = writeln!(out, "{p:.3}");
    }
    Ok(out)
}

fn monitor(flags: &Flags) -> Result<String, String> {
    let model_path = flags.require("model")?;
    let out = flags.require("out")?;
    let vms: usize = flags.num("vms", 5)?;
    let fans: u32 = flags.num("fans", 4)?;
    let ambient: f64 = flags.num("ambient", 24.0)?;
    let secs: u64 = flags.num("secs", 1800)?;
    let burst_at: u64 = flags.num("burst-at", 900)?;
    let gap: f64 = flags.num("gap", 60.0)?;
    let update: f64 = flags.num("update", 15.0)?;
    let seed: u64 = flags.num("seed", 7)?;
    if burst_at >= secs {
        return Err("--burst-at must precede --secs".to_string());
    }
    let model = load_model(model_path)?;
    // The Fig. 1(c) harness treats a placement failure as a bug, so a VM
    // set the server cannot hold is rejected here with the placement
    // error instead.
    vmtherm_bench::commodity_sim(fans, ambient, seed, vms)
        .map_err(|e| format!("placement: {e}"))?;
    let scenario =
        vmtherm_bench::dynamic_scenario(&model, vms, 1, fans, ambient, burst_at, secs, seed);
    let report = vmtherm_bench::score_dynamic(&scenario, gap, update, true);

    // CSV: target time, empirical, forecast.
    let mut csv = String::from("time_s,empirical_c,forecast_c\n");
    for p in &report.points {
        let _ = writeln!(csv, "{},{},{}", p.t_secs, p.actual, p.predicted);
    }
    fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "monitored {secs} s ({vms} VMs + burst at {burst_at} s, {fans} fans): \
         dynamic MSE {:.3} over {} forecasts -> {out}\n\
         paper reference (Fig. 1c): 0.70-1.50 for gaps 15-120 s",
        report.mse,
        report.points.len()
    ))
}

/// Outage windows used by the `chaos` command's dropout and stuck
/// channels — deliberately longer than the monitor's 30 s staleness
/// threshold so sustained outages exercise holdover and recovery.
const CHAOS_WINDOW_SECS: f64 = 45.0;

fn chaos(flags: &Flags) -> Result<String, String> {
    let model_path = flags.require("model")?;
    let vms: usize = flags.num("vms", 5)?;
    let fans: u32 = flags.num("fans", 4)?;
    let ambient: f64 = flags.num("ambient", 24.0)?;
    let secs: u64 = flags.num("secs", 1800)?;
    let burst_at: u64 = flags.num("burst-at", 900)?;
    let gap: f64 = flags.num("gap", 60.0)?;
    let dropout: f64 = flags.num("dropout", 0.0)?;
    let stuck: f64 = flags.num("stuck", 0.0)?;
    let spike: f64 = flags.num("spike", 0.0)?;
    let jitter: f64 = flags.num("jitter", 0.0)?;
    let lost: f64 = flags.num("lost", 0.0)?;
    let seed: u64 = flags.num("seed", 7)?;
    let fault_seed: u64 = flags.num("fault-seed", 0xFA17)?;
    if burst_at >= secs {
        return Err("--burst-at must precede --secs".to_string());
    }
    if !(0.0..1.0).contains(&dropout) || !(0.0..1.0).contains(&stuck) {
        return Err("--dropout and --stuck are sample fractions in [0, 1)".to_string());
    }
    let model = load_model(model_path)?;

    // A target drop fraction f with fixed l-second windows needs a
    // window-open probability of f / (l * (1 - f)) per delivered sample.
    let window_prob = |f: f64| f / (CHAOS_WINDOW_SECS * (1.0 - f));
    let window = Seconds::new(CHAOS_WINDOW_SECS);
    let mut plan = FaultPlan::new(fault_seed);
    if dropout > 0.0 {
        plan = plan.with_dropout(
            DropoutFault::random(window_prob(dropout), window, window)
                .map_err(|e| format!("dropout: {e}"))?,
        );
    }
    if stuck > 0.0 {
        plan = plan.with_stuck(
            StuckFault::random(window_prob(stuck), window, window)
                .map_err(|e| format!("stuck: {e}"))?,
        );
    }
    if spike > 0.0 {
        plan = plan.with_spike(
            SpikeFault::random(spike, Celsius::new(15.0), Celsius::new(25.0))
                .map_err(|e| format!("spike: {e}"))?,
        );
    }
    if jitter > 0.0 {
        plan = plan.with_jitter(
            JitterFault::random(jitter, Seconds::new(1.5)).map_err(|e| format!("jitter: {e}"))?,
        );
    }
    if lost > 0.0 {
        plan =
            plan.with_lost_events(LostEventFault::random(lost).map_err(|e| format!("lost: {e}"))?);
    }

    // Same scenario as `monitor`, but scored live by the fleet monitor
    // over the faulted delivery stream.
    let (mut sim, sid) = vmtherm_bench::commodity_sim(fans, ambient, seed, vms)
        .map_err(|e| format!("placement: {e}"))?;
    sim.schedule(
        SimTime::from_secs(burst_at),
        Event::BootVm {
            server: sid,
            spec: VmSpec::new("burst", 2, 4.0, TaskProfile::CpuBound),
        },
    );
    sim.set_fault_plan(plan)
        .map_err(|e| format!("fault plan: {e}"))?;
    sim.set_clock_mode(parse_clock(flags)?);

    let mut monitor = FleetMonitor::new(model, DynamicConfig::new(), 1, Seconds::new(gap))
        .map_err(|e| e.to_string())?;
    let mut alert_lines = Vec::new();
    for _ in 0..secs {
        sim.step();
        monitor.observe(&sim, Celsius::new(ambient));
        monitor.publish();
        for event in obs::eval_alerts(sim.now().as_secs_f64()) {
            alert_lines.push(render_alert_line(&event));
        }
    }

    let stats = monitor.stats(sid);
    let deg = monitor.degradation(sid);
    let faults = sim.fault_stats();
    let alerts = if alert_lines.is_empty() {
        String::new()
    } else {
        format!("\n{}", alert_lines.join("\n"))
    };
    Ok(format!(
        "chaos run: {secs} s ({vms} VMs + burst at {burst_at} s), fault seed {fault_seed}\n\
         injected:  dropped {}, stuck {}, spiked {}, jittered {}, events lost {}\n\
         monitor:   MSE {:.3} over {} scored forecasts{}\n\
         degraded:  out-of-order absorbed {}, spikes rejected {}, stuck quarantined {},\n\
         \x20          holdover entries {}, recovery re-anchors {}, forecasts expired {}",
        faults.dropped,
        faults.stuck,
        faults.spiked,
        faults.jittered,
        faults.events_lost,
        stats.mse(),
        stats.scored,
        if monitor.in_holdover(sid) {
            " (still in holdover)"
        } else {
            ""
        },
        deg.ooo_absorbed,
        deg.spikes_rejected,
        deg.stuck_suspected,
        deg.holdover_entries,
        deg.recovery_reanchors,
        deg.forecasts_expired,
    ) + &alerts)
}

/// One human-readable line per alert transition, appended to the reports of
/// commands that evaluate rules on the simulated clock.
fn render_alert_line(event: &obs::AlertEvent) -> String {
    if event.fired {
        let dump = event
            .dump
            .as_deref()
            .map(|path| format!(" (flight dump: {path})"))
            .unwrap_or_default();
        format!(
            "ALERT {} at t={:.0} s: {} = {:.3} breaches {:.3}{}",
            event.rule, event.t_secs, event.instance, event.value, event.threshold, dump
        )
    } else {
        format!(
            "CLEAR {} at t={:.0} s: {} = {:.3}",
            event.rule, event.t_secs, event.instance, event.value
        )
    }
}

fn watchdog(flags: &Flags) -> Result<String, String> {
    let model_path = flags.require("model")?;
    let fail: u32 = flags.num("fail", 2)?;
    let fail_at: u64 = flags.num("fail-at", 900)?;
    let secs: u64 = flags.num("secs", 3000)?;
    let vms: usize = flags.num("vms", 5)?;
    let ambient: f64 = flags.num("ambient", 24.0)?;
    let seed: u64 = flags.num("seed", 7)?;
    if fail_at >= secs {
        return Err("--fail-at must precede --secs".to_string());
    }
    let model = load_model(model_path)?;

    let mut dc = Datacenter::new();
    let sid = dc.add_server(ServerSpec::standard("watched"), Celsius::new(ambient), seed);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), seed);
    let tasks = [
        TaskProfile::CpuBound,
        TaskProfile::Mixed,
        TaskProfile::WebServer,
    ];
    for i in 0..vms {
        sim.boot_vm_now(
            sid,
            VmSpec::new(format!("vm-{i}"), 2, 4.0, tasks[i % tasks.len()]),
        )
        .map_err(|e| format!("placement: {e}"))?;
    }
    let snapshot = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    let predicted = model.predict(&snapshot);
    if fail > 0 {
        sim.schedule(
            SimTime::from_secs(fail_at),
            Event::FailFans {
                server: sid,
                count: fail,
            },
        );
    }
    sim.run_until(SimTime::from_secs(secs));

    // Feed 120 s settled-window means to the watchdog.
    let series = &sim.trace(sid).map_err(|e| e.to_string())?.sensor_c;
    let mut watchdog = vmtherm_core::anomaly::ThermalWatchdog::new(
        model,
        vmtherm_core::anomaly::ResidualDetector::new(8.0, 0.8)
            .map_err(|e| format!("detector: {e}"))?,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "configuration predicted stable at {predicted:.1} C; {fail} fan(s) fail at {fail_at} s"
    );
    let mut alarm_at: Option<u64> = None;
    let mut start = 600u64;
    while start + 120 <= secs {
        let window: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t >= start as f64 && *t < (start + 120) as f64)
            .map(|(_, v)| v)
            .collect();
        let mean = window.iter().sum::<f64>() / window.len().max(1) as f64;
        if let Some(a) = watchdog.observe(&snapshot, Celsius::new(mean)) {
            if alarm_at.is_none() {
                alarm_at = Some(start + 120);
                let _ = writeln!(
                    out,
                    "ALARM at {} s: {:?} (score {:.1})",
                    start + 120,
                    a.kind,
                    a.score
                );
            }
        }
        start += 120;
    }
    match alarm_at {
        Some(t) if fail > 0 => out.push_str(&format!(
            "fault injected at {fail_at} s, detected at {t} s (latency {} s)",
            t - fail_at
        )),
        Some(t) => out.push_str(&format!("unexpected alarm at {t} s on a healthy run")),
        None if fail > 0 => out.push_str("fault NOT detected within the run"),
        None => out.push_str("healthy run: no alarms"),
    }
    Ok(out)
}

fn setpoint(flags: &Flags) -> Result<String, String> {
    let model_path = flags.require("model")?;
    let servers: usize = flags.num("servers", 6)?;
    let vms_per: usize = flags.num("vms-per", 4)?;
    let limit: f64 = flags.num("limit", 68.0)?;
    let margin: f64 = flags.num("margin", 1.5)?;
    let min_c: f64 = flags.num("min", 16.0)?;
    let max_c: f64 = flags.num("max", 32.0)?;
    let seed: u64 = flags.num("seed", 7)?;
    if servers == 0 {
        return Err("--servers must be positive".to_string());
    }
    let model = load_model(model_path)?;

    // Build the fleet at the conservative baseline and snapshot it.
    let mut dc = Datacenter::new();
    for i in 0..servers {
        dc.add_server(
            ServerSpec::standard(format!("n{i}")),
            Celsius::new(min_c),
            seed + i as u64,
        );
    }
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(min_c), seed);
    let tasks = [
        TaskProfile::CpuBound,
        TaskProfile::Mixed,
        TaskProfile::WebServer,
    ];
    for i in 0..servers {
        for j in 0..vms_per {
            sim.boot_vm_now(
                vmtherm_sim::ServerId::new(i),
                VmSpec::new(format!("vm-{i}-{j}"), 4, 4.0, tasks[(i + j) % tasks.len()]),
            )
            .map_err(|e| format!("placement: {e}"))?;
        }
    }
    sim.run_until(SimTime::from_secs(60));
    let hosts: Vec<ConfigSnapshot> = (0..servers)
        .map(|i| ConfigSnapshot::capture(&sim, vmtherm_sim::ServerId::new(i), Celsius::new(min_c)))
        .collect();
    let heat_w = sim.datacenter().room_heat_kw() * 1000.0;

    let search = vmtherm_core::setpoint::SetpointSearch {
        min_supply_c: min_c,
        max_supply_c: max_c,
        max_die_c: limit,
        safety_margin_c: margin,
        resolution_c: 0.5,
    };
    let optimizer = vmtherm_core::setpoint::SetpointOptimizer::new(
        model,
        vmtherm_sim::cooling::CoolingModel::default(),
        search,
    )
    .map_err(|e| e.to_string())?;
    match optimizer.optimize(&hosts, &vec![0.0; servers], Watts::new(heat_w)) {
        Some(advice) => Ok(format!(
            "fleet: {servers} servers x {vms_per} VMs, heat load {:.1} kW\n\
             thermal limit: die <= {limit} C (margin {margin} C)\n\
             baseline supply {min_c:.1} C -> cooling {:.2} kW\n\
             advised  supply {:.1} C -> cooling {:.2} kW (predicted peak {:.1} C)\n\
             cooling saving: {:.1}%",
            heat_w / 1000.0,
            advice.baseline_power_w / 1000.0,
            advice.supply_c,
            advice.cooling_power_w / 1000.0,
            advice.predicted_peak_c,
            advice.saving_fraction() * 100.0
        )),
        None => Ok(format!(
            "no safe setpoint in [{min_c}, {max_c}] C for die limit {limit} C — shed load instead"
        )),
    }
}

/// Runs a seeded scenario-fuzzing campaign: every case is a pure
/// function of `(--seed, index)`, so a failure here is a reproduction
/// command, not a flake. Violations are shrunk to minimal repro files
/// and the command exits non-zero so CI jobs fail loudly.
fn fuzz(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed", 0xF022)?;
    let cases: u64 = flags.num("cases", 50)?;
    let budget: u64 = flags.num("shrink-budget", 400)?;
    let dir = flags
        .get("dir")
        .map_or_else(|| "tests/scenarios".to_string(), str::to_string);
    if cases == 0 {
        return Err("--cases must be positive".to_string());
    }
    let mut detail = String::new();
    let mut repros: Vec<String> = Vec::new();
    let mut min_skip = f64::INFINITY;
    let mut max_skip = 0.0f64;
    for index in 0..cases {
        let scenario = generate::scenario(seed, index);
        let report = oracle::check_scenario(&scenario)
            .map_err(|e| format!("case {index} ({}): {e}", scenario.name))?;
        min_skip = min_skip.min(report.event_skip_factor);
        max_skip = max_skip.max(report.event_skip_factor);
        let Some(first) = report.failures.first().cloned() else {
            continue;
        };
        let _ = writeln!(detail, "case {index} ({}): {first}", scenario.name);
        let result = shrink::shrink(&scenario, first, budget, &mut |candidate| {
            oracle::check_scenario(candidate)
                .ok()
                .and_then(|r| r.failures.first().cloned())
        });
        let mut minimized = result.scenario;
        minimized.name = format!("repro-{seed}-{index}");
        fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let path = format!("{dir}/{}.json", minimized.name);
        fs::write(&path, minimized.to_json_string()).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(
            detail,
            "  minimized to {} event(s) over {} server(s) in {} oracle check(s) -> {path}\n  \
             still fails: {}",
            minimized.events.len(),
            minimized.servers,
            result.attempts,
            result.failure
        );
        repros.push(path);
    }

    // The campaign record is written before the pass/fail verdict so a
    // red nightly run still uploads what it found.
    if let Some(path) = flags.get("out") {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
        let record = obs::Json::obj(vec![
            ("schema", obs::Json::Num(1.0)),
            ("host_threads", obs::Json::Num(host_threads as f64)),
            ("git_rev", obs::Json::Str(git_rev())),
            ("rustc", obs::Json::str(env!("VMTHERM_RUSTC"))),
            ("profile", obs::Json::str(profile)),
            ("campaign_seed", obs::Json::Str(seed.to_string())),
            ("cases", obs::Json::Num(cases as f64)),
            ("failures", obs::Json::Num(repros.len() as f64)),
            (
                "repros",
                obs::Json::Arr(repros.iter().map(|p| obs::Json::str(p)).collect()),
            ),
            ("min_event_skip_factor", obs::Json::Num(min_skip)),
            ("max_event_skip_factor", obs::Json::Num(max_skip)),
        ]);
        fs::write(path, record.render_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    if repros.is_empty() {
        Ok(format!(
            "fuzz campaign seed {seed}: {cases} case(s) passed every oracle \
             (event skip factor {min_skip:.2}-{max_skip:.2})"
        ))
    } else {
        Err(format!(
            "fuzz campaign seed {seed}: {} of {cases} case(s) violated an oracle\n{detail}",
            repros.len()
        ))
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (as vmbench's stamp reads it); `unknown` outside
/// a git checkout.
fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(str::to_string)
        })
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Replays checked-in scenario files through the oracle battery — the
/// regression half of the fuzz/shrink/replay loop. With `--model`, each
/// run additionally drives the fleet monitor over the simulation and
/// checks its internal-consistency report.
fn replay(flags: &Flags) -> Result<String, String> {
    let path = flags
        .get("path")
        .map_or_else(|| "tests/scenarios".to_string(), str::to_string);
    let model = match flags.get("model") {
        Some(p) => Some(load_model(p)?),
        None => None,
    };
    let meta = fs::metadata(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = if meta.is_dir() {
        fs::read_dir(&path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect()
    } else {
        vec![std::path::PathBuf::from(&path)]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no scenario files (*.json)"));
    }

    let mut out = String::new();
    let mut failed = 0usize;
    let mut last_monitor = None;
    for file in &files {
        let name = file.display();
        let text = fs::read_to_string(file).map_err(|e| format!("{name}: {e}"))?;
        let scenario = Scenario::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let report = oracle::check_scenario(&scenario).map_err(|e| format!("{name}: {e}"))?;
        let mut lines: Vec<String> = report.failures.iter().map(ToString::to_string).collect();
        if let Some(model) = &model {
            let (violations, monitor) =
                monitor_oracle(&scenario, model).map_err(|e| format!("{name}: {e}"))?;
            lines.extend(violations);
            last_monitor = Some(monitor);
        }
        if lines.is_empty() {
            let _ = writeln!(
                out,
                "ok   {} ({} event(s), skip factor {:.2})",
                scenario.name,
                scenario.events.len(),
                report.event_skip_factor
            );
        } else {
            failed += 1;
            let _ = writeln!(out, "FAIL {} ({name})", scenario.name);
            for line in lines {
                let _ = writeln!(out, "     {line}");
            }
        }
    }
    // Each monitor labels its series by server index, so publishing every
    // scenario's would leave an earlier, larger fleet's servers in the
    // export. It describes the last scenario's monitor only.
    if let Some(monitor) = last_monitor {
        monitor.publish();
    }
    let summary = format!(
        "replayed {} scenario(s): {} passed, {failed} failed\n{out}",
        files.len(),
        files.len() - failed
    );
    if failed == 0 {
        Ok(summary)
    } else {
        Err(summary)
    }
}

/// Drives the fleet monitor over a fixed-clock run of `scenario` and
/// returns its consistency violations (empty = healthy) and the monitor.
fn monitor_oracle(
    scenario: &Scenario,
    model: &StablePredictor,
) -> Result<(Vec<String>, FleetMonitor), String> {
    let mut sim = scenario
        .build(ClockMode::Fixed)
        .map_err(|e| e.to_string())?;
    let mut monitor = FleetMonitor::new(
        model.clone(),
        DynamicConfig::new(),
        scenario.servers,
        Seconds::new(60.0),
    )
    .map_err(|e| e.to_string())?;
    // The snapshot ambient only anchors the stable predictions; the
    // fixed-model value is exact and 24 C is a fair stand-in otherwise.
    let ambient = match scenario.ambient {
        AmbientModel::Fixed(c) => c,
        _ => 24.0,
    };
    for _ in 0..scenario.duration.as_millis() / 1000 {
        sim.step();
        monitor.observe(&sim, Celsius::new(ambient));
    }
    Ok((monitor.invariant_report(&sim), monitor))
}

/// Runs a small always-on fleet and serves its live metrics over HTTP.
///
/// This is a demo/smoke harness rather than a simulation experiment: the
/// loop is paced on the wall clock (`--hz` sim steps per second) so a human
/// or CI step can scrape `/metrics` and `/alerts` while it runs. With
/// `--secs 0` it binds the port, proves the server answers, and exits.
/// Every exit, an error included, clears what it set up: the obs layer
/// and the alert rules.
fn obs_serve(flags: &Flags) -> Result<String, String> {
    obs::set_enabled(true);
    // The global --alerts flag installs a custom rule set before dispatch;
    // otherwise the built-in fleet-health rules apply.
    if flags.get("alerts").is_none() {
        obs::install_alerts(obs::AlertEngine::new(obs::alert::default_rules()));
    }
    let result = serve_demo_fleet(flags);
    obs::clear_alerts();
    obs::set_enabled(false);
    result
}

/// `obs-serve`'s body, run with the obs layer enabled.
fn serve_demo_fleet(flags: &Flags) -> Result<String, String> {
    let addr = flags
        .get("addr")
        .map_or_else(|| "127.0.0.1:9464".to_string(), str::to_string);
    let secs: u64 = flags.num("secs", 30)?;
    let hz: f64 = flags.num("hz", 50.0)?;
    let vms: usize = flags.num("vms", 5)?;
    let fans: u32 = flags.num("fans", 4)?;
    let ambient: f64 = flags.num("ambient", 24.0)?;
    let seed: u64 = flags.num("seed", 7)?;
    if !hz.is_finite() || hz <= 0.0 {
        return Err("--hz must be a positive rate".to_string());
    }
    // The fleet is built before the `--secs 0` exit, so that form still
    // rejects a VM set the server cannot hold.
    let (mut sim, _) = vmtherm_bench::commodity_sim(fans, ambient, seed, vms)
        .map_err(|e| format!("placement: {e}"))?;
    // A mild spike channel keeps the fault and quarantine metrics moving so
    // the scraped families are representative of a noisy fleet.
    let plan = FaultPlan::new(seed.wrapping_mul(31).wrapping_add(7)).with_spike(
        SpikeFault::random(0.01, Celsius::new(15.0), Celsius::new(25.0))
            .map_err(|e| format!("spike: {e}"))?,
    );
    sim.set_fault_plan(plan)
        .map_err(|e| format!("fault plan: {e}"))?;
    sim.set_clock_mode(parse_clock(flags)?);
    let server = obs::ScrapeServer::start(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr();
    if secs == 0 {
        return Ok(format!(
            "bound http://{bound}/metrics and exited (--secs 0)"
        ));
    }

    // A model is needed to drive the fleet monitor; train a small one
    // inline when none is supplied, so the command works standalone.
    let model = match flags.get("model") {
        Some(path) => load_model(path)?,
        None => demo_model(seed)?,
    };
    let mut monitor = FleetMonitor::new(model, DynamicConfig::new(), 1, Seconds::new(60.0))
        .map_err(|e| e.to_string())?;

    let period = std::time::Duration::from_secs_f64(1.0 / hz);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    let mut steps: u64 = 0;
    let mut fired: u64 = 0;
    while std::time::Instant::now() < deadline {
        sim.step();
        monitor.observe(&sim, Celsius::new(ambient));
        monitor.publish();
        fired += obs::eval_alerts(sim.now().as_secs_f64())
            .iter()
            .filter(|e| e.fired)
            .count() as u64;
        steps += 1;
        std::thread::sleep(period);
    }

    drop(server);
    Ok(format!(
        "served http://{bound}/metrics for {secs} s: {steps} sim steps at {hz} Hz, {fired} alert(s) fired"
    ))
}

/// Trains a small stable-temperature model for `obs-serve` when no
/// `--model` is given: enough cases for a usable fit, few enough to keep
/// startup in the low seconds.
fn demo_model(seed: u64) -> Result<StablePredictor, String> {
    let mut generator = CaseGenerator::new(seed);
    let configs: Vec<_> = generator
        .random_cases(16, seed.wrapping_mul(31).wrapping_add(1_000))
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(900)))
        .collect();
    let outcomes = run_experiments(&configs);
    let ds = dataset_from_outcomes(&outcomes, FeatureEncoding::Full);
    let options = TrainingOptions::new().with_params(vmtherm_bench::tuned_params());
    StablePredictor::fit_dataset(ds, &options).map_err(|e| format!("demo model: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(tokens: &[&str]) -> Flags {
        Flags::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("vmtherm-cli-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Serializes tests that toggle the process-wide obs registry, event
    /// log, alert engine or scrape server.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn full_collect_train_eval_predict_monitor_flow() {
        let records = temp_path("records.libsvm");
        let model = temp_path("model.txt");
        let csv = temp_path("monitor.csv");

        let msg = run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "40",
                "--seed",
                "5",
                "--duration",
                "900",
            ]),
        )
        .expect("collect");
        assert!(msg.contains("40 records"));

        let msg = run("train", &flags(&["--records", &records, "--out", &model])).expect("train");
        assert!(msg.contains("support vectors"));

        let msg = run("eval", &flags(&["--model", &model, "--records", &records])).expect("eval");
        assert!(msg.contains("MSE"));

        let out = run(
            "predict",
            &flags(&["--model", &model, "--records", &records]),
        )
        .expect("predict");
        assert_eq!(out.lines().count(), 40);
        assert!(out.lines().all(|l| l.parse::<f64>().is_ok()));

        let msg = run(
            "monitor",
            &flags(&[
                "--model",
                &model,
                "--out",
                &csv,
                "--secs",
                "1200",
                "--burst-at",
                "600",
            ]),
        )
        .expect("monitor");
        assert!(msg.contains("dynamic MSE"));
        let written = fs::read_to_string(&csv).expect("csv");
        assert!(written.starts_with("time_s,empirical_c,forecast_c"));
        assert!(written.lines().count() > 100);
    }

    #[test]
    fn watchdog_detects_injected_failure() {
        let records = temp_path("wd_records.libsvm");
        let model = temp_path("wd_model.txt");
        run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "40",
                "--seed",
                "6",
                "--duration",
                "900",
            ]),
        )
        .expect("collect");
        run("train", &flags(&["--records", &records, "--out", &model])).expect("train");

        let msg = run(
            "watchdog",
            &flags(&[
                "--model",
                &model,
                "--fail",
                "2",
                "--fail-at",
                "900",
                "--secs",
                "2400",
            ]),
        )
        .expect("watchdog");
        let header = msg.lines().next().unwrap_or_default();
        let predicted = header
            .strip_prefix("configuration predicted stable at ")
            .and_then(|rest| rest.strip_suffix(" C; 2 fan(s) fail at 900 s"))
            .unwrap_or_else(|| panic!("unexpected header: {header:?}"));
        assert!(
            predicted.parse::<f64>().is_ok()
                && predicted.split('.').nth(1).map(str::len) == Some(1),
            "unexpected header: {header:?}"
        );
        assert!(
            msg.lines()
                .nth(1)
                .is_some_and(|l| l.starts_with("ALARM at ")),
            "{msg}"
        );
        assert!(msg.contains("ALARM"), "no alarm in: {msg}");
        assert!(msg.contains("detected at"));

        let healthy = run(
            "watchdog",
            &flags(&["--model", &model, "--fail", "0", "--secs", "2400"]),
        )
        .expect("watchdog healthy");
        assert!(healthy.contains("no alarms"), "false alarm in: {healthy}");
    }

    #[test]
    fn chaos_reports_injection_and_degradation() {
        let records = temp_path("chaos_records.libsvm");
        let model = temp_path("chaos_model.txt");
        run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "40",
                "--seed",
                "6",
                "--duration",
                "900",
            ]),
        )
        .expect("collect");
        run("train", &flags(&["--records", &records, "--out", &model])).expect("train");

        let msg = run(
            "chaos",
            &flags(&[
                "--model",
                &model,
                "--dropout",
                "0.10",
                "--spike",
                "0.02",
                "--secs",
                "1200",
                "--burst-at",
                "600",
            ]),
        )
        .expect("chaos");
        assert!(msg.contains("injected:"), "no injection line in: {msg}");
        assert!(
            msg.contains("recovery re-anchors"),
            "no degradation in: {msg}"
        );
        assert!(!msg.contains("MSE NaN"), "monitor never scored: {msg}");

        // A fraction outside [0, 1) is rejected up front.
        let err = run("chaos", &flags(&["--model", &model, "--dropout", "1.5"])).unwrap_err();
        assert!(err.contains("fractions in [0, 1)"), "unexpected: {err}");
    }

    #[test]
    fn threads_flag_never_changes_results() {
        // `collect --threads T` writes byte-identical records for every T —
        // the campaign pool's determinism contract, end to end.
        let serial = temp_path("thr_records_1.libsvm");
        let threaded = temp_path("thr_records_3.libsvm");
        // 17 cases: two full lockstep groups of 8 and a partial one.
        let base = ["--cases", "17", "--seed", "6", "--duration", "700"];
        let mut args: Vec<&str> = vec!["--out", &serial];
        args.extend_from_slice(&base);
        run("collect", &flags(&args)).expect("serial collect");
        let mut args: Vec<&str> = vec!["--out", &threaded, "--threads", "3"];
        args.extend_from_slice(&base);
        run("collect", &flags(&args)).expect("threaded collect");
        let a = fs::read(&serial).expect("serial records");
        let b = fs::read(&threaded).expect("threaded records");
        assert_eq!(a, b, "collect --threads changed the records");
    }

    #[test]
    fn unknown_flags_are_rejected_before_the_command_runs() {
        // `--secz` is a typo and `chaos` has no `--threads`; neither may be
        // ignored. The model file does not exist, so reaching the command
        // body would fail on it instead.
        let model = temp_path("no_such_model.txt");
        let err = run(
            "chaos",
            &flags(&["--model", &model, "--threads", "4", "--secz", "60"]),
        )
        .unwrap_err();
        assert!(
            err.contains("--secz") && err.contains("--threads"),
            "unexpected: {err}"
        );
        let err = run("chaos", &flags(&["--model", &model, "--secz", "60"])).unwrap_err();
        assert!(
            err.contains("--secz") && !err.contains("--model"),
            "unexpected: {err}"
        );
        let err = run("chaos", &flags(&["--model", &model, "--threads", "4"])).unwrap_err();
        assert!(err.contains("--threads"), "unexpected: {err}");
        // A switch is a flag too.
        let err = run("eval", &flags(&["--model", &model, "--grid"])).unwrap_err();
        assert!(err.contains("--grid"), "unexpected: {err}");
        // The global obs flags are every command's but obs-report's.
        let err = run(
            "obs-report",
            &flags(&["--trace", &model, "--metrics", "m.prom"]),
        )
        .unwrap_err();
        assert!(err.contains("--metrics"), "unexpected: {err}");
    }

    #[test]
    fn clock_flag_parses_and_rejects_garbage() {
        assert_eq!(parse_clock(&flags(&[])).unwrap(), ClockMode::Fixed);
        assert_eq!(
            parse_clock(&flags(&["--clock", "fixed"])).unwrap(),
            ClockMode::Fixed
        );
        assert_eq!(
            parse_clock(&flags(&["--clock", "event"])).unwrap(),
            ClockMode::Event
        );
        let err = parse_clock(&flags(&["--clock", "warp"])).unwrap_err();
        assert!(err.contains("`fixed` or `event`"), "unexpected: {err}");
    }

    #[test]
    fn setpoint_recommends_and_respects_limits() {
        let records = temp_path("sp_records.libsvm");
        let model = temp_path("sp_model.txt");
        run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "40",
                "--seed",
                "8",
                "--duration",
                "900",
            ]),
        )
        .expect("collect");
        run("train", &flags(&["--records", &records, "--out", &model])).expect("train");

        let msg = run(
            "setpoint",
            &flags(&["--model", &model, "--servers", "4", "--limit", "68"]),
        )
        .expect("setpoint");
        assert!(msg.contains("advised"), "no advice in: {msg}");
        assert!(msg.contains("cooling saving"));

        // An impossible limit yields the shed-load message.
        let msg = run(
            "setpoint",
            &flags(&["--model", &model, "--servers", "4", "--limit", "25"]),
        )
        .expect("setpoint");
        assert!(msg.contains("no safe setpoint"), "unexpected: {msg}");
    }

    #[test]
    fn obs_trace_and_metrics_round_trip() {
        let _guard = obs_lock();

        let records = temp_path("obs_records.libsvm");
        let model = temp_path("obs_model.txt");
        let trace = temp_path("obs_trace.jsonl");
        let prom = temp_path("obs_metrics.prom");
        let json = temp_path("obs_metrics.json");
        let _ = fs::remove_file(&trace);

        run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "20",
                "--seed",
                "5",
                "--duration",
                "900",
                "--trace",
                &trace,
                "--metrics",
                &prom,
            ]),
        )
        .expect("collect");
        run(
            "train",
            &flags(&[
                "--records",
                &records,
                "--out",
                &model,
                "--trace",
                &trace,
                "--metrics",
                &json,
            ]),
        )
        .expect("train");

        // Metrics: Prometheus text and JSON, both from the same registry.
        let prom_text = fs::read_to_string(&prom).expect("prom");
        assert!(prom_text.contains("# TYPE vmtherm_engine_steps_total counter"));
        assert!(prom_text.contains("vmtherm_engine_steps_total"));
        let json_text = fs::read_to_string(&json).expect("json");
        let parsed = vmtherm_obs::json::parse(&json_text).expect("metrics json");
        let steps = parsed
            .get("vmtherm_engine_steps_total")
            .expect("steps counter in metrics json");
        assert_eq!(steps.get("type").and_then(|t| t.as_str()), Some("counter"));
        assert!(steps.get("value").and_then(vmtherm_obs::Json::as_u64) > Some(0));

        // The appended trace round-trips through the strict parser and the
        // report shows the full pipeline: at least 4 distinct span names.
        let report = run("obs-report", &flags(&["--trace", &trace])).expect("obs-report");
        for span in ["experiment_run", "engine_run", "stable_train", "smo_solve"] {
            assert!(report.contains(span), "missing span {span} in:\n{report}");
        }
        assert!(
            report.contains("commands: collect, train"),
            "no meta line in:\n{report}"
        );
    }

    #[test]
    fn chaos_alerts_fire_and_flight_dump_replays() {
        let _guard = obs_lock();

        let records = temp_path("alert_records.libsvm");
        let model = temp_path("alert_model.txt");
        let flight_dir = std::env::temp_dir().join("vmtherm-cli-tests-flight");
        let _ = fs::remove_dir_all(&flight_dir);
        let flight = flight_dir.to_string_lossy().into_owned();

        run(
            "collect",
            &flags(&[
                "--out",
                &records,
                "--cases",
                "20",
                "--seed",
                "5",
                "--duration",
                "900",
            ]),
        )
        .expect("collect");
        run("train", &flags(&["--records", &records, "--out", &model])).expect("train");

        // A rule on the ingest counter is guaranteed to fire on the first
        // tick: every observed sample increments it.
        let msg = run(
            "chaos",
            &flags(&[
                "--model",
                &model,
                "--secs",
                "650",
                "--burst-at",
                "600",
                "--alerts",
                "ingest: vmtherm_samples_ingested_total > 0 for 1",
                "--flight-dir",
                &flight,
                "--flight-ring",
                "64",
            ]),
        )
        .expect("chaos");
        assert!(msg.contains("ALERT ingest"), "no alert line in:\n{msg}");
        assert!(msg.contains("flight dump:"), "no dump path in:\n{msg}");

        // The dump replays through the strict JSONL parser and ends with
        // the alert record that triggered it.
        let dump = fs::read_dir(&flight_dir)
            .expect("flight dir")
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("alert-ingest"))
            .expect("dump file");
        let text = fs::read_to_string(dump.path()).expect("dump text");
        let events = report::parse_jsonl(&text).expect("dump parses");
        assert!(
            matches!(events.last(), Some(ObsEvent::Alert { fired: true, .. })),
            "last dump event is not the firing alert"
        );
        assert!(events.len() > 1, "dump holds no pre-incident events");
        let _ = fs::remove_dir_all(&flight_dir);
    }

    #[test]
    fn fuzz_campaign_is_clean_and_writes_record() {
        let dir = temp_path("fuzz-repros");
        let bench = temp_path("fuzz_bench.json");
        let msg = run(
            "fuzz",
            &flags(&[
                "--seed", "1234", "--cases", "2", "--dir", &dir, "--out", &bench,
            ]),
        )
        .expect("fuzz");
        assert!(msg.contains("passed every oracle"), "unexpected: {msg}");
        let record =
            vmtherm_obs::json::parse(&fs::read_to_string(&bench).expect("bench")).expect("json");
        assert_eq!(
            record.get("failures").and_then(vmtherm_obs::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            record.get("cases").and_then(vmtherm_obs::Json::as_u64),
            Some(2)
        );
        // The build, host and config stamp vmbench prints.
        let text = |key| record.get(key).and_then(vmtherm_obs::Json::as_str);
        assert!(record
            .get("host_threads")
            .and_then(vmtherm_obs::Json::as_u64)
            .is_some_and(|n| n >= 1));
        assert!(text("git_rev").is_some_and(|rev| !rev.is_empty()));
        assert!(text("rustc").is_some_and(|v| v.starts_with("rustc ")));
        assert_eq!(
            text("profile"),
            Some(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            })
        );
        assert_eq!(text("campaign_seed"), Some("1234"));

        let err = run("fuzz", &flags(&["--cases", "0"])).unwrap_err();
        assert!(err.contains("--cases"), "unexpected: {err}");
    }

    #[test]
    fn replay_checks_corpus_files() {
        let dir = std::env::temp_dir().join("vmtherm-cli-tests-replay");
        fs::create_dir_all(&dir).expect("corpus dir");
        let scenario = Scenario::quiet("replay-smoke", 3, 2, SimDuration::from_secs(120));
        fs::write(dir.join("replay-smoke.json"), scenario.to_json_string()).expect("write");
        let dir_str = dir.to_string_lossy().into_owned();

        let msg = run("replay", &flags(&["--path", &dir_str])).expect("replay");
        assert!(msg.contains("1 passed, 0 failed"), "unexpected: {msg}");
        assert!(msg.contains("ok   replay-smoke"), "unexpected: {msg}");

        // A corrupt file is a hard error, not a silent skip.
        fs::write(dir.join("broken.json"), "{").expect("write");
        let err = run("replay", &flags(&["--path", &dir_str])).unwrap_err();
        assert!(err.contains("broken.json"), "unexpected: {err}");
        let _ = fs::remove_dir_all(&dir);

        let err = run("replay", &flags(&["--path", "/does/not/exist"])).unwrap_err();
        assert!(err.contains("/does/not/exist"), "unexpected: {err}");
    }

    #[test]
    fn obs_serve_binds_an_ephemeral_port_and_exits() {
        let _guard = obs_lock();
        let msg = run(
            "obs-serve",
            &flags(&["--addr", "127.0.0.1:0", "--secs", "0"]),
        )
        .expect("obs-serve");
        assert!(msg.contains("bound http://127.0.0.1:"), "unexpected: {msg}");
        assert!(msg.contains("--secs 0"), "unexpected: {msg}");
        assert_obs_torn_down();

        // A failed bind tears down the same state.
        let held = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = held.local_addr().expect("addr").to_string();
        let err = run("obs-serve", &flags(&["--addr", &addr, "--secs", "0"])).unwrap_err();
        assert!(
            err.contains(&format!("binding {addr}")),
            "unexpected: {err}"
        );
        assert_obs_torn_down();
    }

    /// The obs layer is off and no alert rule is installed.
    fn assert_obs_torn_down() {
        assert!(!obs::enabled(), "obs left enabled");
        let alerts = obs::alerts_json();
        assert!(
            matches!(alerts.get("rules"), Some(obs::Json::Arr(rules)) if rules.is_empty()),
            "alert rules left installed: {}",
            alerts.render()
        );
    }

    #[test]
    fn bad_alert_spec_is_rejected_before_dispatch() {
        let err = run("train", &flags(&["--alerts", "nonsense"])).unwrap_err();
        assert!(err.contains("--alerts"), "unexpected: {err}");
        let err = run(
            "chaos",
            &flags(&["--flight-ring", "0", "--flight-dir", "x"]),
        )
        .unwrap_err();
        assert!(err.contains("--flight-ring"), "unexpected: {err}");
    }

    #[test]
    fn obs_report_rejects_invalid_jsonl() {
        let bad = temp_path("obs_bad.jsonl");
        fs::write(
            &bad,
            "{\"v\":1,\"kind\":\"meta\",\"cmd\":\"x\"}\nnot json\n",
        )
        .expect("write");
        let err = run("obs-report", &flags(&["--trace", &bad])).unwrap_err();
        assert!(err.contains("invalid line"), "unexpected: {err}");
        assert!(err.contains("line 2"), "no line number in: {err}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run("frobnicate", &Flags::default()).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn collect_validates_duration() {
        let err = run("collect", &flags(&["--out", "/tmp/x", "--duration", "300"])).unwrap_err();
        assert!(err.contains("t_break"));
    }

    #[test]
    fn missing_flags_are_reported() {
        let err = run("train", &flags(&["--records", "x"])).unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn monitor_validates_burst_time() {
        let err = run(
            "monitor",
            &flags(&[
                "--model",
                "m",
                "--out",
                "c",
                "--secs",
                "100",
                "--burst-at",
                "200",
            ]),
        )
        .unwrap_err();
        assert!(err.contains("--burst-at"));
    }
}
