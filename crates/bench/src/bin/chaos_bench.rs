//! Chaos regression sweep: how fast does monitored forecast accuracy
//! degrade as telemetry faults intensify, and does graceful degradation
//! hold the line where it promises to?
//!
//! The protocol reuses the Fig. 1b setup (120-experiment campaign, tuned
//! hyper-parameters, one commodity server with a 2-VM burst at t=900s),
//! then drives a [`FleetMonitor`] over a faulted [`Simulation`]:
//!
//! - a *dropout sweep* (0%, 2%, 5%, 10%, 25% of samples lost in 10 s
//!   windows) — the headline degradation envelope,
//! - a *spike arm* (transient +15..25 °C outliers) — exercises the
//!   monitor's spike rejection in front of the γ calibrator,
//! - a *combined arm* (dropout + spikes + jitter + lost reconfiguration
//!   events at once) — the everything-is-on-fire row.
//!
//! Writes the machine-readable `BENCH_chaos.json`. Pass `--check` for the
//! CI smoke mode, which asserts instead of writing:
//!
//! - the zero-rate row is bit-identical to a run with no injector at all,
//! - the degradation envelope is monotone: scored-forecast coverage falls
//!   weakly with the fault rate (strictly at the heaviest rate), while
//!   oracle accuracy never *improves* beyond sampling slack — graceful
//!   degradation sheds coverage, not correctness,
//! - the calibrated monitor at ≤5% dropout still beats the *uncalibrated
//!   clean-stream* MSE recomputed in this run,
//! - spikes are actually rejected (counter moves, MSE stays in band),
//! - heavy dropout forces real holdover/recovery re-anchor cycles.
//!
//! Run with: `cargo run --release -p vmtherm-bench --bin chaos_bench`
//! (optionally `--out PATH`, default `BENCH_chaos.json`).

use vmtherm_bench::{dynamic_scenario, score_dynamic, train_stable_model, training_campaign};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::{DegradationStats, FleetMonitor};
use vmtherm_core::stable::StablePredictor;
use vmtherm_obs::{json, Json};
use vmtherm_sim::{
    AmbientModel, Datacenter, DropoutFault, Event, FaultPlan, FaultStats, JitterFault,
    LostEventFault, ServerSpec, SimTime, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// Dropout windows are this long — deliberately past the monitor's 30 s
/// staleness threshold, so every outage forces a holdover/recovery cycle.
/// The window-open probability is derived from the target drop fraction.
const DROPOUT_WINDOW_SECS: f64 = 45.0;
/// Scenario length in 1 Hz steps, matching the Fig. 1b run.
const TOTAL_SECS: u64 = 1800;
/// Slack for the weak-monotonicity check: sampling noise may locally
/// reorder adjacent rates, but never by more than this.
const MONOTONE_SLACK: f64 = 0.35;

/// NaN-rejecting "accuracy beats the bar" test: an unscored (NaN) MSE
/// must fail the gate, not slide past a comparison.
fn beats(bar: f64, mse: f64) -> bool {
    mse.is_finite() && mse < bar
}

struct Opts {
    check: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let check = std::env::args().any(|a| a == "--check");
    let mut out = "BENCH_chaos.json".to_string();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(path) = args.next() {
                out = path;
            }
        }
    }
    Opts { check, out }
}

/// One measured row of the sweep.
struct ChaosRow {
    label: String,
    drop_rate: f64,
    /// The monitor's own MSE over forecasts it could score in time.
    mse: f64,
    /// Every issued forecast scored against the engine's clean sensor
    /// trace — includes the blind holdover periods the monitor itself
    /// cannot score, so this is the honest degradation metric.
    oracle_mse: f64,
    /// Forecasts the oracle scored.
    oracle_n: usize,
    scored: usize,
    faults: FaultStats,
    degradation: DegradationStats,
}

/// Converts a target dropped-sample fraction into the per-sample
/// window-open probability for fixed-length windows: with windows of `l`
/// seconds opened with probability `q` per delivered second, the expected
/// dropped fraction is `q*l / (1 + q*l)`.
fn window_prob(drop_rate: f64) -> f64 {
    if drop_rate <= 0.0 {
        0.0
    } else {
        drop_rate / (DROPOUT_WINDOW_SECS * (1.0 - drop_rate))
    }
}

/// Runs the Fig. 1b-shaped scenario live under a fault plan and scores it
/// with a [`FleetMonitor`]. `plan = FaultPlan::none()` exercises the
/// clean path (the engine removes a no-op injector entirely).
fn chaos_run(model: &StablePredictor, label: &str, drop_rate: f64, plan: FaultPlan) -> ChaosRow {
    let mut dc = Datacenter::new();
    let sid = dc.add_server(
        ServerSpec::commodity("dyn", 16, 2.4, 64.0, 4),
        Celsius::new(24.0),
        7,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
    let tasks = [
        TaskProfile::CpuBound,
        TaskProfile::Mixed,
        TaskProfile::WebServer,
        TaskProfile::MemoryBound,
        TaskProfile::Bursty,
    ];
    for (i, task) in tasks.iter().enumerate() {
        sim.boot_vm_now(sid, VmSpec::new(format!("vm-{i}"), 2, 4.0, *task))
            .expect("scenario VM placement");
    }
    for j in 0..2 {
        sim.schedule(
            SimTime::from_secs(900),
            Event::BootVm {
                server: sid,
                spec: VmSpec::new(format!("burst-{j}"), 2, 4.0, TaskProfile::CpuBound),
            },
        );
    }
    sim.set_fault_plan(plan).expect("valid fault plan");

    let mut monitor = FleetMonitor::new(model.clone(), DynamicConfig::new(), 1, Seconds::new(60.0))
        .expect("monitor");
    let mut forecasts: Vec<(f64, f64)> = Vec::new();
    for _ in 0..TOTAL_SECS {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
        if let Some((target, value)) = monitor.latest_forecast(sid) {
            let fresh = forecasts
                .last()
                .is_none_or(|&(t, _)| t.to_bits() != target.to_bits());
            if fresh {
                forecasts.push((target, value));
            }
        }
    }

    // Oracle pass: score *every* issued forecast against the clean
    // sensor trace (the engine's physics stay unfaulted by design).
    let truth = &sim.trace(sid).expect("trace").sensor_c;
    let mut oracle_sq = 0.0;
    let mut oracle_n = 0usize;
    for &(target, value) in &forecasts {
        let at = SimTime::from_millis((target * 1000.0).round().max(0.0) as u64);
        if let Some(actual) = truth.value_at(at) {
            oracle_sq += (value - actual) * (value - actual);
            oracle_n += 1;
        }
    }

    let stats = monitor.stats(sid);
    ChaosRow {
        label: label.to_string(),
        drop_rate,
        mse: stats.mse(),
        oracle_mse: if oracle_n == 0 {
            f64::NAN
        } else {
            oracle_sq / oracle_n as f64
        },
        oracle_n,
        scored: stats.scored,
        faults: sim.fault_stats(),
        degradation: monitor.degradation(sid),
    }
}

fn dropout_plan(drop_rate: f64, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    if drop_rate > 0.0 {
        plan = plan.with_dropout(
            DropoutFault::random(
                window_prob(drop_rate),
                Seconds::new(DROPOUT_WINDOW_SECS),
                Seconds::new(DROPOUT_WINDOW_SECS),
            )
            .expect("dropout channel"),
        );
    }
    plan
}

fn row_json(row: &ChaosRow) -> (&'static str, Json) {
    // The JSON key is the label; leak is fine in a run-once binary.
    let key: &'static str = Box::leak(row.label.clone().into_boxed_str());
    (
        key,
        Json::obj(vec![
            ("drop_rate", Json::Num(row.drop_rate)),
            ("mse", Json::Num(row.mse)),
            ("oracle_mse", Json::Num(row.oracle_mse)),
            ("oracle_scored", Json::Num(row.oracle_n as f64)),
            ("scored", Json::Num(row.scored as f64)),
            ("dropped", Json::Num(row.faults.dropped as f64)),
            ("spiked", Json::Num(row.faults.spiked as f64)),
            ("jittered", Json::Num(row.faults.jittered as f64)),
            ("events_lost", Json::Num(row.faults.events_lost as f64)),
            (
                "ooo_absorbed",
                Json::Num(row.degradation.ooo_absorbed as f64),
            ),
            (
                "spikes_rejected",
                Json::Num(row.degradation.spikes_rejected as f64),
            ),
            (
                "stuck_suspected",
                Json::Num(row.degradation.stuck_suspected as f64),
            ),
            (
                "holdover_entries",
                Json::Num(row.degradation.holdover_entries as f64),
            ),
            (
                "recovery_reanchors",
                Json::Num(row.degradation.recovery_reanchors as f64),
            ),
            (
                "forecasts_expired",
                Json::Num(row.degradation.forecasts_expired as f64),
            ),
        ]),
    )
}

fn main() {
    let opts = parse_opts();

    eprintln!("training the stable model (Fig. 1b protocol)...");
    let outcomes = training_campaign(120, 42);
    let model = train_stable_model(&outcomes, false);

    // Offline eval reference: the same scenario scored by the evaluation
    // harness on the clean stream, with and without γ calibration.
    let scenario = dynamic_scenario(&model, 5, 2, 4, 24.0, 900, TOTAL_SECS, 7);
    let clean_cal = score_dynamic(&scenario, 60.0, 15.0, true).mse;
    let clean_uncal = score_dynamic(&scenario, 60.0, 15.0, false).mse;
    eprintln!("offline clean reference: calibrated {clean_cal:.3}, uncalibrated {clean_uncal:.3}");

    // Bit-identity control: a run with no injector installed at all.
    let control = chaos_run(&model, "control_no_injector", 0.0, FaultPlan::none());

    // Dropout sweep.
    let rates = [0.0f64, 0.02, 0.05, 0.10, 0.25];
    let mut dropout_rows = Vec::new();
    for &rate in &rates {
        let label = format!("dropout_{:02}pct", (rate * 100.0).round() as u32);
        let row = chaos_run(&model, &label, rate, dropout_plan(rate, 0xFA_17));
        eprintln!(
            "{:<16} mse {:>6.3}  oracle {:>6.3}  scored {:>4}  dropped {:>4}  holdover {:>2}  reanchors {:>2}",
            row.label,
            row.mse,
            row.oracle_mse,
            row.scored,
            row.faults.dropped,
            row.degradation.holdover_entries,
            row.degradation.recovery_reanchors
        );
        dropout_rows.push(row);
    }

    // Spike arm: transient outliers well above the rejection threshold.
    let spike_plan = |prob: f64| {
        FaultPlan::new(0x005B_1CE5).with_spike(
            SpikeFault::random(prob, Celsius::new(15.0), Celsius::new(25.0))
                .expect("spike channel"),
        )
    };
    let spike_rows = vec![
        chaos_run(&model, "spike_01pct", 0.0, spike_plan(0.01)),
        chaos_run(&model, "spike_05pct", 0.0, spike_plan(0.05)),
    ];
    for row in &spike_rows {
        eprintln!(
            "{:<16} mse {:>6.3}  spiked {:>4}  rejected {:>4}",
            row.label, row.mse, row.faults.spiked, row.degradation.spikes_rejected
        );
    }

    // Combined arm: everything at once, including lost reconfiguration
    // events (the monitor must re-anchor from recovery, not the log).
    let combined_plan = dropout_plan(0.05, 0xC0_FFEE)
        .with_spike(
            SpikeFault::random(0.02, Celsius::new(15.0), Celsius::new(25.0))
                .expect("spike channel"),
        )
        .with_jitter(JitterFault::random(0.02, Seconds::new(1.5)).expect("jitter channel"))
        .with_lost_events(LostEventFault::random(0.5).expect("lost-event channel"));
    let combined = chaos_run(&model, "combined_storm", 0.05, combined_plan);
    eprintln!(
        "{:<16} mse {:>6.3}  dropped {:>4}  spiked {:>3}  jittered {:>3}  events_lost {:>2}",
        combined.label,
        combined.mse,
        combined.faults.dropped,
        combined.faults.spiked,
        combined.faults.jittered,
        combined.faults.events_lost
    );

    if opts.check {
        let mut failures = Vec::new();

        // 1. Zero-rate row == no-injector control, bit for bit.
        if dropout_rows[0].mse.to_bits() != control.mse.to_bits()
            || dropout_rows[0].oracle_mse.to_bits() != control.oracle_mse.to_bits()
            || dropout_rows[0].scored != control.scored
        {
            failures.push(format!(
                "noop plan is not bit-identical to no injector: mse {} vs {}, scored {} vs {}",
                dropout_rows[0].mse, control.mse, dropout_rows[0].scored, control.scored
            ));
        }

        // 2. Monotone degradation envelope over the dropout sweep: the
        //    oracle error (which sees the blind holdover periods) climbs
        //    weakly with the fault rate, coverage falls weakly, and the
        //    heaviest rate is strictly worse than clean on both.
        for pair in dropout_rows.windows(2) {
            if pair[1].oracle_mse < pair[0].oracle_mse - MONOTONE_SLACK {
                failures.push(format!(
                    "oracle envelope not monotone: {} {:.3} < {} {:.3} - {MONOTONE_SLACK}",
                    pair[1].label, pair[1].oracle_mse, pair[0].label, pair[0].oracle_mse
                ));
            }
            if pair[1].scored > pair[0].scored {
                failures.push(format!(
                    "coverage envelope not monotone: {} scored {} > {} scored {}",
                    pair[1].label, pair[1].scored, pair[0].label, pair[0].scored
                ));
            }
        }
        // Graceful degradation trades coverage for accuracy: the heaviest
        // rate must have strictly lost coverage, while its accuracy stays
        // bounded (checked against `bar` below, not required to worsen —
        // recovery re-anchors act as free corrections).
        let last = dropout_rows.last().expect("sweep rows");
        if last.scored >= dropout_rows[0].scored {
            failures.push(format!(
                "25% dropout coverage ({}) no worse than clean ({})",
                last.scored, dropout_rows[0].scored
            ));
        }

        // 3. Accuracy stays bounded at every rate, and in particular the
        //    calibrated monitor at ≤5% dropout beats the uncalibrated
        //    clean stream, on both metrics.
        let bar = clean_uncal;
        for row in &dropout_rows {
            if !beats(bar, row.mse) || !beats(bar, row.oracle_mse) {
                failures.push(format!(
                    "{} mse {:.3} / oracle {:.3} does not beat uncalibrated clean {bar:.3}",
                    row.label, row.mse, row.oracle_mse
                ));
            }
        }

        // 4. Spike rejection actually engaged and held the error in band.
        for row in &spike_rows {
            if row.degradation.spikes_rejected == 0 {
                failures.push(format!("{} rejected no spikes", row.label));
            }
            if !beats(bar, row.mse) {
                failures.push(format!(
                    "{} mse {:.3} out of band despite rejection (bar {bar:.3})",
                    row.label, row.mse
                ));
            }
        }

        // 5. Heavy dropout forced holdover and recovery re-anchors.
        if last.degradation.holdover_entries == 0 || last.degradation.recovery_reanchors == 0 {
            failures.push(format!(
                "25% dropout produced no holdover/recovery cycles (holdover {}, reanchors {})",
                last.degradation.holdover_entries, last.degradation.recovery_reanchors
            ));
        }

        if failures.is_empty() {
            eprintln!("chaos_bench --check OK");
            return;
        }
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    let mut rows: Vec<(&'static str, Json)> = Vec::new();
    rows.push(row_json(&control));
    for row in dropout_rows.iter().chain(&spike_rows) {
        rows.push(row_json(row));
    }
    rows.push(row_json(&combined));

    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "protocol",
            Json::obj(vec![
                ("campaign", Json::Num(120.0)),
                ("total_secs", Json::Num(TOTAL_SECS as f64)),
                ("gap_secs", Json::Num(60.0)),
                ("dropout_window_secs", Json::Num(DROPOUT_WINDOW_SECS)),
            ]),
        ),
        (
            "clean_reference",
            Json::obj(vec![
                ("calibrated_mse", Json::Num(clean_cal)),
                ("uncalibrated_mse", Json::Num(clean_uncal)),
            ]),
        ),
        ("runs", Json::obj(rows)),
    ]);
    let mut text = doc.render_pretty();
    text.push('\n');
    json::parse(&text).expect("rendered BENCH_chaos.json must parse");
    if let Err(e) = std::fs::write(&opts.out, text) {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", opts.out);
}
