//! Chaos regression sweep: how fast does monitored forecast accuracy
//! degrade as telemetry faults intensify, and does graceful degradation
//! hold the line where it promises to?
//!
//! The protocol reuses the Fig. 1b setup (120-experiment campaign, tuned
//! hyper-parameters, one commodity server with a 2-VM burst at t=900s),
//! then drives a [`FleetMonitor`] over a faulted [`Simulation`]:
//!
//! - a *dropout sweep* (0%, 2%, 5%, 10%, 25% of samples lost in 45 s
//!   windows) — the headline degradation envelope,
//! - a *spike arm* (transient +15..25 °C outliers) — exercises the
//!   monitor's spike rejection in front of the γ calibrator,
//! - a *combined arm* (dropout + spikes + jitter + lost reconfiguration
//!   events at once) — the everything-is-on-fire row.
//!
//! The test asserts that:
//!
//! - the zero-rate row is bit-identical to a run with no injector at all,
//! - the degradation envelope is monotone: scored-forecast coverage falls
//!   weakly with the fault rate (strictly at the heaviest rate), while
//!   oracle accuracy never *improves* beyond sampling slack — graceful
//!   degradation sheds coverage, not correctness,
//! - every dropout row still beats the *uncalibrated clean-stream* MSE
//!   recomputed in this run,
//! - spikes are actually rejected (counter moves, MSE stays in band),
//! - heavy dropout forces real holdover/recovery re-anchor cycles.
//!
//! It prints the sweep as the Robustness table of `EXPERIMENTS.md`:
//! `cargo test -p vmtherm-bench --test chaos -- --nocapture`.

use vmtherm_bench::{dynamic_scenario, score_dynamic, train_stable_model, training_campaign};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::{DegradationStats, FleetMonitor};
use vmtherm_core::stable::StablePredictor;
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

/// One measured row of the sweep.
struct ChaosRow {
    label: String,
    /// The monitor's own MSE over forecasts it could score in time.
    mse: f64,
    /// Every issued forecast scored against the engine's clean sensor
    /// trace — includes the blind holdover periods the monitor itself
    /// cannot score, so this is the honest degradation metric.
    oracle_mse: f64,
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
fn chaos_run(model: &StablePredictor, label: &str, plan: FaultPlan) -> ChaosRow {
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
        mse: stats.mse(),
        oracle_mse: if oracle_n == 0 {
            f64::NAN
        } else {
            oracle_sq / oracle_n as f64
        },
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

/// Prints one Robustness-table row; `oracle` and `last` fill the
/// columns that differ between the dropout and the spike arms.
fn print_row(row: &ChaosRow, oracle: &str, last: &str) {
    println!(
        "| {} | {:.3} | {oracle} | {} | {} | {last} |",
        row.label, row.mse, row.scored, row.faults.dropped
    );
}

#[test]
fn monitor_degrades_gracefully_under_telemetry_faults() {
    let outcomes = training_campaign(120, 42);
    let model = train_stable_model(&outcomes, false);

    // Offline eval reference: the same scenario scored by the evaluation
    // harness on the clean stream, with and without γ calibration.
    let scenario = dynamic_scenario(&model, 5, 2, 4, 24.0, 900, TOTAL_SECS, 7);
    let clean_cal = score_dynamic(&scenario, 60.0, 15.0, true).mse;
    let clean_uncal = score_dynamic(&scenario, 60.0, 15.0, false).mse;
    println!("offline clean reference: calibrated {clean_cal:.3}, uncalibrated {clean_uncal:.3}");

    // Bit-identity control: a run with no injector installed at all.
    let control = chaos_run(&model, "clean (no injector)", FaultPlan::none());

    // Dropout sweep.
    let rates = [0.0f64, 0.02, 0.05, 0.10, 0.25];
    let dropout_rows: Vec<ChaosRow> = rates
        .iter()
        .map(|&rate| {
            let label = format!("dropout {} %", (rate * 100.0).round() as u32);
            chaos_run(&model, &label, dropout_plan(rate, 0xFA_17))
        })
        .collect();

    // Spike arm: transient outliers well above the rejection threshold.
    let spike_plan = |prob: f64| {
        FaultPlan::new(0x005B_1CE5).with_spike(
            SpikeFault::random(prob, Celsius::new(15.0), Celsius::new(25.0))
                .expect("spike channel"),
        )
    };
    let spike_rows = [
        chaos_run(&model, "spikes 1 % (+15..25 °C)", spike_plan(0.01)),
        chaos_run(&model, "spikes 5 %", spike_plan(0.05)),
    ];

    // Combined arm: everything at once, including lost reconfiguration
    // events (the monitor must re-anchor from recovery, not the log).
    let combined_plan = dropout_plan(0.05, 0xC0_FFEE)
        .with_spike(
            SpikeFault::random(0.02, Celsius::new(15.0), Celsius::new(25.0))
                .expect("spike channel"),
        )
        .with_jitter(JitterFault::random(0.02, Seconds::new(1.5)).expect("jitter channel"))
        .with_lost_events(LostEventFault::random(0.5).expect("lost-event channel"));
    let combined = chaos_run(&model, "combined storm", combined_plan);

    println!("| Run | mse | oracle | scored | dropped | holdover / re-anchors |");
    println!("|-----|----:|-------:|-------:|--------:|----------------------:|");
    // The 0 % row is the control's twin (gate 1), so the table shows the
    // control in its place.
    for row in std::iter::once(&control).chain(&dropout_rows[1..]) {
        let d = &row.degradation;
        let cycles = format!("{} / {}", d.holdover_entries, d.recovery_reanchors);
        print_row(row, &format!("{:.3}", row.oracle_mse), &cycles);
    }
    for row in &spike_rows {
        let rejected = format!(
            "{}/{} rejected",
            row.degradation.spikes_rejected, row.faults.spiked
        );
        print_row(row, "—", &rejected);
    }
    print_row(&combined, "—", "+ jitter, lost events");

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
    //    heaviest rate is strictly worse than clean on coverage.
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

    // 3. Accuracy stays bounded at every rate: the calibrated monitor
    //    beats the uncalibrated clean stream on both metrics.
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

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
