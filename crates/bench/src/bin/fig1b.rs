//! Regenerates **Figure 1(b)**: a case study of dynamic CPU temperature
//! modeling with and without run-time calibration, against empirical data.
//!
//! Paper result: dynamic modeling *with* calibration produces a lower MSE
//! than the pre-defined curve alone.
//!
//! Scenario: a 4-fan server boots 5 heterogeneous VMs at t = 0 (warm-up
//! transient), then receives a 2-VM cpu-bound burst at t = 900 s (the
//! runtime configuration change the paper highlights). Both predictor arms
//! re-anchor on the stable model's ψ_stable at each reconfiguration;
//! λ = 0.8, Δ_gap = 60 s, Δ_update = 15 s as in the paper's example.
//!
//! Run with: `cargo run --release -p vmtherm-bench --bin fig1b`

use vmtherm_bench::{dynamic_scenario, score_dynamic, train_stable_model, training_campaign};
use vmtherm_core::baseline::LastValuePredictor;
use vmtherm_core::eval::evaluate_online;
use vmtherm_core::units::Seconds;

const GAP_SECS: f64 = 60.0;

/// Parses `--csv PREFIX` from the command line.
fn csv_flag() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--csv" {
            return args.next();
        }
    }
    None
}
const UPDATE_SECS: f64 = 15.0;

fn main() {
    println!("=== Figure 1(b): dynamic prediction case study ===\n");
    println!("training stable model (120 experiments, pre-tuned params)...");
    let train = training_campaign(120, 42);
    let model = train_stable_model(&train, false);

    let scenario = dynamic_scenario(&model, 5, 2, 4, 24.0, 900, 1800, 7);
    println!(
        "scenario: 5 VMs at t=0, +2 cpu-bound at t=900 s; anchors psi_stable = {:.1} C then {:.1} C",
        scenario.anchors[0].psi_stable, scenario.anchors[1].psi_stable
    );
    println!("lambda = 0.8, gap = {GAP_SECS} s, update interval = {UPDATE_SECS} s\n");

    let calibrated = score_dynamic(&scenario, GAP_SECS, UPDATE_SECS, true);
    let uncalibrated = score_dynamic(&scenario, GAP_SECS, UPDATE_SECS, false);
    let mut last_value = LastValuePredictor::new();
    let series = scenario.series.series();
    let naive = evaluate_online(&mut last_value, series, Seconds::new(GAP_SECS));

    // The figure: empirical vs the two model arms, sampled every 60 s.
    println!("   t |  empirical  calibrated  uncalibrated");
    let lookup = |report: &vmtherm_core::eval::DynamicEvalReport, t: f64| {
        report
            .points
            .iter()
            .find(|p| (p.t_secs - t).abs() < 0.5)
            .map(|p| p.predicted)
    };
    for t in (60..=1740).step_by(60) {
        let t = t as f64;
        let empirical = series
            .iter()
            .find(|(ts, _)| (*ts - t).abs() < 0.5)
            .map_or(f64::NAN, |(_, v)| v);
        let cal = lookup(&calibrated, t);
        let unc = lookup(&uncalibrated, t);
        println!(
            "{:>4} | {:>9.2}  {:>10}  {:>12}",
            t as u64,
            empirical,
            cal.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
            unc.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
        );
    }

    if let Some(prefix) = csv_flag() {
        std::fs::write(format!("{prefix}_calibrated.csv"), calibrated.to_csv())
            .expect("writing csv");
        std::fs::write(format!("{prefix}_uncalibrated.csv"), uncalibrated.to_csv())
            .expect("writing csv");
        println!("\nwrote series to {prefix}_{{calibrated,uncalibrated}}.csv");
    }

    println!("\n--- MSE over the run ---");
    println!("with calibration:     {:.3}", calibrated.mse);
    println!("without calibration:  {:.3}", uncalibrated.mse);
    println!("last-value baseline:  {:.3}", naive.mse);
    println!("\npaper:    calibrated MSE < uncalibrated MSE; dynamic MSE ~1.6 in most scenarios");
    let ok = calibrated.mse < uncalibrated.mse;
    println!(
        "measured: {} (calibrated {:.3} vs uncalibrated {:.3})",
        if ok { "REPRODUCED" } else { "NOT reproduced" },
        calibrated.mse,
        uncalibrated.mse
    );
}
