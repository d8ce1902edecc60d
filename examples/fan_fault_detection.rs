//! Thermal anomaly detection: catching a silent fan failure from
//! temperature alone.
//!
//! A server's BMC believes all 4 fans are healthy, but two of them stop
//! mid-run. No configuration input of Eq. (2) changes — yet the CPU runs
//! hotter than the model predicts for that configuration. The
//! [`ThermalWatchdog`] (CUSUM over prediction residuals) flags the fault;
//! a healthy control run stays quiet.
//!
//! Run with: `cargo run --release --example fan_fault_detection`

use vmtherm::core::anomaly::{ResidualDetector, ThermalWatchdog};
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::sim::experiment::ConfigSnapshot;
use vmtherm::sim::{
    AmbientModel, CaseGenerator, Datacenter, Event, ServerSpec, SimDuration, SimTime, Simulation,
    TaskProfile, VmSpec,
};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::Celsius;

const AMBIENT: f64 = 24.0;

/// Runs a server for `total` seconds, failing `failed_fans` fans at
/// t = 900 s, and returns (snapshot, per-window mean sensor temps).
fn run_server(failed_fans: u32, seed: u64) -> (ConfigSnapshot, Vec<(f64, f64)>) {
    let mut dc = Datacenter::new();
    let sid = dc.add_server(ServerSpec::standard("watched"), Celsius::new(AMBIENT), seed);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(AMBIENT), seed);
    for i in 0..5 {
        let task = if i % 2 == 0 {
            TaskProfile::CpuBound
        } else {
            TaskProfile::Mixed
        };
        sim.boot_vm_now(sid, VmSpec::new(format!("vm-{i}"), 2, 4.0, task))
            .expect("boot");
    }
    let snapshot = ConfigSnapshot::capture(&sim, sid, Celsius::new(AMBIENT));
    if failed_fans > 0 {
        sim.schedule(
            SimTime::from_secs(900),
            Event::FailFans {
                server: sid,
                count: failed_fans,
            },
        );
    }
    sim.run_until(SimTime::from_secs(3000));
    // Settled windows of 120 s, starting after the initial warm-up.
    let series = &sim.trace(sid).expect("trace").sensor_c;
    let windows: Vec<(f64, f64)> = (600..3000)
        .step_by(120)
        .map(|start| {
            let mean = series
                .iter()
                .filter(|(t, _)| *t >= start as f64 && *t < (start + 120) as f64)
                .map(|(_, v)| v)
                .sum::<f64>()
                / 120.0;
            (start as f64, mean)
        })
        .collect();
    (snapshot, windows)
}

fn main() {
    println!("training stable model (100 healthy experiments)...");
    let mut generator = CaseGenerator::new(31);
    let configs: Vec<_> = generator
        .random_cases(100, 600)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(1200)))
        .collect();
    let healthy = run_experiments(&configs);
    let options = TrainingOptions::new().with_params(
        SvrParams::new()
            .with_c(128.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.02)),
    );
    let model = StablePredictor::fit(&healthy, &options).expect("training");

    for (label, failed) in [("healthy control", 0u32), ("2-fan failure at t=900s", 2)] {
        println!("\n=== scenario: {label} ===");
        let (snapshot, windows) = run_server(failed, 77);
        let predicted = model.predict(&snapshot);
        println!("model prediction for this configuration: {predicted:.1} C");
        let mut watchdog = ThermalWatchdog::new(
            model.clone(),
            ResidualDetector::new(8.0, 0.8).expect("detector"),
        );
        let mut alarmed_at: Option<f64> = None;
        println!("    t | window mean | residual | cusum");
        for (t, mean) in &windows {
            let alarm = watchdog.observe(&snapshot, Celsius::new(*mean));
            println!(
                "{:>5} | {:>9.2} C | {:>+7.2} | {:>5.1}",
                *t as u64,
                mean,
                mean - predicted,
                watchdog.detector().hot_score()
            );
            if let (Some(a), None) = (alarm, alarmed_at) {
                alarmed_at = Some(*t);
                println!(
                    "      >>> WATCHDOG ALARM: {:?} (score {:.1}) <<<",
                    a.kind, a.score
                );
            }
        }
        match alarmed_at {
            Some(t) if failed > 0 => {
                println!(
                    "fault injected at 900 s, detected at {t} s — latency {} s",
                    t - 900.0
                );
            }
            Some(t) => println!("FALSE ALARM at {t} s on the healthy run"),
            None if failed > 0 => println!("MISSED the injected fault"),
            None => println!("healthy run: no alarms, as expected"),
        }
    }
}
