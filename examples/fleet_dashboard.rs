//! Live fleet drift dashboard: the observability layer watching the
//! paper's online deployment mode (Fig. 1(c) scenario — per-server
//! calibrated dynamic forecasts under VM churn).
//!
//! Six servers run a churning workload (boots, a stop, a migration). A
//! [`FleetMonitor`] attaches one dynamic predictor per server, and its
//! `publish` writes per-server drift gauges to the global obs registry,
//! which is enabled:
//!
//! - `vmtherm_monitor_rolling_mse{server="N"}` — MSE over the last 128
//!   scored forecasts,
//! - `vmtherm_monitor_gamma_abs{server="N"}` — |γ|, the calibration
//!   magnitude of Eq. (6),
//! - `vmtherm_monitor_since_reanchor_secs{server="N"}` — staleness of
//!   the current warm-up curve anchor,
//! - `vmtherm_monitor_pending_forecasts{server="N"}` — forecasts issued
//!   but not yet matured.
//!
//! Every 180 s the example publishes the monitor, reads those gauges
//! back from the registry — exactly what a scraping dashboard would do —
//! and renders a drift table.
//!
//! Run with: `cargo run --release --example fleet_dashboard`

use vmtherm::core::dynamic::DynamicConfig;
use vmtherm::core::monitor::FleetMonitor;
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::obs::{self, names};
use vmtherm::sim::workload::TaskProfile;
use vmtherm::sim::{
    AmbientModel, CaseGenerator, Datacenter, Event, ServerId, ServerSpec, SimDuration, SimTime,
    Simulation, VmSpec,
};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::{Celsius, Seconds};

const SERVERS: usize = 6;
const GAP_SECS: f64 = 60.0;
const TABLE_EVERY_SECS: u64 = 180;

fn gauge(base: &str, server: usize) -> f64 {
    obs::global()
        .gauge(&names::server_gauge(base, server))
        .get()
}

fn main() {
    // Everything below feeds the registry the dashboard reads.
    obs::set_enabled(true);

    println!("training stable model (80 experiments)...");
    let mut generator = CaseGenerator::new(17);
    let configs: Vec<_> = generator
        .random_cases(80, 400)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(1200)))
        .collect();
    let outcomes = run_experiments(&configs);
    let options = TrainingOptions::new().with_params(
        SvrParams::new()
            .with_c(128.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.02)),
    );
    let stable = StablePredictor::fit(&outcomes, &options).expect("training failed");

    // --- Fleet with churn: boots, one stop, one migration ------------------
    let ambient = 23.0;
    let mut dc = Datacenter::new();
    for i in 0..SERVERS {
        dc.add_server(
            ServerSpec::standard(format!("node-{i}")),
            Celsius::new(ambient),
            i as u64,
        );
    }
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), 2024);
    let mut seeded = Vec::new();
    for i in 0..SERVERS {
        for j in 0..(1 + i % 3) {
            let task = match (i + j) % 4 {
                0 => TaskProfile::CpuBound,
                1 => TaskProfile::WebServer,
                2 => TaskProfile::Mixed,
                _ => TaskProfile::MemoryBound,
            };
            let id = sim
                .boot_vm_now(
                    ServerId::new(i),
                    VmSpec::new(format!("init-{i}-{j}"), 2, 4.0, task),
                )
                .expect("boot");
            seeded.push(id);
        }
    }
    sim.schedule(
        SimTime::from_secs(400),
        Event::BootVm {
            server: ServerId::new(2),
            spec: VmSpec::new("burst", 4, 8.0, TaskProfile::CpuBound),
        },
    );
    sim.schedule(SimTime::from_secs(700), Event::StopVm(seeded[1]));
    sim.schedule(
        SimTime::from_secs(900),
        Event::MigrateVm {
            vm: seeded[0],
            dest: ServerId::new(4),
        },
    );

    let mut monitor = FleetMonitor::new(
        stable,
        DynamicConfig::new(),
        SERVERS,
        Seconds::new(GAP_SECS),
    )
    .expect("monitor config");

    println!("\ndrift table, read back from the obs registry every {TABLE_EVERY_SECS} s:");
    let horizon = SimTime::from_secs(1800);
    while sim.now() < horizon {
        sim.step();
        monitor.observe(&sim, Celsius::new(ambient));

        if sim
            .now()
            .as_millis()
            .is_multiple_of(TABLE_EVERY_SECS * 1000)
        {
            monitor.publish();
            println!(
                "\n  t={:>5}s | {:>11} | {:>7} | {:>13} | {:>7}",
                sim.now().as_secs_f64() as u64,
                "rolling MSE",
                "|gamma|",
                "s since ankr",
                "pending"
            );
            for i in 0..SERVERS {
                let mse = gauge(names::METRIC_MONITOR_ROLLING_MSE, i);
                let gamma = gauge(names::METRIC_MONITOR_GAMMA_ABS, i);
                let since = gauge(names::METRIC_MONITOR_SINCE_REANCHOR, i);
                let pending = gauge(names::METRIC_MONITOR_PENDING, i);
                println!(
                    "  node-{i}   | {:>11} | {gamma:>7.3} | {since:>13.0} | {pending:>7.0}",
                    if mse.is_nan() {
                        "warming".to_string()
                    } else {
                        format!("{mse:.3}")
                    },
                );
            }
        }
    }

    let reanchors = obs::global().counter(names::METRIC_REANCHOR_TOTAL).get();
    let scored = obs::global().counter(names::METRIC_FORECASTS_SCORED).get();
    println!("\nfleet-wide dynamic MSE: {:.3}", monitor.fleet_mse());
    println!("re-anchors: {reanchors} | forecasts scored: {scored}");
    println!("paper reference (Fig. 1c): dynamic MSE between 0.70 and 1.50");
}
