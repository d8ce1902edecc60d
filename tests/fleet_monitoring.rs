//! Cross-crate integration of the deployment layer: a [`FleetMonitor`]
//! tracking a live simulation through churn, migration, an ambient step
//! and faulted telemetry (out-of-order, stale and dropped samples).

use vmtherm::core::dynamic::DynamicConfig;
use vmtherm::core::monitor::FleetMonitor;
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::sim::{
    AmbientModel, CaseGenerator, Datacenter, DropoutFault, Event, FaultPlan, JitterFault, ServerId,
    ServerSpec, SimDuration, SimTime, Simulation, TaskProfile, VmSpec,
};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::{Celsius, Seconds};

fn options() -> TrainingOptions {
    TrainingOptions::new().with_params(
        SvrParams::new()
            .with_c(128.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.02)),
    )
}

fn stable_model(seed: u64, n: usize) -> StablePredictor {
    let mut generator = CaseGenerator::new(seed);
    let configs: Vec<_> = generator
        .random_cases(n, seed * 13)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(900)))
        .collect();
    let outcomes = run_experiments(&configs);
    StablePredictor::fit(&outcomes, &options()).expect("training")
}

#[test]
fn monitor_tracks_fleet_through_migration_and_ambient_step() {
    let mut dc = Datacenter::new();
    for i in 0..4 {
        dc.add_server(
            ServerSpec::standard(format!("n{i}")),
            Celsius::new(24.0),
            i as u64,
        );
    }
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 5);
    let mut vms = Vec::new();
    for i in 0..4 {
        for j in 0..2 {
            let task = if (i + j) % 2 == 0 {
                TaskProfile::CpuBound
            } else {
                TaskProfile::Mixed
            };
            vms.push(
                sim.boot_vm_now(
                    ServerId::new(i),
                    VmSpec::new(format!("v{i}{j}"), 2, 4.0, task),
                )
                .expect("boot"),
            );
        }
    }
    // Churn: a migration mid-run and an ambient step late.
    sim.schedule(
        SimTime::from_secs(500),
        Event::MigrateVm {
            vm: vms[0],
            dest: ServerId::new(3),
        },
    );
    sim.schedule(
        SimTime::from_secs(1100),
        Event::SetAmbient(AmbientModel::Fixed(26.0)),
    );

    let mut monitor = FleetMonitor::new(
        stable_model(42, 60),
        DynamicConfig::new(),
        4,
        Seconds::new(60.0),
    )
    .expect("monitor");
    for _ in 0..1600 {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }

    // Every server scored forecasts; fleet error stays in the dynamic
    // band despite the migration and ambient step.
    for i in 0..4 {
        let stats = monitor.stats(ServerId::new(i));
        assert!(
            stats.scored > 1200,
            "server {i} scored only {}",
            stats.scored
        );
        assert!(stats.mse() < 4.0, "server {i} mse {}", stats.mse());
    }
    assert!(
        monitor.fleet_mse() < 3.0,
        "fleet mse {}",
        monitor.fleet_mse()
    );
    // The migration actually happened (source lost the VM).
    assert_eq!(sim.datacenter().locate_vm(vms[0]), Some(ServerId::new(3)));
}

#[test]
fn monitor_absorbs_out_of_order_and_stale_telemetry_across_the_fleet() {
    // Same 4-server fleet as above, but the telemetry path is degraded:
    // clock jitter reorders timestamps (out-of-order samples must be
    // absorbed, never surfaced) and outage windows
    // past the staleness threshold force holdover/recovery cycles.
    let mut dc = Datacenter::new();
    for i in 0..4 {
        dc.add_server(
            ServerSpec::standard(format!("n{i}")),
            Celsius::new(24.0),
            i as u64,
        );
    }
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 5);
    for i in 0..4 {
        for j in 0..2 {
            let task = if (i + j) % 2 == 0 {
                TaskProfile::CpuBound
            } else {
                TaskProfile::Mixed
            };
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}{j}"), 2, 4.0, task),
            )
            .expect("boot");
        }
    }
    let plan = FaultPlan::new(99)
        .with_jitter(JitterFault::random(0.2, Seconds::new(1.5)).expect("jitter"))
        .with_dropout(
            DropoutFault::random(0.002, Seconds::new(45.0), Seconds::new(45.0)).expect("dropout"),
        );
    sim.set_fault_plan(plan).expect("plan");

    let mut monitor = FleetMonitor::new(
        stable_model(42, 60),
        DynamicConfig::new(),
        4,
        Seconds::new(60.0),
    )
    .expect("monitor");
    for _ in 0..1600 {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }

    let faults = sim.fault_stats();
    assert!(faults.jittered > 100, "jitter never applied: {faults:?}");
    assert!(faults.dropped > 0, "no outage windows opened: {faults:?}");
    let mut ooo_total = 0;
    let mut holdover_total = 0;
    for i in 0..4 {
        let sid = ServerId::new(i);
        let stats = monitor.stats(sid);
        let deg = monitor.degradation(sid);
        ooo_total += deg.ooo_absorbed;
        holdover_total += deg.holdover_entries;
        // Recovery keeps re-anchor counts matched to holdover cycles.
        assert_eq!(
            deg.recovery_reanchors, deg.holdover_entries,
            "server {i}: {deg:?}"
        );
        assert!(
            stats.scored > 1000,
            "server {i} stopped scoring: {}",
            stats.scored
        );
        assert!(
            stats.mse().is_finite() && stats.mse() < 5.0,
            "server {i} mse {}",
            stats.mse()
        );
    }
    assert!(
        ooo_total > 50,
        "jittered fleet absorbed only {ooo_total} ooo samples"
    );
    assert!(holdover_total > 0, "no server ever went stale");
    assert!(
        monitor.fleet_mse() < 4.0,
        "degraded fleet mse {}",
        monitor.fleet_mse()
    );
}
