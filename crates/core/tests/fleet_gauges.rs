//! `FleetMonitor::observe` publishes the fleet roll-up gauges while the
//! obs layer is enabled: `vmtherm_monitor_fleet_mse` holds the bits of
//! `fleet_mse()` and `vmtherm_monitor_fleet_pred_abs_err_p95_c` those of
//! the fleet error roll-up's p95.
//!
//! Its own test binary with one test: the registry is process-global, so
//! no other monitor may publish while this one is read.

use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm_obs::{self as obs, names};
use vmtherm_sim::{
    AmbientModel, CaseGenerator, Datacenter, DropoutFault, FaultPlan, JitterFault, ServerId,
    ServerSpec, SimDuration, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::svr::SvrParams;
use vmtherm_units::{Celsius, Seconds};

const SERVERS: usize = 6;

fn stable_model() -> StablePredictor {
    let configs: Vec<_> = CaseGenerator::new(42)
        .random_cases(20, 1_000)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(900)))
        .collect();
    StablePredictor::fit(
        &run_experiments(&configs),
        &TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(128.0)
                .with_epsilon(0.05)
                .with_kernel(Kernel::rbf(0.02)),
        ),
    )
    .expect("fit")
}

fn faulted_fleet() -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("n"),
        SERVERS,
        2,
        Celsius::new(24.0),
        3,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
    sim.set_fault_plan(
        FaultPlan::new(21)
            .with_dropout(
                DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).expect("dropout"),
            )
            .with_spike(
                SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).expect("spike"),
            )
            .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).expect("jitter")),
    )
    .expect("fault plan");
    for s in 0..SERVERS {
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("v{s}"), 2, 4.0, TaskProfile::CpuBound),
        )
        .expect("placement");
    }
    sim
}

#[test]
fn observe_publishes_the_fleet_roll_up_gauges() {
    let mut sim = faulted_fleet();
    let mut monitor = FleetMonitor::new(
        stable_model(),
        DynamicConfig::new(),
        SERVERS,
        Seconds::new(20.0),
    )
    .expect("monitor");
    obs::set_enabled(true);
    for _ in 0..120 {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }
    obs::set_enabled(false);

    let mse = monitor.fleet_mse();
    let p95 = monitor.fleet_pred_err().quantile(0.95);
    assert!(mse.is_finite() && p95.is_finite(), "no forecast matured");
    let registry = obs::global();
    let gauge = |name| registry.gauge(name).get().to_bits();
    assert_eq!(gauge(names::METRIC_MONITOR_FLEET_MSE), mse.to_bits());
    assert_eq!(
        gauge(names::METRIC_MONITOR_FLEET_PRED_ERR_P95),
        p95.to_bits()
    );
}
