//! The 48-server faulted fleet, stepped with a [`FleetMonitor`]
//! observing every tick, ends on its pinned simulator state and fleet
//! MSE, with fleet-scale monitoring work done.
//!
//! The simulator state is folded with `oracle::full_fingerprint`
//! (physics, every trace, the event log, delivered telemetry and fault
//! counters).
//!
//! vmbench's `fleet-dense` workload steps this same scenario for 3,600 s.

use vmtherm_bench::{train_stable_model, training_campaign};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_sim::scenario::oracle::full_fingerprint;
use vmtherm_sim::{
    AmbientModel, Datacenter, DropoutFault, Event, FaultPlan, JitterFault, ServerId, ServerSpec,
    SimTime, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// Fleet size.
const SERVERS: usize = 48;
/// Scenario length in 1 Hz steps.
const STEPS: u64 = 150;
/// `full_fingerprint` of the end state, captured when the scenario moved
/// here from its timing binary (whose own fold of the same run read
/// `620fcc4a3792ef2a`).
const PINNED_SIM: u64 = 0x0344_1ddd_17d3_9fea;
/// Fleet MSE bits of the run (5.439901783838876), captured with
/// [`PINNED_SIM`].
const PINNED_FLEET_MSE: u64 = 0x4015_c275_9cfc_28ff;

fn fleet_sim() -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(24.0),
        5,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9);
    sim.set_fault_plan(
        FaultPlan::new(21)
            .with_dropout(
                DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0))
                    .expect("dropout channel"),
            )
            .with_spike(
                SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                    .expect("spike channel"),
            )
            .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).expect("jitter channel")),
    )
    .expect("valid fault plan");
    let tasks = [
        TaskProfile::CpuBound,
        TaskProfile::Mixed,
        TaskProfile::WebServer,
        TaskProfile::MemoryBound,
        TaskProfile::Bursty,
    ];
    for s in 0..SERVERS {
        let task = tasks[s % tasks.len()];
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("vm-{s}"), 2 + (s % 3) as u32, 4.0, task),
        )
        .expect("scenario VM placement");
    }
    // A mid-run burst on a handful of servers exercises event-driven
    // re-anchoring across the fleet.
    for s in (0..SERVERS).step_by(7) {
        sim.schedule(
            SimTime::from_secs(60),
            Event::BootVm {
                server: ServerId::new(s),
                spec: VmSpec::new(format!("burst-{s}"), 4, 8.0, TaskProfile::CpuBound),
            },
        );
    }
    sim
}

#[test]
fn faulted_fleet_matches_its_pinned_digests() {
    let model = train_stable_model(&training_campaign(30, 42), false);
    let mut sim = fleet_sim();
    let mut monitor = FleetMonitor::new(model, DynamicConfig::new(), SERVERS, Seconds::new(40.0))
        .expect("monitor");
    for _ in 0..STEPS {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }

    let digest = full_fingerprint(&sim);
    assert_eq!(
        digest, PINNED_SIM,
        "end state {digest:#018x} moved off the pinned digest"
    );
    let fleet_mse = monitor.fleet_mse();
    assert_eq!(
        fleet_mse.to_bits(),
        PINNED_FLEET_MSE,
        "fleet MSE {fleet_mse} ({:#018x}) moved off the pinned bits",
        fleet_mse.to_bits()
    );
    // The monitor did fleet-scale work.
    let scored: usize = (0..SERVERS)
        .map(|s| monitor.stats(ServerId::new(s)).scored)
        .sum();
    assert!(
        scored >= SERVERS * 16 && fleet_mse.is_finite(),
        "scored only {scored} forecasts (mse {fleet_mse})"
    );
}
