//! Sharded fleet stepping and monitoring are independent of the thread
//! count: the 48-server faulted fleet, stepped at threads = shards ∈
//! {1, 2, 4, 8} with a [`ShardedMonitor`] observing every tick, ends in
//! bit-identical simulator and monitor states.
//!
//! The simulator state is folded with `oracle::full_fingerprint`
//! (physics, every trace, the event log, delivered telemetry and fault
//! counters). The monitor state is compared as a vector of bits: per
//! server the scored count, squared-error sum, re-anchors, rolling MSE
//! and last anchor, then the fleet MSE and the forecast-error roll-up.
//!
//! vmbench's `fleet-dense` workload steps this same scenario for 3,600 s.

use vmtherm_bench::{train_stable_model, training_campaign};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::fleet::ShardedMonitor;
use vmtherm_core::stable::StablePredictor;
use vmtherm_sim::scenario::oracle::full_fingerprint;
use vmtherm_sim::{
    AmbientModel, Datacenter, DropoutFault, Event, FaultPlan, JitterFault, ServerId, ServerSpec,
    SimTime, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// Thread counts compared (shards track threads, so the partitioning
/// varies too).
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Fleet size: below `vmtherm_sim::shard::MIN_SERVERS_PER_WORKER`, so
/// every thread count steps the same shards inline.
const SERVERS: usize = 48;
/// Scenario length in 1 Hz steps.
const STEPS: u64 = 150;
/// `full_fingerprint` of the 1-thread end state, captured when the
/// scenario moved here from its timing binary (whose own fold of the
/// same run read `620fcc4a3792ef2a`).
const PINNED_SIM: u64 = 0x0344_1ddd_17d3_9fea;
/// Fleet MSE bits of the 1-thread run (5.439901783838876), captured with
/// [`PINNED_SIM`].
const PINNED_FLEET_MSE: u64 = 0x4015_c275_9cfc_28ff;

fn fleet_sim(threads: usize) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(24.0),
        5,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_threads(threads);
    sim.set_shards(threads);
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
    // re-anchoring inside every shard.
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

/// The end state of one run at one thread count.
struct FleetRun {
    sim: u64,
    monitor: Vec<u64>,
    fleet_mse: f64,
    scored: usize,
}

fn fleet_run(model: &StablePredictor, threads: usize) -> FleetRun {
    let mut sim = fleet_sim(threads);
    let mut monitor = ShardedMonitor::new(
        model,
        DynamicConfig::new(),
        SERVERS,
        Seconds::new(40.0),
        threads,
        threads,
    )
    .expect("monitor");
    for _ in 0..STEPS {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }

    let mut bits = Vec::new();
    let mut scored = 0;
    for s in 0..SERVERS {
        let sid = ServerId::new(s);
        let stats = monitor.stats(sid);
        scored += stats.scored;
        bits.extend([
            stats.scored as u64,
            stats.sum_sq_err.to_bits(),
            monitor.reanchor_count(sid),
            monitor.rolling_mse(sid).to_bits(),
            monitor.last_anchor_secs(sid).to_bits(),
        ]);
    }
    let fleet_mse = monitor.fleet_mse();
    let rollup = monitor.fleet_pred_err();
    bits.extend([
        fleet_mse.to_bits(),
        rollup.count(),
        rollup.sum().to_bits(),
        rollup.min().to_bits(),
        rollup.max().to_bits(),
    ]);
    for (q, est) in rollup.quantiles() {
        bits.extend([q.to_bits(), est.to_bits()]);
    }
    FleetRun {
        sim: full_fingerprint(&sim),
        monitor: bits,
        fleet_mse,
        scored,
    }
}

#[test]
fn sharded_fleet_is_bit_identical_across_thread_counts() {
    let model = train_stable_model(&training_campaign(30, 42), false);
    let runs: Vec<FleetRun> = THREADS.iter().map(|&t| fleet_run(&model, t)).collect();

    let base = &runs[0];
    assert_eq!(
        base.sim, PINNED_SIM,
        "1-thread end state {:#018x} moved off the pinned digest",
        base.sim
    );
    assert_eq!(
        base.fleet_mse.to_bits(),
        PINNED_FLEET_MSE,
        "1-thread fleet MSE {} ({:#018x}) moved off the pinned bits",
        base.fleet_mse,
        base.fleet_mse.to_bits()
    );
    for (threads, run) in THREADS.iter().zip(&runs) {
        assert_eq!(
            run.sim, base.sim,
            "threads {threads}: simulator end state {:#018x} vs 1-thread {:#018x}",
            run.sim, base.sim
        );
        assert!(
            run.monitor == base.monitor,
            "threads {threads}: monitor state differs from the 1-thread run"
        );
        // The monitor did fleet-scale work in every run.
        assert!(
            run.scored >= SERVERS * 16 && run.fleet_mse.is_finite(),
            "threads {threads} scored only {} forecasts (mse {})",
            run.scored,
            run.fleet_mse
        );
    }
}
