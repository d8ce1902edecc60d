//! `vmtherm_engine_steps_total` counts every engine step, however the
//! caller drives the clock, and `vmtherm_engine_step_ns` times the last
//! tick of every 64.
//!
//! Its own test binary with one test: the registry is process-global, so
//! no other run may step a simulation while this one measures.

use vmtherm_obs::{self as obs, names, Histogram};
use vmtherm_sim::{AmbientModel, Datacenter, ServerSpec, SimTime, Simulation};
use vmtherm_units::Celsius;

fn one_server() -> Simulation {
    let mut dc = Datacenter::new();
    dc.add_server(ServerSpec::standard("s"), Celsius::new(24.0), 1);
    Simulation::new(dc, AmbientModel::Fixed(24.0), 5)
}

/// The rises of the step counter and of the step-latency sample count
/// while `drive` runs on a fresh one-server simulation.
fn rises_over(drive: impl FnOnce(&mut Simulation)) -> (u64, u64) {
    let steps = obs::global().counter(names::METRIC_ENGINE_STEPS);
    let timed = obs::global().histogram(names::METRIC_ENGINE_STEP_NS, Histogram::ns_buckets);
    let (steps_before, timed_before) = (steps.get(), timed.count());
    drive(&mut one_server());
    (steps.get() - steps_before, timed.count() - timed_before)
}

#[test]
fn step_counter_rises_by_exactly_the_steps_run() {
    obs::set_enabled(true);
    // Tick 63 is the only one of the first 100 that is timed.
    let by_step = rises_over(|sim| {
        for _ in 0..100 {
            sim.step();
        }
    });
    assert_eq!(by_step, (100, 1));
    let by_run = rises_over(|sim| sim.run_until(SimTime::from_secs(100)));
    assert_eq!(by_run, (100, 1));

    // With the layer off, nothing is counted or timed.
    obs::set_enabled(false);
    let off = rises_over(|sim| sim.run_until(SimTime::from_secs(100)));
    assert_eq!(off, (0, 0));
}
