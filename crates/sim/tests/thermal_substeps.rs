//! `vmtherm_thermal_substeps_total` counts every RK4 substep the
//! integrator runs: a server stepped for a known span must raise the
//! counter by exactly its substeps.
//!
//! Its own test binary with one test: the counter is process-global, so
//! no other run may step a simulation while this one measures.

use vmtherm_obs::{self as obs, names};
use vmtherm_sim::{AmbientModel, ClockMode, Datacenter, ServerSpec, SimTime, Simulation};
use vmtherm_units::Celsius;

/// The counter's rise over a `secs`-long run of one empty server. With
/// 1-s steps, or Event-clock sleeps of whole seconds, each integrated
/// second is one substep, so the rise must be `secs`. The Event clock
/// must have let the server sleep.
fn substeps_over(spec: ServerSpec, clock: ClockMode, secs: u64) -> u64 {
    let mut dc = Datacenter::new();
    dc.add_server(spec, Celsius::new(24.0), 1);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 5).with_clock(clock);
    let counter = obs::global().counter(names::METRIC_THERMAL_SUBSTEPS);
    let before = counter.get();
    sim.run_until(SimTime::from_secs(secs));
    let stats = sim.step_stats();
    if clock == ClockMode::Event {
        assert!(stats.server_steps < stats.dense_server_steps, "{stats:?}");
    }
    counter.get() - before
}

#[test]
fn substep_counter_rises_by_exactly_the_substeps_run() {
    obs::set_enabled(true);
    let spec = ServerSpec::standard("s");
    assert_eq!(substeps_over(spec.clone(), ClockMode::Fixed, 100), 100);
    // A sleeping server integrates multi-second spans when it wakes and
    // when the run settles; those count one substep per second too.
    assert_eq!(substeps_over(spec, ClockMode::Event, 1000), 1000);

    // With the layer off, nothing is counted.
    obs::set_enabled(false);
    assert_eq!(
        substeps_over(ServerSpec::standard("off"), ClockMode::Fixed, 100),
        0
    );
}
