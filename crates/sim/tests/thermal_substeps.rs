//! `vmtherm_thermal_substeps_total` counts every RK4 substep the
//! integrator runs: a server stepped for a known span must raise the
//! counter by exactly its substeps, and a long-idle server, whose
//! integrations stop at a bitwise fixed point, by fewer.
//!
//! Its own test binary with one test: the counter is process-global, so
//! no other run may step a simulation while this one measures.

use vmtherm_obs::{self as obs, names};
use vmtherm_sim::scenario::oracle::{physical_fingerprint, run_to_end};
use vmtherm_sim::{
    AmbientModel, ClockMode, Datacenter, Scenario, ServerId, ServerSpec, SimTime, Simulation,
};
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

/// The counter's rise over `run`, and the physical end state it left:
/// the fingerprint, and per server the die temperature and the largest
/// node rate at 24 °C (which reads the sink temperature), as bits.
fn counted(run: impl FnOnce() -> Simulation) -> (u64, Vec<u64>) {
    let counter = obs::global().counter(names::METRIC_THERMAL_SUBSTEPS);
    let before = counter.get();
    let sim = run();
    let rise = counter.get() - before;
    let mut state = vec![physical_fingerprint(&sim)];
    for idx in 0..sim.datacenter().len() {
        let server = sim.datacenter().server(ServerId::new(idx)).expect("server");
        state.push(server.die_temperature().to_bits());
        state.push(server.thermal_rate_c_per_s(Celsius::new(24.0)).to_bits());
    }
    (rise, state)
}

/// One empty server idle for `secs` on `clock`.
fn long_idle(clock: ClockMode, secs: u64) -> Simulation {
    let mut dc = Datacenter::new();
    dc.add_server(ServerSpec::standard("idle"), Celsius::new(24.0), 1);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 5).with_clock(clock);
    sim.run_until(SimTime::from_secs(secs));
    sim
}

#[test]
fn substep_counter_rises_by_exactly_the_substeps_run() {
    obs::set_enabled(true);
    let spec = ServerSpec::standard("s");
    assert_eq!(substeps_over(spec.clone(), ClockMode::Fixed, 100), 100);
    // A sleeping server integrates multi-second spans when it wakes and
    // when the run settles; those count one substep per second too.
    assert_eq!(substeps_over(spec, ClockMode::Event, 1000), 1000);

    // An idle server settles onto a bitwise fixed point within a few
    // thousand seconds. The Fixed clock runs its one substep a tick
    // regardless; the Event clock's multi-second integrations stop at
    // the fixed point, and still end on the Fixed clock's bits.
    let secs = 20_000;
    let (fixed, fixed_state) = counted(|| long_idle(ClockMode::Fixed, secs));
    let (event, event_state) = counted(|| long_idle(ClockMode::Event, secs));
    assert_eq!(fixed, secs);
    assert!(event < secs, "{event} substeps over {secs} s");
    assert_eq!(event_state, fixed_state);

    // The corpus scenario built for this crosses fixed-point exits too,
    // then an ambient step that breaks them.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/scenarios/long-idle-fixed-point.json"
    );
    let text = std::fs::read_to_string(path).expect("corpus scenario");
    let scenario = Scenario::parse(&text).expect("valid scenario");
    let server_secs = scenario.servers as u64 * scenario.duration.as_millis() / 1000;
    let replay = |clock| counted(|| run_to_end(&scenario, clock).expect("run"));
    let (fixed, fixed_state) = replay(ClockMode::Fixed);
    let (event, event_state) = replay(ClockMode::Event);
    assert_eq!(fixed, server_secs);
    assert!(
        event < server_secs,
        "{event} substeps over {server_secs} server-s"
    );
    assert_eq!(event_state, fixed_state);

    // With the layer off, nothing is counted.
    obs::set_enabled(false);
    assert_eq!(
        substeps_over(ServerSpec::standard("off"), ClockMode::Fixed, 100),
        0
    );
}
