//! The differential-oracle battery a scenario must survive.
//!
//! Each oracle is a property the engine already promises:
//!
//! * **determinism** — the same scenario run twice produces bit-identical
//!   telemetry, delivered streams and fault counters (per clock mode);
//! * **clock-equivalence** — fixed and event clocks reach the same
//!   physical end state bit-for-bit (PR 9's sparse wake-up guarantee);
//! * **clean-path** — with every fault channel disabled, installing the
//!   no-op injector changes nothing observable;
//! * **invariants** — physical sanity: finite values, plausible die
//!   temperatures, monotone timestamps, utilization in `[0, 1]`, sparse
//!   stepping never exceeding the dense step count.
//!
//! Fingerprints fold `f64::to_bits` words through FNV-1a, the same idiom
//! the fleet and event benches use, so "equal" always means bit-equal
//! and never "close enough".

use super::Scenario;
use crate::engine::{ClockMode, Simulation};
use crate::error::SimError;
use crate::server::ServerId;
use crate::telemetry::Series;

/// Die-temperature sanity floor (°C) for the invariant oracle.
const DIE_FLOOR: f64 = -10.0;
/// Die-temperature sanity ceiling (°C); far above any plausible
/// operating point but below values that indicate integration blow-up.
const DIE_CEILING: f64 = 130.0;

/// One violated property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which oracle tripped (`determinism`, `clock-equivalence`,
    /// `clean-path`, `invariants`).
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Outcome of one scenario's trip through the battery.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Every violated property (empty = pass).
    pub failures: Vec<OracleFailure>,
    /// Event-mode skip factor observed on the baseline event run
    /// (1.0 = no sparse wake-up benefit).
    pub event_skip_factor: f64,
}

impl ScenarioReport {
    /// True when no oracle tripped.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// FNV-1a over 64-bit words; `f64`s are folded via `to_bits` so the
/// digest is sensitive to every last mantissa bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn write_f64(&mut self, value: f64) {
        self.write(value.to_bits());
    }
    fn write_series(&mut self, series: Series<'_>) {
        self.write(series.len() as u64);
        for (t, v) in series.iter() {
            self.write_f64(t);
            self.write_f64(v);
        }
    }
}

/// Builds and runs a scenario to its horizon on one clock.
///
/// # Errors
///
/// Build/validation errors; the run itself cannot fail.
pub fn run_to_end(scenario: &Scenario, clock: ClockMode) -> Result<Simulation, SimError> {
    let mut sim = scenario.build(clock)?;
    sim.run_until(crate::time::SimTime::ZERO + scenario.duration);
    Ok(sim)
}

/// Digest of the *physical* end state only: die temperatures, last
/// power and utilization per server, and total room heat. This is the
/// quantity the fixed and event clocks promise to agree on (their
/// telemetry densities legitimately differ).
#[must_use]
pub fn physical_fingerprint(sim: &Simulation) -> u64 {
    let mut fnv = Fnv::new();
    let dc = sim.datacenter();
    fnv.write(dc.len() as u64);
    for i in 0..dc.len() {
        if let Ok(server) = dc.server(ServerId::new(i)) {
            fnv.write(server.vm_count() as u64);
            fnv.write_f64(server.die_temperature());
            fnv.write_f64(server.last_power());
            fnv.write_f64(server.last_utilization());
        }
    }
    fnv.write_f64(dc.room_heat_kw());
    fnv.0
}

/// Digest of everything fault-independent: physical end state, full
/// telemetry traces and the event log. Used by the clean-path oracle,
/// where one side has no injector installed at all (and therefore no
/// delivered stream to compare).
#[must_use]
pub fn clean_fingerprint(sim: &Simulation) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(physical_fingerprint(sim));
    let dc = sim.datacenter();
    for i in 0..dc.len() {
        if let Ok(trace) = sim.trace(ServerId::new(i)) {
            fnv.write_series(trace.sensor_c);
            fnv.write_series(trace.die_c);
            fnv.write_series(trace.utilization);
            fnv.write_series(trace.power_w);
            fnv.write_series(trace.ambient_c);
        }
    }
    fnv.write(sim.log().len() as u64);
    for (at, event) in sim.log() {
        fnv.write(at.as_millis());
        for b in format!("{event:?}").bytes() {
            fnv.write(u64::from(b));
        }
    }
    fnv.0
}

/// Digest of the complete observable run: [`clean_fingerprint`] plus
/// the delivered (post-fault) streams and fault counters. Two runs of
/// the same configuration must agree on this exactly.
#[must_use]
pub fn full_fingerprint(sim: &Simulation) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(clean_fingerprint(sim));
    let dc = sim.datacenter();
    for i in 0..dc.len() {
        match sim.delivered(ServerId::new(i)) {
            Some(stream) => {
                fnv.write(stream.len() as u64);
                for (t, v) in stream {
                    fnv.write_f64(*t);
                    fnv.write_f64(*v);
                }
            }
            None => fnv.write(u64::MAX),
        }
    }
    let stats = sim.fault_stats();
    fnv.write(stats.dropped);
    fnv.write(stats.stuck);
    fnv.write(stats.spiked);
    fnv.write(stats.jittered);
    fnv.write(stats.events_lost);
    fnv.0
}

/// Physical-sanity sweep over a finished run; pushes one failure per
/// violated invariant.
fn check_invariants(sim: &Simulation, label: &str, failures: &mut Vec<OracleFailure>) {
    let mut fail = |detail: String| {
        failures.push(OracleFailure {
            oracle: "invariants",
            detail: format!("{label}: {detail}"),
        });
    };
    let dc = sim.datacenter();
    for i in 0..dc.len() {
        if let Ok(server) = dc.server(ServerId::new(i)) {
            let die = server.die_temperature();
            if !die.is_finite() || !(DIE_FLOOR..=DIE_CEILING).contains(&die) {
                fail(format!(
                    "server {i} die temperature {die} outside sanity bounds"
                ));
            }
            let util = server.last_utilization();
            if !util.is_finite() || !(0.0..=1.0).contains(&util) {
                fail(format!("server {i} utilization {util} outside [0, 1]"));
            }
            if !server.last_power().is_finite() || server.last_power() < 0.0 {
                fail(format!(
                    "server {i} power {} not finite >= 0",
                    server.last_power()
                ));
            }
        }
        let Ok(trace) = sim.trace(ServerId::new(i)) else {
            fail(format!("server {i} has no telemetry trace"));
            continue;
        };
        let horizon = sim.now().as_secs_f64();
        let series: [(&str, Series<'_>); 5] = [
            ("sensor_c", trace.sensor_c),
            ("die_c", trace.die_c),
            ("utilization", trace.utilization),
            ("power_w", trace.power_w),
            ("ambient_c", trace.ambient_c),
        ];
        for (name, ts) in series {
            let mut prev = f64::NEG_INFINITY;
            for (t, v) in ts.iter() {
                if !t.is_finite() || t < prev {
                    fail(format!(
                        "server {i} {name} timestamps not monotone at t={t}"
                    ));
                    break;
                }
                if t > horizon {
                    fail(format!(
                        "server {i} {name} sample at t={t} beyond horizon {horizon}"
                    ));
                    break;
                }
                if !v.is_finite() {
                    fail(format!("server {i} {name} non-finite value at t={t}"));
                    break;
                }
                prev = t;
            }
        }
        for (t, v) in trace.die_c.iter() {
            if v.is_finite() && !(DIE_FLOOR..=DIE_CEILING).contains(&v) {
                fail(format!(
                    "server {i} die_c {v} at t={t} outside sanity bounds"
                ));
                break;
            }
        }
    }
    let mut prev = crate::time::SimTime::ZERO;
    for (at, _) in sim.log() {
        if *at < prev {
            fail(format!("event log timestamps regress at {at}"));
            break;
        }
        prev = *at;
    }
    let stats = sim.step_stats();
    if stats.server_steps > stats.dense_server_steps {
        fail(format!(
            "sparse stepping did more work than dense ({} > {})",
            stats.server_steps, stats.dense_server_steps
        ));
    }
}

/// Runs the full battery on one scenario.
///
/// # Errors
///
/// [`SimError`] when the scenario itself is invalid or unbuildable;
/// oracle violations are *not* errors — they land in
/// [`ScenarioReport::failures`].
pub fn check_scenario(scenario: &Scenario) -> Result<ScenarioReport, SimError> {
    let mut failures = Vec::new();

    let fixed = run_to_end(scenario, ClockMode::Fixed)?;
    check_invariants(&fixed, "fixed", &mut failures);
    let fixed_full = full_fingerprint(&fixed);
    let fixed_again = run_to_end(scenario, ClockMode::Fixed)?;
    if full_fingerprint(&fixed_again) != fixed_full {
        failures.push(OracleFailure {
            oracle: "determinism",
            detail: "fixed-clock rerun diverged from itself".to_string(),
        });
    }

    let event = run_to_end(scenario, ClockMode::Event)?;
    check_invariants(&event, "event", &mut failures);
    let event_full = full_fingerprint(&event);
    let event_again = run_to_end(scenario, ClockMode::Event)?;
    if full_fingerprint(&event_again) != event_full {
        failures.push(OracleFailure {
            oracle: "determinism",
            detail: "event-clock rerun diverged from itself".to_string(),
        });
    }

    if physical_fingerprint(&event) != physical_fingerprint(&fixed) {
        failures.push(OracleFailure {
            oracle: "clock-equivalence",
            detail: "fixed and event clocks reached different physical end states".to_string(),
        });
    }

    if scenario.fault.is_noop() {
        let mut bare = scenario.build_without_fault_plan(ClockMode::Fixed)?;
        bare.run_until(crate::time::SimTime::ZERO + scenario.duration);
        if clean_fingerprint(&bare) != clean_fingerprint(&fixed) {
            failures.push(OracleFailure {
                oracle: "clean-path",
                detail: "installing the no-op fault plan changed the run".to_string(),
            });
        }
    }

    Ok(ScenarioReport {
        name: scenario.name.clone(),
        failures,
        event_skip_factor: event.step_stats().skip_factor(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;
    use crate::time::SimDuration;

    #[test]
    fn quiet_scenario_passes_every_oracle() {
        let scenario = Scenario::quiet("oracle-quiet", 5, 3, SimDuration::from_secs(1200));
        let report = check_scenario(&scenario).expect("battery");
        assert!(
            report.passed(),
            "unexpected failures: {:?}",
            report.failures
        );
        // An idle fleet at fixed ambient is exactly where sparse
        // wake-ups pay off.
        assert!(report.event_skip_factor > 1.0);
    }

    #[test]
    fn generated_cases_pass_smoke_battery() {
        for index in 0..4 {
            let scenario = generate::scenario(1234, index);
            let report = check_scenario(&scenario).expect("battery");
            assert!(
                report.passed(),
                "{} failed: {:?}",
                report.name,
                report.failures
            );
        }
    }

    #[test]
    fn fingerprints_are_stable_across_reruns() {
        let scenario = generate::scenario(9, 2);
        let a = run_to_end(&scenario, ClockMode::Fixed).expect("run");
        let b = run_to_end(&scenario, ClockMode::Fixed).expect("run");
        assert_eq!(full_fingerprint(&a), full_fingerprint(&b));
        assert_eq!(clean_fingerprint(&a), clean_fingerprint(&b));
        assert_eq!(physical_fingerprint(&a), physical_fingerprint(&b));
    }
}
