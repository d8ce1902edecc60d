//! Greedy scenario minimization.
//!
//! Given a failing scenario and a predicate that re-runs the oracle
//! battery, [`shrink`] walks a fixed candidate ladder — drop one event,
//! halve the horizon, halve the fleet, halve the initial VM load, drop
//! one fault channel, flatten the ambient model — accepting any
//! candidate that still fails, until a full pass produces no progress
//! or the check budget runs out. The result is the smallest repro the
//! ladder can reach, ready to check into `tests/scenarios/`.
//!
//! The ladder is deterministic (no randomness, candidates tried in a
//! fixed order), so the same failing case always minimizes to the same
//! file.

use super::{oracle::OracleFailure, Scenario};
use crate::engine::Event;
use crate::environment::AmbientModel;
use crate::time::SimDuration;

/// Shortest horizon the shrinker will propose.
const MIN_DURATION: SimDuration = SimDuration::from_secs(10);

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-failing scenario found.
    pub scenario: Scenario,
    /// The oracle failure the minimized scenario reproduces.
    pub failure: OracleFailure,
    /// Oracle-battery invocations spent.
    pub attempts: u64,
    /// Full ladder passes performed.
    pub rounds: u32,
}

/// Minimizes `initial` under `check`, which re-runs the oracle battery
/// and returns `Some(failure)` while the scenario still fails.
///
/// `initial` must currently fail (`seed_failure` is what it failed
/// with). At most `budget` check invocations are spent; whatever the
/// smallest accepted candidate is when the budget ends is returned.
pub fn shrink(
    initial: &Scenario,
    seed_failure: OracleFailure,
    budget: u64,
    check: &mut dyn FnMut(&Scenario) -> Option<OracleFailure>,
) -> ShrinkResult {
    let mut current = initial.clone();
    let mut failure = seed_failure;
    let mut attempts = 0u64;
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut progressed = false;
        for candidate in candidates(&current) {
            if attempts >= budget {
                return ShrinkResult {
                    scenario: current,
                    failure,
                    attempts,
                    rounds,
                };
            }
            if candidate.validate().is_err() {
                continue;
            }
            attempts += 1;
            if let Some(f) = check(&candidate) {
                current = candidate;
                failure = f;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return ShrinkResult {
                scenario: current,
                failure,
                attempts,
                rounds,
            };
        }
    }
}

/// The candidate ladder for one step, most-aggressive-first within each
/// rung: single-event drops, then structural halvings, then fault and
/// ambient simplifications.
fn candidates(scenario: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..scenario.events.len() {
        let mut c = scenario.clone();
        c.events.remove(i);
        out.push(c);
    }
    if scenario.duration > MIN_DURATION {
        let mut c = scenario.clone();
        let halved = SimDuration::from_millis(scenario.duration.as_millis() / 2);
        c.duration = halved.max(MIN_DURATION);
        // Events past the new horizon can never fire; drop them so the
        // repro reads minimal.
        c.events
            .retain(|(at, _)| at.as_millis() <= c.duration.as_millis());
        out.push(c);
    }
    if scenario.servers > 1 {
        let mut c = scenario.clone();
        c.servers = scenario.servers / 2;
        // Exhaustive on purpose: a new `Event` variant must decide
        // whether it survives a fleet cut.
        c.events.retain(|(_, event)| match event {
            Event::BootVm { server, .. }
            | Event::MigrateVm { dest: server, .. }
            | Event::SetFanSpeed { server, .. }
            | Event::FailFans { server, .. } => server.raw() < c.servers,
            Event::StopVm(_) | Event::SetAmbient(_) => true,
        });
        out.push(c);
    }
    if scenario.vms_per_server > 0 {
        let mut c = scenario.clone();
        c.vms_per_server = scenario.vms_per_server / 2;
        out.push(c);
    }
    let plan = &scenario.fault;
    for channel in 0..5 {
        let mut c = scenario.clone();
        let dropped = match channel {
            0 => {
                c.fault.dropout = None;
                plan.dropout.is_some()
            }
            1 => {
                c.fault.stuck = None;
                plan.stuck.is_some()
            }
            2 => {
                c.fault.spike = None;
                plan.spike.is_some()
            }
            3 => {
                c.fault.jitter = None;
                plan.jitter.is_some()
            }
            _ => {
                c.fault.lost_events = None;
                plan.lost_events.is_some()
            }
        };
        if dropped {
            out.push(c);
        }
    }
    if !matches!(scenario.ambient, AmbientModel::Fixed(_)) {
        let mut c = scenario.clone();
        c.ambient = AmbientModel::Fixed(24.0);
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SCHEDULED_VM_NAME;
    use crate::server::ServerId;
    use crate::time::SimTime;
    use crate::vm::{VmId, VmSpec};
    use crate::workload::TaskProfile;

    fn failure() -> OracleFailure {
        OracleFailure {
            oracle: "test",
            detail: "synthetic".to_string(),
        }
    }

    /// A predicate that keeps failing as long as a particular event
    /// survives — shrinking must isolate exactly that event.
    #[test]
    fn shrinks_to_the_triggering_event() {
        let mut scenario = Scenario::quiet("shrink-me", 1, 8, SimDuration::from_secs(600));
        scenario.vms_per_server = 4;
        for i in 0..10u64 {
            scenario.events.push((
                SimTime::from_secs(10 + i),
                if i == 0 {
                    Event::SetAmbient(AmbientModel::Fixed(35.0))
                } else {
                    Event::BootVm {
                        server: ServerId::new((i as usize) % 8),
                        spec: VmSpec::new(SCHEDULED_VM_NAME, 1, 2.0, TaskProfile::Idle),
                    }
                },
            ));
        }
        let mut checks = 0u64;
        let result = shrink(&scenario, failure(), 10_000, &mut |c| {
            checks += 1;
            c.events
                .iter()
                .any(|(_, e)| matches!(e, Event::SetAmbient(_)))
                .then(failure)
        });
        assert_eq!(result.scenario.events.len(), 1);
        assert!(matches!(result.scenario.events[0].1, Event::SetAmbient(_)));
        assert_eq!(result.scenario.servers, 1);
        assert_eq!(result.scenario.vms_per_server, 0);
        assert_eq!(result.scenario.duration, MIN_DURATION);
        assert_eq!(result.attempts, checks);
    }

    #[test]
    fn budget_bounds_check_invocations() {
        let scenario = {
            let mut s = Scenario::quiet("budgeted", 1, 4, SimDuration::from_secs(120));
            for i in 0..6u64 {
                s.events
                    .push((SimTime::from_secs(10 + i), Event::StopVm(VmId::new(i))));
            }
            s
        };
        let mut checks = 0u64;
        let result = shrink(&scenario, failure(), 3, &mut |_| {
            checks += 1;
            Some(failure())
        });
        assert!(checks <= 3);
        assert!(result.attempts <= 3);
    }

    #[test]
    fn shrink_is_deterministic() {
        let mut scenario = Scenario::quiet("det", 2, 4, SimDuration::from_secs(300));
        for i in 0..8u64 {
            scenario
                .events
                .push((SimTime::from_secs(20 + i * 5), Event::StopVm(VmId::new(i))));
        }
        scenario.vms_per_server = 2;
        let predicate = |c: &Scenario| (c.events.len() >= 2).then(failure);
        let a = shrink(&scenario, failure(), 1_000, &mut predicate.clone());
        let b = shrink(&scenario, failure(), 1_000, &mut predicate.clone());
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.attempts, b.attempts);
    }
}
