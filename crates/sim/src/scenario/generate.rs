//! Seeded scenario sampling for `vmtherm fuzz`.
//!
//! Every case is a pure function of `(seed, index)`: the same pair
//! always yields the same [`Scenario`], so a failing case prints as a
//! reproduction command before it is even shrunk. Cases are drawn from
//! named families mirroring the experiment taxonomy (steady fleets,
//! diurnal and scheduled ambient ramps, CRAC failure windows, flash
//! crowds, batch waves, migration churn, cooling trouble), with fault
//! channels layered on independently.

use super::{Scenario, SCHEDULED_VM_NAME};
use crate::engine::Event;
use crate::environment::AmbientModel;
use crate::fan::FanSpeed;
use crate::fault::{DropoutFault, FaultPlan, JitterFault, LostEventFault, SpikeFault, StuckFault};
use crate::server::ServerId;
use crate::time::{SimDuration, SimTime};
use crate::vm::{VmId, VmSpec};
use crate::workload::{TaskProfile, ALL_TASK_PROFILES};
use rand::{Rng, SeedableRng};

/// Scenario family labels, in sampling order (used for reports).
pub const FAMILIES: [&str; 7] = [
    "steady",
    "diurnal",
    "crac-failure",
    "flash-crowd",
    "batch",
    "migration-churn",
    "cooling-trouble",
];

/// Deterministically samples case `index` of campaign `seed`.
#[must_use]
pub fn scenario(seed: u64, index: u64) -> Scenario {
    // Mix the index in with a splitmix-style odd constant so adjacent
    // cases land in unrelated RNG streams.
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
    );
    let family = rng.gen_range(0usize..FAMILIES.len());
    let servers = rng.gen_range(2usize..=6);
    let vms_per_server = rng.gen_range(0u32..=4);
    let duration_secs = rng.gen_range(600u64..=1500);
    let mut scenario = Scenario {
        name: format!("fuzz-{seed}-{index}-{}", FAMILIES[family]),
        seed: rng.gen_range(0u64..=u64::MAX / 2),
        servers,
        vms_per_server,
        duration: SimDuration::from_secs(duration_secs),
        ambient: AmbientModel::Fixed(rng.gen_range(18.0..28.0)),
        fault: FaultPlan::none(),
        events: Vec::new(),
    };
    match family {
        1 => {
            scenario.ambient = AmbientModel::Diurnal {
                mean: rng.gen_range(20.0..26.0),
                amplitude: rng.gen_range(1.0..5.0),
                period_secs: rng.gen_range(120.0..600.0),
            };
        }
        2 => crac_failure(&mut rng, &mut scenario, duration_secs),
        3 => flash_crowd(&mut rng, &mut scenario, duration_secs),
        4 => batch_wave(&mut rng, &mut scenario, duration_secs),
        5 => migration_churn(&mut rng, &mut scenario, duration_secs),
        6 => cooling_trouble(&mut rng, &mut scenario, duration_secs),
        _ => {}
    }
    // Occasionally ramp the room through a step schedule regardless of
    // family — schedules exercise the global-clock ambient path.
    if rng.gen_range(0u32..10) == 0 {
        let step_at = rng.gen_range(60..duration_secs / 2);
        scenario.ambient = AmbientModel::step_change(
            vmtherm_units::Celsius::new(rng.gen_range(20.0..24.0)),
            vmtherm_units::Celsius::new(rng.gen_range(26.0..32.0)),
            SimTime::from_secs(step_at),
        );
    }
    sample_faults(&mut rng, &mut scenario);
    churn(&mut rng, &mut scenario, duration_secs);
    scenario.events.sort_by_key(|(at, _)| *at);
    scenario
}

/// CRAC outage: swap to a hot fixed room mid-run, restore later. The
/// restore is omitted sometimes so thermal runaway reaches the horizon.
fn crac_failure(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    scenario.ambient = AmbientModel::Crac {
        setpoint: rng.gen_range(19.0..23.0),
        degrees_per_kw: rng.gen_range(0.5..2.0),
    };
    let fail_at = rng.gen_range(60..duration_secs / 2);
    scenario.events.push((
        SimTime::from_secs(fail_at),
        Event::SetAmbient(AmbientModel::Fixed(rng.gen_range(30.0..40.0))),
    ));
    if rng.gen_range(0u32..4) != 0 {
        let recover_at = rng.gen_range(fail_at + 30..duration_secs);
        scenario.events.push((
            SimTime::from_secs(recover_at),
            Event::SetAmbient(AmbientModel::Fixed(rng.gen_range(20.0..24.0))),
        ));
    }
}

/// Flash crowd: a burst of small web-server VMs lands within seconds.
fn flash_crowd(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    let start = rng.gen_range(60..duration_secs / 2);
    let burst = rng.gen_range(3u64..=8);
    for i in 0..burst {
        scenario.events.push((
            SimTime::from_secs(start + i * rng.gen_range(1u64..=3)),
            boot(
                rng.gen_range(0..scenario.servers),
                1,
                2.0,
                TaskProfile::WebServer,
            ),
        ));
    }
}

/// Batch wave: bursty workers boot together and stop before the end.
fn batch_wave(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    let start = rng.gen_range(60..duration_secs / 3);
    let stop = rng.gen_range(duration_secs / 2..duration_secs);
    let workers = rng.gen_range(2u64..=5);
    let first_id = scenario.initial_vms();
    for i in 0..workers {
        scenario.events.push((
            SimTime::from_secs(start),
            boot((i as usize) % scenario.servers, 2, 4.0, TaskProfile::Bursty),
        ));
        scenario.events.push((
            SimTime::from_secs(stop),
            Event::StopVm(VmId::new(first_id + i)),
        ));
    }
}

/// Migration churn: existing VMs hop between hosts.
fn migration_churn(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    scenario.vms_per_server = scenario.vms_per_server.max(1);
    let moves = rng.gen_range(2u64..=6);
    for _ in 0..moves {
        scenario.events.push((
            SimTime::from_secs(rng.gen_range(60..duration_secs)),
            Event::MigrateVm {
                vm: VmId::new(rng.gen_range(0..scenario.initial_vms())),
                dest: ServerId::new(rng.gen_range(0..scenario.servers)),
            },
        ));
    }
}

/// Cooling trouble: fan failures and manual speed overrides.
fn cooling_trouble(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    let victims = rng.gen_range(1usize..=scenario.servers.min(3));
    for _ in 0..victims {
        scenario.events.push((
            SimTime::from_secs(rng.gen_range(60..duration_secs)),
            Event::FailFans {
                server: ServerId::new(rng.gen_range(0..scenario.servers)),
                count: rng.gen_range(1u32..=2),
            },
        ));
    }
    if rng.gen_range(0u32..2) == 0 {
        let speed = [FanSpeed::Low, FanSpeed::Medium, FanSpeed::High][rng.gen_range(0usize..3)];
        scenario.events.push((
            SimTime::from_secs(rng.gen_range(60..duration_secs)),
            Event::SetFanSpeed {
                server: ServerId::new(rng.gen_range(0..scenario.servers)),
                speed,
            },
        ));
    }
}

/// Layers independent telemetry fault channels onto roughly half of all
/// cases (the clean half keeps the clean-path oracle honest).
fn sample_faults(rng: &mut impl Rng, scenario: &mut Scenario) {
    if rng.gen_range(0u32..2) == 0 {
        return;
    }
    let mut plan = FaultPlan::new(rng.gen_range(0u64..=u64::MAX / 2));
    if rng.gen_range(0u32..3) == 0 {
        if let Ok(d) = DropoutFault::random(
            rng.gen_range(0.005..0.05),
            vmtherm_units::Seconds::new(2.0),
            vmtherm_units::Seconds::new(rng.gen_range(4.0..15.0)),
        ) {
            plan = plan.with_dropout(d);
        }
    }
    if rng.gen_range(0u32..3) == 0 {
        if let Ok(s) = StuckFault::random(
            rng.gen_range(0.005..0.03),
            vmtherm_units::Seconds::new(2.0),
            vmtherm_units::Seconds::new(rng.gen_range(4.0..12.0)),
        ) {
            plan = plan.with_stuck(s);
        }
    }
    if rng.gen_range(0u32..3) == 0 {
        if let Ok(s) = SpikeFault::random(
            rng.gen_range(0.005..0.05),
            vmtherm_units::Celsius::new(2.0),
            vmtherm_units::Celsius::new(rng.gen_range(4.0..10.0)),
        ) {
            plan = plan.with_spike(s);
        }
    }
    if rng.gen_range(0u32..3) == 0 {
        if let Ok(j) = JitterFault::random(
            rng.gen_range(0.01..0.2),
            vmtherm_units::Seconds::new(rng.gen_range(0.1..1.5)),
        ) {
            plan = plan.with_jitter(j);
        }
    }
    if rng.gen_range(0u32..4) == 0 {
        if let Ok(l) = LostEventFault::random(rng.gen_range(0.01..0.2)) {
            plan = plan.with_lost_events(l);
        }
    }
    scenario.fault = plan;
}

/// Background churn every family gets: occasional boots, stops and fan
/// tweaks so quiet scenarios still cross wake/sleep boundaries.
fn churn(rng: &mut impl Rng, scenario: &mut Scenario, duration_secs: u64) {
    let extra = rng.gen_range(0u32..=3);
    for _ in 0..extra {
        let at = SimTime::from_secs(rng.gen_range(60..duration_secs));
        let event = match rng.gen_range(0u32..4) {
            0 => boot(
                rng.gen_range(0..scenario.servers),
                rng.gen_range(1u32..=2),
                2.0,
                ALL_TASK_PROFILES[rng.gen_range(0..ALL_TASK_PROFILES.len())],
            ),
            1 if scenario.initial_vms() > 0 => {
                Event::StopVm(VmId::new(rng.gen_range(0..scenario.initial_vms())))
            }
            2 if scenario.initial_vms() > 0 => Event::MigrateVm {
                vm: VmId::new(rng.gen_range(0..scenario.initial_vms())),
                dest: ServerId::new(rng.gen_range(0..scenario.servers)),
            },
            _ => Event::SetAmbient(AmbientModel::Fixed(rng.gen_range(20.0..30.0))),
        };
        scenario.events.push((at, event));
    }
}

/// A scheduled boot of a [`SCHEDULED_VM_NAME`] VM on host `server`.
fn boot(server: usize, vcpus: u32, memory_gb: f64, task: TaskProfile) -> Event {
    Event::BootVm {
        server: ServerId::new(server),
        spec: VmSpec::new(SCHEDULED_VM_NAME, vcpus, memory_gb, task),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..32 {
            assert_eq!(scenario(42, index), scenario(42, index));
        }
        assert_ne!(scenario(42, 0), scenario(43, 0));
    }

    /// FNV-1a over the bytes of every case's corpus JSON, cases 0–63 at
    /// each of three campaign seeds, in order.
    fn corpus_digest() -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in [1, 61474, 0xF00D] {
            for index in 0..64 {
                for b in scenario(seed, index).to_json_string().bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// A change to the RNG draw order, a family's event shape or the
    /// codec moves this digest; same-build determinism cannot see that.
    #[test]
    fn generated_corpus_matches_its_pinned_digest() {
        assert_eq!(corpus_digest(), 0x214b_af2f_87e3_3f22);
    }

    #[test]
    fn generated_cases_validate() {
        for index in 0..64 {
            let s = scenario(7, index);
            s.validate()
                .unwrap_or_else(|e| panic!("generated scenario {} failed validation: {e}", s.name));
        }
    }

    #[test]
    fn families_are_all_reachable() {
        let mut seen = [false; FAMILIES.len()];
        for index in 0..256 {
            let s = scenario(11, index);
            for (i, family) in FAMILIES.iter().enumerate() {
                if s.name.ends_with(family) {
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&f| f), "unreached families: {seen:?}");
    }
}
