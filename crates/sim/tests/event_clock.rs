//! Fixed vs Event clock on a mostly idle 48-server fleet, two hours long,
//! through every kind of mid-run transient.
//!
//! 46 servers host one constant-demand idle VM and 2 host CPU-bound
//! random-walk VMs that never sleep. Mid-run come a late boot, a
//! fan-speed change, a fan failure, a VM stop and a live migration. Under
//! `ClockMode::Event` the steady servers sleep up to 16 s and integrate
//! the interval in one step-size-exact call at wake-up, so:
//!
//! - the physical end state must be bit-identical to the dense
//!   `ClockMode::Fixed` run (exact by construction, not by tolerance);
//! - event mode must perform at least [`SKIP_BAR`]× fewer server-steps;
//! - fixed mode must skip nothing (factor exactly 1.0).
//!
//! vmbench's `fleet-idle-event` workload steps this same scenario.

use vmtherm_sim::fan::FanSpeed;
use vmtherm_sim::scenario::oracle::physical_fingerprint;
use vmtherm_sim::{
    AmbientModel, ClockMode, Datacenter, Event, ServerId, ServerSpec, SimTime, Simulation,
    TaskProfile, VmId, VmSpec,
};
use vmtherm_units::Celsius;

/// Fleet size.
const SERVERS: usize = 48;
/// Scenario length in 1 Hz ticks: long enough that the steady-state tail
/// dominates the dense warm-up transient.
const STEPS: u64 = 7200;
/// Event mode must do at least this many times fewer server-steps than
/// dense stepping on this fleet.
const SKIP_BAR: f64 = 5.0;
/// `physical_fingerprint` of the end state, captured when the scenario
/// moved here from its timing binary. That binary's own fold of the same
/// state is vmbench's `fleet-idle-event.physical` golden, and its skip
/// factor read 7.46.
const PINNED_PHYSICAL: u64 = 0x9694_6a20_4d76_3b2d;

/// The mostly idle fleet with mid-run transients. VM ids are the boot
/// order: VM `s` lands on server `s`.
fn scenario(mode: ClockMode) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(24.0),
        5,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_clock(mode);
    for s in 0..SERVERS {
        let (name, vcpus, task) = if s < 2 {
            ("hot", 4, TaskProfile::CpuBound)
        } else {
            ("idle", 1, TaskProfile::Idle)
        };
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("{name}-{s}"), vcpus, 2.0, task),
        )
        .expect("scenario VM placement");
    }
    // Each transient must settle the affected sleepers to exact dense
    // state before mutating them.
    let events = [
        (
            1800,
            Event::BootVm {
                server: ServerId::new(5),
                spec: VmSpec::new("late", 1, 2.0, TaskProfile::Idle),
            },
        ),
        (
            2400,
            Event::SetFanSpeed {
                server: ServerId::new(6),
                speed: FanSpeed::High,
            },
        ),
        (
            3000,
            Event::FailFans {
                server: ServerId::new(7),
                count: 1,
            },
        ),
        (3600, Event::StopVm(VmId::new(10))),
        (
            4200,
            Event::MigrateVm {
                vm: VmId::new(11),
                dest: ServerId::new(12),
            },
        ),
    ];
    for (at, event) in events {
        sim.schedule(SimTime::from_secs(at), event);
    }
    sim
}

fn run(mode: ClockMode) -> Simulation {
    let mut sim = scenario(mode);
    sim.run_until(SimTime::from_secs(STEPS));
    sim
}

#[test]
fn event_clock_reaches_the_fixed_end_state_with_fewer_server_steps() {
    let fixed = run(ClockMode::Fixed);
    let event = run(ClockMode::Event);

    let fixed_fp = physical_fingerprint(&fixed);
    let event_fp = physical_fingerprint(&event);
    assert_eq!(
        event_fp, fixed_fp,
        "physical end states differ: fixed {fixed_fp:016x} vs event {event_fp:016x}"
    );
    assert_eq!(
        fixed_fp, PINNED_PHYSICAL,
        "end state {fixed_fp:016x} moved off the pinned digest"
    );

    let stats = event.step_stats();
    let skip = stats.skip_factor();
    assert!(
        skip >= SKIP_BAR,
        "skip factor {skip:.2}x below the {SKIP_BAR}x bar ({} of {} dense server-steps)",
        stats.server_steps,
        stats.dense_server_steps
    );
    let fixed_skip = fixed.step_stats().skip_factor();
    assert!(
        (fixed_skip - 1.0).abs() <= f64::EPSILON,
        "fixed mode skipped work: factor {fixed_skip:.4}"
    );
}
