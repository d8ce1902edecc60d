//! [`ShardedMonitor`], an inert name kept for the frozen vmbench
//! sources. The module's tests hold the fleet-scale pins of
//! [`FleetMonitor`].
//!
//! Every fleet tick steps and observes on the calling thread: a scoped
//! 2-thread section costs about 55 µs to spawn and join, while a server
//! costs about 0.55 µs per phase, so a second thread would only pay
//! above roughly 200 servers, and no fleet the repository runs is that
//! large (DESIGN.md §10).

use crate::dynamic::DynamicConfig;
use crate::error::PredictError;
use crate::monitor::FleetMonitor;
use crate::stable::StablePredictor;
use std::ops::Deref;
use vmtherm_sim::Simulation;
use vmtherm_units::{Celsius, Seconds};

/// A [`FleetMonitor`] under its former name; its shard and thread
/// counts have no effect. Kept only so the frozen vmbench sources build
/// until they are next changed (ROADMAP item 1); nothing in the
/// workspace uses it.
#[derive(Debug)]
pub struct ShardedMonitor(FleetMonitor);

impl ShardedMonitor {
    /// [`FleetMonitor::new`]; `_shards` and `_threads` have no effect.
    ///
    /// # Errors
    ///
    /// As [`FleetMonitor::new`].
    pub fn new(
        stable: &StablePredictor,
        config: DynamicConfig,
        servers: usize,
        gap_secs: Seconds,
        _shards: usize,
        _threads: usize,
    ) -> Result<Self, PredictError> {
        FleetMonitor::new(stable.clone(), config, servers, gap_secs).map(ShardedMonitor)
    }

    /// [`FleetMonitor::observe`].
    ///
    /// # Panics
    ///
    /// As [`FleetMonitor::observe`].
    pub fn observe(&mut self, sim: &Simulation, ambient_c: Celsius) {
        self.0.observe(sim, ambient_c);
    }
}

impl Deref for ShardedMonitor {
    type Target = FleetMonitor;

    fn deref(&self) -> &FleetMonitor {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ServerStats;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::fault::{DropoutFault, FaultPlan, JitterFault, SpikeFault};
    use vmtherm_sim::{
        AmbientModel, CaseGenerator, ClockMode, Datacenter, Event, ServerId, ServerSpec,
        SimDuration, SimTime, TaskProfile, VmId, VmSpec,
    };
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    fn stable_model() -> StablePredictor {
        let mut generator = CaseGenerator::new(42);
        let configs: Vec<_> = generator
            .random_cases(30, 1_000)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(900)))
            .collect();
        let outcomes = run_experiments(&configs);
        StablePredictor::fit(
            &outcomes,
            &TrainingOptions::new().with_params(
                SvrParams::new()
                    .with_c(128.0)
                    .with_epsilon(0.05)
                    .with_kernel(Kernel::rbf(0.02)),
            ),
        )
        .unwrap()
    }

    /// More than ten times the size of vmbench's 48-server fleets.
    const LARGE_FLEET: usize = 512;

    /// Steps a faulted `LARGE_FLEET`-server run with a monitor watching
    /// every tick, and returns every engine and monitor end-state bit.
    fn large_fleet_fingerprint(stable: &StablePredictor, clock: ClockMode) -> Vec<u64> {
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("n"),
            LARGE_FLEET,
            16,
            Celsius::new(24.0),
            3,
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
        sim.set_clock_mode(clock);
        sim.set_fault_plan(
            FaultPlan::new(21)
                .with_dropout(
                    DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).unwrap(),
                )
                .with_spike(SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).unwrap())
                .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
        )
        .unwrap();
        for i in 0..LARGE_FLEET {
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), 1 + (i % 4) as u32, 4.0, TaskProfile::Mixed),
            )
            .unwrap();
        }
        for i in (0..LARGE_FLEET).step_by(37) {
            sim.schedule(
                SimTime::from_secs(15),
                Event::BootVm {
                    server: ServerId::new(i),
                    spec: VmSpec::new(format!("b{i}"), 4, 8.0, TaskProfile::CpuBound),
                },
            );
        }
        let mut monitor = FleetMonitor::new(
            stable.clone(),
            DynamicConfig::new(),
            LARGE_FLEET,
            Seconds::new(10.0),
        )
        .unwrap();
        for _ in 0..40 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }

        let fleet_mse = monitor.fleet_mse();
        assert!(fleet_mse.is_finite(), "no forecast matured");
        let faults = sim.fault_stats();
        let mut bits = vec![
            sim.datacenter().room_heat_kw().to_bits(),
            fleet_mse.to_bits(),
            faults.dropped,
            faults.spiked,
            faults.jittered,
        ];
        for i in 0..LARGE_FLEET {
            let sid = ServerId::new(i);
            bits.push(
                sim.datacenter()
                    .server(sid)
                    .unwrap()
                    .die_temperature()
                    .to_bits(),
            );
            for (t, v) in sim.trace(sid).unwrap().sensor_c.iter() {
                bits.extend([t.to_bits(), v.to_bits()]);
            }
            for &(t, v) in sim.delivered(sid).unwrap() {
                bits.extend([t.to_bits(), v.to_bits()]);
            }
            let s = monitor.stats(sid);
            bits.extend([
                s.scored as u64,
                s.sum_sq_err.to_bits(),
                monitor.rolling_mse(sid).to_bits(),
                monitor.reanchor_count(sid),
            ]);
        }
        bits
    }

    /// FNV-1a over 64-bit words.
    fn fnv1a(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Absolute pins of [`large_fleet_fingerprint`] on the Fixed and
    /// Event clocks, captured on one thread. The 40 s warm-up keeps every
    /// server awake, so the two clocks reach the same bits.
    const LARGE_FLEET_DIGESTS: [(ClockMode, u64); 2] = [
        (ClockMode::Fixed, 0xec3c_838e_0708_1adb),
        (ClockMode::Event, 0xec3c_838e_0708_1adb),
    ];

    #[test]
    fn large_fleet_matches_its_pinned_digests() {
        let _guard = crate::monitor::tests::obs_test_lock();
        let stable = stable_model();
        for (clock, pinned) in LARGE_FLEET_DIGESTS {
            let digest = fnv1a(&large_fleet_fingerprint(&stable, clock));
            assert_eq!(digest, pinned, "{clock:?} clock digest {digest:#018x}");
        }
    }

    /// How a caller interleaves stepping and observing in
    /// [`caller_fingerprint`].
    #[derive(Debug, Clone, Copy)]
    enum Caller {
        /// One `observe` before the first step, then one after every
        /// step.
        EveryTick,
        /// One `observe` after every third step.
        EveryThirdTick,
        /// The first `observe` after 120 steps, then one every step.
        LateFirst,
        /// Every step observed, but every 97th tick runs through
        /// `run_until` one second ahead, whose final settle records
        /// catch-ups after the step.
        RunUntil,
        /// Every step observed, with clock switches (each settles the
        /// sleepers): one before a step, one between a step and its
        /// observe, and a `boot_vm_now` between a step and its observe.
        ClockSwitch,
    }

    const CALLERS: [Caller; 5] = [
        Caller::EveryTick,
        Caller::EveryThirdTick,
        Caller::LateFirst,
        Caller::RunUntil,
        Caller::ClockSwitch,
    ];

    /// Ticks each [`Caller`] drives.
    const CALLER_TICKS: u64 = 900;

    /// Eight servers, two hot and six idle, so the Event clock lets most
    /// of them sleep between reconfigurations; optionally faulted.
    fn mostly_idle_sim(faulted: bool, clock: ClockMode) -> Simulation {
        let servers = 8;
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("n"),
            servers,
            4,
            Celsius::new(24.0),
            5,
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_clock(clock);
        if faulted {
            sim.set_fault_plan(
                FaultPlan::new(31)
                    .with_dropout(
                        DropoutFault::random(0.01, Seconds::new(3.0), Seconds::new(40.0)).unwrap(),
                    )
                    .with_spike(
                        SpikeFault::random(0.03, Celsius::new(4.0), Celsius::new(15.0)).unwrap(),
                    )
                    .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
            )
            .unwrap();
        }
        for i in 0..servers {
            let (vcpus, task) = if i < 2 {
                (4, TaskProfile::CpuBound)
            } else {
                (1, TaskProfile::Idle)
            };
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), vcpus, 2.0, task),
            )
            .unwrap();
        }
        for (at, event) in [
            (
                300,
                Event::BootVm {
                    server: ServerId::new(3),
                    spec: VmSpec::new("late", 1, 2.0, TaskProfile::Idle),
                },
            ),
            (
                450,
                Event::SetFanSpeed {
                    server: ServerId::new(4),
                    speed: vmtherm_sim::fan::FanSpeed::High,
                },
            ),
            (600, Event::StopVm(VmId::new(2))),
            (
                700,
                Event::MigrateVm {
                    vm: VmId::new(5),
                    dest: ServerId::new(6),
                },
            ),
        ] {
            sim.schedule(SimTime::from_secs(at), event);
        }
        sim
    }

    /// Drives [`mostly_idle_sim`] for [`CALLER_TICKS`] in the `caller`
    /// pattern with a monitor observing, ends with `run_until` and one
    /// more observe, and returns the monitor's end-state digest: per
    /// server its stats, rolling MSE, re-anchors, last anchor,
    /// degradation counters, holdover flag and pending forecasts, then
    /// the fleet MSE and the fleet error roll-up.
    fn caller_fingerprint(faulted: bool, clock: ClockMode, caller: Caller) -> u64 {
        let stable = stable_model();
        let servers = 8;
        let gap = Seconds::new(30.0);
        let mut sim = mostly_idle_sim(faulted, clock);
        let mut monitor = FleetMonitor::new(stable, DynamicConfig::new(), servers, gap).unwrap();
        let ambient = Celsius::new(24.0);
        let mut observe = |sim: &Simulation| monitor.observe(sim, ambient);
        let other = |mode: ClockMode| match mode {
            ClockMode::Fixed => ClockMode::Event,
            _ => ClockMode::Fixed,
        };
        if matches!(caller, Caller::EveryTick) {
            observe(&sim);
        }
        for tick in 0..CALLER_TICKS {
            if matches!(caller, Caller::ClockSwitch) && tick == 300 {
                sim.set_clock_mode(other(sim.clock_mode()));
            }
            if matches!(caller, Caller::RunUntil) && tick % 97 == 96 {
                sim.run_until(sim.now() + SimDuration::from_secs(1));
            } else {
                sim.step();
            }
            if matches!(caller, Caller::ClockSwitch) {
                if tick == 500 {
                    sim.set_clock_mode(other(sim.clock_mode()));
                }
                if tick == 650 {
                    sim.boot_vm_now(
                        ServerId::new(7),
                        VmSpec::new("between", 1, 2.0, TaskProfile::Idle),
                    )
                    .unwrap();
                }
            }
            let due = match caller {
                Caller::EveryThirdTick => tick % 3 == 2,
                Caller::LateFirst => tick >= 119,
                _ => true,
            };
            if due {
                observe(&sim);
            }
        }
        sim.run_until(sim.now());
        observe(&sim);
        if clock == ClockMode::Event {
            let steps = sim.step_stats();
            assert!(
                steps.skip_factor() > 1.5,
                "too few servers slept: {steps:?}"
            );
        }

        let digest = |m: &FleetMonitor| {
            let mut bits = Vec::new();
            for i in 0..servers {
                let sid = ServerId::new(i);
                let s = m.stats(sid);
                let d = m.degradation(sid);
                bits.extend([
                    s.scored as u64,
                    s.sum_sq_err.to_bits(),
                    m.rolling_mse(sid).to_bits(),
                    m.reanchor_count(sid),
                    m.last_anchor_secs(sid).to_bits(),
                    d.ooo_absorbed,
                    d.spikes_rejected,
                    d.stuck_suspected,
                    d.holdover_entries,
                    d.recovery_reanchors,
                    d.forecasts_expired,
                    u64::from(m.in_holdover(sid)),
                ]);
                for &(target, forecast) in &m.record(sid).unwrap().pending {
                    bits.extend([target.to_bits(), forecast.to_bits()]);
                }
            }
            let err = m.fleet_pred_err();
            bits.extend([
                m.fleet_mse().to_bits(),
                err.count(),
                err.sum().to_bits(),
                err.min().to_bits(),
                err.max().to_bits(),
            ]);
            for (q, v) in err.quantiles() {
                bits.extend([q.to_bits(), v.to_bits()]);
            }
            fnv1a(&bits)
        };
        digest(&monitor)
    }

    /// Absolute monitor digests of every caller pattern, as
    /// `(faulted, starting clock, digests in CALLERS order)`.
    const CALLER_DIGESTS: [(bool, ClockMode, [u64; 5]); 4] = [
        (
            false,
            ClockMode::Fixed,
            [
                0x5a86_f603_dea2_7065,
                0xdc39_66e3_81a8_c13a,
                0x117b_1681_4d91_fc33,
                0xd863_a312_540b_ad5c,
                0xfd27_a95e_ec43_a371,
            ],
        ),
        (
            false,
            ClockMode::Event,
            [
                0x365e_5b8c_01fe_1965,
                0x5017_8bc0_921d_9909,
                0x2d8d_e51a_28d5_133c,
                0x6630_c0f7_38d5_22c3,
                0xb206_7429_3d67_2973,
            ],
        ),
        (
            true,
            ClockMode::Fixed,
            [
                0x2b4a_a533_eaf5_ccc9,
                0xfcf0_2af6_1080_e718,
                0x9ae8_59ce_649c_28a4,
                0xe858_c7de_8696_f37f,
                0xf65d_194d_c266_fdf7,
            ],
        ),
        (
            true,
            ClockMode::Event,
            [
                0x00df_a347_9366_6414,
                0x899e_c008_ed83_75f3,
                0xd69a_394e_d597_f3f0,
                0x9192_0a4f_fe6b_e9f2,
                0x594c_f749_abfa_c366,
            ],
        ),
    ];

    #[test]
    fn every_caller_pattern_matches_its_pinned_monitor_digest() {
        let _guard = crate::monitor::tests::obs_test_lock();
        let (mut moved, mut table) = (Vec::new(), String::new());
        for (faulted, clock, pinned) in CALLER_DIGESTS {
            let mut got = [0; 5];
            for ((caller, want), got) in CALLERS.iter().zip(pinned).zip(&mut got) {
                *got = caller_fingerprint(faulted, clock, *caller);
                if *got != want {
                    moved.push(format!("{caller:?} faulted={faulted} {clock:?}"));
                }
            }
            table += &format!("({faulted}, ClockMode::{clock:?}, {got:#018x?}),\n");
        }
        assert!(moved.is_empty(), "moved: {moved:?}; digests now:\n{table}");
    }

    #[test]
    fn accessors_are_safe_for_unknown_servers() {
        let stable = stable_model();
        let monitor =
            FleetMonitor::new(stable, DynamicConfig::new(), 2, Seconds::new(40.0)).unwrap();
        let ghost = ServerId::new(99);
        assert_eq!(monitor.stats(ghost), ServerStats::default());
        assert!(monitor.rolling_mse(ghost).is_nan());
        assert_eq!(monitor.reanchor_count(ghost), 0);
        assert_eq!(monitor.latest_forecast(ghost), None);
        assert!(!monitor.in_holdover(ghost));
        assert!(monitor.record(ghost).is_none());
    }
}
