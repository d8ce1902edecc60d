//! Property-based tests of the simulator's physics invariants across
//! random parameters: energy direction, monotone responses, determinism.

use proptest::prelude::*;
use vmtherm_sim::experiment::ExperimentConfig;
use vmtherm_sim::fan::{FanBank, FanSpeed};
use vmtherm_sim::power::PowerModel;
use vmtherm_sim::server::ServerSpec;
use vmtherm_sim::thermal::{steady_state, ThermalNetwork, ThermalParams};
use vmtherm_sim::time::SimDuration;
use vmtherm_sim::vm::VmSpec;
use vmtherm_sim::workload::TaskProfile;
use vmtherm_units::{Celsius, Seconds, Utilization, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// More power never cools, more ambient never cools, more airflow
    /// never heats — at steady state, for any parameters.
    #[test]
    fn steady_state_monotonicity(
        p1 in 20.0..200.0f64,
        dp in 0.0..150.0f64,
        ambient in 15.0..35.0f64,
        da in 0.0..10.0f64,
        r in 0.06..0.5f64,
        dr in 0.0..0.3f64,
    ) {
        let params = ThermalParams::default();
        let base = steady_state(params, Watts::new(p1), Celsius::new(ambient), r).die_c;
        prop_assert!(steady_state(params, Watts::new(p1 + dp), Celsius::new(ambient), r).die_c >= base - 1e-9);
        prop_assert!(steady_state(params, Watts::new(p1), Celsius::new(ambient + da), r).die_c >= base - 1e-9);
        prop_assert!(steady_state(params, Watts::new(p1), Celsius::new(ambient), r + dr).die_c >= base - 1e-9);
    }

    /// The integrator is stable and converges to the closed-form steady
    /// state from any feasible start. (Die temperature alone need not
    /// contract monotonically — the 2-D state can swing while the slow
    /// sink catches up — but after many time constants both nodes must
    /// land on the analytic fixed point.)
    #[test]
    fn integrator_converges_to_steady_state(
        power in 0.0..300.0f64,
        ambient in 15.0..35.0f64,
        r in 0.06..0.4f64,
        start in 15.0..90.0f64,
    ) {
        let params = ThermalParams::default();
        let mut net = ThermalNetwork::new(params, Celsius::new(start));
        let target = steady_state(params, Watts::new(power), Celsius::new(ambient), r);
        for _ in 0..30 {
            net.step(Watts::new(power), Celsius::new(ambient), r, Seconds::new(300.0));
            prop_assert!(net.die_temperature().is_finite());
        }
        prop_assert!((net.die_temperature() - target.die_c).abs() < 0.05,
            "die {} vs steady {}", net.die_temperature(), target.die_c);
        prop_assert!((net.state().sink_c - target.sink_c).abs() < 0.05,
            "sink {} vs steady {}", net.state().sink_c, target.sink_c);
    }

    /// Fan airflow monotonicity: more fans or higher speed never raises
    /// the sink resistance.
    #[test]
    fn fan_resistance_monotone(count in 1u32..8, extra in 0u32..4) {
        let base = FanBank::new(count).sink_resistance();
        prop_assert!(FanBank::new(count + extra).sink_resistance() <= base + 1e-12);
        let slow = FanBank::new(count).with_speed(FanSpeed::Low).sink_resistance();
        let fast = FanBank::new(count).with_speed(FanSpeed::High).sink_resistance();
        prop_assert!(fast <= slow);
    }

    /// Power model bounds: output within [idle, max + memory term] for any
    /// utilization.
    #[test]
    fn power_model_bounded(
        cores in 4u32..64,
        ghz in 1.0..4.0f64,
        util in -0.5..1.5f64,
        mem in 0.0..256.0f64,
    ) {
        let m = PowerModel::for_capacity(cores, ghz);
        let p = m.total_power(Utilization::saturating(util), mem);
        prop_assert!(p >= m.idle_watts() - 1e-9);
        prop_assert!(p <= m.max_watts() + m.memory_power(mem) + 1e-9);
    }

    /// Experiments are deterministic functions of their seed: identical
    /// configs and seeds give identical ψ_stable; a different seed gives a
    /// different sensor series (noise differs) but a nearby ψ_stable.
    #[test]
    fn experiments_deterministic_in_seed(seed in 0u64..1000) {
        let server = ServerSpec::commodity("prop", 16, 2.4, 64.0, 4);
        let vms = vec![
            VmSpec::new("a", 2, 4.0, TaskProfile::CpuBound),
            VmSpec::new("b", 2, 4.0, TaskProfile::Mixed),
        ];
        let mk = |s: u64| {
            ExperimentConfig::new(server.clone(), vms.clone(), Celsius::new(24.0), s)
                .with_duration(SimDuration::from_secs(800))
                .with_t_break(SimDuration::from_secs(600))
                .run()
        };
        let a = mk(seed);
        let b = mk(seed);
        prop_assert_eq!(a.psi_stable, b.psi_stable);
        let c = mk(seed + 1);
        prop_assert!((a.psi_stable - c.psi_stable).abs() < 3.0,
            "seed change moved psi_stable too much: {} vs {}", a.psi_stable, c.psi_stable);
    }
}
