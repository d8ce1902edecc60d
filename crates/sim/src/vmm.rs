//! The VMM's vCPU scheduler and a per-core thermal model.
//!
//! The base [`crate::server::Server`] models the CPU package as one lumped
//! die. Real sensors report **per-core** temperatures, and placement of
//! vCPUs onto cores skews them: a package whose load is balanced runs its
//! hottest core cooler than one with the same total load pinned onto two
//! cores. This module adds both effects:
//!
//! - [`CoreScheduler`] — maps per-VM vCPU demand onto physical cores
//!   (balanced worst-fit, or pinned round-robin like static vCPU pinning);
//! - [`MultiCoreNetwork`] — an (N cores + shared heatsink) RC network whose
//!   reported temperature is the **hottest core**, which is what DTS-based
//!   monitoring exports.

use crate::thermal::{self, ThermalParams};
use serde::{Deserialize, Serialize};
use vmtherm_units::{Celsius, Seconds, Watts};

/// How the VMM spreads vCPU demand over physical cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Balance load: each demand chunk goes to the least-loaded core
    /// (work-conserving scheduler, the common default).
    #[default]
    Balanced,
    /// Static pinning: VM `k`'s vCPUs go to consecutive cores starting at
    /// `k mod cores` (models CPU-set pinning; concentrates heat).
    Pinned,
}

/// The vCPU→core mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreScheduler {
    cores: usize,
    policy: SchedulingPolicy,
}

impl CoreScheduler {
    /// A scheduler over `cores` physical cores.
    ///
    /// # Panics
    ///
    /// Panics on zero cores.
    #[must_use]
    pub fn new(cores: usize, policy: SchedulingPolicy) -> Self {
        assert!(cores > 0, "scheduler needs at least one core");
        CoreScheduler { cores, policy }
    }

    /// Number of physical cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Distributes per-VM demand (vCPU units, one entry per VM) onto
    /// cores; returns per-core utilization in `[0, 1]`. Demand beyond
    /// capacity saturates core-by-core (the scheduler cannot run more than
    /// one second of CPU per second per core).
    #[must_use]
    pub fn assign(&self, vm_demands: &[f64]) -> Vec<f64> {
        let mut cores = vec![0.0f64; self.cores];
        match self.policy {
            SchedulingPolicy::Balanced => {
                // Split each VM's demand into per-vCPU chunks of at most 1
                // and place each on the currently least-loaded core.
                for &demand in vm_demands {
                    let mut remaining = demand.max(0.0);
                    while remaining > 1e-12 {
                        let chunk = remaining.min(1.0);
                        // The least-loaded core; ties go to the lowest
                        // index, so equal loads fill cores in order.
                        let mut idx = 0;
                        for (i, load) in cores.iter().enumerate().skip(1) {
                            if load.total_cmp(&cores[idx]).is_lt() {
                                idx = i;
                            }
                        }
                        cores[idx] += chunk;
                        remaining -= chunk;
                    }
                }
            }
            SchedulingPolicy::Pinned => {
                for (k, &demand) in vm_demands.iter().enumerate() {
                    let mut remaining = demand.max(0.0);
                    let mut idx = k % self.cores;
                    while remaining > 1e-12 {
                        let chunk = remaining.min(1.0);
                        cores[idx] += chunk;
                        remaining -= chunk;
                        idx = (idx + 1) % self.cores;
                    }
                }
            }
        }
        for c in &mut cores {
            *c = c.min(1.0);
        }
        cores
    }
}

/// Per-core RC network: N core nodes conduct into one shared heatsink,
/// which convects to ambient through the fan-dependent resistance.
///
/// ```text
///   P_0 ─▶ [core_0] ─R_cs─┐
///   P_1 ─▶ [core_1] ─R_cs─┼─ [sink C_s] ─R_sa─ ambient
///   …                     │
///   P_n ─▶ [core_n] ─R_cs─┘
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCoreNetwork {
    /// Core temperatures (°C).
    core_c: Vec<f64>,
    /// Shared heatsink temperature (°C).
    sink_c: f64,
    /// Heat capacity of one core node (J/K).
    c_core: f64,
    /// Heat capacity of the shared sink (J/K).
    c_sink: f64,
    /// Core→sink conduction resistance per core (K/W).
    r_core_sink: f64,
}

impl MultiCoreNetwork {
    /// A network of `cores` cores in equilibrium with `ambient_c`,
    /// derived from the single-die [`ThermalParams`]: the die capacity is
    /// split across cores and the die→sink resistance scales so that a
    /// *uniformly loaded* package matches the lumped model's steady state.
    ///
    /// # Panics
    ///
    /// Panics on zero cores.
    #[must_use]
    pub fn from_lumped(params: ThermalParams, cores: usize, ambient_c: Celsius) -> Self {
        assert!(cores > 0, "need at least one core");
        MultiCoreNetwork {
            core_c: vec![ambient_c.get(); cores],
            sink_c: ambient_c.get(),
            c_core: params.c_die / cores as f64,
            c_sink: params.c_sink,
            // N parallel resistances of N·R_ds give an aggregate R_ds.
            r_core_sink: params.r_die_sink * cores as f64,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.core_c.len()
    }

    /// Per-core temperatures (°C).
    #[must_use]
    pub fn core_temperatures(&self) -> &[f64] {
        &self.core_c
    }

    /// The hottest core (°C) — what DTS-based monitoring reports.
    #[must_use]
    pub fn hottest_core(&self) -> f64 {
        self.core_c
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Advances the network by `dt_secs` given per-core power (W),
    /// ambient and the sink→ambient resistance.
    ///
    /// # Panics
    ///
    /// Panics if `core_power_w.len()` differs from the core count, or on
    /// non-positive `dt_secs`/`r_sink_amb`.
    pub fn step(
        &mut self,
        core_power_w: &[f64],
        ambient_c: Celsius,
        r_sink_amb: f64,
        dt_secs: Seconds,
    ) {
        assert_eq!(
            core_power_w.len(),
            self.cores(),
            "per-core power length mismatch"
        );
        let dt = dt_secs.get();
        assert!(dt > 0.0, "non-positive dt");
        assert!(r_sink_amb > 0.0, "non-positive sink resistance");
        let substeps = dt.ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        thermal::OBS_SUBSTEPS.add(substeps as u64);
        for _ in 0..substeps {
            self.rk4(core_power_w, ambient_c.get(), r_sink_amb, h);
        }
        debug_assert!(
            self.sink_c.is_finite() && self.core_c.iter().all(|t| t.is_finite()),
            "per-core integrator produced a non-finite temperature"
        );
    }

    /// Closed-form steady state for constant per-core power.
    #[must_use]
    pub fn steady_state(
        &self,
        core_power_w: &[f64],
        ambient_c: Celsius,
        r_sink_amb: f64,
    ) -> (Vec<f64>, f64) {
        let total: f64 = core_power_w.iter().sum();
        let sink = ambient_c.get() + total * r_sink_amb;
        let cores = core_power_w
            .iter()
            .map(|p| sink + p * self.r_core_sink)
            .collect();
        (cores, sink)
    }

    fn derivatives(
        &self,
        core_c: &[f64],
        sink_c: f64,
        power: &[f64],
        ambient: f64,
        r_sa: f64,
    ) -> (Vec<f64>, f64) {
        let mut dcore = Vec::with_capacity(core_c.len());
        let mut into_sink = 0.0;
        for (t, p) in core_c.iter().zip(power) {
            let q = (t - sink_c) / self.r_core_sink;
            into_sink += q;
            dcore.push((p - q) / self.c_core);
        }
        let q_out = (sink_c - ambient) / r_sa;
        (dcore, (into_sink - q_out) / self.c_sink)
    }

    fn rk4(&mut self, power: &[f64], ambient: f64, r_sa: f64, h: f64) {
        let n = self.cores();
        let eval = |core: &[f64], sink: f64| self.derivatives(core, sink, power, ambient, r_sa);
        let advance = |core: &[f64], sink: f64, d: &(Vec<f64>, f64), f: f64| {
            let mut c2: Vec<f64> = core.to_vec();
            for (c, dc) in c2.iter_mut().zip(&d.0) {
                *c += f * dc;
            }
            (c2, sink + f * d.1)
        };
        let s0 = (self.core_c.clone(), self.sink_c);
        let k1 = eval(&s0.0, s0.1);
        let s1 = advance(&s0.0, s0.1, &k1, 0.5 * h);
        let k2 = eval(&s1.0, s1.1);
        let s2 = advance(&s0.0, s0.1, &k2, 0.5 * h);
        let k3 = eval(&s2.0, s2.1);
        let s3 = advance(&s0.0, s0.1, &k3, h);
        let k4 = eval(&s3.0, s3.1);
        for i in 0..n {
            self.core_c[i] += h / 6.0 * (k1.0[i] + 2.0 * k2.0[i] + 2.0 * k3.0[i] + k4.0[i]);
        }
        self.sink_c += h / 6.0 * (k1.1 + 2.0 * k2.1 + 2.0 * k3.1 + k4.1);
    }
}

/// Splits package power over cores in proportion to their utilization
/// (idle power spreads uniformly, dynamic power follows load).
#[must_use]
pub fn split_power(total_power_w: Watts, idle_power_w: Watts, core_utils: &[f64]) -> Vec<f64> {
    let n = core_utils.len().max(1) as f64;
    let dynamic = (total_power_w.get() - idle_power_w.get()).max(0.0);
    let total_util: f64 = core_utils.iter().sum();
    core_utils
        .iter()
        .map(|u| {
            let share = if total_util > 0.0 {
                u / total_util
            } else {
                1.0 / n
            };
            idle_power_w.get() / n + dynamic * share
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amb(v: f64) -> Celsius {
        Celsius::new(v)
    }

    #[test]
    fn balanced_scheduler_spreads_load() {
        let sched = CoreScheduler::new(4, SchedulingPolicy::Balanced);
        let cores = sched.assign(&[2.0, 1.0, 1.0]);
        assert_eq!(cores, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn balanced_scheduler_minimises_peak() {
        let sched = CoreScheduler::new(4, SchedulingPolicy::Balanced);
        let cores = sched.assign(&[0.5, 0.5, 0.5]);
        let peak = cores.iter().copied().fold(0.0, f64::max);
        assert!(peak <= 0.5 + 1e-12, "peak {peak}");
    }

    #[test]
    fn pinned_scheduler_concentrates_load() {
        let sched = CoreScheduler::new(4, SchedulingPolicy::Pinned);
        // One VM demanding 1.5 vCPUs pinned from core 0.
        let cores = sched.assign(&[1.5]);
        assert_eq!(cores, vec![1.0, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn saturation_clamps_per_core() {
        let sched = CoreScheduler::new(2, SchedulingPolicy::Balanced);
        let cores = sched.assign(&[3.0, 3.0]);
        assert_eq!(cores, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = CoreScheduler::new(0, SchedulingPolicy::Balanced);
    }

    #[test]
    fn multicore_matches_lumped_for_uniform_load() {
        // A uniformly loaded multi-core package must reach the same
        // steady state as the lumped model it was derived from.
        let params = ThermalParams::default();
        let n = 8;
        let net = MultiCoreNetwork::from_lumped(params, n, amb(25.0));
        let total = 160.0;
        let per_core = vec![total / n as f64; n];
        let (cores, sink) = net.steady_state(&per_core, amb(25.0), 0.10);
        let lumped = crate::thermal::steady_state(params, Watts::new(total), amb(25.0), 0.10);
        assert!((sink - lumped.sink_c).abs() < 1e-9);
        for c in &cores {
            assert!(
                (c - lumped.die_c).abs() < 1e-9,
                "core {c} vs lumped {}",
                lumped.die_c
            );
        }
    }

    #[test]
    fn integrator_converges_to_steady_state() {
        let params = ThermalParams::default();
        let mut net = MultiCoreNetwork::from_lumped(params, 4, amb(25.0));
        let power = vec![50.0, 30.0, 10.0, 10.0];
        let (want_cores, want_sink) = net.steady_state(&power, amb(25.0), 0.10);
        for _ in 0..3000 {
            net.step(&power, amb(25.0), 0.10, Seconds::new(1.0));
        }
        assert!((net.sink_c - want_sink).abs() < 1e-3);
        for (have, want) in net.core_temperatures().iter().zip(&want_cores) {
            assert!((have - want).abs() < 1e-3, "{have} vs {want}");
        }
    }

    #[test]
    fn skewed_load_has_hotter_hottest_core() {
        // Same total power: pinned (skewed) vs balanced. The hottest core
        // must be hotter under skew — the effect this module adds.
        let params = ThermalParams::default();
        let net = MultiCoreNetwork::from_lumped(params, 4, amb(25.0));
        let balanced = vec![40.0; 4];
        let skewed = vec![100.0, 40.0, 10.0, 10.0];
        let (b, _) = net.steady_state(&balanced, amb(25.0), 0.10);
        let (s, _) = net.steady_state(&skewed, amb(25.0), 0.10);
        let b_max = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let s_max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(s_max > b_max + 3.0, "skewed {s_max} vs balanced {b_max}");
    }

    #[test]
    fn split_power_follows_utilization() {
        let split = split_power(Watts::new(100.0), Watts::new(40.0), &[1.0, 0.5, 0.5, 0.0]);
        // idle 10 each + dynamic 60 split 30/15/15/0.
        assert_eq!(split, vec![40.0, 25.0, 25.0, 10.0]);
        assert!((split.iter().sum::<f64>() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn split_power_idle_package_spreads_uniformly() {
        let split = split_power(Watts::new(40.0), Watts::new(40.0), &[0.0, 0.0]);
        assert_eq!(split, vec![20.0, 20.0]);
    }

    #[test]
    fn hottest_core_reported() {
        let params = ThermalParams::default();
        let mut net = MultiCoreNetwork::from_lumped(params, 2, amb(25.0));
        net.step(&[120.0, 10.0], amb(25.0), 0.10, Seconds::new(600.0));
        assert!(net.hottest_core() > net.core_temperatures()[1]);
        assert_eq!(net.hottest_core(), net.core_temperatures()[0]);
    }
}
