//! Server power draw as a function of resource utilization.
//!
//! CPU power follows the widely used affine-plus-exponent model
//! `P(u) = P_idle + (P_max − P_idle) · u^α` (α ≈ 1 is near-linear; Fan et
//! al., ISCA'07 report α in 1.0–1.4 for real servers). Memory adds a small
//! activity-proportional term. The thermal network consumes the total as
//! its heat input.

use serde::{Deserialize, Serialize};
use vmtherm_units::{Utilization, Watts};

/// CPU + memory power model for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Power at zero utilization (W).
    idle_watts: f64,
    /// Power at full utilization (W).
    max_watts: f64,
    /// Utilization exponent α (1.0 = linear).
    exponent: f64,
    /// Additional power per GB of actively used memory (W/GB).
    memory_watts_per_gb: f64,
}

impl PowerModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `max_watts < idle_watts` or `exponent <= 0`.
    #[must_use]
    pub fn new(idle_watts: Watts, max_watts: Watts, exponent: f64, memory_w_per_gb: f64) -> Self {
        assert!(max_watts >= idle_watts, "max power below idle power");
        assert!(exponent > 0.0, "exponent must be positive");
        assert!(memory_w_per_gb >= 0.0, "memory power must be non-negative");
        PowerModel {
            idle_watts: idle_watts.get(),
            max_watts: max_watts.get(),
            exponent,
            memory_watts_per_gb: memory_w_per_gb,
        }
    }

    /// A model scaled for a server of `cores` cores at `ghz` each:
    /// idle ≈ 3.5 W/core + 20 W platform, max ≈ 10.5 W/core·GHz-normalised.
    /// Matches commodity 2U servers of the paper's era (dual-socket Xeon,
    /// 80–250 W span).
    #[must_use]
    pub fn for_capacity(cores: u32, ghz: f64) -> Self {
        let idle = 20.0 + 3.5 * cores as f64;
        let max = idle + 10.5 * cores as f64 * (ghz / 2.4);
        PowerModel::new(Watts::new(idle), Watts::new(max), 1.15, 0.35)
    }

    /// CPU power at aggregate utilization `u`.
    #[must_use]
    pub fn cpu_power(&self, utilization: Utilization) -> f64 {
        let u = utilization.as_fraction();
        self.idle_watts + (self.max_watts - self.idle_watts) * u.powf(self.exponent)
    }

    /// Memory power for `active_gb` gigabytes of hot memory.
    #[must_use]
    pub fn memory_power(&self, active_gb: f64) -> f64 {
        self.memory_watts_per_gb * active_gb.max(0.0)
    }

    /// Total heat input to the thermal network.
    #[must_use]
    pub fn total_power(&self, utilization: Utilization, active_memory_gb: f64) -> f64 {
        self.cpu_power(utilization) + self.memory_power(active_memory_gb)
    }

    /// Idle power (W).
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Full-load CPU power (W).
    #[must_use]
    pub fn max_watts(&self) -> f64 {
        self.max_watts
    }
}

impl Default for PowerModel {
    /// A 16-core 2.4 GHz commodity server.
    fn default() -> Self {
        PowerModel::for_capacity(16, 2.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: f64) -> Utilization {
        Utilization::saturating(v)
    }

    #[test]
    fn power_is_idle_at_zero_and_max_at_one() {
        let m = PowerModel::new(Watts::new(50.0), Watts::new(200.0), 1.2, 0.0);
        assert_eq!(m.cpu_power(Utilization::ZERO), 50.0);
        assert!((m.cpu_power(u(1.0)) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let m = PowerModel::default();
        let mut prev = m.cpu_power(Utilization::ZERO);
        for i in 1..=20 {
            let p = m.cpu_power(u(i as f64 / 20.0));
            assert!(p >= prev, "not monotone at {i}");
            prev = p;
        }
    }

    #[test]
    fn out_of_range_utilization_clamps() {
        let m = PowerModel::default();
        assert_eq!(m.cpu_power(u(-0.5)), m.cpu_power(Utilization::ZERO));
        assert_eq!(m.cpu_power(u(1.5)), m.cpu_power(u(1.0)));
    }

    #[test]
    fn memory_power_scales_linearly() {
        let m = PowerModel::new(Watts::new(10.0), Watts::new(20.0), 1.0, 0.5);
        assert_eq!(m.memory_power(8.0), 4.0);
        assert_eq!(m.memory_power(-1.0), 0.0);
    }

    #[test]
    fn total_combines_components() {
        let m = PowerModel::new(Watts::new(10.0), Watts::new(110.0), 1.0, 1.0);
        assert!((m.total_power(u(0.5), 4.0) - (10.0 + 50.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn capacity_scaling_is_monotone_in_cores_and_clock() {
        let small = PowerModel::for_capacity(8, 2.0);
        let big = PowerModel::for_capacity(32, 2.0);
        assert!(big.max_watts() > small.max_watts());
        let fast = PowerModel::for_capacity(8, 3.2);
        assert!(fast.max_watts() > small.max_watts());
    }

    #[test]
    #[should_panic(expected = "max power below idle")]
    fn invalid_span_panics() {
        let _ = PowerModel::new(Watts::new(100.0), Watts::new(50.0), 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn invalid_exponent_panics() {
        let _ = PowerModel::new(Watts::new(10.0), Watts::new(50.0), 0.0, 0.0);
    }
}
