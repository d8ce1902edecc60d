//! Server fans: airflow and its effect on the heatsink-to-ambient thermal
//! resistance.
//!
//! The paper's θ_fan input is the server's fan status; Fig. 1(c) is
//! evaluated "with 4 server fans". Here a [`FanBank`] of `count` fans at a
//! speed level produces airflow; [`FanBank::sink_resistance`] converts that
//! into the convective resistance the thermal network sees — more airflow,
//! lower resistance, cooler stable temperature.

use serde::{Deserialize, Serialize};

/// Discrete fan speed levels, as exposed by typical BMC firmware.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum FanSpeed {
    /// ~30% duty cycle.
    Low,
    /// ~60% duty cycle (default).
    #[default]
    Medium,
    /// 100% duty cycle.
    High,
}

impl FanSpeed {
    /// Airflow of one fan at this speed, in CFM (cubic feet per minute).
    /// Values typical of 80 mm server fans.
    #[must_use]
    pub fn cfm_per_fan(&self) -> f64 {
        match self {
            FanSpeed::Low => 18.0,
            FanSpeed::Medium => 36.0,
            FanSpeed::High => 60.0,
        }
    }
}

impl std::fmt::Display for FanSpeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FanSpeed::Low => "low",
            FanSpeed::Medium => "medium",
            FanSpeed::High => "high",
        };
        f.write_str(s)
    }
}

/// A bank of identical fans cooling one server's heatsink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FanBank {
    count: u32,
    speed: FanSpeed,
    /// Fans that have failed (no airflow, no power). Fault injection for
    /// the anomaly-detection extension.
    #[serde(default)]
    failed: u32,
}

impl FanBank {
    /// A bank of `count` fans at medium speed.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero — a server without fans would have an
    /// unbounded stable temperature in this model.
    #[must_use]
    pub fn new(count: u32) -> Self {
        assert!(count > 0, "fan bank needs at least one fan");
        FanBank {
            count,
            speed: FanSpeed::default(),
            failed: 0,
        }
    }

    /// Sets the common speed level of every fan in the bank.
    #[must_use]
    pub fn with_speed(mut self, speed: FanSpeed) -> Self {
        self.speed = speed;
        self
    }

    /// Number of fans.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Current speed level.
    #[must_use]
    pub fn speed(&self) -> FanSpeed {
        self.speed
    }

    /// Sets the speed level in place.
    pub fn set_speed(&mut self, speed: FanSpeed) {
        self.speed = speed;
    }

    /// Marks `n` additional fans as failed (saturating at the bank size).
    /// Failed fans produce no airflow and draw no power — the fault the
    /// anomaly-detection extension must catch from temperature alone.
    pub fn fail(&mut self, n: u32) {
        self.failed = (self.failed + n).min(self.count);
    }

    /// Number of fans currently spinning.
    #[must_use]
    pub fn operational(&self) -> u32 {
        self.count - self.failed
    }

    /// Number of failed fans.
    #[must_use]
    pub fn failed(&self) -> u32 {
        self.failed
    }

    /// Total airflow in CFM (failed fans contribute nothing).
    #[must_use]
    pub fn airflow_cfm(&self) -> f64 {
        self.operational() as f64 * self.speed.cfm_per_fan()
    }

    /// Heatsink→ambient thermal resistance (K/W) produced by this airflow.
    ///
    /// Standard forced-convection fit: `R = R_min + R_span / (1 + k·CFM)`.
    /// At 4 fans on medium (144 CFM) this gives ≈ 0.10 K/W; a 150 W load
    /// then sits ≈ 15 K above ambient at the sink, plus the die gradient —
    /// in line with the 40–75 °C CPU temperatures datacenter servers report.
    #[must_use]
    pub fn sink_resistance(&self) -> f64 {
        const R_MIN: f64 = 0.06; // K/W, infinite-airflow asymptote
        const R_SPAN: f64 = 0.55; // K/W, natural-convection extra
        const K: f64 = 0.085; // 1/CFM
        R_MIN + R_SPAN / (1.0 + K * self.airflow_cfm())
    }

    /// Electrical power drawn by the fans themselves (W); included in the
    /// heat budget of the machine room, not the CPU die.
    #[must_use]
    pub fn fan_power(&self) -> f64 {
        let per_fan = match self.speed {
            FanSpeed::Low => 1.5,
            FanSpeed::Medium => 4.0,
            FanSpeed::High => 9.5,
        };
        self.operational() as f64 * per_fan
    }
}

impl Default for FanBank {
    /// Four fans at medium speed — the Fig. 1(c) configuration.
    fn default() -> Self {
        FanBank::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airflow_scales_with_count_and_speed() {
        let two = FanBank::new(2);
        let four = FanBank::new(4);
        assert_eq!(four.airflow_cfm(), 2.0 * two.airflow_cfm());
        let fast = FanBank::new(2).with_speed(FanSpeed::High);
        assert!(fast.airflow_cfm() > two.airflow_cfm());
    }

    #[test]
    fn more_fans_mean_lower_resistance() {
        let mut prev = f64::INFINITY;
        for n in 1..=8 {
            let r = FanBank::new(n).sink_resistance();
            assert!(r < prev, "resistance not decreasing at {n} fans");
            assert!(r > 0.0);
            prev = r;
        }
    }

    #[test]
    fn resistance_has_physical_floor() {
        let r = FanBank::new(100)
            .with_speed(FanSpeed::High)
            .sink_resistance();
        assert!(r >= 0.06);
    }

    #[test]
    fn four_fan_medium_resistance_in_expected_band() {
        let r = FanBank::default().sink_resistance();
        assert!((0.08..0.15).contains(&r), "r = {r}");
    }

    #[test]
    #[should_panic(expected = "at least one fan")]
    fn zero_fans_panics() {
        let _ = FanBank::new(0);
    }

    #[test]
    fn fan_power_grows_with_speed() {
        let mut prev = 0.0;
        for s in [FanSpeed::Low, FanSpeed::Medium, FanSpeed::High] {
            let p = FanBank::new(4).with_speed(s).fan_power();
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn failed_fans_cut_airflow_and_raise_resistance() {
        let healthy = FanBank::new(4);
        let mut degraded = FanBank::new(4);
        degraded.fail(2);
        assert_eq!(degraded.operational(), 2);
        assert_eq!(degraded.airflow_cfm(), healthy.airflow_cfm() / 2.0);
        assert!(degraded.sink_resistance() > healthy.sink_resistance());
        assert!(degraded.fan_power() < healthy.fan_power());
        degraded.fail(10); // saturates
        assert_eq!(degraded.operational(), 0);
        assert_eq!(degraded.failed(), 4);
    }
}
