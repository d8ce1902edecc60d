//! Temperature sensor model.
//!
//! Real CPU temperature telemetry (IPMI / `coretemp`) is quantized — most
//! digital thermal sensors report whole degrees — and noisy. The paper's
//! training records come from such sensors, so the learner must absorb
//! this error; the MSE floor it reports (~0.7 in Fig. 1(c)) is largely
//! sensor error. [`TemperatureSensor`] reproduces both effects with a
//! seeded RNG for deterministic experiments.

use crate::error::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vmtherm_units::Celsius;

/// Sensor characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Standard deviation of zero-mean Gaussian read noise (°C).
    pub noise_sigma: f64,
    /// Reading granularity (°C); 1.0 mimics whole-degree DTS sensors,
    /// 0 disables quantization.
    pub quantization: f64,
}

impl SensorConfig {
    /// Validates and constructs a config.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] on negative (or NaN) noise or
    /// quantization.
    pub fn new(noise_sigma: f64, quantization: f64) -> Result<Self, SimError> {
        if !(noise_sigma >= 0.0) {
            return Err(SimError::invalid(
                "sensor.noise_sigma",
                format!("negative noise sigma: {noise_sigma}"),
            ));
        }
        if !(quantization >= 0.0) {
            return Err(SimError::invalid(
                "sensor.quantization",
                format!("negative quantization: {quantization}"),
            ));
        }
        Ok(SensorConfig {
            noise_sigma,
            quantization,
        })
    }
}

impl Default for SensorConfig {
    /// Whole-degree quantization with 0.4 °C read noise — typical of the
    /// on-die DTS plus IPMI path.
    fn default() -> Self {
        SensorConfig {
            noise_sigma: 0.4,
            quantization: 1.0,
        }
    }
}

/// A stateful sensor: owns its RNG so experiment replays are exact.
#[derive(Debug, Clone)]
pub struct TemperatureSensor {
    config: SensorConfig,
    rng: StdRng,
}

impl TemperatureSensor {
    /// Creates a sensor with its own RNG stream.
    #[must_use]
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        TemperatureSensor {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces one reading of `true_temp_c`.
    pub fn read(&mut self, true_temp_c: Celsius) -> f64 {
        let noisy = true_temp_c.get() + self.gaussian() * self.config.noise_sigma;
        if self.config.quantization > 0.0 {
            (noisy / self.config.quantization).round() * self.config.quantization
        } else {
            noisy
        }
    }

    /// Sensor configuration.
    #[must_use]
    pub fn config(&self) -> SensorConfig {
        self.config
    }

    /// Standard Box–Muller Gaussian sample.
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    #[test]
    fn ideal_sensor_is_exact() {
        let mut s = TemperatureSensor::new(SensorConfig::new(0.0, 0.0).expect("config"), 1);
        assert_eq!(s.read(c(53.21)), 53.21);
    }

    #[test]
    fn quantization_rounds_to_grid() {
        let mut s = TemperatureSensor::new(SensorConfig::new(0.0, 1.0).expect("config"), 1);
        assert_eq!(s.read(c(53.4)), 53.0);
        assert_eq!(s.read(c(53.6)), 54.0);
        let mut half = TemperatureSensor::new(SensorConfig::new(0.0, 0.5).expect("config"), 1);
        assert_eq!(half.read(c(53.3)), 53.5);
    }

    #[test]
    fn noise_is_zero_mean_and_has_requested_sigma() {
        let mut s = TemperatureSensor::new(SensorConfig::new(0.5, 0.0).expect("config"), 42);
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| s.read(c(50.0))).collect();
        let mean = readings.iter().sum::<f64>() / n as f64;
        let var = readings
            .iter()
            .map(|r| (r - mean) * (r - mean))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 50.0).abs() < 0.02, "mean = {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "sigma = {}", var.sqrt());
    }

    #[test]
    fn sensor_is_seed_deterministic() {
        let run = |seed| {
            let mut s = TemperatureSensor::new(SensorConfig::default(), seed);
            (0..20)
                .map(|i| s.read(c(40.0 + i as f64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn default_config_quantizes_to_whole_degrees() {
        let mut s = TemperatureSensor::new(SensorConfig::default(), 3);
        for _ in 0..50 {
            let r = s.read(c(47.3));
            assert_eq!(r, r.round());
        }
    }

    #[test]
    fn negative_sigma_rejected() {
        assert!(matches!(
            SensorConfig::new(-0.1, 0.0),
            Err(SimError::InvalidConfig { field, .. }) if field == "sensor.noise_sigma"
        ));
        assert!(SensorConfig::new(0.1, -1.0).is_err());
        assert!(SensorConfig::new(f64::NAN, 0.0).is_err());
    }
}
