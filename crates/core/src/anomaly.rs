//! Thermal anomaly detection — an extension built on the paper's
//! predictors.
//!
//! Once ψ_stable is predictable from configuration, a *persistent*
//! disagreement between prediction and measurement indicates a physical
//! fault rather than workload: a failed fan, blocked airflow, a CRAC
//! excursion the room sensors missed. [`ResidualDetector`] is a two-sided
//! CUSUM over prediction residuals: it raises an alarm when the
//! cumulative drift exceeds a threshold, robust to sensor noise (which is
//! zero-mean) while catching small sustained shifts quickly.
//! [`ThermalWatchdog`] binds it to a trained stable model.

use crate::error::PredictError;
use crate::stable::StablePredictor;
use serde::{Deserialize, Serialize};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_units::Celsius;

/// Which way the temperature deviates from prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Running hotter than the model predicts (failed fan, blocked inlet).
    RunningHot,
    /// Running colder than predicted (over-reported load, sensor fault).
    RunningCold,
}

/// A raised alarm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Deviation direction.
    pub kind: AnomalyKind,
    /// The CUSUM statistic at alarm time (°C·samples above drift).
    pub score: f64,
    /// Samples consumed since the last reset.
    pub samples: u64,
}

/// Two-sided CUSUM change detector over prediction residuals
/// `r = measured − predicted`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResidualDetector {
    threshold: f64,
    drift: f64,
    cusum_hot: f64,
    cusum_cold: f64,
    samples: u64,
}

impl ResidualDetector {
    /// Creates a detector.
    ///
    /// `drift` is the per-sample slack (set it above the typical noise
    /// magnitude, e.g. 0.5 °C for whole-degree sensors); `threshold` is
    /// the accumulated excess that raises an alarm (e.g. 10 °C·samples:
    /// a 2.5 °C sustained shift with 0.5 drift alarms in five samples).
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidConfig`] on a non-positive threshold or
    /// negative drift.
    pub fn new(threshold: f64, drift: f64) -> Result<Self, PredictError> {
        if !(threshold > 0.0) {
            return Err(PredictError::invalid(
                "threshold",
                format!("threshold must be positive, got {threshold}"),
            ));
        }
        if !(drift >= 0.0) {
            return Err(PredictError::invalid(
                "drift",
                format!("drift must be non-negative, got {drift}"),
            ));
        }
        Ok(ResidualDetector {
            threshold,
            drift,
            cusum_hot: 0.0,
            cusum_cold: 0.0,
            samples: 0,
        })
    }

    /// Defaults matched to the simulator's default sensor (1 °C
    /// quantization, 0.4 °C noise).
    #[must_use]
    pub fn standard() -> Self {
        ResidualDetector {
            threshold: 10.0,
            drift: 0.6,
            cusum_hot: 0.0,
            cusum_cold: 0.0,
            samples: 0,
        }
    }

    /// Feeds one residual; returns an alarm if either CUSUM crosses the
    /// threshold (the detector keeps accumulating after an alarm; call
    /// [`ResidualDetector::reset`] after handling it).
    pub fn observe(&mut self, residual: f64) -> Option<Alarm> {
        self.samples += 1;
        self.cusum_hot = (self.cusum_hot + residual - self.drift).max(0.0);
        self.cusum_cold = (self.cusum_cold - residual - self.drift).max(0.0);
        if self.cusum_hot > self.threshold {
            Some(Alarm {
                kind: AnomalyKind::RunningHot,
                score: self.cusum_hot,
                samples: self.samples,
            })
        } else if self.cusum_cold > self.threshold {
            Some(Alarm {
                kind: AnomalyKind::RunningCold,
                score: self.cusum_cold,
                samples: self.samples,
            })
        } else {
            None
        }
    }

    /// Clears the accumulated statistics.
    pub fn reset(&mut self) {
        self.cusum_hot = 0.0;
        self.cusum_cold = 0.0;
        self.samples = 0;
    }

    /// Current hot-side statistic.
    #[must_use]
    pub fn hot_score(&self) -> f64 {
        self.cusum_hot
    }
}

impl Default for ResidualDetector {
    fn default() -> Self {
        Self::standard()
    }
}

/// Residual-based detector bound to a stable model: feed (snapshot,
/// measured stable temperature) pairs.
#[derive(Debug, Clone)]
pub struct ThermalWatchdog {
    model: StablePredictor,
    detector: ResidualDetector,
}

impl ThermalWatchdog {
    /// Wraps a trained stable model with a CUSUM detector.
    #[must_use]
    pub fn new(model: StablePredictor, detector: ResidualDetector) -> Self {
        ThermalWatchdog { model, detector }
    }

    /// Feeds one settled observation of a server.
    pub fn observe(
        &mut self,
        snapshot: &ConfigSnapshot,
        measured_stable_c: Celsius,
    ) -> Option<Alarm> {
        let predicted = self.model.predict(snapshot);
        self.detector.observe(measured_stable_c.get() - predicted)
    }

    /// Clears detector state (after an alarm was handled or the fleet
    /// reconfigured).
    pub fn reset(&mut self) {
        self.detector.reset();
    }

    /// The wrapped detector.
    #[must_use]
    pub fn detector(&self) -> &ResidualDetector {
        &self.detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::experiment::ExperimentOutcome;
    use vmtherm_sim::{CaseGenerator, SimDuration};
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    fn healthy_outcomes(n: usize) -> Vec<ExperimentOutcome> {
        let mut generator = CaseGenerator::new(42);
        let configs: Vec<_> = generator
            .random_cases(n, 1_000)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(1000)))
            .collect();
        run_experiments(&configs)
    }

    fn stable_model(outcomes: &[ExperimentOutcome]) -> StablePredictor {
        StablePredictor::fit(
            outcomes,
            &TrainingOptions::new().with_params(
                SvrParams::new()
                    .with_c(128.0)
                    .with_epsilon(0.05)
                    .with_kernel(Kernel::rbf(0.02)),
            ),
        )
        .unwrap()
    }

    #[test]
    fn cusum_quiet_on_zero_mean_noise() {
        let mut d = ResidualDetector::new(10.0, 0.6).expect("detector");
        // Deterministic ±0.5 alternating noise.
        for i in 0..2000 {
            let r = if i % 2 == 0 { 0.5 } else { -0.5 };
            assert!(d.observe(r).is_none(), "false alarm at {i}");
        }
    }

    #[test]
    fn cusum_catches_sustained_shift_quickly() {
        let mut d = ResidualDetector::new(10.0, 0.6).expect("detector");
        let mut alarm = None;
        for i in 0..100 {
            if let Some(a) = d.observe(2.5) {
                alarm = Some((i, a));
                break;
            }
        }
        let (when, alarm) = alarm.expect("no alarm");
        assert!(when < 10, "took {when} samples");
        assert_eq!(alarm.kind, AnomalyKind::RunningHot);
    }

    #[test]
    fn cusum_detects_cold_side_too() {
        let mut d = ResidualDetector::new(5.0, 0.3).expect("detector");
        let mut saw = None;
        for _ in 0..50 {
            if let Some(a) = d.observe(-1.5) {
                saw = Some(a);
                break;
            }
        }
        assert_eq!(saw.expect("alarm").kind, AnomalyKind::RunningCold);
    }

    #[test]
    fn cusum_reset_clears() {
        let mut d = ResidualDetector::new(5.0, 0.0).expect("detector");
        let _ = d.observe(4.0);
        assert!(d.hot_score() > 0.0);
        d.reset();
        assert_eq!(d.hot_score(), 0.0);
        assert_eq!(d.cusum_cold, 0.0);
    }

    #[test]
    fn bad_detector_params_rejected() {
        assert!(matches!(
            ResidualDetector::new(0.0, 0.5),
            Err(PredictError::InvalidConfig { .. })
        ));
        assert!(ResidualDetector::new(10.0, -0.5).is_err());
        assert!(ResidualDetector::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn watchdog_fires_on_fan_failure_style_offset() {
        let outcomes = healthy_outcomes(80);
        let model = stable_model(&outcomes);
        let mut watchdog =
            ThermalWatchdog::new(model, ResidualDetector::new(8.0, 0.8).expect("detector"));
        // Healthy observations: no alarm.
        for o in outcomes.iter().take(20) {
            assert!(
                watchdog
                    .observe(&o.snapshot, Celsius::new(o.psi_stable))
                    .is_none(),
                "false alarm on healthy record"
            );
        }
        watchdog.reset();
        // A fan failure makes the same configuration run ~6 °C hotter
        // than its record says.
        let victim = &outcomes[0];
        let mut alarm = None;
        for _ in 0..20 {
            if let Some(a) =
                watchdog.observe(&victim.snapshot, Celsius::new(victim.psi_stable + 6.0))
            {
                alarm = Some(a);
                break;
            }
        }
        assert_eq!(
            alarm.expect("watchdog must fire").kind,
            AnomalyKind::RunningHot
        );
    }
}
