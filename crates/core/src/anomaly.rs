//! Thermal anomaly detection — an extension built on the paper's
//! predictors.
//!
//! Once ψ_stable is predictable from configuration, a *persistent*
//! disagreement between prediction and measurement indicates a physical
//! fault rather than workload: a failed fan, blocked airflow, a CRAC
//! excursion the room sensors missed. Two complementary detectors:
//!
//! - [`ResidualDetector`] — a two-sided CUSUM over prediction residuals;
//!   raises an alarm when the cumulative drift exceeds a threshold.
//!   Robust to sensor noise (which is zero-mean) while catching small
//!   sustained shifts quickly.
//! - [`NoveltyDetector`] — a one-class SVM over the *joint* vector
//!   (Eq. (2) features ‖ observed stable temperature), trained on healthy
//!   records only; flags configurations whose thermal response does not
//!   match anything seen in healthy operation.

use crate::error::PredictError;
use crate::stable::StablePredictor;
use serde::{Deserialize, Serialize};
use vmtherm_sim::experiment::{ConfigSnapshot, ExperimentOutcome};
use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::oneclass::{OneClassModel, OneClassParams};
use vmtherm_svm::scale::Scaler;
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

/// One-class novelty detector in the 2-D space of
/// `(predicted ψ_stable, observed ψ_stable)`.
///
/// Healthy operation traces out the diagonal band of that plane (the
/// prediction error of the stable model); a physical fault pushes the
/// observation off the band in a way no healthy record ever did. Working
/// in this 2-D projection — rather than the raw 14-D feature space — keeps
/// the density estimation tractable with a few hundred records.
#[derive(Debug, Clone)]
pub struct NoveltyDetector {
    predictor: StablePredictor,
    scaler: Scaler,
    model: OneClassModel,
}

impl NoveltyDetector {
    /// Trains on healthy experiment records against a trained stable
    /// model. `nu` bounds the fraction of healthy records treated as
    /// boundary outliers (0.05–0.15 typical).
    ///
    /// Prefer records the stable model did **not** train on; residuals on
    /// its own training data understate healthy error and tighten the
    /// band optimistically.
    ///
    /// # Errors
    ///
    /// [`PredictError::NoTrainingData`] for no records; SVM errors
    /// otherwise.
    pub fn fit(
        predictor: StablePredictor,
        outcomes: &[ExperimentOutcome],
        nu: f64,
    ) -> Result<Self, PredictError> {
        if outcomes.is_empty() {
            return Err(PredictError::NoTrainingData);
        }
        let mut raw = Dataset::new(2);
        for o in outcomes {
            raw.push(vec![predictor.predict(&o.snapshot), o.psi_stable], 0.0);
        }
        let scaler = Scaler::fit(&raw);
        let scaled = scaler.transform_dataset(&raw);
        let model = OneClassModel::train(
            &scaled,
            OneClassParams::new()
                .with_nu(nu)
                .with_kernel(Kernel::rbf(8.0)),
        )?;
        Ok(NoveltyDetector {
            predictor,
            scaler,
            model,
        })
    }

    /// `true` when the observed stable temperature is inconsistent with
    /// healthy behaviour for such a configuration.
    #[must_use]
    pub fn is_anomalous(&self, snapshot: &ConfigSnapshot, observed_stable_c: Celsius) -> bool {
        self.score(snapshot, observed_stable_c) < 0.0
    }

    /// The signed decision value (negative = anomalous), for thresholding
    /// and ranking.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the detector builds, scales and scores fixed two-column rows"
    )]
    pub fn score(&self, snapshot: &ConfigSnapshot, observed_stable_c: Celsius) -> f64 {
        let x = vec![self.predictor.predict(snapshot), observed_stable_c.get()];
        self.model
            .decision_value(&self.scaler.transform(&x))
            .expect("detector dims agree by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::{CaseGenerator, SimDuration};
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

    #[test]
    fn novelty_detector_separates_healthy_from_faulty() {
        let outcomes = healthy_outcomes(80);
        let model = stable_model(&outcomes);
        let detector = NoveltyDetector::fit(model, &outcomes, 0.1).unwrap();
        // Healthy joint vectors are mostly inliers.
        let healthy_flags = outcomes
            .iter()
            .filter(|o| detector.is_anomalous(&o.snapshot, Celsius::new(o.psi_stable)))
            .count();
        assert!(
            (healthy_flags as f64) < 0.25 * outcomes.len() as f64,
            "{healthy_flags} healthy records flagged"
        );
        // A +8 °C shifted response is flagged for most configurations.
        let faulty_flags = outcomes
            .iter()
            .filter(|o| detector.is_anomalous(&o.snapshot, Celsius::new(o.psi_stable + 8.0)))
            .count();
        assert!(
            (faulty_flags as f64) > 0.7 * outcomes.len() as f64,
            "only {faulty_flags} faulty records flagged"
        );
        // Scores order correctly.
        let o = &outcomes[3];
        assert!(
            detector.score(&o.snapshot, Celsius::new(o.psi_stable))
                > detector.score(&o.snapshot, Celsius::new(o.psi_stable + 8.0))
        );
    }

    #[test]
    fn novelty_detector_rejects_empty() {
        let outcomes = healthy_outcomes(10);
        let model = stable_model(&outcomes);
        assert!(matches!(
            NoveltyDetector::fit(model, &[], 0.1),
            Err(PredictError::NoTrainingData)
        ));
    }
}
