//! Prediction intervals for ψ_stable — split-conformal calibration.
//!
//! The paper reports point predictions; a thermal-management controller
//! acting on them (placement, migration triggers) additionally needs to
//! know *how wrong* a prediction might be. Split conformal prediction
//! gives distribution-free intervals: hold out a calibration set, record
//! the absolute residuals `|ψ_measured − ψ_predicted|`, and for coverage
//! `1 − α` report `prediction ± q`, where `q` is the
//! `⌈(n+1)(1−α)⌉`-th smallest calibration residual. Under exchangeability
//! the interval covers the truth with probability ≥ 1 − α.

use crate::error::PredictError;
use crate::stable::StablePredictor;
use serde::{Deserialize, Serialize};
use vmtherm_sim::experiment::{ConfigSnapshot, ExperimentOutcome};

/// A two-sided prediction interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Point prediction (°C).
    pub predicted: f64,
    /// Lower bound (°C).
    pub lower: f64,
    /// Upper bound (°C).
    pub upper: f64,
}

impl Interval {
    /// Whether a measured value falls inside the interval.
    #[must_use]
    pub fn covers(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Interval width (°C).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// A stable predictor wrapped with conformal calibration residuals.
#[derive(Debug, Clone)]
pub struct IntervalPredictor {
    predictor: StablePredictor,
    /// Sorted absolute calibration residuals.
    residuals: Vec<f64>,
}

impl IntervalPredictor {
    /// Calibrates on held-out outcomes (records the model did **not**
    /// train on — otherwise intervals are optimistically narrow).
    ///
    /// # Errors
    ///
    /// [`PredictError::NoTrainingData`] for an empty calibration set.
    pub fn calibrate(
        predictor: StablePredictor,
        calibration: &[ExperimentOutcome],
    ) -> Result<Self, PredictError> {
        if calibration.is_empty() {
            return Err(PredictError::NoTrainingData);
        }
        let mut residuals: Vec<f64> = calibration
            .iter()
            .map(|o| (o.psi_stable - predictor.predict(&o.snapshot)).abs())
            .collect();
        residuals.sort_by(f64::total_cmp);
        Ok(IntervalPredictor {
            predictor,
            residuals,
        })
    }

    /// The conformal quantile for coverage `1 − alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    #[must_use]
    pub fn quantile(&self, alpha: f64) -> f64 {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let n = self.residuals.len();
        // ⌈(n+1)(1−α)⌉-th smallest, clamped to the largest residual: with
        // small calibration sets the exact rank can exceed n, in which
        // case finite-sample validity needs an infinite bound — we report
        // the max residual instead and callers should calibrate on more
        // data for tight alphas.
        let rank = (((n + 1) as f64) * (1.0 - alpha)).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        self.residuals[idx]
    }

    /// The `1 − alpha` prediction interval for a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    #[must_use]
    pub fn predict_interval(&self, snapshot: &ConfigSnapshot, alpha: f64) -> Interval {
        let predicted = self.predictor.predict(snapshot);
        let q = self.quantile(alpha);
        Interval {
            predicted,
            lower: predicted - q,
            upper: predicted + q,
        }
    }

    /// The wrapped point predictor.
    #[must_use]
    pub fn predictor(&self) -> &StablePredictor {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::{CaseGenerator, SimDuration};
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    fn campaign(n: usize, gen_seed: u64) -> Vec<ExperimentOutcome> {
        let mut generator = CaseGenerator::new(gen_seed);
        let configs: Vec<_> = generator
            .random_cases(n, gen_seed * 131)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(1000)))
            .collect();
        run_experiments(&configs)
    }

    fn fitted() -> IntervalPredictor {
        let train = campaign(80, 42);
        let calib = campaign(40, 7);
        let model = StablePredictor::fit(
            &train,
            &TrainingOptions::new().with_params(
                SvrParams::new()
                    .with_c(128.0)
                    .with_epsilon(0.05)
                    .with_kernel(Kernel::rbf(0.02)),
            ),
        )
        .unwrap();
        IntervalPredictor::calibrate(model, &calib).unwrap()
    }

    #[test]
    fn intervals_cover_held_out_cases_at_nominal_rate() {
        let ip = fitted();
        let test = campaign(30, 99);
        let alpha = 0.1;
        let covered = test
            .iter()
            .filter(|o| ip.predict_interval(&o.snapshot, alpha).covers(o.psi_stable))
            .count();
        // 90% nominal; allow slack for 30 samples (binomial noise).
        assert!(covered >= 24, "only {covered}/30 covered at nominal 90%");
    }

    #[test]
    fn smaller_alpha_gives_wider_intervals() {
        let ip = fitted();
        let snap = &campaign(1, 5)[0].snapshot;
        let tight = ip.predict_interval(snap, 0.5);
        let wide = ip.predict_interval(snap, 0.05);
        assert!(wide.width() >= tight.width());
        assert!(wide.covers(wide.predicted));
    }

    #[test]
    fn quantile_is_monotone_in_coverage() {
        let ip = fitted();
        let mut prev = 0.0;
        for alpha in [0.5, 0.3, 0.2, 0.1, 0.05] {
            let q = ip.quantile(alpha);
            assert!(q >= prev, "quantile not monotone at alpha={alpha}");
            prev = q;
        }
    }

    #[test]
    fn interval_geometry() {
        let i = Interval {
            predicted: 50.0,
            lower: 48.0,
            upper: 53.0,
        };
        assert!(i.covers(48.0) && i.covers(53.0) && i.covers(50.0));
        assert!(!i.covers(47.9) && !i.covers(53.1));
        assert_eq!(i.width(), 5.0);
    }

    #[test]
    fn empty_calibration_is_an_error() {
        let train = campaign(10, 1);
        let model = StablePredictor::fit(
            &train,
            &TrainingOptions::new().with_params(SvrParams::new()),
        )
        .unwrap();
        assert!(matches!(
            IntervalPredictor::calibrate(model, &[]),
            Err(PredictError::NoTrainingData)
        ));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let ip = fitted();
        let _ = ip.quantile(0.0);
    }
}
