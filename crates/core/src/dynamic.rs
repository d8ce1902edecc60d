//! Dynamic CPU temperature prediction — the paper's second contribution:
//! the pre-defined curve ψ*(t) (Eq. 3) plus run-time calibration γ
//! (Eqs. 4–8), re-anchored whenever the configuration changes.
//!
//! "Cloud computing characteristics result in input features such as
//! server and VM configuration changing at run time" — so the predictor
//! exposes [`DynamicPredictor::anchor`]: at every reconfiguration it asks
//! the stable model for a fresh ψ_stable, starts a new curve from the
//! current measured temperature, and resets γ per Eq. (4).

use crate::calibration::Calibrator;
use crate::curve::WarmupCurve;
use crate::error::PredictError;
use crate::predictor::OnlinePredictor;
use crate::stable::StablePredictor;
use serde::{Deserialize, Serialize};
use vmtherm_obs::{self as obs, names, ObsEvent};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_units::constants::{paper_t_break, PAPER_DELTA_UPDATE_SECS, PAPER_LAMBDA};
use vmtherm_units::{Celsius, Seconds};

static OBS_GAMMA_UPDATES: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_GAMMA_UPDATES);

/// Tunables of the dynamic predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Calibration learning rate λ (paper: 0.8).
    pub lambda: f64,
    /// Calibration update interval Δ_update in seconds (paper example: 15).
    pub update_interval_secs: f64,
    /// Curve shape parameter δ.
    pub delta: f64,
    /// Disables calibration entirely (the "without calibration" arm of
    /// Fig. 1(b)).
    pub calibrate: bool,
}

impl DynamicConfig {
    /// Paper defaults.
    #[must_use]
    pub fn new() -> Self {
        DynamicConfig {
            lambda: PAPER_LAMBDA,
            update_interval_secs: PAPER_DELTA_UPDATE_SECS,
            delta: WarmupCurve::DEFAULT_DELTA,
            calibrate: true,
        }
    }

    /// Overrides λ.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Overrides Δ_update.
    #[must_use]
    pub fn with_update_interval(mut self, interval: Seconds) -> Self {
        self.update_interval_secs = interval.get();
        self
    }

    /// Turns calibration off (pre-defined curve only).
    #[must_use]
    pub fn without_calibration(mut self) -> Self {
        self.calibrate = false;
        self
    }

    fn validate(&self) -> Result<(), PredictError> {
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(PredictError::invalid(
                "lambda",
                format!("must be in [0,1], got {}", self.lambda),
            ));
        }
        if !(self.update_interval_secs > 0.0) {
            return Err(PredictError::invalid(
                "update_interval_secs",
                format!("must be > 0, got {}", self.update_interval_secs),
            ));
        }
        if !(self.delta > 0.0) {
            return Err(PredictError::invalid(
                "delta",
                format!("must be > 0, got {}", self.delta),
            ));
        }
        Ok(())
    }
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The calibrated dynamic temperature predictor.
#[derive(Debug, Clone)]
pub struct DynamicPredictor {
    config: DynamicConfig,
    calibrator: Calibrator,
    /// Anchor time (s) and the curve measured from it.
    anchor: Option<(f64, WarmupCurve)>,
    name: String,
}

impl DynamicPredictor {
    /// Creates an un-anchored predictor.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidConfig`] for out-of-domain tunables.
    pub fn new(config: DynamicConfig) -> Result<Self, PredictError> {
        config.validate()?;
        let name = if config.calibrate {
            "dynamic-calibrated"
        } else {
            "dynamic-uncalibrated"
        };
        Ok(DynamicPredictor {
            config,
            calibrator: Calibrator::new(config.lambda, Seconds::new(config.update_interval_secs))?,
            anchor: None,
            name: name.to_string(),
        })
    }

    /// Anchors a new curve at `t_secs`: the system sat at `phi0` (current
    /// measurement) and is predicted to stabilise at `psi_stable` by the
    /// paper's t_break. γ resets to 0 (Eq. 4).
    pub fn anchor(&mut self, t_secs: Seconds, phi0: Celsius, psi_stable: Celsius) {
        let curve = WarmupCurve::new(phi0, psi_stable, paper_t_break(), self.config.delta);
        self.anchor = Some((t_secs.get(), curve));
        self.calibrator.reset();
    }

    /// Convenience: anchor using the stable model's prediction for the
    /// (changed) configuration.
    pub fn anchor_with_model(
        &mut self,
        t_secs: Seconds,
        phi0: Celsius,
        model: &StablePredictor,
        snapshot: &ConfigSnapshot,
    ) {
        self.anchor(t_secs, phi0, Celsius::new(model.predict(snapshot)));
    }

    /// ψ*(t) — the uncalibrated curve value at absolute time `t_secs`.
    ///
    /// # Errors
    ///
    /// [`PredictError::NotReady`] before the first anchor.
    pub fn curve_value(&self, t_secs: Seconds) -> Result<f64, PredictError> {
        let (t0, curve) = self
            .anchor
            .as_ref()
            .ok_or(PredictError::NotReady("no anchor"))?;
        Ok(curve.value(Seconds::new(t_secs.get() - t0)))
    }

    /// Current γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.calibrator.gamma()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> DynamicConfig {
        self.config
    }
}

impl OnlinePredictor for DynamicPredictor {
    fn observe(&mut self, t_secs: Seconds, measured_c: Celsius) {
        // The curve costs an `ln` inside t_break, and γ takes only one
        // offer per Δ_update, so an offer that is not due skips it.
        if !self.config.calibrate || !self.calibrator.is_due(t_secs) {
            return;
        }
        let Ok(curve_value) = self.curve_value(t_secs) else {
            return;
        };
        if self
            .calibrator
            .observe(t_secs, measured_c, Celsius::new(curve_value))
        {
            OBS_GAMMA_UPDATES.inc();
            obs::emit_with(|| ObsEvent::GammaUpdate {
                t_secs: t_secs.get(),
                gamma: self.calibrator.gamma(),
            });
        }
    }

    fn predict_ahead(&self, t_secs: Seconds, gap_secs: Seconds) -> f64 {
        match self.curve_value(Seconds::new(t_secs.get() + gap_secs.get())) {
            Ok(v) if self.config.calibrate => self.calibrator.calibrate(v),
            Ok(v) => v,
            // Un-anchored: nothing better than "no rise" — callers anchor
            // before asking in every real flow.
            Err(_) => f64::NAN,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    fn predictor(calibrate: bool) -> DynamicPredictor {
        let mut cfg = DynamicConfig::new();
        cfg.calibrate = calibrate;
        DynamicPredictor::new(cfg).unwrap()
    }

    #[test]
    fn unanchored_predicts_nan() {
        let p = predictor(true);
        assert!(p.predict_ahead(s(0.0), s(60.0)).is_nan());
        assert!(matches!(
            p.curve_value(s(0.0)),
            Err(PredictError::NotReady(_))
        ));
    }

    #[test]
    fn follows_curve_exactly_without_noise() {
        // If measurements match the curve exactly, γ stays ~0 and the
        // prediction equals the curve.
        let mut p = predictor(true);
        p.anchor(s(0.0), c(30.0), c(60.0));
        for t in (0..300).step_by(15) {
            let truth = p.curve_value(s(t as f64)).unwrap();
            p.observe(s(t as f64), c(truth));
        }
        assert!(p.gamma().abs() < 1e-9);
        let pred = p.predict_ahead(s(300.0), s(60.0));
        assert!((pred - p.curve_value(s(360.0)).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn calibration_absorbs_systematic_offset() {
        // Real system runs 4 °C above the curve: calibrated predictions
        // converge onto it, uncalibrated stay 4 °C off.
        let mut cal = predictor(true);
        let mut uncal = predictor(false);
        cal.anchor(s(0.0), c(30.0), c(60.0));
        uncal.anchor(s(0.0), c(30.0), c(60.0));
        let offset = 4.0;
        for step in 0..40 {
            let t = step as f64 * 15.0;
            let measured = cal.curve_value(s(t)).unwrap() + offset;
            cal.observe(s(t), c(measured));
            uncal.observe(s(t), c(measured));
        }
        let t = 600.0;
        let actual = 60.0 + offset;
        let cal_err = (cal.predict_ahead(s(t), s(60.0)) - actual).abs();
        let uncal_err = (uncal.predict_ahead(s(t), s(60.0)) - actual).abs();
        assert!(cal_err < 0.1, "calibrated error {cal_err}");
        assert!(
            (uncal_err - offset).abs() < 0.1,
            "uncalibrated error {uncal_err}"
        );
    }

    #[test]
    fn anchor_resets_gamma_by_default() {
        let mut p = predictor(true);
        p.anchor(s(0.0), c(30.0), c(60.0));
        p.observe(s(0.0), c(40.0)); // big dif → γ moves
        assert!(p.gamma().abs() > 1.0);
        p.anchor(s(100.0), c(45.0), c(70.0));
        assert_eq!(p.gamma(), 0.0);
    }

    #[test]
    fn gap_semantics_match_eq8() {
        let mut p = predictor(true);
        p.anchor(s(0.0), c(30.0), c(60.0));
        // ψ(t + Δgap) = ψ*(t + Δgap) + γ with γ = 0.
        let lhs = p.predict_ahead(s(100.0), s(50.0));
        let rhs = p.curve_value(s(150.0)).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(DynamicPredictor::new(DynamicConfig::new().with_lambda(2.0)).is_err());
        let mut zero_interval = DynamicConfig::new();
        zero_interval.update_interval_secs = 0.0;
        assert!(DynamicPredictor::new(zero_interval).is_err());
        let mut bad = DynamicConfig::new();
        bad.delta = -1.0;
        assert!(DynamicPredictor::new(bad).is_err());
    }

    #[test]
    fn names_distinguish_arms() {
        assert_eq!(predictor(true).name(), "dynamic-calibrated");
        assert_eq!(predictor(false).name(), "dynamic-uncalibrated");
    }
}
