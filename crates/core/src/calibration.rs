//! Run-time calibration γ — Eqs. (4)–(8) of the paper.
//!
//! The pre-defined curve ψ*(t) is coarse; online, the predictor observes
//! the real sensor every Δ_update seconds and accumulates a correction:
//!
//! ```text
//! dif = φ(t) − (ψ*(t) + γ)          (Eq. 5: error of the last prediction)
//! γ  ← γ + λ · dif                  (Eq. 6: learning-rate update, λ = 0.8)
//! ψ(t + Δ_gap) = ψ*(t + Δ_gap) + γ  (Eq. 8: calibrated prediction)
//! ```
//!
//! At an anchor (t = 0) γ starts at 0 (Eq. 4).

use crate::error::PredictError;
use serde::{Deserialize, Serialize};
use vmtherm_units::constants::{paper_delta_update, PAPER_LAMBDA};
use vmtherm_units::{Celsius, Seconds};

/// The γ accumulator with its λ and Δ_update bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibrator {
    gamma: f64,
    lambda: f64,
    update_interval_secs: f64,
    last_update_secs: Option<f64>,
    updates: u64,
}

impl Calibrator {
    /// Creates a calibrator with γ = 0.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidConfig`] unless `0 ≤ lambda ≤ 1` and
    /// `update_interval_secs > 0`.
    pub fn new(lambda: f64, update_interval_secs: Seconds) -> Result<Self, PredictError> {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(PredictError::invalid(
                "lambda",
                format!("lambda must be in [0, 1], got {lambda}"),
            ));
        }
        if !(update_interval_secs.get() > 0.0) {
            return Err(PredictError::invalid(
                "update_interval_secs",
                format!(
                    "update interval must be positive, got {}",
                    update_interval_secs.get()
                ),
            ));
        }
        Ok(Calibrator::unchecked(lambda, update_interval_secs.get()))
    }

    /// Constructs without validating; for parameters already known to be
    /// in-domain (the paper constants).
    fn unchecked(lambda: f64, update_interval_secs: f64) -> Self {
        Calibrator {
            gamma: 0.0,
            lambda,
            update_interval_secs,
            last_update_secs: None,
            updates: 0,
        }
    }

    /// Paper defaults: λ = 0.8, Δ_update = 15 s.
    #[must_use]
    pub fn standard() -> Self {
        Calibrator::unchecked(PAPER_LAMBDA, paper_delta_update().get())
    }

    /// Current calibration γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The learning rate λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The update interval Δ_update (s).
    #[must_use]
    pub fn update_interval_secs(&self) -> f64 {
        self.update_interval_secs
    }

    /// Number of γ updates applied so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Resets to the Eq. (4) state (γ = 0, no update history) — done at
    /// every re-anchor.
    pub fn reset(&mut self) {
        self.gamma = 0.0;
        self.last_update_secs = None;
        self.updates = 0;
    }

    /// Offers a measurement. `curve_value` is ψ*(t) (uncalibrated); the
    /// calibrated prediction it is compared against is `ψ*(t) + γ`
    /// (Eq. 5). γ updates only when Δ_update has elapsed since the last
    /// update (the first offer always updates). Returns `true` when γ
    /// changed.
    pub fn observe(&mut self, t_secs: Seconds, measured: Celsius, curve_value: Celsius) -> bool {
        if !self.is_due(t_secs) {
            return false;
        }
        let dif = measured.get() - (curve_value.get() + self.gamma);
        self.gamma += self.lambda * dif;
        self.last_update_secs = Some(t_secs.get());
        self.updates += 1;
        true
    }

    /// Whether an offer at `t_secs` would update γ: Δ_update has elapsed
    /// since the last update, or none has happened yet. A caller can skip
    /// computing ψ*(t) for an offer that is not due.
    #[must_use]
    pub(crate) fn is_due(&self, t_secs: Seconds) -> bool {
        match self.last_update_secs {
            None => true,
            Some(last) => t_secs.get() - last >= self.update_interval_secs - 1e-9,
        }
    }

    /// Applies γ to an uncalibrated curve value (Eq. 8's right-hand side).
    #[must_use]
    pub fn calibrate(&self, curve_value: f64) -> f64 {
        curve_value + self.gamma
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::standard()
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

    #[test]
    fn starts_at_zero() {
        let cal = Calibrator::standard();
        assert_eq!(cal.gamma(), 0.0);
        assert_eq!(cal.calibrate(42.0), 42.0);
    }

    #[test]
    fn paper_worked_example() {
        // Paper §II: at t=15, φ(15) − ψ*(15) = dif, γ = λ·dif with γ
        // previously 0.
        let mut cal = Calibrator::new(0.8, s(15.0)).expect("calibrator");
        // Suppose ψ*(15) = 50 and we measure 52: dif = 2, γ = 1.6.
        assert!(cal.observe(s(15.0), c(52.0), c(50.0)));
        assert!((cal.gamma() - 1.6).abs() < 1e-12);
        // Prediction for t=75 with ψ*(75)=55: 55 + 1.6 = 56.6 (Eq. 7).
        assert!((cal.calibrate(55.0) - 56.6).abs() < 1e-12);
    }

    #[test]
    fn respects_update_interval() {
        let mut cal = Calibrator::new(0.8, s(15.0)).expect("calibrator");
        assert!(cal.observe(s(0.0), c(51.0), c(50.0)));
        let g = cal.gamma();
        // 10 s later: not due.
        assert!(!cal.is_due(s(10.0)));
        assert!(!cal.observe(s(10.0), c(60.0), c(50.0)));
        assert_eq!(cal.gamma(), g);
        // 15 s after last update: due.
        assert!(cal.is_due(s(15.0)));
        assert!(cal.observe(s(15.0), c(60.0), c(50.0)));
        assert_ne!(cal.gamma(), g);
        assert_eq!(cal.updates(), 2);
    }

    #[test]
    fn converges_to_constant_offset() {
        // If the real system sits exactly k above the curve, γ → k.
        let mut cal = Calibrator::new(0.8, s(15.0)).expect("calibrator");
        let k = 3.0;
        for step in 0..20 {
            let t = step as f64 * 15.0;
            cal.observe(s(t), c(50.0 + k), c(50.0));
        }
        assert!((cal.gamma() - k).abs() < 1e-6, "gamma = {}", cal.gamma());
    }

    #[test]
    fn lambda_zero_never_learns() {
        let mut cal = Calibrator::new(0.0, s(15.0)).expect("calibrator");
        cal.observe(s(0.0), c(99.0), c(50.0));
        cal.observe(s(15.0), c(99.0), c(50.0));
        assert_eq!(cal.gamma(), 0.0);
    }

    #[test]
    fn lambda_one_jumps_immediately() {
        let mut cal = Calibrator::new(1.0, s(15.0)).expect("calibrator");
        cal.observe(s(0.0), c(57.0), c(50.0));
        assert_eq!(cal.gamma(), 7.0);
    }

    #[test]
    fn reset_restores_eq4_state() {
        let mut cal = Calibrator::standard();
        cal.observe(s(0.0), c(60.0), c(50.0));
        assert_ne!(cal.gamma(), 0.0);
        cal.reset();
        assert_eq!(cal.gamma(), 0.0);
        assert_eq!(cal.updates(), 0);
        // First observe after reset updates immediately again.
        assert!(cal.observe(s(100.0), c(60.0), c(50.0)));
    }

    #[test]
    fn error_relative_to_calibrated_prediction() {
        // Eq. 5 compares against ψ* + γ, not raw ψ*: once γ has absorbed
        // the offset, a matching measurement must not move γ.
        let mut cal = Calibrator::new(1.0, s(15.0)).expect("calibrator");
        cal.observe(s(0.0), c(53.0), c(50.0)); // γ = 3
        assert!(cal.observe(s(15.0), c(53.0), c(50.0)));
        assert!(
            (cal.gamma() - 3.0).abs() < 1e-12,
            "gamma drifted: {}",
            cal.gamma()
        );
    }

    #[test]
    fn bad_lambda_rejected() {
        assert!(matches!(
            Calibrator::new(1.5, s(15.0)),
            Err(PredictError::InvalidConfig { .. })
        ));
        assert!(Calibrator::new(-0.1, s(15.0)).is_err());
        assert!(Calibrator::new(f64::NAN, s(15.0)).is_err());
    }

    #[test]
    fn bad_interval_rejected() {
        assert!(matches!(
            Calibrator::new(0.5, s(0.0)),
            Err(PredictError::InvalidConfig { .. })
        ));
        assert!(Calibrator::new(0.5, s(-5.0)).is_err());
    }
}
