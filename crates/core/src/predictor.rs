//! The common interface for online temperature predictors.
//!
//! Every predictor — the paper's calibrated dynamic model and all the
//! baselines — consumes a stream of timestamped sensor measurements and
//! answers "what will the CPU temperature be Δ_gap seconds from now?".
//! The evaluation harness ([`crate::eval`]) drives them uniformly through
//! this trait.

use vmtherm_units::{Celsius, Seconds};

/// An online CPU-temperature predictor.
pub trait OnlinePredictor {
    /// Feeds one sensor measurement taken at `t_secs`.
    fn observe(&mut self, t_secs: Seconds, measured_c: Celsius);

    /// Predicts the temperature at `t_secs + gap_secs`, given everything
    /// observed so far.
    fn predict_ahead(&self, t_secs: Seconds, gap_secs: Seconds) -> f64;

    /// Short name for reports (e.g. `"calibrated"`, `"last-value"`).
    fn name(&self) -> &str;
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

    /// A trivial implementor.
    struct Fixed(f64);

    impl OnlinePredictor for Fixed {
        fn observe(&mut self, _t: Seconds, _m: Celsius) {}
        fn predict_ahead(&self, _t: Seconds, _gap: Seconds) -> f64 {
            self.0
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut p: Box<dyn OnlinePredictor> = Box::new(Fixed(1.0));
        p.observe(s(0.0), c(1.0));
        assert_eq!(p.predict_ahead(s(0.0), s(1.0)), 1.0);
    }
}
