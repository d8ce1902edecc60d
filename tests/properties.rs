//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary parameters, not just the hand-picked cases.

use proptest::prelude::*;
use vmtherm::core::calibration::Calibrator;
use vmtherm::core::curve::WarmupCurve;
use vmtherm::sim::thermal::{steady_state, ThermalNetwork, ThermalParams};
use vmtherm::svm::data::Dataset;
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::matrix::DenseMatrix;
use vmtherm::svm::scale::Scaler;
use vmtherm::svm::svr::{SvrModel, SvrParams};
use vmtherm::units::{Celsius, Seconds, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The warm-up curve is exact at both endpoints and never overshoots
    /// the [φ(0), ψ_stable] interval, for any parameters.
    #[test]
    fn curve_bounded_between_endpoints(
        phi0 in -10.0..90.0f64,
        psi in -10.0..90.0f64,
        t_break in 10.0..2000.0f64,
        delta in 0.001..1.0f64,
        t in 0.0..3000.0f64,
    ) {
        let c = WarmupCurve::new(Celsius::new(phi0), Celsius::new(psi), Seconds::new(t_break), delta);
        let v = c.value(Seconds::new(t));
        let (lo, hi) = if phi0 <= psi { (phi0, psi) } else { (psi, phi0) };
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "curve {v} outside [{lo}, {hi}]");
        prop_assert!((c.value(Seconds::ZERO) - phi0).abs() < 1e-9);
        prop_assert!((c.value(Seconds::new(t_break + 1.0)) - psi).abs() < 1e-9);
    }

    /// The curve is monotone between its endpoints.
    #[test]
    fn curve_monotone(
        phi0 in 0.0..80.0f64,
        psi in 0.0..80.0f64,
        delta in 0.001..1.0f64,
    ) {
        let c = WarmupCurve::new(Celsius::new(phi0), Celsius::new(psi), Seconds::new(600.0), delta);
        let mut prev = c.value(Seconds::ZERO);
        for step in 1..=60 {
            let v = c.value(Seconds::new(step as f64 * 10.0));
            if phi0 <= psi {
                prop_assert!(v >= prev - 1e-9);
            } else {
                prop_assert!(v <= prev + 1e-9);
            }
            prev = v;
        }
    }

    /// γ converges to any constant offset between curve and reality, for
    /// any λ in (0, 1].
    #[test]
    fn calibration_converges_to_offset(
        offset in -20.0..20.0f64,
        lambda in 0.05..1.0f64,
        interval in 1.0..60.0f64,
    ) {
        let mut cal = Calibrator::new(lambda, Seconds::new(interval)).expect("in-domain calibrator");
        // Enough updates for (1-λ)^n to vanish.
        for step in 0..200 {
            let t = step as f64 * interval;
            cal.observe(Seconds::new(t), Celsius::new(50.0 + offset), Celsius::new(50.0));
        }
        prop_assert!((cal.gamma() - offset).abs() < 1e-3,
            "gamma {} vs offset {offset}", cal.gamma());
    }

    /// Thermal steady state is linear in power and ambient, and the
    /// integrator never crosses it from below (warming from ambient).
    #[test]
    fn thermal_steady_state_laws(
        power in 0.0..400.0f64,
        ambient in 10.0..35.0f64,
        r_sa in 0.05..0.5f64,
    ) {
        let p = ThermalParams::default();
        let s = steady_state(p, Watts::new(power), Celsius::new(ambient), r_sa);
        prop_assert!((s.sink_c - (ambient + power * r_sa)).abs() < 1e-9);
        prop_assert!(s.die_c >= s.sink_c - 1e-9);

        let mut net = ThermalNetwork::new(p, Celsius::new(ambient));
        for _ in 0..300 {
            net.step(Watts::new(power), Celsius::new(ambient), r_sa, Seconds::new(1.0));
            prop_assert!(net.die_temperature() <= s.die_c + 1e-6,
                "overshoot: {} > {}", net.die_temperature(), s.die_c);
            prop_assert!(net.die_temperature() >= ambient - 1e-6);
        }
    }

    /// Min-max scaling maps every training feature into the target range
    /// and inverts exactly.
    #[test]
    fn scaler_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1000.0..1000.0f64, 4), 2..40),
    ) {
        let n = rows.len();
        let m = DenseMatrix::from_nested(rows.clone()).expect("matrix");
        let ds = Dataset::from_parts(m, vec![0.0; n]).expect("dataset");
        let scaler = Scaler::fit(&ds);
        let lo: Vec<f64> = (0..4).map(|j| rows.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min)).collect();
        let hi: Vec<f64> = (0..4).map(|j| rows.iter().map(|r| r[j]).fold(f64::NEG_INFINITY, f64::max)).collect();
        for row in &rows {
            let t = scaler.transform(row);
            for v in &t {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(v), "scaled {v}");
            }
            // Invert `[lo, hi] -> [-1, 1]` from the training extremes.
            for j in 0..4 {
                let back = if hi[j] > lo[j] {
                    lo[j] + (t[j] + 1.0) * (hi[j] - lo[j]) / 2.0
                } else {
                    // Constant features legitimately collapse to their value.
                    lo[j]
                };
                prop_assert!((row[j] - back).abs() < 1e-6, "{} vs {back}", row[j]);
            }
        }
    }

    /// ε-SVR with large C keeps all training residuals within ~ε for any
    /// small smooth 1-D problem (the ε-tube KKT property).
    #[test]
    fn svr_respects_epsilon_tube(
        slope in -5.0..5.0f64,
        intercept in -10.0..10.0f64,
        eps in 0.01..0.5f64,
    ) {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x[0] + intercept).collect();
        let ds = Dataset::from_parts(DenseMatrix::from_nested(xs).expect("matrix"), ys)
            .expect("dataset");
        let params = SvrParams::new()
            .with_c(1e5)
            .with_epsilon(eps)
            .with_kernel(Kernel::Linear);
        let model = SvrModel::train(&ds, params).expect("train");
        for (x, y) in ds.iter() {
            let r = (model.predict(x).expect("predict") - y).abs();
            prop_assert!(r <= eps + 0.05, "residual {r} above tube {eps}");
        }
    }

    /// Kernel symmetry: K(x, z) = K(z, x) for all kernels and inputs.
    #[test]
    fn kernels_are_symmetric(
        x in proptest::collection::vec(-10.0..10.0f64, 3),
        z in proptest::collection::vec(-10.0..10.0f64, 3),
        gamma in 0.01..2.0f64,
    ) {
        for k in [
            Kernel::Linear,
            Kernel::rbf(gamma),
            Kernel::Polynomial { gamma, coef0: 1.0, degree: 3 },
            Kernel::Sigmoid { gamma, coef0: 0.5 },
        ] {
            prop_assert!((k.eval(&x, &z) - k.eval(&z, &x)).abs() < 1e-12);
        }
    }

    /// RBF kernel is bounded in (0, 1] and maximal at zero distance.
    #[test]
    fn rbf_bounds(
        x in proptest::collection::vec(-10.0..10.0f64, 3),
        z in proptest::collection::vec(-10.0..10.0f64, 3),
        gamma in 0.01..5.0f64,
    ) {
        let k = Kernel::rbf(gamma);
        let v = k.eval(&x, &z);
        // v may underflow to exactly 0.0 for large gamma * distance.
        prop_assert!((0.0..=1.0 + 1e-15).contains(&v));
        prop_assert!(k.eval(&x, &x) >= v - 1e-12);
    }
}
