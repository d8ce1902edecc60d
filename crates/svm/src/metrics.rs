//! Regression quality metrics.
//!
//! The paper reports **Mean Squared Error** throughout its evaluation
//! (Fig. 1(a): stable MSE ≤ 1.10; Fig. 1(c): dynamic MSE 0.70–1.50), so
//! [`mse`] is the primary metric; the rest support the wider harness.

/// Mean squared error between `actual` and `predicted`.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
///
/// ```
/// assert_eq!(vmtherm_svm::metrics::mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
/// ```
#[must_use]
pub fn mse(actual: &[f64], predicted: &[f64]) -> f64 {
    check(actual, predicted);
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum::<f64>()
        / actual.len() as f64
}

/// Root mean squared error.
#[must_use]
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    mse(actual, predicted).sqrt()
}

/// Mean absolute error.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
#[must_use]
pub fn mae(actual: &[f64], predicted: &[f64]) -> f64 {
    check(actual, predicted);
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p).abs())
        .sum::<f64>()
        / actual.len() as f64
}

/// Largest absolute error.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
#[must_use]
pub fn max_error(actual: &[f64], predicted: &[f64]) -> f64 {
    check(actual, predicted);
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p).abs())
        .fold(0.0, f64::max)
}

/// Coefficient of determination `R²`. Returns `0.0` when the actuals have
/// zero variance and the predictions are exact, `-inf`-free negative values
/// otherwise (worse than predicting the mean).
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
#[must_use]
pub fn r2(actual: &[f64], predicted: &[f64]) -> f64 {
    check(actual, predicted);
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
    let ss_res: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            return 1.0;
        }
        return 0.0;
    }
    1.0 - ss_res / ss_tot
}

fn check(actual: &[f64], predicted: &[f64]) {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "metric: length mismatch {} vs {}",
        actual.len(),
        predicted.len()
    );
    assert!(!actual.is_empty(), "metric: empty inputs");
}

/// A bundle of the regression metrics, convenient for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionReport {
    /// Mean squared error.
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Maximum absolute error.
    pub max_error: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

impl RegressionReport {
    /// Computes all metrics at once.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or both are empty.
    #[must_use]
    pub fn compute(actual: &[f64], predicted: &[f64]) -> Self {
        RegressionReport {
            mse: mse(actual, predicted),
            rmse: rmse(actual, predicted),
            mae: mae(actual, predicted),
            max_error: max_error(actual, predicted),
            r2: r2(actual, predicted),
        }
    }
}

impl std::fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mse={:.4} rmse={:.4} mae={:.4} max={:.4} r2={:.4}",
            self.mse, self.rmse, self.mae, self.max_error, self.r2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_perfect_prediction() {
        assert_eq!(mse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn mse_matches_hand_computation() {
        // errors: 1, -2 → (1 + 4)/2 = 2.5
        assert_eq!(mse(&[1.0, 2.0], &[0.0, 4.0]), 2.5);
    }

    #[test]
    fn rmse_is_sqrt_of_mse() {
        let a = [3.0, -1.0, 2.0];
        let p = [2.5, 0.0, 2.0];
        assert!((rmse(&a, &p) - mse(&a, &p).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn mae_and_max_error() {
        let a = [0.0, 0.0];
        let p = [1.0, -3.0];
        assert_eq!(mae(&a, &p), 2.0);
        assert_eq!(max_error(&a, &p), 3.0);
    }

    #[test]
    fn r2_perfect_is_one() {
        assert_eq!(r2(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let a = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&a, &p).abs() < 1e-15);
    }

    #[test]
    fn r2_constant_actuals() {
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2(&[5.0, 5.0], &[4.0, 6.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_inputs_panic() {
        let _ = mse(&[], &[]);
    }

    #[test]
    fn report_bundles_all() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let p = [1.1, 1.9, 3.2, 3.8];
        let r = RegressionReport::compute(&a, &p);
        assert!((r.mse - mse(&a, &p)).abs() < 1e-15);
        assert!(r.r2 > 0.9);
        let s = r.to_string();
        assert!(s.contains("mse=") && s.contains("r2="));
    }
}
