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
    fn mae_and_max_error() {
        let a = [0.0, 0.0];
        let p = [1.0, -3.0];
        assert_eq!(mae(&a, &p), 2.0);
        assert_eq!(max_error(&a, &p), 3.0);
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
}
