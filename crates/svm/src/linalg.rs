//! Small dense linear-algebra helpers used by the kernel functions and the
//! SMO solver.
//!
//! The library deliberately works on plain `&[f64]` slices rather than
//! introducing a vector type: every caller already owns contiguous feature
//! buffers, and slices keep the public API free of bespoke math types.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths (programmer error: feature
/// vectors in one dataset must share a dimensionality).
///
/// ```
/// assert_eq!(vmtherm_svm::linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: dimension mismatch {} vs {}",
        a.len(),
        b.len()
    );
    // Fold from +0.0 like the unrolled batch kernels: `Iterator::sum`
    // starts at −0.0, which keeps an all-signed-zero sum negative.
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(vmtherm_svm::linalg::squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
/// ```
#[must_use]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "squared_distance: dimension mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean norm of a slice.
///
/// ```
/// assert_eq!(vmtherm_svm::linalg::norm(&[3.0, 4.0]), 5.0);
/// ```
#[must_use]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Mean of a slice; `0.0` for an empty slice.
#[must_use]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance of a slice; `0.0` for slices shorter than two.
#[must_use]
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn squared_distance_is_zero_for_equal_vectors() {
        let v = [1.5, -2.5, 0.0];
        assert_eq!(squared_distance(&v, &v), 0.0);
    }

    #[test]
    fn squared_distance_symmetric() {
        let a = [1.0, 2.0];
        let b = [-3.0, 0.5];
        assert_eq!(squared_distance(&a, &b), squared_distance(&b, &a));
    }

    #[test]
    fn norm_of_unit_axis() {
        assert_eq!(norm(&[0.0, 1.0, 0.0]), 1.0);
    }

    #[test]
    fn mean_and_variance() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        assert!((variance(&a) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_singleton_is_zero() {
        assert_eq!(variance(&[42.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }
}
