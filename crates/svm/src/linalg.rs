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
}
