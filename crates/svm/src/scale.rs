//! Feature scaling, mirroring LIBSVM's `svm-scale`.
//!
//! SVMs with RBF kernels are sensitive to feature magnitudes — the paper's
//! Eq. (2) mixes gigahertz, gigabytes, fan counts and degrees Celsius — so
//! every pipeline fits a [`Scaler`] on the training set and applies the same
//! transform at prediction time.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Lower bound of the scaled range, `svm-scale`'s default `-l -1`; each
/// feature's training minimum maps here.
pub(crate) const LOWER: f64 = -1.0;
/// Upper bound of the scaled range (`-u 1`); each feature's training
/// maximum maps here.
const UPPER: f64 = 1.0;

/// A fitted, reusable min-max feature transform onto `[-1, 1]`.
///
/// ```
/// use vmtherm_svm::data::Dataset;
/// use vmtherm_svm::matrix::DenseMatrix;
/// use vmtherm_svm::scale::Scaler;
///
/// let train = Dataset::from_parts(
///     DenseMatrix::from_nested(vec![vec![0.0, 100.0], vec![10.0, 300.0]])?,
///     vec![0.0, 1.0],
/// )?;
/// let scaler = Scaler::fit(&train);
/// let scaled = scaler.transform_dataset(&train);
/// assert_eq!(scaled.feature(0), &[-1.0, -1.0]);
/// assert_eq!(scaled.feature(1), &[1.0, 1.0]);
/// # Ok::<(), vmtherm_svm::error::SvmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    /// Per-feature `(offset, scale)` such that `x' = (x - offset) * scale - 1`.
    offsets: Vec<f64>,
    scales: Vec<f64>,
}

impl Scaler {
    /// Fits a scaler mapping each training feature's min/max linearly onto
    /// `[-1, 1]`, as `svm-scale` does by default.
    ///
    /// Constant features (zero spread) are mapped to `-1` rather than
    /// dividing by zero.
    #[must_use]
    pub fn fit(train: &Dataset) -> Self {
        let d = train.dim();
        let mut offsets = vec![0.0; d];
        let mut scales = vec![1.0; d];
        for j in 0..d {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for x in train.features() {
                lo = lo.min(x[j]);
                hi = hi.max(x[j]);
            }
            offsets[j] = lo;
            let spread = hi - lo;
            scales[j] = if spread > 0.0 {
                (UPPER - LOWER) / spread
            } else {
                0.0
            };
        }
        Scaler { offsets, scales }
    }

    /// Feature dimensionality this scaler expects.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.offsets.len()
    }

    /// Scales one feature vector into a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.dim(),
            "scaler dim {} != input {}",
            self.dim(),
            x.len()
        );
        x.iter()
            .enumerate()
            .map(|(j, v)| (v - self.offsets[j]) * self.scales[j] + LOWER)
            .collect()
    }

    /// Scales a whole dataset (targets pass through untouched).
    #[must_use]
    pub fn transform_dataset(&self, ds: &Dataset) -> Dataset {
        ds.iter().map(|(x, y)| (self.transform(x), y)).collect()
    }

    /// Scales every row of a feature matrix into a new matrix, applying
    /// exactly the per-element expression of [`Scaler::transform`].
    ///
    /// # Panics
    ///
    /// Panics if `m.cols() != self.dim()`.
    #[must_use]
    pub fn transform_matrix(&self, m: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            m.cols(),
            self.dim(),
            "scaler dim {} != input {}",
            self.dim(),
            m.cols()
        );
        let mut out = DenseMatrix::with_cols(m.cols());
        for row in m {
            out.push_row(&self.transform(row));
        }
        out
    }

    /// Destructures for serialisation: `(offsets, scales)`.
    pub(crate) fn parts(&self) -> (&[f64], &[f64]) {
        (&self.offsets, &self.scales)
    }

    /// Rebuilds from serialised parts.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] when the vectors disagree.
    pub(crate) fn from_parts(offsets: Vec<f64>, scales: Vec<f64>) -> Result<Self, SvmError> {
        if offsets.len() != scales.len() {
            return Err(SvmError::DimensionMismatch {
                expected: offsets.len(),
                actual: scales.len(),
            });
        }
        Ok(Scaler { offsets, scales })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> Dataset {
        Dataset::from_parts(
            DenseMatrix::from_nested(vec![
                vec![0.0, 10.0, 5.0],
                vec![4.0, 20.0, 5.0],
                vec![2.0, 15.0, 5.0],
            ])
            .unwrap(),
            vec![1.0, 2.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn minmax_maps_to_unit_range() {
        let s = Scaler::fit(&train());
        let t = s.transform(&[0.0, 20.0, 5.0]);
        assert_eq!(t[0], -1.0);
        assert_eq!(t[1], 1.0);
    }

    #[test]
    fn constant_feature_maps_to_base_not_nan() {
        let s = Scaler::fit(&train());
        let t = s.transform(&[1.0, 12.0, 123.0]);
        assert_eq!(t[2], -1.0);
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn transform_matrix_matches_per_row_transform() {
        let s = Scaler::fit(&train());
        let ds = train();
        let scaled = s.transform_matrix(ds.features());
        for (row, x) in scaled.iter().zip(ds.features()) {
            let expect = s.transform(x);
            for (a, b) in row.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn transform_dataset_keeps_targets() {
        let s = Scaler::fit(&train());
        let scaled = s.transform_dataset(&train());
        assert_eq!(scaled.targets(), train().targets());
    }

    #[test]
    fn out_of_range_inputs_extrapolate_linearly() {
        // Prediction-time inputs outside the training min/max must not clamp:
        // the paper's model sees unseen ambient temperatures.
        let s = Scaler::fit(&train());
        let t = s.transform(&[8.0, 10.0, 5.0]); // train range for f0 is [0, 4]
        assert_eq!(t[0], 3.0);
    }
}
