//! C-Support Vector Classification.
//!
//! The paper only needs regression, but the thermal-management extension in
//! `vmtherm-core::manager` classifies configurations as hotspot-prone or
//! safe, which is a natural binary SVC task over the same Eq. (2) features.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::expansion::Expansion;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::smo::{self, KernelRows, SolveOptions};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for C-SVC training. Targets must be `+1.0` or `-1.0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvcParams {
    c: f64,
    kernel: Kernel,
}

impl SvcParams {
    /// LIBSVM-default parameters (`C = 1`, RBF kernel). The solver runs
    /// at LIBSVM's default tolerance `1e-3` with shrinking and the
    /// precomputed-norm RBF row pass on.
    #[must_use]
    pub fn new() -> Self {
        SvcParams {
            c: 1.0,
            kernel: Kernel::default(),
        }
    }

    /// Sets the regularisation constant `C` (> 0).
    #[must_use]
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Regularisation constant.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Kernel function.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::invalid(
                "c",
                format!("must be > 0, got {}", self.c),
            ));
        }
        self.kernel.validate()
    }
}

impl Default for SvcParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained binary classifier. Labels are `±1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvcModel {
    /// Coefficients `y_i α_i`, bias `−rho`.
    expansion: Expansion,
    iterations: usize,
    converged: bool,
}

impl SvcModel {
    /// Trains a C-SVC.
    ///
    /// # Errors
    ///
    /// [`SvmError::EmptyDataset`] for no samples;
    /// [`SvmError::InvalidParameter`] if any target is not `±1` or a
    /// hyper-parameter is out of domain.
    ///
    /// ```
    /// use vmtherm_svm::data::Dataset;
    /// use vmtherm_svm::kernel::Kernel;
    /// use vmtherm_svm::svc::{SvcModel, SvcParams};
    ///
    /// let ds = Dataset::from_parts(
    ///     vmtherm_svm::matrix::DenseMatrix::from_nested(
    ///         vec![vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
    ///     )?,
    ///     vec![-1.0, -1.0, 1.0, 1.0],
    /// )?;
    /// let model = SvcModel::train(&ds, SvcParams::new().with_kernel(Kernel::Linear))?;
    /// assert_eq!(model.classify(&[-3.0])?, -1.0);
    /// assert_eq!(model.classify(&[3.0])?, 1.0);
    /// # Ok::<(), vmtherm_svm::error::SvmError>(())
    /// ```
    pub fn train(train: &Dataset, params: SvcParams) -> Result<Self, SvmError> {
        params.validate()?;
        if train.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        for &y in train.targets() {
            if y != 1.0 && y != -1.0 {
                return Err(SvmError::invalid(
                    "targets",
                    format!("labels must be ±1, got {y}"),
                ));
            }
        }
        let l = train.len();
        let y = train.targets().to_vec();
        let p = vec![-1.0; l];
        let c = vec![params.c; l];
        let mut q = KernelRows::new(params.kernel, train.features(), smo::CACHE_ROWS)
            .with_prenorm_rows(true);
        let solution = smo::solve(&mut q, &p, &y, &c, vec![0.0; l], SolveOptions::default());

        let mut support_vectors = DenseMatrix::with_cols(train.dim());
        let mut coefficients = Vec::new();
        for i in 0..l {
            if solution.alpha[i] > 0.0 {
                support_vectors.push_row(train.feature(i));
                coefficients.push(y[i] * solution.alpha[i]);
            }
        }
        Ok(SvcModel {
            expansion: Expansion::new(
                params.kernel,
                support_vectors,
                coefficients,
                -solution.rho,
                train.dim(),
            )?,
            iterations: solution.iterations,
            converged: solution.converged,
        })
    }

    /// The signed decision value `f(x)`; its sign is the class.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn decision_value(&self, x: &[f64]) -> Result<f64, SvmError> {
        self.expansion.value(x)
    }

    /// Classifies `x` as `+1.0` or `-1.0` (ties break positive, as in
    /// LIBSVM).
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn classify(&self, x: &[f64]) -> Result<f64, SvmError> {
        Ok(label(self.decision_value(x)?))
    }

    /// Classifies every row of a feature matrix (`+1.0`/`-1.0` per row),
    /// evaluating one kernel row per query into a reused scratch buffer.
    /// Bit-identical to calling [`SvcModel::classify`] per row.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the matrix width differs from
    /// the training dimensionality.
    pub fn predict_batch(&self, queries: &DenseMatrix) -> Result<Vec<f64>, SvmError> {
        let mut values = self.expansion.values(queries)?;
        for v in &mut values {
            *v = label(*v);
        }
        Ok(values)
    }

    /// Number of support vectors retained.
    #[must_use]
    pub fn num_support_vectors(&self) -> usize {
        self.expansion.support_vectors().rows()
    }

    /// `y_i α_i` per support vector, in training order.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        self.expansion.coefficients()
    }

    /// The bias `b` (LIBSVM's `−rho`).
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.expansion.bias()
    }

    /// Solver iterations used during training.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the solver reached its KKT tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Feature dimensionality the model expects.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.expansion.dim()
    }
}

/// The class of a decision value; ties break positive, as in LIBSVM.
fn label(decision_value: f64) -> f64 {
    if decision_value >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            xs.push(vec![i as f64 * 0.1, 1.0 + i as f64 * 0.05]);
            ys.push(1.0);
            xs.push(vec![i as f64 * 0.1, -1.0 - i as f64 * 0.05]);
            ys.push(-1.0);
        }
        Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    #[test]
    fn separates_linearly_separable_data() {
        let model =
            SvcModel::train(&separable(), SvcParams::new().with_kernel(Kernel::Linear)).unwrap();
        assert!(model.converged());
        let ds = separable();
        for (x, y) in ds.iter() {
            assert_eq!(model.classify(x).unwrap(), y);
        }
        assert_eq!(model.predict_batch(ds.features()).unwrap(), ds.targets());
    }

    #[test]
    fn xor_needs_rbf() {
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
            ])
            .unwrap(),
            vec![1.0, 1.0, -1.0, -1.0],
        )
        .unwrap();
        let model = SvcModel::train(
            &ds,
            SvcParams::new().with_c(100.0).with_kernel(Kernel::rbf(2.0)),
        )
        .unwrap();
        for (x, y) in ds.iter() {
            assert_eq!(model.classify(x).unwrap(), y, "x = {x:?}");
        }
    }

    #[test]
    fn rejects_non_binary_labels() {
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![0.0], vec![1.0]]).unwrap(),
            vec![0.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            SvcModel::train(&ds, SvcParams::new()),
            Err(SvmError::InvalidParameter {
                name: "targets",
                ..
            })
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        assert!(matches!(
            SvcModel::train(&Dataset::new(2), SvcParams::new()),
            Err(SvmError::EmptyDataset)
        ));
    }

    #[test]
    fn rejects_bad_c() {
        let ds = separable();
        assert!(SvcModel::train(&ds, SvcParams::new().with_c(-1.0)).is_err());
    }

    #[test]
    fn decision_value_sign_matches_class() {
        let model =
            SvcModel::train(&separable(), SvcParams::new().with_kernel(Kernel::Linear)).unwrap();
        let v = model.decision_value(&[0.5, 2.0]).unwrap();
        assert!(v > 0.0);
        assert_eq!(model.classify(&[0.5, 2.0]).unwrap(), 1.0);
    }

    #[test]
    fn decision_value_wrong_dim_errors() {
        let model =
            SvcModel::train(&separable(), SvcParams::new().with_kernel(Kernel::Linear)).unwrap();
        assert!(matches!(
            model.decision_value(&[0.5]),
            Err(SvmError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn margin_svs_only() {
        // With separable data and moderate C, interior points are not SVs.
        let model =
            SvcModel::train(&separable(), SvcParams::new().with_kernel(Kernel::Linear)).unwrap();
        assert!(model.num_support_vectors() < separable().len());
    }
}
