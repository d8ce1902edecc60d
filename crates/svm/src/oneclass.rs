//! One-class SVM (Schölkopf et al.) for novelty detection.
//!
//! Trains on *normal* data only and flags points that fall outside the
//! learned support region. `vmtherm-core::anomaly` uses it to recognise
//! thermal behaviour inconsistent with every healthy configuration seen
//! during profiling (e.g. a failed fan making a mild configuration run
//! hot). Same dual solver as the other machines, with the ν-parameterised
//! equality constraint `Σ α_i = ν·l`, `0 ≤ α_i ≤ 1`.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::smo::{self, KernelRows, SolveOptions};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for one-class training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OneClassParams {
    nu: f64,
    kernel: Kernel,
    tolerance: f64,
    max_iterations: usize,
    cache_rows: usize,
}

impl OneClassParams {
    /// LIBSVM-style defaults: ν = 0.5, RBF kernel.
    #[must_use]
    pub fn new() -> Self {
        OneClassParams {
            nu: 0.5,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_iterations: 10_000_000,
            cache_rows: 4096,
        }
    }

    /// Sets ν ∈ (0, 1]: an upper bound on the training outlier fraction
    /// and lower bound on the support-vector fraction.
    #[must_use]
    pub fn with_nu(mut self, nu: f64) -> Self {
        self.nu = nu;
        self
    }

    /// Sets the kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// ν.
    #[must_use]
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Kernel.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn validate(&self) -> Result<(), SvmError> {
        if !(self.nu > 0.0 && self.nu <= 1.0) {
            return Err(SvmError::invalid(
                "nu",
                format!("must be in (0, 1], got {}", self.nu),
            ));
        }
        if !(self.tolerance > 0.0) {
            return Err(SvmError::invalid(
                "tolerance",
                format!("must be > 0, got {}", self.tolerance),
            ));
        }
        if let Some(g) = self.kernel.gamma() {
            if !(g > 0.0) {
                return Err(SvmError::invalid("gamma", format!("must be > 0, got {g}")));
            }
        }
        Ok(())
    }
}

impl Default for OneClassParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained one-class model. Targets of the training set are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneClassModel {
    kernel: Kernel,
    support_vectors: DenseMatrix,
    coefficients: Vec<f64>,
    rho: f64,
    dim: usize,
    converged: bool,
}

impl OneClassModel {
    /// Trains on the feature vectors of `train` (targets ignored).
    ///
    /// # Errors
    ///
    /// [`SvmError::EmptyDataset`] for no samples,
    /// [`SvmError::InvalidParameter`] for bad hyper-parameters.
    ///
    /// ```
    /// use vmtherm_svm::data::Dataset;
    /// use vmtherm_svm::kernel::Kernel;
    /// use vmtherm_svm::oneclass::{OneClassModel, OneClassParams};
    ///
    /// // Normal data clusters near the origin.
    /// let normal: Vec<Vec<f64>> = (0..40)
    ///     .map(|i| vec![(i as f64 * 0.7).sin() * 0.3, (i as f64 * 1.3).cos() * 0.3])
    ///     .collect();
    /// let n = normal.len();
    /// let ds = Dataset::from_parts(
    ///     vmtherm_svm::matrix::DenseMatrix::from_nested(normal)?,
    ///     vec![0.0; n],
    /// )?;
    /// let model = OneClassModel::train(
    ///     &ds,
    ///     OneClassParams::new().with_nu(0.1).with_kernel(Kernel::rbf(1.0)),
    /// )?;
    /// assert!(model.is_inlier(&[0.0, 0.0])?);
    /// assert!(!model.is_inlier(&[5.0, 5.0])?);
    /// # Ok::<(), vmtherm_svm::error::SvmError>(())
    /// ```
    pub fn train(train: &Dataset, params: OneClassParams) -> Result<Self, SvmError> {
        params.validate()?;
        if train.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        let l = train.len();
        let y = vec![1.0; l];
        let p = vec![0.0; l];
        let c = vec![1.0; l];
        // Feasible start: Σ α = ν l with α ∈ [0, 1] (LIBSVM's init).
        let n = params.nu * l as f64;
        let mut alpha = vec![0.0; l];
        let whole = n.floor() as usize;
        for a in alpha.iter_mut().take(whole.min(l)) {
            *a = 1.0;
        }
        if whole < l {
            alpha[whole] = n - whole as f64;
        }

        let mut q = KernelRows::new(params.kernel, train.features(), params.cache_rows);
        let solution = smo::solve(
            &mut q,
            &p,
            &y,
            &c,
            alpha,
            SolveOptions {
                tolerance: params.tolerance,
                max_iterations: params.max_iterations,
                shrinking: true,
            },
        );

        let mut support_vectors = DenseMatrix::with_cols(train.dim());
        let mut coefficients = Vec::new();
        for i in 0..l {
            if solution.alpha[i] > 0.0 {
                support_vectors.push_row(train.feature(i));
                coefficients.push(solution.alpha[i]);
            }
        }
        Ok(OneClassModel {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            rho: solution.rho,
            dim: train.dim(),
            converged: solution.converged,
        })
    }

    /// The signed decision value: ≥ 0 inside the learned region.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn decision_value(&self, x: &[f64]) -> Result<f64, SvmError> {
        if x.len() != self.dim {
            return Err(SvmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        Ok(self
            .support_vectors
            .iter()
            .zip(&self.coefficients)
            .map(|(sv, a)| a * self.kernel.eval(sv, x))
            .sum::<f64>()
            - self.rho)
    }

    /// `true` when `x` looks like the training (normal) data.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn is_inlier(&self, x: &[f64]) -> Result<bool, SvmError> {
        Ok(self.decision_value(x)? >= 0.0)
    }

    /// Decision values for every row of a feature matrix, evaluating one
    /// kernel row per query into a reused scratch buffer. Bit-identical to
    /// calling [`OneClassModel::decision_value`] per row.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the matrix width differs from
    /// the training dimensionality.
    pub fn predict_batch(&self, queries: &DenseMatrix) -> Result<Vec<f64>, SvmError> {
        if queries.cols() != self.dim {
            return Err(SvmError::DimensionMismatch {
                expected: self.dim,
                actual: queries.cols(),
            });
        }
        let mut scratch = vec![0.0; self.support_vectors.rows()];
        let mut out = Vec::with_capacity(queries.rows());
        for x in queries {
            self.kernel
                .eval_row_batch(x, &self.support_vectors, &mut scratch);
            out.push(
                scratch
                    .iter()
                    .zip(&self.coefficients)
                    .map(|(k, a)| a * k)
                    .sum::<f64>()
                    - self.rho,
            );
        }
        Ok(out)
    }

    /// Number of support vectors retained.
    #[must_use]
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.rows()
    }

    /// Whether the solver reached its KKT tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Feature dimensionality the model expects.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize) -> Dataset {
        // Normal points on a noisy unit circle.
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 1.0 + 0.05 * (i as f64 * 2.7).sin();
                vec![r * a.cos(), r * a.sin()]
            })
            .collect();
        Dataset::from_parts(DenseMatrix::from_nested(pts).unwrap(), vec![0.0; n]).unwrap()
    }

    #[test]
    fn accepts_normal_rejects_far_points() {
        let ds = ring_data(60);
        let model = OneClassModel::train(
            &ds,
            OneClassParams::new()
                .with_nu(0.1)
                .with_kernel(Kernel::rbf(2.0)),
        )
        .unwrap();
        assert!(model.converged());
        // Points on the ring are inliers.
        let mut hits = 0;
        for (x, _) in ds.iter() {
            if model.is_inlier(x).unwrap() {
                hits += 1;
            }
        }
        assert!(hits as f64 >= 0.85 * ds.len() as f64, "only {hits} inliers");
        // Far away is an outlier.
        assert!(!model.is_inlier(&[6.0, -6.0]).unwrap());
        assert!(!model.is_inlier(&[0.0, 10.0]).unwrap());
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        let ds = ring_data(50);
        for nu in [0.05, 0.2, 0.5] {
            let model = OneClassModel::train(
                &ds,
                OneClassParams::new()
                    .with_nu(nu)
                    .with_kernel(Kernel::rbf(1.0)),
            )
            .unwrap();
            let outliers = ds
                .iter()
                .filter(|(x, _)| !model.is_inlier(x).unwrap())
                .count() as f64
                / ds.len() as f64;
            assert!(
                outliers <= nu + 0.1,
                "nu={nu}: training outlier fraction {outliers}"
            );
        }
    }

    #[test]
    fn higher_nu_means_more_support_vectors() {
        let ds = ring_data(50);
        let tight = OneClassModel::train(&ds, OneClassParams::new().with_nu(0.05)).unwrap();
        let loose = OneClassModel::train(&ds, OneClassParams::new().with_nu(0.6)).unwrap();
        assert!(loose.num_support_vectors() >= tight.num_support_vectors());
    }

    #[test]
    fn rejects_bad_nu() {
        let ds = ring_data(10);
        assert!(OneClassModel::train(&ds, OneClassParams::new().with_nu(0.0)).is_err());
        assert!(OneClassModel::train(&ds, OneClassParams::new().with_nu(1.5)).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            OneClassModel::train(&Dataset::new(2), OneClassParams::new()),
            Err(SvmError::EmptyDataset)
        ));
    }

    #[test]
    fn single_point_region_is_tight() {
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![1.0, 1.0]]).unwrap(),
            vec![0.0],
        )
        .unwrap();
        let model = OneClassModel::train(
            &ds,
            OneClassParams::new()
                .with_nu(1.0)
                .with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        assert!(model.is_inlier(&[1.0, 1.0]).unwrap());
        assert!(!model.is_inlier(&[4.0, 4.0]).unwrap());
    }
}
