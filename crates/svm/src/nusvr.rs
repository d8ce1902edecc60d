//! ν-Support Vector Regression.
//!
//! LIBSVM's second regression machine: instead of fixing the tube
//! half-width ε a priori (which requires knowing the noise scale), ν-SVR
//! fixes `ν ∈ (0, 1]` — an upper bound on the fraction of tube violations
//! and lower bound on the support-vector fraction — and **learns ε** from
//! the data. Useful here because sensor noise differs between deployments:
//! one model family, no ε tuning.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::smo::{self, KernelRows, SolveOptions};
use crate::svr::SvrModel;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for ν-SVR training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NuSvrParams {
    c: f64,
    nu: f64,
    kernel: Kernel,
    tolerance: f64,
    max_iterations: usize,
    cache_rows: usize,
}

impl NuSvrParams {
    /// LIBSVM defaults: `C = 1`, `ν = 0.5`, RBF kernel.
    #[must_use]
    pub fn new() -> Self {
        NuSvrParams {
            c: 1.0,
            nu: 0.5,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_iterations: 10_000_000,
            cache_rows: 4096,
        }
    }

    /// Sets the regularisation constant `C` (> 0).
    #[must_use]
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets `ν ∈ (0, 1]`.
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

    /// Sets the KKT stopping tolerance (> 0).
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// `C`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// `ν`.
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
        if !(self.c > 0.0) {
            return Err(SvmError::invalid(
                "c",
                format!("must be > 0, got {}", self.c),
            ));
        }
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

impl Default for NuSvrParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained ν-SVR: the usual support-vector expansion plus the learned
/// tube half-width ε.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NuSvrModel {
    inner: SvrModel,
    learned_epsilon: f64,
    iterations: usize,
}

impl NuSvrModel {
    /// Trains a ν-SVR (LIBSVM's `solve_nu_svr` formulation).
    ///
    /// # Errors
    ///
    /// [`SvmError::EmptyDataset`] / [`SvmError::InvalidParameter`] as for
    /// ε-SVR.
    ///
    /// ```
    /// use vmtherm_svm::data::Dataset;
    /// use vmtherm_svm::kernel::Kernel;
    /// use vmtherm_svm::nusvr::{NuSvrModel, NuSvrParams};
    ///
    /// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
    /// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 1.0).collect();
    /// let ds = Dataset::from_parts(vmtherm_svm::matrix::DenseMatrix::from_nested(xs)?, ys)?;
    /// let model = NuSvrModel::train(
    ///     &ds,
    ///     NuSvrParams::new().with_c(100.0).with_nu(0.5).with_kernel(Kernel::Linear),
    /// )?;
    /// assert!((model.predict(&[4.5])? - 10.0).abs() < 0.3);
    /// # Ok::<(), vmtherm_svm::error::SvmError>(())
    /// ```
    pub fn train(train: &Dataset, params: NuSvrParams) -> Result<Self, SvmError> {
        params.validate()?;
        if train.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        let l = train.len();
        let points = train.features();
        let targets = train.targets();

        // LIBSVM solve_nu_svr: both halves start with equal mass summing to
        // C·ν·l / 2 per group; linear term carries ∓y (no ε).
        let mut alpha = vec![0.0; 2 * l];
        let mut budget = params.c * params.nu * l as f64 / 2.0;
        for i in 0..l {
            let a = budget.min(params.c);
            alpha[i] = a;
            alpha[l + i] = a;
            budget -= a;
        }
        let mut p = Vec::with_capacity(2 * l);
        let mut signs = Vec::with_capacity(2 * l);
        for &yi in targets {
            p.push(-yi);
        }
        for &yi in targets {
            p.push(yi);
        }
        signs.extend(std::iter::repeat_n(1.0, l));
        signs.extend(std::iter::repeat_n(-1.0, l));
        let c = vec![params.c; 2 * l];

        let mut q = KernelRows::new(params.kernel, points, params.cache_rows);
        let solution = smo::solve_nu(
            &mut q,
            &p,
            &signs,
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
            let beta = solution.base.alpha[i] - solution.base.alpha[l + i];
            if beta != 0.0 {
                support_vectors.push_row(points.row(i));
                coefficients.push(beta);
            }
        }
        let inner = SvrModel::from_parts(
            params.kernel,
            support_vectors,
            coefficients,
            -solution.base.rho,
            train.dim(),
        )?;
        Ok(NuSvrModel {
            inner,
            learned_epsilon: -solution.r,
            iterations: solution.base.iterations,
        })
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn predict(&self, x: &[f64]) -> Result<f64, SvmError> {
        self.inner.predict(x)
    }

    /// Predicts targets for every row of a feature matrix; see
    /// [`SvrModel::predict_batch`].
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the matrix width differs from
    /// the training dimensionality.
    pub fn predict_batch(&self, queries: &DenseMatrix) -> Result<Vec<f64>, SvmError> {
        self.inner.predict_batch(queries)
    }

    /// The tube half-width ε the optimisation learned.
    #[must_use]
    pub fn learned_epsilon(&self) -> f64 {
        self.learned_epsilon
    }

    /// Number of support vectors retained.
    #[must_use]
    pub fn num_support_vectors(&self) -> usize {
        self.inner.num_support_vectors()
    }

    /// Solver iterations used during training.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The underlying support-vector expansion (for persistence via
    /// [`crate::model_io`]).
    #[must_use]
    pub fn as_svr(&self) -> &SvrModel {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn noisy_line(n: usize, noise: f64) -> Dataset {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.3]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let wiggle = ((i as f64 * 2.399).sin()) * noise;
                2.0 * x[0] - 1.0 + wiggle
            })
            .collect();
        Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    #[test]
    fn fits_linear_data() {
        let ds = noisy_line(20, 0.0);
        let model = NuSvrModel::train(
            &ds,
            NuSvrParams::new()
                .with_c(100.0)
                .with_nu(0.5)
                .with_kernel(Kernel::Linear),
        )
        .unwrap();
        let preds = model.predict_batch(ds.features()).unwrap();
        assert!(
            mse(ds.targets(), &preds) < 0.05,
            "mse {}",
            mse(ds.targets(), &preds)
        );
    }

    #[test]
    fn learned_epsilon_tracks_noise_scale() {
        let quiet = NuSvrModel::train(
            &noisy_line(40, 0.05),
            NuSvrParams::new()
                .with_c(50.0)
                .with_nu(0.5)
                .with_kernel(Kernel::Linear),
        )
        .unwrap();
        let loud = NuSvrModel::train(
            &noisy_line(40, 0.8),
            NuSvrParams::new()
                .with_c(50.0)
                .with_nu(0.5)
                .with_kernel(Kernel::Linear),
        )
        .unwrap();
        assert!(quiet.learned_epsilon() >= 0.0);
        assert!(
            loud.learned_epsilon() > quiet.learned_epsilon(),
            "noisy data must learn a wider tube: {} vs {}",
            loud.learned_epsilon(),
            quiet.learned_epsilon()
        );
    }

    #[test]
    fn smaller_nu_means_fewer_support_vectors() {
        let ds = noisy_line(40, 0.3);
        let sparse = NuSvrModel::train(
            &ds,
            NuSvrParams::new()
                .with_c(10.0)
                .with_nu(0.1)
                .with_kernel(Kernel::rbf(0.5)),
        )
        .unwrap();
        let dense = NuSvrModel::train(
            &ds,
            NuSvrParams::new()
                .with_c(10.0)
                .with_nu(0.9)
                .with_kernel(Kernel::rbf(0.5)),
        )
        .unwrap();
        assert!(
            sparse.num_support_vectors() <= dense.num_support_vectors(),
            "{} vs {}",
            sparse.num_support_vectors(),
            dense.num_support_vectors()
        );
        // ν lower-bounds the SV fraction.
        assert!(dense.num_support_vectors() as f64 >= 0.9 * ds.len() as f64 - 2.0);
    }

    #[test]
    fn comparable_accuracy_to_epsilon_svr() {
        let ds = noisy_line(40, 0.2);
        let nu = NuSvrModel::train(
            &ds,
            NuSvrParams::new()
                .with_c(50.0)
                .with_nu(0.5)
                .with_kernel(Kernel::rbf(0.5)),
        )
        .unwrap();
        let eps = crate::svr::SvrModel::train(
            &ds,
            crate::svr::SvrParams::new()
                .with_c(50.0)
                .with_epsilon(0.2)
                .with_kernel(Kernel::rbf(0.5)),
        )
        .unwrap();
        let nu_preds = nu.predict_batch(ds.features()).unwrap();
        let eps_preds = eps.predict_batch(ds.features()).unwrap();
        let (a, b) = (mse(ds.targets(), &nu_preds), mse(ds.targets(), &eps_preds));
        assert!(
            a < 2.0 * b + 0.05,
            "nu-svr mse {a} much worse than eps-svr {b}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = noisy_line(10, 0.1);
        assert!(NuSvrModel::train(&ds, NuSvrParams::new().with_nu(0.0)).is_err());
        assert!(NuSvrModel::train(&ds, NuSvrParams::new().with_nu(1.5)).is_err());
        assert!(NuSvrModel::train(&ds, NuSvrParams::new().with_c(-1.0)).is_err());
        assert!(matches!(
            NuSvrModel::train(&Dataset::new(1), NuSvrParams::new()),
            Err(SvmError::EmptyDataset)
        ));
    }
}
