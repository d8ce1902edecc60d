//! ε-Support Vector Regression — the model family the paper trains with
//! LIBSVM 3.17 to predict the stable CPU temperature ψ_stable from the
//! Eq. (2) feature vector.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::expansion::Expansion;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::smo::{self, KernelRows, SolveOptions};
use serde::{Deserialize, Serialize};
use vmtherm_obs::{self as obs, names, ObsEvent};

static OBS_SOLVE_NS: obs::LazyHistogram =
    obs::LazyHistogram::new(names::METRIC_SMO_SOLVE_NS, obs::Histogram::ns_buckets);
static OBS_ITERATIONS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_SMO_ITERATIONS);
static OBS_CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_KERNEL_CACHE_HITS);
static OBS_CACHE_MISSES: obs::LazyCounter =
    obs::LazyCounter::new(names::METRIC_KERNEL_CACHE_MISSES);

/// Hyper-parameters for ε-SVR training.
///
/// Use the builder-style setters; the defaults match LIBSVM's
/// (`C = 1`, `ε = 0.1`, RBF kernel, tolerance `1e-3`).
///
/// ```
/// use vmtherm_svm::kernel::Kernel;
/// use vmtherm_svm::svr::SvrParams;
///
/// let params = SvrParams::new()
///     .with_c(8.0)
///     .with_epsilon(0.05)
///     .with_kernel(Kernel::rbf(0.5));
/// assert_eq!(params.c(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    c: f64,
    epsilon: f64,
    kernel: Kernel,
    tolerance: f64,
    cache_rows: usize,
    shrinking: bool,
    prenorm_rows: bool,
}

impl SvrParams {
    /// LIBSVM-default parameters.
    #[must_use]
    pub fn new() -> Self {
        SvrParams {
            c: 1.0,
            epsilon: 0.1,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            cache_rows: smo::CACHE_ROWS,
            shrinking: true,
            prenorm_rows: true,
        }
    }

    /// Sets the regularisation constant `C` (> 0).
    #[must_use]
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the ε-insensitive tube half-width (>= 0).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
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

    /// Sets the kernel row-cache capacity (rows).
    #[must_use]
    pub fn with_cache_rows(mut self, cache_rows: usize) -> Self {
        self.cache_rows = cache_rows;
        self
    }

    /// Enables or disables the shrinking heuristic (LIBSVM `-h`); on by
    /// default. The solution is the same either way (up to tolerance) —
    /// shrinking only changes how much work the solver does.
    #[must_use]
    pub fn with_shrinking(mut self, shrinking: bool) -> Self {
        self.shrinking = shrinking;
        self
    }

    /// Enables or disables the precomputed-norm RBF row pass inside the
    /// solver ([`Kernel::eval_row_batch_prenorm`]); on by default. The
    /// prenorm pass agrees with the scalar kernel only to ≤1e-12 relative
    /// tolerance — far inside the solver's KKT stopping tolerance, so the
    /// trained model is equivalent — but the dual variables may differ in
    /// their last bits. Disable to reproduce pre-adoption solves exactly.
    /// Prediction always uses the exact kernel either way.
    #[must_use]
    pub fn with_prenorm_rows(mut self, prenorm_rows: bool) -> Self {
        self.prenorm_rows = prenorm_rows;
        self
    }

    /// Regularisation constant `C`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Tube half-width ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Kernel function.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// KKT tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::invalid(
                "c",
                format!("must be > 0, got {}", self.c),
            ));
        }
        if !(self.epsilon >= 0.0) {
            return Err(SvmError::invalid(
                "epsilon",
                format!("must be >= 0, got {}", self.epsilon),
            ));
        }
        if !(self.tolerance > 0.0) {
            return Err(SvmError::invalid(
                "tolerance",
                format!("must be > 0, got {}", self.tolerance),
            ));
        }
        self.kernel.validate()
    }
}

impl Default for SvrParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained ε-SVR model: support vectors, their coefficients
/// `β_i = α_i − α*_i`, and the bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrModel {
    expansion: Expansion,
    iterations: usize,
    converged: bool,
}

impl SvrModel {
    /// Trains an ε-SVR on `train` with the given parameters.
    ///
    /// # Errors
    ///
    /// [`SvmError::EmptyDataset`] for an empty training set and
    /// [`SvmError::InvalidParameter`] for out-of-domain hyper-parameters.
    /// A solver that hits its iteration cap still returns a model
    /// (matching LIBSVM, which warns and continues); [`SvrModel::converged`]
    /// reports the status.
    ///
    /// ```
    /// use vmtherm_svm::data::Dataset;
    /// use vmtherm_svm::kernel::Kernel;
    /// use vmtherm_svm::svr::{SvrModel, SvrParams};
    ///
    /// // y = 2x, four points.
    /// let ds = Dataset::from_parts(
    ///     vmtherm_svm::matrix::DenseMatrix::from_nested(
    ///         vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
    ///     )?,
    ///     vec![0.0, 2.0, 4.0, 6.0],
    /// )?;
    /// let params = SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::Linear);
    /// let model = SvrModel::train(&ds, params)?;
    /// assert!((model.predict(&[1.5])? - 3.0).abs() < 0.1);
    /// # Ok::<(), vmtherm_svm::error::SvmError>(())
    /// ```
    pub fn train(train: &Dataset, params: SvrParams) -> Result<Self, SvmError> {
        params.validate()?;
        if train.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        let l = train.len();
        let points = train.features();
        let y_targets = train.targets();

        // ε-SVR dual in expanded form (LIBSVM's solve_epsilon_svr):
        // variables 0..l are α (sign +1) with p_i = ε − y_i,
        // variables l..2l are α* (sign −1) with p_i = ε + y_i.
        let mut p = Vec::with_capacity(2 * l);
        let mut signs = Vec::with_capacity(2 * l);
        for &yi in y_targets {
            p.push(params.epsilon - yi);
        }
        for &yi in y_targets {
            p.push(params.epsilon + yi);
        }
        signs.extend(std::iter::repeat_n(1.0, l));
        signs.extend(std::iter::repeat_n(-1.0, l));
        let c = vec![params.c; 2 * l];

        let mut q = KernelRows::new(params.kernel, points, params.cache_rows)
            .with_prenorm_rows(params.prenorm_rows);
        let span = obs::span(names::SPAN_SMO_SOLVE);
        let timer = OBS_SOLVE_NS.start_timer();
        let solution = smo::solve(
            &mut q,
            &p,
            &signs,
            &c,
            vec![0.0; 2 * l],
            SolveOptions {
                tolerance: params.tolerance,
                shrinking: params.shrinking,
                ..SolveOptions::default()
            },
        );
        let dur_ns = timer.stop().unwrap_or(0);
        drop(span);
        let (cache_hits, cache_misses) = q.cache_stats();
        OBS_ITERATIONS.add(solution.iterations as u64);
        OBS_CACHE_HITS.add(cache_hits);
        OBS_CACHE_MISSES.add(cache_misses);
        obs::emit_with(|| ObsEvent::SmoSolve {
            n: l,
            iterations: solution.iterations,
            converged: solution.converged,
            dur_ns,
            cache_hits,
            cache_misses,
        });

        // β_i = α_i − α*_i; keep only support vectors (β != 0).
        let mut support_vectors = DenseMatrix::with_cols(train.dim());
        let mut coefficients = Vec::new();
        for i in 0..l {
            let beta = solution.alpha[i] - solution.alpha[l + i];
            if beta != 0.0 {
                support_vectors.push_row(points.row(i));
                coefficients.push(beta);
            }
        }

        Ok(SvrModel {
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

    /// Predicts the target for one feature vector.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if `x.len()` differs from the
    /// training dimensionality.
    pub fn predict(&self, x: &[f64]) -> Result<f64, SvmError> {
        self.expansion.value(x)
    }

    /// Predicts targets for every row of a feature matrix, evaluating one
    /// kernel row per query into a reused scratch buffer. Bit-identical to
    /// calling [`SvrModel::predict`] per row.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the matrix width differs from the
    /// training dimensionality.
    pub fn predict_batch(&self, queries: &DenseMatrix) -> Result<Vec<f64>, SvmError> {
        self.expansion.values(queries)
    }

    /// Predicts targets for every sample of a dataset.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the dataset dimensionality
    /// differs from the model's.
    pub fn predict_dataset(&self, ds: &Dataset) -> Result<Vec<f64>, SvmError> {
        self.predict_batch(ds.features())
    }

    /// Number of support vectors retained.
    #[must_use]
    pub fn num_support_vectors(&self) -> usize {
        self.expansion.support_vectors().rows()
    }

    /// The retained support vectors, one per matrix row.
    #[must_use]
    pub fn support_vectors(&self) -> &DenseMatrix {
        self.expansion.support_vectors()
    }

    /// Dual coefficients `alpha_i - alpha_i*`, aligned with
    /// [`SvrModel::support_vectors`] rows.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        self.expansion.coefficients()
    }

    /// The bias term `b`.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.expansion.bias()
    }

    /// The kernel the model was trained with.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.expansion.kernel()
    }

    /// Feature dimensionality the model expects.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.expansion.dim()
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

    /// Rebuilds a model from serialised parts, validating consistency.
    pub(crate) fn from_parts(
        kernel: Kernel,
        support_vectors: DenseMatrix,
        coefficients: Vec<f64>,
        bias: f64,
        dim: usize,
    ) -> Result<Self, SvmError> {
        Ok(SvrModel {
            expansion: Expansion::new(kernel, support_vectors, coefficients, bias, dim)?,
            iterations: 0,
            converged: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn nested_dataset(xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Dataset {
        Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    fn line_dataset() -> Dataset {
        // y = 3x − 1 over a few points.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 1.0).collect();
        nested_dataset(xs, ys)
    }

    #[test]
    fn fits_linear_function_with_linear_kernel() {
        let params = SvrParams::new()
            .with_c(1000.0)
            .with_epsilon(0.01)
            .with_kernel(Kernel::Linear);
        let model = SvrModel::train(&line_dataset(), params).unwrap();
        assert!(model.converged());
        for x in [0.25, 1.7, 4.2] {
            let want = 3.0 * x - 1.0;
            assert!((model.predict(&[x]).unwrap() - want).abs() < 0.1, "x={x}");
        }
    }

    #[test]
    fn training_predictions_within_epsilon_tube() {
        // With large C the training residuals must be within ~ε.
        let ds = line_dataset();
        let eps = 0.05;
        let params = SvrParams::new()
            .with_c(1e4)
            .with_epsilon(eps)
            .with_kernel(Kernel::Linear);
        let model = SvrModel::train(&ds, params).unwrap();
        for (x, y) in ds.iter() {
            let r = (model.predict(x).unwrap() - y).abs();
            assert!(r <= eps + 0.02, "residual {r} exceeds tube");
        }
    }

    #[test]
    fn rbf_fits_nonlinear_function() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 5.0 + 20.0).collect();
        let ds = nested_dataset(xs, ys);
        let params = SvrParams::new()
            .with_c(100.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.5));
        let model = SvrModel::train(&ds, params).unwrap();
        let preds = model.predict_dataset(&ds).unwrap();
        assert!(
            mse(ds.targets(), &preds) < 0.05,
            "mse = {}",
            mse(ds.targets(), &preds)
        );
    }

    #[test]
    fn single_sample_predicts_its_target() {
        let ds = nested_dataset(vec![vec![1.0, 2.0]], vec![42.0]);
        let model = SvrModel::train(&ds, SvrParams::new()).unwrap();
        assert!((model.predict(&[1.0, 2.0]).unwrap() - 42.0).abs() <= 0.1 + 1e-9);
    }

    #[test]
    fn constant_targets_yield_constant_model() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let ds = nested_dataset(xs, vec![7.0; 8]);
        let model = SvrModel::train(&ds, SvrParams::new()).unwrap();
        // All targets inside one tube: no support vectors needed, bias ≈ 7.
        assert!((model.predict(&[3.5]).unwrap() - 7.0).abs() < 0.2);
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = line_dataset();
        assert!(matches!(
            SvrModel::train(&ds, SvrParams::new().with_c(0.0)),
            Err(SvmError::InvalidParameter { name: "c", .. })
        ));
        assert!(matches!(
            SvrModel::train(&ds, SvrParams::new().with_epsilon(-1.0)),
            Err(SvmError::InvalidParameter {
                name: "epsilon",
                ..
            })
        ));
        assert!(matches!(
            SvrModel::train(&ds, SvrParams::new().with_kernel(Kernel::rbf(0.0))),
            Err(SvmError::InvalidParameter { name: "gamma", .. })
        ));
        assert!(matches!(
            SvrModel::train(&ds, SvrParams::new().with_tolerance(0.0)),
            Err(SvmError::InvalidParameter {
                name: "tolerance",
                ..
            })
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        let ds = Dataset::new(1);
        assert!(matches!(
            SvrModel::train(&ds, SvrParams::new()),
            Err(SvmError::EmptyDataset)
        ));
    }

    #[test]
    fn predict_wrong_dim_errors() {
        let model = SvrModel::train(&line_dataset(), SvrParams::new()).unwrap();
        assert!(matches!(
            model.predict(&[1.0, 2.0]),
            Err(SvmError::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        ));
        let queries = DenseMatrix::from_nested(vec![vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            model.predict_batch(&queries),
            Err(SvmError::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn support_vector_count_bounded_by_samples() {
        let ds = line_dataset();
        let model = SvrModel::train(&ds, SvrParams::new()).unwrap();
        assert!(model.num_support_vectors() <= ds.len());
    }

    #[test]
    fn larger_epsilon_gives_sparser_model() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.3]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].cos() * 3.0).collect();
        let ds = nested_dataset(xs, ys);
        let tight = SvrModel::train(
            &ds,
            SvrParams::new()
                .with_epsilon(0.001)
                .with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        let loose = SvrModel::train(
            &ds,
            SvrParams::new()
                .with_epsilon(0.5)
                .with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        assert!(loose.num_support_vectors() <= tight.num_support_vectors());
    }
}
