//! The support-vector expansion every trained machine evaluates:
//! `f(x) = Σ cᵢ·K(svᵢ, x) + bias`.
//!
//! ε-SVR stores `cᵢ = αᵢ − α*ᵢ`, C-SVC `cᵢ = yᵢαᵢ` and one-class `cᵢ = αᵢ`,
//! each with `bias = −rho`. IEEE 754 defines `s − rho` as `s + (−rho)`, so
//! one-class decision values keep the bits of LIBSVM's `s − rho`.

use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;

/// Kernel, support vectors (one per matrix row), their coefficients, the
/// bias and the feature dimensionality queries must have.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Expansion {
    kernel: Kernel,
    support_vectors: DenseMatrix,
    coefficients: Vec<f64>,
    bias: f64,
    dim: usize,
}

impl Expansion {
    /// Builds an expansion, checking that there is one coefficient per
    /// support vector and that the support vectors are `dim` wide.
    pub(crate) fn new(
        kernel: Kernel,
        support_vectors: DenseMatrix,
        coefficients: Vec<f64>,
        bias: f64,
        dim: usize,
    ) -> Result<Self, SvmError> {
        if support_vectors.rows() != coefficients.len() {
            return Err(SvmError::DimensionMismatch {
                expected: support_vectors.rows(),
                actual: coefficients.len(),
            });
        }
        if !support_vectors.is_empty() && support_vectors.cols() != dim {
            return Err(SvmError::DimensionMismatch {
                expected: dim,
                actual: support_vectors.cols(),
            });
        }
        Ok(Expansion {
            kernel,
            support_vectors,
            coefficients,
            bias,
            dim,
        })
    }

    fn check_dim(&self, actual: usize) -> Result<(), SvmError> {
        if actual == self.dim {
            Ok(())
        } else {
            Err(SvmError::DimensionMismatch {
                expected: self.dim,
                actual,
            })
        }
    }

    /// `f(x)` for one query, one [`Kernel::eval`] per support vector.
    pub(crate) fn value(&self, x: &[f64]) -> Result<f64, SvmError> {
        self.check_dim(x.len())?;
        Ok(self
            .support_vectors
            .iter()
            .zip(&self.coefficients)
            .map(|(sv, c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias)
    }

    /// `f(x)` for every row of `queries`, one [`Kernel::eval_row_batch`]
    /// per query into a reused scratch row. Bit-identical to
    /// [`Expansion::value`] per row.
    pub(crate) fn values(&self, queries: &DenseMatrix) -> Result<Vec<f64>, SvmError> {
        self.check_dim(queries.cols())?;
        let mut scratch = vec![0.0; self.support_vectors.rows()];
        let mut out = Vec::with_capacity(queries.rows());
        for x in queries {
            self.kernel
                .eval_row_batch(x, &self.support_vectors, &mut scratch);
            out.push(
                scratch
                    .iter()
                    .zip(&self.coefficients)
                    .map(|(k, c)| c * k)
                    .sum::<f64>()
                    + self.bias,
            );
        }
        Ok(out)
    }

    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }

    pub(crate) fn support_vectors(&self) -> &DenseMatrix {
        &self.support_vectors
    }

    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    pub(crate) fn bias(&self) -> f64 {
        self.bias
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }
}
