//! # vmtherm-svm
//!
//! A self-contained support vector machine library: ε-SVR, C-SVC and the
//! one-class SVM, trained by one SMO loop and evaluated through one
//! support-vector expansion; RBF/linear/polynomial/sigmoid kernels, feature
//! scaling, k-fold cross-validation and `easygrid`-style grid search.
//!
//! It stands in for **LIBSVM 3.17 + `easygrid`**, which the paper
//! *"Virtual Machine Level Temperature Profiling and Prediction in Cloud
//! Datacenters"* (Wu et al., ICDCS 2016) uses to learn the stable CPU
//! temperature ψ_stable from the Eq. (2) feature vector
//! `(θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env)`.
//!
//! ## Quick start
//!
//! ```
//! use vmtherm_svm::data::Dataset;
//! use vmtherm_svm::kernel::Kernel;
//! use vmtherm_svm::matrix::DenseMatrix;
//! use vmtherm_svm::scale::{ScaleMethod, Scaler};
//! use vmtherm_svm::svr::{SvrModel, SvrParams};
//!
//! # fn main() -> Result<(), vmtherm_svm::error::SvmError> {
//! // A toy regression problem: y = x0 + 2*x1.
//! let train = Dataset::from_parts(
//!     DenseMatrix::from_nested(vec![
//!         vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![0.5, 0.5],
//!     ])?,
//!     vec![0.0, 1.0, 2.0, 3.0, 1.5],
//! )?;
//!
//! // Scale features, train, predict — the same pipeline `svm-scale` +
//! // `svm-train` + `svm-predict` implement.
//! let scaler = Scaler::fit(&train, ScaleMethod::MinMax);
//! let scaled = scaler.transform_dataset(&train);
//! let params = SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::Linear);
//! let model = SvrModel::train(&scaled, params)?;
//!
//! let x = scaler.transform(&[0.25, 0.75]);
//! assert!((model.predict(&x)? - 1.75).abs() < 0.2);
//!
//! // Batch prediction over a whole feature matrix at once.
//! let queries = scaler.transform_matrix(&DenseMatrix::from_nested(vec![
//!     vec![0.25, 0.75], vec![1.0, 0.0],
//! ])?);
//! assert_eq!(model.predict_batch(&queries)?.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! - [`data`] — datasets and the libsvm text format
//! - [`matrix`] — the flat row-major [`matrix::DenseMatrix`] feature storage
//! - [`scale`] — `svm-scale`-style feature scaling
//! - [`kernel`] — kernel functions and the solver's row cache
//! - [`svr`] / [`svc`] / [`oneclass`] — ε-regression, classification and
//!   novelty-detection models, sharing one support-vector expansion
//!   `f(x) = Σ cᵢ·K(svᵢ, x) + b`
//! - [`cv`] / [`grid`] — 10-fold CV and `easygrid` parameter search
//! - [`metrics`] — MSE and friends (the paper's reporting metric)
//! - [`model_io`] — LIBSVM-style model files
//! - [`linalg`] — dot products, norms, distances and moments over slices

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` rejects NaN as well as non-positive values — the validation
// idiom used throughout; and numeric solver loops index several parallel
// arrays at once, where iterator zips would obscure the maths.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod cv;
pub mod data;
pub mod error;
mod expansion;
pub mod grid;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod metrics;
pub mod model_io;
pub mod oneclass;
pub mod scale;
mod smo;
pub mod svc;
pub mod svr;

pub use data::Dataset;
pub use error::SvmError;
pub use kernel::Kernel;
pub use matrix::DenseMatrix;
pub use oneclass::{OneClassModel, OneClassParams};
pub use scale::{ScaleMethod, Scaler};
pub use svc::{SvcModel, SvcParams};
pub use svr::{SvrModel, SvrParams};
