//! Kernel functions for support vector machines.
//!
//! The paper trains its stable-temperature model with LIBSVM using the
//! **Radial Basis Function** kernel; linear, polynomial and sigmoid kernels
//! are provided as well so the benchmark harness can ablate the choice
//! (see `DESIGN.md` §6.2).

use crate::error::SvmError;
use crate::linalg::{dot, squared_distance};
use crate::matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

/// A kernel function `K(x, z)` over dense feature vectors.
///
/// All variants are cheap `Copy` values; the expensive state (kernel rows)
/// is cached by the solver, not by the kernel itself.
///
/// ```
/// use vmtherm_svm::kernel::Kernel;
///
/// let k = Kernel::rbf(0.5);
/// let same = k.eval(&[1.0, 2.0], &[1.0, 2.0]);
/// assert!((same - 1.0).abs() < 1e-12); // RBF of identical points is 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `K(x, z) = x · z`
    Linear,
    /// `K(x, z) = (gamma * x · z + coef0)^degree`
    Polynomial {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant inside the power.
        coef0: f64,
        /// Polynomial degree (LIBSVM default: 3).
        degree: u32,
    },
    /// `K(x, z) = exp(-gamma * |x - z|^2)` — the paper's choice.
    Rbf {
        /// Inverse width of the Gaussian.
        gamma: f64,
    },
    /// `K(x, z) = tanh(gamma * x · z + coef0)`
    Sigmoid {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant inside the tanh.
        coef0: f64,
    },
}

impl Kernel {
    /// Convenience constructor for the RBF kernel.
    #[must_use]
    pub fn rbf(gamma: f64) -> Self {
        Kernel::Rbf { gamma }
    }

    /// Convenience constructor for the polynomial kernel with LIBSVM-style
    /// defaults (`coef0 = 0`, `degree = 3`).
    #[must_use]
    pub fn polynomial(gamma: f64) -> Self {
        Kernel::Polynomial {
            gamma,
            coef0: 0.0,
            degree: 3,
        }
    }

    /// Evaluates `K(x, z)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `z` have different lengths.
    #[must_use]
    pub fn eval(&self, x: &[f64], z: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(x, z),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(x, z) + coef0).powi(degree as i32),
            Kernel::Rbf { gamma } => (-gamma * squared_distance(x, z)).exp(),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * dot(x, z) + coef0).tanh(),
        }
    }

    /// Evaluates one kernel row in a single pass: `out[i] = K(x, m_i)` for
    /// every row `m_i` of `m`.
    ///
    /// The kernel dispatch is hoisted out of the row loop and the matrix is
    /// walked in row-major order, so the pass streams through one
    /// contiguous allocation, four rows at a time (the rows'
    /// independent accumulator chains pipeline where the scalar path
    /// serialises on one). Each entry is computed with exactly the same
    /// arithmetic, in the same order, as [`Kernel::eval`], so results are
    /// bit-identical to the scalar path. Callers reuse `out` as a scratch
    /// buffer across rows.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != m.rows()` or `x.len() != m.cols()` (for a
    /// non-empty matrix).
    pub fn eval_row_batch(&self, x: &[f64], m: &DenseMatrix, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            m.rows(),
            "eval_row_batch: out length {} != matrix rows {}",
            out.len(),
            m.rows()
        );
        if m.rows() > 0 {
            assert_eq!(
                x.len(),
                m.cols(),
                "eval_row_batch: query dim {} != matrix width {}",
                x.len(),
                m.cols()
            );
        }
        match *self {
            Kernel::Linear => dot_rows(x, m, out),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                dot_rows(x, m, out);
                for o in out.iter_mut() {
                    *o = (gamma * *o + coef0).powi(degree as i32);
                }
            }
            Kernel::Rbf { gamma } => {
                squared_distance_rows(x, m, out);
                for o in out.iter_mut() {
                    *o = (-gamma * *o).exp();
                }
            }
            Kernel::Sigmoid { gamma, coef0 } => {
                dot_rows(x, m, out);
                for o in out.iter_mut() {
                    *o = (gamma * *o + coef0).tanh();
                }
            }
        }
    }

    /// Like [`Kernel::eval_row_batch`], but the RBF kernel rides the dot
    /// row kernel using precomputed per-row squared norms
    /// ([`DenseMatrix::row_squared_norms`]): each squared distance is
    /// recovered as `‖x‖² + ‖r‖² − 2·x·r` from a single dot pass over
    /// the matrix.
    ///
    /// This trades the scalar-bitwise contract for speed: the norm
    /// expansion reassociates the arithmetic, so RBF values agree with
    /// [`Kernel::eval`] only to floating-point tolerance (relative error
    /// on the order of machine epsilon times the norm magnitudes; worst
    /// when `x` nearly coincides with a row and the subtraction
    /// cancels). Negative rounding residue is clamped to zero so the
    /// result never exceeds `K(x, x) = 1`. Callers that need exact
    /// agreement with the scalar path stay on `eval_row_batch`.
    ///
    /// Non-RBF kernels have no distance pass to save and delegate to
    /// [`Kernel::eval_row_batch`] unchanged (bitwise identical);
    /// `row_norms` is ignored there.
    ///
    /// # Panics
    ///
    /// Panics on the [`Kernel::eval_row_batch`] shape mismatches, and
    /// (for RBF) if `row_norms` does not have one entry per matrix row.
    pub fn eval_row_batch_prenorm(
        &self,
        x: &[f64],
        m: &DenseMatrix,
        row_norms: &[f64],
        out: &mut [f64],
    ) {
        let Kernel::Rbf { gamma } = *self else {
            self.eval_row_batch(x, m, out);
            return;
        };
        assert_eq!(
            row_norms.len(),
            m.rows(),
            "eval_row_batch_prenorm: {} norms for {} rows",
            row_norms.len(),
            m.rows()
        );
        assert_eq!(
            out.len(),
            m.rows(),
            "eval_row_batch_prenorm: out length {} != matrix rows {}",
            out.len(),
            m.rows()
        );
        if m.rows() > 0 {
            assert_eq!(
                x.len(),
                m.cols(),
                "eval_row_batch_prenorm: query dim {} != matrix width {}",
                x.len(),
                m.cols()
            );
        }
        dot_rows(x, m, out);
        let x_norm = dot(x, x);
        for (o, &r_norm) in out.iter_mut().zip(row_norms) {
            let d2 = (x_norm + r_norm - 2.0 * *o).max(0.0);
            *o = (-gamma * d2).exp();
        }
    }

    /// The `gamma` hyper-parameter if this kernel has one.
    #[must_use]
    pub fn gamma(&self) -> Option<f64> {
        match *self {
            Kernel::Linear => None,
            Kernel::Polynomial { gamma, .. }
            | Kernel::Rbf { gamma }
            | Kernel::Sigmoid { gamma, .. } => Some(gamma),
        }
    }

    /// Rejects a non-positive or NaN `gamma`: the kernel check every
    /// trainer's parameter validation shares.
    pub(crate) fn validate(&self) -> Result<(), SvmError> {
        match self.gamma() {
            Some(g) if !(g > 0.0) => {
                Err(SvmError::invalid("gamma", format!("must be > 0, got {g}")))
            }
            _ => Ok(()),
        }
    }

    /// Returns a copy of this kernel with `gamma` replaced, leaving other
    /// parameters untouched. A no-op for [`Kernel::Linear`].
    #[must_use]
    pub fn with_gamma(self, new_gamma: f64) -> Self {
        match self {
            Kernel::Linear => Kernel::Linear,
            Kernel::Polynomial { coef0, degree, .. } => Kernel::Polynomial {
                gamma: new_gamma,
                coef0,
                degree,
            },
            Kernel::Rbf { .. } => Kernel::Rbf { gamma: new_gamma },
            Kernel::Sigmoid { coef0, .. } => Kernel::Sigmoid {
                gamma: new_gamma,
                coef0,
            },
        }
    }
}

/// Cross-row unroll width of [`Kernel::eval_row_batch`]: enough
/// independent accumulator chains to hide the FP-add latency of one, small
/// enough to stay within the register file.
const ROW_UNROLL: usize = 4;

/// `out[i] = dot(x, row_i)` for every row of `m`, [`ROW_UNROLL`] rows per
/// iteration. Each row's products accumulate in their own register in
/// index order — the exact additions [`dot`] performs — so every entry is
/// bit-identical to the scalar path; the unroll only interleaves
/// independent rows.
fn dot_rows(x: &[f64], m: &DenseMatrix, out: &mut [f64]) {
    let cols = m.cols();
    let data = m.as_slice();
    let quads = m.rows() / ROW_UNROLL;
    for q in 0..quads {
        let base = q * ROW_UNROLL * cols;
        let r0 = &data[base..base + cols];
        let r1 = &data[base + cols..base + 2 * cols];
        let r2 = &data[base + 2 * cols..base + 3 * cols];
        let r3 = &data[base + 3 * cols..base + 4 * cols];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
        for (k, &xk) in x.iter().enumerate() {
            a0 += xk * r0[k];
            a1 += xk * r1[k];
            a2 += xk * r2[k];
            a3 += xk * r3[k];
        }
        out[q * ROW_UNROLL] = a0;
        out[q * ROW_UNROLL + 1] = a1;
        out[q * ROW_UNROLL + 2] = a2;
        out[q * ROW_UNROLL + 3] = a3;
    }
    for i in quads * ROW_UNROLL..m.rows() {
        out[i] = dot(x, m.row(i));
    }
}

/// `out[i] = squared_distance(x, row_i)` for every row of `m`, unrolled
/// like [`dot_rows`] and equally bit-identical per row.
fn squared_distance_rows(x: &[f64], m: &DenseMatrix, out: &mut [f64]) {
    let cols = m.cols();
    let data = m.as_slice();
    let quads = m.rows() / ROW_UNROLL;
    for q in 0..quads {
        let base = q * ROW_UNROLL * cols;
        let r0 = &data[base..base + cols];
        let r1 = &data[base + cols..base + 2 * cols];
        let r2 = &data[base + 2 * cols..base + 3 * cols];
        let r3 = &data[base + 3 * cols..base + 4 * cols];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
        for (k, &xk) in x.iter().enumerate() {
            let (d0, d1, d2, d3) = (xk - r0[k], xk - r1[k], xk - r2[k], xk - r3[k]);
            a0 += d0 * d0;
            a1 += d1 * d1;
            a2 += d2 * d2;
            a3 += d3 * d3;
        }
        out[q * ROW_UNROLL] = a0;
        out[q * ROW_UNROLL + 1] = a1;
        out[q * ROW_UNROLL + 2] = a2;
        out[q * ROW_UNROLL + 3] = a3;
    }
    for i in quads * ROW_UNROLL..m.rows() {
        out[i] = squared_distance(x, m.row(i));
    }
}

impl Default for Kernel {
    /// The paper's kernel: RBF with `gamma = 1.0` (tuned by grid search in
    /// practice).
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Kernel::Linear => write!(f, "linear"),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                write!(f, "poly(gamma={gamma}, coef0={coef0}, degree={degree})")
            }
            Kernel::Rbf { gamma } => write!(f, "rbf(gamma={gamma})"),
            Kernel::Sigmoid { gamma, coef0 } => {
                write!(f, "sigmoid(gamma={gamma}, coef0={coef0})")
            }
        }
    }
}

/// An LRU cache of kernel-matrix rows.
///
/// The SMO solver touches rows `i` and `j` of the (implicit) kernel matrix on
/// every iteration; recomputing a row costs `O(n · d)`. Training sets in this
/// project are small enough that most rows fit in cache, but the LRU bound
/// keeps memory use predictable for large sweeps.
#[derive(Debug)]
pub struct RowCache {
    rows: Vec<Option<Vec<f64>>>,
    /// Recency stamps; larger = more recent.
    stamps: Vec<u64>,
    clock: u64,
    cached: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl RowCache {
    /// Creates a cache able to hold up to `capacity` rows of an `n`-row
    /// matrix. A `capacity` of zero is clamped to one so the solver can
    /// always hold its working row.
    #[must_use]
    pub fn new(n: usize, capacity: usize) -> Self {
        RowCache {
            rows: vec![None; n],
            stamps: vec![0; n],
            clock: 0,
            cached: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns row `i`, computing it with `compute` on a miss.
    ///
    /// The returned slice borrows the cache until its next call. The SMO
    /// solver copies one working row into a buffer it reuses and reads
    /// the partner row in place, so holding two rows at once allocates
    /// nothing.
    pub fn row<F>(&mut self, i: usize, compute: F) -> &[f64]
    where
        F: FnOnce() -> Vec<f64>,
    {
        self.clock += 1;
        if self.rows[i].is_none() {
            self.misses += 1;
            if self.cached >= self.capacity {
                self.evict_lru(i);
            }
            self.rows[i] = Some(compute());
            self.cached += 1;
        } else {
            self.hits += 1;
        }
        self.stamps[i] = self.clock;
        // The row was inserted just above on a miss, so the slot is always
        // occupied; the empty-slice arm exists only to avoid a panic site.
        self.rows[i].as_deref().unwrap_or(&[])
    }

    fn evict_lru(&mut self, keep: usize) {
        let victim = self
            .rows
            .iter()
            .enumerate()
            .filter(|(idx, r)| r.is_some() && *idx != keep)
            .min_by_key(|(idx, _)| self.stamps[*idx])
            .map(|(idx, _)| idx);
        if let Some(v) = victim {
            self.rows[v] = None;
            self.cached -= 1;
        }
    }

    /// Number of cache hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of rows currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::rbf(0.7);
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 1.0).abs() < 1e-15);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn rbf_matches_closed_form() {
        let k = Kernel::rbf(0.5);
        let v = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((v - (-0.5 * 2.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn polynomial_degree_one_matches_scaled_dot() {
        let k = Kernel::Polynomial {
            gamma: 2.0,
            coef0: 1.0,
            degree: 1,
        };
        assert_eq!(k.eval(&[1.0], &[3.0]), 7.0);
    }

    #[test]
    fn polynomial_default_degree_is_three() {
        let k = Kernel::polynomial(1.0);
        assert_eq!(k.eval(&[1.0], &[2.0]), 8.0);
    }

    #[test]
    fn sigmoid_bounded() {
        let k = Kernel::Sigmoid {
            gamma: 10.0,
            coef0: 0.0,
        };
        let v = k.eval(&[5.0], &[5.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn with_gamma_replaces_only_gamma() {
        let k = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 2.0,
            degree: 4,
        };
        match k.with_gamma(9.0) {
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                assert_eq!(gamma, 9.0);
                assert_eq!(coef0, 2.0);
                assert_eq!(degree, 4);
            }
            other => panic!("unexpected kernel {other:?}"),
        }
        assert_eq!(Kernel::Linear.with_gamma(3.0), Kernel::Linear);
    }

    #[test]
    fn gamma_accessor() {
        assert_eq!(Kernel::Linear.gamma(), None);
        assert_eq!(Kernel::rbf(0.25).gamma(), Some(0.25));
    }

    #[test]
    fn eval_row_batch_matches_scalar_eval_bitwise() {
        // In the second case x is all exact zeros, so every product is a
        // signed zero and the sum's sign depends on where it starts. Five
        // rows put four in the unrolled quad and one in the remainder.
        let cases = [
            (
                vec![
                    vec![0.1, -0.4, 2.0],
                    vec![1.3, 0.0, -5.5],
                    vec![-2.2, 3.1, 0.7],
                ],
                vec![0.9, -1.1, 0.3],
            ),
            (
                vec![
                    vec![4.0_f64.sin(), -0.5],
                    vec![0.0, 0.0],
                    vec![-1.5, 2.0],
                    vec![0.25, -3.0],
                    vec![4.0_f64.sin(), -0.5],
                ],
                vec![0.0, 0.0],
            ),
        ];
        for (rows, x) in cases {
            let m = DenseMatrix::from_nested(rows).unwrap();
            for kernel in [
                Kernel::Linear,
                Kernel::rbf(0.7),
                Kernel::polynomial(0.5),
                Kernel::Sigmoid {
                    gamma: 0.2,
                    coef0: 0.1,
                },
            ] {
                let mut out = vec![0.0; m.rows()];
                kernel.eval_row_batch(&x, &m, &mut out);
                for (o, row) in out.iter().zip(&m) {
                    assert_eq!(
                        o.to_bits(),
                        kernel.eval(&x, row).to_bits(),
                        "{kernel:?} at x = {x:?}, row = {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prenorm_rbf_matches_scalar_eval_within_tolerance() {
        // 11 rows exercise both the unrolled quads and the remainder.
        let m = DenseMatrix::from_nested(
            (0..11)
                .map(|i| {
                    (0..5)
                        .map(|j| ((i * 5 + j) as f64 * 0.37).sin() * 3.0)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let x: Vec<f64> = (0..5).map(|j| (j as f64 * 0.61).cos() * 2.0).collect();
        let norms = m.row_squared_norms();
        let kernel = Kernel::rbf(0.7);
        let mut out = vec![0.0; m.rows()];
        kernel.eval_row_batch_prenorm(&x, &m, &norms, &mut out);
        for (o, row) in out.iter().zip(&m) {
            let exact = kernel.eval(&x, row);
            assert!(
                (o - exact).abs() <= 1e-12 * exact.max(1.0),
                "prenorm {o} vs scalar {exact}"
            );
        }
    }

    #[test]
    fn prenorm_query_equal_to_a_row_clamps_at_one() {
        // x == row: the expansion cancels to (rounding residue), which
        // must clamp to d² = 0 and K = 1, never exceed it.
        let m = DenseMatrix::from_nested(vec![vec![1.0e8, -2.5e7, 3.3e6], vec![0.5, 0.25, -0.125]])
            .unwrap();
        let x = [1.0e8, -2.5e7, 3.3e6];
        let norms = m.row_squared_norms();
        let mut out = vec![0.0; 2];
        Kernel::rbf(0.9).eval_row_batch_prenorm(&x, &m, &norms, &mut out);
        assert!(out[0] <= 1.0, "K(x, x) = {} exceeds 1", out[0]);
        assert!(out[0] > 0.999_999, "K(x, x) = {} far from 1", out[0]);
    }

    #[test]
    fn prenorm_non_rbf_kernels_stay_bitwise() {
        let m = DenseMatrix::from_nested(vec![
            vec![0.1, -0.4, 2.0],
            vec![1.3, 0.0, -5.5],
            vec![-2.2, 3.1, 0.7],
        ])
        .unwrap();
        let x = [0.9, -1.1, 0.3];
        let norms = m.row_squared_norms();
        for kernel in [
            Kernel::Linear,
            Kernel::polynomial(0.5),
            Kernel::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let mut batch = vec![0.0; m.rows()];
            let mut prenorm = vec![0.0; m.rows()];
            kernel.eval_row_batch(&x, &m, &mut batch);
            kernel.eval_row_batch_prenorm(&x, &m, &norms, &mut prenorm);
            for (a, b) in batch.iter().zip(&prenorm) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "eval_row_batch_prenorm")]
    fn prenorm_wrong_norms_len_panics() {
        let m = DenseMatrix::from_nested(vec![vec![1.0]]).unwrap();
        let mut out = vec![0.0; 1];
        Kernel::rbf(1.0).eval_row_batch_prenorm(&[1.0], &m, &[], &mut out);
    }

    #[test]
    #[should_panic(expected = "eval_row_batch")]
    fn eval_row_batch_wrong_out_len_panics() {
        let m = DenseMatrix::from_nested(vec![vec![1.0]]).unwrap();
        let mut out = vec![0.0; 2];
        Kernel::Linear.eval_row_batch(&[1.0], &m, &mut out);
    }

    #[test]
    fn row_cache_hits_and_misses() {
        let mut cache = RowCache::new(4, 2);
        let r = cache.row(0, || vec![0.0; 4]).to_vec();
        assert_eq!(r.len(), 4);
        let _ = cache.row(0, || panic!("must be cached"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn row_cache_evicts_least_recently_used() {
        let mut cache = RowCache::new(3, 2);
        let _ = cache.row(0, || vec![0.0]);
        let _ = cache.row(1, || vec![1.0]);
        let _ = cache.row(0, || panic!("0 cached")); // refresh 0
        let _ = cache.row(2, || vec![2.0]); // evicts 1
        assert_eq!(cache.resident(), 2);
        let _ = cache.row(1, || vec![1.0]); // recompute: miss
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn row_cache_zero_capacity_clamps() {
        let mut cache = RowCache::new(2, 0);
        let _ = cache.row(0, || vec![0.0]);
        let _ = cache.row(1, || vec![1.0]);
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(Kernel::Linear.to_string(), "linear");
        assert_eq!(Kernel::rbf(2.0).to_string(), "rbf(gamma=2)");
    }
}
