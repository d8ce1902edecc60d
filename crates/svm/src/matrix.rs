//! Flat, row-major dense matrix storage for the feature pipeline.
//!
//! Every feature matrix in this crate — datasets, support vectors, fold
//! copies — lives in one contiguous `Vec<f64>` instead of a
//! `Vec<Vec<f64>>`. Kernel-row evaluation walks the training set once per
//! row, so the nested layout paid one pointer chase (and one heap
//! allocation at construction) per sample; the flat layout streams through
//! a single allocation in row order, which is what the prefetcher wants
//! and what any future SIMD/BLAS backend needs. See `DESIGN.md`
//! §"Data layout".
//!
//! Invariants upheld by construction:
//!
//! * `data.len() == rows * cols` at all times;
//! * every row view returned by [`DenseMatrix::row`] has length `cols`;
//! * a matrix with zero rows still knows its column count, so dimension
//!   checks work before the first sample arrives.

use crate::error::SvmError;
use serde::{Deserialize, Serialize};

/// A dense `rows × cols` matrix of `f64` in row-major order.
///
/// ```
/// use vmtherm_svm::matrix::DenseMatrix;
///
/// let m = DenseMatrix::from_nested(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// # Ok::<(), vmtherm_svm::error::SvmError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl DenseMatrix {
    /// An empty matrix (zero rows) whose future rows will have `cols`
    /// entries.
    #[must_use]
    pub fn with_cols(cols: usize) -> Self {
        DenseMatrix {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Builds a matrix from nested row vectors. This is the designated
    /// boundary constructor for nested-vec data entering the crate; new
    /// code should build flat.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] if the rows disagree in length. An
    /// empty input yields a `0 × 0` matrix.
    pub fn from_nested(nested: Vec<Vec<f64>>) -> Result<Self, SvmError> {
        let cols = nested.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nested.len() * cols);
        for row in &nested {
            if row.len() != cols {
                return Err(SvmError::DimensionMismatch {
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            data,
            rows: nested.len(),
            cols,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a contiguous slice of length [`DenseMatrix::cols`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole matrix as one row-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `‖row_i‖²` for every row, in index order.
    ///
    /// Precomputing these lets a squared distance against any query be
    /// recovered from a dot product — `‖x − r‖² = ‖x‖² + ‖r‖² − 2·x·r` —
    /// so distance-based row passes (the RBF kernel) can ride the dot
    /// row kernel instead of a dedicated distance pass.
    #[must_use]
    pub fn row_squared_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|&v| v * v).sum())
            .collect()
    }

    /// Appends a row, copied from `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "row length {} != matrix width {}",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Swaps rows `i` and `j` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        assert!(i < self.rows && j < self.rows, "swap_rows out of bounds");
        if i == j {
            return;
        }
        let c = self.cols;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * c);
        head[lo * c..lo * c + c].swap_with_slice(&mut tail[..c]);
    }

    /// Iterates over the rows as slices.
    #[must_use]
    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            chunks: if self.cols == 0 {
                [].chunks(1)
            } else {
                self.data.chunks(self.cols)
            },
            remaining: self.rows,
        }
    }
}

/// Iterator over the rows of a [`DenseMatrix`], yielding `&[f64]` views.
#[derive(Debug, Clone)]
pub struct RowsIter<'a> {
    chunks: std::slice::Chunks<'a, f64>,
    remaining: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // A zero-column matrix has no backing chunks; synthesise empty rows.
        Some(self.chunks.next().unwrap_or(&[]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

impl<'a> IntoIterator for &'a DenseMatrix {
    type Item = &'a [f64];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nested_lays_out_row_major() {
        let m = DenseMatrix::from_nested(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_nested_rejects_ragged_rows() {
        let err = DenseMatrix::from_nested(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(
            err,
            SvmError::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn from_nested_empty_is_zero_by_zero() {
        let m = DenseMatrix::from_nested(vec![]).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn push_row_grows() {
        let mut m = DenseMatrix::with_cols(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_wrong_width_panics() {
        let mut m = DenseMatrix::with_cols(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut m = DenseMatrix::from_nested(vec![vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        m.swap_rows(0, 2);
        assert_eq!(m.as_slice(), &[3.0, 2.0, 1.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[2.0]);
    }

    #[test]
    fn rows_iter_yields_every_row_in_order() {
        let m = DenseMatrix::from_nested(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows: Vec<&[f64]> = m.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(m.iter().len(), 2);
        let by_ref: Vec<&[f64]> = (&m).into_iter().collect();
        assert_eq!(by_ref.len(), 2);
    }

    #[test]
    fn zero_column_matrix_iterates_empty_rows() {
        let mut m = DenseMatrix::with_cols(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.iter().count(), 2);
        assert!(m.iter().all(<[f64]>::is_empty));
    }
}
