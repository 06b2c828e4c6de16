//! Dense row-major matrices with LU factorization.
//!
//! The matrices arising from the paper's DSPN models are small (the
//! six-version model has a few dozen tangible markings), so a dense direct
//! solver is both the fastest and the most accurate option. The implementation
//! is a classic LU decomposition with partial pivoting (Doolittle scheme).

use crate::{NumericsError, Result};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use nvp_numerics::dense::DenseMatrix;
///
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = a.solve(&[5.0, 10.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the rows do not all
    /// have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(NumericsError::DimensionMismatch {
                    expected: format!("row of length {ncols}"),
                    actual: format!("row {i} of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] += value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Computes the matrix-vector product `A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                actual: format!("vector of length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Computes the vector-matrix product `xᵀ · A` (row vector times matrix).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {}", self.rows),
                actual: format!("vector of length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (yj, a) in y.iter_mut().zip(row) {
                *yj += xi * a;
            }
        }
        Ok(y)
    }

    /// Factorizes the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the matrix is not
    /// square, or [`NumericsError::SingularMatrix`] if a pivot is numerically
    /// zero.
    pub fn lu(&self) -> Result<LuFactors> {
        if self.rows != self.cols {
            return Err(NumericsError::DimensionMismatch {
                expected: "square matrix".into(),
                actual: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivoting: choose the row with the largest magnitude.
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for r in (col + 1)..n {
                let v = lu.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < f64::EPSILON * 16.0 * (n as f64).max(1.0) {
                return Err(NumericsError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                perm.swap(col, pivot_row);
                for c in 0..n {
                    let a = lu.get(col, c);
                    let b = lu.get(pivot_row, c);
                    lu.set(col, c, b);
                    lu.set(pivot_row, c, a);
                }
            }
            let inv_pivot = 1.0 / lu.get(col, col);
            for r in (col + 1)..n {
                let factor = lu.get(r, col) * inv_pivot;
                lu.set(r, col, factor);
                if factor == 0.0 {
                    continue;
                }
                for c in (col + 1)..n {
                    let v = lu.get(r, c) - factor * lu.get(col, c);
                    lu.set(r, c, v);
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Solves `A · x = b` via LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`DenseMatrix::lu`], and returns
    /// [`NumericsError::DimensionMismatch`] if `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }
}

/// The result of an LU factorization with partial pivoting: `P·A = L·U`.
///
/// Reuse the factors to solve against multiple right-hand sides cheaply.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A · x = b` using the precomputed factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                actual: format!("vector of length {}", b.len()),
            });
        }
        // Apply the permutation, then forward-substitute (L has unit
        // diagonal), then back-substitute (U).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                acc -= self.lu.get(i, j) * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= self.lu.get(i, j) * xj;
            }
            x[i] = acc / self.lu.get(i, i);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_3x3() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
            .unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat_are_transposes() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let y = a.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
        let z = a.vecmat(&[1.0, 1.0]).unwrap();
        assert_eq!(z, vec![5.0, 7.0, 9.0]);
        let t = a.transpose();
        let z2 = t.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(z, z2);
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let r1: &[f64] = &[1.0, 2.0];
        let r2: &[f64] = &[3.0];
        assert!(DenseMatrix::from_rows(&[r1, r2]).is_err());
    }

    #[test]
    fn lu_factors_reusable_for_multiple_rhs() {
        let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = a.lu().unwrap();
        for b in [[7.0, 9.0], [1.0, 0.0], [0.0, 1.0]] {
            let x = lu.solve(&b).unwrap();
            let back = a.matvec(&x).unwrap();
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }
}
