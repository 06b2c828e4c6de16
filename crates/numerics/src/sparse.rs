//! Compressed sparse row (CSR) matrices and iterative solvers.
//!
//! Reachability graphs of larger DSPNs (e.g. the generic N-version models
//! with N ≥ 8 that `nvp-core` supports as an extension) produce sparse
//! generators. This module provides a CSR representation built from triplets,
//! matrix-vector products in both orientations, and the iterative machinery
//! (power iteration, Jacobi/Gauss–Seidel sweeps) used when direct dense
//! factorization would be wasteful.

use crate::budget::SolveBudget;
use crate::guard::{guard_probability_vector, DENSE_RENORMALIZATION_LIMIT};
use crate::{NumericsError, Result, DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

/// How many power-iteration steps run between wall-clock budget checks.
const BUDGET_CHECK_INTERVAL: usize = 256;

/// A sparse matrix in compressed sparse row format.
///
/// Build one incrementally through [`CsrBuilder`]:
///
/// ```
/// use nvp_numerics::sparse::CsrBuilder;
///
/// let mut b = CsrBuilder::new(2, 2);
/// b.push(0, 1, 3.0);
/// b.push(1, 0, 4.0);
/// let m = b.build();
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Incremental builder for [`CsrMatrix`].
///
/// Entries may be pushed in any order; duplicate `(row, col)` entries are
/// summed when the matrix is built.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl CsrBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrBuilder {
            rows,
            cols,
            triplets: Vec::new(),
        }
    }

    /// Records `value` at `(row, col)`. Duplicates are summed at build time.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.triplets.push((row, col, value));
        }
    }

    /// Finalizes the builder into a [`CsrMatrix`].
    ///
    /// Duplicate `(row, col)` triplets are summed; groups that cancel to
    /// exactly `0.0` are dropped entirely, matching the zero filtering
    /// [`CsrBuilder::push`] applies to individual entries — an explicit
    /// stored zero would inflate `nnz` and cost a multiply in every kernel.
    pub fn build(mut self) -> CsrMatrix {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());
        let mut i = 0;
        while let Some(&(r, c, first)) = self.triplets.get(i) {
            // Sorted order guarantees duplicates are adjacent; accumulate
            // the whole group before deciding whether it survives.
            let mut v = first;
            i += 1;
            while let Some(&(r2, c2, v2)) = self.triplets.get(i) {
                if (r2, c2) != (r, c) {
                    break;
                }
                v += v2;
                i += 1;
            }
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
            }
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of `row` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Computes `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Computes `A · x` into a caller-owned buffer, overwriting `y`.
    ///
    /// The in-place twin of [`CsrMatrix::matvec`] (bit-identical result):
    /// iterative kernels call this with a reused scratch buffer so a product
    /// per step stops costing an allocation per step.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        assert_eq!(y.len(), self.rows, "output buffer mismatch in matvec_into");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_entries(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
    }

    /// Computes `xᵀ · A` (row vector times matrix).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.vecmat_into(x, &mut y);
        y
    }

    /// Computes `xᵀ · A` into a caller-owned buffer, overwriting `y`.
    ///
    /// The in-place twin of [`CsrMatrix::vecmat`] (bit-identical result);
    /// power iteration and uniformization drive their whole series through
    /// two ping-pong buffers instead of allocating a fresh vector per step.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn vecmat_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vecmat");
        assert_eq!(y.len(), self.cols, "output buffer mismatch in vecmat_into");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row_entries(r) {
                y[c] += xr * v;
            }
        }
    }

    /// Converts to a dense matrix (for small systems or debugging).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                d.add(r, c, v);
            }
        }
        d
    }
}

/// Fused scaled accumulation `y[i] += a · x[i]`.
///
/// The one-pass kernel behind uniformization's weighted series: folding each
/// Poisson term into the running result touches `y` exactly once, with no
/// temporary for `a · x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "dimension mismatch in axpy");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Finds the stationary row vector of a stochastic matrix `P` (i.e. `π P = π`,
/// `Σ π = 1`) by power iteration.
///
/// `p` must be row-stochastic. Convergence is declared when the L1 change
/// between successive iterates drops below `tol`.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] if `p` is not square.
/// * [`NumericsError::NoConvergence`] if the iteration budget is exhausted —
///   this typically means the chain is periodic; callers should fall back to a
///   direct solve.
pub fn stationary_power(p: &CsrMatrix, tol: f64, max_iter: usize) -> Result<Vec<f64>> {
    stationary_power_with(p, tol, max_iter, &SolveBudget::unlimited())
}

/// [`stationary_power`] with a [`SolveBudget`]: the wall-clock deadline is
/// checked every few hundred iterations so a runaway solve on a huge or
/// pathological chain stops cleanly.
///
/// # Errors
///
/// As [`stationary_power`], plus:
///
/// * [`NumericsError::BudgetExceeded`] when the budget's deadline passes,
/// * [`NumericsError::InvalidProbabilities`] if the iterate degenerates into
///   non-finite values (e.g. NaN poisoning upstream).
pub fn stationary_power_with(
    p: &CsrMatrix,
    tol: f64,
    max_iter: usize,
    budget: &SolveBudget,
) -> Result<Vec<f64>> {
    if p.rows() != p.cols() {
        return Err(NumericsError::DimensionMismatch {
            expected: "square matrix".into(),
            actual: format!("{}x{}", p.rows(), p.cols()),
        });
    }
    let n = p.rows();
    if n == 0 {
        return Err(NumericsError::NoSteadyState {
            reason: "empty chain".into(),
        });
    }
    budget.check("power iteration")?;
    #[cfg(feature = "fault-inject")]
    let poison = crate::fault::solver_fault(budget, crate::fault::Site::PowerIteration, max_iter)?;
    let mut pi = vec![1.0 / n as f64; n];
    #[cfg(feature = "fault-inject")]
    if poison {
        pi[0] = f64::NAN;
    }
    let mut diff = f64::INFINITY;
    // Ping-pong between `pi` and one scratch buffer: every iteration is a
    // vecmat_into plus in-place damping, with zero per-step allocations.
    // The arithmetic (and therefore the iterate sequence) is bit-identical
    // to the historical allocating loop.
    let mut next = vec![0.0; n];
    for iter in 0..max_iter {
        if iter % BUDGET_CHECK_INTERVAL == 0 {
            budget.check("power iteration")?;
        }
        p.vecmat_into(&pi, &mut next);
        // Damped iteration avoids stalling on periodic chains.
        for (nx, old) in next.iter_mut().zip(&pi) {
            *nx = 0.5 * *nx + 0.5 * old;
        }
        let sum: f64 = next.iter().sum();
        if !sum.is_finite() {
            return Err(NumericsError::InvalidProbabilities {
                what: "power-iteration iterate",
                reason: format!("iterate mass is {sum} at iteration {iter}"),
            });
        }
        if sum <= 0.0 {
            return Err(NumericsError::NoSteadyState {
                reason: "iterate collapsed to zero".into(),
            });
        }
        for v in &mut next {
            *v /= sum;
        }
        diff = next
            .iter()
            .zip(&pi)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
        std::mem::swap(&mut pi, &mut next);
        if diff < tol {
            guard_probability_vector(
                &mut pi,
                "power-iteration stationary vector",
                DENSE_RENORMALIZATION_LIMIT,
            )?;
            return Ok(pi);
        }
    }
    Err(NumericsError::NoConvergence {
        iterations: max_iter,
        residual: diff,
    })
}

/// Convenience wrapper around [`stationary_power`] with default tolerances.
///
/// # Errors
///
/// See [`stationary_power`].
pub fn stationary(p: &CsrMatrix) -> Result<Vec<f64>> {
    stationary_power(p, DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_chain() -> CsrMatrix {
        // P = [[0.9, 0.1], [0.5, 0.5]] -> pi = (5/6, 1/6)
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.9);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        b.build()
    }

    #[test]
    fn builder_sums_duplicates() {
        let mut b = CsrBuilder::new(1, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.matvec(&[0.0, 1.0]), vec![3.5]);
    }

    #[test]
    fn builder_ignores_explicit_zeros() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
    }

    /// Regression: duplicate triplets that sum to exactly 0.0 used to
    /// survive as an explicit stored zero, contradicting `push`'s zero
    /// filtering and inflating `nnz`.
    #[test]
    fn cancelling_duplicates_are_stripped() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, -1.0);
        let m = b.build();
        assert_eq!(m.nnz(), 0, "cancelled entries must not be stored");
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![0.0, 0.0]);

        // A cancelled group must not shift later entries into the wrong row.
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 0, 2.0);
        b.push(1, 1, 1.0);
        b.push(1, 1, -1.0);
        b.push(2, 2, 3.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_entries(1).count(), 0);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![2.0, 0.0, 3.0]);
    }

    #[test]
    fn into_kernels_match_allocating_kernels() {
        let m = two_state_chain();
        let x = [0.3, 0.7];
        let mut y = vec![f64::NAN; 2]; // stale contents must be overwritten
        m.matvec_into(&x, &mut y);
        assert_eq!(y, m.matvec(&x));
        let mut y = vec![f64::NAN; 2];
        m.vecmat_into(&x, &mut y);
        assert_eq!(y, m.vecmat(&x));
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(&mut y, 0.5, &[2.0, 4.0, 6.0]);
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch in axpy")]
    fn axpy_rejects_length_mismatch() {
        let mut y = vec![0.0; 2];
        axpy(&mut y, 1.0, &[1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = two_state_chain();
        let d = m.to_dense();
        let x = [0.3, 0.7];
        let ys = m.matvec(&x);
        let yd = d.matvec(&x).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn vecmat_matches_dense_transpose() {
        let m = two_state_chain();
        let d = m.to_dense().transpose();
        let x = [0.3, 0.7];
        let ys = m.vecmat(&x);
        let yd = d.matvec(&x).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn stationary_of_two_state_chain() {
        let m = two_state_chain();
        let pi = stationary(&m).unwrap();
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-9, "pi = {pi:?}");
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_of_periodic_chain_converges_with_damping() {
        // Pure swap chain: period 2; damping makes power iteration converge
        // to the uniform stationary distribution.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let m = b.build();
        let pi = stationary(&m).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stationary_rejects_non_square() {
        let b = CsrBuilder::new(2, 3);
        let m = b.build();
        assert!(matches!(
            stationary(&m),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn stationary_power_respects_expired_budget() {
        let m = two_state_chain();
        let budget = SolveBudget::with_wall_clock_ms(0);
        assert!(matches!(
            stationary_power_with(&m, DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS, &budget),
            Err(NumericsError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn stationary_power_rejects_nan_iterate() {
        // A matrix with a NaN entry poisons the iterate; the solver must
        // report it instead of spinning through the full iteration budget.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, f64::NAN);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        let m = b.build();
        assert!(matches!(
            stationary_power(&m, DEFAULT_TOLERANCE, 1000),
            Err(NumericsError::InvalidProbabilities { .. })
        ));
    }

    #[test]
    fn row_entries_sorted_by_column() {
        let mut b = CsrBuilder::new(1, 4);
        b.push(0, 3, 1.0);
        b.push(0, 0, 2.0);
        b.push(0, 2, 3.0);
        let m = b.build();
        let cols: Vec<usize> = m.row_entries(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }
}
