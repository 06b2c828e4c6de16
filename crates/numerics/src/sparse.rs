//! Compressed sparse row (CSR) matrices and iterative solvers.
//!
//! Reachability graphs of larger DSPNs (e.g. the generic N-version models
//! with N ≥ 8 that `nvp-core` supports as an extension) produce sparse
//! generators. This module provides a CSR representation built from triplets
//! or compacted rows (one rule for summing duplicate entries serves both),
//! row-vector-times-matrix products, and the iterative machinery
//! (power iteration, Jacobi/Gauss–Seidel sweeps) used when direct dense
//! factorization would be wasteful.

use crate::budget::SolveBudget;
use crate::guard::{guard_probability_vector, DENSE_RENORMALIZATION_LIMIT};
use crate::{NumericsError, Result};

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
/// assert_eq!(m.vecmat(&[1.0, 1.0]), vec![4.0, 3.0]);
/// ```
///
/// or row by row from [`SparseRow`]s with [`CsrMatrix::from_rows`].
///
/// Column indices are stored in four bytes, as in [`SparseRow`], so a
/// stored entry costs 12 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Compacts one row's `(col, value)` entries in place and returns how many
/// compacted entries now lead the slice.
///
/// This is the module's one summation rule, shared by [`CsrBuilder::build`]
/// and [`SparseRow::compact`]: entries are sorted by column with a stable
/// sort, each column's duplicates are summed left to right in insertion
/// order, and a column whose sum is exactly `0.0` is dropped (a stored zero
/// would inflate `nnz` and cost a multiply in every kernel). Insertion order
/// is part of the contract: floating-point addition is not associative, so
/// any other order could move the last bit of a sum.
fn compact_in_place(entries: &mut [(usize, f64)]) -> usize {
    entries.sort_by_key(|&(c, _)| c);
    let mut kept = 0;
    let mut i = 0;
    while let Some(&(c, first)) = entries.get(i) {
        let mut v = first;
        i += 1;
        while let Some(&(c2, v2)) = entries.get(i) {
            if c2 != c {
                break;
            }
            v += v2;
            i += 1;
        }
        if v != 0.0 {
            entries[kept] = (c, v);
            kept += 1;
        }
    }
    kept
}

/// Narrows a column index to the four bytes [`SparseRow`] and
/// [`CsrMatrix`] store it in.
///
/// # Panics
///
/// Panics if `col` does not fit in a `u32`.
fn col_u32(col: usize) -> u32 {
    u32::try_from(col).expect("column index fits in u32")
}

/// One compacted matrix row: entries sorted by column, one per column, no
/// zeros. [`CsrMatrix::from_rows`] assembles a matrix from a sequence of
/// them.
///
/// Column indices are stored in four bytes, so a row held while others are
/// still being solved costs 12 bytes per entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRow {
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl SparseRow {
    /// Compacts `(col, value)` entries pushed in any order into a row, under
    /// the same rule as [`CsrBuilder::build`]: zero entries are ignored,
    /// duplicate columns are summed in insertion order, and columns summing
    /// to exactly `0.0` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a column index does not fit in a `u32`.
    pub fn compact(mut entries: Vec<(usize, f64)>) -> SparseRow {
        entries.retain(|&(_, v)| v != 0.0);
        let kept = compact_in_place(&mut entries);
        let entries = &entries[..kept];
        SparseRow {
            cols: entries.iter().map(|&(c, _)| col_u32(c)).collect(),
            values: entries.iter().map(|&(_, v)| v).collect(),
        }
    }
}

/// Incremental builder for [`CsrMatrix`].
///
/// Entries may be pushed in any order; duplicate `(row, col)` entries are
/// summed when the matrix is built, in the order they were pushed.
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
    /// The triplets are bucketed by row in push order, then each row is
    /// compacted under the same rule as [`SparseRow::compact`]: duplicate
    /// `(row, col)` triplets are summed in push order, and groups that
    /// cancel to exactly `0.0` are dropped, matching the zero filtering
    /// [`CsrBuilder::push`] applies to individual entries.
    ///
    /// # Panics
    ///
    /// Panics if a column index does not fit in a `u32`.
    pub fn build(self) -> CsrMatrix {
        // Counting sort by row: `start[r]..start[r + 1]` is row r's bucket,
        // filled in push order.
        let mut start = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.triplets {
            start[r + 1] += 1;
        }
        for r in 0..self.rows {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut bucketed = vec![(0usize, 0.0f64); self.triplets.len()];
        for (r, c, v) in self.triplets {
            bucketed[fill[r]] = (c, v);
            fill[r] += 1;
        }
        drop(fill);
        // Compact every bucket in place first, so the output is allocated
        // at its exact size.
        let mut row_ptr = vec![0usize; self.rows + 1];
        for r in 0..self.rows {
            let kept = compact_in_place(&mut bucketed[start[r]..start[r + 1]]);
            row_ptr[r + 1] = row_ptr[r] + kept;
        }
        let nnz = row_ptr[self.rows];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for r in 0..self.rows {
            let kept = row_ptr[r + 1] - row_ptr[r];
            for &(c, v) in &bucketed[start[r]..start[r] + kept] {
                col_idx.push(col_u32(c));
                values.push(v);
            }
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
    /// Assembles a `rows.len() × cols` matrix from compacted rows, in order.
    ///
    /// The output arrays are allocated once, at their exact size, on the
    /// calling thread, and each row is freed as soon as it has been copied:
    /// no triplet list or intermediate copy exists beside the rows. Because
    /// every row was compacted by [`SparseRow::compact`], the result is bitwise
    /// equal to pushing the same entries, row by row, into a
    /// [`CsrBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if a row holds a column `>= cols`.
    pub fn from_rows(cols: usize, rows: Vec<SparseRow>) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut nnz = 0;
        row_ptr.push(nnz);
        for row in &rows {
            nnz += row.values.len();
            row_ptr.push(nnz);
        }
        let n_rows = rows.len();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for row in rows {
            if let Some(&last) = row.cols.last() {
                assert!(
                    (last as usize) < cols,
                    "column {last} out of bounds for {cols} columns"
                );
            }
            col_idx.extend_from_slice(&row.cols);
            values.extend_from_slice(&row.values);
        }
        CsrMatrix {
            rows: n_rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

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
            .map(|(&c, &v)| (c as usize, v))
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

    /// Converts to a dense matrix: the oracle the sparse kernels are tested
    /// against.
    #[cfg(test)]
    fn to_dense(&self) -> crate::dense::DenseMatrix {
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
/// between successive iterates drops below `tol`. The budget's wall-clock
/// deadline is checked every few hundred iterations so a runaway solve on a
/// huge or pathological chain stops cleanly.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] if `p` is not square.
/// * [`NumericsError::NoConvergence`] if the iteration budget is exhausted —
///   this typically means the chain is periodic; callers should fall back to a
///   direct solve.
/// * [`NumericsError::BudgetExceeded`] when the budget's deadline passes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

    /// Power iteration with the default tolerances and no deadline.
    fn stationary(p: &CsrMatrix) -> Result<Vec<f64>> {
        stationary_power_with(
            p,
            DEFAULT_TOLERANCE,
            DEFAULT_MAX_ITERATIONS,
            &SolveBudget::unlimited(),
        )
    }

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
        assert_eq!(m.row_entries(0).collect::<Vec<_>>(), vec![(1, 3.5)]);
    }

    /// Three duplicates whose floating-point sum depends on the order of
    /// the additions: both constructors must sum them in insertion order,
    /// wherever other columns' entries fall between them.
    #[test]
    fn duplicates_are_summed_in_insertion_order() {
        let forward: f64 = (0.1 + 0.2) + 0.3;
        let backward: f64 = (0.3 + 0.2) + 0.1;
        assert_ne!(
            forward.to_bits(),
            backward.to_bits(),
            "sum must depend on order"
        );
        for (values, expected) in [([0.1, 0.2, 0.3], forward), ([0.3, 0.2, 0.1], backward)] {
            let entries = vec![
                (2, values[0]),
                (0, 1.0),
                (2, values[1]),
                (3, 4.0),
                (2, values[2]),
            ];
            let mut b = CsrBuilder::new(1, 4);
            for &(c, v) in &entries {
                b.push(0, c, v);
            }
            let built = b.build();
            let assembled = CsrMatrix::from_rows(4, vec![SparseRow::compact(entries)]);
            for m in [&built, &assembled] {
                let row: Vec<(usize, u64)> =
                    m.row_entries(0).map(|(c, v)| (c, v.to_bits())).collect();
                assert_eq!(
                    row,
                    vec![
                        (0, 1.0f64.to_bits()),
                        (2, expected.to_bits()),
                        (3, 4.0f64.to_bits())
                    ]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "column 3 out of bounds for 3 columns")]
    fn from_rows_rejects_out_of_bounds_columns() {
        CsrMatrix::from_rows(3, vec![SparseRow::compact(vec![(3, 1.0)])]);
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
        assert_eq!(m.vecmat(&[1.0, 1.0]), vec![0.0, 0.0]);

        // A cancelled group must not shift later entries into the wrong row.
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 0, 2.0);
        b.push(1, 1, 1.0);
        b.push(1, 1, -1.0);
        b.push(2, 2, 3.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_entries(1).count(), 0);
        assert_eq!(m.vecmat(&[1.0, 1.0, 1.0]), vec![2.0, 0.0, 3.0]);
    }

    #[test]
    fn into_kernel_matches_allocating_kernel() {
        let m = two_state_chain();
        let x = [0.3, 0.7];
        let mut y = vec![f64::NAN; 2]; // stale contents must be overwritten
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
            stationary_power_with(&m, DEFAULT_TOLERANCE, 1000, &SolveBudget::unlimited()),
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
