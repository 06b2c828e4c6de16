//! Discrete-time Markov chains: stationary distributions of stochastic
//! matrices.
//!
//! The MRGP solver reduces a DSPN to an *embedded* discrete-time chain over
//! tangible markings; this module solves for the embedded chain's stationary
//! vector. A direct dense solve is used for small chains (exact, handles
//! periodicity), with damped power iteration as the large-chain fallback.

use crate::dense::DenseMatrix;
use crate::guard::{guard_probability_vector, DENSE_RENORMALIZATION_LIMIT};
use crate::sparse::{stationary_power_with, CsrMatrix};
use crate::{stationary_backend_for, NumericsError, Result, StationaryBackend, StationaryOptions};

/// Validates that `p` is (approximately) row-stochastic.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] if `p` is not square.
/// * [`NumericsError::InvalidValue`] if an entry is negative or a row does
///   not sum to 1 within `tol`.
pub fn check_stochastic(p: &CsrMatrix, tol: f64) -> Result<()> {
    if p.rows() != p.cols() {
        return Err(NumericsError::DimensionMismatch {
            expected: "square matrix".into(),
            actual: format!("{}x{}", p.rows(), p.cols()),
        });
    }
    for r in 0..p.rows() {
        let mut sum = 0.0;
        for (_, v) in p.row_entries(r) {
            if v < -tol {
                return Err(NumericsError::InvalidValue {
                    what: "transition probability",
                    value: v,
                });
            }
            sum += v;
        }
        if (sum - 1.0).abs() > tol {
            return Err(NumericsError::InvalidValue {
                what: "row sum of stochastic matrix",
                value: sum,
            });
        }
    }
    Ok(())
}

/// Computes the stationary distribution `ν` of a row-stochastic matrix `P`
/// (`ν P = ν`, `Σ ν = 1`).
///
/// # Errors
///
/// * Validation errors from [`check_stochastic`] (with a loose tolerance of
///   `1e-9`).
/// * [`NumericsError::SingularMatrix`] for chains without a unique
///   stationary distribution.
/// * [`NumericsError::NoConvergence`] from the iterative fallback.
///
/// # Example
///
/// ```
/// use nvp_numerics::sparse::CsrBuilder;
/// use nvp_numerics::dtmc::stationary_distribution;
///
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let mut b = CsrBuilder::new(2, 2);
/// b.push(0, 0, 0.9);
/// b.push(0, 1, 0.1);
/// b.push(1, 0, 0.5);
/// b.push(1, 1, 0.5);
/// let nu = stationary_distribution(&b.build())?;
/// assert!((nu[0] - 5.0 / 6.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn stationary_distribution(p: &CsrMatrix) -> Result<Vec<f64>> {
    stationary_distribution_with(p, &StationaryOptions::default())
}

/// [`stationary_distribution`] with explicit [`StationaryOptions`]: a forced
/// backend, a custom tolerance/iteration cap, and a resource budget.
///
/// # Errors
///
/// Same conditions as [`stationary_distribution`], plus
/// [`NumericsError::BudgetExceeded`] if the budget's deadline passes during
/// an iterative solve.
pub fn stationary_distribution_with(
    p: &CsrMatrix,
    options: &StationaryOptions,
) -> Result<Vec<f64>> {
    check_stochastic(p, 1e-9)?;
    let n = p.rows();
    if n == 0 {
        return Err(NumericsError::NoSteadyState {
            reason: "empty chain".into(),
        });
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let backend = options.backend.unwrap_or_else(|| stationary_backend_for(n));
    match backend {
        StationaryBackend::Dense => stationary_dense(p, options),
        StationaryBackend::IterativePower => stationary_power_with(
            p,
            options.tolerance,
            options.max_iterations,
            &options.budget,
        ),
    }
}

/// Dense LU solve; of `options`, only the budget's fault plan applies.
#[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
fn stationary_dense(p: &CsrMatrix, options: &StationaryOptions) -> Result<Vec<f64>> {
    #[cfg(feature = "fault-inject")]
    let poison =
        crate::fault::solver_fault(&options.budget, crate::fault::Site::DenseStationary, 0)?;
    // Solve (Pᵀ - I) ν = 0 with the last equation replaced by Σ ν = 1.
    let n = p.rows();
    let mut a = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for (c, v) in p.row_entries(r) {
            a.add(c, r, v);
        }
        a.add(r, r, -1.0);
    }
    for j in 0..n {
        a.set(n - 1, j, 1.0);
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let mut nu = a.solve(&b)?;
    #[cfg(feature = "fault-inject")]
    if poison {
        nu[0] = f64::NAN;
    }
    guard_probability_vector(
        &mut nu,
        "dtmc stationary vector",
        DENSE_RENORMALIZATION_LIMIT,
    )?;
    Ok(nu)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "fault-inject")]
    use crate::fault::{FaultMode, FaultPlan, Site};
    use crate::sparse::CsrBuilder;

    #[test]
    fn stationary_of_two_state_chain() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.9);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        let nu = stationary_distribution(&b.build()).unwrap();
        assert!((nu[0] - 5.0 / 6.0).abs() < 1e-12);
        assert!((nu[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_periodic_chain_is_uniform() {
        // Periodic swap chain: the dense solve still finds the unique
        // stationary vector (0.5, 0.5).
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let nu = stationary_distribution(&b.build()).unwrap();
        assert!((nu[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_three_state_cycle() {
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 1, 1.0);
        b.push(1, 2, 1.0);
        b.push(2, 0, 1.0);
        let nu = stationary_distribution(&b.build()).unwrap();
        for v in &nu {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_chain_is_not_uniquely_stationary() {
        // Two absorbing states: no unique stationary distribution.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        assert!(stationary_distribution(&b.build()).is_err());
    }

    #[test]
    fn non_stochastic_rows_are_rejected() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.4); // row sums to 0.4
        b.push(1, 1, 1.0);
        assert!(matches!(
            stationary_distribution(&b.build()),
            Err(NumericsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn single_state_chain() {
        let mut b = CsrBuilder::new(1, 1);
        b.push(0, 0, 1.0);
        let nu = stationary_distribution(&b.build()).unwrap();
        assert_eq!(nu, vec![1.0]);
    }

    #[test]
    fn forced_iterative_backend_matches_dense() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.9);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        let p = b.build();
        let dense = stationary_distribution(&p).unwrap();
        let opts = StationaryOptions {
            backend: Some(StationaryBackend::IterativePower),
            ..StationaryOptions::default()
        };
        let iterative = stationary_distribution_with(&p, &opts).unwrap();
        for (a, b) in dense.iter().zip(&iterative) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_nan_is_caught_by_the_guard() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.9);
        b.push(0, 1, 0.1);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        let p = b.build();
        let opts = faulted(FaultPlan::new(Site::DenseStationary, FaultMode::NanPoison).times(1));
        assert!(matches!(
            stationary_distribution_with(&p, &opts),
            Err(NumericsError::InvalidProbabilities { .. })
        ));
        // The plan's single hit is spent; the next solve succeeds.
        assert!(stationary_distribution_with(&p, &opts).is_ok());
        // A solve without the plan never saw it.
        assert!(stationary_distribution(&p).is_ok());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_convergence_failure_is_typed() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 0.5);
        b.push(0, 1, 0.5);
        b.push(1, 0, 0.5);
        b.push(1, 1, 0.5);
        let p = b.build();
        let opts = faulted(FaultPlan::new(Site::Any, FaultMode::ConvergenceFailure).times(1));
        assert!(matches!(
            stationary_distribution_with(&p, &opts),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    /// Default stationary options whose budget carries `plan`.
    #[cfg(feature = "fault-inject")]
    fn faulted(plan: FaultPlan) -> StationaryOptions {
        StationaryOptions {
            budget: crate::SolveBudget::unlimited().with_faults(plan.arm()),
            ..StationaryOptions::default()
        }
    }
}
