//! Error type shared by all numerics operations.

use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericsError {
    /// A matrix or vector had a dimension that does not match the operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        actual: String,
    },
    /// A linear system was singular (or numerically indistinguishable from
    /// singular) and could not be solved.
    SingularMatrix {
        /// Pivot column at which factorization broke down.
        pivot: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iteration.
        residual: f64,
    },
    /// An input value was outside its mathematically valid domain
    /// (e.g. a negative rate or probability).
    InvalidValue {
        /// Name of the offending quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An index was out of bounds for the structure it addressed.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The length of the indexed structure.
        len: usize,
    },
    /// The chain has no valid steady state (e.g. it is empty or every state
    /// is unreachable/absorbing in a way that prevents normalization).
    NoSteadyState {
        /// Explanation of why the steady state does not exist.
        reason: String,
    },
    /// A bracketing method was called with endpoints that do not bracket a
    /// root (the function has the same sign at both endpoints).
    NoBracket {
        /// Function value at the left endpoint.
        f_lo: f64,
        /// Function value at the right endpoint.
        f_hi: f64,
    },
    /// A resource budget (wall-clock deadline) was exhausted before the
    /// computation finished. See [`crate::budget::SolveBudget`].
    BudgetExceeded {
        /// Pipeline stage that observed the exhausted budget.
        stage: &'static str,
        /// The configured wall-clock budget in milliseconds.
        budget_ms: u64,
    },
    /// The solve was cancelled by its supervisor: a budget check found the
    /// budget's cancellation deadline passed (the engine gives each
    /// supervised sweep point one, and retries the point) or its drain flag
    /// set (a draining daemon stopping the jobs in flight). Unlike
    /// [`BudgetExceeded`](Self::BudgetExceeded), which reports a wall-clock
    /// budget running out, a cancelled solve is stopped on its supervisor's
    /// behalf. See [`SolveBudget`](crate::budget::SolveBudget).
    Cancelled {
        /// Pipeline stage that observed the cancellation flag.
        stage: &'static str,
    },
    /// A probability vector failed validation at a stage boundary (NaN or
    /// infinite entries, significantly negative entries, or a total mass too
    /// far from one to renormalize safely). See
    /// [`crate::guard::guard_probability_vector`].
    InvalidProbabilities {
        /// Name of the vector that failed validation.
        what: &'static str,
        /// Explanation of the violated invariant.
        reason: String,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericsError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            NumericsError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iteration failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            NumericsError::InvalidValue { what, value } => {
                write!(f, "invalid value for {what}: {value}")
            }
            NumericsError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            NumericsError::NoSteadyState { reason } => {
                write!(f, "no steady state: {reason}")
            }
            NumericsError::NoBracket { f_lo, f_hi } => write!(
                f,
                "endpoints do not bracket a root (f(lo) = {f_lo:.3e}, f(hi) = {f_hi:.3e})"
            ),
            NumericsError::BudgetExceeded { stage, budget_ms } => {
                write!(f, "solve budget of {budget_ms} ms exhausted during {stage}")
            }
            NumericsError::Cancelled { stage } => {
                write!(f, "solve cancelled by supervisor during {stage}")
            }
            NumericsError::InvalidProbabilities { what, reason } => {
                write!(f, "invalid probability vector ({what}): {reason}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<NumericsError> = vec![
            NumericsError::DimensionMismatch {
                expected: "3x3".into(),
                actual: "2x3".into(),
            },
            NumericsError::SingularMatrix { pivot: 2 },
            NumericsError::NoConvergence {
                iterations: 100,
                residual: 1e-3,
            },
            NumericsError::InvalidValue {
                what: "rate",
                value: -1.0,
            },
            NumericsError::IndexOutOfBounds { index: 5, len: 3 },
            NumericsError::NoSteadyState {
                reason: "empty chain".into(),
            },
            NumericsError::NoBracket {
                f_lo: 1.0,
                f_hi: 2.0,
            },
            NumericsError::BudgetExceeded {
                stage: "power iteration",
                budget_ms: 250,
            },
            NumericsError::Cancelled {
                stage: "subordinated chain solve",
            },
            NumericsError::InvalidProbabilities {
                what: "stationary vector",
                reason: "entry 3 is NaN".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}
