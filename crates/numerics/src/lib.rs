//! Numerical foundations for the `nvp-perception` workspace.
//!
//! This crate provides the linear-algebra and Markov-chain machinery that the
//! DSPN solver (`nvp-mrgp`) and the reliability analyses (`nvp-core`) are
//! built on:
//!
//! * [`dense`] — small dense matrices with LU factorization and linear solves,
//! * [`sparse`] — compressed sparse row matrices with iterative solvers,
//! * [`ctmc`] — continuous-time Markov chains: transient solutions and
//!   accumulated sojourn times via uniformization,
//! * [`dtmc`] — discrete-time Markov chains: stationary distributions, the
//!   one stationary solver in the workspace,
//! * [`poisson`] — numerically stable Poisson probability weights used by
//!   uniformization,
//! * [`optim`] — scalar root finding (Brent) and golden-section
//!   minimization used for the paper's "optimal rejuvenation interval" and
//!   crossover analyses,
//! * [`pool`] — the process-wide worker budget that the parallel sweep
//!   (`nvp-core`) and the parallel MRGP row solver (`nvp-mrgp`) both draw
//!   permits from, so nested parallelism never oversubscribes the machine.
//!
//! The state spaces arising from the paper's models are small (tens to a few
//! thousand markings), so the solvers favour robustness and exactness over
//! asymptotic scalability: direct LU solves are used whenever the system fits
//! comfortably in memory, with iterative fallbacks for larger chains.
//!
//! # Example
//!
//! Compute the long-run availability of a two-state repair chain as the
//! stationary distribution of its uniformized transition matrix:
//!
//! ```
//! use nvp_numerics::ctmc::Ctmc;
//! use nvp_numerics::dtmc::stationary_distribution;
//!
//! # fn main() -> Result<(), nvp_numerics::NumericsError> {
//! // Up (state 0) fails at rate 0.1; down (state 1) repairs at rate 1.0.
//! let mut ctmc = Ctmc::new(2);
//! ctmc.add_rate(0, 1, 0.1)?;
//! ctmc.add_rate(1, 0, 1.0)?;
//! let (p, _rate) = ctmc.uniformize();
//! let pi = stationary_distribution(&p)?;
//! let availability = pi[0];
//! assert!((availability - 1.0 / 1.1).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorb;
pub mod budget;
pub mod ctmc;
pub mod dense;
pub mod dtmc;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod guard;
pub mod optim;
pub mod poisson;
pub mod pool;
pub mod sparse;

pub use budget::SolveBudget;
pub use error::NumericsError;
pub use pool::{Jobs, WorkerPool};

/// Convenient result alias for fallible numerics operations.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Default convergence tolerance used by iterative methods in this crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Default iteration cap for iterative methods in this crate.
pub const DEFAULT_MAX_ITERATIONS: usize = 200_000;

/// Size threshold below which stationary solves use a dense LU factorization
/// rather than power iteration (see [`stationary_backend_for`]).
pub(crate) const DENSE_SOLVE_LIMIT: usize = 600;

/// Renders a `catch_unwind` payload as text: `&str`/`String` payloads (the
/// overwhelmingly common case — `panic!`, `assert!`, slice indexing)
/// verbatim, anything else as an opaque marker. Shared by every layer that
/// isolates a worker panic (MRGP rows, engine solves, serve jobs).
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The linear-algebra backend a stationary solve selects for a chain of a
/// given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StationaryBackend {
    /// Direct dense LU solve of the balance equations (exact up to rounding).
    #[default]
    Dense,
    /// Damped power iteration on the (uniformized) transition matrix.
    IterativePower,
}

impl std::fmt::Display for StationaryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StationaryBackend::Dense => f.write_str("dense"),
            StationaryBackend::IterativePower => f.write_str("iterative"),
        }
    }
}

/// Which backend [`dtmc::stationary_distribution`] uses for an `n`-state
/// chain.
///
/// Exposed so callers (e.g. the MRGP solver's statistics layer) can report
/// the choice without duplicating the threshold.
pub fn stationary_backend_for(n: usize) -> StationaryBackend {
    if n <= DENSE_SOLVE_LIMIT {
        StationaryBackend::Dense
    } else {
        StationaryBackend::IterativePower
    }
}

/// The backend that is *not* `backend` — the retry target for the resilience
/// layer's "flip to the alternate linear-algebra backend" fallback.
pub fn alternate_backend(backend: StationaryBackend) -> StationaryBackend {
    match backend {
        StationaryBackend::Dense => StationaryBackend::IterativePower,
        StationaryBackend::IterativePower => StationaryBackend::Dense,
    }
}

/// Options controlling a stationary solve
/// ([`dtmc::stationary_distribution_with`]).
///
/// The default reproduces the historical behaviour: backend chosen by
/// [`stationary_backend_for`], default tolerance and iteration cap, and an
/// unlimited budget.
#[derive(Debug, Clone)]
pub struct StationaryOptions {
    /// Force a specific backend, or `None` to choose by chain size.
    pub backend: Option<StationaryBackend>,
    /// Convergence tolerance for iterative solves.
    pub tolerance: f64,
    /// Iteration cap for iterative solves (further tightened by the budget's
    /// own cap, if any).
    pub max_iterations: usize,
    /// Resource budget checked during the solve.
    pub budget: SolveBudget,
}

impl Default for StationaryOptions {
    fn default() -> Self {
        StationaryOptions {
            backend: None,
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            budget: SolveBudget::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payload_renders_str_and_string_and_opaque() {
        assert_eq!(panic_payload(Box::new("boom")), "boom");
        assert_eq!(panic_payload(Box::new(String::from("kaboom"))), "kaboom");
        assert_eq!(
            panic_payload(Box::new(42_u32)),
            "<non-string panic payload>"
        );
    }
}
