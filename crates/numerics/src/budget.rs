//! Resource budgets for long-running solves.
//!
//! A [`SolveBudget`] bounds how much work a solve pipeline may perform:
//! a wall-clock deadline and an optional cap on iterative-solver iterations.
//! Budgets are threaded from `nvp-core`'s analysis engine through
//! reachability exploration (`nvp-petri`), the MRGP solver (`nvp-mrgp`) and
//! the iterative solvers in this crate, so every stage can stop cleanly with
//! a typed [`NumericsError::BudgetExceeded`] instead of running away.
//!
//! The budget is deliberately cheap to consult: [`SolveBudget::check`] is a
//! no-op for unlimited budgets and a single `Instant::now()` comparison
//! otherwise, so callers can afford to check it once per marking expanded or
//! once per block of solver iterations.
//!
//! # Example
//!
//! ```
//! use nvp_numerics::budget::SolveBudget;
//!
//! let unlimited = SolveBudget::unlimited();
//! assert!(unlimited.check("example stage").is_ok());
//!
//! let expired = SolveBudget::with_wall_clock_ms(0);
//! assert!(expired.check("example stage").is_err());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{NumericsError, Result};

/// A bound on the resources a solve pipeline may consume.
///
/// The default budget is unlimited, so existing entry points that do not
/// thread a budget behave exactly as before.
///
/// Besides the deadline and iteration cap, a budget can carry external
/// *cancellation flags* ([`with_cancel`](Self::with_cancel)): a supervisor —
/// e.g. the worker-pool watchdog in [`crate::pool`], or a draining daemon —
/// sets its flag and the next [`check`](Self::check) anywhere in the
/// pipeline fails with [`NumericsError::Cancelled`]. A budget may carry
/// several flags from independent supervisors (a point-lease watchdog *and*
/// an engine-wide drain, say); any one of them set means cancelled. Cloning
/// the budget shares the same flags.
/// With `fault-inject`, a budget can also carry a fault plan (`with_faults`).
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Wall-clock instant after which [`check`](Self::check) fails.
    deadline: Option<Instant>,
    /// The originally configured wall-clock budget, kept for error reporting.
    budget_ms: u64,
    /// Optional cap on iterations for iterative solvers. `None` leaves each
    /// solver's own default in place.
    max_iterations: Option<usize>,
    /// Cooperative cancellation flags set by supervisors; any one set
    /// cancels the solve.
    cancel: Vec<Arc<AtomicBool>>,
    /// Fault plan consulted by the solver sites this budget reaches.
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::fault::ArmedPlan>,
}

impl SolveBudget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// A budget whose wall-clock deadline is `ms` milliseconds from now.
    ///
    /// A budget of `0` ms is already expired and makes the next
    /// [`check`](Self::check) fail — useful for testing budget plumbing
    /// deterministically.
    pub fn with_wall_clock_ms(ms: u64) -> Self {
        SolveBudget {
            deadline: Some(Instant::now() + Duration::from_millis(ms)),
            budget_ms: ms,
            ..SolveBudget::default()
        }
    }

    /// Returns this budget with an additional cap on iterative-solver
    /// iterations.
    pub fn and_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = Some(iterations);
        self
    }

    /// Returns this budget additionally carrying `flag` as a cooperative
    /// cancellation flag; once a supervisor stores `true` in it, the next
    /// [`check`](Self::check) fails with [`NumericsError::Cancelled`].
    /// Flags accumulate: a budget may watch several supervisors at once.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel.push(flag);
        self
    }

    /// Returns this budget carrying `plan`, which every solver site the
    /// budget reaches consults through [`fault`](Self::fault).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: crate::fault::ArmedPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault to inject at `site` per this budget's plan (see
    /// [`crate::fault::ArmedPlan::fault`]), or `None` without a plan.
    #[cfg(feature = "fault-inject")]
    pub fn fault(&self, site: crate::fault::Site) -> Option<crate::fault::FaultMode> {
        self.faults.as_ref()?.fault(site)
    }

    /// `true` if no deadline, iteration cap, or cancellation flag is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none() && self.cancel.is_empty()
    }

    /// `true` if a supervisor has set any of this budget's cancellation
    /// flags.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.iter().any(|flag| flag.load(Ordering::Relaxed))
    }

    /// The iteration cap to use given a solver's own `default` cap: the
    /// smaller of the two when this budget carries a cap.
    pub fn max_iterations_or(&self, default: usize) -> usize {
        match self.max_iterations {
            Some(cap) => cap.min(default),
            None => default,
        }
    }

    /// Fails with [`NumericsError::BudgetExceeded`] if the wall-clock
    /// deadline has passed. `stage` names the pipeline stage for the error
    /// message (e.g. `"reachability exploration"`).
    ///
    /// # Errors
    ///
    /// [`NumericsError::BudgetExceeded`] when the deadline has passed;
    /// [`NumericsError::Cancelled`] when the cancellation flag is set.
    pub fn check(&self, stage: &'static str) -> Result<()> {
        if self.is_cancelled() {
            // Event emission stays off the happy path: `check` sits inside
            // solver inner loops.
            nvp_obs::trace::event_with("cancelled", || vec![("stage", stage.into())]);
            return Err(NumericsError::Cancelled { stage });
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                nvp_obs::trace::event_with("budget_exceeded", || {
                    vec![
                        ("stage", stage.into()),
                        ("budget_ms", self.budget_ms.into()),
                    ]
                });
                return Err(NumericsError::BudgetExceeded {
                    stage,
                    budget_ms: self.budget_ms,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            assert!(b.check("loop").is_ok());
        }
    }

    #[test]
    fn zero_ms_budget_is_already_expired() {
        let b = SolveBudget::with_wall_clock_ms(0);
        match b.check("stage under test") {
            Err(NumericsError::BudgetExceeded { stage, budget_ms }) => {
                assert_eq!(stage, "stage under test");
                assert_eq!(budget_ms, 0);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_does_not_trip_immediately() {
        let b = SolveBudget::with_wall_clock_ms(60_000);
        assert!(b.check("fast stage").is_ok());
        assert!(!b.is_unlimited());
    }

    #[test]
    fn cancellation_flag_trips_check_with_a_typed_error() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::unlimited().with_cancel(flag.clone());
        assert!(!b.is_unlimited());
        assert!(!b.is_cancelled());
        assert!(b.check("row stage").is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(b.is_cancelled());
        match b.check("row stage") {
            Err(NumericsError::Cancelled { stage }) => assert_eq!(stage, "row stage"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cloned_budgets_share_the_cancellation_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let a = SolveBudget::with_wall_clock_ms(60_000).with_cancel(flag.clone());
        let b = a.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(a.check("a").is_err());
        assert!(b.check("b").is_err());
    }

    #[test]
    fn any_of_several_cancellation_flags_cancels() {
        // A supervised daemon solve watches both its point-lease watchdog
        // and the engine-wide drain flag; either one must stop it.
        let lease = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::unlimited()
            .with_cancel(lease.clone())
            .with_cancel(drain.clone());
        assert!(b.check("row stage").is_ok());
        drain.store(true, Ordering::Relaxed);
        assert!(b.is_cancelled());
        assert!(matches!(
            b.check("row stage"),
            Err(NumericsError::Cancelled { .. })
        ));
        drain.store(false, Ordering::Relaxed);
        lease.store(true, Ordering::Relaxed);
        assert!(b.is_cancelled());
    }

    #[test]
    fn iteration_cap_tightens_but_never_loosens_defaults() {
        let b = SolveBudget::unlimited().and_max_iterations(100);
        assert_eq!(b.max_iterations_or(200_000), 100);
        assert_eq!(b.max_iterations_or(50), 50);
        assert_eq!(SolveBudget::unlimited().max_iterations_or(123), 123);
    }
}
