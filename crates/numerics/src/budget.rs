//! Resource budgets for long-running solves.
//!
//! A [`SolveBudget`] bounds how much work a solve pipeline may perform:
//! a wall-clock budget, a cancellation deadline and a cooperative drain flag.
//! Budgets are threaded from `nvp-core`'s analysis engine through
//! reachability exploration (`nvp-petri`), the MRGP solver (`nvp-mrgp`) and
//! the iterative solvers in this crate, so every stage can stop cleanly with
//! a typed [`NumericsError::BudgetExceeded`] or [`NumericsError::Cancelled`]
//! instead of running away.
//!
//! The budget is deliberately cheap to consult: [`SolveBudget::check`] is a
//! no-op for unlimited budgets and at most one flag load and one
//! `Instant::now()` comparison otherwise, so callers can afford to check it
//! once per marking expanded or once per block of solver iterations.
//!
//! # Example
//!
//! ```
//! use nvp_numerics::budget::SolveBudget;
//! use nvp_numerics::NumericsError;
//!
//! let unlimited = SolveBudget::unlimited();
//! assert!(unlimited.check("example stage").is_ok());
//!
//! let expired = SolveBudget::with_wall_clock_ms(0);
//! assert!(matches!(
//!     expired.check("example stage"),
//!     Err(NumericsError::BudgetExceeded { .. })
//! ));
//!
//! let overdue = SolveBudget::unlimited().with_cancel_after_ms(0);
//! assert!(matches!(
//!     overdue.check("example stage"),
//!     Err(NumericsError::Cancelled { .. })
//! ));
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
/// A budget stops a solve in one of three ways, each observed at the next
/// [`check`](Self::check) anywhere in the pipeline:
/// - its wall-clock budget ([`with_wall_clock_ms`](Self::with_wall_clock_ms))
///   runs out: [`NumericsError::BudgetExceeded`];
/// - its cancellation deadline
///   ([`with_cancel_after_ms`](Self::with_cancel_after_ms)) passes:
///   [`NumericsError::Cancelled`]. The engine gives each supervised sweep
///   point one, so an overdue point is stopped and retried;
/// - its drain flag ([`with_cancel`](Self::with_cancel)) is set:
///   [`NumericsError::Cancelled`]. A draining daemon sets it to stop every
///   solve in flight.
///
/// When both the wall-clock budget and the cancellation deadline are set,
/// the earlier one decides which error a late check reports. A solve that
/// never reaches a check is never stopped. Clones share the drain flag and
/// copy the deadline. With `fault-inject`, a budget can also carry a fault
/// plan (`with_faults`).
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Instant after which [`check`](Self::check) fails: the wall-clock
    /// budget's or the cancellation deadline's, whichever is earlier.
    deadline: Option<Instant>,
    /// `Some(ms)` while `deadline` is a wall-clock budget of `ms`
    /// milliseconds (passing it is [`NumericsError::BudgetExceeded`]);
    /// `None` once it is a cancellation deadline (passing it is
    /// [`NumericsError::Cancelled`]).
    budget_ms: Option<u64>,
    /// Cooperative drain flag; once set, the solve is cancelled.
    cancel: Option<Arc<AtomicBool>>,
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
            budget_ms: Some(ms),
            ..SolveBudget::default()
        }
    }

    /// Returns this budget cancelled `ms` milliseconds from now: a
    /// [`check`](Self::check) after that instant fails with
    /// [`NumericsError::Cancelled`], unless the wall-clock budget runs out
    /// first.
    pub fn with_cancel_after_ms(mut self, ms: u64) -> Self {
        let at = Instant::now() + Duration::from_millis(ms);
        if self.deadline.is_none_or(|deadline| at < deadline) {
            self.deadline = Some(at);
            self.budget_ms = None;
        }
        self
    }

    /// Returns this budget watching `flag` as its drain flag; once a
    /// supervisor stores `true` in it, the next [`check`](Self::check)
    /// fails with [`NumericsError::Cancelled`].
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
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

    /// Fails once the budget has stopped the solve. `stage` names the
    /// pipeline stage for the error message (e.g.
    /// `"reachability exploration"`).
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the drain flag is set or the
    /// cancellation deadline has passed;
    /// [`NumericsError::BudgetExceeded`] when the wall-clock budget has run
    /// out.
    pub fn check(&self, stage: &'static str) -> Result<()> {
        let drained = self
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed));
        if !drained && self.deadline.is_none_or(|at| Instant::now() < at) {
            return Ok(());
        }
        // Event emission stays off the happy path: `check` sits inside
        // solver inner loops.
        match self.budget_ms {
            Some(budget_ms) if !drained => {
                nvp_obs::trace::event_with("budget_exceeded", || {
                    vec![("stage", stage.into()), ("budget_ms", budget_ms.into())]
                });
                Err(NumericsError::BudgetExceeded { stage, budget_ms })
            }
            _ => {
                nvp_obs::trace::event_with("cancelled", || vec![("stage", stage.into())]);
                Err(NumericsError::Cancelled { stage })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = SolveBudget::unlimited();
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
    }

    #[test]
    fn drain_flag_trips_check_with_a_typed_error() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::unlimited().with_cancel(flag.clone());
        assert!(b.check("row stage").is_ok());
        flag.store(true, Ordering::Relaxed);
        match b.check("row stage") {
            Err(NumericsError::Cancelled { stage }) => assert_eq!(stage, "row stage"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_ms_cancellation_deadline_cancels() {
        let b = SolveBudget::unlimited().with_cancel_after_ms(0);
        match b.check("row stage") {
            Err(NumericsError::Cancelled { stage }) => assert_eq!(stage, "row stage"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn an_exhausted_wall_clock_budget_is_not_a_cancellation() {
        let b = SolveBudget::with_wall_clock_ms(0).with_cancel_after_ms(3_600_000);
        assert!(matches!(
            b.check("row stage"),
            Err(NumericsError::BudgetExceeded { budget_ms: 0, .. })
        ));
    }

    #[test]
    fn the_earlier_of_budget_and_cancellation_deadline_decides() {
        let cancel_first = SolveBudget::with_wall_clock_ms(3_600_000).with_cancel_after_ms(0);
        assert!(matches!(
            cancel_first.check("row stage"),
            Err(NumericsError::Cancelled { .. })
        ));
        let budget_first = SolveBudget::with_wall_clock_ms(0).with_cancel_after_ms(3_600_000);
        assert!(matches!(
            budget_first.check("row stage"),
            Err(NumericsError::BudgetExceeded { .. })
        ));
        // A set drain flag cancels even a budget that has run out.
        let drained =
            SolveBudget::with_wall_clock_ms(0).with_cancel(Arc::new(AtomicBool::new(true)));
        assert!(matches!(
            drained.check("row stage"),
            Err(NumericsError::Cancelled { .. })
        ));
    }

    #[test]
    fn clones_share_the_deadline_and_the_drain_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let a = SolveBudget::with_wall_clock_ms(60_000).with_cancel(flag.clone());
        let b = a.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(matches!(a.check("a"), Err(NumericsError::Cancelled { .. })));
        assert!(matches!(b.check("b"), Err(NumericsError::Cancelled { .. })));

        let a = SolveBudget::unlimited().with_cancel_after_ms(100);
        let b = a.clone();
        assert!(a.check("a").is_ok() && b.check("b").is_ok());
        std::thread::sleep(Duration::from_millis(110));
        assert!(matches!(a.check("a"), Err(NumericsError::Cancelled { .. })));
        assert!(matches!(b.check("b"), Err(NumericsError::Cancelled { .. })));
    }
}
