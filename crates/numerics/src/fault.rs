//! Deterministic fault injection for the solver pipeline (test-only).
//!
//! Compiled only with the `fault-inject` feature, this module lets tests
//! force solver failures at chosen call counts so the resilience layer in
//! `nvp-core` (backend retry, Monte Carlo fallback, degraded reporting) can
//! be exercised deterministically:
//!
//! * [`FaultMode::ConvergenceFailure`] — the solver reports failure
//!   immediately (singular matrix for dense solves, no-convergence for
//!   power iteration),
//! * [`FaultMode::NanPoison`] — the solver's result vector is poisoned with
//!   a NaN *before* the probability guard runs, exercising the guard path,
//! * [`FaultMode::IterationExhaustion`] — the solver reports that it burned
//!   its entire iteration budget without converging,
//! * [`FaultMode::Panic`] — the worker thread panics at the site, exercising
//!   the `catch_unwind` supervision layer in `nvp-mrgp`/`nvp-core`,
//! * [`FaultMode::Stall`] — the site sleeps for [`STALL_MS`] milliseconds and
//!   then proceeds normally, so a sweep point overstays its deadline and the
//!   next budget check cancels it.
//!
//! A plan travels with the work it targets, like a cancellation flag:
//! [`FaultPlan::arm`] makes an [`ArmedPlan`] (clones share one call
//! counter), [`SolveBudget::with_faults`] attaches it to a budget, and the
//! solver sites that budget reaches ask [`SolveBudget::fault`]. An engine
//! armed with `nvp-core`'s `AnalysisEngine::with_faults` attaches it to every
//! budget it makes, so the plan never fires in unrelated work beside it.
//! The `nvp` binary reads its plan from `NVP_FAULT_INJECT` ([`FromStr`]).
//!
//! # Example
//!
//! ```
//! use nvp_numerics::fault::{FaultMode, FaultPlan, Site};
//! use nvp_numerics::SolveBudget;
//!
//! let plan = FaultPlan::new(Site::DenseStationary, FaultMode::ConvergenceFailure).times(1);
//! let budget = SolveBudget::unlimited().with_faults(plan.arm());
//! assert_eq!(budget.fault(Site::PowerIteration), None); // not counted
//! assert_eq!(budget.fault(Site::DenseStationary), Some(FaultMode::ConvergenceFailure));
//! assert_eq!(budget.fault(Site::DenseStationary), None); // the one hit is spent
//! assert_eq!(SolveBudget::unlimited().fault(Site::DenseStationary), None);
//! ```

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{NumericsError, Result, SolveBudget};

/// How an intercepted solver call should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail immediately as if the solve could not converge at all.
    ConvergenceFailure,
    /// Poison the result vector with a NaN so the stage-boundary guard
    /// must catch it.
    NanPoison,
    /// Fail as if the full iteration budget was spent without converging.
    IterationExhaustion,
    /// Panic on the calling (worker) thread. [`ArmedPlan::fault`] itself
    /// raises the panic, so sites never observe this variant; the
    /// supervision layer upstream must catch it.
    Panic,
    /// Sleep for [`STALL_MS`] milliseconds, then proceed normally. Handled
    /// inside [`ArmedPlan::fault`] (sites never observe this variant); used
    /// to make a solve overstay its point deadline deterministically, so the
    /// budget check after the sleep fails with
    /// [`NumericsError::Cancelled`].
    Stall,
    /// Fail the site's I/O operation (persistent-store read or write). The
    /// engine must degrade the operation to a cache miss / skipped save,
    /// never an error surfaced to the caller.
    Io,
    /// Corrupt the site's on-disk artifact (persistent-store record) so the
    /// checksum-verify-quarantine machinery runs against real damage.
    Corrupt,
}

/// How long a [`FaultMode::Stall`] injection sleeps before letting the call
/// proceed.
pub const STALL_MS: u64 = 50;

/// Which solver entry point a plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Dense LU stationary solves (`ctmc::steady_state_dense`,
    /// `dtmc::stationary_dense`).
    DenseStationary,
    /// Damped power iteration (`sparse::stationary_power_with`).
    PowerIteration,
    /// The MRGP row stage's subordinated-chain transient solves (one per
    /// deterministic marking, in `nvp-mrgp`) — the work that runs on worker
    /// threads.
    SubordinatedTransient,
    /// Persistent solve-store record writes (the engine's save path).
    StoreWrite,
    /// Persistent solve-store record reads (the engine's load path).
    StoreRead,
    /// The serve daemon's job-worker entry point, *outside* the engine's
    /// own panic isolation — a `panic` here fails the whole job, which is
    /// what the flight-recorder postmortem drills need to force.
    ServeJob,
    /// Every interceptable site.
    Any,
}

/// A fault-injection plan: which site to target, how to fail, and at which
/// call counts. Calls matching `site` are counted; calls with index in
/// `[skip, skip + hits)` fault, the rest proceed normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Solver entry point(s) to intercept.
    pub site: Site,
    /// Failure mode injected at matching calls.
    pub mode: FaultMode,
    /// Number of matching calls to let through before faulting.
    pub skip: usize,
    /// Number of matching calls to fault once triggering starts.
    pub hits: usize,
}

impl FaultPlan {
    /// A plan that faults every matching call from the first one on.
    pub fn new(site: Site, mode: FaultMode) -> Self {
        FaultPlan {
            site,
            mode,
            skip: 0,
            hits: usize::MAX,
        }
    }

    /// Returns this plan letting the first `skip` matching calls through.
    pub fn after(mut self, skip: usize) -> Self {
        self.skip = skip;
        self
    }

    /// Returns this plan faulting at most `hits` matching calls.
    pub fn times(mut self, hits: usize) -> Self {
        self.hits = hits;
        self
    }

    /// Arms this plan: returns the handle solver sites consult. Clones of
    /// the handle share one call counter, so the `skip`/`hits` window spans
    /// every budget and engine holding it.
    pub fn arm(self) -> ArmedPlan {
        ArmedPlan {
            plan: self,
            calls: Arc::new(AtomicUsize::new(0)),
        }
    }
}

/// The `NVP_FAULT_INJECT` grammar: `mode@site[:skip[:hits]]` with modes
/// `noconverge`, `nan`, `exhaust`, `panic`, `stall`, `io`, `corrupt` and
/// sites `dense`, `power`, `transient`, `store-write`, `store-read`,
/// `serve-job`, `any`; `skip` and `hits` default to `0` and unlimited.
/// Examples: `noconverge@any`, `nan@dense:1:2`, `panic@transient:0:1`,
/// `io@store-write`, `corrupt@store-read:0:1`.
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> std::result::Result<Self, String> {
        parse_plan(spec).ok_or_else(|| {
            format!("`{spec}` is not a fault plan (expected mode@site[:skip[:hits]])")
        })
    }
}

fn parse_plan(spec: &str) -> Option<FaultPlan> {
    let (mode, rest) = spec.split_once('@')?;
    let mode = match mode {
        "noconverge" => FaultMode::ConvergenceFailure,
        "nan" => FaultMode::NanPoison,
        "exhaust" => FaultMode::IterationExhaustion,
        "panic" => FaultMode::Panic,
        "stall" => FaultMode::Stall,
        "io" => FaultMode::Io,
        "corrupt" => FaultMode::Corrupt,
        _ => return None,
    };
    let mut parts = rest.split(':');
    let site = match parts.next()? {
        "dense" => Site::DenseStationary,
        "power" => Site::PowerIteration,
        "transient" => Site::SubordinatedTransient,
        "store-write" => Site::StoreWrite,
        "store-read" => Site::StoreRead,
        "serve-job" => Site::ServeJob,
        "any" => Site::Any,
        _ => return None,
    };
    let skip = match parts.next() {
        Some(s) => s.parse().ok()?,
        None => 0,
    };
    let hits = match parts.next() {
        Some(s) => s.parse().ok()?,
        None => usize::MAX,
    };
    Some(FaultPlan {
        site,
        mode,
        skip,
        hits,
    })
}

/// An armed [`FaultPlan`]: the plan plus the count of matching calls seen
/// so far, shared by every clone. Built by [`FaultPlan::arm`].
#[derive(Debug, Clone)]
pub struct ArmedPlan {
    plan: FaultPlan,
    calls: Arc<AtomicUsize>,
}

impl ArmedPlan {
    /// Called by an interception site: returns the failure mode to inject
    /// at this call, or `None` to proceed normally.
    ///
    /// [`FaultMode::Panic`] and [`FaultMode::Stall`] are handled here — a
    /// panic is raised and a stall sleeps for [`STALL_MS`] before
    /// proceeding — so sites only ever observe the error-shaped modes.
    pub fn fault(&self, site: Site) -> Option<FaultMode> {
        if self.plan.site != Site::Any && self.plan.site != site {
            return None;
        }
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        if index < self.plan.skip || index - self.plan.skip >= self.plan.hits {
            return None;
        }
        let mode = self.plan.mode;
        nvp_obs::trace::event_with("fault_injected", || {
            vec![
                ("site", format!("{site:?}").into()),
                ("mode", format!("{mode:?}").into()),
            ]
        });
        match mode {
            FaultMode::Panic => panic!("fault-inject: injected panic at {site:?}"),
            FaultMode::Stall => {
                std::thread::sleep(std::time::Duration::from_millis(STALL_MS));
                None
            }
            other => Some(other),
        }
    }
}

/// Resolves `budget`'s plan at a numeric solver site: a
/// [`FaultMode::ConvergenceFailure`] fails as that site's solver would (a
/// singular matrix for the dense LU, no convergence elsewhere), a
/// [`FaultMode::IterationExhaustion`] fails with no convergence after
/// `iterations`, and a [`FaultMode::NanPoison`] returns `Ok(true)`: the
/// site poisons its result before the probability guard runs.
///
/// # Errors
///
/// The injected failure, as described above.
pub fn solver_fault(budget: &SolveBudget, site: Site, iterations: usize) -> Result<bool> {
    let no_convergence = |iterations| NumericsError::NoConvergence {
        iterations,
        residual: f64::INFINITY,
    };
    match budget.fault(site) {
        Some(FaultMode::ConvergenceFailure) if site == Site::DenseStationary => {
            Err(NumericsError::SingularMatrix { pivot: 0 })
        }
        Some(FaultMode::ConvergenceFailure) => Err(no_convergence(0)),
        Some(FaultMode::IterationExhaustion) => Err(no_convergence(iterations)),
        Some(FaultMode::NanPoison) => Ok(true),
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_with_no_hits_never_fires() {
        let plan = FaultPlan::new(Site::Any, FaultMode::NanPoison)
            .times(0)
            .arm();
        assert_eq!(plan.fault(Site::DenseStationary), None);
    }

    #[test]
    fn skip_and_hits_window_is_respected() {
        let plan = FaultPlan::new(Site::PowerIteration, FaultMode::ConvergenceFailure)
            .after(1)
            .times(2)
            .arm();
        assert_eq!(plan.fault(Site::PowerIteration), None);
        assert_eq!(
            plan.fault(Site::PowerIteration),
            Some(FaultMode::ConvergenceFailure)
        );
        assert_eq!(
            plan.fault(Site::PowerIteration),
            Some(FaultMode::ConvergenceFailure)
        );
        assert_eq!(plan.fault(Site::PowerIteration), None);
    }

    #[test]
    fn site_filter_only_counts_matching_calls() {
        let plan = FaultPlan::new(Site::DenseStationary, FaultMode::NanPoison)
            .times(1)
            .arm();
        assert_eq!(plan.fault(Site::PowerIteration), None);
        assert_eq!(
            plan.fault(Site::DenseStationary),
            Some(FaultMode::NanPoison)
        );
        assert_eq!(plan.fault(Site::DenseStationary), None);
    }

    #[test]
    fn clones_share_the_call_counter_and_separate_arms_do_not() {
        let plan = FaultPlan::new(Site::Any, FaultMode::IterationExhaustion).times(1);
        let armed = plan.arm();
        let clone = armed.clone();
        assert!(armed.fault(Site::DenseStationary).is_some());
        // The clone sees the hit its sibling consumed...
        assert_eq!(clone.fault(Site::DenseStationary), None);
        // ...while a second arming of the same plan counts from zero.
        assert!(plan.arm().fault(Site::DenseStationary).is_some());
    }

    #[test]
    fn env_spec_parses_every_mode_site_and_window() {
        use FaultMode::*;
        let plan = FaultPlan::new;
        for (spec, expected) in [
            ("noconverge@any", plan(Site::Any, ConvergenceFailure)),
            (
                "nan@dense:1:2",
                plan(Site::DenseStationary, NanPoison).after(1).times(2),
            ),
            (
                "exhaust@power:3",
                plan(Site::PowerIteration, IterationExhaustion).after(3),
            ),
            (
                "panic@transient:0:1",
                plan(Site::SubordinatedTransient, Panic).times(1),
            ),
            ("stall@any", plan(Site::Any, Stall)),
            ("io@store-write", plan(Site::StoreWrite, Io)),
            (
                "corrupt@store-read:0:1",
                plan(Site::StoreRead, Corrupt).times(1),
            ),
            ("panic@serve-job", plan(Site::ServeJob, Panic)),
        ] {
            assert_eq!(spec.parse(), Ok(expected), "{spec}");
        }
        for spec in [
            "bogus@any",
            "nan@nowhere",
            "nan",
            "io@store",
            "panic@dnse",
            "nan@dense:x",
        ] {
            let err = spec.parse::<FaultPlan>().unwrap_err();
            assert!(err.contains(spec), "{err}");
        }
    }

    #[test]
    fn store_sites_count_separately() {
        let plan = FaultPlan::new(Site::StoreWrite, FaultMode::Io)
            .times(1)
            .arm();
        // A store-read call must not consume the store-write plan.
        assert_eq!(plan.fault(Site::StoreRead), None);
        assert_eq!(plan.fault(Site::StoreWrite), Some(FaultMode::Io));
        assert_eq!(plan.fault(Site::StoreWrite), None);
    }

    #[test]
    fn panic_mode_panics_inside_fault_and_consumes_its_hit() {
        let plan = FaultPlan::new(Site::DenseStationary, FaultMode::Panic)
            .times(1)
            .arm();
        let unwound = std::panic::catch_unwind(|| plan.fault(Site::DenseStationary));
        assert!(unwound.is_err());
        // The single hit was consumed, so subsequent calls proceed normally.
        assert_eq!(plan.fault(Site::DenseStationary), None);
    }

    #[test]
    fn stall_mode_sleeps_then_proceeds() {
        let plan = FaultPlan::new(Site::PowerIteration, FaultMode::Stall)
            .times(1)
            .arm();
        let start = std::time::Instant::now();
        assert_eq!(plan.fault(Site::PowerIteration), None);
        assert!(start.elapsed() >= std::time::Duration::from_millis(STALL_MS));
        let start = std::time::Instant::now();
        assert_eq!(plan.fault(Site::PowerIteration), None);
        assert!(start.elapsed() < std::time::Duration::from_millis(STALL_MS));
    }
}
