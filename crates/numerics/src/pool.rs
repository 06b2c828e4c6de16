//! A process-wide worker budget and the one fan-out that spends it.
//!
//! Two layers of this workspace parallelize independently: the analysis
//! engine fans a sweep's grid points out over threads, and the MRGP solver
//! fans the subordinated-chain row solves of a single solve out over
//! threads. Both go through [`WorkerPool::run_indexed`]: it runs one task
//! per index on the calling thread plus however many scoped workers the
//! pool grants, and returns the results in index order.
//!
//! Run naively, a parallel sweep of parallel solves would spawn
//! `cores × cores` workers and thrash. Instead every fan-out draws
//! *permits* from one [`WorkerPool`] sized to the machine (or to
//! `NVP_JOBS`): a fan-out that gets no permits runs its tasks on the
//! calling thread alone, so nested parallelism degrades to serial instead of
//! oversubscribing.
//!
//! The accounting convention: a permit stands for one **extra** worker
//! thread beyond the calling thread. A pool of capacity `c` therefore hands
//! out at most `c - 1` permits, keeping the total number of working threads
//! at or below `c` no matter how the layers nest (the outer layer's workers
//! each hold a permit; the innermost calling thread is the implicit
//! `+1`).
//!
//! Acquisition is non-blocking by design ([`WorkerPool::try_acquire`]
//! grants *up to* the requested count, possibly zero): a solver thread that
//! waited for permits held by its own parent layer would deadlock.
//!
//! # Example
//!
//! ```
//! use nvp_numerics::pool::{Jobs, WorkerPool};
//!
//! let pool = WorkerPool::new(4);
//! let run = pool.run_indexed(Jobs::Auto, 6, |i| Ok::<_, String>(i * i));
//! assert_eq!(run.results, Ok(vec![0, 1, 4, 9, 16, 25]));
//! assert_eq!(run.workers, 4); // the calling thread plus 3 permits
//!
//! // The first failure skips every index no worker has claimed yet, and
//! // the lowest-index error is the answer.
//! let run = pool.run_indexed(Jobs::Fixed(1), 6, |i| {
//!     if i >= 2 { Err(format!("bad {i}")) } else { Ok(i) }
//! });
//! assert_eq!(run.results, Err("bad 2".to_owned()));
//! assert_eq!(run.skipped, 3);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How many worker threads a parallel stage may use, including the calling
/// thread.
///
/// `Auto` defers to the [`WorkerPool`]'s capacity; `Fixed(n)` asks for
/// exactly `n` (still subject to permit availability, so nesting can only
/// shrink it). `Fixed(1)` — or `Auto` on a one-permit pool — is the strict
/// serial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jobs {
    /// Use as many workers as the pool allows.
    #[default]
    Auto,
    /// Use at most this many workers (≥ 1; the calling thread counts).
    Fixed(usize),
}

/// The largest worker count [`Jobs::parse`] accepts. A fan-out spawns one
/// OS thread per extra worker, and a thread the OS refuses is a panic, so an
/// unbounded `--jobs` could ask for a hundred thousand threads.
const MAX_JOBS: usize = 256;

impl Jobs {
    /// Parses a `--jobs` / `NVP_JOBS` style value: an integer from 1 to 256,
    /// or `auto`. Returns `None` for anything else (including `0`, which
    /// would mean "no workers at all" — the calling thread always works).
    pub fn parse(s: &str) -> Option<Jobs> {
        if s.eq_ignore_ascii_case("auto") {
            return Some(Jobs::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if (1..=MAX_JOBS).contains(&n) => Some(Jobs::Fixed(n)),
            _ => None,
        }
    }

    /// The number of workers this knob asks for when there are `items`
    /// independent pieces of work and the pool's capacity is `capacity`:
    /// never more than one worker per item, never more than the cap.
    pub fn desired_workers(self, items: usize, capacity: usize) -> usize {
        let want = match self {
            Jobs::Auto => capacity,
            Jobs::Fixed(n) => n.max(1),
        };
        want.min(items).max(1)
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Jobs::Auto => f.write_str("auto"),
            Jobs::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// A shared budget of worker permits (see the [module docs](self)).
#[derive(Debug)]
pub struct WorkerPool {
    /// Total worker budget including the implicit calling thread; at most
    /// `capacity - 1` permits are ever outstanding.
    capacity: AtomicUsize,
    /// Permits currently held.
    in_use: AtomicUsize,
    /// High-water mark of `in_use` since the last [`WorkerPool::reset_peak`].
    peak: AtomicUsize,
    /// Requests granted fewer permits than they asked for.
    starvations: AtomicU64,
    /// Outstanding solve leases, keyed by lease id (see [`WorkerPool::lease`]).
    leases: Mutex<HashMap<u64, LeaseEntry>>,
    /// Next lease id to hand out.
    next_lease: AtomicU64,
    /// Leases cancelled by [`WorkerPool::watchdog_sweep`] (lifetime total).
    rejuvenations: AtomicU64,
    /// Poisoned lease-table locks recovered instead of propagated (lifetime
    /// total).
    lock_recoveries: AtomicU64,
}

/// Bookkeeping for one outstanding solve lease.
#[derive(Debug)]
struct LeaseEntry {
    /// Instant past which the watchdog cancels the lease, if any.
    deadline: Option<Instant>,
    /// Cancellation flag shared with the leaseholder's [`SolveBudget`]
    /// (via [`Lease::cancel_token`]).
    ///
    /// [`SolveBudget`]: crate::budget::SolveBudget
    cancel: Arc<AtomicBool>,
}

impl WorkerPool {
    /// A pool with a total worker budget of `capacity` threads (clamped to
    /// at least 1 — the calling thread always exists).
    pub fn new(capacity: usize) -> Self {
        WorkerPool {
            capacity: AtomicUsize::new(capacity.max(1)),
            in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            starvations: AtomicU64::new(0),
            leases: Mutex::new(HashMap::new()),
            next_lease: AtomicU64::new(0),
            rejuvenations: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
        }
    }

    /// The process-wide pool both parallel layers draw from. Sized on first
    /// use from the `NVP_JOBS` environment variable (a count [`Jobs::parse`]
    /// accepts) or, when unset, malformed or over the cap, from
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("NVP_JOBS")
                .ok()
                .and_then(|v| match Jobs::parse(&v) {
                    Some(Jobs::Fixed(n)) => Some(n),
                    _ => None,
                })
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            WorkerPool::new(capacity)
        })
    }

    /// Total worker budget (including the implicit calling thread).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Re-sizes the budget (clamped to ≥ 1). Outstanding permits are
    /// unaffected; shrinking below the current usage only stops *further*
    /// grants until permits are released.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        let cap = self.capacity().saturating_sub(1);
        cap.saturating_sub(self.in_use.load(Ordering::Relaxed))
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently held permits since the last
    /// [`WorkerPool::reset_peak`]. Peak `p` means at most `p + 1` threads
    /// were ever working at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current usage.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Requests granted fewer permits than asked (lifetime total).
    pub fn starvations(&self) -> u64 {
        self.starvations.load(Ordering::Relaxed)
    }

    /// Acquires up to `want` permits without blocking; the grant may be
    /// empty. Dropping the returned [`Permits`] releases them. A grant
    /// smaller than `want` (with `want > 0`) counts as a starvation.
    pub fn try_acquire(&self, want: usize) -> Permits<'_> {
        let mut granted = 0;
        if want > 0 {
            let max_permits = self.capacity().saturating_sub(1);
            let mut current = self.in_use.load(Ordering::Relaxed);
            loop {
                let free = max_permits.saturating_sub(current);
                let take = want.min(free);
                if take == 0 {
                    break;
                }
                match self.in_use.compare_exchange_weak(
                    current,
                    current + take,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        granted = take;
                        self.peak.fetch_max(current + take, Ordering::Relaxed);
                        break;
                    }
                    Err(actual) => current = actual,
                }
            }
            if granted < want {
                self.starvations.fetch_add(1, Ordering::Relaxed);
                nvp_obs::trace::event_with("permit_starvation", || {
                    vec![("wanted", want.into()), ("granted", granted.into())]
                });
            }
        }
        Permits {
            pool: self,
            count: granted,
        }
    }

    /// Runs `task(i)` for every `i < n` and returns the results in index
    /// order, together with the schedule it ran on.
    ///
    /// The calling thread always works; up to `jobs − 1` scoped workers
    /// join it, each holding a permit from this pool for the duration. All
    /// of them claim indices from one shared counter, so with no permits the
    /// calling thread runs every task itself, in index order. After the
    /// first failure, indices no thread has claimed yet are skipped
    /// ([`IndexedRun::skipped`]), and the lowest-index error is returned in
    /// place of the results. A panicking task propagates out of this call
    /// once every worker has stopped; callers that must survive one catch it
    /// inside `task`.
    pub fn run_indexed<T, E, F>(&self, jobs: Jobs, n: usize, task: F) -> IndexedRun<T, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let extra = jobs.desired_workers(n, self.capacity()) - 1;
        let permits = self.try_acquire(extra);
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // A skipped slot stays `None`: the failure that raised the flag
            // is what the caller sees.
            if failed.load(Ordering::Relaxed) {
                continue;
            }
            let result = task(i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 0..permits.count() {
                scope.spawn(work);
            }
            work(); // the calling thread holds the implicit permit
        });
        let slots: Vec<Option<Result<T, E>>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let skipped = slots.iter().filter(|slot| slot.is_none()).count();
        IndexedRun {
            // Only a failure skips an index, so collecting stops at an
            // error before a skipped slot could shorten the results.
            results: slots.into_iter().flatten().collect(),
            workers: permits.count() + 1,
            starved: permits.count() < extra,
            skipped,
        }
    }

    /// Locks the lease table, recovering from poisoning (a panicking
    /// leaseholder) instead of propagating the panic process-wide. Every
    /// entry in the table is a plain insert/remove, so a poisoned guard's
    /// contents are still consistent.
    fn lease_table(&self) -> MutexGuard<'_, HashMap<u64, LeaseEntry>> {
        self.leases.lock().unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            self.leases.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Registers a solve with the pool's watchdog and returns its [`Lease`].
    ///
    /// A lease with a `deadline` is cancelled — its shared flag set, so the
    /// leaseholder's next budget check fails with
    /// [`NumericsError::Cancelled`](crate::NumericsError::Cancelled) — by the
    /// next [`watchdog_sweep`](Self::watchdog_sweep) after the deadline
    /// elapses. A lease without a deadline is tracked but never cancelled.
    /// Dropping the lease unregisters it.
    pub fn lease(&self, deadline: Option<Duration>) -> Lease<'_> {
        let id = self.next_lease.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let cancel = Arc::new(AtomicBool::new(false));
        self.lease_table().insert(
            id,
            LeaseEntry {
                deadline: deadline.map(|d| started + d),
                cancel: Arc::clone(&cancel),
            },
        );
        Lease {
            pool: self,
            id,
            started,
            cancel,
        }
    }

    /// Number of currently outstanding leases.
    #[cfg(test)]
    fn active_leases(&self) -> usize {
        self.lease_table().len()
    }

    /// Cancels every outstanding lease whose deadline has passed and returns
    /// how many were newly cancelled. Callers normally run this from a
    /// [`start_watchdog`](Self::start_watchdog) thread rather than directly.
    pub fn watchdog_sweep(&self) -> usize {
        let now = Instant::now();
        let mut cancelled = 0;
        for entry in self.lease_table().values() {
            if let Some(deadline) = entry.deadline {
                if now >= deadline && !entry.cancel.swap(true, Ordering::Relaxed) {
                    cancelled += 1;
                }
            }
        }
        if cancelled > 0 {
            self.rejuvenations
                .fetch_add(cancelled as u64, Ordering::Relaxed);
            nvp_obs::trace::event_with("rejuvenation", || {
                vec![("cancelled_leases", cancelled.into())]
            });
        }
        cancelled
    }

    /// Leases cancelled by the watchdog (lifetime total).
    pub fn rejuvenations(&self) -> u64 {
        self.rejuvenations.load(Ordering::Relaxed)
    }

    /// Poisoned lease-table locks recovered instead of propagated (lifetime
    /// total).
    pub fn lock_recoveries(&self) -> u64 {
        self.lock_recoveries.load(Ordering::Relaxed)
    }

    /// Spawns a background watchdog thread that runs
    /// [`watchdog_sweep`](Self::watchdog_sweep) every `period` until the
    /// returned [`Watchdog`] handle is dropped (which stops and joins the
    /// thread). Only available on the `'static` pool —
    /// [`global`](Self::global) — so the thread can never outlive its pool.
    pub fn start_watchdog(&'static self, period: Duration) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nvp-watchdog".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    self.watchdog_sweep();
                    std::thread::park_timeout(period);
                }
            })
            .expect("failed to spawn watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }
}

/// A registered solve being tracked by the pool's watchdog; unregisters on
/// drop. See [`WorkerPool::lease`].
#[derive(Debug)]
#[must_use = "the lease is unregistered as soon as this is dropped"]
pub struct Lease<'a> {
    pool: &'a WorkerPool,
    id: u64,
    started: Instant,
    cancel: Arc<AtomicBool>,
}

impl Lease<'_> {
    /// How long this lease has been outstanding.
    pub fn age(&self) -> Duration {
        self.started.elapsed()
    }

    /// The cancellation flag shared between this lease and the watchdog;
    /// pass it to [`SolveBudget::with_cancel`] so the leaseholder's solve
    /// observes watchdog cancellation at its next budget check.
    ///
    /// [`SolveBudget::with_cancel`]: crate::budget::SolveBudget::with_cancel
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// `true` once the watchdog has cancelled this lease.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.pool.lease_table().remove(&self.id);
    }
}

/// Handle to a running watchdog thread; dropping it stops and joins the
/// thread. See [`WorkerPool::start_watchdog`].
#[derive(Debug)]
#[must_use = "the watchdog thread stops as soon as this is dropped"]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// The results and schedule of one [`WorkerPool::run_indexed`] fan-out.
#[derive(Debug)]
pub struct IndexedRun<T, E> {
    /// Every task's value in index order, or the lowest-index error.
    pub results: Result<Vec<T>, E>,
    /// Threads that ran tasks, the calling thread included.
    pub workers: usize,
    /// Whether the pool granted fewer permits than the jobs setting asked
    /// for (also counted in [`WorkerPool::starvations`]).
    pub starved: bool,
    /// Indices never started because a task had already failed.
    pub skipped: usize,
}

/// A batch of worker permits held against a [`WorkerPool`]; released on
/// drop.
#[derive(Debug)]
#[must_use = "permits are released as soon as this is dropped"]
pub struct Permits<'a> {
    pool: &'a WorkerPool,
    count: usize,
}

impl Permits<'_> {
    /// Number of permits actually granted (may be less than requested,
    /// including zero).
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.pool.in_use.fetch_sub(self.count, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parse_accepts_auto_and_positive_integers() {
        assert_eq!(Jobs::parse("auto"), Some(Jobs::Auto));
        assert_eq!(Jobs::parse("AUTO"), Some(Jobs::Auto));
        assert_eq!(Jobs::parse("1"), Some(Jobs::Fixed(1)));
        assert_eq!(Jobs::parse("16"), Some(Jobs::Fixed(16)));
        assert_eq!(Jobs::parse("0"), None);
        assert_eq!(Jobs::parse("-2"), None);
        assert_eq!(Jobs::parse("many"), None);
        assert_eq!(Jobs::parse(""), None);
    }

    #[test]
    fn jobs_parse_caps_the_worker_count() {
        assert_eq!(Jobs::parse("256"), Some(Jobs::Fixed(MAX_JOBS)));
        assert_eq!(Jobs::parse("257"), None);
        assert_eq!(Jobs::parse("100000"), None);
    }

    #[test]
    fn desired_workers_is_bounded_by_items_and_capacity() {
        assert_eq!(Jobs::Auto.desired_workers(100, 8), 8);
        assert_eq!(Jobs::Auto.desired_workers(3, 8), 3);
        assert_eq!(Jobs::Fixed(4).desired_workers(100, 8), 4);
        assert_eq!(Jobs::Fixed(12).desired_workers(100, 8), 12);
        assert_eq!(Jobs::Fixed(1).desired_workers(100, 8), 1);
        // Never zero: the calling thread always works.
        assert_eq!(Jobs::Auto.desired_workers(0, 8), 1);
        assert_eq!(Jobs::Fixed(3).desired_workers(0, 1), 1);
    }

    #[test]
    fn permits_never_exceed_capacity_minus_one() {
        let pool = WorkerPool::new(4);
        let a = pool.try_acquire(10);
        assert_eq!(a.count(), 3, "capacity 4 leaves 3 permits");
        let b = pool.try_acquire(1);
        assert_eq!(b.count(), 0, "pool exhausted");
        drop(a);
        assert_eq!(pool.available(), 3);
        let c = pool.try_acquire(2);
        assert_eq!(c.count(), 2);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn capacity_one_pool_grants_nothing() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.try_acquire(8).count(), 0);
        assert_eq!(pool.available(), 0);
        // Capacity 0 is clamped to 1.
        let pool = WorkerPool::new(0);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let pool = WorkerPool::new(5);
        let a = pool.try_acquire(2);
        assert_eq!(pool.peak(), 2);
        let b = pool.try_acquire(2);
        assert_eq!(pool.peak(), 4);
        drop(b);
        drop(a);
        assert_eq!(pool.peak(), 4, "peak survives release");
        pool.reset_peak();
        assert_eq!(pool.peak(), 0);
        let _c = pool.try_acquire(1);
        assert_eq!(pool.peak(), 1);
    }

    #[test]
    fn short_grants_count_as_starvations() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.starvations(), 0);
        let a = pool.try_acquire(2); // exact: no starvation
        assert_eq!(pool.starvations(), 0);
        let b = pool.try_acquire(2); // nothing left
        assert_eq!(b.count(), 0);
        assert_eq!(pool.starvations(), 1);
        drop(a);
        let c = pool.try_acquire(5); // partial
        assert_eq!(c.count(), 2);
        assert_eq!(pool.starvations(), 2);
        // Asking for nothing is not starvation.
        let d = pool.try_acquire(0);
        assert_eq!(d.count(), 0);
        assert_eq!(pool.starvations(), 2);
    }

    #[test]
    fn shrinking_capacity_blocks_new_grants_only() {
        let pool = WorkerPool::new(4);
        let a = pool.try_acquire(3);
        assert_eq!(a.count(), 3);
        pool.set_capacity(2);
        assert_eq!(pool.try_acquire(1).count(), 0, "over the new cap");
        drop(a);
        assert_eq!(pool.try_acquire(3).count(), 1, "new cap applies");
    }

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let pool = WorkerPool::new(4);
        let n = 40;
        for jobs in [1, 2, 4] {
            let run = pool.run_indexed(Jobs::Fixed(jobs), n, |i| {
                // Early indices take longest, so completion order differs
                // from index order whenever several workers run.
                std::thread::sleep(Duration::from_micros(((n - i) * 20) as u64));
                Ok::<_, ()>(i * i)
            });
            assert_eq!(run.results, Ok((0..n).map(|i| i * i).collect::<Vec<_>>()));
            assert_eq!(run.workers, jobs);
            assert!(!run.starved);
            assert_eq!(run.skipped, 0);
            assert_eq!(pool.in_use(), 0, "permits are released");
        }
    }

    #[test]
    fn run_indexed_returns_the_lowest_index_error_and_skips_the_rest() {
        let pool = WorkerPool::new(4);
        for jobs in [1, 4] {
            let started = AtomicUsize::new(0);
            let run = pool.run_indexed(Jobs::Fixed(jobs), 24, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                Err::<(), _>(i)
            });
            assert_eq!(run.results, Err(0));
            let started = started.into_inner();
            assert!(started >= 1 && started <= jobs, "{started} tasks started");
            assert_eq!(run.skipped, 24 - started);
        }
    }

    #[test]
    fn run_indexed_reports_a_short_permit_grant() {
        let pool = WorkerPool::new(3);
        let held = pool.try_acquire(1);
        let run = pool.run_indexed(Jobs::Fixed(4), 8, Ok::<_, ()>);
        assert!(run.starved);
        assert_eq!(run.workers, 2, "one permit was left for the fan-out");
        assert_eq!(run.results, Ok((0..8).collect::<Vec<_>>()));
        drop(held);
        // Asking for no extra workers is never a short grant.
        let run = pool.run_indexed(Jobs::Fixed(1), 8, Ok::<_, ()>);
        assert!(!run.starved);
        assert_eq!(run.workers, 1);
        let run = pool.run_indexed(Jobs::Auto, 1, Ok::<_, ()>);
        assert!(!run.starved);
        assert_eq!(pool.starvations(), 1);
    }

    #[test]
    fn global_pool_has_at_least_one_worker() {
        let pool = WorkerPool::global();
        assert!(pool.capacity() >= 1);
    }

    #[test]
    fn leases_register_and_unregister() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.active_leases(), 0);
        let a = pool.lease(None);
        let b = pool.lease(Some(Duration::from_secs(3600)));
        assert_eq!(pool.active_leases(), 2);
        assert!(!a.is_cancelled());
        drop(a);
        drop(b);
        assert_eq!(pool.active_leases(), 0);
    }

    #[test]
    fn watchdog_sweep_cancels_only_overdue_leases() {
        let pool = WorkerPool::new(2);
        let overdue = pool.lease(Some(Duration::from_millis(0)));
        let fresh = pool.lease(Some(Duration::from_secs(3600)));
        let untimed = pool.lease(None);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(pool.watchdog_sweep(), 1);
        assert!(overdue.is_cancelled());
        assert!(overdue.cancel_token().load(Ordering::Relaxed));
        assert!(!fresh.is_cancelled());
        assert!(!untimed.is_cancelled());
        assert_eq!(pool.rejuvenations(), 1);
        // A second sweep does not double-count the already-cancelled lease.
        assert_eq!(pool.watchdog_sweep(), 0);
        assert_eq!(pool.rejuvenations(), 1);
    }

    #[test]
    fn cancelled_lease_trips_a_budget_carrying_its_token() {
        let pool = WorkerPool::new(2);
        let lease = pool.lease(Some(Duration::from_millis(0)));
        let budget = crate::budget::SolveBudget::unlimited().with_cancel(lease.cancel_token());
        assert!(budget.check("before cancellation").is_ok());
        std::thread::sleep(Duration::from_millis(2));
        pool.watchdog_sweep();
        match budget.check("after cancellation") {
            Err(crate::NumericsError::Cancelled { stage }) => {
                assert_eq!(stage, "after cancellation");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn background_watchdog_cancels_an_overdue_lease() {
        // Watchdog requires a 'static pool; leak a dedicated one so the test
        // does not interfere with the global pool's counters.
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(2)));
        let lease = pool.lease(Some(Duration::from_millis(5)));
        let watchdog = pool.start_watchdog(Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lease.is_cancelled() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(lease.is_cancelled(), "watchdog never fired");
        drop(watchdog); // stops and joins the thread
        assert!(pool.rejuvenations() >= 1);
    }

    #[test]
    fn poisoned_lease_table_is_recovered_not_propagated() {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(2)));
        // Poison the lease-table mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(|| {
            let _guard = pool.leases.lock().unwrap();
            panic!("poison the lease table");
        });
        let lease = pool.lease(Some(Duration::from_secs(3600)));
        assert_eq!(pool.active_leases(), 1);
        assert!(pool.lock_recoveries() >= 1);
        drop(lease);
        assert_eq!(pool.active_leases(), 0);
    }
}
