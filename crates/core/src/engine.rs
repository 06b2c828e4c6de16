//! The memoizing analysis engine: cached chain stage, cheap reward stage.
//!
//! Every analysis in this crate factors through the same pipeline:
//!
//! ```text
//! params ──► build DSPN ──► explore reachability ──► steady state   (chain stage)
//!                 │                                        │
//!                 └────────► reward vector ◄───────────────┘        (reward stage)
//! ```
//!
//! The chain stage is expensive (state-space exploration plus an MRGP or
//! CTMC solve) but depends only on the *chain-relevant* subset of
//! [`SystemParams`] — the module counts, rates, delays and semantics that
//! shape the Petri net. The reward parameters `α`, `p`, `p′` never enter
//! the net: they only weight markings in the reward stage, which is a dot
//! product. Sweeps over those axes therefore need exactly **one** chain
//! solve, a property [`AnalysisEngine`] exploits by memoizing chain
//! solutions under a [`ChainKey`].
//!
//! The engine is [`Sync`]: [`AnalysisEngine::sweep_supervised`] workers share
//! one cache, and concurrent requests for the same key block on a per-key
//! slot so the chain is still solved only once.
//!
//! The chain stage is additionally wrapped in a *resilience layer*: every
//! uncached solve runs under an optional wall-clock [`SolveBudget`]
//! ([`AnalysisEngine::with_budget_ms`]), and a solver failure triggers a
//! fallback chain — first the alternate stationary backend at a relaxed
//! tolerance ([`RELAXED_TOLERANCE`]), then, if a [`MonteCarloHook`] is
//! installed, a simulation-based occupancy estimate. A solution produced by
//! a fallback carries a [`DegradedInfo`] record so downstream reports can
//! surface the degradation instead of silently presenting the estimate as
//! exact.
//!
//! The engine's [`MetricsRegistry`] is the only record of what it has done:
//! every layer — exploration ([`ExploreStats`]), the MRGP solver
//! ([`MrgpStats`]), the resilience layer and the cache — adds to registry
//! cells, and [`SolverStats`] is a typed read of those cells. A chain
//! solution adds its exploration and solver counters once, when it enters
//! the cache. No telemetry read takes a cache lock.

use crate::analysis::{AnalysisReport, DegradedReport, ParamAxis, SolverBackend, StateReport};
use crate::params::{RejuvenationDistribution, ServerSemantics, SystemParams};
use crate::reliability::{ReliabilityModel, ReliabilitySource};
use crate::reward::{reward_vector, ModulePlaces, RewardPolicy};
use crate::state::SystemState;
use crate::{model, Result};
use nvp_mrgp::{MrgpError, MrgpStats, SolveMethod, SolveOptions, SteadyState};
use nvp_numerics::{
    alternate_backend, optim, panic_payload, stationary_backend_for, Jobs, NumericsError,
    SolveBudget, StationaryBackend, WorkerPool,
};
use nvp_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use nvp_petri::net::PetriNet;
use nvp_petri::reach::{ExploreStats, TangibleReachGraph};
use nvp_store::{DegradedRecord, Load, SolveRecord, SolveStore};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Convergence tolerance used when retrying a failed stationary solve on
/// the alternate backend. Looser than the default (`1e-12`): a slightly
/// blunter answer clearly beats no answer, and the degradation is reported.
pub const RELAXED_TOLERANCE: f64 = 1e-8;

/// Default number of times a supervised grid-point solve is retried after a
/// retryable failure (worker panic or the point's deadline) before the
/// failure is reported. See [`AnalysisEngine::with_retries`].
pub const DEFAULT_RETRIES: u32 = 1;

/// Base of the exponential backoff between supervised retries: attempt `k`
/// sleeps `RETRY_BACKOFF_BASE_MS << (k - 1)` milliseconds first.
const RETRY_BACKOFF_BASE_MS: u64 = 25;

/// Largest time fraction a Monte Carlo fallback may spend in markings
/// outside the explored graph before its estimate is rejected. Exploration
/// and simulation share the net, so any unmatched mass signals a bug or a
/// truncated (budgeted) graph — an estimate over the wrong support would be
/// silently biased.
const MAX_UNMATCHED_MC_MASS: f64 = 1e-9;

/// Which fallback produced a degraded chain solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMethod {
    /// The alternate stationary backend (dense ⇄ iterative, at
    /// [`RELAXED_TOLERANCE`]) answered after the preferred backend failed.
    AlternateBackend,
    /// A Monte Carlo occupancy estimate answered after both analytic
    /// backends failed.
    MonteCarlo,
}

impl std::fmt::Display for DegradedMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedMethod::AlternateBackend => f.write_str("alternate-backend"),
            DegradedMethod::MonteCarlo => f.write_str("monte-carlo"),
        }
    }
}

/// Why and how a chain solution is degraded (attached to [`ChainSolution`]
/// when a fallback answered).
#[derive(Debug, Clone)]
pub struct DegradedInfo {
    /// Fallback that produced the solution.
    pub method: DegradedMethod,
    /// The primary failure that triggered the fallback chain.
    pub reason: String,
    /// Per-marking 95% confidence half-widths of the occupancy estimate
    /// (empty for analytic fallbacks, which carry no sampling error).
    pub half_widths: Vec<f64>,
}

/// A completed grid point, as reported to the observer of
/// [`AnalysisEngine::sweep_supervised`]. Carries everything a checkpoint
/// journal needs to replay the point without re-solving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPointRecord {
    /// Index of the point in the sweep's input grid.
    pub index: usize,
    /// The swept parameter value.
    pub x: f64,
    /// The computed expected reliability.
    pub value: f64,
    /// Whether the chain solution behind the value is degraded (answered by
    /// a fallback).
    pub degraded: bool,
}

/// A Monte Carlo steady-state occupancy estimate over a tangible
/// reachability graph, as returned by a [`MonteCarloHook`].
#[derive(Debug, Clone, PartialEq)]
pub struct McOccupancy {
    /// Estimated time fraction per tangible marking (graph indexing).
    pub occupancy: Vec<f64>,
    /// 95% confidence half-width per marking.
    pub half_widths: Vec<f64>,
    /// Time fraction spent in markings absent from the graph.
    pub unmatched: f64,
}

/// Last-resort steady-state estimator used by the fallback chain.
///
/// `nvp-core` cannot depend on the simulator (`nvp-sim` sits above it in
/// the dependency graph), so the Monte Carlo estimator is injected:
/// `nvp_sim::fallback::monte_carlo_hook` builds one from the DSPN
/// simulator, and tests can substitute deterministic stubs. Errors are
/// strings because the hook's failure is only ever reported, never matched.
pub type MonteCarloHook = Arc<
    dyn Fn(&PetriNet, &TangibleReachGraph) -> std::result::Result<McOccupancy, String>
        + Send
        + Sync,
>;

/// The chain-relevant subset of [`SystemParams`], in hashable form.
///
/// Two parameter sets with equal keys build the same DSPN, explore the same
/// tangible reachability graph and share one steady-state distribution.
/// The invariant behind the key: the reward parameters `alpha`, `p` and
/// `p_prime` are **absent** — they never reach the Petri net, only the
/// reward vector. Floats are keyed by their bit patterns, so `-0.0` and
/// `0.0` are distinct keys (both are invalid parameters anyway) and equal
/// values always collide as intended.
///
/// When `rejuvenation` is off, the clock fields (`rejuvenation_unit`,
/// `rejuvenation_interval`, `rejuvenation_distribution`,
/// `repair_shares_budget`) are normalized away — [`model::build_model`]
/// ignores them in that case, and normalizing lets a no-rejuvenation sweep
/// over those axes hit a single cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainKey {
    n: u32,
    f: u32,
    r: u32,
    rejuvenation: bool,
    mean_time_to_compromise: u64,
    mean_time_to_failure: u64,
    mean_time_to_repair: u64,
    rejuvenation_unit: u64,
    rejuvenation_interval: u64,
    semantics: ServerSemantics,
    rejuvenation_distribution: RejuvenationDistribution,
    repair_shares_budget: bool,
    max_markings: usize,
}

impl ChainKey {
    /// Extracts the key of `params` under an exploration budget of
    /// `max_markings` tangible markings.
    pub fn of(params: &SystemParams, max_markings: usize) -> Self {
        let rejuvenation = params.rejuvenation;
        ChainKey {
            n: params.n,
            f: params.f,
            r: params.r,
            rejuvenation,
            mean_time_to_compromise: params.mean_time_to_compromise.to_bits(),
            mean_time_to_failure: params.mean_time_to_failure.to_bits(),
            mean_time_to_repair: params.mean_time_to_repair.to_bits(),
            rejuvenation_unit: if rejuvenation {
                params.rejuvenation_unit.to_bits()
            } else {
                0
            },
            rejuvenation_interval: if rejuvenation {
                params.rejuvenation_interval.to_bits()
            } else {
                0
            },
            semantics: params.semantics,
            rejuvenation_distribution: if rejuvenation {
                params.rejuvenation_distribution
            } else {
                RejuvenationDistribution::Exponential
            },
            repair_shares_budget: rejuvenation && params.repair_shares_budget,
            max_markings,
        }
    }

    /// Explicit little-endian byte serialization of this key for the
    /// persistent solve store, prefixed with [`STORE_SOLVER_VERSION`] and
    /// a flag byte. The solver no longer reads the flag
    /// ([`SolveOptions::dedup`]); every store written so far used `true`,
    /// which is what the engine still passes.
    ///
    /// The std `Hash` implementation deliberately plays no part here: its
    /// `RandomState` seed is randomized per process, so std hashes cannot
    /// name files shared across processes (or even across two runs of the
    /// same binary). Every field is written explicitly, floats as their
    /// exact bit patterns, enums as stable one-byte discriminants — the
    /// byte string is the identity of the solve, process-independent and
    /// version-gated.
    pub fn store_bytes(&self, dedup: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        out.extend_from_slice(&STORE_SOLVER_VERSION.to_le_bytes());
        out.push(u8::from(dedup));
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.f.to_le_bytes());
        out.extend_from_slice(&self.r.to_le_bytes());
        out.push(u8::from(self.rejuvenation));
        out.extend_from_slice(&self.mean_time_to_compromise.to_le_bytes());
        out.extend_from_slice(&self.mean_time_to_failure.to_le_bytes());
        out.extend_from_slice(&self.mean_time_to_repair.to_le_bytes());
        out.extend_from_slice(&self.rejuvenation_unit.to_le_bytes());
        out.extend_from_slice(&self.rejuvenation_interval.to_le_bytes());
        out.push(match self.semantics {
            ServerSemantics::SingleServer => 0,
            ServerSemantics::InfiniteServer => 1,
        });
        out.push(match self.rejuvenation_distribution {
            RejuvenationDistribution::Exponential => 0,
            RejuvenationDistribution::Deterministic => 1,
        });
        out.push(u8::from(self.repair_shares_budget));
        out.extend_from_slice(&(self.max_markings as u64).to_le_bytes());
        out
    }
}

/// Version of the numerical pipeline baked into every store key. Bump on
/// any solver or exploration change that could alter the bit pattern of a
/// steady-state vector (new uniformization scheme, different marking
/// order, …): old records then simply stop matching any key and are
/// overwritten, instead of serving stale bits as current results.
///
/// Version 2: duplicate matrix entries are summed in insertion order (see
/// `nvp_numerics::sparse`), not in whatever order an unstable sort left
/// them, which moves the last bits of some steady states.
///
/// Version 3: nets with no deterministic transition (the no-rejuvenation
/// models) are solved through their embedded jump chain instead of the
/// generator's balance equations, which moves the last bits of their
/// steady states.
pub const STORE_SOLVER_VERSION: u32 = 3;

/// Stable store discriminants of [`SolveMethod`]. Byte 1 named the retired
/// CTMC path and is no longer written or accepted.
fn method_to_u8(method: SolveMethod) -> u8 {
    match method {
        SolveMethod::SingleMarking => 0,
        SolveMethod::Mrgp => 2,
    }
}

fn method_from_u8(byte: u8) -> Option<SolveMethod> {
    match byte {
        0 => Some(SolveMethod::SingleMarking),
        2 => Some(SolveMethod::Mrgp),
        _ => None,
    }
}

fn backend_to_u8(backend: StationaryBackend) -> u8 {
    match backend {
        StationaryBackend::Dense => 0,
        StationaryBackend::IterativePower => 1,
    }
}

fn backend_from_u8(byte: u8) -> Option<StationaryBackend> {
    match byte {
        0 => Some(StationaryBackend::Dense),
        1 => Some(StationaryBackend::IterativePower),
        _ => None,
    }
}

fn degraded_to_record(info: &DegradedInfo) -> DegradedRecord {
    DegradedRecord {
        method: match info.method {
            DegradedMethod::AlternateBackend => 0,
            DegradedMethod::MonteCarlo => 1,
        },
        reason: info.reason.clone(),
        half_widths: info.half_widths.clone(),
    }
}

fn degraded_from_record(record: &DegradedRecord) -> Option<DegradedInfo> {
    Some(DegradedInfo {
        method: match record.method {
            0 => DegradedMethod::AlternateBackend,
            1 => DegradedMethod::MonteCarlo,
            _ => return None,
        },
        reason: record.reason.clone(),
        half_widths: record.half_widths.clone(),
    })
}

/// The persistable projection of a solved chain. Run-dependent parallelism
/// counters (`workers_used`, `parallel_rows`, `permit_starvations`) describe
/// the machine the solve ran on, not the solution, and are deliberately
/// dropped (a warm load reports them as 0).
fn record_of(solution: &ChainSolution) -> SolveRecord {
    SolveRecord {
        probabilities: solution.solution.probabilities().to_vec(),
        tangible_markings: solution.explore_stats.tangible_markings as u64,
        vanishing_visits: solution.explore_stats.vanishing_visits as u64,
        timed_arcs: solution.explore_stats.timed_arcs as u64,
        zero_rate_arcs: solution.explore_stats.zero_rate_arcs as u64,
        method: method_to_u8(solution.solver_stats.method),
        backend: backend_to_u8(solution.solver_stats.backend),
        solver_markings: solution.solver_stats.markings as u64,
        subordinated_chains: solution.solver_stats.subordinated_chains as u64,
        max_subordinated_states: solution.solver_stats.max_subordinated_states as u64,
        total_subordinated_states: solution.solver_stats.total_subordinated_states as u64,
        max_truncation_steps: solution.solver_stats.max_truncation_steps as u64,
        guard_trips: solution.solver_stats.guard_trips as u64,
        dedup_classes: solution.solver_stats.dedup_classes as u64,
        dedup_hits: 0,
        steady_state_detections: solution.solver_stats.steady_state_detections as u64,
        degraded: solution.degraded.as_ref().map(degraded_to_record),
    }
}

fn solver_stats_of(record: &SolveRecord) -> Option<MrgpStats> {
    Some(MrgpStats {
        method: method_from_u8(record.method)?,
        markings: record.solver_markings as usize,
        subordinated_chains: record.subordinated_chains as usize,
        max_subordinated_states: record.max_subordinated_states as usize,
        total_subordinated_states: record.total_subordinated_states as usize,
        max_truncation_steps: record.max_truncation_steps as usize,
        backend: backend_from_u8(record.backend)?,
        guard_trips: record.guard_trips as usize,
        dedup_classes: record.dedup_classes as usize,
        steady_state_detections: record.steady_state_detections as usize,
        ..MrgpStats::default()
    })
}

/// A solved chain stage: the model, its reachability graph and steady-state
/// distribution, plus the per-stage statistics.
///
/// Reusable across *any* reward-side parameters — hold the [`Arc`] returned
/// by [`AnalysisEngine::chain`] and evaluate as many reward vectors against
/// it as needed.
#[derive(Debug)]
pub struct ChainSolution {
    /// The DSPN built from the chain parameters.
    pub net: PetriNet,
    /// Tangible reachability graph of `net`.
    pub graph: TangibleReachGraph,
    /// Steady-state probabilities over `graph`'s markings.
    pub solution: SteadyState,
    /// Exploration counters (tangible/vanishing markings, arcs).
    pub explore_stats: ExploreStats,
    /// Steady-state solver counters (method, subordinated chains,
    /// uniformization depth, backend).
    pub solver_stats: MrgpStats,
    /// Set when a fallback produced `solution`; `None` for a clean primary
    /// solve.
    pub degraded: Option<DegradedInfo>,
}

impl ChainSolution {
    /// Rough in-memory footprint of this solution, for cost-aware cache
    /// eviction. Counts the dominant allocations — the probability vector,
    /// the marking table and the timed arcs — plus a fixed overhead; exact
    /// accounting is not needed, only a stable ordering of "big" vs
    /// "small" entries against a configured byte budget.
    pub fn approx_bytes(&self) -> u64 {
        1024 + (self.solution.probabilities().len() as u64) * 8
            + (self.explore_stats.tangible_markings as u64) * 48
            + (self.explore_stats.timed_arcs as u64) * 24
    }
}

/// Aggregated observability over everything an engine has computed: a
/// typed read of the cells in [`AnalysisEngine::metrics`], so it always
/// agrees with the Prometheus exposition.
///
/// Counters are lifetime totals. State-space and solver counters are summed
/// (or maxed, where noted) over every chain solution that entered the cache,
/// cold-solved or loaded from the store, including since-evicted ones.
/// `chain_solutions` and `cache_bytes` describe the cache as it is now.
/// Stage times are the sums of the stage-latency histograms; a store load
/// records build and explore times but no solve time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Chain requests answered from the cache.
    pub cache_hits: u64,
    /// Chain requests that had to run the full chain stage.
    pub cache_misses: u64,
    /// Cached chain solutions dropped to honor a configured cache bound
    /// (lifetime total; see [`AnalysisEngine::with_max_cache_entries`]).
    /// Safe aging containment: an evicted entry reloads warm from the
    /// persistent store on its next request.
    pub cache_evictions: u64,
    /// Distinct chain solutions currently cached.
    pub chain_solutions: usize,
    /// Approximate in-memory footprint of the cached solutions
    /// ([`ChainSolution::approx_bytes`] summed).
    pub cache_bytes: u64,
    /// Total tangible markings across solutions.
    pub tangible_markings: usize,
    /// Total vanishing-marking visits during exploration.
    pub vanishing_visits: usize,
    /// Total timed arcs recorded in the reachability graphs.
    pub timed_arcs: usize,
    /// Timed arcs whose marking-dependent rate evaluated to zero.
    pub zero_rate_arcs: usize,
    /// Total subordinated CTMCs built by the MRGP solver.
    pub subordinated_chains: usize,
    /// Largest subordinated CTMC (state count) seen.
    pub max_subordinated_states: usize,
    /// Deepest uniformization (Poisson-series) truncation actually used.
    pub max_truncation_steps: usize,
    /// Stationary solves answered by the dense LU backend.
    pub dense_solves: usize,
    /// Stationary solves answered by damped power iteration.
    pub iterative_solves: usize,
    /// Fallback stages taken (alternate backend, Monte Carlo) over the
    /// engine's lifetime, including solves that still failed afterwards.
    pub fallbacks_taken: u64,
    /// Solutions that were answered by a fallback.
    pub degraded_solutions: usize,
    /// Stage-boundary probability-guard interventions (negative clamps or
    /// renormalizations).
    pub guard_trips: usize,
    /// Solves aborted because the wall-clock budget was exhausted
    /// (lifetime total; budgeted failures are never cached).
    pub budget_exhaustions: u64,
    /// Largest worker-thread count (including the calling thread) any MRGP
    /// row stage ran with; 1 means every solve ran serially.
    pub workers_used: usize,
    /// Subordinated-chain rows dispatched to a multi-worker row stage.
    pub parallel_rows: usize,
    /// Times the MRGP row stage asked the worker pool for more permits than
    /// it could grant.
    pub permit_starvations: usize,
    /// Sweep grid points skipped because an earlier point's failure
    /// cancelled the sweep (lifetime total).
    pub sweep_cancellations: u64,
    /// Worker panics caught by the supervision layer (solver-level and
    /// engine-level) instead of unwinding the process (lifetime total).
    pub worker_panics: u64,
    /// Supervised solve attempts cancelled for overstaying their point
    /// deadline (lifetime total; see
    /// [`AnalysisEngine::with_point_deadline_ms`]).
    pub rejuvenations: u64,
    /// Supervised retry attempts taken after retryable failures (lifetime
    /// total).
    pub retries: u64,
    /// Sweep grid points served from a resume journal instead of being
    /// solved (lifetime total; see [`AnalysisEngine::note_resume_hits`]).
    pub resume_hits: u64,
    /// Poisoned engine-cache locks recovered instead of propagated
    /// (lifetime total).
    pub poisoned_locks_recovered: u64,
    /// Memory-cache misses answered by the persistent solve store
    /// (lifetime total; 0 without a store).
    pub store_hits: u64,
    /// Persistent-store lookups that found no usable record — absent,
    /// foreign-key, foreign-version, or quarantined entries (lifetime
    /// total).
    pub store_misses: u64,
    /// Persistent-store records that failed checksum or structural
    /// validation and were quarantined as `.corrupt` (lifetime total).
    pub store_corrupt_quarantined: u64,
    /// Persistent-store writes that failed and were swallowed — the solve
    /// result stays valid, only the warm start is lost (lifetime total).
    pub store_write_failures: u64,
    /// Summed wall time of model builds.
    pub build_time: Duration,
    /// Summed wall time of reachability explorations.
    pub explore_time: Duration,
    /// Summed wall time of steady-state solves.
    pub solve_time: Duration,
    /// Summed wall time of reward-stage evaluations.
    pub reward_time: Duration,
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chain cache      : {} solution(s) cached, {} miss(es), {} hit(s), {} eviction(s)",
            self.chain_solutions, self.cache_misses, self.cache_hits, self.cache_evictions
        )?;
        writeln!(
            f,
            "state space      : {} tangible marking(s), {} vanishing visit(s), \
             {} timed arc(s) ({} zero-rate)",
            self.tangible_markings, self.vanishing_visits, self.timed_arcs, self.zero_rate_arcs
        )?;
        writeln!(
            f,
            "mrgp             : {} subordinated chain(s), largest {} state(s), \
             uniformization depth <= {}",
            self.subordinated_chains, self.max_subordinated_states, self.max_truncation_steps
        )?;
        writeln!(
            f,
            "stationary solves: {} dense, {} iterative",
            self.dense_solves, self.iterative_solves
        )?;
        writeln!(
            f,
            "resilience       : {} fallback(s) taken, {} degraded solution(s), \
             {} guard trip(s), {} budget exhaustion(s)",
            self.fallbacks_taken,
            self.degraded_solutions,
            self.guard_trips,
            self.budget_exhaustions
        )?;
        writeln!(
            f,
            "parallelism      : <= {} worker(s), {} row(s) solved in parallel, \
             {} permit starvation(s), {} sweep cancellation(s)",
            self.workers_used,
            self.parallel_rows,
            self.permit_starvations,
            self.sweep_cancellations
        )?;
        writeln!(
            f,
            "supervision      : {} worker panic(s), {} rejuvenation(s), {} retry(ies), \
             {} resume hit(s), {} poisoned lock(s) recovered",
            self.worker_panics,
            self.rejuvenations,
            self.retries,
            self.resume_hits,
            self.poisoned_locks_recovered
        )?;
        writeln!(
            f,
            "solve store      : {} hit(s), {} miss(es), {} corrupt quarantined, \
             {} write failure(s)",
            self.store_hits,
            self.store_misses,
            self.store_corrupt_quarantined,
            self.store_write_failures
        )?;
        write!(
            f,
            "stage times      : build {}, explore {}, solve {}, rewards {}",
            fmt_ms(self.build_time),
            fmt_ms(self.explore_time),
            fmt_ms(self.solve_time),
            fmt_ms(self.reward_time)
        )
    }
}

/// Per-key slot: concurrent requests for the same key contend here (not on
/// the whole cache), so one thread computes while the rest wait for the
/// result instead of recomputing it.
///
/// Lock order: a slot, then the map. The map lock is never held while
/// waiting on a slot, so a solve in progress never stalls a cache hit on
/// another key, nor any telemetry read.
#[derive(Debug, Default)]
struct Slot {
    value: Mutex<Option<Arc<ChainSolution>>>,
    /// Logical timestamp of the slot's last hit or insert, drawn from the
    /// engine's `cache_clock`; bounded eviction removes the smallest.
    last_used: AtomicU64,
    /// [`ChainSolution::approx_bytes`] of the cached value, 0 while the slot
    /// is empty. Written only under the map lock, together with the
    /// cache-shape gauges it feeds.
    bytes: AtomicU64,
}

type CacheMap = HashMap<ChainKey, Arc<Slot>>;

/// Whether `map` still holds `slot` under `key` (a failed solve, an
/// eviction or [`AnalysisEngine::clear`] may have dropped it).
fn holds(map: &CacheMap, key: &ChainKey, slot: &Arc<Slot>) -> bool {
    map.get(key).is_some_and(|held| Arc::ptr_eq(held, slot))
}

/// The registry cells a chain solution adds to once, when it enters the
/// cache (see [`SolutionCells::add`]).
struct SolutionCells {
    tangible_markings: Counter,
    vanishing_visits: Counter,
    timed_arcs: Counter,
    zero_rate_arcs: Counter,
    subordinated_chains: Counter,
    max_subordinated_states: Gauge,
    max_truncation_steps: Gauge,
    dense_solves: Counter,
    iterative_solves: Counter,
    degraded_solutions: Counter,
    guard_trips: Counter,
    workers_used: Gauge,
    parallel_rows: Counter,
    permit_starvations: Counter,
}

impl SolutionCells {
    fn new(metrics: &MetricsRegistry) -> Self {
        SolutionCells {
            tangible_markings: metrics.counter("nvp_tangible_markings_total"),
            vanishing_visits: metrics.counter("nvp_vanishing_visits_total"),
            timed_arcs: metrics.counter("nvp_timed_arcs_total"),
            zero_rate_arcs: metrics.counter("nvp_zero_rate_arcs_total"),
            subordinated_chains: metrics.counter("nvp_subordinated_chains_total"),
            max_subordinated_states: metrics.gauge("nvp_max_subordinated_states"),
            max_truncation_steps: metrics.gauge("nvp_max_truncation_steps"),
            dense_solves: metrics.counter("nvp_dense_solves_total"),
            iterative_solves: metrics.counter("nvp_iterative_solves_total"),
            degraded_solutions: metrics.counter("nvp_degraded_solutions_total"),
            guard_trips: metrics.counter("nvp_guard_trips_total"),
            workers_used: metrics.gauge("nvp_workers_used"),
            parallel_rows: metrics.counter("nvp_parallel_rows_total"),
            permit_starvations: metrics.counter("nvp_permit_starvations_total"),
        }
    }

    /// Adds the exploration and solver counters of `sol`.
    fn add(&self, sol: &ChainSolution) {
        let (explore, solver) = (&sol.explore_stats, &sol.solver_stats);
        self.tangible_markings.add(explore.tangible_markings as u64);
        self.vanishing_visits.add(explore.vanishing_visits as u64);
        self.timed_arcs.add(explore.timed_arcs as u64);
        self.zero_rate_arcs.add(explore.zero_rate_arcs as u64);
        self.subordinated_chains
            .add(solver.subordinated_chains as u64);
        self.max_subordinated_states
            .set_max(solver.max_subordinated_states as u64);
        self.max_truncation_steps
            .set_max(solver.max_truncation_steps as u64);
        self.guard_trips.add(solver.guard_trips as u64);
        self.workers_used.set_max(solver.workers_used as u64);
        self.parallel_rows.add(solver.parallel_rows as u64);
        self.permit_starvations
            .add(solver.permit_starvations as u64);
        // A Monte Carlo answer never ran a stationary solve; its MrgpStats
        // backend field is just the default.
        let monte_carlo = sol
            .degraded
            .as_ref()
            .is_some_and(|d| d.method == DegradedMethod::MonteCarlo);
        match solver.backend {
            _ if monte_carlo => {}
            StationaryBackend::Dense => self.dense_solves.inc(),
            StationaryBackend::IterativePower => self.iterative_solves.inc(),
        }
        self.degraded_solutions
            .add(u64::from(sol.degraded.is_some()));
    }
}

impl Slot {
    /// Stamps this slot as most-recently used.
    fn touch(&self, clock: &AtomicU64) {
        self.last_used
            .store(clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Memoizing analysis engine (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use nvp_core::engine::AnalysisEngine;
/// use nvp_core::analysis::{ParamAxis, SolverBackend};
/// use nvp_core::params::SystemParams;
/// use nvp_core::reward::RewardPolicy;
///
/// # fn main() -> Result<(), nvp_core::CoreError> {
/// let engine = AnalysisEngine::new();
/// let params = SystemParams::paper_six_version();
/// // An alpha sweep only varies reward parameters: one chain solve total.
/// let grid = [0.0, 0.25, 0.5, 0.75, 1.0];
/// engine.sweep_supervised(
///     &params,
///     ParamAxis::Alpha,
///     &grid,
///     RewardPolicy::FailedOnly,
///     SolverBackend::Auto,
///     &|_| {},
/// )?;
/// let stats = engine.stats();
/// assert_eq!(stats.cache_misses, 1);
/// assert_eq!(stats.cache_hits, grid.len() as u64 - 1);
/// # Ok(())
/// # }
/// ```
pub struct AnalysisEngine {
    cache: Mutex<CacheMap>,
    /// Registry behind every counter, gauge and histogram below, and the
    /// engine's only record of its work: [`SolverStats`] reads the same
    /// cells the Prometheus exposition renders, so the two can never drift.
    /// Per-engine (not process-global) so concurrently running engines —
    /// tests, embedded uses — don't cross-contaminate.
    metrics: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Exact cache shape: populated slots the map holds, and their summed
    /// [`Slot::bytes`]. Every writer holds the map lock.
    cache_entries_gauge: Gauge,
    cache_bytes_gauge: Gauge,
    solutions: SolutionCells,
    fallbacks: Counter,
    budget_exhaustions: Counter,
    sweep_cancellations: Counter,
    worker_panics: Counter,
    rejuvenations: Counter,
    retries_taken: Counter,
    resume_hits: Counter,
    poisoned_locks: Counter,
    store_hits: Counter,
    store_misses: Counter,
    store_quarantined: Counter,
    store_write_failures: Counter,
    build_hist: Histogram,
    explore_hist: Histogram,
    solve_hist: Histogram,
    reward_hist: Histogram,
    point_hist: Histogram,
    budget_ms: Option<u64>,
    point_deadline_ms: Option<u64>,
    retries: u32,
    jobs: Jobs,
    monte_carlo: Option<MonteCarloHook>,
    store: Option<SolveStore>,
    /// Bounds on the chain cache; `None` means unbounded (the pre-daemon
    /// default). Enforced after every insert by LRU-ish eviction.
    max_cache_entries: Option<usize>,
    max_cache_bytes: Option<u64>,
    /// Monotone logical clock stamping slot recency; cheaper and
    /// steadier than wall-clock reads on the hit path.
    cache_clock: AtomicU64,
    /// Engine-wide drain flag: attached to every solve budget, set by
    /// [`AnalysisEngine::cancel_inflight`] when a draining daemon's deadline
    /// passes.
    cancel: Arc<AtomicBool>,
    /// See [`AnalysisEngine::with_faults`].
    #[cfg(feature = "fault-inject")]
    faults: Option<nvp_numerics::fault::ArmedPlan>,
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        let metrics = MetricsRegistry::new();
        AnalysisEngine {
            cache: Mutex::default(),
            hits: metrics.counter("nvp_cache_hits_total"),
            misses: metrics.counter("nvp_cache_misses_total"),
            evictions: metrics.counter("nvp_cache_evictions_total"),
            cache_entries_gauge: metrics.gauge("nvp_cache_entries"),
            cache_bytes_gauge: metrics.gauge("nvp_cache_bytes_approx"),
            solutions: SolutionCells::new(&metrics),
            fallbacks: metrics.counter("nvp_fallbacks_total"),
            budget_exhaustions: metrics.counter("nvp_budget_exhaustions_total"),
            sweep_cancellations: metrics.counter("nvp_sweep_cancellations_total"),
            worker_panics: metrics.counter("nvp_worker_panics_total"),
            rejuvenations: metrics.counter("nvp_rejuvenations_total"),
            retries_taken: metrics.counter("nvp_retries_total"),
            resume_hits: metrics.counter("nvp_resume_hits_total"),
            poisoned_locks: metrics.counter("nvp_poisoned_locks_recovered_total"),
            store_hits: metrics.counter("nvp_store_hits_total"),
            store_misses: metrics.counter("nvp_store_misses_total"),
            store_quarantined: metrics.counter("nvp_store_corrupt_quarantined_total"),
            store_write_failures: metrics.counter("nvp_store_write_failures_total"),
            build_hist: metrics.histogram("nvp_stage_build_ns"),
            explore_hist: metrics.histogram("nvp_stage_explore_ns"),
            solve_hist: metrics.histogram("nvp_stage_solve_ns"),
            reward_hist: metrics.histogram("nvp_stage_reward_ns"),
            point_hist: metrics.histogram("nvp_point_solve_ns"),
            metrics,
            budget_ms: None,
            point_deadline_ms: None,
            retries: DEFAULT_RETRIES,
            jobs: Jobs::default(),
            monte_carlo: None,
            store: None,
            max_cache_entries: None,
            max_cache_bytes: None,
            cache_clock: AtomicU64::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl std::fmt::Debug for AnalysisEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("AnalysisEngine")
            .field("budget_ms", &self.budget_ms)
            .field("monte_carlo", &self.monte_carlo.is_some())
            .field("hits", &stats.cache_hits)
            .field("misses", &stats.cache_misses)
            .finish_non_exhaustive()
    }
}

impl AnalysisEngine {
    /// Creates an engine with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns this engine with a wall-clock budget of `ms` milliseconds
    /// applied to every *uncached* chain solve (exploration, subordinated
    /// chains and iterative stationary solves all check it). A solve that
    /// outruns the budget fails with
    /// [`NumericsError::BudgetExceeded`] instead of running on; cached
    /// answers are always served regardless of the budget.
    pub fn with_budget_ms(mut self, ms: u64) -> Self {
        self.budget_ms = Some(ms);
        self
    }

    /// Installs `hook` as the last-resort Monte Carlo estimator of the
    /// fallback chain (see the [module docs](self)). Without a hook the
    /// chain ends at the alternate-backend retry.
    pub fn with_monte_carlo(mut self, hook: MonteCarloHook) -> Self {
        self.monte_carlo = Some(hook);
        self
    }

    /// Installs `store` as a second cache tier (memory → disk → solve):
    /// a memory miss first consults the persistent store, and every fresh
    /// solve is written back to it. Warm loads are bit-identical to the
    /// cold solves that produced them; any store problem — a missing,
    /// torn, or bit-flipped record, a write failure — degrades to a plain
    /// miss (counted in [`SolverStats`]), never to an error or a wrong
    /// result. The store directory may be shared by concurrent processes.
    pub fn with_store(mut self, store: SolveStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The persistent solve store installed by
    /// [`AnalysisEngine::with_store`], if any.
    pub fn store(&self) -> Option<&SolveStore> {
        self.store.as_ref()
    }

    /// Returns this engine with `jobs` controlling both parallelism levels:
    /// the grid-point workers of [`AnalysisEngine::sweep_supervised`] and the
    /// subordinated-chain row workers inside each MRGP solve. Both levels
    /// draw extra-worker permits from the process-wide
    /// [`WorkerPool`], so nesting them degrades toward serial execution
    /// instead of oversubscribing the machine. The default ([`Jobs::Auto`])
    /// asks for as many workers as the pool's capacity allows.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// The parallelism request this engine passes to both worker levels.
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Returns this engine retrying each supervised grid-point solve up to
    /// `retries` times after a *retryable* failure — a caught worker panic
    /// or the point's own deadline passing — with exponential backoff
    /// between attempts. Deterministic failures (invalid parameters,
    /// structural solver errors, budget exhaustion) and a drain's
    /// cancellation ([`AnalysisEngine::cancel_inflight`]) are never
    /// retried. The default is [`DEFAULT_RETRIES`].
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Returns this engine giving each attempt at a supervised grid-point
    /// solve a deadline of `ms` milliseconds: during
    /// [`AnalysisEngine::sweep_supervised`] the first budget check after the
    /// deadline fails with [`NumericsError::Cancelled`], the engine counts a
    /// rejuvenation ([`SolverStats::rejuvenations`]), and the point is
    /// retried per [`AnalysisEngine::with_retries`]. Unlike
    /// [`AnalysisEngine::with_budget_ms`], whose exhaustion is final, an
    /// overdue point gets a fresh attempt. A solve stuck where no budget
    /// check runs is not stopped. Other entry points ignore the deadline.
    pub fn with_point_deadline_ms(mut self, ms: u64) -> Self {
        self.point_deadline_ms = Some(ms);
        self
    }

    /// Returns this engine bounding the chain cache at `entries` cached
    /// solutions. After every insert the least-recently-used entries are
    /// evicted (counted in [`SolverStats::cache_evictions`]) until the
    /// bound holds — safe aging containment, because with a persistent
    /// store ([`AnalysisEngine::with_store`]) an evicted entry reloads
    /// warm, bit-identically, on its next request. Entries whose slot is
    /// mid-solve are never evicted. The default is unbounded.
    pub fn with_max_cache_entries(mut self, entries: usize) -> Self {
        self.max_cache_entries = Some(entries);
        self
    }

    /// Like [`AnalysisEngine::with_max_cache_entries`], but bounding the
    /// cache's *approximate* in-memory footprint
    /// ([`ChainSolution::approx_bytes`] summed over cached entries). Both
    /// bounds may be set; either being exceeded evicts.
    pub fn with_max_cache_bytes(mut self, bytes: u64) -> Self {
        self.max_cache_bytes = Some(bytes);
        self
    }

    /// Returns this engine injecting faults per `plan`: every solve budget
    /// it makes (primary, fallback, retry) carries the plan and the store
    /// sites consult it, so it fires in this engine's work and nowhere else.
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: nvp_numerics::fault::ArmedPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault to inject at `site` per this engine's plan, or `None`; for
    /// sites outside its solves, like the serve daemon's job entry.
    #[cfg(feature = "fault-inject")]
    pub fn fault(&self, site: nvp_numerics::fault::Site) -> Option<nvp_numerics::fault::FaultMode> {
        self.faults.as_ref()?.fault(site)
    }

    /// Requests cooperative cancellation of every in-flight (and future)
    /// solve on this engine: the flag rides on every solve budget, so the
    /// next budget check anywhere in the pipeline fails with
    /// [`NumericsError::Cancelled`]. Cached answers are still served. A
    /// draining daemon uses this to reclaim workers from jobs that outstay
    /// the drain deadline; clear with
    /// [`AnalysisEngine::reset_cancellation`] before reusing the engine.
    pub fn cancel_inflight(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Clears [`AnalysisEngine::cancel_inflight`]. Only meaningful once
    /// the work being cancelled has actually drained.
    pub fn reset_cancellation(&self) {
        self.cancel.store(false, Ordering::Relaxed);
    }

    /// Records `n` sweep grid points served from a resume journal instead of
    /// being solved; surfaces as [`SolverStats::resume_hits`].
    pub fn note_resume_hits(&self, n: u64) {
        self.resume_hits.add(n);
        if n > 0 {
            nvp_obs::event_with("resume_replay", || vec![("points", n.into())]);
        }
    }

    /// The metrics registry behind this engine's counters, stage-latency
    /// histograms and gauges (for Prometheus-style text exposition via
    /// [`MetricsRegistry::render_prometheus`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Locks the chain cache, recovering from poisoning (a panic on another
    /// thread while it held the lock) instead of propagating the panic. The
    /// map's entries are `Arc<Slot>` inserts — never left half-written — so
    /// a poisoned guard's contents are still consistent.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            self.poisoned_locks.inc();
            self.cache.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Locks `key`'s cache slot, recovering from poisoning. A slot is only
    /// written *after* a solve completes, so on poison its value — solved
    /// before the poisoning panic, or `None` — would actually be sound; it
    /// is invalidated anyway out of caution, costing one recomputation.
    fn lock_slot<'a>(
        &self,
        key: &ChainKey,
        slot: &'a Arc<Slot>,
    ) -> std::sync::MutexGuard<'a, Option<Arc<ChainSolution>>> {
        slot.value.lock().unwrap_or_else(|poisoned| {
            self.poisoned_locks.inc();
            slot.value.clear_poison();
            let mut guard = poisoned.into_inner();
            if guard.take().is_some() {
                self.set_slot_bytes(&self.lock_cache(), key, slot, 0);
            }
            guard
        })
    }

    /// Sets `slot`'s [`Slot::bytes`] and, when `map` holds the slot, moves
    /// the cache-shape gauges by the change. Taking the map guard proves the
    /// caller holds the lock that serializes every gauge writer, so the
    /// read-modify-write below cannot lose an update.
    fn set_slot_bytes(&self, map: &CacheMap, key: &ChainKey, slot: &Arc<Slot>, bytes: u64) {
        let old = slot.bytes.swap(bytes, Ordering::Relaxed);
        if !holds(map, key, slot) || old == bytes {
            return;
        }
        let (entries, total) = (self.cache_entries_gauge.get(), self.cache_bytes_gauge.get());
        if old == 0 {
            self.cache_entries_gauge.set(entries + 1);
        } else if bytes == 0 {
            self.cache_entries_gauge.set(entries.saturating_sub(1));
        }
        self.cache_bytes_gauge
            .set((total + bytes).saturating_sub(old));
    }

    /// Returns the chain solution for `params`, solving it on the first
    /// request and serving the cached [`Arc`] afterwards.
    ///
    /// # Errors
    ///
    /// Parameter-validation, exploration and solver errors. Failures are
    /// not cached; a later call with the same key retries.
    pub fn chain(
        &self,
        params: &SystemParams,
        backend: SolverBackend,
    ) -> Result<Arc<ChainSolution>> {
        self.chain_with_budget(params, backend, &self.solve_budget())
    }

    /// [`AnalysisEngine::chain`] under an explicit budget — the supervised
    /// sweep path threads a per-point budget carrying the point's
    /// deadline. Cached answers are served regardless of the budget.
    fn chain_with_budget(
        &self,
        params: &SystemParams,
        backend: SolverBackend,
        budget: &SolveBudget,
    ) -> Result<Arc<ChainSolution>> {
        params.validate()?;
        let key = ChainKey::of(params, backend.max_markings());
        // The on-disk identity of the solve. The solver ignores the flag
        // byte; it keeps the default's value so existing stores stay warm.
        let key_bytes = self
            .store
            .as_ref()
            .map(|_| key.store_bytes(SolveOptions::default().dedup));
        loop {
            let slot = Arc::clone(self.lock_cache().entry(key.clone()).or_default());
            let mut guard = self.lock_slot(&key, &slot);
            slot.touch(&self.cache_clock);
            if let Some(solution) = guard.as_ref() {
                self.hits.inc();
                return Ok(Arc::clone(solution));
            }
            // An empty slot the map no longer holds was dropped by a failed
            // solve (or a clear) while this thread waited on it; solving into
            // it would cache nothing, so start over on the map's slot.
            if !holds(&self.lock_cache(), &key, &slot) {
                continue;
            }
            self.misses.inc();
            let solved = match self.store_load(params, backend, budget, key_bytes.as_deref()) {
                Some(warm) => Ok(warm),
                None => self.solve_chain(params, backend, budget).inspect(|solved| {
                    self.store_save(key_bytes.as_deref(), solved);
                }),
            };
            let solution = match solved {
                Ok(solution) => Arc::new(solution),
                Err(e) => {
                    // Failures are not cached, and neither is their empty
                    // slot: failing keys must not grow the map.
                    let mut map = self.lock_cache();
                    if holds(&map, &key, &slot) {
                        map.remove(&key);
                    }
                    return Err(e);
                }
            };
            self.solutions.add(&solution);
            *guard = Some(Arc::clone(&solution));
            self.set_slot_bytes(&self.lock_cache(), &key, &slot, solution.approx_bytes());
            // The insert may have pushed the cache over its configured bound.
            drop(guard);
            self.enforce_cache_bound();
            return Ok(solution);
        }
    }

    /// The disk tier of the cache: looks `key_bytes` up in the persistent
    /// store and — on an intact, matching record — rebuilds the full
    /// [`ChainSolution`] around the stored steady-state bits. The net and
    /// reachability graph are *not* persisted: both are deterministic and
    /// cheap relative to the solve, so they are rebuilt fresh and the
    /// stored dimensions are validated against them. Returns `None` (a
    /// plain miss) on any problem whatsoever.
    fn store_load(
        &self,
        params: &SystemParams,
        backend: SolverBackend,
        budget: &SolveBudget,
        key_bytes: Option<&[u8]>,
    ) -> Option<ChainSolution> {
        let store = self.store.as_ref()?;
        let key_bytes = key_bytes?;
        let mut span = nvp_obs::span("store.load");
        #[cfg(feature = "fault-inject")]
        match self.fault(nvp_numerics::fault::Site::StoreRead) {
            Some(nvp_numerics::fault::FaultMode::Io) => {
                // A failed read degrades to a miss.
                self.store_misses.inc();
                return None;
            }
            Some(nvp_numerics::fault::FaultMode::Corrupt) => {
                // Damage the published record in place, then fall through
                // to the normal load: the real checksum → quarantine
                // machinery must catch it.
                let _ = store.corrupt_entry(key_bytes);
            }
            _ => {}
        }
        let loaded = match store.load(key_bytes) {
            Ok(loaded) => loaded,
            Err(_) => {
                self.store_misses.inc();
                return None;
            }
        };
        let record = match loaded {
            Load::Hit(record) => record,
            Load::Miss => {
                self.store_misses.inc();
                return None;
            }
            Load::Corrupt { reason, .. } => {
                self.store_quarantined.inc();
                self.store_misses.inc();
                nvp_obs::event_with("store_corrupt_quarantined", || {
                    vec![("reason", reason.into())]
                });
                if !span.is_inert() {
                    span.record("outcome", "corrupt");
                }
                return None;
            }
        };
        match self.rebuild_from_record(params, backend, budget, &record) {
            Some(solution) => {
                self.store_hits.inc();
                if !span.is_inert() {
                    span.record("outcome", "hit");
                    span.record("tangible_markings", record.tangible_markings);
                }
                Some(solution)
            }
            None => {
                // An intact record whose contents disagree with a fresh
                // exploration (a solver change without a version bump):
                // not corruption, but not trustworthy either.
                self.store_misses.inc();
                None
            }
        }
    }

    /// Reassembles a [`ChainSolution`] from a stored record: rebuilds the
    /// net and graph deterministically, cross-checks every stored
    /// dimension against them, and adopts the stored probability bits
    /// without renormalization. `None` on any mismatch.
    fn rebuild_from_record(
        &self,
        params: &SystemParams,
        backend: SolverBackend,
        budget: &SolveBudget,
        record: &SolveRecord,
    ) -> Option<ChainSolution> {
        let t0 = Instant::now();
        let net = model::build_model(params).ok()?;
        self.build_hist.record_duration(t0.elapsed());
        let t1 = Instant::now();
        let (graph, explore_stats) =
            nvp_petri::reach::explore_with_stats_budgeted(&net, backend.max_markings(), budget)
                .ok()?;
        self.explore_hist.record_duration(t1.elapsed());
        let dims_match = record.probabilities.len() == graph.tangible_count()
            && record.tangible_markings == explore_stats.tangible_markings as u64
            && record.vanishing_visits == explore_stats.vanishing_visits as u64
            && record.timed_arcs == explore_stats.timed_arcs as u64
            && record.zero_rate_arcs == explore_stats.zero_rate_arcs as u64;
        if !dims_match {
            return None;
        }
        let solver_stats = solver_stats_of(record)?;
        let degraded = match &record.degraded {
            None => None,
            Some(rec) => Some(degraded_from_record(rec)?),
        };
        let solution = SteadyState::from_exact(record.probabilities.clone()).ok()?;
        Some(ChainSolution {
            net,
            graph,
            solution,
            explore_stats,
            solver_stats,
            degraded,
        })
    }

    /// Writes a fresh solve back to the persistent store. Failures are
    /// counted ([`SolverStats::store_write_failures`]) and swallowed: the
    /// solution in hand is valid whether or not the disk cooperates.
    fn store_save(&self, key_bytes: Option<&[u8]>, solution: &ChainSolution) {
        let (Some(store), Some(key_bytes)) = (self.store.as_ref(), key_bytes) else {
            return;
        };
        let _span = nvp_obs::span("store.save");
        #[cfg(feature = "fault-inject")]
        match self.fault(nvp_numerics::fault::Site::StoreWrite) {
            Some(nvp_numerics::fault::FaultMode::Io) => {
                self.store_write_failures.inc();
                nvp_obs::event_with("store_write_failed", || {
                    vec![("reason", "injected io fault".into())]
                });
                return;
            }
            Some(nvp_numerics::fault::FaultMode::Corrupt) => {
                // Publish, then damage the published bytes: the next
                // process to read this entry must quarantine it.
                if store.save(key_bytes, &record_of(solution)).is_ok() {
                    let _ = store.corrupt_entry(key_bytes);
                }
                return;
            }
            _ => {}
        }
        if let Err(e) = store.save(key_bytes, &record_of(solution)) {
            self.store_write_failures.inc();
            nvp_obs::event_with("store_write_failed", || {
                vec![("reason", e.to_string().into())]
            });
        }
    }

    /// The expected output reliability `E[R_sys]` (equation 1), with the
    /// chain stage served from the cache when possible.
    ///
    /// Uses the paper-exact reliability functions when the configuration
    /// matches one the paper evaluates, the generic model otherwise
    /// ([`ReliabilitySource::Auto`]).
    ///
    /// # Errors
    ///
    /// See [`AnalysisEngine::chain`].
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_core::analysis::SolverBackend;
    /// use nvp_core::engine::AnalysisEngine;
    /// use nvp_core::params::SystemParams;
    /// use nvp_core::reward::RewardPolicy;
    ///
    /// # fn main() -> Result<(), nvp_core::CoreError> {
    /// let r6 = AnalysisEngine::new().expected_reliability(
    ///     &SystemParams::paper_six_version(),
    ///     RewardPolicy::FailedOnly,
    ///     SolverBackend::Auto,
    /// )?;
    /// assert!(r6 > 0.9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn expected_reliability(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
        backend: SolverBackend,
    ) -> Result<f64> {
        self.reliability_point(params, policy, backend, &self.solve_budget())
            .map(|(expected, _)| expected)
    }

    /// [`AnalysisEngine::expected_reliability`] under an explicit budget,
    /// also reporting whether the chain behind the answer is degraded.
    fn reliability_point(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
        backend: SolverBackend,
        budget: &SolveBudget,
    ) -> Result<(f64, bool)> {
        let chain = self.chain_with_budget(params, backend, budget)?;
        let _reward_span = nvp_obs::span("reward");
        let t = Instant::now();
        let reliability = ReliabilityModel::for_params(params, ReliabilitySource::Auto)?;
        let rewards = reward_vector(&chain.graph, &chain.net, params, &reliability, policy)?;
        let expected = chain.solution.expected_reward(&rewards);
        self.note_reward_time(t);
        Ok((expected, chain.degraded.is_some()))
    }

    /// Full analysis with per-state detail, chain stage cached.
    ///
    /// # Errors
    ///
    /// See [`AnalysisEngine::chain`].
    pub fn analyze(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
        source: ReliabilitySource,
        backend: SolverBackend,
    ) -> Result<AnalysisReport> {
        self.analyze_budgeted(params, policy, source, backend, None)
    }

    /// [`AnalysisEngine::analyze`] under an optional per-request deadline:
    /// the solve runs under the tighter of the engine budget and
    /// `budget_ms`. Cached chain solutions are served regardless.
    ///
    /// # Errors
    ///
    /// See [`AnalysisEngine::chain`].
    pub fn analyze_budgeted(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
        source: ReliabilitySource,
        backend: SolverBackend,
        budget_ms: Option<u64>,
    ) -> Result<AnalysisReport> {
        let chain =
            self.chain_with_budget(params, backend, &self.solve_budget_capped(budget_ms))?;
        let _reward_span = nvp_obs::span("reward");
        let t = Instant::now();
        let reliability = ReliabilityModel::for_params(params, source)?;
        let rewards = reward_vector(&chain.graph, &chain.net, params, &reliability, policy)?;
        let expected = chain.solution.expected_reward(&rewards);
        let places = ModulePlaces::locate(&chain.net)?;
        let mut states: Vec<StateReport> = chain
            .graph
            .markings()
            .iter()
            .zip(chain.solution.probabilities())
            .zip(&rewards)
            .map(|((m, &prob), &rel)| {
                let rejuvenating = places.rejuvenating.map_or(0, |idx| m.tokens(idx));
                StateReport {
                    state: SystemState::new(
                        m.tokens(places.healthy),
                        m.tokens(places.compromised),
                        m.tokens(places.failed),
                    ),
                    rejuvenating,
                    probability: prob,
                    reliability: rel,
                }
            })
            .collect();
        states.sort_by(|a, b| b.probability.partial_cmp(&a.probability).expect("finite"));
        // Per-marking sampling errors propagate to E[R] by the triangle
        // inequality: |ΔE[R]| ≤ Σ hw_i · |R_i| (conservative union bound).
        // The fold starts at +0.0 because an empty f64 `sum` is -0.0, which
        // an analytic fallback (no half-widths) would print as "±-0.00e0".
        let degraded = chain.degraded.as_ref().map(|d| DegradedReport {
            method: d.method,
            reason: d.reason.clone(),
            reliability_half_width: d
                .half_widths
                .iter()
                .zip(&rewards)
                .fold(0.0, |acc, (hw, r)| acc + hw * r.abs()),
        });
        self.note_reward_time(t);
        Ok(AnalysisReport {
            expected_reliability: expected,
            states,
            degraded,
        })
    }

    /// Steady-state *quorum availability*: the long-run fraction of time
    /// enough modules are operational for the voter to produce any output
    /// at all (`healthy + compromised ≥ voting_threshold()`), chain stage
    /// cached.
    ///
    /// This separates "the voter can answer" from "the answer is correct":
    /// `E[R_sys]` weighs each state by its reliability, while quorum
    /// availability only asks whether a verdict is possible. At the paper's
    /// defaults both systems keep quorum almost always (repairs take 3 s),
    /// so the reliability gap of §V-B comes from answer *quality*, not
    /// availability.
    ///
    /// # Errors
    ///
    /// See [`AnalysisEngine::chain`].
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_core::engine::AnalysisEngine;
    /// use nvp_core::params::SystemParams;
    ///
    /// # fn main() -> Result<(), nvp_core::CoreError> {
    /// let engine = AnalysisEngine::new();
    /// let a = engine.quorum_availability(&SystemParams::paper_six_version())?;
    /// assert!(a > 0.99);
    /// # Ok(())
    /// # }
    /// ```
    pub fn quorum_availability(&self, params: &SystemParams) -> Result<f64> {
        let chain = self.chain(params, SolverBackend::Auto)?;
        let _reward_span = nvp_obs::span("reward");
        let t = Instant::now();
        let places = ModulePlaces::locate(&chain.net)?;
        let threshold = params.voting_threshold();
        let rewards = chain.graph.reward_vector(|m| {
            if m.tokens(places.healthy) + m.tokens(places.compromised) >= threshold {
                1.0
            } else {
                0.0
            }
        });
        let availability = chain.solution.expected_reward(&rewards);
        self.note_reward_time(t);
        Ok(availability)
    }

    /// Evaluates `E[R_sys]` at each value of `axis`, returning `(value,
    /// E[R])` pairs in input order. Reward-only axes (`Alpha`,
    /// `HealthyInaccuracy`, `CompromisedInaccuracy`) reuse a single chain
    /// solution for the entire grid.
    ///
    /// The points fan out through [`WorkerPool::run_indexed`] on the
    /// process-wide pool, up to [`AnalysisEngine::with_jobs`] workers,
    /// sharing this engine's cache; the calling thread always works, so with
    /// no permits available the sweep runs on it alone. The values are the
    /// same bits at any worker count. After a grid point fails, points no
    /// worker has started yet are skipped (counted in
    /// [`SolverStats::sweep_cancellations`], serial sweeps included) and the
    /// lowest-index error is returned instead of solving the rest of a
    /// doomed grid.
    ///
    /// Each grid point runs as a *supervised* solve: wrapped in
    /// `catch_unwind` (a worker panic costs that point, never the process),
    /// cancelled at its first budget check past
    /// [`AnalysisEngine::with_point_deadline_ms`] when that is configured,
    /// and retried per [`AnalysisEngine::with_retries`] after retryable
    /// failures.
    ///
    /// `observer` is invoked once per *completed* point, from whichever
    /// worker thread finished it (hence `Sync`), in completion order — not
    /// input order. The `nvp sweep` journal appends from here, which is what
    /// makes checkpoints crash-consistent: a point is journaled only after
    /// its value exists.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index analysis error.
    pub fn sweep_supervised(
        &self,
        params: &SystemParams,
        axis: ParamAxis,
        values: &[f64],
        policy: RewardPolicy,
        backend: SolverBackend,
        observer: &(dyn Fn(SweepPointRecord) + Sync),
    ) -> Result<Vec<(f64, f64)>> {
        self.sweep_supervised_budgeted(params, axis, values, policy, backend, None, observer)
    }

    /// [`AnalysisEngine::sweep_supervised`] under an optional per-request
    /// deadline: every point's solve budget is the tighter of the engine
    /// budget and `budget_ms`. This is the entry point `nvp serve` uses so
    /// one client's deadline never reconfigures the shared engine.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index analysis error.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_supervised_budgeted(
        &self,
        params: &SystemParams,
        axis: ParamAxis,
        values: &[f64],
        policy: RewardPolicy,
        backend: SolverBackend,
        budget_ms: Option<u64>,
        observer: &(dyn Fn(SweepPointRecord) + Sync),
    ) -> Result<Vec<(f64, f64)>> {
        let run = WorkerPool::global().run_indexed(self.jobs, values.len(), |idx| {
            let x = values[idx];
            let p = axis.apply(params, x);
            let (value, degraded) = self.solve_point_supervised(&p, policy, backend, budget_ms)?;
            observer(SweepPointRecord {
                index: idx,
                x,
                value,
                degraded,
            });
            Ok((x, value))
        });
        self.sweep_cancellations.add(run.skipped as u64);
        run.results
    }

    /// One grid point under the supervision policy: panic isolation, a
    /// per-attempt deadline, and bounded retries with exponential backoff.
    fn solve_point_supervised(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
        backend: SolverBackend,
        budget_ms: Option<u64>,
    ) -> Result<(f64, bool)> {
        let mut attempt: u32 = 0;
        loop {
            // One span per attempt, opened on the worker thread running the
            // point, so traces show sweep scheduling across workers.
            let mut span = nvp_obs::span("sweep.point");
            span.record("attempt", attempt);
            let t = Instant::now();
            let mut budget = self.solve_budget_capped(budget_ms);
            if let Some(ms) = self.point_deadline_ms {
                budget = budget.with_cancel_after_ms(ms);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.reliability_point(params, policy, backend, &budget)
            }))
            .unwrap_or_else(|payload| {
                // A panic that escaped the solver-level isolation (model
                // build, reward stage, hook code).
                self.worker_panics.inc();
                nvp_obs::event_with("panic_caught", || vec![("site", "grid-point solve".into())]);
                Err(crate::CoreError::WorkerPanicked {
                    site: "grid-point solve",
                    payload: panic_payload(payload),
                })
            });
            self.point_hist.record_duration(t.elapsed());
            match outcome {
                Ok(point) => {
                    span.record("degraded", point.1);
                    return Ok(point);
                }
                Err(e) => {
                    span.record("failed", true);
                    let rejuvenated = self.deadline_fired(&e);
                    if rejuvenated {
                        self.rejuvenations.inc();
                        nvp_obs::event_with("rejuvenation", || {
                            vec![("site", "sweep.point".into())]
                        });
                    }
                    if attempt < self.retries && (rejuvenated || Self::panicked(&e)) {
                        attempt += 1;
                        self.retries_taken.inc();
                        nvp_obs::event_with("retry", || vec![("attempt", attempt.into())]);
                        std::thread::sleep(Duration::from_millis(
                            RETRY_BACKOFF_BASE_MS << (attempt - 1).min(10),
                        ));
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Whether `e` is the point's own deadline firing: a solve is cancelled
    /// by its deadline or by the engine's drain flag, so a cancellation
    /// while the engine is not draining is the deadline. A drain's
    /// cancellation is not worth a retry, which would meet the same set
    /// flag again.
    fn deadline_fired(&self, e: &crate::CoreError) -> bool {
        use crate::CoreError;
        let cancelled = matches!(
            e,
            CoreError::Mrgp(MrgpError::Numerics(NumericsError::Cancelled { .. }))
                | CoreError::Numerics(NumericsError::Cancelled { .. })
                | CoreError::Petri(nvp_petri::PetriError::Numerics(
                    NumericsError::Cancelled { .. }
                ))
        );
        cancelled && !self.cancel.load(Ordering::Relaxed)
    }

    /// Whether `e` is a worker panic caught by the supervision layer. Like
    /// an overdue attempt it is transient and worth a retry, while
    /// parameter, structural and budget failures would fail identically.
    fn panicked(e: &crate::CoreError) -> bool {
        use crate::CoreError;
        matches!(
            e,
            CoreError::WorkerPanicked { .. } | CoreError::Mrgp(MrgpError::WorkerPanicked { .. })
        )
    }

    /// The rejuvenation interval in `[lo, hi]` that maximizes `E[R_sys]`
    /// (the question Figure 3 answers), found by golden-section search.
    /// Probes revisited by the search are served from the cache.
    ///
    /// # Errors
    ///
    /// Analysis errors at any probed interval, or invalid bounds.
    pub fn optimal_rejuvenation_interval(
        &self,
        params: &SystemParams,
        lo: f64,
        hi: f64,
        policy: RewardPolicy,
    ) -> Result<(f64, f64)> {
        // Half-second resolution is ample for intervals of hundreds of
        // seconds.
        const RESOLUTION: f64 = 0.5;
        // golden_section_max takes an infallible closure; stash errors.
        let mut failure: Option<crate::CoreError> = None;
        let result = optim::golden_section_max(
            |interval| {
                if failure.is_some() {
                    return f64::NEG_INFINITY;
                }
                let p = ParamAxis::RejuvenationInterval.apply(params, interval);
                match self.expected_reliability(&p, policy, SolverBackend::Auto) {
                    Ok(v) => v,
                    Err(e) => {
                        failure = Some(e);
                        f64::NEG_INFINITY
                    }
                }
            },
            lo,
            hi,
            RESOLUTION,
        );
        if let Some(e) = failure {
            return Err(e);
        }
        let max = result?;
        Ok((max.x, max.value))
    }

    /// Normalized parametric sensitivity (elasticity) of `E[R_sys]`:
    /// `S(x) = (x / R) · dR/dx`, estimated by central finite differences
    /// with a relative perturbation of 1%. For reward-only axes all three
    /// probe points share one cached chain.
    ///
    /// An elasticity of −0.1 means a 10% parameter increase costs roughly
    /// 1% of reliability. This quantifies the paper's qualitative
    /// sensitivity discussion (§V-B) in a single number per parameter.
    ///
    /// # Errors
    ///
    /// Analysis errors at any probed point.
    pub fn sensitivity(
        &self,
        params: &SystemParams,
        axis: ParamAxis,
        policy: RewardPolicy,
    ) -> Result<f64> {
        let x = axis.get(params);
        let h = (x * 0.01).max(1e-9);
        let lo = axis.apply(params, x - h);
        let hi = axis.apply(params, x + h);
        let r_lo = self.expected_reliability(&lo, policy, SolverBackend::Auto)?;
        let r_hi = self.expected_reliability(&hi, policy, SolverBackend::Auto)?;
        let r = self.expected_reliability(params, policy, SolverBackend::Auto)?;
        if r == 0.0 {
            return Ok(0.0);
        }
        Ok((r_hi - r_lo) / (2.0 * h) * x / r)
    }

    /// Elasticities for a standard set of axes, sorted by descending
    /// magnitude.
    ///
    /// # Errors
    ///
    /// See [`AnalysisEngine::sensitivity`].
    pub fn sensitivity_profile(
        &self,
        params: &SystemParams,
        policy: RewardPolicy,
    ) -> Result<Vec<(ParamAxis, f64)>> {
        let mut axes = vec![
            ParamAxis::MeanTimeToCompromise,
            ParamAxis::Alpha,
            ParamAxis::HealthyInaccuracy,
            ParamAxis::CompromisedInaccuracy,
            ParamAxis::MeanTimeToFailure,
            ParamAxis::MeanTimeToRepair,
        ];
        if params.rejuvenation {
            axes.push(ParamAxis::RejuvenationInterval);
        }
        let mut profile = axes
            .into_iter()
            .map(|axis| Ok((axis, self.sensitivity(params, axis, policy)?)))
            .collect::<Result<Vec<_>>>()?;
        profile.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        Ok(profile)
    }

    /// Finds a crossover point: the value of `axis` in `[lo, hi]` where the
    /// expected reliabilities of systems `a` and `b` are equal. Returns
    /// `None` when the difference has the same sign at both endpoints. Both
    /// systems' chains are cached across the root search's probes.
    ///
    /// Used for the paper's Figure 4 (a) (crossovers of the four- and
    /// six-version curves in `1/λc`) and Figure 4 (d) (crossover in `p'`).
    ///
    /// # Errors
    ///
    /// Analysis errors at any probed value, or invalid bounds.
    pub fn find_crossover(
        &self,
        a: &SystemParams,
        b: &SystemParams,
        axis: ParamAxis,
        lo: f64,
        hi: f64,
        policy: RewardPolicy,
    ) -> Result<Option<f64>> {
        let mut failure: Option<crate::CoreError> = None;
        let mut diff = |x: f64| -> f64 {
            if failure.is_some() {
                return 0.0;
            }
            let pa = axis.apply(a, x);
            let pb = axis.apply(b, x);
            let ra = self.expected_reliability(&pa, policy, SolverBackend::Auto);
            let rb = self.expected_reliability(&pb, policy, SolverBackend::Auto);
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => ra - rb,
                (Err(e), _) | (_, Err(e)) => {
                    failure = Some(e);
                    0.0
                }
            }
        };
        let result = optim::brent(&mut diff, lo, hi, 1e-3 * (hi - lo));
        if let Some(e) = failure {
            return Err(e);
        }
        match result {
            Ok(x) => Ok(Some(x)),
            Err(nvp_numerics::NumericsError::NoBracket { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Drops all cached chain solutions. Counters are kept.
    pub fn clear(&self) {
        let mut map = self.lock_cache();
        map.clear();
        self.cache_entries_gauge.set(0);
        self.cache_bytes_gauge.set(0);
    }

    /// Evicts least-recently-used cache entries until the configured
    /// bounds hold. Only populated slots are candidates: an empty one is an
    /// in-flight solve and is never evicted from under its solving thread.
    /// Reads no slot lock; a reader holding an evicted entry keeps its
    /// [`Arc`].
    fn enforce_cache_bound(&self) {
        let mut map = self.lock_cache();
        while self
            .max_cache_entries
            .is_some_and(|cap| self.cache_entries_gauge.get() > cap as u64)
            || self
                .max_cache_bytes
                .is_some_and(|cap| self.cache_bytes_gauge.get() > cap)
        {
            let Some((key, slot)) = map
                .iter()
                .filter(|(_, slot)| slot.bytes.load(Ordering::Relaxed) > 0)
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, slot)| (key.clone(), Arc::clone(slot)))
            else {
                return;
            };
            self.set_slot_bytes(&map, &key, &slot, 0);
            map.remove(&key);
            self.evictions.inc();
        }
    }

    /// Aggregates the statistics of everything this engine has computed,
    /// read from its metrics registry without taking any cache lock.
    pub fn stats(&self) -> SolverStats {
        let c = &self.solutions;
        let total = |h: &Histogram| Duration::from_nanos(h.snapshot().sum);
        SolverStats {
            cache_hits: self.hits.get(),
            cache_misses: self.misses.get(),
            cache_evictions: self.evictions.get(),
            chain_solutions: self.cache_entries_gauge.get() as usize,
            cache_bytes: self.cache_bytes_gauge.get(),
            tangible_markings: c.tangible_markings.get() as usize,
            vanishing_visits: c.vanishing_visits.get() as usize,
            timed_arcs: c.timed_arcs.get() as usize,
            zero_rate_arcs: c.zero_rate_arcs.get() as usize,
            subordinated_chains: c.subordinated_chains.get() as usize,
            max_subordinated_states: c.max_subordinated_states.get() as usize,
            max_truncation_steps: c.max_truncation_steps.get() as usize,
            dense_solves: c.dense_solves.get() as usize,
            iterative_solves: c.iterative_solves.get() as usize,
            fallbacks_taken: self.fallbacks.get(),
            degraded_solutions: c.degraded_solutions.get() as usize,
            guard_trips: c.guard_trips.get() as usize,
            budget_exhaustions: self.budget_exhaustions.get(),
            workers_used: c.workers_used.get() as usize,
            parallel_rows: c.parallel_rows.get() as usize,
            permit_starvations: c.permit_starvations.get() as usize,
            sweep_cancellations: self.sweep_cancellations.get(),
            worker_panics: self.worker_panics.get(),
            rejuvenations: self.rejuvenations.get(),
            retries: self.retries_taken.get(),
            resume_hits: self.resume_hits.get(),
            poisoned_locks_recovered: self.poisoned_locks.get(),
            store_hits: self.store_hits.get(),
            store_misses: self.store_misses.get(),
            store_corrupt_quarantined: self.store_quarantined.get(),
            store_write_failures: self.store_write_failures.get(),
            build_time: total(&self.build_hist),
            explore_time: total(&self.explore_hist),
            solve_time: total(&self.solve_hist),
            reward_time: total(&self.reward_hist),
        }
    }

    fn note_reward_time(&self, since: Instant) {
        self.reward_hist.record_duration(since.elapsed());
    }

    /// The fresh per-solve budget implied by [`AnalysisEngine::with_budget_ms`].
    fn solve_budget(&self) -> SolveBudget {
        self.solve_budget_capped(None)
    }

    /// The per-solve budget with an optional per-request cap: the tighter of
    /// the engine-wide budget and `request_ms` wins. This is how a shared
    /// long-lived engine (the `nvp serve` daemon) honors one caller's
    /// deadline without reconfiguring the engine for everyone else.
    fn solve_budget_capped(&self, request_ms: Option<u64>) -> SolveBudget {
        let budget = match (self.budget_ms, request_ms) {
            (Some(engine), Some(request)) => SolveBudget::with_wall_clock_ms(engine.min(request)),
            (Some(ms), None) | (None, Some(ms)) => SolveBudget::with_wall_clock_ms(ms),
            (None, None) => SolveBudget::unlimited(),
        };
        // Every engine budget is made here, so the engine's fault plan
        // reaches every row, fallback and retry.
        #[cfg(feature = "fault-inject")]
        let budget = match &self.faults {
            Some(plan) => budget.with_faults(plan.clone()),
            None => budget,
        };
        // Every solve watches the engine-wide drain flag, so a daemon past
        // its drain deadline can reclaim workers without knowing which
        // budgets are in flight.
        budget.with_cancel(Arc::clone(&self.cancel))
    }

    /// Runs the chain stage uncached — build, explore, solve, each timed into
    /// its stage histogram — under `budget` and the engine's fallback chain.
    fn solve_chain(
        &self,
        params: &SystemParams,
        backend: SolverBackend,
        budget: &SolveBudget,
    ) -> Result<ChainSolution> {
        let mut chain_span = nvp_obs::span("chain.solve");
        let t0 = Instant::now();
        let net = {
            let _build_span = nvp_obs::span("model.build");
            model::build_model(params)?
        };
        self.build_hist.record_duration(t0.elapsed());
        let t1 = Instant::now();
        let (graph, explore_stats) =
            nvp_petri::reach::explore_with_stats_budgeted(&net, backend.max_markings(), budget)
                .map_err(|e| {
                    if matches!(
                        e,
                        nvp_petri::PetriError::Numerics(NumericsError::BudgetExceeded { .. })
                    ) {
                        self.budget_exhaustions.inc();
                    }
                    e
                })?;
        self.explore_hist.record_duration(t1.elapsed());
        let t2 = Instant::now();
        let primary = SolveOptions {
            budget: budget.clone(),
            jobs: self.jobs,
            ..SolveOptions::default()
        };
        // Panic isolation around the whole solver call: the MRGP row stage
        // already isolates per-row panics, but panics in validation, the
        // embedded-chain assembly or the final stationary solve would still
        // unwind through here (and, in a parallel sweep, abort the process).
        let solve_result = catch_unwind(AssertUnwindSafe(|| {
            nvp_mrgp::steady_state_with_options(&graph, &primary)
        }))
        .unwrap_or_else(|payload| {
            Err(MrgpError::WorkerPanicked {
                site: "steady-state solve",
                payload: panic_payload(payload),
            })
        });
        let (solution, solver_stats, degraded) = match solve_result {
            Ok((solution, stats)) => (solution, stats, None),
            Err(primary_err) => {
                if matches!(primary_err, MrgpError::WorkerPanicked { .. }) {
                    self.worker_panics.inc();
                    nvp_obs::event_with("panic_caught", || {
                        vec![("site", "steady-state solve".into())]
                    });
                }
                self.recover(&net, &graph, budget, primary_err)?
            }
        };
        self.solve_hist.record_duration(t2.elapsed());
        if !chain_span.is_inert() {
            chain_span.record("tangible_markings", explore_stats.tangible_markings);
            chain_span.record("degraded", degraded.is_some());
        }
        Ok(ChainSolution {
            net,
            graph,
            solution,
            explore_stats,
            solver_stats,
            degraded,
        })
    }

    /// The fallback chain behind [`AnalysisEngine::chain`]: the alternate
    /// stationary backend at [`RELAXED_TOLERANCE`] first, the Monte Carlo
    /// hook last. Returns the *original* error when the failure is not
    /// recoverable — a budget stop is an intentional abort, and a dead
    /// marking or several recurrent classes make the steady state itself
    /// ill-defined, so no estimator can answer — or when every fallback is
    /// exhausted or declined.
    fn recover(
        &self,
        net: &PetriNet,
        graph: &TangibleReachGraph,
        budget: &SolveBudget,
        primary_err: MrgpError,
    ) -> Result<(SteadyState, MrgpStats, Option<DegradedInfo>)> {
        if matches!(
            primary_err,
            MrgpError::Numerics(NumericsError::BudgetExceeded { .. })
        ) {
            self.budget_exhaustions.inc();
            return Err(primary_err.into());
        }
        // A supervisor-initiated cancellation is, like a budget stop, an
        // intentional abort: the point's deadline passed or the engine is
        // draining, and the supervised retry policy (not the fallback chain)
        // decides what happens next.
        if matches!(
            primary_err,
            MrgpError::Numerics(NumericsError::Cancelled { .. })
        ) {
            return Err(primary_err.into());
        }
        // Structural failures (MultipleDeterministic, InconsistentDelay) are
        // outside the analytic method's class no matter the backend, but the
        // simulator handles them; numerical failures — including a caught
        // worker panic, which may be confined to one backend's code path —
        // are worth an analytic retry first.
        let analytic_retry = matches!(
            primary_err,
            MrgpError::Numerics(_) | MrgpError::WorkerPanicked { .. }
        );
        let simulable = analytic_retry
            || matches!(
                primary_err,
                MrgpError::MultipleDeterministic { .. } | MrgpError::InconsistentDelay { .. }
            );
        if !simulable {
            return Err(primary_err.into());
        }
        let reason = primary_err.to_string();
        if analytic_retry {
            self.fallbacks.inc();
            nvp_obs::event_with("fallback", || vec![("method", "alternate-backend".into())]);
            let alt = SolveOptions {
                backend: Some(alternate_backend(stationary_backend_for(
                    graph.tangible_count(),
                ))),
                tolerance: RELAXED_TOLERANCE,
                budget: budget.clone(),
                jobs: self.jobs,
                ..SolveOptions::default()
            };
            // The alternate attempt gets the same panic isolation as the
            // primary; a panic here just means the fallback chain moves on.
            let alt_result = catch_unwind(AssertUnwindSafe(|| {
                nvp_mrgp::steady_state_with_options(graph, &alt)
            }))
            .unwrap_or_else(|payload| {
                self.worker_panics.inc();
                nvp_obs::event_with("panic_caught", || {
                    vec![("site", "alternate-backend solve".into())]
                });
                Err(MrgpError::WorkerPanicked {
                    site: "alternate-backend solve",
                    payload: panic_payload(payload),
                })
            });
            if let Ok((solution, stats)) = alt_result {
                return Ok((
                    solution,
                    stats,
                    Some(DegradedInfo {
                        method: DegradedMethod::AlternateBackend,
                        reason,
                        half_widths: Vec::new(),
                    }),
                ));
            }
        }
        let Some(hook) = &self.monte_carlo else {
            return Err(primary_err.into());
        };
        self.fallbacks.inc();
        nvp_obs::event_with("fallback", || vec![("method", "monte-carlo".into())]);
        // The hook is arbitrary injected code; a panic inside it must not
        // take down the sweep either.
        let hook_result =
            catch_unwind(AssertUnwindSafe(|| hook(net, graph))).unwrap_or_else(|payload| {
                self.worker_panics.inc();
                nvp_obs::event_with("panic_caught", || vec![("site", "monte-carlo hook".into())]);
                Err(panic_payload(payload))
            });
        let Ok(mc) = hook_result else {
            return Err(primary_err.into());
        };
        if mc.unmatched > MAX_UNMATCHED_MC_MASS
            || mc.occupancy.len() != graph.tangible_count()
            || mc.half_widths.len() != mc.occupancy.len()
        {
            return Err(primary_err.into());
        }
        let Ok(solution) = SteadyState::from_occupancy(mc.occupancy) else {
            return Err(primary_err.into());
        };
        let stats = MrgpStats {
            markings: graph.tangible_count(),
            ..MrgpStats::default()
        };
        Ok((
            solution,
            stats,
            Some(DegradedInfo {
                method: DegradedMethod::MonteCarlo,
                reason,
                half_widths: mc.half_widths,
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    #[cfg(feature = "fault-inject")]
    use nvp_numerics::fault::{ArmedPlan, FaultMode, FaultPlan, Site};

    /// A plan faulting the first `hits` calls at `site`, armed.
    #[cfg(feature = "fault-inject")]
    fn plan(site: Site, mode: FaultMode, hits: usize) -> ArmedPlan {
        FaultPlan::new(site, mode).times(hits).arm()
    }

    /// A sweep with the default backend and no observer.
    fn sweep(
        engine: &AnalysisEngine,
        params: &SystemParams,
        axis: ParamAxis,
        grid: &[f64],
    ) -> Result<Vec<(f64, f64)>> {
        engine.sweep_supervised(
            params,
            axis,
            grid,
            RewardPolicy::FailedOnly,
            SolverBackend::Auto,
            &|_| {},
        )
    }

    // The whole point of the engine: sweep workers share it.
    const _ASSERT_SYNC: fn() = || {
        fn is_sync<T: Sync + Send>() {}
        is_sync::<AnalysisEngine>();
        is_sync::<ChainSolution>();
    };

    #[test]
    fn reward_only_sweep_solves_the_chain_exactly_once() {
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
        let params = SystemParams::paper_six_version();
        let grid = analysis::linspace(0.0, 1.0, 9);
        sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap();
        assert_eq!(
            engine.stats().cache_misses,
            1,
            "one chain solve for 9 points"
        );
        assert_eq!(engine.stats().cache_hits, 8);
        assert_eq!(engine.stats().chain_solutions, 1);
        // The other two reward axes reuse the same solution too.
        sweep(
            &engine,
            &params,
            ParamAxis::HealthyInaccuracy,
            &analysis::linspace(0.0, 0.3, 5),
        )
        .unwrap();
        sweep(
            &engine,
            &params,
            ParamAxis::CompromisedInaccuracy,
            &analysis::linspace(0.3, 0.9, 5),
        )
        .unwrap();
        assert_eq!(engine.stats().cache_misses, 1, "still a single chain solve");
        assert_eq!(engine.stats().chain_solutions, 1);
    }

    #[test]
    fn chain_axes_miss_per_distinct_value() {
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
        let params = SystemParams::paper_six_version();
        let grid = [300.0, 600.0, 900.0];
        sweep(&engine, &params, ParamAxis::RejuvenationInterval, &grid).unwrap();
        assert_eq!(
            engine.stats().cache_misses,
            3,
            "interval reshapes the chain"
        );
        // Re-running the same grid is all hits.
        sweep(&engine, &params, ParamAxis::RejuvenationInterval, &grid).unwrap();
        assert_eq!(engine.stats().cache_misses, 3);
        assert_eq!(engine.stats().cache_hits, 3);
    }

    #[test]
    fn cached_results_are_bit_identical_to_uncached() {
        for params in [
            SystemParams::paper_four_version(),
            SystemParams::paper_six_version(),
        ] {
            let uncached = AnalysisEngine::new()
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            let engine = AnalysisEngine::new();
            let first = engine
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            let second = engine
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            assert_eq!(first.to_bits(), uncached.to_bits(), "n = {}", params.n);
            assert_eq!(second.to_bits(), uncached.to_bits(), "n = {}", params.n);
            assert_eq!(engine.stats().cache_misses, 1);
            assert_eq!(engine.stats().cache_hits, 1);
        }
    }

    #[test]
    fn chain_key_ignores_reward_parameters() {
        let base = SystemParams::paper_six_version();
        let mut reward_variant = base.clone();
        reward_variant.alpha = 0.1;
        reward_variant.p = 0.2;
        reward_variant.p_prime = 0.9;
        assert_eq!(ChainKey::of(&base, 100), ChainKey::of(&reward_variant, 100));
        let mut chain_variant = base.clone();
        chain_variant.rejuvenation_interval = 601.0;
        assert_ne!(ChainKey::of(&base, 100), ChainKey::of(&chain_variant, 100));
        assert_ne!(ChainKey::of(&base, 100), ChainKey::of(&base, 101));
        // Without rejuvenation the clock fields are normalized away.
        let mut p4a = SystemParams::paper_four_version();
        let mut p4b = SystemParams::paper_four_version();
        p4a.rejuvenation_interval = 100.0;
        p4b.rejuvenation_interval = 900.0;
        p4a.repair_shares_budget = true;
        assert_eq!(ChainKey::of(&p4a, 100), ChainKey::of(&p4b, 100));
    }

    #[test]
    fn parallel_sweep_shares_one_chain_for_reward_axes() {
        let _lock = pool_test_lock();
        let params = SystemParams::paper_six_version();
        let grid = analysis::linspace(0.05, 0.95, 8);
        let serial = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
        let sequential = sweep(&serial, &params, ParamAxis::Alpha, &grid).unwrap();
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(4));
        let parallel = sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(
            engine.stats().cache_misses,
            1,
            "parallel workers shared the slot"
        );
    }

    #[test]
    fn stats_report_the_pipeline_shape() {
        let engine = AnalysisEngine::new();
        let params = SystemParams::paper_six_version();
        engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.chain_solutions, 1);
        assert!(stats.tangible_markings > 0);
        assert!(
            stats.vanishing_visits > 0,
            "guards create vanishing markings"
        );
        assert!(
            stats.subordinated_chains > 0,
            "the clock subordinates chains"
        );
        // One subordinated chain per marking that enables the clock.
        assert_eq!(stats.subordinated_chains, 49, "{stats:?}");
        assert!(stats.max_truncation_steps > 0);
        assert_eq!(stats.dense_solves, 1);
        assert_eq!(stats.iterative_solves, 0);
        let text = stats.to_string();
        assert!(text.contains("chain cache"), "{text}");
        assert!(text.contains("uniformization depth"), "{text}");
        // clear() drops solutions but keeps counters.
        engine.clear();
        assert_eq!(engine.stats().chain_solutions, 0);
        assert_eq!(engine.stats().cache_misses, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let engine = AnalysisEngine::new();
        let p = SystemParams::paper_six_version();
        // A tiny budget fails exploration...
        assert!(engine.chain(&p, SolverBackend::Budget(3)).is_err());
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(
            engine.stats().chain_solutions,
            0,
            "failures leave no cached entry"
        );
        // ...and the same key retried still recomputes (and fails again).
        assert!(engine.chain(&p, SolverBackend::Budget(3)).is_err());
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn expired_wall_clock_budget_stops_the_solve_cleanly() {
        let engine = AnalysisEngine::new().with_budget_ms(0);
        let err = engine
            .chain(&SystemParams::paper_six_version(), SolverBackend::Auto)
            .unwrap_err();
        // Exploration is the first budgeted stage; the 0 ms deadline is
        // already expired when it starts.
        assert!(
            matches!(
                err,
                crate::CoreError::Petri(nvp_petri::PetriError::Numerics(
                    NumericsError::BudgetExceeded { .. }
                ))
            ),
            "{err:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.budget_exhaustions, 1);
        assert_eq!(stats.chain_solutions, 0, "budget stops are not cached");
        assert_eq!(stats.fallbacks_taken, 0, "budget stops take no fallback");
        assert!(stats.to_string().contains("resilience"), "{stats}");
    }

    #[test]
    fn generous_budget_matches_unbudgeted_analysis() {
        let params = SystemParams::paper_six_version();
        let unbudgeted = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let budgeted = AnalysisEngine::new()
            .with_budget_ms(60_000)
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(budgeted.to_bits(), unbudgeted.to_bits());
    }

    /// Serializes tests that exercise the process-global [`WorkerPool`], so
    /// permit availability is deterministic.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        POOL_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nested_parallelism_respects_the_global_worker_budget() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(4);
        // Tests running beside this one may still hold permits granted under
        // a larger capacity; once they drain, the new cap bounds every grant.
        while pool.in_use() >= pool.capacity() {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.reset_peak();
        // A gamma sweep is a chain axis: every grid point runs a full MRGP
        // solve whose row stage *also* asks the pool for workers — the
        // nesting scenario the permit budget exists for.
        let params = SystemParams::paper_six_version();
        let grid = analysis::linspace(200.0, 3000.0, 6);
        let serial = sweep(
            &AnalysisEngine::new().with_jobs(Jobs::Fixed(1)),
            &params,
            ParamAxis::RejuvenationInterval,
            &grid,
        )
        .unwrap();
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(8));
        let parallel = sweep(&engine, &params, ParamAxis::RejuvenationInterval, &grid).unwrap();
        assert_eq!(serial, parallel, "worker count must not change results");
        assert!(
            pool.peak() < pool.capacity(),
            "peak permit usage {} exceeds the configured cap {}",
            pool.peak(),
            pool.capacity()
        );
        let stats = engine.stats();
        assert!(stats.workers_used <= 4, "{stats:?}");
        assert!(stats.to_string().contains("parallelism"), "{}", stats);
        pool.set_capacity(pool.capacity().max(8));
    }

    #[test]
    fn failing_point_cancels_the_parallel_sweep() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(8));
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(4));
        let params = SystemParams::paper_six_version();
        // Every point is invalid (alpha > 1): the 4 workers record an error
        // each at most, and the cancellation flag skips the remaining
        // points instead of solving a doomed grid.
        let grid = vec![2.0; 12];
        let err = sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::InvalidParameter { .. }),
            "{err:?}"
        );
        let stats = engine.stats();
        assert!(
            stats.sweep_cancellations >= grid.len() as u64 - 4,
            "expected at least {} skipped points, saw {}",
            grid.len() - 4,
            stats.sweep_cancellations
        );
    }

    #[test]
    fn failing_point_cancels_the_serial_sweep() {
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
        let params = SystemParams::paper_six_version();
        // The calling thread alone claims the points in order: the first
        // fails, and each of the other eleven is skipped and counted.
        let grid = vec![2.0; 12];
        let err = sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::InvalidParameter { .. }),
            "{err:?}"
        );
        assert_eq!(engine.stats().sweep_cancellations, 11);
    }

    #[test]
    fn parallel_sweep_with_serial_jobs_matches_sequential_path() {
        let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(1));
        let params = SystemParams::paper_six_version();
        let grid = analysis::linspace(0.05, 0.95, 5);
        let parallel = sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap();
        // The reference: one point after another, no sweep machinery.
        let sequential: Vec<(f64, f64)> = grid
            .iter()
            .map(|&x| {
                let p = ParamAxis::Alpha.apply(&params, x);
                let r = engine
                    .expected_reliability(&p, RewardPolicy::FailedOnly, SolverBackend::Auto)
                    .unwrap();
                (x, r)
            })
            .collect();
        assert_eq!(parallel, sequential);
        assert_eq!(engine.stats().sweep_cancellations, 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn dense_failure_falls_back_to_the_alternate_backend() {
        let params = SystemParams::paper_six_version();
        let healthy = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        // Only the first dense solve faults: the primary fails, the
        // alternate (iterative) backend answers.
        let engine = AnalysisEngine::new().with_faults(plan(
            Site::DenseStationary,
            FaultMode::ConvergenceFailure,
            1,
        ));
        let report = engine
            .analyze(
                &params,
                RewardPolicy::FailedOnly,
                ReliabilitySource::Auto,
                SolverBackend::Auto,
            )
            .unwrap();
        let d = report.degraded.as_ref().expect("degraded report");
        assert_eq!(d.method, DegradedMethod::AlternateBackend);
        assert_eq!(
            d.reliability_half_width.to_bits(),
            0,
            "analytic: no sampling error, and +0.0 rather than -0.0"
        );
        assert!(d.reason.contains("singular"), "{}", d.reason);
        // The relaxed-tolerance iterative answer still lands on the healthy
        // value to well past reporting precision.
        assert!(
            (report.expected_reliability - healthy).abs() < 1e-6,
            "{} vs {healthy}",
            report.expected_reliability
        );
        let stats = engine.stats();
        assert_eq!(stats.fallbacks_taken, 1);
        assert_eq!(stats.degraded_solutions, 1);
        assert_eq!(stats.dense_solves, 0);
        assert_eq!(stats.iterative_solves, 1);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn an_armed_engine_leaves_a_concurrent_engine_untouched() {
        let params = SystemParams::paper_six_version();
        let solve = |engine: &AnalysisEngine| {
            engine.expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
        };
        let healthy = solve(&AnalysisEngine::new()).unwrap();
        let armed = AnalysisEngine::new()
            .with_faults(FaultPlan::new(Site::Any, FaultMode::ConvergenceFailure).arm());
        let clean = AnalysisEngine::new();
        let done = AtomicBool::new(false);
        let answer = std::thread::scope(|scope| {
            // Failures are not cached, so the armed engine re-solves (and
            // fails) for as long as the clean engine solves beside it.
            scope.spawn(|| loop {
                assert!(solve(&armed).is_err());
                if done.load(Ordering::Relaxed) {
                    break;
                }
            });
            let answer = solve(&clean);
            done.store(true, Ordering::Relaxed);
            answer
        });
        assert_eq!(answer.unwrap().to_bits(), healthy.to_bits());
        assert_eq!(clean.stats().degraded_solutions, 0);
        assert!(armed.stats().fallbacks_taken >= 1);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn total_solver_failure_falls_back_to_monte_carlo() {
        let params = SystemParams::paper_six_version();
        // Capture the healthy distribution first, then use it as a stub
        // Monte Carlo answer (core cannot depend on the real simulator).
        let healthy = AnalysisEngine::new()
            .chain(&params, SolverBackend::Auto)
            .unwrap();
        let pi = healthy.solution.probabilities().to_vec();
        let hook: MonteCarloHook = Arc::new(move |_net, graph| {
            assert_eq!(graph.tangible_count(), pi.len());
            Ok(McOccupancy {
                occupancy: pi.clone(),
                half_widths: vec![1e-4; pi.len()],
                unmatched: 0.0,
            })
        });
        let engine = AnalysisEngine::new()
            .with_monte_carlo(hook)
            .with_faults(FaultPlan::new(Site::Any, FaultMode::ConvergenceFailure).arm());
        let report = engine
            .analyze(
                &params,
                RewardPolicy::FailedOnly,
                ReliabilitySource::Auto,
                SolverBackend::Auto,
            )
            .unwrap();
        let d = report.degraded.as_ref().expect("degraded report");
        assert_eq!(d.method, DegradedMethod::MonteCarlo);
        assert!(
            d.reliability_half_width > 0.0 && d.reliability_half_width.is_finite(),
            "{}",
            d.reliability_half_width
        );
        let stats = engine.stats();
        assert_eq!(stats.fallbacks_taken, 2, "alternate retry + Monte Carlo");
        assert_eq!(stats.degraded_solutions, 1);
        assert_eq!(stats.dense_solves, 0);
        assert_eq!(stats.iterative_solves, 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn without_a_hook_total_failure_reports_the_primary_error() {
        let engine = AnalysisEngine::new()
            .with_faults(FaultPlan::new(Site::Any, FaultMode::IterationExhaustion).arm());
        let err = engine
            .chain(&SystemParams::paper_six_version(), SolverBackend::Auto)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::CoreError::Mrgp(MrgpError::Numerics(NumericsError::NoConvergence { .. }))
            ),
            "{err:?}"
        );
        assert_eq!(engine.stats().fallbacks_taken, 1, "alternate was tried");
        assert_eq!(engine.stats().chain_solutions, 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn nan_poisoning_is_caught_and_recovered_at_every_site() {
        let params = SystemParams::paper_six_version();
        let healthy = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let engine =
            AnalysisEngine::new().with_faults(plan(Site::DenseStationary, FaultMode::NanPoison, 1));
        let r = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert!((r - healthy).abs() < 1e-6, "{r} vs {healthy}");
        assert_eq!(engine.stats().degraded_solutions, 1);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn an_injected_panic_degrades_one_grid_point_not_the_sweep() {
        let params = SystemParams::paper_six_version();
        let grid = [0.0, 0.3, 0.6];
        let healthy = sweep(
            &AnalysisEngine::new().with_jobs(Jobs::Fixed(1)),
            &params,
            ParamAxis::Alpha,
            &grid,
        )
        .unwrap();
        // The first dense stationary solve panics; only that grid point
        // falls back to the alternate backend, the sweep itself completes.
        let engine = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .with_faults(plan(Site::DenseStationary, FaultMode::Panic, 1));
        let swept = sweep(&engine, &params, ParamAxis::Alpha, &grid).unwrap();
        assert_eq!(swept.len(), grid.len());
        for ((x, y), (hx, hy)) in swept.iter().zip(&healthy) {
            assert_eq!(x.to_bits(), hx.to_bits());
            assert!((y - hy).abs() < 1e-6, "{y} vs {hy}");
        }
        let stats = engine.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.degraded_solutions, 1);
        assert_eq!(stats.fallbacks_taken, 1);
        assert_eq!(stats.retries, 0, "recovered inside the fallback chain");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_persistent_panic_is_retried_at_the_point_level() {
        let params = SystemParams::paper_six_version();
        let healthy = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        // Two armed panics: the primary solve eats one, the alternate-backend
        // fallback eats the other, so the first *attempt* fails outright and
        // only the supervised point-level retry (fresh budget) sees a
        // healthy solver.
        let engine = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .with_retries(1)
            .with_faults(plan(Site::SubordinatedTransient, FaultMode::Panic, 2));
        let swept = sweep(&engine, &params, ParamAxis::Alpha, &[params.alpha]).unwrap();
        assert_eq!(swept.len(), 1);
        assert!(
            (swept[0].1 - healthy).abs() < 1e-9,
            "{} vs {healthy}",
            swept[0].1
        );
        let stats = engine.stats();
        assert_eq!(stats.retries, 1);
        assert!(stats.worker_panics >= 1, "{}", stats.worker_panics);
        assert_eq!(stats.degraded_solutions, 0, "the retry solved cleanly");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_stalled_point_is_cancelled_at_its_deadline() {
        let params = SystemParams::paper_six_version();
        // Every subordinated transient stalls 50 ms against a 10 ms point
        // deadline: the budget check after the stall cancels the attempt,
        // and the one permitted retry stalls out identically, so the point
        // fails with a typed error after two rejuvenations.
        let stalled = |jobs| {
            AnalysisEngine::new()
                .with_jobs(jobs)
                .with_point_deadline_ms(10)
                .with_retries(1)
                .with_faults(FaultPlan::new(Site::SubordinatedTransient, FaultMode::Stall).arm())
        };
        let is_cancelled = |err: &crate::CoreError| {
            matches!(
                err,
                crate::CoreError::Mrgp(MrgpError::Numerics(NumericsError::Cancelled { .. }))
            )
        };
        let engine = stalled(Jobs::Fixed(1));
        let err = sweep(&engine, &params, ParamAxis::Alpha, &[params.alpha]).unwrap_err();
        assert!(is_cancelled(&err), "{err:?}");
        let stats = engine.stats();
        assert_eq!(stats.rejuvenations, 2);
        assert_eq!(stats.retries, 1);

        // Two chain points on two workers: one point's deadline fires on a
        // pool worker. Both start long before either fails, so each takes
        // its retry; on one thread the first failure would skip the second.
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(2));
        let idle_by = Instant::now() + Duration::from_secs(10);
        while pool.in_use() > 0 && Instant::now() < idle_by {
            std::thread::sleep(Duration::from_millis(1));
        }
        let engine = stalled(Jobs::Fixed(2));
        let err = sweep(
            &engine,
            &params,
            ParamAxis::RejuvenationInterval,
            &[500.0, 700.0],
        )
        .unwrap_err();
        assert!(is_cancelled(&err), "{err:?}");
        let stats = engine.stats();
        assert_eq!(stats.retries, 2, "both points ran at once");
        assert_eq!(stats.rejuvenations, 4);
    }

    #[test]
    fn a_drain_cancellation_is_not_retried() {
        // The drain flag stays set, so a retry would only sleep through
        // its backoff and fail again; the far point deadline never fires.
        let engine = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .with_point_deadline_ms(3_600_000)
            .with_retries(3);
        let params = SystemParams::paper_six_version();
        engine.cancel_inflight();
        let err = sweep(
            &engine,
            &params,
            ParamAxis::RejuvenationInterval,
            &[500.0, 700.0],
        )
        .unwrap_err();
        assert!(err.to_string().contains("cancelled by supervisor"), "{err}");
        let stats = engine.stats();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.rejuvenations, 0);
    }

    #[test]
    fn a_poisoned_cache_lock_is_recovered_not_propagated() {
        let engine = AnalysisEngine::new();
        let params = SystemParams::paper_six_version();
        let healthy = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        // Poison the cache map's mutex the only way possible: panic while
        // holding the guard.
        let poisoner = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = engine.cache.lock().unwrap();
            panic!("poisoning the cache lock");
        }));
        assert!(poisoner.is_err());
        assert!(engine.cache.is_poisoned());
        // Every cache entry point recovers instead of unwinding.
        assert_eq!(engine.stats().chain_solutions, 1);
        let again = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(again.to_bits(), healthy.to_bits(), "served from the cache");
        assert!(engine.stats().poisoned_locks_recovered >= 1);
        // Slot-level poisoning invalidates the slot: the next request
        // recomputes rather than trusting a guard a panic unwound through.
        let slot = {
            let map = engine.lock_cache();
            Arc::clone(map.values().next().expect("one cached chain"))
        };
        let slot_poisoner = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = slot.value.lock().unwrap();
            panic!("poisoning the slot lock");
        }));
        assert!(slot_poisoner.is_err());
        let misses_before = engine.stats().cache_misses;
        let recomputed = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert!((recomputed - healthy).abs() < 1e-12);
        assert_eq!(
            engine.stats().cache_misses,
            misses_before + 1,
            "slot was invalidated"
        );
        assert_eq!(engine.stats().chain_solutions, 1, "one entry, counted once");
    }

    #[test]
    fn failed_solves_leave_no_map_entries() {
        let engine = AnalysisEngine::new();
        let params = |i: u32| {
            ParamAxis::MeanTimeToFailure
                .apply(&SystemParams::paper_six_version(), 600.0 + f64::from(i))
        };
        for i in 0..20 {
            assert!(engine.chain(&params(i), SolverBackend::Budget(3)).is_err());
        }
        engine.cancel_inflight();
        for i in 0..20 {
            assert!(engine.chain(&params(i), SolverBackend::Auto).is_err());
        }
        assert!(engine.lock_cache().is_empty(), "failing keys grew the map");
        engine.reset_cancellation();
        engine.chain(&params(0), SolverBackend::Auto).unwrap();
        assert_eq!(engine.lock_cache().len(), 1);
        let stats = engine.stats();
        assert_eq!((stats.cache_misses, stats.chain_solutions), (41, 1));
    }

    #[test]
    fn a_waiter_on_a_dropped_slot_solves_into_the_map() {
        let engine = Arc::new(AnalysisEngine::new());
        let params = SystemParams::paper_six_version();
        let key = ChainKey::of(&params, SolverBackend::Auto.max_markings());
        // A solve in flight holds its slot...
        let dropped = Arc::clone(engine.lock_cache().entry(key.clone()).or_default());
        let inflight = dropped.value.lock().unwrap();
        let waiter = {
            let (engine, params) = (Arc::clone(&engine), params.clone());
            std::thread::spawn(move || engine.chain(&params, SolverBackend::Auto).map(|_| ()))
        };
        // ...while a second request for the key picks the slot up (the map,
        // this test and the waiter each hold a reference)...
        while Arc::strong_count(&dropped) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...then the solve fails and drops the slot from the map.
        engine.lock_cache().remove(&key);
        drop(inflight);
        waiter.join().unwrap().unwrap();
        assert!(dropped.value.lock().unwrap().is_none(), "filled an orphan");
        let held = Arc::clone(&engine.lock_cache()[&key]);
        assert!(held.value.lock().unwrap().is_some());
        assert_eq!(engine.stats().chain_solutions, 1);
    }

    #[test]
    fn an_inflight_solve_blocks_neither_telemetry_nor_other_keys() {
        use std::sync::mpsc;
        let engine = Arc::new(AnalysisEngine::new());
        let params = SystemParams::paper_six_version();
        engine.chain(&params, SolverBackend::Auto).unwrap();
        // An in-flight solve holds its (still empty) slot's mutex for as
        // long as the solve runs; here, until the test releases it or
        // fails and drops the sender.
        let key = ChainKey::of(
            &SystemParams::paper_four_version(),
            SolverBackend::Auto.max_markings(),
        );
        let slot = Arc::clone(engine.lock_cache().entry(key).or_default());
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _inflight = slot.value.lock().unwrap();
            held_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        held_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let telemetry = {
            let (engine, done) = (Arc::clone(&engine), done_tx.clone());
            std::thread::spawn(move || {
                let stats = engine.stats();
                let prom = engine.metrics().render_prometheus();
                done.send((stats.chain_solutions, prom.len())).unwrap();
            })
        };
        let hit = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.chain(&params, SolverBackend::Auto).unwrap();
                done_tx.send((0, 0)).unwrap();
            })
        };
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a telemetry read or a cache hit waited on the in-flight solve");
        }
        release_tx.send(()).unwrap();
        for thread in [holder, telemetry, hit] {
            thread.join().unwrap();
        }
        assert_eq!(engine.stats().cache_hits, 1);
    }

    /// The value of the unlabeled series `name` in a Prometheus exposition.
    fn series(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no series {name}:\n{text}"))
    }

    #[test]
    fn stats_and_the_exposition_agree_under_eviction_and_warm_reload() {
        let engine = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .with_store(store_in("agree"))
            .with_max_cache_entries(2);
        let params = SystemParams::paper_six_version();
        let grid = [600.0, 800.0, 1000.0, 1200.0];
        sweep(&engine, &params, ParamAxis::MeanTimeToFailure, &grid).unwrap();
        // The least recently used point was evicted; it reloads warm.
        let evicted = ParamAxis::MeanTimeToFailure.apply(&params, grid[0]);
        let warm = engine.chain(&evicted, SolverBackend::Auto).unwrap();
        let stats = engine.stats();
        assert_eq!(
            (stats.cache_misses, stats.cache_evictions, stats.store_hits),
            (5, 3, 1)
        );
        assert_eq!(stats.chain_solutions, 2);
        assert_eq!(stats.cache_bytes, 2 * warm.approx_bytes());
        // Lifetime totals over every solution that entered the cache,
        // evicted ones included.
        assert_eq!(
            stats.tangible_markings,
            5 * warm.explore_stats.tangible_markings
        );
        assert_eq!(
            stats.subordinated_chains,
            5 * warm.solver_stats.subordinated_chains
        );
        let prom = engine.metrics().render_prometheus();
        for (name, value) in [
            ("nvp_cache_hits_total", stats.cache_hits),
            ("nvp_cache_misses_total", stats.cache_misses),
            ("nvp_cache_evictions_total", stats.cache_evictions),
            ("nvp_cache_entries", stats.chain_solutions as u64),
            ("nvp_cache_bytes_approx", stats.cache_bytes),
            ("nvp_store_hits_total", stats.store_hits),
            (
                "nvp_subordinated_chains_total",
                stats.subordinated_chains as u64,
            ),
            (
                "nvp_tangible_markings_total",
                stats.tangible_markings as u64,
            ),
            (
                "nvp_degraded_solutions_total",
                stats.degraded_solutions as u64,
            ),
        ] {
            assert_eq!(series(&prom, name), value, "{name}");
        }
    }

    #[test]
    fn metrics_registry_backs_the_stats_counters() {
        let engine = AnalysisEngine::new();
        let params = SystemParams::paper_six_version();
        engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let stats = engine.stats();
        let text = engine.metrics().render_prometheus();
        assert!(
            text.contains(&format!("nvp_cache_hits_total {}", stats.cache_hits)),
            "stats and exposition read the same cells:\n{text}"
        );
        assert!(text.contains(&format!("nvp_cache_misses_total {}", stats.cache_misses)));
        assert!(text.contains("nvp_stage_solve_ns_count 1"));
        assert!(text.contains("nvp_point_solve_ns"));
        assert!(text.contains(&format!("nvp_workers_used {}", stats.workers_used)));
        // Store counters are registered (at 0) even without a store, so
        // dashboards see a stable metric set.
        assert!(text.contains("nvp_store_hits_total 0"));
        assert!(text.contains("nvp_store_corrupt_quarantined_total 0"));
    }

    fn store_in(tag: &str) -> SolveStore {
        let dir = std::env::temp_dir().join(format!("nvp-engine-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        SolveStore::open(dir).unwrap()
    }

    fn store_key(params: &SystemParams) -> Vec<u8> {
        ChainKey::of(params, SolverBackend::Auto.max_markings())
            .store_bytes(SolveOptions::default().dedup)
    }

    #[test]
    fn warm_store_load_is_bit_identical_to_the_cold_solve() {
        let store = store_in("warm");
        for params in [
            SystemParams::paper_four_version(),
            SystemParams::paper_six_version(),
        ] {
            let cold_engine = AnalysisEngine::new().with_store(store.clone());
            let cold = cold_engine.chain(&params, SolverBackend::Auto).unwrap();
            let cold_stats = cold_engine.stats();
            assert_eq!(cold_stats.store_hits, 0);
            assert_eq!(cold_stats.store_misses, 1);

            // A different engine — a different process, as far as the
            // store is concerned — answers from disk without solving.
            let warm_engine = AnalysisEngine::new().with_store(store.clone());
            let warm = warm_engine.chain(&params, SolverBackend::Auto).unwrap();
            let warm_stats = warm_engine.stats();
            assert_eq!(warm_stats.store_hits, 1, "n = {}", params.n);
            assert_eq!(warm_stats.store_misses, 0);

            assert_eq!(
                warm.solution.probabilities().len(),
                cold.solution.probabilities().len()
            );
            for (w, c) in warm
                .solution
                .probabilities()
                .iter()
                .zip(cold.solution.probabilities())
            {
                assert_eq!(w.to_bits(), c.to_bits(), "warm load must be bit-exact");
            }
            assert_eq!(warm.explore_stats, cold.explore_stats);
            assert_eq!(warm.solver_stats.method, cold.solver_stats.method);
            assert_eq!(warm.solver_stats.backend, cold.solver_stats.backend);
            assert_eq!(
                warm.solver_stats.subordinated_chains,
                cold.solver_stats.subordinated_chains
            );
            assert!(warm.degraded.is_none());
            assert_eq!(
                warm_engine.stats().solve_time,
                Duration::ZERO,
                "no solve ran"
            );
            // Downstream reward math lands on identical bits too.
            let cold_r = cold_engine
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            let warm_r = warm_engine
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            assert_eq!(warm_r.to_bits(), cold_r.to_bits());
        }
    }

    #[test]
    fn bounded_cache_evicts_lru_and_never_exceeds_the_bound() {
        let engine = AnalysisEngine::new()
            .with_jobs(Jobs::Fixed(1))
            .with_max_cache_entries(2);
        let params = SystemParams::paper_six_version();
        // Four distinct chain keys through a cache bounded at two entries.
        let grid = [600.0, 800.0, 1000.0, 1200.0];
        sweep(&engine, &params, ParamAxis::MeanTimeToFailure, &grid).unwrap();
        assert!(
            engine.stats().chain_solutions <= 2,
            "{}",
            engine.stats().chain_solutions
        );
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_evictions, 2);
        assert!(stats.to_string().contains("2 eviction(s)"), "{stats}");
        let prom = engine.metrics().render_prometheus();
        assert!(prom.contains("nvp_cache_evictions_total 2"), "{prom}");
        assert!(prom.contains("nvp_cache_entries 2"), "{prom}");
        assert!(engine.stats().cache_bytes > 0);
    }

    #[test]
    fn a_byte_cap_below_any_entry_disables_caching_but_not_answers() {
        let engine = AnalysisEngine::new().with_max_cache_bytes(1);
        let params = SystemParams::paper_six_version();
        let reference = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let bounded = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(bounded.to_bits(), reference.to_bits());
        // Every solution is bigger than one byte, so the insert is evicted
        // straight away — the bound always wins over retention.
        assert_eq!(engine.stats().chain_solutions, 0);
        assert!(engine.stats().cache_evictions >= 1);
    }

    #[test]
    fn evicted_entries_reload_warm_and_bit_identical_from_the_store() {
        let store = store_in("evict");
        let engine = AnalysisEngine::new()
            .with_store(store.clone())
            .with_max_cache_entries(1);
        let four = SystemParams::paper_four_version();
        let six = SystemParams::paper_six_version();
        let cold = engine.chain(&four, SolverBackend::Auto).unwrap();
        let cold_bits: Vec<u64> = cold
            .solution
            .probabilities()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        drop(cold);
        // Solving a second system pushes the cache over its bound and
        // evicts the first (least recently used) solution.
        engine.chain(&six, SolverBackend::Auto).unwrap();
        assert_eq!(engine.stats().chain_solutions, 1);
        assert_eq!(engine.stats().cache_evictions, 1);
        let warm = engine.chain(&four, SolverBackend::Auto).unwrap();
        let stats = engine.stats();
        assert_eq!(
            stats.store_hits, 1,
            "the evicted entry reloads from the store instead of re-solving"
        );
        let warm_bits: Vec<u64> = warm
            .solution
            .probabilities()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(warm_bits, cold_bits, "reload after eviction is bit-exact");
        // Two cold solves; the warm reload built and explored but solved
        // nothing.
        let prom = engine.metrics().render_prometheus();
        assert!(prom.contains("nvp_stage_solve_ns_count 2"), "{prom}");
        assert!(prom.contains("nvp_stage_explore_ns_count 3"), "{prom}");
    }

    #[test]
    fn cancel_inflight_stops_new_solves_until_reset() {
        let engine = AnalysisEngine::new();
        let params = SystemParams::paper_six_version();
        engine.cancel_inflight();
        let err = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled by supervisor"), "{err}");
        assert!(
            !engine.deadline_fired(&err),
            "a drain is not a point deadline"
        );
        engine.reset_cancellation();
        assert!(engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .is_ok());
    }

    #[test]
    fn corrupt_store_record_is_quarantined_and_resolved() {
        let store = store_in("corrupt");
        let params = SystemParams::paper_six_version();
        let reference = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        AnalysisEngine::new()
            .with_store(store.clone())
            .chain(&params, SolverBackend::Auto)
            .unwrap();
        store.corrupt_entry(&store_key(&params)).unwrap();

        let engine = AnalysisEngine::new().with_store(store.clone());
        let r = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(r.to_bits(), reference.to_bits(), "re-solve, right answer");
        let stats = engine.stats();
        assert_eq!(stats.store_corrupt_quarantined, 1);
        assert_eq!(stats.store_misses, 1, "corruption degrades to a miss");
        assert_eq!(stats.store_hits, 0);
        assert_eq!(store.stats().unwrap().quarantined, 1);
        // The re-solve rewrote the slot: the next engine hits warm again.
        let healed = AnalysisEngine::new().with_store(store.clone());
        healed.chain(&params, SolverBackend::Auto).unwrap();
        assert_eq!(healed.stats().store_hits, 1);
        // ...and the counters surface in Display and Prometheus.
        let text = engine.stats().to_string();
        assert!(text.contains("solve store"), "{text}");
        let prom = engine.metrics().render_prometheus();
        assert!(
            prom.contains("nvp_store_corrupt_quarantined_total 1"),
            "{prom}"
        );
    }

    #[test]
    fn truncated_store_record_is_quarantined_and_resolved() {
        let store = store_in("truncated");
        let params = SystemParams::paper_six_version();
        AnalysisEngine::new()
            .with_store(store.clone())
            .chain(&params, SolverBackend::Auto)
            .unwrap();
        let path = store.entry_path(&store_key(&params));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let engine = AnalysisEngine::new().with_store(store.clone());
        engine.chain(&params, SolverBackend::Auto).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.store_corrupt_quarantined, 1);
        assert_eq!(stats.store_hits, 0);
    }

    #[test]
    fn store_keys_separate_what_chain_keys_separate() {
        let base = SystemParams::paper_six_version();
        let mut reward_variant = base.clone();
        reward_variant.alpha = 0.123;
        assert_eq!(store_key(&base), store_key(&reward_variant));
        let mut chain_variant = base.clone();
        chain_variant.rejuvenation_interval = 601.0;
        assert_ne!(store_key(&base), store_key(&chain_variant));
        // The flag byte is part of the on-disk identity.
        let key = ChainKey::of(&base, 100);
        assert_ne!(key.store_bytes(true), key.store_bytes(false));
    }

    #[test]
    fn degraded_solutions_persist_their_degradation() {
        // Forge a degraded solve via a Monte Carlo hook on an engine whose
        // analytic path is intact — then write it through the store and
        // check the warm copy keeps the degraded record. Rather than
        // injecting faults (feature-gated), store a handmade record.
        let store = store_in("degraded");
        let params = SystemParams::paper_six_version();
        let engine = AnalysisEngine::new().with_store(store.clone());
        let cold = engine.chain(&params, SolverBackend::Auto).unwrap();
        // Rewrite the stored record with a degraded flag attached.
        let key = store_key(&params);
        let mut record = match store.load(&key).unwrap() {
            Load::Hit(r) => r,
            other => panic!("expected hit, got {other:?}"),
        };
        record.degraded = Some(nvp_store::DegradedRecord {
            method: 1,
            reason: "testing degraded persistence".into(),
            half_widths: vec![1e-4; cold.solution.probabilities().len()],
        });
        store.save(&key, &record).unwrap();

        let warm_engine = AnalysisEngine::new().with_store(store.clone());
        let warm = warm_engine.chain(&params, SolverBackend::Auto).unwrap();
        let d = warm.degraded.as_ref().expect("degradation survived disk");
        assert_eq!(d.method, DegradedMethod::MonteCarlo);
        assert_eq!(d.reason, "testing degraded persistence");
        assert_eq!(d.half_widths.len(), cold.solution.probabilities().len());
        assert_eq!(warm_engine.stats().degraded_solutions, 1);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_store_write_failure_degrades_to_a_skipped_save() {
        let store = store_in("io-write");
        let params = SystemParams::paper_six_version();
        let reference = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let engine = AnalysisEngine::new()
            .with_store(store.clone())
            .with_faults(plan(Site::StoreWrite, FaultMode::Io, 1));
        let r = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(r.to_bits(), reference.to_bits(), "the solve proceeded");
        let stats = engine.stats();
        assert_eq!(stats.store_write_failures, 1);
        assert_eq!(stats.cache_misses, 1);
        // Nothing was published: the next engine cold-solves.
        assert_eq!(store.stats().unwrap().entries, 0);
        let next = AnalysisEngine::new().with_store(store.clone());
        next.chain(&params, SolverBackend::Auto).unwrap();
        assert_eq!(next.stats().store_hits, 0);
        assert_eq!(next.stats().store_misses, 1);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_store_read_corruption_exercises_the_quarantine_path() {
        let store = store_in("corrupt-read");
        let params = SystemParams::paper_six_version();
        let reference = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        AnalysisEngine::new()
            .with_store(store.clone())
            .chain(&params, SolverBackend::Auto)
            .unwrap();

        let engine = AnalysisEngine::new()
            .with_store(store.clone())
            .with_faults(plan(Site::StoreRead, FaultMode::Corrupt, 1));
        let r = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert_eq!(r.to_bits(), reference.to_bits(), "never a wrong number");
        let stats = engine.stats();
        assert_eq!(
            stats.store_corrupt_quarantined, 1,
            "real checksum caught it"
        );
        assert_eq!(stats.store_hits, 0);
        assert_eq!(store.stats().unwrap().quarantined, 1);
    }
}
