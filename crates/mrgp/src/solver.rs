//! The embedded-Markov-chain steady-state solver.

use crate::{MrgpError, Result};
use nvp_numerics::budget::SolveBudget;
use nvp_numerics::ctmc::{Ctmc, TransientStats};
use nvp_numerics::dtmc::stationary_distribution_with;
#[cfg(feature = "fault-inject")]
use nvp_numerics::fault::{solver_fault, Site};
use nvp_numerics::guard::{
    guard_probability_vector, DENSE_RENORMALIZATION_LIMIT, ESTIMATE_RENORMALIZATION_LIMIT,
};
use nvp_numerics::pool::{Jobs, WorkerPool};
use nvp_numerics::sparse::{CsrMatrix, SparseRow};
use nvp_numerics::{
    panic_payload, stationary_backend_for, StationaryBackend, StationaryOptions,
    DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
};
use nvp_petri::reach::TangibleReachGraph;

/// Truncation accuracy of the uniformization series used for subordinated
/// chains.
const UNIFORMIZATION_EPS: f64 = 1e-13;

/// How a steady state was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMethod {
    /// A single tangible marking: the distribution is trivially `[1.0]`.
    #[default]
    SingleMarking,
    /// MRGP solve via the embedded Markov chain. A net with no
    /// deterministic transition takes this path too: its embedded chain is
    /// the CTMC's jump chain.
    Mrgp,
}

impl std::fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveMethod::SingleMarking => f.write_str("single-marking"),
            SolveMethod::Mrgp => f.write_str("mrgp"),
        }
    }
}

/// Observability counters collected during one steady-state solve.
///
/// Returned by [`steady_state_with_stats`]; the zero-cost way to answer
/// "what did the solver actually do" without instrumenting from outside.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MrgpStats {
    /// Which solve path was taken.
    pub method: SolveMethod,
    /// Tangible markings in the solved graph.
    pub markings: usize,
    /// Subordinated CTMCs built — one per tangible marking that enables a
    /// deterministic transition.
    pub subordinated_chains: usize,
    /// State count of the largest subordinated CTMC (transient + absorbing).
    pub max_subordinated_states: usize,
    /// Summed state count over all subordinated CTMCs.
    pub total_subordinated_states: usize,
    /// Deepest Poisson-series truncation used by any subordinated
    /// uniformization (transient / accumulated-sojourn solve).
    pub max_truncation_steps: usize,
    /// Backend of the embedded chain's stationary solve.
    pub backend: StationaryBackend,
    /// Number of stage-boundary probability guards that had to intervene
    /// (clamp negative round-off or renormalize non-unit mass).
    pub guard_trips: usize,
    /// Worker threads used by the subordinated-chain row stage (including
    /// the calling thread); 0 when no such stage ran (a single marking, or
    /// no marking enables a deterministic transition), 1 for a strictly
    /// serial row stage.
    pub workers_used: usize,
    /// Subordinated-chain rows solved by a row stage that ran on more than
    /// one worker.
    pub parallel_rows: usize,
    /// Times the row stage asked the worker pool for permits and was
    /// granted fewer than requested (nested parallelism degrading towards
    /// serial).
    pub permit_starvations: usize,
    /// Always equal to `subordinated_chains`: every chain is solved on its
    /// own. Kept only because the benchmark reports it under its old name.
    pub dedup_classes: usize,
    /// Always 0: the solver no longer cuts a uniformization series short.
    /// Kept only because the benchmark and the persistent store's records
    /// still carry the field.
    pub steady_state_detections: usize,
}

/// Options controlling a steady-state solve.
///
/// The default reproduces [`steady_state`]'s historical behaviour: backend
/// chosen by chain size, default tolerance and iteration cap, unlimited
/// budget.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Resource budget checked before each subordinated-chain solve and
    /// inside iterative stationary solves.
    pub budget: SolveBudget,
    /// Force a stationary-solve backend, or `None` to choose by chain size.
    pub backend: Option<StationaryBackend>,
    /// Convergence tolerance for iterative stationary solves.
    pub tolerance: f64,
    /// Iteration cap for iterative stationary solves.
    pub max_iterations: usize,
    /// Worker budget for the subordinated-chain row stage. Every
    /// deterministic marking's row is an independent transient solve, so
    /// they fan out through [`WorkerPool::run_indexed`] on the process-wide
    /// pool; results are assembled in marking order and are bit-identical
    /// at any worker count. [`Jobs::Fixed`]`(1)` runs every solve on the
    /// calling thread.
    pub jobs: Jobs,
    /// Ignored by the solver. It survives only as the flag byte of the
    /// persistent store's keys (`ChainKey::store_bytes` in `nvp-core`),
    /// which the benchmark builds from this default, so stores written with
    /// it stay warm.
    pub dedup: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            budget: SolveBudget::unlimited(),
            backend: None,
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            jobs: Jobs::Auto,
            dedup: true,
        }
    }
}

impl SolveOptions {
    fn stationary(&self) -> StationaryOptions {
        StationaryOptions {
            backend: self.backend,
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
            budget: self.budget.clone(),
        }
    }
}

/// The stationary solution of a DSPN.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    probabilities: Vec<f64>,
}

impl SteadyState {
    /// Steady-state probability of each tangible marking, indexed
    /// consistently with [`TangibleReachGraph::markings`].
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Expected reward `Σ_m π(m) · rewards[m]`.
    ///
    /// # Panics
    ///
    /// Panics if `rewards` has a different length than the probability
    /// vector.
    pub fn expected_reward(&self, rewards: &[f64]) -> f64 {
        assert_eq!(
            rewards.len(),
            self.probabilities.len(),
            "reward vector length mismatch"
        );
        self.probabilities
            .iter()
            .zip(rewards)
            .map(|(p, r)| p * r)
            .sum()
    }

    /// Builds a steady state from an externally estimated occupancy vector
    /// (e.g. Monte Carlo time fractions from `nvp-sim`), validating and
    /// renormalizing it with the statistical-estimate guard tolerance.
    ///
    /// # Errors
    ///
    /// [`MrgpError::Numerics`] if the vector is empty, contains non-finite
    /// or significantly negative entries, or its mass deviates from 1 by
    /// more than the estimate renormalization limit.
    pub fn from_occupancy(mut occupancy: Vec<f64>) -> Result<SteadyState> {
        guard_probability_vector(
            &mut occupancy,
            "estimated occupancy",
            ESTIMATE_RENORMALIZATION_LIMIT,
        )?;
        Ok(SteadyState {
            probabilities: occupancy,
        })
    }

    /// Rebuilds a steady state from a previously solved probability vector
    /// **without renormalizing**: the entries are validated (non-empty,
    /// finite, non-negative, mass within the estimate guard limit of 1) but
    /// stored bit for bit as given. This is the reload path for the
    /// persistent solve store, where a warm result must be bit-identical to
    /// the cold solve that produced it — any renormalization would perturb
    /// the last ulp.
    ///
    /// # Errors
    ///
    /// [`MrgpError::Numerics`] if the vector is empty, contains non-finite
    /// or negative entries, or its mass deviates from 1 by more than the
    /// estimate renormalization limit (a vector that damaged could not have
    /// come from a successful solve).
    pub fn from_exact(probabilities: Vec<f64>) -> Result<SteadyState> {
        let mass: f64 = probabilities.iter().sum();
        let damaged = probabilities.is_empty()
            || probabilities.iter().any(|p| !p.is_finite() || *p < 0.0)
            || (mass - 1.0).abs() > ESTIMATE_RENORMALIZATION_LIMIT;
        if damaged {
            return Err(MrgpError::Numerics(
                nvp_numerics::NumericsError::InvalidValue {
                    what: "stored steady-state vector (mass)",
                    value: mass,
                },
            ));
        }
        Ok(SteadyState { probabilities })
    }
}

/// Computes the steady-state probabilities of the tangible markings of a
/// DSPN.
///
/// # Errors
///
/// * [`MrgpError::MultipleDeterministic`] if any marking enables two or more
///   deterministic transitions.
/// * [`MrgpError::DeadMarking`] if a marking enables nothing at all.
/// * [`MrgpError::InconsistentDelay`] if a deterministic delay changes while
///   the transition remains enabled.
/// * [`MrgpError::Numerics`] for singular or non-convergent linear systems
///   (e.g. graphs with several closed recurrent classes).
pub fn steady_state(graph: &TangibleReachGraph) -> Result<SteadyState> {
    Ok(steady_state_with_stats(graph)?.0)
}

/// Like [`steady_state`], but also reports [`MrgpStats`] describing the
/// work the solver performed.
pub fn steady_state_with_stats(graph: &TangibleReachGraph) -> Result<(SteadyState, MrgpStats)> {
    steady_state_with_options(graph, &SolveOptions::default())
}

/// [`steady_state_with_stats`] with explicit [`SolveOptions`]: a resource
/// budget, a forced stationary backend, and custom iterative tolerances.
/// This is the entry point the resilience layer in `nvp-core` uses to retry
/// a failed solve on the alternate backend with a relaxed tolerance.
///
/// # Errors
///
/// Same as [`steady_state`], plus
/// [`nvp_numerics::NumericsError::BudgetExceeded`] (wrapped in
/// [`MrgpError::Numerics`]) when the budget's deadline passes.
pub fn steady_state_with_options(
    graph: &TangibleReachGraph,
    options: &SolveOptions,
) -> Result<(SteadyState, MrgpStats)> {
    let n = graph.tangible_count();
    let mut span = nvp_obs::span("mrgp.solve");
    span.record("markings", n);
    let states = graph.states();
    let mut stats = MrgpStats {
        markings: n,
        ..MrgpStats::default()
    };
    for (idx, s) in states.iter().enumerate() {
        if s.deterministic.len() > 1 {
            return Err(MrgpError::MultipleDeterministic { marking: idx });
        }
        // A marking is dead when nothing can actually fire: no deterministic
        // transition and no exponential arc with a *positive* rate. A
        // marking-dependent rate evaluating to 0 leaves an arc in the graph
        // but does not make the marking live.
        if n > 1 && s.deterministic.is_empty() && !s.exponential.iter().any(|a| a.value > 0.0) {
            return Err(MrgpError::DeadMarking { marking: idx });
        }
    }
    if n == 1 {
        return Ok((
            SteadyState {
                probabilities: vec![1.0],
            },
            stats,
        ));
    }
    let scc = nvp_petri::scc::analyze(graph);
    if scc.recurrent.len() > 1 {
        return Err(MrgpError::MultipleRecurrentClasses {
            count: scc.recurrent.len(),
        });
    }
    stats.method = SolveMethod::Mrgp;
    let solution = solve_mrgp(graph, options, &mut stats)?;
    if !span.is_inert() {
        span.record("method", format!("{:?}", stats.method));
        span.record("workers_used", stats.workers_used);
        span.record("subordinated_chains", stats.subordinated_chains);
    }
    Ok((solution, stats))
}

/// MRGP solve via the embedded Markov chain. A marking that enables no
/// deterministic transition contributes a [`race_row`], so a net without
/// any deterministic transition is solved through its CTMC's jump chain,
/// with no row stage.
fn solve_mrgp(
    graph: &TangibleReachGraph,
    options: &SolveOptions,
    stats: &mut MrgpStats,
) -> Result<SteadyState> {
    let n = graph.tangible_count();
    let states = graph.states();
    stats.backend = options.backend.unwrap_or_else(|| stationary_backend_for(n));
    // Each deterministic marking's row is an independent subordinated-CTMC
    // solve — the expensive part of the method — so solve them all up front,
    // possibly on several workers (see `solve_deterministic_rows`).
    let det_markings: Vec<usize> = (0..n)
        .filter(|&k| !states[k].deterministic.is_empty())
        .collect();
    let det_solved = solve_deterministic_rows(graph, &det_markings, options, stats)?;
    let mut det_solved = det_solved.into_iter();
    // Embedded chain P (row-stochastic) and conversion factors C:
    // C[k][m] = expected time spent in marking m during a regeneration
    // period that starts in marking k. Both are assembled in marking order
    // from compacted rows, so the result is bit-identical however the rows
    // were computed.
    let mut emc_rows = Vec::with_capacity(n);
    let mut conversion_rows = Vec::with_capacity(n);
    for (k, state) in states.iter().enumerate() {
        let (row, conversion) = if state.deterministic.is_empty() {
            race_row(state, k)
        } else {
            det_solved
                .next()
                .expect("one solved row per deterministic marking")
        };
        emc_rows.push(row);
        conversion_rows.push(conversion);
    }
    let nu = {
        let mut emc_span = nvp_obs::span("mrgp.emc");
        emc_span.record("markings", n);
        let emc = CsrMatrix::from_rows(n, emc_rows);
        if !emc_span.is_inert() {
            emc_span.record("nnz", emc.nnz());
            emc_span.record("backend", stats.backend.to_string());
        }
        stationary_distribution_with(&emc, &options.stationary())?
    };
    // Convert: pi(m) ∝ Σ_k nu(k) C[k][m]. Each marking appears at most once
    // per row of C, so every pi(m) sums its terms in marking order.
    let mut pi = CsrMatrix::from_rows(n, conversion_rows).vecmat(&nu);
    let total: f64 = pi.iter().sum();
    if total <= 0.0 || total.is_nan() {
        return Err(MrgpError::Numerics(
            nvp_numerics::NumericsError::NoSteadyState {
                reason: "all conversion factors vanished".into(),
            },
        ));
    }
    for v in &mut pi {
        *v /= total;
    }
    // The explicit normalization above makes the mass exactly 1; the guard
    // still vets for NaN/negative entries leaking out of the conversion.
    let report =
        guard_probability_vector(&mut pi, "mrgp steady state", DENSE_RENORMALIZATION_LIMIT)?;
    if report.tripped() {
        stats.guard_trips += 1;
    }
    Ok(SteadyState { probabilities: pi })
}

/// The embedded-chain row and conversion factors of marking `k`, which
/// enables no deterministic transition: an exponential race, with
/// regeneration at the first firing. Zero-rate arcs (marking-dependent rates
/// evaluating to 0) cannot win the race and contribute neither to the total
/// nor to the row.
fn race_row(state: &nvp_petri::reach::TangibleState, k: usize) -> (SparseRow, SparseRow) {
    let live = || state.exponential.iter().filter(|a| a.value > 0.0);
    let total: f64 = live().map(|a| a.value).sum();
    let row = live()
        .flat_map(|arc| {
            arc.targets
                .entries()
                .iter()
                .map(move |&(to, p)| (to, arc.value / total * p))
        })
        .collect();
    (
        SparseRow::compact(row),
        SparseRow::compact(vec![(k, 1.0 / total)]),
    )
}

/// Solves the embedded-chain row of every marking in `markings` (each of
/// which enables a deterministic transition), returning the results in the
/// same order.
///
/// Every marking is one task of [`WorkerPool::run_indexed`], fanned out as
/// far as [`SolveOptions::jobs`] and the process-wide pool allow: the task
/// checks the budget, builds the marking's subordinated CTMC, solves it and
/// assembles its row ([`solve_row`]), so each worker holds one chain at a
/// time. Chain sizes and series diagnostics are folded here in marking
/// order, and the caller assembles the embedded chain in marking order, so
/// the result is bit-identical however the tasks were scheduled. On the
/// first error the remaining unclaimed markings are skipped and the
/// lowest-index error is returned.
fn solve_deterministic_rows(
    graph: &TangibleReachGraph,
    markings: &[usize],
    options: &SolveOptions,
    stats: &mut MrgpStats,
) -> Result<Vec<RowAndConversion>> {
    if markings.is_empty() {
        return Ok(Vec::new()); // no row stage: `workers_used` stays 0
    }
    let run = WorkerPool::global().run_indexed(options.jobs, markings.len(), |i| {
        solve_row(graph, markings[i], &options.budget)
    });
    stats.workers_used = run.workers;
    if run.workers > 1 {
        stats.parallel_rows = markings.len();
    }
    if run.starved {
        stats.permit_starvations += 1;
    }
    let solved = run.results?;
    stats.subordinated_chains = solved.len();
    stats.dedup_classes = solved.len();
    for row in &solved {
        stats.max_subordinated_states = stats.max_subordinated_states.max(row.states);
        stats.total_subordinated_states += row.states;
        stats.max_truncation_steps = stats.max_truncation_steps.max(row.series.series_len);
    }
    Ok(solved.into_iter().map(|row| row.entries).collect())
}

/// A marking's embedded-chain row and conversion factors, both compacted
/// and indexed by marking.
type RowAndConversion = (SparseRow, SparseRow);

/// One deterministic marking's share of the row stage: its row and
/// conversion factors, the state count of its subordinated CTMC, and the
/// diagnostics of the uniformization series that solved it.
struct SolvedRow {
    entries: RowAndConversion,
    states: usize,
    series: TransientStats,
}

/// One marking's subordinated CTMC, built but not yet solved: the BFS
/// membership (global marking indices) and the chain over local indices.
struct SubordinatedChain {
    /// The deterministic transition enabled in the subordinating marking.
    det_transition: nvp_petri::net::TransitionId,
    /// Deterministic delay.
    tau: f64,
    /// Global marking index of each transient local state; `members[0]` is
    /// the subordinating marking.
    members: Vec<usize>,
    /// Global marking index of each absorbing local state (offset by
    /// `members.len()` in the chain).
    absorbing_members: Vec<usize>,
    /// The subordinated CTMC: transient states first, then absorbing.
    sub: Ctmc,
}

/// Builds, solves and assembles marking `k`'s row. `budget` is checked
/// before the build, and carries the `SubordinatedTransient` fault plan.
///
/// The build and the solve each run under `catch_unwind` ([`isolated`]), so
/// a panic in either fails this marking with [`MrgpError::WorkerPanicked`]
/// instead of unwinding through the fan-out's scoped workers.
fn solve_row(graph: &TangibleReachGraph, k: usize, budget: &SolveBudget) -> Result<SolvedRow> {
    budget.check("subordinated chain solve")?;
    // One span per marking, opened on the worker that runs it, so a trace
    // shows which worker handled which row.
    let mut span = nvp_obs::span("mrgp.row");
    span.record("marking", k);
    let chain = isolated("subordinated chain build", k, || {
        build_subordinated(graph, k)
    })?;
    let (at_tau, sojourn, series) = {
        let mut span = nvp_obs::span("mrgp.class");
        span.record("marking", k);
        span.record("states", chain.sub.n_states());
        isolated("subordinated class solve", k, || {
            #[cfg(feature = "fault-inject")]
            if solver_fault(budget, Site::SubordinatedTransient, 0)? {
                let (mut at_tau, sojourn, series) = solve_chain(&chain)?;
                at_tau[0] = f64::NAN;
                return Ok((at_tau, sojourn, series));
            }
            solve_chain(&chain)
        })?
    };
    Ok(SolvedRow {
        entries: assemble_row(graph, &chain, &at_tau, &sojourn),
        states: chain.sub.n_states(),
        series,
    })
}

/// Runs `f` under `catch_unwind`: a panic becomes
/// [`MrgpError::WorkerPanicked`] naming `site`, and a `panic_caught` event
/// naming `site` and `marking`.
///
/// `AssertUnwindSafe` is justified: a caught panic fails the solve, so
/// whatever `f` left half-built is discarded.
fn isolated<T>(site: &'static str, marking: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        nvp_obs::event_with("panic_caught", || {
            vec![("site", site.into()), ("marking", marking.into())]
        });
        Err(MrgpError::WorkerPanicked {
            site,
            payload: panic_payload(payload),
        })
    })
}

/// Where a marking sits in a subordinated chain under construction.
#[derive(Clone, Copy)]
enum Local {
    Unseen,
    /// Transient local state index.
    Transient(usize),
    /// Absorbing state index, counted from the first absorbing state.
    Absorbing(usize),
}

/// Builds the subordinated CTMC for marking `k`, which enables exactly one
/// deterministic transition: BFS over the markings reachable through
/// exponential firings while that transition stays enabled (markings that
/// disable it are absorbing — regeneration on entry), then the chain.
fn build_subordinated(graph: &TangibleReachGraph, k: usize) -> Result<SubordinatedChain> {
    let states = graph.states();
    let det = &states[k].deterministic[0];
    let det_transition = det.transition;
    let tau = det.value;

    // BFS over markings where `det_transition` remains enabled with the same
    // delay. `local` maps global marking index -> subordinated state: one
    // dense allocation per chain rather than hash maps that regrow on the
    // worker threads building the chains (see DESIGN.md, "Solver hot path").
    let mut local = vec![Local::Unseen; states.len()];
    let mut members: Vec<usize> = Vec::new(); // transient subordinated states
    let mut absorbing_members: Vec<usize> = Vec::new();
    local[k] = Local::Transient(0);
    members.push(k);
    let mut frontier = vec![k];
    while let Some(g) = frontier.pop() {
        for arc in &states[g].exponential {
            for &(to, p) in arc.targets.entries() {
                // Only targets with positive probability flux are reachable
                // through the subordinated chain. An arc whose
                // marking-dependent rate evaluates to 0 here (or a branch
                // with probability 0) must not pull `to` into the chain —
                // following it can reject perfectly consistent nets with a
                // spurious InconsistentDelay, or absorb mass that can never
                // flow.
                if arc.value * p <= 0.0 {
                    continue;
                }
                if !matches!(local[to], Local::Unseen) {
                    continue;
                }
                let to_det = states[to]
                    .deterministic
                    .iter()
                    .find(|d| d.transition == det_transition);
                match to_det {
                    Some(d) => {
                        if (d.value - tau).abs() > 1e-9 * tau.max(1.0) {
                            return Err(MrgpError::InconsistentDelay {
                                marking: to,
                                expected: tau,
                                actual: d.value,
                            });
                        }
                        local[to] = Local::Transient(members.len());
                        members.push(to);
                        frontier.push(to);
                    }
                    None => {
                        local[to] = Local::Absorbing(absorbing_members.len());
                        absorbing_members.push(to);
                    }
                }
            }
        }
    }

    // Subordinated CTMC: transient states first, then absorbing states.
    let n_trans = members.len();
    let mut sub = Ctmc::new(n_trans + absorbing_members.len());
    for (s_local, &s_global) in members.iter().enumerate() {
        for arc in &states[s_global].exponential {
            for &(to, p) in arc.targets.entries() {
                let rate = arc.value * p;
                if rate <= 0.0 {
                    continue;
                }
                let target_local = match local[to] {
                    Local::Transient(t) => t,
                    Local::Absorbing(a) => n_trans + a,
                    Local::Unseen => unreachable!("the BFS visited every positive-rate target"),
                };
                if target_local == s_local {
                    continue; // self-loop: no effect
                }
                sub.add_rate(s_local, target_local, rate)?;
            }
        }
    }
    Ok(SubordinatedChain {
        det_transition,
        tau,
        members,
        absorbing_members,
        sub,
    })
}

/// Solves `chain` from its subordinating marking: transient distribution and
/// accumulated sojourn at `tau`, over local state indices, in a single fused
/// uniformization pass, keeping the series diagnostics (the truncation depth
/// it used).
fn solve_chain(chain: &SubordinatedChain) -> Result<(Vec<f64>, Vec<f64>, TransientStats)> {
    let mut pi0 = vec![0.0; chain.sub.n_states()];
    pi0[0] = 1.0; // the period starts in the marking itself = local state 0
    Ok(chain
        .sub
        .transient_and_sojourn(&pi0, chain.tau, UNIFORMIZATION_EPS)?)
}

/// Maps a chain's transient distribution and accumulated sojourn at `tau`
/// to its marking's embedded-chain row and conversion factors.
fn assemble_row(
    graph: &TangibleReachGraph,
    chain: &SubordinatedChain,
    at_tau: &[f64],
    sojourn: &[f64],
) -> RowAndConversion {
    let states = graph.states();
    let n_trans = chain.members.len();
    // Embedded-chain row: absorbed mass regenerates in the absorbing
    // marking; surviving mass fires the deterministic transition from
    // whatever transient marking it reached.
    let mut row: Vec<(usize, f64)> = Vec::new();
    for (a_local, &a_global) in chain.absorbing_members.iter().enumerate() {
        let p = at_tau[n_trans + a_local];
        if p > 0.0 {
            row.push((a_global, p));
        }
    }
    for (s_local, &s_global) in chain.members.iter().enumerate() {
        let p_here = at_tau[s_local];
        if p_here <= 0.0 {
            continue;
        }
        let firing = states[s_global]
            .deterministic
            .iter()
            .find(|d| d.transition == chain.det_transition)
            .expect("membership implies the deterministic transition is enabled");
        for &(to, p) in firing.targets.entries() {
            row.push((to, p_here * p));
        }
    }
    // Conversion factors: expected time in each *transient* marking before
    // regeneration (absorbing states belong to the next period). Members
    // are distinct markings, so no column repeats.
    let conv: Vec<(usize, f64)> = chain
        .members
        .iter()
        .enumerate()
        .filter_map(|(s_local, &s_global)| {
            let t = sojourn[s_local];
            (t > 0.0).then_some((s_global, t))
        })
        .collect();
    (SparseRow::compact(row), SparseRow::compact(conv))
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "fault-inject")]
    use nvp_numerics::fault::{FaultMode, FaultPlan};
    use nvp_petri::expr::Expr;
    use nvp_petri::net::{NetBuilder, PetriNet, TransitionKind};
    use nvp_petri::reach::explore;

    fn solve(net: &PetriNet) -> SteadyState {
        let graph = explore(net, 10_000).unwrap();
        steady_state(&graph).unwrap()
    }

    fn marking_index(graph: &TangibleReachGraph, tokens: Vec<u32>) -> usize {
        graph
            .index_of(&nvp_petri::marking::Marking::new(tokens))
            .unwrap()
    }

    /// Exponential-only net must agree with the closed-form CTMC solution:
    /// an up/down machine with failure rate 0.2 and repair rate 1 is up
    /// 1/1.2 of the time.
    #[test]
    fn ctmc_special_case_updown() {
        let mut b = NetBuilder::new("updown");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(0.2))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("repair", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let (sol, stats) = steady_state_with_stats(&graph).unwrap();
        let pi = sol.probabilities();
        assert!((pi[marking_index(&graph, vec![1, 0])] - 1.0 / 1.2).abs() < 1e-13);
        assert!((pi[marking_index(&graph, vec![0, 1])] - 0.2 / 1.2).abs() < 1e-13);
        assert_eq!(stats.method, SolveMethod::Mrgp);
    }

    /// A birth-death chain over 0..=5 tokens with birth rate b and death
    /// rate d: pi[k] ∝ (b/d)^k.
    #[test]
    fn ctmc_special_case_birth_death() {
        let (birth, death, cap) = (1.0, 2.0, 5u32);
        let mut b = NetBuilder::new("birthdeath");
        let k = b.place("K", 0);
        let free = b.place("Free", cap);
        b.transition("birth", TransitionKind::exponential_rate(birth))
            .unwrap()
            .input(free, 1)
            .output(k, 1);
        b.transition("death", TransitionKind::exponential_rate(death))
            .unwrap()
            .input(k, 1)
            .output(free, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let rho: f64 = birth / death;
        let norm: f64 = (0..=cap).map(|j| rho.powi(j as i32)).sum();
        for j in 0..=cap {
            let p = sol.probabilities()[marking_index(&graph, vec![j, cap - j])];
            let expected = rho.powi(j as i32) / norm;
            assert!(
                (p - expected).abs() < 1e-12,
                "{j} tokens: {p} vs {expected}"
            );
        }
    }

    /// An absorbing marking gets all the mass. (A marking that enables
    /// nothing is rejected as dead, so a self-loop keeps Down live.)
    #[test]
    fn ctmc_special_case_absorbing_marking() {
        let mut b = NetBuilder::new("absorbing");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("stay", TransitionKind::exponential_rate(3.0))
            .unwrap()
            .input(down, 1)
            .output(down, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let pi = sol.probabilities();
        assert!(
            pi[marking_index(&graph, vec![1, 0])].abs() < 1e-12,
            "{pi:?}"
        );
        assert!((pi[marking_index(&graph, vec![0, 1])] - 1.0).abs() < 1e-12);
    }

    /// State 0 leaves via the race between Exp(lambda) and a deterministic
    /// clock tau (both lead to state 1); state 1 returns at rate mu.
    ///
    /// Expected period in state 0: E[min(Exp(lambda), tau)]
    ///   = (1 - e^{-lambda tau}) / lambda.
    #[test]
    fn deterministic_race_two_states() {
        let (lambda, mu, tau) = (0.3, 2.0, 1.5);
        let mut b = NetBuilder::new("race");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("exp_leave", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("det_leave", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("back", TransitionKind::exponential_rate(mu))
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let t0 = (1.0 - (-lambda * tau).exp()) / lambda;
        let t1 = 1.0 / mu;
        let a_idx = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![1, 0]))
            .unwrap();
        let expected = t0 / (t0 + t1);
        assert!(
            (sol.probabilities()[a_idx] - expected).abs() < 1e-9,
            "pi = {:?}, expected pi[A] = {expected}",
            sol.probabilities()
        );
    }

    /// Three-state maintenance model exercising both absorption (failure
    /// disables the clock) and deterministic firing into a third state.
    ///
    /// Up --Exp(lambda)--> Down --Exp(mu)--> Up
    /// Up --Det(tau)--> Maint --Exp(delta)--> Up
    ///
    /// With q = 1 - e^{-lambda tau}:
    ///   pi(Up) ∝ q/lambda, pi(Down) ∝ q/mu, pi(Maint) ∝ (1-q)/delta.
    #[test]
    fn maintenance_model_closed_form() {
        let (lambda, mu, delta, tau) = (0.05, 0.8, 2.5, 10.0);
        let mut b = NetBuilder::new("maintenance");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        let maint = b.place("Maint", 0);
        b.transition("fail", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("clock", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(up, 1)
            .output(maint, 1);
        b.transition("repair", TransitionKind::exponential_rate(mu))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        b.transition("finish", TransitionKind::exponential_rate(delta))
            .unwrap()
            .input(maint, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let q = 1.0 - (-lambda * tau).exp();
        let w_up = q / lambda;
        let w_down = q / mu;
        let w_maint = (1.0 - q) / delta;
        let total = w_up + w_down + w_maint;
        let m = |v: Vec<u32>| {
            graph
                .index_of(&nvp_petri::marking::Marking::new(v))
                .unwrap()
        };
        let pi = sol.probabilities();
        assert!((pi[m(vec![1, 0, 0])] - w_up / total).abs() < 1e-9);
        assert!((pi[m(vec![0, 1, 0])] - w_down / total).abs() < 1e-9);
        assert!((pi[m(vec![0, 0, 1])] - w_maint / total).abs() < 1e-9);
    }

    /// A deterministic clock that is enabled in every marking (like the
    /// paper's rejuvenation clock): no absorption ever happens; the clock
    /// fires from whichever marking the subordinated chain reached.
    ///
    /// Model: tokens move A -> B at rate lambda; the clock (enabled always)
    /// resets B back to A every tau. This is an M/D-reset system; validated
    /// against renewal-reward quantities computed from first principles:
    /// within a period of length tau starting in A,
    ///   time in A = (1 - e^{-lambda tau}) / lambda, remainder in B,
    /// and every period starts in A again (the reset restores the token).
    #[test]
    fn always_enabled_clock() {
        let (lambda, tau) = (0.7, 2.0);
        let mut b = NetBuilder::new("reset");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        let clk = b.place("Clk", 1);
        b.transition("drift", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        // Clock: consumes and reproduces its token every tau, and flushes
        // any token in B back to A (marking-dependent multiplicity).
        b.transition("reset", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(clk, 1)
            .output(clk, 1)
            .input_expr(c, Expr::parse("#B").unwrap())
            .output_expr(a, Expr::parse("#B").unwrap());
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let time_in_a = (1.0 - (-lambda * tau).exp()) / lambda;
        let expected_a = time_in_a / tau;
        let a_idx = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![1, 0, 1]))
            .unwrap();
        assert!(
            (sol.probabilities()[a_idx] - expected_a).abs() < 1e-9,
            "pi = {:?}, expected pi[A] = {expected_a}",
            sol.probabilities()
        );
    }

    /// Serializes tests that exercise the process-global [`WorkerPool`], so
    /// permit availability (and thus `workers_used`) is deterministic.
    static POOL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        POOL_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `options` with a plan armed on its budget that fails every chain
    /// solve with `mode`.
    #[cfg(feature = "fault-inject")]
    fn with_fault(options: &SolveOptions, mode: FaultMode) -> SolveOptions {
        let plan = FaultPlan::new(Site::SubordinatedTransient, mode).arm();
        SolveOptions {
            budget: options.budget.clone().with_faults(plan),
            ..options.clone()
        }
    }

    /// A net whose every tangible marking enables the always-on reset clock
    /// (like the paper's rejuvenation clock): `tokens` drift A → B one at a
    /// time, the clock flushes B back to A every `tau`. All `tokens + 1`
    /// tangible markings are deterministic markings, so the row stage has
    /// real fan-out to exercise.
    fn drift_reset_net(tokens: u32) -> PetriNet {
        let mut b = NetBuilder::new("driftreset");
        let a = b.place("A", tokens);
        let c = b.place("B", 0);
        let clk = b.place("Clk", 1);
        b.transition(
            "drift",
            TransitionKind::exponential(Expr::parse("0.7 * #A").unwrap()),
        )
        .unwrap()
        .input(a, 1)
        .output(c, 1);
        b.transition("reset", TransitionKind::deterministic_delay(2.0))
            .unwrap()
            .input(clk, 1)
            .output(clk, 1)
            .input_expr(c, Expr::parse("#B").unwrap())
            .output_expr(a, Expr::parse("#B").unwrap());
        b.build().unwrap()
    }

    /// A panic injected into a chain solve on the worker threads must
    /// surface as a typed error naming the class-solve site, while the
    /// process (and subsequent solves) stay healthy.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panic_in_a_parallel_row_solve_is_isolated() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(4));
        let net = drift_reset_net(5);
        let graph = explore(&net, 1000).unwrap();
        let opts = SolveOptions {
            jobs: Jobs::Fixed(4),
            ..SolveOptions::default()
        };
        match steady_state_with_options(&graph, &with_fault(&opts, FaultMode::Panic)) {
            Err(MrgpError::WorkerPanicked { site, .. }) => {
                assert_eq!(site, "subordinated class solve");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // Without the plan, the same options solve cleanly: the panic was
        // contained to the row solves, not the process.
        let (sol, _) = steady_state_with_options(&graph, &opts).unwrap();
        assert!((sol.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_serial() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(8));
        let net = drift_reset_net(5);
        let graph = explore(&net, 1000).unwrap();
        let serial_opts = SolveOptions {
            jobs: Jobs::Fixed(1),
            ..SolveOptions::default()
        };
        let (serial, serial_stats) = steady_state_with_options(&graph, &serial_opts).unwrap();
        assert_eq!(serial_stats.method, SolveMethod::Mrgp);
        assert_eq!(serial_stats.workers_used, 1);
        assert_eq!(serial_stats.parallel_rows, 0);
        assert_eq!(
            serial_stats.subordinated_chains, 6,
            "every marking is deterministic"
        );
        for jobs in [Jobs::Fixed(2), Jobs::Fixed(8), Jobs::Auto] {
            let opts = SolveOptions {
                jobs,
                ..SolveOptions::default()
            };
            let (parallel, stats) = steady_state_with_options(&graph, &opts).unwrap();
            let identical = serial
                .probabilities()
                .iter()
                .zip(parallel.probabilities())
                .all(|(s, p)| s.to_bits() == p.to_bits());
            assert!(
                identical,
                "jobs = {jobs}: {:?} != {:?}",
                parallel.probabilities(),
                serial.probabilities()
            );
            // The lock serializes pool users and capacity >= 8, so permits
            // were available and the row stage really ran multi-threaded.
            assert!(stats.workers_used >= 2, "jobs = {jobs}: {stats:?}");
            assert_eq!(stats.parallel_rows, 6, "jobs = {jobs}");
            // Stats folded in marking order reproduce the serial counters.
            assert_eq!(stats.subordinated_chains, serial_stats.subordinated_chains);
            assert_eq!(
                stats.total_subordinated_states,
                serial_stats.total_subordinated_states
            );
            assert_eq!(
                stats.max_subordinated_states,
                serial_stats.max_subordinated_states
            );
            assert_eq!(
                stats.max_truncation_steps,
                serial_stats.max_truncation_steps
            );
        }
    }

    #[test]
    fn parallel_rows_never_exceed_the_pool_budget() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(4);
        pool.reset_peak();
        let net = drift_reset_net(5);
        let graph = explore(&net, 1000).unwrap();
        let opts = SolveOptions {
            jobs: Jobs::Fixed(16), // asks for far more than the pool's budget
            ..SolveOptions::default()
        };
        let (_, stats) = steady_state_with_options(&graph, &opts).unwrap();
        assert!(stats.workers_used <= 4, "{stats:?}");
        assert_eq!(stats.permit_starvations, 1, "the over-ask was cut short");
        assert!(
            pool.peak() < pool.capacity(),
            "peak permit usage {} exceeds the cap {}",
            pool.peak(),
            pool.capacity()
        );
        pool.set_capacity(pool.capacity().max(8));
    }

    #[test]
    fn expired_budget_aborts_parallel_rows_cleanly() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(4));
        let net = drift_reset_net(5);
        let graph = explore(&net, 1000).unwrap();
        let opts = SolveOptions {
            jobs: Jobs::Fixed(4),
            budget: SolveBudget::with_wall_clock_ms(0),
            ..SolveOptions::default()
        };
        // The per-row budget checks run on the worker threads; the expired
        // deadline must surface as a typed error, not a panic or a hang.
        assert!(matches!(
            steady_state_with_options(&graph, &opts),
            Err(MrgpError::Numerics(
                nvp_numerics::NumericsError::BudgetExceeded { .. }
            ))
        ));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_on_worker_threads_abort_cleanly() {
        let _lock = pool_test_lock();
        let pool = WorkerPool::global();
        pool.set_capacity(pool.capacity().max(4));
        let net = drift_reset_net(5);
        let graph = explore(&net, 1000).unwrap();
        let opts = SolveOptions {
            jobs: Jobs::Fixed(4),
            ..SolveOptions::default()
        };
        let (healthy, _) = steady_state_with_options(&graph, &opts).unwrap();
        // The SubordinatedTransient site fires inside the row solves, i.e.
        // on the worker threads. A convergence fault cancels the remaining
        // rows and surfaces as a typed error...
        let faulted = with_fault(&opts, FaultMode::ConvergenceFailure);
        let err = steady_state_with_options(&graph, &faulted).unwrap_err();
        assert!(
            matches!(
                err,
                MrgpError::Numerics(nvp_numerics::NumericsError::NoConvergence { .. })
            ),
            "{err:?}"
        );
        // ...and a NaN-poisoned transient vector is caught downstream
        // instead of leaking into the steady state.
        let result = steady_state_with_options(&graph, &with_fault(&opts, FaultMode::NanPoison));
        assert!(result.is_err(), "poisoned solve succeeded: {result:?}");
        // Without a plan, the same options answer the healthy result.
        let (after, _) = steady_state_with_options(&graph, &opts).unwrap();
        assert_eq!(healthy, after);
    }

    #[test]
    fn dead_marking_is_reported() {
        let mut b = NetBuilder::new("dead");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("go", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        assert!(matches!(
            steady_state(&graph),
            Err(MrgpError::DeadMarking { .. })
        ));
    }

    #[test]
    fn two_deterministic_transitions_in_one_marking_rejected() {
        let mut b = NetBuilder::new("twodet");
        let a = b.place("A", 1);
        let c = b.place("B", 1);
        b.transition("d1", TransitionKind::deterministic_delay(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 1);
        b.transition("d2", TransitionKind::deterministic_delay(2.0))
            .unwrap()
            .input(c, 1)
            .output(c, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        assert!(matches!(
            steady_state(&graph),
            Err(MrgpError::MultipleDeterministic { .. })
        ));
    }

    #[test]
    fn multiple_recurrent_classes_are_diagnosed() {
        // A token branches into one of two self-sustaining loops: the
        // stationary law depends on which branch was taken.
        let mut b = NetBuilder::new("bistable");
        let a = b.place("A", 1);
        let l = b.place("L", 0);
        let r = b.place("R", 0);
        b.transition("goL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(l, 1);
        b.transition("goR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(r, 1);
        b.transition("spinL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(l, 1)
            .output(l, 1);
        b.transition("spinR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(r, 1)
            .output(r, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        assert!(matches!(
            steady_state(&graph),
            Err(MrgpError::MultipleRecurrentClasses { count: 2 })
        ));
    }

    #[test]
    fn marking_dependent_delay_change_is_rejected() {
        // The clock stays enabled while an exponential toggles place B,
        // changing the deterministic delay 5 + #B mid-enabling — ambiguous
        // enabling memory, reported as InconsistentDelay.
        let mut b = NetBuilder::new("baddelay");
        let clk = b.place("Clk", 1);
        let pb = b.place("B", 0);
        b.transition(
            "tick",
            TransitionKind::deterministic(Expr::parse("5 + #B").unwrap()),
        )
        .unwrap()
        .input(clk, 1)
        .output(clk, 1);
        b.transition("up", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .output(pb, 1)
            .inhibitor(pb, 1);
        b.transition("down", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(pb, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        assert!(matches!(
            steady_state(&graph),
            Err(MrgpError::InconsistentDelay { .. })
        ));
    }

    #[test]
    fn single_tangible_marking_is_certain() {
        let mut b = NetBuilder::new("spin");
        let a = b.place("A", 1);
        b.transition("spin", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let sol = solve(&net);
        assert_eq!(sol.probabilities(), &[1.0]);
    }

    #[test]
    fn expected_reward_weights_probabilities() {
        let mut b = NetBuilder::new("r");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("repair", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let rewards = graph.reward_vector(|m| f64::from(m.tokens(0)));
        assert!((sol.expected_reward(&rewards) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reward vector length mismatch")]
    fn expected_reward_length_mismatch_panics() {
        let s = SteadyState {
            probabilities: vec![0.5, 0.5],
        };
        let _ = s.expected_reward(&[1.0]);
    }

    #[test]
    fn from_occupancy_validates_and_renormalizes() {
        // A slightly off-mass, slightly negative Monte Carlo estimate is
        // repaired...
        let s = SteadyState::from_occupancy(vec![0.6, 0.3995, -1e-12]).unwrap();
        assert!((s.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-15);
        // ...while NaN and badly skewed mass are rejected.
        assert!(SteadyState::from_occupancy(vec![f64::NAN, 1.0]).is_err());
        assert!(SteadyState::from_occupancy(vec![0.3, 0.3]).is_err());
        assert!(SteadyState::from_occupancy(vec![]).is_err());
    }

    #[test]
    fn from_exact_preserves_bits_and_rejects_damage() {
        // A real solve never sums to exactly 1.0; from_exact must keep the
        // stored bits untouched instead of renormalizing them.
        let stored = vec![0.6, 0.4 - 1e-13, 1e-13];
        let s = SteadyState::from_exact(stored.clone()).unwrap();
        for (a, b) in s.probabilities().iter().zip(stored.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Damage that cannot have come from a successful solve is rejected.
        assert!(SteadyState::from_exact(vec![]).is_err());
        assert!(SteadyState::from_exact(vec![f64::NAN, 1.0]).is_err());
        assert!(SteadyState::from_exact(vec![1.2, -0.2]).is_err());
        assert!(SteadyState::from_exact(vec![0.3, 0.3]).is_err());
    }

    #[test]
    fn forced_backend_matches_auto_solution() {
        // The maintenance model solved on the forced iterative backend must
        // agree with the (auto) dense solution within the relaxed tolerance.
        let (lambda, mu, delta, tau) = (0.05, 0.8, 2.5, 10.0);
        let mut b = NetBuilder::new("maintforced");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        let maint = b.place("Maint", 0);
        b.transition("fail", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("clock", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(up, 1)
            .output(maint, 1);
        b.transition("repair", TransitionKind::exponential_rate(mu))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        b.transition("finish", TransitionKind::exponential_rate(delta))
            .unwrap()
            .input(maint, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let (auto, auto_stats) = steady_state_with_stats(&graph).unwrap();
        let opts = SolveOptions {
            backend: Some(StationaryBackend::IterativePower),
            tolerance: 1e-12,
            ..SolveOptions::default()
        };
        let (forced, forced_stats) = steady_state_with_options(&graph, &opts).unwrap();
        assert_eq!(auto_stats.backend, StationaryBackend::Dense);
        assert_eq!(forced_stats.backend, StationaryBackend::IterativePower);
        for (a, b) in auto.probabilities().iter().zip(forced.probabilities()) {
            assert!((a - b).abs() < 1e-8, "{auto:?} vs {forced:?}");
        }
    }

    #[test]
    fn expired_budget_stops_the_solve() {
        let mut b = NetBuilder::new("budget");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(0.1))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("clock", TransitionKind::deterministic_delay(2.0))
            .unwrap()
            .input(up, 1)
            .output(up, 1);
        b.transition("repair", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let opts = SolveOptions {
            budget: SolveBudget::with_wall_clock_ms(0),
            ..SolveOptions::default()
        };
        assert!(matches!(
            steady_state_with_options(&graph, &opts),
            Err(MrgpError::Numerics(
                nvp_numerics::NumericsError::BudgetExceeded { .. }
            ))
        ));
    }

    /// Regression: a marking reachable only through a zero-rate exponential
    /// arc must not join a subordinated chain. `poison` carries the
    /// marking-dependent rate `#B` but is enabled (inhibitor on B) exactly
    /// when B is empty — so its rate is 0 whenever it could fire, and the
    /// marking it points at is physically unreachable. The old BFS followed
    /// the arc regardless of rate and rejected the net with a spurious
    /// `InconsistentDelay`, because `tick`'s delay `5 + 10·#B` differs in
    /// the phantom marking.
    #[test]
    fn zero_rate_arcs_do_not_join_subordinated_chain() {
        let mut b = NetBuilder::new("zerorate");
        let clk = b.place("Clk", 1);
        let pb = b.place("B", 0);
        b.transition(
            "tick",
            TransitionKind::deterministic(Expr::parse("5 + 10 * #B").unwrap()),
        )
        .unwrap()
        .input(clk, 1)
        .output(clk, 1);
        b.transition(
            "poison",
            TransitionKind::exponential(Expr::parse("#B").unwrap()),
        )
        .unwrap()
        .input(clk, 1)
        .output(clk, 1)
        .output(pb, 1)
        .inhibitor(pb, 1);
        b.transition("cure", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(clk, 1)
            .input(pb, 1);
        b.transition("reset", TransitionKind::exponential_rate(2.0))
            .unwrap()
            .output(clk, 1)
            .inhibitor(clk, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let (sol, stats) = steady_state_with_stats(&graph).unwrap();
        let m0 = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![1, 0]))
            .unwrap();
        // All stationary mass sits in (Clk=1, B=0), the only marking the
        // process can actually occupy.
        assert!(
            (sol.probabilities()[m0] - 1.0).abs() < 1e-12,
            "pi = {:?}",
            sol.probabilities()
        );
        // The subordinated chain of m0 is {m0} alone (1 state, nothing
        // absorbing): the zero-rate arc contributed no members.
        assert_eq!(stats.method, SolveMethod::Mrgp);
        assert!(stats.subordinated_chains >= 1);
    }

    /// A marking whose only exponential arcs carry rate 0 enables nothing:
    /// the solver must diagnose it as dead rather than divide by a zero
    /// total race rate.
    #[test]
    fn all_zero_rate_marking_is_dead() {
        let mut b = NetBuilder::new("zerodead");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("go", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        // Enabled in (A=0, B=1) with rate #A = 0: an arc exists, but it can
        // never fire.
        b.transition(
            "stuck",
            TransitionKind::exponential(Expr::parse("#A").unwrap()),
        )
        .unwrap()
        .input(c, 1)
        .output(a, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        assert!(matches!(
            steady_state(&graph),
            Err(MrgpError::DeadMarking { .. })
        ));
    }

    /// The stats layer reports the work done: method, subordinated-chain
    /// shapes, uniformization depth, and backend.
    #[test]
    fn stats_describe_the_solve() {
        // Reuse the maintenance model: 3 markings, Up enables the clock.
        let (lambda, mu, delta, tau) = (0.05, 0.8, 2.5, 10.0);
        let mut b = NetBuilder::new("maintstats");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        let maint = b.place("Maint", 0);
        b.transition("fail", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("clock", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(up, 1)
            .output(maint, 1);
        b.transition("repair", TransitionKind::exponential_rate(mu))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        b.transition("finish", TransitionKind::exponential_rate(delta))
            .unwrap()
            .input(maint, 1)
            .output(up, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let (_, stats) = steady_state_with_stats(&graph).unwrap();
        assert_eq!(stats.method, SolveMethod::Mrgp);
        assert_eq!(stats.markings, 3);
        // Only Up enables the deterministic clock; its subordinated chain is
        // {Up} transient + {Down} absorbing = 2 states.
        assert_eq!(stats.subordinated_chains, 1);
        assert_eq!(stats.max_subordinated_states, 2);
        assert_eq!(stats.total_subordinated_states, 2);
        assert!(stats.max_truncation_steps > 0);
        assert_eq!(stats.backend, nvp_numerics::StationaryBackend::Dense);

        // An exponential-only net takes the same path with no row stage:
        // no subordinated work and no workers.
        let mut b = NetBuilder::new("ctmcstats");
        let u = b.place("Up", 1);
        let d = b.place("Down", 0);
        b.transition("f", TransitionKind::exponential_rate(0.2))
            .unwrap()
            .input(u, 1)
            .output(d, 1);
        b.transition("r", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(d, 1)
            .output(u, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let (_, stats) = steady_state_with_stats(&graph).unwrap();
        assert_eq!(stats.method, SolveMethod::Mrgp);
        assert_eq!(stats.subordinated_chains, 0);
        assert_eq!(stats.max_truncation_steps, 0);
        assert_eq!(stats.workers_used, 0);
        assert_eq!(stats.parallel_rows, 0);
        assert_eq!(stats.backend, nvp_numerics::StationaryBackend::Dense);
    }

    /// An M/D/1/K queue: Poisson arrivals, deterministic service.
    /// Validated against an independently computed embedded-chain solution
    /// (Tijms, "A First Course in Stochastic Models", §9.6 approach).
    #[test]
    fn md1k_queue_blocking_probability() {
        let (lambda, d, k) = (0.8, 1.0, 4u32);
        let mut b = NetBuilder::new("md1k");
        let queue = b.place("Q", 0);
        let free = b.place("Free", k);
        b.transition("arrive", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(free, 1)
            .output(queue, 1);
        b.transition("serve", TransitionKind::deterministic_delay(d))
            .unwrap()
            .input(queue, 1)
            .output(free, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let pi = sol.probabilities();
        assert_eq!(pi.len(), (k + 1) as usize);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Sanity shape: utilization rho = 0.8 < 1, so the empty state has
        // sizable mass and mass decreases towards the full state... not
        // strictly monotone for M/D/1/K, but the full state should hold
        // less mass than the empty one at rho < 1.
        let empty = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![0, k]))
            .unwrap();
        let full = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![k, 0]))
            .unwrap();
        assert!(pi[empty] > pi[full]);
    }

    /// A panic injected into a subordinated transient solve must surface as
    /// a typed `WorkerPanicked` error — not unwind through the row stage.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_row_panic_becomes_a_typed_error() {
        let mut b = NetBuilder::new("race");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("exp_leave", TransitionKind::exponential_rate(0.3))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("det_leave", TransitionKind::deterministic_delay(1.5))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("back", TransitionKind::exponential_rate(2.0))
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();

        for jobs in [Jobs::Fixed(1), Jobs::Auto] {
            let options = with_fault(
                &SolveOptions {
                    jobs,
                    ..SolveOptions::default()
                },
                FaultMode::Panic,
            );
            match steady_state_with_options(&graph, &options) {
                Err(MrgpError::WorkerPanicked { site, payload }) => {
                    // The panic fires inside the chain solve, so it is
                    // caught at the solve's boundary, not the build's.
                    assert_eq!(site, "subordinated class solve");
                    assert!(payload.contains("injected panic"), "payload: {payload}");
                }
                other => panic!("expected WorkerPanicked under {jobs:?}, got {other:?}"),
            }
        }
    }
}
