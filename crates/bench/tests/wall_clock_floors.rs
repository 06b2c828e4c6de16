//! Wall-clock floors for the two speedups the solver is built around:
//!
//! * **Structural dedup.** On a ring whose subordinated chains all share
//!   one structure, the dedup path must solve at least 1.5x faster than one
//!   chain solve per marking (serial, best of 5 repetitions), and to the
//!   same bits.
//! * **Parallel row stage.** The Figure 3 γ sweep with the whole worker
//!   pool must run at least 2x faster than with one worker on hosts with at
//!   least four cores, and produce the same curve. Smaller hosts only print
//!   the measured ratio.
//!
//! Both floors time real work, so this binary holds exactly one test:
//! nothing else in the process competes for cores while it measures.

use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_mrgp::{steady_state_with_options, MrgpStats, SolveOptions, SteadyState};
use nvp_numerics::{Jobs, WorkerPool};
use nvp_petri::net::{NetBuilder, PetriNet, TransitionKind};
use nvp_petri::reach::{explore, TangibleReachGraph};
use std::time::{Duration, Instant};

/// Wall-time repetitions per dedup measurement; the minimum is compared.
const REPS: usize = 5;

/// Ring size. Every one of the `RING_POSITIONS` markings owns a
/// structurally identical subordinated chain, so the dedup path solves one
/// class instead of `RING_POSITIONS` chains.
const RING_POSITIONS: usize = 48;

#[test]
fn dedup_and_parallel_speedups_clear_their_floors() {
    ring_dedup_floor();
    parallel_sweep_floor();
}

fn ring_dedup_floor() {
    let graph = explore(&ring_net(RING_POSITIONS, 1.0, 40.0), 100_000).unwrap();
    let (per_row, _, per_row_time) = best_solve(&graph, false);
    let (pooled, stats, pooled_time) = best_solve(&graph, true);
    assert!(
        stats.dedup_hits > 0,
        "ring produced no dedup hits: {stats:?}"
    );
    assert!(
        pooled
            .probabilities()
            .iter()
            .zip(per_row.probabilities())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "dedup solution is not bit-identical to the per-row path"
    );
    let speedup = per_row_time.as_secs_f64() / pooled_time.as_secs_f64();
    println!(
        "ring dedup: {} chains / {} classes, per-row {per_row_time:?}, \
         dedup {pooled_time:?}, speedup {speedup:.2}x",
        stats.subordinated_chains, stats.dedup_classes
    );
    assert!(
        speedup >= 1.5,
        "repeated-structure speedup {speedup:.2}x below the 1.5x floor"
    );
}

/// Solves `REPS` times serially and keeps the fastest wall time, with the
/// last solution and its stats (identical across repetitions).
fn best_solve(graph: &TangibleReachGraph, dedup: bool) -> (SteadyState, MrgpStats, Duration) {
    let options = SolveOptions {
        jobs: Jobs::Fixed(1),
        dedup,
        ..SolveOptions::default()
    };
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let solved = steady_state_with_options(graph, &options).unwrap();
        best = best.min(start.elapsed());
        last = Some(solved);
    }
    let (solution, stats) = last.unwrap();
    (solution, stats, best)
}

/// A ring of `positions` places with one circulating token hopping at a
/// uniform `rate`, plus a no-op deterministic clock enabled everywhere.
/// Every marking's subordinated chain is the same `positions`-state cycle.
fn ring_net(positions: usize, rate: f64, tau: f64) -> PetriNet {
    let mut b = NetBuilder::new("ring");
    let places: Vec<_> = (0..positions)
        .map(|i| b.place(format!("P{i}"), u32::from(i == 0)))
        .collect();
    let clk = b.place("Clk", 1);
    for i in 0..positions {
        b.transition(format!("hop{i}"), TransitionKind::exponential_rate(rate))
            .unwrap()
            .input(places[i], 1)
            .output(places[(i + 1) % positions], 1);
    }
    b.transition("clock", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(clk, 1)
        .output(clk, 1);
    b.build().unwrap()
}

fn parallel_sweep_floor() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let pool = WorkerPool::global();
    pool.set_capacity(pool.capacity().max(cores));
    let grid = linspace(200.0, 3000.0, 8);
    assert_eq!(
        fig3_sweep(Jobs::Fixed(1), &grid),
        fig3_sweep(Jobs::Auto, &grid),
        "worker count must not change the fig3 curve"
    );
    let serial = timed_sweeps(Jobs::Fixed(1), &grid);
    let parallel = timed_sweeps(Jobs::Auto, &grid);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "fig3 sweep: {cores} core(s), serial {serial:?}, parallel {parallel:?}, \
         speedup {speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x speedup on {cores} cores, measured {speedup:.2}x"
        );
    }
}

/// Three fig3 sweeps back to back, timed together.
fn timed_sweeps(jobs: Jobs, grid: &[f64]) -> Duration {
    let start = Instant::now();
    for _ in 0..3 {
        std::hint::black_box(fig3_sweep(jobs, grid));
    }
    start.elapsed()
}

/// One fig3 γ sweep with a fresh engine, so the chain cache never hides the
/// solve work between runs.
fn fig3_sweep(jobs: Jobs, grid: &[f64]) -> Vec<(f64, f64)> {
    AnalysisEngine::new()
        .with_jobs(jobs)
        .sweep_supervised(
            &SystemParams::paper_six_version(),
            ParamAxis::RejuvenationInterval,
            grid,
            RewardPolicy::FailedOnly,
            SolverBackend::Auto,
            &|_| {},
        )
        .unwrap()
}
