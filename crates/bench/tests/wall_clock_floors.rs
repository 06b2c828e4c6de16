//! Wall-clock floor for the parallel row stage: the Figure 3 γ sweep with
//! the whole worker pool must run at least 2x faster than with one worker
//! on hosts with at least four cores, and produce the same curve. Smaller
//! hosts only print the measured ratio.
//!
//! The floor times real work, so this binary holds exactly one test:
//! nothing else in the process competes for cores while it measures.

use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::{Jobs, WorkerPool};
use std::time::{Duration, Instant};

#[test]
fn parallel_sweep_speedup_clears_its_floor() {
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
