//! Criterion bench measuring the parallel MRGP row stage on the Figure 3
//! gamma sweep: the same curve computed with a single worker and with the
//! full worker pool.
//!
//! Before timing, one pass validates the tentpole invariant (the curves are
//! bit-identical) and prints the measured serial/parallel speedup. On hosts
//! with at least four cores the speedup must reach 2x; on smaller hosts the
//! number is only recorded, since the pool degrades to the serial path.

use criterion::{criterion_group, criterion_main, Criterion};
use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::{Jobs, WorkerPool};
use std::hint::black_box;
use std::time::Instant;

/// One fig3-style sweep with a fresh engine, so the chain cache never hides
/// the solve work between iterations.
fn sweep(jobs: Jobs, grid: &[f64]) -> Vec<(f64, f64)> {
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

fn bench_parallel_mrgp(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let pool = WorkerPool::global();
    pool.set_capacity(pool.capacity().max(cores));
    let grid = linspace(200.0, 3000.0, 8);

    let serial = sweep(Jobs::Fixed(1), &grid);
    let parallel = sweep(Jobs::Auto, &grid);
    assert_eq!(
        serial, parallel,
        "worker count must not change the fig3 curve"
    );

    let reps = 3;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(sweep(Jobs::Fixed(1), &grid));
    }
    let serial_time = start.elapsed();
    let start = Instant::now();
    for _ in 0..reps {
        black_box(sweep(Jobs::Auto, &grid));
    }
    let parallel_time = start.elapsed();
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    println!(
        "parallel_mrgp: {cores} core(s), serial {serial_time:?}, \
         parallel {parallel_time:?}, speedup {speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x speedup on {cores} cores, measured {speedup:.2}x"
        );
    }

    let mut group = c.benchmark_group("parallel_mrgp");
    group.sample_size(10);
    group.bench_function("fig3_sweep/jobs=1", |b| {
        b.iter(|| black_box(sweep(Jobs::Fixed(1), &grid)))
    });
    group.bench_function("fig3_sweep/jobs=auto", |b| {
        b.iter(|| black_box(sweep(Jobs::Auto, &grid)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_mrgp
);
criterion_main!(benches);
