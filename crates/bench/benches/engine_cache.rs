//! Criterion bench of the chain cache: a reward-only sweep through a shared
//! [`AnalysisEngine`] versus the same sweep recomputing the chain at every
//! point.
//!
//! The alpha axis never enters the Petri net, so the cached sweep performs
//! exactly one model build + exploration + steady-state solve and then only
//! reward-vector dot products — the uncached variant repeats the chain
//! stage per point. The headline speedup (≥10× on the paper's six-version
//! model) is printed after the measurements.

use criterion::{criterion_group, criterion_main, Criterion};
use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use std::hint::black_box;
use std::time::Instant;

const POINTS: usize = 16;

/// The cached sweep: one engine shared across the grid.
fn sweep_cached(params: &SystemParams, grid: &[f64]) -> Vec<(f64, f64)> {
    AnalysisEngine::new()
        .sweep_supervised(
            params,
            ParamAxis::Alpha,
            grid,
            RewardPolicy::FailedOnly,
            SolverBackend::Auto,
            &|_| {},
        )
        .unwrap()
}

/// The uncached sweep: a fresh engine per point, so every point pays for
/// the full chain stage.
fn sweep_uncached(params: &SystemParams, grid: &[f64]) -> Vec<(f64, f64)> {
    grid.iter()
        .map(|&v| {
            let p = ParamAxis::Alpha.apply(params, v);
            let engine = AnalysisEngine::new();
            let r = engine
                .expected_reliability(&p, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            (v, r)
        })
        .collect()
}

fn bench_engine_cache(c: &mut Criterion) {
    let params = SystemParams::paper_six_version();
    let grid = linspace(0.05, 0.95, POINTS);

    // The two variants must agree exactly before their times mean anything.
    let cached = sweep_cached(&params, &grid);
    let uncached = sweep_uncached(&params, &grid);
    assert_eq!(cached, uncached, "cache must not change results");

    let mut group = c.benchmark_group("engine_cache");
    group.bench_function("alpha_sweep_16pt_cached", |b| {
        b.iter(|| black_box(sweep_cached(&params, &grid)))
    });
    group.bench_function("alpha_sweep_16pt_uncached", |b| {
        b.iter(|| black_box(sweep_uncached(&params, &grid)))
    });
    group.finish();

    // Headline ratio, measured directly so it lands in the bench log.
    let reps = 3;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(sweep_cached(&params, &grid));
    }
    let cached_time = t.elapsed() / reps;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(sweep_uncached(&params, &grid));
    }
    let uncached_time = t.elapsed() / reps;
    let speedup = uncached_time.as_secs_f64() / cached_time.as_secs_f64();
    println!(
        "engine_cache: {POINTS}-point reward-only sweep, cached {:.2} ms vs uncached {:.2} ms \
         => {speedup:.1}x speedup",
        cached_time.as_secs_f64() * 1e3,
        uncached_time.as_secs_f64() * 1e3,
    );
}

criterion_group!(benches, bench_engine_cache);
criterion_main!(benches);
