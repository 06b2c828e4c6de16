//! Criterion bench for the §V-B headline computation (E[R_4v], E[R_6v]).
//!
//! Regenerates the paper's headline numbers and measures the analytic
//! pipeline's cost: net construction → reachability → steady state →
//! reward.

use criterion::{criterion_group, criterion_main, Criterion};
use nvp_core::analysis::SolverBackend;
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use std::hint::black_box;

fn bench_headline(c: &mut Criterion) {
    let four = SystemParams::paper_four_version();
    let six = SystemParams::paper_six_version();

    // Assert the reproduced values once, so a broken build cannot publish
    // timings of a wrong computation.
    let r4 = AnalysisEngine::new()
        .expected_reliability(&four, RewardPolicy::FailedOnly, SolverBackend::Auto)
        .unwrap();
    let r6 = AnalysisEngine::new()
        .expected_reliability(&six, RewardPolicy::FailedOnly, SolverBackend::Auto)
        .unwrap();
    assert!((r4 - 0.8223487).abs() < 1e-6, "E[R_4v] = {r4}");
    assert!((r6 - 0.93464665).abs() < 0.005, "E[R_6v] = {r6}");

    let mut group = c.benchmark_group("headline");
    group.bench_function("four_version_ctmc", |b| {
        b.iter(|| {
            AnalysisEngine::new()
                .expected_reliability(
                    black_box(&four),
                    RewardPolicy::FailedOnly,
                    SolverBackend::Auto,
                )
                .unwrap()
        })
    });
    group.bench_function("six_version_mrgp", |b| {
        b.iter(|| {
            AnalysisEngine::new()
                .expected_reliability(
                    black_box(&six),
                    RewardPolicy::FailedOnly,
                    SolverBackend::Auto,
                )
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_headline);
criterion_main!(benches);
