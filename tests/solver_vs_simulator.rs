//! Randomized end-to-end validation: for a family of randomly parameterized
//! DSPNs (a token ring with a deterministic redistribution clock), the MRGP
//! solver's stationary distribution must match the independent discrete-event
//! simulator's occupancy estimate.
//!
//! Nets are generated from fixed seeds so failures are reproducible; the
//! generator keeps the nets inside the solvable class (exactly one
//! deterministic transition, enabled in every tangible marking) and
//! irreducible (a rate cycle covering all places).

use nvp_perception::petri::expr::Expr;
use nvp_perception::petri::net::{NetBuilder, PetriNet, TransitionKind};
use nvp_perception::petri::reach::explore;
use nvp_perception::sim::dspn::{simulate_occupancy, SimOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random ring net: `n_places` module places with `tokens` tokens
/// circulating at random exponential rates, plus a deterministic clock that
/// periodically flushes one randomly chosen place into the next.
fn random_ring_net(seed: u64) -> PetriNet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_places = rng.gen_range(3..=5);
    let tokens = rng.gen_range(1..=3u32);
    let mut b = NetBuilder::new(format!("ring-{seed}"));
    let places: Vec<_> = (0..n_places)
        .map(|i| b.place(format!("P{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    let clock = b.place("Clk", 1);
    for i in 0..n_places {
        let rate = rng.gen_range(0.05..2.0);
        b.transition(format!("t{i}"), TransitionKind::exponential_rate(rate))
            .unwrap()
            .input(places[i], 1)
            .output(places[(i + 1) % n_places], 1);
    }
    // Deterministic flush: move everything from one random place to the
    // next; always enabled via the clock token.
    let victim = rng.gen_range(0..n_places);
    let period = rng.gen_range(1.0..12.0);
    let from = format!("P{victim}");
    b.transition("flush", TransitionKind::deterministic_delay(period))
        .unwrap()
        .input(clock, 1)
        .output(clock, 1)
        .input_expr(places[victim], Expr::parse(&format!("#{from}")).unwrap())
        .output_expr(
            places[(victim + 1) % n_places],
            Expr::parse(&format!("#{from}")).unwrap(),
        );
    b.build().unwrap()
}

#[test]
fn random_rings_agree_between_solver_and_simulator() {
    for seed in [1u64, 2, 3, 4, 5, 6] {
        let net = random_ring_net(seed);
        let graph = explore(&net, 10_000).unwrap();
        let solution = nvp_perception::mrgp::steady_state(&graph)
            .unwrap_or_else(|e| panic!("seed {seed}: solver failed: {e}"));
        let est = simulate_occupancy(
            &net,
            &graph,
            &SimOptions {
                horizon: 400_000.0,
                warmup: 1_000.0,
                seed: seed * 31 + 7,
                batches: 2,
            },
        )
        .unwrap();
        assert_eq!(est.unmatched, 0.0, "seed {seed}");
        let max_diff = est.max_abs_diff(solution.probabilities());
        assert!(
            max_diff < 0.02,
            "seed {seed}: solver and simulator disagree by {max_diff} \
             over {} markings",
            graph.tangible_count()
        );
    }
}

/// Fault-injected end-to-end resilience check on the paper's Fig. 2(a)
/// model: with every analytic solver entry point forced to fail, the
/// engine's Monte Carlo fallback must still produce the four-version
/// reliability, degraded but within its own reported confidence bound of
/// the healthy analytic answer.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_total_solver_failure_degrades_to_a_consistent_estimate() {
    use nvp_perception::core::analysis::SolverBackend;
    use nvp_perception::core::engine::{AnalysisEngine, DegradedMethod};
    use nvp_perception::core::params::SystemParams;
    use nvp_perception::core::reliability::ReliabilitySource;
    use nvp_perception::core::reward::RewardPolicy;
    use nvp_perception::numerics::fault::{FaultMode, FaultPlan, Site};
    use nvp_perception::sim::fallback::monte_carlo_hook;

    let params = SystemParams::paper_four_version();
    let healthy = AnalysisEngine::new()
        .analyze(
            &params,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Auto,
            SolverBackend::Auto,
        )
        .expect("healthy analysis");
    assert!(healthy.degraded.is_none());

    let engine = AnalysisEngine::new()
        .with_monte_carlo(monte_carlo_hook(SimOptions {
            horizon: 400_000.0,
            warmup: 4_000.0,
            seed: 99,
            batches: 20,
        }))
        .with_faults(FaultPlan::new(Site::Any, FaultMode::ConvergenceFailure).arm());
    let report = engine
        .analyze(
            &params,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Auto,
            SolverBackend::Auto,
        )
        .expect("degraded analysis");

    let degraded = report.degraded.as_ref().expect("degraded marker");
    assert_eq!(degraded.method, DegradedMethod::MonteCarlo);
    let hw = degraded.reliability_half_width;
    assert!(hw.is_finite() && hw > 0.0, "half-width {hw}");
    let diff = (report.expected_reliability - healthy.expected_reliability).abs();
    // Small slack on top of the 95% bound keeps the fixed seed robust.
    assert!(
        diff <= hw + 1e-3,
        "MC fallback {} vs analytic {} differs by {diff} > ±{hw}",
        report.expected_reliability,
        healthy.expected_reliability
    );
}

#[test]
fn random_rings_conserve_tokens() {
    for seed in [11u64, 12, 13] {
        let net = random_ring_net(seed);
        let graph = explore(&net, 10_000).unwrap();
        let expected: u64 = net.initial_marking().total();
        for m in graph.markings() {
            assert_eq!(m.total(), expected, "seed {seed}, marking {m}");
        }
        // The structural invariant analysis skips the marking-dependent
        // flush but the sub-net invariants must still verify on the full
        // reachable space.
        let report = nvp_perception::petri::invariants::place_invariants(&net);
        assert!(
            report.verified_on(graph.markings()),
            "seed {seed}: invariants violated"
        );
    }
}
