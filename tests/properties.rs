//! Property-based tests on the full analysis pipeline.
//!
//! Case counts are kept modest because every case runs a complete
//! reachability + steady-state solve; the properties target the invariants a
//! reliability analysis must never violate regardless of parameters.

use nvp_perception::core::analysis::SolverBackend;
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reliability::generic;
use nvp_perception::core::reliability::ReliabilitySource;
use nvp_perception::core::reward::RewardPolicy;
use nvp_perception::core::state::enumerate_states;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = SystemParams> {
    (
        0.0..=1.0f64,       // alpha
        0.0..=0.3f64,       // p
        0.2..=0.9f64,       // p_prime
        300.0..=5000.0f64,  // mttc
        1000.0..=8000.0f64, // mttf
        1.0..=30.0f64,      // mttr
        120.0..=2400.0f64,  // rejuvenation interval
        prop::bool::ANY,    // rejuvenation
    )
        .prop_map(
            |(alpha, p, p_prime, mttc, mttf, mttr, interval, rejuvenation)| {
                let builder = SystemParams::builder()
                    .n(if rejuvenation { 6 } else { 4 })
                    .rejuvenation(rejuvenation)
                    .alpha(alpha)
                    .p(p)
                    .p_prime(p_prime)
                    .mean_time_to_compromise(mttc)
                    .mean_time_to_failure(mttf)
                    .mean_time_to_repair(mttr)
                    .rejuvenation_interval(interval);
                builder
                    .build()
                    .expect("strategy generates valid parameters")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// E[R_sys] is a probability for any valid parameter set, under both
    /// reward policies.
    #[test]
    fn expected_reliability_is_a_probability(params in arb_params()) {
        for policy in [RewardPolicy::FailedOnly, RewardPolicy::AsWritten] {
            let r = AnalysisEngine::new().expected_reliability(&params, policy, SolverBackend::Auto).unwrap();
            prop_assert!((0.0..=1.0).contains(&r), "E[R] = {r} for {params:?}");
        }
    }

    /// Steady-state probabilities are a distribution and the reported
    /// expectation equals the probability-weighted reward sum.
    #[test]
    fn analysis_report_is_internally_consistent(params in arb_params()) {
        let report = AnalysisEngine::new().analyze(
            &params,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Auto,
            SolverBackend::Auto,
        ).unwrap();
        let total: f64 = report.states.iter().map(|s| s.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "probabilities sum to {total}");
        prop_assert!(report.states.iter().all(|s| s.probability >= -1e-12));
        let recomputed: f64 = report
            .states
            .iter()
            .map(|s| s.probability * s.reliability)
            .sum();
        prop_assert!((recomputed - report.expected_reliability).abs() < 1e-9);
    }

    /// Degrading any error probability can only lower (or keep) the
    /// expected reliability under the generic model.
    #[test]
    fn reliability_is_monotone_in_error_probabilities(
        params in arb_params(),
        bump in 0.01..=0.1f64,
    ) {
        let base = AnalysisEngine::new().analyze(
            &params,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Generic,
            SolverBackend::Auto,
        ).unwrap().expected_reliability;
        let mut worse = params.clone();
        worse.p = (worse.p + bump).min(1.0);
        worse.p_prime = (worse.p_prime + bump).min(1.0);
        let degraded = AnalysisEngine::new().analyze(
            &worse,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Generic,
            SolverBackend::Auto,
        ).unwrap().expected_reliability;
        prop_assert!(
            degraded <= base + 1e-12,
            "base {base} vs degraded {degraded}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generic reliability function is a probability over the whole
    /// state grid, for any parameter combination.
    #[test]
    fn generic_reliability_is_probability_on_grid(
        p in 0.0..=1.0f64,
        pp in 0.0..=1.0f64,
        a in 0.0..=1.0f64,
        n in 4u32..=9,
        t in 3u32..=6,
    ) {
        for s in enumerate_states(n) {
            let r = generic::reliability(s, t, p, pp, a);
            prop_assert!((0.0..=1.0).contains(&r), "R{s} = {r}");
        }
    }

    /// Error probability is monotone non-decreasing in each of p, p', α.
    #[test]
    fn generic_error_probability_is_monotone(
        p in 0.0..=0.9f64,
        pp in 0.0..=0.9f64,
        a in 0.0..=0.9f64,
        i in 0u32..=6,
        j in 0u32..=6,
    ) {
        let s = nvp_perception::core::state::SystemState::new(i, j, 0);
        let base = generic::error_probability(s, 4, p, pp, a);
        prop_assert!(generic::error_probability(s, 4, p + 0.1, pp, a) >= base - 1e-12);
        prop_assert!(generic::error_probability(s, 4, p, pp + 0.1, a) >= base - 1e-12);
        prop_assert!(generic::error_probability(s, 4, p, pp, a + 0.1) >= base - 1e-12);
    }
}
