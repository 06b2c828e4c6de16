//! Dependability extensions beyond the paper's steady-state analysis.
//!
//! The paper evaluates only the stationary expected reliability (equation 1).
//! Two natural companion questions are answered here for the
//! exponential-only models (the four-version system, or any configuration
//! with rejuvenation disabled):
//!
//! * [`transient_reliability`] — the expected output reliability `R(t)` at
//!   finite mission times, starting from the all-healthy state. `R(0)` is
//!   the all-healthy reward and `R(t)` approaches the steady-state value as
//!   `t → ∞`.
//! * [`mean_time_to_quorum_loss`] — the expected time until the voter first
//!   cannot assemble a quorum (more than `n − threshold` modules down),
//!   i.e. the first moment output becomes impossible rather than merely
//!   unreliable.
//!
//! Rejuvenating configurations contain a deterministic clock, so their
//! transient behaviour is estimated with the simulator instead
//! (`nvp-sim::firstpassage`); these functions reject such configurations
//! with [`CoreError::UnsupportedConfiguration`].
//!
//! Each analysis runs on a shared [`AnalysisEngine`], so the model build
//! and exploration (served from the engine's chain cache) are not repeated
//! across calls.

use crate::analysis::SolverBackend;
use crate::engine::AnalysisEngine;
use crate::params::SystemParams;
use crate::reliability::{ReliabilityModel, ReliabilitySource};
use crate::reward::{reward_vector, ModulePlaces, RewardPolicy};
use crate::{CoreError, Result};
use nvp_numerics::absorb::absorption;
use nvp_numerics::ctmc::Ctmc;
use nvp_petri::reach::TangibleReachGraph;

/// Truncation accuracy of the uniformization series.
const TRANSIENT_EPS: f64 = 1e-12;

/// Builds the CTMC of an exponential-only model graph.
///
/// # Errors
///
/// [`CoreError::UnsupportedConfiguration`] if any marking enables a
/// deterministic transition.
fn exponential_ctmc(graph: &TangibleReachGraph) -> Result<Ctmc> {
    let n = graph.tangible_count();
    let mut ctmc = Ctmc::new(n);
    for (from, state) in graph.states().iter().enumerate() {
        if !state.deterministic.is_empty() {
            return Err(CoreError::UnsupportedConfiguration {
                what: "transient analysis requires an exponential-only model \
                       (disable rejuvenation or use the simulator)"
                    .into(),
            });
        }
        for arc in &state.exponential {
            for &(to, p) in arc.targets.entries() {
                if to != from && arc.value * p > 0.0 {
                    ctmc.add_rate(from, to, arc.value * p)?;
                }
            }
        }
    }
    Ok(ctmc)
}

/// Initial distribution over tangible markings (resolving a vanishing
/// initial marking).
fn initial_distribution(graph: &TangibleReachGraph) -> Vec<f64> {
    let mut pi0 = vec![0.0; graph.tangible_count()];
    for &(idx, p) in graph.initial_distribution().entries() {
        pi0[idx] = p;
    }
    pi0
}

/// Expected output reliability at each mission time in `times`, starting
/// from the initial (all-healthy) marking.
///
/// # Errors
///
/// * [`CoreError::UnsupportedConfiguration`] for rejuvenating
///   configurations (deterministic clock present).
/// * Parameter-validation, exploration and numerics errors.
///
/// # Example
///
/// ```
/// use nvp_core::dependability::transient_reliability;
/// use nvp_core::engine::AnalysisEngine;
/// use nvp_core::params::SystemParams;
/// use nvp_core::reward::RewardPolicy;
///
/// # fn main() -> Result<(), nvp_core::CoreError> {
/// let engine = AnalysisEngine::new();
/// let params = SystemParams::paper_four_version();
/// let curve =
///     transient_reliability(&engine, &params, RewardPolicy::FailedOnly, &[0.0, 3600.0])?;
/// assert!(curve[0].1 > curve[1].1, "reliability degrades from fresh start");
/// # Ok(())
/// # }
/// ```
pub fn transient_reliability(
    engine: &AnalysisEngine,
    params: &SystemParams,
    policy: RewardPolicy,
    times: &[f64],
) -> Result<Vec<(f64, f64)>> {
    let chain = engine.chain(params, SolverBackend::Auto)?;
    let ctmc = exponential_ctmc(&chain.graph)?;
    let reliability = ReliabilityModel::for_params(params, ReliabilitySource::Auto)?;
    let rewards = reward_vector(&chain.graph, &chain.net, params, &reliability, policy)?;
    let pi0 = initial_distribution(&chain.graph);
    times
        .iter()
        .map(|&t| {
            if !t.is_finite() || t < 0.0 {
                return Err(CoreError::InvalidParameter {
                    what: "mission time",
                    constraint: format!("must be non-negative and finite, got {t}"),
                });
            }
            let (pi, _, _) = ctmc.transient_and_sojourn(&pi0, t, TRANSIENT_EPS)?;
            Ok((t, nvp_numerics::ctmc::expected_reward(&pi, &rewards)?))
        })
        .collect()
}

/// The expected fraction of time the output is reliable over a mission
/// `[0, t]` (interval reliability): `(1/t) ∫₀ᵗ E[R(s)] ds`.
///
/// # Errors
///
/// Same conditions as [`transient_reliability`], plus `t` must be positive.
pub fn interval_reliability(
    engine: &AnalysisEngine,
    params: &SystemParams,
    policy: RewardPolicy,
    t: f64,
) -> Result<f64> {
    if !t.is_finite() || t <= 0.0 {
        return Err(CoreError::InvalidParameter {
            what: "mission time",
            constraint: format!("must be positive and finite, got {t}"),
        });
    }
    let chain = engine.chain(params, SolverBackend::Auto)?;
    let ctmc = exponential_ctmc(&chain.graph)?;
    let reliability = ReliabilityModel::for_params(params, ReliabilitySource::Auto)?;
    let rewards = reward_vector(&chain.graph, &chain.net, params, &reliability, policy)?;
    let pi0 = initial_distribution(&chain.graph);
    let (_, sojourn, _) = ctmc.transient_and_sojourn(&pi0, t, TRANSIENT_EPS)?;
    Ok(nvp_numerics::ctmc::expected_reward(&sojourn, &rewards)? / t)
}

/// Mean time until the voter first loses its quorum: the expected hitting
/// time of the marking set with fewer than `voting_threshold()` operational
/// modules, starting all-healthy.
///
/// # Errors
///
/// Same conditions as [`transient_reliability`]; additionally reports
/// `f64::INFINITY` cleanly inside the `Ok` value when quorum loss is
/// unreachable.
pub fn mean_time_to_quorum_loss(engine: &AnalysisEngine, params: &SystemParams) -> Result<f64> {
    let chain = engine.chain(params, SolverBackend::Auto)?;
    let ctmc = exponential_ctmc(&chain.graph)?;
    let places = ModulePlaces::locate(&chain.net)?;
    let threshold = params.voting_threshold();
    let targets: Vec<usize> = chain
        .graph
        .markings()
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            let operational = m.tokens(places.healthy) + m.tokens(places.compromised);
            operational < threshold
        })
        .map(|(i, _)| i)
        .collect();
    if targets.is_empty() {
        return Ok(f64::INFINITY);
    }
    let result = absorption(&ctmc, &targets)?;
    let pi0 = initial_distribution(&chain.graph);
    Ok(pi0
        .iter()
        .zip(&result.expected_time)
        .map(|(p, t)| p * t)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverBackend;

    #[test]
    fn transient_starts_at_fresh_reward_and_converges() {
        let params = SystemParams::paper_four_version();
        let curve = transient_reliability(
            &AnalysisEngine::new(),
            &params,
            RewardPolicy::FailedOnly,
            &[0.0, 600.0, 3600.0, 50_000.0, 500_000.0],
        )
        .unwrap();
        // At t = 0 the system is all-healthy: R = R_{4,0,0} = 0.95.
        assert!((curve[0].1 - 0.95).abs() < 1e-9);
        // Degradation towards the steady state. (Not strictly monotone at
        // very small t: brief visits to k = 1 states carry a slightly
        // *higher* printed reward than the all-healthy state, producing a
        // ~4e-5 bump within the first minutes; allow for it.)
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-4, "{curve:?}");
        }
        let steady = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        assert!(
            (curve.last().unwrap().1 - steady).abs() < 1e-4,
            "long-run transient {} vs steady state {steady}",
            curve.last().unwrap().1
        );
    }

    #[test]
    fn transient_rejects_rejuvenating_configuration() {
        let params = SystemParams::paper_six_version();
        assert!(matches!(
            transient_reliability(
                &AnalysisEngine::new(),
                &params,
                RewardPolicy::FailedOnly,
                &[10.0]
            ),
            Err(CoreError::UnsupportedConfiguration { .. })
        ));
    }

    #[test]
    fn transient_rejects_negative_time() {
        let params = SystemParams::paper_four_version();
        assert!(transient_reliability(
            &AnalysisEngine::new(),
            &params,
            RewardPolicy::FailedOnly,
            &[-1.0]
        )
        .is_err());
    }

    #[test]
    fn interval_reliability_between_extremes() {
        let params = SystemParams::paper_four_version();
        let t = 100_000.0;
        let interval =
            interval_reliability(&AnalysisEngine::new(), &params, RewardPolicy::FailedOnly, t)
                .unwrap();
        let steady = AnalysisEngine::new()
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        // The average over [0, t] must sit between the (better) fresh value
        // and the (worse) steady state.
        assert!(interval > steady, "interval {interval} vs steady {steady}");
        assert!(interval < 0.95, "interval {interval} below fresh 0.95");
        assert!(interval_reliability(
            &AnalysisEngine::new(),
            &params,
            RewardPolicy::FailedOnly,
            0.0
        )
        .is_err());
    }

    #[test]
    fn quorum_loss_time_is_long_for_fast_repair() {
        // With a 3 s repair against a 3000 s failure path, losing 2 of 4
        // modules simultaneously is rare: the hitting time must dwarf the
        // single-module failure time.
        let params = SystemParams::paper_four_version();
        let mttf = mean_time_to_quorum_loss(&AnalysisEngine::new(), &params).unwrap();
        assert!(mttf.is_finite());
        assert!(
            mttf > 1e6,
            "mean time to quorum loss {mttf} s should be ≫ single-module times"
        );
    }

    #[test]
    fn analyses_share_the_chain_cache() {
        let engine = AnalysisEngine::new();
        let params = SystemParams::paper_four_version();
        transient_reliability(&engine, &params, RewardPolicy::FailedOnly, &[10.0]).unwrap();
        interval_reliability(&engine, &params, RewardPolicy::FailedOnly, 100.0).unwrap();
        mean_time_to_quorum_loss(&engine, &params).unwrap();
        assert_eq!(
            engine.stats().cache_misses,
            1,
            "one exploration for all three"
        );
        assert_eq!(engine.stats().cache_hits, 2);
    }

    #[test]
    fn quorum_loss_reacts_to_repair_speed() {
        let fast = SystemParams::paper_four_version();
        let mut slow = fast.clone();
        slow.mean_time_to_repair = 3000.0;
        let t_fast = mean_time_to_quorum_loss(&AnalysisEngine::new(), &fast).unwrap();
        let t_slow = mean_time_to_quorum_loss(&AnalysisEngine::new(), &slow).unwrap();
        assert!(
            t_fast > 10.0 * t_slow,
            "fast repair {t_fast} should far exceed slow repair {t_slow}"
        );
    }
}
