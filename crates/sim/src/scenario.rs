//! End-to-end scenario simulation: perception requests served along a
//! simulated fault/rejuvenation trajectory.
//!
//! This is the closest executable analogue of the deployed system the paper
//! models: the module population evolves according to the DSPN (faults,
//! failures, repairs, rejuvenation), and a stream of perception requests is
//! voted on with whatever modules are currently operational. The empirical
//! fraction of non-error requests estimates `E[R_sys]` and must agree with
//! the analytic pipeline — which the integration tests verify.

use crate::dspn::{DspnSimulator, SimOptions};
use crate::perception::{EnsembleModel, RequestStats};
use crate::stats::Estimate;
use crate::{Result, SimError};
use nvp_core::params::SystemParams;
use nvp_core::reward::{ModulePlaces, RewardPolicy};
use nvp_core::voting::VotingScheme;
use nvp_petri::marking::Marking;
use nvp_petri::net::PetriNet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds the marking-reward closure used to cross-validate the analytic
/// expected reliability by simulation: evaluates `R_{i,j,k}` (under
/// `policy`) on each marking of a model net built from `params`.
///
/// # Errors
///
/// Reliability-model resolution and place-lookup errors.
pub fn model_reward_fn(
    net: &PetriNet,
    params: &SystemParams,
    policy: RewardPolicy,
) -> Result<impl Fn(&Marking) -> f64> {
    let places = ModulePlaces::locate(net)?;
    let reliability = nvp_core::reliability::ReliabilityModel::for_params(
        params,
        nvp_core::reliability::ReliabilitySource::Auto,
    )?;
    let (p, pp, alpha) = (params.p, params.p_prime, params.alpha);
    Ok(move |m: &Marking| {
        places
            .system_state(m, policy)
            .and_then(|state| reliability.reliability(state, p, pp, alpha).ok())
            .unwrap_or(0.0)
    })
}

/// Result of an end-to-end scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Verdict tallies over all simulated requests.
    pub requests: RequestStats,
    /// Time-average of the analytic state reward along the same trajectory
    /// (a control quantity: converges to the same limit as
    /// `requests.reliability()`).
    pub time_average_reward: Estimate,
}

/// Options for [`run_scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOptions {
    /// DSPN simulation options (horizon, warm-up, seed, batches).
    pub sim: SimOptions,
    /// Perception-request arrival rate (requests per second of model time).
    pub request_rate: f64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            sim: SimOptions::default(),
            request_rate: 0.05,
        }
    }
}

/// Simulates the system of `params` end to end: the DSPN trajectory plus a
/// Poisson stream of perception requests voted with the params' BFT scheme.
///
/// Requests arriving while a marking has rejuvenating or failed modules see
/// those modules as absent. Under [`RewardPolicy::FailedOnly`] a request
/// arriving during rejuvenation is counted the way the calibrated reward
/// maps such markings (reward 0 — treated as a skipped, *inconclusive*
/// output, which is reliable per the paper's definition; the distinction
/// from the analytic reward is measured by the control quantity).
///
/// # Errors
///
/// Model-construction, option-validation and simulation errors.
pub fn run_scenario(params: &SystemParams, options: &ScenarioOptions) -> Result<ScenarioOutcome> {
    if !options.request_rate.is_finite() || options.request_rate <= 0.0 {
        return Err(SimError::InvalidOption {
            what: "request_rate",
            constraint: format!("must be positive and finite, got {}", options.request_rate),
        });
    }
    params.validate().map_err(SimError::Core)?;
    let net = nvp_core::model::build_model(params)?;
    let places = ModulePlaces::locate(&net)?;
    let ensemble = EnsembleModel {
        p: params.p,
        p_prime: params.p_prime,
        alpha: params.alpha,
        scheme: VotingScheme::for_params(params),
    };
    let reward = model_reward_fn(&net, params, RewardPolicy::FailedOnly)?;

    options.sim.validate_public()?;
    let mut sim = DspnSimulator::new(&net, options.sim.seed)?;
    let mut req_rng = SmallRng::seed_from_u64(options.sim.seed.wrapping_mul(0x9E37_79B9).max(1));
    let mut stats = RequestStats::default();

    while sim.time() < options.sim.warmup {
        sim.step(options.sim.warmup)?;
    }
    let batch_len = (options.sim.horizon - options.sim.warmup) / options.sim.batches as f64;
    let mut batch_values = Vec::with_capacity(options.sim.batches);
    for b in 0..options.sim.batches {
        let end = options.sim.warmup + batch_len * (b + 1) as f64;
        let mut weighted = 0.0;
        let mut total = 0.0;
        while sim.time() < end {
            let sojourn = sim.step(end)?;
            if sojourn.duration <= 0.0 {
                continue;
            }
            weighted += reward(&sojourn.marking) * sojourn.duration;
            total += sojourn.duration;
            // Poisson-many requests during the sojourn, served in the
            // sojourn's system state.
            let state = marking_state(&places, &sojourn.marking);
            let n_requests = sample_poisson(options.request_rate * sojourn.duration, &mut req_rng);
            for _ in 0..n_requests {
                stats.record(ensemble.sample_request(state, &mut req_rng));
            }
        }
        batch_values.push(if total > 0.0 { weighted / total } else { 0.0 });
    }
    Ok(ScenarioOutcome {
        requests: stats,
        time_average_reward: crate::stats::batch_means_estimate(&batch_values),
    })
}

/// System state of a marking with failed **and rejuvenating** modules
/// counted as absent (they cannot vote either way).
fn marking_state(places: &ModulePlaces, m: &Marking) -> nvp_core::state::SystemState {
    let rejuvenating = places.rejuvenating.map_or(0, |idx| m.tokens(idx));
    nvp_core::state::SystemState::new(
        m.tokens(places.healthy),
        m.tokens(places.compromised),
        m.tokens(places.failed) + rejuvenating,
    )
}

/// Knuth's method is fine for the small means arising from per-sojourn
/// request counts.
fn sample_poisson(mean: f64, rng: &mut SmallRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    // For large means, fall back to a normal approximation to stay O(1).
    if mean > 64.0 {
        let std = mean.sqrt();
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (mean + std * z).round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

impl SimOptions {
    /// Public re-validation hook used by the scenario runner.
    ///
    /// # Errors
    ///
    /// Same conditions as the internal validation.
    pub fn validate_public(&self) -> Result<()> {
        // Mirror of the private validation in `dspn`.
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(SimError::InvalidOption {
                what: "horizon",
                constraint: format!("must be positive and finite, got {}", self.horizon),
            });
        }
        if !self.warmup.is_finite() || self.warmup < 0.0 || self.warmup >= self.horizon {
            return Err(SimError::InvalidOption {
                what: "warmup",
                constraint: format!(
                    "must be non-negative and below the horizon, got {}",
                    self.warmup
                ),
            });
        }
        if self.batches < 2 {
            return Err(SimError::InvalidOption {
                what: "batches",
                constraint: format!("need at least 2 batches, got {}", self.batches),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_sampler_mean_is_right() {
        let mut rng = SmallRng::seed_from_u64(4);
        for mean in [0.5, 3.0, 20.0, 100.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| sample_poisson(mean, &mut rng)).sum();
            let empirical = total as f64 / n as f64;
            assert!(
                (empirical - mean).abs() < mean.sqrt() * 0.1 + 0.05,
                "mean {mean}: empirical {empirical}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn scenario_rejects_bad_request_rate() {
        let params = SystemParams::paper_four_version();
        let options = ScenarioOptions {
            request_rate: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            run_scenario(&params, &options),
            Err(SimError::InvalidOption { .. })
        ));
    }

    /// Four-version system: the empirical request reliability and the
    /// time-average analytic reward along the same trajectory both estimate
    /// E[R_4v] ≈ 0.8223.
    #[test]
    fn four_version_scenario_agrees_with_analytic() {
        let params = SystemParams::paper_four_version();
        let options = ScenarioOptions {
            sim: SimOptions {
                horizon: 3e6,
                warmup: 1e4,
                seed: 21,
                batches: 20,
            },
            request_rate: 0.02,
        };
        let outcome = run_scenario(&params, &options).unwrap();
        assert!(
            outcome.time_average_reward.covers(0.8223487, 0.01),
            "time-average {:?}",
            outcome.time_average_reward
        );
        // Sampled requests follow the *first-principles* stochastic model,
        // so the empirical reliability converges to the generic-model
        // expectation, not to the paper's as-printed matrix (which deviates
        // in a few coefficients; see nvp-core::reliability).
        let generic_expectation = nvp_core::engine::AnalysisEngine::new()
            .analyze(
                &params,
                RewardPolicy::FailedOnly,
                nvp_core::reliability::ReliabilitySource::Generic,
                nvp_core::analysis::SolverBackend::Auto,
            )
            .unwrap()
            .expected_reliability;
        let empirical = outcome.requests.reliability();
        assert!(
            (empirical - generic_expectation).abs() < 0.02,
            "request reliability {empirical} vs generic analytic {generic_expectation}"
        );
        assert!(outcome.requests.total() > 10_000);
    }
}
