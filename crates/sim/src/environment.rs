//! Environment-modulated perception workloads.
//!
//! The paper treats the healthy-module inaccuracy `p` as a constant measured
//! on a benchmark dataset. Deployed perception systems face *environmental
//! modulation*: rain, glare or night traffic make inputs harder for every
//! module at once. This module models the environment as an independent
//! two-state Markov chain (clear ↔ adverse) that scales `p` while the
//! fault/rejuvenation process runs unchanged, and estimates the resulting
//! output reliability per environment state.
//!
//! Because the environment chain is independent of the module-state process,
//! the exact expected reliability is the environment-stationary mixture of
//! the per-environment analytic values — which is what the tests check the
//! simulation against.

use crate::dspn::{DspnSimulator, SimOptions};
use crate::perception::{EnsembleModel, RequestStats};
use crate::{Result, SimError};
use nvp_core::params::SystemParams;
use nvp_core::reward::ModulePlaces;
use nvp_core::state::SystemState;
use nvp_core::voting::VotingScheme;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A two-state environment process modulating input difficulty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Mean sojourn in the clear state (seconds).
    pub mean_clear: f64,
    /// Mean sojourn in the adverse state (seconds).
    pub mean_adverse: f64,
    /// Multiplier applied to the healthy-module inaccuracy `p` while the
    /// environment is adverse (clamped to 1.0 after scaling).
    pub p_multiplier: f64,
}

impl Environment {
    /// Long-run fraction of time spent in the adverse state.
    pub fn adverse_fraction(&self) -> f64 {
        self.mean_adverse / (self.mean_clear + self.mean_adverse)
    }

    /// The effective `p` in the adverse state for a system with baseline
    /// inaccuracy `p`.
    pub fn adverse_p(&self, p: f64) -> f64 {
        (p * self.p_multiplier).min(1.0)
    }

    fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("mean_clear", self.mean_clear),
            ("mean_adverse", self.mean_adverse),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidOption {
                    what,
                    constraint: format!("must be positive and finite, got {v}"),
                });
            }
        }
        if !self.p_multiplier.is_finite() || self.p_multiplier < 1.0 {
            return Err(SimError::InvalidOption {
                what: "p_multiplier",
                constraint: format!("must be ≥ 1, got {}", self.p_multiplier),
            });
        }
        Ok(())
    }
}

/// Outcome of an environment-modulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulatedOutcome {
    /// Request statistics while the environment was clear.
    pub clear: RequestStats,
    /// Request statistics while the environment was adverse.
    pub adverse: RequestStats,
    /// Observed fraction of time in the adverse state.
    pub observed_adverse_fraction: f64,
}

impl ModulatedOutcome {
    /// Overall empirical output reliability across both environments.
    pub fn overall_reliability(&self) -> f64 {
        let errors = self.clear.error + self.adverse.error;
        let total = self.clear.total() + self.adverse.total();
        if total == 0 {
            return 1.0;
        }
        1.0 - errors as f64 / total as f64
    }
}

/// Simulates the system of `params` under environment modulation: the DSPN
/// fault/rejuvenation trajectory, an independent environment chain, and a
/// Poisson request stream whose per-request difficulty depends on the
/// current environment.
///
/// # Errors
///
/// Parameter, option and simulation errors.
pub fn run_modulated(
    params: &SystemParams,
    env: &Environment,
    options: &SimOptions,
    request_rate: f64,
) -> Result<ModulatedOutcome> {
    env.validate()?;
    params.validate().map_err(SimError::Core)?;
    if !request_rate.is_finite() || request_rate <= 0.0 {
        return Err(SimError::InvalidOption {
            what: "request_rate",
            constraint: format!("must be positive and finite, got {request_rate}"),
        });
    }
    options.validate_public()?;
    let net = nvp_core::model::build_model(params)?;
    let places = ModulePlaces::locate(&net)?;
    let scheme = VotingScheme::for_params(params);
    let clear_model = EnsembleModel {
        p: params.p,
        p_prime: params.p_prime,
        alpha: params.alpha,
        scheme,
    };
    let adverse_model = EnsembleModel {
        p: env.adverse_p(params.p),
        ..clear_model
    };

    let mut sim = DspnSimulator::new(&net, options.seed)?;
    let mut rng = SmallRng::seed_from_u64(options.seed.wrapping_mul(0x51AB_1CED).max(1));
    // Environment state and its next toggle time (exponential sojourns).
    let mut adverse = false;
    let mut next_toggle = sample_exp(env.mean_clear, &mut rng);
    let mut outcome = ModulatedOutcome {
        clear: RequestStats::default(),
        adverse: RequestStats::default(),
        observed_adverse_fraction: 0.0,
    };
    let mut adverse_time = 0.0;
    let mut total_time = 0.0;

    while sim.time() < options.warmup {
        sim.step(options.warmup)?;
    }
    while sim.time() < options.horizon {
        let sojourn = sim.step(options.horizon)?;
        if sojourn.duration <= 0.0 {
            continue;
        }
        let state = marking_state(&places, &sojourn.marking);
        // Split the sojourn at environment toggles.
        let mut t = sim.time() - sojourn.duration;
        let sojourn_end = sim.time();
        while t < sojourn_end {
            let segment_end = next_toggle.min(sojourn_end);
            let dt = segment_end - t;
            if dt > 0.0 {
                total_time += dt;
                if adverse {
                    adverse_time += dt;
                }
                let model = if adverse {
                    &adverse_model
                } else {
                    &clear_model
                };
                let stats = if adverse {
                    &mut outcome.adverse
                } else {
                    &mut outcome.clear
                };
                let n_requests = sample_poisson(request_rate * dt, &mut rng);
                for _ in 0..n_requests {
                    stats.record(model.sample_request(state, &mut rng));
                }
            }
            if next_toggle <= sojourn_end {
                adverse = !adverse;
                let mean = if adverse {
                    env.mean_adverse
                } else {
                    env.mean_clear
                };
                next_toggle += sample_exp(mean, &mut rng);
            }
            t = segment_end;
        }
    }
    outcome.observed_adverse_fraction = if total_time > 0.0 {
        adverse_time / total_time
    } else {
        0.0
    };
    Ok(outcome)
}

fn marking_state(places: &ModulePlaces, m: &nvp_petri::marking::Marking) -> SystemState {
    let rejuvenating = places.rejuvenating.map_or(0, |idx| m.tokens(idx));
    SystemState::new(
        m.tokens(places.healthy),
        m.tokens(places.compromised),
        m.tokens(places.failed) + rejuvenating,
    )
}

fn sample_exp(mean: f64, rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() * mean
}

fn sample_poisson(mean: f64, rng: &mut SmallRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_core::analysis::{ParamAxis, SolverBackend};
    use nvp_core::engine::AnalysisEngine;
    use nvp_core::reliability::ReliabilitySource;
    use nvp_core::reward::RewardPolicy;

    fn fast_env() -> Environment {
        Environment {
            mean_clear: 2000.0,
            mean_adverse: 1000.0,
            p_multiplier: 3.0,
        }
    }

    #[test]
    fn adverse_fraction_and_p_scaling() {
        let env = fast_env();
        assert!((env.adverse_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((env.adverse_p(0.08) - 0.24).abs() < 1e-12);
        assert_eq!(env.adverse_p(0.5), 1.0, "clamped at 1");
    }

    #[test]
    fn invalid_environments_rejected() {
        let params = SystemParams::paper_four_version();
        let opts = SimOptions::default();
        for env in [
            Environment {
                mean_clear: 0.0,
                ..fast_env()
            },
            Environment {
                mean_adverse: f64::NAN,
                ..fast_env()
            },
            Environment {
                p_multiplier: 0.5,
                ..fast_env()
            },
        ] {
            assert!(run_modulated(&params, &env, &opts, 0.1).is_err());
        }
        assert!(run_modulated(&params, &fast_env(), &opts, 0.0).is_err());
    }

    /// The independence of the environment chain makes the exact answer a
    /// stationary mixture of the per-environment analytic reliabilities.
    #[test]
    fn modulated_reliability_matches_analytic_mixture() {
        let params = SystemParams::paper_four_version();
        let env = fast_env();
        let outcome = run_modulated(
            &params,
            &env,
            &SimOptions {
                horizon: 3e6,
                warmup: 1e4,
                seed: 13,
                batches: 2,
            },
            0.05,
        )
        .unwrap();
        let analytic_at = |p: f64| {
            AnalysisEngine::new()
                .analyze(
                    &ParamAxis::HealthyInaccuracy.apply(&params, p),
                    RewardPolicy::FailedOnly,
                    ReliabilitySource::Generic,
                    SolverBackend::Auto,
                )
                .unwrap()
                .expected_reliability
        };
        let w = env.adverse_fraction();
        let mixture = (1.0 - w) * analytic_at(params.p) + w * analytic_at(env.adverse_p(params.p));
        let empirical = outcome.overall_reliability();
        assert!(
            (empirical - mixture).abs() < 0.02,
            "empirical {empirical} vs mixture {mixture}"
        );
        // The environment process itself must match its stationary law.
        assert!(
            (outcome.observed_adverse_fraction - w).abs() < 0.05,
            "adverse fraction {} vs {w}",
            outcome.observed_adverse_fraction
        );
        // Adverse conditions must hurt.
        assert!(outcome.adverse.reliability() < outcome.clear.reliability());
    }
}
