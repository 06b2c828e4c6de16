//! Extension X6 — environment-modulated input difficulty.
//!
//! The paper's `p = 0.08` is a clear-conditions benchmark figure. Here the
//! environment alternates between clear and adverse (rain/night/glare)
//! states in an independent two-state Markov chain, multiplying `p` while
//! adverse. Because the environment is independent of the fault process,
//! the exact expected reliability is the stationary mixture of the
//! per-environment analytic values — the experiment validates the simulated
//! pipeline against that mixture and quantifies how much of the rejuvenated
//! system's margin survives bad weather.

use super::RenderedExperiment;
use crate::report::{claims_table, ClaimCheck};
use crate::{Fidelity, Result};
use nvp_core::analysis::{ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reliability::ReliabilitySource;
use nvp_core::reward::RewardPolicy;
use nvp_sim::dspn::SimOptions;
use nvp_sim::environment::{run_modulated, Environment};

/// Runs the experiment and renders the report section.
///
/// # Errors
///
/// Analysis and simulation failures.
pub fn run(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let engine = AnalysisEngine::new();
    let env = Environment {
        mean_clear: 3600.0 * 4.0, // four clear hours on average
        mean_adverse: 3600.0,     // one adverse hour on average
        p_multiplier: 3.0,        // p: 0.08 -> 0.24 in adverse conditions
    };
    let horizon = match fidelity {
        Fidelity::Full => 6e6,
        Fidelity::Quick => 1.5e6,
    };
    let mut claims = Vec::new();
    let mut csv =
        String::from("system,clear_reliability,adverse_reliability,overall,analytic_mixture\n");
    for (name, params) in [
        ("four-version", SystemParams::paper_four_version()),
        ("six-version", SystemParams::paper_six_version()),
    ] {
        let outcome = run_modulated(
            &params,
            &env,
            &SimOptions {
                horizon,
                warmup: 1e4,
                seed: 4242,
                batches: 2,
            },
            0.05,
        )?;
        let analytic_at = |p: f64| -> Result<f64> {
            Ok(engine
                .analyze(
                    &ParamAxis::HealthyInaccuracy.apply(&params, p),
                    RewardPolicy::FailedOnly,
                    ReliabilitySource::Generic,
                    SolverBackend::Auto,
                )?
                .expected_reliability)
        };
        let w = env.adverse_fraction();
        let mixture =
            (1.0 - w) * analytic_at(params.p)? + w * analytic_at(env.adverse_p(params.p))?;
        let overall = outcome.overall_reliability();
        csv.push_str(&format!(
            "{name},{},{},{overall},{mixture}\n",
            outcome.clear.reliability(),
            outcome.adverse.reliability()
        ));
        claims.push(ClaimCheck {
            claim: format!(
                "{name}: simulated weather-modulated reliability matches the \
                 analytic environment mixture"
            ),
            paper: format!("mixture {mixture:.4} (independence argument)"),
            measured: format!(
                "{overall:.4} over {} requests ({:.0}% adverse time)",
                outcome.clear.total() + outcome.adverse.total(),
                outcome.observed_adverse_fraction * 100.0
            ),
            holds: (overall - mixture).abs() < 0.02,
        });
        claims.push(ClaimCheck {
            claim: format!("{name}: adverse conditions reduce per-request reliability"),
            paper: "n/a (extension)".into(),
            measured: format!(
                "clear {:.4} vs adverse {:.4}",
                outcome.clear.reliability(),
                outcome.adverse.reliability()
            ),
            holds: outcome.adverse.reliability() < outcome.clear.reliability(),
        });
    }
    Ok(RenderedExperiment {
        id: "weather",
        title: "X6 — environment-modulated input difficulty".into(),
        markdown: claims_table(&claims),
        csv: vec![("weather.csv".into(), csv)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weather_claims_hold() {
        let r = run(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
    }
}
