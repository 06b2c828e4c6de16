//! Extension X1 — cross-validation of the analytic solver against the
//! independent discrete-event simulator.
//!
//! The analytic pipeline (reachability + MRGP embedded chain) and the
//! simulator (`nvp-sim`) share only the net definition; agreement of the
//! steady-state expected rewards within the simulation confidence interval
//! validates both implementations against each other.

use super::RenderedExperiment;
use crate::report::{claims_table, ClaimCheck};
use crate::{Fidelity, Result};
use nvp_core::analysis::{ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_sim::dspn::{simulate_reward, SimOptions};
use nvp_sim::scenario::model_reward_fn;

/// One cross-validation point.
#[derive(Debug, Clone, PartialEq)]
pub struct XvalPoint {
    /// Description of the configuration.
    pub name: String,
    /// Analytic expected reliability.
    pub analytic: f64,
    /// Simulated estimate (mean).
    pub simulated: f64,
    /// 95% half-width of the simulation estimate.
    pub half_width: f64,
    /// Whether the analytic value falls inside the widened interval.
    pub agrees: bool,
}

/// Runs the cross-validation points.
///
/// # Errors
///
/// Analysis and simulation failures.
pub fn compute(fidelity: Fidelity) -> Result<Vec<XvalPoint>> {
    let engine = AnalysisEngine::new();
    let horizon = match fidelity {
        Fidelity::Full => 4e6,
        Fidelity::Quick => 6e5,
    };
    let slack = match fidelity {
        Fidelity::Full => 0.004,
        Fidelity::Quick => 0.01,
    };
    let p6 = SystemParams::paper_six_version();
    let configs: Vec<(String, SystemParams)> = vec![
        (
            "four-version, defaults".into(),
            SystemParams::paper_four_version(),
        ),
        ("six-version, defaults (1/gamma = 600 s)".into(), p6.clone()),
        (
            "six-version, 1/gamma = 300 s".into(),
            ParamAxis::RejuvenationInterval.apply(&p6, 300.0),
        ),
        (
            "six-version, 1/gamma = 1500 s".into(),
            ParamAxis::RejuvenationInterval.apply(&p6, 1500.0),
        ),
    ];
    let mut points = Vec::new();
    for (idx, (name, params)) in configs.into_iter().enumerate() {
        let analytic =
            engine.expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
        let net = nvp_core::model::build_model(&params)?;
        let reward = model_reward_fn(&net, &params, RewardPolicy::FailedOnly)?;
        let estimate = simulate_reward(
            &net,
            &reward,
            &SimOptions {
                horizon,
                warmup: horizon / 100.0,
                seed: 1000 + idx as u64,
                batches: 20,
            },
        )?;
        points.push(XvalPoint {
            name,
            analytic,
            simulated: estimate.mean,
            half_width: estimate.half_width,
            agrees: estimate.covers(analytic, slack),
        });
    }
    Ok(points)
}

/// Runs the experiment and renders the report section.
///
/// # Errors
///
/// Analysis and simulation failures.
pub fn run(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let points = compute(fidelity)?;
    let claims: Vec<ClaimCheck> = points
        .iter()
        .map(|p| ClaimCheck {
            claim: format!("simulation agrees with analytic: {}", p.name),
            paper: format!("analytic {:.6}", p.analytic),
            measured: format!("simulated {:.6} ± {:.6}", p.simulated, p.half_width),
            holds: p.agrees,
        })
        .collect();
    let markdown = claims_table(&claims);
    let csv = {
        let mut s = String::from("config,analytic,simulated,half_width\n");
        for p in &points {
            s.push_str(&format!(
                "\"{}\",{},{},{}\n",
                p.name, p.analytic, p.simulated, p.half_width
            ));
        }
        s
    };
    Ok(RenderedExperiment {
        id: "xval",
        title: "X1 — analytic solver vs discrete-event simulation".into(),
        markdown,
        csv: vec![("xval.csv".into(), csv)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cross_validation_agrees() {
        let points = compute(Fidelity::Quick).unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.agrees,
                "{}: analytic {} vs simulated {} ± {}",
                p.name, p.analytic, p.simulated, p.half_width
            );
        }
    }
}
