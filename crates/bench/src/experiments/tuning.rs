//! Extension X7 — rejuvenation-interval tuning across threat levels.
//!
//! Figure 3 fixes the threat level (`1/λc = 1523 s`) and sweeps the
//! rejuvenation interval. Deployments face *varying* threat levels, so the
//! operational question is the induced curve: *optimal interval as a
//! function of the mean time to compromise*. The claim checked here is the
//! monotone relationship — heavier attack pressure calls for more frequent
//! rejuvenation — plus the size of the penalty for not re-tuning (keeping
//! the paper's 600 s default under heavy attack).

use super::RenderedExperiment;
use crate::report::{claims_table, ClaimCheck};
use crate::{Fidelity, Result};
use nvp_core::analysis::{ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;

/// One threat level's tuning row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningPoint {
    /// Mean time to compromise (`1/λc`) in seconds.
    pub mean_time_to_compromise: f64,
    /// Optimal rejuvenation interval in seconds.
    pub optimal_interval: f64,
    /// Expected reliability at the optimum.
    pub at_optimum: f64,
    /// Expected reliability at the paper's 600 s default.
    pub at_default: f64,
}

/// Computes the tuning curve.
///
/// # Errors
///
/// Analysis failures.
pub fn compute(fidelity: Fidelity) -> Result<Vec<TuningPoint>> {
    let engine = AnalysisEngine::new();
    let levels: &[f64] = match fidelity {
        Fidelity::Full => &[500.0, 800.0, 1000.0, 1523.0, 2500.0, 5000.0],
        Fidelity::Quick => &[500.0, 1523.0, 5000.0],
    };
    let base = SystemParams::paper_six_version();
    let mut out = Vec::new();
    for &mttc in levels {
        let params = ParamAxis::MeanTimeToCompromise.apply(&base, mttc);
        let (optimal_interval, at_optimum) = engine.optimal_rejuvenation_interval(
            &params,
            100.0,
            3000.0,
            RewardPolicy::FailedOnly,
        )?;
        let at_default =
            engine.expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
        out.push(TuningPoint {
            mean_time_to_compromise: mttc,
            optimal_interval,
            at_optimum,
            at_default,
        });
    }
    Ok(out)
}

/// Runs the experiment and renders the report section.
///
/// # Errors
///
/// Analysis failures.
pub fn run(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let points = compute(fidelity)?;
    let mut csv = String::from("mttc_s,optimal_interval_s,at_optimum,at_default_600s\n");
    let mut table = String::from(
        "| 1/lambda_c [s] | optimal 1/gamma [s] | E[R] at optimum | E[R] at 600 s |\n\
         |---|---|---|---|\n",
    );
    for p in &points {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            p.mean_time_to_compromise, p.optimal_interval, p.at_optimum, p.at_default
        ));
        table.push_str(&format!(
            "| {:.0} | {:.0} | {:.6} | {:.6} |\n",
            p.mean_time_to_compromise, p.optimal_interval, p.at_optimum, p.at_default
        ));
    }
    let monotone = points
        .windows(2)
        .all(|w| w[1].optimal_interval >= w[0].optimal_interval - 1.0);
    let heavy = points.first().expect("non-empty levels");
    let default_penalty = heavy.at_optimum - heavy.at_default;
    let claims = vec![
        ClaimCheck {
            claim: "the optimal rejuvenation interval grows with the mean time to \
                    compromise (heavier attack pressure → rejuvenate more often)"
                .into(),
            paper: "n/a (extension of Figure 3)".into(),
            measured: points
                .iter()
                .map(|p| {
                    format!(
                        "{:.0}s→{:.0}s",
                        p.mean_time_to_compromise, p.optimal_interval
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
            holds: monotone,
        },
        ClaimCheck {
            claim: "keeping the 600 s default under heavy attack costs real \
                    reliability"
                .into(),
            paper: "n/a (extension)".into(),
            measured: format!(
                "at 1/lambda_c = {:.0} s: optimum {:.4} vs default {:.4} \
                 (penalty {:.4})",
                heavy.mean_time_to_compromise, heavy.at_optimum, heavy.at_default, default_penalty
            ),
            holds: default_penalty > 0.02,
        },
    ];
    Ok(RenderedExperiment {
        id: "tuning",
        title: "X7 — optimal rejuvenation interval vs threat level".into(),
        markdown: format!("{}\n{table}", claims_table(&claims)),
        csv: vec![("tuning.csv".into(), csv)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_claims_hold() {
        let r = run(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
        assert!(r.markdown.contains("| 1523 |"));
    }
}
