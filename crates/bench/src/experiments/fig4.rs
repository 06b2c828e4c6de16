//! Figure 4 — sensitivity of both systems' expected reliability to
//! (a) the mean time to compromise, (b) the error dependency α,
//! (c) the healthy inaccuracy p, and (d) the compromised inaccuracy p′.

use super::RenderedExperiment;
use crate::report::{claims_table, ClaimCheck, NamedSeries, SweepSeries};
use crate::{Fidelity, Result};
use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;

/// Both curves of one Figure 4 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelResult {
    /// `(x, E[R_4v])` — four-version, no rejuvenation.
    pub four: Vec<(f64, f64)>,
    /// `(x, E[R_6v])` — six-version with rejuvenation.
    pub six: Vec<(f64, f64)>,
}

/// Sweeps both systems over `axis`.
///
/// # Errors
///
/// Analysis failures.
pub fn panel(axis: ParamAxis, grid: &[f64]) -> Result<PanelResult> {
    let engine = AnalysisEngine::new();
    let sweep = |params: &SystemParams| {
        engine.sweep_supervised(
            params,
            axis,
            grid,
            RewardPolicy::FailedOnly,
            SolverBackend::Auto,
            &|_| {},
        )
    };
    Ok(PanelResult {
        four: sweep(&SystemParams::paper_four_version())?,
        six: sweep(&SystemParams::paper_six_version())?,
    })
}

fn render(
    id: &'static str,
    title: &str,
    axis: ParamAxis,
    result: &PanelResult,
    claims: Vec<ClaimCheck>,
    csv_name: &str,
) -> RenderedExperiment {
    let series = SweepSeries {
        axis_label: axis.label().to_string(),
        value_label: "expected reliability".into(),
        series: vec![
            NamedSeries {
                name: "four-version (no rejuvenation)".into(),
                points: result.four.clone(),
            },
            NamedSeries {
                name: "six-version (rejuvenation)".into(),
                points: result.six.clone(),
            },
        ],
    };
    RenderedExperiment {
        id,
        title: title.to_string(),
        markdown: format!("{}\n{}", claims_table(&claims), series.to_markdown()),
        csv: vec![(csv_name.to_string(), series.to_csv())],
    }
}

/// Relative drop of a curve from its first to its last point, in percent.
fn relative_drop(points: &[(f64, f64)]) -> f64 {
    match (points.first(), points.last()) {
        (Some(&(_, first)), Some(&(_, last))) if first > 0.0 => (first - last) / first * 100.0,
        _ => 0.0,
    }
}

/// Figure 4 (a): vary `1/λc`; the paper reports the four-version system
/// winning below ≈525 s and above ≈6000 s.
///
/// # Errors
///
/// Analysis failures.
pub fn run_a(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let grid: Vec<f64> = match fidelity {
        Fidelity::Full => vec![
            100.0, 200.0, 300.0, 400.0, 525.0, 700.0, 1000.0, 1523.0, 2000.0, 3000.0, 4000.0,
            5000.0, 6000.0, 7000.0, 8000.0, 10000.0,
        ],
        Fidelity::Quick => vec![200.0, 525.0, 1523.0, 6000.0, 8000.0],
    };
    let result = panel(ParamAxis::MeanTimeToCompromise, &grid)?;
    let p4 = SystemParams::paper_four_version();
    let p6 = SystemParams::paper_six_version();
    let engine = AnalysisEngine::new();
    let low = engine.find_crossover(
        &p4,
        &p6,
        ParamAxis::MeanTimeToCompromise,
        50.0,
        1000.0,
        RewardPolicy::FailedOnly,
    )?;
    let high = engine.find_crossover(
        &p4,
        &p6,
        ParamAxis::MeanTimeToCompromise,
        4000.0,
        12000.0,
        RewardPolicy::FailedOnly,
    )?;
    let claims = vec![
        ClaimCheck {
            claim: "four-version wins when 1/lambda_c is small (below a low crossover)".into(),
            paper: "crossover at ≈525 s".into(),
            measured: format!("crossover at {:?} s", low.map(|x| x.round())),
            holds: low.is_some_and(|x| (100.0..=1000.0).contains(&x)),
        },
        ClaimCheck {
            claim: "four-version wins again when 1/lambda_c is large (high crossover)".into(),
            paper: "crossover at ≈6000 s".into(),
            measured: format!("crossover at {:?} s", high.map(|x| x.round())),
            holds: high.is_some_and(|x| (4000.0..=9000.0).contains(&x)),
        },
        ClaimCheck {
            claim: "six-version wins between the crossovers (incl. the defaults)".into(),
            paper: "6v better for all other values".into(),
            measured: {
                let at_default = result
                    .six
                    .iter()
                    .zip(&result.four)
                    .find(|((x, _), _)| (*x - 1523.0).abs() < 1.0);
                match at_default {
                    Some(((_, r6), (_, r4))) => format!("at 1523 s: 6v {r6:.4} vs 4v {r4:.4}"),
                    None => "default not on grid".into(),
                }
            },
            holds: result
                .six
                .iter()
                .zip(&result.four)
                .filter(|((x, _), _)| (700.0..=5000.0).contains(x))
                .all(|((_, r6), (_, r4))| r6 > r4),
        },
    ];
    Ok(render(
        "fig4a",
        "Figure 4(a) — sensitivity to the mean time to compromise",
        ParamAxis::MeanTimeToCompromise,
        &result,
        claims,
        "fig4a_mttc_sweep.csv",
    ))
}

/// Figure 4 (b): vary α; the paper reports a ≈1.5% reliability drop for the
/// four-version system and ≈6.6% for the six-version system from α = 0.1 to
/// α = 1.0.
///
/// # Errors
///
/// Analysis failures.
pub fn run_b(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let steps = match fidelity {
        Fidelity::Full => 10,
        Fidelity::Quick => 4,
    };
    let grid = linspace(0.1, 1.0, steps);
    let result = panel(ParamAxis::Alpha, &grid)?;
    let drop4 = relative_drop(&result.four);
    let drop6 = relative_drop(&result.six);
    let claims = vec![
        ClaimCheck {
            claim: "alpha impact on the four-version system is small".into(),
            paper: "≈1.5% drop from alpha 0.1 to 1.0".into(),
            measured: format!("{drop4:.2}% drop"),
            holds: (0.5..=3.0).contains(&drop4),
        },
        ClaimCheck {
            claim: "alpha impact on the six-version system is larger but slight".into(),
            paper: "≈6.6% drop".into(),
            measured: format!("{drop6:.2}% drop"),
            holds: (4.0..=9.0).contains(&drop6) && drop6 > drop4,
        },
        ClaimCheck {
            claim: "low error dependency benefits reliability (both curves decrease)".into(),
            paper: "reliability decreases with alpha".into(),
            measured: "see series".into(),
            holds: drop4 > 0.0 && drop6 > 0.0,
        },
    ];
    Ok(render(
        "fig4b",
        "Figure 4(b) — sensitivity to the error dependency alpha",
        ParamAxis::Alpha,
        &result,
        claims,
        "fig4b_alpha_sweep.csv",
    ))
}

/// Figure 4 (c): vary `p`; the paper reports a ≈5% drop for the four-version
/// system and ≈13% for the six-version system from p = 0.01 to 0.2, with the
/// six-version better everywhere.
///
/// # Errors
///
/// Analysis failures.
pub fn run_c(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let steps = match fidelity {
        Fidelity::Full => 12,
        Fidelity::Quick => 4,
    };
    let grid = linspace(0.01, 0.2, steps);
    let result = panel(ParamAxis::HealthyInaccuracy, &grid)?;
    let drop4 = relative_drop(&result.four);
    let drop6 = relative_drop(&result.six);
    let six_always_better = result
        .six
        .iter()
        .zip(&result.four)
        .all(|((_, r6), (_, r4))| r6 > r4);
    let claims = vec![
        ClaimCheck {
            claim: "six-version beats four-version for all p in [0.01, 0.2]".into(),
            paper: "better reliability in all cases".into(),
            measured: format!("six better at all {} grid points", result.six.len()),
            holds: six_always_better,
        },
        ClaimCheck {
            claim: "p impact on the six-version system".into(),
            paper: "≈13% drop".into(),
            measured: format!("{drop6:.2}% drop"),
            holds: (10.0..=16.0).contains(&drop6),
        },
        ClaimCheck {
            claim: "p impact on the four-version system".into(),
            paper: "≈5% drop".into(),
            measured: format!("{drop4:.2}% drop"),
            holds: (3.0..=7.0).contains(&drop4),
        },
    ];
    Ok(render(
        "fig4c",
        "Figure 4(c) — sensitivity to the healthy-module inaccuracy p",
        ParamAxis::HealthyInaccuracy,
        &result,
        claims,
        "fig4c_p_sweep.csv",
    ))
}

/// Figure 4 (d): vary `p′`; the paper reports rejuvenation paying off only
/// above a crossover at ≈0.3.
///
/// # Errors
///
/// Analysis failures.
pub fn run_d(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let steps = match fidelity {
        Fidelity::Full => 15,
        Fidelity::Quick => 5,
    };
    let grid = linspace(0.1, 0.8, steps);
    let result = panel(ParamAxis::CompromisedInaccuracy, &grid)?;
    let p4 = SystemParams::paper_four_version();
    let p6 = SystemParams::paper_six_version();
    let crossover = AnalysisEngine::new().find_crossover(
        &p4,
        &p6,
        ParamAxis::CompromisedInaccuracy,
        0.1,
        0.8,
        RewardPolicy::FailedOnly,
    )?;
    let six_at_08 = result.six.last().map(|&(_, r)| r).unwrap_or(0.0);
    let four_at_08 = result.four.last().map(|&(_, r)| r).unwrap_or(0.0);
    let claims = vec![
        ClaimCheck {
            claim: "rejuvenation is beneficial only above a p' crossover".into(),
            paper: "crossover at p' ≈ 0.3".into(),
            measured: format!(
                "crossover at p' = {:?}",
                crossover.map(|x| (x * 1000.0).round() / 1000.0)
            ),
            holds: crossover.is_some_and(|x| (0.2..=0.4).contains(&x)),
        },
        ClaimCheck {
            claim: "rejuvenation mitigates degradation at high p'".into(),
            paper: "higher reliability even at p' = 0.8".into(),
            measured: format!("at p' = 0.8: 6v {six_at_08:.4} vs 4v {four_at_08:.4}"),
            holds: six_at_08 > four_at_08 + 0.2,
        },
    ];
    Ok(render(
        "fig4d",
        "Figure 4(d) — sensitivity to the compromised-module inaccuracy p'",
        ParamAxis::CompromisedInaccuracy,
        &result,
        claims,
        "fig4d_pprime_sweep.csv",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_claims_hold() {
        let r = run_a(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
    }

    #[test]
    fn fig4b_claims_hold() {
        let r = run_b(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
    }

    #[test]
    fn fig4c_claims_hold() {
        let r = run_c(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
    }

    #[test]
    fn fig4d_claims_hold() {
        let r = run_d(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
    }

    #[test]
    fn relative_drop_math() {
        assert!((relative_drop(&[(0.0, 1.0), (1.0, 0.9)]) - 10.0).abs() < 1e-12);
        assert_eq!(relative_drop(&[]), 0.0);
    }
}
