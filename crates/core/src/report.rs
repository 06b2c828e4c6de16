//! Human-readable analysis reports.
//!
//! Renders an [`AnalysisReport`] — plus the
//! reliability matrix and a sensitivity profile — as a plain-text document,
//! the way TimeNET presents its stationary results. Used by the `nvp` CLI
//! and handy in examples and logs.

use crate::analysis::AnalysisReport;
use crate::engine::AnalysisEngine;
use crate::params::SystemParams;
use crate::reliability::matrix::ReliabilityMatrix;
use crate::reliability::{ReliabilityModel, ReliabilitySource};
use crate::reward::RewardPolicy;
use crate::Result;
use std::fmt::Write as _;

/// Sections to include in a rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// Include the per-state probability table (top `state_rows` rows).
    pub state_rows: usize,
    /// Include the reliability matrix.
    pub matrix: bool,
    /// Include the sensitivity profile (one extra analysis per axis).
    pub sensitivities: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            state_rows: 10,
            matrix: true,
            sensitivities: false,
        }
    }
}

/// Renders `report`, the analysis of `params` under `policy`, as a
/// plain-text document. The quorum availability and sensitivity profile
/// run on `engine` and reuse its cached chain solution, so the engine's
/// [`SolverStats`](crate::engine::SolverStats) afterwards describe exactly
/// the work this report cost.
///
/// # Errors
///
/// Reliability-matrix evaluation and sensitivity errors.
pub fn render(
    engine: &AnalysisEngine,
    params: &SystemParams,
    policy: RewardPolicy,
    report: &AnalysisReport,
    options: &ReportOptions,
) -> Result<String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N-version perception system: N = {}, f = {}, r = {}, rejuvenation = {}",
        params.n, params.f, params.r, params.rejuvenation
    );
    let _ = writeln!(
        out,
        "voting: {}-out-of-{} (threshold {})",
        params.voting_threshold(),
        params.n,
        params.voting_threshold()
    );
    let _ = writeln!(
        out,
        "parameters: alpha = {}, p = {}, p' = {}, 1/lc = {} s, 1/l = {} s, 1/mu = {} s{}",
        params.alpha,
        params.p,
        params.p_prime,
        params.mean_time_to_compromise,
        params.mean_time_to_failure,
        params.mean_time_to_repair,
        if params.rejuvenation {
            format!(", 1/gamma = {} s", params.rejuvenation_interval)
        } else {
            String::new()
        }
    );
    let _ = writeln!(out, "reward policy: {policy:?}");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "expected output reliability E[R_sys] = {:.7}",
        report.expected_reliability
    );
    if let Some(d) = &report.degraded {
        let _ = writeln!(
            out,
            "WARNING: degraded result ({} fallback, 95% half-width ±{:.2e})",
            d.method, d.reliability_half_width
        );
        let _ = writeln!(out, "         cause: {}", d.reason);
    }
    if let Ok(availability) = engine.quorum_availability(params) {
        let _ = writeln!(out, "quorum availability               = {availability:.7}");
    }

    if options.state_rows > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "top states by probability ((healthy, compromised, failed) +rejuvenating):"
        );
        let _ = writeln!(out, "  state              probability   R_state");
        for s in report.states.iter().take(options.state_rows) {
            let _ = writeln!(
                out,
                "  {:<12} +{}     {:>10.6}    {:.4}",
                s.state.to_string(),
                s.rejuvenating,
                s.probability,
                s.reliability
            );
        }
        if report.states.len() > options.state_rows {
            let _ = writeln!(
                out,
                "  ... {} more states",
                report.states.len() - options.state_rows
            );
        }
    }

    if options.matrix {
        let model = ReliabilityModel::for_params(params, ReliabilitySource::Auto)?;
        let matrix =
            ReliabilityMatrix::evaluate(&model, params.n, params.p, params.p_prime, params.alpha)?;
        let _ = writeln!(out);
        let _ = write!(out, "{matrix}");
    }

    if options.sensitivities {
        let profile = engine.sensitivity_profile(params, policy)?;
        let _ = writeln!(out);
        let _ = writeln!(out, "sensitivity elasticities (x/R * dR/dx):");
        for (axis, s) in profile {
            let _ = writeln!(out, "  {:<18} {s:+.4}", axis.label());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverBackend;

    fn analyze_and_render(params: &SystemParams, options: &ReportOptions) -> String {
        let engine = AnalysisEngine::new();
        let policy = RewardPolicy::FailedOnly;
        let report = engine
            .analyze(params, policy, ReliabilitySource::Auto, SolverBackend::Auto)
            .unwrap();
        render(&engine, params, policy, &report, options).unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let params = SystemParams::paper_six_version();
        let text = analyze_and_render(
            &params,
            &ReportOptions {
                state_rows: 5,
                matrix: true,
                sensitivities: true,
            },
        );
        assert!(text.contains("N = 6"));
        assert!(text.contains("4-out-of-6"));
        assert!(text.contains("E[R_sys] = 0.93817"));
        assert!(text.contains("quorum availability"));
        assert!(text.contains("top states"));
        assert!(text.contains("more states"));
        assert!(text.contains("R (N = 6)"));
        assert!(text.contains("sensitivity elasticities"));
        assert!(text.contains("1/gamma"));
    }

    #[test]
    fn sections_can_be_disabled() {
        let params = SystemParams::paper_four_version();
        let text = analyze_and_render(
            &params,
            &ReportOptions {
                state_rows: 0,
                matrix: false,
                sensitivities: false,
            },
        );
        assert!(text.contains("E[R_sys] = 0.8223487"));
        assert!(!text.contains("top states"));
        assert!(!text.contains("R (N = 4)"));
        assert!(
            !text.contains("1/gamma"),
            "no interval without rejuvenation"
        );
    }
}
