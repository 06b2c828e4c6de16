//! Expected-reliability analysis (equation 1), sweeps, and optimization.
//!
//! The pipeline assembled here is the paper's evaluation method:
//! parameters → DSPN ([`crate::model`]) → tangible reachability graph →
//! steady-state probabilities (`nvp-mrgp`) → reward-weighted sum with the
//! reliability functions ([`crate::reliability`]).
//!
//! This module holds the vocabulary of an analysis: the solver backend,
//! the report types, the sweep axes and the sweep grid. The pipeline runs
//! on an [`AnalysisEngine`](crate::engine::AnalysisEngine), which memoizes
//! the expensive chain stage (model build + exploration + steady-state
//! solve), so sweeps and searches that revisit the same chain parameters
//! pay for it once; its [`SolverStats`](crate::engine::SolverStats)
//! describe the work done.

use crate::params::SystemParams;
use crate::state::SystemState;

/// Default budget for tangible markings during exploration.
const DEFAULT_MAX_MARKINGS: usize = 200_000;

/// Backend selection for the steady-state computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// Analytic MRGP/CTMC solution with the default state-space budget.
    #[default]
    Auto,
    /// Analytic solution with an explicit tangible-marking budget.
    Budget(
        /// Maximum number of tangible markings to explore.
        usize,
    ),
}

impl SolverBackend {
    /// The tangible-marking exploration budget this backend allows. Part of
    /// the engine's [`ChainKey`](crate::engine::ChainKey): two backends with
    /// equal budgets share cached chain solutions.
    pub fn max_markings(self) -> usize {
        match self {
            SolverBackend::Auto => DEFAULT_MAX_MARKINGS,
            SolverBackend::Budget(n) => n,
        }
    }
}

/// Steady-state probability and reward of one system state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateReport {
    /// The `(i, j, k)` module counts; `rejuvenating` is reported separately.
    pub state: SystemState,
    /// Number of rejuvenating modules in the underlying marking.
    pub rejuvenating: u32,
    /// Steady-state probability of the marking.
    pub probability: f64,
    /// Reward `R_{i,j,k}` assigned under the chosen policy.
    pub reliability: f64,
}

/// Degradation record attached to an [`AnalysisReport`] whose chain stage
/// was answered by a fallback (see [`crate::engine::DegradedInfo`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// Fallback that produced the underlying chain solution.
    pub method: crate::engine::DegradedMethod,
    /// The primary failure that triggered the fallback chain.
    pub reason: String,
    /// Conservative 95% confidence half-width on `expected_reliability`
    /// implied by the per-marking sampling errors (`Σ hw_i·|R_i|`; 0 for
    /// analytic fallbacks).
    pub reliability_half_width: f64,
}

/// Full analysis output.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The expected output reliability `E[R_sys]`.
    pub expected_reliability: f64,
    /// Per-marking breakdown, ordered by decreasing probability.
    pub states: Vec<StateReport>,
    /// Present when the chain stage fell back to a degraded method; the
    /// probabilities (and thus `expected_reliability`) are then estimates.
    pub degraded: Option<DegradedReport>,
}

/// A parameter axis for sensitivity sweeps (the x-axes of Figures 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamAxis {
    /// Mean time to compromise `1/λc` (Figure 4 a).
    MeanTimeToCompromise,
    /// Error dependency `α` (Figure 4 b).
    Alpha,
    /// Healthy-module inaccuracy `p` (Figure 4 c).
    HealthyInaccuracy,
    /// Compromised-module inaccuracy `p'` (Figure 4 d).
    CompromisedInaccuracy,
    /// Rejuvenation interval `1/γ` (Figure 3).
    RejuvenationInterval,
    /// Mean time to failure `1/λ`.
    MeanTimeToFailure,
    /// Mean time to repair `1/μ`.
    MeanTimeToRepair,
}

impl ParamAxis {
    /// Returns a copy of `params` with this axis set to `value`.
    pub fn apply(self, params: &SystemParams, value: f64) -> SystemParams {
        let mut p = params.clone();
        match self {
            ParamAxis::MeanTimeToCompromise => p.mean_time_to_compromise = value,
            ParamAxis::Alpha => p.alpha = value,
            ParamAxis::HealthyInaccuracy => p.p = value,
            ParamAxis::CompromisedInaccuracy => p.p_prime = value,
            ParamAxis::RejuvenationInterval => p.rejuvenation_interval = value,
            ParamAxis::MeanTimeToFailure => p.mean_time_to_failure = value,
            ParamAxis::MeanTimeToRepair => p.mean_time_to_repair = value,
        }
        p
    }

    /// Reads the current value of this axis from `params`.
    pub fn get(self, params: &SystemParams) -> f64 {
        match self {
            ParamAxis::MeanTimeToCompromise => params.mean_time_to_compromise,
            ParamAxis::Alpha => params.alpha,
            ParamAxis::HealthyInaccuracy => params.p,
            ParamAxis::CompromisedInaccuracy => params.p_prime,
            ParamAxis::RejuvenationInterval => params.rejuvenation_interval,
            ParamAxis::MeanTimeToFailure => params.mean_time_to_failure,
            ParamAxis::MeanTimeToRepair => params.mean_time_to_repair,
        }
    }

    /// Parses the short axis name used by the CLI and the HTTP API
    /// (`gamma`/`interval`, `mttc`, `mttf`, `mttr`, `alpha`, `p`,
    /// `pprime`/`p-prime`). Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<ParamAxis> {
        Some(match name {
            "gamma" | "interval" => ParamAxis::RejuvenationInterval,
            "mttc" => ParamAxis::MeanTimeToCompromise,
            "mttf" => ParamAxis::MeanTimeToFailure,
            "mttr" => ParamAxis::MeanTimeToRepair,
            "alpha" => ParamAxis::Alpha,
            "p" => ParamAxis::HealthyInaccuracy,
            "pprime" | "p-prime" => ParamAxis::CompromisedInaccuracy,
            _ => return None,
        })
    }

    /// Short axis label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ParamAxis::MeanTimeToCompromise => "1/lambda_c [s]",
            ParamAxis::Alpha => "alpha",
            ParamAxis::HealthyInaccuracy => "p",
            ParamAxis::CompromisedInaccuracy => "p'",
            ParamAxis::RejuvenationInterval => "1/gamma [s]",
            ParamAxis::MeanTimeToFailure => "1/lambda [s]",
            ParamAxis::MeanTimeToRepair => "1/mu [s]",
        }
    }
}

/// Generates `steps` evenly spaced values covering `[lo, hi]` inclusive.
/// `steps == 0` yields an empty grid; `steps == 1` yields just `lo`.
pub fn linspace(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    match steps {
        0 => Vec::new(),
        1 => vec![lo],
        _ => {
            let h = (hi - lo) / (steps - 1) as f64;
            (0..steps).map(|i| lo + h * i as f64).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisEngine;
    use crate::reliability::ReliabilitySource;
    use crate::reward::RewardPolicy;

    /// The paper's headline four-version value: 0.8233477 (§V-B). The
    /// calibrated reproduction yields 0.8223487 — within 0.13% (the paper's
    /// figure is a near-digit-transposition of ours; see DESIGN.md).
    #[test]
    fn four_version_headline_value() {
        let r4 = AnalysisEngine::new()
            .expected_reliability(
                &SystemParams::paper_four_version(),
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
            )
            .unwrap();
        assert!(
            (r4 - 0.8223487).abs() < 1e-6,
            "E[R_4v] = {r4}, expected 0.8223487 (paper: 0.8233477)"
        );
    }

    /// The paper's headline six-version value: 0.93464665 (§V-B). The
    /// reproduction yields ≈ 0.938 — within 0.4%.
    #[test]
    fn six_version_headline_value() {
        let r6 = AnalysisEngine::new()
            .expected_reliability(
                &SystemParams::paper_six_version(),
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
            )
            .unwrap();
        assert!(
            (r6 - 0.93464665).abs() < 5e-3,
            "E[R_6v] = {r6}, paper reports 0.93464665"
        );
    }

    /// §V-B: "using a rejuvenation mechanism would improve the system
    /// reliability by about 13%".
    #[test]
    fn rejuvenation_improves_reliability_by_over_13_percent() {
        let r4 = AnalysisEngine::new()
            .expected_reliability(
                &SystemParams::paper_four_version(),
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
            )
            .unwrap();
        let r6 = AnalysisEngine::new()
            .expected_reliability(
                &SystemParams::paper_six_version(),
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
            )
            .unwrap();
        let improvement = (r6 - r4) / r4;
        assert!(
            improvement > 0.13,
            "improvement {improvement:.4} should exceed 13%"
        );
    }

    #[test]
    fn analyze_report_is_consistent() {
        let report = AnalysisEngine::new()
            .analyze(
                &SystemParams::paper_four_version(),
                RewardPolicy::FailedOnly,
                ReliabilitySource::Auto,
                SolverBackend::Auto,
            )
            .unwrap();
        let total_prob: f64 = report.states.iter().map(|s| s.probability).sum();
        assert!((total_prob - 1.0).abs() < 1e-9);
        let recomputed: f64 = report
            .states
            .iter()
            .map(|s| s.probability * s.reliability)
            .sum();
        assert!((recomputed - report.expected_reliability).abs() < 1e-12);
        // Sorted by decreasing probability.
        for w in report.states.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn as_written_policy_gives_higher_value_than_failed_only() {
        // The as-written reading keeps reward on rejuvenating markings, so
        // its expectation dominates the failed-only one.
        let p = SystemParams::paper_six_version();
        let failed_only = AnalysisEngine::new()
            .expected_reliability(&p, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        let as_written = AnalysisEngine::new()
            .expected_reliability(&p, RewardPolicy::AsWritten, SolverBackend::Auto)
            .unwrap();
        assert!(
            as_written > failed_only,
            "{as_written} should exceed {failed_only}"
        );
    }

    #[test]
    fn sweep_returns_one_point_per_value() {
        let values = [300.0, 600.0, 1200.0];
        // One worker: other tests in this binary meter the global pool.
        let result = AnalysisEngine::new()
            .with_jobs(nvp_numerics::Jobs::Fixed(1))
            .sweep_supervised(
                &SystemParams::paper_six_version(),
                ParamAxis::RejuvenationInterval,
                &values,
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
                &|_| {},
            )
            .unwrap();
        assert_eq!(result.len(), 3);
        for ((x, r), v) in result.iter().zip(&values) {
            assert_eq!(x, v);
            assert!((0.0..=1.0).contains(r));
        }
    }

    #[test]
    fn quorum_availability_dominates_reliability() {
        // Availability only asks for a quorum; reliability additionally asks
        // for correctness, so availability is an upper bound.
        for params in [
            SystemParams::paper_four_version(),
            SystemParams::paper_six_version(),
        ] {
            let availability = AnalysisEngine::new().quorum_availability(&params).unwrap();
            let reliability = AnalysisEngine::new()
                .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
                .unwrap();
            assert!(
                availability >= reliability,
                "{availability} < {reliability}"
            );
            assert!(
                availability > 0.999,
                "3 s repairs keep quorum essentially always: {availability}"
            );
        }
    }

    #[test]
    fn quorum_availability_degrades_with_slow_repair() {
        let mut params = SystemParams::paper_four_version();
        params.mean_time_to_repair = 2000.0;
        let slow = AnalysisEngine::new().quorum_availability(&params).unwrap();
        let fast = AnalysisEngine::new()
            .quorum_availability(&SystemParams::paper_four_version())
            .unwrap();
        assert!(slow < fast - 0.05, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn linspace_covers_range() {
        let v = linspace(200.0, 3000.0, 15);
        assert_eq!(v.len(), 15);
        assert_eq!(v[0], 200.0);
        assert_eq!(*v.last().unwrap(), 3000.0);
    }

    #[test]
    fn linspace_degenerate_step_counts() {
        // Zero steps means zero points — not a phantom grid of [lo].
        assert!(linspace(1.0, 2.0, 0).is_empty());
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
        assert_eq!(linspace(5.0, 5.0, 3), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn param_axis_apply_sets_the_right_field() {
        let base = SystemParams::paper_six_version();
        assert_eq!(
            ParamAxis::MeanTimeToCompromise
                .apply(&base, 999.0)
                .mean_time_to_compromise,
            999.0
        );
        assert_eq!(ParamAxis::Alpha.apply(&base, 0.2).alpha, 0.2);
        assert_eq!(ParamAxis::HealthyInaccuracy.apply(&base, 0.02).p, 0.02);
        assert_eq!(
            ParamAxis::CompromisedInaccuracy.apply(&base, 0.7).p_prime,
            0.7
        );
        assert_eq!(
            ParamAxis::RejuvenationInterval
                .apply(&base, 450.0)
                .rejuvenation_interval,
            450.0
        );
        assert_eq!(
            ParamAxis::MeanTimeToFailure
                .apply(&base, 10.0)
                .mean_time_to_failure,
            10.0
        );
        assert_eq!(
            ParamAxis::MeanTimeToRepair
                .apply(&base, 5.0)
                .mean_time_to_repair,
            5.0
        );
        assert!(!ParamAxis::Alpha.label().is_empty());
    }

    #[test]
    fn sensitivity_signs_match_figure4() {
        let p6 = SystemParams::paper_six_version();
        // Larger p, p', alpha all hurt reliability (Figure 4 b-d).
        for axis in [
            ParamAxis::Alpha,
            ParamAxis::HealthyInaccuracy,
            ParamAxis::CompromisedInaccuracy,
        ] {
            let s = AnalysisEngine::new()
                .sensitivity(&p6, axis, RewardPolicy::FailedOnly)
                .unwrap();
            assert!(s < 0.0, "{axis:?} elasticity {s} should be negative");
        }
        // A longer mean time to compromise helps (Figure 4 a).
        let s = AnalysisEngine::new()
            .sensitivity(
                &p6,
                ParamAxis::MeanTimeToCompromise,
                RewardPolicy::FailedOnly,
            )
            .unwrap();
        assert!(s > 0.0, "1/lambda_c elasticity {s} should be positive");
    }

    #[test]
    fn sensitivity_profile_is_sorted_and_complete() {
        let p6 = SystemParams::paper_six_version();
        let profile = AnalysisEngine::new()
            .sensitivity_profile(&p6, RewardPolicy::FailedOnly)
            .unwrap();
        assert_eq!(profile.len(), 7, "all axes incl. rejuvenation interval");
        for w in profile.windows(2) {
            assert!(w[0].1.abs() >= w[1].1.abs());
        }
        let p4 = SystemParams::paper_four_version();
        let profile4 = AnalysisEngine::new()
            .sensitivity_profile(&p4, RewardPolicy::FailedOnly)
            .unwrap();
        assert_eq!(profile4.len(), 6, "no rejuvenation interval axis");
    }

    #[test]
    fn invalid_parameters_surface_as_errors() {
        let mut p = SystemParams::paper_six_version();
        p.alpha = 2.0;
        assert!(AnalysisEngine::new()
            .expected_reliability(&p, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .is_err());
    }

    #[test]
    fn tiny_budget_is_reported() {
        let p = SystemParams::paper_six_version();
        let err = AnalysisEngine::new()
            .expected_reliability(&p, RewardPolicy::FailedOnly, SolverBackend::Budget(3))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::Petri(nvp_petri::PetriError::StateSpaceExceeded { .. })
        ));
    }
}
