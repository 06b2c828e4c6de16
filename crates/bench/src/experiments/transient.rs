//! Extension X5 — transient dependability, first-passage analysis, and
//! sensitivity elasticities (beyond the paper's steady-state view).
//!
//! * `R(t)` of the four-version system from a fresh start (analytic
//!   uniformization) with interval reliability over a mission day;
//! * mean time to quorum loss: analytic (absorption) for the four-version
//!   system, simulated (first passage over the DSPN) for the six-version
//!   rejuvenating system;
//! * elasticities of `E[R]` for both systems, quantifying §V-B's sensitivity
//!   discussion in a single number per parameter.

use super::RenderedExperiment;
use crate::report::{claims_table, ClaimCheck, NamedSeries, SweepSeries};
use crate::{Fidelity, Result};
use nvp_core::analysis::SolverBackend;
use nvp_core::dependability::{
    interval_reliability, mean_time_to_quorum_loss, transient_reliability,
};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::{ModulePlaces, RewardPolicy};
use nvp_sim::firstpassage::{first_passage_time, FirstPassageOptions};
use std::fmt::Write as _;

/// Runs the experiment and renders the report section.
///
/// # Errors
///
/// Analysis and simulation failures.
pub fn run(fidelity: Fidelity) -> Result<RenderedExperiment> {
    let engine = AnalysisEngine::new();
    let p4 = SystemParams::paper_four_version();
    let p6 = SystemParams::paper_six_version();
    let mut claims = Vec::new();

    // --- Transient reliability curve of the four-version system. ---
    let times: Vec<f64> = [
        0.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0, 86400.0,
    ]
    .to_vec();
    let curve = transient_reliability(&engine, &p4, RewardPolicy::FailedOnly, &times)?;
    let steady = engine.expected_reliability(&p4, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
    let fresh = curve[0].1;
    let at_day = curve.last().map(|&(_, r)| r).unwrap_or(0.0);
    claims.push(ClaimCheck {
        claim: "R(t) starts at the all-healthy reward and degrades towards the \
                steady state"
            .into(),
        paper: "n/a (extension)".into(),
        measured: format!("R(0) = {fresh:.4}, R(1 day) = {at_day:.4}, R(∞) = {steady:.4}"),
        // A day is ~57 compromise time-constants, so R(t) has essentially
        // converged by then; require degradation from fresh and no
        // undershoot below the steady state.
        holds: (fresh - 0.95).abs() < 1e-9 && at_day < fresh && at_day >= steady - 1e-6,
    });
    let day_interval = interval_reliability(&engine, &p4, RewardPolicy::FailedOnly, 86_400.0)?;
    claims.push(ClaimCheck {
        claim: "interval reliability over one mission day exceeds the steady state".into(),
        paper: "n/a (extension)".into(),
        measured: format!("{day_interval:.5} vs steady {steady:.5}"),
        holds: day_interval > steady,
    });

    // --- Mean time to quorum loss. ---
    let analytic_quorum = mean_time_to_quorum_loss(&engine, &p4)?;
    claims.push(ClaimCheck {
        claim: "mean time to quorum loss, four-version (analytic absorption)".into(),
        paper: "n/a (extension)".into(),
        measured: format!("{analytic_quorum:.3e} s"),
        holds: analytic_quorum.is_finite() && analytic_quorum > 1e6,
    });
    // Cross-check the analytic value by simulation on the same net.
    let replications = match fidelity {
        Fidelity::Full => 400,
        Fidelity::Quick => 120,
    };
    let net4 = nvp_core::model::build_model(&p4)?;
    let places4 = ModulePlaces::locate(&net4)?;
    let threshold4 = p4.voting_threshold();
    let fp4 = first_passage_time(
        &net4,
        |m| m.tokens(places4.healthy) + m.tokens(places4.compromised) < threshold4,
        &FirstPassageOptions {
            replications,
            seed: 99,
            max_time: 1e12,
        },
    )?;
    claims.push(ClaimCheck {
        claim: "simulated first passage confirms the analytic quorum-loss time".into(),
        paper: format!("{analytic_quorum:.3e} s (analytic)"),
        measured: format!(
            "{:.3e} ± {:.2e} s over {} replications",
            fp4.time.mean, fp4.time.half_width, fp4.hits
        ),
        holds: fp4.censored == 0 && fp4.time.covers(analytic_quorum, analytic_quorum * 0.05),
    });
    // Rejuvenating system: simulation only (deterministic clock). Quorum
    // loss needs three modules simultaneously unavailable while failures
    // last only 3 s, so the expected time is astronomically long; the run
    // is censored at a horizon already far beyond the four-version value,
    // and heavy censoring *is* the result: the six-version system holds its
    // quorum longer than the censoring horizon in most replications.
    let (reps6, horizon6) = match fidelity {
        Fidelity::Full => (24, 2e8),
        Fidelity::Quick => (8, 5e7),
    };
    let net6 = nvp_core::model::build_model(&p6)?;
    let places6 = ModulePlaces::locate(&net6)?;
    let threshold6 = p6.voting_threshold();
    let fp6 = first_passage_time(
        &net6,
        |m| m.tokens(places6.healthy) + m.tokens(places6.compromised) < threshold6,
        &FirstPassageOptions {
            replications: reps6,
            seed: 100,
            max_time: horizon6,
        },
    )?;
    claims.push(ClaimCheck {
        claim: "six-version quorum survives far beyond the four-version loss time \
                (simulated first passage, censored horizon)"
            .into(),
        paper: "n/a (extension)".into(),
        measured: format!(
            "{} of {} replications still had quorum at {horizon6:.1e} s \
             (four-version loses it after {analytic_quorum:.2e} s on average)",
            fp6.censored, reps6
        ),
        holds: horizon6 > 2.0 * analytic_quorum && fp6.censored * 2 > reps6,
    });

    // --- Sensitivity elasticities. ---
    let mut sens_md = String::from(
        "\nElasticities (x/R · dR/dx) at the defaults, sorted by magnitude:\n\n\
         | axis | four-version | six-version |\n|---|---|---|\n",
    );
    let prof4 = engine.sensitivity_profile(&p4, RewardPolicy::FailedOnly)?;
    let prof6 = engine.sensitivity_profile(&p6, RewardPolicy::FailedOnly)?;
    for (axis, s6) in &prof6 {
        let s4 = prof4
            .iter()
            .find(|(a, _)| a == axis)
            .map(|&(_, s)| format!("{s:+.4}"))
            .unwrap_or_else(|| "—".into());
        let _ = writeln!(sens_md, "| {} | {} | {:+.4} |", axis.label(), s4, s6);
    }
    let pprime_dominates = prof4
        .first()
        .is_some_and(|(a, _)| *a == nvp_core::analysis::ParamAxis::CompromisedInaccuracy);
    claims.push(ClaimCheck {
        claim: "p' is the dominant sensitivity of the non-rejuvenating system \
                (it spends most time compromised)"
            .into(),
        paper: "§V-B: \"opting for a system with rejuvenation may cover broader \
                scenarios\" when p' is unknown"
            .into(),
        measured: format!(
            "top four-version elasticity: {} ({:+.4})",
            prof4[0].0.label(),
            prof4[0].1
        ),
        holds: pprime_dominates,
    });

    let series = SweepSeries {
        axis_label: "mission time t [s]".into(),
        value_label: "R(t)".into(),
        series: vec![NamedSeries {
            name: "four-version transient reliability".into(),
            points: curve,
        }],
    };
    let markdown = format!(
        "{}\n{}\n{}",
        claims_table(&claims),
        series.to_markdown(),
        sens_md
    );
    Ok(RenderedExperiment {
        id: "transient",
        title: "X5 — transient dependability, quorum loss, sensitivities".into(),
        markdown,
        csv: vec![("transient_r_of_t.csv".into(), series.to_csv())],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_experiment_claims_hold() {
        let r = run(Fidelity::Quick).unwrap();
        assert!(!r.markdown.contains("❌"), "{}", r.markdown);
        assert!(r.markdown.contains("Elasticities"));
    }
}
