//! Autonomous-vehicle perception under attack: an end-to-end scenario.
//!
//! An AV perception stack runs six diverse traffic-sign classifiers behind a
//! 4-out-of-6 BFT voter (f = 1 compromised module tolerated, r = 1 module
//! rejuvenating). Adversarial attacks degrade one module at a time
//! (mean 1523 s, the MTBF Oboril et al. report for AV perception); degraded
//! modules eventually crash and are repaired in 3 s.
//!
//! The example contrasts the architecture decision the paper studies:
//!
//! 1. analytic expected output reliability with and without rejuvenation;
//! 2. a simulated drive: perception requests sampled along the
//!    fault/rejuvenation trajectory, voted label by label.
//!
//! ```text
//! cargo run --release --example autonomous_vehicle
//! ```

use nvp_perception::core::analysis::SolverBackend;
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reward::RewardPolicy;
use nvp_perception::core::state::SystemState;
use nvp_perception::core::voting::VotingScheme;
use nvp_perception::sim::perception::LabelPipeline;
use nvp_perception::sim::scenario::{run_scenario, ScenarioOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = AnalysisEngine::new();
    // --- Architecture comparison (the paper's headline question). ---
    let without = SystemParams::paper_four_version();
    let with = SystemParams::paper_six_version();
    let r_without =
        engine.expected_reliability(&without, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
    let r_with =
        engine.expected_reliability(&with, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
    println!("AV perception output reliability (analytic, steady state):");
    println!("  4 classifiers, 3-of-4 voter, no rejuvenation : {r_without:.5}");
    println!("  6 classifiers, 4-of-6 voter, 10-min rejuvenation: {r_with:.5}");

    // --- A simulated 8-hour drive with ~1 perception decision per second is
    //     too slow for an example; simulate a fleet-scale trace instead:
    //     2 weeks of operation, one voted decision every 20 s. ---
    let outcome = run_scenario(
        &with,
        &ScenarioOptions {
            sim: nvp_perception::sim::dspn::SimOptions {
                horizon: 14.0 * 24.0 * 3600.0,
                warmup: 3600.0,
                seed: 2023,
                batches: 14,
            },
            request_rate: 1.0 / 20.0,
        },
    )?;
    let stats = outcome.requests;
    println!("\nSimulated two-week trace (six-version, rejuvenating):");
    println!("  voted decisions : {}", stats.total());
    println!("  correct         : {}", stats.correct);
    println!("  perception error: {}", stats.error);
    println!("  safely skipped  : {}", stats.inconclusive);
    println!("  output reliability: {:.5}", stats.reliability());

    // --- Label-level view: 43-class traffic-sign task (GTSRB-like). ---
    // In the worst operational state the paper's matrix still covers
    // ((2, 4, 0): two healthy, four compromised), compare the abstract
    // model's verdicts with voting on concrete labels.
    let state = SystemState::new(2, 4, 0);
    let pipeline = LabelPipeline {
        classes: 43,
        p: with.p,
        alpha: with.alpha,
        threshold: with.voting_threshold(),
    };
    let label_stats = pipeline.run(state, 200_000, 7);
    println!("\nLabel-level voting in state {state} (43-class synthetic signs):");
    println!(
        "  output reliability: {:.5} (abstract-model bound: {:.5})",
        label_stats.reliability(),
        1.0 - nvp_perception::core::reliability::generic::error_probability(
            state,
            with.voting_threshold(),
            with.p,
            with.p_prime,
            with.alpha,
        )
    );
    println!(
        "  randomly-misbehaving classifiers rarely agree on the same wrong \
         label, so exact-label voting errs less often."
    );

    // Show the voter in action on one borderline tally.
    let scheme = VotingScheme::for_params(&with);
    let verdict = scheme.decide(nvp_perception::core::voting::VoteTally::new(3, 2, 1));
    println!("\nVoter demo: 3 correct / 2 wrong / 1 rejuvenating -> {verdict:?} (safe skip)");
    Ok(())
}
