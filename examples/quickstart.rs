//! Quickstart: reproduce the paper's headline result in a few lines.
//!
//! Computes the expected output reliability of the four-version perception
//! system (no rejuvenation) and the six-version system with time-based
//! rejuvenation, at the paper's Table II defaults.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nvp_perception::core::analysis::SolverBackend;
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reliability::ReliabilitySource;
use nvp_perception::core::reward::RewardPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = AnalysisEngine::new();
    let four = SystemParams::paper_four_version();
    let six = SystemParams::paper_six_version();

    let r4 = engine.expected_reliability(&four, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
    let r6 = engine.expected_reliability(&six, RewardPolicy::FailedOnly, SolverBackend::Auto)?;

    println!("N-version perception systems at the paper's defaults (Table II):");
    println!("  four-version, no rejuvenation : E[R] = {r4:.7}  (paper: 0.8233477)");
    println!("  six-version, rejuvenation     : E[R] = {r6:.7}  (paper: 0.93464665)");
    println!(
        "  improvement from rejuvenation : {:.2}%  (paper: \"superior to 13%\")",
        (r6 - r4) / r4 * 100.0
    );

    // Where does the six-version system spend its time?
    println!("\nMost likely system states of the six-version system:");
    println!("  (healthy, compromised, failed) +rejuvenating  probability  R_state");
    let report = engine.analyze(
        &six,
        RewardPolicy::FailedOnly,
        ReliabilitySource::Auto,
        SolverBackend::Auto,
    )?;
    for s in report.states.iter().take(6) {
        println!(
            "  {} +{}   {:>10.6}  {:.4}",
            s.state, s.rejuvenating, s.probability, s.reliability
        );
    }
    Ok(())
}
