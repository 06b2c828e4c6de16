//! Tuning the rejuvenation interval for a deployment.
//!
//! The paper's Figure 3 shows that the rejuvenation interval `1/γ` has an
//! interior optimum: rejuvenate too rarely and compromised modules
//! accumulate; too often and the system keeps sacrificing a healthy module
//! to the rejuvenation downtime. The optimum depends on how fast modules
//! get compromised, so an operator should re-tune it per threat environment.
//!
//! This example computes the optimal interval for several threat levels
//! (mean time to compromise) and prints a tuning table.
//!
//! ```text
//! cargo run --release --example rejuvenation_tuning
//! ```

use nvp_perception::core::analysis::{ParamAxis, SolverBackend};
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reward::RewardPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = AnalysisEngine::new();
    let base = SystemParams::paper_six_version();
    println!("Optimal rejuvenation interval per threat level (six-version system):");
    println!();
    println!("  mean time to     optimal       E[R] at      E[R] at paper's");
    println!("  compromise [s]   interval [s]  optimum      default (600 s)");

    for mttc in [500.0, 1000.0, 1523.0, 2500.0, 5000.0, 10000.0] {
        let params = ParamAxis::MeanTimeToCompromise.apply(&base, mttc);
        let (best_interval, best_value) = engine.optimal_rejuvenation_interval(
            &params,
            100.0,
            3000.0,
            RewardPolicy::FailedOnly,
        )?;
        let at_default =
            engine.expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
        println!("  {mttc:>12.0}   {best_interval:>10.0}   {best_value:.6}     {at_default:.6}");
    }

    println!();
    println!(
        "Reading the table: under heavier attack (small mean time to \
         compromise) the optimal interval shrinks — the system should \
         rejuvenate more aggressively — and tuning matters more (at \
         1/lambda_c = 500 s the default interval forfeits ~0.09 of \
         reliability). At the paper's default threat level the 600 s \
         default is near-optimal, while for slow-degrading deployments the \
         optimum drifts past 40 minutes and the curve flattens out."
    );
    Ok(())
}
