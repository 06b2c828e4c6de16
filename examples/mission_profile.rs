//! Mission-profile analysis: reliability over time, not just in steady
//! state.
//!
//! The paper evaluates long-run (steady-state) output reliability. For a
//! bounded mission — a delivery run, a test drive — the transient picture
//! matters: a freshly rejuvenated fleet starts healthier than its long-run
//! average. This example uses the reproduction's dependability extensions:
//!
//! * `R(t)` — output reliability at mission time `t` (analytic, four-version);
//! * interval reliability — average over the whole mission window;
//! * mean time to quorum loss — when does voting become impossible?
//!   (analytic absorption for the four-version system, simulated first
//!   passage for the rejuvenating six-version system).
//!
//! ```text
//! cargo run --release --example mission_profile
//! ```

use nvp_perception::core::dependability::{
    interval_reliability, mean_time_to_quorum_loss, transient_reliability,
};
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reward::{ModulePlaces, RewardPolicy};
use nvp_perception::sim::firstpassage::{first_passage_time, FirstPassageOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = AnalysisEngine::new();
    let four = SystemParams::paper_four_version();

    println!("Four-version system: output reliability over mission time");
    println!("  t [min]   R(t)");
    let minutes = [0.0, 5.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0];
    let times: Vec<f64> = minutes.iter().map(|m| m * 60.0).collect();
    for (t, r) in transient_reliability(&engine, &four, RewardPolicy::FailedOnly, &times)? {
        println!("  {:7.0}   {r:.5}", t / 60.0);
    }

    for hours in [1.0, 8.0, 24.0] {
        let avg = interval_reliability(&engine, &four, RewardPolicy::FailedOnly, hours * 3600.0)?;
        println!("  average over a {hours:>4.0}-hour mission: {avg:.5}");
    }

    // When does voting become impossible altogether?
    let analytic = mean_time_to_quorum_loss(&engine, &four)?;
    println!("\nMean time until the 3-of-4 voter loses its quorum:");
    println!(
        "  analytic (absorption): {:.2e} s  (~{:.0} days)",
        analytic,
        analytic / 86_400.0
    );

    // The rejuvenating six-version system needs the simulator (its clock is
    // deterministic). Ten replications with a one-year cap illustrate the
    // scale difference.
    let six = SystemParams::paper_six_version();
    let net = nvp_perception::core::model::build_model(&six)?;
    let places = ModulePlaces::locate(&net)?;
    let threshold = six.voting_threshold();
    let year = 365.25 * 86_400.0;
    let fp = first_passage_time(
        &net,
        |m| m.tokens(places.healthy) + m.tokens(places.compromised) < threshold,
        &FirstPassageOptions {
            replications: 10,
            seed: 11,
            max_time: year,
        },
    )?;
    println!("\nSix-version system with rejuvenation (simulated, 1-year cap):");
    println!(
        "  {} of 10 replications kept their 4-of-6 quorum for a full year{}",
        fp.censored,
        if fp.hits > 0 {
            format!(
                "; the {} that lost it did so after {:.2e} s on average",
                fp.hits, fp.time.mean
            )
        } else {
            String::new()
        }
    );
    Ok(())
}
