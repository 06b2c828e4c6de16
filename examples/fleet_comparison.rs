//! Comparing N-version architectures for a deployment budget.
//!
//! Given a budget of module replicas, which `(N, f, r)` architecture and
//! voting threshold should a deployment pick? This example uses the generic
//! reliability model to evaluate a family of BFT-compatible configurations
//! under the paper's default fault environment, including the
//! counter-intuitive finding that spare replicas beyond the `3f + 2r + 1`
//! minimum *reduce* output reliability when the voting threshold stays at
//! `2f + r + 1`.
//!
//! ```text
//! cargo run --release --example fleet_comparison
//! ```

use nvp_perception::core::analysis::SolverBackend;
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reliability::ReliabilitySource;
use nvp_perception::core::reward::RewardPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = AnalysisEngine::new();
    println!("Architecture comparison at the paper's default fault environment");
    println!("(generic first-principles reliability model, FailedOnly rewards):");
    println!();
    println!("  N   f  r  rejuvenation  threshold  E[R_sys]");

    let configs: &[(u32, u32, u32, bool)] = &[
        (4, 1, 1, false),
        (5, 1, 1, false),
        (6, 1, 1, false),
        (6, 1, 1, true),
        (7, 1, 1, true),
        (8, 1, 1, true),
        (7, 2, 1, false),
        (9, 2, 1, true),
        (11, 2, 2, true),
    ];
    let mut best: Option<(f64, String)> = None;
    for &(n, f, r, rejuvenation) in configs {
        let params = SystemParams::builder()
            .n(n)
            .f(f)
            .r(r)
            .rejuvenation(rejuvenation)
            .build()?;
        let report = engine.analyze(
            &params,
            RewardPolicy::FailedOnly,
            ReliabilitySource::Generic,
            SolverBackend::Auto,
        )?;
        let reliability = report.expected_reliability;
        println!(
            "  {n:<3} {f}  {r}  {:<12} {:<9}  {reliability:.6}",
            if rejuvenation { "yes" } else { "no" },
            params.voting_threshold()
        );
        let label = format!("N={n}, f={f}, r={r}, rejuvenation={rejuvenation}");
        if best.as_ref().is_none_or(|(b, _)| reliability > *b) {
            best = Some((reliability, label));
        }
    }

    if let Some((value, label)) = best {
        println!();
        println!("Best architecture of the candidates: {label} (E[R] = {value:.6})");
    }
    println!();
    println!(
        "Two effects visible above: (1) adding rejuvenation to a six-replica \
         fleet beats any non-rejuvenating option, exactly the paper's thesis; \
         (2) replicas beyond the BFT minimum 3f+2r+1 *hurt* under a fixed \
         2f+r+1 threshold, because extra voters add ways to assemble a wrong \
         quorum without making the right quorum easier."
    );
    Ok(())
}
