//! The paper's six-version answer, pinned to the bit.
//!
//! `E[R_sys]` of the six-version system at N = 6, 12 and 20 versions must
//! come out as exactly these bit patterns (the benchmark's reference bits),
//! on one worker and on the default worker count. Tolerance-based checks
//! elsewhere cannot see a change in the order of a floating-point sum; this
//! test fails on the first moved bit. The paper's configurations happen not
//! to move when duplicate matrix entries are summed in another order, so
//! one more row, N = 7 at a 90 s rejuvenation interval, pins one that does.

use nvp_perception::core::analysis::SolverBackend;
use nvp_perception::core::engine::AnalysisEngine;
use nvp_perception::core::params::SystemParams;
use nvp_perception::core::reliability::ReliabilitySource;
use nvp_perception::core::reward::RewardPolicy;
use nvp_perception::numerics::Jobs;

/// `(N, 1/γ in seconds, bits of E[R_sys])`: 0.9381725, 0.8691863 and
/// 0.7578832 to seven digits at the paper's 600 s interval, then the
/// summation-order row.
const REFERENCE_BITS: [(u32, f64, u64); 4] = [
    (6, 600.0, 0x3fee_0582_3bd6_6cfe),
    (12, 600.0, 0x3feb_d05f_c5a5_4fdb),
    (20, 600.0, 0x3fe8_4094_52e8_7297),
    (7, 90.0, 0x3fed_4f23_17c8_701b),
];

#[test]
fn six_version_expected_reliability_matches_its_reference_bits() {
    for (n, interval, bits) in REFERENCE_BITS {
        let params = SystemParams {
            n,
            rejuvenation_interval: interval,
            ..SystemParams::paper_six_version()
        };
        for jobs in [Jobs::Fixed(1), Jobs::Auto] {
            let value = AnalysisEngine::new()
                .with_jobs(jobs)
                .analyze(
                    &params,
                    RewardPolicy::FailedOnly,
                    ReliabilitySource::Auto,
                    SolverBackend::Auto,
                )
                .unwrap()
                .expected_reliability;
            assert_eq!(
                value.to_bits(),
                bits,
                "N={n} 1/γ={interval} {jobs:?}: E[R_sys] = {value} (bits {:#018x}), reference {bits:#018x}",
                value.to_bits()
            );
        }
    }
}
