//! # nvp-perception
//!
//! Umbrella crate for the reproduction of *"Enhancing the Reliability of
//! Perception Systems using N-version Programming and Rejuvenation"*
//! (Mendonça, Machida, Völp — DSN 2023).
//!
//! This crate re-exports the workspace's component crates under a single
//! dependency:
//!
//! * [`numerics`] — dense/sparse linear algebra, CTMC/DTMC solvers,
//!   uniformization, scalar optimization;
//! * [`petri`] — deterministic and stochastic Petri nets (DSPNs): structure,
//!   marking-expression language, reachability analysis;
//! * [`mrgp`] — Markov-regenerative steady-state solver for DSPNs;
//! * [`core`] — the paper's models: parameters, reliability functions,
//!   voting schemes, DSPN builders and reliability analyses;
//! * [`sim`] — discrete-event simulation of DSPNs and a per-request
//!   perception-pipeline simulator.
//!
//! # Quickstart
//!
//! Compute the paper's two headline numbers (§V-B):
//!
//! ```
//! use nvp_perception::core::analysis::SolverBackend;
//! use nvp_perception::core::engine::AnalysisEngine;
//! use nvp_perception::core::params::SystemParams;
//! use nvp_perception::core::reward::RewardPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = AnalysisEngine::new();
//! let four = SystemParams::paper_four_version();
//! let six = SystemParams::paper_six_version();
//! let r4 = engine.expected_reliability(&four, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
//! let r6 = engine.expected_reliability(&six, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
//! assert!(r6 > r4, "rejuvenation should win at the paper's defaults");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nvp_core as core;
pub use nvp_mrgp as mrgp;
pub use nvp_numerics as numerics;
pub use nvp_petri as petri;
pub use nvp_sim as sim;
