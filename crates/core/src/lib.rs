//! Reliability models for N-version perception systems with software
//! rejuvenation.
//!
//! This crate implements the contribution of *"Enhancing the Reliability of
//! Perception Systems using N-version Programming and Rejuvenation"*
//! (Mendonça, Machida, Völp — DSN 2023):
//!
//! * [`params`] — the system parameters of the paper's Table II;
//! * [`state`] — system states `(i, j, k)` counting healthy, compromised and
//!   non-operational ML modules;
//! * [`reliability`] — the state-wise output-reliability functions: the
//!   appendix formulas for the four- and six-version systems *as printed*,
//!   and a first-principles generalization to arbitrary `(N, f, r)`;
//! * [`voting`] — BFT-style voting schemes (`2f+1`, `2f+r+1`, majority,
//!   unanimity) applied to individual perception requests;
//! * [`model`] — builders for the DSPNs of the paper's Figure 2 (a: fault
//!   and repair only; b+c: time-based rejuvenation with guard functions and
//!   marking-dependent arc weights from Table I);
//! * [`reward`] — the mapping from DSPN markings to reliability rewards,
//!   including the two documented interpretations of how rejuvenating
//!   modules are counted;
//! * [`analysis`] — the vocabulary of an analysis: solver backends, report
//!   types, sweep axes and grids;
//! * [`engine`] — the memoizing [`engine::AnalysisEngine`] that runs every
//!   analysis: expected output reliability `E[R_sys] = Σ π·R` (equation 1),
//!   parameter sweeps, optimal-rejuvenation-interval search and crossover
//!   analysis. It caches the expensive chain stage (model build,
//!   exploration, steady-state solve) across reward-parameter variations
//!   and exposes solver statistics ([`engine::SolverStats`]);
//! * [`request`] — the one request model `nvp analyze`, `nvp sweep` and
//!   `nvp serve` share: the request keys, their flag and JSON forms, and
//!   the rules every request obeys;
//! * [`jobs`] — the asynchronous job table long-lived engine hosts
//!   (`nvp serve`) use to track submitted analyses and sweeps, with a
//!   per-point progress journal and bounded retention;
//! * [`dependability`] — extensions beyond the paper's steady-state view:
//!   transient reliability `R(t)`, interval reliability, and the mean time
//!   to quorum loss.
//!
//! # Example
//!
//! ```
//! use nvp_core::analysis::SolverBackend;
//! use nvp_core::engine::AnalysisEngine;
//! use nvp_core::params::SystemParams;
//! use nvp_core::reward::RewardPolicy;
//!
//! # fn main() -> Result<(), nvp_core::CoreError> {
//! let engine = AnalysisEngine::new();
//! let four = SystemParams::paper_four_version();
//! let r4 = engine.expected_reliability(&four, RewardPolicy::FailedOnly, SolverBackend::Auto)?;
//! assert!((r4 - 0.8223).abs() < 1e-3); // paper reports 0.8233477
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dependability;
pub mod engine;
pub mod error;
pub mod jobs;
pub mod model;
pub mod params;
pub mod reliability;
pub mod report;
pub mod request;
pub mod reward;
pub mod state;
pub mod voting;

pub use error::CoreError;

/// Convenient result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, CoreError>;
