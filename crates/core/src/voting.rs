//! Voting schemes for deciding the final perception output.
//!
//! The DSPN analysis embeds voting *statistically* through the reliability
//! functions; this module provides the same schemes *operationally* so the
//! per-request simulator (`nvp-sim`) can apply them to concrete module
//! outputs and cross-validate the analytic results.

use crate::params::SystemParams;

/// Outcome of a vote on one perception request (§IV-B, assumptions A.2/A.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Enough modules agreed on the correct output.
    Correct,
    /// Enough modules agreed on a wrong output — a perception error.
    Error,
    /// Neither side reached the threshold; the voter safely skips the
    /// request ("inconclusive but safe").
    Inconclusive,
}

/// Tally of module outputs for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoteTally {
    /// Modules that produced the correct output.
    pub correct: u32,
    /// Modules that produced a wrong output.
    pub incorrect: u32,
    /// Modules unable to respond (non-operational or rejuvenating).
    pub absent: u32,
}

impl VoteTally {
    /// Creates a tally.
    pub fn new(correct: u32, incorrect: u32, absent: u32) -> Self {
        VoteTally {
            correct,
            incorrect,
            absent,
        }
    }

    /// Total number of modules in the system.
    pub fn total(&self) -> u32 {
        self.correct + self.incorrect + self.absent
    }
}

/// A voting scheme.
///
/// # Example
///
/// The paper's six-version 4-out-of-6 vote (assumption A.3):
///
/// ```
/// use nvp_core::voting::{Verdict, VoteTally, VotingScheme};
///
/// let scheme = VotingScheme::BftThreshold { threshold: 4 };
/// assert_eq!(scheme.decide(VoteTally::new(4, 1, 1)), Verdict::Correct);
/// assert_eq!(scheme.decide(VoteTally::new(1, 4, 1)), Verdict::Error);
/// assert_eq!(scheme.decide(VoteTally::new(3, 2, 1)), Verdict::Inconclusive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VotingScheme {
    /// BFT-style threshold voting: `Correct` with ≥ `threshold` correct
    /// outputs, `Error` with ≥ `threshold` wrong outputs, otherwise
    /// inconclusive. The paper uses `threshold = 2f + 1` without
    /// rejuvenation and `2f + r + 1` with it.
    BftThreshold {
        /// Number of agreeing outputs required.
        threshold: u32,
    },
    /// Simple majority of all `N` modules (e.g. 2-out-of-3).
    Majority,
    /// All `N` modules must agree (e.g. 5-out-of-5 in PolygraphMR).
    Unanimity,
}

impl VotingScheme {
    /// The scheme the paper's models assume for the given parameters.
    pub fn for_params(params: &SystemParams) -> Self {
        VotingScheme::BftThreshold {
            threshold: params.voting_threshold(),
        }
    }

    /// Decides the outcome of a vote.
    pub fn decide(&self, tally: VoteTally) -> Verdict {
        let total = tally.total();
        match *self {
            VotingScheme::BftThreshold { threshold } => {
                if tally.correct >= threshold {
                    Verdict::Correct
                } else if tally.incorrect >= threshold {
                    Verdict::Error
                } else {
                    Verdict::Inconclusive
                }
            }
            VotingScheme::Majority => {
                let threshold = total / 2 + 1;
                if tally.correct >= threshold {
                    Verdict::Correct
                } else if tally.incorrect >= threshold {
                    Verdict::Error
                } else {
                    Verdict::Inconclusive
                }
            }
            VotingScheme::Unanimity => {
                if total > 0 && tally.correct == total {
                    Verdict::Correct
                } else if total > 0 && tally.incorrect == total {
                    Verdict::Error
                } else {
                    Verdict::Inconclusive
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bft_threshold_matches_paper_examples() {
        // Four-version system, f = 1: threshold 3 (assumption A.2).
        let scheme = VotingScheme::BftThreshold { threshold: 3 };
        assert_eq!(scheme.decide(VoteTally::new(3, 1, 0)), Verdict::Correct);
        assert_eq!(scheme.decide(VoteTally::new(4, 0, 0)), Verdict::Correct);
        assert_eq!(scheme.decide(VoteTally::new(1, 3, 0)), Verdict::Error);
        assert_eq!(
            scheme.decide(VoteTally::new(2, 2, 0)),
            Verdict::Inconclusive
        );
        assert_eq!(
            scheme.decide(VoteTally::new(2, 1, 1)),
            Verdict::Inconclusive
        );

        // Six-version system, f = 1, r = 1: threshold 4 (assumption A.3,
        // "4-out-of-6 voting").
        let scheme = VotingScheme::BftThreshold { threshold: 4 };
        assert_eq!(scheme.decide(VoteTally::new(4, 2, 0)), Verdict::Correct);
        assert_eq!(scheme.decide(VoteTally::new(2, 4, 0)), Verdict::Error);
        assert_eq!(
            scheme.decide(VoteTally::new(3, 3, 0)),
            Verdict::Inconclusive
        );
        assert_eq!(
            scheme.decide(VoteTally::new(3, 2, 1)),
            Verdict::Inconclusive
        );
    }

    #[test]
    fn scheme_for_params_uses_bft_thresholds() {
        let p4 = SystemParams::paper_four_version();
        assert_eq!(
            VotingScheme::for_params(&p4),
            VotingScheme::BftThreshold { threshold: 3 }
        );
        let p6 = SystemParams::paper_six_version();
        assert_eq!(
            VotingScheme::for_params(&p6),
            VotingScheme::BftThreshold { threshold: 4 }
        );
    }

    #[test]
    fn majority_uses_half_plus_one_of_all_modules() {
        let scheme = VotingScheme::Majority;
        assert_eq!(scheme.decide(VoteTally::new(2, 1, 0)), Verdict::Correct);
        assert_eq!(scheme.decide(VoteTally::new(1, 2, 0)), Verdict::Error);
        // Absent modules still count towards the majority base.
        assert_eq!(
            scheme.decide(VoteTally::new(2, 0, 2)),
            Verdict::Inconclusive
        );
        assert_eq!(scheme.decide(VoteTally::new(3, 0, 2)), Verdict::Correct);
    }

    #[test]
    fn unanimity_requires_full_agreement() {
        let scheme = VotingScheme::Unanimity;
        assert_eq!(scheme.decide(VoteTally::new(5, 0, 0)), Verdict::Correct);
        assert_eq!(scheme.decide(VoteTally::new(0, 5, 0)), Verdict::Error);
        assert_eq!(
            scheme.decide(VoteTally::new(4, 1, 0)),
            Verdict::Inconclusive
        );
        assert_eq!(
            scheme.decide(VoteTally::new(4, 0, 1)),
            Verdict::Inconclusive
        );
        assert_eq!(
            scheme.decide(VoteTally::new(0, 0, 0)),
            Verdict::Inconclusive
        );
    }
}
