//! The reliability function matrices `R_f4` and `R_f6` (equations 2 and 3).
//!
//! The paper arranges the state-wise reliability functions as sparse
//! matrices whose `(i, j)` element is `R_{i,j,k}` with `k = N − (i + j)`
//! (zero when the state violates the voting rule). This module materializes
//! that view for any [`ReliabilityModel`] — useful for inspection, reports,
//! and regression-testing whole configurations at once.

use super::ReliabilityModel;
use crate::state::SystemState;
use crate::Result;
use std::fmt;

/// A materialized reliability matrix: `value(i, j) = R_{i,j,N-i-j}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityMatrix {
    n: u32,
    /// Row-major `(n+1) × (n+1)`; row = healthy count `i`, column =
    /// compromised count `j`. Entries with `i + j > n` are `None`.
    entries: Vec<Option<f64>>,
}

impl ReliabilityMatrix {
    /// Evaluates `model` over the full state simplex of an `n`-module
    /// system.
    ///
    /// # Errors
    ///
    /// Propagates reliability-evaluation errors (invalid probabilities,
    /// mismatched `N`).
    pub fn evaluate(
        model: &ReliabilityModel,
        n: u32,
        p: f64,
        p_prime: f64,
        alpha: f64,
    ) -> Result<Self> {
        let dim = (n + 1) as usize;
        let mut entries = vec![None; dim * dim];
        for i in 0..=n {
            for j in 0..=(n - i) {
                let state = SystemState::new(i, j, n - i - j);
                let value = model.reliability(state, p, p_prime, alpha)?;
                entries[i as usize * dim + j as usize] = Some(value);
            }
        }
        Ok(ReliabilityMatrix { n, entries })
    }

    /// Number of modules `N`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `R_{i,j,N-i-j}`, or `None` when `i + j > N`.
    pub fn value(&self, healthy: u32, compromised: u32) -> Option<f64> {
        if healthy + compromised > self.n {
            return None;
        }
        let dim = (self.n + 1) as usize;
        self.entries[healthy as usize * dim + compromised as usize]
    }

    /// Iterates over all defined `(state, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SystemState, f64)> + '_ {
        let n = self.n;
        (0..=n).flat_map(move |i| {
            (0..=(n - i)).filter_map(move |j| {
                self.value(i, j)
                    .map(|v| (SystemState::new(i, j, n - i - j), v))
            })
        })
    }

    /// The number of states the voting rule covers (non-zero entries).
    #[cfg(test)]
    fn covered_states(&self) -> usize {
        self.iter().filter(|&(_, v)| v > 0.0).count()
    }
}

impl fmt::Display for ReliabilityMatrix {
    /// Renders the matrix in the paper's layout: rows by decreasing healthy
    /// count, columns by increasing compromised count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "R (N = {}): rows i = healthy (descending), cols j = compromised",
            self.n
        )?;
        for i in (0..=self.n).rev() {
            write!(f, "  i={i} |")?;
            for j in 0..=self.n {
                match self.value(i, j) {
                    Some(v) => write!(f, " {v:7.4}")?,
                    None => write!(f, "       ·")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::paper;

    const P: f64 = 0.08;
    const PP: f64 = 0.5;
    const A: f64 = 0.5;

    #[test]
    fn four_version_matrix_matches_functions() {
        let m =
            ReliabilityMatrix::evaluate(&ReliabilityModel::PaperFourVersion, 4, P, PP, A).unwrap();
        for (state, value) in m.iter() {
            let direct = paper::four_version(state, P, PP, A).unwrap();
            assert_eq!(value, direct, "state {state}");
        }
        // Eq. 2 has 9 non-zero entries.
        assert_eq!(m.covered_states(), 9);
    }

    #[test]
    fn six_version_matrix_has_18_covered_states() {
        let m =
            ReliabilityMatrix::evaluate(&ReliabilityModel::PaperSixVersion, 6, P, PP, A).unwrap();
        // Eq. 3 lists 18 non-zero entries (k ≤ 2).
        assert_eq!(m.covered_states(), 18);
        assert!((m.value(6, 0).unwrap() - 0.945).abs() < 1e-12);
        assert_eq!(m.value(0, 0), Some(0.0), "all-down state is uncovered");
    }

    #[test]
    fn out_of_simplex_is_none() {
        let m =
            ReliabilityMatrix::evaluate(&ReliabilityModel::PaperFourVersion, 4, P, PP, A).unwrap();
        assert_eq!(m.value(4, 1), None);
        assert_eq!(m.value(3, 2), None);
        assert!(m.value(4, 0).is_some());
    }

    #[test]
    fn display_renders_paper_layout() {
        let m =
            ReliabilityMatrix::evaluate(&ReliabilityModel::PaperFourVersion, 4, P, PP, A).unwrap();
        let text = m.to_string();
        assert!(text.contains("i=4"));
        assert!(text.contains("0.9500"));
        assert!(text.contains("·"), "out-of-simplex cells shown as dots");
    }

    #[test]
    fn generic_matrix_covers_expected_band() {
        let model = ReliabilityModel::Generic { n: 6, threshold: 4 };
        let m = ReliabilityMatrix::evaluate(&model, 6, P, PP, A).unwrap();
        // k ≤ 2 band: states with i + j ≥ 4. Count: for k=0: 7, k=1: 6,
        // k=2: 5 → 18 (all have non-zero reliability at these parameters).
        assert_eq!(m.covered_states(), 18);
    }
}
