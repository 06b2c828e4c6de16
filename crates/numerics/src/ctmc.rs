//! Continuous-time Markov chains: transient distributions and accumulated
//! sojourn times by uniformization.
//!
//! A CTMC is defined by its off-diagonal transition rates.
//! [`Ctmc::transient_and_sojourn`] computes, in one uniformization series,
//! the state distribution at time `t` from an initial distribution and the
//! expected time spent in each state during `[0, t]` (the integral
//! `∫₀ᵗ π(s) ds`). The MRGP solver uses the pair as a deterministic
//! transition's embedded-chain row and conversion factors.
//!
//! Stationary distributions are not computed here: a DSPN with no
//! deterministic transition is solved by the MRGP solver (`nvp-mrgp`)
//! through its embedded jump chain, and a stochastic matrix such as
//! [`Ctmc::uniformize`]'s by [`crate::dtmc::stationary_distribution`].

use crate::poisson::{cumulative, poisson_weights};
use crate::sparse::{axpy, CsrBuilder, CsrMatrix};
use crate::{NumericsError, Result};

/// Diagnostics from one uniformization series
/// ([`Ctmc::transient_and_sojourn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransientStats {
    /// Poisson-series length the truncation produced (number of weights).
    pub series_len: usize,
}

impl TransientStats {
    /// Truncation depth of the series: always [`TransientStats::series_len`],
    /// since every term is one matrix product. Kept because the benchmark
    /// reads it under this name.
    pub fn truncation_steps(&self) -> usize {
        self.series_len
    }
}

/// A continuous-time Markov chain over states `0..n`.
///
/// # Example
///
/// A machine that fails at rate 0.5 and is repaired at rate 1.5, observed
/// from a healthy start:
///
/// ```
/// use nvp_numerics::ctmc::Ctmc;
///
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let mut chain = Ctmc::new(2);
/// chain.add_rate(0, 1, 0.5)?; // up -> down
/// chain.add_rate(1, 0, 1.5)?; // down -> up
/// let (at_t, sojourn, _) = chain.transient_and_sojourn(&[1.0, 0.0], 2.0, 1e-13)?;
/// // p_up(t) = 3/4 + 1/4 · e^{-2t}
/// assert!((at_t[0] - (0.75 + 0.25 * (-4.0f64).exp())).abs() < 1e-10);
/// // The time spent up or down over [0, 2] adds up to 2.
/// assert!((sojourn.iter().sum::<f64>() - 2.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    transitions: Vec<(usize, usize, f64)>,
}

impl Ctmc {
    /// Creates an empty chain over `n` states.
    pub fn new(n: usize) -> Self {
        Ctmc {
            n,
            transitions: Vec::new(),
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Adds a transition `from → to` with the given `rate`.
    ///
    /// Multiple transitions between the same pair of states are summed.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::IndexOutOfBounds`] if either state is out of range.
    /// * [`NumericsError::InvalidValue`] if the rate is not finite and
    ///   positive, or `from == to` (self-loops carry no meaning in a CTMC).
    pub fn add_rate(&mut self, from: usize, to: usize, rate: f64) -> Result<()> {
        if from >= self.n {
            return Err(NumericsError::IndexOutOfBounds {
                index: from,
                len: self.n,
            });
        }
        if to >= self.n {
            return Err(NumericsError::IndexOutOfBounds {
                index: to,
                len: self.n,
            });
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(NumericsError::InvalidValue {
                what: "rate",
                value: rate,
            });
        }
        if from == to {
            return Err(NumericsError::InvalidValue {
                what: "self-loop rate (from == to)",
                value: rate,
            });
        }
        self.transitions.push((from, to, rate));
        Ok(())
    }

    /// Total exit rate of each state.
    pub fn exit_rates(&self) -> Vec<f64> {
        let mut rates = vec![0.0; self.n];
        for &(from, _, rate) in &self.transitions {
            rates[from] += rate;
        }
        rates
    }

    /// Builds the infinitesimal generator `Q` (with negative diagonal) in
    /// sparse form.
    pub fn generator(&self) -> CsrMatrix {
        let mut b = CsrBuilder::new(self.n, self.n);
        for &(from, to, rate) in &self.transitions {
            b.push(from, to, rate);
            b.push(from, from, -rate);
        }
        b.build()
    }

    /// Uniformizes the chain: returns the stochastic matrix
    /// `P = I + Q / Λ` and the uniformization rate `Λ`.
    ///
    /// `Λ` is chosen slightly above the largest exit rate so every diagonal
    /// entry of `P` stays strictly positive, which makes the embedded chain
    /// aperiodic.
    pub fn uniformize(&self) -> (CsrMatrix, f64) {
        let exit = self.exit_rates();
        let max_exit = exit.iter().cloned().fold(0.0f64, f64::max);
        let lambda = if max_exit > 0.0 { max_exit * 1.02 } else { 1.0 };
        let mut b = CsrBuilder::new(self.n, self.n);
        for (s, &exit_rate) in exit.iter().enumerate() {
            b.push(s, s, 1.0 - exit_rate / lambda);
        }
        for &(from, to, rate) in &self.transitions {
            b.push(from, to, rate / lambda);
        }
        (b.build(), lambda)
    }

    /// Computes the transient distribution `π(t) = π₀ · e^{Qt}` and the
    /// accumulated sojourn times `L(t) = ∫₀ᵗ π(s) ds` by uniformization,
    /// truncating the Poisson series at mass `1 - epsilon`. `L(t)[s]` is the
    /// expected total time spent in state `s` during `[0, t]`; its entries
    /// sum to `t` up to the truncation error `epsilon · t`.
    ///
    /// Both quantities share the uniformized power sequence `π₀ Pᵏ`, so one
    /// series and one set of sparse products yields both: the MRGP solver
    /// uses `π(τ)` as a subordinated chain's embedded-chain row and `L(τ)`
    /// as its conversion factors. The iterate is advanced through two
    /// ping-pong buffers, with no allocation per step.
    ///
    /// The transient part is `Σ_k P(K=k) π₀ Pᵏ`; the sojourn part is
    /// `(1/Λ) Σ_k [1 - F(k)] π₀ Pᵏ` (the series telescopes to `Λt`, and
    /// keeping terms one step beyond the probability truncation point keeps
    /// the integral error of the same order).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `pi0.len() != n`.
    /// * [`NumericsError::InvalidValue`] if `t` is negative or not finite, or
    ///   `epsilon` is out of range.
    pub fn transient_and_sojourn(
        &self,
        pi0: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<(Vec<f64>, Vec<f64>, TransientStats)> {
        if pi0.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("initial distribution of length {}", self.n),
                actual: format!("length {}", pi0.len()),
            });
        }
        if !t.is_finite() || t < 0.0 {
            return Err(NumericsError::InvalidValue {
                what: "t",
                value: t,
            });
        }
        if t == 0.0 {
            return Ok((pi0.to_vec(), vec![0.0; self.n], TransientStats::default()));
        }
        let (p, lambda) = self.uniformize();
        let weights = poisson_weights(lambda * t, epsilon)?;
        let cdf = cumulative(&weights.weights);
        let mut power = pi0.to_vec(); // π₀ Pᵏ
        let mut scratch = vec![0.0; self.n];
        let mut at_t = vec![0.0; self.n];
        let mut sojourn = vec![0.0; self.n];
        for (k, (&w, &fk)) in weights.weights.iter().zip(&cdf).enumerate() {
            if k > 0 {
                p.vecmat_into(&power, &mut scratch);
                std::mem::swap(&mut power, &mut scratch);
            }
            axpy(&mut at_t, w, &power);
            let coeff = (1.0 - fk).max(0.0) / lambda;
            if coeff != 0.0 {
                axpy(&mut sojourn, coeff, &power);
            }
        }
        let stats = TransientStats {
            series_len: weights.weights.len(),
        };
        Ok((at_t, sojourn, stats))
    }
}

/// Computes the expected reward `Σ_s π[s] · reward[s]`.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] if the slices have different
/// lengths.
pub fn expected_reward(pi: &[f64], rewards: &[f64]) -> Result<f64> {
    if pi.len() != rewards.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("reward vector of length {}", pi.len()),
            actual: format!("length {}", rewards.len()),
        });
    }
    Ok(pi.iter().zip(rewards).map(|(p, r)| p * r).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtmc::stationary_distribution;

    /// Two-state up/down chain with failure rate `f` and repair rate `r`:
    /// availability = r / (r + f).
    fn updown(f: f64, r: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, f).unwrap();
        c.add_rate(1, 0, r).unwrap();
        c
    }

    fn transient(c: &Ctmc, pi0: &[f64], t: f64) -> Vec<f64> {
        c.transient_and_sojourn(pi0, t, 1e-13).unwrap().0
    }

    fn sojourn(c: &Ctmc, pi0: &[f64], t: f64) -> Vec<f64> {
        c.transient_and_sojourn(pi0, t, 1e-13).unwrap().1
    }

    #[test]
    fn transient_approaches_steady_state() {
        let c = updown(0.5, 1.5);
        let pi_inf = stationary_distribution(&c.uniformize().0).unwrap();
        let pi_t = transient(&c, &[1.0, 0.0], 100.0);
        for (a, b) in pi_t.iter().zip(&pi_inf) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transient_two_state_closed_form() {
        // For the up/down chain starting up:
        // p_up(t) = r/(r+f) + f/(r+f) e^{-(r+f)t}.
        let (f, r) = (0.3, 0.7);
        let c = updown(f, r);
        for t in [0.1, 0.5, 1.0, 3.0] {
            let pi = transient(&c, &[1.0, 0.0], t);
            let expected = r / (r + f) + f / (r + f) * (-(r + f) * t).exp();
            assert!(
                (pi[0] - expected).abs() < 1e-10,
                "t={t}: {} vs {expected}",
                pi[0]
            );
        }
    }

    #[test]
    fn transient_preserves_probability_mass() {
        let c = updown(2.0, 0.5);
        let pi = transient(&c, &[0.5, 0.5], 7.0);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn accumulated_sojourn_sums_to_t() {
        let c = updown(0.4, 1.0);
        let t = 5.0;
        let l = sojourn(&c, &[1.0, 0.0], t);
        assert!((l.iter().sum::<f64>() - t).abs() < 1e-8, "L = {l:?}");
    }

    #[test]
    fn accumulated_sojourn_two_state_closed_form() {
        // ∫₀ᵗ p_up(s) ds with p_up as in the transient test.
        let (f, r) = (0.3, 0.7);
        let c = updown(f, r);
        let t = 2.0;
        let l = sojourn(&c, &[1.0, 0.0], t);
        let s = r + f;
        let expected_up = r / s * t + f / (s * s) * (1.0 - (-s * t).exp());
        assert!(
            (l[0] - expected_up).abs() < 1e-9,
            "{} vs {expected_up}",
            l[0]
        );
    }

    #[test]
    fn accumulated_sojourn_with_absorbing_state() {
        // Exponential absorption at rate a: expected time in state 0 over
        // [0, t] is (1 - e^{-a t}) / a.
        let a = 0.5;
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, a).unwrap();
        let t = 4.0;
        let l = sojourn(&c, &[1.0, 0.0], t);
        let expected = (1.0 - (-a * t).exp()) / a;
        assert!((l[0] - expected).abs() < 1e-9);
        assert!((l[1] - (t - expected)).abs() < 1e-8);
    }

    #[test]
    fn add_rate_validates_input() {
        let mut c = Ctmc::new(2);
        assert!(c.add_rate(0, 2, 1.0).is_err());
        assert!(c.add_rate(2, 0, 1.0).is_err());
        assert!(c.add_rate(0, 1, 0.0).is_err());
        assert!(c.add_rate(0, 1, -1.0).is_err());
        assert!(c.add_rate(0, 1, f64::NAN).is_err());
        assert!(c.add_rate(0, 0, 1.0).is_err());
    }

    #[test]
    fn add_rate_rejects_infinite_rates_with_typed_error() {
        let mut c = Ctmc::new(2);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            match c.add_rate(0, 1, bad) {
                Err(NumericsError::InvalidValue { what, .. }) => assert_eq!(what, "rate"),
                other => panic!("rate {bad} should be rejected, got {other:?}"),
            }
        }
        assert_eq!(c.generator().nnz(), 0, "no transitions were recorded");
    }

    #[test]
    fn transient_and_sojourn_reject_bad_arguments() {
        let c = updown(0.5, 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(
                matches!(
                    c.transient_and_sojourn(&[1.0, 0.0], bad, 1e-12),
                    Err(NumericsError::InvalidValue { what: "t", .. })
                ),
                "transient_and_sojourn must reject t = {bad}"
            );
        }
        assert!(matches!(
            c.transient_and_sojourn(&[1.0], 1.0, 1e-12),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_rates_are_summed() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 0.25).unwrap();
        c.add_rate(0, 1, 0.75).unwrap();
        c.add_rate(1, 0, 1.0).unwrap();
        assert_eq!(c.exit_rates(), vec![1.0, 1.0]);
        let q = c.generator();
        assert_eq!(
            q.row_entries(0).collect::<Vec<_>>(),
            vec![(0, -1.0), (1, 1.0)]
        );
        let pi = stationary_distribution(&c.uniformize().0).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-13);
    }

    #[test]
    fn expected_reward_basic() {
        let r = expected_reward(&[0.25, 0.75], &[1.0, 0.0]).unwrap();
        assert!((r - 0.25).abs() < 1e-15);
        assert!(expected_reward(&[0.5], &[1.0, 2.0]).is_err());
    }

    /// Reference implementation: the per-term loops with allocating
    /// kernels.
    fn naive_transient_and_sojourn(
        c: &Ctmc,
        pi0: &[f64],
        t: f64,
        epsilon: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (p, lambda) = c.uniformize();
        let w = poisson_weights(lambda * t, epsilon).unwrap();
        let cdf = cumulative(&w.weights);
        let mut power = pi0.to_vec();
        let mut at_t = vec![0.0; c.n_states()];
        let mut soj = vec![0.0; c.n_states()];
        for (k, (&wk, &fk)) in w.weights.iter().zip(&cdf).enumerate() {
            if k > 0 {
                power = p.vecmat(&power);
            }
            for (r, v) in at_t.iter_mut().zip(&power) {
                *r += wk * v;
            }
            let coeff = (1.0 - fk).max(0.0) / lambda;
            if coeff != 0.0 {
                for (r, v) in soj.iter_mut().zip(&power) {
                    *r += coeff * v;
                }
            }
        }
        (at_t, soj)
    }

    fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: entry {i} differs ({x} vs {y})"
            );
        }
    }

    #[test]
    fn series_is_bit_identical_to_the_naive_loop() {
        let c = updown(0.5, 1.5);
        let pi0 = [1.0, 0.0];
        // At t = 200 the iterate has long since reached a fixpoint; the
        // shorter horizons stop while it is still moving.
        for t in [0.3, 5.0, 200.0] {
            let (at_t, soj, stats) = c.transient_and_sojourn(&pi0, t, 1e-13).unwrap();
            let (naive_t, naive_s) = naive_transient_and_sojourn(&c, &pi0, t, 1e-13);
            assert_bits_equal(&at_t, &naive_t, "transient");
            assert_bits_equal(&soj, &naive_s, "sojourn");
            assert!(stats.series_len > 0);
            assert_eq!(stats.truncation_steps(), stats.series_len);
        }
    }

    #[test]
    fn transient_and_sojourn_at_zero_is_the_start() {
        let c = updown(1.0, 1.0);
        let (at_t, soj, stats) = c.transient_and_sojourn(&[0.25, 0.75], 0.0, 1e-12).unwrap();
        assert_eq!(at_t, vec![0.25, 0.75]);
        assert_eq!(soj, vec![0.0, 0.0]);
        assert_eq!(stats.truncation_steps(), 0);
    }

    #[test]
    fn uniformized_matrix_is_stochastic() {
        let c = updown(0.3, 0.9);
        let (p, lambda) = c.uniformize();
        assert!(lambda >= 0.9);
        for r in 0..2 {
            let sum: f64 = p.row_entries(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-14);
        }
    }
}
