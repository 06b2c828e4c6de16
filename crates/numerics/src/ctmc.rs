//! Continuous-time Markov chains: steady state, transient analysis and
//! accumulated sojourn times.
//!
//! A CTMC is defined by its off-diagonal transition rates. The solver offers:
//!
//! * [`Ctmc::steady_state`] — the stationary distribution `π` solving
//!   `π Q = 0`, `Σ π = 1`, via a dense LU solve for small chains and damped
//!   power iteration on the uniformized chain for large ones;
//! * [`Ctmc::transient`] — the state distribution at time `t` from an initial
//!   distribution, via uniformization;
//! * [`Ctmc::accumulated_sojourn`] — expected time spent in each state during
//!   `[0, t]` (the integral `∫₀ᵗ π(s) ds`), the quantity the MRGP solver uses
//!   as conversion factors for deterministic transitions.

use crate::dense::DenseMatrix;
use crate::guard::{guard_probability_vector, DENSE_RENORMALIZATION_LIMIT};
use crate::poisson::{cumulative, poisson_weights};
use crate::sparse::{axpy, stationary_power_with, CsrBuilder, CsrMatrix};
use crate::{stationary_backend_for, NumericsError, Result, StationaryBackend, StationaryOptions};

/// Diagnostics from one uniformization series
/// ([`Ctmc::transient_with_stats`] / [`Ctmc::transient_and_sojourn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransientStats {
    /// Poisson-series length the truncation produced (number of weights).
    pub series_len: usize,
    /// First series index at which the uniformized iterate `π₀ Pᵏ` became
    /// *bitwise* stationary, if it did before the series ended. From that
    /// index on the solve stops multiplying by `P` and folds the remaining
    /// Poisson mass onto the frozen iterate — the result stays bit-identical
    /// to summing the full series, because a bitwise fixpoint reproduces
    /// itself exactly under further products.
    pub stationary_at: Option<usize>,
}

impl TransientStats {
    /// Truncation depth the solve actually used: the number of Poisson terms
    /// with *distinct* iterate values — the full series when the iterate
    /// never reached a fixpoint, the detection index + 1 when it did.
    pub fn truncation_steps(&self) -> usize {
        match self.stationary_at {
            Some(k) => k + 1,
            None => self.series_len,
        }
    }
}

/// A continuous-time Markov chain over states `0..n`.
///
/// # Example
///
/// A machine that degrades (rate 1/100), then fails (rate 1/10), then is
/// repaired (rate 1):
///
/// ```
/// use nvp_numerics::ctmc::Ctmc;
///
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let mut chain = Ctmc::new(3);
/// chain.add_rate(0, 1, 0.01)?; // healthy -> degraded
/// chain.add_rate(1, 2, 0.1)?;  // degraded -> failed
/// chain.add_rate(2, 0, 1.0)?;  // failed -> healthy
/// let pi = chain.steady_state()?;
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(pi[0] > pi[1] && pi[1] > pi[2]);
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

    /// Number of uniformization terms [`Ctmc::transient`] and
    /// [`Ctmc::accumulated_sojourn`] sum for horizon `t` at truncation
    /// accuracy `epsilon` — i.e. the depth of the Poisson series.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidValue`] if `t` is negative or not finite, or
    /// `epsilon` is out of range, matching [`Ctmc::transient`].
    pub fn truncation_steps(&self, t: f64, epsilon: f64) -> Result<usize> {
        if !(t >= 0.0 && t.is_finite()) {
            return Err(NumericsError::InvalidValue {
                what: "time horizon",
                value: t,
            });
        }
        if t == 0.0 {
            return Ok(0);
        }
        let (_, lambda) = self.uniformize();
        Ok(poisson_weights(lambda * t, epsilon)?.weights.len())
    }

    /// Computes the stationary distribution `π` with `π Q = 0`, `Σ π = 1`.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NoSteadyState`] if the chain is empty.
    /// * [`NumericsError::SingularMatrix`] if the chain is reducible in a way
    ///   that admits no unique stationary distribution (e.g. two closed
    ///   recurrent classes).
    /// * [`NumericsError::NoConvergence`] from the iterative fallback.
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        self.steady_state_with(&StationaryOptions::default())
    }

    /// [`Ctmc::steady_state`] with explicit [`StationaryOptions`]: a forced
    /// backend, a custom tolerance/iteration cap, and a resource budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::steady_state`], plus
    /// [`NumericsError::BudgetExceeded`] if the budget's deadline passes
    /// during an iterative solve.
    pub fn steady_state_with(&self, options: &StationaryOptions) -> Result<Vec<f64>> {
        if self.n == 0 {
            return Err(NumericsError::NoSteadyState {
                reason: "chain has no states".into(),
            });
        }
        if self.n == 1 {
            return Ok(vec![1.0]);
        }
        let backend = options
            .backend
            .unwrap_or_else(|| stationary_backend_for(self.n));
        match backend {
            StationaryBackend::Dense => self.steady_state_dense(options),
            StationaryBackend::IterativePower => {
                let (p, _) = self.uniformize();
                stationary_power_with(
                    &p,
                    options.tolerance,
                    options.max_iterations,
                    &options.budget,
                )
            }
        }
    }

    /// Dense LU solve; of `options`, only the budget's fault plan applies.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
    fn steady_state_dense(&self, options: &StationaryOptions) -> Result<Vec<f64>> {
        #[cfg(feature = "fault-inject")]
        let poison =
            crate::fault::solver_fault(&options.budget, crate::fault::Site::DenseStationary, 0)?;
        // Solve Qᵀ π = 0 with the last equation replaced by Σ π = 1.
        let n = self.n;
        let mut a = DenseMatrix::zeros(n, n);
        for &(from, to, rate) in &self.transitions {
            a.add(to, from, rate);
            a.add(from, from, -rate);
        }
        for j in 0..n {
            a.set(n - 1, j, 1.0);
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let mut pi = a.solve(&b)?;
        #[cfg(feature = "fault-inject")]
        if poison {
            pi[0] = f64::NAN;
        }
        guard_probability_vector(
            &mut pi,
            "ctmc stationary vector",
            DENSE_RENORMALIZATION_LIMIT,
        )?;
        Ok(pi)
    }

    /// Computes the transient distribution `π(t) = π₀ · e^{Qt}` by
    /// uniformization, truncating the Poisson series at mass `1 - epsilon`.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `pi0.len() != n`.
    /// * [`NumericsError::InvalidValue`] if `t` is negative or not finite, or
    ///   `epsilon` is out of range.
    pub fn transient(&self, pi0: &[f64], t: f64, epsilon: f64) -> Result<Vec<f64>> {
        Ok(self.transient_with_stats(pi0, t, epsilon)?.0)
    }

    /// [`Ctmc::transient`] that also reports the truncation depth the series
    /// actually used (see [`TransientStats`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn transient_with_stats(
        &self,
        pi0: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<(Vec<f64>, TransientStats)> {
        self.check_transient_args(pi0, t)?;
        if t == 0.0 {
            return Ok((pi0.to_vec(), TransientStats::default()));
        }
        let (at_t, _, stats) = self.uniformized_series(pi0, t, epsilon, false)?;
        Ok((at_t, stats))
    }

    /// Computes the transient distribution *and* the accumulated sojourn
    /// times in one pass — the MRGP solver's hot path. Both quantities share
    /// the same uniformized power sequence `π₀ Pᵏ`, so combining them runs
    /// one Poisson series and one set of sparse products instead of two, and
    /// the outputs are bit-identical to separate [`Ctmc::transient`] and
    /// [`Ctmc::accumulated_sojourn`] calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn transient_and_sojourn(
        &self,
        pi0: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<(Vec<f64>, Vec<f64>, TransientStats)> {
        self.check_transient_args(pi0, t)?;
        if t == 0.0 {
            return Ok((pi0.to_vec(), vec![0.0; self.n], TransientStats::default()));
        }
        self.uniformized_series(pi0, t, epsilon, true)
    }

    /// Computes the expected sojourn times `L(t) = ∫₀ᵗ π(s) ds` by
    /// uniformization. `L(t)[s]` is the expected total time spent in state
    /// `s` during `[0, t]` when starting from `pi0`.
    ///
    /// The entries sum to `t` (up to the truncation error `epsilon · t`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn accumulated_sojourn(&self, pi0: &[f64], t: f64, epsilon: f64) -> Result<Vec<f64>> {
        self.check_transient_args(pi0, t)?;
        if t == 0.0 {
            return Ok(vec![0.0; self.n]);
        }
        let (_, sojourn, _) = self.uniformized_series(pi0, t, epsilon, true)?;
        Ok(sojourn)
    }

    /// Shared uniformization core: accumulates `Σ_k P(K=k) π₀ Pᵏ` (the
    /// transient distribution) and, when `want_sojourn` is set,
    /// `(1/Λ) Σ_k [1 - F(k)] π₀ Pᵏ` (the sojourn integral — the series
    /// telescopes to `Λt`, and keeping terms one step beyond the probability
    /// truncation point keeps the integral error of the same order).
    ///
    /// The iterate is advanced with scratch-buffer kernels (no per-step
    /// allocation), and once `π₀ Pᵏ` reaches a *bitwise* fixpoint the
    /// products stop: a bit-for-bit fixpoint reproduces itself exactly under
    /// further multiplication, so freezing the iterate and continuing to
    /// accumulate the Poisson weights term by term yields the same bits as
    /// the full series while skipping its sparse products.
    fn uniformized_series(
        &self,
        pi0: &[f64],
        t: f64,
        epsilon: f64,
        want_sojourn: bool,
    ) -> Result<(Vec<f64>, Vec<f64>, TransientStats)> {
        debug_assert!(t > 0.0);
        let (p, lambda) = self.uniformize();
        let weights = poisson_weights(lambda * t, epsilon)?;
        let cdf = cumulative(&weights.weights);
        let mut power = pi0.to_vec(); // π₀ Pᵏ
        let mut scratch = vec![0.0; self.n];
        let mut at_t = vec![0.0; self.n];
        let mut sojourn = if want_sojourn {
            vec![0.0; self.n]
        } else {
            Vec::new()
        };
        let mut stationary_at = None;
        for (k, (&w, &fk)) in weights.weights.iter().zip(&cdf).enumerate() {
            if k > 0 && stationary_at.is_none() {
                p.vecmat_into(&power, &mut scratch);
                if scratch
                    .iter()
                    .zip(&power)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    stationary_at = Some(k);
                }
                std::mem::swap(&mut power, &mut scratch);
            }
            axpy(&mut at_t, w, &power);
            if want_sojourn {
                let coeff = (1.0 - fk).max(0.0) / lambda;
                if coeff != 0.0 {
                    axpy(&mut sojourn, coeff, &power);
                }
            }
        }
        let stats = TransientStats {
            series_len: weights.weights.len(),
            stationary_at,
        };
        Ok((at_t, sojourn, stats))
    }

    fn check_transient_args(&self, pi0: &[f64], t: f64) -> Result<()> {
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
        Ok(())
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

    /// Two-state up/down chain with failure rate `f` and repair rate `r`:
    /// availability = r / (r + f).
    fn updown(f: f64, r: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, f).unwrap();
        c.add_rate(1, 0, r).unwrap();
        c
    }

    #[test]
    fn steady_state_updown_closed_form() {
        let c = updown(0.2, 1.0);
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 1.0 / 1.2).abs() < 1e-13);
        assert!((pi[1] - 0.2 / 1.2).abs() < 1e-13);
    }

    #[test]
    fn steady_state_birth_death_matches_closed_form() {
        // Birth-death chain with birth rate b, death rate d:
        // pi[k] ∝ (b/d)^k.
        let n = 6;
        let (b, d) = (1.0, 2.0);
        let mut c = Ctmc::new(n);
        for k in 0..n - 1 {
            c.add_rate(k, k + 1, b).unwrap();
            c.add_rate(k + 1, k, d).unwrap();
        }
        let pi = c.steady_state().unwrap();
        let rho: f64 = b / d;
        let norm: f64 = (0..n).map(|k| rho.powi(k as i32)).sum();
        for (k, p) in pi.iter().enumerate() {
            let expected = rho.powi(k as i32) / norm;
            assert!((p - expected).abs() < 1e-12, "state {k}: {p} vs {expected}");
        }
    }

    #[test]
    fn steady_state_single_state() {
        let c = Ctmc::new(1);
        assert_eq!(c.steady_state().unwrap(), vec![1.0]);
    }

    #[test]
    fn steady_state_empty_chain_errors() {
        let c = Ctmc::new(0);
        assert!(matches!(
            c.steady_state(),
            Err(NumericsError::NoSteadyState { .. })
        ));
    }

    #[test]
    fn absorbing_state_gets_all_mass() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 1.0).unwrap();
        let pi = c.steady_state().unwrap();
        assert!(pi[0].abs() < 1e-12);
        assert!((pi[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let c = updown(0.5, 1.5);
        let pi_inf = c.steady_state().unwrap();
        let pi_t = c.transient(&[1.0, 0.0], 100.0, 1e-13).unwrap();
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
            let pi = c.transient(&[1.0, 0.0], t, 1e-13).unwrap();
            let expected = r / (r + f) + f / (r + f) * (-(r + f) * t).exp();
            assert!(
                (pi[0] - expected).abs() < 1e-10,
                "t={t}: {} vs {expected}",
                pi[0]
            );
        }
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let c = updown(1.0, 1.0);
        let pi = c.transient(&[0.25, 0.75], 0.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.25, 0.75]);
    }

    #[test]
    fn transient_preserves_probability_mass() {
        let c = updown(2.0, 0.5);
        let pi = c.transient(&[0.5, 0.5], 7.0, 1e-13).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn accumulated_sojourn_sums_to_t() {
        let c = updown(0.4, 1.0);
        let t = 5.0;
        let l = c.accumulated_sojourn(&[1.0, 0.0], t, 1e-13).unwrap();
        assert!((l.iter().sum::<f64>() - t).abs() < 1e-8, "L = {l:?}");
    }

    #[test]
    fn accumulated_sojourn_two_state_closed_form() {
        // ∫₀ᵗ p_up(s) ds with p_up as in the transient test.
        let (f, r) = (0.3, 0.7);
        let c = updown(f, r);
        let t = 2.0;
        let l = c.accumulated_sojourn(&[1.0, 0.0], t, 1e-13).unwrap();
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
        let l = c.accumulated_sojourn(&[1.0, 0.0], t, 1e-13).unwrap();
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
        assert!(c.steady_state().is_err(), "no transitions were recorded");
    }

    #[test]
    fn truncation_steps_rejects_nan_and_infinite_times() {
        let c = updown(0.5, 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            match c.truncation_steps(bad, 1e-12) {
                Err(NumericsError::InvalidValue { what, .. }) => {
                    assert_eq!(what, "time horizon");
                }
                other => panic!("horizon {bad} should be rejected, got {other:?}"),
            }
        }
        assert_eq!(c.truncation_steps(0.0, 1e-12).unwrap(), 0);
    }

    #[test]
    fn transient_and_sojourn_reject_nan_and_infinite_times() {
        let c = updown(0.5, 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(
                matches!(
                    c.transient(&[1.0, 0.0], bad, 1e-12),
                    Err(NumericsError::InvalidValue { what: "t", .. })
                ),
                "transient must reject t = {bad}"
            );
            assert!(
                matches!(
                    c.accumulated_sojourn(&[1.0, 0.0], bad, 1e-12),
                    Err(NumericsError::InvalidValue { what: "t", .. })
                ),
                "accumulated_sojourn must reject t = {bad}"
            );
        }
    }

    #[test]
    fn forced_iterative_backend_matches_dense() {
        let c = updown(0.2, 1.0);
        let dense = c.steady_state().unwrap();
        let opts = StationaryOptions {
            backend: Some(StationaryBackend::IterativePower),
            ..StationaryOptions::default()
        };
        let iterative = c.steady_state_with(&opts).unwrap();
        for (a, b) in dense.iter().zip(&iterative) {
            assert!((a - b).abs() < 1e-9, "{dense:?} vs {iterative:?}");
        }
    }

    #[test]
    fn expired_budget_stops_iterative_solve() {
        let c = updown(0.2, 1.0);
        let opts = StationaryOptions {
            backend: Some(StationaryBackend::IterativePower),
            budget: crate::SolveBudget::with_wall_clock_ms(0),
            ..StationaryOptions::default()
        };
        assert!(matches!(
            c.steady_state_with(&opts),
            Err(NumericsError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn parallel_rates_are_summed() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 0.25).unwrap();
        c.add_rate(0, 1, 0.75).unwrap();
        c.add_rate(1, 0, 1.0).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-13);
    }

    #[test]
    fn expected_reward_basic() {
        let r = expected_reward(&[0.25, 0.75], &[1.0, 0.0]).unwrap();
        assert!((r - 0.25).abs() < 1e-15);
        assert!(expected_reward(&[0.5], &[1.0, 2.0]).is_err());
    }

    /// Reference implementation: the pre-optimization per-term loops with
    /// allocating kernels and no steady-state detection.
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
    fn steady_state_detection_fires_on_long_horizons() {
        // At t = 200 the up/down chain has long since mixed: the iterate
        // reaches a bitwise fixpoint well before the Poisson series ends.
        let c = updown(0.5, 1.5);
        let (pi_t, stats) = c.transient_with_stats(&[1.0, 0.0], 200.0, 1e-13).unwrap();
        assert!(
            stats.stationary_at.is_some(),
            "expected a fixpoint, got {stats:?}"
        );
        assert!(
            stats.truncation_steps() < stats.series_len,
            "detection must shorten the product sequence: {stats:?}"
        );
        let pi_inf = c.steady_state().unwrap();
        for (a, b) in pi_t.iter().zip(&pi_inf) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn detection_path_is_bit_identical_to_the_naive_series() {
        let c = updown(0.5, 1.5);
        let pi0 = [1.0, 0.0];
        // Long horizon: detection fires. Short horizon: it does not. Both
        // must reproduce the naive full-series loop bit for bit.
        for t in [0.3, 5.0, 200.0] {
            let (at_t, soj, _) = c.transient_and_sojourn(&pi0, t, 1e-13).unwrap();
            let (naive_t, naive_s) = naive_transient_and_sojourn(&c, &pi0, t, 1e-13);
            assert_bits_equal(&at_t, &naive_t, "transient");
            assert_bits_equal(&soj, &naive_s, "sojourn");
        }
    }

    #[test]
    fn combined_call_matches_separate_calls_bitwise() {
        let mut c = Ctmc::new(4);
        c.add_rate(0, 1, 0.7).unwrap();
        c.add_rate(1, 2, 1.3).unwrap();
        c.add_rate(2, 3, 0.2).unwrap();
        c.add_rate(3, 0, 2.0).unwrap();
        c.add_rate(1, 0, 0.4).unwrap();
        let pi0 = [0.25, 0.25, 0.25, 0.25];
        for t in [0.5, 4.0, 80.0] {
            let (at_t, soj, stats) = c.transient_and_sojourn(&pi0, t, 1e-13).unwrap();
            assert_bits_equal(&at_t, &c.transient(&pi0, t, 1e-13).unwrap(), "transient");
            assert_bits_equal(
                &soj,
                &c.accumulated_sojourn(&pi0, t, 1e-13).unwrap(),
                "sojourn",
            );
            assert!(stats.series_len > 0);
            assert!(stats.truncation_steps() <= stats.series_len);
        }
    }

    #[test]
    fn transient_and_sojourn_at_zero_matches_components() {
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
