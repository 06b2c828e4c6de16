//! Generic discrete-event simulation of DSPNs.
//!
//! The simulator implements the same semantics as the analytic pipeline
//! (`nvp-petri` reachability + `nvp-mrgp` steady state):
//!
//! * immediate transitions fire in zero time, highest priority class first,
//!   probabilistically by normalized marking-dependent weights;
//! * exponential transitions race with marking-dependent rates, resampled
//!   after every marking change (memorylessness makes this exact);
//! * deterministic transitions have **enabling memory**: elapsed enabling
//!   time persists across marking changes while the transition stays
//!   enabled, and resets when it is disabled.
//!
//! Unlike the analytic solver, any number of concurrently enabled
//! deterministic transitions is supported, which is what makes the
//! deterministic-rejuvenation ablation runnable.

use crate::stats::{batch_means_estimate, Estimate, Welford};
use crate::{Result, SimError};
use nvp_petri::marking::Marking;
use nvp_petri::net::{PetriNet, TransitionId, TransitionKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Options controlling a steady-state simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Total simulated time (model time units).
    pub horizon: f64,
    /// Initial period excluded from statistics (transient warm-up).
    pub warmup: f64,
    /// RNG seed; equal seeds give identical trajectories.
    pub seed: u64,
    /// Number of batches for the batch-means confidence interval.
    pub batches: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            horizon: 1e6,
            warmup: 1e4,
            seed: 0xC0FFEE,
            batches: 20,
        }
    }
}

impl SimOptions {
    fn validate(&self) -> Result<()> {
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(SimError::InvalidOption {
                what: "horizon",
                constraint: format!("must be positive and finite, got {}", self.horizon),
            });
        }
        if !self.warmup.is_finite() || self.warmup < 0.0 || self.warmup >= self.horizon {
            return Err(SimError::InvalidOption {
                what: "warmup",
                constraint: format!(
                    "must be non-negative and below the horizon, got {}",
                    self.warmup
                ),
            });
        }
        if self.batches < 2 {
            return Err(SimError::InvalidOption {
                what: "batches",
                constraint: format!("need at least 2 batches, got {}", self.batches),
            });
        }
        Ok(())
    }
}

/// A running DSPN simulation: the current marking, model time, and the
/// enabling-memory clocks of deterministic transitions.
///
/// Use [`DspnSimulator::step`] to advance event by event, or the
/// [`simulate_reward`] convenience for steady-state reward estimation.
#[derive(Debug)]
pub struct DspnSimulator<'a> {
    net: &'a PetriNet,
    rng: SmallRng,
    marking: Marking,
    time: f64,
    det_elapsed: HashMap<TransitionId, f64>,
}

/// One simulated sojourn: the marking the process stayed in, for how long,
/// and the transition that ended the sojourn (`None` when the horizon cap
/// was hit by the caller).
#[derive(Debug, Clone, PartialEq)]
pub struct Sojourn {
    /// Marking during the sojourn.
    pub marking: Marking,
    /// Sojourn duration.
    pub duration: f64,
    /// Timed transition that fired at the end, if any.
    pub fired: Option<TransitionId>,
}

impl<'a> DspnSimulator<'a> {
    /// Creates a simulator positioned at the net's initial marking
    /// (immediate transitions are *not* yet resolved; the first
    /// [`DspnSimulator::step`] handles that).
    ///
    /// # Errors
    ///
    /// Currently infallible; reserved for future validation.
    pub fn new(net: &'a PetriNet, seed: u64) -> Result<Self> {
        Ok(DspnSimulator {
            net,
            rng: SmallRng::seed_from_u64(seed),
            marking: net.initial_marking(),
            time: 0.0,
            det_elapsed: HashMap::new(),
        })
    }

    /// Current model time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current marking (may be vanishing between steps).
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Fires immediate transitions until the marking is tangible.
    ///
    /// # Errors
    ///
    /// Expression-evaluation errors, and
    /// [`nvp_petri::PetriError::VanishingLoop`] after an implausibly long
    /// cascade.
    pub fn settle(&mut self) -> Result<()> {
        let mut steps = 0usize;
        loop {
            let immediates = self.enabled_immediates()?;
            if immediates.is_empty() {
                return Ok(());
            }
            steps += 1;
            if steps > 10_000 {
                return Err(SimError::Petri(nvp_petri::PetriError::VanishingLoop {
                    marking: self.marking.to_string(),
                }));
            }
            let top = immediates
                .iter()
                .map(|&(_, p, _)| p)
                .max()
                .expect("non-empty");
            let class: Vec<_> = immediates
                .into_iter()
                .filter(|&(_, p, _)| p == top)
                .collect();
            let total: f64 = class.iter().map(|&(_, _, w)| w).sum();
            if total <= 0.0 {
                return Err(SimError::Petri(nvp_petri::PetriError::ExprDomain {
                    what: format!("total immediate weight in marking {}", self.marking),
                    value: total,
                }));
            }
            let mut pick = self.rng.gen::<f64>() * total;
            let mut chosen = class[class.len() - 1].0;
            for &(id, _, w) in &class {
                pick -= w;
                if pick <= 0.0 {
                    chosen = id;
                    break;
                }
            }
            self.fire(chosen)?;
        }
    }

    /// Advances to the next timed firing (or to `max_time`, whichever comes
    /// first) and returns the completed sojourn.
    ///
    /// # Errors
    ///
    /// Expression-evaluation errors and vanishing loops.
    pub fn step(&mut self, max_time: f64) -> Result<Sojourn> {
        self.settle()?;
        let start_marking = self.marking.clone();
        let start_time = self.time;

        // Enabled timed transitions in the tangible marking.
        let mut exp_total = 0.0;
        let mut exp_arms: Vec<(TransitionId, f64)> = Vec::new();
        let mut det_next: Option<(TransitionId, f64)> = None; // (id, remaining)
        let mut det_enabled: Vec<TransitionId> = Vec::new();
        for (id, tr) in self.net.transition_ids().zip(self.net.transitions()) {
            match &tr.kind {
                TransitionKind::Immediate { .. } => continue,
                TransitionKind::Exponential { rate } => {
                    if self.net.is_enabled(id, &self.marking)? {
                        let r = rate.eval(&self.marking)?;
                        if !r.is_finite() || r <= 0.0 {
                            return Err(SimError::Petri(nvp_petri::PetriError::ExprDomain {
                                what: format!("rate of `{}`", tr.name),
                                value: r,
                            }));
                        }
                        exp_total += r;
                        exp_arms.push((id, r));
                    }
                }
                TransitionKind::Deterministic { delay } => {
                    if self.net.is_enabled(id, &self.marking)? {
                        let d = delay.eval(&self.marking)?;
                        if !d.is_finite() || d <= 0.0 {
                            return Err(SimError::Petri(nvp_petri::PetriError::ExprDomain {
                                what: format!("delay of `{}`", tr.name),
                                value: d,
                            }));
                        }
                        let elapsed = *self.det_elapsed.get(&id).unwrap_or(&0.0);
                        let remaining = (d - elapsed).max(0.0);
                        det_enabled.push(id);
                        if det_next.is_none_or(|(_, best)| remaining < best) {
                            det_next = Some((id, remaining));
                        }
                    }
                }
            }
        }

        // Sample the race.
        let exp_dt = if exp_total > 0.0 {
            // Inverse-transform sampling of Exp(exp_total).
            let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
            -u.ln() / exp_total
        } else {
            f64::INFINITY
        };
        let det_dt = det_next.map_or(f64::INFINITY, |(_, rem)| rem);
        let dt = exp_dt.min(det_dt);
        let budget = (max_time - self.time).max(0.0);

        // `step` treats the horizon inclusively: an event scheduled exactly
        // at `max_time` fires. Deterministic clocks accumulate the same
        // increments as `self.time` but at a different magnitude, so their
        // roundings drift apart by a few ulps over long runs; without a
        // tolerance here a boundary event computes one ulp past the budget
        // and is silently dropped.
        let tol = max_time.abs().max(self.time.abs()) * 1e-12;
        if dt > budget + tol {
            // Horizon reached inside this sojourn.
            self.advance_det_clocks(&det_enabled, budget);
            self.time = max_time;
            return Ok(Sojourn {
                marking: start_marking,
                duration: self.time - start_time,
                fired: None,
            });
        }

        self.advance_det_clocks(&det_enabled, dt);
        self.time += dt;

        let fired = if det_dt <= exp_dt {
            let (id, _) = det_next.expect("det_dt finite implies a deterministic candidate");
            id
        } else {
            let mut pick = self.rng.gen::<f64>() * exp_total;
            let mut chosen = exp_arms[exp_arms.len() - 1].0;
            for &(id, r) in &exp_arms {
                pick -= r;
                if pick <= 0.0 {
                    chosen = id;
                    break;
                }
            }
            chosen
        };
        self.fire(fired)?;
        Ok(Sojourn {
            marking: start_marking,
            duration: dt,
            fired: Some(fired),
        })
    }

    fn advance_det_clocks(&mut self, enabled: &[TransitionId], dt: f64) {
        for &id in enabled {
            *self.det_elapsed.entry(id).or_insert(0.0) += dt;
        }
    }

    /// Fires a transition and maintains enabling-memory clocks.
    fn fire(&mut self, id: TransitionId) -> Result<()> {
        self.marking = self.net.fire(id, &self.marking)?;
        // The fired transition's clock restarts.
        self.det_elapsed.remove(&id);
        // Clocks of deterministic transitions that became disabled reset
        // (enabling-memory policy).
        let ids: Vec<TransitionId> = self.det_elapsed.keys().copied().collect();
        for other in ids {
            if !self.net.is_enabled(other, &self.marking)? {
                self.det_elapsed.remove(&other);
            }
        }
        Ok(())
    }

    fn enabled_immediates(&self) -> Result<Vec<(TransitionId, u32, f64)>> {
        let mut out = Vec::new();
        for (id, tr) in self.net.transition_ids().zip(self.net.transitions()) {
            let TransitionKind::Immediate { weight, priority } = &tr.kind else {
                continue;
            };
            if !self.net.is_enabled(id, &self.marking)? {
                continue;
            }
            let w = weight.eval(&self.marking)?;
            if !w.is_finite() || w < 0.0 {
                return Err(SimError::Petri(nvp_petri::PetriError::ExprDomain {
                    what: format!("weight of `{}`", tr.name),
                    value: w,
                }));
            }
            out.push((id, *priority, w));
        }
        Ok(out)
    }
}

/// Estimates the steady-state expected value of `reward` over the marking
/// process by time-average with batch means.
///
/// # Errors
///
/// Option-validation and simulation errors.
pub fn simulate_reward<F: Fn(&Marking) -> f64>(
    net: &PetriNet,
    reward: &F,
    options: &SimOptions,
) -> Result<Estimate> {
    options.validate()?;
    let mut sim = DspnSimulator::new(net, options.seed)?;
    // Warm-up: run without recording.
    while sim.time() < options.warmup {
        sim.step(options.warmup)?;
    }
    let batch_len = (options.horizon - options.warmup) / options.batches as f64;
    let mut batch_values = Vec::with_capacity(options.batches);
    for b in 0..options.batches {
        let end = options.warmup + batch_len * (b + 1) as f64;
        let mut weighted = 0.0;
        let mut total = 0.0;
        while sim.time() < end {
            let sojourn = sim.step(end)?;
            if sojourn.duration > 0.0 {
                weighted += reward(&sojourn.marking) * sojourn.duration;
                total += sojourn.duration;
            }
        }
        batch_values.push(if total > 0.0 { weighted / total } else { 0.0 });
    }
    Ok(batch_means_estimate(&batch_values))
}

/// Estimates the steady-state occupancy (time fraction) of every tangible
/// marking of `graph` by simulation.
///
/// The returned vector is indexed like
/// [`nvp_petri::reach::TangibleReachGraph::markings`];
/// entries sum to ≈ 1. Sojourns in markings outside the graph (impossible
/// when `graph` was explored from the same net) are counted in the final
/// `unmatched` component.
///
/// # Errors
///
/// Option-validation and simulation errors.
pub fn simulate_occupancy(
    net: &PetriNet,
    graph: &nvp_petri::reach::TangibleReachGraph,
    options: &SimOptions,
) -> Result<OccupancyEstimate> {
    options.validate()?;
    let mut sim = DspnSimulator::new(net, options.seed)?;
    while sim.time() < options.warmup {
        sim.step(options.warmup)?;
    }
    let mut time_in = vec![0.0f64; graph.tangible_count()];
    let mut unmatched = 0.0f64;
    let mut total = 0.0f64;
    while sim.time() < options.horizon {
        let sojourn = sim.step(options.horizon)?;
        if sojourn.duration <= 0.0 {
            continue;
        }
        total += sojourn.duration;
        match graph.index_of(&sojourn.marking) {
            Some(idx) => time_in[idx] += sojourn.duration,
            None => unmatched += sojourn.duration,
        }
    }
    if total <= 0.0 {
        return Err(SimError::InvalidOption {
            what: "horizon",
            constraint: "no simulated time accumulated after warm-up".into(),
        });
    }
    for v in &mut time_in {
        *v /= total;
    }
    Ok(OccupancyEstimate {
        occupancy: time_in,
        unmatched: unmatched / total,
    })
}

/// Result of [`simulate_occupancy_batched`]: per-marking occupancy with
/// batch-means 95% confidence half-widths.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedOccupancy {
    /// Estimated time fraction per tangible marking (graph indexing).
    pub occupancy: Vec<f64>,
    /// 95% batch-means confidence half-width per marking.
    pub half_widths: Vec<f64>,
    /// Time fraction spent in markings absent from the graph.
    pub unmatched: f64,
}

/// Like [`simulate_occupancy`], but splits the run into
/// [`SimOptions::batches`] batches and reports a batch-means 95% confidence
/// half-width for every marking's occupancy. This is the estimator behind
/// [`crate::fallback::monte_carlo_hook`] — the analysis engine's degraded
/// results need per-marking error bars, not just a point estimate.
///
/// # Errors
///
/// Option-validation and simulation errors.
pub fn simulate_occupancy_batched(
    net: &PetriNet,
    graph: &nvp_petri::reach::TangibleReachGraph,
    options: &SimOptions,
) -> Result<BatchedOccupancy> {
    options.validate()?;
    let mut sim = DspnSimulator::new(net, options.seed)?;
    while sim.time() < options.warmup {
        sim.step(options.warmup)?;
    }
    let n = graph.tangible_count();
    let batch_len = (options.horizon - options.warmup) / options.batches as f64;
    let mut acc = vec![Welford::new(); n];
    let mut unmatched_time = 0.0f64;
    let mut grand_total = 0.0f64;
    let mut time_in = vec![0.0f64; n];
    for b in 0..options.batches {
        let end = options.warmup + batch_len * (b + 1) as f64;
        time_in.fill(0.0);
        let mut total = 0.0f64;
        while sim.time() < end {
            let sojourn = sim.step(end)?;
            if sojourn.duration <= 0.0 {
                continue;
            }
            total += sojourn.duration;
            match graph.index_of(&sojourn.marking) {
                Some(idx) => time_in[idx] += sojourn.duration,
                None => unmatched_time += sojourn.duration,
            }
        }
        grand_total += total;
        // Batches cover equal spans of model time, so pushing per-batch
        // fractions gives every batch equal weight, as batch means assume.
        for (w, &t) in acc.iter_mut().zip(&time_in) {
            w.push(if total > 0.0 { t / total } else { 0.0 });
        }
    }
    if grand_total <= 0.0 {
        return Err(SimError::InvalidOption {
            what: "horizon",
            constraint: "no simulated time accumulated after warm-up".into(),
        });
    }
    Ok(BatchedOccupancy {
        occupancy: acc.iter().map(|w| w.mean()).collect(),
        half_widths: acc.iter().map(|w| w.half_width_95()).collect(),
        unmatched: unmatched_time / grand_total,
    })
}

/// Result of [`simulate_occupancy`].
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyEstimate {
    /// Time fraction per tangible marking (graph indexing).
    pub occupancy: Vec<f64>,
    /// Time fraction spent in markings absent from the graph (0 when the
    /// graph covers the net's reachable space).
    pub unmatched: f64,
}

impl OccupancyEstimate {
    /// Largest absolute difference against a reference distribution.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different length.
    pub fn max_abs_diff(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.occupancy.len(), "length mismatch");
        self.occupancy
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_petri::expr::Expr;
    use nvp_petri::net::{NetBuilder, TransitionKind};

    fn updown(fail: f64, repair: f64) -> PetriNet {
        let mut b = NetBuilder::new("updown");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(fail))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("repair", TransitionKind::exponential_rate(repair))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        b.build().unwrap()
    }

    #[test]
    fn exponential_updown_availability() {
        let net = updown(0.2, 1.0);
        let est = simulate_reward(
            &net,
            &|m: &Marking| f64::from(m.tokens(0)),
            &SimOptions {
                horizon: 200_000.0,
                warmup: 1_000.0,
                seed: 42,
                batches: 20,
            },
        )
        .unwrap();
        let exact = 1.0 / 1.2;
        assert!(
            est.covers(exact, 0.005),
            "estimate {est:?} should cover {exact}"
        );
    }

    #[test]
    fn deterministic_race_matches_mrgp_closed_form() {
        // Same model as the MRGP test `deterministic_race_two_states`.
        let (lambda, mu, tau) = (0.3, 2.0, 1.5);
        let mut b = NetBuilder::new("race");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("exp_leave", TransitionKind::exponential_rate(lambda))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("det_leave", TransitionKind::deterministic_delay(tau))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("back", TransitionKind::exponential_rate(mu))
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let t0 = (1.0 - (-lambda * tau).exp()) / lambda;
        let expected = t0 / (t0 + 1.0 / mu);
        let est = simulate_reward(
            &net,
            &|m: &Marking| f64::from(m.tokens(0)),
            &SimOptions {
                horizon: 300_000.0,
                warmup: 1_000.0,
                seed: 7,
                batches: 20,
            },
        )
        .unwrap();
        assert!(
            est.covers(expected, 0.005),
            "estimate {est:?} should cover {expected}"
        );
    }

    #[test]
    fn enabling_memory_preserves_clock_across_markings() {
        // A pure deterministic cycle: the clock fires exactly every tau even
        // though an exponential transition churns another token.
        let mut b = NetBuilder::new("memory");
        let clk = b.place("Clk", 1);
        let count = b.place("Count", 0);
        let x = b.place("X", 1);
        b.transition("tick", TransitionKind::deterministic_delay(5.0))
            .unwrap()
            .input(clk, 1)
            .output(clk, 1)
            .output(count, 1);
        b.transition("churn", TransitionKind::exponential_rate(10.0))
            .unwrap()
            .input(x, 1)
            .output(x, 1);
        let net = b.build().unwrap();
        let mut sim = DspnSimulator::new(&net, 1).unwrap();
        let tick = net.transition_by_name("tick").unwrap();
        let mut ticks = 0;
        while sim.time() < 100.0 {
            let s = sim.step(100.0).unwrap();
            if s.fired == Some(tick) {
                ticks += 1;
                // The i-th tick happens at exactly i * 5.
                assert!(
                    (sim.time() - f64::from(ticks) * 5.0).abs() < 1e-9,
                    "tick {ticks} at {}",
                    sim.time()
                );
            }
        }
        // Ticks at 5, 10, ..., 100: the boundary event at t = 100 fires
        // because `step(max_time)` treats the horizon inclusively.
        assert_eq!(ticks, 20);
    }

    #[test]
    fn immediate_weights_split_probabilistically() {
        // 30/70 immediate split, then exponential return; the time share of
        // the two branches reflects the weights.
        let mut b = NetBuilder::new("split");
        let s = b.place("S", 1);
        let l = b.place("L", 0);
        let r = b.place("R", 0);
        b.transition(
            "goL",
            TransitionKind::immediate_weighted(Expr::constant(3.0), 1),
        )
        .unwrap()
        .input(s, 1)
        .output(l, 1);
        b.transition(
            "goR",
            TransitionKind::immediate_weighted(Expr::constant(7.0), 1),
        )
        .unwrap()
        .input(s, 1)
        .output(r, 1);
        b.transition("backL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(l, 1)
            .output(s, 1);
        b.transition("backR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(r, 1)
            .output(s, 1);
        let net = b.build().unwrap();
        let est = simulate_reward(
            &net,
            &|m: &Marking| f64::from(m.tokens(1)), // time share of L
            &SimOptions {
                horizon: 200_000.0,
                warmup: 100.0,
                seed: 3,
                batches: 20,
            },
        )
        .unwrap();
        assert!(est.covers(0.3, 0.01), "estimate {est:?} should cover 0.3");
    }

    #[test]
    fn identical_seeds_reproduce_identical_estimates() {
        let net = updown(0.5, 1.0);
        let opts = SimOptions {
            horizon: 10_000.0,
            warmup: 100.0,
            seed: 99,
            batches: 5,
        };
        let e1 = simulate_reward(&net, &|m: &Marking| f64::from(m.tokens(0)), &opts).unwrap();
        let e2 = simulate_reward(&net, &|m: &Marking| f64::from(m.tokens(0)), &opts).unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let net = updown(0.5, 1.0);
        let mk = |seed| SimOptions {
            horizon: 10_000.0,
            warmup: 100.0,
            seed,
            batches: 5,
        };
        let e1 = simulate_reward(&net, &|m: &Marking| f64::from(m.tokens(0)), &mk(1)).unwrap();
        let e2 = simulate_reward(&net, &|m: &Marking| f64::from(m.tokens(0)), &mk(2)).unwrap();
        assert_ne!(e1, e2);
    }

    #[test]
    fn dead_marking_rides_out_the_horizon() {
        let mut b = NetBuilder::new("dead");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("go", TransitionKind::exponential_rate(100.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        let net = b.build().unwrap();
        let est = simulate_reward(
            &net,
            &|m: &Marking| f64::from(m.tokens(1)),
            &SimOptions {
                horizon: 1_000.0,
                warmup: 10.0,
                seed: 5,
                batches: 4,
            },
        )
        .unwrap();
        // After the (fast) transition, the process sits in B forever.
        assert!((est.mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn occupancy_matches_ctmc_steady_state() {
        let net = updown(0.25, 1.0);
        let graph = nvp_petri::reach::explore(&net, 100).unwrap();
        let est = simulate_occupancy(
            &net,
            &graph,
            &SimOptions {
                horizon: 300_000.0,
                warmup: 1_000.0,
                seed: 17,
                batches: 2,
            },
        )
        .unwrap();
        assert_eq!(est.unmatched, 0.0);
        assert!((est.occupancy.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let up_idx = graph.index_of(&Marking::new(vec![1, 0])).unwrap();
        let exact = 1.0 / 1.25;
        assert!(
            (est.occupancy[up_idx] - exact).abs() < 0.01,
            "occupancy {est:?} vs exact {exact}"
        );
        assert!(est.max_abs_diff(&[0.0; 2]) > 0.5);
    }

    #[test]
    fn batched_occupancy_agrees_with_single_pass() {
        let net = updown(0.25, 1.0);
        let graph = nvp_petri::reach::explore(&net, 100).unwrap();
        let opts = SimOptions {
            horizon: 300_000.0,
            warmup: 1_000.0,
            seed: 17,
            batches: 20,
        };
        let single = simulate_occupancy(&net, &graph, &opts).unwrap();
        let batched = simulate_occupancy_batched(&net, &graph, &opts).unwrap();
        assert_eq!(batched.unmatched, 0.0);
        assert_eq!(batched.half_widths.len(), 2);
        for ((b, hw), s) in batched
            .occupancy
            .iter()
            .zip(&batched.half_widths)
            .zip(&single.occupancy)
        {
            // Capping a sojourn at a batch boundary discards the sampled
            // holding time and resamples (exact by memorylessness), so the
            // two trajectories diverge: agreement is statistical only.
            assert!((b - s).abs() <= hw + 0.01, "{b} vs {s} (±{hw})");
            assert!(*hw > 0.0, "non-degenerate error bar");
        }
        // The exact CTMC answer lies inside every confidence interval.
        let up_idx = graph.index_of(&Marking::new(vec![1, 0])).unwrap();
        let exact = 1.0 / 1.25;
        assert!(
            (batched.occupancy[up_idx] - exact).abs() <= batched.half_widths[up_idx] + 0.005,
            "{batched:?}"
        );
    }

    #[test]
    fn options_are_validated() {
        let net = updown(1.0, 1.0);
        let reward = |m: &Marking| f64::from(m.tokens(0));
        for bad in [
            SimOptions {
                horizon: 0.0,
                ..Default::default()
            },
            SimOptions {
                warmup: 2e6,
                ..Default::default()
            },
            SimOptions {
                batches: 1,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                simulate_reward(&net, &reward, &bad),
                Err(SimError::InvalidOption { .. })
            ));
        }
    }
}
