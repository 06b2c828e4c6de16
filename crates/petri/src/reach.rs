//! Reachability analysis with vanishing-marking elimination.
//!
//! DSPN analysis distinguishes *vanishing* markings (at least one immediate
//! transition enabled — left in zero time) from *tangible* markings (only
//! timed transitions enabled). [`explore`] enumerates the tangible markings
//! reachable from the initial marking and, for every timed transition enabled
//! in a tangible marking, the probability distribution over the tangible
//! markings reached after the firing and the ensuing cascade of immediate
//! firings.
//!
//! The output, [`TangibleReachGraph`], is the interface consumed by the
//! steady-state solver (`nvp-mrgp`) and by reward evaluation.

use crate::marking::Marking;
use crate::net::{PetriNet, TransitionId, TransitionKind};
use crate::{PetriError, Result};
use nvp_numerics::budget::SolveBudget;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

/// A probability distribution over tangible-marking indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Distribution(Vec<(usize, f64)>);

impl Distribution {
    /// The `(target index, probability)` pairs; probabilities sum to 1.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.0
    }

    /// Merges duplicate targets and drops zero-probability entries.
    /// Duplicates are summed in insertion order (the sort is stable), the
    /// rule `nvp_numerics::sparse` follows, so no bit depends on how an
    /// unstable sort orders equal keys.
    fn normalize(mut entries: Vec<(usize, f64)>) -> Distribution {
        entries.sort_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        for (i, p) in entries {
            if p == 0.0 {
                continue;
            }
            match merged.last_mut() {
                Some((j, q)) if *j == i => *q += p,
                _ => merged.push((i, p)),
            }
        }
        Distribution(merged)
    }

    /// Total probability mass (should be ≈ 1).
    pub fn total(&self) -> f64 {
        self.0.iter().map(|&(_, p)| p).sum()
    }
}

/// A timed transition enabled in a tangible marking, with its resolved
/// firing distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedArc {
    /// The transition.
    pub transition: TransitionId,
    /// Evaluated rate (exponential) or delay (deterministic) in this marking.
    pub value: f64,
    /// Distribution over tangible markings after firing (including the
    /// immediate cascade).
    pub targets: Distribution,
}

/// Outgoing behaviour of one tangible marking.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TangibleState {
    /// Enabled exponential transitions.
    pub exponential: Vec<TimedArc>,
    /// Enabled deterministic transitions. The MRGP steady-state solver
    /// requires at most one per marking; the simulator supports any number.
    pub deterministic: Vec<TimedArc>,
}

/// The tangible reachability graph of a DSPN.
#[derive(Debug, Clone)]
pub struct TangibleReachGraph {
    markings: Vec<Marking>,
    states: Vec<TangibleState>,
    initial: Distribution,
    index: HashMap<Marking, usize>,
}

impl TangibleReachGraph {
    /// Number of tangible markings.
    pub fn tangible_count(&self) -> usize {
        self.markings.len()
    }

    /// The tangible markings, indexed consistently with
    /// [`TangibleReachGraph::states`].
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// Outgoing behaviour per tangible marking.
    pub fn states(&self) -> &[TangibleState] {
        &self.states
    }

    /// Distribution over tangible markings entered from the initial marking
    /// (the initial marking itself may be vanishing).
    pub fn initial_distribution(&self) -> &Distribution {
        &self.initial
    }

    /// Index of a tangible marking, if present.
    pub fn index_of(&self, m: &Marking) -> Option<usize> {
        self.index.get(m).copied()
    }

    /// Evaluates `reward` on every tangible marking, producing the reward
    /// vector used with steady-state probabilities.
    pub fn reward_vector<F: FnMut(&Marking) -> f64>(&self, reward: F) -> Vec<f64> {
        self.markings.iter().map(reward).collect()
    }

    /// Evaluates a bound marking expression on every tangible marking.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn reward_expr(&self, expr: &crate::expr::Expr) -> Result<Vec<f64>> {
        self.markings.iter().map(|m| expr.eval(m)).collect()
    }
}

/// Upper bound on the length of any single immediate-firing cascade; beyond
/// this we assume a livelock among immediate transitions.
const MAX_CASCADE_DEPTH: usize = 10_000;

/// Observability counters from one reachability exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Number of tangible markings in the graph.
    pub tangible_markings: usize,
    /// Number of vanishing-marking visits during immediate-cascade
    /// resolution (a marking revisited along different paths counts each
    /// time, so this measures elimination work, not distinct markings).
    pub vanishing_visits: usize,
    /// Total timed arcs (exponential + deterministic) recorded.
    pub timed_arcs: usize,
    /// Exponential arcs whose marking-dependent rate evaluated to zero in
    /// their source marking (disabled-in-place; solvers skip them).
    pub zero_rate_arcs: usize,
}

/// Explores the tangible state space of `net`, up to `max_markings` tangible
/// markings.
///
/// Exponential rates may evaluate to **zero** in a marking: the transition
/// is then unable to fire there (common with marking-dependent rates such as
/// `#P / unit` when `#P = 0` is reachable), the arc is recorded with
/// `value == 0.0`, and solvers ignore it. Negative or non-finite rates, and
/// non-positive deterministic delays, are domain errors.
///
/// # Errors
///
/// * [`PetriError::StateSpaceExceeded`] if the budget is exhausted (the net
///   may be unbounded).
/// * [`PetriError::VanishingLoop`] if immediate transitions can fire forever
///   without reaching a tangible marking.
/// * [`PetriError::ExprDomain`] if a rate/delay/weight expression evaluates
///   outside its domain (rates must be non-negative and finite, delays
///   positive and finite; immediate weights non-negative with a positive
///   sum).
/// * Expression evaluation errors.
pub fn explore(net: &PetriNet, max_markings: usize) -> Result<TangibleReachGraph> {
    Ok(explore_with_stats(net, max_markings)?.0)
}

/// [`explore`], also returning the exploration's [`ExploreStats`].
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_with_stats(
    net: &PetriNet,
    max_markings: usize,
) -> Result<(TangibleReachGraph, ExploreStats)> {
    explore_with_stats_budgeted(net, max_markings, &SolveBudget::unlimited())
}

/// [`explore_with_stats`] under a [`SolveBudget`]: the wall-clock deadline is
/// checked once per marking expanded, so exploration of a huge (or unbounded)
/// net stops cleanly with a typed budget error instead of running away.
///
/// # Errors
///
/// Same as [`explore`], plus
/// [`nvp_numerics::NumericsError::BudgetExceeded`] (wrapped in
/// [`PetriError::Numerics`]) when the budget's deadline passes.
pub fn explore_with_stats_budgeted(
    net: &PetriNet,
    max_markings: usize,
    budget: &SolveBudget,
) -> Result<(TangibleReachGraph, ExploreStats)> {
    let mut span = nvp_obs::span("explore");
    let result = Explorer::new(net, max_markings, budget.clone()).run();
    if let Ok((_, stats)) = &result {
        // Vanishing elimination happens inline during the cascade walk, so
        // its work shows up as attributes of the exploration span.
        span.record("tangible_markings", stats.tangible_markings);
        span.record("vanishing_visits", stats.vanishing_visits);
        span.record("timed_arcs", stats.timed_arcs);
        span.record("zero_rate_arcs", stats.zero_rate_arcs);
    }
    result
}

struct Explorer<'a> {
    net: &'a PetriNet,
    max_markings: usize,
    budget: SolveBudget,
    markings: Vec<Marking>,
    states: Vec<TangibleState>,
    index: HashMap<Marking, usize>,
    queue: VecDeque<usize>,
    vanishing_visits: usize,
}

impl<'a> Explorer<'a> {
    fn new(net: &'a PetriNet, max_markings: usize, budget: SolveBudget) -> Self {
        Explorer {
            net,
            max_markings,
            budget,
            markings: Vec::new(),
            states: Vec::new(),
            index: HashMap::new(),
            queue: VecDeque::new(),
            vanishing_visits: 0,
        }
    }

    fn run(mut self) -> Result<(TangibleReachGraph, ExploreStats)> {
        self.budget.check("reachability exploration")?;
        let initial = self
            .resolve_to_tangible(self.net.initial_marking(), 1.0)?
            .into_iter()
            .map(|(m, p)| Ok((self.intern(m)?, p)))
            .collect::<Result<Vec<_>>>()?;
        let initial = Distribution::normalize(initial);
        if initial.entries().is_empty() {
            return Err(PetriError::NoTangibleMarking);
        }
        while let Some(idx) = self.queue.pop_front() {
            self.budget.check("reachability exploration")?;
            let state = self.expand(idx)?;
            self.states[idx] = state;
        }
        let mut stats = ExploreStats {
            tangible_markings: self.markings.len(),
            vanishing_visits: self.vanishing_visits,
            timed_arcs: 0,
            zero_rate_arcs: 0,
        };
        for s in &self.states {
            stats.timed_arcs += s.exponential.len() + s.deterministic.len();
            stats.zero_rate_arcs += s.exponential.iter().filter(|a| a.value == 0.0).count();
        }
        let graph = TangibleReachGraph {
            markings: self.markings,
            states: self.states,
            initial,
            index: self.index,
        };
        Ok((graph, stats))
    }

    /// Interns a tangible marking, scheduling it for expansion if new.
    fn intern(&mut self, m: Marking) -> Result<usize> {
        match self.index.entry(m.clone()) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let idx = self.markings.len();
                if idx >= self.max_markings {
                    return Err(PetriError::StateSpaceExceeded {
                        limit: self.max_markings,
                    });
                }
                e.insert(idx);
                self.markings.push(m);
                self.states.push(TangibleState::default());
                self.queue.push_back(idx);
                Ok(idx)
            }
        }
    }

    /// Computes the outgoing timed behaviour of tangible marking `idx`.
    fn expand(&mut self, idx: usize) -> Result<TangibleState> {
        let marking = self.markings[idx].clone();
        let mut state = TangibleState::default();
        for (t_idx, tr) in self.net.transitions().iter().enumerate() {
            let id = TransitionId(t_idx);
            if tr.kind.is_immediate() {
                continue; // tangible markings enable no immediate transition
            }
            if !self.net.is_enabled(id, &marking)? {
                continue;
            }
            let value = match &tr.kind {
                TransitionKind::Exponential { rate } => {
                    let v = rate.eval(&marking)?;
                    // Zero is legal: a marking-dependent rate of 0 means
                    // the transition cannot fire *in this marking* (e.g.
                    // `#P / unit` with `#P = 0`); solvers skip such arcs.
                    if !v.is_finite() || v < 0.0 {
                        return Err(PetriError::ExprDomain {
                            what: format!("rate of `{}`", tr.name),
                            value: v,
                        });
                    }
                    v
                }
                TransitionKind::Deterministic { delay } => {
                    let v = delay.eval(&marking)?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(PetriError::ExprDomain {
                            what: format!("delay of `{}`", tr.name),
                            value: v,
                        });
                    }
                    v
                }
                TransitionKind::Immediate { .. } => unreachable!("skipped above"),
            };
            let fired = self.net.fire(id, &marking)?;
            let resolved = self.resolve_to_tangible(fired, 1.0)?;
            let entries = resolved
                .into_iter()
                .map(|(m, p)| Ok((self.intern(m)?, p)))
                .collect::<Result<Vec<_>>>()?;
            let arc = TimedArc {
                transition: id,
                value,
                targets: Distribution::normalize(entries),
            };
            match &tr.kind {
                TransitionKind::Exponential { .. } => state.exponential.push(arc),
                TransitionKind::Deterministic { .. } => state.deterministic.push(arc),
                TransitionKind::Immediate { .. } => unreachable!(),
            }
        }
        Ok(state)
    }

    /// Follows the immediate-firing cascade from `m`, returning the reached
    /// tangible markings with probabilities (scaled by `mass`).
    ///
    /// Uses an explicit work stack; a cascade longer than
    /// [`MAX_CASCADE_DEPTH`] steps or revisiting a marking along one path is
    /// reported as a vanishing loop.
    fn resolve_to_tangible(&mut self, m: Marking, mass: f64) -> Result<Vec<(Marking, f64)>> {
        let mut out: Vec<(Marking, f64)> = Vec::new();
        // Work items carry the path of vanishing markings that led to them
        // so cycles are detected per path.
        let mut stack: Vec<(Marking, f64, HashSet<Marking>)> = vec![(m, mass, HashSet::new())];
        let mut steps = 0usize;
        while let Some((marking, mass, mut path)) = stack.pop() {
            steps += 1;
            if steps > MAX_CASCADE_DEPTH {
                return Err(PetriError::VanishingLoop {
                    marking: marking.to_string(),
                });
            }
            let immediates = self.enabled_immediates(&marking)?;
            if immediates.is_empty() {
                out.push((marking, mass));
                continue;
            }
            self.vanishing_visits += 1;
            if !path.insert(marking.clone()) {
                return Err(PetriError::VanishingLoop {
                    marking: marking.to_string(),
                });
            }
            // Highest priority class wins; normalize weights within it.
            let top = immediates
                .iter()
                .map(|&(_, prio, _)| prio)
                .max()
                .expect("non-empty");
            let class: Vec<&(TransitionId, u32, f64)> = immediates
                .iter()
                .filter(|&&(_, prio, _)| prio == top)
                .collect();
            let total_weight: f64 = class.iter().map(|&&(_, _, w)| w).sum();
            if total_weight <= 0.0 {
                return Err(PetriError::ExprDomain {
                    what: format!("total immediate weight in marking {marking}"),
                    value: total_weight,
                });
            }
            for &&(id, _, w) in &class {
                if w == 0.0 {
                    continue;
                }
                let next = self.net.fire(id, &marking)?;
                stack.push((next, mass * w / total_weight, path.clone()));
            }
        }
        Ok(out)
    }

    /// Enabled immediate transitions in `m` as `(id, priority, weight)`.
    fn enabled_immediates(&self, m: &Marking) -> Result<Vec<(TransitionId, u32, f64)>> {
        let mut out = Vec::new();
        for (t_idx, tr) in self.net.transitions().iter().enumerate() {
            let TransitionKind::Immediate { weight, priority } = &tr.kind else {
                continue;
            };
            let id = TransitionId(t_idx);
            if !self.net.is_enabled(id, m)? {
                continue;
            }
            let w = weight.eval(m)?;
            if !w.is_finite() || w < 0.0 {
                return Err(PetriError::ExprDomain {
                    what: format!("weight of `{}`", tr.name),
                    value: w,
                });
            }
            out.push((id, *priority, w));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::NetBuilder;

    /// Up/down net: 2 tangible markings.
    fn updown() -> PetriNet {
        let mut b = NetBuilder::new("updown");
        let up = b.place("Up", 1);
        let down = b.place("Down", 0);
        b.transition("fail", TransitionKind::exponential_rate(0.1))
            .unwrap()
            .input(up, 1)
            .output(down, 1);
        b.transition("repair", TransitionKind::exponential_rate(2.0))
            .unwrap()
            .input(down, 1)
            .output(up, 1);
        b.build().unwrap()
    }

    #[test]
    fn updown_graph_shape() {
        let net = updown();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 2);
        let init = g.initial_distribution();
        assert_eq!(init.entries().len(), 1);
        assert_eq!(init.entries()[0].1, 1.0);
        // Each marking has exactly one enabled exponential transition.
        for s in g.states() {
            assert_eq!(s.exponential.len(), 1);
            assert!(s.deterministic.is_empty());
            assert!((s.exponential[0].targets.total() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn vanishing_initial_marking_is_resolved() {
        // Initial marking enables an immediate transition that splits
        // 30/70 between two tangible markings.
        let mut b = NetBuilder::new("split");
        let start = b.place("Start", 1);
        let left = b.place("L", 0);
        let right = b.place("R", 0);
        b.transition(
            "goL",
            TransitionKind::immediate_weighted(Expr::Const(3.0), 1),
        )
        .unwrap()
        .input(start, 1)
        .output(left, 1);
        b.transition(
            "goR",
            TransitionKind::immediate_weighted(Expr::Const(7.0), 1),
        )
        .unwrap()
        .input(start, 1)
        .output(right, 1);
        // Keep L and R tangible with dummy exponential self-recycling.
        b.transition("tL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(left, 1)
            .output(left, 1);
        b.transition("tR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(right, 1)
            .output(right, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 2);
        let mut probs: Vec<f64> = g
            .initial_distribution()
            .entries()
            .iter()
            .map(|&(_, p)| p)
            .collect();
        probs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((probs[0] - 0.3).abs() < 1e-12);
        assert!((probs[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn priority_overrides_weight() {
        // Two immediates; the higher-priority one always wins.
        let mut b = NetBuilder::new("prio");
        let s = b.place("S", 1);
        let a = b.place("A", 0);
        let c = b.place("B", 0);
        b.transition(
            "low",
            TransitionKind::immediate_weighted(Expr::Const(1000.0), 1),
        )
        .unwrap()
        .input(s, 1)
        .output(a, 1);
        b.transition(
            "high",
            TransitionKind::immediate_weighted(Expr::Const(1.0), 2),
        )
        .unwrap()
        .input(s, 1)
        .output(c, 1);
        b.transition("keepA", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 1);
        b.transition("keepB", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(c, 1)
            .output(c, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 1);
        let m = &g.markings()[g.initial_distribution().entries()[0].0];
        // Token ended in B (index 2).
        assert_eq!(m.tokens(2), 1);
        assert_eq!(m.tokens(1), 0);
    }

    #[test]
    fn cascade_of_immediates_resolves_through_chain() {
        let mut b = NetBuilder::new("chain");
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let p2 = b.place("P2", 0);
        let p3 = b.place("P3", 0);
        b.transition("i1", TransitionKind::immediate())
            .unwrap()
            .input(p0, 1)
            .output(p1, 1);
        b.transition("i2", TransitionKind::immediate())
            .unwrap()
            .input(p1, 1)
            .output(p2, 1);
        b.transition("i3", TransitionKind::immediate())
            .unwrap()
            .input(p2, 1)
            .output(p3, 1);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(p3, 1)
            .output(p3, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 1);
        assert_eq!(g.markings()[0].tokens(3), 1);
    }

    #[test]
    fn vanishing_loop_is_detected() {
        // Two immediates that shuttle a token forever.
        let mut b = NetBuilder::new("livelock");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("ab", TransitionKind::immediate())
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("ba", TransitionKind::immediate())
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, 100),
            Err(PetriError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn unbounded_net_exceeds_budget() {
        let mut b = NetBuilder::new("unbounded");
        let a = b.place("A", 1);
        b.transition("gen", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 2);
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, 50),
            Err(PetriError::StateSpaceExceeded { limit: 50 })
        ));
    }

    #[test]
    fn expired_budget_stops_exploration_with_typed_error() {
        let net = updown();
        let budget = SolveBudget::with_wall_clock_ms(0);
        match explore_with_stats_budgeted(&net, 100, &budget) {
            Err(PetriError::Numerics(nvp_numerics::NumericsError::BudgetExceeded {
                stage,
                ..
            })) => assert_eq!(stage, "reachability exploration"),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_exploration() {
        let net = updown();
        let (a, sa) = explore_with_stats(&net, 100).unwrap();
        let (b, sb) = explore_with_stats_budgeted(&net, 100, &SolveBudget::unlimited()).unwrap();
        assert_eq!(a.tangible_count(), b.tangible_count());
        assert_eq!(sa, sb);
    }

    #[test]
    fn deterministic_transitions_are_recorded() {
        let mut b = NetBuilder::new("det");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("tick", TransitionKind::deterministic_delay(5.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("back", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 2);
        let i0 = g.index_of(&Marking::new(vec![1, 0])).unwrap();
        assert_eq!(g.states()[i0].deterministic.len(), 1);
        assert_eq!(g.states()[i0].deterministic[0].value, 5.0);
        assert!(g.states()[i0].exponential.is_empty());
    }

    #[test]
    fn marking_dependent_rate_is_evaluated_per_marking() {
        // Infinite-server encoding: rate = 0.5 * #A.
        let mut b = NetBuilder::new("is");
        let a = b.place("A", 3);
        let done = b.place("Done", 0);
        b.transition(
            "serve",
            TransitionKind::exponential(Expr::parse("0.5 * #A").unwrap()),
        )
        .unwrap()
        .input(a, 1)
        .output(done, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 4); // A = 3, 2, 1, 0
        for (m, s) in g.markings().iter().zip(g.states()) {
            if m.tokens(0) > 0 {
                assert_eq!(s.exponential[0].value, 0.5 * f64::from(m.tokens(0)));
            } else {
                assert!(s.exponential.is_empty());
            }
        }
    }

    #[test]
    fn negative_rate_is_domain_error() {
        let mut b = NetBuilder::new("badrate");
        let a = b.place("A", 1);
        b.transition(
            "t",
            TransitionKind::exponential(Expr::parse("#A - 2").unwrap()),
        )
        .unwrap()
        .input(a, 1)
        .output(a, 1);
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, 100),
            Err(PetriError::ExprDomain { .. })
        ));
    }

    #[test]
    fn zero_rate_is_recorded_not_an_error() {
        // `drain` has rate #B = 0 in the initial marking: it is recorded as
        // a zero-rate arc (cannot fire there), not rejected. `fill` moves a
        // token into B, after which `drain`'s rate is positive.
        let mut b = NetBuilder::new("zerorate");
        let a = b.place("A", 1);
        let bb = b.place("B", 0);
        b.transition("fill", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(bb, 1);
        b.transition(
            "drain",
            TransitionKind::exponential(Expr::parse("#B").unwrap()),
        )
        .unwrap()
        .input(bb, 1)
        .output(a, 1);
        // Keep `drain` formally enabled in the initial marking so its rate
        // is evaluated there: no input arc from B would disable it; instead
        // gate on A via a read (input+output) arc.
        b.transition(
            "drain0",
            TransitionKind::exponential(Expr::parse("#B").unwrap()),
        )
        .unwrap()
        .input(a, 1)
        .output(a, 1);
        let net = b.build().unwrap();
        let (g, stats) = explore_with_stats(&net, 100).unwrap();
        let i0 = g.index_of(&Marking::new(vec![1, 0])).unwrap();
        let zero = g.states()[i0]
            .exponential
            .iter()
            .find(|arc| arc.value == 0.0)
            .expect("zero-rate arc recorded");
        assert_eq!(zero.value, 0.0);
        assert!(stats.zero_rate_arcs >= 1);
        assert_eq!(stats.tangible_markings, g.tangible_count());
    }

    #[test]
    fn explore_stats_count_vanishing_work() {
        // The chain net resolves three vanishing markings before the single
        // tangible one.
        let mut b = NetBuilder::new("chain");
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let p2 = b.place("P2", 0);
        let p3 = b.place("P3", 0);
        b.transition("i1", TransitionKind::immediate())
            .unwrap()
            .input(p0, 1)
            .output(p1, 1);
        b.transition("i2", TransitionKind::immediate())
            .unwrap()
            .input(p1, 1)
            .output(p2, 1);
        b.transition("i3", TransitionKind::immediate())
            .unwrap()
            .input(p2, 1)
            .output(p3, 1);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(p3, 1)
            .output(p3, 1);
        let net = b.build().unwrap();
        let (g, stats) = explore_with_stats(&net, 100).unwrap();
        assert_eq!(g.tangible_count(), 1);
        assert_eq!(stats.tangible_markings, 1);
        assert_eq!(stats.vanishing_visits, 3);
        assert_eq!(stats.timed_arcs, 1);
        assert_eq!(stats.zero_rate_arcs, 0);
    }

    #[test]
    fn reward_vector_and_expr_agree() {
        let net = updown();
        let g = explore(&net, 100).unwrap();
        let by_closure = g.reward_vector(|m| f64::from(m.tokens(0)));
        let expr = net.parse_expr("#Up").unwrap();
        let by_expr = g.reward_expr(&expr).unwrap();
        assert_eq!(by_closure, by_expr);
    }

    #[test]
    fn exponential_self_loop_is_allowed() {
        // A net whose only transition recycles the same marking.
        let mut b = NetBuilder::new("selfloop");
        let a = b.place("A", 1);
        b.transition("spin", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(a, 1);
        let net = b.build().unwrap();
        let g = explore(&net, 10).unwrap();
        assert_eq!(g.tangible_count(), 1);
        let s = &g.states()[0];
        assert_eq!(s.exponential[0].targets.entries(), &[(0, 1.0)]);
    }
}
