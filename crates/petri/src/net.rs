//! Petri-net structure: places, transitions, arcs, and firing semantics.

use crate::expr::Expr;
use crate::marking::Marking;
use crate::{PetriError, Result};
use std::collections::HashMap;
use std::fmt;

/// Identifies a place within its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// The place's index into markings of this net.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a transition within its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) usize);

impl TransitionId {
    /// The transition's index within the net.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A place: a named token container with an initial count.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Unique name of the place.
    pub name: String,
    /// Tokens in the initial marking.
    pub initial: u32,
}

/// The timing class of a transition.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionKind {
    /// Fires in zero time. When several immediate transitions are enabled,
    /// the highest `priority` class fires and the choice within the class is
    /// probabilistic with normalized `weight`s.
    Immediate {
        /// Marking-dependent firing weight (must evaluate > 0 when enabled).
        weight: Expr,
        /// Priority class; higher fires first. Defaults to 1.
        priority: u32,
    },
    /// Fires after an exponentially distributed delay.
    Exponential {
        /// Marking-dependent rate (must evaluate > 0 when enabled).
        rate: Expr,
    },
    /// Fires after a fixed delay, with enabling memory.
    Deterministic {
        /// Marking-dependent delay (must evaluate > 0 when enabled).
        delay: Expr,
    },
}

impl TransitionKind {
    /// An immediate transition with weight 1 and priority 1.
    pub fn immediate() -> Self {
        TransitionKind::Immediate {
            weight: Expr::Const(1.0),
            priority: 1,
        }
    }

    /// An immediate transition with the given weight expression and priority.
    pub fn immediate_weighted(weight: Expr, priority: u32) -> Self {
        TransitionKind::Immediate { weight, priority }
    }

    /// An exponential transition with a constant rate.
    pub fn exponential_rate(rate: f64) -> Self {
        TransitionKind::Exponential {
            rate: Expr::Const(rate),
        }
    }

    /// An exponential transition with a marking-dependent rate.
    pub fn exponential(rate: Expr) -> Self {
        TransitionKind::Exponential { rate }
    }

    /// A deterministic transition with a constant delay.
    pub fn deterministic_delay(delay: f64) -> Self {
        TransitionKind::Deterministic {
            delay: Expr::Const(delay),
        }
    }

    /// A deterministic transition with a marking-dependent delay.
    pub fn deterministic(delay: Expr) -> Self {
        TransitionKind::Deterministic { delay }
    }

    /// Whether this is an immediate transition.
    pub fn is_immediate(&self) -> bool {
        matches!(self, TransitionKind::Immediate { .. })
    }
}

/// An arc connecting a place to a transition (or vice versa) with a
/// marking-dependent multiplicity.
#[derive(Debug, Clone, PartialEq)]
pub struct NetArc {
    /// The connected place.
    pub place: PlaceId,
    /// Multiplicity; evaluated on the marking in which the transition fires.
    /// Must evaluate to a non-negative integer. A multiplicity of 0 means
    /// the arc is absent in that marking (TimeNET convention).
    pub weight: Expr,
}

/// A transition with its guard and arcs.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Unique name of the transition.
    pub name: String,
    /// Timing class.
    pub kind: TransitionKind,
    /// Optional enabling guard; the transition is disabled when it evaluates
    /// to 0.
    pub guard: Option<Expr>,
    /// Input arcs (tokens consumed).
    pub inputs: Vec<NetArc>,
    /// Output arcs (tokens produced).
    pub outputs: Vec<NetArc>,
    /// Inhibitor arcs: the transition is disabled when the place holds at
    /// least the arc's multiplicity. Multiplicity must evaluate ≥ 1.
    pub inhibitors: Vec<NetArc>,
}

/// An immutable DSPN.
///
/// Build one with [`NetBuilder`]; analyze it with [`crate::reach::explore`].
#[derive(Debug, Clone)]
pub struct PetriNet {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    place_index: HashMap<String, usize>,
}

impl PetriNet {
    /// Name of the net.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The places of the net, indexed by [`PlaceId::index`].
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// The transitions of the net, indexed by [`TransitionId::index`].
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks up a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied().map(PlaceId)
    }

    /// Looks up a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId)
    }

    /// Iterates over all transition ids, in declaration order (parallel to
    /// [`PetriNet::transitions`]).
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len()).map(TransitionId)
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.places.iter().map(|p| p.initial).collect()
    }

    /// Whether transition `t` is enabled in marking `m`.
    ///
    /// # Errors
    ///
    /// * [`PetriError::InvalidReference`] if `t` does not belong to this net.
    /// * [`PetriError::ExprDomain`] if an arc multiplicity evaluates to a
    ///   negative or fractional value, or an inhibitor multiplicity is < 1.
    pub fn is_enabled(&self, t: TransitionId, m: &Marking) -> Result<bool> {
        let tr = self.transition(t)?;
        if let Some(guard) = &tr.guard {
            if !guard.eval_bool(m)? {
                return Ok(false);
            }
        }
        for arc in &tr.inputs {
            let w = eval_multiplicity(&arc.weight, m, "input arc multiplicity")?;
            if m.tokens(arc.place.index()) < w {
                return Ok(false);
            }
        }
        for arc in &tr.inhibitors {
            let w = eval_multiplicity(&arc.weight, m, "inhibitor arc multiplicity")?;
            if w == 0 {
                return Err(PetriError::ExprDomain {
                    what: format!("inhibitor multiplicity of `{}`", tr.name),
                    value: 0.0,
                });
            }
            if m.tokens(arc.place.index()) >= w {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fires transition `t` in marking `m`, returning the successor marking.
    ///
    /// All arc multiplicities are evaluated on the *pre-firing* marking
    /// (TimeNET semantics).
    ///
    /// # Errors
    ///
    /// * [`PetriError::InvalidReference`] if `t` does not belong to this net
    ///   or `t` is not enabled in `m` (firing a disabled transition is a
    ///   logic error surfaced as an error rather than a panic).
    /// * [`PetriError::ExprDomain`] for invalid arc multiplicities.
    pub fn fire(&self, t: TransitionId, m: &Marking) -> Result<Marking> {
        if !self.is_enabled(t, m)? {
            return Err(PetriError::InvalidReference {
                what: format!(
                    "transition `{}` fired while disabled in marking {m}",
                    self.transition(t)?.name
                ),
            });
        }
        let tr = self.transition(t)?;
        let mut next = m.clone();
        for arc in &tr.inputs {
            let w = eval_multiplicity(&arc.weight, m, "input arc multiplicity")?;
            next.remove(arc.place.index(), w);
        }
        for arc in &tr.outputs {
            let w = eval_multiplicity(&arc.weight, m, "output arc multiplicity")?;
            next.add(arc.place.index(), w);
        }
        Ok(next)
    }

    /// Binds a textual expression against this net's place names.
    ///
    /// # Errors
    ///
    /// Parse errors and unknown-place errors.
    pub fn parse_expr(&self, src: &str) -> Result<Expr> {
        let index = &self.place_index;
        Expr::parse(src)?.bind(&|name| index.get(name).copied())
    }

    /// Formats a marking with place names, listing only marked places
    /// (e.g. `Pmh=5 Pmc=1`); `empty` for the zero marking.
    ///
    /// # Panics
    ///
    /// Panics if the marking covers fewer places than the net declares.
    pub fn format_marking(&self, m: &Marking) -> String {
        assert!(
            m.len() >= self.places.len(),
            "marking covers {} places, net has {}",
            m.len(),
            self.places.len()
        );
        let parts: Vec<String> = self
            .places
            .iter()
            .enumerate()
            .filter(|&(i, _)| m.tokens(i) > 0)
            .map(|(i, p)| format!("{}={}", p.name, m.tokens(i)))
            .collect();
        if parts.is_empty() {
            "empty".to_string()
        } else {
            parts.join(" ")
        }
    }

    fn transition(&self, t: TransitionId) -> Result<&Transition> {
        self.transitions
            .get(t.index())
            .ok_or_else(|| PetriError::InvalidReference {
                what: format!("transition index {}", t.index()),
            })
    }
}

impl fmt::Display for PetriNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net `{}`: {} places, {} transitions",
            self.name,
            self.places.len(),
            self.transitions.len()
        )?;
        for p in &self.places {
            writeln!(f, "  place {} (initial {})", p.name, p.initial)?;
        }
        for t in &self.transitions {
            let kind = match &t.kind {
                TransitionKind::Immediate { weight, priority } => {
                    format!("immediate(w = {weight}, prio = {priority})")
                }
                TransitionKind::Exponential { rate } => format!("exp(rate = {rate})"),
                TransitionKind::Deterministic { delay } => format!("det(delay = {delay})"),
            };
            writeln!(f, "  transition {} {kind}", t.name)?;
        }
        Ok(())
    }
}

fn eval_multiplicity(expr: &Expr, m: &Marking, what: &str) -> Result<u32> {
    let v = expr.eval(m)?;
    if !v.is_finite() || v < 0.0 || (v - v.round()).abs() > 1e-9 || v > f64::from(u32::MAX) {
        return Err(PetriError::ExprDomain {
            what: what.to_string(),
            value: v,
        });
    }
    Ok(v.round() as u32)
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Incremental builder for [`PetriNet`].
///
/// Place and transition names must be unique and non-empty. Expressions may
/// reference any place declared on the builder (including places declared
/// after the expression is attached); they are bound when [`NetBuilder::build`]
/// runs.
#[derive(Debug, Clone)]
pub struct NetBuilder {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    names: HashMap<String, ()>,
    errors: Vec<PetriError>,
}

impl NetBuilder {
    /// Creates a builder for a net with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetBuilder {
            name: name.into(),
            places: Vec::new(),
            transitions: Vec::new(),
            names: HashMap::new(),
            errors: Vec::new(),
        }
    }

    /// Declares a place with its initial token count and returns its id.
    ///
    /// Name problems (duplicates, empty names) are reported by
    /// [`NetBuilder::build`].
    pub fn place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        let name = name.into();
        self.check_name(&name);
        self.places.push(Place { name, initial });
        PlaceId(self.places.len() - 1)
    }

    /// Declares a transition and returns a handle for attaching arcs and a
    /// guard.
    ///
    /// # Errors
    ///
    /// Currently infallible (name problems surface in
    /// [`NetBuilder::build`]); the `Result` reserves room for future
    /// validation.
    pub fn transition(
        &mut self,
        name: impl Into<String>,
        kind: TransitionKind,
    ) -> Result<TransitionHandle<'_>> {
        let name = name.into();
        self.check_name(&name);
        self.transitions.push(Transition {
            name,
            kind,
            guard: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            inhibitors: Vec::new(),
        });
        let idx = self.transitions.len() - 1;
        Ok(TransitionHandle { builder: self, idx })
    }

    fn check_name(&mut self, name: &str) {
        if name.is_empty() {
            self.errors.push(PetriError::InvalidName {
                name: name.to_string(),
            });
        } else if self.names.insert(name.to_string(), ()).is_some() {
            self.errors.push(PetriError::DuplicateName {
                name: name.to_string(),
            });
        }
    }

    /// Finalizes the net: validates names and binds every expression against
    /// the declared places.
    ///
    /// # Errors
    ///
    /// * The first [`PetriError::DuplicateName`] / [`PetriError::InvalidName`]
    ///   recorded while declaring elements.
    /// * [`PetriError::UnknownPlace`] if an expression references an
    ///   undeclared place.
    /// * [`PetriError::InvalidReference`] if an arc references a foreign
    ///   [`PlaceId`].
    pub fn build(mut self) -> Result<PetriNet> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let place_index: HashMap<String, usize> = self
            .places
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        let lookup = |name: &str| place_index.get(name).copied();
        let n_places = self.places.len();
        for t in &mut self.transitions {
            if let Some(g) = &t.guard {
                t.guard = Some(g.bind(&lookup)?);
            }
            t.kind = match std::mem::replace(&mut t.kind, TransitionKind::immediate()) {
                TransitionKind::Immediate { weight, priority } => TransitionKind::Immediate {
                    weight: weight.bind(&lookup)?,
                    priority,
                },
                TransitionKind::Exponential { rate } => TransitionKind::Exponential {
                    rate: rate.bind(&lookup)?,
                },
                TransitionKind::Deterministic { delay } => TransitionKind::Deterministic {
                    delay: delay.bind(&lookup)?,
                },
            };
            for arcs in [&mut t.inputs, &mut t.outputs, &mut t.inhibitors] {
                for arc in arcs.iter_mut() {
                    if arc.place.index() >= n_places {
                        return Err(PetriError::InvalidReference {
                            what: format!(
                                "arc of `{}` references place index {}",
                                t.name,
                                arc.place.index()
                            ),
                        });
                    }
                    arc.weight = arc.weight.bind(&lookup)?;
                }
            }
        }
        Ok(PetriNet {
            name: self.name,
            places: self.places,
            transitions: self.transitions,
            place_index,
        })
    }
}

/// Mutable handle to a transition being configured on a [`NetBuilder`].
#[derive(Debug)]
pub struct TransitionHandle<'a> {
    builder: &'a mut NetBuilder,
    idx: usize,
}

impl TransitionHandle<'_> {
    /// Adds an input arc with constant multiplicity.
    pub fn input(&mut self, place: PlaceId, weight: u32) -> &mut Self {
        self.input_expr(place, Expr::Const(f64::from(weight)))
    }

    /// Adds an input arc with a marking-dependent multiplicity.
    pub fn input_expr(&mut self, place: PlaceId, weight: Expr) -> &mut Self {
        self.builder.transitions[self.idx]
            .inputs
            .push(NetArc { place, weight });
        self
    }

    /// Adds an output arc with constant multiplicity.
    pub fn output(&mut self, place: PlaceId, weight: u32) -> &mut Self {
        self.output_expr(place, Expr::Const(f64::from(weight)))
    }

    /// Adds an output arc with a marking-dependent multiplicity.
    pub fn output_expr(&mut self, place: PlaceId, weight: Expr) -> &mut Self {
        self.builder.transitions[self.idx]
            .outputs
            .push(NetArc { place, weight });
        self
    }

    /// Adds an inhibitor arc with constant multiplicity (must be ≥ 1).
    pub fn inhibitor(&mut self, place: PlaceId, weight: u32) -> &mut Self {
        self.inhibitor_expr(place, Expr::Const(f64::from(weight)))
    }

    /// Adds an inhibitor arc with a marking-dependent multiplicity.
    pub fn inhibitor_expr(&mut self, place: PlaceId, weight: Expr) -> &mut Self {
        self.builder.transitions[self.idx]
            .inhibitors
            .push(NetArc { place, weight });
        self
    }

    /// Sets the enabling guard.
    pub fn guard(&mut self, guard: Expr) -> &mut Self {
        self.builder.transitions[self.idx].guard = Some(guard);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> PetriNet {
        let mut b = NetBuilder::new("simple");
        let a = b.place("A", 2);
        let c = b.place("B", 0);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.build().unwrap()
    }

    #[test]
    fn initial_marking_reflects_places() {
        let net = simple_net();
        assert_eq!(net.initial_marking(), Marking::new(vec![2, 0]));
        assert_eq!(net.place_by_name("A"), Some(PlaceId(0)));
        assert_eq!(net.place_by_name("Z"), None);
        assert!(net.transition_by_name("t").is_some());
    }

    #[test]
    fn enabling_and_firing() {
        let net = simple_net();
        let t = net.transition_by_name("t").unwrap();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t, &m0).unwrap());
        let m1 = net.fire(t, &m0).unwrap();
        assert_eq!(m1, Marking::new(vec![1, 1]));
        let m2 = net.fire(t, &m1).unwrap();
        assert_eq!(m2, Marking::new(vec![0, 2]));
        assert!(!net.is_enabled(t, &m2).unwrap());
        assert!(net.fire(t, &m2).is_err());
    }

    #[test]
    fn guard_disables_transition() {
        let mut b = NetBuilder::new("guarded");
        let a = b.place("A", 5);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .guard(Expr::parse("#A > 3").unwrap());
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert!(net.is_enabled(t, &Marking::new(vec![5])).unwrap());
        assert!(!net.is_enabled(t, &Marking::new(vec![3])).unwrap());
    }

    #[test]
    fn inhibitor_arc_disables_at_threshold() {
        let mut b = NetBuilder::new("inhib");
        let a = b.place("A", 1);
        let z = b.place("Z", 0);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .inhibitor(z, 2);
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert!(net.is_enabled(t, &Marking::new(vec![1, 1])).unwrap());
        assert!(!net.is_enabled(t, &Marking::new(vec![1, 2])).unwrap());
        assert!(!net.is_enabled(t, &Marking::new(vec![1, 5])).unwrap());
    }

    #[test]
    fn zero_weight_inhibitor_is_domain_error() {
        let mut b = NetBuilder::new("inhib0");
        let a = b.place("A", 1);
        b.transition("t", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .inhibitor_expr(a, Expr::Const(0.0));
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert!(matches!(
            net.is_enabled(t, &Marking::new(vec![1])),
            Err(PetriError::ExprDomain { .. })
        ));
    }

    #[test]
    fn marking_dependent_arc_weights() {
        // Consume all tokens of A in one firing: weight = #A.
        let mut b = NetBuilder::new("flush");
        let a = b.place("A", 3);
        let c = b.place("B", 0);
        b.transition("flush", TransitionKind::immediate())
            .unwrap()
            .input_expr(a, Expr::parse("#A").unwrap())
            .output_expr(c, Expr::parse("#A").unwrap())
            .guard(Expr::parse("#A > 0").unwrap());
        let net = b.build().unwrap();
        let t = net.transition_by_name("flush").unwrap();
        let m1 = net.fire(t, &net.initial_marking()).unwrap();
        assert_eq!(m1, Marking::new(vec![0, 3]));
        assert!(!net.is_enabled(t, &m1).unwrap());
    }

    #[test]
    fn zero_multiplicity_input_imposes_no_condition() {
        // TimeNET convention: multiplicity 0 means the arc is absent.
        let mut b = NetBuilder::new("zero");
        let a = b.place("A", 0);
        let c = b.place("B", 0);
        b.transition("t", TransitionKind::immediate())
            .unwrap()
            .input_expr(a, Expr::parse("#A").unwrap())
            .output(c, 1);
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert!(net.is_enabled(t, &Marking::new(vec![0, 0])).unwrap());
    }

    #[test]
    fn negative_multiplicity_is_domain_error() {
        let mut b = NetBuilder::new("neg");
        let a = b.place("A", 1);
        b.transition("t", TransitionKind::immediate())
            .unwrap()
            .input_expr(a, Expr::parse("#A - 2").unwrap());
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert!(matches!(
            net.is_enabled(t, &Marking::new(vec![1])),
            Err(PetriError::ExprDomain { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected_at_build() {
        let mut b = NetBuilder::new("dup");
        b.place("X", 0);
        b.place("X", 1);
        assert!(matches!(b.build(), Err(PetriError::DuplicateName { .. })));

        let mut b = NetBuilder::new("dup2");
        b.place("X", 0);
        b.transition("X", TransitionKind::immediate()).unwrap();
        assert!(matches!(b.build(), Err(PetriError::DuplicateName { .. })));
    }

    #[test]
    fn empty_name_rejected_at_build() {
        let mut b = NetBuilder::new("empty");
        b.place("", 0);
        assert!(matches!(b.build(), Err(PetriError::InvalidName { .. })));
    }

    #[test]
    fn unknown_place_in_guard_rejected_at_build() {
        let mut b = NetBuilder::new("unk");
        let a = b.place("A", 1);
        b.transition("t", TransitionKind::immediate())
            .unwrap()
            .input(a, 1)
            .guard(Expr::parse("#Ghost > 0").unwrap());
        assert!(matches!(b.build(), Err(PetriError::UnknownPlace { .. })));
    }

    #[test]
    fn parse_expr_binds_against_net_places() {
        let net = simple_net();
        let e = net.parse_expr("#A + #B").unwrap();
        assert_eq!(e.eval(&Marking::new(vec![2, 3])).unwrap(), 5.0);
        assert!(net.parse_expr("#Nope").is_err());
    }

    #[test]
    fn format_marking_names_marked_places() {
        let net = simple_net();
        assert_eq!(net.format_marking(&Marking::new(vec![2, 0])), "A=2");
        assert_eq!(net.format_marking(&Marking::new(vec![1, 3])), "A=1 B=3");
        assert_eq!(net.format_marking(&Marking::new(vec![0, 0])), "empty");
    }

    #[test]
    fn display_lists_elements() {
        let net = simple_net();
        let s = net.to_string();
        assert!(s.contains("place A"));
        assert!(s.contains("transition t"));
    }
}
