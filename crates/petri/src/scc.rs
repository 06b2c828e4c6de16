//! Strongly-connected-component analysis of tangible reachability graphs.
//!
//! Classifies tangible markings into *recurrent* classes (bottom SCCs, which
//! the process never leaves once entered) and *transient* markings. The
//! steady-state solver uses this to explain failures precisely: a unique
//! stationary distribution exists only when there is exactly one recurrent
//! class; with several, the long-run behaviour depends on the initial
//! marking.

use crate::reach::TangibleReachGraph;

/// Classification of a tangible reachability graph's markings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccReport {
    /// `component[m]` is the SCC index of marking `m` (0-based, reverse
    /// topological order: edges go from higher to lower indices or stay
    /// within a component).
    pub component: Vec<usize>,
    /// Indices of the *recurrent* (bottom) components: no edge leaves them.
    pub recurrent: Vec<usize>,
}

/// Computes the SCCs of the timed-transition graph (exponential and
/// deterministic edges alike) with Tarjan's algorithm (iterative).
pub fn analyze(graph: &TangibleReachGraph) -> SccReport {
    let n = graph.tangible_count();
    let successors: Vec<Vec<usize>> = (0..n)
        .map(|m| {
            let state = &graph.states()[m];
            let mut out: Vec<usize> = state
                .exponential
                .iter()
                .chain(&state.deterministic)
                .flat_map(|arc| arc.targets.entries().iter().map(|&(to, _)| to))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();

    // Iterative Tarjan.
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut component = vec![UNVISITED; n];
    let mut next_index = 0usize;
    let mut next_component = 0usize;
    // Work stack frames: (node, successor cursor).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if let Some(&w) = successors[v].get(*cursor) {
                *cursor += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // v is the root of an SCC.
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w] = false;
                        component[w] = next_component;
                        if w == v {
                            break;
                        }
                    }
                    next_component += 1;
                }
            }
        }
    }

    // A component is recurrent iff no edge leaves it.
    let mut leaves = vec![false; next_component];
    for (m, succs) in successors.iter().enumerate() {
        for &w in succs {
            if component[w] != component[m] {
                leaves[component[m]] = true;
            }
        }
    }
    let recurrent: Vec<usize> = (0..next_component).filter(|&c| !leaves[c]).collect();
    SccReport {
        component,
        recurrent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetBuilder, TransitionKind};
    use crate::reach::explore;

    #[test]
    fn irreducible_chain_is_one_recurrent_class() {
        let mut b = NetBuilder::new("cycle");
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.transition("ab", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(c, 1);
        b.transition("ba", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(c, 1)
            .output(a, 1);
        let graph = explore(&b.build().unwrap(), 100).unwrap();
        let report = analyze(&graph);
        assert_eq!(report.component, vec![0, 0], "one component");
        assert_eq!(report.recurrent, vec![0]);
    }

    #[test]
    fn transient_prefix_is_detected() {
        // A -> B <-> C: marking with the token in A is transient.
        let mut b = NetBuilder::new("prefix");
        let a = b.place("A", 1);
        let p2 = b.place("B", 0);
        let p3 = b.place("C", 0);
        b.transition("enter", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(p2, 1);
        b.transition("bc", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(p2, 1)
            .output(p3, 1);
        b.transition("cb", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(p3, 1)
            .output(p2, 1);
        let net = b.build().unwrap();
        let graph = explore(&net, 100).unwrap();
        let report = analyze(&graph);
        assert_eq!(report.component.iter().max(), Some(&1), "two components");
        assert_eq!(report.recurrent.len(), 1);
        let start = graph
            .index_of(&crate::marking::Marking::new(vec![1, 0, 0]))
            .unwrap();
        assert!(!report.recurrent.contains(&report.component[start]));
        let recurrent_class = report
            .component
            .iter()
            .filter(|&&c| c == report.recurrent[0]);
        assert_eq!(recurrent_class.count(), 2);
    }

    #[test]
    fn two_absorbing_states_are_two_recurrent_classes() {
        // A branches into two dead-ends kept alive by self-loops.
        let mut b = NetBuilder::new("split");
        let a = b.place("A", 1);
        let l = b.place("L", 0);
        let r = b.place("R", 0);
        b.transition("goL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(l, 1);
        b.transition("goR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(a, 1)
            .output(r, 1);
        b.transition("spinL", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(l, 1)
            .output(l, 1);
        b.transition("spinR", TransitionKind::exponential_rate(1.0))
            .unwrap()
            .input(r, 1)
            .output(r, 1);
        let graph = explore(&b.build().unwrap(), 100).unwrap();
        let report = analyze(&graph);
        assert_eq!(report.recurrent.len(), 2);
        assert_eq!(report.component.iter().max(), Some(&2), "three components");
    }

    #[test]
    fn deterministic_edges_count_for_connectivity() {
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
        let graph = explore(&b.build().unwrap(), 100).unwrap();
        let report = analyze(&graph);
        assert_eq!(report.component, vec![0, 0], "one component");
        assert_eq!(report.recurrent, vec![0]);
    }
}
