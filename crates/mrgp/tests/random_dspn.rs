//! Property-based validation of the MRGP solver against closed forms on
//! randomly parameterized nets.

use nvp_mrgp::{steady_state, steady_state_with_options, SolveOptions};
use nvp_numerics::ctmc::Ctmc;
use nvp_numerics::pool::{Jobs, WorkerPool};
use nvp_petri::expr::Expr;
use nvp_petri::net::{NetBuilder, PetriNet, TransitionKind};
use nvp_petri::reach::{explore, TangibleReachGraph};
use proptest::prelude::*;

/// Two-state race net: A leaves via Exp(lambda) *and* Det(tau), both to B;
/// B returns via Exp(mu).
fn race_net(lambda: f64, mu: f64, tau: f64) -> PetriNet {
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
    b.build().unwrap()
}

/// Three-state maintenance net (see the solver's unit tests for the
/// derivation of the closed form).
fn maintenance_net(lambda: f64, mu: f64, delta: f64, tau: f64) -> PetriNet {
    let mut b = NetBuilder::new("maintenance");
    let up = b.place("Up", 1);
    let down = b.place("Down", 0);
    let maint = b.place("Maint", 0);
    b.transition("fail", TransitionKind::exponential_rate(lambda))
        .unwrap()
        .input(up, 1)
        .output(down, 1);
    b.transition("clock", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(up, 1)
        .output(maint, 1);
    b.transition("repair", TransitionKind::exponential_rate(mu))
        .unwrap()
        .input(down, 1)
        .output(up, 1);
    b.transition("finish", TransitionKind::exponential_rate(delta))
        .unwrap()
        .input(maint, 1)
        .output(up, 1);
    b.build().unwrap()
}

/// A ring of `positions` places with one circulating token (hop `i` fires at
/// `rates[i]`) and a no-op deterministic clock enabled in every marking, so
/// every marking owns a subordinated chain.
fn ring_net(rates: &[f64], tau: f64) -> PetriNet {
    let positions = rates.len();
    let mut b = NetBuilder::new("ring");
    let places: Vec<_> = (0..positions)
        .map(|i| b.place(format!("P{i}"), u32::from(i == 0)))
        .collect();
    let clk = b.place("Clk", 1);
    for (i, &rate) in rates.iter().enumerate() {
        b.transition(format!("hop{i}"), TransitionKind::exponential_rate(rate))
            .unwrap()
            .input(places[i], 1)
            .output(places[(i + 1) % positions], 1);
    }
    b.transition("clock", TransitionKind::deterministic_delay(tau))
        .unwrap()
        .input(clk, 1)
        .output(clk, 1);
    b.build().unwrap()
}

/// A ring of `rates.len()` places around which `tokens` tokens circulate
/// (hop `i` fires at `rates[i]`, times the tokens in place `i` when
/// `infinite_server`), plus shortcut transitions `(from, to, rate)` between
/// places (indices taken modulo the ring size). Every transition is
/// exponential, and the ring keeps the tangible markings one recurrent
/// class.
fn exponential_ring(
    rates: &[f64],
    tokens: u32,
    jumps: &[(usize, usize, f64)],
    infinite_server: bool,
) -> PetriNet {
    let positions = rates.len();
    let mut b = NetBuilder::new("expring");
    let places: Vec<_> = (0..positions)
        .map(|i| b.place(format!("P{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    let kind = |rate: f64, place: usize| {
        if infinite_server {
            TransitionKind::exponential(Expr::parse(&format!("{rate} * #P{place}")).unwrap())
        } else {
            TransitionKind::exponential_rate(rate)
        }
    };
    let hops = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| (i, (i + 1) % positions, r));
    let shortcuts = jumps
        .iter()
        .map(|&(i, j, r)| (i % positions, j % positions, r));
    for (t, (from, to, rate)) in hops.chain(shortcuts).enumerate() {
        b.transition(format!("t{t}"), kind(rate, from))
            .unwrap()
            .input(places[from], 1)
            .output(places[to], 1);
    }
    b.build().unwrap()
}

/// The CTMC over `graph`'s tangible markings, read off its exponential arcs.
fn ctmc_of(graph: &TangibleReachGraph) -> Ctmc {
    let mut ctmc = Ctmc::new(graph.tangible_count());
    for (from, state) in graph.states().iter().enumerate() {
        for arc in &state.exponential {
            for &(to, p) in arc.targets.entries() {
                if to != from && arc.value * p > 0.0 {
                    ctmc.add_rate(from, to, arc.value * p).unwrap();
                }
            }
        }
    }
    ctmc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pi(A) = E[min(Exp(lambda), tau)] / (E[min(Exp(lambda), tau)] + 1/mu)
    /// for any positive parameters.
    #[test]
    fn race_matches_closed_form(
        lambda in 0.01..5.0f64,
        mu in 0.01..5.0f64,
        tau in 0.05..20.0f64,
    ) {
        let net = race_net(lambda, mu, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let t_a = (1.0 - (-lambda * tau).exp()) / lambda;
        let expected = t_a / (t_a + 1.0 / mu);
        let a_idx = graph
            .index_of(&nvp_petri::marking::Marking::new(vec![1, 0]))
            .unwrap();
        prop_assert!(
            (sol.probabilities()[a_idx] - expected).abs() < 1e-8,
            "pi(A) = {} vs closed form {expected} at (lambda={lambda}, mu={mu}, tau={tau})",
            sol.probabilities()[a_idx]
        );
    }

    /// pi ∝ (q/lambda, q/mu, (1-q)/delta) with q = 1 - e^{-lambda tau}.
    #[test]
    fn maintenance_matches_closed_form(
        lambda in 0.005..1.0f64,
        mu in 0.05..5.0f64,
        delta in 0.05..5.0f64,
        tau in 0.2..30.0f64,
    ) {
        let net = maintenance_net(lambda, mu, delta, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let q = 1.0 - (-lambda * tau).exp();
        let weights = [q / lambda, q / mu, (1.0 - q) / delta];
        let total: f64 = weights.iter().sum();
        let m = |v: Vec<u32>| {
            graph
                .index_of(&nvp_petri::marking::Marking::new(v))
                .unwrap()
        };
        let pi = sol.probabilities();
        prop_assert!((pi[m(vec![1, 0, 0])] - weights[0] / total).abs() < 1e-8);
        prop_assert!((pi[m(vec![0, 1, 0])] - weights[1] / total).abs() < 1e-8);
        prop_assert!((pi[m(vec![0, 0, 1])] - weights[2] / total).abs() < 1e-8);
    }

    /// Solutions are always probability distributions, also on nets where
    /// the deterministic transition competes with fast exponentials.
    #[test]
    fn solution_is_distribution(
        lambda in 0.01..50.0f64,
        mu in 0.01..50.0f64,
        tau in 0.01..50.0f64,
    ) {
        let net = race_net(lambda, mu, tau);
        let graph = explore(&net, 100).unwrap();
        let sol = steady_state(&graph).unwrap();
        let total: f64 = sol.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(sol.probabilities().iter().all(|&p| p >= 0.0));
    }

    /// On random ring DSPNs the row stage gives bit-identical answers and
    /// counters on one worker and on four.
    #[test]
    fn ring_rows_are_bit_identical_across_worker_counts(
        positions in 2usize..6,
        base_rate in 0.05..4.0f64,
        jitter in proptest::collection::vec(0.1..2.0f64, 5),
        tau in 0.1..15.0f64,
        equal_rates in proptest::bool::ANY,
    ) {
        let rates: Vec<f64> = (0..positions)
            .map(|i| if equal_rates { base_rate } else { base_rate * jitter[i] })
            .collect();
        let net = ring_net(&rates, tau);
        let graph = explore(&net, 100).unwrap();
        let solve = |jobs| {
            let opts = SolveOptions { jobs, ..SolveOptions::default() };
            steady_state_with_options(&graph, &opts).unwrap()
        };
        let (serial, serial_stats) = solve(Jobs::Fixed(1));
        prop_assert_eq!(serial_stats.subordinated_chains, positions);
        WorkerPool::global().set_capacity(WorkerPool::global().capacity().max(4));
        let (parallel, stats) = solve(Jobs::Fixed(4));
        for (i, (a, b)) in serial
            .probabilities()
            .iter()
            .zip(parallel.probabilities())
            .enumerate()
        {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "marking {} differs: {} vs {}", i, a, b);
        }
        if equal_rates {
            // Symmetry: the token is uniform over the ring.
            for p in serial.probabilities() {
                prop_assert!((p * positions as f64 - 1.0).abs() < 1e-9, "{:?}", serial);
            }
        }
        prop_assert_eq!(stats.subordinated_chains, positions);
        prop_assert_eq!(stats.max_truncation_steps, serial_stats.max_truncation_steps);
    }

    /// On random exponential-only nets the solution is a distribution with
    /// π·Q ≈ 0, where Q is the generator `Ctmc::generator` builds from the
    /// reachability graph's rates: an oracle that shares no code with the
    /// embedded-chain assembly the solver runs.
    #[test]
    fn exponential_nets_solve_the_balance_equations(
        rates in proptest::collection::vec(0.01..100.0f64, 2..6),
        tokens in 1u32..4,
        jumps in proptest::collection::vec((0usize..6, 0usize..6, 0.01..100.0f64), 0..4),
        infinite_server in proptest::bool::ANY,
    ) {
        let net = exponential_ring(&rates, tokens, &jumps, infinite_server);
        let graph = explore(&net, 1000).unwrap();
        let sol = steady_state(&graph).unwrap();
        let pi = sol.probabilities();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
        let ctmc = ctmc_of(&graph);
        let max_rate = ctmc.exit_rates().into_iter().fold(0.0f64, f64::max);
        let flow = ctmc.generator().vecmat(pi);
        for (m, f) in flow.iter().enumerate() {
            prop_assert!(
                f.abs() <= 1e-12 * max_rate,
                "net flow {} at marking {} (largest rate {})", f, m, max_rate
            );
        }
    }
}
