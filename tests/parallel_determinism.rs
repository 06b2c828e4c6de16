//! Parallel-vs-serial determinism: the MRGP row stage must produce a
//! bit-identical [`SteadyState`] no matter how many workers it uses, for
//! every model this repository ships:
//! the paper's four- and six-version systems built programmatically, and
//! both `.dspn` files in `models/`.

use nvp_perception::core::model::build_model;
use nvp_perception::core::params::SystemParams;
use nvp_perception::mrgp::{steady_state_with_options, SolveOptions, SteadyState};
use nvp_perception::numerics::{Jobs, WorkerPool};
use nvp_perception::petri::net::PetriNet;
use nvp_perception::petri::reach::{explore, TangibleReachGraph};
use nvp_perception::petri::text::parse_net;

fn read_model(name: &str) -> PetriNet {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_net(&text).unwrap()
}

fn solve(graph: &TangibleReachGraph, jobs: Jobs) -> SteadyState {
    let options = SolveOptions {
        jobs,
        ..SolveOptions::default()
    };
    steady_state_with_options(graph, &options).unwrap().0
}

fn assert_bit_identical(graph: &TangibleReachGraph, model: &str) {
    // The reference: strictly serial, every row solved on the calling
    // thread in marking order.
    let serial = solve(graph, Jobs::Fixed(1));
    for jobs in [Jobs::Fixed(2), Jobs::Fixed(8)] {
        let candidate = solve(graph, jobs);
        assert_eq!(
            serial.probabilities().len(),
            candidate.probabilities().len(),
            "{model} with {jobs:?}"
        );
        for (i, (s, p)) in serial
            .probabilities()
            .iter()
            .zip(candidate.probabilities())
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{model} with {jobs:?}: probability {i} differs ({s} vs {p})"
            );
        }
    }
}

/// The container the CI test lane runs in may expose a single core; raise
/// the pool capacity so `Jobs::Fixed(8)` genuinely spawns workers.
fn ensure_capacity() {
    let pool = WorkerPool::global();
    pool.set_capacity(pool.capacity().max(8));
}

#[test]
fn paper_four_version_is_bit_identical_across_worker_counts() {
    ensure_capacity();
    let net = build_model(&SystemParams::paper_four_version()).unwrap();
    let graph = explore(&net, 100_000).unwrap();
    assert_bit_identical(&graph, "paper four-version");
}

#[test]
fn paper_six_version_is_bit_identical_across_worker_counts() {
    ensure_capacity();
    let net = build_model(&SystemParams::paper_six_version()).unwrap();
    let graph = explore(&net, 100_000).unwrap();
    assert_bit_identical(&graph, "paper six-version");
}

#[test]
fn shipped_model_files_are_bit_identical_across_worker_counts() {
    ensure_capacity();
    for name in ["six_version_rejuvenation.dspn", "aging_web_service.dspn"] {
        let net = read_model(name);
        let graph = explore(&net, 100_000).unwrap();
        assert_bit_identical(&graph, name);
    }
}
