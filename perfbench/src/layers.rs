//! Per-layer probes: each layer's public functions timed from outside, on
//! the inputs the phases use. They run with tracing off, in the traced
//! invocation only, before the serve phase.

use std::time::Instant;

use nvp_core::analysis::SolverBackend;
use nvp_core::engine::{AnalysisEngine, ChainKey};
use nvp_core::model::build_model;
use nvp_core::reliability::{ReliabilityModel, ReliabilitySource};
use nvp_core::reward::{reward_vector, RewardPolicy};
use nvp_mrgp::{steady_state_with_options, SolveOptions};
use nvp_numerics::ctmc::Ctmc;
use nvp_numerics::{Jobs, StationaryBackend};
use nvp_petri::reach::explore_with_stats;
use nvp_store::{SolveRecord, SolveStore};

use crate::cold::params;
use crate::stats::Samples;
use crate::{Report, Run};

/// Truncation accuracy of the MRGP solver's uniformization series.
const UNIFORMIZATION_EPS: f64 = 1e-13;

/// Times `reps` calls of `f`, in units of `scale` per second.
fn sample<T>(reps: usize, scale: f64, mut f: impl FnMut() -> T) -> (Samples, T) {
    let mut samples = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_secs_f64() * scale);
    }
    (samples, last.expect("reps > 0"))
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let max_markings = SolverBackend::Auto.max_markings();

    // model / petri: build and explore the N family.
    let (build, _) = sample(50, 1e6, || build_model(&params(12)));
    report.layer_median("model.build_us", &build, "us");
    let mut graphs = Vec::new();
    for (n, reps) in [(6u32, 50), (12, 20), (20, 10), (30, 5)] {
        let net = build_model(&params(n)).map_err(|e| format!("build: {e}"))?;
        let (explore, result) = sample(reps, 1e3, || explore_with_stats(&net, max_markings));
        let (graph, stats) = result.map_err(|e| format!("explore: {e}"))?;
        report.layer_median(&format!("petri.explore_ms.n{n}"), &explore, "ms");
        report.layer(
            &format!("petri.tangible_markings.n{n}"),
            stats.tangible_markings as f64,
            "count",
            1,
        );
        report.layer(
            &format!("petri.vanishing_visits.n{n}"),
            stats.vanishing_visits as f64,
            "count",
            1,
        );
        graphs.push((n, graph));
    }
    let graph = |n: u32| &graphs.iter().find(|(m, _)| *m == n).expect("explored").1;

    // mrgp: the steady-state solve alone, with its counters.
    for (n, jobs, reps, name) in [
        (6u32, run.nproc, 20, "n6"),
        (20, run.nproc, 2, "n20"),
        (30, run.nproc, 1, "n30"),
        (20, 1, 1, "n20.jobs1"),
    ] {
        let options = SolveOptions {
            jobs: Jobs::Fixed(jobs),
            ..SolveOptions::default()
        };
        let (solve, result) = sample(reps, 1e3, || steady_state_with_options(graph(n), &options));
        let (_, stats) = result.map_err(|e| format!("steady state: {e}"))?;
        report.layer_median(&format!("mrgp.solve_ms.{name}"), &solve, "ms");
        if jobs == 1 {
            continue;
        }
        for (counter, value) in [
            ("subordinated_chains", stats.subordinated_chains),
            ("dedup_classes", stats.dedup_classes),
            ("max_subordinated_states", stats.max_subordinated_states),
            ("max_truncation_steps", stats.max_truncation_steps),
            (
                "iterative_solves",
                usize::from(stats.backend == StationaryBackend::IterativePower),
            ),
        ] {
            report.layer(&format!("mrgp.{counter}.{name}"), value as f64, "count", 1);
        }
    }

    numerics(report, graph(20))?;

    // store, engine, reward: on the N=12 chain the design phase sweeps.
    let p12 = params(12);
    let engine = AnalysisEngine::new();
    let chain = engine
        .chain(&p12, SolverBackend::Auto)
        .map_err(|e| format!("chain: {e}"))?;
    let (warm, _) = sample(1000, 1e6, || engine.chain(&p12, SolverBackend::Auto));
    report.layer_median("engine.warm_chain_us", &warm, "us");
    let (reward, value) = sample(200, 1e6, || -> Result<f64, String> {
        let model = ReliabilityModel::for_params(&p12, ReliabilitySource::Auto)
            .map_err(|e| e.to_string())?;
        let rewards = reward_vector(
            &chain.graph,
            &chain.net,
            &p12,
            &model,
            RewardPolicy::FailedOnly,
        )
        .map_err(|e| e.to_string())?;
        Ok(chain.solution.expected_reward(&rewards))
    });
    value?;
    report.layer_median("reward.eval_us", &reward, "us");

    let store = SolveStore::open(run.work_dir.join("probe-store"))
        .map_err(|e| format!("solve store: {e}"))?;
    let key = ChainKey::of(&p12, SolverBackend::Auto.max_markings())
        .store_bytes(SolveOptions::default().dedup);
    let record = SolveRecord {
        probabilities: chain.solution.probabilities().to_vec(),
        tangible_markings: chain.explore_stats.tangible_markings as u64,
        vanishing_visits: chain.explore_stats.vanishing_visits as u64,
        timed_arcs: chain.explore_stats.timed_arcs as u64,
        zero_rate_arcs: chain.explore_stats.zero_rate_arcs as u64,
        solver_markings: chain.solver_stats.markings as u64,
        subordinated_chains: chain.solver_stats.subordinated_chains as u64,
        max_subordinated_states: chain.solver_stats.max_subordinated_states as u64,
        total_subordinated_states: chain.solver_stats.total_subordinated_states as u64,
        max_truncation_steps: chain.solver_stats.max_truncation_steps as u64,
        dedup_classes: chain.solver_stats.dedup_classes as u64,
        steady_state_detections: chain.solver_stats.steady_state_detections as u64,
        ..SolveRecord::default()
    };
    let (save, saved) = sample(20, 1e3, || store.save(&key, &record));
    saved.map_err(|e| format!("store save: {e}"))?;
    report.layer_median("store.save_ms", &save, "ms");
    let (load, loaded) = sample(200, 1e6, || store.load(&key));
    report.check(match loaded {
        Ok(nvp_store::Load::Hit(back)) if back == record => Ok(()),
        _ => Err("store probe: the saved record did not load back intact".into()),
    });
    report.layer_median("store.load_us", &load, "us");
    let bytes = std::fs::metadata(store.entry_path(&key))
        .map_err(|e| format!("store entry: {e}"))?
        .len();
    report.layer("store.record_bytes", bytes as f64, "B", 1);
    Ok(())
}

/// The uniformization kernel on the N=20 model's exponential CTMC over the
/// deterministic delay τ: time per series step, and the kernel's MFLOP/s and
/// bytes per flop as computed from the matrix shape.
fn numerics(
    report: &mut Report,
    graph: &nvp_petri::reach::TangibleReachGraph,
) -> Result<(), String> {
    let n = graph.tangible_count();
    let mut ctmc = Ctmc::new(n);
    let mut tau = None;
    for (from, state) in graph.states().iter().enumerate() {
        for arc in &state.exponential {
            for &(to, p) in arc.targets.entries() {
                if to != from && arc.value * p > 0.0 {
                    ctmc.add_rate(from, to, arc.value * p)
                        .map_err(|e| format!("ctmc: {e}"))?;
                }
            }
        }
        tau = tau.or(state.deterministic.first().map(|d| d.value));
    }
    let tau = tau.ok_or("the N=20 model enables no deterministic transition")?;
    let mut pi0 = vec![0.0; n];
    pi0[0] = 1.0;
    let (times, result) = sample(5, 1.0, || {
        ctmc.transient_and_sojourn(&pi0, tau, UNIFORMIZATION_EPS)
    });
    let (_, _, stats) = result.map_err(|e| format!("transient: {e}"))?;
    let steps = stats.truncation_steps().max(1);
    let secs = times.median();
    report.layer(
        "numerics.uniformization_step_us.n20",
        secs * 1e6 / steps as f64,
        "us",
        times.len(),
    );
    // Per product: 2·nnz flops for the sparse vector-matrix product; per
    // series term: two axpys of 2·n flops each. Bytes per product: CSR values
    // and column indices (8 + 8 per nonzero), row pointers, and the input
    // and output vectors.
    let nnz = ctmc.uniformize().0.nnz() as f64;
    let nf = n as f64;
    let flops = steps as f64 * 2.0 * nnz + stats.series_len as f64 * 4.0 * nf;
    report.layer(
        "numerics.vecmat_mflops.n20",
        flops / secs / 1e6,
        "MFLOP/s",
        times.len(),
    );
    let bytes_per_product = 16.0 * nnz + 8.0 * (nf + 1.0) + 16.0 * nf;
    report.layer(
        "numerics.vecmat_bytes_per_flop_computed.n20",
        bytes_per_product / (2.0 * nnz),
        "B/flop",
        1,
    );
    Ok(())
}
