//! The cold phase: a fresh engine, with no store, per `analyze` over the
//! paper's six-version family.
//!
//! `mrgp` does nearly all the work here; at N=30 the embedded chain is past
//! the dense limit, so the iterative EMC backend runs. The store, reward
//! and serve layers are idle.

use nvp_core::analysis::SolverBackend;
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reliability::ReliabilitySource;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::{Jobs, WorkerPool};

use crate::stats::Samples;
use crate::trace::{self, Spans};
use crate::{timed, Report, Run, Workload};

/// One cold-analyze point: the model size, and whether it runs on one
/// worker instead of nproc.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    n: u32,
    jobs1: bool,
}

pub const N6: Point = Point { n: 6, jobs1: false };
pub const N12: Point = Point {
    n: 12,
    jobs1: false,
};
pub const N20: Point = Point {
    n: 20,
    jobs1: false,
};
pub const N30: Point = Point {
    n: 30,
    jobs1: false,
};
pub const N20_JOBS1: Point = Point { n: 20, jobs1: true };
const POINTS: [Point; 5] = [N6, N12, N20, N30, N20_JOBS1];

/// `E[R_sys]` of the paper's six-version system at each N, as exact bits
/// recorded from this tree (0.9381725, 0.8691863, 0.7578832, 0.5908915 to
/// seven digits). The worker count must not change a single bit.
const REFERENCE_BITS: [(u32, u64); 4] = [
    (6, 0x3fee_0582_3bd6_6cfe),
    (12, 0x3feb_d05f_c5a5_4fdb),
    (20, 0x3fe8_4094_52e8_7297),
    (30, 0x3fe2_e895_57a4_dc91),
];

pub fn params(n: u32) -> SystemParams {
    SystemParams {
        n,
        ..SystemParams::paper_six_version()
    }
}

fn metric_name(point: Point) -> String {
    if point.jobs1 {
        format!("analyze_cold_ms.n{}.jobs1", point.n)
    } else {
        format!("analyze_cold_ms.n{}", point.n)
    }
}

/// A cold `analyze` on a fresh engine; returns `E[R_sys]`.
pub fn analyze_cold(n: u32, jobs: usize) -> Result<f64, String> {
    let engine = AnalysisEngine::new().with_jobs(Jobs::Fixed(jobs));
    engine
        .analyze(
            &params(n),
            RewardPolicy::FailedOnly,
            ReliabilitySource::Auto,
            SolverBackend::Auto,
        )
        .map(|report| report.expected_reliability)
        .map_err(|e| format!("cold analyze at N={n}: {e}"))
}

fn check_reference(n: u32, jobs: usize, value: f64) -> Result<(), String> {
    let expected = REFERENCE_BITS
        .iter()
        .find(|(m, _)| *m == n)
        .map(|&(_, bits)| bits)
        .ok_or(format!("no reference for N={n}"))?;
    if value.to_bits() == expected {
        Ok(())
    } else {
        Err(format!(
            "cold analyze N={n} jobs={jobs}: E[R_sys] = {value} (bits {:#018x}), reference bits \
             {expected:#018x}",
            value.to_bits()
        ))
    }
}

/// The cold-analyze samples of one run, one series per point.
#[derive(Default)]
pub struct Cold {
    samples: [Samples; POINTS.len()],
}

impl Cold {
    /// One cold analyze at `point`, its answer checked.
    pub fn analyze(&mut self, point: Point, run: &Run, report: &mut Report) {
        WorkerPool::global().set_capacity(run.nproc);
        let jobs = if point.jobs1 { 1 } else { run.nproc };
        let (value, secs) = timed(|| analyze_cold(point.n, jobs));
        let slot = POINTS
            .iter()
            .position(|p| p.n == point.n && p.jobs1 == point.jobs1)
            .expect("every point is listed");
        self.samples[slot].push(secs * 1e3);
        report.check(value.and_then(|v| check_reference(point.n, jobs, v)));
    }

    pub fn finish(&self, report: &mut Report) {
        for (&point, s) in POINTS.iter().zip(&self.samples) {
            report.layer_median(&metric_name(point), s, "ms");
        }
    }

    /// One traced cold analyze per N: self times of the MRGP stages, the
    /// `mrgp.solve` span duration at N=20, and (on this workload) the
    /// tracing overhead against the untraced N=20 samples.
    pub fn traced(&self, run: &Run, report: &mut Report) -> Result<(), String> {
        WorkerPool::global().set_capacity(run.nproc);
        for n in [6u32, 20, 30] {
            let ((value, secs), records) = trace::record(|| timed(|| analyze_cold(n, run.nproc)));
            report.check(value.and_then(|v| check_reference(n, run.nproc, v)));
            let spans = Spans::validated(records)?;
            for stage in ["mrgp.class", "mrgp.row", "mrgp.emc", "mrgp.solve"] {
                report.layer(
                    &format!("{stage}.self_ms.n{n}"),
                    spans.self_total_ms(stage),
                    "ms",
                    spans.count(stage),
                );
            }
            if n == 20 {
                let solve = spans.duration_ms("mrgp.solve");
                report.layer_median("mrgp.solve_span_ms.n20", &solve, "ms");
                if run.workload == Workload::ColdNscale {
                    let overhead = secs * 1e3 / self.samples[2].median() - 1.0;
                    report.layer("obs.trace_overhead_frac", overhead, "frac", 1);
                }
            }
        }
        Ok(())
    }
}
