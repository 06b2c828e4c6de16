//! Memory gates for the MRGP solve.
//!
//! A counting global allocator records the peak live heap of one serial
//! (`Jobs::Fixed(1)`) steady-state solve of the paper's model:
//!
//! * at N = 20 (441 deterministic markings) the row stage builds, solves
//!   and assembles one subordinated chain at a time, and the embedded chain
//!   is assembled row by row, so the peak must stay at most a quarter of
//!   [`ALL_CHAINS_AT_ONCE_PEAK_BYTES`], the figure measured when every chain
//!   was built before any was solved (streaming the chains alone reached
//!   11.5 MB, over the quarter);
//! * at N = 30 (961 markings, 677,970 stored embedded-chain entries) the
//!   embedded chain is assembled row by row into its final CSR arrays, so
//!   the peak must stay at most three quarters of
//!   [`TRIPLET_ASSEMBLY_PEAK_BYTES`], the figure measured when the chain
//!   went through a triplet builder and the conversion factors through a
//!   table of per-row lists.
//!
//! The allocator counts every allocation of the process, so this binary
//! holds exactly one test, and each model build and state-space exploration
//! runs before its measured window opens.

use nvp_core::analysis::SolverBackend;
use nvp_core::model::build_model;
use nvp_core::params::SystemParams;
use nvp_mrgp::{steady_state_with_options, MrgpStats, SolveOptions};
use nvp_numerics::Jobs;
use nvp_petri::reach::explore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak live heap, in bytes, of the same solve when the row stage built all
/// 441 subordinated chains (each with a copy of its edge list) before
/// solving any of them. Measured with this test's allocator on x86-64 Linux.
const ALL_CHAINS_AT_ONCE_PEAK_BYTES: usize = 41_140_072;

/// Peak live heap, in bytes, of the serial N = 30 solve when the embedded
/// chain was assembled from triplets (`CsrBuilder`) and the conversion
/// factors held as `Vec<Vec<(usize, f64)>>`, all alive beside every solved
/// row. Measured with this test's allocator on x86-64 Linux.
const TRIPLET_ASSEMBLY_PEAK_BYTES: usize = 48_508_176;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live and peak byte counts.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged and only updates the
// counters on success.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap of one serial steady-state solve of the paper's model
/// with `n` versions, with the solver statistics it reported.
fn serial_solve_peak(n: u32) -> (usize, MrgpStats) {
    let params = SystemParams {
        n,
        ..SystemParams::paper_six_version()
    };
    let net = build_model(&params).unwrap();
    let graph = explore(&net, SolverBackend::Auto.max_markings()).unwrap();
    let options = SolveOptions {
        jobs: Jobs::Fixed(1),
        ..SolveOptions::default()
    };

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let (solution, stats) = steady_state_with_options(&graph, &options).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(solution.probabilities().len(), graph.tangible_count());
    (peak, stats)
}

#[test]
fn serial_solve_peak_heap_stays_within_its_gates() {
    let (peak, stats) = serial_solve_peak(20);
    assert_eq!(stats.subordinated_chains, 441, "{stats:?}");
    println!(
        "N=20: peak live heap {peak} B over {} chains \
         (all chains at once: {ALL_CHAINS_AT_ONCE_PEAK_BYTES} B)",
        stats.subordinated_chains
    );
    assert!(
        peak <= ALL_CHAINS_AT_ONCE_PEAK_BYTES / 4,
        "N=20: peak live heap {peak} B exceeds a quarter of {ALL_CHAINS_AT_ONCE_PEAK_BYTES} B"
    );

    let (peak, stats) = serial_solve_peak(30);
    assert_eq!(stats.subordinated_chains, 961, "{stats:?}");
    println!(
        "N=30: peak live heap {peak} B over {} chains \
         (triplet assembly: {TRIPLET_ASSEMBLY_PEAK_BYTES} B)",
        stats.subordinated_chains
    );
    assert!(
        peak <= TRIPLET_ASSEMBLY_PEAK_BYTES / 4 * 3,
        "N=30: peak live heap {peak} B exceeds three quarters of {TRIPLET_ASSEMBLY_PEAK_BYTES} B"
    );
}
