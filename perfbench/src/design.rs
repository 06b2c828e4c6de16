//! The design phase: the sweeps `nvp sweep` runs, in three kinds.
//!
//! 1. A 20-point γ sweep at N=12 runs cold on a fresh engine over an empty store:
//!    every point is a new chain, so `mrgp` solves and `store` writes.
//! 2. The same grid runs on a fresh engine over that store: `store` reads,
//!    `model`/`petri` rebuild and explore, `mrgp` is bypassed.
//! 3. A 1000-point α sweep runs on the memory-warm engine of step 2: one
//!    cached chain, then the `engine` cache and `reward` do the work.

use std::path::{Path, PathBuf};

use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::{Jobs, WorkerPool};
use nvp_store::SolveStore;

use crate::stats::{Rng, Samples};
use crate::trace::{self, Spans};
use crate::{timed, Report, Run, Workload};

const CHAIN_POINTS: usize = 20;
const REWARD_POINTS: usize = 1000;
const N: u32 = 12;

/// The γ grid: 20 rejuvenation intervals over a seeded 600 s window.
fn gamma_grid(seed: u64) -> Vec<f64> {
    let start = 300.0 + (Rng::new(seed).range(0, 100) as f64);
    linspace(start, start + 600.0, CHAIN_POINTS)
}

/// A sweep as `nvp sweep` prints it.
fn sweep_csv(
    engine: &AnalysisEngine,
    params: &SystemParams,
    axis: ParamAxis,
    grid: &[f64],
) -> Result<String, String> {
    let points = engine
        .sweep_supervised(
            params,
            axis,
            grid,
            RewardPolicy::FailedOnly,
            SolverBackend::Auto,
            &|_| {},
        )
        .map_err(|e| format!("{} sweep: {e}", axis.label()))?;
    Ok(nvp_serve::api::sweep_csv(axis, &points))
}

fn engine_over(dir: &Path, jobs: usize) -> Result<AnalysisEngine, String> {
    let store = SolveStore::open(dir).map_err(|e| format!("solve store: {e}"))?;
    Ok(AnalysisEngine::new()
        .with_jobs(Jobs::Fixed(jobs))
        .with_store(store))
}

/// The design-sweep samples of one run, and the engines and outputs the
/// next step needs.
pub struct Design {
    grid: Vec<f64>,
    dir: PathBuf,
    chain: Samples,
    warm: Samples,
    reward: Samples,
    store_hits: u64,
    store_misses: u64,
    /// The CSV of the latest cold γ sweep, which the store-warm sweeps
    /// must reproduce.
    cold_csv: Option<String>,
    /// The engine of the latest store-warm sweep: memory-warm for α.
    warm_engine: Option<AnalysisEngine>,
    /// The first cold γ and α CSVs, which every later sweep must repeat.
    first_cold: Option<String>,
    first_reward: Option<String>,
}

impl Design {
    pub fn new(run: &Run) -> Design {
        Design {
            grid: gamma_grid(run.seed),
            dir: run.work_dir.join("design-store"),
            chain: Samples::default(),
            warm: Samples::default(),
            reward: Samples::default(),
            store_hits: 0,
            store_misses: 0,
            cold_csv: None,
            warm_engine: None,
            first_cold: None,
            first_reward: None,
        }
    }

    /// The cold γ sweep on a fresh engine over an emptied store.
    pub fn cold(&mut self, run: &Run, report: &mut Report) -> Result<f64, String> {
        WorkerPool::global().set_capacity(run.nproc);
        let _ = std::fs::remove_dir_all(&self.dir);
        let engine = engine_over(&self.dir, run.nproc)?;
        let params = crate::cold::params(N);
        let (csv, secs) = timed(|| {
            sweep_csv(
                &engine,
                &params,
                ParamAxis::RejuvenationInterval,
                &self.grid,
            )
        });
        let csv = csv?;
        let first = self.first_cold.get_or_insert_with(|| csv.clone());
        report.check(same("cold γ sweep CSV vs the first one", first, &csv));
        self.cold_csv = Some(csv);
        let rate = CHAIN_POINTS as f64 / secs;
        self.chain.push(rate);
        Ok(rate)
    }

    /// The γ grid again, on a fresh engine over the store the last cold
    /// sweep filled.
    pub fn store_warm(&mut self, run: &Run, report: &mut Report) -> Result<(), String> {
        WorkerPool::global().set_capacity(run.nproc);
        let cold_csv = self
            .cold_csv
            .as_deref()
            .ok_or("no cold sweep filled the store")?;
        let engine = engine_over(&self.dir, run.nproc)?;
        let params = crate::cold::params(N);
        let (csv, secs) = timed(|| {
            sweep_csv(
                &engine,
                &params,
                ParamAxis::RejuvenationInterval,
                &self.grid,
            )
        });
        report.check(same(
            "store-warm γ sweep CSV vs the cold one",
            cold_csv,
            &csv?,
        ));
        self.warm.push(CHAIN_POINTS as f64 / secs);
        let stats = engine.stats();
        self.store_hits += stats.store_hits;
        self.store_misses += stats.store_misses;
        self.warm_engine = Some(engine);
        Ok(())
    }

    /// The α sweep on the memory-warm engine of the last store-warm sweep.
    pub fn reward(&mut self, run: &Run, report: &mut Report) -> Result<(), String> {
        WorkerPool::global().set_capacity(run.nproc);
        let engine = self.warm_engine.as_ref().ok_or("no store-warm sweep ran")?;
        let params = ParamAxis::RejuvenationInterval.apply(&crate::cold::params(N), self.grid[0]);
        let alpha = linspace(0.0, 1.0, REWARD_POINTS);
        let (csv, secs) = timed(|| sweep_csv(engine, &params, ParamAxis::Alpha, &alpha));
        let csv = csv?;
        let first = self.first_reward.get_or_insert_with(|| csv.clone());
        report.check(same("α sweep CSV vs the first one", first, &csv));
        self.reward.push(REWARD_POINTS as f64 / secs);
        Ok(())
    }

    pub fn finish(&self, report: &mut Report) {
        report.layer_median("sweep_chain_pts_per_s", &self.chain, "pts/s");
        report.layer_median("sweep_store_warm_pts_per_s", &self.warm, "pts/s");
        report.layer_median("sweep_reward_pts_per_s", &self.reward, "pts/s");
        let lookups = self.store_hits + self.store_misses;
        report.layer(
            "store.hit_ratio",
            self.store_hits as f64 / lookups.max(1) as f64,
            "frac",
            lookups as usize,
        );
    }

    /// The three sweeps once more under tracing, validated and checked; on
    /// this workload the cold sweep also gives the tracing overhead against
    /// the untraced median.
    pub fn traced(&mut self, run: &Run, report: &mut Report) -> Result<(), String> {
        let untraced = self.chain.median();
        let (rate, records) = trace::record(|| -> Result<f64, String> {
            let rate = self.cold(run, report)?;
            self.store_warm(run, report)?;
            self.reward(run, report)?;
            Ok(rate)
        });
        let rate = rate?;
        Spans::validated(records)?;
        if run.workload == Workload::DesignSweep {
            report.layer("obs.trace_overhead_frac", untraced / rate - 1.0, "frac", 1);
        }
        Ok(())
    }
}

fn same(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: outputs differ"))
    }
}
