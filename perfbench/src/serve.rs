//! The serve phase: an in-process `nvp serve` on loopback, driven by two
//! closed-loop clients over keep-alive connections.
//!
//! The engine is store-backed and bounded below the working set, so the
//! `engine` cache evicts and the `store` reloads warm in the tail, while the
//! solver is nearly absent: every configuration was solved into the store
//! during set-up. About one job in ten is a 100-point α sweep, whose result
//! carries a large CSV and whose points stream through the progress
//! journal. The API has no blocking wait, so a job's time includes up to
//! one poll interval; `serve.polls_per_job` shows how much.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvp_core::analysis::{linspace, ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::reliability::ReliabilitySource;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::{Jobs, WorkerPool};
use nvp_obs::json::Json;
use nvp_serve::{ServeConfig, ServeOutcome, Server};
use nvp_store::SolveStore;

use crate::http::Client;
use crate::stats::{Rng, Samples};
use crate::trace::{self, Spans};
use crate::{Report, Run, Workload};

/// Distinct N=6 chain configurations in the working set.
const CONFIGS: usize = 24;
/// The engine's cache bound, below the working set.
const CACHE_BOUND: usize = 8;
/// Zipf exponent of the configuration draw.
const ZIPF_S: f64 = 1.1;
/// Closed-loop clients, one keep-alive connection each.
const CLIENTS: usize = 2;
/// Client time of one serve task.
const SLICE: Duration = Duration::from_millis(400);
/// Fixed wait before each status poll.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Points of a sweep job.
const SWEEP_STEPS: usize = 100;
/// Each client scrapes `/metrics` once per this many jobs.
const SCRAPE_EVERY: u64 = 25;

/// One configuration with its request bodies and in-process answers.
struct Config {
    analyze_body: String,
    sweep_body: String,
    analyze_bits: u64,
    sweep_csv: String,
}

/// The serve phase's inputs: a store holding every configuration's chain,
/// the request set with reference answers, and the Zipf table.
pub struct Fixture {
    dir: PathBuf,
    configs: Vec<Config>,
    zipf_cdf: Vec<f64>,
}

/// Builds the seeded configuration set and solves every configuration into
/// a fresh store at `dir`, recording the in-process answer to each request.
pub fn prepare(run: &Run, dir: &Path) -> Result<Fixture, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = SolveStore::open(dir).map_err(|e| format!("solve store: {e}"))?;
    let engine = AnalysisEngine::new().with_store(store);
    let mut rng = Rng::new(run.seed ^ 0x5e7e);
    let mut seen = std::collections::HashSet::new();
    let mut configs = Vec::with_capacity(CONFIGS);
    while configs.len() < CONFIGS {
        let mttc = 1000 + rng.range(0, 1000);
        let interval = 300 + rng.range(0, 600);
        if !seen.insert((mttc, interval)) {
            continue;
        }
        let alpha = rng.range(1, 9) as f64 / 10.0;
        let mut params = crate::cold::params(6);
        params.mean_time_to_compromise = mttc as f64;
        params.rejuvenation_interval = interval as f64;
        params.alpha = alpha;
        let analyzed = engine
            .analyze(
                &params,
                RewardPolicy::FailedOnly,
                ReliabilitySource::Auto,
                SolverBackend::Auto,
            )
            .map_err(|e| format!("reference analyze: {e}"))?;
        let grid = linspace(0.0, 1.0, SWEEP_STEPS);
        let points = engine
            .sweep_supervised(
                &params,
                ParamAxis::Alpha,
                &grid,
                RewardPolicy::FailedOnly,
                SolverBackend::Auto,
                &|_| {},
            )
            .map_err(|e| format!("reference sweep: {e}"))?;
        let common = format!("\"n\":6,\"mttc\":{mttc},\"interval\":{interval}");
        configs.push(Config {
            analyze_body: format!("{{{common},\"alpha\":{alpha}}}"),
            sweep_body: format!(
                "{{{common},\"axis\":\"alpha\",\"from\":0,\"to\":1,\"steps\":{SWEEP_STEPS}}}"
            ),
            analyze_bits: analyzed.expected_reliability.to_bits(),
            sweep_csv: nvp_serve::api::sweep_csv(ParamAxis::Alpha, &points),
        });
    }
    // Zipf weights over a seeded ranking of the configurations.
    let weights: Vec<f64> = (0..CONFIGS)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut order: Vec<usize> = (0..CONFIGS).collect();
    for i in (1..CONFIGS).rev() {
        order.swap(i, rng.range(0, i as u64) as usize);
    }
    let mut zipf_cdf = vec![0.0; CONFIGS];
    for (rank, &config) in order.iter().enumerate() {
        zipf_cdf[config] = weights[rank] / total;
    }
    // Per-configuration probabilities into a CDF in index order.
    let mut acc = 0.0;
    for p in &mut zipf_cdf {
        acc += *p;
        *p = acc;
    }
    Ok(Fixture {
        dir: dir.to_owned(),
        configs,
        zipf_cdf,
    })
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    job_ms: Samples,
    submit_ms: Samples,
    poll_ms: Samples,
    scrape_ms: Samples,
    polls: u64,
    jobs: u64,
    submits: u64,
    refused: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.job_ms.extend(&other.job_ms);
        self.submit_ms.extend(&other.submit_ms);
        self.poll_ms.extend(&other.poll_ms);
        self.scrape_ms.extend(&other.scrape_ms);
        self.polls += other.polls;
        self.jobs += other.jobs;
        self.submits += other.submits;
        self.refused += other.refused;
        self.failures.extend(other.failures);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One closed-loop client: submit, poll to a terminal state, check the
/// answer, repeat until `deadline`.
fn client(addr: SocketAddr, fixture: &Fixture, seed: u64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(e);
            return log;
        }
    };
    let mut rng = Rng::new(seed);
    while Instant::now() < deadline {
        let u = rng.unit();
        let index = fixture
            .zipf_cdf
            .partition_point(|&c| c <= u)
            .min(CONFIGS - 1);
        let config = &fixture.configs[index];
        let sweep = rng.range(0, 9) == 0;
        if let Err(e) = one_job(&mut client, config, sweep, &mut log) {
            log.failures.push(e);
            return log;
        }
        if log.jobs % SCRAPE_EVERY == 0 {
            let start = Instant::now();
            match client.request("GET", "/metrics", "") {
                Ok(reply) if reply.status == 200 => log.scrape_ms.push(ms_since(start)),
                Ok(reply) => log
                    .failures
                    .push(format!("/metrics answered {}", reply.status)),
                Err(e) => {
                    log.failures.push(e);
                    return log;
                }
            }
        }
    }
    log
}

/// Submits one job and polls it to completion. Transport errors end the
/// client (`Err`); refusals and wrong answers are recorded in `log`.
fn one_job(
    client: &mut Client,
    config: &Config,
    sweep: bool,
    log: &mut ClientLog,
) -> Result<(), String> {
    let (path, body) = if sweep {
        ("/v1/sweep", &config.sweep_body)
    } else {
        ("/v1/analyze", &config.analyze_body)
    };
    let start = Instant::now();
    let reply = client.request("POST", path, body)?;
    log.submit_ms.push(ms_since(start));
    log.submits += 1;
    if reply.status == 429 || reply.status == 503 {
        log.refused += 1;
        log.failures
            .push(format!("{path} refused with {}", reply.status));
        std::thread::sleep(Duration::from_millis(5));
        return Ok(());
    }
    let id = Json::parse(&reply.body)
        .ok()
        .filter(|_| reply.status == 202)
        .and_then(|doc| doc.get("job").and_then(Json::as_u64))
        .ok_or(format!("{path} answered {}: {}", reply.status, reply.body))?;
    let target = format!("/v1/jobs/{id}");
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let poll_start = Instant::now();
        let reply = client.request("GET", &target, "")?;
        log.poll_ms.push(ms_since(poll_start));
        log.polls += 1;
        let doc = Json::parse(&reply.body).map_err(|e| format!("job {id} body: {e}"))?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => {
                log.job_ms.push(ms_since(start));
                log.jobs += 1;
                if let Err(e) = check_result(&doc, config, sweep) {
                    log.failures.push(format!("job {id}: {e}"));
                }
                return Ok(());
            }
            Some("queued" | "running") => {}
            other => {
                log.jobs += 1;
                log.failures
                    .push(format!("job {id} ended {other:?}: {}", reply.body));
                return Ok(());
            }
        }
    }
}

/// The HTTP answer must equal, bit for bit, the in-process engine's answer.
fn check_result(doc: &Json, config: &Config, sweep: bool) -> Result<(), String> {
    let result = doc.get("result").ok_or("no result")?;
    if sweep {
        let csv = result.get("csv").and_then(Json::as_str).ok_or("no csv")?;
        if csv != config.sweep_csv {
            return Err("sweep CSV differs from the in-process sweep".into());
        }
    } else {
        let value = result
            .get("expected_reliability")
            .and_then(Json::as_f64)
            .ok_or("no expected_reliability")?;
        if value.to_bits() != config.analyze_bits {
            return Err(format!(
                "E[R_sys] {value} differs from the in-process {}",
                f64::from_bits(config.analyze_bits)
            ));
        }
    }
    Ok(())
}

/// Runs the clients against `addr` for `budget`; returns the merged log and
/// the wall time.
fn drive(addr: SocketAddr, fixture: &Fixture, seed: u64, budget: Duration) -> (ClientLog, f64) {
    let start = Instant::now();
    let deadline = start + budget;
    let mut log = ClientLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| scope.spawn(move || client(addr, fixture, seed ^ (c << 32), deadline)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(client_log) => log.merge(client_log),
                Err(_) => log.failures.push("client thread panicked".into()),
            }
        }
    });
    (log, start.elapsed().as_secs_f64())
}

/// A bound server over a bounded, store-backed engine, and the merged log
/// of every client slice driven against it.
pub struct Harness<'a> {
    fixture: &'a Fixture,
    server: Server,
    engine: Arc<AnalysisEngine>,
    accept: Option<JoinHandle<std::io::Result<ServeOutcome>>>,
    seed: u64,
    slices: u64,
    log: ClientLog,
    wall: f64,
}

impl<'a> Harness<'a> {
    pub fn start(run: &Run, fixture: &'a Fixture) -> Result<Harness<'a>, String> {
        let store = SolveStore::open(&fixture.dir).map_err(|e| format!("solve store: {e}"))?;
        let engine = Arc::new(
            AnalysisEngine::new()
                .with_store(store)
                .with_jobs(Jobs::Fixed(1))
                .with_max_cache_entries(CACHE_BOUND),
        );
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("cannot bind the server: {e}"))?;
        let runner = server.clone();
        let accept = std::thread::spawn(move || runner.run());
        Ok(Harness {
            fixture,
            server,
            engine,
            accept: Some(accept),
            seed: run.seed ^ 0xc11e,
            slices: 0,
            log: ClientLog::default(),
            wall: 0.0,
        })
    }

    fn drive(&mut self, units: usize) -> (ClientLog, f64) {
        // One grantable permit per client, so admission never refuses a job.
        WorkerPool::global().set_capacity(CLIENTS + 1);
        self.slices += 1;
        let seed = self.seed ^ self.slices.wrapping_mul(0x9e37_79b9);
        drive(
            self.server.local_addr(),
            self.fixture,
            seed,
            SLICE * units as u32,
        )
    }

    /// Drives the clients for `units` slices back to back.
    pub fn slice(&mut self, units: usize, report: &mut Report) {
        let (log, wall) = self.drive(units);
        self.wall += wall;
        record_jobs(report, &log);
        self.log.merge(log);
    }

    /// One traced slice: queueing and handler self time from the spans, and
    /// (on this workload) the tracing overhead on the median job time.
    pub fn traced(&mut self, run: &Run, report: &mut Report) -> Result<(), String> {
        let ((log, _), records) = trace::record(|| self.drive(1));
        record_jobs(report, &log);
        let spans = Spans::validated(records)?;
        report.layer_median("serve.queue_wait_ms", &spans.queue_wait_ms(), "ms");
        report.layer_median("serve.job_run_ms", &spans.duration_ms("job.run"), "ms");
        report.layer_median(
            "serve.http_request_self_us",
            &spans.self_us("http.request"),
            "us",
        );
        if run.workload == Workload::ServeMixed {
            let overhead = log.job_ms.median() / self.log.job_ms.median() - 1.0;
            report.layer("obs.trace_overhead_frac", overhead, "frac", 1);
        }
        Ok(())
    }

    /// Stops the server and reports the untraced slices.
    pub fn stop(mut self, report: &mut Report) {
        self.server.shutdown();
        if let Some(accept) = self.accept.take() {
            if !matches!(accept.join(), Ok(Ok(_))) {
                report.check(Err("the server's accept loop failed".into()));
            }
        }
        let log = &self.log;
        if let Some((p, v)) = log.job_ms.tail() {
            println!(
                "serve: http_job_ms p{p} = {v:.4} ms over {} jobs",
                log.job_ms.len()
            );
        }
        report.e2e(
            "http_job_ms.p50",
            log.job_ms.median(),
            "ms",
            log.job_ms.len(),
        );
        report.e2e(
            "http_job_ms.p99",
            log.job_ms.quantile(0.99),
            "ms",
            log.job_ms.len(),
        );
        report.e2e(
            "http_jobs_per_s",
            log.jobs as f64 / self.wall,
            "jobs/s",
            log.jobs as usize,
        );
        report.layer_median("serve.submit_ms", &log.submit_ms, "ms");
        report.layer_median("serve.poll_ms", &log.poll_ms, "ms");
        report.layer_median("serve.metrics_scrape_ms", &log.scrape_ms, "ms");
        report.layer(
            "serve.polls_per_job",
            log.polls as f64 / log.jobs.max(1) as f64,
            "count",
            log.jobs as usize,
        );
        report.layer(
            "serve.refused_frac",
            log.refused as f64 / log.submits.max(1) as f64,
            "frac",
            log.submits as usize,
        );
        let stats = self.engine.stats();
        let lookups = stats.cache_hits + stats.cache_misses;
        report.layer(
            "engine.cache_hit_ratio",
            stats.cache_hits as f64 / lookups.max(1) as f64,
            "frac",
            lookups as usize,
        );
        report.layer(
            "engine.cache_evictions",
            stats.cache_evictions as f64,
            "count",
            1,
        );
    }
}

/// Counts every submitted job as one checked operation.
fn record_jobs(report: &mut Report, log: &ClientLog) {
    let ok = log.submits.saturating_sub(log.failures.len() as u64);
    for _ in 0..ok {
        report.check(Ok(()));
    }
    for failure in &log.failures {
        report.check(Err(failure.clone()));
    }
}
