//! The daemon: accept loop, connection supervision, routing, and job
//! execution against one shared [`AnalysisEngine`].
//!
//! Supervision mirrors the engine's own rejuvenation machinery at the
//! connection layer: every request handler runs under `catch_unwind`, so a
//! panicked handler costs that one request (a `500` and a counter bump),
//! never the daemon. Job threads are wrapped the same way — a panicking
//! solve fails its job, and the table keeps serving. Admission control
//! rides on the process-wide [`WorkerPool`]: a submission that cannot get a
//! permit is refused up front with `429` + `Retry-After` instead of piling
//! unbounded work onto a starved pool.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use nvp_core::engine::{AnalysisEngine, SweepPointRecord};
use nvp_core::jobs::{JobId, JobKind, JobOutcome, JobTable};
use nvp_core::reliability::ReliabilitySource;
use nvp_core::request::{AnalyzeRequest, SweepRequest};
use nvp_numerics::panic_payload;
use nvp_numerics::pool::{Permits, WorkerPool};
use nvp_obs::json::Json;
use nvp_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use nvp_obs::recorder::{self, DumpContext, FlightRecorder};
use nvp_obs::sink;
use nvp_obs::trace::{self, SpanHandle};
use nvp_store::atomic::write_atomic;
use nvp_store::record::fnv1a64;

use crate::api;
use crate::http::{self, Request, RequestError, Response};
use crate::rejuvenate::{AgingSnapshot, RejuvenateMode, RejuvenationPolicy};
use crate::signal;

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cap on request-body bytes, enforced before the body is read.
    pub max_body_bytes: usize,
    /// Cap on concurrently served connections; excess connections get `503`.
    pub max_connections: usize,
    /// Per-read socket timeout (also bounds keep-alive idle time).
    pub read_timeout: Duration,
    /// Cap on the total time spent reading one request (head + body),
    /// measured from its first byte. The per-read timeout alone is a
    /// slow-loris invitation: a client trickling one byte every 29 seconds
    /// never trips a single read yet holds a `max_connections` slot
    /// forever. Connections that exceed this are dropped.
    pub request_timeout: Duration,
    /// Server-side default deadline for jobs submitted without their own
    /// `budget_ms`. `None` (the default, for CLI parity) lets such jobs
    /// run unbounded; a value turns a runaway job into a typed,
    /// terminal failure instead of a permit pinned across a drain. A
    /// request's own `budget_ms` always wins.
    pub job_deadline_ms: Option<u64>,
    /// When (and how) the daemon drains and renews its engine; the
    /// default policy never trips.
    pub rejuvenation: RejuvenationPolicy,
    /// Directory flight-recorder dumps are written to on panic-in-job,
    /// drain entry, and rejuvenation (created on first dump). `None`
    /// disables dump files; the in-memory recorder and the
    /// `/v1/debug/recorder` endpoint stay live either way.
    pub flight_dir: Option<PathBuf>,
    /// Capacity of the flight-recorder ring (most recent spans/events
    /// kept). The process has one ring; the first server to bind sizes it.
    pub flight_records: usize,
    /// Emit one structured JSON access-log line per request through the
    /// stderr sink instead of the human-readable line.
    pub access_log: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_body_bytes: 1 << 20,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(60),
            job_deadline_ms: None,
            rejuvenation: RejuvenationPolicy::default(),
            flight_dir: None,
            flight_records: recorder::DEFAULT_CAPACITY,
            access_log: false,
        }
    }
}

/// The fixed endpoint vocabulary for per-endpoint telemetry. Unknown paths
/// collapse into `other` so label cardinality is bounded no matter what
/// clients probe for.
const ENDPOINTS: [&str; 8] = [
    "healthz",
    "metrics",
    "analyze",
    "sweep",
    "jobs",
    "debug_recorder",
    "debug_aging",
    "other",
];
const STATUS_CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];

/// Index into [`ENDPOINTS`] for a request path.
fn endpoint_index(path: &str) -> usize {
    match path {
        "/healthz" => 0,
        "/metrics" => 1,
        "/v1/analyze" => 2,
        "/v1/sweep" => 3,
        "/v1/debug/recorder" => 5,
        "/v1/debug/aging" => 6,
        _ if path.starts_with("/v1/jobs/") => 4,
        _ => 7,
    }
}

/// Index into [`STATUS_CLASSES`] for a status code (1xx — which the daemon
/// never sends — lands in `2xx` rather than minting a fifth class).
fn status_class_index(status: u16) -> usize {
    match status / 100 {
        0..=2 => 0,
        3 => 1,
        4 => 2,
        _ => 3,
    }
}

/// Pre-rendered static label bodies for every endpoint × status-class
/// series, built once per process (the registry requires `'static` label
/// strings; leaking 32 short strings once is the zero-dep way to get them).
fn series_labels() -> &'static [[&'static str; 4]; 8] {
    static LABELS: OnceLock<[[&'static str; 4]; 8]> = OnceLock::new();
    LABELS.get_or_init(|| {
        std::array::from_fn(|e| {
            std::array::from_fn(|c| {
                let body = format!(
                    "endpoint=\"{}\",status=\"{}\"",
                    ENDPOINTS[e], STATUS_CLASSES[c]
                );
                &*Box::leak(body.into_boxed_str())
            })
        })
    })
}

/// Pre-rendered per-endpoint label bodies (latency histograms).
fn endpoint_labels() -> &'static [&'static str; 8] {
    static LABELS: OnceLock<[&'static str; 8]> = OnceLock::new();
    LABELS.get_or_init(|| {
        std::array::from_fn(|e| {
            &*Box::leak(format!("endpoint=\"{}\"", ENDPOINTS[e]).into_boxed_str())
        })
    })
}

struct HttpMetrics {
    requests: Counter,
    bad_requests: Counter,
    rejected: Counter,
    panics: Counter,
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    request_nanos: Histogram,
    active_connections: Gauge,
    /// `nvp_http_requests_total{endpoint=...,status=...}` split.
    requests_by: [[Counter; 4]; 8],
    /// `nvp_http_request_nanos{endpoint=...}` latency split.
    nanos_by: [Histogram; 8],
}

impl HttpMetrics {
    /// Registered on the *server's own* registry — not the engine's — so
    /// HTTP counters survive an engine swap during rejuvenation.
    /// `/metrics` concatenates both expositions.
    ///
    /// The unlabeled `nvp_http_requests_total` / `nvp_http_request_nanos`
    /// aggregates are kept alongside the labeled splits for dashboard
    /// compatibility.
    fn register(m: &MetricsRegistry) -> Self {
        let series = series_labels();
        let per_endpoint = endpoint_labels();
        Self {
            requests: m.counter("nvp_http_requests_total"),
            bad_requests: m.counter("nvp_http_bad_requests_total"),
            rejected: m.counter("nvp_http_rejected_total"),
            panics: m.counter("nvp_http_panics_total"),
            jobs_submitted: m.counter("nvp_http_jobs_submitted_total"),
            jobs_completed: m.counter("nvp_http_jobs_completed_total"),
            jobs_failed: m.counter("nvp_http_jobs_failed_total"),
            request_nanos: m.histogram("nvp_http_request_nanos"),
            active_connections: m.gauge("nvp_http_active_connections"),
            requests_by: std::array::from_fn(|e| {
                std::array::from_fn(|c| m.counter_with("nvp_http_requests_total", series[e][c]))
            }),
            nanos_by: std::array::from_fn(|e| {
                m.histogram_with("nvp_http_request_nanos", per_endpoint[e])
            }),
        }
    }

    /// One observation per served request: aggregate and labeled series
    /// move together so they can never drift.
    fn observe(&self, endpoint: usize, status: u16, elapsed: Duration) {
        self.request_nanos.record_duration(elapsed);
        self.nanos_by[endpoint].record_duration(elapsed);
        self.requests_by[endpoint][status_class_index(status)].inc();
    }
}

/// Builds the replacement engine for a `swap`-mode rejuvenation. Without
/// one the server renews the current engine in place (cache cleared,
/// cancellation flag reset), which loses builder-applied configuration
/// held only in closures — the CLI installs a factory so the fresh engine
/// is configured identically to the first.
pub type EngineFactory = Arc<dyn Fn() -> AnalysisEngine + Send + Sync>;

/// How the daemon leaves its serving state; returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A clean stop: [`Server::shutdown`], or an operator drain
    /// (SIGTERM/SIGINT) that completed. Exit `0`.
    Shutdown,
    /// An `exit`-mode rejuvenation drain completed; the process should
    /// exit with the distinguished code `75` so a supervisor loop
    /// restarts it.
    Rejuvenate,
}

/// Serving / draining, packed into an atomic.
const STATE_SERVING: u8 = 0;
const STATE_DRAINING: u8 = 1;

struct ServerInner {
    /// Swapped wholesale by a `swap`-mode rejuvenation; request handlers
    /// grab one `Arc` per use and never observe a half-swapped engine.
    engine: RwLock<Arc<AnalysisEngine>>,
    factory: Mutex<Option<EngineFactory>>,
    jobs: JobTable,
    config: ServeConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    stop: AtomicBool,
    /// Set by an `exit`-mode rejuvenation so [`Server::run`] can return
    /// [`ServeOutcome::Rejuvenate`] instead of a clean shutdown.
    exit_rejuvenate: AtomicBool,
    state: std::sync::atomic::AtomicU8,
    /// CAS guard: at most one drain runs at a time.
    drain_active: AtomicBool,
    /// The monitor thread is spawned once, by whichever `run` call
    /// starts first.
    monitor_started: AtomicBool,
    active: AtomicUsize,
    next_request: AtomicU64,
    metrics: HttpMetrics,
    /// Server-owned registry (HTTP series + rejuvenation counter);
    /// unlike the engine's registry it survives engine swaps.
    registry: MetricsRegistry,
    rejuvenations: Counter,
    started: Instant,
    /// Start of the current engine cycle (process start or the last
    /// rejuvenation); basis for the `after_secs` trigger.
    cycle_started: Mutex<Instant>,
    /// Jobs that reached a terminal state, over the daemon's lifetime.
    jobs_finished: AtomicU64,
    /// `jobs_finished` at the start of the current cycle.
    cycle_jobs_base: AtomicU64,
    /// Consecutive job-worker panics; any success resets it.
    panic_streak: AtomicU32,
    /// The process-global flight recorder (installed at bind time, shared
    /// if several servers coexist in one process).
    flight: Arc<FlightRecorder>,
    /// Sequence number for dump file names under `flight_dir`.
    flight_seq: AtomicU64,
}

impl ServerInner {
    /// The engine to use for this request/job. One `Arc` clone; a swap
    /// mid-job leaves the job on the engine it started with.
    fn engine(&self) -> Arc<AnalysisEngine> {
        Arc::clone(
            &self
                .engine
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_DRAINING
    }
}

/// A running (or ready-to-run) daemon around one shared engine. Cheap to
/// clone; all clones drive the same listener and job table.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

enum JobSpec {
    Analyze(AnalyzeRequest),
    Sweep(SweepRequest),
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) around a
    /// shared engine. The engine's metrics registry gains the `nvp_http_*`
    /// series.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(
        engine: Arc<AnalysisEngine>,
        addr: &str,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = MetricsRegistry::new();
        let metrics = HttpMetrics::register(&registry);
        let rejuvenations = registry.counter("nvp_engine_rejuvenations_total");
        // The always-on black box: every span/event from here on is teed
        // into the ring, so a postmortem exists even when nobody asked for
        // a trace in advance.
        let flight = recorder::install(config.flight_records);
        // A capacity-1 pool has zero grantable permits (the lone slot is
        // the implicit calling thread), which would make admission control
        // refuse every job forever on a single-core host. The daemon's
        // calling thread is the accept loop, not a worker, so guarantee at
        // least one real permit.
        let pool = WorkerPool::global();
        if pool.capacity() < 2 {
            pool.set_capacity(2);
        }
        Ok(Server {
            inner: Arc::new(ServerInner {
                engine: RwLock::new(engine),
                factory: Mutex::new(None),
                jobs: JobTable::new(),
                config,
                listener,
                local_addr,
                stop: AtomicBool::new(false),
                exit_rejuvenate: AtomicBool::new(false),
                state: std::sync::atomic::AtomicU8::new(STATE_SERVING),
                drain_active: AtomicBool::new(false),
                monitor_started: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                next_request: AtomicU64::new(0),
                metrics,
                registry,
                rejuvenations,
                started: Instant::now(),
                cycle_started: Mutex::new(Instant::now()),
                jobs_finished: AtomicU64::new(0),
                cycle_jobs_base: AtomicU64::new(0),
                panic_streak: AtomicU32::new(0),
                flight,
                flight_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves the actual port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Installs the closure that builds the replacement engine for
    /// `swap`-mode rejuvenations. Without one, a swap renews the current
    /// engine in place (cache cleared, cancellation reset).
    pub fn set_engine_factory(&self, factory: EngineFactory) {
        *self
            .inner
            .factory
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(factory);
    }

    /// Ask the accept loop to exit. Idempotent; wakes the loop with a
    /// throwaway connection so `run` returns promptly.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept. Failure is fine: the next real
        // connection would observe the flag instead.
        let _ = TcpStream::connect(self.inner.local_addr);
    }

    /// Starts a *graceful* stop: refuse new submissions (`503` +
    /// `Retry-After`), let in-flight jobs finish under the drain deadline
    /// (overdue ones are cancelled through the engine's budget flag and
    /// land as typed failures), fsync the store, then stop. This is the
    /// path SIGTERM/SIGINT take; [`Server::run`] returns
    /// [`ServeOutcome::Shutdown`].
    pub fn drain(&self) {
        begin_drain(&self.inner, DrainKind::Terminate, "operator");
    }

    /// Trips a rejuvenation drain right now, exactly as a configured
    /// trigger would: drain, then swap or exit per the policy's mode.
    pub fn rejuvenate(&self) {
        begin_drain(&self.inner, DrainKind::Rejuvenate, "manual");
    }

    /// Serve until [`Server::shutdown`] (or a drain completes). Each
    /// connection gets its own thread; handler panics are contained per
    /// request.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures (per-connection errors are absorbed).
    pub fn run(&self) -> std::io::Result<ServeOutcome> {
        self.start_monitor();
        loop {
            let (stream, _) = match self.inner.listener.accept() {
                Ok(conn) => conn,
                Err(_) if self.inner.stop.load(Ordering::SeqCst) => return Ok(self.outcome()),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    // `Interrupted`: a signal landed mid-accept; the
                    // monitor thread turns the flag into a drain.
                    continue;
                }
                Err(e) => return Err(e),
            };
            if self.inner.stop.load(Ordering::SeqCst) {
                return Ok(self.outcome());
            }
            let inner = Arc::clone(&self.inner);
            let active = inner.active.fetch_add(1, Ordering::SeqCst) + 1;
            inner.metrics.active_connections.set(active as u64);
            if active > inner.config.max_connections {
                let mut stream = stream;
                let resp = Response::json(
                    503,
                    api::error_body("connection limit reached; retry shortly"),
                )
                .with_retry_after(retry_jitter(&format!("conn-{active}")));
                let _ = http::write_response(&mut stream, &resp, true);
                release_connection(&inner);
                continue;
            }
            let spawned = std::thread::Builder::new()
                .name("nvp-serve-conn".to_owned())
                .spawn(move || {
                    serve_connection(&inner, stream);
                    release_connection(&inner);
                });
            if let Err(e) = spawned {
                // Thread exhaustion: shed this connection, keep serving.
                sink::server("accept", &format!("cannot spawn connection thread: {e}"));
                release_connection(&self.inner);
            }
        }
    }

    /// How `run` is ending, once the stop flag is set.
    fn outcome(&self) -> ServeOutcome {
        if self.inner.exit_rejuvenate.load(Ordering::SeqCst) {
            ServeOutcome::Rejuvenate
        } else {
            ServeOutcome::Shutdown
        }
    }

    /// Spawns (once) the aging monitor: a low-frequency poll that turns a
    /// delivered SIGTERM/SIGINT into an operator drain and fires the
    /// time-based rejuvenation trigger even when no jobs are arriving.
    fn start_monitor(&self) {
        if self
            .inner
            .monitor_started
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let spawned = std::thread::Builder::new()
            .name("nvp-serve-monitor".to_owned())
            .spawn(move || {
                while !inner.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    if signal::drain_requested() {
                        begin_drain(&inner, DrainKind::Terminate, "signal");
                    } else {
                        maybe_rejuvenate(&inner);
                    }
                }
            });
        if spawned.is_err() {
            // Degraded but serviceable: job-count triggers still fire from
            // job completions; only signals and after_secs go unnoticed.
            sink::server("monitor", "cannot spawn monitor thread");
        }
    }
}

/// Why a drain was started; decides what happens when it completes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DrainKind {
    /// Renew the engine (swap in-process or exit `75`, per the policy).
    Rejuvenate,
    /// Stop the daemon cleanly (exit `0`).
    Terminate,
}

/// The current aging signals, sampled for the rejuvenation policy, the
/// `/v1/debug/aging` endpoint, and every flight-dump header.
fn aging_snapshot(inner: &Arc<ServerInner>) -> AgingSnapshot {
    let cycle_secs = inner
        .cycle_started
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .elapsed()
        .as_secs();
    AgingSnapshot {
        jobs_this_cycle: inner
            .jobs_finished
            .load(Ordering::SeqCst)
            .saturating_sub(inner.cycle_jobs_base.load(Ordering::SeqCst)),
        cycle_secs,
        cache_entries: inner.engine().stats().chain_solutions,
        panic_streak: inner.panic_streak.load(Ordering::SeqCst),
    }
}

/// Samples the aging signals and starts a rejuvenation drain if the
/// policy says so. Called after every job completion and by the monitor.
fn maybe_rejuvenate(inner: &Arc<ServerInner>) {
    let policy = &inner.config.rejuvenation;
    if !policy.is_enabled() || inner.draining() {
        return;
    }
    let snapshot = aging_snapshot(inner);
    if let Some(reason) = policy.tripped(&snapshot) {
        begin_drain(inner, DrainKind::Rejuvenate, reason);
    }
}

/// The [`DumpContext`] for a dump taken right now: trigger, serving state,
/// and the aging snapshot, so each dump file is a self-contained
/// postmortem.
fn dump_context(inner: &Arc<ServerInner>, trigger: &str, detail: &str) -> DumpContext {
    let aging = aging_snapshot(inner);
    DumpContext {
        trigger: trigger.to_owned(),
        detail: detail.to_owned(),
        state: if inner.draining() {
            "draining".to_owned()
        } else {
            "serving".to_owned()
        },
        aging: vec![
            ("jobs_this_cycle", aging.jobs_this_cycle),
            ("cycle_secs", aging.cycle_secs),
            ("cache_entries", aging.cache_entries as u64),
            ("panic_streak", u64::from(aging.panic_streak)),
            ("uptime_secs", inner.started.elapsed().as_secs()),
            ("rejuvenations", inner.rejuvenations.get()),
        ],
    }
}

/// Write a flight-recorder dump to `flight_dir`, if one is configured.
/// Failures are logged, never fatal — the black box must not take the
/// plane down.
fn flight_dump(inner: &Arc<ServerInner>, trigger: &str, detail: &str) {
    let Some(dir) = &inner.config.flight_dir else {
        return;
    };
    let context = dump_context(inner, trigger, detail);
    let seq = inner.flight_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let path = dir.join(format!("flight-{seq:04}-{trigger}.jsonl"));
    // Published atomically, so a reader polling the directory never sees a
    // half-written dump.
    let mut dump = Vec::new();
    let result = recorder::write_dump(&inner.flight, &context, &mut dump)
        .and_then(|()| std::fs::create_dir_all(dir))
        .and_then(|()| write_atomic(&path, &dump));
    match result {
        Ok(()) => sink::server(
            "flight",
            &format!("{trigger} dump written to {}", path.display()),
        ),
        Err(e) => sink::server("flight", &format!("cannot write {}: {e}", path.display())),
    }
}

/// Enters the drain state machine (at most one drain at a time):
///
/// 1. stop admitting jobs (`503` + jittered `Retry-After`, `/healthz`
///    reports `"draining"`);
/// 2. wait for in-flight jobs under the drain deadline; past it, cancel
///    them through the engine-wide budget flag (they land as typed
///    failures) and keep waiting up to a 2x hard stop;
/// 3. fsync the store — the memento the next engine warms up from;
/// 4. resolve: swap a fresh engine in-process and resume serving, or set
///    the stop flag (exit-mode rejuvenation and operator drains).
fn begin_drain(inner: &Arc<ServerInner>, kind: DrainKind, reason: &'static str) {
    if inner
        .drain_active
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    inner.state.store(STATE_DRAINING, Ordering::SeqCst);
    sink::server("drain", &format!("draining ({reason})"));
    // The black box snapshot of what the daemon was doing when the drain
    // started — covers operator drains, tripped triggers, and SIGTERM.
    flight_dump(inner, "drain", reason);
    let worker = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name("nvp-serve-drain".to_owned())
        .spawn(move || drain_and_resolve(&worker, kind));
    if let Err(e) = spawned {
        // No drain thread means no graceful path; fall back to a hard
        // stop rather than serving 503s forever.
        sink::server("drain", &format!("cannot spawn drain thread: {e}"));
        inner.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(inner.local_addr);
    }
}

/// The drain worker body; see [`begin_drain`] for the state machine.
fn drain_and_resolve(inner: &Arc<ServerInner>, kind: DrainKind) {
    let engine = inner.engine();
    let deadline = inner.config.rejuvenation.drain_deadline;
    let started = Instant::now();
    let mut cancelled = false;
    loop {
        let counts = inner.jobs.counts();
        if counts.queued + counts.running == 0 {
            break;
        }
        let elapsed = started.elapsed();
        if elapsed >= deadline && !cancelled {
            // Overdue: set the engine's drain flag, which every solve
            // budget watches. Each in-flight solve fails as `Cancelled` at
            // its next budget check and is not retried, so the jobs finish
            // as typed failures.
            sink::server("drain", "deadline passed; cancelling in-flight jobs");
            engine.cancel_inflight();
            cancelled = true;
        }
        if elapsed >= deadline * 2 + Duration::from_secs(1) {
            // A solve stuck where no budget check runs cannot be reclaimed
            // cooperatively; give up waiting rather than hang the drain.
            sink::server("drain", "hard stop: jobs still running past 2x deadline");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Some(store) = engine.store() {
        // Belt-and-braces: records are already written atomically; this
        // pins down the directory metadata before a restart.
        if let Err(e) = store.sync() {
            sink::server("drain", &format!("store sync failed: {e}"));
        }
    }
    match (kind, inner.config.rejuvenation.mode) {
        (DrainKind::Terminate, _) => {
            inner.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(inner.local_addr);
        }
        (DrainKind::Rejuvenate, RejuvenateMode::Exit) => {
            inner.rejuvenations.inc();
            flight_dump(inner, "rejuvenate", "exit");
            inner.exit_rejuvenate.store(true, Ordering::SeqCst);
            inner.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(inner.local_addr);
        }
        (DrainKind::Rejuvenate, RejuvenateMode::Swap) => {
            let factory = inner
                .factory
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            match factory {
                Some(build) => {
                    // The replacement is fully built (and warm-capable via
                    // the store) before it becomes visible to requests.
                    let fresh = Arc::new(build());
                    *inner
                        .engine
                        .write()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = fresh;
                }
                None => {
                    // In-place renewal: drop aged cache state and re-arm
                    // the cancellation flag we may just have set.
                    engine.clear();
                    engine.reset_cancellation();
                }
            }
            inner.rejuvenations.inc();
            // Dumped before the cycle counters reset, so the postmortem
            // shows the aging that justified the swap.
            flight_dump(inner, "rejuvenate", "swap");
            *inner
                .cycle_started
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Instant::now();
            inner
                .cycle_jobs_base
                .store(inner.jobs_finished.load(Ordering::SeqCst), Ordering::SeqCst);
            inner.panic_streak.store(0, Ordering::SeqCst);
            inner.state.store(STATE_SERVING, Ordering::SeqCst);
            inner.drain_active.store(false, Ordering::SeqCst);
            sink::server("drain", "rejuvenated: fresh engine serving");
        }
    }
}

fn release_connection(inner: &ServerInner) {
    let active = inner.active.fetch_sub(1, Ordering::SeqCst) - 1;
    inner.metrics.active_connections.set(active as u64);
}

/// The connection reader: enforces a total per-request deadline on top of
/// the socket's per-read timeout. The deadline arms when the first byte of
/// a request arrives (keep-alive idle time between requests does not
/// count) and is cleared by [`DeadlineReader::finish_request`]; while
/// armed, each socket wait is capped at the time still remaining, so a
/// request that trickles in byte by byte errors out at the deadline
/// instead of holding its connection slot indefinitely.
struct DeadlineReader {
    reader: BufReader<TcpStream>,
    read_timeout: Duration,
    request_timeout: Duration,
    deadline: Option<Instant>,
}

impl DeadlineReader {
    fn new(stream: TcpStream, config: &ServeConfig) -> DeadlineReader {
        DeadlineReader {
            reader: BufReader::new(stream),
            read_timeout: config.read_timeout,
            request_timeout: config.request_timeout,
            deadline: None,
        }
    }

    /// Disarm after a request is fully read and restore the idle timeout.
    fn finish_request(&mut self) {
        self.deadline = None;
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(self.read_timeout));
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for DeadlineReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        match self.deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "request deadline exceeded",
                    ));
                }
                let _ = self
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(remaining.min(self.read_timeout)));
            }
            None => {
                // Idle: wait under the per-read timeout, then arm the
                // request clock the moment data shows up.
                if !self.reader.fill_buf()?.is_empty() {
                    self.deadline = Some(Instant::now() + self.request_timeout);
                }
            }
        }
        self.reader.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.reader.consume(n);
    }
}

/// Keep-alive loop over one accepted connection.
fn serve_connection(inner: &Arc<ServerInner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = DeadlineReader::new(read_half, &inner.config);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, inner.config.max_body_bytes) {
            Ok(None) => return,
            Ok(Some(request)) => {
                reader.finish_request();
                let request_id = format!(
                    "req-{}",
                    inner.next_request.fetch_add(1, Ordering::Relaxed) + 1
                );
                inner.metrics.requests.inc();
                let endpoint = endpoint_index(&request.path);
                let started = Instant::now();
                // The request's span carries the `[req-N]` id; its handle
                // crosses into the job thread so every engine span a
                // submission causes is attributable to this request.
                let mut span = trace::span("http.request");
                if !span.is_inert() {
                    span.record("request_id", request_id.clone());
                    span.record("method", request.method.clone());
                    span.record("path", request.path.clone());
                    span.record("endpoint", ENDPOINTS[endpoint]);
                }
                let link = span.handle();
                // The connection supervisor: one panicking handler costs
                // this request, never the daemon.
                let response = catch_unwind(AssertUnwindSafe(|| {
                    dispatch(inner, &request_id, &request, link)
                }))
                .unwrap_or_else(|payload| {
                    inner.metrics.panics.inc();
                    let message = panic_payload(payload);
                    sink::server(&request_id, &format!("handler panicked: {message}"));
                    Response::json(500, api::error_body("internal error: handler panicked"))
                });
                span.record("status", u64::from(response.status));
                drop(span);
                let elapsed = started.elapsed();
                inner.metrics.observe(endpoint, response.status, elapsed);
                if response.status == 429 {
                    inner.metrics.rejected.inc();
                } else if (400..500).contains(&response.status) {
                    inner.metrics.bad_requests.inc();
                }
                access_log(inner, &request_id, &request, &response, endpoint, elapsed);
                let close = request.close;
                if http::write_response(&mut writer, &response, close).is_err() || close {
                    return;
                }
            }
            Err(error) => {
                // Protocol-level failures still get an answer (the client
                // is waiting); transport failures just end the connection.
                let response = match error {
                    RequestError::Malformed(message) => {
                        Some(Response::json(400, api::error_body(&message)))
                    }
                    RequestError::LengthRequired => Some(Response::json(
                        411,
                        api::error_body("content-length is required"),
                    )),
                    RequestError::BodyTooLarge { declared, limit } => Some(Response::json(
                        413,
                        api::error_body(&format!(
                            "request body of {declared} bytes exceeds the {limit}-byte limit"
                        )),
                    )),
                    RequestError::HeadTooLarge => Some(Response::json(
                        431,
                        api::error_body("request head exceeds the size limit"),
                    )),
                    RequestError::Io(_) => None,
                };
                if let Some(response) = response {
                    inner.metrics.requests.inc();
                    inner.metrics.bad_requests.inc();
                    // No parsed path to attribute this to: it lands in the
                    // `other` endpoint bucket with zero measured latency.
                    inner.metrics.requests_by[7][status_class_index(response.status)].inc();
                    let _ = http::write_response(&mut writer, &response, true);
                }
                return;
            }
        }
    }
}

/// One line per served request through the shared stderr sink: structured
/// JSON when configured (machine-greppable access log), the established
/// human-readable line otherwise.
fn access_log(
    inner: &Arc<ServerInner>,
    request_id: &str,
    request: &Request,
    response: &Response,
    endpoint: usize,
    elapsed: Duration,
) {
    if inner.config.access_log {
        let line = Json::Obj(vec![
            ("req".to_owned(), Json::Str(request_id.to_owned())),
            ("method".to_owned(), Json::Str(request.method.clone())),
            ("path".to_owned(), Json::Str(request.path.clone())),
            (
                "endpoint".to_owned(),
                Json::Str(ENDPOINTS[endpoint].to_owned()),
            ),
            ("status".to_owned(), Json::Num(f64::from(response.status))),
            (
                "nanos".to_owned(),
                Json::Num(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX) as f64),
            ),
            (
                "body_bytes".to_owned(),
                Json::Num(request.body.len() as f64),
            ),
        ]);
        sink::server(request_id, &line.emit());
    } else {
        sink::server(
            request_id,
            &format!(
                "{} {} -> {} ({:?})",
                request.method, request.path, response.status, elapsed
            ),
        );
    }
}

fn dispatch(
    inner: &Arc<ServerInner>,
    request_id: &str,
    request: &Request,
    link: Option<SpanHandle>,
) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(inner),
        ("GET", "/metrics") => {
            // Engine series (reset by an engine swap) followed by the
            // server's own (HTTP + rejuvenation counters, which survive
            // swaps). Names never collide, so the concatenation is a
            // valid exposition.
            let mut text = inner.engine().metrics().render_prometheus();
            text.push_str(&inner.registry.render_prometheus());
            Response::text(200, text)
        }
        ("POST", "/v1/analyze") => submit(inner, request_id, request, JobKind::Analyze, link),
        ("POST", "/v1/sweep") => submit(inner, request_id, request, JobKind::Sweep, link),
        ("GET", "/v1/debug/recorder") => debug_recorder(inner),
        ("GET", "/v1/debug/aging") => debug_aging(inner),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if method != "GET" {
                    return method_not_allowed();
                }
                return job_endpoint(inner, rest, request.query.as_deref());
            }
            if matches!(
                path,
                "/healthz"
                    | "/metrics"
                    | "/v1/analyze"
                    | "/v1/sweep"
                    | "/v1/debug/recorder"
                    | "/v1/debug/aging"
            ) {
                return method_not_allowed();
            }
            Response::json(404, api::error_body(&format!("no route for {path}")))
        }
    }
}

/// `GET /v1/debug/recorder`: the live flight ring as a JSONL dump (the
/// same bytes a trigger would write to `--flight-dir`), read-only.
fn debug_recorder(inner: &Arc<ServerInner>) -> Response {
    let context = dump_context(inner, "inspect", "debug endpoint");
    Response::text(200, recorder::dump_to_string(&inner.flight, &context))
}

/// `GET /v1/debug/aging`: the aging signals the rejuvenation policy
/// judges, plus recorder health — the numbers an operator wants *before*
/// a trigger trips.
fn debug_aging(inner: &Arc<ServerInner>) -> Response {
    let aging = aging_snapshot(inner);
    let policy = &inner.config.rejuvenation;
    let body = Json::Obj(vec![
        (
            "state".to_owned(),
            Json::Str(if inner.draining() {
                "draining".to_owned()
            } else {
                "serving".to_owned()
            }),
        ),
        (
            "aging".to_owned(),
            Json::Obj(vec![
                (
                    "jobs_this_cycle".to_owned(),
                    Json::Num(aging.jobs_this_cycle as f64),
                ),
                ("cycle_secs".to_owned(), Json::Num(aging.cycle_secs as f64)),
                (
                    "cache_entries".to_owned(),
                    Json::Num(aging.cache_entries as f64),
                ),
                (
                    "panic_streak".to_owned(),
                    Json::Num(f64::from(aging.panic_streak)),
                ),
            ]),
        ),
        (
            "policy".to_owned(),
            Json::Obj(vec![
                ("enabled".to_owned(), Json::Bool(policy.is_enabled())),
                (
                    "would_trip".to_owned(),
                    match policy.tripped(&aging) {
                        Some(reason) => Json::Str(reason.to_owned()),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "recorder".to_owned(),
            Json::Obj(vec![
                (
                    "capacity".to_owned(),
                    Json::Num(inner.flight.capacity() as f64),
                ),
                ("pushed".to_owned(), Json::Num(inner.flight.pushed() as f64)),
                (
                    "dropped".to_owned(),
                    Json::Num(inner.flight.dropped() as f64),
                ),
            ]),
        ),
        (
            "rejuvenations".to_owned(),
            Json::Num(inner.rejuvenations.get() as f64),
        ),
    ]);
    Response::json(200, body.emit())
}

fn method_not_allowed() -> Response {
    Response::json(405, api::error_body("method not allowed"))
}

/// `POST /v1/analyze` / `POST /v1/sweep`: parse (hardened), admit
/// (pool-permit gate), register, and hand off to a worker thread. The
/// `202` goes out as soon as the job exists; clients poll the job URL.
fn submit(
    inner: &Arc<ServerInner>,
    request_id: &str,
    request: &Request,
    kind: JobKind,
    link: Option<SpanHandle>,
) -> Response {
    if inner.draining() {
        return Response::json(
            503,
            api::error_body("draining for rejuvenation; retry after the indicated delay"),
        )
        .with_retry_after(retry_jitter(request_id));
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::json(400, api::error_body("request body is not valid UTF-8"));
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::json(400, api::error_body(&format!("invalid JSON: {e}")));
        }
    };
    let (spec, total_points) = match kind {
        JobKind::Analyze => match AnalyzeRequest::from_json(&doc) {
            Ok(spec) => (JobSpec::Analyze(spec), 1),
            Err(message) => return Response::json(400, api::error_body(&message)),
        },
        JobKind::Sweep => match SweepRequest::from_json(&doc) {
            Ok(spec) => {
                let steps = spec.steps;
                (JobSpec::Sweep(spec), steps)
            }
            Err(message) => return Response::json(400, api::error_body(&message)),
        },
    };
    // Admission control: a job needs at least one pool permit for its
    // lifetime. `try_acquire` never blocks; zero grants means the pool is
    // starved and the honest answer is "try again later", not a queue that
    // grows without bound.
    let permits = WorkerPool::global().try_acquire(1);
    if permits.count() == 0 {
        return Response::json(
            429,
            api::error_body("worker pool exhausted; retry after the indicated delay"),
        )
        .with_retry_after(retry_jitter(request_id));
    }
    let id = inner.jobs.create(kind, total_points);
    inner.metrics.jobs_submitted.inc();
    let job_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name(format!("nvp-serve-job-{id}"))
        .spawn(move || run_job(&job_inner, id, &spec, permits, link));
    match spawned {
        Ok(_) => Response::json(202, api::job_accepted(id).emit()),
        Err(e) => {
            inner.metrics.jobs_failed.inc();
            inner.jobs.fail(id, format!("cannot spawn job thread: {e}"));
            sink::server(request_id, &format!("job-{id} spawn failed: {e}"));
            Response::json(503, api::error_body("cannot spawn job thread"))
                .with_retry_after(retry_jitter(request_id))
        }
    }
}

/// Deterministic per-request `Retry-After` jitter in `1..=3` seconds,
/// seeded from the request id (FNV-1a; no `rand` dependency). A fixed
/// constant would march every client refused during a drain back in
/// lockstep; distinct request ids de-synchronize them, and determinism
/// keeps refusal behavior reproducible in tests.
fn retry_jitter(seed: &str) -> u64 {
    1 + fnv1a64(seed.as_bytes()) % 3
}

/// Job worker body. Holds its admission permit for the duration; panics
/// fail the job, never the daemon.
///
/// The `job.run` span carries the causing request's span id in its `link`
/// field (cross-thread causality, not containment: the HTTP request span
/// closed when the `202` went out). It is closed *before* any panic dump
/// so the dump always contains the span that names the triggering job.
fn run_job(
    inner: &Arc<ServerInner>,
    id: JobId,
    spec: &JobSpec,
    permits: Permits<'static>,
    link: Option<SpanHandle>,
) {
    let mut span = trace::span_linked("job.run", link);
    if !span.is_inert() {
        span.record("job", id);
    }
    inner.jobs.mark_running(id);
    let outcome = catch_unwind(AssertUnwindSafe(|| execute_job(inner, id, spec)));
    drop(permits);
    let verdict = match &outcome {
        Ok(Ok(_)) => "done",
        Ok(Err(_)) => "failed",
        Err(_) => "panicked",
    };
    if !span.is_inert() {
        span.record("outcome", verdict);
    }
    drop(span);
    match outcome {
        Ok(Ok(result)) => {
            inner.jobs.finish(id, result);
            inner.metrics.jobs_completed.inc();
            inner.panic_streak.store(0, Ordering::SeqCst);
        }
        Ok(Err(error)) => {
            inner.metrics.jobs_failed.inc();
            sink::server(&format!("job-{id}"), &format!("failed: {error}"));
            inner.jobs.fail(id, error.to_string());
            inner.panic_streak.store(0, Ordering::SeqCst);
        }
        Err(payload) => {
            inner.metrics.panics.inc();
            inner.metrics.jobs_failed.inc();
            let message = panic_payload(payload);
            sink::server(&format!("job-{id}"), &format!("worker panicked: {message}"));
            inner.jobs.fail(id, format!("worker panicked: {message}"));
            inner.panic_streak.fetch_add(1, Ordering::SeqCst);
            // Black-box moment: the ring now holds the request span, this
            // job's span, and whatever engine spans unwound — write them out.
            flight_dump(inner, "panic", &format!("job-{id}: {message}"));
        }
    }
    inner.jobs_finished.fetch_add(1, Ordering::SeqCst);
    // Job-count, cache-pressure and panic-streak triggers fire here, at
    // the moment the aging signal actually changed.
    maybe_rejuvenate(inner);
}

fn execute_job(
    inner: &Arc<ServerInner>,
    id: JobId,
    spec: &JobSpec,
) -> Result<JobOutcome, nvp_core::CoreError> {
    // One engine for the whole job: a rejuvenation swap mid-job must not
    // split a sweep across two engines.
    let engine = inner.engine();
    // Chaos hook for the flight-recorder drill, armed by the job's engine:
    // unlike the engine-level sites (whose panics the supervisor absorbs
    // into degraded points), a panic here unwinds the whole worker — the
    // path the recorder's "panic" trigger exists for.
    #[cfg(feature = "fault-inject")]
    if let Some(mode) = engine.fault(nvp_numerics::fault::Site::ServeJob) {
        return Err(nvp_core::CoreError::WorkerPanicked {
            site: "serve-job (fault-inject)",
            payload: format!("injected {mode:?}"),
        });
    }
    match spec {
        JobSpec::Analyze(spec) => {
            // The job-level watchdog: a job without its own budget gets
            // the server's default deadline (when configured), so it can
            // never pin a pool permit forever — it lands as a typed,
            // terminal failure instead.
            let report = engine.analyze_budgeted(
                &spec.params,
                spec.policy,
                ReliabilitySource::Auto,
                spec.backend,
                spec.budget_ms.or(inner.config.job_deadline_ms),
            )?;
            inner.jobs.record_point(
                id,
                SweepPointRecord {
                    index: 0,
                    x: 0.0,
                    value: report.expected_reliability,
                    degraded: report.degraded.is_some(),
                },
            );
            Ok(JobOutcome::Analyze(report))
        }
        JobSpec::Sweep(spec) => {
            let grid = spec.grid();
            // Per-point completions stream straight into the job's
            // progress journal, from whichever engine worker finished
            // them — the service analog of the CLI's resume journal.
            let observer = |record: SweepPointRecord| inner.jobs.record_point(id, record);
            let points = engine.sweep_supervised_budgeted(
                &spec.base.params,
                spec.axis,
                &grid,
                spec.base.policy,
                spec.base.backend,
                spec.base.budget_ms.or(inner.config.job_deadline_ms),
                &observer,
            )?;
            let degraded_points = inner
                .jobs
                .progress_since(id, 0)
                .map_or(0, |(_, _, records)| {
                    records.iter().filter(|r| r.degraded).count()
                });
            let csv = api::sweep_csv(spec.axis, &points);
            Ok(JobOutcome::Sweep {
                points,
                csv,
                degraded_points,
            })
        }
    }
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/progress`.
fn job_endpoint(inner: &Arc<ServerInner>, rest: &str, query: Option<&str>) -> Response {
    let (id_text, progress) = match rest.split_once('/') {
        None => (rest, false),
        Some((id_text, "progress")) => (id_text, true),
        Some(_) => {
            return Response::json(404, api::error_body("no such job endpoint"));
        }
    };
    let Ok(id) = id_text.parse::<JobId>() else {
        return Response::json(400, api::error_body("job id must be a decimal integer"));
    };
    if progress {
        let since = match query_from(query) {
            Ok(since) => since,
            Err(message) => return Response::json(400, api::error_body(&message)),
        };
        match inner.jobs.progress_since(id, since) {
            Some((status, total, records)) => Response::json(
                200,
                api::job_progress(id, status, total, since, &records).emit(),
            ),
            None => Response::json(404, api::error_body(&format!("no job {id}"))),
        }
    } else {
        match inner.jobs.snapshot(id) {
            Some(snapshot) => Response::json(200, api::job_status(&snapshot).emit()),
            None => Response::json(404, api::error_body(&format!("no job {id}"))),
        }
    }
}

/// Parse the `from=N` cursor of a progress poll.
fn query_from(query: Option<&str>) -> Result<usize, String> {
    let Some(query) = query else { return Ok(0) };
    let mut from = 0;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "from" {
            from = value
                .parse::<usize>()
                .map_err(|_| format!("bad `from` value {value:?}"))?;
        } else {
            return Err(format!("unknown query parameter `{key}`"));
        }
    }
    Ok(from)
}

/// `GET /healthz`: daemon state, engine, store, pool, and job-table
/// health in one body — enough for operators (and the chaos drills) to
/// observe aging and drain without scraping `/metrics`.
fn healthz(inner: &Arc<ServerInner>) -> Response {
    let engine = inner.engine();
    let stats = engine.stats();
    let counts = inner.jobs.counts();
    let pool = WorkerPool::global();
    let store = match engine.store() {
        None => Json::Null,
        Some(store) => match store.stats() {
            Ok(s) => Json::Obj(vec![
                ("entries".to_owned(), Json::Num(s.entries as f64)),
                ("bytes".to_owned(), Json::Num(s.bytes as f64)),
                ("quarantined".to_owned(), Json::Num(s.quarantined as f64)),
            ]),
            Err(e) => Json::Obj(vec![("error".to_owned(), Json::Str(e.to_string()))]),
        },
    };
    let state = if inner.draining() {
        "draining"
    } else {
        "serving"
    };
    let body = Json::Obj(vec![
        ("status".to_owned(), Json::Str("ok".to_owned())),
        ("state".to_owned(), Json::Str(state.to_owned())),
        (
            "uptime_secs".to_owned(),
            Json::Num(inner.started.elapsed().as_secs() as f64),
        ),
        (
            "jobs_served_total".to_owned(),
            Json::Num(inner.jobs_finished.load(Ordering::SeqCst) as f64),
        ),
        (
            "rejuvenations".to_owned(),
            Json::Num(inner.rejuvenations.get() as f64),
        ),
        (
            "jobs".to_owned(),
            Json::Obj(vec![
                ("queued".to_owned(), Json::Num(counts.queued as f64)),
                ("running".to_owned(), Json::Num(counts.running as f64)),
                ("done".to_owned(), Json::Num(counts.done as f64)),
                ("failed".to_owned(), Json::Num(counts.failed as f64)),
            ]),
        ),
        (
            "engine".to_owned(),
            Json::Obj(vec![
                ("cache_hits".to_owned(), Json::Num(stats.cache_hits as f64)),
                (
                    "cache_misses".to_owned(),
                    Json::Num(stats.cache_misses as f64),
                ),
                (
                    "cache_entries".to_owned(),
                    Json::Num(stats.chain_solutions as f64),
                ),
                (
                    "cache_bytes_approx".to_owned(),
                    Json::Num(stats.cache_bytes as f64),
                ),
                (
                    "cache_evictions".to_owned(),
                    Json::Num(stats.cache_evictions as f64),
                ),
                (
                    "chain_solutions".to_owned(),
                    Json::Num(stats.chain_solutions as f64),
                ),
                (
                    "degraded_solutions".to_owned(),
                    Json::Num(stats.degraded_solutions as f64),
                ),
                (
                    "worker_panics".to_owned(),
                    Json::Num(stats.worker_panics as f64),
                ),
                ("store_hits".to_owned(), Json::Num(stats.store_hits as f64)),
            ]),
        ),
        (
            "pool".to_owned(),
            Json::Obj(vec![
                ("capacity".to_owned(), Json::Num(pool.capacity() as f64)),
                ("available".to_owned(), Json::Num(pool.available() as f64)),
                ("in_use".to_owned(), Json::Num(pool.in_use() as f64)),
            ]),
        ),
        ("store".to_owned(), store),
    ]);
    Response::json(200, body.emit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_from_parses_and_rejects() {
        assert_eq!(query_from(None).unwrap(), 0);
        assert_eq!(query_from(Some("from=5")).unwrap(), 5);
        assert!(query_from(Some("from=x")).is_err());
        assert!(query_from(Some("limit=2")).is_err());
    }

    #[test]
    fn retry_jitter_is_deterministic_and_in_range() {
        for seed in ["req-1", "req-2", "req-3", "conn-64", ""] {
            let first = retry_jitter(seed);
            assert_eq!(first, retry_jitter(seed), "deterministic per seed");
            assert!((1..=3).contains(&first), "{seed}: {first}");
        }
        // Distinct ids actually spread out (the whole point of jitter):
        // across a modest id range all three values occur.
        let values: std::collections::BTreeSet<u64> =
            (0..32).map(|i| retry_jitter(&format!("req-{i}"))).collect();
        assert_eq!(values.len(), 3, "{values:?}");
    }
}
