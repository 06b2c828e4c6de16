//! Implementation of the `nvp` command-line interface.
//!
//! The binary (`src/bin/nvp.rs`) is a thin wrapper over [`run`], which
//! writes to any `io::Write` so the whole CLI is unit-testable.
//!
//! ```text
//! nvp analyze [PARAM OPTIONS] [--matrix] [--sensitivities] [--states N]
//! nvp sweep --axis AXIS --from X --to Y --steps N [PARAM OPTIONS]
//!           [--out FILE [--resume]] [--retries N] [--point-deadline-ms MS]
//! nvp cache stats|verify|clear [--cache-dir DIR]
//! nvp solve FILE.dspn [--reward EXPR] [--max-markings N]
//! nvp simulate FILE.dspn --reward EXPR [--horizon T] [--seed S]
//! nvp dot FILE.dspn [--reach]
//! ```
//!
//! Parameter options (for `analyze` and `sweep`): `--n`, `--f`, `--r`,
//! `--no-rejuvenation`, `--alpha`, `--p`, `--p-prime`, `--mttc`, `--mttf`,
//! `--mttr`, `--interval`, `--policy failed-only|as-written`. Resource
//! limits: `--budget-ms` (wall-clock per uncached solve) and
//! `--max-markings` (state-space cap). A result answered via a fallback is
//! flagged with a WARNING and maps to process exit code 2 (see
//! [`RunStatus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;

use nvp_core::analysis::SolverBackend;
use nvp_core::engine::{AnalysisEngine, SweepPointRecord};
use nvp_core::reliability::ReliabilitySource;
use nvp_core::report::{render, ReportOptions};
use nvp_core::request::{sweep_csv, AnalyzeRequest, SweepRequest};
use nvp_numerics::{Jobs, WorkerPool};
use nvp_obs::progress::SweepProgress;
use nvp_serve::{RejuvenateMode, ServeConfig, ServeOutcome, Server};
use nvp_sim::dspn::{simulate_reward, SimOptions};
use nvp_sim::fallback::monte_carlo_hook;
use nvp_store::atomic::write_atomic;
use nvp_store::SolveStore;
use std::io::Write;
use std::path::PathBuf;

/// Outcome of a successful [`run`]: whether every analysis was answered by
/// the primary solver or some result is a degraded (fallback) estimate.
/// The binary maps `Degraded` to its own process exit code (2) so scripts
/// can distinguish "answered, but double-check" from success (0) and hard
/// failure (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All results came from the primary analytic pipeline.
    Success,
    /// At least one result was produced by a fallback (alternate backend or
    /// Monte Carlo); a warning was printed alongside it.
    Degraded,
    /// `nvp serve` completed an `exit`-mode rejuvenation drain; the
    /// process exits with the distinguished code 75 so a supervisor loop
    /// (`until nvp serve ...; do :; done`) restarts it while a clean
    /// SIGTERM stop (exit 0) ends the loop.
    Rejuvenate,
}

/// CLI errors: message plus the exit code to report.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),*) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError {
                    message: e.to_string(),
                }
            }
        })*
    };
}

from_error!(
    String,
    nvp_core::CoreError,
    nvp_petri::PetriError,
    nvp_mrgp::MrgpError,
    nvp_sim::SimError,
    nvp_numerics::NumericsError,
    std::io::Error
);

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Usage text printed by `nvp help`.
pub const USAGE: &str = "\
nvp — N-version perception reliability toolkit

USAGE:
  nvp analyze [PARAMS] [--matrix] [--sensitivities] [--states N] [--stats]
              [--budget-ms MS] [--max-markings N] [--jobs N|auto]
              [--cache-dir DIR] [--metrics] [--quiet]
              [--trace-out FILE [--trace-format jsonl|chrome]]
      Analyze a perception system and print a report.
  nvp sweep --axis AXIS --from X --to Y --steps N [PARAMS] [--stats]
            [--budget-ms MS] [--max-markings N] [--jobs N|auto]
            [--out FILE [--resume]] [--retries N] [--point-deadline-ms MS]
            [--cache-dir DIR] [--metrics] [--quiet]
            [--trace-out FILE [--trace-format jsonl|chrome]]
      Print a CSV sweep of E[R] over one parameter axis (N >= 2 steps,
      --from < --to, both finite).
      AXIS: gamma | mttc | mttf | mttr | alpha | p | pprime
      --stats appends solver statistics (state-space size, subordinated
      chains, chain-cache hits, fallbacks, supervision counters, per-stage
      times) to either command. --budget-ms caps the wall-clock time of
      each uncached solve; --max-markings caps state-space exploration.
      --jobs sets the worker budget shared by the parallel sweep and the
      MRGP row solver: 1 to 256, or auto (default: NVP_JOBS or the number
      of cores; output is identical at any level).
      --out FILE writes the CSV atomically to FILE and checkpoints every
      completed grid point in FILE.journal (fsync'd per point); after a
      crash or kill, rerunning with --resume replays the journal and solves
      only the missing points — the final CSV is byte-identical to an
      uninterrupted run. --retries N retries a grid point after a caught
      worker panic or a missed point deadline (default 1);
      --point-deadline-ms MS cancels a grid point at its first solver
      budget check more than MS after the attempt started, then retries it.
      If the primary solver fails, analyze/sweep fall back to an alternate
      backend and then to Monte Carlo; a degraded (fallback) result prints a
      WARNING and the process exits with code 2 instead of 0.
      --trace-out FILE records a structured execution trace — spans around
      model builds, state-space exploration, MRGP row solves, reward
      evaluation, and every sweep point, plus events for fallbacks, caught
      panics, retries, and rejuvenations — and writes it on exit as JSON
      Lines (one record per line, nanosecond timestamps), or as a
      chrome://tracing-compatible JSON array with --trace-format chrome.
      --metrics appends a Prometheus text-format dump of the engine's
      metrics registry (counters, gauges, latency histograms) to stdout.
      A sweep on an interactive terminal shows a live progress line on
      stderr (completed/total, pts/s, ETA, degraded and retried counts);
      --quiet suppresses it along with WARNING/note diagnostics.
      --cache-dir DIR (or the NVP_CACHE_DIR environment variable) adds a
      persistent on-disk solve store as a second cache tier behind the
      in-memory chain cache: solved chains are written as checksummed,
      content-addressed records and replayed bit-identically by later runs
      — across processes, and safely shared by concurrent ones. A torn or
      bit-flipped record is detected, quarantined (renamed .corrupt), and
      re-solved; corruption can cost a re-solve, never a wrong number.
  nvp serve [--addr HOST:PORT] [--budget-ms MS] [--jobs N|auto]
            [--cache-dir DIR] [--retries N] [--point-deadline-ms MS]
            [--max-body-bytes N] [--max-connections N]
            [--max-cache-entries N] [--max-cache-bytes N]
            [--job-deadline-ms MS] [--drain-deadline-ms MS]
            [--rejuvenate-after-jobs N] [--rejuvenate-after-secs S]
            [--rejuvenate-cache-entries N] [--rejuvenate-after-panics N]
            [--rejuvenate-mode swap|exit] [--flight-dir DIR]
            [--flight-records N] [--access-log]
      Run an HTTP analysis daemon around one warm engine (default address
      127.0.0.1:7171; use port 0 for an ephemeral port). The bound address
      is printed to stdout, then the daemon serves until stopped.
      POST /v1/analyze and POST /v1/sweep take JSON bodies (same parameter
      names as the CLI flags, without dashes) and return 202 with a job id;
      poll GET /v1/jobs/ID for the result and GET /v1/jobs/ID/progress for
      the per-point journal. GET /metrics serves Prometheus text format and
      GET /healthz reports state/engine/pool/store/job health. Degraded
      results are 200s carrying the WARNING in the body; 429 + Retry-After
      signals a starved worker pool. --budget-ms, --retries and
      --point-deadline-ms set engine-level defaults (a request budget_ms
      can only tighten the deadline; the point deadline cancels and
      retries an overdue sweep point, as for nvp sweep, and does not apply
      to analyze jobs); --job-deadline-ms gives jobs submitted without
      their own budget_ms a server-side default deadline
      (off by default, for CLI parity); --cache-dir shares one persistent
      solve store across all clients and restarts.
      --max-cache-entries / --max-cache-bytes bound the in-memory chain
      cache with LRU eviction (evicted entries reload warm from the
      store). The --rejuvenate-* flags arm self-rejuvenation: once the
      daemon has served N jobs, run S seconds, cached N entries, or
      panicked N times in a row, it drains — new submissions get 503 +
      Retry-After, in-flight jobs get --drain-deadline-ms (default 30000)
      to finish, the store is fsynced — and then either swaps in a fresh
      warm engine in-process (mode swap, the default) or exits with the
      distinguished code 75 for a supervisor loop (mode exit). SIGTERM and
      SIGINT trigger the same graceful drain and exit 0. The daemon itself
      is always --quiet: diagnostics go to stderr with request-id
      prefixes, never interactive UI. The daemon keeps an always-on
      in-memory flight recorder (last --flight-records spans/events,
      default 4096); with --flight-dir DIR a worker panic, a drain, or a
      rejuvenation writes the ring as a JSONL dump into DIR (validate
      with nvp-trace-check --flight). GET /v1/debug/recorder serves the
      live ring, GET /v1/debug/aging the rejuvenation-policy signals.
      --access-log switches the per-request stderr line to structured
      JSON (method, path, endpoint, status, nanos, body_bytes).
  nvp cache stats|verify|clear [--cache-dir DIR]
      Inspect or maintain a persistent solve store. stats prints entry,
      byte, quarantine, and temp-file counts; verify re-checksums every
      record and quarantines damaged ones; clear removes all entries,
      quarantined records, and temp files. The directory comes from
      --cache-dir or NVP_CACHE_DIR.
  nvp solve FILE.dspn [--reward EXPR] [--max-markings N]
      Solve a DSPN model file for its stationary distribution.
  nvp simulate FILE.dspn --reward EXPR [--horizon T] [--seed S]
      Estimate a steady-state reward of a DSPN model by simulation.
  nvp dot FILE.dspn [--reach]
      Render a DSPN model (or its reachability graph) as Graphviz DOT.
  nvp invariants FILE.dspn
      Compute place invariants (conserved weighted token sums).
  nvp fmt FILE.dspn
      Parse a model file and print its normalized form.
  nvp help
      Show this message.

PARAMS (defaults = the paper's Table II):
  --n N --f F --r R --no-rejuvenation
  --alpha A --p P --p-prime P'
  --mttc S --mttf S --mttr S --interval S
  --policy failed-only|as-written
";

/// Entry point shared by the binary and the tests.
///
/// Returns [`RunStatus::Degraded`] when every requested result was produced
/// but at least one came from a fallback path (alternate linear-algebra
/// backend or Monte Carlo); the output then carries a WARNING line next to
/// the degraded figure.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for malformed
/// invocations or failed analyses.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let Some(command) = args.first() else {
        return Err(CliError {
            message: format!("missing command\n\n{USAGE}"),
        });
    };
    match command.as_str() {
        "analyze" => cmd_analyze(&args[1..], out),
        "sweep" => cmd_sweep(&args[1..], out),
        "serve" => cmd_serve(&args[1..], out),
        "cache" => cmd_cache(&args[1..], out),
        "solve" => cmd_solve(&args[1..], out),
        "simulate" => cmd_simulate(&args[1..], out),
        "dot" => cmd_dot(&args[1..], out),
        "invariants" => cmd_invariants(&args[1..], out),
        "fmt" => cmd_fmt(&args[1..], out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(RunStatus::Success)
        }
        other => Err(CliError {
            message: format!("unknown command `{other}`\n\n{USAGE}"),
        }),
    }
}

/// A simple flag cursor over the argument list.
struct Args<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args { args, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str> {
        self.next().ok_or_else(|| CliError {
            message: format!("flag `{flag}` requires a value"),
        })
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| CliError {
            message: format!("bad value `{v}` for `{flag}`: {e}"),
        })
    }
}

/// Builds the analysis engine used by `analyze`, `sweep` and `serve`: the
/// Monte Carlo fallback hook is always installed (it only runs when the
/// analytic pipeline fails), and an optional wall-clock budget is applied.
/// With fault injection compiled in, the engine is armed with the
/// `NVP_FAULT_INJECT` plan.
///
/// An explicit `--jobs N` also raises the process-wide worker-pool capacity
/// so the request can actually be met on machines with fewer cores (the
/// results are identical at any worker count; `N` only trades memory for
/// wall-clock time).
fn resilient_engine(
    budget_ms: Option<u64>,
    jobs: Jobs,
    cache_dir: Option<&std::path::Path>,
) -> Result<AnalysisEngine> {
    if let Jobs::Fixed(n) = jobs {
        WorkerPool::global().set_capacity(n);
    }
    let mut engine = AnalysisEngine::new()
        .with_monte_carlo(monte_carlo_hook(SimOptions::default()))
        .with_jobs(jobs);
    if let Some(ms) = budget_ms {
        engine = engine.with_budget_ms(ms);
    }
    if let Some(dir) = cache_dir {
        let store = SolveStore::open(dir).map_err(|e| CliError {
            message: format!("cannot open solve store `{}`: {e}", dir.display()),
        })?;
        engine = engine.with_store(store);
    }
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = env_fault_plan()? {
        engine = engine.with_faults(plan);
    }
    Ok(engine)
}

/// The `NVP_FAULT_INJECT=mode@site[:skip[:hits]]` plan, if set: armed once
/// per process, so every engine built here (serve's swap-mode rebuilds too)
/// shares one call counter. A malformed value is an error.
#[cfg(feature = "fault-inject")]
fn env_fault_plan() -> Result<Option<nvp_numerics::fault::ArmedPlan>> {
    use nvp_numerics::fault::{ArmedPlan, FaultPlan};
    use std::sync::OnceLock;
    static PLAN: OnceLock<std::result::Result<Option<ArmedPlan>, String>> = OnceLock::new();
    PLAN.get_or_init(|| match std::env::var("NVP_FAULT_INJECT") {
        Ok(spec) => spec
            .parse::<FaultPlan>()
            .map(|plan| Some(plan.arm()))
            .map_err(|e| format!("NVP_FAULT_INJECT: {e}")),
        Err(_) => Ok(None),
    })
    .clone()
    .map_err(|message| CliError { message })
}

/// Resolves the persistent solve-store directory: an explicit `--cache-dir`
/// wins, else the `NVP_CACHE_DIR` environment variable, else no store.
fn resolve_cache_dir(explicit: Option<PathBuf>) -> Option<PathBuf> {
    explicit.or_else(|| {
        std::env::var_os("NVP_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
}

/// Parses a `--jobs` value: a worker count from 1 to 256, or `auto`.
fn parse_jobs(v: &str) -> Result<Jobs> {
    Jobs::parse(v).ok_or_else(|| CliError {
        message: format!("bad value `{v}` for `--jobs` (integer from 1 to 256, or `auto`)"),
    })
}

/// On-disk layout for a recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum TraceFormat {
    /// One JSON record per line, nanosecond timestamps (the native format;
    /// validated by the `nvp-trace-check` binary).
    #[default]
    Jsonl,
    /// A chrome://tracing / Perfetto-compatible JSON array.
    Chrome,
}

/// Observability flags shared by `analyze` and `sweep`.
#[derive(Debug, Clone, Default)]
struct ObsOptions {
    trace_out: Option<std::path::PathBuf>,
    trace_format: TraceFormat,
    metrics: bool,
    quiet: bool,
}

impl ObsOptions {
    /// Consumes the flag (plus its value) if it is one of ours; `Ok(false)`
    /// hands it back to the caller's flag loop.
    fn try_parse(&mut self, flag: &str, cursor: &mut Args<'_>) -> Result<bool> {
        match flag {
            "--trace-out" => self.trace_out = Some(cursor.value(flag)?.into()),
            "--trace-format" => {
                self.trace_format = match cursor.value(flag)? {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(CliError {
                            message: format!("bad trace format `{other}` (jsonl | chrome)"),
                        });
                    }
                }
            }
            "--metrics" => self.metrics = true,
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Scoped trace recording: arms the process-wide recorder on construction
/// and guarantees it is disarmed again — with the collected records written
/// out on the success path ([`TraceSession::finish`]), or simply drained and
/// dropped if the command errors out first (via `Drop`). The quiet flag is
/// process-global too and is reset the same way.
struct TraceSession {
    out: Option<(std::path::PathBuf, TraceFormat)>,
}

impl TraceSession {
    fn start(obs: &ObsOptions) -> TraceSession {
        nvp_obs::sink::set_quiet(obs.quiet);
        if obs.trace_out.is_some() {
            nvp_obs::trace::start_recording();
        }
        TraceSession {
            out: obs.trace_out.clone().map(|p| (p, obs.trace_format)),
        }
    }

    fn finish(mut self) -> Result<()> {
        let Some((path, format)) = self.out.take() else {
            return Ok(());
        };
        let records = nvp_obs::trace::stop_recording();
        let mut buf = Vec::new();
        match format {
            TraceFormat::Jsonl => nvp_obs::trace::write_jsonl(&records, &mut buf),
            TraceFormat::Chrome => nvp_obs::trace::write_chrome(&records, &mut buf),
        }
        .and_then(|()| std::fs::write(&path, &buf))
        .map_err(|e| CliError {
            message: format!("cannot write trace `{}`: {e}", path.display()),
        })
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.out.take().is_some() {
            drop(nvp_obs::trace::stop_recording());
        }
        nvp_obs::sink::set_quiet(false);
    }
}

fn cmd_analyze(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let (request, rest) = AnalyzeRequest::from_flags(args)?;
    let mut options = ReportOptions::default();
    let mut stats = false;
    let mut jobs = Jobs::Auto;
    let mut cache_dir = None;
    let mut obs = ObsOptions::default();
    let mut cursor = Args::new(&rest);
    while let Some(flag) = cursor.next() {
        if obs.try_parse(flag, &mut cursor)? {
            continue;
        }
        match flag {
            "--matrix" => options.matrix = true,
            "--no-matrix" => options.matrix = false,
            "--sensitivities" => options.sensitivities = true,
            "--states" => options.state_rows = cursor.parsed(flag)?,
            "--stats" => stats = true,
            "--jobs" => jobs = parse_jobs(cursor.value(flag)?)?,
            "--cache-dir" => cache_dir = Some(PathBuf::from(cursor.value(flag)?)),
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for analyze"),
                });
            }
        }
    }
    let cache_dir = resolve_cache_dir(cache_dir);
    let session = TraceSession::start(&obs);
    let engine = resilient_engine(request.budget_ms, jobs, cache_dir.as_deref())?;
    let AnalyzeRequest { params, policy, .. } = &request;
    let report = engine.analyze(params, *policy, ReliabilitySource::Auto, request.backend)?;
    let text = render(&engine, params, *policy, &report, &options)?;
    write!(out, "{text}")?;
    if stats {
        writeln!(out, "\nsolver statistics:")?;
        writeln!(out, "{}", engine.stats())?;
    }
    if obs.metrics {
        writeln!(out, "\nmetrics:")?;
        write!(out, "{}", engine.metrics().render_prometheus())?;
    }
    session.finish()?;
    Ok(if report.degraded.is_some() {
        RunStatus::Degraded
    } else {
        RunStatus::Success
    })
}

/// `nvp cache stats|verify|clear`: inspect or maintain a persistent solve
/// store without running an analysis.
fn cmd_cache(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let Some(action) = args.first() else {
        return Err(CliError {
            message: "cache requires an action: stats | verify | clear".into(),
        });
    };
    if !matches!(action.as_str(), "stats" | "verify" | "clear") {
        return Err(CliError {
            message: format!("unknown cache action `{action}` (stats | verify | clear)"),
        });
    }
    let mut cache_dir = None;
    let mut cursor = Args::new(&args[1..]);
    while let Some(flag) = cursor.next() {
        match flag {
            "--cache-dir" => cache_dir = Some(PathBuf::from(cursor.value(flag)?)),
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for cache"),
                });
            }
        }
    }
    let Some(dir) = resolve_cache_dir(cache_dir) else {
        return Err(CliError {
            message: "cache requires --cache-dir DIR (or the NVP_CACHE_DIR environment variable)"
                .into(),
        });
    };
    let store = SolveStore::open(&dir).map_err(|e| CliError {
        message: format!("cannot open solve store `{}`: {e}", dir.display()),
    })?;
    let io_err = |e: std::io::Error| CliError {
        message: format!("solve store `{}`: {e}", dir.display()),
    };
    match action.as_str() {
        "stats" => {
            let s = store.stats().map_err(io_err)?;
            writeln!(out, "solve store {}", dir.display())?;
            writeln!(out, "  entries     : {} ({} bytes)", s.entries, s.bytes)?;
            writeln!(out, "  quarantined : {}", s.quarantined)?;
            writeln!(out, "  temp files  : {}", s.temps)?;
        }
        "verify" => {
            let (intact, quarantined) = store.verify().map_err(io_err)?;
            writeln!(
                out,
                "verified {}: {intact} intact, {quarantined} quarantined",
                dir.display()
            )?;
        }
        "clear" => {
            let removed = store.clear().map_err(io_err)?;
            writeln!(out, "cleared {}: {removed} file(s) removed", dir.display())?;
        }
        _ => unreachable!("action validated above"),
    }
    Ok(RunStatus::Success)
}

fn cmd_sweep(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let (request, rest) = SweepRequest::from_flags(args)?;
    let mut stats = false;
    let mut jobs = Jobs::Auto;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut retries = None;
    let mut point_deadline_ms = None;
    let mut cache_dir = None;
    let mut obs = ObsOptions::default();
    let mut cursor = Args::new(&rest);
    while let Some(flag) = cursor.next() {
        if obs.try_parse(flag, &mut cursor)? {
            continue;
        }
        match flag {
            "--stats" => stats = true,
            "--jobs" => jobs = parse_jobs(cursor.value(flag)?)?,
            "--out" => out_path = Some(cursor.value(flag)?.into()),
            "--resume" => resume = true,
            "--retries" => retries = Some(cursor.parsed(flag)?),
            "--point-deadline-ms" => point_deadline_ms = Some(cursor.parsed(flag)?),
            "--cache-dir" => cache_dir = Some(PathBuf::from(cursor.value(flag)?)),
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for sweep"),
                });
            }
        }
    }
    if resume && out_path.is_none() {
        return Err(CliError {
            message: "--resume requires --out FILE (the journal lives next to the CSV)".into(),
        });
    }
    let grid = request.grid();
    let cache_dir = resolve_cache_dir(cache_dir);
    let session = TraceSession::start(&obs);
    let mut engine = resilient_engine(request.base.budget_ms, jobs, cache_dir.as_deref())?;
    if let Some(n) = retries {
        engine = engine.with_retries(n);
    }
    if let Some(ms) = point_deadline_ms {
        engine = engine.with_point_deadline_ms(ms);
    }
    let progress = SweepProgress::new(grid.len());
    let retries_counter = engine.metrics().counter("nvp_retries_total");
    let (base, axis) = (&request.base, request.axis);
    let (points, replayed_degraded) = match &out_path {
        Some(path) => {
            // Everything that determines the sweep's output goes into the
            // journal fingerprint; `--resume` against a journal recording a
            // different invocation must fail, not mix results.
            let max_markings = match base.backend {
                SolverBackend::Auto => None,
                SolverBackend::Budget(n) => Some(n),
            };
            let fp = journal::fingerprint(&format!(
                "{:?}|{:?}|{axis:?}|{:016x}|{:016x}|{}|{max_markings:?}",
                base.params,
                base.policy,
                request.from.to_bits(),
                request.to.to_bits(),
                request.steps,
            ));
            sweep_journaled(&engine, &request, &grid, path, fp, resume, &progress)?
        }
        None => {
            // Completion callbacks arrive on whichever worker finished the
            // point; the sink serializes the warning lines against the
            // progress repaints, and the CSV on stdout stays untouched.
            let observer = |record: SweepPointRecord| {
                if record.degraded {
                    nvp_obs::sink::warn(&format!(
                        "degraded result at {} = {}",
                        axis.label(),
                        record.x
                    ));
                }
                progress.point_done(record.degraded, retries_counter.get());
            };
            let points = engine.sweep_supervised(
                &base.params,
                axis,
                &grid,
                base.policy,
                base.backend,
                &observer,
            )?;
            (points, false)
        }
    };
    progress.finish();
    let csv = sweep_csv(axis, &points);
    match &out_path {
        Some(path) => {
            write_atomic(path, csv.as_bytes()).map_err(|e| CliError {
                message: format!("cannot write `{}`: {e}", path.display()),
            })?;
            writeln!(
                out,
                "wrote {} ({} points, {} resumed from journal)",
                path.display(),
                points.len(),
                engine.stats().resume_hits,
            )?;
        }
        None => write!(out, "{csv}")?,
    }
    if stats {
        writeln!(out, "\nsolver statistics:")?;
        writeln!(out, "{}", engine.stats())?;
    }
    if obs.metrics {
        writeln!(out, "\nmetrics:")?;
        write!(out, "{}", engine.metrics().render_prometheus())?;
    }
    session.finish()?;
    Ok(
        if engine.stats().degraded_solutions > 0 || replayed_degraded {
            RunStatus::Degraded
        } else {
            RunStatus::Success
        },
    )
}

/// The checkpointed execution path behind `nvp sweep --out`: completed grid
/// points are replayed from the sidecar journal (on `--resume`), only the
/// missing points are solved, and every fresh point is appended — fsync'd —
/// to the journal the moment it completes. Returns the full grid's results
/// plus whether any *replayed* point was originally degraded (fresh degraded
/// solves are already visible in the engine's statistics).
fn sweep_journaled(
    engine: &AnalysisEngine,
    request: &SweepRequest,
    grid: &[f64],
    out_path: &std::path::Path,
    fingerprint: u64,
    resume: bool,
    progress: &SweepProgress,
) -> Result<(Vec<(f64, f64)>, bool)> {
    let journal_path = std::path::PathBuf::from(format!("{}.journal", out_path.display()));
    let io_err = |e: std::io::Error| CliError {
        message: format!("sweep journal `{}`: {e}", journal_path.display()),
    };
    // A missing journal under --resume is a fresh start, not an error: the
    // crash may have predated the journal's creation.
    let (journal, replayed) = if resume && journal_path.exists() {
        journal::Journal::resume(&journal_path, fingerprint, grid.len()).map_err(io_err)?
    } else {
        (
            journal::Journal::create(&journal_path, fingerprint, grid.len()).map_err(io_err)?,
            Vec::new(),
        )
    };
    let mut filled: Vec<Option<(f64, bool)>> = vec![None; grid.len()];
    for point in &replayed {
        // The fingerprint ties the journal to this grid, so a point whose
        // stored x disagrees bit-for-bit is corrupt — recompute it.
        if point.index < grid.len() && grid[point.index].to_bits() == point.x.to_bits() {
            filled[point.index] = Some((point.value, point.degraded));
        }
    }
    let replayed_degraded = filled.iter().flatten().any(|&(_, degraded)| degraded);
    engine.note_resume_hits(filled.iter().flatten().count() as u64);
    progress.points_replayed(filled.iter().flatten().count());
    let retries_counter = engine.metrics().counter("nvp_retries_total");
    let missing: Vec<usize> = (0..grid.len()).filter(|&i| filled[i].is_none()).collect();
    if !missing.is_empty() {
        let missing_values: Vec<f64> = missing.iter().map(|&i| grid[i]).collect();
        let journal = std::sync::Mutex::new(journal);
        let append_error = std::sync::Mutex::new(None);
        // Called per completed point from whichever worker finished it; the
        // record's index is into `missing_values` and maps back to the grid.
        let observer = |record: SweepPointRecord| {
            let point = journal::JournalPoint {
                index: missing[record.index],
                x: record.x,
                value: record.value,
                degraded: record.degraded,
            };
            if record.degraded {
                nvp_obs::sink::warn(&format!(
                    "degraded result at {} = {}",
                    request.axis.label(),
                    record.x
                ));
            }
            progress.point_done(record.degraded, retries_counter.get());
            let mut guard = journal.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = guard.append(&point) {
                append_error
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .get_or_insert(e);
            }
        };
        let solved = engine.sweep_supervised(
            &request.base.params,
            request.axis,
            &missing_values,
            request.base.policy,
            request.base.backend,
            &observer,
        )?;
        if let Some(e) = append_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(io_err(e));
        }
        for (&index, &(_, value)) in missing.iter().zip(&solved) {
            // Degraded-ness of fresh solves is tracked by the engine stats;
            // only the value is needed to assemble the CSV.
            filled[index] = Some((value, false));
        }
    }
    let points = grid
        .iter()
        .zip(&filled)
        .map(|(&x, slot)| (x, slot.expect("every grid point replayed or solved").0))
        .collect();
    Ok((points, replayed_degraded))
}

/// `nvp serve`: one warm engine behind an HTTP API. Blocks until stopped
/// (SIGTERM/SIGINT drain cleanly, an `exit`-mode rejuvenation returns the
/// distinguished status) or the listener fails fatally.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut budget_ms = None;
    let mut jobs = Jobs::Auto;
    let mut cache_dir = None;
    let mut retries = None;
    let mut point_deadline_ms = None;
    let mut max_cache_entries = None;
    let mut max_cache_bytes = None;
    let mut config = ServeConfig::default();
    let mut cursor = Args::new(args);
    while let Some(flag) = cursor.next() {
        match flag {
            "--addr" => addr = cursor.value(flag)?.to_owned(),
            "--budget-ms" => budget_ms = Some(cursor.parsed(flag)?),
            "--jobs" => jobs = parse_jobs(cursor.value(flag)?)?,
            "--cache-dir" => cache_dir = Some(PathBuf::from(cursor.value(flag)?)),
            "--retries" => retries = Some(cursor.parsed(flag)?),
            "--point-deadline-ms" => point_deadline_ms = Some(cursor.parsed(flag)?),
            "--max-body-bytes" => config.max_body_bytes = cursor.parsed(flag)?,
            "--max-connections" => config.max_connections = cursor.parsed(flag)?,
            "--max-cache-entries" => max_cache_entries = Some(cursor.parsed(flag)?),
            "--max-cache-bytes" => max_cache_bytes = Some(cursor.parsed(flag)?),
            "--job-deadline-ms" => config.job_deadline_ms = Some(cursor.parsed(flag)?),
            "--drain-deadline-ms" => {
                config.rejuvenation.drain_deadline =
                    std::time::Duration::from_millis(cursor.parsed(flag)?);
            }
            "--rejuvenate-after-jobs" => {
                config.rejuvenation.after_jobs = Some(cursor.parsed(flag)?);
            }
            "--rejuvenate-after-secs" => {
                config.rejuvenation.after_secs = Some(cursor.parsed(flag)?);
            }
            "--rejuvenate-cache-entries" => {
                config.rejuvenation.cache_entries_pressure = Some(cursor.parsed(flag)?);
            }
            "--rejuvenate-after-panics" => {
                config.rejuvenation.panic_streak = Some(cursor.parsed(flag)?);
            }
            "--rejuvenate-mode" => {
                config.rejuvenation.mode = RejuvenateMode::parse(cursor.value(flag)?)
                    .map_err(|message| CliError { message })?;
            }
            "--flight-dir" => config.flight_dir = Some(PathBuf::from(cursor.value(flag)?)),
            "--flight-records" => {
                config.flight_records = cursor.parsed(flag)?;
            }
            "--access-log" => config.access_log = true,
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for serve"),
                });
            }
        }
    }
    // A daemon has no interactive terminal: progress meters and per-point
    // WARNING lines stay off, and diagnostics flow through the stderr sink
    // with request-id prefixes instead.
    nvp_obs::sink::set_quiet(true);
    let cache_dir = resolve_cache_dir(cache_dir);
    let build_engine = move || -> Result<AnalysisEngine> {
        let mut engine = resilient_engine(budget_ms, jobs, cache_dir.as_deref())?;
        if let Some(n) = retries {
            engine = engine.with_retries(n);
        }
        if let Some(ms) = point_deadline_ms {
            engine = engine.with_point_deadline_ms(ms);
        }
        if let Some(n) = max_cache_entries {
            engine = engine.with_max_cache_entries(n);
        }
        if let Some(n) = max_cache_bytes {
            engine = engine.with_max_cache_bytes(n);
        }
        Ok(engine)
    };
    let engine = build_engine()?;
    let server =
        Server::bind(std::sync::Arc::new(engine), &addr, config).map_err(|e| CliError {
            message: format!("cannot bind `{addr}`: {e}"),
        })?;
    // Swap-mode rejuvenations rebuild the engine with this exact
    // configuration; a failure at that point (e.g. the store directory
    // vanished) falls back to in-place renewal inside the server.
    server.set_engine_factory(std::sync::Arc::new(move || {
        build_engine().unwrap_or_else(|e| {
            nvp_obs::sink::error(&format!("nvp serve: engine rebuild failed: {e}"));
            AnalysisEngine::new()
        })
    }));
    // Operator-initiated drain: SIGTERM/SIGINT flip a flag the server's
    // monitor turns into the graceful-drain path. Installed here (the
    // binary entry), not in the library, so embedders keep control of
    // their own signal disposition.
    nvp_serve::signal::install();
    // Announce the resolved address (meaningful with `--addr ...:0`) and
    // flush so supervisors reading our stdout see it before the first
    // request.
    writeln!(out, "listening on http://{}", server.local_addr())?;
    out.flush()?;
    let outcome = server.run().map_err(|e| CliError {
        message: format!("server failed: {e}"),
    })?;
    Ok(match outcome {
        ServeOutcome::Shutdown => RunStatus::Success,
        ServeOutcome::Rejuvenate => RunStatus::Rejuvenate,
    })
}

fn load_net(path: &str) -> Result<nvp_petri::net::PetriNet> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read `{path}`: {e}"),
    })?;
    Ok(nvp_petri::text::parse_net(&text)?)
}

fn cmd_solve(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let mut cursor = Args::new(args);
    let Some(path) = cursor.next() else {
        return Err(CliError {
            message: "solve requires a model file".into(),
        });
    };
    let mut reward_expr = None;
    let mut max_markings = 200_000usize;
    while let Some(flag) = cursor.next() {
        match flag {
            "--reward" => reward_expr = Some(cursor.value(flag)?.to_string()),
            "--max-markings" => max_markings = cursor.parsed(flag)?,
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for solve"),
                });
            }
        }
    }
    let net = load_net(path)?;
    let graph = nvp_petri::reach::explore(&net, max_markings)?;
    let solution = nvp_mrgp::steady_state(&graph)?;
    writeln!(
        out,
        "net `{}`: {} tangible markings",
        net.name(),
        graph.tangible_count()
    )?;
    let mut rows: Vec<(usize, f64)> = solution
        .probabilities()
        .iter()
        .copied()
        .enumerate()
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probabilities"));
    writeln!(out, "stationary distribution (descending):")?;
    for (idx, p) in rows {
        if p < 1e-9 {
            continue;
        }
        writeln!(
            out,
            "  {:<40} {p:.6}",
            net.format_marking(&graph.markings()[idx])
        )?;
    }
    if let Some(src) = reward_expr {
        let expr = net.parse_expr(&src)?;
        let rewards = graph.reward_expr(&expr)?;
        writeln!(
            out,
            "expected reward of `{src}`: {:.6}",
            solution.expected_reward(&rewards)
        )?;
    }
    Ok(RunStatus::Success)
}

fn cmd_simulate(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let mut cursor = Args::new(args);
    let Some(path) = cursor.next() else {
        return Err(CliError {
            message: "simulate requires a model file".into(),
        });
    };
    let mut reward_expr = None;
    let mut horizon = 1e6;
    let mut seed = 1u64;
    while let Some(flag) = cursor.next() {
        match flag {
            "--reward" => reward_expr = Some(cursor.value(flag)?.to_string()),
            "--horizon" => horizon = cursor.parsed(flag)?,
            "--seed" => seed = cursor.parsed(flag)?,
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for simulate"),
                });
            }
        }
    }
    let Some(src) = reward_expr else {
        return Err(CliError {
            message: "simulate requires --reward EXPR".into(),
        });
    };
    let net = load_net(path)?;
    let expr = net.parse_expr(&src)?;
    let estimate = simulate_reward(
        &net,
        &|m| expr.eval(m).unwrap_or(f64::NAN),
        &SimOptions {
            horizon,
            warmup: horizon / 100.0,
            seed,
            batches: 20,
        },
    )?;
    writeln!(
        out,
        "simulated expected reward of `{src}`: {:.6} ± {:.6} (95% CI, {} batches)",
        estimate.mean, estimate.half_width, estimate.samples
    )?;
    Ok(RunStatus::Success)
}

fn cmd_dot(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let mut cursor = Args::new(args);
    let Some(path) = cursor.next() else {
        return Err(CliError {
            message: "dot requires a model file".into(),
        });
    };
    let mut reach = false;
    while let Some(flag) = cursor.next() {
        match flag {
            "--reach" => reach = true,
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}` for dot"),
                });
            }
        }
    }
    let net = load_net(path)?;
    if reach {
        let graph = nvp_petri::reach::explore(&net, 200_000)?;
        write!(out, "{}", nvp_petri::dot::reach_to_dot(&net, &graph))?;
    } else {
        write!(out, "{}", nvp_petri::dot::net_to_dot(&net))?;
    }
    Ok(RunStatus::Success)
}

fn cmd_invariants(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let Some(path) = args.first() else {
        return Err(CliError {
            message: "invariants requires a model file".into(),
        });
    };
    let net = load_net(path)?;
    let report = nvp_petri::invariants::place_invariants(&net);
    if report.invariants.is_empty() {
        writeln!(out, "no place invariants")?;
    }
    for inv in &report.invariants {
        let terms: Vec<String> = inv
            .support()
            .into_iter()
            .map(|i| {
                let w = inv.weights[i];
                let name = &net.places()[i].name;
                if w == 1 {
                    format!("#{name}")
                } else {
                    format!("{w}*#{name}")
                }
            })
            .collect();
        writeln!(
            out,
            "{} = {}",
            terms.join(" + "),
            inv.value(&net.initial_marking())
        )?;
    }
    if !report.skipped_transitions.is_empty() {
        let names: Vec<&str> = report
            .skipped_transitions
            .iter()
            .map(|&i| net.transitions()[i].name.as_str())
            .collect();
        writeln!(
            out,
            "note: transitions with marking-dependent arcs skipped: {}",
            names.join(", ")
        )?;
    }
    Ok(RunStatus::Success)
}

fn cmd_fmt(args: &[String], out: &mut dyn Write) -> Result<RunStatus> {
    let Some(path) = args.first() else {
        return Err(CliError {
            message: "fmt requires a model file".into(),
        });
    };
    let net = load_net(path)?;
    write!(out, "{}", nvp_petri::text::to_text(&net))?;
    Ok(RunStatus::Success)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String> {
        run_full(args).map(|(_, text)| text)
    }

    fn run_full(args: &[&str]) -> Result<(RunStatus, String)> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let status = run(&args, &mut buf)?;
        Ok((status, String::from_utf8(buf).expect("utf-8 output")))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("analyze"));
    }

    #[test]
    fn missing_and_unknown_commands_error() {
        assert!(run(&[], &mut Vec::new()).is_err());
        assert!(run_to_string(&["frobnicate"]).is_err());
    }

    #[test]
    fn analyze_defaults_reproduce_the_paper_numbers() {
        let text = run_to_string(&["analyze"]).unwrap();
        assert!(text.contains("E[R_sys] = 0.93817"), "{text}");
        let text = run_to_string(&["analyze", "--no-rejuvenation"]).unwrap();
        assert!(text.contains("N = 4"), "{text}");
        assert!(text.contains("E[R_sys] = 0.8223487"), "{text}");
    }

    #[test]
    fn analyze_flags_are_applied() {
        let text = run_to_string(&[
            "analyze",
            "--interval",
            "450",
            "--states",
            "3",
            "--sensitivities",
            "--no-matrix",
        ])
        .unwrap();
        assert!(text.contains("1/gamma = 450 s"));
        assert!(text.contains("sensitivity elasticities"));
        assert!(!text.contains("R (N = 6)"));
        assert!(run_to_string(&["analyze", "--alpha", "2.0"]).is_err());
        assert!(run_to_string(&["analyze", "--bogus"]).is_err());
        assert!(run_to_string(&["analyze", "--policy", "nonsense"]).is_err());
    }

    #[test]
    fn healthy_commands_report_success_status() {
        let (status, _) = run_full(&["analyze"]).unwrap();
        assert_eq!(status, RunStatus::Success);
        let (status, _) = run_full(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "2",
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
    }

    #[test]
    fn cache_dir_warm_analyze_is_byte_identical_and_counted() {
        let dir = std::env::temp_dir().join("nvp-cli-cache-warm");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_flag = dir.to_str().unwrap();

        let cold = run_to_string(&["analyze", "--cache-dir", dir_flag]).unwrap();
        let warm = run_to_string(&["analyze", "--cache-dir", dir_flag]).unwrap();
        assert_eq!(cold, warm, "warm store load must be byte-identical");
        let baseline = run_to_string(&["analyze"]).unwrap();
        assert_eq!(cold, baseline, "the store must not change the answer");

        let (status, text) = run_full(&["analyze", "--cache-dir", dir_flag, "--stats"]).unwrap();
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains("solve store"), "{text}");
        assert!(text.contains("1 hit(s)"), "{text}");
    }

    #[test]
    fn cache_subcommand_covers_stats_verify_and_clear() {
        let dir = std::env::temp_dir().join("nvp-cli-cache-subcommand");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_flag = dir.to_str().unwrap();

        let text = run_to_string(&["cache", "stats", "--cache-dir", dir_flag]).unwrap();
        assert!(text.contains("entries     : 0"), "{text}");

        run_to_string(&["analyze", "--cache-dir", dir_flag]).unwrap();
        let text = run_to_string(&["cache", "stats", "--cache-dir", dir_flag]).unwrap();
        assert!(text.contains("entries     : 1"), "{text}");

        let text = run_to_string(&["cache", "verify", "--cache-dir", dir_flag]).unwrap();
        assert!(text.contains("1 intact, 0 quarantined"), "{text}");

        let text = run_to_string(&["cache", "clear", "--cache-dir", dir_flag]).unwrap();
        assert!(text.contains("1 file(s) removed"), "{text}");
        let text = run_to_string(&["cache", "stats", "--cache-dir", dir_flag]).unwrap();
        assert!(text.contains("entries     : 0"), "{text}");
    }

    #[test]
    fn cache_subcommand_rejects_bad_invocations() {
        assert!(run_to_string(&["cache"]).is_err());
        assert!(run_to_string(&["cache", "defrag", "--cache-dir", "/tmp/x"]).is_err());
        assert!(run_to_string(&["cache", "stats", "--bogus"]).is_err());
    }

    #[test]
    fn budget_and_markings_flags_are_accepted() {
        // Generous limits must not change the headline number.
        let (status, text) = run_full(&[
            "analyze",
            "--budget-ms",
            "60000",
            "--max-markings",
            "100000",
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains("E[R_sys] = 0.93817"), "{text}");
        // An already-expired budget is a hard error (no silent fallback).
        assert!(run_to_string(&["analyze", "--budget-ms", "0"]).is_err());
        // Values must parse.
        assert!(run_to_string(&["analyze", "--budget-ms", "soon"]).is_err());
        assert!(run_to_string(&["sweep", "--max-markings", "-3"]).is_err());
    }

    #[test]
    fn analyze_stats_flag_appends_solver_statistics() {
        let text = run_to_string(&["analyze", "--stats"]).unwrap();
        assert!(text.contains("E[R_sys] = 0.93817"), "{text}");
        assert!(text.contains("solver statistics:"), "{text}");
        assert!(text.contains("chain cache"), "{text}");
        assert!(text.contains("uniformization depth"), "{text}");
        assert!(text.contains("49 subordinated chain(s)"), "{text}");
        // Without the flag the report stays stats-free.
        let text = run_to_string(&["analyze"]).unwrap();
        assert!(!text.contains("solver statistics:"), "{text}");
    }

    #[test]
    fn sweep_stats_flag_reports_chain_reuse() {
        // An alpha sweep is reward-only: 4 points, 1 chain solve.
        let text = run_to_string(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--steps", "4", "--stats",
        ])
        .unwrap();
        assert!(text.contains("solver statistics:"), "{text}");
        assert!(
            text.contains("1 solution(s) cached, 1 miss(es), 3 hit(s)"),
            "{text}"
        );
    }

    #[test]
    fn metrics_flag_appends_a_prometheus_dump() {
        let text = run_to_string(&["analyze", "--metrics"]).unwrap();
        assert!(text.contains("E[R_sys]"), "{text}");
        assert!(text.contains("metrics:"), "{text}");
        assert!(text.contains("nvp_cache_misses_total 1"), "{text}");
        assert!(text.contains("nvp_stage_solve_ns_count 1"), "{text}");
        assert!(text.contains("nvp_subordinated_chains_total 49"), "{text}");
        let (status, text) = run_full(&[
            "sweep",
            "--axis",
            "alpha",
            "--from",
            "0.1",
            "--to",
            "0.7",
            "--steps",
            "4",
            "--metrics",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains("nvp_cache_hits_total 3"), "{text}");
        assert!(text.contains("nvp_point_solve_ns_count 4"), "{text}");
        // Without the flag the output stays metrics-free.
        let text = run_to_string(&["analyze"]).unwrap();
        assert!(!text.contains("metrics:"), "{text}");
    }

    #[test]
    fn trace_flags_are_validated() {
        assert!(run_to_string(&["analyze", "--trace-out"]).is_err());
        let err = run_to_string(&["analyze", "--trace-format", "svg"]).unwrap_err();
        assert!(err.message.contains("jsonl | chrome"), "{}", err.message);
        let err = run_to_string(&[
            "sweep",
            "--axis",
            "alpha",
            "--from",
            "0.1",
            "--to",
            "0.5",
            "--steps",
            "2",
            "--trace-format",
            "svg",
        ])
        .unwrap_err();
        assert!(err.message.contains("jsonl | chrome"), "{}", err.message);
        // An unwritable trace path is a hard error, not a silent drop.
        let err = run_to_string(&[
            "analyze",
            "--trace-out",
            "/nonexistent-dir/trace.jsonl",
            "--quiet",
        ])
        .unwrap_err();
        assert!(
            err.message.contains("cannot write trace"),
            "{}",
            err.message
        );
    }

    #[test]
    fn sweep_emits_csv() {
        let text = run_to_string(&[
            "sweep", "--axis", "gamma", "--from", "300", "--to", "900", "--steps", "3",
        ])
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("expected_reliability"));
        assert!(lines[1].starts_with("300,"));
        assert!(lines[3].starts_with("900,"));
        assert!(run_to_string(&["sweep", "--axis", "gamma"]).is_err());
        assert!(run_to_string(&["sweep", "--axis", "warp", "--from", "1", "--to", "2"]).is_err());
    }

    #[test]
    fn sweep_rejects_degenerate_bounds() {
        for (from, to, needle) in [
            ("nan", "900", "must be finite"),
            ("300", "inf", "must be finite"),
            ("-inf", "900", "must be finite"),
            ("900", "300", "--from < --to"),
            ("300", "300", "--from < --to"),
        ] {
            let err = run_to_string(&[
                "sweep", "--axis", "gamma", "--from", from, "--to", to, "--steps", "3",
            ])
            .unwrap_err();
            assert!(
                err.message.contains(needle),
                "{from}..{to}: {}",
                err.message
            );
        }
    }

    #[test]
    fn sweep_steps_are_capped() {
        let over_cap = (nvp_core::request::MAX_SWEEP_STEPS + 1).to_string();
        for steps in [over_cap.as_str(), "100000000000", "18446744073709551615"] {
            let err = run_to_string(&[
                "sweep", "--axis", "alpha", "--from", "0", "--to", "1", "--steps", steps,
            ])
            .unwrap_err();
            assert!(
                err.message.contains("capped"),
                "steps {steps}: {}",
                err.message
            );
            assert!(
                err.message.contains("--steps"),
                "steps {steps}: {}",
                err.message
            );
        }
    }

    #[test]
    fn sweep_out_writes_csv_and_journal_and_resume_replays_them() {
        let dir = std::env::temp_dir().join("nvp-cli-test-sweep-out");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("sweep.csv");
        let csv = csv_path.to_str().unwrap();
        let base = [
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--steps", "3",
        ];
        let stdout_csv = run_to_string(&base).unwrap();
        let (status, text) = run_full(&[&base, &["--out", csv][..]].concat()).unwrap();
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains("3 points, 0 resumed"), "{text}");
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), stdout_csv);
        assert!(dir.join("sweep.csv.journal").exists());
        // Resuming against the complete journal recomputes nothing and
        // reproduces the CSV byte for byte.
        let (status, text) =
            run_full(&[&base, &["--out", csv, "--resume", "--stats"][..]].concat()).unwrap();
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains("3 resumed"), "{text}");
        assert!(text.contains("3 resume hit(s)"), "{text}");
        assert!(
            text.contains("0 miss(es)"),
            "a full resume must not solve anything: {text}"
        );
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), stdout_csv);
    }

    #[test]
    fn sweep_resume_rejects_a_journal_from_a_different_invocation() {
        let dir = std::env::temp_dir().join("nvp-cli-test-sweep-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sweep.csv");
        let csv = csv.to_str().unwrap();
        run_to_string(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--steps", "3", "--out",
            csv,
        ])
        .unwrap();
        // Same output file, different grid: the journal must be refused.
        let err = run_to_string(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--steps", "4", "--out",
            csv, "--resume",
        ])
        .unwrap_err();
        assert!(err.message.contains("does not match"), "{}", err.message);
        // Without --resume the stale journal is simply overwritten.
        let (status, _) = run_full(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--steps", "4", "--out",
            csv,
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
    }

    #[test]
    fn sweep_resume_and_supervision_flags_are_validated() {
        let err = run_to_string(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.7", "--resume",
        ])
        .unwrap_err();
        assert!(
            err.message.contains("--resume requires --out"),
            "{}",
            err.message
        );
        assert!(run_to_string(&[
            "sweep",
            "--axis",
            "alpha",
            "--from",
            "0.1",
            "--to",
            "0.7",
            "--retries",
            "soon",
        ])
        .is_err());
        // --retries and --point-deadline-ms are accepted on a healthy sweep.
        let (status, _) = run_full(&[
            "sweep",
            "--axis",
            "alpha",
            "--from",
            "0.1",
            "--to",
            "0.5",
            "--steps",
            "2",
            "--retries",
            "2",
            "--point-deadline-ms",
            "60000",
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
    }

    #[test]
    fn sweep_rejects_degenerate_step_counts() {
        for steps in ["0", "1"] {
            let err = run_to_string(&[
                "sweep", "--axis", "gamma", "--from", "300", "--to", "900", "--steps", steps,
            ])
            .unwrap_err();
            assert!(
                err.message.contains("--steps >= 2"),
                "steps {steps}: {}",
                err.message
            );
        }
    }

    #[test]
    fn sweep_jobs_flag_does_not_change_the_csv() {
        let base = &[
            "sweep", "--axis", "gamma", "--from", "300", "--to", "1500", "--steps", "5",
        ];
        let serial = run_to_string(&[base, &["--jobs", "1"][..]].concat()).unwrap();
        let parallel = run_to_string(&[base, &["--jobs", "4"][..]].concat()).unwrap();
        assert_eq!(serial, parallel);
        let lines: Vec<&str> = serial.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].starts_with("300,"));
        assert!(lines[5].starts_with("1500,"));
    }

    #[test]
    fn jobs_flag_rejects_bad_values() {
        for bad in ["0", "fast", "-2", "257", "100000"] {
            let err = run_to_string(&["analyze", "--jobs", bad]).unwrap_err();
            assert!(err.message.contains("--jobs"), "{bad}: {}", err.message);
            assert!(err.message.contains("256"), "{bad}: {}", err.message);
        }
        // `auto` and explicit counts are accepted on both commands.
        run_to_string(&["analyze", "--jobs", "auto"]).unwrap();
        let (status, _) = run_full(&[
            "sweep", "--axis", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "2", "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(status, RunStatus::Success);
    }

    fn write_model(dir: &std::path::Path) -> std::path::PathBuf {
        let path = dir.join("updown.dspn");
        std::fs::write(
            &path,
            "net updown\nplace Up 1\nplace Down 0\n\
             transition fail exponential rate = 0.25\n  input Up\n  output Down\n\
             transition repair exponential rate = 1.0\n  input Down\n  output Up\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn solve_model_file_with_reward() {
        let dir = std::env::temp_dir().join("nvp-cli-test-solve");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_model(&dir);
        let text = run_to_string(&["solve", path.to_str().unwrap(), "--reward", "#Up"]).unwrap();
        assert!(text.contains("2 tangible markings"));
        // pi(Up) = 1 / 1.25 = 0.8.
        assert!(
            text.contains("expected reward of `#Up`: 0.800000"),
            "{text}"
        );
        assert!(run_to_string(&["solve", "/nonexistent/file.dspn"]).is_err());
    }

    #[test]
    fn simulate_model_file() {
        let dir = std::env::temp_dir().join("nvp-cli-test-sim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_model(&dir);
        let text = run_to_string(&[
            "simulate",
            path.to_str().unwrap(),
            "--reward",
            "#Up",
            "--horizon",
            "200000",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(text.contains("simulated expected reward"));
        // Parse the estimate back out and check it is near 0.8.
        let mean: f64 = text
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((mean - 0.8).abs() < 0.02, "{mean}");
        assert!(run_to_string(&["simulate", path.to_str().unwrap()]).is_err());
    }

    #[test]
    fn invariants_and_fmt_commands() {
        let dir = std::env::temp_dir().join("nvp-cli-test-inv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_model(&dir);
        let text = run_to_string(&["invariants", path.to_str().unwrap()]).unwrap();
        assert!(text.contains("#Up + #Down = 1"), "{text}");
        let text = run_to_string(&["fmt", path.to_str().unwrap()]).unwrap();
        assert!(text.starts_with("net updown"));
        // The normalized form must itself parse.
        let reparsed = nvp_petri::text::parse_net(&text).unwrap();
        assert_eq!(reparsed.places().len(), 2);
        assert!(run_to_string(&["invariants"]).is_err());
        assert!(run_to_string(&["fmt", "/no/such/file"]).is_err());
    }

    #[test]
    fn dot_renders_net_and_reach() {
        let dir = std::env::temp_dir().join("nvp-cli-test-dot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_model(&dir);
        let text = run_to_string(&["dot", path.to_str().unwrap()]).unwrap();
        assert!(text.starts_with("digraph"));
        assert!(text.contains("exp(0.25)"));
        let text = run_to_string(&["dot", path.to_str().unwrap(), "--reach"]).unwrap();
        assert!(text.contains("(1, 0)"));
    }
}
