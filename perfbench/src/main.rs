//! The repository benchmark: end-to-end and per-layer timings of the nvp
//! workspace, with the answers checked in the same run.
//!
//! ```text
//! nvp-perfbench --workload cold_nscale|design_sweep|serve_mixed
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run goes through the same three phases, so every run reports every
//! metric:
//!
//! * **cold** — a fresh engine per `analyze` over the paper's six-version
//!   family at N = 6, 12, 20, 30 (jobs = nproc) and N = 20 at jobs 1;
//! * **design** — a cold N=12 γ sweep that fills a store, the same grid on a
//!   fresh engine over that store, then a 1000-point α sweep on the
//!   memory-warm engine;
//! * **serve** — an in-process `nvp serve` with a bounded, store-backed
//!   engine and two closed-loop keep-alive clients submitting a seeded,
//!   Zipf-skewed mix of analyze and α-sweep jobs.
//!
//! The run repeats rounds that interleave the three phases, as many as
//! `--seconds` holds. Each round runs the heavy tasks (the cold γ sweep, and
//! cold analyzes at N=30, N=20 and N=20 on one worker), each group followed
//! by the light tasks (a client slice, the store-warm and α sweeps, cold
//! analyzes at N=6 and N=12); the workload names the phase whose light
//! tasks run twice. Heavy tasks are the same for every workload: they
//! decide how many samples of each metric fit into one run, and the
//! machine's speed drifts by tens of percent over seconds to minutes, so
//! every metric needs several samples spread across the run.
//!
//! With `--trace 0` the last stdout line carries the bounded end-to-end
//! metrics (set-up, peak memory, HTTP job latency and rate); with
//! `--trace 1` it carries the per-layer metrics: the CPU-bound whole-
//! operation timings (cold analyzes, sweep rates), which drift too much
//! between runs on a shared machine to bound, public functions timed from
//! outside on the workload's inputs, and self times from the spans the
//! program already emits, read from a separate traced pass and validated
//! with `nvp_obs::schema` first. Every answer is checked (reference
//! E[R_sys] bits, store-warm CSV = cold CSV, HTTP result = in-process
//! result); a mismatch counts in `failed` and makes the run exit non-zero.
//!
//! Which layer each per-layer metric belongs to, and which end-to-end metric
//! it should move, is listed in `perfbench/METRICS.md`.

mod cold;
mod design;
mod http;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::Samples;

/// The phase whose light tasks run twice per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdNscale,
    DesignSweep,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_nscale" => Some(Workload::ColdNscale),
            "design_sweep" => Some(Workload::DesignSweep),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

/// Repetitions of the workload's own light tasks between two heavy tasks;
/// the other phases' light tasks run once.
const EMPHASIS: usize = 2;

/// Nominal length of one round on a 2-core Xeon; `--seconds` sets the
/// round count through it.
const ROUND_SECONDS: f64 = 9.0;

/// A run stops after the round that takes it past this multiple of
/// `--seconds`, so a slow machine cannot stretch it without limit.
const OVERRUN: f64 = 1.25;

/// The measured figures of one run and the outcome of its answer checks.
#[derive(Default)]
pub struct Report {
    end_to_end: BTreeMap<String, (f64, &'static str, usize)>,
    per_layer: BTreeMap<String, (f64, &'static str, usize)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// An end-to-end metric with the number of samples behind it.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, count: usize) {
        self.end_to_end
            .insert(name.to_owned(), (value, unit, count));
    }

    /// A per-layer metric with the number of samples behind it.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, count: usize) {
        self.per_layer.insert(name.to_owned(), (value, unit, count));
    }

    /// The median of `samples` as a per-layer metric.
    pub fn layer_median(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.layer(name, samples.median(), unit, samples.len());
    }

    /// Records one checked operation; `Err` is a wrong or missing answer.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failures.push(message);
        }
    }
}

/// Everything a phase needs to know about the run.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory inside the working directory, removed at exit.
    pub work_dir: PathBuf,
}

impl Run {
    /// Repetitions of `phase`'s light tasks between two heavy tasks.
    pub fn units(&self, phase: Workload) -> usize {
        if phase == self.workload {
            EMPHASIS
        } else {
            1
        }
    }
}

/// Wall time of `f` in seconds, with its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nvp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The daemon logs every request to stderr unless quiet.
    nvp_obs::sink::set_quiet(true);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        work_dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    let outcome = execute(&run);
    let _ = std::fs::remove_dir_all(&run.work_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nvp-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_environment(&run);
    let metrics = if run.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for (name, (value, unit, count)) in metrics {
        println!("{name:<40} {value:>16.6} {unit:<8} (n={count})");
    }
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some((name, _)) = metrics.iter().find(|(_, (v, _, _))| !v.is_finite()) {
        eprintln!("nvp-perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    let correct = report.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit, _))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failures.len(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up, then a fixed number of rounds of all three phases, then (traced
/// runs) a traced unit of each phase and the per-layer probes.
///
/// A round runs the heavy tasks (the cold γ sweep, cold analyzes at N=30,
/// N=20 twice, N=20 on one worker twice), each group followed by the light
/// tasks, so every metric samples the whole run rather than one stretch of
/// it. The round count follows from `--seconds` alone, so every run does
/// the same work; a run on a slow machine stops early only past
/// [`OVERRUN`] times its budget. The server stays bound throughout, so its
/// always-on flight recorder captures spans in every phase, as it does in
/// `nvp serve`.
fn execute(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    // `setup_s` is the median of the set-up before the rounds and a repeat
    // after each round, so its samples, like every other metric's, spread
    // over the run.
    let mut setup = Samples::default();
    let (fixture, secs) = timed(|| serve::prepare(run, &run.work_dir.join("serve-store")));
    setup.push(secs);
    let fixture = fixture?;

    let mut cold = cold::Cold::default();
    let mut design = design::Design::new(run);
    let mut serve = serve::Harness::start(run, &fixture)?;
    let start = Instant::now();
    let rounds = (run.seconds / ROUND_SECONDS).round().max(1.0) as usize;
    for _ in 0..rounds {
        design.cold(run, &mut report)?;
        light_tasks(run, &mut cold, &mut design, &mut serve, &mut report)?;
        for group in [
            [cold::N30].as_slice(),
            &[cold::N20; 2],
            &[cold::N20_JOBS1; 2],
        ] {
            for &point in group {
                cold.analyze(point, run, &mut report);
            }
            light_tasks(run, &mut cold, &mut design, &mut serve, &mut report)?;
        }
        let (repeat, secs) = timed(|| serve::prepare(run, &run.work_dir.join("setup-repeat")));
        repeat?;
        setup.push(secs);
        if start.elapsed().as_secs_f64() > OVERRUN * run.seconds {
            break;
        }
    }
    report.e2e("setup_s", setup.median(), "s", setup.len());
    cold.finish(&mut report);
    design.finish(&mut report);
    if run.trace {
        cold.traced(run, &mut report)?;
        design.traced(run, &mut report)?;
        layers::run(run, &mut report)?;
        serve.traced(run, &mut report)?;
    }
    serve.stop(&mut report);
    report.e2e("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    Ok(report)
}

/// The cheap tasks run between two heavy ones: a client slice, the
/// store-warm and α sweeps, and the small cold analyzes.
fn light_tasks(
    run: &Run,
    cold: &mut cold::Cold,
    design: &mut design::Design,
    serve: &mut serve::Harness<'_>,
    report: &mut Report,
) -> Result<(), String> {
    serve.slice(run.units(Workload::ServeMixed), report);
    for _ in 0..run.units(Workload::DesignSweep) {
        design.store_warm(run, report)?;
        design.reward(run, report)?;
    }
    for _ in 0..run.units(Workload::ColdNscale) {
        cold.analyze(cold::N6, run, report);
        cold.analyze(cold::N6, run, report);
        cold.analyze(cold::N12, run, report);
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// One line naming what the figures were measured on.
fn print_environment(run: &Run) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_owned());
    println!(
        "env: workload={:?} seed={} seconds={} trace={} nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" \
         commit={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc,
        git_commit()
    );
}

/// The checked-out commit, read from `.git` when there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |c| c.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}
