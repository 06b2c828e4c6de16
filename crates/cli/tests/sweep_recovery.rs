//! Chaos test for the crash-safe sweep pipeline: a `nvp sweep` process is
//! killed mid-run (SIGKILL — no destructors, no flushing beyond what the
//! journal already fsync'd) and a `--resume` run must reproduce, byte for
//! byte, the CSV an uninterrupted run produces, recomputing only the grid
//! points the killed run had not journaled.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn nvp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nvp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvp-sweep-recovery-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sweep under test: a gamma sweep re-solves the chain at every grid
/// point (the rejuvenation interval changes the model), so each point costs
/// a full solve and the kill window is wide.
const STEPS: usize = 60;

fn sweep_args(out: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "sweep", "--axis", "gamma", "--from", "300", "--to", "1500", "--steps", "60", "--jobs",
        "2", "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(out.to_str().unwrap().to_string());
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Counts complete journaled point lines (header excluded).
fn journal_points(journal: &Path) -> usize {
    std::fs::read(journal).map_or(0, |bytes| {
        let text = String::from_utf8_lossy(&bytes);
        text.split_inclusive('\n')
            .filter(|l| l.starts_with("p ") && l.ends_with('\n'))
            .count()
    })
}

#[test]
fn a_killed_sweep_resumes_to_a_byte_identical_csv() {
    let dir = temp_dir("kill");

    // Reference: the same sweep, uninterrupted.
    let reference = dir.join("reference.csv");
    let status = nvp()
        .args(sweep_args(&reference, &[]))
        .status()
        .expect("spawn reference sweep");
    assert!(status.success(), "{status:?}");
    let expected = std::fs::read(&reference).unwrap();

    // Chaos: kill the sweep once it has journaled some — but not all — of
    // its grid points. SIGKILL, so nothing gets to clean up.
    let out = dir.join("sweep.csv");
    let journal = dir.join("sweep.csv.journal");
    let mut child = nvp()
        .args(sweep_args(&out, &[]))
        .spawn()
        .expect("spawn chaos sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    let killed = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            // The child outran the watcher; it must at least have succeeded.
            assert!(status.success(), "{status:?}");
            break false;
        }
        let done = journal_points(&journal);
        if (1..STEPS).contains(&done) {
            child.kill().expect("SIGKILL the sweep");
            child.wait().expect("reap the sweep");
            break true;
        }
        assert!(
            Instant::now() < deadline,
            "no journal progress within 120 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    };

    if killed {
        // The kill must have landed mid-run: a partial journal, and the CSV
        // not yet written (it is only renamed into place after the sweep).
        let done = journal_points(&journal);
        assert!(done >= 1, "kill landed before the first checkpoint");
        assert!(
            !out.exists(),
            "CSV must not exist before the sweep finishes"
        );
    }

    // Recovery: resume must succeed, replay every journaled point, and
    // produce exactly the reference CSV.
    let resumed = nvp()
        .args(sweep_args(&out, &["--resume"]))
        .output()
        .expect("spawn resume sweep");
    assert!(resumed.status.success(), "{resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    if killed {
        let resumed_points: usize = stdout
            .split(" resumed from journal")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .and_then(|n| n.trim_start_matches('(').parse().ok())
            .unwrap_or_else(|| panic!("unparsable resume summary: {stdout}"));
        assert!(
            (1..STEPS).contains(&resumed_points),
            "expected a partial resume, got {resumed_points}: {stdout}"
        );
    }
    assert_eq!(
        std::fs::read(&out).unwrap(),
        expected,
        "resumed CSV differs from the uninterrupted run"
    );

    // Idempotence: resuming a *complete* journal recomputes nothing.
    let rerun = nvp()
        .args(sweep_args(&out, &["--resume", "--stats"]))
        .output()
        .expect("spawn zero-solve resume");
    assert!(rerun.status.success(), "{rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains(&format!("({STEPS} points, {STEPS} resumed from journal)")),
        "{stdout}"
    );
    assert!(
        stdout.contains("0 miss(es)"),
        "zero solves expected: {stdout}"
    );
    assert!(
        stdout.contains(&format!("{STEPS} resume hit(s)")),
        "{stdout}"
    );
    assert_eq!(std::fs::read(&out).unwrap(), expected);
}

#[cfg(feature = "fault-inject")]
#[test]
fn an_injected_panic_degrades_one_point_and_exits_two() {
    let dir = temp_dir("panic");
    let out = dir.join("sweep.csv");
    // One armed panic in the first dense stationary solve: that single grid
    // point falls back to the alternate backend; the sweep completes with
    // every point present and the process reports "degraded", not a crash.
    let output = nvp()
        .args(sweep_args(&out, &["--stats", "--jobs", "1"]))
        .env("NVP_FAULT_INJECT", "panic@dense:0:1")
        .output()
        .expect("spawn faulted sweep");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 worker panic(s)"), "{stdout}");
    let csv = std::fs::read_to_string(&out).unwrap();
    assert_eq!(csv.lines().count(), STEPS + 1, "header plus every point");
    for line in csv.lines().skip(1) {
        let value: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!(value.is_finite() && (0.0..=1.0).contains(&value), "{line}");
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn a_stalled_point_is_cancelled_at_its_deadline() {
    let dir = temp_dir("stall");
    let out = dir.join("sweep.csv");
    // Every subordinated transient stalls 50 ms against a 10 ms deadline:
    // the budget check after the stall cancels the point, the retry stalls
    // out identically, and the sweep fails with the supervisor's typed
    // error — exit 1, not a hang and not a panic.
    let output = nvp()
        .args([
            "sweep",
            "--axis",
            "alpha",
            "--from",
            "0.1",
            "--to",
            "0.5",
            "--steps",
            "2",
            "--jobs",
            "1",
            "--point-deadline-ms",
            "10",
            "--out",
            out.to_str().unwrap(),
        ])
        .env("NVP_FAULT_INJECT", "stall@transient")
        .output()
        .expect("spawn stalled sweep");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cancelled by supervisor"), "{stderr}");
    // The journal survives for a later (healthy) resume.
    assert!(dir.join("sweep.csv.journal").exists());
}
