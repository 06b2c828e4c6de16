//! Process-level exit-code contract of the `nvp` binary.
//!
//! Exit codes: 0 = success, 1 = hard failure, 2 = answered but degraded.
//! The degraded path is exercised by arming the fault-injection harness via
//! the `NVP_FAULT_INJECT` environment variable (feature `fault-inject`).

use std::process::Command;

fn nvp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nvp"))
}

#[test]
fn success_exits_zero() {
    let output = nvp().arg("help").output().expect("spawn nvp");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn hard_failure_exits_one() {
    for args in [
        // alpha outside [0, 1] is rejected by parameter validation.
        "analyze --alpha 2.0",
        // A grid this size once reached the allocator and aborted.
        "sweep --axis alpha --from 0 --to 1 --steps 100000000000",
    ] {
        let output = nvp().args(args.split(' ')).output().expect("spawn nvp");
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        assert!(!String::from_utf8_lossy(&output.stderr).is_empty());
    }
}

/// Large no-rejuvenation models (630 and 861 markings, above the dense
/// limit) are exponential-only nets, solved through their embedded jump
/// chain: an exact answer, with no fallback.
#[test]
fn large_no_rejuvenation_models_solve_exactly() {
    for n in ["34", "40"] {
        let output = nvp()
            .args(["analyze", "--no-rejuvenation", "--n", n, "--f", "1"])
            .output()
            .expect("spawn nvp");
        assert_eq!(output.status.code(), Some(0), "N = {n}: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stdout.contains("E[R_sys]"), "N = {n}: {stdout}");
        assert!(
            !stdout.contains("WARNING") && !stderr.contains("WARNING"),
            "N = {n}: {stdout}{stderr}"
        );
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn degraded_analysis_exits_two_with_warning() {
    let output = nvp()
        .args(["analyze", "--stats"])
        .env("NVP_FAULT_INJECT", "noconverge@any")
        .output()
        .expect("spawn nvp");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("WARNING: degraded result"), "{stdout}");
    assert!(stdout.contains("monte-carlo fallback"), "{stdout}");
    assert!(stdout.contains("resilience"), "{stdout}");
    // The report still carries a headline number.
    assert!(stdout.contains("E[R_sys]"), "{stdout}");
}

#[cfg(feature = "fault-inject")]
#[test]
fn no_env_armed_fault_mode_crashes_the_binary() {
    // `panic` exercises the catch_unwind supervision layer end to end:
    // even a panic armed at every site must surface as a typed error or a
    // degraded answer, never as an abort. `stall` is bounded to one armed
    // hit so the un-deadlined analyze finishes promptly.
    for mode in ["noconverge", "nan", "exhaust", "panic", "stall"] {
        for site in ["dense", "power", "transient", "any"] {
            let window = if mode == "stall" { ":0:1" } else { "" };
            let output = nvp()
                .arg("analyze")
                .env("NVP_FAULT_INJECT", format!("{mode}@{site}{window}"))
                .output()
                .expect("spawn nvp");
            // 0 (fault site not exercised, a healthy answer), 1 (typed
            // error), or 2 (degraded, with a warning) — anything else
            // (signal, 101 panic) is a bug, and so is a degraded answer
            // without its WARNING.
            let stdout = String::from_utf8_lossy(&output.stdout);
            match output.status.code() {
                Some(0) => assert!(stdout.contains("E[R_sys]"), "{mode}@{site}: {stdout}"),
                Some(1) => {}
                Some(2) => assert!(stdout.contains("WARNING"), "{mode}@{site}: {stdout}"),
                _ => panic!("{mode}@{site}: {output:?}"),
            }
        }
    }
    // A malformed plan is a hard failure naming the variable, not a run
    // that silently injects nothing.
    let output = nvp()
        .arg("analyze")
        .env("NVP_FAULT_INJECT", "panic@dnse")
        .output()
        .expect("spawn nvp");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("NVP_FAULT_INJECT"), "{stderr}");
}
