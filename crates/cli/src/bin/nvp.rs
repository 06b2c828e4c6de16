//! The `nvp` command-line tool. All logic lives in `nvp_cli::run`.
//!
//! Exit codes: 0 = success, 1 = hard failure, 2 = answered but degraded
//! (a fallback produced the result; a WARNING is printed alongside it),
//! 75 = `nvp serve` drained for an `exit`-mode rejuvenation and wants to
//! be restarted by its supervisor loop.

use nvp_cli::RunStatus;
use std::process::ExitCode;

/// Exit code for runs that completed via a fallback path.
const DEGRADED: u8 = 2;

/// Exit code (`EX_TEMPFAIL`) for a completed `exit`-mode rejuvenation
/// drain: `until nvp serve ...; do :; done` restarts on it, while a clean
/// SIGTERM stop exits 0 and ends the loop.
const REJUVENATE: u8 = 75;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match nvp_cli::run(&args, &mut out) {
        Ok(RunStatus::Success) => ExitCode::SUCCESS,
        Ok(RunStatus::Degraded) => ExitCode::from(DEGRADED),
        Ok(RunStatus::Rejuvenate) => ExitCode::from(REJUVENATE),
        Err(e) => {
            // Through the shared sink so the message lands on its own line
            // even if a progress line is mid-paint.
            nvp_obs::sink::error(&format!("nvp: {e}"));
            ExitCode::FAILURE
        }
    }
}
