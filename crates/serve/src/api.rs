//! Request/response bodies of the `nvp serve` JSON API.
//!
//! Request bodies parse into the [`nvp_core::request`] model that
//! `nvp analyze` and `nvp sweep` share, so a JSON key and the flag of the
//! same name always mean the same thing. Parsing is *strict*: unknown keys,
//! wrong types, and out-of-range values are errors, not silently-ignored
//! noise — on a network ingress a typo'd `"stepz"` must fail loudly rather
//! than run a 10-point default sweep. Responses are built as [`Json`]
//! values and serialized with [`Json::emit`], so everything the daemon
//! sends parses with the same hardened parser it reads with.

use nvp_core::analysis::AnalysisReport;
use nvp_core::jobs::{JobOutcome, JobSnapshot, JobStatus};
use nvp_obs::json::Json;

pub use nvp_core::request::sweep_csv;

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// `202` body for a freshly submitted job.
pub fn job_accepted(id: u64) -> Json {
    obj(vec![
        ("job", Json::Num(id as f64)),
        ("status", Json::Str("queued".to_owned())),
        ("poll", Json::Str(format!("/v1/jobs/{id}"))),
        ("progress", Json::Str(format!("/v1/jobs/{id}/progress"))),
    ])
}

/// The degraded-result block shared by analyze results and the CLI's
/// WARNING line: same classification, same half-width, but carried in the
/// body — a degraded service answer is `200`, never an error status.
fn degraded_block(report: &AnalysisReport) -> (Json, Json) {
    match &report.degraded {
        Some(d) => (
            obj(vec![
                ("method", Json::Str(d.method.to_string())),
                ("reason", Json::Str(d.reason.clone())),
                (
                    "reliability_half_width",
                    Json::Num(d.reliability_half_width),
                ),
            ]),
            Json::Str(format!(
                "WARNING: degraded result ({}): {}",
                d.method, d.reason
            )),
        ),
        None => (Json::Null, Json::Null),
    }
}

/// `GET /v1/jobs/{id}` body.
pub fn job_status(snapshot: &JobSnapshot) -> Json {
    let mut members = vec![
        ("job", Json::Num(snapshot.id as f64)),
        ("kind", Json::Str(snapshot.kind.label().to_owned())),
        ("status", Json::Str(snapshot.status.label().to_owned())),
        ("total_points", Json::Num(snapshot.total_points as f64)),
        (
            "completed_points",
            Json::Num(snapshot.completed_points as f64),
        ),
    ];
    match (&snapshot.outcome, &snapshot.error) {
        (Some(outcome), _) => match outcome.as_ref() {
            JobOutcome::Analyze(report) => {
                let (degraded, warning) = degraded_block(report);
                members.push((
                    "result",
                    obj(vec![
                        (
                            "expected_reliability",
                            Json::Num(report.expected_reliability),
                        ),
                        ("states", Json::Num(report.states.len() as f64)),
                        ("degraded", degraded),
                        ("warning", warning),
                    ]),
                ));
            }
            JobOutcome::Sweep {
                points,
                csv,
                degraded_points,
            } => {
                let pairs = points
                    .iter()
                    .map(|&(x, r)| Json::Arr(vec![Json::Num(x), Json::Num(r)]))
                    .collect();
                let warning = if *degraded_points > 0 {
                    Json::Str(format!(
                        "WARNING: {degraded_points} of {} points are degraded results",
                        points.len()
                    ))
                } else {
                    Json::Null
                };
                members.push((
                    "result",
                    obj(vec![
                        ("points", Json::Arr(pairs)),
                        ("csv", Json::Str(csv.clone())),
                        ("degraded_points", Json::Num(*degraded_points as f64)),
                        ("warning", warning),
                    ]),
                ));
            }
        },
        (None, Some(error)) => members.push(("error", Json::Str(error.clone()))),
        (None, None) => {}
    }
    obj(members)
}

/// `GET /v1/jobs/{id}/progress` body: journal records from `since` on.
pub fn job_progress(
    id: u64,
    status: JobStatus,
    total: usize,
    since: usize,
    records: &[nvp_core::engine::SweepPointRecord],
) -> Json {
    let points = records
        .iter()
        .map(|r| {
            obj(vec![
                ("index", Json::Num(r.index as f64)),
                ("x", Json::Num(r.x)),
                ("value", Json::Num(r.value)),
                ("degraded", Json::Bool(r.degraded)),
            ])
        })
        .collect();
    obj(vec![
        ("job", Json::Num(id as f64)),
        ("status", Json::Str(status.label().to_owned())),
        ("total_points", Json::Num(total as f64)),
        ("from", Json::Num(since as f64)),
        ("points", Json::Arr(points)),
    ])
}

/// A `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    obj(vec![("error", Json::Str(message.to_owned()))]).emit()
}
