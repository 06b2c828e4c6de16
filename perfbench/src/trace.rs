//! Reading the spans the program already emits.
//!
//! A traced section runs between `nvp_obs::trace::start_recording` and
//! `stop_recording`, with no request or solve in flight at either edge, so
//! every recorded parent and link resolves. The drained records are
//! validated with the program's own schema checker before any self time is
//! derived from them.

use std::collections::HashMap;

use nvp_obs::schema;
use nvp_obs::trace::{self, SpanRecord, TraceRecord};

use crate::stats::Samples;

/// Runs `work` with span recording on and returns its output with the
/// drained records.
pub fn record<T>(work: impl FnOnce() -> T) -> (T, Vec<TraceRecord>) {
    trace::start_recording();
    let out = work();
    (out, trace::stop_recording())
}

/// The spans of one validated recording, with each span's self time: its
/// duration minus the part its same-thread children cover.
pub struct Spans {
    spans: Vec<SpanRecord>,
    self_ns: HashMap<u64, u64>,
}

impl Spans {
    /// Validates `records` as a JSONL trace (`check_jsonl`) and checks that
    /// every `job.run` links to an `http.request`, then indexes the spans.
    pub fn validated(records: Vec<TraceRecord>) -> Result<Spans, String> {
        let mut jsonl = Vec::new();
        trace::write_jsonl(&records, &mut jsonl).map_err(|e| format!("trace export: {e}"))?;
        let text = String::from_utf8(jsonl).map_err(|_| "trace export is not UTF-8".to_owned())?;
        let summary = schema::check_jsonl(&text).map_err(|e| format!("trace schema: {e}"))?;
        schema::check_link_rule(&summary, "job.run", "http.request")
            .map_err(|e| format!("trace link rule: {e}"))?;
        let spans: Vec<SpanRecord> = records
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                TraceRecord::Event(_) => None,
            })
            .collect();
        let mut self_ns: HashMap<u64, u64> = spans
            .iter()
            .map(|s| (s.id, s.end_ns - s.start_ns))
            .collect();
        for span in &spans {
            if let Some(parent) = span.parent.and_then(|p| self_ns.get_mut(&p)) {
                *parent = parent.saturating_sub(span.end_ns - span.start_ns);
            }
        }
        Ok(Spans { spans, self_ns })
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed self time of every span called `name`, in milliseconds,
    /// across all threads.
    pub fn self_total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_ns[&s.id]).sum::<u64>() as f64 / 1e6
    }

    /// Self time of each span called `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.named(name) {
            out.push(self.self_ns[&s.id] as f64 / 1e3);
        }
        out
    }

    /// Duration of each span called `name`, in milliseconds.
    pub fn duration_ms(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.named(name) {
            out.push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// Per job: start of `job.run` minus end of the `http.request` that
    /// submitted it, in milliseconds. Negative when the job thread started
    /// before the submitting request finished writing its reply.
    pub fn queue_wait_ms(&self) -> Samples {
        let ends: HashMap<u64, u64> = self
            .named("http.request")
            .map(|s| (s.id, s.end_ns))
            .collect();
        let mut out = Samples::default();
        for job in self.named("job.run") {
            if let Some(&end) = job.link.and_then(|l| ends.get(&l)) {
                out.push((job.start_ns as f64 - end as f64) / 1e6);
            }
        }
        out
    }
}
