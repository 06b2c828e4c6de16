//! In-process end-to-end tests: a real daemon on an ephemeral port, driven
//! by raw `TcpStream` clients.
//!
//! Every test binds its own [`Server`] around its own engine, so tests are
//! independent except for the process-wide worker pool — submissions are
//! serialized behind [`submit_lock`] so the admission-control test can
//! starve the pool deterministically without 429-ing its neighbours.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use nvp_core::analysis::{ParamAxis, SolverBackend};
use nvp_core::engine::AnalysisEngine;
use nvp_core::params::SystemParams;
use nvp_core::reliability::ReliabilitySource;
use nvp_core::reward::RewardPolicy;
use nvp_numerics::pool::WorkerPool;
use nvp_obs::json::Json;
use nvp_serve::{RejuvenationPolicy, ServeConfig, Server};
use nvp_store::SolveStore;

/// Global submission lock: tests that POST jobs (and the test that starves
/// the pool) hold this so admission behavior stays deterministic.
fn submit_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct TestServer {
    server: Server,
    addr: SocketAddr,
}

impl TestServer {
    fn start(engine: AnalysisEngine, config: ServeConfig) -> TestServer {
        let server = Server::bind(Arc::new(engine), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        let runner = server.clone();
        std::thread::spawn(move || runner.run().unwrap());
        TestServer { server, addr }
    }

    fn default_start() -> TestServer {
        Self::start(AnalysisEngine::new(), ServeConfig::default())
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

struct Reply {
    status: u16,
    head: String,
    body: String,
}

impl Reply {
    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("unparseable body ({e}): {}", self.body))
    }
}

/// One request on its own connection (`Connection: close`), read to EOF.
///
/// Writes and reads are failure-tolerant up to a point: a server that
/// rejects an oversized body closes the connection before the client has
/// finished writing it, which surfaces here as `EPIPE` on write and
/// possibly `ECONNRESET` after the response bytes have arrived.
fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    if let Some(body) = body {
        raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    } else {
        raw.push_str("\r\n");
    }
    let _ = stream.write_all(raw.as_bytes());
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) if !bytes.is_empty() => break,
            Err(e) => panic!("read failed with no response bytes: {e}"),
        }
    }
    parse_reply(&String::from_utf8(bytes).unwrap())
}

fn parse_reply(text: &str) -> Reply {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    Reply {
        status,
        head: head.to_owned(),
        body: body.to_owned(),
    }
}

/// Submit a job, honoring the admission-control contract: a `429` means
/// "retry after the indicated delay", which on a single-permit host is the
/// normal answer while another job holds the pool, and a `503` means the
/// daemon is draining for rejuvenation and will admit again shortly.
fn submit(addr: SocketAddr, endpoint: &str, body: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = roundtrip(addr, "POST", endpoint, Some(body));
        if (reply.status == 429 || reply.status == 503) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
        return reply.json().get("job").unwrap().as_u64().unwrap();
    }
}

/// Poll a job until it reaches a terminal state.
fn await_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = roundtrip(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = reply.json();
        let status = doc.get("status").unwrap().as_str().unwrap().to_owned();
        if status == "done" || status == "failed" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

const SWEEP_BODY: &str = r#"{"axis":"alpha","from":0.1,"to":0.9,"steps":4}"#;

#[test]
fn analyze_job_matches_direct_engine_result() {
    let ts = TestServer::default_start();
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/analyze", "{}")
    };
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("analyze"));
    let got = doc
        .get("result")
        .unwrap()
        .get("expected_reliability")
        .unwrap()
        .as_f64()
        .unwrap();
    let reference = AnalysisEngine::new()
        .analyze(
            &SystemParams::paper_six_version(),
            RewardPolicy::FailedOnly,
            ReliabilitySource::Auto,
            SolverBackend::Auto,
        )
        .unwrap()
        .expected_reliability;
    // f64 Display round-trips exactly, so the service answer is the CLI
    // answer to the last bit.
    assert_eq!(got, reference);
}

#[test]
fn concurrent_sweep_clients_get_byte_identical_csv() {
    let ts = TestServer::default_start();
    let ids: Vec<u64> = {
        let _guard = submit_lock();
        (0..3)
            .map(|_| submit(ts.addr, "/v1/sweep", SWEEP_BODY))
            .collect()
    };
    let csvs: Vec<String> = ids
        .iter()
        .map(|&id| {
            let doc = await_job(ts.addr, id);
            assert_eq!(
                doc.get("status").unwrap().as_str(),
                Some("done"),
                "job {id}"
            );
            doc.get("result")
                .unwrap()
                .get("csv")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(csvs[0], csvs[1]);
    assert_eq!(csvs[1], csvs[2]);
    // Byte-identical to the CLI path: same grid, same engine API, same
    // formatting.
    let engine = AnalysisEngine::new();
    let mut reference = format!("{},expected_reliability\n", ParamAxis::Alpha.label());
    for x in nvp_core::analysis::linspace(0.1, 0.9, 4) {
        let params = ParamAxis::Alpha.apply(&SystemParams::paper_six_version(), x);
        let r = engine
            .expected_reliability(&params, RewardPolicy::FailedOnly, SolverBackend::Auto)
            .unwrap();
        reference.push_str(&format!("{x},{r}\n"));
    }
    assert_eq!(csvs[0], reference);
    // The shared engine answered at least the repeat jobs from cache.
    let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
    let hits = health
        .get("engine")
        .unwrap()
        .get("cache_hits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(hits >= 1, "expected warm-cache hits, got {hits}");
}

#[test]
fn progress_endpoint_streams_the_point_journal() {
    let ts = TestServer::default_start();
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/sweep", SWEEP_BODY)
    };
    await_job(ts.addr, id);
    let doc = roundtrip(ts.addr, "GET", &format!("/v1/jobs/{id}/progress"), None).json();
    let Json::Arr(points) = doc.get("points").unwrap() else {
        panic!("points is not an array");
    };
    assert_eq!(points.len(), 4);
    for point in points {
        assert!(point.get("value").unwrap().as_f64().unwrap().is_finite());
    }
    // Cursor-based incremental poll: skip what we have seen.
    let tail = roundtrip(
        ts.addr,
        "GET",
        &format!("/v1/jobs/{id}/progress?from=3"),
        None,
    )
    .json();
    let Json::Arr(rest) = tail.get("points").unwrap() else {
        panic!("points is not an array");
    };
    assert_eq!(rest.len(), 1);
    assert!(
        roundtrip(
            ts.addr,
            "GET",
            &format!("/v1/jobs/{id}/progress?from=xyz"),
            None
        )
        .status
            == 400
    );
}

#[test]
fn starved_pool_answers_429_with_retry_after() {
    let ts = TestServer::default_start();
    let _guard = submit_lock();
    // Wait for any stragglers from other tests to release their permits,
    // then take everything: no running jobs + all permits held + the
    // submit lock means nothing can free a permit under us.
    let pool = WorkerPool::global();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut held = Vec::new();
    loop {
        while pool.available() > 0 {
            let permits = pool.try_acquire(pool.available());
            if permits.count() > 0 {
                held.push(permits);
            }
        }
        let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
        let running = health
            .get("jobs")
            .unwrap()
            .get("running")
            .unwrap()
            .as_u64()
            .unwrap();
        if running == 0 && pool.available() == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "pool never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = roundtrip(ts.addr, "POST", "/v1/sweep", Some(SWEEP_BODY));
    assert_eq!(reply.status, 429, "{}", reply.body);
    assert!(
        reply.head.to_ascii_lowercase().contains("retry-after:"),
        "missing retry-after in {}",
        reply.head
    );
    drop(held);
    // With permits back, the same request is admitted.
    let id = submit(ts.addr, "/v1/sweep", SWEEP_BODY);
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
}

#[test]
fn ingress_bombs_get_400_and_the_daemon_keeps_serving() {
    let ts = TestServer::start(
        AnalysisEngine::new(),
        ServeConfig {
            max_body_bytes: 64 * 1024,
            ..ServeConfig::default()
        },
    );
    // Depth bomb: would have been a stack-overflow process kill before the
    // parser's depth cap.
    let depth_bomb = "[".repeat(50_000);
    let reply = roundtrip(ts.addr, "POST", "/v1/analyze", Some(&depth_bomb));
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("nesting deeper"), "{}", reply.body);
    // Width bomb: over the body cap, rejected from the declared length
    // alone (413, before parsing).
    let width_bomb = format!("[{}]", "1,".repeat(40_000));
    let reply = roundtrip(ts.addr, "POST", "/v1/analyze", Some(&width_bomb));
    assert_eq!(reply.status, 413);
    // Torn JSON and huge numbers are 400s.
    for bad in ["{\"n\":", "{\"budget_ms\":1e999}", "not json"] {
        assert_eq!(
            roundtrip(ts.addr, "POST", "/v1/analyze", Some(bad)).status,
            400,
            "accepted {bad:?}"
        );
    }
    // The daemon survived all of it.
    let health = roundtrip(ts.addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.json().get("status").unwrap().as_str(), Some("ok"));
}

#[test]
fn invalid_parameters_fail_the_job_not_the_daemon() {
    let ts = TestServer::default_start();
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/analyze", r#"{"n":0}"#)
    };
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("failed"));
    assert!(doc.get("error").unwrap().as_str().is_some());
    assert_eq!(roundtrip(ts.addr, "GET", "/healthz", None).status, 200);
}

#[test]
fn routing_edges() {
    let ts = TestServer::default_start();
    assert_eq!(roundtrip(ts.addr, "GET", "/nope", None).status, 404);
    assert_eq!(
        roundtrip(ts.addr, "GET", "/v1/jobs/999999", None).status,
        404
    );
    assert_eq!(roundtrip(ts.addr, "GET", "/v1/jobs/abc", None).status, 400);
    assert_eq!(roundtrip(ts.addr, "GET", "/v1/analyze", None).status, 405);
    assert_eq!(
        roundtrip(ts.addr, "POST", "/metrics", Some("{}")).status,
        405
    );
    // POST without a content-length is 411.
    let mut stream = TcpStream::connect(ts.addr).unwrap();
    stream
        .write_all(b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert_eq!(parse_reply(&text).status, 411);
}

#[test]
fn metrics_expose_http_series() {
    let ts = TestServer::default_start();
    // Generate one bad request so the counter is non-zero.
    assert_eq!(
        roundtrip(ts.addr, "POST", "/v1/analyze", Some("broken")).status,
        400
    );
    let reply = roundtrip(ts.addr, "GET", "/metrics", None);
    assert_eq!(reply.status, 200);
    for series in [
        "nvp_http_requests_total",
        "nvp_http_bad_requests_total",
        "nvp_http_rejected_total",
        "nvp_http_panics_total",
        "nvp_http_jobs_submitted_total",
    ] {
        assert!(reply.body.contains(series), "missing {series}");
    }
}

#[test]
fn slow_loris_connections_are_dropped_at_the_request_deadline() {
    let ts = TestServer::start(
        AnalysisEngine::new(),
        ServeConfig {
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    );
    let mut stream = TcpStream::connect(ts.addr).unwrap();
    // Trickle an endless request head one byte at a time: every individual
    // write lands well inside the per-read timeout, so only the total
    // per-request deadline can end this connection.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Filler: ")
        .unwrap();
    let mut closed = false;
    for _ in 0..200 {
        let _ = stream.write_all(b"a");
        std::thread::sleep(Duration::from_millis(30));
        // Poll for the server-side close without blocking the trickle.
        stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    assert!(closed, "slow-loris connection was never dropped");
    // One shed connection, daemon still healthy.
    assert_eq!(roundtrip(ts.addr, "GET", "/healthz", None).status, 200);
}

/// Value of an unlabelled Prometheus series in a `/metrics` scrape.
fn metric_value(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("series {name} missing from scrape"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn healthz_engine_block_matches_the_metrics_series_after_evictions() {
    let ts = TestServer::start(
        AnalysisEngine::new().with_max_cache_entries(2),
        ServeConfig::default(),
    );
    let id = {
        let _guard = submit_lock();
        submit(
            ts.addr,
            "/v1/sweep",
            r#"{"axis":"gamma","from":300,"to":1500,"steps":4}"#,
        )
    };
    assert_eq!(
        await_job(ts.addr, id).get("status").unwrap().as_str(),
        Some("done")
    );
    let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
    let engine = health.get("engine").unwrap();
    let scrape = roundtrip(ts.addr, "GET", "/metrics", None).body;
    for (field, series) in [
        ("cache_hits", "nvp_cache_hits_total"),
        ("cache_misses", "nvp_cache_misses_total"),
        ("cache_entries", "nvp_cache_entries"),
        ("cache_bytes_approx", "nvp_cache_bytes_approx"),
        ("cache_evictions", "nvp_cache_evictions_total"),
        ("chain_solutions", "nvp_cache_entries"),
        ("degraded_solutions", "nvp_degraded_solutions_total"),
        ("worker_panics", "nvp_worker_panics_total"),
        ("store_hits", "nvp_store_hits_total"),
    ] {
        let value = engine.get(field).unwrap().as_f64().unwrap();
        assert_eq!(value, metric_value(&scrape, series), "{field} vs {series}");
    }
    assert_eq!(metric_value(&scrape, "nvp_cache_evictions_total"), 2.0);
    assert_eq!(metric_value(&scrape, "nvp_cache_entries"), 2.0);
}

/// A fresh on-disk store under the system temp dir, wiped per test run.
fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nvp-serve-e2e-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Long enough (24 distinct chain solves) to still be in flight when the
/// drain starts, so the 503 refusal window is deterministic.
const LONG_SWEEP_BODY: &str = r#"{"axis":"gamma","from":300,"to":1500,"steps":24}"#;

#[test]
fn a_drain_refuses_new_work_but_finishes_the_inflight_job() {
    let ts = TestServer::default_start();
    let _guard = submit_lock();
    let id = submit(ts.addr, "/v1/sweep", LONG_SWEEP_BODY);
    // Wait until the job is actually running so the drain has something
    // in flight to wait for.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
        let running = health
            .get("jobs")
            .unwrap()
            .get("running")
            .unwrap()
            .as_u64()
            .unwrap();
        if running >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Trip a manual rejuvenation drain (default mode: in-process swap).
    // `begin_drain` flips the admission state synchronously, so refusals
    // are observable the moment this returns.
    ts.server.rejuvenate();
    let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
    assert_eq!(health.get("state").unwrap().as_str(), Some("draining"));
    let refused = roundtrip(ts.addr, "POST", "/v1/sweep", Some(SWEEP_BODY));
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(
        refused.head.to_ascii_lowercase().contains("retry-after:"),
        "missing retry-after in {}",
        refused.head
    );
    // The in-flight job is not a casualty: it finishes under the drain
    // deadline and stays queryable across the engine swap.
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    // Once the drain resolves, the daemon serves again and owns up to the
    // rejuvenation in /healthz.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
        let state = health.get("state").unwrap().as_str().unwrap().to_owned();
        let rejuvenations = health.get("rejuvenations").unwrap().as_u64().unwrap();
        if state == "serving" && rejuvenations >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain never resolved: state={state} rejuvenations={rejuvenations}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The renewed engine answers new submissions.
    let id = submit(ts.addr, "/v1/sweep", SWEEP_BODY);
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
}

#[test]
fn rejuvenation_swaps_a_fresh_engine_with_byte_identical_answers() {
    let dir = temp_store("swap");
    let engine = AnalysisEngine::new().with_store(SolveStore::open(&dir).unwrap());
    let ts = TestServer::start(
        engine,
        ServeConfig {
            rejuvenation: RejuvenationPolicy {
                after_jobs: Some(1),
                ..RejuvenationPolicy::default()
            },
            ..ServeConfig::default()
        },
    );
    let factory_dir = dir.clone();
    ts.server
        .set_engine_factory(Arc::new(move || match SolveStore::open(&factory_dir) {
            Ok(store) => AnalysisEngine::new().with_store(store),
            Err(_) => AnalysisEngine::new(),
        }));
    let _guard = submit_lock();
    let first = {
        let id = submit(ts.addr, "/v1/sweep", SWEEP_BODY);
        let doc = await_job(ts.addr, id);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        doc.get("result")
            .unwrap()
            .get("csv")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    };
    // The after_jobs=1 trigger trips once that job lands; wait for the
    // swap to complete. `cache_entries == 0` is the proof that a *fresh*
    // engine took over — the old one held all four sweep points.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = roundtrip(ts.addr, "GET", "/healthz", None).json();
        let state = health.get("state").unwrap().as_str().unwrap().to_owned();
        let rejuvenations = health.get("rejuvenations").unwrap().as_u64().unwrap();
        let cache_entries = health
            .get("engine")
            .unwrap()
            .get("cache_entries")
            .unwrap()
            .as_u64()
            .unwrap();
        if state == "serving" && rejuvenations >= 1 && cache_entries == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "swap never completed: state={state} rejuvenations={rejuvenations} \
             cache_entries={cache_entries}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The rejuvenation counter lives in the server's own registry, so it
    // survives the engine swap and shows up in the merged scrape.
    let scrape = roundtrip(ts.addr, "GET", "/metrics", None);
    assert_eq!(scrape.status, 200);
    assert!(
        metric_value(&scrape.body, "nvp_engine_rejuvenations_total") >= 1.0,
        "rejuvenation not counted in scrape"
    );
    // Same request against the swapped engine: warm from the persistent
    // store, byte-identical to the pre-rejuvenation answer.
    let second = {
        let id = submit(ts.addr, "/v1/sweep", SWEEP_BODY);
        let doc = await_job(ts.addr, id);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        doc.get("result")
            .unwrap()
            .get("csv")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    };
    assert_eq!(first, second, "swapped engine changed the answer");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wait for a flight dump whose filename names `trigger` to appear in
/// `dir`, and return its contents.
fn await_dump(dir: &std::path::Path, trigger: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.contains(&format!("-{trigger}.jsonl")) {
                    return std::fs::read_to_string(entry.path()).unwrap();
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no {trigger} dump ever appeared in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Schema-check a dump and enforce the cross-thread link rule: it must be
/// a flight dump, and every `job.run` span must link to an `http.request`.
fn check_dump(text: &str) -> nvp_obs::schema::TraceSummary {
    let summary = nvp_obs::schema::check_jsonl(text).unwrap_or_else(|e| {
        panic!("flight dump failed schema check: {e}");
    });
    assert!(summary.flight, "dump is not marked as a flight dump");
    nvp_obs::schema::check_link_rule(&summary, "job.run", "http.request")
        .unwrap_or_else(|e| panic!("link rule violated: {e}"));
    summary
}

#[test]
fn rejuvenation_writes_checker_passing_flight_dumps() {
    let dir = temp_store("flight-rejuvenate");
    let ts = TestServer::start(
        AnalysisEngine::new(),
        ServeConfig {
            flight_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/sweep", SWEEP_BODY)
    };
    await_job(ts.addr, id);
    // A manual rejuvenation covers two triggers at once: the drain-entry
    // dump and the rejuvenation dump written when the swap lands.
    ts.server.rejuvenate();
    let drain_dump = await_dump(&dir, "drain");
    let rejuvenate_dump = await_dump(&dir, "rejuvenate");
    for (tag, text) in [("drain", &drain_dump), ("rejuvenate", &rejuvenate_dump)] {
        let summary = check_dump(text);
        // The triggering request's span chain is in the black box: the
        // HTTP ingress span, and the worker-side job span linked to it.
        for name in ["http.request", "job.run"] {
            assert!(
                summary.span_names.contains_key(name),
                "{tag} dump lost the {name} span: have {:?}",
                summary.span_names.keys().collect::<Vec<_>>()
            );
        }
    }
    // The dump header carries the daemon's aging state for the postmortem.
    let meta = drain_dump.lines().next().unwrap();
    let doc = Json::parse(meta).unwrap();
    let flight = doc.get("flight").unwrap();
    assert_eq!(flight.get("trigger").unwrap().as_str(), Some("drain"));
    assert!(flight
        .get("aging")
        .unwrap()
        .get("jobs_this_cycle")
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-inject")]
#[test]
fn a_job_panic_writes_a_flight_dump_naming_the_job() {
    use nvp_numerics::fault::{FaultMode, FaultPlan, Site};
    let dir = temp_store("flight-panic");
    // One injected panic at the serve-job site, armed on this server's
    // engine only: the worker unwinds (the engine's own supervisor never
    // sees it), the job fails, the daemon survives, and the black box hits
    // the disk.
    let plan = FaultPlan::new(Site::ServeJob, FaultMode::Panic).times(1);
    let ts = TestServer::start(
        AnalysisEngine::new().with_faults(plan.arm()),
        ServeConfig {
            flight_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let _guard = submit_lock();
    let id = submit(ts.addr, "/v1/analyze", "{}");
    let doc = await_job(ts.addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("failed"));
    assert!(
        doc.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panic"),
        "job failed for the wrong reason: {}",
        doc.get("error").unwrap().as_str().unwrap()
    );
    let dump = await_dump(&dir, "panic");
    let summary = check_dump(&dump);
    assert!(summary.span_names.contains_key("job.run"));
    // The dump detail names the panicking job.
    let meta = Json::parse(dump.lines().next().unwrap()).unwrap();
    let detail = meta
        .get("flight")
        .unwrap()
        .get("detail")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert!(detail.contains(&format!("job-{id}")), "detail: {detail}");
    // The daemon is still serving.
    assert_eq!(roundtrip(ts.addr, "GET", "/healthz", None).status, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_endpoints_expose_recorder_and_aging() {
    let ts = TestServer::default_start();
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/analyze", "{}")
    };
    await_job(ts.addr, id);
    // The live ring, served as the same JSONL a trigger would write.
    let reply = roundtrip(ts.addr, "GET", "/v1/debug/recorder", None);
    assert_eq!(reply.status, 200);
    let summary = check_dump(&reply.body);
    assert!(summary.spans >= 1, "recorder served an empty ring");
    // The aging signals the rejuvenation policy would judge.
    let reply = roundtrip(ts.addr, "GET", "/v1/debug/aging", None);
    assert_eq!(reply.status, 200);
    let doc = reply.json();
    assert_eq!(doc.get("state").unwrap().as_str(), Some("serving"));
    assert!(doc.get("aging").unwrap().get("jobs_this_cycle").is_some());
    assert!(doc.get("recorder").unwrap().get("capacity").is_some());
    // No policy armed by default, so nothing would trip.
    assert!(doc
        .get("policy")
        .unwrap()
        .get("would_trip")
        .unwrap()
        .is_null());
    // Read-only: mutating methods are refused.
    assert_eq!(
        roundtrip(ts.addr, "POST", "/v1/debug/recorder", Some("{}")).status,
        405
    );
    assert_eq!(
        roundtrip(ts.addr, "POST", "/v1/debug/aging", Some("{}")).status,
        405
    );
}

#[test]
fn metrics_split_by_endpoint_and_status_class() {
    const CHEAP_REQUESTS: u64 = 3;
    let ts = TestServer::default_start();
    for _ in 0..CHEAP_REQUESTS {
        assert_eq!(roundtrip(ts.addr, "GET", "/healthz", None).status, 200);
        assert_eq!(roundtrip(ts.addr, "GET", "/metrics", None).status, 200);
    }
    assert_eq!(
        roundtrip(ts.addr, "POST", "/v1/analyze", Some("broken")).status,
        400
    );
    // One job through the full pipeline, so `analyze` also holds a 2xx
    // and `jobs` holds at least the terminal poll.
    let id = {
        let _guard = submit_lock();
        submit(ts.addr, "/v1/analyze", "{}")
    };
    assert_eq!(
        await_job(ts.addr, id).get("status").unwrap().as_str(),
        Some("done")
    );
    let scrape = roundtrip(ts.addr, "GET", "/metrics", None);
    assert_eq!(scrape.status, 200);
    // The labeled splits coexist with the original aggregate series (old
    // dashboards keep working), under a single TYPE declaration per name.
    assert!(
        scrape
            .body
            .lines()
            .any(|l| l.starts_with("nvp_http_requests_total ")),
        "aggregate requests counter vanished"
    );
    for series in [
        "nvp_http_requests_total{endpoint=\"healthz\",status=\"2xx\"}",
        "nvp_http_requests_total{endpoint=\"analyze\",status=\"2xx\"}",
        "nvp_http_requests_total{endpoint=\"analyze\",status=\"4xx\"}",
        "nvp_http_request_nanos_bucket{endpoint=\"healthz\",le=",
        "nvp_http_request_nanos_count{endpoint=\"healthz\"}",
    ] {
        assert!(scrape.body.contains(series), "missing {series}");
    }
    assert_eq!(
        scrape
            .body
            .lines()
            .filter(|l| *l == "# TYPE nvp_http_requests_total counter")
            .count(),
        1,
        "TYPE line must appear exactly once per metric name"
    );
    // Per endpoint, the cumulative buckets are monotone, count every
    // request made, and imply sane quantiles: a non-zero median service
    // time and p50 <= p99.
    for (endpoint, made) in [
        ("healthz", CHEAP_REQUESTS),
        ("metrics", CHEAP_REQUESTS),
        ("analyze", 2),
        ("jobs", 1),
    ] {
        let prefix = format!("nvp_http_request_nanos_bucket{{endpoint=\"{endpoint}\",le=\"");
        let buckets: Vec<(f64, u64)> = scrape
            .body
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .map(|rest| {
                let (le, cumulative) = rest.split_once("\"} ").unwrap();
                (le.parse().unwrap(), cumulative.parse().unwrap())
            })
            .collect();
        assert!(
            buckets.len() > 1,
            "no bucket series for endpoint {endpoint}"
        );
        for pair in buckets.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "bucket counts regressed for {endpoint}: {buckets:?}"
            );
        }
        // The last bucket is `+Inf`, i.e. the sample count.
        let count = buckets[buckets.len() - 1].1;
        assert!(
            count >= made,
            "endpoint {endpoint}: {count} samples, expected at least {made}"
        );
        let quantile = |q: f64| {
            let target = (q * count as f64).ceil() as u64;
            buckets.iter().find(|(_, c)| *c >= target).unwrap().0
        };
        let (p50, p99) = (quantile(0.5), quantile(0.99));
        assert!(p50 > 0.0, "endpoint {endpoint}: zero p50 service time");
        assert!(p50 <= p99, "endpoint {endpoint}: p50 {p50} above p99 {p99}");
    }
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let ts = TestServer::default_start();
    let mut stream = TcpStream::connect(ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // Read exactly one response: head, then content-length bytes.
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf).unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("connection: keep-alive"), "{head}");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        assert_eq!(
            Json::parse(std::str::from_utf8(&body).unwrap())
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok")
        );
    }
}
