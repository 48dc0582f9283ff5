//! End-to-end service tests: a real `cme-serve` server on an ephemeral
//! loopback port, exercised over real sockets.
//!
//! Covers the acceptance contract of the service layer:
//! * `POST /optimize` parity with `Session::run` — byte-identical
//!   timing-stripped outcomes (`Outcome::without_timing` is the
//!   canonical comparison form);
//! * a repeated identical request is served from the outcome cache and
//!   the `/metrics` hit counter increments;
//! * a filled bounded queue of *ready* requests answers `503` instead of
//!   queueing further work;
//! * a client that never finishes sending its request does not occupy a
//!   worker (the readiness core frames requests before dispatch);
//! * concurrent identical requests coalesce onto one computation and
//!   every caller gets a byte-identical timing-stripped body;
//! * keep-alive connections serve sequential requests;
//! * malformed input gets a `400`, not a hung or dropped connection;
//! * the removed `lattice` estimator is a `400` on every route.

use cme_suite::api::{Outcome, Session};
use cme_suite::serve::{HttpClient, ServeConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Start a server on an ephemeral port with a small, test-friendly shape.
fn start(workers: usize, queue_depth: usize) -> cme_suite::serve::ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        cache_entries: 64,
        read_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    cme_suite::serve::start(&config).expect("bind ephemeral port")
}

/// A cheap deterministic request: exhaustive sweep of a tiny transpose.
const TINY: &str = r#"{
    "nest": {"Kernel": {"name": "T2D", "size": 12}},
    "cache": {"size": 256, "line": 16, "assoc": 1},
    "strategy": {"Exhaustive": {"step": 4, "max_evals": 500}}
}"#;

#[test]
fn optimize_parity_with_session_and_cache_hit_metrics() {
    let handle = start(2, 16);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    // Cold request.
    let (status, body) = client.post("/optimize", TINY).expect("cold optimize");
    assert_eq!(status, 200, "{body}");
    let served: Outcome = serde_json::from_str(&body).expect("outcome JSON");

    // Parity: byte-identical to a direct Session::run once timing is
    // stripped on both sides.
    let req =
        cme_suite::serve::router::parse_optimize_request(TINY.as_bytes()).expect("request parses");
    let direct = Session::default().run(&req).expect("direct run");
    assert_eq!(
        serde_json::to_string(&served.without_timing()).unwrap(),
        serde_json::to_string(&direct.without_timing()).unwrap(),
        "served outcome must be byte-identical to Session::run modulo wall_ms"
    );

    // Hot request: same canonical request, different JSON spelling.
    let reordered = r#"{
        "strategy": {"Exhaustive": {"max_evals": 500, "step": 4}},
        "cache": {"assoc": 1, "line": 16, "size": 256},
        "nest": {"Kernel": {"size": 12, "name": "T2D"}}
    }"#;
    let (status, hot_body) = client.post("/optimize", reordered).expect("hot optimize");
    assert_eq!(status, 200, "{hot_body}");
    let hot: Outcome = serde_json::from_str(&hot_body).expect("outcome JSON");
    assert_eq!(hot.without_timing(), served.without_timing());

    // The hit is visible in /metrics.
    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let doc: serde::Value = serde_json::from_str(&metrics).unwrap();
    let cache = doc.get("cache").expect("cache section");
    assert_eq!(cache.get("hits"), Some(&serde::Value::Int(1)), "{metrics}");
    assert_eq!(cache.get("entries"), Some(&serde::Value::Int(1)), "{metrics}");

    handle.shutdown_and_join();
}

/// A two-level-hierarchy request over the wire: the response must carry
/// the per-level breakdown and serve identically from the cache — the
/// service-layer face of the hierarchy contract the CI smoke test also
/// exercises with curl.
#[test]
fn hierarchy_request_round_trips_with_per_level_fields_and_caches() {
    let handle = start(2, 16);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let body = r#"{
        "nest": {"Kernel": {"name": "T2D", "size": 12}},
        "cache": {"levels": [
            {"size": 256, "line": 16, "assoc": 1, "miss_latency": 10.0},
            {"size": 2048, "line": 16, "assoc": 2, "miss_latency": 80.0}
        ]},
        "strategy": {"Exhaustive": {"step": 4, "max_evals": 500}}
    }"#;

    let (status, cold) = client.post("/optimize", body).expect("cold optimize");
    assert_eq!(status, 200, "{cold}");
    let outcome: Outcome = serde_json::from_str(&cold).expect("outcome JSON");
    assert_eq!(outcome.cache.depth(), 2);
    let levels = outcome.after.levels.as_ref().expect("per-level breakdown in response");
    assert_eq!(levels.len(), 2);
    assert_eq!(levels[1].miss_latency, 80.0);
    assert!(cold.contains("\"levels\""), "wire form carries the breakdown: {cold}");
    assert!(cold.contains("\"miss_latency\""), "{cold}");

    // The identical request is a cache hit and stays byte-identical.
    let (status, hot) = client.post("/optimize", body).expect("hot optimize");
    assert_eq!(status, 200);
    let hot_outcome: Outcome = serde_json::from_str(&hot).expect("outcome JSON");
    assert_eq!(hot_outcome.without_timing(), outcome.without_timing());
    let (_, metrics) = client.get("/metrics").expect("metrics");
    let doc: serde::Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(
        doc.get("cache").and_then(|c| c.get("hits")),
        Some(&serde::Value::Int(1)),
        "{metrics}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let handle = start(1, 4);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for _ in 0..3 {
        let (status, body) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }
    handle.shutdown_and_join();
}

/// An expensive, fully-formed request: a forced 60-generation GA tile
/// search (convergence disabled, mutation high enough to defeat the
/// fitness memo) over a long-line cache, so one request keeps a worker
/// busy for upwards of a second even under the release profile.
/// Distinct sizes are distinct canonical requests, so they neither
/// coalesce nor hit the outcome cache.
fn expensive_request(size: u32) -> String {
    format!(
        r#"{{
        "nest": {{"Kernel": {{"name": "MM", "size": {size}}}}},
        "cache": {{"size": 32768, "line": 256, "assoc": 1}},
        "ga": {{"population": 40, "crossover_prob": 0.9, "mutation_prob": 0.2,
               "min_generations": 60, "max_generations": 60,
               "convergence_margin": 0.0, "seed": 7, "memo_capacity": null}},
        "strategy": "Tiling"
    }}"#
    )
}

#[test]
fn full_queue_of_ready_requests_answers_503_immediately() {
    // One worker, queue of one. Under the readiness core only *complete*
    // requests occupy queue slots, so the overload scenario needs
    // expensive ready requests: the first occupies the worker, the
    // second fills the queue, and the third must be rejected 503 by the
    // IO driver without waiting.
    let handle = start(1, 1);
    let addr = handle.addr();

    let spawn_post = |size: u32| {
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            client.post("/optimize", &expensive_request(size)).expect("response")
        })
    };
    let busy = spawn_post(120);
    // Let the worker pop the first request before filling the queue; the
    // GA searches run far longer than these sleeps.
    std::thread::sleep(Duration::from_millis(150));
    let queued = spawn_post(124);
    std::thread::sleep(Duration::from_millis(150));

    let mut rejected = HttpClient::connect(addr).expect("third connection");
    let (status, body) = rejected.post("/optimize", &expensive_request(128)).expect("503 response");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("queue is full"), "{body}");

    // The in-flight work still completes.
    let (status, body) = busy.join().expect("busy thread");
    assert_eq!(status, 200, "{body}");
    let (status, body) = queued.join().expect("queued thread");
    assert_eq!(status, 200, "{body}");

    // The rejection is counted.
    let mut client = HttpClient::connect(addr).expect("connect after release");
    let (_, metrics) = client.get("/metrics").expect("metrics");
    let doc: serde::Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(doc.get("rejected_total"), Some(&serde::Value::Int(1)), "{metrics}");

    handle.shutdown_and_join();
}

#[test]
fn slow_client_does_not_occupy_a_worker() {
    // A connection that sends half a request head and stalls. Under the
    // old blocking design this parked the (only) worker; the readiness
    // core keeps the half-read connection in the IO driver, so the
    // worker stays free for complete requests.
    let handle = start(1, 2);
    let addr = handle.addr();

    let mut hog = TcpStream::connect(addr).expect("hog connects");
    hog.write_all(b"POST /optimize HTTP/1.1\r\nContent-Length: 10").expect("partial request");
    hog.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(150));

    let mut client = HttpClient::connect(addr).expect("connect");
    let (status, body) = client.get("/healthz").expect("healthz despite the hog");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""));

    drop(hog);
    handle.shutdown_and_join();
}

#[test]
fn concurrent_identical_requests_coalesce_over_the_wire() {
    // Outcome caching disabled so every request reaches the coalescing
    // layer; four workers so all four identical requests are in flight
    // at once. One leader computes; the rest join its flight.
    const CLIENTS: usize = 4;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        queue_depth: 16,
        cache_entries: 0,
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = cme_suite::serve::start(&config).expect("bind ephemeral port");
    let addr = handle.addr();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
    let posters: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                barrier.wait();
                client.post("/optimize", &expensive_request(64)).expect("response")
            })
        })
        .collect();

    let mut stripped = Vec::new();
    for poster in posters {
        let (status, body) = poster.join().expect("poster thread");
        assert_eq!(status, 200, "{body}");
        let outcome: Outcome = serde_json::from_str(&body).expect("outcome JSON");
        stripped.push(serde_json::to_string(&outcome.without_timing()).expect("serialise"));
    }
    assert!(
        stripped.iter().all(|s| s == &stripped[0]),
        "all coalesced callers must see byte-identical timing-stripped outcomes"
    );

    let mut client = HttpClient::connect(addr).expect("connect");
    let (_, metrics) = client.get("/metrics").expect("metrics");
    let doc: serde::Value = serde_json::from_str(&metrics).unwrap();
    let coalescing = doc.get("coalescing").expect("coalescing section");
    let count = |field: &str| match coalescing.get(field) {
        Some(serde::Value::Int(n)) => *n as usize,
        Some(serde::Value::UInt(n)) => *n as usize,
        other => panic!("coalescing.{field} missing or non-numeric: {other:?}"),
    };
    assert_eq!(
        count("leaders") + count("followers"),
        CLIENTS,
        "every request either led or followed: {metrics}"
    );
    assert!(count("followers") >= 1, "concurrent identical requests must share: {metrics}");
    assert_eq!(count("in_flight"), 0, "{metrics}");

    handle.shutdown_and_join();
}

/// Write raw bytes on a fresh connection and read the one response back.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write raw request");
    cme_suite::serve::client::read_response(&mut std::io::BufReader::new(stream))
        .expect("a response")
}

#[test]
fn malformed_requests_get_400_and_oversized_bodies_413() {
    let handle = start(1, 4);
    let addr = handle.addr();

    let (status, _) = raw_exchange(addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert_eq!(status, 400);

    let mut bad_json = HttpClient::connect(addr).expect("connect");
    let (status, body) = bad_json.post("/optimize", "{not json").expect("response");
    assert_eq!(status, 400, "{body}");

    let (status, body) =
        raw_exchange(addr, b"POST /optimize HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    assert_eq!(status, 413, "{body}");

    handle.shutdown_and_join();
}

/// The removed `lattice` estimator answers `400` on every route that
/// embeds an optimize request, and the server keeps serving afterwards.
#[test]
fn lattice_estimator_answers_400_over_the_wire() {
    let handle = start(1, 4);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let lattice = TINY.replacen('{', r#"{"estimator": "lattice","#, 1);
    let compare = format!(r#"{{"base": {lattice}, "strategies": ["oblivious"]}}"#);
    let batch = format!("[{lattice}]");
    for (path, body) in [("/optimize", &lattice), ("/compare", &compare), ("/batch", &batch)] {
        let (status, resp) = client.post(path, body).expect("response");
        assert_eq!(status, 400, "{path}: {resp}");
    }

    let (status, body) = client.post("/optimize", TINY).expect("valid optimize");
    assert_eq!(status, 200, "{body}");

    handle.shutdown_and_join();
}

/// `POST /compare` parity with `Session::compare`, plus the tournament
/// memo: a repeat of the same line-up is answered from the compare cache
/// and the hit shows in `/metrics`.
#[test]
fn compare_route_matches_session_and_caches_tournaments() {
    use cme_suite::api::CompareOutcome;

    let handle = start(2, 8);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    // A GA-free line-up keeps the tournament cheap; token strings over
    // the wire exercise the shorthand mapping too.
    let body = r#"{
        "base": {
            "nest": {"Kernel": {"name": "MM", "size": 24}},
            "cache": {"size": 256, "line": 16, "assoc": 1}
        },
        "strategies": ["oblivious", "latency", "baseline:lrw"]
    }"#;

    let (status, cold) = client.post("/compare", body).expect("cold compare");
    assert_eq!(status, 200, "{cold}");
    let served: CompareOutcome = serde_json::from_str(&cold).expect("compare outcome JSON");

    // Parity: byte-identical to a direct Session::compare modulo wall_ms.
    let req =
        cme_suite::serve::router::parse_compare_request(body.as_bytes()).expect("request parses");
    let direct = Session::default().compare(&req).expect("direct compare");
    assert_eq!(
        serde_json::to_string(&served.without_timing()).unwrap(),
        serde_json::to_string(&direct.without_timing()).unwrap(),
        "served tournament must be byte-identical to Session::compare modulo wall_ms"
    );
    assert_eq!(req.strategies[served.winner].name(), served.best().outcome.strategy);

    // The identical line-up is a compare-cache hit and stays identical.
    let (status, hot) = client.post("/compare", body).expect("hot compare");
    assert_eq!(status, 200, "{hot}");
    let hot_outcome: CompareOutcome = serde_json::from_str(&hot).expect("compare outcome JSON");
    assert_eq!(hot_outcome.without_timing(), served.without_timing());

    let (_, metrics) = client.get("/metrics").expect("metrics");
    let doc: serde::Value = serde_json::from_str(&metrics).unwrap();
    let compare_cache = doc.get("compare_cache").expect("compare_cache section");
    assert_eq!(compare_cache.get("hits"), Some(&serde::Value::Int(1)), "{metrics}");
    assert_eq!(
        doc.get("routes").and_then(|r| r.get("compare")),
        Some(&serde::Value::Int(2)),
        "{metrics}"
    );

    handle.shutdown_and_join();
}

/// `/compare` error paths answer structured `400`s, never a panic or a
/// dropped connection: an unknown strategy token, an empty line-up, and
/// a line-up mixing triangular-capable and -incapable families over a
/// triangular kernel (any entrant's failure fails the tournament).
#[test]
fn compare_error_paths_answer_structured_400s() {
    let handle = start(2, 8);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    let expect_400 = |client: &mut HttpClient, body: &str, needle: &str| {
        let (status, resp) = client.post("/compare", body).expect("response");
        assert_eq!(status, 400, "{resp}");
        let doc: serde::Value = serde_json::from_str(&resp).expect("error body is JSON");
        // Parse-time rejections answer `{"error": "<msg>"}`; API errors
        // answer `{"error": {<Variant>: …}, "message": "<msg>"}`.
        let msg = match (doc.get("error"), doc.get("message")) {
            (_, Some(serde::Value::Str(s))) => s.clone(),
            (Some(serde::Value::Str(s)), None) => s.clone(),
            other => panic!("structured error field missing: {other:?} in {resp}"),
        };
        assert!(msg.contains(needle), "expected `{needle}` in: {msg}");
    };

    // Unknown strategy token: rejected at parse time.
    expect_400(
        &mut client,
        r#"{
            "base": {
                "nest": {"Kernel": {"name": "MM", "size": 24}},
                "cache": {"size": 256, "line": 16, "assoc": 1}
            },
            "strategies": ["oblivious", "nonsense"]
        }"#,
        "bad compare request",
    );

    // Empty line-up: rejected by the session.
    expect_400(
        &mut client,
        r#"{
            "base": {
                "nest": {"Kernel": {"name": "MM", "size": 24}},
                "cache": {"size": 256, "line": 16, "assoc": 1}
            },
            "strategies": []
        }"#,
        "at least one strategy",
    );

    // Mixed line-up over a triangular kernel: `oblivious` could run, but
    // `interchange` is box-only, so the tournament as a whole is a 400
    // carrying the capability message with the kernel context.
    expect_400(
        &mut client,
        r#"{
            "base": {
                "nest": {"Kernel": {"name": "TRSOLVE", "size": 24}},
                "cache": {"size": 256, "line": 16, "assoc": 1}
            },
            "strategies": ["oblivious", "interchange"]
        }"#,
        "kernel `TRSOLVE`: the interchange search supports rectangular loop bounds only",
    );

    // The server is still healthy afterwards.
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "{body}");

    handle.shutdown_and_join();
}

#[test]
fn batch_route_round_trips_over_the_wire() {
    let handle = start(2, 8);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let body = format!(
        r#"[{TINY}, {{"nest": {{"Kernel": {{"name": "NOPE", "size": null}}}}, "strategy": "Tiling"}}]"#
    );
    let (status, resp) = client.post("/batch", &body).expect("batch");
    assert_eq!(status, 200, "{resp}");
    let results: Vec<serde::Value> = serde_json::from_str(&resp).unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[0].get("strategy").is_some());
    assert!(results[1].get("error").is_some());
    handle.shutdown_and_join();
}
