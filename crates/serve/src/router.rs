//! Method + path dispatch over the shared [`App`] state. Handlers take a
//! parsed [`HttpRequest`] and return an [`HttpResponse`], so the whole
//! routing layer is unit-testable without opening a socket.
//!
//! Routes:
//!
//! | Route             | Body                      | Result                          |
//! |-------------------|---------------------------|---------------------------------|
//! | `POST /optimize`  | one `OptimizeRequest`     | `Outcome` (memo-cached)         |
//! | `POST /analyze`   | one `AnalyzeRequest`      | `AnalyzeOutcome`                |
//! | `POST /lint`      | one `LintRequest`         | `LintOutcome` (memo-cached)     |
//! | `POST /compare`   | one `CompareRequest`      | `CompareOutcome` (memo-cached)  |
//! | `POST /batch`     | `[OptimizeRequest, ...]`  | array of outcomes / errors      |
//! | `GET /healthz`    | —                         | liveness + uptime               |
//! | `GET /metrics`    | —                         | the telemetry document          |
//! | `POST /shutdown`  | —                         | begins graceful shutdown        |
//!
//! Request bodies may omit `cache`, `sampling` and `ga` (and the analyze
//! extras); the paper's defaults are filled in **before** parsing, so a
//! minimal `{"nest": ..., "strategy": ...}` is a complete request and maps
//! to the same cache entry as its fully spelled-out form.
//!
//! The memo-cached routes first ask the runtime to recall the body: a
//! byte-identical repeat of a body a memo answered before is served from
//! the stored text without being parsed.

use crate::http::{HttpRequest, HttpResponse};
use crate::metrics::{Histogram, Metrics};
use cme_api::cme::{CacheSpec, SamplingConfig};
use cme_api::{ApiError, GaConfig, LintRequest, OptimizeRequest};
use cme_runtime::{Answer, Encoded, Resolution, Runtime, RuntimeConfig, RuntimeError};
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Shared service state: the process-wide [`Runtime`] (session,
/// displacement store, tiered outcome cache, lint and compare caches,
/// coalescing),
/// telemetry, and the graceful-shutdown flag. One `App` serves every
/// worker thread.
pub struct App {
    pub runtime: Runtime,
    pub metrics: Metrics,
    workers: usize,
    shutdown: AtomicBool,
}

impl App {
    /// Memory-only app: `cache_entries` sizes the outcome, lint and
    /// compare caches as `--cache-entries` does (see
    /// [`cme_runtime::Runtime::new`]), everything else at
    /// [`RuntimeConfig`] defaults.
    pub fn new(workers: usize, cache_entries: usize) -> App {
        App::with_runtime(
            workers,
            &RuntimeConfig { outcome_entries: cache_entries, ..RuntimeConfig::default() },
        )
    }

    pub fn with_runtime(workers: usize, config: &RuntimeConfig) -> App {
        App {
            runtime: Runtime::new(config),
            metrics: Metrics::new(),
            workers,
            shutdown: AtomicBool::new(false),
        }
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Route one request, maintaining the request counters and the
    /// whole-request latency histogram.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let started = Instant::now();
        self.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let resp = self.route(req);
        if resp.status >= 400 {
            self.metrics.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.request_us.record(started.elapsed());
        resp
    }

    fn route(&self, req: &HttpRequest) -> HttpResponse {
        let bump = |c: &std::sync::atomic::AtomicU64| {
            c.fetch_add(1, Ordering::Relaxed);
        };
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/optimize") => {
                bump(&self.metrics.routes.optimize);
                self.optimize(&req.body)
            }
            ("POST", "/analyze") => {
                bump(&self.metrics.routes.analyze);
                self.analyze(&req.body)
            }
            ("POST", "/lint") => {
                bump(&self.metrics.routes.lint);
                self.lint(&req.body)
            }
            ("POST", "/compare") => {
                bump(&self.metrics.routes.compare);
                self.compare(&req.body)
            }
            ("POST", "/batch") => {
                bump(&self.metrics.routes.batch);
                self.batch(&req.body)
            }
            ("GET", "/healthz") => {
                bump(&self.metrics.routes.healthz);
                HttpResponse::json(
                    200,
                    format!("{{\"status\":\"ok\",\"uptime_ms\":{}}}", self.metrics.uptime_ms()),
                )
            }
            ("GET", "/metrics") => {
                bump(&self.metrics.routes.metrics);
                let doc = self.metrics.snapshot(self.workers, &self.runtime);
                ok_json(&doc)
            }
            ("POST", "/shutdown") => {
                bump(&self.metrics.routes.shutdown);
                self.request_shutdown();
                // Flush the persistent outcome tier before answering, so
                // a client that drove `/shutdown` can rely on the warmed
                // entries being on disk. (The server flushes again after
                // the workers drain, catching outcomes still in flight.)
                let flushed = self.runtime.flush();
                HttpResponse::json(
                    200,
                    format!("{{\"status\":\"shutting down\",\"flushed\":{flushed}}}"),
                )
            }
            (_, "/optimize" | "/analyze" | "/lint" | "/compare" | "/batch" | "/shutdown") => {
                bump(&self.metrics.routes.unmatched);
                HttpResponse::error(405, "use POST for this route")
            }
            (_, "/healthz" | "/metrics") => {
                bump(&self.metrics.routes.unmatched);
                HttpResponse::error(405, "use GET for this route")
            }
            (_, path) => {
                bump(&self.metrics.routes.unmatched);
                HttpResponse::error(404, &format!("no route `{path}`"))
            }
        }
    }

    /// `POST /optimize`: recall, or parse → canonicalise → tiers. The
    /// runtime tries the hot outcome cache, then the persistent tier,
    /// then coalesces with any identical in-flight computation before
    /// actually running the search. The answer comes back as its stored
    /// text; this handler re-stamps `wall_ms` with the time the request
    /// actually took here (near-zero for hits, the search time for
    /// leaders).
    fn optimize(&self, body: &[u8]) -> HttpResponse {
        let started = Instant::now();
        let (result, how) = match self.runtime.recall_optimize(body) {
            Some((hit, how)) => (Ok(hit), how),
            None => match parse_optimize_request(body) {
                Ok(req) => self.runtime.optimize(&req, Some(body)),
                Err(resp) => return resp,
            },
        };
        let latency = match how {
            Resolution::CacheHot | Resolution::CacheDisk => &self.metrics.optimize_hit_us,
            Resolution::Computed | Resolution::Coalesced | Resolution::LeaderFailed => {
                &self.metrics.optimize_cold_us
            }
        };
        served(result, started, latency)
    }

    /// `POST /analyze`: pure model queries are already fast (no GA), so
    /// they bypass the outcome cache.
    fn analyze(&self, body: &[u8]) -> HttpResponse {
        let mut value = match parse_json_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        fill_defaults(
            &mut value,
            &[
                ("cache", serde_json::to_value(&CacheSpec::paper_8k())),
                ("sampling", serde_json::to_value(&SamplingConfig::paper())),
                ("seed", Value::Int(0xCE11)),
                ("tiles", Value::Null),
                ("exhaustive", Value::Bool(false)),
            ],
        );
        let req: cme_api::AnalyzeRequest = match serde_json::from_value(&value) {
            Ok(req) => req,
            Err(e) => return HttpResponse::error(400, &format!("bad analyze request: {e}")),
        };
        match self.runtime.session().analyze(&req) {
            Ok(out) => ok_json(&out),
            Err(e) => api_error_response(&e),
        }
    }

    /// `POST /lint`: static dependence analysis + kernel lints. Lints
    /// are deterministic and searchless, yet memo-cached like `/optimize`
    /// (same canonical-key rule, own LRU, same recall) so repeated
    /// editor/CI polls of one kernel cost a hash lookup.
    fn lint(&self, body: &[u8]) -> HttpResponse {
        let started = Instant::now();
        let (result, hit) = match self.runtime.recall_lint(body) {
            Some(hit) => (Ok(hit), true),
            None => match parse_lint_request(body) {
                Ok(req) => self.runtime.lint(&req, Some(body)),
                Err(resp) => return resp,
            },
        };
        let latency = if hit { &self.metrics.lint_hit_us } else { &self.metrics.lint_cold_us };
        served(result, started, latency)
    }

    /// `POST /compare`: a strategy tournament over one base request.
    /// The `strategies` array accepts CLI-style tokens (`"ga"`,
    /// `"oblivious"`, `"latency"`, `"baseline:lrw"`, ...) alongside full
    /// `StrategySpec` JSON values, and defaults to the standard four-way
    /// line-up when absent. The runtime answers from its compare memo
    /// when it can, and runs the entrants through the same batch path as
    /// `/batch` otherwise; the answer comes back as its stored text and
    /// `wall_ms` is re-stamped here, like `/optimize`.
    fn compare(&self, body: &[u8]) -> HttpResponse {
        let started = Instant::now();
        let (result, hit) = match self.runtime.recall_compare(body) {
            Some(hit) => (Ok(hit), true),
            None => match parse_compare_request(body) {
                Ok(req) => self.runtime.compare(&req, Some(body)),
                Err(resp) => return resp,
            },
        };
        let latency =
            if hit { &self.metrics.compare_hit_us } else { &self.metrics.compare_cold_us };
        served(result, started, latency)
    }

    /// `POST /batch`: a JSON array of optimize requests, answered by
    /// `Runtime::optimize_batch` in request order — cache hits (with
    /// `wall_ms` 0), then one deduplicated parallel run of the misses.
    /// Per-request failures do not fail the batch: each slot is either an
    /// `Outcome` or an error object.
    fn batch(&self, body: &[u8]) -> HttpResponse {
        let value = match parse_json_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(items) = value.as_array() else {
            return HttpResponse::error(400, "batch body must be a JSON array of requests");
        };
        let mut reqs = Vec::with_capacity(items.len());
        for (k, item) in items.iter().enumerate() {
            let mut item = item.clone();
            fill_optimize_defaults(&mut item);
            match serde_json::from_value::<OptimizeRequest>(&item) {
                Ok(req) => reqs.push(req),
                Err(e) => {
                    return HttpResponse::error(400, &format!("bad request at index {k}: {e}"));
                }
            }
        }
        let results: Vec<Value> = self
            .runtime
            .optimize_batch(&reqs)
            .iter()
            .map(|slot| match slot {
                Ok(out) => serde_json::to_value(out),
                Err(e) => api_error_value(e),
            })
            .collect();
        ok_json(&results)
    }
}

/// Answer with a memoised route's result: the stored text with `wall_ms`
/// stamped as the time since `started`, which `latency` records; or the
/// error.
fn served<T: Answer>(
    result: Result<Encoded<T>, RuntimeError>,
    started: Instant,
    latency: &Histogram,
) -> HttpResponse {
    match result {
        Ok(answer) => {
            let elapsed = started.elapsed();
            latency.record(elapsed);
            HttpResponse::json(200, answer.body(elapsed.as_millis() as u64))
        }
        Err(RuntimeError::Api(e)) => api_error_response(&e),
        // The flight this request joined died with its leader; the
        // fault is the server's, not the request's.
        Err(RuntimeError::LeaderFailed) => HttpResponse::error(
            500,
            "the computation this request was coalesced onto failed; retry",
        ),
        Err(e @ RuntimeError::Encode(_)) => HttpResponse::error(500, &e.to_string()),
    }
}

/// Serialise a 200 response body; a serialisation failure is answered as
/// a 500 instead of unwinding the worker thread.
fn ok_json<T: serde::Serialize>(value: &T) -> HttpResponse {
    match serde_json::to_string(value) {
        Ok(body) => HttpResponse::json(200, body),
        Err(e) => HttpResponse::error(500, &format!("response serialisation failed: {e}")),
    }
}

/// The HTTP status an [`ApiError`] maps to.
pub fn api_error_status(e: &ApiError) -> u16 {
    match e {
        ApiError::UnknownKernel(_) => 404,
        ApiError::BadRequest(_) => 400,
        ApiError::IllegalTransform(_) | ApiError::TooLarge(_) => 422,
    }
}

/// The error object every route answers for an [`ApiError`]: the
/// structured `"error"` tag plus the human-readable `"message"`.
fn api_error_value(e: &ApiError) -> Value {
    Value::Object(vec![
        ("error".into(), serde_json::to_value(e)),
        ("message".into(), Value::Str(e.to_string())),
    ])
}

fn api_error_response(e: &ApiError) -> HttpResponse {
    match serde_json::to_string(&api_error_value(e)) {
        Ok(json) => HttpResponse::json(api_error_status(e), json),
        // `HttpResponse::error` escapes by hand, so the fallback cannot
        // fail; only the structured `"error"` tag is lost.
        Err(_) => HttpResponse::error(api_error_status(e), &e.to_string()),
    }
}

fn parse_json_body(body: &[u8]) -> Result<Value, HttpResponse> {
    let text =
        std::str::from_utf8(body).map_err(|_| HttpResponse::error(400, "body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| HttpResponse::error(400, &format!("bad JSON: {e}")))
}

/// Add defaults for absent top-level fields (no-op on non-objects — the
/// parse that follows reports the real error).
fn fill_defaults(value: &mut Value, defaults: &[(&str, Value)]) {
    if let Value::Object(fields) = value {
        for (name, default) in defaults {
            if serde::get_field(fields, name).is_none() {
                fields.push(((*name).to_string(), default.clone()));
            }
        }
    }
}

fn fill_optimize_defaults(value: &mut Value) {
    fill_defaults(
        value,
        &[
            ("cache", serde_json::to_value(&CacheSpec::paper_8k())),
            ("sampling", serde_json::to_value(&SamplingConfig::paper())),
            ("ga", serde_json::to_value(&GaConfig::default())),
        ],
    );
}

/// Parse an `/optimize` body: JSON → defaults → typed request.
pub fn parse_optimize_request(body: &[u8]) -> Result<OptimizeRequest, HttpResponse> {
    let mut value = parse_json_body(body)?;
    fill_optimize_defaults(&mut value);
    serde_json::from_value(&value)
        .map_err(|e| HttpResponse::error(400, &format!("bad optimize request: {e}")))
}

/// Parse a `/lint` body: JSON → defaults → typed request.
fn parse_lint_request(body: &[u8]) -> Result<LintRequest, HttpResponse> {
    let mut value = parse_json_body(body)?;
    fill_defaults(&mut value, &[("cache", serde_json::to_value(&CacheSpec::paper_8k()))]);
    serde_json::from_value(&value)
        .map_err(|e| HttpResponse::error(400, &format!("bad lint request: {e}")))
}

/// Parse a `/compare` body: JSON → defaults on the base request and the
/// line-up → token mapping → typed request. The base request's own
/// `strategy` defaults to `"Tiling"` (the tournament ignores it, but the
/// type requires one); an absent `strategies` array becomes
/// [`cme_api::CompareRequest::default_strategies`].
pub fn parse_compare_request(body: &[u8]) -> Result<cme_api::CompareRequest, HttpResponse> {
    let mut value = parse_json_body(body)?;
    if let Value::Object(fields) = &mut value {
        if serde::get_field(fields, "strategies").is_none() {
            fields.push((
                "strategies".into(),
                serde_json::to_value(&cme_api::CompareRequest::default_strategies()),
            ));
        }
        for (name, member) in fields.iter_mut() {
            match (name.as_str(), member) {
                ("base", base) => {
                    fill_optimize_defaults(base);
                    fill_defaults(base, &[("strategy", Value::Str("Tiling".into()))]);
                }
                ("strategies", Value::Array(items)) => {
                    for item in items.iter_mut() {
                        // CLI-style tokens become full specs; other
                        // strings (e.g. serde unit variants like
                        // "Tiling") fall through to the typed parse.
                        if let Value::Str(token) = item {
                            if let Ok(spec) = cme_api::StrategySpec::parse_token(token) {
                                *item = serde_json::to_value(&spec);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    serde_json::from_value(&value)
        .map_err(|e| HttpResponse::error(400, &format!("bad compare request: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_api::{Outcome, Session};
    fn post(path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A cheap deterministic request: exhaustive sweep of a tiny
    /// transpose (no GA, a few hundred evaluations).
    const TINY: &str = r#"{
        "nest": {"Kernel": {"name": "T2D", "size": 12}},
        "cache": {"size": 256, "line": 16, "assoc": 1},
        "strategy": {"Exhaustive": {"step": 4, "max_evals": 500}}
    }"#;

    #[test]
    fn healthz_and_metrics_answer() {
        let app = App::new(2, 8);
        let h = app.handle(&get("/healthz"));
        assert_eq!(h.status, 200);
        assert!(h.body.contains("\"status\":\"ok\""));
        let m = app.handle(&get("/metrics"));
        assert_eq!(m.status, 200);
        let doc: Value = serde_json::from_str(&m.body).unwrap();
        // (The wire parser reads small numbers back as `Int`. The count
        // is 2: the `/metrics` request itself is tallied before the
        // snapshot is taken.)
        assert_eq!(doc.get("requests_total"), Some(&Value::Int(2)), "healthz was counted");
        assert_eq!(doc.get("workers"), Some(&Value::Int(2)));
    }

    #[test]
    fn optimize_with_defaults_matches_session_run_timing_stripped() {
        let app = App::new(1, 8);
        let resp = app.handle(&post("/optimize", TINY));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let served: Outcome = serde_json::from_str(&resp.body).unwrap();

        let direct =
            Session::default().run(&parse_optimize_request(TINY.as_bytes()).unwrap()).unwrap();
        assert_eq!(served.without_timing(), direct.without_timing());
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let app = App::new(1, 8);
        let cold = app.handle(&post("/optimize", TINY));
        assert_eq!(app.runtime.outcomes().stats().hits, 0);
        // Different key order and spelled-out defaults — still the same
        // canonical request.
        let reordered = format!(
            r#"{{"strategy": {{"Exhaustive": {{"max_evals": 500, "step": 4}}}},
                "cache": {{"assoc": 1, "size": 256, "line": 16}},
                "nest": {{"Kernel": {{"size": 12, "name": "T2D"}}}},
                "ga": {ga}}}"#,
            ga = serde_json::to_string(&GaConfig::default()).unwrap()
        );
        let hot = app.handle(&post("/optimize", &reordered));
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(app.runtime.outcomes().stats().hits, 1);
        let a: Outcome = serde_json::from_str(&cold.body).unwrap();
        let b: Outcome = serde_json::from_str(&hot.body).unwrap();
        assert_eq!(a.without_timing(), b.without_timing());
    }

    #[test]
    fn inline_nests_share_one_canonical_cache_entry() {
        // The outcome cache is keyed by the canonical re-serialised
        // request; that must cover inline nests too, so spelling variants
        // of one inline kernel (key order, spelled-out defaults) collapse
        // to a single entry.
        let app = App::new(1, 8);
        let inline = r#"{
            "nest": {"Inline": {
                "name": "tiny",
                "loops": [{"name": "i", "lo": 1, "hi": 8}],
                "arrays": [{"name": "x", "extents": [8], "elem_size": 4,
                            "layout": "ColumnMajor"}],
                "refs": [{"array": 0, "subscripts": [{"coeffs": [1], "c0": 0}],
                          "access": "Write"}]
            }},
            "cache": {"size": 256, "line": 16, "assoc": 1},
            "strategy": {"Exhaustive": {"step": 1, "max_evals": 100}}
        }"#;
        let cold = app.handle(&post("/optimize", inline));
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(app.runtime.outcomes().stats().hits, 0);
        let respelled = r#"{
            "strategy": {"Exhaustive": {"max_evals": 100, "step": 1}},
            "cache": {"assoc": 1, "line": 16, "size": 256},
            "nest": {"Inline": {
                "refs": [{"access": "Write", "array": 0,
                          "subscripts": [{"c0": 0, "coeffs": [1]}]}],
                "arrays": [{"layout": "ColumnMajor", "elem_size": 4,
                            "extents": [8], "name": "x"}],
                "loops": [{"hi": 8, "lo": 1, "name": "i"}],
                "name": "tiny"
            }}
        }"#;
        let hot = app.handle(&post("/optimize", respelled));
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(
            app.runtime.outcomes().stats().hits,
            1,
            "inline spelling variants share one key"
        );
        assert_eq!(app.runtime.outcomes().stats().entries, 1);
        let a: Outcome = serde_json::from_str(&cold.body).unwrap();
        let b: Outcome = serde_json::from_str(&hot.body).unwrap();
        assert_eq!(a.without_timing(), b.without_timing());
        assert_eq!(a.kernel, "tiny");
    }

    #[test]
    fn api_errors_map_to_http_statuses() {
        let app = App::new(1, 8);
        let unknown = app.handle(&post(
            "/optimize",
            r#"{"nest": {"Kernel": {"name": "NOPE", "size": null}}, "strategy": "Tiling"}"#,
        ));
        assert_eq!(unknown.status, 404, "{}", unknown.body);
        assert!(unknown.body.contains("UnknownKernel"));

        let too_large = app.handle(&post(
            "/optimize",
            r#"{"nest": {"Kernel": {"name": "T2D", "size": 64}},
                "strategy": {"Exhaustive": {"step": 1, "max_evals": 2}}}"#,
        ));
        assert_eq!(too_large.status, 422, "{}", too_large.body);

        assert_eq!(app.handle(&post("/optimize", "not json")).status, 400);
        assert_eq!(app.handle(&post("/optimize", "[1,2]")).status, 400);
    }

    #[test]
    fn unknown_routes_and_methods_are_refused() {
        let app = App::new(1, 8);
        assert_eq!(app.handle(&get("/nope")).status, 404);
        assert_eq!(app.handle(&get("/optimize")).status, 405);
        assert_eq!(app.handle(&post("/metrics", "")).status, 405);
        let m = app.handle(&get("/metrics"));
        let doc: Value = serde_json::from_str(&m.body).unwrap();
        assert_eq!(doc.get("errors_total"), Some(&Value::Int(3)));
    }

    #[test]
    fn batch_mixes_cache_hits_errors_and_fresh_runs() {
        let app = App::new(1, 8);
        app.handle(&post("/optimize", TINY)); // warm one entry
                                              // Slot 3 duplicates slot 2's cold request: the dedup pass must run
                                              // the search once and fan the outcome out to both slots.
        let fresh = r#"{"nest": {"Kernel": {"name": "T2D", "size": 8}},
                        "cache": {"size": 256, "line": 16, "assoc": 1},
                        "strategy": {"Exhaustive": {"step": 4, "max_evals": 500}}}"#;
        let body = format!(
            r#"[{TINY},
                {{"nest": {{"Kernel": {{"name": "NOPE", "size": null}}}}, "strategy": "Tiling"}},
                {fresh}, {fresh}]"#
        );
        let resp = app.handle(&post("/batch", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let results: Vec<Value> = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(results.len(), 4);
        assert!(results[0].get("strategy").is_some(), "slot 0 is an outcome");
        assert!(results[1].get("error").is_some(), "slot 1 is an error");
        assert!(results[2].get("strategy").is_some(), "slot 2 is an outcome");
        assert_eq!(results[2], results[3], "duplicate slots share one search's outcome");
        assert_eq!(app.runtime.outcomes().stats().hits, 1, "slot 0 came from the cache");

        // The batch's (deduplicated) fresh run is now cached too.
        assert_eq!(app.runtime.outcomes().stats().entries, 2);
    }

    #[test]
    fn lattice_estimator_answers_400_on_every_route() {
        // The removed backend is an unknown variant: each route's parse
        // path answers its own 400, nothing is computed, and the same app
        // keeps serving valid requests.
        let app = App::new(1, 8);
        let lattice = TINY.replacen('{', r#"{"estimator": "lattice","#, 1);
        let compare = format!(r#"{{"base": {lattice}, "strategies": ["oblivious"]}}"#);
        let batch = format!("[{TINY}, {lattice}]");
        for (path, body, needle) in [
            ("/optimize", lattice.as_str(), "bad optimize request"),
            ("/compare", compare.as_str(), "bad compare request"),
            ("/batch", batch.as_str(), "bad request at index 1"),
        ] {
            let resp = app.handle(&post(path, body));
            assert_eq!(resp.status, 400, "{path}: {}", resp.body);
            assert!(resp.body.contains(needle), "{path}: {}", resp.body);
            assert!(resp.body.contains("unknown variant `lattice`"), "{path}: {}", resp.body);
        }
        assert_eq!(
            app.runtime.outcomes().stats().entries,
            0,
            "a rejected request computes nothing"
        );

        // A spelled-out `"cme"` is served, and shares the absent form's
        // cache entry.
        let spelled = TINY.replacen('{', r#"{"estimator": "cme","#, 1);
        let cold = app.handle(&post("/optimize", &spelled));
        assert_eq!(cold.status, 200, "{}", cold.body);
        let hot = app.handle(&post("/optimize", TINY));
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(app.runtime.outcomes().stats().hits, 1);
        assert_eq!(app.runtime.outcomes().stats().entries, 1);
    }

    #[test]
    fn compare_ranks_families_and_caches_the_tournament() {
        let app = App::new(1, 8);
        // GA-free line-up keeps the test fast; tokens and a spelled-out
        // spec may mix freely in one array.
        let body = r#"{
            "base": {"nest": {"Kernel": {"name": "MM", "size": 24}},
                     "cache": {"size": 256, "line": 16, "assoc": 1}},
            "strategies": ["oblivious", "latency", {"Baseline": {"kind": "LrwSquare"}}]
        }"#;
        let cold = app.handle(&post("/compare", body));
        assert_eq!(cold.status, 200, "{}", cold.body);
        let out: cme_api::CompareOutcome = serde_json::from_str(&cold.body).unwrap();
        assert_eq!(out.kernel, "MM_24");
        assert_eq!(out.entries.len(), 3);
        for pair in out.entries.windows(2) {
            assert!(pair[0].weighted_cost <= pair[1].weighted_cost, "ranked ascending");
        }
        assert!(out.winner < 3);
        // All entries share one canonical baseline, byte-for-byte.
        let shared = serde_json::to_string(&out.entries[0].outcome.before).unwrap();
        for entry in &out.entries {
            assert_eq!(serde_json::to_string(&entry.outcome.before).unwrap(), shared);
        }
        // The per-family outcomes warmed the optimize cache...
        assert_eq!(app.runtime.outcomes().stats().entries, 3);
        // ...and the repeat answers from the compare memo.
        assert_eq!(app.runtime.compares().hits(), 0);
        let hot = app.handle(&post("/compare", body));
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(app.runtime.compares().hits(), 1);
        let rerun: cme_api::CompareOutcome = serde_json::from_str(&hot.body).unwrap();
        assert_eq!(out.without_timing(), rerun.without_timing());
    }

    #[test]
    fn compare_defaults_fill_the_standard_line_up() {
        let req =
            parse_compare_request(br#"{"base": {"nest": {"Kernel": {"name": "MM", "size": 32}}}}"#)
                .unwrap();
        let names: Vec<String> = req.strategies.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["tiling", "oblivious", "latency", "baseline:lrw"]);
        assert_eq!(req.base.strategy, cme_api::StrategySpec::Tiling);
        assert_eq!(req.base.cache, CacheSpec::paper_8k().into());
    }

    #[test]
    fn compare_rejects_bad_tokens_and_empty_line_ups() {
        let app = App::new(1, 8);
        let bad = app.handle(&post(
            "/compare",
            r#"{"base": {"nest": {"Kernel": {"name": "MM", "size": 24}}},
                "strategies": ["nope"]}"#,
        ));
        assert_eq!(bad.status, 400, "{}", bad.body);
        let empty = app.handle(&post(
            "/compare",
            r#"{"base": {"nest": {"Kernel": {"name": "MM", "size": 24}}},
                "strategies": []}"#,
        ));
        assert_eq!(empty.status, 400, "{}", empty.body);
        assert!(empty.body.contains("at least one strategy"), "{}", empty.body);
        assert_eq!(app.handle(&get("/compare")).status, 405);
    }

    #[test]
    fn shutdown_route_sets_the_flag() {
        let app = App::new(1, 8);
        assert!(!app.shutdown_requested());
        let resp = app.handle(&post("/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(app.shutdown_requested());
    }

    #[test]
    fn lint_answers_and_caches() {
        let app = App::new(1, 8);
        let body = r#"{"nest": {"Kernel": {"name": "T2D", "size": 64}}}"#;
        let cold = app.handle(&post("/lint", body));
        assert_eq!(cold.status, 200, "{}", cold.body);
        let out: cme_api::LintOutcome = serde_json::from_str(&cold.body).unwrap();
        assert!(out.legality.rectangular_tiling);
        assert!(out.diagnostics.iter().any(|d| d.code == "no-reuse"), "{}", cold.body);
        assert_eq!(app.runtime.lints().hits(), 0);

        // Same request with the default cache spelled out: one entry.
        let spelled = format!(
            r#"{{"cache": {cache}, "nest": {{"Kernel": {{"size": 64, "name": "T2D"}}}}}}"#,
            cache = serde_json::to_string(&CacheSpec::paper_8k()).unwrap()
        );
        let hot = app.handle(&post("/lint", &spelled));
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(app.runtime.lints().hits(), 1);
        assert_eq!(app.runtime.lints().stats().entries, 1);
        let a: cme_api::LintOutcome = serde_json::from_str(&cold.body).unwrap();
        let b: cme_api::LintOutcome = serde_json::from_str(&hot.body).unwrap();
        assert_eq!(a.without_timing(), b.without_timing());
    }

    #[test]
    fn lint_maps_api_errors_like_the_other_routes() {
        let app = App::new(1, 8);
        let unknown =
            app.handle(&post("/lint", r#"{"nest": {"Kernel": {"name": "NOPE", "size": null}}}"#));
        assert_eq!(unknown.status, 404, "{}", unknown.body);
        assert!(unknown.body.contains("UnknownKernel"));
        assert_eq!(app.handle(&post("/lint", "not json")).status, 400);
        assert_eq!(app.handle(&get("/lint")).status, 405);
    }

    /// `(hits, misses, entries)` of the request-body alias.
    fn alias_counts(app: &App) -> (u64, u64, usize) {
        let stats = app.runtime.aliases().stats();
        (stats.hits, stats.misses, stats.entries)
    }

    /// A body's answer with its stamp zeroed.
    fn unstamped(body: &str) -> Outcome {
        serde_json::from_str::<Outcome>(body).unwrap().without_timing()
    }

    #[test]
    fn spelling_variants_share_one_answer_and_repeats_are_recalled() {
        let app = App::new(1, 8);
        let cold = app.handle(&post("/optimize", TINY));
        let variants = [
            TINY.to_string(),
            // Key order.
            r#"{"strategy": {"Exhaustive": {"max_evals": 500, "step": 4}},
                "cache": {"assoc": 1, "size": 256, "line": 16},
                "nest": {"Kernel": {"size": 12, "name": "T2D"}}}"#
                .to_string(),
            // Whitespace.
            TINY.split_whitespace().collect::<String>(),
            // A default spelled out.
            TINY.replacen(
                '{',
                &format!(r#"{{"ga": {},"#, serde_json::to_string(&GaConfig::default()).unwrap()),
                1,
            ),
        ];
        for body in &variants {
            // The first send parses and hits the memo, which writes the
            // alias; the byte-identical second is recalled through it.
            for _ in 0..2 {
                let hot = app.handle(&post("/optimize", body));
                assert_eq!(hot.status, 200, "{}", hot.body);
                assert_eq!(unstamped(&hot.body), unstamped(&cold.body));
            }
        }
        let n = variants.len();
        assert_eq!(app.runtime.outcomes().stats().entries, 1, "one answer for every spelling");
        assert_eq!(app.runtime.outcomes().stats().hits, 2 * n as u64);
        assert_eq!(alias_counts(&app), (n as u64, n as u64 + 1, n), "one alias per spelling");
    }

    #[test]
    fn rejected_and_miss_only_bodies_write_no_alias() {
        let app = App::new(1, 8);
        let rejected = [
            "not json",
            r#"{"nest": {"Kernel": {"name": "NOPE", "size": null}}, "strategy": "Tiling"}"#,
            r#"{"nest": {"Kernel": {"name": "T2D", "size": 64}},
                "strategy": {"Exhaustive": {"step": 1, "max_evals": 2}}}"#,
        ];
        for body in rejected {
            for _ in 0..2 {
                assert!(app.handle(&post("/optimize", body)).status >= 400);
            }
        }
        // Every request a fresh key: each one computes.
        for evals in 500..504 {
            let body = TINY.replace("500", &evals.to_string());
            assert_eq!(app.handle(&post("/optimize", &body)).status, 200);
        }
        assert_eq!(app.runtime.outcomes().stats().hits, 0);
        assert_eq!(alias_counts(&app).2, 0, "no memo answered, so nothing was aliased");
    }

    #[test]
    fn an_alias_whose_answer_was_evicted_falls_through_to_a_recompute() {
        // One entry per memo: the second request evicts the first answer,
        // but a computed answer writes no alias, so the first alias stays.
        let app = App::new(1, 1);
        let other = TINY.replace("500", "501");
        let cold = app.handle(&post("/optimize", TINY));
        app.handle(&post("/optimize", TINY));
        app.handle(&post("/optimize", &other));
        assert_eq!(alias_counts(&app).2, 1);
        let again = app.handle(&post("/optimize", TINY));
        assert_eq!(again.status, 200, "{}", again.body);
        assert_eq!(unstamped(&again.body), unstamped(&cold.body));
        assert_eq!(alias_counts(&app).0, 1, "the alias was found");
        assert_eq!(app.metrics.optimize_cold_us.count(), 3, "and the answer recomputed");
    }

    #[test]
    fn the_same_bytes_on_two_routes_never_share_an_alias() {
        // A lint request that is also a complete optimize request.
        let body = r#"{"nest": {"Kernel": {"name": "T2D", "size": 12}}, "strategy": "Tiling",
                       "cache": {"size": 256, "line": 16, "assoc": 1}}"#;
        let app = App::new(1, 8);
        for _ in 0..3 {
            let lint = app.handle(&post("/lint", body));
            assert_eq!(lint.status, 200, "{}", lint.body);
            assert!(serde_json::from_str::<cme_api::LintOutcome>(&lint.body).is_ok());
        }
        assert_eq!(alias_counts(&app), (1, 2, 1));
        let optimize = app.handle(&post("/optimize", body));
        assert_eq!(optimize.status, 200, "{}", optimize.body);
        assert!(serde_json::from_str::<Outcome>(&optimize.body).is_ok(), "{}", optimize.body);
        assert_eq!(alias_counts(&app).0, 1, "the /lint alias did not answer /optimize");
        assert_eq!(app.metrics.optimize_cold_us.count(), 1);
    }

    #[test]
    fn oversized_bodies_and_zero_capacity_write_no_alias() {
        let padded = format!("{TINY}{}", " ".repeat(cme_runtime::MAX_ALIASED_BODY));
        let app = App::new(1, 8);
        for _ in 0..3 {
            assert_eq!(app.handle(&post("/optimize", &padded)).status, 200);
        }
        assert_eq!(app.runtime.outcomes().stats().hits, 2, "still answered from the memo");
        assert_eq!(alias_counts(&app), (0, 0, 0), "but never looked up or aliased");

        let app = App::new(1, 0);
        for _ in 0..3 {
            assert_eq!(app.handle(&post("/optimize", TINY)).status, 200);
        }
        assert_eq!(alias_counts(&app).2, 0);
        assert_eq!(app.runtime.aliases().stats().capacity, 0);
    }

    #[test]
    fn unbuildable_registry_sizes_answer_400_on_every_route() {
        // An odd size for a radix-2 BIHAR pass, and arrays past the
        // address-space bound: the kernel's builder refuses both, and
        // every route answers the refusal instead of losing a worker.
        let app = App::new(1, 8);
        for (nest, needle) in [
            (r#"{"Kernel": {"name": "DRADBG2", "size": 13}}"#, "even size, got 13"),
            (r#"{"Kernel": {"name": "MM", "size": 3000000000}}"#, "exceed 2^62 bytes"),
        ] {
            let one = format!(
                r#"{{"nest": {nest}, "cache": {{"size": 256, "line": 16, "assoc": 1}},
                    "strategy": "Tiling"}}"#
            );
            let compare = format!(r#"{{"base": {one}, "strategies": ["oblivious"]}}"#);
            for (path, body) in [
                ("/optimize", one.clone()),
                ("/lint", format!(r#"{{"nest": {nest}}}"#)),
                ("/analyze", format!(r#"{{"nest": {nest}}}"#)),
                ("/compare", compare),
            ] {
                let resp = app.handle(&post(path, &body));
                assert_eq!(resp.status, 400, "{path} {nest}: {}", resp.body);
                assert!(resp.body.contains(needle), "{path}: {}", resp.body);
            }
            let resp = app.handle(&post("/batch", &format!("[{TINY}, {one}]")));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let slots: Vec<Value> = serde_json::from_str(&resp.body).unwrap();
            assert!(slots[0].get("strategy").is_some(), "slot 0 is an outcome");
            let message = slots[1].get("message").and_then(Value::as_str).unwrap_or_default();
            assert!(message.contains(needle), "slot 1: {:?}", slots[1]);
        }
    }

    #[test]
    fn analyze_answers_with_defaults() {
        let app = App::new(1, 8);
        let resp = app.handle(&post(
            "/analyze",
            r#"{"nest": {"Kernel": {"name": "T2D", "size": 16}},
                "cache": {"size": 256, "line": 16, "assoc": 1},
                "exhaustive": true}"#,
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let out: cme_api::AnalyzeOutcome = serde_json::from_str(&resp.body).unwrap();
        assert!(out.exact.is_some());
        assert!(out.miss_ratio() > 0.0);
    }
}
