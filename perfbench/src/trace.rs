//! The traced replay: one caller re-answers a workload's served requests
//! in-process, calling each layer's public functions from here and
//! recording a span around every call. For GA-tiling requests the
//! pipeline is taken apart into its stages (frame, decode, key, resolve,
//! legality, engine build, GA, estimates, encode); other families are
//! timed per `Session::run`. Every replayed answer is held to the same
//! reference as the served one, so the spans describe the program that
//! answered.

use crate::gen::{Typed, Workload};
use crate::stats::union_len;
use cme_analysis::{legality_summary, rectangular_tiling_legality};
use cme_api::cme::{DisplacementKey, DisplacementProvider, EstimatorKind, EvalEngine};
use cme_api::{
    AnalyzeRequest, ApiError, CompareOutcome, EstimatorSpec, OptimizeRequest, Outcome, Session,
    StrategySpec, Transform,
};
use cme_ga::{run_ga, Domain, Objective};
use cme_loopnest::deps::TilingLegality;
use cme_loopnest::{MemoryLayout, TileSizes};
use cme_serve::http::{frame_request, write_response, Frame, HttpResponse};
use cme_serve::router::{api_error_status, parse_compare_request, parse_optimize_request};
use cme_serve::{App, ServeConfig};
use cme_tileopt::{GaSummary, TilingObjective};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a span sits: the request it belongs to and its parent span
/// (0 for a request's root).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub request: usize,
    pub parent: usize,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: usize,
    pub request: usize,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

/// Spans kept in memory until the replay ends. While off, `span` only
/// runs its closure.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the context its
    /// own children use.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx { request: ctx.request, parent: id });
        let end = self.now();
        let span = Span { id, parent: ctx.parent, request: ctx.request, name, start, end };
        self.spans.lock().expect("span lock").push(span);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// The runtime's displacement store behind a span per enumeration: the
/// benchmark-side provider every replayed engine is built with.
struct TimedDisplacements {
    app: Arc<App>,
    tracer: Arc<Tracer>,
    ctx: Mutex<Ctx>,
}

impl TimedDisplacements {
    fn enter(&self, ctx: Ctx) {
        *self.ctx.lock().expect("ctx lock") = ctx;
    }
}

impl DisplacementProvider for TimedDisplacements {
    fn get_or_compute(
        &self,
        key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>> {
        let ctx = *self.ctx.lock().expect("ctx lock");
        self.app.runtime.displacements().get_or_compute(key, &mut || {
            self.tracer.span("polyhedra.displacement", ctx, |_| compute())
        })
    }
}

/// The GA objective behind a span per cost evaluation (evaluations run
/// on the rayon pool, so spans of one GA overlap).
struct TimedObjective<'a> {
    inner: &'a TilingObjective<'a>,
    tracer: &'a Tracer,
    ctx: Ctx,
}

impl Objective for TimedObjective<'_> {
    fn cost(&self, values: &[i64]) -> f64 {
        self.tracer.span("core.cost", self.ctx, |_| self.inner.cost(values))
    }

    fn cost_with_incumbent(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        self.tracer
            .span("core.cost", self.ctx, |_| self.inner.cost_with_incumbent(values, incumbent))
    }
}

/// Counts taken where the work happens, beside the spans.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub answers: u64,
    /// Answers served from a memo (outcome, compare or lint cache)
    /// without computing.
    pub cached_answers: u64,
    pub outcome_lookups: u64,
    pub hot_hits: u64,
    pub disk_hits: u64,
    pub ga_runs: u64,
    pub ga_evaluations: u64,
    pub ga_generations: u64,
    /// Σ population × generations: the evaluations a memo-free GA would
    /// have made.
    pub ga_slots: u64,
    pub solver_queries: u64,
    pub solver_fallbacks: u64,
    pub latency_runs: u64,
    pub latency_probes: u64,
}

/// In-process serving state: an [`App`] configured like `cme serve`,
/// and a session whose engines draw from the app's displacement store
/// through [`TimedDisplacements`].
pub struct Replay {
    app: Arc<App>,
    session: Session,
    provider: Arc<TimedDisplacements>,
    pub tracer: Arc<Tracer>,
    pub counters: Counters,
}

fn error_response(e: &ApiError) -> HttpResponse {
    HttpResponse::error(api_error_status(e), &e.to_string())
}

fn json_response<T: serde::Serialize>(value: &T) -> HttpResponse {
    match serde_json::to_string(value) {
        Ok(body) => HttpResponse::json(200, body),
        Err(e) => HttpResponse::error(500, &format!("response serialisation failed: {e}")),
    }
}

/// A routed answer awaiting the encode step.
enum Answer {
    Optimize(Outcome),
    Compare(CompareOutcome),
    Analyze(cme_api::AnalyzeOutcome),
}

/// The span naming a non-GA family's search.
fn family_span(strategy: &StrategySpec) -> &'static str {
    match strategy {
        StrategySpec::CacheOblivious => "tileopt.oblivious",
        StrategySpec::LatencyBased => "tileopt.latency",
        StrategySpec::Baseline { .. } => "tileopt.baseline",
        _ => "tileopt.other",
    }
}

impl Replay {
    pub fn new(cache_dir: Option<&Path>) -> Replay {
        let config = ServeConfig {
            workers: 2,
            cache_dir: cache_dir.map(Path::to_path_buf),
            ..ServeConfig::default()
        };
        let app = Arc::new(App::with_runtime(config.workers, &config.runtime_config()));
        let tracer = Arc::new(Tracer::new());
        let provider = Arc::new(TimedDisplacements {
            app: Arc::clone(&app),
            tracer: Arc::clone(&tracer),
            ctx: Mutex::new(Ctx::default()),
        });
        let session = Session::builder().displacement_provider(Arc::clone(&provider) as _).build();
        Replay { app, session, provider, tracer, counters: Counters::default() }
    }

    /// Displacement-store (hits, misses) so far.
    pub fn displacement_counts(&self) -> (u64, u64) {
        let d = self.app.runtime.displacements();
        (d.hits(), d.misses())
    }

    /// Answer one raw HTTP request as `cme serve` would, returning the
    /// response.
    pub fn answer(&mut self, request: usize, raw: &[u8]) -> HttpResponse {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("request", Ctx { request, parent: 0 }, |ctx| {
            let http = match tracer.span("serve.frame", ctx, |_| frame_request(raw, 1 << 20)) {
                Frame::Ready { req, .. } => req,
                other => return HttpResponse::error(400, &format!("unframed request: {other:?}")),
            };
            self.counters.answers += 1;
            let started = Instant::now();
            let answer = match http.path.as_str() {
                "/optimize" => self.optimize(ctx, &http.body).map(Answer::Optimize),
                "/compare" => self.compare(ctx, &http.body).map(Answer::Compare),
                "/analyze" => self.analyze(ctx, &http.body).map(Answer::Analyze),
                _ => {
                    let hits = self.app.runtime.lints().hits();
                    let resp = tracer.span("serve.handle", ctx, |_| self.app.handle(&http));
                    if self.app.runtime.lints().hits() > hits {
                        self.counters.cached_answers += 1;
                    }
                    Err(resp)
                }
            };
            // Serialisation (for the routes replayed stage by stage) and
            // the response write form the encode step.
            tracer.span("serve.encode", ctx, |_| {
                let resp = match answer {
                    Ok(Answer::Optimize(mut out)) => {
                        out.wall_ms = started.elapsed().as_millis() as u64;
                        json_response(&out)
                    }
                    Ok(Answer::Compare(mut out)) => {
                        out.wall_ms = started.elapsed().as_millis() as u64;
                        json_response(&out)
                    }
                    Ok(Answer::Analyze(out)) => json_response(&out),
                    Err(resp) => resp,
                };
                let mut wire = Vec::with_capacity(resp.body.len() + 128);
                write_response(&mut wire, &resp, http.keep_alive())
                    .expect("writing to memory cannot fail");
                resp
            })
        })
    }

    fn optimize(&mut self, ctx: Ctx, body: &[u8]) -> Result<Outcome, HttpResponse> {
        let tracer = Arc::clone(&self.tracer);
        let req = tracer.span("serve.decode", ctx, |_| parse_optimize_request(body))?;
        tracer.span("serve.handle", ctx, |ctx| {
            let key = tracer.span("runtime.key", ctx, |_| cme_runtime::canonical_key(&req));
            match self.lookup(ctx, &key) {
                Some(out) => {
                    self.counters.cached_answers += 1;
                    Ok(out)
                }
                None => {
                    let out = self.compute(ctx, &req).map_err(|e| error_response(&e))?;
                    tracer.span("runtime.insert", ctx, |_| {
                        self.app.runtime.outcomes().insert(key, &out)
                    });
                    Ok(out.without_timing())
                }
            }
        })
    }

    fn lookup(&mut self, ctx: Ctx, key: &str) -> Option<Outcome> {
        let found = self
            .tracer
            .span("runtime.lookup", ctx, |_| self.app.runtime.outcomes().get_tiered(key));
        self.counters.outcome_lookups += 1;
        found.map(|(out, tier)| {
            match tier {
                cme_runtime::Tier::Hot => self.counters.hot_hits += 1,
                cme_runtime::Tier::Disk => self.counters.disk_hits += 1,
            }
            out
        })
    }

    fn compare(&mut self, ctx: Ctx, body: &[u8]) -> Result<CompareOutcome, HttpResponse> {
        let tracer = Arc::clone(&self.tracer);
        let req = tracer.span("serve.decode", ctx, |_| parse_compare_request(body))?;
        tracer.span("serve.handle", ctx, |ctx| {
            let key = tracer.span("runtime.key", ctx, |_| cme_runtime::canonical_compare_key(&req));
            let hit = tracer.span("runtime.lookup", ctx, |_| self.app.runtime.compares().get(&key));
            if let Some(hit) = hit {
                self.counters.cached_answers += 1;
                return Ok(hit);
            }
            if req.strategies.is_empty() {
                return Err(HttpResponse::error(
                    400,
                    "compare request needs at least one strategy",
                ));
            }
            let mut outcomes = Vec::with_capacity(req.strategies.len());
            for k in 0..req.strategies.len() {
                let entrant = req.entrant(k);
                let ekey =
                    tracer.span("runtime.key", ctx, |_| cme_runtime::canonical_key(&entrant));
                let out = match self.lookup(ctx, &ekey) {
                    Some(out) => out,
                    None => {
                        let out = self.compute(ctx, &entrant).map_err(|e| error_response(&e))?;
                        tracer.span("runtime.insert", ctx, |_| {
                            self.app.runtime.outcomes().insert(ekey, &out)
                        });
                        out.without_timing()
                    }
                };
                outcomes.push(out);
            }
            let ranked = CompareOutcome::rank(outcomes, 0);
            tracer
                .span("runtime.insert", ctx, |_| self.app.runtime.compares().insert(key, &ranked));
            Ok(ranked)
        })
    }

    fn analyze(&mut self, ctx: Ctx, body: &[u8]) -> Result<cme_api::AnalyzeOutcome, HttpResponse> {
        let tracer = Arc::clone(&self.tracer);
        let req: AnalyzeRequest = tracer
            .span("serve.decode", ctx, |_| {
                std::str::from_utf8(body)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            })
            .map_err(|e| HttpResponse::error(400, &format!("bad analyze request: {e}")))?;
        tracer.span("serve.handle", ctx, |ctx| {
            tracer.span("api.analyze", ctx, |ctx| {
                self.provider.enter(ctx);
                self.session.analyze(&req).map_err(|e| error_response(&e))
            })
        })
    }

    /// Compute an outcome-cache miss: the GA pipeline stage by stage for
    /// sampled GA tiling, `Session::run` for every other family.
    fn compute(&mut self, ctx: Ctx, req: &OptimizeRequest) -> Result<Outcome, ApiError> {
        let tracer = Arc::clone(&self.tracer);
        if req.strategy == StrategySpec::Tiling && req.estimator() == EstimatorSpec::cme {
            return tracer.span("api.run", ctx, |ctx| self.ga_pipeline(ctx, req));
        }
        let out = tracer.span("api.run", ctx, |ctx| {
            tracer.span(family_span(&req.strategy), ctx, |ctx| {
                self.provider.enter(ctx);
                self.session.run(req)
            })
        })?;
        if req.strategy == StrategySpec::LatencyBased {
            self.counters.latency_runs += 1;
            self.counters.latency_probes += out.explored.unwrap_or(0);
        }
        Ok(out)
    }

    /// `Session::run` for GA tiling, one public call per stage.
    fn ga_pipeline(&mut self, ctx: Ctx, req: &OptimizeRequest) -> Result<Outcome, ApiError> {
        let tracer = Arc::clone(&self.tracer);
        let started = Instant::now();
        let nest = tracer.span("api.resolve", ctx, |_| {
            let nest = req.nest.resolve()?;
            cme_api::validate_cache(&req.cache)?;
            Ok::<_, ApiError>(nest)
        })?;
        let layout = MemoryLayout::contiguous(&nest);
        let legality = tracer.span("analysis.legality", ctx, |_| {
            if let TilingLegality::Illegal { reason } = rectangular_tiling_legality(&nest) {
                return Err(ApiError::IllegalTransform(format!(
                    "tiling `{}` is illegal: {reason}",
                    nest.name
                )));
            }
            Ok(legality_summary(&nest))
        })?;
        let engine = tracer.span("core.engine_build", ctx, |ctx| {
            self.provider.enter(ctx);
            EvalEngine::new_hierarchy_shared(
                &req.cache,
                &nest,
                &layout,
                req.sampling,
                req.ga.seed,
                Some(Arc::clone(&self.provider) as Arc<dyn DisplacementProvider>),
            )
        });
        let backend = EstimatorKind::Cme.build(&engine);
        let objective = TilingObjective::new(backend.as_ref());
        let ga = tracer.span("ga.run", ctx, |ctx| {
            let timed = TimedObjective { inner: &objective, tracer: &tracer, ctx };
            run_ga(&Domain::new(nest.spans()), &timed, &req.ga)
        });
        let tiles = TileSizes(ga.best_values.clone());
        let before = tracer.span("core.estimate", ctx, |_| objective.estimate_untiled());
        let after = tracer.span("core.estimate", ctx, |_| objective.estimate(&tiles));
        let c = &mut self.counters;
        c.ga_runs += 1;
        c.ga_evaluations += ga.evaluations;
        c.ga_generations += u64::from(ga.generations);
        c.ga_slots += req.ga.population as u64 * u64::from(ga.generations);
        c.solver_queries += before.solver.queries + after.solver.queries;
        c.solver_fallbacks += before.solver.fallbacks + after.solver.fallbacks;
        Ok(Outcome {
            strategy: StrategySpec::Tiling.name(),
            kernel: nest.name.clone(),
            cache: req.cache.clone(),
            transform: Transform::tiles(tiles),
            before,
            after,
            ga: Some(GaSummary::from(&ga)),
            explored: None,
            legality: Some(legality),
            wall_ms: started.elapsed().as_millis() as u64,
        })
    }
}

/// One replay's raw results.
pub struct ReplayRun {
    pub wall: Duration,
    pub replayed: usize,
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// Displacement-store hits and misses during the replayed requests.
    pub displacement: (u64, u64),
    /// Distinct `200` bodies per workload item, as in the load result.
    pub bodies: HashMap<usize, HashMap<String, u64>>,
    /// Requests answered with another status.
    pub non_ok: Vec<(usize, u16)>,
}

/// The raw HTTP bytes `cme_serve::HttpClient` sends for a request.
pub fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: cme-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Build a fresh replay state for `w` the way the served run's set-up
/// built the server's: `cold_tile` starts empty, `near_miss` runs its
/// warm requests, `hot_mixed` opens the disk tier an earlier server
/// wrote and answers its `/lint` and `/compare` items once.
pub fn prepare(w: &Workload, cache_dir: &Path) -> Replay {
    let mut replay = Replay::new(Some(cache_dir));
    let warm: Vec<&crate::gen::GenRequest> = if w.pool.is_empty() {
        w.warm.iter().collect()
    } else {
        w.warm.iter().filter(|r| !matches!(r.typed, Typed::Optimize(_))).collect()
    };
    for r in warm {
        replay.answer(0, &raw_request(r.typed.path(), &r.body));
    }
    replay.counters = Counters::default();
    replay
}

/// Replay the first `count` measured requests of `w` (stopping early at
/// `budget` when given), traced or not.
pub fn run(
    w: &Workload,
    mut replay: Replay,
    count: usize,
    traced: bool,
    budget: Option<Duration>,
) -> ReplayRun {
    let raws: Vec<Vec<u8>> =
        (0..count).map(|k| raw_request(w.request(k).typed.path(), &w.request(k).body)).collect();
    let (hits0, misses0) = replay.displacement_counts();
    let mut bodies: HashMap<usize, HashMap<String, u64>> = HashMap::new();
    let mut non_ok = Vec::new();
    replay.tracer.set(traced);
    let started = Instant::now();
    let mut replayed = 0;
    for (k, raw) in raws.iter().enumerate() {
        if budget.is_some_and(|b| started.elapsed() >= b) {
            break;
        }
        let resp = replay.answer(k + 1, raw);
        if resp.status == 200 {
            let per_item = bodies.entry(w.item(k)).or_default();
            match per_item.get_mut(resp.body.as_str()) {
                Some(n) => *n += 1,
                None => {
                    per_item.insert(resp.body, 1);
                }
            }
        } else {
            non_ok.push((k, resp.status));
        }
        replayed += 1;
    }
    let wall = started.elapsed();
    replay.tracer.set(false);
    let (hits1, misses1) = replay.displacement_counts();
    ReplayRun {
        wall,
        replayed,
        spans: replay.tracer.take(),
        counters: replay.counters.clone(),
        displacement: (hits1 - hits0, misses1 - misses0),
        bodies,
        non_ok,
    }
}

/// Write spans as JSON lines: `{"id", "parent", "request", "name",
/// "start_ns", "end_ns"}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Per-name span statistics: occurrences, total duration and total self
/// duration (duration minus the union of its children), in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut stats: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let dur = s.end - s.start;
        let covered = children.get(&s.id).map_or(0, |c| union_len(c));
        let e = stats.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, name, start, end| Span { id, parent, request: 1, name, start, end };
        // A 100 ns parent with two overlapping children covering 10..60
        // and a grandchild that must not count against the parent.
        let spans = vec![
            span(1, 0, "parent", 0, 100),
            span(2, 1, "child", 10, 40),
            span(3, 1, "child", 30, 60),
            span(4, 2, "grandchild", 15, 20),
        ];
        let stats = span_stats(&spans);
        assert_eq!(stats["parent"].self_ns, 50);
        assert_eq!(stats["parent"].total_ns, 100);
        assert_eq!(stats["child"].count, 2);
        assert_eq!(stats["child"].self_ns, 25 + 30);
        assert_eq!(stats["grandchild"].self_ns, 5);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", Ctx::default(), |_| 7), 7);
        assert!(t.take().is_empty());
        t.set(true);
        t.span("x", Ctx::default(), |ctx| t.span("y", ctx, |_| ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let (y, x) = (&spans[0], &spans[1]);
        assert_eq!((x.name, y.name), ("x", "y"));
        assert_eq!(y.parent, x.id);
    }
}
