//! `perfbench` — the repository benchmark. Drives a `cme serve` process
//! over loopback with one seeded workload, checks every answer, and
//! prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics of a traced in-process replay of the same requests). The last
//! line of standard output is the machine-readable result.
//!
//! ```text
//! perfbench --workload cold_tile|near_miss|hot_mixed --seed N --seconds S
//!           --trace 0|1 --cme PATH --work DIR
//! ```
//!
//! `perfbench/run.sh` builds `cme` and this binary and supplies `--cme`
//! and `--work`; see `perfbench/README.md`.

mod check;
mod gen;
mod load;
mod server;
mod stats;
mod trace;

use check::Checker;
use gen::{Typed, Workload};
use serde::Value;
use server::Server;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("server_cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("est_cost_ratio", "ratio"),
    ("sim_cost_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("serve.frame_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.encode_us", "us"),
    ("runtime.key_us", "us"),
    ("runtime.outcome_hit_ratio", "ratio"),
    ("runtime.disk_hit_ratio", "ratio"),
    ("runtime.answer_hit_ratio", "ratio"),
    ("runtime.displacement_hit_ratio", "ratio"),
    ("runtime.coalesced", "count"),
    ("runtime.disk_load_ms", "ms"),
    ("api.resolve_us", "us"),
    ("api.run_ms", "ms"),
    ("analysis.legality_us", "us"),
    ("polyhedra.displacement_solves", "count"),
    ("polyhedra.displacement_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.cost_calls", "count"),
    ("core.cost_us", "us"),
    ("core.cost_busy_ms", "ms"),
    ("core.estimate_us", "us"),
    ("core.solver_queries", "count"),
    ("core.solver_fallbacks", "count"),
    ("ga.evaluations", "count"),
    ("ga.generations", "count"),
    ("ga.memo_hit_ratio", "ratio"),
    ("ga.self_ms", "ms"),
    ("tileopt.oblivious_ms", "ms"),
    ("tileopt.latency_ms", "ms"),
    ("tileopt.latency_probes", "count"),
    ("tileopt.baseline_ms", "ms"),
    ("cachesim.maccess_per_s", "Maccess/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.replayed", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Runs with at least twice this many samples take their tail latency
/// per slice of this many samples or more. A host preemption stall
/// delays every request in flight at once; over a whole run of
/// sub-millisecond requests those stalls, not the server, set p99.9.
/// Slices this size support p99 (50 samples beyond), which a stall
/// barely moves, and the median across slices ignores the slices that
/// hold the rare long ones.
const TAIL_WINDOW_SAMPLES: usize = 5_000;

/// Replayed requests are capped so a traced run stays bounded on the
/// cache-hit workload.
const REPLAY_CAP: usize = 20_000;

/// Cost ratios, each with the number of answers it stands for.
type Ratios = Vec<(f64, u64)>;

/// Per-layer metric values by name.
type Layers = Vec<(&'static str, f64)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cme: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).cloned().ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<f64, String> {
        get(name)?.parse::<f64>().map_err(|e| format!("--{name}: {e}"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = number("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        cme: PathBuf::from(get("cme")?),
        work: PathBuf::from(get("work")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.work.join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run metadata printed with every result, so that numbers from another
/// machine are never compared as-is.
fn metadata(args: &Args) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string();
    // A checkout that is not itself a repository reports no commit, even
    // when it sits inside one.
    let parent = std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf));
    let command = |program: &str, argv: &[&str]| {
        let mut cmd = std::process::Command::new(program);
        if let Some(parent) = &parent {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        cmd.args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("host".into(), Value::Str(read("/proc/sys/kernel/hostname").trim().to_string())),
        ("cpu".into(), Value::Str(cpu)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rustc".into(), Value::Str(command("rustc", &["-V"]))),
        ("commit".into(), Value::Str(command("git", &["rev-parse", "HEAD"]))),
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
    ])
}

fn post_ok(server: &Server, path: &str, body: &str) -> Result<(), String> {
    match cme_serve::HttpClient::connect(server.addr).and_then(|mut c| c.post(path, body)) {
        Ok((200, _)) => Ok(()),
        other => Err(format!("set-up request {path} failed: {other:?} for {body}")),
    }
}

/// Bring up the server the measured phase runs against; returns it with
/// the set-up times observed.
fn set_up(w: &Workload, cme: &Path, work: &Path) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    if w.pool.is_empty() {
        // Spawn to ready over a fresh cache dir, several times.
        let mut kept = None;
        for i in 0..SETUP_REPEATS {
            let (server, took) = Server::spawn(cme, &work.join(format!("cache-{i}")))?;
            times.push(took.as_secs_f64());
            if i + 1 < SETUP_REPEATS {
                server.shutdown()?;
            } else {
                kept = Some(server);
            }
        }
        let server = kept.expect("at least one set-up");
        for r in &w.warm {
            post_ok(&server, r.typed.path(), &r.body)?;
        }
        return Ok((server, times));
    }
    // hot_mixed: one process computes the working set and writes the disk
    // tier on shutdown; each restart over that tier is timed until its
    // first working-set answer.
    let dir = work.join("cache");
    let (first, _) = Server::spawn(cme, &dir)?;
    for r in &w.warm {
        post_ok(&first, r.typed.path(), &r.body)?;
    }
    first.shutdown()?;
    let first_item = &w.warm[0];
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (server, _) = Server::spawn(cme, &dir)?;
        post_ok(&server, first_item.typed.path(), &first_item.body)?;
        times.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            server.shutdown()?;
        } else {
            kept = Some(server);
        }
    }
    let server = kept.expect("at least one set-up");
    // The lint and compare memos are memory-only: fill them once, so the
    // measured phase answers every request from a cache.
    for r in w.warm.iter().filter(|r| !matches!(r.typed, Typed::Optimize(_))) {
        post_ok(&server, r.typed.path(), &r.body)?;
    }
    Ok((server, times))
}

fn coalesced(server: &Server) -> Result<u64, String> {
    let (status, body) = cme_serve::HttpClient::connect(server.addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("/metrics: {e}"))?;
    let doc: Value = serde_json::from_str(&body).map_err(|e| format!("/metrics: {e}"))?;
    let followers = doc.get("coalescing").and_then(|c| c.get("followers"));
    match (status, followers) {
        (200, Some(Value::Int(n))) => Ok(*n as u64),
        (200, Some(Value::UInt(n))) => Ok(*n),
        _ => Err(format!("/metrics answered {status} without coalescing.followers")),
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Check every distinct answer; returns (failed answers, est ratios,
/// sim ratios), the ratios of items below `counted` only, each with the
/// number of answers it stands for.
fn check_answers(
    w: &Workload,
    checker: &mut Checker,
    bodies: &HashMap<usize, HashMap<String, u64>>,
    counted: usize,
) -> (u64, Ratios, Ratios) {
    let mut failed = 0;
    let (mut est, mut sim) = (Vec::new(), Vec::new());
    let mut items: Vec<&usize> = bodies.keys().collect();
    items.sort();
    for item in items {
        let req = w.item_request(*item);
        for (body, &count) in &bodies[item] {
            let verdict = checker.check(&req.typed, body);
            if let Some(why) = verdict.failure {
                failed += count;
                eprintln!(
                    "perfbench: FAILED answer check ({count}x) for {} {}: {why}",
                    req.typed.path(),
                    truncate(&req.body, 400)
                );
            }
            if *item < counted {
                est.extend(verdict.est_ratio.map(|r| (r, count)));
                sim.extend(verdict.sim_ratio.map(|r| (r, count)));
            }
        }
    }
    (failed, est, sim)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.to_string())),
    ])
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    println!("{}", serde_json::to_string(&metadata(args)).map_err(|e| e.to_string())?);
    let w = gen::generate(&args.workload, args.seed)?;
    gen::check_keys(&w)?;
    if w.name == "near_miss" {
        gen::check_warmed(&w)?;
    }

    let (server, setup_times) = set_up(&w, &args.cme, work)?;
    let coalesced_before = coalesced(&server)?;
    let cpu_before = server.cpu_ms()?;
    let load = load::run(&w, server.addr, args.seconds);
    let cpu_ms = server.cpu_ms()? - cpu_before;
    let rss_mb = server.peak_rss_mb()?;
    let coalesced_run = coalesced(&server)? - coalesced_before;
    server.shutdown()?;

    let attempted = load.samples.len() as u64;
    let non_ok: Vec<&load::Sample> =
        load.samples.iter().filter(|s| !matches!(s.status, Ok(200))).collect();
    for s in non_ok.iter().take(5) {
        eprintln!(
            "perfbench: request {} failed: {:?} for {}",
            s.index,
            s.status,
            truncate(&w.request(s.index).body, 400)
        );
    }
    let completed = attempted - non_ok.len() as u64;
    // Latency and answer quality are taken over the complete rounds of
    // the stream, so every run measures the same mix of work.
    let counted = w.complete_rounds(load.samples.len());
    let mut checker = Checker::default();
    let (check_failed, est, sim) = check_answers(&w, &mut checker, &load.bodies, counted);
    let failed = non_ok.len() as u64 + check_failed;

    // Samples are in issue order; long runs take their tail per slice
    // (see `TAIL_WINDOW_SAMPLES`).
    let in_order: Vec<f64> =
        load.samples[..counted].iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    let windows = (in_order.len() / TAIL_WINDOW_SAMPLES).max(1);
    let (tail_p, tail_ms, beyond) = stats::windowed_tail(&in_order, windows);
    let mut latencies = in_order;
    latencies.sort_by(f64::total_cmp);
    let e2e: Vec<(&str, f64)> = vec![
        ("setup_s", stats::median(&setup_times)),
        ("latency_p50_ms", stats::percentile(&latencies, 50.0)),
        ("latency_tail_ms", tail_ms),
        ("throughput_rps", completed as f64 / load.wall.as_secs_f64()),
        ("server_cpu_ms_per_req", cpu_ms / completed.max(1) as f64),
        ("peak_rss_mb", rss_mb),
        ("est_cost_ratio", stats::geomean_weighted(&est)),
        ("sim_cost_ratio", stats::geomean_weighted(&sim)),
    ];
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let unit = |name: &str| END_TO_END.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u);
    let row: Vec<String> = e2e
        .iter()
        .map(|(n, v)| format!("{n}={v:.6} {}", unit(n)))
        .chain([format!("failed_frac={failed_frac:.6} fraction")])
        .collect();
    println!("{}: {}", w.name, row.join(" | "));
    println!(
        "{}: {attempted} requests by {} client(s) over {:.3} s, latency over the first \
         {counted} (complete rounds); latency_tail_ms is p{tail_p} ({beyond} samples beyond it) \
         of each of {windows} slice(s), median across slices; setup_s is the median of {:?} s; \
         cost ratios over {} answers",
        w.name,
        w.clients,
        load.wall.as_secs_f64(),
        setup_times,
        est.iter().map(|(_, n)| n).sum::<u64>(),
    );

    let mut correct = failed == 0 && attempted > 0;
    let metrics = if args.trace {
        let (layers, faithful) = traced_metrics(&w, work, &load, &mut checker, coalesced_run)?;
        correct &= faithful;
        let per_layer: Vec<String> = layers.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
        println!("{} per layer: {}", w.name, per_layer.join(" "));
        layers
            .into_iter()
            .map(|(n, v)| {
                let unit = PER_LAYER.iter().find(|(p, _)| *p == n).map_or("", |(_, u)| u);
                (n.to_string(), metric(v, unit))
            })
            .collect()
    } else {
        e2e.into_iter().map(|(n, v)| (n.to_string(), metric(v, unit(n)))).collect()
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

/// Replay the served requests in-process, untraced and then traced, and
/// derive the per-layer metrics. Returns the metrics and whether every
/// replayed answer matched its reference.
fn traced_metrics(
    w: &Workload,
    work: &Path,
    load: &load::LoadResult,
    checker: &mut Checker,
    coalesced_run: u64,
) -> Result<(Layers, bool), String> {
    let served = load.samples.len().min(REPLAY_CAP);
    let fresh_dir = |tag: &str| work.join(format!("replay-{tag}"));
    let state_dir = |tag: &str| if w.pool.is_empty() { fresh_dir(tag) } else { work.join("cache") };
    let budget = Duration::from_secs_f64((load.wall.as_secs_f64() / 3.0).max(2.0));
    let plain = trace::run(w, trace::prepare(w, &state_dir("plain")), served, false, Some(budget));
    let traced = trace::run(w, trace::prepare(w, &state_dir("traced")), plain.replayed, true, None);

    let mut faithful = true;
    for run in [&plain, &traced] {
        for (k, status) in &run.non_ok {
            faithful = false;
            eprintln!("perfbench: replayed request {k} answered {status}");
        }
        for (item, bodies) in &run.bodies {
            let typed = &w.item_request(*item).typed;
            let want = checker.reference(typed)?;
            for body in bodies.keys() {
                if check::normalise(typed, body).as_deref() != Ok(want.as_str()) {
                    faithful = false;
                    eprintln!(
                        "perfbench: replayed answer differs from Session::run for {} {}",
                        typed.path(),
                        truncate(&w.item_request(*item).body, 400)
                    );
                }
            }
        }
    }

    let spans_file = work.with_file_name(format!("spans-{}.jsonl", w.name));
    trace::write_spans(&spans_file, &traced.spans)
        .map_err(|e| format!("write {}: {e}", spans_file.display()))?;

    // The first lookup of a fresh disk tier builds its index.
    let disk_dir = state_dir("disk-load");
    let started = Instant::now();
    cme_runtime::DiskTier::new(&disk_dir).get("");
    let disk_load_ms = started.elapsed().as_secs_f64() * 1e3;

    let s = trace::span_stats(&traced.spans);
    let n = traced.replayed.max(1) as f64;
    let c = &traced.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let stat = |name: &str| s.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let st = stat(name);
        if st.count == 0 {
            0.0
        } else {
            st.total_ns as f64 / st.count as f64 / 1e3
        }
    };
    let mean_self_us = |name: &str| {
        let st = stat(name);
        if st.count == 0 {
            0.0
        } else {
            st.self_ns as f64 / st.count as f64 / 1e3
        }
    };
    let per_request = |v: f64| v / n;
    let (disp_hits, disp_misses) = traced.displacement;
    let per_req_plain = plain.wall.as_secs_f64() / plain.replayed.max(1) as f64;
    let per_req_traced = traced.wall.as_secs_f64() / n;
    let metrics = vec![
        ("serve.frame_us", mean_us("serve.frame")),
        ("serve.decode_us", mean_us("serve.decode")),
        ("serve.handle_us", mean_us("serve.handle")),
        ("serve.encode_us", mean_us("serve.encode")),
        ("runtime.key_us", mean_us("runtime.key")),
        ("runtime.outcome_hit_ratio", ratio(c.hot_hits + c.disk_hits, c.outcome_lookups)),
        ("runtime.disk_hit_ratio", ratio(c.disk_hits, c.outcome_lookups)),
        ("runtime.answer_hit_ratio", ratio(c.cached_answers, c.answers)),
        ("runtime.displacement_hit_ratio", ratio(disp_hits, disp_hits + disp_misses)),
        ("runtime.coalesced", coalesced_run as f64),
        ("runtime.disk_load_ms", disk_load_ms),
        ("api.resolve_us", mean_us("api.resolve")),
        ("api.run_ms", mean_us("api.run") / 1e3),
        ("analysis.legality_us", mean_us("analysis.legality")),
        ("polyhedra.displacement_solves", per_request(stat("polyhedra.displacement").count as f64)),
        (
            "polyhedra.displacement_ms",
            per_request(stat("polyhedra.displacement").total_ns as f64 / 1e6),
        ),
        ("core.engine_build_ms", mean_self_us("core.engine_build") / 1e3),
        ("core.cost_calls", per_request(stat("core.cost").count as f64)),
        ("core.cost_us", mean_us("core.cost")),
        ("core.cost_busy_ms", per_request(stat("core.cost").total_ns as f64 / 1e6)),
        ("core.estimate_us", mean_us("core.estimate")),
        ("core.solver_queries", ratio(c.solver_queries, c.ga_runs)),
        ("core.solver_fallbacks", ratio(c.solver_fallbacks, c.ga_runs)),
        ("ga.evaluations", ratio(c.ga_evaluations, c.ga_runs)),
        ("ga.generations", ratio(c.ga_generations, c.ga_runs)),
        (
            "ga.memo_hit_ratio",
            if c.ga_slots == 0 { 0.0 } else { 1.0 - c.ga_evaluations as f64 / c.ga_slots as f64 },
        ),
        ("ga.self_ms", mean_self_us("ga.run") / 1e3),
        ("tileopt.oblivious_ms", mean_us("tileopt.oblivious") / 1e3),
        ("tileopt.latency_ms", mean_us("tileopt.latency") / 1e3),
        ("tileopt.latency_probes", ratio(c.latency_probes, c.latency_runs)),
        ("tileopt.baseline_ms", mean_us("tileopt.baseline") / 1e3),
        (
            "cachesim.maccess_per_s",
            checker.sim_accesses as f64 / checker.sim_time.as_secs_f64().max(1e-9) / 1e6,
        ),
        ("trace.overhead_frac", per_req_traced / per_req_plain - 1.0),
        ("trace.replayed", traced.replayed as f64),
    ];
    println!(
        "{}: replayed {} of {} served requests untraced in {:.3} s and traced in {:.3} s \
         ({} spans, written to {}); displacement store {disp_hits} hits / {disp_misses} misses",
        w.name,
        traced.replayed,
        load.samples.len(),
        plain.wall.as_secs_f64(),
        traced.wall.as_secs_f64(),
        traced.spans.len(),
        spans_file.display(),
    );
    Ok((metrics, faithful))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(*name), "metric `{name}` listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
    }

    /// Every metric `BENCHMARK.json` names is one this command emits, with
    /// the same unit, and every emitted metric is named there.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, gen::WORKLOADS);
        for name in &workloads {
            assert!(valid_name(name));
        }
    }
}
