//! Service throughput: requests/second through a real `cme serve`
//! loopback server across three temperatures:
//!
//! * **cold** — every request is a distinct kernel geometry, so both the
//!   outcome cache and the process-wide displacement cache miss and the
//!   GA pays full CME price;
//! * **near-miss** — one kernel/cache repeated with varying GA seeds:
//!   every canonical request is new (outcome-cache miss) but the
//!   searches re-evaluate overlapping candidate tilings, so the shared
//!   displacement cache answers the Diophantine half;
//! * **hot** — one canonical request repeated; the sharded outcome LRU
//!   answers without running anything.
//!
//! Writes `BENCH_serve.json` so all three rows are tracked across PRs
//! (skipped with `--no-write`, the CI smoke mode).
//!
//! With `--assert-baseline` the run additionally reads the recorded
//! `BENCH_serve.json` and **fails** (exit 1) when the hot-path (outcome-
//! cache-served) throughput drops more than the tolerance below the
//! recorded `hot.requests_per_sec` figure — the CI bench-regression gate
//! that caught the IO driver's timer-tick stall. `--tolerance FRAC`
//! adjusts the allowed drop (default 0.50: loopback rps under a shared
//! CI box is noisy, and the regression this guards was a 14× drop).
//!
//! ```text
//! cargo run --release -p cme-bench --bin serve_throughput \
//!     [--no-write] [--assert-baseline] [--tolerance FRAC]
//! ```

use cme_api::{NestSource, OptimizeRequest, StrategySpec};
use cme_core::{CacheSpec, SamplingConfig};
use cme_serve::{HttpClient, ServeConfig};
use std::time::{Duration, Instant};

const COLD_REQUESTS: usize = 16;
const NEAR_MISS_REQUESTS: usize = 48;
const HOT_REQUESTS: usize = 2_000;
const CLIENTS: usize = 4;

/// The near-miss/hot kernel side; cold sizes are picked disjoint from it.
const BASE_SIZE: i64 = 128;

/// A displacement-heavy tiling search: a long-line L2-style cache makes
/// the Diophantine enumeration (`original_displacements`) the dominant
/// cost of a fresh request, while a lean GA budget keeps the
/// classification half small. This is the regime the process-wide
/// displacement cache exists for.
fn request(size: i64, seed: u64) -> String {
    let mut req = OptimizeRequest::new(NestSource::kernel_sized("MM", size), StrategySpec::Tiling)
        .with_cache(CacheSpec { size: 32_768, line: 256, assoc: 1 })
        .with_sampling(SamplingConfig::fixed(32))
        .with_seed(seed);
    req.ga.population = 10;
    req.ga.min_generations = 2;
    req.ga.max_generations = 4;
    serde_json::to_string(&req).expect("requests serialise")
}

struct Phase {
    label: &'static str,
    requests: usize,
    wall: Duration,
}

impl Phase {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }

    fn mean_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3 / self.requests as f64
    }

    fn json(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("requests".into(), serde::Value::UInt(self.requests as u64)),
            ("wall_ms".into(), serde::Value::Float(self.wall.as_secs_f64() * 1e3)),
            ("requests_per_sec".into(), serde::Value::Float(self.rps())),
            ("mean_ms".into(), serde::Value::Float(self.mean_ms())),
        ])
    }

    fn print(&self) {
        println!(
            "{:<9}: {:>5} requests in {:>8.1} ms  → {:>9.1} req/s  ({:.3} ms/request)",
            self.label,
            self.requests,
            self.wall.as_secs_f64() * 1e3,
            self.rps(),
            self.mean_ms()
        );
    }
}

/// Fire `bodies` at the server round-robin over `CLIENTS` keep-alive
/// connections on worker threads; every response must be a 200.
fn run_phase(label: &'static str, addr: std::net::SocketAddr, bodies: &[String]) -> Phase {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for chunk in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for body in bodies.iter().skip(chunk).step_by(CLIENTS) {
                    let (status, resp) = client.post("/optimize", body).expect("optimize");
                    assert_eq!(status, 200, "{resp}");
                }
            });
        }
    });
    Phase { label, requests: bodies.len(), wall: started.elapsed() }
}

fn main() {
    let mut write = true;
    let mut assert_baseline = false;
    let mut tolerance = 0.50f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-write" => write = false,
            "--assert-baseline" => assert_baseline = true,
            "--tolerance" => {
                let v = args.next().expect("--tolerance needs a value");
                tolerance = v.parse().expect("tolerance fraction");
                assert!((0.0..1.0).contains(&tolerance), "tolerance must be in [0, 1)");
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        queue_depth: 64,
        cache_entries: 1024,
        ..ServeConfig::default()
    };
    let handle = cme_serve::start(&config).expect("bind ephemeral port");
    let addr = handle.addr();
    println!("serve_throughput against http://{addr}  ({CLIENTS} workers / {CLIENTS} clients)\n");
    let runtime = &handle.app().runtime;

    // Cold: every request is a distinct transpose side (all ≠ BASE_SIZE),
    // so canonical keys, coefficient matrices and spans are all new —
    // nothing in the process can answer for anything.
    let cold_bodies: Vec<String> =
        (0..COLD_REQUESTS as i64).map(|k| request(BASE_SIZE + 1 + k, 0xCE11)).collect();
    let cold = run_phase("cold", addr, &cold_bodies);
    cold.print();

    // Near-miss: one kernel/cache with varying seeds. Every canonical
    // request is new, so the GA runs — but the searches revisit
    // overlapping tilings, and the process-wide displacement cache
    // answers the Diophantine solves it has already done.
    let near_bodies: Vec<String> =
        (0..NEAR_MISS_REQUESTS as u64).map(|s| request(BASE_SIZE, 1_000 + s)).collect();
    let near = run_phase("near-miss", addr, &near_bodies);
    near.print();

    // Hot: one canonical request repeated (a near-miss body, so the
    // outcome entry is already warm) — every request is a cache hit.
    let hot_bodies: Vec<String> = (0..HOT_REQUESTS).map(|_| request(BASE_SIZE, 1_000)).collect();
    let hot = run_phase("hot", addr, &hot_bodies);
    hot.print();

    let near_speedup = near.rps() / cold.rps();
    let hot_speedup = hot.rps() / cold.rps();
    println!("\nnear-miss speedup: {near_speedup:.1}× requests/sec (displacement cache)");
    println!("cache-hot speedup: {hot_speedup:.0}× requests/sec (outcome cache)");

    // Confirm each phase hit the tier it claims before reporting it.
    let outcomes = runtime.outcomes().stats();
    let disp = runtime.displacements().stats();
    assert!(
        outcomes.hits >= HOT_REQUESTS as u64,
        "hot phase must be outcome-cache-served (hits = {})",
        outcomes.hits
    );
    assert!(
        disp.hits > 0,
        "near-miss phase must be displacement-cache-served (hits = {})",
        disp.hits
    );

    let doc = serde::Value::Object(vec![
        ("bench".into(), serde::Value::Str("serve_throughput".into())),
        (
            "kernel".into(),
            serde::Value::Str(format!("MM_{BASE_SIZE} tiling GA, 32 KB / 256 B line")),
        ),
        ("workers".into(), serde::Value::UInt(CLIENTS as u64)),
        ("clients".into(), serde::Value::UInt(CLIENTS as u64)),
        (cold.label.into(), cold.json()),
        ("near_miss".into(), near.json()),
        (hot.label.into(), hot.json()),
        ("near_miss_over_cold_rps".into(), serde::Value::Float(near_speedup)),
        ("hot_over_cold_rps".into(), serde::Value::Float(hot_speedup)),
        ("cache_hits".into(), serde::Value::UInt(outcomes.hits)),
        ("cache_misses".into(), serde::Value::UInt(outcomes.misses)),
        ("displacement_hits".into(), serde::Value::UInt(disp.hits)),
        ("displacement_misses".into(), serde::Value::UInt(disp.misses)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("report serialises");
    if assert_baseline {
        assert_against_baseline(hot.rps(), tolerance);
    }
    if write {
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("\nwrote BENCH_serve.json");
    }

    handle.shutdown_and_join();
}

/// The CI bench-regression gate: compare this run's hot-path throughput
/// against the figure recorded in `BENCH_serve.json` and exit non-zero
/// when it regressed by more than `tolerance`. An *improved* figure
/// always passes (the recorded baseline is refreshed by the next full
/// `serve_throughput` run, not by the gate).
fn assert_against_baseline(current_rps: f64, tolerance: f64) {
    let raw = std::fs::read_to_string("BENCH_serve.json")
        .expect("--assert-baseline needs a recorded BENCH_serve.json in the working directory");
    let doc: serde::Value = serde_json::from_str(&raw).expect("BENCH_serve.json parses");
    let recorded = doc
        .get("hot")
        .and_then(|phase| phase.get("requests_per_sec"))
        .and_then(|v| match v {
            serde::Value::Float(f) => Some(*f),
            serde::Value::Int(i) => Some(*i as f64),
            serde::Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
        .expect("BENCH_serve.json records hot.requests_per_sec");
    let floor = recorded * (1.0 - tolerance);
    if current_rps < floor {
        eprintln!(
            "bench regression: hot-path throughput {current_rps:.1} req/s is below {floor:.1} \
             ({:.0}% of the recorded {recorded:.1})",
            (1.0 - tolerance) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "baseline OK: {current_rps:.1} req/s vs recorded {recorded:.1} \
         (floor {floor:.1}, tolerance {tolerance})"
    );
}
