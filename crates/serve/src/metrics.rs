//! Service telemetry: atomic counters and fixed-bucket latency
//! histograms, rendered as the `/metrics` JSON document. Everything here
//! is lock-free on the hot path — handlers only touch atomics.

use cme_runtime::{CacheStats, Runtime};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bucket bounds in microseconds; one overflow bucket follows.
pub const LATENCY_BOUNDS_US: [u64; 10] =
    [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000];

/// A fixed-bucket latency histogram (cumulative-free: each bucket counts
/// samples at or under its bound that exceeded the previous bound).
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    pub fn record_us(&self, us: u64) {
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    pub fn snapshot(&self) -> Value {
        Value::Object(vec![
            (
                "bounds_us".into(),
                Value::Array(LATENCY_BOUNDS_US.iter().map(|&b| Value::UInt(b)).collect()),
            ),
            (
                "counts".into(),
                Value::Array(
                    self.counts.iter().map(|c| Value::UInt(c.load(Ordering::Relaxed))).collect(),
                ),
            ),
            ("count".into(), Value::UInt(self.count())),
            ("sum_us".into(), Value::UInt(self.sum_us.load(Ordering::Relaxed))),
            ("mean_us".into(), Value::Float(self.mean_us())),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Per-route request counters.
#[derive(Default)]
pub struct RouteCounters {
    pub optimize: AtomicU64,
    pub analyze: AtomicU64,
    pub lint: AtomicU64,
    pub compare: AtomicU64,
    pub batch: AtomicU64,
    pub healthz: AtomicU64,
    pub metrics: AtomicU64,
    pub shutdown: AtomicU64,
    pub unmatched: AtomicU64,
}

/// Everything `/metrics` reports (cache statistics live on the cache
/// itself and are merged at snapshot time).
pub struct Metrics {
    started: Instant,
    /// Requests parsed and routed.
    pub requests_total: AtomicU64,
    /// Connections answered 503 because the bounded queue was full.
    pub rejected_total: AtomicU64,
    /// Routed requests that produced a non-2xx response.
    pub errors_total: AtomicU64,
    /// Connections currently waiting for a worker (gauge).
    pub queue_depth: AtomicU64,
    pub routes: RouteCounters,
    /// `/optimize` latency when the search actually ran.
    pub optimize_cold_us: Histogram,
    /// `/optimize` latency when the outcome cache answered.
    pub optimize_hit_us: Histogram,
    /// `/lint` latency when the analysis actually ran.
    pub lint_cold_us: Histogram,
    /// `/lint` latency when the lint cache answered.
    pub lint_hit_us: Histogram,
    /// `/compare` latency when at least part of the tournament ran.
    pub compare_cold_us: Histogram,
    /// `/compare` latency when the compare cache answered whole.
    pub compare_hit_us: Histogram,
    /// Latency of every routed request.
    pub request_us: Histogram,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            routes: RouteCounters::default(),
            optimize_cold_us: Histogram::new(),
            optimize_hit_us: Histogram::new(),
            lint_cold_us: Histogram::new(),
            lint_hit_us: Histogram::new(),
            compare_cold_us: Histogram::new(),
            compare_hit_us: Histogram::new(),
            request_us: Histogram::new(),
        }
    }

    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The `/metrics` document (see the README field glossary).
    pub fn snapshot(&self, workers: usize, runtime: &Runtime) -> Value {
        let load = |c: &AtomicU64| Value::UInt(c.load(Ordering::Relaxed));
        let flights = runtime.flights().stats();
        // The persistent tier's stats, or `null` when `--cache-dir` was
        // not configured (entries stay 0 until the lazy index loads).
        let disk = match runtime.outcomes().disk_stats() {
            None => Value::Null,
            Some(d) => Value::Object(vec![
                ("loaded".into(), Value::Bool(d.loaded)),
                ("entries".into(), Value::UInt(d.entries as u64)),
                ("hits".into(), Value::UInt(d.hits)),
                ("misses".into(), Value::UInt(d.misses)),
                ("appended".into(), Value::UInt(d.appended)),
            ]),
        };
        let mut cache = cache_section(runtime.outcomes().stats());
        cache.push(("disk".into(), disk));
        Value::Object(vec![
            ("uptime_ms".into(), Value::UInt(self.uptime_ms())),
            ("workers".into(), Value::UInt(workers as u64)),
            ("requests_total".into(), load(&self.requests_total)),
            ("rejected_total".into(), load(&self.rejected_total)),
            ("errors_total".into(), load(&self.errors_total)),
            ("queue_depth".into(), load(&self.queue_depth)),
            (
                "routes".into(),
                Value::Object(vec![
                    ("optimize".into(), load(&self.routes.optimize)),
                    ("analyze".into(), load(&self.routes.analyze)),
                    ("lint".into(), load(&self.routes.lint)),
                    ("compare".into(), load(&self.routes.compare)),
                    ("batch".into(), load(&self.routes.batch)),
                    ("healthz".into(), load(&self.routes.healthz)),
                    ("metrics".into(), load(&self.routes.metrics)),
                    ("shutdown".into(), load(&self.routes.shutdown)),
                    ("unmatched".into(), load(&self.routes.unmatched)),
                ]),
            ),
            ("cache".into(), Value::Object(cache)),
            ("lint_cache".into(), Value::Object(cache_section(runtime.lints().stats()))),
            ("compare_cache".into(), Value::Object(cache_section(runtime.compares().stats()))),
            ("alias_cache".into(), Value::Object(cache_section(runtime.aliases().stats()))),
            (
                "displacement_cache".into(),
                Value::Object(cache_section(runtime.displacements().stats())),
            ),
            (
                "coalescing".into(),
                Value::Object(vec![
                    ("leaders".into(), Value::UInt(flights.leaders)),
                    ("followers".into(), Value::UInt(flights.followers)),
                    ("failures".into(), Value::UInt(flights.failures)),
                    ("in_flight".into(), Value::UInt(flights.in_flight as u64)),
                ]),
            ),
            (
                "latency_us".into(),
                Value::Object(vec![
                    ("optimize_cold".into(), self.optimize_cold_us.snapshot()),
                    ("optimize_hit".into(), self.optimize_hit_us.snapshot()),
                    ("lint_cold".into(), self.lint_cold_us.snapshot()),
                    ("lint_hit".into(), self.lint_hit_us.snapshot()),
                    ("compare_cold".into(), self.compare_cold_us.snapshot()),
                    ("compare_hit".into(), self.compare_hit_us.snapshot()),
                    ("all".into(), self.request_us.snapshot()),
                ]),
            ),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// The fields every cache section of `/metrics` shares, in wire order.
fn cache_section(stats: CacheStats) -> Vec<(String, Value)> {
    vec![
        ("entries".into(), Value::UInt(stats.entries as u64)),
        ("capacity".into(), Value::UInt(stats.capacity as u64)),
        ("hits".into(), Value::UInt(stats.hits)),
        ("misses".into(), Value::UInt(stats.misses)),
        ("evictions".into(), Value::UInt(stats.evictions)),
        ("bytes".into(), Value::UInt(stats.bytes as u64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let h = Histogram::new();
        h.record_us(1); // ≤ 100 → bucket 0
        h.record_us(100); // ≤ 100 → bucket 0
        h.record_us(101); // ≤ 500 → bucket 1
        h.record_us(6_000_000); // overflow bucket
        assert_eq!(h.count(), 4);
        let snap = h.snapshot();
        let counts = snap.get("counts").and_then(Value::as_array).unwrap();
        assert_eq!(counts[0], Value::UInt(2));
        assert_eq!(counts[1], Value::UInt(1));
        assert_eq!(counts[LATENCY_BOUNDS_US.len()], Value::UInt(1));
        assert!((h.mean_us() - (1.0 + 100.0 + 101.0 + 6_000_000.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_has_every_documented_field() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        let runtime = Runtime::new(&cme_runtime::RuntimeConfig {
            outcome_entries: 8,
            displacement_entries: 16,
            cache_dir: None,
        });
        let snap = m.snapshot(4, &runtime);
        for field in [
            "uptime_ms",
            "workers",
            "requests_total",
            "rejected_total",
            "errors_total",
            "queue_depth",
            "routes",
            "cache",
            "lint_cache",
            "compare_cache",
            "alias_cache",
            "displacement_cache",
            "coalescing",
            "latency_us",
        ] {
            assert!(snap.get(field).is_some(), "missing `{field}`");
        }
        assert_eq!(snap.get("requests_total"), Some(&Value::UInt(3)));
        assert_eq!(snap.get("cache").unwrap().get("capacity"), Some(&Value::UInt(8)));
        // No --cache-dir in this runtime: the disk tier reports null.
        assert_eq!(snap.get("cache").unwrap().get("disk"), Some(&Value::Null));
        assert_eq!(snap.get("lint_cache").unwrap().get("capacity"), Some(&Value::UInt(8)));
        // The compare memo holds a quarter of the outcome entry count.
        assert_eq!(snap.get("compare_cache").unwrap().get("capacity"), Some(&Value::UInt(2)));
        // The request-body alias holds as many entries as the outcome cache.
        assert_eq!(snap.get("alias_cache").unwrap().get("capacity"), Some(&Value::UInt(8)));
        assert_eq!(snap.get("displacement_cache").unwrap().get("capacity"), Some(&Value::UInt(16)));
        assert!(snap.get("coalescing").unwrap().get("leaders").is_some());
        assert!(snap.get("routes").unwrap().get("lint").is_some());
        assert!(snap.get("routes").unwrap().get("compare").is_some());
        assert!(snap.get("latency_us").unwrap().get("lint_cold").is_some());
        assert!(snap.get("latency_us").unwrap().get("compare_cold").is_some());
        assert!(snap.get("latency_us").unwrap().get("compare_hit").is_some());
    }

    #[test]
    fn snapshot_reports_disk_tier_stats_when_configured() {
        let dir =
            std::env::temp_dir().join(format!("cme-serve-metrics-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = Metrics::new();
        let runtime = Runtime::new(&cme_runtime::RuntimeConfig {
            cache_dir: Some(dir.clone()),
            ..cme_runtime::RuntimeConfig::default()
        });
        let snap = m.snapshot(1, &runtime);
        let disk = snap.get("cache").unwrap().get("disk").expect("disk section");
        assert_eq!(disk.get("loaded"), Some(&Value::Bool(false)), "stats never force a load");
        assert_eq!(disk.get("entries"), Some(&Value::UInt(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_sections_render_one_shape_with_disk_last() {
        let stats =
            CacheStats { entries: 3, capacity: 8, hits: 5, misses: 2, evictions: 1, bytes: 640 };
        assert_eq!(
            serde_json::to_string(&Value::Object(cache_section(stats))).unwrap(),
            r#"{"entries":3,"capacity":8,"hits":5,"misses":2,"evictions":1,"bytes":640}"#
        );
        let runtime = Runtime::new(&cme_runtime::RuntimeConfig {
            outcome_entries: 8,
            ..cme_runtime::RuntimeConfig::default()
        });
        let snap = Metrics::new().snapshot(1, &runtime);
        assert_eq!(
            serde_json::to_string(snap.get("cache").unwrap()).unwrap(),
            r#"{"entries":0,"capacity":8,"hits":0,"misses":0,"evictions":0,"bytes":0,"disk":null}"#
        );
        for section in ["lint_cache", "compare_cache", "alias_cache", "displacement_cache"] {
            let fields: Vec<&str> = match snap.get(section) {
                Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("`{section}` is not an object: {other:?}"),
            };
            assert_eq!(fields, ["entries", "capacity", "hits", "misses", "evictions", "bytes"]);
        }
    }
}
