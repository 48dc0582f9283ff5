//! The runtime's semantic contract: process-wide state changes how often
//! the suite recomputes, never what it answers.
//!
//! * Displacement sharing is invisible — outcomes with the provider
//!   attached are byte-identical to outcomes without it.
//! * `Runtime::optimize` resolves through the tiers in order (hot disk
//!   compute) with the advertised [`Resolution`] labels.
//! * The persistent tier survives a process restart (modelled as a
//!   second `Runtime` over the same directory) and ignores files written
//!   under a foreign schema fingerprint.
//! * Concurrent identical requests coalesce onto one computation.

use cme_runtime::{Resolution, Runtime, RuntimeConfig};
use cme_suite_runtime_testutil::*;

mod cme_suite_runtime_testutil {
    use cme_api::cme::CacheSpec;
    use cme_api::{NestSource, OptimizeRequest, StrategySpec};
    use std::path::PathBuf;

    /// A small registry-kernel tiling request (deterministic per seed).
    pub fn tiling_request(n: i64, seed: u64) -> OptimizeRequest {
        OptimizeRequest::new(NestSource::kernel_sized("T2D", n), StrategySpec::Tiling)
            .with_cache(CacheSpec::direct_mapped(512, 32))
            .with_seed(seed)
    }

    /// A fresh scratch directory under the system temp dir.
    pub fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cme-runtime-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

#[test]
fn displacement_sharing_is_byte_invisible() {
    let without = cme_api::Session::default();
    let shared = Runtime::new(&RuntimeConfig {
        outcome_entries: 0, // force every run through the engines
        ..RuntimeConfig::default()
    });
    for req in [tiling_request(24, 7), tiling_request(24, 7), tiling_request(20, 9)] {
        let plain = without.run(&req).expect("plain run succeeds");
        let (routed, _) = shared.optimize(&req, None);
        let routed = routed.expect("runtime run succeeds");
        assert_eq!(
            serde_json::to_string(&plain.without_timing()).expect("serialises"),
            routed.text(),
            "provider on/off must be byte-identical"
        );
    }
    let stats = shared.displacements().stats();
    assert!(stats.misses > 0, "the engines consulted the store");
    assert!(
        stats.hits > 0,
        "the repeated request must hit displacement entries populated by the first"
    );
}

#[test]
fn tiers_resolve_in_order_hot_then_compute() {
    let rt = Runtime::new(&RuntimeConfig::default());
    let req = tiling_request(16, 3);
    let (first, how_first) = rt.optimize(&req, None);
    assert_eq!(how_first, Resolution::Computed);
    let (second, how_second) = rt.optimize(&req, None);
    assert_eq!(how_second, Resolution::CacheHot);
    assert_eq!(
        first.expect("computed"),
        second.expect("cached"),
        "cache hit is the timing-stripped computed outcome"
    );
    let stats = rt.outcomes().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn persistent_tier_survives_restart_and_promotes() {
    let dir = scratch_dir("roundtrip");
    let config = RuntimeConfig { cache_dir: Some(dir.clone()), ..RuntimeConfig::default() };
    let req = tiling_request(16, 5);
    // First process: compute, then flush on shutdown.
    let warm = {
        let rt = Runtime::new(&config);
        let (out, how) = rt.optimize(&req, None);
        assert_eq!(how, Resolution::Computed);
        assert_eq!(rt.flush(), 1, "one outcome flushed");
        out.expect("computed")
    };
    // Second process over the same directory: the first request is a
    // disk-tier hit, promoted so the next is hot.
    let rt = Runtime::new(&config);
    let (restored, how) = rt.optimize(&req, None);
    assert_eq!(how, Resolution::CacheDisk);
    assert_eq!(
        warm.text(),
        restored.expect("disk hit").text(),
        "restart must reproduce the outcome byte for byte"
    );
    let disk = rt.outcomes().disk_stats().expect("disk tier configured");
    assert!(disk.loaded);
    assert_eq!((disk.entries, disk.hits), (1, 1));
    let (_, how) = rt.optimize(&req, None);
    assert_eq!(how, Resolution::CacheHot, "disk hit was promoted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_schema_files_are_ignored_not_served() {
    let dir = scratch_dir("foreign");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(
        dir.join("outcomes.jsonl"),
        "{\"schema\":\"0000000000000000\"}\n{\"key\":\"k\",\"outcome\":{}}\n",
    )
    .expect("seed foreign file");
    let config = RuntimeConfig { cache_dir: Some(dir.clone()), ..RuntimeConfig::default() };
    let rt = Runtime::new(&config);
    let req = tiling_request(16, 5);
    let (_, how) = rt.optimize(&req, None);
    assert_eq!(how, Resolution::Computed, "foreign bytes must never answer");
    assert_eq!(rt.flush(), 1);
    // The rewritten file is now native: a fresh runtime reads it back.
    let rt2 = Runtime::new(&config);
    let (_, how) = rt2.optimize(&req, None);
    assert_eq!(how, Resolution::CacheDisk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce() {
    const N: usize = 6;
    // Outcome cache off so every call reaches the flight group.
    let rt = Runtime::new(&RuntimeConfig { outcome_entries: 0, ..RuntimeConfig::default() });
    let req = tiling_request(24, 11);
    let gate = std::sync::Barrier::new(N);
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    let (out, _) = rt.optimize(&req, None);
                    out.expect("run succeeds").text().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all coalesced answers are byte-identical");
    }
    let flights = rt.flights().stats();
    assert_eq!(
        flights.leaders + flights.followers,
        N as u64,
        "every call went through the flight group"
    );
    assert!(
        flights.followers > 0 || flights.leaders < N as u64,
        "with a barrier start, at least some calls must coalesce (leaders={}, followers={})",
        flights.leaders,
        flights.followers
    );
    assert_eq!(flights.in_flight, 0);
}

#[test]
fn a_family_the_nest_cannot_take_builds_no_engine() {
    use cme_api::cme::CacheSpec;
    use cme_api::{ApiError, NestSource, OptimizeRequest, PaddingMode, StrategySpec};
    use cme_runtime::RuntimeError;

    // x(i,j) = x(i-1,j+1): the carried (<, >) dependence forbids
    // rectangular tiling, so both families that emit one answer the
    // capability table's 422 before any engine consults the store.
    let nest: NestSource = serde_json::from_str(
        r#"{"Inline": {
            "name": "skew",
            "loops": [{"name": "i", "lo": 2, "hi": 24}, {"name": "j", "lo": 1, "hi": 23}],
            "arrays": [{"name": "x", "extents": [25, 25], "elem_size": 4,
                        "layout": "ColumnMajor"}],
            "refs": [
                {"array": 0, "subscripts": [{"coeffs": [1, 0], "c0": -1},
                                            {"coeffs": [0, 1], "c0": 1}], "access": "Read"},
                {"array": 0, "subscripts": [{"coeffs": [1, 0], "c0": 0},
                                            {"coeffs": [0, 1], "c0": 0}], "access": "Write"}
            ]
        }}"#,
    )
    .expect("the inline nest parses");
    let rt = Runtime::new(&RuntimeConfig::default());
    let answers: Vec<_> =
        [StrategySpec::Padding { mode: PaddingMode::PadThenTile }, StrategySpec::Tiling]
            .into_iter()
            .map(|strategy| {
                let req = OptimizeRequest::new(nest.clone(), strategy)
                    .with_cache(CacheSpec::direct_mapped(1024, 32));
                rt.optimize(&req, None).0
            })
            .collect();
    match &answers[0] {
        Err(RuntimeError::Api(ApiError::IllegalTransform(msg))) => {
            assert!(msg.starts_with("tiling `skew` is illegal: "), "{msg}");
        }
        other => panic!("expected IllegalTransform, got {other:?}"),
    }
    assert_eq!(answers[0], answers[1], "both families answer the same 422");
    let stats = rt.displacements().stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "no engine was built");
}

#[test]
fn tournaments_share_the_batch_path() {
    use cme_api::cme::CacheSpec;
    use cme_api::{CompareOutcome, CompareRequest, NestSource, OptimizeRequest, StrategySpec};
    use cme_runtime::{Encoded, Stored};

    let tournament = |kernel: &str, strategies: Vec<StrategySpec>| {
        let base = OptimizeRequest::new(NestSource::kernel_sized(kernel, 16), StrategySpec::Tiling)
            .with_cache(CacheSpec::direct_mapped(1024, 32));
        CompareRequest::new(base).with_strategies(strategies)
    };

    // A duplicated entrant searches once: the line-up does exactly the
    // displacement work of its single entrant.
    let solo = Runtime::new(&RuntimeConfig::default());
    let twice = Runtime::new(&RuntimeConfig::default());
    let one = solo.compare(&tournament("T2D", vec![StrategySpec::CacheOblivious]), None).0;
    let two = twice
        .compare(
            &tournament("T2D", vec![StrategySpec::CacheOblivious, StrategySpec::CacheOblivious]),
            None,
        )
        .0;
    let entries = |answer: Result<Encoded<CompareOutcome>, _>| {
        answer.expect("runs").load().expect("decodes").entries.len()
    };
    assert_eq!(entries(one), 1);
    assert_eq!(entries(two), 2);
    let (a, b) = (solo.displacements().stats(), twice.displacements().stats());
    assert_eq!((a.hits, a.misses), (b.hits, b.misses), "the duplicate ran no second search");

    // A failing tournament answers its first failure in line-up order and
    // still caches every entrant that succeeded, after the failure too.
    let rt = Runtime::new(&RuntimeConfig::default());
    let failing = tournament(
        "TRMM",
        vec![StrategySpec::LatencyBased, StrategySpec::Interchange, StrategySpec::CacheOblivious],
    );
    let (answer, hit) = rt.compare(&failing, None);
    assert!(!hit);
    let msg = answer.expect_err("interchange refuses the triangular nest").to_string();
    assert!(msg.contains("the interchange search supports rectangular loop bounds only"), "{msg}");
    assert_eq!(rt.outcomes().stats().entries, 2, "latency and oblivious were cached");
    assert_eq!(rt.compares().stats().entries, 0, "a failure is not memoised");
}
