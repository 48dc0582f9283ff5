//! Golden snapshot tests: one canonical `Outcome` per strategy family,
//! checked into `tests/golden/`, compared via `without_timing()`.
//!
//! These guard the evaluation-engine hot path against silent result
//! drift: every refactor of the estimator must keep default-config
//! outcomes byte-identical. Regenerate deliberately with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_outcomes
//! ```
//!
//! and review the diff like any other behaviour change.

use cme_suite::api::{
    BaselineKind, CompareOutcome, CompareRequest, LintOutcome, LintRequest, NestSource,
    OptimizeRequest, Outcome, PaddingMode, Session, StrategySpec,
};
use cme_suite::cme::{CacheHierarchy, CacheLevel, CacheSpec};
use cme_suite::loopnest::builder::{sub, NestBuilder};
use cme_suite::loopnest::LoopNest;
use cme_suite::serve::{App, HttpRequest, ServeConfig};
use std::path::PathBuf;

/// A small transpose that thrashes a 1 KB cache — tiling-friendly.
fn t2d(n: i64) -> LoopNest {
    let mut nb = NestBuilder::new(format!("t2d_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    nb.read(b, &[sub(i), sub(j)]);
    nb.write(a, &[sub(j), sub(i)]);
    nb.finish().unwrap()
}

/// Two exactly aliased arrays — padding-friendly.
fn aliased(n: i64) -> LoopNest {
    let mut nb = NestBuilder::new(format!("aliased_{n}"));
    let i = nb.add_loop("i", 1, n);
    let x = nb.array("x", &[n]);
    let y = nb.array("y", &[n]);
    nb.read(x, &[sub(i)]);
    nb.read(y, &[sub(i)]);
    nb.write(x, &[sub(i)]);
    nb.finish().unwrap()
}

/// The canonical request per strategy family. Every request uses the
/// default sampling and GA configuration (only the seed varies), so these
/// snapshots pin exactly the default evaluation path.
fn family_requests() -> Vec<(&'static str, OptimizeRequest)> {
    let kb1 = CacheSpec::direct_mapped(1024, 32);
    let b512 = CacheSpec::direct_mapped(512, 32);
    vec![
        (
            "tiling",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::Tiling)
                .with_cache(kb1)
                .with_seed(21),
        ),
        (
            "padding_pad",
            OptimizeRequest::new(
                NestSource::Inline(aliased(128)),
                StrategySpec::Padding { mode: PaddingMode::Pad },
            )
            .with_cache(b512)
            .with_seed(22),
        ),
        (
            "padding_then_tile",
            OptimizeRequest::new(
                NestSource::Inline(aliased(64)),
                StrategySpec::Padding { mode: PaddingMode::PadThenTile },
            )
            .with_cache(b512)
            .with_seed(23),
        ),
        (
            "padding_joint",
            OptimizeRequest::new(
                NestSource::Inline(aliased(64)),
                StrategySpec::Padding { mode: PaddingMode::Joint },
            )
            .with_cache(b512)
            .with_seed(24),
        ),
        (
            "interchange",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::Interchange)
                .with_cache(kb1)
                .with_seed(25),
        ),
        (
            "exhaustive",
            OptimizeRequest::new(
                NestSource::Inline(t2d(8)),
                StrategySpec::Exhaustive { step: 1, max_evals: 100 },
            )
            .with_cache(kb1)
            .with_seed(26),
        ),
        // The two hierarchy-free families from the tournament PR: the
        // cache-oblivious recursive halving (geometry-independent
        // transform) and the latency-based probe ladder. Same nest and
        // cache as `tiling` so the three snapshots are directly
        // comparable.
        (
            "cache_oblivious",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::CacheOblivious)
                .with_cache(kb1)
                .with_seed(30),
        ),
        (
            "latency_based",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::LatencyBased)
                .with_cache(kb1)
                .with_seed(31),
        ),
        (
            "baseline_lrw",
            OptimizeRequest::new(
                NestSource::Inline(t2d(16)),
                StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
            )
            .with_cache(kb1)
            .with_seed(27),
        ),
        // A bring-your-own kernel arriving as source text: pins the
        // frontend parser's output (loop bounds, affine subscripts,
        // row-major/real8 declarations) and the inline-nest wire format
        // in one snapshot. Any parser change that alters the nest it
        // builds — or any schema change to inline outcomes — shows up as
        // a diff here.
        (
            "inline_frontend",
            OptimizeRequest::new(
                NestSource::Inline(
                    cme_suite::frontend::parse(
                        "kernel frontend_demo;
                         real8 u[20][20];
                         rowmajor real4 v[20][20];
                         for (i = 1; i <= 18; i++) {
                           for (j = 1; j <= 18; j++) {
                             u[i+1][j] = u[i][j] + v[j][i] * 2;
                           }
                         }",
                    )
                    .expect("demo kernel parses"),
                ),
                StrategySpec::Tiling,
            )
            .with_cache(kb1)
            .with_seed(29),
        ),
        // Multi-level outcome: pins the hierarchy wire format (levels
        // array in `cache`, per-level breakdown in both estimates) on top
        // of the per-family snapshots above, which pin the legacy form.
        (
            "tiling_l1l2",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::Tiling)
                .with_cache(CacheHierarchy::two_level(
                    kb1,
                    10.0,
                    CacheSpec { size: 8192, line: 32, assoc: 2 },
                    80.0,
                ))
                .with_seed(28),
        ),
        // Three levels over two line sizes: L1 and L2 share 32 B lines
        // (one classification pass), L3's 64 B lines need their own.
        (
            "tiling_l1l2l3",
            OptimizeRequest::new(NestSource::Inline(t2d(16)), StrategySpec::Tiling)
                .with_cache(
                    CacheHierarchy::new(vec![
                        CacheLevel::new(kb1, 4.0),
                        CacheLevel::new(CacheSpec { size: 8192, line: 32, assoc: 2 }, 20.0),
                        CacheLevel::new(CacheSpec { size: 32768, line: 64, assoc: 4 }, 100.0),
                    ])
                    .expect("non-empty hierarchy"),
                )
                .with_seed(36),
        ),
        // Triangular registry kernels: pin the affine-bounds wire format
        // (`lo_aff`/`hi_aff` in inline echoes stay absent here — these
        // arrive by name) and the trapezoidal evaluation path for the
        // three capable families that tile, recurse and probe over a
        // non-rectangular space.
        (
            "trmm_tiling",
            OptimizeRequest::new(NestSource::kernel_sized("TRMM", 16), StrategySpec::Tiling)
                .with_cache(kb1)
                .with_seed(33),
        ),
        (
            "trsolve_oblivious",
            OptimizeRequest::new(
                NestSource::kernel_sized("TRSOLVE", 32),
                StrategySpec::CacheOblivious,
            )
            .with_cache(kb1)
            .with_seed(34),
        ),
        (
            "ttrans_latency",
            OptimizeRequest::new(
                NestSource::kernel_sized("TTRANS", 32),
                StrategySpec::LatencyBased,
            )
            .with_cache(kb1)
            .with_seed(35),
        ),
    ]
}

fn golden_path(family: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{family}.json"))
}

#[test]
fn outcomes_match_golden_snapshots() {
    let session = Session::default();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (family, req) in family_requests() {
        let outcome = session.run(&req).expect(family).without_timing();
        let path = golden_path(family);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let json = serde_json::to_string_pretty(&outcome).unwrap();
            std::fs::write(&path, json + "\n").unwrap();
            continue;
        }
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e} (run UPDATE_GOLDEN=1)", family));
        let golden: Outcome = serde_json::from_str(&raw).expect(family);
        if golden.without_timing() != outcome {
            failures.push(format!(
                "{family}: outcome drifted from golden snapshot\n  golden: {}\n  got:    {}",
                serde_json::to_string(&golden.without_timing()).unwrap(),
                serde_json::to_string(&outcome).unwrap(),
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The canonical tournament: the default four-family line-up on a small
/// MM. Pins the `CompareOutcome` wire format — ranked entry order, the
/// winner index, and one shared baseline — so `/compare` responses cannot
/// drift silently.
fn compare_request() -> CompareRequest {
    CompareRequest::new(
        OptimizeRequest::new(NestSource::kernel_sized("MM", 16), StrategySpec::Tiling)
            .with_cache(CacheSpec::direct_mapped(1024, 32))
            .with_seed(32),
    )
}

#[test]
fn compare_outcome_matches_golden_snapshot() {
    let session = Session::default();
    let req = compare_request();
    let outcome = session.compare(&req).expect("compare_mm").without_timing();

    // Invariants worth pinning alongside the bytes: ascending rank order
    // and one byte-identical shared baseline across every entry.
    for pair in outcome.entries.windows(2) {
        assert!(pair[0].weighted_cost <= pair[1].weighted_cost, "entries must be ranked");
    }
    let before = serde_json::to_string(&outcome.entries[0].outcome.before).unwrap();
    for entry in &outcome.entries[1..] {
        assert_eq!(
            serde_json::to_string(&entry.outcome.before).unwrap(),
            before,
            "every family must share one canonical baseline"
        );
    }

    let path = golden_path("compare_mm");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(&outcome).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden compare_mm: {e} (run UPDATE_GOLDEN=1)"));
    let golden: CompareOutcome = serde_json::from_str(&raw).expect("compare_mm");
    assert_eq!(golden.wall_ms, 0, "compare_mm: goldens are stored timing-stripped");
    assert_eq!(
        golden.without_timing(),
        outcome,
        "compare_mm: tournament outcome drifted from golden snapshot"
    );
}

/// The snapshot files themselves must parse as `Outcome` JSON — catches
/// hand-edits and serialisation-format drift separately from value drift.
#[test]
fn golden_files_parse_and_cover_all_families() {
    for (family, _) in family_requests() {
        let path = golden_path(family);
        if std::env::var_os("UPDATE_GOLDEN").is_some() && !path.exists() {
            continue;
        }
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e} (run UPDATE_GOLDEN=1)", family));
        let outcome: Outcome = serde_json::from_str(&raw).expect(family);
        assert_eq!(outcome.wall_ms, 0, "{family}: goldens are stored timing-stripped");
    }
}

/// The golden lint request: `tests/golden/lint_t2d.json`'s kernel.
fn lint_request() -> LintRequest {
    LintRequest::new(NestSource::kernel_sized("T2D", 64))
}

fn post(path: &str, body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        path: path.into(),
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// A served body's own `wall_ms`.
fn served_wall_ms(body: &str) -> u64 {
    let doc: serde::Value = serde_json::from_str(body).expect("a JSON answer");
    match doc.get("wall_ms") {
        Some(serde::Value::Int(ms)) => *ms as u64,
        Some(serde::Value::UInt(ms)) => *ms,
        other => panic!("no wall_ms in {body}: {other:?}"),
    }
}

/// Every answer type is served as the bytes of its own encoding, however
/// the server answers it: computed, from the hot memo, through the
/// request-body alias, and from the disk tier after a restart (or, for
/// the memory-only lint and compare memos, computed again).
#[test]
fn served_bodies_are_the_answers_bytes_cold_hot_aliased_and_after_restart() {
    let session = Session::default();
    // (route, body, the answer's encoding stamped with a given wall_ms)
    type Case = (&'static str, String, Box<dyn Fn(u64) -> Result<String, serde_json::Error>>);
    let mut cases: Vec<Case> = Vec::new();
    for (_, req) in family_requests() {
        let answer = session.run(&req).expect("family runs");
        let encode = move |ms| serde_json::to_string(&Outcome { wall_ms: ms, ..answer.clone() });
        cases.push(("/optimize", serde_json::to_string(&req).unwrap(), Box::new(encode)));
    }
    let tournament = compare_request();
    let answer = session.compare(&tournament).expect("tournament runs").without_timing();
    let encode = move |ms| serde_json::to_string(&CompareOutcome { wall_ms: ms, ..answer.clone() });
    cases.push(("/compare", serde_json::to_string(&tournament).unwrap(), Box::new(encode)));
    let lint = lint_request();
    let answer = session.lint(&lint).expect("lint runs");
    let encode = move |ms| serde_json::to_string(&LintOutcome { wall_ms: ms, ..answer.clone() });
    cases.push(("/lint", serde_json::to_string(&lint).unwrap(), Box::new(encode)));

    let dir = std::env::temp_dir().join(format!("cme-golden-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        ServeConfig { cache_entries: 64, cache_dir: Some(dir.clone()), ..ServeConfig::default() };
    let check = |app: &App, (path, body, encode): &Case, how: &str| {
        let resp = app.handle(&post(path, body));
        assert_eq!(resp.status, 200, "{path} {how}: {}", resp.body);
        let want = encode(served_wall_ms(&resp.body)).unwrap();
        assert_eq!(resp.body, want, "{path} {how}: served bytes differ from the answer's");
    };

    let app = App::with_runtime(1, &config.runtime_config());
    for case in &cases {
        for how in ["cold", "hot", "aliased"] {
            check(&app, case, how);
        }
    }
    assert_eq!(app.runtime.aliases().stats().hits, cases.len() as u64, "every third send recalled");
    app.runtime.flush();
    drop(app);

    let app = App::with_runtime(1, &config.runtime_config());
    for case in &cases {
        check(&app, case, "after a restart");
    }
    let disk = app.runtime.outcomes().disk_stats().expect("disk tier configured");
    // Every family from disk, and the tournament's four entrants too.
    assert_eq!(disk.hits, family_requests().len() as u64 + 4);
    let _ = std::fs::remove_dir_all(&dir);
}
