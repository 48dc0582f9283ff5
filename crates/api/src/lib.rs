#![forbid(unsafe_code)]
//! `cme-api` — the unified request/outcome layer over every optimiser in
//! the suite.
//!
//! The paper's contribution is one idea — minimise CME-predicted
//! replacement misses over a transform space — but the underlying crates
//! grew differently-shaped entry points (tiling, padding, interchange,
//! exhaustive/baseline sweeps, oblivious and latency derivations). This
//! crate puts one public surface over them, in three pieces:
//!
//! * **Requests** ([`OptimizeRequest`], [`AnalyzeRequest`]): plain values
//!   that round-trip losslessly through JSON. A request carries its nest
//!   (registry kernel or inline IR), cache geometry, sampling
//!   configuration, GA parameters (including the seed) and a
//!   [`StrategySpec`] selector — everything needed to reproduce a search
//!   bit-for-bit.
//! * **One dispatcher** ([`search`]): one `match` over [`StrategySpec`],
//!   gated by one capability table ([`StrategySpec::needs`]) that decides
//!   which nests each family can take — the source of every
//!   box-only 400 and tiling-legality 422.
//! * **Sessions** ([`Session`]): the execution seam. `run` for one
//!   request, `run_batch` for a rayon-parallel batch with
//!   order-preserving, bit-deterministic results — the interface a
//!   service layer binds to.
//!
//! ```
//! use cme_api::{NestSource, OptimizeRequest, Session, StrategySpec};
//! use cme_api::cme::CacheSpec;
//!
//! let req = OptimizeRequest::new(
//!     NestSource::kernel_sized("MM", 64),
//!     StrategySpec::Tiling,
//! )
//! .with_cache(CacheSpec::direct_mapped(1024, 32))
//! .with_seed(7);
//!
//! // Requests are values: they survive the wire.
//! let wire = serde_json::to_string(&req).unwrap();
//! let back: OptimizeRequest = serde_json::from_str(&wire).unwrap();
//! assert_eq!(req, back);
//!
//! let outcome = Session::default().run(&back).unwrap();
//! assert_eq!(outcome.strategy, "tiling");
//! assert!(outcome.after.replacement_ratio() <= outcome.before.replacement_ratio());
//! ```

pub mod error;
pub mod outcome;
pub mod problem;
pub mod request;
pub mod session;
pub mod strategy;

pub use error::ApiError;
pub use outcome::{AnalyzeOutcome, CompareEntry, CompareOutcome, LintOutcome, Outcome, Transform};
pub use problem::validate_cache;
pub use problem::Problem;
pub use request::{
    AnalyzeRequest, BaselineKind, CompareRequest, EstimatorSpec, LintRequest, NestSource,
    OptimizeRequest, PaddingMode, StrategySpec,
};
pub use session::{Session, SessionBuilder};
pub use strategy::{search, Needs, FAMILIES};

// Re-exported so API consumers can name every type a request or outcome
// embeds without depending on the whole workspace.
pub use cme_analysis::{Diagnostic, LegalitySummary, Severity};
pub use cme_core as cme;
pub use cme_core::{CacheHierarchy, CacheLevel};
pub use cme_ga::GaConfig;
pub use cme_loopnest::TileSizes;
pub use cme_tileopt::problem::GaSummary;

#[cfg(test)]
mod tests {
    use super::*;
    use cme_core::CacheSpec;

    fn tiny_request(strategy: StrategySpec) -> OptimizeRequest {
        OptimizeRequest::new(NestSource::kernel_sized("T2D", 32), strategy)
            .with_cache(CacheSpec::direct_mapped(1024, 32))
            .with_seed(11)
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let req = OptimizeRequest::new(NestSource::kernel("NOPE"), StrategySpec::Tiling);
        match Session::default().run(&req) {
            Err(ApiError::UnknownKernel(name)) => assert_eq!(name, "NOPE"),
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
    }

    #[test]
    fn nest_error_wording_is_uniform_across_sources() {
        // Both source kinds lead with their context (`kernel `X`` /
        // `inline nest `X``), and reference-level failures name the
        // reference index and array the same way — clients can show these
        // verbatim regardless of where the nest came from.
        let unknown = NestSource::kernel("NOPE").resolve().unwrap_err();
        assert!(unknown.to_string().starts_with("kernel `NOPE`: "), "got: {unknown}");

        let bad_size = NestSource::kernel_sized("MM", 0).resolve().unwrap_err();
        assert!(bad_size.to_string().starts_with("bad request: kernel `MM`: "), "got: {bad_size}");

        let mut nest = cme_kernels::kernel_by_name("T2D").unwrap().build_default().unwrap();
        nest.refs[1].subscripts[0] = nest.refs[1].subscripts[0].shift(10_000);
        let name = nest.name.clone();
        let inline = NestSource::inline(nest).resolve().unwrap_err();
        let msg = inline.to_string();
        assert!(
            msg.starts_with(&format!("bad request: inline nest `{name}`: ref 1 (`")),
            "got: {msg}"
        );
    }

    fn triangular_inline() -> cme_loopnest::LoopNest {
        use cme_loopnest::builder::{sub, sub_const, NestBuilder};
        let mut nb = NestBuilder::new("tri");
        let i = nb.add_loop("i", 1, 16);
        let j = nb.add_loop_bounds("j", sub_const(1), sub(i));
        let a = nb.array("a", &[16, 16]);
        nb.write(a, &[sub(i), sub(j)]);
        nb.finish().unwrap()
    }

    #[test]
    fn triangular_incapable_paths_reject_uniformly() {
        // Every box-only row of the capability table answers a structured
        // BadRequest (a 400 at the serve layer) whose wording leads with
        // the source context and names the capability and the families
        // that can take the nest — never a panic, never a silent
        // hull-based answer.
        let nest = triangular_inline();
        let message = |source: &str, capability: &str| {
            format!(
                "{source}: the {capability} supports rectangular loop bounds only, but this nest \
                 has affine (triangular) bounds — use the tiling, baseline, oblivious or latency \
                 families"
            )
        };
        let mut gated = 0;
        for spec in FAMILIES {
            let Some(capability) = spec.needs().box_only else { continue };
            gated += 1;
            let req = OptimizeRequest::new(NestSource::inline(nest.clone()), spec.clone())
                .with_cache(CacheSpec::direct_mapped(1024, 32));
            assert_eq!(
                Session::default().run(&req),
                Err(ApiError::BadRequest(message("inline nest `tri`", capability))),
                "{spec:?}"
            );
        }
        assert_eq!(gated, 5, "three padding modes, interchange and the exhaustive sweep");
        // Registry-sourced triangular nests lead with the kernel context,
        // matching `nest_error_wording_is_uniform_across_sources`.
        let req = OptimizeRequest::new(
            NestSource::kernel_sized("TRSOLVE", 24),
            StrategySpec::Interchange,
        )
        .with_cache(CacheSpec::direct_mapped(1024, 32));
        assert_eq!(
            Session::default().run(&req),
            Err(ApiError::BadRequest(message("kernel `TRSOLVE`", "interchange search")))
        );
    }

    #[test]
    fn triangular_capable_families_still_run() {
        // Every row of the capability table without a box-only gate
        // handles the triangular space end to end.
        let mut capable = 0;
        for spec in FAMILIES.into_iter().filter(|spec| spec.needs().box_only.is_none()) {
            capable += 1;
            let req = OptimizeRequest::new(NestSource::inline(triangular_inline()), spec.clone())
                .with_cache(CacheSpec::direct_mapped(1024, 32))
                .with_seed(3);
            let out = Session::default().run(&req).unwrap();
            assert!(
                out.after.replacement_ratio() <= out.before.replacement_ratio() + 1e-9,
                "{spec:?} must not hurt the triangular nest"
            );
        }
        assert_eq!(capable, 6, "tiling, three baselines, oblivious and latency");
    }

    #[test]
    fn bad_cache_is_rejected() {
        let mut req = tiny_request(StrategySpec::Tiling);
        req.cache = CacheSpec { size: 100, line: 32, assoc: 1 }.into();
        assert!(matches!(Session::default().run(&req), Err(ApiError::BadRequest(_))));
    }

    #[test]
    fn analyze_rejects_bad_cache_too() {
        // Both session entry points share the geometry validation; a zero
        // line size would otherwise divide by zero inside the model.
        for cache in
            [CacheSpec { size: 0, line: 32, assoc: 1 }, CacheSpec { size: 100, line: 32, assoc: 1 }]
        {
            let mut req = AnalyzeRequest::new(NestSource::kernel_sized("T2D", 16));
            req.cache = cache.into();
            assert!(matches!(Session::default().analyze(&req), Err(ApiError::BadRequest(_))));
        }
    }

    #[test]
    fn oversized_exhaustive_is_refused_not_paniced() {
        let req = tiny_request(StrategySpec::Exhaustive { step: 1, max_evals: 10 });
        assert!(matches!(Session::default().run(&req), Err(ApiError::TooLarge(_))));
    }

    #[test]
    fn baseline_fraction_is_validated() {
        let req = tiny_request(StrategySpec::Baseline {
            kind: BaselineKind::FixedFraction { fraction: 0.0 },
        });
        assert!(matches!(Session::default().run(&req), Err(ApiError::BadRequest(_))));
    }

    #[test]
    fn tiling_outcome_reduces_transpose_misses() {
        let out = Session::default().run(&tiny_request(StrategySpec::Tiling)).unwrap();
        assert_eq!(out.kernel, "T2D_32");
        assert!(out.transform.tiles.is_some());
        assert!(out.ga.is_some());
        assert!(out.replacement_gain() > 0.0, "tiling must help a thrashing transpose");
    }

    #[test]
    fn without_timing_is_the_canonical_comparison_form() {
        // Two runs of one deterministic request may legitimately differ
        // only in `wall_ms`; structural equality is therefore defined on
        // the timing-stripped form (this is also what the service-layer
        // outcome cache stores and compares).
        let out = Session::default().run(&tiny_request(StrategySpec::Tiling)).unwrap();
        let mut rerun = out.clone();
        rerun.wall_ms = out.wall_ms + 5;
        assert_ne!(out, rerun, "raw outcomes embed wall-clock time");
        assert_eq!(out.without_timing(), rerun.without_timing());
        assert_eq!(out.without_timing().wall_ms, 0);
    }

    #[test]
    fn outcomes_carry_the_legality_digest() {
        let out = Session::default().run(&tiny_request(StrategySpec::Tiling)).unwrap();
        let legality = out.legality.as_ref().expect("Session::run stamps legality");
        assert!(legality.rectangular_tiling, "T2D is fully permutable");
        assert_eq!(legality.carried_dependences, 0);
        assert!(!legality.budget_exhausted);
        // The digest is part of the wire format and round-trips.
        let wire = serde_json::to_string(&out).unwrap();
        let back: Outcome = serde_json::from_str(&wire).unwrap();
        assert_eq!(out.without_timing(), back.without_timing());
    }

    #[test]
    fn lint_finds_transpose_reuse_hazard() {
        let req = LintRequest::new(NestSource::kernel_sized("T2D", 64));
        let out = Session::default().lint(&req).unwrap();
        assert_eq!(out.kernel, "T2D_64");
        assert!(out.legality.rectangular_tiling);
        // T2D's read `b(i,j)` streams along j while `a` is column-major:
        // the read has no reuse in the innermost loop.
        assert!(
            out.diagnostics.iter().any(|d| d.code == "no-reuse"),
            "expected a no-reuse diagnostic, got {:?}",
            out.diagnostics
        );
        // Lint outcomes round-trip and compare timing-stripped.
        let wire = serde_json::to_string(&out).unwrap();
        let back: LintOutcome = serde_json::from_str(&wire).unwrap();
        assert_eq!(out.without_timing(), back.without_timing());
    }

    #[test]
    fn lint_validates_inputs_like_the_other_entry_points() {
        let mut req = LintRequest::new(NestSource::kernel("T2D"));
        req.cache = CacheSpec { size: 100, line: 32, assoc: 1 }.into();
        assert!(matches!(Session::default().lint(&req), Err(ApiError::BadRequest(_))));
        let req = LintRequest::new(NestSource::kernel("NOPE"));
        assert!(matches!(Session::default().lint(&req), Err(ApiError::UnknownKernel(_))));
    }

    #[test]
    fn strategy_names_are_stable() {
        // These identifiers appear in serialised outcomes; changing them
        // is a wire-format break.
        assert_eq!(StrategySpec::Tiling.name(), "tiling");
        assert_eq!(StrategySpec::Padding { mode: PaddingMode::Pad }.name(), "padding");
        assert_eq!(
            StrategySpec::Padding { mode: PaddingMode::PadThenTile }.name(),
            "padding:then-tile"
        );
        assert_eq!(StrategySpec::Padding { mode: PaddingMode::Joint }.name(), "padding:joint");
        assert_eq!(StrategySpec::Interchange.name(), "interchange");
        assert_eq!(StrategySpec::Exhaustive { step: 1, max_evals: 1 }.name(), "exhaustive");
        assert_eq!(StrategySpec::Baseline { kind: BaselineKind::LrwSquare }.name(), "baseline:lrw");
        assert_eq!(StrategySpec::CacheOblivious.name(), "oblivious");
        assert_eq!(StrategySpec::LatencyBased.name(), "latency");
    }

    #[test]
    fn strategy_tokens_parse_to_the_expected_specs() {
        // CLI/HTTP token spellings; `name()` of the parsed spec matches
        // the canonical token so round-trips are stable.
        for (token, expect) in [
            ("ga", StrategySpec::Tiling),
            ("tiling", StrategySpec::Tiling),
            ("oblivious", StrategySpec::CacheOblivious),
            ("cache-oblivious", StrategySpec::CacheOblivious),
            ("latency", StrategySpec::LatencyBased),
            ("latency-based", StrategySpec::LatencyBased),
            ("interchange", StrategySpec::Interchange),
            ("padding", StrategySpec::Padding { mode: PaddingMode::Pad }),
            ("baseline:lrw", StrategySpec::Baseline { kind: BaselineKind::LrwSquare }),
            ("baseline:tss", StrategySpec::Baseline { kind: BaselineKind::Tss }),
        ] {
            assert_eq!(StrategySpec::parse_token(token).unwrap(), expect, "token {token}");
        }
        let err = StrategySpec::parse_token("nope").unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)), "got {err:?}");
        assert!(err.to_string().contains("nope"), "error names the bad token: {err}");
    }

    #[test]
    fn compare_ranks_families_over_one_shared_baseline() {
        let base = tiny_request(StrategySpec::Tiling);
        let req = CompareRequest::new(base.clone()).with_strategies(vec![
            StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
            StrategySpec::Tiling,
            StrategySpec::CacheOblivious,
            StrategySpec::LatencyBased,
        ]);
        let out = Session::default().compare(&req).unwrap();
        assert_eq!(out.kernel, "T2D_32");
        assert_eq!(out.entries.len(), 4);
        // Ranked ascending by the spelled-out key, key matches the outcome.
        for pair in out.entries.windows(2) {
            assert!(pair[0].weighted_cost <= pair[1].weighted_cost);
        }
        for entry in &out.entries {
            assert_eq!(entry.weighted_cost, entry.outcome.after.weighted_cost());
            // One canonical baseline: every family reports the same `before`.
            let shared = serde_json::to_string(&out.entries[0].outcome.before).unwrap();
            assert_eq!(serde_json::to_string(&entry.outcome.before).unwrap(), shared);
        }
        // Winner indexes the *request* line-up and names the best entry.
        assert_eq!(
            req.strategies[out.winner].name(),
            out.best().outcome.strategy,
            "winner must point at entries[0]'s family"
        );
        // Tournament equals sequential runs, modulo timing.
        for (k, spec) in req.strategies.iter().enumerate() {
            let solo = Session::default().run(&req.entrant(k)).unwrap();
            let entry = out
                .entries
                .iter()
                .find(|e| e.outcome.strategy == spec.name())
                .expect("every family appears in the ranking");
            assert_eq!(solo.without_timing(), entry.outcome.without_timing());
        }
    }

    #[test]
    fn compare_with_no_strategies_is_rejected() {
        let req =
            CompareRequest::new(tiny_request(StrategySpec::Tiling)).with_strategies(Vec::new());
        assert!(matches!(Session::default().compare(&req), Err(ApiError::BadRequest(_))));
    }

    #[test]
    fn estimator_field_is_absent_by_default_on_the_wire() {
        // Requests that don't spell the field out keep their pre-estimator
        // wire shape byte-for-byte — goldens and cache keys unchanged.
        let req = tiny_request(StrategySpec::Tiling);
        let wire = serde_json::to_string(&req).unwrap();
        assert!(!wire.contains("estimator"), "default wire form must omit the field: {wire}");
        let back: OptimizeRequest = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.estimator, None);
        assert_eq!(back.estimator(), EstimatorSpec::cme);

        // `"cme"`, the only value, round-trips when spelled out.
        let spelled = OptimizeRequest { estimator: Some(EstimatorSpec::cme), ..req };
        let wire = serde_json::to_string(&spelled).unwrap();
        assert!(wire.contains("\"estimator\":\"cme\""), "got: {wire}");
        let back: OptimizeRequest = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, spelled);
    }

    #[test]
    fn spelled_out_cme_estimator_runs_like_an_absent_field() {
        for strategy in [
            StrategySpec::Tiling,
            StrategySpec::Padding { mode: PaddingMode::Pad },
            StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
            StrategySpec::Exhaustive { step: 8, max_evals: 100 },
        ] {
            let absent = tiny_request(strategy.clone());
            let spelled = OptimizeRequest { estimator: Some(EstimatorSpec::cme), ..absent.clone() };
            let a = Session::default().run(&absent).unwrap();
            let b = Session::default().run(&spelled).unwrap();
            assert_eq!(
                serde_json::to_string(&a.without_timing()).unwrap(),
                serde_json::to_string(&b.without_timing()).unwrap(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn lattice_estimator_no_longer_parses() {
        // The removed backend is an unknown variant like any other: a
        // parse error, never a silent fallback to `cme`. The same bodies
        // spelling `"cme"` parse, so the failure is the value's alone.
        let wire = serde_json::to_string(&tiny_request(StrategySpec::Tiling)).unwrap();
        for (value, parses) in [("cme", true), ("lattice", false), ("nope", false)] {
            let optimize = wire.replacen('{', &format!("{{\"estimator\":\"{value}\","), 1);
            let compare = format!(r#"{{"base":{optimize},"strategies":["Tiling"]}}"#);
            assert_eq!(
                serde_json::from_str::<OptimizeRequest>(&optimize).is_ok(),
                parses,
                "{value}"
            );
            assert_eq!(serde_json::from_str::<CompareRequest>(&compare).is_ok(), parses, "{value}");
        }
    }
}
