//! No strategy family may emit an analysis-illegal transform.
//!
//! Every family is gated on `cme-analysis` legality by one capability
//! table (`StrategySpec::needs`), read by `cme_api::search`, while the
//! `cme-tileopt` entry points and the interchange search keep checks of
//! their own. This test checks the property itself, from the outside:
//! run every strategy family over kernels
//! *with* carried dependences (ADI's recurrence, a hand-built
//! reversal-hazard nest) and re-verify each emitted transform against
//! the dependence analysis. A strategy that ever returns an illegal
//! permutation or an illegal tiling fails here no matter which internal
//! gate regressed.

use cme_suite::analysis::{analyze, permutation_violation, tiling_violation, Dir};
use cme_suite::api::{
    BaselineKind, NestSource, OptimizeRequest, Outcome, PaddingMode, Session, StrategySpec,
};
use cme_suite::cme::CacheSpec;
use cme_suite::loopnest::builder::{sub, NestBuilder};
use cme_suite::loopnest::LoopNest;

/// A depth-2 nest with a `(<, >)` dependence: interchange is illegal and
/// so is rectangular tiling — the strongest constraint a strategy can
/// face (only padding remains legal).
fn reversal_hazard(n: i64) -> LoopNest {
    let mut nb = NestBuilder::new("hazard");
    let i = nb.add_loop("i", 2, n);
    let j = nb.add_loop("j", 1, n - 1);
    let a = nb.array("a", &[n + 1, n + 1]);
    // a[i][j] = a[i-1][j+1]: dependence (i-1, j+1) -> (i, j), σ = (<, >).
    nb.read(a, &[sub(i).minus(1), sub(j).plus(1)]);
    nb.write(a, &[sub(i), sub(j)]);
    nb.finish().unwrap()
}

fn families() -> Vec<StrategySpec> {
    vec![
        StrategySpec::Tiling,
        StrategySpec::Interchange,
        StrategySpec::Exhaustive { step: 2, max_evals: 200 },
        StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
        StrategySpec::Padding { mode: PaddingMode::Pad },
        StrategySpec::Padding { mode: PaddingMode::PadThenTile },
        StrategySpec::Padding { mode: PaddingMode::Joint },
        StrategySpec::CacheOblivious,
        StrategySpec::LatencyBased,
    ]
}

/// The emitted transform, re-verified against the dependence analysis of
/// the nest it came from.
fn assert_transform_legal(nest: &LoopNest, out: &Outcome, label: &str) {
    let deps = analyze(nest);
    if let Some(perm) = &out.transform.permutation {
        assert!(
            permutation_violation(&deps, perm).is_none(),
            "{label}: emitted illegal permutation {perm:?}"
        );
    }
    // Blocking is judged per dimension: a dimension actually split into
    // more than one block (tile < span) must carry no reversed (`>`)
    // dependence component at that position — splitting only hazard-free
    // dimensions (block loops outermost, original order) keeps every
    // realized direction vector lexicographically positive, which is how
    // the cache-oblivious family stays legal on partially tileable nests.
    if let Some(tiles) = &out.transform.tiles {
        let spans = nest.spans();
        let perm: Vec<usize> =
            out.transform.permutation.clone().unwrap_or_else(|| (0..spans.len()).collect());
        for (level, &tile) in tiles.0.iter().enumerate() {
            let dim = perm[level];
            if tile >= spans[dim] {
                continue; // single block: the block loop is degenerate
            }
            let reversed =
                deps.pairs.iter().any(|p| p.carried.iter().any(|dirs| dirs[dim] == Dir::Gt));
            assert!(
                !reversed,
                "{label}: emitted tile sizes {:?} that split dimension {dim}, \
                 which carries a reversed dependence component",
                out.transform.tiles
            );
        }
    }
}

#[test]
fn no_strategy_family_emits_an_illegal_transform() {
    let session = Session::default();
    let cache = CacheSpec::direct_mapped(1024, 32);
    let nests: Vec<(&str, LoopNest)> = vec![
        ("ADI", (cme_suite::kernels::kernel_by_name("ADI").unwrap().build)(24).unwrap()),
        ("hazard", reversal_hazard(24)),
    ];
    for (name, nest) in &nests {
        for strategy in families() {
            let label = format!("{name}/{strategy:?}");
            let req =
                OptimizeRequest::new(NestSource::Inline(nest.clone()), strategy).with_cache(cache);
            match session.run(&req) {
                Ok(out) => assert_transform_legal(nest, &out, &label),
                // Refusing outright (e.g. interchange on the hazard nest
                // finds no legal permutation) is an acceptable answer;
                // emitting an illegal transform is not.
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains("illegal transform"),
                        "{label}: unexpected error kind: {msg}"
                    );
                }
            }
        }
    }
}

/// The hazard nest really is a hazard — otherwise the test above checks
/// nothing. And the outcome's own `legality` digest must agree.
#[test]
fn hazard_nest_is_actually_hazardous_and_outcomes_say_so() {
    let nest = reversal_hazard(24);
    let deps = analyze(&nest);
    assert!(tiling_violation(&deps).is_some(), "expected a (<, >) carried dependence");
    assert!(permutation_violation(&deps, &[1, 0]).is_some());

    let session = Session::default();
    let req = OptimizeRequest::new(
        NestSource::Inline(nest),
        StrategySpec::Padding { mode: PaddingMode::Pad },
    )
    .with_cache(CacheSpec::direct_mapped(1024, 32));
    let out = session.run(&req).expect("padding needs no reordering");
    let legality = out.legality.expect("outcomes carry the legality digest");
    assert!(!legality.rectangular_tiling);
    assert!(legality.carried_dependences > 0);
}
