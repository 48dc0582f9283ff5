//! Candidate reuse-vector generation (paper §2.1; Wolf–Lam reuse).
//!
//! A reuse vector `r` says: the data touched by reference `A` at iteration
//! `v` may already be in cache because reference `B` (possibly `A` itself)
//! touched the *same memory line* at iteration `v − r`. Candidates are
//! generated per uniformly-generated reference pair in the **original**
//! iteration space:
//!
//! * **self/group temporal** — solutions of `c·r = δ` (`c` = shared affine
//!   address coefficients, `δ` = constant address difference),
//! * **self/group spatial** — solutions of `c·r ∈ (δ − ls, δ + ls)` (same
//!   line up to the line offset; the exact same-line test happens at
//!   classification time),
//! * supports of ≤ 2 loop variables (all Table 1 kernels need at most 2;
//!   wider supports would only add further-away candidates, whose omission
//!   is conservative),
//! * the intra-iteration candidate `r = 0` for body-earlier references.
//!
//! Candidates are then **lifted** to the analysis space: in a tiled space
//! an original displacement decomposes into (block, offset) moves with up
//! to two realisations per dimension (same-block, and the tile-boundary
//! *wrap* `Δb = ±1, Δu = r ∓ T`), all still constant vectors — exactly
//! what CMEs need (§2.4).

use cme_loopnest::{ExecSpace, LoopNest, MemoryLayout};
use cme_polyhedra::boxes::lex_cmp;
use cme_polyhedra::dioph::{div_ceil, div_floor, solve_2var};
use cme_polyhedra::{AffineForm, Interval};
use std::cmp::Ordering;
use std::sync::Arc;

/// A candidate reuse: reference `src_ref` at `v − rv` may hold the line
/// touched by the subject reference at `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseCandidate {
    /// Displacement in analysis (v-space) coordinates; lexicographically
    /// positive, or zero for intra-iteration reuse.
    pub rv: Vec<i64>,
    /// Source reference index.
    pub src_ref: usize,
}

/// Cap on candidates kept per subject reference (closest first). Dropping
/// far candidates can only misclassify far reuse as cold — never turns a
/// miss into a hit.
pub const MAX_CANDIDATES_PER_REF: usize = 128;

/// Cap on solutions enumerated per 2-variable Diophantine window.
const MAX_2VAR_SOLUTIONS: usize = 12;

/// Generate candidate original-space displacements for reuse of subject
/// reference with address form `addr_a` from source with `addr_b`
/// (uniform: equal coefficients), line size `ls`, loop spans `spans`.
///
/// This is the expensive, **tile-independent** half of candidate
/// generation (Diophantine window enumeration); its result depends only
/// on `(addr_a.coeffs, addr_b.c0 − addr_a.c0, ls, spans)` — the key the
/// evaluation engine caches it under across search candidates.
pub fn original_displacements(
    addr_a: &AffineForm,
    addr_b: &AffineForm,
    ls: i64,
    spans: &[i64],
) -> Vec<Vec<i64>> {
    debug_assert_eq!(addr_a.coeffs, addr_b.coeffs);
    let d = spans.len();
    let c = &addr_a.coeffs;
    let delta = addr_b.c0 - addr_a.c0;
    // Same-line window for c·r: (δ − ls, δ + ls).
    let window = Interval::new(delta - ls + 1, delta + ls - 1);
    let mut out: Vec<Vec<i64>> = Vec::new();
    let mut push = |r: Vec<i64>| {
        if !out.contains(&r) {
            out.push(r);
        }
    };
    // Zero displacement (same iteration, group reuse).
    if window.contains(0) {
        push(vec![0; d]);
    }
    // Single-variable supports.
    for t in 0..d {
        let span = spans[t];
        if c[t] == 0 {
            // Temporal along t: any step works; the nearest (±1) suffices
            // (if v−e_t is outside the space, so is every larger step).
            if window.contains(0) {
                push((0..d).map(|u| i64::from(u == t)).collect());
            }
            continue;
        }
        // c_t·k ∈ window ⇒ k ∈ [⌈w.lo/c_t⌉, ⌊w.hi/c_t⌋] (sign-aware).
        let (klo, khi) = if c[t] > 0 {
            (div_ceil(window.lo, c[t]), div_floor(window.hi, c[t]))
        } else {
            (div_ceil(window.hi, c[t]), div_floor(window.lo, c[t]))
        };
        for k in klo.max(-(span - 1))..=khi.min(span - 1) {
            if k == 0 {
                continue; // already covered by the zero candidate
            }
            let mut r = vec![0i64; d];
            r[t] = k;
            push(r);
        }
    }
    // Two-variable supports: c_t·r_t + c_u·r_u = w for each w in the
    // window (only multiples of gcd(c_t, c_u) are solvable).
    for t in 0..d {
        for u in t + 1..d {
            if c[t] == 0 && c[u] == 0 {
                continue;
            }
            let g = cme_polyhedra::dioph::gcd(c[t], c[u]).max(1);
            let mut w = div_ceil(window.lo, g) * g;
            while w <= window.hi {
                let xr = Interval::new(-(spans[t] - 1), spans[t] - 1);
                let yr = Interval::new(-(spans[u] - 1), spans[u] - 1);
                for (rt, ru) in solve_2var(c[t], c[u], w, xr, yr, MAX_2VAR_SOLUTIONS) {
                    if rt == 0 || ru == 0 {
                        continue; // single-variable candidates already added
                    }
                    let mut r = vec![0i64; d];
                    r[t] = rt;
                    r[u] = ru;
                    push(r);
                }
                w += g;
            }
        }
    }
    out
}

/// The tile-independent candidate base of a nest under a layout: per
/// subject reference, the uniform source pairs with their original-space
/// displacement sets. Lift it into any execution space with
/// [`lift_base`]; the `Arc`s let the evaluation engine share one
/// displacement set across many candidates and layouts.
pub type CandidateBase = Vec<Vec<(usize, Arc<Vec<Vec<i64>>>)>>;

/// Build the candidate base with a caller-supplied displacement source —
/// the seam where the evaluation engine injects its cross-candidate
/// displacement cache. `displacements(a, b)` must return
/// [`original_displacements`]`(&addr[a], &addr[b], line, spans)`.
pub fn candidate_base_with(
    nest: &LoopNest,
    addr: &[AffineForm],
    mut displacements: impl FnMut(usize, usize) -> Arc<Vec<Vec<i64>>>,
) -> CandidateBase {
    (0..nest.refs.len())
        .map(|a| {
            (0..nest.refs.len())
                // Uniform pairs only (same array, equal subscript/address
                // coefficients); non-uniform same-array reuse is
                // conservatively ignored, as in the original CME framework.
                .filter(|&b| {
                    nest.refs[a].array == nest.refs[b].array && addr[a].coeffs == addr[b].coeffs
                })
                .map(|b| (b, displacements(a, b)))
                .collect()
        })
        .collect()
}

/// Build the candidate base from scratch (no cross-candidate cache).
pub fn candidate_base(nest: &LoopNest, layout: &MemoryLayout, line: i64) -> CandidateBase {
    let spans = nest.spans();
    let addr = layout.address_forms(nest);
    candidate_base_with(nest, &addr, |a, b| {
        Arc::new(original_displacements(&addr[a], &addr[b], line, &spans))
    })
}

/// Lift a candidate base into an execution space: displacements decompose
/// into (block, offset) realisations, then are recency-sorted, deduped
/// and truncated. This is the cheap per-candidate half of generation.
pub fn lift_base(base: &CandidateBase, space: &ExecSpace) -> Vec<Vec<ReuseCandidate>> {
    base.iter()
        .enumerate()
        .map(|(a, pairs)| {
            let mut cands: Vec<ReuseCandidate> = Vec::new();
            for (b, displacements) in pairs {
                for r in displacements.iter() {
                    for rv in space.lift_displacement(r) {
                        match lex_cmp(&rv, &vec![0; rv.len()]) {
                            Ordering::Greater => {
                                cands.push(ReuseCandidate { rv, src_ref: *b });
                            }
                            Ordering::Equal => {
                                // Intra-iteration reuse: source must
                                // execute earlier in the body.
                                if *b < a {
                                    cands.push(ReuseCandidate { rv, src_ref: *b });
                                }
                            }
                            Ordering::Less => {}
                        }
                    }
                }
            }
            // Recency order: lexicographically smaller displacement =
            // closer source; ties broken by later body position (more
            // recent).
            cands.sort_by(|x, y| lex_cmp(&x.rv, &y.rv).then(y.src_ref.cmp(&x.src_ref)));
            cands.dedup();
            cands.truncate(MAX_CANDIDATES_PER_REF);
            cands
        })
        .collect()
}

/// Generate the recency-sorted candidate list for every reference of a
/// nest under a layout, lifted into the given execution space, for the
/// given cache line size. Equivalent to lifting [`candidate_base`] —
/// which is exactly how it is implemented, so the from-scratch and
/// engine-cached paths cannot drift apart.
pub fn candidates_with_line(
    nest: &LoopNest,
    layout: &MemoryLayout,
    space: &ExecSpace,
    line: i64,
) -> Vec<Vec<ReuseCandidate>> {
    lift_base(&candidate_base(nest, layout, line), space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::TileSizes;

    /// MM kernel at n=8.
    fn mm_nest() -> LoopNest {
        let mut nb = NestBuilder::new("mm");
        let i = nb.add_loop("i", 1, 8);
        let j = nb.add_loop("j", 1, 8);
        let k = nb.add_loop("k", 1, 8);
        let a = nb.array("a", &[8, 8]);
        let b = nb.array("b", &[8, 8]);
        let c = nb.array("c", &[8, 8]);
        nb.read(a, &[sub(i), sub(j)]);
        nb.read(b, &[sub(i), sub(k)]);
        nb.read(c, &[sub(k), sub(j)]);
        nb.write(a, &[sub(i), sub(j)]);
        nb.finish().unwrap()
    }

    #[test]
    fn mm_has_expected_reuse_vectors() {
        let nest = mm_nest();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let cands = candidates_with_line(&nest, &layout, &space, 32);
        // a(i,j) (ref 0): self-temporal along k = (0,0,1); group with the
        // write (ref 3) at r = 0.
        assert!(cands[0].iter().any(|c| c.rv == vec![0, 0, 1]), "a(i,j) temporal along k");
        // c(k,j) (ref 2): temporal along i = (1,0,0) — the outer-loop reuse.
        assert!(
            cands[2].iter().any(|c| c.rv == vec![1, 0, 0] && c.src_ref == 2),
            "c(k,j) temporal along i"
        );
        // b(i,k) (ref 1): temporal along j = (0,1,0); spatial along i
        // (stride 4 < line 32). At n = 8 the k-stride is exactly one line
        // (8·4 = 32 bytes), so there is *no* spatial reuse along k.
        assert!(cands[1].iter().any(|c| c.rv == vec![0, 1, 0]), "b(i,k) temporal along j");
        assert!(cands[1].iter().any(|c| c.rv == vec![1, 0, 0]), "b(i,k) spatial along i");
        assert!(
            !cands[1].iter().any(|c| c.rv == vec![0, 0, 1]),
            "no same-line reuse along k at n=8"
        );
        // The write a(i,j) (ref 3) can reuse the read a(i,j) (ref 0)
        // within the same iteration.
        assert!(
            cands[3].iter().any(|c| c.rv == vec![0, 0, 0] && c.src_ref == 0),
            "intra-iteration group reuse"
        );
        // And the read cannot claim reuse from the (later) write at r = 0.
        assert!(!cands[0].iter().any(|c| c.rv == vec![0, 0, 0] && c.src_ref == 3));
    }

    #[test]
    fn candidates_sorted_by_recency() {
        let nest = mm_nest();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let cands = candidates_with_line(&nest, &layout, &space, 32);
        for per_ref in &cands {
            for w in per_ref.windows(2) {
                assert_ne!(lex_cmp(&w[0].rv, &w[1].rv), Ordering::Greater, "must be ascending");
            }
        }
    }

    #[test]
    fn tiled_lifting_adds_wrap_candidates() {
        let nest = mm_nest();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::tiled(&nest, &TileSizes(vec![4, 4, 4]));
        let cands = candidates_with_line(&nest, &layout, &space, 32);
        // a(i,j) temporal along k lifts to (0,0,0, 0,0,1) and the wrap
        // (0,0,1, 0,0,-3).
        assert!(cands[0].iter().any(|c| c.rv == vec![0, 0, 0, 0, 0, 1]));
        assert!(cands[0].iter().any(|c| c.rv == vec![0, 0, 1, 0, 0, -3]));
    }

    #[test]
    fn spatial_multiples_within_line() {
        // Single loop over x(i): stride 4, line 32 ⇒ same-line displacements
        // up to |k| ≤ 7.
        let mut nb = NestBuilder::new("stream");
        let i = nb.add_loop("i", 1, 64);
        let x = nb.array("x", &[64]);
        nb.read(x, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let cands = candidates_with_line(&nest, &layout, &space, 32);
        for k in 1..=7 {
            assert!(cands[0].iter().any(|c| c.rv == vec![k]), "missing spatial multiple {k}");
        }
        assert!(
            !cands[0].iter().any(|c| c.rv == vec![8]),
            "8 elements apart is never the same line"
        );
    }

    #[test]
    fn group_reuse_between_offset_references() {
        // x(i) and x(i+2): reading x(i+2) then x(i) two iterations later
        // touches the same element: displacement 2 for the x(i) reference.
        let mut nb = NestBuilder::new("pair");
        let i = nb.add_loop("i", 1, 32);
        let x = nb.array("x", &[40]);
        nb.read(x, &[sub(i).plus(2)]);
        nb.read(x, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let cands = candidates_with_line(&nest, &layout, &space, 4); // 1 element per line
                                                                     // Temporal group reuse of ref 1 (x(i)) from ref 0 (x(i+2)) at r=2.
        assert!(cands[1].iter().any(|c| c.rv == vec![2] && c.src_ref == 0));
        // Intra-iteration: ref 1 from ref 0 at r = 0 is only same-line when
        // lines are wider; with 4-byte lines it is not generated... but the
        // candidate list may include r=0 from the window check only if
        // |δ| < ls. Here δ = 8 ≥ 4: must be absent.
        assert!(!cands[1].iter().any(|c| c.rv == vec![0]));
    }
}
