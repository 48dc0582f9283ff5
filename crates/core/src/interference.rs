//! Replacement-equation solving: does anything evict the reused line?
//!
//! Given a reuse source occurrence `(v_src, ref B)` and the current
//! occurrence `(v_cur, ref A)` touching line `l0` of set `s0`, the reuse is
//! *blocked* when the accesses strictly between them bring at least
//! `assoc` distinct other lines into set `s0` (paper §2.2; for a
//! direct-mapped cache: any single one).
//!
//! The interval decomposes into (a) trailing references of the source
//! iteration, (b) leading references of the current iteration, and (c) the
//! lexicographically-between iterations — a union of boxes per convex
//! region (paper §2.4). On each box, "reference C touches set `s0`" is
//! `∃ j, n : addr_C(j) − n·M ∈ [s0·ls, s0·ls + ls − 1]` with `M` = way
//! size (cache size / associativity) — the paper's replacement polyhedron,
//! answered exactly by the `formhit` solver with `n` as an extra box
//! variable. The reused line itself (`n = n0`) is excluded by splitting
//! the `n` range.

use crate::CacheSpec;
use cme_loopnest::ExecSpace;
use cme_polyhedra::dioph::{div_ceil, div_floor};
use cme_polyhedra::formhit::{interval_hit, Budget};
use cme_polyhedra::lex::between_open;
use cme_polyhedra::{AffineForm, IntBox, Interval};

/// Per-thread interference engine: owns the solver budget, statistics
/// and the scratch buffers of the classification kernel. The buffers grow
/// to the largest query seen and are then reused, so classifying with a
/// warm engine allocates nothing.
pub struct InterferenceEngine {
    pub cache: CacheSpec,
    pub budget: Budget,
    /// Cap on wrap-variable values enumerated for distinct-line counting
    /// (set-associative analysis). Exceeding it conservatively declares
    /// the reuse blocked.
    pub line_enum_cap: i64,
    /// Conservative outcomes taken due to the enumeration cap.
    pub assoc_fallbacks: u64,
    /// Distinct conflicting lines seen by the current check.
    lines: Vec<i64>,
    /// The current lexicographic piece clipped to a region.
    clipped: IntBox,
    /// Normalised solver terms.
    terms: Vec<(i64, i64)>,
    /// Most-recent-source search: the latest probe and the best source
    /// found so far (see `classify::most_recent_source`).
    pub(crate) candidate: Vec<i64>,
    pub(crate) source: Vec<i64>,
}

impl InterferenceEngine {
    pub fn new(cache: CacheSpec, solver_nodes: u64) -> Self {
        InterferenceEngine {
            cache,
            budget: Budget::new(solver_nodes),
            line_enum_cap: 4096,
            assoc_fallbacks: 0,
            lines: Vec::new(),
            clipped: IntBox::new(Vec::new()),
            terms: Vec::new(),
            candidate: Vec::new(),
            source: Vec::new(),
        }
    }

    /// Decide whether the reuse of line `l0` from occurrence
    /// `(v_src, src_pos)` to `(v_cur, cur_pos)` is blocked by interference.
    ///
    /// `addr` are the per-reference address forms over analysis
    /// coordinates; `space` supplies the convex regions.
    pub fn blocks_reuse(
        &mut self,
        space: &ExecSpace,
        addr: &[AffineForm],
        v_src: &[i64],
        src_pos: usize,
        v_cur: &[i64],
        cur_pos: usize,
        l0: i64,
    ) -> bool {
        let s0 = self.cache.set_of_line(l0);
        let assoc = self.cache.assoc;
        // Distinct conflicting lines seen so far (assoc is small).
        self.lines.clear();
        let note_line = |lines: &mut Vec<i64>, l: i64| -> bool {
            if !lines.contains(&l) {
                lines.push(l);
            }
            lines.len() as i64 >= assoc
        };

        // (a) + (b): endpoint iterations, checked by direct evaluation.
        let same_iter = v_src == v_cur;
        let endpoints: &[(&[i64], std::ops::Range<usize>)] = &if same_iter {
            [(v_src, src_pos + 1..cur_pos), (v_cur, 0..0)]
        } else {
            [(v_src, src_pos + 1..addr.len()), (v_cur, 0..cur_pos)]
        };
        for (v, range) in endpoints {
            for r in range.clone() {
                let a = addr[r].eval(v);
                let l = self.cache.line_of(a);
                if l != l0 && self.cache.set_of_line(l) == s0 && note_line(&mut self.lines, l) {
                    return true;
                }
            }
        }
        if same_iter {
            return false;
        }

        // (c): strictly-between iterations.
        let m = self.cache.sets() * self.cache.line; // way size
        let window =
            Interval::new(s0 * self.cache.line, s0 * self.cache.line + self.cache.line - 1);
        let n0 = l0.div_euclid(self.cache.sets());
        for piece in between_open(v_src, v_cur) {
            for region in &space.regions {
                if !piece.clip_to_box(&region.vbox, &mut self.clipped) || self.clipped.is_empty() {
                    continue;
                }
                // Triangular spaces: drop or tighten pieces against the
                // shape constraints (no-op on rectangular spaces). The
                // residual over-approximation only errs towards blocked
                // reuse — conservative, never optimistic.
                if !space.refine_box(&mut self.clipped.dims) {
                    continue;
                }
                for form in addr {
                    let range = form.range_over(&self.clipped);
                    // n values for which some address in range can fall in
                    // the window: addr − n·m ∈ window.
                    let n_min = div_ceil(range.lo - window.hi, m);
                    let n_max = div_floor(range.hi - window.lo, m);
                    if n_min > n_max {
                        continue;
                    }
                    if assoc == 1 {
                        // Direct-mapped: existence of any conflicting line.
                        for n_iv in [
                            Interval::new(n_min, (n0 - 1).min(n_max)),
                            Interval::new((n0 + 1).max(n_min), n_max),
                        ] {
                            if n_iv.is_empty() {
                                continue;
                            }
                            if self.piece_hits(form, n_iv, m, window) {
                                return true;
                            }
                        }
                    } else {
                        // k-way: count distinct lines (distinct n).
                        if n_max - n_min + 1 > self.line_enum_cap {
                            self.assoc_fallbacks += 1;
                            return true;
                        }
                        for n in n_min..=n_max {
                            if n == n0 {
                                continue;
                            }
                            let l = n * self.cache.sets() + s0;
                            if self.lines.contains(&l) {
                                continue;
                            }
                            if self.piece_hits(form, Interval::point(n), m, window)
                                && note_line(&mut self.lines, l)
                            {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// `∃ j ∈ clipped, n ∈ n_iv : form(j) − n·m ∈ window` via the
    /// interval-hit solver with `n` as its extra variable.
    fn piece_hits(&mut self, form: &AffineForm, n_iv: Interval, m: i64, window: Interval) -> bool {
        interval_hit(
            form,
            &self.clipped,
            Some((-m, n_iv)),
            window,
            &mut self.budget,
            &mut self.terms,
        )
        .as_conservative_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::{ExecSpace, MemoryLayout};

    /// Two arrays that alias in a 64-byte direct-mapped cache with 8-byte
    /// lines: x and y are 64 bytes apart.
    fn aliased_pair() -> (cme_loopnest::LoopNest, MemoryLayout, ExecSpace) {
        let mut nb = NestBuilder::new("alias");
        let i = nb.add_loop("i", 1, 16);
        let x = nb.array("x", &[16]);
        let y = nb.array("y", &[16]);
        nb.read(x, &[sub(i)]);
        nb.read(y, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        (nest, layout, space)
    }

    #[test]
    fn endpoint_conflict_detected() {
        let (nest, layout, space) = aliased_pair();
        let cache = CacheSpec::direct_mapped(64, 8);
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(cache, 10_000);
        // x(i) at iteration 2 reusing x(i−1)'s line from iteration 1:
        // x(1) is addr 0 (line 0), x(2) is addr 4 (line 0). Interfering
        // y(1) at addr 64 → line 8 → set 0: conflict.
        let l0 = cache.line_of(addr[0].eval(&[2]));
        assert_eq!(l0, 0);
        assert!(eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0));
    }

    #[test]
    fn no_conflict_without_aliasing() {
        // Same nest, but a cache big enough that x and y never conflict.
        let (nest, layout, space) = aliased_pair();
        let cache = CacheSpec::direct_mapped(1024, 8);
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(cache, 10_000);
        let l0 = cache.line_of(addr[0].eval(&[2]));
        assert!(!eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0));
    }

    #[test]
    fn two_way_cache_tolerates_single_conflict() {
        let (nest, layout, space) = aliased_pair();
        // 128-byte 2-way cache, 8-byte lines: 8 sets, way size 64. x(i)
        // and y(i) alias (64 apart) but 2 ways hold both.
        let cache = CacheSpec { size: 128, line: 8, assoc: 2 };
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(cache, 10_000);
        let l0 = cache.line_of(addr[0].eval(&[2]));
        assert!(
            !eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0),
            "one intervening line must not evict in a 2-way cache"
        );
    }

    #[test]
    fn same_line_access_is_not_interference() {
        // Single array streamed: x(i) then x(i) again via a second ref.
        let mut nb = NestBuilder::new("dup");
        let i = nb.add_loop("i", 1, 8);
        let x = nb.array("x", &[8]);
        nb.read(x, &[sub(i)]);
        nb.read(x, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let cache = CacheSpec::direct_mapped(64, 8);
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(cache, 10_000);
        // Reuse of x(3) (ref 0) from x(2)... same line when both in line 1
        // (addresses 8..15 = elements 3,4).
        let l0 = cache.line_of(addr[0].eval(&[4]));
        assert_eq!(l0, cache.line_of(addr[0].eval(&[3])));
        assert!(!eng.blocks_reuse(&space, &addr, &[3], 0, &[4], 0, l0));
    }
}
