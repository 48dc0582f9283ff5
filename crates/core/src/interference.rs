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
//!
//! Only that last test depends on the cache's size and associativity, so
//! one engine checks every level of one line size in a single walk over
//! (a), (b) and the pieces × regions × address forms of (c). Each level
//! keeps its own wrap range, solver budget and distinct-line set, issues
//! the same solver queries in the same order as a walk of its own, and
//! leaves the walk once it is blocked.

use crate::estimate::SolverStats;
use crate::CacheSpec;
use cme_loopnest::ExecSpace;
use cme_polyhedra::dioph::{div_ceil, div_floor};
use cme_polyhedra::formhit::{interval_hit, Budget};
use cme_polyhedra::lex::between_open;
use cme_polyhedra::{AffineForm, IntBox, Interval};

/// Per-thread interference engine for the cache levels that share one
/// line size. The reuse check is one walk over the source and the
/// between iterations shared by every level: each level keeps only its
/// own set-conflict test (its n-range, solver queries and distinct-line
/// count) and drops out of the walk once it is decided. The engine owns
/// the scratch buffers of the classification kernel; they grow to the
/// largest query seen and are then reused, so classifying with a warm
/// engine allocates nothing.
pub struct InterferenceEngine {
    /// Line size of every level, in bytes.
    line: i64,
    /// The levels, in the order their verdicts are reported.
    pub(crate) levels: Vec<LevelState>,
    /// Cap on wrap-variable values enumerated for distinct-line counting
    /// (set-associative analysis). Exceeding it conservatively declares
    /// the reuse blocked.
    pub line_enum_cap: i64,
    /// The current lexicographic piece clipped to a region.
    clipped: IntBox,
    /// Normalised solver terms.
    terms: Vec<(i64, i64)>,
    /// Most-recent-source search: the latest probe and the best source
    /// found so far (see `classify::most_recent_source`).
    pub(crate) candidate: Vec<i64>,
    pub(crate) source: Vec<i64>,
}

/// One cache level's share of a reuse check: its geometry, solver budget
/// and counters, the distinct conflicting lines of the current check and
/// that check's per-query constants.
pub struct LevelState {
    pub cache: CacheSpec,
    pub budget: Budget,
    /// Conservative outcomes taken due to the enumeration cap.
    pub assoc_fallbacks: u64,
    /// Distinct conflicting lines seen by the current check.
    lines: Vec<i64>,
    /// Verdict of the current check so far.
    blocked: bool,
    /// Per-query constants: set count, way size, the reused line's set,
    /// its wrap value and its set's byte window.
    sets: i64,
    way: i64,
    s0: i64,
    n0: i64,
    window: Interval,
}

impl InterferenceEngine {
    /// An engine for `caches`, which must share one line size.
    pub fn new(caches: &[CacheSpec], solver_nodes: u64) -> Self {
        let line = caches.first().expect("at least one cache level").line;
        assert!(caches.iter().all(|c| c.line == line), "levels of one pass share a line size");
        InterferenceEngine {
            line,
            levels: caches.iter().map(|&cache| LevelState::new(cache, solver_nodes)).collect(),
            line_enum_cap: 4096,
            clipped: IntBox::new(Vec::new()),
            terms: Vec::new(),
            candidate: Vec::new(),
            source: Vec::new(),
        }
    }

    /// The levels, in the order their verdicts are reported.
    pub fn levels(&self) -> &[LevelState] {
        &self.levels
    }

    /// Line size of every level, in bytes.
    pub fn line(&self) -> i64 {
        self.line
    }

    /// Memory line of byte address `addr`.
    pub fn line_of(&self, addr: i64) -> i64 {
        addr.div_euclid(self.line)
    }

    /// Decide, per level, whether the reuse of line `l0` from occurrence
    /// `(v_src, src_pos)` to `(v_cur, cur_pos)` is blocked by interference;
    /// read the verdicts with [`LevelState::blocked`]. Every level sees
    /// the solver queries, in the same order, that a walk of its own would
    /// issue.
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
    ) {
        let InterferenceEngine { line, levels, line_enum_cap, clipped, terms, .. } = self;
        for level in levels.iter_mut() {
            level.start(l0);
        }
        // Levels still undecided; the walk ends when none is left.
        let mut open = levels.len();

        // (a) + (b): endpoint iterations, checked by direct evaluation.
        let same_iter = v_src == v_cur;
        let endpoints: &[(&[i64], std::ops::Range<usize>)] = &if same_iter {
            [(v_src, src_pos + 1..cur_pos), (v_cur, 0..0)]
        } else {
            [(v_src, src_pos + 1..addr.len()), (v_cur, 0..cur_pos)]
        };
        for (v, range) in endpoints {
            for r in range.clone() {
                let l = addr[r].eval(v).div_euclid(*line);
                if l == l0 {
                    continue;
                }
                for level in levels.iter_mut().filter(|level| !level.blocked) {
                    if level.endpoint_blocks(l) {
                        open -= 1;
                        if open == 0 {
                            return;
                        }
                    }
                }
            }
        }
        if same_iter {
            return;
        }

        // (c): strictly-between iterations.
        for piece in between_open(v_src, v_cur) {
            for region in &space.regions {
                if !piece.clip_to_box(&region.vbox, clipped) || clipped.is_empty() {
                    continue;
                }
                // Triangular spaces: drop or tighten pieces against the
                // shape constraints (no-op on rectangular spaces). The
                // residual over-approximation only errs towards blocked
                // reuse — conservative, never optimistic.
                if !space.refine_box(&mut clipped.dims) {
                    continue;
                }
                for form in addr {
                    let range = form.range_over(clipped);
                    for level in levels.iter_mut().filter(|level| !level.blocked) {
                        if level.form_blocks(form, range, clipped, *line_enum_cap, terms) {
                            open -= 1;
                            if open == 0 {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl LevelState {
    fn new(cache: CacheSpec, solver_nodes: u64) -> Self {
        LevelState {
            cache,
            budget: Budget::new(solver_nodes),
            assoc_fallbacks: 0,
            lines: Vec::new(),
            blocked: false,
            sets: cache.sets(),
            way: cache.sets() * cache.line,
            s0: 0,
            n0: 0,
            window: Interval::empty(),
        }
    }

    /// Verdict of the last [`InterferenceEngine::blocks_reuse`] check.
    pub fn blocked(&self) -> bool {
        self.blocked
    }

    /// Reset for a check of the reuse of line `l0`.
    fn start(&mut self, l0: i64) {
        self.blocked = false;
        self.lines.clear();
        self.s0 = l0.rem_euclid(self.sets);
        self.n0 = l0.div_euclid(self.sets);
        let line = self.cache.line;
        self.window = Interval::new(self.s0 * line, self.s0 * line + line - 1);
    }

    /// Note conflicting line `l`; true once `assoc` distinct ones are seen.
    fn note_line(&mut self, l: i64) -> bool {
        if !self.lines.contains(&l) {
            self.lines.push(l);
        }
        self.blocked = self.lines.len() as i64 >= self.cache.assoc;
        self.blocked
    }

    /// An endpoint access touches line `l` (not the reused one): does it
    /// decide this level?
    fn endpoint_blocks(&mut self, l: i64) -> bool {
        l.rem_euclid(self.sets) == self.s0 && self.note_line(l)
    }

    /// Can `form`, over the clipped box where it spans `range`, bring
    /// enough distinct lines into the reused line's set to decide this
    /// level?
    fn form_blocks(
        &mut self,
        form: &AffineForm,
        range: Interval,
        clipped: &IntBox,
        line_enum_cap: i64,
        terms: &mut Vec<(i64, i64)>,
    ) -> bool {
        // n values for which some address in range can fall in the
        // window: addr − n·way ∈ window.
        let n_min = div_ceil(range.lo - self.window.hi, self.way);
        let n_max = div_floor(range.hi - self.window.lo, self.way);
        if n_min > n_max {
            return false;
        }
        let n0 = self.n0;
        if self.cache.assoc == 1 {
            // Direct-mapped: existence of any conflicting line.
            self.blocked = [
                Interval::new(n_min, (n0 - 1).min(n_max)),
                Interval::new((n0 + 1).max(n_min), n_max),
            ]
            .into_iter()
            .any(|n_iv| !n_iv.is_empty() && self.piece_hits(form, n_iv, clipped, terms));
            return self.blocked;
        }
        // k-way: count distinct lines (distinct n).
        if n_max - n_min + 1 > line_enum_cap {
            self.assoc_fallbacks += 1;
            self.blocked = true;
            return true;
        }
        for n in n_min..=n_max {
            if n == n0 {
                continue;
            }
            let l = n * self.sets + self.s0;
            if self.lines.contains(&l) {
                continue;
            }
            if self.piece_hits(form, Interval::point(n), clipped, terms) && self.note_line(l) {
                return true;
            }
        }
        false
    }

    /// `∃ j ∈ clipped, n ∈ n_iv : form(j) − n·way ∈ window` via the
    /// interval-hit solver with `n` as its extra variable.
    fn piece_hits(
        &mut self,
        form: &AffineForm,
        n_iv: Interval,
        clipped: &IntBox,
        terms: &mut Vec<(i64, i64)>,
    ) -> bool {
        interval_hit(form, clipped, Some((-self.way, n_iv)), self.window, &mut self.budget, terms)
            .as_conservative_bool()
    }

    /// This level's solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            queries: self.budget.queries,
            fallbacks: self.budget.fallbacks,
            nodes: self.budget.nodes_used,
            assoc_fallbacks: self.assoc_fallbacks,
        }
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
        let mut eng = InterferenceEngine::new(&[cache], 10_000);
        // x(i) at iteration 2 reusing x(i−1)'s line from iteration 1:
        // x(1) is addr 0 (line 0), x(2) is addr 4 (line 0). Interfering
        // y(1) at addr 64 → line 8 → set 0: conflict.
        let l0 = cache.line_of(addr[0].eval(&[2]));
        assert_eq!(l0, 0);
        eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0);
        assert!(eng.levels()[0].blocked());
    }

    #[test]
    fn no_conflict_without_aliasing() {
        // Same nest, but a cache big enough that x and y never conflict.
        let (nest, layout, space) = aliased_pair();
        let cache = CacheSpec::direct_mapped(1024, 8);
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(&[cache], 10_000);
        let l0 = cache.line_of(addr[0].eval(&[2]));
        eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0);
        assert!(!eng.levels()[0].blocked());
    }

    #[test]
    fn two_way_cache_tolerates_single_conflict() {
        let (nest, layout, space) = aliased_pair();
        // 128-byte 2-way cache, 8-byte lines: 8 sets, way size 64. x(i)
        // and y(i) alias (64 apart) but 2 ways hold both.
        let cache = CacheSpec { size: 128, line: 8, assoc: 2 };
        let addr: Vec<AffineForm> =
            layout.address_forms(&nest).iter().map(|f| space.lift_form(f)).collect();
        let mut eng = InterferenceEngine::new(&[cache], 10_000);
        let l0 = cache.line_of(addr[0].eval(&[2]));
        eng.blocks_reuse(&space, &addr, &[1], 0, &[2], 0, l0);
        assert!(!eng.levels()[0].blocked(), "one intervening line must not evict in a 2-way cache");
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
        let mut eng = InterferenceEngine::new(&[cache], 10_000);
        // Reuse of x(3) (ref 0) from x(2)... same line when both in line 1
        // (addresses 8..15 = elements 3,4).
        let l0 = cache.line_of(addr[0].eval(&[4]));
        assert_eq!(l0, cache.line_of(addr[0].eval(&[3])));
        eng.blocks_reuse(&space, &addr, &[3], 0, &[4], 0, l0);
        assert!(!eng.levels()[0].blocked());
    }
}
