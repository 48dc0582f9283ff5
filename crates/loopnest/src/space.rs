//! Execution spaces: the iteration domain in analysis coordinates.
//!
//! The fast CME solver wants every convex region of the iteration space to
//! be an integer *box*. For the original nest that is immediate. For a
//! tiled nest we analyse in `(b_1..b_d, u_1..u_d)` coordinates — block
//! index and intra-tile offset — where `i_t = lo_t + T_t·b_t + u_t`:
//!
//! * execution order is plain lexicographic order on `(b, u)` (identical
//!   to the program order of the tiled loops of Fig. 3(b));
//! * the up-to-`2^d` convex regions of paper §2.4 (full/partial last tile
//!   per dimension) are *pure boxes* in these coordinates;
//! * the projection back to original loop variables is one affine map,
//!   shared by all regions, so per-reference address forms remain single
//!   affine forms.

use crate::nest::LoopNest;
use crate::tiling::TileSizes;
use cme_polyhedra::{AffineForm, IntBox, Interval};
use serde::{Deserialize, Serialize};

/// One convex region: a box in analysis coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    pub vbox: IntBox,
}

/// Non-rectangular refinement of an execution space: the triangular shape
/// carved out of the hull regions by affine half-space constraints.
///
/// The hull regions (and their rank bijection) are untouched — a shaped
/// space is "hull boxes ∩ constraints", so every box-based algorithm stays
/// valid as a conservative over-approximation and exact consumers filter
/// through [`ExecSpace::contains_v`] / [`ExecSpace::refine_box`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceShape {
    /// Constraints `g(v) ≥ 0` over analysis coordinates; a point belongs
    /// to the shape iff it is in a hull region and satisfies all of them.
    pub constraints: Vec<AffineForm>,
    /// Per original dimension, the exact affine lower/upper bound over the
    /// *original* loop variables (referencing outer dimensions only);
    /// `None` for constant (hull) bounds.
    pub lo_forms: Vec<Option<AffineForm>>,
    pub hi_forms: Vec<Option<AffineForm>>,
    /// Exact point count of the shape (cached at construction).
    pub volume: u64,
}

/// How analysis coordinates relate to the original loop variables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceKind {
    /// `v = i` (original nest).
    Original,
    /// `v = (b_1..b_d, u_1..u_d)` with `i_t = lo_t + T_t·b_t + u_t`.
    Tiled { tiles: TileSizes },
}

/// The execution space of a (possibly tiled) nest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecSpace {
    pub kind: SpaceKind,
    /// Nest depth `d` (number of original loop variables).
    pub n_orig: usize,
    /// Analysis dimensionality: `d` (original) or `2d` (tiled).
    pub n_v: usize,
    /// Disjoint convex regions covering the space.
    pub regions: Vec<Region>,
    /// `proj[t]` maps an analysis point to original variable `t`.
    pub proj: Vec<AffineForm>,
    /// Triangular refinement; `None` for rectangular nests (whose wire
    /// bytes stay exactly as before).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shape: Option<SpaceShape>,
    /// Original loop lower bounds and spans (cached for lifting).
    los: Vec<i64>,
    spans: Vec<i64>,
}

impl ExecSpace {
    /// The untransformed space: one box, identity projection.
    pub fn untiled(nest: &LoopNest) -> Self {
        let d = nest.depth();
        let proj: Vec<AffineForm> = (0..d).map(|t| AffineForm::var(d, t)).collect();
        let shape = Self::shape_of(nest, &proj);
        ExecSpace {
            kind: SpaceKind::Original,
            n_orig: d,
            n_v: d,
            regions: vec![Region { vbox: nest.iter_box() }],
            proj,
            shape,
            los: nest.loops.iter().map(|l| l.lo).collect(),
            spans: nest.spans(),
        }
    }

    /// Build the triangular refinement for a nest under a projection from
    /// analysis coordinates to original variables (`None` when the nest is
    /// rectangular). Each affine bound contributes one half-space
    /// constraint in analysis coordinates: `i_t − lo_t(i) ≥ 0` and
    /// `hi_t(i) − i_t ≥ 0` with `i = proj(v)`.
    fn shape_of(nest: &LoopNest, proj: &[AffineForm]) -> Option<SpaceShape> {
        if nest.is_rectangular() {
            return None;
        }
        let d = nest.depth();
        let mut constraints = Vec::new();
        let mut lo_forms = Vec::with_capacity(d);
        let mut hi_forms = Vec::with_capacity(d);
        for (t, l) in nest.loops.iter().enumerate() {
            if let Some(f) = &l.lo_aff {
                constraints.push(proj[t].sub(&f.compose(proj)));
            }
            if let Some(f) = &l.hi_aff {
                constraints.push(f.compose(proj).sub(&proj[t]));
            }
            lo_forms.push(l.lo_aff.clone());
            hi_forms.push(l.hi_aff.clone());
        }
        let volume = nest.iterations();
        Some(SpaceShape { constraints, lo_forms, hi_forms, volume })
    }

    /// The tiled space for tile vector `T` (must be valid for the nest).
    /// Regions enumerate the full/partial-last-tile choices per dimension;
    /// dimensions whose tile divides the span need no split.
    pub fn tiled(nest: &LoopNest, tiles: &TileSizes) -> Self {
        tiles.validate(nest).expect("invalid tile sizes");
        let d = nest.depth();
        let spans = nest.spans();
        // Per-dimension region choices: (b-interval, u-interval).
        let mut choices: Vec<Vec<(Interval, Interval)>> = Vec::with_capacity(d);
        for t in 0..d {
            let (span, tile) = (spans[t], tiles.0[t]);
            let blocks = (span + tile - 1) / tile;
            let rem = span - (blocks - 1) * tile; // size of last tile, in (0, tile]
            let mut c = Vec::with_capacity(2);
            if rem == tile {
                // Tile divides span: one homogeneous choice.
                c.push((Interval::new(0, blocks - 1), Interval::new(0, tile - 1)));
            } else {
                if blocks >= 2 {
                    c.push((Interval::new(0, blocks - 2), Interval::new(0, tile - 1)));
                }
                c.push((Interval::new(blocks - 1, blocks - 1), Interval::new(0, rem - 1)));
            }
            choices.push(c);
        }
        // Cartesian product of choices.
        let mut regions: Vec<Region> = Vec::new();
        let mut idx = vec![0usize; d];
        loop {
            let mut dims = vec![Interval::point(0); 2 * d];
            for t in 0..d {
                let (b_iv, u_iv) = choices[t][idx[t]];
                dims[t] = b_iv;
                dims[d + t] = u_iv;
            }
            regions.push(Region { vbox: IntBox::new(dims) });
            // Odometer.
            let mut t = d;
            loop {
                if t == 0 {
                    idx.clear();
                    break;
                }
                t -= 1;
                idx[t] += 1;
                if idx[t] < choices[t].len() {
                    break;
                }
                idx[t] = 0;
            }
            if idx.is_empty() {
                break;
            }
        }
        // Projection: i_t = lo_t + T_t·b_t + u_t.
        let proj: Vec<AffineForm> = (0..d)
            .map(|t| {
                let mut coeffs = vec![0i64; 2 * d];
                coeffs[t] = tiles.0[t];
                coeffs[d + t] = 1;
                AffineForm::new(coeffs, nest.loops[t].lo)
            })
            .collect();
        let shape = Self::shape_of(nest, &proj);
        ExecSpace {
            kind: SpaceKind::Tiled { tiles: tiles.clone() },
            n_orig: d,
            n_v: 2 * d,
            regions,
            proj,
            shape,
            los: nest.loops.iter().map(|l| l.lo).collect(),
            spans,
        }
    }

    /// Total number of *hull* points across regions — for rectangular
    /// nests the iteration count; for triangular nests an upper bound.
    /// The global rank bijection ([`Self::point_at_global_rank`]) runs
    /// over this hull count, shaped points being a filtered subset.
    pub fn volume(&self) -> u64 {
        self.regions.iter().map(|r| r.vbox.volume()).sum()
    }

    /// Exact number of iterations (must equal the nest's, tiled or not).
    pub fn shape_volume(&self) -> u64 {
        self.shape.as_ref().map_or_else(|| self.volume(), |s| s.volume)
    }

    /// Map an analysis point to original loop variables.
    pub fn to_orig(&self, v: &[i64]) -> Vec<i64> {
        self.proj.iter().map(|p| p.eval(v)).collect()
    }

    /// Rewrite an affine form over original variables into one over
    /// analysis coordinates.
    pub fn lift_form(&self, f: &AffineForm) -> AffineForm {
        debug_assert_eq!(f.n_vars(), self.n_orig);
        f.compose(&self.proj)
    }

    /// True iff the analysis point belongs to the space (any hull region,
    /// and inside the triangular shape when one is present).
    pub fn contains_v(&self, v: &[i64]) -> bool {
        self.regions.iter().any(|r| r.vbox.contains(v)) && self.in_shape(v)
    }

    /// True iff the point satisfies every shape constraint (vacuously true
    /// for rectangular spaces).
    pub fn in_shape(&self, v: &[i64]) -> bool {
        self.shape.as_ref().is_none_or(|s| s.constraints.iter().all(|g| g.eval(v) >= 0))
    }

    /// Index of the region containing the point, if any. Regions are
    /// disjoint so the answer is unique.
    pub fn region_of(&self, v: &[i64]) -> Option<usize> {
        self.regions.iter().position(|r| r.vbox.contains(v))
    }

    /// The point with global rank `rank` across regions (region-major
    /// order). A bijection `[0, volume) → points`, used for simple random
    /// sampling.
    pub fn point_at_global_rank(&self, rank: u64) -> Vec<i64> {
        let mut r = rank;
        for region in &self.regions {
            let vol = region.vbox.volume();
            if r < vol {
                return region.vbox.point_at_rank(r);
            }
            r -= vol;
        }
        panic!("rank {rank} out of range (volume {})", self.volume());
    }

    /// All constant analysis-space displacement vectors realising a given
    /// original-space displacement `r` (reuse-vector lifting). In a tiled
    /// space a displacement `r_t` along dimension `t` decomposes as
    /// `Δb_t·T_t + Δu_t` with `|Δu_t| < T_t`, giving up to two choices per
    /// dimension (same-block and adjacent-block "wrap"); the result is the
    /// cartesian product over dimensions.
    pub fn lift_displacement(&self, r: &[i64]) -> Vec<Vec<i64>> {
        debug_assert_eq!(r.len(), self.n_orig);
        let SpaceKind::Tiled { tiles } = &self.kind else {
            return vec![r.to_vec()];
        };
        let d = self.n_orig;
        let mut per_dim: Vec<Vec<(i64, i64)>> = Vec::with_capacity(d);
        for t in 0..d {
            let tile = tiles.0[t];
            let mut opts = Vec::with_capacity(2);
            let db0 = r[t].div_euclid(tile);
            for db in [db0, db0 + 1] {
                let du = r[t] - db * tile;
                if du.abs() < tile {
                    opts.push((db, du));
                }
            }
            opts.dedup();
            per_dim.push(opts);
        }
        // Cartesian product as an odometer, last dimension varying
        // fastest; one allocation per realisation.
        let mut out = Vec::new();
        let mut idx = vec![0usize; d];
        loop {
            let mut v = vec![0i64; 2 * d];
            for t in 0..d {
                let (db, du) = per_dim[t][idx[t]];
                v[t] = db;
                v[d + t] = du;
            }
            out.push(v);
            let mut t = d;
            loop {
                if t == 0 {
                    return out;
                }
                t -= 1;
                idx[t] += 1;
                if idx[t] < per_dim[t].len() {
                    break;
                }
                idx[t] = 0;
            }
        }
    }

    /// Per-dimension *relaxed* bounds: the widest interval each analysis
    /// coordinate can take over the whole space (ignoring the coupling
    /// between block index and intra-tile offset in partial tiles).
    pub fn relaxed_dims(&self) -> Vec<Interval> {
        match &self.kind {
            SpaceKind::Original => self.regions[0].vbox.dims.clone(),
            SpaceKind::Tiled { tiles } => {
                let d = self.n_orig;
                let mut out = Vec::with_capacity(2 * d);
                for t in 0..d {
                    let blocks = (self.spans[t] + tiles.0[t] - 1) / tiles.0[t];
                    out.push(Interval::new(0, blocks - 1));
                }
                for t in 0..d {
                    out.push(Interval::new(0, tiles.0[t].min(self.spans[t]) - 1));
                }
                out
            }
        }
    }

    /// Exact feasible range of coordinate `t` given the values of all
    /// earlier coordinates (`prefix[..t]`). For a tiled space the bound of
    /// an offset coordinate depends on its block coordinate, which always
    /// precedes it. Triangular shapes narrow the interval further (and may
    /// empty it): each affine bound of an original dimension references
    /// outer dimensions only, so it resolves exactly once the prefix is
    /// fixed — for block coordinates the hull is kept and callers backtrack
    /// on the (then possibly empty) offset interval.
    pub fn dim_interval(&self, t: usize, prefix: &[i64]) -> Interval {
        match &self.kind {
            SpaceKind::Original => {
                let mut iv = self.regions[0].vbox.dims[t];
                if let Some(s) = &self.shape {
                    if let Some(f) = &s.lo_forms[t] {
                        iv = iv.intersect(&Interval::new(
                            eval_prefix(f, prefix.iter().copied()),
                            iv.hi,
                        ));
                    }
                    if let Some(f) = &s.hi_forms[t] {
                        iv = iv.intersect(&Interval::new(
                            iv.lo,
                            eval_prefix(f, prefix.iter().copied()),
                        ));
                    }
                }
                iv
            }
            SpaceKind::Tiled { tiles } => {
                let d = self.n_orig;
                if t < d {
                    let blocks = (self.spans[t] + tiles.0[t] - 1) / tiles.0[t];
                    Interval::new(0, blocks - 1)
                } else {
                    let q = t - d;
                    let b = prefix[q];
                    let mut iv =
                        Interval::new(0, (self.spans[q] - b * tiles.0[q]).min(tiles.0[q]) - 1);
                    if let Some(s) = &self.shape {
                        if s.lo_forms[q].is_some() || s.hi_forms[q].is_some() {
                            // Reconstruct the original outer values
                            // i_p = lo_p + T_p·b_p + u_p (p < q — all in the
                            // prefix), then translate the original-space
                            // bound into offset coordinates:
                            // u_q = i_q − lo_q − T_q·b_q.
                            let orig = (0..q)
                                .map(|p| self.los[p] + tiles.0[p] * prefix[p] + prefix[d + p]);
                            let base = self.los[q] + tiles.0[q] * b;
                            if let Some(f) = &s.lo_forms[q] {
                                let lo_u = eval_prefix(f, orig.clone()) - base;
                                iv = iv.intersect(&Interval::new(lo_u, iv.hi));
                            }
                            if let Some(f) = &s.hi_forms[q] {
                                let hi_u = eval_prefix(f, orig) - base;
                                iv = iv.intersect(&Interval::new(iv.lo, hi_u));
                            }
                        }
                    }
                    iv
                }
            }
        }
    }

    /// Restrict the dimensions of a box in analysis coordinates by the
    /// shape constraints, in place (interval propagation, one pass per
    /// constraint). Returns `false` when the box provably holds no shape
    /// point — `dims` is then partially tightened and meaningless —
    /// otherwise `true` with `dims` at most as large as before.
    /// Rectangular spaces leave `dims` untouched; the result is always a
    /// superset of `box ∩ shape`, so box-based solvers stay conservative,
    /// just tighter.
    pub fn refine_box(&self, dims: &mut [Interval]) -> bool {
        let Some(s) = &self.shape else { return true };
        for g in &s.constraints {
            // Feasibility: the max of g over the box must reach 0.
            let mut max: i128 = g.c0 as i128;
            for (c, iv) in g.coeffs.iter().zip(dims.iter()) {
                let (a, b) = ((*c as i128) * (iv.lo as i128), (*c as i128) * (iv.hi as i128));
                max += a.max(b);
            }
            if max < 0 {
                return false;
            }
            // Tighten each involved dimension: c·x ≥ −(max of the rest).
            for t in 0..dims.len() {
                let c = g.coeffs[t];
                if c == 0 {
                    continue;
                }
                let iv = dims[t];
                let rest = max - (c as i128) * (if c > 0 { iv.hi } else { iv.lo }) as i128;
                let tightened = if c > 0 {
                    // x ≥ ceil(−rest / c)
                    let lo = (-rest).div_euclid(c as i128)
                        + i128::from((-rest).rem_euclid(c as i128) != 0);
                    Interval::new(clamp_i64(lo).max(iv.lo), iv.hi)
                } else {
                    // x ≤ floor(rest / −c)
                    let hi = rest.div_euclid(-(c as i128));
                    Interval::new(iv.lo, clamp_i64(hi).min(iv.hi))
                };
                if tightened.is_empty() {
                    return false;
                }
                dims[t] = tightened;
            }
        }
        true
    }

    /// Visit every point in *execution order* (lexicographic on analysis
    /// coordinates). Intended for exhaustive analysis of small spaces.
    /// Triangular spaces visit exactly the shape points, in the same
    /// order.
    pub fn for_each_point(&self, mut callback: impl FnMut(&[i64])) {
        let mut f = |v: &[i64]| {
            if self.in_shape(v) {
                callback(v);
            }
        };
        match &self.kind {
            SpaceKind::Original => {
                let b = &self.regions[0].vbox;
                for p in b.iter_points() {
                    f(&p);
                }
            }
            SpaceKind::Tiled { tiles } => {
                // Iterate blocks lexicographically, then offsets with
                // block-dependent bounds — exactly the tiled loop order.
                let d = self.n_orig;
                let blocks: Vec<i64> =
                    tiles.0.iter().zip(&self.spans).map(|(&t, &s)| (s + t - 1) / t).collect();
                let bbox = IntBox::from_sizes(&blocks);
                let mut v = vec![0i64; 2 * d];
                for b in bbox.iter_points() {
                    v[..d].copy_from_slice(&b);
                    // Per-dim offset bound for this block.
                    let ubounds: Vec<i64> = (0..d)
                        .map(|t| {
                            let tile = tiles.0[t];
                            (self.spans[t] - b[t] * tile).min(tile)
                        })
                        .collect();
                    let ubox = IntBox::from_sizes(&ubounds);
                    for u in ubox.iter_points() {
                        v[d..].copy_from_slice(&u);
                        f(&v);
                    }
                }
            }
        }
    }
}

/// Evaluate an affine form whose nonzero coefficients all lie within the
/// prefix values given (the bound-validation invariant: a loop's bound
/// only references outer loops).
fn eval_prefix(f: &AffineForm, prefix: impl IntoIterator<Item = i64>) -> i64 {
    let mut acc = f.c0 as i128;
    for (c, v) in f.coeffs.iter().zip(prefix) {
        acc += (*c as i128) * (v as i128);
    }
    i64::try_from(acc).expect("bound eval overflow")
}

fn clamp_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayDecl;
    use crate::nest::{LoopDef, LoopNest};

    fn nest(spans: &[i64]) -> LoopNest {
        LoopNest {
            name: "n".into(),
            loops: spans
                .iter()
                .enumerate()
                .map(|(t, &s)| LoopDef::new(format!("i{t}"), 1, s))
                .collect(),
            arrays: vec![ArrayDecl::real4("a", &[1])],
            refs: vec![],
        }
    }

    #[test]
    fn paper_figure2_example() {
        // do i = 1,7 tiled by 3 (Fig. 2): 2 convex regions; 7 points total.
        let n = nest(&[7]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3]));
        assert_eq!(s.regions.len(), 2);
        assert_eq!(s.volume(), 7);
        // Full region: b ∈ [0,1], u ∈ [0,2]; partial: b = 2, u ∈ [0,0].
        assert_eq!(s.regions[0].vbox, IntBox::new(vec![Interval::new(0, 1), Interval::new(0, 2)]));
        assert_eq!(s.regions[1].vbox, IntBox::new(vec![Interval::new(2, 2), Interval::new(0, 0)]));
    }

    #[test]
    fn region_count_is_2_pow_partial_dims() {
        let n = nest(&[7, 9, 8]);
        // tiles 3,4,4: dims 1,2 partial (7%3, 9%4 ≠ 0), dim 3 divides.
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3, 4, 4]));
        assert_eq!(s.regions.len(), 4);
        assert_eq!(s.volume(), 7 * 9 * 8);
    }

    #[test]
    fn tile_equal_span_is_single_region_identity_order() {
        let n = nest(&[5, 5]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![5, 5]));
        assert_eq!(s.regions.len(), 1);
        assert_eq!(s.volume(), 25);
        // Execution order must match the untiled order.
        let mut tiled_order = Vec::new();
        s.for_each_point(|v| tiled_order.push(s.to_orig(v)));
        let u = ExecSpace::untiled(&n);
        let mut orig_order = Vec::new();
        u.for_each_point(|v| orig_order.push(v.to_vec()));
        assert_eq!(tiled_order, orig_order);
    }

    #[test]
    fn projection_roundtrip_and_membership() {
        let n = nest(&[7, 5]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3, 2]));
        let mut seen = std::collections::HashSet::new();
        s.for_each_point(|v| {
            assert!(s.contains_v(v), "{v:?} must be in space");
            assert!(s.region_of(v).is_some());
            let orig = s.to_orig(v);
            assert!((1..=7).contains(&orig[0]) && (1..=5).contains(&orig[1]));
            assert!(seen.insert(orig), "original point visited twice");
        });
        assert_eq!(seen.len(), 35);
        // Points outside: u beyond partial bound.
        assert!(!s.contains_v(&[2, 0, 1, 0])); // b0=2 is last block (rem 1): u0 must be 0
    }

    #[test]
    fn execution_order_is_tiled_program_order() {
        // 1-D, U=7, T=3: order must be 1,2,3, 4,5,6, 7.
        let n = nest(&[7]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3]));
        let mut order = Vec::new();
        s.for_each_point(|v| order.push(s.to_orig(v)[0]));
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7]);
        // 2-D, 4x4, T=(2,2): first tile visits (1,1),(1,2),(2,1),(2,2).
        let n2 = nest(&[4, 4]);
        let s2 = ExecSpace::tiled(&n2, &TileSizes(vec![2, 2]));
        let mut order2 = Vec::new();
        s2.for_each_point(|v| order2.push(s2.to_orig(v)));
        assert_eq!(&order2[..4], &[vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
        assert_eq!(order2.len(), 16);
    }

    #[test]
    fn global_rank_bijection() {
        let n = nest(&[7, 5]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3, 2]));
        let vol = s.volume();
        let mut seen = std::collections::HashSet::new();
        for r in 0..vol {
            let p = s.point_at_global_rank(r);
            assert!(s.contains_v(&p));
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len() as u64, vol);
    }

    #[test]
    fn lift_form_preserves_value() {
        let n = nest(&[7, 5]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3, 2]));
        // f(i, j) = 10i + j
        let f = AffineForm::new(vec![10, 1], 0);
        let lf = s.lift_form(&f);
        s.for_each_point(|v| {
            assert_eq!(lf.eval(v), f.eval(&s.to_orig(v)));
        });
    }

    #[test]
    fn displacement_lifting_covers_all_realisations() {
        let n = nest(&[10]);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![4]));
        // Displacement 1 in original space: within-block (0, 1) or wrap
        // (1, -3).
        let lifts = s.lift_displacement(&[1]);
        assert!(lifts.contains(&vec![0, 1]));
        assert!(lifts.contains(&vec![1, -3]));
        assert_eq!(lifts.len(), 2);
        // Exact-multiple displacement: only the block jump.
        let lifts4 = s.lift_displacement(&[4]);
        assert_eq!(lifts4, vec![vec![1, 0]]);
        // Verify semantics: v - lift projects to orig - r whenever both in space.
        for r in [[1], [4]] {
            for lift in s.lift_displacement(&r) {
                s.for_each_point(|v| {
                    let src: Vec<i64> = v.iter().zip(&lift).map(|(a, b)| a - b).collect();
                    if s.contains_v(&src) {
                        assert_eq!(s.to_orig(&src)[0], s.to_orig(v)[0] - r[0]);
                    }
                });
            }
        }
    }

    /// do i = 1,n / do j = 1,i (lower triangle).
    fn tri_nest(n: i64) -> LoopNest {
        LoopNest {
            name: "tri".into(),
            loops: vec![
                LoopDef::new("i", 1, n),
                LoopDef::with_affine_bounds("j", 1, n, None, Some(AffineForm::new(vec![1, 0], 0))),
            ],
            arrays: vec![ArrayDecl::real4("a", &[1])],
            refs: vec![],
        }
    }

    #[test]
    fn triangular_untiled_space_enumerates_the_shape() {
        let n = tri_nest(4);
        let s = ExecSpace::untiled(&n);
        assert_eq!(s.volume(), 16, "hull volume");
        assert_eq!(s.shape_volume(), 10, "exact shape");
        let mut pts = Vec::new();
        s.for_each_point(|v| pts.push(v.to_vec()));
        assert_eq!(pts.len(), 10);
        // Lexicographic, j ≤ i throughout.
        assert!(pts.windows(2).all(|w| cme_polyhedra::boxes::lex_cmp(&w[0], &w[1]).is_lt()));
        assert!(pts.iter().all(|p| p[1] <= p[0]));
        assert!(s.contains_v(&[3, 2]) && !s.contains_v(&[2, 3]));
        // dim_interval narrows by prefix: j ∈ [1, i].
        assert_eq!(s.dim_interval(1, &[2]), Interval::new(1, 2));
        assert_eq!(s.dim_interval(0, &[]), Interval::new(1, 4));
    }

    #[test]
    fn triangular_tiled_space_agrees_with_untiled() {
        let n = tri_nest(7);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![3, 2]));
        assert_eq!(s.shape_volume(), 7 * 8 / 2);
        let mut seen = std::collections::HashSet::new();
        s.for_each_point(|v| {
            assert!(s.contains_v(v));
            let orig = s.to_orig(v);
            assert!(orig[1] <= orig[0], "tiled point left the triangle: {orig:?}");
            assert!(seen.insert(orig));
        });
        assert_eq!(seen.len() as u64, s.shape_volume());
    }

    #[test]
    fn triangular_tiled_dim_interval_matches_enumeration() {
        // Recursive enumeration via dim_interval must visit exactly the
        // shape points (the lexmax search's requirement).
        let n = tri_nest(5);
        let s = ExecSpace::tiled(&n, &TileSizes(vec![2, 2]));
        fn count(s: &ExecSpace, prefix: &mut Vec<i64>) -> u64 {
            if prefix.len() == s.n_v {
                return 1;
            }
            let iv = s.dim_interval(prefix.len(), prefix);
            let mut acc = 0;
            for v in iv.iter() {
                prefix.push(v);
                acc += count(s, prefix);
                prefix.pop();
            }
            acc
        }
        assert_eq!(count(&s, &mut Vec::new()), s.shape_volume());
    }

    #[test]
    fn refine_box_tightens_and_rejects() {
        let n = tri_nest(4);
        let s = ExecSpace::untiled(&n);
        // Box entirely above the diagonal: infeasible.
        let mut above = [Interval::new(1, 2), Interval::new(3, 4)];
        assert!(!s.refine_box(&mut above));
        // Straddling box: j clamps to ≤ max i.
        let mut wide = [Interval::new(1, 2), Interval::new(1, 4)];
        assert!(s.refine_box(&mut wide));
        assert_eq!(wide[1], Interval::new(1, 2));
        // Rectangular spaces pass boxes through untouched.
        let r = ExecSpace::untiled(&nest(&[4, 4]));
        let mut b = [Interval::new(1, 2), Interval::new(3, 4)];
        assert!(r.refine_box(&mut b));
        assert_eq!(b, [Interval::new(1, 2), Interval::new(3, 4)]);
    }

    #[test]
    fn triangular_space_rank_bijection_covers_the_hull() {
        // The rank bijection stays hull-based; shape points are the
        // subset accepted by contains_v (rejection sampling's contract).
        let n = tri_nest(4);
        let s = ExecSpace::untiled(&n);
        let mut in_shape = 0;
        for r in 0..s.volume() {
            if s.contains_v(&s.point_at_global_rank(r)) {
                in_shape += 1;
            }
        }
        assert_eq!(in_shape, s.shape_volume());
    }

    #[test]
    fn untiled_space_basics() {
        let n = nest(&[4, 6]);
        let s = ExecSpace::untiled(&n);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.n_v, 2);
        assert_eq!(s.to_orig(&[2, 3]), vec![2, 3]);
        assert_eq!(s.lift_displacement(&[1, -1]), vec![vec![1, -1]]);
    }
}
