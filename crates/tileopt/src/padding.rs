//! Padding search (paper §4.3): GA over memory-layout parameters.
//!
//! "Padding parameters are obtained in a similar way to tiling ones. They
//! are introduced in the CMEs and a GA is used to find near-optimal
//! solutions." We search inter-array pads (whole cache lines inserted
//! before each array's base) and, optionally, intra-array pads (extra
//! elements on the leading dimension, changing column strides). Table 3's
//! pipeline applies padding first, then tiling on the padded layout; the
//! *joint* mode searches both parameter sets in a single GA run — the
//! paper's declared future work, implemented here as an extension.

use crate::problem::{GaSummary, TilingOutcome};
use cme_core::engine::{fold_seed, SEED_SPLIT};
use cme_core::{
    CacheHierarchy, CacheSpec, EvalEngine, MissEstimate, SamplingConfig, SharedDisplacements,
};
use cme_ga::{run_ga, Domain, GaConfig, Objective};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use serde::{Deserialize, Serialize};

/// Padding search space.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PaddingSpace {
    /// Inter-array pad per array: `0..max_inter_lines` cache lines.
    pub max_inter_lines: i64,
    /// Intra-array pad on the leading dimension: `0..max_intra_elems`
    /// elements (0 disables intra padding variables).
    pub max_intra_elems: i64,
}

impl Default for PaddingSpace {
    fn default() -> Self {
        // Up to 31 lines of displacement per array and 8 elements of
        // leading-dimension padding — enough to break any same-set
        // alignment of the evaluated kernels.
        PaddingSpace { max_inter_lines: 32, max_intra_elems: 9 }
    }
}

impl PaddingSpace {
    /// GA domain for a nest: one inter variable per array (+ one intra
    /// variable per array when enabled). Domain values are 1-based
    /// (paper's `[1, U]` convention); pads are `value − 1`.
    pub fn domain(&self, nest: &LoopNest) -> Domain {
        let n = nest.arrays.len();
        let mut maxes = vec![self.max_inter_lines; n];
        if self.max_intra_elems > 1 {
            maxes.extend(vec![self.max_intra_elems; n]);
        }
        Domain::new(maxes)
    }

    /// Decode GA values into a layout.
    pub fn layout_for(&self, nest: &LoopNest, line: i64, values: &[i64]) -> MemoryLayout {
        let n = nest.arrays.len();
        let inter: Vec<i64> = values[..n].iter().map(|v| (v - 1) * line).collect();
        let intra: Vec<Vec<i64>> = (0..n)
            .map(|k| {
                let mut pads = vec![0i64; nest.arrays[k].rank()];
                if self.max_intra_elems > 1 {
                    pads[0] = values[n + k] - 1;
                }
                pads
            })
            .collect();
        MemoryLayout::with_padding(nest, &inter, &intra)
    }
}

/// Objective: replacement misses of the *untiled* nest under the candidate
/// padded layout. Candidate layouts are analysed through the shared
/// engine's displacement cache — self-pairs and same-array pairs keep
/// their (coefficients, delta) key across all padding candidates.
struct PaddingObjective<'e> {
    engine: &'e EvalEngine,
    space: PaddingSpace,
}

impl PaddingObjective<'_> {
    fn layout_for(&self, values: &[i64]) -> MemoryLayout {
        self.space.layout_for(self.engine.nest(), self.engine.model().cache.line, values)
    }
}

impl Objective for PaddingObjective<'_> {
    fn cost(&self, values: &[i64]) -> f64 {
        self.cost_with_incumbent(values, None)
    }

    fn cost_with_incumbent(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        let layout = self.layout_for(values);
        let h = fold_seed(self.engine.seed(), values);
        self.engine.estimate_seeded(Some(&layout), None, h, incumbent).weighted_cost()
    }
}

/// Outcome of a padding (or padding + tiling) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PaddingOutcome {
    /// Chosen layout parameters (raw GA values; decode with
    /// [`PaddingSpace::layout_for`]).
    pub values: Vec<i64>,
    /// Estimate of the original layout, untiled.
    pub original: MissEstimate,
    /// Estimate of the padded layout, untiled.
    pub padded: MissEstimate,
    /// Tiling outcome on the padded layout (sequential pipeline), when
    /// requested.
    pub tiled: Option<TilingOutcome>,
    pub ga: GaSummary,
}

/// GA-driven padding search.
pub struct PaddingOptimizer {
    /// The cache hierarchy the objective weighs misses against. Padding
    /// parameters are decoded in units of the innermost (L1) line size.
    pub hierarchy: CacheHierarchy,
    pub space: PaddingSpace,
    pub sampling: SamplingConfig,
    pub ga: GaConfig,
    /// Optional process-wide displacement store (see
    /// [`TilingOptimizer`](crate::TilingOptimizer)); byte-identical
    /// results with or without it.
    pub provider: Option<SharedDisplacements>,
}

impl PaddingOptimizer {
    pub fn new(cache: CacheSpec) -> Self {
        PaddingOptimizer::for_hierarchy(CacheHierarchy::single(cache))
    }

    /// A hierarchy-aware optimiser: the GA minimises the latency-weighted
    /// replacement cost over all levels.
    pub fn for_hierarchy(hierarchy: CacheHierarchy) -> Self {
        PaddingOptimizer {
            hierarchy,
            space: PaddingSpace::default(),
            sampling: SamplingConfig::paper(),
            ga: GaConfig::default(),
            provider: None,
        }
    }

    /// The shared evaluation engine for a padding search over this
    /// configuration (base layout: unpadded contiguous).
    pub fn engine(&self, nest: &LoopNest) -> EvalEngine {
        let layout = MemoryLayout::contiguous(nest);
        EvalEngine::new_hierarchy_shared(
            &self.hierarchy,
            nest,
            &layout,
            self.sampling,
            self.ga.seed,
            self.provider.as_ref().map(SharedDisplacements::provider),
        )
    }

    /// Search padding only (Table 3, column "padding").
    pub fn optimize(&self, nest: &LoopNest) -> PaddingOutcome {
        let engine = self.engine(nest);
        let objective = PaddingObjective { engine: &engine, space: self.space };
        let ga = run_ga(&self.space.domain(nest), &objective, &self.ga);
        // Both estimates use `CmeModel::estimate_nest`'s canonical
        // seeding, so `original` equals the baseline the `cme-api` layer
        // reports and the before/after pair is drawn from the same sample
        // points.
        let original = engine.estimate_canonical(None);
        let padded_layout = self.space.layout_for(nest, self.hierarchy.l1().line, &ga.best_values);
        let padded =
            engine.estimate_seeded(Some(&padded_layout), None, self.ga.seed ^ SEED_SPLIT, None);
        PaddingOutcome {
            values: ga.best_values.clone(),
            original,
            padded,
            tiled: None,
            ga: GaSummary::from(&ga),
        }
    }

    /// Table 3's sequential pipeline: padding first, then tiling on the
    /// padded layout.
    pub fn optimize_then_tile(&self, nest: &LoopNest) -> Result<PaddingOutcome, String> {
        let mut out = self.optimize(nest);
        let padded_layout = self.space.layout_for(nest, self.hierarchy.l1().line, &out.values);
        let tiler = crate::problem::TilingOptimizer {
            hierarchy: self.hierarchy.clone(),
            sampling: self.sampling,
            ga: self.ga,
            provider: self.provider.clone(),
        };
        out.tiled = Some(tiler.optimize(nest, &padded_layout)?);
        Ok(out)
    }

    /// Joint padding + tiling in a single GA (the paper's future work):
    /// the genome concatenates padding variables and tile sizes. Errors
    /// when rectangular tiling is illegal for the nest.
    pub fn optimize_joint(&self, nest: &LoopNest) -> Result<JointOutcome, String> {
        if let cme_loopnest::deps::TilingLegality::Illegal { reason } =
            cme_analysis::rectangular_tiling_legality(nest)
        {
            return Err(format!("tiling `{}` is illegal: {reason}", nest.name));
        }
        let engine = self.engine(nest);
        let pad_domain = self.space.domain(nest);
        let n_pad = pad_domain.maxes.len();
        let mut maxes = pad_domain.maxes.clone();
        maxes.extend(nest.spans());
        let domain = Domain::new(maxes);
        let objective = JointObjective { engine: &engine, space: self.space, n_pad };
        let ga = run_ga(&domain, &objective, &self.ga);
        let layout =
            self.space.layout_for(nest, self.hierarchy.l1().line, &ga.best_values[..n_pad]);
        let tiles = TileSizes(ga.best_values[n_pad..].to_vec());
        let before = engine.estimate_canonical(None);
        let effective = (!tiles.is_trivial(nest)).then_some(&tiles);
        let mut h = self.ga.seed ^ SEED_SPLIT;
        if let Some(t) = effective {
            h = fold_seed(h, &t.0);
        }
        let after = engine.estimate_seeded(Some(&layout), effective, h, None);
        Ok(JointOutcome {
            pads: ga.best_values[..n_pad].to_vec(),
            tiles,
            before,
            after,
            ga: GaSummary::from(&ga),
        })
    }
}

/// Objective of the joint search: candidate = padding values ++ tile
/// sizes; cost = replacement misses of the tiled nest under the padded
/// layout, with the tiling objective's seed convention (fold tile values
/// only — pad-equivalent layouts sample the same points).
struct JointObjective<'e> {
    engine: &'e EvalEngine,
    space: PaddingSpace,
    n_pad: usize,
}

impl Objective for JointObjective<'_> {
    fn cost(&self, values: &[i64]) -> f64 {
        self.cost_with_incumbent(values, None)
    }

    fn cost_with_incumbent(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        let nest = self.engine.nest();
        let line = self.engine.model().cache.line;
        let layout = self.space.layout_for(nest, line, &values[..self.n_pad]);
        let tiles = TileSizes(values[self.n_pad..].to_vec());
        let effective = (!tiles.is_trivial(nest)).then_some(&tiles);
        let h = fold_seed(self.engine.seed() ^ SEED_SPLIT, &tiles.0);
        self.engine.estimate_seeded(Some(&layout), effective, h, incumbent).weighted_cost()
    }
}

/// Outcome of the joint padding + tiling search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointOutcome {
    /// Raw padding GA values (decode with [`PaddingSpace::layout_for`]).
    pub pads: Vec<i64>,
    pub tiles: TileSizes,
    /// Estimate of the original layout, untiled.
    pub before: MissEstimate,
    /// Estimate of the padded layout with the chosen tiling.
    pub after: MissEstimate,
    pub ga: GaSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};

    /// Two perfectly aliased arrays streamed together: padding fixes it.
    fn aliased(n: i64) -> LoopNest {
        let mut nb = NestBuilder::new("aliased");
        let i = nb.add_loop("i", 1, n);
        let x = nb.array("x", &[n]);
        let y = nb.array("y", &[n]);
        nb.read(x, &[sub(i)]);
        nb.read(y, &[sub(i)]);
        nb.write(x, &[sub(i)]);

        nb.finish().unwrap()
    }

    #[test]
    fn padding_removes_alignment_conflicts() {
        // 256 elements × 4 B = 1024 bytes each: x and y alias exactly in a
        // 1 KB direct-mapped cache.
        let nest = aliased(256);
        let opt = PaddingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        let out = opt.optimize(&nest);
        let before = out.original.replacement_ratio();
        let after = out.padded.replacement_ratio();
        assert!(before > 0.5, "aliased streams must ping-pong (got {before})");
        assert!(after < 0.02, "padding must eliminate the conflicts (got {after})");
    }

    #[test]
    fn pipeline_padding_then_tiling_runs() {
        let nest = aliased(128);
        let opt = PaddingOptimizer::new(CacheSpec::direct_mapped(512, 32));
        let out = opt.optimize_then_tile(&nest).expect("legal");
        let tiled = out.tiled.expect("pipeline produces a tiling");
        assert!(tiled.after.replacement_ratio() <= out.original.replacement_ratio());
    }

    #[test]
    fn joint_search_matches_or_beats_pipeline() {
        let nest = aliased(128);
        let opt = PaddingOptimizer::new(CacheSpec::direct_mapped(512, 32));
        let pipeline = opt.optimize_then_tile(&nest).unwrap();
        let joint = opt.optimize_joint(&nest).unwrap();
        assert_eq!(joint.pads.len(), 2 * nest.arrays.len());
        let pipe_after =
            pipeline.tiled.as_ref().map(|t| t.after.replacement_ratio()).unwrap_or(1.0);
        // Joint search explores a superset of layouts; allow sampling
        // noise but it must be in the same ballpark or better.
        assert!(joint.after.replacement_ratio() <= pipe_after + 0.05);
    }

    #[test]
    fn domain_and_decode_shapes() {
        let nest = aliased(64);
        let space = PaddingSpace::default();
        let domain = space.domain(&nest);
        assert_eq!(domain.maxes.len(), 4); // 2 inter + 2 intra
        let layout = space.layout_for(&nest, 32, &[2, 1, 1, 1]);
        // Array 0 displaced by one 32-byte line.
        assert_eq!(layout.bases[0], 32);
    }
}
