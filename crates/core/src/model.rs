//! Top-level CME analysis API.

use crate::classify::{classify_point, Classification};
use crate::estimate::{exhaustive, one_level, sampled, MissEstimate, MissReport};
use crate::interference::InterferenceEngine;
use crate::lexmax::SuffixRanges;
use crate::reuse::ReuseCandidate;
use crate::sampling::SamplingConfig;
use crate::CacheSpec;
use cme_loopnest::{ExecSpace, LoopNest, MemoryLayout, TileSizes};
use cme_polyhedra::AffineForm;

/// The Cache Miss Equations model: cache parameters + solver settings.
///
/// ```
/// use cme_core::{CacheSpec, CmeModel};
/// use cme_loopnest::builder::{sub, NestBuilder};
/// use cme_loopnest::MemoryLayout;
///
/// // do i = 1,64 : read x(i) — REAL*4, 32-byte lines: 1 cold miss per
/// // 8 elements, nothing else.
/// let mut nb = NestBuilder::new("stream");
/// let i = nb.add_loop("i", 1, 64);
/// let x = nb.array("x", &[64]);
/// nb.read(x, &[sub(i)]);
/// let nest = nb.finish().unwrap();
/// let layout = MemoryLayout::contiguous(&nest);
///
/// let model = CmeModel::new(CacheSpec::paper_8k());
/// let report = model.analyze(&nest, &layout, None).exhaustive();
/// assert_eq!(report.per_ref[0].cold, 8);
/// assert_eq!(report.per_ref[0].replacement, 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CmeModel {
    pub cache: CacheSpec,
    /// Branch-node budget per interval-hit query (fallbacks are counted
    /// and conservative).
    pub solver_nodes: u64,
}

impl CmeModel {
    pub fn new(cache: CacheSpec) -> Self {
        CmeModel { cache, solver_nodes: 20_000 }
    }

    /// One-shot sampled estimate of a (possibly tiled) nest under a
    /// layout. The sampling seed is derived deterministically from `seed`
    /// and the tile vector, so identical inputs give bit-identical
    /// estimates — the contract the `cme-api` layer builds on. A trivial
    /// tiling (every tile spanning its loop) analyses the original nest.
    pub fn estimate_nest(
        &self,
        nest: &LoopNest,
        layout: &MemoryLayout,
        tiles: Option<&TileSizes>,
        sampling: &crate::SamplingConfig,
        seed: u64,
    ) -> crate::MissEstimate {
        let effective = tiles.filter(|t| !t.is_trivial(nest));
        let mut h = seed ^ crate::engine::SEED_SPLIT;
        if let Some(t) = effective {
            h = crate::engine::fold_seed(h, &t.0);
        }
        self.analyze(nest, layout, effective).estimate(sampling, h)
    }

    /// Build the analysis for a nest under a layout, optionally tiled.
    /// This precomputes the execution space (with its convex regions), the
    /// lifted address forms, the uniform source groups with their suffix
    /// ranges (for the most-recent-source search) and the explicit reuse
    /// candidates (for the equation objects) — the parameterised equation
    /// system of §3.1.
    pub fn analyze(
        &self,
        nest: &LoopNest,
        layout: &MemoryLayout,
        tiles: Option<&TileSizes>,
    ) -> NestAnalysis {
        // Delegates to the evaluation engine's assembly step with a
        // freshly built candidate base — the engine's cached path and
        // this from-scratch path share one implementation, so they
        // cannot drift apart.
        let base = crate::reuse::candidate_base(nest, layout, self.cache.line);
        crate::engine::assemble(*self, nest, layout, tiles, std::sync::Arc::new(base))
    }
}

/// A nest prepared for classification/estimation.
#[derive(Debug, Clone)]
pub struct NestAnalysis {
    pub cache: CacheSpec,
    pub solver_nodes: u64,
    pub space: ExecSpace,
    /// Per-reference byte-address forms over analysis coordinates.
    pub addr: Vec<AffineForm>,
    /// Tile-independent candidate base (shared with the evaluation
    /// engine); lifted lazily into [`Self::candidates`].
    pub(crate) base: std::sync::Arc<crate::reuse::CandidateBase>,
    /// Lazily lifted explicit reuse candidates — only the equation-object
    /// path ([`crate::equations::CmeEquations`]) reads them; the fast
    /// classifier uses the lexmax search instead, so the search hot path
    /// never pays for the lift.
    pub(crate) lifted: std::sync::OnceLock<Vec<Vec<ReuseCandidate>>>,
    /// Per-reference list of uniformly generated source references
    /// (same array, equal address coefficients — includes the reference
    /// itself).
    pub uniform_sources: Vec<Vec<usize>>,
    /// Per-reference relaxed suffix ranges of the address form.
    pub suffix: Vec<SuffixRanges>,
}

impl NestAnalysis {
    /// Per-reference explicit reuse candidates (equation objects),
    /// recency-sorted — lifted from the candidate base on first use.
    pub fn candidates(&self) -> &[Vec<ReuseCandidate>] {
        self.lifted.get_or_init(|| crate::reuse::lift_base(&self.base, &self.space))
    }
    /// A fresh per-thread interference engine for this analysis' cache.
    pub fn engine(&self) -> InterferenceEngine {
        InterferenceEngine::new(&[self.cache], self.solver_nodes)
    }

    /// Classify one (analysis point, reference) pair.
    pub fn classify(&self, v: &[i64], ref_idx: usize) -> Classification {
        let mut c = [Classification::Hit];
        classify_point(self, &mut self.engine(), v, ref_idx, &mut c);
        c[0]
    }

    /// Exhaustive analysis of every point (small spaces / validation).
    pub fn exhaustive(&self) -> MissReport {
        one_level(exhaustive(self, &[self.cache]))
    }

    /// Sampled estimate (paper §2.3).
    pub fn estimate(&self, cfg: &SamplingConfig, seed: u64) -> MissEstimate {
        one_level(sampled(self, &[self.cache], cfg, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};

    #[test]
    fn analyze_builds_consistent_dimensions() {
        let mut nb = NestBuilder::new("t2d");
        let i = nb.add_loop("i", 1, 12);
        let j = nb.add_loop("j", 1, 12);
        let a = nb.array("a", &[12, 12]);
        let b = nb.array("b", &[12, 12]);
        nb.read(b, &[sub(i), sub(j)]);
        nb.write(a, &[sub(j), sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(128, 16));
        let untiled = model.analyze(&nest, &layout, None);
        assert_eq!(untiled.addr.len(), 2);
        assert_eq!(untiled.addr[0].n_vars(), 2);
        assert_eq!(untiled.uniform_sources[0], vec![0]);
        assert_eq!(untiled.uniform_sources[1], vec![1]);
        let tiled = model.analyze(&nest, &layout, Some(&TileSizes(vec![5, 5])));
        assert_eq!(tiled.addr[0].n_vars(), 4);
        assert_eq!(tiled.space.volume(), 144);
        assert_eq!(tiled.space.regions.len(), 4);
        assert_eq!(tiled.suffix[0].lo.len(), 5);
    }
}
