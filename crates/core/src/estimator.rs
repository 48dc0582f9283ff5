//! The estimator seam: one trait abstracting *nest + hierarchy +
//! transform → [`MissEstimate`]*.
//!
//! [`EvalEngine`] — the paper's sampled CME classifier (§2.3): random
//! iteration points, per-point classification, confidence intervals — is
//! the only implementor, and every search in the suite scores candidate
//! transforms through it.

use crate::engine::EvalEngine;
use crate::estimate::MissEstimate;
use cme_loopnest::{MemoryLayout, TileSizes};

/// A scoring backend; still a trait only because the benchmark's traced replay scores through it.
pub trait Estimator: Sync {
    /// The shared evaluation engine (nest, layout, hierarchy, per-kernel
    /// analysis) this estimator scores against.
    fn engine(&self) -> &EvalEngine;

    /// Canonical estimate of the base layout under an optional tiling —
    /// the published `before`/`after` numbers of an outcome.
    fn estimate_canonical(&self, tiles: Option<&TileSizes>) -> MissEstimate;

    /// Search-time estimate under an explicit layout and/or tiling.
    /// `sample_seed` is the per-candidate sampling seed; `incumbent` is a
    /// weighted-cost upper bound enabling early abandonment.
    fn estimate_transformed(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        sample_seed: u64,
        incumbent: Option<f64>,
    ) -> MissEstimate;

    /// Scalar GA cost of raw tile chromosome values (trivial tilings fold
    /// to the untransformed nest).
    fn cost(&self, values: &[i64], incumbent: Option<f64>) -> f64;
}

/// References delegate, so `&EvalEngine` can be boxed as a
/// `dyn Estimator` without a wrapper type.
impl<T: Estimator + ?Sized> Estimator for &T {
    fn engine(&self) -> &EvalEngine {
        (**self).engine()
    }

    fn estimate_canonical(&self, tiles: Option<&TileSizes>) -> MissEstimate {
        (**self).estimate_canonical(tiles)
    }

    fn estimate_transformed(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        sample_seed: u64,
        incumbent: Option<f64>,
    ) -> MissEstimate {
        (**self).estimate_transformed(layout, tiles, sample_seed, incumbent)
    }

    fn cost(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        (**self).cost(values, incumbent)
    }
}

/// Backend selector; still exists only because the benchmark's traced replay builds through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// The sampled CME classifier ([`EvalEngine`] itself).
    #[default]
    Cme,
}

impl EstimatorKind {
    /// Borrow the shared engine as a boxed estimator.
    pub fn build<'e>(self, engine: &'e EvalEngine) -> Box<dyn Estimator + 'e> {
        match self {
            EstimatorKind::Cme => Box::new(engine),
        }
    }
}

/// The trait methods are exactly the engine's inherent entry points.
impl Estimator for EvalEngine {
    fn engine(&self) -> &EvalEngine {
        self
    }

    fn estimate_canonical(&self, tiles: Option<&TileSizes>) -> MissEstimate {
        EvalEngine::estimate_canonical(self, tiles)
    }

    fn estimate_transformed(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        sample_seed: u64,
        incumbent: Option<f64>,
    ) -> MissEstimate {
        EvalEngine::estimate_seeded(self, layout, tiles, sample_seed, incumbent)
    }

    fn cost(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        EvalEngine::cost(self, values, incumbent)
    }
}
