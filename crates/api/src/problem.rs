//! The resolved search problem handed to [`crate::search`].

use crate::error::ApiError;
use crate::request::OptimizeRequest;
use cme_core::{CacheHierarchy, SamplingConfig, SharedDisplacements};
use cme_ga::GaConfig;
use cme_loopnest::{LoopNest, MemoryLayout};

/// Reject hierarchies the model cannot represent — non-positive geometry
/// fields, a size that is not a whole number of sets, or a non-finite /
/// non-positive miss latency on any level — before they reach arithmetic
/// that would panic or silently truncate. Both session entry points call
/// this.
pub fn validate_cache(cache: &CacheHierarchy) -> Result<(), ApiError> {
    cache.validate().map_err(ApiError::BadRequest)
}

/// An [`OptimizeRequest`] with its nest source resolved and the default
/// layout materialised: the single input type of [`crate::search`].
#[derive(Debug, Clone)]
pub struct Problem {
    pub nest: LoopNest,
    /// The unpadded baseline layout (padding strategies derive their own).
    pub layout: MemoryLayout,
    /// The cache hierarchy the search optimises for (one legacy level ≡
    /// the paper's single-cache model).
    pub hierarchy: CacheHierarchy,
    pub sampling: SamplingConfig,
    pub ga: GaConfig,
    /// Optional process-wide displacement store every engine built for
    /// this problem consults on local-memo misses ([`Session`] copies its
    /// own handle in). `None` ⇒ fully per-request state; results are
    /// byte-identical either way.
    ///
    /// [`Session`]: crate::Session
    pub displacements: Option<SharedDisplacements>,
    /// Error-message context naming where the nest came from (``kernel
    /// `X` `` / ``inline nest `X` ``) — capability rejections lead with
    /// it so the wording stays uniform across sources.
    pub source: String,
}

impl Problem {
    /// Resolve a request into a concrete problem.
    pub fn from_request(req: &OptimizeRequest) -> Result<Problem, ApiError> {
        let nest = req.nest.resolve()?;
        validate_cache(&req.cache)?;
        let layout = MemoryLayout::contiguous(&nest);
        Ok(Problem {
            nest,
            layout,
            hierarchy: req.cache.clone(),
            sampling: req.sampling,
            ga: req.ga,
            displacements: None,
            source: req.nest.label(),
        })
    }
}
