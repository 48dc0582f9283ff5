#![forbid(unsafe_code)]
//! Cache Miss Equations (CMEs) — the paper's locality analysis (§2).
//!
//! Given a (possibly tiled) loop nest, a memory layout and a cache
//! geometry, this crate classifies every iteration point of every
//! reference as **hit**, **cold miss** (compulsory) or **replacement
//! miss** (capacity + conflict), and estimates miss ratios either
//! exhaustively or by simple random sampling (§2.3).
//!
//! The implementation follows the paper's *iteration-space traversal*
//! formulation (§2.2): each sampled point is tested independently. Per
//! point and reference the classifier
//!
//! 1. walks a precomputed, recency-ordered set of candidate **reuse
//!    vectors** (Wolf–Lam style: self-temporal, self-spatial,
//!    group-temporal/spatial — generated in the original iteration space
//!    and lifted to the tiled `(block, offset)` space with tile-boundary
//!    wrap variants),
//! 2. finds the most recent in-space source access touching the same
//!    memory line (no source ⇒ *cold*; this is the compulsory-equation
//!    test),
//! 3. decides whether any interfering access between the source and the
//!    current point maps to the same cache set with a different line —
//!    the replacement-equation test, answered exactly by the
//!    `cme-polyhedra` interval-hit solver with the cache wrap-around
//!    variable as one extra box dimension. For a k-way LRU cache the
//!    number of *distinct* conflicting lines is counted (§2.2: "k
//!    distinct contentions").
//!
//! Monotonicity (an older source sees a superset of the interference of a
//! more recent one) means a single interference query per point decides
//! the classification — the key to the solver's speed. On a cache
//! hierarchy, steps 2 and 3 run once for all levels that share a line
//! size; only the set test of step 3 is per level.
//!
//! The explicit equation systems themselves (polyhedra over iteration
//! variables and the cache wrap variable) are also materialised in
//! [`equations`] for inspection and the §2.4 region-count properties.

pub mod classify;
pub mod engine;
pub mod equations;
pub mod estimate;
pub mod estimator;
pub mod hierarchy;
pub mod interference;
pub mod lexmax;
pub mod model;
pub mod reuse;
pub mod sampling;

pub use classify::Classification;
pub use engine::{DisplacementKey, DisplacementProvider, EvalEngine, SharedDisplacements};
pub use estimate::{Counts, LevelEstimate, LevelReport, MissEstimate, MissReport};
pub use estimator::{Estimator, EstimatorKind};
pub use hierarchy::{CacheHierarchy, CacheLevel, LEGACY_MISS_LATENCY};
pub use model::{CmeModel, NestAnalysis};
pub use sampling::{EarlyAbandonConfig, SamplingConfig};

/// Cache geometry parameters used by the analysis. Mirrors
/// `cme_cachesim::CacheGeometry` without depending on the simulator crate
/// (the simulator is the *oracle*, not a dependency of the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CacheSpec {
    /// Capacity in bytes.
    pub size: i64,
    /// Line size in bytes.
    pub line: i64,
    /// Ways per set (1 = direct-mapped).
    pub assoc: i64,
}

impl CacheSpec {
    pub const fn direct_mapped(size: i64, line: i64) -> Self {
        CacheSpec { size, line, assoc: 1 }
    }

    /// The paper's 8 KB direct-mapped / 32 B line configuration.
    pub const fn paper_8k() -> Self {
        CacheSpec::direct_mapped(8 * 1024, 32)
    }

    /// The paper's 32 KB direct-mapped / 32 B line configuration.
    pub const fn paper_32k() -> Self {
        CacheSpec::direct_mapped(32 * 1024, 32)
    }

    pub fn sets(&self) -> i64 {
        self.size / (self.line * self.assoc)
    }

    pub fn line_of(&self, addr: i64) -> i64 {
        addr.div_euclid(self.line)
    }

    pub fn set_of_line(&self, line: i64) -> i64 {
        line.rem_euclid(self.sets())
    }
}
