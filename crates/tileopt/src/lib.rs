#![forbid(unsafe_code)]
//! Tile-size and padding optimisation (paper §3 and §4.3).
//!
//! * [`TilingOptimizer`] — the paper's headline contribution: a genetic
//!   algorithm over tile vectors `T ∈ [1,U_1]×…×[1,U_d]`, objective =
//!   CME-estimated replacement misses of the tiled nest (164-point
//!   sampled). Rectangular-tiling legality is checked up front.
//! * [`PaddingOptimizer`] — §4.3: a GA over inter-array pads (lines before
//!   each base) and intra-array pads (extra leading-dimension elements),
//!   for the conflict-dominated kernels; plus the Table 3 sequential
//!   *padding-then-tiling* pipeline and the *joint* single-step search the
//!   paper lists as future work.
//! * [`exhaustive`] — the brute-force optimum the paper compares against
//!   ("our technique is compared against the optimal solution"), feasible
//!   for small loop bounds.
//! * [`baselines`] — related-work tile-size selection heuristics (§5):
//!   LRW-style largest non-self-interfering square, TSS-style
//!   Euclidean-sequence selection, and fixed cache-fraction tiles — used
//!   by the comparison benchmarks the paper declined to run.
//! * [`oblivious`] — PCOT-style cache-oblivious divide and conquer: halve
//!   the longest legal dimension to a machine-independent base case; the
//!   derivation never reads the cache hierarchy.
//! * [`latency`] — Cashman-style latency-based tiling: probe miss-ratio
//!   scaling on a budgeted shrunk instance through the exact simulator,
//!   fit the knee, answer in O(probes).

pub mod baselines;
pub mod exhaustive;
pub mod interchange;
pub mod latency;
pub mod oblivious;
pub mod padding;
pub mod problem;
pub mod report;

pub use exhaustive::{exhaustive_search, exhaustive_search_on, ExhaustiveResult};
pub use interchange::{optimize_with_interchange, InterchangeOutcome};
pub use latency::{latency_based_tiles, LatencyResult, KNEE_SLACK, PROBE_ACCESS_BUDGET};
pub use oblivious::{cache_oblivious_tiles, ObliviousResult, BASE_CASE_BYTES};
pub use padding::{JointOutcome, PaddingOptimizer, PaddingOutcome, PaddingSpace};
pub use problem::{GaSummary, TilingObjective, TilingOptimizer, TilingOutcome};
pub use report::KernelReport;
