//! `cme-analysis` — static dependence analysis and kernel lints for
//! affine loop nests.
//!
//! This crate is the suite's one legality checker. It reasons about
//! general affine reference pairs, not only *uniformly generated* ones,
//! so transpose-like kernels such as TSHIFT keep their interchange and
//! tiling search space:
//!
//! * [`dependence`] — classic exact/approximate dependence tests (GCD
//!   test, Banerjee bounds with direction constraints, an exact integer
//!   fallback) producing per-level **direction vectors** for general
//!   affine reference pairs;
//! * [`legality`] — rectangular-tiling and per-permutation interchange
//!   legality decided from direction vectors, plus a serialisable
//!   [`LegalitySummary`] digest;
//! * [`mod@lint`] — structured [`Diagnostic`]s over a nest (illegal
//!   transforms, dead/write-only arrays, no-reuse references, footprint
//!   vs cache, loop-shape sanity);
//! * [`oracle`] — a brute-force dependence oracle that enumerates every
//!   iteration pair on shrunk spaces, used to differential-test the
//!   static verdicts across the whole kernel registry.
//!
//! ```
//! use cme_analysis::{analyze, rectangular_tiling_legality, Dir};
//! use cme_kernels::kernel_by_name;
//!
//! // MM is fully permutable: its only carried dependence is the
//! // accumulator along k, direction (=, =, <).
//! let mm = (kernel_by_name("MM").unwrap().build)(12).unwrap();
//! assert!(rectangular_tiling_legality(&mm).is_legal());
//! let deps = analyze(&mm);
//! assert!(deps
//!     .pairs
//!     .iter()
//!     .flat_map(|p| &p.carried)
//!     .all(|d| d == &[Dir::Eq, Dir::Eq, Dir::Lt]));
//! ```

#![forbid(unsafe_code)]

pub mod dependence;
pub mod legality;
pub mod lint;
pub mod oracle;

pub use dependence::{analyze, render_dirs, DependenceAnalysis, Dir, PairDeps};
pub use legality::{
    legality_summary, permutation_legality, permutation_violation, rectangular_tiling_legality,
    summarize, tiling_violation, LegalitySummary, Violation,
};
pub use lint::{lint, lint_report, Diagnostic, LintReport, Severity};
pub use oracle::oracle_analyze;
