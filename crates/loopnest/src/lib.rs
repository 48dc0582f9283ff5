#![forbid(unsafe_code)]
//! Perfectly-nested affine loop IR.
//!
//! The paper analyses Fortran kernels through the Polaris compiler and the
//! Ictineo library; Cache Miss Equations only consume the information this
//! crate represents directly:
//!
//! * array declarations (extents, element size, column-/row-major layout),
//! * a perfect loop nest with constant rectangular bounds,
//! * an ordered list of memory references with affine subscripts,
//! * a memory layout assigning base addresses (plus inter-/intra-array
//!   padding — the padding transformation is a pure layout change),
//! * the execution space: either the original rectangular nest or its tiled
//!   version, represented as a disjoint union of integer boxes in
//!   *(block, intra-tile-offset)* coordinates (the multiple convex regions
//!   of paper §2.4),
//! * the legality verdict type, loop permutation and a brute-force
//!   tiled-trace oracle (legality itself is decided by `cme-analysis`),
//! * an in-order access trace generator feeding the `cme-cachesim` oracle.

pub mod array;
pub mod builder;
pub mod deps;
pub mod display;
pub mod error;
pub mod layout;
pub mod nest;
pub mod refs;
pub mod space;
pub mod tiling;
pub mod trace;

pub use array::{ArrayDecl, ArrayId, Layout};
pub use builder::NestBuilder;
pub use error::NestError;
pub use layout::MemoryLayout;
pub use nest::{LoopDef, LoopNest};
pub use refs::{AccessKind, MemRef};
pub use space::{ExecSpace, Region};
pub use tiling::TileSizes;
