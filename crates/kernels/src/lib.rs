#![forbid(unsafe_code)]
//! The benchmark kernels of Abella et al. (ICPPW'02), Table 1.
//!
//! The original evaluation used Fortran kernels from NAS, BIHAR and the
//! Livermore loops plus common dense kernels. We do not have those exact
//! sources; each kernel here is a *documented reconstruction* with the
//! nest depth and reference pattern the paper describes (transpositions,
//! stencils, multi-array sweeps, strided FFT passes), built on the
//! `cme-loopnest` IR. Array sizes for the fixed-size NAS/BIHAR kernels are
//! chosen so that arrays alias in an 8 KB direct-mapped cache, matching
//! the conflict-dominated behaviour the paper reports for them.
//!
//! Each module's notes say, per kernel, what the reconstruction keeps
//! from the paper's description and what it substitutes.

pub mod bihar;
pub mod linalg;
pub mod nas;
pub mod paper;
pub mod spec;
pub mod stencils;
pub mod transposes;
pub mod triangular;

pub use spec::{all_kernels, figure_configs, kernel_by_name, KernelConfig, KernelSpec};
