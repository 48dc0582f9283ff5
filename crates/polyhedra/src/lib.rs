#![forbid(unsafe_code)]
//! Integer and polyhedral substrate for Cache Miss Equations.
//!
//! Cache Miss Equations (CMEs) describe cache misses as integer points of
//! parameterised polyhedra (Ghosh, Martonosi & Malik; Abella et al.,
//! ICPPW'02 §2). Solving them fast requires a small toolbox of exact
//! integer-geometry primitives, which this crate provides:
//!
//! * [`AffineForm`] — affine functions `c0 + Σ c_t·x_t` over `i64`
//!   (array addresses, subscripts and loop bounds are all affine).
//! * [`Interval`] / [`IntBox`] — integer intervals and boxes. After tiling,
//!   every convex region of an iteration space is a box in *(block,
//!   intra-tile offset)* coordinates, so all CME queries reduce to box
//!   queries.
//! * [`lex`] — decomposition of open lexicographic intervals
//!   `{ j : a ≺ j ≺ b }` into box-like pieces (the "iteration points
//!   between the reuse source and the current point" of replacement
//!   equations).
//! * [`formhit`] — the workhorse solver answering
//!   `∃ x ∈ Box : F(x) ∈ [A, B]` exactly and fast (gcd filtering + a
//!   max-gap density lemma + branch-and-bound). This is our equivalent of
//!   the specialised replacement-polyhedron emptiness tests of Bermudo et
//!   al. that the paper's solver builds on.
//!   Set-mapping queries (`F(x) mod M ∈ [a, b]`) go through the same
//!   solver, with the cache wrap variable as an extra term.
//! * [`enumhit`] — brute-force enumeration: the oracle the fast solver is
//!   validated against and the "naive" baseline of the paper's §2.3
//!   speed-up claim.
//! * [`Polyhedron`] — general integer constraint systems with bound
//!   propagation; the explicit representation of CME equation systems.
//! * [`dioph`] — gcd / extended-gcd / linear-Diophantine helpers used by
//!   reuse-vector generation.
//!
//! All arithmetic is checked-by-construction: coefficients and bounds are
//! `i64`, intermediate products are widened to `i128` where overflow is
//! possible.

pub mod affine;
pub mod boxes;
pub mod dioph;
pub mod enumhit;
pub mod formhit;
pub mod interval;
pub mod lex;
pub mod polyhedron;

pub use affine::AffineForm;
pub use boxes::IntBox;
pub use formhit::{Budget, HitResult};
pub use interval::Interval;
pub use polyhedron::{Constraint, Polyhedron};
