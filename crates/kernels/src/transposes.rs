//! Matrix transposition kernels: T2D, T3DJIK, T3DIKJ (Table 1).
//!
//! Transpositions are the canonical capacity-miss generators: one operand
//! is traversed along the storage order, the other across it, so one of
//! the two loses all spatial locality once the matrix exceeds the cache.

use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// 2-D matrix transposition (paper Fig. 3(a)):
/// `do i / do j : a(j,i) = b(i,j)`.
pub fn t2d(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("T2D_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    nb.read(b, &[sub(i), sub(j)]);
    nb.write(a, &[sub(j), sub(i)]);
    nb.finish()
}

/// Shifted in-place 2-D transposition: `do i / do j : a(i, j+n) = a(j, i)`
/// over one `a[n][2n]` array — the source square lives in columns `1..n`,
/// the transposed copy in columns `n+1..2n`.
///
/// The read `a(j, i)` and write `a(i, j+n)` are *not* uniformly
/// generated, so a checker that only solves for uniform distance vectors
/// would have to reject the kernel outright; dependence analysis
/// (Banerjee bounds) proves the two column bands disjoint, leaving the
/// nest dependence-free and fully permutable.
pub fn tshift(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("TSHIFT_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let a = nb.array("a", &[n, 2 * n]);
    nb.read(a, &[sub(j), sub(i)]);
    nb.write(a, &[sub(i), sub(j).plus(n)]);
    nb.finish()
}

/// 3-D matrix transposition, JIK loop order (Table 1):
/// `do j / do i / do k : a(k,j,i) = b(j,i,k)`.
pub fn t3djik(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("T3DJIK_{n}"));
    let j = nb.add_loop("j", 1, n);
    let i = nb.add_loop("i", 1, n);
    let k = nb.add_loop("k", 1, n);
    let a = nb.array("a", &[n, n, n]);
    let b = nb.array("b", &[n, n, n]);
    nb.read(b, &[sub(j), sub(i), sub(k)]);
    nb.write(a, &[sub(k), sub(j), sub(i)]);
    nb.finish()
}

/// 3-D matrix transposition, IKJ loop order (Table 1):
/// `do i / do k / do j : a(k,j,i) = b(i,k,j)`.
pub fn t3dikj(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("T3DIKJ_{n}"));
    let i = nb.add_loop("i", 1, n);
    let k = nb.add_loop("k", 1, n);
    let j = nb.add_loop("j", 1, n);
    let a = nb.array("a", &[n, n, n]);
    let b = nb.array("b", &[n, n, n]);
    nb.read(b, &[sub(i), sub(k), sub(j)]);
    nb.write(a, &[sub(k), sub(j), sub(i)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure() {
        let n = t2d(16).unwrap();
        assert_eq!(n.depth(), 2);
        assert_eq!(n.refs.len(), 2);
        assert_eq!(n.iterations(), 256);
        assert_eq!(t3djik(8).unwrap().depth(), 3);
        assert_eq!(t3dikj(8).unwrap().depth(), 3);
    }

    #[test]
    fn tshift_is_an_in_place_two_deep_shift() {
        let nest = tshift(12).unwrap();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.refs.len(), 2);
        assert_eq!(nest.arrays.len(), 1, "in-place: one array");
    }

    #[test]
    fn t3d_variants_differ_in_loop_order() {
        let a = t3djik(8).unwrap();
        let b = t3dikj(8).unwrap();
        assert_eq!(a.loops[0].name, "j");
        assert_eq!(b.loops[0].name, "i");
        // The reads are identity traversals in both (positional loop
        // variables), but the transposed writes differ.
        assert_ne!(a.refs[1].subscripts, b.refs[1].subscripts);
    }
}
