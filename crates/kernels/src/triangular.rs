//! Triangular-space kernels: TRMM, TRSOLVE, TTRANS.
//!
//! These are not Table 1 entries — the paper's kernels are all
//! rectangular — but they exercise the affine-bound iteration spaces end
//! to end: trapezoidal enumeration, shape-exact reuse analysis, and the
//! capability gates of the strategies that only handle boxes. They ride
//! along in the registry so the API, frontend and golden suites can name
//! them like any other kernel.

use cme_loopnest::builder::{sub, sub_const, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// Triangular matrix multiply (lower-triangular `a`):
/// `do i / do j / do k = 1, i : c(i,j) += a(i,k) * b(k,j)`.
///
/// The `c` pair is uniformly generated exactly as in MM, so the nest is
/// tileable despite the triangular `k` bound — the stress case for the
/// tile sweep over a trapezoidal space.
pub fn trmm(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("TRMM_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let k = nb.add_loop_bounds("k", sub_const(1), sub(i));
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    let c = nb.array("c", &[n, n]);
    nb.read(c, &[sub(i), sub(j)]);
    nb.read(a, &[sub(i), sub(k)]);
    nb.read(b, &[sub(k), sub(j)]);
    nb.write(c, &[sub(i), sub(j)]);
    nb.finish()
}

/// Forward substitution on a lower-triangular system:
/// `do i / do j = 1, i : b(i) -= l(i,j) * b(j)`.
///
/// The `b(i)` write against the `b(j)` read is a *non-uniform* pair — the
/// triangular counterpart of TSHIFT's role for the dependence tests.
/// `cme-analysis` reasons over the nest's bounding box, where the read
/// `b(j)` can reach `j > i`, so it conservatively refuses to tile it.
pub fn trsolve(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("TRSOLVE_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop_bounds("j", sub_const(1), sub(i));
    let l = nb.array("l", &[n, n]);
    let b = nb.array("b", &[n]);
    nb.read(l, &[sub(i), sub(j)]);
    nb.read(b, &[sub(j)]);
    nb.read(b, &[sub(i)]);
    nb.write(b, &[sub(i)]);
    nb.finish()
}

/// Upper-triangle transposition:
/// `do i / do j = i, n : a(j,i) = b(i,j)`.
///
/// The one registry kernel with an affine *lower* bound; dependence-free
/// (distinct arrays), so every transform family stays available apart
/// from the box-only ones.
pub fn ttrans(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("TTRANS_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop_bounds("j", sub(i), sub_const(n));
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    nb.read(b, &[sub(i), sub(j)]);
    nb.write(a, &[sub(j), sub(i)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure() {
        let t = trmm(8).unwrap();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.refs.len(), 4);
        assert!(!t.is_rectangular());
        // Σ_i Σ_j Σ_{k≤i} 1 = n²(n+1)/2.
        assert_eq!(t.iterations(), 8 * 8 * 9 / 2);

        let s = trsolve(8).unwrap();
        assert_eq!(s.depth(), 2);
        assert!(!s.is_rectangular());
        assert_eq!(s.iterations(), 36);

        let tt = ttrans(8).unwrap();
        assert_eq!(tt.depth(), 2);
        assert!(!tt.is_rectangular());
        assert_eq!(tt.iterations(), 36);
    }
}
