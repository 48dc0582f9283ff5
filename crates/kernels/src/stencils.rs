//! Stencil / sweep kernels: JACOBI3D and ADI (Table 1).

use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// 3-D Jacobi relaxation (partial differential equation solver, Table 1):
/// 7-point stencil over the interior,
/// `a(i,j,k) = f(b(i,j,k), b(i±1,j,k), b(i,j±1,k), b(i,j,k±1))`.
///
/// Loop order `k, j, i` (innermost contiguous for column-major arrays).
pub fn jacobi3d(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("JACOBI3D_{n}"));
    let k = nb.add_loop("k", 2, n - 1);
    let j = nb.add_loop("j", 2, n - 1);
    let i = nb.add_loop("i", 2, n - 1);
    let a = nb.array("a", &[n, n, n]);
    let b = nb.array("b", &[n, n, n]);
    nb.read(b, &[sub(i), sub(j), sub(k)]);
    nb.read(b, &[sub(i).minus(1), sub(j), sub(k)]);
    nb.read(b, &[sub(i).plus(1), sub(j), sub(k)]);
    nb.read(b, &[sub(i), sub(j).minus(1), sub(k)]);
    nb.read(b, &[sub(i), sub(j).plus(1), sub(k)]);
    nb.read(b, &[sub(i), sub(j), sub(k).minus(1)]);
    nb.read(b, &[sub(i), sub(j), sub(k).plus(1)]);
    nb.write(a, &[sub(i), sub(j), sub(k)]);
    nb.finish()
}

/// 2-D ADI (alternating direction implicit) integration, forward column
/// sweep (Table 1 lists a 2-deep ADI kernel from the Livermore loops):
/// `do j / do i : x(i,j) = x(i,j-1)·a(i,j) + b(i,j)`.
///
/// Carries a `(1, 0)` dependence in `(j, i)` loop coordinates — legal to
/// tile rectangularly.
pub fn adi(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("ADI_{n}"));
    let j = nb.add_loop("j", 2, n);
    let i = nb.add_loop("i", 1, n);
    let x = nb.array("x", &[n, n]);
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    nb.read(x, &[sub(i), sub(j).minus(1)]);
    nb.read(a, &[sub(i), sub(j)]);
    nb.read(b, &[sub(i), sub(j)]);
    nb.write(x, &[sub(i), sub(j)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_structure() {
        let n = jacobi3d(20).unwrap();
        assert_eq!(n.depth(), 3);
        assert_eq!(n.refs.len(), 8);
        assert_eq!(n.iterations(), 18 * 18 * 18);
    }

    #[test]
    fn adi_structure_and_legality() {
        let n = adi(100).unwrap();
        assert_eq!(n.depth(), 2);
        assert_eq!(n.refs.len(), 4);
    }
}
