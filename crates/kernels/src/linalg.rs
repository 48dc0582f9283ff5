//! Dense linear-algebra kernels: MM (matrix multiply, Fig. 1) and MATMUL
//! (matrix-by-vector, Table 1).

use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// Matrix multiplication, the paper's motivating kernel (Fig. 1):
/// `do i / do j / do k : a(i,j) = a(i,j) + b(i,k)·c(k,j)`.
pub fn mm(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("MM_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let k = nb.add_loop("k", 1, n);
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    let c = nb.array("c", &[n, n]);
    nb.read(a, &[sub(i), sub(j)]);
    nb.read(b, &[sub(i), sub(k)]);
    nb.read(c, &[sub(k), sub(j)]);
    nb.write(a, &[sub(i), sub(j)]);
    nb.finish()
}

/// Matrix-by-vector multiplication as a 3-deep nest (Table 1 lists MATMUL
/// as a 3-loop matrix·vector kernel). **Reconstruction**: we use a batched
/// mat-vec — `n` right-hand sides streamed through the same matrix:
/// `do t / do i / do j : y(i,t) = y(i,t) + a(i,j)·x(j,t)`.
/// The matrix `a` is re-swept for every `t`, producing the capacity misses
/// tiling is meant to remove.
pub fn matmul(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("MATMUL_{n}"));
    let t = nb.add_loop("t", 1, n);
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let y = nb.array("y", &[n, n]);
    let a = nb.array("a", &[n, n]);
    let x = nb.array("x", &[n, n]);
    nb.read(y, &[sub(i), sub(t)]);
    nb.read(a, &[sub(i), sub(j)]);
    nb.read(x, &[sub(j), sub(t)]);
    nb.write(y, &[sub(i), sub(t)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_matches_fig1() {
        let n = mm(100).unwrap();
        assert_eq!(n.depth(), 3);
        assert_eq!(n.refs.len(), 4);
        assert_eq!(n.iterations(), 1_000_000);
    }

    #[test]
    fn matmul_is_tileable() {
        let n = matmul(50).unwrap();
        assert_eq!(n.depth(), 3);
    }
}
