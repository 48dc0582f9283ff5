//! NAS kernels: ADD, BTRIX, VPENTA1, VPENTA2 (Table 1).
//!
//! These are the paper's conflict-dominated kernels: tiling alone leaves a
//! high replacement miss ratio and padding is required (Table 3). The
//! reconstructions pick array sizes whose footprints are multiples of the
//! 8 KB cache size, so that corresponding elements of different arrays
//! alias perfectly in a direct-mapped cache — the behaviour the paper
//! reports for the originals.

use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// Default problem size for ADD (`u(5,n,n,n)` is 5 MB at n = 64, and
/// `5·64³·4 = 640·8192` bytes, so `u` and `rhs` alias exactly).
pub const ADD_N: i64 = 64;
/// Default problem size for BTRIX (64³·4 = 128·8192: `s` and `a` alias).
pub const BTRIX_N: i64 = 64;
/// Default problem size for VPENTA (128²·4 = 8·8192: all arrays alias).
pub const VPENTA_N: i64 = 128;

/// NAS "addition of update to a matrix" (4-deep):
/// `do k / do j / do i / do m : u(m,i,j,k) = u(m,i,j,k) + rhs(m,i,j,k)`.
///
/// Pure streaming: no temporal reuse, only spatial. With aligned bases the
/// `u`/`rhs` pairs ping-pong in a direct-mapped cache and destroy the
/// spatial reuse, which padding restores.
pub fn add(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("ADD_{n}"));
    let k = nb.add_loop("k", 1, n);
    let j = nb.add_loop("j", 1, n);
    let i = nb.add_loop("i", 1, n);
    let m = nb.add_loop("m", 1, 5);
    let u = nb.array("u", &[5, n, n, n]);
    let rhs = nb.array("rhs", &[5, n, n, n]);
    nb.read(u, &[sub(m), sub(i), sub(j), sub(k)]);
    nb.read(rhs, &[sub(m), sub(i), sub(j), sub(k)]);
    nb.write(u, &[sub(m), sub(i), sub(j), sub(k)]);
    nb.finish()
}

/// NAS BTRIX, backward block sweep (3-deep). **Reconstruction**: the
/// backward dependence is expressed with a reversed affine subscript
/// `z = n − kk`, keeping unit loop steps:
/// `do kk / do j / do i : s(i,j,n−kk) = s(i,j,n−kk) − a(i,j,n−kk)·s(i,j,n−kk+1)`.
///
/// Combines capacity misses (plane reuse across the `kk` sweep) with
/// conflicts (`s`/`a` alias when `n³·4` is a multiple of the cache size).
pub fn btrix(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("BTRIX_{n}"));
    let kk = nb.add_loop("kk", 1, n - 1);
    let j = nb.add_loop("j", 1, n);
    let i = nb.add_loop("i", 1, n);
    let s = nb.array("s", &[n, n, n]);
    let a = nb.array("a", &[n, n, n]);
    // z = n − kk ∈ [1, n−1]; z + 1 = n − kk + 1 ∈ [2, n].
    let z = sub(kk).times(-1).plus(n);
    let z1 = sub(kk).times(-1).plus(n + 1);
    nb.read(s, &[sub(i), sub(j), z1]);
    nb.read(a, &[sub(i), sub(j), z.clone()]);
    nb.read(s, &[sub(i), sub(j), z.clone()]);
    nb.write(s, &[sub(i), sub(j), z]);
    nb.finish()
}

/// NAS VPENTA ("invert 3 pentadiagonals simultaneously"), loop 1
/// (2-deep): an eight-array element-wise sweep,
/// `do j / do i : y(i,j) = f(i,j) − a(i,j)·b(i,j) − c(i,j)·d(i,j);`
/// `x(i,j) = e(i,j)·y(i,j)` — eight identically-shaped arrays that alias
/// pairwise in a direct-mapped cache.
pub fn vpenta1(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("VPENTA1_{n}"));
    let j = nb.add_loop("j", 1, n);
    let i = nb.add_loop("i", 1, n);
    let names = ["a", "b", "c", "d", "e", "f"];
    let arrays: Vec<_> = names.iter().map(|nm| nb.array(*nm, &[n, n])).collect();
    let x = nb.array("x", &[n, n]);
    let y = nb.array("y", &[n, n]);
    for arr in &arrays {
        nb.read(*arr, &[sub(i), sub(j)]);
    }
    nb.write(y, &[sub(i), sub(j)]);
    nb.write(x, &[sub(i), sub(j)]);
    nb.finish()
}

/// NAS VPENTA, loop 2 (2-deep): the forward-elimination recurrence,
/// `do j / do i : x(i,j) = y(i,j) − c(i,j)·x(i,j−1)`.
pub fn vpenta2(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("VPENTA2_{n}"));
    let j = nb.add_loop("j", 2, n);
    let i = nb.add_loop("i", 1, n);
    let x = nb.array("x", &[n, n]);
    let y = nb.array("y", &[n, n]);
    let c = nb.array("c", &[n, n]);
    nb.read(y, &[sub(i), sub(j)]);
    nb.read(c, &[sub(i), sub(j)]);
    nb.read(x, &[sub(i), sub(j).minus(1)]);
    nb.write(x, &[sub(i), sub(j)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::MemoryLayout;

    #[test]
    fn structures() {
        assert_eq!(add(8).unwrap().depth(), 4);
        assert_eq!(btrix(8).unwrap().depth(), 3);
        assert_eq!(vpenta1(8).unwrap().depth(), 2);
        assert_eq!(vpenta1(8).unwrap().refs.len(), 8);
        assert_eq!(vpenta2(8).unwrap().depth(), 2);
    }

    #[test]
    fn default_sizes_alias_in_8k_cache() {
        // The whole point of these defaults: bases congruent mod 8192.
        let a = add(ADD_N).unwrap();
        let l = MemoryLayout::contiguous(&a);
        assert_eq!((l.bases[1] - l.bases[0]) % 8192, 0, "ADD u/rhs alias");
        let b = btrix(BTRIX_N).unwrap();
        let lb = MemoryLayout::contiguous(&b);
        assert_eq!((lb.bases[1] - lb.bases[0]) % 8192, 0, "BTRIX s/a alias");
        let v = vpenta1(VPENTA_N).unwrap();
        let lv = MemoryLayout::contiguous(&v);
        for w in 1..v.arrays.len() {
            assert_eq!((lv.bases[w] - lv.bases[0]) % 8192, 0, "VPENTA arrays alias");
        }
    }

    #[test]
    fn btrix_reversed_subscript_in_bounds() {
        let n = btrix(16).unwrap();
        assert!(n.validate().is_ok());
    }
}
