//! BIHAR (biharmonic PDE solver) FFT kernels: DPSSB, DPSSF, DRADBG1/2,
//! DRADFG1/2 (Table 1).
//!
//! The originals are FFTPACK-style transform passes. **Reconstruction**:
//! each kernel is a 3-deep pass with the characteristic FFT access shapes —
//! the sequence index `i` varies *slowest* (the transform walks the `j`/`k`
//! transform dimensions innermost), the output is transposed in the two
//! transform dimensions (`ch(i,k,j)` vs `cc(i,j,k)`), and the radix-g
//! passes add stride-2 and reversed affine subscripts. Consequently the
//! innermost accesses stride across columns while each fetched line
//! (8 consecutive `i` elements) is only reused one full outer iteration
//! later — far beyond an 8 KB cache. That is precisely the capacity-miss
//! behaviour the paper reports for these kernels, and what tiling the `i`
//! dimension repairs.

use cme_loopnest::builder::{sub, sub_const, NestBuilder};
use cme_loopnest::{LoopNest, NestError};

/// Default problem size for the BIHAR kernels.
pub const BIHAR_N: i64 = 48;

/// DPSSB — unnormalised inverse (backward) transform of a complex periodic
/// sequence: `do i / do j / do k :
/// ch(i,k,j) = cc(i,j,k) − cc(i,n+1−j,k)` (transposed output plus a
/// reversed read).
pub fn dpssb(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("DPSSB_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let k = nb.add_loop("k", 1, n);
    let cc = nb.array("cc", &[n, n, n]);
    let ch = nb.array("ch", &[n, n, n]);
    nb.read(cc, &[sub(i), sub(j), sub(k)]);
    nb.read(cc, &[sub(i), sub_const(n + 1).plus_var(j, -1), sub(k)]);
    nb.write(ch, &[sub(i), sub(k), sub(j)]);
    nb.finish()
}

/// DPSSF — forward transform of a complex periodic sequence:
/// `do i / do k / do j : ch(i,k,j) = cc(i,j,k) + cc(i,j,n+1−k)`.
pub fn dpssf(n: i64) -> Result<LoopNest, NestError> {
    let mut nb = NestBuilder::new(format!("DPSSF_{n}"));
    let i = nb.add_loop("i", 1, n);
    let k = nb.add_loop("k", 1, n);
    let j = nb.add_loop("j", 1, n);
    let cc = nb.array("cc", &[n, n, n]);
    let ch = nb.array("ch", &[n, n, n]);
    nb.read(cc, &[sub(i), sub(j), sub(k)]);
    nb.read(cc, &[sub(i), sub(j), sub_const(n + 1).plus_var(k, -1)]);
    nb.write(ch, &[sub(i), sub(k), sub(j)]);
    nb.finish()
}

/// The radix-2 passes pair the coefficients `2j−1` and `2j` over
/// `j ∈ [1, n/2]`, so DRADBG1/2 and DRADFG1/2 take even sizes only.
fn even_size(n: i64) -> Result<(), NestError> {
    if n % 2 == 0 {
        return Ok(());
    }
    Err(NestError::BadBound {
        loop_name: "j".into(),
        reason: format!("the radix-2 pass runs to n/2 and needs an even size, got {n}"),
    })
}

/// DRADBG1 — backward transform of a real coefficient array, loop 1:
/// stride-2 reads of the paired coefficients,
/// `do i / do j / do k : ch(i,k,j) = cc(i,2j−1,k) + cc(i,2j,k)`
/// with `j ∈ [1, n/2]`.
pub fn dradbg1(n: i64) -> Result<LoopNest, NestError> {
    even_size(n)?;
    let mut nb = NestBuilder::new(format!("DRADBG1_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n / 2);
    let k = nb.add_loop("k", 1, n);
    let cc = nb.array("cc", &[n, n, n]);
    let ch = nb.array("ch", &[n, n, n / 2]);
    nb.read(cc, &[sub(i), sub(j).times(2).minus(1), sub(k)]);
    nb.read(cc, &[sub(i), sub(j).times(2), sub(k)]);
    nb.write(ch, &[sub(i), sub(k), sub(j)]);
    nb.finish()
}

/// DRADBG2 — backward transform, loop 2: interchanged `k`/`j` bands and
/// the difference of the pair,
/// `do i / do k / do j : ch2(i,k,j) = cc(i,2j−1,k) − cc(i,2j,k)`.
pub fn dradbg2(n: i64) -> Result<LoopNest, NestError> {
    even_size(n)?;
    let mut nb = NestBuilder::new(format!("DRADBG2_{n}"));
    let i = nb.add_loop("i", 1, n);
    let k = nb.add_loop("k", 1, n);
    let j = nb.add_loop("j", 1, n / 2);
    let cc = nb.array("cc", &[n, n, n]);
    let ch2 = nb.array("ch2", &[n, n, n / 2]);
    nb.read(cc, &[sub(i), sub(j).times(2).minus(1), sub(k)]);
    nb.read(cc, &[sub(i), sub(j).times(2), sub(k)]);
    nb.write(ch2, &[sub(i), sub(k), sub(j)]);
    nb.finish()
}

/// DRADFG1 — forward transform of a real periodic sequence, loop 1:
/// stride-2 *writes*,
/// `do i / do j / do k : cc(i,2j−1,k) = ch(i,k,j); cc(i,2j,k) = ch(i,k,n/2+1−j)`.
pub fn dradfg1(n: i64) -> Result<LoopNest, NestError> {
    even_size(n)?;
    let mut nb = NestBuilder::new(format!("DRADFG1_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n / 2);
    let k = nb.add_loop("k", 1, n);
    let cc = nb.array("cc", &[n, n, n]);
    let ch = nb.array("ch", &[n, n, n / 2]);
    nb.read(ch, &[sub(i), sub(k), sub(j)]);
    nb.read(ch, &[sub(i), sub(k), sub_const(n / 2 + 1).plus_var(j, -1)]);
    nb.write(cc, &[sub(i), sub(j).times(2).minus(1), sub(k)]);
    nb.write(cc, &[sub(i), sub(j).times(2), sub(k)]);
    nb.finish()
}

/// DRADFG2 — forward transform, loop 2: interchanged bands,
/// `do i / do k / do j : cc(i,2j−1,k) = ch(i,k,j) + ch(i,k,n/2+1−j); ...`.
pub fn dradfg2(n: i64) -> Result<LoopNest, NestError> {
    even_size(n)?;
    let mut nb = NestBuilder::new(format!("DRADFG2_{n}"));
    let i = nb.add_loop("i", 1, n);
    let k = nb.add_loop("k", 1, n);
    let j = nb.add_loop("j", 1, n / 2);
    let cc = nb.array("cc", &[n, n, n]);
    let ch = nb.array("ch", &[n, n, n / 2]);
    nb.read(ch, &[sub(i), sub(k), sub(j)]);
    nb.read(ch, &[sub(i), sub(k), sub_const(n / 2 + 1).plus_var(j, -1)]);
    nb.write(cc, &[sub(i), sub(j).times(2).minus(1), sub(k)]);
    nb.write(cc, &[sub(i), sub(j).times(2), sub(k)]);
    nb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structures_and_legality() {
        for build in [dpssb, dpssf, dradbg1, dradbg2, dradfg1, dradfg2] {
            let nest = build(8).unwrap();
            assert_eq!(nest.depth(), 3, "{}", nest.name);
            assert!(nest.validate().is_ok(), "{}", nest.name);
        }
    }

    #[test]
    fn radix_2_passes_refuse_odd_sizes() {
        for build in [dradbg1, dradbg2, dradfg1, dradfg2] {
            let err = build(13).unwrap_err();
            assert!(matches!(err, NestError::BadBound { .. }), "{err}");
            assert!(err.to_string().contains("even size, got 13"), "{err}");
        }
    }

    #[test]
    fn sequence_index_is_outermost() {
        // The reconstruction's key property: `i` (the contiguous array
        // dimension) varies slowest, so untiled innermost accesses stride.
        for build in [dpssb, dpssf, dradbg1, dradfg1] {
            let nest = build(8).unwrap();
            assert_eq!(nest.loops[0].name, "i", "{}", nest.name);
        }
    }

    #[test]
    fn strided_subscripts_cover_both_halves() {
        let n = dradbg1(8).unwrap();
        // cc(i, 2j−1, k) and cc(i, 2j, k) for j in 1..=4 cover dims 1..=8.
        let s1 = &n.refs[0].subscripts[1];
        let s2 = &n.refs[1].subscripts[1];
        assert_eq!(s1.eval(&[1, 1, 1]), 1);
        assert_eq!(s1.eval(&[1, 4, 1]), 7);
        assert_eq!(s2.eval(&[1, 4, 1]), 8);
    }

    #[test]
    fn reversed_subscript_stays_in_bounds() {
        let n = dpssb(8).unwrap();
        let rev = &n.refs[1].subscripts[1];
        assert_eq!(rev.eval(&[1, 1, 1]), 8); // j = 1 -> n
        assert_eq!(rev.eval(&[1, 8, 1]), 1); // j = n -> 1
    }
}
