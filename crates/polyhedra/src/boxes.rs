//! Integer boxes (products of intervals).
//!
//! Boxes are the central geometric object of the fast CME solver: untiled
//! iteration spaces are boxes, and each convex region of a tiled iteration
//! space is a box in (block, intra-tile-offset) coordinates.

use crate::interval::Interval;
use serde::{Deserialize, Serialize};

/// A product of closed integer intervals, one per variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntBox {
    pub dims: Vec<Interval>,
}

impl IntBox {
    /// Build from per-dimension intervals.
    pub fn new(dims: Vec<Interval>) -> Self {
        IntBox { dims }
    }

    /// The box `[0, size_t - 1]` per dimension.
    pub fn from_sizes(sizes: &[i64]) -> Self {
        IntBox { dims: sizes.iter().map(|&s| Interval::new(0, s - 1)).collect() }
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// True iff any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Interval::is_empty)
    }

    /// Number of integer points (saturating at `u64::MAX`).
    pub fn volume(&self) -> u64 {
        let mut v: u128 = 1;
        for iv in &self.dims {
            v = v.saturating_mul(iv.len() as u128);
            if v == 0 {
                return 0;
            }
        }
        u64::try_from(v).unwrap_or(u64::MAX)
    }

    /// True iff the point lies inside the box.
    pub fn contains(&self, x: &[i64]) -> bool {
        debug_assert_eq!(x.len(), self.dims.len());
        self.dims.iter().zip(x).all(|(iv, v)| iv.contains(*v))
    }

    /// Component-wise intersection (possibly empty).
    pub fn intersect(&self, other: &IntBox) -> IntBox {
        debug_assert_eq!(self.dims.len(), other.dims.len());
        IntBox { dims: self.dims.iter().zip(&other.dims).map(|(a, b)| a.intersect(b)).collect() }
    }

    /// Clamp one dimension to an interval, returning `None` if the result
    /// is empty.
    pub fn clamp_dim(&self, dim: usize, iv: Interval) -> Option<IntBox> {
        let mut b = self.clone();
        b.dims[dim] = b.dims[dim].intersect(&iv);
        if b.dims[dim].is_empty() {
            None
        } else {
            Some(b)
        }
    }

    /// The point with the given lexicographic rank (0-based, row-major:
    /// first dimension most significant). Panics if `rank ≥ volume`.
    pub fn point_at_rank(&self, rank: u64) -> Vec<i64> {
        debug_assert!(!self.is_empty());
        let mut r = rank as u128;
        let mut out = vec![0i64; self.dims.len()];
        // Compute suffix volumes.
        let mut suffix: Vec<u128> = vec![1; self.dims.len() + 1];
        for t in (0..self.dims.len()).rev() {
            suffix[t] = suffix[t + 1].saturating_mul(self.dims[t].len() as u128);
        }
        debug_assert!(r < suffix[0], "rank out of range");
        for t in 0..self.dims.len() {
            let q = r / suffix[t + 1];
            out[t] = self.dims[t].lo + q as i64;
            r -= q * suffix[t + 1];
        }
        out
    }

    /// Lexicographic rank of a point inside the box (inverse of
    /// [`IntBox::point_at_rank`]).
    pub fn rank_of_point(&self, x: &[i64]) -> u64 {
        debug_assert!(self.contains(x));
        let mut rank: u128 = 0;
        for (iv, v) in self.dims.iter().zip(x) {
            rank = rank * (iv.len() as u128) + (v - iv.lo) as u128;
        }
        u64::try_from(rank).expect("rank overflow")
    }

    /// Iterate every point of the box in lexicographic order. Intended for
    /// small boxes (tests, enumeration baselines).
    pub fn iter_points(&self) -> BoxPointIter<'_> {
        BoxPointIter {
            b: self,
            next: if self.is_empty() {
                None
            } else {
                Some(self.dims.iter().map(|iv| iv.lo).collect())
            },
        }
    }

    /// The first (lexicographically smallest) point, if non-empty.
    pub fn lex_min(&self) -> Option<Vec<i64>> {
        if self.is_empty() {
            None
        } else {
            Some(self.dims.iter().map(|iv| iv.lo).collect())
        }
    }

    /// The last (lexicographically greatest) point, if non-empty.
    pub fn lex_max(&self) -> Option<Vec<i64>> {
        if self.is_empty() {
            None
        } else {
            Some(self.dims.iter().map(|iv| iv.hi).collect())
        }
    }
}

/// Lexicographic point iterator over a box.
pub struct BoxPointIter<'a> {
    b: &'a IntBox,
    next: Option<Vec<i64>>,
}

impl Iterator for BoxPointIter<'_> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let cur = self.next.take()?;
        // Compute successor.
        let mut succ = cur.clone();
        let mut t = self.b.dims.len();
        loop {
            if t == 0 {
                self.next = None;
                break;
            }
            t -= 1;
            if succ[t] < self.b.dims[t].hi {
                succ[t] += 1;
                for u in t + 1..self.b.dims.len() {
                    succ[u] = self.b.dims[u].lo;
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(cur)
    }
}

/// Compare two points lexicographically.
pub fn lex_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            o => return o,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(ranges: &[(i64, i64)]) -> IntBox {
        IntBox::new(ranges.iter().map(|&(a, b)| Interval::new(a, b)).collect())
    }

    #[test]
    fn volume_and_contains() {
        let b = bx(&[(1, 3), (0, 4)]);
        assert_eq!(b.volume(), 15);
        assert!(b.contains(&[2, 4]));
        assert!(!b.contains(&[0, 0]));
        assert!(bx(&[(1, 0), (0, 4)]).is_empty());
        assert_eq!(bx(&[(1, 0)]).volume(), 0);
    }

    #[test]
    fn rank_roundtrip() {
        let b = bx(&[(1, 3), (-1, 2)]);
        for (i, p) in b.iter_points().enumerate() {
            assert_eq!(b.rank_of_point(&p), i as u64);
            assert_eq!(b.point_at_rank(i as u64), p);
        }
        assert_eq!(b.iter_points().count() as u64, b.volume());
    }

    #[test]
    fn iteration_is_lexicographic() {
        let b = bx(&[(0, 1), (0, 1)]);
        let pts: Vec<_> = b.iter_points().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn lex_min_max() {
        let b = bx(&[(2, 5), (1, 1)]);
        assert_eq!(b.lex_min(), Some(vec![2, 1]));
        assert_eq!(b.lex_max(), Some(vec![5, 1]));
        assert_eq!(bx(&[(1, 0)]).lex_min(), None);
    }

    #[test]
    fn clamp_dim_empty() {
        let b = bx(&[(0, 9)]);
        assert!(b.clamp_dim(0, Interval::new(10, 20)).is_none());
        assert_eq!(b.clamp_dim(0, Interval::new(5, 20)).unwrap(), bx(&[(5, 9)]));
    }

    #[test]
    fn lex_cmp_orders() {
        use std::cmp::Ordering::*;
        assert_eq!(lex_cmp(&[1, 2], &[1, 3]), Less);
        assert_eq!(lex_cmp(&[2, 0], &[1, 9]), Greater);
        assert_eq!(lex_cmp(&[1, 2], &[1, 2]), Equal);
    }
}
