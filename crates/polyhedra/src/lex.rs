//! Decomposition of open lexicographic intervals into box-like pieces.
//!
//! Replacement equations quantify over "the iteration points between the
//! reuse source and the current iteration" (paper §2.1). In a
//! lexicographically ordered space of dimension `m`, the open interval
//! `{ j : a ≺ j ≺ b }` is a union of at most `2m + 1` pieces, each of the
//! shape *fixed prefix · one ranged coordinate · free suffix*. Intersected
//! with the (box-shaped) convex regions of the iteration space these pieces
//! become plain integer boxes, on which the `formhit` solver operates.

use crate::boxes::{lex_cmp, IntBox};
use crate::interval::Interval;
use std::cmp::Ordering;

/// One piece of a lexicographic interval: coordinates `0..fixed.len()` are
/// pinned, coordinate `fixed.len()` is constrained to `range`, and all
/// later coordinates are unconstrained (free within the ambient space).
///
/// Every piece's pinned prefix is a prefix of one of the interval's two
/// endpoints, so pieces borrow it instead of owning a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexPiece<'a> {
    /// Values of the leading fixed coordinates.
    pub fixed: &'a [i64],
    /// Constraint on the first non-fixed coordinate.
    pub range: Interval,
}

impl LexPiece<'_> {
    /// Intersect this piece with an ambient box, writing the result into
    /// `out` (which keeps its allocation across calls). Returns `false`
    /// when the intersection is empty on a pinned or ranged coordinate;
    /// `out` then holds no meaningful box. On `true`, `out` constrains
    /// all dimensions of `ambient`.
    pub fn clip_to_box(&self, ambient: &IntBox, out: &mut IntBox) -> bool {
        out.dims.clear();
        out.dims.extend_from_slice(&ambient.dims);
        for (t, v) in self.fixed.iter().enumerate() {
            if !out.dims[t].contains(*v) {
                return false;
            }
            out.dims[t] = Interval::point(*v);
        }
        let t = self.fixed.len();
        debug_assert!(t < out.dims.len(), "ranged coordinate out of bounds");
        out.dims[t] = out.dims[t].intersect(&self.range);
        !out.dims[t].is_empty()
    }
}

/// Decompose the open lexicographic interval `{ j : a ≺ j ≺ b }` into
/// disjoint pieces, yielded in a fixed order without allocating. Yields
/// nothing when `a ⪰ b` (no points).
///
/// With `d` the first coordinate where `a` and `b` differ, the pieces are
/// (all sharing the common prefix `a[..d]`):
/// 1. `j_d = a_d`, tail strictly greater than `a`'s tail — one piece per
///    later coordinate `t`, pinned to `a[..t]` with `j_t > a_t`;
/// 2. `a_d < j_d < b_d`, tail free (when that range is non-empty);
/// 3. `j_d = b_d`, tail strictly less than `b`'s tail — pinned to
///    `b[..t]` with `j_t < b_t`.
pub fn between_open<'a>(a: &'a [i64], b: &'a [i64]) -> impl Iterator<Item = LexPiece<'a>> {
    debug_assert_eq!(a.len(), b.len());
    let m = a.len();
    // First differing coordinate; `m` (no pieces at all) when a ⪰ b.
    let d = if lex_cmp(a, b) == Ordering::Less {
        a.iter().zip(b).position(|(x, y)| x != y).expect("a ≺ b differ somewhere")
    } else {
        m
    };
    let tail = (d + 1).min(m)..m;
    let middle = (d < m && b[d] - a[d] >= 2)
        .then(|| LexPiece { fixed: &a[..d], range: Interval::new(a[d] + 1, b[d] - 1) });
    let above = tail
        .clone()
        .map(move |t| LexPiece { fixed: &a[..t], range: Interval::new(a[t] + 1, i64::MAX) });
    let below =
        tail.map(move |t| LexPiece { fixed: &b[..t], range: Interval::new(i64::MIN, b[t] - 1) });
    above.chain(middle).chain(below)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force membership check of the piece list against direct lex
    /// comparison over a small ambient box.
    fn check_cover(a: &[i64], b: &[i64], ambient: &IntBox) {
        let boxes = clipped(a, b, ambient);
        for p in ambient.iter_points() {
            let inside = lex_cmp(a, &p) == Ordering::Less && lex_cmp(&p, b) == Ordering::Less;
            let covered = boxes.iter().filter(|bx| bx.contains(&p)).count();
            assert_eq!(covered, usize::from(inside), "point {p:?} for ({a:?}, {b:?})");
        }
    }

    /// The non-empty clipped boxes of `(a, b)`'s pieces.
    fn clipped(a: &[i64], b: &[i64], ambient: &IntBox) -> Vec<IntBox> {
        let mut out = IntBox::new(Vec::new());
        let mut boxes = Vec::new();
        for piece in between_open(a, b) {
            if piece.clip_to_box(ambient, &mut out) {
                boxes.push(out.clone());
            }
        }
        boxes
    }

    #[test]
    fn covers_exactly_once_2d() {
        let ambient = IntBox::from_sizes(&[5, 5]);
        check_cover(&[1, 2], &[3, 1], &ambient);
        check_cover(&[0, 0], &[4, 4], &ambient);
        check_cover(&[2, 4], &[3, 0], &ambient);
        check_cover(&[2, 2], &[2, 3], &ambient); // adjacent: empty interval
        check_cover(&[3, 3], &[1, 1], &ambient); // reversed: empty
    }

    #[test]
    fn covers_exactly_once_3d() {
        let ambient = IntBox::from_sizes(&[3, 3, 3]);
        check_cover(&[0, 1, 2], &[2, 1, 0], &ambient);
        check_cover(&[1, 1, 1], &[1, 2, 2], &ambient);
        check_cover(&[0, 0, 0], &[0, 0, 1], &ambient);
        check_cover(&[0, 0, 0], &[2, 2, 2], &ambient);
    }

    #[test]
    fn piece_count_bound() {
        // For m dims, at most 2m - 1 pieces (d = 0 case: (m-1) + 1 + (m-1)).
        for m in 1..=6 {
            let a = vec![0i64; m];
            let mut b = vec![9i64; m];
            b[0] = 9;
            let pieces = between_open(&a, &b).count();
            assert!(pieces < 2 * m, "m={m}: {pieces} pieces");
        }
    }

    #[test]
    fn empty_for_adjacent_points() {
        // (1,1) and (1,2) are consecutive: nothing strictly between.
        let ambient = IntBox::from_sizes(&[5, 5]);
        assert!(clipped(&[1, 1], &[1, 2], &ambient).iter().all(|b| b.volume() == 0));
    }
}
