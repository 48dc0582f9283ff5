//! Property-based tests: the fast solver must agree with brute-force
//! enumeration on arbitrary instances, and the lexicographic decomposition
//! must partition the open interval exactly.

use cme_polyhedra::boxes::lex_cmp;
use cme_polyhedra::enumhit::enum_interval_hit;
use cme_polyhedra::formhit::{interval_hit, Budget, HitResult};
use cme_polyhedra::lex::between_open;
use cme_polyhedra::{AffineForm, IntBox, Interval};
use proptest::prelude::*;

fn arb_box(max_dims: usize, max_len: i64) -> impl Strategy<Value = IntBox> {
    prop::collection::vec((-8i64..8, 0i64..max_len), 1..=max_dims).prop_map(|dims| {
        IntBox::new(dims.into_iter().map(|(lo, len)| Interval::new(lo, lo + len)).collect())
    })
}

fn arb_form(n: usize, max_coeff: i64) -> impl Strategy<Value = AffineForm> {
    (prop::collection::vec(-max_coeff..=max_coeff, n), -60i64..60)
        .prop_map(|(c, c0)| AffineForm::new(c, c0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn formhit_agrees_with_enumeration(
        (b, f, wlo, wlen) in arb_box(4, 6).prop_flat_map(|b| {
            let n = b.n_dims();
            (Just(b), arb_form(n, 50), -300i64..300, 0i64..12)
        })
    ) {
        let w = Interval::new(wlo, wlo + wlen);
        let want = enum_interval_hit(&f, &b, w);
        let mut budget = Budget::default();
        let got = interval_hit(&f, &b, None, w, &mut budget, &mut Vec::new());
        prop_assert_ne!(got, HitResult::MaybeYes, "budget exhausted on a tiny instance");
        prop_assert_eq!(got == HitResult::Yes, want);
    }

    /// The extra-term path (the wrap variable of a replacement query) must
    /// answer exactly what the explicitly extended form and box answer —
    /// including empty and single-point extra ranges — with one scratch
    /// buffer reused across queries.
    #[test]
    fn formhit_extra_term_agrees_with_extended_enumeration(
        (b, f, (m, n_lo, n_kind), (wlo, wlen)) in arb_box(3, 6).prop_flat_map(|b| {
            let n = b.n_dims();
            (Just(b), arb_form(n, 50), (-80i64..=80, -4i64..4, 0usize..3), (-300i64..300, 0i64..12))
        })
    ) {
        let n_iv = match n_kind {
            0 => Interval::new(n_lo, n_lo - 1),
            1 => Interval::point(n_lo),
            _ => Interval::new(n_lo, n_lo + 4),
        };
        let w = Interval::new(wlo, wlo + wlen);
        let mut coeffs = f.coeffs.clone();
        coeffs.push(m);
        let mut dims = b.dims.clone();
        dims.push(n_iv);
        let want = enum_interval_hit(&AffineForm::new(coeffs, f.c0), &IntBox::new(dims), w);
        let mut budget = Budget::default();
        let mut terms = Vec::new();
        let got = interval_hit(&f, &b, Some((m, n_iv)), w, &mut budget, &mut terms);
        prop_assert_ne!(got, HitResult::MaybeYes, "budget exhausted on a tiny instance");
        prop_assert_eq!(got == HitResult::Yes, want);
        // A second query on the dirty buffer answers the same.
        prop_assert_eq!(interval_hit(&f, &b, Some((m, n_iv)), w, &mut budget, &mut terms), got);
    }

    #[test]
    fn lex_pieces_partition(
        (dims, araw, braw) in (1usize..=4).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(0i64..4, n),
            prop::collection::vec(0i64..4, n),
        ))
    ) {
        let ambient = IntBox::from_sizes(&vec![4i64; dims]);
        let mut clip = IntBox::new(Vec::new());
        let mut boxes = Vec::new();
        for piece in between_open(&araw, &braw) {
            if piece.clip_to_box(&ambient, &mut clip) {
                boxes.push(clip.clone());
            }
        }
        for p in ambient.iter_points() {
            let inside = lex_cmp(&araw, &p) == std::cmp::Ordering::Less
                && lex_cmp(&p, &braw) == std::cmp::Ordering::Less;
            let covered = boxes.iter().filter(|bx| bx.contains(&p)).count();
            prop_assert_eq!(covered, usize::from(inside));
        }
    }

    #[test]
    fn box_rank_roundtrip(b in arb_box(4, 4)) {
        prop_assume!(!b.is_empty());
        let vol = b.volume();
        prop_assume!(vol <= 4096);
        for rank in [0, vol / 3, vol / 2, vol - 1] {
            let p = b.point_at_rank(rank);
            prop_assert!(b.contains(&p));
            prop_assert_eq!(b.rank_of_point(&p), rank);
        }
    }

    #[test]
    fn interval_intersection_is_conservative(a in -20i64..20, b in 0i64..10, c in -20i64..20, d in 0i64..10) {
        let x = Interval::new(a, a + b);
        let y = Interval::new(c, c + d);
        let i = x.intersect(&y);
        for v in -40..40 {
            prop_assert_eq!(i.contains(v), x.contains(v) && y.contains(v));
        }
    }
}
