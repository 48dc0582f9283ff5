//! Brute-force enumeration oracle.
//!
//! These are the "naive" baselines: exact but exponential in box volume.
//! They serve two purposes: (1) ground truth for property tests of the fast
//! solver, (2) the baseline of the paper's §2.3 solver speed-up claim
//! (the paper reports ≈ 20× over a vertex-based method; we benchmark our
//! solver against plain enumeration in `cme-bench`).

use crate::affine::AffineForm;
use crate::boxes::IntBox;
use crate::interval::Interval;

/// Exhaustively decide `∃ x ∈ b : form(x) ∈ window`.
pub fn enum_interval_hit(form: &AffineForm, b: &IntBox, window: Interval) -> bool {
    if b.is_empty() || window.is_empty() {
        return false;
    }
    b.iter_points().any(|p| window.contains(form.eval(&p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_basics() {
        let f = AffineForm::new(vec![3, -1], 0);
        let b = IntBox::new(vec![Interval::new(0, 3), Interval::new(0, 3)]);
        // Values: 3x - y for x,y in [0,3]: min -3, max 9.
        assert!(enum_interval_hit(&f, &b, Interval::new(9, 9)));
        assert!(!enum_interval_hit(&f, &b, Interval::new(10, 20)));
        assert!(enum_interval_hit(&f, &b, Interval::new(0, 0))); // at (0,0) and (1,3)
    }
}
