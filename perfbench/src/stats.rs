//! Small statistics helpers shared by the load and trace reports.

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples. The
/// small epsilon keeps decimal percentiles such as 99.9 from rounding up
/// a rank that is exact in real arithmetic.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle pair for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile a sample can support: the highest of p99.9, p99
/// and p90 with at least ten samples strictly beyond its rank. Samples
/// under 100 take the order statistic with exactly ten beyond it (the
/// p90 rule's own limit, so the tail stays the same statistic as the
/// sample count crosses 100), or their maximum below 11 samples.
/// Returns `(percentile, value, samples beyond)` over an ascending-sorted
/// slice.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    for p in [99.9, 99.0, 90.0] {
        let beyond = n.saturating_sub(rank(p, n));
        if beyond >= 10 {
            return (p, percentile(sorted, p), beyond);
        }
    }
    match n {
        0 => (100.0, f64::NAN, 0),
        1..=10 => (100.0, sorted[n - 1], 0),
        _ => (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11], 10),
    }
}

/// [`tail`] of a long run, steadied: the samples (in issue order) are
/// split into `windows` consecutive slices, each slice's tail is taken
/// at the percentile every slice supports, and the median across slices
/// is returned with that percentile and the samples beyond it per slice.
pub fn windowed_tail(in_order: &[f64], windows: usize) -> (f64, f64, usize) {
    let windows = windows.clamp(1, in_order.len().max(1));
    let size = in_order.len() / windows;
    let slices: Vec<Vec<f64>> = (0..windows)
        .map(|k| {
            let end = if k + 1 == windows { in_order.len() } else { (k + 1) * size };
            let mut s = in_order[k * size..end].to_vec();
            s.sort_by(f64::total_cmp);
            s
        })
        .collect();
    // The first slice is the smallest, so its percentile fits them all.
    let (p, _, beyond) = tail(&slices[0]);
    let values: Vec<f64> = slices.iter().map(|s| percentile(s, p)).collect();
    (p, median(&values), beyond)
}

/// Geometric mean of positive values, each counted `weight` times
/// (`NaN` when nothing is counted).
pub fn geomean_weighted(values: &[(f64, u64)]) -> f64 {
    let n: u64 = values.iter().map(|&(_, w)| w).sum();
    if n == 0 {
        return f64::NAN;
    }
    (values.iter().map(|&(v, w)| v.ln() * w as f64).sum::<f64>() / n as f64).exp()
}

/// Total length covered by a set of half-open `[start, end)` intervals,
/// counting overlaps once — the "union of children" a span's self time
/// subtracts.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|k| k as f64).collect() };
        // 20 000 samples: p99.9 has 20 beyond it.
        let (p, value, beyond) = tail(&sample(20_000));
        assert_eq!((p, value, beyond), (99.9, 19_980.0, 20));
        // 5 000 samples: p99.9 has only 5 beyond, p99 has 50.
        assert_eq!(tail(&sample(5_000)), (99.0, 4_950.0, 50));
        // 100 samples: p99 has 1 beyond, p90 exactly 10.
        assert_eq!(tail(&sample(100)), (90.0, 90.0, 10));
        // 99 samples: p90 has only 9 beyond, so the value with exactly
        // ten beyond answers — the same statistic p90 is at 100 samples.
        let (p, value, beyond) = tail(&sample(99));
        assert_eq!((value, beyond), (89.0, 10));
        assert!((p - 8900.0 / 99.0).abs() < 1e-9);
        assert_eq!(tail(&sample(90)).1, 80.0);
        // Tiny samples report their maximum.
        assert_eq!(tail(&sample(4)), (100.0, 4.0, 0));
    }

    #[test]
    fn windowed_tail_is_the_median_of_slice_tails() {
        // Three slices of 1 000; one slice holds a burst of slow samples.
        let mut v: Vec<f64> = (0..3000).map(|k| (k % 1000) as f64).collect();
        for x in &mut v[1000..1100] {
            *x += 1e6;
        }
        let (p, value, beyond) = windowed_tail(&v, 3);
        assert_eq!((p, beyond), (99.0, 10));
        assert_eq!(value, 989.0, "the burst moves one slice, not the median");
        // One window is the plain tail.
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(windowed_tail(&v, 1), tail(&sorted));
    }

    #[test]
    fn geomean_of_ratios() {
        let geomean = |v: &[f64]| geomean_weighted(&v.iter().map(|&x| (x, 1)).collect::<Vec<_>>());
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean_weighted(&[(2.0, 0)]).is_nan());
        // (2 · 2 · 2 · 16)^(1/4) = 2^(7/4).
        assert!((geomean_weighted(&[(2.0, 3), (16.0, 1)]) - 2f64.powf(1.75)).abs() < 1e-12);
        assert_eq!(geomean_weighted(&[(3.0, 5)]), geomean(&[3.0; 5]));
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        // Overlapping, nested, touching and disjoint intervals.
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&[(0, 5), (5, 9)]), 9);
        assert_eq!(union_len(&[(20, 30), (0, 5)]), 15);
        // Unsorted input and empty intervals.
        assert_eq!(union_len(&[(8, 12), (0, 4), (3, 9), (7, 7)]), 12);
    }
}
