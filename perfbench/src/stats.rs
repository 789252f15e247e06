//! Order statistics the benchmark reports.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Index of the median (of an even count, the lower middle) of `values`
/// in each input slot of `slots`, in slot order.  Passes of one slot repeat
/// the same work; their median, like the median of the machine-speed probe,
/// is taken at the machine's typical speed in the run.
pub fn slot_medians(slots: &[u64], values: &[f64]) -> Vec<usize> {
    let mut by: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, &slot) in slots.iter().enumerate() {
        by.entry(slot).or_default().push(i);
    }
    by.into_values()
        .map(|mut idx| {
            idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            idx[(idx.len() - 1) / 2]
        })
        .collect()
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile of `value` in the sample (rank / count × 100).
    pub pct: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
    pub samples: usize,
}

/// Rank (0-based, in ascending order) of the tail sample among `n`: ten
/// from the top, but never below the upper median `n / 2`.
pub fn tail_rank(n: usize) -> Option<usize> {
    (n > 0).then(|| n.saturating_sub(11).max(n / 2))
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_rank(v.len()) {
        None => Tail {
            value: 0.0,
            pct: 0.0,
            beyond: 0,
            samples: 0,
        },
        Some(rank) => Tail {
            value: v[rank],
            pct: (rank + 1) as f64 * 100.0 / v.len() as f64,
            beyond: v.len() - 1 - rank,
            samples: v.len(),
        },
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
        assert_eq!(t.pct, 90.0);
        // 1000 samples: rank 989 (0-based) has exactly ten beyond it.
        let values: Vec<f64> = (0..1000).map(f64::from).rev().collect();
        let t = tail(&values);
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert_eq!(t.pct, 99.0);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // 21 samples: rank 10 is both the median and ten from the top.
        assert_eq!(tail_rank(21), Some(10));
        // Fewer samples: no percentile has ten beyond it above the median.
        assert_eq!(tail_rank(15), Some(7));
        assert_eq!(tail_rank(2), Some(1));
        assert_eq!(tail_rank(1), Some(0));
        assert_eq!(tail_rank(0), None);
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.beyond, t.samples), (3.0, 1, 3));
    }

    #[test]
    fn slot_medians_take_the_median_of_each_slot() {
        let slots = [0, 1, 2, 0, 1, 2, 0];
        let values = [5.0, 2.0, 7.0, 4.0, 3.0, 6.0, 4.5];
        // Slot 0: 4.0, 4.5, 5.0; slots 1 and 2 take the lower middle.
        assert_eq!(slot_medians(&slots, &values), vec![6, 1, 5]);
        assert!(slot_medians(&[], &[]).is_empty());
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
