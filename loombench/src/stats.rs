//! Exact sample statistics, computed on the benchmark side.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, with the sample
//! count, so a tail figure is never read off a handful of points.

/// Samples a reported tail percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail levels, lowest first.
const TAIL_LEVELS: [f64; 5] = [0.90, 0.99, 0.999, 0.9999, 0.99999];

/// 1-based nearest rank of quantile `q` in a sample of `n` (the
/// epsilon keeps `0.9999 * 100000` from rounding up a rank).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// `99.9` for 0.999: the level as a percentile label.
fn percent_label(q: f64) -> String {
    let s = format!("{:.3}", q * 100.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Exact nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(q, sorted.len()) - 1]
}

/// Samples strictly above quantile `q` in a sample of `n`.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// The highest tail level with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even p90 lacks them (fewer than 100 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && beyond(q, n) >= MIN_BEYOND)
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A timing sample reduced to what the report prints.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    /// The rule's tail: level and value (`None` below 100 samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: quantile(&v, 0.5),
            p99: quantile(&v, 0.99),
            p999: quantile(&v, 0.999),
            tail: tail_level(v.len()).map(|q| (q, quantile(&v, q))),
        }
    }

    /// `p50 X, p99.9 Y (n=N)` — the rule's pair with its sample count.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((q, t)) => format!(
                "p50 {:.1}, p{} {:.1} (n={})",
                self.p50,
                percent_label(q),
                t,
                self.n
            ),
            None => format!(
                "p50 {:.1}, no tail with >= {MIN_BEYOND} beyond (n={})",
                self.p50, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(0.90));
        assert_eq!(tail_level(999), Some(0.90));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(9_999), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(24_000), Some(0.999));
        assert_eq!(tail_level(100_000), Some(0.9999));
        for n in [100, 1_000, 5_432, 10_000, 123_456] {
            let q = tail_level(n).unwrap();
            assert!(beyond(q, n) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_the_rule_pair() {
        let s = Summary::of(&ramp(1_000));
        assert_eq!((s.n, s.p50, s.p99), (1_000, 500.0, 990.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(s.describe().contains("p99 990.0 (n=1000)"));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(Summary::of(&ramp(10)).tail, None);
    }

    #[test]
    fn percent_labels_are_short() {
        assert_eq!(percent_label(0.90), "90");
        assert_eq!(percent_label(0.999), "99.9");
        assert_eq!(percent_label(0.9999), "99.99");
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
