//! Order statistics over latency samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`, which
/// must be sorted ascending and non-empty: the smallest sample such that at
/// least `p` percent of the samples are at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A set of samples of one quantity, summarised by nearest-rank
/// percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        v
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.p(50.0)
    }

    /// `"p50 <x> p99 <y> n <count>"` in the samples' own unit, for the
    /// reference lines printed before the result.
    pub fn describe(&self) -> String {
        let sorted = self.sorted();
        format!(
            "p50 {:.4} p99 {:.4} n {}",
            percentile(&sorted, 50.0),
            percentile(&sorted, 99.0),
            sorted.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.1), 2.0);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.p(100.0), 5.0);
        assert_eq!(s.describe(), "p50 3.0000 p99 5.0000 n 5");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_percentile_is_refused() {
        percentile(&[1.0], 0.0);
    }
}
