//! Order statistics over trial samples.
//!
//! A run's throughput is the rate its fastest twentieth of trials reach
//! ([`fast_rate`], the 95th percentile of per-trial rates), not the
//! median trial. On a shared host other tenants only ever slow a trial
//! down, in spells that last seconds: over 16 identical 15 s runs on the
//! 2-core sandbox the median trial moved 12 % (`churn`), 12 %
//! (`burst_tcp`) and 18 % (`stream_tcp`) between runs while the 95th
//! percentile moved 5 %, 7 % and 13 %, and a pure ALU loop's median
//! drifted 10 % while its floor stayed within 0.5 %. The median and
//! quartiles of the trials are still printed next to every rate, so a
//! change that only moves the slow trials is visible too.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance check on this
//! benchmark's spread uses; percentiles of latency samples use nearest
//! rank, so a reported p99 is always a latency that was observed.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one trial.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method; both equal the
/// single value when there is only one sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn summarise(samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples);
    Summary {
        median: median(samples),
        q1,
        q3,
        n: samples.len(),
    }
}

/// The 95th percentile (nearest rank) of per-trial rates: the rate the
/// fastest twentieth of the trials reach or exceed.
pub fn fast_rate(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "fast rate of no samples");
    let v = sorted(rates);
    let rank = (0.95 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_sorted_reference() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarise(&v);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fast_rate_is_the_nearest_rank_95th_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fast_rate(&v), 95.0);
        assert_eq!(fast_rate(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(fast_rate(&[5.0]), 5.0);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(fast_rate(&forty), 38.0);
    }

    #[test]
    fn percentile_is_nearest_rank_on_sorted_reference() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 99.9), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
