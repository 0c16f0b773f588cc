//! The benchmark's own summary statistics, kept independent of the
//! program's quantile code so a change there cannot move the yardstick.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it. The median of a sample of 20
/// or more always qualifies; a p99 needs at least 1,000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let n = sorted.len();
    // 1-based nearest rank: the smallest k with k/n >= q.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Sorts `v` and returns its `q`-quantile, or an error naming `what` when
/// the sample is too small to support it.
pub fn pct_of(mut v: Vec<f64>, q: f64, what: &str) -> Result<Pct, String> {
    v.sort_by(f64::total_cmp);
    percentile(&v, q).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support p{} (need {MIN_BEYOND} beyond it)",
            v.len(),
            q * 100.0
        )
    })
}

/// Plain median (mean of the middle two for an even count); for repeated
/// timings of one run, where no tail is reported.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples support p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        // Exactly ten values lie above the reported one.
        assert_eq!(ramp(1000).iter().filter(|&&x| x > p.value).count(), 10);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5).map(|p| p.value), Some(10.0));
    }

    #[test]
    fn empty_or_tiny_samples_fail_closed() {
        assert_eq!(percentile(&[], 0.5), None);
        assert!(pct_of(vec![1.0; 5], 0.5, "x").is_err());
        assert!(pct_of(vec![1.0; 11], 0.0, "x").is_ok());
        assert!(pct_of(vec![1.0; 10], 0.0, "x").is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
