//! Order statistics for repeated timings and lag samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending and non-empty; it
/// may end in infinities (samples that never arrived), and a quantile
/// that reaches into them is infinite.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
    if hi.is_infinite() {
        return hi;
    }
    lo + (hi - lo) * pos.fract()
}

/// Median, extremes and quartile distance of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Distance between the first and the third quartile.
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&v, 0.5),
            min: v[0],
            max: v[v.len() - 1],
            iqr: quantile(&v, 0.75) - quantile(&v, 0.25),
            n: v.len(),
        }
    }

    /// A quantity that is counted, not timed: one exact reading.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            iqr: 0.0,
            n: 1,
        }
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, out of the usual ladder; `None` below 20 samples,
/// where only the median is supported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 10.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Samples that never arrived sort last and poison only the
        // quantiles that reach them.
        let inf = f64::INFINITY;
        assert_eq!(quantile(&[1.0, 2.0, 3.0, inf, inf], 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, inf, inf], 0.6), inf);
    }

    #[test]
    fn quartiles_match_the_closest_rank_interpolation() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 7.0);
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!(
            (s.median, s.min, s.max, s.iqr, s.n),
            (5.0, 1.0, 9.0, 4.0, 9)
        );
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(7_400), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        // p99 of 1000 sorted samples has exactly ten beyond it.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }
}
