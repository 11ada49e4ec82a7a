//! Order statistics for latency samples.

/// Percentiles the tail rule picks from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks; `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest candidate percentile with at least ten samples beyond it,
/// as `(percentile, value)`. With fewer than twenty samples no percentile
/// qualifies, and the median stands in.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let p = TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(50.0);
    (p, percentile(samples, p))
}

/// The arithmetic mean; `0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: 1 beyond p99.9, 10 beyond p99.
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        // 200 samples: 2 beyond p99, 10 beyond p95.
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&v).0, 75.0);
        let v: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn tail_falls_back_to_median_on_small_samples() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(tail(&v), (50.0, 2.0));
    }

    #[test]
    fn tail_value_leaves_ten_samples_beyond() {
        for n in [20usize, 57, 100, 333, 1000, 5000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, x) = tail(&v);
            let beyond = v.iter().filter(|&&s| s > x).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond} beyond");
        }
    }
}
