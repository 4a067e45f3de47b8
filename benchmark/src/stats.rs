//! Sample statistics: medians, the quartiles the driver computes, and the
//! rule for which tail percentile a sample count supports.

use scanshare_common::quantile::nearest_rank;

/// Sorts samples ascending (NaNs, which no timing produces, sort last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    samples
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver measures spread with that function. Needs at
/// least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Whether `n` samples support the `q`-quantile: a tail percentile is
/// reported only where at least ten samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    // Samples above the nearest-rank position of `q` (the epsilon keeps
    // 0.9 * 100 from rounding up to rank 91).
    let rank = (q * n as f64 - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(rank) >= 10
}

/// The nearest-rank `q`-quantile of ascending `sorted` samples when the
/// sample count supports it, otherwise `None`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    supports(sorted.len(), q)
        .then(|| nearest_rank(sorted, q))
        .flatten()
}

/// The tail figure an end-to-end metric prints: the `q`-quantile when
/// supported, otherwise the largest sample (an end-to-end metric may not be
/// left out, and with few samples the maximum is the honest tail).
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    quantile(sorted, q)
        .or_else(|| sorted.last().copied())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(spread(&ten), Some(1.0));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), Some(990.0));
        assert_eq!(quantile(&samples[..500], 0.99), None);
        assert_eq!(tail(&samples, 0.99), 990.0);
        // Too few samples for a p99: the tail is the largest sample.
        assert_eq!(tail(&samples[..32], 0.99), 32.0);
        assert_eq!(tail(&[], 0.99), 0.0);
    }
}
