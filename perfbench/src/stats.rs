//! Order statistics for timing samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Tail percentiles the helper may report, in basis points, highest first.
const TAIL_BPS: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// 1-based nearest rank of percentile `bps` (basis points) among `n`
/// samples. Integer arithmetic, so 99% of 1000 is exactly rank 990.
fn rank(n: usize, bps: u64) -> usize {
    let n = n as u64;
    (n * bps).div_ceil(10_000).clamp(1, n) as usize
}

/// Nearest-rank percentile of ascending `sorted`, `bps` in basis points
/// (9900 = p99). Panics on an empty slice.
pub fn percentile(sorted: &[f64], bps: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bps) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `bps` of `n`.
pub fn beyond(n: usize, bps: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bps)
    }
}

/// The highest percentile (basis points) with at least
/// [`MIN_BEYOND_TAIL`] samples beyond it, or `None` below 20 samples.
pub fn supported_tail_bps(n: usize) -> Option<u64> {
    TAIL_BPS
        .iter()
        .copied()
        .find(|&bps| beyond(n, bps) >= MIN_BEYOND_TAIL)
}

/// Median (mean of the two middle values for an even count). Panics on
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summary of one set of request latencies, in microseconds.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Samples behind every figure below.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples beyond p99.
    pub beyond_p99: usize,
    /// The highest percentile with at least ten samples beyond it
    /// (basis points), and its value.
    pub tail: Option<(u64, f64)>,
}

impl Latency {
    /// Summarises unsorted microsecond samples. Panics on no samples.
    pub fn from_us(mut us: Vec<f64>) -> Latency {
        us.sort_by(f64::total_cmp);
        Latency {
            samples: us.len(),
            p50: percentile(&us, 5_000),
            p99: percentile(&us, 9_900),
            beyond_p99: beyond(us.len(), 9_900),
            tail: supported_tail_bps(us.len()).map(|bps| (bps, percentile(&us, bps))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_helper_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(supported_tail_bps(19), None);
        assert_eq!(supported_tail_bps(20), Some(5_000));
        assert_eq!(supported_tail_bps(99), Some(5_000));
        assert_eq!(supported_tail_bps(100), Some(9_000));
        assert_eq!(supported_tail_bps(999), Some(9_000));
        assert_eq!(supported_tail_bps(1_000), Some(9_900));
        assert_eq!(supported_tail_bps(9_999), Some(9_900));
        assert_eq!(supported_tail_bps(10_000), Some(9_990));
        assert_eq!(supported_tail_bps(100_000), Some(9_999));
        for n in [20, 100, 1_000, 1_234, 10_000, 123_456] {
            let bps = supported_tail_bps(n).expect("enough samples");
            assert!(beyond(n, bps) >= MIN_BEYOND_TAIL);
            if let Some(&higher) = TAIL_BPS.iter().rev().find(|&&b| b > bps) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND_TAIL,
                    "n={n} skipped {higher}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 5_000), 500.0);
        assert_eq!(percentile(&v, 9_900), 990.0);
        assert_eq!(beyond(1000, 9_900), 10);
        assert_eq!(percentile(&[7.0], 9_999), 7.0);
        let lat = Latency::from_us(v.iter().rev().copied().collect());
        assert_eq!(
            (lat.samples, lat.p50, lat.p99, lat.beyond_p99),
            (1000, 500.0, 990.0, 10)
        );
        assert_eq!(lat.tail, Some((9_900, 990.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
