//! Log-bucketed latency histograms (HDR-style): lock-free to record,
//! mergeable, with quantiles derived from cumulative bucket counts.
//!
//! # Bucketing scheme
//!
//! Values are `u64` (the workspace convention is nanoseconds, but the
//! histogram is unit-agnostic). The value range is covered by a
//! **log-linear** grid: each power-of-two octave is split into
//! [`SUB_COUNT`] equal-width sub-buckets, so a bucket's width is at most
//! `1/32` of its lower bound — every recorded value is representable
//! with a relative error below `1/32` (≈ 3.2%, about two significant
//! digits), the same idea as HdrHistogram at 2 significant figures.
//! Values below [`SUB_COUNT`] get exact unit-width buckets. The whole
//! `u64` range maps into [`NUM_BUCKETS`] = 1920 fixed buckets, so a
//! histogram is one flat `AtomicU64` array of ~15 KiB — no allocation,
//! resizing or locking, ever.
//!
//! # Concurrency
//!
//! [`LogHistogram::record`] is three `Relaxed` `fetch_add`s (bucket,
//! count, sum); any number of threads record concurrently and a scrape
//! ([`LogHistogram::snapshot`]) only performs atomic loads, so recording
//! can never block on a scrape nor vice versa. A snapshot taken while
//! writers are active is a *racy-but-coherent* view: each counter is
//! individually consistent, and `count` may trail the bucket total by
//! in-flight increments — quantile math clamps accordingly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (32 → relative error below 1/32).
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total buckets covering all of `u64`: one unit-width bucket per value
/// below [`SUB_COUNT`], then [`SUB_COUNT`] buckets for each of the 59
/// remaining octaves.
pub const NUM_BUCKETS: usize = SUB_COUNT * (64 - SUB_BITS as usize + 1);

/// The bucket index holding `v`. Monotone in `v` and total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // position of the highest set bit, ≥ SUB_BITS
        let base = (top - SUB_BITS + 1) as usize * SUB_COUNT;
        base + ((v >> (top - SUB_BITS)) as usize & (SUB_COUNT - 1))
    }
}

/// The inclusive `[lo, hi]` value range of bucket `i`.
///
/// # Panics
/// Panics when `i >= NUM_BUCKETS`.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i < SUB_COUNT {
        (i as u64, i as u64)
    } else {
        let top = SUB_BITS + (i / SUB_COUNT) as u32 - 1;
        let width = 1u64 << (top - SUB_BITS);
        let lo = (1u64 << top) + (i % SUB_COUNT) as u64 * width;
        (lo, lo + (width - 1))
    }
}

/// A fixed-size, lock-free, mergeable latency histogram.
///
/// See the [module docs](self) for the bucketing scheme and concurrency
/// story. All counters are `Relaxed` atomics: recording is wait-free and
/// never contends with scrapes.
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram (~15 KiB, allocated once).
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free: three `Relaxed` `fetch_add`s.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping on overflow, which at
    /// nanosecond resolution needs ~584 years of accumulated latency).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self` (bucket-wise adds).
    /// Equivalent to having recorded the union of both sample streams.
    pub fn merge_from(&self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = o.load(Ordering::Relaxed);
            if v > 0 {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An owned point-in-time copy (atomic loads only — never blocks
    /// recorders), from which any number of quantiles derive for free.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive the count from the copied buckets rather than loading
        // the separate counter: under concurrent recording the three
        // adds are not atomic as a group, and quantile ranks must agree
        // with the bucket totals actually captured.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets: buckets.into_boxed_slice(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

/// An owned scrape of a [`LogHistogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Samples captured.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of captured values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether the histogram had no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the captured values (0 on an empty snapshot).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `0..=1`): the upper bound of the
    /// bucket holding the sample of rank `ceil(q·count)`, 0 when empty.
    /// Overestimates the exact sample by at most the bucket's relative
    /// width (< 1/32). Monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        // Unreachable when count equals the bucket total (snapshot()
        // guarantees it); kept total for robustness.
        bucket_bounds(NUM_BUCKETS - 1).1
    }

    /// The samples recorded between `earlier` and `self`, as a snapshot
    /// of its own: per-bucket saturating subtraction, with `count` and
    /// `sum` re-derived so quantiles of the delta are exactly the
    /// quantiles of the samples that arrived in between. Both snapshots
    /// must come from the same (monotonically growing) histogram; a
    /// mismatched pair degrades gracefully to clamped-at-zero buckets.
    /// This is how a caller reads the quantiles of one measurement
    /// interval from two scrapes.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(&now, &then)| now.saturating_sub(then))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets: buckets.into_boxed_slice(),
            count,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The non-empty buckets as `(upper bound, cumulative count)` pairs
    /// in ascending value order — exactly the series a Prometheus
    /// histogram's `_bucket{le="..."}` samples need (the caller appends
    /// the `+Inf` bucket with the total count).
    pub fn cumulative_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .scan(0u64, |acc, (i, &c)| {
                *acc += c;
                Some((bucket_bounds(i).1, *acc))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total_at_boundaries() {
        // Unit buckets below SUB_COUNT.
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Continuity across the linear→log boundary and octave edges.
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64, "width-2 bucket at the 2^6 octave");
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let mut prev = 0;
        for shift in 5..64 {
            for v in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1] {
                let i = bucket_index(v);
                assert!(i >= prev, "index must be monotone at v={v}");
                prev = i;
            }
        }
    }

    #[test]
    fn bounds_partition_the_range() {
        // Consecutive buckets tile u64 without gaps or overlaps.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} must start where {} ended", i - 1);
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i + 1 < NUM_BUCKETS {
                expect_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [1u64, 31, 32, 100, 999, 5_000, 123_456, 10_000_000_000] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            let err = (hi - v) as f64 / v as f64;
            assert!(err < 1.0 / 32.0, "v={v}: err {err}");
        }
    }

    #[test]
    fn empty_snapshot() {
        let h = LogHistogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.cumulative_nonzero().count(), 0);
    }

    #[test]
    fn quantiles_of_known_samples() {
        let h = LogHistogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 100);
        assert_eq!(s.mean(), 25.0);
        // Values below SUB_COUNT land in exact unit buckets, so the
        // nearest-rank quantiles are exact here.
        assert_eq!(s.quantile(0.25), 10);
        assert_eq!(s.quantile(0.50), 20);
        assert_eq!(s.quantile(0.75), 30);
        assert_eq!(s.quantile(1.0), 40);
        assert_eq!(s.quantile(0.0), 10, "rank clamps to the first sample");
    }

    #[test]
    fn cumulative_series_ends_at_total() {
        let h = LogHistogram::new();
        for v in [5, 5, 70, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let series: Vec<_> = s.cumulative_nonzero().collect();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (5, 2));
        assert!(series
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(series.last().unwrap().1, s.count());
    }

    #[test]
    fn merge_matches_union() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let union = LogHistogram::new();
        for v in [3u64, 77, 500] {
            a.record(v);
            union.record(v);
        }
        for v in [9u64, 77, 123_456] {
            b.record(v);
            union.record(v);
        }
        a.merge_from(&b);
        let (sa, su) = (a.snapshot(), union.snapshot());
        assert_eq!(sa.count(), su.count());
        assert_eq!(sa.sum(), su.sum());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(sa.quantile(q), su.quantile(q));
        }
    }

    #[test]
    fn delta_isolates_the_samples_in_between() {
        let h = LogHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [5u64, 5, 1_000] {
            h.record(v);
        }
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 1_010);
        assert_eq!(d.quantile(0.5), 5);
        // Quantiles match a histogram that only saw the new samples.
        let fresh = LogHistogram::new();
        for v in [5u64, 5, 1_000] {
            fresh.record(v);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(d.quantile(q), fresh.snapshot().quantile(q));
        }
        // Delta against itself is empty.
        let s = h.snapshot();
        assert!(s.delta(&s).is_empty());
    }

    #[test]
    fn concurrent_recording_under_scrapes_loses_nothing() {
        // The satellite pin: scrapes are atomic reads and can never
        // block or drop concurrent recording.
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads = 4;
        let per_thread = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
            // Scrape continuously while recorders run; every snapshot
            // must be internally consistent.
            let h = std::sync::Arc::clone(&h);
            s.spawn(move || {
                for _ in 0..200 {
                    let s = h.snapshot();
                    assert_eq!(
                        s.cumulative_nonzero().last().map_or(0, |(_, c)| c),
                        s.count()
                    );
                    std::hint::spin_loop();
                }
            });
        });
        assert_eq!(h.count(), threads * per_thread);
    }
}
