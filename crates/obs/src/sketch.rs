//! Streaming workload sketches: summarize millions of requests in
//! kilobytes, with provable error bounds and wait-free recording.
//!
//! # Pieces
//!
//! * [`HyperLogLog`] — a HyperLogLog++ distinct-count estimator at
//!   [`HLL_PRECISION`] = 14 bits (16384 registers, ~1% standard error).
//!   Starts **sparse** (a small index→rank map) and promotes itself to
//!   the dense 16 KiB register array once the map would outgrow it;
//!   sparse estimates use exact linear counting, so small cardinalities
//!   are near-exact. Mergeable: `merge` is register-wise `max` and
//!   equals having observed the union of both streams.
//! * [`AtomicHyperLogLog`] — the dense, shared-writer variant: `observe`
//!   is a `Relaxed` load of one `AtomicU8` plus a rarely-taken
//!   `fetch_max`, so any number of request threads record concurrently
//!   without locks.
//! * [`SpaceSaving`] — the Metwally et al. top-K heavy-hitter sketch
//!   over an arbitrary `Copy` key. Capacity `k` guarantees, for every
//!   reported [`HeavyHitter`]: `count - error ≤ true ≤ count` and
//!   `error ≤ N/k` where `N` is the stream length — any key whose true
//!   frequency exceeds `N/k` is guaranteed to be present.
//! * [`WorkloadSketch`] — the aggregate the query engine feeds:
//!   distinct-(s,t)-pair HLL, hot-pair and hot-source SpaceSaving
//!   sketches and a total-pair counter, behind one `record_batch` call.
//!
//! All of it is dependency-free (std + the in-tree `parking_lot` shim)
//! and fixed-size: a full [`WorkloadSketch`] is ~20 KiB regardless of
//! how many requests it has seen.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;

/// HyperLogLog precision: registers are indexed by the hash's top
/// `HLL_PRECISION` bits.
pub const HLL_PRECISION: u32 = 14;

/// Number of HLL registers (`2^HLL_PRECISION`). Standard error is
/// `1.04 / sqrt(m)` ≈ 0.81%.
pub const HLL_REGISTERS: usize = 1 << HLL_PRECISION;

/// Sparse→dense promotion threshold: once the sparse map holds this many
/// registers its memory footprint rivals the dense array, so we switch.
const SPARSE_LIMIT: usize = HLL_REGISTERS / 8;

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer, the same shape
/// the service's cache uses to shard pairs. Distinct inputs get
/// independent, uniformly distributed outputs — exactly what both
/// sketches need from a hash.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical 64-bit fingerprint of an `(s, t)` query pair.
#[inline]
pub fn pair_fingerprint(s: u32, t: u32) -> u64 {
    mix64(((s as u64) << 32) | t as u64)
}

/// Register index (top [`HLL_PRECISION`] bits) and rank (leading-zero
/// run of the remaining bits, plus one) of a 64-bit hash.
#[inline]
fn split_hash(h: u64) -> (usize, u8) {
    let idx = (h >> (64 - HLL_PRECISION)) as usize;
    let rest = h << HLL_PRECISION;
    // All-zero remainder caps the rank at 64 - p + 1.
    let rank = rest.leading_zeros().min(64 - HLL_PRECISION) as u8 + 1;
    (idx, rank)
}

/// Bias-corrected estimate from `(sum of 2^-register, zero registers)`.
fn hll_estimate(sum: f64, zeros: usize) -> f64 {
    let m = HLL_REGISTERS as f64;
    let alpha = 0.7213 / (1.0 + 1.079 / m);
    let raw = alpha * m * m / sum;
    // HyperLogLog++ small-range correction: with empty registers and a
    // raw estimate under 2.5·m, exact linear counting is strictly more
    // accurate than the raw harmonic-mean estimator.
    if zeros > 0 && raw <= 2.5 * m {
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

enum HllRepr {
    /// register index → max rank, while few registers are touched.
    Sparse(HashMap<u16, u8>),
    /// The full register array (16 KiB).
    Dense(Box<[u8]>),
}

/// A single-writer HyperLogLog++ distinct-count sketch.
///
/// Feed it 64-bit fingerprints ([`HyperLogLog::insert_hash`]) or raw
/// items ([`HyperLogLog::insert`], which applies [`mix64`]);
/// [`HyperLogLog::estimate`] answers "how many *distinct* values have I
/// seen" within ~1–2% at any scale, in constant memory.
pub struct HyperLogLog {
    repr: HllRepr,
}

impl Default for HyperLogLog {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperLogLog {
    /// An empty sketch in sparse representation (a few hundred bytes
    /// until ~2048 registers are touched).
    pub fn new() -> Self {
        HyperLogLog {
            repr: HllRepr::Sparse(HashMap::new()),
        }
    }

    /// Whether the sketch is still in sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, HllRepr::Sparse(_))
    }

    /// Observes one raw item (hashed through [`mix64`]).
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.insert_hash(mix64(item));
    }

    /// Observes one pre-hashed 64-bit fingerprint.
    pub fn insert_hash(&mut self, h: u64) {
        let (idx, rank) = split_hash(h);
        match &mut self.repr {
            HllRepr::Sparse(map) => {
                let slot = map.entry(idx as u16).or_insert(0);
                *slot = (*slot).max(rank);
                if map.len() >= SPARSE_LIMIT {
                    self.promote();
                }
            }
            HllRepr::Dense(regs) => {
                if regs[idx] < rank {
                    regs[idx] = rank;
                }
            }
        }
    }

    fn promote(&mut self) {
        if let HllRepr::Sparse(map) = &self.repr {
            let mut regs = vec![0u8; HLL_REGISTERS].into_boxed_slice();
            for (&idx, &rank) in map {
                regs[idx as usize] = rank;
            }
            self.repr = HllRepr::Dense(regs);
        }
    }

    /// Folds `other` into `self` (register-wise max): afterwards `self`
    /// estimates the union of both observed streams.
    pub fn merge(&mut self, other: &HyperLogLog) {
        match &other.repr {
            HllRepr::Sparse(map) => {
                for (&idx, &rank) in map {
                    self.merge_register(idx as usize, rank);
                }
            }
            HllRepr::Dense(regs) => {
                self.promote();
                if let HllRepr::Dense(mine) = &mut self.repr {
                    for (m, &o) in mine.iter_mut().zip(regs.iter()) {
                        if *m < o {
                            *m = o;
                        }
                    }
                }
            }
        }
    }

    fn merge_register(&mut self, idx: usize, rank: u8) {
        match &mut self.repr {
            HllRepr::Sparse(map) => {
                let slot = map.entry(idx as u16).or_insert(0);
                *slot = (*slot).max(rank);
                if map.len() >= SPARSE_LIMIT {
                    self.promote();
                }
            }
            HllRepr::Dense(regs) => {
                if regs[idx] < rank {
                    regs[idx] = rank;
                }
            }
        }
    }

    /// The estimated number of distinct values observed.
    pub fn estimate(&self) -> f64 {
        let (sum, zeros) = match &self.repr {
            HllRepr::Sparse(map) => {
                let zeros = HLL_REGISTERS - map.len();
                let sum = zeros as f64
                    + map
                        .values()
                        .map(|&r| 1.0 / (1u64 << r.min(63)) as f64)
                        .sum::<f64>();
                (sum, zeros)
            }
            HllRepr::Dense(regs) => {
                let mut sum = 0.0;
                let mut zeros = 0usize;
                for &r in regs.iter() {
                    sum += 1.0 / (1u64 << r.min(63)) as f64;
                    zeros += (r == 0) as usize;
                }
                (sum, zeros)
            }
        };
        hll_estimate(sum, zeros)
    }
}

impl std::fmt::Debug for HyperLogLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyperLogLog")
            .field("sparse", &self.is_sparse())
            .field("estimate", &self.estimate())
            .finish()
    }
}

/// The shared-writer HyperLogLog: dense registers as `AtomicU8`, so
/// [`AtomicHyperLogLog::observe`] is one `Relaxed` load (plus a
/// `fetch_max` on the rare register-raising observation) — any number
/// of request threads record concurrently, wait-free.
pub struct AtomicHyperLogLog {
    registers: Box<[AtomicU8]>,
}

impl Default for AtomicHyperLogLog {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHyperLogLog {
    /// An empty sketch (16 KiB, allocated once).
    pub fn new() -> Self {
        AtomicHyperLogLog {
            registers: (0..HLL_REGISTERS).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Observes one pre-hashed fingerprint. Wait-free. The fast path is
    /// a plain relaxed load: a register only grows log-many times over
    /// a sketch's lifetime, so once warm nearly every observation reads
    /// `rank <= current` and skips the (lock-prefixed) `fetch_max`
    /// entirely — the double check keeps the estimate exact under races.
    #[inline]
    pub fn observe(&self, h: u64) {
        let (idx, rank) = split_hash(h);
        let reg = &self.registers[idx];
        if rank > reg.load(Ordering::Relaxed) {
            reg.fetch_max(rank, Ordering::Relaxed);
        }
    }

    /// The estimated number of distinct fingerprints observed (atomic
    /// loads only — never blocks recorders).
    pub fn estimate(&self) -> f64 {
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for r in self.registers.iter() {
            let r = r.load(Ordering::Relaxed);
            sum += 1.0 / (1u64 << r.min(63)) as f64;
            zeros += (r == 0) as usize;
        }
        hll_estimate(sum, zeros)
    }

    /// An owned single-writer copy (e.g. to [`HyperLogLog::merge`]
    /// across engines).
    pub fn to_sketch(&self) -> HyperLogLog {
        let regs: Box<[u8]> = self
            .registers
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();
        HyperLogLog {
            repr: HllRepr::Dense(regs),
        }
    }
}

/// One entry reported by [`SpaceSaving`]: `count` overestimates the
/// key's true frequency by at most `error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeavyHitter<K> {
    /// The monitored key.
    pub key: K,
    /// Upper bound on the key's true frequency.
    pub count: u64,
    /// Maximum overestimate inherited from the counter this key evicted
    /// (`0` for keys monitored since their first occurrence).
    pub error: u64,
}

impl<K> HeavyHitter<K> {
    /// Guaranteed lower bound on the key's true frequency.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.error
    }
}

/// The SpaceSaving top-K heavy-hitter sketch (Metwally, Agrawal,
/// El Abbadi 2005) over `k` monitored counters.
///
/// Updates are `O(1)` for already-monitored keys (the common case under
/// skew) and `O(k)` when an unmonitored key evicts the minimum counter.
/// For a stream of length `N`: every reported `count` satisfies
/// `true ≤ count ≤ true + N/k`, and any key with true frequency
/// `> N/k` is guaranteed to be monitored.
pub struct SpaceSaving<K> {
    capacity: usize,
    total: u64,
    slots: Vec<HeavyHitter<K>>,
    index: HashMap<K, usize, MixBuild>,
}

/// [`mix64`]-folding [`std::hash::Hasher`] for the sketch's small
/// `Copy` keys. SipHash (the `HashMap` default) costs more than the
/// rest of a SpaceSaving update combined on u32 / u32-pair keys — a
/// miss on a full sketch hits the index three times (lookup, evictee
/// removal, insertion) — and these keys need no DoS resistance: the
/// sketch only feeds diagnostics and is bounded at `k` entries
/// regardless of input.
#[derive(Clone, Copy, Default)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(buf));
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.0 = mix64(self.0 ^ u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = mix64(self.0 ^ i);
    }
    fn write_usize(&mut self, i: usize) {
        self.0 = mix64(self.0 ^ i as u64);
    }
}

/// `BuildHasher` producing [`MixHasher`]s (seeded with an arbitrary odd
/// constant so an empty write stream still finishes nonzero).
#[derive(Clone, Copy, Default)]
pub struct MixBuild;

impl std::hash::BuildHasher for MixBuild {
    type Hasher = MixHasher;
    fn build_hasher(&self) -> MixHasher {
        MixHasher(0x9E37_79B9_7F4A_7C15)
    }
}

impl<K: Copy + Eq + Hash> SpaceSaving<K> {
    /// An empty sketch monitoring at most `k` keys.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            capacity: k,
            total: 0,
            slots: Vec::with_capacity(k),
            index: HashMap::with_capacity_and_hasher(k, MixBuild),
        }
    }

    /// Maximum number of monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stream length observed so far (`N` in the error bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observes one occurrence of `key`.
    #[inline]
    pub fn offer(&mut self, key: K) {
        self.offer_n(key, 1);
    }

    /// Observes `weight` occurrences of `key` at once.
    pub fn offer_n(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if let Some(&at) = self.index.get(&key) {
            self.slots[at].count += weight;
        } else if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(HeavyHitter {
                key,
                count: weight,
                error: 0,
            });
        } else {
            // Replace the minimum counter: the newcomer inherits its
            // count as both floor and error bound.
            let (at, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, h)| h.count)
                .expect("capacity > 0");
            let evicted = self.slots[at];
            self.index.remove(&evicted.key);
            self.index.insert(key, at);
            self.slots[at] = HeavyHitter {
                key,
                count: evicted.count + weight,
                error: evicted.count,
            };
        }
    }

    /// All monitored counters, highest `count` first.
    pub fn entries(&self) -> Vec<HeavyHitter<K>> {
        let mut out = self.slots.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.count));
        out
    }

    /// The `n` heaviest monitored counters, highest `count` first.
    pub fn top(&self, n: usize) -> Vec<HeavyHitter<K>> {
        let mut out = self.entries();
        out.truncate(n);
        out
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> std::fmt::Debug for SpaceSaving<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceSaving")
            .field("capacity", &self.capacity)
            .field("total", &self.total)
            .field("monitored", &self.slots.len())
            .finish()
    }
}

/// Default number of monitored heavy-hitter counters.
pub const DEFAULT_HEAVY_HITTERS: usize = 32;

/// The aggregate workload sketch the query engine feeds on every batch:
/// distinct-pair HLL (wait-free `fetch_max` per pair), hot-pair and
/// hot-source SpaceSaving sketches (one short lock per *batch*, not per
/// pair) and a total-pair counter.
pub struct WorkloadSketch {
    distinct: AtomicHyperLogLog,
    total_pairs: AtomicU64,
    pairs: Mutex<SpaceSaving<(u32, u32)>>,
    sources: Mutex<SpaceSaving<u32>>,
}

impl Default for WorkloadSketch {
    fn default() -> Self {
        Self::new(DEFAULT_HEAVY_HITTERS)
    }
}

impl WorkloadSketch {
    /// A fresh sketch monitoring `k` heavy-hitter counters for pairs and
    /// for source vertices.
    pub fn new(k: usize) -> Self {
        WorkloadSketch {
            distinct: AtomicHyperLogLog::new(),
            total_pairs: AtomicU64::new(0),
            pairs: Mutex::new(SpaceSaving::new(k)),
            sources: Mutex::new(SpaceSaving::new(k)),
        }
    }

    /// Records one query batch in full: totals (wait-free) then heavy
    /// hitters (locked). Equivalent to [`Self::record_totals`] followed
    /// by [`Self::record_hitters`] — callers that must never stall a
    /// serving thread split the two and run the hitters half on a
    /// background thread instead.
    pub fn record_batch(&self, batch: &[(u32, u32)]) {
        self.record_totals(batch);
        self.record_hitters(batch);
    }

    /// The wait-free half of recording a batch: every pair into the
    /// distinct-pair HLL (one relaxed `fetch_max` each) plus the
    /// total-pair counter. Any number of serving threads may call this
    /// concurrently without blocking each other.
    pub fn record_totals(&self, batch: &[(u32, u32)]) {
        if batch.is_empty() {
            return;
        }
        for &(s, t) in batch {
            self.distinct.observe(pair_fingerprint(s, t));
        }
        self.total_pairs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }

    /// The locked half of recording a batch: the hot-pair and
    /// hot-source SpaceSaving sketches, one short lock each. On
    /// distinct-heavy traffic every pair evicts a monitored counter
    /// (three index-map touches per sketch), which is why the query
    /// engine runs this on its sketcher thread rather than on the
    /// request path.
    pub fn record_hitters(&self, batch: &[(u32, u32)]) {
        self.record_hitters_sampled(batch, 1);
    }

    /// [`Self::record_hitters`] over a systematic 1-in-`stride` sample:
    /// every `stride`-th pair is offered with weight `stride`, so
    /// expected counts are unbiased while the update cost drops by the
    /// same factor. A key's reported count picks up sampling noise on
    /// the order of `stride` per occurrence run in addition to the
    /// usual SpaceSaving `N/k` bound — callers use `stride > 1` only to
    /// bound sketch CPU when recording cannot keep up with the serving
    /// threads (the query engine's sketcher under sustained overload).
    /// `stride = 1` (or `0`) is the exact path.
    pub fn record_hitters_sampled(&self, batch: &[(u32, u32)], stride: usize) {
        if batch.is_empty() {
            return;
        }
        let stride = stride.max(1);
        let weight = stride as u64;
        {
            let mut pairs = self.pairs.lock();
            for &p in batch.iter().step_by(stride) {
                pairs.offer_n(p, weight);
            }
        }
        {
            let mut sources = self.sources.lock();
            for &(s, _) in batch.iter().step_by(stride) {
                sources.offer_n(s, weight);
            }
        }
    }

    /// Estimated number of distinct `(s, t)` pairs observed.
    pub fn distinct_pairs(&self) -> f64 {
        self.distinct.estimate()
    }

    /// Total pairs observed (stream length `N`).
    pub fn total_pairs(&self) -> u64 {
        self.total_pairs.load(Ordering::Relaxed)
    }

    /// The `n` hottest `(s, t)` pairs, highest count first.
    pub fn hot_pairs(&self, n: usize) -> Vec<HeavyHitter<(u32, u32)>> {
        self.pairs.lock().top(n)
    }

    /// The `n` hottest source vertices, highest count first.
    pub fn hot_sources(&self, n: usize) -> Vec<HeavyHitter<u32>> {
        self.sources.lock().top(n)
    }

    /// Guaranteed traffic share of the single hottest pair:
    /// `guaranteed_count / N` in `0..=1` (0 before any traffic). Uses
    /// the heavy hitter's guaranteed lower bound, so the share is never
    /// overstated.
    pub fn hot_pair_share(&self) -> f64 {
        let total = self.total_pairs();
        if total == 0 {
            return 0.0;
        }
        self.pairs
            .lock()
            .top(1)
            .first()
            .map_or(0.0, |h| h.guaranteed() as f64 / total as f64)
    }
}

impl std::fmt::Debug for WorkloadSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSketch")
            .field("total_pairs", &self.total_pairs())
            .field("distinct_pairs", &self.distinct_pairs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(estimate: f64, exact: f64) -> f64 {
        (estimate - exact).abs() / exact
    }

    #[test]
    fn hll_small_counts_are_near_exact() {
        let mut h = HyperLogLog::new();
        for i in 0..100u64 {
            h.insert(i);
        }
        assert!(h.is_sparse());
        assert!(rel_err(h.estimate(), 100.0) < 0.02, "{}", h.estimate());
        // Duplicates do not move the estimate.
        let before = h.estimate();
        for i in 0..100u64 {
            h.insert(i);
        }
        assert_eq!(h.estimate(), before);
    }

    #[test]
    fn hll_promotes_to_dense_and_stays_accurate() {
        let mut h = HyperLogLog::new();
        for i in 0..100_000u64 {
            h.insert(i);
        }
        assert!(!h.is_sparse(), "100k distinct must promote");
        assert!(
            rel_err(h.estimate(), 100_000.0) < 0.02,
            "estimate {}",
            h.estimate()
        );
    }

    #[test]
    fn hll_merge_equals_union() {
        let mut a = HyperLogLog::new();
        let mut b = HyperLogLog::new();
        let mut union = HyperLogLog::new();
        for i in 0..30_000u64 {
            a.insert(i);
            union.insert(i);
        }
        // Overlapping range: the union is 50k distinct, not 60k.
        for i in 10_000..50_000u64 {
            b.insert(i);
            union.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), union.estimate());
        assert!(rel_err(a.estimate(), 50_000.0) < 0.02);
        // Sparse-into-sparse merge too.
        let mut s1 = HyperLogLog::new();
        let mut s2 = HyperLogLog::new();
        for i in 0..50u64 {
            s1.insert(i);
        }
        for i in 25..75u64 {
            s2.insert(i);
        }
        s1.merge(&s2);
        assert!(s1.is_sparse());
        assert!(rel_err(s1.estimate(), 75.0) < 0.03, "{}", s1.estimate());
    }

    #[test]
    fn atomic_hll_matches_sequential() {
        let seq = {
            let mut h = HyperLogLog::new();
            for i in 0..50_000u64 {
                h.insert(i);
            }
            h
        };
        let shared = std::sync::Arc::new(AtomicHyperLogLog::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    // Overlapping shards: every thread covers a quarter
                    // plus spillover, the union is exactly 0..50k.
                    for i in (t * 12_500)..((t + 1) * 12_500 + 5_000).min(50_000) {
                        shared.observe(mix64(i as u64));
                    }
                });
            }
        });
        assert_eq!(shared.estimate(), seq.estimate());
        assert_eq!(shared.to_sketch().estimate(), seq.estimate());
    }

    #[test]
    fn spacesaving_finds_heavy_hitters_with_bounded_error() {
        let mut ss = SpaceSaving::new(8);
        // Key 0 takes half the stream; keys 1..=100 share the rest.
        for round in 0..100u32 {
            for _ in 0..100 {
                ss.offer(0u32);
            }
            for k in 1..=100u32 {
                ss.offer(k);
            }
            let _ = round;
        }
        let n = ss.total();
        assert_eq!(n, 20_000);
        let top = ss.top(1);
        assert_eq!(top[0].key, 0, "the dominant key must be monitored");
        assert!(top[0].guaranteed() >= 10_000 - n / 8);
        for h in ss.entries() {
            assert!(h.error <= n / 8, "error {} > N/k", h.error);
            assert!(h.count >= h.error);
        }
    }

    #[test]
    fn spacesaving_counts_are_upper_bounds() {
        let mut ss = SpaceSaving::new(4);
        let mut exact: HashMap<u32, u64> = HashMap::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((state >> 33) % 64) as u32;
            ss.offer(key);
            *exact.entry(key).or_default() += 1;
        }
        for h in ss.entries() {
            let truth = exact[&h.key];
            assert!(h.count >= truth, "count must never undercount");
            assert!(h.guaranteed() <= truth, "guaranteed must never overcount");
        }
    }

    #[test]
    fn workload_sketch_aggregates_batches() {
        let ws = WorkloadSketch::new(8);
        let mut batch = vec![(7u32, 9u32); 60];
        for i in 0..40u32 {
            batch.push((i, i + 1));
        }
        ws.record_batch(&batch);
        ws.record_batch(&[]);
        assert_eq!(ws.total_pairs(), 100);
        // 41 distinct pairs; small counts are near-exact.
        let d = ws.distinct_pairs();
        assert!((d - 41.0).abs() < 2.0, "distinct estimate {d}");
        let hot = ws.hot_pairs(1);
        assert_eq!(hot[0].key, (7, 9));
        assert!(ws.hot_pair_share() > 0.5);
        let sources = ws.hot_sources(2);
        assert_eq!(sources[0].key, 7);
    }
}
