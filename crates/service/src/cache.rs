//! The hot-pair answer cache: a sharded, size-bounded `(s, t)` →
//! [`SpcAnswer`] map consulted by [`crate::QueryEngine`] before any work
//! is chunked onto the pool.
//!
//! Real point-to-point traffic is power-law: a small set of pairs
//! dominates, so the 2-hop label merge recomputes the same answers
//! millions of times. This cache short-circuits those repeats with one
//! hash probe per query.
//!
//! # Design
//!
//! * **Sharding** — the pair hash picks one of N independently locked
//!   shards, so concurrent submitters contend only when they hash to the
//!   same shard; there is no global lock anywhere on the probe path.
//! * **Approximate LRU** — each shard runs the CLOCK algorithm over a
//!   flat slot array: a probe sets the slot's reference bit, and the
//!   eviction hand sweeps slots clearing bits until it finds an
//!   unreferenced victim. No linked lists, no per-probe reordering —
//!   an O(1) amortized eviction that approximates LRU well enough for
//!   skewed workloads.
//! * **Generation stamping** — every entry is stamped with the
//!   [`crate::IndexKind`] generation observed *before* the answer was
//!   computed. [`AnswerCache::get`] rejects entries whose stamp differs
//!   from the caller's current generation, so an
//!   [`crate::QueryEngine::apply_inserts`] that changed the graph
//!   implicitly invalidates the whole cache without touching a single
//!   entry. Stamping with the pre-computation generation is
//!   conservative: a racing insert can only cause a fresh answer to be
//!   *rejected* as stale, never a stale answer to be served as fresh.
//!
//! Cached answers are bit-identical to engine answers by construction —
//! they are engine answers, backfilled on miss — and the parity harness
//! pins this across kinds, worker counts and insert interleavings.

use parking_lot::Mutex;
use pspc_graph::{SpcAnswer, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shard count used when the caller passes 0.
pub const DEFAULT_SHARDS: usize = 8;

/// Point-in-time counters of one [`AnswerCache`] (the daemon's
/// `pspc_cache_*` gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to the engine (including stale entries).
    pub misses: u64,
    /// Slots currently occupied (stale entries count until overwritten).
    pub entries: u64,
    /// Live entries overwritten by the CLOCK hand to make room.
    pub evictions: u64,
}

/// One cached answer slot.
struct Slot {
    key: (VertexId, VertexId),
    answer: SpcAnswer,
    /// Index generation the answer was computed under.
    generation: u64,
    /// CLOCK reference bit: set on probe, cleared by the sweeping hand.
    referenced: bool,
}

/// One independently locked cache shard: a slot array under CLOCK
/// eviction plus a key → slot map.
struct Shard {
    map: std::collections::HashMap<(VertexId, VertexId), u32>,
    slots: Vec<Slot>,
    hand: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: std::collections::HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            hand: 0,
            capacity,
        }
    }

    fn get(&mut self, key: (VertexId, VertexId), generation: u64) -> Option<SpcAnswer> {
        let &i = self.map.get(&key)?;
        let slot = &mut self.slots[i as usize];
        if slot.generation != generation {
            // Stale: a miss. The slot stays put — unreferenced, it is the
            // CLOCK hand's first choice of victim, and a same-key
            // backfill overwrites it in place.
            slot.referenced = false;
            return None;
        }
        slot.referenced = true;
        Some(slot.answer)
    }

    /// Inserts or refreshes an entry; reports `(grew, evicted_live)` —
    /// whether a new slot was occupied and whether a *live* entry was
    /// evicted to make room.
    fn insert(
        &mut self,
        key: (VertexId, VertexId),
        answer: SpcAnswer,
        generation: u64,
    ) -> (bool, bool) {
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i as usize];
            slot.answer = answer;
            slot.generation = generation;
            slot.referenced = true;
            return (false, false);
        }
        let fresh = Slot {
            key,
            answer,
            generation,
            referenced: true,
        };
        if self.slots.len() < self.capacity {
            self.map.insert(key, self.slots.len() as u32);
            self.slots.push(fresh);
            return (true, false);
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // turns up (terminates within two passes — the first pass clears
        // every bit it crosses).
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                break;
            }
        }
        let victim = self.hand;
        let evicted_live = {
            let slot = &mut self.slots[victim];
            let was_live = slot.generation == generation;
            self.map.remove(&slot.key);
            *slot = fresh;
            was_live
        };
        self.map.insert(key, victim as u32);
        self.hand = (victim + 1) % self.capacity;
        (false, evicted_live)
    }
}

/// Sharded, size-bounded, generation-aware answer cache. See the
/// [module docs](self).
///
/// `Sync` by construction (per-shard mutexes + atomic counters): the
/// engine shares one across all submitting threads.
pub struct AnswerCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
}

/// Pair hash for shard selection (SplitMix64 finalizer over the packed
/// pair — cheap, and uncorrelated with the inner `HashMap`'s hasher).
#[inline]
fn pair_hash(key: (VertexId, VertexId)) -> u64 {
    let mut h = ((key.0 as u64) << 32) | key.1 as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl AnswerCache {
    /// Cache holding at most ~`capacity` entries across `shards` shards
    /// (0 shards = [`DEFAULT_SHARDS`]). The per-shard capacity is
    /// `capacity` divided among the shards, rounded up, so the effective
    /// total — [`AnswerCache::capacity`] — may exceed the request by up
    /// to `shards - 1` entries.
    ///
    /// # Panics
    /// Panics on `capacity == 0`; callers gate cache construction on a
    /// nonzero capacity ("0 disables").
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "AnswerCache: capacity 0 means no cache");
        let shards = if shards == 0 { DEFAULT_SHARDS } else { shards };
        let per_shard = capacity.div_ceil(shards).max(1);
        AnswerCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Effective total capacity (per-shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, key: (VertexId, VertexId)) -> &Mutex<Shard> {
        &self.shards[(pair_hash(key) % self.shards.len() as u64) as usize]
    }

    /// Probes for `key` at the caller's current index `generation`.
    /// Entries stamped with any other generation are misses. Updates the
    /// hit/miss counters.
    pub fn get(&self, key: (VertexId, VertexId), generation: u64) -> Option<SpcAnswer> {
        let answer = self.shard(key).lock().get(key, generation);
        match answer {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        answer
    }

    /// Backfills an engine answer computed under `generation` (the value
    /// the caller loaded *before* running the query — see the
    /// [module docs](self) for why that ordering is the safe one).
    pub fn insert(&self, key: (VertexId, VertexId), answer: SpcAnswer, generation: u64) {
        let (grew, evicted_live) = self.shard(key).lock().insert(key, answer, generation);
        if grew {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        if evicted_live {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters (racy by nature, like every gauge).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for AnswerCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "AnswerCache({} shards, capacity {}, {} entries, {} hits / {} misses)",
            self.num_shards(),
            self.capacity(),
            s.entries,
            s.hits,
            s.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(dist: u16, count: u64) -> SpcAnswer {
        SpcAnswer { dist, count }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = AnswerCache::new(16, 2);
        assert_eq!(c.get((1, 2), 0), None);
        c.insert((1, 2), ans(3, 7), 0);
        assert_eq!(c.get((1, 2), 0), Some(ans(3, 7)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn generation_mismatch_is_a_miss_and_backfill_recovers() {
        let c = AnswerCache::new(16, 1);
        c.insert((1, 2), ans(9, 1), 0);
        // The graph changed (generation bumped): the stale entry must
        // never be served.
        assert_eq!(c.get((1, 2), 1), None);
        // A fresh backfill under the new generation overwrites in place.
        c.insert((1, 2), ans(1, 1), 1);
        assert_eq!(c.get((1, 2), 1), Some(ans(1, 1)));
        assert_eq!(c.stats().entries, 1, "same key must not grow the cache");
    }

    #[test]
    fn capacity_is_respected_and_evictions_counted() {
        let c = AnswerCache::new(64, 4);
        for i in 0..1000u32 {
            c.insert((i, i + 1), ans(1, 1), 0);
        }
        let s = c.stats();
        assert!(
            s.entries <= c.capacity() as u64,
            "{} entries > capacity {}",
            s.entries,
            c.capacity()
        );
        assert!(
            s.evictions >= 1000 - c.capacity() as u64,
            "evictions {} too low",
            s.evictions
        );
        // Evicted keys miss; some recently inserted keys must survive.
        let survivors = (0..1000u32)
            .filter(|&i| c.get((i, i + 1), 0).is_some())
            .count();
        assert!(survivors > 0 && survivors <= c.capacity());
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let c = AnswerCache::new(4, 1);
        for i in 0..4u32 {
            c.insert((i, i), ans(0, 1), 0);
        }
        // First eviction: every slot is referenced, so the hand sweeps a
        // full clearing pass and takes slot 0.
        c.insert((9, 9), ans(0, 1), 0);
        assert_eq!(c.get((0, 0), 0), None);
        // Re-reference 1 and 2 but not 3: the next eviction gives the
        // probed entries a second chance and takes the cold 3.
        assert!(c.get((1, 1), 0).is_some());
        assert!(c.get((2, 2), 0).is_some());
        c.insert((8, 8), ans(0, 1), 0);
        assert_eq!(
            c.get((3, 3), 0),
            None,
            "the unreferenced entry is the victim"
        );
        for k in [(1, 1), (2, 2), (9, 9), (8, 8)] {
            assert!(c.get(k, 0).is_some(), "{k:?} must survive");
        }
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn default_shards_and_capacity_rounding() {
        let c = AnswerCache::new(100, 0);
        assert_eq!(c.num_shards(), DEFAULT_SHARDS);
        // 100 / 8 rounds up to 13 per shard.
        assert_eq!(c.capacity(), 13 * DEFAULT_SHARDS);
        assert!(format!("{c:?}").contains("8 shards"));
    }

    #[test]
    fn concurrent_probes_and_fills_stay_consistent() {
        let c = AnswerCache::new(256, 4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = &c;
                s.spawn(move || {
                    for round in 0..200u32 {
                        let key = (round % 64, t);
                        c.insert(key, ans((round % 7) as u16 + 1, 1), 0);
                        if let Some(a) = c.get(key, 0) {
                            assert!(a.dist >= 1 && a.dist <= 7);
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert!(s.entries <= c.capacity() as u64);
    }
}
