//! Versioned per-thread scratch arrays.
//!
//! The hot loops of both builders repeatedly need "hash map keyed by hub
//! rank" semantics (load a vertex's label, probe candidates, accumulate
//! counts). A dense array indexed by rank with a version stamp gives O(1)
//! probes and O(1) reset without clearing `n` slots per use — the classic
//! labeling-implementation trick.
//!
//! [`query_prunes`] is the 2-hop pruning query (Lemma 4) both parallel
//! builders ask against a loaded [`DistScratch`].

use crate::label::{Count, LabelEntry};
use parking_lot::Mutex;

/// Dense `rank -> u16` map with O(1) reset, used for 2-hop distance probes.
#[derive(Debug)]
pub struct DistScratch {
    version: u32,
    stamp: Vec<u32>,
    dist: Vec<u16>,
}

impl DistScratch {
    /// Creates a scratch for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        DistScratch {
            version: 0,
            stamp: vec![0; n],
            dist: vec![0; n],
        }
    }

    /// Invalidates all entries in O(1).
    pub fn clear(&mut self) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            // One full wipe every 2^32 clears keeps stamps unambiguous.
            self.stamp.fill(0);
            self.version = 1;
        }
    }

    /// Sets `dist(h) = d`.
    #[inline]
    pub fn set(&mut self, h: u32, d: u16) {
        self.stamp[h as usize] = self.version;
        self.dist[h as usize] = d;
    }

    /// Distance for `h`, if set since the last [`DistScratch::clear`].
    #[inline]
    pub fn get(&self, h: u32) -> Option<u16> {
        (self.stamp[h as usize] == self.version).then(|| self.dist[h as usize])
    }

    /// Whether `h` is present.
    #[inline]
    pub fn contains(&self, h: u32) -> bool {
        self.stamp[h as usize] == self.version
    }
}

/// The 2-hop pruning query: whether some entry `e` of `label` meets the
/// loaded label in `dist` with `e.dist + dist(e.hub) < d`.
///
/// Only the decision is needed, never the minimum, so the scan stops at the
/// first witness (the pruned-labelling test). Returns the decision and the
/// number of entries probed, which is at most `label.len()`.
#[inline]
pub(crate) fn query_prunes(label: &[LabelEntry], dist: &DistScratch, d: u16) -> (bool, u64) {
    for (i, e) in label.iter().enumerate() {
        if let Some(du) = dist.get(e.hub) {
            if (e.dist as u32 + du as u32) < d as u32 {
                return (true, i as u64 + 1);
            }
        }
    }
    (false, label.len() as u64)
}

/// Dense `rank -> Count` accumulator with a touch list — implements the
/// paper's *Label Merging* (duplicate candidates for the same hub are summed
/// in place) while the touch list preserves discovery order for
/// deterministic iteration.
#[derive(Debug)]
pub struct CandScratch {
    version: u32,
    stamp: Vec<u32>,
    count: Vec<Count>,
    touched: Vec<u32>,
}

impl CandScratch {
    /// Creates an accumulator for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        CandScratch {
            version: 0,
            stamp: vec![0; n],
            count: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Drops all candidates in O(touched).
    pub fn clear(&mut self) {
        self.touched.clear();
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.stamp.fill(0);
            self.version = 1;
        }
    }

    /// Adds `c` paths for hub `h` (Label Merging).
    #[inline]
    pub fn add(&mut self, h: u32, c: Count) {
        if self.stamp[h as usize] == self.version {
            self.count[h as usize] = self.count[h as usize].saturating_add(c);
        } else {
            self.stamp[h as usize] = self.version;
            self.count[h as usize] = c;
            self.touched.push(h);
        }
    }

    /// Number of distinct hubs accumulated.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no candidates are present.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Distinct hubs in first-touch order, or ascending after
    /// [`CandScratch::sort_touched`].
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Sorts the touch list ascending in place, so candidates are visited
    /// in canonical hub order.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Accumulated count for hub `h` (0 if untouched).
    #[inline]
    pub fn count(&self, h: u32) -> Count {
        if self.stamp[h as usize] == self.version {
            self.count[h as usize]
        } else {
            0
        }
    }
}

/// Combined per-thread workspace for one propagation task.
#[derive(Debug)]
pub struct Workspace {
    /// Distance probes for the vertex currently being processed.
    pub dist: DistScratch,
    /// Candidate accumulator.
    pub cand: CandScratch,
}

impl Workspace {
    /// Creates a workspace for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        Workspace {
            dist: DistScratch::new(n),
            cand: CandScratch::new(n),
        }
    }
}

/// Checkout/return pool of workspaces shared across a rayon pool.
pub struct WorkspacePool {
    n: usize,
    free: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// Creates an empty pool for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        WorkspacePool {
            n,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a checked-out workspace (allocating one if the pool is
    /// dry), returning it afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = self
            .free
            .lock()
            .pop()
            .unwrap_or_else(|| Workspace::new(self.n));
        let r = f(&mut ws);
        self.free.lock().push(ws);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_scratch_versioning() {
        let mut s = DistScratch::new(4);
        s.clear();
        s.set(2, 7);
        assert_eq!(s.get(2), Some(7));
        assert_eq!(s.get(1), None);
        s.clear();
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn cand_scratch_merges() {
        let mut c = CandScratch::new(4);
        c.clear();
        c.add(1, 3);
        c.add(1, 4);
        c.add(2, 1);
        assert_eq!(c.count(1), 7);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.touched(), &[1, 2]);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.count(1), 0);
    }

    #[test]
    fn cand_scratch_saturates() {
        let mut c = CandScratch::new(2);
        c.clear();
        c.add(0, Count::MAX - 1);
        c.add(0, 5);
        assert_eq!(c.count(0), Count::MAX);
    }

    #[test]
    fn cand_scratch_sorts_touch_list() {
        let mut c = CandScratch::new(8);
        c.clear();
        for h in [5, 1, 7, 1, 3] {
            c.add(h, 1);
        }
        c.sort_touched();
        assert_eq!(c.touched(), &[1, 3, 5, 7]);
        assert_eq!(c.count(1), 2);
    }

    /// Reference query: the full minimum over the whole label.
    fn full_min_prunes(label: &[LabelEntry], dist: &DistScratch, d: u16) -> bool {
        let mut q = u32::MAX;
        for e in label {
            if let Some(du) = dist.get(e.hub) {
                q = q.min(e.dist as u32 + du as u32);
            }
        }
        q < d as u32
    }

    /// The early-exit query over levels ≤ d-2 decides exactly like the full
    /// minimum over every level ≤ d-1, given the builder's invariants: the
    /// label is level-ordered and every hub it shares with the loaded label
    /// sits at distance ≥ 1 there (only `u` itself is at 0, and `u` ranks
    /// below every hub of `L(w)`).
    #[test]
    fn query_prunes_matches_full_min_on_level_cut_labels() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: u32 = 48;
        const MAX_D: u16 = 8;
        let u = N - 1;
        let mut rng = StdRng::seed_from_u64(0x2b0b);
        let mut decided = [0usize; 2];
        for _ in 0..400 {
            // L(u): itself at 0, other hubs at 1..MAX_D.
            let mut dist = DistScratch::new(N as usize);
            dist.clear();
            dist.set(u, 0);
            for h in 0..u {
                if rng.gen_bool(0.3) {
                    dist.set(h, rng.gen_range(1..MAX_D));
                }
            }
            // L(w): each hub ranked above u at most once, at a random level.
            let levels: Vec<Option<u16>> = (0..u)
                .map(|_| rng.gen_bool(0.4).then(|| rng.gen_range(0..MAX_D)))
                .collect();
            for d in 1..=MAX_D {
                let mut label: Vec<LabelEntry> = Vec::new();
                for level in 0..d {
                    for (h, l) in levels.iter().enumerate() {
                        if *l == Some(level) {
                            label.push(LabelEntry {
                                hub: h as u32,
                                dist: level,
                                count: 1,
                            });
                        }
                    }
                }
                let cut = label.iter().position(|e| e.dist == d - 1);
                let cut = cut.unwrap_or(label.len());
                let (pruned, probes) = query_prunes(&label[..cut], &dist, d);
                assert_eq!(pruned, full_min_prunes(&label, &dist, d), "d={d}");
                assert!(probes as usize <= cut);
                let (full, full_probes) = query_prunes(&label, &dist, d);
                assert_eq!(full, pruned, "d={d}");
                assert!(full_probes as usize <= label.len());
                decided[pruned as usize] += 1;
            }
        }
        // Both outcomes must be exercised for the comparison to mean anything.
        assert!(decided[0] > 100 && decided[1] > 100, "{decided:?}");
    }

    #[test]
    fn query_prunes_stops_at_first_witness() {
        let mut dist = DistScratch::new(4);
        dist.clear();
        dist.set(0, 1);
        dist.set(1, 1);
        let e = |hub, dist| LabelEntry {
            hub,
            dist,
            count: 1,
        };
        let label = [e(2, 0), e(0, 1), e(1, 0)];
        assert_eq!(query_prunes(&label, &dist, 3), (true, 2));
        assert_eq!(query_prunes(&label, &dist, 2), (true, 3));
        assert_eq!(query_prunes(&label, &dist, 1), (false, 3));
    }

    #[test]
    fn pool_reuses_workspaces() {
        let pool = WorkspacePool::new(8);
        pool.with(|w| {
            w.cand.clear();
            w.cand.add(3, 1);
        });
        pool.with(|w| {
            // Stale state must be cleared by the user before use; the pool
            // only guarantees capacity.
            w.cand.clear();
            assert!(w.cand.is_empty());
        });
    }
}
