//! Pull-based label propagation (paper Algorithm 2 / Definition 10) and the
//! candidate filter shared with the push paradigm.
//!
//! In iteration `d`, vertex `u` *pulls* the level-`d-1` label entries of its
//! neighbors, merges duplicates (Label Merging), drops hubs ranked below `u`
//! (Lemma 3), drops hubs already present in `L(u)` (Label Elimination), and
//! drops candidates refuted by the 2-hop pruning query over the frozen
//! snapshot `L_{≤d-1}` (Lemma 4) — answered in O(1) when the hub is a
//! landmark. Survivors become `L_d(u)`.
//!
//! The pruning query stops at its first witness and scans only the levels
//! `≤ d-2` of the candidate hub's label: a level-`d-1` entry can never be a
//! witness (see [`filter_candidates`]).
//!
//! Everything reads the frozen snapshot and writes a private output buffer,
//! so iterations are data-race-free and the result is bit-identical for any
//! thread count — the paper's determinism observation (Exp 2).

use super::PropagationCtx;
use crate::label::{Count, LabelEntry};
use crate::scratch::{query_prunes, Workspace};

/// Processes vertex `u` for iteration `ctx.d`: fills `out` with the new
/// level-`d` entries (sorted by hub) and returns the work units expended
/// (candidate entries scanned plus probes made until each prune decision).
pub(crate) fn process_vertex(
    ctx: &PropagationCtx<'_>,
    u: u32,
    ws: &mut Workspace,
    out: &mut Vec<LabelEntry>,
) -> u64 {
    out.clear();
    ws.cand.clear();
    let mut work = 0u64;
    for &v in ctx.rg.neighbors(u) {
        let start = ctx.prev_start[v as usize] as usize;
        let lv = &ctx.labels[v as usize][start..];
        work += lv.len() as u64;
        if lv.is_empty() {
            continue;
        }
        // Extending a trough path w..v by the edge (v, u) makes v internal,
        // so v's multiplicity applies — except at d == 1 where the level-0
        // entry is v's own self-label (v is the hub endpoint, not internal).
        let f: Count = if ctx.d == 1 {
            1
        } else {
            ctx.weights.map_or(1, |w| w[v as usize])
        };
        if f == 1 {
            for e in lv {
                if e.hub < u {
                    ws.cand.add(e.hub, e.count);
                }
            }
        } else {
            for e in lv {
                if e.hub < u {
                    ws.cand.add(e.hub, e.count.saturating_mul(f));
                }
            }
        }
    }
    if ws.cand.is_empty() {
        return work;
    }
    // Sort candidates by hub so output order is canonical.
    ws.cand.sort_touched();
    work += filter_candidates(ctx, u, ws, out);
    work
}

/// Applies Label Elimination and the pruning query to candidates
/// `(h, ws.cand.count(h))` for `h` in `ws.cand.touched()` (which must be
/// ascending), appending survivors to `out`. Returns query work units.
///
/// `ws.dist` is (re)loaded with `u`'s current label here.
///
/// The query for candidate `w` scans `L(w)` only up to `prev_start[w]`,
/// i.e. levels `≤ d-2`. Labels are appended one level at a time, so the
/// cut-off tail is exactly level `d-1`. Every hub `h` of `L(w)` ranks at
/// or above `w`, which ranks above `u`, so `h ≠ u` and `dist(h, u) ≥ 1`:
/// a level-`d-1` entry gives `d-1 + dist(h, u) ≥ d` and can never prune.
/// (At `d = 1` the tail is `w`'s own level-0 entry, which could only match
/// if `w ∈ L(u)` — and Label Elimination has already dropped those.)
pub(crate) fn filter_candidates(
    ctx: &PropagationCtx<'_>,
    u: u32,
    ws: &mut Workspace,
    out: &mut Vec<LabelEntry>,
) -> u64 {
    let mut work = 0u64;
    let Workspace { dist, cand } = ws;
    debug_assert!(cand.touched().windows(2).all(|p| p[0] < p[1]));
    dist.clear();
    for e in &ctx.labels[u as usize] {
        dist.set(e.hub, e.dist);
    }
    let d = ctx.d;
    for &w in cand.touched() {
        // Label Elimination: an entry for w at a smaller distance already
        // exists on u (levels < d), so the candidate is dominated.
        if dist.contains(w) {
            continue;
        }
        let pruned = match (ctx.landmark_bits, ctx.landmarks) {
            (Some(bits), _) if bits.covers(w) => {
                work += 1;
                bits.prunes(w, u)
            }
            (_, Some(lm)) if lm.covers(w) => {
                work += 1;
                lm.prunes(w, u, d)
            }
            (_, _) => {
                // Query(w, u, L_{≤ d-1}): probe u's loaded label with the
                // levels ≤ d-2 of w's label until the first witness.
                let (older, last) =
                    ctx.labels[w as usize].split_at(ctx.prev_start[w as usize] as usize);
                debug_assert!(last.iter().all(|e| e.dist == d - 1));
                let (pruned, probes) = query_prunes(older, dist, d);
                work += probes;
                pruned
            }
        };
        if !pruned {
            out.push(LabelEntry {
                hub: w,
                dist: d,
                count: cand.count(w),
            });
        }
    }
    work
}
