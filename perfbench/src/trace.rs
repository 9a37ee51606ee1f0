//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, and the self-time arithmetic over them.
//!
//! Each thread owns a [`Tracer`]; a disabled tracer records nothing, so
//! the untraced run executes the same code minus the clock reads and the
//! pushes. Spans are merged and written out once the workload is done.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans a tracer may number automatically.
const IDS_PER_TRACER: u64 = 1 << 40;

/// Next tracer's first automatic id: every tracer of a process numbers
/// its spans in a range of its own.
static NEXT_ID_BASE: AtomicU64 = AtomicU64::new(0);

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique across every tracer of one run.
    pub id: u64,
    /// The span whose work caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name of the call (`kind.rank_pairs`, ...).
    pub name: &'static str,
    /// Request (or build) this span belongs to; shared by its subtree.
    pub req: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; `>= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    active: bool,
    next_id: u64,
    spans: Vec<Span>,
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer whose automatic span ids no other tracer of the process
    /// uses.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            active: enabled,
            // Relaxed: the counter publishes nothing but its own value.
            next_id: NEXT_ID_BASE.fetch_add(IDS_PER_TRACER, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    /// Records the next spans only if `sampled` (and tracing is on): a
    /// loop calls this once per request to trace a sample of requests.
    pub fn sample(&mut self, sampled: bool) {
        self.active = self.enabled && sampled;
    }

    /// Nanoseconds from the run's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        if !self.active {
            return Open(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Id of an open span, to parent children on; `None` when off.
    pub fn id(&self, open: Open) -> Option<u64> {
        open.0.map(|i| self.spans[i].id)
    }

    /// Closes a span now.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.ns(Instant::now()).max(self.spans[i].start_ns);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, req);
        let r = f();
        self.end(open);
        r
    }

    /// Records a span whose bounds were taken elsewhere (for example a
    /// request timed from its due time, or a child recorded on another
    /// thread with an id both sides derive from the request).
    pub fn record(&mut self, span: Span) {
        if self.active {
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover (overlapping
/// children count once; child time outside the parent counts not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals of every span on one path of the span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathTotals {
    /// Spans on this path.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Aggregates spans by their name path from the root
/// (`request/kind.rank_pairs`), the span tree the traced run reports.
pub fn tree(spans: &[Span]) -> BTreeMap<String, PathTotals> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, PathTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let mut names = vec![s.name];
        let mut at = s.parent;
        while let Some(p) = at.and_then(|id| by_id.get(&id)) {
            names.push(p.name);
            at = p.parent;
        }
        names.reverse();
        let t = out.entry(names.join("/")).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Summed self time and count of every span called `name`.
pub fn self_total(spans: &[Span], selfs: &[u64], name: &str) -> (u64, u64) {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(ns, n), (_, &t)| (ns + t, n + 1))
}

/// Writes spans as JSON lines.
pub fn write_jsonl(mut w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, None, "request", 0, 100),
            // Two overlapping children cover 10..40 (30 ns), a third
            // 50..60, and one sticking out past the parent covers 90..100.
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 40),
            span(4, Some(1), "c", 50, 60),
            span(5, Some(1), "d", 90, 130),
            // A grandchild only reduces its own parent's self time.
            span(6, Some(2), "e", 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 20, 10, 40, 6]);
        let t = tree(&spans);
        assert_eq!(t["request"].self_ns, 50);
        assert_eq!(t["request/a/e"].total_ns, 6);
        assert_eq!(self_total(&spans, &self_times(&spans), "c"), (10, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        let v = off.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(off.into_spans().is_empty());
        let mut on = Tracer::new(epoch, true);
        let root = on.begin("root", None, 3);
        let parent = on.id(root);
        on.span("child", parent, 3, || ());
        on.end(root);
        on.sample(false);
        on.span("skipped", None, 4, || ());
        on.sample(true);
        on.span("sampled", None, 5, || ());
        let spans = on.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "sampled");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
