//! Live daemon metrics: lock-free counters plus log-bucketed latency
//! histograms, rendered as Prometheus text exposition.
//!
//! Counters are atomics bumped on every request; request, insert and
//! per-stage latencies go into [`pspc_obs::LogHistogram`]s, whose
//! `record` is three `Relaxed` atomic adds and whose scrape is atomic
//! loads — a `GET /metrics` scrape can therefore *never* block request
//! recording (there is no lock anywhere in this module), and the
//! histograms cover every request since startup. They are the only
//! latency representation: every quantile is read from their `_bucket`
//! series (or [`HistogramSnapshot::quantile`]), never from precomputed
//! gauges. [`MetricsSnapshot::render`] emits full Prometheus exposition:
//! `# HELP`/`# TYPE` lines for every family, `_bucket`/`_sum`/`_count`
//! series for the histograms (seconds, as Prometheus convention wants),
//! per-worker busy-time/chunks gauges, and the scalar gauges.

use pspc_obs::{HistogramSnapshot, LogHistogram, Stage};
use pspc_service::{CacheStats, WorkerStat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared live counters and histograms of one daemon. Everything here is
/// lock-free: recording paths are `Relaxed` atomic adds, scrapes are
/// atomic loads.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    served: AtomicU64,
    queries: AtomicU64,
    rejected: AtomicU64,
    client_errors: AtomicU64,
    in_flight: AtomicU64,
    /// Milliseconds spent loading the served snapshot (f64 bit pattern;
    /// 0 until the loader records it).
    index_load_ms: AtomicU64,
    /// Label bytes of the served index.
    label_bytes: AtomicU64,
    /// Served index kind code (0 undirected, 1 directed, 2 dynamic,
    /// 3 sharded).
    index_kind: AtomicU64,
    /// Whether the served index is memory-mapped (0 copied, 1 mapped).
    index_mmap: AtomicU64,
    /// Accepted insert requests.
    insert_requests: AtomicU64,
    /// Edges actually applied by inserts (duplicates excluded).
    inserts: AtomicU64,
    /// Well-formed inserts refused because the index is not dynamic
    /// (HTTP 409) — deliberately *not* counted as client errors.
    insert_conflicts: AtomicU64,
    /// End-to-end query-request service latency.
    request_latency: LogHistogram,
    /// Insert service latencies, kept apart from query latencies so a
    /// slow labeling repair does not pollute query percentiles.
    insert_latency: LogHistogram,
    /// Per-stage attributed latency, indexed by `Stage as usize` (fed by
    /// completed request traces).
    stage_latency: [LogHistogram; Stage::COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            start: Instant::now(),
            served: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            index_load_ms: AtomicU64::new(0f64.to_bits()),
            label_bytes: AtomicU64::new(0),
            index_kind: AtomicU64::new(0),
            index_mmap: AtomicU64::new(0),
            insert_requests: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            insert_conflicts: AtomicU64::new(0),
            request_latency: LogHistogram::new(),
            insert_latency: LogHistogram::new(),
            stage_latency: std::array::from_fn(|_| LogHistogram::new()),
        }
    }
}

/// RAII in-flight marker: increments on creation, decrements on drop, so
/// every early-return path of a handler stays balanced.
pub struct InFlight<'a>(&'a Metrics);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Metrics {
    /// Fresh metrics with the uptime clock starting now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a query request in flight for the guard's lifetime.
    pub fn enter(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlight(self)
    }

    /// Records a successfully answered batch and its service latency.
    pub fn record_served(&self, queries: usize, latency_ns: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.request_latency.record(latency_ns);
    }

    /// Records an admission-control rejection.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a malformed request.
    pub fn record_client_error(&self) {
        self.client_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed trace's per-stage attribution into the
    /// stage-labeled histograms. Every stage is recorded (zeros
    /// included) so the per-stage sample counts line up.
    pub fn record_stages(&self, stage_ns: &[u64; Stage::COUNT]) {
        for (h, &ns) in self.stage_latency.iter().zip(stage_ns) {
            h.record(ns);
        }
    }

    /// Records how long the served snapshot took to load (gauge; the
    /// daemon sets `label_bytes` itself at startup, the CLI records the
    /// wall-clock load it measured before handing the index over).
    pub fn set_index_load_ms(&self, ms: f64) {
        self.index_load_ms.store(ms.to_bits(), Ordering::Relaxed);
    }

    /// Records the label payload size of the served index (gauge).
    pub fn set_label_bytes(&self, bytes: u64) {
        self.label_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records the served index kind (gauge; the
    /// [`pspc_service::IndexKind::code`] convention).
    pub fn set_index_kind(&self, code: u8) {
        self.index_kind.store(code as u64, Ordering::Relaxed);
    }

    /// Records whether the served index is backed by a memory mapping
    /// (gauge; set once at startup from the `--mmap` load outcome, so it
    /// reads 0 after a fallback to the copying loader).
    pub fn set_index_mmap(&self, mapped: bool) {
        self.index_mmap.store(mapped as u64, Ordering::Relaxed);
    }

    /// Records one accepted insert request, how many edges it actually
    /// added, and its service latency.
    pub fn record_insert(&self, applied: u64, latency_ns: u64) {
        self.insert_requests.fetch_add(1, Ordering::Relaxed);
        self.inserts.fetch_add(applied, Ordering::Relaxed);
        self.insert_latency.record(latency_ns);
    }

    /// Records a well-formed insert refused because the served index is
    /// not dynamic (the daemon's 409). Kept apart from
    /// [`Metrics::record_client_error`]: the request was not malformed.
    pub fn record_insert_conflict(&self) {
        self.insert_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter and histogram (gauges are
    /// racy by nature; histogram snapshots are atomic loads and never
    /// block recorders). Engine-side gauges come in through `engine` —
    /// the metrics store holds only what the handlers record.
    pub fn snapshot(&self, engine: EngineGauges) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_secs: self.start.elapsed().as_secs_f64(),
            served: self.served.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queued_chunks: engine.queued_chunks,
            index_load_ms: f64::from_bits(self.index_load_ms.load(Ordering::Relaxed)),
            label_bytes: self.label_bytes.load(Ordering::Relaxed),
            index_kind: self.index_kind.load(Ordering::Relaxed),
            index_mmap: self.index_mmap.load(Ordering::Relaxed),
            index_generation: engine.index_generation,
            resident_shards: engine.resident_shards,
            insert_requests: self.insert_requests.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            insert_conflicts: self.insert_conflicts.load(Ordering::Relaxed),
            request_hist: self.request_latency.snapshot(),
            insert_hist: self.insert_latency.snapshot(),
            stage_hists: self
                .stage_latency
                .iter()
                .map(LogHistogram::snapshot)
                .collect(),
            workers: engine.workers,
            cache: engine.cache,
            workload: engine.workload,
        }
    }
}

/// Live engine-side gauges sampled at scrape time and merged into a
/// [`MetricsSnapshot`] (the engine owns these; the metrics store only
/// holds handler-recorded counters).
#[derive(Clone, Debug, Default)]
pub struct EngineGauges {
    /// Work chunks waiting in the engine's submission queue.
    pub queued_chunks: u64,
    /// The served index's generation counter (0 for static kinds).
    pub index_generation: u64,
    /// Currently mapped shards of a sharded index; `None` when the
    /// served index is not sharded (the gauge line is then omitted).
    pub resident_shards: Option<u64>,
    /// Per-worker busy-time/chunk counters, index-aligned with worker
    /// ids.
    pub workers: Vec<WorkerStat>,
    /// Result-cache counters, when the cache is enabled.
    pub cache: Option<CacheStats>,
    /// Workload-sketch gauges, when the sketch is enabled.
    pub workload: Option<WorkloadGauges>,
}

/// Workload-intelligence gauges sampled from the engine's streaming
/// sketches at scrape time.
#[derive(Clone, Debug, Default)]
pub struct WorkloadGauges {
    /// Pairs recorded by the workload sketch since startup.
    pub total_pairs: u64,
    /// HyperLogLog++ distinct-pair estimate.
    pub distinct_pairs: f64,
    /// Guaranteed traffic share of the hottest `(s, t)` pair (`0..=1`).
    pub hot_pair_share: f64,
}

/// One scrape of the daemon's counters and histograms.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Seconds since the daemon started.
    pub uptime_secs: f64,
    /// Query requests answered.
    pub served: u64,
    /// Individual queries answered.
    pub queries: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Malformed requests.
    pub client_errors: u64,
    /// Requests currently executing.
    pub in_flight: u64,
    /// Work chunks waiting in the engine's submission queue.
    pub queued_chunks: u64,
    /// Milliseconds the served snapshot took to load (0 if unrecorded).
    pub index_load_ms: f64,
    /// Label payload bytes of the served index.
    pub label_bytes: u64,
    /// Served index kind code (0 undirected, 1 directed, 2 dynamic,
    /// 3 sharded).
    pub index_kind: u64,
    /// Whether the served index is memory-mapped (0 copied, 1 mapped).
    pub index_mmap: u64,
    /// The served index's generation counter (0 for static kinds;
    /// advanced by applied inserts).
    pub index_generation: u64,
    /// Currently mapped shards; `None` unless the served index is
    /// sharded.
    pub resident_shards: Option<u64>,
    /// Accepted insert requests.
    pub insert_requests: u64,
    /// Edges actually applied by inserts.
    pub inserts: u64,
    /// Well-formed inserts refused with 409 (index not dynamic).
    pub insert_conflicts: u64,
    /// The full request-latency histogram since startup; every request
    /// quantile derives from it ([`HistogramSnapshot::quantile`]).
    pub request_hist: HistogramSnapshot,
    /// The full insert-latency histogram.
    pub insert_hist: HistogramSnapshot,
    /// Per-stage latency histograms, indexed by `Stage as usize`.
    pub stage_hists: Vec<HistogramSnapshot>,
    /// Per-worker busy-time/chunk counters.
    pub workers: Vec<WorkerStat>,
    /// Result-cache counters; `None` when the cache is disabled (the
    /// `pspc_cache_*` lines are then omitted from the exposition).
    pub cache: Option<CacheStats>,
    /// Workload-sketch gauges; `None` when the sketch is disabled (the
    /// `pspc_workload_*`, `pspc_distinct_*` and `pspc_hot_*` lines are
    /// then omitted).
    pub workload: Option<WorkloadGauges>,
}

/// Appends `# HELP`/`# TYPE` header lines for one metric family.
fn family(text: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write;
    let _ = writeln!(text, "# HELP {name} {help}");
    let _ = writeln!(text, "# TYPE {name} {kind}");
}

/// Appends one `name value` (or `name{label} value`) sample line.
fn sample(text: &mut String, name: &str, labels: &str, value: impl std::fmt::Display) {
    use std::fmt::Write;
    let _ = writeln!(text, "{name}{labels} {value}");
}

/// Appends a full histogram family: HELP/TYPE, cumulative
/// `_bucket{le="..."}` series over the non-empty buckets plus `+Inf`,
/// `_sum` and `_count`. Bucket bounds and the sum are converted from
/// nanoseconds to seconds (the Prometheus base unit).
fn histogram(text: &mut String, name: &str, help: &str, extra: &str, h: &HistogramSnapshot) {
    use std::fmt::Write;
    family(text, name, "histogram", help);
    let sep = if extra.is_empty() { "" } else { "," };
    for (le_ns, cum) in h.cumulative_nonzero() {
        let _ = writeln!(
            text,
            "{name}_bucket{{{extra}{sep}le=\"{}\"}} {cum}",
            le_ns as f64 / 1e9
        );
    }
    let _ = writeln!(
        text,
        "{name}_bucket{{{extra}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let labels = if extra.is_empty() {
        String::new()
    } else {
        format!("{{{extra}}}")
    };
    let _ = writeln!(text, "{name}_sum{labels} {}", h.sum() as f64 / 1e9);
    let _ = writeln!(text, "{name}_count{labels} {}", h.count());
}

impl MetricsSnapshot {
    /// Prometheus text exposition (`GET /metrics`): `# HELP`/`# TYPE`
    /// for every family, histogram `_bucket`/`_sum`/`_count` series for
    /// request, insert and per-stage latencies, per-worker gauges, and
    /// the scalar counters/gauges. The `pspc_cache_*` family appears
    /// only when the result cache is enabled; `pspc_index_generation` is
    /// always present (constant 0 for static kinds).
    pub fn render(&self) -> String {
        let mut t = String::with_capacity(8192);
        family(
            &mut t,
            "pspc_uptime_seconds",
            "gauge",
            "Seconds since the daemon started.",
        );
        sample(
            &mut t,
            "pspc_uptime_seconds",
            "",
            format_args!("{:.3}", self.uptime_secs),
        );
        family(
            &mut t,
            "pspc_requests_served_total",
            "counter",
            "Query requests answered.",
        );
        sample(&mut t, "pspc_requests_served_total", "", self.served);
        family(
            &mut t,
            "pspc_queries_answered_total",
            "counter",
            "Individual queries answered.",
        );
        sample(&mut t, "pspc_queries_answered_total", "", self.queries);
        family(
            &mut t,
            "pspc_requests_rejected_total",
            "counter",
            "Requests shed by admission control.",
        );
        sample(&mut t, "pspc_requests_rejected_total", "", self.rejected);
        family(
            &mut t,
            "pspc_requests_bad_total",
            "counter",
            "Malformed requests.",
        );
        sample(&mut t, "pspc_requests_bad_total", "", self.client_errors);
        family(
            &mut t,
            "pspc_requests_in_flight",
            "gauge",
            "Requests currently executing.",
        );
        sample(&mut t, "pspc_requests_in_flight", "", self.in_flight);
        family(
            &mut t,
            "pspc_queue_chunks",
            "gauge",
            "Work chunks waiting in the engine submission queue.",
        );
        sample(&mut t, "pspc_queue_chunks", "", self.queued_chunks);
        family(
            &mut t,
            "pspc_index_load_ms",
            "gauge",
            "Milliseconds the served snapshot took to load.",
        );
        sample(
            &mut t,
            "pspc_index_load_ms",
            "",
            format_args!("{:.2}", self.index_load_ms),
        );
        family(
            &mut t,
            "pspc_index_label_bytes",
            "gauge",
            "Label payload bytes of the served index.",
        );
        sample(&mut t, "pspc_index_label_bytes", "", self.label_bytes);
        family(
            &mut t,
            "pspc_index_kind",
            "gauge",
            "Served index kind (0 undirected, 1 directed, 2 dynamic, 3 sharded).",
        );
        sample(&mut t, "pspc_index_kind", "", self.index_kind);
        family(
            &mut t,
            "pspc_index_mmap",
            "gauge",
            "Whether the served index is memory-mapped (0 copied, 1 mapped).",
        );
        sample(&mut t, "pspc_index_mmap", "", self.index_mmap);
        if let Some(resident) = self.resident_shards {
            family(
                &mut t,
                "pspc_index_resident_shards",
                "gauge",
                "Currently mapped shards of the served sharded index.",
            );
            sample(&mut t, "pspc_index_resident_shards", "", resident);
        }
        family(
            &mut t,
            "pspc_index_generation",
            "gauge",
            "Index generation counter, advanced by applied inserts.",
        );
        sample(&mut t, "pspc_index_generation", "", self.index_generation);
        family(
            &mut t,
            "pspc_insert_requests_total",
            "counter",
            "Accepted insert requests.",
        );
        sample(
            &mut t,
            "pspc_insert_requests_total",
            "",
            self.insert_requests,
        );
        family(
            &mut t,
            "pspc_inserts_total",
            "counter",
            "Edges actually applied by inserts.",
        );
        sample(&mut t, "pspc_inserts_total", "", self.inserts);
        family(
            &mut t,
            "pspc_insert_conflicts_total",
            "counter",
            "Well-formed inserts refused because the index is not dynamic.",
        );
        sample(
            &mut t,
            "pspc_insert_conflicts_total",
            "",
            self.insert_conflicts,
        );
        histogram(
            &mut t,
            "pspc_request_latency_seconds",
            "End-to-end query request service latency.",
            "",
            &self.request_hist,
        );
        histogram(
            &mut t,
            "pspc_insert_latency_seconds",
            "Insert request service latency.",
            "",
            &self.insert_hist,
        );
        // One labeled family for every pipeline stage: a single
        // HELP/TYPE header, then each stage's full bucket series.
        family(
            &mut t,
            "pspc_stage_latency_seconds",
            "histogram",
            "Per-request latency attributed to one pipeline stage.",
        );
        for (stage, h) in Stage::ALL.iter().zip(&self.stage_hists) {
            use std::fmt::Write;
            let extra = format!("stage=\"{}\"", stage.name());
            for (le_ns, cum) in h.cumulative_nonzero() {
                let _ = writeln!(
                    t,
                    "pspc_stage_latency_seconds_bucket{{{extra},le=\"{}\"}} {cum}",
                    le_ns as f64 / 1e9
                );
            }
            let _ = writeln!(
                t,
                "pspc_stage_latency_seconds_bucket{{{extra},le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(
                t,
                "pspc_stage_latency_seconds_sum{{{extra}}} {}",
                h.sum() as f64 / 1e9
            );
            let _ = writeln!(
                t,
                "pspc_stage_latency_seconds_count{{{extra}}} {}",
                h.count()
            );
        }
        if !self.workers.is_empty() {
            family(
                &mut t,
                "pspc_worker_busy_seconds",
                "counter",
                "Cumulative chunk-execution time per pool worker.",
            );
            for (i, w) in self.workers.iter().enumerate() {
                sample(
                    &mut t,
                    "pspc_worker_busy_seconds",
                    &format!("{{worker=\"{i}\"}}"),
                    w.busy_ns as f64 / 1e9,
                );
            }
            family(
                &mut t,
                "pspc_worker_chunks_total",
                "counter",
                "Work chunks executed per pool worker.",
            );
            for (i, w) in self.workers.iter().enumerate() {
                sample(
                    &mut t,
                    "pspc_worker_chunks_total",
                    &format!("{{worker=\"{i}\"}}"),
                    w.chunks,
                );
            }
        }
        if let Some(c) = self.cache {
            family(
                &mut t,
                "pspc_cache_hits_total",
                "counter",
                "Result-cache hits.",
            );
            sample(&mut t, "pspc_cache_hits_total", "", c.hits);
            family(
                &mut t,
                "pspc_cache_misses_total",
                "counter",
                "Result-cache misses.",
            );
            sample(&mut t, "pspc_cache_misses_total", "", c.misses);
            family(
                &mut t,
                "pspc_cache_entries",
                "gauge",
                "Live result-cache entries.",
            );
            sample(&mut t, "pspc_cache_entries", "", c.entries);
            family(
                &mut t,
                "pspc_cache_evictions_total",
                "counter",
                "Result-cache evictions.",
            );
            sample(&mut t, "pspc_cache_evictions_total", "", c.evictions);
        }
        if let Some(w) = &self.workload {
            family(
                &mut t,
                "pspc_workload_pairs_total",
                "counter",
                "Query pairs recorded by the workload sketch.",
            );
            sample(&mut t, "pspc_workload_pairs_total", "", w.total_pairs);
            family(
                &mut t,
                "pspc_distinct_pairs_estimate",
                "gauge",
                "HyperLogLog estimate of distinct (s, t) pairs seen.",
            );
            sample(
                &mut t,
                "pspc_distinct_pairs_estimate",
                "",
                format_args!("{:.1}", w.distinct_pairs),
            );
            family(
                &mut t,
                "pspc_hot_pair_share",
                "gauge",
                "Guaranteed traffic share of the hottest (s, t) pair.",
            );
            sample(
                &mut t,
                "pspc_hot_pair_share",
                "",
                format_args!("{:.6}", w.hot_pair_share),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn gauges(queued_chunks: u64) -> EngineGauges {
        EngineGauges {
            queued_chunks,
            ..EngineGauges::default()
        }
    }

    /// The log-bucketed quantile overestimates the exact value by less
    /// than 1/32.
    fn close(us: f64, exact_us: f64) -> bool {
        us >= exact_us && us <= exact_us * (1.0 + 1.0 / 32.0)
    }

    #[test]
    fn counters_and_render() {
        let m = Metrics::new();
        {
            let _g = m.enter();
            assert_eq!(m.snapshot(gauges(0)).in_flight, 1);
            m.record_served(100, 5_000);
        }
        m.record_rejected();
        m.record_client_error();
        m.set_index_load_ms(12.5);
        m.set_label_bytes(1234);
        m.set_index_kind(2);
        m.set_index_mmap(true);
        m.record_insert(3, 8_000);
        m.record_insert(0, 2_000);
        m.record_insert_conflict();
        let s = m.snapshot(gauges(7));
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.served, 1);
        assert_eq!(s.queries, 100);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.client_errors, 1, "conflicts are not client errors");
        assert_eq!(s.queued_chunks, 7);
        assert_eq!(s.index_load_ms, 12.5);
        assert_eq!(s.label_bytes, 1234);
        assert_eq!(s.index_kind, 2);
        assert_eq!(s.index_generation, 0);
        assert_eq!(s.insert_requests, 2);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.insert_conflicts, 1);
        assert_eq!(s.request_hist.count(), 1);
        // Quantiles are log-bucketed: within the documented 1/32 bound
        // of the exact samples (2 µs, 8 µs, 5 µs).
        let us = |h: &HistogramSnapshot, q: f64| h.quantile(q) as f64 / 1e3;
        assert!(close(us(&s.insert_hist, 0.50), 2.0));
        assert!(close(us(&s.insert_hist, 0.99), 8.0));
        assert!(close(us(&s.request_hist, 0.50), 5.0));
        let text = s.render();
        assert!(text.contains("pspc_requests_served_total 1\n"));
        assert!(text.contains("pspc_index_load_ms 12.50\n"));
        assert!(text.contains("pspc_index_label_bytes 1234\n"));
        assert!(text.contains("pspc_index_kind 2\n"));
        assert!(text.contains("pspc_index_mmap 1\n"));
        assert!(
            !text.contains("pspc_index_resident_shards"),
            "residency gauge is sharded-only"
        );
        assert!(text.contains("pspc_index_generation 0\n"));
        assert!(text.contains("pspc_insert_requests_total 2\n"));
        assert!(text.contains("pspc_inserts_total 3\n"));
        assert!(text.contains("pspc_insert_conflicts_total 1\n"));
        assert!(text.contains("# TYPE pspc_request_latency_seconds histogram"));
        assert!(text.contains("pspc_request_latency_seconds_count 1\n"));
        assert!(text.contains("pspc_insert_latency_seconds_count 2\n"));
        assert!(
            text.contains("pspc_request_latency_seconds_bucket{le=\"+Inf\"} 1"),
            "+Inf bucket must close the series"
        );
        assert!(
            !text.contains("pspc_cache_"),
            "cache lines must be omitted when the cache is disabled"
        );
        assert!(
            !text.contains("pspc_worker_"),
            "worker lines need engine gauges"
        );
    }

    #[test]
    fn every_family_has_help_and_type() {
        let m = Metrics::new();
        m.record_served(1, 1_000);
        m.record_insert(1, 2_000);
        m.record_stages(&[10, 0, 20, 30, 500, 40, 50]);
        let s = m.snapshot(EngineGauges {
            queued_chunks: 0,
            index_generation: 0,
            resident_shards: Some(2),
            workers: vec![
                WorkerStat {
                    busy_ns: 1_000_000,
                    chunks: 3,
                },
                WorkerStat {
                    busy_ns: 500_000,
                    chunks: 1,
                },
            ],
            cache: Some(CacheStats {
                hits: 1,
                misses: 2,
                entries: 3,
                evictions: 0,
            }),
            workload: Some(WorkloadGauges {
                total_pairs: 100,
                distinct_pairs: 42.5,
                hot_pair_share: 0.25,
            }),
        });
        let text = s.render();
        // Prometheus grammar: every sample's family must have been
        // declared with a TYPE line before the sample appears.
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split_whitespace().next().unwrap().to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let name = line
                .split(['{', ' '])
                .next()
                .expect("sample line has a name");
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|b| typed.contains(*b))
                .unwrap_or(name);
            assert!(typed.contains(base), "sample {name} lacks a TYPE header");
            // And every sample line parses as `name[{labels}] value`.
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
        }
        // Stage histograms: one labeled series per stage.
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!(
                    "pspc_stage_latency_seconds_count{{stage=\"{}\"}} 1",
                    stage.name()
                )),
                "missing stage series for {}",
                stage.name()
            );
        }
        assert!(text.contains("pspc_worker_chunks_total{worker=\"0\"} 3"));
        assert!(text.contains("pspc_worker_chunks_total{worker=\"1\"} 1"));
        assert!(text.contains("pspc_worker_busy_seconds{worker=\"0\"} 0.001"));
        assert!(text.contains("pspc_index_resident_shards 2\n"));
    }

    #[test]
    fn cache_gauges_render_when_enabled() {
        let m = Metrics::new();
        let s = m.snapshot(EngineGauges {
            queued_chunks: 0,
            index_generation: 5,
            resident_shards: None,
            workers: Vec::new(),
            cache: Some(CacheStats {
                hits: 10,
                misses: 4,
                entries: 3,
                evictions: 1,
            }),
            workload: None,
        });
        assert_eq!(s.index_generation, 5);
        let text = s.render();
        assert!(text.contains("pspc_index_generation 5\n"));
        assert!(text.contains("pspc_cache_hits_total 10\n"));
        assert!(text.contains("pspc_cache_misses_total 4\n"));
        assert!(text.contains("pspc_cache_entries 3\n"));
        assert!(text.contains("pspc_cache_evictions_total 1\n"));
    }

    #[test]
    fn workload_gauges_render_when_enabled() {
        let m = Metrics::new();
        let g = EngineGauges {
            workload: Some(WorkloadGauges {
                total_pairs: 5000,
                distinct_pairs: 321.4,
                hot_pair_share: 0.125,
            }),
            ..EngineGauges::default()
        };
        let text = m.snapshot(g).render();
        assert!(text.contains("pspc_workload_pairs_total 5000\n"));
        assert!(text.contains("pspc_distinct_pairs_estimate 321.4\n"));
        assert!(text.contains("pspc_hot_pair_share 0.125000\n"));
        // A disabled sketch renders none of the family.
        let text = m.snapshot(EngineGauges::default()).render();
        assert!(!text.contains("pspc_workload_pairs_total"));
        assert!(!text.contains("pspc_distinct_pairs_estimate"));
    }

    #[test]
    fn rendered_buckets_recover_the_request_quantiles() {
        // Every request quantile must be recoverable from the exposition
        // alone: nearest-rank over the rendered cumulative `_bucket`
        // series equals the snapshot's own quantile, up to the f64
        // round-trip of the `le` label.
        let m = Metrics::new();
        for i in 1..=1_000u64 {
            // 1 µs .. ~3 ms, denser at the low end.
            m.record_served(1, 1_000 + i * i * 3);
        }
        let s = m.snapshot(EngineGauges::default());
        let text = s.render();
        let prefix = "pspc_request_latency_seconds_bucket{le=\"";
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .filter(|rest| !rest.starts_with("+Inf"))
            .map(|rest| {
                let (le, cum) = rest.split_once("\"} ").expect("bucket line");
                (le.parse().unwrap(), cum.parse().unwrap())
            })
            .collect();
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("pspc_request_latency_seconds_count "))
            .expect("count line")
            .parse()
            .unwrap();
        assert_eq!(count, 1_000);
        assert_eq!(buckets.last().map(|b| b.1), Some(count));
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let le_s = buckets
                .iter()
                .find(|&&(_, cum)| cum >= rank)
                .expect("rank within the buckets")
                .0;
            let from_text = (le_s * 1e9).round() as u64;
            assert_eq!(from_text, s.request_hist.quantile(q), "q={q}");
        }
    }

    #[test]
    fn scrape_never_blocks_recording() {
        // The satellite pin: a concurrent scrape storm must not stall
        // recorders (histogram snapshots are atomic loads — no lock is
        // shared between record_served and snapshot). The old
        // LatencyRing design held one Mutex for both; this test
        // deadlocks/slows only if such a lock returns.
        let m = Arc::new(Metrics::new());
        let rounds = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..2 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..rounds {
                        m.record_served(1, 1_000 + t * 997 + i % 1_000);
                        m.record_stages(&[i % 100, 0, 10, 5, 200, 30, 40]);
                    }
                });
            }
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..300 {
                    let snap = m.snapshot(EngineGauges::default());
                    // Internal consistency of a concurrent scrape: the
                    // last finite bucket closes at the sample count.
                    let h = &snap.request_hist;
                    assert_eq!(h.cumulative_nonzero().last().map_or(0, |b| b.1), h.count());
                    let _ = snap.render();
                }
            });
        });
        let snap = m.snapshot(EngineGauges::default());
        assert_eq!(snap.served, 2 * rounds);
        assert_eq!(snap.request_hist.count(), 2 * rounds);
        assert_eq!(snap.stage_hists[0].count(), 2 * rounds);
    }
}
