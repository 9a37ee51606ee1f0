//! Workspace-wide observability primitives for the PSPC serving stack:
//! **log-bucketed latency histograms**, **per-request tracing**,
//! **streaming workload sketches** and a **structured leveled logger** —
//! all dependency-free (in-tree shims only) and lock-free on the hot
//! paths.
//!
//! # Pieces
//!
//! * [`hist`] — [`LogHistogram`]: a fixed-size HDR-style histogram
//!   (~2 significant digits) whose `record` is three `Relaxed` atomic
//!   adds and whose scrape is atomic loads, so metric exposition can
//!   never stall request recording. Snapshots derive p50/p90/p99/p999
//!   from cumulative bucket counts, subtract
//!   ([`HistogramSnapshot::delta`]) to yield per-interval quantiles, and
//!   render directly into Prometheus `_bucket`/`_sum`/`_count` series.
//! * [`trace`] — [`Span`]/[`StageTimer`] carry a per-request trace ID
//!   through the daemon's pipeline, attributing time to [`Stage`]s
//!   (parse, cache probe, prepare, queue wait, execute, merge, write).
//!   IDs are minted locally or **propagated from the client**
//!   ([`Span::with_id`] / [`Span::set_id`] — the `x-pspc-trace-id`
//!   header and the binary `PSQ2` frame), so every hop of a request
//!   shares one trace. Completed [`RequestTrace`]s land in a bounded
//!   [`TraceRing`] (`GET /debug/trace`) and a top-K [`SlowLog`]
//!   (`GET /debug/slow`).
//! * [`sketch`] — streaming workload analytics in constant memory:
//!   [`HyperLogLog`]/[`AtomicHyperLogLog`] distinct-pair estimation
//!   (14-bit HyperLogLog++, sparse→dense, mergeable, ~1% error),
//!   [`SpaceSaving`] top-K heavy hitters with guaranteed `≤ N/k` count
//!   error, and the [`WorkloadSketch`] aggregate the query engine feeds
//!   per batch (`GET /debug/hotspots`).
//! * [`log`] — `PSPC_LOG`-leveled `key=value` records on stderr via the
//!   [`error!`], [`warn!`], [`info!`] and [`debug!`] macros
//!   (`PSPC_LOG=off` silences everything).
//!
//! # Quick start
//!
//! ```
//! use pspc_obs::{LogHistogram, Span, Stage, WorkloadSketch};
//!
//! let hist = LogHistogram::new();
//! let mut span = Span::new();
//! let sum: u64 = span.time(Stage::Execute, || (0..100u64).sum());
//! assert_eq!(sum, 4950);
//! hist.record(span.stage_ns()[Stage::Execute as usize]);
//! let trace = span.finish("query", "ok", 100);
//! assert!(trace.total_ns >= trace.stage_ns[Stage::Execute as usize]);
//! assert_eq!(hist.snapshot().count(), 1);
//!
//! let workload = WorkloadSketch::new(16);
//! workload.record_batch(&[(0, 42), (0, 42), (7, 9)]);
//! assert_eq!(workload.total_pairs(), 3);
//! assert_eq!(workload.hot_pairs(1)[0].key, (0, 42));
//! pspc_obs::info!("batch done", trace = trace.id, items = trace.items);
//! ```

pub mod hist;
pub mod log;
pub mod sketch;
pub mod trace;

pub use hist::{bucket_bounds, bucket_index, HistogramSnapshot, LogHistogram, NUM_BUCKETS};
pub use log::{set_level, set_off, Level};
pub use sketch::{
    pair_fingerprint, AtomicHyperLogLog, HeavyHitter, HyperLogLog, SpaceSaving, WorkloadSketch,
    DEFAULT_HEAVY_HITTERS, HLL_PRECISION, HLL_REGISTERS,
};
pub use trace::{next_trace_id, RequestTrace, SlowLog, Span, Stage, StageTimer, TraceRing};
