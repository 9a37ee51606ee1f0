//! Sustained-throughput measurement for the `pspc bench` subcommand and
//! the service scaling experiment in `pspc_bench`.
//!
//! Throughput (queries/sec) is measured with the untimed engine path —
//! per-query clock reads would distort it — while latency percentiles
//! come from a second, individually timed pass over the same workload.

use crate::engine::QueryEngine;
use pspc_graph::VertexId;
use std::fmt;

/// Results of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall seconds for the untimed throughput pass.
    pub wall_secs: f64,
    /// Sustained throughput of the engine (queries/second).
    pub qps: f64,
    /// Median per-query latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile per-query latency (microseconds).
    pub p99_us: f64,
    /// Worst per-query latency (microseconds).
    pub max_us: f64,
    /// Queries with a finite distance.
    pub reachable: usize,
    /// Wall seconds of `query_batch_sequential` on the same batch, when a
    /// baseline comparison was requested.
    pub sequential_secs: Option<f64>,
}

impl BenchReport {
    /// Engine speedup over the sequential baseline, if one was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_secs.map(|s| s / self.wall_secs)
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} queries, {} workers: {:.3}s wall, {:.0} queries/sec",
            self.queries, self.workers, self.wall_secs, self.qps
        )?;
        writeln!(
            f,
            "latency p50 {:.2} us, p99 {:.2} us, max {:.2} us; {} reachable",
            self.p50_us, self.p99_us, self.max_us, self.reachable
        )?;
        if let (Some(seq), Some(speedup)) = (self.sequential_secs, self.speedup()) {
            writeln!(
                f,
                "sequential baseline {seq:.3}s — engine speedup {speedup:.2}x"
            )?;
        }
        Ok(())
    }
}

/// Value at quantile `q` (0..=1) of an unsorted latency sample, in the
/// nearest-rank convention. Returns 0 on an empty sample. Callers that
/// need several quantiles of one sample should sort once and use
/// [`percentile_sorted_nanos`] instead of paying a sort per quantile.
pub fn percentile_nanos(latencies: &mut [u64], q: f64) -> u64 {
    latencies.sort_unstable();
    percentile_sorted_nanos(latencies, q)
}

/// [`percentile_nanos`] over an **already sorted** sample: the cheap path
/// for deriving multiple quantiles from one sort.
pub fn percentile_sorted_nanos(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the full benchmark: a warmup pass, an untimed throughput pass, a
/// timed latency pass, and optionally the sequential baseline.
pub fn run_bench(
    engine: &QueryEngine,
    pairs: &[(VertexId, VertexId)],
    compare_sequential: bool,
) -> BenchReport {
    // Warmup: fault in the index and let the OS settle thread placement.
    let warm = &pairs[..pairs.len().min(1000)];
    let _ = engine.run(warm);

    let (answers, report) = engine.run_with_report(pairs);
    let (_, _, mut lat) = engine.run_with_latencies(pairs);
    let p50 = percentile_nanos(&mut lat, 0.50) as f64 / 1e3;
    let p99 = percentile_nanos(&mut lat, 0.99) as f64 / 1e3;
    let max = lat.last().copied().unwrap_or(0) as f64 / 1e3;

    let sequential_secs = compare_sequential.then(|| {
        let t0 = std::time::Instant::now();
        let seq = engine.kind().query_batch_sequential(pairs);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(seq, answers, "engine and sequential answers diverge");
        secs
    });

    BenchReport {
        queries: report.queries,
        workers: report.workers,
        wall_secs: report.wall_secs,
        qps: report.qps(),
        p50_us: p50,
        p99_us: p99,
        max_us: max,
        reachable: report.reachable,
        sequential_secs,
    }
}

/// Deterministic xorshift query workload over `n` vertices (no `rand`
/// dependency for the CLI).
pub fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(n > 0, "empty index");
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as VertexId
    };
    (0..count).map(|_| (next(), next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, QueryEngine};
    use pspc_core::{build_pspc, PspcConfig};
    use pspc_graph::generators::barabasi_albert;

    #[test]
    fn percentiles_nearest_rank() {
        let mut v = vec![50, 10, 20, 30, 40];
        assert_eq!(percentile_nanos(&mut v, 0.50), 30);
        assert_eq!(percentile_nanos(&mut v, 0.99), 50);
        assert_eq!(percentile_nanos(&mut v, 0.0), 10);
        assert_eq!(percentile_nanos(&mut [], 0.5), 0);
        // The sorted-input path agrees with the sorting path.
        let sorted = [10, 20, 30, 40, 50];
        for q in [0.0, 0.25, 0.50, 0.99, 1.0] {
            assert_eq!(
                percentile_sorted_nanos(&sorted, q),
                percentile_nanos(&mut sorted.to_vec(), q)
            );
        }
        assert_eq!(percentile_sorted_nanos(&[], 0.5), 0);
    }

    #[test]
    fn bench_report_is_consistent() {
        let g = barabasi_albert(200, 3, 21);
        let (index, _) = build_pspc(&g, &PspcConfig::default());
        let engine = QueryEngine::with_config(
            index,
            EngineConfig {
                workers: 2,
                chunk_size: 256,
                sort_by_rank: true,
                ..EngineConfig::default()
            },
        );
        let pairs = random_pairs(200, 5000, 42);
        let r = run_bench(&engine, &pairs, true);
        assert_eq!(r.queries, 5000);
        assert!(r.qps > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
        assert!(r.sequential_secs.is_some());
        assert!(r.speedup().unwrap() > 0.0);
        let text = r.to_string();
        assert!(text.contains("queries/sec"));
        assert!(text.contains("speedup"));
    }
}
