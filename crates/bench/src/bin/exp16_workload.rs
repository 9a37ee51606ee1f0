//! Extension experiment: workload intelligence — HyperLogLog accuracy
//! on a Zipf pair stream, daemon throughput with the workload sketch
//! off vs on, and a client trace-ID round-trip over the binary protocol. Emits `[exp16-json]` lines for
//! BENCH_*.json trajectories.

use pspc_bench::experiments::exp16_workload;
use pspc_bench::ExpOptions;

fn main() {
    exp16_workload(&ExpOptions::from_args());
}
