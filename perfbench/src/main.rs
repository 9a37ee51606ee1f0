//! The repository's benchmark: one named workload, one seed, one line
//! of JSON results.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build|batch-uniform> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) runs the measured phase untraced and again traced,
//! and prints every per-layer metric derived from the spans and the
//! program's own telemetry. The last line of standard output is the
//! result; the line before it is the run context. See `README.md` for
//! the workloads and which end-to-end metric each layer metric moves.

mod alloc;
mod gate;
mod indexing;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use gate::Gate;
use report::{metrics_json, Json, Metrics, END_TO_END, PER_LAYER};
use stats::Latency;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use trace::Span;

/// A run that has not finished by then is stopped with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The benchmark's workloads.
const WORKLOADS: [&str; 2] = ["build", "batch-uniform"];

/// Settings shared by every workload.
pub struct Run {
    /// `--seed`: every input is derived from it.
    pub seed: u64,
    /// `--seconds`: how long the measured phase runs.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// Available cores; builds, daemon workers and connections use them.
    pub nproc: usize,
    /// Zero of every span's clock.
    pub epoch: Instant,
    /// Directory for the run's files (removed at exit).
    pub scratch: PathBuf,
}

/// What a workload hands back.
pub struct Outcome {
    /// Checked-operation tallies.
    pub gate: Gate,
    /// End-to-end metrics (peak RSS is added by `main`).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
    /// All request latencies of the measured phase.
    pub latency: Latency,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Workload-specific context for the context line.
    pub context: Vec<(&'static str, Json)>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <build|batch-uniform> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks, from
/// the first line of `/proc/stat`; `None` where it cannot be read.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn percentile_name(bps: u64) -> String {
    let p = format!("{:.2}", bps as f64 / 100.0);
    format!("p{}", p.trim_end_matches('0').trim_end_matches('.'))
}

fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let out_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let scratch = Scratch(out_dir.join(format!("perfbench-scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating scratch dir: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks_before = cpu_ticks();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        epoch: Instant::now(),
        scratch: scratch.0.clone(),
    };
    let mut outcome = match args.workload {
        "build" => indexing::run(&run)?,
        "batch-uniform" => serve::run(&run)?,
        other => unreachable!("parse_args admitted workload {other}"),
    };
    outcome.e2e.insert("peak_rss_mib", peak_rss_mib()?);
    // CPU time the hypervisor gave to other guests: a run with a high
    // share measured a machine that was partly elsewhere.
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::Num((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Bool(false),
    };

    let lat = &outcome.latency;
    let mut context = vec![
        ("workload", Json::str(args.workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::str(git_rev())),
        ("nproc", Json::Int(nproc as u64)),
        ("profile", Json::str("release")),
        ("dataset", Json::str(indexing::DATASET)),
        ("cpu_steal_share", steal_share),
        (
            "latency_samples",
            Json::obj([
                ("count", Json::Int(lat.samples as u64)),
                ("beyond_p99", Json::Int(lat.beyond_p99 as u64)),
                (
                    "tail",
                    lat.tail.map_or(Json::Bool(false), |(bps, us)| {
                        Json::obj([
                            ("percentile", Json::str(percentile_name(bps))),
                            ("us", Json::Num(us)),
                        ])
                    }),
                ),
            ]),
        ),
    ];
    context.append(&mut outcome.context);
    if lat.beyond_p99 < stats::MIN_BEYOND_TAIL {
        eprintln!(
            "perfbench: only {} samples lie beyond p99 ({} in all)",
            lat.beyond_p99, lat.samples
        );
    }

    let (table, values) = if args.trace {
        (&PER_LAYER[..], &outcome.layer)
    } else {
        (&END_TO_END[..], &outcome.e2e)
    };
    if args.trace {
        let path = out_dir.join(format!(
            "perfbench-trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        trace::write_jsonl(std::io::BufWriter::new(file), &outcome.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let tree = trace::tree(&outcome.spans);
        context.push(("span_file", Json::str(path.display().to_string())));
        context.push((
            "span_tree",
            Json::obj(tree.into_iter().map(|(path, t)| {
                (
                    path,
                    Json::obj([
                        ("count", Json::Int(t.count)),
                        ("total_ns", Json::Int(t.total_ns)),
                        ("self_ns", Json::Int(t.self_ns)),
                    ]),
                )
            })),
        ));
    }
    // A traced run reports 0 for layers its workload does not exercise.
    let metrics = metrics_json(table, values, args.trace)?;

    let gate = &outcome.gate;
    if let Some(m) = &gate.first_mismatch {
        eprintln!(
            "perfbench: WRONG ANSWER ({} mismatched): {m}",
            gate.mismatched
        );
    }
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:>28} {v:>16.4} {unit}");
    }
    println!("context {}", Json::obj(context));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(gate.correct())),
            ("attempted", Json::Int(gate.attempted)),
            ("failed", Json::Int(gate.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(gate.correct())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    if let Err(e) = alloc::fix_mmap_threshold() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let (done, stop) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if stop.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
            std::process::exit(3);
        }
    });
    let result = run(&args);
    let _ = done.send(());
    watchdog.join().expect("watchdog thread panicked");
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn args_are_parsed_and_checked() {
        let a = parse_args(&s(&[
            "--workload",
            "batch-uniform",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("batch-uniform", 7, 10.0, true)
        );
        assert!(parse_args(&s(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "build",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&s(&["--workload", "build", "--seed"])).is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "build",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn percentile_names() {
        assert_eq!(percentile_name(9_900), "p99");
        assert_eq!(percentile_name(9_990), "p99.9");
        assert_eq!(percentile_name(9_999), "p99.99");
        assert_eq!(percentile_name(5_000), "p50");
    }
}
