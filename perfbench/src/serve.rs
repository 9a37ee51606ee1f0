//! The batch-uniform workload: one in-process daemon (`pspc serve`
//! defaults, `workers = nproc`, a 65 536-entry answer cache) loaded from
//! a snapshot file and driven over two loopback binary-protocol
//! connections. A traced run also sends the daemon point lookups in an
//! open loop: the point-zipf traffic, kept as a traced phase after it was
//! dropped as a workload (see `README.md`).

use crate::alloc;
use crate::gate::Gate;
use crate::indexing::{self, requests_of};
use crate::layers;
use crate::report::{Json, Metrics, STAGE_METRICS};
use crate::schedule;
use crate::stats::{median, percentile, Latency};
use crate::trace::{Span, Tracer};
use crate::{Outcome, Run};
use pspc_bench::harness::{random_pairs, zipf_sample};
use pspc_core::{index_to_binary, SpcIndex};
use pspc_graph::{Graph, SpcAnswer};
use pspc_server::{proto, serve, ClientError, MetricsSnapshot, RemoteClient, ServerHandle};
use pspc_service::cli::load_any_index;
use pspc_service::{EngineConfig, IndexKind};
use std::collections::HashSet;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Answer-cache entries: above the point lookups' hot universe, far
/// below batch-uniform's pool.
const CACHE_CAPACITY: usize = 65_536;
/// Connections driving load (one client thread each sends).
const CONNECTIONS: usize = 2;
/// batch-uniform: pairs per request. A 1024-pair request is one engine
/// chunk, run by one worker start to finish, so its p99 tracked how much
/// CPU the hypervisor took from that worker: across runs it moved by
/// 27–34% (IQR over median) with the steal share. Four chunks spread
/// each request over both workers, and the p99 moved by 10%.
const UNIFORM_PAIRS: usize = 4096;
/// batch-uniform: distinct requests cycled by the closed loop. 128 × 4096
/// pairs is eight times the cache, so a pair is evicted long before it
/// recurs and the cache runs its miss/insert/evict path.
const POOL_REQUESTS: usize = 128;
/// batch-uniform: pool requests replayed in-process by a traced run.
const REPLAY_BATCHES: usize = 64;
/// Point lookups: the hot pairs every request draws from (fits the cache).
const HOT_PAIRS: usize = 20_000;
/// Point lookups: popularity skew of the draws.
const ZIPF_THETA: f64 = 1.1;
/// Point lookups: pairs per request.
const POINT_PAIRS: usize = 8;
/// Point lookups: Zipf-drawn requests cycled by the open loop.
const POINT_POOL: usize = 65_536;
/// The point lookups' open-loop phase (traced runs): offered load over both
/// connections, requests/s; a third of the 54–61 k req/s closed-loop
/// capacity earlier measured for this traffic on a 2-core machine.
const OFFERED_RPS: f64 = 18_000.0;
/// The point lookups' open-loop phase: the p99 latency limit stated beside
/// the rate.
const LATENCY_LIMIT_US: f64 = 1_000.0;
/// A traced load phase records the spans of one request in this many
/// (all of batch-uniform's few thousand; a sample of the point lookups'
/// hundreds of thousands, which would otherwise fill gigabytes).
const fn trace_every(shape: Shape) -> usize {
    match shape {
        Shape::BatchUniform => 1,
        Shape::PointZipf => 64,
    }
}
/// Socket timeout: a daemon that stops answering fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Which traffic the daemon faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 4096 uniform pairs per request.
    BatchUniform,
    /// 8 Zipf pairs per request from a hot universe.
    PointZipf,
}

/// The seeded request pool of one shape, with its reference answers.
struct Inputs {
    shape: Shape,
    requests: Vec<Vec<(u32, u32)>>,
    refs: Vec<Vec<SpcAnswer>>,
}

impl Inputs {
    fn make(shape: Shape, g: &Graph, index: &SpcIndex, run: &Run) -> Inputs {
        match shape {
            Shape::BatchUniform => {
                let pairs = random_pairs(g, POOL_REQUESTS * UNIFORM_PAIRS, run.seed);
                let requests = requests_of(&pairs, UNIFORM_PAIRS);
                let refs = layers::reference(index, &requests);
                Inputs {
                    shape,
                    requests,
                    refs,
                }
            }
            Shape::PointZipf => {
                let mut seen = HashSet::with_capacity(HOT_PAIRS);
                let mut universe = Vec::with_capacity(HOT_PAIRS);
                let mut round = 0u64;
                while universe.len() < HOT_PAIRS {
                    for p in random_pairs(g, HOT_PAIRS, run.seed ^ (round << 32)) {
                        if p.0 != p.1 && universe.len() < HOT_PAIRS && seen.insert(p) {
                            universe.push(p);
                        }
                    }
                    round += 1;
                }
                let answers = index.query_batch_sequential(&universe);
                let ids: Vec<u32> = (0..HOT_PAIRS as u32).collect();
                let picks = zipf_sample(&ids, POINT_POOL * POINT_PAIRS, ZIPF_THETA, run.seed);
                let chunks = picks.chunks(POINT_PAIRS);
                Inputs {
                    shape,
                    requests: chunks
                        .clone()
                        .map(|c| c.iter().map(|&i| universe[i as usize]).collect())
                        .collect(),
                    refs: chunks
                        .map(|c| c.iter().map(|&i| answers[i as usize]).collect())
                        .collect(),
                }
            }
        }
    }

    /// Request `k` of connection `c`: the connections interleave through
    /// the pool, wrapping around.
    fn pick(&self, c: usize, k: usize) -> usize {
        (c + CONNECTIONS * k) % self.requests.len()
    }
}

fn engine_config(nproc: usize) -> EngineConfig {
    EngineConfig {
        workers: nproc,
        cache_capacity: CACHE_CAPACITY,
        ..EngineConfig::default()
    }
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| "snapshot path is not UTF-8".into())
}

/// Loads the snapshot with the default copying loader, starts the daemon
/// and waits for its first correct answer. Returns the handle, the load
/// seconds and the set-up seconds.
fn start_daemon(
    path: &Path,
    run: &Run,
    probe: ((u32, u32), SpcAnswer),
    tracer: &mut Tracer,
    gate: &mut Gate,
    rep: u64,
) -> Result<(ServerHandle, f64, f64), String> {
    let path = path_str(path)?;
    let t0 = Instant::now();
    let root = tracer.begin("setup", None, rep);
    let parent = tracer.id(root);
    let snapshot = tracer.span("cli.load_any_index", parent, rep, || load_any_index(path))?;
    let load_s = t0.elapsed().as_secs_f64();
    let handle = tracer
        .span("server.serve", parent, rep, || {
            serve(
                IndexKind::from(snapshot),
                "127.0.0.1:0",
                engine_config(run.nproc),
            )
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
    handle.record_index_load_ms(load_s * 1e3);
    let addr = handle.local_addr().to_string();
    let got = tracer.span("client.first_answer", parent, rep, || {
        RemoteClient::connect(&addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.query_batch(&[probe.0]).map_err(|e| e.to_string()))
    });
    tracer.end(root);
    let setup_s = t0.elapsed().as_secs_f64();
    let got = got.map_err(|e| format!("first query to the daemon: {e}"))?;
    gate.check("first answer after start-up", &got, &[probe.1]);
    Ok((handle, load_s, setup_s))
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    /// Per request: from send (closed loop) or due time (open loop) to
    /// the answer, microseconds.
    lat_us: Vec<f64>,
    /// Per request: client send to answer, microseconds.
    rtt_us: Vec<f64>,
    /// Open loop, per request: how late the sender ran, microseconds.
    late_us: Vec<f64>,
    attempted: u64,
    answered: u64,
    pairs: u64,
    wall_s: f64,
    gate: Gate,
    spans: Vec<Span>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.rtt_us.extend(other.rtt_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.pairs += other.pairs;
        self.gate.merge(other.gate);
        self.spans.extend(other.spans);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Daemons started one after another in a run. Each is timed for
/// `setup_s`, warmed up, and then measured for its share of `--seconds`.
/// A run reports the median `qps` over the daemons, since one daemon's
/// memory layout, held for all its load, differed from the next daemon's
/// by 10–20% on a 2-core machine. Latency percentiles pool every
/// daemon's requests, so that batch-uniform's p99 rests on more than ten
/// requests beyond it.
const DAEMONS: usize = 4;

/// Seconds of unmeasured closed-loop load on each daemon before its
/// measured share: the cache and the workload sketch settle into their
/// steady state (point lookups' first two seconds on a fresh daemon ran a
/// third slower than the rest).
const WARMUP_SECS: f64 = 1.5;

/// Closed-loop measurements of several daemons: their phases merged, and
/// each daemon's `qps`.
#[derive(Default)]
struct Closed {
    merged: Phase,
    qps: Vec<f64>,
}

impl Closed {
    fn add(&mut self, p: Phase) -> Result<(), String> {
        if p.lat_us.is_empty() {
            return Err(format!(
                "the daemon answered no request: {}",
                p.gate
                    .first_mismatch
                    .as_deref()
                    .unwrap_or("every request failed")
            ));
        }
        self.qps.push(p.pairs as f64 / p.wall_s);
        self.merged.wall_s += p.wall_s;
        self.merged.absorb(p);
        Ok(())
    }
}

/// How long a closed-loop client keeps one connection before it opens
/// the next. The daemon runs each connection on a thread of its own, and
/// where the scheduler puts that thread against the client's moved
/// point lookups' qps by up to 40% from one connection to the next on a
/// 2-core machine; a run spans dozens of connections instead of two.
const RECONNECT: Duration = Duration::from_millis(250);

/// Each of the two clients sends its next pool request as soon as the
/// previous one is answered, until `seconds` have passed.
fn closed_loop(addr: &str, inputs: &Inputs, run: &Run, trace: bool, seconds: f64) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut tracer = Tracer::new(run.epoch, trace);
                    let mut client: Option<(RemoteClient, Instant)> = None;
                    let mut k = 0;
                    while Instant::now() < deadline {
                        if client
                            .as_ref()
                            .is_none_or(|(_, at)| at.elapsed() >= RECONNECT)
                        {
                            match RemoteClient::connect(addr) {
                                Ok(c) => client = Some((c, Instant::now())),
                                Err(e) => {
                                    p.attempted += 1;
                                    p.gate.fail(&format!("connecting: {e}"));
                                    break;
                                }
                            }
                        }
                        let (client, _) = client.as_mut().expect("connected above");
                        let i = inputs.pick(c, k);
                        let req = (k * CONNECTIONS + c) as u64;
                        tracer.sample(k % trace_every(inputs.shape) == 0);
                        k += 1;
                        p.attempted += 1;
                        let t0 = Instant::now();
                        let root = tracer.begin("request", None, req);
                        let parent = tracer.id(root);
                        let got = tracer.span("client.query_batch", parent, req, || {
                            client.query_batch(&inputs.requests[i])
                        });
                        let lat = us(t0.elapsed());
                        match got {
                            Ok(answers) => {
                                tracer.span("gate.check", parent, req, || {
                                    p.gate.check("daemon answer", &answers, &inputs.refs[i])
                                });
                                p.lat_us.push(lat);
                                p.rtt_us.push(lat);
                                p.answered += 1;
                                p.pairs += answers.len() as u64;
                            }
                            Err(e) => {
                                p.gate.fail(&format!("request {req}: {e}"));
                                if matches!(e, ClientError::Io(_)) {
                                    break;
                                }
                            }
                        }
                        tracer.end(root);
                    }
                    p.spans = tracer.into_spans();
                    p
                })
            })
            .collect();
        for w in workers {
            phase.absorb(w.join().expect("client thread panicked"));
        }
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Lets this thread's sleeps end near their deadline rather than up to
/// 50 µs after it (the default timer slack), so the open-loop sender
/// sends on time.
#[cfg(target_os = "linux")]
fn precise_sleep() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in
    // nanoseconds), changes only the calling thread's timer slack and
    // touches no memory of this process.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleep() {}

/// Span id of slot `slot` of request `k` on connection `c`: the sender
/// and receiver threads derive the same ids for one request's spans.
/// The range lies above every tracer's automatic ids.
fn open_id(c: usize, k: usize, slot: u64) -> u64 {
    (3 << 60) | ((c as u64) << 40) | ((k as u64) << 2) | slot
}

/// The point lookups' open-loop phase: each connection's sender thread writes
/// its next request when a seeded Poisson schedule says it is due,
/// whatever is outstanding, and a reader thread per connection collects
/// the answers in order. Latency runs from the due time.
fn open_loop(addr: &str, inputs: &Inputs, run: &Run, trace: bool) -> Phase {
    let mut phase = Phase::default();
    let dues: Vec<Vec<u64>> = (0..CONNECTIONS as u64)
        .map(|c| {
            let seed = run.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c + 1);
            schedule::poisson(OFFERED_RPS / CONNECTIONS as f64, run.seconds, seed)
        })
        .collect();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            let reader = s.try_clone()?;
            Ok((s, reader))
        });
        match stream {
            Ok(pair) => conns.push(pair),
            Err(e) => {
                phase.attempted += 1;
                phase.gate.fail(&format!("connecting: {e}"));
                return phase;
            }
        }
    }
    // A short lead lets every thread reach its first sleep before the
    // first request is due.
    let start = Instant::now() + Duration::from_millis(5);
    let mut last_answer = start;
    std::thread::scope(|s| {
        let mut threads = Vec::new();
        for (c, ((mut writer, reader), due_ns)) in conns.into_iter().zip(&dues).enumerate() {
            let sender = s.spawn(move || {
                precise_sleep();
                let mut tracer = Tracer::new(run.epoch, trace);
                let mut sent = Vec::with_capacity(due_ns.len());
                for (k, &due) in due_ns.iter().enumerate() {
                    tracer.sample(k % trace_every(inputs.shape) == 0);
                    let due_at = start + Duration::from_nanos(due);
                    let now = Instant::now();
                    if now < due_at {
                        std::thread::sleep(due_at - now);
                    }
                    let t_send = Instant::now();
                    let wrote =
                        proto::write_request(&mut writer, &inputs.requests[inputs.pick(c, k)]);
                    tracer.record(Span {
                        id: open_id(c, k, 1),
                        parent: Some(open_id(c, k, 0)),
                        name: "proto.write_request",
                        req: open_id(c, k, 0),
                        start_ns: tracer.ns(t_send),
                        end_ns: tracer.ns(Instant::now()),
                    });
                    if let Err(e) = wrote {
                        // Unblock the reader: it sees end of stream.
                        let _ = writer.shutdown(Shutdown::Both);
                        return (sent, tracer.into_spans(), Some(e.to_string()));
                    }
                    sent.push(t_send);
                }
                (sent, tracer.into_spans(), None)
            });
            let receiver = s.spawn(move || {
                let mut tracer = Tracer::new(run.epoch, trace);
                let mut reader = BufReader::new(reader);
                let mut p = Phase::default();
                let mut received = Vec::with_capacity(due_ns.len());
                for (k, &due) in due_ns.iter().enumerate() {
                    tracer.sample(k % trace_every(inputs.shape) == 0);
                    let t_read = Instant::now();
                    let response = proto::read_response(&mut reader);
                    let t_done = Instant::now();
                    let due_at = start + Duration::from_nanos(due);
                    p.attempted += 1;
                    match response {
                        Ok(proto::Response::Answers(answers)) => {
                            let want = &inputs.refs[inputs.pick(c, k)];
                            p.gate.check("daemon answer", &answers, want);
                            p.lat_us.push(us(t_done.saturating_duration_since(due_at)));
                            p.answered += 1;
                            p.pairs += answers.len() as u64;
                        }
                        Ok(other) => p.gate.fail(&format!("request {k}: {other:?}")),
                        Err(e) => {
                            p.gate.fail(&format!("request {k}: {e}"));
                            break;
                        }
                    }
                    received.push(t_done);
                    let root = open_id(c, k, 0);
                    tracer.record(Span {
                        id: open_id(c, k, 2),
                        parent: Some(root),
                        name: "proto.read_response",
                        req: root,
                        start_ns: tracer.ns(t_read),
                        end_ns: tracer.ns(t_done),
                    });
                    tracer.record(Span {
                        id: root,
                        parent: None,
                        name: "request",
                        req: root,
                        start_ns: tracer.ns(due_at),
                        end_ns: tracer.ns(t_done),
                    });
                }
                p.spans = tracer.into_spans();
                (p, received)
            });
            threads.push((due_ns, sender, receiver));
        }
        for (due_ns, sender, receiver) in threads {
            let (sent, send_spans, send_err) = sender.join().expect("sender thread panicked");
            let (mut p, received) = receiver.join().expect("receiver thread panicked");
            if let Some(e) = send_err {
                p.gate.fail(&format!("sending: {e}"));
            }
            for (t, &due) in sent.iter().zip(due_ns.iter()) {
                let due_at = start + Duration::from_nanos(due);
                p.late_us.push(us(t.saturating_duration_since(due_at)));
            }
            // Responses arrive in request order and a broken connection
            // ends them, so `received` pairs up with a prefix of `sent`.
            for (t_sent, t_done) in sent.iter().zip(&received) {
                p.rtt_us.push(us(t_done.saturating_duration_since(*t_sent)));
            }
            if let Some(&t) = received.last() {
                last_answer = last_answer.max(t);
            }
            p.spans.extend(send_spans);
            phase.absorb(p);
        }
    });
    phase.wall_s = last_answer.saturating_duration_since(start).as_secs_f64();
    phase
}

/// Per-layer figures the daemon's own telemetry gives over one phase.
fn daemon_layers(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    phase: &Phase,
    into: &mut Metrics,
) {
    for (i, name) in STAGE_METRICS.iter().enumerate() {
        let hist = after.stage_hists[i].delta(&before.stage_hists[i]);
        into.insert(name, hist.quantile(0.5) as f64 / 1e3);
    }
    let busy_ns: u64 = after
        .workers
        .iter()
        .zip(&before.workers)
        .map(|(a, b)| a.busy_ns - b.busy_ns)
        .sum();
    into.insert(
        "engine.worker_busy_share",
        busy_ns as f64 / (after.workers.len().max(1) as f64 * phase.wall_s * 1e9),
    );
    let queries = (after.queries - before.queries).max(1) as f64;
    if let (Some(a), Some(b)) = (&after.cache, &before.cache) {
        let hits = (a.hits - b.hits) as f64;
        let lookups = hits + (a.misses - b.misses) as f64;
        into.insert("cache.hit_rate", hits / lookups.max(1.0));
        into.insert(
            "cache.evictions_per_query",
            (a.evictions - b.evictions) as f64 / queries,
        );
    }
    let daemon_p50_us = after.request_hist.delta(&before.request_hist).quantile(0.5) as f64 / 1e3;
    let mut rtt = phase.rtt_us.clone();
    rtt.sort_by(f64::total_cmp);
    if !rtt.is_empty() {
        into.insert("net.rtt_us", percentile(&rtt, 5_000) - daemon_p50_us);
    }
}

/// Per-key median of per-daemon metrics.
fn median_metrics(per_daemon: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for &name in per_daemon.first().map(|m| m.keys()).into_iter().flatten() {
        let values: Vec<f64> = per_daemon
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        out.insert(name, median(&values));
    }
    out
}

/// Runs batch-uniform.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let mut tracer = Tracer::new(run.epoch, run.trace);

    // Preparation, untimed except for the builds.
    let g = indexing::generate();
    let (index, nproc_builds, one_builds) =
        indexing::timed_builds(&g, run, 0.0, &mut tracer, &mut gate);
    let path = run.scratch.join("index.pspc");
    let index_mib = index.stats().size_mib();
    let bytes = index_to_binary(&index);
    std::fs::write(&path, &bytes[..]).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let snapshot_bytes = bytes.len() as f64;
    drop(bytes);
    let inputs = Inputs::make(Shape::BatchUniform, &g, &index, run);
    let points = run
        .trace
        .then(|| Inputs::make(Shape::PointZipf, &g, &index, run));
    // While the daemons run, only the daemon holds the index, as a
    // deployed daemon does; a traced run reloads the snapshot afterwards.
    drop((g, index));
    alloc::release_free_memory();

    let probe = (inputs.requests[0][0], inputs.refs[0][0]);
    let share = run.seconds / DAEMONS as f64;
    let (mut setup, mut loads) = (Vec::new(), Vec::new());
    let (mut measured, mut traced) = (Closed::default(), Closed::default());
    let (mut daemon_p50, mut daemon_p99) = (Vec::new(), Vec::new());
    let mut per_daemon_layers = Vec::new();
    let mut open_metrics = Metrics::new();
    let mut context = Vec::new();
    let mut spans = Vec::new();
    for rep in 0..DAEMONS {
        let (daemon, load_s, setup_s) =
            start_daemon(&path, run, probe, &mut tracer, &mut gate, rep as u64)?;
        setup.push(setup_s);
        loads.push(load_s);
        let addr = daemon.local_addr().to_string();
        let warmup = closed_loop(&addr, &inputs, run, false, WARMUP_SECS);
        gate.merge(warmup.gate);

        let before = daemon.metrics();
        measured.add(closed_loop(&addr, &inputs, run, false, share))?;
        let hist = daemon.metrics().request_hist.delta(&before.request_hist);
        daemon_p50.push(hist.quantile(0.5) as f64 / 1e3);
        daemon_p99.push(hist.quantile(0.99) as f64 / 1e3);
        if run.trace {
            let before = daemon.metrics();
            let phase = closed_loop(&addr, &inputs, run, true, share);
            let after = daemon.metrics();
            let mut m = Metrics::new();
            daemon_layers(&before, &after, &phase, &mut m);
            per_daemon_layers.push(m);
            traced.add(phase)?;
            if let Some(points) = points.as_ref().filter(|_| rep + 1 == DAEMONS) {
                // The hot pairs enter the cache before the timed phase.
                let warmup = closed_loop(&addr, points, run, false, WARMUP_SECS);
                gate.merge(warmup.gate);
                let open = open_loop(&addr, points, run, true);
                open_layers(&open, &mut open_metrics, &mut context);
                gate.merge(open.gate);
                spans.extend(open.spans);
            }
        }
        let final_metrics = daemon.shutdown();
        if final_metrics.rejected > 0 {
            eprintln!(
                "perfbench: daemon {rep} rejected {} requests",
                final_metrics.rejected
            );
        }
    }
    context.extend([
        ("loop", Json::str("closed")),
        ("daemons", Json::Int(DAEMONS as u64)),
        ("warmup_s_per_daemon", Json::Num(WARMUP_SECS)),
        (
            "qps_per_daemon",
            Json::Arr(measured.qps.iter().map(|&q| Json::Num(q)).collect()),
        ),
        ("connections", Json::Int(CONNECTIONS as u64)),
        ("workers", Json::Int(run.nproc as u64)),
        ("cache_capacity", Json::Int(CACHE_CAPACITY as u64)),
        ("pool_requests", Json::Int(inputs.requests.len() as u64)),
        (
            "pairs_per_request",
            Json::Int(inputs.requests[0].len() as u64),
        ),
        ("daemon_p50_us", Json::Num(median(&daemon_p50))),
        ("daemon_p99_us", Json::Num(median(&daemon_p99))),
    ]);
    context.extend([
        ("build_s_each", indexing::each_secs(&nproc_builds)),
        ("build_1t_s_each", indexing::each_secs(&one_builds)),
    ]);

    let mut layer = Metrics::new();
    if run.trace {
        layer = median_metrics(&per_daemon_layers);
        layer.extend(open_metrics);
        layer.insert(
            "trace.overhead_share",
            1.0 - median(&traced.qps) / median(&measured.qps),
        );
        gate.merge(traced.merged.gate);
        spans.extend(traced.merged.spans);

        let kind = IndexKind::from(load_any_index(path_str(&path)?)?);
        let (sample, sample_refs) = (
            &inputs.requests[..REPLAY_BATCHES],
            &inputs.refs[..REPLAY_BATCHES],
        );
        let mut replay_tracer = Tracer::new(run.epoch, true);
        layers::local_queries(&kind, sample, sample_refs, 1, &mut replay_tracer, &mut gate);
        layers::proto_replay(sample, sample_refs, &mut replay_tracer, &mut gate);
        let replay_spans = replay_tracer.into_spans();
        let sample_pairs = sample.iter().map(Vec::len).sum::<usize>() as u64;
        layers::from_spans(&replay_spans, sample_pairs, &mut layer);
        layer.insert(
            "merge.entries_per_query",
            layers::entries_per_query(layers::undirected(&kind), sample),
        );
        spans.extend(replay_spans);
        layer.insert("snapshot.load_s", median(&loads));
        layer.insert("snapshot.bytes", snapshot_bytes);
        let build_spans = tracer.into_spans();
        indexing::build_layers(&build_spans, &nproc_builds, &mut layer);
        spans.extend(build_spans);
    }

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&setup));
    e2e.insert("build_s", indexing::median_secs(&nproc_builds));
    e2e.insert("build_1t_s", indexing::median_secs(&one_builds));
    e2e.insert("index_mib", index_mib);
    let phase = measured.merged;
    let lat = Latency::from_us(phase.lat_us);
    e2e.insert("qps", median(&measured.qps));
    e2e.insert("req_p50_us", lat.p50);
    e2e.insert("req_p99_us", lat.p99);
    e2e.insert(
        "answered_share",
        phase.answered as f64 / phase.attempted.max(1) as f64,
    );
    gate.merge(phase.gate);
    Ok(Outcome {
        gate,
        e2e,
        layer,
        latency: lat,
        spans,
        context,
    })
}

/// Per-layer metrics only the point lookups' open-loop phase measures.
const OPEN_LOOP_METRICS: [&str; 3] = [
    "openloop.req_p50_us",
    "openloop.req_p99_us",
    "gen.late_p99_us",
];

/// Reports the open-loop phase, and whether its backlog grew: the
/// daemon fell behind the offered rate, or the sender itself ran later
/// than the latency limit.
fn open_layers(open: &Phase, into: &mut Metrics, context: &mut Vec<(&'static str, Json)>) {
    if open.lat_us.is_empty() {
        return;
    }
    let mut late = open.late_us.clone();
    late.sort_by(f64::total_cmp);
    let late_p99 = percentile(&late, 9_900);
    let achieved_rps = open.answered as f64 / open.wall_s;
    let over = achieved_rps < 0.95 * OFFERED_RPS || late_p99 > LATENCY_LIMIT_US;
    let lat = Latency::from_us(open.lat_us.clone());
    if over {
        eprintln!(
            "perfbench: open loop over capacity: {achieved_rps:.0} of {OFFERED_RPS:.0} req/s \
             answered, sender late p99 {late_p99:.1} us"
        );
    }
    into.insert(OPEN_LOOP_METRICS[0], lat.p50);
    into.insert(OPEN_LOOP_METRICS[1], lat.p99);
    into.insert(OPEN_LOOP_METRICS[2], late_p99);
    context.push((
        "open_loop",
        Json::obj([
            ("offered_rps", Json::Num(OFFERED_RPS)),
            ("achieved_rps", Json::Num(achieved_rps)),
            ("latency_limit_p99_us", Json::Num(LATENCY_LIMIT_US)),
            (
                "meets_latency_limit",
                Json::Bool(lat.p99 <= LATENCY_LIMIT_US),
            ),
            ("samples", Json::Int(lat.samples as u64)),
            ("over_capacity", Json::Bool(over)),
        ]),
    ));
}
