//! The daemon: accept loop, protocol dispatch, request handlers and
//! graceful shutdown.
//!
//! One `TcpListener` serves both protocols: each new connection is
//! sniffed by peeking its first four bytes — [`crate::proto::REQUEST_MAGIC`]
//! or [`crate::proto::INSERT_MAGIC`] selects the framed binary protocol,
//! anything else the HTTP/1.1 endpoints. Connections get a handler
//! thread each (the expensive work — answering batches — happens on the
//! engine's persistent worker pool, so handler threads only parse,
//! validate, submit and serialize).
//!
//! The daemon serves whichever [`IndexKind`] its snapshot held:
//! undirected `SPC(s, t)`, directed `SPC(s → t)` over `Lin`/`Lout`, or
//! dynamic distances. A **dynamic** index additionally accepts edge
//! insertions — `POST /insert` (body: `u v` lines) or a binary `PSI1`
//! frame — applied under the index's write lock while query chunks drain
//! around it; non-dynamic indexes answer HTTP 409 / binary `Conflict`.
//!
//! Query requests go through [`QueryEngine::try_run`]: when the
//! submission queue cannot take a batch the daemon *sheds* it — HTTP 503
//! / binary `Rejected` — instead of queueing unboundedly.
//!
//! **Observability** (see [`ObsConfig`]): every request gets a
//! [`Span`] with a process-unique trace ID, threaded through the engine
//! so parse / cache-probe / prepare / queue-wait / execute / merge /
//! write time is attributed per stage. Completed traces land in a
//! bounded ring (`GET /debug/trace?n=`), a top-K slow-query log
//! (`GET /debug/slow?n=`) and the stage-labeled histograms on
//! `GET /metrics`, which renders full Prometheus text exposition
//! (`# HELP`/`# TYPE`, histogram `_bucket`/`_sum`/`_count` series,
//! per-worker gauges) with `Content-Type: text/plain; version=0.0.4`.
//! Clients may supply their own trace ID — `x-pspc-trace-id` header
//! over HTTP, the `PSQ2` traced-query frame over the binary protocol —
//! and it is stamped onto the request's span verbatim, so one ID
//! correlates a request across services. The engine's streaming
//! workload sketches surface on `GET /debug/hotspots` (HyperLogLog
//! distinct-pair estimate, SpaceSaving hot pairs / hot sources).
//! Lifecycle and per-request diagnostics go through the structured
//! `PSPC_LOG` logger on stderr (`PSPC_LOG=off` silences it).
//!
//! Shutdown (via [`ServerHandle::shutdown`], dropping the handle, or the
//! `POST /shutdown` admin endpoint) is graceful: the accept loop stops,
//! handler threads finish their in-flight request and close, and the
//! engine pool drains its queue before its workers exit. Bytes already
//! sent count as in flight; a connection that has not sent its first
//! request gets a short grace to send it; idle keep-alive connections
//! close at once.

use crate::metrics::{EngineGauges, Metrics, MetricsSnapshot, WorkloadGauges};
use crate::{http, proto};
use pspc_obs::{debug, info, warn, SlowLog, Span, Stage, TraceRing};
use pspc_service::pairs::{read_pairs, write_answers, write_answers_json};
use pspc_service::{EngineConfig, IndexKind, InsertError, QueryEngine, SubmitError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for idle waits (next-request peek, shutdown checks).
const IDLE_POLL: Duration = Duration::from_millis(100);
/// How long `finish` waits for handler threads to drain.
const DRAIN_DEADLINE: Duration = Duration::from_secs(15);
/// How long a connection that has not sent its first request yet may
/// still send it once shutdown has begun. It was accepted before the
/// listener closed, so its request is owed an answer; idle keep-alive
/// connections are closed at once.
const FIRST_REQUEST_GRACE: Duration = Duration::from_secs(2);

/// Observability knobs of one daemon: request tracing and the sizes of
/// the completed-trace ring and slow-query log.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Mint a [`Span`] per request and record stage-attributed traces
    /// (default on; the overhead is a few clock reads per request).
    /// When off, `/debug/trace` and `/debug/slow` stay empty and the
    /// per-stage histograms on `/metrics` record nothing.
    pub tracing: bool,
    /// Completed traces retained for `GET /debug/trace` (oldest evicted
    /// first).
    pub trace_ring: usize,
    /// Slowest requests retained for `GET /debug/slow`.
    pub slow_log: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: true,
            trace_ring: 256,
            slow_log: 32,
        }
    }
}

struct Shared {
    engine: QueryEngine,
    metrics: Metrics,
    obs: ObsConfig,
    traces: TraceRing,
    slow: SlowLog,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    num_vertices: u32,
}

impl Shared {
    /// Samples the engine-owned gauges a `/metrics` scrape merges into
    /// the snapshot: queue depth, index generation, per-worker counters
    /// and (when enabled) the result-cache counters.
    fn gauges(&self) -> EngineGauges {
        EngineGauges {
            queued_chunks: self.engine.queued_chunks() as u64,
            index_generation: self.engine.kind().generation(),
            resident_shards: self
                .engine
                .kind()
                .as_sharded()
                .map(|s| s.resident_shards() as u64),
            workers: self.engine.worker_stats(),
            cache: self.engine.cache().map(|c| c.stats()),
            workload: self.engine.workload().map(|w| WorkloadGauges {
                total_pairs: w.total_pairs(),
                distinct_pairs: w.distinct_pairs(),
                hot_pair_share: w.hot_pair_share(),
            }),
        }
    }

    /// Mints a request span when tracing is on.
    fn span(&self) -> Option<Span> {
        self.obs.tracing.then(Span::new)
    }
}

/// Completes a request's span: stamps the write stage, logs the trace at
/// debug level, feeds the per-stage histograms, and records it in the
/// trace ring and slow log.
fn finish_trace(
    shared: &Shared,
    span: Option<Span>,
    kind: &'static str,
    status: &'static str,
    items: u64,
    write_ns: u64,
) {
    let Some(mut span) = span else { return };
    span.add(Stage::Write, write_ns);
    let trace = span.finish(kind, status, items);
    debug!(
        "request traced",
        trace_id = trace.id,
        kind = trace.kind,
        status = trace.status,
        items = trace.items,
        total_us = format!("{:.1}", trace.total_ns as f64 / 1e3),
    );
    shared.metrics.record_stages(&trace.stage_ns);
    shared.slow.offer(trace.clone());
    shared.traces.push(trace);
}

/// The protocol-level status label a response maps to in traces.
fn response_status(r: &proto::Response) -> &'static str {
    match r {
        proto::Response::Answers(_) | proto::Response::Applied(_) => "ok",
        proto::Response::Rejected(_) => "rejected",
        proto::Response::BadRequest(_) => "bad_request",
        proto::Response::Conflict(_) => "conflict",
    }
}

/// Decrements the live-connection gauge however the handler exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::Release);
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `index` — any [`IndexKind`], or a bare index convertible into one —
/// on a fresh engine configured by `engine_cfg`, with default
/// observability ([`ObsConfig::default`]: tracing on).
///
/// Returns immediately; the accept loop runs on a background thread
/// until the handle shuts it down.
pub fn serve(
    index: impl Into<IndexKind>,
    addr: &str,
    engine_cfg: EngineConfig,
) -> io::Result<ServerHandle> {
    serve_with_obs(index, addr, engine_cfg, ObsConfig::default())
}

/// [`serve`] with explicit observability configuration.
pub fn serve_with_obs(
    index: impl Into<IndexKind>,
    addr: &str,
    engine_cfg: EngineConfig,
    obs: ObsConfig,
) -> io::Result<ServerHandle> {
    let index = index.into();
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let num_vertices = index.num_vertices() as u32;
    let metrics = Metrics::new();
    metrics.set_label_bytes(index.label_bytes() as u64);
    metrics.set_index_kind(index.code());
    let index_kind = index.code();
    let shared = Arc::new(Shared {
        engine: QueryEngine::with_kind(index, engine_cfg),
        metrics,
        obs,
        traces: TraceRing::new(obs.trace_ring),
        slow: SlowLog::new(obs.slow_log),
        shutdown: AtomicBool::new(false),
        active_conns: AtomicUsize::new(0),
        num_vertices,
    });
    info!(
        "daemon listening",
        addr = local_addr,
        index_kind = index_kind,
        vertices = num_vertices,
        tracing = obs.tracing,
    );
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("pspc-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(_) if accept_shared.shutdown.load(Ordering::Acquire) => break,
                    Err(e) => {
                        // Transient accept errors (EMFILE under fd
                        // exhaustion, ECONNABORTED) must not hot-spin the
                        // accept thread while handlers hold the fds.
                        warn!("transient accept error", error = e);
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                accept_shared.active_conns.fetch_add(1, Ordering::Acquire);
                let guard = ConnGuard(Arc::clone(&accept_shared));
                let _ = std::thread::Builder::new()
                    .name("pspc-conn".into())
                    .spawn(move || {
                        let _guard = guard;
                        let _ = handle_connection(&_guard.0, stream);
                    });
                // Checked after the hand-off: the connection accepted as
                // shutdown began may be a client's, not the wake-up one.
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
        })?;
    Ok(ServerHandle {
        local_addr,
        shared,
        accept: Some(accept),
    })
}

/// Control handle of a running daemon.
///
/// Dropping the handle shuts the daemon down gracefully; so does
/// [`ServerHandle::shutdown`] (explicit) and [`ServerHandle::wait`]
/// (after a remote `POST /shutdown`).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live metrics scrape (same numbers `GET /metrics` serves).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.gauges())
    }

    /// The `n` most recently completed request traces, newest first
    /// (same data `GET /debug/trace` serves).
    pub fn recent_traces(&self, n: usize) -> Vec<pspc_obs::RequestTrace> {
        self.shared.traces.recent(n)
    }

    /// The `n` slowest requests seen, slowest first (same data
    /// `GET /debug/slow` serves).
    pub fn slowest_traces(&self, n: usize) -> Vec<pspc_obs::RequestTrace> {
        self.shared.slow.slowest(n)
    }

    /// Records how long the served snapshot took to load, surfacing it
    /// as the `pspc_index_load_ms` gauge. The loader (e.g. `pspc serve`)
    /// calls this right after [`serve`] with the wall-clock it measured.
    pub fn record_index_load_ms(&self, ms: f64) {
        self.shared.metrics.set_index_load_ms(ms);
    }

    /// Records whether the served index is memory-mapped, surfacing it
    /// as the `pspc_index_mmap` gauge. `pspc serve --mmap` calls this
    /// with the actual load outcome — `false` after a graceful fallback
    /// to the copying loader.
    pub fn record_index_mmap(&self, mapped: bool) {
        self.shared.metrics.set_index_mmap(mapped);
    }

    /// Stops accepting, lets in-flight requests finish, drains the
    /// engine and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.trigger();
        self.finish();
        self.metrics()
    }

    /// Blocks until something else triggers shutdown (the
    /// `POST /shutdown` endpoint), then drains like
    /// [`ServerHandle::shutdown`]. This is `pspc serve`'s foreground
    /// mode.
    pub fn wait(mut self) -> MetricsSnapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.finish();
        self.metrics()
    }

    fn trigger(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            info!("shutdown requested", addr = self.local_addr);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn finish(&mut self) {
        let joined = if let Some(h) = self.accept.take() {
            let _ = h.join();
            true
        } else {
            false
        };
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if joined {
            let m = &self.shared.metrics;
            let snap = m.snapshot(self.shared.gauges());
            info!(
                "daemon stopped",
                addr = self.local_addr,
                served = snap.served,
                rejected = snap.rejected,
            );
        }
        // The engine itself drains in `Shared`'s drop (here, unless a
        // stuck handler still holds a reference past the deadline).
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.trigger();
        self.finish();
    }
}

/// Outcome of waiting for the next request on an idle connection.
enum Wait {
    /// At least `min` bytes are readable; the sniffed prefix is returned.
    Ready([u8; 4]),
    /// Clean EOF — the peer closed.
    Eof,
    /// The daemon is shutting down.
    Shutdown,
}

/// Waits until `min` bytes can be peeked, EOF, or shutdown. The read
/// timeout doubles as the shutdown poll interval, so idle keep-alive
/// connections notice a shutdown within [`IDLE_POLL`].
///
/// Bytes already sent take priority over shutdown: the flag is only
/// consulted when nothing is readable. A `fresh` connection (no request
/// read yet) keeps waiting for its first request for up to
/// [`FIRST_REQUEST_GRACE`] after shutdown begins.
fn wait_for_bytes(
    stream: &TcpStream,
    shared: &Shared,
    min: usize,
    fresh: bool,
) -> io::Result<Wait> {
    debug_assert!(min <= 4);
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut buf = [0u8; 4];
    // Clock for a *partial* prefix, armed when the first short peek
    // arrives — not at wait start, or a connection that idles before
    // sending would get its first bytes sniffed prematurely.
    let mut short_since: Option<Instant> = None;
    let mut shutdown_since: Option<Instant> = None;
    loop {
        match stream.peek(&mut buf[..min.max(1)]) {
            Ok(0) => return Ok(Wait::Eof),
            Ok(k)
                if k >= min
                    || short_since.is_some_and(|t| t.elapsed() > Duration::from_secs(1)) =>
            {
                // Either enough bytes to dispatch, or a prefix shorter
                // than the sniff window that stalled for a second (e.g.
                // a peer that wrote 2 bytes and closed — peek keeps
                // returning them, never 0): hand the bytes to the HTTP
                // parser, which will reject them. Request bodies may
                // trickle; give the actual reads a generous bound
                // instead of the poll interval.
                let _ = k;
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                return Ok(Wait::Ready(buf));
            }
            Ok(_) => {
                short_since.get_or_insert_with(Instant::now);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    let since = *shutdown_since.get_or_insert_with(Instant::now);
                    if !fresh || since.elapsed() >= FIRST_REQUEST_GRACE {
                        return Ok(Wait::Shutdown);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let sniff = match wait_for_bytes(&stream, shared, 4, true)? {
        Wait::Ready(b) => b,
        Wait::Eof | Wait::Shutdown => return Ok(()),
    };
    let binary = sniff == proto::REQUEST_MAGIC
        || sniff == proto::TRACED_REQUEST_MAGIC
        || sniff == proto::INSERT_MAGIC;
    if pspc_obs::log::enabled(pspc_obs::Level::Debug) {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        debug!(
            "connection accepted",
            peer = peer,
            protocol = if binary { "binary" } else { "http" },
        );
    }
    if binary {
        serve_binary(shared, stream)
    } else {
        serve_http(shared, stream)
    }
}

/// Validates ids and answers one batch, mapping engine rejections to
/// protocol-level responses. When a span is supplied, the engine
/// attributes cache-probe / prepare / queue-wait / execute / merge time
/// to it.
fn answer_batch(shared: &Shared, pairs: &[(u32, u32)], span: Option<&mut Span>) -> proto::Response {
    if pairs.len() > proto::MAX_PAIRS {
        shared.metrics.record_client_error();
        return proto::Response::BadRequest(format!(
            "batch of {} pairs exceeds the {}-pair cap",
            pairs.len(),
            proto::MAX_PAIRS
        ));
    }
    let n = shared.num_vertices;
    if let Some(&(s, t)) = pairs.iter().find(|&&(s, t)| s >= n || t >= n) {
        shared.metrics.record_client_error();
        return proto::Response::BadRequest(format!(
            "vertex out of range in ({s}, {t}): index has {n} vertices"
        ));
    }
    let _in_flight = shared.metrics.enter();
    let t0 = Instant::now();
    let result = match span {
        Some(s) => shared.engine.try_run_traced(pairs, s),
        None => shared.engine.try_run(pairs),
    };
    match result {
        Ok((answers, _)) => {
            shared
                .metrics
                .record_served(pairs.len(), t0.elapsed().as_nanos() as u64);
            proto::Response::Answers(answers)
        }
        Err(e @ SubmitError::Saturated { .. }) => {
            shared.metrics.record_rejected();
            proto::Response::Rejected(e.to_string())
        }
        Err(e @ SubmitError::TooLarge { .. }) => {
            shared.metrics.record_client_error();
            proto::Response::BadRequest(e.to_string())
        }
    }
}

/// Validates and applies one batch of edge insertions, mapping engine
/// rejections to protocol-level responses (shared by `POST /insert` and
/// the binary `PSI1` frame). A supplied span attributes the index
/// mutation to the execute stage.
fn apply_inserts(
    shared: &Shared,
    edges: &[(u32, u32)],
    span: Option<&mut Span>,
) -> proto::Response {
    if edges.len() > proto::MAX_PAIRS {
        shared.metrics.record_client_error();
        return proto::Response::BadRequest(format!(
            "insert of {} edges exceeds the {}-pair cap",
            edges.len(),
            proto::MAX_PAIRS
        ));
    }
    // Inserts are requests too: they hold the in-flight gauge and feed
    // their own latency histogram, so write traffic is observable
    // without polluting query percentiles.
    let _in_flight = shared.metrics.enter();
    let t0 = Instant::now();
    let result = match span {
        Some(s) => s.time(Stage::Execute, || shared.engine.apply_inserts(edges)),
        None => shared.engine.apply_inserts(edges),
    };
    match result {
        Ok(applied) => {
            shared
                .metrics
                .record_insert(applied as u64, t0.elapsed().as_nanos() as u64);
            proto::Response::Applied(applied as u64)
        }
        Err(e @ InsertError::NotDynamic) => {
            // A well-formed insert to the wrong index kind is a
            // *conflict*, not a malformed request — it must not inflate
            // pspc_requests_bad_total.
            shared.metrics.record_insert_conflict();
            proto::Response::Conflict(e.to_string())
        }
        Err(e @ InsertError::OutOfRange { .. }) => {
            shared.metrics.record_client_error();
            proto::Response::BadRequest(e.to_string())
        }
    }
}

// ------------------------------------------------------------- binary

fn serve_binary(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    loop {
        // Pipelined requests may already sit in the buffer; only hit the
        // socket-level idle wait when it is empty.
        if reader.buffer().is_empty() {
            match wait_for_bytes(&stream, shared, 1, false)? {
                Wait::Ready(_) => {}
                Wait::Eof | Wait::Shutdown => return Ok(()),
            }
        }
        // The span starts once bytes are available — keep-alive idle
        // time between requests is not part of any request's trace.
        let mut span = shared.span();
        let t_read = Instant::now();
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.metrics.record_client_error();
                let msg = e.to_string();
                let t_write = Instant::now();
                proto::write_response(&mut writer, &proto::Response::BadRequest(msg))?;
                if let Some(s) = span.as_mut() {
                    s.add(Stage::Parse, t_read.elapsed().as_nanos() as u64);
                }
                finish_trace(
                    shared,
                    span,
                    "query",
                    "bad_request",
                    0,
                    t_write.elapsed().as_nanos() as u64,
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let Some(s) = span.as_mut() {
            s.add(Stage::Parse, t_read.elapsed().as_nanos() as u64);
        }
        let (kind, items) = match &frame {
            proto::Frame::Query(pairs) => ("query", pairs.len() as u64),
            proto::Frame::QueryTraced { pairs, .. } => ("query", pairs.len() as u64),
            proto::Frame::Insert(edges) => ("insert", edges.len() as u64),
        };
        let response = match &frame {
            proto::Frame::Query(pairs) => answer_batch(shared, pairs, span.as_mut()),
            proto::Frame::QueryTraced { trace_id, pairs } => {
                // Adopt the client's correlation ID: the trace lands in
                // /debug/trace and the log under the ID the client chose.
                if let Some(s) = span.as_mut() {
                    s.set_id(*trace_id);
                }
                answer_batch(shared, pairs, span.as_mut())
            }
            proto::Frame::Insert(edges) => apply_inserts(shared, edges, span.as_mut()),
        };
        let status = response_status(&response);
        let t_write = Instant::now();
        proto::write_response(&mut writer, &response)?;
        finish_trace(
            shared,
            span,
            kind,
            status,
            items,
            t_write.elapsed().as_nanos() as u64,
        );
    }
}

// --------------------------------------------------------------- http

fn http_text<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    body: &str,
    ka: bool,
) -> io::Result<()> {
    http::write_response(
        w,
        status,
        reason,
        "text/plain; charset=utf-8",
        body.as_bytes(),
        ka,
    )
}

/// Answers 400 for a present-but-non-numeric query parameter (absent
/// parameters take defaults; garbage must not be silently ignored).
fn bad_param<W: Write>(
    shared: &Shared,
    w: &mut W,
    key: &str,
    raw: &str,
    keep_alive: bool,
) -> io::Result<()> {
    shared.metrics.record_client_error();
    http_text(
        w,
        400,
        "Bad Request",
        &format!("query parameter {key}={raw:?} is not a number\n"),
        keep_alive,
    )
}

/// Renders the workload sketch as JSON for `GET /debug/hotspots`:
/// distinct-pair estimate, total traffic, and the top-`n` hot pairs and
/// hot source vertices with their SpaceSaving error bounds.
fn hotspots_json(shared: &Shared, n: usize) -> String {
    use std::fmt::Write;
    let Some(w) = shared.engine.workload() else {
        return "{\"enabled\":false}\n".into();
    };
    // Heavy hitters are folded in on the engine's sketcher thread; give
    // it a bounded moment to catch up so the rankings reflect all
    // completed batches (under sustained load the current values are
    // served as-is).
    shared
        .engine
        .workload_quiesce(std::time::Duration::from_millis(250));
    let mut body = String::with_capacity(1024);
    let _ = write!(
        body,
        "{{\"enabled\":true,\"total_pairs\":{},\"distinct_pairs_estimate\":{:.1},\
         \"hot_pair_share\":{:.6}",
        w.total_pairs(),
        w.distinct_pairs(),
        w.hot_pair_share(),
    );
    body.push_str(",\"hot_pairs\":[");
    for (i, h) in w.hot_pairs(n).iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"s\":{},\"t\":{},\"count\":{},\"error\":{}}}",
            h.key.0, h.key.1, h.count, h.error
        );
    }
    body.push_str("],\"hot_sources\":[");
    for (i, h) in w.hot_sources(n).iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"vertex\":{},\"count\":{},\"error\":{}}}",
            h.key, h.count, h.error
        );
    }
    body.push_str("]}\n");
    body
}

/// Renders a list of traces as a JSON array (one `to_json` object each).
fn traces_json(traces: &[pspc_obs::RequestTrace]) -> String {
    let mut body = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&t.to_json());
    }
    body.push_str("]\n");
    body
}

fn serve_http(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    loop {
        if reader.buffer().is_empty() {
            match wait_for_bytes(&stream, shared, 1, false)? {
                Wait::Ready(_) => {}
                Wait::Eof | Wait::Shutdown => return Ok(()),
            }
        }
        // Span and read clock start once request bytes are available, so
        // keep-alive idle time is excluded from the parse stage.
        let mut span = shared.span();
        let t_read = Instant::now();
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.metrics.record_client_error();
                http_text(&mut writer, 400, "Bad Request", &format!("{e}\n"), false)?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let Some(s) = span.as_mut() {
            s.add(Stage::Parse, t_read.elapsed().as_nanos() as u64);
            // Adopt a client-supplied correlation ID (decimal u64): the
            // request's trace shows up in /debug/trace under that ID.
            if let Some(id) = req.header("x-pspc-trace-id").and_then(|v| v.parse().ok()) {
                s.set_id(id);
            }
        }
        let keep_alive = !req.wants_close();
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => http_text(&mut writer, 200, "OK", "ok\n", keep_alive)?,
            ("GET", "/metrics") => {
                let body = shared.metrics.snapshot(shared.gauges()).render();
                // Prometheus scrapers negotiate on the exposition
                // version, not just text/plain.
                http::write_response(
                    &mut writer,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    body.as_bytes(),
                    keep_alive,
                )?;
            }
            ("GET", "/debug/trace") => match req.query_usize("n", 32) {
                Ok(n) => {
                    let body = traces_json(&shared.traces.recent(n));
                    http::write_response(
                        &mut writer,
                        200,
                        "OK",
                        "application/json",
                        body.as_bytes(),
                        keep_alive,
                    )?;
                }
                Err(raw) => bad_param(shared, &mut writer, "n", raw, keep_alive)?,
            },
            ("GET", "/debug/slow") => match req.query_usize("n", shared.slow.capacity()) {
                Ok(n) => {
                    let body = traces_json(&shared.slow.slowest(n));
                    http::write_response(
                        &mut writer,
                        200,
                        "OK",
                        "application/json",
                        body.as_bytes(),
                        keep_alive,
                    )?;
                }
                Err(raw) => bad_param(shared, &mut writer, "n", raw, keep_alive)?,
            },
            ("GET", "/debug/hotspots") => match req.query_usize("n", 16) {
                Ok(n) => {
                    let body = hotspots_json(shared, n);
                    http::write_response(
                        &mut writer,
                        200,
                        "OK",
                        "application/json",
                        body.as_bytes(),
                        keep_alive,
                    )?;
                }
                Err(raw) => bad_param(shared, &mut writer, "n", raw, keep_alive)?,
            },
            ("POST", "/query") => {
                let json = req.query_param("format") == Some("json");
                let parsed = match span.as_mut() {
                    Some(s) => s.time(Stage::Parse, || read_pairs(req.body.as_slice())),
                    None => read_pairs(req.body.as_slice()),
                };
                match parsed {
                    Ok(pairs) => {
                        let response = answer_batch(shared, &pairs, span.as_mut());
                        let status = response_status(&response);
                        let t_write = Instant::now();
                        match response {
                            proto::Response::Answers(answers) => {
                                let mut body = Vec::new();
                                let (ctype, res) = if json {
                                    (
                                        "application/json",
                                        write_answers_json(&pairs, &answers, &mut body),
                                    )
                                } else {
                                    (
                                        "text/tab-separated-values",
                                        write_answers(&pairs, &answers, &mut body),
                                    )
                                };
                                res.expect("writing to a Vec cannot fail");
                                http::write_response(
                                    &mut writer,
                                    200,
                                    "OK",
                                    ctype,
                                    &body,
                                    keep_alive,
                                )?;
                            }
                            proto::Response::Rejected(msg) => http_text(
                                &mut writer,
                                503,
                                "Service Unavailable",
                                &format!("{msg}\n"),
                                keep_alive,
                            )?,
                            proto::Response::BadRequest(msg) => http_text(
                                &mut writer,
                                400,
                                "Bad Request",
                                &format!("{msg}\n"),
                                keep_alive,
                            )?,
                            proto::Response::Applied(_) | proto::Response::Conflict(_) => {
                                unreachable!("answer_batch never produces insert responses")
                            }
                        }
                        finish_trace(
                            shared,
                            span.take(),
                            "query",
                            status,
                            pairs.len() as u64,
                            t_write.elapsed().as_nanos() as u64,
                        );
                    }
                    Err(e) => {
                        shared.metrics.record_client_error();
                        let t_write = Instant::now();
                        http_text(
                            &mut writer,
                            400,
                            "Bad Request",
                            &format!("{e}\n"),
                            keep_alive,
                        )?;
                        finish_trace(
                            shared,
                            span.take(),
                            "query",
                            "bad_request",
                            0,
                            t_write.elapsed().as_nanos() as u64,
                        );
                    }
                }
            }
            ("POST", "/insert") => {
                let parsed = match span.as_mut() {
                    Some(s) => s.time(Stage::Parse, || read_pairs(req.body.as_slice())),
                    None => read_pairs(req.body.as_slice()),
                };
                match parsed {
                    Ok(edges) => {
                        let response = apply_inserts(shared, &edges, span.as_mut());
                        let status = response_status(&response);
                        let t_write = Instant::now();
                        match response {
                            proto::Response::Applied(applied) => http_text(
                                &mut writer,
                                200,
                                "OK",
                                &format!("applied {applied} of {} edges\n", edges.len()),
                                keep_alive,
                            )?,
                            proto::Response::Conflict(msg) => http_text(
                                &mut writer,
                                409,
                                "Conflict",
                                &format!("{msg}\n"),
                                keep_alive,
                            )?,
                            proto::Response::BadRequest(msg) => http_text(
                                &mut writer,
                                400,
                                "Bad Request",
                                &format!("{msg}\n"),
                                keep_alive,
                            )?,
                            proto::Response::Answers(_) | proto::Response::Rejected(_) => {
                                unreachable!(
                                    "apply_inserts never produces answers or admission rejections"
                                )
                            }
                        }
                        finish_trace(
                            shared,
                            span.take(),
                            "insert",
                            status,
                            edges.len() as u64,
                            t_write.elapsed().as_nanos() as u64,
                        );
                    }
                    Err(e) => {
                        shared.metrics.record_client_error();
                        let t_write = Instant::now();
                        http_text(
                            &mut writer,
                            400,
                            "Bad Request",
                            &format!("{e}\n"),
                            keep_alive,
                        )?;
                        finish_trace(
                            shared,
                            span.take(),
                            "insert",
                            "bad_request",
                            0,
                            t_write.elapsed().as_nanos() as u64,
                        );
                    }
                }
            }
            ("POST", "/shutdown") => {
                http_text(&mut writer, 200, "OK", "shutting down\n", false)?;
                if !shared.shutdown.swap(true, Ordering::AcqRel) {
                    info!("shutdown requested", via = "POST /shutdown");
                }
                // Wake the accept loop so `wait` observes the flag.
                if let Ok(addr) = stream.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
            ("GET" | "POST", _) => {
                http_text(
                    &mut writer,
                    404,
                    "Not Found",
                    "no such endpoint\n",
                    keep_alive,
                )?;
            }
            _ => http_text(
                &mut writer,
                405,
                "Method Not Allowed",
                "unsupported method\n",
                keep_alive,
            )?,
        }
        if !keep_alive || shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
    }
}
