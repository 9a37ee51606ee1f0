//! In-process calls into the query-side layers, and the per-layer
//! metrics derived from their spans.
//!
//! `local_queries` is both the build workload's timed query phase and
//! batch-uniform's traced replay of its own requests, so
//! `translate.*` and `merge.*` mean the same on every workload.

use crate::gate::Gate;
use crate::report::Metrics;
use crate::trace::{self_times, Span, Tracer};
use pspc_core::SpcIndex;
use pspc_graph::SpcAnswer;
use pspc_server::proto;
use pspc_service::IndexKind;
use std::time::Instant;

/// Span names of the layer calls, shared with the derivations below.
pub const RANK_PAIRS: &str = "kind.rank_pairs";
/// See [`RANK_PAIRS`].
pub const MERGE: &str = "kind.query_rank_batch_into";
const ENCODE_REQUEST: &str = "proto.write_request";
const DECODE_REQUEST: &str = "proto.read_frame";
const ENCODE_RESPONSE: &str = "proto.write_response";
const DECODE_RESPONSE: &str = "proto.read_response";

/// The undirected index behind a kind (the only kind benchmarked).
pub fn undirected(kind: &IndexKind) -> &SpcIndex {
    match kind {
        IndexKind::Undirected(i) => i,
        _ => unreachable!("the benchmark builds undirected indexes only"),
    }
}

/// Reference answers of `requests` from `SpcIndex::query_batch_sequential`,
/// computed off the clock on two threads.
pub fn reference(index: &SpcIndex, requests: &[Vec<(u32, u32)>]) -> Vec<Vec<SpcAnswer>> {
    let sequential = |part: &[Vec<(u32, u32)>]| -> Vec<Vec<SpcAnswer>> {
        part.iter()
            .map(|r| index.query_batch_sequential(r))
            .collect()
    };
    let (head, tail) = requests.split_at(requests.len() / 2);
    std::thread::scope(|s| {
        let tail = s.spawn(|| sequential(tail));
        let mut refs = sequential(head);
        refs.extend(tail.join().expect("reference thread panicked"));
        refs
    })
}

/// Answers each request on this thread through `IndexKind::rank_pairs`
/// and `IndexKind::query_rank_batch_into`. Request `k` is checked against
/// `refs[k / check_every]` when `check_every` divides `k`.
/// Returns per-request latencies in microseconds and the wall seconds.
pub fn local_queries(
    kind: &IndexKind,
    requests: &[Vec<(u32, u32)>],
    refs: &[Vec<SpcAnswer>],
    check_every: usize,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> (Vec<f64>, f64) {
    let mut out = Vec::new();
    let mut lat_us = Vec::with_capacity(requests.len());
    let wall = Instant::now();
    for (k, req) in requests.iter().enumerate() {
        let k = k as u64;
        let t0 = Instant::now();
        let root = tracer.begin("local.request", None, k);
        let parent = tracer.id(root);
        let ranks = tracer.span(RANK_PAIRS, parent, k, || kind.rank_pairs(req));
        tracer.span(MERGE, parent, k, || {
            kind.query_rank_batch_into(&ranks, &mut out)
        });
        tracer.end(root);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if k.is_multiple_of(check_every as u64) {
            gate.check("in-process request", &out, &refs[k as usize / check_every]);
        }
    }
    (lat_us, wall.elapsed().as_secs_f64())
}

/// Encodes and decodes each request and its answers over in-memory
/// buffers, both directions, checking that every frame round-trips.
pub fn proto_replay(
    requests: &[Vec<(u32, u32)>],
    answers: &[Vec<SpcAnswer>],
    tracer: &mut Tracer,
    gate: &mut Gate,
) {
    let mut buf = Vec::new();
    for (k, (req, ans)) in requests.iter().zip(answers).enumerate() {
        let k = k as u64;
        let root = tracer.begin("proto.replay", None, k);
        let parent = tracer.id(root);
        buf.clear();
        let wrote = tracer.span(ENCODE_REQUEST, parent, k, || {
            proto::write_request(&mut buf, req)
        });
        let frame = tracer.span(DECODE_REQUEST, parent, k, || {
            proto::read_frame(&mut &buf[..])
        });
        let request_ok = wrote.is_ok()
            && matches!(frame, Ok(Some(proto::Frame::Query(ref pairs))) if pairs == req);
        let response = proto::Response::Answers(ans.clone());
        buf.clear();
        let wrote = tracer.span(ENCODE_RESPONSE, parent, k, || {
            proto::write_response(&mut buf, &response)
        });
        let decoded = tracer.span(DECODE_RESPONSE, parent, k, || {
            proto::read_response(&mut &buf[..])
        });
        tracer.end(root);
        let response_ok = wrote.is_ok() && decoded.ok().as_ref() == Some(&response);
        gate.check_eq("protocol round trip", &(request_ok && response_ok), &true);
    }
}

/// Mean `|L(s)| + |L(t)|` over the pairs, the paper's query cost model.
pub fn entries_per_query(index: &SpcIndex, requests: &[Vec<(u32, u32)>]) -> f64 {
    let (mut entries, mut pairs) = (0u64, 0u64);
    for &(s, t) in requests.iter().flatten() {
        let arena = index.label_arena();
        let order = index.order();
        entries += (arena.len_of(order.rank_of(s)) + arena.len_of(order.rank_of(t))) as u64;
        pairs += 1;
    }
    entries as f64 / pairs.max(1) as f64
}

/// Per-layer metrics derived from the spans of [`local_queries`] and
/// [`proto_replay`]: `pairs` is the number of pairs the traced
/// `local_queries` call answered.
pub fn from_spans(spans: &[Span], pairs: u64, into: &mut Metrics) {
    let selfs = self_times(spans);
    let total = |name: &str| -> (f64, f64) {
        let (ns, n) = crate::trace::self_total(spans, &selfs, name);
        (ns as f64, n as f64)
    };
    let per_pair = |name: &str| total(name).0 / pairs.max(1) as f64;
    into.insert("translate.ns_per_pair", per_pair(RANK_PAIRS));
    into.insert("merge.ns_per_query", per_pair(MERGE));
    let (enc_req, n) = total(ENCODE_REQUEST);
    let (enc_resp, _) = total(ENCODE_RESPONSE);
    let (dec_req, _) = total(DECODE_REQUEST);
    let (dec_resp, _) = total(DECODE_RESPONSE);
    into.insert("proto.encode_ns", (enc_req + enc_resp) / n.max(1.0));
    into.insert("proto.decode_ns", (dec_req + dec_resp) / n.max(1.0));
}
