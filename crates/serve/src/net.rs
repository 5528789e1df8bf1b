//! Multi-process serving: shard workers behind the length-prefixed
//! transport.
//!
//! One worker process hosts one store shard. The driver (`agl-cli serve
//! --workers N`) spawns them under the same `ChildReaper` supervision
//! `dist-run` uses, loads each worker with its hash-partition of the
//! vectors, and then routes queries: point lookups go only to the owning
//! shard, top-k fans out to every worker and merges the per-shard
//! candidates by the same total order the in-process store uses — so the
//! distributed answer is bit-identical to the single-process one.
//!
//! The control frames, the client call and the worker loop are the shared
//! [`agl_mapreduce::rpc`] skeleton; this module owns the messages and the
//! request handler.

use crate::store::{shard_of, Neighbor, ShardSlab};
use agl_graph::NodeId;
use agl_mapreduce::codec::{
    get_count_u64, get_f32, get_f32s, get_span_ctx, get_u32, get_u64, get_u8, put_f32, put_f32s, put_span_ctx, put_u32,
    put_u64, put_u8, Codec, CodecError,
};
use agl_mapreduce::rpc::{self, unexpected, Client, PeerKind, Reply, Service, Step, TraceIdentity};
use agl_mapreduce::transport::{FrameStats, TagNames};
use agl_mapreduce::{Counters, DistOptions, Endpoint, Listener, TransportError};
use agl_obs::{Clock, Obs, SpanContext};

/// Serving wire protocol (u32-le length-prefixed frames via
/// [`agl_mapreduce::Framed`]), besides the [`rpc`] control frames a worker
/// sends back: a counter snapshot (tag 7) ahead of every `flush_every`-th
/// answer, and the `Bye` (tag 8) that acknowledges `Shutdown`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeWireMsg {
    /// Driver → worker: replace the shard contents. Also carries the
    /// shard's trace identity and the metrics flush cadence (`flush_every`
    /// answered requests; 0 disables mid-flight snapshots).
    Load { dim: u32, entries: Vec<(u64, Vec<f32>)>, identity: TraceIdentity, flush_every: u64 },
    /// Worker → driver: load acknowledged, with the entry count.
    Loaded { n: u64 },
    /// Driver → worker: point lookups (only ids this shard owns). `ctx` is
    /// the driver-side RPC span; the worker span parents under it.
    Lookup { ids: Vec<u64>, ctx: Option<SpanContext> },
    /// Worker → driver: positional answers (empty vec = miss).
    LookupResp { answers: Vec<Vec<f32>> },
    /// Driver → worker: per-shard top-k candidates for a query vector.
    TopK { query: Vec<f32>, k: u32, exclude: Option<u64>, ctx: Option<SpanContext> },
    /// Worker → driver: this shard's candidates, (score, id) best-first.
    TopKResp { candidates: Vec<(f32, u64)> },
    /// Driver → worker: exit cleanly (the worker answers `Bye`).
    Shutdown,
}

const TAG_LOAD: u8 = 0;
const TAG_LOADED: u8 = 1;
const TAG_LOOKUP: u8 = 2;
const TAG_LOOKUP_RESP: u8 = 3;
const TAG_TOPK: u8 = 4;
const TAG_TOPK_RESP: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_METRICS: u8 = 7;
const TAG_BYE: u8 = 8;

/// Metric names of the tags (RPC telemetry); the serve protocol is
/// symmetric, so one table covers both directions.
const SERVE_MSG_NAMES: TagNames =
    &["load", "loaded", "lookup", "lookup_resp", "topk", "topk_resp", "shutdown", "metrics", "bye"];

impl Codec for ServeWireMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Load { dim, entries, identity, flush_every } => {
                put_u8(buf, TAG_LOAD);
                put_u32(buf, *dim);
                put_u64(buf, entries.len() as u64);
                for (id, v) in entries {
                    put_u64(buf, *id);
                    put_f32s(buf, v);
                }
                identity.encode(buf);
                put_u64(buf, *flush_every);
            }
            Self::Loaded { n } => {
                put_u8(buf, TAG_LOADED);
                put_u64(buf, *n);
            }
            Self::Lookup { ids, ctx } => {
                put_u8(buf, TAG_LOOKUP);
                put_u64(buf, ids.len() as u64);
                for id in ids {
                    put_u64(buf, *id);
                }
                put_span_ctx(buf, *ctx);
            }
            Self::LookupResp { answers } => {
                put_u8(buf, TAG_LOOKUP_RESP);
                put_u64(buf, answers.len() as u64);
                for v in answers {
                    put_f32s(buf, v);
                }
            }
            Self::TopK { query, k, exclude, ctx } => {
                put_u8(buf, TAG_TOPK);
                put_f32s(buf, query);
                put_u32(buf, *k);
                match exclude {
                    Some(id) => {
                        put_u8(buf, 1);
                        put_u64(buf, *id);
                    }
                    None => put_u8(buf, 0),
                }
                put_span_ctx(buf, *ctx);
            }
            Self::TopKResp { candidates } => {
                put_u8(buf, TAG_TOPK_RESP);
                put_u64(buf, candidates.len() as u64);
                for (score, id) in candidates {
                    put_f32(buf, *score);
                    put_u64(buf, *id);
                }
            }
            Self::Shutdown => put_u8(buf, TAG_SHUTDOWN),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let msg = match get_u8(input)? {
            TAG_LOAD => {
                let dim = get_u32(input)?;
                // An id and a vector length per entry.
                let n = get_count_u64(input, 12)?;
                let entries = (0..n).map(|_| Ok((get_u64(input)?, get_f32s(input)?))).collect::<Result<_, _>>()?;
                let identity = TraceIdentity::decode(input)?;
                let flush_every = get_u64(input)?;
                Self::Load { dim, entries, identity, flush_every }
            }
            TAG_LOADED => Self::Loaded { n: get_u64(input)? },
            TAG_LOOKUP => {
                let n = get_count_u64(input, 8)?;
                Self::Lookup {
                    ids: (0..n).map(|_| get_u64(input)).collect::<Result<_, _>>()?,
                    ctx: get_span_ctx(input)?,
                }
            }
            TAG_LOOKUP_RESP => {
                let n = get_count_u64(input, 4)?;
                Self::LookupResp { answers: (0..n).map(|_| get_f32s(input)).collect::<Result<_, _>>()? }
            }
            TAG_TOPK => Self::TopK {
                query: get_f32s(input)?,
                k: get_u32(input)?,
                exclude: if get_u8(input)? == 1 { Some(get_u64(input)?) } else { None },
                ctx: get_span_ctx(input)?,
            },
            TAG_TOPK_RESP => {
                let n = get_count_u64(input, 12)?;
                let candidates = (0..n).map(|_| Ok((get_f32(input)?, get_u64(input)?))).collect::<Result<_, _>>()?;
                Self::TopKResp { candidates }
            }
            TAG_SHUTDOWN => Self::Shutdown,
            t => return Err(CodecError(format!("serve wire msg: bad tag {t}"))),
        };
        Ok(msg)
    }
}

impl Reply for ServeWireMsg {
    const BYE: u8 = TAG_BYE;
    const METRICS: Option<u8> = Some(TAG_METRICS);
}

fn sort_candidates(c: &mut Vec<(f32, u64)>, k: usize) {
    c.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    c.truncate(k);
}

/// Host one shard: accept a single driver connection — within
/// [`DistOptions::default`]'s connect timeout, so a worker whose driver
/// never arrives exits — and answer requests until `Shutdown` or EOF.
/// Blocks the calling thread; `agl-cli serve-worker` calls this as the
/// child process's whole life.
///
/// When the `Load` message enables tracing, every lookup/top-k opens a
/// span on the `serve` track parented under the driver RPC span whose
/// context rode the request, a cumulative counter snapshot is flushed
/// every `flush_every` answered requests, and `Shutdown` is acknowledged
/// with a `Bye` carrying the final counters and trace.
pub fn serve_shard_worker(ep: &Endpoint) -> Result<(), TransportError> {
    let listener = Listener::bind(ep)?;
    let mut framed = rpc::accept(&listener, DistOptions::default().connect_timeout_ns)?;
    rpc::serve(&mut framed, &mut ShardWorker::default())
}

/// One shard worker's state: its slab and, from `Load` on, its
/// observability and flush cadence.
#[derive(Default)]
struct ShardWorker {
    slab: ShardSlab,
    obs: Obs,
    flush_every: u64,
}

impl Service for ShardWorker {
    type Request = ServeWireMsg;
    type Reply = ServeWireMsg;

    fn handle(&mut self, req: ServeWireMsg) -> Result<Step<ServeWireMsg>, TransportError> {
        let (slab, obs) = (&self.slab, &self.obs);
        Ok(match req {
            ServeWireMsg::Load { dim, entries, identity, flush_every } => {
                self.obs = identity.obs();
                self.flush_every = flush_every;
                self.slab = ShardSlab::build(entries, dim as usize);
                self.obs.metric_add("serve.loaded_entries", self.slab.len() as u64);
                Step::Reply(ServeWireMsg::Loaded { n: self.slab.len() as u64 })
            }
            ServeWireMsg::Lookup { ids, ctx } => {
                let mut span = obs.span_child_of("serve", "serve.lookup", ctx);
                span.counter("ids", ids.len() as u64);
                obs.metric_add("serve.lookups", 1);
                let answers =
                    ids.iter().map(|&id| slab.get(NodeId(id)).map(<[f32]>::to_vec).unwrap_or_default()).collect();
                Step::Paced(ServeWireMsg::LookupResp { answers })
            }
            ServeWireMsg::TopK { query, k, exclude, ctx } => {
                let mut span = obs.span_child_of("serve", "serve.topk", ctx);
                span.counter("k", u64::from(k));
                obs.metric_add("serve.topks", 1);
                let mut candidates: Vec<(f32, u64)> = slab
                    .iter()
                    .filter(|(node, _)| Some(node.0) != exclude)
                    .map(|(node, v)| (v.iter().zip(&query).map(|(a, b)| a * b).sum::<f32>(), node.0))
                    .collect();
                sort_candidates(&mut candidates, k as usize);
                Step::Paced(ServeWireMsg::TopKResp { candidates })
            }
            ServeWireMsg::Shutdown => Step::Bye,
            other => {
                return Err(TransportError::Protocol(format!("serve worker: unexpected request {other:?}")));
            }
        })
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn flush_every(&self) -> u64 {
        self.flush_every
    }
}

/// Driver-side handle over `N` shard workers — the same query surface as
/// the in-process store, answered over sockets.
pub struct RemoteStore {
    conns: Vec<Client>,
    dim: usize,
    /// Driver-side observability: RPC spans and frame telemetry, plus the
    /// merge target for worker snapshots and `Bye` traces.
    obs: Obs,
}

impl RemoteStore {
    /// Connect to every worker (in shard order) and load each with its
    /// hash-partition of `vectors`. `timeout_ns` bounds the connect and
    /// every later reply wait, so a worker that hangs surfaces as
    /// [`TransportError::Timeout`].
    pub fn connect(
        endpoints: &[Endpoint],
        vectors: impl IntoIterator<Item = (NodeId, Vec<f32>)>,
        clock: &Clock,
        timeout_ns: u64,
    ) -> Result<Self, TransportError> {
        Self::connect_with_obs(endpoints, vectors, clock, timeout_ns, Obs::default(), 0)
    }

    /// [`RemoteStore::connect`] with observability: every connection gets
    /// RPC frame telemetry (`rpc.serve.s{i}.*`), queries carry the caller's
    /// span context so worker spans parent under driver RPCs, mid-flight
    /// worker snapshots land as `shard{i}.{name}` counters, and
    /// [`RemoteStore::shutdown`] merges each worker's trace under a
    /// `shard{i}/` track prefix.
    pub fn connect_with_obs(
        endpoints: &[Endpoint],
        vectors: impl IntoIterator<Item = (NodeId, Vec<f32>)>,
        clock: &Clock,
        timeout_ns: u64,
        obs: Obs,
        flush_every: u64,
    ) -> Result<Self, TransportError> {
        let n = endpoints.len();
        assert!(n > 0, "need at least one shard worker");
        let mut buckets: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); n];
        let mut dim = 0usize;
        for (node, v) in vectors {
            dim = v.len();
            buckets[shard_of(node, n)].push((node.0, v));
        }
        let opts = DistOptions { connect_timeout_ns: timeout_ns, io_timeout_ns: timeout_ns };
        let counters = Counters::for_obs(&obs);
        let mut conns = Vec::with_capacity(n);
        for (i, (ep, bucket)) in endpoints.iter().zip(buckets).enumerate() {
            let stats = FrameStats::from_obs(&obs, &format!("serve.s{i}"), SERVE_MSG_NAMES, SERVE_MSG_NAMES);
            let mut client = Client::connect(ep, clock, &opts, stats, format!("shard{i}"), counters.clone())?;
            let loaded = bucket.len() as u64;
            let load = ServeWireMsg::Load {
                dim: dim as u32,
                entries: bucket,
                identity: TraceIdentity::for_peer(&obs, PeerKind::Serve, i),
                flush_every,
            };
            match client.call(&load)? {
                ServeWireMsg::Loaded { n } if n == loaded => conns.push(client),
                other => return Err(unexpected("load", other)),
            }
        }
        Ok(Self { conns, dim, obs })
    }

    /// Vector dimension of the loaded store.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Batched point lookups: ids grouped per owning shard (one round trip
    /// per touched shard), answers returned positionally.
    pub fn lookup(&mut self, ids: &[NodeId]) -> Result<Vec<Option<Vec<f32>>>, TransportError> {
        let span = self.obs.span("serve.driver", "rpc.serve.lookup");
        let ctx = span.context();
        let n = self.conns.len();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pos, id) in ids.iter().enumerate() {
            groups[shard_of(*id, n)].push(pos);
        }
        let mut out: Vec<Option<Vec<f32>>> = vec![None; ids.len()];
        for (conn, group) in self.conns.iter_mut().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let req = ServeWireMsg::Lookup { ids: group.iter().map(|&p| ids[p].0).collect(), ctx };
            match conn.call(&req)? {
                ServeWireMsg::LookupResp { answers } if answers.len() == group.len() => {
                    for (&pos, v) in group.iter().zip(answers) {
                        out[pos] = if v.is_empty() { None } else { Some(v) };
                    }
                }
                other => return Err(unexpected("lookup", other)),
            }
        }
        Ok(out)
    }

    /// Exact top-k across all shards: fan out, merge candidates by
    /// (score desc, id asc) — bit-identical to the in-process store.
    pub fn topk(&mut self, query: &[f32], k: usize, exclude: Option<NodeId>) -> Result<Vec<Neighbor>, TransportError> {
        let span = self.obs.span("serve.driver", "rpc.serve.topk");
        let ctx = span.context();
        let req = ServeWireMsg::TopK { query: query.to_vec(), k: k as u32, exclude: exclude.map(|n| n.0), ctx };
        let bytes = req.to_bytes();
        let mut merged: Vec<(f32, u64)> = Vec::new();
        for conn in &mut self.conns {
            conn.send(&bytes)?;
        }
        for conn in &mut self.conns {
            match conn.reply()? {
                ServeWireMsg::TopKResp { candidates } => merged.extend(candidates),
                other => return Err(unexpected("topk", other)),
            }
        }
        sort_candidates(&mut merged, k);
        Ok(merged.into_iter().map(|(score, id)| Neighbor { node: NodeId(id), score }).collect())
    }

    /// Ask every worker to exit. Each worker acknowledges with a `Bye`;
    /// its trace merges into this driver's sink under a `shard{i}/` track
    /// prefix and its final counters land as `shard{i}.{name}` (by max,
    /// superseding any mid-flight snapshots). Errors are swallowed: a
    /// worker that already died has already shut down.
    pub fn shutdown(&mut self) {
        for conn in &mut self.conns {
            conn.shutdown::<ServeWireMsg>(&ServeWireMsg::Shutdown, &self.obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EmbeddingStore;
    use crate::ServeConfig;
    use agl_mapreduce::codec::put_counters;
    use agl_mapreduce::rpc::Bye;

    #[test]
    fn wire_roundtrip() {
        let msgs = [
            ServeWireMsg::Load {
                dim: 3,
                entries: vec![(7, vec![1.0, 2.0, 3.0]), (9, vec![0.0, -1.0, 0.5])],
                identity: TraceIdentity { trace: true, trace_id: 42, salt: 2001 },
                flush_every: 8,
            },
            ServeWireMsg::Loaded { n: 2 },
            ServeWireMsg::Lookup { ids: vec![7, 11], ctx: Some(SpanContext { trace_id: 42, span_id: 9 }) },
            ServeWireMsg::LookupResp { answers: vec![vec![1.0, 2.0, 3.0], vec![]] },
            ServeWireMsg::TopK { query: vec![0.5, 0.5, 0.5], k: 4, exclude: Some(7), ctx: None },
            ServeWireMsg::TopKResp { candidates: vec![(2.5, 9), (1.0, 7)] },
            ServeWireMsg::Shutdown,
        ];
        for m in msgs {
            assert_eq!(ServeWireMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
        assert_eq!([SERVE_MSG_NAMES[TAG_LOAD as usize], SERVE_MSG_NAMES[TAG_BYE as usize]], ["load", "bye"]);
        // Golden bytes. `Load`: dim, a `u64` entry count, (id, f32s) per
        // entry, then the trace identity and the flush cadence.
        let load = ServeWireMsg::Load {
            dim: 1,
            entries: vec![(7, vec![0.5])],
            identity: TraceIdentity { trace: true, trace_id: 42, salt: 2001 },
            flush_every: 8,
        };
        let golden: Vec<u8> = [
            &[TAG_LOAD, 1, 0, 0, 0][..],
            &1u64.to_le_bytes(),
            &7u64.to_le_bytes(),
            &[1, 0, 0, 0],
            &0.5f32.to_le_bytes(),
            &[1],
            &42u64.to_le_bytes(),
            &2001u64.to_le_bytes(),
            &8u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(load.to_bytes(), golden);
        // `Lookup`: a `u64` id count, the ids, the span-context header.
        let lookup = ServeWireMsg::Lookup { ids: vec![7], ctx: None };
        let golden: Vec<u8> = [&[TAG_LOOKUP][..], &1u64.to_le_bytes(), &7u64.to_le_bytes(), &[0]].concat();
        assert_eq!(lookup.to_bytes(), golden);
        // Control frames, tag then payload: a counter list; `Bye` follows it
        // with the trace.
        let mut metrics = vec![ServeWireMsg::METRICS.unwrap()];
        put_counters(&mut metrics, &[("n".to_string(), 9)]);
        let golden: Vec<u8> = [&[TAG_METRICS, 1, 0, 0, 0, 1, 0, 0, 0, b'n'][..], &9u64.to_le_bytes()].concat();
        assert_eq!(metrics, golden);
        let mut bye = vec![ServeWireMsg::BYE];
        Bye { counters: vec![("n".to_string(), 9)], trace: vec![] }.encode(&mut bye);
        let golden: Vec<u8> =
            [&[TAG_BYE, 1, 0, 0, 0, 1, 0, 0, 0, b'n'][..], &9u64.to_le_bytes(), &[0, 0, 0, 0]].concat();
        assert_eq!(bye, golden);
        // Inflated counts — every count a serve message carries, set to its
        // maximum — are refused against the remaining input, never handed
        // to the allocator. The 9-byte `Lookup` claiming `u64::MAX` ids is
        // the smallest such frame.
        let lookup_max: Vec<u8> = [&[TAG_LOOKUP][..], &u64::MAX.to_le_bytes()].concat();
        let lookup_resp = ServeWireMsg::LookupResp { answers: vec![] }.to_bytes();
        let topk_resp = ServeWireMsg::TopKResp { candidates: vec![] }.to_bytes();
        for (msg, count_at, width) in
            [(load.to_bytes(), 5, 8), (lookup_max, 1, 8), (lookup_resp, 1, 8), (topk_resp, 1, 8)]
        {
            let mut inflated = msg;
            inflated[count_at..count_at + width].fill(0xFF);
            let err = ServeWireMsg::from_bytes(&inflated).unwrap_err();
            assert!(err.0.contains("exceeds remaining"), "count at {count_at}: {err}");
        }
    }

    #[test]
    fn truncated_bye_and_bad_ctx_version_are_rejected() {
        let bye = Bye { counters: vec![("c".to_string(), 1)], trace: vec![] }.to_bytes();
        assert!(Bye::from_bytes(&bye[..bye.len() - 2]).is_err());
        // A `Bye` whose counter count, or trace-event count, outruns its
        // input.
        for at in [0, bye.len() - 4] {
            let mut inflated = bye.clone();
            inflated[at..at + 4].fill(0xFF);
            let err = Bye::from_bytes(&inflated).unwrap_err();
            assert!(err.0.contains("exceeds remaining"), "{}", err.0);
        }
        // Neither control frame is a `ServeWireMsg`.
        for tag in [TAG_METRICS, TAG_BYE] {
            assert!(ServeWireMsg::from_bytes(&[tag, 0, 0, 0, 0]).is_err());
        }
        let mut lookup = ServeWireMsg::Lookup { ids: vec![], ctx: None }.to_bytes();
        *lookup.last_mut().unwrap() = 250; // span-ctx version byte
        let err = ServeWireMsg::from_bytes(&lookup).unwrap_err();
        assert!(err.0.contains("unknown span context version 250"), "{}", err.0);
    }

    #[test]
    fn obs_parents_worker_spans_and_flushes_metrics() {
        let dir = std::env::temp_dir().join(format!("agl-serve-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("shard{i}.sock")))).collect();
        let vectors: Vec<(NodeId, Vec<f32>)> = (0..16u64).map(|i| (NodeId(i), vec![i as f32, 1.0])).collect();
        let obs = Obs::enabled_with_identity(Clock::logical(), 5, 0);
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || serve_shard_worker(ep).unwrap());
            }
            let clock = Clock::monotonic();
            let mut remote =
                RemoteStore::connect_with_obs(&eps, vectors, &clock, 2_000_000_000, obs.clone(), 1).unwrap();
            remote.lookup(&[NodeId(3), NodeId(8)]).unwrap();
            remote.topk(&[1.0, 0.0], 4, None).unwrap();
            remote.shutdown();
        });
        let events = obs.trace().unwrap().events();
        let driver_ids: std::collections::HashSet<u64> =
            events.iter().filter(|e| e.track == "serve.driver").map(|e| e.span_id).collect();
        assert!(!driver_ids.is_empty(), "driver RPC spans recorded");
        let worker_spans: Vec<_> = events.iter().filter(|e| e.track.starts_with("shard")).collect();
        assert!(!worker_spans.is_empty(), "worker traces merged");
        for e in &worker_spans {
            assert!(
                driver_ids.contains(&e.parent_id),
                "worker span {} on {} has parent {} outside the driver RPC spans",
                e.name,
                e.track,
                e.parent_id
            );
        }
        let m = obs.metrics().unwrap();
        assert_eq!(m.get("shard0.serve.topks") + m.get("shard1.serve.topks"), 2, "{}", m.render());
        assert!(m.get("rpc.serve.s0.send.topk.frames") > 0, "{}", m.render());
        assert!(m.get("rpc.serve.s0.recv.metrics.frames") > 0, "flush_every=1 must snapshot: {}", m.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker that answers `Load` and then stalls makes the next lookup
    /// fail with a timeout within the read deadline — not hang.
    #[test]
    fn stalled_worker_is_a_timeout_not_a_hang() {
        let dir = std::env::temp_dir().join(format!("agl-serve-stall-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ep = Endpoint::Unix(dir.join("shard0.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let (done, stalled) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let listener = &listener;
            s.spawn(move || {
                let mut framed = rpc::accept(listener, 5_000_000_000).unwrap();
                let load = ServeWireMsg::from_bytes(&framed.recv().unwrap().unwrap()).unwrap();
                assert!(matches!(load, ServeWireMsg::Load { .. }));
                framed.send(&ServeWireMsg::Loaded { n: 1 }.to_bytes()).unwrap();
                // Read the lookup, never answer it, hold the socket open.
                framed.recv().unwrap();
                stalled.recv().ok();
            });
            let clock = Clock::monotonic();
            let deadline_ns = 300_000_000;
            let mut remote =
                RemoteStore::connect(std::slice::from_ref(&ep), [(NodeId(1), vec![1.0])], &clock, deadline_ns).unwrap();
            #[expect(clippy::disallowed_methods, reason = "bounds the real wait, apart from the clock under test")]
            let start = std::time::Instant::now();
            let err = remote.lookup(&[NodeId(1)]).unwrap_err();
            assert!(matches!(err, TransportError::Timeout { .. }), "{err}");
            assert!(start.elapsed() < std::time::Duration::from_secs(5), "waited {:?}", start.elapsed());
            done.send(()).unwrap();
        });
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two in-process "workers" over UDS answer bit-identically to the
    /// single-process store.
    #[test]
    fn remote_matches_local_store() {
        let dir = std::env::temp_dir().join(format!("agl-serve-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("shard{i}.sock")))).collect();
        let vectors: Vec<(NodeId, Vec<f32>)> =
            (0..40u64).map(|i| (NodeId(i), vec![i as f32 * 0.1, 1.0 - i as f32 * 0.05, 0.3])).collect();
        let local = EmbeddingStore::from_vectors(vectors.clone(), &ServeConfig { shards: 2, ..ServeConfig::default() });

        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || serve_shard_worker(ep).unwrap());
            }
            let clock = Clock::monotonic();
            let mut remote = RemoteStore::connect(&eps, vectors.clone(), &clock, 2_000_000_000).unwrap();

            let ids: Vec<NodeId> = [5u64, 0, 39, 99, 12].map(NodeId).to_vec();
            let got = remote.lookup(&ids).unwrap();
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(got[i], local.get(*id).map(|r| r.to_vec()), "id {}", id.0);
            }

            let query = [1.0f32, -0.5, 2.0];
            let want = local.topk(&query, 6);
            let have = remote.topk(&query, 6, None).unwrap();
            assert_eq!(have, want);

            let want_nb = local.topk_neighbors(NodeId(3), 5).unwrap();
            let q = local.get(NodeId(3)).unwrap().to_vec();
            let have_nb = remote.topk(&q, 5, Some(NodeId(3))).unwrap();
            assert_eq!(have_nb, want_nb);

            remote.shutdown();
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
