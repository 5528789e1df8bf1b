//! The parameter server over a socket: one pull/push code path for
//! in-process and multi-process training.
//!
//! The paper's GraphTrainer talks to its parameter servers over the
//! network; our [`crate::ParameterServer`] is in-process. This module puts
//! the *same* server behind the `agl-mapreduce` transport so each shard can
//! run as its own OS process:
//!
//! - [`PsClient`] is the trait the trainer codes against. The in-process
//!   implementation is [`ParameterServer`] itself (infallible, zero-copy of
//!   behaviour); the remote one is [`RemotePs`], which speaks the framed
//!   request/response protocol below.
//! - [`serve_ps_shard`] is the worker-process side: it accepts a control
//!   connection whose first message carries the shard's parameter slice and
//!   optimizer spec, builds a **1-shard** `ParameterServer` from it, and
//!   then serves pull/push from per-trainer-worker connections.
//!
//! The handshake, the `Bye` control frame, the client call and the server
//! loop are the shared [`agl_mapreduce::rpc`] skeleton; this module owns
//! the messages and the request handler.
//!
//! Sharding composes exactly: the in-process server splits the model
//! elementwise into contiguous shard slices, each with its own optimizer
//! state, and sync-mode pushes sum in worker-id order per shard — so S
//! separate 1-shard server *processes* over the same slices apply
//! bit-identical updates to an S-shard in-process server (pinned by the
//! `sharding_matches_single_shard_result` test in-process, and by the
//! distributed-vs-local CLI verification end to end).
//!
//! ## Blocking and failure
//!
//! Sync/SSP pushes block server-side until the round completes — that is
//! the consistency contract, not a hang. Client reads are bounded by the
//! connection's read timeout: if a shard process dies mid-epoch, every
//! worker's next pull/push surfaces a typed [`TransportError`] within the
//! timeout instead of blocking forever.

use crate::server::{shard_layout, Consistency, ParameterServer, PsStats, WorkerPsStats};
use agl_mapreduce::codec::{self, Codec, CodecError};
use agl_mapreduce::rpc::{self, unexpected, Client, PeerKind, Reply, Service, Step, TraceIdentity};
use agl_mapreduce::transport::{Endpoint, FrameStats, Listener, TagNames, TransportError};
use agl_mapreduce::{Counters, DistOptions, Framed};
use agl_nn::{Adam, Optimizer, Sgd};
use agl_obs::{Clock, Obs, SpanContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Mutex acquisition for connection and error-slot mutexes, ignoring
/// poison. They are never held together with the server's state lock (all
/// server state is reached through `ParameterServer`'s public methods).
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server-side optimizer recipe, sent over the wire at shard init.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptSpec {
    /// Plain SGD with the given learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam with the given learning rate (default betas/epsilon).
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptSpec {
    /// Instantiate the optimizer this spec describes.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptSpec::Sgd { lr } => Box::new(Sgd::new(lr)),
            OptSpec::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }
}

impl Codec for OptSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            OptSpec::Sgd { lr } => {
                codec::put_u8(buf, 0);
                codec::put_f32(buf, lr);
            }
            OptSpec::Adam { lr } => {
                codec::put_u8(buf, 1);
                codec::put_f32(buf, lr);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = codec::get_u8(input)?;
        let lr = codec::get_f32(input)?;
        match tag {
            0 => Ok(OptSpec::Sgd { lr }),
            1 => Ok(OptSpec::Adam { lr }),
            t => Err(CodecError(format!("unknown optimizer tag {t}"))),
        }
    }
}

fn put_consistency(buf: &mut Vec<u8>, mode: Consistency) {
    match mode {
        Consistency::Sync => codec::put_u8(buf, 0),
        Consistency::Async => codec::put_u8(buf, 1),
        Consistency::Ssp { slack } => {
            codec::put_u8(buf, 2);
            codec::put_u64(buf, slack);
        }
    }
}

fn get_consistency(input: &mut &[u8]) -> Result<Consistency, CodecError> {
    match codec::get_u8(input)? {
        0 => Ok(Consistency::Sync),
        1 => Ok(Consistency::Async),
        2 => Ok(Consistency::Ssp { slack: codec::get_u64(input)? }),
        t => Err(CodecError(format!("unknown consistency tag {t}"))),
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    codec::put_u32(buf, vs.len() as u32);
    for v in vs {
        codec::put_u64(buf, *v);
    }
}

fn get_u64s(input: &mut &[u8]) -> Result<Vec<u64>, CodecError> {
    let n = codec::get_count(input, 8)?;
    (0..n).map(|_| codec::get_u64(input)).collect()
}

fn put_stats(buf: &mut Vec<u8>, st: &PsStats) {
    for v in [
        st.pulls,
        st.pushes,
        st.steps,
        st.bytes_transferred,
        st.model_version,
        st.max_staleness,
        st.ssp_waits,
        st.ssp_wait_nanos,
    ] {
        codec::put_u64(buf, v);
    }
    codec::put_u32(buf, st.workers.len() as u32);
    for w in &st.workers {
        codec::put_u64(buf, w.pulls);
        codec::put_u64(buf, w.pushes);
        codec::put_u64(buf, w.max_staleness);
        put_u64s(buf, &w.staleness_hist);
        codec::put_u64(buf, w.waits);
        codec::put_u64(buf, w.wait_nanos);
    }
}

fn get_stats(input: &mut &[u8]) -> Result<PsStats, CodecError> {
    // Struct-literal fields evaluate in the order written: the wire order.
    let get_worker = |input: &mut &[u8]| {
        Ok(WorkerPsStats {
            pulls: codec::get_u64(input)?,
            pushes: codec::get_u64(input)?,
            max_staleness: codec::get_u64(input)?,
            staleness_hist: get_u64s(input)?,
            waits: codec::get_u64(input)?,
            wait_nanos: codec::get_u64(input)?,
        })
    };
    Ok(PsStats {
        pulls: codec::get_u64(input)?,
        pushes: codec::get_u64(input)?,
        steps: codec::get_u64(input)?,
        bytes_transferred: codec::get_u64(input)?,
        model_version: codec::get_u64(input)?,
        max_staleness: codec::get_u64(input)?,
        ssp_waits: codec::get_u64(input)?,
        ssp_wait_nanos: codec::get_u64(input)?,
        // Five u64 fields and a histogram count per worker.
        workers: (0..codec::get_count(input, 44)?).map(|_| get_worker(input)).collect::<Result<_, CodecError>>()?,
    })
}

/// Trainer → shard requests.
#[derive(Debug)]
enum PsRequest {
    /// First message on the control connection: this shard's parameter
    /// slice, the worker count, the consistency mode, the optimizer, and
    /// the shard's trace identity.
    Init { params: Vec<f32>, n_workers: u32, mode: Consistency, opt: OptSpec, identity: TraceIdentity },
    /// Pull the shard slice (consistent with its version). `ctx` is the
    /// trainer-side RPC span; the shard's pull span parents under it.
    Pull { worker: u32, ctx: Option<SpanContext> },
    /// Push this worker's gradient slice.
    Push { worker: u32, ctx: Option<SpanContext>, grads: Vec<f32> },
    /// Retire the worker from the consistency gate.
    Retire { worker: u32 },
    /// Read the shard slice without counting as a worker pull.
    Snapshot,
    /// Read the shard's traffic/staleness stats.
    Stats,
    /// Finish up: reply `Bye` and exit the process.
    Shutdown,
}

const PQ_INIT: u8 = 0;
const PQ_PULL: u8 = 1;
const PQ_PUSH: u8 = 2;
const PQ_RETIRE: u8 = 3;
const PQ_SNAPSHOT: u8 = 4;
const PQ_STATS: u8 = 5;
const PQ_SHUTDOWN: u8 = 6;

/// Metric names of the request tags (RPC telemetry).
const PS_REQUEST_NAMES: TagNames = &["init", "pull", "push", "retire", "snapshot", "stats", "shutdown"];

impl Codec for PsRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PsRequest::Init { params, n_workers, mode, opt, identity } => {
                codec::put_u8(buf, PQ_INIT);
                codec::put_f32s(buf, params);
                codec::put_u32(buf, *n_workers);
                put_consistency(buf, *mode);
                opt.encode(buf);
                identity.encode(buf);
            }
            PsRequest::Pull { worker, ctx } => {
                codec::put_u8(buf, PQ_PULL);
                codec::put_u32(buf, *worker);
                codec::put_span_ctx(buf, *ctx);
            }
            PsRequest::Push { worker, ctx, grads } => {
                codec::put_u8(buf, PQ_PUSH);
                codec::put_u32(buf, *worker);
                codec::put_span_ctx(buf, *ctx);
                codec::put_f32s(buf, grads);
            }
            PsRequest::Retire { worker } => {
                codec::put_u8(buf, PQ_RETIRE);
                codec::put_u32(buf, *worker);
            }
            PsRequest::Snapshot => codec::put_u8(buf, PQ_SNAPSHOT),
            PsRequest::Stats => codec::put_u8(buf, PQ_STATS),
            PsRequest::Shutdown => codec::put_u8(buf, PQ_SHUTDOWN),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match codec::get_u8(input)? {
            PQ_INIT => Ok(PsRequest::Init {
                params: codec::get_f32s(input)?,
                n_workers: codec::get_u32(input)?,
                mode: get_consistency(input)?,
                opt: OptSpec::decode(input)?,
                identity: TraceIdentity::decode(input)?,
            }),
            PQ_PULL => Ok(PsRequest::Pull { worker: codec::get_u32(input)?, ctx: codec::get_span_ctx(input)? }),
            PQ_PUSH => Ok(PsRequest::Push {
                worker: codec::get_u32(input)?,
                ctx: codec::get_span_ctx(input)?,
                grads: codec::get_f32s(input)?,
            }),
            PQ_RETIRE => Ok(PsRequest::Retire { worker: codec::get_u32(input)? }),
            PQ_SNAPSHOT => Ok(PsRequest::Snapshot),
            PQ_STATS => Ok(PsRequest::Stats),
            PQ_SHUTDOWN => Ok(PsRequest::Shutdown),
            t => Err(CodecError(format!("unknown ps request tag {t}"))),
        }
    }
}

/// Shard → trainer responses, besides the [`rpc`] `Bye` that acknowledges
/// shutdown under tag [`PR_BYE`].
#[derive(Debug)]
enum PsResponse {
    /// Shard initialised.
    InitOk,
    /// Pull reply: the shard slice and its model version.
    Pulled { params: Vec<f32>, version: u64 },
    /// Push applied (or queued per the consistency mode).
    Pushed,
    /// Worker retired.
    Retired,
    /// Snapshot of the shard slice.
    Snapshot { params: Vec<f32> },
    /// Shard stats.
    Stats { stats: PsStats },
    /// Request-level failure (bad worker id, wrong gradient length).
    Err { msg: String },
}

const PR_INIT_OK: u8 = 0;
const PR_PULLED: u8 = 1;
const PR_PUSHED: u8 = 2;
const PR_RETIRED: u8 = 3;
const PR_SNAPSHOT: u8 = 4;
const PR_STATS: u8 = 5;
const PR_BYE: u8 = 6;
const PR_ERR: u8 = 7;

/// Metric names of the response tags.
const PS_RESPONSE_NAMES: TagNames = &["init_ok", "pulled", "pushed", "retired", "snapshot", "stats", "bye", "err"];

impl Codec for PsResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PsResponse::InitOk => codec::put_u8(buf, PR_INIT_OK),
            PsResponse::Pulled { params, version } => {
                codec::put_u8(buf, PR_PULLED);
                codec::put_f32s(buf, params);
                codec::put_u64(buf, *version);
            }
            PsResponse::Pushed => codec::put_u8(buf, PR_PUSHED),
            PsResponse::Retired => codec::put_u8(buf, PR_RETIRED),
            PsResponse::Snapshot { params } => {
                codec::put_u8(buf, PR_SNAPSHOT);
                codec::put_f32s(buf, params);
            }
            PsResponse::Stats { stats } => {
                codec::put_u8(buf, PR_STATS);
                put_stats(buf, stats);
            }
            PsResponse::Err { msg } => {
                codec::put_u8(buf, PR_ERR);
                codec::put_bytes(buf, msg.as_bytes());
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match codec::get_u8(input)? {
            PR_INIT_OK => Ok(PsResponse::InitOk),
            PR_PULLED => Ok(PsResponse::Pulled { params: codec::get_f32s(input)?, version: codec::get_u64(input)? }),
            PR_PUSHED => Ok(PsResponse::Pushed),
            PR_RETIRED => Ok(PsResponse::Retired),
            PR_SNAPSHOT => Ok(PsResponse::Snapshot { params: codec::get_f32s(input)? }),
            PR_STATS => Ok(PsResponse::Stats { stats: get_stats(input)? }),
            PR_ERR => Ok(PsResponse::Err { msg: codec::get_string(input)? }),
            t => Err(CodecError(format!("unknown ps response tag {t}"))),
        }
    }
}

impl Reply for PsResponse {
    const BYE: u8 = PR_BYE;
    fn refusal(&self) -> Option<&str> {
        match self {
            PsResponse::Err { msg } => Some(msg),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Client trait: one pull/push code path for both modes
// ---------------------------------------------------------------------------

/// What a trainer needs from a parameter server, in-process or remote.
/// Implemented infallibly by [`ParameterServer`] and over the socket
/// protocol by [`RemotePs`]; `DistTrainer::train_with_client` is generic
/// over this trait, so both modes run the identical training loop.
pub trait PsClient: Sync {
    /// Pull the full parameter vector plus the model version of the cut.
    fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError>;
    /// Push this worker's full gradient vector.
    fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError>;
    /// Retire the worker from the consistency gate (idempotent).
    fn retire(&self, worker: usize) -> Result<(), TransportError>;
    /// Read the full parameter vector without counting as a worker pull.
    fn snapshot(&self) -> Result<Vec<f32>, TransportError>;
    /// Aggregated traffic/staleness statistics.
    fn stats(&self) -> Result<PsStats, TransportError>;
    /// The (normalized) consistency mode in effect.
    fn consistency(&self) -> Consistency;
    /// Model dimension.
    fn len(&self) -> usize;
    /// True when the model is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PsClient for ParameterServer {
    fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError> {
        Ok(ParameterServer::pull_with_version(self, worker))
    }
    fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError> {
        ParameterServer::push(self, worker, grads);
        Ok(())
    }
    fn retire(&self, worker: usize) -> Result<(), TransportError> {
        ParameterServer::retire_worker(self, worker);
        Ok(())
    }
    fn snapshot(&self) -> Result<Vec<f32>, TransportError> {
        Ok(ParameterServer::snapshot(self))
    }
    fn stats(&self) -> Result<PsStats, TransportError> {
        Ok(ParameterServer::stats(self))
    }
    fn consistency(&self) -> Consistency {
        ParameterServer::consistency(self)
    }
    fn len(&self) -> usize {
        ParameterServer::len(self)
    }
}

// ---------------------------------------------------------------------------
// Remote client
// ---------------------------------------------------------------------------

/// Client for parameter-server shards running as separate processes, one
/// endpoint per shard. The model is split into contiguous elementwise
/// slices with the same `div_ceil` bounds the in-process server uses, so
/// remote and local sharding are interchangeable bit-for-bit.
pub struct RemotePs {
    /// Global slice boundaries: shard `i` owns `bounds[i]..bounds[i+1]`.
    bounds: Vec<usize>,
    dim: usize,
    mode: Consistency,
    /// Control connection per shard (init/snapshot/stats/shutdown).
    controls: Vec<Mutex<Client>>,
    /// Data connections: `conns[worker][shard]`. Each trainer worker gets
    /// its own connection per shard because sync/SSP pushes block
    /// server-side — workers must not serialize on a shared socket.
    conns: Vec<Vec<Mutex<Client>>>,
    /// Trainer-side observability: RPC spans, frame telemetry, and the
    /// merge target for shard traces/counters shipped back in `Bye`.
    obs: Obs,
}

impl RemotePs {
    /// Connect to the shard processes at `endpoints`, initialise each with
    /// its slice of `initial`, and open one data connection per
    /// (worker, shard) pair. Read deadlines on every connection are set to
    /// `io_timeout_ns`, so a dead shard surfaces as a typed error, bounded.
    pub fn connect(
        endpoints: &[Endpoint],
        initial: &[f32],
        n_workers: usize,
        mode: Consistency,
        opt: OptSpec,
        connect_timeout_ns: u64,
        io_timeout_ns: u64,
    ) -> Result<Self, TransportError> {
        Self::connect_with_obs(
            endpoints,
            initial,
            n_workers,
            mode,
            opt,
            connect_timeout_ns,
            io_timeout_ns,
            Obs::default(),
        )
    }

    /// [`RemotePs::connect`] with observability: every connection gets RPC
    /// frame telemetry (`rpc.ps.s{shard}.*`), pull/push carry the caller's
    /// span context so shard spans parent under trainer RPCs, and
    /// [`RemotePs::shutdown`] merges each shard's trace and counters back
    /// into `obs` under a `ps{shard}/` prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_with_obs(
        endpoints: &[Endpoint],
        initial: &[f32],
        n_workers: usize,
        mode: Consistency,
        opt: OptSpec,
        connect_timeout_ns: u64,
        io_timeout_ns: u64,
        obs: Obs,
    ) -> Result<Self, TransportError> {
        if endpoints.is_empty() {
            return Err(TransportError::Protocol("no shard endpoints".to_string()));
        }
        let (bounds, mode) = shard_layout(initial.len(), endpoints.len(), mode);
        let n_shards = bounds.len() - 1;
        let clock = Clock::monotonic();
        let opts = DistOptions { connect_timeout_ns, io_timeout_ns };
        let counters = Counters::for_obs(&obs);
        // One FrameStats per shard label, shared by the control and every
        // worker's data connection to that shard (counters are additive).
        let stats: Vec<_> = (0..n_shards)
            .map(|i| FrameStats::from_obs(&obs, &format!("ps.s{i}"), PS_REQUEST_NAMES, PS_RESPONSE_NAMES))
            .collect();
        let open = |i: usize| {
            Client::connect(&endpoints[i], &clock, &opts, stats[i].clone(), format!("ps{i}"), counters.clone())
        };
        let mut controls = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let mut control = open(i)?;
            let init = PsRequest::Init {
                params: initial[bounds[i]..bounds[i + 1]].to_vec(),
                n_workers: n_workers as u32,
                mode,
                opt,
                identity: TraceIdentity::for_peer(&obs, PeerKind::Ps, i),
            };
            match control.call(&init)? {
                PsResponse::InitOk => controls.push(Mutex::new(control)),
                other => return Err(unexpected("init", other)),
            }
        }
        let conns = (0..n_workers)
            .map(|_| (0..n_shards).map(|i| open(i).map(Mutex::new)).collect())
            .collect::<Result<_, _>>()?;
        Ok(Self { bounds, dim: initial.len(), mode, controls, conns, obs })
    }

    /// Number of shard processes.
    pub fn n_shards(&self) -> usize {
        self.controls.len()
    }

    /// Tell every shard process to exit (replying `Bye`), closing all
    /// connections. Errors are swallowed: a shard that already died has
    /// already "shut down". When observability is on, each shard's `Bye`
    /// trace merges into this client's sink under a `ps{shard}/` track
    /// prefix and its counters land as `ps{shard}.{name}` (by max, so a
    /// re-delivered snapshot cannot double-count).
    pub fn shutdown(self) {
        // Close data connections first so shard-side handlers drain.
        drop(self.conns);
        for control in &self.controls {
            lock_plain(control).shutdown::<PsResponse>(&PsRequest::Shutdown, &self.obs);
        }
    }

    /// One request on `worker`'s data connection to `shard`.
    fn call(&self, worker: usize, shard: usize, req: &PsRequest) -> Result<PsResponse, TransportError> {
        let conn = self
            .conns
            .get(worker)
            .and_then(|per| per.get(shard))
            .ok_or_else(|| TransportError::Protocol(format!("no connection for worker {worker} shard {shard}")))?;
        lock_plain(conn).call(req)
    }
}

impl PsClient for RemotePs {
    fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError> {
        // One RPC span per pull on this worker's own track; its context
        // rides every shard request so shard-side spans parent under it.
        let span = self.obs.span(&format!("ps.w{worker}"), "rpc.ps.pull");
        let ctx = span.context();
        let mut params = Vec::with_capacity(self.len());
        let mut version = 0u64;
        for shard in 0..self.n_shards() {
            match self.call(worker, shard, &PsRequest::Pull { worker: worker as u32, ctx })? {
                PsResponse::Pulled { params: slice, version: v } => {
                    if shard == 0 {
                        version = v;
                    }
                    params.extend_from_slice(&slice);
                }
                other => return Err(unexpected("pull", other)),
            }
        }
        if params.len() != self.len() {
            return Err(TransportError::Protocol(format!(
                "pulled {} parameters, model has {}",
                params.len(),
                self.len()
            )));
        }
        Ok((params, version))
    }

    fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError> {
        if grads.len() != self.len() {
            return Err(TransportError::Protocol(format!(
                "pushed {} gradients, model has {}",
                grads.len(),
                self.len()
            )));
        }
        let span = self.obs.span(&format!("ps.w{worker}"), "rpc.ps.push");
        let ctx = span.context();
        // Ascending shard order on every worker: sync-mode pushes barrier
        // per shard, and a uniform traversal order keeps the rounds in
        // lockstep (no worker can hold shard k's round open while another
        // waits on shard j < k).
        for shard in 0..self.n_shards() {
            let slice = &grads[self.bounds[shard]..self.bounds[shard + 1]];
            match self.call(worker, shard, &PsRequest::Push { worker: worker as u32, ctx, grads: slice.to_vec() })? {
                PsResponse::Pushed => {}
                other => return Err(unexpected("push", other)),
            }
        }
        Ok(())
    }

    fn retire(&self, worker: usize) -> Result<(), TransportError> {
        for shard in 0..self.n_shards() {
            match self.call(worker, shard, &PsRequest::Retire { worker: worker as u32 })? {
                PsResponse::Retired => {}
                other => return Err(unexpected("retire", other)),
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<Vec<f32>, TransportError> {
        let mut params = Vec::with_capacity(self.len());
        for control in &self.controls {
            match lock_plain(control).call(&PsRequest::Snapshot)? {
                PsResponse::Snapshot { params: slice } => params.extend_from_slice(&slice),
                other => return Err(unexpected("snapshot", other)),
            }
        }
        Ok(params)
    }

    fn stats(&self) -> Result<PsStats, TransportError> {
        // Aggregate across shards: traffic sums, version/staleness maxes,
        // per-worker breakdowns folded elementwise.
        let mut agg = PsStats::default();
        for control in &self.controls {
            let st = match lock_plain(control).call(&PsRequest::Stats)? {
                PsResponse::Stats { stats } => stats,
                other => return Err(unexpected("stats", other)),
            };
            agg.pulls += st.pulls;
            agg.pushes += st.pushes;
            agg.steps = agg.steps.max(st.steps);
            agg.bytes_transferred += st.bytes_transferred;
            agg.model_version = agg.model_version.max(st.model_version);
            agg.max_staleness = agg.max_staleness.max(st.max_staleness);
            agg.ssp_waits += st.ssp_waits;
            agg.ssp_wait_nanos += st.ssp_wait_nanos;
            if agg.workers.len() < st.workers.len() {
                agg.workers.resize_with(st.workers.len(), WorkerPsStats::default);
            }
            for (a, w) in agg.workers.iter_mut().zip(st.workers) {
                a.pulls += w.pulls;
                a.pushes += w.pushes;
                a.max_staleness = a.max_staleness.max(w.max_staleness);
                if a.staleness_hist.len() < w.staleness_hist.len() {
                    a.staleness_hist.resize(w.staleness_hist.len(), 0);
                }
                for (ah, wh) in a.staleness_hist.iter_mut().zip(w.staleness_hist) {
                    *ah += wh;
                }
                a.waits += w.waits;
                a.wait_nanos += w.wait_nanos;
            }
        }
        Ok(agg)
    }

    fn consistency(&self) -> Consistency {
        self.mode
    }

    fn len(&self) -> usize {
        self.dim
    }
}

// ---------------------------------------------------------------------------
// Shard server process
// ---------------------------------------------------------------------------

/// Serve one parameter-server shard: accept a control connection whose
/// first message is `Init` (carrying the shard's parameter slice), build a
/// 1-shard [`ParameterServer`] from it, then serve pull/push from any
/// number of subsequent connections until `Shutdown` arrives — or every
/// connection closes (a dead driver's sockets close, and the shard must
/// exit rather than leak).
pub fn serve_ps_shard(listener: &Listener, accept_timeout_ns: u64) -> Result<(), TransportError> {
    let mut control = rpc::accept(listener, accept_timeout_ns)?;
    let mut init = ShardInit::default();
    rpc::serve(&mut control, &mut init)?;
    let Some(server) = init.server else {
        // The driver left before `Init`.
        return Ok(());
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let conn = ShardConn { server: &server, obs: &init.obs, shutdown: &shutdown };
        // The control connection is just another request stream; when it
        // ends (Shutdown, or the driver process dying and the kernel
        // closing its sockets) the accept loop stops.
        scope.spawn(move || {
            let _ = rpc::serve(&mut control, &mut { conn });
            conn.shutdown.store(true, Ordering::SeqCst);
        });
        // The accept poll watches the flag too, so the shard leaves within
        // one poll of the shutdown rather than at the end of a 50 ms window.
        let clock = Clock::monotonic();
        let stopped = || shutdown.load(Ordering::SeqCst);
        while !stopped() {
            match listener.accept_unless(&clock, 50_000_000, stopped).map(Framed::new) {
                Ok(mut framed) => {
                    scope.spawn(move || rpc::serve(&mut framed, &mut { conn }));
                }
                Err(TransportError::Timeout { .. }) => continue,
                Err(_) => break,
            }
        }
    });
    Ok(())
}

/// The control connection before its `Init`: answers exactly that one
/// request by building the shard.
#[derive(Default)]
struct ShardInit {
    server: Option<ParameterServer>,
    /// Shard-side observability, used by [`ShardConn`].
    obs: Obs,
}

impl Service for ShardInit {
    type Request = PsRequest;
    type Reply = PsResponse;

    fn handle(&mut self, req: PsRequest) -> Result<Step<PsResponse>, TransportError> {
        let PsRequest::Init { params, n_workers, mode, opt, identity } = req else {
            return Err(TransportError::Protocol(format!("expected Init, got {req:?}")));
        };
        self.obs = identity.obs();
        let n_workers = (n_workers as usize).max(1);
        self.server = Some(ParameterServer::new(params, 1, n_workers, mode, move || opt.build()));
        Ok(Step::Last(PsResponse::InitOk))
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// One connection's request stream against the shard server. Pull and
/// push requests open spans on the requesting worker's track (`ps.w{n}`),
/// parented under the trainer-side RPC span whose context rode the request
/// — a deterministic assignment, so under the logical clock the merged
/// trace is byte-stable. The inner [`ParameterServer`] stays
/// uninstrumented: its applies run on whichever worker's push closes the
/// round.
#[derive(Clone, Copy)]
struct ShardConn<'a> {
    server: &'a ParameterServer,
    obs: &'a Obs,
    /// Set by a `Shutdown` on any connection; stops the accept loop.
    shutdown: &'a AtomicBool,
}

impl Service for ShardConn<'_> {
    type Request = PsRequest;
    type Reply = PsResponse;

    fn handle(&mut self, req: PsRequest) -> Result<Step<PsResponse>, TransportError> {
        let (server, obs) = (self.server, self.obs);
        let in_range = |worker: u32| (worker as usize) < server.n_workers();
        Ok(Step::Reply(match req {
            PsRequest::Init { .. } => PsResponse::Err { msg: "duplicate Init".to_string() },
            PsRequest::Pull { worker, ctx } => {
                let _span = obs.span_child_of(&format!("ps.w{worker}"), "ps.pull", ctx);
                obs.metric_add("ps.pulls", 1);
                if in_range(worker) {
                    let (params, version) = ParameterServer::pull_with_version(server, worker as usize);
                    PsResponse::Pulled { params, version }
                } else {
                    PsResponse::Err { msg: format!("worker {worker} out of range") }
                }
            }
            PsRequest::Push { worker, ctx, grads } => {
                let _span = obs.span_child_of(&format!("ps.w{worker}"), "ps.push", ctx);
                obs.metric_add("ps.pushes", 1);
                if !in_range(worker) {
                    PsResponse::Err { msg: format!("worker {worker} out of range") }
                } else if grads.len() != ParameterServer::len(server) {
                    PsResponse::Err {
                        msg: format!("gradient length {} != shard size {}", grads.len(), ParameterServer::len(server)),
                    }
                } else {
                    ParameterServer::push(server, worker as usize, &grads);
                    PsResponse::Pushed
                }
            }
            PsRequest::Retire { worker } => {
                if in_range(worker) {
                    ParameterServer::retire_worker(server, worker as usize);
                }
                PsResponse::Retired
            }
            PsRequest::Snapshot => PsResponse::Snapshot { params: ParameterServer::snapshot(server) },
            PsRequest::Stats => PsResponse::Stats { stats: ParameterServer::stats(server) },
            PsRequest::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                return Ok(Step::Bye);
            }
        }))
    }

    fn obs(&self) -> &Obs {
        self.obs
    }
}

// ---------------------------------------------------------------------------
// Generic worker pool
// ---------------------------------------------------------------------------

/// Retires the worker from the consistency gate when its closure returns —
/// including by unwinding, so a panicking worker can never leave a stale
/// `last_pull` entry that blocks everyone else forever. A remote retire
/// that fails is ignored: the shard is gone, nothing is gated.
struct RetireClient<'a, C: PsClient> {
    client: &'a C,
    worker: usize,
}

impl<C: PsClient> Drop for RetireClient<'_, C> {
    fn drop(&mut self) {
        let _ = self.client.retire(self.worker);
    }
}

/// Run `n_workers` copies of `work(worker_id, client)` on threads and wait
/// for all of them; each worker is retired when its closure returns. The
/// first error is returned after every worker has stopped (each worker's
/// own connections surface their own timeouts, so one dead shard stops
/// them all, bounded). [`crate::worker::run_workers`] is this pool over
/// the in-process server.
pub fn run_client_workers<C, F>(client: &C, n_workers: usize, work: F) -> Result<(), TransportError>
where
    C: PsClient,
    F: Fn(usize, &C) -> Result<(), TransportError> + Sync,
{
    assert!(n_workers > 0);
    let first_err: Mutex<Option<TransportError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let work = &work;
            let first_err = &first_err;
            scope.spawn(move || {
                let _retire = RetireClient { client, worker: w };
                if let Err(e) = work(w, client) {
                    lock_plain(first_err).get_or_insert(e);
                }
            });
        }
    });
    let err = lock_plain(&first_err).take();
    err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_mapreduce::rpc::Bye;
    use agl_obs::TraceEvent;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("agl-psnet-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Spin up `n` shard servers on UDS listeners inside `scope`-less
    /// threads via `std::thread::scope` and run `f` against a RemotePs.
    fn with_remote<T: Send>(
        tag: &str,
        n_shards: usize,
        initial: Vec<f32>,
        n_workers: usize,
        mode: Consistency,
        opt: OptSpec,
        f: impl FnOnce(&RemotePs) -> T + Send,
    ) -> T {
        let dir = temp_dir(tag);
        let eps: Vec<Endpoint> = (0..n_shards).map(|i| Endpoint::Unix(dir.join(format!("s{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        let out = std::thread::scope(|s| {
            for l in &listeners {
                s.spawn(move || serve_ps_shard(l, 5_000_000_000).unwrap());
            }
            let remote =
                RemotePs::connect(&eps, &initial, n_workers, mode, opt, 5_000_000_000, 10_000_000_000).unwrap();
            let out = f(&remote);
            remote.shutdown();
            out
        });
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn remote_matches_local_bit_for_bit_sync_sgd() {
        let initial: Vec<f32> = (0..13).map(|i| i as f32 * 0.25).collect();
        let n_workers = 3;
        let steps = 4;
        // Local reference: 2-shard in-process server.
        let local = Arc::new(ParameterServer::new(initial.clone(), 2, n_workers, Consistency::Sync, || {
            Box::new(Sgd::new(0.1))
        }));
        crate::worker::run_workers(&local, n_workers, |w, ps| {
            for step in 0..steps {
                let (x, _v) = ParameterServer::pull_with_version(ps, w);
                let g: Vec<f32> = x.iter().map(|xi| xi * 0.5 + (w as f32) - (step as f32) * 0.1).collect();
                ParameterServer::push(ps, w, &g);
            }
        });
        let expected = local.snapshot();

        let got =
            with_remote("bitident", 2, initial, n_workers, Consistency::Sync, OptSpec::Sgd { lr: 0.1 }, |remote| {
                run_client_workers(remote, n_workers, |w, c| {
                    for step in 0..steps {
                        let (x, _v) = c.pull_with_version(w)?;
                        let g: Vec<f32> = x.iter().map(|xi| xi * 0.5 + (w as f32) - (step as f32) * 0.1).collect();
                        c.push(w, &g)?;
                    }
                    Ok(())
                })
                .unwrap();
                PsClient::snapshot(remote).unwrap()
            });
        assert_eq!(expected.len(), got.len());
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "param {i}: {e} vs {g}");
        }
    }

    #[test]
    fn remote_stats_aggregate_across_shards() {
        let got = with_remote("stats", 2, vec![0.0; 8], 2, Consistency::Async, OptSpec::Sgd { lr: 0.01 }, |remote| {
            run_client_workers(remote, 2, |w, c| {
                let (_x, _v) = c.pull_with_version(w)?;
                c.push(w, &[0.1; 8])?;
                Ok(())
            })
            .unwrap();
            PsClient::stats(remote).unwrap()
        });
        assert_eq!(got.pulls, 4, "2 workers × 2 shards");
        assert_eq!(got.pushes, 4);
        assert_eq!(got.workers.len(), 2);
        assert!(got.bytes_transferred > 0);
    }

    #[test]
    fn dead_shard_is_a_typed_error_not_a_hang() {
        let dir = temp_dir("dead");
        let ep = Endpoint::Unix(dir.join("s0.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let eps = vec![ep];
        std::thread::scope(|s| {
            // A shard that dies right after init: accepts the control and
            // data connections, answers Init, then drops everything — the
            // kernel closes its sockets exactly as a SIGKILLed process's
            // would, with no sleeps involved.
            s.spawn(|| {
                let clock = Clock::monotonic();
                let mut control = Framed::new(listener.accept_deadline(&clock, 5_000_000_000).unwrap());
                let init = control.recv().unwrap().unwrap();
                assert!(matches!(PsRequest::from_bytes(&init).unwrap(), PsRequest::Init { .. }));
                control.send(&PsResponse::InitOk.to_bytes()).unwrap();
                let data = listener.accept_deadline(&clock, 5_000_000_000).unwrap();
                drop(data);
                drop(control);
            });
            let remote = RemotePs::connect(
                &eps,
                &[1.0, 2.0],
                1,
                Consistency::Async,
                OptSpec::Sgd { lr: 0.1 },
                5_000_000_000,
                2_000_000_000, // 2s read deadline bounds any residual wait
            )
            .unwrap();
            // The shard is gone; the next pull must fail typed, not hang.
            let err = remote.pull_with_version(0).unwrap_err();
            assert!(matches!(err, TransportError::Closed(_) | TransportError::Io(_)), "{err}");
        });
        drop(listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_parents_shard_spans_under_trainer_rpcs() {
        let dir = temp_dir("obs");
        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("s{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        let obs = Obs::enabled_with_identity(Clock::logical(), 77, 0);
        std::thread::scope(|s| {
            for l in &listeners {
                s.spawn(move || serve_ps_shard(l, 5_000_000_000).unwrap());
            }
            let remote = RemotePs::connect_with_obs(
                &eps,
                &[0.0; 8],
                2,
                Consistency::Sync,
                OptSpec::Sgd { lr: 0.1 },
                5_000_000_000,
                10_000_000_000,
                obs.clone(),
            )
            .unwrap();
            run_client_workers(&remote, 2, |w, c| {
                let (x, _v) = c.pull_with_version(w)?;
                c.push(w, &vec![0.1; x.len()])?;
                Ok(())
            })
            .unwrap();
            remote.shutdown();
        });
        let events = obs.trace().unwrap().events();
        let client_ids: std::collections::HashSet<u64> =
            events.iter().filter(|e| e.name.starts_with("rpc.ps.")).map(|e| e.span_id).collect();
        assert!(!client_ids.is_empty(), "trainer-side RPC spans recorded");
        let shard_spans: Vec<_> =
            events.iter().filter(|e| e.track.starts_with("ps") && e.track.contains('/')).collect();
        assert!(!shard_spans.is_empty(), "shard traces merged into the client sink");
        for e in &shard_spans {
            assert!(
                client_ids.contains(&e.parent_id),
                "shard span {} on {} has parent {} outside the trainer RPC spans",
                e.name,
                e.track,
                e.parent_id
            );
        }
        let m = obs.metrics().unwrap();
        // Each worker's single pull/push touches both shards once.
        assert_eq!(m.get("ps0.ps.pulls"), 2, "{}", m.render());
        assert_eq!(m.get("ps1.ps.pushes"), 2, "{}", m.render());
        assert!(m.get("rpc.ps.s0.send.pull.frames") >= 2, "{}", m.render());
        assert!(m.get("rpc.ps.s1.recv.pulled.bytes") > 0, "{}", m.render());
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_codecs_round_trip() {
        let reqs = [
            PsRequest::Init {
                params: vec![1.0, -2.5],
                n_workers: 3,
                mode: Consistency::Ssp { slack: 4 },
                opt: OptSpec::Adam { lr: 0.001 },
                identity: TraceIdentity { trace: true, trace_id: 42, salt: 1001 },
            },
            PsRequest::Pull { worker: 7, ctx: Some(SpanContext { trace_id: 42, span_id: 99 }) },
            PsRequest::Push { worker: 1, ctx: None, grads: vec![0.5; 3] },
            PsRequest::Retire { worker: 2 },
            PsRequest::Snapshot,
            PsRequest::Stats,
            PsRequest::Shutdown,
        ];
        for r in reqs {
            let b = r.to_bytes();
            assert_eq!(format!("{r:?}"), format!("{:?}", PsRequest::from_bytes(&b).unwrap()));
        }
        let resps = [
            PsResponse::InitOk,
            PsResponse::Pulled { params: vec![9.0], version: 8 },
            PsResponse::Pushed,
            PsResponse::Retired,
            PsResponse::Snapshot { params: vec![] },
            PsResponse::Stats {
                stats: PsStats {
                    pulls: 1,
                    pushes: 2,
                    steps: 3,
                    bytes_transferred: 4,
                    model_version: 5,
                    max_staleness: 6,
                    ssp_waits: 7,
                    ssp_wait_nanos: 8,
                    workers: vec![WorkerPsStats {
                        pulls: 1,
                        pushes: 1,
                        max_staleness: 0,
                        staleness_hist: vec![1, 0],
                        waits: 0,
                        wait_nanos: 0,
                    }],
                },
            },
            PsResponse::Err { msg: "nope".to_string() },
        ];
        for r in resps {
            let b = r.to_bytes();
            assert_eq!(format!("{r:?}"), format!("{:?}", PsResponse::from_bytes(&b).unwrap()));
        }
        // The metric-name tables list every tag, in tag order.
        assert_eq!([PS_REQUEST_NAMES[PQ_SHUTDOWN as usize], PS_RESPONSE_NAMES[PR_ERR as usize]], ["shutdown", "err"]);
        // Golden bytes. `Init`: the f32 slice, worker count, consistency
        // (tag + slack), optimizer (tag + lr), then the trace identity.
        let init = PsRequest::Init {
            params: vec![1.0],
            n_workers: 2,
            mode: Consistency::Ssp { slack: 4 },
            opt: OptSpec::Sgd { lr: 0.5 },
            identity: TraceIdentity { trace: true, trace_id: 42, salt: 1001 },
        };
        let golden: Vec<u8> = [
            &[PQ_INIT, 1, 0, 0, 0][..],
            &1.0f32.to_le_bytes(),
            &[2, 0, 0, 0, 2],
            &4u64.to_le_bytes(),
            &[0],
            &0.5f32.to_le_bytes(),
            &[1],
            &42u64.to_le_bytes(),
            &1001u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(init.to_bytes(), golden);
        // `Pull` / `Push`: worker id, span-context header, gradients.
        let pull = PsRequest::Pull { worker: 7, ctx: Some(SpanContext { trace_id: 42, span_id: 99 }) };
        let golden: Vec<u8> = [&[PQ_PULL, 7, 0, 0, 0, 1][..], &42u64.to_le_bytes(), &99u64.to_le_bytes()].concat();
        assert_eq!(pull.to_bytes(), golden);
        let push = PsRequest::Push { worker: 1, ctx: None, grads: vec![0.5] };
        let golden: Vec<u8> = [&[PQ_PUSH, 1, 0, 0, 0, 0, 1, 0, 0, 0][..], &0.5f32.to_le_bytes()].concat();
        assert_eq!(push.to_bytes(), golden);
        // `Bye`: its tag, the counter list, then the trace events.
        let event = TraceEvent {
            track: "t".to_string(),
            seq: 0,
            name: "s".to_string(),
            ts: 1,
            dur: 2,
            depth: 0,
            args: vec![("k".to_string(), 5)],
            span_id: 3,
            parent_id: 0,
        };
        let mut bye = vec![PsResponse::BYE];
        Bye { counters: vec![("n".to_string(), 9)], trace: vec![event] }.encode(&mut bye);
        let golden: Vec<u8> = [
            &[PR_BYE, 1, 0, 0, 0, 1, 0, 0, 0, b'n'][..],
            &9u64.to_le_bytes(),
            &[1, 0, 0, 0, 1, 0, 0, 0, b't'],
            &0u64.to_le_bytes(),
            &[1, 0, 0, 0, b's'],
            &1u64.to_le_bytes(),
            &2u64.to_le_bytes(),
            &0u64.to_le_bytes(),
            &3u64.to_le_bytes(),
            &0u64.to_le_bytes(),
            &[1, 0, 0, 0, 1, 0, 0, 0, b'k'],
            &5u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(bye, golden);
        // Inflated counts are refused against the remaining input, never
        // handed to the allocator: the `Init` slice length, the `Stats`
        // worker count and a worker's histogram length (the `Bye` payload's
        // counts are the `rpc` module's).
        let mut inflated = init.to_bytes();
        inflated[1..5].fill(0xFF);
        let err = PsRequest::from_bytes(&inflated).unwrap_err();
        assert!(err.0.contains("exceeds remaining"), "{err}");
        let worker =
            WorkerPsStats { pulls: 0, pushes: 0, max_staleness: 0, staleness_hist: vec![], waits: 0, wait_nanos: 0 };
        let stats = PsResponse::Stats {
            stats: PsStats {
                pulls: 0,
                pushes: 0,
                steps: 0,
                bytes_transferred: 0,
                model_version: 0,
                max_staleness: 0,
                ssp_waits: 0,
                ssp_wait_nanos: 0,
                workers: vec![worker],
            },
        };
        // Tag + eight u64 totals; then the count and three u64 fields.
        for (msg, count_at) in [(stats.to_bytes(), 65), (stats.to_bytes(), 93)] {
            let mut inflated = msg;
            inflated[count_at..count_at + 4].fill(0xFF);
            let err = PsResponse::from_bytes(&inflated).unwrap_err();
            assert!(err.0.contains("exceeds remaining"), "count at {count_at}: {err}");
        }
    }
}
