//! The remote placement: reduce tasks as RPCs to shuffle-worker
//! *processes* over the [`crate::transport`] layer.
//!
//! The job driver ([`crate::engine::MapReduceJob::run_on`]) owns the job
//! shape on every placement; on [`crate::engine::Placement::Remote`] it
//! runs the map phase locally, and this module carries each gathered
//! reduce partition to a worker and its re-partitioned emissions back.
//! Workers execute the same `ReduceStage::run` every local placement
//! executes, so a distributed run produces **byte-identical output**.
//!
//! A **shuffle worker** ([`serve_shuffle`]) is a separate OS process: it
//! accepts one driver connection, reconstructs the job's reducer from an
//! opaque spec blob (the pipeline owns its meaning), then serves
//! reduce-partition RPCs until the driver says shutdown — at which point
//! it ships its counters and trace spans back for the merged report. The
//! handshake, control frames and request loop are the shared
//! [`crate::rpc`] skeleton; this module owns the messages and the handler.
//!
//! ## Failure model
//!
//! Worker death is detected as a transport error (EOF, truncated frame,
//! read timeout) on that worker's connection. The partition the worker was
//! running is re-queued and re-executed by a surviving worker — tasks are
//! deterministic, so the re-run emits identical records and the job output
//! is unchanged (the same argument the thread-mode [`crate::fault`] suite
//! tests). When retries for a partition exhaust `max_attempts`, or no
//! worker survives, the driver fails with a typed
//! [`JobError::Transport`] — bounded by the configured timeouts, never a
//! hang.

use crate::codec::{self, Codec, CodecError};
use crate::counters::Counters;
use crate::engine::{lock_ignoring_poison, JobConfig, JobError, ReduceStage, Reducer, RemoteWorkers, ShuffleCombiner};
use crate::records::Records;
use crate::rpc::{self, Client, PeerKind, Reply, Service, Step, TraceIdentity};
use crate::transport::{FrameStats, Listener, TagNames, TransportError};
use agl_obs::{Clock, Obs};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long a shuffle worker waits for its driver to connect, and how long
/// the driver waits for a worker to answer one RPC.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Driver-side connect deadline per worker (with bounded-backoff retry,
    /// because workers may still be binding their listeners).
    pub connect_timeout_ns: u64,
    /// Read deadline for one RPC round-trip on an established connection.
    pub io_timeout_ns: u64,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self { connect_timeout_ns: 10_000_000_000, io_timeout_ns: 30_000_000_000 }
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------
//
// Records travel as `Records::encode` writes them — a `u32` count, then a
// `u32`-length-prefixed key and value per record — encoded straight from
// the buffer the driver holds and decoded straight into a fresh one.

/// Driver → worker messages.
#[derive(Debug)]
enum DriverMsg {
    /// First message on the connection: the pipeline-defined reducer spec
    /// (opaque to this crate), the shuffle fan-out, the worker's trace
    /// identity, and the metrics flush cadence (`flush_every` tasks; 0
    /// disables mid-flight snapshots).
    Init { spec: Vec<u8>, r_parts: u32, identity: TraceIdentity, flush_every: u64 },
    /// Optional second message (combining jobs only — a separate frame so
    /// the `Init` codec, and every golden trace built on it, is unchanged):
    /// the pipeline-defined combiner spec and the job's total reduce-round
    /// count, which the worker needs to skip combining the final round's
    /// output (the job output's record order must not depend on combining,
    /// which sorts a bucket by key). Acknowledged with `InitOk`; only
    /// [`serve_shuffle_combining`] workers accept it.
    CombineSpec { rounds: u32, spec: Vec<u8> },
    /// Reduce one partition's records for `round`. `ctx` is the driver-side
    /// RPC span issuing this task; the worker's reduce span parents under it.
    Reduce { round: u32, part: u32, ctx: Option<agl_obs::SpanContext>, records: Records },
    /// Finish up: reply with `Bye` and exit.
    Shutdown,
}

const DM_INIT: u8 = 0;
const DM_REDUCE: u8 = 1;
const DM_SHUTDOWN: u8 = 2;
const DM_COMBINE: u8 = 3;

/// Metric names of the driver→worker tags (see [`FrameStats`]).
const DRIVER_MSG_NAMES: TagNames = &["init", "reduce", "shutdown", "combine_spec"];

/// A `DriverMsg::Reduce` frame for a partition the driver keeps: encoded
/// from the borrowed buffer, so dispatch (and a re-dispatch after a lost
/// worker) copies no record.
fn put_reduce(buf: &mut Vec<u8>, round: u32, part: u32, ctx: Option<agl_obs::SpanContext>, records: &Records) {
    codec::put_u8(buf, DM_REDUCE);
    codec::put_u32(buf, round);
    codec::put_u32(buf, part);
    codec::put_span_ctx(buf, ctx);
    records.encode(buf);
}

impl Codec for DriverMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            DriverMsg::Init { spec, r_parts, identity, flush_every } => {
                codec::put_u8(buf, DM_INIT);
                codec::put_bytes(buf, spec);
                codec::put_u32(buf, *r_parts);
                identity.encode(buf);
                codec::put_u64(buf, *flush_every);
            }
            DriverMsg::Reduce { round, part, ctx, records } => put_reduce(buf, *round, *part, *ctx, records),
            DriverMsg::CombineSpec { rounds, spec } => {
                codec::put_u8(buf, DM_COMBINE);
                codec::put_u32(buf, *rounds);
                codec::put_bytes(buf, spec);
            }
            DriverMsg::Shutdown => codec::put_u8(buf, DM_SHUTDOWN),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match codec::get_u8(input)? {
            DM_INIT => {
                let spec = codec::get_bytes(input)?.to_vec();
                let r_parts = codec::get_u32(input)?;
                let identity = TraceIdentity::decode(input)?;
                let flush_every = codec::get_u64(input)?;
                Ok(DriverMsg::Init { spec, r_parts, identity, flush_every })
            }
            DM_REDUCE => {
                let round = codec::get_u32(input)?;
                let part = codec::get_u32(input)?;
                let ctx = codec::get_span_ctx(input)?;
                let records = Records::decode(input)?;
                Ok(DriverMsg::Reduce { round, part, ctx, records })
            }
            DM_COMBINE => {
                let rounds = codec::get_u32(input)?;
                let spec = codec::get_bytes(input)?.to_vec();
                Ok(DriverMsg::CombineSpec { rounds, spec })
            }
            DM_SHUTDOWN => Ok(DriverMsg::Shutdown),
            t => Err(CodecError(format!("unknown driver message tag {t}"))),
        }
    }
}

/// Worker → driver messages, besides the [`rpc`] control frames: the
/// shutdown `Bye` and the counter snapshots flushed every `flush_every`
/// completed tasks.
#[derive(Debug)]
enum WorkerMsg {
    /// Reducer built; ready for tasks.
    InitOk,
    /// One partition reduced: emissions re-partitioned for the next round.
    ReduceDone { part: u32, emitted: u64, out_buckets: Vec<Records> },
    /// Worker-side setup failure (bad spec).
    Err { msg: String },
}

const WM_INIT_OK: u8 = 0;
const WM_REDUCE_DONE: u8 = 1;
const WM_BYE: u8 = 2;
const WM_ERR: u8 = 3;
const WM_METRICS: u8 = 4;

/// Metric names of the worker→driver tags.
const WORKER_MSG_NAMES: TagNames = &["init_ok", "reduce_done", "bye", "err", "metrics"];

impl Codec for WorkerMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WorkerMsg::InitOk => codec::put_u8(buf, WM_INIT_OK),
            WorkerMsg::ReduceDone { part, emitted, out_buckets } => {
                codec::put_u8(buf, WM_REDUCE_DONE);
                codec::put_u32(buf, *part);
                codec::put_u64(buf, *emitted);
                codec::put_u32(buf, out_buckets.len() as u32);
                for b in out_buckets {
                    b.encode(buf);
                }
            }
            WorkerMsg::Err { msg } => {
                codec::put_u8(buf, WM_ERR);
                codec::put_bytes(buf, msg.as_bytes());
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match codec::get_u8(input)? {
            WM_INIT_OK => Ok(WorkerMsg::InitOk),
            WM_REDUCE_DONE => {
                let part = codec::get_u32(input)?;
                let emitted = codec::get_u64(input)?;
                // Each bucket carries at least its record count.
                let n = codec::get_count(input, 4)?;
                let out_buckets = (0..n).map(|_| Records::decode(input)).collect::<Result<_, _>>()?;
                Ok(WorkerMsg::ReduceDone { part, emitted, out_buckets })
            }
            WM_ERR => Ok(WorkerMsg::Err { msg: codec::get_string(input)? }),
            t => Err(CodecError(format!("unknown worker message tag {t}"))),
        }
    }
}

impl Reply for WorkerMsg {
    const BYE: u8 = WM_BYE;
    const METRICS: Option<u8> = Some(WM_METRICS);
    fn refusal(&self) -> Option<&str> {
        match self {
            WorkerMsg::Err { msg } => Some(msg),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Builds the job's reducer from the driver's opaque spec, handed the
/// worker's counters so pipeline counters ride back in `Bye`.
type ReducerFactory = dyn Fn(&[u8], &Counters) -> Result<Box<dyn Reducer>, String>;
/// Builds the job's combiner from the driver's opaque combine spec.
type CombinerFactory = dyn Fn(&[u8], &Counters) -> Result<Box<dyn ShuffleCombiner>, String>;

/// Serve one driver as a shuffle worker: accept a connection, build the
/// reducer from the driver's opaque spec via `factory` (handing it the
/// worker's counters so pipeline counters ride back in `Bye`), then reduce
/// partitions until `Shutdown` or the driver's connection closes.
///
/// Returns `Ok(())` on a clean shutdown *and* on driver disappearance —
/// a worker whose driver died must exit, not linger.
pub fn serve_shuffle(
    listener: &Listener,
    accept_timeout_ns: u64,
    factory: &ReducerFactory,
) -> Result<(), TransportError> {
    rpc::serve(&mut rpc::accept(listener, accept_timeout_ns)?, &mut ShuffleWorker::new(factory, None))
}

/// [`serve_shuffle`] plus combiner support: when the driver follows `Init`
/// with a `DriverMsg::CombineSpec` frame, `combiner_factory` builds the
/// pipeline's [`ShuffleCombiner`] from the opaque spec, and every non-final
/// round's output buckets are partially aggregated *before* they travel
/// back over the wire — the shuffle-byte saving the combiner exists for.
/// A driver that never sends `CombineSpec` gets plain [`serve_shuffle`]
/// behaviour.
pub fn serve_shuffle_combining(
    listener: &Listener,
    accept_timeout_ns: u64,
    factory: &ReducerFactory,
    combiner_factory: &CombinerFactory,
) -> Result<(), TransportError> {
    let mut worker = ShuffleWorker::new(factory, Some(combiner_factory));
    rpc::serve(&mut rpc::accept(listener, accept_timeout_ns)?, &mut worker)
}

/// One shuffle worker's session with its driver.
struct ShuffleWorker<'a> {
    factory: &'a ReducerFactory,
    combiner_factory: Option<&'a CombinerFactory>,
    counters: Counters,
    obs: Obs,
    /// Built by `Init`.
    reducer: Option<Box<dyn Reducer>>,
    r_parts: usize,
    flush_every: u64,
    /// `(total_rounds, combiner)` once a CombineSpec arrives.
    combiner: Option<(usize, Box<dyn ShuffleCombiner>)>,
}

impl<'a> ShuffleWorker<'a> {
    fn new(factory: &'a ReducerFactory, combiner_factory: Option<&'a CombinerFactory>) -> Self {
        Self {
            factory,
            combiner_factory,
            counters: Counters::new(),
            obs: Obs::default(),
            reducer: None,
            r_parts: 0,
            flush_every: 0,
            combiner: None,
        }
    }
}

impl Service for ShuffleWorker<'_> {
    type Request = DriverMsg;
    type Reply = WorkerMsg;

    fn handle(&mut self, req: DriverMsg) -> Result<Step<WorkerMsg>, TransportError> {
        let Some(reducer) = self.reducer.as_deref() else {
            let DriverMsg::Init { spec, r_parts, identity, flush_every } = req else {
                return Err(TransportError::Protocol(format!("expected Init, got {req:?}")));
            };
            self.obs = identity.obs();
            self.r_parts = r_parts as usize;
            self.flush_every = flush_every;
            return Ok(match (self.factory)(&spec, &self.counters) {
                Ok(r) => {
                    self.reducer = Some(r);
                    Step::Reply(WorkerMsg::InitOk)
                }
                Err(msg) => Step::Last(WorkerMsg::Err { msg }),
            });
        };
        match req {
            DriverMsg::Init { .. } => Err(TransportError::Protocol("duplicate Init".to_string())),
            DriverMsg::CombineSpec { rounds, spec } => {
                let Some(build) = self.combiner_factory else {
                    return Err(TransportError::Protocol(
                        "driver sent CombineSpec to a worker without combiner support".to_string(),
                    ));
                };
                Ok(match build(&spec, &self.counters) {
                    Ok(c) => {
                        self.combiner = Some((rounds as usize, c));
                        Step::Reply(WorkerMsg::InitOk)
                    }
                    Err(msg) => Step::Last(WorkerMsg::Err { msg }),
                })
            }
            DriverMsg::Reduce { round, part, ctx, mut records } => {
                // Parent under the driver RPC span that issued this task —
                // the causal edge the merged Chrome trace renders as a flow
                // arrow from `dist.w{i}` into this worker's lane.
                let span = self.obs.span_child_of(&format!("reduce.r{round}.p{part}"), "reduce", ctx);
                self.counters.add(&format!("reduce.r{round}.input_records"), records.len() as u64);
                let stage = ReduceStage {
                    reducer,
                    combiner: self.combiner.as_ref().map(|(_, c)| c.as_ref()),
                    rounds: self.combiner.as_ref().map_or(0, |(rounds, _)| *rounds),
                    r_parts: self.r_parts,
                    // The debug double-run never changes output (pinned by
                    // an engine test), and the local placements cover it.
                    verify_determinism: false,
                    counters: &self.counters,
                };
                let reduced = stage.run(round as usize, &mut records, true);
                self.counters.inc("worker.tasks");
                drop(span);
                // Task-count pacing is the logical-clock analogue of a
                // periodic timer: deterministic for a seeded job, and it
                // fires exactly when there is something new to report.
                Ok(Step::Paced(WorkerMsg::ReduceDone {
                    part,
                    emitted: reduced.emitted,
                    out_buckets: reduced.out_buckets,
                }))
            }
            DriverMsg::Shutdown => Ok(Step::Bye),
        }
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.counters.snapshot()
    }

    fn flush_every(&self) -> u64 {
        self.flush_every
    }
}

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

/// Require a set-up reply to be `InitOk`.
fn init_ok(reply: WorkerMsg, w: usize) -> Result<(), JobError> {
    match reply {
        WorkerMsg::InitOk => Ok(()),
        other => Err(rpc::unexpected(&format!("w{w} set-up"), other).into()),
    }
}

/// The driver's end of [`crate::engine::Placement::Remote`]: one
/// connection per shuffle worker, alive for the whole job.
pub(crate) struct RemoteSite<'a> {
    workers: RemoteWorkers<'a>,
    cfg: &'a JobConfig,
    counters: &'a Counters,
    /// `None` once a worker is lost.
    conns: Vec<Option<Client>>,
    /// Reduce tasks written to a worker so far, across rounds.
    dispatched: AtomicUsize,
}

/// Per-round dispatch state shared by the driver's per-worker threads.
///
/// Dispatch is *static*: partition `p` is homed on worker `p % W` via
/// per-worker queues, so a fault-free run assigns every task to the same
/// worker on every execution — the property that makes the merged trace
/// byte-identical for seeded runs. The shared `overflow` queue only ever
/// holds tasks re-queued from a dead worker; survivors steal from it after
/// draining their own queue, restoring the failure-recovery behaviour.
struct RoundState<'a> {
    round: usize,
    partitions: &'a [Records],
    queues: Vec<Mutex<VecDeque<(usize, usize)>>>,
    overflow: Mutex<VecDeque<(usize, usize)>>,
    slots: Vec<Mutex<Option<Vec<Records>>>>,
    filled: AtomicUsize,
    fatal: Mutex<Option<JobError>>,
}

impl<'a> RemoteSite<'a> {
    /// Connect to every worker and initialise it with the job's `spec`
    /// (and, for a `combining` job, the same bytes again as its combine
    /// spec). Startup is all-or-nothing: a worker that cannot be reached
    /// here is a deployment failure, not a mid-job fault.
    pub(crate) fn connect(
        workers: RemoteWorkers<'a>,
        cfg: &'a JobConfig,
        counters: &'a Counters,
        spec: &[u8],
        combining: bool,
    ) -> Result<Self, JobError> {
        if workers.endpoints.is_empty() {
            return Err(JobError::Transport(TransportError::Protocol("no worker endpoints".to_string())));
        }
        counters.record_max("dist.workers", workers.endpoints.len() as u64);
        let clock = Clock::monotonic();
        let mut conns = Vec::with_capacity(workers.endpoints.len());
        for (w, ep) in workers.endpoints.iter().enumerate() {
            let stats = FrameStats::from_obs(&cfg.obs, &format!("shuffle.w{w}"), DRIVER_MSG_NAMES, WORKER_MSG_NAMES);
            let mut client = Client::connect(ep, &clock, workers.opts, stats, format!("w{w}"), counters.clone())?;
            let init = DriverMsg::Init {
                spec: spec.to_vec(),
                r_parts: cfg.reduce_tasks as u32,
                identity: TraceIdentity::for_peer(&cfg.obs, PeerKind::Shuffle, w),
                flush_every: cfg.metrics_flush_every,
            };
            init_ok(client.call(&init)?, w)?;
            if combining {
                let combine = DriverMsg::CombineSpec { rounds: cfg.reduce_rounds as u32, spec: spec.to_vec() };
                init_ok(client.call(&combine)?, w)?;
            }
            conns.push(Some(client));
        }
        Ok(Self { workers, cfg, counters, conns, dispatched: AtomicUsize::new(0) })
    }

    /// Reduce every partition of `round` on the workers; returns each
    /// partition's out-buckets in partition order.
    pub(crate) fn run_round(&mut self, round: usize, partitions: &[Records]) -> Result<Vec<Vec<Records>>, JobError> {
        let n_workers = self.conns.len();
        let mut queues: Vec<VecDeque<(usize, usize)>> = (0..n_workers).map(|_| VecDeque::new()).collect();
        for p in 0..partitions.len() {
            queues[p % n_workers].push_back((p, 0usize));
        }
        let state = RoundState {
            round,
            partitions,
            queues: queues.into_iter().map(Mutex::new).collect(),
            overflow: Mutex::new(VecDeque::new()),
            slots: (0..partitions.len()).map(|_| Mutex::new(None)).collect(),
            filled: AtomicUsize::new(0),
            fatal: Mutex::new(None),
        };
        let taken = std::mem::take(&mut self.conns);
        let site = &*self;
        let conns = std::thread::scope(|scope| {
            let handles: Vec<_> = taken
                .into_iter()
                .enumerate()
                .map(|(w, client)| {
                    let state = &state;
                    scope.spawn(move || match client {
                        Some(client) => site.drive_worker(w, client, state),
                        None => {
                            // A worker lost in an earlier round still
                            // has a home queue this round: hand its
                            // tasks to the survivors.
                            let mut overflow = lock_ignoring_poison(&state.overflow);
                            let mut own = lock_ignoring_poison(&state.queues[w]);
                            overflow.extend(own.drain(..));
                            None
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(None)).collect()
        });
        self.conns = conns;
        if let Some(e) = lock_ignoring_poison(&state.fatal).take() {
            return Err(e);
        }
        state
            .slots
            .into_iter()
            .enumerate()
            .map(|(p, slot)| {
                slot.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner).ok_or_else(|| {
                    JobError::Transport(TransportError::Protocol(format!(
                        "all workers lost before partition {p} of round {round} completed"
                    )))
                })
            })
            .collect()
    }

    /// Shut every surviving worker down and merge what it ships back: its
    /// counters (under a `w{i}.` prefix: they describe executed attempts,
    /// including re-runs, not the job's exact record flow) and its trace
    /// (under a `w{i}/` track prefix). A worker that died after its last
    /// task already has its partitions safely re-run; losing its counters
    /// is fine.
    pub(crate) fn shutdown(mut self) {
        for client in self.conns.iter_mut().flatten() {
            client.shutdown::<WorkerMsg>(&DriverMsg::Shutdown, &self.cfg.obs);
        }
    }

    /// One driver thread pumping one worker connection for one round.
    /// Returns the connection if the worker is still alive, `None` if it
    /// died (its in-flight partition is re-queued for the survivors).
    fn drive_worker(&self, w: usize, mut client: Client, state: &RoundState<'_>) -> Option<Client> {
        let (round, counters) = (state.round, self.counters);
        loop {
            if lock_ignoring_poison(&state.fatal).is_some() {
                return Some(client);
            }
            // Round barrier: all partitions of round r feed round r+1.
            if state.filled.load(Ordering::SeqCst) == state.slots.len() {
                return Some(client);
            }
            // Home queue first (static assignment), then stolen work from
            // dead workers.
            let task = lock_ignoring_poison(&state.queues[w])
                .pop_front()
                .or_else(|| lock_ignoring_poison(&state.overflow).pop_front());
            let Some((p, attempt)) = task else {
                // Queues drained but slots outstanding: another worker is
                // in flight (or just died and is about to re-queue). Poll.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            let mut span = self.cfg.obs.span(&format!("dist.w{w}"), &format!("rpc.reduce.r{round}"));
            span.counter("partition", p as u64);
            // The frame is freed before the reply is awaited.
            let sent = {
                let mut frame = Vec::new();
                put_reduce(&mut frame, round as u32, p as u32, span.context(), &state.partitions[p]);
                client.send(&frame)
            };
            if sent.is_ok() {
                counters.inc("reduce.attempted_tasks");
                let n = self.dispatched.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(hook) = self.workers.on_dispatch {
                    hook(n);
                }
            }
            let fatal = |e: JobError| {
                lock_ignoring_poison(&state.fatal).get_or_insert(e);
            };
            match sent.and_then(|()| client.reply::<WorkerMsg>()) {
                Ok(WorkerMsg::ReduceDone { part, emitted, out_buckets }) if part as usize == p => {
                    counters.add(&format!("reduce.r{round}.output_records"), emitted);
                    counters.inc("reduce.committed_tasks");
                    *lock_ignoring_poison(&state.slots[p]) = Some(out_buckets);
                    state.filled.fetch_add(1, Ordering::SeqCst);
                }
                Ok(other) => {
                    fatal(JobError::Transport(TransportError::Protocol(format!(
                        "unexpected reply to reduce.r{round}.p{p} from worker {w}: {other:?}"
                    ))));
                    return Some(client);
                }
                // A reply that does not decode, or a refusal: a bug, not
                // a death — re-running it elsewhere would not help.
                Err(e @ TransportError::Protocol(_)) => {
                    fatal(JobError::Transport(e));
                    return Some(client);
                }
                Err(_) => {
                    // Worker died (EOF / timeout / reset): re-queue the
                    // partition for a surviving worker, retire this
                    // connection (and push its remaining home queue to the
                    // survivors too).
                    counters.inc("task_retries");
                    span.counter("retries", 1);
                    if attempt + 1 >= self.cfg.max_attempts {
                        fatal(JobError::Transport(TransportError::Protocol(format!(
                            "partition {p} of round {round} exhausted {} attempts across workers",
                            self.cfg.max_attempts
                        ))));
                    } else {
                        let mut overflow = lock_ignoring_poison(&state.overflow);
                        overflow.push_back((p, attempt + 1));
                        let mut own = lock_ignoring_poison(&state.queues[w]);
                        overflow.extend(own.drain(..));
                    }
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobResult, KeyValue, MapReduceJob, Mapper, Placement};
    use crate::rpc::Bye;
    use crate::transport::{Endpoint, Framed};
    use agl_obs::TraceEvent;
    use std::path::PathBuf;

    struct WordMap;
    impl Mapper for WordMap {
        fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
            for w in input.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                emit(w.to_vec(), 1u64.to_bytes());
            }
        }
    }

    struct SumReduce;
    impl Reducer for SumReduce {
        fn reduce(
            &self,
            _round: usize,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) {
            let total: u64 = values.map(|v| u64::from_bytes(v).unwrap()).sum();
            emit(key.to_vec(), total.to_bytes());
        }
    }

    fn word_inputs() -> Vec<Vec<u8>> {
        vec![
            b"the quick brown fox jumps".to_vec(),
            b"the lazy dog naps".to_vec(),
            b"the fox naps too".to_vec(),
            b"quick quick fox".to_vec(),
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("agl-dist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sum_factory(_spec: &[u8], _c: &Counters) -> Result<Box<dyn Reducer>, String> {
        Ok(Box::new(SumReduce))
    }

    /// Pre-sums a group's `u64` values into one record — exact for the
    /// commutative+associative integer sum `SumReduce` computes.
    struct SumCombiner;
    impl ShuffleCombiner for SumCombiner {
        fn combines(&self, _round: usize, _key: &[u8], n_values: usize) -> bool {
            n_values >= 2
        }
        fn combine(&self, _round: usize, _key: &[u8], values: &mut Vec<Vec<u8>>) {
            let total: u64 = values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
            values.clear();
            values.push(total.to_bytes());
        }
    }

    fn sum_combiner_factory(_spec: &[u8], _c: &Counters) -> Result<Box<dyn ShuffleCombiner>, String> {
        Ok(Box::new(SumCombiner))
    }

    fn opts() -> DistOptions {
        DistOptions { connect_timeout_ns: 5_000_000_000, io_timeout_ns: 10_000_000_000 }
    }

    /// The word-count job on [`Placement::Remote`] against the workers at
    /// `eps`.
    fn run_remote(
        cfg: JobConfig,
        eps: &[Endpoint],
        combiner: Option<&dyn ShuffleCombiner>,
    ) -> Result<JobResult, JobError> {
        let workers = RemoteWorkers { endpoints: eps, opts: &opts(), on_dispatch: None };
        let spec = || b"spec".to_vec();
        MapReduceJob::new(cfg).run_on(Placement::Remote(workers), &word_inputs(), &WordMap, &SumReduce, combiner, &spec)
    }

    #[test]
    fn distributed_output_is_byte_identical_to_in_process() {
        let dir = temp_dir("smoke");
        let cfg = JobConfig { reduce_rounds: 2, ..JobConfig::default() };
        let expected = MapReduceJob::new(cfg.clone()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();

        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        let result = std::thread::scope(|s| {
            for l in &listeners {
                s.spawn(move || serve_shuffle(l, 5_000_000_000, &sum_factory).unwrap());
            }
            run_remote(cfg, &eps, None).unwrap()
        });
        assert_eq!(result.output, expected.output, "byte-identical output, same order");
        for name in ["map.input_records", "map.output_records", "reduce.r1.input_records", "output_records"] {
            assert_eq!(result.counters.get(name), expected.counters.get(name), "{name}");
        }
        assert_eq!(result.counters.get("task_retries"), 0);
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn combining_dist_run_is_byte_identical_to_combining_engine_run() {
        let dir = temp_dir("combine");
        let cfg = JobConfig { reduce_rounds: 2, ..JobConfig::default() };
        let expected = MapReduceJob::new(cfg.clone())
            .run_on(Placement::Threads, &word_inputs(), &WordMap, &SumReduce, Some(&SumCombiner), &Vec::new)
            .unwrap();
        let plain = MapReduceJob::new(cfg.clone()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();

        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        let result = std::thread::scope(|s| {
            for l in &listeners {
                s.spawn(move || {
                    serve_shuffle_combining(l, 5_000_000_000, &sum_factory, &sum_combiner_factory).unwrap()
                });
            }
            run_remote(cfg, &eps, Some(&SumCombiner)).unwrap()
        });
        assert_eq!(result.output, expected.output, "byte-identical to the combining engine run");
        let mut sorted_plain = plain.output.clone();
        let mut sorted_combined = result.output.clone();
        sorted_plain.sort_by(|a, b| (&a.key, &a.value).cmp(&(&b.key, &b.value)));
        sorted_combined.sort_by(|a, b| (&a.key, &a.value).cmp(&(&b.key, &b.value)));
        assert_eq!(sorted_combined, sorted_plain, "combining never changes the result multiset");
        assert!(result.counters.get("combine.records_in") > result.counters.get("combine.records_out"));
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_worker_rejects_combine_spec() {
        let dir = temp_dir("nocombine");
        let cfg = JobConfig { reduce_rounds: 1, ..JobConfig::default() };
        let ep = Endpoint::Unix(dir.join("w0.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let err = std::thread::scope(|s| {
            // The worker errors out on the CombineSpec frame; the driver
            // sees the connection close during the handshake.
            s.spawn(|| {
                let _ = serve_shuffle(&listener, 5_000_000_000, &sum_factory);
            });
            run_remote(cfg, std::slice::from_ref(&ep), Some(&SumCombiner)).unwrap_err()
        });
        assert!(matches!(err, JobError::Transport(_)), "{err}");
        drop(listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker that accepts, inits, then drops the connection on its first
    /// reduce task — the thread-mode analogue of SIGKILL mid-task.
    fn serve_flaky(listener: &Listener) {
        let clock = Clock::monotonic();
        let conn = listener.accept_deadline(&clock, 5_000_000_000).unwrap();
        let mut framed = Framed::new(conn);
        let _init = framed.recv().unwrap().unwrap();
        framed.send(&WorkerMsg::InitOk.to_bytes()).unwrap();
        // Receive the first task, then vanish without replying.
        let _task = framed.recv().unwrap();
    }

    #[test]
    fn dead_worker_partition_is_rerun_deterministically() {
        let dir = temp_dir("flaky");
        let cfg = JobConfig { reduce_rounds: 2, ..JobConfig::default() };
        let expected = MapReduceJob::new(cfg.clone()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();

        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        let result = std::thread::scope(|s| {
            s.spawn(|| serve_flaky(&listeners[0]));
            s.spawn(|| serve_shuffle(&listeners[1], 5_000_000_000, &sum_factory).unwrap());
            run_remote(cfg, &eps, None).unwrap()
        });
        assert_eq!(result.output, expected.output, "lost partition re-ran with identical output");
        assert!(result.counters.get("task_retries") >= 1);
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn losing_every_worker_fails_typed_not_hung() {
        let dir = temp_dir("alldead");
        let cfg = JobConfig { reduce_rounds: 1, max_attempts: 2, ..JobConfig::default() };
        let ep = Endpoint::Unix(dir.join("w0.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let err = std::thread::scope(|s| {
            s.spawn(|| serve_flaky(&listener));
            run_remote(cfg, std::slice::from_ref(&ep), None).unwrap_err()
        });
        assert!(matches!(err, JobError::Transport(_)), "{err}");
        drop(listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_merges_worker_counters_and_trace() {
        let dir = temp_dir("merge");
        let obs = Obs::enabled_logical();
        let cfg = JobConfig { reduce_rounds: 1, obs: obs.clone(), ..JobConfig::default() };
        let ep = Endpoint::Unix(dir.join("w0.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let result = std::thread::scope(|s| {
            s.spawn(|| serve_shuffle(&listener, 5_000_000_000, &sum_factory).unwrap());
            run_remote(cfg, std::slice::from_ref(&ep), None).unwrap()
        });
        assert!(result.counters.get("w0.worker.tasks") > 0, "{:?}", result.counters.snapshot());
        let tracks: Vec<String> =
            obs.trace().map(|t| t.events().into_iter().map(|e| e.track).collect()).unwrap_or_default();
        assert!(tracks.iter().any(|t| t.starts_with("w0/reduce.r0")), "worker spans merged: {tracks:?}");
        assert!(tracks.iter().any(|t| t == "driver"), "{tracks:?}");
        drop(listener);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn driver_msg_codec_round_trips() {
        let msgs = [
            DriverMsg::Init {
                spec: vec![1, 2, 3],
                r_parts: 4,
                identity: TraceIdentity { trace: true, trace_id: 77, salt: 2 },
                flush_every: 4,
            },
            DriverMsg::Reduce {
                round: 1,
                part: 2,
                ctx: Some(agl_obs::SpanContext { trace_id: 77, span_id: 0xFEED }),
                records: Records::from_key_values(&[KeyValue::new(b"k".to_vec(), b"v".to_vec())]),
            },
            DriverMsg::Reduce { round: 0, part: 0, ctx: None, records: Records::new() },
            DriverMsg::CombineSpec { rounds: 3, spec: vec![9, 8] },
            DriverMsg::Shutdown,
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            let back = DriverMsg::from_bytes(&bytes).unwrap();
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        // Length inflation: a 14-byte Reduce frame claiming 4 G records is
        // refused by the count check, not handed to the allocator.
        let mut inflated = DriverMsg::Reduce { round: 0, part: 0, ctx: None, records: Records::new() }.to_bytes();
        assert_eq!(inflated.len(), 14);
        inflated[10..].fill(0xFF);
        let err = DriverMsg::from_bytes(&inflated).unwrap_err();
        assert!(err.0.contains("exceeds remaining"), "{err}");
        // Golden bytes: the record layout on the wire is a `u32` count, then
        // a `u32`-length-prefixed key and value per record.
        let msg = DriverMsg::Reduce { round: 1, part: 2, ctx: None, records: golden_records() };
        let mut golden = vec![DM_REDUCE, 1, 0, 0, 0, 2, 0, 0, 0, 0];
        golden.extend(GOLDEN_RECORDS);
        assert_eq!(msg.to_bytes(), golden);
        assert_eq!(format!("{:?}", DriverMsg::from_bytes(&golden).unwrap()), format!("{msg:?}"));
        // Golden bytes of the set-up frames: `Init` is the spec, the fan-out,
        // the trace identity (flag, trace id, salt) and the flush cadence.
        let init = DriverMsg::Init {
            spec: vec![1, 2, 3],
            r_parts: 4,
            identity: TraceIdentity { trace: true, trace_id: 77, salt: 2 },
            flush_every: 4,
        };
        let golden: Vec<u8> = [
            &[DM_INIT, 3, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 1][..],
            &77u64.to_le_bytes(),
            &2u64.to_le_bytes(),
            &4u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(init.to_bytes(), golden);
        let combine = DriverMsg::CombineSpec { rounds: 3, spec: vec![9, 8] };
        assert_eq!(combine.to_bytes(), [DM_COMBINE, 3, 0, 0, 0, 2, 0, 0, 0, 9, 8]);
        // The metric-name tables list every tag, in tag order.
        assert_eq!(
            [DRIVER_MSG_NAMES[DM_COMBINE as usize], WORKER_MSG_NAMES[WM_METRICS as usize]],
            ["combine_spec", "metrics"]
        );
    }

    /// Three records: one plain, one with an empty key, one with an empty
    /// value.
    fn golden_records() -> Records {
        Records::from_key_values(&[
            KeyValue::new(b"k".to_vec(), b"v".to_vec()),
            KeyValue::new(vec![], b"e".to_vec()),
            KeyValue::new(b"x".to_vec(), vec![]),
        ])
    }

    /// [`golden_records`] on the wire.
    #[rustfmt::skip]
    const GOLDEN_RECORDS: [u8; 32] = [
        3, 0, 0, 0,
        1, 0, 0, 0, b'k', 1, 0, 0, 0, b'v',
        0, 0, 0, 0, 1, 0, 0, 0, b'e',
        1, 0, 0, 0, b'x', 0, 0, 0, 0,
    ];

    #[test]
    fn reduce_with_unknown_ctx_version_is_rejected() {
        let msg = DriverMsg::Reduce {
            round: 0,
            part: 0,
            ctx: Some(agl_obs::SpanContext { trace_id: 1, span_id: 2 }),
            records: Records::new(),
        };
        let mut bytes = msg.to_bytes();
        // The ctx header version byte sits right after tag + round + part.
        bytes[9] = 250;
        let err = DriverMsg::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("unknown span context version 250"), "{err}");
    }

    #[test]
    fn worker_msg_codec_round_trips() {
        let msgs = [
            WorkerMsg::InitOk,
            WorkerMsg::ReduceDone {
                part: 3,
                emitted: 7,
                out_buckets: vec![
                    Records::new(),
                    Records::from_key_values(&[KeyValue::new(b"a".to_vec(), b"b".to_vec())]),
                ],
            },
            WorkerMsg::Err { msg: "bad spec".to_string() },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            let back = WorkerMsg::from_bytes(&bytes).unwrap();
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        // Length inflation at every count a worker message carries: the
        // bucket count and a bucket's record count.
        for (msg, count_at) in [
            (WorkerMsg::ReduceDone { part: 0, emitted: 0, out_buckets: vec![] }.to_bytes(), 13),
            (WorkerMsg::ReduceDone { part: 0, emitted: 0, out_buckets: vec![Records::new()] }.to_bytes(), 17),
        ] {
            let mut inflated = msg;
            inflated[count_at..count_at + 4].fill(0xFF);
            let err = WorkerMsg::from_bytes(&inflated).unwrap_err();
            assert!(err.0.contains("exceeds remaining"), "count at {count_at}: {err}");
        }
        // Golden bytes: part, emitted, the bucket count, then each bucket in
        // the record layout — here an empty one and the three golden records.
        let msg = WorkerMsg::ReduceDone { part: 3, emitted: 3, out_buckets: vec![Records::new(), golden_records()] };
        let mut golden = vec![WM_REDUCE_DONE, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        golden.extend(GOLDEN_RECORDS);
        assert_eq!(msg.to_bytes(), golden);
        assert_eq!(format!("{:?}", WorkerMsg::from_bytes(&golden).unwrap()), format!("{msg:?}"));
        // Golden bytes of the control frames, tag then payload: a counter
        // list is a `u32` count of (name, `u64`) pairs; `Bye` follows it with
        // the trace.
        let mut bye = vec![WorkerMsg::BYE];
        Bye { counters: vec![("n".to_string(), 9)], trace: vec![] }.encode(&mut bye);
        let golden: Vec<u8> =
            [&[WM_BYE, 1, 0, 0, 0, 1, 0, 0, 0, b'n'][..], &9u64.to_le_bytes(), &[0, 0, 0, 0]].concat();
        assert_eq!(bye, golden);
        let mut metrics = vec![WorkerMsg::METRICS.unwrap()];
        codec::put_counters(&mut metrics, &[("worker.tasks".to_string(), 3)]);
        let golden: Vec<u8> =
            [&[WM_METRICS, 1, 0, 0, 0, 12, 0, 0, 0][..], b"worker.tasks", &3u64.to_le_bytes()].concat();
        assert_eq!(metrics, golden);
        // Neither is a `WorkerMsg`: a control frame where a reply belongs
        // is a decode error.
        assert!(WorkerMsg::from_bytes(&bye).is_err());
    }

    #[test]
    fn worker_spans_parent_under_driver_rpc_spans() {
        let dir = temp_dir("causal");
        let obs = Obs::enabled_logical();
        let cfg = JobConfig { reduce_rounds: 2, obs: obs.clone(), ..JobConfig::default() };
        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        std::thread::scope(|s| {
            for l in &listeners {
                s.spawn(move || serve_shuffle(l, 5_000_000_000, &sum_factory).unwrap());
            }
            run_remote(cfg, &eps, None).unwrap()
        });
        let events = obs.trace().unwrap().events();
        let driver_ids: std::collections::BTreeSet<u64> =
            events.iter().filter(|e| e.track.starts_with("dist.w")).map(|e| e.span_id).collect();
        let worker_reduces: Vec<&TraceEvent> =
            events.iter().filter(|e| e.track.contains("/reduce.") && e.name == "reduce").collect();
        assert!(!worker_reduces.is_empty(), "worker spans merged into the driver trace");
        for e in &worker_reduces {
            assert!(
                driver_ids.contains(&e.parent_id),
                "worker span {}/{} must parent under a driver rpc span, got parent {}",
                e.track,
                e.name,
                e.parent_id
            );
        }
        // Metrics flushed mid-flight and merged without double-counting:
        // per-worker task counters equal the whole job's committed tasks.
        let m = obs.metrics().unwrap();
        let total_worker_tasks = m.get("w0.worker.tasks") + m.get("w1.worker.tasks");
        assert_eq!(total_worker_tasks, m.get("reduce.committed_tasks"), "attempts == committed when nothing fails");
        assert_eq!(m.get("reduce.attempted_tasks"), m.get("reduce.committed_tasks"));
        assert!(m.get("rpc.shuffle.w0.send.reduce.frames") > 0, "rpc telemetry populated");
        assert!(m.get("rpc.shuffle.w1.recv.reduce_done.bytes") > 0, "rpc byte totals populated");
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_worker_keeps_committed_tasks_exact() {
        // The de-duplication pin: a worker that dies mid-task inflates
        // attempts but never the committed count, and merged per-worker
        // counters (record_max over cumulative snapshots) stay exact.
        let dir = temp_dir("dedup");
        let obs = Obs::enabled_logical();
        let cfg = JobConfig { reduce_rounds: 2, obs: obs.clone(), metrics_flush_every: 1, ..JobConfig::default() };
        let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
        let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
        std::thread::scope(|s| {
            s.spawn(|| serve_flaky(&listeners[0]));
            s.spawn(|| serve_shuffle(&listeners[1], 5_000_000_000, &sum_factory).unwrap());
            run_remote(cfg, &eps, None).unwrap()
        });
        let m = obs.metrics().unwrap();
        let committed = m.get("reduce.committed_tasks");
        let attempted = m.get("reduce.attempted_tasks");
        let total = (JobConfig::default().reduce_tasks * 2) as u64;
        assert_eq!(committed, total, "every partition committed exactly once");
        assert!(attempted > committed, "the killed task counts as an attempt: {attempted} vs {committed}");
        assert_eq!(m.get("w1.worker.tasks"), committed, "survivor ran everything, snapshots not double-counted");
        drop(listeners);
        std::fs::remove_dir_all(&dir).ok();
    }
}
