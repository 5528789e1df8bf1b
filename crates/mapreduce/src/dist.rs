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
//! it ships its counters and trace spans back for the merged report.
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
use crate::transport::{connect, Endpoint, FrameStats, Framed, Listener, TransportError};
use agl_obs::{Clock, Obs, TraceEvent};
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
    /// (opaque to this crate), the shuffle fan-out, whether the worker
    /// should record a trace to ship back, the job's shared trace identity
    /// (`trace_id` + this worker's span-id `salt`), and the metrics flush
    /// cadence (`flush_every` tasks; 0 disables mid-flight snapshots).
    Init { spec: Vec<u8>, r_parts: u32, trace: bool, trace_id: u64, salt: u64, flush_every: u64 },
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

/// Metric name for a driver→worker shuffle message tag (see
/// [`crate::transport::FrameStats`]).
pub fn driver_msg_name(tag: u8) -> &'static str {
    match tag {
        DM_INIT => "init",
        DM_REDUCE => "reduce",
        DM_SHUTDOWN => "shutdown",
        DM_COMBINE => "combine_spec",
        _ => "unknown",
    }
}

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
            DriverMsg::Init { spec, r_parts, trace, trace_id, salt, flush_every } => {
                codec::put_u8(buf, DM_INIT);
                codec::put_bytes(buf, spec);
                codec::put_u32(buf, *r_parts);
                codec::put_u8(buf, u8::from(*trace));
                codec::put_u64(buf, *trace_id);
                codec::put_u64(buf, *salt);
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
                let trace = codec::get_u8(input)? != 0;
                let trace_id = codec::get_u64(input)?;
                let salt = codec::get_u64(input)?;
                let flush_every = codec::get_u64(input)?;
                Ok(DriverMsg::Init { spec, r_parts, trace, trace_id, salt, flush_every })
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

/// Worker → driver messages.
#[derive(Debug)]
enum WorkerMsg {
    /// Reducer built; ready for tasks.
    InitOk,
    /// One partition reduced: emissions re-partitioned for the next round.
    ReduceDone { part: u32, emitted: u64, out_buckets: Vec<Records> },
    /// Shutdown acknowledgement: worker-local counters and trace events
    /// for the driver's merged report.
    Bye { counters: Vec<(String, u64)>, trace: Vec<TraceEvent> },
    /// Mid-flight metrics snapshot: a *cumulative* view of the worker's
    /// counters, flushed every `flush_every` completed tasks so the driver
    /// sees progress before shutdown. Cumulative + merged with `record_max`
    /// means a lost or duplicated snapshot never skews totals.
    Metrics { counters: Vec<(String, u64)> },
    /// Worker-side setup failure (bad spec).
    Err { msg: String },
}

const WM_INIT_OK: u8 = 0;
const WM_REDUCE_DONE: u8 = 1;
const WM_BYE: u8 = 2;
const WM_ERR: u8 = 3;
const WM_METRICS: u8 = 4;

/// Metric name for a worker→driver shuffle message tag (see
/// [`crate::transport::FrameStats`]).
pub fn worker_msg_name(tag: u8) -> &'static str {
    match tag {
        WM_INIT_OK => "init_ok",
        WM_REDUCE_DONE => "reduce_done",
        WM_BYE => "bye",
        WM_ERR => "err",
        WM_METRICS => "metrics",
        _ => "unknown",
    }
}

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
            WorkerMsg::Bye { counters, trace } => {
                codec::put_u8(buf, WM_BYE);
                codec::put_counters(buf, counters);
                codec::put_u32(buf, trace.len() as u32);
                for e in trace {
                    codec::put_trace_event(buf, e);
                }
            }
            WorkerMsg::Metrics { counters } => {
                codec::put_u8(buf, WM_METRICS);
                codec::put_counters(buf, counters);
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
                let mut out_buckets = Vec::with_capacity(n);
                for _ in 0..n {
                    out_buckets.push(Records::decode(input)?);
                }
                Ok(WorkerMsg::ReduceDone { part, emitted, out_buckets })
            }
            WM_BYE => {
                let counters = codec::get_counters(input)?;
                // Two length prefixes, six u64 fields and an arg count.
                let n = codec::get_count(input, 60)?;
                let mut trace = Vec::with_capacity(n);
                for _ in 0..n {
                    trace.push(codec::get_trace_event(input)?);
                }
                Ok(WorkerMsg::Bye { counters, trace })
            }
            WM_METRICS => Ok(WorkerMsg::Metrics { counters: codec::get_counters(input)? }),
            WM_ERR => Ok(WorkerMsg::Err { msg: codec::get_string(input)? }),
            t => Err(CodecError(format!("unknown worker message tag {t}"))),
        }
    }
}

fn proto(e: CodecError) -> TransportError {
    TransportError::Protocol(e.0)
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

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
    factory: &dyn Fn(&[u8], &Counters) -> Result<Box<dyn Reducer>, String>,
) -> Result<(), TransportError> {
    serve_inner(listener, accept_timeout_ns, factory, None)
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
    factory: &dyn Fn(&[u8], &Counters) -> Result<Box<dyn Reducer>, String>,
    combiner_factory: &dyn Fn(&[u8], &Counters) -> Result<Box<dyn ShuffleCombiner>, String>,
) -> Result<(), TransportError> {
    serve_inner(listener, accept_timeout_ns, factory, Some(combiner_factory))
}

fn serve_inner(
    listener: &Listener,
    accept_timeout_ns: u64,
    factory: &dyn Fn(&[u8], &Counters) -> Result<Box<dyn Reducer>, String>,
    combiner_factory: Option<&dyn Fn(&[u8], &Counters) -> Result<Box<dyn ShuffleCombiner>, String>>,
) -> Result<(), TransportError> {
    let clock = Clock::monotonic();
    let conn = listener.accept_deadline(&clock, accept_timeout_ns)?;
    let mut framed = Framed::new(conn);
    let Some(first) = framed.recv()? else {
        return Ok(());
    };
    let (spec, r_parts, trace, trace_id, salt, flush_every) = match DriverMsg::from_bytes(&first).map_err(proto)? {
        DriverMsg::Init { spec, r_parts, trace, trace_id, salt, flush_every } => {
            (spec, r_parts as usize, trace, trace_id, salt, flush_every)
        }
        other => return Err(TransportError::Protocol(format!("expected Init, got {other:?}"))),
    };
    // A logical clock makes the shipped trace deterministic for a seeded
    // job; monotonic worker timestamps would not merge meaningfully with
    // the driver's clock anyway. The driver-assigned identity keeps span
    // ids collision-free when this trace merges into the driver's.
    let obs = if trace { Obs::enabled_with_identity(Clock::logical(), trace_id, salt) } else { Obs::default() };
    let counters = Counters::new();
    let reducer = match factory(&spec, &counters) {
        Ok(r) => r,
        Err(msg) => {
            framed.send(&WorkerMsg::Err { msg }.to_bytes())?;
            return Ok(());
        }
    };
    framed.send(&WorkerMsg::InitOk.to_bytes())?;
    let mut tasks_done = 0u64;
    // `(total_rounds, combiner)` once a CombineSpec arrives.
    let mut combiner: Option<(usize, Box<dyn ShuffleCombiner>)> = None;
    loop {
        let Some(bytes) = framed.recv()? else {
            // Driver vanished between frames: exit cleanly so no process
            // leaks even when the driver is SIGKILLed.
            return Ok(());
        };
        match DriverMsg::from_bytes(&bytes).map_err(proto)? {
            DriverMsg::Init { .. } => {
                return Err(TransportError::Protocol("duplicate Init".to_string()));
            }
            DriverMsg::CombineSpec { rounds, spec: cspec } => {
                let Some(build) = combiner_factory else {
                    return Err(TransportError::Protocol(
                        "driver sent CombineSpec to a worker without combiner support".to_string(),
                    ));
                };
                match build(&cspec, &counters) {
                    Ok(c) => combiner = Some((rounds as usize, c)),
                    Err(msg) => {
                        framed.send(&WorkerMsg::Err { msg }.to_bytes())?;
                        return Ok(());
                    }
                }
                framed.send(&WorkerMsg::InitOk.to_bytes())?;
            }
            DriverMsg::Reduce { round, part, ctx, mut records } => {
                // Parent under the driver RPC span that issued this task —
                // the causal edge the merged Chrome trace renders as a flow
                // arrow from `dist.w{i}` into this worker's lane.
                let span = obs.span_child_of(&format!("reduce.r{round}.p{part}"), "reduce", ctx);
                counters.add(&format!("reduce.r{round}.input_records"), records.len() as u64);
                let stage = ReduceStage {
                    reducer: reducer.as_ref(),
                    combiner: combiner.as_ref().map(|(_, c)| c.as_ref()),
                    rounds: combiner.as_ref().map_or(0, |(rounds, _)| *rounds),
                    r_parts,
                    // The debug double-run never changes output (pinned by
                    // an engine test), and the local placements cover it.
                    verify_determinism: false,
                    counters: &counters,
                };
                let reduced = stage.run(round as usize, &mut records, true);
                counters.inc("worker.tasks");
                drop(span);
                tasks_done += 1;
                // Task-count pacing is the logical-clock analogue of a
                // periodic timer: deterministic for a seeded job, and it
                // fires exactly when there is something new to report.
                if flush_every > 0 && tasks_done % flush_every == 0 {
                    framed.send(&WorkerMsg::Metrics { counters: counters.snapshot() }.to_bytes())?;
                }
                let done = WorkerMsg::ReduceDone { part, emitted: reduced.emitted, out_buckets: reduced.out_buckets };
                framed.send(&done.to_bytes())?;
            }
            DriverMsg::Shutdown => {
                let trace_events = obs.trace().map(|t| t.events()).unwrap_or_default();
                framed.send(&WorkerMsg::Bye { counters: counters.snapshot(), trace: trace_events }.to_bytes())?;
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

/// Send one set-up frame (`what`) and require the worker's `InitOk`.
fn handshake(framed: &mut Framed, msg: &DriverMsg, ep: &Endpoint, what: &str) -> Result<(), JobError> {
    let refused = |why: String| JobError::Transport(TransportError::Protocol(why));
    framed.send(&msg.to_bytes())?;
    match framed.recv()? {
        Some(bytes) => match WorkerMsg::from_bytes(&bytes).map_err(|e| JobError::Corrupt(e.0))? {
            WorkerMsg::InitOk => Ok(()),
            WorkerMsg::Err { msg } => Err(refused(format!("worker at {ep} rejected {what}: {msg}"))),
            other => Err(refused(format!("unexpected {what} reply from {ep}: {other:?}"))),
        },
        None => Err(refused(format!("worker at {ep} closed during {what}"))),
    }
}

/// The driver's end of [`crate::engine::Placement::Remote`]: one framed
/// connection per shuffle worker, alive for the whole job.
pub(crate) struct RemoteSite<'a> {
    workers: RemoteWorkers<'a>,
    cfg: &'a JobConfig,
    counters: &'a Counters,
    /// `None` once a worker is lost.
    conns: Vec<Option<Framed>>,
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
        let trace_id = cfg.obs.trace().map(|t| t.trace_id()).unwrap_or(0);
        let mut conns = Vec::with_capacity(workers.endpoints.len());
        for (w, ep) in workers.endpoints.iter().enumerate() {
            let conn = connect(ep, &clock, workers.opts.connect_timeout_ns)?;
            conn.set_read_timeout(Some(Duration::from_nanos(workers.opts.io_timeout_ns)))?;
            let stats = FrameStats::from_obs(&cfg.obs, &format!("shuffle.w{w}"), driver_msg_name, worker_msg_name);
            let mut framed = Framed::new(conn).with_stats(stats);
            let init = DriverMsg::Init {
                spec: spec.to_vec(),
                r_parts: cfg.reduce_tasks as u32,
                trace: cfg.obs.is_enabled(),
                trace_id,
                // Salt 0 is the driver's; worker `w` gets `w + 1` so
                // merged span ids stay collision-free.
                salt: w as u64 + 1,
                flush_every: cfg.metrics_flush_every,
            };
            handshake(&mut framed, &init, ep, "init")?;
            if combining {
                let combine = DriverMsg::CombineSpec { rounds: cfg.reduce_rounds as u32, spec: spec.to_vec() };
                handshake(&mut framed, &combine, ep, "combine spec")?;
            }
            conns.push(Some(framed));
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
                .map(|(w, framed)| {
                    let state = &state;
                    scope.spawn(move || match framed {
                        Some(f) => site.drive_worker(w, f, state),
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
    /// (under a `w{i}/` track prefix).
    pub(crate) fn shutdown(mut self) {
        for (w, slot) in self.conns.iter_mut().enumerate() {
            let Some(framed) = slot else { continue };
            let bye = framed.send(&DriverMsg::Shutdown.to_bytes()).and_then(|()| framed.recv());
            // A worker that died after its last task already has its
            // partitions safely re-run; losing its counters is fine.
            if let Ok(Some(bytes)) = bye {
                if let Ok(WorkerMsg::Bye { counters: wc, trace }) = WorkerMsg::from_bytes(&bytes) {
                    // `record_max`, not `add`: mid-flight `Metrics`
                    // snapshots already merged prefixes of these
                    // cumulative values, and adding would double-count.
                    for (name, v) in wc {
                        self.counters.record_max(&format!("w{w}.{name}"), v);
                    }
                    self.cfg.obs.import_trace(&format!("w{w}/"), trace);
                }
            }
        }
    }

    /// One driver thread pumping one worker connection for one round.
    /// Returns the connection if the worker is still alive, `None` if it
    /// died (its in-flight partition is re-queued for the survivors).
    fn drive_worker(&self, w: usize, mut framed: Framed, state: &RoundState<'_>) -> Option<Framed> {
        let (round, counters) = (state.round, self.counters);
        loop {
            if lock_ignoring_poison(&state.fatal).is_some() {
                return Some(framed);
            }
            // Round barrier: all partitions of round r feed round r+1.
            if state.filled.load(Ordering::SeqCst) == state.slots.len() {
                return Some(framed);
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
                framed.send(&frame)
            };
            if sent.is_ok() {
                counters.inc("reduce.attempted_tasks");
                let n = self.dispatched.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(hook) = self.workers.on_dispatch {
                    hook(n);
                }
            }
            // Absorb any mid-flight metrics snapshots the worker flushed
            // ahead of its reply. Snapshots are cumulative, so merging with
            // `record_max` is idempotent and a final `Bye` supersedes them.
            let mut outcome = sent.and_then(|()| framed.recv());
            let reply = loop {
                let bytes = match outcome {
                    Ok(Some(bytes)) => bytes,
                    Ok(None) | Err(_) => {
                        // Worker died (EOF / timeout / reset): re-queue the
                        // partition for a surviving worker, retire this
                        // connection (and push its remaining home queue to
                        // the survivors too).
                        counters.inc("task_retries");
                        span.counter("retries", 1);
                        if attempt + 1 >= self.cfg.max_attempts {
                            lock_ignoring_poison(&state.fatal).get_or_insert_with(|| {
                                JobError::Transport(TransportError::Protocol(format!(
                                    "partition {p} of round {round} exhausted {} attempts across workers",
                                    self.cfg.max_attempts
                                )))
                            });
                        } else {
                            let mut overflow = lock_ignoring_poison(&state.overflow);
                            overflow.push_back((p, attempt + 1));
                            let mut own = lock_ignoring_poison(&state.queues[w]);
                            overflow.extend(own.drain(..));
                        }
                        return None;
                    }
                };
                match WorkerMsg::from_bytes(&bytes) {
                    Ok(WorkerMsg::Metrics { counters: snapshot }) => {
                        for (name, v) in snapshot {
                            counters.record_max(&format!("w{w}.{name}"), v);
                        }
                        outcome = framed.recv();
                    }
                    other => break other,
                }
            };
            match reply {
                Ok(WorkerMsg::ReduceDone { part, emitted, out_buckets }) if part as usize == p => {
                    counters.add(&format!("reduce.r{round}.output_records"), emitted);
                    counters.inc("reduce.committed_tasks");
                    *lock_ignoring_poison(&state.slots[p]) = Some(out_buckets);
                    state.filled.fetch_add(1, Ordering::SeqCst);
                }
                Ok(other) => {
                    lock_ignoring_poison(&state.fatal).get_or_insert_with(|| {
                        JobError::Transport(TransportError::Protocol(format!(
                            "unexpected reply to reduce.r{round}.p{p} from worker {w}: {other:?}"
                        )))
                    });
                    return Some(framed);
                }
                Err(e) => {
                    lock_ignoring_poison(&state.fatal).get_or_insert_with(|| JobError::Corrupt(e.0));
                    return Some(framed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobResult, KeyValue, MapReduceJob, Mapper, Placement};
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
            DriverMsg::Init { spec: vec![1, 2, 3], r_parts: 4, trace: true, trace_id: 77, salt: 2, flush_every: 4 },
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
            WorkerMsg::Bye {
                counters: vec![("n".to_string(), 9)],
                trace: vec![TraceEvent {
                    track: "t".to_string(),
                    seq: 0,
                    name: "s".to_string(),
                    ts: 1,
                    dur: 2,
                    depth: 0,
                    span_id: 11,
                    parent_id: 12,
                    args: vec![("records".to_string(), 5)],
                }],
            },
            WorkerMsg::Metrics { counters: vec![("worker.tasks".to_string(), 3)] },
            WorkerMsg::Err { msg: "bad spec".to_string() },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            let back = WorkerMsg::from_bytes(&bytes).unwrap();
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        // Length inflation at every count a worker message carries: the
        // bucket count, a bucket's record count, the trace-event count and
        // an event's arg count (the last four bytes of a one-event Bye).
        let event = TraceEvent {
            track: "t".into(),
            seq: 0,
            name: "s".into(),
            ts: 1,
            dur: 2,
            depth: 0,
            span_id: 3,
            parent_id: 0,
            args: vec![],
        };
        let one_event = WorkerMsg::Bye { counters: vec![], trace: vec![event] }.to_bytes();
        let n_args_at = one_event.len() - 4;
        for (msg, count_at) in [
            (WorkerMsg::ReduceDone { part: 0, emitted: 0, out_buckets: vec![] }.to_bytes(), 13),
            (WorkerMsg::ReduceDone { part: 0, emitted: 0, out_buckets: vec![Records::new()] }.to_bytes(), 17),
            (WorkerMsg::Bye { counters: vec![], trace: vec![] }.to_bytes(), 5),
            (one_event, n_args_at),
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
    }

    #[test]
    fn truncated_metrics_snapshot_is_rejected() {
        let msg = WorkerMsg::Metrics { counters: vec![("a".to_string(), 1), ("b".to_string(), 2)] };
        let bytes = msg.to_bytes();
        let err = WorkerMsg::from_bytes(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(err.0.contains("need"), "truncated decode is a typed error: {err}");
        // An inflated counter count runs out of input, never out of memory.
        let mut inflated = WorkerMsg::Metrics { counters: vec![] }.to_bytes();
        inflated[1..5].fill(0xFF);
        let err = WorkerMsg::from_bytes(&inflated).unwrap_err();
        assert!(err.0.contains("need"), "{err}");
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
