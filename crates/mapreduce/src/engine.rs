//! The multi-round MapReduce job driver.
//!
//! Execution model (matching §3.2.1 / §3.4 of the paper):
//!
//! 1. **Map** runs once over the input records, emitting `(key, value)`
//!    pairs that are hash-partitioned into `reduce_tasks` shuffle buckets.
//! 2. **Reduce** runs `reduce_rounds` times. Round `r` groups each
//!    partition's records by key, hands every key's value list to the
//!    [`Reducer`], and re-partitions whatever it emits for round `r+1`.
//!    The last round's emissions form the job output.
//!
//! There is one driver ([`MapReduceJob::run_on`]). It owns the job shape —
//! map striping, bucket combining, the per-round gather and its accounting,
//! the final flatten — and therefore the record order, so the output is
//! byte-identical wherever the tasks run. A [`Placement`] chooses only
//! *where a task runs and where pending partitions wait*: a thread pool
//! with the round resident, one task at a time with one partition
//! resident, or shuffle-worker processes behind sockets.
//!
//! Tasks are deterministic functions of their input; the driver exploits
//! this for fault tolerance — a local attempt named by the [`FaultPlan`]
//! has its output discarded and is re-executed, and a partition lost with
//! its remote worker re-runs on a survivor, reproducing the recovery
//! behaviour of a real cluster without changing the job's result.

use crate::counters::Counters;
use crate::dist::{DistOptions, RemoteSite};
use crate::fault::{FaultPlan, TaskId};
use crate::hash::partition;
use crate::records::Records;
use crate::spill::{PartitionStore, SpillMode};
use crate::transport::Endpoint;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One in this many reduce groups is sampled for the debug-mode reorder
/// determinism check (routed by the same FNV-1a hash as the shuffle, so the
/// sample is deterministic across runs and parallelism levels).
const DETERMINISM_SAMPLE_MOD: usize = 4;

/// Upper bound on double-run groups per reduce task, so huge jobs pay a
/// bounded verification cost.
const MAX_VERIFIED_GROUPS_PER_TASK: usize = 4;

/// Acquire `m` even if a panicking holder poisoned it — the engine treats a
/// worker panic as a task failure, not a reason to lose the whole job.
pub(crate) fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One record of a job's output. Inside the job, records travel in paged
/// buffers (see `records.rs`); this owned form is built once, when the
/// last round's buckets are flattened into [`JobResult::output`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyValue {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

impl KeyValue {
    pub fn new(key: Vec<u8>, value: Vec<u8>) -> Self {
        Self { key, value }
    }
}

/// User map function. Must be deterministic: re-execution after a simulated
/// crash replays it on the same input and the engine assumes identical
/// output (exactly the contract MapReduce imposes).
pub trait Mapper: Sync {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>));
}

/// User reduce function, invoked once per distinct key per round with all of
/// the key's values. `round` is 0-based. Emissions feed the next round, or
/// the job output on the final round. Must be deterministic (see [`Mapper`]).
pub trait Reducer: Sync {
    fn reduce(
        &self,
        round: usize,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    );
}

impl<F> Mapper for F
where
    F: Fn(&[u8], &mut dyn FnMut(Vec<u8>, Vec<u8>)) + Sync,
{
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        self(input, emit)
    }
}

/// A shuffle-stage combiner: partially aggregates one shuffle bucket's
/// records *before* they cross a task (or, on [`Placement::Remote`], a
/// process) boundary — the InferTurbo-style hub optimisation. It sees the
/// emissions of the map phase and of every reduce round but the last.
///
/// Contract:
///
/// * `round` is the round that will **consume** the bucket. The combiner
///   must opt in (return `true` from [`ShuffleCombiner::combines`]) only
///   for rounds whose consumer can decode its partial records.
/// * [`ShuffleCombiner::combine`] must be deterministic in the value
///   *multiset* (the engine's reorder determinism harness applies to the
///   downstream reducer, which must absorb partials order-insensitively).
/// * Combining must preserve the reducer's result exactly — for float
///   aggregation that means the reducer folds raw records through the same
///   partial representation the combiner produces (see `agl-infer`'s
///   segmented fold).
pub trait ShuffleCombiner: Sync {
    /// Whether to touch `key`'s group of `n_values` records heading into
    /// `round` — e.g. a degree threshold on the bucket-local message count.
    fn combines(&self, round: usize, key: &[u8], n_values: usize) -> bool;

    /// Replace `values` (all of `key`'s records in this bucket, producer
    /// order) with fewer partially-aggregated records.
    fn combine(&self, round: usize, key: &[u8], values: &mut Vec<Vec<u8>>);
}

/// Apply `combiner` to one shuffle bucket whose records will be consumed by
/// `round`: group by key (stable, so within-key producer order reaches the
/// combiner intact), rewrite opted-in groups, account the saving.
///
/// Only the index is sorted. Until a group opts in nothing is copied — a
/// bucket no group of which combines comes back as it went in, sorted —
/// and from then on every record is copied once into the output buffer;
/// only an opted-in group becomes the owned values the combiner rewrites.
fn combine_bucket(combiner: &dyn ShuffleCombiner, round: usize, mut bucket: Records, counters: &Counters) -> Records {
    bucket.sort_by_key();
    // `Some` from the first opted-in group on.
    let mut out: Option<Records> = None;
    let (mut records_in, mut records_out, mut bytes_saved) = (0u64, 0u64, 0u64);
    let mut values: Vec<Vec<u8>> = Vec::new();
    for group in bucket.groups() {
        let key = bucket.key(group.start);
        if combiner.combines(round, key, group.len()) {
            let out = out.get_or_insert_with(|| {
                let mut head = Records::new();
                head.reserve(bucket.len());
                head.extend_from(&bucket, 0..group.start);
                head
            });
            values.clear();
            values.extend(bucket.values(group).map(<[u8]>::to_vec));
            let bytes_in: u64 = values.iter().map(|v| (key.len() + v.len()) as u64).sum();
            records_in += values.len() as u64;
            combiner.combine(round, key, &mut values);
            let bytes_out: u64 = values.iter().map(|v| (key.len() + v.len()) as u64).sum();
            records_out += values.len() as u64;
            bytes_saved += bytes_in.saturating_sub(bytes_out);
            values.iter().for_each(|v| out.push(key, v));
        } else if let Some(out) = &mut out {
            out.extend_from(&bucket, group);
        }
    }
    match out {
        Some(out) => {
            counters.add("combine.records_in", records_in);
            counters.add("combine.records_out", records_out);
            counters.add("combine.bytes_saved", bytes_saved);
            out
        }
        None => bucket,
    }
}

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Number of map tasks the input is split across.
    pub map_tasks: usize,
    /// Number of shuffle partitions / reduce tasks per round.
    pub reduce_tasks: usize,
    /// Number of reduce rounds (K+2 for GraphFlat at K ≥ 1 and for GraphInfer).
    pub reduce_rounds: usize,
    /// Worker threads executing tasks on [`Placement::Threads`].
    pub parallelism: usize,
    /// Attempts per task before the job fails.
    pub max_attempts: usize,
    /// Injected failures of local tasks (tests/chaos runs).
    pub fault_plan: FaultPlan,
    /// Where pending shuffle partitions wait. A `Disk` directory must be
    /// non-empty and must not be an existing file; a run with one that
    /// is fails with [`JobError::Io`] before any task runs.
    pub spill: SpillMode,
    /// Double-run a sampled subset of each local reduce task's **real**
    /// groups with reordered values and require an identical emission
    /// multiset (see [`crate::plan::check_group_reorder_determinism`]).
    /// Defaults to on in debug builds — i.e. every `cargo test` job — and
    /// off in release; it is a no-op in release builds either way.
    pub verify_determinism: bool,
    /// Observability handle: when enabled, the driver emits per-phase and
    /// per-task spans and lands the job counters in the shared metrics
    /// registry. Disabled (`Obs::default()`) costs nothing on hot paths.
    pub obs: agl_obs::Obs,
    /// [`Placement::Remote`] only: every `metrics_flush_every` completed
    /// tasks a worker ships a cumulative counter snapshot to the driver, so
    /// the merged registry reflects mid-flight progress. Task-count pacing
    /// is deterministic under the logical clock; `0` disables flushing.
    pub metrics_flush_every: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            map_tasks: 4,
            reduce_tasks: 4,
            reduce_rounds: 1,
            parallelism: 4,
            max_attempts: 4,
            fault_plan: FaultPlan::none(),
            spill: SpillMode::InMemory,
            verify_determinism: cfg!(debug_assertions),
            obs: agl_obs::Obs::default(),
            metrics_flush_every: 4,
        }
    }
}

impl JobConfig {
    /// Config with `rounds` reduce rounds and everything else default.
    pub fn with_rounds(rounds: usize) -> Self {
        Self { reduce_rounds: rounds, ..Self::default() }
    }
}

/// Job failure.
#[derive(Debug)]
pub enum JobError {
    /// A task exhausted `max_attempts`.
    TaskFailed(TaskId),
    /// Shuffle spill I/O failed.
    Io(std::io::Error),
    /// Job output failed to decode — a codec bug between the last round
    /// and the driver.
    Corrupt(String),
    /// A socket-transport failure in a multi-process job (worker died,
    /// connect/read deadline exceeded, frame corruption on the wire).
    Transport(crate::transport::TransportError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskFailed(t) => write!(f, "task {t:?} exhausted retries"),
            JobError::Io(e) => write!(f, "shuffle I/O error: {e}"),
            JobError::Corrupt(what) => write!(f, "corrupt job output: {what}"),
            JobError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<crate::transport::TransportError> for JobError {
    fn from(e: crate::transport::TransportError) -> Self {
        JobError::Transport(e)
    }
}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io(e)
    }
}

/// Successful job outcome.
#[derive(Debug)]
pub struct JobResult {
    /// Final-round emissions, in partition order then emit order.
    pub output: Vec<KeyValue>,
    /// Job counters (records per phase, shuffle bytes, retries).
    pub counters: Counters,
}

impl JobResult {
    /// Operational summary (retries, spill, shuffle bytes, record flow per
    /// round) derived from the job counters.
    pub fn report(&self) -> crate::report::JobReport {
        crate::report::JobReport::from_counters(&self.counters)
    }
}

/// Where a job's tasks run and where its pending partitions wait. The job
/// shape, the record order and therefore the output bytes are the same on
/// every placement.
#[derive(Clone, Copy)]
pub enum Placement<'a> {
    /// Tasks on a pool of [`JobConfig::parallelism`] threads, every
    /// partition of the running round resident. Spans: `mapreduce.*` on the
    /// driver track plus one track per task.
    Threads,
    /// Tasks one after another: one map task's buckets, then one reduce
    /// partition and its emissions, are resident; everything pending waits
    /// in the [`SpillMode`], so under [`SpillMode::Disk`] peak memory is
    /// `O(largest partition + its output)`, not `O(input)`, gauged on the
    /// `stream.peak_resident_bytes` counter. Spans: `stream.*`.
    ResidentOne,
    /// Map tasks run here; each reduce task is an RPC to one of the
    /// [`crate::dist::serve_shuffle`] workers, which rebuild the reducer
    /// (and combiner) from the job's worker spec; a partition lost with its
    /// worker re-queues on a survivor. Spans: `dist.*`, `dist.w{i}`, and
    /// the workers' own under `w{i}/`.
    Remote(RemoteWorkers<'a>),
}

/// The shuffle workers of a [`Placement::Remote`] job.
#[derive(Clone, Copy)]
pub struct RemoteWorkers<'a> {
    /// One listening worker per endpoint; partition `p` is homed on worker
    /// `p % endpoints.len()`.
    pub endpoints: &'a [Endpoint],
    /// Connect and per-RPC deadlines.
    pub opts: &'a DistOptions,
    /// Fault-injection seam: `on_dispatch(n)` fires after the n-th reduce
    /// task (1-based, cumulative across rounds) has been written to a
    /// worker — where the kill-a-process suite SIGKILLs one mid-job.
    pub on_dispatch: Option<&'a (dyn Fn(usize) + Sync)>,
}

/// The placement as the driver holds it while a job runs.
enum Site<'a> {
    Threads,
    ResidentOne,
    Remote(RemoteSite<'a>),
}

/// Output of reducing one shuffle partition.
pub(crate) struct ReducedPartition {
    /// Emissions re-partitioned for the next round (or job output).
    pub out_buckets: Vec<Records>,
    /// Total records emitted.
    pub emitted: u64,
    /// Groups double-run by the debug determinism check.
    pub verified_groups: u64,
    /// First determinism violation observed, if any.
    pub violation: Option<String>,
}

/// What one reduce task runs. Every placement and the shuffle worker (see
/// [`crate::dist`]) go through [`ReduceStage::run`], so all of them execute
/// byte-identical reduce-then-combine logic.
pub(crate) struct ReduceStage<'a> {
    pub reducer: &'a dyn Reducer,
    pub combiner: Option<&'a dyn ShuffleCombiner>,
    /// Total reduce rounds of the job (only read when combining).
    pub rounds: usize,
    pub r_parts: usize,
    /// Sample multi-value groups for the reorder double-run; it never
    /// changes the output (pinned by an engine test).
    pub verify_determinism: bool,
    pub counters: &'a Counters,
}

impl ReduceStage<'_> {
    /// Reduce one partition for `round`, then pre-fold the buckets it
    /// emitted for round `round + 1`. The last round is exempt: its buckets
    /// are the job output, whose record order must not depend on whether a
    /// combiner is installed (and whose consumer decodes no partials).
    ///
    /// `release` frees the partition as soon as it is reduced — before the
    /// combiner builds its buckets — for callers that will not reduce it
    /// again and whose thread is the right one to free it.
    pub(crate) fn run(&self, round: usize, records: &mut Records, release: bool) -> ReducedPartition {
        let mut reduced = self.reduce_partition(round, records);
        if release {
            *records = Records::new();
        }
        self.counters.add(&format!("reduce.r{round}.output_records"), reduced.emitted);
        if let (Some(c), true) = (self.combiner, round + 1 < self.rounds) {
            reduced.out_buckets = std::mem::take(&mut reduced.out_buckets)
                .into_iter()
                .map(|b| combine_bucket(c, round + 1, b, self.counters))
                .collect();
        }
        reduced
    }

    /// Group `records` by key (stable index sort, so within a key the
    /// producer-order value sequence is deterministic — and sorting in
    /// place lets a retried attempt borrow the same partition again),
    /// invoke the reducer per group with its values lent as slices,
    /// re-partition emissions into `r_parts` buckets.
    fn reduce_partition(&self, round: usize, records: &mut Records) -> ReducedPartition {
        let (reducer, r_parts) = (self.reducer, self.r_parts);
        records.sort_by_key();
        let records = &*records;
        let mut out_buckets: Vec<Records> = (0..r_parts).map(|_| Records::new()).collect();
        let mut emitted = 0u64;
        let mut verified_groups = 0usize;
        let mut violation = None;
        for group in records.groups() {
            let key = records.key(group.start);
            // Sample multi-value groups for the reorder determinism check:
            // deterministic by key hash, capped per task to bound the
            // double-run cost.
            let sampled = self.verify_determinism
                && group.len() > 1
                && verified_groups < MAX_VERIFIED_GROUPS_PER_TASK
                && partition(key, DETERMINISM_SAMPLE_MOD) == 0;
            let mut emit = |k: Vec<u8>, v: Vec<u8>| {
                emitted += 1;
                out_buckets[partition(&k, r_parts)].push(&k, &v);
            };
            if sampled {
                verified_groups += 1;
                let values: Vec<Vec<u8>> = records.values(group).map(<[u8]>::to_vec).collect();
                let mut baseline: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                {
                    let mut iter = values.iter().map(Vec::as_slice);
                    reducer.reduce(round, key, &mut iter, &mut |k, v| baseline.push((k, v)));
                }
                if let Err(e) = crate::plan::check_group_reorder_determinism(reducer, round, key, &values, &baseline) {
                    violation.get_or_insert_with(|| e.to_string());
                }
                baseline.into_iter().for_each(|(k, v)| emit(k, v));
            } else {
                reducer.reduce(round, key, &mut records.values(group), &mut emit);
            }
        }
        ReducedPartition { out_buckets, emitted, verified_groups: verified_groups as u64, violation }
    }
}

/// A job's records between tasks: the partitions waiting for the running
/// round, those collecting for the next one, and the job output.
struct Shuffle<'a> {
    cfg: &'a JobConfig,
    counters: &'a Counters,
    /// Feeds round `feeds - 1`, the running one.
    pending: PartitionStore,
    /// Collects for round `feeds`; past the last round, `output` does.
    next: PartitionStore,
    feeds: usize,
    output: Vec<KeyValue>,
    /// Records and payload bytes gathered for the running round so far.
    round_records: u64,
    round_bytes: u64,
    /// [`Placement::ResidentOne`]: gauge what is resident at every commit.
    gauge: bool,
    /// Payload bytes of the job output and of the partition last gathered —
    /// what the gauge counts beside the stores and the committed buckets.
    output_bytes: u64,
    part_bytes: u64,
}

impl<'a> Shuffle<'a> {
    /// Before the map phase: nothing pending, round 0's store collecting.
    fn new(cfg: &'a JobConfig, counters: &'a Counters, gauge: bool) -> Self {
        Self {
            cfg,
            counters,
            pending: PartitionStore::new(&SpillMode::InMemory, 0, 0),
            next: PartitionStore::new(&cfg.spill, 0, cfg.reduce_tasks),
            feeds: 0,
            output: Vec::new(),
            round_records: 0,
            round_bytes: 0,
            gauge,
            output_bytes: 0,
            part_bytes: 0,
        }
    }

    /// What was collecting now feeds the next round to run; a fresh store
    /// collects for the round after it.
    fn begin_round(&mut self) {
        self.feeds += 1;
        let fresh = PartitionStore::new(&self.cfg.spill, self.feeds, self.cfg.reduce_tasks);
        self.pending = std::mem::replace(&mut self.next, fresh);
        (self.round_records, self.round_bytes) = (0, 0);
    }

    /// Take partition `p` of the running round — every producer's bucket
    /// in producer order — and account it as shuffled.
    fn gather(&mut self, p: usize) -> Result<Records, JobError> {
        let records = self.pending.take(p, self.counters)?;
        let bytes = records.payload_bytes();
        self.round_records += records.len() as u64;
        self.round_bytes += bytes;
        self.part_bytes = bytes;
        self.counters.add("shuffle.bytes", bytes);
        self.counters.add(&format!("reduce.r{}.input_records", self.feeds - 1), records.len() as u64);
        Ok(records)
    }

    /// Gather every partition of the running round.
    fn gather_all(&mut self) -> Result<Vec<Records>, JobError> {
        (0..self.cfg.reduce_tasks).map(|p| self.gather(p)).collect()
    }

    /// Accept one committed task's buckets: parked for the next round, or —
    /// past the last round — flattened onto the job output. Tasks commit in
    /// task order, which fixes the record order.
    fn commit(&mut self, buckets: Vec<Records>) -> Result<(), JobError> {
        let to_output = self.feeds == self.cfg.reduce_rounds;
        if self.gauge {
            let out_bytes: u64 = buckets.iter().map(Records::payload_bytes).sum();
            let mut resident = self.pending.mem_bytes() + self.next.mem_bytes() + self.part_bytes + out_bytes;
            if to_output {
                resident += self.output_bytes;
                self.output_bytes += out_bytes;
            }
            self.counters.record_max("stream.peak_resident_bytes", resident);
        }
        for (p, bucket) in buckets.into_iter().enumerate() {
            if to_output {
                self.output.extend(bucket.key_values());
            } else {
                self.next.append(p, bucket, self.counters)?;
            }
        }
        Ok(())
    }
}

/// The driver. See module docs for the execution model.
pub struct MapReduceJob {
    cfg: JobConfig,
    /// `Some`: every run reports into this handle instead of a fresh set.
    counters: Option<Counters>,
}

impl MapReduceJob {
    pub fn new(cfg: JobConfig) -> Self {
        assert!(cfg.map_tasks > 0 && cfg.reduce_tasks > 0 && cfg.parallelism > 0 && cfg.max_attempts > 0);
        Self { cfg, counters: None }
    }

    /// [`MapReduceJob::new`], with the job counters landing in `counters` —
    /// the handle a pipeline's own mapper and reducer already report into —
    /// rather than in a set of the job's own ([`Counters::for_obs`]).
    pub fn reporting_into(cfg: JobConfig, counters: Counters) -> Self {
        Self { counters: Some(counters), ..Self::new(cfg) }
    }

    /// Run the job over `inputs` (each element is one opaque input record)
    /// on [`Placement::Threads`], without a combiner.
    pub fn run<M: Mapper, R: Reducer>(
        &self,
        inputs: &[Vec<u8>],
        mapper: &M,
        reducer: &R,
    ) -> Result<JobResult, JobError> {
        self.run_on(Placement::Threads, inputs, mapper, reducer, None, &Vec::new)
    }

    /// Run the job on `placement`. `reducer` executes the reduce tasks of
    /// the local placements; on [`Placement::Remote`] the workers rebuild
    /// it — and `combiner`, when one is given — from the bytes
    /// `worker_spec()` returns, which no other placement asks for.
    ///
    /// A `combiner` is offered every shuffle bucket but the job output's
    /// before the bucket crosses the task boundary (see
    /// [`ShuffleCombiner`]); savings land on the `combine.*` counters.
    pub fn run_on<M: Mapper>(
        &self,
        placement: Placement<'_>,
        inputs: &[Vec<u8>],
        mapper: &M,
        reducer: &dyn Reducer,
        combiner: Option<&dyn ShuffleCombiner>,
        worker_spec: &dyn Fn() -> Vec<u8>,
    ) -> Result<JobResult, JobError> {
        let cfg = &self.cfg;
        cfg.spill.check().map_err(JobError::Io)?;
        let obs = &cfg.obs;
        let counters = self.counters.clone().unwrap_or_else(|| Counters::for_obs(obs));
        let (r_parts, rounds) = (cfg.reduce_tasks, cfg.reduce_rounds);
        let prefix = match placement {
            Placement::Threads => "mapreduce",
            Placement::ResidentOne => "stream",
            Placement::Remote(_) => "dist",
        };
        let mut job_span = obs.span("driver", &format!("{prefix}.job"));
        counters.add("map.input_records", inputs.len() as u64);
        counters.record_max("reduce.rounds", rounds as u64);
        let mut site = match placement {
            Placement::Threads => Site::Threads,
            Placement::ResidentOne => Site::ResidentOne,
            Placement::Remote(workers) => {
                Site::Remote(RemoteSite::connect(workers, cfg, &counters, &worker_spec(), combiner.is_some())?)
            }
        };
        let stage = ReduceStage {
            reducer,
            combiner,
            rounds,
            r_parts,
            // The sampled double-run only ever fires in debug builds; `cfg!`
            // keeps release binaries free of the clone-the-group cost even
            // with the flag left on.
            verify_determinism: cfg!(debug_assertions) && cfg.verify_determinism,
            counters: &counters,
        };
        // First violation seen by any reduce task; re-raised from the driver
        // thread so the report survives `thread::scope`'s generic re-panic.
        let determinism_violation: Mutex<Option<String>> = Mutex::new(None);
        let mut shuffle = Shuffle::new(cfg, &counters, matches!(site, Site::ResidentOne));
        // Only the thread pool gives each task a span (and a track) of its own.
        let mut untraced = agl_obs::Span::disabled();

        // ---- Map phase ----
        // Inputs are striped across map tasks; each task emits into
        // `reduce_tasks` buckets, consumed by round 0.
        let map_task = |task: usize| {
            let mut buckets: Vec<Records> = (0..r_parts).map(|_| Records::new()).collect();
            let mut emitted = 0u64;
            for input in inputs.iter().skip(task).step_by(cfg.map_tasks) {
                mapper.map(input, &mut |k, v| {
                    emitted += 1;
                    buckets[partition(&k, r_parts)].push(&k, &v);
                });
            }
            counters.add("map.output_records", emitted);
            match combiner {
                Some(c) => buckets.into_iter().map(|b| combine_bucket(c, 0, b, &counters)).collect(),
                None => buckets,
            }
        };
        let map_span = obs.span("driver", &format!("{prefix}.map"));
        if let Site::Threads = site {
            let idle = vec![(); cfg.map_tasks];
            for buckets in self.run_pooled("map", TaskId::map, &counters, idle, |task, _| map_task(task))? {
                shuffle.commit(buckets)?;
            }
        } else {
            for task in 0..cfg.map_tasks {
                let buckets = self.run_task(TaskId::map(task), &mut untraced, &counters, |_| map_task(task))?;
                shuffle.commit(buckets)?;
            }
        }
        drop(map_span);

        // ---- Reduce rounds ----
        let reduce_task = |round: usize, records: &mut Records, release: bool| {
            let reduced = stage.run(round, records, release);
            if let Some(v) = reduced.violation {
                lock_ignoring_poison(&determinism_violation).get_or_insert(v);
            }
            counters.add(&format!("reduce.r{round}.verified_groups"), reduced.verified_groups);
            reduced.out_buckets
        };
        for round in 0..rounds {
            let mut round_span = obs.span("driver", &format!("{prefix}.round{round}"));
            shuffle.begin_round();
            match &mut site {
                Site::Threads => {
                    let mut shuffle_span = obs.span("driver", &format!("mapreduce.shuffle.r{round}"));
                    let partitions = shuffle.gather_all()?;
                    shuffle_span.counter("bytes", shuffle.round_bytes);
                    shuffle_span.counter("records", shuffle.round_records);
                    drop(shuffle_span);
                    let id_of = |p| TaskId::reduce(round, p);
                    // The pool's caller frees the partitions (see `run_pooled`).
                    let run = |_, records: &mut Records| reduce_task(round, records, false);
                    for buckets in self.run_pooled(&format!("reduce.r{round}"), id_of, &counters, partitions, run)? {
                        shuffle.commit(buckets)?;
                    }
                }
                Site::ResidentOne => {
                    for p in 0..r_parts {
                        let mut records = shuffle.gather(p)?;
                        // Sorted once, borrowed by every attempt, freed by
                        // the one whose output is kept: no copy for a retry.
                        let run = |kept| reduce_task(round, &mut records, kept);
                        let buckets = self.run_task(TaskId::reduce(round, p), &mut untraced, &counters, run)?;
                        shuffle.commit(buckets)?;
                    }
                }
                Site::Remote(remote) => {
                    let partitions = shuffle.gather_all()?;
                    for buckets in remote.run_round(round, &partitions)? {
                        shuffle.commit(buckets)?;
                    }
                }
            }
            round_span.counter("input_records", shuffle.round_records);
            if let Some(report) = lock_ignoring_poison(&determinism_violation).take() {
                // Debug-only determinism gate: an order-sensitive reducer
                // invalidates the engine's retry story, so fail the test
                // run loudly, from the driver thread.
                #[expect(clippy::panic, reason = "debug-only determinism gate; see above")]
                {
                    panic!("{report}");
                }
            }
        }
        if let Site::Remote(remote) = site {
            remote.shutdown();
        }
        let output = shuffle.output;
        counters.add("output_records", output.len() as u64);
        job_span.counter("output_records", output.len() as u64);
        match placement {
            Placement::ResidentOne => {
                job_span.counter("peak_resident_bytes", counters.get("stream.peak_resident_bytes"));
            }
            _ => job_span.counter("retries", counters.get("task_retries")),
        }
        Ok(JobResult { output, counters })
    }

    /// Run one local task to a committed output. An attempt the fault plan
    /// names has its output discarded — the effect a mid-task machine crash
    /// has on a real cluster — and the task is re-executed; retries are
    /// reported on the job's `task_retries` counter (and on `span`).
    /// `attempt` is told whether its output is the one that will be kept.
    fn run_task<T>(
        &self,
        id: TaskId,
        span: &mut agl_obs::Span,
        counters: &Counters,
        mut attempt: impl FnMut(bool) -> T,
    ) -> Result<T, JobError> {
        for n in 0..self.cfg.max_attempts {
            let kept = !self.cfg.fault_plan.should_fail(id, n);
            let out = attempt(kept);
            if kept {
                return Ok(out);
            }
            counters.inc("task_retries");
            span.counter("retries", 1);
        }
        Err(JobError::TaskFailed(id))
    }

    /// [`MapReduceJob::run_task`] for every task of a phase, on a pool of
    /// `parallelism` threads; task `i` works on `inputs[i]`. Returns the
    /// committed outputs in task order.
    ///
    /// The inputs are freed here, by the calling thread, once the pool is
    /// done: a worker freeing them would hand records back to the allocator
    /// arena of the worker that produced them, contending with its
    /// allocations (measured: +20 % wall time on `flat.uug-2hop`).
    fn run_pooled<I: Send, T: Send>(
        &self,
        phase: &str,
        id_of: impl Fn(usize) -> TaskId + Sync,
        counters: &Counters,
        inputs: Vec<I>,
        attempt: impl Fn(usize, &mut I) -> T + Sync,
    ) -> Result<Vec<T>, JobError> {
        let n = inputs.len();
        let next = AtomicUsize::new(0);
        let inputs: Vec<Mutex<I>> = inputs.into_iter().map(Mutex::new).collect();
        let results: Vec<Mutex<Option<Result<T, JobError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.parallelism.min(n) {
                scope.spawn(|| loop {
                    // Work-stealing ticket: fetch_add hands each worker a unique task index;
                    // task *data* is published by the scope join, not by this counter.
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= n {
                        break;
                    }
                    let mut input = lock_ignoring_poison(&inputs[task]);
                    // Track names key on the task index (never the OS
                    // thread), so per-track span order — and therefore a
                    // logical-clock trace — is deterministic under any
                    // worker scheduling.
                    let mut span = if self.cfg.obs.is_enabled() {
                        self.cfg.obs.span(&format!("{phase}.t{task}"), phase)
                    } else {
                        agl_obs::Span::disabled()
                    };
                    let outcome = self.run_task(id_of(task), &mut span, counters, |_| attempt(task, &mut input));
                    *lock_ignoring_poison(&results[task]) = Some(outcome);
                });
            }
        });
        results
            .into_iter()
            .enumerate()
            .map(|(task, cell)| {
                cell.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or(Err(JobError::TaskFailed(id_of(task))))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;

    /// Word-count style mapper: input is a space-separated string; emit
    /// (word, 1u64).
    struct WordMap;
    impl Mapper for WordMap {
        fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
            for w in input.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                emit(w.to_vec(), 1u64.to_bytes());
            }
        }
    }

    /// Sums counts; emits on every round (pass-through totals).
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
        vec![b"the quick brown fox".to_vec(), b"the lazy dog".to_vec(), b"the fox".to_vec()]
    }

    fn sorted_counts(result: &JobResult) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = result
            .output
            .iter()
            .map(|kv| (String::from_utf8(kv.key.clone()).unwrap(), u64::from_bytes(&kv.value).unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn word_count_single_round() {
        let job = MapReduceJob::new(JobConfig::default());
        let res = job.run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        let counts = sorted_counts(&res);
        assert_eq!(
            counts,
            vec![
                ("brown".into(), 1),
                ("dog".into(), 1),
                ("fox".into(), 2),
                ("lazy".into(), 1),
                ("quick".into(), 1),
                ("the".into(), 3),
            ]
        );
        assert_eq!(res.counters.get("map.input_records"), 3);
        assert_eq!(res.counters.get("map.output_records"), 9);
    }

    #[test]
    fn multi_round_is_idempotent_for_sum() {
        // Summing sums across three rounds gives the same totals.
        let job = MapReduceJob::new(JobConfig::with_rounds(3));
        let res = job.run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(sorted_counts(&res)[2], ("fox".into(), 2));
        assert_eq!(res.counters.get("reduce.r2.input_records"), 6);
    }

    #[test]
    fn injected_faults_do_not_change_output() {
        let clean = MapReduceJob::new(JobConfig::default()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        let plan = FaultPlan::none()
            .fail_first(TaskId::map(1), 2)
            .fail_first(TaskId::reduce(0, 0), 1)
            .fail_first(TaskId::reduce(0, 3), 3);
        let faulty_cfg = JobConfig { fault_plan: plan, ..JobConfig::default() };
        let faulty = MapReduceJob::new(faulty_cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(sorted_counts(&clean), sorted_counts(&faulty));
        assert_eq!(faulty.counters.get("output_records"), clean.counters.get("output_records"));
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let plan = FaultPlan::none().fail_first(TaskId::map(0), 99);
        let cfg = JobConfig { fault_plan: plan, max_attempts: 3, ..JobConfig::default() };
        let err = MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap_err();
        assert!(matches!(err, JobError::TaskFailed(t) if t == TaskId::map(0)));
    }

    #[test]
    fn spill_to_disk_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("agl-mr-test-{}", std::process::id()));
        let mem = MapReduceJob::new(JobConfig::default()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        let cfg = JobConfig { spill: SpillMode::Disk(dir.clone()), ..JobConfig::default() };
        let disk = MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(sorted_counts(&mem), sorted_counts(&disk));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_rounds_passes_map_output_through() {
        let cfg = JobConfig { reduce_rounds: 0, ..JobConfig::default() };
        let res = MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(res.output.len(), 9, "all map emissions");
    }

    #[test]
    fn deterministic_across_runs_and_parallelism() {
        let run = |par: usize| {
            let cfg = JobConfig { parallelism: par, map_tasks: 3, reduce_tasks: 5, ..JobConfig::default() };
            sorted_counts(&MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap())
        };
        assert_eq!(run(1), run(8));
        assert_eq!(run(2), run(2));
    }

    /// Emits the first value seen per group — order-sensitive on purpose.
    struct FirstReduce;
    impl Reducer for FirstReduce {
        fn reduce(
            &self,
            _round: usize,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) {
            if let Some(v) = values.next() {
                emit(key.to_vec(), v.to_vec());
            }
        }
    }

    /// Maps each u64 input record `v` to `(v % 32, v)` — every key gets a
    /// group of *distinct* values, so an order-sensitive reducer's output
    /// genuinely depends on shuffle arrival order.
    struct PairMap;
    impl Mapper for PairMap {
        fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
            let v = u64::from_bytes(input).unwrap();
            emit((v % 32).to_bytes(), v.to_bytes());
        }
    }

    fn pair_inputs() -> Vec<Vec<u8>> {
        // 32 distinct keys with two distinct values each; the deterministic
        // 1-in-4 key sample is certain to catch several of them.
        (0..64u64).map(|v| v.to_bytes()).collect()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn sampled_groups_are_verified_in_debug_test_jobs() {
        let res = MapReduceJob::new(JobConfig::default()).run(&pair_inputs(), &PairMap, &SumReduce).unwrap();
        assert!(res.counters.get("reduce.r0.verified_groups") > 0, "{:?}", res.counters.snapshot());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "order-sensitive in round 0")]
    fn order_sensitive_reducer_caught_on_real_groups() {
        // FirstReduce emits whichever value arrives first; the reversed
        // replay of a sampled real group emits a different multiset, and
        // the engine's debug gate must fail the job loudly.
        let cfg = JobConfig { parallelism: 1, ..JobConfig::default() };
        let _ = MapReduceJob::new(cfg).run(&pair_inputs(), &PairMap, &FirstReduce);
    }

    #[test]
    fn verification_flag_off_skips_the_check() {
        let cfg = JobConfig { verify_determinism: false, ..JobConfig::default() };
        let res = MapReduceJob::new(cfg).run(&pair_inputs(), &PairMap, &FirstReduce).unwrap();
        assert_eq!(res.counters.get("reduce.r0.verified_groups"), 0);
        assert_eq!(res.output.len(), 32, "one record per key");
    }

    #[test]
    fn verification_does_not_change_output_or_record_counters() {
        let on = MapReduceJob::new(JobConfig::default()).run(&pair_inputs(), &PairMap, &SumReduce).unwrap();
        let off = MapReduceJob::new(JobConfig { verify_determinism: false, ..JobConfig::default() })
            .run(&pair_inputs(), &PairMap, &SumReduce)
            .unwrap();
        assert_eq!(on.output, off.output, "emission order is preserved, not just the multiset");
        for name in ["map.output_records", "reduce.r0.input_records", "reduce.r0.output_records", "output_records"] {
            assert_eq!(on.counters.get(name), off.counters.get(name), "{name}");
        }
    }

    #[test]
    fn retries_reach_the_job_counters() {
        let plan = FaultPlan::none().fail_first(TaskId::map(1), 2).fail_first(TaskId::reduce(0, 0), 1);
        let cfg = JobConfig { fault_plan: plan, ..JobConfig::default() };
        let res = MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(res.counters.get("task_retries"), 3);
        let clean = MapReduceJob::new(JobConfig::default()).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
        assert_eq!(clean.counters.get("task_retries"), 0);
    }

    #[test]
    fn instrumented_job_emits_spans_and_report() {
        let obs = agl_obs::Obs::enabled_logical();
        let plan = FaultPlan::none().fail_first(TaskId::map(1), 1);
        let cfg = JobConfig { fault_plan: plan, reduce_rounds: 2, obs: obs.clone(), ..JobConfig::default() };
        let res = MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();

        let names: Vec<String> =
            obs.trace().map(|t| t.events().into_iter().map(|e| e.name).collect()).unwrap_or_default();
        for expected in
            ["mapreduce.job", "mapreduce.map", "mapreduce.round0", "mapreduce.shuffle.r1", "map", "reduce.r1"]
        {
            assert!(names.iter().any(|n| n == expected), "missing span {expected}: {names:?}");
        }
        // Job counters landed in the shared metrics registry.
        let m = obs.metrics().unwrap();
        assert_eq!(m.get("map.input_records"), 3);
        assert!(m.get("shuffle.bytes") > 0);

        let report = res.report();
        assert_eq!(report.task_retries, 1, "the injected retry is visible without grepping counters");
        assert_eq!(report.rounds.len(), 2);
        assert!(report.render().contains("retries   1"));
    }

    #[test]
    fn logical_traces_are_byte_identical_across_runs() {
        let run = || {
            let obs = agl_obs::Obs::enabled_logical();
            let cfg = JobConfig { reduce_rounds: 2, parallelism: 4, obs: obs.clone(), ..JobConfig::default() };
            MapReduceJob::new(cfg).run(&word_inputs(), &WordMap, &SumReduce).unwrap();
            obs.trace().map(|t| t.to_chrome_json()).unwrap_or_default()
        };
        assert_eq!(run(), run(), "same job, logical clock: byte-identical trace");
    }

    #[test]
    fn values_arrive_grouped_per_key() {
        // A reducer that records how many times it is invoked per key: each
        // key must be seen exactly once per round.
        struct CountInvocations;
        impl Reducer for CountInvocations {
            fn reduce(
                &self,
                _r: usize,
                key: &[u8],
                values: &mut dyn Iterator<Item = &[u8]>,
                emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
            ) {
                let n = values.count() as u64;
                emit(key.to_vec(), n.to_bytes());
            }
        }
        let res = MapReduceJob::new(JobConfig::default()).run(&word_inputs(), &WordMap, &CountInvocations).unwrap();
        let the = res.output.iter().find(|kv| kv.key == b"the").map(|kv| u64::from_bytes(&kv.value).unwrap());
        assert_eq!(the, Some(3));
    }

    /// The same job on every placement: what was three executors' worth of
    /// equivalence tests, now guarding one driver.
    mod placements {
        use super::*;
        use crate::dist::serve_shuffle_combining;
        use crate::transport::Listener;

        fn word_inputs() -> Vec<Vec<u8>> {
            vec![
                b"the quick brown fox jumps over".to_vec(),
                b"the lazy dog naps".to_vec(),
                b"the fox naps too".to_vec(),
                b"quick quick fox".to_vec(),
            ]
        }

        /// A u64-sum shuffle combiner: collapses every group of counts into one
        /// partial sum whenever the group has at least `threshold` records.
        struct SumCombiner {
            threshold: usize,
        }
        impl ShuffleCombiner for SumCombiner {
            fn combines(&self, _round: usize, _key: &[u8], n_values: usize) -> bool {
                n_values >= self.threshold
            }
            fn combine(&self, _round: usize, _key: &[u8], values: &mut Vec<Vec<u8>>) {
                let total: u64 = values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
                values.clear();
                values.push(total.to_bytes());
            }
        }

        fn run_on(cfg: JobConfig, placement: Placement<'_>, combiner: Option<&SumCombiner>) -> JobResult {
            let combiner = combiner.map(|c| c as &dyn ShuffleCombiner);
            MapReduceJob::new(cfg).run_on(placement, &word_inputs(), &WordMap, &SumReduce, combiner, &Vec::new).unwrap()
        }

        /// `run_on` [`Placement::Remote`] against two in-thread shuffle
        /// workers (which rebuild `SumReduce` and a threshold-2 combiner).
        fn run_remote(cfg: JobConfig, combiner: Option<&SumCombiner>) -> JobResult {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "agl-placement-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
            let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
            let opts = DistOptions { connect_timeout_ns: 5_000_000_000, io_timeout_ns: 10_000_000_000 };
            let result = std::thread::scope(|s| {
                for l in &listeners {
                    s.spawn(move || {
                        serve_shuffle_combining(
                            l,
                            5_000_000_000,
                            &|_, _| Ok(Box::new(SumReduce) as Box<dyn Reducer>),
                            &|_, _| Ok(Box::new(SumCombiner { threshold: 2 }) as Box<dyn ShuffleCombiner>),
                        )
                        .unwrap()
                    });
                }
                let workers = RemoteWorkers { endpoints: &eps, opts: &opts, on_dispatch: None };
                run_on(cfg, Placement::Remote(workers), combiner)
            });
            drop(listeners);
            std::fs::remove_dir_all(&dir).ok();
            result
        }

        #[test]
        fn every_placement_is_byte_identical() {
            let dir = std::env::temp_dir().join(format!("agl-placement-spill-{}", std::process::id()));
            let combiner = SumCombiner { threshold: 2 };
            for rounds in [0usize, 1, 3] {
                for combiner in [None, Some(&combiner)] {
                    let cfg =
                        JobConfig { reduce_rounds: rounds, map_tasks: 3, reduce_tasks: 5, ..JobConfig::default() };
                    let reference = run_on(cfg.clone(), Placement::Threads, combiner);
                    for spill in [SpillMode::InMemory, SpillMode::Disk(dir.clone())] {
                        let cfg = JobConfig { spill: spill.clone(), ..cfg.clone() };
                        let placed = [
                            ("threads", run_on(cfg.clone(), Placement::Threads, combiner)),
                            ("resident-one", run_on(cfg.clone(), Placement::ResidentOne, combiner)),
                            ("remote", run_remote(cfg, combiner)),
                        ];
                        for (name, result) in &placed {
                            let cell = format!("{name} rounds={rounds} {spill:?} combiner={}", combiner.is_some());
                            assert_eq!(result.output, reference.output, "{cell}: emission order, not just multiset");
                            let mut names = vec!["map.input_records".to_string(), "map.output_records".to_string()];
                            names.extend(["shuffle.bytes".to_string(), "output_records".to_string()]);
                            for r in 0..rounds {
                                names.push(format!("reduce.r{r}.input_records"));
                                names.push(format!("reduce.r{r}.output_records"));
                            }
                            for n in names {
                                assert_eq!(result.counters.get(&n), reference.counters.get(&n), "{cell}: {n}");
                            }
                            let spilled = rounds > 0 && matches!(spill, SpillMode::Disk(_));
                            assert_eq!(result.counters.get("spill.records") > 0, spilled, "{cell}: spill.records");
                            // Combining runs where the reduce task runs: a
                            // remote worker reports it under its `w{i}.` prefix.
                            let combined = |r: &JobResult, n: &str| {
                                r.counters.get(n) + (0..2).map(|w| r.counters.get(&format!("w{w}.{n}"))).sum::<u64>()
                            };
                            for n in ["combine.records_in", "combine.records_out", "combine.bytes_saved"] {
                                assert_eq!(combined(result, n), combined(&reference, n), "{cell}: {n}");
                            }
                            // Spill counters depend on the spill mode: this
                            // cell's threads run is their reference.
                            for n in ["spill.bytes", "spill.records"] {
                                assert_eq!(result.counters.get(n), placed[0].1.counters.get(n), "{cell}: {n}");
                            }
                        }
                        assert!(std::fs::read_dir(&dir).map(|d| d.count() == 0).unwrap_or(true), "leaked spill files");
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn disk_spill_matches_in_memory_and_bounds_memory() {
            let dir = std::env::temp_dir().join(format!("agl-stream-test-{}", std::process::id()));
            let mem_cfg = JobConfig { reduce_rounds: 2, ..JobConfig::default() };
            let disk_cfg = JobConfig { spill: SpillMode::Disk(dir.clone()), ..mem_cfg.clone() };
            let mem = run_on(mem_cfg, Placement::ResidentOne, None);
            let disk = run_on(disk_cfg, Placement::ResidentOne, None);
            assert_eq!(mem.output, disk.output);
            assert!(disk.counters.get("spill.bytes") > 0, "pending partitions went through disk");
            assert!(
                disk.counters.get("stream.peak_resident_bytes") <= mem.counters.get("stream.peak_resident_bytes"),
                "disk-parked pending never exceeds the in-memory high-water mark"
            );
            assert!(mem.counters.get("stream.peak_resident_bytes") > 0);
            // All pending files consumed and removed.
            assert!(std::fs::read_dir(&dir).map(|d| d.count() == 0).unwrap_or(true), "no leaked pending files");
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn zero_rounds_passes_map_output_through_in_engine_order() {
            let cfg = JobConfig { reduce_rounds: 0, ..JobConfig::default() };
            let engine = run_on(cfg.clone(), Placement::Threads, None);
            let stream = run_on(cfg, Placement::ResidentOne, None);
            assert_eq!(stream.output, engine.output);
        }

        #[test]
        fn shuffle_combiner_cuts_records_without_changing_u64_sums() {
            let cfg = JobConfig { reduce_rounds: 2, ..JobConfig::default() };
            let plain = run_on(cfg.clone(), Placement::ResidentOne, None);
            let combined = run_on(cfg.clone(), Placement::ResidentOne, Some(&SumCombiner { threshold: 2 }));
            // Integer sums are exactly associative, so the output matches even
            // without a partial-aware reducer.
            assert_eq!(plain.output, combined.output);
            assert!(combined.counters.get("combine.records_in") > combined.counters.get("combine.records_out"));
            assert!(combined.counters.get("combine.bytes_saved") > 0);
            // Engine path agrees with the streaming path under the combiner too.
            let engine = run_on(cfg, Placement::Threads, Some(&SumCombiner { threshold: 2 }));
            assert_eq!(engine.output, combined.output);
        }

        #[test]
        fn threshold_gates_combining() {
            let cfg = JobConfig::default();
            let never = run_on(cfg.clone(), Placement::ResidentOne, Some(&SumCombiner { threshold: usize::MAX }));
            assert_eq!(never.counters.get("combine.records_in"), 0, "threshold too high: combiner never fires");
            let plain = run_on(cfg, Placement::ResidentOne, None);
            assert_eq!(never.output, plain.output);
        }
    }
}
