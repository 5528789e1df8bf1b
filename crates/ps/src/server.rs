//! The sharded parameter server.
//!
//! **One lock.** All server state — the sync barrier, the version table
//! and the parameter shards — sits behind one mutex (`PsState`). Every
//! versioned pull and every apply sweeps all shards with the version table
//! held, so separate shard locks could never admit two threads at once;
//! with one lock there is no acquisition order to keep. The two condvars
//! (`sync_cv` for the barrier, `ssp_cv` for the SSP gate) both wait on it.
//!
//! **Consistency spectrum.** Mode selection is one enum, [`Consistency`]:
//!
//! * `Sync` — barrier per step, gradients averaged **in worker-id order**
//!   (bit-deterministic regardless of arrival order), one optimizer step
//!   per round.
//! * `Async` — Hogwild: every push applies immediately; staleness is
//!   measured exactly (under the server lock at apply time) but unbounded.
//! * `Ssp { slack }` — stale-synchronous parallel: at most `slack + 1`
//!   workers may be in flight (pulled, not yet applied) at once, and an
//!   apply is admitted only while every other in-flight worker can still
//!   land within `slack` staleness afterwards; workers outside those
//!   windows block on pull/push until stragglers apply or retire. Every
//!   applied gradient provably satisfies `staleness ≤ slack`.
//!   `Ssp { slack: 0 }` is normalized to `Sync` at construction (the only
//!   staleness-0 schedule that never deadlocks is the barrier), so it is
//!   bit-identical to explicit `Sync`.

use agl_nn::Optimizer;
use agl_obs::{Clock, Histogram, HistogramKind, Obs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How model updates are coordinated across workers — the GraphLab-style
/// consistency spectrum instead of a sync/async binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Barrier per step: gradients from all workers are combined (summed in
    /// worker-id order, then averaged) and one optimizer step is applied;
    /// every `push` blocks until the round's step lands. Staleness is 0.
    #[default]
    Sync,
    /// Each push is applied immediately, no coordination (Hogwild-style).
    /// Staleness is measured but unbounded.
    Async,
    /// Stale-synchronous parallel: a worker whose progress would push some
    /// in-flight worker's staleness past `slack` blocks on pull/push until
    /// the stragglers catch up (apply their gradient, or retire).
    /// Guarantees every applied gradient's staleness ≤ `slack`; `slack: 0`
    /// degrades to `Sync`.
    Ssp { slack: u64 },
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Sync => f.write_str("sync"),
            Consistency::Async => f.write_str("async"),
            Consistency::Ssp { slack } => write!(f, "ssp({slack})"),
        }
    }
}

/// One server shard: a contiguous slice of the flat model vector plus its
/// own optimizer state.
struct Shard {
    params: Vec<f32>,
    opt: Box<dyn Optimizer>,
}

/// Barrier state for synchronous training. Each worker writes its gradient
/// into its own slot; the round's last arrival sums the slots in worker-id
/// order, which makes the averaged step independent of arrival order (and
/// hence the whole sync trajectory bit-deterministic given the seeds).
struct SyncState {
    /// Per-worker gradient slots, `n_workers × n`.
    slots: Vec<Vec<f32>>,
    /// Scratch for the in-order sum (reused every round; no per-round
    /// allocation).
    accum: Vec<f32>,
    arrived: usize,
    round: u64,
}

/// Model-version bookkeeping: how many optimizer steps have landed, per
/// shard and globally, plus the per-worker progress the SSP gate reads.
/// It shares the server's one lock with the shards, so a versioned pull is
/// a consistent `(params, version)` cut, and staleness is recorded here at
/// apply time (exact, no racy atomics).
struct VersionTable {
    shard_versions: Vec<u64>,
    global_step: u64,
    /// Model version each worker saw at its most recent pull.
    last_pull: Vec<u64>,
    /// Workers currently in-flight (pulled and not yet retired). Only
    /// active workers constrain the SSP gate — a retired worker never
    /// pushes again, so its stale `last_pull` must not block others.
    active: Vec<bool>,
    /// Pull-before-push discipline flag, per worker: SSP's staleness bound
    /// is proven only for workers that pull between pushes.
    pulled_since_push: Vec<bool>,
    workers: Vec<WorkerRecord>,
}

/// Internal per-worker record backed by the shared `agl-obs` histogram
/// type; [`ParameterServer::stats`] materializes it into the flat
/// [`WorkerPsStats`] snapshot, so downstream consumers keep a plain view.
struct WorkerRecord {
    pulls: u64,
    /// Staleness per applied push: exact linear buckets, last = overflow.
    staleness: Histogram,
    /// Nanoseconds blocked on the SSP gate, one sample per blocked
    /// pull/push (`count()` = waits, `sum()` = total nanos).
    gate_wait: Histogram,
}

impl WorkerRecord {
    fn new(hist_len: usize) -> Self {
        Self { pulls: 0, staleness: Histogram::linear(hist_len), gate_wait: Histogram::log2(40) }
    }

    fn snapshot(&self) -> WorkerPsStats {
        WorkerPsStats {
            pulls: self.pulls,
            pushes: self.staleness.count(),
            max_staleness: self.staleness.max(),
            staleness_hist: self.staleness.bucket_counts(),
            waits: self.gate_wait.count(),
            wait_nanos: self.gate_wait.sum(),
        }
    }
}

/// Everything the server's one mutex guards.
struct PsState {
    sync: SyncState,
    versions: VersionTable,
    shards: Vec<Shard>,
}

impl VersionTable {
    /// Is `w` in flight: pulled a model it has not yet pushed a gradient
    /// for, and not retired. Only in-flight workers constrain the SSP
    /// window — between a worker's apply and its next pull it holds no
    /// model anyone must stay fresh for.
    fn in_flight(&self, w: usize) -> bool {
        self.active[w] && self.pulled_since_push[w]
    }

    /// SSP pull gate: admitting a pull by `puller` must keep the in-flight
    /// window at `slack + 1` workers, the largest set for which a
    /// staleness-≤-slack apply order always exists (a fresh puller enters
    /// at the back of that order).
    fn ssp_pull_blocked(&self, puller: usize, slack: u64) -> bool {
        let others = (0..self.last_pull.len()).filter(|&w| w != puller && self.in_flight(w)).count();
        others as u64 > slack
    }

    /// SSP apply gate: may `applier` apply one more step now?
    ///
    /// Invariant maintained: ordering the in-flight workers by pull
    /// version `p₍₁₎ ≤ … ≤ p₍ₖ₎`, each satisfies
    /// `p₍ⱼ₎ ≥ global_step + j − 1 − slack` — i.e. even if they apply in
    /// that worst-case order with no further pulls, none exceeds `slack`
    /// staleness. An apply bumps `global_step`, so it is admitted only if
    /// every *other* in-flight worker still fits its window afterwards;
    /// the worker with the oldest pull always does (its constraints are
    /// unchanged), which is what makes the schedule deadlock-free: the
    /// straggler is never the one waiting.
    fn ssp_apply_blocked(&self, applier: usize, slack: u64) -> bool {
        let g_after = self.global_step + 1;
        let flight = |w: usize| w != applier && self.in_flight(w);
        (0..self.last_pull.len()).filter(|&x| flight(x)).any(|x| {
            let p = self.last_pull[x];
            // Worst sorted position of x: after every in-flight pull ≤ p.
            let pos = (0..self.last_pull.len()).filter(|&y| flight(y) && self.last_pull[y] <= p).count() as u64;
            p + slack + 1 < g_after + pos
        })
    }

    /// Record one applied push for `worker` at the given staleness.
    fn record_push(&mut self, worker: usize, staleness: u64, waited: bool, wait_nanos: u64) {
        let ws = &mut self.workers[worker];
        ws.staleness.record(staleness);
        if waited {
            ws.gate_wait.record(wait_nanos);
        }
        self.pulled_since_push[worker] = false;
    }
}

/// Per-worker traffic and staleness statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerPsStats {
    pub pulls: u64,
    pub pushes: u64,
    /// Largest staleness (steps between pull and apply) over this worker's
    /// applied pushes. Exact: recorded under the server lock at apply.
    pub max_staleness: u64,
    /// `staleness_hist[i]` counts pushes applied at staleness `i`; the last
    /// bucket collects overflow (reachable only in `Async` mode — SSP never
    /// exceeds its slack, sync never exceeds 0).
    pub staleness_hist: Vec<u64>,
    /// Pulls and pushes that blocked on the SSP gate.
    pub waits: u64,
    /// Total clock nanoseconds this worker spent blocked on the gate
    /// (logical ticks when the attached obs handle runs a logical clock).
    pub wait_nanos: u64,
}

/// Traffic and progress statistics, for the cluster-simulator calibration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PsStats {
    pub pulls: u64,
    pub pushes: u64,
    /// Optimizer steps applied (sync: one per round; async/SSP: one per push).
    pub steps: u64,
    /// Bytes moved over the (simulated) network, both directions.
    pub bytes_transferred: u64,
    /// Model version = optimizer steps landed (equals `steps` at rest).
    pub model_version: u64,
    /// Largest staleness any applied push observed (max over workers).
    pub max_staleness: u64,
    /// Pulls and pushes that blocked on the SSP gate (sum over workers).
    pub ssp_waits: u64,
    /// Total nanoseconds spent blocked on the SSP gate (sum over workers).
    pub ssp_wait_nanos: u64,
    /// Per-worker breakdown (staleness histograms, wait counters).
    pub workers: Vec<WorkerPsStats>,
}

/// In-process parameter server holding the flat model vector in `S` shards.
pub struct ParameterServer {
    state: Mutex<PsState>,
    /// Shard boundaries: shard `i` owns `bounds[i]..bounds[i+1]`.
    bounds: Vec<usize>,
    /// Normalized mode (`Ssp { slack: 0 }` ⇒ `Sync`).
    mode: Consistency,
    n_workers: usize,
    /// Woken when a sync round's step has landed.
    sync_cv: Condvar,
    /// Woken when the SSP gate may open: a straggler pulled or retired.
    ssp_cv: Condvar,
    /// Observability handle: pull/push/apply spans land on per-worker
    /// tracks `ps.w<i>`. Disabled by default (inert, allocation-free).
    obs: Obs,
    /// Gate-wait timing source. Follows the obs clock when a handle is
    /// attached, so logical-clock runs stay free of wall-clock reads.
    clock: Clock,
    /// Registry mirrors of the staleness / gate-wait histograms, populated
    /// by [`with_obs`](Self::with_obs) (aggregated over workers).
    obs_staleness: Option<Arc<Histogram>>,
    obs_gate_wait: Option<Arc<Histogram>>,
    /// Traffic counters. Plain cells by default; [`with_obs`](Self::with_obs)
    /// swaps in the run registry's cells (`ps.pulls`, …) so the metrics
    /// export sees live values with no double bookkeeping. Monotone
    /// statistics (CONCURRENCY.md ordering policy, row 1): bumped by `bump`,
    /// read by `total`.
    pulls: Arc<AtomicU64>,
    pushes: Arc<AtomicU64>,
    steps: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

/// Add `n` to a traffic counter.
fn bump(cell: &AtomicU64, n: u64) {
    // agl-lint: allow(atomics) — monotone statistics counter; concurrent RMWs commute.
    cell.fetch_add(n, Ordering::Relaxed);
}

/// Read a traffic counter.
fn total(cell: &AtomicU64) -> u64 {
    // agl-lint: allow(atomics) — statistical read of a monotone counter; staleness is fine.
    cell.load(Ordering::Relaxed)
}

/// Histogram size per mode: staleness is provably ≤ 0 (sync) / ≤ slack
/// (SSP); async gets a fixed range with an overflow bucket.
fn hist_len(mode: Consistency) -> usize {
    match mode {
        Consistency::Sync => 2,
        Consistency::Async => 18,
        // +1 for staleness == slack, +1 overflow (must stay empty).
        Consistency::Ssp { slack } => (slack as usize).saturating_add(2).min(66),
    }
}

/// How a `dim`-element model splits over (at most) `n_shards` shards —
/// shard `i` owns the contiguous `bounds[i]..bounds[i + 1]` — and the mode
/// it runs under; the in-process server and the remote client share it.
/// `Ssp { slack: 0 }` admits no stale gradient, and the barrier is the one
/// staleness-0 schedule that cannot deadlock, so it normalizes to `Sync`
/// (which also makes the two bit-identical).
pub(crate) fn shard_layout(dim: usize, n_shards: usize, consistency: Consistency) -> (Vec<usize>, Consistency) {
    let n_shards = n_shards.clamp(1, dim.max(1));
    let per = dim.div_ceil(n_shards);
    let bounds = (0..=n_shards).map(|i| (i * per).min(dim)).collect();
    let mode = match consistency {
        Consistency::Ssp { slack: 0 } => Consistency::Sync,
        other => other,
    };
    (bounds, mode)
}

impl ParameterServer {
    /// Create from an initial flat parameter vector. This is the only
    /// constructor: the consistency mode and the worker count are picked
    /// here and nowhere else. `make_opt` builds the per-shard server-side
    /// optimizer (each shard keeps independent state, which is exact for
    /// elementwise optimizers like Adam/SGD).
    pub fn new(
        initial: Vec<f32>,
        n_shards: usize,
        n_workers: usize,
        consistency: Consistency,
        make_opt: impl Fn() -> Box<dyn Optimizer>,
    ) -> Self {
        assert!(n_workers > 0, "the server needs at least one worker");
        let (bounds, mode) = shard_layout(initial.len(), n_shards, consistency);
        let (n, n_shards) = (initial.len(), bounds.len() - 1);
        let shards =
            bounds.windows(2).map(|b| Shard { params: initial[b[0]..b[1]].to_vec(), opt: make_opt() }).collect();
        Self {
            state: Mutex::new(PsState {
                sync: SyncState {
                    slots: vec![vec![0.0; n]; if mode == Consistency::Sync { n_workers } else { 0 }],
                    accum: vec![0.0; if mode == Consistency::Sync { n } else { 0 }],
                    arrived: 0,
                    round: 0,
                },
                versions: VersionTable {
                    shard_versions: vec![0; n_shards],
                    global_step: 0,
                    last_pull: vec![0; n_workers],
                    active: vec![false; n_workers],
                    pulled_since_push: vec![false; n_workers],
                    workers: (0..n_workers).map(|_| WorkerRecord::new(hist_len(mode))).collect(),
                },
                shards,
            }),
            bounds,
            mode,
            n_workers,
            sync_cv: Condvar::new(),
            ssp_cv: Condvar::new(),
            obs: Obs::default(),
            clock: Clock::monotonic(),
            obs_staleness: None,
            obs_gate_wait: None,
            pulls: Arc::new(AtomicU64::new(0)),
            pushes: Arc::new(AtomicU64::new(0)),
            steps: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Attach an observability handle (builder style, before the server is
    /// shared). Traffic counters become cells of the run's metrics registry
    /// (`ps.pulls`, `ps.pushes`, `ps.steps`, `ps.bytes_transferred`),
    /// staleness and gate waits gain aggregated registry histograms
    /// (`ps.staleness`, `ps.gate_wait_nanos`), and pull/push/apply emit
    /// spans on per-worker tracks `ps.w<i>` — including `ps.gate.pull` /
    /// `ps.gate.push` spans covering SSP gate waits. Gate-wait timing
    /// switches to the handle's clock, so a logical-clock run never reads
    /// the wall clock.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        if let Some(m) = obs.metrics() {
            self.pulls = m.counter("ps.pulls");
            self.pushes = m.counter("ps.pushes");
            self.steps = m.counter("ps.steps");
            self.bytes = m.counter("ps.bytes_transferred");
            self.obs_staleness =
                Some(m.histogram("ps.staleness", HistogramKind::Linear { buckets: hist_len(self.mode) }));
            self.obs_gate_wait = Some(m.histogram("ps.gate_wait_nanos", HistogramKind::Log2 { buckets: 40 }));
        }
        if let Some(t) = obs.trace() {
            self.clock = t.clock().clone();
        }
        self.obs = obs;
        self
    }

    /// Span on this worker's trace track (`ps.w<worker>`). Inert when no
    /// obs handle is attached — the track-name allocation is skipped.
    fn worker_span(&self, worker: usize, name: &str) -> agl_obs::Span {
        if self.obs.is_enabled() {
            self.obs.span(&format!("ps.w{worker}"), name)
        } else {
            agl_obs::Span::disabled()
        }
    }

    /// Total parameter count.
    pub fn len(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of server shards.
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of registered workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The normalized consistency mode (`Ssp { slack: 0 }` reads back as
    /// `Sync` — they are the same schedule).
    pub fn consistency(&self) -> Consistency {
        self.mode
    }

    /// Acquire the server state. Poisoning is ignored: shard state is
    /// elementwise and never left torn.
    fn lock(&self) -> MutexGuard<'_, PsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy every shard's parameters into their slices of `out`.
    fn gather(&self, shards: &[Shard], out: &mut [f32]) {
        for (s, b) in shards.iter().zip(self.bounds.windows(2)) {
            out[b[0]..b[1]].copy_from_slice(&s.params);
        }
    }

    /// Pull the current full parameter vector as `worker` (a worker's step
    /// begins here). Registers the worker as in-flight and records the
    /// version it saw, which is what the SSP gate reads.
    pub fn pull(&self, worker: usize) -> Vec<f32> {
        self.pull_with_version(worker).0
    }

    /// Pull the parameter vector together with its model version (number of
    /// optimizer steps it reflects). The read and every apply happen under
    /// the one server lock, so the returned pair is a consistent cut — the
    /// staleness recorded when this worker later pushes is exact.
    pub fn pull_with_version(&self, worker: usize) -> (Vec<f32>, u64) {
        assert!(worker < self.n_workers, "worker id {worker} out of range (n_workers = {})", self.n_workers);
        let mut span = self.worker_span(worker, "ps.pull");
        let mut out = vec![0.0f32; self.len()];
        let mut st = self.lock();
        if let Consistency::Ssp { slack } = self.mode {
            // Pull gate: cap the in-flight window at `slack + 1` workers —
            // any more and no apply order could keep everyone ≤ slack.
            let t0 = self.clock.now();
            if st.versions.ssp_pull_blocked(worker, slack) {
                let _gate = self.worker_span(worker, "ps.gate.pull");
                st = self
                    .ssp_cv
                    .wait_while(st, |s| s.versions.ssp_pull_blocked(worker, slack))
                    .unwrap_or_else(PoisonError::into_inner);
                let waited = self.clock.since(t0);
                st.versions.workers[worker].gate_wait.record(waited);
                if let Some(h) = &self.obs_gate_wait {
                    h.record(waited);
                }
            }
        }
        self.gather(&st.shards, &mut out);
        let v = &mut st.versions;
        let version = v.global_step;
        v.last_pull[worker] = version;
        v.active[worker] = true;
        v.pulled_since_push[worker] = true;
        v.workers[worker].pulls += 1;
        drop(st);
        // A fresher pull can only open the gate for blocked pushers.
        if matches!(self.mode, Consistency::Ssp { .. }) {
            self.ssp_cv.notify_all();
        }
        bump(&self.pulls, 1);
        bump(&self.bytes, 4 * self.len() as u64);
        span.counter("bytes", 4 * self.len() as u64);
        (out, version)
    }

    /// Read the full parameter vector without worker bookkeeping — the
    /// driver's view (e.g. loading the final model after training).
    pub fn snapshot(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.gather(&self.lock().shards, &mut out);
        bump(&self.pulls, 1);
        bump(&self.bytes, 4 * self.len() as u64);
        out
    }

    /// The model version right now: optimizer steps applied so far.
    pub fn current_version(&self) -> u64 {
        self.lock().versions.global_step
    }

    /// Deregister `worker` from the SSP gate: it will push no more this
    /// round of its life, so its (stale) `last_pull` must stop blocking
    /// others. Idempotent; called automatically by
    /// [`run_workers`](crate::run_workers) when a worker finishes (or
    /// unwinds). A retired worker re-registers simply by pulling again.
    pub fn retire_worker(&self, worker: usize) {
        assert!(worker < self.n_workers, "worker id {worker} out of range (n_workers = {})", self.n_workers);
        self.lock().versions.active[worker] = false;
        if matches!(self.mode, Consistency::Ssp { .. }) {
            self.ssp_cv.notify_all();
        }
    }

    /// Push a gradient vector as `worker`.
    ///
    /// * `Sync`: blocks until the whole round's averaged step has applied.
    /// * `Async`: applies immediately.
    /// * `Ssp { slack }`: applies immediately unless the new version could
    ///   push another in-flight worker's staleness past `slack` — then
    ///   blocks until stragglers apply or retire. Requires the
    ///   pull-compute-push discipline (a pull by this worker since its
    ///   previous push); that discipline is what makes the bound
    ///   `staleness ≤ slack` airtight for the pusher itself.
    pub fn push(&self, worker: usize, grads: &[f32]) {
        assert_eq!(grads.len(), self.len(), "gradient length mismatch");
        assert!(worker < self.n_workers, "worker id {worker} out of range (n_workers = {})", self.n_workers);
        let mut span = self.worker_span(worker, "ps.push");
        span.counter("bytes", 4 * grads.len() as u64);
        bump(&self.pushes, 1);
        bump(&self.bytes, 4 * grads.len() as u64);
        match self.mode {
            Consistency::Async => {
                let mut st = self.lock();
                let PsState { versions: v, shards, .. } = &mut *st;
                let staleness = v.global_step.saturating_sub(v.last_pull[worker]);
                v.record_push(worker, staleness, false, 0);
                self.observe_staleness(&mut span, staleness);
                {
                    let _apply = self.worker_span(worker, "ps.apply");
                    self.apply(v, shards, grads);
                }
                bump(&self.steps, 1);
            }
            Consistency::Ssp { slack } => {
                let mut st = self.lock();
                assert!(
                    st.versions.pulled_since_push[worker],
                    "SSP requires the pull-compute-push discipline: worker {worker} pushed twice \
                     without pulling, which would void the staleness bound"
                );
                let t0 = self.clock.now();
                let waited = st.versions.ssp_apply_blocked(worker, slack);
                if waited {
                    // We wait on other in-flight workers applying (their
                    // window position ahead of ours) or retiring; both
                    // notify `ssp_cv`, and the oldest-pull worker is never
                    // blocked, so someone can always make progress.
                    let _gate = self.worker_span(worker, "ps.gate.push");
                    st = self
                        .ssp_cv
                        .wait_while(st, |s| s.versions.ssp_apply_blocked(worker, slack))
                        .unwrap_or_else(PoisonError::into_inner);
                }
                let wait_nanos = if waited { self.clock.since(t0) } else { 0 };
                if waited {
                    if let Some(h) = &self.obs_gate_wait {
                        h.record(wait_nanos);
                    }
                }
                // The window invariant (every in-flight pull fits a
                // staleness-≤-slack apply order) bounds our own staleness
                // here without a separate check.
                let PsState { versions: v, shards, .. } = &mut *st;
                let staleness = v.global_step.saturating_sub(v.last_pull[worker]);
                v.record_push(worker, staleness, waited, wait_nanos);
                self.observe_staleness(&mut span, staleness);
                {
                    let _apply = self.worker_span(worker, "ps.apply");
                    self.apply(v, shards, grads);
                }
                bump(&self.steps, 1);
                drop(st);
                // Our apply shrank the in-flight window: blocked pullers
                // (window full) and blocked appliers (waiting on us) may
                // proceed now.
                self.ssp_cv.notify_all();
            }
            Consistency::Sync => {
                let n_workers = self.n_workers;
                let mut st = self.lock();
                let PsState { sync, versions, shards } = &mut *st;
                sync.slots[worker].copy_from_slice(grads);
                sync.arrived += 1;
                // Sync staleness is 0 by construction.
                versions.record_push(worker, 0, false, 0);
                self.observe_staleness(&mut span, 0);
                if sync.arrived == n_workers {
                    // Last worker of the round applies the averaged step.
                    // Summing the slots in worker-id order makes the result
                    // independent of arrival order (bit-deterministic).
                    sync.arrived = 0;
                    sync.round += 1;
                    let scale = 1.0 / n_workers as f32;
                    let SyncState { slots, accum, .. } = sync;
                    accum.fill(0.0);
                    for slot in slots.iter() {
                        for (a, g) in accum.iter_mut().zip(slot) {
                            *a += g;
                        }
                    }
                    for a in accum.iter_mut() {
                        *a *= scale;
                    }
                    {
                        let _apply = self.worker_span(worker, "ps.apply");
                        self.apply(versions, shards, accum);
                    }
                    bump(&self.steps, 1);
                    self.sync_cv.notify_all();
                } else {
                    let target = sync.round + 1;
                    let _st =
                        self.sync_cv.wait_while(st, |s| s.sync.round < target).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Mirror one applied push's staleness onto the push span and the
    /// registry histogram (both no-ops without an obs handle).
    fn observe_staleness(&self, span: &mut agl_obs::Span, staleness: u64) {
        span.counter("staleness", staleness);
        if let Some(h) = &self.obs_staleness {
            h.record(staleness);
        }
    }

    /// Apply one optimizer step from `grads` to every shard. The caller
    /// holds the server lock, so versioned pulls see either none or all of
    /// the step.
    fn apply(&self, v: &mut VersionTable, shards: &mut [Shard], grads: &[f32]) {
        v.global_step += 1;
        for (i, s) in shards.iter_mut().enumerate() {
            let (lo, hi) = (self.bounds[i], self.bounds[i + 1]);
            s.params_opt_step(&grads[lo..hi]);
            v.shard_versions[i] += 1;
        }
    }

    /// Traffic/progress snapshot, including the per-worker staleness
    /// histograms and SSP wait counters. The per-worker records are kept
    /// under the server lock and written at apply time, so a snapshot
    /// taken after all workers joined is exact.
    pub fn stats(&self) -> PsStats {
        let st = self.lock();
        let workers: Vec<WorkerPsStats> = st.versions.workers.iter().map(WorkerRecord::snapshot).collect();
        let model_version = st.versions.global_step;
        drop(st);
        PsStats {
            pulls: total(&self.pulls),
            pushes: total(&self.pushes),
            steps: total(&self.steps),
            bytes_transferred: total(&self.bytes),
            model_version,
            max_staleness: workers.iter().map(|w| w.max_staleness).max().unwrap_or(0),
            ssp_waits: workers.iter().map(|w| w.waits).sum(),
            ssp_wait_nanos: workers.iter().map(|w| w.wait_nanos).sum(),
            workers,
        }
    }
}

impl Shard {
    fn params_opt_step(&mut self, grads: &[f32]) {
        self.opt.step(&mut self.params, grads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_nn::Sgd;
    use std::sync::Arc;

    fn sgd() -> Box<dyn Optimizer> {
        Box::new(Sgd::new(0.1))
    }

    #[test]
    fn pull_returns_initial_params() {
        let ps = ParameterServer::new(vec![1.0, 2.0, 3.0, 4.0, 5.0], 2, 1, Consistency::Async, sgd);
        assert_eq!(ps.pull(0), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(ps.n_shards(), 2);
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn async_push_applies_immediately() {
        let ps = ParameterServer::new(vec![0.0; 4], 2, 1, Consistency::Async, sgd);
        ps.pull(0);
        ps.push(0, &[1.0, 1.0, 1.0, 1.0]);
        // SGD lr=0.1: params -= 0.1 * g
        assert_eq!(ps.snapshot(), vec![-0.1; 4]);
        let st = ps.stats();
        assert_eq!((st.pulls, st.pushes, st.steps), (2, 1, 1));
        assert_eq!(st.bytes_transferred, 3 * 4 * 4);
        assert_eq!(st.workers[0].pushes, 1);
        assert_eq!(st.workers[0].staleness_hist[0], 1);
    }

    #[test]
    fn sync_push_averages_across_workers() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2], 1, 4, Consistency::Sync, sgd));
        std::thread::scope(|s| {
            for w in 0..4usize {
                let ps = ps.clone();
                s.spawn(move || {
                    // Worker w pushes gradient 2w (average = 3).
                    ps.push(w, &[2.0 * w as f32, 2.0 * w as f32]);
                });
            }
        });
        let p = ps.snapshot();
        assert!((p[0] + 0.3).abs() < 1e-6, "avg grad 3 * lr 0.1 -> -0.3, got {}", p[0]);
        assert_eq!(ps.stats().steps, 1, "one optimizer step per sync round");
        assert_eq!(ps.stats().max_staleness, 0);
    }

    #[test]
    fn sync_round_is_arrival_order_independent() {
        // Two rounds with opposite arrival orders must land bit-identical
        // parameters: the slots are summed in worker-id order.
        let run = |order: [usize; 3]| {
            let ps = Arc::new(ParameterServer::new(vec![0.25; 3], 1, 3, Consistency::Sync, sgd));
            std::thread::scope(|s| {
                for (rank, w) in order.into_iter().enumerate() {
                    let ps = ps.clone();
                    s.spawn(move || {
                        // Stagger arrivals deterministically by rank.
                        std::thread::sleep(std::time::Duration::from_millis(10 * rank as u64));
                        ps.push(w, &[0.1 * (w as f32 + 1.0), 0.7, -0.3]);
                    });
                }
            });
            ps.snapshot()
        };
        let a = run([0, 1, 2]);
        let b = run([2, 1, 0]);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sync_multiple_rounds_make_progress() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 1], 1, 2, Consistency::Sync, sgd));
        std::thread::scope(|s| {
            for w in 0..2usize {
                let ps = ps.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        let _params = ps.pull(w);
                        ps.push(w, &[1.0]);
                    }
                });
            }
        });
        // 5 rounds of avg grad 1.0 with lr 0.1 -> -0.5.
        assert!((ps.snapshot()[0] + 0.5).abs() < 1e-6);
        assert_eq!(ps.stats().steps, 5);
    }

    #[test]
    fn sharding_matches_single_shard_result() {
        let run = |shards: usize| {
            let ps = ParameterServer::new(vec![0.5; 10], shards, 1, Consistency::Async, sgd);
            ps.pull(0);
            ps.push(0, &[0.2; 10]);
            ps.pull(0);
            ps.push(0, &[-0.1; 10]);
            ps.snapshot()
        };
        assert_eq!(run(1), run(3));
        assert_eq!(run(1), run(10));
    }

    #[test]
    fn model_version_counts_applied_steps() {
        let ps = ParameterServer::new(vec![0.0; 6], 3, 1, Consistency::Async, sgd);
        assert_eq!(ps.current_version(), 0);
        ps.pull(0);
        ps.push(0, &[1.0; 6]);
        ps.push(0, &[1.0; 6]);
        let (params, version) = ps.pull_with_version(0);
        assert_eq!(version, 2);
        assert_eq!(params.len(), 6);
        let st = ps.stats();
        assert_eq!(st.model_version, 2);
        assert_eq!(st.model_version, st.steps, "at rest, version equals applied steps");
        // Second push went out without a fresh pull: staleness 1, recorded
        // exactly in the histogram (legal in async mode).
        assert_eq!(st.workers[0].staleness_hist[0], 1);
        assert_eq!(st.workers[0].staleness_hist[1], 1);
        assert_eq!(st.max_staleness, 1);
    }

    #[test]
    fn versioned_pull_is_a_consistent_cut() {
        // Concurrent pullers race with async pushers; because the one
        // `PsState` mutex covers both the version table and every shard, an
        // apply and a pull never interleave, so a pulled vector tagged
        // version v reflects exactly v steps: with +1.0 gradients and SGD
        // lr=0.1, every element must equal -0.1 * v.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 8], 4, 4, Consistency::Async, sgd));
        std::thread::scope(|s| {
            for w in 0..2usize {
                let ps = ps.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        ps.push(w, &[1.0; 8]);
                    }
                });
            }
            for w in 2..4usize {
                let ps = ps.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let (params, v) = ps.pull_with_version(w);
                        let expect = -0.1 * v as f32;
                        for (j, p) in params.iter().enumerate() {
                            assert!((p - expect).abs() < 1e-4, "version {v}, param[{j}] = {p}, want {expect}");
                        }
                    }
                });
            }
        });
        assert_eq!(ps.current_version(), 100);
    }

    #[test]
    fn ssp_zero_slack_normalizes_to_sync() {
        let ps = ParameterServer::new(vec![0.0; 2], 1, 2, Consistency::Ssp { slack: 0 }, sgd);
        assert_eq!(ps.consistency(), Consistency::Sync);
    }

    #[test]
    fn ssp_single_worker_never_blocks() {
        let ps = ParameterServer::new(vec![0.0; 3], 1, 1, Consistency::Ssp { slack: 1 }, sgd);
        for _ in 0..10 {
            let _ = ps.pull(0);
            ps.push(0, &[1.0; 3]);
        }
        let st = ps.stats();
        assert_eq!(st.steps, 10);
        assert_eq!(st.ssp_waits, 0);
        assert_eq!(st.max_staleness, 0, "nobody else pushes, so nothing goes stale");
    }

    #[test]
    fn ssp_bounds_staleness_under_contention() {
        for slack in [1u64, 2, 4] {
            let ps = Arc::new(ParameterServer::new(vec![0.0; 4], 2, 3, Consistency::Ssp { slack }, sgd));
            std::thread::scope(|s| {
                for w in 0..3usize {
                    let ps = ps.clone();
                    s.spawn(move || {
                        for step in 0..20 {
                            let _ = ps.pull(w);
                            // Worker 0 is the straggler.
                            if w == 0 {
                                std::thread::sleep(std::time::Duration::from_micros(200 * (step % 3)));
                            }
                            ps.push(w, &[0.01; 4]);
                        }
                        ps.retire_worker(w);
                    });
                }
            });
            let st = ps.stats();
            assert_eq!(st.steps, 60);
            assert!(st.max_staleness <= slack, "slack {slack}: observed staleness {}", st.max_staleness);
            for (w, ws) in st.workers.iter().enumerate() {
                assert_eq!(ws.pushes, 20, "worker {w}");
                assert_eq!(ws.staleness_hist.iter().sum::<u64>(), 20, "worker {w} histogram accounts every push");
                assert_eq!(*ws.staleness_hist.last().unwrap(), 0, "worker {w}: SSP overflow bucket must stay empty");
            }
        }
    }

    #[test]
    fn ssp_push_without_pull_is_rejected() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2], 1, 2, Consistency::Ssp { slack: 3 }, sgd));
        ps.pull(0);
        ps.push(0, &[1.0; 2]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ps.push(0, &[1.0; 2]); // no pull since the last push
        }));
        assert!(err.is_err(), "double push without pull must violate the SSP discipline");
    }

    #[test]
    fn retire_unblocks_waiters() {
        // Worker 1 pulls once and never again; worker 0 would block forever
        // at slack 1 without the retirement path.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2], 1, 2, Consistency::Ssp { slack: 1 }, sgd));
        ps.pull(1);
        std::thread::scope(|s| {
            let ps2 = ps.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let _ = ps2.pull(0);
                    ps2.push(0, &[1.0; 2]);
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            ps.retire_worker(1);
        });
        assert_eq!(ps.stats().steps, 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_gradient_length_panics() {
        let ps = ParameterServer::new(vec![0.0; 4], 1, 1, Consistency::Async, sgd);
        ps.push(0, &[1.0; 3]);
    }

    #[test]
    fn obs_handle_mirrors_traffic_into_spans_and_registry() {
        let obs = agl_obs::Obs::enabled_logical();
        let ps = ParameterServer::new(vec![0.0; 4], 2, 1, Consistency::Async, sgd).with_obs(obs.clone());
        ps.pull(0);
        ps.push(0, &[1.0; 4]);
        ps.push(0, &[1.0; 4]); // staleness 1 (no pull in between; legal in async)

        let m = obs.metrics().unwrap();
        assert_eq!(m.get("ps.pulls"), 1);
        assert_eq!(m.get("ps.pushes"), 2);
        assert_eq!(m.get("ps.steps"), 2);
        let (names, tracks): (Vec<_>, Vec<_>) =
            obs.trace().unwrap().events().into_iter().map(|e| (e.name, e.track)).unzip();
        assert!(tracks.iter().all(|t| t == "ps.w0"), "{tracks:?}");
        assert_eq!(names.iter().filter(|n| *n == "ps.pull").count(), 1);
        assert_eq!(names.iter().filter(|n| *n == "ps.push").count(), 2);
        assert_eq!(names.iter().filter(|n| *n == "ps.apply").count(), 2);

        // Registry histogram mirrors the per-worker staleness record, and
        // the PsStats snapshot stays source-compatible.
        let Some(agl_obs::MetricValue::Histogram(h)) =
            obs.metrics().unwrap().snapshot().into_iter().find(|(k, _)| k == "ps.staleness").map(|(_, v)| v)
        else {
            panic!("ps.staleness histogram missing");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1);
        let st = ps.stats();
        assert_eq!(st.workers[0].staleness_hist, vec![1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!((st.pulls, st.pushes, st.steps), (1, 2, 2));
    }

    #[test]
    fn ssp_gate_wait_shows_up_in_stats_and_trace() {
        let obs = agl_obs::Obs::enabled();
        let ps = Arc::new(
            ParameterServer::new(vec![0.0; 2], 1, 3, Consistency::Ssp { slack: 1 }, sgd).with_obs(obs.clone()),
        );
        // Fill the in-flight window (slack + 1 = 2 workers) before worker 0
        // even starts: its pull gate is then provably closed until a
        // straggler retires, so the wait is deterministic, not scheduled.
        ps.pull(1);
        ps.pull(2);
        std::thread::scope(|s| {
            let ps2 = ps.clone();
            s.spawn(move || {
                let _ = ps2.pull(0); // blocks: window already full
                ps2.push(0, &[0.1; 2]);
            });
            std::thread::sleep(std::time::Duration::from_millis(200));
            ps.retire_worker(1);
            ps.retire_worker(2);
        });
        let st = ps.stats();
        assert_eq!(st.steps, 1);
        assert!(st.ssp_waits > 0, "worker 0 pulled into a full window");
        assert!(st.ssp_wait_nanos > 0, "the gate wait took measurable time");
        let gate_spans =
            obs.trace().unwrap().events().into_iter().filter(|e| e.name.starts_with("ps.gate.")).count() as u64;
        assert_eq!(gate_spans, st.ssp_waits, "one gate span per recorded wait");
        assert_eq!(obs.metrics().unwrap().get("ps.steps"), 1);
        assert!(obs.metrics().unwrap().to_json().contains("\"ps.gate_wait_nanos\":{\"count\":1,"));
    }
}
