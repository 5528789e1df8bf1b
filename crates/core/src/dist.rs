//! Multi-process AGL: GraphFlat shuffle workers and parameter-server
//! shards as separate OS processes, driven over the `agl-mapreduce`
//! socket transport.
//!
//! This is the process-topology half of the paper's deployment story: the
//! driver (this module, via `agl-cli dist-run`) spawns `agl-cli
//! dist-worker` children — each binding a Unix-domain socket and serving
//! either the shuffle protocol ([`agl_mapreduce::serve_shuffle`] with the
//! GraphFlat reducer factory) or one PS shard
//! ([`agl_ps::serve_ps_shard`]) — runs GraphFlat and distributed training
//! against them, merges every worker's counters and trace spans into one
//! report, and tears the fleet down.
//!
//! Fault semantics are real: the kill-injection hooks SIGKILL a live child
//! mid-job. A killed shuffle worker's lost partitions are re-dispatched to
//! the surviving workers (byte-identical output, `task_retries > 0`); a
//! killed PS shard surfaces as a typed error within the socket read
//! deadline — never a hang.
//!
//! The `--verify` mode re-runs the whole job in-process and asserts the
//! distributed run matched bit-for-bit: GraphFeature bytes from GraphFlat,
//! and the final model parameter bits from training (elementwise PS
//! sharding composes exactly across process boundaries).

use agl_datasets::{uug_like, UugConfig};
use agl_flat::{FlatConfig, GraphFlat, TargetSpec, TrainingExample};
use agl_graph::{EdgeTable, NodeTable};
use agl_mapreduce::transport::Endpoint;
use agl_mapreduce::{DistOptions, JobReport, TransportError};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::{Clock, Obs};
use agl_ps::{Consistency, OptSpec, PsClient, PsStats, RemotePs};
use agl_trainer::{DistTrainer, TrainOptions};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One distributed run, end to end.
#[derive(Debug, Clone)]
pub struct DistRunConfig {
    /// Synthetic-graph size (UUG-like generator).
    pub n_nodes: usize,
    /// GraphFlat neighborhood depth K.
    pub hops: usize,
    /// Shuffle worker processes.
    pub shuffle_workers: usize,
    /// Parameter-server shard processes.
    pub ps_shards: usize,
    /// Trainer worker threads (in the driver process).
    pub train_workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Dataset / model / sampling seed.
    pub seed: u64,
    /// Directory for the workers' Unix-domain sockets.
    pub socket_dir: PathBuf,
    /// Binary to spawn for workers (`agl-cli` itself).
    pub worker_bin: PathBuf,
    /// Re-run everything in-process and assert bit-identical results.
    pub verify: bool,
    /// SIGKILL shuffle worker 0 after this many reduce-task dispatches.
    pub kill_shuffle_after: Option<usize>,
    /// SIGKILL PS shard 0 after this many parameter pulls.
    pub kill_ps_after: Option<u64>,
    /// Socket connect / RPC-read deadlines.
    pub opts: DistOptions,
    /// Observability sink for the whole job. When enabled, the driver's
    /// trace identity is propagated to every worker process over the wire,
    /// worker spans/counters are merged back on shutdown, and RPC telemetry
    /// is recorded per shard. Inert by default (zero cost).
    pub obs: Obs,
}

impl Default for DistRunConfig {
    fn default() -> Self {
        Self {
            n_nodes: 300,
            hops: 2,
            shuffle_workers: 2,
            ps_shards: 2,
            train_workers: 2,
            epochs: 2,
            seed: 42,
            socket_dir: std::env::temp_dir().join(format!("agl-dist-{}", std::process::id())),
            worker_bin: PathBuf::new(),
            verify: false,
            kill_shuffle_after: None,
            kill_ps_after: None,
            opts: DistOptions::default(),
            obs: Obs::default(),
        }
    }
}

/// What the run measured — wall-clock splits come from
/// [`agl_obs::Clock::monotonic`], so they are honest process time.
#[derive(Debug, Clone)]
pub struct DistRunSummary {
    /// GraphFeatures produced.
    pub examples: usize,
    /// GraphFlat wall time (nanoseconds).
    pub flat_wall_ns: u64,
    /// Training wall time (nanoseconds).
    pub train_wall_ns: u64,
    /// Reduce-task retries the shuffle driver performed (>0 after a kill).
    pub task_retries: u64,
    /// Final-epoch training loss.
    pub final_loss: f32,
    /// Aggregated PS traffic stats.
    pub ps_stats: PsStats,
    /// Whether `--verify` ran and matched bit-for-bit.
    pub verified: bool,
    /// Rendered merged job report (driver + per-worker counters).
    pub report: String,
}

/// Child-process fleet with kill-on-drop semantics: whatever happens in the
/// driver — success, typed error, panic — every child is SIGKILLed and
/// reaped, and every socket file is removed. This guard is what the CI
/// leak checks (`pgrep` + socket-file listing) rely on.
pub struct ChildReaper {
    children: Mutex<Vec<Option<Child>>>,
    socks: Mutex<Vec<PathBuf>>,
}

impl ChildReaper {
    /// Empty fleet.
    pub fn new() -> Self {
        Self { children: Mutex::new(Vec::new()), socks: Mutex::new(Vec::new()) }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spawn a worker child and track it (and its socket path) for cleanup.
    /// Returns the child's index for targeted kills.
    pub fn spawn(&self, bin: &Path, args: &[String], sock: PathBuf) -> std::io::Result<usize> {
        let child = Command::new(bin).args(args).stdin(Stdio::null()).spawn()?;
        let mut children = Self::lock(&self.children);
        children.push(Some(child));
        Self::lock(&self.socks).push(sock);
        Ok(children.len() - 1)
    }

    /// SIGKILL child `idx` (and reap it). The fault-injection primitive —
    /// this is a real `kill -9`, not a simulated failure.
    pub fn kill(&self, idx: usize) {
        let mut children = Self::lock(&self.children);
        if let Some(slot) = children.get_mut(idx) {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Number of children spawned so far (dead ones included).
    pub fn len(&self) -> usize {
        Self::lock(&self.children).len()
    }

    /// True when no children have been spawned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ChildReaper {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ChildReaper {
    fn drop(&mut self) {
        for slot in Self::lock(&self.children).iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        for sock in Self::lock(&self.socks).iter() {
            let _ = std::fs::remove_file(sock);
        }
    }
}

/// PS-client wrapper that SIGKILLs a shard child after the n-th pull —
/// the "kill a PS shard mid-epoch" fault injection. Everything else
/// delegates to the wrapped client.
struct KillAfterPulls<'a, C: PsClient> {
    inner: &'a C,
    reaper: &'a ChildReaper,
    child_idx: usize,
    after: u64,
    pulls: AtomicU64,
    fired: AtomicBool,
}

impl<C: PsClient> PsClient for KillAfterPulls<'_, C> {
    fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError> {
        let n = self.pulls.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.after && !self.fired.swap(true, Ordering::SeqCst) {
            self.reaper.kill(self.child_idx);
        }
        self.inner.pull_with_version(worker)
    }
    fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError> {
        self.inner.push(worker, grads)
    }
    fn retire(&self, worker: usize) -> Result<(), TransportError> {
        self.inner.retire(worker)
    }
    fn snapshot(&self) -> Result<Vec<f32>, TransportError> {
        self.inner.snapshot()
    }
    fn stats(&self) -> Result<PsStats, TransportError> {
        self.inner.stats()
    }
    fn consistency(&self) -> Consistency {
        self.inner.consistency()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn synthetic_tables(cfg: &DistRunConfig) -> (NodeTable, EdgeTable) {
    let ds = uug_like(UugConfig { n_nodes: cfg.n_nodes, feature_dim: 8, seed: cfg.seed, ..UugConfig::default() });
    ds.graph().to_tables()
}

fn flat_config(cfg: &DistRunConfig) -> FlatConfig {
    FlatConfig { k_hops: cfg.hops, ..FlatConfig::default() }.with_seed(cfg.seed)
}

fn train_options(cfg: &DistRunConfig) -> TrainOptions {
    TrainOptions { epochs: cfg.epochs, lr: 0.05, batch_size: 16, ..TrainOptions::default() }
}

fn build_model(examples: &[TrainingExample], seed: u64) -> Result<GnnModel, String> {
    let sample = agl_flat::decode_graph_feature(&examples[0].graph_feature).map_err(|e| e.to_string())?;
    let in_dim = sample.features.cols();
    let out_dim = examples.iter().map(|e| e.label.len()).max().unwrap_or(1).max(1);
    let loss = if out_dim == 1 { Loss::BceWithLogits } else { Loss::SoftmaxCrossEntropy };
    Ok(GnnModel::new(ModelConfig::new(ModelKind::Sage, in_dim, 8, out_dim, 2, loss).with_seed(seed)))
}

/// Run one full distributed job: spawn the worker fleet, GraphFlat over
/// shuffle-worker processes, distributed training over PS-shard processes,
/// merge reports, tear everything down. See [`DistRunConfig`] for the
/// fault-injection and verification knobs.
pub fn run_distributed_job(cfg: &DistRunConfig) -> Result<DistRunSummary, Box<dyn std::error::Error>> {
    assert!(cfg.shuffle_workers > 0 && cfg.ps_shards > 0 && cfg.train_workers > 0);
    std::fs::create_dir_all(&cfg.socket_dir)?;
    let clock = Clock::monotonic();
    let reaper = ChildReaper::new();
    let accept_secs = "60";

    // ---- fleet ----
    let mut shuffle_eps = Vec::new();
    let mut shuffle_idx = Vec::new();
    for i in 0..cfg.shuffle_workers {
        let sock = cfg.socket_dir.join(format!("shuffle{i}.sock"));
        let ep = Endpoint::Unix(sock.clone());
        let args = vec![
            "dist-worker".to_string(),
            "--role".to_string(),
            "shuffle".to_string(),
            "--listen".to_string(),
            ep.to_string(),
            "--accept-timeout-secs".to_string(),
            accept_secs.to_string(),
        ];
        shuffle_idx.push(reaper.spawn(&cfg.worker_bin, &args, sock)?);
        shuffle_eps.push(ep);
    }
    let mut ps_eps = Vec::new();
    let mut ps_idx = Vec::new();
    for i in 0..cfg.ps_shards {
        let sock = cfg.socket_dir.join(format!("ps{i}.sock"));
        let ep = Endpoint::Unix(sock.clone());
        let args = vec![
            "dist-worker".to_string(),
            "--role".to_string(),
            "ps".to_string(),
            "--listen".to_string(),
            ep.to_string(),
            "--accept-timeout-secs".to_string(),
            accept_secs.to_string(),
        ];
        ps_idx.push(reaper.spawn(&cfg.worker_bin, &args, sock)?);
        ps_eps.push(ep);
    }

    // ---- GraphFlat across shuffle-worker processes ----
    let (nodes, edges) = synthetic_tables(cfg);
    let targets = TargetSpec::All;
    let mut flat_cfg = flat_config(cfg);
    flat_cfg.engine.obs = cfg.obs.clone();
    let flat = GraphFlat::new(flat_cfg);
    let killed = AtomicBool::new(false);
    let kill_hook = cfg.kill_shuffle_after.map(|after| {
        let reaper = &reaper;
        let killed = &killed;
        let victim = shuffle_idx[0];
        move |dispatched: usize| {
            if dispatched >= after && !killed.swap(true, Ordering::SeqCst) {
                reaper.kill(victim);
            }
        }
    });
    let flat_start = clock.now();
    let out = match &kill_hook {
        Some(h) => flat.run_distributed_with_hook(&nodes, &edges, &targets, &shuffle_eps, &cfg.opts, Some(h)),
        None => flat.run_distributed(&nodes, &edges, &targets, &shuffle_eps, &cfg.opts),
    }?;
    let flat_wall_ns = clock.since(flat_start);
    let task_retries = out.counters.get("task_retries");
    if cfg.kill_shuffle_after.is_some() && task_retries == 0 {
        return Err("kill-shuffle injection fired but the driver recorded no task retries".into());
    }

    // ---- distributed training across PS-shard processes ----
    let ps_error = |e: TransportError| format!("ps transport error: {e}");
    let mut opts = train_options(cfg);
    opts.engine.obs = cfg.obs.clone();
    let mut model = build_model(&out.examples, cfg.seed)?;
    let remote = RemotePs::connect_with_obs(
        &ps_eps,
        &model.param_vector(),
        cfg.train_workers,
        opts.consistency,
        OptSpec::Adam { lr: opts.lr },
        cfg.opts.connect_timeout_ns,
        cfg.opts.io_timeout_ns,
        cfg.obs.clone(),
    )
    .map_err(ps_error)?;
    let mut trainer = DistTrainer::new(cfg.train_workers, opts);
    trainer.n_shards = cfg.ps_shards;
    let train_start = clock.now();
    let result = match cfg.kill_ps_after {
        Some(after) => {
            let killer = KillAfterPulls {
                inner: &remote,
                reaper: &reaper,
                child_idx: ps_idx[0],
                after,
                pulls: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            };
            trainer.train_with_client(&mut model, &out.examples, None, &killer)
        }
        None => trainer.train_with_client(&mut model, &out.examples, None, &remote),
    };
    let train_wall_ns = clock.since(train_start);
    remote.shutdown();
    let result = result.map_err(ps_error)?;

    // ---- verification against the in-process engines ----
    let mut verified = false;
    if cfg.verify {
        let local_flat = GraphFlat::new(flat_config(cfg)).run(&nodes, &edges, &targets)?;
        if local_flat.examples.len() != out.examples.len() {
            return Err(format!(
                "verify: {} examples in-process vs {} distributed",
                local_flat.examples.len(),
                out.examples.len()
            )
            .into());
        }
        for (a, b) in local_flat.examples.iter().zip(&out.examples) {
            if a.target != b.target || a.label != b.label || a.graph_feature != b.graph_feature {
                return Err(format!("verify: GraphFeature mismatch at target {}", a.target).into());
            }
        }
        let mut local_model = build_model(&local_flat.examples, cfg.seed)?;
        // Fresh options: the in-process re-run must stay off the job trace,
        // or its spans would duplicate the distributed run's.
        let mut local_trainer = DistTrainer::new(cfg.train_workers, train_options(cfg));
        local_trainer.n_shards = cfg.ps_shards;
        local_trainer.train(&mut local_model, &local_flat.examples, None);
        let (dist_p, local_p) = (model.param_vector(), local_model.param_vector());
        let diverged =
            dist_p.len() != local_p.len() || dist_p.iter().zip(&local_p).any(|(a, b)| a.to_bits() != b.to_bits());
        if diverged {
            return Err("verify: final model parameters differ from the in-process run".into());
        }
        verified = true;
    }

    let final_loss = result.epochs.last().map(|e| e.loss as f32).unwrap_or(f32::NAN);
    Ok(DistRunSummary {
        examples: out.examples.len(),
        flat_wall_ns,
        train_wall_ns,
        task_retries,
        final_loss,
        ps_stats: result.ps_stats,
        verified,
        report: JobReport::from_counters(&out.counters).render(),
    })
    // `reaper` drops here: any child still alive is killed and reaped, and
    // every socket file is removed.
}
