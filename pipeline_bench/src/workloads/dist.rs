//! `dist.uug-uds` — the whole loop on one small graph, across sockets.
//!
//! Why: the only workload where `mapreduce::{dist, transport}`, `ps::net`
//! and `serve::net` do the work. It is the paper's end-to-end pipeline
//! (GraphFlat → GraphTrainer → GraphInfer → serving) and the guard for the
//! "one executor, one RPC skeleton" simplification: every stage's output
//! must stay bit-identical to its in-process twin.
//!
//! Servers run as threads of this process on Unix-domain-socket endpoints
//! inside the benchmark's scratch directory; every byte between driver and
//! worker still crosses the framed socket transport.

use super::flat::job_layer_metrics;
use super::infer::{infer_layer_metrics, scores_digest};
use super::train::{expected_pushes, ps_layer_metrics};
use super::{Digest, RepStats, Scale, Verdict, Workload, MODEL_SEED, PARALLELISM};
use crate::spans::Spans;
use agl_datasets::{uug_like, PowerLaw, UugConfig};
use agl_flat::{flat_reducer_from_spec, FlatConfig, FlatOutput, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_infer::{infer_combiner_from_spec, infer_reducer_from_spec, InferConfig, InferOutput, StreamInfer};
use agl_mapreduce::transport::connect;
use agl_mapreduce::{
    serve_shuffle, serve_shuffle_combining, DistOptions, Endpoint, EngineConfig, Framed, JobReport, Listener,
};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Clock;
use agl_ps::{serve_ps_shard, Consistency, OptSpec, PsClient, RemotePs};
use agl_serve::{serve_shard_worker, EmbeddingStore, Neighbor, RemoteStore, RequestBatcher, ServeConfig};
use agl_tensor::{derive_seed, seeded_rng};
use agl_trainer::{DistTrainResult, DistTrainer, TrainOptions};
use std::path::{Path, PathBuf};

/// Worker processes (threads here) per stage.
const WORKERS: usize = 2;
/// A worker whose driver never arrives gives up after this long.
const ACCEPT_TIMEOUT_NS: u64 = 10_000_000_000;
/// How long the failure path keeps trying to reach a worker to release it.
const POKE_TIMEOUT_NS: u64 = 1_000_000_000;
const BATCH: usize = 16;
const TOPK_EVERY: usize = 10;
const TOPK: usize = 8;

/// What the serving stage answered.
#[derive(Debug, PartialEq)]
struct Served {
    answers: Vec<Vec<Option<Vec<f32>>>>,
    topks: Vec<Vec<Neighbor>>,
}

/// The four stage outputs of one repetition.
struct LoopOutput {
    flat: FlatOutput,
    model: GnnModel,
    train: DistTrainResult,
    infer: InferOutput,
    served: Served,
}

pub struct DistUds {
    nodes: NodeTable,
    edges: EdgeTable,
    flat: GraphFlat,
    template: GnnModel,
    trainer: DistTrainer,
    stream: StreamInfer,
    batches: Vec<Vec<NodeId>>,
    socket_dir: PathBuf,
    opts: DistOptions,
    clock: Clock,
    last: Option<LoopOutput>,
}

/// Run `body` against `WORKERS` server threads, each binding and serving
/// one endpoint under `dir` (the driver's connect retries until a worker
/// has bound). Every thread is joined before this returns: when `body`
/// fails before (or instead of) shutting its workers down, each endpoint
/// is connected to and dropped so a blocked accept or read sees
/// end-of-stream and the worker exits.
fn with_workers<T>(
    dir: &Path,
    tag: &str,
    clock: &Clock,
    serve: impl Fn(&Endpoint) -> Result<(), String> + Sync,
    body: impl FnOnce(&[Endpoint]) -> Result<T, String>,
) -> Result<T, String> {
    let endpoints: Vec<Endpoint> = (0..WORKERS).map(|i| Endpoint::Unix(dir.join(format!("{tag}{i}.sock")))).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints.iter().map(|ep| s.spawn(|| serve(ep))).collect();
        let out = body(&endpoints);
        if out.is_err() {
            for ep in &endpoints {
                drop(connect(ep, clock, POKE_TIMEOUT_NS));
            }
        }
        let mut served = Ok(());
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => served = Err(format!("{tag} worker: {e}")),
                Err(_) => served = Err(format!("{tag} worker panicked")),
            }
        }
        let out = out?;
        // A worker error after a successful stage still fails the stage.
        served.map(|()| out)
    })
}

/// Bind `ep` and serve it with `serve`.
fn bound(ep: &Endpoint, serve: impl FnOnce(&Listener) -> Result<(), String>) -> Result<(), String> {
    serve(&Listener::bind(ep).map_err(|e| e.to_string())?)
}

impl DistUds {
    pub fn set_up(seed: u64, scale: Scale, scratch: &Path) -> Self {
        let ds = uug_like(UugConfig {
            seed,
            n_nodes: scale.pick(3_000, 150),
            avg_degree: 6.0,
            gamma: 2.1,
            feature_dim: 8,
            ..UugConfig::default()
        });
        let (nodes, edges) = ds.graph().to_tables();
        let engine = EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM);
        let flat = GraphFlat::new(FlatConfig {
            k_hops: 2,
            sampling: SamplingStrategy::Uniform { max_degree: 10 },
            engine: engine.clone(),
            ..FlatConfig::default()
        });
        // Labels are the generator's binary classes: one logit per node.
        let template = GnnModel::new(
            ModelConfig::new(ModelKind::Gcn, nodes.feature_dim(), 16, 1, 2, Loss::BceWithLogits).with_seed(MODEL_SEED),
        );
        let mut trainer = DistTrainer::new(
            PARALLELISM,
            TrainOptions {
                batch_size: 32,
                epochs: 1,
                lr: 0.05,
                pruning: true,
                partitions: 1,
                consistency: Consistency::Sync,
                engine: engine.clone(),
                ..TrainOptions::default()
            },
        );
        trainer.n_shards = WORKERS;
        let stream = StreamInfer::new(InferConfig { engine, ..InferConfig::default() });
        let popularity = PowerLaw::new(nodes.len(), 2.1);
        let mut rng = seeded_rng(derive_seed(seed, 0x5E21));
        let batches = (0..scale.pick(400, 40))
            .map(|_| (0..BATCH).map(|_| nodes.ids()[popularity.sample(&mut rng)]).collect())
            .collect();
        Self {
            nodes,
            edges,
            flat,
            template,
            trainer,
            stream,
            batches,
            socket_dir: scratch.to_path_buf(),
            opts: DistOptions::default(),
            clock: Clock::monotonic(),
            last: None,
        }
    }

    fn flat_stage(&self) -> Result<FlatOutput, String> {
        with_workers(
            &self.socket_dir,
            "sh",
            &self.clock,
            |ep| bound(ep, |l| serve_shuffle(l, ACCEPT_TIMEOUT_NS, &flat_reducer_from_spec).map_err(|e| e.to_string())),
            |eps| {
                self.flat
                    .run_distributed(&self.nodes, &self.edges, &TargetSpec::All, eps, &self.opts)
                    .map_err(|e| format!("GraphFlat::run_distributed: {e}"))
            },
        )
    }

    fn train_stage(&self, flat: &FlatOutput) -> Result<(GnnModel, DistTrainResult), String> {
        let mut model = self.template.clone();
        let result = with_workers(
            &self.socket_dir,
            "ps",
            &self.clock,
            |ep| bound(ep, |l| serve_ps_shard(l, ACCEPT_TIMEOUT_NS).map_err(|e| e.to_string())),
            |eps| {
                let remote = self.remote_ps(eps, &model, self.trainer.n_workers)?;
                let result = self.trainer.train_with_client(&mut model, &flat.examples, None, &remote);
                remote.shutdown();
                result.map_err(|e| format!("DistTrainer::train_with_client: {e}"))
            },
        )?;
        Ok((model, result))
    }

    fn remote_ps(&self, eps: &[Endpoint], model: &GnnModel, n_workers: usize) -> Result<RemotePs, String> {
        RemotePs::connect(
            eps,
            &model.param_vector(),
            n_workers,
            self.trainer.opts.consistency,
            OptSpec::Adam { lr: self.trainer.opts.lr },
            self.opts.connect_timeout_ns,
            self.opts.io_timeout_ns,
        )
        .map_err(|e| format!("RemotePs::connect: {e}"))
    }

    fn infer_stage(&self, model: &GnnModel) -> Result<InferOutput, String> {
        with_workers(
            &self.socket_dir,
            "in",
            &self.clock,
            |ep| {
                bound(ep, |l| {
                    serve_shuffle_combining(l, ACCEPT_TIMEOUT_NS, &infer_reducer_from_spec, &infer_combiner_from_spec)
                        .map_err(|e| e.to_string())
                })
            },
            |eps| {
                self.stream
                    .run_distributed(model, &self.nodes, &self.edges, eps, &self.opts)
                    .map_err(|e| format!("StreamInfer::run_distributed: {e}"))
            },
        )
    }

    fn serve_stage(&self, infer: &InferOutput) -> Result<Served, String> {
        with_workers(
            &self.socket_dir,
            "sv",
            &self.clock,
            |ep| serve_shard_worker(ep).map_err(|e| e.to_string()),
            |eps| {
                let vectors = infer.scores.iter().map(|s| (s.node, s.probs.clone()));
                let mut remote = RemoteStore::connect(eps, vectors, &self.clock, self.opts.connect_timeout_ns)
                    .map_err(|e| format!("RemoteStore::connect: {e}"))?;
                let served = (|| {
                    let mut served = Served { answers: Vec::new(), topks: Vec::new() };
                    for (i, ids) in self.batches.iter().enumerate() {
                        let answers = remote.lookup(ids).map_err(|e| format!("RemoteStore::lookup: {e}"))?;
                        if (i + 1).is_multiple_of(TOPK_EVERY) {
                            if let Some(Some(query)) = answers.first() {
                                let top =
                                    remote.topk(query, TOPK, None).map_err(|e| format!("RemoteStore::topk: {e}"))?;
                                served.topks.push(top);
                            }
                        }
                        served.answers.push(answers);
                    }
                    Ok::<Served, String>(served)
                })();
                remote.shutdown();
                served
            },
        )
    }

    /// The in-process twin of [`Self::serve_stage`].
    fn serve_twin(&self, infer: &InferOutput) -> Served {
        let store = EmbeddingStore::build(infer, &ServeConfig { shards: WORKERS, ..ServeConfig::default() });
        let batcher = RequestBatcher::new(&store);
        let mut served = Served { answers: Vec::new(), topks: Vec::new() };
        for (i, ids) in self.batches.iter().enumerate() {
            let answers = batcher.submit(ids);
            if (i + 1).is_multiple_of(TOPK_EVERY) {
                if let Some(Some(query)) = answers.first() {
                    served.topks.push(store.topk(query, TOPK));
                }
            }
            served.answers.push(answers);
        }
        served
    }
}

impl Workload for DistUds {
    fn records(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String> {
        self.last = None;
        let flat = {
            let _s = spans.open("dist.stage_s.flat", root, rep);
            self.flat_stage()?
        };
        let (model, train) = {
            let _s = spans.open("dist.stage_s.train", root, rep);
            self.train_stage(&flat)?
        };
        let infer = {
            let _s = spans.open("dist.stage_s.infer", root, rep);
            self.infer_stage(&model)?
        };
        let served = {
            let _s = spans.open("dist.stage_s.serve", root, rep);
            self.serve_stage(&infer)?
        };

        let n = self.nodes.len() as u64;
        let flat_report = JobReport::from_counters(&flat.counters);
        // `RemotePs::stats` sums traffic over shard processes: each logical
        // push lands once on every shard.
        let pushes = expected_pushes(flat.examples.len(), &self.trainer) * WORKERS as u64;
        let lookups = served.answers.iter().map(|a| a.len() as u64).sum::<u64>();
        let misses = served.answers.iter().flatten().filter(|a| a.is_none()).count() as u64;
        let ops_failed = n.saturating_sub(flat.examples.len() as u64)
            + flat_report.task_retries
            + pushes.abs_diff(train.ps_stats.pushes)
            + n.saturating_sub(infer.scores.len() as u64)
            + infer.counters.get("task_retries")
            + misses;

        // Both MapReduce jobs of the loop, summed per metric.
        let mut layer = job_layer_metrics(&flat_report);
        for (name, v) in infer_layer_metrics(&infer) {
            match layer.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += v,
                None => layer.push((name, v)),
            }
        }
        layer.extend(ps_layer_metrics(&train.ps_stats, train.max_staleness));
        self.last = Some(LoopOutput { flat, model, train, infer, served });
        Ok(RepStats { ops_attempted: n + pushes + n + lookups, ops_failed, records_per_s: None, layer })
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let Some(out) = &self.last else {
            v.failures.push("no repetition ran".into());
            return v;
        };
        let mut d = Digest::default();

        // Stage 1: GraphFeatures byte-identical to the in-process engine.
        match self.flat.run(&self.nodes, &self.edges, &TargetSpec::All) {
            Ok(twin) => {
                let same =
                    twin.examples.len() == out.flat.examples.len()
                        && twin.examples.iter().zip(&out.flat.examples).all(|(a, b)| {
                            a.target == b.target && a.label == b.label && a.graph_feature == b.graph_feature
                        });
                v.require(same, || "distributed GraphFlat output differs from GraphFlat::run".into());
            }
            Err(e) => v.failures.push(format!("GraphFlat::run twin: {e}")),
        }
        v.require(out.flat.examples.len() == self.nodes.len(), || {
            format!("|examples| {} != |targets| {}", out.flat.examples.len(), self.nodes.len())
        });
        for ex in &out.flat.examples {
            d.u64(ex.target.0);
            d.bytes(&ex.graph_feature);
        }

        // Stage 2: model parameter bits equal to in-process PS training.
        let mut twin = self.template.clone();
        let twin_result = self.trainer.train(&mut twin, &out.flat.examples, None);
        let (got, want) = (out.model.param_vector(), twin.param_vector());
        v.require(got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), || {
            "parameters trained over RemotePs differ from the in-process parameter server".into()
        });
        let loss = out.train.epochs.last().map_or(f64::NAN, |e| e.loss);
        v.require(
            loss.is_finite() && twin_result.epochs.last().is_some_and(|e| e.loss.to_bits() == loss.to_bits()),
            || format!("distributed training loss {loss} is not finite and equal to its in-process twin's"),
        );
        d.f32s(&got);

        // Stage 3: scores bit-identical to the materialized engine run.
        match self.stream.run_materialized(&out.model, &self.nodes, &self.edges) {
            Ok(twin) => v
                .require(twin.scores == out.infer.scores && scores_digest(&twin) == scores_digest(&out.infer), || {
                    "distributed inference scores differ from StreamInfer::run_materialized".into()
                }),
            Err(e) => v.failures.push(format!("StreamInfer::run_materialized twin: {e}")),
        }
        let want = (self.nodes.len() * out.model.n_layers()) as u64;
        let got = out.infer.counters.get("infer.embeddings_computed");
        v.require(got == want, || format!("embeddings_computed {got} != |V|·K = {want}"));
        d.u64(scores_digest(&out.infer));

        // Stage 4: remote answers equal to the in-process store's.
        v.require(self.serve_twin(&out.infer) == out.served, || {
            "RemoteStore answers differ from the in-process EmbeddingStore".into()
        });
        for row in out.served.answers.iter().flatten().flatten() {
            d.f32s(row);
        }
        v.digest = d.finish();
        v
    }

    fn probes(&mut self, clock: &Clock) -> Result<Vec<(&'static str, f64)>, String> {
        let mut out = Vec::new();
        for (name, len) in [("transport.roundtrip_ns.1KiB", 1usize << 10), ("transport.roundtrip_ns.64KiB", 1 << 16)] {
            out.push((name, self.roundtrip_ns(clock, len)?));
        }
        out.push(("ps.pull_push_ns", self.ps_pull_push_over_uds(clock)?));
        Ok(out)
    }
}

impl DistUds {
    /// Mean nanoseconds of one `Framed` request/echo of `len` bytes over a
    /// Unix-domain socket.
    fn roundtrip_ns(&self, clock: &Clock, len: usize) -> Result<f64, String> {
        const ROUNDS: u64 = 500;
        let ep = Endpoint::Unix(self.socket_dir.join("echo.sock"));
        let listener = Listener::bind(&ep).map_err(|e| e.to_string())?;
        std::thread::scope(|s| {
            let echo = s.spawn(|| -> Result<(), String> {
                let mut framed =
                    Framed::new(listener.accept_deadline(clock, ACCEPT_TIMEOUT_NS).map_err(|e| e.to_string())?);
                while let Some(frame) = framed.recv().map_err(|e| e.to_string())? {
                    framed.send(&frame).map_err(|e| e.to_string())?;
                }
                Ok(())
            });
            let timed = (|| {
                let mut framed =
                    Framed::new(connect(&ep, clock, self.opts.connect_timeout_ns).map_err(|e| e.to_string())?);
                let payload = vec![0xA5u8; len];
                let t = clock.now();
                for _ in 0..ROUNDS {
                    framed.send(&payload).map_err(|e| e.to_string())?;
                    let back = framed.recv().map_err(|e| e.to_string())?;
                    if back.as_deref() != Some(payload.as_slice()) {
                        return Err("echo returned a different frame".to_string());
                    }
                }
                Ok(clock.since(t) as f64 / ROUNDS as f64)
                // `framed` drops here: the echo thread reads end-of-stream.
            })();
            let echoed = echo.join().map_err(|_| "echo thread panicked".to_string())?;
            let ns = timed?;
            echoed.map(|()| ns)
        })
    }

    /// Mean nanoseconds of one pull + push of the model over `RemotePs`.
    fn ps_pull_push_over_uds(&self, clock: &Clock) -> Result<f64, String> {
        const ROUNDS: u64 = 200;
        with_workers(
            &self.socket_dir,
            "pp",
            clock,
            |ep| bound(ep, |l| serve_ps_shard(l, ACCEPT_TIMEOUT_NS).map_err(|e| e.to_string())),
            |eps| {
                let remote = self.remote_ps(eps, &self.template, 1)?;
                let grads = vec![1e-3f32; remote.len()];
                let timed = (|| {
                    let t = clock.now();
                    for _ in 0..ROUNDS {
                        std::hint::black_box(remote.pull_with_version(0).map_err(|e| e.to_string())?);
                        remote.push(0, &grads).map_err(|e| e.to_string())?;
                    }
                    Ok::<f64, String>(clock.since(t) as f64 / ROUNDS as f64)
                })();
                remote.shutdown();
                timed
            },
        )
    }
}
