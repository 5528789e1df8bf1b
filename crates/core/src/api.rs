//! The high-level job API (paper §3.5).

use agl_flat::{FlatConfig, FlatOutput, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::{EdgeTable, NodeTable};
use agl_infer::{GraphInfer, InferConfig, InferOutput, StreamInfer};
use agl_mapreduce::{DistOptions, Endpoint, EngineConfig, JobError};
use agl_nn::GnnModel;
use agl_trainer::metrics::Metrics;
use agl_trainer::{Consistency, DistTrainer, LocalTrainer, TrainOptions};

/// Builder for GraphFlat / GraphInfer / GraphTrainer / serving runs with
/// shared knobs — the command-line surface of §3.5 as a typed API.
///
/// The shared execution knobs live in exactly one [`EngineConfig`]:
/// [`seed`](Self::seed), [`obs`](Self::obs) and [`engine`](Self::engine)
/// write it once, and the per-stage accessors overlay it onto the stage
/// configs when a stage actually runs. Stage-specific knobs
/// ([`hops`](Self::hops), [`train_options`](Self::train_options), ...) and
/// the shared ones may therefore be chained in any order.
#[derive(Debug, Clone, Default)]
pub struct AglJob {
    engine: EngineConfig,
    flat: FlatConfig,
    infer: InferConfig,
    train: TrainOptions,
    /// Set by [`consistency`](Self::consistency); overlays
    /// `train.consistency` so it survives a later
    /// [`train_options`](Self::train_options) (merge, not clobber).
    consistency: Option<Consistency>,
    serve: agl_serve::ServeConfig,
}

impl AglJob {
    pub fn new() -> Self {
        Self::default()
    }

    /// `-h hops`: neighborhood depth K.
    pub fn hops(mut self, k: usize) -> Self {
        self.flat.k_hops = k;
        self
    }

    /// `-s sampling_strategy`, applied to both GraphFlat and GraphInfer so
    /// inference stays consistent with training data (§3.4).
    pub fn sampling(mut self, s: SamplingStrategy) -> Self {
        self.flat.sampling = s;
        self.infer.sampling = s;
        self
    }

    /// Hub re-indexing threshold + fanout (§3.2.2).
    pub fn reindex(mut self, threshold: usize, fanout: u32) -> Self {
        self.flat.hub_threshold = threshold;
        self.flat.reindex_fanout = fanout;
        self
    }

    /// Seed for everything sampled or shuffled under this job — written to
    /// the shared [`EngineConfig`] exactly once.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Engine sizing (map tasks, reduce tasks, thread parallelism) —
    /// written to the shared [`EngineConfig`] exactly once.
    pub fn engine(mut self, map_tasks: usize, reduce_tasks: usize, parallelism: usize) -> Self {
        self.engine.map_tasks = map_tasks;
        self.engine.reduce_tasks = reduce_tasks;
        self.engine.parallelism = parallelism;
        self
    }

    /// Worker-coordination mode for distributed training: `Sync`, `Async`,
    /// or `Ssp { slack }` — the one place a job picks it. Survives a later
    /// [`train_options`](Self::train_options) call (order-independent).
    pub fn consistency(mut self, c: Consistency) -> Self {
        self.consistency = Some(c);
        self
    }

    /// Training hyper-parameters (batch size, epochs, lr, ablation axes).
    /// Merges with the shared knobs instead of clobbering them: an earlier
    /// [`consistency`](Self::consistency), [`seed`](Self::seed) or
    /// [`obs`](Self::obs) still applies.
    pub fn train_options(mut self, opts: TrainOptions) -> Self {
        self.train = opts;
        self
    }

    /// Serving configuration (shard count, top-k defaults, load-generator
    /// shape) — the read path joins the same builder.
    pub fn serve(mut self, cfg: agl_serve::ServeConfig) -> Self {
        self.serve = cfg;
        self
    }

    /// Attach one observability handle to every stage this job runs:
    /// GraphFlat, GraphInfer, the trainer (parameter server included) and
    /// the serving store — written to the shared [`EngineConfig`] exactly
    /// once. Spans land in the handle's trace sink, counters in its metrics
    /// registry. May be chained in any order with the other setters.
    pub fn obs(mut self, obs: agl_obs::Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// The full training configuration: the chained options with the
    /// job-wide engine knobs (and any explicit consistency) overlaid.
    pub fn train_config(&self) -> TrainOptions {
        let mut t = self.train.clone().with_engine(self.engine.clone());
        if let Some(c) = self.consistency {
            t.consistency = c;
        }
        t
    }

    /// The full GraphFlat configuration (job-wide engine knobs overlaid).
    pub fn flat_config(&self) -> FlatConfig {
        self.flat.clone().with_engine(self.engine.clone())
    }

    /// The full GraphInfer configuration (job-wide engine knobs overlaid).
    pub fn infer_config(&self) -> InferConfig {
        self.infer.clone().with_engine(self.engine.clone())
    }

    /// The full serving configuration (job-wide engine knobs overlaid).
    pub fn serve_config(&self) -> agl_serve::ServeConfig {
        self.serve.clone().with_engine(self.engine.clone())
    }

    /// **GraphFlat**: generate `<TargetedNodeId, Label, GraphFeature>`
    /// triples (§3.2).
    pub fn graph_flat(
        &self,
        nodes: &NodeTable,
        edges: &EdgeTable,
        targets: &TargetSpec,
    ) -> Result<FlatOutput, JobError> {
        GraphFlat::new(self.flat_config()).run(nodes, edges, targets)
    }

    /// **GraphInfer**: score every node with a trained model via the
    /// K+1-slice MapReduce pipeline (§3.4).
    pub fn graph_infer(&self, model: &GnnModel, nodes: &NodeTable, edges: &EdgeTable) -> Result<InferOutput, JobError> {
        GraphInfer::new(self.infer_config()).run(model, nodes, edges)
    }

    /// The [`StreamInfer`] driver under this job's configuration — the
    /// entry point behind [`graph_infer_stream`](Self::graph_infer_stream)
    /// and the `agl-cli infer-stream` subcommand.
    pub fn stream_infer(&self) -> StreamInfer {
        StreamInfer::new(self.infer_config())
    }

    /// **Streaming GraphInfer**: the scores of
    /// [`graph_infer`](Self::graph_infer), bit for bit, from the same job
    /// run in bounded memory (one shuffle partition resident at a time).
    pub fn graph_infer_stream(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
    ) -> Result<InferOutput, JobError> {
        self.stream_infer().run(model, nodes, edges)
    }

    /// Streaming GraphInfer with the reduce work farmed out to shuffle
    /// worker processes (each running
    /// `agl_mapreduce::serve_shuffle_combining` with the
    /// `agl_infer::dist` factories). Bit-identical to
    /// [`graph_infer_stream`](Self::graph_infer_stream).
    pub fn graph_infer_stream_distributed(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
        endpoints: &[Endpoint],
        opts: &DistOptions,
    ) -> Result<InferOutput, JobError> {
        self.stream_infer().run_distributed(model, nodes, edges, endpoints, opts)
    }

    /// **GraphTrainer**, distributed: data-parallel workers against an
    /// in-process parameter server under this job's training options —
    /// including the [`consistency`](Self::consistency) mode.
    pub fn train_distributed(
        &self,
        model: &mut GnnModel,
        train: &[agl_flat::TrainingExample],
        val: Option<&[agl_flat::TrainingExample]>,
        n_workers: usize,
    ) -> agl_trainer::DistTrainResult {
        DistTrainer::new(n_workers, self.train_config()).train(model, train, val)
    }

    /// **Serving**: build the sharded read-path store from a GraphInfer
    /// output under this job's serve configuration.
    pub fn build_serving(&self, output: &InferOutput) -> agl_serve::EmbeddingStore {
        agl_serve::EmbeddingStore::build(output, &self.serve_config())
    }
}

/// **GraphTrainer** in one call: train on triples, evaluate on a held-out
/// triple set, return the validation metrics (§3.3).
pub fn train_and_evaluate(
    model: &mut GnnModel,
    train: &[agl_flat::TrainingExample],
    eval: &[agl_flat::TrainingExample],
    opts: &TrainOptions,
) -> Metrics {
    LocalTrainer::new(opts.clone()).train(model, train);
    LocalTrainer::evaluate(model, eval, opts)
}

/// Distributed **GraphTrainer**: data-parallel workers against an
/// in-process parameter server (`-t train_strategy -c dist_configs`). The
/// coordination mode is `opts.consistency`.
pub fn train_distributed(
    model: &mut GnnModel,
    train: &[agl_flat::TrainingExample],
    val: Option<&[agl_flat::TrainingExample]>,
    n_workers: usize,
    opts: &TrainOptions,
) -> agl_trainer::DistTrainResult {
    DistTrainer::new(n_workers, opts.clone()).train(model, train, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_graph::NodeId;
    use agl_nn::{Loss, ModelConfig, ModelKind};
    use agl_tensor::Matrix;

    fn toy() -> (NodeTable, EdgeTable) {
        let n = 20u64;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut feats = Matrix::zeros(n as usize, 2);
        let mut labels = Matrix::zeros(n as usize, 2);
        for i in 0..n as usize {
            let c = i % 2;
            labels[(i, c)] = 1.0;
            feats[(i, 0)] = if c == 0 { 1.0 } else { -1.0 };
            feats[(i, 1)] = 0.1;
        }
        let nodes = NodeTable::new(ids, feats, Some(labels));
        let edges = EdgeTable::from_pairs((0..n - 2).map(|i| (i, i + 2)));
        (nodes, edges)
    }

    #[test]
    fn end_to_end_flat_train_infer() {
        let (nodes, edges) = toy();
        let job = AglJob::new().hops(2).seed(5);
        let flat = job.graph_flat(&nodes, &edges, &TargetSpec::All).unwrap();
        assert_eq!(flat.examples.len(), 20);

        let mut model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 8, 2, 2, Loss::SoftmaxCrossEntropy));
        let opts = TrainOptions { epochs: 15, lr: 0.05, ..TrainOptions::default() };
        let metrics = train_and_evaluate(&mut model, &flat.examples, &flat.examples, &opts);
        assert!(metrics.accuracy.unwrap() > 0.9, "{:?}", metrics.accuracy);

        let scores = job.graph_infer(&model, &nodes, &edges).unwrap();
        assert_eq!(scores.scores.len(), 20);
    }

    #[test]
    fn builder_knobs_propagate() {
        let job = AglJob::new()
            .hops(3)
            .sampling(SamplingStrategy::TopK { max_degree: 7 })
            .reindex(100, 8)
            .engine(2, 3, 5)
            .seed(9)
            .consistency(Consistency::Ssp { slack: 4 });
        assert_eq!(job.flat_config().k_hops, 3);
        assert_eq!(job.flat_config().hub_threshold, 100);
        assert_eq!(job.flat_config().reindex_fanout, 8);
        assert_eq!(job.flat_config().engine.reduce_tasks, 3);
        assert_eq!(job.infer_config().engine.parallelism, 5);
        assert_eq!(job.infer_config().sampling, SamplingStrategy::TopK { max_degree: 7 });
        assert_eq!(job.infer_config().engine.seed, 9);
        assert_eq!(job.train_config().consistency, Consistency::Ssp { slack: 4 });
        // The one shared EngineConfig reaches every stage, training and
        // serving included.
        assert_eq!(job.train_config().engine.seed, 9);
        assert_eq!(job.serve_config().engine.seed, 9);
        assert_eq!(job.serve_config().engine.map_tasks, 2);
        // Defaults elsewhere stay intact.
        assert_eq!(job.train_config().batch_size, TrainOptions::default().batch_size);
    }

    /// Regression: `train_options(...)` used to clobber a previously
    /// chained `consistency(...)` ("explicit options win wholesale").
    /// The builder now merges — chain order must not matter.
    #[test]
    fn consistency_survives_train_options_in_either_order() {
        let opts = TrainOptions { epochs: 3, batch_size: 5, ..TrainOptions::default() };
        let a = AglJob::new().consistency(Consistency::Ssp { slack: 2 }).train_options(opts.clone());
        let b = AglJob::new().train_options(opts).consistency(Consistency::Ssp { slack: 2 });
        for job in [&a, &b] {
            let t = job.train_config();
            assert_eq!(t.consistency, Consistency::Ssp { slack: 2 });
            assert_eq!((t.epochs, t.batch_size), (3, 5));
        }
        // Same for the other shared knobs: obs and seed survive a later
        // train_options(...) because they live on the job's EngineConfig.
        let obs = agl_obs::Obs::enabled_logical();
        let job = AglJob::new()
            .obs(obs.clone())
            .seed(77)
            .train_options(TrainOptions { epochs: 2, ..TrainOptions::default() });
        assert!(job.train_config().engine.obs.is_enabled());
        assert_eq!(job.train_config().engine.seed, 77);
    }

    #[test]
    fn serving_joins_the_builder() {
        let (nodes, edges) = toy();
        let job = AglJob::new().hops(1).seed(3).serve(agl_serve::ServeConfig::default().with_shards(2));
        let mut model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 4, 2, 1, Loss::SoftmaxCrossEntropy));
        let flat = job.graph_flat(&nodes, &edges, &TargetSpec::All).unwrap();
        let opts = TrainOptions { epochs: 2, ..TrainOptions::default() };
        train_and_evaluate(&mut model, &flat.examples, &flat.examples, &opts);
        let output = job.graph_infer(&model, &nodes, &edges).unwrap();
        let store = job.build_serving(&output);
        assert_eq!(store.n_shards(), 2);
        assert_eq!(store.len(), 20);
        let emb = store.get(agl_graph::NodeId(0)).unwrap();
        assert_eq!(emb.len(), 2, "stored vector is the score vector");
        assert_eq!(store.topk(&[1.0, 0.0], 3).len(), 3);
    }

    #[test]
    fn obs_handle_reaches_all_three_stages() {
        let (nodes, edges) = toy();
        let obs = agl_obs::Obs::enabled_logical();
        let job = AglJob::new().hops(2).seed(5).obs(obs.clone());

        let flat = job.graph_flat(&nodes, &edges, &TargetSpec::All).unwrap();
        let mut model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 8, 2, 2, Loss::SoftmaxCrossEntropy));
        let r = job.train_distributed(&mut model, &flat.examples, None, 2);
        assert_eq!(r.val_curve.len(), 0);
        job.graph_infer(&model, &nodes, &edges).unwrap();

        let trace = obs.trace().unwrap();
        let spans = trace.events();
        let has = |n: &str| spans.iter().any(|s| s.name == n);
        assert!(has("graphflat") && has("mapreduce.round0"), "GraphFlat rounds traced");
        assert!(has("train.epoch"), "trainer epochs traced");
        assert!(has("ps.pull") && has("ps.apply"), "PS traffic traced");
        assert!(has("graphinfer"), "GraphInfer traced");
        let m = obs.metrics().unwrap().to_json();
        assert!(m.contains("\"trainer.epochs\":"), "{m}");
        assert!(m.contains("\"ps.pushes\":"), "{m}");
    }

    #[test]
    fn job_trains_distributed_under_ssp() {
        let (nodes, edges) = toy();
        let job =
            AglJob::new().hops(2).seed(5).consistency(Consistency::Ssp { slack: 2 }).train_options(TrainOptions {
                epochs: 6,
                lr: 0.05,
                batch_size: 10,
                consistency: Consistency::Ssp { slack: 2 },
                ..TrainOptions::default()
            });
        let flat = job.graph_flat(&nodes, &edges, &TargetSpec::All).unwrap();
        let mut model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 8, 2, 2, Loss::SoftmaxCrossEntropy));
        let r = job.train_distributed(&mut model, &flat.examples, Some(&flat.examples), 2);
        assert!(r.max_staleness <= 2, "SSP bound through the job API: {}", r.max_staleness);
        assert_eq!(r.val_curve.len(), 6);
    }
}
