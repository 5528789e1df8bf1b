//! The GraphInfer MapReduce pipeline (§3.4).
//!
//! Engine round layout for a K-layer model:
//!
//! | engine round | role                                            |
//! |--------------|-------------------------------------------------|
//! | 0            | join: attach `h⁰ = x` to edges, emit infos       |
//! | 1..=K        | slice k: merge in-embeddings, per-node forward   |
//! | K+1          | prediction slice: final score                    |

use crate::combine::{finish, fold_in_embs, InferCombiner, PartialAgg};
use crate::dist::InferWorkerSpec;
use crate::messages::InferMsg;
use agl_flat::SamplingStrategy;
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_mapreduce::codec::{get_f32, get_f32s, get_u64, get_u8, put_f32, put_f32s, put_u64, put_u8, Codec};
use agl_mapreduce::hash::fnv1a;
use agl_mapreduce::{
    Counters, EngineConfig, FaultPlan, JobConfig, JobError, KeyValue, MapReduceJob, Mapper, Placement, Reducer,
    ShuffleCombiner, SpillMode,
};
use agl_nn::{DenseLayer, GnnLayer, GnnModel, Loss, ModelSlice, NeighborView};
use agl_tensor::rng::derive_seed;
use std::sync::Arc;

/// GraphInfer configuration (`-c infer_configs` of §3.5).
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Sampling, kept consistent with the GraphFlat run that produced the
    /// training data ("unbiased inference", §3.4).
    pub sampling: SamplingStrategy,
    pub spill: SpillMode,
    pub fault_plan: FaultPlan,
    /// Shared engine knobs: task counts, parallelism, the sampling seed
    /// (same role as in GraphFlat), and the observability handle (spans +
    /// shared metrics registry; disabled by default).
    pub engine: EngineConfig,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            sampling: SamplingStrategy::None,
            spill: SpillMode::InMemory,
            fault_plan: FaultPlan::none(),
            engine: EngineConfig::default(),
        }
    }
}

impl InferConfig {
    /// Builder-style seed override (writes `engine.seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Builder-style obs-handle override (writes `engine.obs`).
    pub fn with_obs(mut self, obs: agl_obs::Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Builder-style engine-block override.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// One node's predicted scores.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeScore {
    pub node: NodeId,
    /// Probabilities under the model's loss (softmax rows / sigmoid).
    pub probs: Vec<f32>,
}

/// One node's final-layer embedding (the K-th slice's output, before the
/// prediction model) — what downstream systems consume when AGL is used as
/// an embedding producer rather than an end-to-end classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEmbedding {
    pub node: NodeId,
    pub embedding: Vec<f32>,
}

/// GraphInfer result.
#[derive(Debug)]
pub struct InferOutput {
    /// Scores sorted by node id — one per node of the input table.
    pub scores: Vec<NodeScore>,
    pub counters: Counters,
}

// ---- input records ----

const REC_NODE: u8 = 0;
const REC_EDGE: u8 = 1;

fn encode_node_record(id: NodeId, features: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + 4 * features.len());
    put_u8(&mut buf, REC_NODE);
    put_u64(&mut buf, id.0);
    put_f32s(&mut buf, features);
    buf
}

fn encode_edge_record(src: NodeId, dst: NodeId, weight: f32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21);
    put_u8(&mut buf, REC_EDGE);
    put_u64(&mut buf, src.0);
    put_u64(&mut buf, dst.0);
    put_f32(&mut buf, weight);
    buf
}

/// Decode a record this pipeline itself encoded. The [`Mapper`]/[`Reducer`]
/// contract has no error channel, and a decode failure of self-encoded
/// bytes means an engine invariant broke — aborting the task is the only
/// correct response, and the retry machinery reports it as a task failure.
fn must<T>(r: Result<T, agl_mapreduce::codec::CodecError>, what: &str) -> T {
    match r {
        Ok(v) => v,
        #[expect(
            clippy::panic,
            reason = "self-encoded record failed to decode: engine bug, and no error channel exists here"
        )]
        Err(e) => panic!("corrupt {what}: {e}"),
    }
}

/// Shuffle keys in this pipeline are always the 8-byte little-endian node
/// id (shorter keys decode as zero-padded — unreachable for records this
/// pipeline emitted).
pub(crate) fn key_id(key: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    for (d, s) in b.iter_mut().zip(key) {
        *d = *s;
    }
    u64::from_le_bytes(b)
}

struct InferMapper;

impl Mapper for InferMapper {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let mut r = input;
        match must(get_u8(&mut r), "record tag") {
            REC_NODE => {
                let id = must(get_u64(&mut r), "node id");
                let features = must(get_f32s(&mut r), "features");
                emit(id.to_le_bytes().to_vec(), InferMsg::NodeRow { features }.to_bytes());
            }
            REC_EDGE => {
                let src = must(get_u64(&mut r), "src");
                let dst = must(get_u64(&mut r), "dst");
                let weight = must(get_f32(&mut r), "weight");
                emit(src.to_le_bytes().to_vec(), InferMsg::EdgeBySrc { dst, weight }.to_bytes());
            }
            #[expect(clippy::panic, reason = "inputs are produced by encode_node_record/encode_edge_record above")]
            t => panic!("unknown input record tag {t}"),
        }
    }
}

pub(crate) struct InferReducer {
    pub(crate) slices: Arc<Vec<ModelSlice>>,
    /// K — number of GNN layers.
    pub(crate) k: usize,
    pub(crate) sampling: SamplingStrategy,
    pub(crate) seed: u64,
    /// Reduce-partition count of the running job — the segment space of
    /// [`merge_step`]'s fold.
    pub(crate) r_parts: usize,
    pub(crate) counters: Counters,
}

impl Reducer for InferReducer {
    fn reduce(
        &self,
        round: usize,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let mut node_row: Option<Vec<f32>> = None;
        let mut edges_by_src: Vec<(u64, f32)> = Vec::new();
        let mut self_emb: Option<Vec<f32>> = None;
        let mut in_embs: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        let mut out_edges: Vec<(u64, f32)> = Vec::new();
        let mut final_emb: Option<Vec<f32>> = None;
        let mut partials: Vec<PartialAgg> = Vec::new();
        for v in values {
            match must(InferMsg::from_bytes(v), "infer message") {
                InferMsg::NodeRow { features } => node_row = Some(features),
                InferMsg::EdgeBySrc { dst, weight } => edges_by_src.push((dst, weight)),
                InferMsg::SelfEmb { h } => self_emb = Some(h),
                InferMsg::InEmb { src, weight, h } => in_embs.push((src, weight, h)),
                InferMsg::OutEdge { dst, weight } => out_edges.push((dst, weight)),
                InferMsg::Emb { h } => final_emb = Some(h),
                #[expect(clippy::panic, reason = "Score is only emitted by the terminal prediction round")]
                InferMsg::Score { .. } => panic!("Score re-entered the pipeline"),
                InferMsg::Partial { segment, n, total_w, acc } => {
                    partials.push(PartialAgg { segment, n, total_w, acc })
                }
            }
        }

        if round == 0 {
            // ---- Join: h⁰ = x, fan the features out along out-edges ----
            let Some(x) = node_row else {
                self.counters.add("infer.dangling_edge_sources", edges_by_src.len() as u64);
                return;
            };
            emit(key.to_vec(), InferMsg::SelfEmb { h: x.clone() }.to_bytes());
            for (dst, weight) in edges_by_src {
                emit(dst.to_le_bytes().to_vec(), InferMsg::InEmb { src: key_id(key), weight, h: x.clone() }.to_bytes());
                emit(key.to_vec(), InferMsg::OutEdge { dst, weight }.to_bytes());
            }
            return;
        }

        if round <= self.k {
            // ---- Slice k: merge + per-node layer forward + propagate ----
            let Some(h_self) = self_emb else {
                let dangling = in_embs.len() as u64 + partials.iter().map(|p| u64::from(p.n)).sum::<u64>();
                self.counters.add("infer.dangling_edge_destinations", dangling);
                return;
            };
            #[expect(clippy::panic, reason = "GnnModel::segment() puts exactly one Gnn slice per layer round")]
            let ModelSlice::Gnn(layer) = &self.slices[round - 1] else {
                panic!("slice {round} is not a GNN layer");
            };
            let h_next =
                merge_step(layer, self.sampling, self.seed, self.r_parts, key_id(key), &h_self, &mut in_embs, partials);
            self.counters.inc("infer.embeddings_computed");
            if round < self.k {
                emit(key.to_vec(), InferMsg::SelfEmb { h: h_next.clone() }.to_bytes());
                for (dst, weight) in out_edges {
                    emit(
                        dst.to_le_bytes().to_vec(),
                        InferMsg::InEmb { src: key_id(key), weight, h: h_next.clone() }.to_bytes(),
                    );
                    emit(key.to_vec(), InferMsg::OutEdge { dst, weight }.to_bytes());
                }
            } else {
                // "in the Kth round ... only need to output it rather than
                // all of the three information" (§3.4).
                emit(key.to_vec(), InferMsg::Emb { h: h_next }.to_bytes());
            }
            return;
        }

        // ---- Prediction round ----
        let Some(h) = final_emb else { return };
        #[expect(clippy::panic, reason = "GnnModel::segment() always ends with the Prediction slice")]
        let ModelSlice::Prediction(head, loss) = &self.slices[self.k] else {
            panic!("last slice is not the prediction model");
        };
        let probs = predict_row(head, *loss, &h);
        self.counters.inc("infer.scores");
        emit(key.to_vec(), InferMsg::Score { probs }.to_bytes());
    }
}

/// One node's layer step — the only per-node step of inference. Every
/// driver's reducer and serve's incremental update call it, so all of them
/// produce the same bits.
///
/// **Sampling.** When `sampling` is not `None`, or the layer is an
/// attention layer, the in-edge candidates `(src, weight, h)` are sorted
/// canonically in place (by source id, with weight/payload tie-breaks so
/// parallel edges order identically regardless of delivery order) and
/// sampled with a seed derived from the node id only. With the same
/// seed/strategy this keeps exactly the neighbor subset GraphFlat kept when
/// building the training data (§3.4's unbiasedness requirement).
///
/// **Fold.** A layer whose [`GnnLayer::combine_kind`] is `Some` folds the
/// kept in-edges per producer segment of `r_parts` with
/// [`fold_in_embs`], adds the `partials` a shuffle combiner sent, merges
/// them with [`finish`] and runs `forward_node_combined`. Attention layers
/// run `forward_node` over the kept neighbors and receive no partials.
#[expect(
    clippy::too_many_arguments,
    reason = "the reducer and serve hold these inputs in different shapes; a bundle would be built per call"
)]
pub fn merge_step<H: AsRef<[f32]>>(
    layer: &GnnLayer,
    sampling: SamplingStrategy,
    seed: u64,
    r_parts: usize,
    node: u64,
    self_h: &[f32],
    in_embs: &mut [(u64, f32, H)],
    partials: Vec<PartialAgg>,
) -> Vec<f32> {
    if layer.combine_kind().is_none() {
        assert!(partials.is_empty(), "{} has no combinable aggregation to add partials to", layer.kind_name());
        let kept = sample(sampling, seed, node, in_embs);
        let neighbor_h: Vec<Vec<f32>> = kept.iter().map(|&i| in_embs[i].2.as_ref().to_vec()).collect();
        let kept_w: Vec<f32> = kept.iter().map(|&i| in_embs[i].1).collect();
        return layer.forward_node(&NeighborView { self_h, neighbor_h: &neighbor_h, weights: &kept_w });
    }
    let mut all = if matches!(sampling, SamplingStrategy::None) {
        fold_in_embs(r_parts, in_embs.iter().map(borrowed))
    } else {
        let kept = sample(sampling, seed, node, in_embs);
        fold_in_embs(r_parts, kept.into_iter().map(|i| borrowed(&in_embs[i])))
    };
    all.extend(partials);
    layer.forward_node_combined(self_h, &finish(all, self_h.len()))
}

fn borrowed<H: AsRef<[f32]>>((src, w, h): &(u64, f32, H)) -> (u64, f32, &[f32]) {
    (*src, *w, h.as_ref())
}

/// Sort a node's in-edge candidates canonically and return the indices
/// `sampling` keeps (see [`merge_step`]).
fn sample<H: AsRef<[f32]>>(
    sampling: SamplingStrategy,
    seed: u64,
    node: u64,
    in_embs: &mut [(u64, f32, H)],
) -> Vec<usize> {
    in_embs.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.total_cmp(&b.1))
            .then_with(|| a.2.as_ref().iter().map(|f| f.to_bits()).cmp(b.2.as_ref().iter().map(|f| f.to_bits())))
    });
    let weights: Vec<f32> = in_embs.iter().map(|(_, w, _)| *w).collect();
    sampling.select(&weights, derive_seed(seed, fnv1a(&node.to_le_bytes())))
}

/// The prediction slice on one node: the head's logits turned into
/// probabilities under `loss` — the score GraphInfer emits for the node.
pub fn predict_row(head: &DenseLayer, loss: Loss, h: &[f32]) -> Vec<f32> {
    let logits = head.forward_row(h);
    loss.probabilities(&agl_tensor::Matrix::from_vec(1, logits.len(), logits)).into_vec()
}

/// One GraphInfer-shaped MapReduce job: the input encoding, the reducer, the
/// combiner, the engine configuration and the counters every inference
/// entry point shares. [`GraphInfer`] and [`crate::stream::StreamInfer`]
/// differ only in the span name and the placement they run it on.
pub(crate) struct InferJob<'a> {
    pub(crate) cfg: &'a InferConfig,
    pub(crate) model: &'a GnnModel,
    pub(crate) nodes: &'a NodeTable,
    pub(crate) edges: &'a EdgeTable,
    /// Name of the driver-track span around the whole run.
    pub(crate) span: &'a str,
}

impl InferJob<'_> {
    /// Run join + K slices + the prediction slice on `placement`, and check
    /// the exactly-once invariant on the way out.
    pub(crate) fn scores(&self, placement: Placement<'_>) -> Result<InferOutput, JobError> {
        let remote = matches!(placement, Placement::Remote(_));
        let (output, counters) = self.run(placement, self.model.n_layers() + 2)?;
        if remote {
            // The invariant check and the CLI read the job-wide names.
            counters.fold_worker_counters(&["infer.", "combine."]);
        }
        let scores = decode_scores(&output)?;
        // Re-executed attempts — injected faults, or a worker that died and
        // had its partitions re-run on a survivor — legally re-count side
        // effects.
        let recounted = self.cfg.fault_plan.is_active() || counters.get("task_retries") > 0;
        check_exactly_once(&scores, self.nodes.len(), self.model.n_layers(), &counters, recounted)?;
        Ok(InferOutput { scores, counters })
    }

    /// Run the job's first `rounds` reduce rounds on `placement`; returns
    /// the last round's records and the counters both the pipeline and the
    /// job driver reported into. The combiner is installed at
    /// [`crate::DEFAULT_DEGREE_THRESHOLD`] exactly when sampling is off and
    /// every layer decomposes: partial aggregation folds *every* in-edge.
    pub(crate) fn run(&self, placement: Placement<'_>, rounds: usize) -> Result<(Vec<KeyValue>, Counters), JobError> {
        let slices = Arc::new(self.model.segment());
        let combiner = matches!(self.cfg.sampling, SamplingStrategy::None)
            .then(|| InferCombiner::for_slices(&slices, self.cfg.engine.reduce_tasks))
            .flatten();
        self.run_with(placement, rounds, slices, combiner.as_ref())
    }

    fn run_with(
        &self,
        placement: Placement<'_>,
        rounds: usize,
        slices: Arc<Vec<ModelSlice>>,
        combiner: Option<&InferCombiner>,
    ) -> Result<(Vec<KeyValue>, Counters), JobError> {
        let engine = &self.cfg.engine;
        let _span = engine.obs.span("driver", self.span);
        let counters = Counters::for_obs(&engine.obs);

        let mut inputs = Vec::with_capacity(self.nodes.len() + self.edges.len());
        for (id, feat) in self.nodes.iter() {
            inputs.push(encode_node_record(id, feat));
        }
        for (row, _) in self.edges.iter() {
            inputs.push(encode_edge_record(row.src, row.dst, row.weight));
        }

        let reducer = InferReducer {
            slices,
            k: self.model.n_layers(),
            sampling: self.cfg.sampling,
            seed: engine.seed,
            r_parts: engine.reduce_tasks,
            counters: counters.clone(),
        };
        let job_cfg = JobConfig {
            map_tasks: engine.map_tasks,
            reduce_tasks: engine.reduce_tasks,
            reduce_rounds: rounds,
            parallelism: engine.parallelism,
            fault_plan: self.cfg.fault_plan.clone(),
            spill: self.cfg.spill.clone(),
            obs: engine.obs.clone(),
            ..JobConfig::default()
        };
        let worker_spec = || InferWorkerSpec::new(self.model, self.cfg).to_bytes();
        let result = MapReduceJob::reporting_into(job_cfg, counters.clone()).run_on(
            placement,
            &inputs,
            &InferMapper,
            &reducer,
            combiner.map(|c| c as &dyn ShuffleCombiner),
            &worker_spec,
        )?;
        Ok((result.output, counters))
    }
}

/// Decode a job's final records as one score per node, sorted by node id.
fn decode_scores(output: &[KeyValue]) -> Result<Vec<NodeScore>, JobError> {
    let mut scores = Vec::with_capacity(output.len());
    for kv in output {
        let msg = InferMsg::from_bytes(&kv.value).map_err(|e| JobError::Corrupt(format!("score record: {e}")))?;
        match msg {
            InferMsg::Score { probs } => scores.push(NodeScore { node: NodeId(key_id(&kv.key)), probs }),
            other => return Err(JobError::Corrupt(format!("unexpected output record {other:?}"))),
        }
    }
    scores.sort_by_key(|s| s.node);
    Ok(scores)
}

/// The exactly-once invariant: every input node scored once (no misses, no
/// duplicates), and `infer.embeddings_computed == |V| · K`. The counter leg
/// is skipped when attempts were re-executed, which legally re-count side
/// effects (the scored-once legs still hold — re-executed output is
/// deduplicated by the deterministic shuffle, not by counting).
fn check_exactly_once(
    scores: &[NodeScore],
    n_nodes: usize,
    k: usize,
    counters: &Counters,
    recounted: bool,
) -> Result<(), JobError> {
    for pair in scores.windows(2) {
        if pair[0].node == pair[1].node {
            return Err(JobError::Corrupt(format!("node {} served more than once", pair[0].node.0)));
        }
    }
    if scores.len() != n_nodes {
        return Err(JobError::Corrupt(format!("served {} nodes, expected exactly {n_nodes}", scores.len())));
    }
    let computed = counters.get("infer.embeddings_computed");
    let expected = (n_nodes * k) as u64;
    if !recounted && computed != expected {
        return Err(JobError::Corrupt(format!(
            "embeddings computed {computed} ≠ |V|·K = {expected}: exactly-once violated"
        )));
    }
    Ok(())
}

/// The GraphInfer driver: the inference job on the thread pool.
pub struct GraphInfer {
    cfg: InferConfig,
}

impl GraphInfer {
    pub fn new(cfg: InferConfig) -> Self {
        Self { cfg }
    }

    pub fn config(&self) -> &InferConfig {
        &self.cfg
    }

    fn job<'a>(&'a self, model: &'a GnnModel, nodes: &'a NodeTable, edges: &'a EdgeTable) -> InferJob<'a> {
        InferJob { cfg: &self.cfg, model, nodes, edges, span: "graphinfer" }
    }

    /// Run the pipeline but stop after the K-th slice, returning every
    /// node's final-layer **embedding** instead of a prediction — K+1
    /// reduce rounds instead of K+2 (the prediction slice never loads).
    pub fn run_embeddings(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
    ) -> Result<(Vec<NodeEmbedding>, Counters), JobError> {
        let (output, counters) = self.job(model, nodes, edges).run(Placement::Threads, model.n_layers() + 1)?;
        let mut embeddings = Vec::with_capacity(output.len());
        for kv in &output {
            let msg =
                InferMsg::from_bytes(&kv.value).map_err(|e| JobError::Corrupt(format!("embedding record: {e}")))?;
            match msg {
                InferMsg::Emb { h } => {
                    embeddings.push(NodeEmbedding { node: NodeId(key_id(&kv.key)), embedding: h });
                }
                other => return Err(JobError::Corrupt(format!("unexpected output record {other:?}"))),
            }
        }
        embeddings.sort_by_key(|e| e.node);
        Ok((embeddings, counters))
    }

    /// Run inference for every node of the tables with a trained model.
    pub fn run(&self, model: &GnnModel, nodes: &NodeTable, edges: &EdgeTable) -> Result<InferOutput, JobError> {
        self.job(model, nodes, edges).scores(Placement::Threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine_kinds;
    use agl_nn::{ModelConfig, ModelKind};
    use agl_tensor::{seeded_rng, Matrix, Rng};

    /// `n` nodes with random out-edges, plus an edge from every node into
    /// the hub node 0.
    fn hub_tables(n: u64, seed: u64) -> (NodeTable, EdgeTable) {
        let mut rng = seeded_rng(seed);
        let feats = Matrix::from_vec(n as usize, 4, (0..4 * n).map(|_| rng.gen_range(-1.0..1.0f32)).collect());
        let mut pairs: Vec<(u64, u64)> = (1..n).map(|src| (src, 0)).collect();
        pairs.extend((0..3 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(1..n))).filter(|(s, d)| s != d));
        pairs.sort_unstable();
        pairs.dedup();
        (NodeTable::new((0..n).map(NodeId).collect(), feats, None), EdgeTable::from_pairs(pairs))
    }

    /// Combining only moves *where* a segment is folded: one job run with
    /// no combiner, with a combiner that folds every group, and with the
    /// default one returns the same bits.
    #[test]
    fn combiner_never_moves_a_bit() {
        let (nodes, edges) = hub_tables(60, 3);
        let cfg = InferConfig::default();
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gin] {
            for k in [1usize, 2] {
                let model = GnnModel::new(ModelConfig::new(kind, 4, 6, 2, k, Loss::SoftmaxCrossEntropy).with_seed(9));
                let job = InferJob { cfg: &cfg, model: &model, nodes: &nodes, edges: &edges, span: "test" };
                let slices = Arc::new(model.segment());
                let kinds = combine_kinds(&slices).unwrap();
                let eager = InferCombiner::new(kinds, 1, cfg.engine.reduce_tasks);
                let run = |combiner: Option<&InferCombiner>| {
                    job.run_with(Placement::Threads, k + 2, slices.clone(), combiner).unwrap()
                };
                let (plain, plain_counters) = run(None);
                let (folded, folded_counters) = run(Some(&eager));
                let (default, default_counters) = job.run(Placement::Threads, k + 2).unwrap();
                let case = format!("{kind:?} K={k}");
                assert_eq!(plain_counters.get("combine.records_in"), 0, "{case}");
                assert!(folded_counters.get("combine.bytes_saved") > 0, "{case}: the eager combiner folded");
                assert!(default_counters.get("combine.bytes_saved") > 0, "{case}: the default combiner folded the hub");
                assert_eq!(plain, folded, "{case}: eager combiner moved bits");
                assert_eq!(plain, default, "{case}: default combiner moved bits");
            }
        }
    }
}
