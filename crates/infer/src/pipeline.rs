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
        // agl-lint: allow(no-panic) — self-encoded record failed to decode: engine bug, and no error channel exists here.
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
            // agl-lint: allow(no-panic) — inputs are produced by encode_node_record/encode_edge_record above.
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
    /// GAS mode: fold in-embeddings with the two-level segment fold of
    /// [`crate::combine`] and run the layer's `forward_node_combined`, so
    /// shuffle combiners are exact. Requires `sampling == None` and a model
    /// whose every layer decomposes ([`crate::combine::combine_kinds`]).
    pub(crate) gas: bool,
    /// Reduce-partition count of the running job — the segment space of the
    /// two-level fold. Only read in GAS mode.
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
                // agl-lint: allow(no-panic) — Score is only emitted by the terminal prediction round.
                InferMsg::Score { .. } => panic!("Score re-entered the pipeline"),
                InferMsg::Partial { segment, n, total_w, acc } if self.gas => {
                    partials.push(PartialAgg { segment, n, total_w, acc });
                }
                // agl-lint: allow(no-panic) — only GAS jobs install the combiner that emits partials.
                InferMsg::Partial { .. } => panic!("Partial received by a non-GAS reducer"),
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
            let ModelSlice::Gnn(layer) = &self.slices[round - 1] else {
                // agl-lint: allow(no-panic) — GnnModel::segment() puts exactly one Gnn slice per layer round.
                panic!("slice {round} is not a GNN layer");
            };
            let h_next = if self.gas {
                // ---- GAS merge: the two-level segment fold (see the
                // crate::combine module docs). Raw in-embeddings fold to one
                // partial per producer segment with the exact code the
                // shuffle combiner runs, then locally-folded and received
                // partials merge in ascending segment order — so the result
                // bits never depend on whether, or where, combining
                // happened.
                let Some(kind) = layer.combine_kind() else {
                    // agl-lint: allow(no-panic) — GAS drivers validate combine_kinds() before launching the job.
                    panic!("GAS round {round} reached a non-decomposable layer");
                };
                let mut all = fold_in_embs(kind, self.r_parts, std::mem::take(&mut in_embs));
                all.append(&mut partials);
                let agg = finish(kind, all, h_self.len());
                layer.forward_node_combined(&h_self, &agg)
            } else {
                merge_step(layer, self.sampling, self.seed, key_id(key), &h_self, &mut in_embs)
            };
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
        let ModelSlice::Prediction(head, loss) = &self.slices[self.k] else {
            // agl-lint: allow(no-panic) — GnnModel::segment() always ends with the Prediction slice.
            panic!("last slice is not the prediction model");
        };
        let probs = predict_row(head, *loss, &h);
        self.counters.inc("infer.scores");
        emit(key.to_vec(), InferMsg::Score { probs }.to_bytes());
    }
}

/// One node's layer step of the (non-GAS) GraphInfer merge: sample the
/// in-edge candidates `(src, weight, h)` and run the layer's per-node
/// forward over the kept ones and `self_h`. Sorts `in_embs` in place.
///
/// Consistent sampling with GraphFlat: canonical candidate order (sorted by
/// source id, with weight/payload tie-breaks so parallel edges order
/// identically regardless of delivery order) + a seed derived from the node
/// id only, so with the same seed/strategy this step keeps exactly the
/// neighbor subset GraphFlat kept when building the training data (§3.4's
/// unbiasedness requirement). Any caller that hands it a node's complete
/// in-edge candidate set gets the bits the GraphInfer reducer produces.
pub fn merge_step<H: AsRef<[f32]>>(
    layer: &GnnLayer,
    sampling: SamplingStrategy,
    seed: u64,
    node: u64,
    self_h: &[f32],
    in_embs: &mut [(u64, f32, H)],
) -> Vec<f32> {
    in_embs.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.total_cmp(&b.1))
            .then_with(|| a.2.as_ref().iter().map(|f| f.to_bits()).cmp(b.2.as_ref().iter().map(|f| f.to_bits())))
    });
    let weights: Vec<f32> = in_embs.iter().map(|(_, w, _)| *w).collect();
    let sample_seed = derive_seed(seed, fnv1a(&node.to_le_bytes()));
    let kept = sampling.select(&weights, sample_seed);
    let neighbor_h: Vec<Vec<f32>> = kept.iter().map(|&i| in_embs[i].2.as_ref().to_vec()).collect();
    let kept_w: Vec<f32> = kept.iter().map(|&i| in_embs[i].1).collect();
    let view = NeighborView { self_h, neighbor_h: &neighbor_h, weights: &kept_w };
    layer.forward_node(&view)
}

/// The prediction slice on one node: the head's logits turned into
/// probabilities under `loss` — the score GraphInfer emits for the node.
pub fn predict_row(head: &DenseLayer, loss: Loss, h: &[f32]) -> Vec<f32> {
    let logits = head.forward_row(h);
    loss.probabilities(&agl_tensor::Matrix::from_vec(1, logits.len(), logits)).into_vec()
}

/// One GraphInfer-shaped MapReduce job: the input encoding, the reducer, the
/// engine configuration and the counters every inference entry point shares.
/// [`GraphInfer`] and [`crate::stream::StreamInfer`] differ only in the
/// values they fill in here and in the placement they run it on.
pub(crate) struct InferJob<'a> {
    pub(crate) cfg: &'a InferConfig,
    pub(crate) model: &'a GnnModel,
    pub(crate) nodes: &'a NodeTable,
    pub(crate) edges: &'a EdgeTable,
    /// Name of the driver-track span around the whole run.
    pub(crate) span: &'a str,
    /// Reduce rounds: join + K slices, plus the prediction slice for scores.
    pub(crate) rounds: usize,
    /// Run the GAS merge (see [`InferReducer::gas`]).
    pub(crate) gas: bool,
    /// GAS only: install the shuffle combiner at this degree threshold.
    pub(crate) degree_threshold: Option<usize>,
}

impl InferJob<'_> {
    /// Run the job on `placement`; returns the last round's records and the
    /// counters both the pipeline and the job driver reported into.
    pub(crate) fn run(&self, placement: Placement<'_>) -> Result<(Vec<KeyValue>, Counters), JobError> {
        let engine = &self.cfg.engine;
        let _span = engine.obs.span("driver", self.span);
        let counters = Counters::for_obs(&engine.obs);
        let slices = Arc::new(self.model.segment());
        let r_parts = engine.reduce_tasks;
        let threshold = self.degree_threshold.filter(|_| self.gas);
        let combiner = threshold.and_then(|t| InferCombiner::for_slices(&slices, t, r_parts));

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
            gas: self.gas,
            r_parts,
            counters: counters.clone(),
        };
        let job_cfg = JobConfig {
            map_tasks: engine.map_tasks,
            reduce_tasks: r_parts,
            reduce_rounds: self.rounds,
            parallelism: engine.parallelism,
            fault_plan: self.cfg.fault_plan.clone(),
            spill: self.cfg.spill.clone(),
            obs: engine.obs.clone(),
            ..JobConfig::default()
        };
        // Threshold `0` tells the workers' combiner factory "no combining".
        let worker_threshold = if combiner.is_some() { threshold.unwrap_or(0) as u32 } else { 0 };
        let worker_spec = || InferWorkerSpec::new(self.model, self.cfg, self.gas, worker_threshold).to_bytes();
        let result = MapReduceJob::reporting_into(job_cfg, counters.clone()).run_on(
            placement,
            &inputs,
            &InferMapper,
            &reducer,
            combiner.as_ref().map(|c| c as &dyn ShuffleCombiner),
            &worker_spec,
        )?;
        Ok((result.output, counters))
    }
}

/// Decode a job's final records as one score per node, sorted by node id.
pub(crate) fn decode_scores(output: &[KeyValue]) -> Result<Vec<NodeScore>, JobError> {
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

/// The GraphInfer driver.
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

    /// The classic per-neighbor fold on the thread pool, for `rounds` rounds.
    fn run_rounds(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
        rounds: usize,
    ) -> Result<(Vec<KeyValue>, Counters), JobError> {
        let job = InferJob {
            cfg: &self.cfg,
            model,
            nodes,
            edges,
            span: "graphinfer",
            rounds,
            gas: false,
            degree_threshold: None,
        };
        job.run(Placement::Threads)
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
        let (output, counters) = self.run_rounds(model, nodes, edges, model.n_layers() + 1)?;
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
        // join + K slices + prediction.
        let (output, counters) = self.run_rounds(model, nodes, edges, model.n_layers() + 2)?;
        Ok(InferOutput { scores: decode_scores(&output)?, counters })
    }
}
