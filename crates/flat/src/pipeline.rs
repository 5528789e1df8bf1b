//! The GraphFlat driver: Map + (K+1)-round Reduce over the MapReduce
//! substrate, producing `<TargetedNodeId, Label, GraphFeature>` triples.
//!
//! Round structure (engine round index in parentheses):
//!
//! * **Join (0)** — attach each node's features to its out-edge rows and
//!   emit the initial self / in-edge information. The paper presents Map
//!   as already emitting in-edge info carrying *"the neighbor node"*'s
//!   features; a single-record Map cannot know them, so the join that
//!   industrial pipelines run beforehand is folded in here as the first
//!   Reduce round. When K ≥ 2 the join round also settles the sample: Map
//!   sends every edge whose source is in the node table to its
//!   destination's group as a payload-free [`FlatMsg::Stub`], the
//!   destination runs §3.2.2's selection over them exactly as round 1 will,
//!   and sends one [`FlatMsg::OutEdge`] per kept source back to that
//!   source's group. Destinations missing from the node table keep nothing.
//! * **Merge & propagate (1..=K)** — per §3.2.1: merge self + in-edge info
//!   into the new self info (one more hop of neighborhood) and propagate it
//!   along the kept out-edges, once per kept destination, so rounds 2..=K
//!   receive only payloads they merge. Out-edge info is re-emitted as state
//!   only while a later round propagates again.
//! * **Storing** — round K emits targeted nodes' GraphFeatures; the driver
//!   unions the partial results of re-indexed hub targets (the tail end of
//!   inverted indexing) and returns the triples.
//!
//! Drawing the sample once is exact because sampling is node-consistent:
//! every round sees the same canonical candidate list and derives the same
//! seed from the node id, so it would keep the same in-edges anyway.

use crate::builder::SubgraphBuilder;
use crate::graphfeature::{decode_graph_feature, encode_graph_feature};
use crate::messages::{FlatKey, FlatMsg};
use crate::sampling::SamplingStrategy;
use agl_graph::idhash::IdSet;
use agl_graph::{EdgeTable, NodeId, NodeTable, Subgraph};
use agl_mapreduce::codec::{get_f32, get_f32s, get_u64, get_u8, put_f32, put_f32s, put_u64, put_u8, Codec};
use agl_mapreduce::hash::fnv1a;
use agl_mapreduce::{
    Counters, DistOptions, Endpoint, EngineConfig, FaultPlan, JobConfig, JobError, KeyValue, MapReduceJob, Mapper,
    Placement, Reducer, RemoteWorkers, SpillMode,
};
use agl_tensor::rng::derive_seed;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// GraphFlat configuration — the `-h hops -s sampling_strategy` knobs of the
/// §3.5 command line, plus engine sizing.
#[derive(Debug, Clone)]
pub struct FlatConfig {
    /// K — neighborhood depth (= GNN layers the features must support).
    pub k_hops: usize,
    /// In-edge sampling per reduce group per round.
    pub sampling: SamplingStrategy,
    /// In-degree above which a shuffle key is re-indexed (§3.2.2; the paper
    /// suggests "like 10k"). `usize::MAX` disables re-indexing.
    pub hub_threshold: usize,
    /// Number of sub-keys a hub key is split into.
    pub reindex_fanout: u32,
    pub spill: SpillMode,
    pub fault_plan: FaultPlan,
    /// Shared engine knobs: task counts, parallelism, the sampling seed,
    /// and the observability handle (spans for the driver phases and the
    /// engine's per-round/per-task spans underneath, counters into the
    /// shared registry — disabled by default).
    pub engine: EngineConfig,
}

impl Default for FlatConfig {
    fn default() -> Self {
        Self {
            k_hops: 2,
            sampling: SamplingStrategy::None,
            hub_threshold: usize::MAX,
            reindex_fanout: 4,
            spill: SpillMode::InMemory,
            fault_plan: FaultPlan::none(),
            engine: EngineConfig::default(),
        }
    }
}

impl FlatConfig {
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

/// Which nodes get a GraphFeature.
#[derive(Debug, Clone)]
pub enum TargetSpec {
    /// Every node in the node table (inference over the whole graph).
    All,
    /// An explicit id list (the labeled training/validation/test nodes —
    /// the paper's observation that "the amount of labeled nodes is
    /// limited" is what makes storing their GraphFeatures cheap).
    Ids(Vec<NodeId>),
}

/// One training triple `<TargetedNodeId, Label, GraphFeature>` (§3.3.1).
#[derive(Debug, Clone)]
pub struct TrainingExample {
    pub target: NodeId,
    pub label: Vec<f32>,
    /// Flattened k-hop neighborhood (decode with
    /// [`crate::graphfeature::decode_graph_feature`]).
    pub graph_feature: Vec<u8>,
}

/// GraphFlat result.
#[derive(Debug)]
pub struct FlatOutput {
    /// Triples sorted by target id.
    pub examples: Vec<TrainingExample>,
    /// Engine + pipeline counters.
    pub counters: Counters,
}

/// The GraphFlat pipeline (see crate docs).
#[derive(Debug, Clone)]
pub struct GraphFlat {
    cfg: FlatConfig,
}

// ---- input record encoding (what "sits in the warehouse tables") ----

const REC_NODE: u8 = 0;
const REC_EDGE: u8 = 1;

fn encode_node_record(id: NodeId, features: &[f32], is_target: bool, label: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + 4 * (features.len() + label.len()));
    put_u8(&mut buf, REC_NODE);
    put_u64(&mut buf, id.0);
    put_f32s(&mut buf, features);
    put_u8(&mut buf, u8::from(is_target));
    put_f32s(&mut buf, label);
    buf
}

/// `stub` asks Map to also send the edge to its destination's group as a
/// [`FlatMsg::Stub`] for the join round's sampling.
fn encode_edge_record(src: NodeId, dst: NodeId, weight: f32, efeat: &[f32], stub: bool) -> Vec<u8> {
    let mut buf = Vec::with_capacity(22 + 4 * efeat.len());
    put_u8(&mut buf, REC_EDGE);
    put_u64(&mut buf, src.0);
    put_u64(&mut buf, dst.0);
    put_f32(&mut buf, weight);
    put_f32s(&mut buf, efeat);
    put_u8(&mut buf, u8::from(stub));
    buf
}

/// Sort in-edge records into the canonical candidate order the sampling
/// framework selects from: by source id, with full tie-breaks so parallel
/// edges from one source order the same way no matter how the shuffle
/// delivered them. Records equal on all three fields are interchangeable.
fn sort_candidates<T>(records: &mut [T], edge: impl Fn(&T) -> (u64, f32, &[f32])) {
    records.sort_by(|a, b| {
        let ((sa, wa, fa), (sb, wb, fb)) = (edge(a), edge(b));
        sa.cmp(&sb)
            .then_with(|| wa.total_cmp(&wb))
            .then_with(|| fa.iter().map(|f| f.to_bits()).cmp(fb.iter().map(|f| f.to_bits())))
    });
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

/// Shared routing state: which keys are hubs, and the re-index fanout.
#[derive(Debug)]
struct Routing {
    hubs: HashSet<u64>,
    fanout: u32,
}

impl Routing {
    /// Key for a message *about* `member` heading to node `id`.
    fn key_for(&self, id: u64, member: u64) -> FlatKey {
        if self.hubs.contains(&id) {
            FlatKey::reindexed(id, member, self.fanout)
        } else {
            FlatKey::plain(id)
        }
    }

    /// All suffix groups of `id` (one for non-hubs).
    fn all_groups(&self, id: u64) -> Vec<FlatKey> {
        if self.hubs.contains(&id) {
            (0..self.fanout).map(|s| FlatKey { id, suffix: s }).collect()
        } else {
            vec![FlatKey::plain(id)]
        }
    }
}

struct FlatMapper {
    routing: Arc<Routing>,
}

impl Mapper for FlatMapper {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let mut r = input;
        match must(get_u8(&mut r), "record tag") {
            REC_NODE => {
                let id = must(get_u64(&mut r), "node id");
                let features = must(get_f32s(&mut r), "node features");
                let is_target = must(get_u8(&mut r), "target flag") != 0;
                let label = must(get_f32s(&mut r), "node label");
                let msg = FlatMsg::NodeRow { features, is_target, label }.to_bytes();
                // Replicate to every suffix group so each re-indexed piece
                // of a hub key has the node's own information.
                for key in self.routing.all_groups(id) {
                    emit(key.to_bytes(), msg.clone());
                }
            }
            REC_EDGE => {
                let src = must(get_u64(&mut r), "edge src");
                let dst = must(get_u64(&mut r), "edge dst");
                let weight = must(get_f32(&mut r), "edge weight");
                let efeat = must(get_f32s(&mut r), "edge features");
                let stub = must(get_u8(&mut r), "stub flag") != 0;
                if stub {
                    // To the destination group that will sample over it.
                    let key = self.routing.key_for(dst, src);
                    emit(key.to_bytes(), FlatMsg::encode_stub(src, weight, &efeat));
                }
                // Keyed by source for the join round; spread over the
                // source's groups by destination.
                let key = self.routing.key_for(src, dst);
                emit(key.to_bytes(), FlatMsg::EdgeBySrc { dst, weight, efeat }.to_bytes());
            }
            // agl-lint: allow(no-panic) — inputs are produced by encode_node_record/encode_edge_record above.
            t => panic!("unknown input record tag {t}"),
        }
    }
}

struct FlatReducer {
    routing: Arc<Routing>,
    k_hops: usize,
    sampling: SamplingStrategy,
    seed: u64,
    counters: Counters,
}

impl FlatReducer {
    /// The seed of node `id`'s in-edge sample: the same in every round.
    fn sample_seed(&self, id: u64) -> u64 {
        derive_seed(self.seed, fnv1a(&id.to_le_bytes()))
    }

    /// Leaf subgraph: just the node itself (the 0-hop neighborhood).
    fn leaf(id: u64, features: &[f32]) -> Vec<u8> {
        let sub = Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(id)],
            features: agl_tensor::Matrix::from_vec(1, features.len(), features.to_vec()),
            edges: vec![],
            edge_features: None,
        };
        encode_graph_feature(&sub)
    }
}

impl Reducer for FlatReducer {
    fn reduce(
        &self,
        round: usize,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let k = must(FlatKey::from_bytes(key), "flat key");
        // Bucket the group's messages by kind.
        let mut node_row: Option<(Vec<f32>, bool, Vec<f32>)> = None;
        let mut edges_by_src: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        let mut selfs: Vec<(Vec<u8>, bool, Vec<f32>)> = Vec::new();
        let mut in_edges: Vec<(u64, f32, Vec<f32>, Vec<u8>)> = Vec::new();
        let mut stubs: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        // The kept out-edges to propagate along, as the join round's
        // destinations sent them.
        let mut out_edges: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        for v in values {
            match must(FlatMsg::from_bytes(v), "flat message") {
                FlatMsg::NodeRow { features, is_target, label } => {
                    node_row.get_or_insert((features, is_target, label));
                }
                FlatMsg::EdgeBySrc { dst, weight, efeat } => edges_by_src.push((dst, weight, efeat)),
                FlatMsg::SelfInfo { sub, is_target, label } => selfs.push((sub, is_target, label)),
                FlatMsg::InEdge { src, weight, efeat, sub } => in_edges.push((src, weight, efeat, sub)),
                FlatMsg::OutEdge { dst, weight, efeat } => out_edges.push((dst, weight, efeat)),
                FlatMsg::Stub { src, weight, efeat } => stubs.push((src, weight, efeat)),
                // agl-lint: allow(no-panic) — Final is only emitted under a plain key in the last round.
                FlatMsg::Final { .. } => panic!("Final record re-entered the pipeline"),
            }
        }

        if round == 0 {
            // ---- Join round ----
            let Some((features, is_target, label)) = node_row else {
                // Edges whose source never appeared in the node table. Stubs
                // addressed here have no node to merge them: nothing is kept.
                self.counters.add("flat.dangling_edge_sources", edges_by_src.len() as u64);
                return;
            };
            let leaf = Self::leaf(k.id, &features);
            if self.k_hops == 0 {
                if is_target {
                    emit(FlatKey::plain(k.id).to_bytes(), FlatMsg::Final { sub: leaf, label }.to_bytes());
                }
                return;
            }
            emit(key.to_vec(), FlatMsg::encode_self_info(&leaf, is_target, &label));
            // Settle this group's sample now: the stubs are exactly round
            // 1's candidates, so the same order and seed keep the same
            // edges. Each kept source gets one out-edge, its first kept
            // parallel edge, the only one the merge's edge union records.
            sort_candidates(&mut stubs, |(src, w, ef)| (*src, *w, ef));
            let weights: Vec<f32> = stubs.iter().map(|(_, w, _)| *w).collect();
            let mut last_src = None;
            for i in self.sampling.select(&weights, self.sample_seed(k.id)) {
                let (src, weight, efeat) = &stubs[i];
                if last_src != Some(*src) {
                    last_src = Some(*src);
                    emit(self.routing.key_for(*src, k.id).to_bytes(), FlatMsg::encode_out_edge(k.id, *weight, efeat));
                }
            }
            for (dst, weight, efeat) in &edges_by_src {
                let in_key = self.routing.key_for(*dst, k.id);
                emit(in_key.to_bytes(), FlatMsg::encode_in_edge(k.id, *weight, efeat, &leaf));
            }
            return;
        }

        // ---- Merge & propagate round (1..=K) ----
        if selfs.is_empty() {
            // In-edge info addressed to a node missing from the node table,
            // counted once: the first merge round sees every such edge.
            if round == 1 {
                self.counters.add("flat.dangling_edge_destinations", in_edges.len() as u64);
            }
            return;
        }
        let is_target = selfs.iter().any(|(_, t, _)| *t);
        let label = selfs.iter().map(|(_, _, l)| l).find(|l| !l.is_empty()).cloned().unwrap_or_default();
        // Load-balance observability: the largest in-edge group any reducer
        // had to merge this job — re-indexing exists to shrink this.
        self.counters.record_max("flat.max_group_in_edges", in_edges.len() as u64);

        // Sampling framework: cap this group's in-edge records. The
        // candidate list is canonicalised and the seed depends only on the
        // node, so every round — and later GraphInfer — selects the *same*
        // neighbor subset: the property behind §3.4's "unbiased inference
        // with the model trained based on GraphFlat". Round 1 sees every
        // candidate and keeps what the join round kept; later rounds
        // receive only kept sources, at most the cap, and keep them all, so
        // `flat.sampled_out_in_edges` counts each dropped in-edge once. A
        // source's parallel in-edges carry one payload, so equal records
        // are interchangeable.
        sort_candidates(&mut in_edges, |(src, w, ef, _)| (*src, *w, ef));
        let weights: Vec<f32> = in_edges.iter().map(|(_, w, _, _)| *w).collect();
        let kept = self.sampling.select(&weights, self.sample_seed(k.id));
        if kept.len() < in_edges.len() {
            self.counters.add("flat.sampled_out_in_edges", (in_edges.len() - kept.len()) as u64);
        }

        // Merge: self infos ∪ sampled in-edge payloads + their edges.
        let mut builder = SubgraphBuilder::new();
        for (sub, _, _) in &selfs {
            builder.absorb(&must(decode_graph_feature(sub), "self subgraph"));
        }
        for &i in &kept {
            let (src, weight, efeat, sub) = &in_edges[i];
            builder.absorb(&must(decode_graph_feature(sub), "in-edge payload"));
            let ef = (!efeat.is_empty()).then_some(efeat.as_slice());
            builder.add_edge(NodeId(*src), NodeId(k.id), *weight, ef);
        }
        let merged = builder.build(&[NodeId(k.id)]);
        self.counters.add("flat.merged_nodes", merged.n_nodes() as u64);
        let merged_bytes = encode_graph_feature(&merged);

        if round < self.k_hops {
            emit(key.to_vec(), FlatMsg::encode_self_info(&merged_bytes, is_target, &label));
            let keep_out_edges = round + 1 < self.k_hops;
            for (dst, weight, efeat) in &out_edges {
                let in_key = self.routing.key_for(*dst, k.id);
                emit(in_key.to_bytes(), FlatMsg::encode_in_edge(k.id, *weight, efeat, &merged_bytes));
                if keep_out_edges {
                    // agl-lint: allow(no-hot-alloc) — the emit contract takes an owned key; this is the record key itself.
                    emit(key.to_vec(), FlatMsg::encode_out_edge(*dst, *weight, efeat));
                }
            }
        } else if is_target {
            // Storing step: inverted indexing — emit under the original key.
            emit(FlatKey::plain(k.id).to_bytes(), FlatMsg::Final { sub: merged_bytes, label }.to_bytes());
        }
    }
}

/// Everything a shuffle-worker process needs to rebuild this job's
/// [`Reducer`]: the `-h/-s` knobs plus the routing table (hub set and
/// re-index fanout), serialised as the remote placement's worker spec. The
/// hub list is sorted so the spec bytes — and therefore the whole
/// distributed job — are deterministic for a given graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatWorkerSpec {
    /// K — neighborhood depth.
    pub k_hops: usize,
    /// In-edge sampling per reduce group per round.
    pub sampling: SamplingStrategy,
    /// Seed for the sampling framework.
    pub seed: u64,
    /// Re-index fanout for hub keys.
    pub fanout: u32,
    /// Hub node ids, ascending.
    pub hubs: Vec<u64>,
}

impl Codec for FlatWorkerSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.k_hops as u64);
        self.sampling.encode(buf);
        put_u64(buf, self.seed);
        put_u64(buf, u64::from(self.fanout));
        put_u64(buf, self.hubs.len() as u64);
        for h in &self.hubs {
            put_u64(buf, *h);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, agl_mapreduce::codec::CodecError> {
        let k_hops = get_u64(input)? as usize;
        let sampling = SamplingStrategy::decode(input)?;
        let seed = get_u64(input)?;
        let fanout = get_u64(input)? as u32;
        // Each hub is a u64: a count the remaining input cannot back is
        // refused before it sizes an allocation.
        let n_hubs = get_u64(input)?;
        if n_hubs > (input.len() / 8) as u64 {
            return Err(agl_mapreduce::codec::CodecError(format!(
                "hub count {n_hubs} exceeds the {} bytes left",
                input.len()
            )));
        }
        let mut hubs = Vec::with_capacity(n_hubs as usize);
        for _ in 0..n_hubs {
            hubs.push(get_u64(input)?);
        }
        Ok(Self { k_hops, sampling, seed, fanout, hubs })
    }
}

/// Reducer factory for shuffle-worker processes: decodes a
/// [`FlatWorkerSpec`] shipped by the driver and builds the identical
/// [`Reducer`] the in-process engine would run, reporting pipeline counters
/// into `counters` (which `agl_mapreduce::serve_shuffle` sends back to the
/// driver at shutdown). Pass this to `serve_shuffle`.
pub fn flat_reducer_from_spec(spec: &[u8], counters: &Counters) -> Result<Box<dyn Reducer>, String> {
    let spec = FlatWorkerSpec::from_bytes(spec).map_err(|e| format!("bad GraphFlat worker spec: {e}"))?;
    let routing = Arc::new(Routing { hubs: spec.hubs.iter().copied().collect(), fanout: spec.fanout.max(1) });
    Ok(Box::new(FlatReducer {
        routing,
        k_hops: spec.k_hops,
        sampling: spec.sampling,
        seed: spec.seed,
        counters: counters.clone(),
    }))
}

impl GraphFlat {
    pub fn new(cfg: FlatConfig) -> Self {
        assert!(cfg.reindex_fanout >= 1);
        Self { cfg }
    }

    pub fn config(&self) -> &FlatConfig {
        &self.cfg
    }

    /// Hub detection + input encoding: returns the routing table and the
    /// serialised warehouse records.
    fn prepare(&self, nodes: &NodeTable, edges: &EdgeTable, targets: &TargetSpec) -> (Arc<Routing>, Vec<Vec<u8>>) {
        let target_set: Option<HashSet<u64>> = match targets {
            TargetSpec::All => None,
            TargetSpec::Ids(ids) => Some(ids.iter().map(|n| n.0).collect()),
        };
        let is_target = |id: NodeId| target_set.as_ref().is_none_or(|s| s.contains(&id.0));

        // Hub detection for re-indexing: in-degree drives merge-round group
        // sizes; out-degree drives the join round. Either qualifies.
        let mut hubs = HashSet::new();
        if self.cfg.hub_threshold != usize::MAX {
            let mut in_deg: HashMap<u64, usize> = HashMap::new();
            let mut out_deg: HashMap<u64, usize> = HashMap::new();
            for (row, _) in edges.iter() {
                *in_deg.entry(row.dst.0).or_default() += 1;
                *out_deg.entry(row.src.0).or_default() += 1;
            }
            for (id, d) in in_deg.iter().chain(out_deg.iter()) {
                if *d > self.cfg.hub_threshold {
                    hubs.insert(*id);
                }
            }
        }
        let routing = Arc::new(Routing { hubs, fanout: self.cfg.reindex_fanout });

        // Serialise the warehouse tables into opaque input records.
        let encode_span = self.cfg.engine.obs.span("driver", "graphflat.encode_inputs");
        let mut inputs = Vec::with_capacity(nodes.len() + edges.len());
        let empty: Vec<f32> = Vec::new();
        for (i, (id, feat)) in nodes.iter().enumerate() {
            let label = nodes.labels().map_or(empty.as_slice(), |l| l.row(i));
            inputs.push(encode_node_record(id, feat, is_target(id), label));
        }
        // With K ≥ 2, stub only edges whose source is in the node table:
        // those are the in-edges round 1 receives, so the join round samples
        // the same list. With K < 2 no payload ships after round 1's merge.
        let stub_sources: IdSet =
            if self.cfg.k_hops >= 2 { nodes.ids().iter().copied().collect() } else { IdSet::default() };
        for (row, ef) in edges.iter() {
            inputs.push(encode_edge_record(row.src, row.dst, row.weight, ef, stub_sources.contains(&row.src)));
        }
        drop(encode_span);
        (routing, inputs)
    }

    /// The engine configuration of the K+1-round job.
    fn job_config(&self) -> JobConfig {
        JobConfig {
            map_tasks: self.cfg.engine.map_tasks,
            reduce_tasks: self.cfg.engine.reduce_tasks,
            reduce_rounds: self.cfg.k_hops + 1,
            parallelism: self.cfg.engine.parallelism,
            fault_plan: self.cfg.fault_plan.clone(),
            spill: self.cfg.spill.clone(),
            obs: self.cfg.engine.obs.clone(),
            ..JobConfig::default()
        }
    }

    /// The worker-process spec equivalent to `routing` (hubs sorted for a
    /// deterministic wire image).
    fn worker_spec(&self, routing: &Routing) -> FlatWorkerSpec {
        let mut hubs: Vec<u64> = routing.hubs.iter().copied().collect();
        hubs.sort_unstable();
        FlatWorkerSpec {
            k_hops: self.cfg.k_hops,
            sampling: self.cfg.sampling,
            seed: self.cfg.engine.seed,
            fanout: self.cfg.reindex_fanout,
            hubs,
        }
    }

    /// Run the pipeline over the tables, producing GraphFeatures for the
    /// targets.
    pub fn run(&self, nodes: &NodeTable, edges: &EdgeTable, targets: &TargetSpec) -> Result<FlatOutput, JobError> {
        self.run_on(nodes, edges, targets, Placement::Threads)
    }

    /// Run the *same* pipeline with the reduce work farmed out to shuffle
    /// worker processes at `endpoints` (each running
    /// `agl_mapreduce::serve_shuffle` with [`flat_reducer_from_spec`]).
    /// Output is byte-identical to [`GraphFlat::run`]: it is one job driver
    /// either way, and the workers rebuild the same reducer from the
    /// shipped [`FlatWorkerSpec`].
    pub fn run_distributed(
        &self,
        nodes: &NodeTable,
        edges: &EdgeTable,
        targets: &TargetSpec,
        endpoints: &[Endpoint],
        opts: &DistOptions,
    ) -> Result<FlatOutput, JobError> {
        self.run_distributed_with_hook(nodes, edges, targets, endpoints, opts, None)
    }

    /// [`GraphFlat::run_distributed`] with the remote placement's
    /// fault-injection hook exposed (fires after each reduce-task dispatch;
    /// used by the kill-a-worker CI suite).
    pub fn run_distributed_with_hook(
        &self,
        nodes: &NodeTable,
        edges: &EdgeTable,
        targets: &TargetSpec,
        endpoints: &[Endpoint],
        opts: &DistOptions,
        on_dispatch: Option<&(dyn Fn(usize) + Sync)>,
    ) -> Result<FlatOutput, JobError> {
        self.run_on(nodes, edges, targets, Placement::Remote(RemoteWorkers { endpoints, opts, on_dispatch }))
    }

    fn run_on(
        &self,
        nodes: &NodeTable,
        edges: &EdgeTable,
        targets: &TargetSpec,
        placement: Placement<'_>,
    ) -> Result<FlatOutput, JobError> {
        let mut flat_span = self.cfg.engine.obs.span("driver", "graphflat");
        let (routing, inputs) = self.prepare(nodes, edges, targets);
        // Pipeline and job driver report into one handle: the run's shared
        // registry when observability is on.
        let counters = Counters::for_obs(&self.cfg.engine.obs);
        let mapper = FlatMapper { routing: routing.clone() };
        let reducer = FlatReducer {
            routing: routing.clone(),
            k_hops: self.cfg.k_hops,
            sampling: self.cfg.sampling,
            seed: self.cfg.engine.seed,
            counters: counters.clone(),
        };
        let worker_spec = || self.worker_spec(&routing).to_bytes();
        let job = MapReduceJob::reporting_into(self.job_config(), counters.clone());
        let result = job.run_on(placement, &inputs, &mapper, &reducer, None, &worker_spec)?;
        self.store(result.output, counters, &mut flat_span)
    }

    /// Storing step: group Final records by target id; union the partial
    /// GraphFeatures of re-indexed hub targets. Every partial is decoded
    /// once: a target's only partial to validate it, then kept as the bytes
    /// it came in; several partials to union them.
    fn store(
        &self,
        output: Vec<KeyValue>,
        counters: Counters,
        flat_span: &mut agl_obs::Span,
    ) -> Result<FlatOutput, JobError> {
        let store_span = self.cfg.engine.obs.span("driver", "graphflat.store");
        let decode =
            |sub: &[u8]| decode_graph_feature(sub).map_err(|e| JobError::Corrupt(format!("final subgraph: {e}")));
        let mut by_target: HashMap<u64, (Vec<Vec<u8>>, Vec<f32>)> = HashMap::new();
        for kv in output {
            let key = FlatKey::from_bytes(&kv.key).map_err(|e| JobError::Corrupt(format!("final key: {e}")))?;
            let msg = FlatMsg::from_bytes(&kv.value).map_err(|e| JobError::Corrupt(format!("final msg: {e}")))?;
            match msg {
                FlatMsg::Final { sub, label } => {
                    by_target.entry(key.id).or_insert_with(|| (Vec::new(), label)).0.push(sub);
                }
                other => return Err(JobError::Corrupt(format!("unexpected output record {other:?}"))),
            }
        }
        let mut examples = Vec::with_capacity(by_target.len());
        for (id, (partials, label)) in by_target {
            let graph_feature = match <[Vec<u8>; 1]>::try_from(partials) {
                Ok([only]) => {
                    decode(&only)?;
                    only
                }
                Err(partials) => {
                    counters.add("flat.hub_partials_merged", partials.len() as u64);
                    let mut b = SubgraphBuilder::new();
                    for p in &partials {
                        b.absorb(&decode(p)?);
                    }
                    encode_graph_feature(&b.build(&[NodeId(id)]))
                }
            };
            examples.push(TrainingExample { target: NodeId(id), label, graph_feature });
        }
        examples.sort_by_key(|e| e.target);
        drop(store_span);
        counters.add("flat.examples", examples.len() as u64);
        flat_span.counter("examples", examples.len() as u64);
        Ok(FlatOutput { examples, counters })
    }
}
