//! The GraphFlat driver: Map + Reduce rounds over the MapReduce substrate,
//! producing `<TargetedNodeId, Label, GraphFeature>` triples.
//!
//! Round structure (engine round index in parentheses): join, K merges and
//! fill, so K + 2 rounds at K ≥ 1 and one at K = 0.
//!
//! * **Join (0)** — Map sends every node row to its node's group and every
//!   edge whose source is in the node table to its destination's group as
//!   a payload-free [`FlatMsg::Stub`]. The paper presents Map as already
//!   emitting in-edge info carrying *"the neighbor node"*'s features; a
//!   single-record Map cannot know them, so the join that industrial
//!   pipelines run beforehand is folded in here as the first Reduce round.
//!   Each destination settles its sample once, running §3.2.2's selection
//!   over its stubs, and sends each kept source's first kept edge to itself
//!   as round 1's in-edge and, when K ≥ 2, one [`FlatMsg::OutEdge`] to that
//!   source's group. Destinations missing from the node table keep nothing.
//!   With K = 0 the join round emits each target's leaf GraphFeature and
//!   the job ends.
//! * **Merge & propagate (1..=K)** — per §3.2.1: merge self + in-edge info
//!   into the new self info (one more hop of neighborhood) and propagate it
//!   along the kept out-edges, so rounds 2..=K receive only payloads they
//!   merge. Out-edge info is re-emitted as state only while a later round
//!   propagates again. Unlike §3.2.1, the information is id-only: node ids
//!   and edges with their weights and edge features. A node's own feature
//!   row rides only in its self info.
//! * **Row requests (K−1 → K)** — round K − 1 knows every node a target's
//!   final structure will hold, so it asks for the rows. A group sends one
//!   [`FlatMsg::Request`] per node of the structure it propagates (or, at
//!   K = 1, per node of its own structure to come) and per distinct bucket
//!   that will hold it: its targeted out-edge destinations' buckets and its
//!   own if it is a target. Round K merges as above, answers each distinct
//!   bucket that asked for its node's row with one row, and sends each
//!   target's structure to the target's bucket.
//! * **Fill (K+1)** — each bucket unions the partial structures of
//!   re-indexed hub targets (the tail end of inverted indexing), fills
//!   every structure's feature rows from the bucket's rows, checks that the
//!   result decodes and emits the targets' GraphFeatures. The driver's
//!   Storing step collects them.
//!
//! There are B buckets, one per reduce partition, so each node's row ships
//! at most B times however many targets' neighborhoods hold it.
//!
//! Drawing the sample once is exact because sampling is node-consistent:
//! every round sees the same canonical candidate list and derives the same
//! seed from the node id, so it would keep the same in-edges anyway.

use crate::builder::SubgraphBuilder;
use crate::graphfeature::{decode_graph_feature, encode_graph_feature, fill_graph_feature};
use crate::messages::{FlatKey, FlatMsg, BUCKET_SUFFIX, NO_SUFFIX};
use crate::sampling::SamplingStrategy;
use agl_graph::idhash::{IdBuildHasher, IdMap, IdSet};
use agl_graph::{EdgeTable, NodeId, NodeTable, Subgraph};
use agl_mapreduce::codec::{get_f32, get_f32s, get_u64, get_u8, put_f32, put_f32s, put_u64, put_u8, Codec, CodecError};
use agl_mapreduce::hash::{fnv1a, partition};
use agl_mapreduce::{
    Counters, DistOptions, Endpoint, EngineConfig, FaultPlan, JobConfig, JobError, KeyValue, MapReduceJob, Mapper,
    Placement, Reducer, RemoteWorkers, SpillMode,
};
use agl_tensor::rng::derive_seed;
use agl_tensor::Matrix;
use std::collections::{BTreeMap, HashMap, HashSet};
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

fn encode_edge_record(src: NodeId, dst: NodeId, weight: f32, efeat: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21 + 4 * efeat.len());
    put_u8(&mut buf, REC_EDGE);
    put_u64(&mut buf, src.0);
    put_u64(&mut buf, dst.0);
    put_f32(&mut buf, weight);
    put_f32s(&mut buf, efeat);
    buf
}

/// Decode a record this pipeline itself encoded. The [`Mapper`]/[`Reducer`]
/// contract has no error channel, and a decode failure of self-encoded
/// bytes means an engine invariant broke — aborting the task is the only
/// correct response, and the retry machinery reports it as a task failure.
fn must<T>(r: Result<T, CodecError>, what: &str) -> T {
    match r {
        Ok(v) => v,
        // agl-lint: allow(no-panic) — self-encoded record failed to decode: engine bug, and no error channel exists here.
        Err(e) => panic!("corrupt {what}: {e}"),
    }
}

/// A record reached a round that never receives its kind: the routing
/// that produced it is broken, and the task must fail (see [`must`]).
fn misrouted(round: usize, msg: &FlatMsg) -> ! {
    // agl-lint: allow(no-panic) — every kind is routed to one round by this module; no error channel exists here.
    panic!("round {round} received a misrouted record {msg:?}")
}

/// Shared routing state: which keys are hubs, the re-index fanout, and the
/// fill round's bucket keys.
#[derive(Debug)]
struct Routing {
    /// Probed for every record routed, so hashed like the node-id maps.
    hubs: HashSet<u64, IdBuildHasher>,
    fanout: u32,
    /// Bucket `b`'s shuffle key, picked so that it lands on reduce
    /// partition `b` of `buckets.len()`: every bucket fills on its own task.
    buckets: Vec<FlatKey>,
}

impl Routing {
    fn new(hubs: HashSet<u64, IdBuildHasher>, fanout: u32, n_buckets: u32) -> Self {
        let n = n_buckets as usize;
        let buckets = (0..n)
            .map(|b| {
                let mut key = FlatKey { id: 0, suffix: BUCKET_SUFFIX };
                while partition(&key.to_bytes(), n) != b {
                    key.id += 1;
                }
                key
            })
            .collect();
        Self { hubs, fanout, buckets }
    }

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

    /// The bucket that fills target `id`'s GraphFeature.
    fn bucket_of(&self, id: u64) -> u32 {
        (fnv1a(&id.to_le_bytes()) % self.buckets.len() as u64) as u32
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
                // To the destination group that samples over it; spread
                // over a hub's groups by source.
                emit(self.routing.key_for(dst, src).to_bytes(), FlatMsg::encode_stub(src, weight, &efeat));
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

/// A node alone, with the given feature row: the 0-hop neighborhood (an
/// empty row makes it a structure).
fn leaf(id: u64, features: &[f32]) -> Vec<u8> {
    encode_graph_feature(&Subgraph {
        target_locals: vec![0],
        node_ids: vec![NodeId(id)],
        features: Matrix::from_vec(1, features.len(), features.to_vec()),
        edges: vec![],
        edge_features: None,
    })
}

/// Emit target `id`'s GraphFeature, once its bytes decode: the job's output
/// is checked where it is written, on the reduce pool.
fn emit_final(id: u64, sub: &[u8], label: &[f32], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
    must(decode_graph_feature(sub), "final GraphFeature");
    emit(FlatKey::plain(id).to_bytes(), FlatMsg::encode_final(sub, label));
}

impl FlatReducer {
    /// The seed of node `id`'s in-edge sample: the same in every round.
    fn sample_seed(&self, id: u64) -> u64 {
        derive_seed(self.seed, fnv1a(&id.to_le_bytes()))
    }

    /// Join round: settle the group's in-edge sample and start the self
    /// information.
    fn join(
        &self,
        k: FlatKey,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let mut node_row: Option<(Vec<f32>, bool, Vec<f32>)> = None;
        let mut stubs: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        for v in values {
            match must(FlatMsg::from_bytes(v), "flat message") {
                FlatMsg::NodeRow { features, is_target, label } => {
                    node_row.get_or_insert((features, is_target, label));
                }
                FlatMsg::Stub { src, weight, efeat } => stubs.push((src, weight, efeat)),
                other => misrouted(0, &other),
            }
        }
        let Some((features, is_target, label)) = node_row else {
            // In-edges addressed to a node missing from the node table:
            // there is no node to merge them into.
            self.counters.add("flat.dangling_edge_destinations", stubs.len() as u64);
            return;
        };
        if self.k_hops == 0 {
            // Every group of a re-indexed hub holds the same leaf: one emits it.
            if is_target && k.suffix == NO_SUFFIX {
                emit_final(k.id, &leaf(k.id, &features), &label, emit);
            }
            return;
        }
        emit(key.to_vec(), FlatMsg::encode_self_info(&leaf(k.id, &[]), &features, is_target, &label));
        // Load-balance observability: the largest in-edge group any reducer
        // had to sample this job — re-indexing exists to shrink this.
        self.counters.record_max("flat.max_group_in_edges", stubs.len() as u64);

        // Sampling framework: cap this group's in-edges. The candidate list
        // is canonicalised and the seed depends only on the node, so the
        // sample — and later GraphInfer's — is the *same* neighbor subset:
        // the property behind §3.4's "unbiased inference with the model
        // trained based on GraphFlat". The order is by source id with full
        // tie-breaks, so parallel edges from one source order the same way
        // however the shuffle delivered them (records equal on all three
        // fields are interchangeable). Each kept source gets one in-edge
        // and one out-edge, its first kept parallel edge, the only one the
        // merge's edge union records.
        stubs.sort_by(|(sa, wa, fa), (sb, wb, fb)| {
            sa.cmp(sb)
                .then_with(|| wa.total_cmp(wb))
                .then_with(|| fa.iter().map(|f| f.to_bits()).cmp(fb.iter().map(|f| f.to_bits())))
        });
        let weights: Vec<f32> = stubs.iter().map(|(_, w, _)| *w).collect();
        let kept = self.sampling.select(&weights, self.sample_seed(k.id));
        if kept.len() < stubs.len() {
            self.counters.add("flat.sampled_out_in_edges", (stubs.len() - kept.len()) as u64);
        }
        let mut last_src = None;
        let mut sources = Vec::new();
        for i in kept {
            let (src, weight, efeat) = &stubs[i];
            if last_src != Some(*src) {
                last_src = Some(*src);
                emit(key.to_vec(), FlatMsg::encode_stub(*src, *weight, efeat));
                if self.k_hops >= 2 {
                    let out_edge = FlatMsg::OutEdge { dst: k.id, dst_is_target: is_target };
                    emit(self.routing.key_for(*src, k.id).to_bytes(), out_edge.to_bytes());
                } else if *src != k.id {
                    sources.push(*src);
                }
            }
        }
        // At K = 1 this is round K − 1: round 1's structure will hold this
        // node and its kept sources, so a target asks for their rows now.
        if self.k_hops == 1 && is_target {
            sources.push(k.id);
            self.request_rows(&sources, &[self.routing.bucket_of(k.id)], emit);
        }
    }

    /// Round K − 1: ask each of `nodes` (distinct) for its feature row once
    /// on behalf of each of `buckets` (distinct). Round K answers.
    fn request_rows(&self, nodes: &[u64], buckets: &[u32], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for &bucket in buckets {
            let request = FlatMsg::Request { bucket }.to_bytes();
            for &id in nodes {
                emit(self.routing.key_for(id, u64::from(bucket)).to_bytes(), request.clone());
            }
        }
        self.counters.add("flat.row_requests", (nodes.len() * buckets.len()) as u64);
    }

    /// Merge & propagate round `round` in 1..=K.
    fn merge(
        &self,
        round: usize,
        k: FlatKey,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let mut self_info: Option<(Vec<u8>, Vec<f32>, bool, Vec<f32>)> = None;
        let mut builder = SubgraphBuilder::new();
        let mut in_edges: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        let mut out_edges: Vec<(u64, bool)> = Vec::new();
        let mut buckets: Vec<u32> = Vec::new();
        for v in values {
            match must(FlatMsg::from_bytes(v), "flat message") {
                FlatMsg::SelfInfo { sub, row, is_target, label } => {
                    self_info.get_or_insert((sub, row, is_target, label));
                }
                // Round 1's in-edges: the kept edges themselves.
                FlatMsg::Stub { src, weight, efeat } => in_edges.push((src, weight, efeat)),
                // Later rounds' in-edges: the kept sources' structures.
                FlatMsg::InEdge { sub } => builder.absorb(&must(decode_graph_feature(&sub), "in-edge structure")),
                FlatMsg::OutEdge { dst, dst_is_target } => out_edges.push((dst, dst_is_target)),
                // Round K: buckets asking for this node's row.
                FlatMsg::Request { bucket } => buckets.push(bucket),
                other => misrouted(round, &other),
            }
        }
        // Every record of these rounds is addressed to a node the join
        // round found in the node table, so a self info is always present.
        let Some((sub, row, is_target, label)) = self_info else { return };
        builder.absorb(&must(decode_graph_feature(&sub), "self structure"));
        for (src, weight, efeat) in &in_edges {
            builder.add_node(NodeId(*src), &[]);
            builder.add_edge(NodeId(*src), NodeId(k.id), *weight, (!efeat.is_empty()).then_some(efeat.as_slice()));
        }
        let merged = builder.build(&[NodeId(k.id)]);
        self.counters.add("flat.merged_nodes", merged.n_nodes() as u64);
        let merged_bytes = encode_graph_feature(&merged);

        if round < self.k_hops {
            emit(key.to_vec(), FlatMsg::encode_self_info(&merged_bytes, &row, is_target, &label));
            let keep_out_edges = round + 1 < self.k_hops;
            for &(dst, dst_is_target) in &out_edges {
                emit(self.routing.key_for(dst, k.id).to_bytes(), FlatMsg::encode_in_edge(&merged_bytes));
                if keep_out_edges {
                    // agl-lint: allow(no-hot-alloc) — the emit contract takes an owned key; this is the record key itself.
                    emit(key.to_vec(), FlatMsg::OutEdge { dst, dst_is_target }.to_bytes());
                }
            }
            if !keep_out_edges {
                // Round K − 1: every structure that holds this one after
                // round K is a targeted destination's or this node's own.
                let mut buckets: Vec<u32> = out_edges
                    .iter()
                    .filter(|(_, dst_is_target)| *dst_is_target)
                    .map(|(dst, _)| self.routing.bucket_of(*dst))
                    .chain(is_target.then(|| self.routing.bucket_of(k.id)))
                    .collect();
                buckets.sort_unstable();
                buckets.dedup();
                let nodes: Vec<u64> = merged.node_ids.iter().map(|n| n.0).collect();
                self.request_rows(&nodes, &buckets, emit);
            }
            return;
        }
        // Round K: answer each distinct bucket that asked for this node's
        // row; a target's structure goes to its bucket.
        buckets.sort_unstable();
        buckets.dedup();
        if !buckets.is_empty() {
            let msg = FlatMsg::encode_row(k.id, &row);
            for b in buckets {
                emit(self.routing.buckets[b as usize].to_bytes(), msg.clone());
            }
        }
        if is_target {
            emit(
                self.routing.buckets[self.routing.bucket_of(k.id) as usize].to_bytes(),
                FlatMsg::encode_structure(k.id, &merged_bytes, &label),
            );
        }
    }

    /// Fill round (K+1): union each target's partial structures, fill in
    /// the feature rows and emit the target's GraphFeature.
    fn fill(&self, values: &mut dyn Iterator<Item = &[u8]>, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let mut rows: IdMap<Vec<f32>> = IdMap::default();
        let mut targets: BTreeMap<u64, (Vec<Vec<u8>>, Vec<f32>)> = BTreeMap::new();
        for v in values {
            match must(FlatMsg::from_bytes(v), "flat message") {
                FlatMsg::Row { id, features } => {
                    rows.insert(NodeId(id), features);
                }
                FlatMsg::Structure { target, sub, label } => {
                    targets.entry(target).or_insert_with(|| (Vec::new(), label)).0.push(sub);
                }
                other => misrouted(self.k_hops + 1, &other),
            }
        }
        for (id, (partials, label)) in targets {
            let structure = match <[Vec<u8>; 1]>::try_from(partials) {
                Ok([only]) => only,
                Err(mut several) => {
                    self.counters.add("flat.hub_partials_merged", several.len() as u64);
                    // Arrival order is the shuffle's; union in a fixed one.
                    several.sort_unstable();
                    let mut b = SubgraphBuilder::new();
                    for p in &several {
                        b.absorb(&must(decode_graph_feature(p), "partial structure"));
                    }
                    encode_graph_feature(&b.build(&[NodeId(id)]))
                }
            };
            // Round K answers every node of every structure.
            let filled = must(fill_graph_feature(&structure, |n| rows.get(&n).map(Vec::as_slice)), "structure");
            emit_final(id, &filled, &label, emit);
        }
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
        if round == 0 {
            self.join(k, key, values, emit);
        } else if round <= self.k_hops {
            self.merge(round, k, key, values, emit);
        } else {
            self.fill(values, emit);
        }
    }
}

/// Everything a shuffle-worker process needs to rebuild this job's
/// [`Reducer`]: the `-h/-s` knobs plus the routing table (hub set, re-index
/// fanout and bucket count), serialised as the remote placement's worker
/// spec. The hub list is sorted so the spec bytes — and therefore the whole
/// distributed job — are deterministic for a given graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatWorkerSpec {
    /// K — neighborhood depth.
    pub k_hops: usize,
    /// In-edge sampling per reduce group.
    pub sampling: SamplingStrategy,
    /// Seed for the sampling framework.
    pub seed: u64,
    /// Re-index fanout for hub keys.
    pub fanout: u32,
    /// Fill-round buckets: the job's reduce-task count.
    pub buckets: u32,
    /// Hub node ids, ascending.
    pub hubs: Vec<u64>,
}

/// A `u64` field that must hold a positive `u32`.
fn get_positive_u32(input: &mut &[u8], what: &str) -> Result<u32, CodecError> {
    let v = get_u64(input)?;
    match u32::try_from(v) {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(CodecError(format!("{what} {v} is not in 1..={}", u32::MAX))),
    }
}

impl Codec for FlatWorkerSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.k_hops as u64);
        self.sampling.encode(buf);
        put_u64(buf, self.seed);
        put_u64(buf, u64::from(self.fanout));
        put_u64(buf, u64::from(self.buckets));
        put_u64(buf, self.hubs.len() as u64);
        for h in &self.hubs {
            put_u64(buf, *h);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let k_hops = get_u64(input)? as usize;
        let sampling = SamplingStrategy::decode(input)?;
        let seed = get_u64(input)?;
        let fanout = get_positive_u32(input, "re-index fanout")?;
        let buckets = get_positive_u32(input, "bucket count")?;
        // Each hub is a u64: a count the remaining input cannot back is
        // refused before it sizes an allocation.
        let n_hubs = get_u64(input)?;
        if n_hubs > (input.len() / 8) as u64 {
            return Err(CodecError(format!("hub count {n_hubs} exceeds the {} bytes left", input.len())));
        }
        let mut hubs = Vec::with_capacity(n_hubs as usize);
        for _ in 0..n_hubs {
            hubs.push(get_u64(input)?);
        }
        Ok(Self { k_hops, sampling, seed, fanout, buckets, hubs })
    }
}

/// Reducer factory for shuffle-worker processes: decodes a
/// [`FlatWorkerSpec`] shipped by the driver and builds the identical
/// [`Reducer`] the in-process engine would run, reporting pipeline counters
/// into `counters` (which `agl_mapreduce::serve_shuffle` sends back to the
/// driver at shutdown). Pass this to `serve_shuffle`.
pub fn flat_reducer_from_spec(spec: &[u8], counters: &Counters) -> Result<Box<dyn Reducer>, String> {
    let spec = FlatWorkerSpec::from_bytes(spec).map_err(|e| format!("bad GraphFlat worker spec: {e}"))?;
    let routing = Arc::new(Routing::new(spec.hubs.iter().copied().collect(), spec.fanout, spec.buckets));
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
    fn prepare(
        &self,
        nodes: &NodeTable,
        edges: &EdgeTable,
        targets: &TargetSpec,
        counters: &Counters,
    ) -> (Arc<Routing>, Vec<Vec<u8>>) {
        let target_set: Option<HashSet<u64>> = match targets {
            TargetSpec::All => None,
            TargetSpec::Ids(ids) => Some(ids.iter().map(|n| n.0).collect()),
        };
        let is_target = |id: NodeId| target_set.as_ref().is_none_or(|s| s.contains(&id.0));

        // Hub detection for re-indexing: in-degree drives the join and
        // merge rounds' group sizes; out-degree the out-edge state. Either
        // qualifies.
        let mut hubs = HashSet::default();
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
        let routing = Arc::new(Routing::new(hubs, self.cfg.reindex_fanout, self.buckets()));

        // Serialise the warehouse tables into opaque input records.
        let encode_span = self.cfg.engine.obs.span("driver", "graphflat.encode_inputs");
        let mut inputs = Vec::with_capacity(nodes.len() + edges.len());
        let empty: Vec<f32> = Vec::new();
        for (i, (id, feat)) in nodes.iter().enumerate() {
            let label = nodes.labels().map_or(empty.as_slice(), |l| l.row(i));
            inputs.push(encode_node_record(id, feat, is_target(id), label));
        }
        // An edge whose source is missing from the node table carries no
        // neighbor into any neighborhood: it is counted, not shipped. With
        // K = 0 no edge is read at all.
        let sources: IdSet = nodes.ids().iter().copied().collect();
        let mut dangling_sources = 0u64;
        for (row, ef) in edges.iter() {
            if !sources.contains(&row.src) {
                dangling_sources += 1;
            } else if self.cfg.k_hops > 0 {
                inputs.push(encode_edge_record(row.src, row.dst, row.weight, ef));
            }
        }
        if dangling_sources > 0 {
            counters.add("flat.dangling_edge_sources", dangling_sources);
        }
        drop(encode_span);
        (routing, inputs)
    }

    /// B, the fill round's bucket count: one per reduce task.
    fn buckets(&self) -> u32 {
        u32::try_from(self.cfg.engine.reduce_tasks.max(1)).unwrap_or(u32::MAX)
    }

    /// The engine configuration of the job: the join round alone at
    /// K = 0, else join, K merges and fill.
    fn job_config(&self) -> JobConfig {
        JobConfig {
            map_tasks: self.cfg.engine.map_tasks,
            reduce_tasks: self.cfg.engine.reduce_tasks,
            reduce_rounds: if self.cfg.k_hops == 0 { 1 } else { self.cfg.k_hops + 2 },
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
            fanout: routing.fanout,
            buckets: routing.buckets.len() as u32,
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
        // Pipeline and job driver report into one handle: the run's shared
        // registry when observability is on.
        let counters = Counters::for_obs(&self.cfg.engine.obs);
        let (routing, inputs) = self.prepare(nodes, edges, targets, &counters);
        let mapper = FlatMapper { routing: routing.clone() };
        let reducer = FlatReducer {
            routing: routing.clone(),
            k_hops: self.cfg.k_hops,
            sampling: self.cfg.sampling,
            seed: self.cfg.engine.seed,
            counters: counters.clone(),
        };
        let worker_spec = || self.worker_spec(&routing).to_bytes();
        let remote = matches!(placement, Placement::Remote(_));
        let job = MapReduceJob::reporting_into(self.job_config(), counters.clone());
        let result = job.run_on(placement, &inputs, &mapper, &reducer, None, &worker_spec)?;
        if remote {
            counters.fold_worker_counters(&["flat."]);
        }
        self.store(result.output, counters, &mut flat_span)
    }

    /// Storing step: collect the Final records, one per target. Their
    /// GraphFeatures were decoded where the reducer wrote them.
    fn store(
        &self,
        output: Vec<KeyValue>,
        counters: Counters,
        flat_span: &mut agl_obs::Span,
    ) -> Result<FlatOutput, JobError> {
        let store_span = self.cfg.engine.obs.span("driver", "graphflat.store");
        let mut examples = Vec::with_capacity(output.len());
        for kv in output {
            let key = FlatKey::from_bytes(&kv.key).map_err(|e| JobError::Corrupt(format!("final key: {e}")))?;
            let msg = FlatMsg::from_bytes(&kv.value).map_err(|e| JobError::Corrupt(format!("final msg: {e}")))?;
            let FlatMsg::Final { sub, label } = msg else {
                return Err(JobError::Corrupt(format!("unexpected output record {msg:?}")));
            };
            examples.push(TrainingExample { target: NodeId(key.id), label, graph_feature: sub });
        }
        examples.sort_by_key(|e| e.target);
        if let Some(pair) = examples.windows(2).find(|p| p[0].target == p[1].target) {
            return Err(JobError::Corrupt(format!("target {} has more than one GraphFeature", pair[0].target)));
        }
        drop(store_span);
        counters.add("flat.examples", examples.len() as u64);
        flat_span.counter("examples", examples.len() as u64);
        Ok(FlatOutput { examples, counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_keys_land_on_their_own_partitions() {
        for n in (1..=64).chain([100, 257, 1000]) {
            let routing = Routing::new(HashSet::default(), 4, n);
            assert_eq!(routing.buckets.len(), n as usize);
            for (b, key) in routing.buckets.iter().enumerate() {
                assert_eq!(key.suffix, BUCKET_SUFFIX);
                assert_eq!(partition(&key.to_bytes(), n as usize), b, "bucket {b} of {n}");
            }
        }
    }

    #[test]
    fn hostile_worker_spec_counts_are_refused() {
        let spec = FlatWorkerSpec {
            k_hops: 2,
            sampling: SamplingStrategy::None,
            seed: 1,
            fanout: 4,
            buckets: 4,
            hubs: vec![7],
        };
        let bytes = spec.to_bytes();
        // k_hops (8 bytes), sampling (tag + cap, 9), seed (8), then the
        // fanout and the bucket count, a u64 each.
        for (at, what) in [(25, "re-index fanout"), (33, "bucket count")] {
            for bad in [0, u64::from(u32::MAX) + 1, u64::MAX] {
                let mut hostile = bytes.clone();
                hostile[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                let err = FlatWorkerSpec::from_bytes(&hostile).unwrap_err();
                assert!(err.0.contains(what), "{what} = {bad}: {err}");
                assert!(flat_reducer_from_spec(&hostile, &Counters::new()).is_err(), "{what} = {bad}");
            }
        }
        assert_eq!(FlatWorkerSpec::from_bytes(&bytes).unwrap(), spec);
    }
}
