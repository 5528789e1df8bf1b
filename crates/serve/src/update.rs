//! Incremental store maintenance: recompute only the dirty k-hop
//! neighborhood, byte-identically to a full re-infer.
//!
//! When a node's features (or its in-edges) change, the only stale store
//! entries are the nodes whose k-hop *in*-neighborhood contains the change
//! — i.e. the **forward** BFS (along out-edges) of depth ≤ k from the
//! touched nodes, because embeddings aggregate upstream along edge
//! direction. Recomputing those dirty nodes needs their own k-hop
//! in-neighborhoods, the **backward** closure of the dirty set.
//!
//! No job runs. Both searches are level-by-level scans of the edge table
//! against small id sets; the backward one also collects the in-edges of
//! every closure node at backward distance `< k`. Layer `l` is then
//! computed only for the closure nodes at distance `≤ k − l`, with
//! [`agl_infer::merge_step`] — the per-node step every inference driver's
//! reducer calls — and the dirty nodes are scored with
//! [`agl_infer::predict_row`].
//!
//! Byte-identity with a full re-infer holds because that step depends only
//! on the node's complete in-edge candidate set, the sampling strategy and
//! seed, and the segment count `cfg.engine.reduce_tasks` of its fold: it
//! samples with a seed derived from the *node id* alone over a canonically
//! sorted candidate set, and folds the kept neighbors in a canonical order.
//! A node at distance `< k` gets its complete in-edge set (parallel edges
//! kept apart, edges from sources missing from the node table skipped — as
//! GraphInfer's join round skips them), whose inputs are the same vectors
//! the full run merges. Nodes at distance exactly `k` contribute only their
//! raw features. The dirty nodes' vectors are therefore bit-for-bit those
//! of a full recompute, and they are the only entries
//! [`EmbeddingStore::patch`] swaps in.

use crate::store::EmbeddingStore;
use agl_graph::tables::EdgeRow;
use agl_graph::{EdgeTable, IdMap, IdSet, NodeId, NodeTable};
use agl_infer::{merge_step, predict_row, InferConfig};
use agl_mapreduce::JobError;
use agl_nn::GnnModel;

/// A graph change: the set of nodes whose inputs changed — nodes with new
/// features, plus the `dst` endpoint of every added/removed edge (the
/// aggregation that edge feeds).
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    pub touched: Vec<NodeId>,
}

impl GraphDelta {
    /// Delta for feature changes at the given nodes.
    pub fn features(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Self { touched: nodes.into_iter().collect() }
    }

    /// Record an added or removed edge: its `dst` aggregation changed.
    #[must_use]
    pub fn with_edge(mut self, _src: NodeId, dst: NodeId) -> Self {
        self.touched.push(dst);
        self
    }
}

/// What an incremental update did.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Directly changed nodes (the delta).
    pub touched: usize,
    /// Stale store entries recomputed and patched.
    pub dirty: usize,
    /// Nodes of the backward closure the recompute read.
    pub closure_nodes: usize,
    /// In-edges merged by the recompute: those of closure nodes at
    /// backward distance `< k`.
    pub closure_edges: usize,
}

/// Recompute the dirty neighborhood of `delta` over the *post-update*
/// tables and patch the affected store shards (atomic per-shard swap).
/// Runs on the caller's thread.
///
/// `cfg` must be the configuration the store's vectors were produced with
/// (same sampling strategy, `engine.seed` and `engine.reduce_tasks`), or
/// byte-identity with a full recompute is forfeit. `k` is the model's layer count. Edges with an
/// endpoint missing from `nodes` are skipped, as GraphInfer skips them.
pub fn update_incremental(
    store: &EmbeddingStore,
    model: &GnnModel,
    nodes: &NodeTable,
    edges: &EdgeTable,
    delta: &GraphDelta,
    cfg: &InferConfig,
) -> Result<UpdateReport, JobError> {
    let obs = &cfg.engine.obs;
    let _span = obs.span("serve", "serve.update");
    let closure = {
        let _s = obs.span("serve", "serve.update.closure");
        Closure::find(nodes, edges, &delta.touched, model.n_layers())
    };
    let Some(closure) = closure else {
        return Ok(UpdateReport { touched: delta.touched.len(), dirty: 0, closure_nodes: 0, closure_edges: 0 });
    };
    let patched = {
        let _s = obs.span("serve", "serve.update.forward");
        closure.recompute(model, nodes, cfg)
    };
    let report = UpdateReport {
        touched: delta.touched.len(),
        dirty: patched.len(),
        closure_nodes: closure.ids.len(),
        closure_edges: closure.in_src.len(),
    };
    {
        let _s = obs.span("serve", "serve.update.patch");
        store.patch(patched);
        store.publish_occupancy(obs);
    }
    obs.metric_add("serve.update.dirty", report.dirty as u64);
    obs.metric_add("serve.update.closure_nodes", report.closure_nodes as u64);
    Ok(report)
}

/// The backward k-hop closure of the dirty set, sorted by node id, with
/// the in-edges its recompute merges.
struct Closure {
    /// Closure node ids, ascending.
    ids: Vec<NodeId>,
    /// Node-table row of each closure node.
    rows: Vec<usize>,
    /// Backward distance from the dirty set (0 = dirty).
    dist: Vec<usize>,
    /// CSR over closure nodes: `in_src[in_ptr[v]..in_ptr[v + 1]]` holds
    /// `(source, weight)` of each in-edge of `v` (empty at distance `k`).
    in_ptr: Vec<usize>,
    in_src: Vec<(u32, f32)>,
}

impl Closure {
    /// Search the dirty set and its closure; `None` when no touched node
    /// exists in the node table.
    fn find(nodes: &NodeTable, edges: &EdgeTable, touched: &[NodeId], k: usize) -> Option<Self> {
        // Dirty = forward BFS ≤ k along out-edges: every node whose k-hop
        // in-neighborhood contains a touched node.
        let mut dirty: IdMap<usize> =
            existing_rows(nodes, &ScanSet::new(touched.iter().copied())).into_iter().collect();
        if dirty.is_empty() {
            return None;
        }
        let mut frontier = ScanSet::new(dirty.keys().copied());
        for _ in 0..k {
            if frontier.is_empty() {
                break;
            }
            let next = edges.rows().iter().filter(|e| frontier.contains(e.src) && !dirty.contains_key(&e.dst));
            let found = existing_rows(nodes, &ScanSet::new(next.map(|e| e.dst)));
            frontier = ScanSet::new(found.iter().map(|&(id, _)| id));
            dirty.extend(found);
        }

        // Closure = backward BFS ≤ k along in-edges from the dirty set. A
        // node at distance d < k has its in-edges scanned at level d, so
        // they are collected exactly once.
        let mut closure: IdMap<(usize, usize)> = dirty.iter().map(|(&id, &row)| (id, (0, row))).collect();
        let mut frontier = ScanSet::new(dirty.into_keys());
        let mut in_edges: Vec<EdgeRow> = Vec::new();
        for d in 1..=k {
            if frontier.is_empty() {
                break;
            }
            let scanned = in_edges.len();
            in_edges.extend(edges.rows().iter().filter(|e| frontier.contains(e.dst)));
            let next = in_edges[scanned..].iter().filter(|e| !closure.contains_key(&e.src));
            let found = existing_rows(nodes, &ScanSet::new(next.map(|e| e.src)));
            frontier = ScanSet::new(found.iter().map(|&(id, _)| id));
            closure.extend(found.into_iter().map(|(id, row)| (id, (d, row))));
        }
        // Every existing source joined the closure; the rest dangle.
        in_edges.retain(|e| closure.contains_key(&e.src));

        let mut ids: Vec<NodeId> = closure.keys().copied().collect();
        ids.sort_unstable();
        let local: IdMap<u32> = ids.iter().enumerate().map(|(v, &id)| (id, v as u32)).collect();
        let (dist, rows): (Vec<usize>, Vec<usize>) = ids.iter().map(|id| closure[id]).unzip();
        let mut in_ptr = vec![0usize; ids.len() + 1];
        for e in &in_edges {
            in_ptr[local[&e.dst] as usize + 1] += 1;
        }
        for v in 0..ids.len() {
            in_ptr[v + 1] += in_ptr[v];
        }
        let mut fill = in_ptr.clone();
        let mut in_src = vec![(0u32, 0.0f32); in_edges.len()];
        for e in &in_edges {
            let slot = &mut fill[local[&e.dst] as usize];
            in_src[*slot] = (local[&e.src], e.weight);
            *slot += 1;
        }
        Some(Self { ids, rows, dist, in_ptr, in_src })
    }

    /// Layer by layer, compute `h^l` for the nodes at distance `≤ k − l`;
    /// return the dirty nodes' scores in id order.
    fn recompute(&self, model: &GnnModel, nodes: &NodeTable, cfg: &InferConfig) -> Vec<(NodeId, Vec<f32>)> {
        let k = model.n_layers();
        let mut h: Vec<Vec<f32>> = self.rows.iter().map(|&row| nodes.features().row(row).to_vec()).collect();
        for (l, layer) in model.layers().iter().enumerate() {
            let reach = k - 1 - l;
            h = (0..self.ids.len())
                .map(|v| {
                    if self.dist[v] > reach {
                        return Vec::new();
                    }
                    let mut in_embs: Vec<(u64, f32, &[f32])> = self.in_src[self.in_ptr[v]..self.in_ptr[v + 1]]
                        .iter()
                        .map(|&(s, w)| (self.ids[s as usize].0, w, h[s as usize].as_slice()))
                        .collect();
                    let (sampling, seed, r_parts) = (cfg.sampling, cfg.engine.seed, cfg.engine.reduce_tasks);
                    merge_step(layer, sampling, seed, r_parts, self.ids[v].0, &h[v], &mut in_embs, Vec::new())
                })
                .collect();
        }
        let loss = model.config().loss;
        (0..self.ids.len())
            .filter(|&v| self.dist[v] == 0)
            .map(|v| (self.ids[v], predict_row(model.head(), loss, &h[v])))
            .collect()
    }
}

/// The node-table rows of those `candidates` that exist — one scan of the
/// table's ids against the (small) candidate set.
fn existing_rows(nodes: &NodeTable, candidates: &ScanSet) -> Vec<(NodeId, usize)> {
    if candidates.is_empty() {
        return Vec::new();
    }
    nodes.ids().iter().enumerate().filter(|(_, &id)| candidates.contains(id)).map(|(row, &id)| (id, row)).collect()
}

/// Bits of the [`ScanSet`] filter, as a power of two.
const FILTER_LOG2: u32 = 16;

/// A small id set tested against every row of a table scan. A 2¹⁶-bit
/// filter, one bit per hashed slot, answers nearly every miss before the
/// hash probe runs.
struct ScanSet {
    set: IdSet,
    filter: Vec<u64>,
}

impl ScanSet {
    fn new(ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self { set: IdSet::default(), filter: vec![0; 1 << (FILTER_LOG2 - 6)] };
        for id in ids {
            let bit = Self::slot(id);
            s.filter[bit >> 6] |= 1 << (bit & 63);
            s.set.insert(id);
        }
        s
    }

    fn slot(id: NodeId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_LOG2)) as usize
    }

    fn contains(&self, id: NodeId) -> bool {
        let bit = Self::slot(id);
        self.filter[bit >> 6] & (1 << (bit & 63)) != 0 && self.set.contains(&id)
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use agl_flat::SamplingStrategy;
    use agl_infer::GraphInfer;
    use agl_nn::{Loss, ModelConfig, ModelKind};
    use agl_tensor::rng::Rng;
    use agl_tensor::{seeded_rng, Matrix};

    fn toy(n: u64, seed: u64) -> (NodeTable, EdgeTable) {
        let mut rng = seeded_rng(seed);
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut feats = Matrix::zeros(n as usize, 4);
        for i in 0..n as usize {
            for d in 0..4 {
                feats[(i, d)] = rng.gen_range(-1.0..1.0f32);
            }
        }
        let mut pairs = Vec::new();
        for i in 0..n {
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if i != j {
                    pairs.push((i, j));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        (NodeTable::new(ids, feats, None), EdgeTable::from_pairs(pairs))
    }

    fn model() -> GnnModel {
        GnnModel::new(ModelConfig::new(ModelKind::Gcn, 4, 8, 3, 2, Loss::SoftmaxCrossEntropy))
    }

    /// A sparse weighted graph with parallel edges: `n` nodes, two random
    /// out-edges each, plus a duplicate of every 7th row (same weight) and
    /// of every 11th row (different weight).
    fn sparse(n: u64, seed: u64) -> (NodeTable, EdgeTable) {
        let mut rng = seeded_rng(seed);
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut feats = Matrix::zeros(n as usize, 4);
        for i in 0..n as usize {
            for d in 0..4 {
                feats[(i, d)] = rng.gen_range(-1.0..1.0f32);
            }
        }
        let mut rows = Vec::new();
        for i in 0..n {
            for _ in 0..2 {
                let j = rng.gen_range(0..n);
                if i != j {
                    rows.push(EdgeRow { src: NodeId(i), dst: NodeId(j), weight: rng.gen_range(0.5..2.0f32) });
                }
            }
        }
        let base = rows.len();
        for i in (0..base).step_by(7) {
            rows.push(rows[i]);
        }
        for i in (0..base).step_by(11) {
            rows.push(EdgeRow { weight: rows[i].weight + 0.25, ..rows[i] });
        }
        (NodeTable::new(ids, feats, None), EdgeTable::new(rows, None))
    }

    /// Assert every stored row is bit-equal to a full re-infer's row.
    fn assert_store_matches(store: &EmbeddingStore, full: &agl_infer::InferOutput, case: &str) {
        for s in &full.scores {
            let got = store.get(s.node).unwrap();
            let got_bytes: Vec<[u8; 4]> = got.iter().map(|f| f.to_le_bytes()).collect();
            let want_bytes: Vec<[u8; 4]> = s.probs.iter().map(|f| f.to_le_bytes()).collect();
            assert_eq!(got_bytes, want_bytes, "{case}: node {} diverged", s.node.0);
        }
    }

    /// The pinned contract: dirty re-infer ≡ full recompute, byte-identical,
    /// for every layer kind, sampling strategy and two reduce-task counts
    /// (the segment count of the per-node fold), over a graph with parallel
    /// edges and a delta that changes features, adds an edge and removes
    /// one copy of a parallel edge.
    #[test]
    fn incremental_update_matches_full_recompute_byte_identically() {
        let (nodes, edges) = sparse(400, 9);
        let scfg = ServeConfig { shards: 4, ..ServeConfig::default() };

        // Post-update tables: three nodes' features move, one edge is
        // added, and the first duplicated row loses one of its two copies.
        let touched = [NodeId(3), NodeId(170), NodeId(342)];
        let mut feats = nodes.features().clone();
        for t in &touched {
            for d in 0..4 {
                feats[(t.0 as usize, d)] += 0.5;
            }
        }
        let new_nodes = NodeTable::new(nodes.ids().to_vec(), feats, None);
        let added = EdgeRow { src: NodeId(55), dst: NodeId(281), weight: 1.5 };
        let removed = edges.rows()[0];
        let mut new_rows = edges.rows()[1..].to_vec();
        new_rows.push(added);
        let new_edges = EdgeTable::new(new_rows, None);
        let delta = GraphDelta::features(touched).with_edge(added.src, added.dst).with_edge(removed.src, removed.dst);

        let kinds =
            [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath];
        let samplings = [
            SamplingStrategy::None,
            SamplingStrategy::Uniform { max_degree: 2 },
            SamplingStrategy::Weighted { max_degree: 2 },
        ];
        for kind in kinds {
            let m = GnnModel::new(ModelConfig::new(kind, 4, 8, 3, 2, Loss::SoftmaxCrossEntropy));
            for (sampling, reduce_tasks) in samplings.into_iter().flat_map(|s| [(s, 4), (s, 3)]) {
                let case = format!("{} / {sampling:?} / reduce_tasks {reduce_tasks}", kind.name());
                let mut cfg = InferConfig { sampling, ..InferConfig::default() }.with_seed(5);
                cfg.engine.reduce_tasks = reduce_tasks;
                let store =
                    EmbeddingStore::build(&GraphInfer::new(cfg.clone()).run(&m, &nodes, &edges).unwrap(), &scfg);
                let report = update_incremental(&store, &m, &new_nodes, &new_edges, &delta, &cfg).unwrap();
                let got = (report.touched, report.dirty, report.closure_nodes, report.closure_edges);
                assert_eq!(got, (5, 35, 202, 299), "{case}: update report");
                let full = GraphInfer::new(cfg).run(&m, &new_nodes, &new_edges).unwrap();
                assert_store_matches(&store, &full, &case);
            }
        }
    }

    /// Edges with an endpoint missing from the node table are skipped, as
    /// GraphInfer skips them: the update stays bit-equal to a full re-infer.
    #[test]
    fn dangling_edges_are_skipped_like_graphinfer() {
        let (nodes, edges) = sparse(200, 4);
        let mut rows = edges.rows().to_vec();
        let (ghost_src, ghost_dst) = (NodeId(9_000), NodeId(9_001));
        rows.extend([
            // Into a touched node: a dangling entry in a dirty node's in-edges.
            EdgeRow { src: ghost_src, dst: NodeId(3), weight: 1.0 },
            // Out of a touched node: a dangling step of the forward search.
            EdgeRow { src: NodeId(3), dst: ghost_dst, weight: 1.0 },
            EdgeRow { src: ghost_src, dst: ghost_dst, weight: 1.0 },
        ]);
        let edges = EdgeTable::new(rows, None);
        let m = model();
        let cfg = InferConfig { sampling: SamplingStrategy::Weighted { max_degree: 2 }, ..InferConfig::default() };
        let scfg = ServeConfig::default();
        let store = EmbeddingStore::build(&GraphInfer::new(cfg.clone()).run(&m, &nodes, &edges).unwrap(), &scfg);

        let mut feats = nodes.features().clone();
        for t in [3usize, 50] {
            feats[(t, 0)] -= 1.0;
        }
        let new_nodes = NodeTable::new(nodes.ids().to_vec(), feats, None);
        // A touched id missing from the node table is ignored too.
        let delta = GraphDelta::features([NodeId(3), NodeId(50), ghost_dst]);
        let report = update_incremental(&store, &m, &new_nodes, &edges, &delta, &cfg).unwrap();
        assert!(report.dirty >= 2 && report.closure_nodes < nodes.len(), "{report:?}");

        let full = GraphInfer::new(cfg).run(&m, &new_nodes, &edges).unwrap();
        assert!(full.counters.get("infer.dangling_edge_sources") > 0);
        assert!(full.counters.get("infer.dangling_edge_destinations") > 0);
        assert_store_matches(&store, &full, "dangling");
    }

    #[test]
    fn untouched_far_nodes_are_not_recomputed() {
        // A long chain: 0→1→2→...→9. Touching node 0 with a 2-layer model
        // dirties exactly {0, 1, 2}.
        let n = 10u64;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut feats = Matrix::zeros(n as usize, 4);
        for i in 0..n as usize {
            feats[(i, 0)] = i as f32;
        }
        let edges = EdgeTable::from_pairs((0..n - 1).map(|i| (i, i + 1)));
        let nodes = NodeTable::new(ids, feats, None);
        let m = model();
        let cfg = InferConfig::default();
        let store = EmbeddingStore::build(
            &GraphInfer::new(cfg.clone()).run(&m, &nodes, &edges).unwrap(),
            &ServeConfig::default(),
        );
        let report = update_incremental(&store, &m, &nodes, &edges, &GraphDelta::features([NodeId(0)]), &cfg).unwrap();
        assert_eq!(report.dirty, 3, "chain: touched + 2 hops downstream");
        assert_eq!(report.closure_nodes, 3, "backward closure adds nothing new on a chain head");
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let (nodes, edges) = toy(20, 1);
        let m = model();
        let cfg = InferConfig::default();
        let store = EmbeddingStore::build(
            &GraphInfer::new(cfg.clone()).run(&m, &nodes, &edges).unwrap(),
            &ServeConfig::default(),
        );
        let report = update_incremental(&store, &m, &nodes, &edges, &GraphDelta::default(), &cfg).unwrap();
        assert_eq!(report.dirty, 0);
    }
}
