//! Subgraph vectorization (§3.3.1): merge a batch of GraphFeatures and
//! build the matrices the model computes on.
//!
//! > *"the training process of GNNs has to merge the subgraphs described by
//! > GraphFeatures together, and then vectorize the merged subgraph"*
//!
//! producing the adjacency matrix `A_B` (edges sorted by destination), node
//! feature matrix `X_B` and edge feature matrix `E_B`.

use agl_flat::builder::SubgraphBuilder;
use agl_flat::{decode_graph_feature, TrainingExample};
use agl_graph::{NodeId, Subgraph};
use agl_tensor::{Csr, Matrix};

/// A vectorized batch: the three matrices of §3.3.1 plus targets/labels.
#[derive(Debug, Clone)]
pub struct VectorizedBatch {
    /// `A_B` — raw merged in-edge adjacency (destination-sorted), before
    /// any model-specific preprocessing or pruning.
    pub adj: Csr,
    /// `X_B` — node features, local index order.
    pub features: Matrix,
    /// `E_B` — edge features aligned with [`Subgraph::edges`] order of the
    /// merged subgraph (when the dataset has edge features).
    pub edge_features: Option<Matrix>,
    /// Local indices of the targeted nodes, one per batch example.
    pub targets: Vec<usize>,
    /// Labels, one row per target.
    pub labels: Matrix,
    /// Global ids of the targets, aligned with `targets`.
    pub target_ids: Vec<NodeId>,
    /// Global ids of *every* local node, aligned with `features` rows —
    /// what [`canonicalize_adj_rows`] keys its per-row sort on.
    pub node_ids: Vec<NodeId>,
}

impl VectorizedBatch {
    pub fn n_nodes(&self) -> usize {
        self.features.rows()
    }

    pub fn n_edges(&self) -> usize {
        self.adj.nnz()
    }

    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }
}

/// Merge and vectorize a batch of training triples.
///
/// `label_dim` fixes the width of the label matrix (an example with an
/// empty label contributes a zero row — inference batches have no labels).
pub fn vectorize(batch: &[TrainingExample], label_dim: usize) -> VectorizedBatch {
    assert!(!batch.is_empty(), "empty batch");
    let mut builder = SubgraphBuilder::new();
    let mut target_ids = Vec::with_capacity(batch.len());
    let mut labels = Matrix::zeros(batch.len(), label_dim);
    for (i, ex) in batch.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "TrainingExamples carry GraphFlat-encoded features; a decode failure is a pipeline bug"
        )]
        let sub = decode_graph_feature(&ex.graph_feature).expect("corrupt GraphFeature");
        debug_assert_eq!(sub.target_ids(), vec![ex.target], "GraphFeature target mismatch");
        builder.absorb(&sub);
        target_ids.push(ex.target);
        if !ex.label.is_empty() {
            assert_eq!(ex.label.len(), label_dim, "label width mismatch for {}", ex.target);
            labels.row_mut(i).copy_from_slice(&ex.label);
        }
    }
    from_subgraph(builder.build(&target_ids), labels)
}

/// Vectorize an already-merged subgraph (targets first, per
/// `SubgraphBuilder::build`), moving its feature matrices and ids into the
/// batch. Exposed for the baseline engine and tests.
pub fn from_subgraph(merged: Subgraph, labels: Matrix) -> VectorizedBatch {
    let adj = merged.in_csr();
    let target_ids = merged.target_ids();
    VectorizedBatch {
        adj,
        features: merged.features,
        edge_features: merged.edge_features,
        targets: merged.target_locals.iter().map(|&t| t as usize).collect(),
        labels,
        target_ids,
        node_ids: merged.node_ids,
    }
}

/// Reorder every adjacency row's entries into ascending **global** source
/// node-id order.
///
/// `Coo::into_csr` sorts rows by *local* column index, and the local
/// numbering depends on how a batch merged (targets first, then neighbors
/// in absorb order) — so a float fold over a row depends on which batch
/// the node landed in. Consumers that must agree with the canonical global
/// fold of the GraphInfer reducers (ascending source id) apply this to the
/// *final* per-layer adjacencies — after `prepare_adj`, whose
/// `with_self_loops` rebuilds rows in local order.
pub fn canonicalize_adj_rows(adj: &Csr, node_ids: &[NodeId]) -> Csr {
    let mut indices = Vec::with_capacity(adj.nnz());
    let mut values = Vec::with_capacity(adj.nnz());
    for r in 0..adj.n_rows() {
        let (srcs, ws) = adj.row(r);
        let mut entries: Vec<(u32, f32)> = srcs.iter().copied().zip(ws.iter().copied()).collect();
        entries.sort_by_key(|&(c, _)| node_ids[c as usize]);
        for (c, w) in entries {
            indices.push(c);
            values.push(w);
        }
    }
    Csr::from_raw(adj.n_rows(), adj.n_cols(), adj.indptr().to_vec(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_flat::encode_graph_feature;
    use agl_graph::SubEdge;

    /// GraphFeature: target `id` with one in-neighbor `id+100`.
    fn example(id: u64, label: Vec<f32>) -> TrainingExample {
        let sub = Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(id), NodeId(id + 100)],
            features: Matrix::from_rows(&[&[id as f32], &[(id + 100) as f32]]),
            edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
            edge_features: None,
        };
        TrainingExample { target: NodeId(id), label, graph_feature: encode_graph_feature(&sub) }
    }

    #[test]
    fn disjoint_examples_concatenate() {
        let batch = vec![example(1, vec![1.0, 0.0]), example(2, vec![0.0, 1.0])];
        let v = vectorize(&batch, 2);
        assert_eq!(v.n_nodes(), 4);
        assert_eq!(v.n_edges(), 2);
        assert_eq!(v.targets.len(), 2);
        assert_eq!(v.labels.row(1), &[0.0, 1.0]);
        assert_eq!(v.target_ids, vec![NodeId(1), NodeId(2)]);
        // Targets occupy the first local slots.
        assert_eq!(v.targets, vec![0, 1]);
        // Feature rows follow the merged local order.
        assert_eq!(v.features.row(0), &[1.0]);
    }

    #[test]
    fn overlapping_neighborhoods_deduplicate() {
        // Two targets share in-neighbor 101.
        let mk = |id: u64| {
            let sub = Subgraph {
                target_locals: vec![0],
                node_ids: vec![NodeId(id), NodeId(101)],
                features: Matrix::from_rows(&[&[id as f32], &[101.0]]),
                edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
                edge_features: None,
            };
            TrainingExample { target: NodeId(id), label: vec![0.0], graph_feature: encode_graph_feature(&sub) }
        };
        let v = vectorize(&[mk(1), mk(2)], 1);
        assert_eq!(v.n_nodes(), 3, "shared neighbor stored once");
        assert_eq!(v.n_edges(), 2);
    }

    #[test]
    fn adjacency_rows_are_destination_sorted() {
        let batch = vec![example(5, vec![0.0])];
        let v = vectorize(&batch, 1);
        let (srcs, ws) = v.adj.row(v.targets[0]);
        assert_eq!(srcs.len(), 1);
        assert_eq!(ws, &[1.0]);
    }

    #[test]
    fn empty_labels_are_zero_rows() {
        let batch = vec![example(9, vec![])];
        let v = vectorize(&batch, 3);
        assert_eq!(v.labels.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = vectorize(&[], 1);
    }
}
