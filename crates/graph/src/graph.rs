//! In-memory attributed graph over its in-edge adjacency.
//!
//! This is the structure the *single-machine* baseline engine (the DGL/PyG
//! stand-in) trains on, and the source of truth the distributed pipelines
//! are validated against. AGL itself never materialises it at industrial
//! scale — that is the whole point of GraphFlat — but test-scale graphs fit
//! comfortably.

use crate::tables::{EdgeTable, IdIndex, NodeId, NodeTable};
use agl_tensor::{Coo, Csr, Matrix};

/// A directed, weighted, attributed graph (§2.1) in memory.
///
/// Nodes are re-indexed to dense local indices `0..n`; [`Graph::node_ids`]
/// maps back to the original ids.
#[derive(Debug, Clone)]
pub struct Graph {
    index: IdIndex,
    features: Matrix,
    labels: Option<Matrix>,
    /// Row `v` lists in-edge sources `N+(v)` — the aggregation direction.
    in_adj: Csr,
    /// Edge features aligned with `in_adj` entry order (optional).
    edge_features: Option<Matrix>,
}

impl Graph {
    /// Assemble from a node table and an edge table. Edges referencing
    /// unknown node ids are rejected (industrial pipelines validate
    /// referential integrity before GraphFlat runs).
    pub fn from_tables(nodes: &NodeTable, edges: &EdgeTable) -> Self {
        let mut index = IdIndex::new();
        for &id in nodes.ids() {
            index.intern(id);
        }
        let n = index.len();
        let mut in_coo = Coo::new(n, n);
        for (row, _) in edges.iter() {
            let s = index.get(row.src).unwrap_or_else(|| panic!("edge references unknown src {}", row.src));
            let d = index.get(row.dst).unwrap_or_else(|| panic!("edge references unknown dst {}", row.dst));
            in_coo.push(d, s, row.weight);
        }
        let in_adj = in_coo.into_csr();
        // Align edge features with in_adj entry order when present. Because
        // into_csr() merges duplicate (dst, src) pairs, edge features are only
        // kept when the edge list is duplicate-free.
        let edge_features = edges.features().and_then(|feats| {
            if in_adj.nnz() != edges.len() {
                return None; // duplicates merged; per-edge features undefined
            }
            let mut out = Matrix::zeros(in_adj.nnz(), feats.cols());
            // Recompute each edge's slot in CSR order.
            let mut cursor: Vec<usize> = in_adj.indptr().to_vec();
            // Pre-sort entries by (dst, src) exactly as CSR stores them.
            let mut order: Vec<usize> = (0..edges.len()).collect();
            order.sort_unstable_by_key(|&i| {
                let r = edges.rows()[i];
                (index.get(r.dst).unwrap(), index.get(r.src).unwrap())
            });
            for &ei in &order {
                let r = edges.rows()[ei];
                let d = index.get(r.dst).unwrap() as usize;
                let slot = cursor[d];
                cursor[d] += 1;
                out.row_mut(slot).copy_from_slice(feats.row(ei));
            }
            Some(out)
        });
        Self { index, features: nodes.features().clone(), labels: nodes.labels().cloned(), in_adj, edge_features }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.index.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.in_adj.nnz()
    }

    /// Node feature matrix `X` (dense local index order).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Per-node label matrix when the node table carried labels.
    pub fn labels(&self) -> Option<&Matrix> {
        self.labels.as_ref()
    }

    /// Edge feature matrix aligned with [`Graph::in_adj`] entry order.
    pub fn edge_features(&self) -> Option<&Matrix> {
        self.edge_features.as_ref()
    }

    /// In-edge adjacency (row `v` = sources pointing at `v`).
    pub fn in_adj(&self) -> &Csr {
        &self.in_adj
    }

    /// Original id of local node `v`.
    pub fn node_id(&self, local: u32) -> NodeId {
        self.index.global(local)
    }

    /// All original ids in local index order.
    pub fn node_ids(&self) -> &[NodeId] {
        self.index.globals()
    }

    /// Local index of an original id.
    pub fn local(&self, id: NodeId) -> Option<u32> {
        self.index.get(id)
    }

    /// In-degree of local node `v` = `|N+(v)|`.
    pub fn in_degree(&self, v: u32) -> usize {
        self.in_adj.row_nnz(v as usize)
    }

    /// In-edge sources of `v` with weights.
    pub fn in_neighbors(&self, v: u32) -> (&[u32], &[f32]) {
        self.in_adj.row(v as usize)
    }

    /// Rebuild the `(NodeTable, EdgeTable)` pair — used to feed generated
    /// graphs into the GraphFlat pipeline, which consumes tables, not graphs.
    pub fn to_tables(&self) -> (NodeTable, EdgeTable) {
        let nodes = NodeTable::new(self.index.globals().to_vec(), self.features.clone(), self.labels.clone());
        let mut rows = Vec::with_capacity(self.n_edges());
        for (d, s, w) in self.in_adj.iter_entries() {
            rows.push(crate::tables::EdgeRow { src: self.index.global(s), dst: self.index.global(d), weight: w });
        }
        (nodes, EdgeTable::new(rows, self.edge_features.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path with a branch:  1 -> 2 -> 3,  4 -> 2.
    pub(crate) fn small() -> Graph {
        let nodes = NodeTable::new(
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
            Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]),
            None,
        );
        let edges = EdgeTable::from_pairs([(1, 2), (2, 3), (4, 2)]);
        Graph::from_tables(&nodes, &edges)
    }

    #[test]
    fn adjacency_directions_agree() {
        let g = small();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        let v2 = g.local(NodeId(2)).unwrap();
        let (srcs, _) = g.in_neighbors(v2);
        let in_ids: Vec<_> = srcs.iter().map(|&s| g.node_id(s)).collect();
        assert!(in_ids.contains(&NodeId(1)) && in_ids.contains(&NodeId(4)));
        assert_eq!(g.in_degree(v2), 2);
    }

    #[test]
    fn to_tables_roundtrip() {
        let g = small();
        let (nt, et) = g.to_tables();
        let g2 = Graph::from_tables(&nt, &et);
        assert_eq!(g2.n_nodes(), g.n_nodes());
        assert_eq!(g2.n_edges(), g.n_edges());
        assert!(g2.in_adj().to_dense().max_abs_diff(&g.in_adj().to_dense()) < 1e-7);
        assert_eq!(g2.features(), g.features());
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn dangling_edge_rejected() {
        let nodes = NodeTable::new(vec![NodeId(1)], Matrix::zeros(1, 1), None);
        let edges = EdgeTable::from_pairs([(1, 999)]);
        let _ = Graph::from_tables(&nodes, &edges);
    }

    #[test]
    fn edge_features_follow_csr_order() {
        let nodes = NodeTable::new(vec![NodeId(0), NodeId(1), NodeId(2)], Matrix::zeros(3, 1), None);
        // Two edges into node 2, listed in "wrong" order relative to CSR.
        let rows = vec![
            crate::tables::EdgeRow { src: NodeId(1), dst: NodeId(2), weight: 1.0 },
            crate::tables::EdgeRow { src: NodeId(0), dst: NodeId(2), weight: 1.0 },
        ];
        let feats = Matrix::from_rows(&[&[10.0], &[20.0]]);
        let g = Graph::from_tables(&nodes, &EdgeTable::new(rows, Some(feats)));
        let ef = g.edge_features().unwrap();
        // CSR sorts row 2's sources ascending: src 0 first -> feature 20.
        assert_eq!(ef.row(0), &[20.0]);
        assert_eq!(ef.row(1), &[10.0]);
    }
}
