//! Node/edge table input format.
//!
//! GraphFlat's contract (§3.2.1): *"the node table consists of node ids and
//! node features, while the edge table consists of source node ids,
//! destination node ids and the edge features."* These tables are what an
//! industrial user would dump out of a data warehouse; everything downstream
//! (GraphFlat, the baseline engine) is built from them.

use crate::idhash::IdMap;
use agl_tensor::Matrix;
use std::fmt;

/// A global node identifier. Industrial ids are arbitrary 64-bit keys, not
/// dense indices — the newtype keeps them from being confused with the local
/// (dense) indices used inside subgraphs and matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The node table: one row per node, with its feature vector and an optional
/// label. Labels ride along here because GraphFlat emits training triples
/// `<TargetedNodeId, Label, GraphFeature>` (§3.3.1).
#[derive(Debug, Clone)]
pub struct NodeTable {
    ids: Vec<NodeId>,
    features: Matrix,
    /// Multi-hot label vector per node (empty matrix when unlabeled).
    labels: Option<Matrix>,
}

impl NodeTable {
    /// Build a node table. `features` must have one row per id; `labels`,
    /// when present, likewise.
    pub fn new(ids: Vec<NodeId>, features: Matrix, labels: Option<Matrix>) -> Self {
        assert_eq!(ids.len(), features.rows(), "one feature row per node");
        if let Some(l) = &labels {
            assert_eq!(ids.len(), l.rows(), "one label row per node");
        }
        let mut dedup: Vec<u64> = ids.iter().map(|n| n.0).collect();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "node ids must be unique");
        Self { ids, features, labels }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Feature dimensionality `f_n`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    pub fn labels(&self) -> Option<&Matrix> {
        self.labels.as_ref()
    }

    /// Iterate `(id, feature_row)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[f32])> {
        self.ids.iter().copied().zip(self.features.rows_iter())
    }
}

/// One directed edge row of the edge table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRow {
    pub src: NodeId,
    pub dst: NodeId,
    pub weight: f32,
}

/// The edge table: directed `(src, dst, weight)` rows plus an optional
/// `f_e`-dimensional feature matrix aligned with the rows.
#[derive(Debug, Clone, Default)]
pub struct EdgeTable {
    rows: Vec<EdgeRow>,
    features: Option<Matrix>,
}

impl EdgeTable {
    pub fn new(rows: Vec<EdgeRow>, features: Option<Matrix>) -> Self {
        if let Some(f) = &features {
            assert_eq!(rows.len(), f.rows(), "one feature row per edge");
        }
        Self { rows, features }
    }

    /// Build from `(src, dst)` pairs with unit weights and no features.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let rows = pairs.into_iter().map(|(s, d)| EdgeRow { src: NodeId(s), dst: NodeId(d), weight: 1.0 }).collect();
        Self { rows, features: None }
    }

    /// Expand an undirected edge list into the two-directed-edge form of
    /// §2.1 (each undirected edge becomes `(u,v)` and `(v,u)` with the same
    /// weight/features).
    pub fn from_undirected_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut rows = Vec::new();
        for (a, b) in pairs {
            rows.push(EdgeRow { src: NodeId(a), dst: NodeId(b), weight: 1.0 });
            rows.push(EdgeRow { src: NodeId(b), dst: NodeId(a), weight: 1.0 });
        }
        Self { rows, features: None }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> &[EdgeRow] {
        &self.rows
    }

    pub fn features(&self) -> Option<&Matrix> {
        self.features.as_ref()
    }

    /// Edge feature dimensionality `f_e` (0 when absent).
    pub fn feature_dim(&self) -> usize {
        self.features.as_ref().map_or(0, Matrix::cols)
    }

    /// Iterate `(row, feature_row)` where the feature slice is empty when the
    /// table has no edge features.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeRow, &[f32])> {
        static EMPTY: [f32; 0] = [];
        self.rows.iter().enumerate().map(move |(i, r)| {
            let feat = self.features.as_ref().map_or(&EMPTY[..], |f| f.row(i));
            (*r, feat)
        })
    }
}

/// A dense mapping from arbitrary [`NodeId`]s to local `0..n` indices.
/// Shared by the in-memory [`crate::Graph`] builder and subgraph merging.
/// The hashed map is only probed, never iterated, so its order reaches no
/// output.
#[derive(Debug, Clone, Default)]
pub struct IdIndex {
    to_local: IdMap<u32>,
    to_global: Vec<NodeId>,
}

impl IdIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or look up) an id, returning its local index.
    pub fn intern(&mut self, id: NodeId) -> u32 {
        if let Some(&l) = self.to_local.get(&id) {
            return l;
        }
        let l = self.to_global.len() as u32;
        self.to_local.insert(id, l);
        self.to_global.push(id);
        l
    }

    pub fn get(&self, id: NodeId) -> Option<u32> {
        self.to_local.get(&id).copied()
    }

    pub fn global(&self, local: u32) -> NodeId {
        self.to_global[local as usize]
    }

    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    pub fn globals(&self) -> &[NodeId] {
        &self.to_global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_table_basic() {
        let t = NodeTable::new(vec![NodeId(10), NodeId(20)], Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.feature_dim(), 2);
        let rows: Vec<_> = t.iter().collect();
        assert_eq!(rows[1].0, NodeId(20));
        assert_eq!(rows[1].1, &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_node_ids_rejected() {
        let _ = NodeTable::new(vec![NodeId(1), NodeId(1)], Matrix::zeros(2, 1), None);
    }

    #[test]
    fn undirected_expansion_doubles_edges() {
        let t = EdgeTable::from_undirected_pairs([(1, 2), (2, 3)]);
        assert_eq!(t.len(), 4);
        assert!(t.rows().iter().any(|r| r.src == NodeId(2) && r.dst == NodeId(1)));
    }

    #[test]
    fn edge_iter_without_features_yields_empty_slices() {
        let t = EdgeTable::from_pairs([(1, 2)]);
        let (_, f) = t.iter().next().unwrap();
        assert!(f.is_empty());
        assert_eq!(t.feature_dim(), 0);
    }

    #[test]
    fn id_index_interns_stably() {
        let mut idx = IdIndex::new();
        let a = idx.intern(NodeId(99));
        let b = idx.intern(NodeId(7));
        assert_eq!(idx.intern(NodeId(99)), a);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.global(b), NodeId(7));
        assert_eq!(idx.get(NodeId(8)), None);
    }
}
