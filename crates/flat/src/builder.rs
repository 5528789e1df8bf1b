//! Subgraph union — the *merging* half of the message-passing scheme.
//!
//! A reduce group merges its self info with the payload subgraphs arriving
//! on in-edges. Nodes are deduplicated by global id (their features are
//! identical by construction); edges by `(src, dst)` endpoint pair.

use agl_graph::idhash::IdBuildHasher;
use agl_graph::{IdMap, NodeId, SubEdge, Subgraph};
use agl_tensor::Matrix;
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// Incrementally unions subgraphs in global-id space.
///
/// Nodes get insertion-local indices; edges and the feature slabs refer to
/// those, and [`SubgraphBuilder::build`] relabels everything once. The
/// id-hashed containers are only probed, never iterated, so their order
/// cannot reach the output.
#[derive(Debug, Default)]
pub struct SubgraphBuilder {
    local_of: IdMap<u32>,
    node_ids: Vec<NodeId>,
    /// Node feature rows, `f_dim` floats per node, insertion order.
    node_features: Vec<f32>,
    f_dim: Option<usize>,
    /// Edges present so far, as `src << 32 | dst` insertion-local indices.
    edge_set: HashSet<u64, IdBuildHasher>,
    /// `(src, dst, weight)` in insertion-local indices.
    edges: Vec<(u32, u32, f32)>,
    /// Edge feature rows, `ef_dim` floats per edge once the width is known;
    /// an edge added without features holds a zero row.
    edge_features: Vec<f32>,
    ef_dim: Option<usize>,
}

impl SubgraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes so far.
    pub fn n_nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of distinct edges so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add (or re-add — idempotent) a node with its feature vector. A
    /// re-added node keeps its first row; GraphFlat guarantees every copy
    /// of a node carries the same features, which debug builds check.
    pub fn add_node(&mut self, id: NodeId, features: &[f32]) {
        let f_dim = *self.f_dim.get_or_insert(features.len());
        assert_eq!(f_dim, features.len(), "inconsistent feature width");
        match self.local_of.entry(id) {
            Entry::Occupied(o) => {
                let l = *o.get() as usize;
                debug_assert!(
                    self.node_features[l * f_dim..][..f_dim]
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(features.iter().map(|x| x.to_bits())),
                    "node {id} re-added with features that differ from its first row"
                );
            }
            Entry::Vacant(v) => {
                v.insert(self.node_ids.len() as u32);
                self.node_ids.push(id);
                self.node_features.extend_from_slice(features);
            }
        }
    }

    /// True if the node is already present.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.local_of.contains_key(&id)
    }

    /// Add (or re-add — idempotent) a directed edge in global ids. Both
    /// endpoints must already be present.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f32, edge_features: Option<&[f32]>) {
        let (Some(&s), Some(&d)) = (self.local_of.get(&src), self.local_of.get(&dst)) else {
            assert!(self.has_node(src), "edge source {src} not added");
            assert!(self.has_node(dst), "edge destination {dst} not added");
            return;
        };
        if let Some(ef) = edge_features {
            match self.ef_dim {
                Some(d) => assert_eq!(d, ef.len(), "inconsistent edge feature width"),
                None => {
                    self.ef_dim = Some(ef.len());
                    // Edges added before the width was known get zero rows.
                    self.edge_features.resize(self.edges.len() * ef.len(), 0.0);
                }
            }
        }
        if !self.edge_set.insert(u64::from(s) << 32 | u64::from(d)) {
            return;
        }
        self.edges.push((s, d, weight));
        if let Some(ef_dim) = self.ef_dim {
            match edge_features {
                Some(ef) => self.edge_features.extend_from_slice(ef),
                None => self.edge_features.resize(self.edges.len() * ef_dim, 0.0),
            }
        }
    }

    /// Union a whole subgraph (nodes first, then edges).
    pub fn absorb(&mut self, sub: &Subgraph) {
        for (l, id) in sub.node_ids.iter().enumerate() {
            self.add_node(*id, sub.features.row(l));
        }
        for (i, e) in sub.edges.iter().enumerate() {
            let ef = sub.edge_features.as_ref().map(|m| m.row(i));
            self.add_edge(sub.node_ids[e.src as usize], sub.node_ids[e.dst as usize], e.weight, ef);
        }
    }

    /// Finish, declaring `targets` (must all be present). Node order is
    /// targets first, then remaining nodes sorted by global id for
    /// determinism across merge orders.
    pub fn build(self, targets: &[NodeId]) -> Subgraph {
        let f_dim = self.f_dim.unwrap_or(0);
        let n = self.node_ids.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut is_target = vec![false; n];
        for t in targets {
            assert!(self.has_node(*t), "target {t} not in subgraph");
            let l = self.local_of[t];
            is_target[l as usize] = true;
            order.push(l);
        }
        let mut rest: Vec<u32> = (0..n as u32).filter(|&l| !is_target[l as usize]).collect();
        rest.sort_unstable_by_key(|&l| self.node_ids[l as usize]);
        order.extend(rest);

        // new_local[insertion-local] = output local.
        let mut new_local = vec![0u32; n];
        let mut node_ids = Vec::with_capacity(order.len());
        let mut features = Matrix::zeros(order.len(), f_dim);
        for (new, &old) in order.iter().enumerate() {
            new_local[old as usize] = new as u32;
            node_ids.push(self.node_ids[old as usize]);
            features.row_mut(new).copy_from_slice(&self.node_features[old as usize * f_dim..][..f_dim]);
        }
        // Deterministic edge order: sort by (dst, src) global ids. Each
        // pair occurs once, so the trailing index never decides.
        let mut edge_order: Vec<(NodeId, NodeId, usize)> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, &(s, d, _))| (self.node_ids[d as usize], self.node_ids[s as usize], i))
            .collect();
        edge_order.sort_unstable();
        let edges: Vec<SubEdge> = edge_order
            .iter()
            .map(|&(_, _, i)| {
                let (s, d, weight) = self.edges[i];
                SubEdge { src: new_local[s as usize], dst: new_local[d as usize], weight }
            })
            .collect();
        let edge_features = self.ef_dim.map(|d| {
            let mut m = Matrix::zeros(edges.len(), d);
            for (new, &(_, _, old)) in edge_order.iter().enumerate() {
                m.row_mut(new).copy_from_slice(&self.edge_features[old * d..][..d]);
            }
            m
        });
        Subgraph { target_locals: (0..targets.len() as u32).collect(), node_ids, features, edges, edge_features }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(id: u64, feat: f32) -> Subgraph {
        Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(id)],
            features: Matrix::from_rows(&[&[feat]]),
            edges: vec![],
            edge_features: None,
        }
    }

    #[test]
    fn absorb_is_idempotent() {
        let mut b = SubgraphBuilder::new();
        let s = leaf(1, 0.5);
        b.absorb(&s);
        b.absorb(&s);
        assert_eq!(b.n_nodes(), 1);
        let out = b.build(&[NodeId(1)]);
        assert_eq!(out.n_nodes(), 1);
        assert_eq!(out.features.row(0), &[0.5]);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let build = |order: &[u64]| {
            let mut b = SubgraphBuilder::new();
            for &id in order {
                b.add_node(NodeId(id), &[id as f32]);
            }
            b.add_edge(NodeId(2), NodeId(1), 1.0, None);
            b.add_edge(NodeId(3), NodeId(1), 1.0, None);
            b.build(&[NodeId(1)])
        };
        let a = build(&[1, 2, 3]);
        let b = build(&[3, 1, 2]);
        assert_eq!(a, b, "deterministic regardless of insertion order");
        assert_eq!(a.node_ids[0], NodeId(1), "target first");
    }

    #[test]
    fn duplicate_edges_union_once() {
        let mut b = SubgraphBuilder::new();
        b.add_node(NodeId(1), &[0.0]);
        b.add_node(NodeId(2), &[0.0]);
        b.add_edge(NodeId(2), NodeId(1), 1.0, None);
        b.add_edge(NodeId(2), NodeId(1), 1.0, None);
        assert_eq!(b.n_edges(), 1);
        // Reverse direction is a distinct edge.
        b.add_edge(NodeId(1), NodeId(2), 1.0, None);
        assert_eq!(b.n_edges(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-added")]
    fn re_adding_a_node_with_other_features_is_caught() {
        let mut b = SubgraphBuilder::new();
        b.add_node(NodeId(1), &[0.5]);
        b.add_node(NodeId(1), &[0.5]);
        b.add_node(NodeId(1), &[0.25]);
    }

    #[test]
    fn edges_without_features_hold_zero_rows() {
        let mut b = SubgraphBuilder::new();
        for id in 1..=4 {
            b.add_node(NodeId(id), &[0.0]);
        }
        // The first edge arrives before any edge feature width is known.
        b.add_edge(NodeId(4), NodeId(1), 1.0, None);
        b.add_edge(NodeId(3), NodeId(1), 1.0, Some(&[8.0, 9.0]));
        b.add_edge(NodeId(2), NodeId(1), 1.0, None);
        let s = b.build(&[NodeId(1)]);
        let ef = s.edge_features.as_ref().unwrap();
        assert_eq!(ef.shape(), (3, 2));
        // Edges sorted by (dst, src): 1<-2, 1<-3, 1<-4.
        assert_eq!(ef.as_slice(), &[0.0, 0.0, 8.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not added")]
    fn edge_without_endpoint_panics() {
        let mut b = SubgraphBuilder::new();
        b.add_node(NodeId(1), &[0.0]);
        b.add_edge(NodeId(2), NodeId(1), 1.0, None);
    }

    #[test]
    #[should_panic(expected = "not in subgraph")]
    fn build_with_missing_target_panics() {
        let b = SubgraphBuilder::new();
        let _ = b.build(&[NodeId(9)]);
    }

    #[test]
    fn edge_features_preserved_through_union() {
        let mut b = SubgraphBuilder::new();
        b.add_node(NodeId(1), &[0.0]);
        b.add_node(NodeId(2), &[0.0]);
        b.add_node(NodeId(3), &[0.0]);
        b.add_edge(NodeId(2), NodeId(1), 1.0, Some(&[7.0]));
        b.add_edge(NodeId(3), NodeId(1), 1.0, Some(&[8.0]));
        let s = b.build(&[NodeId(1)]);
        let ef = s.edge_features.as_ref().unwrap();
        // Edges sorted by (dst, src) global ids: (1<-2) then (1<-3).
        assert_eq!(ef.row(0), &[7.0]);
        assert_eq!(ef.row(1), &[8.0]);
    }
}
