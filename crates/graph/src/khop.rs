//! Reference (single-machine) k-hop neighborhood extraction — Definition 1.
//!
//! `GraphFlat` produces the same subgraphs with a K-round MapReduce; this
//! module is the oracle those pipelines are validated against, and doubles
//! as the extractor the in-memory baseline uses for its "original inference
//! module" (Table 5's comparison row).
//!
//! Two edge rules are offered:
//!
//! * [`EdgeRule::Sufficient`] — edges `(u → w)` with `d(targets, w) ≤ k−1`.
//!   This is exactly the edge set the message-passing pipeline accumulates
//!   after `k` merge/propagate rounds, and per Theorem 1 it is sufficient
//!   *and necessary* for a k-layer GNN on the targets.
//! * [`EdgeRule::Induced`] — every edge of `E` with both endpoints inside
//!   the node set (the literal induced-subgraph reading of Definition 1).
//!   A superset of `Sufficient`; the extra edges are pruned away by the
//!   trainer's graph-pruning strategy anyway.

use crate::bfs::{multi_source_distances, UNREACHED};
use crate::graph::Graph;
use crate::subgraph::{SubEdge, Subgraph};
use crate::tables::NodeId;
use agl_tensor::Matrix;

/// Which edges the extracted neighborhood keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeRule {
    /// Message-passing-equivalent edge set (what GraphFlat emits).
    #[default]
    Sufficient,
    /// Full induced subgraph (Definition 1 verbatim).
    Induced,
}

/// Extract the k-hop neighborhood of `targets` (global ids) from `graph`.
///
/// Local node 0..t-1 are the targets in the order given; remaining nodes
/// follow in BFS discovery order. Panics if a target id is unknown.
pub fn khop_subgraph(graph: &Graph, targets: &[NodeId], k: u32, rule: EdgeRule) -> Subgraph {
    let target_locals: Vec<u32> =
        targets.iter().map(|&t| graph.local(t).unwrap_or_else(|| panic!("unknown target {t}"))).collect();
    let dist = multi_source_distances(graph.in_adj(), &target_locals, Some(k));

    // Collect member nodes: targets first (in caller order), then the rest
    // ordered by (distance, local index) for determinism.
    let mut members: Vec<u32> = target_locals.clone();
    let mut is_target = vec![false; graph.n_nodes()];
    for &t in &target_locals {
        is_target[t as usize] = true;
    }
    let mut rest: Vec<u32> =
        (0..graph.n_nodes() as u32).filter(|&v| dist[v as usize] != UNREACHED && !is_target[v as usize]).collect();
    rest.sort_unstable_by_key(|&v| (dist[v as usize], v));
    members.extend(rest);

    // Global -> subgraph-local mapping.
    let mut local_of = vec![u32::MAX; graph.n_nodes()];
    for (l, &g) in members.iter().enumerate() {
        local_of[g as usize] = l as u32;
    }

    let fdim = graph.features().cols();
    let mut features = Matrix::zeros(members.len(), fdim);
    for (l, &g) in members.iter().enumerate() {
        features.row_mut(l).copy_from_slice(graph.features().row(g as usize));
    }

    let mut edges = Vec::new();
    let mut edge_feature_slots = Vec::new();
    for (l_dst, &g_dst) in members.iter().enumerate() {
        let keep_dst = match rule {
            EdgeRule::Sufficient => dist[g_dst as usize] < k,
            EdgeRule::Induced => true,
        };
        if !keep_dst {
            continue;
        }
        let (srcs, ws) = graph.in_neighbors(g_dst);
        let row_base = graph.in_adj().indptr()[g_dst as usize];
        for (pos, (&s, &w)) in srcs.iter().zip(ws).enumerate() {
            let l_src = local_of[s as usize];
            if l_src == u32::MAX {
                // Source outside the k-hop node set. Under Sufficient this
                // cannot happen (d(src) <= d(dst)+1 <= k); under Induced it
                // just means the edge is not induced.
                debug_assert!(rule == EdgeRule::Induced || dist[s as usize] != UNREACHED);
                continue;
            }
            edges.push(SubEdge { src: l_src, dst: l_dst as u32, weight: w });
            edge_feature_slots.push(row_base + pos);
        }
    }

    let edge_features = graph.edge_features().map(|ef| {
        let mut out = Matrix::zeros(edges.len(), ef.cols());
        for (i, &slot) in edge_feature_slots.iter().enumerate() {
            out.row_mut(i).copy_from_slice(ef.row(slot));
        }
        out
    });

    let node_ids = members.iter().map(|&g| graph.node_id(g)).collect();
    Subgraph { target_locals: (0..target_locals.len() as u32).collect(), node_ids, features, edges, edge_features }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{EdgeTable, NodeTable};

    /// Diamond + tail:
    ///   1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4, 4 -> 5, and a lateral 2 -> 3.
    fn g() -> Graph {
        let ids: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let feats = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let nodes = NodeTable::new(ids, feats, None);
        let edges = EdgeTable::from_pairs([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 3)]);
        Graph::from_tables(&nodes, &edges)
    }

    #[test]
    fn zero_hop_is_just_the_target() {
        let s = khop_subgraph(&g(), &[NodeId(4)], 0, EdgeRule::Sufficient);
        assert_eq!(s.n_nodes(), 1);
        assert_eq!(s.n_edges(), 0);
        assert_eq!(s.node_ids, vec![NodeId(4)]);
        assert_eq!(s.features.row(0), &[4.0]);
    }

    #[test]
    fn one_hop_contains_in_neighbors_and_their_edges_to_target() {
        let s = khop_subgraph(&g(), &[NodeId(4)], 1, EdgeRule::Sufficient);
        let mut ids = s.node_ids.clone();
        ids.sort();
        assert_eq!(ids, vec![NodeId(2), NodeId(3), NodeId(4)]);
        // Sufficient rule at k=1: only edges whose dst is the target.
        assert_eq!(s.n_edges(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn induced_superset_of_sufficient() {
        let suff = khop_subgraph(&g(), &[NodeId(4)], 1, EdgeRule::Sufficient);
        let ind = khop_subgraph(&g(), &[NodeId(4)], 1, EdgeRule::Induced);
        assert_eq!(suff.n_nodes(), ind.n_nodes());
        // Induced additionally has the lateral edge 2 -> 3.
        assert_eq!(ind.n_edges(), 3);
        assert!(ind.n_edges() >= suff.n_edges());
    }

    #[test]
    fn two_hop_reaches_roots() {
        let s = khop_subgraph(&g(), &[NodeId(4)], 2, EdgeRule::Sufficient);
        let mut ids = s.node_ids.clone();
        ids.sort();
        assert_eq!(ids, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        // edges with d(dst) <= 1: into 4 (2), into 2 (1), into 3 (2: from 1 and from 2)
        assert_eq!(s.n_edges(), 5);
    }

    #[test]
    fn batch_targets_share_neighborhood() {
        let s = khop_subgraph(&g(), &[NodeId(4), NodeId(5)], 1, EdgeRule::Sufficient);
        assert_eq!(s.target_locals, vec![0, 1]);
        assert_eq!(s.target_ids(), vec![NodeId(4), NodeId(5)]);
        let mut ids = s.node_ids.clone();
        ids.sort();
        assert_eq!(ids, vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn downstream_nodes_excluded() {
        // Node 5 is downstream of 4; a k-hop neighborhood of 4 must not
        // contain it (aggregation only looks at in-edges).
        let s = khop_subgraph(&g(), &[NodeId(4)], 3, EdgeRule::Sufficient);
        assert!(!s.node_ids.contains(&NodeId(5)));
    }
}
