//! The materialised k-hop neighborhood — what the paper calls a
//! *GraphFeature* once flattened to a byte string (§3.2.1).
//!
//! A [`Subgraph`] is self-contained: it carries its own node features, edge
//! list and the (local indices of the) targeted nodes, so training workers
//! never touch the original graph. This is the data-independency property
//! Theorem 1 buys.

use crate::idhash::IdSet;
use crate::tables::NodeId;
use agl_tensor::{Coo, Csr, Matrix};

/// A directed edge inside a subgraph, in local indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubEdge {
    pub src: u32,
    pub dst: u32,
    pub weight: f32,
}

/// An information-complete subgraph for one or more target nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgraph {
    /// Local indices of the targeted nodes (whose embeddings/labels matter).
    pub target_locals: Vec<u32>,
    /// Local → global id map. `node_ids[i]` is the global id of local `i`.
    pub node_ids: Vec<NodeId>,
    /// Node feature matrix, `|nodes| × f_n`, local index order.
    pub features: Matrix,
    /// Directed edges in local indices.
    pub edges: Vec<SubEdge>,
    /// Optional edge features, one row per entry of `edges`.
    pub edge_features: Option<Matrix>,
}

impl Subgraph {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Global ids of the targets.
    pub fn target_ids(&self) -> Vec<NodeId> {
        self.target_locals.iter().map(|&l| self.node_ids[l as usize]).collect()
    }

    /// Build the destination-sorted in-edge CSR (`row v` = sources of `v`),
    /// the adjacency the vectorization phase feeds to the model (§3.3.1).
    pub fn in_csr(&self) -> Csr {
        let n = self.n_nodes();
        let mut coo = Coo::new(n, n);
        for e in &self.edges {
            coo.push(e.dst, e.src, e.weight);
        }
        coo.into_csr()
    }

    /// Structural sanity check: local indices in range, targets valid,
    /// feature rows aligned. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_nodes() as u32;
        if self.features.rows() != self.n_nodes() {
            return Err(format!("feature rows {} != nodes {}", self.features.rows(), self.n_nodes()));
        }
        for &t in &self.target_locals {
            if t >= n {
                return Err(format!("target local {t} out of range {n}"));
            }
        }
        for e in &self.edges {
            if e.src >= n || e.dst >= n {
                return Err(format!("edge ({},{}) out of range {n}", e.src, e.dst));
            }
        }
        if let Some(ef) = &self.edge_features {
            if ef.rows() != self.edges.len() {
                return Err(format!("edge feature rows {} != edges {}", ef.rows(), self.edges.len()));
            }
        }
        let mut seen = IdSet::with_capacity_and_hasher(self.node_ids.len(), Default::default());
        for &id in &self.node_ids {
            if !seen.insert(id) {
                return Err(format!("duplicate node id {id}"));
            }
        }
        Ok(())
    }

    /// Canonicalise for structural comparison: relabel locals by sorted
    /// global id, sort edges. Two subgraphs are isomorphic-as-labelled-graphs
    /// iff their canonical forms are equal. Used to verify the MapReduce
    /// GraphFlat output against the reference BFS extraction.
    pub fn canonicalize(&self) -> Subgraph {
        let mut order: Vec<u32> = (0..self.n_nodes() as u32).collect();
        order.sort_unstable_by_key(|&l| self.node_ids[l as usize]);
        // relabel[old_local] = new_local
        let mut relabel = vec![0u32; self.n_nodes()];
        for (new, &old) in order.iter().enumerate() {
            relabel[old as usize] = new as u32;
        }
        let node_ids: Vec<NodeId> = order.iter().map(|&l| self.node_ids[l as usize]).collect();
        let mut features = Matrix::zeros(self.n_nodes(), self.features.cols());
        for (new, &old) in order.iter().enumerate() {
            features.row_mut(new).copy_from_slice(self.features.row(old as usize));
        }
        let mut edge_order: Vec<usize> = (0..self.edges.len()).collect();
        let rekey = |e: &SubEdge| (relabel[e.dst as usize], relabel[e.src as usize]);
        edge_order.sort_unstable_by_key(|&i| rekey(&self.edges[i]));
        let edges: Vec<SubEdge> = edge_order
            .iter()
            .map(|&i| {
                let e = self.edges[i];
                SubEdge { src: relabel[e.src as usize], dst: relabel[e.dst as usize], weight: e.weight }
            })
            .collect();
        let edge_features = self.edge_features.as_ref().map(|ef| {
            let mut out = Matrix::zeros(ef.rows(), ef.cols());
            for (new, &old) in edge_order.iter().enumerate() {
                out.row_mut(new).copy_from_slice(ef.row(old));
            }
            out
        });
        let mut target_locals: Vec<u32> = self.target_locals.iter().map(|&t| relabel[t as usize]).collect();
        target_locals.sort_unstable();
        Subgraph { target_locals, node_ids, features, edges, edge_features }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Subgraph {
        Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(30), NodeId(10), NodeId(20)],
            features: Matrix::from_rows(&[&[3.0], &[1.0], &[2.0]]),
            edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }, SubEdge { src: 2, dst: 0, weight: 0.5 }],
            edge_features: None,
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut s = sample();
        s.edges.push(SubEdge { src: 9, dst: 0, weight: 1.0 });
        assert!(s.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let mut s = sample();
        s.node_ids[2] = NodeId(10);
        assert!(s.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn canonicalize_is_permutation_invariant() {
        let s = sample();
        let c1 = s.canonicalize();
        // Permute locals: swap 0 and 2.
        let permuted = Subgraph {
            target_locals: vec![2],
            node_ids: vec![NodeId(20), NodeId(10), NodeId(30)],
            features: Matrix::from_rows(&[&[2.0], &[1.0], &[3.0]]),
            edges: vec![SubEdge { src: 1, dst: 2, weight: 1.0 }, SubEdge { src: 0, dst: 2, weight: 0.5 }],
            edge_features: None,
        };
        let c2 = permuted.canonicalize();
        assert_eq!(c1, c2);
        // canonical node ids are sorted
        assert_eq!(c1.node_ids, vec![NodeId(10), NodeId(20), NodeId(30)]);
    }

    #[test]
    fn in_csr_sorted_by_destination() {
        let s = sample();
        let csr = s.in_csr();
        assert_eq!(csr.n_rows(), 3);
        let (srcs, ws) = csr.row(0);
        assert_eq!(srcs, &[1, 2]);
        assert_eq!(ws, &[1.0, 0.5]);
    }

    #[test]
    fn target_ids_resolve_globals() {
        assert_eq!(sample().target_ids(), vec![NodeId(30)]);
    }
}
