//! Degree statistics and hub detection.
//!
//! GraphFlat's re-indexing strategy (§3.2.2) triggers *"when the in-degree
//! of a certain shuffle key exceeds a pre-defined threshold (like 10k)"*.
//! These helpers characterise the degree skew of a graph so that threshold
//! can be chosen and so the dataset generators can assert they produced the
//! intended power-law shape.

use crate::graph::Graph;

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// 50th / 90th / 99th percentiles.
    pub p50: usize,
    pub p90: usize,
    pub p99: usize,
}

impl DegreeStats {
    /// Compute from an arbitrary degree sequence. Returns `None` when empty.
    pub fn from_degrees(mut degrees: Vec<usize>) -> Option<Self> {
        if degrees.is_empty() {
            return None;
        }
        degrees.sort_unstable();
        let n = degrees.len();
        let pct = |p: f64| degrees[(((n - 1) as f64) * p).round() as usize];
        Some(Self {
            min: degrees[0],
            max: degrees[n - 1],
            mean: degrees.iter().sum::<usize>() as f64 / n as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        })
    }
}

/// In-degree statistics of a graph.
pub fn in_degree_stats(g: &Graph) -> Option<DegreeStats> {
    DegreeStats::from_degrees((0..g.n_nodes() as u32).map(|v| g.in_degree(v)).collect())
}

/// Local indices of "hub" nodes whose in-degree exceeds `threshold` — the
/// nodes the re-indexing strategy splits across reducers.
pub fn hub_nodes(g: &Graph, threshold: usize) -> Vec<u32> {
    (0..g.n_nodes() as u32).filter(|&v| g.in_degree(v) > threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{EdgeTable, NodeId, NodeTable};
    use agl_tensor::Matrix;

    fn star(n_leaves: u64) -> Graph {
        let ids: Vec<NodeId> = (0..=n_leaves).map(NodeId).collect();
        let nodes = NodeTable::new(ids, Matrix::zeros(n_leaves as usize + 1, 1), None);
        let edges = EdgeTable::from_pairs((1..=n_leaves).map(|l| (l, 0)));
        Graph::from_tables(&nodes, &edges)
    }

    #[test]
    fn star_center_is_the_only_hub() {
        let g = star(50);
        let hubs = hub_nodes(&g, 10);
        assert_eq!(hubs.len(), 1);
        assert_eq!(g.node_id(hubs[0]), NodeId(0));
        assert!(hub_nodes(&g, 50).is_empty());
    }

    #[test]
    fn stats_capture_skew() {
        let g = star(100);
        let s = in_degree_stats(&g).unwrap();
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 0);
        assert!((s.mean - 100.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sequence_is_none() {
        assert!(DegreeStats::from_degrees(vec![]).is_none());
    }

    #[test]
    fn percentiles_of_uniform_sequence() {
        let s = DegreeStats::from_degrees((0..101).collect()).unwrap();
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
    }
}
