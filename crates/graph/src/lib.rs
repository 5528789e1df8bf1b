//! `agl-graph` — attributed directed graph substrate.
//!
//! The paper (§2.1) works on a *directed, weighted, attributed* graph
//! `G = {V, E, A, X, E}`: nodes with `f_n`-dimensional features, edges with
//! weights and optional `f_e`-dimensional features. Undirected inputs are
//! expanded into two directed edges. Aggregation always runs over the
//! **in-edge** neighbors `N+(v)`; propagation runs along **out-edges**.
//!
//! This crate provides:
//!
//! * [`tables`] — the node-table / edge-table input format GraphFlat
//!   consumes (§3.2.1: *"Assume that we take a node table and an edge table
//!   as input"*).
//! * [`graph`] — an in-memory [`Graph`] with both in-CSR and out-CSR views,
//!   used by the single-machine baseline engine and by reference
//!   implementations.
//! * [`subgraph`] — [`Subgraph`], the materialised k-hop neighborhood
//!   ("GraphFeature" before serialisation).
//! * [`khop`] — a reference BFS implementation of Definition 1, used as the
//!   oracle the MapReduce GraphFlat pipeline is tested against.
//! * [`bfs`] — multi-source distance computation shared with the pruning
//!   strategy.
//! * [`stats`] — degree statistics and hub detection used by the
//!   re-indexing threshold.
//! * [`idhash`] — a folded-multiply hasher for node-id maps and sets.

pub mod bfs;
pub mod graph;
pub mod idhash;
pub mod khop;
pub mod stats;
pub mod subgraph;
pub mod tables;

pub use graph::Graph;
pub use idhash::{IdMap, IdSet};
pub use subgraph::{SubEdge, Subgraph};
pub use tables::{EdgeTable, NodeId, NodeTable};
