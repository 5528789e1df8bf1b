//! `agl-nn` — GNN layers, losses and optimizers with hand-derived backprop.
//!
//! AGL trains three widely-used GNNs (§4.1.2): **GCN**, **GraphSAGE** and
//! **GAT**. Every layer here follows the message-passing paradigm of
//! Equation 1: the embedding of node `v` at layer `k+1` is a function of
//! `v`'s own embedding and the embeddings of its in-edge neighbors `N+(v)`.
//!
//! Design points:
//!
//! * **Closed layer set, no autograd.** Each layer implements an explicit
//!   `forward` (returning a cache) and `backward` (consuming it). Gradients
//!   are validated against central finite differences in
//!   `tests/gradcheck.rs`.
//! * **Two execution forms per layer.** The *batch* form works on a
//!   destination-sorted sparse adjacency (what GraphTrainer vectorizes,
//!   §3.3.1); the *per-node* form computes one node's output from its own
//!   embedding plus its in-edge neighborhood — the merge step of
//!   `agl_infer::merge_step` (§3.4). GCN, SAGE and GIN take the
//!   neighborhood pre-folded into a [`NeighborAggregate`]
//!   (`forward_node_combined`); the attention layers GAT and GeniePath take
//!   the raw neighbor embeddings (`forward_node`). The two forms are tested
//!   to agree to floating-point roundoff, which is what makes MapReduce
//!   inference equivalent to training-time forward passes.
//! * **Aggregation normalisation is row-stochastic** (`D_in^{-1} A`, with
//!   self-loops for GCN): unlike the symmetric `D^{-1/2} A D^{-1/2}`, it is
//!   computable from information local to the destination node, which both
//!   the k-hop neighborhood and the GraphInfer reducer possess.
//! * **Hierarchical model segmentation** (§3.4): [`model::GnnModel::segment`]
//!   splits a trained K-layer model into K layer slices plus a prediction
//!   slice.

pub mod dense;
pub mod gat;
pub mod gcn;
pub mod geniepath;
pub mod gin;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod param;
pub mod rgcn;
pub mod sage;
pub mod serialize;

pub use dense::DenseLayer;
pub use gat::{GatLayer, HeadCombine};
pub use gcn::GcnLayer;
pub use geniepath::GeniePathLayer;
pub use gin::GinLayer;
pub use layer::{AdjPrep, CombineKind, GnnLayer, LayerCache, NeighborAggregate, NeighborView};
pub use loss::Loss;
pub use model::{GnnModel, ModelConfig, ModelKind, ModelSlice};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use rgcn::RelationalGcnLayer;
pub use serialize::{model_from_bytes, model_to_bytes};
