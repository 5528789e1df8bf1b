//! `agl-flat` — **GraphFlat**, the distributed k-hop neighborhood generator
//! (paper §3.2).
//!
//! GraphFlat turns a `(node table, edge table)` pair into one
//! *information-complete* subgraph per targeted node — the **GraphFeature**
//! — using nothing but MapReduce:
//!
//! 1. **Map** (runs once): node rows are keyed by node id; edge rows are
//!    keyed by their *source* so the join round can attach the source's
//!    features to each edge.
//! 2. **Reduce round 0 (join)**: for every node `u`, combine its features
//!    with its out-edge rows, then emit (a) `u`'s 0-hop self info, (b) an
//!    in-edge info record to every destination `v` carrying `u`'s features
//!    — this materialises the paper's *"in-edge information (feature of the
//!    in-edge and the neighbor node)"* — and (c) with K ≥ 2, out-edge info
//!    to each source its in-edge sample keeps, drawn from payload-free
//!    stubs (see [`pipeline`]).
//! 3. **Reduce rounds 1..=K (merge & propagate)**: each node merges its
//!    self info with the in-edge payloads (growing its neighborhood by one
//!    hop), then propagates the merged result along its kept out-edges. After
//!    round `k` the self info of `v` is exactly the k-hop neighborhood
//!    `G^k_v` of Definition 1 (with the message-passing edge rule — see
//!    `agl_graph::khop::EdgeRule::Sufficient`).
//! 4. **Storing**: round K emits the flattened GraphFeature byte strings of
//!    the targeted nodes.
//!
//! Hub handling (§3.2.2) is implemented as in the paper's Figure 3:
//!
//! * **Re-indexing**: shuffle keys whose in-degree exceeds a threshold get
//!   a deterministic suffix, splitting the hot group across reducers. Self
//!   info is replicated to every suffix group; each in-/out-edge record
//!   goes to one group.
//! * **Sampling framework**: each reduce group caps its in-edge records
//!   using a pluggable strategy (uniform / weighted / top-k); the sample is
//!   the same in every round, so payloads ship only along kept in-edges.
//! * **Inverted indexing**: suffixes are stripped when records are emitted,
//!   so downstream grouping sees original node ids; the final partial
//!   GraphFeatures of a hub target are unioned by the driver during the
//!   Storing step.

pub mod builder;
pub mod graphfeature;
pub mod messages;
pub mod pipeline;
pub mod sampling;
pub mod store;

pub use graphfeature::{decode_graph_feature, encode_graph_feature};
pub use pipeline::{
    flat_reducer_from_spec, FlatConfig, FlatOutput, FlatWorkerSpec, GraphFlat, TargetSpec, TrainingExample,
};
pub use sampling::SamplingStrategy;
pub use store::{FeatureStore, ShardIter};
