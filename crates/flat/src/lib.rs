//! `agl-flat` — **GraphFlat**, the distributed k-hop neighborhood generator
//! (paper §3.2).
//!
//! GraphFlat turns a `(node table, edge table)` pair into one
//! *information-complete* subgraph per targeted node — the **GraphFeature**
//! — using nothing but MapReduce:
//!
//! 1. **Map** (runs once): node rows are keyed by node id; each edge whose
//!    source is in the node table is keyed by its *destination*, as a
//!    payload-free in-edge stub.
//! 2. **Reduce round 0 (join)**: every node `v` draws its in-edge sample
//!    from its stubs once, then emits its 0-hop self info (its id, plus its
//!    own feature row), its kept in-edges for round 1, and with K ≥ 2
//!    out-edge info to each kept source (see [`pipeline`]). With K = 0 it
//!    emits the target's GraphFeature directly.
//! 3. **Reduce rounds 1..=K (merge & propagate)**: each node merges its
//!    self info with its in-edge info (growing its neighborhood by one
//!    hop), then propagates the merged result along its kept out-edges. After
//!    round `k` the self info of `v` holds exactly the structure of the
//!    k-hop neighborhood `G^k_v` of Definition 1 (with the message-passing
//!    edge rule — see `agl_graph::khop::EdgeRule::Sufficient`): node ids
//!    and edges, but no node features. The paper's *"in-edge information
//!    (feature of the in-edge and the neighbor node)"* carries the edge's
//!    features here; the node's features join later. Round K − 1 (the
//!    join round when K = 1) already knows every node of each target's
//!    final structure, so it asks those nodes for their feature rows on
//!    behalf of the target's bucket, one of `reduce_tasks`. In round K a
//!    node answers each distinct bucket once, and each target sends its
//!    structure to its bucket.
//! 4. **Reduce round K+1 (fill)**: each bucket fills its targets'
//!    structures with the rows it received and emits the flattened
//!    GraphFeature byte strings; the driver's Storing step collects them.
//!
//! Hub handling (§3.2.2) is implemented as in the paper's Figure 3:
//!
//! * **Re-indexing**: shuffle keys whose in-degree exceeds a threshold get
//!   a deterministic suffix, splitting the hot group across reducers. Self
//!   info is replicated to every suffix group; each in-/out-edge record
//!   goes to one group.
//! * **Sampling framework**: each reduce group caps its in-edge records
//!   using a pluggable strategy (uniform / weighted / top-k); the sample is
//!   the same in every round, so structures ship only along kept in-edges.
//! * **Inverted indexing**: suffixes are stripped when records are emitted,
//!   so downstream grouping sees original node ids; the partial structures
//!   of a hub target are unioned in its bucket during the fill round.

pub mod builder;
pub mod graphfeature;
pub mod messages;
pub mod pipeline;
pub mod sampling;
pub mod store;

pub use graphfeature::{decode_graph_feature, encode_graph_feature, fill_graph_feature};
pub use pipeline::{
    flat_reducer_from_spec, FlatConfig, FlatOutput, FlatWorkerSpec, GraphFlat, TargetSpec, TrainingExample,
};
pub use sampling::SamplingStrategy;
pub use store::{FeatureStore, ShardIter};
