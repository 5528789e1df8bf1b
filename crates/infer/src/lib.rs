//! `agl-infer` — **GraphInfer**, the distributed inference framework
//! (paper §3.4).
//!
//! A trained K-layer model is split by **hierarchical model segmentation**
//! into K layer slices plus a prediction slice
//! ([`agl_nn::GnnModel::segment`]). Inference then runs as one MapReduce
//! job:
//!
//! * **Map** emits each node's self / in-edge / out-edge information,
//!   exactly as GraphFlat does (a join round attaches features to edges).
//! * **Reduce round k (1..=K)** loads slice `k`, merges the (k−1)-layer
//!   embeddings arriving from in-edge neighbors with the node's own, runs
//!   the layer's per-node forward, and propagates the k-layer embedding
//!   along out-edges.
//! * **Reduce round K+1** loads the prediction slice and emits the final
//!   score.
//!
//! Every node's layer-k embedding is computed **exactly once** — the paper's
//! key claim against the *original inference module* (running the trained
//! model over per-node GraphFeatures, where overlapping neighborhoods are
//! recomputed per target; implemented here as [`original::OriginalInference`]
//! for the Table 5 comparison). Both paths expose counters of embeddings
//! computed so the repetition factor is measurable, and both support the
//! GraphFlat sampling strategy for consistency (§3.4's unbiasedness note).

//!
//! Beyond the paper, the [`stream`] module adds **streaming GAS inference**
//! (the InferTurbo follow-up idea): the same rounds driven in bounded
//! memory, with a shuffle [`combine`]r that pre-folds the in-edge messages
//! of high-degree nodes into per-segment partials before they cross the
//! wire — bit-identical to the materialized run by construction.

pub mod combine;
pub mod dist;
pub mod messages;
pub mod original;
pub mod pipeline;
pub mod stream;

pub use combine::{combine_kinds, InferCombiner, PartialAgg};
pub use dist::{infer_combiner_from_spec, infer_reducer_from_spec, InferWorkerSpec};
pub use original::{OriginalInference, OriginalInferenceReport};
pub use pipeline::{merge_step, predict_row, GraphInfer, InferConfig, InferOutput, NodeEmbedding, NodeScore};
pub use stream::{StreamInfer, DEFAULT_DEGREE_THRESHOLD};
