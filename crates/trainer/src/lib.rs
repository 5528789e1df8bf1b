//! `agl-trainer` — **GraphTrainer**, the distributed training framework
//! (paper §3.3).
//!
//! GraphTrainer consumes the `<TargetedNodeId, Label, GraphFeature>` triples
//! GraphFlat produced. Because each GraphFeature is information-complete,
//! workers are independent: they read their own partition from (simulated)
//! disk and only talk to the parameter servers. There is one batch loop,
//! [`DistTrainer`]'s; the standalone [`LocalTrainer`] is one worker of it
//! against an in-process parameter server. The training workflow per batch
//! is:
//!
//! 1. **Subgraph vectorization** (§3.3.1): merge the batch's GraphFeatures
//!    and build the three matrices — destination-sorted adjacency `A_B`,
//!    node features `X_B`, edge features `E_B` — plus target indices and
//!    labels.
//! 2. **Model computation**: forward/backward over the merged subgraph.
//!
//! The three optimisation strategies of §3.3.2 are all here and all
//! individually switchable (they are the Table 4 ablation axes):
//!
//! * **Training pipeline** ([`pipeline`]) — a prefetch thread per worker
//!   overlaps reading + vectorization with model computation
//!   ([`trainer::TrainOptions::pipeline`]).
//! * **Graph pruning** ([`pruning`]) — per-layer adjacency `A^(k)_B` drops
//!   every destination row that cannot influence a target's final
//!   embedding (`d(V_B, v) > K−1−k` in 0-indexed layers).
//! * **Edge partitioning** — conflict-free multi-threaded aggregation,
//!   provided by `agl_tensor::ExecCtx` and enabled via
//!   [`trainer::TrainOptions::partitions`].

// A panic in a task is an unreportable failure: return an error the retry
// machinery can see. Each deliberate panic carries a scoped `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dist;
pub mod linkpred;
pub mod metrics;
pub mod pipeline;
pub mod pruning;
pub mod trainer;
pub mod vectorize;

pub use agl_ps::Consistency;
pub use dist::{DistTrainResult, DistTrainer};
pub use linkpred::{build_link_examples, LinkExample, LinkPredictor};
pub use metrics::{accuracy, auc, macro_f1, micro_f1, precision_recall, Metrics};
pub use trainer::{EpochStats, LocalTrainer, TrainOptions, TrainResult};
pub use vectorize::{vectorize, VectorizedBatch};
