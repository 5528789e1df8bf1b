//! `agl-tensor` — the numeric substrate of the AGL reproduction.
//!
//! AGL (Zhang et al., VLDB 2020) trains graph neural networks on CPU
//! clusters, and its operator-level contribution is the *edge-partitioned*
//! parallel aggregation of §3.3.2: sparse adjacency rows (edges sorted by
//! destination) are split into partitions so that every thread owns a
//! disjoint set of destination nodes and aggregation is conflict-free.
//!
//! This crate provides everything the layers in `agl-nn` need:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix with the small set of
//!   BLAS-like kernels GNN training requires (matmul, transposed matmuls,
//!   axpy, row gather/scatter).
//! * [`Csr`] — a compressed sparse row matrix whose rows are destination
//!   nodes and whose columns are source nodes, i.e. row `v` lists the
//!   in-edge neighborhood `N+(v)` of the paper (§2.1).
//! * [`partition`] — the edge-partitioning strategy plus the partitioned
//!   sparse-dense multiply.
//! * [`ops`] — activations and their derivatives, softmax, dropout masks.
//! * [`init`] — Xavier/Glorot initialisation driven by a seeded RNG.
//!
//! Everything is deterministic given a seed; no global RNG state is used.

// A panic in a task is an unreportable failure: return an error the retry
// machinery can see. Each deliberate panic carries a scoped `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod csr;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod partition;
pub mod rng;

pub use csr::{Coo, Csr};
pub use matrix::Matrix;
pub use partition::{EdgePartition, ExecCtx};
pub use rng::{derive_seed, seeded_rng, Rng, SliceRandom, SmallRng};
