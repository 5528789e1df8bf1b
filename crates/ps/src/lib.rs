//! `agl-ps` — the parameter-server substrate.
//!
//! Once GraphFlat has turned the graph into independent k-hop neighborhoods,
//! *"the training of a GNN model becomes similar to the training of a
//! conventional machine learning model"* (§3.3): workers hold disjoint
//! partitions of the training data and only exchange model state through
//! the parameter servers. This crate reproduces that architecture
//! in-process:
//!
//! * [`ParameterServer`] — the flat model vector sharded across `S` server
//!   shards, each with its own server-side optimizer state (the Kunpeng
//!   deployment the paper builds on applies the optimizer on the servers).
//! * **Pull/push protocol** — workers pull the full parameter vector at the
//!   start of a step and push gradients at the end. Traffic is metered so
//!   the cluster simulator can be calibrated from real byte counts.
//! * **Consistency spectrum** — one [`Consistency`] enum picks the
//!   coordination mode (GraphLab's lesson: a spectrum, not a binary):
//!   - `Sync` — pushes from all `n_workers` are combined in worker-id order
//!     behind a barrier (bit-deterministic) and averaged into one optimizer
//!     step. Used for the convergence-vs-workers study (Fig. 7).
//!   - `Async` — each push is applied immediately (Hogwild style); workers
//!     never block, staleness is measured but unbounded.
//!   - `Ssp { slack }` — stale-synchronous parallel: pushes block only when
//!     applying them would drive another in-flight worker's staleness past
//!     `slack`; every applied gradient provably satisfies
//!     `staleness ≤ slack`. `Ssp { slack: 0 }` normalizes to `Sync`.
//! * **One lock** — the barrier, the version table and the shards sit
//!   behind one mutex, so there is no lock order to keep; the server's
//!   atomics follow the ordering policy in CONCURRENCY.md.

// A panic in a task is an unreportable failure: return an error the retry
// machinery can see. Each deliberate panic carries a scoped `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod net;
pub mod server;
pub mod worker;

pub use net::{run_client_workers, serve_ps_shard, OptSpec, PsClient, RemotePs};
pub use server::{Consistency, ParameterServer, PsStats, WorkerPsStats};
pub use worker::run_workers;
