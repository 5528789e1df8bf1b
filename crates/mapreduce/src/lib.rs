//! `agl-mapreduce` — the MapReduce substrate AGL builds on.
//!
//! The paper's central systems argument is that graph learning can run on
//! *mature, fault-tolerant* infrastructure — MapReduce and parameter servers
//! — instead of bespoke graph stores. GraphFlat (§3.2) and GraphInfer (§3.4)
//! are both expressed as a single Map phase followed by a chain of Reduce
//! rounds (K+2 for both at K ≥ 1), where each round re-shuffles its output
//! by key.
//!
//! This crate reproduces that execution model, in one process or across
//! several:
//!
//! * **Byte-oriented records.** Everything crossing the shuffle boundary is
//!   a serialised `(key, value)` pair of byte strings, exactly as on a real
//!   cluster; the [`codec`] module provides the primitives pipelines use to
//!   encode their messages (the paper used protobuf — see DESIGN.md for the
//!   substitution). Inside a job the records of a bucket or partition share
//!   one paged byte buffer with a per-record index; they become owned
//!   [`KeyValue`]s only in the job output.
//! * **Deterministic hash shuffle** ([`hash`]): records are routed to
//!   `reduce_tasks` partitions by FNV-1a over the key, so a re-executed
//!   task reproduces its routing bit-for-bit.
//! * **One multi-round driver** ([`engine`]): `Map → (shuffle → Reduce)^K`.
//!   The driver owns the job shape and the record order; a [`Placement`]
//!   argument says only where tasks run and where pending partitions wait
//!   — a thread pool with the round resident, one task at a time with one
//!   partition resident (the substrate of `agl-cli infer-stream`), or
//!   shuffle-worker processes ([`dist`]) over the socket [`transport`],
//!   speaking the request / reply skeleton every socket protocol in the
//!   workspace shares ([`rpc`]).
//!   Output is byte-identical on all three.
//! * **Fault tolerance** ([`fault`]): an injectable failure plan kills
//!   chosen local task attempts, and a remote worker's death loses its
//!   partition; the driver re-executes either, and determinism guarantees
//!   the job output is unchanged (tested).
//! * **Spill-to-disk** ([`spill`]): pending partitions wait in memory or in
//!   per-partition files, modelling the distributed-FS hop between rounds.
//! * **Counters** ([`counters`]): named atomic counters à la Hadoop, used by
//!   the benches to report records/bytes shuffled per round.

// A panic in a task is an unreportable failure: return an error the retry
// machinery can see. Each deliberate panic carries a scoped `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod codec;
pub mod config;
pub mod counters;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod obsreport;
pub mod plan;
mod records;
pub mod report;
pub mod rpc;
pub mod spill;
pub mod transport;

pub use codec::{Codec, CodecError};
pub use config::EngineConfig;
pub use counters::Counters;
pub use dist::{serve_shuffle, serve_shuffle_combining, DistOptions};
pub use engine::{
    JobConfig, JobError, JobResult, KeyValue, MapReduceJob, Mapper, Placement, Reducer, RemoteWorkers, ShuffleCombiner,
};
pub use fault::{FaultPlan, TaskId, TaskKind};
pub use obsreport::ObsReport;
pub use plan::PlanError;
pub use report::{JobReport, RoundReport};
pub use spill::SpillMode;
pub use transport::{Conn, Endpoint, FrameStats, Framed, Listener, TransportError};
