//! `agl-serve` — the online read path.
//!
//! GraphInfer exists to feed online products: the paper's industrial
//! setting scores billions of edges so that a serving tier can answer
//! point lookups and nearest-neighbor queries at interactive latency.
//! Everything upstream in this repo is batch; this crate is the read side:
//!
//! * [`EmbeddingStore`] ([`store`]): hash-sharded slabs of node vectors
//!   with a compact offset index and zero-copy `&[f32]` reads; exact
//!   top-k queries merged across shards.
//! * [`update`]: incremental maintenance — when a node's features change,
//!   only its k-hop *forward* neighborhood is stale; recomputing it over
//!   its backward closure with GraphInfer's own per-node step reproduces
//!   the full recompute byte-for-byte, and the affected shard slabs are
//!   swapped atomically.
//! * [`batch`]: a per-shard request batcher that coalesces concurrent
//!   lookups without ever reordering responses relative to request ids.
//! * [`loadgen`]: a closed-loop, seeded load generator replaying the
//!   power-law popularity skew of `agl-datasets`, reporting p50/p95/p99
//!   latency and QPS through `agl-obs` histograms.
//! * [`net`]: the multi-process mode — shard workers behind the
//!   length-prefixed transport, driven by `agl-cli serve`.

pub mod batch;
pub mod loadgen;
pub mod net;
pub mod store;
pub mod update;

pub use batch::RequestBatcher;
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use net::{serve_shard_worker, RemoteStore, ServeWireMsg};
pub use store::{shard_of, EmbeddingRef, EmbeddingStore, Neighbor, ShardSlab};
pub use update::{update_incremental, GraphDelta, UpdateReport};

use agl_mapreduce::EngineConfig;

/// Serving configuration — embedded in `AglJob` next to the stage configs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store shard count (also the worker count in multi-process mode).
    pub shards: usize,
    /// Default result size for top-k queries issued by the load generator.
    pub topk: usize,
    /// Shared engine knobs: `engine.obs` receives latency histograms, QPS
    /// counters and per-shard occupancy gauges; `engine.seed` drives the
    /// load generator; the effective clock times requests.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { shards: 4, topk: 8, engine: EngineConfig::default() }
    }
}

impl ServeConfig {
    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style obs-handle override (writes `engine.obs`).
    pub fn with_obs(mut self, obs: agl_obs::Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Builder-style seed override (writes `engine.seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Builder-style engine-block override.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}
