//! **Streaming full-graph inference** — the driver of `agl-cli
//! infer-stream`.
//!
//! [`StreamInfer`] runs the one inference job of [`crate::pipeline`] —
//! the same reducer, per-node step ([`crate::merge_step`]) and shuffle
//! combiner as [`crate::GraphInfer`] — on three placements:
//!
//! * [`StreamInfer::run`] places it on
//!   [`agl_mapreduce::Placement::ResidentOne`], which keeps one shuffle
//!   partition resident at a time and parks the rest in the configured
//!   spill mode; the `stream.peak_resident_bytes` counter gauges the bound.
//! * [`StreamInfer::run_materialized`] places it on the thread pool, every
//!   round's shuffle fully resident — the job [`crate::GraphInfer::run`]
//!   runs.
//! * [`StreamInfer::run_distributed`] farms the reduce rounds out to
//!   shuffle-worker processes.
//!
//! The three are bit-identical to each other and to `GraphInfer::run`.
//! Every path asserts the paper's **exactly-once invariant** on the way
//! out: every node of the input table is scored exactly once, and the
//! `infer.embeddings_computed` counter equals `|V| · K`. Violations surface
//! as [`JobError::Corrupt`], never as silently wrong output.

use crate::pipeline::{InferConfig, InferJob, InferOutput};
use agl_graph::{EdgeTable, NodeTable};
use agl_mapreduce::{DistOptions, Endpoint, JobError, Placement, RemoteWorkers};
use agl_nn::GnnModel;

/// Driver for streaming (and materialized-baseline) inference.
pub struct StreamInfer {
    cfg: InferConfig,
}

impl StreamInfer {
    pub fn new(cfg: InferConfig) -> Self {
        Self { cfg }
    }

    pub fn config(&self) -> &InferConfig {
        &self.cfg
    }

    /// Streaming run: sequential bounded-memory execution on
    /// [`Placement::ResidentOne`]. Output is bit-identical to
    /// [`Self::run_materialized`].
    pub fn run(&self, model: &GnnModel, nodes: &NodeTable, edges: &EdgeTable) -> Result<InferOutput, JobError> {
        self.run_on(model, nodes, edges, "infer.stream", Placement::ResidentOne)
    }

    /// Materialized baseline: the identical job on the thread pool, every
    /// round's shuffle fully resident.
    pub fn run_materialized(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
    ) -> Result<InferOutput, JobError> {
        self.run_on(model, nodes, edges, "infer.materialized", Placement::Threads)
    }

    /// The *same* job with the reduce work farmed out to shuffle-worker
    /// processes at `endpoints` (each running
    /// `agl_mapreduce::serve_shuffle_combining` with
    /// [`crate::dist::infer_reducer_from_spec`] and
    /// [`crate::dist::infer_combiner_from_spec`]). Output is byte-identical
    /// to [`Self::run_materialized`] — and therefore bit-identical to
    /// [`Self::run`].
    pub fn run_distributed(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
        endpoints: &[Endpoint],
        opts: &DistOptions,
    ) -> Result<InferOutput, JobError> {
        let workers = RemoteWorkers { endpoints, opts, on_dispatch: None };
        self.run_on(model, nodes, edges, "infer.dist", Placement::Remote(workers))
    }

    fn run_on(
        &self,
        model: &GnnModel,
        nodes: &NodeTable,
        edges: &EdgeTable,
        span: &str,
        placement: Placement<'_>,
    ) -> Result<InferOutput, JobError> {
        InferJob { cfg: &self.cfg, model, nodes, edges, span }.scores(placement)
    }
}
