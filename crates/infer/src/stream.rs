//! **Streaming full-graph inference** — the GAS (gather-apply-scatter)
//! pipeline of `agl-cli infer-stream`.
//!
//! [`StreamInfer`] runs the same round layout as [`crate::pipeline`]'s
//! GraphInfer, with two changes:
//!
//! * **GAS merge.** Reducers fold in-edge embeddings through the two-level
//!   segment fold of [`crate::combine`] and call the layer's
//!   `forward_node_combined`, which lets a shuffle combiner pre-fold the
//!   messages of high-degree nodes *before they cross the wire* — one
//!   [`crate::messages::InferMsg::Partial`] per producer segment instead of
//!   one `InEmb` per in-edge.
//! * **Bounded-memory execution.** [`StreamInfer::run`] places the job on
//!   [`agl_mapreduce::Placement::ResidentOne`], which keeps one shuffle
//!   partition resident at a time and parks the rest in the configured
//!   spill mode; the `stream.peak_resident_bytes` counter gauges the bound.
//!   [`StreamInfer::run_materialized`] places the identical GAS job on the
//!   thread pool — the baseline the streamed output is pinned bit-identical
//!   to.
//!
//! Both paths assert the paper's **exactly-once invariant** on the way out:
//! every node of the input table is scored exactly once, and the
//! `infer.embeddings_computed` counter equals `|V| · K`. Violations surface
//! as [`JobError::Corrupt`], never as silently wrong output.

use crate::combine::combine_kinds;
use crate::pipeline::{decode_scores, InferConfig, InferJob, InferOutput, NodeScore};
use agl_flat::SamplingStrategy;
use agl_graph::{EdgeTable, NodeTable};
use agl_mapreduce::{Counters, DistOptions, Endpoint, JobError, Placement, RemoteWorkers};
use agl_nn::GnnModel;

/// Default bucket-local degree threshold: groups with at least this many
/// messages in one producer bucket are pre-folded by the combiner. Low
/// enough to fire on real hubs, high enough that tiny groups skip the
/// encode/decode round-trip.
pub const DEFAULT_DEGREE_THRESHOLD: usize = 8;

/// Driver for streaming (and materialized-baseline) GAS inference.
pub struct StreamInfer {
    cfg: InferConfig,
    degree_threshold: Option<usize>,
}

impl StreamInfer {
    /// A driver with the combiner enabled at [`DEFAULT_DEGREE_THRESHOLD`].
    pub fn new(cfg: InferConfig) -> Self {
        Self { cfg, degree_threshold: Some(DEFAULT_DEGREE_THRESHOLD) }
    }

    /// Override the combiner degree threshold; `None` disables combining
    /// entirely (the GAS fold still runs reducer-side, so the output is
    /// bit-identical either way — that equality is pinned by tests).
    pub fn with_degree_threshold(mut self, threshold: Option<usize>) -> Self {
        self.degree_threshold = threshold;
        self
    }

    pub fn config(&self) -> &InferConfig {
        &self.cfg
    }

    /// Whether this configuration runs the GAS merge: sampling must be off
    /// (partial aggregation folds *every* in-edge) and every layer's
    /// aggregation must decompose. Otherwise both entry points fall back to
    /// the classic per-neighbor fold — still streamed, just uncombinable.
    pub fn gas_eligible(&self, model: &GnnModel) -> bool {
        matches!(self.cfg.sampling, SamplingStrategy::None) && combine_kinds(&model.segment()).is_some()
    }

    /// Streaming run: sequential bounded-memory execution on
    /// [`Placement::ResidentOne`]. Output is bit-identical to
    /// [`Self::run_materialized`].
    pub fn run(&self, model: &GnnModel, nodes: &NodeTable, edges: &EdgeTable) -> Result<InferOutput, JobError> {
        self.run_on(model, nodes, edges, "infer.stream", Placement::ResidentOne)
    }

    /// Materialized baseline: the identical GAS job on the thread pool,
    /// every round's shuffle fully resident.
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
        let k = model.n_layers();
        let job = InferJob {
            cfg: &self.cfg,
            model,
            nodes,
            edges,
            span,
            rounds: k + 2, // join + K slices + prediction
            gas: self.gas_eligible(model),
            degree_threshold: self.degree_threshold,
        };
        let (output, counters) = job.run(placement)?;
        if matches!(placement, Placement::Remote(_)) {
            // The invariant check and the CLI read the job-wide names.
            counters.fold_worker_counters(&["infer.", "combine."]);
        }
        let scores = decode_scores(&output)?;
        // Re-executed attempts — injected faults, or a worker that died and
        // had its partitions re-run on a survivor — legally re-count side
        // effects.
        let recounted = self.cfg.fault_plan.is_active() || counters.get("task_retries") > 0;
        check_exactly_once(&scores, nodes.len(), k, &counters, recounted)?;
        Ok(InferOutput { scores, counters })
    }
}

/// The exactly-once invariant: every input node scored once (no misses, no
/// duplicates), and `infer.embeddings_computed == |V| · K`. The counter leg
/// is skipped under fault injection, where re-executed attempts legally
/// re-count side effects (the scored-once legs still hold — re-executed
/// output is deduplicated by the deterministic shuffle, not by counting).
fn check_exactly_once(
    scores: &[NodeScore],
    n_nodes: usize,
    k: usize,
    counters: &Counters,
    faults_injected: bool,
) -> Result<(), JobError> {
    for pair in scores.windows(2) {
        if pair[0].node == pair[1].node {
            return Err(JobError::Corrupt(format!("node {} served more than once", pair[0].node.0)));
        }
    }
    if scores.len() != n_nodes {
        return Err(JobError::Corrupt(format!("served {} nodes, expected exactly {n_nodes}", scores.len())));
    }
    let computed = counters.get("infer.embeddings_computed");
    let expected = (n_nodes * k) as u64;
    if !faults_injected && computed != expected {
        return Err(JobError::Corrupt(format!(
            "embeddings computed {computed} ≠ |V|·K = {expected}: exactly-once violated"
        )));
    }
    Ok(())
}
