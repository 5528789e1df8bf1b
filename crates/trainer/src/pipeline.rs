//! The training pipeline (§3.3.2, batch level): a prefetch stage overlaps
//! *"data reading and subgraph vectorization"* with model computation.
//!
//! Per trainer worker, a scoped thread walks the epoch's batch index lists,
//! reads + decodes their GraphFeatures, vectorizes, preprocesses the
//! per-layer adjacencies (including pruning, which the paper notes costs
//! "nearly no extra time" precisely because it rides in this stage), and
//! pushes [`PreparedBatch`]es into a small bounded channel the worker's
//! compute loop drains.

use crate::pruning::batch_keep_masks;
use crate::vectorize::{canonicalize_adj_rows, vectorize, VectorizedBatch};
use agl_flat::TrainingExample;
use agl_nn::layer::{prepare_adj, AdjPrep};
use agl_obs::{Clock, Obs};
use agl_tensor::Csr;
use std::sync::mpsc::sync_channel;

/// What the preprocessing stage hands the compute stage.
#[derive(Debug)]
pub struct PreparedBatch {
    pub batch: VectorizedBatch,
    /// Per-layer prepared (and optionally pruned) adjacencies, ready for
    /// `GnnModel::forward`.
    pub adjs: Vec<Csr>,
}

/// Static description of the preprocessing a model needs.
#[derive(Debug, Clone, Copy)]
pub struct PrepSpec {
    pub n_layers: usize,
    pub prep: AdjPrep,
    pub label_dim: usize,
    /// Graph pruning on/off (the `+pruning` ablation axis).
    pub prune: bool,
}

/// Read + vectorize + preprocess one batch (the preprocessing stage body).
pub fn prepare_batch(examples: &[TrainingExample], spec: &PrepSpec) -> PreparedBatch {
    let batch = vectorize(examples, spec.label_dim);
    PreparedBatch { adjs: layer_adjs(&batch, spec), batch }
}

/// A vectorized batch's per-layer prepared (and, under `spec.prune`,
/// pruned) adjacencies.
pub(crate) fn layer_adjs(batch: &VectorizedBatch, spec: &PrepSpec) -> Vec<Csr> {
    let prepared = prepare_adj(&batch.adj, spec.prep);
    if spec.prune {
        let masks = batch_keep_masks(batch, spec.n_layers);
        (0..spec.n_layers).map(|k| prepared.filter_entries(|dst, _| masks[k][dst as usize])).collect()
    } else {
        vec![prepared; spec.n_layers]
    }
}

/// [`prepare_batch`] with every adjacency row re-sorted into ascending
/// **global** source-id order ([`canonicalize_adj_rows`]) — the fold order
/// of the GraphInfer reducers. The original-inference baseline uses this so
/// its per-node sums are independent of batch composition and comparable to
/// the streaming path; training keeps the cheaper local order (fold order
/// is a deterministic function of the batch either way).
pub fn prepare_batch_canonical(examples: &[TrainingExample], spec: &PrepSpec) -> PreparedBatch {
    let mut p = prepare_batch(examples, spec);
    p.adjs = p.adjs.iter().map(|a| canonicalize_adj_rows(a, &p.batch.node_ids)).collect();
    p
}

/// Read one batch's examples by index and prepare it. The clone stands in
/// for the disk read the paper's workers do: GraphFeatures live on DFS,
/// not in RAM.
pub(crate) fn read_and_prepare(examples: &[TrainingExample], idx: &[usize], spec: &PrepSpec) -> PreparedBatch {
    let batch: Vec<TrainingExample> = idx.iter().map(|&i| examples[i].clone()).collect();
    prepare_batch(&batch, spec)
}

/// Hand `step` the prepared batches of `plan` in order, preparing them on a
/// scoped prefetch thread up to two batches ahead. Each `plan` entry lists
/// one batch's example indices. The first `Err` from `step` drops the
/// channel, which stops the prefetch thread, and is returned.
///
/// The prefetch thread emits one `pipeline.prepare` span per batch on
/// `track`. Under a monotonic clock the stage split is also accounted:
/// `pipeline.prefetch.busy_nanos`, `pipeline.prefetch.wait_nanos` and
/// `pipeline.prefetch.occupancy_pct` for the prefetch side,
/// `pipeline.compute.wait_nanos` for `step`'s side. A logical clock's
/// ticks are global, so those numbers would depend on thread interleaving;
/// they stay out of its metrics.
pub(crate) fn prefetch<E>(
    examples: &[TrainingExample],
    plan: &[Vec<usize>],
    spec: &PrepSpec,
    obs: &Obs,
    track: &str,
    mut step: impl FnMut(PreparedBatch) -> Result<(), E>,
) -> Result<(), E> {
    let clock = obs.clock().filter(|c| !c.is_logical());
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel(2);
        s.spawn(move || {
            let (mut busy, mut blocked) = (0u64, 0u64);
            for idx in plan {
                let t0 = clock.map(Clock::now);
                let prepared = {
                    let mut span = obs.span(track, "pipeline.prepare");
                    span.counter("examples", idx.len() as u64);
                    read_and_prepare(examples, idx, spec)
                };
                let sent = clock.map(Clock::now);
                if tx.send(prepared).is_err() {
                    break; // the compute side hung up
                }
                if let (Some(c), Some(t0), Some(sent)) = (clock, t0, sent) {
                    busy += sent.saturating_sub(t0);
                    blocked += c.since(sent);
                }
            }
            if clock.is_some() {
                obs.metric_add("pipeline.prefetch.busy_nanos", busy);
                obs.metric_add("pipeline.prefetch.wait_nanos", blocked);
                if let Some(pct) = (busy * 100).checked_div(busy + blocked) {
                    obs.gauge_set("pipeline.prefetch.occupancy_pct", pct);
                }
            }
        });
        let mut waited = 0u64;
        let result = loop {
            let t0 = clock.map(Clock::now);
            let Ok(prepared) = rx.recv() else { break Ok(()) };
            if let (Some(c), Some(t0)) = (clock, t0) {
                waited += c.since(t0);
            }
            if let Err(e) = step(prepared) {
                break Err(e);
            }
        };
        // Hang up before the scope joins, so a producer blocked on a full
        // channel wakes to a send error instead of deadlocking the scope.
        drop(rx);
        if waited > 0 {
            obs.metric_add("pipeline.compute.wait_nanos", waited);
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_flat::encode_graph_feature;
    use agl_graph::{NodeId, SubEdge, Subgraph};
    use agl_tensor::Matrix;

    fn example(id: u64) -> TrainingExample {
        let sub = Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(id), NodeId(id + 1000)],
            features: Matrix::from_rows(&[&[id as f32, 0.0], &[0.0, id as f32]]),
            edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
            edge_features: None,
        };
        TrainingExample { target: NodeId(id), label: vec![1.0], graph_feature: encode_graph_feature(&sub) }
    }

    fn spec(prune: bool) -> PrepSpec {
        PrepSpec { n_layers: 2, prep: AdjPrep::MeanWithSelfLoops, label_dim: 1, prune }
    }

    /// Collect what [`prefetch`] hands its step, in order.
    fn prefetched(examples: &[TrainingExample], plan: &[Vec<usize>], prune: bool) -> Vec<PreparedBatch> {
        let mut got = Vec::new();
        prefetch(examples, plan, &spec(prune), &Obs::default(), "pipeline.prefetch.w0", |p| {
            got.push(p);
            Ok::<(), ()>(())
        })
        .unwrap();
        got
    }

    #[test]
    fn pipeline_yields_all_batches_in_order() {
        let examples: Vec<_> = (0..10u64).map(example).collect();
        let order: Vec<Vec<usize>> = (0..5).map(|b| vec![2 * b, 2 * b + 1]).collect();
        let got = prefetched(&examples, &order, false);
        assert_eq!(got.len(), 5);
        for (b, p) in got.iter().enumerate() {
            assert_eq!(p.batch.target_ids[0], NodeId(2 * b as u64));
            assert_eq!(p.adjs.len(), 2);
        }
    }

    #[test]
    fn pipelined_output_matches_inline_preparation() {
        let examples: Vec<_> = (0..6u64).map(example).collect();
        let order: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 4, 5]];
        for prune in [false, true] {
            let inline: Vec<PreparedBatch> =
                order.iter().map(|idx| read_and_prepare(&examples, idx, &spec(prune))).collect();
            let piped = prefetched(&examples, &order, prune);
            assert_eq!(inline.len(), piped.len());
            for (a, b) in inline.iter().zip(&piped) {
                assert_eq!(a.batch.features, b.batch.features);
                assert_eq!(a.adjs, b.adjs, "prune={prune}");
            }
        }
    }

    #[test]
    fn pruned_spec_produces_smaller_last_layer() {
        let examples: Vec<_> = (0..4u64).map(example).collect();
        let full = prepare_batch(&examples, &spec(false));
        let pruned = prepare_batch(&examples, &spec(true));
        // Layer 1 (last) only needs target rows; with self-loops the full
        // version has entries for every node.
        assert!(pruned.adjs[1].nnz() < full.adjs[1].nnz());
    }

    #[test]
    fn dropping_pipeline_early_does_not_hang() {
        // The step fails on the first batch while the producer is
        // mid-stream: the error comes back and the scope joins cleanly.
        let examples: Vec<_> = (0..100u64).map(example).collect();
        let order: Vec<Vec<usize>> = (0..100).map(|i| vec![i]).collect();
        let mut steps = 0;
        let r = prefetch(&examples, &order, &spec(false), &Obs::default(), "pipeline.prefetch.w0", |_| {
            steps += 1;
            Err("stop")
        });
        assert_eq!(r, Err("stop"));
        assert_eq!(steps, 1);
    }
}
