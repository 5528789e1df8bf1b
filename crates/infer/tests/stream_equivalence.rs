//! Streaming inference equivalence: the streamed, materialized and
//! GraphInfer runs are one job on different placements, so they must be
//! **bit-identical** for every layer kind and sampling strategy.

use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_infer::{GraphInfer, InferConfig, StreamInfer};
use agl_mapreduce::SpillMode;
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, Matrix};

fn random_tables(n: u64, avg_deg: usize, f_dim: usize, seed: u64) -> (NodeTable, EdgeTable) {
    let mut rng = seeded_rng(seed);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let feats =
        Matrix::from_vec(n as usize, f_dim, (0..n as usize * f_dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect());
    let nodes = NodeTable::new(ids, feats, None);
    let mut pairs = Vec::new();
    for src in 0..n {
        for _ in 0..rng.gen_range(0..=2 * avg_deg) {
            let dst = rng.gen_range(0..n);
            if dst != src && !pairs.contains(&(src, dst)) {
                pairs.push((src, dst));
            }
        }
        // A hub: every node also feeds node 0, so the combiner has a
        // high-degree destination to fold.
        if src != 0 && !pairs.contains(&(src, 0)) {
            pairs.push((src, 0));
        }
    }
    (nodes, EdgeTable::from_pairs(pairs))
}

fn trained_like(kind: ModelKind, in_dim: usize, n_layers: usize) -> GnnModel {
    let mut m = GnnModel::new(ModelConfig::new(kind, in_dim, 6, 2, n_layers, Loss::SoftmaxCrossEntropy).with_seed(99));
    let v: Vec<f32> = m.param_vector().iter().enumerate().map(|(i, x)| x + ((i % 13) as f32) * 0.01).collect();
    m.load_param_vector(&v);
    m
}

#[test]
fn streamed_matches_materialized() {
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gin] {
        for n_layers in [1usize, 2] {
            let (nodes, edges) = random_tables(30, 3, 4, 5);
            let model = trained_like(kind, 4, n_layers);
            let si = StreamInfer::new(InferConfig::default());
            let streamed = si.run(&model, &nodes, &edges).unwrap();
            let materialized = si.run_materialized(&model, &nodes, &edges).unwrap();
            // NodeScore is PartialEq over f32 — equality here is bit-identity.
            assert_eq!(streamed.scores, materialized.scores, "{kind:?} K={n_layers}: streamed vs materialized");
            assert_eq!(
                streamed.counters.get("infer.embeddings_computed"),
                (30 * n_layers) as u64,
                "{kind:?} K={n_layers}: exactly once"
            );
            assert!(
                streamed.counters.get("stream.peak_resident_bytes") > 0,
                "{kind:?}: streamed run gauges its memory bound"
            );
        }
    }
}

#[test]
fn streaminfer_matches_graphinfer_bit_for_bit() {
    use agl_flat::SamplingStrategy;
    let (nodes, edges) = random_tables(25, 3, 4, 11);
    let samplings = [
        SamplingStrategy::None,
        SamplingStrategy::Uniform { max_degree: 3 },
        SamplingStrategy::Weighted { max_degree: 3 },
    ];
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath] {
        let model = trained_like(kind, 4, 2);
        for sampling in samplings {
            let cfg = || InferConfig { sampling, ..InferConfig::default() };
            let graph_infer = GraphInfer::new(cfg()).run(&model, &nodes, &edges).unwrap();
            let streamed = StreamInfer::new(cfg()).run(&model, &nodes, &edges).unwrap();
            assert_eq!(graph_infer.scores.len(), 25);
            assert_eq!(graph_infer.scores, streamed.scores, "{kind:?} / {sampling:?}");
        }
    }
}

#[test]
fn combiner_shrinks_the_shuffle() {
    // All 60 nodes feed hub 0: every producer bucket that holds the hub's
    // in-edge messages holds more than the default degree threshold of 8.
    let (nodes, edges) = random_tables(60, 4, 4, 17);
    let model = trained_like(ModelKind::Gcn, 4, 2);
    let combined = StreamInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    let records_in = combined.counters.get("combine.records_in");
    let records_out = combined.counters.get("combine.records_out");
    assert!(records_in > records_out, "combiner folded messages: {records_in} in, {records_out} out");
    assert!(combined.counters.get("combine.bytes_saved") > 0, "partials are smaller than the raw messages");
}

#[test]
fn attention_models_run_without_a_combiner() {
    let (nodes, edges) = random_tables(20, 3, 4, 29);
    let model = trained_like(ModelKind::Gat { heads: 2 }, 4, 2);
    let streamed = StreamInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    let classic = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    assert_eq!(streamed.scores, classic.scores);
    assert_eq!(streamed.counters.get("combine.records_in"), 0, "no combiner for attention models");
}

#[test]
fn sampled_jobs_run_without_a_combiner() {
    use agl_flat::SamplingStrategy;
    let (nodes, edges) = random_tables(40, 8, 3, 23);
    let model = trained_like(ModelKind::Gcn, 3, 2);
    let cfg = InferConfig { sampling: SamplingStrategy::Uniform { max_degree: 3 }, ..InferConfig::default() };
    let streamed = StreamInfer::new(cfg).run(&model, &nodes, &edges).unwrap();
    assert_eq!(streamed.counters.get("combine.records_in"), 0, "partial aggregation must fold every in-edge");
}

#[test]
fn disk_spill_streaming_is_identical_and_cleans_up() {
    let dir = std::env::temp_dir().join(format!("agl-infer-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (nodes, edges) = random_tables(30, 3, 4, 41);
    let model = trained_like(ModelKind::Sage, 4, 2);
    let in_mem = StreamInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    let spilled = StreamInfer::new(InferConfig { spill: SpillMode::Disk(dir.clone()), ..InferConfig::default() })
        .run(&model, &nodes, &edges)
        .unwrap();
    assert_eq!(in_mem.scores, spilled.scores, "spill mode must not change bits");
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "all pending partitions consumed: {leftovers:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
