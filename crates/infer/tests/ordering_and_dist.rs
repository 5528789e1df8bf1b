//! Canonical in-edge ordering regression (the original-inference baseline
//! and the inference job must fold neighbors in the same order — the
//! sorting bug surfaced as batch-size-dependent sums), plus the 2-worker
//! distributed byte-identity suite for streaming inference.

use agl_flat::{FlatConfig, SamplingStrategy};
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_infer::{
    infer_combiner_from_spec, infer_reducer_from_spec, GraphInfer, InferConfig, OriginalInference, StreamInfer,
};
use agl_mapreduce::{serve_shuffle_combining, DistOptions, Endpoint, Listener};
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
        // A hub destination, so batches overlap heavily on node 0.
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

/// The ordering regression: with canonical (ascending global source-id)
/// row folds, the original module's scores are **bit-identical** across
/// batch sizes — before the fix, local-index row order made the same
/// node's sum depend on which batch it merged into — and both pin against
/// the streaming path as the shared golden to float tolerance (the two
/// engines still differ in parenthesisation, not in order).
#[test]
fn original_inference_is_batch_invariant_and_pins_to_the_streaming_golden() {
    let (nodes, edges) = random_tables(30, 3, 4, 7);
    let model = trained_like(ModelKind::Gcn, 4, 2);
    let run_original = |batch_size: usize| {
        let mut o = OriginalInference::new(FlatConfig { k_hops: 2, ..FlatConfig::default() });
        o.batch_size = batch_size;
        o.run(&model, &nodes, &edges).unwrap()
    };
    let small = run_original(3);
    let medium = run_original(7);
    let whole = run_original(64);
    // NodeScore is PartialEq over f32 — equality is bit-identity.
    assert_eq!(small.scores, medium.scores, "batch size must not move a bit");
    assert_eq!(small.scores, whole.scores, "batch size must not move a bit");

    let golden = StreamInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    assert_eq!(golden.scores.len(), whole.scores.len());
    for (a, b) in golden.scores.iter().zip(&whole.scores) {
        assert_eq!(a.node, b.node);
        for (x, y) in a.probs.iter().zip(&b.probs) {
            assert!((x - y).abs() < 1e-4, "node {}: streaming {x} vs original {y}", a.node);
        }
    }
}

/// Streaming inference across two real shuffle-worker servers (the same
/// `serve_shuffle_combining` loop `agl-cli dist-worker --role
/// infer-shuffle` runs) is **byte-identical** to the single-process runs
/// and to GraphInfer, for every layer kind and sampling strategy, combiner
/// included, and the worker-side combiner counters ride back.
#[test]
fn two_worker_dist_run_is_byte_identical_to_the_engine() {
    let dir = std::env::temp_dir().join(format!("agl-infer-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // All 40 nodes feed hub 0, whose in-edge messages clear the default
    // degree threshold in the producer buckets that hold them.
    let (nodes, edges) = random_tables(40, 4, 4, 13);
    let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
    let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
    let opts = DistOptions::default();
    let samplings = [
        SamplingStrategy::None,
        SamplingStrategy::Uniform { max_degree: 3 },
        SamplingStrategy::Weighted { max_degree: 3 },
    ];
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath] {
        let model = trained_like(kind, 4, 2);
        for sampling in samplings {
            let case = format!("{kind:?} / {sampling:?}");
            let cfg = InferConfig { sampling, ..InferConfig::default() };
            let si = StreamInfer::new(cfg.clone());
            let materialized = si.run_materialized(&model, &nodes, &edges).unwrap();
            let streamed = si.run(&model, &nodes, &edges).unwrap();
            let graph_infer = GraphInfer::new(cfg).run(&model, &nodes, &edges).unwrap();
            let dist = std::thread::scope(|s| {
                for l in &listeners {
                    s.spawn(move || {
                        serve_shuffle_combining(l, 5_000_000_000, &infer_reducer_from_spec, &infer_combiner_from_spec)
                            .unwrap()
                    });
                }
                si.run_distributed(&model, &nodes, &edges, &eps, &opts).unwrap()
            });
            assert_eq!(dist.scores, materialized.scores, "{case}: dist vs materialized");
            assert_eq!(dist.scores, streamed.scores, "{case}: dist vs streamed");
            assert_eq!(dist.scores, graph_infer.scores, "{case}: dist vs GraphInfer");
            let attention = matches!(kind, ModelKind::Gat { .. } | ModelKind::GeniePath);
            if !attention && sampling == SamplingStrategy::None {
                assert!(
                    dist.counters.get("combine.bytes_saved") > 0,
                    "{case}: worker-side combining happened and its counters rode back: {:?}",
                    dist.counters.snapshot()
                );
            } else {
                assert_eq!(dist.counters.get("combine.records_in"), 0, "{case}: no combiner installed");
            }
            assert_eq!(dist.counters.get("infer.embeddings_computed"), 40 * 2, "{case}: exactly-once across workers");
        }
    }
    drop(listeners);
    std::fs::remove_dir_all(&dir).ok();
}
