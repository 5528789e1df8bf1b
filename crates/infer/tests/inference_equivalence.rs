//! End-to-end inference correctness: for every architecture, the three
//! inference paths must agree —
//!
//! 1. the **full-graph in-memory forward** (baseline engine, ground truth),
//! 2. **GraphInfer** (K+1-round MapReduce with model slices),
//! 3. the **original inference module** (per-node GraphFeature forward).
//!
//! Agreement of (1) and (2) validates hierarchical model segmentation + the
//! per-node layer forwards; agreement of (1) and (3) validates Theorem 1
//! end-to-end (a k-hop neighborhood suffices to reproduce the full-graph
//! embedding of its target).

use agl_baseline::FullGraphEngine;
use agl_flat::FlatConfig;
use agl_graph::{EdgeTable, Graph, NodeId, NodeTable};
use agl_infer::{GraphInfer, InferConfig, OriginalInference};
use agl_mapreduce::{FaultPlan, JobError, SpillMode, TaskId};
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
    }
    (nodes, EdgeTable::from_pairs(pairs))
}

fn trained_like(kind: ModelKind, in_dim: usize, n_layers: usize) -> GnnModel {
    // Init + a deterministic perturbation stands in for training; inference
    // correctness is architecture-level, not weight-level.
    let mut m = GnnModel::new(ModelConfig::new(kind, in_dim, 6, 2, n_layers, Loss::SoftmaxCrossEntropy).with_seed(99));
    let v: Vec<f32> = m.param_vector().iter().enumerate().map(|(i, x)| x + ((i % 13) as f32) * 0.01).collect();
    m.load_param_vector(&v);
    m
}

#[test]
fn graphinfer_matches_full_graph_forward() {
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath] {
        for n_layers in [1usize, 2, 3] {
            let (nodes, edges) = random_tables(30, 3, 4, 5);
            let graph = Graph::from_tables(&nodes, &edges);
            let model = trained_like(kind, 4, n_layers);
            let truth = model.config().loss.probabilities(&FullGraphEngine::default().infer_all(&model, &graph));
            let out = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
            assert_eq!(out.scores.len(), 30, "{kind:?} K={n_layers}");
            for s in &out.scores {
                let local = graph.local(s.node).unwrap() as usize;
                for (a, b) in s.probs.iter().zip(truth.row(local)) {
                    assert!((a - b).abs() < 1e-4, "{kind:?} K={n_layers} node {}: {a} vs {b}", s.node);
                }
            }
            assert_eq!(
                out.counters.get("infer.embeddings_computed"),
                (30 * n_layers) as u64,
                "{kind:?} K={n_layers}: each node's embedding computed exactly once per layer"
            );
        }
    }
}

#[test]
fn original_inference_matches_graphinfer() {
    let (nodes, edges) = random_tables(25, 3, 4, 11);
    let model = trained_like(ModelKind::Gcn, 4, 2);
    let fast = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    // Bounded batches, as any at-scale deployment must use: repetition
    // shows up *across* batches (within a batch the merge deduplicates).
    let mut original = OriginalInference::new(FlatConfig { k_hops: 2, ..FlatConfig::default() });
    original.batch_size = 4;
    let orig = original.run(&model, &nodes, &edges).unwrap();
    assert_eq!(fast.scores.len(), orig.scores.len());
    for (a, b) in fast.scores.iter().zip(&orig.scores) {
        assert_eq!(a.node, b.node);
        for (x, y) in a.probs.iter().zip(&b.probs) {
            assert!((x - y).abs() < 1e-4, "node {}: {x} vs {y}", a.node);
        }
    }
    // The efficiency claim: overlapping neighborhoods make the original
    // module recompute embeddings; GraphInfer computes each exactly once.
    assert!(
        orig.embeddings_computed > fast.counters.get("infer.embeddings_computed"),
        "original {} vs graphinfer {}",
        orig.embeddings_computed,
        fast.counters.get("infer.embeddings_computed")
    );
}

#[test]
fn embedding_mode_matches_full_graph_embeddings() {
    // GraphInfer as an embedding producer: stop after slice K, and the
    // per-node embeddings must equal the full-graph forward's final-layer
    // embeddings.
    let (nodes, edges) = random_tables(20, 3, 4, 29);
    let graph = Graph::from_tables(&nodes, &edges);
    let model = trained_like(ModelKind::Gat { heads: 2 }, 4, 2);
    let (embeddings, counters) =
        GraphInfer::new(InferConfig::default()).run_embeddings(&model, &nodes, &edges).unwrap();
    assert_eq!(embeddings.len(), 20);
    assert_eq!(counters.get("infer.scores"), 0, "prediction slice never ran");

    let engine = FullGraphEngine::default();
    let batch = engine.prepare(&model, &graph);
    let targets: Vec<usize> = (0..graph.n_nodes()).collect();
    let pass = model.forward(
        &batch.adjs,
        &batch.features,
        &targets,
        false,
        &agl_tensor::ExecCtx::sequential(),
        &mut seeded_rng(0),
    );
    for e in &embeddings {
        let local = graph.local(e.node).unwrap() as usize;
        for (a, b) in e.embedding.iter().zip(pass.target_embeddings.row(local)) {
            assert!((a - b).abs() < 1e-4, "node {}: {a} vs {b}", e.node);
        }
    }
}

#[test]
fn inference_is_fault_tolerant() {
    let (nodes, edges) = random_tables(20, 2, 3, 13);
    let model = trained_like(ModelKind::Sage, 3, 2);
    let clean = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    let cfg = InferConfig {
        fault_plan: FaultPlan::none()
            .fail_first(TaskId::map(2), 1)
            .fail_first(TaskId::reduce(1, 0), 2)
            .fail_first(TaskId::reduce(3, 2), 1),
        ..InferConfig::default()
    };
    let faulty = GraphInfer::new(cfg).run(&model, &nodes, &edges).unwrap();
    assert_eq!(clean.scores, faulty.scores);
}

/// A spill directory no partition file can be written under is a typed
/// error before any task runs, in every build. An empty path would
/// otherwise put the files in the working directory.
#[test]
fn unusable_spill_directory_is_an_error_not_a_panic() {
    let (nodes, edges) = random_tables(20, 2, 3, 13);
    let model = trained_like(ModelKind::Sage, 3, 2);
    let file = std::env::temp_dir().join(format!("agl-spill-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let spill_files_here = || {
        std::fs::read_dir(".")
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("part-r"))
            .count()
    };
    for dir in [std::path::PathBuf::new(), file.clone()] {
        let cfg = InferConfig { spill: SpillMode::Disk(dir.clone()), ..InferConfig::default() };
        let err = GraphInfer::new(cfg).run(&model, &nodes, &edges).err();
        assert!(
            matches!(&err, Some(JobError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{dir:?}: {err:?}"
        );
        assert_eq!(spill_files_here(), 0, "{dir:?}: spill files written to the working directory");
    }
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn sampled_inference_is_deterministic_and_bounded() {
    use agl_flat::SamplingStrategy;
    let (nodes, edges) = random_tables(40, 8, 3, 17);
    let model = trained_like(ModelKind::Gcn, 3, 2);
    let cfg = || InferConfig { sampling: SamplingStrategy::Uniform { max_degree: 3 }, ..InferConfig::default() };
    let a = GraphInfer::new(cfg()).run(&model, &nodes, &edges).unwrap();
    let b = GraphInfer::new(cfg()).run(&model, &nodes, &edges).unwrap();
    assert_eq!(a.scores, b.scores, "same seed, same sampled scores");
    let full = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    let differs = a.scores.iter().zip(&full.scores).any(|(x, y)| x.probs != y.probs);
    assert!(differs, "sampling must actually change some high-degree node's score");
}

#[test]
fn sampled_graphinfer_matches_sampled_original_inference() {
    // §3.4's unbiasedness claim, end to end: with the same sampling
    // strategy and seed, GraphInfer keeps exactly the neighbor subsets
    // GraphFlat kept — so per-GraphFeature inference over sampled
    // neighborhoods and sliced MapReduce inference agree score-for-score.
    use agl_flat::SamplingStrategy;
    let (nodes, edges) = random_tables(35, 8, 3, 23);
    let model = trained_like(ModelKind::Sage, 3, 2);
    let sampling = SamplingStrategy::Uniform { max_degree: 3 };
    let fast = GraphInfer::new(InferConfig { sampling, ..InferConfig::default() }.with_seed(42))
        .run(&model, &nodes, &edges)
        .unwrap();
    let mut original =
        OriginalInference::new(FlatConfig { k_hops: 2, sampling, ..FlatConfig::default() }.with_seed(42));
    original.batch_size = 1; // strictly per-GraphFeature, no cross-target merging
    let orig = original.run(&model, &nodes, &edges).unwrap();
    assert_eq!(fast.scores.len(), orig.scores.len());
    for (a, b) in fast.scores.iter().zip(&orig.scores) {
        assert_eq!(a.node, b.node);
        for (x, y) in a.probs.iter().zip(&b.probs) {
            assert!((x - y).abs() < 1e-4, "node {}: {x} vs {y}", a.node);
        }
    }
}

#[test]
fn isolated_nodes_still_get_scores() {
    let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
    let nodes = NodeTable::new(ids, Matrix::from_vec(4, 2, vec![0.5; 8]), None);
    let edges = EdgeTable::from_pairs([(0, 1)]);
    let model = trained_like(ModelKind::Sage, 2, 2);
    let out = GraphInfer::new(InferConfig::default()).run(&model, &nodes, &edges).unwrap();
    assert_eq!(out.scores.len(), 4, "nodes 2 and 3 have no edges at all");
    // Probabilities are valid simplex rows.
    for s in &out.scores {
        let sum: f32 = s.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}
