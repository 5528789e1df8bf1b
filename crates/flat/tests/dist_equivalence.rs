//! `GraphFlat::run_distributed` vs `GraphFlat::run`: the multi-process
//! driver must produce byte-identical GraphFeatures — same targets, same
//! labels, same encoded subgraphs — across hub re-indexing, sampling, and
//! multiple hop depths. The "workers" here are in-process threads running
//! the real `serve_shuffle` loop over real UDS sockets; the process-level
//! version of the same assertion lives in the `agl-core` CLI smoke suite.

use agl_flat::{flat_reducer_from_spec, FlatConfig, FlatWorkerSpec, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_mapreduce::transport::{Endpoint, Listener};
use agl_mapreduce::{serve_shuffle, Codec, DistOptions};
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, Matrix};
use std::path::PathBuf;

fn random_graph(n: u64, avg_deg: usize, seed: u64) -> (NodeTable, EdgeTable) {
    let mut rng = seeded_rng(seed);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let feats = Matrix::from_vec(n as usize, 3, (0..n as usize * 3).map(|i| (i as f32) * 0.01).collect());
    let labels = Matrix::from_vec(n as usize, 1, (0..n).map(|i| (i % 2) as f32).collect());
    let nodes = NodeTable::new(ids, feats, Some(labels));
    let mut pairs = Vec::new();
    for src in 0..n {
        let deg = rng.gen_range(0..=2 * avg_deg);
        for _ in 0..deg {
            let dst = rng.gen_range(0..n);
            if dst != src && !pairs.contains(&(src, dst)) {
                pairs.push((src, dst));
            }
        }
    }
    (nodes, EdgeTable::from_pairs(pairs))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agl-flatdist-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the distributed driver against `n_workers` serve_shuffle loops on
/// UDS listeners and assert the output equals the in-process run's, byte
/// for byte.
fn assert_dist_matches_local(tag: &str, cfg: FlatConfig, n_workers: usize, targets: TargetSpec) {
    let (nodes, edges) = random_graph(36, 3, 17);
    let local = GraphFlat::new(cfg.clone()).run(&nodes, &edges, &targets).expect("local run");

    let dir = temp_dir(tag);
    let eps: Vec<Endpoint> = (0..n_workers).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
    let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
    let dist = std::thread::scope(|s| {
        for l in &listeners {
            s.spawn(move || serve_shuffle(l, 10_000_000_000, &flat_reducer_from_spec).unwrap());
        }
        GraphFlat::new(cfg).run_distributed(&nodes, &edges, &targets, &eps, &DistOptions::default())
    })
    .expect("distributed run");
    drop(listeners);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(local.examples.len(), dist.examples.len(), "{tag}: example counts");
    for (a, b) in local.examples.iter().zip(&dist.examples) {
        assert_eq!(a.target, b.target, "{tag}");
        assert_eq!(a.label, b.label, "{tag}: labels for {}", a.target);
        assert_eq!(a.graph_feature, b.graph_feature, "{tag}: GraphFeature bytes for {}", a.target);
    }
    // Worker-side pipeline counters reach the driver under their own names.
    let flat_counters = |out: &agl_flat::FlatOutput| -> Vec<(String, u64)> {
        out.counters.snapshot().into_iter().filter(|(name, _)| name.starts_with("flat.")).collect()
    };
    let want = flat_counters(&local);
    assert!(want.iter().any(|(name, _)| name == "flat.merged_nodes"), "{tag}: {want:?}");
    assert_eq!(flat_counters(&dist), want, "{tag}: flat.* counters");
}

#[test]
fn distributed_matches_local_plain() {
    assert_dist_matches_local("plain", FlatConfig::default(), 2, TargetSpec::All);
}

#[test]
fn distributed_matches_local_with_hubs_and_sampling() {
    let cfg = FlatConfig {
        k_hops: 2,
        hub_threshold: 4,
        reindex_fanout: 3,
        sampling: SamplingStrategy::Weighted { max_degree: 3 },
        ..FlatConfig::default()
    };
    assert_dist_matches_local("hubs", cfg, 3, TargetSpec::All);
}

#[test]
fn distributed_matches_local_one_hop_with_hubs_and_target_ids() {
    let cfg = FlatConfig {
        k_hops: 1,
        hub_threshold: 4,
        reindex_fanout: 3,
        sampling: SamplingStrategy::Uniform { max_degree: 3 },
        ..FlatConfig::default()
    };
    let targets = TargetSpec::Ids((0..36).step_by(3).map(NodeId).collect());
    assert_dist_matches_local("one-hop", cfg, 2, targets);
}

#[test]
fn distributed_matches_local_single_worker_three_hops() {
    let cfg = FlatConfig { k_hops: 3, ..FlatConfig::default() };
    assert_dist_matches_local("deep", cfg, 1, TargetSpec::All);
}

#[test]
fn worker_spec_round_trips_and_is_deterministic() {
    let spec = FlatWorkerSpec {
        k_hops: 2,
        sampling: SamplingStrategy::TopK { max_degree: 7 },
        seed: 99,
        fanout: 4,
        buckets: 4,
        hubs: vec![3, 17, 40],
    };
    let bytes = spec.to_bytes();
    assert_eq!(FlatWorkerSpec::from_bytes(&bytes).unwrap(), spec);
    assert_eq!(bytes, spec.to_bytes(), "encoding is stable");
    // Length inflation: a hub count far beyond the three hubs the input
    // holds is a codec error, not an allocation sized from the wire.
    let count_at = bytes.len() - 8 * (spec.hubs.len() + 1);
    let mut inflated = bytes.clone();
    inflated[count_at..count_at + 8].fill(0xFF);
    let err = FlatWorkerSpec::from_bytes(&inflated).unwrap_err();
    assert!(err.0.contains("hub count"), "{err}");
}
