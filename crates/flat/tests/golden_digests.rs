//! Golden output digests of GraphFlat: every `k ∈ 0..=3` × sampling
//! strategy × re-indexing on/off over one small graph that exercises the
//! awkward inputs at once — edges whose source or destination is missing
//! from the node table, parallel edges of unequal weight (and unequal edge
//! features), a self-loop, edge features throughout, and a hub whose
//! in-degree both exceeds the sampling cap and triggers re-indexing.
//!
//! The digests pin the exact bytes of every `<target, label, GraphFeature>`
//! triple, so a change to how GraphFlat routes or ships its messages must
//! leave them untouched; only a deliberate change of output may edit them.

use agl_flat::{FlatConfig, FlatOutput, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::tables::EdgeRow;
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_mapreduce::hash::fnv1a;
use agl_mapreduce::EngineConfig;
use agl_tensor::{seeded_rng, Matrix, Rng};

/// Nodes `0..N_NODES` exist; edge endpoints range up to `N_IDS`, so ids
/// `N_NODES..N_IDS` appear only as dangling sources or destinations.
const N_NODES: u64 = 36;
const N_IDS: u64 = 40;

fn golden_graph() -> (NodeTable, EdgeTable) {
    let mut rng = seeded_rng(0x60_1DE7);
    let ids: Vec<NodeId> = (0..N_NODES).map(NodeId).collect();
    let feats = Matrix::from_vec(N_NODES as usize, 3, (0..N_NODES as usize * 3).map(|i| (i as f32) * 0.125).collect());
    let labels = Matrix::from_vec(N_NODES as usize, 1, (0..N_NODES).map(|i| (i % 3) as f32).collect());
    let nodes = NodeTable::new(ids, feats, Some(labels));

    let mut rows = Vec::new();
    let mut efeat = Vec::new();
    let mut push = |src: u64, dst: u64, weight: f32, rng: &mut agl_tensor::SmallRng| {
        rows.push(EdgeRow { src: NodeId(src), dst: NodeId(dst), weight });
        efeat.push(rng.gen_range(0.0f32..1.0));
        efeat.push(src as f32 - dst as f32);
    };
    // Random background edges over all ids, dangling ones included.
    for _ in 0..90 {
        let (s, d) = (rng.gen_range(0..N_IDS), rng.gen_range(0..N_IDS));
        let w = rng.gen_range(0.1f32..3.0);
        push(s, d, w, &mut rng);
    }
    // A hub: node 0 is pointed at by most nodes, so its in-degree is far
    // above both the sampling cap and the re-indexing threshold below.
    for s in 1..N_IDS {
        let w = 0.25 + (s % 7) as f32;
        push(s, 0, w, &mut rng);
    }
    // Parallel edges of unequal weight, some into the hub.
    for (s, d) in [(3, 0), (3, 0), (5, 9), (5, 9), (5, 9), (12, 0), (20, 21)] {
        let w = rng.gen_range(0.1f32..3.0);
        push(s, d, w, &mut rng);
    }
    // A self-loop, and edges from a dangling source to a live hub node.
    push(7, 7, 1.5, &mut rng);
    push(N_IDS - 1, 0, 9.0, &mut rng);
    push(N_IDS - 2, N_IDS - 3, 1.0, &mut rng);
    let n_edges = rows.len();
    (nodes, EdgeTable::new(rows, Some(Matrix::from_vec(n_edges, 2, efeat))))
}

fn run(k: usize, sampling: SamplingStrategy, reindex: bool, nodes: &NodeTable, edges: &EdgeTable) -> FlatOutput {
    let cfg = FlatConfig {
        k_hops: k,
        sampling,
        hub_threshold: if reindex { 6 } else { usize::MAX },
        reindex_fanout: 3,
        engine: EngineConfig::seeded(17).with_tasks(3, 3, 2),
        ..FlatConfig::default()
    };
    GraphFlat::new(cfg).run(nodes, edges, &TargetSpec::All).expect("graphflat run")
}

fn digest(out: &FlatOutput) -> u64 {
    let mut buf = Vec::new();
    for ex in &out.examples {
        buf.extend_from_slice(&ex.target.0.to_le_bytes());
        for l in &ex.label {
            buf.extend_from_slice(&l.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(ex.graph_feature.len() as u64).to_le_bytes());
        buf.extend_from_slice(&ex.graph_feature);
    }
    fnv1a(&buf)
}

const STRATEGIES: [SamplingStrategy; 4] = [
    SamplingStrategy::None,
    SamplingStrategy::Uniform { max_degree: 3 },
    SamplingStrategy::Weighted { max_degree: 3 },
    SamplingStrategy::TopK { max_degree: 3 },
];

/// `GOLDEN[k][strategy][reindex]`, strategies in [`STRATEGIES`] order,
/// re-indexing off then on.
const GOLDEN: [[[u64; 2]; 4]; 4] = [
    // k = 0
    [
        [0xeac4103dee687eb7, 0xeac4103dee687eb7], // None
        [0xeac4103dee687eb7, 0xeac4103dee687eb7], // Uniform
        [0xeac4103dee687eb7, 0xeac4103dee687eb7], // Weighted
        [0xeac4103dee687eb7, 0xeac4103dee687eb7], // TopK
    ],
    // k = 1
    [
        [0xb08dd81722f67c0a, 0xb08dd81722f67c0a], // None
        [0x408b86075aace254, 0xbae7f5475a5a9971], // Uniform
        [0x3f5dbe35742a82d6, 0x7422b4d76a2367db], // Weighted
        [0x6ba661ade34d5846, 0x8c57421efd035271], // TopK
    ],
    // k = 2
    [
        [0x6e23451d0b6ed0ea, 0xc919b47369ae6591], // None
        [0x907ee4cf604f2ea4, 0xa22907c0788525a6], // Uniform
        [0x8258f2eae041f345, 0xd9aeb21ed0395931], // Weighted
        [0xd8525a46ba989ffc, 0xcb474afdcea5679f], // TopK
    ],
    // k = 3
    [
        [0x63bfbbe9394429bc, 0x20c2570bf58905b7], // None
        [0x726c84521d0062a8, 0x09656eaa84b31744], // Uniform
        [0x208909e6945e7a0a, 0xd8be203b9ff447ab], // Weighted
        [0xbc2686ae641c8b73, 0x2cd08f72701a1eeb], // TopK
    ],
];

#[test]
fn graphflat_output_matches_golden_digests() {
    let (nodes, edges) = golden_graph();
    let mut got = [[[0u64; 2]; 4]; 4];
    for (k, per_k) in got.iter_mut().enumerate() {
        for (s, per_s) in per_k.iter_mut().enumerate() {
            for (r, d) in per_s.iter_mut().enumerate() {
                *d = digest(&run(k, STRATEGIES[s], r == 1, &nodes, &edges));
            }
        }
    }
    assert_eq!(got, GOLDEN, "GraphFlat output moved; got {got:#018x?}");
}

/// The golden graph really exercises what the digests are meant to pin.
#[test]
fn golden_graph_exercises_every_awkward_input() {
    let (nodes, edges) = golden_graph();
    let out = run(2, STRATEGIES[1], true, &nodes, &edges);
    for counter in ["flat.dangling_edge_sources", "flat.dangling_edge_destinations", "flat.sampled_out_in_edges"] {
        assert!(out.counters.get(counter) > 0, "{counter} never fired");
    }
    assert!(out.counters.get("flat.hub_partials_merged") > 0, "re-indexing never split a target");
}
