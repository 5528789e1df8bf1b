//! GraphFlat correctness: the MapReduce pipeline must produce exactly the
//! k-hop neighborhoods of Definition 1 (message-passing edge rule), as
//! computed by the single-machine reference extractor — plus the §3.2.2
//! behaviours (sampling caps, re-indexing load spreading, fault tolerance).

use agl_flat::messages::{FlatKey, FlatMsg, BUCKET_SUFFIX};
use agl_flat::{decode_graph_feature, flat_reducer_from_spec, FlatConfig, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::graph::Graph;
use agl_graph::khop::{khop_subgraph, EdgeRule};
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_mapreduce::transport::{Endpoint, Listener};
use agl_mapreduce::{serve_shuffle, Codec, Counters, DistOptions, FaultPlan, Reducer, SpillMode, TaskId};
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, Matrix};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Random sparse directed graph with per-node labels.
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

/// Star: many leaves pointing at one hub (plus a chain behind the leaves so
/// 2-hop neighborhoods are non-trivial).
fn hub_graph(n_leaves: u64) -> (NodeTable, EdgeTable) {
    let n = 2 * n_leaves + 1;
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let feats = Matrix::from_vec(n as usize, 2, (0..n as usize * 2).map(|i| i as f32).collect());
    let nodes = NodeTable::new(ids, feats, None);
    let mut pairs = Vec::new();
    for l in 1..=n_leaves {
        pairs.push((l, 0)); // leaf -> hub
        pairs.push((n_leaves + l, l)); // grand-leaf -> leaf
    }
    (nodes, EdgeTable::from_pairs(pairs))
}

fn run_flat(cfg: FlatConfig, nodes: &NodeTable, edges: &EdgeTable, targets: TargetSpec) -> agl_flat::FlatOutput {
    GraphFlat::new(cfg).run(nodes, edges, &targets).expect("graphflat run")
}

#[test]
fn matches_reference_khop_for_all_nodes() {
    // Also for every third node alone: rows are asked for on behalf of
    // targets only.
    let some: Vec<NodeId> = (0..40).step_by(3).map(NodeId).collect();
    for k in [0usize, 1, 2, 3] {
        for targets in [TargetSpec::All, TargetSpec::Ids(some.clone())] {
            let (nodes, edges) = random_graph(40, 3, 7);
            let graph = Graph::from_tables(&nodes, &edges);
            let n_targets = if matches!(targets, TargetSpec::All) { 40 } else { some.len() };
            let out = run_flat(FlatConfig { k_hops: k, ..FlatConfig::default() }, &nodes, &edges, targets);
            assert_eq!(out.examples.len(), n_targets, "k={k}: one GraphFeature per target");
            for ex in &out.examples {
                let got = decode_graph_feature(&ex.graph_feature).unwrap().canonicalize();
                let want = khop_subgraph(&graph, &[ex.target], k as u32, EdgeRule::Sufficient).canonicalize();
                assert_eq!(got, want, "k={k} target {}", ex.target);
            }
        }
    }
}

#[test]
fn labels_ride_along_with_targets() {
    let (nodes, edges) = random_graph(20, 2, 9);
    let targets: Vec<NodeId> = vec![NodeId(3), NodeId(7), NodeId(11)];
    let out = run_flat(FlatConfig::default(), &nodes, &edges, TargetSpec::Ids(targets.clone()));
    assert_eq!(out.examples.len(), 3);
    for ex in &out.examples {
        assert!(targets.contains(&ex.target));
        assert_eq!(ex.label, vec![(ex.target.0 % 2) as f32]);
    }
}

#[test]
fn fault_injection_does_not_change_output() {
    let (nodes, edges) = random_graph(30, 3, 11);
    let clean = run_flat(FlatConfig::default(), &nodes, &edges, TargetSpec::All);
    let cfg = FlatConfig {
        fault_plan: FaultPlan::none()
            .fail_first(TaskId::map(0), 1)
            .fail_first(TaskId::reduce(0, 1), 2)
            .fail_first(TaskId::reduce(2, 3), 1),
        ..FlatConfig::default()
    };
    let faulty = run_flat(cfg, &nodes, &edges, TargetSpec::All);
    assert_eq!(clean.examples.len(), faulty.examples.len());
    for (a, b) in clean.examples.iter().zip(&faulty.examples) {
        assert_eq!(a.target, b.target);
        assert_eq!(a.graph_feature, b.graph_feature, "target {}", a.target);
    }
}

#[test]
fn spill_to_disk_matches_in_memory() {
    let (nodes, edges) = random_graph(25, 3, 13);
    let mem = run_flat(FlatConfig::default(), &nodes, &edges, TargetSpec::All);
    let dir = std::env::temp_dir().join(format!("agl-flat-spill-{}", std::process::id()));
    let cfg = FlatConfig { spill: SpillMode::Disk(dir.clone()), ..FlatConfig::default() };
    let disk = run_flat(cfg, &nodes, &edges, TargetSpec::All);
    for (a, b) in mem.examples.iter().zip(&disk.examples) {
        assert_eq!(a.graph_feature, b.graph_feature);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampling_caps_neighborhood_size() {
    let (nodes, edges) = hub_graph(100);
    // Unsampled: the hub's 1-hop neighborhood has 101 nodes.
    let full =
        run_flat(FlatConfig { k_hops: 1, ..FlatConfig::default() }, &nodes, &edges, TargetSpec::Ids(vec![NodeId(0)]));
    let full_sub = decode_graph_feature(&full.examples[0].graph_feature).unwrap();
    assert_eq!(full_sub.n_nodes(), 101);
    // Sampled: at most 10 in-edges survive.
    for strategy in [
        SamplingStrategy::Uniform { max_degree: 10 },
        SamplingStrategy::Weighted { max_degree: 10 },
        SamplingStrategy::TopK { max_degree: 10 },
    ] {
        let capped = run_flat(
            FlatConfig { k_hops: 1, sampling: strategy, ..FlatConfig::default() },
            &nodes,
            &edges,
            TargetSpec::Ids(vec![NodeId(0)]),
        );
        let sub = decode_graph_feature(&capped.examples[0].graph_feature).unwrap();
        assert_eq!(sub.n_nodes(), 11, "{strategy:?}");
        assert_eq!(sub.n_edges(), 10, "{strategy:?}");
        assert!(capped.counters.get("flat.sampled_out_in_edges") >= 90, "{strategy:?}");
        // Target must still be present and first.
        assert_eq!(sub.node_ids[0], NodeId(0));
    }
}

#[test]
fn sampled_out_payloads_never_ship() {
    // The join round settles the sample, so round 2 reads the 201 self
    // infos plus one payload per kept in-edge (each leaf's one, the hub's
    // 10), no out-edge state, which no round after it would read, and the
    // row requests of round 1.
    let (nodes, edges) = hub_graph(100);
    let cfg = FlatConfig { k_hops: 2, sampling: SamplingStrategy::Uniform { max_degree: 10 }, ..FlatConfig::default() };
    let out = run_flat(cfg, &nodes, &edges, TargetSpec::All);
    let requests = out.counters.get("flat.row_requests");
    assert_eq!(out.counters.get("reduce.r2.input_records"), 201 + 110 + requests);
    // Round 1 asks for each node of a structure once per bucket that will
    // hold it: its own and its targeted destinations'. FNV-1a modulo the
    // four buckets reads only the low two bits of each id byte, so
    // grand-leaf 100 + l shares leaf l's bucket, and leaf l shares the
    // hub's when 4 divides l. The hub's 11 nodes ask once: 11. The 90
    // unsampled leaves' {l, 100 + l} ask once: 180. The sample keeps leaves
    // 26, 31, 34, 52, 60, 69, 73, 86, 94 and 99, of which only 52 and 60
    // share the hub's bucket: 2·2 + 8·4 = 36. Each grand-leaf asks for
    // itself once: 100.
    assert_eq!(requests, 11 + 180 + 36 + 100);
    // Dropped in round 1, once.
    assert_eq!(out.counters.get("flat.sampled_out_in_edges"), 90);
    let hub = decode_graph_feature(&out.examples[0].graph_feature).unwrap();
    assert_eq!(hub.node_ids[0], NodeId(0));
    assert_eq!(hub.n_edges(), 20, "10 sampled leaves and their grand-leaves");
}

#[test]
fn uncapped_payloads_skip_dangling_destinations() {
    // Without a cap the join round still decides where payloads go: five
    // leaves also point at a node missing from the node table, which keeps
    // nothing, so round 2 reads the 201 self infos, the 200 live in-edge
    // payloads and round 1's row requests only.
    let (nodes, edges) = hub_graph(100);
    let mut pairs: Vec<(u64, u64)> = edges.iter().map(|(row, _)| (row.src.0, row.dst.0)).collect();
    pairs.extend((1..=5).map(|l| (l, 9_999)));
    let edges = EdgeTable::from_pairs(pairs);
    let cfg = FlatConfig { k_hops: 2, sampling: SamplingStrategy::None, ..FlatConfig::default() };
    let out = run_flat(cfg, &nodes, &edges, TargetSpec::All);
    let requests = out.counters.get("flat.row_requests");
    assert_eq!(out.counters.get("reduce.r2.input_records"), 201 + 200 + requests);
    // As in `sampled_out_payloads_never_ship`, with every leaf kept: the
    // hub's 101 nodes ask once; each leaf's two ask for its own bucket and
    // the hub's, one bucket for the 25 leaves 4 divides and two for the 75
    // others: 25·2 + 75·4 = 350; each grand-leaf asks once: 100.
    assert_eq!(requests, 101 + 350 + 100);
    assert_eq!(out.counters.get("flat.dangling_edge_destinations"), 5);
    assert_eq!(out.counters.get("flat.sampled_out_in_edges"), 0);
}

/// What one reduce group emitted: structures seen, their widest feature
/// row, the structures and the feature rows sent to a bucket.
#[derive(Debug, Default, Clone, Copy)]
struct GroupTally {
    structures: u64,
    widest_row: usize,
    bucket_structures: u64,
    bucket_rows: u64,
}

impl GroupTally {
    fn add(self, t: &GroupTally) -> GroupTally {
        GroupTally {
            structures: self.structures + t.structures,
            widest_row: self.widest_row.max(t.widest_row),
            bucket_structures: self.bucket_structures + t.bucket_structures,
            bucket_rows: self.bucket_rows + t.bucket_rows,
        }
    }
}

/// Wraps GraphFlat's reducer and tallies what each group emits, keyed by
/// (round, group key): a group run again — the debug reorder check, a
/// retried task — overwrites its own entry instead of counting twice.
struct Inspect {
    inner: Box<dyn Reducer>,
    tallies: Arc<Mutex<Tallies>>,
}

type Tallies = HashMap<(usize, Vec<u8>), GroupTally>;

impl Reducer for Inspect {
    fn reduce(
        &self,
        round: usize,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let mut t = GroupTally::default();
        self.inner.reduce(round, key, values, &mut |k, v| {
            let msg = FlatMsg::from_bytes(&v).unwrap();
            if matches!(msg, FlatMsg::Structure { .. }) {
                t.bucket_structures += 1;
            }
            match msg {
                FlatMsg::SelfInfo { sub, .. } | FlatMsg::InEdge { sub } | FlatMsg::Structure { sub, .. } => {
                    t.structures += 1;
                    t.widest_row = t.widest_row.max(decode_graph_feature(&sub).unwrap().features.cols());
                }
                FlatMsg::Row { .. } if FlatKey::from_bytes(&k).unwrap().suffix == BUCKET_SUFFIX => t.bucket_rows += 1,
                _ => {}
            }
            emit(k, v);
        });
        self.tallies.lock().unwrap().insert((round, key.to_vec()), t);
    }
}

/// Per-round tallies of a distributed run: what the groups of each round
/// emitted, summed.
type RoundTallies = HashMap<usize, GroupTally>;

/// Run GraphFlat on the remote placement, whose workers build their reducer
/// from a factory this helper wraps with [`Inspect`], and check its output
/// against the in-process run's, byte for byte.
fn run_inspected(cfg: FlatConfig, nodes: &NodeTable, edges: &EdgeTable) -> (agl_flat::FlatOutput, RoundTallies) {
    let local = run_flat(cfg.clone(), nodes, edges, TargetSpec::All);
    let dir = std::env::temp_dir().join(format!("agl-flat-rows-{}-{}", cfg.k_hops, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let eps: Vec<Endpoint> = (0..2).map(|i| Endpoint::Unix(dir.join(format!("w{i}.sock")))).collect();
    let listeners: Vec<Listener> = eps.iter().map(|e| Listener::bind(e).unwrap()).collect();
    let tallies = Arc::new(Mutex::new(HashMap::new()));
    let remote = std::thread::scope(|s| {
        for l in &listeners {
            let tallies = tallies.clone();
            s.spawn(move || {
                let factory = move |spec: &[u8], counters: &Counters| -> Result<Box<dyn Reducer>, String> {
                    Ok(Box::new(Inspect { inner: flat_reducer_from_spec(spec, counters)?, tallies: tallies.clone() }))
                };
                serve_shuffle(l, 10_000_000_000, &factory).unwrap()
            });
        }
        GraphFlat::new(cfg).run_distributed(nodes, edges, &TargetSpec::All, &eps, &DistOptions::default())
    })
    .expect("distributed run");
    drop(listeners);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(local.examples.len(), remote.examples.len());
    for (a, b) in local.examples.iter().zip(&remote.examples) {
        assert_eq!((a.target, &a.graph_feature), (b.target, &b.graph_feature));
    }
    let mut rounds = RoundTallies::new();
    for ((round, _), t) in tallies.lock().unwrap().iter() {
        let sum = rounds.entry(*round).or_default();
        *sum = sum.add(t);
    }
    (remote, rounds)
}

/// The tallies of `rounds`, summed.
fn sum(tallies: &RoundTallies, rounds: std::ops::RangeInclusive<usize>) -> GroupTally {
    tallies.iter().filter(|(r, _)| rounds.contains(r)).fold(GroupTally::default(), |a, (_, t)| a.add(t))
}

/// `hub_graph(100)` at depth `k`, sampled to ten in-edges, with the hub
/// re-indexed into four groups.
fn hub_config(k_hops: usize) -> FlatConfig {
    FlatConfig {
        k_hops,
        sampling: SamplingStrategy::Uniform { max_degree: 10 },
        hub_threshold: 10,
        reindex_fanout: 4,
        ..FlatConfig::default()
    }
}

#[test]
fn feature_rows_ship_once_per_bucket() {
    // Rounds 1..=K carry id-only structures; round K sends each node's
    // feature row at most once to each of the B = reduce_tasks buckets.
    let (nodes, edges) = hub_graph(100);
    let cfg = hub_config(2);
    let buckets = cfg.engine.reduce_tasks as u64;
    let (remote, tallies) = run_inspected(cfg, &nodes, &edges);

    // Everything rounds 0..=K emit, the structures bound for the buckets
    // included, is id-only.
    let carried = sum(&tallies, 0..=2);
    assert!(carried.structures > 0);
    assert_eq!(carried.widest_row, 0, "a structure carried feature rows");
    // Rows go to buckets only from round K, once per (node, bucket) pair
    // that round K − 1 asked for.
    let rows = sum(&tallies, 2..=2).bucket_rows;
    assert_eq!(sum(&tallies, 0..=1).bucket_rows + sum(&tallies, 3..=3).bucket_rows, 0);
    assert!(rows <= nodes.len() as u64 * buckets, "{rows} rows for {} nodes × {buckets} buckets", nodes.len());
    assert_eq!(rows, ROWS_SHIPPED);
    // Shipping a row per (target, node) pair would take more.
    let pairs: usize = remote.examples.iter().map(|e| decode_graph_feature(&e.graph_feature).unwrap().n_nodes()).sum();
    assert!(rows < pairs as u64, "{rows} rows for {pairs} (target, node) pairs");
    // Worker counters reach the driver under their own names.
    assert!(remote.counters.get("flat.hub_partials_merged") > 0, "the hub's partial structures were not unioned");
}

#[test]
fn structures_ship_once() {
    // Round K sends each target's structure to its bucket, and nothing
    // forwards it again: the job is join, K merges and fill. The hub's four
    // groups each send a partial, which the fill round unions.
    let (nodes, edges) = hub_graph(100);
    for k in 1..=3 {
        let (remote, tallies) = run_inspected(hub_config(k), &nodes, &edges);
        assert_eq!(remote.counters.get("reduce.rounds"), k as u64 + 2, "k={k}");
        let partials = remote.counters.get("flat.hub_partials_merged");
        assert_eq!(partials, 4, "k={k}");
        // 201 targets, one of them split into its partials.
        let shipped = sum(&tallies, 0..=k + 1).bucket_structures;
        assert_eq!(shipped, 201 - 1 + partials, "k={k}");
        assert_eq!(sum(&tallies, k..=k).bucket_structures, shipped, "k={k}: structures left before round K");
    }
}

/// Row records `feature_rows_ship_once_per_bucket` sees: each of the 201
/// nodes' rows goes to its own bucket and to those of the targets whose
/// 2-hop structure holds it, well under the 201 × 4 bound.
const ROWS_SHIPPED: u64 = 261;

#[test]
fn sampling_is_deterministic_across_runs() {
    let (nodes, edges) = hub_graph(50);
    let cfg =
        || FlatConfig { k_hops: 2, sampling: SamplingStrategy::Uniform { max_degree: 5 }, ..FlatConfig::default() };
    let a = run_flat(cfg(), &nodes, &edges, TargetSpec::All);
    let b = run_flat(cfg(), &nodes, &edges, TargetSpec::All);
    for (x, y) in a.examples.iter().zip(&b.examples) {
        assert_eq!(x.graph_feature, y.graph_feature);
    }
    // Different seed -> different sample.
    let c = run_flat(cfg().with_seed(1234), &nodes, &edges, TargetSpec::All);
    let differs = a.examples.iter().zip(&c.examples).any(|(x, y)| x.graph_feature != y.graph_feature);
    assert!(differs, "a different sampling seed must pick different neighbors somewhere");
}

#[test]
fn reindexing_preserves_output_upto_sampling() {
    // With sampling disabled, re-indexing (hub splitting + partial merge at
    // the Storing step) must not change any neighborhood.
    let (nodes, edges) = hub_graph(40);
    let plain = run_flat(FlatConfig { k_hops: 2, ..FlatConfig::default() }, &nodes, &edges, TargetSpec::All);
    let reindexed = run_flat(
        FlatConfig { k_hops: 2, hub_threshold: 10, reindex_fanout: 4, ..FlatConfig::default() },
        &nodes,
        &edges,
        TargetSpec::All,
    );
    assert!(reindexed.counters.get("flat.hub_partials_merged") > 0, "hub target was split and re-merged");
    assert_eq!(plain.examples.len(), reindexed.examples.len());
    for (a, b) in plain.examples.iter().zip(&reindexed.examples) {
        assert_eq!(a.target, b.target);
        let sa = decode_graph_feature(&a.graph_feature).unwrap().canonicalize();
        let sb = decode_graph_feature(&b.graph_feature).unwrap().canonicalize();
        assert_eq!(sa, sb, "target {}", a.target);
    }
}

#[test]
fn reindexing_spreads_hub_records_across_groups() {
    let (nodes, edges) = hub_graph(60);
    // Count the biggest in-edge group the merge round saw, via the merged
    // node counter deltas — instead, simply verify the partials counter and
    // that per-group sampled caps apply per *partial* group.
    let capped = run_flat(
        FlatConfig {
            k_hops: 1,
            hub_threshold: 10,
            reindex_fanout: 4,
            sampling: SamplingStrategy::Uniform { max_degree: 5 },
            ..FlatConfig::default()
        },
        &nodes,
        &edges,
        TargetSpec::Ids(vec![NodeId(0)]),
    );
    let sub = decode_graph_feature(&capped.examples[0].graph_feature).unwrap();
    // 4 groups × ≤5 sampled in-edges each = ≤20 neighbors + target.
    assert!(sub.n_nodes() <= 21, "got {}", sub.n_nodes());
    assert!(sub.n_nodes() > 5, "multiple groups contributed, got {}", sub.n_nodes());
}

#[test]
fn reindexing_shrinks_the_largest_reduce_group() {
    // The actual point of re-indexing (§3.2.2): no single reducer should
    // have to merge a hub's entire in-edge set. The max-group counter must
    // drop by roughly the fanout.
    let (nodes, edges) = hub_graph(120);
    let plain = run_flat(FlatConfig { k_hops: 1, ..FlatConfig::default() }, &nodes, &edges, TargetSpec::All);
    assert_eq!(plain.counters.get("flat.max_group_in_edges"), 120, "hub's full in-edge set in one group");
    let reindexed = run_flat(
        FlatConfig { k_hops: 1, hub_threshold: 20, reindex_fanout: 4, ..FlatConfig::default() },
        &nodes,
        &edges,
        TargetSpec::All,
    );
    let max_group = reindexed.counters.get("flat.max_group_in_edges");
    assert!(max_group < 60, "re-indexing with fanout 4 should split the 120-edge hub group, got {max_group}");
}

#[test]
fn dangling_edges_are_counted_not_fatal() {
    let nodes = NodeTable::new(vec![NodeId(1), NodeId(2)], Matrix::zeros(2, 1), None);
    // 1 -> 2 is fine; 1 -> 99 has an unknown destination; 98 -> 2 an unknown source.
    let edges = EdgeTable::from_pairs([(1, 2), (1, 99), (98, 2)]);
    let out = run_flat(FlatConfig { k_hops: 1, ..FlatConfig::default() }, &nodes, &edges, TargetSpec::All);
    assert_eq!(out.examples.len(), 2);
    assert!(out.counters.get("flat.dangling_edge_sources") + out.counters.get("flat.dangling_edge_destinations") > 0);
    let sub2 =
        decode_graph_feature(&out.examples.iter().find(|e| e.target == NodeId(2)).unwrap().graph_feature).unwrap();
    assert_eq!(sub2.n_nodes(), 2, "node 2 still gets its valid neighbor");
}

#[test]
fn edge_features_flow_through_the_pipeline() {
    // Edge features ride the in-edge information and must survive into the
    // stored GraphFeature (the `E_B` matrix of §3.3.1).
    use agl_graph::tables::EdgeRow;
    let nodes =
        NodeTable::new(vec![NodeId(1), NodeId(2), NodeId(3)], Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]), None);
    let rows = vec![
        EdgeRow { src: NodeId(2), dst: NodeId(1), weight: 1.0 },
        EdgeRow { src: NodeId(3), dst: NodeId(2), weight: 2.0 },
    ];
    let efeat = Matrix::from_rows(&[&[10.0, 11.0], &[20.0, 21.0]]);
    let edges = EdgeTable::new(rows, Some(efeat));
    let out =
        run_flat(FlatConfig { k_hops: 2, ..FlatConfig::default() }, &nodes, &edges, TargetSpec::Ids(vec![NodeId(1)]));
    let sub = decode_graph_feature(&out.examples[0].graph_feature).unwrap();
    assert_eq!(sub.n_edges(), 2);
    let ef = sub.edge_features.as_ref().expect("edge features preserved");
    assert_eq!(ef.cols(), 2);
    // Map back by endpoints to check values survived intact.
    for (i, e) in sub.edges.iter().enumerate() {
        let (src, dst) = (sub.node_ids[e.src as usize], sub.node_ids[e.dst as usize]);
        let want: &[f32] = if (src, dst) == (NodeId(2), NodeId(1)) { &[10.0, 11.0] } else { &[20.0, 21.0] };
        assert_eq!(ef.row(i), want, "edge {src}->{dst}");
    }
}

#[test]
fn batch_of_targets_union_is_consistent() {
    // GraphFeatures are per-target; merging them at training time must equal
    // the reference multi-target extraction. (The actual merge lives in the
    // trainer; here we sanity-check the per-target pieces cover it.)
    let (nodes, edges) = random_graph(30, 3, 17);
    let graph = Graph::from_tables(&nodes, &edges);
    let targets = vec![NodeId(1), NodeId(2), NodeId(3)];
    let out = run_flat(FlatConfig::default(), &nodes, &edges, TargetSpec::Ids(targets.clone()));
    let mut b = agl_flat::builder::SubgraphBuilder::new();
    for ex in &out.examples {
        b.absorb(&decode_graph_feature(&ex.graph_feature).unwrap());
    }
    let merged = b.build(&targets).canonicalize();
    let want = khop_subgraph(&graph, &targets, 2, EdgeRule::Sufficient).canonicalize();
    assert_eq!(merged, want);
}
