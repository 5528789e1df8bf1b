//! Micro-benchmarks for the operator- and pipeline-level pieces: the
//! edge-partitioned aggregation kernel (Table 4's +partition axis), the
//! pruned forward pass (+pruning axis), subgraph vectorization, the
//! GraphFeature codec, GraphFlat itself, and the socket transport (framed
//! round-trip cost plus PS pull/push in-process vs over UDS).
//!
//! A plain `harness = false` timing harness (median of N runs after a
//! warmup) — no external benchmark crates, so the workspace builds offline.
//!
//! Invoke with `cargo bench --bench micro`. Flags (after `--`):
//!
//! * `--smoke`             3 iterations instead of 10 — CI smoke mode.
//! * `--json <path>`       also write `{"suite","mode","benches":[…]}` to `path`.
//! * `--trace-json <path>` run the instrumented end-to-end pipeline and
//!   write per-stage median span times (same snapshot schema, suite
//!   `stage-trace`) — diffed informationally by `bench_compare`.

use agl_bench::flatten_dataset;
use agl_datasets::{uug_like, UugConfig};
use agl_flat::{decode_graph_feature, encode_graph_feature, FlatConfig, GraphFlat, SamplingStrategy, TargetSpec};
use agl_graph::khop::{khop_subgraph, EdgeRule};
use agl_infer::{GraphInfer, InferConfig};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Obs;
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, ExecCtx, Matrix};
use agl_trainer::pipeline::{prepare_batch, PrepSpec};
use agl_trainer::{DistTrainer, LocalTrainer, TrainOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Runs every bench at a fixed iteration count and collects the medians.
struct Harness {
    iters: usize,
    results: Vec<(String, f64)>,
}

impl Harness {
    /// Time `f` over `iters` runs (after 2 warmup runs); record the median.
    fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        for _ in 0..2 {
            black_box(f());
        }
        let mut samples: Vec<f64> = (0..self.iters)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!("{name:<40} {median:>10.3} ms  (median of {})", self.iters);
        self.results.push((name.to_string(), median));
    }

    fn to_json(&self, mode: &str) -> String {
        snapshot_json("micro", mode, self.iters, &self.results)
    }
}

/// Hand-rolled snapshot JSON (no serde in the workspace): names contain no
/// characters needing escapes beyond the ones handled here. The same schema
/// serves `BENCH_pr<N>.json` and `TRACE_pr<N>.json`, so `bench_compare`
/// parses both.
fn snapshot_json(suite: &str, mode: &str, iters: usize, results: &[(String, f64)]) -> String {
    let benches: Vec<String> = results
        .iter()
        .map(|(name, median)| format!(r#"    {{"name": "{}", "median_ms": {median:.6}}}"#, name.replace('"', "\\\"")))
        .collect();
    format!(
        "{{\n  \"suite\": \"{suite}\",\n  \"mode\": \"{mode}\",\n  \"iters\": {iters},\n  \"benches\": [\n{}\n  ]\n}}\n",
        benches.join(",\n")
    )
}

fn fixture() -> agl_datasets::Dataset {
    uug_like(UugConfig { n_nodes: 2_000, avg_degree: 8.0, ..UugConfig::default() })
}

fn bench_spmm_partitioning(h: &mut Harness) {
    let ds = fixture();
    let adj = ds.graph().in_adj().row_normalized();
    let mut rng = seeded_rng(1);
    let x = Matrix::from_vec(adj.n_cols(), 32, (0..adj.n_cols() * 32).map(|_| rng.gen_range(-1.0..1.0f32)).collect());
    h.bench("spmm/sequential", || ExecCtx::sequential().spmm(&adj, &x));
    h.bench("spmm/edge_partitioned_4", || ExecCtx::parallel(4).spmm(&adj, &x));
}

fn bench_forward_pruning(h: &mut Harness) {
    let ds = fixture();
    let flat = flatten_dataset(&ds, 2, SamplingStrategy::Uniform { max_degree: 15 }).unwrap();
    let model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, ds.feature_dim(), 32, 1, 2, Loss::BceWithLogits));
    let batch: Vec<_> = flat.train.iter().take(64).cloned().collect();
    let spec = |prune| PrepSpec { n_layers: 2, prep: model.layers()[0].adj_prep(), label_dim: 1, prune };
    let full = prepare_batch(&batch, &spec(false));
    let pruned = prepare_batch(&batch, &spec(true));
    let ctx = ExecCtx::sequential();
    h.bench("forward/unpruned", || {
        model.forward(&full.adjs, &full.batch.features, &full.batch.targets, false, &ctx, &mut seeded_rng(0))
    });
    h.bench("forward/pruned", || {
        model.forward(&pruned.adjs, &pruned.batch.features, &pruned.batch.targets, false, &ctx, &mut seeded_rng(0))
    });
}

fn bench_vectorization(h: &mut Harness) {
    let ds = fixture();
    let flat = flatten_dataset(&ds, 2, SamplingStrategy::Uniform { max_degree: 15 }).unwrap();
    let batch: Vec<_> = flat.train.iter().take(32).cloned().collect();
    h.bench("vectorize_32_graphfeatures", || agl_trainer::vectorize(&batch, 1));
}

fn bench_graphfeature_codec(h: &mut Harness) {
    let ds = fixture();
    let sub = khop_subgraph(ds.graph(), &[ds.graph().node_id(0)], 2, EdgeRule::Sufficient);
    let bytes = encode_graph_feature(&sub);
    h.bench("graphfeature_codec/encode", || encode_graph_feature(&sub));
    h.bench("graphfeature_codec/decode", || decode_graph_feature(&bytes).unwrap());
}

fn bench_graphflat_pipeline(h: &mut Harness) {
    let ds = uug_like(UugConfig { n_nodes: 500, avg_degree: 6.0, ..UugConfig::default() });
    let (nodes, edges) = ds.graph().to_tables();
    let targets: Vec<agl_graph::NodeId> = ds.graph().node_ids()[..50].to_vec();
    h.bench("graphflat_2hop_50_targets", || {
        let cfg =
            FlatConfig { k_hops: 2, sampling: SamplingStrategy::Uniform { max_degree: 10 }, ..FlatConfig::default() };
        GraphFlat::new(cfg).run(&nodes, &edges, &TargetSpec::Ids(targets.clone())).unwrap()
    });
}

/// Transport-layer cost: a framed round-trip over a Unix socket pair, and
/// one pull+push round against the parameter server — the same `PsClient`
/// calls — in-process vs over UDS to two shard servers. The gap between the
/// two ps numbers is the per-step price of crossing the process boundary.
fn bench_transport(h: &mut Harness) {
    use agl_mapreduce::{Conn, Endpoint, Framed, Listener};
    use agl_nn::Sgd;
    use agl_ps::{serve_ps_shard, Consistency, OptSpec, ParameterServer, PsClient, RemotePs};

    // Framed round-trip: 1 KiB payload echoed back by a peer thread.
    let (a, b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let echo = std::thread::spawn(move || {
        let mut framed = Framed::new(Conn::from(b));
        while let Ok(Some(msg)) = framed.recv() {
            if framed.send(&msg).is_err() {
                break;
            }
        }
    });
    let mut framed = Framed::new(Conn::from(a));
    let payload = vec![0xA5u8; 1024];
    h.bench("transport/frame_roundtrip_1kib_uds", || {
        framed.send(&payload).unwrap();
        framed.recv().unwrap().unwrap()
    });

    // Instrumented framing with an *inert* `Obs`: `FrameStats::from_obs`
    // returns `None`, so the only added cost is the per-message
    // `Option<Arc<FrameStats>>` check — the claim is that telemetry is free
    // unless switched on. The `_vs_plain` entry is the paired ratio
    // (instrumented / plain, unitless), measured in adjacent batches so
    // machine noise cancels; `bench_compare` gates it at <= 1.02 absolutely.
    let (c, d) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let echo2 = std::thread::spawn(move || {
        let mut framed = Framed::new(Conn::from(d));
        while let Ok(Some(msg)) = framed.recv() {
            if framed.send(&msg).is_err() {
                break;
            }
        }
    });
    let mut instrumented = Framed::new(Conn::from(c)).with_stats(agl_mapreduce::FrameStats::from_obs(
        &Obs::default(),
        "bench",
        &["echo"],
        &["echo"],
    ));
    h.bench("transport/framed_instrumented_inert_1kib", || {
        instrumented.send(&payload).unwrap();
        instrumented.recv().unwrap().unwrap()
    });
    // Per-op interleaving (plain, instrumented, plain, …) with the ratio
    // taken over each round's *sums*: frequency drift, scheduler stalls and
    // cache effects hit both sides of a pair equally, so they cancel instead
    // of landing on whichever side ran second. Median across rounds guards
    // against a single disturbed round.
    let rounds = if h.iters <= 3 { 7 } else { 11 };
    let pairs = 500;
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let (mut plain_s, mut instr_s) = (0.0f64, 0.0f64);
            for _ in 0..pairs {
                let t0 = Instant::now();
                framed.send(&payload).unwrap();
                black_box(framed.recv().unwrap().unwrap());
                plain_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                instrumented.send(&payload).unwrap();
                black_box(instrumented.recv().unwrap().unwrap());
                instr_s += t1.elapsed().as_secs_f64();
            }
            instr_s / plain_s
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = ratios[ratios.len() / 2];
    println!(
        "{:<40} {ratio:>10.3} x   (median of {rounds} interleaved rounds, {pairs} pairs each)",
        "transport/framed_instrumented_vs_plain"
    );
    h.results.push(("transport/framed_instrumented_vs_plain".to_string(), ratio));
    drop(framed);
    drop(instrumented);
    echo.join().unwrap();
    echo2.join().unwrap();

    // One pull+push round, 4096 params sharded in two, single worker.
    let dim = 4096;
    let params: Vec<f32> = (0..dim).map(|i| i as f32 * 1e-3).collect();
    let grads = vec![1e-4f32; dim];
    let local = ParameterServer::new(params.clone(), 2, 1, Consistency::Sync, || Box::new(Sgd::new(0.01)));
    h.bench("ps_pull_push/in_process_2shards", || {
        let (p, _v) = PsClient::pull_with_version(&local, 0).unwrap();
        PsClient::push(&local, 0, &grads).unwrap();
        p
    });

    let tmp = std::env::temp_dir().join(format!("agl-bench-psnet-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let eps: Vec<Endpoint> =
        (0..2).map(|i| Endpoint::parse(&format!("unix:{}/shard{i}.sock", tmp.display())).unwrap()).collect();
    let shards: Vec<_> = eps
        .iter()
        .map(|ep| {
            let listener = Listener::bind(ep).unwrap();
            std::thread::spawn(move || serve_ps_shard(&listener, 10_000_000_000).expect("shard"))
        })
        .collect();
    let remote = RemotePs::connect(
        &eps,
        &params,
        1,
        Consistency::Sync,
        OptSpec::Sgd { lr: 0.01 },
        5_000_000_000,
        10_000_000_000,
    )
    .expect("connect shards");
    h.bench("ps_pull_push/uds_2shards", || {
        let (p, _v) = remote.pull_with_version(0).unwrap();
        remote.push(0, &grads).unwrap();
        p
    });
    remote.shutdown();
    for s in shards {
        s.join().unwrap();
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Streaming full-graph inference vs the materialized engine on the same
/// graph: both medians land in the snapshot, plus their unitless ratio
/// `infer/stream_vs_materialized` (streamed / materialized, measured in
/// interleaved rounds so machine noise cancels). The ratio is the number
/// EXPERIMENTS.md quotes as the streaming cost overhead; `bench_compare`
/// gates its drift like any other bench (>20% fails).
fn bench_stream_infer(h: &mut Harness) {
    use agl_infer::StreamInfer;

    let ds = uug_like(UugConfig { n_nodes: 600, avg_degree: 6.0, ..UugConfig::default() });
    let (nodes, edges) = ds.graph().to_tables();
    let model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, ds.feature_dim(), 16, 1, 2, Loss::BceWithLogits));
    let si = StreamInfer::new(InferConfig::default());
    h.bench("infer/streamed_full_graph", || si.run(&model, &nodes, &edges).unwrap());
    h.bench("infer/materialized_full_graph", || si.run_materialized(&model, &nodes, &edges).unwrap());
    let rounds = if h.iters <= 3 { 3 } else { 5 };
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            black_box(si.run_materialized(&model, &nodes, &edges).unwrap());
            let mat = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            black_box(si.run(&model, &nodes, &edges).unwrap());
            let streamed = t1.elapsed().as_secs_f64();
            streamed / mat
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = ratios[ratios.len() / 2];
    println!("{:<40} {ratio:>10.3} x   (median of {rounds} interleaved rounds)", "infer/stream_vs_materialized");
    h.results.push(("infer/stream_vs_materialized".to_string(), ratio));
}

/// Read-path cost: one batched point-lookup round (16 ids drawn from the
/// power-law popularity skew) and one exact top-8 neighbor query, against
/// a 4-shard store of 2 000 × 16-dim vectors. The pair `serve/point_lookup`
/// + `serve/topk_8` is what `bench_compare` gates read-path regressions on.
fn bench_serve(h: &mut Harness) {
    use agl_datasets::PowerLaw;
    use agl_graph::NodeId;
    use agl_serve::{EmbeddingStore, RequestBatcher, ServeConfig};

    let n = 2_000u64;
    let dim = 16;
    let mut rng = seeded_rng(42);
    let vectors: Vec<(NodeId, Vec<f32>)> =
        (0..n).map(|i| (NodeId(i), (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect())).collect();
    let store = EmbeddingStore::from_vectors(vectors, &ServeConfig::default());
    let batcher = RequestBatcher::new(&store);
    let popularity = PowerLaw::new(n as usize, 2.1);
    let batch: Vec<NodeId> = (0..16).map(|_| NodeId(popularity.sample(&mut rng) as u64)).collect();
    h.bench("serve/point_lookup", || batcher.submit(&batch));
    h.bench("serve/topk_8", || store.topk_neighbors(batch[0], 8));
}

// ---- per-stage trace medians (`--trace-json`) ----

/// Map a span name onto its reported stage bucket (None = not a stage).
fn stage_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "graphflat" => "stage/flat.total",
        "map" => "stage/flat.map_tasks",
        "train.epoch" => "stage/train.epoch",
        "pipeline.prepare" => "stage/train.pipeline.prepare",
        "ps.pull" => "stage/train.ps.pull",
        "ps.push" => "stage/train.ps.push",
        "ps.apply" => "stage/train.ps.apply",
        "graphinfer" => "stage/infer.total",
        n if n.starts_with("reduce.r") => "stage/flat.reduce_tasks",
        n if n.starts_with("mapreduce.shuffle.") => "stage/flat.shuffle",
        _ => return None,
    })
}

/// One instrumented end-to-end run — GraphFlat, a pipelined local epoch, a
/// 2-worker distributed train, GraphInfer — returning the total span time
/// per stage bucket in milliseconds.
fn traced_stage_run() -> Vec<(&'static str, f64)> {
    let ds = uug_like(UugConfig { n_nodes: 600, avg_degree: 6.0, ..UugConfig::default() });
    let (nodes, edges) = ds.graph().to_tables();
    let obs = Obs::enabled();
    let flat = GraphFlat::new(
        FlatConfig { k_hops: 2, sampling: SamplingStrategy::Uniform { max_degree: 10 }, ..FlatConfig::default() }
            .with_obs(obs.clone()),
    )
    .run(&nodes, &edges, &TargetSpec::All)
    .expect("graphflat");
    let mut model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, ds.feature_dim(), 16, 1, 2, Loss::BceWithLogits));
    let opts = |epochs| TrainOptions { epochs, batch_size: 32, ..TrainOptions::default() }.with_obs(obs.clone());
    LocalTrainer::new(opts(1)).train(&mut model, &flat.examples);
    DistTrainer::new(2, opts(2)).train(&mut model, &flat.examples, None);
    GraphInfer::new(InferConfig::default().with_obs(obs.clone())).run(&model, &nodes, &edges).expect("graphinfer");

    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ev in obs.trace().expect("enabled handle").events() {
        if let Some(stage) = stage_of(&ev.name) {
            *totals.entry(stage).or_insert(0.0) += ev.dur as f64 / 1e6;
        }
    }
    totals.into_iter().collect()
}

/// Median stage time over `iters` fresh instrumented runs.
fn stage_trace(iters: usize) -> Vec<(String, f64)> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..iters {
        for (stage, ms) in traced_stage_run() {
            samples.entry(stage.to_string()).or_default().push(ms);
        }
    }
    samples
        .into_iter()
        .map(|(stage, mut s)| {
            s.sort_by(|a, b| a.total_cmp(b));
            let median = s[s.len() / 2];
            (stage, median)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let path_flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(std::path::PathBuf::from);
    let json_path = path_flag("--json");
    let trace_path = path_flag("--trace-json");

    let mode = if smoke { "smoke" } else { "full" };
    let iters = if smoke { 3 } else { 10 };
    let mut h = Harness { iters, results: Vec::new() };
    bench_spmm_partitioning(&mut h);
    bench_forward_pruning(&mut h);
    bench_vectorization(&mut h);
    bench_graphfeature_codec(&mut h);
    bench_graphflat_pipeline(&mut h);
    bench_transport(&mut h);
    bench_stream_infer(&mut h);
    bench_serve(&mut h);

    let write = |path: &std::path::Path, json: String| {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
        std::fs::write(path, json).expect("write bench json");
        println!("wrote {}", path.display());
    };
    if let Some(path) = json_path {
        write(&path, h.to_json(mode));
    }
    if let Some(path) = trace_path {
        let stages = stage_trace(iters);
        println!("\nper-stage span time (instrumented end-to-end run):");
        for (name, median) in &stages {
            println!("{name:<40} {median:>10.3} ms  (median of {iters})");
        }
        write(&path, snapshot_json("stage-trace", mode, iters, &stages));
    }
}
