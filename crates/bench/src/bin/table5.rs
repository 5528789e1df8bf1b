//! Table 5 — inference efficiency on the User-User Graph.
//!
//! Compares the **original inference module** (GraphFlat over all nodes +
//! per-GraphFeature forward propagation) against **GraphInfer** (K+1-slice
//! message-passing inference) on the laptop-scale UUG-like graph, then
//! extrapolates both to the paper's 6.23×10⁹-node scale with the cluster
//! model (1000 workers, as in §4.2.2).
//!
//! Paper reference (2-layer GAT, 8-dim embedding, 1000 workers):
//!
//! | method    | phase               | time (s) | CPU (core·min) | Mem (GB·min) |
//! |-----------|---------------------|----------|----------------|--------------|
//! | Original  | GraphFlat           | 13454    | 436016         | 654024       |
//! | Original  | Forward propagation | 5760     | 93240          | 1053150      |
//! | Original  | Total               | 18214    | 529256         | 1707174      |
//! | GraphInfer| Total               | 4423     | 267764         | 401646       |

use agl_bench::{banner, env_usize, fmt_secs};
use agl_cluster_sim::{simulate_mr_job, MrJobModel};
use agl_datasets::uug::{UUG_PAPER_EDGES, UUG_PAPER_NODES};
use agl_datasets::{uug_like, UugConfig};
use agl_flat::{FlatConfig, SamplingStrategy};
use agl_infer::{GraphInfer, InferConfig, OriginalInference};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Clock;
use std::time::Duration;

fn main() {
    banner("Table 5: Inference efficiency on User-User Graph (2-layer GAT, 8-dim)");
    let n = env_usize("AGL_UUG_NODES", 20_000);
    let ds = uug_like(UugConfig { n_nodes: n, ..UugConfig::default() });
    let (nodes, edges) = ds.graph().to_tables();
    println!("UUG-like: {} nodes, {} edges (paper: {UUG_PAPER_NODES:.2e} / {UUG_PAPER_EDGES:.2e})\n", n, ds.n_edges());

    // 2-layer GAT producing an 8-dim embedding, like the paper's deployment.
    let model =
        GnnModel::new(ModelConfig::new(ModelKind::Gat { heads: 2 }, ds.feature_dim(), 8, 1, 2, Loss::BceWithLogits));
    let sampling = SamplingStrategy::Uniform { max_degree: 15 };

    // ---- Original inference module ----
    let original = OriginalInference::new(FlatConfig { k_hops: 2, sampling, ..FlatConfig::default() });
    let orig = original.run(&model, &nodes, &edges).expect("original inference");

    // ---- GraphInfer ----
    let clock = Clock::monotonic();
    let t = clock.now();
    let fast = GraphInfer::new(InferConfig { sampling, ..InferConfig::default() })
        .run(&model, &nodes, &edges)
        .expect("graphinfer");
    let fast_time = Duration::from_nanos(clock.since(t));

    println!("-- measured (this machine, laptop scale) --");
    println!("{:<12} {:<22} {:>10} {:>22}", "method", "phase", "time", "embeddings computed");
    println!("{:<12} {:<22} {:>10} {:>22}", "Original", "GraphFlat", fmt_secs(orig.graphflat_time), "-");
    println!(
        "{:<12} {:<22} {:>10} {:>22}",
        "Original",
        "Forward propagation",
        fmt_secs(orig.forward_time),
        orig.embeddings_computed
    );
    println!("{:<12} {:<22} {:>10} {:>22}", "Original", "Total", fmt_secs(orig.total_time()), orig.embeddings_computed);
    println!(
        "{:<12} {:<22} {:>10} {:>22}",
        "GraphInfer",
        "Total",
        fmt_secs(fast_time),
        fast.counters.get("infer.embeddings_computed")
    );
    let speedup = orig.total_time().as_secs_f64() / fast_time.as_secs_f64();
    let repetition = orig.embeddings_computed as f64 / fast.counters.get("infer.embeddings_computed").max(1) as f64;
    println!("\nGraphInfer speedup: {speedup:.1}x (paper: ~4.1x); embedding repetition eliminated: {repetition:.1}x");

    // ---- Cluster extrapolation to paper scale (1000 workers) ----
    println!("\n-- extrapolated to 6.23e9 nodes / 3.38e11 edges, 1000 workers (cluster model) --");
    let records = UUG_PAPER_NODES + UUG_PAPER_EDGES;
    // Calibrate per-record reducer costs from the measured run.
    let local_records = (ds.n_nodes() + ds.n_edges()) as f64;
    // GraphFlat's reduce rounds as the job counted them: join, K merges,
    // then the fill round.
    let flat_rounds = orig.counters.get("reduce.rounds");
    let flat_spr = orig.graphflat_time.as_secs_f64() / (local_records * flat_rounds as f64);
    let fwd_spr = orig.forward_time.as_secs_f64() / ds.n_nodes() as f64;
    // GraphInfer runs K+2 rounds.
    let infer_spr = fast_time.as_secs_f64() / (local_records * 4.0);
    // Shuffle volume per record per round, from the measured jobs' own
    // counters: GraphFlat ships structures and feature rows, GraphInfer
    // ships one embedding per edge — this asymmetry is the paper's Table 5
    // story.
    let flat_bpr = (orig.counters.get("shuffle.bytes") as f64 / (local_records * flat_rounds as f64)) as u64;
    let infer_bpr = (fast.counters.get("shuffle.bytes") as f64 / (local_records * 4.0)) as u64;

    let flat_sim = simulate_mr_job(&MrJobModel {
        worker_mem_gb: 1.5,
        bytes_per_record: flat_bpr.max(1),
        ..MrJobModel::new(records as u64, flat_rounds, flat_spr, 1000)
    });
    let fwd_sim = simulate_mr_job(&MrJobModel {
        worker_mem_gb: 3.0,
        ..MrJobModel::new(UUG_PAPER_NODES as u64, 1, fwd_spr, 1000)
    });
    let infer_sim = simulate_mr_job(&MrJobModel {
        worker_mem_gb: 1.0,
        bytes_per_record: infer_bpr.max(1),
        ..MrJobModel::new(records as u64, 4, infer_spr, 1000)
    });
    println!("calibrated shuffle volume: GraphFlat {flat_bpr} B/record/round vs GraphInfer {infer_bpr} B/record/round");

    println!("{:<12} {:<22} {:>12} {:>16} {:>16}", "method", "phase", "time (s)", "CPU (core*min)", "Mem (GB*min)");
    let row = |m: &str, p: &str, r: &agl_cluster_sim::SimReport| {
        println!("{:<12} {:<22} {:>12.0} {:>16.0} {:>16.0}", m, p, r.wall.as_secs_f64(), r.cpu_core_min, r.mem_gb_min);
    };
    row("Original", "GraphFlat", &flat_sim);
    row("Original", "Forward propagation", &fwd_sim);
    let total = agl_cluster_sim::SimReport {
        wall: flat_sim.wall + fwd_sim.wall,
        cpu_core_min: flat_sim.cpu_core_min + fwd_sim.cpu_core_min,
        mem_gb_min: flat_sim.mem_gb_min + fwd_sim.mem_gb_min,
    };
    row("Original", "Total", &total);
    row("GraphInfer", "Total", &infer_sim);
    println!(
        "\nExtrapolated GraphInfer advantage: {:.1}x time, {:.0}% CPU saved, {:.0}% memory saved",
        total.wall.as_secs_f64() / infer_sim.wall.as_secs_f64(),
        100.0 * (1.0 - infer_sim.cpu_core_min / total.cpu_core_min),
        100.0 * (1.0 - infer_sim.mem_gb_min / total.mem_gb_min),
    );
    println!("(paper: 4.1x time, 49% CPU, 76% memory)");
}
