//! Design-choice ablations beyond the paper's tables:
//!
//! 1. **Parameter-server consistency spectrum** — sync / SSP / async with
//!    the same budget of pushes: final validation AUC, wall-clock, and the
//!    observed gradient staleness.
//! 2. **Re-indexing** — largest reduce group with and without hub
//!    splitting (the load-balance claim of §3.2.2, made measurable).
//! 3. **Sampling strategies** — neighborhood size and downstream model
//!    quality for none / uniform / weighted / top-k.
//! 4. **Prefetch pipeline** — epoch time with and without the
//!    preprocessing/compute overlap, at one and at two workers.

use agl_bench::{banner, env_f64, env_usize, flatten_dataset};
use agl_datasets::{ppi_like, uug_like, PpiConfig, UugConfig};
use agl_flat::{decode_graph_feature, FlatConfig, GraphFlat, SamplingStrategy, TargetSpec};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_trainer::{Consistency, DistTrainer, LocalTrainer, TrainOptions, TrainResult};

fn model(ds: &agl_datasets::Dataset) -> GnnModel {
    GnnModel::new(ModelConfig::new(ModelKind::Sage, ds.feature_dim(), 8, 1, 2, Loss::BceWithLogits))
}

fn main() {
    banner("Ablations: sync/async PS, re-indexing, sampling, pipeline");
    let n = env_usize("AGL_UUG_NODES", 6_000);
    let ds = uug_like(UugConfig { n_nodes: n, signal: 0.4, train_frac: 0.08, val_frac: 0.04, ..UugConfig::default() });
    let (nodes, edges) = ds.graph().to_tables();
    let flat = flatten_dataset(&ds, 2, SamplingStrategy::Uniform { max_degree: 15 }).expect("graphflat");

    // ---- 1. PS consistency spectrum ----
    println!("\n-- parameter server: consistency spectrum (4 workers, same push budget) --");
    for consistency in
        [Consistency::Sync, Consistency::Ssp { slack: 2 }, Consistency::Ssp { slack: 8 }, Consistency::Async]
    {
        let mut m = model(&ds);
        let trainer = DistTrainer::new(
            4,
            TrainOptions { epochs: 5, lr: 0.01, batch_size: 32, pruning: true, consistency, ..TrainOptions::default() },
        );
        let clock = agl_obs::Clock::monotonic();
        let t = clock.now();
        let r = trainer.train(&mut m, &flat.train, Some(&flat.val));
        println!(
            "{:<8} val AUC {:.4}  wall {:.2}s  ({} steps, {} pushes, staleness ≤ {}, {} gate waits)",
            consistency.to_string(),
            r.val_curve.last().unwrap().auc.unwrap(),
            clock.since(t) as f64 / 1e9,
            r.ps_stats.steps,
            r.ps_stats.pushes,
            r.max_staleness,
            r.ps_stats.ssp_waits
        );
    }

    // ---- 2. re-indexing load balance ----
    println!("\n-- re-indexing: largest in-edge group a reducer merges --");
    let stats = agl_graph::stats::in_degree_stats(ds.graph()).unwrap();
    for (label, threshold, fanout) in [("off", usize::MAX, 1u32), ("fanout 4", 50, 4), ("fanout 8", 50, 8)] {
        let out = GraphFlat::new(FlatConfig {
            k_hops: 2,
            hub_threshold: threshold,
            reindex_fanout: fanout,
            ..FlatConfig::default()
        })
        .run(&nodes, &edges, &TargetSpec::Ids(ds.train.node_ids().to_vec()))
        .expect("graphflat");
        println!(
            "re-indexing {label:<9} max group = {:>6} in-edges (graph max in-degree {})",
            out.counters.get("flat.max_group_in_edges"),
            stats.max
        );
    }

    // ---- 3. sampling strategies ----
    println!("\n-- sampling strategies (cap 10): neighborhood size + downstream AUC --");
    for (label, s) in [
        ("none", SamplingStrategy::None),
        ("uniform", SamplingStrategy::Uniform { max_degree: 10 }),
        ("weighted", SamplingStrategy::Weighted { max_degree: 10 }),
        ("topk", SamplingStrategy::TopK { max_degree: 10 }),
    ] {
        let f = flatten_dataset(&ds, 2, s).expect("graphflat");
        let mean_nodes: f64 =
            f.train.iter().map(|e| decode_graph_feature(&e.graph_feature).unwrap().n_nodes() as f64).sum::<f64>()
                / f.train.len() as f64;
        let bytes: usize = f.train.iter().map(|e| e.graph_feature.len()).sum();
        let mut m = model(&ds);
        let opts = TrainOptions { epochs: 6, lr: 0.02, batch_size: 32, pruning: true, ..TrainOptions::default() };
        LocalTrainer::new(opts.clone()).train(&mut m, &f.train);
        let auc = LocalTrainer::evaluate(&m, &f.val, &opts).auc.unwrap();
        println!(
            "{label:<9} mean hood {mean_nodes:>7.1} nodes, store {:>6.2} MB, val AUC {auc:.4}",
            bytes as f64 / 1e6
        );
    }

    // ---- 4. prefetch pipeline ----
    // The `train.ppi-2layer` configuration: PPI-like, GCN 2-layer, batch 64,
    // pruning, 2 aggregation partitions. On/off alternate, three times.
    let scale = env_f64("AGL_PPI_SCALE", 0.08);
    let ppi = ppi_like(PpiConfig { seed: 17, scale });
    let ppi_flat = flatten_dataset(&ppi, 2, SamplingStrategy::Uniform { max_degree: 15 }).expect("graphflat");
    println!(
        "\n-- training pipeline: prefetch on/off (PPI-like {scale}, GCN 2-layer; mean epoch time of epochs 2-3) --"
    );
    for workers in [1, 2] {
        let mut times = [Vec::new(), Vec::new()];
        let mut losses = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (i, pipeline) in [true, false].into_iter().enumerate() {
                let mut m = GnnModel::new(ModelConfig::new(
                    ModelKind::Gcn,
                    ppi.feature_dim(),
                    64,
                    ppi.label_dim,
                    2,
                    Loss::BceWithLogits,
                ));
                let opts = TrainOptions {
                    epochs: 3,
                    batch_size: 64,
                    lr: 0.01,
                    pruning: true,
                    partitions: 2,
                    pipeline,
                    ..TrainOptions::default()
                };
                let r = DistTrainer::new(workers, opts).train(&mut m, &ppi_flat.train, None);
                losses[i] = r.epochs.iter().map(|e| e.loss.to_bits()).collect();
                times[i].push(format!("{:.3}", TrainResult { epochs: r.epochs }.mean_epoch_time().as_secs_f64()));
            }
        }
        println!("workers {workers} pipeline on  {} s", times[0].join(" / "));
        println!("workers {workers} pipeline off {} s", times[1].join(" / "));
        println!("workers {workers} loss curves bit-identical on/off: {}", losses[0] == losses[1]);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n({cores} cores available; each worker adds a compute and a prefetch thread.)");
}
