//! `agl-cli` — the §3.5 command line:
//!
//! ```text
//! GraphFlat    -n node_table -e edge_table -h hops -s sampling_strategy;
//! GraphTrainer -m model_name -i input -t train_strategy -c dist_configs;
//! GraphInfer   -m model -i input -c infer_configs;
//! ```
//!
//! as subcommands over plain tab-separated tables:
//!
//! ```text
//! agl-cli demo  --out-dir data                     # write a synthetic dataset
//! agl-cli flat  --nodes data/nodes.tsv --edges data/edges.tsv \
//!               --hops 2 --sampling uniform:10 --out data/features
//! agl-cli train --store data/features --model gat --hidden 8 --out data/model.agl \
//!               --epochs 5 --workers 4 --consistency ssp:4
//! agl-cli infer --model data/model.agl --nodes data/nodes.tsv \
//!               --edges data/edges.tsv --out data/scores.tsv
//! agl-cli serve-bench --synthetic-nodes 1000 --shards 4     # online read path
//! agl-cli serve --workers 2 --synthetic-nodes 300           # multi-process shards
//! agl-cli obs-report --trace t.json --metrics m.json        # analyze artifacts
//! ```
//!
//! Node table: `id \t f1,f2,... \t l1,l2,...` (labels optional).
//! Edge table: `src \t dst \t weight`.
//!
//! Every subcommand additionally accepts the observability flags
//! `--trace-out trace.json` (Chrome trace-event file), `--metrics-out
//! metrics.json` (counter/gauge/histogram dump) and `--clock
//! logical|monotonic`; either `*-out` flag switches instrumentation on and
//! prints the per-run span/metric summaries.

use agl::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&parse_flags(&args[1..])),
        Some("flat") => cmd_flat(&parse_flags(&args[1..])),
        Some("train") => cmd_train(&parse_flags(&args[1..])),
        Some("infer") => cmd_infer(&parse_flags(&args[1..])),
        Some("infer-stream") => cmd_infer_stream(&parse_flags(&args[1..])),
        Some("dist-run") => cmd_dist_run(&parse_flags(&args[1..])),
        Some("dist-worker") => cmd_dist_worker(&parse_flags(&args[1..])),
        Some("serve") => cmd_serve(&parse_flags(&args[1..])),
        Some("serve-bench") => cmd_serve_bench(&parse_flags(&args[1..])),
        Some("serve-worker") => cmd_serve_worker(&parse_flags(&args[1..])),
        Some("obs-report") => cmd_obs_report(&parse_flags(&args[1..])),
        _ => {
            eprintln!(
                "usage: agl-cli <demo|flat|train|infer|infer-stream|dist-run|dist-worker|serve|serve-bench|serve-worker|obs-report> [--flag value]..."
            );
            eprintln!("see crate docs for the table formats and flags");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Flags = HashMap<String, String>;
type CliResult = Result<(), Box<dyn std::error::Error>>;

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
}

fn flag_or<'a>(flags: &'a Flags, name: &str, default: &'a str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or(default)
}

/// `--trace-out <path>` / `--metrics-out <path>` switch tracing on for the
/// run; `--clock logical|monotonic` (default `monotonic`) picks the
/// timestamp source — logical ticks make the trace byte-identical across
/// runs of a deterministic job.
fn parse_obs(flags: &Flags) -> Result<Obs, String> {
    if !flags.contains_key("trace-out") && !flags.contains_key("metrics-out") {
        return Ok(Obs::default());
    }
    match flag_or(flags, "clock", "monotonic") {
        "monotonic" => Ok(Obs::enabled()),
        "logical" => Ok(Obs::enabled_logical()),
        other => Err(format!("unknown clock {other:?} (logical|monotonic)")),
    }
}

/// Write the `--trace-out` / `--metrics-out` files and print the
/// human-readable span + metric summaries. No-op for a disabled handle.
fn write_obs_outputs(flags: &Flags, obs: &Obs) -> CliResult {
    let Some(trace) = obs.trace() else { return Ok(()) };
    if let Some(path) = flags.get("trace-out") {
        fs::write(path, trace.to_chrome_json())?;
        println!("trace: {} spans -> {path} (load in chrome://tracing or Perfetto)", trace.events().len());
    }
    let metrics = obs.metrics().expect("enabled obs handle carries a registry");
    if let Some(path) = flags.get("metrics-out") {
        fs::write(path, metrics.to_json())?;
        println!("metrics -> {path}");
    }
    print!("{}", trace.render());
    print!("{}", metrics.render());
    Ok(())
}

fn parse_sampling(s: &str) -> Result<SamplingStrategy, String> {
    if s == "none" {
        return Ok(SamplingStrategy::None);
    }
    let (kind, max) = s.split_once(':').ok_or_else(|| format!("bad sampling {s:?}, want e.g. uniform:10"))?;
    let max_degree: usize = max.parse().map_err(|_| format!("bad sampling cap {max:?}"))?;
    match kind {
        "uniform" => Ok(SamplingStrategy::Uniform { max_degree }),
        "weighted" => Ok(SamplingStrategy::Weighted { max_degree }),
        "topk" => Ok(SamplingStrategy::TopK { max_degree }),
        _ => Err(format!("unknown sampling kind {kind:?}")),
    }
}

// ---- table I/O ----

fn parse_floats(s: &str) -> Result<Vec<f32>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|x| x.trim().parse::<f32>().map_err(|e| format!("bad float {x:?}: {e}"))).collect()
}

fn read_node_table(path: &str) -> Result<NodeTable, Box<dyn std::error::Error>> {
    let text = fs::read_to_string(path)?;
    let mut ids = Vec::new();
    let mut feats: Vec<Vec<f32>> = Vec::new();
    let mut labels: Vec<Vec<f32>> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let id: u64 =
            cols.next().ok_or("empty line")?.trim().parse().map_err(|e| format!("{path}:{}: bad id: {e}", ln + 1))?;
        let f = parse_floats(cols.next().unwrap_or(""))?;
        let l = parse_floats(cols.next().unwrap_or(""))?;
        ids.push(NodeId(id));
        feats.push(f);
        labels.push(l);
    }
    if ids.is_empty() {
        return Err(format!("{path}: no nodes").into());
    }
    let fdim = feats[0].len();
    let ldim = labels.iter().map(Vec::len).max().unwrap_or(0);
    let mut fmat = Matrix::zeros(ids.len(), fdim);
    let mut lmat = Matrix::zeros(ids.len(), ldim);
    for (i, (f, l)) in feats.iter().zip(&labels).enumerate() {
        if f.len() != fdim {
            return Err(format!("{path}: node {} has {} features, expected {fdim}", ids[i], f.len()).into());
        }
        fmat.row_mut(i).copy_from_slice(f);
        lmat.row_mut(i)[..l.len()].copy_from_slice(l);
    }
    Ok(NodeTable::new(ids, fmat, (ldim > 0).then_some(lmat)))
}

fn read_edge_table(path: &str) -> Result<EdgeTable, Box<dyn std::error::Error>> {
    let text = fs::read_to_string(path)?;
    let mut pairs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let src: u64 = cols.next().ok_or("empty")?.trim().parse().map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        let dst: u64 =
            cols.next().ok_or("missing dst")?.trim().parse().map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        let weight: f32 =
            cols.next().map_or(Ok(1.0), |w| w.trim().parse()).map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        pairs.push(agl::graph::tables::EdgeRow { src: NodeId(src), dst: NodeId(dst), weight });
    }
    Ok(EdgeTable::new(pairs, None))
}

// ---- subcommands ----

fn cmd_demo(flags: &Flags) -> CliResult {
    let dir = flag(flags, "out-dir")?;
    let n: usize = flag_or(flags, "nodes", "2000").parse()?;
    fs::create_dir_all(dir)?;
    let ds = uug_like(UugConfig { n_nodes: n, feature_dim: 8, ..UugConfig::default() });
    let g = ds.graph();
    let mut nf = String::new();
    let labels = g.labels().unwrap();
    for (i, id) in g.node_ids().iter().enumerate() {
        let feats: Vec<String> = g.features().row(i).iter().map(|v| format!("{v:.4}")).collect();
        nf.push_str(&format!("{}\t{}\t{}\n", id.0, feats.join(","), labels[(i, 0)]));
    }
    fs::write(Path::new(dir).join("nodes.tsv"), nf)?;
    let mut ef = String::new();
    for (dst, src, w) in g.in_adj().iter_entries() {
        ef.push_str(&format!("{}\t{}\t{w}\n", g.node_id(src).0, g.node_id(dst).0));
    }
    fs::write(Path::new(dir).join("edges.tsv"), ef)?;
    let train_ids: Vec<String> = ds.train.node_ids().iter().map(|n| n.0.to_string()).collect();
    fs::write(Path::new(dir).join("train_ids.txt"), train_ids.join("\n"))?;
    println!("wrote {} nodes / {} edges / {} train ids under {dir}/", g.n_nodes(), g.n_edges(), ds.train.len());
    Ok(())
}

fn cmd_flat(flags: &Flags) -> CliResult {
    let nodes = read_node_table(flag(flags, "nodes")?)?;
    let edges = read_edge_table(flag(flags, "edges")?)?;
    let hops: usize = flag_or(flags, "hops", "2").parse()?;
    let sampling = parse_sampling(flag_or(flags, "sampling", "none"))?;
    let out = flag(flags, "out")?;
    let shards: usize = flag_or(flags, "shards", "8").parse()?;
    let targets = match flags.get("targets") {
        None => TargetSpec::All,
        Some(path) if path == "all" => TargetSpec::All,
        Some(path) => {
            let ids = fs::read_to_string(path)?
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| l.trim().parse::<u64>().map(NodeId))
                .collect::<Result<Vec<_>, _>>()?;
            TargetSpec::Ids(ids)
        }
    };
    let obs = parse_obs(flags)?;
    let job = AglJob::new()
        .hops(hops)
        .sampling(sampling)
        .seed(flag_or(flags, "seed", "42").parse()?)
        .reindex(flag_or(flags, "hub-threshold", "10000").parse()?, flag_or(flags, "fanout", "4").parse()?)
        .obs(obs.clone());
    let result = job.graph_flat(&nodes, &edges, &targets)?;
    let store = agl::flat::FeatureStore::create(out, shards, &result.examples)?;
    println!(
        "GraphFlat: {} GraphFeatures -> {} ({} shards, {:.1} MB)",
        result.examples.len(),
        out,
        store.n_shards(),
        store.disk_bytes()? as f64 / 1e6
    );
    for (name, v) in result.counters.snapshot() {
        if name.starts_with("flat.") {
            println!("  {name} = {v}");
        }
    }
    println!("job report:");
    print!("{}", JobReport::from_counters(&result.counters).render());
    write_obs_outputs(flags, &obs)
}

fn model_kind(name: &str, heads: usize) -> Result<ModelKind, String> {
    match name {
        "gcn" => Ok(ModelKind::Gcn),
        "sage" | "graphsage" => Ok(ModelKind::Sage),
        "gat" => Ok(ModelKind::Gat { heads }),
        _ => Err(format!("unknown model {name:?} (gcn|sage|gat)")),
    }
}

/// `--consistency sync | async | ssp:<slack>` — the worker-coordination
/// mode for `--workers > 1`.
fn parse_consistency(s: &str) -> Result<Consistency, String> {
    match s {
        "sync" => Ok(Consistency::Sync),
        "async" => Ok(Consistency::Async),
        _ => match s.strip_prefix("ssp:") {
            Some(slack) => match slack.parse() {
                Ok(slack) => Ok(Consistency::Ssp { slack }),
                Err(_) => Err(format!("bad SSP slack {slack:?} (want ssp:<u64>)")),
            },
            None => Err(format!("unknown consistency {s:?} (sync|async|ssp:<slack>)")),
        },
    }
}

/// A count flag that must be at least 1.
fn positive_flag(flags: &Flags, name: &str, default: &str) -> Result<usize, Box<dyn std::error::Error>> {
    match flag_or(flags, name, default).parse()? {
        0 => Err(format!("--{name} must be > 0").into()),
        n => Ok(n),
    }
}

fn cmd_train(flags: &Flags) -> CliResult {
    let epochs = positive_flag(flags, "epochs", "10")?;
    let batch_size = positive_flag(flags, "batch-size", "32")?;
    let workers = positive_flag(flags, "workers", "1")?;
    let store = agl::flat::FeatureStore::open(flag(flags, "store")?)?;
    let examples = store.read_all()?;
    if examples.is_empty() {
        return Err("store is empty".into());
    }
    let sample = decode_graph_feature(&examples[0].graph_feature).map_err(|e| e.to_string())?;
    let in_dim = sample.features.cols();
    let out_dim = examples.iter().map(|e| e.label.len()).max().unwrap_or(1).max(1);
    let layers: usize = flag_or(flags, "layers", "2").parse()?;
    let hidden: usize = flag_or(flags, "hidden", "16").parse()?;
    let heads: usize = flag_or(flags, "heads", "2").parse()?;
    let loss = match flag_or(flags, "loss", if out_dim == 1 { "bce" } else { "softmax" }) {
        "softmax" => Loss::SoftmaxCrossEntropy,
        "bce" => Loss::BceWithLogits,
        other => return Err(format!("unknown loss {other:?}").into()),
    };
    let kind = model_kind(flag_or(flags, "model", "gcn"), heads)?;
    let cfg = ModelConfig::new(kind, in_dim, hidden, out_dim, layers, loss)
        .with_dropout(flag_or(flags, "dropout", "0").parse()?)
        .with_seed(flag_or(flags, "seed", "42").parse()?);
    let mut model = GnnModel::new(cfg);
    let obs = parse_obs(flags)?;
    let opts = TrainOptions {
        epochs,
        lr: flag_or(flags, "lr", "0.01").parse()?,
        batch_size,
        pruning: flag_or(flags, "pruning", "true").parse()?,
        partitions: flag_or(flags, "partitions", "1").parse()?,
        consistency: parse_consistency(flag_or(flags, "consistency", "sync"))?,
        ..TrainOptions::default()
    }
    .with_obs(obs.clone());
    println!(
        "training {} ({} params) on {} triples, {} workers ({})",
        kind.name(),
        model.param_count(),
        examples.len(),
        workers,
        opts.consistency
    );
    let result = train_distributed(&mut model, &examples, None, workers, &opts);
    for e in &result.epochs {
        println!("epoch {:>3}: loss {:.4} ({:.2}s)", e.epoch + 1, e.loss, e.duration.as_secs_f64());
    }
    println!(
        "ps: {} steps, max staleness {}, {} gate waits ({:.1} ms waited)",
        result.ps_stats.steps,
        result.max_staleness,
        result.ps_stats.ssp_waits,
        result.ps_stats.ssp_wait_nanos as f64 / 1e6
    );
    let metrics = LocalTrainer::evaluate(&model, &examples, &opts);
    println!("train metrics: loss {:.4} headline {:.4}", metrics.loss, metrics.headline());
    let out = flag(flags, "out")?;
    fs::write(out, model_to_bytes(&model))?;
    println!("model saved to {out}");
    write_obs_outputs(flags, &obs)
}

/// `agl-cli dist-run` — multi-process GraphFlat + PS training on a
/// synthetic graph:
///
/// ```text
/// agl-cli dist-run --dir /tmp/agl-dist --shuffle-workers 2 --ps-shards 2 \
///                  --nodes 300 --hops 2 --epochs 2 --verify true
/// ```
///
/// Spawns `agl-cli dist-worker` children on Unix-domain sockets under
/// `--dir`, drives them, prints the merged report, and exits non-zero on
/// any failure. `--kill-shuffle-after N` / `--kill-ps-after N` SIGKILL a
/// worker mid-job (fault-injection suites); `--verify true` re-runs
/// in-process and asserts bit-identical output.
fn cmd_dist_run(flags: &Flags) -> CliResult {
    let dir = flag(flags, "dir")?;
    let obs = parse_obs(flags)?;
    let cfg = agl::DistRunConfig {
        n_nodes: flag_or(flags, "nodes", "300").parse()?,
        hops: flag_or(flags, "hops", "2").parse()?,
        shuffle_workers: flag_or(flags, "shuffle-workers", "2").parse()?,
        ps_shards: flag_or(flags, "ps-shards", "2").parse()?,
        train_workers: flag_or(flags, "train-workers", "2").parse()?,
        epochs: flag_or(flags, "epochs", "2").parse()?,
        seed: flag_or(flags, "seed", "42").parse()?,
        socket_dir: dir.into(),
        worker_bin: std::env::current_exe()?,
        verify: flag_or(flags, "verify", "false").parse()?,
        kill_shuffle_after: flags.get("kill-shuffle-after").map(|v| v.parse()).transpose()?,
        kill_ps_after: flags.get("kill-ps-after").map(|v| v.parse()).transpose()?,
        opts: agl::mapreduce::DistOptions {
            connect_timeout_ns: flag_or(flags, "connect-timeout-secs", "10").parse::<u64>()? * 1_000_000_000,
            io_timeout_ns: flag_or(flags, "io-timeout-secs", "30").parse::<u64>()? * 1_000_000_000,
        },
        obs: obs.clone(),
    };
    let summary = agl::run_distributed_job(&cfg)?;
    println!(
        "dist-run: {} GraphFeatures, {} shuffle workers + {} ps shards, {} trainer workers",
        summary.examples, cfg.shuffle_workers, cfg.ps_shards, cfg.train_workers
    );
    // Machine-readable lines (the CI smoke suite and EXPERIMENTS.md parse
    // these).
    println!("flat_wall_ms={:.1}", summary.flat_wall_ns as f64 / 1e6);
    println!("train_wall_ms={:.1}", summary.train_wall_ns as f64 / 1e6);
    println!("task_retries={}", summary.task_retries);
    println!("final_loss={:.6}", summary.final_loss);
    println!("ps_pulls={} ps_pushes={}", summary.ps_stats.pulls, summary.ps_stats.pushes);
    println!("verified={}", summary.verified);
    println!("job report:");
    print!("{}", summary.report);
    write_obs_outputs(flags, &obs)
}

/// `agl-cli obs-report --trace trace.json [--metrics metrics.json]` —
/// offline analysis of the artifacts a traced run wrote: per-stage span
/// medians, per-round straggler ranking, shuffle bytes per worker, RPC
/// telemetry totals, and the count of worker spans causally parented under
/// driver RPC spans. Output is deterministic for a logical-clock trace, so
/// CI can diff it across same-seed runs.
fn cmd_obs_report(flags: &Flags) -> CliResult {
    let trace = fs::read_to_string(flag(flags, "trace")?)?;
    let metrics = flags.get("metrics").map(fs::read_to_string).transpose()?;
    let report = agl::mapreduce::ObsReport::from_artifacts(&trace, metrics.as_deref())?;
    print!("{}", report.render());
    Ok(())
}

/// `agl-cli dist-worker --role shuffle|infer-shuffle|ps --listen
/// unix:<path>` — one worker process: binds the endpoint, serves its
/// protocol until the driver shuts it down (or vanishes), then exits.
/// Spawned by `dist-run` (`shuffle`/`ps`) and `infer-stream --workers N`
/// (`infer-shuffle`, a combining shuffle worker that rebuilds the
/// GraphInfer reducer/combiner pair from the shipped spec); runnable by
/// hand for debugging.
fn cmd_dist_worker(flags: &Flags) -> CliResult {
    let ep = agl::mapreduce::Endpoint::parse(flag(flags, "listen")?)?;
    let accept_timeout_ns = flag_or(flags, "accept-timeout-secs", "60").parse::<u64>()? * 1_000_000_000;
    let listener = agl::mapreduce::Listener::bind(&ep)?;
    match flag(flags, "role")? {
        "shuffle" => agl::mapreduce::serve_shuffle(&listener, accept_timeout_ns, &agl::flat::flat_reducer_from_spec)?,
        "infer-shuffle" => agl::mapreduce::serve_shuffle_combining(
            &listener,
            accept_timeout_ns,
            &agl::infer::infer_reducer_from_spec,
            &agl::infer::infer_combiner_from_spec,
        )?,
        "ps" => agl::ps::serve_ps_shard(&listener, accept_timeout_ns)?,
        other => return Err(format!("unknown role {other:?} (shuffle|infer-shuffle|ps)").into()),
    }
    Ok(())
}

/// Shared serving setup: an [`AglJob`] carrying the seed/obs/serve knobs.
fn serve_job(flags: &Flags, obs: &Obs) -> Result<AglJob, Box<dyn std::error::Error>> {
    Ok(AglJob::new()
        .sampling(parse_sampling(flag_or(flags, "sampling", "none"))?)
        .seed(flag_or(flags, "seed", "42").parse()?)
        .obs(obs.clone())
        .serve(agl::serve::ServeConfig {
            shards: flag_or(flags, "shards", "4").parse()?,
            topk: flag_or(flags, "topk", "8").parse()?,
            ..agl::serve::ServeConfig::default()
        }))
}

/// The `InferOutput` to serve: `--model/--nodes/--edges` files when given
/// (same inputs as `infer`), otherwise a synthetic UUG-like graph scored by
/// a freshly seeded model (`--synthetic-nodes`, default 1000). Both paths
/// are deterministic under `--seed`.
fn serving_output(flags: &Flags, job: &AglJob) -> Result<InferOutput, Box<dyn std::error::Error>> {
    if flags.contains_key("model") {
        let model = model_from_bytes(&fs::read(flag(flags, "model")?)?)?;
        let nodes = read_node_table(flag(flags, "nodes")?)?;
        let edges = read_edge_table(flag(flags, "edges")?)?;
        Ok(job.graph_infer(&model, &nodes, &edges)?)
    } else {
        let n: usize = flag_or(flags, "synthetic-nodes", "1000").parse()?;
        let seed: u64 = flag_or(flags, "seed", "42").parse()?;
        let ds = uug_like(UugConfig { n_nodes: n, feature_dim: 8, seed, ..UugConfig::default() });
        let (nodes, edges) = ds.graph().to_tables();
        let model =
            GnnModel::new(ModelConfig::new(ModelKind::Gcn, 8, 16, 8, 2, Loss::SoftmaxCrossEntropy).with_seed(seed));
        Ok(job.graph_infer(&model, &nodes, &edges)?)
    }
}

/// `agl-cli serve-bench` — build the sharded store and drive the seeded
/// power-law closed-loop workload against it:
///
/// ```text
/// agl-cli serve-bench --synthetic-nodes 1000 --shards 4 --topk 8 \
///                     --load-workers 4 --batches 250 --batch-size 16
/// ```
///
/// Prints the latency/QPS report plus machine-readable `qps=` /
/// `lookup_p99_ns=` lines (the CI smoke suite and EXPERIMENTS.md parse
/// these).
fn cmd_serve_bench(flags: &Flags) -> CliResult {
    let obs = parse_obs(flags)?;
    let job = serve_job(flags, &obs)?;
    let output = serving_output(flags, &job)?;
    let store = job.build_serving(&output);
    let load = LoadConfig {
        workers: flag_or(flags, "load-workers", "4").parse()?,
        batches_per_worker: flag_or(flags, "batches", "250").parse()?,
        batch_size: flag_or(flags, "batch-size", "16").parse()?,
        topk_every: flag_or(flags, "topk-every", "10").parse()?,
        gamma: flag_or(flags, "gamma", "2.1").parse()?,
    };
    println!(
        "serve-bench: {} vectors (dim {}) across {} shards, {} closed-loop workers",
        store.len(),
        store.dim(),
        store.n_shards(),
        load.workers
    );
    let report = run_load(&store, &job.serve_config(), &load);
    println!("{}", report.render());
    println!("qps={}", report.qps);
    println!("lookup_p50_ns={}", report.lookup_p50);
    println!("lookup_p99_ns={}", report.lookup_p99);
    println!("topk_p99_ns={}", report.topk_p99);
    write_obs_outputs(flags, &obs)
}

/// `agl-cli serve --workers N` — sharded multi-process serving: spawn one
/// `serve-worker` per shard under the `ChildReaper` supervision `dist-run`
/// uses, load each with its hash-partition, then verify a sample of point
/// lookups and one top-k fan-out against the in-process store
/// (bit-identical by construction). Exits non-zero on any mismatch.
fn cmd_serve(flags: &Flags) -> CliResult {
    let obs = parse_obs(flags)?;
    let workers: usize = flag_or(flags, "workers", "2").parse()?;
    if workers == 0 {
        return Err("--workers must be > 0".into());
    }
    let dir = Path::new(flag_or(flags, "dir", "/tmp/agl-serve")).to_path_buf();
    fs::create_dir_all(&dir)?;
    let job = serve_job(flags, &obs)?;
    let output = serving_output(flags, &job)?;
    let local = job.build_serving(&output);

    let reaper = agl::ChildReaper::new();
    let bin = std::env::current_exe()?;
    let mut eps = Vec::new();
    for i in 0..workers {
        let sock = dir.join(format!("serve{i}.sock"));
        let _ = fs::remove_file(&sock);
        let ep = agl::mapreduce::Endpoint::Unix(sock.clone());
        let args = vec!["serve-worker".to_string(), "--listen".to_string(), ep.to_string()];
        reaper.spawn(&bin, &args, sock)?;
        eps.push(ep);
    }
    let clock = Clock::monotonic();
    let timeout_ns = flag_or(flags, "connect-timeout-secs", "10").parse::<u64>()? * 1_000_000_000;
    let vectors = output.scores.iter().map(|s| (s.node, s.probs.clone()));
    let flush_every: u64 = flag_or(flags, "metrics-flush-every", "4").parse()?;
    let mut remote =
        agl::serve::RemoteStore::connect_with_obs(&eps, vectors, &clock, timeout_ns, obs.clone(), flush_every)?;
    println!("serve: {} vectors (dim {}) across {} worker processes", local.len(), remote.dim(), workers);

    // Spot-check: a deterministic sample of point lookups plus one top-k
    // fan-out, each compared against the in-process store.
    let stride = (output.scores.len() / 16).max(1);
    let sample: Vec<NodeId> = output.scores.iter().step_by(stride).map(|s| s.node).collect();
    let answers = remote.lookup(&sample)?;
    let mut verified = true;
    for (id, got) in sample.iter().zip(&answers) {
        verified &= got.as_deref() == local.get(*id).as_deref();
    }
    let probe = sample[0];
    let want = local.topk_neighbors(probe, job.serve_config().topk).unwrap_or_default();
    let query = local.get(probe).map(|r| r.to_vec()).unwrap_or_default();
    let have = remote.topk(&query, job.serve_config().topk, Some(probe))?;
    verified &= have == want;
    remote.shutdown();
    println!("lookups={} topk={}", sample.len(), have.len());
    println!("verified={verified}");
    if !verified {
        return Err("remote answers diverged from the in-process store".into());
    }
    write_obs_outputs(flags, &obs)
}

/// `agl-cli serve-worker --listen unix:<path>` — one shard-host process:
/// binds the endpoint, serves the owning driver until `Shutdown` or EOF.
/// Spawned by `serve`; runnable by hand for debugging.
fn cmd_serve_worker(flags: &Flags) -> CliResult {
    let ep = agl::mapreduce::Endpoint::parse(flag(flags, "listen")?)?;
    agl::serve::serve_shard_worker(&ep)?;
    Ok(())
}

/// `agl-cli infer-stream` — streaming full-graph inference (the
/// InferTurbo-style GAS pipeline with shuffle combining):
///
/// ```text
/// agl-cli infer-stream --model data/model.agl --nodes data/nodes.tsv \
///                      --edges data/edges.tsv --out data/scores.tsv
/// agl-cli infer-stream --synthetic-nodes 400 --verify true       # smoke
/// agl-cli infer-stream --synthetic-nodes 400 --workers 2 \
///                      --dir /tmp/agl-infer --verify true        # multi-process
/// ```
///
/// `--degree-threshold N|none` tunes (or disables) the combiner;
/// `--mode materialized` runs the fully-materialized engine instead of the
/// bounded-memory streamed one (the EXPERIMENTS.md cost-ratio baseline);
/// `--workers N` farms the reduce rounds out to `dist-worker
/// --role infer-shuffle` child processes; `--verify true` re-runs the
/// materialized in-process baseline and asserts the scores are
/// bit-identical. Prints machine-readable `key=value` lines (the CI smoke
/// suite and EXPERIMENTS.md parse these).
fn cmd_infer_stream(flags: &Flags) -> CliResult {
    let obs = parse_obs(flags)?;
    let (model, nodes, edges) = if flags.contains_key("model") {
        let model = model_from_bytes(&fs::read(flag(flags, "model")?)?)?;
        let nodes = read_node_table(flag(flags, "nodes")?)?;
        let edges = read_edge_table(flag(flags, "edges")?)?;
        (model, nodes, edges)
    } else {
        let n: usize = flag_or(flags, "synthetic-nodes", "400").parse()?;
        let seed: u64 = flag_or(flags, "seed", "42").parse()?;
        let ds = uug_like(UugConfig { n_nodes: n, feature_dim: 8, seed, ..UugConfig::default() });
        let (nodes, edges) = ds.graph().to_tables();
        let model =
            GnnModel::new(ModelConfig::new(ModelKind::Gcn, 8, 16, 8, 2, Loss::SoftmaxCrossEntropy).with_seed(seed));
        (model, nodes, edges)
    };
    let mut job = AglJob::new()
        .sampling(parse_sampling(flag_or(flags, "sampling", "none"))?)
        .seed(flag_or(flags, "seed", "42").parse()?)
        .obs(obs.clone());
    match flags.get("degree-threshold").map(String::as_str) {
        None => {}
        Some("none") => job = job.combine_threshold(None),
        Some(t) => job = job.combine_threshold(Some(t.parse()?)),
    }
    let si = job.stream_infer();
    let workers: usize = flag_or(flags, "workers", "0").parse()?;
    let mode = flag_or(flags, "mode", "streamed");
    let wall = agl::obs::Clock::monotonic();
    let t0 = wall.now();

    let result = if mode == "materialized" {
        si.run_materialized(&model, &nodes, &edges)?
    } else if workers > 0 {
        let dir = Path::new(flag_or(flags, "dir", "/tmp/agl-infer-stream")).to_path_buf();
        fs::create_dir_all(&dir)?;
        let reaper = agl::ChildReaper::new();
        let bin = std::env::current_exe()?;
        let mut eps = Vec::new();
        for i in 0..workers {
            let sock = dir.join(format!("infer{i}.sock"));
            let _ = fs::remove_file(&sock);
            let ep = agl::mapreduce::Endpoint::Unix(sock.clone());
            let args = vec![
                "dist-worker".to_string(),
                "--role".to_string(),
                "infer-shuffle".to_string(),
                "--listen".to_string(),
                ep.to_string(),
            ];
            reaper.spawn(&bin, &args, sock)?;
            eps.push(ep);
        }
        let opts = agl::mapreduce::DistOptions {
            connect_timeout_ns: flag_or(flags, "connect-timeout-secs", "10").parse::<u64>()? * 1_000_000_000,
            io_timeout_ns: flag_or(flags, "io-timeout-secs", "30").parse::<u64>()? * 1_000_000_000,
        };
        job.graph_infer_stream_distributed(&model, &nodes, &edges, &eps, &opts)?
        // `reaper` drops here: surviving children are killed and reaped,
        // socket files removed — the CI leak checks rely on this.
    } else {
        si.run(&model, &nodes, &edges)?
    };
    let elapsed_ms = wall.since(t0) as f64 / 1e6;

    if let Some(out) = flags.get("out") {
        let mut f = fs::File::create(out)?;
        for s in &result.scores {
            let probs: Vec<String> = s.probs.iter().map(|p| format!("{p:.6}")).collect();
            writeln!(f, "{}\t{}", s.node.0, probs.join(","))?;
        }
        println!("infer-stream: {} scores -> {out}", result.scores.len());
    }

    let mut verified = true;
    if flag_or(flags, "verify", "false").parse::<bool>()? {
        let baseline = si.run_materialized(&model, &nodes, &edges)?;
        // NodeScore is PartialEq over f32 — equality is bit-identity.
        verified = result.scores == baseline.scores;
    }

    // Machine-readable lines (the CI smoke suite and EXPERIMENTS.md parse
    // these).
    println!("scores={}", result.scores.len());
    println!("mode={mode}");
    println!("elapsed_ms={elapsed_ms:.1}");
    println!("gas={}", si.gas_eligible(&model));
    println!("embeddings_computed={}", result.counters.get("infer.embeddings_computed"));
    println!("peak_resident_bytes={}", result.counters.get("stream.peak_resident_bytes"));
    println!(
        "combine_records_in={} combine_records_out={} combine_bytes_saved={}",
        result.counters.get("combine.records_in"),
        result.counters.get("combine.records_out"),
        result.counters.get("combine.bytes_saved")
    );
    if flag_or(flags, "verify", "false").parse::<bool>()? {
        println!("verified={verified}");
    }
    println!("job report:");
    print!("{}", JobReport::from_counters(&result.counters).render());
    write_obs_outputs(flags, &obs)?;
    if !verified {
        return Err("streamed scores diverged from the materialized baseline".into());
    }
    Ok(())
}

fn cmd_infer(flags: &Flags) -> CliResult {
    let model = model_from_bytes(&fs::read(flag(flags, "model")?)?)?;
    let nodes = read_node_table(flag(flags, "nodes")?)?;
    let edges = read_edge_table(flag(flags, "edges")?)?;
    let obs = parse_obs(flags)?;
    let job = AglJob::new()
        .sampling(parse_sampling(flag_or(flags, "sampling", "none"))?)
        .seed(flag_or(flags, "seed", "42").parse()?)
        .obs(obs.clone());
    let result = job.graph_infer(&model, &nodes, &edges)?;
    let out = flag(flags, "out")?;
    let mut f = fs::File::create(out)?;
    for s in &result.scores {
        let probs: Vec<String> = s.probs.iter().map(|p| format!("{p:.6}")).collect();
        writeln!(f, "{}\t{}", s.node.0, probs.join(","))?;
    }
    println!(
        "GraphInfer: {} scores -> {out} ({} embeddings computed)",
        result.scores.len(),
        result.counters.get("infer.embeddings_computed")
    );
    println!("job report:");
    print!("{}", JobReport::from_counters(&result.counters).render());
    write_obs_outputs(flags, &obs)
}
