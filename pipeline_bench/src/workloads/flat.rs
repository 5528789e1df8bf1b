//! `flat.uug-2hop` — GraphFlat over a power-law graph, then the store write.
//!
//! Why: GraphFlat is the most expensive offline stage. Here `agl-flat`,
//! the thread-pool MapReduce engine and GraphFeature **encode** do nearly
//! all the work; the trainer, inference and serving layers do none, so a
//! change to any of those must leave every number of this workload alone.

use super::{secs, Digest, RepStats, Scale, Verdict, Workload, PARALLELISM};
use crate::spans::Spans;
use agl_datasets::{uug_like, UugConfig};
use agl_flat::{
    decode_graph_feature, encode_graph_feature, FeatureStore, FlatConfig, FlatOutput, GraphFlat, SamplingStrategy,
    TargetSpec,
};
use agl_graph::{EdgeTable, NodeTable};
use agl_mapreduce::{EngineConfig, JobReport};
use agl_obs::Clock;
use std::path::{Path, PathBuf};

/// Store shards written per repetition.
const STORE_SHARDS: usize = 2;

pub struct FlatUug {
    nodes: NodeTable,
    edges: EdgeTable,
    flat: GraphFlat,
    store_dir: PathBuf,
    last: Option<(FlatOutput, FeatureStore)>,
}

/// Per-layer values every MapReduce job reports, from its [`JobReport`].
pub fn job_layer_metrics(report: &JobReport) -> Vec<(&'static str, f64)> {
    vec![
        ("mapreduce.shuffle_bytes", report.shuffle_bytes as f64),
        ("mapreduce.records_in", report.rounds.iter().map(|r| r.input_records).sum::<u64>() as f64),
        ("mapreduce.records_out", report.rounds.iter().map(|r| r.output_records).sum::<u64>() as f64),
        ("mapreduce.spill_bytes", report.spill_bytes as f64),
        ("mapreduce.task_retries", report.task_retries as f64),
        ("mapreduce.attempted_tasks", report.attempted_tasks as f64),
        ("mapreduce.committed_tasks", report.committed_tasks as f64),
    ]
}

impl FlatUug {
    pub fn set_up(seed: u64, scale: Scale, scratch: &Path) -> Self {
        let ds = uug_like(UugConfig {
            seed,
            n_nodes: scale.pick(15_000, 750),
            avg_degree: 8.0,
            gamma: 2.1,
            feature_dim: 32,
            ..UugConfig::default()
        });
        let (nodes, edges) = ds.graph().to_tables();
        let flat = GraphFlat::new(FlatConfig {
            k_hops: 2,
            sampling: SamplingStrategy::Uniform { max_degree: 10 },
            // Low enough that the generator's biggest hubs are re-indexed
            // (checked in `verify`), as §3.2.2 does for production hubs.
            hub_threshold: scale.pick(128, 32),
            reindex_fanout: 4,
            engine: EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM),
            ..FlatConfig::default()
        });
        Self { nodes, edges, flat, store_dir: scratch.join("flat-store"), last: None }
    }
}

impl Workload for FlatUug {
    fn records(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn reset(&mut self) -> Result<(), String> {
        if let Some((_, store)) = self.last.take() {
            store.remove().map_err(|e| format!("removing the previous store: {e}"))?;
        }
        Ok(())
    }

    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String> {
        let out = {
            let _s = spans.open("flat.run_s", root, rep);
            self.flat.run(&self.nodes, &self.edges, &TargetSpec::All).map_err(|e| format!("GraphFlat::run: {e}"))?
        };
        let store = {
            let _s = spans.open("flat.store_write_s", root, rep);
            FeatureStore::create(&self.store_dir, STORE_SHARDS, &out.examples)
                .map_err(|e| format!("FeatureStore::create: {e}"))?
        };
        let report = JobReport::from_counters(&out.counters);
        let missing = (self.nodes.len() as u64).saturating_sub(out.examples.len() as u64);
        let mut layer = job_layer_metrics(&report);
        layer.push(("flat.store_bytes", store.disk_bytes().map_err(|e| e.to_string())? as f64));
        let stats = RepStats {
            ops_attempted: self.nodes.len() as u64,
            ops_failed: missing + report.task_retries,
            records_per_s: None,
            layer,
        };
        self.last = Some((out, store));
        Ok(stats)
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let Some((out, store)) = &self.last else {
            v.failures.push("no repetition ran".into());
            return v;
        };
        v.require(out.examples.len() == self.nodes.len(), || {
            format!("|examples| {} != |targets| {}", out.examples.len(), self.nodes.len())
        });
        v.require(out.counters.get("flat.hub_partials_merged") > 0, || {
            "hub re-indexing never fired: no target's partial GraphFeatures were merged".into()
        });
        let mut d = Digest::default();
        for ex in &out.examples {
            d.u64(ex.target.0);
            d.f32s(&ex.label);
            d.bytes(&ex.graph_feature);
        }
        v.digest = d.finish();
        match store.read_all() {
            Ok(mut read) => {
                read.sort_by_key(|e| e.target);
                let same = read.len() == out.examples.len()
                    && read
                        .iter()
                        .zip(&out.examples)
                        .all(|(a, b)| a.target == b.target && a.label == b.label && a.graph_feature == b.graph_feature);
                v.require(same, || "the store does not read back what GraphFlat produced".into());
            }
            Err(e) => v.failures.push(format!("FeatureStore::read_all: {e}")),
        }
        v
    }

    fn probes(&mut self, clock: &Clock) -> Result<Vec<(&'static str, f64)>, String> {
        let Some((out, store)) = &self.last else { return Ok(Vec::new()) };
        let t = clock.now();
        let read = store.read_all().map_err(|e| e.to_string())?;
        let read_s = secs(clock.since(t));
        std::hint::black_box(read);
        let (decode_ns, encode_ns) = codec_probe(clock, out.examples.iter().map(|e| e.graph_feature.as_slice()))?;
        Ok(vec![
            ("flat.store_read_s", read_s),
            ("flat.codec_decode_ns", decode_ns),
            ("flat.codec_encode_ns", encode_ns),
        ])
    }
}

/// Decode then re-encode every GraphFeature once: mean nanoseconds per
/// GraphFeature for each direction, `(decode, encode)`.
pub fn codec_probe<'a>(clock: &Clock, features: impl Iterator<Item = &'a [u8]>) -> Result<(f64, f64), String> {
    let (mut n, mut decode_ns, mut encode_ns) = (0u64, 0u64, 0u64);
    for bytes in features {
        let t = clock.now();
        let sub = decode_graph_feature(std::hint::black_box(bytes)).map_err(|e| e.to_string())?;
        decode_ns += clock.since(t);
        let t = clock.now();
        let back = encode_graph_feature(std::hint::black_box(&sub));
        encode_ns += clock.since(t);
        std::hint::black_box(back);
        n += 1;
    }
    let n = n.max(1) as f64;
    Ok((decode_ns as f64 / n, encode_ns as f64 / n))
}
