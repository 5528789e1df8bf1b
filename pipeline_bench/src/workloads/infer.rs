//! `infer.uug-hub` — streamed full-graph inference under hub skew.
//!
//! Why: `agl-infer`, the bounded-memory `mapreduce::stream` executor and
//! the shuffle combiner own the time, the shuffle volume and the resident
//! memory. The MapReduce layer is used differently from `flat.uug-2hop`
//! (one partition resident, not a thread pool), so an executor change that
//! helps one and costs the other shows as two rows moving apart.

use super::flat::job_layer_metrics;
use super::{Digest, RepStats, Scale, Verdict, Workload, MODEL_SEED, PARALLELISM};
use crate::spans::Spans;
use agl_datasets::{uug_like, UugConfig};
use agl_graph::{EdgeTable, NodeTable};
use agl_infer::{InferConfig, InferOutput, StreamInfer};
use agl_mapreduce::{EngineConfig, JobReport};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Clock;

pub struct InferHub {
    nodes: NodeTable,
    edges: EdgeTable,
    model: GnnModel,
    infer: StreamInfer,
    last: Option<InferOutput>,
}

/// Per-layer values of one streamed (or distributed) inference job.
pub fn infer_layer_metrics(out: &InferOutput) -> Vec<(&'static str, f64)> {
    let mut layer = job_layer_metrics(&JobReport::from_counters(&out.counters));
    layer.push(("infer.embeddings_computed", out.counters.get("infer.embeddings_computed") as f64));
    layer.push(("infer.combine_bytes_saved", out.counters.get("combine.bytes_saved") as f64));
    layer.push(("infer.peak_resident_bytes", out.counters.get("stream.peak_resident_bytes") as f64));
    layer
}

impl InferHub {
    pub fn set_up(seed: u64, scale: Scale) -> Self {
        // γ 1.9 puts more of the edge mass on the biggest hubs than the
        // 2.1 of `flat.uug-2hop`: the degree-gated combiner has work to do.
        let ds = uug_like(UugConfig {
            seed,
            n_nodes: scale.pick(32_000, 1_600),
            avg_degree: 8.0,
            gamma: 1.9,
            feature_dim: 32,
            ..UugConfig::default()
        });
        let (nodes, edges) = ds.graph().to_tables();
        let model = GnnModel::new(
            ModelConfig::new(ModelKind::Gcn, nodes.feature_dim(), 32, 2, 2, Loss::SoftmaxCrossEntropy)
                .with_seed(MODEL_SEED),
        );
        // Sampling off: the GAS merge folds every in-edge, which is what
        // lets the combiner pre-fold hub messages exactly.
        let infer = StreamInfer::new(InferConfig {
            engine: EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM),
            ..InferConfig::default()
        });
        Self { nodes, edges, model, infer, last: None }
    }
}

impl Workload for InferHub {
    fn records(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String> {
        // Drop the previous output first: two resident score tables would
        // double what `peak_rss_bytes` sees.
        self.last = None;
        let out = {
            let _s = spans.open("infer.run_s", root, rep);
            self.infer.run(&self.model, &self.nodes, &self.edges).map_err(|e| format!("StreamInfer::run: {e}"))?
        };
        let n = self.nodes.len() as u64;
        let stats = RepStats {
            ops_attempted: n,
            ops_failed: n.saturating_sub(out.scores.len() as u64) + out.counters.get("task_retries"),
            records_per_s: None,
            layer: infer_layer_metrics(&out),
        };
        self.last = Some(out);
        Ok(stats)
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let Some(out) = &self.last else {
            v.failures.push("no repetition ran".into());
            return v;
        };
        let want = (self.nodes.len() * self.model.n_layers()) as u64;
        let got = out.counters.get("infer.embeddings_computed");
        v.require(got == want, || format!("embeddings_computed {got} != |V|·K = {want}"));
        v.require(out.scores.len() == self.nodes.len(), || {
            format!("{} nodes scored of {}", out.scores.len(), self.nodes.len())
        });
        v.require(out.counters.get("combine.records_in") > 0, || "the shuffle combiner never fired".into());
        v.digest = scores_digest(out);
        v
    }

    fn probes(&mut self, _clock: &Clock) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Digest of an inference output: node ids and score bits, in id order.
pub fn scores_digest(out: &InferOutput) -> u64 {
    let mut d = Digest::default();
    for s in &out.scores {
        d.u64(s.node.0);
        d.f32s(&s.probs);
    }
    d.finish()
}
