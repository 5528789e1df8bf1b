//! `train.ppi-2layer` — read the GraphFeature store, train one epoch.
//!
//! Why: `agl-trainer` (vectorize, prune), `agl-nn`, the `agl-tensor`
//! aggregation kernel, `agl-ps` and GraphFeature **decode** dominate, and
//! no MapReduce job runs — so this is the workload every GraphFlat or
//! GraphInfer optimisation must leave unchanged, and the one the SpMM-pool
//! and decode items should move.

use super::flat::codec_probe;
use super::{secs, Digest, RepStats, Scale, Verdict, Workload, MODEL_SEED, PARALLELISM};
use crate::spans::Spans;
use agl_datasets::{ppi_like, PpiConfig};
use agl_flat::{FeatureStore, FlatConfig, GraphFlat, SamplingStrategy, TargetSpec, TrainingExample};
use agl_mapreduce::EngineConfig;
use agl_nn::{Adam, GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Clock;
use agl_ps::{Consistency, ParameterServer, PsStats};
use agl_tensor::{seeded_rng, ExecCtx};
use agl_trainer::pipeline::prepare_batch;
use agl_trainer::{vectorize, DistTrainResult, DistTrainer, LocalTrainer, TrainOptions};
use std::path::Path;

const PS_SHARDS: usize = 2;

pub struct TrainPpi {
    store: FeatureStore,
    template: GnnModel,
    trainer: DistTrainer,
    n_examples: usize,
    /// Loss of the untrained model over the trainer's own evaluation
    /// sample: one epoch must end below it.
    initial_loss: f64,
    last: Option<(GnnModel, DistTrainResult, Vec<TrainingExample>)>,
}

/// Per-layer values of a training run's parameter-server traffic.
pub fn ps_layer_metrics(stats: &PsStats, max_staleness: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("ps.pulls", stats.pulls as f64),
        ("ps.pushes", stats.pushes as f64),
        ("ps.bytes", stats.bytes_transferred as f64),
        ("ps.ssp_wait_s", secs(stats.ssp_wait_nanos)),
        ("ps.max_staleness", max_staleness as f64),
    ]
}

/// Pushes a synchronous epoch must make: every worker pushes once per
/// batch of the longest partition.
pub fn expected_pushes(n_examples: usize, trainer: &DistTrainer) -> u64 {
    let per_worker = n_examples.div_ceil(trainer.n_workers);
    (per_worker.div_ceil(trainer.opts.batch_size).max(1) * trainer.n_workers * trainer.opts.epochs) as u64
}

impl TrainPpi {
    pub fn set_up(seed: u64, scale: Scale, scratch: &Path) -> Result<Self, String> {
        let ds = ppi_like(PpiConfig { seed, scale: scale.pick(0.08, 0.01) });
        // The paper's inductive protocol: every node of every training
        // graph is a target; its 2-hop GraphFeature is what training reads.
        let flat = GraphFlat::new(FlatConfig {
            k_hops: 2,
            sampling: SamplingStrategy::Uniform { max_degree: 15 },
            engine: EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM),
            ..FlatConfig::default()
        });
        let mut examples = Vec::new();
        for &gi in ds.train.graph_indices() {
            let (nodes, edges) = ds.graphs[gi].to_tables();
            let out = flat.run(&nodes, &edges, &TargetSpec::All).map_err(|e| format!("flattening graph {gi}: {e}"))?;
            examples.extend(out.examples);
        }
        let store = FeatureStore::create(scratch.join("train-store"), PARALLELISM, &examples)
            .map_err(|e| format!("FeatureStore::create: {e}"))?;
        let template = GnnModel::new(
            ModelConfig::new(ModelKind::Gcn, ds.feature_dim(), 64, ds.label_dim, 2, Loss::BceWithLogits)
                .with_seed(MODEL_SEED),
        );
        // The paper's full configuration (Table 4's last row): pipeline,
        // pruning and edge-partitioned aggregation all on.
        let opts = TrainOptions {
            batch_size: 64,
            epochs: 1,
            lr: 0.01,
            pruning: true,
            partitions: PARALLELISM,
            pipeline: true,
            consistency: Consistency::Sync,
            engine: EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM),
        };
        let mut trainer = DistTrainer::new(PARALLELISM, opts);
        trainer.n_shards = PS_SHARDS;
        let stored = store.read_all().map_err(|e| e.to_string())?;
        let sample = &stored[..stored.len().min(512)];
        let initial_loss = LocalTrainer::evaluate(&template, sample, &trainer.opts).loss;
        Ok(Self { store, template, trainer, n_examples: stored.len(), initial_loss, last: None })
    }
}

impl Workload for TrainPpi {
    fn records(&self) -> u64 {
        (self.n_examples * self.trainer.opts.epochs) as u64
    }

    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String> {
        let examples = {
            let _s = spans.open("flat.store_read_s", root, rep);
            self.store.read_all().map_err(|e| format!("FeatureStore::read_all: {e}"))?
        };
        // A fresh clone of the seeded model: every repetition starts from
        // the same parameters and does identical arithmetic.
        let mut model = self.template.clone();
        let result = {
            let _s = spans.open("trainer.epoch_s", root, rep);
            self.trainer.train(&mut model, &examples, None)
        };
        let expected = expected_pushes(examples.len(), &self.trainer);
        let stats = RepStats {
            ops_attempted: expected,
            ops_failed: expected.abs_diff(result.ps_stats.pushes),
            records_per_s: None,
            layer: ps_layer_metrics(&result.ps_stats, result.max_staleness),
        };
        self.last = Some((model, result, examples));
        Ok(stats)
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let Some((model, result, examples)) = &self.last else {
            v.failures.push("no repetition ran".into());
            return v;
        };
        v.require(examples.len() == self.n_examples, || {
            format!("read {} examples, the store holds {}", examples.len(), self.n_examples)
        });
        let loss = result.epochs.last().map_or(f64::NAN, |e| e.loss);
        v.require(loss.is_finite() && loss < self.initial_loss, || {
            format!("training loss {loss} is not finite and below the untrained model's {}", self.initial_loss)
        });
        let mut d = Digest::default();
        d.f32s(&model.param_vector());
        d.u64(loss.to_bits());
        v.digest = d.finish();
        v
    }

    fn probes(&mut self, clock: &Clock) -> Result<Vec<(&'static str, f64)>, String> {
        let Some((model, _, examples)) = &self.last else { return Ok(Vec::new()) };
        let opts = &self.trainer.opts;
        let spec = opts.spec_public(model);
        let ctx = opts.ctx_public();
        let (seq, par) = (ExecCtx::sequential(), ExecCtx::parallel(PARALLELISM));
        let mut model = self.template.clone();
        let mut rng = seeded_rng(opts.engine.seed);
        let (mut vectorize_ns, mut forward_ns, mut backward_ns) = (0u64, 0u64, 0u64);
        let (mut seq_ns, mut par_ns, mut nnz) = (0u64, 0u64, 0u64);
        for chunk in examples.chunks(opts.batch_size) {
            let t = clock.now();
            std::hint::black_box(vectorize(chunk, spec.label_dim));
            vectorize_ns += clock.since(t);

            let prepared = prepare_batch(chunk, &spec);
            let (adjs, batch) = (&prepared.adjs, &prepared.batch);
            model.zero_grads();
            let t = clock.now();
            let pass = model.forward(adjs, &batch.features, &batch.targets, true, &ctx, &mut rng);
            forward_ns += clock.since(t);
            let (_, grad) = model.loss(&pass.logits, &batch.labels);
            let t = clock.now();
            model.backward(adjs, &pass, &grad, &ctx);
            backward_ns += clock.since(t);

            let t = clock.now();
            std::hint::black_box(seq.spmm(&adjs[0], &batch.features));
            seq_ns += clock.since(t);
            let t = clock.now();
            std::hint::black_box(par.spmm(&adjs[0], &batch.features));
            par_ns += clock.since(t);
            nnz += adjs[0].nnz() as u64;
        }
        let (decode_ns, encode_ns) = codec_probe(clock, examples.iter().map(|e| e.graph_feature.as_slice()))?;
        let nnz = nnz.max(1) as f64;
        Ok(vec![
            ("trainer.vectorize_ns_per_example", vectorize_ns as f64 / examples.len().max(1) as f64),
            ("nn.forward_s", secs(forward_ns)),
            ("nn.backward_s", secs(backward_ns)),
            ("tensor.spmm_ns_per_nnz.seq", seq_ns as f64 / nnz),
            ("tensor.spmm_ns_per_nnz.par2", par_ns as f64 / nnz),
            ("flat.codec_decode_ns", decode_ns),
            ("flat.codec_encode_ns", encode_ns),
            ("ps.pull_push_ns", ps_pull_push_in_process(clock, &self.template)),
        ])
    }
}

/// Mean nanoseconds of one pull + push against an in-process server
/// holding `model`'s parameters (one worker, so nothing waits).
fn ps_pull_push_in_process(clock: &Clock, model: &GnnModel) -> f64 {
    const ROUNDS: u64 = 200;
    let server =
        ParameterServer::new(model.param_vector(), PS_SHARDS, 1, Consistency::Sync, || Box::new(Adam::new(0.01)));
    let grads = vec![1e-3f32; server.len()];
    let t = clock.now();
    for _ in 0..ROUNDS {
        std::hint::black_box(server.pull(0));
        server.push(0, &grads);
    }
    clock.since(t) as f64 / ROUNDS as f64
}
