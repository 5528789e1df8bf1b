//! Training options and the standalone-mode trainer (the configuration
//! Table 4 measures). Workers are independent (§3.3), so standalone mode
//! is one [`DistTrainer`] worker against an in-process parameter server:
//! there is one batch loop, with all three optimisation strategies
//! individually switchable.

use crate::dist::DistTrainer;
use crate::metrics::Metrics;
use crate::pipeline::{prepare_batch, PrepSpec};
use agl_flat::TrainingExample;
use agl_mapreduce::EngineConfig;
use agl_nn::GnnModel;
use agl_obs::{Clock, Obs};
use agl_tensor::{seeded_rng, ExecCtx, Matrix};
use std::time::Duration;

/// Training knobs — the Table 4 ablation axes plus the usual hyper-params.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    pub batch_size: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Graph pruning (`+pruning`).
    pub pruning: bool,
    /// Edge partitions / aggregation threads; 1 disables (`+partition` ⇒ >1).
    pub partitions: usize,
    /// Prefetch pipeline: each worker prepares its batches on a prefetch
    /// thread (`AGL_base` keeps this on — the paper's baseline "trains only
    /// with the pipeline strategy").
    pub pipeline: bool,
    /// Worker-coordination mode on the parameter server
    /// ([`LocalTrainer`]'s single worker never waits on another).
    pub consistency: agl_ps::Consistency,
    /// Shared engine knobs. The trainer consumes `engine.seed` (batch
    /// shuffle), `engine.obs` (epoch/pipeline spans, PS metrics) and the
    /// effective clock; the MapReduce task counts only matter to the
    /// flatten/infer stages but ride along so one [`EngineConfig`] can be
    /// written across a whole job.
    pub engine: EngineConfig,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            batch_size: 32,
            epochs: 10,
            lr: 0.01,
            pruning: false,
            partitions: 1,
            pipeline: true,
            consistency: agl_ps::Consistency::Sync,
            // Seed 7 is the historical `shuffle_seed` default; keeping it
            // preserves every seeded training curve bit-for-bit.
            engine: EngineConfig::seeded(7),
        }
    }
}

impl TrainOptions {
    /// Builder-style obs-handle override (writes `engine.obs`).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Builder-style shuffle-seed override (writes `engine.seed`).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Builder-style engine override.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The configured obs handle.
    pub fn obs(&self) -> &Obs {
        &self.engine.obs
    }

    /// Epoch-timing source: the obs handle's clock when one is attached
    /// (keeping logical-clock runs wallclock-free), monotonic otherwise.
    pub(crate) fn clock(&self) -> Clock {
        self.engine.effective_clock()
    }

    /// The kernel context these options ask for: `partitions` aggregation
    /// threads, kernel spans on the obs handle.
    pub fn ctx_public(&self) -> ExecCtx {
        let base = if self.partitions > 1 { ExecCtx::parallel(self.partitions) } else { ExecCtx::sequential() };
        base.with_obs(self.engine.obs.clone())
    }

    /// The batch preprocessing `model` needs under these options.
    pub fn spec_public(&self, model: &GnnModel) -> PrepSpec {
        PrepSpec {
            n_layers: model.n_layers(),
            prep: model.layers()[0].adj_prep(),
            label_dim: model.config().out_dim,
            prune: self.pruning,
        }
    }
}

/// Per-epoch record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    pub epoch: usize,
    /// Training loss of the model after the epoch's updates, over the first
    /// 512 training examples.
    pub loss: f64,
    /// Time of the epoch's batch loop; the loss probe is not in it.
    pub duration: Duration,
    /// Batches each worker ran.
    pub batches: usize,
}

/// Training history.
#[derive(Debug, Clone)]
pub struct TrainResult {
    pub epochs: Vec<EpochStats>,
}

impl TrainResult {
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.loss)
    }

    /// Mean epoch duration, skipping the first (warm-up) epoch when there
    /// are enough — the Table 4 measurement convention.
    pub fn mean_epoch_time(&self) -> Duration {
        let skip = usize::from(self.epochs.len() > 2);
        let rest = &self.epochs[skip..];
        if rest.is_empty() {
            return Duration::ZERO;
        }
        rest.iter().map(|e| e.duration).sum::<Duration>() / rest.len() as u32
    }
}

/// Standalone trainer: one [`DistTrainer`] worker over an in-process
/// parameter server that applies Adam.
#[derive(Debug, Clone)]
pub struct LocalTrainer {
    pub opts: TrainOptions,
}

impl LocalTrainer {
    pub fn new(opts: TrainOptions) -> Self {
        assert!(opts.batch_size > 0 && opts.epochs > 0);
        Self { opts }
    }

    /// Train in place; returns per-epoch stats.
    pub fn train(&self, model: &mut GnnModel, examples: &[TrainingExample]) -> TrainResult {
        self.train_with_callback(model, examples, |_, _| {})
    }

    /// Train, invoking `after_epoch(epoch, model)` after each epoch (used to
    /// collect validation curves).
    pub fn train_with_callback(
        &self,
        model: &mut GnnModel,
        examples: &[TrainingExample],
        mut after_epoch: impl FnMut(usize, &GnnModel),
    ) -> TrainResult {
        assert!(!examples.is_empty(), "no training examples");
        let trainer = DistTrainer::new(1, self.opts.clone());
        TrainResult { epochs: trainer.train_in_process(model, examples, None, &mut after_epoch).epochs }
    }

    /// Train with validation-based early stopping — the paper's protocol of
    /// a maximum epoch budget with the best-validation model kept (§4.1.2
    /// trains "at a maximum of 200 epochs").
    ///
    /// Stops after `patience` epochs without improvement of the validation
    /// headline metric; the model is left at the *best* parameters seen.
    /// Returns the history and the best validation metrics.
    pub fn train_early_stopping(
        &self,
        model: &mut GnnModel,
        train: &[TrainingExample],
        val: &[TrainingExample],
        patience: usize,
    ) -> (TrainResult, Metrics) {
        let mut best: Option<(Metrics, Vec<f32>)> = None;
        let mut since_best = 0usize;
        let mut stop_at = None;
        let opts = self.opts.clone();
        let result = self.train_with_callback(model, train, |epoch, m| {
            if stop_at.is_some() {
                return; // budget exhausted; remaining epochs are no-ops below
            }
            let metrics = Self::evaluate(m, val, &opts);
            let improved = best.as_ref().is_none_or(|(b, _)| metrics.headline() > b.headline());
            if improved {
                best = Some((metrics, m.param_vector()));
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= patience {
                    stop_at = Some(epoch);
                }
            }
        });
        let Some((best_metrics, best_params)) = best else {
            // Unreachable in practice: the constructor asserts `epochs > 0`
            // and the first epoch always improves on `None` — but fall back
            // to evaluating the current parameters rather than aborting.
            return (result, Self::evaluate(model, val, &opts));
        };
        model.load_param_vector(&best_params);
        (result, best_metrics)
    }

    /// Evaluate a model over examples (eval mode, no dropout), producing the
    /// task-appropriate metrics.
    pub fn evaluate(model: &GnnModel, examples: &[TrainingExample], opts: &TrainOptions) -> Metrics {
        assert!(!examples.is_empty(), "no evaluation examples");
        let ctx = opts.ctx_public();
        let spec = opts.spec_public(model);
        let out_dim = model.config().out_dim;
        let mut logits = Matrix::zeros(examples.len(), out_dim);
        let mut labels = Matrix::zeros(examples.len(), out_dim);
        let mut row = 0;
        let mut rng = seeded_rng(0);
        for chunk in examples.chunks(opts.batch_size) {
            let prepared = prepare_batch(chunk, &spec);
            let pass =
                model.forward(&prepared.adjs, &prepared.batch.features, &prepared.batch.targets, false, &ctx, &mut rng);
            for i in 0..chunk.len() {
                logits.row_mut(row).copy_from_slice(pass.logits.row(i));
                labels.row_mut(row).copy_from_slice(prepared.batch.labels.row(i));
                row += 1;
            }
        }
        Metrics::compute(model.config().loss, &logits, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_flat::encode_graph_feature;
    use agl_graph::{NodeId, SubEdge, Subgraph};
    use agl_nn::{Loss, ModelConfig, ModelKind};

    /// Tiny learnable task: target's label equals the sign pattern of its
    /// neighbor's features.
    fn dataset(n: usize) -> Vec<TrainingExample> {
        (0..n as u64)
            .map(|i| {
                let class = (i % 2) as usize;
                let sign = if class == 0 { 1.0 } else { -1.0 };
                let sub = Subgraph {
                    target_locals: vec![0],
                    node_ids: vec![NodeId(i), NodeId(i + 10_000)],
                    features: Matrix::from_rows(&[&[0.1, -0.1], &[sign, sign * 0.5]]),
                    edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
                    edge_features: None,
                };
                let mut label = vec![0.0; 2];
                label[class] = 1.0;
                TrainingExample { target: NodeId(i), label, graph_feature: encode_graph_feature(&sub) }
            })
            .collect()
    }

    fn model() -> GnnModel {
        GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 8, 2, 2, Loss::SoftmaxCrossEntropy))
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let data = dataset(64);
        let mut m = model();
        let opts = TrainOptions { epochs: 20, lr: 0.05, ..TrainOptions::default() };
        let result = LocalTrainer::new(opts.clone()).train(&mut m, &data);
        assert!(result.final_loss() < result.epochs[0].loss * 0.5, "loss halved");
        let metrics = LocalTrainer::evaluate(&m, &data, &opts);
        assert!(metrics.accuracy.unwrap() > 0.9, "accuracy {:?}", metrics.accuracy);
    }

    #[test]
    fn all_ablation_configs_learn_the_same_task() {
        let data = dataset(32);
        for (pruning, partitions, pipeline) in [(false, 1, true), (true, 1, true), (false, 3, true), (true, 3, false)] {
            let mut m = model();
            let opts = TrainOptions { epochs: 12, lr: 0.05, pruning, partitions, pipeline, ..TrainOptions::default() };
            LocalTrainer::new(opts.clone()).train(&mut m, &data);
            let metrics = LocalTrainer::evaluate(&m, &data, &opts);
            assert!(
                metrics.accuracy.unwrap() > 0.85,
                "pruning={pruning} partitions={partitions} pipeline={pipeline}: {:?}",
                metrics.accuracy
            );
        }
    }

    #[test]
    fn pruning_and_partitioning_do_not_change_gradients() {
        // One epoch over identical batches: the optimisations are exact, so
        // final parameters must match (partitioned spmm is bit-identical;
        // pruning removes only dead rows).
        let data = dataset(16);
        let run = |pruning: bool, partitions: usize| {
            let mut m = model();
            let opts =
                TrainOptions { epochs: 2, lr: 0.05, pruning, partitions, pipeline: false, ..TrainOptions::default() };
            LocalTrainer::new(opts).train(&mut m, &data);
            m.param_vector()
        };
        let base = run(false, 1);
        let pruned = run(true, 1);
        let partitioned = run(false, 4);
        for (i, ((a, b), c)) in base.iter().zip(&pruned).zip(&partitioned).enumerate() {
            assert!((a - b).abs() < 1e-5, "pruning changed param {i}: {a} vs {b}");
            assert!((a - c).abs() < 1e-6, "partitioning changed param {i}: {a} vs {c}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = dataset(16);
        let run = || {
            let mut m = model();
            LocalTrainer::new(TrainOptions { epochs: 3, ..TrainOptions::default() }).train(&mut m, &data);
            m.param_vector()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn early_stopping_keeps_best_validation_model() {
        let train = dataset(48);
        let val = dataset(24);
        let mut m = model();
        let opts = TrainOptions { epochs: 40, lr: 0.05, ..TrainOptions::default() };
        let (history, best) = LocalTrainer::new(opts.clone()).train_early_stopping(&mut m, &train, &val, 5);
        assert!(best.accuracy.unwrap() > 0.9, "best val acc {:?}", best.accuracy);
        // The restored model reproduces the reported best metrics exactly.
        let now = LocalTrainer::evaluate(&m, &val, &opts);
        assert_eq!(now.accuracy, best.accuracy);
        assert_eq!(history.epochs.len(), 40, "history covers the full budget");
    }

    #[test]
    fn obs_reports_pipeline_stage_occupancy() {
        let data = dataset(16);
        let obs = agl_obs::Obs::enabled();
        let mut m = model();
        let opts = TrainOptions { epochs: 2, batch_size: 4, ..TrainOptions::default() }.with_obs(obs.clone());
        LocalTrainer::new(opts).train(&mut m, &data);
        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.get("trainer.epochs"), 2);
        assert!(metrics.get("pipeline.prefetch.busy_nanos") > 0, "prefetch stage did real work");
        let events = obs.trace().unwrap().events();
        // 16 examples / batch 4 = 4 prepare spans per epoch, on the
        // prefetch track; one epoch span per epoch on the trainer track.
        assert_eq!(events.iter().filter(|e| e.name == "pipeline.prepare").count(), 8);
        assert!(events.iter().filter(|e| e.name == "pipeline.prepare").all(|e| e.track == "pipeline.prefetch.w0"));
        assert_eq!(events.iter().filter(|e| e.name == "train.epoch" && e.track == "trainer").count(), 2);
    }

    #[test]
    fn epoch_stats_are_recorded() {
        let data = dataset(10);
        let mut m = model();
        let r = LocalTrainer::new(TrainOptions { epochs: 4, batch_size: 3, ..TrainOptions::default() })
            .train(&mut m, &data);
        assert_eq!(r.epochs.len(), 4);
        assert!(r.epochs.iter().all(|e| e.batches == 4)); // ceil(10/3)
        assert!(r.mean_epoch_time() > Duration::ZERO);
    }
}
