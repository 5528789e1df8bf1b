//! Distributed training on the parameter server (§3.3 / Figures 7–8).
//!
//! Each worker owns a partition of the training triples (self-contained by
//! Theorem 1) and exchanges state with the [`agl_ps::ParameterServer`]
//! only: pull the model, compute gradients on its own batch, push. This is
//! the trainer's one batch loop; the standalone [`LocalTrainer`] is one
//! worker of it. With `TrainOptions::pipeline` each worker prepares its
//! batches on its own prefetch thread (§3.3.2).
//!
//! The coordination mode is [`Consistency`] (from `TrainOptions`): the
//! paper's synchronous configuration (used for the Fig. 7 convergence
//! study), Hogwild-style async, or SSP with a bounded staleness slack —
//! for which `DistTrainResult::max_staleness <= slack` is enforced as a
//! hard invariant after every run.
//!
//! In the synchronous configuration the effective batch grows with the
//! worker count — which is exactly why *"more training epochs are required
//! in the distributed mode"* while the final AUC matches.

use crate::metrics::Metrics;
use crate::pipeline::{prefetch, read_and_prepare, PreparedBatch};
use crate::trainer::{EpochStats, LocalTrainer, TrainOptions};
use agl_flat::TrainingExample;
use agl_mapreduce::TransportError;
use agl_nn::{Adam, GnnModel};
use agl_ps::{run_client_workers, Consistency, ParameterServer, PsClient, PsStats};
use agl_tensor::rng::derive_seed;
use agl_tensor::rng::SliceRandom;
use agl_tensor::seeded_rng;
use std::time::Duration;

/// Distributed-training configuration. The coordination mode lives in
/// `opts.consistency` — there is exactly one way to pick it.
#[derive(Debug, Clone)]
pub struct DistTrainer {
    pub n_workers: usize,
    /// Parameter-server shards.
    pub n_shards: usize,
    pub opts: TrainOptions,
    /// Fault injection for staleness tests: worker `i` sleeps this long
    /// before every push, making it a deterministic straggler.
    pub straggler: Option<(usize, Duration)>,
}

/// Distributed-training outcome.
#[derive(Debug, Clone)]
pub struct DistTrainResult {
    pub epochs: Vec<EpochStats>,
    /// Validation metrics after each epoch (when a validation set is given).
    pub val_curve: Vec<Metrics>,
    pub ps_stats: PsStats,
    /// Largest gradient staleness any worker observed: server model version
    /// at apply time minus the version its gradient was computed against.
    /// Always 0 in `Sync` mode (the barrier forces a common version),
    /// `<= slack` in `Ssp` mode (enforced), unbounded in `Async`.
    ///
    /// Recorded by the server under its version lock at apply time and read
    /// from its stats after every worker thread has joined, so no final
    /// read can race a straggler's last push.
    pub max_staleness: u64,
}

impl DistTrainer {
    pub fn new(n_workers: usize, opts: TrainOptions) -> Self {
        assert!(n_workers > 0 && opts.batch_size > 0);
        Self { n_workers, n_shards: 4, opts, straggler: None }
    }

    /// Train `model` over `train`, optionally evaluating `val` after every
    /// epoch. The final server parameters are loaded back into `model`.
    ///
    /// Builds an in-process [`ParameterServer`] and runs the exact same
    /// loop [`Self::train_with_client`] runs against a remote one.
    pub fn train(
        &self,
        model: &mut GnnModel,
        train: &[TrainingExample],
        val: Option<&[TrainingExample]>,
    ) -> DistTrainResult {
        self.train_in_process(model, train, val, &mut |_, _| {})
    }

    /// [`Self::train`], calling `after_epoch(epoch, model)` after each epoch.
    pub(crate) fn train_in_process(
        &self,
        model: &mut GnnModel,
        train: &[TrainingExample],
        val: Option<&[TrainingExample]>,
        after_epoch: &mut dyn FnMut(usize, &GnnModel),
    ) -> DistTrainResult {
        let lr = self.opts.lr;
        let server =
            ParameterServer::new(model.param_vector(), self.n_shards, self.n_workers, self.opts.consistency, || {
                Box::new(Adam::new(lr))
            })
            .with_obs(self.opts.engine.obs.clone());
        match self.run(model, train, val, &server, after_epoch) {
            Ok(r) => r,
            #[expect(clippy::panic, reason = "the in-process PsClient impl is infallible; Err is unreachable")]
            Err(e) => panic!("in-process parameter server failed: {e}"),
        }
    }

    /// Train `model` against any [`PsClient`] — the in-process server or an
    /// [`agl_ps::RemotePs`] talking to shard processes over sockets. Both
    /// modes share this single code path; only the client differs.
    ///
    /// On a remote client, a dead shard surfaces here as `Err(TransportError)`
    /// within the connection's read deadline — the epoch loop stops, every
    /// worker thread is joined, and the model keeps its last good epoch.
    pub fn train_with_client<C: PsClient>(
        &self,
        model: &mut GnnModel,
        train: &[TrainingExample],
        val: Option<&[TrainingExample]>,
        server: &C,
    ) -> Result<DistTrainResult, TransportError> {
        self.run(model, train, val, server, &mut |_, _| {})
    }

    fn run<C: PsClient>(
        &self,
        model: &mut GnnModel,
        train: &[TrainingExample],
        val: Option<&[TrainingExample]>,
        server: &C,
        after_epoch: &mut dyn FnMut(usize, &GnnModel),
    ) -> Result<DistTrainResult, TransportError> {
        assert!(!train.is_empty());

        // Static data partition: worker w owns examples w, w+W, w+2W, ...
        // A worker past the end of a dataset smaller than W borrows example
        // w mod len instead of owning nothing.
        let partitions: Vec<Vec<usize>> = (0..self.n_workers)
            .map(|w| {
                if w < train.len() {
                    (w..train.len()).step_by(self.n_workers).collect()
                } else {
                    vec![w % train.len()]
                }
            })
            .collect();
        // Synchronous mode needs every worker to push the same number of
        // batches per epoch; short partitions cycle their data.
        let batches_per_worker =
            partitions.iter().map(|p| p.len().div_ceil(self.opts.batch_size)).max().unwrap_or(1).max(1);

        let spec = self.opts.spec_public(model);
        let ctx = self.opts.ctx_public();
        let template = model.clone();
        let clock = self.opts.clock();
        let mut epochs = Vec::with_capacity(self.opts.epochs);
        let mut val_curve = Vec::new();
        for epoch in 0..self.opts.epochs {
            let start = clock.now();
            let mut epoch_span = self.opts.engine.obs.span("trainer", "train.epoch");
            run_client_workers(server, self.n_workers, |w, ps| {
                // Per-worker kernel track: each worker's spans land on its
                // own `tensor.w{w}` lane, keeping logical-clock timestamps
                // independent of cross-worker thread interleaving.
                let ctx = ctx.clone().with_track(&format!("tensor.w{w}"));
                let mut replica = template.clone();
                let mut rng = seeded_rng(derive_seed(self.opts.engine.seed, (epoch * 1000 + w) as u64));
                let mut order = partitions[w].clone();
                order.shuffle(&mut rng);
                let (bs, len) = (self.opts.batch_size, order.len());
                let plan: Vec<Vec<usize>> = (0..batches_per_worker)
                    .map(|b| (0..bs.min(len)).map(|i| order[(b * bs + i) % len]).collect())
                    .collect();
                let mut step = |prepared: PreparedBatch| {
                    let (params, _pulled_version) = ps.pull_with_version(w)?;
                    replica.load_param_vector(&params);
                    replica.zero_grads();
                    let pass = replica.forward(
                        &prepared.adjs,
                        &prepared.batch.features,
                        &prepared.batch.targets,
                        true,
                        &ctx,
                        &mut rng,
                    );
                    let (_, grad) = replica.loss(&pass.logits, &prepared.batch.labels);
                    replica.backward(&prepared.adjs, &pass, &grad, &ctx);
                    if let Some((slow, delay)) = self.straggler {
                        if w == slow {
                            std::thread::sleep(delay);
                        }
                    }
                    // Staleness of this gradient — steps that land between
                    // our pull and the apply (§3.3's bounded-delay lens) —
                    // is recorded by the server under its version lock.
                    ps.push(w, &replica.grad_vector())
                };
                if self.opts.pipeline {
                    let track = format!("pipeline.prefetch.w{w}");
                    prefetch(train, &plan, &spec, &self.opts.engine.obs, &track, step)
                } else {
                    plan.iter().try_for_each(|idx| step(read_and_prepare(train, idx, &spec)))
                }
            })?;
            model.load_param_vector(&server.snapshot()?);
            epoch_span.counter("batches", batches_per_worker as u64);
            drop(epoch_span);
            self.opts.engine.obs.metric_add("trainer.epochs", 1);
            let duration = Duration::from_nanos(clock.since(start));
            // Mean train loss after the epoch's updates (cheap re-pass over
            // a sample keeps the run fast at large scale).
            let probe = &train[..train.len().min(512)];
            let m = LocalTrainer::evaluate(model, probe, &self.opts);
            epochs.push(EpochStats { epoch, loss: m.loss, duration, batches: batches_per_worker });
            if let Some(v) = val {
                val_curve.push(LocalTrainer::evaluate(model, v, &self.opts));
            }
            after_epoch(epoch, model);
        }
        // `run_client_workers` joined every worker thread above, so this
        // snapshot is ordered after all pushes (see
        // `DistTrainResult::max_staleness`).
        let ps_stats = server.stats()?;
        let max_staleness = ps_stats.max_staleness;
        // The tentpole contract: SSP turns the measured staleness into an
        // enforced bound. A violation is a server bug, never load-dependent
        // noise, so fail loudly right here.
        if let Consistency::Ssp { slack } = server.consistency() {
            assert!(
                max_staleness <= slack,
                "SSP contract violated: observed staleness {max_staleness} > slack {slack}"
            );
        }
        Ok(DistTrainResult { epochs, val_curve, ps_stats, max_staleness })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_flat::encode_graph_feature;
    use agl_graph::{NodeId, SubEdge, Subgraph};
    use agl_nn::{Loss, ModelConfig, ModelKind};
    use agl_tensor::Matrix;

    fn dataset(n: usize) -> Vec<TrainingExample> {
        (0..n as u64)
            .map(|i| {
                let y = (i % 2) as f32;
                let sign = 1.0 - 2.0 * y;
                let sub = Subgraph {
                    target_locals: vec![0],
                    node_ids: vec![NodeId(i), NodeId(i + 10_000)],
                    features: Matrix::from_rows(&[&[0.05, -0.05], &[sign, sign * 0.5]]),
                    edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
                    edge_features: None,
                };
                TrainingExample { target: NodeId(i), label: vec![y], graph_feature: encode_graph_feature(&sub) }
            })
            .collect()
    }

    fn model() -> GnnModel {
        GnnModel::new(ModelConfig::new(ModelKind::Sage, 2, 8, 1, 2, Loss::BceWithLogits))
    }

    fn opts(consistency: Consistency) -> TrainOptions {
        TrainOptions { epochs: 8, lr: 0.05, batch_size: 8, consistency, ..TrainOptions::default() }
    }

    #[test]
    fn distributed_training_converges_sync() {
        let data = dataset(64);
        let val = dataset(32);
        let mut m = model();
        let trainer = DistTrainer::new(4, opts(Consistency::Sync));
        let result = trainer.train(&mut m, &data, Some(&val));
        assert_eq!(result.val_curve.len(), 8);
        let final_auc = result.val_curve.last().unwrap().auc.unwrap();
        assert!(final_auc > 0.95, "val AUC {final_auc}");
        assert!(result.ps_stats.steps > 0);
        assert_eq!(result.ps_stats.pushes % 4, 0, "all workers pushed equally");
        assert_eq!(result.ps_stats.model_version, result.ps_stats.steps);
        assert_eq!(result.max_staleness, 0, "the sync barrier admits no stale gradients");
    }

    #[test]
    fn distributed_training_converges_async() {
        let data = dataset(48);
        let mut m = model();
        let trainer = DistTrainer::new(3, opts(Consistency::Async));
        let result = trainer.train(&mut m, &data, None);
        let metrics = LocalTrainer::evaluate(&m, &data, &trainer.opts);
        assert!(metrics.auc.unwrap() > 0.95, "AUC {:?}", metrics.auc);
        assert!(result.val_curve.is_empty());
        assert!(
            result.max_staleness <= result.ps_stats.steps,
            "staleness {} cannot exceed total applied steps {}",
            result.max_staleness,
            result.ps_stats.steps
        );
    }

    #[test]
    fn worker_counts_converge_to_same_level() {
        // The Fig. 7 property: different worker counts reach the same AUC
        // neighbourhood (not identical parameters).
        let data = dataset(60);
        let val = dataset(24);
        for workers in [1, 3, 6] {
            let mut m = model();
            let trainer = DistTrainer::new(
                workers,
                TrainOptions { epochs: 10, lr: 0.05, batch_size: 6, ..TrainOptions::default() },
            );
            let r = trainer.train(&mut m, &data, Some(&val));
            let auc = r.val_curve.last().unwrap().auc.unwrap();
            assert!(auc > 0.9, "{workers} workers: AUC {auc}");
        }
    }

    #[test]
    fn single_worker_sync_matches_standalone_shape() {
        let data = dataset(20);
        let mut m = model();
        let trainer = DistTrainer::new(1, TrainOptions { epochs: 2, batch_size: 5, ..TrainOptions::default() });
        let r = trainer.train(&mut m, &data, None);
        assert_eq!(r.epochs.len(), 2);
        assert_eq!(r.epochs[0].batches, 4);
    }

    #[test]
    fn ssp_staleness_bounded_across_workers_slack_and_delays() {
        // The tentpole property: for every (workers, slack, delay)
        // combination the observed max staleness respects the bound. The
        // straggler injection makes the fast workers actually hit the
        // gates, so the bound is exercised, not vacuous. (`train` itself
        // re-asserts the invariant as a hard contract.)
        let data = dataset(32);
        for &workers in &[1usize, 2, 4, 8] {
            for &slack in &[0u64, 1, 4] {
                for &delay in &[None, Some((0usize, Duration::from_millis(2)))] {
                    let mut m = model();
                    let mut trainer = DistTrainer::new(
                        workers,
                        TrainOptions {
                            epochs: 2,
                            lr: 0.05,
                            batch_size: 8,
                            consistency: Consistency::Ssp { slack },
                            ..TrainOptions::default()
                        },
                    );
                    trainer.straggler = delay;
                    let r = trainer.train(&mut m, &data, None);
                    assert!(
                        r.max_staleness <= slack,
                        "workers={workers} slack={slack} delay={delay:?}: staleness {} > slack",
                        r.max_staleness
                    );
                    assert_eq!(r.epochs.len(), 2, "workers={workers} slack={slack}: run completed");
                }
            }
        }
    }

    #[test]
    fn ssp_slack_zero_is_bit_identical_to_sync() {
        // `Ssp { slack: 0 }` normalizes to the sync barrier inside the
        // server, and the sync barrier combines gradients in worker-id
        // order — so the entire training trajectory, not just the final
        // AUC, must agree bit for bit with explicit `Sync` on one seed.
        let data = dataset(48);
        let val = dataset(16);
        let run = |consistency| {
            let mut m = model();
            let trainer = DistTrainer::new(3, opts(consistency));
            trainer.train(&mut m, &data, Some(&val))
        };
        let ssp0 = run(Consistency::Ssp { slack: 0 });
        let sync = run(Consistency::Sync);
        let losses = |r: &DistTrainResult| r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>();
        assert_eq!(losses(&ssp0), losses(&sync), "per-epoch loss curves must be bit-identical");
        let curve = |r: &DistTrainResult| {
            r.val_curve.iter().map(|m| (m.loss.to_bits(), m.auc.map(f64::to_bits))).collect::<Vec<_>>()
        };
        assert_eq!(curve(&ssp0), curve(&sync), "validation metrics must be bit-identical");
        assert_eq!(ssp0.max_staleness, 0);
        assert_eq!(ssp0.ps_stats.steps, sync.ps_stats.steps);
    }

    #[test]
    fn ssp_slack_zero_with_straggler_never_hangs() {
        // Deadlock-freedom: slack 0 degrades to the barrier even with an
        // injected straggler; completing the run is the assertion.
        let data = dataset(24);
        let mut m = model();
        let mut trainer = DistTrainer::new(4, opts(Consistency::Ssp { slack: 0 }));
        trainer.opts.epochs = 2;
        trainer.straggler = Some((1, Duration::from_millis(3)));
        let r = trainer.train(&mut m, &data, None);
        assert_eq!(r.epochs.len(), 2);
        assert_eq!(r.max_staleness, 0);
    }

    #[test]
    fn more_workers_than_examples_still_trains() {
        // Worker 3 of 4 owns none of the 3 examples; it must still push a
        // batch per step, or the sync barrier waits for it forever. The run
        // goes on a helper thread so a hang fails the test instead of
        // stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        #[expect(clippy::disallowed_methods, reason = "a scoped thread would join, and so hang, on a deadlock")]
        std::thread::spawn(move || {
            let mut m = model();
            let mut trainer = DistTrainer::new(4, opts(Consistency::Sync));
            trainer.opts.epochs = 2;
            let _ = tx.send(trainer.train(&mut m, &dataset(3), None));
        });
        let r = rx.recv_timeout(Duration::from_secs(60)).expect("training with an empty partition hung");
        let batches: usize = r.epochs.iter().map(|e| e.batches).sum();
        assert!(batches > 0);
        assert_eq!(r.ps_stats.pushes, 4 * batches as u64, "every worker pushed every batch");
    }

    /// Holds every other worker's first pull until worker 0 has pulled, so
    /// the straggler is in flight before anyone reaches the SSP gate.
    struct StragglerPullsFirst {
        inner: ParameterServer,
        straggler_pulled: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl PsClient for StragglerPullsFirst {
        fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError> {
            if worker == 0 {
                let r = PsClient::pull_with_version(&self.inner, worker);
                *self.straggler_pulled.lock().unwrap() = true;
                self.cv.notify_all();
                return r;
            }
            drop(self.cv.wait_while(self.straggler_pulled.lock().unwrap(), |pulled| !*pulled).unwrap());
            PsClient::pull_with_version(&self.inner, worker)
        }
        fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError> {
            PsClient::push(&self.inner, worker, grads)
        }
        fn retire(&self, worker: usize) -> Result<(), TransportError> {
            self.inner.retire(worker)
        }
        fn snapshot(&self) -> Result<Vec<f32>, TransportError> {
            PsClient::snapshot(&self.inner)
        }
        fn stats(&self) -> Result<PsStats, TransportError> {
            PsClient::stats(&self.inner)
        }
        fn consistency(&self) -> Consistency {
            PsClient::consistency(&self.inner)
        }
        fn len(&self) -> usize {
            PsClient::len(&self.inner)
        }
    }

    #[test]
    fn ssp_gate_waits_surface_in_ps_stats() {
        // With a hard straggler and slack 1, the fast workers must block at
        // the gates and the wait accounting must show it. The fast workers
        // start only once the straggler has pulled: the window (slack + 1 =
        // 2) then holds the straggler and the first fast puller, so a second
        // fast puller blocks at the pull gate — or, if the first has already
        // applied, at the push gate, which stays shut until the straggler,
        // 4 ms behind, applies.
        let data = dataset(32);
        let mut m = model();
        let mut trainer = DistTrainer::new(4, opts(Consistency::Ssp { slack: 1 }));
        trainer.opts.epochs = 2;
        trainer.straggler = Some((0, Duration::from_millis(4)));
        let lr = trainer.opts.lr;
        let client = StragglerPullsFirst {
            inner: ParameterServer::new(m.param_vector(), trainer.n_shards, 4, trainer.opts.consistency, || {
                Box::new(Adam::new(lr))
            }),
            straggler_pulled: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        };
        let r = trainer.train_with_client(&mut m, &data, None, &client).unwrap();
        assert!(r.ps_stats.ssp_waits > 0, "expected gate waits: {:?}", r.ps_stats);
        assert!(r.ps_stats.ssp_wait_nanos > 0);
        assert!(r.max_staleness <= 1);
        // Per-worker histograms account for every push.
        for ws in &r.ps_stats.workers {
            assert_eq!(ws.staleness_hist.iter().sum::<u64>(), ws.pushes);
        }
    }

    #[test]
    fn obs_instruments_epochs_and_ps_traffic() {
        let data = dataset(16);
        let obs = agl_obs::Obs::enabled();
        let mut m = model();
        let trainer = DistTrainer::new(
            2,
            TrainOptions { epochs: 2, batch_size: 8, ..TrainOptions::default() }.with_obs(obs.clone()),
        );
        trainer.train(&mut m, &data, None);
        let events = obs.trace().unwrap().events();
        assert_eq!(events.iter().filter(|e| e.name == "train.epoch").count(), 2);
        assert!(events.iter().any(|e| e.track == "ps.w0" && e.name == "ps.pull"));
        assert!(events.iter().any(|e| e.track == "ps.w1" && e.name == "ps.push"));
        assert!(events.iter().any(|e| e.name == "ps.apply"));
        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.get("trainer.epochs"), 2);
        assert!(metrics.get("ps.pushes") > 0);
        assert!(metrics.get("ps.bytes_transferred") > 0);
    }

    #[test]
    fn prefetch_is_bit_identical_and_traced_per_worker() {
        // Prefetch moves only when a batch is prepared: same batches, same
        // RNG draws, so the whole trajectory agrees bit for bit with inline
        // preparation. Each worker prepares on its own track.
        let data = dataset(40);
        let run = |pipeline: bool| {
            let obs = agl_obs::Obs::enabled();
            let mut m = model();
            let trainer =
                DistTrainer::new(2, TrainOptions { pipeline, ..opts(Consistency::Sync) }.with_obs(obs.clone()));
            let r = trainer.train(&mut m, &data, None);
            (m.param_vector(), r, obs)
        };
        let (piped, piped_r, obs) = run(true);
        let (inline, inline_r, inline_obs) = run(false);
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&piped), bits(&inline), "parameters must be bit-identical");
        let losses = |r: &DistTrainResult| r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>();
        assert_eq!(losses(&piped_r), losses(&inline_r), "per-epoch loss must be bit-identical");

        let events = obs.trace().unwrap().events();
        let batches = piped_r.epochs[0].batches * piped_r.epochs.len();
        for w in 0..2 {
            let track = format!("pipeline.prefetch.w{w}");
            let n = events.iter().filter(|e| e.name == "pipeline.prepare" && e.track == track).count();
            assert_eq!(n, batches, "worker {w} prepare spans");
        }
        assert_eq!(events.iter().filter(|e| e.name == "pipeline.prepare").count(), 2 * batches);
        assert!(inline_obs.trace().unwrap().events().iter().all(|e| e.name != "pipeline.prepare"));
    }

    /// A client whose pushes fail once `ok_pushes` have gone through.
    struct FailingPushes {
        inner: ParameterServer,
        ok_pushes: u64,
        pushes: std::sync::atomic::AtomicU64,
    }

    impl PsClient for FailingPushes {
        fn pull_with_version(&self, worker: usize) -> Result<(Vec<f32>, u64), TransportError> {
            PsClient::pull_with_version(&self.inner, worker)
        }
        fn push(&self, worker: usize, grads: &[f32]) -> Result<(), TransportError> {
            if self.pushes.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= self.ok_pushes {
                return Err(TransportError::Timeout { what: "injected push failure".into() });
            }
            PsClient::push(&self.inner, worker, grads)
        }
        fn retire(&self, worker: usize) -> Result<(), TransportError> {
            self.inner.retire(worker)
        }
        fn snapshot(&self) -> Result<Vec<f32>, TransportError> {
            PsClient::snapshot(&self.inner)
        }
        fn stats(&self) -> Result<PsStats, TransportError> {
            PsClient::stats(&self.inner)
        }
        fn consistency(&self) -> Consistency {
            PsClient::consistency(&self.inner)
        }
        fn len(&self) -> usize {
            PsClient::len(&self.inner)
        }
    }

    #[test]
    fn failed_push_stops_the_prefetch_thread() {
        // The compute side fails mid-epoch while each worker's prefetch
        // thread is still producing: the error must come back, not
        // deadlock the scope that owns the prefetch thread. Async, because
        // the sync barrier would wait for the failed worker's push. The
        // run goes on a helper thread so a hang fails the test.
        let (tx, rx) = std::sync::mpsc::channel();
        #[expect(clippy::disallowed_methods, reason = "a scoped thread would join, and so hang, on a deadlock")]
        std::thread::spawn(move || {
            let mut m = model();
            let trainer = DistTrainer::new(2, TrainOptions { batch_size: 2, ..opts(Consistency::Async) });
            let client = FailingPushes {
                inner: ParameterServer::new(m.param_vector(), 2, 2, Consistency::Async, || Box::new(Adam::new(0.05))),
                ok_pushes: 5,
                pushes: std::sync::atomic::AtomicU64::new(0),
            };
            let _ = tx.send(trainer.train_with_client(&mut m, &dataset(64), None, &client).map(|r| r.epochs.len()));
        });
        let r = rx.recv_timeout(Duration::from_secs(60)).expect("a failed push deadlocked the prefetch scope");
        assert!(matches!(r, Err(TransportError::Timeout { .. })), "{r:?}");
    }

    #[test]
    fn ssp_converges_like_sync() {
        // Bounded staleness must not cost convergence on this easy task.
        let data = dataset(64);
        let val = dataset(32);
        let mut m = model();
        let trainer = DistTrainer::new(4, opts(Consistency::Ssp { slack: 4 }));
        let r = trainer.train(&mut m, &data, Some(&val));
        let auc = r.val_curve.last().unwrap().auc.unwrap();
        assert!(auc > 0.95, "SSP(4) val AUC {auc}");
        assert!(r.max_staleness <= 4);
    }
}
