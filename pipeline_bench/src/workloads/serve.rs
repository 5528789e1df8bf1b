//! `serve.mixed-rw` — point lookups and top-k beside incremental updates.
//!
//! Why: reads and writes meet on the same shard slabs. A lookup gain paid
//! for by slower slab swaps (or the reverse) shows here as the reader's
//! `records_per_s` against `serve.update_p50_ms` and `wall_s`; no MapReduce
//! job of the batch pipeline, trainer or parameter server is on the path
//! of a read.
//!
//! Closed loop, two clients: one reader thread (batches of 16 power-law
//! ids through `RequestBatcher::submit`, one `topk` per 10 batches) and
//! one writer issuing a fixed count of `update_incremental` deltas back to
//! back. A repetition ends when the writer finishes.

use super::{secs, Digest, RepStats, Scale, Verdict, Workload, MODEL_SEED, PARALLELISM};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use agl_datasets::{ppi_like, PowerLaw, PpiConfig};
use agl_flat::SamplingStrategy;
use agl_graph::{EdgeTable, NodeId, NodeTable};
use agl_infer::{GraphInfer, InferConfig, InferOutput};
use agl_mapreduce::EngineConfig;
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_obs::Clock;
use agl_serve::{update_incremental, EmbeddingStore, GraphDelta, RequestBatcher, ServeConfig};
use agl_tensor::{derive_seed, seeded_rng, Matrix, Rng};
use std::sync::atomic::{AtomicBool, Ordering};

const BATCH: usize = 16;
const TOPK_EVERY: usize = 10;
const TOPK: usize = 8;
/// Nodes whose features change per update.
const TOUCHED: usize = 8;
/// Pre-drawn reader batches, cycled; enough that the cycle is never the
/// same few cache lines.
const READER_BATCHES: usize = 4096;

/// One precomputed update: the touched nodes and their new feature rows.
struct Delta {
    touched: Vec<NodeId>,
    /// Row of each touched node in the node table.
    at: Vec<usize>,
    rows: Vec<Vec<f32>>,
}

/// What the reader thread counted.
#[derive(Default)]
struct ReaderTally {
    lookups: u64,
    misses: u64,
    topks: u64,
    elapsed_ns: u64,
    batch_ns: Vec<f64>,
    topk_ns: Vec<f64>,
}

pub struct ServeMixed {
    nodes: NodeTable,
    edges: EdgeTable,
    model: GnnModel,
    infer_cfg: InferConfig,
    serve_cfg: ServeConfig,
    /// The full-graph inference the store is built from.
    output: InferOutput,
    store: EmbeddingStore,
    batches: Vec<Vec<NodeId>>,
    deltas: Vec<Delta>,
    /// Node features after the updates applied so far.
    features: Matrix,
    clock: Clock,
    reader_misses: u64,
}

impl ServeMixed {
    pub fn set_up(seed: u64, scale: Scale) -> Result<Self, String> {
        // 24 disjoint graphs of equal size and near-uniform degree. An
        // update's dirty closure is then (nearly) the one graph it touches,
        // whichever nodes the seed picks — on a power-law graph the closure,
        // and with it `wall_s`, swings by tens of percent with the seed,
        // depending on whether a touched node happens to feed a hub.
        let ds = ppi_like(PpiConfig { seed, scale: scale.pick(0.4, 0.02) });
        let mut ids = Vec::new();
        let mut features = Vec::new();
        let mut rows = Vec::new();
        // First row of each graph in the merged node table.
        let mut first_row = Vec::with_capacity(ds.graphs.len());
        for g in &ds.graphs {
            let (nt, et) = g.to_tables();
            first_row.push(ids.len());
            ids.extend_from_slice(nt.ids());
            features.extend_from_slice(nt.features().as_slice());
            rows.extend_from_slice(et.rows());
        }
        let dim = ds.feature_dim();
        let nodes = NodeTable::new(ids, Matrix::from_vec(features.len() / dim, dim, features), None);
        let edges = EdgeTable::new(rows, None);
        let model = GnnModel::new(
            ModelConfig::new(ModelKind::Gcn, nodes.feature_dim(), 32, 32, 2, Loss::SoftmaxCrossEntropy)
                .with_seed(MODEL_SEED),
        );
        let infer_cfg = InferConfig {
            sampling: SamplingStrategy::Uniform { max_degree: 10 },
            engine: EngineConfig::seeded(seed).with_tasks(4, 4, PARALLELISM),
            ..InferConfig::default()
        };
        let serve_cfg = ServeConfig { shards: 4, topk: TOPK, engine: EngineConfig::seeded(seed) };
        let output = GraphInfer::new(infer_cfg.clone())
            .run(&model, &nodes, &edges)
            .map_err(|e| format!("GraphInfer::run: {e}"))?;
        let store = EmbeddingStore::build(&output, &serve_cfg);

        let n = nodes.len();
        let popularity = PowerLaw::new(n, 2.1);
        let mut rng = seeded_rng(derive_seed(seed, 0x5E21));
        let batches = (0..scale.pick(READER_BATCHES, 256))
            .map(|_| (0..BATCH).map(|_| nodes.ids()[popularity.sample(&mut rng)]).collect())
            .collect();
        // Update j touches `TOUCHED` nodes of graph j (mod 24).
        let per_graph = n / ds.graphs.len();
        let mut rng = seeded_rng(derive_seed(seed, 0xDE17A));
        let deltas = (0..scale.pick(10, 2))
            .map(|j| {
                let mut at: Vec<usize> = Vec::with_capacity(TOUCHED);
                while at.len() < TOUCHED {
                    let row = first_row[j % first_row.len()] + rng.gen_range(0..per_graph);
                    if !at.contains(&row) {
                        at.push(row);
                    }
                }
                let touched = at.iter().map(|&row| nodes.ids()[row]).collect();
                let rows = (0..TOUCHED).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect();
                Delta { touched, at, rows }
            })
            .collect();
        let features = nodes.features().clone();
        Ok(Self {
            nodes,
            edges,
            model,
            infer_cfg,
            serve_cfg,
            output,
            store,
            batches,
            deltas,
            features,
            clock: Clock::monotonic(),
            reader_misses: 0,
        })
    }

    /// The node table with `features` in place of the generated ones.
    fn table_with(&self, features: &Matrix) -> NodeTable {
        NodeTable::new(self.nodes.ids().to_vec(), features.clone(), None)
    }

    /// The closed-loop reader: runs until `stop`, or for `limit` batches.
    fn read_loop(
        &self,
        store: &EmbeddingStore,
        stop: &AtomicBool,
        limit: Option<usize>,
        time_each: bool,
    ) -> ReaderTally {
        let batcher = RequestBatcher::new(store);
        let mut tally = ReaderTally::default();
        let start = self.clock.now();
        let mut i = 0usize;
        while !stop.load(Ordering::Acquire) && limit.is_none_or(|l| i < l) {
            let ids = &self.batches[i % self.batches.len()];
            let t = time_each.then(|| self.clock.now());
            let answers = batcher.submit(ids);
            if let Some(t) = t {
                tally.batch_ns.push(self.clock.since(t) as f64);
            }
            tally.lookups += answers.len() as u64;
            tally.misses += answers.iter().filter(|a| a.is_none()).count() as u64;
            i += 1;
            if i.is_multiple_of(TOPK_EVERY) {
                if let Some(Some(query)) = answers.first() {
                    let t = time_each.then(|| self.clock.now());
                    std::hint::black_box(store.topk(query, TOPK));
                    if let Some(t) = t {
                        tally.topk_ns.push(self.clock.since(t) as f64);
                    }
                    tally.topks += 1;
                }
            }
        }
        tally.elapsed_ns = self.clock.since(start);
        tally
    }
}

impl Workload for ServeMixed {
    fn records(&self) -> u64 {
        // The reader's rate is reported directly; `records` is only the
        // store size, for the printed header.
        self.nodes.len() as u64
    }

    fn reset(&mut self) -> Result<(), String> {
        self.store = EmbeddingStore::build(&self.output, &self.serve_cfg);
        self.features = self.nodes.features().clone();
        Ok(())
    }

    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String> {
        let stop = AtomicBool::new(false);
        let traced = spans.is_enabled();
        let mut features = self.features.clone();
        let mut update_ms = Vec::with_capacity(self.deltas.len());
        let (mut dirty, mut closure) = (0usize, 0usize);
        let this = &*self;
        let (tally, written) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let _s = spans.open_on("serve.read_s", root, rep, 1);
                this.read_loop(&this.store, &stop, None, traced)
            });
            let written = (|| {
                let _s = spans.open("serve.write_s", root, rep);
                for delta in &this.deltas {
                    for (&at, row) in delta.at.iter().zip(&delta.rows) {
                        features.row_mut(at).copy_from_slice(row);
                    }
                    let post = this.table_with(&features);
                    let t = this.clock.now();
                    let report = update_incremental(
                        &this.store,
                        &this.model,
                        &post,
                        &this.edges,
                        &GraphDelta::features(delta.touched.iter().copied()),
                        &this.infer_cfg,
                    )
                    .map_err(|e| format!("update_incremental: {e}"))?;
                    update_ms.push(this.clock.since(t) as f64 / 1e6);
                    dirty += report.dirty;
                    closure += report.closure_nodes;
                }
                Ok::<(), String>(())
            })();
            stop.store(true, Ordering::Release);
            (reader.join(), written)
        });
        written?;
        let tally = tally.map_err(|_| "the reader thread panicked".to_string())?;
        self.features = features;
        self.reader_misses += tally.misses;
        let n_updates = self.deltas.len().max(1) as f64;
        let mut layer = vec![
            ("serve.update_p50_ms", median(&update_ms)),
            ("serve.update_p99_ms", percentile(&update_ms, 99.0)),
            ("serve.dirty_nodes", dirty as f64 / n_updates),
            ("serve.closure_nodes", closure as f64 / n_updates),
        ];
        if traced {
            layer.push(("serve.lookup_batch_p99_us", percentile(&tally.batch_ns, 99.0) / 1e3));
        }
        Ok(RepStats {
            ops_attempted: tally.lookups + tally.topks + self.deltas.len() as u64,
            ops_failed: tally.misses,
            records_per_s: Some(tally.lookups as f64 / secs(tally.elapsed_ns.max(1))),
            layer,
        })
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        v.require(self.reader_misses == 0, || format!("{} lookups of present ids returned None", self.reader_misses));

        // A quiet store answers with exactly the rows inference produced.
        let quiet = EmbeddingStore::build(&self.output, &self.serve_cfg);
        let stride = (self.output.scores.len() / 257).max(1);
        for s in self.output.scores.iter().step_by(stride) {
            let same = quiet.get(s.node).is_some_and(|got| bits_equal(&got, &s.probs));
            v.require(same, || format!("quiet store row of node {} differs from its InferOutput row", s.node.0));
        }

        // After the last repetition's updates, every stored row is
        // bit-equal to a full re-inference over the updated tables.
        let post = self.table_with(&self.features);
        match GraphInfer::new(self.infer_cfg.clone()).run(&self.model, &post, &self.edges) {
            Ok(full) => {
                let mut d = Digest::default();
                let mut diverged = 0usize;
                for s in &full.scores {
                    match self.store.get(s.node) {
                        Some(got) => {
                            diverged += usize::from(!bits_equal(&got, &s.probs));
                            d.u64(s.node.0);
                            d.f32s(&got);
                        }
                        None => diverged += 1,
                    }
                }
                v.digest = d.finish();
                v.require(diverged == 0, || {
                    format!("{diverged} stored rows differ from a full re-infer after incremental updates")
                });
            }
            Err(e) => v.failures.push(format!("full re-infer: {e}")),
        }
        v
    }

    fn probes(&mut self, clock: &Clock) -> Result<Vec<(&'static str, f64)>, String> {
        let t = clock.now();
        let store = EmbeddingStore::build(&self.output, &self.serve_cfg);
        let build_s = secs(clock.since(t));
        // Phase A: the same reader alone on a quiet store.
        let quiet = self.read_loop(&store, &AtomicBool::new(false), Some(self.batches.len() * 2), true);
        Ok(vec![
            ("serve.build_s", build_s),
            ("serve.quiet_records_per_s", quiet.lookups as f64 / secs(quiet.elapsed_ns.max(1))),
            ("serve.lookup_batch_p50_us", median(&quiet.batch_ns) / 1e3),
            ("serve.topk_p50_us", median(&quiet.topk_ns) / 1e3),
        ])
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
