//! Link prediction on GraphFeatures — an extension beyond the paper's node
//! classification evaluation, covering the *"link property predictions"*
//! workload its introduction motivates (and Ant's DSSLP system — the paper's
//! reference 25 — serves in production).
//!
//! The GraphFeature abstraction carries over unchanged: a training example
//! for edge `(u, v)` is the *union* of the two endpoints' k-hop
//! neighborhoods (both information-complete, so the pair example is too).
//! The model is any [`GnnModel`] whose "prediction head" projects into an
//! embedding space; an edge's score is the sigmoid of the endpoint
//! embeddings' dot product.

use crate::metrics::auc;
use crate::pipeline::{layer_adjs, PrepSpec};
use agl_flat::builder::SubgraphBuilder;
use agl_flat::{decode_graph_feature, encode_graph_feature, TrainingExample};
use agl_graph::{Graph, NodeId};
use agl_nn::{Adam, GnnModel, Optimizer};
use agl_tensor::ops::sigmoid;
use agl_tensor::rng::derive_seed;
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, ExecCtx, Matrix};
use std::collections::HashMap;

/// One link example: the candidate edge plus the merged pair GraphFeature.
#[derive(Debug, Clone)]
pub struct LinkExample {
    pub src: NodeId,
    pub dst: NodeId,
    /// 1.0 = edge exists, 0.0 = negative sample.
    pub label: f32,
    /// GraphFeature with **two** targets: `src` first, `dst` second.
    pub graph_feature: Vec<u8>,
}

/// Build pair examples from per-node GraphFeatures (as produced by
/// GraphFlat): positives are real directed edges, negatives are uniformly
/// sampled non-edges. Endpoints must all have a GraphFeature.
pub fn build_link_examples(
    graph: &Graph,
    node_features: &[TrainingExample],
    n_pos: usize,
    n_neg: usize,
    seed: u64,
) -> Vec<LinkExample> {
    let by_id: HashMap<NodeId, &TrainingExample> = node_features.iter().map(|e| (e.target, e)).collect();
    let mut rng = seeded_rng(derive_seed(seed, 0x11AB));
    let mut out = Vec::with_capacity(n_pos + n_neg);
    let pair = |src: NodeId, dst: NodeId, label: f32, by_id: &HashMap<NodeId, &TrainingExample>| {
        // agl-lint: allow(no-panic) — GraphFeatures come straight from GraphFlat's encoder; see module docs.
        let a = decode_graph_feature(&by_id[&src].graph_feature).expect("src GraphFeature");
        // agl-lint: allow(no-panic) — same provenance as above.
        let b = decode_graph_feature(&by_id[&dst].graph_feature).expect("dst GraphFeature");
        let mut builder = SubgraphBuilder::new();
        builder.absorb(&a);
        builder.absorb(&b);
        let merged = builder.build(&[src, dst]);
        LinkExample { src, dst, label, graph_feature: encode_graph_feature(&merged) }
    };
    // Positives: sample directed edges whose endpoints both have features.
    let n_nodes = graph.n_nodes() as u32;
    let mut guard = 0;
    while out.len() < n_pos && guard < n_pos * 50 {
        guard += 1;
        let v = rng.gen_range(0..n_nodes);
        let (srcs, _) = graph.in_neighbors(v);
        if srcs.is_empty() {
            continue;
        }
        let u = srcs[rng.gen_range(0..srcs.len())];
        let (src, dst) = (graph.node_id(u), graph.node_id(v));
        if by_id.contains_key(&src) && by_id.contains_key(&dst) {
            out.push(pair(src, dst, 1.0, &by_id));
        }
    }
    // Negatives: uniform non-edges over featured nodes.
    let featured: Vec<NodeId> = node_features.iter().map(|e| e.target).collect();
    let mut negs = 0;
    guard = 0;
    while negs < n_neg && guard < n_neg * 50 {
        guard += 1;
        let src = featured[rng.gen_range(0..featured.len())];
        let dst = featured[rng.gen_range(0..featured.len())];
        if src == dst {
            continue;
        }
        let (Some(v), Some(u)) = (graph.local(dst), graph.local(src)) else {
            continue; // featured node absent from the graph — skip, never panic
        };
        let (srcs, _) = graph.in_neighbors(v);
        if srcs.contains(&u) {
            continue; // actually an edge
        }
        out.push(pair(src, dst, 0.0, &by_id));
        negs += 1;
    }
    out
}

/// Dot-product link predictor over a GNN encoder.
pub struct LinkPredictor {
    /// Encoder; its (linear) head output is the edge-embedding space.
    pub model: GnnModel,
    pub lr: f32,
    pub epochs: usize,
    pub batch_size: usize,
    pub seed: u64,
}

impl LinkPredictor {
    pub fn new(model: GnnModel) -> Self {
        Self { model, lr: 0.01, epochs: 10, batch_size: 16, seed: 5 }
    }

    fn spec(&self) -> PrepSpec {
        PrepSpec { n_layers: self.model.n_layers(), prep: self.model.layers()[0].adj_prep(), label_dim: 0, prune: true }
    }

    /// Score a batch of pair examples: `σ(e_src · e_dst)` per example.
    /// Returns scores and, when `train_pass` is given, also accumulates
    /// gradients for the whole encoder.
    fn forward_scores(&mut self, batch: &[LinkExample], train: bool, rng: &mut impl Rng) -> (Vec<f32>, f32) {
        // vectorize() asserts one target per example; pair features carry
        // two targets, so go through the subgraph merge directly.
        let mut builder = SubgraphBuilder::new();
        let mut targets_global = Vec::with_capacity(2 * batch.len());
        for l in batch {
            // agl-lint: allow(no-panic) — pair features are encoded by `link_examples` above.
            let sub = decode_graph_feature(&l.graph_feature).expect("pair GraphFeature");
            builder.absorb(&sub);
            targets_global.push(l.src);
            targets_global.push(l.dst);
        }
        // Deduplicate target list (builder.build requires presence, not
        // uniqueness of ids — but local indices must map per occurrence).
        let merged = builder.build(&dedup_keep_order(&targets_global));
        let local_of: HashMap<NodeId, usize> =
            merged.target_ids().into_iter().enumerate().map(|(i, id)| (id, i)).collect();
        let batch_vec = crate::vectorize::from_subgraph(merged, Matrix::zeros(local_of.len(), 0));
        let adjs = layer_adjs(&batch_vec, &self.spec());
        let ctx = ExecCtx::sequential();
        let pass = self.model.forward(&adjs, &batch_vec.features, &batch_vec.targets, train, &ctx, rng);
        // Embeddings live in `logits` (linear head = projection).
        let emb = &pass.logits;
        let dim = emb.cols();
        let mut scores = Vec::with_capacity(batch.len());
        let mut loss = 0.0f32;
        let mut d_emb = Matrix::zeros(emb.rows(), dim);
        for l in batch.iter() {
            let a = local_of[&l.src];
            let b = local_of[&l.dst];
            let dot: f32 = emb.row(a).iter().zip(emb.row(b)).map(|(&x, &y)| x * y).sum();
            let p = sigmoid(dot);
            scores.push(p);
            loss += -(l.label * p.max(1e-7).ln() + (1.0 - l.label) * (1.0 - p).max(1e-7).ln());
            if train {
                // dL/d(dot) for sigmoid+BCE folds to (p - y); the explicit
                // sigmoid' never appears.
                let d_dot = (p - l.label) / batch.len() as f32;
                for c in 0..dim {
                    d_emb[(a, c)] += d_dot * emb[(b, c)];
                    d_emb[(b, c)] += d_dot * emb[(a, c)];
                }
            }
        }
        if train {
            self.model.backward(&adjs, &pass, &d_emb, &ctx);
        }
        (scores, loss / batch.len() as f32)
    }

    /// Train on link examples; returns the per-epoch mean loss.
    pub fn train(&mut self, examples: &[LinkExample]) -> Vec<f32> {
        let mut opt = Adam::new(self.lr);
        let mut losses = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            let mut rng = seeded_rng(derive_seed(self.seed, epoch as u64));
            let mut loss_sum = 0.0;
            let mut batches = 0;
            for chunk in examples.chunks(self.batch_size) {
                self.model.zero_grads();
                let (_, loss) = self.forward_scores(chunk, true, &mut rng);
                let mut p = self.model.param_vector();
                opt.step(&mut p, &self.model.grad_vector());
                self.model.load_param_vector(&p);
                loss_sum += loss;
                batches += 1;
            }
            losses.push(loss_sum / batches as f32);
        }
        losses
    }

    /// AUC over held-out link examples.
    pub fn evaluate(&mut self, examples: &[LinkExample]) -> f64 {
        let mut rng = seeded_rng(0);
        let mut scores = Vec::with_capacity(examples.len());
        let mut labels = Vec::with_capacity(examples.len());
        for chunk in examples.chunks(self.batch_size) {
            let (s, _) = self.forward_scores(chunk, false, &mut rng);
            scores.extend(s);
            labels.extend(chunk.iter().map(|l| l.label));
        }
        auc(&scores, &labels)
    }
}

fn dedup_keep_order(ids: &[NodeId]) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    ids.iter().copied().filter(|id| seen.insert(*id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_flat::{FlatConfig, GraphFlat, TargetSpec};
    use agl_graph::{EdgeTable, NodeTable};
    use agl_nn::{Loss, ModelConfig, ModelKind};

    /// Two dense communities with few cross links: edges are predictable
    /// from community membership, which features encode noisily.
    fn community_graph() -> Graph {
        let n: u64 = 60;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = seeded_rng(9);
        let mut feats = Matrix::zeros(n as usize, 4);
        for i in 0..n as usize {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            for d in 0..4 {
                feats[(i, d)] = sign * 0.6 + 0.5 * rng.gen_range(-1.0..1.0f32);
            }
        }
        let nodes = NodeTable::new(ids, feats, None);
        let mut pairs = Vec::new();
        for i in (0..n).step_by(2) {
            for j in (0..n).step_by(2) {
                if i != j && rng.gen::<f32>() < 0.25 {
                    pairs.push((i, j));
                }
            }
        }
        for i in (1..n).step_by(2) {
            for j in (1..n).step_by(2) {
                if i != j && rng.gen::<f32>() < 0.25 {
                    pairs.push((i, j));
                }
            }
        }
        Graph::from_tables(&nodes, &EdgeTable::from_pairs(pairs))
    }

    #[test]
    fn link_prediction_learns_community_structure() {
        let graph = community_graph();
        let (nodes, edges) = graph.to_tables();
        let flat = GraphFlat::new(FlatConfig { k_hops: 2, ..FlatConfig::default() })
            .run(&nodes, &edges, &TargetSpec::All)
            .unwrap();
        let mut examples = build_link_examples(&graph, &flat.examples, 60, 60, 3);
        assert!(examples.len() >= 100, "got {}", examples.len());
        // Positives come first from the builder; mix before splitting.
        use agl_tensor::rng::SliceRandom;
        examples.shuffle(&mut seeded_rng(7));
        let (train, test) = examples.split_at(examples.len() * 3 / 4);

        let cfg = ModelConfig::new(ModelKind::Sage, 4, 8, 8, 2, Loss::BceWithLogits);
        let mut lp = LinkPredictor::new(agl_nn::GnnModel::new(cfg));
        lp.epochs = 12;
        lp.lr = 0.02;
        let before = lp.evaluate(test);
        let losses = lp.train(train);
        let after = lp.evaluate(test);
        assert!(losses.last().unwrap() < losses.first().unwrap(), "loss fell: {losses:?}");
        assert!(after > 0.8, "test AUC {after} (was {before})");
        assert!(after > before, "training improved AUC: {before} -> {after}");
    }

    #[test]
    fn pair_examples_carry_both_targets() {
        let graph = community_graph();
        let (nodes, edges) = graph.to_tables();
        let flat = GraphFlat::new(FlatConfig { k_hops: 1, ..FlatConfig::default() })
            .run(&nodes, &edges, &TargetSpec::All)
            .unwrap();
        let examples = build_link_examples(&graph, &flat.examples, 10, 10, 1);
        for ex in &examples {
            let sub = decode_graph_feature(&ex.graph_feature).unwrap();
            let targets = sub.target_ids();
            assert_eq!(targets, vec![ex.src, ex.dst]);
            assert!(sub.validate().is_ok());
        }
        let n_pos = examples.iter().filter(|e| e.label > 0.5).count();
        assert_eq!(n_pos, 10);
    }
}
