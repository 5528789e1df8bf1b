//! The K-layer GNN model container: stacked GNN layers plus a dense
//! prediction head, mirroring the demo API of paper §3.5 (multi-layer loop +
//! `look_up(node_embedding, targetID)` + prediction model).

use crate::dense::{DenseCache, DenseLayer};
use crate::gat::{GatLayer, HeadCombine};
use crate::gcn::GcnLayer;
use crate::geniepath::GeniePathLayer;
use crate::gin::GinLayer;
use crate::layer::{prepare_adj, GnnLayer, LayerCache, LiveRows};
use crate::loss::Loss;
use crate::param::{self, Param};
use crate::sage::SageLayer;
use agl_tensor::ops::{dropout_mask, Activation};
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, Csr, ExecCtx, Matrix};
use std::num::Saturating;

/// Which GNN architecture the model stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Gcn,
    Sage,
    Gat {
        heads: usize,
    },
    /// Extension beyond the paper: GIN (sum aggregation + MLP update).
    Gin,
    /// Extension beyond the paper: GeniePath (Ant's adaptive receptive
    /// paths — attention breadth + LSTM-gated depth; the paper's reference 12).
    GeniePath,
}

impl ModelKind {
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Sage => "GraphSAGE",
            ModelKind::Gat { .. } => "GAT",
            ModelKind::Gin => "GIN",
            ModelKind::GeniePath => "GeniePath",
        }
    }
}

/// Model hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    pub kind: ModelKind,
    /// Raw node feature width `f_n`.
    pub in_dim: usize,
    /// Embedding width of the hidden/final GNN layers.
    pub hidden_dim: usize,
    /// Prediction width (number of classes / labels / 1 for binary).
    pub out_dim: usize,
    /// K — number of GNN layers (= hops of neighborhood consumed).
    pub n_layers: usize,
    /// Activation of the hidden GNN layers.
    pub hidden_act: Activation,
    /// Input dropout probability per layer (training only).
    pub dropout: f32,
    pub loss: Loss,
    /// Seed for parameter initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// A reasonable 2-layer default for the given shape.
    pub fn new(kind: ModelKind, in_dim: usize, hidden_dim: usize, out_dim: usize, n_layers: usize, loss: Loss) -> Self {
        let hidden_act = match kind {
            ModelKind::Gat { .. } => Activation::Elu,
            _ => Activation::Relu,
        };
        Self { kind, in_dim, hidden_dim, out_dim, n_layers, hidden_act, dropout: 0.0, loss, seed: 42 }
    }

    pub fn with_dropout(mut self, p: f32) -> Self {
        self.dropout = p;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The parameter count [`GnnModel::new`] allocates for this config, from
    /// each layer's `param_count` without building it. Saturating, so
    /// unchecked header widths cannot overflow it; needs `n_layers >= 1`.
    pub fn param_count(&self) -> u64 {
        let h = Saturating(self.hidden_dim as u64);
        let layer = |in_dim: Saturating<u64>| match self.kind {
            ModelKind::Gcn => GcnLayer::param_count(in_dim, h),
            ModelKind::Sage => SageLayer::param_count(in_dim, h),
            ModelKind::Gin => GinLayer::param_count(in_dim, h),
            ModelKind::GeniePath => GeniePathLayer::param_count(in_dim, h),
            ModelKind::Gat { heads } => GatLayer::param_count(in_dim, h, Saturating(heads as u64)),
        };
        // Every layer after the first reads a hidden layer's output: GAT
        // concats its heads there, and GeniePath packs `(h, C)`. The head
        // reads the last layer's, where GAT averages its heads.
        let (mid, last) = match self.kind {
            ModelKind::Gat { heads } => (h * Saturating(heads as u64), h),
            ModelKind::GeniePath => (Saturating(2) * h, Saturating(2) * h),
            _ => (h, h),
        };
        let stacked = Saturating(self.n_layers as u64 - 1) * layer(mid);
        let head = DenseLayer::param_count(last, Saturating(self.out_dim as u64));
        (layer(Saturating(self.in_dim as u64)) + stacked + head).0
    }
}

/// Result of one forward pass — holds everything `backward` needs.
pub struct ForwardPass {
    caches: Vec<LayerCache>,
    head_cache: DenseCache,
    dropout_masks: Vec<Option<Matrix>>,
    live: Vec<LiveRows>,
    targets: Vec<usize>,
    n_nodes: usize,
    /// Final-layer embeddings of the target nodes.
    pub target_embeddings: Matrix,
    /// Prediction logits for the target nodes.
    pub logits: Matrix,
}

impl ForwardPass {
    /// The rows each layer computed, bottom-up (see [`LiveRows::derive`]).
    pub fn live_rows(&self) -> &[LiveRows] {
        &self.live
    }
}

/// One slice of a hierarchically-segmented model (§3.4): the k-th GNN layer
/// or the final prediction model.
#[derive(Debug, Clone)]
pub enum ModelSlice {
    Gnn(GnnLayer),
    Prediction(DenseLayer, Loss),
}

/// The trainable model.
#[derive(Debug, Clone)]
pub struct GnnModel {
    cfg: ModelConfig,
    layers: Vec<GnnLayer>,
    head: DenseLayer,
}

impl GnnModel {
    /// Build with Xavier init, deterministic in `cfg.seed`.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.n_layers >= 1, "need at least one GNN layer");
        let mut rng = seeded_rng(cfg.seed);
        let mut layers = Vec::with_capacity(cfg.n_layers);
        let mut dim = cfg.in_dim;
        for k in 0..cfg.n_layers {
            let name = format!("layer{k}");
            let is_last = k + 1 == cfg.n_layers;
            let layer = match cfg.kind {
                ModelKind::Gcn => GnnLayer::Gcn(GcnLayer::new(dim, cfg.hidden_dim, cfg.hidden_act, &name, &mut rng)),
                ModelKind::Sage => GnnLayer::Sage(SageLayer::new(dim, cfg.hidden_dim, cfg.hidden_act, &name, &mut rng)),
                ModelKind::Gin => GnnLayer::Gin(GinLayer::new(dim, cfg.hidden_dim, cfg.hidden_act, &name, &mut rng)),
                ModelKind::GeniePath => GnnLayer::GeniePath(GeniePathLayer::new(dim, cfg.hidden_dim, &name, &mut rng)),
                ModelKind::Gat { heads } => {
                    // Hidden layers concat their heads; the final GNN layer
                    // averages them so the head sees `hidden_dim` features —
                    // the reference GAT recipe.
                    let combine = if is_last { HeadCombine::Average } else { HeadCombine::Concat };
                    GnnLayer::Gat(GatLayer::new(dim, cfg.hidden_dim, heads, combine, cfg.hidden_act, &name, &mut rng))
                }
            };
            dim = layer.out_dim();
            layers.push(layer);
        }
        let head = DenseLayer::new(dim, cfg.out_dim, Activation::Linear, "head", &mut rng);
        let model = Self { cfg, layers, head };
        debug_assert_eq!(model.param_count() as u64, model.cfg.param_count(), "ModelConfig::param_count");
        model
    }

    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn layers(&self) -> &[GnnLayer] {
        &self.layers
    }

    pub fn head(&self) -> &DenseLayer {
        &self.head
    }

    /// Prepare the per-layer adjacency list for a batch: apply this model's
    /// adjacency preprocessing once, then (optionally) the per-layer pruning
    /// row masks (`keep[k][dst]` — §3.3.2 graph pruning).
    pub fn prepare_adjs(&self, raw: &Csr, prune_keep: Option<&[Vec<bool>]>) -> Vec<Csr> {
        let prep = self.layers[0].adj_prep();
        debug_assert!(self.layers.iter().all(|l| l.adj_prep() == prep), "homogeneous stacks only");
        let prepared = prepare_adj(raw, prep);
        (0..self.layers.len())
            .map(|k| match prune_keep {
                Some(keep) => prepared.filter_entries(|dst, _| keep[k][dst as usize]),
                None => prepared.clone(),
            })
            .collect()
    }

    /// Forward over a vectorized batch.
    ///
    /// * `adjs` — per-layer prepared (and possibly pruned) adjacency, from
    ///   [`GnnModel::prepare_adjs`].
    /// * `features` — `n × in_dim` node features of the merged subgraph.
    /// * `targets` — local indices whose logits are wanted.
    /// * `train` — enables dropout (driven by `rng`).
    ///
    /// Each layer computes only its live rows ([`LiveRows::derive`]): the
    /// rows its adjacency keeps and the rows the layer above reads. The rest
    /// of its output stays zero and is never read.
    pub fn forward(
        &self,
        adjs: &[Csr],
        features: &Matrix,
        targets: &[usize],
        train: bool,
        ctx: &ExecCtx,
        rng: &mut impl Rng,
    ) -> ForwardPass {
        assert_eq!(adjs.len(), self.layers.len(), "one adjacency per layer");
        assert_eq!(features.cols(), self.cfg.in_dim, "feature width mismatch");
        let live = LiveRows::derive(adjs, targets, features.rows());
        let mut h = features.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut dropout_masks = Vec::with_capacity(self.layers.len());
        for (k, layer) in self.layers.iter().enumerate() {
            let mask = if train && self.cfg.dropout > 0.0 {
                // Drawn at full shape so RNG use does not depend on pruning.
                let m = dropout_mask(h.rows(), h.cols(), self.cfg.dropout, rng);
                h.hadamard_assign_rows(&live[k].input, &m);
                Some(m)
            } else {
                None
            };
            dropout_masks.push(mask);
            let (out, cache) = layer.forward(&adjs[k], h, &live[k], ctx);
            caches.push(cache);
            h = out;
        }
        let target_embeddings = h.gather_rows(targets);
        let (logits, head_cache) = self.head.forward(&target_embeddings);
        ForwardPass {
            caches,
            head_cache,
            dropout_masks,
            live,
            targets: targets.to_vec(),
            n_nodes: features.rows(),
            target_embeddings,
            logits,
        }
    }

    /// Backward from the loss gradient w.r.t. the logits; accumulates into
    /// every parameter's `.grad`. Layer 0's gradient w.r.t. the raw features
    /// is never computed: nothing reads it.
    pub fn backward(&mut self, adjs: &[Csr], pass: &ForwardPass, grad_logits: &Matrix, ctx: &ExecCtx) {
        let d_emb = self.head.backward(&pass.head_cache, grad_logits);
        let emb_dim = d_emb.cols();
        let mut d_h = Matrix::zeros(pass.n_nodes, emb_dim);
        d_h.scatter_add_rows(&pass.targets, &d_emb);
        for k in (0..self.layers.len()).rev() {
            let live = &pass.live[k];
            let Some(mut d_in) = self.layers[k].backward(&adjs[k], &pass.caches[k], &d_h, live, k > 0, ctx) else {
                break;
            };
            if let Some(mask) = &pass.dropout_masks[k] {
                d_in.hadamard_assign_rows(&live.input, mask);
            }
            d_h = d_in;
        }
    }

    /// All parameters in a stable order (layers bottom-up, then head).
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = self.layers.iter().flat_map(|l| l.params()).collect();
        out.extend(self.head.params());
        out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = self.layers.iter_mut().flat_map(|l| l.params_mut()).collect();
        out.extend(self.head.params_mut());
        out
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Flatten parameter values (pull side of the PS protocol).
    pub fn param_vector(&self) -> Vec<f32> {
        param::flatten_values(self.params().into_iter())
    }

    /// Flatten accumulated gradients (push side of the PS protocol).
    pub fn grad_vector(&self) -> Vec<f32> {
        param::flatten_grads(self.params().into_iter())
    }

    /// Load a flat parameter vector (after a PS pull).
    pub fn load_param_vector(&mut self, flat: &[f32]) {
        param::load_values(self.params_mut().into_iter(), flat);
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Hierarchical model segmentation (§3.4): split the trained model into
    /// K layer slices plus the prediction slice — the units a GraphInfer
    /// Reduce round loads.
    pub fn segment(&self) -> Vec<ModelSlice> {
        let mut slices: Vec<ModelSlice> = self.layers.iter().cloned().map(ModelSlice::Gnn).collect();
        slices.push(ModelSlice::Prediction(self.head.clone(), self.cfg.loss));
        slices
    }

    /// Convenience: loss forward/backward for this model's configured loss.
    pub fn loss(&self, logits: &Matrix, labels: &Matrix) -> (f32, Matrix) {
        self.cfg.loss.forward_backward(logits, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::Coo;

    fn ring_adj(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for v in 0..n as u32 {
            coo.push(v, (v + 1) % n as u32, 1.0);
        }
        coo.into_csr()
    }

    fn cfg(kind: ModelKind) -> ModelConfig {
        ModelConfig::new(kind, 4, 6, 3, 2, Loss::SoftmaxCrossEntropy)
    }

    fn features(n: usize) -> Matrix {
        Matrix::from_vec(n, 4, (0..n * 4).map(|i| ((i % 11) as f32) * 0.1 - 0.5).collect())
    }

    #[test]
    fn forward_shapes_for_all_kinds() {
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            let model = GnnModel::new(cfg(kind));
            let raw = ring_adj(6);
            let adjs = model.prepare_adjs(&raw, None);
            let ctx = ExecCtx::sequential();
            let pass = model.forward(&adjs, &features(6), &[0, 3], false, &ctx, &mut seeded_rng(1));
            assert_eq!(pass.logits.shape(), (2, 3), "{kind:?}");
            // GeniePath packs (h, C), doubling the embedding width.
            let emb_dim = model.layers().last().unwrap().out_dim();
            assert_eq!(pass.target_embeddings.shape(), (2, emb_dim), "{kind:?}");
        }
    }

    #[test]
    fn training_step_reduces_loss() {
        // A few Adam steps on a fixed batch must reduce the loss for every
        // architecture — end-to-end sanity of forward+backward+optimizer.
        use crate::optim::{Adam, Optimizer};
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            let mut model = GnnModel::new(cfg(kind));
            let raw = ring_adj(6);
            let adjs = model.prepare_adjs(&raw, None);
            let ctx = ExecCtx::sequential();
            let x = features(6);
            let targets = [0usize, 2, 4];
            let mut labels = Matrix::zeros(3, 3);
            for (i, _) in targets.iter().enumerate() {
                labels[(i, i % 3)] = 1.0;
            }
            let mut opt = Adam::new(0.05);
            let mut rng = seeded_rng(2);
            let mut first = None;
            let mut last = 0.0;
            for _ in 0..15 {
                model.zero_grads();
                let pass = model.forward(&adjs, &x, &targets, true, &ctx, &mut rng);
                let (loss, grad) = model.loss(&pass.logits, &labels);
                model.backward(&adjs, &pass, &grad, &ctx);
                let mut p = model.param_vector();
                opt.step(&mut p, &model.grad_vector());
                model.load_param_vector(&p);
                first.get_or_insert(loss);
                last = loss;
            }
            assert!(last < first.unwrap() * 0.8, "{kind:?}: {first:?} -> {last}");
        }
    }

    #[test]
    fn config_param_count_matches_built_models() {
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 3 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            // (in, hidden, out, layers); in = 2 * hidden skips GeniePath's input projection.
            for (i, h, o, l) in [(5, 4, 3, 1), (5, 4, 3, 3), (8, 4, 2, 2), (1, 1, 1, 1)] {
                let cfg = ModelConfig::new(kind, i, h, o, l, Loss::BceWithLogits);
                let built = GnnModel::new(cfg.clone()).param_count() as u64;
                assert_eq!(cfg.param_count(), built, "{kind:?} {i} {h} {o} {l}");
            }
        }
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut model = GnnModel::new(cfg(ModelKind::Sage));
        let v = model.param_vector();
        assert_eq!(v.len(), model.param_count());
        let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        model.load_param_vector(&doubled);
        let back = model.param_vector();
        assert_eq!(back, doubled);
    }

    #[test]
    fn same_seed_same_model() {
        let a = GnnModel::new(cfg(ModelKind::Gat { heads: 2 }));
        let b = GnnModel::new(cfg(ModelKind::Gat { heads: 2 }));
        assert_eq!(a.param_vector(), b.param_vector());
        let c = GnnModel::new(cfg(ModelKind::Gat { heads: 2 }).with_seed(7));
        assert_ne!(a.param_vector(), c.param_vector());
    }

    #[test]
    fn segment_yields_k_plus_one_slices() {
        let model = GnnModel::new(cfg(ModelKind::Gcn));
        let slices = model.segment();
        assert_eq!(slices.len(), 3, "K=2 layers + prediction slice");
        assert!(matches!(slices[2], ModelSlice::Prediction(..)));
    }

    #[test]
    fn gat_dims_concat_then_average() {
        let model = GnnModel::new(ModelConfig::new(ModelKind::Gat { heads: 4 }, 4, 8, 2, 3, Loss::BceWithLogits));
        assert_eq!(model.layers()[0].out_dim(), 32, "hidden layer concats 4 heads × 8");
        assert_eq!(model.layers()[1].out_dim(), 32);
        assert_eq!(model.layers()[2].out_dim(), 8, "final GNN layer averages heads");
        assert_eq!(model.head().in_dim(), 8);
    }

    #[test]
    fn dropout_only_in_training_mode() {
        let model = GnnModel::new(cfg(ModelKind::Gcn).with_dropout(0.5));
        let raw = ring_adj(6);
        let adjs = model.prepare_adjs(&raw, None);
        let ctx = ExecCtx::sequential();
        let x = features(6);
        let e1 = model.forward(&adjs, &x, &[0], false, &ctx, &mut seeded_rng(1)).logits;
        let e2 = model.forward(&adjs, &x, &[0], false, &ctx, &mut seeded_rng(99)).logits;
        assert_eq!(e1.max_abs_diff(&e2), 0.0, "eval mode is deterministic");
        let t1 = model.forward(&adjs, &x, &[0], true, &ctx, &mut seeded_rng(1)).logits;
        let t2 = model.forward(&adjs, &x, &[0], true, &ctx, &mut seeded_rng(99)).logits;
        assert!(t1.max_abs_diff(&t2) > 0.0, "dropout differs across rng seeds");
    }

    /// Ring keep-masks for target 0 at K=2: `keep[k][v] ⟺ d(v) ≤ K-1-k`.
    fn ring_keep() -> Vec<Vec<bool>> {
        (0..2).map(|k| (0..8).map(|v| v <= (1 - k)).collect()).collect()
    }

    #[test]
    fn live_rows_follow_the_adjacency() {
        let raw = ring_adj(8);
        let ctx = ExecCtx::sequential();
        for kind in [ModelKind::Gcn, ModelKind::Gat { heads: 2 }] {
            let model = GnnModel::new(cfg(kind));
            // Self-looped and unpruned: every row keeps its work (AGL_base).
            let full = model.prepare_adjs(&raw, None);
            let pass = model.forward(&full, &features(8), &[0], false, &ctx, &mut seeded_rng(1));
            assert!(pass.live_rows().iter().all(|l| l.out.len() == 8 && l.input.len() == 8), "{kind:?}");
            // Pruned: the last layer computes the target, layer 0 what it reads.
            let pruned = model.prepare_adjs(&raw, Some(&ring_keep()));
            let pass = model.forward(&pruned, &features(8), &[0], false, &ctx, &mut seeded_rng(1));
            let live = pass.live_rows();
            assert_eq!((live[1].out.as_slice(), live[1].input.as_slice()), (&[0][..], &[0, 1][..]), "{kind:?}");
            assert_eq!((live[0].out.as_slice(), live[0].input.as_slice()), (&[0, 1][..], &[0, 1, 2][..]), "{kind:?}");
        }
    }

    #[test]
    fn pruning_leaves_gradients_bit_identical() {
        let raw = ring_adj(8);
        let ctx = ExecCtx::sequential();
        let x = features(8);
        let labels = Matrix::from_rows(&[&[0.0, 1.0, 0.0]]);
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            let grads = |keep: Option<&[Vec<bool>]>| {
                let mut model = GnnModel::new(cfg(kind).with_dropout(0.3));
                let adjs = model.prepare_adjs(&raw, keep);
                let pass = model.forward(&adjs, &x, &[0], true, &ctx, &mut seeded_rng(3));
                let (_, grad) = model.loss(&pass.logits, &labels);
                model.backward(&adjs, &pass, &grad, &ctx);
                model.grad_vector().into_iter().map(f32::to_bits).collect::<Vec<_>>()
            };
            assert_eq!(grads(None), grads(Some(&ring_keep())), "{kind:?}");
        }
    }

    #[test]
    fn pruned_rows_do_not_change_target_logits() {
        // Pruning drops rows that cannot reach the targets within the
        // remaining layers; target logits must be unchanged.
        let model = GnnModel::new(cfg(ModelKind::Gcn));
        let raw = ring_adj(8);
        let ctx = ExecCtx::sequential();
        let x = features(8);
        let full = model.prepare_adjs(&raw, None);
        // Distance from target 0 along in-edges: node (0+i)%8 at distance i.
        // keep[k][v] ⟺ d(v) ≤ K-1-k with K=2.
        let keep: Vec<Vec<bool>> = (0..2).map(|k| (0..8).map(|v| v <= (1 - k)).collect()).collect();
        let pruned = model.prepare_adjs(&raw, Some(&keep));
        assert!(pruned[1].nnz() < full[1].nnz());
        let a = model.forward(&full, &x, &[0], false, &ctx, &mut seeded_rng(1)).logits;
        let b = model.forward(&pruned, &x, &[0], false, &ctx, &mut seeded_rng(1)).logits;
        assert!(a.max_abs_diff(&b) < 1e-5, "pruning must preserve target logits");
    }
}
