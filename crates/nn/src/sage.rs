//! GraphSAGE layer, mean aggregator with the **add** combine.
//!
//! The paper notes (§4.2.1) that AGL/DGL/PyG all use an *add* operator where
//! the original GraphSAGE used *concat* when combining the self embedding
//! with the aggregated neighborhood — we follow the systems, not the
//! original paper, exactly as AGL does:
//!
//! Forward: `H' = act( H W_self + (Ā H) W_neigh + b )` with `Ā = D^{-1}A`
//! (row-stochastic mean over in-edge neighbors, no self-loop — the self
//! embedding has its own projection).
//!
//! Backward:
//! ```text
//! dPre     = dOut ∘ act'          db      = 1ᵀ dPre
//! dW_self  = Hᵀ dPre              dW_neigh = (ĀH)ᵀ dPre
//! dH       = dPre W_selfᵀ + Āᵀ (dPre W_neighᵀ)
//! ```

use crate::layer::{LiveRows, NeighborAggregate, NeighborView};
use crate::param::Param;
use agl_tensor::ops::Activation;
use agl_tensor::rng::Rng;
use agl_tensor::{init, Csr, ExecCtx, Matrix};

/// One GraphSAGE (mean, add-combine) layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Param,
    w_neigh: Param,
    b: Param,
    act: Activation,
}

/// Forward cache.
#[derive(Debug)]
pub struct SageCache {
    h_in: Matrix,
    /// `Ā H` — the mean-aggregated neighbor embeddings.
    m: Matrix,
    pre: Matrix,
    post: Matrix,
}

impl SageLayer {
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, name: &str, rng: &mut impl Rng) -> Self {
        Self {
            w_self: Param::new(format!("{name}.w_self"), init::xavier_uniform(in_dim, out_dim, rng)),
            w_neigh: Param::new(format!("{name}.w_neigh"), init::xavier_uniform(in_dim, out_dim, rng)),
            b: Param::new(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w_self.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w_self.value.cols()
    }

    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Batch forward over every row. `adj` must be prepared with
    /// [`crate::layer::AdjPrep::MeanNoSelf`].
    pub fn forward(&self, adj: &Csr, h: &Matrix, ctx: &ExecCtx) -> (Matrix, SageCache) {
        self.forward_live(adj, h.clone(), &LiveRows::all(h.rows()), ctx)
    }

    /// Batch forward over the `live` rows: both projections, the bias and
    /// the activation run on the rows the layer produces.
    pub fn forward_live(&self, adj: &Csr, h: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, SageCache) {
        debug_assert_eq!(h.cols(), self.in_dim());
        let m = ctx.spmm(adj, &h);
        let mut pre = h.matmul_rows(&live.out, &self.w_self.value);
        pre.add_assign_rows(&live.out, &m.matmul_rows(&live.out, &self.w_neigh.value));
        pre.add_row_broadcast_rows(&live.out, self.b.value.row(0));
        let mut post = pre.clone();
        self.act.forward_rows(&mut post, &live.out);
        (post.clone(), SageCache { h_in: h, m, pre, post })
    }

    /// Batch backward over every row.
    pub fn backward(&mut self, adj: &Csr, cache: &SageCache, grad_out: &Matrix, ctx: &ExecCtx) -> Matrix {
        let live = LiveRows::all(grad_out.rows());
        self.backward_live(adj, cache, grad_out, &live, true, ctx).expect("input gradient requested")
    }

    /// Batch backward over the `live` rows; returns `dH` only when
    /// `input_grad`.
    pub fn backward_live(
        &mut self,
        adj: &Csr,
        cache: &SageCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        _ctx: &ExecCtx,
    ) -> Option<Matrix> {
        let rows = &live.out;
        let mut d_pre = grad_out.clone();
        self.act.backward_rows(&mut d_pre, &cache.pre, &cache.post, rows);
        self.b.accumulate(&Matrix::from_vec(1, d_pre.cols(), d_pre.col_sums_rows(rows)));
        self.w_self.accumulate(&cache.h_in.t_matmul_rows(rows, &d_pre));
        self.w_neigh.accumulate(&cache.m.t_matmul_rows(rows, &d_pre));
        if !input_grad {
            return None;
        }
        let mut dh = d_pre.matmul_t_rows(rows, &self.w_self.value);
        let dm = d_pre.matmul_t_rows(rows, &self.w_neigh.value);
        dh.add_assign_rows(&live.input, &adj.t_spmm(&dm));
        Some(dh)
    }

    /// Per-node forward (GraphInfer merge step): weighted mean over raw
    /// in-edge neighbors (zero vector when there are none, matching the
    /// empty CSR row in the batch path).
    pub fn forward_node(&self, view: &NeighborView<'_>) -> Vec<f32> {
        let in_dim = self.in_dim();
        let mut m = vec![0.0f32; in_dim];
        let total: f32 = view.weights.iter().sum();
        if total != 0.0 {
            for (h, &w) in view.neighbor_h.iter().zip(view.weights) {
                for (a, &x) in m.iter_mut().zip(h) {
                    *a += w * x;
                }
            }
            let inv = 1.0 / total;
            for a in &mut m {
                *a *= inv;
            }
        }
        self.project_self_and_mean(view.self_h, m)
    }

    /// Per-node forward from a pre-folded [`NeighborAggregate`]
    /// (`acc = Σ w·h`, `total_w = Σ w`): normalise the folded sum into the
    /// neighbor mean (zero when there are no weighted neighbors, matching
    /// the empty CSR row), then the shared projection.
    pub fn forward_node_combined(&self, self_h: &[f32], agg: &NeighborAggregate) -> Vec<f32> {
        debug_assert_eq!(agg.acc.len(), self.in_dim());
        let mut m = vec![0.0f32; self.in_dim()];
        if agg.total_w != 0.0 {
            let inv = 1.0 / agg.total_w;
            for (a, &x) in m.iter_mut().zip(&agg.acc) {
                *a = x * inv;
            }
        }
        self.project_self_and_mean(self_h, m)
    }

    /// `act(self_h @ W_self + m @ W_neigh + b)` — shared projection tail.
    fn project_self_and_mean(&self, self_h: &[f32], m: Vec<f32>) -> Vec<f32> {
        let mut out = self.b.value.row(0).to_vec();
        for (k, &a) in self_h.iter().enumerate() {
            if a != 0.0 {
                for (o, &wv) in out.iter_mut().zip(self.w_self.value.row(k)) {
                    *o += a * wv;
                }
            }
        }
        for (k, &a) in m.iter().enumerate() {
            if a != 0.0 {
                for (o, &wv) in out.iter_mut().zip(self.w_neigh.value.row(k)) {
                    *o += a * wv;
                }
            }
        }
        let mut mm = Matrix::from_vec(1, out.len(), out);
        self.act.forward_inplace(&mut mm);
        mm.into_vec()
    }

    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w_self, &self.w_neigh, &self.b]
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{prepare_adj, AdjPrep};
    use agl_tensor::{seeded_rng, Coo};

    fn fixture() -> (Csr, Csr, Matrix, SageLayer) {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 3, 3.0);
        coo.push(2, 0, 1.0);
        let raw = coo.into_csr();
        let adj = prepare_adj(&raw, AdjPrep::MeanNoSelf);
        let h = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.2 - 1.0).collect());
        let layer = SageLayer::new(3, 2, Activation::Relu, "sage0", &mut seeded_rng(21));
        (raw, adj, h, layer)
    }

    #[test]
    fn forward_shapes_and_isolated_node() {
        let (_, adj, h, layer) = fixture();
        let (out, cache) = layer.forward(&adj, &h, &ExecCtx::sequential());
        assert_eq!(out.shape(), (4, 2));
        // Node 1 has no in-edges: its aggregated m row is zero.
        assert_eq!(cache.m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn node_forward_matches_batch_row() {
        let (raw, adj, h, layer) = fixture();
        let (batch_out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        for v in 0..4usize {
            let (srcs, ws) = raw.row(v);
            let nbr_h: Vec<Vec<f32>> = srcs.iter().map(|&s| h.row(s as usize).to_vec()).collect();
            let view = NeighborView { self_h: h.row(v), neighbor_h: &nbr_h, weights: ws };
            let node_out = layer.forward_node(&view);
            for (a, b) in node_out.iter().zip(batch_out.row(v)) {
                assert!((a - b).abs() < 1e-5, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn combined_forward_matches_node_forward_including_isolated() {
        let (raw, _, h, layer) = fixture();
        for v in 0..4usize {
            let (srcs, ws) = raw.row(v);
            let nbr_h: Vec<Vec<f32>> = srcs.iter().map(|&s| h.row(s as usize).to_vec()).collect();
            let view = NeighborView { self_h: h.row(v), neighbor_h: &nbr_h, weights: ws };
            let mut agg = NeighborAggregate::empty(3);
            for (nh, &w) in nbr_h.iter().zip(ws) {
                agg.n += 1;
                agg.total_w += w;
                for (a, &x) in agg.acc.iter_mut().zip(nh) {
                    *a += w * x;
                }
            }
            let node = layer.forward_node(&view);
            let combined = layer.forward_node_combined(h.row(v), &agg);
            for (a, b) in node.iter().zip(&combined) {
                assert!((a - b).abs() < 1e-5, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_produces_grads_for_all_params() {
        let (_, adj, h, mut layer) = fixture();
        let ctx = ExecCtx::sequential();
        let (out, cache) = layer.forward(&adj, &h, &ctx);
        let dh = layer.backward(&adj, &cache, &Matrix::full(out.rows(), out.cols(), 0.5), &ctx);
        assert_eq!(dh.shape(), h.shape());
        for p in layer.params() {
            assert!(p.grad.frobenius_norm() > 0.0, "{} has zero grad", p.name);
        }
    }
}
