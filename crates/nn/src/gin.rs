//! GIN layer (Xu et al., *How Powerful are Graph Neural Networks?*) — an
//! extension beyond the paper's three architectures, exercising a fourth
//! aggregation shape (weighted **sum**, learnable self-coefficient ε, MLP
//! update):
//!
//! ```text
//! h'_v = MLP( (1 + ε) · h_v + Σ_{u ∈ N+(v)} w_vu · h_u )
//! ```
//!
//! Sum aggregation is destination-local like the others, so GIN slots into
//! GraphInfer's per-node reducers unchanged — demonstrating that AGL's
//! message-passing contract covers models the paper never shipped.

use crate::dense::{DenseCache, DenseLayer};
use crate::layer::{LiveRows, NeighborAggregate, NeighborView};
use crate::param::Param;
use agl_tensor::ops::Activation;
use agl_tensor::rng::Rng;
use agl_tensor::{Csr, ExecCtx, Matrix};

/// One GIN layer: ε plus a 2-layer MLP.
#[derive(Debug, Clone)]
pub struct GinLayer {
    /// Learnable self-loop coefficient ε (stored 1×1).
    eps: Param,
    mlp1: DenseLayer,
    mlp2: DenseLayer,
}

/// Forward cache.
#[derive(Debug)]
pub struct GinCache {
    h_in: Matrix,
    c1: DenseCache,
    c2: DenseCache,
}

impl GinLayer {
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, name: &str, rng: &mut impl Rng) -> Self {
        Self {
            eps: Param::new(format!("{name}.eps"), Matrix::zeros(1, 1)),
            mlp1: DenseLayer::new(in_dim, out_dim, act, &format!("{name}.mlp1"), rng),
            mlp2: DenseLayer::new(out_dim, out_dim, act, &format!("{name}.mlp2"), rng),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.mlp1.in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.mlp2.out_dim()
    }

    fn eps_value(&self) -> f32 {
        self.eps.value[(0, 0)]
    }

    /// Batch forward over every row. `adj` must be the *raw* weighted
    /// adjacency ([`crate::layer::AdjPrep::SumNoSelf`]): GIN sums, it does
    /// not average.
    pub fn forward(&self, adj: &Csr, h: &Matrix, ctx: &ExecCtx) -> (Matrix, GinCache) {
        self.forward_live(adj, h.clone(), &LiveRows::all(h.rows()), ctx)
    }

    /// Batch forward over the `live` rows: the self term and the MLP run on
    /// the rows the layer produces.
    pub fn forward_live(&self, adj: &Csr, h: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, GinCache) {
        debug_assert_eq!(h.cols(), self.in_dim());
        let mut agg = ctx.spmm(adj, &h);
        let scale = 1.0 + self.eps_value();
        for &r in &live.out {
            for (a, &x) in agg.row_mut(r).iter_mut().zip(h.row(r)) {
                *a += scale * x;
            }
        }
        let (a1, c1) = self.mlp1.forward_rows(agg, &live.out);
        let (out, c2) = self.mlp2.forward_rows(a1, &live.out);
        (out, GinCache { h_in: h, c1, c2 })
    }

    /// Batch backward over every row.
    pub fn backward(&mut self, adj: &Csr, cache: &GinCache, grad_out: &Matrix, ctx: &ExecCtx) -> Matrix {
        let live = LiveRows::all(grad_out.rows());
        self.backward_live(adj, cache, grad_out, &live, true, ctx).expect("input gradient requested")
    }

    /// Batch backward over the `live` rows; returns `dH` only when
    /// `input_grad`.
    pub fn backward_live(
        &mut self,
        adj: &Csr,
        cache: &GinCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        _ctx: &ExecCtx,
    ) -> Option<Matrix> {
        let rows = &live.out;
        let d_a1 = self.mlp2.backward_rows(&cache.c2, grad_out, rows);
        let d_agg = self.mlp1.backward_rows(&cache.c1, &d_a1, rows);
        // dε = Σ_v d_agg_v · h_v
        let d_eps: f32 =
            rows.iter().flat_map(|&r| d_agg.row(r).iter().zip(cache.h_in.row(r))).map(|(&g, &x)| g * x).sum();
        self.eps.accumulate(&Matrix::from_vec(1, 1, vec![d_eps]));
        if !input_grad {
            return None;
        }
        // dH = (1+ε)·d_agg + Aᵀ·d_agg
        let mut dh = adj.t_spmm(&d_agg);
        dh.axpy(1.0 + self.eps_value(), &d_agg);
        Some(dh)
    }

    /// Per-node forward (GraphInfer merge step) over the raw neighborhood.
    pub fn forward_node(&self, view: &NeighborView<'_>) -> Vec<f32> {
        let scale = 1.0 + self.eps_value();
        let mut agg: Vec<f32> = view.self_h.iter().map(|&x| scale * x).collect();
        for (h, &w) in view.neighbor_h.iter().zip(view.weights) {
            for (a, &x) in agg.iter_mut().zip(h) {
                *a += w * x;
            }
        }
        let a1 = self.mlp1.forward_row(&agg);
        self.mlp2.forward_row(&a1)
    }

    /// Per-node forward from a pre-folded [`NeighborAggregate`]
    /// (`acc = Σ w·h`): add the `(1+ε)`-scaled self embedding and run the
    /// MLP — the weighted-sum aggregation decomposes exactly.
    pub fn forward_node_combined(&self, self_h: &[f32], agg: &NeighborAggregate) -> Vec<f32> {
        debug_assert_eq!(agg.acc.len(), self.in_dim());
        let scale = 1.0 + self.eps_value();
        let a: Vec<f32> = self_h.iter().zip(&agg.acc).map(|(&s, &x)| scale * s + x).collect();
        let a1 = self.mlp1.forward_row(&a);
        self.mlp2.forward_row(&a1)
    }

    pub fn params(&self) -> Vec<&Param> {
        let mut out = vec![&self.eps];
        out.extend(self.mlp1.params());
        out.extend(self.mlp2.params());
        out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = vec![&mut self.eps];
        out.extend(self.mlp1.params_mut());
        out.extend(self.mlp2.params_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{prepare_adj, AdjPrep};
    use agl_tensor::{seeded_rng, Coo};

    fn fixture() -> (Csr, Csr, Matrix, GinLayer) {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(3, 0, 1.0);
        let raw = coo.into_csr();
        let adj = prepare_adj(&raw, AdjPrep::SumNoSelf);
        let h = Matrix::from_vec(4, 3, (0..12).map(|i| ((i % 5) as f32) * 0.2 - 0.4).collect());
        let layer = GinLayer::new(3, 2, Activation::Relu, "gin0", &mut seeded_rng(41));
        (raw, adj, h, layer)
    }

    #[test]
    fn sum_prep_preserves_raw_weights() {
        let (raw, adj, _, _) = fixture();
        assert_eq!(raw, adj, "GIN aggregates over the raw weighted adjacency");
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
    fn combined_forward_matches_node_forward() {
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
    fn backward_produces_all_grads_including_eps() {
        let (_, adj, h, mut layer) = fixture();
        let ctx = ExecCtx::sequential();
        let (out, cache) = layer.forward(&adj, &h, &ctx);
        let dh = layer.backward(&adj, &cache, &Matrix::full(out.rows(), out.cols(), 1.0), &ctx);
        assert_eq!(dh.shape(), h.shape());
        for p in layer.params() {
            assert!(p.grad.frobenius_norm() > 0.0, "{} has zero grad", p.name);
        }
    }

    #[test]
    fn eps_changes_output() {
        let (_, adj, h, mut layer) = fixture();
        let ctx = ExecCtx::sequential();
        let (a, _) = layer.forward(&adj, &h, &ctx);
        layer.eps.value[(0, 0)] = 2.0;
        let (b, _) = layer.forward(&adj, &h, &ctx);
        assert!(a.max_abs_diff(&b) > 1e-4);
    }
}
