//! GCN layer (Kipf & Welling), in the destination-local mean form.
//!
//! Forward: `H' = act( Â H W + b )` with `Â = D^{-1}(A + I)` (row-stochastic
//! with self-loops — see the crate docs for why mean normalisation replaces
//! the symmetric normalisation).
//!
//! Backward (hand-derived; `∘` is elementwise):
//! ```text
//! dPre = dOut ∘ act'            db = 1ᵀ dPre
//! dP   = Âᵀ dPre                dW = Hᵀ dP        dH = dP Wᵀ
//! ```

use crate::layer::{LiveRows, NeighborAggregate};
use crate::param::Param;
use agl_tensor::ops::Activation;
use agl_tensor::rng::Rng;
use agl_tensor::{init, Csr, ExecCtx, Matrix};
use std::num::Saturating;

/// One graph-convolution layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    w: Param,
    b: Param,
    act: Activation,
}

/// Forward cache: everything backward needs.
#[derive(Debug)]
pub struct GcnCache {
    h_in: Matrix,
    pre: Matrix,
    post: Matrix,
}

impl GcnLayer {
    /// Xavier-initialised layer, deterministic in `rng`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, name: &str, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng)),
            b: Param::new(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Scalars [`GcnLayer::new`] allocates, from the widths alone (saturating,
    /// so unchecked widths cannot overflow it).
    pub fn param_count(in_dim: Saturating<u64>, out_dim: Saturating<u64>) -> Saturating<u64> {
        in_dim * out_dim + out_dim
    }

    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Batch forward over every row. `adj` must be prepared with
    /// [`crate::layer::AdjPrep::MeanWithSelfLoops`].
    pub fn forward(&self, adj: &Csr, h: &Matrix, ctx: &ExecCtx) -> (Matrix, GcnCache) {
        self.forward_live(adj, h.clone(), &LiveRows::all(h.rows()), ctx)
    }

    /// Batch forward over the `live` rows: `H W` on the rows the
    /// aggregation reads, bias and activation on the rows it produces.
    pub fn forward_live(&self, adj: &Csr, h: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, GcnCache) {
        debug_assert_eq!(h.cols(), self.in_dim());
        let p = h.matmul_rows(&live.input, &self.w.value);
        let mut pre = ctx.spmm(adj, &p);
        pre.add_row_broadcast_rows(&live.out, self.b.value.row(0));
        let mut post = pre.clone();
        self.act.forward_rows(&mut post, &live.out);
        (post.clone(), GcnCache { h_in: h, pre, post })
    }

    /// Batch backward over every row; accumulates into `w.grad` / `b.grad`,
    /// returns `dH`.
    pub fn backward(&mut self, adj: &Csr, cache: &GcnCache, grad_out: &Matrix, ctx: &ExecCtx) -> Matrix {
        let live = LiveRows::all(grad_out.rows());
        self.backward_live(adj, cache, grad_out, &live, true, ctx).expect("input gradient requested")
    }

    /// Batch backward over the `live` rows of the matching forward; returns
    /// `dH` only when `input_grad`.
    pub fn backward_live(
        &mut self,
        adj: &Csr,
        cache: &GcnCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        _ctx: &ExecCtx,
    ) -> Option<Matrix> {
        let mut d_pre = grad_out.clone();
        self.act.backward_rows(&mut d_pre, &cache.pre, &cache.post, &live.out);
        let db = Matrix::from_vec(1, d_pre.cols(), d_pre.col_sums_rows(&live.out));
        self.b.accumulate(&db);
        let d_p = adj.t_spmm(&d_pre);
        self.w.accumulate(&cache.h_in.t_matmul_rows(&live.input, &d_p));
        input_grad.then(|| d_p.matmul_t_rows(&live.input, &self.w.value))
    }

    /// Per-node forward (the GraphInfer merge step) from a pre-folded
    /// [`NeighborAggregate`] (`acc = Σ w·h`, `total_w = Σ w`): mean over
    /// `{self} ∪ N+` with a unit self-loop, then the dense projection — the
    /// maths of the batch path. The fold order lives in the aggregate, so
    /// every path that builds aggregates identically produces bit-identical
    /// embeddings.
    pub fn forward_node_combined(&self, self_h: &[f32], agg: &NeighborAggregate) -> Vec<f32> {
        debug_assert_eq!(self_h.len(), self.in_dim());
        debug_assert_eq!(agg.acc.len(), self.in_dim());
        let inv = 1.0 / (1.0 + agg.total_w);
        let mut out = self.b.value.row(0).to_vec();
        for (k, (&s, &x)) in self_h.iter().zip(&agg.acc).enumerate() {
            let a = (s + x) * inv;
            if a == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(self.w.value.row(k)) {
                *o += a * wv;
            }
        }
        let mut m = Matrix::from_vec(1, out.len(), out);
        self.act.forward_inplace(&mut m);
        m.into_vec()
    }

    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{prepare_adj, AdjPrep};
    use agl_tensor::{seeded_rng, Coo};

    fn fixture() -> (Csr, Csr, Matrix, GcnLayer) {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 0.5);
        coo.push(1, 3, 2.0);
        coo.push(2, 0, 1.0);
        let raw = coo.into_csr();
        let adj = prepare_adj(&raw, AdjPrep::MeanWithSelfLoops);
        let mut rng = seeded_rng(11);
        let h = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect());
        let layer = GcnLayer::new(3, 2, Activation::Relu, "gcn0", &mut rng);
        (raw, adj, h, layer)
    }

    #[test]
    fn forward_shapes() {
        let (_, adj, h, layer) = fixture();
        let (out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        assert_eq!(out.shape(), (4, 2));
        assert!(out.as_slice().iter().all(|&v| v >= 0.0), "relu output non-negative");
    }

    #[test]
    fn parallel_forward_matches_sequential() {
        let (_, adj, h, layer) = fixture();
        let (s, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        let (p, _) = layer.forward(&adj, &h, &ExecCtx::parallel(3));
        assert_eq!(s.max_abs_diff(&p), 0.0);
    }

    #[test]
    fn combined_forward_matches_batch_row() {
        let (raw, adj, h, layer) = fixture();
        let (batch_out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        for v in 0..4usize {
            let combined = layer.forward_node_combined(h.row(v), &NeighborAggregate::of_row(&raw, &h, v));
            for (a, b) in combined.iter().zip(batch_out.row(v)) {
                assert!((a - b).abs() < 1e-5, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let (_, adj, h, mut layer) = fixture();
        let ctx = ExecCtx::sequential();
        let (out, cache) = layer.forward(&adj, &h, &ctx);
        let grad = Matrix::full(out.rows(), out.cols(), 1.0);
        let dh = layer.backward(&adj, &cache, &grad, &ctx);
        assert_eq!(dh.shape(), h.shape());
        assert!(layer.params()[0].grad.frobenius_norm() > 0.0, "dW nonzero");
    }
}
