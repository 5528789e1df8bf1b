//! GAT layer (Veličković et al.) — multi-head additive attention over the
//! in-edge neighborhood plus a self-loop.
//!
//! Per head with projection `P = H W`:
//! ```text
//! raw(v←u) = a_l · P_v + a_r · P_u            (u ∈ {v} ∪ N+(v))
//! α(v←·)   = softmax_u( LeakyReLU(raw(v←u)) )
//! Z_v      = Σ_u α(v←u) P_u  + b
//! ```
//! Hidden layers activate each head then **concat**; the output layer
//! **averages** heads before the activation — the reference GAT recipe.
//!
//! Edge weights are ignored (attention supplies its own coefficients),
//! matching the reference implementations AGL compares against.
//!
//! The backward pass is derived by hand; `tests/gradcheck.rs` checks every
//! parameter and the input gradient against central finite differences.
//!
//! Note for the per-node (GraphInfer) path: the neighbor list must not
//! itself contain the destination node — the self-loop is added internally,
//! exactly once, mirroring `AdjPrep::StructWithSelfLoops` whose duplicate
//! merging guarantees a single diagonal entry.

use crate::layer::{LiveRows, NeighborView};
use crate::param::Param;
use agl_tensor::ops::{leaky_relu, leaky_relu_grad, softmax_slice_inplace, Activation};
use agl_tensor::rng::Rng;
use agl_tensor::{init, Csr, ExecCtx, Matrix};

/// How multiple heads are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadCombine {
    /// Activate each head, concatenate outputs (hidden layers).
    Concat,
    /// Average head outputs, then activate (output layer).
    Average,
}

#[derive(Debug, Clone)]
struct GatHead {
    w: Param,
    /// Attention vector applied to the destination's projection (1 × d').
    a_l: Param,
    /// Attention vector applied to the source's projection (1 × d').
    a_r: Param,
    b: Param,
}

/// Multi-head graph attention layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    heads: Vec<GatHead>,
    combine: HeadCombine,
    act: Activation,
    in_dim: usize,
    head_dim: usize,
}

/// Per-head forward cache.
#[derive(Debug)]
struct HeadCache {
    p: Matrix,
    /// Raw (pre-LeakyReLU) attention scores, one per adjacency entry.
    raw: Vec<f32>,
    /// Softmaxed attention coefficients, one per adjacency entry.
    alpha: Vec<f32>,
    /// `Z + b` per head (pre head-activation for Concat).
    pre: Matrix,
    /// Activated head output (Concat only; unused for Average).
    post: Matrix,
}

/// Layer forward cache.
#[derive(Debug)]
pub struct GatCache {
    h_in: Matrix,
    heads: Vec<HeadCache>,
    /// Combined pre-activation (Average only).
    pre_combined: Option<Matrix>,
    /// Final activated output.
    post_combined: Matrix,
}

impl GatLayer {
    pub fn new(
        in_dim: usize,
        head_dim: usize,
        n_heads: usize,
        combine: HeadCombine,
        act: Activation,
        name: &str,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_heads > 0);
        let a_bound = (6.0 / (head_dim + 1) as f32).sqrt();
        let heads = (0..n_heads)
            .map(|h| GatHead {
                w: Param::new(format!("{name}.h{h}.w"), init::xavier_uniform(in_dim, head_dim, rng)),
                a_l: Param::new(format!("{name}.h{h}.a_l"), init::uniform(1, head_dim, a_bound, rng)),
                a_r: Param::new(format!("{name}.h{h}.a_r"), init::uniform(1, head_dim, a_bound, rng)),
                b: Param::new(format!("{name}.h{h}.b"), Matrix::zeros(1, head_dim)),
            })
            .collect();
        Self { heads, combine, act, in_dim, head_dim }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        match self.combine {
            HeadCombine::Concat => self.head_dim * self.heads.len(),
            HeadCombine::Average => self.head_dim,
        }
    }

    pub fn n_heads(&self) -> usize {
        self.heads.len()
    }

    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    pub fn combine(&self) -> HeadCombine {
        self.combine
    }

    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Batch forward over every row. `adj` must be prepared with
    /// [`crate::layer::AdjPrep::StructWithSelfLoops`].
    pub fn forward(&self, adj: &Csr, h: &Matrix, ctx: &ExecCtx) -> (Matrix, GatCache) {
        self.forward_live(adj, h.clone(), &LiveRows::all(h.rows()), ctx)
    }

    /// Batch forward over the `live` rows: projections and source scores on
    /// the rows the aggregation reads, destination scores, bias and
    /// activation on the rows it produces.
    pub fn forward_live(&self, adj: &Csr, h: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, GatCache) {
        debug_assert_eq!(h.cols(), self.in_dim);
        let n = adj.n_rows();
        let mut head_caches = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let p = h.matmul_rows(&live.input, &head.w.value);
            // Per-node attention logits.
            let mut s_l = vec![0.0f32; n];
            for &v in &live.out {
                s_l[v] = dot(p.row(v), head.a_l.value.row(0));
            }
            let mut s_r = vec![0.0f32; n];
            for &u in &live.input {
                s_r[u] = dot(p.row(u), head.a_r.value.row(0));
            }
            // Raw scores + row-softmax over each destination's entries.
            let mut raw = vec![0.0f32; adj.nnz()];
            let mut alpha = vec![0.0f32; adj.nnz()];
            let indptr = adj.indptr();
            for v in 0..n {
                let (srcs, _) = adj.row(v);
                let (s, e) = (indptr[v], indptr[v + 1]);
                for (i, &u) in srcs.iter().enumerate() {
                    raw[s + i] = s_l[v] + s_r[u as usize];
                    alpha[s + i] = leaky_relu(raw[s + i]);
                }
                softmax_slice_inplace(&mut alpha[s..e]);
            }
            // Aggregate with the attention-weighted adjacency — this is the
            // sparse multiply the edge-partitioning strategy parallelises.
            let alpha_csr = Csr::from_raw(n, adj.n_cols(), indptr.to_vec(), adj.indices().to_vec(), alpha.clone());
            let mut pre = ctx.spmm(&alpha_csr, &p);
            pre.add_row_broadcast_rows(&live.out, head.b.value.row(0));
            let post = match self.combine {
                HeadCombine::Concat => {
                    let mut post = pre.clone();
                    self.act.forward_rows(&mut post, &live.out);
                    post
                }
                HeadCombine::Average => Matrix::zeros(0, 0),
            };
            head_caches.push(HeadCache { p, raw, alpha, pre, post });
        }
        let (out, pre_combined) = match self.combine {
            HeadCombine::Concat => {
                let mut out = Matrix::zeros(n, self.out_dim());
                for (hi, hc) in head_caches.iter().enumerate() {
                    let off = hi * self.head_dim;
                    for &r in &live.out {
                        out.row_mut(r)[off..off + self.head_dim].copy_from_slice(hc.post.row(r));
                    }
                }
                (out, None)
            }
            HeadCombine::Average => {
                let mut avg = Matrix::zeros(n, self.head_dim);
                for hc in &head_caches {
                    avg.add_assign_rows(&live.out, &hc.pre);
                }
                avg.scale(1.0 / self.heads.len() as f32);
                let mut out = avg.clone();
                self.act.forward_rows(&mut out, &live.out);
                (out, Some(avg))
            }
        };
        let cache = GatCache { h_in: h, heads: head_caches, pre_combined, post_combined: out.clone() };
        (out, cache)
    }

    /// Batch backward over every row.
    pub fn backward(&mut self, adj: &Csr, cache: &GatCache, grad_out: &Matrix, ctx: &ExecCtx) -> Matrix {
        let live = LiveRows::all(grad_out.rows());
        self.backward_live(adj, cache, grad_out, &live, true, ctx).expect("input gradient requested")
    }

    /// Batch backward over the `live` rows; returns `dH` only when
    /// `input_grad`.
    pub fn backward_live(
        &mut self,
        adj: &Csr,
        cache: &GatCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        _ctx: &ExecCtx,
    ) -> Option<Matrix> {
        let n = adj.n_rows();
        let n_heads = self.heads.len();
        let mut dh = input_grad.then(|| Matrix::zeros(n, self.in_dim));

        // Per-head gradient of the head pre-activation `Z + b`.
        let head_dpre: Vec<Matrix> = match self.combine {
            HeadCombine::Concat => (0..n_heads)
                .map(|hi| {
                    let off = hi * self.head_dim;
                    let mut d = Matrix::zeros(n, self.head_dim);
                    for &r in &live.out {
                        d.row_mut(r).copy_from_slice(&grad_out.row(r)[off..off + self.head_dim]);
                    }
                    let hc = &cache.heads[hi];
                    self.act.backward_rows(&mut d, &hc.pre, &hc.post, &live.out);
                    d
                })
                .collect(),
            HeadCombine::Average => {
                let mut d_avg = grad_out.clone();
                let pre = cache.pre_combined.as_ref().expect("average cache");
                self.act.backward_rows(&mut d_avg, pre, &cache.post_combined, &live.out);
                d_avg.scale(1.0 / n_heads as f32);
                (0..n_heads).map(|_| d_avg.clone()).collect()
            }
        };

        let indptr = adj.indptr();
        for (hi, head) in self.heads.iter_mut().enumerate() {
            let hc = &cache.heads[hi];
            let dz = &head_dpre[hi];
            head.b.accumulate(&Matrix::from_vec(1, self.head_dim, dz.col_sums_rows(&live.out)));
            // dP from Z = Σ α P: dP_u += α_vu dZ_v  (αᵀ dZ).
            let alpha_csr = Csr::from_raw(n, adj.n_cols(), indptr.to_vec(), adj.indices().to_vec(), hc.alpha.clone());
            let mut dp = alpha_csr.t_spmm(dz);
            // Attention-coefficient gradients.
            let mut ds_l = vec![0.0f32; n];
            let mut ds_r = vec![0.0f32; n];
            let mut dalpha_row: Vec<f32> = Vec::new();
            for v in 0..n {
                let (srcs, _) = adj.row(v);
                if srcs.is_empty() {
                    continue;
                }
                let (s, e) = (indptr[v], indptr[v + 1]);
                dalpha_row.clear();
                dalpha_row.extend(srcs.iter().map(|&u| dot(dz.row(v), hc.p.row(u as usize))));
                let alpha = &hc.alpha[s..e];
                let dot_sum: f32 = alpha.iter().zip(&dalpha_row).map(|(&a, &d)| a * d).sum();
                for (i, &u) in srcs.iter().enumerate() {
                    let dscore = alpha[i] * (dalpha_row[i] - dot_sum);
                    let de = dscore * leaky_relu_grad(hc.raw[s + i]);
                    ds_l[v] += de;
                    ds_r[u as usize] += de;
                }
            }
            // da_l = Σ_v ds_l[v] P_v ; da_r = Σ_u ds_r[u] P_u ;
            // dP_v += ds_l[v] a_l ; dP_u += ds_r[u] a_r.
            let mut da_l = vec![0.0f32; self.head_dim];
            let mut da_r = vec![0.0f32; self.head_dim];
            for v in 0..n {
                let pv = hc.p.row(v);
                if ds_l[v] != 0.0 {
                    for (o, &x) in da_l.iter_mut().zip(pv) {
                        *o += ds_l[v] * x;
                    }
                    let dpv = dp.row_mut(v);
                    for (o, &a) in dpv.iter_mut().zip(head.a_l.value.row(0)) {
                        *o += ds_l[v] * a;
                    }
                }
                if ds_r[v] != 0.0 {
                    for (o, &x) in da_r.iter_mut().zip(pv) {
                        *o += ds_r[v] * x;
                    }
                    let dpv = dp.row_mut(v);
                    for (o, &a) in dpv.iter_mut().zip(head.a_r.value.row(0)) {
                        *o += ds_r[v] * a;
                    }
                }
            }
            head.a_l.accumulate(&Matrix::from_vec(1, self.head_dim, da_l));
            head.a_r.accumulate(&Matrix::from_vec(1, self.head_dim, da_r));
            head.w.accumulate(&cache.h_in.t_matmul_rows(&live.input, &dp));
            if let Some(dh) = &mut dh {
                dh.add_assign_rows(&live.input, &dp.matmul_t_rows(&live.input, &head.w.value));
            }
        }
        dh
    }

    /// Per-node forward (GraphInfer merge step). The self-loop is added
    /// internally; `view.neighbor_h` must contain only true neighbors.
    pub fn forward_node(&self, view: &NeighborView<'_>) -> Vec<f32> {
        let deg = view.degree();
        let mut combined = vec![0.0f32; self.out_dim()];
        for (hi, head) in self.heads.iter().enumerate() {
            // Projections: index 0 = self, 1..=deg = neighbors.
            let mut p = Vec::with_capacity(deg + 1);
            p.push(project(view.self_h, &head.w.value));
            for h in view.neighbor_h {
                p.push(project(h, &head.w.value));
            }
            let s_l_self = dot(&p[0], head.a_l.value.row(0));
            let mut scores: Vec<f32> =
                p.iter().map(|pu| leaky_relu(s_l_self + dot(pu, head.a_r.value.row(0)))).collect();
            softmax_slice_inplace(&mut scores);
            let mut z = head.b.value.row(0).to_vec();
            for (pu, &a) in p.iter().zip(&scores) {
                for (o, &x) in z.iter_mut().zip(pu) {
                    *o += a * x;
                }
            }
            match self.combine {
                HeadCombine::Concat => {
                    let mut m = Matrix::from_vec(1, self.head_dim, z);
                    self.act.forward_inplace(&mut m);
                    let off = hi * self.head_dim;
                    combined[off..off + self.head_dim].copy_from_slice(m.as_slice());
                }
                HeadCombine::Average => {
                    for (o, &x) in combined.iter_mut().zip(&z) {
                        *o += x / self.heads.len() as f32;
                    }
                }
            }
        }
        if self.combine == HeadCombine::Average {
            let mut m = Matrix::from_vec(1, self.head_dim, combined);
            self.act.forward_inplace(&mut m);
            combined = m.into_vec();
        }
        combined
    }

    pub fn params(&self) -> Vec<&Param> {
        self.heads.iter().flat_map(|h| [&h.w, &h.a_l, &h.a_r, &h.b]).collect()
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.heads.iter_mut().flat_map(|h| [&mut h.w, &mut h.a_l, &mut h.a_r, &mut h.b]).collect()
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `h (1×in) @ w (in×out)` for a single row.
fn project(h: &[f32], w: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; w.cols()];
    for (k, &x) in h.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (o, &wv) in out.iter_mut().zip(w.row(k)) {
            *o += x * wv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{prepare_adj, AdjPrep};
    use agl_tensor::{seeded_rng, Coo};

    fn fixture(combine: HeadCombine, heads: usize) -> (Csr, Csr, Matrix, GatLayer) {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 3, 1.0);
        coo.push(3, 2, 1.0);
        let raw = coo.into_csr();
        let adj = prepare_adj(&raw, AdjPrep::StructWithSelfLoops);
        let h = Matrix::from_vec(4, 3, (0..12).map(|i| ((i * 7 % 5) as f32) * 0.3 - 0.6).collect());
        let layer = GatLayer::new(3, 2, heads, combine, Activation::Elu, "gat0", &mut seeded_rng(31));
        (raw, adj, h, layer)
    }

    #[test]
    fn forward_shapes_concat_vs_average() {
        let (_, adj, h, layer) = fixture(HeadCombine::Concat, 3);
        let (out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        assert_eq!(out.shape(), (4, 6));
        let (_, adj, h, layer) = fixture(HeadCombine::Average, 3);
        let (out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        assert_eq!(out.shape(), (4, 2));
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (_, adj, h, layer) = fixture(HeadCombine::Concat, 2);
        let (_, cache) = layer.forward(&adj, &h, &ExecCtx::sequential());
        let indptr = adj.indptr();
        for hc in &cache.heads {
            for v in 0..adj.n_rows() {
                let (s, e) = (indptr[v], indptr[v + 1]);
                if s == e {
                    continue;
                }
                let sum: f32 = hc.alpha[s..e].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "row {v} alphas sum to {sum}");
            }
        }
    }

    #[test]
    fn parallel_forward_matches_sequential() {
        let (_, adj, h, layer) = fixture(HeadCombine::Concat, 2);
        let (s, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
        let (p, _) = layer.forward(&adj, &h, &ExecCtx::parallel(3));
        assert_eq!(s.max_abs_diff(&p), 0.0);
    }

    #[test]
    fn node_forward_matches_batch_row() {
        for combine in [HeadCombine::Concat, HeadCombine::Average] {
            let (raw, adj, h, layer) = fixture(combine, 2);
            let (batch_out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
            for v in 0..4usize {
                let (srcs, ws) = raw.row(v);
                let nbr_h: Vec<Vec<f32>> = srcs.iter().map(|&s| h.row(s as usize).to_vec()).collect();
                let view = NeighborView { self_h: h.row(v), neighbor_h: &nbr_h, weights: ws };
                let node_out = layer.forward_node(&view);
                for (a, b) in node_out.iter().zip(batch_out.row(v)) {
                    assert!((a - b).abs() < 1e-4, "{combine:?} node {v}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn backward_produces_grads_for_all_params() {
        for combine in [HeadCombine::Concat, HeadCombine::Average] {
            let (_, adj, h, mut layer) = fixture(combine, 2);
            let ctx = ExecCtx::sequential();
            let (out, cache) = layer.forward(&adj, &h, &ctx);
            let dh = layer.backward(&adj, &cache, &Matrix::full(out.rows(), out.cols(), 1.0), &ctx);
            assert_eq!(dh.shape(), h.shape());
            for p in layer.params() {
                // a_l shifts every score of a destination row by the same
                // amount; softmax is shift-invariant, so a_l only receives
                // gradient through the LeakyReLU kink and may legitimately
                // be zero when all raw scores in each row share a sign.
                if p.name.ends_with(".a_l") {
                    continue;
                }
                assert!(p.grad.frobenius_norm() > 0.0, "{combine:?}: {} has zero grad", p.name);
            }
        }
    }
}
