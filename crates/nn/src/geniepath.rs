//! GeniePath layer (Liu et al., AAAI 2019 — the paper's reference 12,
//! Ant Financial's own architecture): *adaptive receptive paths* via a
//! breadth function (additive attention over the in-edge neighborhood) and
//! a depth function (LSTM-style gating across layers).
//!
//! Per layer `t`, with node state `(h, C)`:
//!
//! ```text
//! breadth:  s(v←u) = v_a · tanh(h_v W_s + h_u W_d)        (u ∈ {v} ∪ N+(v))
//!           α(v←·) = softmax_u(s)
//!           tmp_v  = tanh( (Σ_u α(v←u) h_u) W_agg )
//! depth:    i = σ(tmp W_i + b_i)   f = σ(tmp W_f + b_f)
//!           o = σ(tmp W_o + b_o)   c̃ = tanh(tmp W_c + b_c)
//!           C' = f ⊙ C + i ⊙ c̃     h' = o ⊙ tanh(C')
//! ```
//!
//! (The "lazy" GeniePath variant: gates read only the aggregated message.)
//!
//! The `(h, C)` pair is packed as one `2d`-wide embedding between layers,
//! which keeps the layer inside AGL's message-passing contract — GraphInfer
//! reducers propagate the packed state exactly like any other embedding.
//! The first layer (whose input is the raw `f_n`-wide features) applies its
//! own input projection `W_x` and starts from `C = 0`.

use crate::layer::{LiveRows, NeighborView};
use crate::param::Param;
use agl_tensor::ops::{sigmoid, sigmoid_grad_from_output, softmax_slice_inplace};
use agl_tensor::rng::Rng;
use agl_tensor::{init, Csr, ExecCtx, Matrix};
use std::num::Saturating;

/// One GeniePath layer with hidden width `d` (state width `2d`).
#[derive(Debug, Clone)]
pub struct GeniePathLayer {
    dim: usize,
    /// Input projection for the first layer (raw features → h); absent when
    /// the input is already a packed `(h, C)` state.
    w_x: Option<Param>,
    in_dim: usize,
    w_s: Param,
    w_d: Param,
    v_a: Param,
    w_agg: Param,
    w_i: Param,
    b_i: Param,
    w_f: Param,
    b_f: Param,
    w_o: Param,
    b_o: Param,
    w_c: Param,
    b_c: Param,
}

/// Forward cache.
#[derive(Debug)]
pub struct GeniePathCache {
    /// Raw layer input (packed state or features).
    input: Matrix,
    /// Unpacked h (after W_x for the entry layer).
    h: Matrix,
    /// Unpacked C (zeros for the entry layer).
    c: Matrix,
    /// Per-edge tanh(h_v W_s + h_u W_d), nnz × d.
    t_edges: Matrix,
    /// Per-edge attention coefficients (aligned with adjacency entries).
    alpha: Vec<f32>,
    /// Σ α h_u per node.
    agg: Matrix,
    tmp: Matrix,
    gate_i: Matrix,
    gate_f: Matrix,
    gate_o: Matrix,
    c_tilde: Matrix,
    c_new: Matrix,
}

impl GeniePathLayer {
    /// `in_dim` is either the raw feature width (entry layer) or `2 * dim`
    /// (stacked layer).
    pub fn new(in_dim: usize, dim: usize, name: &str, rng: &mut impl Rng) -> Self {
        let needs_proj = in_dim != 2 * dim;
        let a_bound = (6.0 / (dim + 1) as f32).sqrt();
        let w_s = Param::new(format!("{name}.w_s"), init::xavier_uniform(dim, dim, rng));
        let w_d = Param::new(format!("{name}.w_d"), init::xavier_uniform(dim, dim, rng));
        let v_a = Param::new(format!("{name}.v_a"), init::uniform(1, dim, a_bound, rng));
        let w_agg = Param::new(format!("{name}.w_agg"), init::xavier_uniform(dim, dim, rng));
        let w_i = Param::new(format!("{name}.w_i"), init::xavier_uniform(dim, dim, rng));
        let b_i = Param::new(format!("{name}.b_i"), Matrix::zeros(1, dim));
        let w_f = Param::new(format!("{name}.w_f"), init::xavier_uniform(dim, dim, rng));
        let b_f = Param::new(format!("{name}.b_f"), Matrix::zeros(1, dim));
        let w_o = Param::new(format!("{name}.w_o"), init::xavier_uniform(dim, dim, rng));
        let b_o = Param::new(format!("{name}.b_o"), Matrix::zeros(1, dim));
        let w_c = Param::new(format!("{name}.w_c"), init::xavier_uniform(dim, dim, rng));
        let b_c = Param::new(format!("{name}.b_c"), Matrix::zeros(1, dim));
        Self {
            dim,
            w_x: needs_proj.then(|| Param::new(format!("{name}.w_x"), init::xavier_uniform(in_dim, dim, rng))),
            in_dim,
            w_s,
            w_d,
            v_a,
            w_agg,
            w_i,
            b_i,
            w_f,
            b_f,
            w_o,
            b_o,
            w_c,
            b_c,
        }
    }

    /// Scalars [`GeniePathLayer::new`] allocates, from the widths alone (saturating,
    /// so unchecked widths cannot overflow it).
    pub fn param_count(in_dim: Saturating<u64>, dim: Saturating<u64>) -> Saturating<u64> {
        let w_x = if in_dim == Saturating(2) * dim { Saturating(0) } else { in_dim * dim };
        Saturating(7) * dim * dim + Saturating(5) * dim + w_x
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Packed `(h, C)` output width.
    pub fn out_dim(&self) -> usize {
        2 * self.dim
    }

    pub fn hidden_dim(&self) -> usize {
        self.dim
    }

    /// Split the packed input into `(h, C)` on the listed rows (projecting
    /// for the entry layer).
    fn unpack(&self, input: &Matrix, rows: &[usize]) -> (Matrix, Matrix) {
        let n = input.rows();
        match &self.w_x {
            Some(w_x) => (input.matmul_rows(rows, &w_x.value), Matrix::zeros(n, self.dim)),
            None => {
                let mut h = Matrix::zeros(n, self.dim);
                let mut c = Matrix::zeros(n, self.dim);
                for &r in rows {
                    h.row_mut(r).copy_from_slice(&input.row(r)[..self.dim]);
                    c.row_mut(r).copy_from_slice(&input.row(r)[self.dim..]);
                }
                (h, c)
            }
        }
    }

    /// Batch forward over every row. `adj` must be prepared with
    /// [`crate::layer::AdjPrep::StructWithSelfLoops`].
    pub fn forward(&self, adj: &Csr, input: &Matrix, ctx: &ExecCtx) -> (Matrix, GeniePathCache) {
        self.forward_live(adj, input.clone(), &LiveRows::all(input.rows()), ctx)
    }

    /// Batch forward over the `live` rows: the source-side projection on the
    /// rows the attention reads, everything else on the rows it produces.
    pub fn forward_live(&self, adj: &Csr, input: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, GeniePathCache) {
        debug_assert_eq!(input.cols(), self.in_dim);
        let n = adj.n_rows();
        let d = self.dim;
        let rows = &live.out;
        let (h, c) = self.unpack(&input, &live.input);
        // Breadth: per-edge additive attention.
        let hs = h.matmul_rows(rows, &self.w_s.value); // n×d — destination side
        let hd = h.matmul_rows(&live.input, &self.w_d.value); // n×d — source side
        let nnz = adj.nnz();
        let mut t_edges = Matrix::zeros(nnz, d);
        let mut scores = vec![0.0f32; nnz];
        let indptr = adj.indptr();
        for v in 0..n {
            let (srcs, _) = adj.row(v);
            let base = indptr[v];
            for (i, &u) in srcs.iter().enumerate() {
                let row = t_edges.row_mut(base + i);
                for (k, o) in row.iter_mut().enumerate() {
                    *o = (hs[(v, k)] + hd[(u as usize, k)]).tanh();
                }
                scores[base + i] = row.iter().zip(self.v_a.value.row(0)).map(|(&t, &a)| t * a).sum();
            }
            softmax_slice_inplace(&mut scores[base..indptr[v + 1]]);
        }
        let alpha = scores;
        let alpha_csr = Csr::from_raw(n, adj.n_cols(), indptr.to_vec(), adj.indices().to_vec(), alpha.clone());
        let agg = ctx.spmm(&alpha_csr, &h);
        let mut tmp = agg.matmul_rows(rows, &self.w_agg.value);
        tmp.map_rows_inplace(rows, f32::tanh);
        // Depth: LSTM gates from tmp only.
        let gate = |w: &Param, b: &Param, squash: fn(f32) -> f32| {
            let mut g = tmp.matmul_rows(rows, &w.value);
            g.add_row_broadcast_rows(rows, b.value.row(0));
            g.map_rows_inplace(rows, squash);
            g
        };
        let gate_i = gate(&self.w_i, &self.b_i, sigmoid);
        let gate_f = gate(&self.w_f, &self.b_f, sigmoid);
        let gate_o = gate(&self.w_o, &self.b_o, sigmoid);
        let c_tilde = gate(&self.w_c, &self.b_c, f32::tanh);
        // C' = f ⊙ C + i ⊙ c̃, h' = o ⊙ tanh(C'), packed as (h', C').
        let mut c_new = Matrix::zeros(n, d);
        let mut out = Matrix::zeros(n, 2 * d);
        for &r in rows {
            for k in 0..d {
                let cn = gate_f[(r, k)] * c[(r, k)] + gate_i[(r, k)] * c_tilde[(r, k)];
                c_new[(r, k)] = cn;
                out[(r, k)] = gate_o[(r, k)] * cn.tanh();
                out[(r, d + k)] = cn;
            }
        }
        let cache = GeniePathCache { input, h, c, t_edges, alpha, agg, tmp, gate_i, gate_f, gate_o, c_tilde, c_new };
        (out, cache)
    }

    /// Batch backward over every row.
    pub fn backward(&mut self, adj: &Csr, cache: &GeniePathCache, grad_out: &Matrix, ctx: &ExecCtx) -> Matrix {
        let live = LiveRows::all(grad_out.rows());
        self.backward_live(adj, cache, grad_out, &live, true, ctx).expect("input gradient requested")
    }

    /// Batch backward over the `live` rows; returns the input gradient only
    /// when `input_grad`.
    pub fn backward_live(
        &mut self,
        adj: &Csr,
        cache: &GeniePathCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        _ctx: &ExecCtx,
    ) -> Option<Matrix> {
        let n = adj.n_rows();
        let d = self.dim;
        let rows = &live.out;
        // Back through the LSTM cell to the gate pre-activations:
        // h' = o ⊙ tanh(C'), C' = f ⊙ C + i ⊙ c̃.
        let mut pre_i = Matrix::zeros(n, d);
        let mut pre_f = Matrix::zeros(n, d);
        let mut pre_o = Matrix::zeros(n, d);
        let mut pre_c = Matrix::zeros(n, d);
        let mut d_c_in = Matrix::zeros(n, d);
        for &r in rows {
            for k in 0..d {
                let (dh_new, dc_new) = (grad_out[(r, k)], grad_out[(r, d + k)]);
                let (gi, gf, go, ct) =
                    (cache.gate_i[(r, k)], cache.gate_f[(r, k)], cache.gate_o[(r, k)], cache.c_tilde[(r, k)]);
                let tanh_c = cache.c_new[(r, k)].tanh();
                let d_o = dh_new * tanh_c;
                let d_cn = dc_new + dh_new * go * (1.0 - tanh_c * tanh_c);
                d_c_in[(r, k)] = d_cn * gf;
                pre_i[(r, k)] = d_cn * ct * sigmoid_grad_from_output(gi);
                pre_f[(r, k)] = d_cn * cache.c[(r, k)] * sigmoid_grad_from_output(gf);
                pre_o[(r, k)] = d_o * sigmoid_grad_from_output(go);
                pre_c[(r, k)] = d_cn * gi * (1.0 - ct * ct);
            }
        }
        // Accumulate gate params + gradient into tmp.
        let mut d_tmp = Matrix::zeros(n, d);
        for (pre, w, b) in [
            (&pre_i, &mut self.w_i, &mut self.b_i),
            (&pre_f, &mut self.w_f, &mut self.b_f),
            (&pre_o, &mut self.w_o, &mut self.b_o),
            (&pre_c, &mut self.w_c, &mut self.b_c),
        ] {
            b.accumulate(&Matrix::from_vec(1, d, pre.col_sums_rows(rows)));
            w.accumulate(&cache.tmp.t_matmul_rows(rows, pre));
            d_tmp.add_assign_rows(rows, &pre.matmul_t_rows(rows, &w.value));
        }
        // tmp = tanh(agg W_agg)
        let mut d_tmp_pre = d_tmp;
        for &r in rows {
            for (g, &t) in d_tmp_pre.row_mut(r).iter_mut().zip(cache.tmp.row(r)) {
                *g *= 1.0 - t * t;
            }
        }
        self.w_agg.accumulate(&cache.agg.t_matmul_rows(rows, &d_tmp_pre));
        let d_agg = d_tmp_pre.matmul_t_rows(rows, &self.w_agg.value);
        // Attention backward (α over per-edge additive scores).
        let indptr = adj.indptr();
        let mut d_hs = Matrix::zeros(n, d); // grad into h W_s rows (dest side)
        let mut d_hd = Matrix::zeros(n, d); // grad into h W_d rows (src side)
        let mut d_va = vec![0.0f32; d];
        let mut dalpha_row: Vec<f32> = Vec::new();
        for v in 0..n {
            let (srcs, _) = adj.row(v);
            if srcs.is_empty() {
                continue;
            }
            let base = indptr[v];
            dalpha_row.clear();
            dalpha_row.extend(
                srcs.iter()
                    .map(|&u| d_agg.row(v).iter().zip(cache.h.row(u as usize)).map(|(&g, &x)| g * x).sum::<f32>()),
            );
            let alpha = &cache.alpha[base..indptr[v + 1]];
            let dot_sum: f32 = alpha.iter().zip(&dalpha_row).map(|(&a, &g)| a * g).sum();
            for (i, &u) in srcs.iter().enumerate() {
                let ds = alpha[i] * (dalpha_row[i] - dot_sum);
                let t_row = cache.t_edges.row(base + i);
                // s = v_a · t ; t = tanh(pre)
                for k in 0..d {
                    let t = t_row[k];
                    d_va[k] += ds * t;
                    let d_pre = ds * self.v_a.value[(0, k)] * (1.0 - t * t);
                    d_hs[(v, k)] += d_pre;
                    d_hd[(u as usize, k)] += d_pre;
                }
            }
        }
        self.v_a.accumulate(&Matrix::from_vec(1, d, d_va));
        // hs = h W_s, hd = h W_d.
        self.w_s.accumulate(&cache.h.t_matmul_rows(rows, &d_hs));
        self.w_d.accumulate(&cache.h.t_matmul_rows(&live.input, &d_hd));
        // The gradient into h feeds only W_x and the layer input.
        if !input_grad && self.w_x.is_none() {
            return None;
        }
        let alpha_csr = Csr::from_raw(n, adj.n_cols(), indptr.to_vec(), adj.indices().to_vec(), cache.alpha.clone());
        let mut d_h = alpha_csr.t_spmm(&d_agg); // from agg = Σ α h_u
        d_h.add_assign_rows(rows, &d_hs.matmul_t_rows(rows, &self.w_s.value));
        d_h.add_assign_rows(&live.input, &d_hd.matmul_t_rows(&live.input, &self.w_d.value));
        // Back through the unpack.
        match &mut self.w_x {
            Some(w_x) => {
                w_x.accumulate(&cache.input.t_matmul_rows(&live.input, &d_h));
                // dC_in dies at the constant C=0
                input_grad.then(|| d_h.matmul_t_rows(&live.input, &w_x.value))
            }
            None => {
                let mut d_in = Matrix::zeros(n, 2 * d);
                for &r in &live.input {
                    d_in.row_mut(r)[..d].copy_from_slice(d_h.row(r));
                    d_in.row_mut(r)[d..].copy_from_slice(d_c_in.row(r));
                }
                Some(d_in)
            }
        }
    }

    /// Per-node forward (GraphInfer merge step). `view.self_h` and each
    /// neighbor embedding are packed `(h, C)` states (raw features for the
    /// entry layer). The self-loop is added internally.
    pub fn forward_node(&self, view: &NeighborView<'_>) -> Vec<f32> {
        let d = self.dim;
        // Unpack self + neighbors.
        let unpack_one = |x: &[f32]| -> (Vec<f32>, Vec<f32>) {
            match &self.w_x {
                Some(w_x) => {
                    let mut h = vec![0.0f32; d];
                    for (k, &xv) in x.iter().enumerate() {
                        if xv != 0.0 {
                            for (o, &w) in h.iter_mut().zip(w_x.value.row(k)) {
                                *o += xv * w;
                            }
                        }
                    }
                    (h, vec![0.0; d])
                }
                None => (x[..d].to_vec(), x[d..].to_vec()),
            }
        };
        let (h_self, c_self) = unpack_one(view.self_h);
        let mut hs: Vec<Vec<f32>> = vec![h_self.clone()];
        for nb in view.neighbor_h {
            hs.push(unpack_one(nb).0);
        }
        let proj = |h: &[f32], w: &Matrix| -> Vec<f32> {
            let mut out = vec![0.0f32; d];
            for (k, &x) in h.iter().enumerate() {
                if x != 0.0 {
                    for (o, &wv) in out.iter_mut().zip(w.row(k)) {
                        *o += x * wv;
                    }
                }
            }
            out
        };
        let hs_self = proj(&h_self, &self.w_s.value);
        let mut scores: Vec<f32> = hs
            .iter()
            .map(|h_u| {
                let hd_u = proj(h_u, &self.w_d.value);
                hs_self.iter().zip(&hd_u).zip(self.v_a.value.row(0)).map(|((&a, &b), &va)| (a + b).tanh() * va).sum()
            })
            .collect();
        softmax_slice_inplace(&mut scores);
        let mut agg = vec![0.0f32; d];
        for (h_u, &a) in hs.iter().zip(&scores) {
            for (o, &x) in agg.iter_mut().zip(h_u) {
                *o += a * x;
            }
        }
        let tmp: Vec<f32> = proj(&agg, &self.w_agg.value).iter().map(|&x| x.tanh()).collect();
        let gate = |w: &Matrix, b: &Param, squash: fn(f32) -> f32| -> Vec<f32> {
            proj(&tmp, w).iter().zip(b.value.row(0)).map(|(&x, &bv)| squash(x + bv)).collect()
        };
        let i = gate(&self.w_i.value, &self.b_i, sigmoid);
        let f = gate(&self.w_f.value, &self.b_f, sigmoid);
        let o = gate(&self.w_o.value, &self.b_o, sigmoid);
        let ct = gate(&self.w_c.value, &self.b_c, f32::tanh);
        let mut out = vec![0.0f32; 2 * d];
        for k in 0..d {
            let c_new = f[k] * c_self[k] + i[k] * ct[k];
            out[k] = o[k] * c_new.tanh();
            out[d + k] = c_new;
        }
        out
    }

    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = Vec::with_capacity(13);
        if let Some(w_x) = &self.w_x {
            out.push(w_x);
        }
        out.extend([
            &self.w_s,
            &self.w_d,
            &self.v_a,
            &self.w_agg,
            &self.w_i,
            &self.b_i,
            &self.w_f,
            &self.b_f,
            &self.w_o,
            &self.b_o,
            &self.w_c,
            &self.b_c,
        ]);
        out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::with_capacity(13);
        if let Some(w_x) = &mut self.w_x {
            out.push(w_x);
        }
        out.extend([
            &mut self.w_s,
            &mut self.w_d,
            &mut self.v_a,
            &mut self.w_agg,
            &mut self.w_i,
            &mut self.b_i,
            &mut self.w_f,
            &mut self.b_f,
            &mut self.w_o,
            &mut self.b_o,
            &mut self.w_c,
            &mut self.b_c,
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{prepare_adj, AdjPrep};
    use agl_tensor::{seeded_rng, Coo};

    fn fixture(entry: bool) -> (Csr, Csr, Matrix, GeniePathLayer) {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 3, 1.0);
        coo.push(3, 2, 1.0);
        let raw = coo.into_csr();
        let adj = prepare_adj(&raw, AdjPrep::StructWithSelfLoops);
        let d = 3usize;
        let in_dim = if entry { 5 } else { 2 * d };
        let h = Matrix::from_vec(4, in_dim, (0..4 * in_dim).map(|i| ((i * 13 % 7) as f32) * 0.15 - 0.4).collect());
        let layer = GeniePathLayer::new(in_dim, d, "gp0", &mut seeded_rng(61));
        (raw, adj, h, layer)
    }

    #[test]
    fn output_packs_state_pairs() {
        let (_, adj, h, layer) = fixture(true);
        let (out, cache) = layer.forward(&adj, &h, &ExecCtx::sequential());
        assert_eq!(out.shape(), (4, 6), "packed (h, C)");
        // C half of the output equals the cached c_new.
        for r in 0..4 {
            assert_eq!(&out.row(r)[3..], cache.c_new.row(r));
        }
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (_, adj, h, layer) = fixture(true);
        let (_, cache) = layer.forward(&adj, &h, &ExecCtx::sequential());
        let indptr = adj.indptr();
        for v in 0..4 {
            let s: f32 = cache.alpha[indptr[v]..indptr[v + 1]].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {v} alphas sum {s}");
        }
    }

    #[test]
    fn node_forward_matches_batch_row_entry_and_stacked() {
        for entry in [true, false] {
            let (raw, adj, h, layer) = fixture(entry);
            let (batch_out, _) = layer.forward(&adj, &h, &ExecCtx::sequential());
            for v in 0..4usize {
                let (srcs, ws) = raw.row(v);
                let nbr_h: Vec<Vec<f32>> = srcs.iter().map(|&s| h.row(s as usize).to_vec()).collect();
                let view = NeighborView { self_h: h.row(v), neighbor_h: &nbr_h, weights: ws };
                let node_out = layer.forward_node(&view);
                for (a, b) in node_out.iter().zip(batch_out.row(v)) {
                    assert!((a - b).abs() < 1e-4, "entry={entry} node {v}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn backward_produces_grads() {
        for entry in [true, false] {
            let (_, adj, h, mut layer) = fixture(entry);
            let ctx = ExecCtx::sequential();
            let (out, cache) = layer.forward(&adj, &h, &ctx);
            let dh = layer.backward(&adj, &cache, &Matrix::full(out.rows(), out.cols(), 1.0), &ctx);
            assert_eq!(dh.shape(), h.shape());
            let nonzero = layer.params().iter().filter(|p| p.grad.frobenius_norm() > 0.0).count();
            assert!(nonzero >= 10, "entry={entry}: only {nonzero} params received gradient");
        }
    }
}
