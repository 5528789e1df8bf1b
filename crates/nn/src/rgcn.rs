//! Relational / edge-conditioned GCN — the consumer of the `E_B` edge
//! feature matrix that §3.3.1's vectorization carries.
//!
//! The paper's heterogeneous financial graph has typed edges (*"various
//! kinds of interactions between users"*); this layer conditions each
//! message on its edge features, R-GCN style with a basis decomposition:
//!
//! ```text
//! msg(v←u) = ā_vu · h_u ( W_base + Σ_r ef_r(v←u) · W_r )
//! h'_v     = act( b + Σ_{u∈N+(v)} msg(v←u) )
//! ```
//!
//! where `ā` is the row-stochastic mean weight over `{v} ∪ N+(v)` (the
//! destination-local normalisation every AGL path can compute) and `ef_r`
//! is the r-th edge feature (e.g. a one-hot relation type). With `R = 0`
//! this degenerates to a plain GCN layer.
//!
//! The layer works directly on the merged subgraph's **edge list** (the
//! natural carrier of per-edge features), not a CSR — so it composes with
//! `agl_trainer::vectorize` output without re-aligning feature rows, and
//! its per-edge loop is embarrassingly partitionable by destination.

use crate::param::Param;
use agl_graph::SubEdge;
use agl_tensor::ops::Activation;
use agl_tensor::rng::Rng;
use agl_tensor::{init, Matrix};

/// Edge-conditioned GCN layer over an explicit edge list.
#[derive(Debug, Clone)]
pub struct RelationalGcnLayer {
    w_base: Param,
    /// One basis matrix per edge-feature channel.
    w_rel: Vec<Param>,
    b: Param,
    act: Activation,
}

/// Forward cache.
#[derive(Debug)]
pub struct RgcnCache {
    h_in: Matrix,
    /// Mean-normalised coefficient per edge (aligned with the edge list),
    /// including the self-loop coefficient per node at the end.
    edge_coef: Vec<f32>,
    self_coef: Vec<f32>,
    pre: Matrix,
    post: Matrix,
}

impl RelationalGcnLayer {
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        n_edge_feats: usize,
        act: Activation,
        name: &str,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w_base: Param::new(format!("{name}.w_base"), init::xavier_uniform(in_dim, out_dim, rng)),
            w_rel: (0..n_edge_feats)
                .map(|r| Param::new(format!("{name}.w_rel{r}"), init::xavier_uniform(in_dim, out_dim, rng)))
                .collect(),
            b: Param::new(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w_base.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w_base.value.cols()
    }

    pub fn n_edge_feats(&self) -> usize {
        self.w_rel.len()
    }

    /// Normalisation coefficients: self-loop + each in-edge of a node get
    /// weight `w / (Σ w + 1)` — identical maths to `AdjPrep::MeanWithSelfLoops`.
    fn coefficients(n: usize, edges: &[SubEdge]) -> (Vec<f32>, Vec<f32>) {
        let mut totals = vec![1.0f32; n]; // self-loop weight 1
        for e in edges {
            totals[e.dst as usize] += e.weight;
        }
        let edge_coef = edges.iter().map(|e| e.weight / totals[e.dst as usize]).collect();
        let self_coef = totals.iter().map(|&t| 1.0 / t).collect();
        (edge_coef, self_coef)
    }

    /// Batch forward over the merged subgraph's raw edge list and (optional)
    /// per-edge features (`E_B`, rows aligned with `edges`).
    pub fn forward(
        &self,
        n_nodes: usize,
        edges: &[SubEdge],
        edge_feats: Option<&Matrix>,
        h: &Matrix,
    ) -> (Matrix, RgcnCache) {
        assert_eq!(h.rows(), n_nodes);
        assert_eq!(h.cols(), self.in_dim());
        if let Some(ef) = edge_feats {
            assert_eq!(ef.rows(), edges.len(), "one feature row per edge");
            assert_eq!(ef.cols(), self.n_edge_feats(), "edge feature width");
        }
        let (edge_coef, self_coef) = Self::coefficients(n_nodes, edges);
        // Projections (R+1 dense matmuls).
        let p_base = h.matmul(&self.w_base.value);
        let p_rel: Vec<Matrix> = self.w_rel.iter().map(|w| h.matmul(&w.value)).collect();
        let mut pre = Matrix::zeros(n_nodes, self.out_dim());
        // Self-loops through the base weight only (no edge features).
        for (v, &c) in self_coef.iter().enumerate() {
            let dst = pre.row_mut(v);
            for (o, &x) in dst.iter_mut().zip(p_base.row(v)) {
                *o += c * x;
            }
        }
        for (i, e) in edges.iter().enumerate() {
            let c = edge_coef[i];
            let (u, v) = (e.src as usize, e.dst as usize);
            // SAFETY-free split: accumulate into a temp row to avoid borrow
            // gymnastics; rows are short.
            let mut msg: Vec<f32> = p_base.row(u).iter().map(|&x| c * x).collect();
            if let Some(ef) = edge_feats {
                for (r, p) in p_rel.iter().enumerate() {
                    let w = ef[(i, r)];
                    if w != 0.0 {
                        for (m, &x) in msg.iter_mut().zip(p.row(u)) {
                            *m += c * w * x;
                        }
                    }
                }
            }
            let dst = pre.row_mut(v);
            for (o, &m) in dst.iter_mut().zip(&msg) {
                *o += m;
            }
        }
        pre.add_row_broadcast(self.b.value.row(0));
        let mut post = pre.clone();
        self.act.forward_inplace(&mut post);
        (post.clone(), RgcnCache { h_in: h.clone(), edge_coef, self_coef, pre, post })
    }

    /// Batch backward; accumulates parameter grads, returns `dH`.
    pub fn backward(
        &mut self,
        edges: &[SubEdge],
        edge_feats: Option<&Matrix>,
        cache: &RgcnCache,
        grad_out: &Matrix,
    ) -> Matrix {
        let n = cache.h_in.rows();
        let mut d_pre = grad_out.clone();
        self.act.backward_inplace(&mut d_pre, &cache.pre, &cache.post);
        self.b.accumulate(&Matrix::from_vec(1, d_pre.cols(), d_pre.col_sums()));
        // dP accumulation per projection.
        let mut d_p_base = Matrix::zeros(n, self.out_dim());
        let mut d_p_rel: Vec<Matrix> = (0..self.n_edge_feats()).map(|_| Matrix::zeros(n, self.out_dim())).collect();
        for v in 0..n {
            let c = cache.self_coef[v];
            let src = d_pre.row(v);
            let dst = d_p_base.row_mut(v);
            for (o, &g) in dst.iter_mut().zip(src) {
                *o += c * g;
            }
        }
        for (i, e) in edges.iter().enumerate() {
            let c = cache.edge_coef[i];
            let (u, v) = (e.src as usize, e.dst as usize);
            let g_row: Vec<f32> = d_pre.row(v).iter().map(|&g| c * g).collect();
            let dst = d_p_base.row_mut(u);
            for (o, &g) in dst.iter_mut().zip(&g_row) {
                *o += g;
            }
            if let Some(ef) = edge_feats {
                for (r, dp) in d_p_rel.iter_mut().enumerate() {
                    let w = ef[(i, r)];
                    if w != 0.0 {
                        let dst = dp.row_mut(u);
                        for (o, &g) in dst.iter_mut().zip(&g_row) {
                            *o += w * g;
                        }
                    }
                }
            }
        }
        // dW = Hᵀ dP ; dH = Σ dP Wᵀ.
        self.w_base.accumulate(&cache.h_in.t_matmul(&d_p_base));
        let mut dh = d_p_base.matmul_t(&self.w_base.value);
        for (w, dp) in self.w_rel.iter_mut().zip(&d_p_rel) {
            w.accumulate(&cache.h_in.t_matmul(dp));
            dh.add_assign(&dp.matmul_t(&w.value));
        }
        dh
    }

    pub fn params(&self) -> Vec<&Param> {
        let mut out = vec![&self.w_base, &self.b];
        out.extend(self.w_rel.iter());
        out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = vec![&mut self.w_base, &mut self.b];
        out.extend(self.w_rel.iter_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::seeded_rng;

    fn fixture() -> (Vec<SubEdge>, Matrix, Matrix, RelationalGcnLayer) {
        // 4 nodes, 2 relation channels (one-hot in edge features).
        let edges = vec![
            SubEdge { src: 1, dst: 0, weight: 1.0 },
            SubEdge { src: 2, dst: 0, weight: 2.0 },
            SubEdge { src: 3, dst: 1, weight: 1.0 },
        ];
        let ef = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let h = Matrix::from_vec(4, 3, (0..12).map(|i| ((i % 5) as f32) * 0.3 - 0.5).collect());
        let layer = RelationalGcnLayer::new(3, 2, 2, Activation::Sigmoid, "rgcn0", &mut seeded_rng(71));
        (edges, ef, h, layer)
    }

    #[test]
    fn degenerates_to_gcn_without_edge_features() {
        // With no edge features, the layer equals a GCN layer built from the
        // same base weights and bias.
        use crate::gcn::GcnLayer;
        use crate::layer::{prepare_adj, AdjPrep};
        use agl_tensor::{Coo, ExecCtx};
        let (edges, _, h, layer) = fixture();
        let (out, _) = layer.forward(4, &edges, None, &h);

        let mut gcn = GcnLayer::new(3, 2, Activation::Sigmoid, "g", &mut seeded_rng(9));
        // Copy base weights into the GCN layer.
        let flat: Vec<f32> = layer.w_base.value.as_slice().iter().chain(layer.b.value.as_slice()).copied().collect();
        crate::param::load_values(gcn.params_mut().into_iter(), &flat);
        let mut coo = Coo::new(4, 4);
        for e in &edges {
            coo.push(e.dst, e.src, e.weight);
        }
        let adj = prepare_adj(&coo.into_csr(), AdjPrep::MeanWithSelfLoops);
        let (gcn_out, _) = gcn.forward(&adj, &h, &ExecCtx::sequential());
        assert!(out.max_abs_diff(&gcn_out) < 1e-5);
    }

    #[test]
    fn edge_features_change_the_output() {
        let (edges, ef, h, layer) = fixture();
        let (plain, _) = layer.forward(4, &edges, None, &h);
        let (typed, _) = layer.forward(4, &edges, Some(&ef), &h);
        assert!(plain.max_abs_diff(&typed) > 1e-4, "relation channels must matter");
    }

    #[test]
    fn gradcheck_against_finite_differences() {
        let (edges, ef, h, mut layer) = fixture();
        // Objective: weighted sum of outputs.
        let weights = Matrix::from_vec(4, 2, (0..8).map(|i| ((i % 3) as f32) - 1.0).collect());
        let objective = |layer: &RelationalGcnLayer| -> f64 {
            let (out, _) = layer.forward(4, &edges, Some(&ef), &h);
            out.as_slice().iter().zip(weights.as_slice()).map(|(&o, &w)| (o * w) as f64).sum()
        };
        // Analytic.
        let (_, cache) = layer.forward(4, &edges, Some(&ef), &h);
        layer.params_mut().into_iter().for_each(Param::zero_grad);
        layer.backward(&edges, Some(&ef), &cache, &weights);
        let analytic = crate::param::flatten_grads(layer.params().into_iter());
        // Finite differences.
        let base = crate::param::flatten_values(layer.params().into_iter());
        let eps = 1e-2f32;
        for i in 0..base.len() {
            let mut hi = base.clone();
            hi[i] += eps;
            crate::param::load_values(layer.params_mut().into_iter(), &hi);
            let f_hi = objective(&layer);
            let mut lo = base.clone();
            lo[i] -= eps;
            crate::param::load_values(layer.params_mut().into_iter(), &lo);
            let f_lo = objective(&layer);
            let fd = (f_hi - f_lo) / (2.0 * eps as f64);
            let a = analytic[i] as f64;
            assert!((a - fd).abs() / (1.0 + a.abs().max(fd.abs())) < 5e-3, "param {i}: analytic {a:.6} vs fd {fd:.6}");
        }
        crate::param::load_values(layer.params_mut().into_iter(), &base);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let (edges, ef, h, mut layer) = fixture();
        let weights = Matrix::from_vec(4, 2, (0..8).map(|i| ((i % 4) as f32) * 0.5 - 0.75).collect());
        let (_, cache) = layer.forward(4, &edges, Some(&ef), &h);
        let dh = layer.backward(&edges, Some(&ef), &cache, &weights);
        let eps = 1e-2f32;
        for r in 0..4 {
            for c in 0..3 {
                let mut hi = h.clone();
                hi[(r, c)] += eps;
                let (o_hi, _) = layer.forward(4, &edges, Some(&ef), &hi);
                let mut lo = h.clone();
                lo[(r, c)] -= eps;
                let (o_lo, _) = layer.forward(4, &edges, Some(&ef), &lo);
                let f_hi: f64 = o_hi.as_slice().iter().zip(weights.as_slice()).map(|(&o, &w)| (o * w) as f64).sum();
                let f_lo: f64 = o_lo.as_slice().iter().zip(weights.as_slice()).map(|(&o, &w)| (o * w) as f64).sum();
                let fd = (f_hi - f_lo) / (2.0 * eps as f64);
                let a = dh[(r, c)] as f64;
                assert!((a - fd).abs() < 1e-3, "h[{r},{c}]: {a} vs {fd}");
            }
        }
    }

    #[test]
    fn learns_relation_dependent_task() {
        use crate::optim::{Adam, Optimizer};
        // Target for node 0 depends on WHICH relation the message used:
        // relation 0 contributes +, relation 1 contributes −. Only the
        // relation weights can express this.
        let (edges, ef, h, mut layer) = fixture();
        let target = Matrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5], &[0.5, 0.5], &[0.5, 0.5]]);
        let mut opt = Adam::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (out, cache) = layer.forward(4, &edges, Some(&ef), &h);
            let mut grad = out.clone();
            grad.sub_assign(&target);
            let loss: f32 = grad.as_slice().iter().map(|g| g * g).sum();
            grad.scale(2.0);
            layer.params_mut().into_iter().for_each(Param::zero_grad);
            layer.backward(&edges, Some(&ef), &cache, &grad);
            let mut p = crate::param::flatten_values(layer.params().into_iter());
            let g = crate::param::flatten_grads(layer.params().into_iter());
            opt.step(&mut p, &g);
            crate::param::load_values(layer.params_mut().into_iter(), &p);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "{first:?} -> {last}");
    }
}
