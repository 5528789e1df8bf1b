//! Fully-connected layer — the prediction model on top of the final node
//! embeddings (GraphInfer's `(K+1)`-th slice, §3.4).

use crate::param::Param;
use agl_tensor::ops::Activation;
use agl_tensor::rng::Rng;
use agl_tensor::{init, Matrix};
use std::num::Saturating;

/// `out = act(H W + b)`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    w: Param,
    b: Param,
    act: Activation,
}

/// Forward cache.
#[derive(Debug)]
pub struct DenseCache {
    h_in: Matrix,
    pre: Matrix,
    post: Matrix,
}

impl DenseLayer {
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, name: &str, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng)),
            b: Param::new(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Scalars [`DenseLayer::new`] allocates, from the widths alone (saturating,
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

    pub fn forward(&self, h: &Matrix) -> (Matrix, DenseCache) {
        self.forward_rows(h.clone(), &all_rows(h.rows()))
    }

    /// [`DenseLayer::forward`] on the listed rows of `h` only; the other
    /// output rows stay zero. Takes `h` by value: the cache keeps it.
    pub fn forward_rows(&self, h: Matrix, rows: &[usize]) -> (Matrix, DenseCache) {
        let mut pre = h.matmul_rows(rows, &self.w.value);
        pre.add_row_broadcast_rows(rows, self.b.value.row(0));
        let mut post = pre.clone();
        self.act.forward_rows(&mut post, rows);
        (post.clone(), DenseCache { h_in: h, pre, post })
    }

    pub fn backward(&mut self, cache: &DenseCache, grad_out: &Matrix) -> Matrix {
        self.backward_rows(cache, grad_out, &all_rows(grad_out.rows()))
    }

    /// [`DenseLayer::backward`] for a [`DenseLayer::forward_rows`] over the
    /// same `rows`.
    pub fn backward_rows(&mut self, cache: &DenseCache, grad_out: &Matrix, rows: &[usize]) -> Matrix {
        let mut d_pre = grad_out.clone();
        self.act.backward_rows(&mut d_pre, &cache.pre, &cache.post, rows);
        self.b.accumulate(&Matrix::from_vec(1, d_pre.cols(), d_pre.col_sums_rows(rows)));
        self.w.accumulate(&cache.h_in.t_matmul_rows(rows, &d_pre));
        d_pre.matmul_t_rows(rows, &self.w.value)
    }

    /// Single-row forward for the final GraphInfer Reduce round.
    pub fn forward_row(&self, h: &[f32]) -> Vec<f32> {
        let mut out = self.b.value.row(0).to_vec();
        for (k, &x) in h.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(self.w.value.row(k)) {
                *o += x * wv;
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

fn all_rows(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::seeded_rng;

    #[test]
    fn forward_row_matches_batch() {
        let layer = DenseLayer::new(3, 2, Activation::Linear, "head", &mut seeded_rng(5));
        let h = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.0, -1.0]]);
        let (out, _) = layer.forward(&h);
        for r in 0..2 {
            let row = layer.forward_row(h.row(r));
            for (a, b) in row.iter().zip(out.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn backward_shapes() {
        let mut layer = DenseLayer::new(3, 2, Activation::Relu, "head", &mut seeded_rng(6));
        let h = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let (out, cache) = layer.forward(&h);
        let dh = layer.backward(&cache, &Matrix::full(out.rows(), out.cols(), 1.0));
        assert_eq!(dh.shape(), (1, 3));
    }
}
