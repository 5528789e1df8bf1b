//! Elementwise activations, softmax, and dropout — forward *and* the exact
//! derivative forms the hand-written backward passes in `agl-nn` consume.

use crate::matrix::Matrix;
use crate::rng::Rng;

/// Slope used for LeakyReLU inside GAT attention, matching the GAT paper
/// value used by the systems AGL compares against.
pub const LEAKY_RELU_SLOPE: f32 = 0.2;

/// ReLU forward.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// ReLU derivative in terms of the *input*.
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// LeakyReLU with slope [`LEAKY_RELU_SLOPE`].
#[inline]
pub fn leaky_relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY_RELU_SLOPE * x
    }
}

/// LeakyReLU derivative in terms of the input.
#[inline]
pub fn leaky_relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_RELU_SLOPE
    }
}

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Sigmoid derivative in terms of the *output* `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// ELU (used as the hidden activation of GAT in the reference setups).
#[inline]
pub fn elu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        x.exp() - 1.0
    }
}

/// ELU derivative in terms of the *output* `y = elu(x)`: `1` for `x>0`,
/// `y + 1 = exp(x)` otherwise.
#[inline]
pub fn elu_grad_from_output(y: f32) -> f32 {
    if y > 0.0 {
        1.0
    } else {
        y + 1.0
    }
}

/// The activation functions supported by the GNN layers. A closed enum keeps
/// layer caches `Send` and serialisable without trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    #[default]
    Relu,
    LeakyRelu,
    Elu,
    Sigmoid,
    /// Identity — used for final layers whose output feeds a loss directly.
    Linear,
}

impl Activation {
    /// Apply in place.
    pub fn forward_inplace(self, m: &mut Matrix) {
        self.forward_slice(m.as_mut_slice());
    }

    /// [`Activation::forward_inplace`] on the listed rows only.
    pub fn forward_rows(self, m: &mut Matrix, rows: &[usize]) {
        for &r in rows {
            self.forward_slice(m.row_mut(r));
        }
    }

    fn forward_slice(self, xs: &mut [f32]) {
        fn apply(xs: &mut [f32], f: impl Fn(f32) -> f32) {
            for x in xs {
                *x = f(*x);
            }
        }
        match self {
            Activation::Relu => apply(xs, relu),
            Activation::LeakyRelu => apply(xs, leaky_relu),
            Activation::Elu => apply(xs, elu),
            Activation::Sigmoid => apply(xs, sigmoid),
            Activation::Linear => {}
        }
    }

    /// Multiply `grad` elementwise by the activation derivative.
    ///
    /// * `pre` — the pre-activation values (input to the activation)
    /// * `post` — the post-activation values (output)
    ///
    /// Both are supplied so each variant can pick the cheaper form.
    pub fn backward_inplace(self, grad: &mut Matrix, pre: &Matrix, post: &Matrix) {
        self.backward_slice(grad.as_mut_slice(), pre.as_slice(), post.as_slice());
    }

    /// [`Activation::backward_inplace`] on the listed rows only.
    pub fn backward_rows(self, grad: &mut Matrix, pre: &Matrix, post: &Matrix, rows: &[usize]) {
        for &r in rows {
            self.backward_slice(grad.row_mut(r), pre.row(r), post.row(r));
        }
    }

    fn backward_slice(self, grad: &mut [f32], pre: &[f32], post: &[f32]) {
        fn apply(grad: &mut [f32], at: &[f32], d: impl Fn(f32) -> f32) {
            for (g, &x) in grad.iter_mut().zip(at) {
                *g *= d(x);
            }
        }
        match self {
            Activation::Relu => apply(grad, pre, relu_grad),
            Activation::LeakyRelu => apply(grad, pre, leaky_relu_grad),
            Activation::Elu => apply(grad, post, elu_grad_from_output),
            Activation::Sigmoid => apply(grad, post, sigmoid_grad_from_output),
            Activation::Linear => {}
        }
    }
}

/// Row-wise softmax, numerically stabilised by the row max.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place row-wise softmax.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        softmax_slice_inplace(row);
    }
}

/// In-place softmax over a single slice.
pub fn softmax_slice_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// An inverted-dropout mask: entries are `0` with probability `p` and
/// `1/(1-p)` otherwise, so the expected activation is unchanged and the
/// backward pass multiplies by the same mask.
pub fn dropout_mask(rows: usize, cols: usize, p: f32, rng: &mut impl Rng) -> Matrix {
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
    if p == 0.0 {
        return Matrix::full(rows, cols, 1.0);
    }
    let keep = 1.0 / (1.0 - p);
    let data = (0..rows * cols).map(|_| if rng.gen::<f32>() < p { 0.0 } else { keep }).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0f32, 1001.0, 1002.0];
        let mut b = vec![0.0f32, 1.0, 2.0];
        softmax_slice_inplace(&mut a);
        softmax_slice_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn sigmoid_extremes_are_finite() {
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn activation_backward_matches_finite_difference() {
        let eps = 1e-3f32;
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Elu, Activation::Sigmoid] {
            for &x in &[-1.7f32, -0.3, 0.4, 2.1] {
                let mut pre = Matrix::from_vec(1, 1, vec![x]);
                let mut post = pre.clone();
                act.forward_inplace(&mut post);
                let mut g = Matrix::from_vec(1, 1, vec![1.0]);
                act.backward_inplace(&mut g, &pre, &post);
                // finite difference
                let mut hi = Matrix::from_vec(1, 1, vec![x + eps]);
                let mut lo = Matrix::from_vec(1, 1, vec![x - eps]);
                act.forward_inplace(&mut hi);
                act.forward_inplace(&mut lo);
                let fd = (hi[(0, 0)] - lo[(0, 0)]) / (2.0 * eps);
                assert!((g[(0, 0)] - fd).abs() < 1e-2, "{act:?} at {x}: analytic {} vs fd {fd}", g[(0, 0)]);
                pre.scale(1.0); // silence unused-mut lint paths
            }
        }
    }

    #[test]
    fn row_activation_matches_full_activation_on_listed_rows() {
        let pre = Matrix::from_rows(&[&[-1.0, 0.5], &[2.0, -0.25], &[0.75, -3.0]]);
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Elu, Activation::Sigmoid] {
            let mut full = pre.clone();
            act.forward_inplace(&mut full);
            let mut part = pre.clone();
            act.forward_rows(&mut part, &[0, 2]);
            assert_eq!((part.row(0), part.row(1), part.row(2)), (full.row(0), pre.row(1), full.row(2)), "{act:?}");
            let mut g_full = Matrix::full(3, 2, 1.5);
            act.backward_inplace(&mut g_full, &pre, &full);
            let mut g_part = Matrix::full(3, 2, 1.5);
            act.backward_rows(&mut g_part, &pre, &full, &[1]);
            assert_eq!((g_part.row(0), g_part.row(1)), (&[1.5f32, 1.5][..], g_full.row(1)), "{act:?}");
        }
    }

    #[test]
    fn dropout_mask_scales_expectation() {
        let mut rng = seeded_rng(7);
        let m = dropout_mask(100, 100, 0.3, &mut rng);
        let mean = m.sum() / (100.0 * 100.0);
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps expectation ~1, got {mean}");
        let zeros = m.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10000.0;
        assert!((frac - 0.3).abs() < 0.03);
    }

    #[test]
    fn dropout_zero_probability_is_all_ones() {
        let mut rng = seeded_rng(8);
        let m = dropout_mask(4, 4, 0.0, &mut rng);
        assert!(m.as_slice().iter().all(|&v| v == 1.0));
    }
}
