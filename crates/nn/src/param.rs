//! Named parameters with accumulated gradients.
//!
//! Parameters are plain dense matrices. The model flattens all of them into
//! one `Vec<f32>` for the parameter server (pull the flat vector, push the
//! flat gradient) — the same contract Kunpeng-style parameter servers expose
//! and the reason AGL can train GNNs "like any other model" once GraphFlat
//! has removed the data dependency.

use agl_tensor::Matrix;

/// A trainable parameter: value plus gradient accumulator of the same shape.
#[derive(Debug, Clone)]
pub struct Param {
    /// Stable name used in diagnostics and serialisation.
    pub name: String,
    pub value: Matrix,
    pub grad: Matrix,
}

impl Param {
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self { name: name.into(), value, grad: Matrix::zeros(r, c) }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Accumulate a gradient contribution.
    pub fn accumulate(&mut self, g: &Matrix) {
        self.grad.add_assign(g);
    }
}

/// Flatten parameter *values* into one vector, in iteration order.
pub fn flatten_values<'a>(params: impl Iterator<Item = &'a Param>) -> Vec<f32> {
    let mut out = Vec::new();
    for p in params {
        out.extend_from_slice(p.value.as_slice());
    }
    out
}

/// Flatten parameter *gradients* into one vector, in iteration order.
pub fn flatten_grads<'a>(params: impl Iterator<Item = &'a Param>) -> Vec<f32> {
    let mut out = Vec::new();
    for p in params {
        out.extend_from_slice(p.grad.as_slice());
    }
    out
}

/// Load a flat vector back into parameter values. Panics if the length does
/// not match the total parameter count.
pub fn load_values<'a>(params: impl Iterator<Item = &'a mut Param>, flat: &[f32]) {
    let mut off = 0;
    for p in params {
        let n = p.value.len();
        p.value.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    assert_eq!(off, flat.len(), "flat parameter vector length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_load_roundtrip() {
        let mut ps = [
            Param::new("w1", Matrix::from_rows(&[&[1.0, 2.0]])),
            Param::new("w2", Matrix::from_rows(&[&[3.0], &[4.0]])),
        ];
        let flat = flatten_values(ps.iter());
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        let doubled: Vec<f32> = flat.iter().map(|x| x * 2.0).collect();
        load_values(ps.iter_mut(), &doubled);
        assert_eq!(ps[1].value[(1, 0)], 8.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_wrong_length_panics() {
        let mut ps = [Param::new("w", Matrix::zeros(2, 2))];
        load_values(ps.iter_mut(), &[1.0; 5]);
    }

    #[test]
    fn zero_grad_and_accumulate() {
        let mut p = Param::new("w", Matrix::zeros(1, 2));
        p.accumulate(&Matrix::from_rows(&[&[1.0, 1.0]]));
        p.accumulate(&Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(p.grad.row(0), &[2.0, 3.0]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(flatten_grads([p].iter()), vec![0.0, 0.0]);
    }
}
