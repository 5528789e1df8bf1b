//! Dense row-major `f32` matrix and the kernels GNN training needs.
//!
//! The kernels are written in the `ikj` loop order (row of the output in the
//! innermost loop walking contiguous memory), which is the standard
//! cache-friendly ordering for row-major data and what the Rust performance
//! guidance recommends for hot dense loops: no bounds checks in the inner
//! loop (slices are re-borrowed per row), no allocation inside the loop.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// An all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from a row-major buffer. Panics if the buffer length does not
    /// match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} != {}x{}", data.len(), rows, cols);
        Self { rows, cols, data }
    }

    /// Build from nested rows (test/fixture convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// `self @ other` — the plain dense product.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_over(0..self.rows, other)
    }

    /// [`Matrix::matmul`] on the listed rows of `self` only; every other
    /// output row stays zero. A computed row is accumulated exactly as
    /// `matmul` accumulates it, so it is bit-identical.
    pub fn matmul_rows(&self, rows: &[usize], other: &Matrix) -> Matrix {
        self.matmul_over(rows.iter().copied(), other)
    }

    fn matmul_over(&self, rows: impl Iterator<Item = usize>, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch {:?} x {:?}", self.shape(), other.shape());
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T @ other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_over(0..self.rows, other)
    }

    /// `Σ_{k ∈ rows} self[k]ᵀ other[k]` — [`Matrix::t_matmul`] summing only
    /// the listed rows, in the given order. When every skipped row of
    /// `other` is zero and `rows` is ascending, the result is bit-identical
    /// to `t_matmul`: the skipped terms are exact zeros.
    pub fn t_matmul_rows(&self, rows: &[usize], other: &Matrix) -> Matrix {
        self.t_matmul_over(rows.iter().copied(), other)
    }

    fn t_matmul_over(&self, rows: impl Iterator<Item = usize>, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch {:?} x {:?}", self.shape(), other.shape());
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other^T` without materialising the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_over(0..self.rows, other)
    }

    /// [`Matrix::matmul_t`] on the listed rows of `self` only; every other
    /// output row stays zero.
    pub fn matmul_t_rows(&self, rows: &[usize], other: &Matrix) -> Matrix {
        self.matmul_t_over(rows.iter().copied(), other)
    }

    fn matmul_t_over(&self, rows: impl Iterator<Item = usize>, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch {:?} x {:?}", self.shape(), other.shape());
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// [`Matrix::add_assign`] on the listed rows only.
    pub fn add_assign_rows(&mut self, rows: &[usize], other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for &r in rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(other.row(r)) {
                *a += b;
            }
        }
    }

    /// Elementwise `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Elementwise product `self * other` (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place Hadamard product `self ∘= other` on the listed rows only.
    pub fn hadamard_assign_rows(&mut self, rows: &[usize], other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for &r in rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(other.row(r)) {
                *a *= b;
            }
        }
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Map every element through `f` into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.iter().map(|&x| f(x)).collect())
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// [`Matrix::map_inplace`] on the listed rows only.
    pub fn map_rows_inplace(&mut self, rows: &[usize], f: impl Fn(f32) -> f32) {
        for &r in rows {
            for a in self.row_mut(r) {
                *a = f(*a);
            }
        }
    }

    /// Add a row-vector `bias` (length = cols) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (a, &b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// [`Matrix::add_row_broadcast`] on the listed rows only.
    pub fn add_row_broadcast_rows(&mut self, rows: &[usize], bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for &r in rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Column sums — gradient of a broadcast bias.
    pub fn col_sums(&self) -> Vec<f32> {
        self.col_sums_over(self.rows_iter())
    }

    /// [`Matrix::col_sums`] over the listed rows only, in the given order
    /// (bit-identical when the skipped rows are zero and `rows` ascends).
    pub fn col_sums_rows(&self, rows: &[usize]) -> Vec<f32> {
        self.col_sums_over(rows.iter().map(|&r| self.row(r)))
    }

    fn col_sums_over<'a>(&self, rows: impl Iterator<Item = &'a [f32]>) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for row in rows {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Gather the given rows into a new matrix (`out.row(i) = self.row(idx[i])`).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Scatter-add rows of `src` back: `self.row(idx[i]) += src.row(i)`.
    /// This is the adjoint of [`Matrix::gather_rows`].
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(idx.len(), src.rows(), "scatter index length mismatch");
        assert_eq!(self.cols, src.cols(), "scatter width mismatch");
        for (i, &r) in idx.iter().enumerate() {
            let dst = self.row_mut(r);
            for (d, &s) in dst.iter_mut().zip(src.row(i)) {
                *d += s;
            }
        }
    }

    /// Row index of the maximum entry for each row (first max on ties).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Maximum absolute difference against another matrix — test helper.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]]);
        (a, b)
    }

    #[test]
    fn matmul_basic() {
        let (a, b) = abc();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (3, 3));
        assert_eq!(c[(0, 0)], 27.0);
        assert_eq!(c[(2, 2)], 117.0);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let (a, b) = abc();
        // a^T @ a  via t_matmul vs transpose().matmul()
        let t1 = a.t_matmul(&a);
        let t2 = a.transpose().matmul(&a);
        assert!(t1.max_abs_diff(&t2) < 1e-6);
        let u1 = b.matmul_t(&b);
        let u2 = b.matmul(&b.transpose());
        assert!(u1.max_abs_diff(&u2) < 1e-6);
    }

    #[test]
    fn eye_is_identity_for_matmul() {
        let (a, _) = abc();
        let i = Matrix::eye(2);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-7);
    }

    #[test]
    fn gather_scatter_roundtrip_is_adjoint() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = [2usize, 0, 2];
        let g = m.gather_rows(&idx);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        let mut acc = Matrix::zeros(3, 2);
        acc.scatter_add_rows(&idx, &g);
        // row 2 gathered twice -> scattered back doubled
        assert_eq!(acc.row(2), &[10.0, 12.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn broadcast_bias_and_col_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(m.row(2), &[1.0, -2.0]);
        assert_eq!(m.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let m = Matrix::from_rows(&[&[0.0, 3.0, 1.0], &[9.0, 2.0, 9.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn row_kernels_match_full_kernels_bit_for_bit_on_listed_rows() {
        let a = Matrix::from_vec(5, 3, (0..15).map(|i| ((i * 7 % 11) as f32) * 0.37 - 1.3).collect());
        let w = Matrix::from_vec(3, 4, (0..12).map(|i| ((i * 5 % 7) as f32) * 0.21 - 0.6).collect());
        let rows = [1usize, 3, 4];
        let full = a.matmul(&w);
        let part = a.matmul_rows(&rows, &w);
        for r in 0..5 {
            let want: &[f32] = if rows.contains(&r) { full.row(r) } else { &[0.0; 4] };
            assert_eq!(part.row(r), want, "row {r}");
        }
        let g = Matrix::from_vec(5, 3, (0..15).map(|i| ((i * 3 % 13) as f32) * 0.11 - 0.7).collect());
        assert_eq!(g.matmul_t_rows(&rows, &a.t_matmul(&a)).row(3), g.matmul_t(&a.t_matmul(&a)).row(3));
        // With the skipped rows of `other` zero, the restricted sums are the
        // full sums exactly.
        let mut masked = g.clone();
        for r in [0usize, 2] {
            masked.row_mut(r).fill(0.0);
        }
        assert_eq!(a.t_matmul_rows(&rows, &masked), a.t_matmul(&masked));
        assert_eq!(masked.col_sums_rows(&rows), masked.col_sums());
    }

    #[test]
    fn row_elementwise_kernels_leave_other_rows_alone() {
        let mut m = Matrix::full(3, 2, 2.0);
        let other = Matrix::full(3, 2, 3.0);
        m.add_assign_rows(&[0], &other);
        m.hadamard_assign_rows(&[1], &other);
        m.add_row_broadcast_rows(&[2], &[1.0, -1.0]);
        m.map_rows_inplace(&[0, 2], |x| x * 10.0);
        assert_eq!(m.as_slice(), &[50.0, 50.0, 6.0, 6.0, 30.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let (a, _) = abc();
        let _ = a.matmul(&a);
    }

    #[test]
    fn axpy_and_hadamard() {
        let (a, _) = abc();
        let mut c = a.clone();
        c.axpy(2.0, &a);
        assert_eq!(c[(0, 0)], 3.0);
        let h = a.hadamard(&a);
        assert_eq!(h[(2, 1)], 36.0);
    }
}
