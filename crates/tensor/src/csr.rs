//! Compressed sparse row adjacency.
//!
//! Row `v` of a [`Csr`] lists the **in-edge** sources of destination node `v`
//! — the set `N+(v)` of paper §2.1 — because every aggregation in a GNN layer
//! runs over in-edges. This matches the paper's vectorization step (§3.3.1):
//! *"Edges in the sparse matrix are sorted by their destination nodes"*.

use crate::matrix::Matrix;
use std::ops::Range;

/// A coordinate-format edge list used to assemble a [`Csr`].
///
/// Entries are `(dst, src, weight)` triples; duplicates are allowed and are
/// summed when converting (consistent with sparse matrix semantics).
#[derive(Debug, Clone, Default)]
pub struct Coo {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    /// New empty COO with the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self { n_rows, n_cols, entries: Vec::new() }
    }

    /// Add entry `(dst, src) = w`.
    pub fn push(&mut self, dst: u32, src: u32, w: f32) {
        debug_assert!((dst as usize) < self.n_rows && (src as usize) < self.n_cols);
        self.entries.push((dst, src, w));
    }

    /// Number of (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Convert to CSR. Entries are bucketed by destination row (counting
    /// sort — O(nnz)), duplicates within a row are merged by summation, and
    /// columns within each row are sorted ascending.
    pub fn into_csr(self) -> Csr {
        let mut counts = vec![0usize; self.n_rows + 1];
        for &(dst, _, _) in &self.entries {
            counts[dst as usize + 1] += 1;
        }
        for i in 0..self.n_rows {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts.clone();
        let mut indices = vec![0u32; self.entries.len()];
        let mut values = vec![0f32; self.entries.len()];
        let mut cursor = counts;
        for (dst, src, w) in self.entries {
            let at = cursor[dst as usize];
            indices[at] = src;
            values[at] = w;
            cursor[dst as usize] += 1;
        }
        // Sort within each row and merge duplicate columns.
        let mut out_indptr = vec![0usize; self.n_rows + 1];
        let mut out_indices = Vec::with_capacity(indices.len());
        let mut out_values = Vec::with_capacity(values.len());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.n_rows {
            let (s, e) = (indptr_raw[r], indptr_raw[r + 1]);
            scratch.clear();
            scratch.extend(indices[s..e].iter().copied().zip(values[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut w) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    w += scratch[j].1;
                    j += 1;
                }
                out_indices.push(c);
                out_values.push(w);
                i = j;
            }
            out_indptr[r + 1] = out_indices.len();
        }
        Csr { n_rows: self.n_rows, n_cols: self.n_cols, indptr: out_indptr, indices: out_indices, values: out_values }
    }
}

/// Compressed sparse row matrix. Rows are destination nodes; columns are
/// source nodes. Column indices within each row are sorted ascending and
/// unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// An empty matrix with no edges.
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        Self { n_rows, n_cols, indptr: vec![0; n_rows + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Build directly from raw CSR arrays (trusted input; asserts invariants).
    pub fn from_raw(n_rows: usize, n_cols: usize, indptr: Vec<usize>, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indptr.len(), n_rows + 1);
        assert_eq!(indices.len(), values.len());
        assert_eq!(indptr.last().copied(), Some(indices.len()));
        debug_assert!(indices.iter().all(|&c| (c as usize) < n_cols));
        Self { n_rows, n_cols, indptr, indices, values }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries (edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The `(sources, weights)` of row `r` — the in-edge neighborhood of
    /// destination `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// In-degree of destination `r` (stored entries in its row).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Iterate `(dst, src, weight)` over all stored entries.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Sparse × dense: `out = self @ dense`. Row `r` of the output is the
    /// weighted sum of the dense rows of `r`'s in-edge sources — the
    /// message-passing *merge* step.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows, dense.cols());
        self.spmm_rows_into(0..self.n_rows, dense, out.as_mut_slice());
        out
    }

    /// Accumulate rows `rows` of `self @ dense` into `out`, the row-major
    /// slice holding exactly those output rows. The one SpMM row loop:
    /// [`Csr::spmm`] runs it over every row, and each tile of the
    /// edge-partitioned multiply ([`ExecCtx::spmm`](crate::ExecCtx::spmm))
    /// runs it over its own row range, so every thread count sums each row
    /// in the same order.
    pub fn spmm_rows_into(&self, rows: Range<usize>, dense: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.n_cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} @ {:?}",
            self.n_rows,
            self.n_cols,
            dense.shape()
        );
        let n = dense.cols();
        assert_eq!(out.len(), rows.len() * n, "spmm output slice does not hold rows {rows:?}");
        let start = rows.start;
        for r in rows {
            let (cols, vals) = self.row(r);
            let base = (r - start) * n;
            let out_row = &mut out[base..base + n];
            for (&c, &w) in cols.iter().zip(vals) {
                let src = dense.row(c as usize);
                for (o, &x) in out_row.iter_mut().zip(src) {
                    *o += w * x;
                }
            }
        }
    }

    /// Transposed sparse × dense: `out = self^T @ dense`. This is the adjoint
    /// of [`Csr::spmm`] and what backward passes need: it scatters gradient
    /// from destinations back to sources.
    pub fn t_spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.n_rows, dense.rows(), "t_spmm shape mismatch");
        let mut out = Matrix::zeros(self.n_cols, dense.cols());
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            let d_row = dense.row(r);
            for (&c, &w) in cols.iter().zip(vals) {
                let out_row = out.row_mut(c as usize);
                for (o, &x) in out_row.iter_mut().zip(d_row) {
                    *o += w * x;
                }
            }
        }
        out
    }

    /// Return a copy whose rows are L1-normalised (each row sums to 1).
    /// Rows with no entries are left empty. This realises the mean in-edge
    /// aggregation `D_in^{-1} A` used by our GCN/SAGE formulation, which is
    /// computable both batch-wise and per-node in the GraphInfer pipeline.
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..self.n_rows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            let sum: f32 = out.values[s..e].iter().sum();
            if sum != 0.0 {
                let inv = 1.0 / sum;
                for v in &mut out.values[s..e] {
                    *v *= inv;
                }
            }
        }
        out
    }

    /// Add the identity (a self-loop of weight `w` on every node). Requires a
    /// square matrix. Used to build `A + I` before normalisation.
    pub fn with_self_loops(&self, w: f32) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "self loops need a square matrix");
        let mut coo = Coo::new(self.n_rows, self.n_cols);
        for (d, s, v) in self.iter_entries() {
            coo.push(d, s, v);
        }
        for i in 0..self.n_rows as u32 {
            coo.push(i, i, w);
        }
        coo.into_csr()
    }

    /// Materialise as a dense matrix (tests only — O(rows*cols)).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows, self.n_cols);
        for (d, s, v) in self.iter_entries() {
            m[(d as usize, s as usize)] += v;
        }
        m
    }

    /// Keep only the entries for which `keep(dst, src)` returns true.
    /// Used by the graph-pruning strategy to drop edges whose destination
    /// cannot influence any target node at a given layer.
    pub fn filter_entries(&self, mut keep: impl FnMut(u32, u32) -> bool) -> Csr {
        let mut indptr = vec![0usize; self.n_rows + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if keep(r as u32, c) {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr[r + 1] = indices.len();
        }
        Csr { n_rows: self.n_rows, n_cols: self.n_cols, indptr, indices, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node graph: edges (dst <- src): 0<-1, 0<-2, 1<-2, 3<-0.
    fn sample() -> Csr {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(3, 0, 4.0);
        coo.into_csr()
    }

    #[test]
    fn coo_to_csr_sorts_and_merges() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 0.5); // duplicate -> merged
        let csr = coo.into_csr();
        assert_eq!(csr.nnz(), 2);
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[1.0, 1.5]);
        assert_eq!(csr.row_nnz(1), 0);
    }

    #[test]
    fn spmm_matches_dense() {
        let csr = sample();
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let sparse = csr.spmm(&x);
        let dense = csr.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn t_spmm_matches_dense_transpose() {
        let csr = sample();
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let sparse = csr.t_spmm(&g);
        let dense = csr.to_dense().transpose().matmul(&g);
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let n = sample().row_normalized();
        let (_, vals) = n.row(0);
        let s: f32 = vals.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        // empty row stays empty
        assert_eq!(n.row_nnz(2), 0);
    }

    #[test]
    fn self_loops_added_once_per_node() {
        let sl = sample().with_self_loops(1.0);
        assert_eq!(sl.nnz(), 4 + 4);
        let d = sl.to_dense();
        for i in 0..4 {
            assert!(d[(i, i)] >= 1.0);
        }
    }

    #[test]
    fn filter_entries_prunes() {
        let f = sample().filter_entries(|dst, _| dst == 0);
        assert_eq!(f.nnz(), 2);
        assert_eq!(f.row_nnz(3), 0);
        assert_eq!(f.n_rows(), 4);
    }

    #[test]
    fn iter_entries_roundtrip() {
        let csr = sample();
        let mut coo = Coo::new(4, 4);
        for (d, s, v) in csr.iter_entries() {
            coo.push(d, s, v);
        }
        assert_eq!(coo.into_csr(), csr);
    }
}
