//! Edge partitioning — the operator-level optimisation of paper §3.3.2.
//!
//! > *"we partition the sparse adjacent matrix into `t` parts and ensure
//! > that the edges with the same destination node (i.e., the entries in
//! > the same row) fall in the same partition"*.
//!
//! Because a CSR row holds all edges of one destination, any split at row
//! boundaries satisfies that property. [`EdgePartition`] chooses the row
//! boundaries so that every partition carries roughly the same number of
//! edges (nnz), which is what gives load balance under the skewed degree
//! distributions the paper targets.
//!
//! Each partition is then aggregated by its own thread with **no write
//! conflicts**: [`ExecCtx::spmm`] cuts the output buffer with `split_at_mut`
//! at the partition boundaries, so every tile owns its destinations' rows as
//! an exclusive `&mut [f32]` and the borrow checker rules out any two
//! threads writing one row. Every tile runs the sequential row kernel,
//! [`Csr::spmm_rows_into`], over its own rows, so the result is
//! bit-identical to [`Csr::spmm`] at every thread count.

use crate::csr::Csr;
use crate::matrix::Matrix;

/// A split of CSR rows into contiguous, nnz-balanced chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    /// `bounds[i]..bounds[i+1]` is the row range of partition `i`.
    bounds: Vec<usize>,
}

impl EdgePartition {
    /// Partition the rows of `csr` into (at most) `t` chunks with roughly
    /// equal edge counts. Always returns at least one chunk; never returns
    /// an empty chunk unless the matrix itself is empty.
    pub fn new(csr: &Csr, t: usize) -> Self {
        let t = t.max(1);
        let nnz = csr.nnz();
        let n_rows = csr.n_rows();
        if nnz == 0 || t == 1 || n_rows <= 1 {
            return Self { bounds: vec![0, n_rows] };
        }
        let per_part = nnz.div_ceil(t);
        let mut bounds = Vec::with_capacity(t + 1);
        bounds.push(0);
        let indptr = csr.indptr();
        let mut next_quota = per_part;
        #[expect(clippy::needless_range_loop, reason = "`r` is the row bound pushed, not only an index into `indptr`")]
        for r in 1..n_rows {
            if indptr[r] >= next_quota && bounds.len() < t {
                bounds.push(r);
                next_quota = indptr[r] + per_part;
            }
        }
        bounds.push(n_rows);
        Self { bounds }
    }

    /// The boundary rows. `bounds()[i]..bounds()[i+1]` is partition `i`.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row range of partition `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// Iterate over all row ranges.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.len()).map(|i| self.range(i))
    }

    /// Edge count of partition `i` for a given matrix.
    pub fn part_nnz(&self, csr: &Csr, i: usize) -> usize {
        let r = self.range(i);
        csr.indptr()[r.end] - csr.indptr()[r.start]
    }
}

/// Execution context for aggregation kernels: how many partitions/threads to
/// use, plus the observability handle kernel spans report through. A context
/// with `threads == 1` degenerates to the sequential kernel, which is what
/// `AGL_base` (no `+partition`) uses in the Table 4 ablation.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Number of aggregation threads (and edge partitions).
    pub threads: usize,
    /// Span/metric sink; `Obs::default()` keeps the kernels inert.
    pub obs: agl_obs::Obs,
    /// Trace track kernel spans land on. Per-worker contexts (one trainer
    /// worker per thread) must use distinct tracks — e.g. `tensor.w0` — so
    /// logical-clock timestamps stay deterministic per worker.
    pub track: String,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecCtx {
    /// Sequential execution (the `AGL_base` configuration).
    pub fn sequential() -> Self {
        Self { threads: 1, obs: agl_obs::Obs::default(), track: "tensor".to_string() }
    }

    /// Parallel execution with `t` edge partitions (`AGL+partition`).
    pub fn parallel(t: usize) -> Self {
        Self { threads: t.max(1), ..Self::sequential() }
    }

    /// Attach an observability handle (builder-style).
    pub fn with_obs(mut self, obs: agl_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Put kernel spans on `track` instead of the default `tensor` lane.
    pub fn with_track(mut self, track: &str) -> Self {
        self.track = track.to_string();
        self
    }

    /// `csr @ dense` using edge-partitioned multithreaded aggregation when
    /// `threads > 1`, sequential otherwise. Each tile runs
    /// [`Csr::spmm_rows_into`] on the `&mut` slice of its own output rows,
    /// so the result is bit-identical to the sequential kernel.
    pub fn spmm(&self, csr: &Csr, dense: &Matrix) -> Matrix {
        if self.threads <= 1 {
            let mut span = self.obs.span(&self.track, "spmm.sequential");
            span.counter("rows", csr.n_rows() as u64);
            span.counter("nnz", csr.nnz() as u64);
            return csr.spmm(dense);
        }
        let part = EdgePartition::new(csr, self.threads);
        let mut span = self.obs.span(&self.track, "spmm.edge_partitioned");
        span.counter("rows", csr.n_rows() as u64);
        span.counter("nnz", csr.nnz() as u64);
        span.counter("parts", part.len() as u64);
        let mut out = Matrix::zeros(csr.n_rows(), dense.cols());
        let cols = dense.cols();
        let obs = &self.obs;
        let kernel_ctx = span.context();
        // Tile track names are formatted up front, outside the hot spawn
        // loop (and only when tracing is live).
        let tile_tracks: Vec<String> = if obs.is_enabled() {
            (0..part.len()).map(|i| format!("{}.p{i}", self.track)).collect()
        } else {
            Vec::new()
        };
        std::thread::scope(|scope| {
            let mut rest = out.as_mut_slice();
            for (i, rows) in part.ranges().enumerate() {
                // The tile's exclusive `&mut` to its rows of the output.
                let (out_rows, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * cols);
                rest = tail;
                let nnz = part.part_nnz(csr, i);
                let tile_track = tile_tracks.get(i).map_or("", String::as_str);
                scope.spawn(move || {
                    // Each tile spans on its own `{track}.p{i}` lane: under
                    // the logical clock a track's timestamps depend only on
                    // its own span order, so per-tile lanes keep the trace
                    // byte-stable however the threads interleave. Tiles
                    // parent under the kernel span for causal linkage.
                    let mut tile = obs.span_child_of(tile_track, "spmm.tile", kernel_ctx);
                    tile.counter("rows", rows.len() as u64);
                    tile.counter("nnz", nnz as u64);
                    csr.spmm_rows_into(rows, dense, out_rows);
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use crate::rng::{Rng, SmallRng};

    fn random_csr(n: usize, avg_deg: usize, seed: u64) -> Csr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for dst in 0..n as u32 {
            let deg = rng.gen_range(0..=2 * avg_deg);
            for _ in 0..deg {
                coo.push(dst, rng.gen_range(0..n as u32), rng.gen_range(0.1..1.0f32));
            }
        }
        coo.into_csr()
    }

    fn random_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
    }

    #[test]
    fn partition_covers_all_rows_without_overlap() {
        let csr = random_csr(103, 7, 1);
        for t in [1, 2, 3, 8, 200] {
            let p = EdgePartition::new(&csr, t);
            let mut covered = 0;
            let mut prev_end = 0;
            for r in p.ranges() {
                assert_eq!(r.start, prev_end);
                covered += r.len();
                prev_end = r.end;
            }
            assert_eq!(covered, csr.n_rows());
            assert!(p.len() <= t.max(1));
        }
    }

    #[test]
    fn partition_balances_nnz() {
        let csr = random_csr(1000, 10, 2);
        let p = EdgePartition::new(&csr, 4);
        assert_eq!(p.len(), 4);
        let total: usize = (0..p.len()).map(|i| p.part_nnz(&csr, i)).sum();
        assert_eq!(total, csr.nnz());
        let max = (0..p.len()).map(|i| p.part_nnz(&csr, i)).max().unwrap();
        // With 1000 rows and avg degree 10 the imbalance should be small.
        assert!(max < csr.nnz() / 4 + csr.nnz() / 10, "max part {} of nnz {}", max, csr.nnz());
    }

    #[test]
    fn parallel_spmm_matches_sequential() {
        let csr = random_csr(211, 6, 3);
        let x = random_dense(211, 17, 4);
        let seq = ExecCtx::sequential().spmm(&csr, &x);
        for t in [2, 3, 7] {
            let par = ExecCtx::parallel(t).spmm(&csr, &x);
            assert_eq!(seq.max_abs_diff(&par), 0.0, "t={t} must be bit-identical");
        }
    }

    #[test]
    fn spmm_kernels_emit_spans_with_tile_parents() {
        let csr = random_csr(64, 5, 9);
        let x = random_dense(64, 4, 10);
        let obs = agl_obs::Obs::enabled_logical();
        let ctx = ExecCtx::parallel(3).with_obs(obs.clone()).with_track("tensor.w0");
        ctx.spmm(&csr, &x);
        let events = obs.trace().unwrap().events();
        let kernel: Vec<_> = events.iter().filter(|e| e.name == "spmm.edge_partitioned").collect();
        assert_eq!(kernel.len(), 1, "one kernel span per call");
        assert_eq!(kernel[0].track, "tensor.w0");
        assert!(kernel[0].args.iter().any(|(k, v)| k == "nnz" && *v == csr.nnz() as u64));
        let tiles: Vec<_> = events.iter().filter(|e| e.name == "spmm.tile").collect();
        assert!(!tiles.is_empty(), "tile spans recorded");
        for t in &tiles {
            assert_eq!(t.parent_id, kernel[0].span_id, "tile parents under the kernel span");
            assert!(t.track.starts_with("tensor.w0.p"), "{}", t.track);
        }
        let obs2 = agl_obs::Obs::enabled_logical();
        ExecCtx::sequential().with_obs(obs2.clone()).spmm(&csr, &x);
        assert_eq!(obs2.trace().unwrap().events()[0].name, "spmm.sequential");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let csr = Csr::empty(5, 5);
        let p = EdgePartition::new(&csr, 4);
        assert_eq!(p.len(), 1);
        let x = random_dense(5, 3, 6);
        let out = ExecCtx::parallel(3).spmm(&csr, &x);
        assert_eq!(out.sum(), 0.0);
    }
}
