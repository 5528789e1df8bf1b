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
//! distributions the paper targets. Each partition is then aggregated by its
//! own thread with **no write conflicts**, since partitions own disjoint
//! output rows.
//!
//! The "conflict-free" claim is *checked*, not just stated: before any
//! threads are spawned the kernels assert [`EdgePartition::check_conflict_free`]
//! (disjoint row ranges covering `0..n_rows`), and in debug builds a
//! [write-set tracker](WriteSetTracker) records which worker touched every
//! output row and fails loudly on any cross-thread overlap.

use crate::csr::Csr;
use crate::matrix::Matrix;
use std::fmt;

/// A split of CSR rows into contiguous, nnz-balanced chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    /// `bounds[i]..bounds[i+1]` is the row range of partition `i`.
    bounds: Vec<usize>,
}

/// Why a partition fails the conflict-freedom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionViolation {
    /// Fewer than two boundary entries — no partitions at all.
    NoPartitions,
    /// First boundary is not row 0.
    DoesNotStartAtZero { first: usize },
    /// Last boundary is not `n_rows` — rows would be skipped or invented.
    DoesNotCover { last: usize, n_rows: usize },
    /// Boundaries decrease: partitions would overlap (a write conflict).
    Overlap { index: usize, start: usize, end: usize },
    /// An empty partition in a non-empty matrix (a wasted thread).
    EmptyPart { index: usize },
}

impl fmt::Display for PartitionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionViolation::NoPartitions => write!(f, "partition has no chunks"),
            PartitionViolation::DoesNotStartAtZero { first } => {
                write!(f, "first boundary is {first}, expected 0")
            }
            PartitionViolation::DoesNotCover { last, n_rows } => {
                write!(f, "last boundary is {last}, expected n_rows = {n_rows}")
            }
            PartitionViolation::Overlap { index, start, end } => {
                write!(f, "partition {index} has start {start} > end {end}: ranges overlap")
            }
            PartitionViolation::EmptyPart { index } => {
                write!(f, "partition {index} is empty in a non-empty matrix")
            }
        }
    }
}

impl std::error::Error for PartitionViolation {}

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
        for r in 1..n_rows {
            if indptr[r] >= next_quota && bounds.len() < t {
                bounds.push(r);
                next_quota = indptr[r] + per_part;
            }
        }
        bounds.push(n_rows);
        Self { bounds }
    }

    /// Build directly from boundary rows (`bounds[i]..bounds[i+1]` is chunk
    /// `i`). **Unchecked**: exists so verifiers and tests can construct
    /// arbitrary — including invalid — partitions; run
    /// [`check_conflict_free`](Self::check_conflict_free) before trusting one.
    pub fn from_bounds(bounds: Vec<usize>) -> Self {
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

    /// The structural half of the §3.3.2 conflict-freedom argument: row
    /// ranges are contiguous, pairwise disjoint, cover exactly `0..n_rows`,
    /// and (for non-empty matrices) no chunk is empty. Kernels assert this
    /// *before* spawning threads.
    pub fn check_conflict_free(&self, n_rows: usize) -> Result<(), PartitionViolation> {
        if self.bounds.len() < 2 {
            return Err(PartitionViolation::NoPartitions);
        }
        if self.bounds[0] != 0 {
            return Err(PartitionViolation::DoesNotStartAtZero { first: self.bounds[0] });
        }
        let last = self.bounds[self.bounds.len() - 1];
        if last != n_rows {
            return Err(PartitionViolation::DoesNotCover { last, n_rows });
        }
        for i in 0..self.len() {
            let (start, end) = (self.bounds[i], self.bounds[i + 1]);
            if start > end {
                return Err(PartitionViolation::Overlap { index: i, start, end });
            }
            if start == end && n_rows > 0 {
                return Err(PartitionViolation::EmptyPart { index: i });
            }
        }
        Ok(())
    }
}

/// Debug-mode write-set tracker: records which worker claimed each output
/// row and fails on any cross-thread claim — the dynamic half of the
/// conflict-freedom proof. Compiled into the aggregation kernels only under
/// `debug_assertions`; release builds pay nothing.
#[cfg(debug_assertions)]
pub struct WriteSetTracker {
    /// Row -> claiming worker (usize::MAX = unclaimed).
    claims: Vec<std::sync::atomic::AtomicUsize>,
}

#[cfg(debug_assertions)]
impl WriteSetTracker {
    const UNCLAIMED: usize = usize::MAX;

    pub fn new(n_rows: usize) -> Self {
        Self { claims: (0..n_rows).map(|_| std::sync::atomic::AtomicUsize::new(Self::UNCLAIMED)).collect() }
    }

    /// Record that `worker` is about to write row `row`. Fails the process
    /// (debug builds only) if another worker already claimed it.
    pub fn claim(&self, row: usize, worker: usize) {
        use std::sync::atomic::Ordering;
        // Conflict detector: a disjoint partition means each cell is touched by one worker,
        // so no ordering is needed; an overlapping claim races by definition, and any
        // interleaving of the swap still exposes it to the assert below.
        // agl-lint: allow(atomics) — detector for races, not a participant; see above.
        let prev = self.claims[row].swap(worker, Ordering::Relaxed);
        assert!(
            prev == Self::UNCLAIMED || prev == worker,
            "conflict-freedom violated: row {row} written by worker {prev} and worker {worker}"
        );
    }

    /// Rows claimed so far (test observability).
    pub fn claimed_rows(&self) -> usize {
        use std::sync::atomic::Ordering;
        // Test observability read after the worker scope has joined.
        // agl-lint: allow(atomics) — the scope exit is the happens-before edge.
        self.claims.iter().filter(|c| c.load(Ordering::Relaxed) != Self::UNCLAIMED).count()
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
    /// `threads > 1`, sequential otherwise. The result is bit-identical to
    /// the sequential kernel because partitions write disjoint rows and each
    /// row is accumulated in the same order.
    pub fn spmm(&self, csr: &Csr, dense: &Matrix) -> Matrix {
        if self.threads <= 1 {
            let mut span = self.obs.span(&self.track, "spmm.sequential");
            span.counter("rows", csr.n_rows() as u64);
            span.counter("nnz", csr.nnz() as u64);
            return csr.spmm(dense);
        }
        let part = EdgePartition::new(csr, self.threads);
        // Conflict-freedom is checked *before* any thread is spawned; a
        // violated partition would mean overlapping &mut row slices below.
        debug_assert!(
            part.check_conflict_free(csr.n_rows()).is_ok(),
            "EdgePartition::new produced a conflicting partition: {:?}",
            part.check_conflict_free(csr.n_rows())
        );
        let mut span = self.obs.span(&self.track, "spmm.edge_partitioned");
        span.counter("rows", csr.n_rows() as u64);
        span.counter("nnz", csr.nnz() as u64);
        span.counter("parts", part.len() as u64);
        let mut out = Matrix::zeros(csr.n_rows(), dense.cols());
        let cols = dense.cols();
        #[cfg(debug_assertions)]
        let tracker = WriteSetTracker::new(csr.n_rows());
        // Split the output buffer at partition boundaries so each thread gets
        // an exclusive &mut of its rows.
        let mut slices: Vec<(std::ops::Range<usize>, &mut [f32])> = Vec::with_capacity(part.len());
        let mut rest = out.as_mut_slice();
        let mut offset = 0usize;
        for range in part.ranges() {
            let take = (range.end - range.start) * cols;
            let (head, tail) = rest.split_at_mut(take);
            slices.push((range, head));
            rest = tail;
            offset += take;
        }
        debug_assert_eq!(offset, csr.n_rows() * cols);
        let obs = &self.obs;
        let kernel_ctx = span.context();
        // Tile track names are formatted up front, outside the hot spawn
        // loop (and only when tracing is live).
        let tile_tracks: Vec<String> = if obs.is_enabled() {
            (0..slices.len()).map(|i| format!("{}.p{i}", self.track)).collect()
        } else {
            Vec::new()
        };
        std::thread::scope(|scope| {
            for (_worker, (range, out_rows)) in slices.into_iter().enumerate() {
                #[cfg(debug_assertions)]
                let tracker = &tracker;
                let (start, end) = (range.start, range.end);
                let nnz = csr.indptr()[end] - csr.indptr()[start];
                let tile_track = tile_tracks.get(_worker).map_or("", String::as_str);
                scope.spawn(move || {
                    // Each tile spans on its own `{track}.p{i}` lane: under
                    // the logical clock a track's timestamps depend only on
                    // its own span order, so per-tile lanes keep the trace
                    // byte-stable however the threads interleave. Tiles
                    // parent under the kernel span for causal linkage.
                    let mut tile = obs.span_child_of(tile_track, "spmm.tile", kernel_ctx);
                    tile.counter("rows", (end - start) as u64);
                    tile.counter("nnz", nnz as u64);
                    for r in start..end {
                        #[cfg(debug_assertions)]
                        tracker.claim(r, _worker);
                        let (srcs, vals) = csr.row(r);
                        let base = (r - start) * cols;
                        let out_row = &mut out_rows[base..base + cols];
                        for (&c, &w) in srcs.iter().zip(vals) {
                            let x = dense.row(c as usize);
                            for (o, &xv) in out_row.iter_mut().zip(x) {
                                *o += w * xv;
                            }
                        }
                    }
                });
            }
        });
        out
    }

    /// Row-parallel map over destination rows: calls `f(dst_row_index)` from
    /// up to `threads` workers, chunked by the given partition. Used by the
    /// GAT layer whose per-row work (attention softmax) is not a plain spmm.
    ///
    /// `f` must only touch state owned by row `dst` — the partitioning
    /// guarantees no two threads see the same row, and in debug builds the
    /// write-set tracker verifies it.
    pub fn for_each_row<F>(&self, csr: &Csr, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.threads <= 1 {
            for r in 0..csr.n_rows() {
                f(r);
            }
            return;
        }
        let part = EdgePartition::new(csr, self.threads);
        debug_assert!(
            part.check_conflict_free(csr.n_rows()).is_ok(),
            "EdgePartition::new produced a conflicting partition: {:?}",
            part.check_conflict_free(csr.n_rows())
        );
        #[cfg(debug_assertions)]
        let tracker = WriteSetTracker::new(csr.n_rows());
        std::thread::scope(|scope| {
            for (_worker, range) in part.ranges().enumerate() {
                let f = &f;
                #[cfg(debug_assertions)]
                let tracker = &tracker;
                scope.spawn(move || {
                    for r in range {
                        #[cfg(debug_assertions)]
                        tracker.claim(r, _worker);
                        f(r);
                    }
                });
            }
        });
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
            assert!(p.check_conflict_free(csr.n_rows()).is_ok());
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
    fn for_each_row_visits_every_row_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let csr = random_csr(57, 4, 5);
        let visits: Vec<AtomicU32> = (0..57).map(|_| AtomicU32::new(0)).collect();
        ExecCtx::parallel(4).for_each_row(&csr, |r| {
            visits[r].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
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

    #[test]
    fn check_rejects_overlapping_and_gapped_bounds() {
        // Overlap: second chunk starts before the first ends.
        assert!(matches!(
            EdgePartition::from_bounds(vec![0, 6, 4, 10]).check_conflict_free(10),
            Err(PartitionViolation::Overlap { .. })
        ));
        // Gap / wrong cover.
        assert!(matches!(
            EdgePartition::from_bounds(vec![0, 4, 8]).check_conflict_free(10),
            Err(PartitionViolation::DoesNotCover { .. })
        ));
        assert!(matches!(
            EdgePartition::from_bounds(vec![2, 10]).check_conflict_free(10),
            Err(PartitionViolation::DoesNotStartAtZero { .. })
        ));
        assert!(matches!(
            EdgePartition::from_bounds(vec![0, 0, 10]).check_conflict_free(10),
            Err(PartitionViolation::EmptyPart { .. })
        ));
        assert!(matches!(
            EdgePartition::from_bounds(vec![5]).check_conflict_free(10),
            Err(PartitionViolation::NoPartitions)
        ));
        assert!(EdgePartition::from_bounds(vec![0, 4, 10]).check_conflict_free(10).is_ok());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn write_set_tracker_accepts_disjoint_claims() {
        let t = WriteSetTracker::new(8);
        t.claim(0, 0);
        t.claim(1, 0);
        t.claim(2, 1);
        t.claim(2, 1); // same worker re-claiming its own row is fine
        assert_eq!(t.claimed_rows(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "conflict-freedom violated")]
    fn write_set_tracker_catches_cross_thread_write() {
        let t = WriteSetTracker::new(4);
        t.claim(3, 0);
        t.claim(3, 1);
    }
}
