//! The closed set of GNN layers plus the adjacency preprocessing each needs.

use crate::dense::DenseCache;
use crate::gat::{GatCache, GatLayer};
use crate::gcn::{GcnCache, GcnLayer};
use crate::geniepath::{GeniePathCache, GeniePathLayer};
use crate::gin::{GinCache, GinLayer};
use crate::param::Param;
use crate::sage::{SageCache, SageLayer};
use agl_tensor::{Csr, ExecCtx, Matrix};

/// How a layer wants the raw batch adjacency preprocessed before `forward`.
///
/// All variants are *destination-local*: they can be computed from a node's
/// own in-edges, which is why the same layer maths runs both on vectorized
/// batches (GraphTrainer) and inside a per-key reducer (GraphInfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjPrep {
    /// `D^{-1}(A + I)` — row-stochastic with a unit self-loop (GCN).
    MeanWithSelfLoops,
    /// `D^{-1}A` — row-stochastic over neighbors only (GraphSAGE; the self
    /// embedding enters through its own weight matrix).
    MeanNoSelf,
    /// `A + I` structure, weights untouched (GAT computes its own attention
    /// coefficients; edge weights are ignored, matching reference GAT).
    StructWithSelfLoops,
    /// Raw weighted `A`, no self-loop, no normalisation (GIN *sums*
    /// messages; the self embedding enters through its (1+ε) coefficient).
    SumNoSelf,
}

/// Apply an [`AdjPrep`] to a raw destination-sorted adjacency.
pub fn prepare_adj(raw: &Csr, prep: AdjPrep) -> Csr {
    match prep {
        AdjPrep::MeanWithSelfLoops => raw.with_self_loops(1.0).row_normalized(),
        AdjPrep::MeanNoSelf => raw.row_normalized(),
        AdjPrep::StructWithSelfLoops => raw.with_self_loops(1.0),
        AdjPrep::SumNoSelf => raw.clone(),
    }
}

/// One node's view of its in-edge neighborhood — what an attention layer's
/// per-node forward reads: the node's own embedding plus each kept in-edge
/// neighbor's embedding and edge weight.
#[derive(Debug)]
pub struct NeighborView<'a> {
    pub self_h: &'a [f32],
    /// One embedding per in-edge neighbor (excluding self).
    pub neighbor_h: &'a [Vec<f32>],
    /// Edge weight per neighbor, aligned with `neighbor_h`.
    pub weights: &'a [f32],
}

impl NeighborView<'_> {
    pub fn degree(&self) -> usize {
        self.neighbor_h.len()
    }
}

/// How a layer's neighbor aggregation decomposes into shuffle-combinable
/// partials (the InferTurbo combiner contract): two partial aggregates over
/// disjoint neighbor subsets can be merged into the aggregate over their
/// union without seeing the raw embeddings again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineKind {
    /// `acc = Σ w·h` — weighted sum (GIN; ε·self enters at apply time).
    Sum,
    /// `acc = Σ w·h` with `total_w = Σ w` kept for the normalisation at
    /// apply time (GCN's mean-with-self-loop, GraphSAGE's neighbor mean).
    Mean,
}

/// A partially-aggregated neighborhood: what a shuffle combiner ships in
/// place of raw per-neighbor embeddings, and what
/// [`GnnLayer::forward_node_combined`] consumes after all partials merge.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborAggregate {
    /// Neighbors folded in.
    pub n: u64,
    /// `Σ w` over the folded neighbors.
    pub total_w: f32,
    /// The elementwise accumulator `Σ w·h`.
    pub acc: Vec<f32>,
}

impl NeighborAggregate {
    /// The empty aggregate (isolated node) at embedding width `dim`.
    pub fn empty(dim: usize) -> Self {
        Self { n: 0, total_w: 0.0, acc: vec![0.0; dim] }
    }
}

/// The rows one GNN layer works on in a batch: graph pruning (§3.3.2)
/// carried from the adjacency into the dense kernels. Both lists ascend.
///
/// A layer computes every row its adjacency keeps plus every row the layer
/// above reads, so an unpruned adjacency keeps all the work of a row that
/// has in-edges (every row, for the self-looped GCN/GAT/GeniePath
/// adjacencies). Rows outside these lists are left zero: no target can see
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveRows {
    /// Rows whose output the layer computes.
    pub out: Vec<usize>,
    /// Rows of the layer input it reads: `out` (its self rows) plus every
    /// adjacency column.
    pub input: Vec<usize>,
}

impl LiveRows {
    /// Every one of `n` rows live — a layer run over a whole graph.
    pub fn all(n: usize) -> Self {
        Self { out: (0..n).collect(), input: (0..n).collect() }
    }

    /// Per-layer live rows of an `n`-node batch, derived top-down: the last
    /// layer must produce the `targets`, and layer `k` must produce every
    /// row layer `k+1` reads.
    pub fn derive(adjs: &[Csr], targets: &[usize], n: usize) -> Vec<LiveRows> {
        let marked = |m: &[bool]| m.iter().enumerate().filter(|(_, &b)| b).map(|(r, _)| r).collect::<Vec<_>>();
        let mut needed = vec![false; n];
        for &t in targets {
            needed[t] = true;
        }
        let mut live: Vec<LiveRows> = adjs
            .iter()
            .rev()
            .map(|adj| {
                for (r, need) in needed.iter_mut().enumerate() {
                    *need |= adj.row_nnz(r) > 0;
                }
                let out = marked(&needed);
                for &c in adj.indices() {
                    needed[c as usize] = true;
                }
                LiveRows { out, input: marked(&needed) }
            })
            .collect();
        live.reverse();
        live
    }
}

/// A GNN layer. Closed enum rather than a trait object so caches stay
/// concrete, `Send`, and serialisable.
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "layers are built once per model and stay in place; the size costs nothing per call"
)]
pub enum GnnLayer {
    Gcn(GcnLayer),
    Sage(SageLayer),
    Gat(GatLayer),
    Gin(GinLayer),
    GeniePath(GeniePathLayer),
}

/// Forward cache for one layer invocation.
#[derive(Debug)]
pub enum LayerCache {
    Gcn(GcnCache),
    Sage(SageCache),
    Gat(GatCache),
    Gin(GinCache),
    GeniePath(GeniePathCache),
    Dense(DenseCache),
}

impl GnnLayer {
    /// Input embedding width.
    pub fn in_dim(&self) -> usize {
        match self {
            GnnLayer::Gcn(l) => l.in_dim(),
            GnnLayer::Sage(l) => l.in_dim(),
            GnnLayer::Gat(l) => l.in_dim(),
            GnnLayer::Gin(l) => l.in_dim(),
            GnnLayer::GeniePath(l) => l.in_dim(),
        }
    }

    /// Output embedding width.
    pub fn out_dim(&self) -> usize {
        match self {
            GnnLayer::Gcn(l) => l.out_dim(),
            GnnLayer::Sage(l) => l.out_dim(),
            GnnLayer::Gat(l) => l.out_dim(),
            GnnLayer::Gin(l) => l.out_dim(),
            GnnLayer::GeniePath(l) => l.out_dim(),
        }
    }

    /// Adjacency preprocessing this layer expects.
    pub fn adj_prep(&self) -> AdjPrep {
        match self {
            GnnLayer::Gcn(_) => AdjPrep::MeanWithSelfLoops,
            GnnLayer::Sage(_) => AdjPrep::MeanNoSelf,
            GnnLayer::Gat(_) => AdjPrep::StructWithSelfLoops,
            GnnLayer::Gin(_) => AdjPrep::SumNoSelf,
            GnnLayer::GeniePath(_) => AdjPrep::StructWithSelfLoops,
        }
    }

    /// Batch forward over a *prepared* adjacency (see [`prepare_adj`]),
    /// computing only the `live` rows. Takes the input by value: the cache
    /// keeps it for backward.
    pub fn forward(&self, adj: &Csr, h: Matrix, live: &LiveRows, ctx: &ExecCtx) -> (Matrix, LayerCache) {
        match self {
            GnnLayer::Gcn(l) => {
                let (out, c) = l.forward_live(adj, h, live, ctx);
                (out, LayerCache::Gcn(c))
            }
            GnnLayer::Sage(l) => {
                let (out, c) = l.forward_live(adj, h, live, ctx);
                (out, LayerCache::Sage(c))
            }
            GnnLayer::Gat(l) => {
                let (out, c) = l.forward_live(adj, h, live, ctx);
                (out, LayerCache::Gat(c))
            }
            GnnLayer::Gin(l) => {
                let (out, c) = l.forward_live(adj, h, live, ctx);
                (out, LayerCache::Gin(c))
            }
            GnnLayer::GeniePath(l) => {
                let (out, c) = l.forward_live(adj, h, live, ctx);
                (out, LayerCache::GeniePath(c))
            }
        }
    }

    /// Batch backward over the `live` rows of the forward that built
    /// `cache`: accumulate parameter gradients and, when `input_grad`,
    /// return the gradient w.r.t. the layer input (nonzero on
    /// `live.input` only).
    pub fn backward(
        &mut self,
        adj: &Csr,
        cache: &LayerCache,
        grad_out: &Matrix,
        live: &LiveRows,
        input_grad: bool,
        ctx: &ExecCtx,
    ) -> Option<Matrix> {
        match (self, cache) {
            (GnnLayer::Gcn(l), LayerCache::Gcn(c)) => l.backward_live(adj, c, grad_out, live, input_grad, ctx),
            (GnnLayer::Sage(l), LayerCache::Sage(c)) => l.backward_live(adj, c, grad_out, live, input_grad, ctx),
            (GnnLayer::Gat(l), LayerCache::Gat(c)) => l.backward_live(adj, c, grad_out, live, input_grad, ctx),
            (GnnLayer::Gin(l), LayerCache::Gin(c)) => l.backward_live(adj, c, grad_out, live, input_grad, ctx),
            (GnnLayer::GeniePath(l), LayerCache::GeniePath(c)) => {
                l.backward_live(adj, c, grad_out, live, input_grad, ctx)
            }
            _ => panic!("layer/cache kind mismatch"),
        }
    }

    /// Per-node forward of an attention layer over its *raw* (unprepared)
    /// in-edge neighborhood — the GraphInfer merge step for GAT and
    /// GeniePath. Produces the embedding the batch forward produces for that
    /// node. Decomposable layers run [`GnnLayer::forward_node_combined`]
    /// instead; callers gate on [`GnnLayer::combine_kind`].
    pub fn forward_node(&self, view: &NeighborView<'_>) -> Vec<f32> {
        match self {
            GnnLayer::Gat(l) => l.forward_node(view),
            GnnLayer::GeniePath(l) => l.forward_node(view),
            // `combine_kind()` is Some for these; callers gate on it.
            GnnLayer::Gcn(_) | GnnLayer::Sage(_) | GnnLayer::Gin(_) => {
                panic!("{} folds its neighbors through forward_node_combined", self.kind_name())
            }
        }
    }

    /// How this layer's aggregation decomposes into combinable partials.
    /// `None` for attention layers (GAT, GeniePath): their coefficients
    /// depend on every raw neighbor embedding jointly, so partial
    /// aggregation before the attention softmax is unsound — inference
    /// ships their raw embeddings and runs [`GnnLayer::forward_node`].
    pub fn combine_kind(&self) -> Option<CombineKind> {
        match self {
            GnnLayer::Gcn(_) => Some(CombineKind::Mean),
            GnnLayer::Sage(_) => Some(CombineKind::Mean),
            GnnLayer::Gin(_) => Some(CombineKind::Sum),
            GnnLayer::Gat(_) | GnnLayer::GeniePath(_) => None,
        }
    }

    /// Per-node forward of a decomposable layer from a merged
    /// [`NeighborAggregate`] — the GraphInfer merge step for GCN, SAGE and
    /// GIN. Produces the embedding the batch forward produces for that node,
    /// to floating-point roundoff; the fold order over neighbors is fixed by
    /// whoever built the aggregate, which is what makes combiner-on and
    /// combiner-off runs bit-identical. Callers must gate on
    /// [`GnnLayer::combine_kind`].
    pub fn forward_node_combined(&self, self_h: &[f32], agg: &NeighborAggregate) -> Vec<f32> {
        match self {
            GnnLayer::Gcn(l) => l.forward_node_combined(self_h, agg),
            GnnLayer::Sage(l) => l.forward_node_combined(self_h, agg),
            GnnLayer::Gin(l) => l.forward_node_combined(self_h, agg),
            // `combine_kind()` is None for attention layers; callers gate on it.
            GnnLayer::Gat(_) | GnnLayer::GeniePath(_) => panic!("{} has no combinable aggregation", self.kind_name()),
        }
    }

    pub fn params(&self) -> Vec<&Param> {
        match self {
            GnnLayer::Gcn(l) => l.params(),
            GnnLayer::Sage(l) => l.params(),
            GnnLayer::Gat(l) => l.params(),
            GnnLayer::Gin(l) => l.params(),
            GnnLayer::GeniePath(l) => l.params(),
        }
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            GnnLayer::Gcn(l) => l.params_mut(),
            GnnLayer::Sage(l) => l.params_mut(),
            GnnLayer::Gat(l) => l.params_mut(),
            GnnLayer::Gin(l) => l.params_mut(),
            GnnLayer::GeniePath(l) => l.params_mut(),
        }
    }

    /// Human-readable kind tag.
    pub fn kind_name(&self) -> &'static str {
        match self {
            GnnLayer::Gcn(_) => "gcn",
            GnnLayer::Sage(_) => "sage",
            GnnLayer::Gat(_) => "gat",
            GnnLayer::Gin(_) => "gin",
            GnnLayer::GeniePath(_) => "geniepath",
        }
    }
}

#[cfg(test)]
impl NeighborAggregate {
    /// The aggregate of row `v`'s raw in-edges over the embeddings `h`,
    /// folded in CSR order.
    pub(crate) fn of_row(raw: &Csr, h: &Matrix, v: usize) -> Self {
        let mut agg = Self::empty(h.cols());
        let (srcs, ws) = raw.row(v);
        for (&s, &w) in srcs.iter().zip(ws) {
            agg.n += 1;
            agg.total_w += w;
            for (a, &x) in agg.acc.iter_mut().zip(h.row(s as usize)) {
                *a += w * x;
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::Coo;

    fn raw() -> Csr {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 5.0);
        coo.into_csr()
    }

    #[test]
    fn mean_with_self_loops_is_row_stochastic() {
        let p = prepare_adj(&raw(), AdjPrep::MeanWithSelfLoops);
        for r in 0..3 {
            let (_, vals) = p.row(r);
            let s: f32 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
        // row 0: self weight 1 / (2+2+1)
        let d = p.to_dense();
        assert!((d[(0, 0)] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn mean_no_self_keeps_empty_rows_empty() {
        let p = prepare_adj(&raw(), AdjPrep::MeanNoSelf);
        assert_eq!(p.row_nnz(1), 0);
        let (_, vals) = p.row(0);
        assert!((vals.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn struct_prep_preserves_weights_and_adds_diagonal() {
        let p = prepare_adj(&raw(), AdjPrep::StructWithSelfLoops);
        let d = p.to_dense();
        assert_eq!(d[(2, 0)], 5.0);
        for i in 0..3 {
            assert_eq!(d[(i, i)], 1.0);
        }
    }
}
