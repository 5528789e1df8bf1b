//! Shuffle-combiner support for streaming GAS inference.
//!
//! High-degree nodes are the scalability hazard of full-graph inference: a
//! hub with a million in-edges receives a million [`InferMsg::InEmb`]
//! messages per layer. Because GCN/SAGE/GIN aggregation decomposes into a
//! running `(n, Σw, Σw·h)` fold ([`agl_nn::CombineKind`]), those messages
//! can be *partially aggregated before crossing the wire* — the classic
//! MapReduce combiner, applied to graph learning (the InferTurbo idea).
//!
//! **Exactness.** Floating-point addition is not associative, so a naive
//! combiner would change result bits depending on which messages it
//! happened to fold. We make combining exact by construction:
//!
//! 1. Every in-edge message `src → dst` is assigned a **segment**
//!    `partition(src, r_parts)` — exactly the reduce partition of the
//!    *producer* that emitted it. All of a segment's messages for `dst`
//!    therefore sit in one producer out-bucket, which a combiner owns
//!    entirely: it can fold a whole segment or leave it alone, never half.
//! 2. Within a segment, messages are sorted canonically (by `src`, then
//!    weight bits, then embedding bits) before folding — see
//!    [`fold_in_embs`].
//! 3. The consuming reducer *always* computes this same two-level fold
//!    (segments folded canonically, partials merged in ascending segment
//!    order via [`finish`]), whether a segment arrives as raw messages or
//!    as a pre-folded [`InferMsg::Partial`].
//!
//! The degree threshold therefore only changes *where* a segment is folded,
//! never the folded bits: combiner-on, combiner-off, streamed, materialized
//! and distributed GAS runs are all bit-identical.

use crate::messages::InferMsg;
use agl_mapreduce::hash::partition;
use agl_mapreduce::{Codec, ShuffleCombiner};
use agl_nn::{CombineKind, ModelSlice, NeighborAggregate};

/// One segment's partial aggregate of in-edge messages: `n` edges folded,
/// their total weight, and the elementwise accumulator (`Σ w·h` for
/// sum/mean, elementwise `max(w·h)` for max).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAgg {
    /// Producer reduce partition that owns the folded messages.
    pub segment: u32,
    /// Number of in-edges folded.
    pub n: u32,
    /// Sum of the folded edge weights.
    pub total_w: f32,
    /// Elementwise accumulator, length = embedding dim.
    pub acc: Vec<f32>,
}

impl PartialAgg {
    /// The wire form of this partial.
    pub fn into_msg(self) -> InferMsg {
        InferMsg::Partial { segment: self.segment, n: self.n, total_w: self.total_w, acc: self.acc }
    }
}

/// The segment an in-edge message from `src` belongs to: the reduce
/// partition of the producer that emitted it.
pub fn segment_of(src: u64, r_parts: usize) -> u32 {
    partition(&src.to_le_bytes(), r_parts) as u32
}

fn fold_step(kind: CombineKind, p: &mut PartialAgg, w: f32, h: &[f32]) {
    p.n += 1;
    p.total_w += w;
    match kind {
        CombineKind::Sum | CombineKind::Mean => {
            for (a, &x) in p.acc.iter_mut().zip(h) {
                *a += w * x;
            }
        }
        CombineKind::Max => {
            for (a, &x) in p.acc.iter_mut().zip(h) {
                *a = a.max(w * x);
            }
        }
    }
}

/// Fold raw in-edge messages `(src, weight, h)` into one [`PartialAgg`] per
/// segment, returned in ascending segment order.
///
/// The fold order is canonical — `(segment, src, weight bits, h bits)` — so
/// the result is invariant under any permutation of `items`. This is the
/// single fold every GAS path uses, which is what makes partial aggregation
/// exact.
pub fn fold_in_embs(kind: CombineKind, r_parts: usize, items: Vec<(u64, f32, Vec<f32>)>) -> Vec<PartialAgg> {
    let mut tagged: Vec<(u32, u64, f32, Vec<f32>)> =
        items.into_iter().map(|(src, w, h)| (segment_of(src, r_parts), src, w, h)).collect();
    tagged.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.total_cmp(&b.2))
            .then_with(|| a.3.iter().map(|f| f.to_bits()).cmp(b.3.iter().map(|f| f.to_bits())))
    });
    let mut out: Vec<PartialAgg> = Vec::new();
    for (seg, _src, w, h) in tagged {
        match out.last_mut() {
            Some(p) if p.segment == seg => fold_step(kind, p, w, &h),
            _ => {
                let mut p = PartialAgg { segment: seg, n: 0, total_w: 0.0, acc: vec![0.0; h.len()] };
                if kind == CombineKind::Max {
                    // max has no additive identity: seed with the first term.
                    p.n = 1;
                    p.total_w = w;
                    p.acc = h.iter().map(|&x| w * x).collect();
                } else {
                    fold_step(kind, &mut p, w, &h);
                }
                out.push(p);
            }
        }
    }
    out
}

fn merge_pair(kind: CombineKind, dst: &mut PartialAgg, src: &PartialAgg) {
    dst.n += src.n;
    dst.total_w += src.total_w;
    match kind {
        CombineKind::Sum | CombineKind::Mean => {
            for (a, &x) in dst.acc.iter_mut().zip(&src.acc) {
                *a += x;
            }
        }
        CombineKind::Max => {
            for (a, &x) in dst.acc.iter_mut().zip(&src.acc) {
                *a = a.max(x);
            }
        }
    }
}

/// Sort partials by ascending segment and merge duplicates (stable, so
/// callers that list locally-folded partials before received ones get a
/// deterministic merge even in the never-expected duplicate case).
pub fn merge_partials(kind: CombineKind, mut partials: Vec<PartialAgg>) -> Vec<PartialAgg> {
    partials.sort_by_key(|p| p.segment);
    let mut out: Vec<PartialAgg> = Vec::new();
    for p in partials {
        match out.last_mut() {
            Some(d) if d.segment == p.segment => merge_pair(kind, d, &p),
            _ => out.push(p),
        }
    }
    out
}

/// Merge partials in ascending segment order into the final
/// [`NeighborAggregate`] a layer's `forward_node_combined` consumes.
pub fn finish(kind: CombineKind, partials: Vec<PartialAgg>, dim: usize) -> NeighborAggregate {
    let mut agg = NeighborAggregate::empty(dim);
    let mut started = false;
    for p in merge_partials(kind, partials) {
        debug_assert_eq!(p.acc.len(), dim);
        agg.n += u64::from(p.n);
        agg.total_w += p.total_w;
        match kind {
            CombineKind::Sum | CombineKind::Mean => {
                for (a, &x) in agg.acc.iter_mut().zip(&p.acc) {
                    *a += x;
                }
            }
            CombineKind::Max if !started => agg.acc.copy_from_slice(&p.acc),
            CombineKind::Max => {
                for (a, &x) in agg.acc.iter_mut().zip(&p.acc) {
                    *a = a.max(x);
                }
            }
        }
        started = true;
    }
    agg
}

/// The per-layer combine kinds of a segmented model, or `None` if any layer
/// is attention-based (GAT / GeniePath keep raw neighbor embeddings, so
/// their aggregation does not decompose).
pub fn combine_kinds(slices: &[ModelSlice]) -> Option<Vec<CombineKind>> {
    let kinds: Vec<CombineKind> = slices
        .iter()
        .filter_map(|s| match s {
            ModelSlice::Gnn(layer) => Some(layer.combine_kind()),
            ModelSlice::Prediction(..) => None,
        })
        .collect::<Option<Vec<_>>>()?;
    if kinds.is_empty() {
        return None;
    }
    Some(kinds)
}

/// The shuffle combiner of the GAS inference pipeline: for reduce rounds
/// `1..=K` it folds each key's in-edge messages into one
/// [`InferMsg::Partial`] per segment, gated by a bucket-local degree
/// threshold. Other message kinds pass through untouched, in order.
pub struct InferCombiner {
    kinds: Vec<CombineKind>,
    degree_threshold: usize,
    r_parts: usize,
}

impl InferCombiner {
    /// Build from explicit per-layer kinds. `kinds.len()` is the number of
    /// GNN layers K; rounds outside `1..=K` are never combined.
    pub fn new(kinds: Vec<CombineKind>, degree_threshold: usize, r_parts: usize) -> Self {
        assert!(!kinds.is_empty(), "combiner needs at least one layer kind");
        assert!(r_parts > 0, "r_parts must be positive");
        Self { kinds, degree_threshold, r_parts }
    }

    /// Build from a segmented model, or `None` when the model's aggregation
    /// does not decompose (attention layers).
    pub fn for_slices(slices: &[ModelSlice], degree_threshold: usize, r_parts: usize) -> Option<Self> {
        combine_kinds(slices).map(|kinds| Self::new(kinds, degree_threshold, r_parts))
    }
}

impl ShuffleCombiner for InferCombiner {
    fn combines(&self, round: usize, _key: &[u8], n_values: usize) -> bool {
        round >= 1 && round <= self.kinds.len() && n_values >= self.degree_threshold
    }

    fn combine(&self, round: usize, _key: &[u8], values: &mut Vec<Vec<u8>>) {
        let kind = self.kinds[round - 1];
        let mut keep: Vec<Vec<u8>> = Vec::new();
        let mut raw: Vec<(u64, f32, Vec<f32>)> = Vec::new();
        let mut received: Vec<PartialAgg> = Vec::new();
        for v in values.drain(..) {
            match InferMsg::from_bytes(&v) {
                Ok(InferMsg::InEmb { src, weight, h }) => raw.push((src, weight, h)),
                Ok(InferMsg::Partial { segment, n, total_w, acc }) => {
                    received.push(PartialAgg { segment, n, total_w, acc });
                }
                // Non-aggregable (or undecodable — the reducer will report
                // it) messages pass through in their original order.
                _ => keep.push(v),
            }
        }
        let mut partials = fold_in_embs(kind, self.r_parts, raw);
        partials.extend(received);
        *values = keep;
        for p in merge_partials(kind, partials) {
            values.push(p.into_msg().to_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::rng::Rng;
    use agl_tensor::seeded_rng;

    fn items(n: u64, dim: usize, seed: u64) -> Vec<(u64, f32, Vec<f32>)> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|src| {
                let w = rng.gen_range(0.1..2.0f32);
                let h: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                (src, w, h)
            })
            .collect()
    }

    fn shuffled(mut v: Vec<(u64, f32, Vec<f32>)>, seed: u64) -> Vec<(u64, f32, Vec<f32>)> {
        let mut rng = seeded_rng(seed);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    }

    #[test]
    fn fold_is_invariant_under_seeded_permutations() {
        for kind in [CombineKind::Sum, CombineKind::Mean, CombineKind::Max] {
            let base = fold_in_embs(kind, 4, items(40, 3, 7));
            assert!(base.len() > 1, "multiple segments exercised");
            for seed in [1u64, 2, 3, 4, 5] {
                let permuted = fold_in_embs(kind, 4, shuffled(items(40, 3, 7), seed));
                assert_eq!(base, permuted, "{kind:?} fold must not depend on arrival order (seed {seed})");
            }
        }
    }

    #[test]
    fn segment_owned_splits_merge_to_the_direct_fold_bit_for_bit() {
        // The system invariant: a combiner only ever folds *whole* segments
        // (it owns its producer partition). Any split of the input that
        // respects segment ownership must merge back to the direct fold
        // exactly — this is the associativity the wire format relies on.
        for kind in [CombineKind::Sum, CombineKind::Mean, CombineKind::Max] {
            let all = items(60, 4, 21);
            let direct = finish(kind, fold_in_embs(kind, 4, all.clone()), 4);
            // Split by segment parity: segments {0,2} folded eagerly,
            // {1,3} left raw — then merged.
            let (eager, raw): (Vec<_>, Vec<_>) =
                all.into_iter().partition(|(s, _, _)| segment_of(*s, 4).is_multiple_of(2));
            let mut partials = fold_in_embs(kind, 4, eager);
            partials.extend(fold_in_embs(kind, 4, raw));
            let merged = finish(kind, partials, 4);
            assert_eq!(direct.n, merged.n);
            assert_eq!(direct.total_w.to_bits(), merged.total_w.to_bits(), "{kind:?}");
            for (a, b) in direct.acc.iter().zip(&merged.acc) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} accumulator must be bit-identical");
            }
        }
    }

    #[test]
    fn degree_threshold_boundaries() {
        let c = InferCombiner::new(vec![CombineKind::Mean, CombineKind::Mean], 5, 4);
        assert!(!c.combines(1, b"k", 4), "below threshold");
        assert!(c.combines(1, b"k", 5), "at threshold");
        assert!(c.combines(2, b"k", 9), "last layer round combines");
        assert!(!c.combines(0, b"k", 100), "join round never combines");
        assert!(!c.combines(3, b"k", 100), "prediction round never combines");
    }

    #[test]
    fn combine_replaces_in_embs_and_preserves_the_rest_in_order() {
        let c = InferCombiner::new(vec![CombineKind::Sum], 1, 4);
        let self_emb = InferMsg::SelfEmb { h: vec![9.0] }.to_bytes();
        let out_edge = InferMsg::OutEdge { dst: 3, weight: 0.5 }.to_bytes();
        let mut values = vec![
            InferMsg::InEmb { src: 10, weight: 1.0, h: vec![2.0] }.to_bytes(),
            self_emb.clone(),
            InferMsg::InEmb { src: 11, weight: 2.0, h: vec![3.0] }.to_bytes(),
            out_edge.clone(),
        ];
        c.combine(1, b"k", &mut values);
        assert_eq!(values[0], self_emb, "passthrough order preserved");
        assert_eq!(values[1], out_edge);
        let mut total_n = 0u32;
        for v in &values[2..] {
            match InferMsg::from_bytes(v).unwrap() {
                InferMsg::Partial { n, .. } => total_n += n,
                other => panic!("expected only partials after passthrough, got {other:?}"),
            }
        }
        assert_eq!(total_n, 2, "both in-embeddings folded");
    }

    #[test]
    fn combined_values_finish_to_the_raw_fold() {
        // Round-trip through the wire: raw values → combine() → decode →
        // finish must equal finish over the raw fold.
        for kind in [CombineKind::Sum, CombineKind::Mean] {
            let raw = items(32, 3, 33);
            let direct = finish(kind, fold_in_embs(kind, 4, raw.clone()), 3);
            let c = InferCombiner::new(vec![kind], 1, 4);
            let mut values: Vec<Vec<u8>> =
                raw.iter().map(|(s, w, h)| InferMsg::InEmb { src: *s, weight: *w, h: h.clone() }.to_bytes()).collect();
            c.combine(1, b"k", &mut values);
            assert!(values.len() < raw.len(), "combining must shrink the group");
            let partials: Vec<PartialAgg> = values
                .iter()
                .map(|v| match InferMsg::from_bytes(v).unwrap() {
                    InferMsg::Partial { segment, n, total_w, acc } => PartialAgg { segment, n, total_w, acc },
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            let via_wire = finish(kind, partials, 3);
            assert_eq!(direct.n, via_wire.n);
            for (a, b) in direct.acc.iter().zip(&via_wire.acc) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn combine_kinds_rejects_attention_models() {
        use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
        let decomposable = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 3, 4, 2, 2, Loss::SoftmaxCrossEntropy));
        assert_eq!(combine_kinds(&decomposable.segment()), Some(vec![CombineKind::Mean, CombineKind::Mean]));
        let attention =
            GnnModel::new(ModelConfig::new(ModelKind::Gat { heads: 2 }, 3, 4, 2, 2, Loss::SoftmaxCrossEntropy));
        assert_eq!(combine_kinds(&attention.segment()), None);
        assert!(InferCombiner::for_slices(&attention.segment(), 8, 4).is_none());
    }
}
