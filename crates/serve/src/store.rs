//! The sharded, read-optimised embedding store.
//!
//! Layout: node vectors are hash-sharded by FNV-1a over the node id (the
//! same routing the MapReduce shuffle uses, so a store shard corresponds
//! to a stable partition of any upstream reduce output). Each shard is an
//! immutable [`ShardSlab`]: one contiguous `Vec<f32>` holding every vector
//! back-to-back plus a compact, id-sorted offset index. Point reads binary
//! search the index and hand out a zero-copy `&[f32]` into the slab.
//!
//! Writers never mutate a slab in place. An update builds a replacement
//! slab off to the side and swaps the shard's `Arc` under a write lock
//! (see CONCURRENCY.md "Serving slab swap"); readers that cloned the old
//! `Arc` keep a consistent snapshot until they drop it.

use crate::ServeConfig;
use agl_graph::NodeId;
use agl_infer::InferOutput;
use agl_mapreduce::hash::fnv1a;
use std::sync::{Arc, PoisonError, RwLock};

/// Route a node id to its shard — FNV-1a over the little-endian id bytes,
/// exactly like the MapReduce shuffle routes reduce keys.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    (fnv1a(&node.0.to_le_bytes()) % shards as u64) as usize
}

/// One immutable shard: all vectors in a single slab, plus an id-sorted
/// `(node, offset)` index. `offset` counts floats, not bytes.
#[derive(Debug, Clone, Default)]
pub struct ShardSlab {
    /// Sorted by node id; `u32` offsets keep the index at 12 bytes/node.
    index: Vec<(u64, u32)>,
    data: Vec<f32>,
    dim: usize,
}

impl ShardSlab {
    /// Build from `(node, vector)` pairs (any order; sorted internally; for
    /// a repeated id the last pair wins).
    pub fn build(entries: Vec<(u64, Vec<f32>)>, dim: usize) -> Self {
        Self { index: Vec::new(), data: Vec::new(), dim }.overlay(entries)
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Zero-copy read of one vector.
    pub fn get(&self, node: NodeId) -> Option<&[f32]> {
        let i = self.index.binary_search_by_key(&node.0, |(id, _)| *id).ok()?;
        let off = self.index[i].1 as usize;
        Some(&self.data[off..off + self.dim])
    }

    /// A copy of this slab with `patches` overlaid: one merge of the sorted
    /// index with the patches (sorted here by id; for a repeated id the
    /// last patch wins), copying straight into the new slab's index and
    /// data — no per-row allocation.
    fn overlay(&self, mut patches: Vec<(u64, Vec<f32>)>) -> Self {
        patches.sort_by_key(|(id, _)| *id);
        let mut index = Vec::with_capacity(self.index.len() + patches.len());
        let mut data = Vec::with_capacity(self.data.len() + patches.len() * self.dim);
        let mut push = |index: &mut Vec<(u64, u32)>, id: u64, v: &[f32]| {
            assert_eq!(v.len(), self.dim, "node {id}: vector dim {} != store dim {}", v.len(), self.dim);
            // >4G floats in one shard is out of scope for the in-memory store.
            let off = u32::try_from(data.len()).expect("shard slab exceeds u32 float offsets");
            index.push((id, off));
            data.extend_from_slice(v);
        };
        let mut old = self.iter().peekable();
        let mut new = patches.iter().peekable();
        while let Some((id, v)) = new.next() {
            if new.peek().is_some_and(|(next, _)| next == id) {
                continue;
            }
            while let Some((node, row)) = old.next_if(|(node, _)| node.0 < *id) {
                push(&mut index, node.0, row);
            }
            old.next_if(|(node, _)| node.0 == *id);
            push(&mut index, *id, v);
        }
        for (node, row) in old {
            push(&mut index, node.0, row);
        }
        Self { index, data, dim: self.dim }
    }

    /// Iterate `(node, vector)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[f32])> {
        self.index.iter().map(move |&(id, off)| (NodeId(id), &self.data[off as usize..off as usize + self.dim]))
    }

    /// Exact brute-force top-k of this shard by dot product against
    /// `query`, excluding `exclude`. Candidates are ordered by
    /// (score desc, node id asc) — a total order, so the cross-shard merge
    /// is bit-identical to a global scan.
    fn topk_into(&self, query: &[f32], exclude: Option<NodeId>, out: &mut Vec<(f32, u64)>) {
        for (node, v) in self.iter() {
            if exclude == Some(node) {
                continue;
            }
            let score: f32 = v.iter().zip(query).map(|(a, b)| a * b).sum();
            out.push((score, node.0));
        }
    }
}

/// A zero-copy view of one stored vector: holds the shard snapshot alive
/// and derefs to the `&[f32]` inside it.
#[derive(Debug, Clone)]
pub struct EmbeddingRef {
    slab: Arc<ShardSlab>,
    offset: usize,
}

impl std::ops::Deref for EmbeddingRef {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.slab.data[self.offset..self.offset + self.slab.dim]
    }
}

/// One ranked neighbor from a top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    pub node: NodeId,
    pub score: f32,
}

/// The sharded store. Cheap to share (`Arc` it or hand out `&`); reads
/// take a shard read lock only long enough to clone the slab `Arc`.
#[derive(Debug)]
pub struct EmbeddingStore {
    shards: Vec<RwLock<Arc<ShardSlab>>>,
    dim: usize,
}

impl EmbeddingStore {
    /// Build from a GraphInfer score output: each node's probability vector
    /// becomes its stored vector.
    pub fn build(output: &InferOutput, cfg: &ServeConfig) -> Self {
        Self::from_vectors(output.scores.iter().map(|s| (s.node, s.probs.clone())), cfg)
    }

    /// Build from raw `(node, vector)` pairs.
    pub fn from_vectors(vectors: impl IntoIterator<Item = (NodeId, Vec<f32>)>, cfg: &ServeConfig) -> Self {
        let shards = cfg.shards.max(1);
        let mut buckets: Vec<Vec<(u64, Vec<f32>)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut dim = 0usize;
        for (node, v) in vectors {
            dim = v.len();
            buckets[shard_of(node, shards)].push((node.0, v));
        }
        let store = Self {
            shards: buckets.into_iter().map(|b| RwLock::new(Arc::new(ShardSlab::build(b, dim)))).collect(),
            dim,
        };
        store.publish_occupancy(&cfg.engine.obs);
        store
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total stored vectors.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.snapshot_of(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn snapshot_of(&self, shard: &RwLock<Arc<ShardSlab>>) -> Arc<ShardSlab> {
        // A guard is only ever held across an `Arc` clone or swap, so a
        // poisoned lock still holds a whole slab: serve it.
        shard.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Snapshot one shard (readers keep it consistent across a swap).
    pub fn shard(&self, i: usize) -> Arc<ShardSlab> {
        self.snapshot_of(&self.shards[i])
    }

    /// Point lookup, zero-copy: the returned ref derefs to `&[f32]`.
    pub fn get(&self, node: NodeId) -> Option<EmbeddingRef> {
        let slab = self.shard(shard_of(node, self.shards.len()));
        let i = slab.index.binary_search_by_key(&node.0, |(id, _)| *id).ok()?;
        let offset = slab.index[i].1 as usize;
        Some(EmbeddingRef { slab, offset })
    }

    /// Exact top-k nearest neighbors of an arbitrary query vector by dot
    /// product: brute-force per shard, merged across shards. Ties broken
    /// by node id ascending, so the result is independent of shard count.
    pub fn topk(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.topk_impl(query, k, None)
    }

    /// Top-k neighbors of a *stored* node (the node itself excluded).
    pub fn topk_neighbors(&self, node: NodeId, k: usize) -> Option<Vec<Neighbor>> {
        let q = self.get(node)?;
        Some(self.topk_impl(&q, k, Some(node)))
    }

    fn topk_impl(&self, query: &[f32], k: usize, exclude: Option<NodeId>) -> Vec<Neighbor> {
        let mut candidates = Vec::new();
        for shard in &self.shards {
            let slab = self.snapshot_of(shard);
            // Per-shard brute force; keep only each shard's top-k before
            // the merge — the global top-k is a subset of the per-shard
            // top-k sets.
            let start = candidates.len();
            slab.topk_into(query, exclude, &mut candidates);
            let shard_slice = &mut candidates[start..];
            shard_slice.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let keep = k.min(shard_slice.len());
            candidates.truncate(start + keep);
        }
        candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates.truncate(k);
        candidates.into_iter().map(|(score, id)| Neighbor { node: NodeId(id), score }).collect()
    }

    /// Replace the vectors of `patched` nodes (inserting new ids) by
    /// rebuilding only the affected shards and swapping each slab `Arc`
    /// atomically. Readers either see the whole old slab or the whole new
    /// one — never a torn shard.
    pub fn patch(&self, patched: impl IntoIterator<Item = (NodeId, Vec<f32>)>) {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<(u64, Vec<f32>)>> = (0..n).map(|_| Vec::new()).collect();
        for (node, v) in patched {
            buckets[shard_of(node, n)].push((node.0, v));
        }
        for (i, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Build the replacement outside the lock: start from the old
            // snapshot, overlay the patches, then swap under the write
            // lock. `patch` callers are serialised by the updater, so the
            // read-then-swap window cannot lose concurrent patches.
            let fresh = Arc::new(self.shard(i).overlay(bucket));
            // A poisoned lock still holds a whole slab (see `snapshot_of`).
            *self.shards[i].write().unwrap_or_else(PoisonError::into_inner) = fresh;
        }
    }

    /// Report per-shard occupancy gauges (`serve.shard<i>.nodes`) into an
    /// obs handle's metrics registry.
    pub fn publish_occupancy(&self, obs: &agl_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (i, shard) in self.shards.iter().enumerate() {
            obs.gauge_set(&format!("serve.shard{i}.nodes"), self.snapshot_of(shard).len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> ServeConfig {
        ServeConfig { shards, ..ServeConfig::default() }
    }

    fn vectors(n: u64, dim: usize) -> Vec<(NodeId, Vec<f32>)> {
        (0..n).map(|i| (NodeId(i), (0..dim).map(|d| ((i + d as u64) % 7) as f32 - 3.0).collect())).collect()
    }

    #[test]
    fn point_lookup_roundtrips_zero_copy() {
        let store = EmbeddingStore::from_vectors(vectors(100, 8), &cfg(4));
        assert_eq!(store.len(), 100);
        for (id, v) in vectors(100, 8) {
            let got = store.get(id).unwrap();
            assert_eq!(&*got, v.as_slice());
        }
        assert!(store.get(NodeId(100)).is_none());
    }

    /// The pinned contract: exact top-k, bit-identical to a naive global
    /// scan, for every shard count.
    #[test]
    fn topk_matches_naive_scan_across_shard_counts() {
        let vecs = vectors(257, 6);
        let query: Vec<f32> = vec![0.3, -1.0, 2.0, 0.0, 1.5, -0.2];
        let mut naive: Vec<(f32, u64)> =
            vecs.iter().map(|(id, v)| (v.iter().zip(&query).map(|(a, b)| a * b).sum::<f32>(), id.0)).collect();
        naive.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        naive.truncate(8);
        for shards in [1, 2, 4] {
            let store = EmbeddingStore::from_vectors(vecs.clone(), &cfg(shards));
            let got: Vec<(f32, u64)> = store.topk(&query, 8).into_iter().map(|n| (n.score, n.node.0)).collect();
            assert_eq!(got, naive, "shards={shards}");
        }
    }

    #[test]
    fn topk_neighbors_excludes_self() {
        let store = EmbeddingStore::from_vectors(vectors(50, 4), &cfg(2));
        let nb = store.topk_neighbors(NodeId(3), 5).unwrap();
        assert_eq!(nb.len(), 5);
        assert!(nb.iter().all(|n| n.node != NodeId(3)));
    }

    /// A writer that panics while holding a shard's write guard poisons the
    /// lock but leaves its slab whole: reads and patches go on.
    #[test]
    fn poisoned_shard_lock_still_serves_and_patches() {
        let store = EmbeddingStore::from_vectors(vectors(40, 4), &cfg(2));
        for shard in &store.shards {
            let died = std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = shard.write().unwrap();
                    panic!("writer dies holding the guard");
                })
                .join()
            });
            assert!(died.is_err() && shard.is_poisoned());
        }
        assert_eq!(store.len(), 40);
        store.patch([(NodeId(3), vec![9.0; 4])]);
        assert_eq!(&*store.get(NodeId(3)).unwrap(), &[9.0; 4]);
        assert_eq!(&*store.get(NodeId(4)).unwrap(), vectors(40, 4)[4].1.as_slice());
    }

    #[test]
    fn patch_swaps_only_dirty_shards_and_preserves_rest() {
        let store = EmbeddingStore::from_vectors(vectors(40, 4), &cfg(4));
        let before: Vec<Arc<ShardSlab>> = (0..4).map(|i| store.shard(i)).collect();
        let target = NodeId(11);
        store.patch([(target, vec![9.0, 9.0, 9.0, 9.0])]);
        assert_eq!(&*store.get(target).unwrap(), &[9.0, 9.0, 9.0, 9.0]);
        let dirty = shard_of(target, 4);
        for (i, slab) in before.iter().enumerate() {
            let same = Arc::ptr_eq(slab, &store.shard(i));
            assert_eq!(same, i != dirty, "shard {i}");
        }
        // Old snapshots stay readable (consistent view across the swap).
        assert_ne!(before[dirty].get(target).unwrap(), &[9.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn patch_inserts_new_nodes() {
        let store = EmbeddingStore::from_vectors(vectors(10, 3), &cfg(2));
        store.patch([(NodeId(77), vec![1.0, 2.0, 3.0])]);
        assert_eq!(store.len(), 11);
        assert_eq!(&*store.get(NodeId(77)).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn patch_merges_replacements_and_inserts_in_id_order() {
        let store = EmbeddingStore::from_vectors((1..20).step_by(2).map(|i| (NodeId(i), vec![i as f32])), &cfg(1));
        // Inserts before, between and after the stored ids; a replacement;
        // a repeated id whose last patch must win.
        store.patch([
            (NodeId(30), vec![-30.0]),
            (NodeId(0), vec![-0.5]),
            (NodeId(7), vec![-7.0]),
            (NodeId(8), vec![-8.0]),
            (NodeId(7), vec![-70.0]),
        ]);
        let got: Vec<(u64, f32)> = store.shard(0).iter().map(|(id, v)| (id.0, v[0])).collect();
        let mut want: Vec<(u64, f32)> = (1..20).step_by(2).map(|i| (i, i as f32)).collect();
        want.retain(|(id, _)| *id != 7);
        want.extend([(0, -0.5), (7, -70.0), (8, -8.0), (30, -30.0)]);
        want.sort_by_key(|(id, _)| *id);
        assert_eq!(got, want);
    }

    #[test]
    fn occupancy_gauges_cover_every_shard() {
        let obs = agl_obs::Obs::enabled_logical();
        let c = ServeConfig { shards: 3, ..ServeConfig::default() }.with_obs(obs.clone());
        let store = EmbeddingStore::from_vectors(vectors(30, 2), &c);
        let m = obs.metrics().unwrap();
        let total: u64 = (0..3).map(|i| m.get(&format!("serve.shard{i}.nodes"))).sum();
        assert_eq!(total, 30);
        assert_eq!(store.n_shards(), 3);
    }
}
