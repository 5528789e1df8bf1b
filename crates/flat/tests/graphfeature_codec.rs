//! The GraphFeature merge path under adversarial and exact-value inputs:
//! hostile bytes against `decode_graph_feature`, bit-exact float rows
//! through decode → `SubgraphBuilder` → encode, and merge-order
//! independence of the id-hashed builder against an ordered reference.
//!
//! The hostile sweeps run on encodings of at most 200 bytes so that every
//! bit flip of every sample decodes well under a second in a debug build.

use agl_flat::builder::SubgraphBuilder;
use agl_flat::{decode_graph_feature, encode_graph_feature};
use agl_graph::{NodeId, SubEdge, Subgraph};
use agl_tensor::{seeded_rng, Matrix, Rng, SliceRandom, SmallRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Records the largest single allocation request made on each thread, so a
/// test can check that decoding never sized a buffer from an unchecked count.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only reads the requested size and touches a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::alloc_zeroed`'s contract, forwarded below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract, forwarded below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's `realloc` contract is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Decode `bytes`, requiring an `Err` or a valid subgraph, and no single
/// allocation larger than the input could justify: every decoded structure
/// holds at most a few times the bytes that describe it.
fn decode_checked(bytes: &[u8], case: &str) -> Option<Subgraph> {
    LARGEST.with(|l| l.set(0));
    let res = decode_graph_feature(bytes);
    let largest = LARGEST.with(Cell::get);
    let bound = 16 * bytes.len() + 1024;
    assert!(largest <= bound, "{case}: allocated {largest} bytes decoding {} input bytes", bytes.len());
    match res {
        Ok(sub) => {
            if let Err(e) = sub.validate() {
                panic!("{case}: decoded an invalid subgraph: {e}");
            }
            Some(sub)
        }
        Err(_) => None,
    }
}

/// A random valid subgraph of 2–4 nodes and 1–3 edges, small enough that
/// its encoding stays within 200 bytes.
fn small_subgraph(rng: &mut SmallRng, with_ef: bool) -> Subgraph {
    let n = rng.gen_range(2..5usize);
    let f_dim = rng.gen_range(1..3usize);
    let node_ids = (0..n).map(|_| NodeId(rng.gen::<u64>() >> rng.gen_range(0..64u32))).collect::<Vec<_>>();
    let n_edges = rng.gen_range(1..4usize);
    let edges: Vec<SubEdge> = (0..n_edges)
        .map(|_| SubEdge {
            src: rng.gen_range(0..n) as u32,
            dst: rng.gen_range(0..n) as u32,
            weight: rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    let features = Matrix::from_vec(n, f_dim, (0..n * f_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
    let edge_features = with_ef.then(|| Matrix::from_vec(n_edges, 1, (0..n_edges).map(|i| i as f32).collect()));
    let mut sub = Subgraph { target_locals: vec![0], node_ids, features, edges, edge_features };
    if sub.validate().is_err() {
        // Two ids drew equal; make them distinct.
        for (i, id) in sub.node_ids.iter_mut().enumerate() {
            id.0 = (id.0 & !0xF) | i as u64;
        }
    }
    sub
}

/// Byte offsets of the five count fields of an encoding of `sub`:
/// `n_targets`, `n_nodes`, `f_dim`, `n_edges`, `ef_dim`.
fn count_offsets(sub: &Subgraph) -> [(&'static str, usize); 5] {
    let n_nodes_at = 4 + 8 * sub.target_locals.len();
    let n_edges_at = n_nodes_at + 8 + sub.n_nodes() * (8 + 4 * sub.features.cols());
    [
        ("n_targets", 0),
        ("n_nodes", n_nodes_at),
        ("f_dim", n_nodes_at + 4),
        ("n_edges", n_edges_at),
        ("ef_dim", n_edges_at + 4),
    ]
}

fn samples() -> Vec<Subgraph> {
    let mut rng = seeded_rng(0x6F_0101);
    (0..6).map(|i| small_subgraph(&mut rng, i % 2 == 1)).collect()
}

#[test]
fn samples_are_small_valid_encodings() {
    for sub in samples() {
        let bytes = encode_graph_feature(&sub);
        assert!(bytes.len() <= 200, "{} bytes", bytes.len());
        assert_eq!(decode_checked(&bytes, "intact"), Some(sub));
    }
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for (s, sub) in samples().iter().enumerate() {
        let bytes = encode_graph_feature(sub);
        for cut in 0..bytes.len() {
            let got = decode_checked(&bytes[..cut], &format!("sample {s} cut at {cut}"));
            assert!(got.is_none(), "sample {s}: a {cut}-byte prefix decoded");
        }
    }
}

#[test]
fn every_bit_flip_is_an_error_or_a_valid_subgraph() {
    for (s, sub) in samples().iter().enumerate() {
        let bytes = encode_graph_feature(sub);
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_checked(&flipped, &format!("sample {s} bit {bit}"));
        }
    }
}

#[test]
fn every_count_field_at_u32_max_is_an_error() {
    for (s, sub) in samples().iter().enumerate() {
        let bytes = encode_graph_feature(sub);
        for (field, at) in count_offsets(sub) {
            assert_eq!(&bytes[at..at + 4], &count_value(sub, field).to_le_bytes(), "{field} offset");
            let mut inflated = bytes.clone();
            inflated[at..at + 4].fill(0xFF);
            let got = decode_checked(&inflated, &format!("sample {s} {field} = u32::MAX"));
            assert!(got.is_none(), "sample {s}: {field} = u32::MAX decoded");
        }
    }
}

fn count_value(sub: &Subgraph, field: &str) -> u32 {
    (match field {
        "n_targets" => sub.target_locals.len(),
        "n_nodes" => sub.n_nodes(),
        "f_dim" => sub.features.cols(),
        "n_edges" => sub.n_edges(),
        _ => sub.edge_features.as_ref().map_or(0, Matrix::cols),
    }) as u32
}

/// Floats whose bits a value-level codec could lose: signed zero, a NaN
/// with a payload (quiet and signalling), subnormals and both infinities.
fn awkward_floats() -> [f32; 8] {
    [
        -0.0,
        f32::from_bits(0x7FC0_1234),
        f32::from_bits(0xFF80_0001),
        f32::from_bits(0x0000_0001),
        -f32::from_bits(0x007F_FFFF),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
    ]
}

#[test]
fn awkward_floats_survive_decode_merge_encode_bit_for_bit() {
    let v = awkward_floats();
    // Already in builder order: target first, the rest by ascending id,
    // edges by (dst, src) id — so the rebuilt encoding must equal the input.
    let sub = Subgraph {
        target_locals: vec![0],
        node_ids: vec![NodeId(50), NodeId(3), NodeId(7), NodeId(9)],
        features: Matrix::from_vec(4, 2, v.to_vec()),
        edges: vec![
            SubEdge { src: 2, dst: 1, weight: v[5] },
            SubEdge { src: 3, dst: 2, weight: v[2] },
            SubEdge { src: 1, dst: 3, weight: v[6] },
            SubEdge { src: 1, dst: 0, weight: v[1] },
            SubEdge { src: 2, dst: 0, weight: v[0] },
            SubEdge { src: 3, dst: 0, weight: v[3] },
        ],
        edge_features: Some(Matrix::from_vec(6, 3, (0..18).map(|i| v[(i * 3) % 8]).collect())),
    };
    let bytes = encode_graph_feature(&sub);
    let decoded = decode_graph_feature(&bytes).unwrap();
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&decoded.features), bits(&sub.features));
    assert_eq!(
        decoded.edges.iter().map(|e| e.weight.to_bits()).collect::<Vec<_>>(),
        sub.edges.iter().map(|e| e.weight.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(bits(decoded.edge_features.as_ref().unwrap()), bits(sub.edge_features.as_ref().unwrap()));
    let mut b = SubgraphBuilder::new();
    b.absorb(&decoded);
    b.absorb(&decoded);
    assert_eq!(encode_graph_feature(&b.build(&[NodeId(50)])), bytes);
}

/// One consistent universe: every node id has one feature row and every
/// directed pair one weight and edge-feature row, as GraphFlat guarantees.
struct Universe {
    node_feat: BTreeMap<u64, Vec<f32>>,
    edge_val: BTreeMap<(u64, u64), (f32, Vec<f32>)>,
}

impl Universe {
    fn new(rng: &mut SmallRng, n: u64) -> Self {
        let ids: Vec<u64> = (0..n).map(|i| i * 7919 + rng.gen_range(0..7000u64)).collect();
        let node_feat = ids.iter().map(|&id| (id, vec![rng.gen_range(-1.0f32..1.0), id as f32])).collect();
        let mut edge_val = BTreeMap::new();
        for _ in 0..4 * n {
            let (s, d) = (ids[rng.gen_range(0..n as usize)], ids[rng.gen_range(0..n as usize)]);
            edge_val.insert((s, d), (rng.gen_range(0.0f32..1.0), vec![rng.gen_range(-1.0f32..1.0)]));
        }
        Self { node_feat, edge_val }
    }

    /// A subgraph over a random subset of the universe, in a random local
    /// order, holding every universe edge among its nodes with probability ½.
    fn subgraph(&self, rng: &mut SmallRng) -> Subgraph {
        let mut ids: Vec<u64> = self.node_feat.keys().copied().filter(|_| rng.gen_bool(0.4)).collect();
        if ids.is_empty() {
            ids.push(*self.node_feat.keys().next().unwrap());
        }
        ids.shuffle(rng);
        let local = |id: u64| ids.iter().position(|&x| x == id).map(|l| l as u32);
        let mut edges = Vec::new();
        let mut ef = Vec::new();
        for (&(s, d), (w, f)) in &self.edge_val {
            if let (Some(src), Some(dst)) = (local(s), local(d)) {
                if rng.gen_bool(0.5) {
                    edges.push(SubEdge { src, dst, weight: *w });
                    ef.extend_from_slice(f);
                }
            }
        }
        let n_edges = edges.len();
        let features = Matrix::from_vec(ids.len(), 2, ids.iter().flat_map(|id| self.node_feat[id].clone()).collect());
        Subgraph {
            target_locals: vec![0],
            node_ids: ids.into_iter().map(NodeId).collect(),
            features,
            edges,
            edge_features: Some(Matrix::from_vec(n_edges, 1, ef)),
        }
    }
}

/// The merge written against ordered maps: union of nodes and edges by id,
/// targets first, the rest by ascending id, edges by (dst, src) id.
fn reference_merge(subs: &[Subgraph], targets: &[NodeId]) -> Subgraph {
    let mut nodes: BTreeMap<NodeId, Vec<f32>> = BTreeMap::new();
    let mut edges: BTreeMap<(NodeId, NodeId), (f32, Vec<f32>)> = BTreeMap::new();
    for s in subs {
        for (l, &id) in s.node_ids.iter().enumerate() {
            nodes.entry(id).or_insert_with(|| s.features.row(l).to_vec());
        }
        for (i, e) in s.edges.iter().enumerate() {
            let key = (s.node_ids[e.dst as usize], s.node_ids[e.src as usize]);
            let ef = s.edge_features.as_ref().unwrap().row(i).to_vec();
            edges.entry(key).or_insert((e.weight, ef));
        }
    }
    let mut order: Vec<NodeId> = targets.to_vec();
    order.extend(nodes.keys().filter(|id| !targets.contains(id)));
    let local = |id: NodeId| order.iter().position(|&x| x == id).unwrap() as u32;
    Subgraph {
        target_locals: (0..targets.len() as u32).collect(),
        features: Matrix::from_vec(order.len(), 2, order.iter().flat_map(|id| nodes[id].clone()).collect()),
        edges: edges.iter().map(|(&(d, s), &(weight, _))| SubEdge { src: local(s), dst: local(d), weight }).collect(),
        edge_features: Some(Matrix::from_vec(edges.len(), 1, edges.values().flat_map(|(_, f)| f.clone()).collect())),
        node_ids: order,
    }
}

#[test]
fn prop_merge_is_order_independent_and_matches_ordered_reference() {
    let mut rng = seeded_rng(0x6F_0102);
    for case in 0..24 {
        let n = rng.gen_range(3..24u64);
        let universe = Universe::new(&mut rng, n);
        let subs: Vec<Subgraph> = (0..rng.gen_range(1..6usize)).map(|_| universe.subgraph(&mut rng)).collect();
        // Targets in an order the builder must keep: descending id.
        let mut targets: Vec<NodeId> = subs.iter().map(|s| s.node_ids[0]).collect();
        targets.sort_unstable_by_key(|t| std::cmp::Reverse(t.0));
        targets.dedup();
        let want = encode_graph_feature(&reference_merge(&subs, &targets));
        let mut order: Vec<usize> = (0..subs.len()).collect();
        for shuffle in 0..6 {
            order.shuffle(&mut rng);
            let mut b = SubgraphBuilder::new();
            for &i in &order {
                b.absorb(&subs[i]);
            }
            let got = encode_graph_feature(&b.build(&targets));
            assert!(got == want, "case {case}, shuffle {shuffle} (order {order:?}) differs from the reference");
        }
    }
}
