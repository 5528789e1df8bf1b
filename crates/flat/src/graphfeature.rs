//! The GraphFeature byte format — the flattened k-hop neighborhood.
//!
//! The paper serialises neighborhoods to protobuf strings; we use the
//! repository's length-prefixed binary codec (DESIGN.md documents the
//! substitution). Node ids inside the encoding are *global*; decoding
//! assigns local indices in encoding order, with targets first.

use agl_graph::{IdMap, NodeId, SubEdge, Subgraph};
use agl_mapreduce::codec::{
    get_count, get_f32, get_f32_row, get_u32, get_u64, put_f32, put_f32_row, put_f32s, put_u32, put_u64, take,
    CodecError,
};
use agl_tensor::Matrix;
use std::collections::hash_map::Entry;

/// Encode a [`Subgraph`] into a flat GraphFeature byte string.
pub fn encode_graph_feature(sub: &Subgraph) -> Vec<u8> {
    let ef_dim = sub.edge_features.as_ref().map_or(0, Matrix::cols);
    let edge_bytes = 20 + if sub.edge_features.is_some() { 4 + 4 * ef_dim } else { 0 };
    let mut buf = Vec::with_capacity(
        20 + 8 * sub.target_locals.len() + sub.n_nodes() * (8 + 4 * sub.features.cols()) + sub.n_edges() * edge_bytes,
    );
    // Targets (global ids).
    put_u32(&mut buf, sub.target_locals.len() as u32);
    for &t in &sub.target_locals {
        put_u64(&mut buf, sub.node_ids[t as usize].0);
    }
    // Nodes.
    put_u32(&mut buf, sub.n_nodes() as u32);
    put_u32(&mut buf, sub.features.cols() as u32);
    for (l, id) in sub.node_ids.iter().enumerate() {
        put_u64(&mut buf, id.0);
        put_f32_row(&mut buf, sub.features.row(l));
    }
    // Edges (global endpoint ids).
    put_u32(&mut buf, sub.n_edges() as u32);
    put_u32(&mut buf, ef_dim as u32);
    for (i, e) in sub.edges.iter().enumerate() {
        put_u64(&mut buf, sub.node_ids[e.src as usize].0);
        put_u64(&mut buf, sub.node_ids[e.dst as usize].0);
        put_f32(&mut buf, e.weight);
        if let Some(ef) = &sub.edge_features {
            put_f32s(&mut buf, ef.row(i));
        }
    }
    buf
}

/// Decode a GraphFeature produced by [`encode_graph_feature`].
///
/// Local indices are assigned in stored-node order; targets keep whatever
/// position the encoder stored them at (GraphFlat stores targets first).
pub fn decode_graph_feature(mut input: &[u8]) -> Result<Subgraph, CodecError> {
    let r = &mut input;
    let n_targets = get_u32(r)? as usize;
    if n_targets.saturating_mul(8) > r.len() {
        return Err(CodecError(format!("target section ({n_targets}) exceeds input of {} bytes", r.len())));
    }
    let mut target_ids = Vec::with_capacity(n_targets);
    for _ in 0..n_targets {
        target_ids.push(NodeId(get_u64(r)?));
    }
    let n_nodes = get_u32(r)? as usize;
    let f_dim = get_u32(r)? as usize;
    // Guard allocations against corrupt counts: every node costs at least
    // 8 + 4*f_dim bytes of remaining input.
    if n_nodes.saturating_mul(8 + 4 * f_dim) > r.len() {
        return Err(CodecError(format!("node section ({n_nodes}×{f_dim}) exceeds input of {} bytes", r.len())));
    }
    let mut node_ids = Vec::with_capacity(n_nodes);
    let mut features = Matrix::zeros(n_nodes, f_dim);
    let mut local_of: IdMap<u32> = IdMap::with_capacity_and_hasher(n_nodes, Default::default());
    for l in 0..n_nodes {
        let id = NodeId(get_u64(r)?);
        match local_of.entry(id) {
            Entry::Occupied(_) => return Err(CodecError(format!("duplicate node id {id}"))),
            Entry::Vacant(v) => v.insert(l as u32),
        };
        node_ids.push(id);
        get_f32_row(r, features.row_mut(l))?;
    }
    let n_edges = get_u32(r)? as usize;
    let ef_dim = get_u32(r)? as usize;
    if n_edges.saturating_mul(20 + if ef_dim > 0 { 4 + 4 * ef_dim } else { 0 }) > r.len() {
        return Err(CodecError(format!("edge section ({n_edges}×{ef_dim}) exceeds input of {} bytes", r.len())));
    }
    let lookup = |id: u64| {
        local_of.get(&NodeId(id)).copied().ok_or_else(|| CodecError(format!("edge references unknown node {id}")))
    };
    let mut edges = Vec::with_capacity(n_edges);
    let mut edge_features = if ef_dim > 0 { Some(Matrix::zeros(n_edges, ef_dim)) } else { None };
    for i in 0..n_edges {
        let src = lookup(get_u64(r)?)?;
        let dst = lookup(get_u64(r)?)?;
        edges.push(SubEdge { src, dst, weight: get_f32(r)? });
        if let Some(efm) = &mut edge_features {
            let width = get_u32(r)? as usize;
            if width != ef_dim {
                return Err(CodecError(format!("edge feature width {width} != {ef_dim}")));
            }
            get_f32_row(r, efm.row_mut(i))?;
        }
    }
    if !r.is_empty() {
        return Err(CodecError(format!("{} trailing bytes", r.len())));
    }
    let target_locals = target_ids
        .iter()
        .map(|t| local_of.get(t).copied().ok_or_else(|| CodecError(format!("target {t} not among nodes"))))
        .collect::<Result<Vec<_>, _>>()?;
    let sub = Subgraph { target_locals, node_ids, features, edges, edge_features };
    sub.validate().map_err(CodecError)?;
    Ok(sub)
}

/// Fill a GraphFeature of feature width 0 (an id-only *structure*) with
/// the nodes' feature rows. Only the node section is rewritten; the target
/// list and the edge section are copied as they are, so the result is the
/// bytes [`encode_graph_feature`] writes for the same subgraph with those
/// rows. Every node needs a row from `row_of`, all of one width.
pub fn fill_graph_feature<'a>(
    structure: &[u8],
    row_of: impl Fn(NodeId) -> Option<&'a [f32]>,
) -> Result<Vec<u8>, CodecError> {
    let r = &mut &structure[..];
    let n_targets = get_count(r, 8)?;
    take(r, 8 * n_targets)?;
    let head = &structure[..structure.len() - r.len()];
    let n_nodes = get_count(r, 8)?;
    let f_dim = get_u32(r)?;
    if f_dim != 0 {
        return Err(CodecError(format!("structure carries feature rows of width {f_dim}")));
    }
    let ids = take(r, 8 * n_nodes)?;
    let mut out = Vec::with_capacity(structure.len());
    out.extend_from_slice(head);
    put_u32(&mut out, n_nodes as u32);
    let width_at = out.len();
    put_u32(&mut out, 0);
    let mut width = None;
    for id in ids.chunks_exact(8) {
        let node = NodeId(u64::from_le_bytes([id[0], id[1], id[2], id[3], id[4], id[5], id[6], id[7]]));
        let row = row_of(node).ok_or_else(|| CodecError(format!("no feature row for node {node}")))?;
        match width {
            None => {
                width = Some(row.len());
                out.reserve(4 * row.len() * n_nodes + r.len());
            }
            Some(w) if w != row.len() => {
                return Err(CodecError(format!("node {node} has a row of width {} != {w}", row.len())))
            }
            Some(_) => {}
        }
        out.extend_from_slice(id);
        put_f32_row(&mut out, row);
    }
    out[width_at..width_at + 4].copy_from_slice(&(width.unwrap_or(0) as u32).to_le_bytes());
    out.extend_from_slice(r);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::{seeded_rng, Rng};

    fn sample(with_ef: bool) -> Subgraph {
        Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(100), NodeId(7), NodeId(33)],
            features: Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
            edges: vec![
                SubEdge { src: 1, dst: 0, weight: 1.5 },
                SubEdge { src: 2, dst: 0, weight: 0.5 },
                SubEdge { src: 2, dst: 1, weight: 1.0 },
            ],
            edge_features: with_ef.then(|| Matrix::from_rows(&[&[9.0], &[8.0], &[7.0]])),
        }
    }

    #[test]
    fn roundtrip_without_edge_features() {
        let s = sample(false);
        let back = decode_graph_feature(&encode_graph_feature(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn roundtrip_with_edge_features() {
        let s = sample(true);
        let back = decode_graph_feature(&encode_graph_feature(&s)).unwrap();
        assert_eq!(back, s);
    }

    /// `sample`'s ids and edges without its feature rows.
    fn structure_of(s: &Subgraph) -> Vec<u8> {
        encode_graph_feature(&Subgraph { features: Matrix::zeros(s.n_nodes(), 0), ..s.clone() })
    }

    #[test]
    fn filling_a_structure_matches_encoding_the_full_subgraph() {
        for with_ef in [false, true] {
            let s = sample(with_ef);
            let row_of = |id: NodeId| s.node_ids.iter().position(|n| *n == id).map(|l| s.features.row(l));
            assert_eq!(fill_graph_feature(&structure_of(&s), row_of).unwrap(), encode_graph_feature(&s));
        }
    }

    #[test]
    fn filling_rejects_missing_ragged_and_present_rows() {
        let s = sample(true);
        let structure = structure_of(&s);
        let missing = fill_graph_feature(&structure, |id| (id != NodeId(33)).then_some(&[1.0f32, 2.0][..]));
        assert!(missing.unwrap_err().0.contains(&format!("node {}", NodeId(33))));
        let ragged =
            fill_graph_feature(&structure, |id| Some(if id == NodeId(7) { &[1.0f32][..] } else { &[1.0, 2.0] }));
        assert!(ragged.is_err());
        let full = encode_graph_feature(&s);
        assert!(fill_graph_feature(&full, |_| Some(&[1.0f32, 2.0][..])).is_err(), "already carries rows");
        for cut in 0..structure.len() {
            let filled = fill_graph_feature(&structure[..cut], |_| Some(&[1.0f32, 2.0][..]));
            // A cut inside the edge section is copied through; the decoder rejects it.
            assert!(filled.map_or(true, |b| decode_graph_feature(&b).is_err()), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let b = encode_graph_feature(&sample(false));
        for cut in [1, b.len() / 2, b.len() - 1] {
            assert!(decode_graph_feature(&b[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_subgraph_single_node() {
        let s = Subgraph {
            target_locals: vec![0],
            node_ids: vec![NodeId(5)],
            features: Matrix::from_rows(&[&[0.5]]),
            edges: vec![],
            edge_features: None,
        };
        let back = decode_graph_feature(&encode_graph_feature(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn prop_roundtrip_random_subgraphs() {
        let mut rng = seeded_rng(0x6F_0001);
        for _ in 0..32 {
            // Build a random valid subgraph.
            let n_nodes = rng.gen_range(1..12usize);
            let f_dim = rng.gen_range(1..5usize);
            let node_ids: Vec<NodeId> = (0..n_nodes as u64).map(|i| NodeId(i * 13 + 2)).collect();
            let features =
                Matrix::from_vec(n_nodes, f_dim, (0..n_nodes * f_dim).map(|i| (i as f32) * 0.25 - 1.0).collect());
            let edges: Vec<SubEdge> = (0..n_nodes * 2)
                .map(|_| SubEdge {
                    src: rng.gen_range(0..n_nodes) as u32,
                    dst: rng.gen_range(0..n_nodes) as u32,
                    weight: rng.gen_range(0..100u32) as f32 * 0.01,
                })
                .collect();
            let s = Subgraph { target_locals: vec![0], node_ids, features, edges, edge_features: None };
            let back = decode_graph_feature(&encode_graph_feature(&s)).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn prop_decode_garbage_never_panics() {
        let mut rng = seeded_rng(0x6F_0002);
        for _ in 0..64 {
            let len = rng.gen_range(0..256usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let _ = decode_graph_feature(&bytes);
        }
    }
}
