//! Shuffle keys and value messages of the GraphFlat pipeline.
//!
//! The shuffle key is `(node id, re-index suffix)` — the suffix realises the
//! paper's re-indexing strategy (§3.2.2): hub keys are split into `fanout`
//! sub-keys so their records spread across reducers. A bucket of the fill
//! round has a key of its own, marked by [`BUCKET_SUFFIX`]. The value is
//! one of the three kinds of information of §3.2.1 (self / in-edge /
//! out-edge), carrying id-only structures, plus the raw node rows and the
//! payload-free in-edge stubs feeding the join round, the feature-row
//! requests of round K − 1, the rows and structures round K sends to the
//! buckets, and the final output record.

use agl_mapreduce::codec::{
    get_f32, get_f32s, get_u32, get_u64, get_u8, put_f32, put_f32s, put_u32, put_u64, put_u8, Codec, CodecError,
};
use agl_mapreduce::hash::fnv1a;

/// Suffix value meaning "not re-indexed".
pub const NO_SUFFIX: u32 = 0;

/// A shuffle key: node id plus re-index suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlatKey {
    pub id: u64,
    pub suffix: u32,
}

impl FlatKey {
    pub fn plain(id: u64) -> Self {
        Self { id, suffix: NO_SUFFIX }
    }

    /// Suffix for a record about `member` heading to hub `id` — a
    /// deterministic stand-in for the paper's "random suffix" (determinism
    /// is what lets a re-executed task reproduce its routing).
    pub fn reindexed(id: u64, member: u64, fanout: u32) -> Self {
        Self { id, suffix: (fnv1a(&member.to_le_bytes()) % fanout as u64) as u32 }
    }
}

impl Codec for FlatKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.id);
        put_u32(buf, self.suffix);
    }

    /// One exact allocation: every record the pipeline emits builds a key.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12);
        self.encode(&mut buf);
        buf
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self { id: get_u64(input)?, suffix: get_u32(input)? })
    }
}

/// Suffix of the bucket keys of the fill round. Re-index
/// suffixes stay below the fanout, a `u32`, so no node key carries it.
pub const BUCKET_SUFFIX: u32 = u32::MAX;

/// A value record of the GraphFlat pipeline.
///
/// Rounds 1..=K carry *structures*: id-only GraphFeatures (feature width 0)
/// holding node ids and edges with their weights and edge features. A
/// node's own feature row rides only in its `SelfInfo` and `Row` records.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatMsg {
    /// Raw node-table row (Map output, consumed by the join round).
    NodeRow { features: Vec<f32>, is_target: bool, label: Vec<f32> },
    /// In-edge `(src → key)` without a payload. Map sends one per edge to
    /// the destination's group, where the join round samples over them;
    /// the join round sends each kept source's first kept edge back to its
    /// own group as round 1's in-edge.
    Stub { src: u64, weight: f32, efeat: Vec<f32> },
    /// Self information: the node's structure so far, its own feature row,
    /// and target bookkeeping.
    SelfInfo { sub: Vec<u8>, row: Vec<f32>, is_target: bool, label: Vec<f32> },
    /// In-edge information from round 2 on: the source's structure. The
    /// edge itself already sits in the destination's structure since
    /// round 1, which kept the same sources.
    InEdge { sub: Vec<u8> },
    /// Out-edge information: `(key → dst)`, one per destination whose
    /// sample kept this node, so the merge result can be propagated. The
    /// destination's target flag tells round K − 1 which bucket will hold
    /// the structure it propagates.
    OutEdge { dst: u64, dst_is_target: bool },
    /// Round K − 1's request for the key node's feature row, on behalf of
    /// the targets of `bucket` whose structure will hold the node.
    Request { bucket: u32 },
    /// Node `id`'s feature row: round K answers each requesting bucket with
    /// one copy.
    Row { id: u64, features: Vec<f32> },
    /// A target's structure (one partial per group of a re-indexed hub)
    /// on its way to the target's bucket.
    Structure { target: u64, sub: Vec<u8>, label: Vec<f32> },
    /// Final output: the targeted node's GraphFeature and label.
    Final { sub: Vec<u8>, label: Vec<f32> },
}

impl FlatMsg {
    const TAG_NODE: u8 = 0;
    const TAG_STUB: u8 = 1;
    const TAG_SELF: u8 = 2;
    const TAG_IN: u8 = 3;
    const TAG_OUT: u8 = 4;
    const TAG_REQUEST: u8 = 5;
    const TAG_ROW: u8 = 6;
    const TAG_STRUCTURE: u8 = 7;
    const TAG_FINAL: u8 = 8;

    // ---- Borrowed encoders -------------------------------------------
    // The reducer encodes one record per (kept) edge, node or target per
    // round; building an owned `FlatMsg` first means cloning the structure
    // or row just to serialise it. These encode straight from borrows and are
    // byte-identical to `to_bytes()` on the equivalent owned variant
    // (tested below).

    /// Encode [`FlatMsg::Stub`] without owning its fields.
    pub fn encode_stub(src: u64, weight: f32, efeat: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(17 + 4 * efeat.len());
        put_stub(&mut buf, src, weight, efeat);
        buf
    }

    /// Encode [`FlatMsg::SelfInfo`] without owning its fields.
    pub fn encode_self_info(sub: &[u8], row: &[f32], is_target: bool, label: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(14 + sub.len() + 4 * (row.len() + label.len()));
        put_self_info(&mut buf, sub, row, is_target, label);
        buf
    }

    /// Encode [`FlatMsg::InEdge`] without owning its structure.
    pub fn encode_in_edge(sub: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(5 + sub.len());
        put_u8(&mut buf, Self::TAG_IN);
        put_blob(&mut buf, sub);
        buf
    }

    /// Encode [`FlatMsg::Row`] without owning its features.
    pub fn encode_row(id: u64, features: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(13 + 4 * features.len());
        put_row(&mut buf, id, features);
        buf
    }

    /// Encode [`FlatMsg::Structure`] without owning its fields.
    pub fn encode_structure(target: u64, sub: &[u8], label: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(17 + sub.len() + 4 * label.len());
        put_structure(&mut buf, target, sub, label);
        buf
    }

    /// Encode [`FlatMsg::Final`] without owning its fields.
    pub fn encode_final(sub: &[u8], label: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9 + sub.len() + 4 * label.len());
        put_final(&mut buf, sub, label);
        buf
    }
}

fn put_stub(buf: &mut Vec<u8>, src: u64, weight: f32, efeat: &[f32]) {
    put_u8(buf, FlatMsg::TAG_STUB);
    put_u64(buf, src);
    put_f32(buf, weight);
    put_f32s(buf, efeat);
}

fn put_self_info(buf: &mut Vec<u8>, sub: &[u8], row: &[f32], is_target: bool, label: &[f32]) {
    put_u8(buf, FlatMsg::TAG_SELF);
    put_blob(buf, sub);
    put_f32s(buf, row);
    put_u8(buf, u8::from(is_target));
    put_f32s(buf, label);
}

fn put_row(buf: &mut Vec<u8>, id: u64, features: &[f32]) {
    put_u8(buf, FlatMsg::TAG_ROW);
    put_u64(buf, id);
    put_f32s(buf, features);
}

fn put_structure(buf: &mut Vec<u8>, target: u64, sub: &[u8], label: &[f32]) {
    put_u8(buf, FlatMsg::TAG_STRUCTURE);
    put_u64(buf, target);
    put_blob(buf, sub);
    put_f32s(buf, label);
}

fn put_final(buf: &mut Vec<u8>, sub: &[u8], label: &[f32]) {
    put_u8(buf, FlatMsg::TAG_FINAL);
    put_blob(buf, sub);
    put_f32s(buf, label);
}

fn put_blob(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn get_blob(input: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
    let n = get_u32(input)? as usize;
    let b = agl_mapreduce::codec::take(input, n)?;
    Ok(b.to_vec())
}

impl Codec for FlatMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FlatMsg::NodeRow { features, is_target, label } => {
                put_u8(buf, Self::TAG_NODE);
                put_f32s(buf, features);
                put_u8(buf, u8::from(*is_target));
                put_f32s(buf, label);
            }
            FlatMsg::Stub { src, weight, efeat } => put_stub(buf, *src, *weight, efeat),
            FlatMsg::SelfInfo { sub, row, is_target, label } => put_self_info(buf, sub, row, *is_target, label),
            FlatMsg::InEdge { sub } => {
                put_u8(buf, Self::TAG_IN);
                put_blob(buf, sub);
            }
            FlatMsg::OutEdge { dst, dst_is_target } => {
                put_u8(buf, Self::TAG_OUT);
                put_u64(buf, *dst);
                put_u8(buf, u8::from(*dst_is_target));
            }
            FlatMsg::Request { bucket } => {
                put_u8(buf, Self::TAG_REQUEST);
                put_u32(buf, *bucket);
            }
            FlatMsg::Row { id, features } => put_row(buf, *id, features),
            FlatMsg::Structure { target, sub, label } => put_structure(buf, *target, sub, label),
            FlatMsg::Final { sub, label } => put_final(buf, sub, label),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get_u8(input)? {
            Self::TAG_NODE => {
                FlatMsg::NodeRow { features: get_f32s(input)?, is_target: get_u8(input)? != 0, label: get_f32s(input)? }
            }
            Self::TAG_STUB => FlatMsg::Stub { src: get_u64(input)?, weight: get_f32(input)?, efeat: get_f32s(input)? },
            Self::TAG_SELF => FlatMsg::SelfInfo {
                sub: get_blob(input)?,
                row: get_f32s(input)?,
                is_target: get_u8(input)? != 0,
                label: get_f32s(input)?,
            },
            Self::TAG_IN => FlatMsg::InEdge { sub: get_blob(input)? },
            Self::TAG_OUT => FlatMsg::OutEdge { dst: get_u64(input)?, dst_is_target: get_u8(input)? != 0 },
            Self::TAG_REQUEST => FlatMsg::Request { bucket: get_u32(input)? },
            Self::TAG_ROW => FlatMsg::Row { id: get_u64(input)?, features: get_f32s(input)? },
            Self::TAG_STRUCTURE => {
                FlatMsg::Structure { target: get_u64(input)?, sub: get_blob(input)?, label: get_f32s(input)? }
            }
            Self::TAG_FINAL => FlatMsg::Final { sub: get_blob(input)?, label: get_f32s(input)? },
            t => return Err(CodecError(format!("unknown FlatMsg tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip_and_ordering() {
        let k = FlatKey { id: 42, suffix: 3 };
        assert_eq!(FlatKey::from_bytes(&k.to_bytes()).unwrap(), k);
        assert!(FlatKey::plain(1) < FlatKey::plain(2));
    }

    #[test]
    fn reindexed_suffix_deterministic_and_bounded() {
        let a = FlatKey::reindexed(7, 100, 4);
        let b = FlatKey::reindexed(7, 100, 4);
        assert_eq!(a, b);
        assert!(a.suffix < 4);
        // Different members generally land in different groups.
        let suffixes: std::collections::HashSet<u32> = (0..64u64).map(|m| FlatKey::reindexed(7, m, 4).suffix).collect();
        assert!(suffixes.len() > 1);
    }

    fn one_of_each_variant() -> Vec<FlatMsg> {
        vec![
            FlatMsg::NodeRow { features: vec![1.0, 2.0], is_target: true, label: vec![0.0, 1.0] },
            FlatMsg::Stub { src: 6, weight: 0.75, efeat: vec![4.0, -4.0] },
            FlatMsg::SelfInfo { sub: vec![1, 2, 3], row: vec![0.5, 1.5], is_target: false, label: vec![] },
            FlatMsg::InEdge { sub: vec![9; 10] },
            FlatMsg::OutEdge { dst: 5, dst_is_target: true },
            FlatMsg::OutEdge { dst: 8, dst_is_target: false },
            FlatMsg::Request { bucket: 3 },
            FlatMsg::Row { id: 11, features: vec![2.5, -1.0, 0.0] },
            FlatMsg::Structure { target: 12, sub: vec![4; 6], label: vec![1.0] },
            FlatMsg::Final { sub: vec![0; 4], label: vec![1.0] },
        ]
    }

    #[test]
    fn all_message_variants_roundtrip() {
        for m in one_of_each_variant() {
            let back = FlatMsg::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn every_truncation_of_every_variant_is_rejected() {
        for m in one_of_each_variant() {
            let bytes = m.to_bytes();
            for cut in 0..bytes.len() {
                assert!(FlatMsg::from_bytes(&bytes[..cut]).is_err(), "{m:?} cut to {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn borrowed_encoders_match_owned_encoding() {
        let sub = vec![7u8, 8, 9];
        let row = vec![0.25f32, 4.0];
        let label = vec![0.5f32, -1.0];
        let efeat = vec![1.5f32];
        assert_eq!(
            FlatMsg::encode_stub(6, 0.5, &efeat),
            FlatMsg::Stub { src: 6, weight: 0.5, efeat: efeat.clone() }.to_bytes(),
        );
        assert_eq!(
            FlatMsg::encode_self_info(&sub, &row, true, &label),
            FlatMsg::SelfInfo { sub: sub.clone(), row: row.clone(), is_target: true, label: label.clone() }.to_bytes(),
        );
        assert_eq!(FlatMsg::encode_in_edge(&sub), FlatMsg::InEdge { sub: sub.clone() }.to_bytes());
        assert_eq!(FlatMsg::encode_row(4, &row), FlatMsg::Row { id: 4, features: row.clone() }.to_bytes());
        assert_eq!(
            FlatMsg::encode_structure(4, &sub, &label),
            FlatMsg::Structure { target: 4, sub: sub.clone(), label: label.clone() }.to_bytes(),
        );
        assert_eq!(FlatMsg::encode_final(&sub, &label), FlatMsg::Final { sub, label }.to_bytes());
        // `OutEdge` owns nothing, so it has no borrowed encoder; its layout
        // is tag, destination id, then the destination's target flag.
        for (flag, byte) in [(false, 0), (true, 1)] {
            let mut want = vec![4, 9, 0, 0, 0, 0, 0, 0, 0];
            want.push(byte);
            assert_eq!(FlatMsg::OutEdge { dst: 9, dst_is_target: flag }.to_bytes(), want);
        }
        // Empty payloads too.
        assert_eq!(
            FlatMsg::encode_self_info(&[], &[], false, &[]),
            FlatMsg::SelfInfo { sub: vec![], row: vec![], is_target: false, label: vec![] }.to_bytes(),
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(FlatMsg::from_bytes(&[99]).is_err());
    }
}
