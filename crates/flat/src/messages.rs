//! Shuffle keys and value messages of the GraphFlat pipeline.
//!
//! The shuffle key is `(node id, re-index suffix)` — the suffix realises the
//! paper's re-indexing strategy (§3.2.2): hub keys are split into `fanout`
//! sub-keys so their records spread across reducers. The value is one of the
//! three kinds of information of §3.2.1 (self / in-edge / out-edge), plus
//! the raw table rows feeding the join round, the payload-free in-edge stubs
//! the join round samples over before any payload ships, and the final
//! output record.

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

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self { id: get_u64(input)?, suffix: get_u32(input)? })
    }
}

/// A value record of the GraphFlat pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatMsg {
    /// Raw node-table row (Map output, consumed by the join round).
    NodeRow { features: Vec<f32>, is_target: bool, label: Vec<f32> },
    /// Raw edge-table row keyed by its source (Map output, join round).
    EdgeBySrc { dst: u64, weight: f32, efeat: Vec<f32> },
    /// Self information: the node's merged neighborhood so far, flattened
    /// as GraphFeature bytes, plus target bookkeeping.
    SelfInfo { sub: Vec<u8>, is_target: bool, label: Vec<f32> },
    /// In-edge information: the edge `(src → key)` plus the source's
    /// current neighborhood payload.
    InEdge { src: u64, weight: f32, efeat: Vec<f32>, sub: Vec<u8> },
    /// Out-edge information: `(key → dst)` with its weight/features, kept
    /// so the merge result can be propagated each round. The join round's
    /// `dst` sends one per source its sample kept, carrying the first kept
    /// parallel edge, the one `dst`'s merge records.
    OutEdge { dst: u64, weight: f32, efeat: Vec<f32> },
    /// Final output: the targeted node's GraphFeature and label.
    Final { sub: Vec<u8>, label: Vec<f32> },
    /// In-edge stub: the edge `(src → key)` without a payload (Map output,
    /// join round). The join round samples over these.
    Stub { src: u64, weight: f32, efeat: Vec<f32> },
}

impl FlatMsg {
    const TAG_NODE: u8 = 0;
    const TAG_EDGE: u8 = 1;
    const TAG_SELF: u8 = 2;
    const TAG_IN: u8 = 3;
    const TAG_OUT: u8 = 4;
    const TAG_FINAL: u8 = 5;
    const TAG_STUB: u8 = 6;

    // ---- Borrowed encoders -------------------------------------------
    // The reducer's merge round encodes one `InEdge`/`OutEdge`/`SelfInfo`
    // per (sampled) edge per round; building an owned `FlatMsg` first means
    // cloning the neighborhood payload just to serialise it. These encode
    // straight from borrows and are byte-identical to `to_bytes()` on the
    // equivalent owned variant (tested below).

    /// Encode [`FlatMsg::SelfInfo`] without owning its fields.
    pub fn encode_self_info(sub: &[u8], is_target: bool, label: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(10 + sub.len() + 4 * label.len());
        put_u8(&mut buf, Self::TAG_SELF);
        put_blob(&mut buf, sub);
        put_u8(&mut buf, u8::from(is_target));
        put_f32s(&mut buf, label);
        buf
    }

    /// Encode [`FlatMsg::InEdge`] without owning its fields.
    pub fn encode_in_edge(src: u64, weight: f32, efeat: &[f32], sub: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(21 + 4 * efeat.len() + sub.len());
        put_u8(&mut buf, Self::TAG_IN);
        put_u64(&mut buf, src);
        put_f32(&mut buf, weight);
        put_f32s(&mut buf, efeat);
        put_blob(&mut buf, sub);
        buf
    }

    /// Encode [`FlatMsg::OutEdge`] without owning its fields.
    pub fn encode_out_edge(dst: u64, weight: f32, efeat: &[f32]) -> Vec<u8> {
        Self::encode_edge(Self::TAG_OUT, dst, weight, efeat)
    }

    /// Encode [`FlatMsg::Stub`] without owning its fields.
    pub fn encode_stub(src: u64, weight: f32, efeat: &[f32]) -> Vec<u8> {
        Self::encode_edge(Self::TAG_STUB, src, weight, efeat)
    }

    fn encode_edge(tag: u8, other: u64, weight: f32, efeat: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(17 + 4 * efeat.len());
        put_edge(&mut buf, tag, other, weight, efeat);
        buf
    }

    /// Encode [`FlatMsg::Final`] without owning its fields.
    pub fn encode_final(sub: &[u8], label: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9 + sub.len() + 4 * label.len());
        put_u8(&mut buf, Self::TAG_FINAL);
        put_blob(&mut buf, sub);
        put_f32s(&mut buf, label);
        buf
    }
}

/// The payload-free edge variants (`EdgeBySrc`, `OutEdge`, `Stub`)
/// share one layout: tag, the other endpoint, weight, edge features.
fn put_edge(buf: &mut Vec<u8>, tag: u8, other: u64, weight: f32, efeat: &[f32]) {
    put_u8(buf, tag);
    put_u64(buf, other);
    put_f32(buf, weight);
    put_f32s(buf, efeat);
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
            FlatMsg::EdgeBySrc { dst, weight, efeat } => put_edge(buf, Self::TAG_EDGE, *dst, *weight, efeat),
            FlatMsg::SelfInfo { sub, is_target, label } => {
                put_u8(buf, Self::TAG_SELF);
                put_blob(buf, sub);
                put_u8(buf, u8::from(*is_target));
                put_f32s(buf, label);
            }
            FlatMsg::InEdge { src, weight, efeat, sub } => {
                put_u8(buf, Self::TAG_IN);
                put_u64(buf, *src);
                put_f32(buf, *weight);
                put_f32s(buf, efeat);
                put_blob(buf, sub);
            }
            FlatMsg::OutEdge { dst, weight, efeat } => put_edge(buf, Self::TAG_OUT, *dst, *weight, efeat),
            FlatMsg::Final { sub, label } => {
                put_u8(buf, Self::TAG_FINAL);
                put_blob(buf, sub);
                put_f32s(buf, label);
            }
            FlatMsg::Stub { src, weight, efeat } => put_edge(buf, Self::TAG_STUB, *src, *weight, efeat),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get_u8(input)? {
            Self::TAG_NODE => {
                FlatMsg::NodeRow { features: get_f32s(input)?, is_target: get_u8(input)? != 0, label: get_f32s(input)? }
            }
            Self::TAG_EDGE => {
                FlatMsg::EdgeBySrc { dst: get_u64(input)?, weight: get_f32(input)?, efeat: get_f32s(input)? }
            }
            Self::TAG_SELF => {
                FlatMsg::SelfInfo { sub: get_blob(input)?, is_target: get_u8(input)? != 0, label: get_f32s(input)? }
            }
            Self::TAG_IN => FlatMsg::InEdge {
                src: get_u64(input)?,
                weight: get_f32(input)?,
                efeat: get_f32s(input)?,
                sub: get_blob(input)?,
            },
            Self::TAG_OUT => {
                FlatMsg::OutEdge { dst: get_u64(input)?, weight: get_f32(input)?, efeat: get_f32s(input)? }
            }
            Self::TAG_FINAL => FlatMsg::Final { sub: get_blob(input)?, label: get_f32s(input)? },
            Self::TAG_STUB => FlatMsg::Stub { src: get_u64(input)?, weight: get_f32(input)?, efeat: get_f32s(input)? },
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
            FlatMsg::EdgeBySrc { dst: 9, weight: 0.5, efeat: vec![3.0] },
            FlatMsg::SelfInfo { sub: vec![1, 2, 3], is_target: false, label: vec![] },
            FlatMsg::InEdge { src: 4, weight: 1.0, efeat: vec![], sub: vec![9; 10] },
            FlatMsg::OutEdge { dst: 5, weight: 2.0, efeat: vec![1.0, 2.0] },
            FlatMsg::Final { sub: vec![0; 4], label: vec![1.0] },
            FlatMsg::Stub { src: 6, weight: 0.75, efeat: vec![4.0, -4.0] },
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
        let label = vec![0.5f32, -1.0];
        let efeat = vec![1.5f32];
        assert_eq!(
            FlatMsg::encode_self_info(&sub, true, &label),
            FlatMsg::SelfInfo { sub: sub.clone(), is_target: true, label: label.clone() }.to_bytes(),
        );
        assert_eq!(
            FlatMsg::encode_in_edge(4, 0.25, &efeat, &sub),
            FlatMsg::InEdge { src: 4, weight: 0.25, efeat: efeat.clone(), sub: sub.clone() }.to_bytes(),
        );
        assert_eq!(
            FlatMsg::encode_out_edge(5, 2.0, &efeat),
            FlatMsg::OutEdge { dst: 5, weight: 2.0, efeat: efeat.clone() }.to_bytes(),
        );
        assert_eq!(
            FlatMsg::encode_stub(6, 0.5, &efeat),
            FlatMsg::Stub { src: 6, weight: 0.5, efeat: efeat.clone() }.to_bytes(),
        );
        assert_eq!(FlatMsg::encode_final(&sub, &label), FlatMsg::Final { sub, label }.to_bytes(),);
        // Empty payloads too.
        assert_eq!(
            FlatMsg::encode_self_info(&[], false, &[]),
            FlatMsg::SelfInfo { sub: vec![], is_target: false, label: vec![] }.to_bytes(),
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(FlatMsg::from_bytes(&[99]).is_err());
    }
}
