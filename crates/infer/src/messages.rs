//! Shuffle messages of the GraphInfer pipeline. Values carry *embeddings*
//! rather than subgraphs — that is the entire efficiency argument of §3.4:
//! what flows between rounds is one vector per node per edge, not a growing
//! neighborhood.

use agl_mapreduce::codec::{
    get_f32, get_f32s, get_u32, get_u64, get_u8, put_f32, put_f32s, put_u32, put_u64, put_u8, Codec, CodecError,
};

/// A value record of the GraphInfer pipeline. Keys are plain node ids
/// (little-endian `u64`).
#[derive(Debug, Clone, PartialEq)]
pub enum InferMsg {
    /// Raw node-table row (Map output, consumed by the join round).
    NodeRow { features: Vec<f32> },
    /// Raw edge-table row keyed by source (Map output, join round).
    EdgeBySrc { dst: u64, weight: f32 },
    /// The node's own layer-(k−1) embedding.
    SelfEmb { h: Vec<f32> },
    /// A neighbor's layer-(k−1) embedding arriving over the in-edge
    /// `(src → key)`.
    InEmb { src: u64, weight: f32, h: Vec<f32> },
    /// Out-edge info kept so each round can propagate.
    OutEdge { dst: u64, weight: f32 },
    /// Final-layer embedding heading into the prediction round.
    Emb { h: Vec<f32> },
    /// Predicted score(s) — the job output.
    Score { probs: Vec<f32> },
    /// A shuffle-combined partial aggregate of the [`InferMsg::InEmb`]
    /// messages one producer partition (`segment`) sent to this key: `n`
    /// in-edges folded, their `Σ w`, and the elementwise accumulator (see
    /// [`agl_nn::CombineKind`]). Only jobs that install the shuffle
    /// combiner (no sampling, every layer decomposable) carry these.
    Partial { segment: u32, n: u32, total_w: f32, acc: Vec<f32> },
}

impl InferMsg {
    const TAG_NODE: u8 = 0;
    const TAG_EDGE: u8 = 1;
    const TAG_SELF: u8 = 2;
    const TAG_IN: u8 = 3;
    const TAG_OUT: u8 = 4;
    const TAG_EMB: u8 = 5;
    const TAG_SCORE: u8 = 6;
    const TAG_PARTIAL: u8 = 7;
}

impl Codec for InferMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            InferMsg::NodeRow { features } => {
                put_u8(buf, Self::TAG_NODE);
                put_f32s(buf, features);
            }
            InferMsg::EdgeBySrc { dst, weight } => {
                put_u8(buf, Self::TAG_EDGE);
                put_u64(buf, *dst);
                put_f32(buf, *weight);
            }
            InferMsg::SelfEmb { h } => {
                put_u8(buf, Self::TAG_SELF);
                put_f32s(buf, h);
            }
            InferMsg::InEmb { src, weight, h } => {
                put_u8(buf, Self::TAG_IN);
                put_u64(buf, *src);
                put_f32(buf, *weight);
                put_f32s(buf, h);
            }
            InferMsg::OutEdge { dst, weight } => {
                put_u8(buf, Self::TAG_OUT);
                put_u64(buf, *dst);
                put_f32(buf, *weight);
            }
            InferMsg::Emb { h } => {
                put_u8(buf, Self::TAG_EMB);
                put_f32s(buf, h);
            }
            InferMsg::Score { probs } => {
                put_u8(buf, Self::TAG_SCORE);
                put_f32s(buf, probs);
            }
            InferMsg::Partial { segment, n, total_w, acc } => {
                put_u8(buf, Self::TAG_PARTIAL);
                put_u32(buf, *segment);
                put_u32(buf, *n);
                put_f32(buf, *total_w);
                put_f32s(buf, acc);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get_u8(input)? {
            Self::TAG_NODE => InferMsg::NodeRow { features: get_f32s(input)? },
            Self::TAG_EDGE => InferMsg::EdgeBySrc { dst: get_u64(input)?, weight: get_f32(input)? },
            Self::TAG_SELF => InferMsg::SelfEmb { h: get_f32s(input)? },
            Self::TAG_IN => InferMsg::InEmb { src: get_u64(input)?, weight: get_f32(input)?, h: get_f32s(input)? },
            Self::TAG_OUT => InferMsg::OutEdge { dst: get_u64(input)?, weight: get_f32(input)? },
            Self::TAG_EMB => InferMsg::Emb { h: get_f32s(input)? },
            Self::TAG_SCORE => InferMsg::Score { probs: get_f32s(input)? },
            Self::TAG_PARTIAL => InferMsg::Partial {
                segment: get_u32(input)?,
                n: get_u32(input)?,
                total_w: get_f32(input)?,
                acc: get_f32s(input)?,
            },
            t => return Err(CodecError(format!("unknown InferMsg tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            InferMsg::NodeRow { features: vec![1.0, 2.0] },
            InferMsg::EdgeBySrc { dst: 4, weight: 0.5 },
            InferMsg::SelfEmb { h: vec![0.1; 8] },
            InferMsg::InEmb { src: 2, weight: 1.0, h: vec![] },
            InferMsg::OutEdge { dst: 7, weight: 2.0 },
            InferMsg::Emb { h: vec![-1.0] },
            InferMsg::Score { probs: vec![0.25, 0.75] },
            InferMsg::Partial { segment: 3, n: 17, total_w: 4.5, acc: vec![1.0, -2.0] },
        ];
        for m in msgs {
            assert_eq!(InferMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }
}
