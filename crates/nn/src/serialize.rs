//! Model (de)serialisation to a flat byte string.
//!
//! A trained model must cross two boundaries: from GraphTrainer to
//! GraphInfer (which re-loads it slice by slice), and to disk for the
//! examples. The format is the model's [`ModelConfig`] followed by the flat
//! parameter vector; loading rebuilds the architecture from the config and
//! installs the parameters, so a round-tripped model is bit-identical.

use crate::loss::Loss;
use crate::model::{GnnModel, ModelConfig, ModelKind};
use agl_tensor::ops::Activation;

/// Serialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializeError(pub String);

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model serialize error: {}", self.0)
    }
}

impl std::error::Error for SerializeError {}

const MAGIC: &[u8; 4] = b"AGL1";

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn need<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SerializeError> {
    if input.len() < n {
        return Err(SerializeError(format!("truncated: need {n}, have {}", input.len())));
    }
    let (h, t) = input.split_at(n);
    *input = t;
    Ok(h)
}

fn get_u32(input: &mut &[u8]) -> Result<u32, SerializeError> {
    Ok(u32::from_le_bytes(need(input, 4)?.try_into().unwrap()))
}

fn get_u64(input: &mut &[u8]) -> Result<u64, SerializeError> {
    Ok(u64::from_le_bytes(need(input, 8)?.try_into().unwrap()))
}

fn get_f32(input: &mut &[u8]) -> Result<f32, SerializeError> {
    Ok(f32::from_le_bytes(need(input, 4)?.try_into().unwrap()))
}

fn act_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::LeakyRelu => 1,
        Activation::Elu => 2,
        Activation::Sigmoid => 3,
        Activation::Linear => 4,
    }
}

fn act_from(t: u8) -> Result<Activation, SerializeError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::LeakyRelu,
        2 => Activation::Elu,
        3 => Activation::Sigmoid,
        4 => Activation::Linear,
        _ => return Err(SerializeError(format!("bad activation tag {t}"))),
    })
}

/// Serialise config + parameters.
pub fn model_to_bytes(model: &GnnModel) -> Vec<u8> {
    let cfg = model.config();
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    let (kind_tag, heads) = match cfg.kind {
        ModelKind::Gcn => (0u8, 0u32),
        ModelKind::Sage => (1, 0),
        ModelKind::Gat { heads } => (2, heads as u32),
        ModelKind::Gin => (3, 0),
        ModelKind::GeniePath => (4, 0),
    };
    buf.push(kind_tag);
    put_u32(&mut buf, heads);
    put_u32(&mut buf, cfg.in_dim as u32);
    put_u32(&mut buf, cfg.hidden_dim as u32);
    put_u32(&mut buf, cfg.out_dim as u32);
    put_u32(&mut buf, cfg.n_layers as u32);
    buf.push(act_tag(cfg.hidden_act));
    put_f32(&mut buf, cfg.dropout);
    buf.push(match cfg.loss {
        Loss::SoftmaxCrossEntropy => 0,
        Loss::BceWithLogits => 1,
    });
    put_u64(&mut buf, cfg.seed);
    let flat = model.param_vector();
    put_u32(&mut buf, flat.len() as u32);
    for v in flat {
        put_f32(&mut buf, v);
    }
    buf
}

/// Rebuild a model from [`model_to_bytes`] output. Every header field is
/// checked against the input's length before the model is allocated, so
/// hostile or truncated bytes are an error, never a panic or a huge
/// allocation.
pub fn model_from_bytes(mut input: &[u8]) -> Result<GnnModel, SerializeError> {
    let magic = need(&mut input, 4)?;
    if magic != MAGIC {
        return Err(SerializeError("bad magic".into()));
    }
    let kind_tag = need(&mut input, 1)?[0];
    let heads = get_u32(&mut input)? as usize;
    let kind = match kind_tag {
        0 => ModelKind::Gcn,
        1 => ModelKind::Sage,
        2 => ModelKind::Gat { heads },
        3 => ModelKind::Gin,
        4 => ModelKind::GeniePath,
        t => return Err(SerializeError(format!("bad kind tag {t}"))),
    };
    let in_dim = get_u32(&mut input)? as usize;
    let hidden_dim = get_u32(&mut input)? as usize;
    let out_dim = get_u32(&mut input)? as usize;
    let n_layers = get_u32(&mut input)? as usize;
    let hidden_act = act_from(need(&mut input, 1)?[0])?;
    let dropout = get_f32(&mut input)?;
    let loss = match need(&mut input, 1)?[0] {
        0 => Loss::SoftmaxCrossEntropy,
        1 => Loss::BceWithLogits,
        t => return Err(SerializeError(format!("bad loss tag {t}"))),
    };
    let seed = get_u64(&mut input)?;
    let n = get_u32(&mut input)? as usize;
    // With at least one layer, a nonzero hidden width and (for GAT) a head,
    // every layer owns a parameter, so the count check below also bounds
    // the number of layers by the input's length.
    if n_layers == 0 || hidden_dim == 0 {
        return Err(SerializeError(format!("{n_layers} GNN layers of width {hidden_dim}")));
    }
    match kind {
        ModelKind::Gat { heads: 0 } => return Err(SerializeError("GAT model with zero heads".into())),
        ModelKind::Gat { .. } => {}
        _ if heads != 0 => return Err(SerializeError(format!("{heads} heads on a non-GAT model"))),
        _ => {}
    }
    let cfg = ModelConfig { kind, in_dim, hidden_dim, out_dim, n_layers, hidden_act, dropout, loss, seed };
    let expected = cfg.param_count();
    if n as u64 != expected {
        return Err(SerializeError(format!("param count {n} != expected {expected}")));
    }
    if input.len() as u64 != 4 * n as u64 {
        return Err(SerializeError(format!("{} parameter bytes for {n} parameters", input.len())));
    }
    let flat: Vec<f32> = input.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    let mut model = GnnModel::new(cfg);
    model.load_param_vector(&flat);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_like_model(kind: ModelKind) -> GnnModel {
        let cfg = ModelConfig::new(kind, 5, 4, 3, 2, Loss::BceWithLogits).with_dropout(0.1).with_seed(77);
        let mut m = GnnModel::new(cfg);
        // Perturb params so we are not just round-tripping the init.
        let v: Vec<f32> = m.param_vector().iter().enumerate().map(|(i, x)| x + (i as f32) * 1e-3).collect();
        m.load_param_vector(&v);
        m
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 3 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            let m = trained_like_model(kind);
            let bytes = model_to_bytes(&m);
            let back = model_from_bytes(&bytes).unwrap();
            assert_eq!(back.param_vector(), m.param_vector(), "{kind:?}");
            assert_eq!(back.config(), m.config(), "{kind:?}");
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = model_to_bytes(&trained_like_model(ModelKind::Gcn));
        bytes[0] = b'X';
        assert!(model_from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let bytes = model_to_bytes(&trained_like_model(ModelKind::Gcn));
        assert!(model_from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// Overwrite the little-endian u32 header field at `at`.
    fn with_u32(mut bytes: Vec<u8>, at: usize, v: u32) -> Vec<u8> {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_bytes_are_errors_not_panics() {
        // Header offsets: kind 4, heads 5, in 9, hidden 13, out 17,
        // layers 21, act 25, dropout 26, loss 30, seed 31, count 39.
        const HEADER: usize = 43;
        let gat = model_to_bytes(&trained_like_model(ModelKind::Gat { heads: 3 }));
        assert!(model_from_bytes(&with_u32(gat.clone(), 21, 0)).is_err(), "zero layers");
        assert!(model_from_bytes(&with_u32(gat, 5, 0)).is_err(), "zero GAT heads");
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 3 }, ModelKind::Gin, ModelKind::GeniePath]
        {
            let bytes = model_to_bytes(&trained_like_model(kind));
            for cut in 0..bytes.len() {
                assert!(model_from_bytes(&bytes[..cut]).is_err(), "{kind:?} cut at {cut}");
            }
            for at in 0..HEADER {
                let mut bent = bytes.clone();
                bent[at] ^= 0xFF;
                let res = model_from_bytes(&bent);
                // Dropout and seed are free values: any bits still load.
                let free = (26..30).contains(&at) || (31..39).contains(&at);
                assert!(free || res.is_err(), "{kind:?} byte {at} flipped still loads");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = model_to_bytes(&trained_like_model(ModelKind::Gcn));
        bytes.push(0);
        assert!(model_from_bytes(&bytes).is_err());
    }
}
