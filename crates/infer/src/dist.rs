//! Multi-process streaming inference: the worker-side factories and the
//! driver entry point that farm the GAS reduce rounds out to shuffle-worker
//! processes (`agl-cli dist-worker --infer`).
//!
//! The driver ships one [`InferWorkerSpec`] as the job's worker spec —
//! the serialised model plus the handful of knobs the reducer derives its
//! behaviour from — and, for combining jobs, the *same* bytes again as the
//! `CombineSpec` payload. Workers rebuild the exact `InferReducer` /
//! [`InferCombiner`] pair the in-process engine would run, so the
//! distributed output is byte-identical to [`crate::stream::StreamInfer::run_materialized`]
//! (and therefore bit-identical to the streamed run — see the `combine`
//! module docs for why combining never moves a bit).

use crate::combine::InferCombiner;
use crate::pipeline::{InferConfig, InferReducer};
use agl_flat::SamplingStrategy;
use agl_mapreduce::codec::{get_u64, get_u8, put_u64, put_u8, Codec, CodecError};
use agl_mapreduce::{Counters, Reducer, ShuffleCombiner};
use agl_nn::{model_from_bytes, model_to_bytes, GnnModel};
use std::sync::Arc;

/// Everything a shuffle-worker process needs to rebuild this job's
/// `InferReducer` (and, when the driver sends a combine spec, its
/// [`InferCombiner`]): the trained model and the reducer knobs. The model
/// serialisation is canonical, so the spec bytes — and therefore the whole
/// distributed job — are deterministic for a given model and config.
#[derive(Debug, Clone, PartialEq)]
pub struct InferWorkerSpec {
    /// [`model_to_bytes`] image of the trained model.
    pub model: Vec<u8>,
    /// In-edge sampling (GAS requires `None`; the classic fold honours it).
    pub sampling: SamplingStrategy,
    /// Seed for the sampling framework.
    pub seed: u64,
    /// Whether reducers run the GAS two-level segment fold.
    pub gas: bool,
    /// Reduce partition count — the segment function of the GAS fold.
    pub r_parts: u32,
    /// Bucket-local combiner degree threshold.
    pub degree_threshold: u32,
}

impl Codec for InferWorkerSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.model.len() as u64);
        buf.extend_from_slice(&self.model);
        self.sampling.encode(buf);
        put_u64(buf, self.seed);
        put_u8(buf, u8::from(self.gas));
        put_u64(buf, u64::from(self.r_parts));
        put_u64(buf, u64::from(self.degree_threshold));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n_model = get_u64(input)? as usize;
        if input.len() < n_model {
            return Err(CodecError(format!("model image truncated: {} of {n_model} bytes", input.len())));
        }
        let model = input[..n_model].to_vec();
        *input = &input[n_model..];
        let sampling = SamplingStrategy::decode(input)?;
        let seed = get_u64(input)?;
        let gas = get_u8(input)? != 0;
        let r_parts = get_u32_field(input, "r_parts")?;
        if r_parts == 0 {
            return Err(CodecError("worker spec has r_parts = 0".into()));
        }
        let degree_threshold = get_u32_field(input, "degree_threshold")?;
        Ok(Self { model, sampling, seed, gas, r_parts, degree_threshold })
    }
}

/// A `u32` knob carried in a `u64` wire field, refused (not truncated) when
/// it does not fit.
fn get_u32_field(input: &mut &[u8], what: &str) -> Result<u32, CodecError> {
    let v = get_u64(input)?;
    u32::try_from(v).map_err(|_| CodecError(format!("worker spec {what} = {v} exceeds u32")))
}

impl InferWorkerSpec {
    /// The spec for a [`crate::stream::StreamInfer`]-shaped job (`crate::stream` decides
    /// `gas` from the model and config; threshold `0` means no combining).
    pub fn new(model: &GnnModel, cfg: &InferConfig, gas: bool, degree_threshold: u32) -> Self {
        Self {
            model: model_to_bytes(model),
            sampling: cfg.sampling,
            seed: cfg.engine.seed,
            gas,
            r_parts: cfg.engine.reduce_tasks as u32,
            degree_threshold,
        }
    }
}

/// Reducer factory for shuffle-worker processes: decodes an
/// [`InferWorkerSpec`] shipped by the driver and builds the identical
/// `InferReducer` the in-process engine would run. Pass to
/// `agl_mapreduce::serve_shuffle_combining` together with
/// [`infer_combiner_from_spec`].
pub fn infer_reducer_from_spec(spec: &[u8], counters: &Counters) -> Result<Box<dyn Reducer>, String> {
    let spec = InferWorkerSpec::from_bytes(spec).map_err(|e| format!("bad GraphInfer worker spec: {e}"))?;
    let model = model_from_bytes(&spec.model).map_err(|e| format!("bad model in worker spec: {e}"))?;
    let k = model.n_layers();
    Ok(Box::new(InferReducer {
        slices: Arc::new(model.segment()),
        k,
        sampling: spec.sampling,
        seed: spec.seed,
        gas: spec.gas,
        r_parts: spec.r_parts as usize,
        counters: counters.clone(),
    }))
}

/// Combiner factory for shuffle-worker processes: decodes the same
/// [`InferWorkerSpec`] bytes (the driver sends them again as the combine
/// spec) and builds the identical [`InferCombiner`]. Errors if the spec's
/// model does not decompose or combining is disabled — a driver never sends
/// a combine spec for such jobs, so receiving one is a protocol breach.
pub fn infer_combiner_from_spec(spec: &[u8], _counters: &Counters) -> Result<Box<dyn ShuffleCombiner>, String> {
    let spec = InferWorkerSpec::from_bytes(spec).map_err(|e| format!("bad GraphInfer combine spec: {e}"))?;
    let model = model_from_bytes(&spec.model).map_err(|e| format!("bad model in combine spec: {e}"))?;
    if !spec.gas || spec.degree_threshold == 0 {
        return Err("combine spec for a non-combining job".into());
    }
    InferCombiner::for_slices(&model.segment(), spec.degree_threshold as usize, spec.r_parts as usize)
        .map(|c| Box::new(c) as Box<dyn ShuffleCombiner>)
        .ok_or_else(|| "combine spec model does not decompose".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_nn::{Loss, ModelConfig, ModelKind};

    fn model(kind: ModelKind) -> GnnModel {
        GnnModel::new(ModelConfig::new(kind, 4, 6, 2, 2, Loss::SoftmaxCrossEntropy).with_seed(7))
    }

    #[test]
    fn spec_round_trips() {
        let spec = InferWorkerSpec {
            model: model_to_bytes(&model(ModelKind::Gcn)),
            sampling: SamplingStrategy::Uniform { max_degree: 5 },
            seed: 42,
            gas: true,
            r_parts: 8,
            degree_threshold: 3,
        };
        assert_eq!(InferWorkerSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
    }

    #[test]
    fn factories_reject_corrupt_specs() {
        let good = InferWorkerSpec::new(&model(ModelKind::Gcn), &InferConfig::default(), true, 4).to_bytes();
        let c = Counters::new();
        assert!(infer_reducer_from_spec(&good, &c).is_ok());
        assert!(infer_combiner_from_spec(&good, &c).is_ok());
        assert!(infer_reducer_from_spec(&good[..good.len() / 2], &c).is_err());
        assert!(infer_combiner_from_spec(b"junk", &c).is_err());
        // `r_parts` and `degree_threshold` are the spec's last two u64 fields.
        let with_tail = |r_parts: u64, degree_threshold: u64| {
            let mut b = good[..good.len() - 16].to_vec();
            put_u64(&mut b, r_parts);
            put_u64(&mut b, degree_threshold);
            b
        };
        assert_eq!(with_tail(4, 4), good);
        for bad in [with_tail(0, 4), with_tail((1 << 32) + 8, 4), with_tail(8, (1 << 32) + 4)] {
            assert!(infer_reducer_from_spec(&bad, &c).is_err());
            assert!(infer_combiner_from_spec(&bad, &c).is_err());
        }
    }

    #[test]
    fn combiner_factory_rejects_non_combining_jobs() {
        let c = Counters::new();
        let no_combine = InferWorkerSpec::new(&model(ModelKind::Gcn), &InferConfig::default(), true, 0).to_bytes();
        assert!(infer_combiner_from_spec(&no_combine, &c).is_err());
        let attention =
            InferWorkerSpec::new(&model(ModelKind::Gat { heads: 2 }), &InferConfig::default(), true, 4).to_bytes();
        assert!(infer_combiner_from_spec(&attention, &c).is_err());
    }
}
