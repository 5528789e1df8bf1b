//! Multi-process inference: the worker-side factories that farm the
//! reduce rounds of [`crate::stream::StreamInfer::run_distributed`] out to
//! shuffle-worker processes (`agl-cli dist-worker --role infer-shuffle`).
//!
//! The driver ships one [`InferWorkerSpec`] as the job's worker spec —
//! the serialised model plus the knobs the reducer derives its behaviour
//! from — and, for combining jobs, the *same* bytes again as the
//! `CombineSpec` payload. Workers rebuild the exact `InferReducer` /
//! [`InferCombiner`] pair the in-process engine would run, so the
//! distributed output is byte-identical to [`crate::stream::StreamInfer::run_materialized`]
//! (see the `combine` module docs for why combining never moves a bit).

use crate::combine::InferCombiner;
use crate::pipeline::{InferConfig, InferReducer};
use agl_flat::SamplingStrategy;
use agl_mapreduce::codec::{get_u64, put_u64, Codec, CodecError};
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
    /// In-edge sampling; `None` lets the job install a combiner.
    pub sampling: SamplingStrategy,
    /// Seed for the sampling framework.
    pub seed: u64,
    /// Reduce partition count — the segment function of the fold.
    pub r_parts: u32,
}

impl Codec for InferWorkerSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.model.len() as u64);
        buf.extend_from_slice(&self.model);
        self.sampling.encode(buf);
        put_u64(buf, self.seed);
        put_u64(buf, u64::from(self.r_parts));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n_model = get_u64(input)?;
        if (input.len() as u64) < n_model {
            return Err(CodecError(format!("model image truncated: {} of {n_model} bytes", input.len())));
        }
        let (model, rest) = input.split_at(n_model as usize);
        *input = rest;
        let sampling = SamplingStrategy::decode(input)?;
        let seed = get_u64(input)?;
        let r_parts = get_u64(input)?;
        let r_parts = u32::try_from(r_parts)
            .ok()
            .filter(|&r| r > 0)
            .ok_or_else(|| CodecError(format!("worker spec r_parts = {r_parts} is not in 1..=u32::MAX")))?;
        Ok(Self { model: model.to_vec(), sampling, seed, r_parts })
    }
}

impl InferWorkerSpec {
    /// The spec for an inference job over `model` under `cfg`.
    pub fn new(model: &GnnModel, cfg: &InferConfig) -> Self {
        Self {
            model: model_to_bytes(model),
            sampling: cfg.sampling,
            seed: cfg.engine.seed,
            r_parts: cfg.engine.reduce_tasks as u32,
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
        r_parts: spec.r_parts as usize,
        counters: counters.clone(),
    }))
}

/// Combiner factory for shuffle-worker processes: decodes the same
/// [`InferWorkerSpec`] bytes (the driver sends them again as the combine
/// spec) and builds the identical [`InferCombiner`], at
/// [`crate::DEFAULT_DEGREE_THRESHOLD`]. Errors if the spec samples or its model
/// does not decompose — a driver installs no combiner for such jobs, so
/// receiving one is a protocol breach.
pub fn infer_combiner_from_spec(spec: &[u8], _counters: &Counters) -> Result<Box<dyn ShuffleCombiner>, String> {
    let spec = InferWorkerSpec::from_bytes(spec).map_err(|e| format!("bad GraphInfer combine spec: {e}"))?;
    if !matches!(spec.sampling, SamplingStrategy::None) {
        return Err("combine spec for a sampled job".into());
    }
    let model = model_from_bytes(&spec.model).map_err(|e| format!("bad model in combine spec: {e}"))?;
    InferCombiner::for_slices(&model.segment(), spec.r_parts as usize)
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
            r_parts: 8,
        };
        assert_eq!(InferWorkerSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
    }

    #[test]
    fn factories_reject_corrupt_specs() {
        let good = InferWorkerSpec::new(&model(ModelKind::Gcn), &InferConfig::default()).to_bytes();
        let c = Counters::new();
        assert!(infer_reducer_from_spec(&good, &c).is_ok());
        assert!(infer_combiner_from_spec(&good, &c).is_ok());
        assert!(infer_combiner_from_spec(b"junk", &c).is_err());
        // `r_parts` is the spec's last u64 field.
        let with_r_parts = |r_parts: u64| {
            let mut b = good[..good.len() - 8].to_vec();
            put_u64(&mut b, r_parts);
            b
        };
        assert_eq!(with_r_parts(4), good);
        for bad in [with_r_parts(0), with_r_parts((1 << 32) + 8)] {
            assert!(infer_reducer_from_spec(&bad, &c).is_err());
            assert!(infer_combiner_from_spec(&bad, &c).is_err());
        }
    }

    #[test]
    fn combiner_factory_rejects_non_combining_jobs() {
        let c = Counters::new();
        let sampled = InferConfig { sampling: SamplingStrategy::Uniform { max_degree: 3 }, ..InferConfig::default() };
        let sampled = InferWorkerSpec::new(&model(ModelKind::Gcn), &sampled).to_bytes();
        assert!(infer_reducer_from_spec(&sampled, &c).is_ok());
        assert!(infer_combiner_from_spec(&sampled, &c).is_err());
        let attention = InferWorkerSpec::new(&model(ModelKind::Gat { heads: 2 }), &InferConfig::default()).to_bytes();
        assert!(infer_combiner_from_spec(&attention, &c).is_err());
    }
}
