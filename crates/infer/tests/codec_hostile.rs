//! The two wire formats of distributed inference under hostile bytes: the
//! shuffle message `InferMsg` and the worker spec `InferWorkerSpec`. Every
//! truncation is an error, every single-bit flip is an error or a valid
//! value, and a length field set to `u32::MAX` is an error that allocates
//! nothing of that size.
//!
//! This binary installs a global allocator that records each thread's
//! largest allocation; keep unrelated tests out of it.

use agl_flat::SamplingStrategy;
use agl_infer::messages::InferMsg;
use agl_infer::InferWorkerSpec;
use agl_mapreduce::Codec;
use agl_nn::{model_to_bytes, GnnModel, Loss, ModelConfig, ModelKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Decode `bytes` as a `T`, requiring no single allocation larger than the
/// input could justify.
fn decode_checked<T: Codec>(bytes: &[u8], case: &str) -> Option<T> {
    LARGEST.with(|l| l.set(0));
    let res = T::from_bytes(bytes);
    let largest = LARGEST.with(Cell::get);
    let bound = 16 * bytes.len() + 1024;
    assert!(largest <= bound, "{case}: allocated {largest} bytes decoding {} input bytes", bytes.len());
    res.ok()
}

/// One message of every variant, with the byte offset of its `f32` count
/// field where it has one.
fn messages() -> Vec<(InferMsg, Option<usize>)> {
    vec![
        (InferMsg::NodeRow { features: vec![1.0, -2.5] }, Some(1)),
        (InferMsg::EdgeBySrc { dst: 4, weight: 0.5 }, None),
        (InferMsg::SelfEmb { h: vec![0.1, 0.2, 0.3] }, Some(1)),
        (InferMsg::InEmb { src: 2, weight: 1.5, h: vec![-1.0, 4.0] }, Some(13)),
        (InferMsg::OutEdge { dst: 7, weight: 2.0 }, None),
        (InferMsg::Emb { h: vec![-1.0] }, Some(1)),
        (InferMsg::Score { probs: vec![0.25, 0.75] }, Some(1)),
        (InferMsg::Partial { segment: 3, n: 17, total_w: 4.5, acc: vec![1.0, -2.0] }, Some(13)),
    ]
}

fn spec(sampling: SamplingStrategy) -> InferWorkerSpec {
    let model = GnnModel::new(ModelConfig::new(ModelKind::Gcn, 2, 3, 2, 1, Loss::SoftmaxCrossEntropy).with_seed(7));
    InferWorkerSpec { model: model_to_bytes(&model), sampling, seed: 42, r_parts: 4 }
}

fn specs() -> Vec<InferWorkerSpec> {
    vec![spec(SamplingStrategy::None), spec(SamplingStrategy::Weighted { max_degree: 5 })]
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for (m, _) in messages() {
        let bytes = m.to_bytes();
        assert_eq!(decode_checked::<InferMsg>(&bytes, "intact"), Some(m.clone()));
        for cut in 0..bytes.len() {
            let got = decode_checked::<InferMsg>(&bytes[..cut], &format!("{m:?} cut at {cut}"));
            assert!(got.is_none(), "{m:?}: a {cut}-byte prefix decoded");
        }
    }
    for s in specs() {
        let bytes = s.to_bytes();
        assert_eq!(decode_checked::<InferWorkerSpec>(&bytes, "intact spec"), Some(s.clone()));
        for cut in 0..bytes.len() {
            let got = decode_checked::<InferWorkerSpec>(&bytes[..cut], &format!("spec cut at {cut}"));
            assert!(got.is_none(), "{:?}: a {cut}-byte prefix decoded", s.sampling);
        }
    }
}

#[test]
fn every_bit_flip_is_an_error_or_a_valid_value() {
    for (m, _) in messages() {
        let bytes = m.to_bytes();
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(got) = decode_checked::<InferMsg>(&flipped, &format!("{m:?} bit {bit}")) {
                // Every field is stored verbatim, so a valid message
                // re-encodes to exactly the bytes it came from.
                assert_eq!(got.to_bytes(), flipped, "{m:?} bit {bit}: decoded {got:?}");
            }
        }
    }
    for s in specs() {
        let bytes = s.to_bytes();
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(got) = decode_checked::<InferWorkerSpec>(&flipped, &format!("spec bit {bit}")) {
                assert!(got.r_parts > 0, "spec bit {bit}: r_parts = 0 decoded");
                let again = InferWorkerSpec::from_bytes(&got.to_bytes()).unwrap();
                assert_eq!(again.to_bytes(), got.to_bytes(), "spec bit {bit}: {got:?} does not round-trip");
            }
        }
    }
}

#[test]
fn every_length_field_at_u32_max_is_an_error() {
    for (m, at) in messages() {
        let Some(at) = at else { continue };
        let mut bytes = m.to_bytes();
        bytes[at..at + 4].fill(0xFF);
        let got = decode_checked::<InferMsg>(&bytes, &format!("{m:?} count = u32::MAX"));
        assert!(got.is_none(), "{m:?}: a u32::MAX count decoded");
    }
    // The spec's one length field: the model image's u64 byte count.
    for s in specs() {
        for n_model in [u64::from(u32::MAX), u64::MAX] {
            let mut bytes = s.to_bytes();
            assert_eq!(&bytes[..8], &(s.model.len() as u64).to_le_bytes(), "model length offset");
            bytes[..8].copy_from_slice(&n_model.to_le_bytes());
            let got = decode_checked::<InferWorkerSpec>(&bytes, &format!("model length = {n_model}"));
            assert!(got.is_none(), "{:?}: model length {n_model} decoded", s.sampling);
        }
    }
}
