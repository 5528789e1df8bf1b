//! Bit-level pin of the batch forward/backward arithmetic.
//!
//! For every layer kind, a 2-layer model runs one training step on a seeded
//! random batch, and an FNV-1a digest of the logits' bits plus every
//! parameter gradient's bits must equal the recorded value. The grid covers
//! pruned and unpruned adjacencies at dropout 0 and 0.3, so any change to
//! which rows are computed, to the per-row accumulation order, or to RNG use
//! shows up as a digest mismatch rather than a tolerance-sized drift.

use agl_graph::bfs::{multi_source_distances, UNREACHED};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_tensor::rng::Rng;
use agl_tensor::{seeded_rng, Coo, Csr, ExecCtx, Matrix};

const N: usize = 40;
const IN_DIM: usize = 6;
const N_LAYERS: usize = 2;

/// A seeded random graph with a few isolated and hub-like rows.
fn batch(seed: u64) -> (Csr, Matrix, Vec<usize>, Matrix) {
    let mut rng = seeded_rng(seed);
    let mut coo = Coo::new(N, N);
    for _ in 0..3 * N {
        let dst = rng.gen_range(0..N as u32);
        let src = rng.gen_range(0..N as u32);
        if dst != src {
            coo.push(dst, src, rng.gen_range(0.5f32..2.0));
        }
    }
    let features = Matrix::from_vec(N, IN_DIM, (0..N * IN_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
    let targets = vec![1usize, 7, 19, 30];
    let mut labels = Matrix::zeros(targets.len(), 3);
    for i in 0..targets.len() {
        labels[(i, rng.gen_range(0..3usize))] = 1.0;
    }
    (coo.into_csr(), features, targets, labels)
}

/// §3.3.2 keep-masks: layer `k` keeps row `v` iff `d(targets, v) ≤ K-1-k`.
fn keep_masks(raw: &Csr, targets: &[usize]) -> Vec<Vec<bool>> {
    let sources: Vec<u32> = targets.iter().map(|&t| t as u32).collect();
    let dist = multi_source_distances(raw, &sources, Some(N_LAYERS as u32));
    (0..N_LAYERS).map(|k| dist.iter().map(|&d| d != UNREACHED && d <= (N_LAYERS - 1 - k) as u32).collect()).collect()
}

fn fnv1a(bits: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest(kind: ModelKind, pruned: bool, dropout: f32) -> u64 {
    let cfg =
        ModelConfig::new(kind, IN_DIM, 5, 3, N_LAYERS, Loss::SoftmaxCrossEntropy).with_seed(29).with_dropout(dropout);
    let mut model = GnnModel::new(cfg);
    let (raw, x, targets, labels) = batch(0xA61);
    let masks = keep_masks(&raw, &targets);
    let adjs = model.prepare_adjs(&raw, pruned.then_some(masks.as_slice()));
    let ctx = ExecCtx::sequential();
    model.zero_grads();
    let pass = model.forward(&adjs, &x, &targets, true, &ctx, &mut seeded_rng(5));
    let (_, grad) = model.loss(&pass.logits, &labels);
    model.backward(&adjs, &pass, &grad, &ctx);
    let logits = pass.logits.as_slice().iter().map(|v| v.to_bits());
    fnv1a(logits.chain(model.grad_vector().into_iter().map(f32::to_bits)))
}

const KINDS: [ModelKind; 5] =
    [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat { heads: 2 }, ModelKind::Gin, ModelKind::GeniePath];

/// `(kind index, pruned, dropout) -> digest`.
const PINNED: [(usize, bool, f32, u64); 20] = [
    (0, false, 0.0, 0xe77804882920ca80),
    (0, false, 0.3, 0x277ed670a61c1c17),
    (0, true, 0.0, 0xe77804882920ca80),
    (0, true, 0.3, 0x277ed670a61c1c17),
    (1, false, 0.0, 0xcba89bb6b87f567a),
    (1, false, 0.3, 0x4d5ffeaf2f128c39),
    (1, true, 0.0, 0xcba89bb6b87f567a),
    (1, true, 0.3, 0x4d5ffeaf2f128c39),
    (2, false, 0.0, 0x2bb51f64dff9ebbe),
    (2, false, 0.3, 0x0bf336d45e9b5bfe),
    (2, true, 0.0, 0x2bb51f64dff9ebbe),
    (2, true, 0.3, 0x0bf336d45e9b5bfe),
    (3, false, 0.0, 0x3937d7c1d335478e),
    (3, false, 0.3, 0xe1a43452a86aec60),
    (3, true, 0.0, 0x3937d7c1d335478e),
    (3, true, 0.3, 0xe1a43452a86aec60),
    (4, false, 0.0, 0xd2a4bd24e244eed1),
    (4, false, 0.3, 0xdf2a48055e846b23),
    (4, true, 0.0, 0xd2a4bd24e244eed1),
    (4, true, 0.3, 0xdf2a48055e846b23),
];

#[test]
fn forward_backward_bits_are_pinned() {
    let mut mismatches = Vec::new();
    for &(kind, pruned, dropout, want) in &PINNED {
        let got = digest(KINDS[kind], pruned, dropout);
        if got != want {
            mismatches
                .push(format!("{:?} pruned={pruned} dropout={dropout}: {got:#018x} != {want:#018x}", KINDS[kind]));
        }
    }
    assert!(mismatches.is_empty(), "arithmetic drifted:\n{}", mismatches.join("\n"));
}

#[test]
fn pruning_changes_the_batch() {
    // The pruned half of the grid must actually drop rows, or it pins
    // nothing the unpruned half does not.
    let (raw, _, targets, _) = batch(0xA61);
    let masks = keep_masks(&raw, &targets);
    for keep in &masks {
        let kept = keep.iter().filter(|&&k| k).count();
        assert!(kept > targets.len() - 1 && kept < N, "kept {kept} of {N}");
    }
}
