//! Finite-difference validation of every hand-derived backward pass.
//!
//! For each architecture we build a small model, define the scalar objective
//! `L = Σ_ij W_ij · logits_ij` (a fixed weighting so grad_logits is a
//! constant matrix), run the analytic backward, and compare every parameter
//! gradient against central finite differences — on the full adjacency and
//! on its §3.3.2-pruned per-layer variants, where each layer computes only
//! the rows a target can reach. This is the ground-truth check the
//! layer-level unit tests rely on.

use agl_graph::bfs::{multi_source_distances, UNREACHED};
use agl_nn::{GnnModel, Loss, ModelConfig, ModelKind};
use agl_tensor::{seeded_rng, Coo, Csr, ExecCtx, Matrix};

const N: usize = 5;
const IN_DIM: usize = 3;

fn adjacency() -> Csr {
    // A small graph with varied in-degrees (0, 1, 2, 3 entries per row) so
    // every code path (empty rows, hubs) is exercised.
    let mut coo = Coo::new(N, N);
    coo.push(0, 1, 1.0);
    coo.push(0, 2, 0.5);
    coo.push(0, 4, 2.0);
    coo.push(1, 2, 1.0);
    coo.push(1, 3, 1.0);
    coo.push(3, 4, 1.0);
    coo.into_csr()
}

fn features() -> Matrix {
    // Fixed, irrational-ish values away from activation kinks.
    Matrix::from_vec(N, IN_DIM, (0..N * IN_DIM).map(|i| ((i * 37 % 17) as f32) * 0.13 - 1.05).collect())
}

fn logit_weights(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| ((i % 7) as f32) * 0.3 - 0.9).collect())
}

/// Objective value for the current parameters.
fn objective(model: &GnnModel, adjs: &[Csr], x: &Matrix, targets: &[usize]) -> f64 {
    let ctx = ExecCtx::sequential();
    let pass = model.forward(adjs, x, targets, false, &ctx, &mut seeded_rng(0));
    let w = logit_weights(pass.logits.rows(), pass.logits.cols());
    pass.logits.as_slice().iter().zip(w.as_slice()).map(|(&l, &c)| (l as f64) * (c as f64)).sum()
}

/// Keep-masks of graph pruning: layer `k` keeps row `v` iff
/// `d(targets, v) ≤ K-1-k`.
fn keep_masks(raw: &Csr, targets: &[usize], n_layers: usize) -> Vec<Vec<bool>> {
    let sources: Vec<u32> = targets.iter().map(|&t| t as u32).collect();
    let dist = multi_source_distances(raw, &sources, Some(n_layers as u32));
    (0..n_layers).map(|k| dist.iter().map(|&d| d != UNREACHED && d <= (n_layers - 1 - k) as u32).collect()).collect()
}

fn gradcheck(kind: ModelKind, n_layers: usize) {
    check(kind, n_layers, &[0, 3], false);
}

/// Target 0 alone: node 3 is two hops upstream, so a 2-layer model drops it
/// from layer 0 and a 3-layer model drops rows 1–4 from the last layer
/// and row 3 from the middle one.
fn gradcheck_pruned(kind: ModelKind, n_layers: usize) {
    check(kind, n_layers, &[0], true);
}

fn check(kind: ModelKind, n_layers: usize, targets: &[usize], pruned: bool) {
    let mut cfg = ModelConfig::new(kind, IN_DIM, 4, 2, n_layers, Loss::SoftmaxCrossEntropy).with_seed(17);
    // Finite differences need a smooth activation: a ReLU kink crossed
    // within ±eps makes the FD slope an average of the two sides. Sigmoid
    // (and GAT's ELU, which is C¹) keep the check exact; the kinked
    // activations' derivatives are unit-tested directly in agl-tensor.
    if !matches!(kind, ModelKind::Gat { .. } | ModelKind::GeniePath) {
        cfg.hidden_act = agl_tensor::ops::Activation::Sigmoid;
    }
    let mut model = GnnModel::new(cfg);
    let raw = adjacency();
    let keep = pruned.then(|| keep_masks(&raw, targets, n_layers));
    let adjs = model.prepare_adjs(&raw, keep.as_deref());
    let x = features();
    let ctx = ExecCtx::sequential();

    // Analytic gradients.
    model.zero_grads();
    let pass = model.forward(&adjs, &x, targets, false, &ctx, &mut seeded_rng(0));
    let w = logit_weights(pass.logits.rows(), pass.logits.cols());
    model.backward(&adjs, &pass, &w, &ctx);
    let analytic = model.grad_vector();

    // Finite differences over every parameter.
    let base = model.param_vector();
    let eps = 2e-2f32;
    let mut max_err = 0.0f64;
    let mut worst = 0usize;
    for i in 0..base.len() {
        let mut hi = base.clone();
        hi[i] += eps;
        model.load_param_vector(&hi);
        let f_hi = objective(&model, &adjs, &x, targets);
        let mut lo = base.clone();
        lo[i] -= eps;
        model.load_param_vector(&lo);
        let f_lo = objective(&model, &adjs, &x, targets);
        let fd = (f_hi - f_lo) / (2.0 * eps as f64);
        let a = analytic[i] as f64;
        let err = (a - fd).abs() / (1.0 + a.abs().max(fd.abs()));
        if err > max_err {
            max_err = err;
            worst = i;
        }
    }
    model.load_param_vector(&base);
    assert!(
        max_err < 5e-3,
        "{kind:?} {n_layers}-layer (pruned={pruned}): worst relative grad error {max_err:.2e} at param {worst}"
    );
}

#[test]
fn gradcheck_gcn_1layer() {
    gradcheck(ModelKind::Gcn, 1);
}

#[test]
fn gradcheck_gcn_2layer() {
    gradcheck(ModelKind::Gcn, 2);
}

#[test]
fn gradcheck_sage_2layer() {
    gradcheck(ModelKind::Sage, 2);
}

#[test]
fn gradcheck_gin_2layer() {
    gradcheck(ModelKind::Gin, 2);
}

#[test]
fn gradcheck_geniepath_1layer() {
    gradcheck(ModelKind::GeniePath, 1);
}

#[test]
fn gradcheck_geniepath_2layer() {
    gradcheck(ModelKind::GeniePath, 2);
}

#[test]
fn gradcheck_gat_1layer() {
    gradcheck(ModelKind::Gat { heads: 2 }, 1);
}

#[test]
fn gradcheck_gat_2layer() {
    gradcheck(ModelKind::Gat { heads: 2 }, 2);
}

#[test]
fn gradcheck_gat_3layer_single_head() {
    gradcheck(ModelKind::Gat { heads: 1 }, 3);
}

#[test]
fn gradcheck_pruned_gcn_2layer() {
    gradcheck_pruned(ModelKind::Gcn, 2);
}

#[test]
fn gradcheck_pruned_gcn_3layer() {
    gradcheck_pruned(ModelKind::Gcn, 3);
}

#[test]
fn gradcheck_pruned_sage_2layer() {
    gradcheck_pruned(ModelKind::Sage, 2);
}

#[test]
fn gradcheck_pruned_sage_3layer() {
    gradcheck_pruned(ModelKind::Sage, 3);
}

#[test]
fn gradcheck_pruned_gin_2layer() {
    gradcheck_pruned(ModelKind::Gin, 2);
}

#[test]
fn gradcheck_pruned_gin_3layer() {
    gradcheck_pruned(ModelKind::Gin, 3);
}

#[test]
fn gradcheck_pruned_geniepath_2layer() {
    gradcheck_pruned(ModelKind::GeniePath, 2);
}

#[test]
fn gradcheck_pruned_geniepath_3layer() {
    gradcheck_pruned(ModelKind::GeniePath, 3);
}

#[test]
fn gradcheck_pruned_gat_2layer() {
    gradcheck_pruned(ModelKind::Gat { heads: 2 }, 2);
}

#[test]
fn gradcheck_pruned_gat_3layer() {
    gradcheck_pruned(ModelKind::Gat { heads: 2 }, 3);
}

#[test]
fn pruned_fixture_drops_rows_at_every_pruned_layer() {
    let raw = adjacency();
    let kept = |n_layers| -> Vec<usize> {
        keep_masks(&raw, &[0], n_layers).iter().map(|m| m.iter().filter(|&&k| k).count()).collect()
    };
    assert_eq!(kept(2), vec![4, 1]);
    assert_eq!(kept(3), vec![N, 4, 1]);
}

/// Loss-through-model check: gradient of the *actual* training losses.
#[test]
fn gradcheck_end_to_end_loss() {
    for (loss, labels) in [
        (Loss::SoftmaxCrossEntropy, Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])),
        (Loss::BceWithLogits, Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]])),
    ] {
        let cfg = ModelConfig::new(ModelKind::Sage, IN_DIM, 4, 2, 2, loss).with_seed(23);
        let mut model = GnnModel::new(cfg);
        let raw = adjacency();
        let adjs = model.prepare_adjs(&raw, None);
        let x = features();
        let targets = [0usize, 3];
        let ctx = ExecCtx::sequential();

        model.zero_grads();
        let pass = model.forward(&adjs, &x, &targets, false, &ctx, &mut seeded_rng(0));
        let (_, grad_logits) = loss.forward_backward(&pass.logits, &labels);
        model.backward(&adjs, &pass, &grad_logits, &ctx);
        let analytic = model.grad_vector();

        let base = model.param_vector();
        let eps = 2e-2f32;
        // Spot-check a spread of parameters (full sweep covered above).
        let stride = (base.len() / 40).max(1);
        for i in (0..base.len()).step_by(stride) {
            let mut hi = base.clone();
            hi[i] += eps;
            model.load_param_vector(&hi);
            let p_hi = model.forward(&adjs, &x, &targets, false, &ctx, &mut seeded_rng(0));
            let (l_hi, _) = loss.forward_backward(&p_hi.logits, &labels);
            let mut lo = base.clone();
            lo[i] -= eps;
            model.load_param_vector(&lo);
            let p_lo = model.forward(&adjs, &x, &targets, false, &ctx, &mut seeded_rng(0));
            let (l_lo, _) = loss.forward_backward(&p_lo.logits, &labels);
            let fd = ((l_hi - l_lo) / (2.0 * eps)) as f64;
            let a = analytic[i] as f64;
            assert!(
                (a - fd).abs() / (1.0 + a.abs().max(fd.abs())) < 1e-2,
                "{loss:?} param {i}: analytic {a:.5} vs fd {fd:.5}"
            );
        }
        model.load_param_vector(&base);
    }
}
