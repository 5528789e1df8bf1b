//! Property corpus for the edge partitioner and the partitioned multiply.
//! Over random matrices and the named edge cases (more threads than rows,
//! one mega-row hub, empty matrices, a zero-column dense operand):
//!
//! * every partition `EdgePartition::new` produces covers the rows: its
//!   bounds start at 0, end at `n_rows` and strictly ascend when rows exist;
//! * it is nnz-balanced: each part carries at most
//!   `ceil(nnz / parts) + max_row_nnz` edges, since the greedy splitter
//!   closes a part at the first row boundary past the ideal share;
//! * `ExecCtx::parallel(t).spmm` equals `Csr::spmm` bit for bit for every
//!   `t` in `1..=9`.

use agl_tensor::{seeded_rng, Coo, Csr, EdgePartition, ExecCtx, Matrix, Rng, SmallRng};

fn random_csr(rng: &mut SmallRng, n_rows: usize, n_cols: usize, n_entries: usize) -> Csr {
    let mut coo = Coo::new(n_rows, n_cols);
    for _ in 0..n_entries {
        let r = rng.gen_range(0..n_rows.max(1)) as u32;
        let c = rng.gen_range(0..n_cols.max(1)) as u32;
        coo.push(r, c, 1.0);
    }
    coo.into_csr()
}

/// The random corpus: 128 matrices of up to 63 x 63 with up to 255 entries.
fn corpus() -> Vec<Csr> {
    let mut rng = seeded_rng(0xCF_0001);
    (0..128)
        .map(|_| {
            let n_rows = rng.gen_range(1..64usize);
            let n_cols = rng.gen_range(1..64usize);
            let n_entries = rng.gen_range(0..256usize);
            random_csr(&mut rng, n_rows, n_cols, n_entries)
        })
        .collect()
}

/// Assert `part` is a row cover and an nnz-balanced split of `csr`.
fn assert_valid(part: &EdgePartition, csr: &Csr, what: &str) {
    let bounds = part.bounds();
    assert!(bounds.len() >= 2, "{what}: bounds {bounds:?} hold no partition");
    assert_eq!(bounds[0], 0, "{what}: bounds {bounds:?} do not start at row 0");
    assert_eq!(bounds[bounds.len() - 1], csr.n_rows(), "{what}: bounds {bounds:?} do not end at n_rows");
    if csr.n_rows() > 0 {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{what}: bounds {bounds:?} do not strictly ascend");
    }
    if csr.nnz() == 0 {
        return;
    }
    let max_row_nnz = (0..csr.n_rows()).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
    let bound = csr.nnz().div_ceil(part.len()) + max_row_nnz;
    for i in 0..part.len() {
        let nnz = part.part_nnz(csr, i);
        assert!(nnz <= bound, "{what}: part {i} holds {nnz} edges, balance bound is {bound}");
    }
}

/// Assert the partitioned multiply equals the sequential one bit for bit at
/// every thread count in `1..=9`.
fn assert_spmm_matches(csr: &Csr, dense_cols: usize, seed: u64, what: &str) {
    let mut rng = seeded_rng(seed);
    let n = csr.n_cols() * dense_cols;
    let dense = Matrix::from_vec(csr.n_cols(), dense_cols, (0..n).map(|_| rng.gen_range(-1.0..1.0f32)).collect());
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want = csr.spmm(&dense);
    for t in 1..=9 {
        let got = ExecCtx::parallel(t).spmm(csr, &dense);
        assert_eq!(got.shape(), want.shape(), "{what}, t={t}: shape");
        assert!(bits(&got) == bits(&want), "{what}, t={t}: parallel spmm differs from Csr::spmm");
    }
}

#[test]
fn prop_constructed_partitions_are_conflict_free_and_balanced() {
    for (case, csr) in corpus().iter().enumerate() {
        for t in 1..=9 {
            let part = EdgePartition::new(csr, t);
            assert_valid(&part, csr, &format!("case {case}, t={t}, n_rows={}, nnz={}", csr.n_rows(), csr.nnz()));
        }
    }
}

#[test]
fn prop_parallel_spmm_is_bit_identical_to_sequential() {
    for (case, csr) in corpus().iter().enumerate() {
        let cols = 1 + case % 17;
        assert_spmm_matches(csr, cols, case as u64, &format!("case {case}, nnz={}, cols={cols}", csr.nnz()));
    }
}

#[test]
fn more_threads_than_rows() {
    // t > n_rows: the splitter must still produce a disjoint cover (some
    // threads simply get nothing to do).
    let mut coo = Coo::new(3, 3);
    for i in 0..3 {
        coo.push(i, i, 1.0);
    }
    let csr = coo.into_csr();
    for t in [4, 8, 100] {
        let part = EdgePartition::new(&csr, t);
        assert_valid(&part, &csr, &format!("t={t}"));
        assert!(part.len() <= 3, "t={t} produced {} parts for 3 rows", part.len());
    }
    assert_spmm_matches(&csr, 5, 1, "3 rows");
}

#[test]
fn single_mega_row_hub() {
    // One hub row holds every edge — the §3.2.2 skew case. Balance is
    // impossible, but the bound (ideal + max_row_nnz) admits what the greedy
    // splitter returns.
    let mut coo = Coo::new(16, 16);
    for c in 0..16 {
        coo.push(7, c, 1.0);
    }
    let csr = coo.into_csr();
    for t in 1..=6 {
        assert_valid(&EdgePartition::new(&csr, t), &csr, &format!("t={t}"));
    }
    assert_spmm_matches(&csr, 4, 2, "hub row");
}

#[test]
fn empty_matrix() {
    let csr = Coo::new(0, 0).into_csr();
    assert_valid(&EdgePartition::new(&csr, 4), &csr, "0x0");
    assert_spmm_matches(&csr, 3, 3, "0x0");

    // Rows but no edges.
    let csr = Coo::new(8, 8).into_csr();
    assert_valid(&EdgePartition::new(&csr, 4), &csr, "8x8, no edges");
    assert_spmm_matches(&csr, 3, 4, "8x8, no edges");
}

#[test]
fn zero_column_dense_operand() {
    let mut rng = seeded_rng(0xCF_0002);
    let csr = random_csr(&mut rng, 40, 40, 200);
    assert_spmm_matches(&csr, 0, 5, "40x40 @ 40x0");
}
