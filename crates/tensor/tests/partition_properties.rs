//! Property corpus for the edge partitioner: every partition
//! `EdgePartition::new` produces — over random matrices and the named edge
//! cases (more threads than rows, one mega-row hub, empty matrices) — must
//! be conflict-free (disjoint row ranges covering the matrix) and
//! nnz-balanced: each part carries at most `ceil(nnz / parts) + max_row_nnz`
//! edges, since the greedy splitter closes a part at the first row boundary
//! past the ideal share.

use agl_tensor::{seeded_rng, Coo, Csr, EdgePartition, Rng, SmallRng};

fn random_csr(rng: &mut SmallRng, n_rows: usize, n_cols: usize, n_entries: usize) -> Csr {
    let mut coo = Coo::new(n_rows, n_cols);
    for _ in 0..n_entries {
        let r = rng.gen_range(0..n_rows.max(1)) as u32;
        let c = rng.gen_range(0..n_cols.max(1)) as u32;
        coo.push(r, c, 1.0);
    }
    coo.into_csr()
}

/// Assert `part` is a conflict-free, nnz-balanced split of `csr`.
fn assert_valid(part: &EdgePartition, csr: &Csr, what: &str) {
    if let Err(e) = part.check_conflict_free(csr.n_rows()) {
        panic!("{what}: {e}");
    }
    if part.is_empty() || csr.nnz() == 0 {
        return;
    }
    let max_row_nnz = (0..csr.n_rows()).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
    let bound = csr.nnz().div_ceil(part.len()) + max_row_nnz;
    for i in 0..part.len() {
        let nnz = part.part_nnz(csr, i);
        assert!(nnz <= bound, "{what}: part {i} holds {nnz} edges, balance bound is {bound}");
    }
}

#[test]
fn prop_constructed_partitions_are_conflict_free_and_balanced() {
    let mut rng = seeded_rng(0xCF_0001);
    for case in 0..128 {
        let n_rows = rng.gen_range(1..64usize);
        let n_cols = rng.gen_range(1..64usize);
        let n_entries = rng.gen_range(0..256usize);
        let csr = random_csr(&mut rng, n_rows, n_cols, n_entries);
        for t in 1..=9 {
            let part = EdgePartition::new(&csr, t);
            assert_valid(&part, &csr, &format!("case {case}, t={t}, n_rows={n_rows}, nnz={}", csr.nnz()));
        }
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
}

#[test]
fn empty_matrix() {
    let csr = Coo::new(0, 0).into_csr();
    assert_valid(&EdgePartition::new(&csr, 4), &csr, "0x0");

    // Rows but no edges.
    let csr = Coo::new(8, 8).into_csr();
    assert_valid(&EdgePartition::new(&csr, 4), &csr, "8x8, no edges");
}
