//! Regression gate: the per-function lock pass and the interprocedural
//! engine must agree on intra-function chains.
//!
//! The interprocedural pass has an *intra mode* (`interproc(files, true)`)
//! that pushes every recorded acquisition and blocking site through the
//! same `judge` core as single-frame chains. On fixtures where every chain
//! is lexically inside one function, that mode must reproduce exactly the
//! per-function findings — same kinds on the same lines, nothing extra,
//! nothing missing. This pins the two passes to one semantics: a future
//! edit that changes what one pass sees without the other fails here.
//!
//! `UntrackedLock` is excluded from the comparison: a raw `.lock()` is a
//! property of a single token, not of a chain, so it is reported by the
//! per-function pass only and has no interprocedural counterpart.

use agl_analysis::scanner::{scan, test_regions};
use agl_analysis::{interproc, walk, FileWalk, LockFindingKind};

/// Single-function fixtures covering every chain-related finding kind plus
/// the clean shapes that must stay clean.
const SINGLE_FN_FIXTURES: &[(&str, &str)] = &[
    (
        "inversion",
        "fn bad(&self) {\n    let a = self.lock_shard(1);\n    let b = self.lock_shard(0);\n}\n",
    ),
    (
        "shard_before_versions",
        "fn bad(&self) {\n    let sh = self.lock_shard(2);\n    let vt = self.lock_versions();\n}\n",
    ),
    (
        "double_lock",
        "fn bad(&self) {\n    let a = self.lock_barrier();\n    let b = self.lock_barrier();\n}\n",
    ),
    (
        "unordered_shards",
        "fn bad(&self) {\n    let a = self.lock_shard(i);\n    let b = self.lock_shard(j);\n}\n",
    ),
    (
        "send_while_holding",
        "fn bad(&self, tx: &Sender<u8>) {\n    let g = self.lock_versions();\n    tx.send(1);\n}\n",
    ),
    (
        "wait_holding_other_guard",
        "fn bad(&self) {\n    let b = self.lock_barrier();\n    let v = self.lock_versions();\n    v.wait_while(&self.cv, |s| s.busy);\n}\n",
    ),
    (
        "clean_canonical",
        "fn ok(&self) {\n    let b = self.lock_barrier();\n    let v = self.lock_versions();\n    let s = self.lock_shard(0);\n}\n",
    ),
    (
        "clean_condvar_own_guard",
        "fn ok(&self) {\n    let mut v = self.lock_versions();\n    v = v.wait_while(&self.cv, |s| s.busy);\n    let s = self.lock_shard(0);\n}\n",
    ),
    (
        "clean_drop_then_lower",
        "fn ok(&self) {\n    let a = self.lock_shard(3);\n    drop(a);\n    let b = self.lock_shard(0);\n}\n",
    ),
    (
        "multiple_findings_one_fn",
        "fn bad(&self) {\n    let s = self.lock_shard(2);\n    let v = self.lock_versions();\n    let b = self.lock_barrier();\n}\n",
    ),
];

/// The per-function findings of `src`, as a sorted `(kind, line)` multiset,
/// minus `UntrackedLock`.
fn per_function(src: &str) -> Vec<(LockFindingKind, usize)> {
    let scanned = scan(src);
    let mut out: Vec<_> = agl_analysis::lockgraph::analyze(&walk(&scanned, &[]))
        .lock_findings
        .into_iter()
        .filter(|f| f.kind != LockFindingKind::UntrackedLock)
        .map(|f| (f.kind, f.line))
        .collect();
    out.sort_by_key(|(k, l)| (format!("{k:?}"), *l));
    out
}

/// The interprocedural pass in intra mode on the same source, as the same
/// sorted `(kind, line)` multiset.
fn intra_mode(src: &str) -> Vec<(LockFindingKind, usize)> {
    let scanned = scan(src);
    let analysis = walk(&scanned, &[]);
    let in_test = test_regions(&scanned);
    let files = [FileWalk { path: "fixture.rs", walk: &analysis, in_test: &in_test }];
    let mut out: Vec<_> = interproc(&files, true).into_iter().map(|f| (f.kind, f.line)).collect();
    out.sort_by_key(|(k, l)| (format!("{k:?}"), *l));
    out
}

#[test]
fn passes_agree_on_every_single_function_fixture() {
    for (name, src) in SINGLE_FN_FIXTURES {
        let per_fn = per_function(src);
        let intra = intra_mode(src);
        assert_eq!(
            per_fn, intra,
            "fixture {name:?}: per-function pass found {per_fn:?} but the interprocedural \
             engine (intra mode) found {intra:?}"
        );
    }
}

#[test]
fn intra_chains_never_leak_into_the_lint_rule() {
    // The shipped `lock-order/interproc` rule filters to chains of ≥ 2
    // frames; on single-function fixtures, intra mode produces exactly the
    // single-frame chains, so the filtered set must be empty — i.e. the two
    // rules partition the findings with no overlap.
    for (name, src) in SINGLE_FN_FIXTURES {
        let scanned = scan(src);
        let analysis = walk(&scanned, &[]);
        let in_test = test_regions(&scanned);
        let files = [FileWalk { path: "fixture.rs", walk: &analysis, in_test: &in_test }];
        let multi: Vec<_> = interproc(&files, false).into_iter().filter(|f| f.chain.len() >= 2).collect();
        assert!(multi.is_empty(), "fixture {name:?} produced multi-frame chains: {multi:?}");
    }
}

#[test]
fn chains_render_site_by_site() {
    // Library-level check of the witness format the binary prints: a split
    // inversion must render every hop as `fn (file:line: what)`.
    let src = "impl Ps {\n    fn push(&self) {\n        let v = self.lock_versions();\n        self.rebalance();\n        drop(v);\n    }\n    fn rebalance(&self) {\n        let b = self.lock_barrier();\n    }\n}\n";
    let scanned = scan(src);
    let analysis = walk(&scanned, &[]);
    let in_test = test_regions(&scanned);
    let files = [FileWalk { path: "ps.rs", walk: &analysis, in_test: &in_test }];
    let findings = interproc(&files, false);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let rendered = agl_analysis::render_chain(&findings[0].chain);
    assert_eq!(rendered, "push (ps.rs:4: calls Ps::rebalance) → rebalance (ps.rs:8: acquires barrier)");
}
