//! End-to-end tests of the `agl-lint` binary: seeded-violation fixtures
//! must fail with a `file:line` diagnostic; clean fixtures must exit 0.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch workspace under the system temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str, files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir().join(format!("agl-lint-fixture-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        for (rel, contents) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("fixture file has parent")).expect("create dirs");
            std::fs::write(path, contents).expect("write fixture file");
        }
        Self { root }
    }

    fn lint(&self) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_agl-lint"))
            .args(["--workspace"])
            .arg(&self.root)
            .output()
            .expect("run agl-lint")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_unwrap_violation_fails_with_file_line() {
    let fx = Fixture::new(
        "unwrap",
        &[("crates/mapreduce/src/bad.rs", "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n")],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/mapreduce/src/bad.rs:2: [no-panic]"), "missing file:line diagnostic in: {stdout}");
}

#[test]
fn clean_fixture_exits_zero() {
    let fx = Fixture::new(
        "clean",
        &[("crates/mapreduce/src/good.rs", "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n")],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn allow_comment_suppresses_in_binary_run() {
    let fx = Fixture::new(
        "allowed",
        &[(
            "crates/flat/src/ok.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    // agl-lint: allow(no-panic) — fixture\n    x.unwrap()\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn missing_safety_comment_reported_everywhere() {
    // safety-comment applies to all crates, not just pipeline libs.
    let fx = Fixture::new(
        "unsafe",
        &[("crates/util/src/lib.rs", "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n")],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[safety-comment]"), "{stdout}");
}

#[test]
fn tests_are_exempt_from_no_panic() {
    let fx =
        Fixture::new("exempt", &[("crates/mapreduce/tests/it.rs", "#[test]\nfn t() {\n    Some(1u32).unwrap();\n}\n")]);
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn seeded_lock_order_inversion_fails_with_file_line() {
    let fx = Fixture::new(
        "lockorder",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn sweep(&self) {\n        let a = self.lock_shard(1);\n        let b = self.lock_shard(0);\n        drop(b);\n        drop(a);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/bad.rs:4: [lock-order]"), "missing diagnostic in: {stdout}");
    assert!(stdout.contains("inversion"), "{stdout}");
    assert!(stdout.contains("shard(0)") && stdout.contains("shard(1)"), "{stdout}");
}

#[test]
fn seeded_lock_across_send_fails() {
    let fx = Fixture::new(
        "lockacrosssend",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn notify(&self, tx: &std::sync::mpsc::Sender<u64>) {\n        let v = self.lock_versions();\n        let _ = tx.send(v.global_step);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/bad.rs:4: [lock-order]"), "{stdout}");
    assert!(stdout.contains(".send("), "{stdout}");
}

#[test]
fn condvar_wait_on_own_guard_is_clean() {
    // The SSP gate pattern in agl-ps: block on a condvar *through* the
    // guard. The wait releases and reacquires the receiver's lock, so this
    // must lint clean — it is not a guard-held-across-block violation.
    let fx = Fixture::new(
        "condvarclean",
        &[(
            "crates/ps/src/gate.rs",
            "impl ParameterServer {\n    pub fn push_gate(&self, worker: usize, slack: u64) {\n        let mut v = self.lock_versions();\n        v.wait_while(&self.ssp_cv, |vt| vt.ssp_apply_blocked(worker, slack));\n        v.global_step += 1;\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(
        out.status.code(),
        Some(0),
        "condvar wait should be exempt; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn condvar_wait_exempt_but_send_on_same_guard_still_flagged() {
    // The exemption is for the wait only: the same guard held across a
    // `.send(…)` two lines later must still fail with file:line.
    let fx = Fixture::new(
        "condvarsend",
        &[(
            "crates/ps/src/gate.rs",
            "impl ParameterServer {\n    pub fn push_gate(&self, tx: &std::sync::mpsc::Sender<u64>) {\n        let mut v = self.lock_versions();\n        v.wait_while(&self.ssp_cv, |vt| vt.blocked());\n        let _ = tx.send(v.global_step);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/gate.rs:5: [lock-order]"), "{stdout}");
    assert!(stdout.contains(".send("), "{stdout}");
    // Exactly one finding: the wait on line 4 is not reported.
    assert!(!stdout.contains("gate.rs:4:"), "{stdout}");
}

#[test]
fn condvar_wait_holding_second_guard_fails() {
    let fx = Fixture::new(
        "condvarheld",
        &[(
            "crates/ps/src/gate.rs",
            "impl ParameterServer {\n    pub fn bad(&self) {\n        let b = self.lock_barrier();\n        let v = self.lock_versions();\n        v.wait_while(&self.cv, |s| s.busy);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/gate.rs:5: [lock-order]"), "{stdout}");
    assert!(stdout.contains("barrier"), "{stdout}");
}

#[test]
fn seeded_hot_loop_allocation_fails_with_file_line() {
    let fx = Fixture::new(
        "hotalloc",
        &[(
            "crates/tensor/src/partition.rs",
            "impl ExecCtx {\n    pub fn spmm(&self, rows: &[Vec<f32>]) -> Vec<f32> {\n        let mut out = Vec::new();\n        for r in rows {\n            let copy = r.clone();\n            out.extend(copy);\n        }\n        out\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/tensor/src/partition.rs:5: [no-hot-alloc]"), "missing diagnostic in: {stdout}");
    assert!(stdout.contains("hot fn spmm"), "{stdout}");
    // The pre-loop Vec::new on line 3 is fine: allocation outside the loop.
    assert!(!stdout.contains("partition.rs:3:"), "{stdout}");
}

// ---------------------------------------------------------------------------
// Interprocedural lock-order fixtures. Each of the "bad" shapes below passes
// the per-function pass (no single function misorders anything lexically)
// and deadlocks only under an unlucky interleaving — the static
// `lock-order/interproc` rule must prove them from the call graph alone.
// ---------------------------------------------------------------------------

#[test]
fn split_function_inversion_reports_interproc_with_full_chain() {
    // `push` holds the version lock while `rebalance` (a different function)
    // takes the barrier: versions → barrier inverts the canonical order, but
    // neither function alone shows a bad pair.
    let fx = Fixture::new(
        "interprocsplit",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn push(&self) {\n        let v = self.lock_versions();\n        self.rebalance();\n        drop(v);\n    }\n    fn rebalance(&self) {\n        let b = self.lock_barrier();\n        let _ = b;\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Anchored at the call site in the outermost caller, under the new rule.
    assert!(stdout.contains("crates/ps/src/bad.rs:4: [lock-order/interproc]"), "{stdout}");
    assert!(stdout.contains("inversion"), "{stdout}");
    // The witness chain names every hop site by site.
    assert!(stdout.contains("calls ParameterServer::rebalance"), "{stdout}");
    assert!(stdout.contains("rebalance (crates/ps/src/bad.rs:8: acquires barrier)"), "{stdout}");
    // Not double-reported by the per-function rule.
    assert!(!stdout.contains(" [lock-order] "), "{stdout}");
}

#[test]
fn unsplit_equivalent_still_reports_under_per_function_rule() {
    // The same inversion written inside one function must keep reporting
    // under the per-function rule — and only there.
    let fx = Fixture::new(
        "interprocunsplit",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn push(&self) {\n        let v = self.lock_versions();\n        let b = self.lock_barrier();\n        drop(b);\n        drop(v);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/bad.rs:4: [lock-order]"), "{stdout}");
    assert!(!stdout.contains("[lock-order/interproc]"), "{stdout}");
}

#[test]
fn three_hop_chain_is_proven_and_named_site_by_site() {
    // sweep → mid → low: the middle function touches no lock at all, yet
    // the chain shard(1) … shard(0) is an inversion.
    let fx = Fixture::new(
        "interprocthreehop",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn sweep(&self) {\n        let hi = self.lock_shard(1);\n        self.mid();\n        drop(hi);\n    }\n    fn mid(&self) {\n        self.low();\n    }\n    fn low(&self) {\n        let lo = self.lock_shard(0);\n        let _ = lo;\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/bad.rs:4: [lock-order/interproc]"), "{stdout}");
    for hop in [
        "sweep (crates/ps/src/bad.rs:4: calls ParameterServer::mid)",
        "mid (crates/ps/src/bad.rs:8: calls ParameterServer::low)",
        "low (crates/ps/src/bad.rs:11: acquires shard(0))",
    ] {
        assert!(stdout.contains(hop), "missing hop {hop:?} in: {stdout}");
    }
}

#[test]
fn cross_file_double_lock_is_proven() {
    // The caller and callee live in different files of the crate; the
    // callee re-acquires the version lock the caller already holds.
    let fx = Fixture::new(
        "interproccrossfile",
        &[
            (
                "crates/ps/src/server.rs",
                "impl ParameterServer {\n    pub fn push(&self) {\n        let v = self.lock_versions();\n        self.audit();\n        drop(v);\n    }\n}\n",
            ),
            (
                "crates/ps/src/audit.rs",
                "impl ParameterServer {\n    pub fn audit(&self) {\n        let v = self.lock_versions();\n        let _ = v;\n    }\n}\n",
            ),
        ],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/server.rs:4: [lock-order/interproc]"), "{stdout}");
    assert!(stdout.contains("re-acquiring versions"), "{stdout}");
    assert!(stdout.contains("audit (crates/ps/src/audit.rs:3: acquires versions)"), "{stdout}");
}

#[test]
fn guard_held_across_callee_condvar_wait_is_proven() {
    // The callee's wait releases only its own receiver; the caller's
    // barrier guard stays held while the thread is parked.
    let fx = Fixture::new(
        "interprocwait",
        &[(
            "crates/ps/src/gate.rs",
            "impl ParameterServer {\n    pub fn drain(&self) {\n        let b = self.lock_barrier();\n        self.gate();\n        drop(b);\n    }\n    fn gate(&self) {\n        let v = self.lock_versions();\n        let v = v.wait_while(&self.cv, |s| s.busy);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/ps/src/gate.rs:4: [lock-order/interproc]"), "{stdout}");
    assert!(stdout.contains("holding barrier"), "{stdout}");
    assert!(stdout.contains("may block at .wait_while"), "{stdout}");
}

#[test]
fn canonical_order_split_across_functions_is_clean() {
    // The real agl-ps shape: push holds the barrier and calls apply, which
    // takes versions then shards ascending — canonical, so the whole
    // workspace-shaped fixture must exit 0 (zero false positives).
    let fx = Fixture::new(
        "interproccanonical",
        &[(
            "crates/ps/src/server.rs",
            "impl ParameterServer {\n    pub fn push(&self) {\n        let st = self.lock_barrier();\n        self.apply(&st.accum);\n    }\n    fn apply(&self, grads: &[f32]) {\n        let mut v = self.lock_versions();\n        for i in 0..self.n {\n            let s = self.lock_shard(i);\n        }\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(
        out.status.code(),
        Some(0),
        "canonical split chain must be clean; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn method_calls_on_unknown_receivers_do_not_resolve() {
    // `v.push(…)` on a Vec must not resolve to `ParameterServer::push` by
    // name: resolution is conservative, so this fixture is clean even
    // though a misresolution would claim a versions → versions double-lock.
    let fx = Fixture::new(
        "interprocnoresolve",
        &[(
            "crates/ps/src/server.rs",
            "impl ParameterServer {\n    pub fn push(&self) {\n        let v = self.lock_versions();\n        let _ = v;\n    }\n    pub fn record(&self, mut log: Vec<u64>) {\n        let v = self.lock_versions();\n        log.push(v.global_step);\n        drop(v);\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(
        out.status.code(),
        Some(0),
        "unknown receivers must stay unresolved; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn interproc_finding_suppressable_at_the_call_site() {
    // The allow escape hatch applies against the anchoring call site's file
    // and line, like any other diagnostic.
    let fx = Fixture::new(
        "interprocallow",
        &[(
            "crates/ps/src/bad.rs",
            "impl ParameterServer {\n    pub fn push(&self) {\n        let v = self.lock_versions();\n        // agl-lint: allow(lock-order/interproc) — fixture\n        self.rebalance();\n        drop(v);\n    }\n    fn rebalance(&self) {\n        let b = self.lock_barrier();\n        let _ = b;\n    }\n}\n",
        )],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn rules_flag_lists_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_agl-lint")).arg("--rules").output().expect("run agl-lint --rules");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-panic",
        "safety-comment",
        "no-wallclock",
        "no-raw-spawn",
        "lock-order",
        "no-hot-alloc",
        "lock-order/interproc",
    ] {
        assert!(stdout.contains(rule), "rule {rule} missing from: {stdout}");
    }
}

#[test]
fn file_mode_lints_explicit_paths() {
    // Paths are taken as workspace-relative for rule dispatch, so lint a
    // real file from this repo: the analysis crate's own lib.rs is clean.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lib = manifest.join("src/lib.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_agl-lint")).arg(&lib).output().expect("run agl-lint <file>");
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}
