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
fn seeded_hot_loop_allocation_fails_with_file_line() {
    let fx = Fixture::new(
        "hotalloc",
        &[
            (
                "crates/tensor/src/partition.rs",
                "impl ExecCtx {\n    pub fn spmm(&self, rows: &[Vec<f32>]) -> Vec<f32> {\n        let mut out = Vec::new();\n        for r in rows {\n            let copy = r.clone();\n            out.extend(copy);\n        }\n        out\n    }\n}\n",
            ),
            (
                "crates/ps/src/server.rs",
                "impl ParameterServer {\n    fn apply(&self, shards: &mut [Shard], grads: &[f32]) {\n        for (i, s) in shards.iter_mut().enumerate() {\n            let g = grads[self.bounds[i]..self.bounds[i + 1]].to_vec();\n            s.params_opt_step(&g);\n        }\n    }\n}\n",
            ),
        ],
    );
    let out = fx.lint();
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/tensor/src/partition.rs:5: [no-hot-alloc]"), "missing diagnostic in: {stdout}");
    assert!(stdout.contains("hot fn spmm"), "{stdout}");
    // The pre-loop Vec::new on line 3 is fine: allocation outside the loop.
    assert!(!stdout.contains("partition.rs:3:"), "{stdout}");
    // The parameter server's apply loop is a hot function too.
    assert!(stdout.contains("crates/ps/src/server.rs:4: [no-hot-alloc]"), "missing diagnostic in: {stdout}");
    assert!(stdout.contains("hot fn apply"), "{stdout}");
}

#[test]
fn rules_flag_lists_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_agl-lint")).arg("--rules").output().expect("run agl-lint --rules");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ["no-panic", "safety-comment", "no-wallclock", "no-raw-spawn", "no-hot-alloc", "atomics"] {
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
