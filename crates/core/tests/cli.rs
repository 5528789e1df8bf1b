//! The §3.5 command line end to end: `demo → flat → train → infer` through
//! the real `agl-cli` binary, training at one and at two workers, plus the
//! `train` flags that must be rejected with an error rather than a panic, and
//! the flags, missing values and stray words every subcommand rejects.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agl-cli")).args(args).output().expect("spawn agl-cli")
}

fn ok(out: Output, what: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{what} failed:\nstdout: {stdout}\nstderr: {}", String::from_utf8_lossy(&out.stderr));
    stdout
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agl-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

/// `demo` + `flat` into `dir`: returns (nodes, edges, store) paths.
fn demo_and_flat(dir: &Path) -> (String, String, String) {
    let (nodes, edges, ids) = (path(dir, "nodes.tsv"), path(dir, "edges.tsv"), path(dir, "train_ids.txt"));
    let store = path(dir, "features");
    ok(cli(&["demo", "--out-dir", dir.to_str().unwrap(), "--nodes", "300"]), "demo");
    let flat = ok(
        cli(&[
            "flat",
            "--nodes",
            &nodes,
            "--edges",
            &edges,
            "--hops",
            "2",
            "--sampling",
            "uniform:10",
            "--targets",
            &ids,
            "--out",
            &store,
        ]),
        "flat",
    );
    assert!(flat.starts_with("GraphFlat: "), "flat output: {flat}");
    (nodes, edges, store)
}

#[test]
fn demo_flat_train_infer_chain_runs_at_one_and_two_workers() {
    let dir = temp_dir("chain");
    let (nodes, edges, store) = demo_and_flat(&dir);
    for workers in ["1", "2"] {
        let model = path(&dir, &format!("model-w{workers}.agl"));
        let train = ok(
            cli(&[
                "train",
                "--store",
                &store,
                "--epochs",
                "2",
                "--batch-size",
                "8",
                "--workers",
                workers,
                "--out",
                &model,
            ]),
            "train",
        );
        assert!(train.contains(&format!("{workers} workers")), "train output: {train}");
        assert_eq!(train.lines().filter(|l| l.starts_with("epoch ")).count(), 2, "train output: {train}");
        let scores = path(&dir, &format!("scores-w{workers}.tsv"));
        ok(
            cli(&[
                "infer",
                "--model",
                &model,
                "--nodes",
                &nodes,
                "--edges",
                &edges,
                "--sampling",
                "uniform:10",
                "--out",
                &scores,
            ]),
            "infer",
        );
        let n = std::fs::read_to_string(&scores).unwrap().lines().count();
        assert_eq!(n, 300, "one score per node");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_rejects_zero_counts_with_an_error() {
    let dir = temp_dir("reject");
    let (_, _, store) = demo_and_flat(&dir);
    let model = path(&dir, "model.agl");
    for (flag, value) in [("--batch-size", "0"), ("--workers", "0"), ("--epochs", "0")] {
        let out = cli(&["train", "--store", &store, flag, value, "--out", &model]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        assert!(stderr.contains(&format!("error: {flag} must be > 0")), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
    assert!(!Path::new(&model).exists(), "a rejected run wrote a model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_missing_values_and_stray_words_are_rejected() {
    for (args, offender) in [
        (&["infer-stream", "--synthetic-nodes", "50", "--verfy", "true"][..], "--verfy"),
        (&["infer-stream", "--synthetic-nodes", "50", "--verify"][..], "--verify"),
        (&["infer-stream", "--synthetic-nodes", "--verify", "true"][..], "--synthetic-nodes"),
        (&["infer-stream", "--synthetic-nodes", "50", "verify"][..], "verify"),
        (&["demo", "--out-dir", "unused", "--trace-out", "t.json"][..], "--trace-out"),
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(stderr.starts_with("error: ") && stderr.contains(&format!("{offender:?}")), "{args:?}: {stderr}");
    }
}
