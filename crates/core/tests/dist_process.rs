//! Process-level distributed suite: drives the real `agl-cli` binary —
//! driver and workers as separate OS processes over Unix-domain sockets —
//! and asserts the CI-gated properties: byte-identical output vs the
//! in-process engines, deterministic recovery from a SIGKILLed shuffle
//! worker, a typed (non-hanging) failure from a SIGKILLed PS shard, and no
//! leaked processes or socket files afterwards.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_agl-cli")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agl-distproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dist_run(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(cli());
    cmd.args([
        "dist-run",
        "--dir",
        dir.to_str().unwrap(),
        "--nodes",
        "120",
        "--hops",
        "1",
        "--epochs",
        "2",
        "--shuffle-workers",
        "2",
        "--ps-shards",
        "2",
        "--train-workers",
        "2",
    ]);
    cmd.args(extra);
    cmd.output().expect("spawn agl-cli dist-run")
}

fn stdout_field(out: &Output, key: &str) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= line in output:\n{text}"))
        .to_string()
}

fn assert_no_leaks(dir: &Path) {
    let socks: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "sock"))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    assert!(socks.is_empty(), "leaked socket files: {socks:?}");
    // Only this test's workers: they listen on sockets inside `dir`, so
    // workers of tests running in parallel threads never match.
    let dir_pattern: String = dir
        .to_string_lossy()
        .chars()
        .flat_map(|c| if c.is_ascii_alphanumeric() || "/-_".contains(c) { vec![c] } else { vec!['\\', c] })
        .collect();
    let pattern = format!("dist-worker -[-]role .*{dir_pattern}/");
    let pgrep = Command::new("pgrep").args(["-f", &pattern]).output();
    if let Ok(p) = pgrep {
        let pids = String::from_utf8_lossy(&p.stdout);
        assert!(pids.trim().is_empty(), "leaked dist-worker processes: {pids}");
    }
}

#[test]
fn distributed_smoke_is_byte_identical_to_in_process() {
    let dir = temp_dir("smoke");
    let out = dist_run(&dir, &["--verify", "true"]);
    assert!(
        out.status.success(),
        "dist-run failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // verified=true means the driver compared every GraphFeature byte and
    // every final model parameter bit against a full in-process re-run.
    assert_eq!(stdout_field(&out, "verified"), "true");
    assert_eq!(stdout_field(&out, "task_retries"), "0");
    assert_no_leaks(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_shuffle_worker_is_rerun_deterministically() {
    let dir = temp_dir("killshuffle");
    // SIGKILL shuffle worker 0 right after its first reduce dispatch; the
    // survivor must absorb the lost partitions and the output must still
    // verify bit-for-bit against the in-process run.
    let out = dist_run(&dir, &["--verify", "true", "--kill-shuffle-after", "1"]);
    assert!(
        out.status.success(),
        "dist-run did not recover from the killed worker:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout_field(&out, "verified"), "true");
    let retries: u64 = stdout_field(&out, "task_retries").parse().unwrap();
    assert!(retries >= 1, "expected at least one task retry after the kill, got {retries}");
    assert_no_leaks(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_ps_shard_fails_typed_and_bounded() {
    let dir = temp_dir("killps");
    // SIGKILL PS shard 0 mid-epoch with a 2s read deadline: the run must
    // exit non-zero with a typed ps error — promptly, never a hang (the
    // test harness itself is the outer timeout).
    let out = dist_run(&dir, &["--kill-ps-after", "5", "--io-timeout-secs", "2", "--epochs", "3"]);
    assert!(
        !out.status.success(),
        "dist-run unexpectedly succeeded with a killed PS shard:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ps transport error") || stderr.contains("ps protocol violation"),
        "expected a typed ps error on stderr, got: {stderr}"
    );
    assert_no_leaks(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_dist_run_is_deterministic_and_golden_pinned() {
    // Two same-seed 2-worker runs under the logical clock must produce
    // byte-identical merged trace and metrics artifacts, and the trace is
    // additionally pinned to a golden file so cross-process span-merge
    // drift (ordering, ids, parenting) shows up as a diff. Regenerate a
    // deliberate change with
    // `AGL_UPDATE_GOLDEN=1 cargo test -p agl --test dist_process`.
    let mut artifacts = Vec::new();
    for run in 0..2 {
        let dir = temp_dir(&format!("traced{run}"));
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let out = dist_run(
            &dir,
            &[
                "--epochs",
                "1",
                "--clock",
                "logical",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );
        assert!(
            out.status.success(),
            "traced dist-run failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push((std::fs::read_to_string(&trace).unwrap(), std::fs::read_to_string(&metrics).unwrap()));
        assert_no_leaks(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(artifacts[0].0, artifacts[1].0, "logical-clock merged trace must be byte-identical across runs");
    assert_eq!(artifacts[0].1, artifacts[1].1, "logical-clock metrics dump must be byte-identical across runs");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dist_trace.json");
    if std::env::var_os("AGL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &artifacts[0].0).expect("write golden");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — regenerate with AGL_UPDATE_GOLDEN=1 cargo test -p agl --test dist_process");
    assert_eq!(
        artifacts[0].0, golden,
        "merged dist trace drifted from tests/golden/dist_trace.json; if the change \
         is deliberate, regenerate with AGL_UPDATE_GOLDEN=1"
    );

    // The offline analyzer must see the merge as causally linked: every
    // worker span parented under a driver RPC span, RPC telemetry nonzero.
    let report = agl::mapreduce::ObsReport::from_artifacts(&golden, None).expect("obs-report parses the golden");
    assert!(report.worker_spans > 0, "no worker spans in the merged trace");
    assert_eq!(
        report.parented_worker_spans, report.worker_spans,
        "every worker span must parent under a driver RPC span"
    );
}

#[test]
fn dist_worker_rejects_unknown_role() {
    let out = Command::new(cli())
        .args(["dist-worker", "--role", "mapper", "--listen", "unix:/tmp/never-bound.sock"])
        .output()
        .expect("spawn agl-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown role"));
}
