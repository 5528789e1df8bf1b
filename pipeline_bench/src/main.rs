//! `pipeline_bench` — the repository's benchmark.
//!
//! Five seeded workloads over the AGL pipeline (GraphFlat → GraphTrainer →
//! GraphInfer → serving, in threads and across sockets), end-to-end metrics
//! from an untraced run, per-layer metrics from a separate traced run.
//! `README.md` beside this package defines every workload and metric.
//!
//! ```text
//! pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result object on the last line
//! pipeline_bench --all [--seed <n>] [--trace <0|1>] [--out <file>]         every workload, each in a fresh child process
//! pipeline_bench --smoke                                                    every workload at ~1/20 size, one repetition
//! pipeline_bench --agree <a.json> <b.json>                                  compare two result sets against the bounds
//! ```

mod agree;
mod report;
mod runner;
mod spans;
mod spec;
mod stats;
mod sys;
mod workloads;

use runner::RunArgs;
use spec::Spec;
use std::process::ExitCode;
use workloads::Scale;

const DEFAULT_SEED: u64 = 42;
/// Prefix of the line a child run prints for its parent `--all` run.
const DETAIL_PREFIX: &str = "detail ";

/// Parsed command line.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    agree: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--agree" => cli.agree = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--seed" => cli.seed = Some(value(&mut it, arg)?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => cli.out = Some(value(&mut it, arg)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// How long a run measures: `--seconds`, else `run_seconds` of
/// `BENCHMARK.json` — or nothing beyond one repetition for `--smoke`.
fn seconds(cli: &Cli, spec: &Spec) -> f64 {
    cli.seconds.unwrap_or(if cli.smoke { 0.0 } else { spec.run_seconds as f64 })
}

/// One workload in this process; the contract's result object goes last.
/// A run that measured exits 0 even when a check failed — the result
/// object says `"correct": false` — so whoever reads the object decides;
/// `--all` turns that into a non-zero exit.
fn run_one(cli: &Cli, spec: &Spec, workload: &str) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds(cli, spec),
        trace: cli.trace,
        scale: if cli.smoke { Scale::Smoke } else { Scale::Full },
    };
    let result = runner::run(&args, spec)?;
    report::print_human(&result);
    println!("{DETAIL_PREFIX}{}", report::detail_object(&result));
    println!("{}", report::contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a fresh child process of this program, so no
/// workload inherits another's heap, page cache state or thread pools.
fn run_all(cli: &Cli, spec: &Spec) -> Result<ExitCode, String> {
    let machine = sys::Machine::stamp();
    if !cli.smoke && machine.nproc < workloads::PARALLELISM {
        return Err(format!(
            "refusing to record a result set: {} core(s) available, the workloads run {} threads wide",
            machine.nproc,
            workloads::PARALLELISM
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = seconds(cli, spec);
    let mut details = Vec::new();
    let mut all_correct = true;
    for name in &spec.workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
        cmd.args(["--trace", if cli.trace { "1" } else { "0" }]);
        if cli.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child and collects what it printed.
        let out = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("running {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let human: Vec<&str> = text.lines().filter(|l| !l.starts_with(DETAIL_PREFIX) && !l.starts_with('{')).collect();
        println!("{}", human.join("\n"));
        if !out.status.success() {
            return Err(format!("workload {name} exited with {}", out.status));
        }
        let detail = text
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
            .ok_or_else(|| format!("workload {name} printed no detail line"))?;
        let parsed =
            agl_obs::json::Value::parse(detail).map_err(|e| format!("workload {name}: bad detail line: {e}"))?;
        all_correct &= parsed.get("correct") == Some(&agl_obs::json::Value::Bool(true));
        details.push(detail.to_string());
    }
    let scale = if cli.smoke { Scale::Smoke } else { Scale::Full };
    let set = report::result_set(&machine, seed, cli.trace, scale, seconds, &details);
    let default_out = format!(
        "{}/result-seed{seed}-trace{}{}.json",
        sys::RUN_DIR,
        u8::from(cli.trace),
        if cli.smoke { "-smoke" } else { "" }
    );
    let out = cli.out.clone().unwrap_or(default_out);
    if let Some(dir) = std::path::Path::new(&out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "machine: nproc={} cpu={:?} rustc={:?} git={}",
        machine.nproc, machine.cpu_model, machine.rustc, machine.git_sha
    );
    println!("result set written to {out}");
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("pipeline_bench: an operation failed or a correctness check did not hold");
        Ok(ExitCode::FAILURE)
    }
}

fn dispatch(cli: &Cli) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    if let Some((a, b)) = &cli.agree {
        return Ok(if agree::run(&spec, a, b)? { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    match &cli.workload {
        Some(w) => run_one(cli, &spec, w),
        None if cli.all || cli.smoke => run_all(cli, &spec),
        None => Err("nothing to do: pass --workload <name>, --all, --smoke or --agree <a.json> <b.json>".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunResult;

    fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
        let spec = Spec::load().unwrap();
        let args = RunArgs { workload: workload.into(), seed, seconds: 0.0, trace, scale: Scale::Smoke };
        runner::run(&args, &spec).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    /// One test drives every workload, in sequence: five at once would only
    /// fight over the cores and the `trace-<workload>.json` files.
    #[test]
    fn every_workload_smokes_correctly_with_a_stable_digest_and_all_metrics() {
        let spec = Spec::load().unwrap();
        for name in workloads::NAMES {
            let a = smoke(name, 7, false);
            assert!(a.correct(), "{name}: {:?} ({} ops failed)", a.failures, a.ops_failed);
            let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, spec.end_to_end.iter().map(|m| m.name.as_str()).collect::<Vec<_>>());
            assert!(a.metrics.iter().all(|m| m.summary.median > 0.0), "{name}: an end-to-end metric read 0");

            // Same seed ⇒ same digest; the traced run sees the same data.
            let b = smoke(name, 7, true);
            assert!(b.correct(), "{name} traced: {:?}", b.failures);
            assert_eq!(a.digest, b.digest, "{name}: digest differs between two runs of one seed");
            assert_eq!(a.shuffle_bytes, b.shuffle_bytes, "{name}: shuffle bytes differ");
            assert_ne!(a.digest, smoke(name, 8, false).digest, "{name}: digest ignores the seed");
            let names: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, spec.per_layer.iter().map(|m| m.name.as_str()).collect::<Vec<_>>());
            let coverage = b.metrics.iter().find(|m| m.name == "attribution_coverage").unwrap().summary.median;
            assert!(coverage >= 0.95, "{name}: stage spans cover {coverage} of a repetition");
            agl_obs::json::Value::parse(&report::contract_line(&b)).unwrap();
        }
    }

    #[test]
    fn command_line_is_checked_where_it_enters() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let cli = parse_cli(&args("--workload infer.uug-hub --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("infer.uug-hub"), Some(3), Some(2.0), true)
        );
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--seconds -1")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
        assert!(dispatch(&Cli::default()).is_err());
        let unknown = Cli { workload: Some("no.such".into()), ..Cli::default() };
        assert!(dispatch(&unknown).unwrap_err().contains("unknown workload"));
    }
}
