//! Printing and serialising results: the human-readable table, the
//! one-line result object the contract asks for, and the detailed object
//! result sets are made of.

use crate::runner::{Metric, RunResult};
use crate::stats::Summary;
use crate::sys::Machine;
use crate::workloads::Scale;
use agl_obs::json::escape;

/// A float with all its digits (shortest form that round-trips), or
/// `null` for a value JSON cannot carry.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn scale_name(scale: Scale) -> &'static str {
    scale.pick("full", "smoke")
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                num(m.summary.median),
                escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.ops_attempted,
        r.ops_failed,
        metrics.join(", ")
    )
}

fn metric_detail(m: &Metric) -> String {
    let s: &Summary = &m.summary;
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"min\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}, \"iqr_share\": {}}}",
        escape(&m.name),
        num(s.median),
        escape(&m.unit),
        s.n,
        num(s.min),
        num(s.q1),
        num(s.q3),
        num(s.max),
        num(s.iqr_share())
    )
}

/// One workload's full record: dispersion per metric, digest, counts.
pub fn detail_object(r: &RunResult) -> String {
    let failures: Vec<String> = r.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect();
    let metrics: Vec<String> = r.metrics.iter().map(metric_detail).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"scale\": \"{}\", \"seconds\": {}, \"correct\": {}, \
         \"output_digest\": \"{:#018x}\", \"ops_attempted\": {}, \"ops_failed\": {}, \"failed_share\": {}, \
         \"shuffle_bytes\": {}, \"records_per_rep\": {}, \"rss_reset\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        escape(&r.args.workload),
        r.args.seed,
        u8::from(r.args.trace),
        scale_name(r.args.scale),
        num(r.args.seconds),
        r.correct(),
        r.digest,
        r.ops_attempted,
        r.ops_failed,
        num(r.ops_failed as f64 / r.ops_attempted.max(1) as f64),
        r.shuffle_bytes,
        r.records_per_rep,
        r.rss_reset,
        failures.join(", "),
        metrics.join(", ")
    )
}

/// A result set: the machine stamp and one detail object per workload.
pub fn result_set(machine: &Machine, seed: u64, trace: bool, scale: Scale, seconds: f64, details: &[String]) -> String {
    format!(
        "{{\n\"machine\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_sha\": \"{}\"}},\n\
         \"seed\": {seed}, \"trace\": {}, \"scale\": \"{}\", \"seconds\": {},\n\"workloads\": [\n{}\n]\n}}\n",
        machine.nproc,
        escape(&machine.cpu_model),
        escape(&machine.rustc),
        escape(&machine.git_sha),
        u8::from(trace),
        scale_name(scale),
        num(seconds),
        details.join(",\n")
    )
}

/// The table a person reads: every metric by name with its unit.
pub fn print_human(r: &RunResult) {
    println!(
        "pipeline_bench {}  seed={} seconds={} trace={} scale={}  records/repetition={}",
        r.args.workload,
        r.args.seed,
        r.args.seconds,
        u8::from(r.args.trace),
        scale_name(r.args.scale),
        r.records_per_rep
    );
    for m in &r.metrics {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "  {:<34} {:>16.6} {:<8} n={} min={:.6} q1={:.6} q3={:.6} iqr/median={:.2}%",
                m.name,
                s.median,
                m.unit,
                s.n,
                s.min,
                s.q1,
                s.q3,
                100.0 * s.iqr_share()
            );
        } else {
            println!("  {:<34} {:>16.6} {:<8}", m.name, s.median, m.unit);
        }
    }
    if !r.span_table.is_empty() {
        println!("  bench-owned spans (medians over traced repetitions):");
        println!("    {:<24} {:>6} {:>12} {:>12}", "span", "calls", "total_s", "self_s");
        for (name, calls, total, own) in &r.span_table {
            println!("    {name:<24} {calls:>6.0} {total:>12.6} {own:>12.6}");
        }
    }
    println!("  output_digest {:#018x}   shuffle_bytes {}", r.digest, r.shuffle_bytes);
    println!(
        "  ops attempted {} failed {} (failed_share {:.6})   rss_reset={}",
        r.ops_attempted,
        r.ops_failed,
        r.ops_failed as f64 / r.ops_attempted.max(1) as f64,
        r.rss_reset
    );
    if r.failures.is_empty() {
        println!("  checks: ok");
    }
    for f in &r.failures {
        println!("  CHECK FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunArgs;
    use agl_obs::json::Value;

    fn sample() -> RunResult {
        RunResult {
            args: RunArgs {
                workload: "flat.uug-2hop".into(),
                seed: 7,
                seconds: 1.5,
                trace: false,
                scale: Scale::Smoke,
            },
            metrics: vec![
                Metric { name: "wall_s".into(), unit: "s".into(), summary: Summary::of(&[0.25, 0.5, 0.75]) },
                Metric { name: "peak_rss_bytes".into(), unit: "B".into(), summary: Summary::exact(4096.0) },
            ],
            digest: 0xabc,
            ops_attempted: 10,
            ops_failed: 0,
            failures: vec![],
            rss_reset: true,
            records_per_rep: 5,
            shuffle_bytes: 99,
            span_table: vec![],
        }
    }

    /// The result line parses, and holds exactly the four keys — the checks
    /// `agl_bench::validate_json` makes for bench snapshots, made locally.
    #[test]
    fn contract_line_is_one_json_object_with_exactly_the_four_keys() {
        let line = contract_line(&sample());
        assert!(!line.contains('\n'));
        let Value::Obj(members) = Value::parse(&line).unwrap() else { panic!("not an object: {line}") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn detail_and_result_set_parse_and_carry_the_dispersion() {
        let mut r = sample();
        r.failures.push("a \"quoted\" failure".into());
        let detail = detail_object(&r);
        let v = Value::parse(&detail).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("output_digest").and_then(Value::as_str), Some("0x0000000000000abc"));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("n").and_then(Value::as_u64), Some(3));
        assert!(wall.get("iqr_share").and_then(Value::as_f64).unwrap() > 0.0);
        let machine = Machine { nproc: 2, cpu_model: "cpu".into(), rustc: "rustc 1".into(), git_sha: "unknown".into() };
        let set = result_set(&machine, 7, false, Scale::Smoke, 1.5, &[detail]);
        let v = Value::parse(&set).unwrap();
        assert_eq!(v.get("workloads").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
    }

    #[test]
    fn non_finite_values_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.1), "0.1");
    }
}
