//! `--agree <a.json> <b.json>`: compare two result sets metric by metric
//! against the bounds `BENCHMARK.json` fixes.
//!
//! `a` is the parent (or the first of two runs of the same code), `b` the
//! change. Every workload gets its own rows — no combined score. A metric
//! whose own run-to-run spread (IQR ÷ median, of either side) exceeds its
//! bound is `unresolved`, never "unchanged". Exact quantities (the output
//! digest and `shuffle_bytes`) must match to the bit when the seeds match.

use crate::spec::{MetricDef, Spec};
use agl_obs::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Agree,
    Regressed,
    Unresolved,
    Mismatch,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Agree => "agree",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
            Status::Mismatch => "MISMATCH",
        }
    }
}

/// One compared quantity of one workload.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    /// By how much `b` is worse than `a`, as a share of `a` (negative =
    /// better); `None` for exact quantities.
    pub worse_by: Option<f64>,
    pub bound: Option<f64>,
    pub spread: Option<f64>,
    pub status: Status,
}

/// `b` worse than `a` by this share of `a`, in the metric's own direction.
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.lower_is_better { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

fn judge(def: &MetricDef, a: &Value, b: &Value) -> Option<(f64, f64, f64, f64, Status)> {
    let f = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
    let (va, vb) = (f(a, "value")?, f(b, "value")?);
    let spread = f(a, "iqr_share").unwrap_or(0.0).max(f(b, "iqr_share").unwrap_or(0.0));
    let bound = def.bound?;
    let worse = worse_by(def, va, vb);
    let status = if spread > bound {
        Status::Unresolved
    } else if worse > bound {
        Status::Regressed
    } else {
        Status::Agree
    };
    Some((va, vb, worse, spread, status))
}

fn workloads(set: &Value) -> Result<&[Value], String> {
    set.get("workloads").and_then(Value::as_arr).ok_or_else(|| "result set has no `workloads` array".to_string())
}

/// Compare two parsed result sets.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let same_seed = a.get("seed").and_then(Value::as_u64) == b.get("seed").and_then(Value::as_u64);
    for wa in workloads(a)? {
        let name = wa.get("workload").and_then(Value::as_str).ok_or("workload entry without a name")?;
        let Some(wb) = workloads(b)?.iter().find(|w| w.get("workload").and_then(Value::as_str) == Some(name)) else {
            return Err(format!("workload {name} is missing from the second result set"));
        };
        let exact = |key: &str, rows: &mut Vec<Row>| {
            let show = |v: &Value| match v.get(key) {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Num(n)) => n.clone(),
                Some(Value::Bool(b)) => b.to_string(),
                _ => "absent".to_string(),
            };
            let (sa, sb) = (show(wa), show(wb));
            let status = if sa == sb { Status::Agree } else { Status::Mismatch };
            rows.push(Row {
                workload: name.to_string(),
                metric: key.to_string(),
                a: sa,
                b: sb,
                worse_by: None,
                bound: None,
                spread: None,
                status,
            });
        };
        for def in &spec.end_to_end {
            let (ma, mb) =
                (wa.get("metrics").and_then(|m| m.get(&def.name)), wb.get("metrics").and_then(|m| m.get(&def.name)));
            let (Some(ma), Some(mb)) = (ma, mb) else { continue };
            let Some((va, vb, worse, spread, status)) = judge(def, ma, mb) else { continue };
            rows.push(Row {
                workload: name.to_string(),
                metric: def.name.clone(),
                a: format!("{va:.6}"),
                b: format!("{vb:.6}"),
                worse_by: Some(worse),
                bound: def.bound,
                spread: Some(spread),
                status,
            });
        }
        // Same seed ⇒ same inputs ⇒ identical arithmetic and byte counts.
        if same_seed {
            exact("output_digest", &mut rows);
            exact("shuffle_bytes", &mut rows);
        }
        exact("ops_failed", &mut rows);
        if wb.get("ops_failed").and_then(Value::as_u64) != Some(0) || wb.get("correct") != Some(&Value::Bool(true)) {
            if let Some(row) = rows.last_mut() {
                row.status = Status::Mismatch;
            }
        }
    }
    Ok(rows)
}

/// Print the comparison; true when every row agrees.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<16} {:>20} {:>20} {:>9} {:>7} {:>8}  status",
        "workload", "metric", "a", "b", "worse_by", "bound", "spread"
    );
    for r in rows {
        let pct = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{:+.2}%", 100.0 * v));
        println!(
            "{:<18} {:<16} {:>20} {:>20} {:>9} {:>7} {:>8}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            pct(r.worse_by),
            r.bound.map_or_else(|| "-".to_string(), |b| format!("{:.1}%", 100.0 * b)),
            r.spread.map_or_else(|| "-".to_string(), |s| format!("{:.2}%", 100.0 * s)),
            r.status.label()
        );
    }
    let bad = rows.iter().filter(|r| r.status != Status::Agree).count();
    println!("{} of {} rows agree", rows.len() - bad, rows.len());
    bad == 0
}

/// Load, compare and print two result-set files. `Ok(true)` = all agree.
pub fn run(spec: &Spec, path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    Ok(print(&compare(spec, &load(path_a)?, &load(path_b)?)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(seed: u64, wall: f64, iqr: f64, digest: &str) -> Value {
        Value::parse(&format!(
            r#"{{"seed": {seed}, "workloads": [{{"workload": "flat.uug-2hop", "correct": true,
                "output_digest": "{digest}", "shuffle_bytes": 10, "ops_failed": 0,
                "metrics": {{"wall_s": {{"value": {wall}, "iqr_share": {iqr}}},
                             "records_per_s": {{"value": {}, "iqr_share": {iqr}}}}}}}]}}"#,
            1000.0 / wall
        ))
        .unwrap()
    }

    fn status_of(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn within_bound_agrees_beyond_it_regresses_and_direction_matters() {
        let spec = Spec::load().unwrap();
        let bound = spec.end_to_end.iter().find(|m| m.name == "wall_s").unwrap().bound.unwrap();
        let base = set(1, 1.0, 0.001, "0x1");
        let rows = compare(&spec, &base, &set(1, 1.0 + bound * 0.5, 0.001, "0x1")).unwrap();
        assert!(rows.iter().all(|r| r.status == Status::Agree), "{rows:?}");
        let rows = compare(&spec, &base, &set(1, 1.0 + bound * 2.0, 0.001, "0x1")).unwrap();
        assert_eq!(status_of(&rows, "wall_s"), Status::Regressed);
        assert_eq!(status_of(&rows, "records_per_s"), Status::Regressed, "a rate falls when wall time rises");
        let rows = compare(&spec, &base, &set(1, 0.5, 0.001, "0x1")).unwrap();
        assert_eq!(status_of(&rows, "wall_s"), Status::Agree, "faster is never a regression");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let spec = Spec::load().unwrap();
        let rows = compare(&spec, &set(1, 1.0, 0.9, "0x1"), &set(1, 1.0, 0.001, "0x1")).unwrap();
        assert_eq!(status_of(&rows, "wall_s"), Status::Unresolved);
    }

    #[test]
    fn digests_must_match_only_when_the_seeds_do() {
        let spec = Spec::load().unwrap();
        let rows = compare(&spec, &set(1, 1.0, 0.0, "0x1"), &set(1, 1.0, 0.0, "0x2")).unwrap();
        assert_eq!(status_of(&rows, "output_digest"), Status::Mismatch);
        let rows = compare(&spec, &set(1, 1.0, 0.0, "0x1"), &set(2, 1.0, 0.0, "0x2")).unwrap();
        assert!(rows.iter().all(|r| r.metric != "output_digest"));
        assert!(compare(&spec, &set(1, 1.0, 0.0, "0x1"), &Value::parse(r#"{"workloads": []}"#).unwrap()).is_err());
    }
}
