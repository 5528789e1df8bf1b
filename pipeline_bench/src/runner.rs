//! One run of one workload: set-up, warm-up, timed repetitions, checks —
//! and, for the traced run, spans and layer probes on top.

use crate::spans::{covered_ns, totals_for_rep, SpanRec, Spans};
use crate::spec::Spec;
use crate::stats::{median, Summary};
use crate::sys;
use crate::workloads::{self, secs, RepStats, Scale, Workload};
use agl_obs::Clock;

/// Set-ups per run, `setup_s` being their median: at least `MIN_SETUPS`,
/// then more while they are cheap — a millisecond set-up needs many samples
/// for a steady median, a half-second one does not.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed repetitions a full-scale run reports a median over.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One reported metric: its definition's name and unit, and the values.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub args: RunArgs,
    /// With `trace` off every end-to-end metric, with it on every
    /// per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    pub digest: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    pub rss_reset: bool,
    pub records_per_rep: u64,
    /// `Σ JobReport.shuffle_bytes` of one repetition — exact, so two runs
    /// of the same seed must agree on it.
    pub shuffle_bytes: u64,
    /// The traced run's per-span table: `(name, calls, total_s, self_s)`,
    /// medians over traced repetitions.
    pub span_table: Vec<(String, f64, f64, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }
}

/// One timed repetition.
struct Rep {
    wall_s: f64,
    /// `VmHWM` when the repetition ended, the mark having been reset just
    /// before it began (when the kernel allows resetting it).
    peak_rss: u64,
    stats: RepStats,
}

/// Timed repetitions of `w`, until `budget_s` has passed and at least
/// `min_reps` ran.
fn repeat(
    w: &mut dyn Workload,
    clock: &Clock,
    spans: &Spans,
    first_rep: u32,
    budget_s: f64,
    min_reps: usize,
) -> Result<Vec<Rep>, String> {
    let start = clock.now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || secs(clock.since(start)) < budget_s {
        w.reset()?;
        // Start every repetition from the memory the workload holds, not
        // from what the previous one freed and the allocator kept.
        sys::release_freed_heap();
        sys::reset_peak_rss();
        let rep = first_rep + reps.len() as u32;
        let t = clock.now();
        let stats = {
            let root = spans.open("rep", None, rep);
            w.repetition(spans, root.id(), rep)?
        };
        reps.push(Rep { wall_s: secs(clock.since(t)), peak_rss: sys::peak_rss_bytes(), stats });
    }
    Ok(reps)
}

/// Median over repetitions of each named per-layer value.
fn layer_medians(reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let mut names: Vec<&'static str> = Vec::new();
    for rep in reps {
        for (name, _) in &rep.stats.layer {
            if !names.contains(name) {
                names.push(name);
            }
        }
    }
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> =
                reps.iter().filter_map(|r| r.stats.layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)).collect();
            (name, median(&values))
        })
        .collect()
}

/// Per-span medians over the traced repetitions, plus the coverage of each
/// repetition's wall time by its stage spans.
fn span_medians(recs: &[SpanRec], reps: std::ops::Range<u32>) -> (Vec<(String, f64, f64, f64)>, f64) {
    let per_rep: Vec<_> = reps.clone().map(|r| totals_for_rep(recs, r)).collect();
    let mut names: Vec<&'static str> = Vec::new();
    for row in per_rep.iter().flatten() {
        if !names.contains(&row.0) {
            names.push(row.0);
        }
    }
    let table = names
        .into_iter()
        .map(|name| {
            let col = |f: fn(&(&'static str, u64, u64, u64)) -> f64| {
                median(&per_rep.iter().map(|rows| rows.iter().find(|r| r.0 == name).map_or(0.0, f)).collect::<Vec<_>>())
            };
            (name.to_string(), col(|r| r.1 as f64), col(|r| secs(r.2)), col(|r| secs(r.3)))
        })
        .collect();
    let coverage: Vec<f64> = reps
        .filter_map(|rep| {
            let root_at = recs.iter().position(|r| r.rep == rep && r.parent.is_none())?;
            let root = &recs[root_at];
            let stages: Vec<&SpanRec> = recs.iter().filter(|r| r.parent == Some(root_at)).collect();
            Some(covered_ns(root, &stages) as f64 / root.dur_ns().max(1) as f64)
        })
        .collect();
    (table, median(&coverage))
}

/// Run one workload as `args` says.
pub fn run(args: &RunArgs, spec: &Spec) -> Result<RunResult, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?} (one of {})", args.workload, workloads::NAMES.join(", ")));
    }
    let clock = Clock::monotonic();
    let scratch = sys::Scratch::new().map_err(|e| format!("creating {}: {e}", sys::RUN_DIR))?;
    let smoke = args.scale == Scale::Smoke;
    let (min_setups, max_setups, min_reps) = if smoke { (1, 1, 1) } else { (MIN_SETUPS, MAX_SETUPS, MIN_REPS) };

    // Set-up, several times over: the metric is the median, so that work
    // moved from the timed region into set-up shows against a steady base.
    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < min_setups || (setup_s.len() < max_setups && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S) {
        drop(w.take());
        let t = clock.now();
        w = Some(workloads::set_up(&args.workload, args.seed, args.scale, scratch.path())?);
        setup_s.push(secs(clock.since(t)));
    }
    let mut w = w.ok_or("no set-up ran")?;
    let rss_reset = sys::reset_peak_rss();

    // One untimed warm-up repetition: caches fill, lazy set-up finishes.
    let off = Spans::disabled(clock.clone());
    let warm = repeat(w.as_mut(), &clock, &off, 0, 0.0, 1)?;

    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = repeat(w.as_mut(), &clock, &off, 1, budget, min_reps)?;

    let on = Spans::enabled(clock.clone());
    let first_traced = 1 + untraced.len() as u32;
    let traced = if args.trace { repeat(w.as_mut(), &clock, &on, first_traced, budget, min_reps)? } else { Vec::new() };

    let verdict = w.verify();
    let all = || warm.iter().chain(&untraced).chain(&traced);
    let ops_attempted = all().map(|r| r.stats.ops_attempted).sum::<u64>().max(1);
    let ops_failed = all().map(|r| r.stats.ops_failed).sum::<u64>() + verdict.failures.len() as u64;

    let records = w.records();
    let wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let rate: Vec<f64> =
        untraced.iter().map(|r| r.stats.records_per_s.unwrap_or(records as f64 / r.wall_s.max(1e-9))).collect();
    // The median repetition's peak, not the run's maximum: the maximum of
    // many repetitions is an extreme value and repeats far worse.
    let peak_rss: Vec<f64> = untraced.iter().map(|r| r.peak_rss as f64).collect();
    let last_layer = |name: &str| {
        untraced.last().and_then(|r| r.stats.layer.iter().find(|(n, _)| *n == name)).map_or(0.0, |(_, v)| *v)
    };
    let shuffle_bytes = last_layer("mapreduce.shuffle_bytes") as u64;

    let mut span_table = Vec::new();
    let metrics = if args.trace {
        let mut values = layer_medians(&traced).into_iter().map(|(n, v)| (n.to_string(), v)).collect::<Vec<_>>();
        values.extend(w.probes(&clock)?.into_iter().map(|(n, v)| (n.to_string(), v)));
        let recs = on.records();
        let (table, coverage) = span_medians(&recs, first_traced..first_traced + traced.len() as u32);
        values.extend(table.iter().filter(|r| r.0 != "rep").map(|r| (r.0.clone(), r.2)));
        values.push(("attribution_coverage".into(), coverage));
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.push(("trace_overhead_share".into(), traced_wall / median(&wall).max(1e-9) - 1.0));
        span_table = table;
        write_trace(&args.workload, &recs)?;
        if let Some((name, _)) = values.iter().find(|(n, _)| !spec.per_layer.iter().any(|m| m.name == *n)) {
            return Err(format!("layer metric {name} is not listed in BENCHMARK.json"));
        }
        // Every per-layer metric, in the file's order; a layer the
        // workload never enters reads 0.
        spec.per_layer
            .iter()
            .map(|m| Metric {
                name: m.name.clone(),
                unit: m.unit.clone(),
                summary: Summary::exact(values.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v)),
            })
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|m| {
                let summary = match m.name.as_str() {
                    "setup_s" => Summary::of(&setup_s),
                    "wall_s" => Summary::of(&wall),
                    "records_per_s" => Summary::of(&rate),
                    "peak_rss_bytes" => Summary::of(&peak_rss),
                    other => {
                        return Err(format!(
                            "BENCHMARK.json lists an end-to-end metric {other} this program does not measure"
                        ))
                    }
                };
                Ok(Metric { name: m.name.clone(), unit: m.unit.clone(), summary })
            })
            .collect::<Result<_, _>>()?
    };

    Ok(RunResult {
        args: args.clone(),
        metrics,
        digest: verdict.digest,
        ops_attempted,
        ops_failed,
        failures: verdict.failures,
        rss_reset,
        records_per_rep: records,
        shuffle_bytes,
        span_table,
    })
}

/// Write the traced run's spans as a Chrome trace under the run directory.
fn write_trace(workload: &str, recs: &[SpanRec]) -> Result<(), String> {
    let path = std::path::Path::new(sys::RUN_DIR).join(format!("trace-{workload}.json"));
    std::fs::write(&path, crate::spans::to_chrome_json(recs)).map_err(|e| format!("writing {}: {e}", path.display()))
}
