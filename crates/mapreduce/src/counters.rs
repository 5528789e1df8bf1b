//! Hadoop-style named job counters.
//!
//! Since the observability pass, counters are a thin façade over
//! [`agl_obs::MetricsRegistry`] — the shared metric store the whole
//! workspace reports into — with one job-engine-specific addition: a
//! thread-local *silencing* switch used by the determinism double-runs.

use agl_obs::{MetricValue, MetricsRegistry};

/// A set of named monotonically increasing counters shared by all tasks of a
/// job. Cheap to clone (Arc) and safe to bump from any task thread.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    registry: MetricsRegistry,
}

thread_local! {
    /// When set, all counter writes on this thread are dropped. Used by the
    /// engine's determinism double-runs: replaying a reduce group must not
    /// inflate the job's (exact) record counters.
    static SILENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Restores the previous silencing state even if the silenced closure
/// panics (the determinism gate panics on a caught violation).
struct SilenceGuard {
    prev: bool,
}

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        SILENCED.with(|s| s.set(self.prev));
    }
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with every counter write on this thread suppressed — for
    /// *all* `Counters` instances, since a replayed reducer may bump its
    /// own application counters, not just the engine's.
    pub fn silenced<T>(f: impl FnOnce() -> T) -> T {
        let _guard = SilenceGuard { prev: SILENCED.with(|s| s.replace(true)) };
        f()
    }

    fn is_silenced() -> bool {
        SILENCED.with(std::cell::Cell::get)
    }

    /// The counters a stage running under `obs` reports into: the run's
    /// shared metrics registry when observability is on (so the pipeline,
    /// the job driver and `--metrics-out` all see one set), a detached set
    /// otherwise.
    pub fn for_obs(obs: &agl_obs::Obs) -> Self {
        obs.metrics().map_or_else(Self::new, |m| Self { registry: m.clone() })
    }

    /// The backing metric store.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        if Self::is_silenced() {
            return;
        }
        self.registry.add(name, delta);
    }

    /// Increment by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Raise counter `name` to at least `value` — a "max" counter, used for
    /// load-balance observations like the largest reduce group seen.
    pub fn record_max(&self, name: &str, value: u64) {
        if Self::is_silenced() {
            return;
        }
        self.registry.counter_max(name, value);
    }

    /// Current value (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.registry.get(name)
    }

    /// Fold the pipeline counters remote shuffle workers reported under a
    /// `w{i}.` prefix (`w3.flat.merged_nodes`) into their job-wide names,
    /// for every base name that starts with one of `families` (`"flat."`).
    /// A base name whose last segment starts with `max_` was written with
    /// [`Counters::record_max`] and folds by max; the others sum.
    pub fn fold_worker_counters(&self, families: &[&str]) {
        for (name, v) in self.snapshot() {
            let Some((worker, base)) = name.split_once('.') else { continue };
            let is_worker =
                worker.strip_prefix('w').is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()));
            if !is_worker || !families.iter().any(|f| base.starts_with(f)) {
                continue;
            }
            if base.rsplit('.').next().is_some_and(|last| last.starts_with("max_")) {
                self.record_max(base, v);
            } else {
                self.add(base, v);
            }
        }
    }

    /// Snapshot of all counters, sorted by name. When the backing registry
    /// is shared with other components, only counter-typed metrics appear
    /// here (gauges and histograms belong to the metrics export).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.registry
            .snapshot()
            .into_iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k, c)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        c.inc("records");
        c.add("records", 4);
        assert_eq!(c.get("records"), 5);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn shared_across_clones_and_threads() {
        let c = Counters::new();
        let c2 = c.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c3 = c2.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        c3.inc("n");
                    }
                });
            }
        });
        assert_eq!(c.get("n"), 400);
    }

    #[test]
    fn record_max_keeps_the_maximum() {
        let c = Counters::new();
        c.record_max("m", 5);
        c.record_max("m", 3);
        assert_eq!(c.get("m"), 5);
        c.record_max("m", 9);
        assert_eq!(c.get("m"), 9);
    }

    #[test]
    fn silenced_drops_writes_and_restores() {
        let c = Counters::new();
        c.inc("n");
        let out = Counters::silenced(|| {
            c.inc("n");
            c.add("n", 10);
            c.record_max("m", 99);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(c.get("n"), 1, "writes inside the silenced closure are dropped");
        assert_eq!(c.get("m"), 0);
        c.inc("n");
        assert_eq!(c.get("n"), 2, "silencing ends with the closure");
    }

    #[test]
    fn silenced_restores_after_panic() {
        let c = Counters::new();
        let caught = std::panic::catch_unwind(|| {
            Counters::silenced(|| panic!("boom"));
        });
        assert!(caught.is_err());
        c.inc("n");
        assert_eq!(c.get("n"), 1, "silencing must not leak past an unwinding closure");
    }

    #[test]
    fn silenced_is_per_thread() {
        let c = Counters::new();
        Counters::silenced(|| {
            let c2 = c.clone();
            std::thread::scope(|s| {
                s.spawn(move || c2.inc("n"));
            });
        });
        assert_eq!(c.get("n"), 1, "other threads keep counting");
    }

    #[test]
    fn shared_registry_sees_counter_writes_and_snapshot_filters_types() {
        let obs = agl_obs::Obs::enabled_logical();
        let reg = obs.metrics().unwrap();
        reg.gauge_set("g", 7); // non-counter metric in the shared registry
        let c = Counters::for_obs(&obs);
        c.add("records", 3);
        assert_eq!(reg.get("records"), 3, "write lands in the shared registry");
        let snap = c.snapshot();
        assert_eq!(snap, vec![("records".to_string(), 3)], "gauges filtered out of the counter view");
    }

    #[test]
    fn worker_counters_fold_into_job_wide_names() {
        let c = Counters::new();
        for (name, v) in [
            ("w0.flat.merged_nodes", 3),
            ("w12.flat.merged_nodes", 4),
            ("w0.flat.max_group_in_edges", 7),
            ("w1.flat.max_group_in_edges", 5),
            ("w0.infer.embeddings_computed", 9),
            ("w0.reduce.r1.input_records", 2),
            ("wx.flat.merged_nodes", 100),
            ("flat.examples", 6),
        ] {
            c.add(name, v);
        }
        c.fold_worker_counters(&["flat."]);
        assert_eq!(c.get("flat.merged_nodes"), 7, "sums fold by sum");
        assert_eq!(c.get("flat.max_group_in_edges"), 7, "maxima fold by max");
        assert_eq!(c.get("infer.embeddings_computed"), 0, "other families stay prefixed");
        assert_eq!(c.get("reduce.r1.input_records"), 0);
        assert_eq!(c.get("flat.examples"), 6, "driver-side names are untouched");
    }

    #[test]
    fn snapshot_sorted() {
        let c = Counters::new();
        c.inc("z");
        c.inc("a");
        let names: Vec<_> = c.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
