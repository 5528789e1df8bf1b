//! Counters, gauges and bucketed histograms behind one registry.
//!
//! Metric naming scheme (see DESIGN.md "Observability"): dotted lowercase
//! paths, `<component>.<what>[.<detail>]` — e.g. `map.output_records`,
//! `ps.pull.wait_nanos`, `pipeline.prefetch.occupancy_pct`. Histograms hold
//! raw `u64` observations (nanoseconds, record counts, staleness steps) in
//! either exact linear buckets or log2-scaled buckets with p50/p95/p99
//! snapshots.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Bucketing scheme for a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramKind {
    /// Bucket `i` counts observations with value exactly `i`; the last
    /// bucket absorbs everything `>= buckets - 1` (overflow). Used where
    /// the value domain is small and exact — e.g. SSP staleness steps.
    Linear {
        /// Number of buckets (the last one is the overflow bucket).
        buckets: usize,
    },
    /// Bucket 0 counts zeros; bucket `k >= 1` counts values in
    /// `[2^(k-1), 2^k)`; the last bucket absorbs the tail. Used for wide
    /// domains like nanosecond latencies.
    Log2 {
        /// Number of buckets (the last one is the overflow bucket).
        buckets: usize,
    },
}

impl HistogramKind {
    fn buckets(self) -> usize {
        match self {
            HistogramKind::Linear { buckets } | HistogramKind::Log2 { buckets } => buckets.max(1),
        }
    }

    fn index(self, v: u64) -> usize {
        let n = self.buckets();
        match self {
            HistogramKind::Linear { .. } => (v as usize).min(n - 1),
            HistogramKind::Log2 { .. } => {
                let k = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
                k.min(n - 1)
            }
        }
    }

    /// Representative (upper-bound) value for bucket `i`.
    fn bucket_value(self, i: usize) -> u64 {
        match self {
            HistogramKind::Linear { .. } => i as u64,
            HistogramKind::Log2 { .. } => {
                if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                }
            }
        }
    }
}

/// A thread-safe bucketed histogram of `u64` observations.
#[derive(Debug)]
pub struct Histogram {
    kind: HistogramKind,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Point-in-time view of a histogram, with percentile estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// 95th-percentile estimate (bucket upper bound).
    pub p95: u64,
    /// 99th-percentile estimate (bucket upper bound).
    pub p99: u64,
    /// Per-bucket observation counts, in bucket order.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Empty histogram with the given bucketing scheme.
    pub fn new(kind: HistogramKind) -> Self {
        let n = kind.buckets();
        Self {
            kind,
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Exact small-domain histogram: bucket `i` = value `i`, last bucket
    /// overflows.
    pub fn linear(buckets: usize) -> Self {
        Self::new(HistogramKind::Linear { buckets })
    }

    /// Log2-scaled histogram covering `[0, 2^(buckets-1))` before overflow.
    pub fn log2(buckets: usize) -> Self {
        Self::new(HistogramKind::Log2 { buckets })
    }

    /// The bucketing scheme this histogram was built with.
    pub fn kind(&self) -> HistogramKind {
        self.kind
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        // Monotone statistics: concurrent RMWs commute and fetch_max is
        // idempotent-monotone, so no ordering is needed.
        self.counts[self.kind.index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        // Statistical read of a monotone counter; staleness is fine.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values so far.
    pub fn sum(&self) -> u64 {
        // Statistical read of a monotone counter; staleness is fine.
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest value observed so far.
    pub fn max(&self) -> u64 {
        // Statistical read of a monotone maximum; staleness is fine.
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts, in bucket order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        // Statistical read of monotone buckets; staleness is fine.
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count` (exact for
    /// linear histograms; the observed max caps the overflow bucket).
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let counts = self.bucket_counts();
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.kind.bucket_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// Consistent view of count/sum/max, the p50/p95/p99 estimates, and
    /// the raw bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            buckets: self.bucket_counts(),
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    /// Monotone counter (also used for "max observed" cells via `fetch_max`).
    Counter(Arc<AtomicU64>),
    /// Last-write-wins instantaneous value.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// Snapshot value for one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Accumulated counter total.
    Counter(u64),
    /// Last value stored in the gauge.
    Gauge(u64),
    /// Full histogram snapshot (count/sum/max, percentiles, buckets).
    Histogram(HistogramSnapshot),
}

/// A named metric store shared by every instrumented component of a run.
/// Cheap to clone (Arc); all operations are safe from any thread.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry. Same as `default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics are scalars/buckets with no cross-entry invariants, so a
    /// poisoned lock is still safe to read through.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Metric>> {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Metric>> {
        self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Get-or-create the counter cell `name`. The cell outlives the lock,
    /// so hot paths can hold it and bump without re-looking-up.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(Metric::Counter(c)) = self.read().get(name) {
            return c.clone();
        }
        match self.write().entry(name.to_string()).or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(c) => c.clone(),
            // Name already registered as a different type: hand back a
            // detached cell rather than panicking in telemetry code.
            _ => Arc::new(AtomicU64::new(0)),
        }
    }

    /// Bump counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        // Monotone counter bump; concurrent RMWs commute.
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Bump counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Raise counter `name` to at least `value`.
    pub fn counter_max(&self, name: &str, value: u64) {
        // `fetch_max` is idempotent-monotone; order is irrelevant.
        self.counter(name).fetch_max(value, Ordering::Relaxed);
    }

    /// Get-or-create the gauge cell `name`.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(Metric::Gauge(g)) = self.read().get(name) {
            return g.clone();
        }
        match self.write().entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0)))) {
            Metric::Gauge(g) => g.clone(),
            _ => Arc::new(AtomicU64::new(0)),
        }
    }

    /// Store `value` into gauge `name` (last write wins). A gauge is a
    /// published value, not a merged one, so the store is `Release` and
    /// readers use `Acquire`: whatever computed the value is ordered
    /// before any reader that observes it.
    pub fn gauge_set(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Release);
    }

    /// Get-or-create histogram `name` with bucketing `kind` (an existing
    /// histogram keeps its original kind).
    pub fn histogram(&self, name: &str, kind: HistogramKind) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = self.read().get(name) {
            return h.clone();
        }
        match self.write().entry(name.to_string()).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(kind))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Arc::new(Histogram::new(kind)),
        }
    }

    /// Record `v` into a log2 histogram named `name` (40 buckets — up to
    /// ~9 minutes when the unit is nanoseconds).
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name, HistogramKind::Log2 { buckets: 40 }).record(v);
    }

    /// Current value of counter/gauge `name` (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        match self.read().get(name) {
            // Statistical read of a monotone counter; staleness is fine.
            Some(Metric::Counter(c)) => c.load(Ordering::Relaxed),
            Some(Metric::Gauge(g)) => g.load(Ordering::Acquire),
            _ => 0,
        }
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.read()
            .iter()
            .map(|(k, m)| {
                let v = match m {
                    // Statistical read of a monotone counter; staleness is fine.
                    Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Acquire)),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (k.clone(), v)
            })
            .collect()
    }

    /// Deterministic JSON export: `{"counters":{},"gauges":{},"histograms":{}}`.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (name, v) in &snap {
            let key = json::escape(name);
            match v {
                MetricValue::Counter(c) => counters.push(format!("\"{key}\":{c}")),
                MetricValue::Gauge(g) => gauges.push(format!("\"{key}\":{g}")),
                MetricValue::Histogram(h) => {
                    let buckets = h.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
                    hists.push(format!(
                        "\"{key}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{buckets}]}}",
                        h.count, h.sum, h.max, h.p50, h.p95, h.p99
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }

    /// Human-readable listing, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.snapshot() {
            match v {
                MetricValue::Counter(c) => out.push_str(&format!("  {name:<44} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("  {name:<44} {g} (gauge)\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "  {name:<44} n={} p50={} p95={} p99={} max={}\n",
                    h.count, h.p50, h.p95, h.p99, h.max
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_histogram_buckets_exactly() {
        let h = Histogram::linear(4); // values 0,1,2 exact; >=3 overflow
        for v in [0, 1, 1, 2, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn log2_histogram_bucket_boundaries() {
        let h = Histogram::log2(6);
        // 0→b0, 1→b1, 2,3→b2, 4..8→b3, 8..16→b4, everything ≥16→b5.
        for v in [0, 1, 2, 3, 4, 7, 8, 15, 16, 1000] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn percentiles_on_linear_are_exact() {
        let h = Histogram::linear(12);
        for v in 0..10 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), 9);
        assert_eq!(h.percentile(0.0), 0);
        let s = h.snapshot();
        assert_eq!(s.p50, 4);
        assert_eq!(s.p99, 9);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::log2(8);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn log2_percentile_capped_by_observed_max() {
        let h = Histogram::log2(40);
        h.record(1000); // bucket 10 (values 512..1024), upper bound 1023
        assert_eq!(h.percentile(0.5), 1000, "upper bound capped at observed max");
    }

    #[test]
    fn registry_counters_and_gauges() {
        let m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        m.counter_max("peak", 7);
        m.counter_max("peak", 3);
        m.gauge_set("g", 42);
        m.gauge_set("g", 17);
        assert_eq!(m.get("a"), 5);
        assert_eq!(m.get("peak"), 7);
        assert_eq!(m.get("g"), 17);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn registry_shared_across_clones_and_threads() {
        let m = MetricsRegistry::new();
        let cell = m.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m2 = m.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        m2.inc("n");
                    }
                });
            }
        });
        assert_eq!(cell.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn type_collision_does_not_panic() {
        let m = MetricsRegistry::new();
        m.inc("x");
        // Asking for "x" as a histogram hands back a detached instance.
        let h = m.histogram("x", HistogramKind::Log2 { buckets: 4 });
        h.record(1);
        assert_eq!(m.get("x"), 1, "counter untouched");
    }

    #[test]
    fn json_export_is_deterministic_and_sorted() {
        let m = MetricsRegistry::new();
        m.inc("z.count");
        m.gauge_set("a.gauge", 3);
        m.record("lat", 7);
        let j1 = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"counters\":{\"z.count\":1}"), "{j1}");
        assert!(j1.contains("\"a.gauge\":3"));
        assert!(j1.contains("\"lat\":{\"count\":1,"));
    }
}
