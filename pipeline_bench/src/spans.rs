//! Bench-owned spans: one per call into a layer's public function.
//!
//! The benchmark records these from its own files, around the calls; the
//! program under test is not touched. Spans are kept in memory and written
//! out as a Chrome trace when the traced run ends. A disabled recorder
//! (the untraced run that yields every end-to-end metric) records nothing.

use agl_obs::Clock;
use std::sync::Mutex;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to — the identifier spans of one
    /// repetition share.
    pub rep: u32,
    /// Bench thread lane (0 = the driver thread of the workload).
    pub lane: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. `open` returns a guard that closes the span on drop.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    recs: Option<Mutex<Vec<SpanRec>>>,
}

/// An open span; closing (dropping) it stamps the end time.
#[derive(Debug)]
pub struct Open<'a> {
    spans: &'a Spans,
    id: Option<usize>,
}

impl Open<'_> {
    /// The span's index, to pass as the parent of spans it causes.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let (Some(id), Some(recs)) = (self.id, &self.spans.recs) {
            let now = self.spans.clock.now();
            // A panic elsewhere poisons nothing that matters here: the
            // vector only ever grows and each slot is written once.
            recs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[id].end_ns = now;
        }
    }
}

impl Spans {
    pub fn enabled(clock: Clock) -> Self {
        Self { clock, recs: Some(Mutex::new(Vec::new())) }
    }

    pub fn disabled(clock: Clock) -> Self {
        Self { clock, recs: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.recs.is_some()
    }

    /// Open a span on the driver lane.
    pub fn open(&self, name: &'static str, parent: Option<usize>, rep: u32) -> Open<'_> {
        self.open_on(name, parent, rep, 0)
    }

    /// Open a span on an explicit lane (client threads of a workload).
    pub fn open_on(&self, name: &'static str, parent: Option<usize>, rep: u32, lane: u32) -> Open<'_> {
        let id = self.recs.as_ref().map(|recs| {
            let start_ns = self.clock.now();
            let mut recs = recs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            recs.push(SpanRec { name, start_ns, end_ns: start_ns, parent, rep, lane });
            recs.len() - 1
        });
        Open { spans: self, id }
    }

    /// Everything recorded so far (closed spans have `end_ns` stamped).
    pub fn records(&self) -> Vec<SpanRec> {
        self.recs
            .as_ref()
            .map_or_else(Vec::new, |r| r.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone())
    }
}

/// Nanoseconds of `parent`'s interval covered by at least one child — the
/// union of the children's intervals clipped to the parent, so children
/// that overlap (two client threads) are not counted twice.
pub fn covered_ns(parent: &SpanRec, children: &[&SpanRec]) -> u64 {
    let mut ivals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    ivals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (s, e) in ivals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of span `i`: its duration minus the part its children cover.
pub fn self_ns(recs: &[SpanRec], i: usize) -> u64 {
    let children: Vec<&SpanRec> = recs.iter().filter(|r| r.parent == Some(i)).collect();
    recs[i].dur_ns() - covered_ns(&recs[i], &children)
}

/// Per-name totals over one repetition: `(name, calls, total_ns, self_ns)`
/// in first-seen order.
pub fn totals_for_rep(recs: &[SpanRec], rep: u32) -> Vec<(&'static str, u64, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (i, r) in recs.iter().enumerate().filter(|(_, r)| r.rep == rep) {
        let own = self_ns(recs, i);
        match out.iter_mut().find(|(n, ..)| *n == r.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += r.dur_ns();
                row.3 += own;
            }
            None => out.push((r.name, 1, r.dur_ns(), own)),
        }
    }
    out
}

/// Chrome trace-event JSON (complete events, microsecond timestamps).
pub fn to_chrome_json(recs: &[SpanRec]) -> String {
    let mut out = String::from("[");
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = r.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{}}}}}",
            agl_obs::json::escape(r.name),
            r.start_ns as f64 / 1e3,
            r.dur_ns() as f64 / 1e3,
            r.lane,
            r.rep,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start_ns: start, end_ns: end, parent, rep: 1, lane: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = vec![
            rec("rep", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and runs past the parent's end by 20.
            rec("b", 30, 120, Some(0)),
            rec("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(covered_ns(&recs[0], &[&recs[1], &recs[2]]), 90, "10..100 covered once");
        assert_eq!(self_ns(&recs, 0), 10);
        assert_eq!(self_ns(&recs, 1), 25);
        assert_eq!(self_ns(&recs, 3), 5, "a leaf's self time is its duration");
    }

    #[test]
    fn totals_group_by_name_within_one_repetition() {
        let mut recs = vec![rec("rep", 0, 100, None), rec("x", 0, 30, Some(0)), rec("x", 50, 60, Some(0))];
        recs.push(SpanRec { rep: 2, ..rec("x", 200, 300, None) });
        let t = totals_for_rep(&recs, 1);
        assert_eq!(t, vec![("rep", 1, 100, 60), ("x", 2, 40, 40)]);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let spans = Spans::enabled(Clock::logical());
        {
            let root = spans.open("rep", None, 7);
            let _child = spans.open_on("stage", root.id(), 7, 1);
        }
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[1].parent, recs[1].rep, recs[1].lane), (Some(0), 7, 1));
        assert!(recs[0].end_ns > recs[1].end_ns, "child closes before its parent");
        let json = to_chrome_json(&recs);
        assert!(agl_obs::json::Value::parse(&json).is_ok(), "{json}");

        let off = Spans::disabled(Clock::logical());
        assert!(off.open("rep", None, 0).id().is_none());
        assert!(off.records().is_empty());
    }
}
