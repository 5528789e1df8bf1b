//! The workspace's single sanctioned source of time.
//!
//! Every other crate is forbidden (by `disallowed-methods` in `clippy.toml`) from calling
//! `Instant::now` / `SystemTime::now` directly: determinism-critical modules
//! must be replayable bit-for-bit, and a raw wall-clock read anywhere in a
//! job's dataflow breaks that. Instead they take a [`Clock`]:
//!
//! - [`Clock::monotonic`] wraps one `Instant` base and hands out nanoseconds
//!   since that base — real time, for perf measurement.
//! - [`Clock::logical`] is a deterministic tick counter — "time" advances by
//!   one per reading, so two runs of the same seeded job observe the same
//!   timestamps and a trace recorded through it is byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
enum Source {
    /// Real elapsed time relative to a fixed base.
    Monotonic(Instant),
    /// Deterministic counter: each `now()` returns the next tick.
    Logical(AtomicU64),
}

/// A cheap-to-clone (Arc) handle to a time source.
#[derive(Debug, Clone)]
pub struct Clock {
    source: Arc<Source>,
}

impl Default for Clock {
    fn default() -> Self {
        Self::monotonic()
    }
}

impl Clock {
    /// Real time: nanoseconds since this clock was created.
    #[expect(clippy::disallowed_methods, reason = "the one sanctioned read of the OS clock")]
    pub fn monotonic() -> Self {
        Self { source: Arc::new(Source::Monotonic(Instant::now())) }
    }

    /// Deterministic time: the n-th reading returns `n` (0-based).
    pub fn logical() -> Self {
        Self { source: Arc::new(Source::Logical(AtomicU64::new(0))) }
    }

    /// True when this clock is a deterministic logical counter.
    pub fn is_logical(&self) -> bool {
        matches!(*self.source, Source::Logical(_))
    }

    /// Current reading in clock units (nanoseconds for a monotonic clock,
    /// ticks for a logical one). Logical readings are globally unique and
    /// monotonically increasing, but their interleaving across threads is
    /// scheduler-dependent — determinism-sensitive recording should key on
    /// per-track sequence numbers (see `trace::TraceSink`), not raw ticks.
    pub fn now(&self) -> u64 {
        match &*self.source {
            Source::Monotonic(base) => base.elapsed().as_nanos() as u64,
            // Monotone tick allocator; only uniqueness matters, not order.
            Source::Logical(tick) => tick.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Units elapsed since an earlier reading of *this* clock.
    pub fn since(&self, earlier: u64) -> u64 {
        self.now().saturating_sub(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let c = Clock::monotonic();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(!c.is_logical());
    }

    #[test]
    fn logical_ticks_are_sequential() {
        let c = Clock::logical();
        assert_eq!(c.now(), 0);
        assert_eq!(c.now(), 1);
        assert_eq!(c.now(), 2);
        assert!(c.is_logical());
    }

    #[test]
    fn clones_share_the_source() {
        let c = Clock::logical();
        let c2 = c.clone();
        assert_eq!(c.now(), 0);
        assert_eq!(c2.now(), 1);
    }

    #[test]
    fn since_is_saturating() {
        let c = Clock::logical();
        let later = {
            c.now();
            c.now()
        };
        assert_eq!(c.since(later + 100), 0, "never underflows");
    }
}
