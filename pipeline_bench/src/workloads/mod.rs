//! The five workloads. Each drives only public functions of the layer
//! crates, on inputs made from the seed by the `agl-datasets` generators;
//! the program under test receives the generated tables and nothing else.

pub mod dist;
pub mod flat;
pub mod infer;
pub mod serve;
pub mod train;

use crate::spans::Spans;
use agl_obs::Clock;
use std::path::Path;

/// Engine parallelism, trainer workers, aggregation partitions and load
/// clients — fixed, so a result does not depend on how many cores the
/// machine happens to report.
pub const PARALLELISM: usize = 2;

/// Seed of every model's initial weights — fixed, not taken from `--seed`.
/// Which hidden units a random initialisation leaves dead changes how much
/// arithmetic the kernels skip, and with it wall time by ±5 %: that is a
/// property of the model, not of the input graph the seed stands for.
pub const MODEL_SEED: u64 = 7;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 5] = ["flat.uug-2hop", "train.ppi-2layer", "infer.uug-hub", "serve.mixed-rw", "dist.uug-uds"];

/// Input size: the recorded size, or about a twentieth of it for
/// `--smoke` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` otherwise.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What one repetition of the timed region did.
#[derive(Debug, Default, Clone)]
pub struct RepStats {
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// The serving workload's reader rate; batch workloads leave this
    /// `None` and report `records ÷ wall`.
    pub records_per_s: Option<f64>,
    /// Per-layer counts and times this repetition observed from outside
    /// (public report structs), by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

/// Outcome of the correctness checks over the last repetition's outputs.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// FNV-1a over the workload's outputs: same seed ⇒ same digest.
    pub digest: u64,
    /// One line per failed check; empty when every check passed.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Record `what` as failed unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One workload, set up and ready to repeat its timed region.
pub trait Workload {
    /// Records one repetition processes (targets, examples·epochs, nodes).
    fn records(&self) -> u64;

    /// Untimed work between repetitions that restores the starting state,
    /// so every repetition does identical arithmetic.
    fn reset(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One repetition of the timed region. Bench-owned spans are opened
    /// under `root` around each call into a layer's public function.
    fn repetition(&mut self, spans: &Spans, root: Option<usize>, rep: u32) -> Result<RepStats, String>;

    /// Correctness checks over the last repetition's outputs (untimed).
    fn verify(&mut self) -> Verdict;

    /// Layer probes: replay public functions on the workload's own data.
    /// Only the traced run calls this.
    fn probes(&mut self, clock: &Clock) -> Result<Vec<(&'static str, f64)>, String>;
}

/// Set up the named workload from the seed.
pub fn set_up(name: &str, seed: u64, scale: Scale, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "flat.uug-2hop" => Ok(Box::new(flat::FlatUug::set_up(seed, scale, scratch))),
        "train.ppi-2layer" => Ok(Box::new(train::TrainPpi::set_up(seed, scale, scratch)?)),
        "infer.uug-hub" => Ok(Box::new(infer::InferHub::set_up(seed, scale))),
        "serve.mixed-rw" => Ok(Box::new(serve::ServeMixed::set_up(seed, scale)?)),
        "dist.uug-uds" => Ok(Box::new(dist::DistUds::set_up(seed, scale, scratch))),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Incremental FNV-1a (64-bit) over the bytes of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Floats by bit pattern, so `-0.0` and `0.0` (or two NaNs) differ.
    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Seconds from nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_fnv1a_reference_values() {
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f32s(&[0.0]);
        b.f32s(&[-0.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn names_fit_the_result_format() {
        for n in NAMES {
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
    }
}
