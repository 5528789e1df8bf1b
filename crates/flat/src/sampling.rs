//! The sampling framework (§3.2.2): caps the in-edge records a reduce group
//! merges per round, *"to reduce the scale of the k-hop neighborhoods,
//! especially for those 'hub' nodes"*.
//!
//! All strategies are deterministic given the caller-derived seed, so a
//! re-executed reduce task samples identically — the property that keeps
//! fault-injected runs byte-identical, and that GraphInfer relies on for
//! *"unbiased inference with the model trained based on GraphFlat"* (§3.4).

use agl_mapreduce::codec::{get_u64, get_u8, put_u64, put_u8, Codec, CodecError};
use agl_tensor::rng::seeded_rng;
use agl_tensor::rng::Rng;

/// How a reduce group down-samples its in-edge records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingStrategy {
    /// Keep everything (used for correctness tests and small graphs).
    None,
    /// Uniform without replacement, at most `max_degree` records.
    Uniform { max_degree: usize },
    /// Weighted without replacement (probability ∝ edge weight), at most
    /// `max_degree` records — the "weighed sampling" of §3.2.2.
    Weighted { max_degree: usize },
    /// Deterministically keep the `max_degree` heaviest edges.
    TopK { max_degree: usize },
}

/// Wire image inside the worker specs GraphFlat and GraphInfer ship to
/// their shuffle workers: a tag byte, then the cap as a `u64` (0 for
/// `None`).
impl Codec for SamplingStrategy {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(
            buf,
            match self {
                SamplingStrategy::None => 0,
                SamplingStrategy::Uniform { .. } => 1,
                SamplingStrategy::Weighted { .. } => 2,
                SamplingStrategy::TopK { .. } => 3,
            },
        );
        put_u64(buf, self.max_degree().unwrap_or(0) as u64);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = get_u8(input)?;
        let max_degree = get_u64(input)? as usize;
        match tag {
            0 => Ok(SamplingStrategy::None),
            1 => Ok(SamplingStrategy::Uniform { max_degree }),
            2 => Ok(SamplingStrategy::Weighted { max_degree }),
            3 => Ok(SamplingStrategy::TopK { max_degree }),
            t => Err(CodecError(format!("unknown sampling tag {t}"))),
        }
    }
}

impl SamplingStrategy {
    /// The cap this strategy enforces, if any.
    pub fn max_degree(&self) -> Option<usize> {
        match *self {
            SamplingStrategy::None => None,
            SamplingStrategy::Uniform { max_degree }
            | SamplingStrategy::Weighted { max_degree }
            | SamplingStrategy::TopK { max_degree } => Some(max_degree),
        }
    }

    /// Choose which of `weights.len()` records survive. Returns sorted
    /// indices. `seed` must be derived from (job seed, shuffle key, round)
    /// by the caller.
    pub fn select(&self, weights: &[f32], seed: u64) -> Vec<usize> {
        let n = weights.len();
        let max = match self.max_degree() {
            None => return (0..n).collect(),
            Some(m) => m,
        };
        if n <= max {
            return (0..n).collect();
        }
        let mut picked: Vec<usize> = match *self {
            SamplingStrategy::None => unreachable!(),
            SamplingStrategy::Uniform { .. } => {
                // Partial Fisher–Yates.
                let mut rng = seeded_rng(seed);
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..max {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(max);
                idx
            }
            SamplingStrategy::Weighted { .. } => {
                // A-Res weighted reservoir: key_i = u_i^(1/w_i); keep the
                // `max` largest keys.
                let mut rng = seeded_rng(seed);
                let mut keyed: Vec<(f64, usize)> = weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| {
                        let u: f64 = rng.gen_range(1e-12..1.0);
                        let w = f64::from(w.max(1e-12));
                        (u.powf(1.0 / w), i)
                    })
                    .collect();
                keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                keyed.truncate(max);
                keyed.into_iter().map(|(_, i)| i).collect()
            }
            SamplingStrategy::TopK { .. } => {
                let mut idx: Vec<usize> = (0..n).collect();
                // Heaviest first; ties broken by index for determinism.
                idx.sort_by(|&a, &b| {
                    weights[b].partial_cmp(&weights[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
                });
                idx.truncate(max);
                idx
            }
        };
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_keeps_everything() {
        assert_eq!(SamplingStrategy::None.select(&[1.0; 5], 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(SamplingStrategy::None.max_degree(), None);
    }

    #[test]
    fn under_cap_keeps_everything() {
        for s in [
            SamplingStrategy::Uniform { max_degree: 10 },
            SamplingStrategy::Weighted { max_degree: 10 },
            SamplingStrategy::TopK { max_degree: 10 },
        ] {
            assert_eq!(s.select(&[1.0; 3], 7), vec![0, 1, 2], "{s:?}");
        }
    }

    #[test]
    fn caps_and_is_deterministic() {
        let w: Vec<f32> = (0..100).map(|i| (i as f32) + 1.0).collect();
        for s in [
            SamplingStrategy::Uniform { max_degree: 10 },
            SamplingStrategy::Weighted { max_degree: 10 },
            SamplingStrategy::TopK { max_degree: 10 },
        ] {
            let a = s.select(&w, 99);
            let b = s.select(&w, 99);
            assert_eq!(a, b, "{s:?} deterministic");
            assert_eq!(a.len(), 10, "{s:?} capped");
            assert!(a.windows(2).all(|p| p[0] < p[1]), "{s:?} sorted unique");
            assert!(a.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn different_seeds_differ_for_random_strategies() {
        let w = vec![1.0f32; 50];
        let u = SamplingStrategy::Uniform { max_degree: 5 };
        assert_ne!(u.select(&w, 1), u.select(&w, 2));
    }

    #[test]
    fn topk_takes_heaviest() {
        let w = vec![0.1f32, 5.0, 0.2, 9.0, 1.0];
        let s = SamplingStrategy::TopK { max_degree: 2 };
        assert_eq!(s.select(&w, 0), vec![1, 3]);
    }

    #[test]
    fn weighted_prefers_heavy_edges() {
        // One edge has 1000x the weight of the rest; across many seeds it
        // should almost always survive.
        let mut w = vec![0.001f32; 20];
        w[7] = 1.0;
        let s = SamplingStrategy::Weighted { max_degree: 3 };
        let hits = (0..200).filter(|&seed| s.select(&w, seed).contains(&7)).count();
        assert!(hits > 180, "heavy edge kept in {hits}/200 runs");
    }

    #[test]
    fn uniform_is_roughly_unbiased() {
        let w = vec![1.0f32; 10];
        let s = SamplingStrategy::Uniform { max_degree: 5 };
        let mut counts = [0usize; 10];
        for seed in 0..400 {
            for i in s.select(&w, seed) {
                counts[i] += 1;
            }
        }
        // Each index should be picked ~200 times.
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..250).contains(&c), "index {i} picked {c} times");
        }
    }
}
