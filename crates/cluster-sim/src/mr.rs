//! MapReduce job model (GraphFlat / GraphInfer at paper scale).

use crate::SimReport;
use agl_tensor::rng::derive_seed;
use agl_tensor::rng::Rng;
use agl_tensor::seeded_rng;
use std::time::Duration;

/// A MapReduce job to replay at scale.
#[derive(Debug, Clone, Copy)]
pub struct MrJobModel {
    /// Records entering each reduce round (≈ nodes + edges for GraphFlat).
    pub records: u64,
    /// Reduce rounds (K+2 for GraphFlat at K ≥ 1 and for GraphInfer in this
    /// repo's round accounting).
    pub rounds: u64,
    /// Measured seconds of reducer compute per record — calibrate locally.
    pub secs_per_record: f64,
    /// Bytes shuffled per record per round.
    pub bytes_per_record: u64,
    /// Shuffle bandwidth per worker, bytes/s.
    pub shuffle_bandwidth: f64,
    /// Worker pool size (the paper uses 1000).
    pub workers: u64,
    /// Straggler dispersion (shared cluster).
    pub straggler_cv: f64,
    /// Peak memory per worker in GB.
    pub worker_mem_gb: f64,
    pub seed: u64,
}

impl MrJobModel {
    /// Sensible defaults for a commodity cluster; override per experiment.
    pub fn new(records: u64, rounds: u64, secs_per_record: f64, workers: u64) -> Self {
        Self {
            records,
            rounds,
            secs_per_record,
            bytes_per_record: 256,
            shuffle_bandwidth: 1.25e8, // 1 Gbps effective
            workers,
            straggler_cv: 0.08,
            worker_mem_gb: 1.5,
            seed: 42,
        }
    }
}

/// Simulate the job: each round is a wave of `workers` tasks; the round
/// ends when the slowest finishes (synchronisation barrier between rounds,
/// as in a real MR shuffle).
pub fn simulate_mr_job(model: &MrJobModel) -> SimReport {
    let mut rng = seeded_rng(derive_seed(model.seed, model.workers));
    let per_worker_records = model.records as f64 / model.workers as f64;
    let mut wall = 0.0f64;
    for _round in 0..model.rounds {
        let compute = per_worker_records * model.secs_per_record;
        let shuffle = per_worker_records * model.bytes_per_record as f64 / model.shuffle_bandwidth;
        let straggler = 1.0
            + model.straggler_cv * (2.0 * (model.workers as f64).ln()).sqrt() * (1.0 + 0.1 * rng.gen_range(-1.0..1.0));
        wall += (compute + shuffle) * straggler;
    }
    let wall_min = wall / 60.0;
    SimReport {
        wall: Duration::from_secs_f64(wall),
        cpu_core_min: wall_min * model.workers as f64,
        mem_gb_min: wall_min * model.workers as f64 * model.worker_mem_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_workers_roughly_halves_wall_time() {
        let base = MrJobModel::new(1_000_000_000, 3, 1e-5, 500);
        let double = MrJobModel { workers: 1000, ..base };
        let a = simulate_mr_job(&base);
        let b = simulate_mr_job(&double);
        let ratio = a.wall.as_secs_f64() / b.wall.as_secs_f64();
        assert!((1.7..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_rounds_cost_proportionally_more() {
        let k2 = MrJobModel::new(1_000_000, 3, 1e-5, 100);
        let k4 = MrJobModel { rounds: 6, ..k2 };
        let a = simulate_mr_job(&k2).wall.as_secs_f64();
        let b = simulate_mr_job(&k4).wall.as_secs_f64();
        assert!((1.8..2.2).contains(&(b / a)), "{}", b / a);
    }

    #[test]
    fn cost_units_scale_with_workers() {
        let m = MrJobModel::new(1_000_000, 2, 1e-5, 100);
        let r = simulate_mr_job(&m);
        assert!(r.cpu_core_min > 0.0);
        assert!((r.mem_gb_min / r.cpu_core_min - m.worker_mem_gb).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let m = MrJobModel::new(123_456, 3, 2e-5, 64);
        assert_eq!(simulate_mr_job(&m), simulate_mr_job(&m));
    }
}
