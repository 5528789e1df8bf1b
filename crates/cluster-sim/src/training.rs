//! Synchronous parameter-server training model (Fig. 8).

use crate::SimReport;
use agl_tensor::rng::derive_seed;
use agl_tensor::rng::Rng;
use agl_tensor::seeded_rng;
use std::time::Duration;

/// Cluster characteristics (paper §4.2.2: 32-core / 64 GB commodity
/// machines on a shared, non-exclusive production cluster).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Per-worker link bandwidth to the parameter servers, bytes/s.
    pub worker_bandwidth: f64,
    /// Aggregate parameter-server ingest bandwidth, bytes/s (more servers ⇒
    /// more aggregate bandwidth, but it is shared by all workers).
    pub ps_bandwidth: f64,
    /// Relative dispersion of task times on the shared cluster (drives the
    /// straggler effect — the max of `w` draws grows with `w`).
    pub straggler_cv: f64,
    /// Worker memory footprint in GB (the paper reports 5.5 GB/worker).
    pub worker_mem_gb: f64,
    /// How much of a worker's relative speed survives an epoch boundary on
    /// the shared, non-exclusive cluster. `1.0` (the default) keeps the
    /// speeds drawn at job start for the whole run — one machine stays the
    /// straggler. `0.0` re-draws every worker's speed at each of its epoch
    /// boundaries (the scheduler moved it, or a noisy neighbor left);
    /// values in between blend old and fresh draws.
    pub speed_persistence: f64,
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            worker_bandwidth: 1.25e9 / 10.0, // 1 Gbps effective per worker
            ps_bandwidth: 2.5e9,             // shared PS ingest
            straggler_cv: 0.055,
            worker_mem_gb: 5.5,
            speed_persistence: 1.0,
            seed: 42,
        }
    }
}

/// The training job to replay.
#[derive(Debug, Clone, Copy)]
pub struct TrainingWorkload {
    /// Training examples per epoch.
    pub examples: u64,
    /// Measured (or assumed) seconds of worker compute per example —
    /// calibrate from a local `LocalTrainer` run.
    pub secs_per_example: f64,
    pub batch_size: u64,
    pub epochs: u64,
    /// Model size in bytes (pull + push per step each move this much).
    pub param_bytes: u64,
}

/// Expected maximum of `w` unit-mean draws with coefficient of variation
/// `cv` — the Gumbel-ish `max ≈ 1 + cv·√(2 ln w)` approximation, jittered
/// deterministically per step.
fn straggler_factor(w: usize, cv: f64, jitter: f64) -> f64 {
    if w <= 1 {
        return 1.0;
    }
    1.0 + cv * (2.0 * (w as f64).ln()).sqrt() * (1.0 + 0.1 * jitter)
}

/// One synchronous step's wall time.
fn step_time(cfg: &ClusterConfig, wl: &TrainingWorkload, w: usize, jitter: f64) -> f64 {
    let compute = wl.batch_size as f64 * wl.secs_per_example * straggler_factor(w, cfg.straggler_cv, jitter);
    // Pull + push over the worker's own link…
    let link = 2.0 * wl.param_bytes as f64 / cfg.worker_bandwidth;
    // …and the shared PS ingest all `w` workers contend on.
    let ps = 2.0 * wl.param_bytes as f64 * w as f64 / cfg.ps_bandwidth;
    compute + link + ps
}

/// Simulate a full synchronous training run on `w` workers.
pub fn simulate_sync_training(cfg: &ClusterConfig, wl: &TrainingWorkload, w: usize) -> SimReport {
    assert!(w >= 1);
    let steps_per_epoch = wl.examples.div_ceil(wl.batch_size * w as u64).max(1);
    let mut rng = seeded_rng(derive_seed(cfg.seed, w as u64));
    let mut wall = 0.0f64;
    // Sample a handful of steps and scale — steps within an epoch are iid
    // in this model.
    let probe = 64.min(steps_per_epoch) as usize;
    let mut probe_sum = 0.0;
    for _ in 0..probe {
        probe_sum += step_time(cfg, wl, w, rng.gen_range(-1.0..1.0));
    }
    let mean_step = probe_sum / probe as f64;
    wall += mean_step * steps_per_epoch as f64 * wl.epochs as f64;
    let wall_min = wall / 60.0;
    SimReport {
        wall: Duration::from_secs_f64(wall),
        cpu_core_min: wall_min * w as f64,
        mem_gb_min: wall_min * w as f64 * cfg.worker_mem_gb,
    }
}

/// Speedup ratios `T(1)/T(w)` for a sweep of worker counts (Fig. 8).
pub fn speedup_curve(cfg: &ClusterConfig, wl: &TrainingWorkload, workers: &[usize]) -> Vec<(usize, f64)> {
    let t1 = simulate_sync_training(cfg, wl, 1).wall.as_secs_f64();
    workers.iter().map(|&w| (w, t1 / simulate_sync_training(cfg, wl, w).wall.as_secs_f64())).collect()
}

/// What a staleness-bounded (or unbounded) run looks like at cluster scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SspSimReport {
    /// Table-5 cost units for the run, like [`simulate_sync_training`].
    pub report: SimReport,
    /// Fraction of total worker-time spent blocked at the staleness gate
    /// (0 for async — nothing ever blocks).
    pub mean_wait_frac: f64,
    /// Largest observed clock drift: fastest worker's completed steps minus
    /// the slowest unfinished worker's, over the whole run. Under SSP this
    /// is at most `slack + 1`; async lets it grow with run length.
    pub max_lead_steps: u64,
}

/// Simulate staleness-bounded (SSP) training: worker `i` may not *start*
/// step `k` until every unfinished worker has *completed* step `k - slack`
/// (the classic SSP clock condition). `slack = 0` is the lock-step barrier,
/// large `slack` approaches fully asynchronous.
pub fn simulate_ssp_training(cfg: &ClusterConfig, wl: &TrainingWorkload, w: usize, slack: u64) -> SspSimReport {
    simulate_elastic_training(cfg, wl, w, Some(slack))
}

/// Simulate fully asynchronous training: no gate, every worker free-runs at
/// its own pace. `mean_wait_frac` is 0 by construction; `max_lead_steps`
/// shows how far the gradient clock drifts apart.
pub fn simulate_async_training(cfg: &ClusterConfig, wl: &TrainingWorkload, w: usize) -> SspSimReport {
    simulate_elastic_training(cfg, wl, w, None)
}

/// Event-driven clock simulation shared by SSP (`Some(slack)`) and async
/// (`None`). Deterministic: per-worker rngs are seeded by worker index, so
/// draws do not depend on interleaving.
fn simulate_elastic_training(cfg: &ClusterConfig, wl: &TrainingWorkload, w: usize, slack: Option<u64>) -> SspSimReport {
    assert!(w >= 1);
    assert!(
        (0.0..=1.0).contains(&cfg.speed_persistence),
        "speed_persistence must be in [0, 1], got {}",
        cfg.speed_persistence
    );
    let steps_per_epoch = wl.examples.div_ceil(wl.batch_size * w as u64).max(1);
    let total = steps_per_epoch * wl.epochs; // steps each worker must complete
    let link = 2.0 * wl.param_bytes as f64 / cfg.worker_bandwidth;
    let ps = 2.0 * wl.param_bytes as f64 * w as f64 / cfg.ps_bandwidth;
    let base_compute = wl.batch_size as f64 * wl.secs_per_example;

    // Persistent per-worker speed: the shared cluster hands each worker a
    // machine somewhere between nominal and the log-extreme tail; the last
    // worker is pinned at the tail so every run has its straggler.
    let tail = cfg.straggler_cv * (2.0 * (w as f64).ln().max(0.0)).sqrt();
    let mut speed_rng = seeded_rng(derive_seed(cfg.seed, 0x55b));
    let mut speed: Vec<f64> =
        (0..w).map(|i| if i == w - 1 { 1.0 + tail } else { 1.0 + tail * speed_rng.gen_range(0.0..0.5) }).collect();
    let mut rngs: Vec<_> = (0..w).map(|i| seeded_rng(derive_seed(cfg.seed, 1 + i as u64))).collect();
    // With persistence < 1, epoch boundaries blend each worker's speed
    // toward a fresh draw from the *typical* band — so the job-start
    // straggler regresses to the pack instead of dragging the whole run.
    // At exactly 1.0 no rng draws are consumed, keeping runs bit-identical
    // to the fixed-speed model.
    let persistence = cfg.speed_persistence;

    let mut t = vec![0.0f64; w]; // wall time at which worker has finished `clock[i]` steps
    let mut clock = vec![0u64; w];
    // gate_open[m] = wall time at which every unfinished worker had
    // completed ≥ m steps (monotone; filled as the min clock advances).
    let mut gate_open = vec![f64::NAN; total as usize + 1];
    gate_open[0] = 0.0;
    let mut min_known = 0u64; // highest m with gate_open[m] recorded
    let mut wait_total = 0.0f64;
    let mut max_lead = 0u64;
    let mut remaining = w;

    while remaining > 0 {
        // Pick the runnable worker whose (possibly gated) start is earliest.
        let mut pick: Option<(usize, f64)> = None;
        for i in 0..w {
            if clock[i] >= total {
                continue;
            }
            let start = match slack {
                Some(s) if clock[i] > s => {
                    let needed = clock[i] - s;
                    if needed > min_known {
                        continue; // gate closed: a laggard must advance first
                    }
                    t[i].max(gate_open[needed as usize])
                }
                _ => t[i],
            };
            if pick.is_none_or(|(_, best)| start < best) {
                pick = Some((i, start));
            }
        }
        // The slowest unfinished worker is never gated (its clock equals the
        // min), so a runnable worker always exists — this is the same
        // induction that makes the real `agl-ps` SSP gate deadlock-free.
        let (i, start) = pick.expect("SSP clock sim: no runnable worker");
        wait_total += start - t[i];
        let jitter = rngs[i].gen_range(-1.0..1.0);
        t[i] = start + base_compute * speed[i] * (1.0 + 0.1 * jitter) + link + ps;
        clock[i] += 1;
        if clock[i] >= total {
            remaining -= 1;
        } else if persistence < 1.0 && clock[i].is_multiple_of(steps_per_epoch) {
            // Epoch boundary: re-draw this worker's machine speed. Drawing
            // from the worker's own rng keeps the simulation deterministic
            // regardless of event interleaving.
            let fresh = 1.0 + tail * rngs[i].gen_range(0.0..0.5);
            speed[i] = persistence * speed[i] + (1.0 - persistence) * fresh;
        }
        let min_unfinished = (0..w).filter(|&j| clock[j] < total).map(|j| clock[j]).min();
        if let Some(m) = min_unfinished {
            max_lead = max_lead.max(clock[i] - m);
            while min_known < m {
                min_known += 1;
                gate_open[min_known as usize] = t[i];
            }
        }
    }

    let wall = t.iter().copied().fold(0.0f64, f64::max);
    let wall_min = wall / 60.0;
    SspSimReport {
        report: SimReport {
            wall: Duration::from_secs_f64(wall),
            cpu_core_min: wall_min * w as f64,
            mem_gb_min: wall_min * w as f64 * cfg.worker_mem_gb,
        },
        mean_wait_frac: if wall > 0.0 { wait_total / (wall * w as f64) } else { 0.0 },
        max_lead_steps: max_lead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> TrainingWorkload {
        TrainingWorkload {
            examples: 1_200_000,
            secs_per_example: 2e-3,
            batch_size: 128,
            epochs: 1,
            param_bytes: 4 * 200_000,
        }
    }

    #[test]
    fn speedup_is_near_linear_with_slope_around_point_eight() {
        // The Fig. 8 claim: ~78× at 100 workers, slope ≈ 0.8 throughout.
        let curve = speedup_curve(&ClusterConfig::default(), &wl(), &[10, 20, 50, 100]);
        for &(w, s) in &curve {
            let slope = s / w as f64;
            assert!((0.7..=1.0).contains(&slope), "{w} workers: speedup {s:.1} (slope {slope:.2})");
        }
        let (_, s100) = curve.last().copied().unwrap();
        assert!((70.0..90.0).contains(&s100), "100 workers: {s100:.1}×");
    }

    #[test]
    fn speedup_is_monotone() {
        let curve = speedup_curve(&ClusterConfig::default(), &wl(), &[1, 2, 4, 8, 16, 32, 64, 100]);
        for pair in curve.windows(2) {
            assert!(pair[1].1 > pair[0].1, "{pair:?}");
        }
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_workers_cost_more_cpu_for_same_job() {
        let cfg = ClusterConfig::default();
        let a = simulate_sync_training(&cfg, &wl(), 10);
        let b = simulate_sync_training(&cfg, &wl(), 100);
        assert!(b.wall < a.wall, "faster wall-clock");
        assert!(b.cpu_core_min > a.cpu_core_min, "but more aggregate CPU (imperfect scaling)");
    }

    #[test]
    fn deterministic() {
        let cfg = ClusterConfig::default();
        assert_eq!(simulate_sync_training(&cfg, &wl(), 7), simulate_sync_training(&cfg, &wl(), 7));
        assert_eq!(simulate_ssp_training(&cfg, &wl(), 16, 4), simulate_ssp_training(&cfg, &wl(), 16, 4));
        assert_eq!(simulate_async_training(&cfg, &wl(), 16), simulate_async_training(&cfg, &wl(), 16));
    }

    #[test]
    fn ssp_wait_shrinks_as_slack_grows() {
        let cfg = ClusterConfig::default();
        let waits: Vec<f64> =
            [0, 1, 4, 16, 64].iter().map(|&s| simulate_ssp_training(&cfg, &wl(), 32, s).mean_wait_frac).collect();
        for pair in waits.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "wait frac should not grow with slack: {waits:?}");
        }
        assert!(waits[0] > waits[4], "slack 0 must wait strictly more than slack 64: {waits:?}");
        assert!(waits[4] < 0.02, "with huge slack the gate should all but vanish: {}", waits[4]);
    }

    #[test]
    fn ssp_lead_is_bounded_by_slack_plus_one() {
        // A worker may start step k only when min clock ≥ k − slack, so on
        // completion its lead is ≤ slack + 1 — same bound the live
        // parameter server enforces on gradient staleness.
        let cfg = ClusterConfig::default();
        for slack in [0u64, 1, 4, 16] {
            for w in [2usize, 8, 32] {
                let r = simulate_ssp_training(&cfg, &wl(), w, slack);
                assert!(r.max_lead_steps <= slack + 1, "w={w} slack={slack}: lead {} exceeds bound", r.max_lead_steps);
            }
        }
    }

    #[test]
    fn async_never_waits_but_drifts_further() {
        let cfg = ClusterConfig::default();
        let long = TrainingWorkload { epochs: 4, ..wl() };
        let a = simulate_async_training(&cfg, &long, 32);
        let s = simulate_ssp_training(&cfg, &long, 32, 1);
        assert_eq!(a.mean_wait_frac, 0.0);
        assert!(a.max_lead_steps > s.max_lead_steps, "async drift {} vs ssp {}", a.max_lead_steps, s.max_lead_steps);
        assert!(a.report.wall <= s.report.wall, "free-running can only finish sooner");
    }

    #[test]
    fn epoch_speed_redraw_softens_the_straggler_gate() {
        // Fixed speeds pin one worker at the log-extreme tail for the whole
        // run, so a slack-0 gate waits on it every step of every epoch.
        // With zero persistence the straggler's speed regresses to the
        // typical band at its first epoch boundary, and the total fraction
        // of worker-time lost at the gate must drop.
        let fixed = ClusterConfig::default();
        let churn = ClusterConfig { speed_persistence: 0.0, ..fixed };
        let long = TrainingWorkload { epochs: 6, ..wl() };
        let wait_fixed = simulate_ssp_training(&fixed, &long, 32, 0).mean_wait_frac;
        let wait_churn = simulate_ssp_training(&churn, &long, 32, 0).mean_wait_frac;
        assert!(
            wait_churn < wait_fixed,
            "re-drawn speeds should wait less at the gate: churn {wait_churn:.4} vs fixed {wait_fixed:.4}"
        );
        // Partial persistence lands between the extremes of the blend.
        let half = ClusterConfig { speed_persistence: 0.5, ..fixed };
        let wait_half = simulate_ssp_training(&half, &long, 32, 0).mean_wait_frac;
        assert!(wait_half < wait_fixed, "half persistence still softens the gate: {wait_half:.4} vs {wait_fixed:.4}");
    }

    #[test]
    fn elastic_speeds_stay_deterministic() {
        let churn = ClusterConfig { speed_persistence: 0.25, ..ClusterConfig::default() };
        let long = TrainingWorkload { epochs: 3, ..wl() };
        assert_eq!(simulate_ssp_training(&churn, &long, 16, 2), simulate_ssp_training(&churn, &long, 16, 2));
        assert_eq!(simulate_async_training(&churn, &long, 16), simulate_async_training(&churn, &long, 16));
    }

    #[test]
    fn single_worker_has_nothing_to_wait_for() {
        let cfg = ClusterConfig::default();
        let r = simulate_ssp_training(&cfg, &wl(), 1, 0);
        assert_eq!(r.mean_wait_frac, 0.0);
        assert_eq!(r.max_lead_steps, 0);
    }
}
