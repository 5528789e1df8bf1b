//! Worker pool: runs `n` training workers against a shared parameter
//! server, each on its own thread — the "workers that perform the bulk of
//! computation" half of the GraphTrainer architecture (§3.3).

use crate::net::run_client_workers;
use crate::server::ParameterServer;
use std::sync::Arc;

/// Run `n_workers` copies of `work(worker_id, server)` on threads and wait
/// for all of them. Panics in a worker propagate. Each worker is retired
/// from the server ([`ParameterServer::retire_worker`]) when its closure
/// returns, so finished workers never gate SSP pushes from slower ones.
///
/// `work` receives its 0-based worker id; data partitioning (each worker
/// reads only its own slice of the training triples) is the caller's
/// responsibility, matching the self-contained-partition property GraphFlat
/// guarantees.
pub fn run_workers<F>(server: &Arc<ParameterServer>, n_workers: usize, work: F)
where
    F: Fn(usize, &ParameterServer) + Sync,
{
    // The in-process server's client calls are infallible, so the pool
    // has no error to report.
    let _ = run_client_workers(&**server, n_workers, |w, server| {
        work(w, server);
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Consistency;
    use agl_nn::{Optimizer, Sgd};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sgd() -> Box<dyn Optimizer> {
        Box::new(Sgd::new(0.01))
    }

    #[test]
    fn all_workers_run_with_distinct_ids() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2], 1, 5, Consistency::Async, sgd));
        let seen = AtomicU64::new(0);
        run_workers(&ps, 5, |w, _| {
            seen.fetch_or(1 << w, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 0b11111);
    }

    #[test]
    fn workers_minimise_shared_quadratic() {
        // Each worker descends f(x) = ||x - 3||² via the server; the shared
        // parameters must converge regardless of interleaving.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 3], 2, 4, Consistency::Sync, sgd));
        run_workers(&ps, 4, |w, server| {
            for _ in 0..400 {
                let x = server.pull(w);
                let g: Vec<f32> = x.iter().map(|&xi| 2.0 * (xi - 3.0)).collect();
                server.push(w, &g);
            }
        });
        for xi in ps.snapshot() {
            assert!((xi - 3.0).abs() < 1e-2, "converged to {xi}");
        }
    }

    #[test]
    fn uneven_workloads_finish_under_ssp() {
        // Workers do different numbers of steps; the retire-on-return guard
        // must keep the short-lived workers from gating the long-lived one.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2], 1, 4, Consistency::Ssp { slack: 2 }, sgd));
        run_workers(&ps, 4, |w, server| {
            for _ in 0..(5 * (w + 1)) {
                let _x = server.pull(w);
                server.push(w, &[0.1, -0.1]);
            }
        });
        let st = ps.stats();
        assert_eq!(st.steps, 5 + 10 + 15 + 20);
        assert!(st.max_staleness <= 2);
    }
}
