//! `agl-bench` — shared machinery for the experiment harnesses.
//!
//! One binary per table/figure of the paper's evaluation (§4), plus two
//! design experiments beyond it:
//!
//! | binary      | reproduces                                     |
//! |-------------|------------------------------------------------|
//! | `table2`    | dataset summary                                |
//! | `table3`    | effectiveness (accuracy / micro-F1 / AUC)      |
//! | `table4`    | time-per-epoch ablation on PPI                 |
//! | `table5`    | inference efficiency on UUG                    |
//! | `fig7`      | convergence vs worker count                    |
//! | `fig8`      | speedup vs worker count                        |
//! | `headline`  | the 14 h train / 1.2 h inference extrapolation |
//! | `ssp`       | PS consistency: convergence vs staleness       |
//! | `ablations` | consistency, re-indexing, sampling, prefetch   |
//!
//! Performance of the pipeline itself is measured by `pipeline_bench`, not
//! here.
//!
//! Scale knobs (environment variables, all optional):
//!
//! * `AGL_PPI_SCALE` — PPI-like size factor (default 0.08; 1.0 = paper).
//! * `AGL_UUG_NODES` — UUG-like node count (default 10000).
//! * `AGL_EPOCHS` — training epochs for effectiveness runs (default 30).

use agl_datasets::{Dataset, Split};
use agl_flat::{FlatConfig, GraphFlat, SamplingStrategy, TargetSpec, TrainingExample};
use agl_graph::{Graph, NodeId};
use agl_mapreduce::JobError;
use std::time::Duration;

/// Read a scale knob from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// GraphFlat over one graph for an explicit target list, with labels pulled
/// from the graph's node table.
pub fn flatten_targets(graph: &Graph, targets: &[NodeId], cfg: &FlatConfig) -> Result<Vec<TrainingExample>, JobError> {
    let (nodes, edges) = graph.to_tables();
    let out = GraphFlat::new(cfg.clone()).run(&nodes, &edges, &TargetSpec::Ids(targets.to_vec()))?;
    Ok(out.examples)
}

/// GraphFlat over every node of a set of graphs (the inductive protocol).
pub fn flatten_graphs(graphs: &[Graph], cfg: &FlatConfig) -> Result<Vec<TrainingExample>, JobError> {
    let mut all = Vec::new();
    for g in graphs {
        let (nodes, edges) = g.to_tables();
        let out = GraphFlat::new(cfg.clone()).run(&nodes, &edges, &TargetSpec::All)?;
        all.extend(out.examples);
    }
    Ok(all)
}

/// Materialised train/val/test triples for a dataset.
pub struct FlattenedDataset {
    pub train: Vec<TrainingExample>,
    pub val: Vec<TrainingExample>,
    pub test: Vec<TrainingExample>,
}

/// Run GraphFlat for a dataset's three splits.
pub fn flatten_dataset(ds: &Dataset, k_hops: usize, sampling: SamplingStrategy) -> Result<FlattenedDataset, JobError> {
    let cfg = FlatConfig { k_hops, sampling, ..FlatConfig::default() };
    let split = |s: &Split| -> Result<Vec<TrainingExample>, JobError> {
        match s {
            Split::Nodes(ids) => flatten_targets(ds.graph(), ids, &cfg),
            Split::Graphs(gi) => {
                let graphs: Vec<Graph> = gi.iter().map(|&i| ds.graphs[i].clone()).collect();
                flatten_graphs(&graphs, &cfg)
            }
        }
    };
    Ok(FlattenedDataset { train: split(&ds.train)?, val: split(&ds.val)?, test: split(&ds.test)? })
}

/// Pretty seconds.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Pretty hours.
pub fn fmt_hours(d: Duration) -> String {
    format!("{:.2}h", d.as_secs_f64() / 3600.0)
}

/// Print a header block for a harness.
pub fn banner(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_datasets::{uug_like, UugConfig};

    #[test]
    fn flatten_dataset_produces_split_sized_outputs() {
        let ds = uug_like(UugConfig { n_nodes: 300, avg_degree: 4.0, ..UugConfig::default() });
        let f = flatten_dataset(&ds, 2, SamplingStrategy::Uniform { max_degree: 10 }).unwrap();
        assert_eq!(f.train.len(), ds.train.len());
        assert_eq!(f.val.len(), ds.val.len());
        assert_eq!(f.test.len(), ds.test.len());
    }

    #[test]
    fn env_knobs_parse_with_defaults() {
        assert_eq!(env_f64("AGL_DOES_NOT_EXIST", 0.5), 0.5);
        assert_eq!(env_usize("AGL_DOES_NOT_EXIST", 7), 7);
    }
}
