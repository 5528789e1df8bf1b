//! Replay determinism under injected faults.
//!
//! The engine's whole fault-tolerance story (§3.2's reliance on mature
//! MapReduce infrastructure) rests on re-executed tasks reproducing their
//! output bit-for-bit. These tests inject mid-shuffle failures — map tasks
//! and reduce tasks of both rounds — and require the job output to be
//! **bit-identical** (same bytes, same order) to the failure-free run,
//! across three input seeds, both spill modes, and both local placements
//! (the thread pool, and one partition resident at a time).

use agl_mapreduce::{Codec, FaultPlan, JobConfig, MapReduceJob, Mapper, Placement, Reducer, SpillMode, TaskId};

/// xorshift64* — deterministic input generator, no external RNG deps.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn seeded_inputs(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    (0..n).map(|_| xorshift(&mut state).to_bytes()).collect()
}

/// Key each record by `v % 24`, pass the value through.
struct ModMap;
impl Mapper for ModMap {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let v = u64::from_bytes(input).unwrap();
        emit((v % 24).to_bytes(), v.to_bytes());
    }
}

/// Wrapping-sum per group, re-emitted under the same key — associative and
/// commutative, so it survives both re-execution and multi-round chaining.
struct WrapSumReduce;
impl Reducer for WrapSumReduce {
    fn reduce(
        &self,
        _round: usize,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) {
        let total = values.map(|v| u64::from_bytes(v).unwrap()).fold(0u64, u64::wrapping_add);
        emit(key.to_vec(), total.to_bytes());
    }
}

/// Failures spread across the whole pipeline: a map task plus reduce tasks
/// of both rounds, some failing several attempts in a row.
fn mid_shuffle_faults() -> FaultPlan {
    FaultPlan::none()
        .fail_first(TaskId::map(2), 1)
        .fail_first(TaskId::reduce(0, 1), 2)
        .fail_first(TaskId::reduce(0, 3), 1)
        .fail_first(TaskId::reduce(1, 0), 1)
}

fn run(inputs: &[Vec<u8>], fault_plan: FaultPlan, spill: SpillMode) -> agl_mapreduce::JobResult {
    let cfg = JobConfig { reduce_rounds: 2, fault_plan, spill, ..JobConfig::default() };
    MapReduceJob::new(cfg).run(inputs, &ModMap, &WrapSumReduce).unwrap()
}

/// [`run`] with one partition resident at a time instead of a thread pool.
fn run_resident_one(inputs: &[Vec<u8>], fault_plan: FaultPlan, spill: SpillMode) -> agl_mapreduce::JobResult {
    let cfg = JobConfig { reduce_rounds: 2, fault_plan, spill, ..JobConfig::default() };
    MapReduceJob::new(cfg).run_on(Placement::ResidentOne, inputs, &ModMap, &WrapSumReduce, None, &Vec::new).unwrap()
}

#[test]
fn injected_mid_shuffle_failures_replay_bit_identically_across_seeds() {
    for seed in [0x11u64, 0x22, 0x33] {
        let inputs = seeded_inputs(seed, 96);
        let clean = run(&inputs, FaultPlan::none(), SpillMode::InMemory);
        let faulty = run(&inputs, mid_shuffle_faults(), SpillMode::InMemory);
        // Bit-identical: same records in the same order, not just the same
        // multiset — re-execution must be a true replay.
        assert_eq!(clean.output, faulty.output, "seed {seed:#x}");
        assert_eq!(clean.counters.get("output_records"), faulty.counters.get("output_records"), "seed {seed:#x}");
        assert_eq!(faulty.counters.get("task_retries"), 5, "seed {seed:#x}: 1+2+1+1 injected failures");
        assert_eq!(clean.counters.get("task_retries"), 0, "seed {seed:#x}");
        // The plan is honoured — not silently skipped — with one partition
        // resident, and the replay is just as exact.
        let streamed = run_resident_one(&inputs, mid_shuffle_faults(), SpillMode::InMemory);
        assert_eq!(clean.output, streamed.output, "seed {seed:#x}: resident-one");
        assert_eq!(streamed.counters.get("task_retries"), 5, "seed {seed:#x}: resident-one injects every fault");
    }
}

#[test]
fn fault_replay_is_bit_identical_through_disk_spill() {
    let dir = std::env::temp_dir().join(format!("agl-mr-fault-det-{}", std::process::id()));
    let inputs = seeded_inputs(0x44, 96);
    let clean = run(&inputs, FaultPlan::none(), SpillMode::Disk(dir.clone()));
    let faulty = run(&inputs, mid_shuffle_faults(), SpillMode::Disk(dir.clone()));
    assert_eq!(clean.output, faulty.output);
    // And the spilled runs agree with the in-memory ones byte-for-byte.
    let mem = run(&inputs, FaultPlan::none(), SpillMode::InMemory);
    assert_eq!(clean.output, mem.output);
    let streamed = run_resident_one(&inputs, mid_shuffle_faults(), SpillMode::Disk(dir.clone()));
    assert_eq!(clean.output, streamed.output, "resident-one through disk spill");
    assert_eq!(streamed.counters.get("task_retries"), 5);
    assert!(std::fs::read_dir(&dir).map(|d| d.count() == 0).unwrap_or(true), "discarded attempts leak no files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulty_runs_agree_across_parallelism_levels() {
    let inputs = seeded_inputs(0x55, 64);
    let base = run(&inputs, mid_shuffle_faults(), SpillMode::InMemory);
    for par in [1, 2, 8] {
        let cfg =
            JobConfig { reduce_rounds: 2, fault_plan: mid_shuffle_faults(), parallelism: par, ..JobConfig::default() };
        let out = MapReduceJob::new(cfg).run(&inputs, &ModMap, &WrapSumReduce).unwrap();
        assert_eq!(base.output, out.output, "parallelism {par}");
    }
}
