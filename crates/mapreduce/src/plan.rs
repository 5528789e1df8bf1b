//! Reducer determinism under record reordering.
//!
//! GraphFlat and GraphInfer each chain K+2 reduce rounds, and the retry
//! story (re-execute a failed task, get the same bytes) silently assumes
//! every reducer is **deterministic under record reordering**: a retried
//! task re-shuffles, so its groups may arrive in another value order.
//! [`check_group_reorder_determinism`] is the sampled double-run check the
//! engine runs on real groups when
//! [`JobConfig::verify_determinism`](crate::engine::JobConfig::verify_determinism)
//! is on.

use crate::engine::Reducer;
use std::fmt;

/// Why a determinism check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The sampled double-run check saw order-dependent emissions.
    NondeterministicReducer { round: usize, detail: String },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NondeterministicReducer { round, detail } => {
                write!(f, "reducer is order-sensitive in round {round}: {detail}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Reorder-determinism check for one **real** group sampled by the engine
/// (see `JobConfig::verify_determinism`): re-run `reducer` with the group's
/// values reversed and rotated and require the same **multiset** of
/// emissions as `baseline`.
///
/// This compares sorted multisets, not emission *sequences*: a reducer
/// that fans one message out per input value legitimately emits in value
/// order, and the engine re-sorts by key at the next shuffle anyway — only
/// the *content* must be order-free. Counter writes during the re-runs are
/// [silenced](crate::counters::Counters::silenced) so exact record counters
/// survive the double-run.
pub fn check_group_reorder_determinism<R: Reducer + ?Sized>(
    reducer: &R,
    round: usize,
    key: &[u8],
    values: &[Vec<u8>],
    baseline: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), PlanError> {
    if values.len() < 2 {
        return Ok(());
    }
    let mut base = baseline.to_vec();
    base.sort();
    let mut reversed = values.to_vec();
    reversed.reverse();
    let mut rotated = values.to_vec();
    rotated.rotate_left(values.len() / 2);
    for (label, reordered) in [("reversed", &reversed), ("rotated", &rotated)] {
        let mut out = crate::counters::Counters::silenced(|| run_once(reducer, round, key, reordered));
        out.sort();
        if out != base {
            return Err(PlanError::NondeterministicReducer {
                round,
                detail: format!(
                    "key {:?}: {label} value order changed the emitted multiset ({} vs {} record(s))",
                    preview(key),
                    out.len(),
                    base.len()
                ),
            });
        }
    }
    Ok(())
}

fn run_once<R: Reducer + ?Sized>(reducer: &R, round: usize, key: &[u8], values: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut iter = values.iter().map(Vec::as_slice);
    reducer.reduce(round, key, &mut iter, &mut |k, v| out.push((k, v)));
    out
}

fn preview(key: &[u8]) -> String {
    let head: Vec<u8> = key.iter().take(8).copied().collect();
    format!("{head:?}{}", if key.len() > 8 { "…" } else { "" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;

    struct SumReduce;
    impl Reducer for SumReduce {
        fn reduce(
            &self,
            _round: usize,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) {
            let total: u64 = values.map(|v| u64::from_bytes(v).unwrap()).sum();
            emit(key.to_vec(), total.to_bytes());
        }
    }

    /// Emits the first value it sees — the classic order-dependent bug.
    struct FirstReduce;
    impl Reducer for FirstReduce {
        fn reduce(
            &self,
            _round: usize,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) {
            if let Some(v) = values.next() {
                emit(key.to_vec(), v.to_vec());
            }
        }
    }

    /// Emits each value back out, one record per value — the emission
    /// *sequence* follows arrival order but the multiset does not.
    struct FanOutReduce;
    impl Reducer for FanOutReduce {
        fn reduce(
            &self,
            _round: usize,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) {
            for v in values {
                emit(key.to_vec(), v.to_vec());
            }
        }
    }

    fn group() -> (Vec<u8>, Vec<Vec<u8>>) {
        (vec![9], vec![1u64.to_bytes(), 2u64.to_bytes(), 3u64.to_bytes()])
    }

    fn baseline_of<R: Reducer>(r: &R, key: &[u8], values: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut iter = values.iter().map(Vec::as_slice);
        r.reduce(0, key, &mut iter, &mut |k, v| out.push((k, v)));
        out
    }

    #[test]
    fn group_reorder_check_accepts_order_free_multisets() {
        let (key, values) = group();
        let base = baseline_of(&FanOutReduce, &key, &values);
        assert!(check_group_reorder_determinism(&FanOutReduce, 0, &key, &values, &base).is_ok());
        let base = baseline_of(&SumReduce, &key, &values);
        assert!(check_group_reorder_determinism(&SumReduce, 0, &key, &values, &base).is_ok());
    }

    #[test]
    fn group_reorder_check_catches_first_value_dependence() {
        let (key, values) = group();
        let base = baseline_of(&FirstReduce, &key, &values);
        let err = check_group_reorder_determinism(&FirstReduce, 0, &key, &values, &base);
        assert!(matches!(err, Err(PlanError::NondeterministicReducer { round: 0, .. })), "{err:?}");
    }

    #[test]
    fn group_reorder_check_skips_singletons() {
        let key = vec![1];
        let values = vec![5u64.to_bytes()];
        let base = baseline_of(&FirstReduce, &key, &values);
        assert!(check_group_reorder_determinism(&FirstReduce, 0, &key, &values, &base).is_ok());
    }
}
