//! `agl-analysis` — static analysis for the AGL workspace.
//!
//! AGL's correctness story (paper §3.3.2 conflict-free aggregation;
//! deterministic, retryable MapReduce rounds in GraphFlat/GraphInfer) is
//! enforced here at two levels:
//!
//! * **Source lints** ([`lint`], [`rules`], [`scanner`], and the
//!   `agl-lint` binary): a dependency-free token scanner walks every
//!   workspace `.rs` file and enforces repo invariants — no
//!   `.unwrap()`/`.expect(…)`/`panic!` in pipeline-crate library code, a
//!   `// SAFETY:` comment before every `unsafe`, no wall-clock reads outside
//!   the `agl-obs` clock, no raw `std::thread::spawn` in library code.
//!   `// agl-lint: allow(<rule>)` is the audited escape hatch;
//!   [`rules::registry`] is where future rules are added.
//! * **One source walk** ([`walk`](mod@walk)): a single pass over each
//!   in-scope file's code channel records what the concurrency passes judge —
//!   function definitions and call sites (the workspace **call graph**, with
//!   the guards held at each call), wrapper lock acquisitions, raw locks,
//!   blocking operations, hot-loop allocations, atomic declarations and
//!   accesses, fences, and spawn/scope blocks. A lint run walks each file at
//!   most once, whichever rules read it.
//! * **Concurrency-safety pass** ([`lockgraph`]): judges the walk's lock
//!   sites in `agl-ps` against the canonical `barrier → versions → shard(i)
//!   ascending` discipline, flagging order inversions, double acquisitions,
//!   unprovably-ordered shard pairs, locks held across
//!   `.send(…)`/`.recv(…)`/`spawn(…)` or a condvar wait, and raw locks that
//!   bypass the wrappers. [`lockgraph::interproc`] propagates lock summaries
//!   bottom-up by SCC over the call graph and proves the same discipline
//!   *across* function boundaries — the `lock-order/interproc` rule, whose
//!   findings name the full call chain site by site. The `no-hot-alloc`
//!   rule reads the walk's allocations inside the loop bodies of the
//!   aggregation/reducer hot functions. This is the one proof of the lock
//!   order: `agl-ps` holds plain `std::sync::Mutex`es behind the wrappers.
//!   The whole model is written up in the repository's `CONCURRENCY.md`.
//! * **Happens-before pass** ([`atomics`]): classifies every atomic the walk
//!   saw as thread-local or cross-thread (spawn captures, statics,
//!   `Arc`-reachable owners, spawn-reachability over the call graph), and
//!   flags unordered `Relaxed` traffic, mixed orderings, and non-atomic
//!   spawn-write/outside-read pairs — the `atomics` rule. ThreadSanitizer
//!   (`./ci.sh --sanitize`, opt-in) is the only dynamic race check.
//! * **Plan-level verifier**: [`ConflictFreedomVerifier`] proves an
//!   [`agl_tensor::EdgePartition`] is pairwise disjoint, covering, and
//!   nnz-balanced before threads spawn (the dynamic complement is
//!   `agl_tensor::partition::WriteSetTracker`).
//!
//! A workspace integration test runs the linter over the entire repo, so a
//! violation anywhere fails tier-1.

#![warn(missing_docs)]

pub mod atomics;
pub mod conflict;
pub mod lint;
pub mod lockgraph;
pub mod rules;
pub mod scanner;
pub mod walk;

pub use atomics::AtomicFinding;
pub use conflict::ConflictFreedomVerifier;
pub use lint::{collect_rs_files, find_workspace_root, lint_source, lint_sources, lint_workspace};
pub use lockgraph::{
    interproc, render_chain, Analysis, ChainFrame, InterprocFinding, LockEdge, LockFinding, LockFindingKind, LockSym,
};
pub use rules::{crate_registry, crate_rule_by_name, registry, rule_by_name, CrateRule, Diagnostic, FileView, Rule};
pub use walk::{walk, AllocSite, FileWalk, Walk};
