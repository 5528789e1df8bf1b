//! `agl-analysis` — static analysis for the AGL workspace.
//!
//! Repo invariants that the type system cannot see — no panics in
//! pipeline library code, deterministic clocks, ordered atomics — are
//! enforced here:
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
//!   in-scope file's code channel records function definitions and call
//!   sites (the workspace **call graph**), lexically held lock guards,
//!   hot-loop allocations, atomic declarations and accesses, fences, and
//!   spawn/scope blocks. A lint run walks each file at most once, whichever
//!   rules read it. The `no-hot-alloc` rule reads the walk's allocations
//!   inside the loop bodies of the aggregation/reducer hot functions and
//!   the parameter server's apply loop.
//! * **Happens-before pass** ([`atomics`]): classifies every atomic the walk
//!   saw as thread-local or cross-thread (spawn captures, statics,
//!   `Arc`-reachable owners, spawn-reachability over the call graph), and
//!   flags unordered `Relaxed` traffic, mixed orderings, and non-atomic
//!   spawn-write/outside-read pairs — the `atomics` rule. ThreadSanitizer
//!   (`./ci.sh --sanitize`, opt-in) is the only dynamic race check. The
//!   parameter server needs no proof of a lock order: its state sits
//!   behind one mutex (see the repository's `CONCURRENCY.md`).
//!
//! A workspace integration test runs the linter over the entire repo, so a
//! violation anywhere fails tier-1.

#![warn(missing_docs)]

pub mod atomics;
pub mod lint;
pub mod rules;
pub mod scanner;
pub mod walk;

pub use atomics::AtomicFinding;
pub use lint::{collect_rs_files, find_workspace_root, lint_source, lint_sources, lint_workspace};
pub use rules::{crate_registry, crate_rule_by_name, registry, rule_by_name, CrateRule, Diagnostic, FileView, Rule};
pub use walk::{walk, AllocSite, FileWalk, Walk};
