//! Lock-acquisition-order judgement over the shared source walk.
//!
//! The parameter server (`agl-ps`) guards its state with three families of
//! locks behind named acquisition wrappers — `lock_barrier()`,
//! `lock_versions()`, `lock_shard(i)` — with a canonical order:
//!
//! > barrier (rank 0) → versions (rank 1) → shard *i* (rank 2+i, ascending)
//!
//! This module proves that order. The shared [`walk`](mod@crate::walk)
//! records every tracked acquisition with the guards lexically held at it,
//! every potentially blocking operation with the guards held across it, and
//! every raw lock; [`analyze`] judges those sites function by function and
//! reports:
//!
//! * **inversions** — acquiring a lock whose rank is ≤ a held lock's rank;
//! * **double acquisitions** — re-acquiring a held class (self-deadlock);
//! * **unordered shard pairs** — two shard locks held together where at
//!   least one index is not a literal, so the order cannot be proven;
//! * **lock-held-across-send/spawn** — a `.send(…)`, `.recv(…)` or
//!   `spawn(…)` while any guard is held (a blocked channel or child would
//!   stall the lock);
//! * **lock-held-across-wait** — a condvar `guard.wait(…)` /
//!   `guard.wait_while(…)` while holding any *other* guard. The receiver
//!   itself is exempt: a condvar wait atomically releases the receiver's
//!   lock and reacquires it before returning, so the receiver is *not* held
//!   across the block — but every other guard stays locked while the thread
//!   sleeps. std's `cv.wait_while(guard, …)` releases its first argument
//!   the same way;
//! * **untracked locks** — raw `.lock()` / `lock_ignoring_poison(…)` that
//!   bypass the tracked wrappers, anywhere but inside the wrappers' own
//!   bodies.
//!
//! # Interprocedural analysis
//!
//! The per-function judgement only sees chains that are lexically inside
//! one function. `push` holding the barrier while `apply` (a different
//! function) takes `shard(i)` is invisible to it — until [`interproc`].
//! It builds the call graph over the walked files of a crate
//! (`WalkGraph`), resolving call targets conservatively (`self.f(…)`,
//! `Type::f(…)`, bare `f(…)`; never method calls on unknown receivers), and
//! propagates **lock summaries** bottom-up over the SCCs of the graph: the
//! set of lock classes a function may acquire transitively, and whether it
//! may block, each tagged with a site-by-site witness chain. Judging a
//! caller's held set against its callee's summary at every call site
//! yields the same finding kinds as the per-function pass, but spanning
//! function boundaries, with the full call chain named in the message.
//! Condvar semantics carry over: a wait releases and reacquires its
//! receiver, so only *other* held guards propagate into a blocking summary.
//!
//! Known, deliberate under-approximations (resolution never guesses, so the
//! pass cannot produce a false chain): method calls on non-`self` receivers
//! (`v.record_push(…)`) are not resolved, because the receiver's type is
//! unknown lexically and e.g. `vec.push(…)` must never resolve to
//! `ParameterServer::push`; and a guard *returned* by a callee is treated as
//! dying inside the callee (no escape analysis) — `agl-ps` wrappers return
//! guards only from the `lock_*` acquisition wrappers themselves, which the
//! walk models directly as acquisitions.

use crate::walk::{FileWalk, HeldLock, LockOp, Walk, WalkGraph};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Symbolic identity of an `agl-ps` lock at an acquisition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockSym {
    /// The SSP/sync barrier state (rank 0).
    Barrier,
    /// The version table (rank 1).
    Versions,
    /// `Some(i)` when the shard index is an integer literal, `None` when it
    /// is a runtime expression (rank known only relative to non-shards).
    Shard(Option<u64>),
}

impl LockSym {
    /// Canonical acquisition rank; `None` for shards whose index is not a
    /// literal (ordered against non-shards, unordered among shards).
    pub fn rank(self) -> Option<u64> {
        match self {
            LockSym::Barrier => Some(0),
            LockSym::Versions => Some(1),
            LockSym::Shard(Some(i)) => Some(2 + i),
            LockSym::Shard(None) => None,
        }
    }

    fn is_shard(self) -> bool {
        matches!(self, LockSym::Shard(_))
    }
}

impl fmt::Display for LockSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockSym::Barrier => write!(f, "barrier"),
            LockSym::Versions => write!(f, "versions"),
            LockSym::Shard(Some(i)) => write!(f, "shard({i})"),
            LockSym::Shard(None) => write!(f, "shard(_)"),
        }
    }
}

/// What a lock finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockFindingKind {
    /// Acquisition order contradicts the canonical ranks.
    Inversion,
    /// Re-acquiring an already-held class — self-deadlock on std mutexes.
    DoubleLock,
    /// Two shard locks held together, order not provable from literals.
    Unordered,
    /// `.send(`/`.recv(`/`spawn(` while holding a guard.
    HeldAcrossSend,
    /// Condvar `.wait(`/`.wait_while(` while holding a guard other than the
    /// receiver (which the wait releases and reacquires).
    HeldAcrossWait,
    /// Raw `.lock()`/`lock_ignoring_poison(` bypassing the tracked wrappers.
    UntrackedLock,
}

/// One lock-discipline finding (0-based line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFinding {
    /// What the finding is about.
    pub kind: LockFindingKind,
    /// 0-based line of the offending site.
    pub line: usize,
    /// Enclosing function, or `"<top>"` outside any `fn`.
    pub func: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One observed acquisition edge `from → to` (held → newly acquired).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Enclosing function of the acquisition.
    pub func: String,
    /// The lock already held.
    pub from: LockSym,
    /// The lock being acquired.
    pub to: LockSym,
    /// 0-based line of the acquisition that created the edge.
    pub line: usize,
}

/// The per-function judgement of one file's lock sites.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per-function lock-discipline findings, in source order.
    pub lock_findings: Vec<LockFinding>,
    /// The per-function lock graph: every held→acquired pair observed.
    pub edges: Vec<LockEdge>,
}

/// Judge every lock site of one walked file.
pub fn analyze(walk: &Walk) -> Analysis {
    let mut out = Analysis::default();
    for site in &walk.locks {
        let func = walk.fn_name(site.fn_idx);
        let (kind, message) = match site.op {
            LockOp::Acquire(sym) => {
                for h in &site.held {
                    out.edges.push(LockEdge { func: func.clone(), from: h.sym, to: sym, line: site.line });
                    if let Some((kind, message)) = judge_pair(h.sym, h.line, sym) {
                        out.lock_findings.push(LockFinding { kind, line: site.line, func: func.clone(), message });
                    }
                }
                continue;
            }
            LockOp::Block { .. } if site.held.is_empty() => continue,
            LockOp::Block { what, is_wait: true } => (
                LockFindingKind::HeldAcrossWait,
                format!(
                    "{what} releases only its receiver; still holding {} while parked on the condvar",
                    held_list(&site.held)
                ),
            ),
            LockOp::Block { what, is_wait: false } => (
                LockFindingKind::HeldAcrossSend,
                format!("{what} while holding {} — a blocked receiver or child stalls the lock", held_list(&site.held)),
            ),
            LockOp::Untracked(what) => (
                LockFindingKind::UntrackedLock,
                format!(
                    "raw {what} bypasses the tracked acquisition wrappers; use \
                     lock_barrier/lock_versions/lock_shard"
                ),
            ),
        };
        out.lock_findings.push(LockFinding { kind, line: site.line, func, message });
    }
    out
}

/// `barrier (line 3), shard(0) (line 7)` — held guards as messages name them.
fn held_list(held: &[HeldLock]) -> String {
    held.iter().map(|h| format!("{} (line {})", h.sym, h.line + 1)).collect::<Vec<_>>().join(", ")
}

/// Order verdict for acquiring `new` while `held_sym` (acquired at 0-based
/// `held_line`) is held — the shared core of the per-function and
/// interprocedural passes.
fn judge_pair(held_sym: LockSym, held_line: usize, new: LockSym) -> Option<(LockFindingKind, String)> {
    let mk = |kind, message| Some((kind, message));
    if held_sym == new && !matches!(new, LockSym::Shard(None)) {
        return mk(
            LockFindingKind::DoubleLock,
            format!("re-acquiring {} already held since line {} — self-deadlock on a std mutex", new, held_line + 1),
        );
    }
    match (held_sym.rank(), new.rank()) {
        (Some(h), Some(n)) if n <= h => mk(
            LockFindingKind::Inversion,
            format!(
                "lock-order inversion: acquiring {} while holding {} (acquired line {}); \
                 canonical order is barrier → versions → shard(i) ascending",
                new,
                held_sym,
                held_line + 1
            ),
        ),
        (Some(_), Some(_)) => None,
        // At least one non-literal shard index: order among shards unprovable.
        _ if held_sym.is_shard() && new.is_shard() => mk(
            LockFindingKind::Unordered,
            format!(
                "cannot prove acquisition order: {} acquired while holding {} (line {}) and at \
                 least one shard index is not a literal",
                new,
                held_sym,
                held_line + 1
            ),
        ),
        // Shard vs non-shard is ordered by construction (shards rank last).
        _ => {
            let held_is_lower = !held_sym.is_shard();
            if held_is_lower {
                None
            } else {
                mk(
                    LockFindingKind::Inversion,
                    format!(
                        "lock-order inversion: acquiring {} while holding {} (acquired line {})",
                        new,
                        held_sym,
                        held_line + 1
                    ),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interprocedural pass
// ---------------------------------------------------------------------------

/// One frame of an interprocedural witness chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFrame {
    /// The function this frame executes in.
    pub func: String,
    /// Display path of the file defining it.
    pub file: String,
    /// 0-based line of the site (call, acquisition, or blocking op).
    pub line: usize,
    /// What happens at the site: `"calls apply"`, `"acquires shard(0)"`,
    /// `"may block at .wait_while(…)"`.
    pub what: String,
}

impl ChainFrame {
    fn render(&self) -> String {
        format!("{} ({}:{}: {})", self.func, self.file, self.line + 1, self.what)
    }
}

/// Render a witness chain site-by-site: `push (ps.rs:12: calls apply) →
/// apply (ps.rs:40: acquires shard(0))`.
pub fn render_chain(chain: &[ChainFrame]) -> String {
    chain.iter().map(ChainFrame::render).collect::<Vec<_>>().join(" → ")
}

/// An interprocedural lock-discipline finding: a caller's held set conflicts
/// with something a callee does transitively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterprocFinding {
    /// Same taxonomy as the per-function pass.
    pub kind: LockFindingKind,
    /// Display path of the anchor file (the outermost call site).
    pub file: String,
    /// 0-based anchor line (the call site in the outermost caller).
    pub line: usize,
    /// The outermost caller.
    pub func: String,
    /// The witness chain, outermost call first, terminal site last. A
    /// finding from the lint rule always spans ≥ 2 functions; single-frame
    /// chains only appear in the intra mode used by regression tests.
    pub chain: Vec<ChainFrame>,
    /// Human-readable explanation, ending with the rendered chain.
    pub message: String,
}

/// A function's bottom-up lock summary.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// Lock classes this function may acquire transitively, each with one
    /// witness chain from the function's entry to the acquisition site.
    acquires: BTreeMap<LockSym, Vec<ChainFrame>>,
    /// Whether the function may block (condvar wait / send / recv / spawn)
    /// transitively: `(display token, is_wait, witness chain)`.
    blocks: Option<(&'static str, bool, Vec<ChainFrame>)>,
}

/// Run the interprocedural lock-order pass over the files of one crate.
///
/// Builds the call graph from the recorded definitions and call sites,
/// propagates lock summaries bottom-up over Tarjan SCCs (mutually recursive
/// functions share a fixpoint), then judges every resolved call site's held
/// set against its callee's summary. With `include_intra` the result also
/// contains single-frame findings equivalent to the per-function pass
/// (acquisition and blocking sites judged directly) — used by regression
/// tests to prove the two passes agree on intra-function chains; the lint
/// rule itself passes `false` and reports only multi-function chains.
pub fn interproc(files: &[FileWalk<'_>], include_intra: bool) -> Vec<InterprocFinding> {
    // A `spawn(…)` is a blocking site here, never a call into the workspace.
    let g = WalkGraph::build(files, |c| c.target.name() != "spawn");
    let cg = &g.cg;
    let frame = |v: usize, line: usize, what: String| ChainFrame {
        func: cg.nodes[v].name.clone(),
        file: files[cg.nodes[v].file].path.to_string(),
        line,
        what,
    };
    let call_frame = |v: usize, w: usize, line: usize| {
        let callee = &cg.nodes[w];
        frame(
            v,
            line,
            format!("calls {}{}", callee.owner.as_ref().map_or(String::new(), |o| format!("{o}::")), callee.name),
        )
    };

    // Seed each node's summary with its own acquisition / blocking sites.
    let mut summaries: Vec<Summary> = vec![Summary::default(); cg.nodes.len()];
    for (fi, f) in files.iter().enumerate() {
        for site in f.walk.locks.iter().filter(|s| !f.is_test_line(s.line)) {
            let Some(nid) = g.node(fi, site.fn_idx) else { continue };
            let sum = &mut summaries[nid];
            match site.op {
                LockOp::Acquire(sym) => {
                    sum.acquires.entry(sym).or_insert_with(|| vec![frame(nid, site.line, format!("acquires {sym}"))]);
                }
                LockOp::Block { what, is_wait } if sum.blocks.is_none() => {
                    sum.blocks = Some((what, is_wait, vec![frame(nid, site.line, format!("may block at {what}"))]));
                }
                _ => {}
            }
        }
    }

    // Propagate bottom-up: `sccs()` yields components callees-first, so by
    // the time a component is processed every out-of-component callee is
    // final; within a component, iterate to the (small, monotone) fixpoint.
    for comp in cg.sccs() {
        loop {
            let mut changed = false;
            for &v in &comp {
                for &(w, site_id) in &cg.out[v] {
                    let head = call_frame(v, w, g.sites[site_id].call.line);
                    let callee = summaries[w].clone();
                    for (sym, chain) in callee.acquires {
                        if let Entry::Vacant(slot) = summaries[v].acquires.entry(sym) {
                            slot.insert([vec![head.clone()], chain].concat());
                            changed = true;
                        }
                    }
                    if let Some((what, is_wait, chain)) = callee.blocks.filter(|_| summaries[v].blocks.is_none()) {
                        summaries[v].blocks = Some((what, is_wait, [vec![head], chain].concat()));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Judge every resolved call site against its callee's summary.
    let mut out: Vec<InterprocFinding> = Vec::new();
    for site in &g.sites {
        let caller = &cg.nodes[site.caller];
        let (file, line) = (files[caller.file].path, site.call.line);
        let head = call_frame(site.caller, site.callee, line);
        let callee = &summaries[site.callee];
        let mut push = |kind, message: String, chain: &[ChainFrame]| {
            let chain = [std::slice::from_ref(&head), chain].concat();
            out.push(InterprocFinding {
                kind,
                file: file.to_string(),
                line,
                func: caller.name.clone(),
                message: format!("{message}; call chain: {}", render_chain(&chain)),
                chain,
            });
        };
        for h in &site.call.held {
            for (sym, chain) in &callee.acquires {
                if let Some((kind, core)) = judge_pair(h.sym, h.line, *sym) {
                    push(kind, format!("interprocedural {core}"), chain);
                }
            }
        }
        if let Some((what, is_wait, chain)) = &callee.blocks {
            if !site.call.held.is_empty() {
                let (kind, verb) = if *is_wait {
                    (
                        LockFindingKind::HeldAcrossWait,
                        format!("{what} releases only its receiver; the caller's guard stays held while parked"),
                    )
                } else {
                    (LockFindingKind::HeldAcrossSend, format!("{what} can block while the caller's guard is held"))
                };
                push(kind, format!("interprocedural {verb}: holding {}", held_list(&site.call.held)), chain);
            }
        }
    }

    // Intra mode: replicate the per-function pass through the same engine,
    // as single-frame chains, so tests can assert the two passes agree.
    if include_intra {
        for f in files {
            for site in f.walk.locks.iter().filter(|s| !f.is_test_line(s.line)) {
                let func = f.walk.fn_name(site.fn_idx);
                let mut push = |kind, message, what| {
                    let chain =
                        vec![ChainFrame { func: func.clone(), file: f.path.to_string(), line: site.line, what }];
                    out.push(InterprocFinding {
                        kind,
                        file: f.path.to_string(),
                        line: site.line,
                        func: func.clone(),
                        message,
                        chain,
                    });
                };
                match site.op {
                    LockOp::Acquire(sym) => {
                        for h in &site.held {
                            if let Some((kind, core)) = judge_pair(h.sym, h.line, sym) {
                                push(kind, core, format!("acquires {sym}"));
                            }
                        }
                    }
                    LockOp::Block { what, is_wait } if !site.held.is_empty() => {
                        let kind =
                            if is_wait { LockFindingKind::HeldAcrossWait } else { LockFindingKind::HeldAcrossSend };
                        push(
                            kind,
                            format!("{what} while holding {}", held_list(&site.held)),
                            format!("may block at {what}"),
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;
    use crate::walk::walk;

    fn locks(src: &str) -> Analysis {
        analyze(&walk(&scan(src), &[]))
    }

    #[test]
    fn canonical_order_produces_edges_and_no_findings() {
        let src = "impl Ps {\n    fn apply(&self) {\n        let vt = self.lock_versions();\n        for i in 0..n {\n            let sh = self.lock_shard(i);\n        }\n    }\n}\n";
        let a = locks(src);
        assert!(a.lock_findings.is_empty(), "{:?}", a.lock_findings);
        assert_eq!(a.edges.len(), 1);
        assert_eq!(a.edges[0].from, LockSym::Versions);
        assert_eq!(a.edges[0].to, LockSym::Shard(None));
        assert_eq!(a.edges[0].func, "apply");
    }

    #[test]
    fn literal_shard_inversion_is_caught() {
        let src = "fn bad(&self) {\n    let a = self.lock_shard(1);\n    let b = self.lock_shard(0);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1);
        let f = &a.lock_findings[0];
        assert_eq!(f.kind, LockFindingKind::Inversion);
        assert_eq!(f.line, 2);
        assert_eq!(f.func, "bad");
        assert!(f.message.contains("shard(0)") && f.message.contains("shard(1)"), "{}", f.message);
    }

    #[test]
    fn shard_before_versions_is_an_inversion() {
        let src = "fn bad(&self) {\n    let sh = self.lock_shard(2);\n    let vt = self.lock_versions();\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1);
        assert_eq!(a.lock_findings[0].kind, LockFindingKind::Inversion);
    }

    #[test]
    fn double_acquisition_is_caught() {
        let src = "fn bad(&self) {\n    let a = self.lock_barrier();\n    let b = self.lock_barrier();\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1);
        assert_eq!(a.lock_findings[0].kind, LockFindingKind::DoubleLock);
    }

    #[test]
    fn non_literal_shard_pair_is_unordered() {
        let src = "fn bad(&self) {\n    let a = self.lock_shard(i);\n    let b = self.lock_shard(j);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1);
        assert_eq!(a.lock_findings[0].kind, LockFindingKind::Unordered);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn ok(&self) {\n    let a = self.lock_shard(3);\n    drop(a);\n    let b = self.lock_shard(0);\n}\n";
        assert!(locks(src).lock_findings.is_empty());
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let src =
            "fn ok(&self) {\n    {\n        let a = self.lock_shard(3);\n    }\n    let b = self.lock_shard(0);\n}\n";
        assert!(locks(src).lock_findings.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn ok(&self) {\n    self.lock_shard(3).bump();\n    let b = self.lock_shard(0);\n}\n";
        assert!(locks(src).lock_findings.is_empty());
    }

    #[test]
    fn send_while_holding_is_caught() {
        let src = "fn bad(&self, tx: &Sender<u8>) {\n    let g = self.lock_versions();\n    tx.send(1);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1);
        assert_eq!(a.lock_findings[0].kind, LockFindingKind::HeldAcrossSend);
        assert!(a.lock_findings[0].message.contains("versions"));
    }

    #[test]
    fn spawn_while_holding_is_caught_and_send_without_guard_is_fine() {
        let bad = "fn bad(&self, s: &Scope) {\n    let g = self.lock_barrier();\n    s.spawn(|| {});\n}\n";
        assert_eq!(locks(bad).lock_findings.len(), 1);
        let ok = "fn ok(&self, tx: &Sender<u8>) {\n    tx.send(1);\n}\n";
        assert!(locks(ok).lock_findings.is_empty());
    }

    #[test]
    fn condvar_wait_on_the_only_held_guard_is_clean() {
        // The SSP gate pattern from agl-ps: park on a condvar through the
        // guard itself — release+reacquire, not held-across-block.
        let src = "fn push(&self) {\n    let mut v = self.lock_versions();\n    v.wait_while(&self.ssp_cv, |vt| vt.blocked());\n    let sh = self.lock_shard(0);\n}\n";
        let a = locks(src);
        assert!(a.lock_findings.is_empty(), "{:?}", a.lock_findings);
        // The guard survives the wait: the later shard acquisition still
        // records a versions → shard edge.
        assert_eq!(a.edges.len(), 1);
        assert_eq!(a.edges[0].from, LockSym::Versions);
    }

    #[test]
    fn condvar_wait_holding_another_guard_is_flagged() {
        let src = "fn bad(&self) {\n    let b = self.lock_barrier();\n    let v = self.lock_versions();\n    v.wait_while(&self.cv, |s| s.busy);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1, "{:?}", a.lock_findings);
        let f = &a.lock_findings[0];
        assert_eq!(f.kind, LockFindingKind::HeldAcrossWait);
        assert!(f.message.contains("barrier") && !f.message.contains("versions"), "{}", f.message);
    }

    #[test]
    fn condvar_wait_on_a_temporary_guard_is_clean() {
        let src = "fn ok(&self) {\n    self.lock_versions().wait(&self.cv);\n}\n";
        assert!(locks(src).lock_findings.is_empty());
    }

    #[test]
    fn std_condvar_wait_on_its_guard_argument_is_clean() {
        // std's form: the condvar is the receiver and the guard the first
        // argument — on one line, and as rustfmt splits it.
        for wait in [
            "    v = self.ssp_cv.wait_while(v, |vt| vt.blocked()).unwrap_or_else(PoisonError::into_inner);\n",
            "    v = self\n        .ssp_cv\n        .wait_while(v, |vt| vt.blocked())\n        .unwrap_or_else(PoisonError::into_inner);\n",
        ] {
            let src = format!("fn push(&self) {{\n    let mut v = self.lock_versions();\n{wait}    let sh = self.lock_shard(0);\n}}\n");
            let a = locks(&src);
            assert!(a.lock_findings.is_empty(), "{:?}", a.lock_findings);
            // The guard survives the wait.
            assert_eq!(a.edges.len(), 1);
            assert_eq!(a.edges[0].from, LockSym::Versions);
        }
    }

    #[test]
    fn std_condvar_wait_holding_another_guard_reports_only_it() {
        let src = "fn bad(&self) {\n    let b = self.lock_barrier();\n    let v = self.lock_versions();\n    let v = self.cv.wait_while(v, |s| s.busy).unwrap_or_else(PoisonError::into_inner);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1, "{:?}", a.lock_findings);
        let f = &a.lock_findings[0];
        assert_eq!(f.kind, LockFindingKind::HeldAcrossWait);
        assert_eq!(f.line, 3);
        assert!(f.message.contains("still holding barrier (line 2) while parked"), "{}", f.message);
        assert!(!f.message.contains("versions"), "{}", f.message);
    }

    #[test]
    fn recv_while_holding_is_caught_but_join_is_not() {
        let bad = "fn bad(&self, rx: &Receiver<u8>) {\n    let g = self.lock_versions();\n    let x = rx.recv();\n}\n";
        let a = locks(bad);
        assert_eq!(a.lock_findings.len(), 1);
        assert_eq!(a.lock_findings[0].kind, LockFindingKind::HeldAcrossSend);
        assert!(a.lock_findings[0].message.contains(".recv"));
        // `.join(` is bounded by the joinee finishing, not by this lock —
        // scoped-thread joins at scope exit are routine and not a finding.
        let ok = "fn ok(&self, h: JoinHandle<()>) {\n    let g = self.lock_versions();\n    h.join();\n}\n";
        assert!(locks(ok).lock_findings.is_empty());
    }

    #[test]
    fn raw_lock_is_untracked() {
        let src = "fn bad(&self) {\n    let g = self.state.lock().unwrap();\n    let h = lock_ignoring_poison(&self.other);\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 2);
        assert!(a.lock_findings.iter().all(|f| f.kind == LockFindingKind::UntrackedLock));
    }

    #[test]
    fn raw_lock_inside_a_wrapper_body_is_clean() {
        let src = "impl Ps {\n    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {\n        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)\n    }\n}\n";
        let a = locks(src);
        assert!(a.lock_findings.is_empty(), "{:?}", a.lock_findings);
        assert!(a.edges.is_empty());
    }

    #[test]
    fn raw_lock_outside_the_wrapper_bodies_is_still_untracked() {
        let src = "impl Ps {\n    fn lock_versions(&self) -> MutexGuard<'_, VersionTable> {\n        self.versions.lock().unwrap_or_else(PoisonError::into_inner)\n    }\n    fn peek(&self) -> u64 {\n        self.versions.lock().unwrap_or_else(PoisonError::into_inner).global_step\n    }\n}\n";
        let a = locks(src);
        assert_eq!(a.lock_findings.len(), 1, "{:?}", a.lock_findings);
        let f = &a.lock_findings[0];
        assert_eq!(f.kind, LockFindingKind::UntrackedLock);
        assert_eq!((f.line, f.func.as_str()), (5, "peek"));
    }

    #[test]
    fn wrapper_definitions_are_not_call_sites() {
        let src =
            "impl Ps {\n    fn lock_shard(&self, i: usize) -> Guard {\n        self.shards[i].acquire()\n    }\n}\n";
        let a = locks(src);
        assert!(a.lock_findings.is_empty());
        assert!(a.edges.is_empty());
    }

    #[test]
    fn alloc_in_hot_loop_is_flagged_only_there() {
        let src = "fn spmm(&self) {\n    let out = Vec::new();\n    for r in rows {\n        let v = x.to_vec();\n        let c = y.clone();\n    }\n}\nfn cold(&self) {\n    for r in rows {\n        let v = x.to_vec();\n    }\n}\n";
        let a = walk(&scan(src), &["spmm"]);
        assert_eq!(a.alloc_sites.len(), 2, "{:?}", a.alloc_sites);
        assert!(a.alloc_sites.iter().all(|s| s.func == "spmm"));
        assert_eq!(a.alloc_sites[0].pattern, ".to_vec(");
        assert_eq!(a.alloc_sites[1].pattern, ".clone(");
    }

    #[test]
    fn alloc_in_while_and_nested_blocks_is_flagged() {
        let src = "fn reduce(&self) {\n    while go {\n        if cond {\n            let s = format!(\"x\");\n        }\n    }\n}\n";
        let a = walk(&scan(src), &["reduce"]);
        assert_eq!(a.alloc_sites.len(), 1);
        assert_eq!(a.alloc_sites[0].pattern, "format!(");
    }

    #[test]
    fn alloc_outside_loops_is_not_flagged() {
        let src = "fn reduce(&self) {\n    let buf = Vec::new();\n    let all: Vec<u32> = it.collect();\n}\n";
        let a = walk(&scan(src), &["reduce"]);
        assert!(a.alloc_sites.is_empty(), "{:?}", a.alloc_sites);
    }

    #[test]
    fn loop_keyword_in_identifiers_does_not_open_a_loop() {
        // `for_each_row(` contains `for` only as an identifier prefix.
        let src =
            "fn reduce(&self) {\n    self.ctx.for_each_row(&csr, |r| {\n        let v = x.to_vec();\n    });\n}\n";
        let a = walk(&scan(src), &["reduce"]);
        assert!(a.alloc_sites.is_empty(), "{:?}", a.alloc_sites);
    }

    #[test]
    fn multiline_signatures_still_name_the_fn() {
        let src =
            "fn spmm(\n    &self,\n    csr: &Csr,\n) {\n    for r in rows {\n        let v = x.to_vec();\n    }\n}\n";
        let a = walk(&scan(src), &["spmm"]);
        assert_eq!(a.alloc_sites.len(), 1);
        assert_eq!(a.alloc_sites[0].func, "spmm");
    }
}
