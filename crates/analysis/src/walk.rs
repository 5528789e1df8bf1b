//! The one source walk the hot-allocation and atomics passes share.
//!
//! [`walk`] visits a scanned file's code channel once, character by
//! character. It tracks the block stack (`fn` bodies with their `impl`
//! owner, loops, `struct` bodies, `spawn(…)` closures, `thread::scope`
//! bodies) and the lock guards lexically held, and records the facts the
//! passes judge:
//!
//! * function definitions, and call sites with whether they sit inside a
//!   spawn closure — the atomics pass builds its call graph from these;
//! * allocation tokens (`Vec::new(`, `vec![`, `.to_vec(`, `.clone(`,
//!   `format!(`, `.collect(`) inside loop bodies of the caller's hot
//!   functions;
//! * atomics facts ([`crate::atomics`] judges them): atomic declarations
//!   (struct fields, statics, `let` locals), atomic accesses with their
//!   `Ordering`, `SeqCst` fences, `Arc<Ty>` mentions, and non-atomic
//!   variables written in a spawn closure and read after it with no join.
//!
//! One block can be two things at once. In `scope.spawn(|| loop {` the body
//! is a loop to the allocation rule and a spawn closure to the atomics
//! rule, so every block records both facts.
//!
//! Guards are the results of `.lock()`, `.read()`, `.write()`, `.acquire()`
//! and `lock_ignoring_poison(…)`; a held guard sanctions `Relaxed` atomics
//! ([`Access::guard_held`]). A `let`-bound guard lives to the end of its
//! block or to an explicit `drop(ident)`; any other guard is a temporary
//! that dies at the end of its statement.
//!
//! Like the rest of the lint this is lexical, not semantic: an access only
//! counts as atomic when `Ordering::` appears later on the same line, and
//! a guard is held when it is lexically held.

use crate::scanner::{find_token, impl_owner, parse_call, CallGraph, CallGraphNode, CallTarget, ScannedFile};
use std::collections::BTreeSet;
use std::fmt;

/// A function definition (a call-graph node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// The enclosing `impl` block's `Self` type, `None` for free functions.
    pub owner: Option<String>,
    /// 0-based line of the body's opening brace.
    pub line: usize,
    /// 0-based line of the body's closing brace.
    pub end: usize,
    /// The body contains a `fence(Ordering::SeqCst)`.
    pub has_fence: bool,
}

/// A call site. Method calls on receivers other than `self` carry no type
/// information and are not recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Index into [`Walk::fns`] of the enclosing function, `None` outside
    /// any named function.
    pub fn_idx: Option<usize>,
    /// How the call names its callee.
    pub target: CallTarget,
    /// 0-based line of the call.
    pub line: usize,
    /// The call is lexically inside a `spawn(…)` closure.
    pub in_spawn: bool,
}

/// An allocation token inside a loop body of a hot function (0-based line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// 0-based line of the allocation token.
    pub line: usize,
    /// Enclosing hot function.
    pub func: String,
    /// The token that matched (e.g. `".to_vec("`).
    pub pattern: &'static str,
}

/// What an atomic access site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// `.load(…)`.
    Load,
    /// `.store(…)`.
    Store,
    /// `.swap(…)`, `.fetch_*(…)`, `.compare_exchange*(…)`, `.fetch_update(…)`.
    Rmw,
}

impl fmt::Display for AccessOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessOp::Load => write!(f, "load"),
            AccessOp::Store => write!(f, "store"),
            AccessOp::Rmw => write!(f, "RMW"),
        }
    }
}

/// The `Ordering` named at an access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemOrder {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

const ORDERS: [(&str, MemOrder); 5] = [
    ("Relaxed", MemOrder::Relaxed),
    ("Acquire", MemOrder::Acquire),
    ("Release", MemOrder::Release),
    ("AcqRel", MemOrder::AcqRel),
    ("SeqCst", MemOrder::SeqCst),
];

impl MemOrder {
    /// Does this ordering create a release/acquire (or stronger) edge?
    pub fn is_sync(self) -> bool {
        !matches!(self, MemOrder::Relaxed)
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = ORDERS.iter().find(|(_, o)| o == self).map_or("?", |(n, _)| n);
        write!(f, "{name}")
    }
}

/// How an access site names its atomic, as recovered from the statement
/// text before the op token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.x.…` or `a.b.x.…` — the last path segment names a field.
    Field(String),
    /// A bare identifier — a local or a static.
    Ident(String),
    /// Anything else (indexing, call results, …) — never resolved, and
    /// therefore conservatively treated as escaping.
    Unknown,
}

/// One atomic access site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Index into [`Walk::fns`] of the enclosing function.
    pub fn_idx: Option<usize>,
    /// 0-based line of the op token.
    pub line: usize,
    /// Load, store, or RMW.
    pub op: AccessOp,
    /// The `Ordering` named on the same line.
    pub order: MemOrder,
    /// The receiver as parsed from the statement tail.
    pub recv: Recv,
    /// A lock guard was lexically held at the site.
    pub guard_held: bool,
    /// The site is lexically inside a `spawn(…)` closure.
    pub in_spawn: bool,
}

/// An atomic struct field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// The declaring struct, when the walk saw its header.
    pub owner: Option<String>,
    /// Field name.
    pub name: String,
    /// 0-based line of the declaration.
    pub line: usize,
    /// The declared type itself contains `Arc<` (shared by construction).
    pub arc_in_decl: bool,
}

/// An atomic `static` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDecl {
    /// Static name.
    pub name: String,
    /// 0-based line of the declaration.
    pub line: usize,
}

/// A `let`-bound atomic local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDecl {
    /// Index into [`Walk::fns`] of the declaring function.
    pub fn_idx: Option<usize>,
    /// Binding name.
    pub name: String,
    /// 0-based line of the binding.
    pub line: usize,
    /// The binding itself sits inside a spawn closure (per-thread, so its
    /// spawn-region accesses do not make it escape).
    pub in_spawn: bool,
}

/// A non-atomic variable written inside a spawn closure and read after it
/// with no join on the path; both sites are in one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnWrite {
    /// The written variable.
    pub name: String,
    /// Index into [`Walk::fns`] of the enclosing function.
    pub fn_idx: Option<usize>,
    /// 0-based line of the write inside the closure.
    pub write_line: usize,
    /// 0-based line of the unordered read after the closure.
    pub read_line: usize,
}

/// Everything one walk of one file records.
#[derive(Debug, Default)]
pub struct Walk {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Call sites.
    pub calls: Vec<Call>,
    /// Allocation tokens in loops of the hot functions passed to [`walk`].
    pub alloc_sites: Vec<AllocSite>,
    /// Atomic struct fields.
    pub fields: Vec<FieldDecl>,
    /// Atomic statics.
    pub statics: Vec<StaticDecl>,
    /// Atomic locals.
    pub locals: Vec<LocalDecl>,
    /// Atomic access sites.
    pub accesses: Vec<Access>,
    /// Type names seen as `Arc<Ty…` anywhere in the file — escape evidence.
    pub arc_types: BTreeSet<String>,
    /// Spawn-closure writes read outside the closure with no join.
    pub spawn_writes: Vec<SpawnWrite>,
}

impl Walk {
    /// Name of function `fn_idx`, or `"<top>"` outside any function.
    pub fn fn_name(&self, fn_idx: Option<usize>) -> String {
        fn_idx.map_or_else(|| "<top>".to_string(), |k| self.fns[k].name.clone())
    }
}

const ALLOC_TOKENS: &[&str] = &["Vec::new(", "vec![", ".to_vec(", ".clone(", "format!(", ".collect("];

const RMW_TOKENS: &[&str] = &[
    ".swap(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    ".compare_exchange_weak(",
    ".compare_exchange(",
];

/// Guard-producing method tokens (any receiver).
const GUARD_TOKENS: &[&str] = &[".lock()", ".read()", ".write()", ".acquire()"];

struct Guard {
    /// `Some(ident)` for `let`-bound guards, `None` for temporaries.
    name: Option<String>,
    /// Block depth at acquisition; released when the stack shrinks below it.
    depth: usize,
}

struct SpawnBlock {
    fn_idx: Option<usize>,
    /// Index into `scope_ends` of the innermost enclosing `thread::scope`.
    scope_idx: Option<usize>,
    /// `let`-bound names inside the closure — per-thread, never "shared".
    locals: BTreeSet<String>,
    /// `(name, line)` of assignments to captured variables.
    writes: Vec<(String, usize)>,
    /// 0-based line of the closing brace, once seen.
    end: Option<usize>,
}

/// The walk's state. Each block stack holds `(block depth, payload)`.
struct Walker<'h> {
    out: Walk,
    hot_fns: &'h [&'h str],
    /// One entry per open block: does it open a loop?
    loops: Vec<bool>,
    fn_stack: Vec<(usize, usize)>,
    impl_stack: Vec<(usize, String)>,
    struct_stack: Vec<(usize, String)>,
    spawn_stack: Vec<(usize, usize)>,
    scope_stack: Vec<(usize, usize)>,
    guards: Vec<Guard>,
    spawns: Vec<SpawnBlock>,
    /// Closing line of each `thread::scope` body, once seen.
    scope_ends: Vec<Option<usize>>,
    /// Statement/header text accumulated since the last `;`, `{` or `}` —
    /// what classifies the next `{` and reveals `let` bindings.
    stmt: String,
    stmt_line: usize,
}

/// Walk `scanned`'s code channel once. `hot_fns` names the functions whose
/// loop bodies the allocation rule covers (an empty slice records none).
pub fn walk(scanned: &ScannedFile, hot_fns: &[&str]) -> Walk {
    let mut w = Walker {
        out: Walk::default(),
        hot_fns,
        loops: Vec::new(),
        fn_stack: Vec::new(),
        impl_stack: Vec::new(),
        struct_stack: Vec::new(),
        spawn_stack: Vec::new(),
        scope_stack: Vec::new(),
        guards: Vec::new(),
        spawns: Vec::new(),
        scope_ends: Vec::new(),
        stmt: String::new(),
        stmt_line: 0,
    };
    for (lineno, line) in scanned.code.iter().enumerate() {
        // A field declaration belongs to the struct open at line start: the
        // header's `{` opens mid-line.
        let struct_ctx = w.struct_stack.last().map(|(_, n)| n.clone());
        collect_arc_types(line, &mut w.out.arc_types);
        for (p, c) in line.char_indices() {
            match c {
                '{' => w.open(lineno),
                '}' => w.close(lineno),
                ';' => {
                    w.end_statement();
                    w.guards.retain(|g| g.name.is_some());
                    w.stmt.clear();
                }
                // Leading whitespace is not part of a statement, so the
                // statement's line is the line of its first token.
                _ if w.stmt.is_empty() && c.is_whitespace() => {}
                _ => {
                    w.token(&line[p..], lineno);
                    if w.stmt.is_empty() {
                        w.stmt_line = lineno;
                    }
                    w.stmt.push(c);
                }
            }
        }
        if let Some(field) = struct_ctx.and_then(|ctx| parse_field(line, &ctx, lineno)) {
            w.out.fields.push(field);
        }
        // Keep multi-line statements readable as one header without gluing
        // the last token of this line to the first of the next.
        if !w.stmt.is_empty() && !w.stmt.ends_with(' ') {
            w.stmt.push(' ');
        }
    }
    w.resolve_spawn_writes(scanned);
    w.out
}

/// Pop the top of a block stack if it was opened at `depth`.
fn pop_at<T>(stack: &mut Vec<(usize, T)>, depth: usize) -> Option<T> {
    if stack.last()?.0 == depth {
        stack.pop().map(|(_, t)| t)
    } else {
        None
    }
}

impl Walker<'_> {
    fn fn_idx(&self) -> Option<usize> {
        self.fn_stack.last().map(|&(_, i)| i)
    }

    fn open(&mut self, lineno: usize) {
        let depth = self.loops.len() + 1;
        let (kind, is_loop) = classify_block(&self.stmt);
        match kind {
            BlockKind::Fn => {
                if let Some(name) = fn_name(&self.stmt) {
                    let owner = self.impl_stack.last().map(|(_, o)| o.clone());
                    self.out.fns.push(FnDef { name, owner, line: lineno, end: lineno, has_fence: false });
                    self.fn_stack.push((depth, self.out.fns.len() - 1));
                }
            }
            BlockKind::Impl => {
                if let Some(owner) = impl_owner(&self.stmt) {
                    self.impl_stack.push((depth, owner));
                }
            }
            BlockKind::Struct => {
                if let Some(name) = struct_name(&self.stmt) {
                    self.struct_stack.push((depth, name));
                }
            }
            BlockKind::Spawn => {
                self.spawns.push(SpawnBlock {
                    fn_idx: self.fn_idx(),
                    scope_idx: self.scope_stack.last().map(|&(_, i)| i),
                    locals: BTreeSet::new(),
                    writes: Vec::new(),
                    end: None,
                });
                self.spawn_stack.push((depth, self.spawns.len() - 1));
            }
            BlockKind::Scope => {
                self.scope_ends.push(None);
                self.scope_stack.push((depth, self.scope_ends.len() - 1));
            }
            BlockKind::Other => {}
        }
        self.loops.push(is_loop);
        // Condition temporaries do not outlive the header.
        self.guards.retain(|g| g.name.is_some());
        self.stmt.clear();
    }

    fn close(&mut self, lineno: usize) {
        let depth = self.loops.len();
        self.guards.retain(|g| g.depth < depth);
        if let Some(i) = pop_at(&mut self.fn_stack, depth) {
            self.out.fns[i].end = lineno;
        }
        pop_at(&mut self.impl_stack, depth);
        pop_at(&mut self.struct_stack, depth);
        if let Some(i) = pop_at(&mut self.spawn_stack, depth) {
            self.spawns[i].end = Some(lineno);
        }
        if let Some(i) = pop_at(&mut self.scope_stack, depth) {
            self.scope_ends[i] = Some(lineno);
        }
        self.loops.pop();
        self.stmt.clear();
    }

    /// Record whatever token starts at `rest`.
    fn token(&mut self, rest: &str, lineno: usize) {
        let stmt = self.stmt.as_str();
        let fn_idx = self.fn_idx();
        let in_spawn = !self.spawn_stack.is_empty();
        let boundary = !stmt.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        // A call token directly after `fn ` is a definition.
        let is_definition = stmt.trim_end().ends_with("fn") || stmt.ends_with("fn ");

        // ---- Atomic accesses: an op token with an `Ordering::` later on the
        // line (which separates `AtomicU64::load` from every other `.load`).
        let op = if rest.starts_with(".load(") {
            Some(AccessOp::Load)
        } else if rest.starts_with(".store(") {
            Some(AccessOp::Store)
        } else {
            RMW_TOKENS.iter().any(|t| rest.starts_with(t)).then_some(AccessOp::Rmw)
        };
        if let Some(op) = op {
            if let Some(order) = parse_order(rest) {
                let (recv, guard_held) = (recv_of(stmt), !self.guards.is_empty());
                self.out.accesses.push(Access { fn_idx, line: lineno, op, order, recv, guard_held, in_spawn });
                return;
            }
        }

        // ---- Releases --------------------------------------------------------
        if let Some(tail) = rest.strip_prefix("drop(").filter(|_| boundary) {
            let ident: String = tail.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if let Some(pos) = self.guards.iter().rposition(|g| !ident.is_empty() && g.name.as_deref() == Some(&ident))
            {
                self.guards.remove(pos);
            }
            return;
        }

        // ---- Lock guards --------------------------------------------------------
        let guard = GUARD_TOKENS.iter().any(|t| rest.starts_with(t))
            || (boundary && !is_definition && rest.starts_with("lock_ignoring_poison("));
        if guard {
            let name = let_binding_name(stmt);
            self.guards.push(Guard { name, depth: self.loops.len() });
            return;
        }

        // ---- SeqCst fences sanction Relaxed accesses in their function ------
        if boundary && rest.starts_with("fence(") && rest.contains("Ordering::SeqCst") {
            if let Some(i) = fn_idx {
                self.out.fns[i].has_fence = true;
            }
            return;
        }

        // ---- Call sites --------------------------------------------------------
        if boundary && !is_definition {
            if let Some(target) = parse_call(rest, stmt).filter(|t| !matches!(t, CallTarget::Method(_))) {
                self.out.calls.push(Call { fn_idx, target, line: lineno, in_spawn });
            }
        }

        // ---- Allocations in a loop of a hot function -------------------------
        let Some(&(fn_depth, fi)) = self.fn_stack.last() else { return };
        let func = &self.out.fns[fi].name;
        if self.hot_fns.contains(&func.as_str()) && self.loops[fn_depth..].contains(&true) {
            if let Some(pattern) =
                ALLOC_TOKENS.iter().find(|p| rest.starts_with(*p) && (p.starts_with('.') || boundary))
            {
                self.out.alloc_sites.push(AllocSite { line: lineno, func: func.clone(), pattern });
            }
        }
    }

    /// Statement boundary: record atomic statics and locals, and inside a
    /// spawn closure classify the statement as a `let` binding or an
    /// assignment to a captured variable.
    fn end_statement(&mut self) {
        let s = self.stmt.trim_start();
        if let Some(st) = parse_static(s, self.stmt_line) {
            self.out.statics.push(st);
            return;
        }
        let spawn = self.spawn_stack.last().map(|&(_, i)| i);
        if let Some(name) = let_binding_name(s) {
            if s.contains("Atomic") {
                self.out.locals.push(LocalDecl {
                    fn_idx: self.fn_idx(),
                    name: name.clone(),
                    line: self.stmt_line,
                    in_spawn: spawn.is_some(),
                });
            }
            if let Some(i) = spawn {
                self.spawns[i].locals.insert(name);
            }
            return;
        }
        // `*deref = …` writes go through a pointer the pass cannot name.
        let Some(i) = spawn.filter(|_| !s.starts_with('*')) else { return };
        let ident: String = s.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return;
        }
        let rest = s[ident.len()..].trim_start();
        let bytes = rest.as_bytes();
        let plain_assign = rest.starts_with('=') && !rest.starts_with("==") && !rest.starts_with("=>");
        let compound_assign = bytes.len() >= 2
            && matches!(bytes[0], b'+' | b'-' | b'*' | b'/' | b'%' | b'|' | b'&' | b'^')
            && bytes[1] == b'=';
        if (plain_assign || compound_assign) && !self.spawns[i].locals.contains(&ident) {
            self.spawns[i].writes.push((ident, self.stmt_line));
        }
    }

    /// After the walk: for every closed spawn block, look for reads of its
    /// captured writes between the closure's end and the join horizon (the
    /// enclosing `thread::scope`'s closing brace, or the function's end),
    /// clearing on the first `.join(…)` on the path.
    fn resolve_spawn_writes(&mut self, scanned: &ScannedFile) {
        let last_line = scanned.n_lines();
        for sp in &self.spawns {
            let Some(end) = sp.end else { continue };
            // Reads after the scope's exit are ordered by its implicit join;
            // reads after the fn end belong to someone else.
            let limit = match sp.scope_idx {
                Some(si) => self.scope_ends[si].unwrap_or(last_line),
                None => sp.fn_idx.map_or(last_line, |k| self.out.fns[k].end),
            };
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            'names: for (name, write_line) in &sp.writes {
                if !seen.insert(name.as_str()) {
                    continue;
                }
                for lineno in end + 1..limit.min(last_line) {
                    let code = &scanned.code[lineno];
                    if code.contains(".join(") {
                        continue 'names; // the handle is joined before any read we'd flag
                    }
                    if let Some(col) = find_token(code, name) {
                        let after = code[col + name.len()..].trim_start();
                        if !(after.starts_with('=') && !after.starts_with("==") && !after.starts_with("=>")) {
                            self.out.spawn_writes.push(SpawnWrite {
                                name: name.clone(),
                                fn_idx: sp.fn_idx,
                                write_line: *write_line,
                                read_line: lineno,
                            });
                            continue 'names;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The call graph over walked files
// ---------------------------------------------------------------------------

/// One file's walk, as input to the crate-scope passes.
#[derive(Debug, Clone, Copy)]
pub struct FileWalk<'a> {
    /// Display path of the file (used in witness chains and anchors).
    pub path: &'a str,
    /// The walk of the file.
    pub walk: &'a Walk,
    /// Per-line `#[cfg(test)]` mask (see [`crate::scanner::test_regions`]);
    /// definitions and sites inside test regions are ignored.
    pub in_test: &'a [bool],
}

impl FileWalk<'_> {
    /// Is 0-based `line` inside a test region?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test.get(line).copied().unwrap_or(false)
    }
}

/// A resolved call edge of a [`WalkGraph`].
pub(crate) struct GraphSite<'a> {
    pub(crate) caller: usize,
    pub(crate) callee: usize,
    pub(crate) call: &'a Call,
}

/// The call graph over a set of walked files, as the atomics pass builds it.
pub(crate) struct WalkGraph<'a> {
    /// Nodes are the non-test function definitions; an edge's call-site id
    /// indexes `sites`.
    pub(crate) cg: CallGraph,
    /// The resolved call sites, in file and source order.
    pub(crate) sites: Vec<GraphSite<'a>>,
    /// `node_of[file][fn_idx]` → node id.
    node_of: Vec<Vec<Option<usize>>>,
}

impl<'a> WalkGraph<'a> {
    /// Build the graph from every non-test definition and every non-test
    /// call site that resolves (see [`CallGraph::resolve`]).
    pub(crate) fn build(files: &[FileWalk<'a>]) -> Self {
        let mut nodes: Vec<CallGraphNode> = Vec::new();
        let mut node_of = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let mut map = vec![None; f.walk.fns.len()];
            for (k, d) in f.walk.fns.iter().enumerate().filter(|(_, d)| !f.is_test_line(d.line)) {
                map[k] = Some(nodes.len());
                nodes.push(CallGraphNode { file: fi, name: d.name.clone(), owner: d.owner.clone() });
            }
            node_of.push(map);
        }
        let mut g = WalkGraph { cg: CallGraph::new(nodes), sites: Vec::new(), node_of };
        for (fi, f) in files.iter().enumerate() {
            for call in f.walk.calls.iter().filter(|c| !f.is_test_line(c.line)) {
                let Some(caller) = g.node(fi, call.fn_idx) else { continue };
                if let Some(callee) = g.cg.resolve(caller, &call.target) {
                    g.cg.add_call(caller, callee, g.sites.len());
                    g.sites.push(GraphSite { caller, callee, call });
                }
            }
        }
        g
    }

    /// The node of function `fn_idx` in file `fi`, `None` for test code and
    /// for sites outside any function.
    pub(crate) fn node(&self, fi: usize, fn_idx: Option<usize>) -> Option<usize> {
        self.node_of[fi][fn_idx?]
    }
}

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum BlockKind {
    Fn,
    Impl,
    Struct,
    Spawn,
    Scope,
    Other,
}

/// What the header before a `{` opens, and whether the block is a loop.
/// `fn` and `impl` win over everything: `impl<F: for<'a> Fn(…)>` contains a
/// `for` with identifier boundaries, but the block is an impl. A spawn
/// closure wins over a scope body, and neither excludes a loop:
/// `scope.spawn(|| loop {` opens a spawn closure that is also a loop.
fn classify_block(stmt: &str) -> (BlockKind, bool) {
    let has = |kw: &str| find_token(stmt, kw).is_some();
    let kind = if has("fn") {
        BlockKind::Fn
    } else if has("impl") {
        BlockKind::Impl
    } else if has("struct") {
        BlockKind::Struct
    } else if has("spawn(") {
        BlockKind::Spawn
    } else if has("scope(") {
        BlockKind::Scope
    } else {
        BlockKind::Other
    };
    let is_loop = !matches!(kind, BlockKind::Fn | BlockKind::Impl) && (has("for") || has("while") || has("loop"));
    (kind, is_loop)
}

/// The identifier following the last `fn ` keyword in the header.
fn fn_name(stmt: &str) -> Option<String> {
    let bytes = stmt.as_bytes();
    stmt.match_indices("fn")
        .filter(|&(start, _)| {
            let pre_ok = start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            pre_ok && bytes.get(start + 2).is_some_and(|b| b.is_ascii_whitespace())
        })
        .filter_map(|(start, _)| {
            let name: String =
                stmt[start + 2..].trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            (!name.is_empty()).then_some(name)
        })
        .last()
}

/// The identifier following `struct` in the header.
fn struct_name(stmt: &str) -> Option<String> {
    let pos = find_token(stmt, "struct")?;
    let after = stmt[pos + "struct".len()..].trim_start();
    let name: String = after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty()).then_some(name)
}

/// `let [mut] ident = …` / `let ident: …` at the head of the statement.
fn let_binding_name(stmt: &str) -> Option<String> {
    let s = stmt.trim_start().strip_prefix("let ")?.trim_start();
    let s = s.strip_prefix("mut ").unwrap_or(s).trim_start();
    let ident: String = s.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if ident.is_empty() {
        return None;
    }
    let after = s[ident.len()..].trim_start();
    (after.starts_with('=') || after.starts_with(':')).then_some(ident)
}

/// The identifier the statement currently ends with (the receiver of a
/// method call about to be scanned), if any.
fn trailing_ident(stmt: &str) -> Option<String> {
    let rev: String = stmt.chars().rev().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if rev.is_empty() || rev.chars().last().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(rev.chars().rev().collect())
}

/// The receiver of the access about to be scanned, from the statement tail.
fn recv_of(stmt: &str) -> Recv {
    let Some(ident) = trailing_ident(stmt) else { return Recv::Unknown };
    if stmt[..stmt.len() - ident.len()].trim_end().ends_with('.') {
        Recv::Field(ident)
    } else if ident == "self" {
        Recv::Unknown
    } else {
        Recv::Ident(ident)
    }
}

/// Parse the first `Ordering::<X>` on the rest of the line.
fn parse_order(rest: &str) -> Option<MemOrder> {
    let pos = rest.find("Ordering::")?;
    let tail = &rest[pos + "Ordering::".len()..];
    ORDERS.iter().find(|(name, _)| tail.starts_with(name)).map(|&(_, ord)| ord)
}

/// `static NAME: …Atomic… = …` at the head of the statement.
fn parse_static(s: &str, line: usize) -> Option<StaticDecl> {
    let s = strip_vis(s.trim_start()).strip_prefix("static ")?.trim_start();
    let name: String = s.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return None;
    }
    let rest = &s[name.len()..];
    (rest.trim_start().starts_with(':') && rest.contains("Atomic")).then_some(StaticDecl { name, line })
}

/// A struct field `name: …Atomic…` on one source line.
fn parse_field(code: &str, owner: &str, line: usize) -> Option<FieldDecl> {
    let t = strip_vis(code.trim());
    let first = t.chars().next()?;
    if !(first.is_ascii_alphabetic() || first == '_') {
        return None;
    }
    let name: String = t.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    let rest = t[name.len()..].trim_start();
    if !rest.starts_with(':') || !rest.contains("Atomic") {
        return None;
    }
    Some(FieldDecl { owner: Some(owner.to_string()), name, line, arc_in_decl: rest.contains("Arc<") })
}

/// Strip a leading `pub` / `pub(crate)` / `pub(in …)` visibility.
fn strip_vis(s: &str) -> &str {
    let Some(rest) = s.strip_prefix("pub") else { return s };
    let rest = rest.trim_start();
    if let Some(tail) = rest.strip_prefix('(') {
        if let Some(close) = tail.find(')') {
            return tail[close + 1..].trim_start();
        }
    }
    rest
}

/// Record each `Arc<Ty` occurrence's type name.
fn collect_arc_types(code: &str, out: &mut BTreeSet<String>) {
    for (pos, _) in code.match_indices("Arc<") {
        let ty: String = code[pos + 4..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !ty.is_empty() {
            out.insert(ty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    /// `guard_held` of every atomic access, in source order.
    fn guarded(src: &str) -> Vec<bool> {
        walk(&scan(src), &[]).accesses.iter().map(|a| a.guard_held).collect()
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    self.n.store(1, Ordering::Relaxed);\n    drop(g);\n    self.n.store(2, Ordering::Relaxed);\n}\n";
        assert_eq!(guarded(src), vec![true, false]);
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let src = "fn f(&self) {\n    {\n        let g = self.state.lock();\n        self.n.store(1, Ordering::Relaxed);\n    }\n    self.n.store(2, Ordering::Relaxed);\n}\n";
        assert_eq!(guarded(src), vec![true, false]);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) {\n    self.state.lock().bump(self.n.load(Ordering::Relaxed));\n    self.n.store(2, Ordering::Relaxed);\n}\n";
        assert_eq!(guarded(src), vec![true, false]);
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
