//! The lint rule registry.
//!
//! Rules come in two scopes. A **file rule** ([`Rule`], registered in
//! [`registry`]) is a pure function from one scanned file (plus its
//! workspace-relative path) to diagnostics. A **crate rule**
//! ([`CrateRule`], registered in [`crate_registry`]) sees every scanned
//! file of the lint run at once — that is what lets the atomics pass
//! resolve a call in one file to a definition in another.
//! Adding a rule is adding an entry to the right registry — the driver,
//! escape hatch, and binary need no changes.
//!
//! ## Rule catalog
//!
//! Each rule below is shown with a minimal fragment that triggers it.
//!
//! **`no-panic`** — no `.unwrap()`/`.expect(…)`/`panic!` in library code of
//! the pipeline crates:
//! ```text
//! // crates/flat/src/pipeline.rs
//! let shard = shards.get(i).unwrap();          // <-- no-panic
//! ```
//!
//! **`safety-comment`** — every `unsafe` needs a `// SAFETY:` comment on
//! the same line or directly above:
//! ```text
//! let x = unsafe { *ptr };                      // <-- safety-comment
//! ```
//!
//! **`no-wallclock`** — no `Instant::now`/`SystemTime::now` outside the
//! `agl-obs` clock implementation:
//! ```text
//! let t0 = std::time::Instant::now();           // <-- no-wallclock
//! ```
//!
//! **`no-raw-spawn`** — no raw `std::thread::spawn` in library code (scoped
//! threads are fine):
//! ```text
//! std::thread::spawn(move || pump(rx));         // <-- no-raw-spawn
//! ```
//!
//! **`no-hot-alloc`** — no allocation tokens inside loop bodies of the
//! registered hot functions:
//! ```text
//! fn spmm(&self) {
//!     for row in rows {
//!         let copy = row.to_vec();              // <-- no-hot-alloc
//!     }
//! }
//! ```
//!
//! **`atomics`** — happens-before discipline for atomics (crate scope):
//! every atomic classified as cross-thread (captured by a spawn closure,
//! declared `static`, or reachable through an `Arc`) must not be accessed
//! `Relaxed` without a lock, `SeqCst` fence, or acquire/release pairing;
//! mixed orderings on one atomic and non-atomic spawn-write/outside-read
//! pairs are flagged too:
//! ```text
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         self.ready.store(1, Ordering::Relaxed);   // <-- atomics
//!     });
//! });
//! ```
//!
//! ## Escape hatch
//!
//! Any diagnostic can be suppressed with an inline comment on the same
//! line or the line directly above:
//!
//! ```text
//! // agl-lint: allow(no-panic) — justification here
//! ```
//!
//! The justification is not parsed, but reviewers expect one.

use crate::atomics;
use crate::scanner::{find_token, test_regions, ScannedFile};
use crate::walk::{walk, FileWalk, Walk};
use std::cell::OnceCell;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired ([`Rule::name`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A scanned file plus the path-derived facts rules dispatch on.
pub struct FileView<'a> {
    /// Workspace-relative path, `/`-separated (e.g. `crates/flat/src/pipeline.rs`).
    pub path: &'a str,
    /// The file's code/comment channels (see [`crate::scanner::scan`]).
    pub scanned: &'a ScannedFile,
    /// Per-line: inside a `#[cfg(test)] mod … { }` region.
    pub in_test_region: Vec<bool>,
    walk: OnceCell<Walk>,
}

impl<'a> FileView<'a> {
    /// Build a view over a scanned file, computing its test-region mask.
    pub fn new(path: &'a str, scanned: &'a ScannedFile) -> Self {
        let in_test_region = test_regions(scanned);
        Self { path, scanned, in_test_region, walk: OnceCell::new() }
    }

    /// The file's [`walk`](mod@crate::walk), computed on first use: every
    /// rule that reads it in one lint run shares one walk of the file.
    pub(crate) fn walk(&self) -> &Walk {
        self.walk.get_or_init(|| walk(self.scanned, hot_functions(self.path)))
    }

    fn file_walk(&self) -> FileWalk<'_> {
        FileWalk { path: self.path, walk: self.walk(), in_test: &self.in_test_region }
    }

    /// Integration tests, benches, examples, and build scripts are exempt
    /// from code-hygiene rules.
    pub fn is_exempt_target(&self) -> bool {
        self.path.contains("/tests/")
            || self.path.contains("/benches/")
            || self.path.contains("/examples/")
            || self.path.starts_with("examples/")
            || self.path.starts_with("tests/")
            || self.path.ends_with("build.rs")
    }

    /// Library code of the AGL pipeline crates — where a stray panic kills
    /// a whole distributed task instead of surfacing an error the retry
    /// machinery can act on.
    pub fn is_pipeline_lib(&self) -> bool {
        const PIPELINE: &[&str] = &[
            "crates/mapreduce/src/",
            "crates/flat/src/",
            "crates/trainer/src/",
            "crates/infer/src/",
            "crates/ps/src/",
            "crates/tensor/src/",
        ];
        PIPELINE.iter().any(|p| self.path.starts_with(p)) && !self.is_exempt_target()
    }
}

/// A registered file-scope lint rule.
pub struct Rule {
    /// Stable rule id — what `agl-lint: allow(<name>)` names.
    pub name: &'static str,
    /// One-paragraph description, shown by `agl-lint --rules`.
    pub description: &'static str,
    /// A minimal triggering fragment, shown by `agl-lint --explain <name>`.
    pub example: &'static str,
    /// The check: one file in, diagnostics out.
    pub check: fn(&FileView) -> Vec<Diagnostic>,
}

/// A registered crate-scope lint rule: sees every file of the lint run at
/// once, so it can resolve cross-file facts (the call graph) that no
/// single-file rule can.
pub struct CrateRule {
    /// Stable rule id — what `agl-lint: allow(<name>)` names.
    pub name: &'static str,
    /// One-paragraph description, shown by `agl-lint --rules`.
    pub description: &'static str,
    /// A minimal triggering fragment, shown by `agl-lint --explain <name>`.
    pub example: &'static str,
    /// The check: the whole file set in, diagnostics out.
    pub check: fn(&[FileView]) -> Vec<Diagnostic>,
}

/// All rules, in the order they run.
pub fn registry() -> &'static [Rule] {
    &[
        Rule {
            name: "no-panic",
            description: "no .unwrap()/.expect(…)/panic! in library code of pipeline crates \
                          (a panic in a task is an unreportable failure; return an error the \
                          retry machinery can see)",
            example: "let shard = shards.get(i).unwrap();          // <-- no-panic",
            check: check_no_panic,
        },
        Rule {
            name: "safety-comment",
            description: "every `unsafe` must be preceded by a `// SAFETY:` comment stating \
                          the invariant that makes it sound",
            example: "let x = unsafe { *ptr };                      // <-- safety-comment",
            check: check_safety_comment,
        },
        Rule {
            name: "no-wallclock",
            description: "no Instant::now/SystemTime::now anywhere outside the agl-obs clock \
                          module — all timing routes through agl_obs::Clock, so a \
                          logical-clock run is bit-reproducible end to end (retried tasks, \
                          recorded traces)",
            example: "let t0 = std::time::Instant::now();           // <-- no-wallclock",
            check: check_no_wallclock,
        },
        Rule {
            name: "no-raw-spawn",
            description: "no raw std::thread::spawn in library code; use std::thread::scope so \
                          panics propagate and joins are guaranteed",
            example: "std::thread::spawn(move || pump(rx));         // <-- no-raw-spawn",
            check: check_no_raw_spawn,
        },
        Rule {
            name: "no-hot-alloc",
            description: "no allocation (Vec::new/vec!/.to_vec/.clone/format!/.collect) inside \
                          loop bodies of the aggregation kernels and reducer hot functions",
            example: "fn spmm(&self) {\n    for row in rows {\n        let copy = row.to_vec();              // <-- no-hot-alloc\n    }\n}",
            check: check_no_hot_alloc,
        },
    ]
}

/// All crate-scope rules, in the order they run (after the file rules).
pub fn crate_registry() -> &'static [CrateRule] {
    &[
        CrateRule {
            name: "atomics",
            description: "happens-before discipline for atomics: each atomic is classified as \
                          thread-local or cross-thread (captured by a spawn closure, declared \
                          static, or reachable through an Arc — spawn-reachability propagates \
                          over the workspace call graph); a cross-thread Relaxed access with \
                          no lock, SeqCst fence, or acquire/release pairing is flagged, as \
                          are mixed orderings on one atomic and non-atomic variables written \
                          in a spawn closure but read outside it with no join on the path",
            example: "std::thread::scope(|s| {\n    s.spawn(|| {\n        self.ready.store(1, Ordering::Relaxed);   // <-- atomics\n    });\n});",
            check: check_atomics,
        },
    ]
}

/// Look up a file-scope rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    registry().iter().find(|r| r.name == name)
}

/// Look up a crate-scope rule by name.
pub fn crate_rule_by_name(name: &str) -> Option<&'static CrateRule> {
    crate_registry().iter().find(|r| r.name == name)
}

fn diag(view: &FileView, rule: &'static str, line: usize, message: String) -> Diagnostic {
    Diagnostic { rule, path: view.path.to_string(), line: line + 1, message }
}

fn check_no_panic(view: &FileView) -> Vec<Diagnostic> {
    if !view.is_pipeline_lib() {
        return Vec::new();
    }
    const PATTERNS: &[(&str, &str)] =
        &[(".unwrap()", "call to .unwrap()"), (".expect(", "call to .expect(…)"), ("panic!", "explicit panic!")];
    let mut out = Vec::new();
    for (i, code) in view.scanned.code.iter().enumerate() {
        if view.in_test_region[i] {
            continue;
        }
        for (pat, what) in PATTERNS {
            if code.contains(pat) {
                out.push(diag(view, "no-panic", i, format!("{what} in pipeline library code")));
            }
        }
    }
    out
}

fn check_safety_comment(view: &FileView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, code) in view.scanned.code.iter().enumerate() {
        if find_token(code, "unsafe").is_none() {
            continue;
        }
        // Accept SAFETY: on the same line or on the nearest non-blank line
        // above (comment channel), skipping attribute lines.
        let mut justified = view.scanned.comments[i].contains("SAFETY:");
        let mut j = i;
        while !justified && j > 0 {
            j -= 1;
            if view.scanned.comments[j].contains("SAFETY:") {
                justified = true;
                break;
            }
            let code_above = view.scanned.code[j].trim();
            if !code_above.is_empty() && !code_above.starts_with("#[") {
                break; // real code intervenes — the comment doesn't cover us
            }
        }
        if !justified {
            out.push(diag(view, "safety-comment", i, "`unsafe` without a preceding // SAFETY: comment".to_string()));
        }
    }
    out
}

/// The one module sanctioned to read the OS clock: `agl-obs` wraps it
/// behind [`agl_obs::Clock`], which a logical-clock run swaps out
/// wholesale. Everything else — pipeline crates, binaries, the bench
/// drivers' measured sections — must take time through a `Clock` so the
/// whole workspace stays bit-reproducible under `Clock::logical()`.
fn is_clock_impl(view: &FileView) -> bool {
    view.path.starts_with("crates/obs/")
}

fn check_no_wallclock(view: &FileView) -> Vec<Diagnostic> {
    if view.is_exempt_target() || is_clock_impl(view) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, code) in view.scanned.code.iter().enumerate() {
        if view.in_test_region[i] {
            continue;
        }
        for pat in ["Instant::now", "SystemTime::now"] {
            if code.contains(pat) {
                out.push(diag(view, "no-wallclock", i, format!("{pat} outside agl-obs; take time via agl_obs::Clock")));
            }
        }
    }
    out
}

fn check_no_raw_spawn(view: &FileView) -> Vec<Diagnostic> {
    if view.is_exempt_target() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, code) in view.scanned.code.iter().enumerate() {
        if view.in_test_region[i] {
            continue;
        }
        if code.contains("thread::spawn") {
            out.push(diag(view, "no-raw-spawn", i, "raw thread::spawn in library code".to_string()));
        }
    }
    out
}

/// The happens-before atomics pass over every library source — the audited
/// atomic sites span ps, obs, tensor, and mapreduce: receiver resolution,
/// Arc/static/spawn escape analysis and spawn-reachability over the call
/// graph, then judgement of the sites.
fn check_atomics(views: &[FileView]) -> Vec<Diagnostic> {
    let files: Vec<FileWalk> = views.iter().filter(|v| !v.is_exempt_target()).map(FileView::file_walk).collect();
    atomics::interproc(&files)
        .into_iter()
        .map(|f| Diagnostic {
            rule: "atomics",
            path: f.file.clone(),
            line: f.line + 1,
            message: format!("in fn {}: {}", f.func, f.message),
        })
        .collect()
}

/// The hot functions of the §3.3.2 aggregation path and the per-group
/// reducer bodies: allocation inside their loops multiplies with nnz or
/// group size, which is exactly the skew the paper optimises against.
const HOT_FUNCTIONS: &[(&str, &[&str])] = &[
    ("crates/tensor/src/partition.rs", &["spmm", "for_each_row"]),
    ("crates/tensor/src/csr.rs", &["spmm", "spmm_rows_into", "t_spmm"]),
    ("crates/flat/src/pipeline.rs", &["reduce"]),
    ("crates/ps/src/server.rs", &["apply"]),
];

/// The registered hot functions of the file at `path` (usually none).
fn hot_functions(path: &str) -> &'static [&'static str] {
    HOT_FUNCTIONS.iter().find(|(p, _)| *p == path).map_or(&[], |(_, fns)| fns)
}

fn check_no_hot_alloc(view: &FileView) -> Vec<Diagnostic> {
    if hot_functions(view.path).is_empty() {
        return Vec::new();
    }
    view.walk()
        .alloc_sites
        .iter()
        .filter(|s| !view.in_test_region[s.line])
        .map(|s| {
            diag(
                view,
                "no-hot-alloc",
                s.line,
                format!("allocation `{}` inside a loop of hot fn {}", s.pattern.trim_end_matches('('), s.func),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        let scanned = scan(src);
        let view = FileView::new(path, &scanned);
        registry().iter().flat_map(|r| (r.check)(&view)).collect()
    }

    #[test]
    fn unwrap_flagged_in_pipeline_lib_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint_one("crates/flat/src/foo.rs", src).len(), 1);
        assert!(lint_one("crates/datasets/src/foo.rs", src).is_empty());
        assert!(lint_one("crates/flat/tests/foo.rs", src).is_empty());
        assert!(lint_one("crates/flat/examples/foo.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_region_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_one("crates/flat/src/foo.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n";
        assert!(lint_one("crates/mapreduce/src/foo.rs", src).is_empty());
    }

    #[test]
    fn expect_and_panic_flagged() {
        let d = lint_one("crates/mapreduce/src/foo.rs", "fn f(x: Option<u8>) { x.expect(\"x\"); panic!(\"no\"); }\n");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert_eq!(lint_one("crates/datasets/src/x.rs", bad).len(), 1);
        assert!(lint_one("crates/datasets/src/x.rs", good).is_empty());
    }

    #[test]
    fn wallclock_flagged_workspace_wide_outside_obs() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let d = lint_one("crates/foo/src/engine.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-wallclock");
        // Binaries are library code for this rule: src/bin is not exempt.
        let sys = "fn f() { let t = std::time::SystemTime::now(); let _ = t; }\n";
        assert_eq!(lint_one("crates/bench/src/bin/headline.rs", sys).len(), 1);
        // The clock implementation is the one sanctioned caller.
        assert!(lint_one("crates/obs/src/clock.rs", src).is_empty());
        // Benches, tests, and examples read clocks legitimately.
        assert!(lint_one("crates/bench/benches/micro.rs", src).is_empty());
        assert!(lint_one("crates/flat/tests/foo.rs", src).is_empty());
        // ... as do #[cfg(test)] regions inside library files.
        let test_only = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(lint_one("crates/foo/src/engine.rs", test_only).is_empty());
        // A mention in a comment or string is not a call.
        let comment_only = "// upstream uses Instant::now for this\nfn f() {}\n";
        assert!(lint_one("crates/foo/src/engine.rs", comment_only).is_empty());
    }

    #[test]
    fn hot_alloc_rule_scoped_to_hot_functions() {
        let src = "fn spmm(&self) {\n    for r in rows {\n        let v = x.to_vec();\n    }\n}\nfn helper(&self) {\n    for r in rows {\n        let v = x.to_vec();\n    }\n}\n";
        let d = lint_one("crates/tensor/src/partition.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-hot-alloc");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("hot fn spmm"), "{}", d[0].message);
        // Same code in a file with no registered hot functions: clean.
        assert!(lint_one("crates/tensor/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_flagged_outside_sanctioned() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let d = lint_one("crates/ps/src/foo.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].message, "raw thread::spawn in library code");
        assert_eq!(lint_one("crates/trainer/src/pipeline.rs", src).len(), 1);
        // Scoped spawns are fine.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(lint_one("crates/ps/src/foo.rs", scoped).is_empty());
    }

    #[test]
    fn patterns_in_strings_and_comments_ignored() {
        let src = "fn f() -> &'static str { \"call .unwrap() and panic!\" } // .expect( here\n";
        assert!(lint_one("crates/flat/src/foo.rs", src).is_empty());
    }
}
