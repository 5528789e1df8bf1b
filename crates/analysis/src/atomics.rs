//! Happens-before judgement over atomics and spawn-shared state.
//!
//! The shared [`walk`](mod@crate::walk) records every atomic declaration
//! (struct fields, statics, `let`-bound locals) and every atomic access
//! site — `.load(…)`, `.store(…)`, and the RMW family — with its
//! `Ordering`, whether a lock guard is lexically held at the site, and
//! whether the site sits inside a `spawn(…)` closure. The crate-scope pass
//! ([`interproc`]) builds the workspace call graph (`WalkGraph`),
//! propagates spawn-reachability over it, and classifies each atomic as
//! **thread-local** or **escaping** (captured by a spawn closure, declared
//! `static`, reachable through an `Arc<Owner>`, or accessed through a
//! receiver the lexical pass cannot resolve — conservatively treated as
//! shared). It reports:
//!
//! * **cross-thread `Relaxed`** — a `Relaxed` load/store/RMW on an escaping
//!   atomic that is not protected by a lexically held lock guard and whose
//!   enclosing function contains no `SeqCst` fence. `Relaxed` guarantees
//!   atomicity but *no ordering*: publishing data through one is the exact
//!   bug class PR 3 fixed by hand in the SSP `max_staleness` path.
//! * **mixed orderings** — the same atomic accessed with `Relaxed` at one
//!   site and `Acquire`/`Release`/`AcqRel` at another: the `Relaxed` side
//!   silently breaks the release/acquire pairing the sync side implies.
//! * **spawn write / outside read** — a non-atomic variable assigned inside
//!   a spawn closure and read after the closure with no `.join(…)` (or
//!   enclosing `thread::scope` exit) ordering the two.
//!
//! Findings in functions that run *on* a spawned thread only transitively
//! (the closure calls them) carry a site-by-site call chain.
//! `// agl-lint: allow(atomics) — <why>` is the audited escape hatch, and
//! CONCURRENCY.md's ordering policy lists the arguments it may cite.
//!
//! Like the rest of the lint this is lexical, not semantic. Deliberate
//! under-approximations: an access only counts as atomic when `Ordering::`
//! appears on the same source line (a call split across lines is missed);
//! lock protection means a guard is *lexically* held at the site; escape
//! analysis sees `Arc<Owner>` mentions, spawn captures, and statics, not
//! arbitrary aliasing. Deliberate over-approximations: a receiver the walk
//! cannot resolve to a declaration is treated as escaping, so a genuinely
//! thread-local access through one needs an allow comment rather than
//! silently passing.

use crate::walk::{Access, FieldDecl, FileWalk, MemOrder, Recv, StaticDecl, Walk, WalkGraph};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One frame of a witness call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChainFrame {
    /// The function this frame executes in.
    func: String,
    /// Display path of the file defining it.
    file: String,
    /// 0-based line of the site.
    line: usize,
    /// What happens at the site, e.g. `calls tick`.
    what: String,
}

/// Render a witness chain site-by-site: `run (a.rs:5: calls tick from
/// inside a spawn closure) → tick (a.rs:10: Relaxed RMW on `hits`)`.
fn render_chain(chain: &[ChainFrame]) -> String {
    chain.iter().map(|f| format!("{} ({}:{}: {})", f.func, f.file, f.line + 1, f.what)).collect::<Vec<_>>().join(" → ")
}

/// One atomics finding (0-based line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicFinding {
    /// Display path of the anchor file.
    pub file: String,
    /// 0-based anchor line.
    pub line: usize,
    /// Enclosing function of the anchor site.
    pub func: String,
    /// Human-readable explanation (chains rendered inline).
    pub message: String,
}

/// Identity of an atomic across the file set, for access grouping.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Field(Option<String>, String),
    Static(String),
    Local(usize, usize, String),
    /// Unresolvable receiver — every site is its own singleton.
    Unres(usize, usize),
}

/// Why an atomic counts as escaping (rendered into the finding).
#[derive(Debug, Clone)]
enum Escape {
    No,
    Yes(String),
}

/// Run the crate-scope atomics pass over the files of a lint run.
///
/// Builds the call graph from the recorded definitions and call sites,
/// propagates **spawn-reachability** over it (a function called from inside
/// a `spawn(…)` closure runs on the spawned thread, transitively, with a
/// witness chain), resolves every access's receiver against the declared
/// atomics, classifies each atomic as thread-local or escaping, and judges
/// the access sites as documented on the module.
pub fn interproc(files: &[FileWalk<'_>]) -> Vec<AtomicFinding> {
    let g = WalkGraph::build(files);
    let cg = &g.cg;
    let frame = |v: usize, line: usize, what: String| ChainFrame {
        func: cg.nodes[v].name.clone(),
        file: files[cg.nodes[v].file].path.to_string(),
        line,
        what,
    };

    // Spawn-reachability: BFS from the calls made inside spawn closures;
    // first chain wins.
    let mut on_thread: BTreeMap<usize, Vec<ChainFrame>> = BTreeMap::new();
    let mut work: Vec<usize> = Vec::new();
    for site in g.sites.iter().filter(|s| s.call.in_spawn) {
        if let Entry::Vacant(slot) = on_thread.entry(site.callee) {
            let what = format!("calls {} from inside a spawn closure", cg.nodes[site.callee].name);
            slot.insert(vec![frame(site.caller, site.call.line, what)]);
            work.push(site.callee);
        }
    }
    while let Some(v) = work.pop() {
        for &(w, site_id) in &cg.out[v] {
            if !on_thread.contains_key(&w) {
                let hop = frame(v, g.sites[site_id].call.line, format!("calls {}", cg.nodes[w].name));
                on_thread.insert(w, [on_thread[&v].clone(), vec![hop]].concat());
                work.push(w);
            }
        }
    }

    // Declaration tables across the file set.
    let fields: Vec<(usize, &FieldDecl)> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| f.walk.fields.iter().map(move |d| (fi, d)))
        .filter(|&(fi, d)| !files[fi].is_test_line(d.line))
        .collect();
    let statics: Vec<(usize, &StaticDecl)> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| f.walk.statics.iter().map(move |d| (fi, d)))
        .filter(|&(fi, d)| !files[fi].is_test_line(d.line))
        .collect();
    let arc_types: BTreeSet<&str> = files.iter().flat_map(|f| f.walk.arc_types.iter().map(String::as_str)).collect();

    // Group accesses by atomic identity.
    struct Site {
        fi: usize,
        ai: usize,
    }
    let mut groups: BTreeMap<Key, Vec<Site>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (ai, a) in f.walk.accesses.iter().enumerate() {
            if f.is_test_line(a.line) {
                continue;
            }
            let key = resolve_key(fi, a, f.walk, &fields, &statics);
            groups.entry(key).or_default().push(Site { fi, ai });
        }
    }

    let mut out: Vec<AtomicFinding> = Vec::new();
    for (key, sites) in &groups {
        let access = |s: &Site| &files[s.fi].walk.accesses[s.ai];
        let any_in_spawn = sites.iter().any(|s| access(s).in_spawn);
        let any_on_thread =
            sites.iter().any(|s| g.node(s.fi, access(s).fn_idx).is_some_and(|n| on_thread.contains_key(&n)));

        let (name, escape) = classify(key, files, &fields, &arc_types, any_in_spawn, any_on_thread);
        let Escape::Yes(why) = escape else { continue };

        // (a) cross-thread Relaxed without a lock, fence, or sync ordering.
        for s in sites {
            let a = access(s);
            let sanctioned =
                a.guard_held || a.order.is_sync() || a.fn_idx.is_some_and(|k| files[s.fi].walk.fns[k].has_fence);
            if sanctioned {
                continue;
            }
            let func = files[s.fi].walk.fn_name(a.fn_idx);
            let mut message = format!(
                "Relaxed {} on cross-thread atomic `{name}` ({why}) with no acquire/release edge, \
                 lock, or SeqCst fence ordering it",
                a.op
            );
            if let Some(nid) = g.node(s.fi, a.fn_idx) {
                if let Some(chain) = on_thread.get(&nid) {
                    let mut full = chain.clone();
                    full.push(ChainFrame {
                        func: func.clone(),
                        file: files[s.fi].path.to_string(),
                        line: a.line,
                        what: format!("Relaxed {} on `{name}`", a.op),
                    });
                    message.push_str(&format!("; call chain: {}", render_chain(&full)));
                }
            }
            out.push(AtomicFinding { file: files[s.fi].path.to_string(), line: a.line, func, message });
        }

        // (b) mixed orderings on one atomic: a Relaxed site undermines the
        // release/acquire pairing the sync sites imply. One finding per
        // atomic, anchored at the first Relaxed site.
        if matches!(key, Key::Unres(..)) {
            continue; // unresolved receivers never pair up
        }
        let sync_site = sites.iter().find(|s| access(s).order.is_sync());
        let relaxed_site = sites.iter().find(|s| access(s).order == MemOrder::Relaxed);
        if let (Some(r), Some(y)) = (relaxed_site, sync_site) {
            let (ra, ya) = (access(r), access(y));
            out.push(AtomicFinding {
                file: files[r.fi].path.to_string(),
                line: ra.line,
                func: files[r.fi].walk.fn_name(ra.fn_idx),
                message: format!(
                    "mixed memory orderings on atomic `{name}`: Relaxed {} here, but {} {} at {}:{} \
                     expects a release/acquire pairing this side does not provide",
                    ra.op,
                    ya.order,
                    ya.op,
                    files[y.fi].path,
                    ya.line + 1
                ),
            });
        }
    }

    // (c) non-atomic spawn write / outside read, resolved per file.
    for f in files {
        for sf in f.walk.spawn_writes.iter().filter(|sf| !f.is_test_line(sf.write_line)) {
            out.push(AtomicFinding {
                file: f.path.to_string(),
                line: sf.write_line,
                func: f.walk.fn_name(sf.fn_idx),
                message: format!(
                    "non-atomic `{}` is written here inside a spawn closure and read at line {} \
                     with no join or lock ordering the two; make it atomic, join the handle \
                     first, or guard both sides",
                    sf.name,
                    sf.read_line + 1
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Resolve an access's receiver to an atomic identity.
fn resolve_key(
    fi: usize,
    a: &Access,
    walk: &Walk,
    fields: &[(usize, &FieldDecl)],
    statics: &[(usize, &StaticDecl)],
) -> Key {
    let singleton = || Key::Unres(fi, a.line);
    match &a.recv {
        Recv::Unknown => singleton(),
        Recv::Field(name) => {
            let owner = a.fn_idx.and_then(|k| walk.fns[k].owner.clone());
            let matches: Vec<&FieldDecl> = fields.iter().map(|&(_, d)| d).filter(|d| d.name == *name).collect();
            // Prefer the access's own impl owner, then a unique by-name match
            // (covers paths like `self.tracker.next_token`).
            if let Some(d) = matches.iter().find(|d| d.owner.is_some() && d.owner == owner) {
                Key::Field(d.owner.clone(), d.name.clone())
            } else if matches.len() == 1 {
                Key::Field(matches[0].owner.clone(), matches[0].name.clone())
            } else {
                singleton()
            }
        }
        Recv::Ident(name) => {
            if walk.locals.iter().any(|l| l.name == *name && l.fn_idx == a.fn_idx) {
                Key::Local(fi, a.fn_idx.unwrap_or(usize::MAX), name.clone())
            } else {
                let matches: Vec<&StaticDecl> = statics.iter().map(|&(_, d)| d).filter(|d| d.name == *name).collect();
                if matches.len() == 1 {
                    Key::Static(name.clone())
                } else {
                    singleton()
                }
            }
        }
    }
}

/// Display name and escape verdict for one identity.
fn classify(
    key: &Key,
    files: &[FileWalk<'_>],
    fields: &[(usize, &FieldDecl)],
    arc_types: &BTreeSet<&str>,
    any_in_spawn: bool,
    any_on_thread: bool,
) -> (String, Escape) {
    match key {
        Key::Unres(..) => (
            "<unresolved receiver>".to_string(),
            Escape::Yes("receiver not resolvable to a declaration; conservatively treated as shared".to_string()),
        ),
        Key::Static(name) => (name.clone(), Escape::Yes("a static is reachable from every thread".to_string())),
        Key::Field(owner, name) => {
            let decl = fields.iter().map(|&(_, d)| d).find(|d| d.owner == *owner && d.name == *name);
            let display = match owner {
                Some(o) => format!("{o}::{name}"),
                None => name.clone(),
            };
            let escape = if decl.is_some_and(|d| d.arc_in_decl) {
                Escape::Yes("declared behind an Arc".to_string())
            } else if let Some(o) = owner.as_deref().filter(|o| arc_types.contains(o)) {
                Escape::Yes(format!("its owner is shared via Arc<{o}>"))
            } else if any_in_spawn {
                Escape::Yes("accessed inside a spawn closure".to_string())
            } else if any_on_thread {
                Escape::Yes("accessed by a function that runs on a spawned thread".to_string())
            } else {
                Escape::No
            };
            (display, escape)
        }
        Key::Local(fi, fk, name) => {
            let decl = files[*fi].walk.locals.iter().find(|l| l.name == *name && l.fn_idx.unwrap_or(usize::MAX) == *fk);
            let escape = if decl.is_some_and(|l| !l.in_spawn) && any_in_spawn {
                Escape::Yes("captured by a spawn closure".to_string())
            } else {
                Escape::No
            };
            (name.clone(), escape)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, test_regions, ScannedFile};
    use crate::walk::walk;

    fn findings(src: &str) -> Vec<AtomicFinding> {
        findings_multi(&[("crates/x/src/a.rs", src)])
    }

    fn findings_multi(files: &[(&str, &str)]) -> Vec<AtomicFinding> {
        let scanned: Vec<ScannedFile> = files.iter().map(|(_, s)| scan(s)).collect();
        let walks: Vec<Walk> = scanned.iter().map(|s| walk(s, &[])).collect();
        let masks: Vec<Vec<bool>> = scanned.iter().map(test_regions).collect();
        let fa: Vec<FileWalk> = files
            .iter()
            .zip(&walks)
            .zip(&masks)
            .map(|(((p, _), w), m)| FileWalk { path: p, walk: w, in_test: m })
            .collect();
        interproc(&fa)
    }

    #[test]
    fn relaxed_store_in_spawn_closure_flagged() {
        let src = "fn f(flag: &std::sync::atomic::AtomicU64) {\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            flag.store(1, Ordering::Relaxed);\n        });\n    });\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Relaxed store"), "{}", d[0].message);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn non_escaping_local_atomic_clean() {
        let src = "fn f() -> u64 {\n    let n = std::sync::atomic::AtomicU64::new(0);\n    n.fetch_add(1, Ordering::Relaxed);\n    n.load(Ordering::Relaxed)\n}\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn local_captured_by_spawn_flagged() {
        let src = "fn f() {\n    let n = std::sync::atomic::AtomicUsize::new(0);\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            n.fetch_add(1, Ordering::Relaxed);\n        });\n    });\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("captured by a spawn closure"), "{}", d[0].message);
    }

    #[test]
    fn lock_guard_sanctions_relaxed() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.state.lock();\n        self.hits.fetch_add(1, Ordering::Relaxed);\n        drop(g);\n    }\n}\nstruct S {\n    hits: Arc<AtomicU64>,\n}\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn arc_field_relaxed_flagged_without_guard() {
        let src = "impl S {\n    fn f(&self) {\n        self.hits.fetch_add(1, Ordering::Relaxed);\n    }\n}\nstruct S {\n    hits: Arc<AtomicU64>,\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("S::hits"), "{}", d[0].message);
    }

    #[test]
    fn seqcst_fence_sanctions_relaxed() {
        let src = "impl S {\n    fn f(&self) {\n        self.hits.fetch_add(1, Ordering::Relaxed);\n        std::sync::atomic::fence(Ordering::SeqCst);\n    }\n}\nstruct S {\n    hits: Arc<AtomicU64>,\n}\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn mixed_orderings_flagged_even_under_lock() {
        let src = "impl S {\n    fn w(&self) {\n        let g = self.state.lock();\n        self.seq.store(1, Ordering::Relaxed);\n    }\n    fn r(&self) -> u64 {\n        self.seq.load(Ordering::Acquire)\n    }\n}\nstruct S {\n    seq: Arc<AtomicU64>,\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("mixed memory orderings"), "{}", d[0].message);
        assert!(d[0].message.contains("Acquire load"), "{}", d[0].message);
    }

    #[test]
    fn spawn_write_then_outside_read_flagged() {
        let src = "fn f() {\n    let mut done = false;\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            done = true;\n        });\n        assert!(done);\n    });\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("non-atomic `done`"), "{}", d[0].message);
    }

    #[test]
    fn scope_exit_joins_spawn_writes() {
        let src = "fn f() {\n    let mut done = false;\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            done = true;\n        });\n    });\n    assert!(done);\n}\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn interproc_chain_from_spawn_closure() {
        let src = "impl S {\n    fn run(&self) {\n        std::thread::scope(|s| {\n            s.spawn(|| {\n                self.tick();\n            });\n        });\n    }\n    fn tick(&self) {\n        self.hits.fetch_add(1, Ordering::Relaxed);\n    }\n}\nstruct S {\n    hits: AtomicU64,\n}\n";
        let d = findings(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("call chain"), "{}", d[0].message);
        assert!(d[0].message.contains("calls tick from inside a spawn closure"), "{}", d[0].message);
        assert_eq!(d[0].func, "tick");
    }

    #[test]
    fn test_regions_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    static N: AtomicU64 = AtomicU64::new(0);\n    fn t() {\n        N.store(1, Ordering::Relaxed);\n    }\n}\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn static_relaxed_flagged_and_sync_clean() {
        let src = "static N: AtomicU64 = AtomicU64::new(0);\nfn bump() {\n    N.fetch_add(1, Ordering::Relaxed);\n}\nfn publish() {\n    N.store(1, Ordering::Release);\n}\n";
        let d = findings(src);
        // One (a) finding for the Relaxed RMW and one (b) mixed-orderings
        // finding (Relaxed + Release on the same atomic).
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("reachable from every thread"), "{}", d[0].message);
    }

    #[test]
    fn non_atomic_load_api_not_an_access() {
        let src = "fn f(m: &Model) {\n    let w = m.load(path);\n    let _ = w;\n}\n";
        let scanned = scan(src);
        assert!(walk(&scanned, &[]).accesses.is_empty());
    }
}
