//! Contract for the source walk the hot-allocation and atomics passes read:
//! one lint run over fixtures that hit both passes at once must produce
//! exactly this diagnostic list — rule, path, line and message.
//!
//! The fixtures carry no allow comments, so every finding shows. Each one
//! sits on a shape where the passes could disagree about what a block or a
//! guard is:
//! - `s.spawn(|| loop { … })` inside hot fn `spmm` is a loop body to the
//!   allocation rule and a spawn body to the atomics rule;
//! - `impl<F: for<'a> Fn(&'a u8)>` is an impl block, not a `for` loop;
//! - a condvar wait that rebinds one guard while two others are held;
//! - `drop(guard)` followed by a `Relaxed` store;
//! - a multi-line `fn` signature.

use agl_analysis::{lint_sources, Diagnostic};

const PARTITION: &str = "\
impl ExecCtx {
    pub fn spmm(&self, rows: &[u32]) -> usize {
        let hits = AtomicUsize::new(0);
        let mut last = 0;
        std::thread::scope(|s| {
            s.spawn(|| loop {
                let buf = vec![0u8; 4];
                hits.fetch_add(buf.len(), Ordering::Relaxed);
                last = buf.len();
                if rows.is_empty() {
                    break;
                }
            });
            let seen = last;
        });
        hits.load(Ordering::Relaxed)
    }

    pub fn for_each_row(
        &self,
        rows: &[u32],
    ) -> u64 {
        let mut acc = 0;
        for r in rows {
            let s = format!(\"{r}\");
            acc += s.len() as u64;
            ROWS.fetch_add(1, Ordering::Relaxed);
        }
        acc
    }
}

static ROWS: AtomicU64 = AtomicU64::new(0);
";

const GATE: &str = "\
pub struct Gate<F> {
    open: Arc<AtomicBool>,
    f: F,
}

impl<F: for<'a> Fn(&'a u8)> Gate<F> {
    pub fn close(&self) {
        let v = self.state.lock();
        self.reset();
        drop(v);
        self.open.store(false, Ordering::Relaxed);
    }

    fn reset(&self) {
        let b = self.barrier.lock();
        let _ = b;
    }
}
";

const WAIT: &str = "\
impl Server {
    pub fn park(&self) {
        let b = self.barrier.lock();
        let raw = self.state.lock();
        let v = self.versions.lock();
        let v = self.cv.wait_while(v, |s| s.busy);
        drop(v);
        drop(b);
        self.hits.fetch_add(1, Ordering::Relaxed);
        drop(raw);
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
";

fn lint() -> Vec<Diagnostic> {
    let files: Vec<(String, String)> = [
        ("crates/tensor/src/partition.rs", PARTITION),
        ("crates/ps/src/gate.rs", GATE),
        ("crates/ps/src/wait.rs", WAIT),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    lint_sources(&files)
}

/// The complete expected list, in `lint_sources` order (path, line, rule).
const EXPECTED: &[(&str, &str, usize, &str)] = &[
    (
        "atomics",
        "crates/ps/src/gate.rs",
        11,
        "in fn close: Relaxed store on cross-thread atomic `Gate::open` (declared behind an Arc) with no \
         acquire/release edge, lock, or SeqCst fence ordering it",
    ),
    (
        "atomics",
        "crates/ps/src/wait.rs",
        11,
        "in fn park: Relaxed RMW on cross-thread atomic `<unresolved receiver>` (receiver not resolvable to a \
         declaration; conservatively treated as shared) with no acquire/release edge, lock, or SeqCst fence \
         ordering it",
    ),
    ("no-hot-alloc", "crates/tensor/src/partition.rs", 7, "allocation `vec![` inside a loop of hot fn spmm"),
    (
        "atomics",
        "crates/tensor/src/partition.rs",
        8,
        "in fn spmm: Relaxed RMW on cross-thread atomic `hits` (captured by a spawn closure) with no \
         acquire/release edge, lock, or SeqCst fence ordering it",
    ),
    (
        "atomics",
        "crates/tensor/src/partition.rs",
        9,
        "in fn spmm: non-atomic `last` is written here inside a spawn closure and read at line 14 with no join \
         or lock ordering the two; make it atomic, join the handle first, or guard both sides",
    ),
    (
        "atomics",
        "crates/tensor/src/partition.rs",
        16,
        "in fn spmm: Relaxed load on cross-thread atomic `hits` (captured by a spawn closure) with no \
         acquire/release edge, lock, or SeqCst fence ordering it",
    ),
    ("no-hot-alloc", "crates/tensor/src/partition.rs", 25, "allocation `format!` inside a loop of hot fn for_each_row"),
    (
        "atomics",
        "crates/tensor/src/partition.rs",
        27,
        "in fn for_each_row: Relaxed RMW on cross-thread atomic `ROWS` (a static is reachable from every \
         thread) with no acquire/release edge, lock, or SeqCst fence ordering it",
    ),
];

#[test]
fn one_run_over_the_fixtures_yields_exactly_the_pinned_diagnostics() {
    let got: Vec<(&str, String, usize, String)> =
        lint().into_iter().map(|d| (d.rule, d.path, d.line, d.message)).collect();
    let want: Vec<(&str, String, usize, String)> =
        EXPECTED.iter().map(|&(r, p, l, m)| (r, p.to_string(), l, m.to_string())).collect();
    assert_eq!(got, want);
}

/// An allow comment covers its own line and the next, so a finding in
/// indented code must anchor at the statement it names: here, the spawn
/// write on line 9.
#[test]
fn an_allow_comment_at_an_indented_spawn_write_suppresses_it() {
    let write = "                last = buf.len();\n";
    let allowed = PARTITION.replace(write, &format!("                // agl-lint: allow(atomics) — fixture\n{write}"));
    let got = lint_sources(&[("crates/tensor/src/partition.rs".to_string(), allowed)]);
    assert!(!got.iter().any(|d| d.message.contains("non-atomic `last`")), "{got:#?}");
    // Only that finding goes: the rest of the fixture's partition.rs list,
    // one line lower past the inserted comment, is unchanged.
    let rest = EXPECTED.iter().filter(|e| e.1 == "crates/tensor/src/partition.rs" && e.2 != 9).count();
    assert_eq!(got.len(), rest, "{got:#?}");
}
