//! The lint driver: walk source files, run every registered rule — the
//! per-file rules on each file, the crate-scope rules on the whole file
//! set — apply the `agl-lint: allow(…)` escape hatch, and report
//! diagnostics.

use crate::rules::{crate_registry, registry, Diagnostic, FileView};
use crate::scanner::{scan, ScannedFile};
use std::io;
use std::path::{Path, PathBuf};

/// Lint one file's source text. `rel_path` must be workspace-relative and
/// `/`-separated — rules dispatch on it (pipeline crate? test target?
/// determinism-critical module?). Crate-scope rules run over the
/// single-file "set", so cross-file chains obviously cannot appear; use
/// [`lint_sources`] to lint a coherent file set.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel_path.to_string(), src.to_string())])
}

/// Lint a set of files together: every `(workspace-relative path, source
/// text)` pair gets the per-file rules, then the crate-scope rules (the
/// atomics pass) run once over the whole set. The `agl-lint: allow(…)`
/// escape hatch is applied against each diagnostic's *owning* file.
/// Diagnostics come back sorted by (path, line, rule).
pub fn lint_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let scanned: Vec<ScannedFile> = files.iter().map(|(_, src)| scan(src)).collect();
    let views: Vec<FileView> = files.iter().zip(&scanned).map(|((path, _), s)| FileView::new(path, s)).collect();
    let mut out: Vec<Diagnostic> = Vec::new();
    for view in &views {
        out.extend(registry().iter().flat_map(|rule| (rule.check)(view)));
    }
    out.extend(crate_registry().iter().flat_map(|rule| (rule.check)(&views)));
    let scanned_of = |path: &str| files.iter().position(|(p, _)| p == path).map(|i| &scanned[i]);
    out.retain(|d| !scanned_of(&d.path).is_some_and(|s| is_allowed(s, d)));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// The escape hatch: `// agl-lint: allow(<rule>)` on the diagnostic's line
/// or the line directly above suppresses it.
fn is_allowed(scanned: &ScannedFile, d: &Diagnostic) -> bool {
    let needle = format!("agl-lint: allow({})", d.rule);
    let line0 = d.line - 1; // Diagnostic lines are 1-based.
    scanned.comments.get(line0).is_some_and(|c| c.contains(&needle))
        || (line0 > 0 && scanned.comments[line0 - 1].contains(&needle))
}

/// Recursively collect `.rs` files under `root`, skipping build output and
/// VCS internals. Paths come back sorted for deterministic reports.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every `.rs` file under a workspace root, as one coherent set (so
/// the crate-scope rules see the whole workspace call graph).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files: Vec<(String, String)> = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(lint_sources(&files))
}

/// Find the workspace root by walking up from `start` to the nearest
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // agl-lint: allow(no-panic) — checked above\n}\n";
        assert!(lint_source("crates/flat/src/foo.rs", src).is_empty());
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // agl-lint: allow(no-panic) — invariant: x is Some\n    x.unwrap()\n}\n";
        assert!(lint_source("crates/flat/src/foo.rs", src).is_empty());
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // agl-lint: allow(no-wallclock)\n    x.unwrap()\n}\n";
        let d = lint_source("crates/flat/src/foo.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn diagnostics_are_sorted_and_display_file_line() {
        let src = "fn g() { std::thread::spawn(|| {}); }\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        let d = lint_source("crates/ps/src/foo.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d[0].line <= d[1].line);
        let shown = d[0].to_string();
        assert!(shown.starts_with("crates/ps/src/foo.rs:1:"), "{shown}");
    }
}
