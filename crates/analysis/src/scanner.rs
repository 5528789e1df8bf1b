//! A hand-rolled Rust source scanner, plus the workspace call graph.
//!
//! The lint driver must not depend on `syn` or any external parser (the
//! workspace builds offline), and the rules it enforces are lexical: "does
//! this *code* call `.unwrap()`", "is this `unsafe` block preceded by a
//! `// SAFETY:` comment". So the scanner's first job is exactly that: split
//! a source file into **code text** and **comment text**, line by line, with
//! string/char-literal contents blanked out of the code channel so that a
//! pattern occurring inside a literal or a comment never triggers a rule.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`, any number of `#`s, with `b`
//! prefixes), char literals (distinguished from lifetimes), and `//` inside
//! strings. Not handled (not needed for lexical rules): macro token trees,
//! doc-comment semantics beyond their text.
//!
//! The second half of this module is the **call graph** the atomics pass
//! runs over: [`CallTarget`] classifies how a call site names its callee
//! (`self.f(…)`, `Type::f(…)`, bare `f(…)`, or a method on some other
//! receiver), [`impl_owner`] recovers the `Self` type of an `impl` block
//! header, and [`CallGraph`] resolves call targets against the function
//! definitions of a set of files (collected by the
//! [`walk`](mod@crate::walk)). Resolution is deliberately conservative: a
//! target that cannot be matched to exactly one in-scope definition stays
//! unresolved, so the pass can under-approximate but never invent a chain.

/// One source file, split into a code channel and a comment channel.
#[derive(Debug)]
pub struct ScannedFile {
    /// Source lines with comments removed and literal contents blanked
    /// (replaced by spaces, so column positions survive).
    pub code: Vec<String>,
    /// Comment text per line (contents of `//…` and `/*…*/` landing on the
    /// line), concatenated. Empty string when the line has no comment.
    pub comments: Vec<String>,
}

impl ScannedFile {
    /// Number of lines in the file.
    pub fn n_lines(&self) -> usize {
        self.code.len()
    }
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested depth.
    BlockComment(usize),
    Str,
    /// Number of `#`s that close it.
    RawStr(usize),
}

/// Scan `src` into per-line code and comment channels.
pub fn scan(src: &str) -> ScannedFile {
    let mut code: Vec<String> = Vec::new();
    let mut comments: Vec<String> = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = State::Code;

    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code_line.push(' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    code_line.push('"');
                    i += 1;
                    continue;
                }
                // Raw (byte) strings: r"…", r#"…"#, br"…", br#"…"#…
                if (c == 'r' || c == 'b') && !prev_is_ident(&code_line) {
                    let mut j = i;
                    if chars.get(j) == Some(&'b') && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') {
                        let mut hashes = 0usize;
                        let mut k = j + 1;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            state = State::RawStr(hashes);
                            for _ in i..=k {
                                code_line.push(' ');
                            }
                            i = k + 1;
                            continue;
                        }
                    }
                }
                // Char literal vs lifetime: 'x' or '\n' is a literal; 'a in
                // generics has no closing quote right after one element.
                if c == '\'' {
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: the char after the backslash
                        // is consumed unconditionally (it may be `'`), then
                        // skip to the closing quote (covers `\u{…}`).
                        let mut k = i + 3;
                        while k < chars.len() && chars[k] != '\'' && chars[k] != '\n' {
                            k += 1;
                        }
                        for _ in i..=k.min(chars.len() - 1) {
                            code_line.push(' ');
                        }
                        i = (k + 1).min(chars.len());
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') {
                        code_line.push_str("   ");
                        i += 3;
                        continue;
                    }
                    // A lifetime — keep the tick as code.
                    code_line.push('\'');
                    i += 1;
                    continue;
                }
                code_line.push(c);
                i += 1;
            }
            State::LineComment => {
                comment_line.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    comment_line.push_str("/*");
                    i += 2;
                } else {
                    comment_line.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code_line.push_str("  ");
                    i += 2; // skip the escaped char (incl. \" and \\)
                } else if c == '"' {
                    state = State::Code;
                    code_line.push('"');
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    // Closing needs `"` + `#` * hashes.
                    let closes = (1..=hashes).all(|h| chars.get(i + h) == Some(&'#'));
                    if closes {
                        state = State::Code;
                        for _ in 0..=hashes {
                            code_line.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                code_line.push(' ');
                i += 1;
            }
        }
    }
    if !code_line.is_empty() || !comment_line.is_empty() {
        code.push(code_line);
        comments.push(comment_line);
    }
    ScannedFile { code, comments }
}

/// Byte offset of the first occurrence of `needle` in `hay` that is not
/// part of a longer identifier. The boundary after the needle is checked
/// only when the needle ends in an identifier character, so `spawn(` finds
/// `spawn(move …` but not `respawn(`.
pub fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = hay.as_bytes();
    let check_after = needle.bytes().last().is_some_and(is_ident);
    hay.match_indices(needle).map(|(start, _)| start).find(|&start| {
        let end = start + needle.len();
        (start == 0 || !is_ident(bytes[start - 1])) && !(check_after && end < bytes.len() && is_ident(bytes[end]))
    })
}

/// Was the previous code char part of an identifier? (So `for r in…` is not
/// mistaken for a raw-string prefix when followed by `"`.)
fn prev_is_ident(code_line: &str) -> bool {
    code_line.chars().next_back().is_some_and(|p| p.is_alphanumeric() || p == '_')
}

/// Per-line flags marking `#[cfg(test)] mod … { … }` regions, so rules can
/// exempt inline unit tests. Brace counting happens on the code channel
/// (comments and literals already stripped), which makes it exact enough.
pub fn test_regions(file: &ScannedFile) -> Vec<bool> {
    let n = file.n_lines();
    let mut in_test = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if file.code[i].contains("cfg(test)") {
            // Find the opening brace of the mod (same or later line).
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < n {
                in_test[j] = true;
                for c in file.code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

/// How a call site names its callee, as recovered from the code channel.
///
/// The variants carry decreasing amounts of resolvable information:
/// `self.f(…)` pins the callee to the caller's `impl` owner, `Type::f(…)`
/// pins it to a named type, a bare `f(…)` can only be a free function, and a
/// method call on any other receiver (`v.record_push(…)`, `vec.push(…)`)
/// carries no type information at all — [`CallGraph::resolve`] deliberately
/// refuses to resolve those rather than guess by method name alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `self.name(…)` or `Self::name(…)` — a method on the caller's owner.
    SelfMethod(String),
    /// `Type::name(…)` — an associated function of a named type.
    Qualified {
        /// Last path segment of the type (`fmt::Display::f` → `Display`).
        ty: String,
        /// The function name.
        name: String,
    },
    /// `name(…)` with no receiver or path — a free function (or a closure /
    /// tuple constructor; resolution sorts that out by lookup failure).
    Bare(String),
    /// `recv.name(…)` where the receiver is not `self` — never resolved.
    Method(String),
}

/// Parse a call token at the head of `rest` (the code channel from the
/// current position onward). `stmt` is the statement text accumulated
/// *before* this position; its tail decides the qualifier (`self.`, `Ty::`,
/// some other receiver, or nothing). Returns `None` when `rest` does not
/// start with `ident(`.
///
/// Macros (`ident!(…)`) and turbofish calls (`ident::<T>(…)`) are not
/// treated as calls; paths passed as values (`map(Self::helper)`) are not
/// followed by `(` and are likewise skipped. Both are conservative misses.
pub fn parse_call(rest: &str, stmt: &str) -> Option<CallTarget> {
    let first = rest.chars().next()?;
    if !(first.is_ascii_alphabetic() || first == '_') {
        return None;
    }
    let end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if !rest[end..].starts_with('(') {
        return None;
    }
    let name = rest[..end].to_string();
    let head = stmt.trim_end();
    if let Some(path_head) = head.strip_suffix("::") {
        let ty = trailing_path_segment(path_head);
        if ty.is_empty() {
            // `::foo(` — an absolute path; treat as a free function.
            return Some(CallTarget::Bare(name));
        }
        if ty == "Self" {
            return Some(CallTarget::SelfMethod(name));
        }
        return Some(CallTarget::Qualified { ty, name });
    }
    if let Some(recv_head) = head.strip_suffix('.') {
        let recv = trailing_path_segment(recv_head);
        if recv == "self" {
            return Some(CallTarget::SelfMethod(name));
        }
        return Some(CallTarget::Method(name));
    }
    Some(CallTarget::Bare(name))
}

/// The trailing identifier of `s` (empty when `s` ends with a non-ident
/// char, e.g. a `)` from a chained call).
fn trailing_path_segment(s: &str) -> String {
    let tail: String = s.chars().rev().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    tail.chars().rev().collect()
}

/// Extract the `Self` type name from an `impl` block header: the type after
/// `for` in a trait impl, the inherent type otherwise; generics and paths
/// are stripped to the last plain segment. Returns `None` when the header is
/// not an impl (e.g. an `impl Trait` return type inside an `fn` header).
pub fn impl_owner(header: &str) -> Option<String> {
    let mut rest = header[find_token(header, "impl")? + 4..].trim_start();
    // Skip the generic parameter list, if any.
    if rest.starts_with('<') {
        let mut depth = 0i64;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    // A trait impl names the Self type after a top-level `for`.
    let mut depth = 0i64;
    let mut prev_ident = false;
    let mut idx = 0usize;
    let chars: Vec<char> = rest.chars().collect();
    while idx < chars.len() {
        match chars[idx] {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            'f' if depth == 0 && !prev_ident => {
                let is_for = rest[idx..].starts_with("for")
                    && !chars.get(idx + 3).is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_');
                if is_for {
                    rest = rest[idx + 3..].trim_start();
                    break;
                }
            }
            _ => {}
        }
        prev_ident = chars[idx].is_ascii_alphanumeric() || chars[idx] == '_';
        idx += 1;
    }
    // `rest` now starts at the Self type: take its leading path, then the
    // last segment, shorn of generics.
    let path_end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_' || *c == ':'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    let path = rest[..path_end].trim_end_matches(':');
    let seg = path.rsplit("::").next().unwrap_or(path);
    if seg.is_empty() || seg.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
        // `impl` followed by nothing useful (or a keyword) — not an owner.
        return None;
    }
    Some(seg.to_string())
}

/// A function definition node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct CallGraphNode {
    /// Index of the file (in the caller-supplied file list) defining it.
    pub file: usize,
    /// The function name.
    pub name: String,
    /// The `impl` owner type, or `None` for a free function.
    pub owner: Option<String>,
}

/// The resolved workspace call graph: nodes are function definitions, edges
/// are call sites whose [`CallTarget`] matched exactly one definition.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Function definitions, indexed by node id.
    pub nodes: Vec<CallGraphNode>,
    /// `out[n]` lists `(callee, call_site_id)` edges out of node `n`; the
    /// call-site id is whatever the caller passed to [`CallGraph::add_call`].
    pub out: Vec<Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Build an edgeless graph over `nodes`.
    pub fn new(nodes: Vec<CallGraphNode>) -> Self {
        let out = vec![Vec::new(); nodes.len()];
        CallGraph { nodes, out }
    }

    /// Resolve `target`, as seen from `caller`, to a node id.
    ///
    /// Rules (all require a *unique* match, else `None`):
    /// - `SelfMethod` matches a node whose owner equals the caller's owner;
    /// - `Qualified` matches a node whose owner equals the named type;
    /// - `Bare` matches a free function (same-file definitions win when the
    ///   name is defined in several files);
    /// - `Method` never resolves — the receiver's type is unknown, and e.g.
    ///   `v.record_push(…)` must not resolve to `ParameterServer::push`.
    pub fn resolve(&self, caller: usize, target: &CallTarget) -> Option<usize> {
        let matches: Vec<usize> = match target {
            CallTarget::Method(_) => return None,
            CallTarget::SelfMethod(name) => {
                let owner = self.nodes[caller].owner.as_ref()?;
                self.find(|n| n.name == *name && n.owner.as_ref() == Some(owner))
            }
            CallTarget::Qualified { ty, name } => {
                self.find(|n| n.name == *name && n.owner.as_deref() == Some(ty.as_str()))
            }
            CallTarget::Bare(name) => {
                let all = self.find(|n| n.name == *name && n.owner.is_none());
                if all.len() > 1 {
                    let file = self.nodes[caller].file;
                    let local: Vec<usize> = all.iter().copied().filter(|&n| self.nodes[n].file == file).collect();
                    if local.len() == 1 {
                        return Some(local[0]);
                    }
                }
                all
            }
        };
        if matches.len() == 1 {
            Some(matches[0])
        } else {
            None
        }
    }

    fn find(&self, pred: impl Fn(&CallGraphNode) -> bool) -> Vec<usize> {
        self.nodes.iter().enumerate().filter(|(_, n)| pred(n)).map(|(i, _)| i).collect()
    }

    /// Record a resolved call edge `caller → callee` tagged with an opaque
    /// call-site id (used to recover the call site of a chain frame).
    pub fn add_call(&mut self, caller: usize, callee: usize, call_id: usize) {
        self.out[caller].push((callee, call_id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_go_to_comment_channel() {
        let s = scan("let x = 1; // call .unwrap() here\n/* panic! */ let y = 2;\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.comments[0].contains(".unwrap()"));
        assert!(!s.code[1].contains("panic!"));
        assert!(s.code[1].contains("let y = 2;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let s = scan("let m = \"do not panic!(here) or .unwrap()\";\n");
        assert!(!s.code[0].contains("panic!"));
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.code[0].contains("let m = "));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = scan("let a = r#\"has .unwrap() and \"quotes\"\"#;\nlet b = \"esc \\\" .expect(\";\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(!s.code[1].contains("expect"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scan("fn f<'a>(x: &'a str) -> char { '\\'' }\nlet q = '\"'; let c = q;\n");
        assert!(s.code[0].contains("fn f<'a>(x: &'a str)"));
        // The '"' literal must not open a string state.
        assert!(s.code[1].contains("let c = q;"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ let z = 3;\n");
        assert!(s.code[0].contains("let z = 3;"));
        assert!(!s.code[0].contains("inner"));
    }

    #[test]
    fn test_region_tracking() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scan(src);
        let regions = test_regions(&s);
        assert_eq!(regions, vec![false, true, true, true, true, false]);
    }
}
