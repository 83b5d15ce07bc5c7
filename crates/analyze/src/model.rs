//! Per-file semantic model built on the lexer.
//!
//! A [`FileModel`] owns one file's source and token stream and exposes
//! the views the analyses need: the code-token sequence (comments and
//! whitespace stripped), per-line comment text for the `// lint: …`
//! annotation scheme, the tail `#[cfg(test)]` module boundary, and small
//! token-pattern utilities (dotted receiver paths, enum variants, item
//! body ranges) shared by every rule.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokKind, Token};

/// One source file, lexed and indexed for analysis.
pub struct FileModel {
    /// Repo-relative path (used for diagnostics and path-based scoping).
    pub path: PathBuf,
    /// The raw source text.
    pub src: String,
    /// Every token, tiling `src`.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of code tokens (not whitespace/comments).
    pub code: Vec<usize>,
    /// Code-index of the `#` opening the first `#[cfg(test)]`; by repo
    /// convention that attribute starts the tail test module.
    pub test_start: Option<usize>,
    /// line → concatenated comment text on that line.
    comments: HashMap<u32, String>,
    /// Lines holding only comments (and whitespace).
    comment_only: HashSet<u32>,
}

impl FileModel {
    /// Lex and index `src` under the given repo-relative path.
    pub fn new(path: PathBuf, src: String) -> FileModel {
        let tokens = lex(&src);
        let mut code = Vec::with_capacity(tokens.len());
        let mut comments: HashMap<u32, String> = HashMap::new();
        let mut line_has_code: HashSet<u32> = HashSet::new();
        for (i, t) in tokens.iter().enumerate() {
            match t.kind {
                TokKind::Whitespace => {}
                TokKind::LineComment | TokKind::BlockComment => {
                    let entry = comments.entry(t.line).or_default();
                    entry.push_str(&src[t.start..t.end]);
                    entry.push(' ');
                }
                _ => {
                    code.push(i);
                    line_has_code.insert(t.line);
                }
            }
        }
        let comment_only =
            comments.keys().copied().filter(|l| !line_has_code.contains(l)).collect();
        let mut m = FileModel { path, src, tokens, code, test_start: None, comments, comment_only };
        m.test_start = m.find_cfg_test();
        m
    }

    /// Number of code tokens.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the file has no code tokens at all.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Text of the code token at code-index `ci`.
    pub fn text(&self, ci: usize) -> &str {
        let t = self.tokens[self.code[ci]];
        &self.src[t.start..t.end]
    }

    /// Kind of the code token at code-index `ci`.
    pub fn kind(&self, ci: usize) -> TokKind {
        self.tokens[self.code[ci]].kind
    }

    /// 1-based line of the code token at code-index `ci`.
    pub fn line(&self, ci: usize) -> u32 {
        self.tokens[self.code[ci]].line
    }

    /// True when code-index `ci` is the given punctuation byte.
    pub fn is_punct(&self, ci: usize, p: char) -> bool {
        self.kind(ci) == TokKind::Punct && self.text(ci).starts_with(p)
    }

    /// True when code-index `ci` is an identifier with the given text.
    pub fn is_ident(&self, ci: usize, word: &str) -> bool {
        self.kind(ci) == TokKind::Ident && self.text(ci) == word
    }

    /// Whether the code token at code-index `ci` sits inside the tail
    /// `#[cfg(test)]` module.
    pub fn in_tests(&self, ci: usize) -> bool {
        self.test_start.is_some_and(|ts| ci >= ts)
    }

    /// The `// lint: …` annotation check: `marker` must appear in a
    /// comment on `line` itself or on a comment-only line directly above
    /// (rustfmt moves over-long trailing comments up). A blank line in
    /// between breaks the association. Unlike the old line-based
    /// matcher, only *comment* text counts — a marker spelled inside a
    /// string literal is not an annotation.
    pub fn annotated(&self, line: u32, marker: &str) -> bool {
        if self.comments.get(&line).is_some_and(|c| c.contains(marker)) {
            return true;
        }
        line > 1
            && self.comment_only.contains(&(line - 1))
            && self.comments.get(&(line - 1)).is_some_and(|c| c.contains(marker))
    }

    /// Walk the dotted receiver path ending at the `.` at code-index
    /// `dot` (e.g. for `self.inner.queue.lock()`, `dot` is the final
    /// `.`). Returns path segments outermost-first (`["self", "inner",
    /// "queue"]`), or an empty vector when the receiver is not a plain
    /// dotted path (a call result, an index expression, …).
    pub fn receiver_path(&self, dot: usize) -> Vec<&str> {
        let mut rev: Vec<&str> = Vec::new();
        let mut k = dot;
        while k >= 1 && self.is_punct(k, '.') {
            let prev = k - 1;
            match self.kind(prev) {
                TokKind::Ident | TokKind::Number => {
                    rev.push(self.text(prev));
                    if prev == 0 {
                        break;
                    }
                    k = prev - 1;
                    if !self.is_punct(k, '.') {
                        break;
                    }
                }
                _ => break,
            }
        }
        rev.reverse();
        rev
    }

    /// Find the code-index of the brace matching the `{` at `open`
    /// (exclusive scan; returns the index of the matching `}`), or the
    /// end of the stream when unbalanced.
    pub fn matching_brace(&self, open: usize) -> usize {
        debug_assert!(self.is_punct(open, '{'));
        let mut depth = 0usize;
        for ci in open..self.len() {
            if self.is_punct(ci, '{') {
                depth += 1;
            } else if self.is_punct(ci, '}') {
                depth -= 1;
                if depth == 0 {
                    return ci;
                }
            }
        }
        self.len()
    }

    /// Collect the variant names of `enum <name> { … }`. Idents at brace
    /// depth 1 of the enum body are variant names (field lists sit at
    /// depth 2, doc comments are not code tokens).
    pub fn enum_variants(&self, name: &str) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        for ci in 0..self.len().saturating_sub(2) {
            if self.is_ident(ci, "enum") && self.is_ident(ci + 1, name) {
                let Some(open) = (ci + 2..self.len()).find(|&j| self.is_punct(j, '{')) else {
                    return out;
                };
                let close = self.matching_brace(open);
                let mut depth = 1usize;
                let mut j = open + 1;
                while j < close {
                    if self.is_punct(j, '{') || self.is_punct(j, '(') || self.is_punct(j, '[') {
                        depth += 1;
                    } else if self.is_punct(j, '}')
                        || self.is_punct(j, ')')
                        || self.is_punct(j, ']')
                    {
                        depth -= 1;
                    } else if depth == 1 && self.kind(j) == TokKind::Ident {
                        out.push((self.text(j).to_string(), self.line(j)));
                    }
                    j += 1;
                }
                return out;
            }
        }
        out
    }

    /// Find the body range (code-indices of `{`..`}`) of `fn <name>`,
    /// optionally restricted to a code-index window.
    pub fn fn_body(&self, name: &str, window: Option<(usize, usize)>) -> Option<(usize, usize)> {
        let (lo, hi) = window.unwrap_or((0, self.len()));
        for ci in lo..hi.min(self.len()).saturating_sub(1) {
            if self.is_ident(ci, "fn") && self.is_ident(ci + 1, name) {
                let open = (ci + 2..self.len()).find(|&j| self.is_punct(j, '{'))?;
                return Some((open, self.matching_brace(open)));
            }
        }
        None
    }

    /// Find the code-index range of `impl <name> { … }` (inherent impl)
    /// as (open brace, close brace).
    pub fn impl_body(&self, name: &str) -> Option<(usize, usize)> {
        for ci in 0..self.len().saturating_sub(2) {
            if self.is_ident(ci, "impl")
                && self.is_ident(ci + 1, name)
                && self.is_punct(ci + 2, '{')
            {
                return Some((ci + 2, self.matching_brace(ci + 2)));
            }
        }
        None
    }

    /// Whether the code-token sequence `first :: second` (a path like
    /// `Request::Load`) occurs anywhere in the file.
    pub fn has_path(&self, first: &str, second: &str) -> bool {
        (0..self.len().saturating_sub(3)).any(|ci| {
            self.is_ident(ci, first)
                && self.is_punct(ci + 1, ':')
                && self.is_punct(ci + 2, ':')
                && self.is_ident(ci + 3, second)
        })
    }

    /// Decode the string value of the `Str` token at code-index `ci`:
    /// strips the quote/raw-prefix and resolves simple escapes.
    pub fn str_value(&self, ci: usize) -> String {
        let raw = self.text(ci);
        let inner = match raw.find('"') {
            Some(q) => &raw[q + 1..raw.rfind('"').unwrap_or(raw.len())],
            None => raw,
        };
        if raw.starts_with('r') || raw.starts_with("br") {
            return inner.to_string();
        }
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some(other) => {
                        if let Some(o) = Some(other).filter(|&o| o == '"' || o == '\\' || o == '\'')
                        {
                            out.push(o);
                        }
                    }
                    None => {}
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    fn find_cfg_test(&self) -> Option<usize> {
        let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
        (0..self.len().saturating_sub(pat.len() - 1)).find(|&ci| {
            pat.iter().enumerate().all(|(k, w)| {
                let t = self.text(ci + k);
                t == *w
            })
        })
    }
}

/// Load a [`FileModel`] for an on-disk file, with `path` stored
/// repo-relative.
pub fn load_file(root: &Path, rel: &Path) -> std::io::Result<FileModel> {
    let src = std::fs::read_to_string(root.join(rel))?;
    Ok(FileModel::new(rel.to_path_buf(), src))
}

/// Collect every `.rs` file under `root` (repo-relative paths), skipping
/// `target/` and hidden directories.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files
        .into_iter()
        .map(|f| f.strip_prefix(root).map(Path::to_path_buf).unwrap_or(f))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::new(PathBuf::from("crates/x/src/lib.rs"), src.to_string())
    }

    #[test]
    fn annotation_comment_only_and_adjacency() {
        let m = model("let a = 1; // lint: checked-cast - fits\nlet b = 2;\n");
        assert!(m.annotated(1, "lint: checked-cast"));
        assert!(!m.annotated(2, "lint: checked-cast"));
        let above = model("// lint: allow-panic - key present\nlet v = m.get(&k);\n");
        assert!(above.annotated(2, "lint: allow-panic"));
        let gap = model("// lint: allow-panic - stale\n\nlet v = 1;\n");
        assert!(!gap.annotated(3, "lint: allow-panic"));
    }

    #[test]
    fn marker_inside_string_literal_is_not_an_annotation() {
        let m = model("let s = \"lint: allow-panic\"; let v = o.unwrap();\n");
        assert!(!m.annotated(1, "lint: allow-panic"));
    }

    #[test]
    fn receiver_path_walks_dotted_chains() {
        let m = model("self.inner.queue.lock();\n");
        let dot = (0..m.len()).rev().find(|&ci| m.is_punct(ci, '.')).unwrap_or(0);
        assert_eq!(m.receiver_path(dot), vec!["self", "inner", "queue"]);
        let call = model("helper().lock();\n");
        let dot = (0..call.len()).rev().find(|&ci| call.is_punct(ci, '.')).unwrap_or(0);
        assert!(call.receiver_path(dot).is_empty());
    }

    #[test]
    fn enum_variants_and_paths() {
        let m = model("pub enum Request { Load { id: u64 }, Spmm(Vec<f32>), Ping, }\n");
        let names: Vec<String> = m.enum_variants("Request").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Load", "Spmm", "Ping"]);
        let u = model("match r { Request::Load { .. } => {} }\n");
        assert!(u.has_path("Request", "Load"));
        assert!(!u.has_path("Request", "Ping"));
    }

    #[test]
    fn cfg_test_boundary() {
        let m = model("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n");
        let ts = m.test_start.expect("has test module");
        let lib_pos = (0..m.len()).find(|&ci| m.is_ident(ci, "lib")).expect("lib");
        assert!(!m.in_tests(lib_pos));
        let t_pos = (0..m.len()).find(|&ci| m.is_ident(ci, "t")).expect("t");
        assert!(m.in_tests(t_pos));
        assert!(ts <= t_pos);
    }

    #[test]
    fn str_value_decodes_escapes_and_raw() {
        let m = model("let a = \"site=\\\"serve.queue\\\"\"; let b = r#\"x \"# ;\n");
        let strs: Vec<String> = (0..m.len())
            .filter(|&ci| m.kind(ci) == crate::lexer::TokKind::Str)
            .map(|ci| m.str_value(ci))
            .collect();
        assert_eq!(strs[0], "site=\"serve.queue\"");
        assert_eq!(strs[1], "x ");
    }
}
