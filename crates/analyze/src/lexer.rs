//! A token-level Rust lexer.
//!
//! This is the piece a line-based substring matcher is missing: it
//! classifies every byte of a source file as comment, string/char
//! literal, identifier, number, lifetime, punctuation, or whitespace, so
//! downstream rules can match on *code* tokens and never fire on a
//! pattern that only appears inside a doc comment or a string literal.
//!
//! The lexer is total: any input produces a token stream whose spans
//! exactly tile the input (`tests` and the `lexer_tile` proptest enforce
//! this). Unterminated strings or block comments simply run to end of
//! file — for a linter, graceful degradation beats rejection. It handles
//! the lexical constructs real Rust needs: nested block comments, escape
//! sequences, raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`,
//! `br#"…"#`), char literals vs. lifetimes (`'a'` vs. `'a`), and raw
//! identifiers (`r#match`).

/// Lexical class of a token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// A run of ASCII whitespace.
    Whitespace,
    /// `// …` to end of line (the trailing newline is whitespace).
    LineComment,
    /// `/* … */`, nesting-aware.
    BlockComment,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// A char or byte-char literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// An identifier or keyword (including raw identifiers).
    Ident,
    /// A numeric literal (integer or float, any base, with suffix).
    Number,
    /// A single punctuation byte (`.`, `{`, `=`, …).
    Punct,
}

/// One lexed token: a half-open byte span `[start, end)` plus the
/// 1-based line its first byte sits on.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into a token stream whose spans exactly tile the input.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Vec::with_capacity(n / 4 + 8);
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < n {
        let start = i;
        let start_line = line;
        let kind = match b[i] {
            c if c.is_ascii_whitespace() => {
                while i < n && b[i].is_ascii_whitespace() {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                TokKind::Whitespace
            }
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                TokKind::LineComment
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                i += 2;
                let mut depth = 1usize;
                while i < n && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::BlockComment
            }
            b'"' => {
                i = scan_quoted(b, i, &mut line);
                TokKind::Str
            }
            b'r' | b'b' => {
                // Maybe a raw/byte string or byte char; else an identifier.
                if let Some((end, kind)) = scan_prefixed_literal(b, i, &mut line) {
                    i = end;
                    kind
                } else {
                    while i < n && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    TokKind::Ident
                }
            }
            b'\'' => {
                let (end, kind) = scan_quote_or_lifetime(b, i, &mut line);
                i = end;
                kind
            }
            c if is_ident_start(c) => {
                while i < n && is_ident_cont(b[i]) {
                    i += 1;
                }
                TokKind::Ident
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < n && (is_ident_cont(b[i])) {
                    i += 1;
                }
                // A fractional part: `.` followed by a digit (so `0..n`
                // and tuple indexing stay two separate tokens).
                if i + 1 < n && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < n && is_ident_cont(b[i]) {
                        i += 1;
                    }
                }
                TokKind::Number
            }
            _ => {
                i += 1;
                TokKind::Punct
            }
        };
        debug_assert!(i > start, "lexer must always make progress");
        out.push(Token { kind, start, end: i, line: start_line });
    }
    out
}

/// Scan a `"…"` string starting at the opening quote; returns the byte
/// index just past the closing quote (or EOF).
fn scan_quoted(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    i += 1; // opening quote
    while i < n {
        match b[i] {
            b'\\' if i + 1 < n => {
                if b[i + 1] == b'\n' {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    n
}

/// Scan a raw string `r#*"…"#*`, byte string `b"…"` / `br#*"…"#*`, byte
/// char `b'…'`, or raw identifier `r#ident` starting at the `r`/`b`
/// prefix. Returns `None` when the prefix is just the start of a plain
/// identifier.
fn scan_prefixed_literal(b: &[u8], start: usize, line: &mut u32) -> Option<(usize, TokKind)> {
    let n = b.len();
    let mut i = start + 1;
    let mut raw = b[start] == b'r';
    if b[start] == b'b' && i < n {
        match b[i] {
            b'r' => {
                raw = true;
                i += 1;
            }
            b'\'' => {
                // Byte char `b'x'`: reuse the char scanner from the quote.
                let (end, _) = scan_quote_or_lifetime(b, i, line);
                return Some((end, TokKind::Char));
            }
            b'"' => return Some((scan_quoted(b, i, line), TokKind::Str)),
            _ => return None,
        }
    }
    if !raw {
        return None;
    }
    let mut hashes = 0usize;
    while i < n && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || b[i] != b'"' {
        if hashes == 1 && i < n && is_ident_start(b[i]) {
            // Raw identifier `r#match`.
            while i < n && is_ident_cont(b[i]) {
                i += 1;
            }
            return Some((i, TokKind::Ident));
        }
        return None;
    }
    i += 1; // opening quote
    while i < n {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && seen < hashes && b[j] == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some((j, TokKind::Str));
            }
        }
        i += 1;
    }
    Some((n, TokKind::Str))
}

/// Disambiguate `'` at `start`: a char literal (`'a'`, `'\n'`) or a
/// lifetime (`'a`, `'static`, `'_`). Returns (end, kind).
fn scan_quote_or_lifetime(b: &[u8], start: usize, line: &mut u32) -> (usize, TokKind) {
    let n = b.len();
    let i = start + 1;
    if i >= n {
        return (n, TokKind::Punct);
    }
    if b[i] == b'\\' {
        // Escaped char literal: scan to the closing quote.
        let mut j = i;
        while j < n {
            match b[j] {
                b'\\' if j + 1 < n => j += 2,
                b'\'' => return (j + 1, TokKind::Char),
                b'\n' => {
                    *line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        return (n, TokKind::Char);
    }
    // Unescaped: `'X'` is a char literal; `'ident` is a lifetime. X may
    // be multi-byte UTF-8.
    let ch_len = utf8_len(b[i]);
    let after = i + ch_len;
    if after < n && b[after] == b'\'' && b[i] != b'\'' {
        if b[i] == b'\n' {
            *line += 1;
        }
        return (after + 1, TokKind::Char);
    }
    if is_ident_start(b[i]) {
        let mut j = i;
        while j < n && is_ident_cont(b[j]) {
            j += 1;
        }
        return (j, TokKind::Lifetime);
    }
    (i, TokKind::Punct)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, &src[t.start..t.end])).collect()
    }

    fn code_texts(src: &str) -> Vec<&str> {
        lex(src)
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|t| &src[t.start..t.end])
            .collect()
    }

    fn assert_tiles(src: &str) {
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap or overlap at byte {pos} in {src:?}");
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "tokens must cover the whole input");
    }

    #[test]
    fn tiles_basic_constructs() {
        for src in [
            "",
            "fn main() {}\n",
            "let s = \"a \\\" quoted\"; // trailing\n",
            "/* block /* nested */ still */ let x = 1;\n",
            "let r = r#\"raw \" inside\"#;\n",
            "let b = b\"bytes\"; let c = b'x'; let d = 'y'; let lt: &'static str = \"\";\n",
            "let e = '\\n'; let f = '\\u{1F600}'; let g = '\\'';\n",
            "let n = 0x1F_u32 + 1.5e3 + 2.0f64; let t = x.0; for i in 0..n {}\n",
            "let raw_id = r#match; let uni = 'é';\n",
            "\"unterminated",
            "/* unterminated",
            "r#\"unterminated",
        ] {
            assert_tiles(src);
        }
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = "// .unwrap() as u32 unsafe\nlet s = \".unwrap() todo!(\";\n/// doc as u16\n";
        let code = code_texts(src);
        assert!(!code.contains(&"unwrap"), "{code:?}");
        assert!(!code.contains(&"unsafe"));
        assert!(!code.contains(&"u32"));
        // The string literal is one opaque token.
        assert!(code.iter().any(|t| t.starts_with('"')));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "let a: &'a str = x; let c = 'a'; let s = 'static_lt;\n";
        let k = kinds(src);
        let lifetimes: Vec<&str> =
            k.iter().filter(|(kk, _)| *kk == TokKind::Lifetime).map(|&(_, t)| t).collect();
        let chars: Vec<&str> =
            k.iter().filter(|(kk, _)| *kk == TokKind::Char).map(|&(_, t)| t).collect();
        assert_eq!(lifetimes, vec!["'a", "'static_lt"]);
        assert_eq!(chars, vec!["'a'"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\n/* c\nc */ b\n";
        let toks = lex(src);
        let find = |txt: &str| toks.iter().find(|t| &src[t.start..t.end] == txt).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("\"two\nline\""), Some(2));
        assert_eq!(find("b"), Some(5));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let x = r##\"has \"# inside\"##; y\n";
        let k = kinds(src);
        assert!(k.iter().any(|&(kk, t)| kk == TokKind::Str && t == "r##\"has \"# inside\"##"));
        assert!(k.iter().any(|&(kk, t)| kk == TokKind::Ident && t == "y"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let src = "for i in 0..10 { let f = 1.25; let t = p.1; }\n";
        let texts: Vec<&str> = code_texts(src);
        assert!(texts.contains(&"0"));
        assert!(texts.contains(&"10"));
        assert!(texts.contains(&"1.25"));
    }
}
