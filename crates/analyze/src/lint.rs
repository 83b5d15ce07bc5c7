//! The five repo lint rules, on the token lexer.
//!
//! Matching happens on code tokens, so patterns inside string literals
//! and (doc) comments cannot fire. `analyze check` runs them over every
//! file (`Workspace::run_all`).
//!
//! 1. **checked-cast** — truncating `as u32` / `as u16` casts in kernel
//!    modules (`crates/tcu`, `crates/core`). Address and index
//!    arithmetic there feeds the transaction simulator; a silent 32-bit
//!    truncation produces wrong-but-plausible traffic counts. Every such
//!    cast must carry a `// lint: checked-cast` note arguing why it
//!    cannot truncate.
//! 2. **allow-panic** — `.unwrap()` / `.expect(…)` in library crates.
//!    Allowed in tests, benches, examples, and the `fs-bench` harness;
//!    elsewhere each use needs a `// lint: allow-panic` justification.
//! 3. **no-unsafe** — `unsafe` anywhere outside the (currently empty)
//!    allowlist. The simulator is pure safe Rust; keep it that way.
//! 4. **no-todo** — `todo!` / `unimplemented!` anywhere, tests included.
//! 5. **counted-catch** — `catch_unwind` in library code. A swallowed
//!    panic is how injected faults (fs-chaos worker kills) or real bugs
//!    turn into silent corruption; every unwind boundary must carry a
//!    `// lint: counted-catch` note saying where the panic is counted
//!    and surfaced. Vendored shims under `crates/shims/` are exempt.

use std::path::Path;

use crate::diag::{Diagnostic, Severity};
use crate::model::FileModel;

/// How a file is classified, deciding which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Kernel/simulator library code: all five rules.
    KernelLib,
    /// Other library code: panic, unsafe, todo, and counted-catch rules.
    Lib,
    /// Tests, benches, examples, and the bench harness: only unsafe and
    /// todo rules.
    TestOrBench,
}

/// Classify a repo-relative path.
pub fn classify(path: &Path) -> FileClass {
    let p = path.to_string_lossy().replace('\\', "/");
    let is_test_like = p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.starts_with("tests/")
        || p.contains("crates/bench/");
    if is_test_like {
        return FileClass::TestOrBench;
    }
    if p.contains("crates/tcu/src/") || p.contains("crates/core/src/") {
        return FileClass::KernelLib;
    }
    FileClass::Lib
}

/// Paths (substring match) where `unsafe` is tolerated. Currently empty:
/// the whole workspace is safe Rust.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Paths (substring match) exempt from the counted-catch rule: vendored
/// shims mirror external crates' APIs and own their panic handling.
pub const COUNTED_CATCH_EXEMPT: &[&str] = &["crates/shims/"];

/// Lint one file. `m.path` is used for diagnostics and the path-based
/// exemptions; classification is the caller's job so tests can exercise
/// any class on inline fixtures.
pub fn lint_model(m: &FileModel, class: FileClass) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let p = m.path.to_string_lossy().replace('\\', "/");
    let unsafe_allowed = UNSAFE_ALLOWLIST.iter().any(|allow| p.contains(allow));
    let catch_exempt = COUNTED_CATCH_EXEMPT.iter().any(|allow| p.contains(allow));
    let mut in_use_decl = false;
    for ci in 0..m.len() {
        if m.is_ident(ci, "use") {
            in_use_decl = true;
        } else if in_use_decl && m.is_punct(ci, ';') {
            in_use_decl = false;
        }
        if m.kind(ci) != crate::lexer::TokKind::Ident {
            continue;
        }
        let line = m.line(ci);
        let word = m.text(ci);
        let next_is = |k: usize, p: char| ci + k < m.len() && m.is_punct(ci + k, p);

        // no-todo: `todo!(` / `unimplemented!(` — everywhere, tests included.
        if (word == "todo" || word == "unimplemented") && next_is(1, '!') && next_is(2, '(') {
            out.push(Diagnostic::new(
                "no-todo",
                Severity::Error,
                &m.path,
                line,
                "todo!/unimplemented! must not be committed",
            ));
            continue;
        }

        // no-unsafe: the keyword anywhere outside the allowlist.
        if word == "unsafe" && !unsafe_allowed {
            out.push(Diagnostic::new(
                "no-unsafe",
                Severity::Error,
                &m.path,
                line,
                "unsafe code outside the allowlist",
            ));
            continue;
        }

        if m.in_tests(ci) || class == FileClass::TestOrBench {
            continue;
        }

        // checked-cast: `as u32` / `as u16` in kernel modules.
        if class == FileClass::KernelLib
            && word == "as"
            && ci + 1 < m.len()
            && (m.is_ident(ci + 1, "u32") || m.is_ident(ci + 1, "u16"))
            && !m.annotated(line, "lint: checked-cast")
        {
            out.push(Diagnostic::new(
                "checked-cast",
                Severity::Error,
                &m.path,
                line,
                "truncating cast in kernel code needs a `// lint: checked-cast` justification",
            ));
            continue;
        }

        // allow-panic: `.unwrap()` / `.expect(` in library code.
        if (word == "unwrap" || word == "expect")
            && ci >= 1
            && m.is_punct(ci - 1, '.')
            && next_is(1, '(')
            && (word == "expect" || next_is(2, ')'))
            && !m.annotated(line, "lint: allow-panic")
        {
            out.push(Diagnostic::new(
                "allow-panic",
                Severity::Error,
                &m.path,
                line,
                "unwrap/expect in library code needs a `// lint: allow-panic` justification",
            ));
            continue;
        }

        // counted-catch: a `catch_unwind` call (not its import).
        if word == "catch_unwind"
            && !catch_exempt
            && !in_use_decl
            && !m.annotated(line, "lint: counted-catch")
        {
            out.push(Diagnostic::new(
                "counted-catch",
                Severity::Error,
                &m.path,
                line,
                "catch_unwind in library code needs a `// lint: counted-catch` note saying \
                 where the panic is counted and surfaced",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_fixture(path: &str, src: &str, class: FileClass) -> Vec<Diagnostic> {
        lint_model(&FileModel::new(path.into(), src.to_string()), class)
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(classify(Path::new("crates/tcu/src/mma.rs")), FileClass::KernelLib);
        assert_eq!(classify(Path::new("crates/core/src/spmm.rs")), FileClass::KernelLib);
        assert_eq!(classify(Path::new("crates/format/src/mebcrs.rs")), FileClass::Lib);
        assert_eq!(classify(Path::new("crates/serve/src/engine.rs")), FileClass::Lib);
        assert_eq!(classify(Path::new("crates/serve/src/bin/fs_serve.rs")), FileClass::Lib);
        assert_eq!(classify(Path::new("crates/serve/tests/e2e.rs")), FileClass::TestOrBench);
        assert_eq!(classify(Path::new("crates/bench/src/algos.rs")), FileClass::TestOrBench);
        assert_eq!(classify(Path::new("crates/analyze/src/lint.rs")), FileClass::Lib);
        assert_eq!(classify(Path::new("examples/quickstart.rs")), FileClass::TestOrBench);
    }

    #[test]
    fn unannotated_truncating_cast_in_kernel_flagged() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        let d = lint_fixture("crates/tcu/src/x.rs", src, FileClass::KernelLib);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "checked-cast");
        assert_eq!(d[0].line, 1);
        let u16src = "fn g(x: usize) -> u16 { x as u16 }\n";
        assert_eq!(lint_fixture("crates/tcu/src/x.rs", u16src, FileClass::KernelLib).len(), 1);
        let other = "let a = x as u64;\nlet b = y as usize;\nlet c = z as u8;\n";
        assert!(lint_fixture("crates/tcu/src/x.rs", other, FileClass::KernelLib).is_empty());
        let non_kernel = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert!(lint_fixture("crates/matrix/src/x.rs", non_kernel, FileClass::Lib).is_empty());
    }

    #[test]
    fn annotations_on_line_or_preceding_comment() {
        let src = "let w = idx as u32; // lint: checked-cast - window count < 2^32\n";
        assert!(lint_fixture("crates/tcu/src/x.rs", src, FileClass::KernelLib).is_empty());
        let above = "// lint: checked-cast - element size is 2 or 4\nlet w = idx as u32;\n";
        assert!(lint_fixture("crates/tcu/src/x.rs", above, FileClass::KernelLib).is_empty());
        let gap = "// lint: checked-cast - stale\n\nlet w = idx as u32;\n";
        assert_eq!(lint_fixture("crates/tcu/src/x.rs", gap, FileClass::KernelLib).len(), 1);
    }

    #[test]
    fn unwrap_and_expect_in_lib_flagged() {
        let src = "let v = map.get(&k).unwrap();\n";
        let d = lint_fixture("crates/format/src/x.rs", src, FileClass::Lib);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "allow-panic");
        let ok = "let v = map.get(&k).unwrap(); // lint: allow-panic - key inserted above\n";
        assert!(lint_fixture("crates/format/src/x.rs", ok, FileClass::Lib).is_empty());
        let exp = "let v = opt.expect(\"invariant\");\n";
        assert_eq!(lint_fixture("crates/format/src/x.rs", exp, FileClass::Lib).len(), 1);
        let bench = "let v = m.iter().max().unwrap();\n";
        assert!(lint_fixture("crates/bench/src/x.rs", bench, FileClass::TestOrBench).is_empty());
        let with_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { x.unwrap(); }\n}\n";
        assert!(lint_fixture("crates/format/src/x.rs", with_tests, FileClass::Lib).is_empty());
    }

    #[test]
    fn unsafe_flagged_everywhere_todo_even_in_tests() {
        let src = "unsafe { *ptr }\n";
        for class in [FileClass::KernelLib, FileClass::Lib, FileClass::TestOrBench] {
            let d = lint_fixture("crates/gnn/src/x.rs", src, class);
            assert_eq!(d.len(), 1, "{class:?}");
            assert_eq!(d[0].rule, "no-unsafe");
        }
        let ident = "let not_unsafe_here = 1;\n";
        assert!(lint_fixture("crates/gnn/src/x.rs", ident, FileClass::Lib).is_empty());
        let todo = "#[cfg(test)]\nmod tests {\n  fn f() { todo!(\"later\") }\n}\n";
        let d = lint_fixture("crates/tcu/src/x.rs", todo, FileClass::KernelLib);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-todo");
        assert_eq!(d[0].line, 3);
        assert_eq!(
            lint_fixture("crates/tcu/src/x.rs", "unimplemented!()\n", FileClass::KernelLib).len(),
            1
        );
    }

    #[test]
    fn catch_unwind_rules() {
        let src = "let r = std::panic::catch_unwind(|| run());\n";
        let d = lint_fixture("crates/serve/src/x.rs", src, FileClass::Lib);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "counted-catch");
        let ok =
            "let r = catch_unwind(|| run()); // lint: counted-catch - panics counted in stats\n";
        assert!(lint_fixture("crates/serve/src/x.rs", ok, FileClass::Lib).is_empty());
        assert!(lint_fixture("crates/serve/tests/x.rs", src, FileClass::TestOrBench).is_empty());
        assert!(lint_fixture("crates/shims/proptest/src/lib.rs", src, FileClass::Lib).is_empty());
        let ident = "let my_catch_unwind_count = 1;\n";
        assert!(lint_fixture("crates/serve/src/x.rs", ident, FileClass::Lib).is_empty());
        let import = "use std::panic::{catch_unwind, AssertUnwindSafe};\n";
        assert!(lint_fixture("crates/serve/src/x.rs", import, FileClass::Lib).is_empty());
    }

    // The false-positive class the lexer kills: each of these makes a
    // substring matcher fire; the token rules stay silent.
    #[test]
    fn string_literals_and_doc_comments_cannot_fire() {
        let in_string = "let msg = \"call .unwrap() on the result\";\n";
        assert!(lint_fixture("crates/format/src/x.rs", in_string, FileClass::Lib).is_empty());
        let word = "let msg = \"an unsafe operation was rejected\";\n";
        assert!(lint_fixture("crates/gnn/src/x.rs", word, FileClass::Lib).is_empty());
        let in_doc = "/// Truncates with `x as u32` semantics.\nfn f() {}\n";
        assert!(lint_fixture("crates/tcu/src/x.rs", in_doc, FileClass::KernelLib).is_empty());
        let in_comment = "// unsafe would be wrong here; todo!() too\nfn f() {}\n";
        assert!(lint_fixture("crates/gnn/src/x.rs", in_comment, FileClass::Lib).is_empty());
        let raw = "let r = r#\"std::panic::catch_unwind(|| x as u16)\"#;\n";
        assert!(lint_fixture("crates/tcu/src/x.rs", raw, FileClass::KernelLib).is_empty());
        // And the marker no longer counts when spelled inside a string.
        let fake = "let s = \"lint: allow-panic\"; let v = o.unwrap();\n";
        assert_eq!(lint_fixture("crates/format/src/x.rs", fake, FileClass::Lib).len(), 1);
    }

    #[test]
    fn diagnostics_format_as_file_line_rule() {
        let d = lint_fixture(
            "crates/tcu/src/x.rs",
            "fn f(x: usize) -> u32 { x as u32 }\n",
            FileClass::KernelLib,
        );
        let s = d[0].to_string();
        assert!(s.starts_with("crates/tcu/src/x.rs:1: [checked-cast]"), "{s}");
    }
}
