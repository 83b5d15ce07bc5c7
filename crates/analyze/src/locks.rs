//! Lock-order deadlock detection.
//!
//! Builds the directed graph of *nested* lock acquisitions across the
//! workspace — an edge `A → B` means some code path acquires `B` while
//! holding `A` — and reports every cycle as a potential deadlock, citing
//! each edge's acquisition chain by file:line.
//!
//! ## Model
//!
//! An acquisition is a no-argument `.lock()` / `.read()` / `.write()`
//! call (std / parking_lot-shim style), or a call to a *guard helper*: a
//! file-local `fn … -> …Guard` such as fs-serve's `lock_recover(&m)` or
//! fs-trace's `lock_events(r)`. Helpers whose body locks their own
//! parameter resolve the lock name from the call-site argument;
//! otherwise from the field path locked in the body. The lock's name is
//! the last identifier of the receiver path (`self.inner.queue.lock()` →
//! `queue`), which is how this codebase names its mutexes uniquely.
//!
//! Guard lifetimes are tracked lexically: a `let`-bound guard lives to
//! the end of its enclosing brace scope or an explicit `drop(var)`; an
//! unbound temporary lives to the end of its statement — unless the
//! statement opens a block first (`if let Some(x) = m.lock().take() {…}`),
//! in which case it extends to the matching `}`, mirroring Rust 2021
//! temporary-scope extension.
//!
//! ## Limitations (documented, by design)
//!
//! Calls are not followed interprocedurally — a function that locks `A`
//! and then calls a function that locks `B` only produces an edge if the
//! nesting is lexically visible in one function. Locks are keyed by
//! field name workspace-wide. Test modules and the vendored shims are
//! skipped. An intentionally nested acquisition can be excluded from the
//! graph with `// lint: lock-order-ok <reason>` on the inner call.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::model::FileModel;

/// One acquisition site.
#[derive(Clone, Debug)]
pub struct LockSite {
    pub lock: String,
    pub file: PathBuf,
    pub line: u32,
}

/// `outer` was held when `inner` was acquired.
#[derive(Clone, Debug)]
pub struct LockEdge {
    pub outer: LockSite,
    pub inner: LockSite,
}

#[derive(Clone, Copy, PartialEq)]
enum Bind {
    /// Dies when the brace scope it was created in closes (depth value =
    /// brace depth at creation).
    Block(u32),
    /// Dies at the end of the current statement.
    Stmt,
}

struct Guard {
    lock: String,
    line: u32,
    var: Option<String>,
    bind: Bind,
}

enum HelperKind {
    /// `fn helper(m: &Mutex<T>) -> Guard`: lock name comes from the
    /// call-site argument path.
    ArgResolve,
    /// `fn helper(r: &X) -> Guard { r.field.lock() … }`: every call
    /// acquires the fixed `field`.
    Fixed(String),
}

/// Extract the nested-acquisition edges of one file.
pub fn file_edges(m: &FileModel) -> Vec<LockEdge> {
    scan_file(m).1
}

/// Every acquisition the pass recognises in one file, nested or not —
/// what a test asks to make sure a refactor has not moved a lock's
/// callers out of sight of its file-local guard helper.
pub fn file_sites(m: &FileModel) -> Vec<LockSite> {
    scan_file(m).0
}

fn scan_file(m: &FileModel) -> (Vec<LockSite>, Vec<LockEdge>) {
    let limit = m.test_start.unwrap_or(m.len());
    let helpers = find_guard_helpers(m, limit);
    let mut sites = Vec::new();
    let mut edges = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut brace: u32 = 0;
    let mut paren: i32 = 0;
    // (pattern var, seen `=`, scrutinee position: `if let` / `while let`,
    // whose temporaries live only as long as the block they guard).
    let mut pending_let: Option<(Option<String>, bool, bool)> = None;

    let mut ci = 0usize;
    while ci < limit {
        // Skip helper bodies: their parameter-typed acquisition would
        // register under the parameter's name, not a real lock.
        if let Some(&(_, body_end)) = helpers.ranges.iter().find(|&&(s, _)| s == ci) {
            ci = body_end + 1;
            continue;
        }
        if m.is_punct(ci, '{') {
            brace += 1;
            // A temporary acquired in this statement's head lives to the
            // end of the block it opens (if-let scrutinee extension).
            for g in &mut guards {
                if g.bind == Bind::Stmt {
                    g.bind = Bind::Block(brace);
                }
            }
        } else if m.is_punct(ci, '}') {
            guards.retain(|g| match g.bind {
                Bind::Block(d) => d < brace,
                Bind::Stmt => false,
            });
            brace = brace.saturating_sub(1);
            pending_let = None;
        } else if m.is_punct(ci, '(') {
            paren += 1;
        } else if m.is_punct(ci, ')') {
            paren -= 1;
        } else if m.is_punct(ci, ';') && paren <= 0 {
            guards.retain(|g| g.bind != Bind::Stmt);
            pending_let = None;
        } else if m.is_ident(ci, "let") {
            let scrutinee = ci > 0 && (m.is_ident(ci - 1, "if") || m.is_ident(ci - 1, "while"));
            pending_let = Some((None, false, scrutinee));
        } else if m.is_ident(ci, "drop")
            && ci + 3 < m.len()
            && m.is_punct(ci + 1, '(')
            && m.kind(ci + 2) == TokKind::Ident
            && m.is_punct(ci + 3, ')')
        {
            let var = m.text(ci + 2);
            guards.retain(|g| g.var.as_deref() != Some(var));
        } else if let Some((var, seen_eq, _)) = &mut pending_let {
            // Fill in the pattern variable and watch for the `=`.
            if !*seen_eq {
                if m.kind(ci) == TokKind::Ident
                    && var.is_none()
                    && !m.is_ident(ci, "mut")
                    && !m.text(ci).starts_with(char::is_uppercase)
                {
                    *var = Some(m.text(ci).to_string());
                }
                if m.is_punct(ci, '=')
                    && !(ci + 1 < m.len() && (m.is_punct(ci + 1, '=') || m.is_punct(ci + 1, '>')))
                {
                    *seen_eq = true;
                }
            }
        }

        if let Some(acq) = acquisition_at(m, ci, &helpers) {
            let line = m.line(ci);
            let site = LockSite { lock: acq.clone(), file: m.path.clone(), line };
            let annotated = m.annotated(line, "lint: lock-order-ok");
            if !annotated {
                for g in &guards {
                    edges.push(LockEdge {
                        outer: LockSite {
                            lock: g.lock.clone(),
                            file: m.path.clone(),
                            line: g.line,
                        },
                        inner: site.clone(),
                    });
                }
            }
            sites.push(site);
            // A `let`-bound guard lives to the end of the enclosing brace
            // scope; an `if let`/`while let` scrutinee or unbound
            // temporary starts statement-bound (and extends into the
            // block it opens, if any).
            let (var, bind) = match pending_let {
                Some((ref v, true, false)) => (v.clone(), Bind::Block(brace)),
                Some((ref v, true, true)) => (v.clone(), Bind::Stmt),
                _ => (None, Bind::Stmt),
            };
            guards.push(Guard { lock: acq, line, var, bind });
        }
        ci += 1;
    }
    (sites, edges)
}

struct Helpers {
    by_name: HashMap<String, HelperKind>,
    /// Code-index ranges (body open brace → close brace) to skip.
    ranges: Vec<(usize, usize)>,
}

/// A no-argument `.lock()` / `.read()` / `.write()` at `ci`, or a call
/// to a known guard helper; returns the lock name.
fn acquisition_at(m: &FileModel, ci: usize, helpers: &Helpers) -> Option<String> {
    if m.kind(ci) != TokKind::Ident {
        return None;
    }
    let word = m.text(ci);
    // Direct method acquisition.
    if matches!(word, "lock" | "read" | "write")
        && ci >= 1
        && m.is_punct(ci - 1, '.')
        && ci + 2 < m.len()
        && m.is_punct(ci + 1, '(')
        && m.is_punct(ci + 2, ')')
    {
        let path = m.receiver_path(ci - 1);
        let name = path.last()?;
        if name.chars().all(|c| c.is_ascii_digit()) {
            return None; // tuple-field receiver: not a nameable lock
        }
        return Some((*name).to_string());
    }
    // Guard-helper call (not the definition, not a method).
    if ci + 1 < m.len()
        && m.is_punct(ci + 1, '(')
        && (ci == 0 || (!m.is_punct(ci - 1, '.') && !m.is_ident(ci - 1, "fn")))
    {
        match helpers.by_name.get(word) {
            Some(HelperKind::Fixed(name)) => return Some(name.clone()),
            Some(HelperKind::ArgResolve) => {
                // Last identifier of the first argument's path.
                let mut j = ci + 2;
                let mut depth = 1i32;
                let mut last: Option<String> = None;
                while j < m.len() && depth > 0 {
                    if m.is_punct(j, '(') {
                        depth += 1;
                    } else if m.is_punct(j, ')') {
                        depth -= 1;
                    } else if m.is_punct(j, ',') && depth == 1 {
                        break;
                    } else if depth == 1 && m.kind(j) == TokKind::Ident && !m.is_ident(j, "mut") {
                        last = Some(m.text(j).to_string());
                    }
                    j += 1;
                }
                return last.filter(|n| n != "self");
            }
            None => {}
        }
    }
    None
}

/// Detect file-local guard helpers: `fn name(…) -> …Guard…` whose body's
/// first acquisition decides how call sites resolve.
fn find_guard_helpers(m: &FileModel, limit: usize) -> Helpers {
    let mut by_name = HashMap::new();
    let mut ranges = Vec::new();
    let mut ci = 0usize;
    while ci + 1 < limit {
        if !m.is_ident(ci, "fn") {
            ci += 1;
            continue;
        }
        let name = ci + 1;
        if m.kind(name) != TokKind::Ident {
            ci += 1;
            continue;
        }
        // Parameter list: the `(` after the name, skipping generics.
        let mut j = name + 1;
        let mut angle = 0i32;
        while j < limit {
            if m.is_punct(j, '<') {
                angle += 1;
            } else if m.is_punct(j, '>') {
                angle -= 1;
            } else if m.is_punct(j, '(') && angle <= 0 {
                break;
            } else if m.is_punct(j, '{') || m.is_punct(j, ';') {
                break;
            }
            j += 1;
        }
        if j >= limit || !m.is_punct(j, '(') {
            ci = name;
            continue;
        }
        let params_open = j;
        let first_param = (params_open + 1..limit)
            .take_while(|&k| !m.is_punct(k, ')'))
            .find(|&k| {
                m.kind(k) == TokKind::Ident && !m.is_ident(k, "mut") && !m.is_ident(k, "self")
            })
            .map(|k| m.text(k).to_string());
        // Return type between `)`/`->` and the body `{`.
        let mut depth = 1i32;
        j = params_open + 1;
        while j < limit && depth > 0 {
            if m.is_punct(j, '(') {
                depth += 1;
            } else if m.is_punct(j, ')') {
                depth -= 1;
            }
            j += 1;
        }
        let mut returns_guard = false;
        let mut body_open = None;
        while j < limit {
            if m.is_punct(j, '{') {
                body_open = Some(j);
                break;
            }
            if m.is_punct(j, ';') {
                break;
            }
            if m.kind(j) == TokKind::Ident && m.text(j).contains("Guard") {
                returns_guard = true;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            ci = name + 1;
            continue;
        };
        let close = m.matching_brace(open);
        if returns_guard {
            // First direct acquisition inside the body.
            let acq = (open..close).find_map(|k| {
                let word = m.text(k);
                (matches!(word, "lock" | "read" | "write")
                    && k >= 1
                    && m.is_punct(k - 1, '.')
                    && k + 2 < m.len()
                    && m.is_punct(k + 1, '(')
                    && m.is_punct(k + 2, ')'))
                .then(|| m.receiver_path(k - 1))
            });
            if let Some(path) = acq {
                let kind = match (path.first(), path.last(), &first_param) {
                    (Some(&f), _, Some(p)) if path.len() == 1 && f == p.as_str() => {
                        HelperKind::ArgResolve
                    }
                    (_, Some(&lockname), _) if !lockname.is_empty() => {
                        HelperKind::Fixed(lockname.to_string())
                    }
                    _ => {
                        ci = close;
                        continue;
                    }
                };
                by_name.insert(m.text(name).to_string(), kind);
                ranges.push((open, close));
            }
        }
        ci = close.max(name + 1);
    }
    Helpers { by_name, ranges }
}

/// Run the analysis over a set of files and report deadlock cycles.
pub fn analyze(files: &[&FileModel]) -> Vec<Diagnostic> {
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for m in files {
        for e in file_edges(m) {
            edges.entry((e.outer.lock.clone(), e.inner.lock.clone())).or_insert(e);
        }
    }
    let mut out = Vec::new();
    // Self-edges: re-acquiring a non-reentrant mutex while holding it.
    for ((a, b), e) in &edges {
        if a == b {
            out.push(Diagnostic::new(
                "lock-order",
                Severity::Error,
                &e.inner.file,
                e.inner.line,
                format!(
                    "lock `{a}` acquired at {}:{} while already held (acquired at {}:{}): \
                     self-deadlock on a non-reentrant mutex",
                    e.inner.file.display(),
                    e.inner.line,
                    e.outer.file.display(),
                    e.outer.line
                ),
            ));
        }
    }
    // Multi-lock cycles: for each edge a→b, find a path b→…→a.
    let adj: BTreeMap<&String, Vec<&String>> =
        edges.keys().filter(|(a, b)| a != b).fold(BTreeMap::new(), |mut m, (a, b)| {
            m.entry(a).or_default().push(b);
            m
        });
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        if a == b {
            continue;
        }
        if let Some(path) = shortest_path(&adj, b, a) {
            // Full cycle: a → b → … → a (first node repeated at the end).
            let mut nodes: Vec<String> = vec![a.clone()];
            nodes.extend(path.iter().map(|s| (*s).clone()));
            let mut key: Vec<String> = nodes[..nodes.len() - 1].to_vec();
            key.sort();
            if !reported.insert(key) {
                continue;
            }
            let mut chain_parts = Vec::new();
            for w in nodes.windows(2) {
                if let Some(e) = edges.get(&(w[0].clone(), w[1].clone())) {
                    chain_parts.push(format!(
                        "{}:{} takes `{}` then {}:{} takes `{}`",
                        e.outer.file.display(),
                        e.outer.line,
                        e.outer.lock,
                        e.inner.file.display(),
                        e.inner.line,
                        e.inner.lock
                    ));
                }
            }
            let first = edges
                .get(&(a.clone(), nodes[1].clone()))
                .map(|e| (e.outer.file.clone(), e.outer.line))
                .unwrap_or_default();
            out.push(Diagnostic::new(
                "lock-order",
                Severity::Error,
                &first.0,
                first.1,
                format!(
                    "potential deadlock: lock-order cycle {}; {}",
                    nodes.join(" -> "),
                    chain_parts.join("; ")
                ),
            ));
        }
    }
    out
}

fn shortest_path<'a>(
    adj: &BTreeMap<&'a String, Vec<&'a String>>,
    from: &'a String,
    to: &'a String,
) -> Option<Vec<&'a String>> {
    use std::collections::VecDeque;
    let mut prev: HashMap<&String, &String> = HashMap::new();
    let mut q = VecDeque::new();
    q.push_back(from);
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    seen.insert(from);
    while let Some(n) = q.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, n);
                q.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::new(PathBuf::from(path), src.to_string())
    }

    fn edge_pairs(src: &str) -> Vec<(String, String)> {
        let m = model("crates/x/src/a.rs", src);
        file_edges(&m).into_iter().map(|e| (e.outer.lock, e.inner.lock)).collect()
    }

    #[test]
    fn nested_let_bound_guards_make_an_edge() {
        let src = "fn f(&self) {\n  let a = self.queue.lock();\n  let b = self.cache.lock();\n}\n";
        assert_eq!(edge_pairs(src), vec![("queue".to_string(), "cache".to_string())]);
    }

    #[test]
    fn block_scope_releases_guard() {
        let src =
            "fn f(&self) {\n  { let a = self.queue.lock(); }\n  let b = self.cache.lock();\n}\n";
        assert!(edge_pairs(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let src = "fn f(&self) {\n  let a = self.queue.lock();\n  drop(a);\n  let b = self.cache.lock();\n}\n";
        assert!(edge_pairs(src).is_empty());
    }

    #[test]
    fn unbound_temporary_dies_at_statement_end() {
        let src = "fn f(&self) {\n  self.queue.lock().push(1);\n  let b = self.cache.lock();\n}\n";
        assert!(edge_pairs(src).is_empty());
    }

    #[test]
    fn if_let_scrutinee_temporary_extends_into_block() {
        let src = "fn f(&self) {\n  if let Some(x) = self.cache.lock().take() {\n    let t = self.tenants.lock();\n  }\n}\n";
        assert_eq!(edge_pairs(src), vec![("cache".to_string(), "tenants".to_string())]);
    }

    #[test]
    fn lock_order_ok_annotation_suppresses_edge() {
        let src = "fn f(&self) {\n  let a = self.queue.lock();\n  let b = self.cache.lock(); // lint: lock-order-ok - queue is always outer\n}\n";
        assert!(edge_pairs(src).is_empty());
    }

    #[test]
    fn methods_with_arguments_are_not_acquisitions() {
        let src = "fn f(&self) {\n  let a = self.sock.write(buf);\n  let b = self.file.read(x);\n  let c = self.cache.lock();\n}\n";
        assert!(edge_pairs(src).is_empty());
    }

    #[test]
    fn guard_helpers_resolve_from_arg_or_body() {
        let src = "fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n\
                   fn lock_events(r: &Registry) -> MutexGuard<'_, Vec<u8>> {\n\
                   r.events.lock().unwrap_or_else(PoisonError::into_inner)\n}\n\
                   fn f(&self) {\n  let q = lock_recover(&self.inner.queue);\n  let e = lock_events(reg);\n}\n";
        assert_eq!(edge_pairs(src), vec![("queue".to_string(), "events".to_string())]);
    }

    #[test]
    fn sites_list_every_acquisition_and_miss_a_helper_defined_elsewhere() {
        let helper = "fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                      m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";
        let caller = "fn f(&self) {\n  let q = lock_recover(&self.queue);\n  self.cache.lock().clear();\n}\n";
        let names = |src: &str| -> Vec<String> {
            file_sites(&model("crates/x/src/a.rs", src)).into_iter().map(|s| s.lock).collect()
        };
        assert_eq!(names(&format!("{helper}{caller}")), vec!["queue", "cache"]);
        // Helpers resolve file-locally: without the definition beside it
        // the `queue` acquisition is invisible.
        assert_eq!(names(caller), vec!["cache"]);
    }

    #[test]
    fn two_mutex_cycle_reports_both_chains() {
        let src = "fn ab(&self) {\n  let a = self.alpha.lock();\n  let b = self.beta.lock();\n}\n\
                   fn ba(&self) {\n  let b = self.beta.lock();\n  let a = self.alpha.lock();\n}\n";
        let m = model("crates/serve/src/engine.rs", src);
        let diags = analyze(&[&m]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let msg = &diags[0].message;
        assert!(msg.contains("potential deadlock"), "{msg}");
        assert!(msg.contains("alpha") && msg.contains("beta"), "{msg}");
        // Both acquisition chains cited with file:line.
        assert!(msg.contains("engine.rs:2 takes `alpha` then"), "{msg}");
        assert!(msg.contains("engine.rs:6 takes `beta` then"), "{msg}");
    }

    #[test]
    fn self_edge_is_a_self_deadlock() {
        let src = "fn f(&self) {\n  let a = self.queue.lock();\n  let b = self.queue.lock();\n}\n";
        let m = model("crates/x/src/a.rs", src);
        let diags = analyze(&[&m]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("self-deadlock"), "{}", diags[0].message);
    }

    #[test]
    fn consistent_ordering_is_clean() {
        let src = "fn f1(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                   fn f2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n";
        let m = model("crates/x/src/a.rs", src);
        assert!(analyze(&[&m]).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t(&self) { let a = x.lock(); let b = y.lock(); }\n}\n";
        assert!(edge_pairs(src).is_empty());
    }
}
