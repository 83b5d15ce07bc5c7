//! Workspace loading and the combined analysis run.

use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::lint::{classify, lint_model};
use crate::model::{collect_rs_files, FileModel};
use crate::{atomics, counters, locks, protocol, tracecheck};

/// Every input the analyzer looks at: the lexed `.rs` files plus raw
/// companion texts (DESIGN.md, ci.sh) that participate in the
/// cross-file checks.
pub struct Workspace {
    pub files: Vec<FileModel>,
    pub texts: Vec<(PathBuf, String)>,
}

/// Paths (substring match) whose lock/atomic patterns are not analyzed:
/// vendored shims wrap foreign APIs (their generic `self.0.lock()` has
/// no workspace-level lock identity).
const CONCURRENCY_EXEMPT: &[&str] = &["crates/shims/"];

impl Workspace {
    /// Build a workspace from in-memory sources — the fixture-test entry
    /// point. Analyses locate their targets by path suffix, so a fixture
    /// only needs the files its checks consume.
    pub fn from_sources(
        sources: Vec<(PathBuf, String)>,
        texts: Vec<(PathBuf, String)>,
    ) -> Workspace {
        let files = sources.into_iter().map(|(p, s)| FileModel::new(p, s)).collect();
        Workspace { files, texts }
    }

    /// Load the real tree under `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in collect_rs_files(root)? {
            let src = std::fs::read_to_string(root.join(&rel))?;
            let rel = PathBuf::from(rel.to_string_lossy().replace('\\', "/"));
            files.push(FileModel::new(rel, src));
        }
        let mut texts = Vec::new();
        for name in ["DESIGN.md", "ci.sh", "README.md", "EXPERIMENTS.md"] {
            if let Ok(t) = std::fs::read_to_string(root.join(name)) {
                texts.push((PathBuf::from(name), t));
            }
        }
        Ok(Workspace { files, texts })
    }

    /// Find a file model by forward-slash path suffix.
    pub fn find(&self, suffix: &str) -> Option<&FileModel> {
        self.files.iter().find(|m| m.path.to_string_lossy().ends_with(suffix))
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.texts.iter().find(|(p, _)| p.to_string_lossy() == name).map(|(_, t)| t.as_str())
    }

    /// Run the five migrated lint rules plus the five workspace analyses
    /// and return all findings, sorted by file then line then rule.
    pub fn run_all(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // Per-file lint rules.
        for m in &self.files {
            out.extend(lint_model(m, classify(&m.path)));
        }

        let concurrency_files: Vec<&FileModel> = self
            .files
            .iter()
            .filter(|m| {
                let p = m.path.to_string_lossy();
                !CONCURRENCY_EXEMPT.iter().any(|e| p.contains(e))
            })
            .collect();

        // (1) lock-order graph.
        out.extend(locks::analyze(&concurrency_files));

        // (2) atomic-ordering audit.
        for m in &concurrency_files {
            out.extend(atomics::analyze_file(m));
        }

        // (3) protocol exhaustiveness.
        out.extend(protocol::analyze(&protocol::ProtocolInputs {
            protocol: self.find("serve/src/protocol.rs"),
            server: self.find("serve/src/server.rs"),
            router: self.find("cluster/src/router.rs"),
            client: self.find("serve/src/client.rs"),
            design_md: self.text("DESIGN.md"),
        }));

        // (4) trace-site consistency: scan every rust file and companion
        // text for site="…" references. The analyzer's own sources are
        // excluded — its fixtures necessarily spell unregistered names.
        let mut refs: Vec<(&Path, &str)> = Vec::new();
        for m in &self.files {
            if m.path.to_string_lossy().contains("crates/analyze/") {
                continue;
            }
            refs.push((m.path.as_path(), m.src.as_str()));
        }
        for (p, t) in &self.texts {
            refs.push((p.as_path(), t.as_str()));
        }
        out.extend(tracecheck::analyze(&tracecheck::TraceInputs {
            site_rs: self.find("trace/src/site.rs"),
            export_rs: self.find("trace/src/export.rs"),
            reference_texts: &refs,
        }));

        // (5) counter parity.
        let fast_path: Vec<&FileModel> = ["core/src/fast.rs", "tcu/src/analytic.rs"]
            .iter()
            .filter_map(|s| self.find(s))
            .collect();
        out.extend(counters::analyze(&counters::CounterInputs {
            counters_rs: self.find("tcu/src/counters.rs"),
            fast_path,
        }));

        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_lookup_and_shim_exemption() {
        let ws = Workspace::from_sources(
            vec![
                (PathBuf::from("crates/serve/src/protocol.rs"), "fn a() {}".into()),
                (
                    PathBuf::from("crates/shims/parking_lot/src/lib.rs"),
                    // Nested self.0 locks in the shim must not form edges.
                    "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                     fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n"
                        .into(),
                ),
            ],
            vec![],
        );
        assert!(ws.find("serve/src/protocol.rs").is_some());
        assert!(ws.find("no/such/file.rs").is_none());
        assert!(ws.run_all().is_empty(), "{:?}", ws.run_all());
    }
}
