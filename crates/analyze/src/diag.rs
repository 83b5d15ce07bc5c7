//! Diagnostic type shared by every rule, plus the machine-readable JSON
//! rendering consumed by the `ci.sh` gate (built on
//! [`fs_trace::export::JsonWriter`] so the repo keeps a single JSON
//! serializer).

use std::fmt;
use std::path::PathBuf;

use fs_trace::export::JsonWriter;

/// How serious a finding is. Both severities gate CI (the baseline file
/// decides what is accepted); the split is for readers and dashboards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but possibly intentional (annotation-requiring rules).
    Warning,
    /// A cross-file inconsistency or a potential deadlock.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, printed as `file:line: [rule] message` (the shape
/// editors jump to).
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

impl Diagnostic {
    /// Construct a finding with normalized (forward-slash) path.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        file: impl Into<PathBuf>,
        line: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        let file: PathBuf = file.into();
        let file = PathBuf::from(file.to_string_lossy().replace('\\', "/"));
        Diagnostic { file, line, rule, severity, message: message.into() }
    }

    /// The identity used for baseline matching: line numbers are
    /// excluded so accepted findings survive unrelated edits above them.
    pub fn baseline_key(&self) -> (String, String, String) {
        (self.rule.to_string(), self.file.to_string_lossy().into_owned(), self.message.clone())
    }
}

/// Render findings as the machine-readable JSON document the CI gate and
/// external tooling consume.
pub fn findings_to_json(findings: &[Diagnostic]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("version").value_u64(1);
    w.key("findings").begin_array();
    for d in findings {
        w.begin_object()
            .field_str("rule", d.rule)
            .field_str("severity", &d.severity.to_string())
            .field_str("file", &d.file.to_string_lossy())
            .field_u64("line", u64::from(d.line))
            .field_str("message", &d.message)
            .end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_editor_format() {
        let d =
            Diagnostic::new("lock-order", Severity::Error, "crates/serve/src/engine.rs", 42, "m");
        assert_eq!(d.to_string(), "crates/serve/src/engine.rs:42: [lock-order] m");
    }

    #[test]
    fn json_document_shape() {
        let d = vec![Diagnostic::new("atomic-ordering", Severity::Warning, "a.rs", 7, "x \"q\"")];
        let j = findings_to_json(&d);
        assert!(j.starts_with("{\"version\":1,\"findings\":[{"), "{j}");
        assert!(j.contains("\"rule\":\"atomic-ordering\""));
        assert!(j.contains("\"severity\":\"warning\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\\\"q\\\""), "message must be escaped: {j}");
        let empty = findings_to_json(&[]);
        assert_eq!(empty, "{\"version\":1,\"findings\":[]}");
    }
}
