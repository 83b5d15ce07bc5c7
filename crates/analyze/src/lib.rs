//! fs-analyze: token-level static analysis for the FlashSparse workspace.
//!
//! Unlike a lint pass that substring-matches raw lines, everything here
//! is built on a real Rust lexer ([`lexer`]): comments, string literals, raw strings, and char literals are
//! tokenized exactly, so a banned pattern inside a doc comment or a
//! string can never fire a rule, and rules can reason about token
//! structure (`.unwrap()` as four tokens, not a substring).
//!
//! Two layers sit on top of the lexer:
//!
//! - [`model::FileModel`] — a per-file semantic view: code tokens with
//!   comments/tests stripped but line-mapped, `// lint: …` annotation
//!   lookup, receiver-path and brace-matching helpers.
//! - [`workspace::Workspace`] — the cross-file pass running five
//!   analyses: lock-order cycles ([`locks`]), atomic-ordering audit
//!   ([`atomics`]), protocol exhaustiveness ([`protocol`]), trace-site
//!   consistency ([`tracecheck`]) and counter parity ([`counters`]) —
//!   plus the five original lint rules re-implemented on tokens
//!   ([`lint`]).
//!
//! Findings are [`diag::Diagnostic`]s with machine-readable JSON export
//! (via `fs_trace::export::JsonWriter`) and a committed-baseline gate
//! ([`baseline`]) so CI fails on *new* findings and on *stale* baseline
//! entries, without pre-existing debt blocking unrelated changes.

pub mod atomics;
pub mod baseline;
pub mod counters;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod lint;
pub mod locks;
pub mod model;
pub mod protocol;
pub mod tracecheck;
pub mod workspace;
