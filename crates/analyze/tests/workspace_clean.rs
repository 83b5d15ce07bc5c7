//! The real tree passes its own analyzer, and the committed baseline is
//! empty and in sync — the regression tests for every annotation and
//! doc fix the analyses forced (`// lint: relaxed-ok` sites in
//! fs-trace/fs-chaos/fs-tcu, `// lint: fast-exempt` counter fields, the
//! `=> Reply` pairing in the `fs_serve::protocol` message table, and the
//! DESIGN.md §7 opcode table). Deleting any of them turns a finding back
//! on and fails here.

use std::path::Path;

use analyze::workspace::Workspace;
use analyze::{baseline, diag};

fn repo_root() -> &'static Path {
    // CARGO_MANIFEST_DIR = <repo>/crates/analyze → repo root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("repo root")
}

#[test]
fn workspace_has_no_findings() {
    let ws = Workspace::load(repo_root()).expect("load workspace");
    assert!(ws.files.len() > 100, "expected a real workspace, got {} files", ws.files.len());
    let findings = ws.run_all();
    assert!(
        findings.is_empty(),
        "workspace has analyzer findings:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// The lock-order pass resolves guard helpers such as fs-serve's
/// `lock_recover` file-locally, so a refactor that moves a lock's callers
/// into another file than the helper drops those acquisitions from the
/// graph while `check` stays green. Hold the pass to still seeing every
/// lock the serving engine takes.
#[test]
fn lock_pass_still_sees_the_serving_engines_locks() {
    let ws = Workspace::load(repo_root()).expect("load workspace");
    let seen: std::collections::BTreeSet<String> = ws
        .files
        .iter()
        .filter(|m| m.path.starts_with("crates/serve/src"))
        .flat_map(analyze::locks::file_sites)
        .map(|site| site.lock)
        .collect();
    for lock in ["queue", "cache", "tenants", "matrices", "breakers"] {
        assert!(
            seen.contains(lock),
            "no acquisition of fs-serve's `{lock}` lock recorded: {seen:?}"
        );
    }
}

#[test]
fn committed_baseline_is_empty_and_parses() {
    let text =
        std::fs::read_to_string(repo_root().join("analyze-baseline.json")).expect("baseline file");
    let entries = baseline::parse(&text).expect("baseline parses");
    assert!(
        entries.is_empty(),
        "the committed baseline should be empty (all findings fixed or annotated): {entries:?}"
    );
}

#[test]
fn baseline_gate_blocks_new_and_stale() {
    let ws = Workspace::load(repo_root()).expect("load workspace");
    let findings = ws.run_all();

    // Against the committed (empty) baseline the gate is clean.
    let text =
        std::fs::read_to_string(repo_root().join("analyze-baseline.json")).expect("baseline file");
    let committed = baseline::parse(&text).expect("baseline parses");
    assert!(baseline::compare(&findings, &committed).clean());

    // A finding not in the baseline blocks.
    let injected = diag::Diagnostic::new(
        "lock-order",
        diag::Severity::Error,
        "crates/serve/src/engine.rs",
        1,
        "synthetic finding for the gate test",
    );
    let mut with_new = findings.clone();
    with_new.push(injected);
    let gate = baseline::compare(&with_new, &committed);
    assert_eq!(gate.new.len(), 1);
    assert!(!gate.clean());

    // A baseline entry that no longer fires is stale and also blocks.
    let stale_entry = baseline::BaselineEntry {
        rule: "protocol".into(),
        file: "crates/serve/src/protocol.rs".into(),
        message: "a finding that was fixed".into(),
    };
    let gate = baseline::compare(&findings, std::slice::from_ref(&stale_entry));
    assert_eq!(gate.stale.len(), 1);
    assert!(!gate.clean());
}

/// The <5s acceptance bound, with generous headroom for debug builds on
/// slow CI: a full load + run of all five analyses over the tree.
#[test]
fn full_run_is_fast() {
    let start = std::time::Instant::now();
    let ws = Workspace::load(repo_root()).expect("load workspace");
    let _ = ws.run_all();
    let elapsed = start.elapsed();
    assert!(elapsed.as_secs() < 5, "analyze run took {elapsed:?}, budget is 5s");
}
