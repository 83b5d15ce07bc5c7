//! Golden-fixture tests: one crafted failure per analysis, run through
//! the full [`analyze::workspace::Workspace`] entry point (not the
//! per-module functions), so the wiring from file layout to diagnostic
//! is what's under test.

use std::path::PathBuf;

use analyze::diag::Diagnostic;
use analyze::workspace::Workspace;

fn run(sources: &[(&str, &str)], texts: &[(&str, &str)]) -> Vec<Diagnostic> {
    let ws = Workspace::from_sources(
        sources.iter().map(|(p, s)| (PathBuf::from(p), (*s).to_string())).collect(),
        texts.iter().map(|(p, s)| (PathBuf::from(p), (*s).to_string())).collect(),
    );
    ws.run_all()
}

fn only_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

/// The acceptance-criterion fixture: two functions taking two mutexes in
/// opposite orders must be reported as a deadlock with BOTH acquisition
/// chains cited by file:line.
#[test]
fn seeded_two_mutex_cycle_reports_both_chains() {
    let engine = "impl Engine {\n\
                  fn submit(&self) {\n\
                    let q = self.queue.lock();\n\
                    let t = self.tenants.lock();\n\
                    drop(t); drop(q);\n\
                  }\n\
                  fn evict(&self) {\n\
                    let t = self.tenants.lock();\n\
                    let q = self.queue.lock();\n\
                    drop(q); drop(t);\n\
                  }\n\
                  }\n";
    let d = run(&[("crates/serve/src/engine.rs", engine)], &[]);
    let locks = only_rule(&d, "lock-order");
    assert_eq!(locks.len(), 1, "{d:?}");
    let msg = &locks[0].message;
    assert!(msg.contains("potential deadlock"), "{msg}");
    // Both chains, each cited file:line.
    assert!(msg.contains("engine.rs:3 takes `queue` then"), "{msg}");
    assert!(msg.contains("engine.rs:8 takes `tenants` then"), "{msg}");
}

#[test]
fn relaxed_store_then_signal_flagged() {
    let src = "static READY: AtomicBool = AtomicBool::new(false);\n\
               static mut PAYLOAD: u64 = 0;\n\
               fn publish() {\n\
                 stage_payload();\n\
                 READY.store(true, Ordering::Relaxed);\n\
               }\n";
    let d = run(&[("crates/serve/src/signal.rs", src)], &[]);
    let hits = only_rule(&d, "atomic-ordering");
    assert_eq!(hits.len(), 1, "{d:?}");
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("READY"), "{}", hits[0].message);
}

#[test]
fn req_opcode_missing_client_method_flagged() {
    let protocol = "wire_enum! { pub enum Request: \"request tag\" {\n\
                    Load = 1 => Loaded,\n Evict = 2 => Evicted { id: u64 },\n} }\n\
                    wire_enum! { pub enum Response: \"response tag\" {\n\
                    Loaded = 128,\n Evicted = 129 { existed: bool },\n} }\n";
    let server =
        "fn dispatch(r: Request) { match r { Request::Load => {}, Request::Evict => {} } }\n";
    // Client knows Load but nobody can send Evict.
    let client = "impl ServeClient { pub fn load(&mut self) { self.send(Request::Load); } }\n";
    let d = run(
        &[
            ("crates/serve/src/protocol.rs", protocol),
            ("crates/serve/src/server.rs", server),
            ("crates/serve/src/client.rs", client),
        ],
        &[("DESIGN.md", "| `REQ_LOAD` | `REQ_EVICT` |")],
    );
    let hits = only_rule(&d, "protocol");
    assert_eq!(hits.len(), 1, "{d:?}");
    assert!(hits[0].message.contains("Request::Evict"), "{}", hits[0].message);
    assert!(hits[0].message.contains("ServeClient"), "{}", hits[0].message);
}

#[test]
fn unregistered_trace_site_reference_flagged() {
    let site = "pub enum Site { Translate, }\n\
                pub const SITE_COUNT: usize = 1;\n\
                impl Site {\n\
                  pub const ALL: [Site; SITE_COUNT] = [Site::Translate];\n\
                  pub fn name(self) -> &'static str { match self { Site::Translate => \"translate\" } }\n\
                }\n\
                pub enum TraceCounter {}\n\
                pub const COUNTER_COUNT: usize = 0;\n\
                impl TraceCounter {\n\
                  pub const ALL: [TraceCounter; COUNTER_COUNT] = [];\n\
                  pub fn name(self) -> &'static str { match self {} }\n\
                }\n";
    // ci.sh greps for a site nobody registered.
    let ci = "grep -q 'site=\"serve.request\"' trace.json\n";
    let d = run(&[("crates/trace/src/site.rs", site)], &[("ci.sh", ci)]);
    let hits = only_rule(&d, "trace-site");
    assert_eq!(hits.len(), 1, "{d:?}");
    assert!(hits[0].message.contains("serve.request"), "{}", hits[0].message);
    assert_eq!(hits[0].file, PathBuf::from("ci.sh"));
}

#[test]
fn dropped_counter_field_flagged() {
    let counters = "pub struct KernelCounters {\n\
                    pub mma_count: u64,\n\
                    pub stall_cycles: u64,\n\
                    }\n\
                    impl KernelCounters {\n\
                    pub fn to_json(&self) -> String {\n\
                      format!(\"{{\\\"mma_count\\\":{}}}\", self.mma_count)\n\
                    }\n\
                    }\n\
                    impl Add for KernelCounters {\n\
                    fn add(self, o: Self) -> Self {\n\
                      KernelCounters { mma_count: self.mma_count + o.mma_count, stall_cycles: self.stall_cycles + o.stall_cycles }\n\
                    }\n\
                    }\n";
    let fast = "pub fn analytic(c: &mut KernelCounters) { c.mma_count += 1; }\n";
    let d =
        run(&[("crates/tcu/src/counters.rs", counters), ("crates/core/src/fast.rs", fast)], &[]);
    let hits = only_rule(&d, "counter-parity");
    // stall_cycles: missing from to_json AND not produced by the fast path
    // (it does survive the Add merge).
    assert_eq!(hits.len(), 2, "{d:?}");
    assert!(hits.iter().all(|h| h.message.contains("stall_cycles")), "{hits:?}");
    assert!(hits.iter().any(|h| h.message.contains("to_json")), "{hits:?}");
    assert!(hits.iter().any(|h| h.message.contains("fast path")), "{hits:?}");
}

/// Fixing each fixture makes the workspace run come back clean — the
/// regression direction of the five tests above.
#[test]
fn repaired_fixtures_are_clean() {
    let engine = "impl Engine {\n\
                  fn submit(&self) { let q = self.queue.lock(); let t = self.tenants.lock(); }\n\
                  fn evict(&self) { let q = self.queue.lock(); let t = self.tenants.lock(); }\n\
                  }\n";
    let signal = "static READY: AtomicBool = AtomicBool::new(false);\n\
                  fn publish() { READY.store(true, Ordering::Release); }\n";
    let d =
        run(&[("crates/serve/src/engine.rs", engine), ("crates/serve/src/signal.rs", signal)], &[]);
    assert!(d.is_empty(), "{d:?}");
}
