//! Per-tenant accounting and the metrics JSON document.
//!
//! Every executed micro-batch folds its [`KernelCounters`] into the
//! owning tenant's running totals (the multi-tenant analogue of the
//! per-experiment counter merging the bench harness does), alongside
//! request-lifecycle counts — so a tenant's share of simulated tensor-core
//! work is first-class, not reconstructed from logs.

use std::collections::HashMap;

use fs_tcu::KernelCounters;
use fs_trace::export::JsonWriter;

/// Lifecycle + kernel totals for one tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests shed because their deadline passed while queued.
    pub timed_out: u64,
    /// Requests failed by a worker panic or internal error.
    pub failed: u64,
    /// Micro-batches executed on behalf of this tenant.
    pub batches: u64,
    /// Largest micro-batch observed.
    pub max_batch: u64,
    /// Merged counters of every kernel run for this tenant.
    pub counters: KernelCounters,
}

impl TenantStats {
    /// JSON object (uses the shared [`KernelCounters::to_json`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("submitted", self.submitted);
        w.field_u64("completed", self.completed);
        w.field_u64("rejected", self.rejected);
        w.field_u64("timed_out", self.timed_out);
        w.field_u64("failed", self.failed);
        w.field_u64("batches", self.batches);
        w.field_u64("max_batch", self.max_batch);
        w.key("counters").value_raw(&self.counters.to_json());
        w.end_object();
        w.finish()
    }
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    // One escaping implementation for the whole workspace: delegate to
    // the shared helper in fs-trace's export module (also behind the
    // loadgen report and `spmm_cli --bench-json`).
    fs_trace::export::json_escape(s)
}

/// Render the tenant map as a JSON object keyed by tenant name.
pub fn tenants_json(tenants: &HashMap<String, TenantStats>) -> String {
    let mut names: Vec<&String> = tenants.keys().collect();
    names.sort();
    let mut w = JsonWriter::new();
    w.begin_object();
    for name in names {
        w.key(name).value_raw(&tenants[name].to_json());
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_json_embeds_shared_counter_serializer() {
        let mut t = TenantStats::default();
        t.completed = 4;
        t.counters.mma_count = 9;
        let j = t.to_json();
        assert_eq!(
            j,
            concat!(
                r#"{"submitted":0,"completed":4,"rejected":0,"timed_out":0,"failed":0,"#,
                r#""batches":0,"max_batch":0,"counters":{"mma_count":9,"wmma_count":0,"#,
                r#""tcu_flops":0,"cuda_flops":0,"load_transactions":0,"store_transactions":0,"#,
                r#""bytes_loaded":0,"bytes_stored":0,"ideal_bytes_loaded":0,"#,
                r#""ideal_bytes_stored":0,"sparse_value_bytes":0,"dense_operand_bytes":0,"#,
                r#""index_bytes":0,"sanitizer_violations":0,"load_efficiency":1.000000,"#,
                r#""store_efficiency":1.000000,"memory_efficiency":1.000000}}"#,
            )
        );
        assert!(j.contains("\"completed\":4"));
        assert!(j.contains("\"counters\":{\"mma_count\":9"));
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn tenants_render_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), TenantStats::default());
        m.insert("a".to_string(), TenantStats::default());
        let j = tenants_json(&m);
        let one = TenantStats::default().to_json();
        assert_eq!(j, format!("{{\"a\":{one},\"b\":{one}}}"));
        assert!(j.find("\"a\"").expect("a present") < j.find("\"b\"").expect("b present"));
    }
}
