//! The fixed span and counter taxonomy.
//!
//! Sites are a closed enum rather than free-form strings: every span hot
//! path indexes a preallocated histogram slot with no hashing, no
//! allocation, and no lock, and exports enumerate the full taxonomy even
//! for sites that never fired (a dashboard scraping the Prometheus dump
//! sees a stable set of series).

/// A span site: one named region of the kernel or serving pipeline.
///
/// The `serve.*` sites mirror the request pipeline stage by stage; the
/// bare names are kernel-side phases. See DESIGN.md §10 for the
/// taxonomy rationale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// CSR → ME-BCRS/SR-BCRS translation (`TranslatedMatrix::translate`).
    Translate,
    /// Auto-tuner vector-size/precision selection (`auto_tune`).
    Tune,
    /// One row window of an SpMM/SDDMM launch — both the simulator and
    /// the fast path record it. (The exported name stays `window_batch`.)
    WindowBatch,
    /// One simulated `mma.sync` / `wmma` instruction (Simulate mode
    /// only; the fast path fuses MMAs and has no per-instruction site).
    Mma,
    /// One warp-wide coalesced memory request replay (Simulate mode
    /// only).
    Coalesce,
    /// Sampled scalar-reference verification (`verify_sampled_rows`).
    Verify,
    /// Request frame payload decode, server side.
    ServeDecode,
    /// Time a job spent queued before its batch started.
    ServeQueue,
    /// One micro-batch end to end (execute + respond).
    ServeBatch,
    /// The kernel-execution section of a micro-batch.
    ServeExecute,
    /// Response encode + socket write, server side.
    ServeEncode,
    /// Router-side placement lookup for one cluster request.
    ClusterRoute,
    /// Fan-out of one cluster SpMM across its shard slabs.
    ClusterScatter,
    /// Concatenation of per-shard slab outputs into one response.
    ClusterGather,
    /// One shard's slice of a scatter round (per-shard wait; the p99 of
    /// the max over shards is the fan-out tail amplification).
    ClusterShardWait,
    /// One heartbeat probe of one shard by the failure detector.
    HealProbe,
    /// One slab repair (replica promotion / re-replication push).
    HealRepair,
    /// One anti-entropy reconciliation of a rejoining shard.
    HealRejoin,
    /// One row-window slab translated by the pipeline stager (the
    /// producer side of the double-buffered translate/compute overlap).
    PipelineStage,
    /// Aggregate steal activity of one work-stealing SpMM/SDDMM launch
    /// (one span per successful steal, recorded post-hoc from pool
    /// stats so the steal hot path stays lock-free).
    PipelineSteal,
    /// One overlapped cold-path execution end to end (slab staging +
    /// compute + format assembly).
    PipelineOverlap,
    /// One GNN model layer executed server-side by REQ_GNN_INFER (dense
    /// GEMM + SpMM aggregation, plus SDDMM attention for AGNN).
    ServeGnnLayer,
    /// One embedding-cache lookup for a GNN inference request (hit or
    /// miss; the split is in the `gnn_cache_*` counters).
    ServeGnnCache,
}

/// Number of span sites (histogram slots).
pub const SITE_COUNT: usize = 23;

impl Site {
    /// Every site, in export order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::Translate,
        Site::Tune,
        Site::WindowBatch,
        Site::Mma,
        Site::Coalesce,
        Site::Verify,
        Site::ServeDecode,
        Site::ServeQueue,
        Site::ServeBatch,
        Site::ServeExecute,
        Site::ServeEncode,
        Site::ClusterRoute,
        Site::ClusterScatter,
        Site::ClusterGather,
        Site::ClusterShardWait,
        Site::HealProbe,
        Site::HealRepair,
        Site::HealRejoin,
        Site::PipelineStage,
        Site::PipelineSteal,
        Site::PipelineOverlap,
        Site::ServeGnnLayer,
        Site::ServeGnnCache,
    ];

    /// Dense index into the registry's per-site slots.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Site::Translate => 0,
            Site::Tune => 1,
            Site::WindowBatch => 2,
            Site::Mma => 3,
            Site::Coalesce => 4,
            Site::Verify => 5,
            Site::ServeDecode => 6,
            Site::ServeQueue => 7,
            Site::ServeBatch => 8,
            Site::ServeExecute => 9,
            Site::ServeEncode => 10,
            Site::ClusterRoute => 11,
            Site::ClusterScatter => 12,
            Site::ClusterGather => 13,
            Site::ClusterShardWait => 14,
            Site::HealProbe => 15,
            Site::HealRepair => 16,
            Site::HealRejoin => 17,
            Site::PipelineStage => 18,
            Site::PipelineSteal => 19,
            Site::PipelineOverlap => 20,
            Site::ServeGnnLayer => 21,
            Site::ServeGnnCache => 22,
        }
    }

    /// Stable export name (`serve.*` for pipeline stages).
    pub fn name(self) -> &'static str {
        match self {
            Site::Translate => "translate",
            Site::Tune => "tune",
            Site::WindowBatch => "window_batch",
            Site::Mma => "mma",
            Site::Coalesce => "coalesce",
            Site::Verify => "verify",
            Site::ServeDecode => "serve.decode",
            Site::ServeQueue => "serve.queue",
            Site::ServeBatch => "serve.batch",
            Site::ServeExecute => "serve.execute",
            Site::ServeEncode => "serve.encode",
            Site::ClusterRoute => "cluster.route",
            Site::ClusterScatter => "cluster.scatter",
            Site::ClusterGather => "cluster.gather",
            Site::ClusterShardWait => "cluster.shard_wait",
            Site::HealProbe => "heal.probe",
            Site::HealRepair => "heal.repair",
            Site::HealRejoin => "heal.rejoin",
            Site::PipelineStage => "pipeline.stage",
            Site::PipelineSteal => "pipeline.steal",
            Site::PipelineOverlap => "pipeline.overlap",
            Site::ServeGnnLayer => "serve.gnn_layer",
            Site::ServeGnnCache => "serve.gnn_cache",
        }
    }

    /// Whether completed spans at this site are appended to the bounded
    /// chrome-trace event buffer. Per-instruction sites (`mma`,
    /// `coalesce`) fire millions of times per launch; they keep full
    /// histogram + count fidelity but stay out of the event buffer so a
    /// trace file stays loadable. Their totals still reach the chrome
    /// export through the final `span_counts` counter event.
    #[inline]
    pub fn eventful(self) -> bool {
        !matches!(self, Site::Mma | Site::Coalesce)
    }
}

/// A named cross-span counter attachment: totals that give spans their
/// "how much work" dimension next to the histograms' "how long".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCounter {
    /// MMA instructions retired (fused or simulated).
    Mmas,
    /// 32-byte memory transactions (sectors) moved.
    Sectors,
    /// Bytes moved through the modeled memory system.
    Bytes,
    /// Serving-layer format-cache hits.
    CacheHits,
    /// Serving-layer format-cache misses.
    CacheMisses,
    /// Kernel launches that took the fast path.
    ExecFast,
    /// Kernel launches that ran the full simulator.
    ExecSimulate,
    /// Chaos faults observed by the resilient layer.
    ChaosFaults,
    /// Work-stealing scheduler steals that transferred tasks.
    Steals,
    /// Cold requests served through the overlapped slab pipeline.
    Overlaps,
    /// GNN embedding-cache hits (logits replayed without a forward pass).
    GnnCacheHits,
    /// GNN embedding-cache misses (full forward pass executed).
    GnnCacheMisses,
}

/// Number of trace counters.
pub const COUNTER_COUNT: usize = 12;

impl TraceCounter {
    /// Every counter, in export order.
    pub const ALL: [TraceCounter; COUNTER_COUNT] = [
        TraceCounter::Mmas,
        TraceCounter::Sectors,
        TraceCounter::Bytes,
        TraceCounter::CacheHits,
        TraceCounter::CacheMisses,
        TraceCounter::ExecFast,
        TraceCounter::ExecSimulate,
        TraceCounter::ChaosFaults,
        TraceCounter::Steals,
        TraceCounter::Overlaps,
        TraceCounter::GnnCacheHits,
        TraceCounter::GnnCacheMisses,
    ];

    /// Dense index into the registry's counter slots.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TraceCounter::Mmas => 0,
            TraceCounter::Sectors => 1,
            TraceCounter::Bytes => 2,
            TraceCounter::CacheHits => 3,
            TraceCounter::CacheMisses => 4,
            TraceCounter::ExecFast => 5,
            TraceCounter::ExecSimulate => 6,
            TraceCounter::ChaosFaults => 7,
            TraceCounter::Steals => 8,
            TraceCounter::Overlaps => 9,
            TraceCounter::GnnCacheHits => 10,
            TraceCounter::GnnCacheMisses => 11,
        }
    }

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            TraceCounter::Mmas => "mmas",
            TraceCounter::Sectors => "sectors",
            TraceCounter::Bytes => "bytes",
            TraceCounter::CacheHits => "cache_hits",
            TraceCounter::CacheMisses => "cache_misses",
            TraceCounter::ExecFast => "exec_fast",
            TraceCounter::ExecSimulate => "exec_simulate",
            TraceCounter::ChaosFaults => "chaos_faults",
            TraceCounter::Steals => "steals",
            TraceCounter::Overlaps => "overlaps",
            TraceCounter::GnnCacheHits => "gnn_cache_hits",
            TraceCounter::GnnCacheMisses => "gnn_cache_misses",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in TraceCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SITE_COUNT);
        assert_eq!(Site::ServeQueue.name(), "serve.queue");
        assert_eq!(Site::WindowBatch.name(), "window_batch");
    }

    #[test]
    fn hot_sites_are_not_eventful() {
        assert!(!Site::Mma.eventful());
        assert!(!Site::Coalesce.eventful());
        assert!(Site::Translate.eventful());
        assert!(Site::ServeBatch.eventful());
    }
}
