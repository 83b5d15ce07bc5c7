//! fs-serve: a batched SpMM serving engine over the FlashSparse kernels.
//!
//! Production SpMM workloads (GNN inference, recommendation retrieval)
//! reuse the same sparse matrix across many requests, so the expensive
//! part of FlashSparse's pipeline — CSR → ME-BCRS translation plus
//! auto-tune variant selection — should be paid once, not per request.
//! This crate wraps the kernel library in a small serving engine:
//!
//! - [`cache`] — a byte-budget LRU ([`ByteLru`]); as [`FormatCache`] it
//!   holds translated formats keyed by content fingerprint, bounded with
//!   the same footprint accounting the paper's Table 7 uses.
//! - [`engine`] — [`EngineConfig`], the [`ServeEngine`] facade and the
//!   metrics document, in front of [`registry`] (matrices and GNN models
//!   in one budgeted id → `Arc` map), [`queue`] (the one executor: a
//!   bounded-queue, panic-isolated worker pool that groups concurrent
//!   SpMM requests for the same matrix into micro-batches, sheds expired
//!   jobs and folds [`fs_tcu::KernelCounters`] into per-tenant totals)
//!   and the batch execution behind it.
//! - [`gnn_infer`] — end-to-end GNN inference serving: registered
//!   [`fs_gnn::GnnWeights`] models run complete GCN/AGNN forward passes
//!   server-side (`REQ_GNN_INFER`) as jobs on that same queue,
//!   bit-identical to the offline fs-gnn pass at per-request
//!   FP16/TF32/FP32 precision, with per-layer embeddings cached in a
//!   second [`ByteLru`] keyed by feature fingerprint.
//! - [`protocol`]/[`server`]/[`client`] — a length-prefixed binary TCP
//!   protocol (std::net only) whose every message is declared once in
//!   [`protocol`], the framed-connection [`Listener`] the server and the
//!   `fs-cluster` router both run on, and a blocking client with one
//!   retry loop ([`ServeClient::retrying`]).
//! - [`loadgen`] — open/closed-loop traffic generation (one driver loop,
//!   parameterised by the per-request operation) with a JSON
//!   latency/throughput report, plus a `--chaos` soak mode that verifies
//!   every response against the scalar reference while a fault plan is
//!   active (errors are allowed; silent corruption is not).
//! - [`args`] — the shared typed flag parser both binaries use.
//!
//! Under `fs_chaos`, the engine verifies responses through the
//! `flashsparse::resilient` fallback ladder, trips per-matrix circuit
//! breakers, and survives injected worker kills/stalls and frame
//! corruption — see `DESIGN.md` §8.
//!
//! Two binaries ship with the crate: `fs-serve` (the daemon) and
//! `loadgen` (the measurement driver).
//!
//! # Example
//!
//! Run one request through an in-process engine (no TCP): register a
//! matrix, multiply, and shut down:
//!
//! ```
//! use std::time::Duration;
//! use fs_matrix::gen::random_uniform;
//! use fs_matrix::{CsrMatrix, DenseMatrix};
//! use fs_serve::{EngineConfig, ServeEngine, SpmmOutcome, SpmmRequest};
//!
//! let engine = ServeEngine::start(EngineConfig { workers: 1, ..EngineConfig::default() });
//! let csr = CsrMatrix::from_coo(&random_uniform::<f32>(64, 64, 500, 1));
//! let info = engine.register_matrix("tenant", csr).expect("registered");
//! let b = DenseMatrix::from_fn(64, 8, |r, c| (r + c) as f32);
//! let outcome = engine.spmm_blocking(SpmmRequest {
//!     tenant: "tenant".to_string(),
//!     matrix_id: info.id,
//!     b,
//!     deadline: Some(Duration::from_secs(30)),
//! });
//! let SpmmOutcome::Done(resp) = outcome.expect("accepted") else { panic!("shed") };
//! assert_eq!(resp.out.rows(), 64);
//! engine.shutdown();
//! ```

pub mod args;
pub mod cache;
pub mod client;
pub mod engine;
mod execute;
pub mod fingerprint;
pub mod gnn_infer;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;

pub use args::{parse_value, FlagParser};
pub use cache::{ByteLru, CacheStats, CachedFormat, Footprint, FormatCache};
pub use client::{
    ClientError, ClusterSpmmResult, GnnInferResult, LoadedMatrix, ServeClient, SpmmResult,
    DEFAULT_CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT,
};
pub use engine::{
    EngineConfig, RegisterError, ServeEngine, SpmmOutcome, SpmmRequest, SpmmResponse, SubmitError,
};
pub use fingerprint::Fingerprint;
pub use gnn_infer::{
    backend_for_precision, GnnConfig, GnnError, GnnInferRequest, GnnInferResponse, GnnModelInfo,
};
pub use loadgen::{percentile, LoadReport, LoadgenConfig, MatrixSpec};
pub use server::{Listener, Server, ServerConfig, DEFAULT_MAX_LOAD_DIM};
