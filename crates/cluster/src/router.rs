//! The scatter-gather router: the TCP front end clients talk to when a
//! matrix is too large (or too hot) for one `fs-serve` process.
//!
//! The router speaks the same length-prefixed protocol as the shards it
//! fronts, on the same [`fs_serve::Listener`]: accepting, connection
//! threads, decoding, encoding and the drain are the listener's; this
//! module supplies the `dispatch` handler and what a router does when it
//! stops (end the heal thread, pass the shutdown on to the shards).
//! `Load` row-partitions the matrix into contiguous slabs —
//! placement by [`crate::ShardMap`] — and registers each slab (rebased
//! to slab-local row indices) on its primary shard and, when replication
//! is on, its replica. `ClusterSpmm` scatters the dense operand to every
//! slab holder in parallel, bounded per shard by the request deadline,
//! and gathers the row slabs back into one output.
//!
//! ## Partial failure
//!
//! A slab whose primary fails (connection refused, deadline, injected
//! `shard-kill`) is retried on its replica; a slab lost past its replica
//! degrades the response instead of failing it: missing rows are
//! zero-filled and a present-rows bitmap tells the client exactly which
//! rows to trust. `shards_ok` / `shards_failed` make the retry traffic
//! visible per response.
//!
//! ## Determinism under chaos
//!
//! The `shard-kill` / `shard-stall` draws for all slabs are taken
//! *sequentially on the request thread before the fan-out spawns*, in
//! slab order — the parallel scatter workers never touch the injector —
//! so a seeded soak over one connection replays bit-identical response
//! bytes and fault counters from the plan string alone.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fs_chaos::{Backoff, FaultSite};
use fs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use fs_serve::client::{ClientError, ServeClient};
use fs_serve::protocol::{fnv1a64, ErrorCode, Request, Response, SpmmCall};
use fs_serve::{Fingerprint, Listener, DEFAULT_MAX_LOAD_DIM};
use fs_trace::export::JsonWriter;
use fs_trace::Site;
use parking_lot::Mutex;

use crate::heal::{HealConfig, HealState};
use crate::journal::{Journal, Record, SlabRecord};
use crate::shardmap::ShardMap;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Static shard addresses (more can join via `ShardJoin`).
    pub shards: Vec<String>,
    /// Register every slab on a replica shard as well.
    pub replicate: bool,
    /// TCP dial bound for shard connections.
    pub connect_timeout: Duration,
    /// Per-shard deadline when a request carries none.
    pub default_deadline_ms: u32,
    /// Largest rows/cols a `Load` may declare (same guard as the shard
    /// front end: dimensions are bounded before anything allocates).
    pub max_load_dim: u32,
    /// Failure-detector settings (probe cadence and the consecutive-
    /// failure thresholds of the Up→Suspect→Down state machine). A zero
    /// `probe_interval` disables the background heal thread; ticks can
    /// still be driven explicitly via [`crate::heal::heal_tick`].
    pub heal: HealConfig,
    /// Durable manifest journal path. When set, every successful `Load`
    /// and every repair reassignment is appended, and `bind` recovers
    /// the registry from the journal's valid prefix.
    pub journal: Option<PathBuf>,
    /// Propagate a router `Shutdown` to every shard (the scripted-run
    /// default). Turn off to restart the router under live shards.
    pub propagate_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            replicate: false,
            connect_timeout: Duration::from_secs(2),
            default_deadline_ms: 0,
            max_load_dim: DEFAULT_MAX_LOAD_DIM,
            heal: HealConfig::default(),
            journal: None,
            propagate_shutdown: true,
        }
    }
}

/// One slab of a registered matrix: where its rows live.
#[derive(Clone, Debug)]
pub(crate) struct SlabState {
    /// Global row range.
    pub(crate) rows: Range<usize>,
    /// Content fingerprint of the slab's rebased CSR — the identity the
    /// anti-entropy pass matches against shard inventories.
    pub(crate) fp: (u64, u64),
    /// Primary shard index.
    pub(crate) primary: usize,
    /// The slab's matrix id on the primary shard.
    pub(crate) primary_id: u64,
    /// Replica shard index and the slab's matrix id there.
    pub(crate) replica: Option<(usize, u64)>,
}

/// A matrix registered through the router.
#[derive(Clone, Debug)]
pub(crate) struct ClusterMatrix {
    pub(crate) tenant: String,
    /// Content fingerprint of the full deduplicated matrix — the
    /// placement key and the `Load` idempotency key.
    pub(crate) fp: (u64, u64),
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// The deduplicated source entries, retained so repair can re-slice
    /// any slab when no replica survives (the journal spills the same
    /// bytes for a restarted router).
    pub(crate) entries: Arc<Vec<(u32, u32, f32)>>,
    pub(crate) slabs: Vec<SlabState>,
}

/// A pooled connection to one shard. The slot is `None` until first use
/// and after a transport error; redials go through a capped
/// exponential-backoff gate so a dead shard cannot spin callers (the
/// repair thread probes every tick) into tight reconnect loops.
struct ShardConn {
    client: Mutex<Option<ServeClient>>,
    gate: Mutex<DialGate>,
}

/// Dial-backoff bookkeeping for one shard address. Jitter is seeded from
/// the address, so the delay schedule is deterministic per shard.
struct DialGate {
    backoff: Backoff,
    /// Dialing is allowed again at this instant (`None` = now).
    not_before: Option<Instant>,
}

impl ShardConn {
    fn new(addr: &str) -> ShardConn {
        ShardConn {
            client: Mutex::new(None),
            gate: Mutex::new(DialGate {
                backoff: Backoff::for_client(fnv1a64(addr.as_bytes())),
                not_before: None,
            }),
        }
    }
}

/// Cumulative router counters (exported in the metrics document).
#[derive(Default)]
struct RouterStats {
    cluster_requests: AtomicU64,
    degraded: AtomicU64,
    shard_failures: AtomicU64,
    replica_serves: AtomicU64,
    shard_restarts: AtomicU64,
    /// Actual TCP dials attempted (successful or not). Stays far below
    /// the call count against a dead shard — the backoff-gate contract
    /// pinned by `dial_backoff_gates_reconnect_attempts`.
    dial_attempts: AtomicU64,
    /// Calls refused by the dial gate without touching the wire.
    dial_suppressed: AtomicU64,
}

/// Shared router state: topology, matrix registry, connection pool,
/// failure detector, and the durable manifest journal.
pub struct RouterState {
    pub(crate) map: Mutex<ShardMap>,
    pub(crate) matrices: Mutex<HashMap<u64, Arc<ClusterMatrix>>>,
    conns: Mutex<HashMap<String, Arc<ShardConn>>>,
    next_id: AtomicU64,
    stats: RouterStats,
    pub(crate) heal: HealState,
    pub(crate) journal: Mutex<Option<Journal>>,
    connect_timeout: Duration,
    default_deadline_ms: u32,
    max_load_dim: u32,
}

impl RouterState {
    fn new(cfg: &RouterConfig) -> io::Result<RouterState> {
        let state = RouterState {
            map: Mutex::new(ShardMap::from_addrs(cfg.shards.clone(), cfg.replicate)),
            matrices: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: RouterStats::default(),
            heal: HealState::new(cfg.heal.clone()),
            journal: Mutex::new(None),
            connect_timeout: cfg.connect_timeout,
            default_deadline_ms: cfg.default_deadline_ms,
            max_load_dim: cfg.max_load_dim,
        };
        if let Some(path) = &cfg.journal {
            let (journal, recovered) = Journal::open(path)?;
            state.rebuild_from_journal(recovered.records);
            *state.journal.lock() = Some(journal);
        }
        Ok(state)
    }

    /// Rebuild the matrix registry from a recovered journal prefix:
    /// `Load` records re-create matrices (joining their shard addresses
    /// into the map), `Assign` records replay repair-time reassignments
    /// in order. Pure bookkeeping — no shard is contacted; residency is
    /// re-validated separately via [`crate::heal::revalidate`].
    fn rebuild_from_journal(&self, records: Vec<Record>) {
        let mut max_id = 0u64;
        for rec in records {
            match rec {
                Record::Load { matrix_id, tenant, fp, rows, cols, entries, slabs } => {
                    max_id = max_id.max(matrix_id);
                    let slabs = slabs.into_iter().map(|s| self.slab_from_record(s)).collect();
                    let matrix = Arc::new(ClusterMatrix {
                        tenant,
                        fp,
                        rows: rows as usize,
                        cols: cols as usize,
                        entries: Arc::new(entries),
                        slabs,
                    });
                    self.matrices.lock().insert(matrix_id, matrix);
                }
                Record::Assign { matrix_id, slab_index, slab } => {
                    let mut matrices = self.matrices.lock();
                    if let Some(m) = matrices.get(&matrix_id) {
                        let mut next = (**m).clone();
                        if let Some(s) = next.slabs.get_mut(slab_index as usize) {
                            *s = self.slab_from_record(slab);
                            matrices.insert(matrix_id, Arc::new(next));
                        }
                    }
                }
            }
        }
        let floor = max_id + 1;
        self.next_id.fetch_max(floor, Ordering::Relaxed); // lint: relaxed-ok - id allocation needs uniqueness, not ordering
    }

    /// Resolve a journal slab record's addresses back to map indices
    /// (joining addresses the map has not seen yet).
    fn slab_from_record(&self, s: SlabRecord) -> SlabState {
        let mut map = self.map.lock();
        let primary = map.join(s.primary_addr, 0).index;
        let replica = s.replica.map(|(addr, id)| (map.join(addr, 0).index, id));
        SlabState {
            rows: s.start as usize..s.end as usize,
            fp: s.fp,
            primary,
            primary_id: s.primary_id,
            replica,
        }
    }

    /// The pooled connection slot for `addr` (created on first use).
    /// Takes only the pool-map lock; the per-shard client lock is the
    /// caller's, so two slabs on different shards never serialize.
    fn conn(&self, addr: &str) -> Arc<ShardConn> {
        let mut conns = self.conns.lock();
        Arc::clone(conns.entry(addr.to_string()).or_insert_with(|| Arc::new(ShardConn::new(addr))))
    }

    /// Run `f` against the pooled client for `addr`, dialing if the slot
    /// is empty and dropping the connection after transport-level
    /// failures so the next call starts fresh. Redials are gated by the
    /// address's backoff schedule: inside the hold-off window the call
    /// fails immediately (`WouldBlock`) without touching the wire.
    pub(crate) fn shard_call<T>(
        &self,
        addr: &str,
        f: impl FnOnce(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let conn = self.conn(addr);
        let mut slot = conn.client.lock();
        if slot.is_none() {
            let mut gate = conn.gate.lock();
            if let Some(t) = gate.not_before {
                if Instant::now() < t {
                    // lint: relaxed-ok - monotonic counter, read only for metrics
                    self.stats.dial_suppressed.fetch_add(1, Ordering::Relaxed);
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("dial backoff holding off {addr}"),
                    )));
                }
            }
            // lint: relaxed-ok - monotonic counter, read only for metrics
            self.stats.dial_attempts.fetch_add(1, Ordering::Relaxed);
            match ServeClient::connect_with_timeout(addr, self.connect_timeout) {
                Ok(client) => {
                    gate.backoff.reset();
                    gate.not_before = None;
                    *slot = Some(client);
                }
                Err(e) => {
                    let delay = gate.backoff.next_delay_floored();
                    gate.not_before = Some(Instant::now() + delay);
                    return Err(e);
                }
            }
        }
        let result = match slot.as_mut() {
            Some(client) => f(client),
            None => Err(ClientError::Unexpected("no shard connection".to_string())),
        };
        if result.as_ref().is_err_and(ClientError::needs_reconnect) {
            *slot = None;
        }
        result
    }

    /// Address of shard `index` (snapshot under the map lock).
    pub(crate) fn shard_addr(&self, index: usize) -> Option<String> {
        self.map.lock().shard(index).map(|s| s.addr.clone())
    }

    /// Serialize a slab's placement for the journal (indices → addrs).
    pub(crate) fn slab_record(&self, slab: &SlabState) -> Option<SlabRecord> {
        let map = self.map.lock();
        let primary_addr = map.shard(slab.primary)?.addr.clone();
        let replica = match slab.replica {
            Some((i, id)) => Some((map.shard(i)?.addr.clone(), id)),
            None => None,
        };
        Some(SlabRecord {
            start: slab.rows.start as u64,
            end: slab.rows.end as u64,
            fp: slab.fp,
            primary_addr,
            primary_id: slab.primary_id,
            replica,
        })
    }

    /// Append a record to the manifest journal, if one is configured.
    /// Append failures are swallowed: the in-memory manifest stays
    /// authoritative for this process; only recovery fidelity degrades.
    pub(crate) fn append_journal(&self, rec: &Record) {
        if let Some(journal) = self.journal.lock().as_mut() {
            let _ = journal.append(rec);
        }
    }

    /// Swap slab `slab_index` of matrix `matrix_id` to `new_slab`:
    /// journal the reassignment, then publish a copy-on-write update of
    /// the matrix so in-flight scatters keep their consistent snapshot.
    pub(crate) fn commit_slab(&self, matrix_id: u64, slab_index: usize, new_slab: SlabState) {
        if let Some(slab) = self.slab_record(&new_slab) {
            self.append_journal(&Record::Assign {
                matrix_id,
                slab_index: slab_index.min(u32::MAX as usize) as u32, // lint: checked-cast - clamped
                slab,
            });
        }
        let mut matrices = self.matrices.lock();
        if let Some(m) = matrices.get(&matrix_id) {
            let mut next = (**m).clone();
            if let Some(slot) = next.slabs.get_mut(slab_index) {
                *slot = new_slab;
                matrices.insert(matrix_id, Arc::new(next));
            }
        }
    }

    /// Number of matrices in the manifest.
    pub fn matrix_count(&self) -> usize {
        self.matrices.lock().len()
    }

    /// The failure detector's state and counters.
    pub fn heal_state(&self) -> &HealState {
        &self.heal
    }

    /// Shard addresses in map-index order.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.map.lock().shards().iter().map(|s| s.addr.clone()).collect()
    }

    /// The manifest's slab placements, sorted by matrix id: for each
    /// matrix, each slab's `(fingerprint, primary index, replica index)`.
    /// Inspection surface for tests and the recovery acceptance check —
    /// two routers whose placements compare equal agree
    /// fingerprint-for-fingerprint on who holds what.
    pub fn placements(&self) -> Vec<(u64, Vec<((u64, u64), usize, Option<usize>)>)> {
        let matrices = self.matrices.lock();
        let mut out: Vec<(u64, Vec<((u64, u64), usize, Option<usize>)>)> = matrices
            .iter()
            .map(|(&id, m)| {
                (id, m.slabs.iter().map(|s| (s.fp, s.primary, s.replica.map(|(i, _)| i))).collect())
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Dial-gate counters: `(attempts, suppressed)` — actual TCP dials
    /// vs. calls the backoff gate refused without touching the wire.
    pub fn dial_stats(&self) -> (u64, u64) {
        (
            self.stats.dial_attempts.load(Ordering::Relaxed), // lint: relaxed-ok - metrics read
            self.stats.dial_suppressed.load(Ordering::Relaxed), // lint: relaxed-ok - metrics read
        )
    }

    /// Register a shard (or refresh its epoch) — what the `ShardJoin`
    /// request does, exposed for the daemon's startup probe.
    pub fn join_shard(&self, addr: String, start_epoch: u64) -> crate::shardmap::JoinOutcome {
        let outcome = self.map.lock().join(addr, start_epoch);
        if outcome.restarted {
            // lint: relaxed-ok - monotonic counter, read only for metrics
            self.stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

/// A bound, running router. Accepts until a `Shutdown` message arrives.
pub struct Router {
    state: Arc<RouterState>,
    listener: Listener,
    propagate_shutdown: bool,
}

impl Router {
    /// Bind the listener. The accept loop runs on the caller's thread
    /// via [`Router::run`]. When a journal is configured, the manifest
    /// is recovered from its valid prefix before the listener accepts.
    pub fn bind(cfg: &RouterConfig) -> io::Result<Router> {
        let listener = Listener::bind(&cfg.addr)?;
        Ok(Router {
            state: Arc::new(RouterState::new(cfg)?),
            listener,
            propagate_shutdown: cfg.propagate_shutdown,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The shared router state (topology and counters).
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Accept and serve connections on the shared [`Listener`] until a
    /// `Shutdown` request arrives, then propagate the shutdown to every
    /// shard (unless configured not to) and join every connection
    /// thread. A non-zero `probe_interval` also runs the heal loop —
    /// probe, repair, rejoin — on a background thread for the router's
    /// lifetime.
    pub fn run(self) -> io::Result<()> {
        let Router { state, listener, propagate_shutdown } = self;
        let stop = Arc::new(AtomicBool::new(false));
        let heal_handle = {
            let interval = state.heal.config().probe_interval;
            if interval > Duration::ZERO {
                let stop = Arc::clone(&stop);
                let state = Arc::clone(&state);
                Some(thread::Builder::new().name("fs-cluster-heal".to_string()).spawn(
                    move || {
                        while !stop.load(Ordering::Acquire) {
                            thread::sleep(interval);
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let _ = crate::heal::heal_tick(&state);
                        }
                    },
                )?)
            } else {
                None
            }
        };
        let (addr, start_epoch) = (listener.local_addr(), listener.start_epoch());
        let draining = Arc::clone(&state);
        listener.run(
            "fs-cluster-conn",
            move |req| dispatch(req, &state, addr, start_epoch),
            move || {
                stop.store(true, Ordering::Release);
                if let Some(h) = heal_handle {
                    let _ = h.join();
                }
                // Tell every shard to drain too: one Shutdown against the
                // router tears the whole cluster down, which is what
                // scripted runs want. (A restart-bound router leaves its
                // shards running instead.)
                if propagate_shutdown {
                    for addr in draining.shard_addrs() {
                        let _ = draining.shard_call(&addr, |c| c.shutdown());
                    }
                }
            },
        )
    }
}

fn dispatch(
    req: Request,
    state: &Arc<RouterState>,
    addr: SocketAddr,
    start_epoch: u64,
) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShutdownAck,
        Request::Metrics => Response::Metrics { json: metrics_json(state, addr, start_epoch) },
        Request::Trace => {
            let snap = fs_trace::snapshot();
            Response::Trace {
                prometheus: fs_trace::export::prometheus_text(&snap),
                chrome: fs_trace::export::chrome_trace(&snap),
            }
        }
        Request::ShardJoin { addr: shard_addr, start_epoch: shard_epoch } => {
            let outcome = state.join_shard(shard_addr, shard_epoch);
            let count = state.map.lock().len();
            Response::ShardJoined {
                shard_index: outcome.index.min(u32::MAX as usize) as u32,
                shard_count: count.min(u32::MAX as usize) as u32,
                // Routers hold no slabs themselves; the inventory reply
                // is the shards' side of the anti-entropy protocol.
                resident: Vec::new(),
            }
        }
        Request::Export { .. } | Request::Evict { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "export/evict are shard-level ops; the router manages slabs itself"
                .to_string(),
        },
        Request::Load { tenant, rows, cols, entries } => {
            route_load(state, tenant, rows, cols, entries)
        }
        Request::ClusterSpmm { call } => cluster_spmm(state, call),
        Request::Spmm { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "this is a router: use the cluster SpMM op (REQ_CLUSTER_SPMM)".to_string(),
        },
        // GNN models aggregate over a whole adjacency; a router only
        // holds row slabs of it, so inference belongs on a plain
        // fs-serve instance that owns the full graph.
        Request::GnnRegister { .. } | Request::GnnInfer { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "gnn inference is not sharded: register the graph on a plain fs-serve \
                      instance"
                .to_string(),
        },
    }
}

/// Partition `entries` into row slabs and register each slab on its
/// primary (and replica) shard. The router's matrix id maps to the
/// per-shard slab ids.
fn route_load(
    state: &Arc<RouterState>,
    tenant: String,
    rows: u32,
    cols: u32,
    entries: Vec<(u32, u32, f32)>,
) -> Response {
    let _route = fs_trace::span(Site::ClusterRoute);
    if rows > state.max_load_dim || cols > state.max_load_dim {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: format!(
                "matrix dimensions {rows}x{cols} exceed the router cap {}",
                state.max_load_dim
            ),
        };
    }
    let (rows, cols) = (rows as usize, cols as usize);
    let mut coo = CooMatrix::new(rows, cols);
    for (r, c, v) in &entries {
        if *r as usize >= rows || *c as usize >= cols {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("entry ({r},{c}) outside {rows}x{cols}"),
            };
        }
        coo.push(*r as usize, *c as usize, *v);
    }
    let csr = CsrMatrix::from_coo(&coo.dedup());
    let fp = Fingerprint::of(&csr);
    let fp_pair = (fp.hi(), fp.lo());
    let nnz = csr.nnz() as u64;
    // Idempotent by (tenant, fingerprint): a client replaying its Load
    // against a recovered router (whose manifest already has the matrix
    // from the journal) gets the original id back — nothing re-pushes.
    {
        let matrices = state.matrices.lock();
        if let Some((&id, _)) = matrices.iter().find(|(_, m)| m.fp == fp_pair && m.tenant == tenant)
        {
            return Response::Loaded {
                matrix_id: id,
                fingerprint_hi: fp.hi(),
                fingerprint_lo: fp.lo(),
                nnz,
            };
        }
    }
    let assignments = state.map.lock().assign(fp_pair, rows);
    if assignments.is_empty() {
        return Response::Error {
            code: ErrorCode::ResourceExhausted,
            message: "no shards joined".to_string(),
        };
    }

    let mut slabs = Vec::with_capacity(assignments.len());
    for a in &assignments {
        // Rebase the slab's entries to slab-local row indices; columns
        // are untouched (a row slab keeps every column).
        let mut slab_coo = CooMatrix::new(a.rows.len(), cols);
        for r in a.rows.clone() {
            for (c, v) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
                slab_coo.push(r - a.rows.start, *c as usize, *v);
            }
        }
        let slab_csr = CsrMatrix::from_coo(&slab_coo);
        let slab_fp = Fingerprint::of(&slab_csr);
        let primary_id = {
            let Some(addr) = state.shard_addr(a.primary) else {
                return Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("shard {} left the map", a.primary),
                };
            };
            match state.shard_call(&addr, |c| c.load_matrix(&tenant, &slab_csr)) {
                Ok(loaded) => loaded.matrix_id,
                Err(ClientError::Server { code, message }) => {
                    return Response::Error { code, message }
                }
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("slab load on {addr} failed: {e}"),
                    }
                }
            }
        };
        // Replica registration is best-effort: a slab without a replica
        // still serves, it just cannot survive a primary failure.
        let replica = a.replica.and_then(|idx| {
            let addr = state.shard_addr(idx)?;
            state
                .shard_call(&addr, |c| c.load_matrix(&tenant, &slab_csr))
                .ok()
                .map(|loaded| (idx, loaded.matrix_id))
        });
        slabs.push(SlabState {
            rows: a.rows.clone(),
            fp: (slab_fp.hi(), slab_fp.lo()),
            primary: a.primary,
            primary_id,
            replica,
        });
    }

    // Retain the deduplicated entries in CSR iteration order: the repair
    // path re-slices slabs from them, and the journal spills the same
    // bytes so a restarted router can too.
    let mut dedup_entries = Vec::with_capacity(csr.nnz());
    for r in 0..rows {
        for (c, v) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
            dedup_entries.push((r.min(u32::MAX as usize) as u32, *c, *v)); // lint: checked-cast - rows capped by max_load_dim
        }
    }
    // lint: relaxed-ok - id allocation needs uniqueness, not ordering
    let matrix_id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let matrix = Arc::new(ClusterMatrix {
        tenant,
        fp: fp_pair,
        rows,
        cols,
        entries: Arc::new(dedup_entries),
        slabs,
    });
    let slab_records: Option<Vec<SlabRecord>> =
        matrix.slabs.iter().map(|s| state.slab_record(s)).collect();
    if let Some(slab_records) = slab_records {
        state.append_journal(&Record::Load {
            matrix_id,
            tenant: matrix.tenant.clone(),
            fp: fp_pair,
            rows: rows as u64,
            cols: cols as u64,
            entries: (*matrix.entries).clone(),
            slabs: slab_records,
        });
    }
    state.matrices.lock().insert(matrix_id, matrix);
    Response::Loaded { matrix_id, fingerprint_hi: fp.hi(), fingerprint_lo: fp.lo(), nnz }
}

/// One slab's scatter outcome.
struct SlabOutcome {
    rows: Range<usize>,
    out: Option<Vec<f32>>,
    failures: u64,
    replica_served: bool,
}

/// Scatter the operand to every slab holder, gather the row slabs back.
fn cluster_spmm(state: &Arc<RouterState>, call: SpmmCall) -> Response {
    let SpmmCall { tenant: _, matrix_id, deadline_ms, b } = call;
    // lint: relaxed-ok - monotonic counter, read only for metrics
    state.stats.cluster_requests.fetch_add(1, Ordering::Relaxed);
    let matrix = {
        let _route = fs_trace::span(Site::ClusterRoute);
        match state.matrices.lock().get(&matrix_id) {
            Some(m) => Arc::clone(m),
            None => {
                return Response::Error {
                    code: ErrorCode::UnknownMatrix,
                    message: format!("unknown matrix id {matrix_id}"),
                }
            }
        }
    };
    if b.rows() != matrix.cols {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: format!(
                "operand is {}x{} ({} values); matrix needs {} rows",
                b.rows(),
                b.cols(),
                b.len(),
                matrix.cols
            ),
        };
    }
    let deadline_ms = if deadline_ms == 0 { state.default_deadline_ms } else { deadline_ms };

    // All chaos decisions for this request are drawn here, sequentially,
    // in slab order — before any parallelism — so a seeded soak replays
    // the identical fault pattern regardless of scatter thread timing.
    let faults: Vec<(bool, bool)> = matrix
        .slabs
        .iter()
        .map(|_| {
            (
                fs_chaos::draw(FaultSite::ShardKill).is_some(),
                fs_chaos::draw(FaultSite::ShardStall).is_some(),
            )
        })
        .collect();
    let stall = fs_chaos::stall_duration();

    let n = b.cols();
    let outcomes: Vec<SlabOutcome> = {
        let _scatter = fs_trace::span(Site::ClusterScatter);
        thread::scope(|scope| {
            let handles: Vec<_> = matrix
                .slabs
                .iter()
                .zip(&faults)
                .map(|(slab, &(kill, stall_hit))| {
                    let state = Arc::clone(state);
                    let tenant = matrix.tenant.clone();
                    let b = &b;
                    scope.spawn(move || {
                        serve_slab(&state, &tenant, slab, b, deadline_ms, kill, {
                            if stall_hit {
                                Some(stall)
                            } else {
                                None
                            }
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&matrix.slabs)
                .map(|(h, slab)| match h.join() {
                    Ok(outcome) => outcome,
                    Err(_) => SlabOutcome {
                        rows: slab.rows.clone(),
                        out: None,
                        failures: 1,
                        replica_served: false,
                    },
                })
                .collect()
        })
    };

    let _gather = fs_trace::span(Site::ClusterGather);
    let rows = matrix.rows;
    let mut out = DenseMatrix::<f32>::zeros(rows, n);
    let mut present = vec![0u8; rows.div_ceil(8)];
    let mut degraded = false;
    let mut shards_ok: u32 = 0;
    let mut shards_failed: u64 = 0;
    let mut replica_serves: u64 = 0;
    for o in &outcomes {
        shards_failed += o.failures;
        if o.replica_served {
            replica_serves += 1;
        }
        match &o.out {
            Some(slab_out) => {
                out.as_mut_slice()[o.rows.start * n..o.rows.end * n].copy_from_slice(slab_out);
                for r in o.rows.clone() {
                    present[r / 8] |= 1 << (r % 8);
                }
                shards_ok += 1;
            }
            None => degraded = true,
        }
    }
    if degraded {
        // lint: relaxed-ok - monotonic counter, read only for metrics
        state.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
    // lint: relaxed-ok - monotonic counter, read only for metrics
    state.stats.shard_failures.fetch_add(shards_failed, Ordering::Relaxed);
    // lint: relaxed-ok - monotonic counter, read only for metrics
    state.stats.replica_serves.fetch_add(replica_serves, Ordering::Relaxed);
    Response::ClusterSpmm {
        out,
        degraded,
        present: if degraded { present } else { Vec::new() },
        shards_ok,
        shards_failed: shards_failed.min(u64::from(u32::MAX)) as u32,
    }
}

/// One slab of a scatter: primary, then replica, inside a
/// `cluster.shard_wait` span (the per-shard contribution to the fan-out
/// tail).
fn serve_slab(
    state: &RouterState,
    tenant: &str,
    slab: &SlabState,
    b: &DenseMatrix<f32>,
    deadline_ms: u32,
    kill: bool,
    stall: Option<Duration>,
) -> SlabOutcome {
    let _wait = fs_trace::span(Site::ClusterShardWait);
    if let Some(d) = stall {
        thread::sleep(d);
    }
    let mut failures = 0u64;
    let (slab_rows, n) = (slab.rows.len(), b.cols());
    // An injected kill means "the primary is gone this round": the
    // attempt fails without touching the wire, exactly like a dead host
    // behind a connect timeout, minus the wait. A shard the failure
    // detector holds Down is skipped the same way — fail fast to the
    // replica instead of burning the deadline on a dead host.
    if !kill && !state.heal.is_down(slab.primary) {
        if let Some(addr) = state.shard_addr(slab.primary) {
            match state.shard_call(&addr, |c| {
                c.spmm(tenant, slab.primary_id, b.rows(), n, b.as_slice(), deadline_ms)
            }) {
                Ok(resp) if resp.rows == slab_rows && resp.n == n => {
                    return SlabOutcome {
                        rows: slab.rows.clone(),
                        out: Some(resp.out),
                        failures,
                        replica_served: false,
                    };
                }
                _ => failures += 1,
            }
        } else {
            failures += 1;
        }
    } else {
        failures += 1;
    }
    if let Some((replica_idx, replica_id)) = slab.replica {
        if state.heal.is_down(replica_idx) {
            return SlabOutcome {
                rows: slab.rows.clone(),
                out: None,
                failures: failures + 1,
                replica_served: false,
            };
        }
        if let Some(addr) = state.shard_addr(replica_idx) {
            match state.shard_call(&addr, |c| {
                c.spmm(tenant, replica_id, b.rows(), n, b.as_slice(), deadline_ms)
            }) {
                Ok(resp) if resp.rows == slab_rows && resp.n == n => {
                    return SlabOutcome {
                        rows: slab.rows.clone(),
                        out: Some(resp.out),
                        failures,
                        replica_served: true,
                    };
                }
                _ => failures += 1,
            }
        } else {
            failures += 1;
        }
    }
    SlabOutcome { rows: slab.rows.clone(), out: None, failures, replica_served: false }
}

/// The router's metrics document: a `server` section (shape-compatible
/// with the shard one, so clients parse either), the shard topology, and
/// the cumulative scatter-gather counters.
fn metrics_json(state: &Arc<RouterState>, addr: SocketAddr, start_epoch: u64) -> String {
    let (shards, replicated) = {
        let map = state.map.lock();
        let shards: Vec<(String, u64)> =
            map.shards().iter().map(|s| (s.addr.clone(), s.start_epoch)).collect();
        (shards, map.replicated())
    };
    let matrices = state.matrices.lock().len();
    let health = state.heal.health();
    let s = &state.stats;
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed); // lint: relaxed-ok - metrics read
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("server").begin_object();
    w.field_str("addr", &addr.to_string());
    w.field_u64("start_epoch", start_epoch);
    w.end_object();
    w.key("cluster").begin_object();
    w.key("shards").begin_array();
    for (shard_addr, epoch) in &shards {
        w.begin_object();
        w.field_str("addr", shard_addr);
        w.field_u64("start_epoch", *epoch);
        w.end_object();
    }
    w.end_array();
    w.field_bool("replicate", replicated);
    w.field_u64("matrices", matrices as u64);
    w.field_u64("requests", load(&s.cluster_requests));
    w.field_u64("degraded", load(&s.degraded));
    w.field_u64("shard_failures", load(&s.shard_failures));
    w.field_u64("replica_serves", load(&s.replica_serves));
    w.field_u64("shard_restarts", load(&s.shard_restarts));
    w.end_object();
    w.key("heal").begin_object();
    w.key("states").begin_array();
    for (i, (shard_addr, _)) in shards.iter().enumerate() {
        w.begin_object();
        w.field_u64("shard", i as u64);
        w.field_str("addr", shard_addr);
        w.field_str("state", health.get(i).map(|h| h.name()).unwrap_or("up"));
        w.end_object();
    }
    w.end_array();
    w.field_u64("ticks", state.heal.ticks());
    w.field_u64("repairs_completed", state.heal.repairs_completed());
    w.field_u64("last_repair_epoch", state.heal.last_repair_tick());
    w.field_u64("rejoins", state.heal.rejoins());
    w.field_u64("dial_attempts", load(&s.dial_attempts));
    w.field_u64("dial_suppressed", load(&s.dial_suppressed));
    w.end_object();
    w.end_object();
    w.finish()
}

/// Pull `"start_epoch":N` out of a shard's metrics document (the
/// `server` section leads, so the first occurrence is the server's).
pub fn parse_start_epoch(metrics_json: &str) -> Option<u64> {
    let needle = "\"start_epoch\":";
    let i = metrics_json.find(needle)?;
    let rest = &metrics_json[i + needle.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_start_epoch_reads_the_server_section() {
        let m = "{\"server\":{\"addr\":\"127.0.0.1:9\",\"start_epoch\":1234},\"cache\":{}}";
        assert_eq!(parse_start_epoch(m), Some(1234));
        assert_eq!(parse_start_epoch("{}"), None);
    }

    #[test]
    fn dial_backoff_gates_reconnect_attempts() {
        // A dead address: every dial is refused. Without the gate, all
        // 50 calls would dial; with it, the exponential hold-off windows
        // absorb almost all of them without touching the wire.
        let dead = "127.0.0.1:1";
        let cfg = RouterConfig {
            shards: vec![dead.to_string()],
            connect_timeout: Duration::from_millis(50),
            ..RouterConfig::default()
        };
        let state = Arc::new(RouterState::new(&cfg).expect("no journal: state is infallible"));
        for _ in 0..50 {
            let _ = state.shard_call(dead, |c| c.ping());
        }
        let (attempts, suppressed) = state.dial_stats();
        assert!(attempts >= 1, "the first call must really dial");
        assert!(attempts <= 10, "backoff gate must suppress most dials, saw {attempts}");
        assert_eq!(attempts + suppressed, 50, "every call either dials or is suppressed");
    }

    #[test]
    fn router_metrics_document_shape() {
        let cfg = RouterConfig {
            shards: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            replicate: true,
            ..RouterConfig::default()
        };
        let state = Arc::new(RouterState::new(&cfg).expect("no journal: state is infallible"));
        let json = metrics_json(&state, SocketAddr::from(([127, 0, 0, 1], 7)), 42);
        assert_eq!(
            json,
            concat!(
                r#"{"server":{"addr":"127.0.0.1:7","start_epoch":42},"#,
                r#""cluster":{"shards":[{"addr":"127.0.0.1:1","start_epoch":0},"#,
                r#"{"addr":"127.0.0.1:2","start_epoch":0}],"replicate":true,"matrices":0,"#,
                r#""requests":0,"degraded":0,"shard_failures":0,"replica_serves":0,"#,
                r#""shard_restarts":0},"#,
                r#""heal":{"states":[{"shard":0,"addr":"127.0.0.1:1","state":"up"},"#,
                r#"{"shard":1,"addr":"127.0.0.1:2","state":"up"}],"ticks":0,"#,
                r#""repairs_completed":0,"last_repair_epoch":0,"rejoins":0,"#,
                r#""dial_attempts":0,"dial_suppressed":0}}"#,
            )
        );
        for key in [
            "\"server\":{\"addr\":\"127.0.0.1:7\",\"start_epoch\":42}",
            "\"shards\":[{\"addr\":\"127.0.0.1:1\",\"start_epoch\":0}",
            "\"replicate\":true",
            "\"requests\":0",
            "\"degraded\":0",
            "\"heal\":{\"states\":[",
            "\"repairs_completed\":0",
            "\"last_repair_epoch\":0",
            "\"dial_attempts\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(parse_start_epoch(&json), Some(42));
    }
}
