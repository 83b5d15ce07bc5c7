//! The TCP front end: the framed-connection [`Listener`] (accept loop,
//! per-connection handler threads, drain) that both [`Server`] and the
//! `fs-cluster` router run on, and the server's own request → engine →
//! response translation.
//!
//! A payload is touched once each way: the decoded operand matrix is
//! moved into the engine request, the engine's output matrix is moved
//! into the response, and the response is encoded behind its own frame
//! header ([`Response::frame`]) so the socket write sends those bytes.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use fs_chaos::FaultSite;
use fs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};

use crate::engine::{EngineConfig, ServeEngine, SpmmOutcome, SpmmRequest, SubmitError};
use crate::gnn_infer::{GnnError, GnnInferRequest};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, ProtoError, Request, Response, SpmmCall, FRAME_HEADER_BYTES,
};
use fs_gnn::GnnWeights;

/// Default cap on the rows/cols a `Load` request may declare.
///
/// `CsrMatrix` allocates a `rows + 1` row-pointer array no matter how few
/// entries arrive, so dimensions must be bounded *before* any structure
/// is built — otherwise a ~30-byte frame claiming `u32::MAX` rows would
/// make the server allocate ~34 GB. 2^22 rows keeps that array at 32 MiB.
pub const DEFAULT_MAX_LOAD_DIM: u32 = 1 << 22;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Largest rows/cols a `Load` request may declare; anything bigger
    /// is refused with `BadRequest` before any allocation.
    pub max_load_dim: u32,
    /// Engine settings.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_load_dim: DEFAULT_MAX_LOAD_DIM,
            engine: EngineConfig::default(),
        }
    }
}

/// A bound listener for the framed protocol: everything about serving
/// connections that does not depend on what a request means.
pub struct Listener {
    listener: TcpListener,
    addr: SocketAddr,
    start_epoch: u64,
    /// Whether data-plane responses consult the frame chaos sites. Only
    /// [`Server`] turns this on, so a router's fault report draws no
    /// frame sites.
    frame_chaos: bool,
}

impl Listener {
    /// Bind `addr` (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Wall-clock millis at bind: strictly increases across restarts
        // of the same shard, which is all a router needs to tell "the
        // shard I registered slabs on" from "a fresh process that lost
        // them".
        let start_epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64) // lint: checked-cast - clamped
            .unwrap_or(0);
        Ok(Listener { listener, addr, start_epoch, frame_chaos: false })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Milliseconds since the Unix epoch at bind time — the restart
    /// marker echoed in the metrics document's `server` section.
    pub fn start_epoch(&self) -> u64 {
        self.start_epoch
    }

    /// Accept connections, answering every request on each with
    /// `handler` from a thread of its own (named `thread_name`), until a
    /// `Shutdown` request arrives. Then `drain` runs — with no new
    /// connection being accepted and the open ones still able to write —
    /// and every connection thread is unblocked and joined.
    pub fn run(
        self,
        thread_name: &str,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
        drain: impl FnOnce(),
    ) -> io::Result<()> {
        let handler: Arc<Handler> = Arc::new(handler);
        let stop = Arc::new(AtomicBool::new(false));
        // Each handler thread plus a second handle to its stream, kept so
        // the drain below can shut the read half down — an idle peer
        // parked in `read_frame` would otherwise block the join forever.
        let mut conns: Vec<(thread::JoinHandle<()>, TcpStream)> = Vec::new();
        let mut result = Ok(());
        for conn in self.listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            // Reap handlers whose peer has gone, so the list (one thread
            // handle and one socket fd each) is bounded by the connections
            // open now, not by every connection ever accepted.
            let (gone, open): (Vec<_>, Vec<_>) =
                conns.into_iter().partition(|(h, _)| h.is_finished());
            conns = open;
            for (h, _) in gone {
                let _ = h.join();
            }
            let peer = match stream.try_clone() {
                Ok(p) => p,
                Err(_) => continue, // can't track it for drain — refuse it
            };
            let (answer, stopping) = (Arc::clone(&handler), Arc::clone(&stop));
            let (addr, frame_chaos) = (self.addr, self.frame_chaos);
            let spawned = thread::Builder::new()
                .name(thread_name.to_string())
                .spawn(move || handle_connection(stream, &*answer, &stopping, addr, frame_chaos));
            match spawned {
                Ok(handle) => conns.push((handle, peer)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
        }
        drain();
        // Shutting down only the *read* half wakes a handler parked in
        // `read_frame` (it sees clean EOF) while still letting an
        // in-flight response finish writing.
        for (_, peer) in &conns {
            let _ = peer.shutdown(Shutdown::Read);
        }
        for (h, _) in conns {
            let _ = h.join();
        }
        result
    }
}

/// What a front end answers requests with.
type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// One connection: read → decode → `handler` → encode → write, until the
/// peer closes, the stream fails, or a `Shutdown` request has been
/// acknowledged (which sets `stop` and wakes the accept loop).
fn handle_connection(
    stream: TcpStream,
    handler: &Handler,
    stop: &AtomicBool,
    listener_addr: SocketAddr,
    frame_chaos: bool,
) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    // Clean EOF and a broken stream end the connection alike.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let decoded = {
            let _span = fs_trace::span(fs_trace::Site::ServeDecode);
            Request::decode(&payload)
        };
        drop(payload);
        let is_shutdown = matches!(decoded, Ok(Request::Shutdown));
        let response = match decoded {
            Ok(req) => handler(req),
            Err(e) => Response::Error { code: ErrorCode::BadRequest, message: e.to_string() },
        };
        let _span = fs_trace::span(fs_trace::Site::ServeEncode);
        let internal = |e: ProtoError| {
            Response::Error { code: ErrorCode::Internal, message: e.to_string() }.frame()
        };
        let Ok(mut frame) = response.frame().or_else(internal) else { return };
        // `Pong` (readiness probing) and `ShutdownAck` are control plane,
        // exempt from frame chaos.
        let chaos = frame_chaos
            && !is_shutdown
            && !matches!(response, Response::Pong)
            && fs_chaos::chaos_enabled();
        let alive = if chaos {
            chaos_write(&mut writer, &mut frame)
        } else {
            write_frame(&mut writer, &frame).map(|()| true)
        };
        if is_shutdown {
            stop.store(true, Ordering::Release);
            // Wake the accept loop so `run` can drain and exit.
            let _ = TcpStream::connect_timeout(&listener_addr, Duration::from_secs(1));
            return;
        }
        if !matches!(alive, Ok(true)) {
            return;
        }
    }
}

/// Write one response frame under the frame chaos sites. Corruption
/// flips one *payload* byte — past the header, so the checksum
/// guarantees the client detects it as `InvalidData` rather than
/// decoding garbage. Truncation sends a prefix; `Ok(false)` then tells
/// the caller the stream is mid-frame and the connection must close (the
/// client sees an unexpected EOF). Both draws are always evaluated so
/// replay counts stay aligned with the plan.
#[cold]
fn chaos_write(writer: &mut TcpStream, frame: &mut [u8]) -> io::Result<bool> {
    let corrupt = fs_chaos::draw(FaultSite::FrameCorrupt);
    let truncate = fs_chaos::draw(FaultSite::FrameTruncate);
    if let Some(d) = corrupt {
        if frame.len() > FRAME_HEADER_BYTES {
            let span = (frame.len() - FRAME_HEADER_BYTES) as u64;
            let i = FRAME_HEADER_BYTES + d.select(0, span) as usize;
            frame[i] ^= 1u8 << d.select(1, 8);
        }
    }
    let keep = truncate.map(|d| d.select(0, frame.len() as u64) as usize);
    write_frame(writer, &frame[..keep.unwrap_or(frame.len())])?;
    Ok(keep.is_none())
}

/// A bound, running server. Accepts until a `Shutdown` message arrives.
pub struct Server {
    engine: Arc<ServeEngine>,
    listener: Listener,
    max_load_dim: u32,
}

impl Server {
    /// Bind the listener and start the engine. The accept loop runs on
    /// the caller's thread via [`Server::run`].
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        let listener = Listener { frame_chaos: true, ..Listener::bind(&cfg.addr)? };
        Ok(Server {
            engine: Arc::new(ServeEngine::start(cfg.engine)),
            listener,
            max_load_dim: cfg.max_load_dim,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Milliseconds since the Unix epoch at bind time — the restart
    /// marker echoed in the metrics document's `server` section.
    pub fn start_epoch(&self) -> u64 {
        self.listener.start_epoch()
    }

    /// The engine, for in-process use alongside the TCP front end.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Accept and serve connections until a `Shutdown` request arrives,
    /// then finish the engine's queued work and join every connection
    /// thread.
    pub fn run(self) -> io::Result<()> {
        let Server { engine, listener, max_load_dim } = self;
        let (addr, start_epoch) = (listener.local_addr(), listener.start_epoch());
        let draining = Arc::clone(&engine);
        listener.run(
            "fs-serve-conn",
            move |req| dispatch(req, &engine, addr, start_epoch, max_load_dim),
            move || draining.shutdown(),
        )
    }
}

/// Prefix the engine's metrics document with a `server` section carrying
/// the listen address and the bind-time `start_epoch` — the two facts a
/// router needs to recognize a shard (and notice when it restarted).
fn metrics_with_server(engine_json: &str, addr: SocketAddr, start_epoch: u64) -> String {
    let server = format!("\"server\":{{\"addr\":\"{addr}\",\"start_epoch\":{start_epoch}}}");
    match engine_json.strip_prefix('{') {
        Some(rest) if !rest.trim_start().starts_with('}') => format!("{{{server},{rest}"),
        _ => format!("{{{server}}}"),
    }
}

fn dispatch(
    req: Request,
    engine: &Arc<ServeEngine>,
    addr: SocketAddr,
    start_epoch: u64,
    max_load_dim: u32,
) -> Response {
    match req {
        Request::Load { tenant, rows, cols, entries } => {
            // Bound the declared dimensions *before* building anything:
            // CSR allocates `rows + 1` row pointers regardless of how few
            // entries arrived, so an unchecked `rows = u32::MAX` in a
            // tiny frame would be a remote OOM.
            if rows > max_load_dim || cols > max_load_dim {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "matrix dimensions {rows}x{cols} exceed the server cap {max_load_dim}"
                    ),
                };
            }
            let mut coo = CooMatrix::new(rows as usize, cols as usize);
            for (r, c, v) in &entries {
                if *r >= rows || *c >= cols {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("entry ({r},{c}) outside {rows}x{cols}"),
                    };
                }
                coo.push(*r as usize, *c as usize, *v);
            }
            let csr = CsrMatrix::from_coo(&coo.dedup());
            let info = match engine.register_matrix(&tenant, csr) {
                Ok(info) => info,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::ResourceExhausted,
                        message: format!("matrix {e}"),
                    }
                }
            };
            Response::Loaded {
                matrix_id: info.id,
                fingerprint_hi: info.fingerprint.hi(),
                fingerprint_lo: info.fingerprint.lo(),
                nnz: info.nnz as u64,
            }
        }
        Request::Spmm { call: SpmmCall { tenant, matrix_id, deadline_ms, b } } => {
            let request = SpmmRequest { tenant, matrix_id, b, deadline: deadline(deadline_ms) };
            match engine.spmm_blocking(request) {
                Ok(SpmmOutcome::Done(resp)) => Response::Spmm {
                    cache_hit: resp.cache_hit,
                    batch_size: resp.batch_size.min(u32::MAX as usize) as u32,
                    queue_micros: resp.queue_micros,
                    service_micros: resp.service_micros,
                    fallback_level: resp.fallback_level.as_u8(),
                    verified: resp.verified,
                    out: resp.out,
                },
                Ok(SpmmOutcome::TimedOut) => Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline passed while queued".to_string(),
                },
                Ok(SpmmOutcome::Failed(msg)) => {
                    Response::Error { code: ErrorCode::Internal, message: msg }
                }
                Err(SubmitError::QueueFull) => Response::Error {
                    code: ErrorCode::QueueFull,
                    message: "queue full".to_string(),
                },
                Err(SubmitError::UnknownMatrix(id)) => Response::Error {
                    code: ErrorCode::UnknownMatrix,
                    message: format!("unknown matrix id {id}"),
                },
                Err(e) => Response::Error { code: ErrorCode::BadRequest, message: e.to_string() },
            }
        }
        Request::Metrics => Response::Metrics {
            json: metrics_with_server(&engine.metrics_json(), addr, start_epoch),
        },
        Request::Trace => {
            let snap = fs_trace::snapshot();
            Response::Trace {
                prometheus: fs_trace::export::prometheus_text(&snap),
                chrome: fs_trace::export::chrome_trace(&snap),
            }
        }
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShutdownAck,
        // A plain shard answers ShardJoin with its residency inventory:
        // the router's anti-entropy pass compares these fingerprints
        // against its manifest after either side restarts. `shard_index`
        // 0 of `shard_count` 1 marks the reply as shard-local.
        Request::ShardJoin { .. } => Response::ShardJoined {
            shard_index: 0,
            shard_count: 1,
            resident: engine.resident_matrices(),
        },
        Request::ClusterSpmm { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "cluster SpMM needs an fs-cluster router; this is a plain shard".to_string(),
        },
        Request::Export { tenant: _, matrix_id } => match engine.export_matrix(matrix_id) {
            Some((rows, cols, entries)) => Response::Export {
                rows: rows.min(u32::MAX as usize) as u32,
                cols: cols.min(u32::MAX as usize) as u32,
                entries,
            },
            None => Response::Error {
                code: ErrorCode::UnknownMatrix,
                message: format!("unknown matrix id {matrix_id}"),
            },
        },
        Request::Evict { tenant: _, matrix_id } => {
            Response::Evicted { existed: engine.evict_matrix(matrix_id) }
        }
        Request::GnnRegister { tenant, matrix_id, kind, weights, scalars } => {
            let model = match kind {
                0 => {
                    if !scalars.is_empty() {
                        return Response::Error {
                            code: ErrorCode::BadRequest,
                            message: "GCN models take no scalar parameters".to_string(),
                        };
                    }
                    GnnWeights::gcn(weights)
                }
                1 => {
                    let count = weights.len();
                    let Ok([w_in, w_out]) = <[DenseMatrix<f32>; 2]>::try_from(weights) else {
                        return Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!(
                                "AGNN needs exactly 2 weight matrices (w_in, w_out), got {count}"
                            ),
                        };
                    };
                    GnnWeights::Agnn { w_in, betas: scalars, w_out }
                }
                k => {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("unknown model kind {k} (0=GCN, 1=AGNN)"),
                    }
                }
            };
            match engine.gnn_register(&tenant, matrix_id, model) {
                Ok(info) => Response::GnnRegistered {
                    model_id: info.id,
                    weight_bytes: info.weight_bytes as u64,
                    layers: info.layers.min(u32::MAX as usize) as u32,
                },
                Err(e) => gnn_error(e),
            }
        }
        Request::GnnInfer { tenant, model_id, precision, deadline_ms, node_ids, features } => {
            let req = GnnInferRequest {
                tenant,
                model_id,
                precision,
                deadline: deadline(deadline_ms),
                node_ids,
                features,
            };
            let out = match engine.gnn_infer(req) {
                Ok(out) => out,
                Err(e) => return gnn_error(e),
            };
            match DenseMatrix::try_from_vec(out.rows as usize, out.classes as usize, out.scores) {
                Some(scores) => Response::GnnInfer {
                    scores,
                    layer_micros: out.layer_micros,
                    cache_hit: out.cache_hit,
                },
                None => Response::Error {
                    code: ErrorCode::Internal,
                    message: "score dims disagree with data length".to_string(),
                },
            }
        }
    }
}

/// A wire deadline: 0 means "the engine's default".
fn deadline(deadline_ms: u32) -> Option<Duration> {
    (deadline_ms != 0).then(|| Duration::from_millis(u64::from(deadline_ms)))
}

fn gnn_error(e: GnnError) -> Response {
    let code = match &e {
        GnnError::UnknownGraph(_) | GnnError::UnknownModel(_) => ErrorCode::UnknownMatrix,
        GnnError::BadRequest(_) => ErrorCode::BadRequest,
        GnnError::ResourceExhausted(_) => ErrorCode::ResourceExhausted,
        GnnError::QueueFull => ErrorCode::QueueFull,
        GnnError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        GnnError::Internal(_) => ErrorCode::Internal,
    };
    Response::Error { code, message: e.to_string() }
}
