//! A blocking TCP client for the `fs-serve` protocol.
//!
//! Sockets carry read/write timeouts ([`DEFAULT_IO_TIMEOUT`]) so a
//! silent or wedged server surfaces as an [`io::Error`] instead of
//! hanging the caller forever, and [`ServeClient::retrying`] layers
//! jittered exponential backoff plus reconnection over the transient
//! failures of any call (dropped connections, corrupted frames, queue
//! pushback).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use flashsparse::FallbackLevel;
use fs_chaos::Backoff;
use fs_matrix::{CsrMatrix, DenseMatrix};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, ProtoError, Request, Response, SpmmCall,
};

/// Default socket read/write timeout: generous next to any sane request,
/// tiny next to "forever".
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default TCP connect timeout. Dialing is bounded separately from the
/// per-call read/write timeouts: a SYN-dropped peer (firewalled shard,
/// dead host) would otherwise hold the caller for the kernel's minutes-
/// long handshake retry schedule, which a fan-out router cannot afford.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Malformed frame or payload.
    Proto(ProtoError),
    /// The server answered with an error response.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server {code:?}: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether the connection itself is suspect after this error —
    /// transport trouble, a corrupted or short frame — as opposed to a
    /// clean server-side rejection over a healthy stream.
    pub fn needs_reconnect(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Proto(_) | ClientError::Unexpected(_))
    }

    /// Whether the same request is worth another attempt: anything a
    /// fresh connection may cure, queue pushback, and internal server
    /// failures (a crashed worker). What the server rejects
    /// deterministically (bad dimensions, unknown matrix) is not.
    pub fn retryable(&self) -> bool {
        self.needs_reconnect()
            || matches!(
                self,
                ClientError::Server { code: ErrorCode::Internal | ErrorCode::QueueFull, .. }
            )
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// A loaded matrix as seen by the client.
#[derive(Clone, Copy, Debug)]
pub struct LoadedMatrix {
    /// Server-assigned handle.
    pub matrix_id: u64,
    /// Content fingerprint (hi, lo) — equal across tenants for equal content.
    pub fingerprint: (u64, u64),
    /// Nonzeros after server-side deduplication.
    pub nnz: u64,
}

/// One SpMM answer.
#[derive(Clone, Debug)]
pub struct SpmmResult {
    /// Row-major output, `rows × n`.
    pub out: Vec<f32>,
    /// Output rows.
    pub rows: usize,
    /// Output columns.
    pub n: usize,
    /// Whether the server found the translated format in its cache.
    pub cache_hit: bool,
    /// Micro-batch size the request rode in.
    pub batch_size: usize,
    /// Microseconds queued server-side.
    pub queue_micros: u64,
    /// Microseconds of server-side execution.
    pub service_micros: u64,
    /// Which rung of the server's fallback ladder produced the output.
    pub fallback_level: FallbackLevel,
    /// Whether the server verified the output against (or produced it
    /// by) the scalar reference.
    pub verified: bool,
}

/// One GNN inference answer.
#[derive(Clone, Debug)]
pub struct GnnInferResult {
    /// Row-major logits, `rows × classes`, in requested-node order.
    pub scores: Vec<f32>,
    /// Score rows returned.
    pub rows: usize,
    /// Classes per node.
    pub classes: usize,
    /// Per-layer server-side microseconds; all zero on a cache hit.
    pub layer_micros: Vec<u64>,
    /// Whether the server answered from its embedding cache.
    pub cache_hit: bool,
}

/// One scatter-gather SpMM answer from a router.
#[derive(Clone, Debug)]
pub struct ClusterSpmmResult {
    /// Row-major output, `rows × n`; missing rows are zero-filled.
    pub out: Vec<f32>,
    /// Output rows (full matrix row count even when degraded).
    pub rows: usize,
    /// Output columns.
    pub n: usize,
    /// Whether any slab was lost.
    pub degraded: bool,
    /// Present-rows bitmap (see [`Response::ClusterSpmm`]); empty when
    /// not degraded.
    pub present: Vec<u8>,
    /// Shards that returned their slab.
    pub shards_ok: u32,
    /// Shard attempts (including replica retries) that failed.
    pub shards_failed: u32,
}

impl ClusterSpmmResult {
    /// Whether output row `r` was produced by a live shard (always true
    /// on a non-degraded response).
    pub fn row_present(&self, r: usize) -> bool {
        if !self.degraded {
            return true;
        }
        self.present.get(r / 8).is_some_and(|byte| byte & (1 << (r % 8)) != 0)
    }
}

/// A blocking connection to an `fs-serve` server.
pub struct ServeClient {
    stream: TcpStream,
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    connect_timeout: Duration,
}

/// A caller's `rows × cols` view of `values` as the typed matrix the
/// protocol carries; a shape the values do not fill is refused here,
/// before anything is sent.
fn dense(rows: usize, cols: usize, values: Vec<f32>) -> Result<DenseMatrix<f32>, ProtoError> {
    let len = values.len();
    DenseMatrix::try_from_vec(rows, cols, values)
        .ok_or_else(|| ProtoError(format!("{len} values do not fill a {rows}x{cols} matrix")))
}

fn spmm_call(
    tenant: &str,
    matrix_id: u64,
    b_rows: usize,
    n: usize,
    b: &[f32],
    deadline_ms: u32,
) -> Result<SpmmCall, ProtoError> {
    let b = dense(b_rows, n, b.to_vec())?;
    Ok(SpmmCall { tenant: tenant.to_string(), matrix_id, deadline_ms, b })
}

fn configure(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)
}

impl ServeClient {
    /// Connect to `addr` with the default socket timeouts (including
    /// [`DEFAULT_CONNECT_TIMEOUT`] on the dial itself).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ClientError> {
        ServeClient::connect_with_timeout(addr, DEFAULT_CONNECT_TIMEOUT)
    }

    /// Connect to `addr`, bounding the TCP dial by `connect_timeout`.
    /// The timeout applies per resolved address; the first address that
    /// accepts wins, and the last dial error is returned when none does.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
    ) -> Result<ServeClient, ClientError> {
        let mut last: Option<io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, connect_timeout) {
                Ok(stream) => {
                    configure(&stream, Some(DEFAULT_IO_TIMEOUT))?;
                    return Ok(ServeClient {
                        stream,
                        addr: candidate,
                        io_timeout: Some(DEFAULT_IO_TIMEOUT),
                        connect_timeout,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }

    /// Connect, retrying until the server accepts or `timeout` elapses —
    /// for scripts that race server startup (the CI smoke test).
    pub fn connect_with_retry(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> Result<ServeClient, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match ServeClient::connect_with_timeout(addr, Duration::from_millis(250)) {
                Ok(mut client) => {
                    if client.ping().is_ok() {
                        client.connect_timeout = DEFAULT_CONNECT_TIMEOUT;
                        return Ok(client);
                    }
                }
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => {}
            }
            if std::time::Instant::now() >= deadline {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not become ready",
                )));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Override the socket read/write timeouts (`None` blocks forever —
    /// only sensible for debugging).
    pub fn set_io_timeouts(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.io_timeout = timeout;
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Override the TCP dial bound used by [`ServeClient::reconnect`].
    pub fn set_connect_timeout(&mut self, timeout: Duration) {
        self.connect_timeout = timeout;
    }

    /// Tear down the current stream and dial the server again, keeping
    /// the configured timeouts.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        configure(&stream, self.io_timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Run `call` up to `attempts` times, sleeping the backoff's jittered
    /// delay between tries and reconnecting after transport-level
    /// failures. Only [`ClientError::retryable`] errors are retried;
    /// anything else returns immediately, and when the attempts run out
    /// the last error does.
    pub fn retrying<T>(
        &mut self,
        attempts: u32,
        backoff: &mut Backoff,
        mut call: impl FnMut(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut tries = 1;
        loop {
            match call(self) {
                Err(e) if e.retryable() && tries < attempts => {
                    if e.needs_reconnect() {
                        let _ = self.reconnect();
                    }
                    tries += 1;
                    std::thread::sleep(backoff.next_delay());
                }
                done => return done,
            }
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.frame()?)?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Unexpected("server closed the connection".into()))?;
        let resp = Response::decode(&frame)?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Register a CSR matrix under `tenant`.
    pub fn load_matrix(
        &mut self,
        tenant: &str,
        csr: &CsrMatrix<f32>,
    ) -> Result<LoadedMatrix, ClientError> {
        let entries: Vec<(u32, u32, f32)> = csr
            .iter()
            .map(|(r, c, v)| (r as u32, c as u32, v)) // lint: checked-cast - CSR indices are u32 internally
            .collect();
        let req = Request::Load {
            tenant: tenant.to_string(),
            rows: csr.rows() as u32,
            cols: csr.cols() as u32,
            entries,
        };
        match self.call(&req)? {
            Response::Loaded { matrix_id, fingerprint_hi, fingerprint_lo, nnz } => {
                Ok(LoadedMatrix { matrix_id, fingerprint: (fingerprint_hi, fingerprint_lo), nnz })
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// SpMM: multiply the loaded matrix by a row-major `b_rows × n` operand.
    pub fn spmm(
        &mut self,
        tenant: &str,
        matrix_id: u64,
        b_rows: usize,
        n: usize,
        b: &[f32],
        deadline_ms: u32,
    ) -> Result<SpmmResult, ClientError> {
        let call = spmm_call(tenant, matrix_id, b_rows, n, b, deadline_ms)?;
        match self.call(&Request::Spmm { call })? {
            Response::Spmm {
                cache_hit,
                batch_size,
                queue_micros,
                service_micros,
                fallback_level,
                verified,
                out,
            } => Ok(SpmmResult {
                rows: out.rows(),
                n: out.cols(),
                out: out.into_vec(),
                cache_hit,
                batch_size: batch_size as usize,
                queue_micros,
                service_micros,
                fallback_level: FallbackLevel::from_u8(fallback_level),
                verified,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the metrics JSON document.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the trace exports: `(prometheus_text, chrome_trace_json)`.
    /// Both are empty-but-well-formed when the server runs with tracing
    /// disarmed.
    pub fn trace(&mut self) -> Result<(String, String), ClientError> {
        match self.call(&Request::Trace)? {
            Response::Trace { prometheus, chrome } => Ok((prometheus, chrome)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Announce a shard to a router — or probe a shard's inventory.
    /// A router answers `(shard_index, shard_count, [])`; a plain shard
    /// answers `(0, 1, resident)` with its `(fingerprint_hi,
    /// fingerprint_lo, matrix_id)` triples ascending by id.
    pub fn shard_join(
        &mut self,
        shard_addr: &str,
        start_epoch: u64,
    ) -> Result<(u32, u32, Vec<(u64, u64, u64)>), ClientError> {
        let req = Request::ShardJoin { addr: shard_addr.to_string(), start_epoch };
        match self.call(&req)? {
            Response::ShardJoined { shard_index, shard_count, resident } => {
                Ok((shard_index, shard_count, resident))
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Export a registered matrix's `(rows, cols, COO entries)` — the
    /// repair path's source copy when re-replicating a slab.
    pub fn export_matrix(
        &mut self,
        tenant: &str,
        matrix_id: u64,
    ) -> Result<(u32, u32, Vec<(u32, u32, f32)>), ClientError> {
        let req = Request::Export { tenant: tenant.to_string(), matrix_id };
        match self.call(&req)? {
            Response::Export { rows, cols, entries } => Ok((rows, cols, entries)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Evict a registered matrix; `Ok(existed)`. Anti-entropy rejoin
    /// uses this to drop slabs the manifest no longer assigns here.
    pub fn evict_matrix(&mut self, tenant: &str, matrix_id: u64) -> Result<bool, ClientError> {
        let req = Request::Evict { tenant: tenant.to_string(), matrix_id };
        match self.call(&req)? {
            Response::Evicted { existed } => Ok(existed),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Register GNN model weights bound to a loaded graph matrix.
    /// `kind` 0 = GCN (one weight matrix per layer, no scalars),
    /// 1 = AGNN (`weights` = `[w_in, w_out]`, `scalars` = per-layer β).
    /// Returns `(model_id, weight_bytes, layers)`.
    pub fn gnn_register(
        &mut self,
        tenant: &str,
        matrix_id: u64,
        kind: u8,
        weights: Vec<(u32, u32, Vec<f32>)>,
        scalars: Vec<f32>,
    ) -> Result<(u64, u64, u32), ClientError> {
        let weights = weights
            .into_iter()
            .map(|(rows, cols, values)| dense(rows as usize, cols as usize, values))
            .collect::<Result<_, _>>()?;
        let req =
            Request::GnnRegister { tenant: tenant.to_string(), matrix_id, kind, weights, scalars };
        match self.call(&req)? {
            Response::GnnRegistered { model_id, weight_bytes, layers } => {
                Ok((model_id, weight_bytes, layers))
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Run a server-side GNN forward pass over the model's graph.
    /// `precision` 0 = FP32, 1 = TF32, 2 = FP16; `node_ids` empty scores
    /// every node; `features` is row-major `f_rows × f_cols`.
    #[allow(clippy::too_many_arguments)]
    pub fn gnn_infer(
        &mut self,
        tenant: &str,
        model_id: u64,
        precision: u8,
        deadline_ms: u32,
        node_ids: &[u32],
        f_rows: usize,
        f_cols: usize,
        features: &[f32],
    ) -> Result<GnnInferResult, ClientError> {
        let req = Request::GnnInfer {
            tenant: tenant.to_string(),
            model_id,
            precision,
            deadline_ms,
            node_ids: node_ids.to_vec(),
            features: dense(f_rows, f_cols, features.to_vec())?,
        };
        match self.call(&req)? {
            Response::GnnInfer { scores, layer_micros, cache_hit } => Ok(GnnInferResult {
                rows: scores.rows(),
                classes: scores.cols(),
                scores: scores.into_vec(),
                layer_micros,
                cache_hit,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Scatter-gather SpMM through a router. Degraded responses (a slab
    /// lost past its replica) come back `Ok` with `degraded = true` and
    /// the present-rows bitmap set; callers that cannot use partial
    /// output should check [`ClusterSpmmResult::degraded`].
    pub fn cluster_spmm(
        &mut self,
        tenant: &str,
        matrix_id: u64,
        b_rows: usize,
        n: usize,
        b: &[f32],
        deadline_ms: u32,
    ) -> Result<ClusterSpmmResult, ClientError> {
        let call = spmm_call(tenant, matrix_id, b_rows, n, b, deadline_ms)?;
        match self.call(&Request::ClusterSpmm { call })? {
            Response::ClusterSpmm { out, degraded, present, shards_ok, shards_failed } => {
                Ok(ClusterSpmmResult {
                    rows: out.rows(),
                    n: out.cols(),
                    out: out.into_vec(),
                    degraded,
                    present,
                    shards_ok,
                    shards_failed,
                })
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::net::TcpListener;

    fn server_error(code: ErrorCode) -> ClientError {
        ClientError::Server { code, message: String::new() }
    }

    /// Connections completed against `listener` that nobody accepted yet.
    fn pending_connections(listener: &TcpListener) -> usize {
        std::iter::from_fn(|| listener.accept().ok()).count()
    }

    /// `retrying` against a scripted sequence of call results: what is
    /// retried, what reconnects first, what returns at once, and what
    /// comes back when the attempts run out.
    #[test]
    fn retrying_follows_the_retry_policy() {
        // A listener that never answers: dials complete in its backlog,
        // so every (re)connect is one pending connection to count.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let mut client = ServeClient::connect(listener.local_addr().expect("addr")).expect("dial");
        assert_eq!(pending_connections(&listener), 1);
        let mut backoff = Backoff::new(Duration::from_micros(10), Duration::from_micros(20), 0);
        let mut run = |attempts: u32, script: Vec<Result<u32, ClientError>>| {
            let mut script = VecDeque::from(script);
            backoff.reset();
            let result = client.retrying(attempts, &mut backoff, |_| {
                script.pop_front().expect("retrying called past the end of the script")
            });
            (result, script.len(), backoff.attempts())
        };

        // A transport error reconnects and retries; queue pushback and an
        // internal failure retry over the connection they arrived on.
        let broken = || ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "scripted"));
        let (result, unused, delays) = run(
            6,
            vec![
                Err(broken()),
                Err(server_error(ErrorCode::QueueFull)),
                Err(server_error(ErrorCode::Internal)),
                Ok(7),
            ],
        );
        assert_eq!((result.ok(), unused, delays), (Some(7), 0, 3));
        assert_eq!(pending_connections(&listener), 1, "one reconnect, after the transport error");

        // A deterministic rejection returns immediately.
        let (result, unused, delays) =
            run(6, vec![Err(server_error(ErrorCode::BadRequest)), Ok(1)]);
        assert!(matches!(result, Err(ClientError::Server { code: ErrorCode::BadRequest, .. })));
        assert_eq!((unused, delays), (1, 0));

        // Attempts exhausted: the last error comes back, not the first.
        let (result, unused, delays) = run(
            3,
            vec![
                Err(server_error(ErrorCode::QueueFull)),
                Err(server_error(ErrorCode::QueueFull)),
                Err(server_error(ErrorCode::Internal)),
                Ok(1),
            ],
        );
        assert!(matches!(result, Err(ClientError::Server { code: ErrorCode::Internal, .. })));
        assert_eq!((unused, delays), (1, 2));
        assert_eq!(pending_connections(&listener), 0, "server-side errors never redial");
    }
}
