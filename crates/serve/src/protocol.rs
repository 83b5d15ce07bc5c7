//! The length-prefixed binary protocol `fs-serve` speaks over TCP, and
//! the one module that knows its layout.
//!
//! **Framing.** Every message is `[u32 LE payload length][u64 LE FNV-1a
//! checksum][payload]`; the payload's first byte is the opcode, the rest
//! is the opcode's body. A message is encoded straight behind a reserved
//! 12-byte header which is patched with length and checksum afterwards
//! ([`Request::frame`] / [`Response::frame`]), so [`write_frame`] sends
//! the bytes it is given. Frames above [`MAX_FRAME_BYTES`] are refused
//! before allocation, so a garbage peer cannot OOM the server. The
//! checksum turns silent wire corruption (a flipped byte anywhere in the
//! payload — which the chaos layer injects deliberately) into a clean
//! [`io::ErrorKind::InvalidData`] error the client can retry, instead of
//! a plausibly-decoded frame carrying wrong numbers.
//!
//! **Wire forms.** [`Wire`] is implemented once per shape that appears
//! in a body: little-endian integers and IEEE-754 bit patterns, `bool`
//! as one byte, [`Counted<N>`] for strings and lists behind an `N`-typed
//! length (`String` on its own is `u16`-counted, [`CooEntries`] is
//! `u64`-counted), tuples, `Option<T>` behind a one-byte tag, and
//! [`DenseMatrix<f32>`] as `u32 rows ‖ u32 cols ‖ rows·cols f32` moved as
//! one slab. A dense payload is a typed
//! field, so dimensions that disagree with the data length cannot be
//! written down, let alone sent.
//!
//! **Messages.** Each message is declared once — variant, opcode, the
//! response a request draws, fields in wire order — in the `wire_enum!`
//! invocations below; the enum, the encoder and the decoder are all
//! derived from that declaration, and `fs-analyze` reads the same table.
//! Adding opcode 13 is one declaration here plus its dispatch arm. The
//! declaration macros are exported, so a format that is not a socket
//! message — the cluster journal's records — is declared the same way and
//! moves through the same [`encode`] / [`frame`] / [`decode`].

use std::io::{self, Read, Write};
use std::marker::PhantomData;

use fs_matrix::DenseMatrix;

/// Refuse frames larger than this (256 MiB) before allocating.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// A malformed frame or payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

// --- framing ---

/// Bytes of the frame header: a `u32` little-endian payload length
/// followed by a `u64` little-endian FNV-1a payload checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

/// FNV-1a over `bytes`: the frame integrity checksum. Not cryptographic
/// — it guards against corruption, not forgery.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Patch the header of `frame` — [`FRAME_HEADER_BYTES`] reserved bytes
/// with the payload already behind them — with the payload's length and
/// checksum.
fn seal_frame(frame: &mut [u8]) -> io::Result<()> {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    let len = u32::try_from(payload.len()).ok().filter(|&n| n as usize <= MAX_FRAME_BYTES);
    let Some(len) = len else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME_BYTES"));
    };
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    Ok(())
}

/// The complete wire bytes of one frame around a copy of `payload` — for
/// payloads that were not encoded behind their own header.
pub fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    out.extend_from_slice(payload);
    seal_frame(&mut out)?;
    Ok(out)
}

/// Send one complete frame, as [`frame`] or [`frame_bytes`] built it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Read one length-prefixed frame and verify its checksum. `Ok(None)` on
/// clean EOF at a frame boundary (the peer closed between messages); an
/// [`io::ErrorKind::InvalidData`] error when the payload does not match
/// its checksum (wire corruption).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(&header[4..12]);
    let checksum = u64::from_le_bytes(checksum);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME_BYTES"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if fnv1a64(&payload) != checksum {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame checksum mismatch"));
    }
    Ok(Some(payload))
}

// --- wire forms ---

/// A read position in a frame payload.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    reserved: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `data` from its first byte.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0, reserved: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        // `pos <= data.len()` is an invariant, so `len - pos` cannot
        // underflow; comparing this way (instead of `pos + n > len`)
        // cannot wrap when an adversarial header implies a byte count
        // near `usize::MAX`.
        if n > self.data.len() - self.pos {
            return Err(ProtoError(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// An empty list for `declared` items. The capacity never needs more
    /// memory than the payload has bytes left, so a count field set to
    /// `u64::MAX` in a 30-byte frame reserves next to nothing; a list
    /// that really is that long grows as its items arrive.
    fn list<T>(&mut self, declared: usize) -> Vec<T> {
        let fit = (self.data.len() - self.pos) / std::mem::size_of::<T>().max(1);
        let items = Vec::with_capacity(declared.min(fit));
        self.reserved += items.capacity() * std::mem::size_of::<T>();
        items
    }

    /// Bytes of list capacity reserved so far on the strength of count
    /// fields alone — what the hostile-bytes sweep holds to the payload
    /// length.
    pub fn reserved_bytes(&self) -> usize {
        self.reserved
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ProtoError(format!("{} trailing bytes", self.data.len() - self.pos)))
        }
    }
}

/// One way of laying values of `T` out on the wire. A type with a single
/// layout is its own form (`u32`, `String`, [`DenseMatrix<f32>`], every
/// message); a field whose layout is not implied by its type names the
/// form in its declaration (`json: String as Counted<u32>`).
pub trait Wire<T = Self> {
    /// Append `v` to `out`.
    fn put(v: &T, out: &mut Vec<u8>) -> Result<(), ProtoError>;
    /// Read one value at the cursor.
    fn get(c: &mut Cursor<'_>) -> Result<T, ProtoError>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(v: &$t, out: &mut Vec<u8>) -> Result<(), ProtoError> {
                out.extend_from_slice(&v.to_le_bytes());
                Ok(())
            }
            fn get(c: &mut Cursor<'_>) -> Result<$t, ProtoError> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, f32);

impl Wire for bool {
    fn put(v: &bool, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        out.push(u8::from(*v));
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<bool, ProtoError> {
        Ok(u8::get(c)? != 0)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(v: &(A, B), out: &mut Vec<u8>) -> Result<(), ProtoError> {
        A::put(&v.0, out)?;
        B::put(&v.1, out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<(A, B), ProtoError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(v: &(A, B, C), out: &mut Vec<u8>) -> Result<(), ProtoError> {
        A::put(&v.0, out)?;
        B::put(&v.1, out)?;
        C::put(&v.2, out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<(A, B, C), ProtoError> {
        Ok((A::get(c)?, B::get(c)?, C::get(c)?))
    }
}

/// One tag byte — 0 for `None`, 1 for `Some` — then the value if there
/// is one.
impl<T: Wire> Wire for Option<T> {
    fn put(v: &Option<T>, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        out.push(u8::from(v.is_some()));
        v.iter().try_for_each(|value| T::put(value, out))
    }
    fn get(c: &mut Cursor<'_>) -> Result<Option<T>, ProtoError> {
        match u8::get(c)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(c)?)),
            tag => Err(ProtoError(format!("unknown option tag {tag}"))),
        }
    }
}

/// The form of a string or list behind a length of integer type `N`:
/// `N` little-endian, then that many UTF-8 bytes or encoded items.
pub struct Counted<N>(PhantomData<N>);

impl<N: Wire + TryFrom<usize> + TryInto<usize>> Counted<N> {
    fn put_len(len: usize, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        let n = N::try_from(len).map_err(|_| {
            ProtoError(format!("length {len} overflows its {} prefix", std::any::type_name::<N>()))
        })?;
        N::put(&n, out)
    }

    fn get_len(c: &mut Cursor<'_>) -> Result<usize, ProtoError> {
        N::get(c)?.try_into().map_err(|_| ProtoError("length prefix overflows usize".into()))
    }
}

impl<N: Wire + TryFrom<usize> + TryInto<usize>> Wire<String> for Counted<N> {
    fn put(v: &String, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        Self::put_len(v.len(), out)?;
        out.extend_from_slice(v.as_bytes());
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, ProtoError> {
        let len = Self::get_len(c)?;
        String::from_utf8(c.take(len)?.to_vec())
            .map_err(|_| ProtoError("invalid UTF-8 string".into()))
    }
}

impl<N: Wire + TryFrom<usize> + TryInto<usize>, T: Wire> Wire<Vec<T>> for Counted<N> {
    fn put(v: &Vec<T>, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        Self::put_len(v.len(), out)?;
        v.iter().try_for_each(|item| T::put(item, out))
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<T>, ProtoError> {
        let n = Self::get_len(c)?;
        let mut items = c.list(n);
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

impl Wire for String {
    fn put(v: &String, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        Counted::<u16>::put(v, out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, ProtoError> {
        Counted::<u16>::get(c)
    }
}

/// COO entries `(row, col, value)` — the one matrix body [`Request::Load`]
/// and [`Response::Export`] share, behind a `u64` count.
pub type CooEntries = Vec<(u32, u32, f32)>;

impl Wire for CooEntries {
    fn put(v: &CooEntries, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        Counted::<u64>::put(v, out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<CooEntries, ProtoError> {
        Counted::<u64>::get(c)
    }
}

/// `u32 rows ‖ u32 cols ‖ rows·cols f32`, row-major. The values move as
/// one little-endian slab: a bulk fill on encode, one pass straight into
/// the matrix's own buffer on decode.
impl Wire for DenseMatrix<f32> {
    fn put(m: &DenseMatrix<f32>, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        for dim in [m.rows(), m.cols()] {
            let dim = u32::try_from(dim)
                .map_err(|_| ProtoError(format!("matrix dimension {dim} does not fit u32")))?;
            u32::put(&dim, out)?;
        }
        let start = out.len();
        out.resize(start + 4 * m.len(), 0);
        for (slot, v) in out[start..].chunks_exact_mut(4).zip(m.as_slice()) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<DenseMatrix<f32>, ProtoError> {
        let (rows, cols) = (u32::get(c)? as usize, u32::get(c)? as usize);
        let bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| ProtoError(format!("matrix {rows}x{cols} overflows usize")))?;
        let values =
            c.take(bytes)?.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        DenseMatrix::try_from_vec(rows, cols, values.collect())
            .ok_or_else(|| ProtoError(format!("matrix {rows}x{cols} disagrees with its slab")))
    }
}

// --- messages ---

/// The form a field is encoded in: its own type, unless the declaration
/// names one with `as`.
#[macro_export]
macro_rules! form {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $form:ty) => {
        $form
    };
}

/// Declare a struct whose fields, in declaration order, are its layout.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident : $ty:ty $(as $form:ty)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty),*
        }

        impl $crate::protocol::Wire for $name {
            fn put(v: &$name, out: &mut Vec<u8>) -> Result<(), $crate::protocol::ProtoError> {
                let $name { $($field),* } = v;
                $(<$crate::form!($ty $(, $form)?) as $crate::protocol::Wire<$ty>>::put($field, out)?;)*
                Ok(())
            }
            fn get(
                c: &mut $crate::protocol::Cursor<'_>,
            ) -> Result<$name, $crate::protocol::ProtoError> {
                Ok($name {
                    $($field: <$crate::form!($ty $(, $form)?) as $crate::protocol::Wire<$ty>>::get(c)?),*
                })
            }
        }
    };
}

/// Declare an enum whose layout is `u8 tag ‖ the variant's fields in
/// declaration order`: `Variant = tag => Reply { field: Type as Form }`.
/// `=> Reply` names the response variant a request draws (documented on
/// the variant, read by `fs-analyze`); `as Form` is only needed where
/// the type alone does not fix the layout. `$what` names the tag in the
/// unknown-tag error.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal $(=> $reply:ident)? $({
                    $($(#[$fmeta:meta])* $field:ident : $ty:ty $(as $form:ty)?),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $(#[doc = concat!("\n\nAnswered by [`Response::", stringify!($reply), "`].")])?
                $variant $({ $($(#[$fmeta])* $field: $ty),* })?
            ),*
        }

        impl $crate::protocol::Wire for $name {
            fn put(v: &$name, out: &mut Vec<u8>) -> Result<(), $crate::protocol::ProtoError> {
                match v {
                    $($name::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($(<$crate::form!($ty $(, $form)?) as $crate::protocol::Wire<$ty>>::put($field, out)?;)*)?
                    })*
                }
                Ok(())
            }
            fn get(
                c: &mut $crate::protocol::Cursor<'_>,
            ) -> Result<$name, $crate::protocol::ProtoError> {
                match <u8 as $crate::protocol::Wire>::get(c)? {
                    $($tag => Ok($name::$variant $({
                        $($field: <$crate::form!($ty $(, $form)?) as $crate::protocol::Wire<$ty>>::get(c)?),*
                    })?),)*
                    tag => Err($crate::protocol::ProtoError(format!(
                        concat!("unknown ", $what, " {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

/// Encode `message` behind `header` reserved bytes.
fn encode_behind<M: Wire>(message: &M, header: usize) -> Result<Vec<u8>, ProtoError> {
    let mut out = vec![0; header];
    M::put(message, &mut out)?;
    Ok(out)
}

/// Encode any declared message to a frame payload.
pub fn encode<M: Wire>(message: &M) -> Result<Vec<u8>, ProtoError> {
    encode_behind(message, 0)
}

/// Encode any declared message as one complete frame, ready for
/// [`write_frame`]: the payload is written once, behind a reserved header
/// that is then patched with its length and checksum.
pub fn frame<M: Wire>(message: &M) -> Result<Vec<u8>, ProtoError> {
    let mut frame = encode_behind(message, FRAME_HEADER_BYTES)?;
    seal_frame(&mut frame).map_err(|e| ProtoError(e.to_string()))?;
    Ok(frame)
}

/// Decode a frame payload that is exactly one `M`: truncation and
/// trailing bytes are both errors.
pub fn decode<M: Wire>(payload: &[u8]) -> Result<M, ProtoError> {
    let mut c = Cursor::new(payload);
    let message = M::get(&mut c)?;
    c.done()?;
    Ok(message)
}

/// Give a message enum [`encode`], [`frame`] and [`decode`] as methods.
/// `$check`, when given, validates what the field types cannot before
/// anything is encoded.
macro_rules! framed_message {
    ($name:ident $(, $check:path)?) => {
        impl $name {
            /// Encode to a frame payload.
            pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
                $($check(self)?;)?
                encode(self)
            }

            /// Encode as one complete frame, ready for [`write_frame`].
            pub fn frame(&self) -> Result<Vec<u8>, ProtoError> {
                $($check(self)?;)?
                frame(self)
            }

            /// Decode a frame payload.
            pub fn decode(payload: &[u8]) -> Result<$name, ProtoError> {
                decode(payload)
            }
        }
    };
}

wire_struct! {
    /// What an SpMM needs, whether it is asked of a shard
    /// ([`Request::Spmm`]) or of a router ([`Request::ClusterSpmm`]).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SpmmCall {
        /// Tenant the work is accounted to.
        pub tenant: String,
        /// Handle from [`Response::Loaded`].
        pub matrix_id: u64,
        /// Deadline in milliseconds (0 = the server's or router's
        /// default); at a router also the per-shard wait bound during
        /// scatter.
        pub deadline_ms: u32,
        /// Dense operand; its row count must equal the matrix's column
        /// count.
        pub b: DenseMatrix<f32>,
    }
}

wire_enum! {
    /// Client → server messages.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request: "request tag" {
        /// Register a COO matrix.
        Load = 1 => Loaded {
            /// Tenant the matrix (and later work) is accounted to.
            tenant: String,
            /// Matrix rows.
            rows: u32,
            /// Matrix columns.
            cols: u32,
            /// COO entries `(row, col, value)`.
            entries: CooEntries,
        },
        /// SpMM against a registered matrix.
        Spmm = 2 => Spmm {
            /// The call's arguments.
            call: SpmmCall,
        },
        /// Fetch the metrics JSON document.
        Metrics = 3 => Metrics,
        /// Liveness probe.
        Ping = 4 => Pong,
        /// Ask the server to drain and exit.
        Shutdown = 5 => ShutdownAck,
        /// Fetch the trace exports (Prometheus text + chrome trace JSON) —
        /// the metrics path's tracing extension. Empty dumps when the
        /// server runs with tracing disarmed.
        Trace = 6 => Trace,
        /// Announce a shard to a router: the shard's listen address and its
        /// `start_epoch` (from the metrics document), so the router can tell
        /// a restarted shard from the one it registered slabs on. Plain
        /// `fs-serve` shards answer with their resident fingerprints (an
        /// anti-entropy inventory the router checks against its manifest);
        /// routers answer with the shard's ring position.
        ShardJoin = 7 => ShardJoined {
            /// The shard's listen address (`host:port`).
            addr: String,
            /// The shard's start epoch (milliseconds since the Unix epoch at
            /// bind time; strictly increases across restarts).
            start_epoch: u64,
        },
        /// SpMM against a row-partitioned matrix: the router scatters the
        /// dense operand to every shard holding a slab and gathers the row
        /// slabs back. Plain shards reject this with
        /// [`ErrorCode::BadRequest`].
        ClusterSpmm = 8 => ClusterSpmm {
            /// The call's arguments (`matrix_id` is router-issued).
            call: SpmmCall,
        },
        /// Export a registered matrix as COO entries — the repair path's
        /// source copy when re-replicating a slab from a surviving holder.
        Export = 9 => Export {
            /// Tenant the matrix was registered under.
            tenant: String,
            /// Handle from [`Response::Loaded`].
            matrix_id: u64,
        },
        /// Evict a registered matrix (anti-entropy: a rejoining shard drops
        /// slabs the manifest no longer assigns to it).
        Evict = 10 => Evicted {
            /// Tenant the matrix was registered under.
            tenant: String,
            /// Handle from [`Response::Loaded`].
            matrix_id: u64,
        },
        /// Register trained GNN weights against an already-loaded graph.
        /// The graph (for GCN: the normalized adjacency; for AGNN: the
        /// normalized adjacency doubling as the attention mask) must have
        /// been registered with [`Request::Load`] first.
        GnnRegister = 11 => GnnRegistered {
            /// Tenant the model is accounted to.
            tenant: String,
            /// Graph handle from [`Response::Loaded`].
            matrix_id: u64,
            /// Model kind: 0 = GCN, 1 = AGNN.
            kind: u8,
            /// Dense weight matrices in forward order: per-layer `W` for
            /// GCN; `[w_in, w_out]` for AGNN.
            weights: Vec<DenseMatrix<f32>> as Counted<u16>,
            /// Trained scalars: empty for GCN; per-attention-layer β for
            /// AGNN (the count sets the number of attention layers).
            scalars: Vec<f32> as Counted<u16>,
        },
        /// Run a full multi-layer forward pass server-side. Aggregation
        /// always spans the full registered graph; `node_ids` only selects
        /// which rows of the logits come back (mini-batch scoring).
        GnnInfer = 12 => GnnInfer {
            /// Tenant the work is accounted to.
            tenant: String,
            /// Model handle from [`Response::GnnRegistered`].
            model_id: u64,
            /// Kernel precision: 0 = FP32 (CUDA-core reference),
            /// 1 = TF32 (FlashSparse `m16n8k4`), 2 = FP16 (FlashSparse
            /// `m16n8k8`) — Table 8's accuracy/latency knob, per request.
            precision: u8,
            /// Deadline in milliseconds (0 = server default).
            deadline_ms: u32,
            /// Node ids whose scores to return; empty = all nodes.
            node_ids: Vec<u32> as Counted<u32>,
            /// Node features: rows must equal the graph's node count,
            /// columns the model's input dim.
            features: DenseMatrix<f32>,
        },
    }
}

wire_enum! {
    /// Server → client messages.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response: "response tag" {
        /// A matrix was registered.
        Loaded = 128 {
            /// Handle for subsequent [`Request::Spmm`]s.
            matrix_id: u64,
            /// High 64 bits of the content fingerprint.
            fingerprint_hi: u64,
            /// Low 64 bits of the content fingerprint.
            fingerprint_lo: u64,
            /// Nonzeros after deduplication.
            nnz: u64,
        },
        /// An SpMM completed.
        Spmm = 129 {
            /// Whether the translated format came from the cache.
            cache_hit: bool,
            /// Micro-batch size this request rode in.
            batch_size: u32,
            /// Microseconds queued.
            queue_micros: u64,
            /// Microseconds of execution.
            service_micros: u64,
            /// Which fallback-ladder rung produced the output
            /// (`flashsparse::FallbackLevel` wire encoding: 0 = tuned,
            /// 1 = default variant, 2 = scalar reference).
            fallback_level: u8,
            /// Whether the output passed server-side verification (scalar
            /// outputs report `true`: they *are* the reference).
            verified: bool,
            /// The product.
            out: DenseMatrix<f32>,
        },
        /// The metrics document.
        Metrics = 130 {
            /// JSON text.
            json: String as Counted<u32>,
        },
        /// Ping reply.
        Pong = 131,
        /// Shutdown acknowledged; the server drains after sending this.
        ShutdownAck = 132,
        /// The trace exports.
        Trace = 133 {
            /// Prometheus text exposition dump.
            prometheus: String as Counted<u32>,
            /// chrome://tracing `trace_events` JSON document.
            chrome: String as Counted<u32>,
        },
        /// A shard was registered with the router — or, when sent by a plain
        /// shard, the shard's residency inventory.
        ShardJoined = 134 {
            /// The shard's position in the router's ring (0 from a plain
            /// shard answering with its inventory).
            shard_index: u32,
            /// Total shards the router now knows (1 from a plain shard).
            shard_count: u32,
            /// Already-resident matrices as `(fingerprint_hi,
            /// fingerprint_lo, matrix_id)` triples, ascending by id. A
            /// router's reply leaves this empty; a shard's reply is the
            /// anti-entropy inventory the router reconciles on rejoin.
            resident: Vec<(u64, u64, u64)> as Counted<u32>,
        },
        /// A scatter-gather SpMM completed (possibly degraded).
        ClusterSpmm = 135 {
            /// The product, with the full matrix's row count even when
            /// degraded; rows whose slab was lost are zero-filled and
            /// cleared in `present`.
            out: DenseMatrix<f32>,
            /// Whether any slab was lost (some rows are missing).
            degraded: bool,
            /// Present-rows bitmap, `ceil(rows / 8)` bytes, row `r` present
            /// iff bit `r % 8` of byte `r / 8` is set. Empty when not
            /// degraded (all rows present).
            present: Vec<u8> as Counted<u32>,
            /// Shards that returned their slab.
            shards_ok: u32,
            /// Shards (counting replica retries) that failed or timed out.
            shards_failed: u32,
        },
        /// A registered matrix's COO entries.
        Export = 136 {
            /// Matrix rows.
            rows: u32,
            /// Matrix columns.
            cols: u32,
            /// COO entries `(row, col, value)` in CSR iteration order.
            entries: CooEntries,
        },
        /// An eviction completed.
        Evicted = 137 {
            /// Whether the matrix existed (and was dropped).
            existed: bool,
        },
        /// A GNN model was registered.
        GnnRegistered = 138 {
            /// Handle for subsequent [`Request::GnnInfer`]s.
            model_id: u64,
            /// Resident parameter bytes charged to the registry budget.
            weight_bytes: u64,
            /// Timed layers a forward pass of this model reports.
            layers: u32,
        },
        /// A GNN inference completed.
        GnnInfer = 139 {
            /// Logits, one row per requested node (all nodes when none
            /// were named) in `node_ids` order, one column per class.
            scores: DenseMatrix<f32>,
            /// Per-layer execution microseconds, forward order. Zeros on an
            /// embedding-cache hit (no layers ran).
            layer_micros: Vec<u64> as Counted<u16>,
            /// Whether the logits came from the embedding cache.
            cache_hit: bool,
        },
        /// The request failed.
        Error = 255 {
            /// Machine-readable reason.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
    }
}

wire_enum! {
    /// Why a request failed.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ErrorCode: "error code" {
        /// Admission control refused: the queue is full.
        QueueFull = 1,
        /// The request's deadline passed before execution.
        DeadlineExceeded = 2,
        /// A server-side failure (worker panic, internal error).
        Internal = 3,
        /// The request was malformed.
        BadRequest = 4,
        /// No matrix with that id.
        UnknownMatrix = 5,
        /// A server-side resource budget (registered-matrix count or bytes)
        /// is exhausted.
        ResourceExhausted = 6,
    }
}

/// The one thing about a response its field types cannot say: a degraded
/// [`Response::ClusterSpmm`] carries one bitmap bit per output row.
fn check_present_bitmap(response: &Response) -> Result<(), ProtoError> {
    match response {
        Response::ClusterSpmm { out, degraded: true, present, .. }
            if present.len() != out.rows().div_ceil(8) =>
        {
            Err(ProtoError("present bitmap length disagrees with rows".into()))
        }
        _ => Ok(()),
    }
}

framed_message!(Request);
framed_message!(Response, check_present_bitmap);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let bytes = r.encode().expect("encode");
        assert_eq!(Request::decode(&bytes).expect("decode"), r);
    }

    fn roundtrip_resp(r: Response) {
        let bytes = r.encode().expect("encode");
        assert_eq!(Response::decode(&bytes).expect("decode"), r);
    }

    fn dense(rows: usize, cols: usize, values: &[f32]) -> DenseMatrix<f32> {
        DenseMatrix::from_f32_slice(rows, cols, values)
    }

    fn call(matrix_id: u64, deadline_ms: u32, b: DenseMatrix<f32>) -> SpmmCall {
        SpmmCall { tenant: "t".into(), matrix_id, deadline_ms, b }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Load {
            tenant: "tenant-α".into(),
            rows: 16,
            cols: 8,
            entries: vec![(0, 1, 2.5), (15, 7, -0.125)],
        });
        roundtrip_req(Request::Spmm {
            call: call(42, 250, dense(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
        });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Trace);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::ShardJoin { addr: "127.0.0.1:7950".into(), start_epoch: 1_699 });
        roundtrip_req(Request::ClusterSpmm {
            call: call(11, 500, dense(2, 2, &[1.0, 0.0, -2.5, 4.0])),
        });
        roundtrip_req(Request::Export { tenant: "t".into(), matrix_id: 3 });
        roundtrip_req(Request::Evict { tenant: "t".into(), matrix_id: 4 });
    }

    /// `ClusterSpmm` is `Spmm` under another opcode: one field list.
    #[test]
    fn spmm_and_cluster_spmm_share_one_body() {
        let c = call(7, 9, dense(1, 2, &[0.5, -0.5]));
        let shard = Request::Spmm { call: c.clone() }.encode().expect("encode");
        let router = Request::ClusterSpmm { call: c }.encode().expect("encode");
        assert_eq!((shard[0], router[0]), (2, 8));
        assert_eq!(shard[1..], router[1..]);
    }

    #[test]
    fn gnn_requests_roundtrip() {
        roundtrip_req(Request::GnnRegister {
            tenant: "t".into(),
            matrix_id: 5,
            kind: 0,
            weights: vec![dense(2, 3, &[0.5; 6]), dense(3, 2, &[-1.25; 6])],
            scalars: vec![],
        });
        roundtrip_req(Request::GnnRegister {
            tenant: "t".into(),
            matrix_id: 6,
            kind: 1,
            weights: vec![dense(4, 8, &[0.125; 32]), dense(8, 2, &[2.0; 16])],
            scalars: vec![1.0, 0.75],
        });
        roundtrip_req(Request::GnnInfer {
            tenant: "t".into(),
            model_id: 9,
            precision: 2,
            deadline_ms: 500,
            node_ids: vec![0, 3, 7],
            features: dense(2, 2, &[1.0, 0.0, -0.5, 4.0]),
        });
        roundtrip_req(Request::GnnInfer {
            tenant: "t".into(),
            model_id: 9,
            precision: 0,
            deadline_ms: 0,
            node_ids: vec![],
            features: dense(1, 3, &[0.0, f32::MAX, -1.0]),
        });
    }

    #[test]
    fn gnn_responses_roundtrip() {
        roundtrip_resp(Response::GnnRegistered { model_id: 1, weight_bytes: 4096, layers: 3 });
        roundtrip_resp(Response::GnnInfer {
            scores: dense(2, 2, &[0.5, -0.5, 1.0, 0.0]),
            layer_micros: vec![10, 20, 30],
            cache_hit: false,
        });
        roundtrip_resp(Response::GnnInfer {
            scores: dense(0, 4, &[]),
            layer_micros: vec![],
            cache_hit: true,
        });
    }

    /// A matrix whose dims disagree with its data cannot be built any
    /// more; what encode still has to refuse is a dimension (or a list)
    /// its prefix cannot carry — an error, never a wrapped count.
    #[test]
    fn gnn_dims_are_validated_at_encode() {
        let wide = DenseMatrix::try_from_vec(0, u32::MAX as usize + 1, Vec::new()).expect("empty");
        let bad_weights = Request::GnnRegister {
            tenant: "t".into(),
            matrix_id: 1,
            kind: 0,
            weights: vec![wide.clone()],
            scalars: vec![],
        };
        assert!(bad_weights.encode().is_err());
        let too_many = Request::GnnRegister {
            tenant: "t".into(),
            matrix_id: 1,
            kind: 0,
            weights: vec![],
            scalars: vec![0.0; u16::MAX as usize + 1],
        };
        assert!(too_many.encode().is_err());
        let bad_features = Request::GnnInfer {
            tenant: "t".into(),
            model_id: 1,
            precision: 0,
            deadline_ms: 0,
            node_ids: vec![],
            features: wide.clone(),
        };
        assert!(bad_features.encode().is_err());
        let bad_scores =
            Response::GnnInfer { scores: wide, layer_micros: vec![], cache_hit: false };
        assert!(bad_scores.encode().is_err());
    }

    /// Same adversarial-length shape as the SpMM test: dims that multiply
    /// past `u32` must fail cleanly in the cursor, not wrap or OOM.
    #[test]
    fn adversarial_gnn_lengths_error_cleanly() {
        let mut payload = vec![12]; // GnnInfer
        payload.extend_from_slice(&0u16.to_le_bytes()); // empty tenant
        payload.extend_from_slice(&1u64.to_le_bytes()); // model_id
        payload.push(0); // precision
        payload.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms
        payload.extend_from_slice(&0u32.to_le_bytes()); // node_ids count
        payload.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes()); // feature rows
        payload.extend_from_slice(&0x8000_0001u32.to_le_bytes()); // feature cols
        assert!(Request::decode(&payload).is_err());
        // A weight matrix with adversarial dims inside GnnRegister.
        let mut payload = vec![11]; // GnnRegister
        payload.extend_from_slice(&0u16.to_le_bytes()); // empty tenant
        payload.extend_from_slice(&1u64.to_le_bytes()); // matrix_id
        payload.push(0); // kind
        payload.extend_from_slice(&1u16.to_le_bytes()); // one weight
        payload.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes()); // rows
        payload.extend_from_slice(&0x8000_0001u32.to_le_bytes()); // cols
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn cluster_responses_roundtrip() {
        roundtrip_resp(Response::ShardJoined { shard_index: 1, shard_count: 3, resident: vec![] });
        roundtrip_resp(Response::ShardJoined {
            shard_index: 0,
            shard_count: 1,
            resident: vec![(u64::MAX, 1, 7), (2, 3, 9)],
        });
        roundtrip_resp(Response::Export {
            rows: 4,
            cols: 5,
            entries: vec![(0, 4, 1.5), (3, 0, -0.25)],
        });
        roundtrip_resp(Response::Export { rows: 0, cols: 0, entries: vec![] });
        roundtrip_resp(Response::Evicted { existed: true });
        roundtrip_resp(Response::Evicted { existed: false });
        roundtrip_resp(Response::ClusterSpmm {
            out: dense(3, 2, &[1.0; 6]),
            degraded: false,
            present: vec![],
            shards_ok: 3,
            shards_failed: 0,
        });
        roundtrip_resp(Response::ClusterSpmm {
            out: dense(9, 1, &[0.5; 9]),
            degraded: true,
            present: vec![0b0000_0111, 0b0000_0001],
            shards_ok: 2,
            shards_failed: 1,
        });
    }

    #[test]
    fn degraded_bitmap_length_is_validated_at_encode() {
        let bad = Response::ClusterSpmm {
            out: dense(9, 1, &[0.0; 9]),
            degraded: true,
            present: vec![0xFF], // 9 rows need 2 bytes
            shards_ok: 2,
            shards_failed: 1,
        };
        assert!(bad.encode().is_err());
        assert!(bad.frame().is_err());
    }

    #[test]
    fn trace_response_roundtrips() {
        roundtrip_resp(Response::Trace {
            prometheus: "fs_span_seconds_count{site=\"serve.batch\"} 3\n".into(),
            chrome: "{\"traceEvents\":[]}".into(),
        });
        roundtrip_resp(Response::Trace { prometheus: String::new(), chrome: String::new() });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Loaded {
            matrix_id: 7,
            fingerprint_hi: u64::MAX,
            fingerprint_lo: 1,
            nnz: 99,
        });
        roundtrip_resp(Response::Spmm {
            cache_hit: true,
            batch_size: 4,
            queue_micros: 10,
            service_micros: 20,
            fallback_level: 1,
            verified: true,
            out: dense(2, 2, &[0.0, -1.5, f32::MAX, 3.25]),
        });
        roundtrip_resp(Response::Metrics { json: "{\"ok\":true}".into() });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::ShutdownAck);
        roundtrip_resp(Response::Error { code: ErrorCode::QueueFull, message: "busy".into() });
        roundtrip_resp(Response::Error {
            code: ErrorCode::ResourceExhausted,
            message: "matrix registry full".into(),
        });
    }

    #[test]
    fn framing_roundtrips_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame_bytes(b"hello").expect("frame")).expect("write");
        write_frame(&mut buf, &frame_bytes(b"").expect("frame")).expect("write");
        write_frame(&mut buf, &Request::Ping.frame().expect("frame")).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("read"), Some(Request::Ping.encode().expect("ping")));
        assert_eq!(read_frame(&mut r).expect("read"), None);
    }

    /// The header patched in behind an encoded message is the header
    /// `frame_bytes` computes over the finished payload.
    #[test]
    fn frame_is_the_payload_behind_its_patched_header() {
        let resp = Response::Spmm {
            cache_hit: false,
            batch_size: 1,
            queue_micros: 3,
            service_micros: 4,
            fallback_level: 0,
            verified: false,
            out: dense(2, 2, &[1.0, -0.0, f32::NAN, 4.0]),
        };
        let payload = resp.encode().expect("encode");
        assert_eq!(resp.frame().expect("frame"), frame_bytes(&payload).expect("frame"));
    }

    #[test]
    fn oversized_frame_is_refused_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum field
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn corrupted_frame_byte_is_detected_anywhere() {
        let request = Request::Spmm { call: call(9, 0, dense(2, 2, &[1.0, 2.0, 3.0, 4.0])) };
        let payload = request.encode().expect("encode");
        let clean = request.frame().expect("frame");
        // Flip one bit of every payload byte in turn: the checksum must
        // catch each one (the header's length bytes are covered by the
        // read-size checks; its checksum bytes by definition mismatch).
        for i in 12..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x10;
            let err = read_frame(&mut &bad[..]).expect_err("corruption at byte must error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
        }
        // And the clean frame still reads back.
        assert_eq!(read_frame(&mut &clean[..]).expect("read").as_deref(), Some(&payload[..]));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_short_payload() {
        let clean = frame_bytes(b"some payload bytes").expect("frame");
        for cut in 1..clean.len() {
            let r = read_frame(&mut &clean[..cut]);
            match r {
                Err(_) => {}
                Ok(None) => assert!(cut < 12, "EOF is clean only inside the header: cut {cut}"),
                Ok(Some(p)) => panic!("truncated frame decoded to {} bytes at cut {cut}", p.len()),
            }
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_error() {
        let good = Request::Ping.encode().expect("encode");
        assert!(Request::decode(&good[..0]).is_err());
        let mut trailing = good;
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
        assert!(Request::decode(&[99]).is_err());
    }

    /// `b_rows = 2^31 - 1` and `n = 2^31 + 1` multiply to a byte count of
    /// `2^64 - 4`, which passes `checked_mul` on 64-bit targets; the
    /// cursor bounds check must reject it cleanly instead of wrapping
    /// (release) or panicking on the overflow / reversed range (debug).
    #[test]
    fn adversarial_spmm_lengths_error_cleanly() {
        let mut payload = vec![2]; // Spmm
        payload.extend_from_slice(&0u16.to_le_bytes()); // empty tenant
        payload.extend_from_slice(&1u64.to_le_bytes()); // matrix_id
        payload.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms
        payload.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes()); // b rows
        payload.extend_from_slice(&0x8000_0001u32.to_le_bytes()); // b cols
        assert!(Request::decode(&payload).is_err());
        // Same shape on the response side.
        let mut resp = vec![129, 1]; // Spmm, cache_hit
        resp.extend_from_slice(&1u32.to_le_bytes()); // batch_size
        resp.extend_from_slice(&0u64.to_le_bytes()); // queue_micros
        resp.extend_from_slice(&0u64.to_le_bytes()); // service_micros
        resp.push(0); // fallback_level
        resp.push(1); // verified
        resp.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes()); // rows
        resp.extend_from_slice(&0x8000_0001u32.to_le_bytes()); // n
        assert!(Response::decode(&resp).is_err());
    }

    /// The silent-truncation fix: a shape past `u32` used to be narrowed
    /// with `as` (2^32 rows went out as 0); now it does not encode.
    #[test]
    fn spmm_dims_are_validated_at_encode() {
        let tall = DenseMatrix::try_from_vec(u32::MAX as usize + 1, 0, Vec::new()).expect("empty");
        let bad = Request::Spmm { call: call(1, 0, tall) };
        let err = bad.encode().expect_err("2^32 rows must not wrap to 0");
        assert!(err.0.contains("does not fit u32"), "{err}");
        assert!(bad.frame().is_err());
    }
}
