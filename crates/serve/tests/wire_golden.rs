//! Golden wire bytes: what "bytes on the wire unchanged" is checked
//! against.
//!
//! The hex below is every message — all 12 requests and 13 responses,
//! every `ErrorCode`, empty and non-empty lists, a degraded
//! `ClusterSpmm` with its bitmap, `-0.0` / NaN / subnormal payload
//! values — as the hand-written per-opcode encoders emitted it through
//! `encode` + `frame_bytes` before they were replaced by the declared
//! table. The table-driven codec must produce these bytes exactly and
//! decode them back to equal values; swapping two fields of any
//! declaration in `protocol.rs` fails `codec_matches_the_golden_bytes`.
//!
//! The same payloads then seed the hostile-bytes sweep: every proper
//! prefix, single-byte mutations and length fields forced to all-ones
//! must come back as errors — no panic, and no list capacity reserved
//! on the strength of a count the payload cannot back.

use std::fmt::Debug;
use std::io;

use fs_matrix::DenseMatrix;
use fs_serve::protocol::{
    read_frame, Cursor, ErrorCode, ProtoError, Request, Response, SpmmCall, Wire,
    FRAME_HEADER_BYTES,
};

fn dense(rows: usize, cols: usize, values: &[f32]) -> DenseMatrix<f32> {
    DenseMatrix::from_f32_slice(rows, cols, values)
}

/// A quiet NaN with a payload, so a codec that canonicalises NaNs shows.
fn nan() -> f32 {
    f32::from_bits(0x7FC0_1234)
}

fn subnormal() -> f32 {
    f32::from_bits(1)
}

fn error(code: ErrorCode, message: &str) -> Response {
    Response::Error { code, message: message.into() }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// `(name, the parent codec's frame as hex, the message)`.
type Golden<M> = Vec<(&'static str, &'static str, M)>;

fn requests() -> Golden<Request> {
    vec![
        (
            "load",
            "340000002893e1fd7022600b01090074656e616e742dceb110000000080000000200000000000000\
             0000000001000000000020400f00000007000000000000be",
            Request::Load {
                tenant: "tenant-α".into(),
                rows: 16,
                cols: 8,
                entries: vec![(0, 1, 2.5), (15, 7, -0.125)],
            },
        ),
        (
            "load_empty",
            "130000000c9488c71853e8a301000000000000000000000000000000000000",
            Request::Load { tenant: String::new(), rows: 0, cols: 0, entries: vec![] },
        ),
        (
            "spmm",
            "300000005a84e5179fd3bcb6020100742a00000000000000fa00000002000000030000000000803f\
             000000803412c07f01000000ffff7f7f0000d0c0",
            Request::Spmm {
                call: SpmmCall {
                    tenant: "t".into(),
                    matrix_id: 42,
                    deadline_ms: 250,
                    b: dense(2, 3, &[1.0, -0.0, nan(), subnormal(), f32::MAX, -6.5]),
                },
            },
        ),
        ("metrics", "0100000092b901864cbe63af03", Request::Metrics),
        ("trace", "0100000079b401864cbb63af06", Request::Trace),
        ("ping", "0100000013b101864cb963af04", Request::Ping),
        ("shutdown", "0100000060af01864cb863af05", Request::Shutdown),
        (
            "shard_join",
            "190000006b2c6e6ba4f4647a070e003132372e302e302e313a373935307b9e4a948b010000",
            Request::ShardJoin { addr: "127.0.0.1:7950".into(), start_epoch: 1_699_000_000_123 },
        ),
        (
            "cluster_spmm",
            "280000000f5f3bdc3d2854e9080100740b00000000000000f401000002000000020000000000803f\
             00000000000020c000008040",
            Request::ClusterSpmm {
                call: SpmmCall {
                    tenant: "t".into(),
                    matrix_id: 11,
                    deadline_ms: 500,
                    b: dense(2, 2, &[1.0, 0.0, -2.5, 4.0]),
                },
            },
        ),
        (
            "export",
            "0c0000001825704a945ae50d090100740300000000000000",
            Request::Export { tenant: "t".into(), matrix_id: 3 },
        ),
        (
            "evict",
            "0c000000dc0af5aaac8f381d0a0100740400000000000000",
            Request::Evict { tenant: "t".into(), matrix_id: 4 },
        ),
        (
            "gnn_register_gcn",
            "510000001a5aa97c35da64540b010074050000000000000000020002000000030000000000003f00\
             0000bf0000803e00000080000000410000c03f03000000020000000000a0bf000000400100000000\
             008040000000000000e0400000",
            Request::GnnRegister {
                tenant: "t".into(),
                matrix_id: 5,
                kind: 0,
                weights: vec![
                    dense(2, 3, &[0.5, -0.5, 0.25, -0.0, 8.0, 1.5]),
                    dense(3, 2, &[-1.25, 2.0, subnormal(), 4.0, 0.0, 7.0]),
                ],
                scalars: vec![],
            },
        ),
        (
            "gnn_register_agnn",
            "39000000886407c1486e86fd0b010074060000000000000001020001000000020000000000003e00\
             000040020000000100000000004040000080c002000000803f0000403f",
            Request::GnnRegister {
                tenant: "t".into(),
                matrix_id: 6,
                kind: 1,
                weights: vec![dense(1, 2, &[0.125, 2.0]), dense(2, 1, &[3.0, -4.0])],
                scalars: vec![1.0, 0.75],
            },
        ),
        (
            "gnn_register_empty",
            "11000000366dbd7f607903450b01007407000000000000000000000000",
            Request::GnnRegister {
                tenant: "t".into(),
                matrix_id: 7,
                kind: 0,
                weights: vec![],
                scalars: vec![],
            },
        ),
        (
            "gnn_infer",
            "390000005b5ef7bb01e20fd60c010074090000000000000002f40100000300000000000000030000\
             000700000002000000020000000000803f00000000000000bf00008040",
            Request::GnnInfer {
                tenant: "t".into(),
                model_id: 9,
                precision: 2,
                deadline_ms: 500,
                node_ids: vec![0, 3, 7],
                features: dense(2, 2, &[1.0, 0.0, -0.5, 4.0]),
            },
        ),
        (
            "gnn_infer_all_nodes",
            "2900000056bffc44554c4f3a0c010074090000000000000000000000000000000001000000030000\
             0000000000ffff7f7f000080bf",
            Request::GnnInfer {
                tenant: "t".into(),
                model_id: 9,
                precision: 0,
                deadline_ms: 0,
                node_ids: vec![],
                features: dense(1, 3, &[0.0, f32::MAX, -1.0]),
            },
        ),
    ]
}

fn responses() -> Golden<Response> {
    vec![
        (
            "loaded",
            "21000000d2492124b498d0c9800700000000000000ffffffffffffffff0100000000000000630000\
             0000000000",
            Response::Loaded { matrix_id: 7, fingerprint_hi: u64::MAX, fingerprint_lo: 1, nnz: 99 },
        ),
        (
            "spmm",
            "38000000d4e2b6b25a7a5ae18101040000000a000000000000001400000000000000010102000000\
             0300000000000000000000803412c07f01000000ffff7fff00005040",
            Response::Spmm {
                cache_hit: true,
                batch_size: 4,
                queue_micros: 10,
                service_micros: 20,
                fallback_level: 1,
                verified: true,
                out: dense(2, 3, &[0.0, -0.0, nan(), subnormal(), f32::MIN, 3.25]),
            },
        ),
        (
            "metrics",
            "17000000ed66a9aedfd2259882120000007b226f6b223a747275652c22c2b5223a317d",
            Response::Metrics { json: "{\"ok\":true,\"µ\":1}".into() },
        ),
        (
            "trace",
            "470000008a3a6900242377bf852c00000066735f7370616e5f7365636f6e64735f636f756e747b73\
             6974653d2273657276652e6261746368227d20330a120000007b2274726163654576656e7473223a\
             5b5d7d",
            Response::Trace {
                prometheus: "fs_span_seconds_count{site=\"serve.batch\"} 3\n".into(),
                chrome: "{\"traceEvents\":[]}".into(),
            },
        ),
        (
            "trace_empty",
            "09000000e064048b30861bba850000000000000000",
            Response::Trace { prometheus: String::new(), chrome: String::new() },
        ),
        ("pong", "01000000129302864c3e64af83", Response::Pong),
        ("shutdown_ack", "01000000938a02864c3964af84", Response::ShutdownAck),
        (
            "shard_joined_router",
            "0d000000db4630c54b710dbd86010000000300000000000000",
            Response::ShardJoined { shard_index: 1, shard_count: 3, resident: vec![] },
        ),
        (
            "shard_joined_inventory",
            "3d000000aca570841e45e83286000000000100000002000000ffffffffffffffff01000000000000\
             000700000000000000020000000000000003000000000000000900000000000000",
            Response::ShardJoined {
                shard_index: 0,
                shard_count: 1,
                resident: vec![(u64::MAX, 1, 7), (2, 3, 9)],
            },
        ),
        (
            "cluster_spmm_clean",
            "2e000000a19fe9212fff95cf8703000000020000000000803f0000004000004040000080400000a0\
             400000c04000000000000300000000000000",
            Response::ClusterSpmm {
                out: dense(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                degraded: false,
                present: vec![],
                shards_ok: 3,
                shards_failed: 0,
            },
        ),
        (
            "cluster_spmm_degraded",
            "3c00000028accae85c8c3bd78709000000010000000000003f0000003f0000003f00000000000000\
             000000000000000000000000000000003f010200000007010200000001000000",
            Response::ClusterSpmm {
                out: dense(9, 1, &[0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]),
                degraded: true,
                present: vec![0b0000_0111, 0b0000_0001],
                shards_ok: 2,
                shards_failed: 1,
            },
        ),
        (
            "export",
            "29000000ac777db3e4ab20f2880400000005000000020000000000000000000000040000000000c0\
             3f0300000000000000000080be",
            Response::Export { rows: 4, cols: 5, entries: vec![(0, 4, 1.5), (3, 0, -0.25)] },
        ),
        (
            "export_empty",
            "11000000b784d4a4f96856308800000000000000000000000000000000",
            Response::Export { rows: 0, cols: 0, entries: vec![] },
        ),
        ("evicted", "020000003f3c71b60753fd098901", Response::Evicted { existed: true }),
        ("evicted_missing", "020000008c3a71b60752fd098900", Response::Evicted { existed: false }),
        (
            "gnn_registered",
            "150000001fc202d608b6c1a78a0100000000000000001000000000000003000000",
            Response::GnnRegistered { model_id: 1, weight_bytes: 4096, layers: 3 },
        ),
        (
            "gnn_infer",
            "34000000a0b58aca3e7bd7488b02000000020000000000003f000000bf0000803f0000008003000a\
             0000000000000014000000000000001e0000000000000000",
            Response::GnnInfer {
                scores: dense(2, 2, &[0.5, -0.5, 1.0, -0.0]),
                layer_micros: vec![10, 20, 30],
                cache_hit: false,
            },
        ),
        (
            "gnn_infer_cached_empty",
            "0c0000006d08bcfcd310d3aa8b0000000004000000000001",
            Response::GnnInfer { scores: dense(0, 4, &[]), layer_micros: vec![], cache_hit: true },
        ),
        (
            "error_queue_full",
            "0e000000abd167cb8561e534ff010a0071756575652066756c6c",
            error(ErrorCode::QueueFull, "queue full"),
        ),
        (
            "error_deadline",
            "2000000082c1001fc303b677ff021c00646561646c696e6520706173736564207768696c65207175\
             65756564",
            error(ErrorCode::DeadlineExceeded, "deadline passed while queued"),
        ),
        (
            "error_internal",
            "130000005f2a2b43734de4b8ff030f00776f726b65722070616e69636b6564",
            error(ErrorCode::Internal, "worker panicked"),
        ),
        (
            "error_bad_request",
            "1b000000974099d4d730fa20ff041700656e7472792028392c3929206f75747369646520347834",
            error(ErrorCode::BadRequest, "entry (9,9) outside 4x4"),
        ),
        (
            "error_unknown_matrix",
            "180000002bd6e1025dca6ba1ff051400756e6b6e6f776e206d6174726978206964203737",
            error(ErrorCode::UnknownMatrix, "unknown matrix id 77"),
        ),
        (
            "error_exhausted",
            "04000000786e5c7464366835ff060000",
            error(ErrorCode::ResourceExhausted, ""),
        ),
    ]
}

/// What the two message enums share, so one check serves both.
trait Message: Wire + Debug + PartialEq + Sized {
    fn to_frame(&self) -> Result<Vec<u8>, ProtoError>;
    fn from_payload(payload: &[u8]) -> Result<Self, ProtoError>;
}

impl Message for Request {
    fn to_frame(&self) -> Result<Vec<u8>, ProtoError> {
        self.frame()
    }
    fn from_payload(payload: &[u8]) -> Result<Request, ProtoError> {
        Request::decode(payload)
    }
}

impl Message for Response {
    fn to_frame(&self) -> Result<Vec<u8>, ProtoError> {
        self.frame()
    }
    fn from_payload(payload: &[u8]) -> Result<Response, ProtoError> {
        Response::decode(payload)
    }
}

fn check_golden<M: Message>(table: &Golden<M>) {
    for (name, hex, message) in table {
        let golden = unhex(hex);
        assert_eq!(message.to_frame().expect("encodes"), golden, "{name}: encoded bytes differ");
        let payload = read_frame(&mut &golden[..]).expect("golden frame reads").expect("one frame");
        assert_eq!(payload, &golden[FRAME_HEADER_BYTES..], "{name}");
        let decoded = M::from_payload(&payload).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Bit-exact even where `==` cannot say so (a NaN never equals
        // itself): the decoded value re-encodes to the golden bytes.
        assert_eq!(decoded.to_frame().expect("re-encodes"), golden, "{name}: round trip");
        #[allow(clippy::eq_op)]
        if message == message {
            assert_eq!(&decoded, message, "{name}: decoded value differs");
        }
    }
}

#[test]
fn codec_matches_the_golden_bytes() {
    check_golden(&requests());
    check_golden(&responses());
}

#[test]
fn the_table_covers_every_opcode_and_error_code() {
    let opcodes = |frames: Vec<&str>| {
        let mut seen: Vec<u8> = frames.iter().map(|hex| unhex(hex)[FRAME_HEADER_BYTES]).collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    let request_ops = opcodes(requests().iter().map(|g| g.1).collect());
    assert_eq!(request_ops, (1..=12).collect::<Vec<u8>>());
    let mut response_ops: Vec<u8> = (128..=139).collect();
    response_ops.push(255);
    assert_eq!(opcodes(responses().iter().map(|g| g.1).collect()), response_ops);
    let mut codes: Vec<u8> = responses()
        .iter()
        .filter(|g| matches!(g.2, Response::Error { .. }))
        .map(|g| unhex(g.1)[FRAME_HEADER_BYTES + 1])
        .collect();
    codes.sort_unstable();
    assert_eq!(codes, (1..=6).collect::<Vec<u8>>());
}

/// Totals of one hostile sweep.
#[derive(Default)]
struct Sweep {
    cases: usize,
    rejected: usize,
    max_reserved: usize,
}

impl Sweep {
    /// Decode `payload` as `M`. A panic fails the test by itself; the
    /// list capacity reserved on the way is held to the payload's size
    /// (no message has more than two counted lists, and each reserves at
    /// most the bytes left behind its count).
    fn decode<M: Message>(&mut self, name: &str, payload: &[u8]) -> bool {
        let mut cursor = Cursor::new(payload);
        let wire = M::get(&mut cursor);
        let reserved = cursor.reserved_bytes();
        assert!(
            reserved <= 2 * payload.len(),
            "{name}: reserved {reserved} bytes of list capacity for a {}-byte payload",
            payload.len()
        );
        let whole = M::from_payload(payload);
        assert!(wire.is_ok() || whole.is_err(), "{name}: decode accepted what get refused");
        self.cases += 1;
        self.rejected += usize::from(whole.is_err());
        self.max_reserved = self.max_reserved.max(reserved);
        whole.is_ok()
    }
}

/// xorshift64*: the sweep's seeded source of mutation masks.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn sweep<M: Message>(table: &Golden<M>, seed: u64) -> Sweep {
    let mut sweep = Sweep::default();
    let mut rng = seed;
    for (name, hex, _) in table {
        let frame = unhex(hex);
        let payload = &frame[FRAME_HEADER_BYTES..];
        // Every proper prefix is a truncated message, never a shorter one.
        for cut in 0..payload.len() {
            assert!(!sweep.decode::<M>(name, &payload[..cut]), "{name}: prefix {cut} decoded");
        }
        for i in 0..payload.len() {
            // Three seeded single-byte mutations per position. Whatever
            // the decoder makes of them, inside a frame the checksum
            // refuses the byte before any decoder sees it.
            for _ in 0..3 {
                let mask = (next(&mut rng) % 255 + 1) as u8;
                let mut mutated = payload.to_vec();
                mutated[i] ^= mask;
                sweep.decode::<M>(name, &mutated);
                let mut framed = frame.clone();
                framed[FRAME_HEADER_BYTES + i] ^= mask;
                let err = read_frame(&mut &framed[..]).expect_err("checksum must refuse");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: byte {i}");
            }
            // Length-field inflation: every u16, u32 and u64 the payload
            // could hold at this offset — so every count and every
            // dimension — forced to its maximum.
            for width in [2, 4, 8] {
                if i + width <= payload.len() {
                    let mut inflated = payload.to_vec();
                    inflated[i..i + width].fill(0xFF);
                    sweep.decode::<M>(name, &inflated);
                }
            }
        }
    }
    sweep
}

#[test]
fn hostile_bytes_are_refused_without_panic_or_over_reservation() {
    let mut total = Sweep::default();
    for seed in [0x5EED_F00D, 0xC0FF_EE11] {
        for part in [sweep(&requests(), seed), sweep(&responses(), seed)] {
            total.cases += part.cases;
            total.rejected += part.rejected;
            total.max_reserved = total.max_reserved.max(part.max_reserved);
        }
    }
    println!(
        "hostile sweep: {} payloads, {} refused, 0 panics, 0 over-cap reservations \
         (largest list reservation {} bytes)",
        total.cases, total.rejected, total.max_reserved
    );
    assert!(total.cases > 10_000, "the sweep shrank to {} cases", total.cases);
    assert!(total.rejected > total.cases / 2, "most hostile payloads must be refused");
}

/// A count of `u64::MAX` entries in front of 30 bytes, at frame level:
/// the request decodes to an error having reserved room for the two
/// entries that fit, not for the count.
#[test]
fn inflated_count_reserves_only_what_the_payload_can_back() {
    let (_, hex, _) = &requests()[0];
    let mut payload = unhex(hex)[FRAME_HEADER_BYTES..].to_vec();
    let count_at = payload.len() - 2 * 12 - 8; // u64 count, then two 12-byte entries
    payload[count_at..count_at + 8].fill(0xFF);
    let mut cursor = Cursor::new(&payload);
    assert!(Request::get(&mut cursor).is_err());
    assert_eq!(cursor.reserved_bytes(), 2 * 12);
}
