//! The journal's bytes are pinned to the hand-written codec they had
//! before `Record` and `SlabRecord` were declared with the wire
//! protocol's table macros: `fixtures/parent.journal` was appended by
//! that codec's `Journal::append`. The declared records must frame to
//! exactly those bytes, and the file must still recover.

use fs_cluster::journal::{Journal, Record, SlabRecord};
use fs_serve::protocol;

const PARENT_JOURNAL: &[u8] = include_bytes!("fixtures/parent.journal");

/// What the fixture holds: a fully populated `Load` (a slab with and one
/// without a replica, non-ASCII strings, `-0.0` / NaN / subnormal entry
/// values), an empty `Load`, and an `Assign`.
fn golden_records() -> Vec<Record> {
    let with_replica = SlabRecord {
        start: 0,
        end: 5,
        fp: (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
        primary_addr: "127.0.0.1:7001".into(),
        primary_id: 3,
        replica: Some(("shard-β.internal:7002".into(), u64::MAX)),
    };
    let without_replica = SlabRecord {
        start: 5,
        end: 10,
        fp: (5, 6),
        primary_addr: "127.0.0.1:7002".into(),
        primary_id: 7,
        replica: None,
    };
    vec![
        Record::Load {
            matrix_id: 1,
            tenant: "tenant-α".into(),
            fp: (0xAB, 0xCD),
            rows: 10,
            cols: 8,
            entries: vec![
                (0, 1, 1.5),
                (2, 3, -0.0),
                (4, 5, f32::NAN),
                (9, 7, f32::from_bits(1)),
                (9, 0, -f32::MIN_POSITIVE / 4.0),
            ],
            slabs: vec![with_replica.clone(), without_replica],
        },
        Record::Load {
            matrix_id: 2,
            tenant: String::new(),
            fp: (0, u64::MAX),
            rows: 0,
            cols: 0,
            entries: Vec::new(),
            slabs: Vec::new(),
        },
        Record::Assign {
            matrix_id: 1,
            slab_index: 1,
            slab: SlabRecord { start: 5, end: 10, primary_id: 11, ..with_replica },
        },
    ]
}

#[test]
fn declared_records_reproduce_the_parent_bytes() {
    let mut framed = Vec::new();
    for rec in golden_records() {
        framed.extend(protocol::frame(&rec).expect("frame"));
    }
    assert_eq!(framed, PARENT_JOURNAL);
}

#[test]
fn a_journal_written_by_the_parent_still_recovers() {
    let path =
        std::env::temp_dir().join(format!("fs-journal-golden-{}.journal", std::process::id()));
    std::fs::write(&path, PARENT_JOURNAL).expect("copy fixture");
    let (mut journal, recovered) = Journal::open(&path).expect("open");
    assert!(!recovered.dropped_tail);
    assert_eq!(recovered.valid_bytes, PARENT_JOURNAL.len() as u64);
    // NaN entries defeat `==`, so compare what each record encodes to.
    let bytes = |recs: &[Record]| -> Vec<Vec<u8>> {
        recs.iter().map(|r| protocol::encode(r).expect("encode")).collect()
    };
    assert_eq!(bytes(&recovered.records), bytes(&golden_records()));
    // And the recovered file keeps taking appends from the new code.
    journal.append(&golden_records()[2]).expect("append");
    drop(journal);
    let (_, again) = Journal::open(&path).expect("reopen");
    assert_eq!(again.records.len(), 4);
    let _ = std::fs::remove_file(&path);
}

/// Two silent clamps of the old codec are now refusals: a string past
/// its `u16` prefix does not encode (it used to be cut), so `append`
/// writes nothing.
#[test]
fn an_over_long_string_is_an_encode_error_not_a_clamp() {
    let long = Record::Assign {
        matrix_id: 1,
        slab_index: 0,
        slab: SlabRecord {
            start: 0,
            end: 1,
            fp: (0, 0),
            primary_addr: "x".repeat(usize::from(u16::MAX) + 1),
            primary_id: 0,
            replica: None,
        },
    };
    assert!(protocol::encode(&long).is_err());
    let path =
        std::env::temp_dir().join(format!("fs-journal-clamp-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).expect("open");
    assert!(journal.append(&long).is_err());
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
    let _ = std::fs::remove_file(&path);
}
