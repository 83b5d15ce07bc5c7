//! The durable cluster manifest: an append-only journal of every
//! successful `Load` (and every repair-driven reassignment), so a
//! restarted router rebuilds its matrix registry and slab map without
//! re-receiving a single `Load` request.
//!
//! ## Record format
//!
//! [`Record`] and [`SlabRecord`] are declared with the wire protocol's
//! own table macros, so their layout is their field order and the one
//! `Wire` codec moves them. Each record rides in the same frame the wire
//! protocol uses — `[u32 LE payload length][u64 LE FNV-1a
//! checksum][payload]` — so a torn or corrupted tail is detected exactly
//! like wire corruption. A string or slab list too long for its length
//! prefix is an encode error, and a corrupt entry count reserves no more
//! than the payload can hold (`Cursor::list`). Recovery
//! reads the longest valid prefix and stops at the first short or
//! checksum-failing record: a partial record can never contribute a
//! partial matrix to the rebuilt map (pinned by the corrupt-tail
//! proptest in `tests/heal_props.rs`).
//!
//! The `journal-corrupt` chaos site corrupts one payload byte of a
//! record as it is appended, which is how the seeded soaks exercise the
//! prefix-recovery path deterministically.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fs_chaos::FaultSite;
use fs_serve::protocol::{self, read_frame, CooEntries, Counted, FRAME_HEADER_BYTES};
use fs_serve::{wire_enum, wire_struct};

wire_struct! {
    /// Where one slab of a journaled matrix lives.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SlabRecord {
        /// Global row range `[start, end)`.
        pub start: u64,
        /// Global row range end (exclusive).
        pub end: u64,
        /// Content fingerprint of the slab's rebased CSR — the identity the
        /// anti-entropy pass matches against a shard's resident inventory.
        pub fp: (u64, u64),
        /// Primary shard address.
        pub primary_addr: String,
        /// The slab's matrix id on the primary shard.
        pub primary_id: u64,
        /// Replica shard address and shard-side id, when replicated.
        pub replica: Option<(String, u64)>,
    }
}

wire_enum! {
    /// One journal record.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Record: "journal record tag" {
        /// A matrix was registered through the router. Carries the spilled
        /// source entries so a repair can re-slice any slab even when no
        /// replica survives.
        Load = 1 {
            /// Router-issued matrix id.
            matrix_id: u64,
            /// Tenant the matrix was registered under.
            tenant: String,
            /// Content fingerprint of the full (deduplicated) matrix.
            fp: (u64, u64),
            /// Matrix rows.
            rows: u64,
            /// Matrix columns.
            cols: u64,
            /// Deduplicated COO entries in CSR iteration order.
            entries: CooEntries,
            /// Slab placement at load time.
            slabs: Vec<SlabRecord> as Counted<u32>,
        },
        /// A repair (or rejoin) moved one slab; applied over the matching
        /// `Load` record in journal order at recovery.
        Assign = 2 {
            /// Router-issued matrix id the slab belongs to.
            matrix_id: u64,
            /// Slab index within the matrix.
            slab_index: u32,
            /// The slab's new placement.
            slab: SlabRecord,
        },
    }
}

/// What recovery found in an existing journal file.
#[derive(Debug)]
pub struct Recovered {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// Whether a corrupt or torn tail was dropped (the file is truncated
    /// back to `valid_bytes` so future appends extend a clean prefix).
    pub dropped_tail: bool,
}

/// An open, append-only manifest journal.
pub struct Journal {
    file: File,
    path: PathBuf,
    appended: u64,
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, recover its
    /// valid record prefix, and truncate any corrupt tail so appends
    /// continue from a clean boundary.
    pub fn open(path: &Path) -> io::Result<(Journal, Recovered)> {
        let mut file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        let mut records = Vec::new();
        let mut valid_bytes: u64 = 0;
        let mut dropped_tail = false;
        {
            let mut reader = BufReader::new(&mut file);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(payload)) => match protocol::decode(&payload) {
                        Ok(rec) => {
                            valid_bytes += (FRAME_HEADER_BYTES + payload.len()) as u64;
                            records.push(rec);
                        }
                        Err(_) => {
                            dropped_tail = true;
                            break;
                        }
                    },
                    Ok(None) => break, // clean EOF at a record boundary
                    Err(_) => {
                        // Short read mid-record or checksum mismatch:
                        // the valid prefix ends here.
                        dropped_tail = true;
                        break;
                    }
                }
            }
        }
        let total = file.metadata()?.len();
        if dropped_tail || total > valid_bytes {
            file.set_len(valid_bytes)?;
            dropped_tail = true;
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        let journal = Journal { file, path: path.to_path_buf(), appended: 0 };
        Ok((journal, Recovered { records, valid_bytes, dropped_tail }))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (not counting the recovered
    /// prefix).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Append one record, fsync-free (the durability story is "survives
    /// a router restart", not "survives power loss"). Consults the
    /// `journal-corrupt` chaos site: a fired draw flips one payload byte
    /// of the framed record, which recovery later detects and truncates.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let mut framed = protocol::frame(rec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if fs_chaos::chaos_enabled() {
            if let Some(d) = fs_chaos::draw(FaultSite::JournalCorrupt) {
                if framed.len() > FRAME_HEADER_BYTES {
                    let span = (framed.len() - FRAME_HEADER_BYTES) as u64;
                    let i = FRAME_HEADER_BYTES + d.select(0, span) as usize;
                    framed[i] ^= 1u8 << d.select(1, 8);
                }
            }
        }
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.appended += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_load(id: u64) -> Record {
        Record::Load {
            matrix_id: id,
            tenant: "t".into(),
            fp: (0xAB, 0xCD),
            rows: 10,
            cols: 8,
            entries: vec![(0, 1, 1.5), (9, 7, -0.25)],
            slabs: vec![
                SlabRecord {
                    start: 0,
                    end: 5,
                    fp: (1, 2),
                    primary_addr: "127.0.0.1:7001".into(),
                    primary_id: 3,
                    replica: Some(("127.0.0.1:7002".into(), 4)),
                },
                SlabRecord {
                    start: 5,
                    end: 10,
                    fp: (5, 6),
                    primary_addr: "127.0.0.1:7002".into(),
                    primary_id: 7,
                    replica: None,
                },
            ],
        }
    }

    fn encode_record(rec: &Record) -> Vec<u8> {
        protocol::encode(rec).expect("encode")
    }

    fn decode_record(payload: &[u8]) -> Option<Record> {
        protocol::decode(payload).ok()
    }

    #[test]
    fn records_roundtrip() {
        let load = sample_load(1);
        assert_eq!(decode_record(&encode_record(&load)), Some(load));
        let assign = Record::Assign {
            matrix_id: 9,
            slab_index: 1,
            slab: SlabRecord {
                start: 5,
                end: 10,
                fp: (5, 6),
                primary_addr: "127.0.0.1:7003".into(),
                primary_id: 11,
                replica: Some(("127.0.0.1:7001".into(), 12)),
            },
        };
        assert_eq!(decode_record(&encode_record(&assign)), Some(assign));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let bytes = encode_record(&sample_load(1));
        for cut in 0..bytes.len() {
            assert_eq!(decode_record(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(decode_record(&trailing), None);
        assert_eq!(decode_record(&[99]), None);
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = std::env::temp_dir().join(format!("fs-heal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.journal");
        let _ = std::fs::remove_file(&path);
        let (mut j, rec) = Journal::open(&path).expect("open");
        assert!(rec.records.is_empty());
        assert!(!rec.dropped_tail);
        j.append(&sample_load(1)).expect("append");
        j.append(&sample_load(2)).expect("append");
        drop(j);
        let (_, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.records.len(), 2);
        assert!(!rec.dropped_tail);
        assert_eq!(rec.records[0], sample_load(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_tail_is_truncated_and_appends_continue() {
        let dir = std::env::temp_dir().join(format!("fs-heal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("corrupt.journal");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).expect("open");
        j.append(&sample_load(1)).expect("append");
        j.append(&sample_load(2)).expect("append");
        drop(j);
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).expect("read");
        let first_len = protocol::frame(&sample_load(1)).expect("frame").len();
        bytes[first_len + FRAME_HEADER_BYTES + 3] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let (mut j, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.records.len(), 1, "only the intact prefix survives");
        assert!(rec.dropped_tail);
        assert_eq!(rec.valid_bytes, first_len as u64);
        // The file was truncated; a fresh append lands on a clean boundary.
        j.append(&sample_load(3)).expect("append after truncate");
        drop(j);
        let (_, rec) = Journal::open(&path).expect("re-reopen");
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1], sample_load(3));
        assert!(!rec.dropped_tail);
        let _ = std::fs::remove_file(&path);
    }
}
