//! The append-only write-ahead log.
//!
//! Mutations are framed ([`crate::codec`]) and buffered; a **group
//! commit** policy decides when the buffer is pushed to storage and
//! flushed, amortizing the fsync-equivalent barrier across many
//! records. A record is **acknowledged** (durable) only once a flush
//! containing it succeeds — the recovery invariant is phrased over
//! acknowledged records.
//!
//! Reading is tolerant by construction: the scanner stops at the first
//! truncated or corrupt frame and reports how many bytes it dropped,
//! so a crash mid-append (torn tail) costs only the unacknowledged
//! suffix, never the log.

use crate::codec::{put_frame, read_frame, FrameOutcome, Record};
use crate::error::DurabilityError;
use crate::storage::Storage;

/// When to push buffered records to storage and flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Flush once this many records are buffered. `1` = flush per
    /// record (the slow, maximally-eager baseline).
    pub max_batch_records: usize,
    /// Flush once the buffer reaches this many bytes, whichever comes
    /// first.
    pub max_batch_bytes: usize,
}

impl GroupCommitPolicy {
    /// Flush after every record — one barrier per mutation.
    pub fn per_record() -> GroupCommitPolicy {
        GroupCommitPolicy {
            max_batch_records: 1,
            max_batch_bytes: usize::MAX,
        }
    }

    /// Batch up to `records` mutations per barrier.
    pub fn batched(records: usize) -> GroupCommitPolicy {
        GroupCommitPolicy {
            max_batch_records: records.max(1),
            max_batch_bytes: 1 << 20,
        }
    }
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy::batched(64)
    }
}

/// Buffered writer over one WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: String,
    buf: Vec<u8>,
    buffered_records: usize,
    next_seq: u64,
    policy: GroupCommitPolicy,
    /// Records appended to this WAL over its lifetime (acked + buffered).
    pub records: u64,
    /// Bytes appended to this WAL over its lifetime.
    pub bytes: u64,
}

impl WalWriter {
    /// A writer appending to `file` (which must exist), continuing at
    /// `next_seq`.
    pub fn new(file: String, next_seq: u64, policy: GroupCommitPolicy) -> WalWriter {
        WalWriter {
            file,
            buf: Vec::new(),
            buffered_records: 0,
            next_seq,
            policy,
            records: 0,
            bytes: 0,
        }
    }

    /// Sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records buffered but not yet flushed (unacknowledged).
    pub fn pending(&self) -> usize {
        self.buffered_records
    }

    /// The group-commit policy.
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// Replaces the group-commit policy.
    pub fn set_policy(&mut self, policy: GroupCommitPolicy) {
        self.policy = policy;
    }

    /// Buffers one record; returns `(seq, flush_due)` where `flush_due`
    /// says the policy wants a barrier now.
    pub fn append(&mut self, record: &Record) -> (u64, bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let before = self.buf.len();
        put_frame(&mut self.buf, seq, record);
        self.bytes += (self.buf.len() - before) as u64;
        self.records += 1;
        self.buffered_records += 1;
        let due = self.buffered_records >= self.policy.max_batch_records
            || self.buf.len() >= self.policy.max_batch_bytes;
        (seq, due)
    }

    /// Pushes the buffer to storage and issues the durability barrier.
    /// On error the buffer is retained — the records stay pending and a
    /// later flush can retry.
    pub fn flush(&mut self, storage: &mut dyn Storage) -> Result<(), DurabilityError> {
        if self.buffered_records == 0 {
            return Ok(());
        }
        storage.append(&self.file, &self.buf)?;
        storage.flush(&self.file)?;
        self.buf.clear();
        self.buffered_records = 0;
        Ok(())
    }
}

/// Outcome of a tolerant WAL scan.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TailReport {
    /// Bytes of usable log (offset where the valid prefix ends).
    pub valid_bytes: u64,
    /// Bytes dropped after the valid prefix (torn/corrupt tail).
    pub dropped_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_error: Option<String>,
}

impl TailReport {
    /// True when the log ended cleanly on a frame boundary.
    pub fn clean(&self) -> bool {
        self.dropped_bytes == 0
    }
}

/// Scans a WAL byte image, returning every valid `(seq, record)` up to
/// the first truncated or corrupt frame plus a report on the tail.
pub fn scan_log(bytes: &[u8]) -> (Vec<(u64, Record)>, TailReport) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let (at, tail_error) = loop {
        match read_frame(bytes, offset) {
            FrameOutcome::Frame { seq, record, next } => {
                records.push((seq, record));
                offset = next;
            }
            FrameOutcome::End => break (offset, None),
            FrameOutcome::Truncated { at } => break (at, Some("truncated frame at tail".into())),
            FrameOutcome::Corrupt { at, reason } => break (at, Some(reason)),
        }
    };
    let report = TailReport {
        valid_bytes: at as u64,
        dropped_bytes: (bytes.len() - at) as u64,
        tail_error,
    };
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn insert(n: u64) -> Record {
        Record::Insert {
            s: n,
            p: 1,
            o: n + 100,
            gid: 0,
        }
    }

    #[test]
    fn group_commit_batches_barriers() {
        let mut mem = MemStorage::new();
        mem.create("wal-0").unwrap();
        let mut wal = WalWriter::new("wal-0".into(), 1, GroupCommitPolicy::batched(4));
        let mut flushes = 0;
        for n in 0..10 {
            let (_, due) = wal.append(&insert(n));
            if due {
                wal.flush(&mut mem).unwrap();
                flushes += 1;
            }
        }
        assert_eq!(flushes, 2, "10 records at batch 4 → 2 full batches");
        assert_eq!(wal.pending(), 2);
        wal.flush(&mut mem).unwrap();
        assert_eq!(wal.pending(), 0);

        let (records, report) = scan_log(&mem.read("wal-0").unwrap());
        assert_eq!(records.len(), 10);
        assert!(report.clean());
        assert_eq!(records[0].0, 1);
        assert_eq!(records[9].0, 10);
    }

    #[test]
    fn per_record_policy_flushes_every_append() {
        let mut wal = WalWriter::new("w".into(), 1, GroupCommitPolicy::per_record());
        let (_, due) = wal.append(&insert(0));
        assert!(due);
    }

    #[test]
    fn unflushed_records_are_not_durable() {
        let mut mem = MemStorage::new();
        mem.create("wal-0").unwrap();
        let mut wal = WalWriter::new("wal-0".into(), 1, GroupCommitPolicy::batched(100));
        for n in 0..5 {
            wal.append(&insert(n));
        }
        wal.flush(&mut mem).unwrap();
        for n in 5..9 {
            wal.append(&insert(n));
        }
        // Crash before the second flush: only the first 5 survive.
        mem.crash();
        let (records, report) = scan_log(&mem.read("wal-0").unwrap());
        assert_eq!(records.len(), 5);
        assert!(report.clean());
    }

    #[test]
    fn torn_tail_drops_only_the_partial_record() {
        let mut mem = MemStorage::new();
        mem.create("wal-0").unwrap();
        let mut wal = WalWriter::new("wal-0".into(), 1, GroupCommitPolicy::batched(100));
        for n in 0..3 {
            wal.append(&insert(n));
        }
        wal.flush(&mut mem).unwrap();
        let durable = mem.durable_len("wal-0");
        // A 4th record reaches the OS buffer but the crash tears it
        // mid-frame: only its first 5 bytes persist.
        let mut frame = Vec::new();
        put_frame(&mut frame, 4, &insert(3));
        mem.append("wal-0", &frame).unwrap();
        mem.crash_torn("wal-0", 5);
        let bytes = mem.read("wal-0").unwrap();
        assert!(bytes.len() > durable);
        let (records, report) = scan_log(&bytes);
        assert_eq!(records.len(), 3);
        assert!(!report.clean());
        assert_eq!(report.valid_bytes as usize, durable);
        assert_eq!(report.dropped_bytes, 5);
    }

    #[test]
    fn mid_log_corruption_stops_the_scan() {
        let mut mem = MemStorage::new();
        mem.create("wal-0").unwrap();
        let mut wal = WalWriter::new("wal-0".into(), 1, GroupCommitPolicy::per_record());
        let mut boundaries = vec![0usize];
        for n in 0..4 {
            wal.append(&insert(n));
            wal.flush(&mut mem).unwrap();
            boundaries.push(mem.durable_len("wal-0"));
        }
        // Corrupt a byte inside the second record's payload.
        mem.corrupt_byte("wal-0", boundaries[1] + 9);
        let (records, report) = scan_log(&mem.read("wal-0").unwrap());
        assert_eq!(records.len(), 1, "scan must stop at the corrupt frame");
        assert_eq!(report.valid_bytes as usize, boundaries[1]);
        assert!(report.tail_error.is_some());
    }

    #[test]
    fn flush_failure_keeps_records_pending() {
        // Storage that rejects appends simulates a full/failed disk.
        struct BrokenDisk;
        impl Storage for BrokenDisk {
            fn list(&self) -> Vec<String> {
                Vec::new()
            }
            fn read(&self, _: &str) -> Result<Vec<u8>, DurabilityError> {
                Err(DurabilityError::Storage("broken".into()))
            }
            fn create(&mut self, _: &str) -> Result<(), DurabilityError> {
                Ok(())
            }
            fn append(&mut self, _: &str, _: &[u8]) -> Result<(), DurabilityError> {
                Err(DurabilityError::Storage("broken".into()))
            }
            fn flush(&mut self, _: &str) -> Result<(), DurabilityError> {
                Err(DurabilityError::Storage("broken".into()))
            }
            fn truncate(&mut self, _: &str, _: u64) -> Result<(), DurabilityError> {
                Ok(())
            }
            fn delete(&mut self, _: &str) -> Result<(), DurabilityError> {
                Ok(())
            }
        }

        let mut wal = WalWriter::new("wal-0".into(), 1, GroupCommitPolicy::per_record());
        wal.append(&insert(0));
        assert!(wal.flush(&mut BrokenDisk).is_err());
        assert_eq!(wal.pending(), 1, "failed flush must not drop records");

        let mut mem = MemStorage::new();
        mem.create("wal-0").unwrap();
        wal.flush(&mut mem).unwrap();
        assert_eq!(wal.pending(), 0);
        let (records, _) = scan_log(&mem.read("wal-0").unwrap());
        assert_eq!(records.len(), 1);
    }
}
