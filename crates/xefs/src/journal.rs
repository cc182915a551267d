//! The metadata journal: a ring of checksummed, sequence-numbered records.
//!
//! Record framing on the device:
//!
//! ```text
//! [seq u64][kind u8][len u32][checksum u32][payload: InodeRecord*]
//! ```
//!
//! `kind` is [`REC_TXN`] (delta: the inodes changed since the previous
//! record) or [`REC_CHECKPOINT`] (the complete metadata state; replay
//! discards everything seen before it). When an append would overflow the
//! ring, the journal compacts itself by writing a fresh checkpoint at the
//! region start.
//!
//! Replay scans from the region start: records must carry strictly
//! increasing sequence numbers and valid checksums; the first violation
//! ends replay (that is the crash frontier).

use bytes::{Buf, BufMut};
use simdev::Device;
use tvfs::{VfsError, VfsResult};

use crate::layout::InodeRecord;

/// Record kind: incremental transaction.
pub const REC_TXN: u8 = 1;
/// Record kind: full checkpoint.
pub const REC_CHECKPOINT: u8 = 2;

const HEADER: usize = 8 + 1 + 4 + 4;

fn checksum(data: &[u8]) -> u32 {
    checksum_from(0x811c_9dc5, data)
}

/// FNV-1a from state `h`, enough to catch torn journal writes.
fn checksum_from(mut h: u32, data: &[u8]) -> u32 {
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The inode records of one journal record, encoded as they are added.
#[derive(Debug, Default)]
pub struct Records {
    count: u32,
    bytes: Vec<u8>,
}

impl Records {
    /// Adds one record, which `encode` writes (see
    /// [`crate::layout::encode_record`]).
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.bytes);
        self.count += 1;
    }
}

/// Journal writer state.
#[derive(Debug)]
pub struct Journal {
    region_off: u64,
    region_len: u64,
    cursor: u64,
    next_seq: u64,
}

/// One decoded journal record.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Sequence number.
    #[allow(dead_code)] // read by recovery diagnostics and tests
    pub seq: u64,
    /// [`REC_TXN`] or [`REC_CHECKPOINT`].
    pub kind: u8,
    /// Inode records in the transaction.
    pub inodes: Vec<InodeRecord>,
}

impl Journal {
    /// A fresh journal over `[region_off, region_off + region_len)`.
    pub fn new(region_off: u64, region_len: u64) -> Self {
        Journal {
            region_off,
            region_len,
            cursor: region_off,
            next_seq: 1,
        }
    }

    /// Sequence number the next record will carry.
    #[cfg(test)]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes left before the ring must compact.
    pub fn remaining(&self) -> u64 {
        self.region_off + self.region_len - self.cursor
    }

    /// Frames `records` as a record of `kind`.
    fn frame(&mut self, kind: u8, records: &Records) -> Vec<u8> {
        let count = records.count.to_le_bytes();
        let mut out = Vec::with_capacity(HEADER + 4 + records.bytes.len());
        out.put_u64_le(self.next_seq);
        out.put_u8(kind);
        out.put_u32_le((4 + records.bytes.len()) as u32);
        out.put_u32_le(checksum_from(checksum(&count), &records.bytes));
        out.extend_from_slice(&count);
        out.extend_from_slice(&records.bytes);
        self.next_seq += 1;
        out
    }

    /// Appends a transaction record; returns `false` if it does not fit
    /// (the caller must then write a checkpoint via
    /// [`Journal::write_checkpoint`]).
    pub fn append_txn(&mut self, dev: &Device, records: &Records) -> VfsResult<bool> {
        let frame = self.frame(REC_TXN, records);
        if frame.len() as u64 + 8 > self.remaining() {
            // Roll the seq back; the frame was not used.
            self.next_seq -= 1;
            return Ok(false);
        }
        dev.write(self.cursor, &frame)?;
        self.cursor += frame.len() as u64;
        Ok(true)
    }

    /// Writes a full checkpoint at the region start and resets the cursor
    /// after it.
    pub fn write_checkpoint(&mut self, dev: &Device, all_inodes: &Records) -> VfsResult<()> {
        let frame = self.frame(REC_CHECKPOINT, all_inodes);
        if frame.len() as u64 + 8 > self.region_len {
            return Err(VfsError::Io(
                "journal too small for metadata checkpoint".into(),
            ));
        }
        dev.write(self.region_off, &frame)?;
        self.cursor = self.region_off + frame.len() as u64;
        // Terminate the ring: a zero seq stops replay.
        dev.write(self.cursor, &[0u8; 8])?;
        Ok(())
    }

    /// Replays the journal region, returning the surviving records and a
    /// journal positioned to append after them.
    pub fn replay(
        dev: &Device,
        region_off: u64,
        region_len: u64,
    ) -> VfsResult<(Vec<JournalRecord>, Journal)> {
        let mut raw = vec![0u8; region_len as usize];
        dev.read(region_off, &mut raw)?;
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut pos = 0usize;
        let mut last_seq = 0u64;
        loop {
            if pos + HEADER > raw.len() {
                break;
            }
            let mut h = &raw[pos..pos + HEADER];
            let seq = h.get_u64_le();
            let kind = h.get_u8();
            let len = h.get_u32_le() as usize;
            let sum = h.get_u32_le();
            if seq == 0 || seq <= last_seq || (kind != REC_TXN && kind != REC_CHECKPOINT) {
                break;
            }
            if pos + HEADER + len > raw.len() {
                break;
            }
            let payload = &raw[pos + HEADER..pos + HEADER + len];
            if checksum(payload) != sum {
                break; // torn record: crash frontier
            }
            let mut p = payload;
            if p.len() < 4 {
                break;
            }
            let n = p.get_u32_le() as usize;
            let mut inodes = Vec::with_capacity(n);
            let mut ok = true;
            for _ in 0..n {
                match InodeRecord::decode_from(&mut p) {
                    Ok(r) => inodes.push(r),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break;
            }
            if kind == REC_CHECKPOINT {
                records.clear();
            }
            last_seq = seq;
            records.push(JournalRecord { seq, kind, inodes });
            pos += HEADER + len;
        }
        let journal = Journal {
            region_off,
            region_len,
            cursor: region_off + pos as u64,
            next_seq: last_seq + 1,
        };
        Ok((records, journal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{nvme_ssd, VirtualClock};

    fn dev() -> Device {
        Device::with_profile(nvme_ssd(), 16 << 20, VirtualClock::new())
    }

    fn region() -> (u64, u64) {
        (4096, 1 << 20)
    }

    fn tombstones(inos: &[u64]) -> Records {
        let mut r = Records::default();
        for &i in inos {
            r.push(|out| InodeRecord::tombstone(i).encode_into(out));
        }
        r
    }

    #[test]
    fn append_and_replay() {
        let d = dev();
        let (off, len) = region();
        let mut j = Journal::new(off, len);
        j.append_txn(&d, &tombstones(&[1])).unwrap();
        j.append_txn(&d, &tombstones(&[2, 3])).unwrap();
        let (recs, j2) = Journal::replay(&d, off, len).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].inodes.len(), 1);
        assert_eq!(recs[1].inodes.len(), 2);
        assert_eq!(recs[1].seq, 2);
        assert_eq!(j2.next_seq, 3);
    }

    #[test]
    fn checkpoint_clears_prior_records() {
        let d = dev();
        let (off, len) = region();
        let mut j = Journal::new(off, len);
        j.append_txn(&d, &tombstones(&[1])).unwrap();
        j.write_checkpoint(&d, &tombstones(&[9])).unwrap();
        j.append_txn(&d, &tombstones(&[2])).unwrap();
        let (recs, _) = Journal::replay(&d, off, len).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, REC_CHECKPOINT);
        assert_eq!(recs[0].inodes[0].ino, 9);
        assert_eq!(recs[1].inodes[0].ino, 2);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let d = dev();
        let (off, len) = region();
        let mut j = Journal::new(off, len);
        j.append_txn(&d, &tombstones(&[1])).unwrap();
        let frontier = j.cursor;
        j.append_txn(&d, &tombstones(&[2])).unwrap();
        // Corrupt a payload byte of the second record.
        d.write(frontier + HEADER as u64 + 2, &[0xFF]).unwrap();
        let (recs, j2) = Journal::replay(&d, off, len).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].inodes[0].ino, 1);
        // New appends land at the frontier, atop the torn record.
        assert_eq!(j2.cursor, frontier);
    }

    #[test]
    fn append_reports_full() {
        let d = dev();
        let off = 4096;
        let len = 1024; // tiny ring: one 10-tombstone txn fits, two do not
        let mut j = Journal::new(off, len);
        let big = tombstones(&(0..10).collect::<Vec<_>>());
        assert!(j.append_txn(&d, &big).unwrap());
        assert!(!j.append_txn(&d, &big).unwrap(), "second must not fit");
        // Checkpoint compacts and resumes.
        j.write_checkpoint(&d, &tombstones(&[1])).unwrap();
        assert!(j.append_txn(&d, &tombstones(&[2])).unwrap());
        let (recs, _) = Journal::replay(&d, off, len).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn empty_region_replays_empty() {
        let d = dev();
        let (off, len) = region();
        let (recs, j) = Journal::replay(&d, off, len).unwrap();
        assert!(recs.is_empty());
        assert_eq!(j.next_seq, 1);
        assert_eq!(j.cursor, off);
    }

    #[test]
    fn unflushed_journal_lost_on_crash() {
        let d = dev();
        let (off, len) = region();
        let mut j = Journal::new(off, len);
        j.append_txn(&d, &tombstones(&[1])).unwrap();
        d.flush();
        j.append_txn(&d, &tombstones(&[2])).unwrap();
        d.crash();
        let (recs, _) = Journal::replay(&d, off, len).unwrap();
        assert_eq!(recs.len(), 1, "unflushed txn must be gone");
    }
}
