//! Per-inode log entries and the log-page chain.
//!
//! A log is a chain of pages. Each page starts with an 8-byte `next` page
//! pointer; entries follow. Entries are self-delimiting (`[type u8]
//! [len u16] [payload]`); type 0 marks end-of-page padding. The committed
//! region of a log is everything from `(head, 8)` up to the inode slot's
//! `(tail_page, tail_off)` — entries written but not yet covered by a tail
//! update are invisible, which is what makes operations atomic across a
//! crash.

use bytes::{Buf, BufMut};
use tvfs::{VfsError, VfsResult};

use crate::layout::PAGE;

/// Byte offset of the first entry in a log page (after the `next` pointer).
pub const LOG_DATA_START: u32 = 8;

/// Maximum payload any entry may have (names bound this).
#[allow(dead_code)]
pub const MAX_ENTRY: usize = 512;

/// One committed, durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// A data write: `n_pages` file pages starting at `file_page` now live
    /// in device pages starting at `data_page`.
    Write {
        /// First file page covered.
        file_page: u64,
        /// Run length in pages.
        n_pages: u64,
        /// First device page holding the data.
        data_page: u64,
        /// New logical file size after this write.
        new_size: u64,
        /// Modification timestamp.
        mtime_ns: u64,
    },
    /// Explicit attribute update.
    Attr {
        /// New logical size.
        size: u64,
        /// Permission bits.
        mode: u32,
        /// Owner.
        uid: u32,
        /// Group.
        gid: u32,
        /// Access time.
        atime_ns: u64,
        /// Modification time.
        mtime_ns: u64,
        /// Change time.
        ctime_ns: u64,
    },
    /// Deallocate `[file_page, file_page + n_pages)` (hole punch or
    /// truncate tail).
    Unmap {
        /// First file page unmapped.
        file_page: u64,
        /// Run length in pages.
        n_pages: u64,
    },
    /// Directory entry added: `name` → `child_ino`.
    DentryAdd {
        /// Inode the new entry points at.
        child_ino: u64,
        /// The child is a directory.
        is_dir: bool,
        /// Entry name.
        name: String,
    },
    /// Directory entry removed.
    DentryDel {
        /// Entry name.
        name: String,
    },
}

const T_WRITE: u8 = 1;
const T_ATTR: u8 = 2;
const T_UNMAP: u8 = 3;
const T_DADD: u8 = 4;
const T_DDEL: u8 = 5;

impl LogEntry {
    /// Appends the entry's encoding, `[type][len u16][payload]`, to `out`:
    /// a log append reuses one buffer for all its entries.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let ty = match self {
            LogEntry::Write { .. } => T_WRITE,
            LogEntry::Attr { .. } => T_ATTR,
            LogEntry::Unmap { .. } => T_UNMAP,
            LogEntry::DentryAdd { .. } => T_DADD,
            LogEntry::DentryDel { .. } => T_DDEL,
        };
        out.put_u8(ty);
        out.put_u16_le((self.encoded_len() - 3) as u16);
        match self {
            LogEntry::Write {
                file_page,
                n_pages,
                data_page,
                new_size,
                mtime_ns,
            } => {
                out.put_u64_le(*file_page);
                out.put_u64_le(*n_pages);
                out.put_u64_le(*data_page);
                out.put_u64_le(*new_size);
                out.put_u64_le(*mtime_ns);
            }
            LogEntry::Attr {
                size,
                mode,
                uid,
                gid,
                atime_ns,
                mtime_ns,
                ctime_ns,
            } => {
                out.put_u64_le(*size);
                out.put_u32_le(*mode);
                out.put_u32_le(*uid);
                out.put_u32_le(*gid);
                out.put_u64_le(*atime_ns);
                out.put_u64_le(*mtime_ns);
                out.put_u64_le(*ctime_ns);
            }
            LogEntry::Unmap { file_page, n_pages } => {
                out.put_u64_le(*file_page);
                out.put_u64_le(*n_pages);
            }
            LogEntry::DentryAdd {
                child_ino,
                is_dir,
                name,
            } => {
                out.put_u64_le(*child_ino);
                out.put_u8(*is_dir as u8);
                out.put_u16_le(name.len() as u16);
                out.extend_from_slice(name.as_bytes());
            }
            LogEntry::DentryDel { name } => {
                out.put_u16_le(name.len() as u16);
                out.extend_from_slice(name.as_bytes());
            }
        }
    }

    /// Decodes one entry from the front of `raw`, returning it and the
    /// bytes consumed. Returns `Ok(None)` on an end-of-page marker
    /// (type 0).
    pub fn decode(raw: &[u8]) -> VfsResult<Option<(LogEntry, usize)>> {
        if raw.len() < 3 {
            return Ok(None);
        }
        let mut r = raw;
        let ty = r.get_u8();
        if ty == 0 {
            return Ok(None);
        }
        let len = r.get_u16_le() as usize;
        if r.len() < len {
            return Err(VfsError::Io("truncated log entry".into()));
        }
        let mut p = &r[..len];
        let entry = match ty {
            T_WRITE => LogEntry::Write {
                file_page: p.get_u64_le(),
                n_pages: p.get_u64_le(),
                data_page: p.get_u64_le(),
                new_size: p.get_u64_le(),
                mtime_ns: p.get_u64_le(),
            },
            T_ATTR => LogEntry::Attr {
                size: p.get_u64_le(),
                mode: p.get_u32_le(),
                uid: p.get_u32_le(),
                gid: p.get_u32_le(),
                atime_ns: p.get_u64_le(),
                mtime_ns: p.get_u64_le(),
                ctime_ns: p.get_u64_le(),
            },
            T_UNMAP => LogEntry::Unmap {
                file_page: p.get_u64_le(),
                n_pages: p.get_u64_le(),
            },
            T_DADD => {
                let child_ino = p.get_u64_le();
                let is_dir = p.get_u8() != 0;
                let nlen = p.get_u16_le() as usize;
                let name = String::from_utf8(p[..nlen].to_vec())
                    .map_err(|_| VfsError::Io("bad dentry name".into()))?;
                LogEntry::DentryAdd {
                    child_ino,
                    is_dir,
                    name,
                }
            }
            T_DDEL => {
                let nlen = p.get_u16_le() as usize;
                let name = String::from_utf8(p[..nlen].to_vec())
                    .map_err(|_| VfsError::Io("bad dentry name".into()))?;
                LogEntry::DentryDel { name }
            }
            other => return Err(VfsError::Io(format!("unknown log entry type {other}"))),
        };
        Ok(Some((entry, 3 + len)))
    }

    /// Encoded size in bytes, without encoding: every write sizes its
    /// log entries before it commits.
    pub fn encoded_len(&self) -> u32 {
        let payload = match self {
            LogEntry::Write { .. } => 5 * 8,
            LogEntry::Attr { .. } => 4 * 8 + 3 * 4,
            LogEntry::Unmap { .. } => 2 * 8,
            LogEntry::DentryAdd { name, .. } => 8 + 1 + 2 + name.len(),
            LogEntry::DentryDel { name } => 2 + name.len(),
        };
        3 + payload as u32
    }
}

/// Whether an entry of `len` bytes fits in a page at offset `off`.
pub fn fits_in_page(off: u32, len: u32) -> bool {
    u64::from(off) + u64::from(len) <= PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(e: &LogEntry) -> Vec<u8> {
        let mut out = Vec::new();
        e.encode_into(&mut out);
        out
    }

    fn samples() -> Vec<LogEntry> {
        vec![
            LogEntry::Write {
                file_page: 3,
                n_pages: 2,
                data_page: 99,
                new_size: 20_000,
                mtime_ns: 123,
            },
            LogEntry::Attr {
                size: 5,
                mode: 0o644,
                uid: 1,
                gid: 2,
                atime_ns: 10,
                mtime_ns: 20,
                ctime_ns: 30,
            },
            LogEntry::Unmap {
                file_page: 1,
                n_pages: 7,
            },
            LogEntry::DentryAdd {
                child_ino: 42,
                is_dir: true,
                name: "subdir".into(),
            },
            LogEntry::DentryDel {
                name: "gone.txt".into(),
            },
        ]
    }

    #[test]
    fn entries_roundtrip() {
        for e in samples() {
            let enc = encode(&e);
            let (dec, n) = LogEntry::decode(&enc).unwrap().unwrap();
            assert_eq!(dec, e);
            assert_eq!(n, enc.len());
            assert_eq!(e.encoded_len() as usize, enc.len());
        }
    }

    #[test]
    fn sequential_entries_decode_in_order() {
        let mut buf = Vec::new();
        for e in samples() {
            e.encode_into(&mut buf);
        }
        let mut off = 0;
        let mut got = Vec::new();
        while let Some((e, n)) = LogEntry::decode(&buf[off..]).unwrap() {
            got.push(e);
            off += n;
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn zero_type_is_end_marker() {
        let buf = [0u8; 16];
        assert_eq!(LogEntry::decode(&buf).unwrap(), None);
    }

    #[test]
    fn truncated_entry_is_error() {
        let enc = encode(&samples()[0]);
        assert!(LogEntry::decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn unknown_type_is_error() {
        let mut buf = vec![200u8];
        buf.put_u16_le(0);
        assert!(LogEntry::decode(&buf).is_err());
    }

    #[test]
    fn fits_in_page_boundary() {
        assert!(fits_in_page(8, (PAGE - 8) as u32));
        assert!(!fits_in_page(8, (PAGE - 7) as u32));
    }
}
