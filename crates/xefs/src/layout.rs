//! On-device layout and metadata codecs.
//!
//! ```text
//! block 0                      superblock
//! blocks 1..=J                 journal ring
//! blocks J+1..                 data area, split into allocation groups
//! ```

use bytes::{Buf, BufMut};
use tvfs::{FileAttr, FileType, VfsError, VfsResult};

/// File-system block size (matches the SSD's 4 KiB access granularity).
pub const BLOCK: u64 = 4096;

/// Superblock magic ("XEFS-SIM").
pub const MAGIC: u64 = 0x5845_4653_2d53_494d;

/// Superblock fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Magic, [`MAGIC`].
    pub magic: u64,
    /// Device capacity at format time.
    pub capacity: u64,
    /// Journal region size in blocks.
    pub journal_blocks: u64,
    /// Number of allocation groups.
    pub n_ags: u32,
}

impl Superblock {
    /// Encoded size.
    pub const SIZE: usize = 28;

    /// Encodes the superblock.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::SIZE);
        b.put_u64_le(self.magic);
        b.put_u64_le(self.capacity);
        b.put_u64_le(self.journal_blocks);
        b.put_u32_le(self.n_ags);
        b
    }

    /// Decodes and validates the superblock.
    pub fn decode(mut raw: &[u8]) -> VfsResult<Self> {
        if raw.len() < Self::SIZE {
            return Err(VfsError::Io("short superblock".into()));
        }
        let sb = Superblock {
            magic: raw.get_u64_le(),
            capacity: raw.get_u64_le(),
            journal_blocks: raw.get_u64_le(),
            n_ags: raw.get_u32_le(),
        };
        if sb.magic != MAGIC {
            return Err(VfsError::Io("bad xefs magic".into()));
        }
        Ok(sb)
    }

    /// First data block (after superblock + journal).
    pub fn first_data_block(&self) -> u64 {
        1 + self.journal_blocks
    }

    /// Byte offset of the journal region.
    pub fn journal_off(&self) -> u64 {
        BLOCK
    }

    /// Journal region length in bytes.
    pub fn journal_len(&self) -> u64 {
        self.journal_blocks * BLOCK
    }
}

/// Full serialized state of one inode, as stored in journal records.
///
/// Records are self-contained (newest wins on replay), which keeps recovery
/// trivially idempotent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeRecord {
    /// Inode number.
    pub ino: u64,
    /// Tombstone: the inode was deleted.
    pub deleted: bool,
    /// Attributes (ignored when `deleted`).
    pub attr: FileAttr,
    /// Extent map: `(file_page, device_block, len)` runs.
    pub extents: Vec<(u64, u64, u64)>,
    /// Directory entries `(name, child_ino, is_dir)`.
    pub dentries: Vec<(String, u64, bool)>,
}

impl InodeRecord {
    /// A tombstone record.
    pub fn tombstone(ino: u64) -> Self {
        InodeRecord {
            ino,
            deleted: true,
            attr: FileAttr::new(ino, FileType::Regular, 0, 0),
            extents: Vec::new(),
            dentries: Vec::new(),
        }
    }

    /// Encodes into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record(
            out,
            self.ino,
            self.deleted,
            &self.attr,
            self.extents.iter().copied(),
            self.dentries.iter().map(|(n, c, d)| (n.as_str(), *c, *d)),
        );
    }

    /// Decodes one record from the front of `raw`, advancing it.
    pub fn decode_from(raw: &mut &[u8]) -> VfsResult<Self> {
        let short = || VfsError::Io("short inode record".into());
        if raw.len() < 66 {
            return Err(short());
        }
        let ino = raw.get_u64_le();
        let deleted = raw.get_u8() != 0;
        let is_dir = raw.get_u8() != 0;
        let mode = raw.get_u32_le();
        let uid = raw.get_u32_le();
        let gid = raw.get_u32_le();
        let size = raw.get_u64_le();
        let blocks_bytes = raw.get_u64_le();
        let atime_ns = raw.get_u64_le();
        let mtime_ns = raw.get_u64_le();
        let ctime_ns = raw.get_u64_le();
        let n_ext = raw.get_u32_le() as usize;
        if raw.len() < n_ext * 24 {
            return Err(short());
        }
        let mut extents = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            extents.push((raw.get_u64_le(), raw.get_u64_le(), raw.get_u64_le()));
        }
        if raw.len() < 4 {
            return Err(short());
        }
        let n_dent = raw.get_u32_le() as usize;
        let mut dentries = Vec::with_capacity(n_dent);
        for _ in 0..n_dent {
            if raw.len() < 2 {
                return Err(short());
            }
            let nlen = raw.get_u16_le() as usize;
            if raw.len() < nlen + 9 {
                return Err(short());
            }
            let name = String::from_utf8(raw[..nlen].to_vec())
                .map_err(|_| VfsError::Io("bad name".into()))?;
            raw.advance(nlen);
            let child = raw.get_u64_le();
            let is_dir = raw.get_u8() != 0;
            dentries.push((name, child, is_dir));
        }
        let kind = if is_dir {
            FileType::Directory
        } else {
            FileType::Regular
        };
        let mut attr = FileAttr::new(ino, kind, mode, 0);
        attr.uid = uid;
        attr.gid = gid;
        attr.size = size;
        attr.blocks_bytes = blocks_bytes;
        attr.atime_ns = atime_ns;
        attr.mtime_ns = mtime_ns;
        attr.ctime_ns = ctime_ns;
        if is_dir {
            attr.nlink = 2;
        }
        Ok(InodeRecord {
            ino,
            deleted,
            attr,
            extents,
            dentries,
        })
    }
}

/// Encodes one inode record from borrowed parts: the bytes
/// [`InodeRecord::encode_into`] writes for the same values, without
/// building the record first.
pub fn encode_record<'a>(
    out: &mut Vec<u8>,
    ino: u64,
    deleted: bool,
    attr: &FileAttr,
    extents: impl Iterator<Item = (u64, u64, u64)>,
    dentries: impl Iterator<Item = (&'a str, u64, bool)>,
) {
    out.put_u64_le(ino);
    out.put_u8(deleted as u8);
    out.put_u8(attr.is_dir() as u8);
    out.put_u32_le(attr.mode);
    out.put_u32_le(attr.uid);
    out.put_u32_le(attr.gid);
    out.put_u64_le(attr.size);
    out.put_u64_le(attr.blocks_bytes);
    out.put_u64_le(attr.atime_ns);
    out.put_u64_le(attr.mtime_ns);
    out.put_u64_le(attr.ctime_ns);
    put_counted(out, extents, |out, (fp, db, len)| {
        out.put_u64_le(fp);
        out.put_u64_le(db);
        out.put_u64_le(len);
    });
    put_counted(out, dentries, |out, (name, child, is_dir)| {
        out.put_u16_le(name.len() as u16);
        out.extend_from_slice(name.as_bytes());
        out.put_u64_le(child);
        out.put_u8(is_dir as u8);
    });
}

/// Writes a `u32` item count, then the items.
fn put_counted<T>(
    out: &mut Vec<u8>,
    items: impl Iterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) {
    let at = out.len();
    out.put_u32_le(0);
    let mut n = 0u32;
    for item in items {
        put(out, item);
        n += 1;
    }
    out[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            magic: MAGIC,
            capacity: 1 << 30,
            journal_blocks: 2048,
            n_ags: 4,
        };
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
        assert_eq!(sb.first_data_block(), 2049);
    }

    #[test]
    fn inode_record_roundtrip() {
        let mut attr = FileAttr::new(42, FileType::Directory, 0o750, 7);
        attr.size = 999;
        attr.blocks_bytes = 8192;
        let rec = InodeRecord {
            ino: 42,
            deleted: false,
            attr,
            extents: vec![(0, 100, 4), (10, 200, 2)],
            dentries: vec![("a".into(), 43, false), ("d".into(), 44, true)],
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        let mut slice = buf.as_slice();
        let got = InodeRecord::decode_from(&mut slice).unwrap();
        assert_eq!(got.ino, rec.ino);
        assert_eq!(got.extents, rec.extents);
        assert_eq!(got.dentries, rec.dentries);
        assert_eq!(got.attr.size, 999);
        assert!(got.attr.is_dir());
        assert!(slice.is_empty());
    }

    #[test]
    fn tombstone_roundtrip() {
        let rec = InodeRecord::tombstone(9);
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        let got = InodeRecord::decode_from(&mut buf.as_slice()).unwrap();
        assert!(got.deleted);
        assert_eq!(got.ino, 9);
    }

    #[test]
    fn truncated_record_is_error() {
        let rec = InodeRecord::tombstone(9);
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(InodeRecord::decode_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn consecutive_records_decode() {
        let mut buf = Vec::new();
        InodeRecord::tombstone(1).encode_into(&mut buf);
        InodeRecord::tombstone(2).encode_into(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(InodeRecord::decode_from(&mut s).unwrap().ino, 1);
        assert_eq!(InodeRecord::decode_from(&mut s).unwrap().ino, 2);
        assert!(s.is_empty());
    }
}
