//! The durable Mux metafile: snapshots, migration intents and recovery
//! (paper §2.3's "Mux maintains its own metadata" and §4's crash
//! consistency).
//!
//! Mux's bookkeeping lives in two regular files on a tier of the user's
//! choice (conventionally the fastest): a **snapshot** of the namespace,
//! Block Lookup Tables (byte-array encoding), affinity tables and native
//! handles; and an **intent journal** for in-flight migrations. The
//! snapshot is rewritten on `fsync`/`sync` — atomically, by writing a
//! sibling file and renaming it over the old snapshot, so a crash always
//! leaves either the old or the new snapshot intact; intents are appended
//! (and fsync'd) around each migration so recovery can tell half-copied
//! migration debris from real data. Every intent record carries a CRC so
//! a torn append is recognized and discarded instead of being replayed as
//! garbage.
//!
//! Recovery composes three sources, in order:
//!
//! 1. the snapshot (authoritative for everything it covers),
//! 2. the intent journal (re-applies committed migrations newer than the
//!    snapshot; identifies debris of uncommitted ones),
//! 3. **reconciliation with the native file systems** — the "talk to file
//!    systems" payoff: every tier's namespace is walked, unknown files are
//!    adopted into the union view (paper §2.1's merged directory tree) and
//!    unknown blocks are adopted into the BLT by probing `SEEK_DATA`
//!    extents. Unsynced writes thus survive as well as the native file
//!    system preserved them; conflicting adoptions resolve by native
//!    mtime.
//!
//! Nothing read back from a device is trusted: snapshot decoding validates
//! every count and length against the remaining buffer and returns
//! [`VfsError::Corrupt`] instead of panicking, native handles recorded in
//! the snapshot are revalidated against the tiers before use, and a
//! journal whose tail fails CRC is truncated back to its valid prefix.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::BufMut;
use simdev::VirtualClock;
use tvfs::{FileAttr, FileSystem, FileType, InodeNo, SetAttr, VfsError, VfsResult, ROOT_INO};

use crate::blt::BlockLookupTable;
use crate::file::{MuxFile, MuxIno};
use crate::meta::CollectiveInode;
use crate::mux::{Mux, MuxDir, NsEntry};
use crate::policy::TieringPolicy;
use crate::types::{MuxOptions, TierConfig, TierId, BLOCK};

const SNAP_MAGIC: u64 = 0x4d55_584d_4554_4133; // "MUXMETA3"
const SNAPSHOT_NAME: &str = ".mux.snapshot";
/// Sibling the snapshot is staged in before the atomic rename.
const SNAPSHOT_TMP_NAME: &str = ".mux.snapshot.new";
const INTENTS_NAME: &str = ".mux.intents";

/// What one intent-journal record says about `[block, block+n)` of a file
/// and tier `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IntentKind {
    /// A migration copy onto `to` is about to start (debris possible).
    MoveBegin = 1,
    /// The range's Block Lookup Table entries swung to `to`.
    MoveCommit = 2,
    /// A mirror copy onto `to` is about to start (replica debris possible).
    MirrorBegin = 3,
    /// The mirror copy onto `to` is durable and its replica entries recorded.
    MirrorCommit = 4,
    /// The replicas of the range on `to` were retired (entries dropped,
    /// backing blocks punched or left to a lazy resync).
    Unmirror = 5,
}

impl IntentKind {
    fn from_byte(b: u8) -> Option<Self> {
        use IntentKind::*;
        [MoveBegin, MoveCommit, MirrorBegin, MirrorCommit, Unmirror]
            .into_iter()
            .find(|&k| k as u8 == b)
    }
}

/// kind + ino + block + n + to + crc32 over the preceding bytes.
const INTENT_RECORD: usize = 1 + 8 + 8 + 8 + 4 + 4;

fn corrupt(what: &str) -> VfsError {
    VfsError::corrupt(what)
}

/// CRC-32 (IEEE, reflected) — guards intent records against torn appends.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Where the metafile lives.
pub struct MetafileHandle {
    fs: Arc<dyn FileSystem>,
    snapshot_ino: InodeNo,
    intents_ino: InodeNo,
    intents_off: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Intent {
    kind: IntentKind,
    ino: MuxIno,
    block: u64,
    n: u64,
    to: TierId,
}

impl Intent {
    fn encode(&self) -> [u8; INTENT_RECORD] {
        let mut b = [0u8; INTENT_RECORD];
        b[0] = self.kind as u8;
        b[1..9].copy_from_slice(&self.ino.to_le_bytes());
        b[9..17].copy_from_slice(&self.block.to_le_bytes());
        b[17..25].copy_from_slice(&self.n.to_le_bytes());
        b[25..29].copy_from_slice(&self.to.to_le_bytes());
        let crc = crc32(&b[..29]);
        b[29..33].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Decodes one record. `None` means the bytes at this position are not
    /// a whole, intact record — a short read, a torn append or garbage —
    /// and the journal's valid prefix ends here.
    fn decode(raw: &[u8]) -> Option<Intent> {
        if raw.len() < INTENT_RECORD {
            return None;
        }
        let kind = IntentKind::from_byte(raw[0])?;
        let crc = u32::from_le_bytes(raw[29..33].try_into().ok()?);
        if crc != crc32(&raw[..29]) {
            return None;
        }
        Some(Intent {
            kind,
            ino: u64::from_le_bytes(raw[1..9].try_into().ok()?),
            block: u64::from_le_bytes(raw[9..17].try_into().ok()?),
            n: u64::from_le_bytes(raw[17..25].try_into().ok()?),
            to: u32::from_le_bytes(raw[25..29].try_into().ok()?),
        })
    }
}

/// A bounds-checked little-endian reader over untrusted bytes.
struct Cur<'a> {
    r: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(r: &'a [u8]) -> Self {
        Self { r }
    }

    fn remaining(&self) -> usize {
        self.r.len()
    }

    fn take(&mut self, n: usize) -> VfsResult<&'a [u8]> {
        if self.r.len() < n {
            return Err(corrupt("truncated snapshot"));
        }
        let (head, tail) = self.r.split_at(n);
        self.r = tail;
        Ok(head)
    }

    fn u64(&mut self) -> VfsResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> VfsResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u16(&mut self) -> VfsResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn name(&mut self) -> VfsResult<String> {
        let nlen = self.u16()? as usize;
        String::from_utf8(self.take(nlen)?.to_vec()).map_err(|_| corrupt("non-UTF-8 name"))
    }
}

/// Fully decoded, validated snapshot — built before any Mux state is
/// touched, so a corrupt snapshot never leaves a half-loaded namespace.
struct SnapshotImage {
    next_ino: u64,
    dirs: Vec<SnapDir>,
    files: Vec<SnapFile>,
}

struct SnapDir {
    ino: MuxIno,
    parent: MuxIno,
    name: String,
    mode: u32,
}

struct SnapFile {
    ino: MuxIno,
    parent: MuxIno,
    name: String,
    attr: FileAttr,
    owners: [TierId; 4],
    native: Vec<(TierId, InodeNo)>,
    blt: BlockLookupTable,
    replicas: BlockLookupTable,
    /// Per-block CRC-32C values, loaded as *untrusted* (see
    /// [`crate::integrity`]): a crash window between a native write landing
    /// and the snapshot recording its checksum would otherwise turn honest
    /// recovered data into false corruption reports.
    checksums: Vec<(u64, u32)>,
}

/// Smallest possible encodings, used to sanity-check count fields before
/// trusting them (a corrupt count can otherwise demand absurd allocations).
const MIN_DIR_RECORD: usize = 8 + 8 + 2 + 4;
const MIN_FILE_RECORD: usize = 8 + 8 + 2 + 8 * 5 + 4 * 3 + 4 * 4 + 4 + 4 + 4 + 4;

fn decode_snapshot(raw: &[u8]) -> VfsResult<SnapshotImage> {
    let mut c = Cur::new(raw);
    if c.u64()? != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let next_ino = c.u64()?;
    let mut seen: HashSet<MuxIno> = HashSet::new();

    let n_dirs = c.u32()? as usize;
    if n_dirs > c.remaining() / MIN_DIR_RECORD {
        return Err(corrupt("dir count exceeds snapshot size"));
    }
    let mut dirs = Vec::with_capacity(n_dirs);
    for _ in 0..n_dirs {
        let ino = c.u64()?;
        let parent = c.u64()?;
        let name = c.name()?;
        let mode = c.u32()?;
        if ino != ROOT_INO && !seen.insert(ino) {
            return Err(corrupt("duplicate inode in snapshot"));
        }
        dirs.push(SnapDir {
            ino,
            parent,
            name,
            mode,
        });
    }

    let n_files = c.u32()? as usize;
    if n_files > c.remaining() / MIN_FILE_RECORD {
        return Err(corrupt("file count exceeds snapshot size"));
    }
    let mut files = Vec::with_capacity(n_files);
    for _ in 0..n_files {
        let ino = c.u64()?;
        let parent = c.u64()?;
        let name = c.name()?;
        if ino == ROOT_INO || !seen.insert(ino) {
            return Err(corrupt("duplicate inode in snapshot"));
        }
        let mut attr = FileAttr::new(ino, FileType::Regular, 0o644, 0);
        attr.size = c.u64()?;
        attr.blocks_bytes = c.u64()?;
        attr.atime_ns = c.u64()?;
        attr.mtime_ns = c.u64()?;
        attr.ctime_ns = c.u64()?;
        attr.mode = c.u32()?;
        attr.uid = c.u32()?;
        attr.gid = c.u32()?;
        let owners = [c.u32()?, c.u32()?, c.u32()?, c.u32()?];
        let n_native = c.u32()? as usize;
        if n_native > c.remaining() / 12 {
            return Err(corrupt("native count exceeds snapshot size"));
        }
        let mut native = Vec::with_capacity(n_native);
        for _ in 0..n_native {
            let t = c.u32()?;
            let nino = c.u64()?;
            native.push((t, nino));
        }
        let blen = c.u32()? as usize;
        let blt = BlockLookupTable::decode_bytemap(c.take(blen)?);
        let rlen = c.u32()? as usize;
        let replicas = BlockLookupTable::decode_bytemap(c.take(rlen)?);
        let n_ck = c.u32()? as usize;
        if n_ck > c.remaining() / 12 {
            return Err(corrupt("checksum count exceeds snapshot size"));
        }
        let mut checksums = Vec::with_capacity(n_ck);
        for _ in 0..n_ck {
            let block = c.u64()?;
            let crc = c.u32()?;
            checksums.push((block, crc));
        }
        files.push(SnapFile {
            ino,
            parent,
            name,
            attr,
            owners,
            native,
            blt,
            replicas,
            checksums,
        });
    }
    Ok(SnapshotImage {
        next_ino,
        dirs,
        files,
    })
}

/// The union of the journal's `kind` records for `of`'s file and tier,
/// clipped to `of`'s range (duplicate records simply collapse).
fn committed_ranges(intents: &[Intent], kind: IntentKind, of: &Intent) -> Vec<(u64, u64)> {
    let recs: Vec<(u64, u64)> = intents
        .iter()
        .filter(|c| c.kind == kind && c.ino == of.ino && c.to == of.to)
        .map(|c| (c.block, c.n))
        .collect();
    crate::file::clip_ranges(&recs, of.block, of.n)
}

fn find_or_create(fs: &dyn FileSystem, name: &str) -> VfsResult<InodeNo> {
    match fs.lookup(ROOT_INO, name) {
        Ok(a) => Ok(a.ino),
        Err(VfsError::NotFound) => Ok(fs.create(ROOT_INO, name, FileType::Regular, 0o600)?.ino),
        Err(VfsError::Stale) => {
            // A crash between the dentry append and the inode write left a
            // dangling name; reclaim it rather than failing recovery.
            fs.unlink(ROOT_INO, name)?;
            Ok(fs.create(ROOT_INO, name, FileType::Regular, 0o600)?.ino)
        }
        Err(e) => Err(e),
    }
}

/// Reads a metafile in full; `None` if it is absent or empty.
fn read_meta_file(fs: &dyn FileSystem, name: &str) -> Option<(InodeNo, Vec<u8>)> {
    let attr = fs.lookup(ROOT_INO, name).ok()?;
    if attr.size == 0 {
        return None;
    }
    let mut raw = vec![0u8; attr.size as usize];
    fs.read(attr.ino, 0, &mut raw).ok()?;
    Some((attr.ino, raw))
}

impl Mux {
    /// Enables the durable metafile on `tier` (conventionally the fastest,
    /// so the per-migration intent writes are cheap).
    pub fn enable_metafile(&self, tier: TierId) -> VfsResult<()> {
        let handle = self.tier(tier)?;
        let snapshot_ino = find_or_create(handle.fs.as_ref(), SNAPSHOT_NAME)?;
        let intents_ino = find_or_create(handle.fs.as_ref(), INTENTS_NAME)?;
        let intents_off = handle.fs.getattr(intents_ino)?.size;
        *self.metafile.lock() = Some(MetafileHandle {
            fs: Arc::clone(&handle.fs),
            snapshot_ino,
            intents_ino,
            intents_off,
        });
        Ok(())
    }

    /// Appends one record to the intent journal and fsyncs it. Begin
    /// records go in before any copy lands on `to`, commit records after
    /// the flip, unmirror records before the replica entries are dropped —
    /// [`Mux::migrate_range`], [`Mux::mirror_range`] and
    /// [`Mux::unmirror_range`] journal automatically. A no-op without a
    /// metafile.
    ///
    /// Public for crash-injection tests.
    pub fn journal(
        &self,
        kind: IntentKind,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<()> {
        let mut guard = self.metafile.lock();
        let Some(handle) = guard.as_mut() else {
            return Ok(());
        };
        let rec = Intent {
            kind,
            ino,
            block,
            n,
            to,
        }
        .encode();
        handle
            .fs
            .write(handle.intents_ino, handle.intents_off, &rec)?;
        handle.fs.fsync(handle.intents_ino)?;
        handle.intents_off += rec.len() as u64;
        Ok(())
    }

    /// Serializes the full Mux state into the snapshot file and truncates
    /// the intent journal (everything journaled is now in the snapshot).
    ///
    /// The rewrite is atomic: the new snapshot is staged in a sibling
    /// file, fsync'd, and renamed over the old one, so a crash at any
    /// point leaves a complete snapshot (old or new) on the device. The
    /// journal is truncated only after the rename is durable — replaying
    /// a stale journal against the new snapshot is idempotent.
    pub fn snapshot_metafile(&self) -> VfsResult<()> {
        let mut guard = self.metafile.lock();
        let Some(handle) = guard.as_mut() else {
            return Ok(());
        };
        let mut b: Vec<u8> = Vec::with_capacity(4096);
        b.put_u64_le(SNAP_MAGIC);
        b.put_u64_le(self.next_ino.load(Ordering::Relaxed));
        {
            // Collect then sort: shard iteration order is hash-dependent,
            // and the snapshot encoding should be byte-stable.
            let mut dirs: Vec<(MuxIno, MuxIno, String, u32)> = Vec::new();
            self.ns
                .dirs
                .for_each(|&ino, d| dirs.push((ino, d.parent, d.name.clone(), d.attr.mode)));
            dirs.sort_unstable_by_key(|e| e.0);
            b.put_u32_le(dirs.len() as u32);
            for (ino, parent, name, mode) in dirs {
                b.put_u64_le(ino);
                b.put_u64_le(parent);
                b.put_u16_le(name.len() as u16);
                b.extend_from_slice(name.as_bytes());
                b.put_u32_le(mode);
            }
        }
        {
            let mut files: Vec<(MuxIno, Arc<MuxFile>)> = Vec::new();
            self.files
                .for_each(|&ino, f| files.push((ino, Arc::clone(f))));
            files.sort_unstable_by_key(|e| e.0);
            // Fallback names for files missing from the namespace must not
            // collide with real root entries (or each other).
            let mut taken: BTreeSet<String> = self
                .ns
                .dirs
                .view(&ROOT_INO, |d| d.entries.keys().cloned().collect())
                .unwrap_or_default();
            b.put_u32_le(files.len() as u32);
            for (ino, f) in files {
                let st = f.state.read();
                let (parent, name) = match self.ns.file_loc.get(&ino) {
                    Some(loc) => loc,
                    None => {
                        let mut cand = format!(".orphan-{ino}");
                        let mut k = 0u32;
                        while taken.contains(&cand) {
                            k += 1;
                            cand = format!(".orphan-{ino}.{k}");
                        }
                        taken.insert(cand.clone());
                        (ROOT_INO, cand)
                    }
                };
                b.put_u64_le(ino);
                b.put_u64_le(parent);
                b.put_u16_le(name.len() as u16);
                b.extend_from_slice(name.as_bytes());
                let a = st.meta.attr;
                b.put_u64_le(a.size);
                b.put_u64_le(a.blocks_bytes);
                b.put_u64_le(a.atime_ns);
                b.put_u64_le(a.mtime_ns);
                b.put_u64_le(a.ctime_ns);
                b.put_u32_le(a.mode);
                b.put_u32_le(a.uid);
                b.put_u32_le(a.gid);
                for o in st.meta.owners() {
                    b.put_u32_le(o);
                }
                let mut native: Vec<(TierId, InodeNo)> =
                    st.native.iter().map(|(&t, &n)| (t, n)).collect();
                native.sort_unstable();
                b.put_u32_le(native.len() as u32);
                for (t, nino) in native {
                    b.put_u32_le(t);
                    b.put_u64_le(nino);
                }
                let bytemap = st.blt.encode_bytemap();
                b.put_u32_le(bytemap.len() as u32);
                b.extend_from_slice(&bytemap);
                // Replica table: same byte-array encoding as the BLT.
                let mut rep_blt = BlockLookupTable::new();
                for e in st.replicas.iter() {
                    rep_blt.assign(e.start, e.len, e.value);
                }
                let repmap = rep_blt.encode_bytemap();
                b.put_u32_le(repmap.len() as u32);
                b.extend_from_slice(&repmap);
                // Block checksums: (block, crc) pairs, already sorted by
                // block. Quarantine state is deliberately not persisted — a
                // remount re-verifies from scratch.
                let checksums = st.checksums.entries();
                b.put_u32_le(checksums.len() as u32);
                for (block, crc) in checksums {
                    b.put_u64_le(block);
                    b.put_u32_le(crc);
                }
            }
        }
        // Stage, persist, then atomically swing the name.
        let tmp_ino = find_or_create(handle.fs.as_ref(), SNAPSHOT_TMP_NAME)?;
        handle.fs.setattr(tmp_ino, &SetAttr::truncate(0))?;
        handle.fs.write(tmp_ino, 0, &b)?;
        handle.fs.fsync(tmp_ino)?;
        handle
            .fs
            .rename(ROOT_INO, SNAPSHOT_TMP_NAME, ROOT_INO, SNAPSHOT_NAME)?;
        // Make the rename itself durable before dropping the journal.
        handle.fs.fsync(tmp_ino)?;
        handle.snapshot_ino = tmp_ino;
        handle
            .fs
            .setattr(handle.intents_ino, &SetAttr::truncate(0))?;
        handle.fs.fsync(handle.intents_ino)?;
        handle.intents_off = 0;
        Ok(())
    }

    /// Applies a decoded snapshot to this (empty) Mux. Structural repairs
    /// — unknown parents, colliding names — reattach under the root with a
    /// disambiguated name rather than dropping state.
    fn apply_snapshot(&self, img: SnapshotImage) {
        let mut max_ino = ROOT_INO;
        let known_dirs: HashSet<MuxIno> = img
            .dirs
            .iter()
            .map(|d| d.ino)
            .chain(std::iter::once(ROOT_INO))
            .collect();
        for d in &img.dirs {
            if d.ino == ROOT_INO {
                continue;
            }
            max_ino = max_ino.max(d.ino);
            let mut attr = FileAttr::new(d.ino, FileType::Directory, d.mode, 0);
            attr.nlink = 2;
            self.ns.dirs.insert(
                d.ino,
                MuxDir {
                    parent: d.parent,
                    name: d.name.clone(),
                    entries: BTreeMap::new(),
                    attr,
                },
            );
        }
        // Wire children into parents.
        for d in &img.dirs {
            if d.ino == ROOT_INO {
                continue;
            }
            let parent = if known_dirs.contains(&d.parent) && d.parent != d.ino {
                d.parent
            } else {
                ROOT_INO
            };
            let name = self.free_name(parent, &d.name);
            self.ns.dirs.update(&parent, |p| {
                p.entries.insert(name.clone(), NsEntry::Dir(d.ino));
            });
            if name != d.name || parent != d.parent {
                self.ns.dirs.update(&d.ino, |dd| {
                    dd.name = name.clone();
                    dd.parent = parent;
                });
            }
        }
        for f in img.files {
            max_ino = max_ino.max(f.ino);
            let mut meta = CollectiveInode::new(f.attr, f.owners[0]);
            meta.set_owners(f.owners);
            let file = MuxFile::new(f.ino, meta);
            {
                let mut st = file.state.write();
                for (t, nino) in f.native {
                    st.native.insert(t, nino);
                }
                st.blt = f.blt;
                for e in f.replicas.extents() {
                    st.replicas.insert(e.start, e.len, e.value);
                }
                st.checksums.load_untrusted(f.checksums);
            }
            let parent = if known_dirs.contains(&f.parent) {
                f.parent
            } else {
                ROOT_INO
            };
            let name = self.free_name(parent, &f.name);
            self.ns.dirs.update(&parent, |p| {
                p.entries.insert(name.clone(), NsEntry::File(f.ino));
            });
            self.ns.file_loc.insert(f.ino, (parent, name));
            self.files.insert(f.ino, Arc::new(file));
        }
        // Never hand out inode numbers the snapshot already uses, even if
        // its recorded next_ino is stale or corrupt.
        self.next_ino
            .store(img.next_ino.max(max_ino + 1), Ordering::Relaxed);
    }

    /// First free name in `parent` starting from `base` (appends `.1`,
    /// `.2`, … on collision).
    fn free_name(&self, parent: MuxIno, base: &str) -> String {
        let taken = |n: &str| {
            self.ns
                .dirs
                .view(&parent, |p| p.entries.contains_key(n))
                .unwrap_or(false)
        };
        if !taken(base) {
            return base.to_string();
        }
        let mut k = 1u64;
        loop {
            let cand = format!("{base}.{k}");
            if !taken(&cand) {
                return cand;
            }
            k += 1;
        }
    }

    /// Drops native handles the tiers no longer back (a natively-durable
    /// unlink the snapshot predates, or a tier id the snapshot invented)
    /// and clears BLT/replica extents that point at tiers without a copy.
    fn validate_native_handles(&self) {
        let mut inos: Vec<MuxIno> = self.files.keys();
        inos.sort_unstable();
        for ino in inos {
            let Ok(file) = self.get_file(ino) else {
                continue;
            };
            let mut st = file.state.write();
            let natives: Vec<(TierId, InodeNo)> = st.native.iter().map(|(&t, &n)| (t, n)).collect();
            for (t, nino) in natives {
                let alive = self.tier(t).ok().is_some_and(
                    |h| matches!(h.fs.getattr(nino), Ok(a) if a.kind == FileType::Regular),
                );
                if !alive {
                    st.native.remove(&t);
                }
            }
            let exts = st.blt.extents();
            for e in exts {
                if !st.native.contains_key(&e.value) {
                    st.blt.clear(e.start, e.len);
                }
            }
            let reps: Vec<_> = st.replicas.iter().collect();
            for e in reps {
                if !st.native.contains_key(&e.value) {
                    st.replicas.remove(e.start, e.len);
                }
            }
            // Checksums for blocks the BLT no longer maps are meaningless
            // (the block may be re-adopted later with different content).
            let mapped: HashSet<u64> = st
                .blt
                .extents()
                .iter()
                .flat_map(|e| e.start..e.start + e.len)
                .collect();
            st.checksums.retain_blocks(|b| mapped.contains(&b));
            st.meta.attr.blocks_bytes = st.blt.mapped_blocks() * BLOCK;
        }
    }

    /// Recovers a Mux over existing tiers: loads the snapshot + intent
    /// journal from `metafile_tier` (if present) and reconciles with every
    /// native file system.
    pub fn recover(
        clock: VirtualClock,
        policy: Arc<dyn TieringPolicy>,
        opts: MuxOptions,
        tiers: Vec<(TierConfig, Arc<dyn FileSystem>)>,
        metafile_tier: TierId,
    ) -> VfsResult<Mux> {
        let mux = Mux::new(clock, policy, opts);
        for (cfg, fs) in tiers {
            mux.add_tier(cfg, fs);
        }
        let handle = mux.tier(metafile_tier)?;
        // 1. Snapshot. The primary is authoritative; if it is corrupt (or
        // absent) a complete staged sibling — a crash in the middle of the
        // atomic rewrite — is used instead.
        match read_meta_file(handle.fs.as_ref(), SNAPSHOT_NAME) {
            Some((_, raw)) => match decode_snapshot(&raw) {
                Ok(img) => mux.apply_snapshot(img),
                Err(e) => {
                    match read_meta_file(handle.fs.as_ref(), SNAPSHOT_TMP_NAME)
                        .and_then(|(_, raw)| decode_snapshot(&raw).ok())
                    {
                        Some(img) => mux.apply_snapshot(img),
                        None => return Err(e),
                    }
                }
            },
            None => {
                if let Some(img) = read_meta_file(handle.fs.as_ref(), SNAPSHOT_TMP_NAME)
                    .and_then(|(_, raw)| decode_snapshot(&raw).ok())
                {
                    mux.apply_snapshot(img);
                }
            }
        }
        // A leftover staged snapshot is now either adopted or stale.
        let _ = handle.fs.unlink(ROOT_INO, SNAPSHOT_TMP_NAME);
        // 2. Intent journal: replay the valid prefix; a record that fails
        // CRC (torn append) or parses as garbage ends the journal, and the
        // file is truncated back so future appends never interleave with
        // debris.
        let mut intents: Vec<Intent> = Vec::new();
        if let Some((ino, raw)) = read_meta_file(handle.fs.as_ref(), INTENTS_NAME) {
            let mut off = 0usize;
            while off + INTENT_RECORD <= raw.len() {
                match Intent::decode(&raw[off..]) {
                    Some(i) => {
                        intents.push(i);
                        off += INTENT_RECORD;
                    }
                    None => break,
                }
            }
            if (off as u64) < raw.len() as u64 {
                handle.fs.setattr(ino, &SetAttr::truncate(off as u64))?;
                handle.fs.fsync(ino)?;
            }
        }
        // Snapshot-recorded native handles may predate natively-durable
        // unlinks; drop the dead ones before walking the tiers.
        mux.validate_native_handles();
        // Register native handles and merge namespaces first, so intent
        // processing can reach destination files the snapshot predates.
        mux.reconcile_namespaces()?;
        // Apply intents in journal order: committed migrations re-apply
        // their BLT move, uncommitted ones leave debris in the destination
        // to punch; committed mirrors re-insert their replica entries,
        // uncommitted mirror bytes are punched; unmirrors drop replica
        // entries the snapshot may still name.
        for (idx, intent) in intents.iter().enumerate() {
            match intent.kind {
                IntentKind::MirrorBegin => {
                    mux.replay_mirror_begin(&intents, intent);
                    continue;
                }
                IntentKind::Unmirror => {
                    mux.replay_unmirror(&intents[idx + 1..], intent);
                    continue;
                }
                IntentKind::MoveBegin => {}
                _ => continue,
            }
            let Ok(file) = mux.get_file(intent.ino) else {
                continue;
            };
            // An aborted migration commits the sub-ranges whose sources it
            // already reclaimed, so exact-match against the begin record
            // would treat them as debris and punch real data.
            let committed = committed_ranges(&intents, IntentKind::MoveCommit, intent);
            // Re-apply the committed moves. Replica entries recorded on
            // the destination (snapshot or earlier mirror records) are
            // absorbed along with the swing, exactly as the live commit
            // does — the new primary must not be shadowed by itself.
            {
                let mut st = file.state.write();
                if st.native.contains_key(&intent.to) {
                    for &(s, l) in &committed {
                        for seg in st.blt.plan(s, l) {
                            st.blt.assign(seg.start, seg.len, intent.to);
                        }
                        crate::occ::absorb_shadowed_replicas(&mut st, s, l, intent.to);
                    }
                }
            }
            // Debris: punch the copied-but-never-committed remainder out
            // of the destination. Replica extents there are real durable
            // data too (e.g. a promotion aimed at the tier that already
            // mirrors the range) — `punch_unowned` spares them.
            mux.punch_debris(&file, intent, &committed);
        }
        // 3. Adopt blocks the BLTs do not cover (unsnapshotted writes).
        mux.adopt_all_blocks()?;
        mux.enable_metafile(metafile_tier)?;
        // The fast-path cache of this fresh Mux is empty, but recovery is
        // an invalidation *source* in the epoch scheme: bump so any
        // mapping published while replay was still mutating state (e.g. a
        // read issued mid-recovery by an embedding test) is retired.
        mux.fastpath_epoch_bump();
        Ok(mux)
    }

    /// Replays one `MirrorBegin` record: committed sub-ranges (union of
    /// the journal's `MirrorCommit` records for the same file and tier)
    /// get their replica entries re-inserted — the commit record promises
    /// the copy was fsync'd first — and the uncommitted remainder on the
    /// destination is debris to punch. The punch spares blocks the BLT
    /// maps to the destination, replica extents recorded elsewhere
    /// (snapshot or earlier records), and every committed mirror range in
    /// the journal, so a retry after a failed attempt never loses data.
    fn replay_mirror_begin(&self, intents: &[Intent], begin: &Intent) {
        let Ok(file) = self.get_file(begin.ino) else {
            return;
        };
        let commits = committed_ranges(intents, IntentKind::MirrorCommit, begin);
        {
            let mut st = file.state.write();
            if st.native.contains_key(&begin.to) {
                for &(s, l) in &commits {
                    st.replicas.insert(s, l, begin.to);
                }
            }
        }
        self.punch_debris(&file, begin, &commits);
    }

    /// Replays one `Unmirror` record: drop the range's replica entries on
    /// the tier (the snapshot may predate the retirement) and punch the
    /// backing blocks. The punch spares blocks the BLT maps to the tier
    /// and any range a *later* mirror commit re-established there (lazy
    /// resync — its durable copy must survive this replay).
    fn replay_unmirror(&self, later: &[Intent], un: &Intent) {
        let Ok(file) = self.get_file(un.ino) else {
            return;
        };
        {
            let mut st = file.state.write();
            for (s, l) in st.replicas_on(un.block, un.n, un.to) {
                st.replicas.remove(s, l);
            }
        }
        let later = committed_ranges(later, IntentKind::MirrorCommit, un);
        self.punch_debris(&file, un, &later);
    }

    /// Punches what the tier of record `of` holds of its range that no map
    /// names there any more, sparing `spare`. Best effort — a missing
    /// destination file means there is no debris to resurrect.
    fn punch_debris(&self, file: &MuxFile, of: &Intent, spare: &[(u64, u64)]) {
        for (b, l) in crate::file::subtract_ranges(of.block, of.n, spare) {
            self.punch_unowned(file, b, l, of.to);
        }
    }

    /// Walks every tier's namespace, adopting files and blocks Mux does
    /// not know about — the merged union view of §2.1 plus crash repair.
    pub fn reconcile_with_tiers(&self) -> VfsResult<()> {
        self.reconcile_namespaces()?;
        self.adopt_all_blocks()
    }

    /// Namespace half of reconciliation: walk every tier's directory
    /// tree, adopt unknown files/dirs and register native inode handles.
    pub fn reconcile_namespaces(&self) -> VfsResult<()> {
        // A native inode already backing a Mux file must not be adopted a
        // second time under another name (e.g. a rename the metafile saw
        // but the tier's own journal did not, or vice versa) — that would
        // alias one native file behind two Mux files.
        let mut claimed: HashMap<(TierId, InodeNo), MuxIno> = HashMap::new();
        self.files.for_each(|&ino, f| {
            for (&t, &n) in f.state.read().native.iter() {
                claimed.insert((t, n), ino);
            }
        });
        let tiers: Vec<_> = self.tiers.read().iter().cloned().collect();
        for handle in &tiers {
            self.adopt_dir(
                handle.as_ref(),
                handle.fs.root_ino(),
                ROOT_INO,
                &mut claimed,
            )?;
        }
        Ok(())
    }

    /// Block half of reconciliation: probe extents for every file and
    /// adopt blocks missing from BLTs (e.g. writes that never reached a
    /// snapshot).
    pub fn adopt_all_blocks(&self) -> VfsResult<()> {
        let mut inos: Vec<MuxIno> = self.files.keys();
        inos.sort_unstable();
        for ino in inos {
            self.adopt_blocks(ino)?;
        }
        Ok(())
    }

    fn adopt_dir(
        &self,
        tier: &crate::mux::TierHandle,
        native_dir: InodeNo,
        mux_dir: MuxIno,
        claimed: &mut HashMap<(TierId, InodeNo), MuxIno>,
    ) -> VfsResult<()> {
        let entries = tier.fs.readdir(native_dir)?;
        for e in entries {
            if e.name == SNAPSHOT_NAME || e.name == INTENTS_NAME || e.name == SNAPSHOT_TMP_NAME {
                continue;
            }
            match e.kind {
                FileType::Directory => {
                    let child_mux = self
                        .ns
                        .dirs
                        .view(&mux_dir, |d| d.entries.get(&e.name).copied())
                        .flatten();
                    let child_mux = match child_mux {
                        Some(NsEntry::Dir(d)) => d,
                        Some(NsEntry::File(_)) => continue, // type conflict: skip
                        None => {
                            let attr = self.create(mux_dir, &e.name, FileType::Directory, 0o755)?;
                            attr.ino
                        }
                    };
                    self.adopt_dir(tier, e.ino, child_mux, claimed)?;
                }
                FileType::Regular => {
                    // Stat before adopting: a dangling dentry (half-durable
                    // create the native fsck missed) must not abort the
                    // whole recovery, and must not spawn an empty Mux file.
                    let Ok(nattr) = tier.fs.getattr(e.ino) else {
                        continue;
                    };
                    let claimant = claimed.get(&(tier.id, e.ino)).copied();
                    let existing = self
                        .ns
                        .dirs
                        .view(&mux_dir, |d| d.entries.get(&e.name).copied())
                        .flatten();
                    let mux_ino = match existing {
                        Some(NsEntry::File(f)) => {
                            if claimant.is_some_and(|c| c != f) {
                                continue; // aliased under another file: skip
                            }
                            f
                        }
                        Some(NsEntry::Dir(_)) => continue,
                        None => {
                            if claimant.is_some() {
                                // Known inode under an unexpected name (a
                                // half-durable rename); the metafile's name
                                // wins, so don't adopt a second identity.
                                continue;
                            }
                            self.create(mux_dir, &e.name, FileType::Regular, 0o644)?.ino
                        }
                    };
                    claimed.insert((tier.id, e.ino), mux_ino);
                    let file = self.get_file(mux_ino)?;
                    let mut st = file.state.write();
                    st.native.insert(tier.id, e.ino);
                    // Union semantics: logical size/mtime are the max over
                    // participants (a sparse participant is never longer
                    // than the logical file).
                    if nattr.size > st.meta.attr.size {
                        st.meta.attr.size = nattr.size;
                        st.meta.set_owner(crate::meta::AttrKind::Size, tier.id);
                    }
                    if nattr.mtime_ns > st.meta.attr.mtime_ns {
                        st.meta.attr.mtime_ns = nattr.mtime_ns;
                        st.meta.set_owner(crate::meta::AttrKind::Mtime, tier.id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Adopts blocks present on tiers but absent from the file's BLT,
    /// resolving multi-tier conflicts by native mtime (best-effort — such
    /// blocks can only come from unsynced writes, which carry no
    /// guarantee).
    fn adopt_blocks(&self, ino: MuxIno) -> VfsResult<()> {
        let file = self.get_file(ino)?;
        let natives: Vec<(TierId, InodeNo)> = {
            let st = file.state.read();
            st.native.iter().map(|(&t, &n)| (t, n)).collect()
        };
        // Tier order: probe the latest-mtime participant first; since only
        // unmapped blocks are adopted, the latest writer wins conflicts.
        let mut with_mtime: Vec<(u64, TierId, InodeNo)> = Vec::new();
        for (t, nino) in natives {
            let Ok(handle) = self.tier(t) else {
                continue;
            };
            let m = handle.fs.getattr(nino).map(|a| a.mtime_ns).unwrap_or(0);
            with_mtime.push((m, t, nino));
        }
        with_mtime.sort_unstable();
        with_mtime.reverse();
        for (_m, t, nino) in with_mtime {
            let handle = self.tier(t)?;
            let mut off = 0u64;
            // A handle can still go stale between validation and the probe
            // (it never does single-threaded, but stay panic-free): treat
            // probe errors as "no more extents".
            while let Some((start, len)) = handle.fs.next_data(nino, off).unwrap_or(None) {
                let b0 = start / BLOCK;
                let b1 = (start + len).div_ceil(BLOCK);
                let mut st = file.state.write();
                // Only adopt blocks the BLT does not map at all; mapped
                // blocks are authoritative (snapshot/intents).
                let mut cur = b0;
                while cur < b1 {
                    match st.blt.tier_of(cur) {
                        Some(_) => cur += 1,
                        None => {
                            let mut run = 1;
                            while cur + run < b1 && st.blt.tier_of(cur + run).is_none() {
                                run += 1;
                            }
                            st.blt.assign(cur, run, t);
                            cur += run;
                        }
                    }
                }
                st.meta.attr.blocks_bytes = st.blt.mapped_blocks() * BLOCK;
                drop(st);
                off = start + len;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PinnedPolicy;
    use simdev::DeviceClass;
    use tvfs::memfs::MemFs;

    fn two_tier_mux() -> Mux {
        let mux = Mux::new(
            VirtualClock::new(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        mux.add_tier(
            TierConfig {
                name: "a".into(),
                class: DeviceClass::Pmem,
            },
            Arc::new(MemFs::new("a", 1 << 26)) as Arc<dyn FileSystem>,
        );
        mux.add_tier(
            TierConfig {
                name: "b".into(),
                class: DeviceClass::Ssd,
            },
            Arc::new(MemFs::new("b", 1 << 26)) as Arc<dyn FileSystem>,
        );
        mux.enable_metafile(0).unwrap();
        mux
    }

    #[test]
    fn intent_roundtrip_and_torn_rejection() {
        let i = Intent {
            kind: IntentKind::MoveBegin,
            ino: 42,
            block: 7,
            n: 3,
            to: 1,
        };
        let raw = i.encode();
        assert_eq!(raw.len(), INTENT_RECORD);
        let back = Intent::decode(&raw).expect("valid record");
        assert_eq!(back.ino, 42);
        // A torn suffix or a flipped byte must both fail the CRC.
        assert!(Intent::decode(&raw[..INTENT_RECORD - 1]).is_none());
        let mut bad = raw;
        bad[3] ^= 0x40;
        assert!(Intent::decode(&bad).is_none());
        // Every mirror record kind round-trips; an unknown kind is rejected
        // even with a valid CRC (it ends the journal's valid prefix).
        for kind in [
            IntentKind::MirrorBegin,
            IntentKind::MirrorCommit,
            IntentKind::Unmirror,
        ] {
            let m = Intent { kind, ..i };
            let back = Intent::decode(&m.encode()).expect("mirror record decodes");
            assert_eq!(back, m);
        }
        let mut unknown = raw;
        unknown[0] = 9;
        let crc = crc32(&unknown[..29]);
        unknown[29..33].copy_from_slice(&crc.to_le_bytes());
        assert!(Intent::decode(&unknown).is_none());
    }

    #[test]
    fn orphan_fallback_name_disambiguates_on_collision() {
        let mux = two_tier_mux();
        let f = mux.create(ROOT_INO, "g", FileType::Regular, 0o644).unwrap();
        // Squat on the fallback name the orphan would otherwise get.
        let squat = format!(".orphan-{}", f.ino);
        mux.create(ROOT_INO, &squat, FileType::Regular, 0o644)
            .unwrap();
        // Detach "g" from the namespace, leaving it only in the file
        // table — the situation the fallback naming exists for (e.g. a
        // hidden file with no directory entry).
        mux.ns.file_loc.remove(&f.ino);
        mux.ns.dirs.update(&ROOT_INO, |d| {
            d.entries.remove("g");
        });
        mux.snapshot_metafile().unwrap();
        let handle = mux.tier(0).unwrap();
        let (_, raw) = read_meta_file(handle.fs.as_ref(), SNAPSHOT_NAME).expect("snapshot");
        let img = decode_snapshot(&raw).expect("decodes");
        let names: Vec<&str> = img.files.iter().map(|x| x.name.as_str()).collect();
        assert!(
            names.contains(&format!("{squat}.1").as_str()),
            "expected disambiguated orphan name, got {names:?}"
        );
        // No two files may share a (parent, name) pair.
        let mut pairs: Vec<(MuxIno, &str)> = img
            .files
            .iter()
            .map(|x| (x.parent, x.name.as_str()))
            .collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "colliding names in snapshot");
    }

    #[test]
    fn snapshot_rewrite_is_staged_and_renamed() {
        let mux = two_tier_mux();
        mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        mux.snapshot_metafile().unwrap();
        let handle = mux.tier(0).unwrap();
        // After a completed rewrite the staged sibling is gone and the
        // primary decodes.
        assert!(handle.fs.lookup(ROOT_INO, SNAPSHOT_TMP_NAME).is_err());
        let (_, raw) = read_meta_file(handle.fs.as_ref(), SNAPSHOT_NAME).expect("snapshot");
        decode_snapshot(&raw).expect("valid snapshot");
    }
}
