//! The durable Mux metafile: a checkpoint, a delta log and recovery
//! (paper §2.3's "Mux maintains its own metadata" and §4's crash
//! consistency).
//!
//! Mux's bookkeeping lives in two regular files on a tier of the user's
//! choice (conventionally the fastest). The **checkpoint** is a full
//! encoding of the namespace, Block Lookup Tables (byte-array encoding),
//! affinity tables, native handles and block checksums. The **journal**
//! holds what changed since: CRC-tailed frames, each stamped with the
//! generation of the checkpoint it extends. Durability is the native file
//! systems' job (§2.3, no double journaling) — a flush (`fsync`, `sync`)
//! fsyncs the data natively and then appends *what changed* to the
//! journal, it does not re-serialise the namespace.
//!
//! Every record kind is **absolute**: it says where an inode is or what it
//! holds, never what to do to it, so replaying a record twice, or over a
//! state that already reflects it, changes nothing.
//!
//! * *Intents* ([`IntentKind`]) bracket a migration or mirror copy and are
//!   appended (and fsync'd) as it runs, so recovery can tell half-copied
//!   debris from real data.
//! * *Namespace records* — link, mkdir, unlink, rmdir; a rename is a link
//!   (or mkdir) of an inode that already exists — are queued by the
//!   namespace operations in the order they took effect.
//! * *Inode upserts* carry a file's attributes, affinity owners and native
//!   handles whole, and its Block Lookup Table bytes, replica bytes and
//!   checksum runs for the block ranges dirtied since the file's last
//!   upsert. They are built **at flush time** from the per-file
//!   durable-dirty set (`file::DurableDirty`) that `commit` and
//!   `swing` mark: a write pays one range insert and nothing is buffered
//!   per write.
//!
//! The ordering rule is *native data durable before the record that names
//! it*: a flush runs after the native fsyncs of the file being fsync'd on
//! every tier but the metafile's (of every tier, for `sync`). On the
//! metafile's own tier the journal rides the data's barrier: the frames
//! are written, then one `fsync_many(&[data, journal])` (or the tier's
//! `sync`) makes both durable in one native commit, and that call's
//! contract keeps the journal from being durable before the data. A flush
//! that checkpoints instead runs the barrier alone first: a checkpoint
//! never names data that is not durable.
//!
//! A flush writes everything queued, whichever file asked — as every
//! snapshot covered the whole namespace — so the upsert of a file nobody
//! fsync'd may name blocks that are not durable yet; that is an unsynced
//! write, which owes nothing, and its checksums load untrusted. Whatever
//! is queued also goes out ahead of an intent, so a replay always knows
//! the inode a record names.
//!
//! A flush that would push the journal past a fixed fraction of the last
//! checkpoint writes a new **checkpoint** instead: staged in a sibling,
//! fsync'd, renamed over the old one, fsync'd, and only then is the
//! journal truncated. A crash between the rename and the truncation leaves
//! a journal of the old generation, which replay skips.
//!
//! Recovery composes three sources, in order:
//!
//! 1. the checkpoint,
//! 2. the journal's valid prefix, in order (namespace records and upserts;
//!    then, once the tiers have been walked, the intents no later upsert
//!    settled — committed migrations re-apply, debris is punched),
//! 3. **reconciliation with the native file systems** — the "talk to file
//!    systems" payoff: every tier's namespace is walked, unknown files are
//!    adopted into the union view (paper §2.1's merged directory tree) and
//!    unknown blocks are adopted into the BLT by probing `SEEK_DATA`
//!    extents. Unsynced writes thus survive as well as the native file
//!    system preserved them; conflicting adoptions resolve by native
//!    mtime.
//!
//! Nothing read back from a device is trusted: decoding validates every
//! count and length against the remaining buffer and returns
//! [`VfsError::Corrupt`] instead of panicking, native handles recorded in
//! the metafile are revalidated against the tiers before use, and a
//! journal whose tail fails CRC is truncated back to its valid prefix.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::BufMut;
use simdev::VirtualClock;
use tvfs::{
    Extent, FileAttr, FileSystem, FileType, InodeNo, SetAttr, VfsError, VfsResult, ROOT_INO,
};

use crate::blt::{bytemap_extents, bytemap_of};
use crate::file::{FileState, MuxFile, MuxIno};
use crate::integrity::crc32c;
use crate::meta::CollectiveInode;
use crate::mux::{Mux, MuxDir, NsEntry};
use crate::policy::TieringPolicy;
use crate::stats::MuxStats;
use crate::types::{FastPathConfig, MuxOptions, TierConfig, TierId, BLOCK};

const SNAP_MAGIC: u64 = 0x4d55_584d_4554_4134; // "MUXMETA4"
const SNAPSHOT_NAME: &str = ".mux.snapshot";
/// Sibling the checkpoint is staged in before the atomic rename.
const SNAPSHOT_TMP_NAME: &str = ".mux.snapshot.new";
const INTENTS_NAME: &str = ".mux.intents";

/// A flush that would grow the journal past `checkpoint bytes /
/// JOURNAL_BUDGET_DIV` (floor one block) checkpoints instead: metadata
/// space stays within 1 + 1/8 of one full encoding, and a checkpoint's
/// cost is spread over an eighth of its size in appended records.
const JOURNAL_BUDGET_DIV: u64 = 8;

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

// Frame kinds after the five `IntentKind`s.
const KIND_LINK: u8 = 6;
const KIND_MKDIR: u8 = 7;
const KIND_UNLINK: u8 = 8;
const KIND_RMDIR: u8 = 9;
const KIND_INODE: u8 = 10;

/// A journal frame is `payload length u32 | kind u8 | generation u64 |
/// payload | CRC-32C u32`, the CRC over everything before it.
const FRAME_HEAD: usize = 4 + 1 + 8;
const FRAME_OVERHEAD: usize = FRAME_HEAD + 4;

fn corrupt(what: &str) -> VfsError {
    VfsError::corrupt(what)
}

/// Where the metafile lives, and where its log stands.
pub struct MetafileHandle {
    /// The tier holding the metafile, whose native barrier the journal
    /// rides (see [`Barrier`]).
    pub(crate) tier: TierId,
    fs: Arc<dyn FileSystem>,
    intents_ino: InodeNo,
    intents_off: u64,
    /// Generation of the checkpoint the journal extends; every frame
    /// carries it, and replay skips frames of any other.
    generation: u64,
    /// Size of that checkpoint: the journal's budget is a fraction of it.
    checkpoint_len: u64,
    /// The log does not describe the live state — recovery reconciled with
    /// the tiers, the metafile was enabled over existing state, or an
    /// append failed half-way: nothing may be appended before a
    /// checkpoint re-bases it.
    rebase: bool,
}

impl MetafileHandle {
    /// Journal bytes above which a flush checkpoints instead of appending.
    fn budget(&self) -> u64 {
        (self.checkpoint_len / JOURNAL_BUDGET_DIV).max(BLOCK)
    }
}

/// The native durability call a flush makes on the metafile's own tier.
/// The journal's frames ride it: one native commit and one device flush
/// cover the frames and the data they name.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Barrier {
    /// `fsync` of this native inode, if any, listed before the journal.
    Fsync(Option<InodeNo>),
    /// `fsync` of this native directory, listed before the journal. One
    /// removed since it was resolved drops out of the barrier, as a
    /// directory fsync tolerates on every other tier.
    Dir(InodeNo),
    /// `sync` of the whole tier, which covers the journal too.
    Sync,
}

impl Barrier {
    /// This barrier, leaving one that persists nothing but the journal.
    fn take(&mut self) -> Barrier {
        std::mem::replace(self, Barrier::Fsync(None))
    }

    /// The barrier with nothing of the journal's on it: before a
    /// checkpoint, which must name only durable data, or with nothing to
    /// append.
    fn alone(self, fs: &dyn FileSystem) -> VfsResult<()> {
        match self {
            Barrier::Fsync(None) => Ok(()),
            Barrier::Fsync(Some(ino)) => fs.fsync(ino),
            Barrier::Dir(ino) => match fs.fsync(ino) {
                Err(VfsError::NotFound) => Ok(()),
                done => done,
            },
            Barrier::Sync => fs.sync(),
        }
    }

    /// The barrier with the journal's inode on it, last: frames written
    /// since the journal's last barrier are durable only with the data.
    fn with_journal(self, fs: &dyn FileSystem, journal: InodeNo) -> VfsResult<()> {
        match self {
            Barrier::Fsync(None) => fs.fsync(journal),
            Barrier::Fsync(Some(ino)) => fs.fsync_many(&[ino, journal]),
            // `fsync_many` checks every inode before any I/O.
            Barrier::Dir(ino) => match fs.fsync_many(&[ino, journal]) {
                Err(VfsError::NotFound) => fs.fsync(journal),
                done => done,
            },
            Barrier::Sync => fs.sync(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Intent {
    kind: IntentKind,
    ino: MuxIno,
    block: u64,
    n: u64,
    to: TierId,
}

/// A namespace record: where an inode is linked, or that it is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NsRecord {
    /// File `ino` is named `name` in `parent` (create, or a rename's
    /// destination).
    Link {
        parent: MuxIno,
        name: String,
        ino: MuxIno,
    },
    /// Directory `ino` is named `name` in `parent` and has `mode` (mkdir,
    /// a rename's destination, or a chmod).
    Mkdir {
        parent: MuxIno,
        name: String,
        ino: MuxIno,
        mode: u32,
    },
    /// File `ino` is gone.
    Unlink { ino: MuxIno },
    /// Directory `ino` is gone.
    Rmdir { ino: MuxIno },
}

/// One decoded journal record.
#[derive(Debug)]
enum Record {
    Intent(Intent),
    Ns(NsRecord),
    Inode(InodeRec),
}

/// What the metafile keeps of one file over some block ranges: the body of
/// an upsert record and — with the one range "every block" — of a
/// checkpoint's file entry.
#[derive(Debug)]
struct InodeRec {
    ino: MuxIno,
    attr: FileAttr,
    owners: [TierId; 4],
    native: Vec<(TierId, InodeNo)>,
    ranges: Vec<RangeRec>,
}

/// The block-keyed maps over `[first, first + n)`: loading it replaces
/// whatever the file held there.
#[derive(Debug)]
struct RangeRec {
    first: u64,
    n: u64,
    /// `(start, len, tier)` extents of the Block Lookup Table.
    blt: Vec<(u64, u64, TierId)>,
    /// Same, of the replica map.
    replicas: Vec<(u64, u64, TierId)>,
    /// Per-block CRC-32C values, loaded as *untrusted* (see
    /// [`crate::integrity`]): a crash window between a native write landing
    /// and the metafile recording its checksum would otherwise turn honest
    /// recovered data into false corruption reports.
    checksums: Vec<(u64, u32)>,
}

/// What has changed since the last flush and waits for the next one. A
/// leaf lock: nothing else is taken while it is held.
#[derive(Default)]
pub(crate) struct Pending {
    /// Namespace records, in the order the operations took effect.
    records: Vec<NsRecord>,
    /// Files whose durable-dirty set is listed (see
    /// [`crate::file::DurableDirty`]): each gets one upsert.
    inodes: Vec<MuxIno>,
}

/// How much the delta log holds right now (see [`Mux::metalog_status`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetalogStatus {
    /// Namespace records queued for the next flush.
    pub pending_records: usize,
    /// Inodes queued for an upsert at the next flush.
    pub pending_inodes: usize,
    /// Block ranges in the durable-dirty sets of all files.
    pub dirty_ranges: usize,
    /// Bytes in the journal.
    pub journal_bytes: u64,
    /// Bytes the journal may hold before a flush checkpoints instead.
    pub journal_budget: u64,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_name(b: &mut Vec<u8>, name: &str) {
    b.put_u16_le(name.len() as u16);
    b.extend_from_slice(name.as_bytes());
}

/// A block → tier map as `length u32 | byte array`.
fn put_bytemap(b: &mut Vec<u8>, extents: &[Extent<TierId>], first: u64) {
    let bytes = bytemap_of(extents, first);
    b.put_u32_le(bytes.len() as u32);
    b.extend_from_slice(&bytes);
}

/// Checksums as runs of consecutive blocks — `run count u32`, then `first
/// u64 | n u32 | crc u32 × n` per run: four bytes a block where `(block,
/// crc)` pairs took twelve. `entries` ascend by block.
fn put_crc_runs(b: &mut Vec<u8>, entries: impl Iterator<Item = (u64, u32)>) {
    let runs_at = b.len();
    b.put_u32_le(0);
    let mut runs = 0u32;
    // The open run: where its length goes, the block that would extend
    // it, and its length so far.
    let mut open: Option<(usize, u64, u32)> = None;
    for (block, crc) in entries {
        match &mut open {
            Some((_, next, n)) if *next == block && *n < u32::MAX => {
                *next += 1;
                *n += 1;
            }
            _ => {
                if let Some((n_at, _, n)) = open {
                    patch_u32(b, n_at, n);
                }
                b.put_u64_le(block);
                open = Some((b.len(), block + 1, 1));
                b.put_u32_le(0);
                runs += 1;
            }
        }
        b.put_u32_le(crc);
    }
    if let Some((n_at, _, n)) = open {
        patch_u32(b, n_at, n);
    }
    patch_u32(b, runs_at, runs);
}

/// Fills in a length that was only known after what it counts was written.
fn patch_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The scalar half of a file's record: attributes, affinity owners and
/// native handles.
fn put_inode_head(b: &mut Vec<u8>, st: &FileState) {
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
    let mut native: Vec<(TierId, InodeNo)> = st.native.iter().map(|(&t, &n)| (t, n)).collect();
    native.sort_unstable();
    b.put_u32_le(native.len() as u32);
    for (t, nino) in native {
        b.put_u32_le(t);
        b.put_u64_le(nino);
    }
}

/// The block-keyed half over `[first, first + n)`: Block Lookup Table and
/// replica map as byte arrays that end with their last mapped block, then
/// the checksums of the mapped blocks (one of an unmapped block would
/// describe nothing). Quarantine state is deliberately not persisted — a
/// remount re-verifies from scratch.
fn put_range(b: &mut Vec<u8>, st: &FileState, first: u64, n: u64) {
    let mapped = st.blt.plan(first, n);
    put_bytemap(b, &mapped, first);
    put_bytemap(b, &st.replicas.overlapping(first, n), first);
    let blocks = mapped.iter().flat_map(|e| e.start..e.start + e.len);
    put_crc_runs(
        b,
        blocks.filter_map(|blk| st.checksums.get(blk).map(|crc| (blk, crc))),
    );
}

/// Appends one journal frame whose payload `fill` writes.
fn put_frame(b: &mut Vec<u8>, generation: u64, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = b.len();
    b.put_u32_le(0);
    b.put_u8(kind);
    b.put_u64_le(generation);
    fill(b);
    let len = (b.len() - at - FRAME_HEAD) as u32;
    patch_u32(b, at, len);
    let crc = crc32c(&b[at..]);
    b.put_u32_le(crc);
}

impl Intent {
    fn put(&self, b: &mut Vec<u8>, generation: u64) {
        put_frame(b, generation, self.kind as u8, |b| {
            b.put_u64_le(self.ino);
            b.put_u64_le(self.block);
            b.put_u64_le(self.n);
            b.put_u32_le(self.to);
        });
    }
}

impl NsRecord {
    fn put(&self, b: &mut Vec<u8>, generation: u64) {
        match self {
            NsRecord::Link { parent, name, ino } => put_frame(b, generation, KIND_LINK, |b| {
                b.put_u64_le(*ino);
                b.put_u64_le(*parent);
                put_name(b, name);
            }),
            NsRecord::Mkdir {
                parent,
                name,
                ino,
                mode,
            } => put_frame(b, generation, KIND_MKDIR, |b| {
                b.put_u64_le(*ino);
                b.put_u64_le(*parent);
                put_name(b, name);
                b.put_u32_le(*mode);
            }),
            NsRecord::Unlink { ino } => {
                put_frame(b, generation, KIND_UNLINK, |b| b.put_u64_le(*ino))
            }
            NsRecord::Rmdir { ino } => put_frame(b, generation, KIND_RMDIR, |b| b.put_u64_le(*ino)),
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

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
            return Err(corrupt("truncated metafile"));
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

    /// A byte array of at most `max` blocks starting at block `first`.
    fn bytemap(&mut self, first: u64, max: u64) -> VfsResult<Vec<(u64, u64, TierId)>> {
        let len = self.u32()?;
        if u64::from(len) > max {
            return Err(corrupt("byte array longer than its range"));
        }
        Ok(bytemap_extents(self.take(len as usize)?, first).collect())
    }

    fn crc_runs(&mut self) -> VfsResult<Vec<(u64, u32)>> {
        let runs = self.u32()? as usize;
        if runs > self.remaining() / (8 + 4 + 4) {
            return Err(corrupt("checksum run count exceeds metafile size"));
        }
        let mut out = Vec::new();
        for _ in 0..runs {
            let first = self.u64()?;
            let n = self.u32()?;
            if n as usize > self.remaining() / 4 || first.checked_add(u64::from(n)).is_none() {
                return Err(corrupt("checksum run exceeds metafile size"));
            }
            for block in first..first + u64::from(n) {
                out.push((block, self.u32()?));
            }
        }
        Ok(out)
    }

    /// Counterpart of [`put_inode_head`].
    fn inode_head(&mut self, ino: MuxIno) -> VfsResult<InodeRec> {
        let mut attr = FileAttr::new(ino, FileType::Regular, 0o644, 0);
        attr.size = self.u64()?;
        attr.blocks_bytes = self.u64()?;
        attr.atime_ns = self.u64()?;
        attr.mtime_ns = self.u64()?;
        attr.ctime_ns = self.u64()?;
        attr.mode = self.u32()?;
        attr.uid = self.u32()?;
        attr.gid = self.u32()?;
        let owners = [self.u32()?, self.u32()?, self.u32()?, self.u32()?];
        let n_native = self.u32()? as usize;
        if n_native > self.remaining() / 12 {
            return Err(corrupt("native count exceeds metafile size"));
        }
        let mut native = Vec::with_capacity(n_native);
        for _ in 0..n_native {
            let t = self.u32()?;
            let nino = self.u64()?;
            native.push((t, nino));
        }
        Ok(InodeRec {
            ino,
            attr,
            owners,
            native,
            ranges: Vec::new(),
        })
    }

    /// Counterpart of [`put_range`].
    fn range(&mut self, first: u64, n: u64) -> VfsResult<RangeRec> {
        if first.checked_add(n).is_none() {
            return Err(corrupt("block range overflows"));
        }
        Ok(RangeRec {
            first,
            n,
            blt: self.bytemap(first, n)?,
            replicas: self.bytemap(first, n)?,
            checksums: self.crc_runs()?,
        })
    }
}

/// Decodes the frame at the head of `raw` into its generation, record and
/// length. `None` means the bytes are not a whole, intact frame of a known
/// kind — a short read, a torn append or garbage — and the journal's valid
/// prefix ends here.
fn decode_frame(raw: &[u8]) -> Option<(u64, Record, usize)> {
    let len = u32::from_le_bytes(raw.get(..4)?.try_into().ok()?) as usize;
    let total = len.checked_add(FRAME_OVERHEAD)?;
    let frame = raw.get(..total)?;
    let (body, crc) = frame.split_at(total - 4);
    if u32::from_le_bytes(crc.try_into().ok()?) != crc32c(body) {
        return None;
    }
    let kind = body[4];
    let generation = u64::from_le_bytes(body[5..FRAME_HEAD].try_into().ok()?);
    let mut c = Cur::new(&body[FRAME_HEAD..]);
    let record = decode_payload(kind, &mut c).ok()?;
    (c.remaining() == 0).then_some((generation, record, total))
}

fn decode_payload(kind: u8, c: &mut Cur<'_>) -> VfsResult<Record> {
    if let Some(kind) = IntentKind::from_byte(kind) {
        return Ok(Record::Intent(Intent {
            kind,
            ino: c.u64()?,
            block: c.u64()?,
            n: c.u64()?,
            to: c.u32()?,
        }));
    }
    let ino = c.u64()?;
    Ok(match kind {
        KIND_LINK => Record::Ns(NsRecord::Link {
            ino,
            parent: c.u64()?,
            name: c.name()?,
        }),
        KIND_MKDIR => Record::Ns(NsRecord::Mkdir {
            ino,
            parent: c.u64()?,
            name: c.name()?,
            mode: c.u32()?,
        }),
        KIND_UNLINK => Record::Ns(NsRecord::Unlink { ino }),
        KIND_RMDIR => Record::Ns(NsRecord::Rmdir { ino }),
        KIND_INODE => {
            let mut rec = c.inode_head(ino)?;
            let n_ranges = c.u32()? as usize;
            if n_ranges > c.remaining() / (8 + 8 + 4 + 4 + 4) {
                return Err(corrupt("range count exceeds record size"));
            }
            for _ in 0..n_ranges {
                let (first, n) = (c.u64()?, c.u64()?);
                rec.ranges.push(c.range(first, n)?);
            }
            Record::Inode(rec)
        }
        _ => return Err(corrupt("unknown record kind")),
    })
}

/// Fully decoded, validated checkpoint — built before any Mux state is
/// touched, so a corrupt checkpoint never leaves a half-loaded namespace.
#[derive(Debug)]
struct SnapshotImage {
    generation: u64,
    next_ino: u64,
    dirs: Vec<SnapDir>,
    files: Vec<SnapFile>,
}

#[derive(Debug)]
struct SnapDir {
    ino: MuxIno,
    parent: MuxIno,
    name: String,
    mode: u32,
}

#[derive(Debug)]
struct SnapFile {
    parent: MuxIno,
    name: String,
    inode: InodeRec,
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
    let generation = c.u64()?;
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
        let mut inode = c.inode_head(ino)?;
        inode.ranges.push(c.range(0, u64::MAX)?);
        files.push(SnapFile {
            parent,
            name,
            inode,
        });
    }
    Ok(SnapshotImage {
        generation,
        next_ino,
        dirs,
        files,
    })
}

/// Loads a decoded record into a file's state: the scalars are replaced,
/// and so is everything the block-keyed maps held inside each range.
fn load_inode(st: &mut FileState, rec: InodeRec) {
    let a = &mut st.meta.attr;
    a.size = rec.attr.size;
    a.blocks_bytes = rec.attr.blocks_bytes;
    a.atime_ns = rec.attr.atime_ns;
    a.mtime_ns = rec.attr.mtime_ns;
    a.ctime_ns = rec.attr.ctime_ns;
    a.mode = rec.attr.mode;
    a.uid = rec.attr.uid;
    a.gid = rec.attr.gid;
    st.meta.set_owners(rec.owners);
    st.native = rec.native.into_iter().collect();
    for r in rec.ranges {
        st.blt.clear(r.first, r.n);
        st.replicas.remove(r.first, r.n);
        st.checksums.clear_range(r.first, r.n);
        for (s, l, t) in r.blt {
            st.blt.assign(s, l, t);
        }
        for (s, l, t) in r.replicas {
            st.replicas.insert(s, l, t);
        }
        st.checksums.load_untrusted(r.checksums);
    }
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

/// What [`Mux::load_metafile`] found beyond the state it applied.
struct Loaded {
    /// Generation of the checkpoint (0 without one).
    generation: u64,
    /// The journal's intents in order, each with whether a later upsert of
    /// its inode already carries what it did to the maps.
    intents: Vec<(Intent, bool)>,
    /// The journal's inode and the bytes after its valid prefix, if any
    /// are debris to trim.
    torn_tail: Option<(InodeNo, u64)>,
}

impl Mux {
    /// Enables the durable metafile on `tier` (conventionally the fastest,
    /// so the per-migration intent writes are cheap).
    pub fn enable_metafile(&self, tier: TierId) -> VfsResult<()> {
        self.attach_metafile(tier, None)
    }

    /// [`Mux::enable_metafile`] for a caller that may already know the
    /// checkpoint's generation (recovery has just decoded it).
    fn attach_metafile(&self, tier: TierId, generation: Option<u64>) -> VfsResult<()> {
        let fs = self.tier(tier)?.fs.clone();
        let snapshot = fs.getattr(find_or_create(fs.as_ref(), SNAPSHOT_NAME)?)?;
        let intents_ino = find_or_create(fs.as_ref(), INTENTS_NAME)?;
        let intents_off = fs.getattr(intents_ino)?.size;
        let generation = match generation {
            Some(g) => g,
            None if snapshot.size >= 16 => {
                let mut head = [0u8; 16];
                fs.read(snapshot.ino, 0, &mut head)?;
                u64::from_le_bytes(head[8..].try_into().expect("eight bytes"))
            }
            None => 0,
        };
        // Only an empty log over an empty Mux describes the live state.
        let fresh = snapshot.size == 0
            && intents_off == 0
            && self.next_ino.load(Ordering::Relaxed) == ROOT_INO + 1;
        *self.metafile.lock() = Some(MetafileHandle {
            tier,
            fs,
            intents_ino,
            intents_off,
            generation,
            checkpoint_len: snapshot.size,
            rebase: !fresh,
        });
        // Release: a mutator that sees the flag also sees the handle.
        self.metalog_on.store(true, Ordering::Release);
        Ok(())
    }

    /// Notes that a file's persisted state changed under the caller's
    /// state write lock — with `range`, its block-keyed maps over those
    /// blocks; without, only its attributes, owners or native handles — so
    /// that the next flush writes an upsert for it. One untaken branch
    /// without a metafile. Reads mark nothing: an access time reaches the
    /// log with the inode's next upsert, or the next checkpoint.
    pub(crate) fn mark_dirty(&self, ino: MuxIno, st: &mut FileState, range: Option<(u64, u64)>) {
        if !self.metalog_on.load(Ordering::Acquire) {
            return;
        }
        if let Some((first, n)) = range {
            st.dirty.ranges.insert(first, n, ());
        }
        if !std::mem::replace(&mut st.dirty.listed, true) {
            self.pending.lock().inodes.push(ino);
        }
    }

    /// Queues a namespace record for the next flush. Call once the
    /// operation's last effect is visible: a checkpoint that starts after
    /// this call then contains the operation, and one that raced it only
    /// sees the record replayed over a state that may already hold it.
    pub(crate) fn log_ns(&self, record: impl FnOnce() -> NsRecord) {
        if self.metalog_on.load(Ordering::Acquire) {
            self.pending.lock().records.push(record());
        }
    }

    /// Writes `frames` at the journal's tail and makes them durable on
    /// `barrier`.
    fn append(&self, h: &mut MetafileHandle, frames: &[u8], barrier: Barrier) -> VfsResult<()> {
        let done =
            h.fs.write(h.intents_ino, h.intents_off, frames)
                .and_then(|_| barrier.with_journal(h.fs.as_ref(), h.intents_ino));
        match done {
            Ok(()) => {
                h.intents_off += frames.len() as u64;
                MuxStats::add(&self.stats.metalog_bytes, frames.len() as u64);
            }
            // The records taken for these frames are gone from memory.
            Err(_) => h.rebase = true,
        }
        done
    }

    /// Appends one record to the intent journal and fsyncs it. Begin
    /// records go in before any copy lands on `to`, commit records after
    /// the flip, unmirror records before the replica entries are dropped —
    /// [`Mux::migrate_range`], [`Mux::mirror_range`] and
    /// [`Mux::unmirror_range`] journal automatically. Whatever is queued
    /// goes out ahead of the intent, so a replay knows the inode it names.
    /// A no-op without a metafile.
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
        let intent = Intent {
            kind,
            ino,
            block,
            n,
            to,
        };
        self.write_log(Some(intent), Barrier::Fsync(None))
    }

    /// The metafile half of `fsync` and `sync`, after the native barriers
    /// of every other tier: appends every queued namespace record and one
    /// upsert per dirty inode, then runs the metafile tier's `barrier` with
    /// the journal on it. With nothing queued it runs the barrier alone;
    /// when the journal would outgrow its budget it runs the barrier, then
    /// checkpoints instead. Without a metafile it does nothing: a caller
    /// only passes a barrier for the metafile's tier.
    pub(crate) fn flush_metalog(&self, barrier: Barrier) -> VfsResult<()> {
        self.write_log(None, barrier)
    }

    /// One append and one barrier for everything queued, `intent` last.
    /// Namespace records and upserts always travel together: a link
    /// record alone would recover as an empty file beside whatever
    /// reconciliation adopts under the name the tiers know.
    fn write_log(&self, intent: Option<Intent>, mut barrier: Barrier) -> VfsResult<()> {
        let mut guard = self.metafile.lock();
        let Some(h) = guard.as_mut() else {
            return Ok(());
        };
        // A checkpoint encodes the live state, so the barrier's data must
        // be durable before one starts.
        if h.rebase {
            barrier.take().alone(h.fs.as_ref())?;
            self.checkpoint(h)?;
        }
        let Pending { records, inodes } = std::mem::take(&mut *self.pending.lock());
        let mut frames = Vec::new();
        for r in &records {
            r.put(&mut frames, h.generation);
        }
        for ino in inodes {
            // Gone: its unlink record is among the ones above.
            let Some(file) = self.files.get(&ino) else {
                continue;
            };
            // Taking the set and reading the state it describes under one
            // lock: a racing mutation is either in this upsert or marks
            // the file again.
            let mut st = file.state.write();
            let dirty = std::mem::take(&mut st.dirty);
            if !dirty.listed {
                continue; // a checkpoint got there first
            }
            put_frame(&mut frames, h.generation, KIND_INODE, |b| {
                b.put_u64_le(ino);
                put_inode_head(b, &st);
                b.put_u32_le(dirty.ranges.segment_count() as u32);
                for r in dirty.ranges.iter() {
                    b.put_u64_le(r.start);
                    b.put_u64_le(r.len);
                    put_range(b, &st, r.start, r.len);
                }
            });
        }
        if h.intents_off + frames.len() as u64 > h.budget() {
            // What was taken above is live state: the checkpoint holds it.
            // Until one lands, a failed barrier must not lose it.
            h.rebase = true;
            barrier.take().alone(h.fs.as_ref())?;
            self.checkpoint(h)?;
            frames.clear();
        }
        if let Some(intent) = intent {
            intent.put(&mut frames, h.generation);
        }
        if frames.is_empty() {
            return barrier.alone(h.fs.as_ref());
        }
        self.append(h, &frames, barrier)
    }

    /// Checkpoints the metafile: serializes the full Mux state into the
    /// snapshot file and truncates the journal (everything journaled is
    /// now in the checkpoint). `fsync` and `sync` do this on their own when
    /// the journal outgrows its budget.
    ///
    /// The rewrite is atomic: the new checkpoint is staged in a sibling
    /// file, fsync'd, and renamed over the old one, so a crash at any
    /// point leaves a complete checkpoint (old or new) on the device. The
    /// journal is truncated only after the rename is durable; if the
    /// crash comes first, its frames carry the old generation and replay
    /// skips them.
    pub fn snapshot_metafile(&self) -> VfsResult<()> {
        let mut guard = self.metafile.lock();
        match guard.as_mut() {
            Some(h) => self.checkpoint(h),
            None => Ok(()),
        }
    }

    fn checkpoint(&self, h: &mut MetafileHandle) -> VfsResult<()> {
        // Until the last step succeeds the log is not to be appended to.
        h.rebase = true;
        // Forget what is queued *before* encoding: every queued operation
        // is complete, so the image holds it; one that queues from here on
        // is replayed over the image, which absolute records allow.
        *self.pending.lock() = Pending::default();
        let generation = h.generation.wrapping_add(1);
        let b = self.encode_image(generation, true);
        // Stage, persist, then atomically swing the name.
        let tmp_ino = find_or_create(h.fs.as_ref(), SNAPSHOT_TMP_NAME)?;
        h.fs.setattr(tmp_ino, &SetAttr::truncate(0))?;
        h.fs.write(tmp_ino, 0, &b)?;
        h.fs.fsync(tmp_ino)?;
        h.fs.rename(ROOT_INO, SNAPSHOT_TMP_NAME, ROOT_INO, SNAPSHOT_NAME)?;
        // Make the rename itself durable before dropping the journal.
        h.fs.fsync(tmp_ino)?;
        h.generation = generation;
        h.checkpoint_len = b.len() as u64;
        h.fs.setattr(h.intents_ino, &SetAttr::truncate(0))?;
        h.fs.fsync(h.intents_ino)?;
        h.intents_off = 0;
        h.rebase = false;
        MuxStats::add(&self.stats.checkpoints, 1);
        Ok(())
    }

    /// The full encoding of the live state — the checkpoint's bytes. With
    /// `settle`, each file's durable-dirty set is cleared under the same
    /// lock its state is read under: the image is what the log knows now.
    fn encode_image(&self, generation: u64, settle: bool) -> Vec<u8> {
        let mut b: Vec<u8> = Vec::with_capacity(4096);
        b.put_u64_le(SNAP_MAGIC);
        b.put_u64_le(generation);
        b.put_u64_le(self.next_ino.load(Ordering::Relaxed));
        {
            // Collect then sort: shard iteration order is hash-dependent,
            // and the encoding should be byte-stable.
            let mut dirs: Vec<(MuxIno, MuxIno, String, u32)> = Vec::new();
            self.ns
                .dirs
                .for_each(|&ino, d| dirs.push((ino, d.parent, d.name.clone(), d.attr.mode)));
            dirs.sort_unstable_by_key(|e| e.0);
            b.put_u32_le(dirs.len() as u32);
            for (ino, parent, name, mode) in dirs {
                b.put_u64_le(ino);
                b.put_u64_le(parent);
                put_name(&mut b, &name);
                b.put_u32_le(mode);
            }
        }
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
            put_name(&mut b, &name);
            let mut st = f.state.write();
            put_inode_head(&mut b, &st);
            put_range(&mut b, &st, 0, u64::MAX);
            if settle {
                st.dirty = Default::default();
            }
        }
        b
    }

    /// How much the delta log holds right now: what is queued for the next
    /// flush, how many dirty ranges all files carry, and the journal's
    /// size against its budget. Walks every file: for tests.
    pub fn metalog_status(&self) -> MetalogStatus {
        let guard = self.metafile.lock();
        let pending = self.pending.lock();
        let mut status = MetalogStatus {
            pending_records: pending.records.len(),
            pending_inodes: pending.inodes.len(),
            journal_bytes: guard.as_ref().map_or(0, |h| h.intents_off),
            journal_budget: guard.as_ref().map_or(0, MetafileHandle::budget),
            ..Default::default()
        };
        drop(pending);
        self.files
            .for_each(|_, f| status.dirty_ranges += f.state.read().dirty.ranges.segment_count());
        status
    }

    /// Checks that the metafile describes the live state: loads the
    /// checkpoint and replays the journal the way recovery would — into a
    /// scratch Mux, without touching the tiers — and compares its full
    /// encoding with a fresh full encoding of this Mux, byte for byte. The
    /// old snapshot-per-fsync is the oracle the delta log is held to.
    ///
    /// Meaningful right after a flush: whatever is still queued is, by
    /// design, not in the log yet. [`VfsError::Corrupt`] shows the first
    /// entry that differs.
    pub fn check_metafile(&self) -> VfsResult<()> {
        let fs = {
            let guard = self.metafile.lock();
            let Some(h) = guard.as_ref() else {
                return Ok(());
            };
            h.fs.clone()
        };
        let opts = MuxOptions {
            fastpath: FastPathConfig {
                slots: 4,
                ..self.opts.fastpath.clone()
            },
            trace_capacity: 0,
            ..self.opts.clone()
        };
        let replayed = Mux::new(self.clock.clone(), self.policy.read().clone(), opts);
        replayed.load_metafile(fs.as_ref())?;
        let (want, got) = (self.encode_image(0, false), replayed.encode_image(0, false));
        // Past magic, generation and `next_ino` (a failed create burns an
        // inode number without a record).
        if want[24..] == got[24..] {
            return Ok(());
        }
        // The first directory or file entry the two do not share.
        let entries = |raw: &[u8]| -> VfsResult<Vec<String>> {
            let img = decode_snapshot(raw)?;
            let dirs = img.dirs.iter().map(|d| format!("{d:?}"));
            Ok(dirs
                .chain(img.files.iter().map(|f| format!("{f:?}")))
                .collect())
        };
        let (want, got) = (entries(&want)?, entries(&got)?);
        let shared = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
        Err(corrupt(&format!(
            "live {:?}, metafile {:?}",
            want.get(shared),
            got.get(shared)
        )))
    }

    /// Applies a decoded checkpoint to this (empty) Mux. Structural repairs
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
                self.ns
                    .dirs
                    .update(&ROOT_INO, |root| root.attr.mode = d.mode);
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
            let ino = f.inode.ino;
            max_ino = max_ino.max(ino);
            let file = MuxFile::new(ino, CollectiveInode::new(f.inode.attr, f.inode.owners[0]));
            load_inode(&mut file.state.write(), f.inode);
            let parent = if known_dirs.contains(&f.parent) {
                f.parent
            } else {
                ROOT_INO
            };
            let name = self.free_name(parent, &f.name);
            self.ns.dirs.update(&parent, |p| {
                p.entries.insert(name.clone(), NsEntry::File(ino));
            });
            self.ns.file_loc.insert(ino, (parent, name));
            self.files.insert(ino, Arc::new(file));
        }
        // Never hand out inode numbers the checkpoint already uses, even if
        // its recorded next_ino is stale or corrupt.
        self.next_ino
            .store(img.next_ino.max(max_ino + 1), Ordering::Relaxed);
    }

    /// Replays one namespace record. Records are keyed by inode, not by
    /// what a name pointed at when they were written: an inode is moved
    /// from wherever it is linked now, a name that something else holds
    /// goes to the record's inode (the loser stays in the tables as an
    /// orphan, no state is dropped), and a record about an inode that is
    /// already as it says changes nothing.
    fn replay_ns(&self, record: NsRecord) {
        let (NsRecord::Link { ino, .. }
        | NsRecord::Mkdir { ino, .. }
        | NsRecord::Unlink { ino }
        | NsRecord::Rmdir { ino }) = record;
        let Some(after) = ino.checked_add(1) else {
            return; // no inode has this number: garbage
        };
        self.next_ino.fetch_max(after, Ordering::Relaxed);
        match record {
            NsRecord::Link { parent, name, ino } => {
                if ino == ROOT_INO || self.ns.dirs.contains(&ino) {
                    return; // not a file: garbage
                }
                if !self.files.contains(&ino) {
                    // Placeholder attributes: the file's upsert follows,
                    // or reconciliation fills in what the tiers know.
                    let attr = FileAttr::new(ino, FileType::Regular, 0o644, 0);
                    let file = MuxFile::new(ino, CollectiveInode::new(attr, 0));
                    self.files.insert(ino, Arc::new(file));
                }
                self.place(NsEntry::File(ino), parent, &name);
            }
            NsRecord::Mkdir {
                parent,
                name,
                ino,
                mode,
            } => {
                if self.files.contains(&ino) {
                    return; // not a directory: garbage
                }
                if !self.ns.dirs.contains(&ino) {
                    let mut attr = FileAttr::new(ino, FileType::Directory, mode, 0);
                    attr.nlink = 2;
                    // Linked nowhere yet: `place` sets parent and name.
                    self.ns.dirs.insert(
                        ino,
                        MuxDir {
                            parent: ino,
                            name: String::new(),
                            entries: BTreeMap::new(),
                            attr,
                        },
                    );
                }
                self.ns.dirs.update(&ino, |d| d.attr.mode = mode);
                if ino != ROOT_INO {
                    self.place(NsEntry::Dir(ino), parent, &name);
                }
            }
            NsRecord::Unlink { ino } => {
                if let Some((parent, name)) = self.ns.file_loc.remove(&ino) {
                    self.unplace(NsEntry::File(ino), parent, &name);
                }
                self.files.remove(&ino);
            }
            NsRecord::Rmdir { ino } => {
                if ino == ROOT_INO {
                    return;
                }
                if let Some(d) = self.ns.dirs.remove(&ino) {
                    self.unplace(NsEntry::Dir(ino), d.parent, &d.name);
                }
            }
        }
    }

    /// Drops the entry `name` of `parent` if it still names `entry`.
    fn unplace(&self, entry: NsEntry, parent: MuxIno, name: &str) {
        self.ns.dirs.update(&parent, |d| {
            if d.entries.get(name) == Some(&entry) {
                d.entries.remove(name);
            }
        });
    }

    /// Links `entry` as `name` in `parent` (the root, if there is no such
    /// directory), unlinking it from wherever it is now.
    fn place(&self, entry: NsEntry, parent: MuxIno, name: &str) {
        let ino = entry.ino();
        let parent = if self.ns.dirs.contains(&parent) && parent != ino {
            parent
        } else {
            ROOT_INO
        };
        let linked = match entry {
            NsEntry::File(_) => self.ns.file_loc.get(&ino),
            NsEntry::Dir(_) => self.ns.dirs.view(&ino, |d| (d.parent, d.name.clone())),
        };
        if let Some((old_parent, old_name)) = linked {
            self.unplace(entry, old_parent, &old_name);
        }
        self.ns.dirs.update(&parent, |d| {
            d.entries.insert(name.to_string(), entry);
        });
        match entry {
            NsEntry::File(_) => {
                self.ns.file_loc.insert(ino, (parent, name.to_string()));
            }
            NsEntry::Dir(_) => {
                self.ns.dirs.update(&ino, |d| {
                    d.parent = parent;
                    d.name = name.to_string();
                });
            }
        }
    }

    /// Steps 1 and 2 of recovery, reading only: applies the checkpoint,
    /// then the journal's namespace records and upserts in order, and
    /// collects its intents for [`Mux::replay_intents`].
    fn load_metafile(&self, fs: &dyn FileSystem) -> VfsResult<Loaded> {
        // 1. Checkpoint. The primary is authoritative; if it is corrupt (or
        // absent) a complete staged sibling — a crash in the middle of the
        // atomic rewrite — is used instead.
        let staged = || {
            read_meta_file(fs, SNAPSHOT_TMP_NAME).and_then(|(_, raw)| decode_snapshot(&raw).ok())
        };
        let image = match read_meta_file(fs, SNAPSHOT_NAME) {
            Some((_, raw)) => match decode_snapshot(&raw) {
                Ok(img) => Some(img),
                Err(e) => Some(staged().ok_or(e)?),
            },
            None => staged(),
        };
        let generation = image.as_ref().map_or(0, |img| img.generation);
        if let Some(img) = image {
            self.apply_snapshot(img);
        }
        // 2. Journal: replay the valid prefix. A frame that fails its CRC
        // (torn append) or parses as garbage ends the journal; a frame of
        // another generation is what a crash between a checkpoint's rename
        // and its journal truncation leaves behind, and is skipped.
        let mut intents: Vec<(usize, Intent)> = Vec::new();
        let mut last_upsert: HashMap<MuxIno, usize> = HashMap::new();
        let mut torn_tail = None;
        if let Some((ino, raw)) = read_meta_file(fs, INTENTS_NAME) {
            let mut off = 0usize;
            let mut seq = 0usize;
            while let Some((gen, record, len)) = decode_frame(&raw[off..]) {
                off += len;
                seq += 1;
                if gen != generation {
                    continue;
                }
                match record {
                    Record::Intent(i) => intents.push((seq, i)),
                    Record::Ns(r) => self.replay_ns(r),
                    Record::Inode(rec) => {
                        // An upsert of an inode the log never linked (or
                        // has unlinked since) describes nothing.
                        if let Some(file) = self.files.get(&rec.ino) {
                            last_upsert.insert(rec.ino, seq);
                            load_inode(&mut file.state.write(), rec);
                        }
                    }
                }
            }
            if off < raw.len() {
                torn_tail = Some((ino, off as u64));
            }
        }
        let settled = |seq: usize, i: &Intent| last_upsert.get(&i.ino).is_some_and(|&u| u > seq);
        Ok(Loaded {
            generation,
            intents: intents
                .into_iter()
                .map(|(seq, i)| (i, settled(seq, &i)))
                .collect(),
            torn_tail,
        })
    }

    /// Recovers a Mux over existing tiers: loads the checkpoint + journal
    /// from `metafile_tier` (if present) and reconciles with every native
    /// file system.
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
        let loaded = mux.load_metafile(handle.fs.as_ref())?;
        // A leftover staged checkpoint is now either adopted or stale.
        let _ = handle.fs.unlink(ROOT_INO, SNAPSHOT_TMP_NAME);
        // Truncate the journal back to its valid prefix, so future appends
        // never interleave with debris.
        if let Some((ino, valid)) = loaded.torn_tail {
            handle.fs.setattr(ino, &SetAttr::truncate(valid))?;
            handle.fs.fsync(ino)?;
        }
        // Metafile-recorded native handles may predate natively-durable
        // unlinks; drop the dead ones before walking the tiers.
        mux.validate_native_handles();
        // Register native handles and merge namespaces first, so intent
        // processing can reach destination files the metafile predates.
        mux.reconcile_namespaces()?;
        mux.replay_intents(&loaded.intents);
        // 3. Adopt blocks the BLTs do not cover (unflushed writes).
        mux.adopt_all_blocks()?;
        // Reconciliation changed state the log knows nothing of: the
        // handle comes up wanting a checkpoint before the next append.
        mux.attach_metafile(metafile_tier, Some(loaded.generation))?;
        // The fast-path cache of this fresh Mux is empty, but recovery is
        // an invalidation *source* in the epoch scheme: bump so any
        // mapping published while replay was still mutating state (e.g. a
        // read issued mid-recovery by an embedding test) is retired.
        mux.fastpath_epoch_bump();
        Ok(mux)
    }

    /// Replays the journal's intents. First the map edits, in journal
    /// order, of every record no later upsert of its inode settled (an
    /// upsert carries the maps as they stood after the flip): a committed
    /// move re-applies its swing — absorbing replica entries the
    /// destination held, exactly as the live commit does, the new primary
    /// must not be shadowed by itself —, a committed mirror re-inserts its
    /// replica entries (the commit record promises the copy was fsync'd
    /// first), an unmirror drops them. Then, against the maps as they
    /// finally stand, the debris: what a begin record's destination holds
    /// of its range outside the committed sub-ranges (an aborted run
    /// commits what it already swung, so an exact match against the begin
    /// record would punch real data), and the bytes of retired replicas,
    /// sparing ranges a *later* mirror commit re-established (lazy resync).
    fn replay_intents(&self, intents: &[(Intent, bool)]) {
        let all: Vec<Intent> = intents.iter().map(|e| e.0).collect();
        for i in intents.iter().filter(|e| !e.1).map(|e| e.0) {
            let Ok(file) = self.get_file(i.ino) else {
                continue;
            };
            let mut st = file.state.write();
            let backed = st.native.contains_key(&i.to);
            match i.kind {
                IntentKind::MoveCommit if backed => {
                    for seg in st.blt.plan(i.block, i.n) {
                        st.blt.assign(seg.start, seg.len, i.to);
                    }
                    crate::occ::absorb_shadowed_replicas(&mut st, i.block, i.n, i.to);
                }
                // As the live flip: a block `to` owns itself gains no entry
                // (a mirror of a range `to` partly owns copies the rest).
                IntentKind::MirrorCommit if backed => {
                    for seg in st.blt.plan(i.block, i.n) {
                        if seg.value != i.to {
                            st.replicas.insert(seg.start, seg.len, i.to);
                        }
                    }
                }
                IntentKind::Unmirror => {
                    for (s, l) in st.replicas_on(i.block, i.n, i.to) {
                        st.replicas.remove(s, l);
                    }
                }
                _ => {}
            }
        }
        for (idx, i) in all.iter().enumerate() {
            let spare = match i.kind {
                IntentKind::MoveBegin => committed_ranges(&all, IntentKind::MoveCommit, i),
                IntentKind::MirrorBegin => committed_ranges(&all, IntentKind::MirrorCommit, i),
                IntentKind::Unmirror => {
                    committed_ranges(&all[idx + 1..], IntentKind::MirrorCommit, i)
                }
                _ => continue,
            };
            let Ok(file) = self.get_file(i.ino) else {
                continue;
            };
            // `punch_unowned` spares whatever the Block Lookup Table or
            // the replica map names on the tier. Best effort — a missing
            // destination file means there is no debris to resurrect.
            for (b, l) in crate::file::subtract_ranges(i.block, i.n, &spare) {
                self.punch_unowned(&file, b, l, i.to);
            }
        }
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
    /// unlink the metafile predates, or a tier id the metafile invented)
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
    /// flush).
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
                    // than the logical file) — except that a mover copies
                    // whole blocks, so a participant may run to the block
                    // boundary past a recorded unaligned EOF: that is
                    // padding, not an unflushed append.
                    if nattr.size > st.meta.attr.size.next_multiple_of(BLOCK) {
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
                // blocks are authoritative (checkpoint/journal).
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

    fn intent_frame(i: &Intent, generation: u64) -> Vec<u8> {
        let mut raw = Vec::new();
        i.put(&mut raw, generation);
        raw
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
        let raw = intent_frame(&i, 9);
        assert_eq!(raw.len(), FRAME_OVERHEAD + 28);
        let (generation, back, len) = decode_frame(&raw).expect("valid record");
        assert_eq!((generation, len), (9, raw.len()));
        assert!(matches!(back, Record::Intent(b) if b == i));
        // A torn suffix or a flipped byte must both fail the CRC.
        assert!(decode_frame(&raw[..raw.len() - 1]).is_none());
        let mut bad = raw.clone();
        bad[FRAME_HEAD + 2] ^= 0x40;
        assert!(decode_frame(&bad).is_none());
        // Every mirror record kind round-trips; an unknown kind is rejected
        // even with a valid CRC (it ends the journal's valid prefix), and
        // so is a known kind whose payload is not the size it should be.
        for kind in [
            IntentKind::MirrorBegin,
            IntentKind::MirrorCommit,
            IntentKind::Unmirror,
        ] {
            let m = Intent { kind, ..i };
            let (_, back, _) = decode_frame(&intent_frame(&m, 0)).expect("mirror record decodes");
            assert!(matches!(back, Record::Intent(b) if b == m));
        }
        for (kind, payload) in [(77u8, 28usize), (IntentKind::MoveBegin as u8, 29)] {
            let mut raw = Vec::new();
            put_frame(&mut raw, 0, kind, |b| b.put_bytes(0, payload));
            assert!(decode_frame(&raw).is_none(), "kind {kind} with {payload} B");
        }
    }

    #[test]
    fn namespace_records_round_trip() {
        let records = [
            NsRecord::Link {
                parent: 3,
                name: "mail".into(),
                ino: 12,
            },
            NsRecord::Mkdir {
                parent: ROOT_INO,
                name: "d".into(),
                ino: 3,
                mode: 0o700,
            },
            NsRecord::Unlink { ino: 12 },
            NsRecord::Rmdir { ino: 3 },
        ];
        let mut raw = Vec::new();
        for r in &records {
            r.put(&mut raw, 4);
        }
        let mut off = 0;
        for want in &records {
            let (generation, got, len) = decode_frame(&raw[off..]).expect("decodes");
            assert_eq!(generation, 4);
            assert!(matches!(got, Record::Ns(ref r) if r == want), "{got:?}");
            off += len;
        }
        assert_eq!(off, raw.len());
    }

    #[test]
    fn checksum_runs_round_trip_and_cost_four_bytes_a_block() {
        // Two runs and a straggler.
        let entries: Vec<(u64, u32)> = (10..20)
            .chain(40..43)
            .chain([99])
            .map(|b| (b, b as u32 * 7))
            .collect();
        let mut raw = Vec::new();
        put_crc_runs(&mut raw, entries.iter().copied());
        assert_eq!(raw.len(), 4 + 3 * 12 + entries.len() * 4);
        let mut c = Cur::new(&raw);
        assert_eq!(c.crc_runs().unwrap(), entries);
        assert_eq!(c.remaining(), 0);
        // No entries: a count of zero.
        let mut none = Vec::new();
        put_crc_runs(&mut none, std::iter::empty());
        assert_eq!(none, 0u32.to_le_bytes());
        // A run that claims more blocks than there are bytes is refused
        // before anything is allocated for it.
        let mut lie = raw.clone();
        lie[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Cur::new(&lie).crc_runs().is_err());
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
        // primary decodes, one generation on.
        assert!(handle.fs.lookup(ROOT_INO, SNAPSHOT_TMP_NAME).is_err());
        let (_, raw) = read_meta_file(handle.fs.as_ref(), SNAPSHOT_NAME).expect("snapshot");
        assert_eq!(decode_snapshot(&raw).expect("valid snapshot").generation, 1);
    }
}
