//! The State Bookkeeper: per-file tiering state.
//!
//! One [`MuxFile`] exists per regular file. It owns the Block Lookup
//! Table, the collective inode, the per-tier native inode handles, and the
//! OCC state the paper's §2.4 synchronizer relies on:
//!
//! * `version` — bumped by every user write; migrations snapshot it before
//!   copying and revalidate after.
//! * `migrating` — the migration flag; while set, writers record the block
//!   ranges they touch in `dirty_during_migration` so a conflicting
//!   migration can retry exactly those blocks.
//! * `io_lock` — writers hold it shared for the duration of their native
//!   dispatch; the OCC commit (and the lock-based fallback) takes it
//!   exclusively, so a commit never interleaves with a half-finished
//!   write.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use tvfs::InodeNo;

use crate::blt::BlockLookupTable;
use crate::meta::CollectiveInode;
use crate::types::{TenantId, TierId};

/// Mux's own inode number type (independent of native inos).
pub type MuxIno = u64;

/// Per-file tiering state.
pub struct MuxFile {
    /// Mux inode number.
    pub ino: MuxIno,
    /// Block Lookup Table + collective inode, under one short lock.
    pub state: RwLock<FileState>,
    /// OCC version counter (user writes bump it).
    pub version: AtomicU64,
    /// Migration in progress.
    pub migrating: AtomicBool,
    /// Block ranges written while `migrating` was set.
    pub dirty_during_migration: Mutex<Vec<(u64, u64)>>,
    /// Writers shared / migration-commit exclusive.
    pub io_lock: RwLock<()>,
    /// Writes currently between their first native dispatch and their
    /// checksum bookkeeping. While non-zero, a CRC mismatch on this file
    /// is not evidence of rot — the reader may hold new bytes against the
    /// old checksum (or vice versa) — so the verify path serves the page
    /// instead of striking. See [`MuxFile::write_window`].
    pub writes_in_flight: AtomicU64,
    /// Tenant that created the file; background work (migrations,
    /// mirrors) on the file is charged to it. Runtime-only — not
    /// persisted in the metafile, so remounted files belong to tenant 0.
    tenant: AtomicU32,
}

/// RAII guard for [`MuxFile::writes_in_flight`]: decrements on drop, so
/// every error path out of the write closes the window (a leaked window
/// would silently disable corruption detection for the file forever).
pub struct WriteWindow<'a>(&'a MuxFile);

impl Drop for WriteWindow<'_> {
    fn drop(&mut self) {
        self.0.writes_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The lockable portion of a file's bookkeeping.
pub struct FileState {
    /// Block → tier map.
    pub blt: BlockLookupTable,
    /// Attribute cache + affinity.
    pub meta: CollectiveInode,
    /// Native inode on each tier that materializes this file.
    pub native: HashMap<TierId, InodeNo>,
    /// Block → replica tier (paper §4: "a much stronger crash consistency
    /// guarantee can be designed … by the opportunity for data replication
    /// across devices"). A replica is a full checksummed second copy; the
    /// read path serves whichever copy is fastest and healthy.
    pub replicas: tvfs::RangeMap<TierId>,
    /// Block → tier owed a replica copy: ranges whose mirror was dropped by
    /// a write (the write was absorbed on the fast copy) and will be
    /// re-established lazily by `maintenance_tick`. Transient — not
    /// persisted; a crash simply forgets the debt and the planner re-plans
    /// the mirror next epoch.
    pub resync_pending: tvfs::RangeMap<TierId>,
    /// Per-block CRC-32C checksums + quarantine (see [`crate::integrity`]).
    /// Keyed by file block, not tier, so migration carries them for free.
    pub checksums: crate::integrity::ChecksumTable,
    /// What the metafile's delta log does not know yet (see
    /// [`crate::persist`]); always clean without a metafile.
    pub(crate) dirty: DurableDirty,
}

/// A file's durable-dirty set: what changed since its last upsert record
/// or checkpoint. Lives under the state lock, so a mutator marks in the
/// same critical section that changes the state and a flush takes the set
/// in the same one that reads it — no mark can slip behind the flush that
/// should have carried it.
#[derive(Debug, Default)]
pub(crate) struct DurableDirty {
    /// Blocks whose Block Lookup Table, replica or checksum entries
    /// changed; coalesced, so bounded by the file's extent count.
    pub ranges: tvfs::RangeMap<()>,
    /// The inode is on the Mux-wide pending list: the next flush visits
    /// it (attributes and native handles travel with every upsert).
    pub listed: bool,
    /// The file's record in the last checkpoint image may be out of date
    /// (its inode is on the re-encode list): the next checkpoint encodes
    /// it afresh instead of copying it. Flushes leave it alone; only a
    /// checkpoint clears it.
    pub reencode: bool,
}

impl FileState {
    /// The parts of `[block, block+n)` with a replica recorded on `tier`,
    /// as `(start, len)` clipped to the window.
    pub fn replicas_on(&self, block: u64, n: u64, tier: TierId) -> Vec<(u64, u64)> {
        let reps = self.replicas.overlapping(block, n);
        let on_tier = reps.iter().filter(|e| e.value == tier);
        on_tier.map(|e| (e.start, e.len)).collect()
    }
}

impl MuxFile {
    /// Creates bookkeeping for a new file hosted on `host`.
    pub fn new(ino: MuxIno, meta: CollectiveInode) -> Self {
        MuxFile {
            ino,
            state: RwLock::new(FileState {
                blt: BlockLookupTable::new(),
                meta,
                native: HashMap::new(),
                replicas: tvfs::RangeMap::new(),
                resync_pending: tvfs::RangeMap::new(),
                checksums: crate::integrity::ChecksumTable::new(),
                dirty: DurableDirty::default(),
            }),
            version: AtomicU64::new(0),
            migrating: AtomicBool::new(false),
            dirty_during_migration: Mutex::new(Vec::new()),
            io_lock: RwLock::new(()),
            writes_in_flight: AtomicU64::new(0),
            tenant: AtomicU32::new(0),
        }
    }

    /// Tenant the file's background work is charged to.
    pub fn tenant(&self) -> TenantId {
        self.tenant.load(Ordering::Relaxed)
    }

    /// Stamps the owning tenant (called once at create with the creating
    /// thread's tag).
    pub fn set_tenant(&self, tenant: TenantId) {
        self.tenant.store(tenant, Ordering::Relaxed);
    }

    /// Opens a write window: the span from a mutation's first native
    /// dispatch to its checksum bookkeeping, during which the stored data
    /// and the stored checksum may legitimately disagree. The verify path
    /// treats a mismatch observed while any window is open as a racing
    /// write, not corruption (`SeqCst` on both sides so a verifier that
    /// reads zero is guaranteed to see the closed write's new checksum).
    pub fn write_window(&self) -> WriteWindow<'_> {
        self.writes_in_flight.fetch_add(1, Ordering::SeqCst);
        WriteWindow(self)
    }

    /// Called by `Mux::commit` after a mutation's native calls, while the
    /// mutator still holds `io_lock`: bump the version and, if a migration
    /// is in flight, record the touched range.
    pub fn note_write(&self, block: u64, n_blocks: u64) {
        self.version.fetch_add(1, Ordering::Release);
        if self.migrating.load(Ordering::Acquire) {
            self.dirty_during_migration.lock().push((block, n_blocks));
        }
    }

    /// Snapshot of the version counter.
    pub fn version_now(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Begins a migration window: sets the flag and clears the dirty list.
    /// Returns the version snapshot to validate against.
    pub fn begin_migration(&self) -> u64 {
        self.dirty_during_migration.lock().clear();
        self.migrating.store(true, Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
        self.version_now()
    }

    /// Ends the migration window, returning ranges dirtied during it.
    pub fn end_migration(&self) -> Vec<(u64, u64)> {
        self.migrating.store(false, Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
        self.take_dirty()
    }

    /// Takes the ranges dirtied so far, leaving the window open: writes
    /// from here on land in a fresh list (a conflicted migration round
    /// re-copies exactly what it took).
    pub fn take_dirty(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.dirty_during_migration.lock())
    }

    /// Ranges dirtied so far in the current migration window, without
    /// ending it.
    pub fn peek_dirty(&self) -> Vec<(u64, u64)> {
        self.dirty_during_migration.lock().clone()
    }
}

/// True if any dirty range intersects `[block, block+n)`.
pub fn ranges_intersect(dirty: &[(u64, u64)], block: u64, n: u64) -> bool {
    dirty.iter().any(|&(s, l)| s < block + n && block < s + l)
}

/// The clipped intersection of `dirty` with `[block, block+n)`, merged
/// and sorted — the blocks a conflicted migration round must re-copy
/// (§2.4: "Mux retries the migration of those blocks").
pub fn clip_ranges(dirty: &[(u64, u64)], block: u64, n: u64) -> Vec<(u64, u64)> {
    let end = block + n;
    let mut out: Vec<(u64, u64)> = dirty
        .iter()
        .filter_map(|&(s, l)| {
            let a = s.max(block);
            let b = (s + l).min(end);
            (a < b).then(|| (a, b - a))
        })
        .collect();
    out.sort_unstable();
    // Merge overlapping/adjacent.
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(out.len());
    for (s, l) in out {
        match merged.last_mut() {
            Some((ms, ml)) if *ms + *ml >= s => {
                let new_end = (s + l).max(*ms + *ml);
                *ml = new_end - *ms;
            }
            _ => merged.push((s, l)),
        }
    }
    merged
}

/// The complement of `excluded` within `[block, block+n)`: the sub-ranges
/// NOT covered by any excluded range. Used by the fault-abort path to
/// partially commit the blocks of a failed migration round that did copy
/// and validate (everything outside `remaining ∪ dirty`).
pub fn subtract_ranges(block: u64, n: u64, excluded: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let end = block + n;
    // Clip + merge the exclusions first so gaps between them are exact.
    let holes = clip_ranges(excluded, block, n);
    let mut out = Vec::new();
    let mut cur = block;
    for (s, l) in holes {
        if s > cur {
            out.push((cur, s - cur));
        }
        cur = s + l;
    }
    if cur < end {
        out.push((cur, end - cur));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvfs::{FileAttr, FileType};

    fn file() -> MuxFile {
        MuxFile::new(
            7,
            CollectiveInode::new(FileAttr::new(7, FileType::Regular, 0o644, 0), 0),
        )
    }

    #[test]
    fn writes_bump_version() {
        let f = file();
        let v0 = f.version_now();
        f.note_write(0, 1);
        f.note_write(5, 2);
        assert_eq!(f.version_now(), v0 + 2);
    }

    #[test]
    fn dirty_tracking_only_while_migrating() {
        let f = file();
        f.note_write(0, 1);
        assert!(f.peek_dirty().is_empty());
        f.begin_migration();
        f.note_write(3, 2);
        assert_eq!(f.peek_dirty(), vec![(3, 2)]);
        let dirty = f.end_migration();
        assert_eq!(dirty, vec![(3, 2)]);
        // After the window, writes are not recorded.
        f.note_write(9, 1);
        assert!(f.peek_dirty().is_empty());
    }

    #[test]
    fn migration_window_bumps_version_twice() {
        let f = file();
        let v0 = f.version_now();
        f.begin_migration();
        f.end_migration();
        assert_eq!(f.version_now(), v0 + 2);
    }

    #[test]
    fn clean_migration_window_detectable() {
        let f = file();
        let v = f.begin_migration();
        // No writes in between.
        assert_eq!(f.version_now(), v);
        assert!(f.end_migration().is_empty());
    }

    #[test]
    fn clip_ranges_merges_and_clips() {
        let dirty = vec![(10, 5), (12, 6), (30, 2), (0, 3)];
        // Window [11, 31): clips (10,5)→(11,4), merges with (12,6)→(11,7),
        // keeps (30,1), drops (0,3).
        assert_eq!(clip_ranges(&dirty, 11, 20), vec![(11, 7), (30, 1)]);
        assert!(clip_ranges(&dirty, 100, 5).is_empty());
        assert!(clip_ranges(&[], 0, 10).is_empty());
    }

    #[test]
    fn subtract_ranges_complements_within_window() {
        // Window [10, 20), holes (12,2) and (16,1) → keep (10,2),(14,2),(17,3).
        assert_eq!(
            subtract_ranges(10, 10, &[(12, 2), (16, 1)]),
            vec![(10, 2), (14, 2), (17, 3)]
        );
        // No holes → the whole window.
        assert_eq!(subtract_ranges(5, 3, &[]), vec![(5, 3)]);
        // Hole covers everything → nothing kept.
        assert!(subtract_ranges(5, 3, &[(0, 100)]).is_empty());
        // Holes outside the window are ignored.
        assert_eq!(subtract_ranges(5, 3, &[(100, 4)]), vec![(5, 3)]);
        // Overlapping holes merge before subtraction.
        assert_eq!(
            subtract_ranges(0, 10, &[(2, 3), (4, 2)]),
            vec![(0, 2), (6, 4)]
        );
    }

    #[test]
    fn intersect_logic() {
        let dirty = vec![(10, 5), (20, 1)];
        assert!(ranges_intersect(&dirty, 12, 2));
        assert!(ranges_intersect(&dirty, 14, 10));
        assert!(ranges_intersect(&dirty, 0, 11));
        assert!(!ranges_intersect(&dirty, 15, 5));
        assert!(!ranges_intersect(&dirty, 21, 100));
        assert!(!ranges_intersect(&[], 0, 100));
    }
}
