//! In-DRAM inode state — a cache of the on-device log.

use std::collections::BTreeMap;

use tvfs::{FileAttr, Linear, RangeMap};

use crate::layout::InodeSlot;

/// In-memory representation of one inode.
///
/// Everything here is reconstructible from the log; see
/// [`crate::NovaFs::mount`].
#[derive(Debug, Clone)]
pub struct Inode {
    /// Cached attributes (atime is maintained lazily, in DRAM only, as with
    /// `relatime`).
    pub attr: FileAttr,
    /// The persistent slot (log head/tail pointers).
    pub slot: InodeSlot,
    /// File page → device page map.
    pub extents: RangeMap<Linear>,
    /// Directory entries (`name → (ino, is_dir)`), directories only.
    pub dentries: BTreeMap<String, (u64, bool)>,
    /// Log entries committed since the log was last cleaned (the cleaning
    /// heuristic; see [`Inode::wants_cleaning`]).
    pub log_entries: u64,
    /// Log pages owned by this inode, for cleaning and deletion.
    pub log_pages: Vec<u64>,
    /// The bytes past `attr.size` in the file's last page may hold old
    /// data: a shrink zeroes them only after its commit, so a crash can
    /// leave them. An extension zeroes them first.
    pub stale_tail: bool,
}

impl Inode {
    /// Fresh in-memory inode from attributes and slot.
    pub fn new(attr: FileAttr, slot: InodeSlot) -> Self {
        Inode {
            attr,
            slot,
            extents: RangeMap::new(),
            dentries: BTreeMap::new(),
            log_entries: 0,
            log_pages: Vec::new(),
            stale_tail: false,
        }
    }

    /// Whether the log-cleaning threshold is met: more than 64 entries
    /// since the last clean, and more than twice the live state a clean
    /// writes (one `Attr`, one `Write` per extent, one `DentryAdd` per
    /// directory entry). An overwrite adds an entry but no live state, so
    /// a file overwritten in place gets cleaned too.
    pub fn wants_cleaning(&self) -> bool {
        let live = 1 + self.extents.segment_count() as u64 + self.dentries.len() as u64;
        self.log_entries > 64 && self.log_entries > 2 * live
    }
}
