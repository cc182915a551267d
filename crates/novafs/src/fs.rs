//! The `NovaFs` file system: VFS entry points, commit protocol, recovery.

use std::collections::{BTreeSet, HashMap};

use parking_lot::Mutex;
use simdev::Device;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, Linear, SetAttr, StatFs, VfsError, VfsResult,
};

use crate::inode::Inode;
use crate::layout::{InodeSlot, Superblock, FIRST_INO, MAGIC, PAGE};
use crate::log::{fits_in_page, LogEntry, LOG_DATA_START};
use crate::palloc::PageAllocator;

/// A page of zeros to write from.
static ZEROS: [u8; PAGE as usize] = [0; PAGE as usize];

/// Tunables for a [`NovaFs`] instance.
#[derive(Debug, Clone)]
pub struct NovaOptions {
    /// Number of inode-table slots.
    pub n_inodes: u64,
    /// Virtual nanoseconds charged per VFS operation for the software path
    /// (indexing, argument checking); device time is charged by the device.
    pub software_op_ns: u64,
}

impl Default for NovaOptions {
    fn default() -> Self {
        NovaOptions {
            n_inodes: 4096,
            software_op_ns: 1100,
        }
    }
}

struct Inner {
    alloc: PageAllocator,
    inodes: HashMap<InodeNo, Inode>,
    next_ino_hint: InodeNo,
}

/// A NOVA-like log-structured PM file system over one [`Device`].
///
/// See the crate docs for the design summary. All operations are durable
/// when they return (DAX writes + cache-line flushes + atomic tail update),
/// so [`FileSystem::fsync`] is a no-op — the property that makes NOVA fast
/// on PM and that Strata's extra logging forfeits (paper §3.1).
pub struct NovaFs {
    dev: Device,
    sb: Superblock,
    opts: NovaOptions,
    inner: Mutex<Inner>,
}

impl NovaFs {
    /// Formats `dev` with a fresh file system and mounts it.
    pub fn format(dev: Device, opts: NovaOptions) -> VfsResult<Self> {
        let sb = Superblock {
            magic: MAGIC,
            capacity: dev.capacity(),
            n_inodes: opts.n_inodes,
        };
        dev.write(0, &sb.encode())?;
        // Zero the inode table (a reformat must not resurrect old inodes).
        let zeros = vec![0u8; PAGE as usize];
        for p in 1..sb.first_free_page() {
            dev.write(p * PAGE, &zeros)?;
        }
        dev.flush();
        let fs = NovaFs {
            inner: Mutex::new(Inner {
                alloc: PageAllocator::new(sb.first_free_page(), sb.capacity / PAGE),
                inodes: HashMap::new(),
                next_ino_hint: FIRST_INO + 1,
            }),
            dev,
            sb,
            opts,
        };
        // Create the root directory.
        {
            let mut inner = fs.inner.lock();
            let attr = FileAttr::new(FIRST_INO, FileType::Directory, 0o755, fs.now());
            let slot = InodeSlot {
                valid: true,
                kind_dir: true,
                ..Default::default()
            };
            fs.write_slot(FIRST_INO, &slot)?;
            inner.inodes.insert(FIRST_INO, Inode::new(attr, slot));
        }
        Ok(fs)
    }

    /// Mounts an existing file system, rebuilding all in-DRAM state by
    /// scanning the inode table and replaying every log up to its committed
    /// tail.
    pub fn mount(dev: Device, opts: NovaOptions) -> VfsResult<Self> {
        let mut raw = vec![0u8; Superblock::SIZE];
        dev.read(0, &mut raw)?;
        let sb = Superblock::decode(&raw)?;
        let mut inner = Inner {
            alloc: PageAllocator::new(sb.first_free_page(), sb.capacity / PAGE),
            inodes: HashMap::new(),
            next_ino_hint: FIRST_INO + 1,
        };
        let fs_now = dev.clock().now_ns();
        for ino in FIRST_INO..FIRST_INO + sb.n_inodes {
            let mut slot_raw = vec![0u8; InodeSlot::SIZE];
            dev.read(sb.inode_slot_off(ino), &mut slot_raw)?;
            let slot = InodeSlot::decode(&slot_raw)?;
            if !slot.valid {
                continue;
            }
            let kind = if slot.kind_dir {
                FileType::Directory
            } else {
                FileType::Regular
            };
            let attr = FileAttr::new(ino, kind, if slot.kind_dir { 0o755 } else { 0o644 }, fs_now);
            let mut inode = Inode::new(attr, slot);
            Self::replay_log(&dev, &mut inode)?;
            inode.attr.blocks_bytes = inode.extents.covered() * PAGE;
            inode.stale_tail = !inode.attr.size.is_multiple_of(PAGE);
            inner.inodes.insert(ino, inode);
        }
        // Reserve the pages the logs map only once every log is replayed:
        // a page one file's log displaced may back another file's data.
        for inode in inner.inodes.values() {
            for &p in &inode.log_pages {
                inner.alloc.reserve(p);
            }
            for e in inode.extents.iter() {
                for p in e.value.0..e.value.0 + e.len {
                    inner.alloc.reserve(p);
                }
            }
        }
        // Garbage-collect orphans: valid slots never referenced by any
        // directory (a crash window between child-slot creation and the
        // parent dentry commit, or between dentry removal and slot
        // invalidation, leaks them).
        let mut referenced: BTreeSet<InodeNo> = BTreeSet::new();
        referenced.insert(FIRST_INO);
        for inode in inner.inodes.values() {
            for &(child, _) in inode.dentries.values() {
                referenced.insert(child);
            }
        }
        let orphans: Vec<InodeNo> = inner
            .inodes
            .keys()
            .copied()
            .filter(|i| !referenced.contains(i))
            .collect();
        let fs = NovaFs {
            dev,
            sb,
            opts,
            inner: Mutex::new(inner),
        };
        {
            let mut guard = fs.inner.lock();
            let inner = &mut *guard;
            // Prune dangling dentries — the mirror-image crash window: the
            // parent's dentry append persisted but the child's slot write
            // did not, leaving a name that ESTALEs on every lookup forever.
            let dirs: Vec<InodeNo> = inner.inodes.keys().copied().collect();
            for dino in dirs {
                let dead: Vec<String> = inner.inodes[&dino]
                    .dentries
                    .iter()
                    .filter(|&(_, &(child, _))| !inner.inodes.contains_key(&child))
                    .map(|(n, _)| n.clone())
                    .collect();
                for name in dead {
                    let del = LogEntry::DentryDel { name };
                    let dir = inner.inodes.get_mut(&dino).expect("listed");
                    Self::apply_entry(dir, &del, |_, _| {});
                    fs.append_log(&mut inner.alloc, dino, dir, &[del])?;
                }
            }
            for ino in orphans {
                fs.destroy_inode(inner, ino)?;
            }
        }
        Ok(fs)
    }

    /// The device this file system runs on.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// The device byte extents backing a file, in file order — the DAX
    /// mapping interface (paper §2.5: "memory mapping a file provides
    /// direct access to the physical storage"). Mux uses this to map its
    /// preallocated SCM cache file and bypass per-access file-system
    /// calls.
    pub fn file_device_extents(&self, ino: InodeNo) -> VfsResult<Vec<(u64, u64)>> {
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
        if inode.attr.is_dir() {
            return Err(VfsError::IsDir);
        }
        Ok(inode
            .extents
            .iter()
            .map(|e| (e.value.0 * PAGE, e.len * PAGE))
            .collect())
    }

    fn now(&self) -> u64 {
        self.dev.clock().now_ns()
    }

    fn charge_sw(&self) {
        self.dev.clock().advance(self.opts.software_op_ns);
    }

    fn write_slot(&self, ino: InodeNo, slot: &InodeSlot) -> VfsResult<()> {
        let off = self.sb.inode_slot_off(ino);
        self.dev.write(off, &slot.encode())?;
        self.dev.flush_range(off, InodeSlot::SIZE as u64);
        Ok(())
    }

    /// Walks an inode's committed log, applying entries to `inode` and
    /// listing its pages in `inode.log_pages`.
    fn replay_log(dev: &Device, inode: &mut Inode) -> VfsResult<()> {
        let slot = inode.slot;
        if slot.log_head == 0 {
            return Ok(());
        }
        let mut page = slot.log_head;
        let mut off = LOG_DATA_START;
        let mut page_raw = vec![0u8; PAGE as usize];
        dev.read(page * PAGE, &mut page_raw)?;
        inode.log_pages.push(page);
        loop {
            let at_tail = page == slot.tail_page && off >= slot.tail_off;
            if at_tail {
                break;
            }
            match LogEntry::decode(&page_raw[off as usize..])? {
                Some((entry, n)) => {
                    Self::apply_entry(inode, &entry, |_, _| {});
                    off += n as u32;
                }
                None => {
                    // End of page: follow the chain.
                    let next = u64::from_le_bytes(page_raw[0..8].try_into().expect("8 bytes"));
                    if next == 0 || page == slot.tail_page {
                        break;
                    }
                    page = next;
                    off = LOG_DATA_START;
                    dev.read(page * PAGE, &mut page_raw)?;
                    inode.log_pages.push(page);
                }
            }
        }
        Ok(())
    }

    /// Applies one committed log entry to in-memory state, handing
    /// `displaced` each `(device page, pages)` run a write or unmap takes
    /// out of the file. Only the caller frees them: a commit that
    /// supersedes them must be durable first.
    fn apply_entry(inode: &mut Inode, entry: &LogEntry, mut displaced: impl FnMut(u64, u64)) {
        inode.log_entries += 1;
        match entry {
            LogEntry::Write {
                file_page,
                n_pages,
                data_page,
                new_size,
                mtime_ns,
            } => {
                inode
                    .extents
                    .replace(*file_page, *n_pages, Linear(*data_page), |e| {
                        displaced(e.value.0, e.len)
                    });
                inode.attr.size = inode.attr.size.max(*new_size);
                inode.attr.mtime_ns = *mtime_ns;
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
                inode.attr.size = *size;
                inode.attr.mode = *mode;
                inode.attr.uid = *uid;
                inode.attr.gid = *gid;
                inode.attr.atime_ns = *atime_ns;
                inode.attr.mtime_ns = *mtime_ns;
                inode.attr.ctime_ns = *ctime_ns;
            }
            LogEntry::Unmap { file_page, n_pages } => {
                inode
                    .extents
                    .remove_with(*file_page, *n_pages, |e| displaced(e.value.0, e.len));
            }
            LogEntry::DentryAdd {
                child_ino,
                is_dir,
                name,
            } => {
                inode.dentries.insert(name.clone(), (*child_ino, *is_dir));
            }
            LogEntry::DentryDel { name } => {
                inode.dentries.remove(name);
            }
        }
    }

    /// Appends `entries` to an inode's log and commits them with a single
    /// atomic tail update. This is the NOVA commit protocol: data first,
    /// entries next, tail last, with flushes between the steps.
    fn append_log(
        &self,
        alloc: &mut PageAllocator,
        ino: InodeNo,
        inode: &mut Inode,
        entries: &[LogEntry],
    ) -> VfsResult<()> {
        let mut slot = inode.slot;
        if slot.log_head == 0 {
            let p = alloc.alloc_one()?;
            // Initialize the page header (next = 0).
            self.dev.write(p * PAGE, &0u64.to_le_bytes())?;
            slot.log_head = p;
            slot.tail_page = p;
            slot.tail_off = LOG_DATA_START;
            inode.log_pages.push(p);
        }
        let mut enc = Vec::new();
        for entry in entries {
            enc.clear();
            entry.encode_into(&mut enc);
            if !fits_in_page(slot.tail_off, enc.len() as u32) {
                let p = alloc.alloc_one()?;
                // Terminate the old page (type 0 marker) and link it. An
                // exactly full page has no room for the marker — the byte
                // at `tail_off == PAGE` belongs to the physically next
                // page — and needs none: replay treats fewer than three
                // remaining bytes as the end of the page.
                if u64::from(slot.tail_off) < PAGE {
                    self.dev
                        .write(slot.tail_page * PAGE + u64::from(slot.tail_off), &[0u8])?;
                }
                self.dev.write(p * PAGE, &0u64.to_le_bytes())?;
                self.dev.write(slot.tail_page * PAGE, &p.to_le_bytes())?;
                self.dev.flush_range(slot.tail_page * PAGE, PAGE);
                slot.tail_page = p;
                slot.tail_off = LOG_DATA_START;
                inode.log_pages.push(p);
            }
            let at = slot.tail_page * PAGE + u64::from(slot.tail_off);
            self.dev.write(at, &enc)?;
            self.dev.flush_range(at, enc.len() as u64);
            slot.tail_off += enc.len() as u32;
        }
        // Commit: atomic tail (and possibly head) update.
        self.write_slot(ino, &slot)?;
        inode.slot = slot;
        Ok(())
    }

    /// Frees an inode's data pages, log pages and slot.
    fn destroy_inode(&self, inner: &mut Inner, ino: InodeNo) -> VfsResult<()> {
        let inode = inner.inodes.remove(&ino).ok_or(VfsError::NotFound)?;
        for e in inode.extents.iter() {
            inner.alloc.free_run(e.value.0, e.len);
        }
        for p in inode.log_pages {
            inner.alloc.free_run(p, 1);
        }
        self.write_slot(ino, &InodeSlot::default())?;
        Ok(())
    }

    fn alloc_ino(&self, inner: &mut Inner) -> VfsResult<InodeNo> {
        let limit = FIRST_INO + self.sb.n_inodes;
        let start = inner.next_ino_hint.max(FIRST_INO + 1);
        for candidate in (start..limit).chain(FIRST_INO + 1..start) {
            if !inner.inodes.contains_key(&candidate) {
                inner.next_ino_hint = candidate + 1;
                return Ok(candidate);
            }
        }
        Err(VfsError::NoSpace)
    }

    /// Rewrites an inode's log compactly (NOVA's log cleaner), freeing the
    /// superseded pages. Called opportunistically after mutations, and
    /// skipped when the free pages cannot hold the new chain.
    fn clean_log(
        &self,
        alloc: &mut PageAllocator,
        ino: InodeNo,
        inode: &mut Inode,
    ) -> VfsResult<()> {
        let now = self.now();
        let mut fresh: Vec<LogEntry> = Vec::new();
        let a = inode.attr;
        fresh.push(LogEntry::Attr {
            size: a.size,
            mode: a.mode,
            uid: a.uid,
            gid: a.gid,
            atime_ns: a.atime_ns,
            mtime_ns: a.mtime_ns,
            ctime_ns: now,
        });
        for e in inode.extents.iter() {
            fresh.push(LogEntry::Write {
                file_page: e.start,
                n_pages: e.len,
                data_page: e.value.0,
                new_size: a.size,
                mtime_ns: a.mtime_ns,
            });
        }
        for (name, (child, is_dir)) in &inode.dentries {
            fresh.push(LogEntry::DentryAdd {
                child_ino: *child,
                is_dir: *is_dir,
                name: name.clone(),
            });
        }
        if log_pages_needed(&InodeSlot::default(), &fresh) > alloc.free_pages() {
            return Ok(());
        }
        // Build the new chain, then swing the slot atomically.
        let old_pages = std::mem::take(&mut inode.log_pages);
        inode.slot.log_head = 0;
        inode.slot.tail_page = 0;
        inode.slot.tail_off = 0;
        inode.log_entries = 0;
        self.append_log(alloc, ino, inode, &fresh)?;
        for p in old_pages {
            alloc.free_run(p, 1);
        }
        Ok(())
    }

    /// Zeroes `len` bytes at byte `off` of a file in place, where a page
    /// backs them.
    fn zero_in_place(&self, inode: &Inode, off: u64, len: u64) -> VfsResult<()> {
        if let Some(Linear(dp)) = inode.extents.get(off / PAGE) {
            let at = dp * PAGE + off % PAGE;
            self.dev.write(at, &ZEROS[..len as usize])?;
            self.dev.flush_range(at, len);
        }
        Ok(())
    }

    /// Zeroes the bytes past the size in the file's last page if a shrink
    /// may have left old data there ([`Inode::stale_tail`]). In place is
    /// safe: no committed state shows bytes past the size.
    fn zero_stale_tail(&self, inode: &mut Inode) -> VfsResult<()> {
        let size = inode.attr.size;
        if inode.stale_tail && !size.is_multiple_of(PAGE) {
            self.zero_in_place(inode, size, PAGE - size % PAGE)?;
        }
        inode.stale_tail = false;
        Ok(())
    }

    /// Writes the runs of a copy-on-write write of `data` at byte `off` and
    /// commits `entries`, which map them.
    fn commit_write(
        &self,
        alloc: &mut PageAllocator,
        ino: InodeNo,
        inode: &mut Inode,
        off: u64,
        data: &[u8],
        entries: &[LogEntry],
    ) -> VfsResult<()> {
        // The pages this write displaces stay allocated until its commit is
        // durable, so the commit's log pages must come out of what was free
        // before the call; without them the write fails whole, before it
        // changes anything.
        if log_pages_needed(&inode.slot, entries) > alloc.free_pages() {
            return Err(VfsError::NoSpace);
        }
        if off + data.len() as u64 > inode.attr.size {
            self.zero_stale_tail(inode)?;
        }
        for e in entries {
            self.write_run(inode, e, off, data)?;
        }
        self.append_log(alloc, ino, inode, entries)
    }

    /// Writes the run `entry` maps for a copy-on-write write of `data` at
    /// byte `off`: straight from `data` where the write covers the run's
    /// pages whole, else through a buffer merged with the old pages.
    fn write_run(&self, inode: &Inode, entry: &LogEntry, off: u64, data: &[u8]) -> VfsResult<()> {
        let LogEntry::Write {
            file_page,
            n_pages,
            data_page,
            ..
        } = *entry
        else {
            unreachable!("a write commits write entries");
        };
        let (lo, hi) = (file_page * PAGE, (file_page + n_pages) * PAGE);
        let end = off + data.len() as u64;
        let at = data_page * PAGE;
        if off <= lo && hi <= end {
            self.dev
                .write(at, &data[(lo - off) as usize..(hi - off) as usize])?;
        } else {
            let mut blob = vec![0u8; (hi - lo) as usize];
            for (page, p0) in blob
                .chunks_exact_mut(PAGE as usize)
                .zip((lo..hi).step_by(PAGE as usize))
            {
                let (w0, w1) = (off.max(p0), end.min(p0 + PAGE));
                if w1 - w0 < PAGE {
                    self.read_page(inode, p0 / PAGE, page)?;
                }
                page[(w0 - p0) as usize..(w1 - p0) as usize]
                    .copy_from_slice(&data[(w0 - off) as usize..(w1 - off) as usize]);
            }
            self.dev.write(at, &blob)?;
        }
        self.dev.flush_range(at, hi - lo);
        Ok(())
    }

    /// Reads a whole file page (or zeros for holes) into `buf`.
    fn read_page(&self, inode: &Inode, file_page: u64, buf: &mut [u8]) -> VfsResult<()> {
        debug_assert_eq!(buf.len() as u64, PAGE);
        match inode.extents.get(file_page) {
            Some(Linear(dp)) => {
                self.dev.read(dp * PAGE, buf)?;
            }
            None => buf.fill(0),
        }
        Ok(())
    }
}

impl FileSystem for NovaFs {
    fn fs_name(&self) -> &str {
        "novafs"
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.charge_sw();
        let inner = self.inner.lock();
        let dir = inner.inodes.get(&parent).ok_or(VfsError::NotFound)?;
        if !dir.attr.is_dir() {
            return Err(VfsError::NotDir);
        }
        let &(child, _) = dir.dentries.get(name).ok_or(VfsError::NotFound)?;
        inner
            .inodes
            .get(&child)
            .map(|i| i.attr)
            .ok_or(VfsError::Stale)
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.charge_sw();
        let inner = self.inner.lock();
        inner
            .inodes
            .get(&ino)
            .map(|i| i.attr)
            .ok_or(VfsError::NotFound)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.charge_sw();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let now = self.now();
        let inode = inner.inodes.get_mut(&ino).ok_or(VfsError::NotFound)?;
        let mut attr = inode.attr;
        let mut entries: Vec<LogEntry> = Vec::new();
        let mut shrink = false;
        if let Some(new_size) = set.size {
            if attr.is_dir() {
                return Err(VfsError::IsDir);
            }
            if new_size < attr.size {
                // Shrink: unmap whole pages past the end; the tail of the
                // boundary page is zeroed once the commit is durable.
                let first_dead_page = new_size.div_ceil(PAGE);
                let last_page = attr.size.div_ceil(PAGE);
                if last_page > first_dead_page {
                    entries.push(LogEntry::Unmap {
                        file_page: first_dead_page,
                        n_pages: last_page - first_dead_page,
                    });
                }
                shrink = true;
            } else if new_size > attr.size {
                self.zero_stale_tail(inode)?;
            }
            attr.size = new_size;
            attr.mtime_ns = now;
        }
        if let Some(m) = set.mode {
            attr.mode = m;
        }
        if let Some(u) = set.uid {
            attr.uid = u;
        }
        if let Some(g) = set.gid {
            attr.gid = g;
        }
        if let Some(t) = set.atime_ns {
            attr.atime_ns = t;
        }
        if let Some(t) = set.mtime_ns {
            attr.mtime_ns = t;
        }
        attr.ctime_ns = now;
        entries.push(LogEntry::Attr {
            size: attr.size,
            mode: attr.mode,
            uid: attr.uid,
            gid: attr.gid,
            atime_ns: attr.atime_ns,
            mtime_ns: attr.mtime_ns,
            ctime_ns: attr.ctime_ns,
        });
        self.append_log(&mut inner.alloc, ino, inode, &entries)?;
        for e in &entries {
            Self::apply_entry(inode, e, |s, l| inner.alloc.free_run(s, l));
        }
        inode.attr = attr;
        inode.attr.blocks_bytes = inode.extents.covered() * PAGE;
        if shrink {
            inode.stale_tail = true;
            self.zero_stale_tail(inode)?;
        }
        Ok(inode.attr)
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        if name.is_empty() || name.contains('/') {
            return Err(VfsError::InvalidArgument("bad name".into()));
        }
        self.charge_sw();
        let mut inner = self.inner.lock();
        let now = self.now();
        {
            let dir = inner.inodes.get(&parent).ok_or(VfsError::NotFound)?;
            if !dir.attr.is_dir() {
                return Err(VfsError::NotDir);
            }
            if dir.dentries.contains_key(name) {
                return Err(VfsError::Exists);
            }
        }
        let ino = self.alloc_ino(&mut inner)?;
        let is_dir = kind == FileType::Directory;
        let slot = InodeSlot {
            valid: true,
            kind_dir: is_dir,
            ..Default::default()
        };
        // Child slot first (crash here leaks an orphan that mount GC
        // reclaims), then the parent dentry commit.
        self.write_slot(ino, &slot)?;
        let mut attr = FileAttr::new(ino, kind, mode, now);
        if is_dir {
            attr.nlink = 2;
        }
        inner.inodes.insert(ino, Inode::new(attr, slot));
        let add = LogEntry::DentryAdd {
            child_ino: ino,
            is_dir,
            name: name.to_string(),
        };
        let inner = &mut *inner;
        let dir = inner.inodes.get_mut(&parent).expect("checked");
        Self::apply_entry(dir, &add, |_, _| {});
        self.append_log(&mut inner.alloc, parent, dir, &[add])?;
        Ok(attr)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        let child = {
            let dir = inner.inodes.get(&parent).ok_or(VfsError::NotFound)?;
            if !dir.attr.is_dir() {
                return Err(VfsError::NotDir);
            }
            let &(child, _) = dir.dentries.get(name).ok_or(VfsError::NotFound)?;
            child
        };
        if let Some(c) = inner.inodes.get(&child) {
            if c.attr.is_dir() && !c.dentries.is_empty() {
                return Err(VfsError::NotEmpty);
            }
        }
        let del = LogEntry::DentryDel {
            name: name.to_string(),
        };
        let inner = &mut *inner;
        let dir = inner.inodes.get_mut(&parent).expect("checked");
        Self::apply_entry(dir, &del, |_, _| {});
        self.append_log(&mut inner.alloc, parent, dir, &[del])?;
        // Dentry removal is the commit point; now reclaim the child (which
        // a dangling dentry — a half-durable create — never had).
        if inner.inodes.contains_key(&child) {
            self.destroy_inode(inner, child)?;
        }
        let dir = inner.inodes.get_mut(&parent).expect("checked");
        if dir.wants_cleaning() {
            self.clean_log(&mut inner.alloc, parent, dir)?;
        }
        Ok(())
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        let (child, is_dir) = {
            let dir = inner.inodes.get(&parent).ok_or(VfsError::NotFound)?;
            *dir.dentries.get(name).ok_or(VfsError::NotFound)?
        };
        // Replacing an existing destination?
        let replaced = {
            let ndir = inner.inodes.get(&new_parent).ok_or(VfsError::NotFound)?;
            if !ndir.attr.is_dir() {
                return Err(VfsError::NotDir);
            }
            match ndir.dentries.get(new_name) {
                Some(&(existing, ex_dir)) => {
                    if ex_dir {
                        let exi = inner.inodes.get(&existing).ok_or(VfsError::Stale)?;
                        if !exi.dentries.is_empty() {
                            return Err(VfsError::NotEmpty);
                        }
                    }
                    Some(existing)
                }
                None => None,
            }
        };
        // Add to the new parent first, then remove from the old: a crash
        // between the two leaves the file reachable from both names (never
        // lost). Real NOVA uses a small journal here; we document the
        // weaker-but-safe ordering instead.
        let add = LogEntry::DentryAdd {
            child_ino: child,
            is_dir,
            name: new_name.to_string(),
        };
        let inner = &mut *inner;
        let dir = inner.inodes.get_mut(&new_parent).expect("checked");
        Self::apply_entry(dir, &add, |_, _| {});
        self.append_log(&mut inner.alloc, new_parent, dir, &[add])?;
        let del = LogEntry::DentryDel {
            name: name.to_string(),
        };
        let dir = inner.inodes.get_mut(&parent).expect("checked");
        Self::apply_entry(dir, &del, |_, _| {});
        self.append_log(&mut inner.alloc, parent, dir, &[del])?;
        if let Some(existing) = replaced {
            if existing != child {
                self.destroy_inode(inner, existing)?;
            }
        }
        Ok(())
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.charge_sw();
        let inner = self.inner.lock();
        let dir = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
        if !dir.attr.is_dir() {
            return Err(VfsError::NotDir);
        }
        Ok(dir
            .dentries
            .iter()
            .map(|(name, &(child, is_dir))| DirEntry {
                name: name.clone(),
                ino: child,
                kind: if is_dir {
                    FileType::Directory
                } else {
                    FileType::Regular
                },
            })
            .collect())
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        let now = self.now();
        let inode = inner.inodes.get_mut(&ino).ok_or(VfsError::NotFound)?;
        if inode.attr.is_dir() {
            return Err(VfsError::IsDir);
        }
        if off >= inode.attr.size {
            return Ok(0);
        }
        let n = buf.len().min((inode.attr.size - off) as usize);
        // Read extent-by-extent straight from PM (DAX); holes read zeros.
        let mut done = 0usize;
        while done < n {
            let pos = off + done as u64;
            let page = pos / PAGE;
            let in_page = pos % PAGE;
            let chunk = ((PAGE - in_page) as usize).min(n - done);
            match inode.extents.get(page) {
                Some(Linear(dp)) => {
                    self.dev
                        .read(dp * PAGE + in_page, &mut buf[done..done + chunk])?;
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
        inode.attr.atime_ns = now; // relatime-style, DRAM only
        Ok(n)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        self.charge_sw();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let now = self.now();
        let inode = inner.inodes.get_mut(&ino).ok_or(VfsError::NotFound)?;
        if inode.attr.is_dir() {
            return Err(VfsError::IsDir);
        }
        let end = off + data.len() as u64;
        let first_page = off / PAGE;
        let n_pages = (end - 1) / PAGE - first_page + 1;
        let new_size = inode.attr.size.max(end);
        // Copy-on-write: allocate fresh pages, merge partial head/tail
        // content, write via DAX, flush, then commit log entries.
        let runs = inner.alloc.alloc(n_pages)?;
        let mut entries: Vec<LogEntry> = Vec::with_capacity(runs.len());
        let mut run_file_page = first_page;
        for &(dp_start, run_len) in &runs {
            entries.push(LogEntry::Write {
                file_page: run_file_page,
                n_pages: run_len,
                data_page: dp_start,
                new_size,
                mtime_ns: now,
            });
            run_file_page += run_len;
        }
        if let Err(e) = self.commit_write(&mut inner.alloc, ino, inode, off, data, &entries) {
            for &(s, l) in &runs {
                inner.alloc.free_run(s, l);
            }
            return Err(e);
        }
        for e in &entries {
            Self::apply_entry(inode, e, |s, l| inner.alloc.free_run(s, l));
        }
        inode.attr.blocks_bytes = inode.extents.covered() * PAGE;
        if inode.wants_cleaning() {
            self.clean_log(&mut inner.alloc, ino, inode)?;
        }
        Ok(data.len())
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.charge_sw();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let inode = inner.inodes.get_mut(&ino).ok_or(VfsError::NotFound)?;
        if inode.attr.is_dir() {
            return Err(VfsError::IsDir);
        }
        let end = off + len;
        let first_full = off.div_ceil(PAGE);
        let last_full = end / PAGE; // exclusive

        // Zero partial edges in place: those bytes are being discarded, so
        // a crash leaves each of them old or zero.
        let head_end = end.min(first_full * PAGE);
        if off < head_end {
            self.zero_in_place(inode, off, head_end - off)?;
        }
        let tail_start = (last_full * PAGE).max(off);
        if tail_start < end && tail_start >= head_end {
            self.zero_in_place(inode, tail_start, end - tail_start)?;
        }
        if last_full > first_full {
            let unmap = LogEntry::Unmap {
                file_page: first_full,
                n_pages: last_full - first_full,
            };
            self.append_log(&mut inner.alloc, ino, inode, std::slice::from_ref(&unmap))?;
            Self::apply_entry(inode, &unmap, |s, l| inner.alloc.free_run(s, l));
            inode.attr.blocks_bytes = inode.extents.covered() * PAGE;
        }
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge_sw();
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
        let size = inode.attr.size;
        if off >= size {
            return Ok(None);
        }
        match inode.extents.next_mapped(off / PAGE) {
            Some(e) => {
                let start = (e.start * PAGE).max(off);
                let end = ((e.start + e.len) * PAGE).min(size);
                if start >= size {
                    return Ok(None);
                }
                Ok(Some((start, end - start)))
            }
            None => Ok(None),
        }
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        // NOVA commits synchronously: every mutation is already durable.
        self.charge_sw();
        let inner = self.inner.lock();
        if !inner.inodes.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        Ok(())
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge_sw();
        Ok(())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let inner = self.inner.lock();
        Ok(StatFs {
            total_bytes: inner.alloc.total_pages() * PAGE,
            free_bytes: inner.alloc.free_pages() * PAGE,
            inodes: inner.inodes.len() as u64,
            block_size: PAGE as u32,
        })
    }
}

/// The log pages appending `entries` to the log `slot` describes
/// allocates, as [`NovaFs::append_log`] chains them.
fn log_pages_needed(slot: &InodeSlot, entries: &[LogEntry]) -> u64 {
    let (mut pages, mut off) = if slot.log_head == 0 {
        (1, LOG_DATA_START)
    } else {
        (0, slot.tail_off)
    };
    for e in entries {
        let len = e.encoded_len();
        if !fits_in_page(off, len) {
            pages += 1;
            off = LOG_DATA_START;
        }
        off += len;
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{pmem, VirtualClock};
    use tvfs::ROOT_INO;

    fn fresh_fs() -> NovaFs {
        let dev = Device::with_profile(pmem(), 256 << 20, VirtualClock::new());
        NovaFs::format(dev, NovaOptions::default()).unwrap()
    }

    fn mk_file(fs: &NovaFs, name: &str) -> FileAttr {
        fs.create(ROOT_INO, name, FileType::Regular, 0o644).unwrap()
    }

    #[test]
    fn create_lookup_getattr() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        assert_eq!(fs.lookup(ROOT_INO, "f").unwrap().ino, a.ino);
        assert_eq!(fs.getattr(a.ino).unwrap().size, 0);
        assert_eq!(fs.lookup(ROOT_INO, "nope").unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn exactly_full_log_page_leaves_the_next_page_alone() {
        let fs = fresh_fs();
        // Root's log page, then `v`'s data page right behind it.
        let v = mk_file(&fs, "v");
        fs.write(v.ino, 0, &[0xCC; PAGE as usize]).unwrap();
        // A dentry-add entry is 14 bytes + name: 15 are in, 81 x 50 + 23
        // more fill the page to its last byte.
        for i in 0..81 {
            mk_file(&fs, &format!("{i:036}"));
        }
        mk_file(&fs, "123456789");
        {
            let inner = fs.inner.lock();
            let root = &inner.inodes[&ROOT_INO];
            assert_eq!(u64::from(root.slot.tail_off), PAGE, "log page not full");
            let data_page = inner.inodes[&v.ino].extents.overlapping(0, 1)[0].value.0;
            assert_eq!(data_page, root.slot.tail_page + 1, "pages not adjacent");
        }
        // The next entry chains a new log page.
        mk_file(&fs, "spill");
        let mut buf = vec![0u8; PAGE as usize];
        fs.read(v.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xCC), "byte 0 is {:#x}", buf[0]);
        // And the chained log still replays.
        let fs = NovaFs::mount(fs.dev.clone(), NovaOptions::default()).unwrap();
        assert!(fs.lookup(ROOT_INO, "spill").is_ok());
        assert!(fs.lookup(ROOT_INO, "123456789").is_ok());
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = fresh_fs();
        mk_file(&fs, "f");
        assert_eq!(
            fs.create(ROOT_INO, "f", FileType::Regular, 0o644)
                .unwrap_err(),
            VfsError::Exists
        );
    }

    #[test]
    fn write_read_roundtrip_page_spanning() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write(a.ino, 100, &data).unwrap(), data.len());
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(a.ino, 100, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
        // Size is off + len.
        assert_eq!(fs.getattr(a.ino).unwrap().size, 100 + data.len() as u64);
    }

    #[test]
    fn sparse_write_reads_zero_holes() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 100 * PAGE, b"end").unwrap();
        let mut buf = vec![0xAAu8; 16];
        fs.read(a.ino, 50 * PAGE, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 16]);
        // Allocated bytes far less than logical size.
        let attr = fs.getattr(a.ino).unwrap();
        assert_eq!(attr.size, 100 * PAGE + 3);
        assert_eq!(attr.blocks_bytes, PAGE);
    }

    #[test]
    fn overwrite_is_cow_and_frees_old_pages() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        let before = fs.statfs().unwrap().free_bytes;
        fs.write(a.ino, 0, &vec![1u8; 4096 * 4]).unwrap();
        fs.write(a.ino, 0, &vec![2u8; 4096 * 4]).unwrap();
        fs.write(a.ino, 0, &vec![3u8; 4096 * 4]).unwrap();
        let mut buf = vec![0u8; 4096 * 4];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
        let after = fs.statfs().unwrap().free_bytes;
        // Only 4 data pages + O(1) log pages consumed, not 12 pages.
        assert!(
            before - after <= 6 * PAGE,
            "leaked {} bytes",
            before - after
        );
    }

    #[test]
    fn partial_page_overwrite_preserves_rest() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, &vec![7u8; 4096]).unwrap();
        fs.write(a.ino, 1000, b"XYZ").unwrap();
        let mut buf = vec![0u8; 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(buf[999], 7);
        assert_eq!(&buf[1000..1003], b"XYZ");
        assert_eq!(buf[1003], 7);
    }

    #[test]
    fn read_past_eof_returns_zero_len() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(fs.read(a.ino, 3, &mut buf).unwrap(), 0);
        assert_eq!(fs.read(a.ino, 100, &mut buf).unwrap(), 0);
        // Short read at EOF.
        assert_eq!(fs.read(a.ino, 1, &mut buf).unwrap(), 2);
    }

    #[test]
    fn truncate_shrink_then_extend_reads_zeros() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, &vec![9u8; 8192]).unwrap();
        fs.setattr(a.ino, &SetAttr::truncate(1000)).unwrap();
        assert_eq!(fs.getattr(a.ino).unwrap().size, 1000);
        fs.setattr(a.ino, &SetAttr::truncate(8192)).unwrap();
        let mut buf = vec![0u8; 8192];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..1000].iter().all(|&b| b == 9));
        assert!(
            buf[1000..].iter().all(|&b| b == 0),
            "stale bytes after re-extend"
        );
    }

    #[test]
    fn punch_hole_zeroes_and_deallocates() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, &vec![5u8; 4 * 4096]).unwrap();
        let blocks_before = fs.getattr(a.ino).unwrap().blocks_bytes;
        fs.punch_hole(a.ino, 4096, 2 * 4096).unwrap();
        let mut buf = vec![0xFFu8; 4 * 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..4096].iter().all(|&b| b == 5));
        assert!(buf[4096..3 * 4096].iter().all(|&b| b == 0));
        assert!(buf[3 * 4096..].iter().all(|&b| b == 5));
        assert_eq!(
            fs.getattr(a.ino).unwrap().blocks_bytes,
            blocks_before - 2 * PAGE
        );
        // Size unchanged.
        assert_eq!(fs.getattr(a.ino).unwrap().size, 4 * 4096);
    }

    #[test]
    fn punch_hole_unaligned_edges() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, &vec![5u8; 3 * 4096]).unwrap();
        fs.punch_hole(a.ino, 100, 4096 + 200).unwrap();
        let mut buf = vec![0u8; 3 * 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 5));
        assert!(buf[100..100 + 4096 + 200].iter().all(|&b| b == 0));
        assert!(buf[100 + 4096 + 200..].iter().all(|&b| b == 5));
    }

    #[test]
    fn next_data_finds_extents() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 10 * PAGE, &vec![1u8; 4096]).unwrap();
        let (start, len) = fs.next_data(a.ino, 0).unwrap().unwrap();
        assert_eq!(start, 10 * PAGE);
        assert_eq!(len, PAGE);
        assert_eq!(fs.next_data(a.ino, 11 * PAGE).unwrap(), None);
    }

    #[test]
    fn mkdir_and_nested_files() {
        let fs = fresh_fs();
        let d = fs
            .create(ROOT_INO, "dir", FileType::Directory, 0o755)
            .unwrap();
        let f = fs.create(d.ino, "inner", FileType::Regular, 0o644).unwrap();
        assert_eq!(fs.lookup(d.ino, "inner").unwrap().ino, f.ino);
        let names: Vec<String> = fs
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["dir"]);
    }

    #[test]
    fn unlink_nonempty_dir_rejected() {
        let fs = fresh_fs();
        let d = fs
            .create(ROOT_INO, "dir", FileType::Directory, 0o755)
            .unwrap();
        fs.create(d.ino, "f", FileType::Regular, 0o644).unwrap();
        assert_eq!(fs.unlink(ROOT_INO, "dir").unwrap_err(), VfsError::NotEmpty);
        fs.unlink(d.ino, "f").unwrap();
        fs.unlink(ROOT_INO, "dir").unwrap();
    }

    #[test]
    fn unlink_frees_space() {
        let fs = fresh_fs();
        // Warm the root directory's log so its page allocation does not
        // perturb the measurement.
        mk_file(&fs, "warm");
        fs.unlink(ROOT_INO, "warm").unwrap();
        let before = fs.statfs().unwrap().free_bytes;
        let a = mk_file(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 1 << 20]).unwrap();
        assert!(fs.statfs().unwrap().free_bytes < before);
        fs.unlink(ROOT_INO, "f").unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, before);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "a");
        fs.write(a.ino, 0, b"AAA").unwrap();
        let b = mk_file(&fs, "b");
        fs.write(b.ino, 0, b"BBB").unwrap();
        fs.rename(ROOT_INO, "a", ROOT_INO, "b").unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "a").unwrap_err(), VfsError::NotFound);
        let got = fs.lookup(ROOT_INO, "b").unwrap();
        assert_eq!(got.ino, a.ino);
        let mut buf = [0u8; 3];
        fs.read(got.ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"AAA");
    }

    #[test]
    fn remount_recovers_files_and_dirs() {
        let clock = VirtualClock::new();
        let dev = Device::with_profile(pmem(), 256 << 20, clock);
        let data: Vec<u8> = (0..20_000).map(|i| (i % 241) as u8).collect();
        let ino;
        {
            let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
            let d = fs
                .create(ROOT_INO, "dir", FileType::Directory, 0o755)
                .unwrap();
            let f = fs.create(d.ino, "file", FileType::Regular, 0o640).unwrap();
            ino = f.ino;
            fs.write(f.ino, 123, &data).unwrap();
        }
        let fs2 = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        let d = fs2.lookup(ROOT_INO, "dir").unwrap();
        let f = fs2.lookup(d.ino, "file").unwrap();
        assert_eq!(f.ino, ino);
        assert_eq!(f.size, 123 + data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        fs2.read(f.ino, 123, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn crash_uncommitted_write_is_invisible_but_old_data_survives() {
        let clock = VirtualClock::new();
        let dev = Device::with_profile(pmem(), 256 << 20, clock);
        let ino;
        {
            let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
            let f = mk_file(&fs, "f");
            ino = f.ino;
            fs.write(f.ino, 0, &vec![1u8; 8192]).unwrap();
            // Everything NOVA does is synchronous, so this is durable.
        }
        dev.crash();
        let fs2 = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        let f = fs2.lookup(ROOT_INO, "f").unwrap();
        assert_eq!(f.ino, ino);
        assert_eq!(f.size, 8192);
        let mut buf = vec![0u8; 8192];
        fs2.read(f.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn remount_reclaims_allocator_correctly() {
        let dev = Device::with_profile(pmem(), 64 << 20, VirtualClock::new());
        let free_after_write;
        {
            let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
            let f = mk_file(&fs, "f");
            fs.write(f.ino, 0, &vec![1u8; 1 << 20]).unwrap();
            free_after_write = fs.statfs().unwrap().free_bytes;
        }
        let fs2 = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        assert_eq!(fs2.statfs().unwrap().free_bytes, free_after_write);
        // And the recovered file is still writable without corruption.
        let f = fs2.lookup(ROOT_INO, "f").unwrap();
        fs2.write(f.ino, 0, &vec![2u8; 4096]).unwrap();
        let mut buf = vec![0u8; 8192];
        fs2.read(f.ino, 0, &mut buf).unwrap();
        assert!(buf[..4096].iter().all(|&b| b == 2));
        assert!(buf[4096..].iter().all(|&b| b == 1));
    }

    #[test]
    fn remount_keeps_a_page_one_file_freed_and_another_reused() {
        let dev = Device::with_profile(pmem(), 64 << 20, VirtualClock::new());
        let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
        // `b` has the lower inode number, so mount replays it first.
        let b = mk_file(&fs, "b");
        let a = mk_file(&fs, "a");
        fs.write(b.ino, 0, b"b").unwrap();
        fs.write(a.ino, 0, &[1; PAGE as usize]).unwrap();
        fs.write(a.ino, 0, &[2; PAGE as usize]).unwrap();
        // The lowest free page is the one `a`'s overwrite displaced.
        fs.write(b.ino, PAGE, &[3; PAGE as usize]).unwrap();
        let free = fs.statfs().unwrap().free_bytes;
        let fs = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free);
        let c = mk_file(&fs, "c");
        fs.write(c.ino, 0, &[4; PAGE as usize]).unwrap();
        let mut buf = vec![0u8; PAGE as usize];
        fs.read(b.ino, PAGE, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "`b` reads {:#x}", buf[0]);
    }

    #[test]
    fn log_cleaning_bounds_log_growth() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        // Hammer the same page; without cleaning the log would hold
        // hundreds of entries and pages.
        for i in 0..500u32 {
            fs.write(a.ino, 0, &i.to_le_bytes()).unwrap();
        }
        let inner = fs.inner.lock();
        let inode = &inner.inodes[&a.ino];
        assert!(
            inode.log_pages.len() < 10,
            "log should be cleaned, has {} pages",
            inode.log_pages.len()
        );
        drop(inner);
        let mut buf = [0u8; 4];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), 499);
    }

    #[test]
    fn log_cleaning_bounds_the_log_of_a_file_overwritten_in_place() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        let pages = 64u64;
        fs.write(a.ino, 0, &vec![0u8; (pages * PAGE) as usize])
            .unwrap();
        // Each overwrite displaces one extent and adds no live state.
        let mut last = vec![0u32; pages as usize];
        for i in 0..20_000u32 {
            let page = (u64::from(i) * 37) % pages;
            fs.write(a.ino, page * PAGE, &vec![i as u8; PAGE as usize])
                .unwrap();
            last[page as usize] = i;
        }
        let inner = fs.inner.lock();
        let inode = &inner.inodes[&a.ino];
        assert!(
            inode.log_pages.len() < 10,
            "log should be cleaned, has {} pages",
            inode.log_pages.len()
        );
        drop(inner);
        let mut buf = vec![0u8; PAGE as usize];
        for (page, &i) in last.iter().enumerate() {
            fs.read(a.ino, page as u64 * PAGE, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8), "page {page}");
        }
    }

    #[test]
    fn out_of_space_reports_nospace() {
        let dev = Device::with_profile(pmem(), 2 << 20, VirtualClock::new());
        let fs = NovaFs::format(
            dev,
            NovaOptions {
                n_inodes: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let a = mk_file(&fs, "f");
        let big = vec![0u8; 4 << 20];
        assert_eq!(fs.write(a.ino, 0, &big).unwrap_err(), VfsError::NoSpace);
    }

    #[test]
    fn a_write_without_room_for_its_log_page_changes_nothing() {
        let dev = Device::with_profile(pmem(), 4 << 20, VirtualClock::new());
        let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
        let page = vec![1u8; PAGE as usize];
        // `g`'s log tail page fills up with one-page writes, a hole after
        // each: every entry maps an extent of its own, so the log holds
        // only live state and no clean compacts it.
        let g = mk_file(&fs, "g");
        let mut size = 0;
        loop {
            let inner = fs.inner.lock();
            let slot = inner.inodes[&g.ino].slot;
            let next = LogEntry::Write {
                file_page: 0,
                n_pages: 1,
                data_page: 0,
                new_size: 0,
                mtime_ns: 0,
            };
            if slot.log_head != 0 && !fits_in_page(slot.tail_off, next.encoded_len()) {
                break;
            }
            drop(inner);
            fs.write(g.ino, size + PAGE, &page).unwrap();
            size += 2 * PAGE;
        }
        // Another file takes every page but one.
        let b = mk_file(&fs, "b");
        let mut end = 0;
        while fs.inner.lock().alloc.free_pages() > 1 {
            fs.write(b.ino, end, &page).unwrap();
            end += PAGE;
        }
        assert_eq!(fs.inner.lock().alloc.free_pages(), 1);

        // One data page is free, but the commit needs a log page too.
        assert_eq!(fs.write(g.ino, size, &page), Err(VfsError::NoSpace));
        assert_eq!(fs.getattr(g.ino).unwrap().size, size);
        assert_eq!(fs.inner.lock().alloc.free_pages(), 1);
        let fs2 = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        assert_eq!(fs2.getattr(g.ino).unwrap().size, size);
        assert_eq!(fs2.statfs().unwrap().free_bytes, PAGE);
    }

    #[test]
    fn fsync_is_noop_but_validates_ino() {
        let fs = fresh_fs();
        let a = mk_file(&fs, "f");
        fs.fsync(a.ino).unwrap();
        assert_eq!(fs.fsync(999).unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn mount_gc_reclaims_orphan_inodes() {
        let dev = Device::with_profile(pmem(), 64 << 20, VirtualClock::new());
        {
            let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
            mk_file(&fs, "keep");
            // Simulate the crash window in create(): a valid child slot
            // whose parent dentry never committed.
            let slot = InodeSlot {
                valid: true,
                kind_dir: false,
                ..Default::default()
            };
            fs.write_slot(77, &slot).unwrap();
        }
        let fs2 = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        assert!(fs2.lookup(ROOT_INO, "keep").is_ok());
        assert!(fs2.getattr(77).is_err(), "orphan inode must be GC'd");
    }
}
