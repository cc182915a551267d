//! The `XeFs` file system: delayed allocation, page cache, journal commits.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::RangeBounds;

use parking_lot::Mutex;
use simdev::Device;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, Linear, PageCache, RangeMap, SetAttr,
    StatFs, VfsError, VfsResult, ROOT_INO,
};

use crate::extalloc::AgAllocator;
use crate::journal::{Journal, Records, REC_CHECKPOINT};
use crate::layout::{encode_record, InodeRecord, Superblock, BLOCK, MAGIC};

/// Tunables for an [`XeFs`] instance.
#[derive(Debug, Clone)]
pub struct XeOptions {
    /// Journal ring size in blocks.
    pub journal_blocks: u64,
    /// Number of allocation groups.
    pub n_ags: usize,
    /// DRAM page-cache capacity in bytes.
    pub page_cache_bytes: u64,
    /// Pages prefetched on sequential reads.
    pub readahead_pages: u64,
    /// Software-path cost charged per VFS op (virtual ns).
    pub software_op_ns: u64,
    /// Cost of serving one page out of DRAM cache (virtual ns).
    pub dram_copy_ns: u64,
    /// Dirty-page count that triggers background writeback.
    pub writeback_threshold: usize,
}

impl Default for XeOptions {
    fn default() -> Self {
        XeOptions {
            journal_blocks: 2048,
            n_ags: 4,
            page_cache_bytes: 64 << 20,
            readahead_pages: 8,
            software_op_ns: 500,
            dram_copy_ns: 250,
            writeback_threshold: 16 * 1024,
        }
    }
}

struct XInode {
    attr: FileAttr,
    /// File page → device block.
    extents: RangeMap<Linear>,
    dentries: BTreeMap<String, (InodeNo, bool)>,
}

impl XInode {
    fn encode_into(&self, ino: InodeNo, out: &mut Vec<u8>) {
        encode_record(
            out,
            ino,
            false,
            &self.attr,
            self.extents.iter().map(|e| (e.start, e.value.0, e.len)),
            self.dentries.iter().map(|(n, &(c, d))| (n.as_str(), c, d)),
        );
    }
}

struct Inner {
    alloc: AgAllocator,
    inodes: HashMap<InodeNo, XInode>,
    cache: PageCache,
    journal: Journal,
    dirty_meta: BTreeSet<InodeNo>,
    /// Inodes deleted since the last commit.
    tombstones: Vec<InodeNo>,
    /// Readahead: the page we expect a sequential reader to ask for next.
    ra_next: HashMap<InodeNo, u64>,
    next_ino: InodeNo,
    /// Dirty pages with no block yet: delayed allocations writeback still
    /// has to make, which `statfs` reserves.
    delalloc: u64,
}

impl Inner {
    /// Dirties a page through the cache, counting a delayed allocation
    /// when it newly dirties a page that has no block.
    fn dirty_page(
        &mut self,
        ino: InodeNo,
        pg: u64,
        init: impl FnOnce() -> Vec<u8>,
        apply: impl FnOnce(&mut [u8]),
    ) {
        if self.cache.update_dirty(ino, pg, init, apply)
            && self.inodes[&ino].extents.get(pg).is_none()
        {
            self.delalloc += 1;
        }
    }

    /// Drops `ino`'s cached pages in `range` — before their extents go —
    /// releasing the delayed allocations among them.
    fn drop_pages(&mut self, ino: InodeNo, range: impl RangeBounds<u64>) {
        if let Some(x) = self.inodes.get(&ino) {
            let unmapped = self
                .cache
                .dirty_page_list(ino)
                .into_iter()
                .filter(|pg| range.contains(pg) && x.extents.get(*pg).is_none())
                .count();
            self.delalloc -= unmapped as u64;
        }
        self.cache.invalidate(ino, range);
    }
}

/// An XFS-like extent file system over one block [`Device`].
///
/// See the crate docs for the design summary. Durability contract: data and
/// metadata become crash-safe at `fsync`/`sync`; metadata operations are
/// batched into journal transactions (a crash may roll back un-synced
/// creates/renames, never corrupt).
pub struct XeFs {
    dev: Device,
    sb: Superblock,
    opts: XeOptions,
    inner: Mutex<Inner>,
}

impl XeFs {
    /// Formats `dev` and mounts the empty file system.
    pub fn format(dev: Device, opts: XeOptions) -> VfsResult<Self> {
        let sb = Superblock {
            magic: MAGIC,
            capacity: dev.capacity(),
            journal_blocks: opts.journal_blocks,
            n_ags: opts.n_ags as u32,
        };
        // The device must fit the superblock, the journal, and at least
        // one data block; otherwise first_data_block() points past the
        // end and every free-space computation underflows.
        if sb.capacity / BLOCK <= sb.first_data_block() {
            return Err(VfsError::InvalidArgument(format!(
                "device too small: {} blocks, layout needs > {}",
                sb.capacity / BLOCK,
                sb.first_data_block()
            )));
        }
        dev.write(0, &sb.encode())?;
        let mut journal = Journal::new(sb.journal_off(), sb.journal_len());
        // Root directory in the initial checkpoint.
        let root = XInode {
            attr: {
                let mut a = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
                a.nlink = 2;
                a
            },
            extents: RangeMap::new(),
            dentries: BTreeMap::new(),
        };
        let mut records = Records::default();
        records.push(|out| root.encode_into(ROOT_INO, out));
        journal.write_checkpoint(&dev, &records)?;
        dev.flush();
        let mut inodes = HashMap::new();
        inodes.insert(ROOT_INO, root);
        let inner = Inner {
            alloc: AgAllocator::new(sb.first_data_block(), sb.capacity / BLOCK, opts.n_ags),
            inodes,
            cache: PageCache::new(opts.page_cache_bytes, BLOCK as usize),
            journal,
            dirty_meta: BTreeSet::new(),
            tombstones: Vec::new(),
            ra_next: HashMap::new(),
            next_ino: ROOT_INO + 1,
            delalloc: 0,
        };
        Ok(XeFs {
            dev,
            sb,
            opts,
            inner: Mutex::new(inner),
        })
    }

    /// Mounts an existing file system, replaying the journal.
    pub fn mount(dev: Device, opts: XeOptions) -> VfsResult<Self> {
        let mut raw = vec![0u8; Superblock::SIZE];
        dev.read(0, &mut raw)?;
        let sb = Superblock::decode(&raw)?;
        let (records, journal) = Journal::replay(&dev, sb.journal_off(), sb.journal_len())?;
        let mut inodes: HashMap<InodeNo, XInode> = HashMap::new();
        let mut max_ino = ROOT_INO;
        for rec in &records {
            if rec.kind == REC_CHECKPOINT {
                inodes.clear();
            }
            for ir in &rec.inodes {
                max_ino = max_ino.max(ir.ino);
                if ir.deleted {
                    inodes.remove(&ir.ino);
                    continue;
                }
                let mut extents = RangeMap::new();
                for &(fp, db, len) in &ir.extents {
                    extents.insert(fp, len, Linear(db));
                }
                inodes.insert(
                    ir.ino,
                    XInode {
                        attr: ir.attr,
                        extents,
                        dentries: ir
                            .dentries
                            .iter()
                            .map(|(n, c, d)| (n.clone(), (*c, *d)))
                            .collect(),
                    },
                );
            }
        }
        if inodes.is_empty() {
            return Err(VfsError::Io("xefs journal has no valid checkpoint".into()));
        }
        // Prune dangling dentries: a replayed directory may reference a
        // child whose own record fell past the valid journal prefix; such
        // a name would ESTALE on every lookup forever. The prune is
        // in-memory only — the next metadata commit persists it.
        let live: BTreeSet<InodeNo> = inodes.keys().copied().collect();
        for inode in inodes.values_mut() {
            inode
                .dentries
                .retain(|_, &mut (child, _)| live.contains(&child));
        }
        let mut alloc = AgAllocator::new(
            sb.first_data_block(),
            sb.capacity / BLOCK,
            sb.n_ags as usize,
        );
        for inode in inodes.values() {
            for e in inode.extents.iter() {
                alloc.reserve(e.value.0, e.len);
            }
        }
        let inner = Inner {
            alloc,
            inodes,
            cache: PageCache::new(opts.page_cache_bytes, BLOCK as usize),
            journal,
            dirty_meta: BTreeSet::new(),
            tombstones: Vec::new(),
            ra_next: HashMap::new(),
            next_ino: max_ino + 1,
            delalloc: 0,
        };
        Ok(XeFs {
            dev,
            sb,
            opts,
            inner: Mutex::new(inner),
        })
    }

    /// The device this file system runs on.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Page-cache statistics (read path hit rate).
    pub fn cache_stats(&self) -> tvfs::CacheStats {
        self.inner.lock().cache.stats()
    }

    fn charge_sw(&self) {
        self.dev.clock().advance(self.opts.software_op_ns);
    }

    fn charge_dram(&self, pages: u64) {
        self.dev.clock().advance(self.opts.dram_copy_ns * pages);
    }

    fn now(&self) -> u64 {
        self.dev.clock().now_ns()
    }

    /// Commits all pending metadata as one journal transaction.
    fn commit_meta(&self, inner: &mut Inner) -> VfsResult<()> {
        if inner.dirty_meta.is_empty() && inner.tombstones.is_empty() {
            return Ok(());
        }
        let mut records = Records::default();
        for ino in inner.tombstones.drain(..) {
            records.push(|out| InodeRecord::tombstone(ino).encode_into(out));
        }
        for &ino in &inner.dirty_meta {
            if let Some(x) = inner.inodes.get(&ino) {
                records.push(|out| x.encode_into(ino, out));
            }
        }
        inner.dirty_meta.clear();
        if !inner.journal.append_txn(&self.dev, &records)? {
            // Ring full: compact with a checkpoint of everything.
            let mut all = Records::default();
            for (&ino, x) in &inner.inodes {
                all.push(|out| x.encode_into(ino, out));
            }
            inner.journal.write_checkpoint(&self.dev, &all)?;
        }
        self.dev.flush();
        Ok(())
    }

    /// Writes back one inode's dirty pages: delayed allocation assigns
    /// extents first (contiguous runs for consecutive file pages), then
    /// all pages are submitted in **device-block order** with contiguous
    /// blocks merged into single commands — the block-layer merging that
    /// gives XFS its random-write edge (the §3.1 "device-friendly ...
    /// caching scheme").
    fn writeback_inode(&self, inner: &mut Inner, ino: InodeNo) -> VfsResult<()> {
        let pages = inner.cache.dirty_page_list(ino);
        if pages.is_empty() {
            return Ok(());
        }
        let Some(x) = inner.inodes.get(&ino) else {
            inner.cache.mark_clean(ino); // deleted while dirty
            return Ok(());
        };
        let unmapped = pages.iter().filter(|&&pg| x.extents.get(pg).is_none());
        inner.delalloc -= unmapped.count() as u64;
        let written = self.allocate_and_write(inner, ino, &pages);
        // The pages are clean from here on even if their allocation or
        // write failed: the failure goes to this caller, and no later
        // writeback retries it.
        inner.cache.mark_clean(ino);
        written?;
        let x = inner.inodes.get_mut(&ino).expect("checked");
        x.attr.blocks_bytes = x.extents.covered() * BLOCK;
        inner.dirty_meta.insert(ino);
        Ok(())
    }

    fn allocate_and_write(&self, inner: &mut Inner, ino: InodeNo, pages: &[u64]) -> VfsResult<()> {
        // Pass 1 — allocation: give every unmapped dirty page an extent,
        // batching consecutive file pages into one allocation.
        let mut i = 0usize;
        while i < pages.len() {
            let pg = pages[i];
            if inner.inodes[&ino].extents.get(pg).is_some() {
                i += 1;
                continue;
            }
            // Run of consecutive unmapped file pages.
            let mut run = 1u64;
            while i + (run as usize) < pages.len()
                && pages[i + run as usize] == pg + run
                && inner.inodes[&ino].extents.get(pg + run).is_none()
            {
                run += 1;
            }
            let new_runs = inner.alloc.alloc(ino, run)?;
            let mut fp = pg;
            for (db, dl) in new_runs {
                inner
                    .inodes
                    .get_mut(&ino)
                    .expect("checked")
                    .extents
                    .insert(fp, dl, Linear(db));
                fp += dl;
            }
            i += run as usize;
        }
        // Pass 2 — elevator submit: device-block order, runs merged.
        let extents = &inner.inodes[&ino].extents;
        let blocks = pages
            .iter()
            .filter_map(|&pg| extents.get(pg).map(|Linear(db)| (db, ino, pg)))
            .collect();
        inner.cache.write_back(&self.dev, blocks)
    }

    fn writeback_all(&self, inner: &mut Inner) -> VfsResult<()> {
        for ino in inner.cache.dirty_inodes() {
            self.writeback_inode(inner, ino)?;
        }
        Ok(())
    }

    /// Reads `out.len()` bytes from `offset` within one page through the
    /// cache (the whole page from the device on a miss).
    fn read_page_cached(
        &self,
        inner: &mut Inner,
        ino: InodeNo,
        pg: u64,
        offset: usize,
        out: &mut [u8],
    ) -> VfsResult<()> {
        if inner.cache.get(ino, pg, offset, out) {
            self.charge_dram(1);
            return Ok(());
        }
        match inner.inodes[&ino].extents.get(pg) {
            Some(Linear(db)) => {
                let mut page = vec![0u8; BLOCK as usize];
                self.dev.read(db * BLOCK, &mut page)?;
                out.copy_from_slice(&page[offset..offset + out.len()]);
                inner.cache.insert_clean(ino, pg, page);
            }
            None => out.fill(0),
        }
        Ok(())
    }

    /// Prefetches mapped pages `[from, from+n)` into the cache.
    fn readahead(&self, inner: &mut Inner, ino: InodeNo, from: u64, n: u64) -> VfsResult<()> {
        for pg in from..from + n {
            if inner.cache.contains(ino, pg) {
                continue;
            }
            if let Some(Linear(db)) = inner.inodes[&ino].extents.get(pg) {
                let mut page = vec![0u8; BLOCK as usize];
                self.dev.read(db * BLOCK, &mut page)?;
                inner.cache.insert_clean(ino, pg, page);
            }
        }
        Ok(())
    }
}

impl FileSystem for XeFs {
    fn fs_name(&self) -> &str {
        "xefs"
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
            .map(|x| x.attr)
            .ok_or(VfsError::Stale)
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.charge_sw();
        let inner = self.inner.lock();
        inner
            .inodes
            .get(&ino)
            .map(|x| x.attr)
            .ok_or(VfsError::NotFound)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        let now = self.now();
        if !inner.inodes.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        if let Some(new_size) = set.size {
            if inner.inodes[&ino].attr.is_dir() {
                return Err(VfsError::IsDir);
            }
            let old_size = inner.inodes[&ino].attr.size;
            if new_size < old_size {
                let first_dead = new_size.div_ceil(BLOCK);
                inner.drop_pages(ino, first_dead..);
                // Free whole blocks past the end.
                let mut freed: Vec<(u64, u64)> = Vec::new();
                {
                    let x = inner.inodes.get_mut(&ino).expect("checked");
                    let tail = old_size.div_ceil(BLOCK).max(first_dead);
                    for e in x.extents.overlapping(first_dead, tail - first_dead) {
                        freed.push((e.value.0, e.len));
                    }
                    x.extents.remove(first_dead, tail - first_dead);
                }
                for (s, l) in freed {
                    inner.alloc.free(s, l);
                }
                // Zero the tail of the boundary page so re-extension reads
                // zeros (delayed: goes through the cache as a dirty page).
                if new_size % BLOCK != 0 {
                    let pg = new_size / BLOCK;
                    let has_backing = inner.inodes[&ino].extents.get(pg).is_some()
                        || inner.cache.contains(ino, pg);
                    if has_backing {
                        let mut base = vec![0u8; BLOCK as usize];
                        self.read_page_cached(&mut inner, ino, pg, 0, &mut base)?;
                        let cut = (new_size % BLOCK) as usize;
                        inner.dirty_page(ino, pg, || base, |page| page[cut..].fill(0));
                    }
                }
            }
            let x = inner.inodes.get_mut(&ino).expect("checked");
            x.attr.size = new_size;
            x.attr.mtime_ns = now;
            x.attr.blocks_bytes = x.extents.covered() * BLOCK;
        }
        let x = inner.inodes.get_mut(&ino).expect("checked");
        if let Some(m) = set.mode {
            x.attr.mode = m;
        }
        if let Some(u) = set.uid {
            x.attr.uid = u;
        }
        if let Some(g) = set.gid {
            x.attr.gid = g;
        }
        if let Some(t) = set.atime_ns {
            x.attr.atime_ns = t;
        }
        if let Some(t) = set.mtime_ns {
            x.attr.mtime_ns = t;
        }
        x.attr.ctime_ns = now;
        let attr = x.attr;
        inner.dirty_meta.insert(ino);
        Ok(attr)
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
        let ino = inner.next_ino;
        inner.next_ino += 1;
        let mut attr = FileAttr::new(ino, kind, mode, now);
        if kind == FileType::Directory {
            attr.nlink = 2;
        }
        inner.inodes.insert(
            ino,
            XInode {
                attr,
                extents: RangeMap::new(),
                dentries: BTreeMap::new(),
            },
        );
        inner
            .inodes
            .get_mut(&parent)
            .expect("checked")
            .dentries
            .insert(name.to_string(), (ino, kind == FileType::Directory));
        inner.dirty_meta.insert(parent);
        inner.dirty_meta.insert(ino);
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
        inner
            .inodes
            .get_mut(&parent)
            .expect("checked")
            .dentries
            .remove(name);
        inner.drop_pages(child, ..);
        inner.ra_next.remove(&child);
        if let Some(x) = inner.inodes.remove(&child) {
            for e in x.extents.iter() {
                inner.alloc.free(e.value.0, e.len);
            }
        }
        inner.dirty_meta.insert(parent);
        inner.dirty_meta.remove(&child);
        inner.tombstones.push(child);
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
        let entry = {
            let dir = inner.inodes.get(&parent).ok_or(VfsError::NotFound)?;
            *dir.dentries.get(name).ok_or(VfsError::NotFound)?
        };
        let replaced = {
            let ndir = inner.inodes.get(&new_parent).ok_or(VfsError::NotFound)?;
            if !ndir.attr.is_dir() {
                return Err(VfsError::NotDir);
            }
            match ndir.dentries.get(new_name) {
                Some(&(existing, true)) => {
                    let exi = inner.inodes.get(&existing).ok_or(VfsError::Stale)?;
                    if !exi.dentries.is_empty() {
                        return Err(VfsError::NotEmpty);
                    }
                    Some(existing)
                }
                Some(&(existing, false)) => Some(existing),
                None => None,
            }
        };
        inner
            .inodes
            .get_mut(&parent)
            .expect("checked")
            .dentries
            .remove(name);
        inner
            .inodes
            .get_mut(&new_parent)
            .expect("checked")
            .dentries
            .insert(new_name.to_string(), entry);
        if let Some(existing) = replaced {
            if existing != entry.0 {
                inner.drop_pages(existing, ..);
                inner.ra_next.remove(&existing);
                if let Some(x) = inner.inodes.remove(&existing) {
                    for e in x.extents.iter() {
                        inner.alloc.free(e.value.0, e.len);
                    }
                }
                inner.tombstones.push(existing);
            }
        }
        inner.dirty_meta.insert(parent);
        inner.dirty_meta.insert(new_parent);
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
        let size = {
            let x = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
            if x.attr.is_dir() {
                return Err(VfsError::IsDir);
            }
            x.attr.size
        };
        if off >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        let mut done = 0usize;
        while done < n {
            let pos = off + done as u64;
            let in_pg = (pos % BLOCK) as usize;
            let chunk = (BLOCK as usize - in_pg).min(n - done);
            let out = &mut buf[done..done + chunk];
            self.read_page_cached(&mut inner, ino, pos / BLOCK, in_pg, out)?;
            done += chunk;
        }
        // Sequential readahead.
        let first_pg = off / BLOCK;
        let last_pg = (off + n as u64 - 1) / BLOCK;
        let expected = inner.ra_next.get(&ino).copied();
        if expected == Some(first_pg) && self.opts.readahead_pages > 0 {
            self.readahead(&mut inner, ino, last_pg + 1, self.opts.readahead_pages)?;
        }
        inner.ra_next.insert(ino, last_pg + 1);
        if let Some(x) = inner.inodes.get_mut(&ino) {
            x.attr.atime_ns = now; // relatime-style, not journaled per read
        }
        Ok(n)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        self.charge_sw();
        let mut inner = self.inner.lock();
        let now = self.now();
        {
            let x = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
            if x.attr.is_dir() {
                return Err(VfsError::IsDir);
            }
        }
        let len = data.len() as u64;
        let first_pg = off / BLOCK;
        let last_pg = (off + len - 1) / BLOCK;
        for pg in first_pg..=last_pg {
            let pg_start = pg * BLOCK;
            let w_start = off.max(pg_start);
            let w_end = (off + len).min(pg_start + BLOCK);
            let partial = w_start != pg_start || w_end != pg_start + BLOCK;
            // Base content for partial pages comes from the device if the
            // page is mapped and not resident; zeros otherwise.
            let mut base = None;
            if partial && !inner.cache.contains(ino, pg) {
                if let Some(Linear(db)) = inner.inodes[&ino].extents.get(pg) {
                    let mut b = vec![0u8; BLOCK as usize];
                    self.dev.read(db * BLOCK, &mut b)?;
                    base = Some(b);
                }
            }
            inner.dirty_page(
                ino,
                pg,
                || base.unwrap_or_else(|| vec![0u8; BLOCK as usize]),
                |page| {
                    page[(w_start - pg_start) as usize..(w_end - pg_start) as usize]
                        .copy_from_slice(&data[(w_start - off) as usize..(w_end - off) as usize]);
                },
            );
        }
        self.charge_dram(last_pg - first_pg + 1);
        {
            let x = inner.inodes.get_mut(&ino).expect("checked");
            x.attr.size = x.attr.size.max(off + len);
            x.attr.mtime_ns = now;
        }
        inner.dirty_meta.insert(ino);
        if inner.cache.total_dirty() > self.opts.writeback_threshold {
            self.writeback_all(&mut inner)?;
            self.commit_meta(&mut inner)?;
        }
        Ok(data.len())
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.charge_sw();
        let mut inner = self.inner.lock();
        if !inner.inodes.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        if inner.inodes[&ino].attr.is_dir() {
            return Err(VfsError::IsDir);
        }
        let end = off + len;
        let first_full = off.div_ceil(BLOCK);
        let last_full = end / BLOCK;
        // Zero partial edges via the cache.
        let zero_range = |inner: &mut Inner, zoff: u64, zlen: u64| -> VfsResult<()> {
            if zlen == 0 {
                return Ok(());
            }
            let pg = zoff / BLOCK;
            let has_backing =
                inner.inodes[&ino].extents.get(pg).is_some() || inner.cache.contains(ino, pg);
            if !has_backing {
                return Ok(()); // already a hole
            }
            let mut base = vec![0u8; BLOCK as usize];
            self.read_page_cached(inner, ino, pg, 0, &mut base)?;
            let s = (zoff % BLOCK) as usize;
            inner.dirty_page(ino, pg, || base, |page| page[s..s + zlen as usize].fill(0));
            Ok(())
        };
        let head_end = end.min(first_full * BLOCK);
        if off < head_end {
            zero_range(&mut inner, off, head_end - off)?;
        }
        let tail_start = (last_full * BLOCK).max(off);
        if tail_start < end && tail_start >= head_end {
            zero_range(&mut inner, tail_start, end - tail_start)?;
        }
        if last_full > first_full {
            inner.drop_pages(ino, first_full..last_full);
            let mut freed: Vec<(u64, u64)> = Vec::new();
            {
                let x = inner.inodes.get_mut(&ino).expect("checked");
                for e in x.extents.overlapping(first_full, last_full - first_full) {
                    freed.push((e.value.0, e.len));
                }
                x.extents.remove(first_full, last_full - first_full);
                x.attr.blocks_bytes = x.extents.covered() * BLOCK;
            }
            for (s, l) in freed {
                inner.alloc.free(s, l);
            }
        }
        inner.dirty_meta.insert(ino);
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge_sw();
        let inner = self.inner.lock();
        let size = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?.attr.size;
        if off >= size {
            return Ok(None);
        }
        // Delayed-allocation pages count as data: consider both the extent
        // map and resident dirty pages.
        let dirty = inner.cache.dirty_page_list(ino);
        let is_data = |inner: &Inner, pg: u64| {
            inner.inodes[&ino].extents.get(pg).is_some() || dirty.binary_search(&pg).is_ok()
        };
        let start_pg = off / BLOCK;
        let max_pg = size.div_ceil(BLOCK);
        let mut pg = start_pg;
        while pg < max_pg && !is_data(&inner, pg) {
            // Skip holes quickly using the extent map where possible.
            let next_ext = inner.inodes[&ino].extents.next_mapped(pg).map(|e| e.start);
            let next_dirty = dirty.iter().copied().find(|&d| d >= pg);
            pg = match (next_ext, next_dirty) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return Ok(None),
            };
        }
        if pg >= max_pg {
            return Ok(None);
        }
        let data_start = (pg * BLOCK).max(off);
        if data_start >= size {
            return Ok(None);
        }
        let mut end_pg = pg;
        while end_pg < max_pg && is_data(&inner, end_pg) {
            end_pg += 1;
        }
        let data_end = (end_pg * BLOCK).min(size);
        Ok(Some((data_start, data_end - data_start)))
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        if !inner.inodes.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        self.writeback_inode(&mut inner, ino)?;
        self.commit_meta(&mut inner)
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        self.writeback_all(&mut inner)?;
        self.commit_meta(&mut inner)
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let inner = self.inner.lock();
        let total = (self.sb.capacity / BLOCK).saturating_sub(self.sb.first_data_block()) * BLOCK;
        Ok(StatFs {
            total_bytes: total,
            free_bytes: inner.alloc.free_blocks().saturating_sub(inner.delalloc) * BLOCK,
            inodes: inner.inodes.len() as u64,
            block_size: BLOCK as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{nvme_ssd, VirtualClock};

    fn fresh() -> XeFs {
        let dev = Device::with_profile(nvme_ssd(), 256 << 20, VirtualClock::new());
        XeFs::format(dev, XeOptions::default()).unwrap()
    }

    fn mk(fs: &XeFs, name: &str) -> FileAttr {
        fs.create(ROOT_INO, name, FileType::Regular, 0o644).unwrap()
    }

    #[test]
    fn write_read_through_cache() {
        let fs = fresh();
        let a = mk(&fs, "f");
        let data: Vec<u8> = (0..50_000).map(|i| (i % 253) as u8).collect();
        fs.write(a.ino, 7, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(a.ino, 7, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn delayed_allocation_until_fsync() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 64 * 4096]).unwrap();
        // No extents yet (all delalloc).
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 0);
        fs.fsync(a.ino).unwrap();
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 64 * 4096);
    }

    #[test]
    fn delayed_allocation_produces_contiguous_extents() {
        let fs = fresh();
        let a = mk(&fs, "f");
        // Many small appends, one allocation at fsync.
        for i in 0..256u64 {
            fs.write(a.ino, i * 1024, &[7u8; 1024]).unwrap();
        }
        fs.fsync(a.ino).unwrap();
        let inner = fs.inner.lock();
        let segs = inner.inodes[&a.ino].extents.segment_count();
        assert!(segs <= 2, "expected ~1 extent from delalloc, got {segs}");
    }

    #[test]
    fn data_durable_after_fsync_and_crash() {
        let dev = Device::with_profile(nvme_ssd(), 256 << 20, VirtualClock::new());
        let data: Vec<u8> = (0..20_000).map(|i| (i % 247) as u8).collect();
        {
            let fs = XeFs::format(dev.clone(), XeOptions::default()).unwrap();
            let a = mk(&fs, "f");
            fs.write(a.ino, 100, &data).unwrap();
            fs.fsync(a.ino).unwrap();
        }
        let dev2 = dev.clone();
        dev2.crash();
        let fs2 = XeFs::mount(dev2, XeOptions::default()).unwrap();
        let a = fs2.lookup(ROOT_INO, "f").unwrap();
        assert_eq!(a.size, 100 + data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        fs2.read(a.ino, 100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unsynced_data_lost_after_crash_but_metadata_consistent() {
        let dev = Device::with_profile(nvme_ssd(), 256 << 20, VirtualClock::new());
        {
            let fs = XeFs::format(dev.clone(), XeOptions::default()).unwrap();
            let a = mk(&fs, "synced");
            fs.write(a.ino, 0, b"safe").unwrap();
            fs.fsync(a.ino).unwrap();
            let b = mk(&fs, "unsynced");
            fs.write(b.ino, 0, b"gone").unwrap();
            // no fsync for b
        }
        dev.crash();
        let fs2 = XeFs::mount(dev, XeOptions::default()).unwrap();
        assert!(fs2.lookup(ROOT_INO, "synced").is_ok());
        // "unsynced" may or may not exist depending on the journal batch;
        // either way the fs mounts and the synced file is intact.
        let a = fs2.lookup(ROOT_INO, "synced").unwrap();
        let mut buf = [0u8; 4];
        fs2.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"safe");
    }

    #[test]
    fn cache_hit_rate_tracks_capacity() {
        let dev = Device::with_profile(nvme_ssd(), 512 << 20, VirtualClock::new());
        let opts = XeOptions {
            page_cache_bytes: 1 << 20, // 256 pages
            readahead_pages: 0,
            ..Default::default()
        };
        let fs = XeFs::format(dev, opts).unwrap();
        let a = mk(&fs, "f");
        // 1024-page file, cache holds 256.
        fs.write(a.ino, 0, &vec![1u8; 1024 * 4096]).unwrap();
        fs.fsync(a.ino).unwrap();
        let mut one = [0u8; 1];
        // Scan everything once to warm, then measure a second uniform scan.
        for pg in 0..1024u64 {
            fs.read(a.ino, pg * 4096, &mut one).unwrap();
        }
        let h0 = fs.cache_stats();
        for pg in 0..1024u64 {
            fs.read(a.ino, pg * 4096, &mut one).unwrap();
        }
        let h1 = fs.cache_stats();
        let hits = h1.hits - h0.hits;
        // LRU + sequential scan = ~0 hits (worst case); the point is the
        // cache is bounded, not magic.
        assert!(hits < 512);
        assert!(fs.inner.lock().cache.len() <= 256 + 1);
    }

    #[test]
    fn readahead_prefetches_sequential() {
        let dev = Device::with_profile(nvme_ssd(), 256 << 20, VirtualClock::new());
        let fs = XeFs::format(
            dev,
            XeOptions {
                readahead_pages: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 64 * 4096]).unwrap();
        fs.fsync(a.ino).unwrap();
        // Drop cache to start cold.
        fs.inner.lock().cache.invalidate(a.ino, ..);
        let mut buf = vec![0u8; 4096];
        fs.read(a.ino, 0, &mut buf).unwrap(); // miss, ra_next=1
        fs.read(a.ino, 4096, &mut buf).unwrap(); // sequential -> prefetch
        let hits_before = fs.cache_stats().hits;
        // Pages 2..10 were prefetched: all cache hits (the ongoing
        // readahead keeps fetching *further* pages, which is fine).
        for pg in 2..10u64 {
            fs.read(a.ino, pg * 4096, &mut buf).unwrap();
        }
        let hits_after = fs.cache_stats().hits;
        assert_eq!(hits_after - hits_before, 8, "readahead should absorb these");
    }

    #[test]
    fn sparse_and_punch() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 10 * 4096, &vec![3u8; 4096]).unwrap();
        fs.fsync(a.ino).unwrap();
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 4096);
        let (s, l) = fs.next_data(a.ino, 0).unwrap().unwrap();
        assert_eq!((s, l), (10 * 4096, 4096));
        fs.punch_hole(a.ino, 10 * 4096, 4096).unwrap();
        assert_eq!(fs.next_data(a.ino, 0).unwrap(), None);
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 0);
    }

    #[test]
    fn next_data_sees_delalloc_pages() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 5 * 4096, &vec![1u8; 4096]).unwrap();
        // Not fsync'd: page is dirty in cache, no extent.
        let (s, l) = fs.next_data(a.ino, 0).unwrap().unwrap();
        assert_eq!((s, l), (5 * 4096, 4096));
    }

    #[test]
    fn truncate_shrink_extend_zeros() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![9u8; 8192]).unwrap();
        fs.fsync(a.ino).unwrap();
        fs.setattr(a.ino, &SetAttr::truncate(1000)).unwrap();
        fs.setattr(a.ino, &SetAttr::truncate(8192)).unwrap();
        let mut buf = vec![0u8; 8192];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..1000].iter().all(|&b| b == 9));
        assert!(buf[1000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn rename_and_replace_frees_target() {
        let fs = fresh();
        let a = mk(&fs, "a");
        fs.write(a.ino, 0, &vec![1u8; 40960]).unwrap();
        fs.fsync(a.ino).unwrap();
        let b = mk(&fs, "b");
        fs.write(b.ino, 0, &vec![2u8; 40960]).unwrap();
        fs.fsync(b.ino).unwrap();
        let free_before = fs.statfs().unwrap().free_bytes;
        fs.rename(ROOT_INO, "a", ROOT_INO, "b").unwrap();
        assert!(fs.statfs().unwrap().free_bytes >= free_before + 40960);
        let got = fs.lookup(ROOT_INO, "b").unwrap();
        assert_eq!(got.ino, a.ino);
    }

    #[test]
    fn journal_compaction_survives_many_commits() {
        let dev = Device::with_profile(nvme_ssd(), 256 << 20, VirtualClock::new());
        let fs = XeFs::format(
            dev.clone(),
            XeOptions {
                journal_blocks: 8, // force frequent checkpoints
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200 {
            let f = mk(&fs, &format!("f{i}"));
            fs.write(f.ino, 0, &[i as u8; 128]).unwrap();
            fs.fsync(f.ino).unwrap();
        }
        drop(fs);
        let fs2 = XeFs::mount(dev, XeOptions::default()).unwrap();
        for i in 0..200 {
            let f = fs2.lookup(ROOT_INO, &format!("f{i}")).unwrap();
            let mut b = [0u8; 1];
            fs2.read(f.ino, 0, &mut b).unwrap();
            assert_eq!(b[0], i as u8);
        }
    }

    #[test]
    fn mount_rebuilds_allocator() {
        let dev = Device::with_profile(nvme_ssd(), 64 << 20, VirtualClock::new());
        let free;
        {
            let fs = XeFs::format(dev.clone(), XeOptions::default()).unwrap();
            let a = mk(&fs, "f");
            fs.write(a.ino, 0, &vec![1u8; 1 << 20]).unwrap();
            fs.sync().unwrap();
            free = fs.statfs().unwrap().free_bytes;
        }
        let fs2 = XeFs::mount(dev, XeOptions::default()).unwrap();
        assert_eq!(fs2.statfs().unwrap().free_bytes, free);
        // New allocations must not collide with recovered extents.
        let b = fs2.create(ROOT_INO, "g", FileType::Regular, 0o644).unwrap();
        fs2.write(b.ino, 0, &vec![2u8; 1 << 20]).unwrap();
        fs2.sync().unwrap();
        let a = fs2.lookup(ROOT_INO, "f").unwrap();
        let mut buf = vec![0u8; 1 << 20];
        fs2.read(a.ino, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 1),
            "old file corrupted by new allocation"
        );
    }

    #[test]
    fn nospace_on_tiny_device() {
        let dev = Device::with_profile(nvme_ssd(), 2 << 20, VirtualClock::new());
        let fs = XeFs::format(
            dev,
            XeOptions {
                journal_blocks: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 4 << 20]).unwrap();
        assert_eq!(fs.fsync(a.ino).unwrap_err(), VfsError::NoSpace);
    }

    #[test]
    fn statfs_reserves_only_delayed_allocations() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 8 * 4096]).unwrap();
        fs.fsync(a.ino).unwrap();
        let free = fs.statfs().unwrap().free_bytes;
        // Overwriting mapped pages needs no new block.
        fs.write(a.ino, 0, &vec![2u8; 8 * 4096]).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free);
        // Appended pages do, from the write on; writeback keeps the count.
        fs.write(a.ino, 8 * 4096, &vec![3u8; 5 * 4096]).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free - 5 * 4096);
        fs.fsync(a.ino).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free - 5 * 4096);
        // Dropping unwritten pages 13..17 releases their reservation.
        fs.write(a.ino, 13 * 4096, &vec![4u8; 4 * 4096]).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free - 9 * 4096);
        fs.punch_hole(a.ino, 13 * 4096, 4096).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free - 8 * 4096);
        fs.setattr(a.ino, &SetAttr::truncate(15 * 4096)).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free - 6 * 4096);
        fs.unlink(ROOT_INO, "f").unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free + 8 * 4096);
    }

    /// ROADMAP item 5: bookkeeping is bounded by live state, not by the
    /// number of files that ever lived.
    #[test]
    fn dead_files_leave_no_cache_or_readahead_state() {
        let fs = fresh();
        let keep = mk(&fs, "keep");
        fs.write(keep.ino, 0, &[9u8; 2 * 4096]).unwrap();
        fs.fsync(keep.ino).unwrap();
        fs.write(keep.ino, 2 * 4096, &[9u8; 4096]).unwrap();
        let mut buf = vec![0u8; 2 * 4096];
        fs.read(keep.ino, 0, &mut buf).unwrap();
        for i in 0..10_000u32 {
            let f = mk(&fs, "f");
            fs.write(f.ino, 0, &[i as u8; 6000]).unwrap();
            fs.read(f.ino, 0, &mut buf).unwrap();
            fs.fsync(f.ino).unwrap();
            // Unlinked with an unwritten page too.
            fs.write(f.ino, 3 * 4096, &[1u8; 100]).unwrap();
            fs.unlink(ROOT_INO, "f").unwrap();
        }
        let inner = fs.inner.lock();
        assert_eq!(inner.ra_next.keys().collect::<Vec<_>>(), [&keep.ino]);
        assert_eq!(inner.cache.resident_inodes(), 1);
        assert_eq!(inner.cache.len(), 3);
        assert_eq!(inner.cache.dirty_inodes(), [keep.ino]);
        assert_eq!(inner.cache.total_dirty(), 1);
        assert_eq!(inner.delalloc, 1);
        assert_eq!(inner.inodes.len(), 2);
    }

    #[test]
    fn write_amplification_absent_for_overwrites() {
        // Overwriting the same mapped block must write in place, not leak.
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 4096]).unwrap();
        fs.fsync(a.ino).unwrap();
        let free = fs.statfs().unwrap().free_bytes;
        for _ in 0..50 {
            fs.write(a.ino, 0, &vec![2u8; 4096]).unwrap();
            fs.fsync(a.ino).unwrap();
        }
        assert_eq!(fs.statfs().unwrap().free_bytes, free);
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 4096);
    }
}
