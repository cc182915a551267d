//! The `E4Fs` file system: block groups, write-through metadata, ordered
//! journaling.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;
use simdev::Device;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, Linear, PageCache, RangeMap, SetAttr,
    StatFs, VfsError, VfsResult, ROOT_INO,
};

use crate::bitmap;
use crate::jbd2::Jbd2;
use crate::layout::{
    decode_dentries, decode_extent_block, encode_dentries, encode_extent_block, DiskInode,
    Superblock, BLOCK, INLINE_EXTENTS, MAGIC,
};
use crate::metastore::MetaStore;

/// Tunables for an [`E4Fs`] instance.
#[derive(Debug, Clone)]
pub struct E4Options {
    /// Journal size in blocks (header + ring).
    pub journal_blocks: u64,
    /// Blocks per group.
    pub blocks_per_group: u64,
    /// Inodes per group.
    pub inodes_per_group: u64,
    /// DRAM page-cache capacity in bytes.
    pub page_cache_bytes: u64,
    /// Pages prefetched on sequential reads (HDDs like big readahead).
    pub readahead_pages: u64,
    /// Software-path cost per VFS op (virtual ns).
    pub software_op_ns: u64,
    /// Cost of serving one page from DRAM (virtual ns).
    pub dram_copy_ns: u64,
    /// Dirty-page count that triggers writeback + commit.
    pub writeback_threshold: usize,
}

impl Default for E4Options {
    fn default() -> Self {
        E4Options {
            journal_blocks: 1024,
            blocks_per_group: 8192,
            inodes_per_group: 512,
            page_cache_bytes: 64 << 20,
            readahead_pages: 16,
            software_op_ns: 800,
            dram_copy_ns: 300,
            writeback_threshold: 16 * 1024,
        }
    }
}

struct E4Inode {
    attr: FileAttr,
    /// File page → device block.
    extents: RangeMap<Linear>,
    dentries: BTreeMap<String, (InodeNo, bool)>,
    /// Extent-overflow metadata blocks currently owned.
    overflow_blocks: Vec<u64>,
}

struct Inner {
    meta: MetaStore,
    journal: Jbd2,
    inodes: HashMap<InodeNo, E4Inode>,
    cache: PageCache,
    /// Free data blocks per group (derived; bitmap is authoritative).
    group_free: Vec<u64>,
    ra_next: HashMap<InodeNo, u64>,
    /// Inodes whose on-disk record must be re-encoded at the next commit
    /// (write-path metadata updates are deferred; namespace operations
    /// store through immediately).
    dirty_inodes: std::collections::BTreeSet<InodeNo>,
}

/// An Ext4-like journaling file system over one block [`Device`].
///
/// See the crate docs for the design summary. Durability contract: ordered
/// metadata journaling — `fsync`/`sync` make data and metadata crash-safe;
/// committed metadata never references unwritten data.
pub struct E4Fs {
    dev: Device,
    sb: Superblock,
    opts: E4Options,
    inner: Mutex<Inner>,
}

impl E4Fs {
    /// Formats `dev` (mkfs) and mounts the empty file system.
    pub fn format(dev: Device, opts: E4Options) -> VfsResult<Self> {
        let sb = Superblock {
            magic: MAGIC,
            capacity: dev.capacity(),
            journal_blocks: opts.journal_blocks,
            blocks_per_group: opts.blocks_per_group,
            inodes_per_group: opts.inodes_per_group,
        };
        if sb.group_count() == 0 {
            return Err(VfsError::InvalidArgument(
                "device too small for one block group".into(),
            ));
        }
        dev.write(0, &sb.encode())?;
        let journal = Jbd2::format(&dev, 1, sb.journal_blocks)?;
        // mkfs writes bitmaps and inode tables directly (no journaling).
        let meta_bits = sb.group_meta_blocks();
        for g in 0..sb.group_count() {
            let mut bbm = vec![0u8; BLOCK as usize];
            for b in 0..meta_bits {
                bitmap::set_bit(&mut bbm, b);
            }
            // Bits beyond the group size are marked used so they are never
            // allocated.
            for b in sb.blocks_per_group..(BLOCK * 8) {
                bitmap::set_bit(&mut bbm, b);
            }
            dev.write(sb.block_bitmap_block(g) * BLOCK, &bbm)?;
            dev.write(sb.inode_bitmap_block(g) * BLOCK, &vec![0u8; BLOCK as usize])?;
            let zeros = vec![0u8; BLOCK as usize];
            for t in 0..sb.itable_blocks() {
                dev.write((sb.itable_start(g) + t) * BLOCK, &zeros)?;
            }
        }
        dev.flush();
        let group_free = vec![sb.blocks_per_group - meta_bits; sb.group_count() as usize];
        let mut inner = Inner {
            meta: MetaStore::new(),
            journal,
            inodes: HashMap::new(),
            cache: PageCache::new(opts.page_cache_bytes, BLOCK as usize),
            group_free,
            ra_next: HashMap::new(),
            dirty_inodes: std::collections::BTreeSet::new(),
        };
        let mut root_attr = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
        root_attr.nlink = 2;
        inner.inodes.insert(
            ROOT_INO,
            E4Inode {
                attr: root_attr,
                extents: RangeMap::new(),
                dentries: BTreeMap::new(),
                overflow_blocks: Vec::new(),
            },
        );
        let fs = E4Fs {
            dev,
            sb,
            opts,
            inner: Mutex::new(inner),
        };
        // Persist the root inode through the journal.
        {
            let mut guard = fs.inner.lock();
            fs.store_inode(&mut guard, ROOT_INO)?;
            fs.mark_ino_bitmap(&mut guard, ROOT_INO, true)?;
            let txn = guard.meta.take_dirty();
            guard.journal.commit(&fs.dev, &txn)?;
        }
        Ok(fs)
    }

    /// Mounts an existing file system, running journal recovery first.
    pub fn mount(dev: Device, opts: E4Options) -> VfsResult<Self> {
        let mut raw = vec![0u8; Superblock::SIZE];
        dev.read(0, &mut raw)?;
        let sb = Superblock::decode(&raw)?;
        let journal = Jbd2::recover(&dev, 1, sb.journal_blocks)?;
        let mut meta = MetaStore::new();
        let mut inodes: HashMap<InodeNo, E4Inode> = HashMap::new();
        let mut group_free = Vec::with_capacity(sb.group_count() as usize);
        // Pass 1: inodes + extents from the inode tables.
        for g in 0..sb.group_count() {
            let ibm = meta.load(&dev, sb.inode_bitmap_block(g))?.to_vec();
            for idx in 0..sb.inodes_per_group {
                if !bitmap::get_bit(&ibm, idx) {
                    continue;
                }
                let ino = g * sb.inodes_per_group + idx + 1;
                let (blk, off) = sb.inode_block(ino);
                let img = meta.load(&dev, blk)?;
                let di = DiskInode::decode(&img[off..off + 256])?;
                if !di.valid {
                    continue;
                }
                let mut extents = RangeMap::new();
                let mut overflow_blocks = Vec::new();
                for &(fp, db, len) in &di.inline {
                    extents.insert(fp, u64::from(len), Linear(db));
                }
                let mut ob = di.overflow;
                while ob != 0 {
                    overflow_blocks.push(ob);
                    let img = meta.load(&dev, ob)?.to_vec();
                    let (exts, next) = decode_extent_block(&img)?;
                    for (fp, db, len) in exts {
                        extents.insert(fp, u64::from(len), Linear(db));
                    }
                    ob = next;
                }
                inodes.insert(
                    ino,
                    E4Inode {
                        attr: di.to_attr(ino),
                        extents,
                        dentries: BTreeMap::new(),
                        overflow_blocks,
                    },
                );
            }
            let bbm = meta.load(&dev, sb.block_bitmap_block(g))?;
            group_free.push(bitmap::count_zeros(bbm, sb.blocks_per_group));
        }
        // Pass 2: directory contents from journaled dir data blocks.
        let dir_inos: Vec<InodeNo> = inodes
            .iter()
            .filter(|(_, i)| i.attr.is_dir())
            .map(|(&k, _)| k)
            .collect();
        for ino in dir_inos {
            let (size, pages) = {
                let d = &inodes[&ino];
                (d.attr.size, d.extents.iter().collect::<Vec<_>>())
            };
            let mut blob = Vec::with_capacity(size as usize);
            'outer: for e in pages {
                for i in 0..e.len {
                    let img = meta.load(&dev, e.value.0 + i)?;
                    let take = (BLOCK as usize).min(size as usize - blob.len());
                    blob.extend_from_slice(&img[..take]);
                    if blob.len() >= size as usize {
                        break 'outer;
                    }
                }
            }
            let dentries = if blob.is_empty() {
                Vec::new()
            } else {
                decode_dentries(&blob)?
            };
            let d = inodes.get_mut(&ino).expect("present");
            d.dentries = dentries.into_iter().map(|(n, i, x)| (n, (i, x))).collect();
        }
        if !inodes.contains_key(&ROOT_INO) {
            return Err(VfsError::Io("e4fs has no root inode".into()));
        }
        Ok(E4Fs {
            dev,
            sb,
            inner: Mutex::new(Inner {
                meta,
                journal,
                inodes,
                cache: PageCache::new(opts.page_cache_bytes, BLOCK as usize),
                group_free,
                ra_next: HashMap::new(),
                dirty_inodes: std::collections::BTreeSet::new(),
            }),
            opts,
        })
    }

    /// The device this file system runs on.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Page-cache statistics.
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

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `n` data blocks near `goal`, returning runs.
    fn alloc_blocks(&self, inner: &mut Inner, goal: u64, n: u64) -> VfsResult<Vec<(u64, u64)>> {
        let total_free: u64 = inner.group_free.iter().sum();
        if total_free < n {
            return Err(VfsError::NoSpace);
        }
        let start_group = self.sb.group_of_block(goal).unwrap_or(0);
        let n_groups = self.sb.group_count();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut left = n;
        for gi in 0..n_groups {
            let g = (start_group + gi) % n_groups;
            if inner.group_free[g as usize] == 0 {
                continue;
            }
            let bbm_block = self.sb.block_bitmap_block(g);
            let group_start = self.sb.group_start(g);
            // Start the scan at the goal within the home group.
            let mut from = if g == start_group && goal > group_start {
                (goal - group_start).min(self.sb.blocks_per_group - 1)
            } else {
                0
            };
            while left > 0 && inner.group_free[g as usize] > 0 {
                let bbm = inner.meta.load(&self.dev, bbm_block)?;
                let Some((bit, len)) =
                    bitmap::find_zero_run(bbm, from, self.sb.blocks_per_group, left)
                else {
                    break;
                };
                inner.meta.update(&self.dev, bbm_block, |b| {
                    for i in bit..bit + len {
                        bitmap::set_bit(b, i);
                    }
                })?;
                inner.group_free[g as usize] -= len;
                left -= len;
                let abs = group_start + bit;
                match runs.last_mut() {
                    Some((s, l)) if *s + *l == abs => *l += len,
                    _ => runs.push((abs, len)),
                }
                from = bit + len;
                if from >= self.sb.blocks_per_group {
                    from = 0;
                }
            }
            if left == 0 {
                break;
            }
        }
        debug_assert_eq!(left, 0);
        Ok(runs)
    }

    /// Frees data blocks `[start, start+len)`.
    fn free_blocks(&self, inner: &mut Inner, start: u64, len: u64) -> VfsResult<()> {
        let mut b = start;
        let end = start + len;
        while b < end {
            let g = self
                .sb
                .group_of_block(b)
                .ok_or_else(|| VfsError::Io("freeing metadata region".into()))?;
            let group_start = self.sb.group_start(g);
            let group_end = group_start + self.sb.blocks_per_group;
            let chunk_end = end.min(group_end);
            let bbm_block = self.sb.block_bitmap_block(g);
            inner.meta.update(&self.dev, bbm_block, |bm| {
                for i in b..chunk_end {
                    bitmap::clear_bit(bm, i - group_start);
                }
            })?;
            inner.group_free[g as usize] += chunk_end - b;
            b = chunk_end;
        }
        Ok(())
    }

    fn alloc_ino(&self, inner: &mut Inner, parent: InodeNo) -> VfsResult<InodeNo> {
        // Same-group-as-parent affinity, then first free anywhere.
        let (pg, _) = self.sb.inode_location(parent);
        let n_groups = self.sb.group_count();
        for gi in 0..n_groups {
            let g = (pg + gi) % n_groups;
            let ibm_block = self.sb.inode_bitmap_block(g);
            let ibm = inner.meta.load(&self.dev, ibm_block)?;
            if let Some(idx) = bitmap::find_zero(ibm, 0, self.sb.inodes_per_group) {
                inner
                    .meta
                    .update(&self.dev, ibm_block, |b| bitmap::set_bit(b, idx))?;
                return Ok(g * self.sb.inodes_per_group + idx + 1);
            }
        }
        Err(VfsError::NoSpace)
    }

    fn mark_ino_bitmap(&self, inner: &mut Inner, ino: InodeNo, used: bool) -> VfsResult<()> {
        let (g, idx) = self.sb.inode_location(ino);
        let ibm_block = self.sb.inode_bitmap_block(g);
        inner.meta.update(&self.dev, ibm_block, |b| {
            if used {
                bitmap::set_bit(b, idx);
            } else {
                bitmap::clear_bit(b, idx);
            }
        })
    }

    // ------------------------------------------------------------------
    // Metadata write-through
    // ------------------------------------------------------------------

    /// Re-encodes an inode into its inode-table block (and overflow extent
    /// blocks), marking everything dirty for the next transaction.
    fn store_inode(&self, inner: &mut Inner, ino: InodeNo) -> VfsResult<()> {
        let (all_exts, attr, old_overflow): (Vec<(u64, u64, u32)>, FileAttr, Vec<u64>) = {
            let x = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
            (
                x.extents
                    .iter()
                    .map(|e| (e.start, e.value.0, e.len as u32))
                    .collect(),
                x.attr,
                x.overflow_blocks.clone(),
            )
        };
        let inline: Vec<(u64, u64, u32)> = all_exts.iter().take(INLINE_EXTENTS).copied().collect();
        let spill: Vec<(u64, u64, u32)> = all_exts.iter().skip(INLINE_EXTENTS).copied().collect();
        // Allocate / free overflow blocks to match the spill size.
        let per = crate::layout::EXTENTS_PER_BLOCK;
        let need = spill.len().div_ceil(per);
        let mut overflow = old_overflow.clone();
        while overflow.len() < need {
            // Extent-overflow blocks live at the tail of the device, away
            // from the data-allocation frontier, so growing a fragmented
            // file does not punch holes into its own data layout.
            let tail_goal = self.sb.data_start(self.sb.group_count().saturating_sub(1));
            let run = self.alloc_blocks(inner, tail_goal, 1)?;
            overflow.push(run[0].0);
        }
        while overflow.len() > need {
            let b = overflow.pop().expect("non-empty");
            inner.meta.forget(b);
            self.free_blocks(inner, b, 1)?;
        }
        for (i, chunk) in spill.chunks(per).enumerate() {
            let next = overflow.get(i + 1).copied().unwrap_or(0);
            inner
                .meta
                .put(overflow[i], encode_extent_block(chunk, next));
        }
        let di = DiskInode {
            valid: true,
            is_dir: attr.is_dir(),
            mode: attr.mode,
            uid: attr.uid,
            gid: attr.gid,
            size: attr.size,
            blocks_bytes: attr.blocks_bytes,
            atime_ns: attr.atime_ns,
            mtime_ns: attr.mtime_ns,
            ctime_ns: attr.ctime_ns,
            nlink: attr.nlink,
            inline,
            overflow: overflow.first().copied().unwrap_or(0),
        };
        let (blk, off) = self.sb.inode_block(ino);
        let enc = di.encode();
        inner
            .meta
            .update(&self.dev, blk, |b| b[off..off + 256].copy_from_slice(&enc))?;
        inner.inodes.get_mut(&ino).expect("present").overflow_blocks = overflow;
        Ok(())
    }

    /// Clears an inode's on-disk record and bitmap bit.
    fn erase_inode(&self, inner: &mut Inner, ino: InodeNo) -> VfsResult<()> {
        let (blk, off) = self.sb.inode_block(ino);
        let enc = DiskInode::empty().encode();
        inner
            .meta
            .update(&self.dev, blk, |b| b[off..off + 256].copy_from_slice(&enc))?;
        self.mark_ino_bitmap(inner, ino, false)
    }

    /// Serializes a directory's entries into its (journaled) data blocks.
    fn store_dir(&self, inner: &mut Inner, ino: InodeNo) -> VfsResult<()> {
        let dentries: Vec<(String, u64, bool)> = {
            let d = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
            d.dentries
                .iter()
                .map(|(n, &(i, x))| (n.clone(), i, x))
                .collect()
        };
        let blob = encode_dentries(&dentries);
        let need_pages = (blob.len() as u64).div_ceil(BLOCK).max(1);
        // Grow or shrink the directory's block allocation.
        let have_pages = inner.inodes[&ino].extents.end();
        if need_pages > have_pages {
            let goal = self.sb.data_start(self.sb.inode_location(ino).0);
            let runs = self.alloc_blocks(inner, goal, need_pages - have_pages)?;
            let mut fp = have_pages;
            let d = inner.inodes.get_mut(&ino).expect("present");
            for (s, l) in runs {
                d.extents.insert(fp, l, Linear(s));
                fp += l;
            }
        } else if need_pages < have_pages {
            let mut freed: Vec<(u64, u64)> = Vec::new();
            {
                let d = inner.inodes.get_mut(&ino).expect("present");
                for e in d.extents.overlapping(need_pages, have_pages - need_pages) {
                    freed.push((e.value.0, e.len));
                }
                d.extents.remove(need_pages, have_pages - need_pages);
            }
            for (s, l) in freed {
                for b in s..s + l {
                    inner.meta.forget(b);
                }
                self.free_blocks(inner, s, l)?;
            }
        }
        // Write the serialized entries into the (metadata) dir blocks.
        let extents: Vec<(u64, u64, u64)> = inner.inodes[&ino]
            .extents
            .iter()
            .map(|e| (e.start, e.value.0, e.len))
            .collect();
        for (fp, db, len) in extents {
            for i in 0..len {
                let page = fp + i;
                let s = (page * BLOCK) as usize;
                if s >= blob.len() {
                    break;
                }
                let e = (s + BLOCK as usize).min(blob.len());
                let mut img = vec![0u8; BLOCK as usize];
                img[..e - s].copy_from_slice(&blob[s..e]);
                inner.meta.put(db + i, img);
            }
        }
        {
            let d = inner.inodes.get_mut(&ino).expect("present");
            d.attr.size = blob.len() as u64;
            d.attr.blocks_bytes = d.extents.covered() * BLOCK;
            d.attr.mtime_ns = self.now();
        }
        self.store_inode(inner, ino)
    }

    // ------------------------------------------------------------------
    // Ordered commit
    // ------------------------------------------------------------------

    /// Writes back all dirty file data (ordered mode), then commits the
    /// metadata transaction.
    ///
    /// Dirty pages are submitted in **device-block order** with adjacent
    /// blocks merged into single commands — the elevator pass the block
    /// layer performs for seek-bound devices. Without it, random file
    /// offsets would turn writeback into one seek per page.
    fn commit_all(&self, inner: &mut Inner) -> VfsResult<()> {
        // Re-encode inodes whose write-path metadata changes were deferred.
        let pending: Vec<InodeNo> = std::mem::take(&mut inner.dirty_inodes)
            .into_iter()
            .collect();
        for ino in pending {
            if inner.inodes.contains_key(&ino) {
                self.store_inode(inner, ino)?;
            }
        }
        // Every dirty page of every inode, at its device block.
        let dirty = inner.cache.dirty_inodes();
        let mut blocks = Vec::new();
        for &ino in &dirty {
            let Some(x) = inner.inodes.get(&ino) else {
                continue;
            };
            for pg in inner.cache.dirty_page_list(ino) {
                // Every written page was allocated in write(); a missing
                // mapping means a truncate raced — drop it.
                if let Some(Linear(db)) = x.extents.get(pg) {
                    blocks.push((db, ino, pg));
                }
            }
        }
        let wrote = !blocks.is_empty();
        let written = inner.cache.write_back(&self.dev, blocks);
        // Clean even after a failed write: the failure goes to this caller.
        for ino in dirty {
            inner.cache.mark_clean(ino);
        }
        written?;
        // Ordered mode: the data is durable before the commit that maps it
        // (jbd2's preflush on the commit block). Without this barrier a
        // commit frame can land while the data writes before it are lost,
        // and the committed extents expose stale blocks.
        if wrote {
            self.dev.flush();
        }
        let txn = inner.meta.take_dirty();
        inner.journal.commit(&self.dev, &txn)
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
}

impl FileSystem for E4Fs {
    fn fs_name(&self) -> &str {
        "e4fs"
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
                inner.cache.invalidate(ino, first_dead..);
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
                    self.free_blocks(&mut inner, s, l)?;
                }
                if new_size % BLOCK != 0 {
                    let pg = new_size / BLOCK;
                    let has_backing = inner.inodes[&ino].extents.get(pg).is_some()
                        || inner.cache.contains(ino, pg);
                    if has_backing {
                        let mut base = vec![0u8; BLOCK as usize];
                        self.read_page_cached(&mut inner, ino, pg, 0, &mut base)?;
                        let cut = (new_size % BLOCK) as usize;
                        inner
                            .cache
                            .update_dirty(ino, pg, || base, |p| p[cut..].fill(0));
                    }
                }
            }
            let x = inner.inodes.get_mut(&ino).expect("checked");
            x.attr.size = new_size;
            x.attr.mtime_ns = now;
            x.attr.blocks_bytes = x.extents.covered() * BLOCK;
        }
        {
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
        }
        self.store_inode(&mut inner, ino)?;
        Ok(inner.inodes[&ino].attr)
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
        let ino = self.alloc_ino(&mut inner, parent)?;
        let mut attr = FileAttr::new(ino, kind, mode, now);
        if kind == FileType::Directory {
            attr.nlink = 2;
        }
        inner.inodes.insert(
            ino,
            E4Inode {
                attr,
                extents: RangeMap::new(),
                dentries: BTreeMap::new(),
                overflow_blocks: Vec::new(),
            },
        );
        self.store_inode(&mut inner, ino)?;
        inner
            .inodes
            .get_mut(&parent)
            .expect("checked")
            .dentries
            .insert(name.to_string(), (ino, kind == FileType::Directory));
        self.store_dir(&mut inner, parent)?;
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
        self.store_dir(&mut inner, parent)?;
        inner.cache.invalidate(child, ..);
        inner.ra_next.remove(&child);
        inner.dirty_inodes.remove(&child);
        if let Some(x) = inner.inodes.remove(&child) {
            for e in x.extents.iter() {
                // Directory data blocks live in the metastore too.
                if x.attr.is_dir() {
                    for b in e.value.0..e.value.0 + e.len {
                        inner.meta.forget(b);
                    }
                }
                self.free_blocks(&mut inner, e.value.0, e.len)?;
            }
            for b in x.overflow_blocks {
                inner.meta.forget(b);
                self.free_blocks(&mut inner, b, 1)?;
            }
        }
        self.erase_inode(&mut inner, child)?;
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
                inner.cache.invalidate(existing, ..);
                inner.ra_next.remove(&existing);
                if let Some(x) = inner.inodes.remove(&existing) {
                    for e in x.extents.iter() {
                        self.free_blocks(&mut inner, e.value.0, e.len)?;
                    }
                    for b in x.overflow_blocks {
                        inner.meta.forget(b);
                        self.free_blocks(&mut inner, b, 1)?;
                    }
                }
                self.erase_inode(&mut inner, existing)?;
            }
        }
        self.store_dir(&mut inner, parent)?;
        if new_parent != parent {
            self.store_dir(&mut inner, new_parent)?;
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
        let first_pg = off / BLOCK;
        let last_pg = (off + n as u64 - 1) / BLOCK;
        if inner.ra_next.get(&ino).copied() == Some(first_pg) && self.opts.readahead_pages > 0 {
            for pg in last_pg + 1..last_pg + 1 + self.opts.readahead_pages {
                if inner.cache.contains(ino, pg) {
                    continue;
                }
                if let Some(Linear(db)) = inner.inodes[&ino].extents.get(pg) {
                    let mut page = vec![0u8; BLOCK as usize];
                    self.dev.read(db * BLOCK, &mut page)?;
                    inner.cache.insert_clean(ino, pg, page);
                }
            }
        }
        inner.ra_next.insert(ino, last_pg + 1);
        if let Some(x) = inner.inodes.get_mut(&ino) {
            x.attr.atime_ns = now;
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
        // Immediate allocation: map every unmapped page now, goal-directed
        // at the end of the file's current last extent. Remember which
        // pages were holes: their RMW base is zeros, never the (possibly
        // recycled) device block content.
        let was_hole: std::collections::BTreeSet<u64> = (first_pg..=last_pg)
            .filter(|&pg| inner.inodes[&ino].extents.get(pg).is_none())
            .collect();
        {
            let mut unmapped: Vec<u64> = Vec::new();
            for pg in first_pg..=last_pg {
                if inner.inodes[&ino].extents.get(pg).is_none() {
                    unmapped.push(pg);
                }
            }
            if !unmapped.is_empty() {
                let goal = inner.inodes[&ino]
                    .extents
                    .iter()
                    .last()
                    .map(|e| e.value.0 + e.len)
                    .unwrap_or_else(|| self.sb.data_start(self.sb.inode_location(ino).0));
                // Allocate runs for consecutive unmapped stretches.
                let mut i = 0usize;
                while i < unmapped.len() {
                    let run_start = unmapped[i];
                    let mut run_len = 1u64;
                    while i + (run_len as usize) < unmapped.len()
                        && unmapped[i + run_len as usize] == run_start + run_len
                    {
                        run_len += 1;
                    }
                    let runs = self.alloc_blocks(&mut inner, goal, run_len)?;
                    let mut fp = run_start;
                    for (s, l) in runs {
                        inner.inodes.get_mut(&ino).expect("checked").extents.insert(
                            fp,
                            l,
                            Linear(s),
                        );
                        fp += l;
                    }
                    i += run_len as usize;
                }
            }
        }
        for pg in first_pg..=last_pg {
            let pg_start = pg * BLOCK;
            let w_start = off.max(pg_start);
            let w_end = (off + len).min(pg_start + BLOCK);
            let partial = w_start != pg_start || w_end != pg_start + BLOCK;
            // Hole pages start from zeros; resident pages skip `init`.
            let mut base = None;
            if partial && !was_hole.contains(&pg) && !inner.cache.contains(ino, pg) {
                let mut b = vec![0u8; BLOCK as usize];
                self.read_page_cached(&mut inner, ino, pg, 0, &mut b)?;
                base = Some(b);
            }
            inner.cache.update_dirty(
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
            x.attr.blocks_bytes = x.extents.covered() * BLOCK;
        }
        inner.dirty_inodes.insert(ino);
        if inner.cache.total_dirty() > self.opts.writeback_threshold {
            self.commit_all(&mut inner)?;
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
        let zero_range = |inner: &mut Inner, zoff: u64, zlen: u64| -> VfsResult<()> {
            if zlen == 0 {
                return Ok(());
            }
            let pg = zoff / BLOCK;
            let has_backing =
                inner.inodes[&ino].extents.get(pg).is_some() || inner.cache.contains(ino, pg);
            if !has_backing {
                return Ok(());
            }
            let mut base = vec![0u8; BLOCK as usize];
            self.read_page_cached(inner, ino, pg, 0, &mut base)?;
            let s = (zoff % BLOCK) as usize;
            inner
                .cache
                .update_dirty(ino, pg, || base, |p| p[s..s + zlen as usize].fill(0));
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
            inner.cache.invalidate(ino, first_full..last_full);
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
                self.free_blocks(&mut inner, s, l)?;
            }
        }
        self.store_inode(&mut inner, ino)?;
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge_sw();
        let inner = self.inner.lock();
        let x = inner.inodes.get(&ino).ok_or(VfsError::NotFound)?;
        let size = x.attr.size;
        if off >= size {
            return Ok(None);
        }
        // Allocation is immediate, so the extent map is complete.
        match x.extents.next_mapped(off / BLOCK) {
            Some(e) => {
                let start = (e.start * BLOCK).max(off);
                let end = ((e.start + e.len) * BLOCK).min(size);
                if start >= size {
                    return Ok(None);
                }
                Ok(Some((start, end - start)))
            }
            None => Ok(None),
        }
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        if !inner.inodes.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        // JBD2 has one running transaction: fsync of any file commits it
        // (with ordered data writeback of everything in it).
        self.commit_all(&mut inner)
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        self.commit_all(&mut inner)
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let inner = self.inner.lock();
        let data_per_group = self.sb.data_blocks_per_group();
        Ok(StatFs {
            total_bytes: self.sb.group_count() * data_per_group * BLOCK,
            free_bytes: inner.group_free.iter().sum::<u64>() * BLOCK,
            inodes: inner.inodes.len() as u64,
            block_size: BLOCK as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{hdd, VirtualClock};

    fn small_opts() -> E4Options {
        E4Options {
            journal_blocks: 256,
            blocks_per_group: 2048,
            inodes_per_group: 128,
            ..Default::default()
        }
    }

    fn fresh() -> E4Fs {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        E4Fs::format(dev, small_opts()).unwrap()
    }

    fn mk(fs: &E4Fs, name: &str) -> FileAttr {
        fs.create(ROOT_INO, name, FileType::Regular, 0o644).unwrap()
    }

    #[test]
    fn create_write_read() {
        let fs = fresh();
        let a = mk(&fs, "f");
        let data: Vec<u8> = (0..30_000).map(|i| (i % 251) as u8).collect();
        fs.write(a.ino, 11, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(a.ino, 11, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn allocation_is_immediate() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 8 * 4096]).unwrap();
        // Unlike xefs, blocks are mapped before any fsync.
        assert_eq!(fs.getattr(a.ino).unwrap().blocks_bytes, 8 * 4096);
    }

    #[test]
    fn goal_allocation_keeps_file_contiguous() {
        let fs = fresh();
        let a = mk(&fs, "f");
        for i in 0..64u64 {
            fs.write(a.ino, i * 4096, &vec![1u8; 4096]).unwrap();
        }
        let inner = fs.inner.lock();
        assert!(
            inner.inodes[&a.ino].extents.segment_count() <= 2,
            "sequential appends should stay contiguous"
        );
    }

    #[test]
    fn durable_after_fsync_and_crash() {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        let data: Vec<u8> = (0..25_000).map(|i| (i % 239) as u8).collect();
        {
            let fs = E4Fs::format(dev.clone(), small_opts()).unwrap();
            let d = fs
                .create(ROOT_INO, "dir", FileType::Directory, 0o755)
                .unwrap();
            let f = fs.create(d.ino, "file", FileType::Regular, 0o644).unwrap();
            fs.write(f.ino, 500, &data).unwrap();
            fs.fsync(f.ino).unwrap();
        }
        dev.crash();
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        let d = fs2.lookup(ROOT_INO, "dir").unwrap();
        let f = fs2.lookup(d.ino, "file").unwrap();
        assert_eq!(f.size, 500 + data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        fs2.read(f.ino, 500, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn fsync_flushes_ordered_data_before_the_commit() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &[7u8; 4096]).unwrap();
        let before = fs.dev.stats().snapshot();
        fs.fsync(a.ino).unwrap();
        let after = fs.dev.stats().snapshot();
        // One barrier after the data writeback, one after the journal
        // frame: a crash can never keep the commit and lose the data.
        assert_eq!(after.flushes - before.flushes, 2);
        assert!(after.writes - before.writes >= 2);
    }

    #[test]
    fn unsynced_create_rolls_back_consistently() {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        {
            let fs = E4Fs::format(dev.clone(), small_opts()).unwrap();
            let a = mk(&fs, "durable");
            fs.write(a.ino, 0, b"keep").unwrap();
            fs.fsync(a.ino).unwrap();
            mk(&fs, "ephemeral"); // never synced
        }
        dev.crash();
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        assert!(fs2.lookup(ROOT_INO, "durable").is_ok());
        assert_eq!(
            fs2.lookup(ROOT_INO, "ephemeral").unwrap_err(),
            VfsError::NotFound
        );
        // Space accounting consistent: allocator rebuilt from bitmaps.
        let st = fs2.statfs().unwrap();
        assert!(st.free_bytes > 0);
    }

    #[test]
    fn many_extents_overflow_to_extent_blocks() {
        let fs = fresh();
        let a = mk(&fs, "f");
        // Force fragmentation: interleave two files' writes page by page.
        let b = mk(&fs, "g");
        for i in 0..64u64 {
            fs.write(a.ino, i * 4096, &vec![1u8; 4096]).unwrap();
            fs.write(b.ino, i * 4096, &vec![2u8; 4096]).unwrap();
        }
        let n_segs = fs.inner.lock().inodes[&a.ino].extents.segment_count();
        assert!(
            n_segs > INLINE_EXTENTS,
            "test needs fragmentation, got {n_segs}"
        );
        fs.sync().unwrap();
        // Remount and verify the overflow chain decodes.
        let dev = fs.dev.clone();
        drop(fs);
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        let a2 = fs2.lookup(ROOT_INO, "f").unwrap();
        let mut buf = vec![0u8; 64 * 4096];
        fs2.read(a2.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1));
    }

    #[test]
    fn unlink_frees_blocks_and_inode() {
        let fs = fresh();
        let free0 = fs.statfs().unwrap().free_bytes;
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 1 << 20]).unwrap();
        fs.fsync(a.ino).unwrap();
        assert!(fs.statfs().unwrap().free_bytes < free0);
        fs.unlink(ROOT_INO, "f").unwrap();
        // Root dir may have grown a data block; allow that one block.
        assert!(fs.statfs().unwrap().free_bytes + 2 * BLOCK >= free0);
        assert!(fs.getattr(a.ino).is_err());
    }

    #[test]
    fn dir_with_many_entries_spans_blocks_and_recovers() {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        {
            let fs = E4Fs::format(dev.clone(), small_opts()).unwrap();
            for i in 0..120 {
                fs.create(
                    ROOT_INO,
                    &format!("file-with-a-rather-long-name-{i:04}"),
                    FileType::Regular,
                    0o644,
                )
                .unwrap();
            }
            fs.sync().unwrap();
        }
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        assert_eq!(fs2.readdir(ROOT_INO).unwrap().len(), 120);
    }

    #[test]
    fn truncate_and_punch() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![9u8; 4 * 4096]).unwrap();
        fs.punch_hole(a.ino, 4096, 8192).unwrap();
        let mut buf = vec![1u8; 4 * 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..4096].iter().all(|&b| b == 9));
        assert!(buf[4096..3 * 4096].iter().all(|&b| b == 0));
        assert!(buf[3 * 4096..].iter().all(|&b| b == 9));
        fs.setattr(a.ino, &SetAttr::truncate(100)).unwrap();
        fs.setattr(a.ino, &SetAttr::truncate(4096)).unwrap();
        let mut buf = vec![1u8; 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 9));
        assert!(buf[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn rename_recovers_after_sync() {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        {
            let fs = E4Fs::format(dev.clone(), small_opts()).unwrap();
            let a = mk(&fs, "old");
            fs.write(a.ino, 0, b"payload").unwrap();
            fs.rename(ROOT_INO, "old", ROOT_INO, "new").unwrap();
            fs.sync().unwrap();
        }
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        assert!(fs2.lookup(ROOT_INO, "old").is_err());
        let f = fs2.lookup(ROOT_INO, "new").unwrap();
        let mut b = [0u8; 7];
        fs2.read(f.ino, 0, &mut b).unwrap();
        assert_eq!(&b, b"payload");
    }

    #[test]
    fn nospace_surfaces() {
        let dev = Device::with_profile(hdd(), 16 << 20, VirtualClock::new());
        let fs = E4Fs::format(
            dev,
            E4Options {
                journal_blocks: 64,
                blocks_per_group: 1024,
                inodes_per_group: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let a = mk(&fs, "f");
        let r = fs.write(a.ino, 0, &vec![1u8; 32 << 20]);
        assert_eq!(r.unwrap_err(), VfsError::NoSpace);
    }

    #[test]
    fn next_data_with_holes() {
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 20 * 4096, &vec![1u8; 4096]).unwrap();
        let (s, l) = fs.next_data(a.ino, 0).unwrap().unwrap();
        assert_eq!((s, l), (20 * 4096, 4096));
        assert_eq!(fs.next_data(a.ino, 21 * 4096).unwrap(), None);
    }

    #[test]
    fn hole_page_rmw_base_is_zeros_not_recycled_block() {
        // Regression (found by proptest): punching frees blocks; a later
        // partial write into a *hole* page must not read the recycled
        // block's stale content as its read-modify-write base.
        let fs = fresh();
        let a = mk(&fs, "f");
        fs.write(a.ino, 159744, &[0u8; 1]).unwrap();
        fs.write(a.ino, 67584, &vec![1u8; 6145]).unwrap();
        fs.fsync(a.ino).unwrap();
        fs.punch_hole(a.ino, 62119, 12543).unwrap();
        fs.write(a.ino, 156308, &vec![244u8; 2418]).unwrap();
        let mut buf = vec![9u8; 4096];
        fs.read(a.ino, 38 * 4096, &mut buf).unwrap();
        // Bytes after the 2418-byte write within page 38 must be zeros.
        assert!(buf[(158726 - 38 * 4096)..].iter().all(|&b| b == 0));
    }

    /// ROADMAP item 5: bookkeeping is bounded by live state, not by the
    /// number of files that ever lived.
    #[test]
    fn dead_files_leave_no_cache_or_readahead_state() {
        let fs = fresh();
        let keep = mk(&fs, "keep");
        fs.write(keep.ino, 0, &[9u8; 2 * 4096]).unwrap();
        fs.fsync(keep.ino).unwrap();
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
        // Every fsync commits the one running transaction: dirty `keep` last.
        fs.write(keep.ino, 2 * 4096, &[9u8; 4096]).unwrap();
        let inner = fs.inner.lock();
        assert_eq!(inner.ra_next.keys().collect::<Vec<_>>(), [&keep.ino]);
        assert_eq!(inner.cache.resident_inodes(), 1);
        assert_eq!(inner.cache.len(), 3);
        assert_eq!(inner.cache.dirty_inodes(), [keep.ino]);
        assert_eq!(inner.cache.total_dirty(), 1);
        assert_eq!(inner.inodes.len(), 2);
    }

    #[test]
    fn statfs_consistent_across_remount() {
        let dev = Device::with_profile(hdd(), 256 << 20, VirtualClock::new());
        let free;
        {
            let fs = E4Fs::format(dev.clone(), small_opts()).unwrap();
            let a = mk(&fs, "f");
            fs.write(a.ino, 0, &vec![1u8; 3 << 20]).unwrap();
            fs.sync().unwrap();
            free = fs.statfs().unwrap().free_bytes;
        }
        let fs2 = E4Fs::mount(dev, small_opts()).unwrap();
        assert_eq!(fs2.statfs().unwrap().free_bytes, free);
    }
}
