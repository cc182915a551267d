//! The Strata-like file system: log-structured writes, digestion, static
//! eviction routing.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;
use simdev::{Device, DeviceClass};
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, RangeMap, Segmentable, SetAttr, StatFs,
    VfsError, VfsResult, ROOT_INO,
};

use crate::log::UpdateLog;

/// Block size of the shared areas.
pub const BLOCK: u64 = 4096;

/// Device index within the hierarchy.
pub const PM: usize = 0;
/// SSD index.
pub const SSD: usize = 1;
/// HDD index.
pub const HDD: usize = 2;

/// A block location: device index + block number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Device index (PM/SSD/HDD).
    pub dev: usize,
    /// Block number on that device.
    pub block: u64,
}

impl Segmentable for Loc {
    fn advance(&self, delta: u64) -> Self {
        Loc {
            dev: self.dev,
            block: self.block + delta,
        }
    }

    fn can_append(&self, len: u64, other: &Self) -> bool {
        self.dev == other.dev && self.block + len == other.block
    }
}

/// Digest-coalescing tag: identifies which log entry's bytes win for a
/// byte range (overlay semantics come from `RangeMap::insert` overwrite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CoalesceTag(u64);

impl Segmentable for CoalesceTag {
    fn advance(&self, _delta: u64) -> Self {
        *self
    }

    fn can_append(&self, _len: u64, other: &Self) -> bool {
        self == other
    }
}

/// Collects full-block shared-area writes during a digest pass and submits
/// them per device in block order with contiguous runs merged — the
/// batching the digest thread performs before hitting the devices.
#[derive(Debug, Default)]
struct WriteBatch {
    per_dev: [Vec<(u64, Vec<u8>)>; 3],
}

impl WriteBatch {
    fn push(&mut self, dev: usize, block: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len() as u64 % BLOCK, 0);
        self.per_dev[dev].push((block, data));
    }

    fn flush(&mut self, devs: &[Device; 3]) -> VfsResult<()> {
        for (dev, list) in self.per_dev.iter_mut().enumerate() {
            if list.is_empty() {
                continue;
            }
            list.sort_by_key(|(b, _)| *b);
            let mut i = 0usize;
            while i < list.len() {
                let start = list[i].0;
                let mut blob: Vec<u8> = Vec::new();
                let mut next = start;
                while i < list.len() && list[i].0 == next {
                    next += list[i].1.len() as u64 / BLOCK;
                    blob.extend_from_slice(&list[i].1);
                    i += 1;
                }
                devs[dev].write(start * BLOCK, &blob)?;
            }
            list.clear();
        }
        Ok(())
    }
}

/// Tunables for [`StrataFs`].
#[derive(Debug, Clone)]
pub struct StrataOptions {
    /// Update-log region size on PM.
    pub log_bytes: u64,
    /// Log utilization that triggers digestion.
    pub digest_threshold: f64,
    /// LibFS software-path cost per operation (virtual ns).
    pub software_op_ns: u64,
    /// KernFS cost per digested log entry (virtual ns).
    pub digest_entry_ns: u64,
    /// Shared-area utilization that triggers eviction.
    pub high_watermark: f64,
    /// Eviction target utilization.
    pub low_watermark: f64,
    /// Blocks moved per migration/eviction chunk. Strata moves data at
    /// digest granularity through its extent tree, far below the device's
    /// optimal transfer size — one of the reasons Mux's bulk copies beat
    /// it in Figure 3a.
    pub migrate_chunk_blocks: u64,
    /// Virtual ns of extent-tree surgery per migrated chunk: the tree is
    /// partially locked, entries are unhooked, relocated and rehooked —
    /// "the file extent tree ... has to be partially locked during
    /// block-level data migration" (§3.1).
    pub migrate_chunk_ns: u64,
}

impl Default for StrataOptions {
    fn default() -> Self {
        StrataOptions {
            log_bytes: 16 << 20,
            digest_threshold: 0.75,
            software_op_ns: 700,
            digest_entry_ns: 250,
            high_watermark: 0.90,
            low_watermark: 0.70,
            migrate_chunk_blocks: 3,
            migrate_chunk_ns: 3_400,
        }
    }
}

/// A minimal per-device block free list.
#[derive(Debug)]
struct BlockAlloc {
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
    total: u64,
}

impl BlockAlloc {
    fn new(start: u64, end: u64) -> Self {
        let mut free = BTreeMap::new();
        if end > start {
            free.insert(start, end - start);
        }
        BlockAlloc {
            free,
            free_blocks: end.saturating_sub(start),
            total: end.saturating_sub(start),
        }
    }

    fn alloc(&mut self, want: u64) -> Option<(u64, u64)> {
        let (&s, &l) = self
            .free
            .iter()
            .find(|(_, &l)| l >= want)
            .or_else(|| self.free.iter().max_by_key(|(_, &l)| l))?;
        let take = l.min(want);
        self.free.remove(&s);
        if take < l {
            self.free.insert(s + take, l - take);
        }
        self.free_blocks -= take;
        Some((s, take))
    }

    fn free_run(&mut self, start: u64, len: u64) {
        self.free_blocks += len;
        let mut start = start;
        let mut len = len;
        if let Some((&s, &l)) = self.free.range(..start).next_back() {
            if s + l == start {
                self.free.remove(&s);
                start = s;
                len += l;
            }
        }
        if let Some((&s, &l)) = self.free.range(start + len..).next() {
            if start + len == s {
                self.free.remove(&s);
                len += l;
            }
        }
        self.free.insert(start, len);
    }

    fn utilization(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - self.free_blocks as f64 / self.total as f64
    }
}

struct SFile {
    attr: FileAttr,
    extents: RangeMap<Loc>,
    last_access_ns: u64,
}

struct SDir {
    attr: FileAttr,
    entries: BTreeMap<String, InodeNo>,
}

struct Inner {
    log: UpdateLog,
    alloc: [BlockAlloc; 3],
    files: HashMap<InodeNo, SFile>,
    dirs: HashMap<InodeNo, SDir>,
    next_ino: InodeNo,
    /// Forced digestion target (benchmark knob); `None` = PM shared area.
    placement_target: Option<usize>,
}

/// The monolithic tiered file system.
pub struct StrataFs {
    devs: [Device; 3],
    opts: StrataOptions,
    inner: Mutex<Inner>,
}

impl StrataFs {
    /// Builds Strata over the three devices of the paper's hierarchy.
    pub fn new(pm: Device, ssd: Device, hdd: Device, opts: StrataOptions) -> Self {
        let log_blocks = opts.log_bytes.div_ceil(BLOCK);
        let pm_blocks = pm.capacity() / BLOCK;
        let ssd_blocks = ssd.capacity() / BLOCK;
        let hdd_blocks = hdd.capacity() / BLOCK;
        let mut dirs = HashMap::new();
        let mut attr = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
        attr.nlink = 2;
        dirs.insert(
            ROOT_INO,
            SDir {
                attr,
                entries: BTreeMap::new(),
            },
        );
        StrataFs {
            inner: Mutex::new(Inner {
                log: UpdateLog::new(0, opts.log_bytes),
                alloc: [
                    BlockAlloc::new(log_blocks, pm_blocks),
                    BlockAlloc::new(0, ssd_blocks),
                    BlockAlloc::new(0, hdd_blocks),
                ],
                files: HashMap::new(),
                dirs,
                next_ino: ROOT_INO + 1,
                placement_target: None,
            }),
            devs: [pm, ssd, hdd],
            opts,
        }
    }

    /// Devices, for statistics in benchmarks.
    pub fn devices(&self) -> &[Device; 3] {
        &self.devs
    }

    /// Forces digestion to place data on one device (benchmark knob that
    /// models "the I/O request is always directed to the target devices").
    pub fn set_placement_target(&self, dev: Option<usize>) {
        self.inner.lock().placement_target = dev;
    }

    fn charge_sw(&self) {
        self.devs[PM].clock().advance(self.opts.software_op_ns);
    }

    fn now(&self) -> u64 {
        self.devs[PM].clock().now_ns()
    }

    /// Digests every log entry into the shared areas. The per-file extent
    /// tree is effectively locked for the whole pass (we hold the global
    /// lock), which is the coarse-locking behaviour §3.1 calls out.
    ///
    /// Entries are coalesced per file before applying (adjacent and
    /// overlapping ranges merge, later data wins), as the real digest
    /// does; each merged range then becomes bulk shared-area writes.
    fn digest(&self, inner: &mut Inner) -> VfsResult<()> {
        let n = inner.log.len();
        if n == 0 {
            return Ok(());
        }
        // Coalesce: per file, overlay entries in append order.
        let mut per_file: HashMap<InodeNo, RangeMap<CoalesceTag>> = HashMap::new();
        let mut payloads: Vec<(u64, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            let entry = inner.log.read_entry(&self.devs[PM], i)?;
            self.devs[PM].clock().advance(self.opts.digest_entry_ns);
            let map = per_file.entry(entry.ino).or_insert_with(RangeMap::new);
            map.insert(entry.off, entry.data.len() as u64, CoalesceTag(i as u64));
            payloads.push((entry.off, entry.data));
        }
        let target = inner.placement_target.unwrap_or(PM);
        let mut batch = WriteBatch::default();
        for (ino, map) in per_file {
            // Build merged byte runs; within each run, materialize the
            // winning bytes, then apply as one bulk write.
            let mut run_start: Option<u64> = None;
            let mut run_data: Vec<u8> = Vec::new();
            let flush_run = |inner: &mut Inner,
                             batch: &mut WriteBatch,
                             start: Option<u64>,
                             data: &mut Vec<u8>|
             -> VfsResult<()> {
                if let Some(s) = start {
                    if !data.is_empty() {
                        self.apply_to_shared(inner, ino, s, data, target, Some(batch))?;
                        data.clear();
                    }
                }
                Ok(())
            };
            for e in map.iter() {
                let (entry_off, ref bytes) = payloads[e.value.0 as usize];
                let piece =
                    &bytes[(e.start - entry_off) as usize..(e.start - entry_off + e.len) as usize];
                match run_start {
                    Some(s) if s + run_data.len() as u64 == e.start => {
                        run_data.extend_from_slice(piece);
                    }
                    _ => {
                        flush_run(inner, &mut batch, run_start, &mut run_data)?;
                        run_start = Some(e.start);
                        run_data.extend_from_slice(piece);
                    }
                }
            }
            flush_run(inner, &mut batch, run_start, &mut run_data)?;
        }
        batch.flush(&self.devs)?;
        inner.log.truncate();
        // Space pressure on PM? Evict via the static paths.
        self.maybe_evict(inner)?;
        Ok(())
    }

    /// Writes bytes into the shared area of `target`, allocating blocks
    /// for unmapped ranges in bulk (one device command per contiguous
    /// run) and read-modify-writing partial blocks.
    fn apply_to_shared(
        &self,
        inner: &mut Inner,
        ino: InodeNo,
        off: u64,
        data: &[u8],
        target: usize,
        mut batch: Option<&mut WriteBatch>,
    ) -> VfsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        if !inner.files.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        let end = off + data.len() as u64;
        let first = off / BLOCK;
        let last = (end - 1) / BLOCK;
        let mut pg = first;
        while pg <= last {
            // Find a homogeneous stretch: same current placement state.
            let cur = inner.files[&ino].extents.get(pg);
            let mut stretch = 1u64;
            while pg + stretch <= last {
                let nxt = inner.files[&ino].extents.get(pg + stretch);
                let same = match (cur, nxt) {
                    (Some(a), Some(b)) => a.dev == b.dev && b.block == a.block + stretch,
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    break;
                }
                stretch += 1;
            }
            // Materialize the stretch's bytes (RMW partial head/tail).
            let s_start = (pg * BLOCK).max(off);
            let s_end = ((pg + stretch) * BLOCK).min(end);
            let mut blob = vec![0u8; (stretch * BLOCK) as usize];
            let head_partial = s_start > pg * BLOCK;
            let tail_partial = s_end < (pg + stretch) * BLOCK;
            if head_partial || tail_partial {
                if let Some(loc) = cur {
                    // Preserve existing block content around the write.
                    self.devs[loc.dev].read(loc.block * BLOCK, &mut blob[..BLOCK as usize])?;
                    if stretch > 1 {
                        let tail_loc = loc.advance(stretch - 1);
                        self.devs[tail_loc.dev].read(
                            tail_loc.block * BLOCK,
                            &mut blob[((stretch - 1) * BLOCK) as usize..],
                        )?;
                    }
                }
            }
            blob[(s_start - pg * BLOCK) as usize..(s_end - pg * BLOCK) as usize]
                .copy_from_slice(&data[(s_start - off) as usize..(s_end - off) as usize]);
            let full_blocks = !head_partial && !tail_partial;
            match cur {
                Some(loc) if loc.dev == target => {
                    // In-place bulk overwrite.
                    if let (true, Some(b)) = (full_blocks, batch.as_deref_mut()) {
                        b.push(target, loc.block, blob.clone());
                    } else {
                        self.devs[target].write(loc.block * BLOCK, &blob)?;
                    }
                }
                other => {
                    // (Re)allocate on the target and write in bulk runs.
                    if let Some(old) = other {
                        inner.alloc[old.dev].free_run(old.block, stretch);
                    }
                    let mut placed = 0u64;
                    while placed < stretch {
                        let (s, got) = inner.alloc[target]
                            .alloc(stretch - placed)
                            .ok_or(VfsError::NoSpace)?;
                        let piece =
                            &blob[(placed * BLOCK) as usize..((placed + got) * BLOCK) as usize];
                        if let (true, Some(b)) = (full_blocks, batch.as_deref_mut()) {
                            b.push(target, s, piece.to_vec());
                        } else {
                            self.devs[target].write(s * BLOCK, piece)?;
                        }
                        let f = inner.files.get_mut(&ino).expect("checked");
                        f.extents.insert(
                            pg + placed,
                            got,
                            Loc {
                                dev: target,
                                block: s,
                            },
                        );
                        placed += got;
                    }
                }
            }
            pg += stretch;
        }
        let f = inner.files.get_mut(&ino).expect("checked");
        f.attr.blocks_bytes = f.extents.covered() * BLOCK;
        Ok(())
    }

    /// Evicts cold data when PM crosses the high watermark. Only the wired
    /// paths exist: PM→SSD, then PM→HDD when the SSD is also full.
    fn maybe_evict(&self, inner: &mut Inner) -> VfsResult<()> {
        if inner.alloc[PM].utilization() <= self.opts.high_watermark {
            return Ok(());
        }
        let want_free = ((self.opts.high_watermark - self.opts.low_watermark)
            * inner.alloc[PM].total as f64) as u64;
        // Coldest files first.
        let mut order: Vec<(u64, InodeNo)> = inner
            .files
            .iter()
            .map(|(&i, f)| (f.last_access_ns, i))
            .collect();
        order.sort_unstable();
        let mut freed = 0u64;
        for (_, ino) in order {
            if freed >= want_free {
                break;
            }
            let target = if inner.alloc[SSD].utilization() < self.opts.high_watermark {
                SSD
            } else {
                HDD
            };
            freed += self.move_file_blocks(inner, ino, PM, target, u64::MAX)?;
        }
        Ok(())
    }

    /// Moves up to `max_blocks` of `ino`'s blocks from `from` to `to`
    /// under the global lock (the extent tree stays locked throughout).
    fn move_file_blocks(
        &self,
        inner: &mut Inner,
        ino: InodeNo,
        from: usize,
        to: usize,
        max_blocks: u64,
    ) -> VfsResult<u64> {
        let victims: Vec<(u64, u64, Loc)> = {
            let Some(f) = inner.files.get(&ino) else {
                return Ok(0);
            };
            f.extents
                .iter()
                .filter(|e| e.value.dev == from)
                .map(|e| (e.start, e.len, e.value))
                .take(1024)
                .collect()
        };
        let chunk = self.opts.migrate_chunk_blocks.max(1);
        let mut moved = 0u64;
        for (pg, len, loc) in victims {
            if moved >= max_blocks {
                break;
            }
            let n = len.min(max_blocks - moved);
            // Strata moves at digest-chunk granularity: each chunk is a
            // separate read + allocate + write round trip.
            let mut done = 0u64;
            while done < n {
                let piece = chunk.min(n - done);
                self.devs[PM].clock().advance(self.opts.migrate_chunk_ns);
                let mut buf = vec![0u8; (piece * BLOCK) as usize];
                self.devs[from].read((loc.block + done) * BLOCK, &mut buf)?;
                let mut placed = 0u64;
                while placed < piece {
                    let (s, got) = inner.alloc[to]
                        .alloc(piece - placed)
                        .ok_or(VfsError::NoSpace)?;
                    self.devs[to].write(
                        s * BLOCK,
                        &buf[(placed * BLOCK) as usize..((placed + got) * BLOCK) as usize],
                    )?;
                    let f = inner.files.get_mut(&ino).expect("checked");
                    f.extents
                        .insert(pg + done + placed, got, Loc { dev: to, block: s });
                    placed += got;
                }
                done += piece;
            }
            inner.alloc[from].free_run(loc.block, n);
            moved += n;
        }
        Ok(moved)
    }

    /// Explicit data migration between device classes — the Figure 3a
    /// experiment. Strata's wiring supports **PM→SSD and PM→HDD only**;
    /// every other pair returns [`VfsError::NotSupported`].
    pub fn migrate(&self, from: DeviceClass, to: DeviceClass, max_blocks: u64) -> VfsResult<u64> {
        let (from, to) = match (from, to) {
            (DeviceClass::Pmem, DeviceClass::Ssd) => (PM, SSD),
            (DeviceClass::Pmem, DeviceClass::Hdd) => (PM, HDD),
            _ => return Err(VfsError::NotSupported),
        };
        let mut inner = self.inner.lock();
        // Digest first so log-resident data is in the shared area.
        self.digest(&mut inner)?;
        let inos: Vec<InodeNo> = inner.files.keys().copied().collect();
        let mut moved = 0u64;
        for ino in inos {
            if moved >= max_blocks {
                break;
            }
            moved += self.move_file_blocks(&mut inner, ino, from, to, max_blocks - moved)?;
        }
        Ok(moved)
    }

    /// Forces a full digest (benchmarks call this to drain the log).
    pub fn force_digest(&self) -> VfsResult<()> {
        let mut inner = self.inner.lock();
        self.digest(&mut inner)
    }
}

impl FileSystem for StrataFs {
    fn fs_name(&self) -> &str {
        "strata"
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.charge_sw();
        let inner = self.inner.lock();
        let dir = inner.dirs.get(&parent).ok_or(VfsError::NotDir)?;
        let &ino = dir.entries.get(name).ok_or(VfsError::NotFound)?;
        inner
            .files
            .get(&ino)
            .map(|f| f.attr)
            .or_else(|| inner.dirs.get(&ino).map(|d| d.attr))
            .ok_or(VfsError::Stale)
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.charge_sw();
        let inner = self.inner.lock();
        inner
            .files
            .get(&ino)
            .map(|f| f.attr)
            .or_else(|| inner.dirs.get(&ino).map(|d| d.attr))
            .ok_or(VfsError::NotFound)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        if let Some(new_size) = set.size {
            // Truncation interacts with the log: digest first for
            // simplicity (Strata defers; we keep semantics clean).
            self.digest(&mut inner)?;
            let f = inner.files.get_mut(&ino).ok_or(VfsError::NotFound)?;
            if new_size < f.attr.size {
                let first_dead = new_size.div_ceil(BLOCK);
                let end = f.attr.size.div_ceil(BLOCK).max(first_dead);
                // Exactly the clipped pieces the cut unmaps, the tail of an
                // extent that straddles it included.
                let mut freed = Vec::new();
                f.extents
                    .remove_with(first_dead, end - first_dead, |e| freed.push(e));
                if new_size % BLOCK != 0 {
                    if let Some(loc) = f.extents.get(new_size / BLOCK) {
                        let in_pg = new_size % BLOCK;
                        let zeros = vec![0u8; (BLOCK - in_pg) as usize];
                        self.devs[loc.dev].write(loc.block * BLOCK + in_pg, &zeros)?;
                    }
                }
                for e in freed {
                    inner.alloc[e.value.dev].free_run(e.value.block, e.len);
                }
            }
            let f = inner.files.get_mut(&ino).expect("checked");
            f.attr.size = new_size;
            f.attr.blocks_bytes = f.extents.covered() * BLOCK;
        }
        let attr = {
            let inner = &mut *inner;
            let a = if let Some(f) = inner.files.get_mut(&ino) {
                &mut f.attr
            } else if let Some(d) = inner.dirs.get_mut(&ino) {
                &mut d.attr
            } else {
                return Err(VfsError::NotFound);
            };
            if let Some(m) = set.mode {
                a.mode = m;
            }
            if let Some(u) = set.uid {
                a.uid = u;
            }
            if let Some(g) = set.gid {
                a.gid = g;
            }
            if let Some(t) = set.atime_ns {
                a.atime_ns = t;
            }
            if let Some(t) = set.mtime_ns {
                a.mtime_ns = t;
            }
            *a
        };
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
        if !inner.dirs.contains_key(&parent) {
            return Err(VfsError::NotDir);
        }
        if inner.dirs[&parent].entries.contains_key(name) {
            return Err(VfsError::Exists);
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        let now = self.now();
        let mut attr = FileAttr::new(ino, kind, mode, now);
        match kind {
            FileType::Regular => {
                inner.files.insert(
                    ino,
                    SFile {
                        attr,
                        extents: RangeMap::new(),
                        last_access_ns: now,
                    },
                );
            }
            FileType::Directory => {
                attr.nlink = 2;
                inner.dirs.insert(
                    ino,
                    SDir {
                        attr,
                        entries: BTreeMap::new(),
                    },
                );
            }
        }
        inner
            .dirs
            .get_mut(&parent)
            .expect("checked")
            .entries
            .insert(name.to_string(), ino);
        Ok(attr)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        let ino = {
            let dir = inner.dirs.get(&parent).ok_or(VfsError::NotDir)?;
            *dir.entries.get(name).ok_or(VfsError::NotFound)?
        };
        if let Some(d) = inner.dirs.get(&ino) {
            if !d.entries.is_empty() {
                return Err(VfsError::NotEmpty);
            }
        }
        inner
            .dirs
            .get_mut(&parent)
            .expect("checked")
            .entries
            .remove(name);
        inner.log.drop_file_entries(ino);
        if let Some(f) = inner.files.remove(&ino) {
            for e in f.extents.iter() {
                inner.alloc[e.value.dev].free_run(e.value.block, e.len);
            }
        }
        inner.dirs.remove(&ino);
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
        let ino = {
            let dir = inner.dirs.get(&parent).ok_or(VfsError::NotDir)?;
            *dir.entries.get(name).ok_or(VfsError::NotFound)?
        };
        if let Some(&existing) = inner
            .dirs
            .get(&new_parent)
            .ok_or(VfsError::NotDir)?
            .entries
            .get(new_name)
        {
            if existing != ino {
                if let Some(d) = inner.dirs.get(&existing) {
                    if !d.entries.is_empty() {
                        return Err(VfsError::NotEmpty);
                    }
                }
                inner.log.drop_file_entries(existing);
                if let Some(f) = inner.files.remove(&existing) {
                    for e in f.extents.iter() {
                        inner.alloc[e.value.dev].free_run(e.value.block, e.len);
                    }
                }
                inner.dirs.remove(&existing);
            }
        }
        inner
            .dirs
            .get_mut(&parent)
            .expect("checked")
            .entries
            .remove(name);
        inner
            .dirs
            .get_mut(&new_parent)
            .expect("checked")
            .entries
            .insert(new_name.to_string(), ino);
        Ok(())
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.charge_sw();
        let inner = self.inner.lock();
        let dir = inner.dirs.get(&ino).ok_or(VfsError::NotDir)?;
        Ok(dir
            .entries
            .iter()
            .map(|(name, &child)| DirEntry {
                name: name.clone(),
                ino: child,
                kind: if inner.dirs.contains_key(&child) {
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
            let f = inner.files.get(&ino).ok_or(VfsError::NotFound)?;
            f.attr.size
        };
        if off >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        // Shared-area content first.
        {
            let f = inner.files.get(&ino).expect("checked");
            let first = off / BLOCK;
            let last = (off + n as u64 - 1) / BLOCK;
            buf[..n].fill(0);
            for e in f.extents.overlapping(first, last - first + 1) {
                let seg_start = (e.start * BLOCK).max(off);
                let seg_end = ((e.start + e.len) * BLOCK).min(off + n as u64);
                let dev_off = e.value.block * BLOCK + (seg_start - e.start * BLOCK);
                self.devs[e.value.dev].read(
                    dev_off,
                    &mut buf[(seg_start - off) as usize..(seg_end - off) as usize],
                )?;
            }
        }
        // Overlay newer log data (append order = newest last).
        let overlaps = inner.log.overlaps(ino, off, n as u64);
        for (idx, s, l) in overlaps {
            let e = inner.log.read_entry(&self.devs[PM], idx)?;
            let src = (s - e.off) as usize;
            buf[(s - off) as usize..(s - off + l) as usize]
                .copy_from_slice(&e.data[src..src + l as usize]);
        }
        let f = inner.files.get_mut(&ino).expect("checked");
        f.attr.atime_ns = now;
        f.last_access_ns = now;
        Ok(n)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        self.charge_sw();
        let mut inner = self.inner.lock();
        let now = self.now();
        if !inner.files.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        // Everything goes through the PM log first — Strata's design —
        // chunked if the write exceeds log capacity.
        let mut done = 0usize;
        while done < data.len() {
            let chunk = (data.len() - done).min((inner.log.capacity() / 2) as usize);
            let piece = &data[done..done + chunk];
            if !inner
                .log
                .append(&self.devs[PM], ino, off + done as u64, piece)?
            {
                self.digest(&mut inner)?;
                if !inner
                    .log
                    .append(&self.devs[PM], ino, off + done as u64, piece)?
                {
                    return Err(VfsError::NoSpace);
                }
            }
            done += chunk;
        }
        let f = inner.files.get_mut(&ino).expect("checked");
        f.attr.size = f.attr.size.max(off + data.len() as u64);
        f.attr.mtime_ns = now;
        f.last_access_ns = now;
        if inner.log.wants_digest(self.opts.digest_threshold) {
            self.digest(&mut inner)?;
        }
        Ok(data.len())
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.charge_sw();
        let mut inner = self.inner.lock();
        self.digest(&mut inner)?;
        let f = inner.files.get_mut(&ino).ok_or(VfsError::NotFound)?;
        let end = off + len;
        let first_full = off.div_ceil(BLOCK);
        let last_full = end / BLOCK;
        // Zero partial edges in place.
        let zero = |f: &SFile, zoff: u64, zlen: u64| -> VfsResult<()> {
            if zlen == 0 {
                return Ok(());
            }
            if let Some(loc) = f.extents.get(zoff / BLOCK) {
                let zeros = vec![0u8; zlen as usize];
                self.devs[loc.dev].write(loc.block * BLOCK + zoff % BLOCK, &zeros)?;
            }
            Ok(())
        };
        let head_end = end.min(first_full * BLOCK);
        if off < head_end {
            zero(f, off, head_end - off)?;
        }
        let tail_start = (last_full * BLOCK).max(off);
        if tail_start < end && tail_start >= head_end {
            zero(f, tail_start, end - tail_start)?;
        }
        if last_full > first_full {
            let freed: Vec<(u64, u64, Loc)> = f
                .extents
                .overlapping(first_full, last_full - first_full)
                .iter()
                .map(|e| (e.start, e.len, e.value))
                .collect();
            f.extents.remove(first_full, last_full - first_full);
            f.attr.blocks_bytes = f.extents.covered() * BLOCK;
            for (_, l, loc) in freed {
                inner.alloc[loc.dev].free_run(loc.block, l);
            }
        }
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        self.digest(&mut inner)?; // log entries count as data
        let f = inner.files.get(&ino).ok_or(VfsError::NotFound)?;
        let size = f.attr.size;
        if off >= size {
            return Ok(None);
        }
        match f.extents.next_mapped(off / BLOCK) {
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
        let inner = self.inner.lock();
        if !inner.files.contains_key(&ino) && !inner.dirs.contains_key(&ino) {
            return Err(VfsError::NotFound);
        }
        // The log is synchronous; fsync is a flush barrier.
        drop(inner);
        self.devs[PM].flush();
        Ok(())
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge_sw();
        let mut inner = self.inner.lock();
        self.digest(&mut inner)?;
        drop(inner);
        for d in &self.devs {
            d.flush();
        }
        Ok(())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let inner = self.inner.lock();
        let total: u64 = inner.alloc.iter().map(|a| a.total * BLOCK).sum();
        let free: u64 = inner.alloc.iter().map(|a| a.free_blocks * BLOCK).sum();
        Ok(StatFs {
            total_bytes: total,
            free_bytes: free,
            inodes: inner.files.len() as u64,
            block_size: BLOCK as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{hdd, nvme_ssd, pmem, VirtualClock};

    fn strata() -> StrataFs {
        let clock = VirtualClock::new();
        StrataFs::new(
            Device::with_profile(pmem(), 64 << 20, clock.clone()),
            Device::with_profile(nvme_ssd(), 256 << 20, clock.clone()),
            Device::with_profile(hdd(), 1 << 30, clock),
            StrataOptions {
                log_bytes: 4 << 20,
                ..Default::default()
            },
        )
    }

    fn mk(fs: &StrataFs, name: &str) -> FileAttr {
        fs.create(ROOT_INO, name, FileType::Regular, 0o644).unwrap()
    }

    #[test]
    fn write_read_through_log() {
        let fs = strata();
        let a = mk(&fs, "f");
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        fs.write(a.ino, 123, &data).unwrap();
        // Data still in the log (no digest yet for small writes).
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(a.ino, 123, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn a_shrink_frees_the_tail_of_the_extent_it_cuts() {
        let fs = strata();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 8 * BLOCK as usize]).unwrap();
        fs.force_digest().unwrap();
        let free = fs.statfs().unwrap().free_bytes;
        fs.setattr(a.ino, &SetAttr::truncate(BLOCK)).unwrap();
        assert_eq!(fs.statfs().unwrap().free_bytes, free + 7 * BLOCK);
        let mut buf = vec![0u8; BLOCK as usize];
        assert_eq!(fs.read(a.ino, 0, &mut buf).unwrap(), BLOCK as usize);
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn read_after_digest_hits_shared_area() {
        let fs = strata();
        let a = mk(&fs, "f");
        let data: Vec<u8> = (0..30_000).map(|i| (i % 241) as u8).collect();
        fs.write(a.ino, 0, &data).unwrap();
        fs.force_digest().unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert!(fs.getattr(a.ino).unwrap().blocks_bytes > 0);
    }

    #[test]
    fn log_overlays_shared_area() {
        let fs = strata();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 8192]).unwrap();
        fs.force_digest().unwrap();
        fs.write(a.ino, 100, &[2u8; 50]).unwrap(); // in log only
        let mut buf = vec![0u8; 8192];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(buf[99], 1);
        assert!(buf[100..150].iter().all(|&b| b == 2));
        assert_eq!(buf[150], 1);
    }

    #[test]
    fn writes_are_double_written_on_pm() {
        // The §3.1 observation: log + digest = write amplification on PM.
        let fs = strata();
        let a = mk(&fs, "f");
        let payload = 1 << 20;
        fs.write(a.ino, 0, &vec![1u8; payload]).unwrap();
        fs.force_digest().unwrap();
        let written = fs.devices()[PM].stats().snapshot().bytes_written;
        assert!(
            written >= 2 * payload as u64,
            "expected ≥2x amplification, got {written} for {payload}"
        );
    }

    #[test]
    fn migrate_supported_paths_only() {
        let fs = strata();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![1u8; 64 * 4096]).unwrap();
        fs.force_digest().unwrap();
        // PM→SSD works.
        let moved = fs
            .migrate(DeviceClass::Pmem, DeviceClass::Ssd, u64::MAX)
            .unwrap();
        assert_eq!(moved, 64);
        let mut buf = vec![0u8; 64 * 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        // SSD→HDD is not wired.
        assert_eq!(
            fs.migrate(DeviceClass::Ssd, DeviceClass::Hdd, 1)
                .unwrap_err(),
            VfsError::NotSupported
        );
        // Promotion is not wired either.
        assert_eq!(
            fs.migrate(DeviceClass::Ssd, DeviceClass::Pmem, 1)
                .unwrap_err(),
            VfsError::NotSupported
        );
        assert_eq!(
            fs.migrate(DeviceClass::Hdd, DeviceClass::Pmem, 1)
                .unwrap_err(),
            VfsError::NotSupported
        );
    }

    #[test]
    fn eviction_when_pm_fills() {
        let clock = VirtualClock::new();
        let fs = StrataFs::new(
            Device::with_profile(pmem(), 8 << 20, clock.clone()), // tiny PM
            Device::with_profile(nvme_ssd(), 256 << 20, clock.clone()),
            Device::with_profile(hdd(), 1 << 30, clock),
            StrataOptions {
                log_bytes: 1 << 20,
                ..Default::default()
            },
        );
        let a = mk(&fs, "big");
        // Write more than PM's shared area can hold.
        for i in 0..10u64 {
            fs.write(a.ino, i * (1 << 20), &vec![i as u8; 1 << 20])
                .unwrap();
        }
        fs.sync().unwrap();
        // Data must have spilled to the SSD.
        assert!(
            fs.devices()[SSD].stats().snapshot().bytes_written > 0,
            "eviction to SSD never happened"
        );
        // And everything still reads back correctly.
        for i in 0..10u64 {
            let mut buf = vec![0u8; 1 << 20];
            fs.read(a.ino, i * (1 << 20), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8), "chunk {i} corrupted");
        }
    }

    #[test]
    fn placement_target_directs_digestion() {
        let fs = strata();
        fs.set_placement_target(Some(HDD));
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![3u8; 256 * 1024]).unwrap();
        fs.force_digest().unwrap();
        assert!(fs.devices()[HDD].stats().snapshot().bytes_written > 0);
        let mut buf = vec![0u8; 256 * 1024];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
    }

    #[test]
    fn namespace_ops() {
        let fs = strata();
        let d = fs
            .create(ROOT_INO, "d", FileType::Directory, 0o755)
            .unwrap();
        let f = fs.create(d.ino, "f", FileType::Regular, 0o644).unwrap();
        fs.write(f.ino, 0, b"x").unwrap();
        fs.rename(d.ino, "f", ROOT_INO, "g").unwrap();
        assert!(fs.lookup(ROOT_INO, "g").is_ok());
        fs.unlink(ROOT_INO, "g").unwrap();
        fs.unlink(ROOT_INO, "d").unwrap();
        assert!(fs.lookup(ROOT_INO, "g").is_err());
    }

    #[test]
    fn truncate_and_punch() {
        let fs = strata();
        let a = mk(&fs, "f");
        fs.write(a.ino, 0, &vec![9u8; 4 * 4096]).unwrap();
        fs.punch_hole(a.ino, 4096, 8192).unwrap();
        let mut buf = vec![0u8; 4 * 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..4096].iter().all(|&b| b == 9));
        assert!(buf[4096..3 * 4096].iter().all(|&b| b == 0));
        fs.setattr(a.ino, &SetAttr::truncate(100)).unwrap();
        fs.setattr(a.ino, &SetAttr::truncate(4096)).unwrap();
        let mut buf = vec![0u8; 4096];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 9));
        assert!(buf[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn large_write_chunks_through_log() {
        let fs = strata(); // 4 MiB log
        let a = mk(&fs, "f");
        let data: Vec<u8> = (0..(10 << 20)).map(|i| (i % 239) as u8).collect();
        fs.write(a.ino, 0, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.read(a.ino, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
