//! The dispatch-path read serves a request in *runs* — one native read
//! per stretch of consecutive blocks that share a source — and does its
//! per-block work afterwards. These tests pin what that must not change:
//! the bytes (against a flat model, over random layouts), the number of
//! native reads (against the cut rule, restated here from the public
//! placement views), repair of one bad block inside a run, and what
//! readers may observe while blocks move and change under them.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use mux::cache::{CacheConfig, CacheController, DaxWindow};
use mux::{Mux, MuxOptions, PinnedPolicy, TierConfig, TierId, BLOCK};
use simdev::{Device, DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsResult, ROOT_INO,
};
use workloads::pattern_at;

/// A pass-through [`FileSystem`] that counts `statfs` calls, records
/// every `read` as `(off, len)` and can run a hook right after a
/// `punch_hole` reached the file system underneath.
struct CountingFs {
    inner: MemFs,
    statfs_calls: AtomicU64,
    reads: Mutex<Vec<(u64, usize)>>,
    after_punch: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl CountingFs {
    fn new(name: &str) -> Arc<Self> {
        Arc::new(CountingFs {
            inner: MemFs::new(name, 1 << 28),
            statfs_calls: AtomicU64::new(0),
            reads: Mutex::new(Vec::new()),
            after_punch: Mutex::new(None),
        })
    }
}

impl FileSystem for CountingFs {
    fn fs_name(&self) -> &str {
        self.inner.fs_name()
    }
    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.inner.lookup(parent, name)
    }
    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.inner.getattr(ino)
    }
    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.inner.setattr(ino, set)
    }
    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        self.inner.create(parent, name, kind, mode)
    }
    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.inner.unlink(parent, name)
    }
    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.inner.rename(parent, name, new_parent, new_name)
    }
    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.inner.readdir(ino)
    }
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.reads.lock().push((off, buf.len()));
        self.inner.read(ino, off, buf)
    }
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.inner.write(ino, off, data)
    }
    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        self.inner.punch_hole(ino, off, len)?;
        if let Some(hook) = self.after_punch.lock().as_ref() {
            hook();
        }
        Ok(())
    }
    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.inner.next_data(ino, off)
    }
    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.inner.fsync(ino)
    }
    fn sync(&self) -> VfsResult<()> {
        self.inner.sync()
    }
    fn statfs(&self) -> VfsResult<StatFs> {
        self.statfs_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.statfs()
    }
}

const CLASSES: [DeviceClass; 3] = [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd];

/// PM, SSD and HDD tiers over counting in-memory file systems; new data
/// lands on tier 0.
fn rig(opts: MuxOptions) -> (Arc<Mux>, Vec<Arc<CountingFs>>, VirtualClock) {
    let clock = VirtualClock::new();
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        opts,
    ));
    let tiers: Vec<_> = CLASSES
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let fs = CountingFs::new(&format!("t{i}"));
            let name = format!("t{i}");
            mux.add_tier(
                TierConfig { name, class },
                fs.clone() as Arc<dyn FileSystem>,
            );
            fs
        })
        .collect();
    (mux, tiers, clock)
}

fn mk(mux: &Mux, name: &str) -> u64 {
    mux.create(ROOT_INO, name, FileType::Regular, 0o644)
        .unwrap()
        .ino
}

#[test]
fn dispatch_reads_never_statfs_a_tier() {
    let (mux, tiers, _) = rig(MuxOptions::default());
    let ino = mk(&mux, "f");
    const BLOCKS: u64 = 64;
    mux.write(ino, 0, &pattern_at(0, (BLOCKS * BLOCK) as usize))
        .unwrap();
    // Half the file on the SSD tier, so the read path's "was this the
    // fastest tier?" question has both answers.
    mux.migrate_range(ino, BLOCKS / 2, BLOCKS / 2, 1).unwrap();
    let statfs = || -> u64 {
        tiers
            .iter()
            .map(|t| t.statfs_calls.load(Ordering::Relaxed))
            .sum()
    };
    let before = (statfs(), mux.stats().snapshot());
    // Multi-block reads never take the fast path: every one dispatches.
    let mut buf = vec![0u8; (16 * BLOCK) as usize];
    for i in 0..32u64 {
        let off = (i % 4) * 16 * BLOCK;
        assert_eq!(mux.read(ino, off, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, pattern_at(off, buf.len()));
    }
    let after = mux.stats().snapshot();
    assert_eq!(after.fastpath_hits, before.1.fastpath_hits);
    assert_eq!(after.dispatches - before.1.dispatches, 32, "one run each");
    assert_eq!(
        statfs(),
        before.0,
        "a dispatch read asked a tier for statfs"
    );
}

#[test]
fn overwrites_of_mapped_blocks_never_statfs_a_tier_and_appends_do() {
    let (mux, tiers, _) = rig(MuxOptions::default());
    let ino = mk(&mux, "f");
    const BLOCKS: u64 = 16;
    mux.write(ino, 0, &pattern_at(0, (BLOCKS * BLOCK) as usize))
        .unwrap();
    let statfs = || -> u64 {
        tiers
            .iter()
            .map(|t| t.statfs_calls.load(Ordering::Relaxed))
            .sum()
    };
    // Only a hole needs placing, and only placement needs free space.
    let before = statfs();
    for i in 0..64u64 {
        let off = (i * 7 % BLOCKS) * BLOCK + (i % 3) * 100;
        mux.write(ino, off, &pattern_at(off, 3000)).unwrap();
    }
    assert_eq!(statfs(), before, "an overwrite asked a tier for statfs");
    mux.write(ino, BLOCKS * BLOCK, &pattern_at(0, 100)).unwrap();
    assert!(statfs() > before, "an append placed its hole blind");
}

// ---- the property: extent reads are per-block reads ----------------------

/// The region layouts live in, in blocks.
const REGION: u64 = 48;
/// `max_dispatch_bytes` of the property rig, in blocks: small enough that
/// random reads hit the cap.
const MAX_RUN: u64 = 8;

#[derive(Debug, Clone)]
struct Layout {
    /// `(first block, blocks, bytes trimmed off the end)` pattern writes.
    writes: Vec<(u64, u64, u64)>,
    /// `(first block, blocks)` punched back out.
    holes: Vec<(u64, u64)>,
    /// `(first block, blocks, tier)` migrations.
    moves: Vec<(u64, u64, TierId)>,
    /// `(first block, blocks, tier)`: one mirrored range.
    mirror: (u64, u64, TierId),
    /// Attach an SCM cache in front of the SSD and HDD tiers.
    cache: bool,
    /// `(byte offset, length)` reads.
    reads: Vec<(u64, u64)>,
    /// `(byte offset, length)` punches made half-way through the reads:
    /// unaligned, with the mirror, the cache and the fast path populated.
    late_holes: Vec<(u64, u64)>,
}

fn layout() -> impl Strategy<Value = Layout> {
    (
        proptest::collection::vec((0..REGION, 4..24u64, 0..BLOCK), 2..6),
        proptest::collection::vec((0..REGION, 1..8u64), 0..3),
        proptest::collection::vec((0..REGION, 4..24u64, 0..3u32), 2..8),
        (0..REGION / 2, 8..32u64, 0..2u32),
        (
            any::<bool>(),
            proptest::collection::vec((0..REGION * BLOCK, 1..20 * BLOCK), 1..12),
            proptest::collection::vec((0..REGION * BLOCK, 1..6 * BLOCK), 0..3),
        ),
    )
        .prop_map(
            |(writes, holes, moves, mirror, (cache, reads, late_holes))| Layout {
                writes,
                holes,
                moves,
                mirror,
                cache,
                reads,
                late_holes,
            },
        )
}

/// `(owner, source)` of every mapped block, from the public placement
/// views: the BLT owner, and the copy the read path picks — a replica on
/// a faster tier, else the owner. Tier ids are in class order here, so
/// "faster" is "<".
fn copies(mux: &Mux, ino: u64) -> BTreeMap<u64, (TierId, TierId)> {
    let replicas = mux.file_replicas(ino).unwrap();
    let mut out = BTreeMap::new();
    for (start, len, owner) in mux.file_placement(ino).unwrap() {
        for b in start..start + len {
            let rep = replicas.iter().find(|&&(s, l, _)| s <= b && b < s + l);
            let source = rep.map(|r| r.2).filter(|&r| r < owner).unwrap_or(owner);
            out.insert(b, (owner, source));
        }
    }
    out
}

/// The cut rule, restated: how many native reads `[off, off + n)` takes
/// when `cached` blocks are served by the SCM cache.
fn expected_runs(
    copies: &BTreeMap<u64, (TierId, TierId)>,
    off: u64,
    n: u64,
    cached: &HashSet<u64>,
) -> u64 {
    let mut runs = 0;
    // (next block, owner, source, blocks so far) of the open run.
    let mut open: Option<(u64, TierId, TierId, u64)> = None;
    // Unmapped blocks are holes: nothing to read.
    for (&b, &(owner, source)) in copies.range(off / BLOCK..=(off + n - 1) / BLOCK) {
        if cached.contains(&b) {
            continue;
        }
        let whole = b * BLOCK >= off && (b + 1) * BLOCK <= off + n;
        match open {
            Some((next, o, s, len))
                if whole && (next, o, s) == (b, owner, source) && len < MAX_RUN =>
            {
                open = Some((b + 1, o, s, len + 1));
            }
            _ => {
                runs += 1;
                // A partly covered block never grows: `next` is unreachable.
                open = Some((if whole { b + 1 } else { u64::MAX }, owner, source, 1));
            }
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extent_reads_match_the_flat_model_and_the_cut_rule(l in layout()) {
        let mut opts = MuxOptions::default();
        opts.cost.max_dispatch_bytes = MAX_RUN * BLOCK;
        let (mux, _tiers, clock) = rig(opts);
        let ino = mk(&mux, "f");
        // Build the layout and the flat model side by side.
        let mut model = vec![0u8; (2 * REGION * BLOCK) as usize];
        let mut size = 0u64;
        for &(b, n, trim) in &l.writes {
            let (off, len) = (b * BLOCK, n * BLOCK - trim);
            let data = pattern_at(off, len as usize);
            mux.write(ino, off, &data).unwrap();
            model[off as usize..][..data.len()].copy_from_slice(&data);
            size = size.max(off + len);
        }
        for &(b, n) in &l.holes {
            mux.punch_hole(ino, b * BLOCK, n * BLOCK).unwrap();
            let end = ((b + n) * BLOCK).min(model.len() as u64);
            model[(b * BLOCK) as usize..end as usize].fill(0);
        }
        for &(b, n, to) in &l.moves {
            mux.migrate_range(ino, b, n, to).unwrap();
        }
        let (b, n, to) = l.mirror;
        mux.mirror_range(ino, b, n, to).unwrap();
        if l.cache {
            let scm = Device::with_profile(simdev::pmem(), 16 << 20, clock);
            let window = DaxWindow::new(scm, vec![(0, 4 * REGION * BLOCK)]);
            let cache = CacheController::new(Box::new(window), CacheConfig::default());
            mux.attach_cache(Arc::new(cache));
        }
        // Blocks the SCM cache holds: filled by the first dispatch read
        // of a block whose owner *and* source it fronts.
        let fronted = |t: TierId| l.cache && CLASSES[t as usize] >= DeviceClass::Ssd;
        let mut cached: HashSet<u64> = HashSet::new();
        for (i, &(off, len)) in l.reads.iter().enumerate() {
            if i == l.reads.len() / 2 {
                for &(off, len) in &l.late_holes {
                    mux.punch_hole(ino, off, len).unwrap();
                    let end = (off + len).min(model.len() as u64);
                    model[off as usize..end as usize].fill(0);
                    // Every block a punch touches leaves the cache.
                    cached.retain(|&b| (b + 1) * BLOCK <= off || b * BLOCK >= off + len);
                }
            }
            let before = mux.stats().snapshot();
            let mut buf = vec![0xEEu8; len as usize];
            let got = mux.read(ino, off, &mut buf).unwrap() as u64;
            let want = if off >= size { 0 } else { len.min(size - off) };
            prop_assert_eq!(got, want, "length of read {}+{}", off, len);
            prop_assert_eq!(&buf[..got as usize], &model[off as usize..][..got as usize],
                "bytes of read {}+{}", off, len);
            if got == 0 {
                continue;
            }
            let after = mux.stats().snapshot();
            let copies = copies(&mux, ino);
            let runs = if after.fastpath_hits > before.fastpath_hits {
                0
            } else {
                expected_runs(&copies, off, got, &cached)
            };
            prop_assert_eq!(after.dispatches - before.dispatches, runs,
                "native reads of read {}+{} (cached: {:?})", off, len, cached);
            prop_assert_eq!(after.corruptions_detected, 0);
            prop_assert_eq!(after.io_errors, 0);
            for (&b, &(owner, source)) in copies.range(off / BLOCK..=(off + got - 1) / BLOCK) {
                if fronted(owner) && fronted(source) {
                    cached.insert(b);
                }
            }
        }
    }
}

// ---- one bad block inside a run -----------------------------------------

#[test]
fn rot_in_the_middle_of_a_run_repairs_one_block_and_touches_no_other() {
    for bad in [1u64, 7, 14] {
        let (mux, tiers, _) = rig(MuxOptions::default());
        let ino = mk(&mux, "f");
        const BLOCKS: u64 = 16;
        let data = pattern_at(0, (BLOCKS * BLOCK) as usize);
        mux.write(ino, 0, &data).unwrap();
        assert_eq!(mux.mirror_range(ino, 0, BLOCKS, 1).unwrap(), BLOCKS);
        // Rot one stored byte of the primary copy, beneath Mux.
        let (tier, nino) = mux.native_location(ino, bad).unwrap();
        assert_eq!(tier, 0);
        let at = bad * BLOCK + 1234;
        let flipped = [data[at as usize] ^ 0x40];
        mux.tier_fs(tier)
            .unwrap()
            .write(nino, at, &flipped)
            .unwrap();
        for t in &tiers {
            t.reads.lock().clear();
        }
        let before = mux.stats().snapshot();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(mux.read(ino, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, data, "block {bad}: corrupt bytes reached the caller");
        let s = mux.stats().snapshot();
        assert_eq!(s.corruptions_detected - before.corruptions_detected, 1);
        assert_eq!(s.corruptions_repaired - before.corruptions_repaired, 1);
        assert_eq!(s.blocks_quarantined, 0);
        assert_eq!(s.dispatches - before.dispatches, 1, "the read was one run");
        // The primary served the run and the bounded re-read of the bad
        // block; the replica served the bad block alone.
        let block = (bad * BLOCK, BLOCK as usize);
        assert_eq!(*tiers[0].reads.lock(), [(0, data.len()), block]);
        assert_eq!(*tiers[1].reads.lock(), [block]);
        // The repair rewrote the rotten copy: the next read is clean.
        assert_eq!(mux.read(ino, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, data);
        assert_eq!(
            mux.stats().snapshot().corruptions_detected,
            s.corruptions_detected
        );
    }
}

// ---- a reader inside a punch ---------------------------------------------

#[test]
fn a_read_between_a_native_punch_and_its_commit_is_a_race_not_rot() {
    let (mux, tiers, _) = rig(MuxOptions::default());
    let ino = mk(&mux, "f");
    const BLOCKS: u64 = 8;
    let data = pattern_at(0, (BLOCKS * BLOCK) as usize);
    mux.write(ino, 0, &data).unwrap();
    // Owner on PM, replica on the slower SSD: reads go to the owner, and
    // a "repair" would come from the replica.
    assert_eq!(mux.mirror_range(ino, 0, BLOCKS, 1).unwrap(), BLOCKS);
    let (at, len) = ((2 * BLOCK + 100) as usize, 1900);
    let mut want = data.clone();
    want[at..at + len].fill(0);
    // Right after tier 0 punched — before Mux has dropped the block's
    // checksum — read the boundary block on the dispatch path (two
    // blocks never take the fast path).
    let seen = Arc::new(Mutex::new(None));
    let (weak, seen_by_hook) = (Arc::downgrade(&mux), seen.clone());
    *tiers[0].after_punch.lock() = Some(Box::new(move || {
        let mux = weak.upgrade().unwrap();
        let mut buf = vec![0u8; (2 * BLOCK) as usize];
        let got = mux.read(ino, 2 * BLOCK, &mut buf).map(|_| buf);
        *seen_by_hook.lock() = Some(got);
    }));
    mux.punch_hole(ino, at as u64, len as u64).unwrap();
    *tiers[0].after_punch.lock() = None;
    let seen = seen.lock().take().expect("the hook ran").unwrap();
    let blocks = (2 * BLOCK) as usize..(4 * BLOCK) as usize;
    assert!(seen == want[blocks], "the racing read saw the punch undone");
    let s = mux.stats().snapshot();
    assert_eq!(s.corruptions_detected, 0, "a punch was taken for rot");
    assert_eq!(mux.tier_health(0).corruptions, 0, "and struck the tier");
    // The stale mirror copy is retired, the punch stays punched.
    assert_eq!(mux.file_replicas(ino).unwrap(), [(0, 2, 1), (3, 5, 1)]);
    let mut buf = vec![0u8; data.len()];
    assert_eq!(mux.read(ino, 0, &mut buf).unwrap(), buf.len());
    assert!(buf == want, "the punched bytes do not read as zeros");
    assert_eq!(mux.stats().snapshot().corruptions_detected, 0);
}

// ---- readers against a mover and an overwriter ---------------------------

/// Block `block` as generation `gen` wrote it: both numbers up front, the
/// rest a byte only that pair produces.
fn stamped(gen: u64, block: u64) -> Vec<u8> {
    let mut page = vec![(gen.wrapping_mul(31) ^ block) as u8; BLOCK as usize];
    page[..8].copy_from_slice(&gen.to_le_bytes());
    page[8..16].copy_from_slice(&block.to_le_bytes());
    page
}

#[test]
fn extent_readers_racing_a_mover_and_an_overwriter_see_whole_current_blocks() {
    const BLOCKS: u64 = 64;
    const RUN: u64 = 16; // 64 KiB reads
    let (mux, _tiers, _) = rig(MuxOptions::default());
    let ino = mk(&mux, "f");
    for b in 0..BLOCKS {
        mux.write(ino, b * BLOCK, &stamped(1, b)).unwrap();
    }
    // The newest generation whose write of each block has returned.
    let written: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(1)).collect();
    let reads_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The overwriter stamps one 4 KiB block at a time, pass after pass.
        s.spawn(|| {
            let mut gen = 2u64;
            while !stop.load(Ordering::Relaxed) {
                for b in 0..BLOCKS {
                    mux.write(ino, b * BLOCK, &stamped(gen, b)).unwrap();
                    written[b as usize].store(gen, Ordering::Release);
                }
                gen += 1;
            }
        });
        for t in 0..2u64 {
            let (mux, written, reads_done, stop) = (&mux, &written, &reads_done, &stop);
            s.spawn(move || {
                let mut buf = vec![0u8; (RUN * BLOCK) as usize];
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let first = (i * 7 % (BLOCKS / RUN)) * RUN;
                    let floor: Vec<u64> = (first..first + RUN)
                        .map(|b| written[b as usize].load(Ordering::Acquire))
                        .collect();
                    let got = mux.read(ino, first * BLOCK, &mut buf).unwrap();
                    assert_eq!(got, buf.len());
                    for (k, page) in buf.chunks_exact(BLOCK as usize).enumerate() {
                        let b = first + k as u64;
                        let gen = u64::from_le_bytes(page[..8].try_into().unwrap());
                        assert!(
                            page == stamped(gen, b),
                            "reader {t}: block {b} is torn or misplaced (stamp gen {gen})"
                        );
                        assert!(
                            gen >= floor[k],
                            "reader {t}: block {b} is stale: gen {gen} after {} was acknowledged",
                            floor[k]
                        );
                    }
                    reads_done.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // The mover bounces the whole file between tiers until the
        // readers have certainly overlapped many commits.
        let mut round = 0usize;
        while round < 12 || reads_done.load(Ordering::Relaxed) < 200 {
            let to = [1u32, 2, 0][round % 3];
            mux.migrate_range(ino, 0, BLOCKS, to).unwrap();
            round += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiesced: every block holds the overwriter's last stamp.
    let mut page = vec![0u8; BLOCK as usize];
    for b in 0..BLOCKS {
        mux.read(ino, b * BLOCK, &mut page).unwrap();
        let gen = written[b as usize].load(Ordering::Acquire);
        assert!(page == stamped(gen, b), "block {b} lost its last write");
    }
    assert_eq!(mux.stats().snapshot().corruptions_detected, 0);
}
