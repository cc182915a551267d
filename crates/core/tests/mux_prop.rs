//! Property tests: Mux over multiple tiers behaves exactly like a flat
//! in-memory file, no matter how operations and migrations interleave.

use std::sync::Arc;

use proptest::prelude::*;

use mux::cache::{CacheConfig, CacheController, DaxWindow};
use mux::{FastPathConfig, Mux, MuxOptions, StripingPolicy, TierConfig, BLOCK};
use simdev::{Device, DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, SetAttr, ROOT_INO};

const REGION: u64 = 64 * BLOCK;

#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, len: u64, fill: u8 },
    Read { off: u64, len: u64 },
    Punch { off: u64, len: u64 },
    Truncate { size: u64 },
    Migrate { block: u64, n: u64, to: u32 },
    Mirror { block: u64, n: u64, to: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..REGION - 1, 1..(3 * BLOCK), any::<u8>())
            .prop_map(|(off, len, fill)| Op::Write { off, len, fill }),
        3 => (0..REGION, 1..(4 * BLOCK)).prop_map(|(off, len)| Op::Read { off, len }),
        1 => (0..REGION, 1..(4 * BLOCK)).prop_map(|(off, len)| Op::Punch { off, len }),
        1 => (0..REGION).prop_map(|size| Op::Truncate { size }),
        2 => (0..(REGION / BLOCK), 1..16u64, 0..3u32)
            .prop_map(|(block, n, to)| Op::Migrate { block, n, to }),
        2 => (0..(REGION / BLOCK), 1..16u64, 0..3u32)
            .prop_map(|(block, n, to)| Op::Mirror { block, n, to }),
    ]
}

fn build_mux() -> Arc<Mux> {
    build_mux_with(MuxOptions::default())
}

fn build_mux_with(opts: MuxOptions) -> Arc<Mux> {
    let clock = VirtualClock::new();
    let mux = Arc::new(Mux::new(clock, Arc::new(StripingPolicy::new(2)), opts));
    let classes = [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd];
    for (i, class) in classes.into_iter().enumerate() {
        mux.add_tier(
            TierConfig {
                name: format!("t{i}"),
                class,
            },
            Arc::new(MemFs::new(format!("t{i}"), 1 << 28)) as Arc<dyn FileSystem>,
        );
    }
    mux
}

/// A flat shadow model of one file.
struct Model {
    data: Vec<u8>,
    size: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            data: vec![0u8; (2 * REGION) as usize],
            size: 0,
        }
    }

    fn write(&mut self, off: u64, buf: &[u8]) {
        self.data[off as usize..off as usize + buf.len()].copy_from_slice(buf);
        self.size = self.size.max(off + buf.len() as u64);
    }

    fn read(&self, off: u64, len: u64) -> Vec<u8> {
        if off >= self.size {
            return Vec::new();
        }
        let end = (off + len).min(self.size);
        self.data[off as usize..end as usize].to_vec()
    }

    fn punch(&mut self, off: u64, len: u64) {
        let end = ((off + len) as usize).min(self.data.len());
        self.data[off as usize..end].fill(0);
    }

    fn truncate(&mut self, size: u64) {
        if size < self.size {
            self.data[size as usize..self.size as usize].fill(0);
        }
        self.size = size;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mux_matches_flat_file_model(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        scm_cache in any::<bool>(),
    ) {
        let mux = build_mux();
        if scm_cache {
            // An SCM cache in front of the SSD and HDD tiers: every
            // mutation below must also keep *it* in line.
            let scm = Device::with_profile(simdev::pmem(), 16 << 20, VirtualClock::new());
            let window = DaxWindow::new(scm, vec![(0, 2 * REGION)]);
            let cache = CacheController::new(Box::new(window), CacheConfig::default());
            mux.attach_cache(Arc::new(cache));
        }
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        let mut model = Model::new();
        for op in &ops {
            match *op {
                Op::Write { off, len, fill } => {
                    let len = len.min(REGION - off).max(1);
                    let buf = vec![fill; len as usize];
                    prop_assert_eq!(mux.write(f.ino, off, &buf).unwrap(), buf.len());
                    model.write(off, &buf);
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    let n = mux.read(f.ino, off, &mut buf).unwrap();
                    let want = model.read(off, len);
                    prop_assert_eq!(&buf[..n], &want[..], "read at {}+{}", off, len);
                }
                Op::Punch { off, len } => {
                    mux.punch_hole(f.ino, off, len).unwrap();
                    model.punch(off, len);
                }
                Op::Truncate { size } => {
                    mux.setattr(f.ino, &SetAttr::truncate(size)).unwrap();
                    model.truncate(size);
                }
                Op::Migrate { block, n, to } => {
                    mux.migrate_range(f.ino, block, n, to).unwrap();
                    // No model change: migration must be invisible.
                }
                Op::Mirror { block, n, to } => {
                    mux.mirror_range(f.ino, block, n, to).unwrap();
                    // Nor a replica.
                }
            }
            // Size invariant holds continuously.
            prop_assert_eq!(mux.getattr(f.ino).unwrap().size, model.size);
            // The replica map never outlives its blocks: every replica
            // extent lies inside one placement extent, below EOF.
            let placement = mux.file_placement(f.ino).unwrap();
            for (s, l, t) in mux.file_replicas(f.ino).unwrap() {
                let mapped = |b| placement.iter().any(|&(ps, pl, _)| ps <= b && b < ps + pl);
                prop_assert!(
                    (s..s + l).all(mapped),
                    "replica {:?} on tier {} mirrors an unmapped block (placement {:?})",
                    (s, l), t, placement
                );
                prop_assert!((s + l - 1) * BLOCK < model.size, "replica {:?} past EOF", (s, l));
            }
        }
        // Final full-content comparison.
        let mut buf = vec![0u8; model.size as usize];
        let n = mux.read(f.ino, 0, &mut buf).unwrap();
        prop_assert_eq!(n as u64, model.size);
        prop_assert_eq!(&buf[..], &model.data[..model.size as usize]);
    }

    #[test]
    fn concurrent_writes_plus_migration_are_serializable(
        plans in proptest::collection::vec(
            proptest::collection::vec((0..16u64, 1..255u8), 1..12),
            2..5,
        ),
        mig in (0..(REGION / BLOCK), 1..16u64, 0..3u32),
    ) {
        // Each thread owns a disjoint block set (blocks ≡ t mod T), so
        // the final content is determined by per-thread program order
        // alone: whatever the interleaving, the outcome must equal the
        // serial execution thread 0, then 1, … (any serial order gives
        // the same bytes). One migration runs concurrently and must be
        // invisible.
        let mux = build_mux();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        let threads = plans.len() as u64;
        let barrier = std::sync::Barrier::new(plans.len() + 1);
        std::thread::scope(|s| {
            for (t, plan) in plans.iter().enumerate() {
                let mux = Arc::clone(&mux);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for &(slot, fill) in plan {
                        let block = slot * threads + t as u64;
                        let buf = vec![fill; BLOCK as usize];
                        mux.write(f.ino, block * BLOCK, &buf).unwrap();
                    }
                });
            }
            let mux = Arc::clone(&mux);
            let barrier = &barrier;
            let (block, n, to) = mig;
            s.spawn(move || {
                barrier.wait();
                mux.migrate_range(f.ino, block, n, to).unwrap();
            });
        });
        // Serial replay into a flat model.
        let mut model = Model::new();
        for (t, plan) in plans.iter().enumerate() {
            for &(slot, fill) in plan {
                let block = slot * threads + t as u64;
                model.write(block * BLOCK, &vec![fill; BLOCK as usize]);
            }
        }
        prop_assert_eq!(mux.getattr(f.ino).unwrap().size, model.size);
        let mut buf = vec![0u8; model.size as usize];
        let n_read = mux.read(f.ino, 0, &mut buf).unwrap();
        prop_assert_eq!(n_read as u64, model.size);
        prop_assert_eq!(&buf[..], &model.data[..model.size as usize]);
    }

    #[test]
    fn fastpath_reads_equal_slowpath_reads_under_random_invalidations(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        // Two identically-driven stacks — fast path on (default) vs off —
        // must return byte-identical reads no matter how writes, punches,
        // truncates and migrations (every invalidation source) interleave
        // with the reads. Each read runs twice so the second one lands on
        // a freshly-populated fast-path entry whenever one is cacheable.
        let fast = build_mux();
        let slow = build_mux_with(MuxOptions {
            fastpath: FastPathConfig { enabled: false, ..Default::default() },
            ..Default::default()
        });
        let ff = fast.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        let sf = slow.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        for op in &ops {
            match *op {
                Op::Write { off, len, fill } => {
                    let len = len.min(REGION - off).max(1);
                    let buf = vec![fill; len as usize];
                    prop_assert_eq!(fast.write(ff.ino, off, &buf).unwrap(), buf.len());
                    prop_assert_eq!(slow.write(sf.ino, off, &buf).unwrap(), buf.len());
                }
                Op::Read { off, len } => {
                    for pass in 0..2 {
                        let mut fbuf = vec![0u8; len as usize];
                        let mut sbuf = vec![0u8; len as usize];
                        let fn_ = fast.read(ff.ino, off, &mut fbuf).unwrap();
                        let sn = slow.read(sf.ino, off, &mut sbuf).unwrap();
                        prop_assert_eq!(fn_, sn, "len at {}+{} pass {}", off, len, pass);
                        prop_assert_eq!(
                            &fbuf[..fn_], &sbuf[..sn],
                            "bytes at {}+{} pass {}", off, len, pass
                        );
                    }
                }
                Op::Punch { off, len } => {
                    fast.punch_hole(ff.ino, off, len).unwrap();
                    slow.punch_hole(sf.ino, off, len).unwrap();
                }
                Op::Truncate { size } => {
                    fast.setattr(ff.ino, &SetAttr::truncate(size)).unwrap();
                    slow.setattr(sf.ino, &SetAttr::truncate(size)).unwrap();
                }
                Op::Migrate { block, n, to } => {
                    fast.migrate_range(ff.ino, block, n, to).unwrap();
                    slow.migrate_range(sf.ino, block, n, to).unwrap();
                }
                Op::Mirror { block, n, to } => {
                    fast.mirror_range(ff.ino, block, n, to).unwrap();
                    slow.mirror_range(sf.ino, block, n, to).unwrap();
                }
            }
        }
        // Final sweep: every block read both ways, twice (populate + hit).
        for _ in 0..2 {
            let size = fast.getattr(ff.ino).unwrap().size;
            prop_assert_eq!(size, slow.getattr(sf.ino).unwrap().size);
            for b in 0..size.div_ceil(BLOCK) {
                let mut fbuf = vec![0u8; BLOCK as usize];
                let mut sbuf = vec![0u8; BLOCK as usize];
                let fn_ = fast.read(ff.ino, b * BLOCK, &mut fbuf).unwrap();
                let sn = slow.read(sf.ino, b * BLOCK, &mut sbuf).unwrap();
                prop_assert_eq!(fn_, sn, "final block {}", b);
                prop_assert_eq!(&fbuf[..fn_], &sbuf[..sn], "final block {}", b);
            }
        }
        // The equivalence is vacuous if the fast stack never actually hit
        // its cache. The final sweep guarantees hits whenever some whole
        // block lives on a cacheable tier (the fast path deliberately
        // skips the HDD class, tier 2 here, and the short read of a
        // partly filled last block), so only files without one may skip
        // this.
        let snap = fast.stats().snapshot();
        let size = fast.getattr(ff.ino).unwrap().size;
        let cacheable = fast
            .file_placement(ff.ino)
            .unwrap()
            .iter()
            .any(|&(start, _, tid)| tid != 2 && (start + 1) * BLOCK <= size);
        if cacheable {
            prop_assert!(snap.fastpath_hits > 0, "fast path never engaged");
        }
    }

    #[test]
    fn bytemap_roundtrip_is_identity(
        extents in proptest::collection::vec((0..512u64, 1..32u64, 0..4u32), 0..24)
    ) {
        let mut blt = mux::BlockLookupTable::new();
        for &(start, len, tier) in &extents {
            blt.assign(start, len, tier);
        }
        let decoded = mux::BlockLookupTable::decode_bytemap(&blt.encode_bytemap());
        for b in 0..600u64 {
            prop_assert_eq!(decoded.tier_of(b), blt.tier_of(b), "block {}", b);
        }
        prop_assert_eq!(decoded.mapped_blocks(), blt.mapped_blocks());
    }
}
