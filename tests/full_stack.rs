//! End-to-end integration tests over the real stack: simulated devices →
//! novafs/xefs/e4fs → Mux, exercised through the `tvfs::Vfs` POSIX-ish
//! layer exactly as an application would.

use std::sync::Arc;

use mux::{LruPolicy, Mux, MuxOptions, PinnedPolicy, StripingPolicy, TierConfig, BLOCK};
use simdev::{DeviceClass, VirtualClock};
use tvfs::{FileSystem, FileType, OpenFlags, Vfs, ROOT_INO};
use workloads::{pattern_at, pattern_check, UniformRandom};

fn hierarchy() -> (Arc<Mux>, VirtualClock, [simdev::Device; 3]) {
    mux_repro::default_hierarchy(64 << 20, 256 << 20, 1 << 30)
}

#[test]
fn vfs_posix_surface_over_mux() {
    let (mux, _clock, _devs) = hierarchy();
    let vfs = Vfs::new();
    vfs.mount("/", mux).unwrap();
    vfs.mkdir("/home").unwrap();
    vfs.mkdir("/home/user").unwrap();
    let fd = vfs
        .open("/home/user/notes.txt", OpenFlags::read_write())
        .unwrap();
    vfs.write(fd, b"first line\n").unwrap();
    vfs.write(fd, b"second line\n").unwrap();
    vfs.fsync(fd).unwrap();
    vfs.seek(fd, 0).unwrap();
    let mut buf = [0u8; 23];
    assert_eq!(vfs.read(fd, &mut buf).unwrap(), 23);
    assert_eq!(&buf, b"first line\nsecond line\n");
    vfs.close(fd).unwrap();
    // Rename + stat through the VFS.
    vfs.rename("/home/user/notes.txt", "/home/user/log.txt")
        .unwrap();
    assert_eq!(vfs.stat("/home/user/log.txt").unwrap().size, 23);
    assert!(vfs.stat("/home/user/notes.txt").is_err());
    let names: Vec<String> = vfs
        .readdir("/home/user")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["log.txt"]);
}

#[test]
fn large_file_lifecycle_across_real_tiers() {
    let (mux, _clock, devs) = hierarchy();
    let f = mux
        .create(ROOT_INO, "big.dat", FileType::Regular, 0o644)
        .unwrap();
    // 8 MiB in 1 MiB chunks with verifiable contents.
    for i in 0..8u64 {
        let off = i << 20;
        mux.write(f.ino, off, &pattern_at(off, 1 << 20)).unwrap();
    }
    mux.fsync(f.ino).unwrap();
    // Bounce it across every tier, verifying after each hop.
    for &tier in &[1u32, 2, 0, 2, 1, 0] {
        mux.migrate_file(f.ino, tier).unwrap();
        let mut buf = vec![0u8; 1 << 20];
        for i in 0..8u64 {
            let off = i << 20;
            assert_eq!(mux.read(f.ino, off, &mut buf).unwrap(), 1 << 20);
            assert!(
                pattern_check(off, &buf),
                "chunk {i} corrupted on tier {tier}"
            );
        }
    }
    // All three devices genuinely saw traffic.
    for (i, d) in devs.iter().enumerate() {
        assert!(
            d.stats().snapshot().bytes_written > 8 << 20,
            "device {i} never got the data"
        );
    }
}

#[test]
fn random_io_consistency_against_shadow_model() {
    let (mux, _clock, _devs) = hierarchy();
    let f = mux
        .create(ROOT_INO, "rand.dat", FileType::Regular, 0o644)
        .unwrap();
    let region = 2u64 << 20;
    let mut shadow = vec![0u8; region as usize];
    let mut gen = UniformRandom::new(region - 8192, 1, 1, 99);
    for i in 0..500u64 {
        let off = gen.next_off();
        let len = 1 + (i % 8192);
        let data: Vec<u8> = (0..len).map(|j| ((i + j) % 251) as u8).collect();
        mux.write(f.ino, off, &data).unwrap();
        shadow[off as usize..off as usize + data.len()].copy_from_slice(&data);
        if i % 100 == 50 {
            // Interleave migrations to shuffle placement mid-run.
            mux.migrate_range(f.ino, 0, region / BLOCK, (i % 3) as u32)
                .unwrap();
        }
    }
    let size = mux.getattr(f.ino).unwrap().size;
    let mut buf = vec![0u8; size as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert_eq!(
        &buf[..],
        &shadow[..size as usize],
        "content diverged from model"
    );
}

#[test]
fn striped_file_lands_on_all_three_real_file_systems() {
    let clock = VirtualClock::new();
    let pm = simdev::Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let ssd = simdev::Device::with_profile(simdev::nvme_ssd(), 128 << 20, clock.clone());
    let hdd = simdev::Device::with_profile(simdev::hdd(), 256 << 20, clock.clone());
    let nova = Arc::new(novafs::NovaFs::format(pm, novafs::NovaOptions::default()).unwrap());
    let xe = Arc::new(xefs::XeFs::format(ssd, xefs::XeOptions::default()).unwrap());
    let e4 = Arc::new(e4fs::E4Fs::format(hdd, e4fs::E4Options::default()).unwrap());
    let mux = Mux::new(
        clock,
        Arc::new(StripingPolicy::new(4)),
        MuxOptions::default(),
    );
    mux.add_tier(
        TierConfig {
            name: "pm".into(),
            class: DeviceClass::Pmem,
        },
        nova.clone() as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "ssd".into(),
            class: DeviceClass::Ssd,
        },
        xe.clone() as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "hdd".into(),
            class: DeviceClass::Hdd,
        },
        e4.clone() as Arc<dyn FileSystem>,
    );
    let f = mux
        .create(ROOT_INO, "striped", FileType::Regular, 0o644)
        .unwrap();
    let data = pattern_at(0, (24 * BLOCK) as usize);
    mux.write(f.ino, 0, &data).unwrap();
    mux.fsync(f.ino).unwrap();
    // The same file name exists in all three native file systems, each
    // holding a sparse slice (§2.1/§2.2).
    for fs in [
        nova as Arc<dyn FileSystem>,
        xe as Arc<dyn FileSystem>,
        e4 as Arc<dyn FileSystem>,
    ] {
        let attr = fs.lookup(ROOT_INO, "striped").unwrap();
        assert!(attr.blocks_bytes > 0, "{} holds no blocks", fs.fs_name());
        assert!(
            attr.blocks_bytes < 24 * BLOCK,
            "{} holds everything",
            fs.fs_name()
        );
    }
    let mut buf = vec![0u8; data.len()];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf));
}

#[test]
fn crash_recovery_full_stack() {
    let clock = VirtualClock::new();
    let pm = simdev::Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let ssd = simdev::Device::with_profile(simdev::nvme_ssd(), 128 << 20, clock.clone());
    let data = pattern_at(0, 300_000);
    {
        let nova =
            Arc::new(novafs::NovaFs::format(pm.clone(), novafs::NovaOptions::default()).unwrap());
        let xe = Arc::new(xefs::XeFs::format(ssd.clone(), xefs::XeOptions::default()).unwrap());
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
            nova as Arc<dyn FileSystem>,
        );
        mux.add_tier(
            TierConfig {
                name: "ssd".into(),
                class: DeviceClass::Ssd,
            },
            xe as Arc<dyn FileSystem>,
        );
        mux.enable_metafile(0).unwrap();
        let d = mux
            .create(ROOT_INO, "dir", FileType::Directory, 0o755)
            .unwrap();
        let f = mux.create(d.ino, "file", FileType::Regular, 0o644).unwrap();
        mux.write(f.ino, 0, &data).unwrap();
        // Split across both tiers, then make everything durable.
        mux.migrate_range(f.ino, 0, 36, 1).unwrap();
        mux.fsync(f.ino).unwrap();
    }
    pm.crash();
    ssd.crash();
    // Remount everything through real recovery paths.
    let nova = Arc::new(novafs::NovaFs::mount(pm, novafs::NovaOptions::default()).unwrap());
    let xe = Arc::new(xefs::XeFs::mount(ssd, xefs::XeOptions::default()).unwrap());
    let mux = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        vec![
            (
                TierConfig {
                    name: "pm".into(),
                    class: DeviceClass::Pmem,
                },
                nova as Arc<dyn FileSystem>,
            ),
            (
                TierConfig {
                    name: "ssd".into(),
                    class: DeviceClass::Ssd,
                },
                xe as Arc<dyn FileSystem>,
            ),
        ],
        0,
    )
    .unwrap();
    let d = mux.lookup(ROOT_INO, "dir").unwrap();
    let f = mux.lookup(d.ino, "file").unwrap();
    assert_eq!(f.size, data.len() as u64);
    let mut buf = vec![0u8; data.len()];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf), "fsynced data lost across crash");
}

#[test]
fn crash_mid_migration_never_loses_committed_data() {
    // Crash after the copy but before any source reclaim has been
    // persisted: recovery must come back with exactly one consistent copy.
    let clock = VirtualClock::new();
    let pm = simdev::Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let ssd = simdev::Device::with_profile(simdev::nvme_ssd(), 128 << 20, clock.clone());
    let data = pattern_at(0, (16 * BLOCK) as usize);
    {
        let nova =
            Arc::new(novafs::NovaFs::format(pm.clone(), novafs::NovaOptions::default()).unwrap());
        let xe = Arc::new(xefs::XeFs::format(ssd.clone(), xefs::XeOptions::default()).unwrap());
        let mux = Mux::new(
            clock.clone(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        mux.add_tier(
            TierConfig {
                name: "pm".into(),
                class: DeviceClass::Pmem,
            },
            nova as Arc<dyn FileSystem>,
        );
        mux.add_tier(
            TierConfig {
                name: "ssd".into(),
                class: DeviceClass::Ssd,
            },
            xe as Arc<dyn FileSystem>,
        );
        mux.enable_metafile(0).unwrap();
        let f = mux
            .create(ROOT_INO, "mig", FileType::Regular, 0o644)
            .unwrap();
        mux.write(f.ino, 0, &data).unwrap();
        mux.fsync(f.ino).unwrap();
        mux.migrate_range(f.ino, 0, 16, 1).unwrap();
        // Deliberately NO final fsync/snapshot: the BLT move lives only in
        // the intent journal. Crash now.
    }
    pm.crash();
    ssd.crash();
    let nova = Arc::new(novafs::NovaFs::mount(pm, novafs::NovaOptions::default()).unwrap());
    let xe = Arc::new(xefs::XeFs::mount(ssd, xefs::XeOptions::default()).unwrap());
    let mux = Mux::recover(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
        vec![
            (
                TierConfig {
                    name: "pm".into(),
                    class: DeviceClass::Pmem,
                },
                nova as Arc<dyn FileSystem>,
            ),
            (
                TierConfig {
                    name: "ssd".into(),
                    class: DeviceClass::Ssd,
                },
                xe as Arc<dyn FileSystem>,
            ),
        ],
        0,
    )
    .unwrap();
    let f = mux.lookup(ROOT_INO, "mig").unwrap();
    let mut buf = vec![0u8; data.len()];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(
        pattern_check(0, &buf),
        "data lost or corrupted across mid-migration crash"
    );
}

#[test]
fn tier_added_and_removed_at_runtime_over_real_fs() {
    let (mux, clock, _devs) = hierarchy();
    let f = mux
        .create(ROOT_INO, "mobile", FileType::Regular, 0o644)
        .unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (32 * BLOCK) as usize))
        .unwrap();
    // Add a CXL-SSD fourth tier backed by a real xefs instance.
    let cxl_dev = simdev::Device::with_profile(simdev::cxl_ssd(), 128 << 20, clock);
    let cxl_fs = Arc::new(xefs::XeFs::format(cxl_dev, xefs::XeOptions::default()).unwrap());
    let id = mux.add_tier(
        TierConfig {
            name: "cxl".into(),
            class: DeviceClass::CxlSsd,
        },
        cxl_fs.clone() as Arc<dyn FileSystem>,
    );
    mux.migrate_file(f.ino, id).unwrap();
    assert!(cxl_fs.lookup(ROOT_INO, "mobile").unwrap().blocks_bytes > 0);
    // Remove it: Mux must drain the data off first (§2.1).
    mux.remove_tier(id).unwrap();
    assert_eq!(cxl_fs.lookup(ROOT_INO, "mobile").unwrap().blocks_bytes, 0);
    let mut buf = vec![0u8; (32 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf), "data lost during tier removal");
}

#[test]
fn policy_migration_pass_respects_capacity_pressure() {
    // Small PM tier fills; the LRU policy demotes through Mux onto the
    // real SSD file system.
    let clock = VirtualClock::new();
    let pm = simdev::Device::with_profile(simdev::pmem(), 8 << 20, clock.clone());
    let ssd = simdev::Device::with_profile(simdev::nvme_ssd(), 256 << 20, clock.clone());
    let nova = Arc::new(novafs::NovaFs::format(pm, novafs::NovaOptions::default()).unwrap());
    let xe = Arc::new(xefs::XeFs::format(ssd, xefs::XeOptions::default()).unwrap());
    let mux = Mux::new(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
    );
    mux.add_tier(
        TierConfig {
            name: "pm".into(),
            class: DeviceClass::Pmem,
        },
        nova.clone() as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "ssd".into(),
            class: DeviceClass::Ssd,
        },
        xe.clone() as Arc<dyn FileSystem>,
    );
    // Write files until the PM tier is full...
    let mut inos = Vec::new();
    for i in 0..7 {
        let f = mux
            .create(ROOT_INO, &format!("f{i}"), FileType::Regular, 0o644)
            .unwrap();
        mux.write(f.ino, 0, &vec![i as u8; 1 << 20]).unwrap();
        inos.push(f.ino);
    }
    // ...then let another user of the device take all but 256 KiB of what
    // is left: the PM tier is pressured, short of its 512 KiB reserve.
    let ballast = nova
        .create(ROOT_INO, "ballast", FileType::Regular, 0o644)
        .unwrap();
    let left = nova.statfs().unwrap().free_bytes;
    nova.write(ballast.ino, 0, &vec![0xbb; (left - (256 << 10)) as usize])
        .unwrap();
    let before = mux.tier_status();
    let summary = mux.run_policy_migrations();
    let after = mux.tier_status();
    assert!(summary.executed > 0, "pressure must trigger demotion");
    let pm_before = before.iter().find(|t| t.name == "pm").unwrap().free_bytes;
    let pm_after = after.iter().find(|t| t.name == "pm").unwrap().free_bytes;
    assert!(pm_after > pm_before, "demotion must free PM space");
    // All data still correct.
    for (i, &ino) in inos.iter().enumerate() {
        let mut buf = vec![0u8; 1 << 20];
        mux.read(ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == i as u8), "file {i} corrupted");
    }
}

#[test]
fn concurrent_files_and_migrations_stress() {
    let (mux, _clock, _devs) = hierarchy();
    let mux = Arc::new(mux);
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let mux = Arc::clone(&mux);
        handles.push(std::thread::spawn(move || {
            let f = mux
                .create(ROOT_INO, &format!("t{t}"), FileType::Regular, 0o644)
                .unwrap();
            for round in 0..20u64 {
                let off = (round % 8) * BLOCK;
                let data = vec![(t * 37 + round) as u8; BLOCK as usize];
                mux.write(f.ino, off, &data).unwrap();
                if round % 5 == 4 {
                    let _ = mux.migrate_range(f.ino, 0, 8, ((t + round) % 3) as u32);
                }
                let mut buf = vec![0u8; BLOCK as usize];
                mux.read(f.ino, off, &mut buf).unwrap();
                assert_eq!(buf, data, "thread {t} round {round}");
            }
            mux.fsync(f.ino).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(mux.readdir(ROOT_INO).unwrap().len(), 4);
}

#[test]
fn scm_cache_file_on_nova_accelerates_hdd_reads() {
    // The §2.5 configuration end-to-end: a preallocated cache file on the
    // PM file system, DAX-mapped, absorbing reads of HDD-resident data.
    let clock = VirtualClock::new();
    let pm = simdev::Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let hdd = simdev::Device::with_profile(simdev::hdd(), 1 << 30, clock.clone());
    let nova = Arc::new(novafs::NovaFs::format(pm, novafs::NovaOptions::default()).unwrap());
    let e4 = Arc::new(
        e4fs::E4Fs::format(
            hdd,
            e4fs::E4Options {
                page_cache_bytes: 1 << 20, // tiny DRAM cache: SCM must work
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let mux = Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(1)), // data lives on the HDD
        mux::MuxOptions::default(),
    );
    mux.add_tier(
        TierConfig {
            name: "pm".into(),
            class: DeviceClass::Pmem,
        },
        nova.clone() as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "hdd".into(),
            class: DeviceClass::Hdd,
        },
        e4 as Arc<dyn FileSystem>,
    );
    let cache = mux_repro::scm_cache_on_nova(&nova, 8 << 20, mux::CacheConfig::default()).unwrap();
    assert_eq!(cache.capacity_blocks(), 2048);
    mux.attach_cache(Arc::clone(&cache));
    let f = mux
        .create(ROOT_INO, "cold.dat", FileType::Regular, 0o644)
        .unwrap();
    mux.write(f.ino, 0, &pattern_at(0, 4 << 20)).unwrap();
    mux.fsync(f.ino).unwrap();
    // First pass: misses fill the SCM cache; second pass: hits.
    let mut buf = vec![0u8; 4096];
    for pass in 0..2 {
        let t0 = clock.now_ns();
        for b in 0..1024u64 {
            mux.read(f.ino, b * 4096, &mut buf).unwrap();
            assert!(pattern_check(b * 4096, &buf), "pass {pass} block {b}");
        }
        let dt = clock.now_ns() - t0;
        if pass == 1 {
            let (hits, _) = cache.hit_stats();
            assert!(hits >= 1024, "second pass must hit the SCM cache");
            assert!(
                dt < 50_000_000,
                "cached pass should avoid HDD entirely, took {dt}ns"
            );
        }
    }
}
