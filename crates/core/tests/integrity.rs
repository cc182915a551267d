//! End-to-end data integrity: silent corruption injected at the device
//! layer must be *detected* by the Mux block checksums, *repaired* from a
//! healthy copy when one exists, and *contained* (quarantine + structured
//! [`VfsError::Corrupt`]) when none does — and never, under any mode,
//! returned to a caller as good data.
//!
//! Tier 0 is NovaFs on a fault-injectable simulated device (DAX: every
//! data read is a device op, so `FaultMode::BitRot` hits the foreground
//! read path directly). Tier 1 is a MemFs — no device, so replicas placed
//! there are immune to the injected rot and serve as the repair source.

use std::sync::Arc;

use proptest::prelude::*;

use mux::{Mux, MuxOptions, PinnedPolicy, TierConfig, BLOCK};
use simdev::{Device, DeviceClass, FaultMode, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, VfsError, ROOT_INO};
use workloads::{pattern_at, pattern_check};

/// Tier 0 = NovaFs on a rot-injectable device, tier 1 = MemFs (clean).
/// Health thresholds are raised far above anything the tests generate so
/// corruption strikes never fence the tier mid-test — fencing has its own
/// coverage in `tests/chaos.rs`, and here it would silently shrink the
/// detection denominator.
fn rig() -> (Arc<Mux>, Device) {
    rig_inner(true)
}

/// Like [`rig`], but with the tiering engine off — for tests that walk
/// the scrub cursor across many `maintenance_tick`s and must not have
/// background migrations bump file versions mid-pass.
fn rig_no_autotier() -> (Arc<Mux>, Device) {
    rig_inner(false)
}

fn rig_inner(autotier_enabled: bool) -> (Arc<Mux>, Device) {
    rig_custom(0, 64 << 20, |o| o.autotier.enabled = autotier_enabled)
}

/// The same two tiers with new files pinned to `pin`, a `pm_bytes`-sized
/// tier 0 and `tweak` applied to the options.
fn rig_custom(
    pin: mux::TierId,
    pm_bytes: u64,
    tweak: impl FnOnce(&mut MuxOptions),
) -> (Arc<Mux>, Device) {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::pmem(), pm_bytes, clock.clone());
    let nova =
        Arc::new(novafs::NovaFs::format(dev.clone(), novafs::NovaOptions::default()).unwrap());
    let mem = Arc::new(MemFs::new("clean-tier", 1 << 28));
    let mut opts = MuxOptions::default();
    opts.health.degraded_after = 1_000_000;
    opts.health.read_only_after = 1_000_000;
    opts.health.offline_after = 1_000_000;
    opts.health.window_error_rate = 2.0;
    tweak(&mut opts);
    let mux = Arc::new(Mux::new(clock, Arc::new(PinnedPolicy::new(pin)), opts));
    mux.add_tier(
        TierConfig {
            name: "rotting".into(),
            class: DeviceClass::Pmem,
        },
        nova as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "clean".into(),
            class: DeviceClass::Ssd,
        },
        mem as Arc<dyn FileSystem>,
    );
    (mux, dev)
}

#[test]
fn bit_rot_is_detected_and_repaired_from_replica() {
    let (mux, dev) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    const N: u64 = 16;
    mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    assert_eq!(mux.mirror_range(f.ino, 0, N, 1).unwrap(), N);
    // Every device read now flips one bit in the returned buffer: the
    // primary read rots, the bounded re-read rots again, and repair must
    // come from the replica every single time.
    dev.set_fault_mode(FaultMode::BitRot { period: 1, seed: 7 });
    let mut buf = vec![0u8; BLOCK as usize];
    for b in 0..N {
        mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
        assert!(
            pattern_check(b * BLOCK, &buf),
            "block {b}: corrupt bytes reached the caller"
        );
    }
    let s = mux.stats().snapshot();
    assert_eq!(s.corruptions_detected, N, "one detection per block");
    assert_eq!(s.corruptions_repaired, N, "every detection repaired");
    assert_eq!(s.blocks_quarantined, 0);
    assert!(dev.stats().snapshot().corruptions >= N);
    // With the fault gone the repairs hold: clean reads, no new strikes.
    dev.set_fault_mode(FaultMode::None);
    for b in 0..N {
        mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
        assert!(pattern_check(b * BLOCK, &buf));
    }
    assert_eq!(mux.stats().snapshot().corruptions_detected, N);
}

#[test]
fn rotted_fast_replica_is_repaired_from_the_clean_primary() {
    // The same rig with the roles swapped: the primary sits on the clean
    // tier and the *replica* on the rotting one, where mirror-aware source
    // selection serves the reads from.
    let (mux, dev) = rig_custom(1, 64 << 20, |_| {});
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    const N: u64 = 16;
    mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    assert_eq!(mux.mirror_range(f.ino, 0, N, 0).unwrap(), N);
    dev.set_fault_mode(FaultMode::BitRot { period: 1, seed: 7 });
    let mut buf = vec![0u8; BLOCK as usize];
    for b in 0..N {
        mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
        assert!(
            pattern_check(b * BLOCK, &buf),
            "block {b}: corrupt bytes reached the caller"
        );
    }
    let s = mux.stats().snapshot();
    assert_eq!(s.corruptions_detected, N, "one detection per block");
    assert_eq!(s.corruptions_repaired, N, "every detection repaired");
    assert_eq!(s.blocks_quarantined, 0);
}

#[test]
fn aborted_promotion_onto_a_mirror_keeps_the_mirror_whole() {
    // A promotion that runs the fast tier out of space must unwind without
    // punching the replica the range already had there — with checksums
    // off nothing downstream would catch the zeros.
    for checksums in [true, false] {
        let (mux, _dev) = rig_custom(1, 8 << 20, |o| o.integrity.checksums = checksums);
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        const N: u64 = 4096;
        mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
            .unwrap();
        assert_eq!(mux.mirror_range(f.ino, 0, 8, 0).unwrap(), 8);
        let err = mux.migrate_range(f.ino, 0, N, 0).unwrap_err();
        assert_eq!(err, VfsError::NoSpace);
        assert_eq!(mux.occ_stats().aborts(), 1);
        let reps = mux.file_replicas(f.ino).unwrap();
        assert!(reps.is_empty() || reps == [(0, 8, 0)], "replicas {reps:?}");
        let mut buf = vec![0u8; BLOCK as usize];
        for b in 0..8 {
            mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
            assert!(
                pattern_check(b * BLOCK, &buf),
                "block {b} (checksums {checksums}): the mirror lost its bytes"
            );
        }
    }
}

#[test]
fn rot_without_replica_quarantines_and_reports_corrupt() {
    let (mux, dev) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (4 * BLOCK) as usize))
        .unwrap();
    dev.set_fault_mode(FaultMode::BitRot { period: 1, seed: 9 });
    let mut buf = vec![0u8; BLOCK as usize];
    let err = mux.read(f.ino, BLOCK, &mut buf).unwrap_err();
    match err {
        VfsError::Corrupt {
            tier, ino, offset, ..
        } => {
            assert_eq!(tier, Some(0));
            assert_eq!(ino, Some(f.ino));
            assert_eq!(offset, Some(BLOCK));
        }
        other => panic!("expected structured Corrupt, got {other:?}"),
    }
    let s = mux.stats().snapshot();
    assert!(s.corruptions_detected >= 1);
    assert_eq!(s.corruptions_repaired, 0);
    assert_eq!(s.blocks_quarantined, 1);
    assert!(mux.tier_health(0).corruptions >= 1);
    // Re-reading the same block keeps failing but does not double-count
    // the quarantine.
    assert!(mux.read(f.ino, BLOCK, &mut buf).is_err());
    assert_eq!(mux.stats().snapshot().blocks_quarantined, 1);
    // Rot is persistent media decay: clearing the fault mode does not
    // heal the stored bits, so the block keeps failing…
    dev.set_fault_mode(FaultMode::None);
    assert!(mux.read(f.ino, BLOCK, &mut buf).is_err());
    // …until fresh data overwrites it — new content supersedes old
    // damage and lifts the quarantine.
    mux.write(f.ino, BLOCK, &pattern_at(999, BLOCK as usize))
        .unwrap();
    mux.read(f.ino, BLOCK, &mut buf).unwrap();
    assert!(pattern_check(999, &buf));
}

#[test]
fn sporadic_rot_without_replica_quarantines_only_whats_rotted() {
    let (mux, dev) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    const N: u64 = 32;
    mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    // Sporadic rot (about one read in eight), no replica. Rot is
    // *persistent* in this device model — a rotted block stays rotted,
    // so without a second copy the only honest outcome is quarantine.
    dev.set_fault_mode(FaultMode::BitRot { period: 8, seed: 3 });
    let mut buf = vec![0u8; BLOCK as usize];
    let mut served_clean = 0u64;
    for b in 0..N {
        if mux.read(f.ino, b * BLOCK, &mut buf).is_ok() {
            assert!(
                pattern_check(b * BLOCK, &buf),
                "block {b}: corrupt bytes reached the caller"
            );
            served_clean += 1;
        }
    }
    let s = mux.stats().snapshot();
    assert!(s.corruptions_detected > 0, "period-8 rot over 32 reads");
    assert_eq!(
        s.corruptions_detected,
        s.corruptions_repaired + s.blocks_quarantined,
        "every detection either repaired or quarantined"
    );
    assert_eq!(s.corruptions_repaired, 0, "no healthy copy to repair from");
    assert_eq!(served_clean + s.blocks_quarantined, N);
    assert!(served_clean > 0, "rot must not spread beyond rotted blocks");
}

#[test]
fn lost_writes_are_caught_by_checksums() {
    let (mux, dev) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (2 * BLOCK) as usize))
        .unwrap();
    // The device acks this overwrite and drops it on the floor. The
    // checksum table records the CRC of what the caller *intended*.
    dev.set_fault_mode(FaultMode::LostWrite);
    mux.write(f.ino, 0, &pattern_at(777, BLOCK as usize))
        .unwrap();
    dev.set_fault_mode(FaultMode::None);
    // The read returns whatever the device kept — which cannot match the
    // intended write — and no healthy copy exists.
    let mut buf = vec![0u8; BLOCK as usize];
    let err = mux.read(f.ino, 0, &mut buf).unwrap_err();
    assert!(
        matches!(err, VfsError::Corrupt { .. }),
        "lost write must surface as Corrupt, got {err:?}"
    );
    let s = mux.stats().snapshot();
    assert!(s.corruptions_detected >= 1);
    assert_eq!(s.blocks_quarantined, 1);
    // The untouched block is unaffected.
    mux.read(f.ino, BLOCK, &mut buf).unwrap();
    assert!(pattern_check(BLOCK, &buf));
}

#[test]
fn scrub_finds_rot_in_cold_data_and_repairs_from_replica() {
    let (mux, dev) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    const N: u64 = 24;
    mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    assert_eq!(mux.mirror_range(f.ino, 0, N, 1).unwrap(), N);
    // Nobody reads this file — only the scrubber will. Sporadic rot on
    // the scrub reads themselves models latent sector decay.
    dev.set_fault_mode(FaultMode::BitRot {
        period: 3,
        seed: 11,
    });
    let verified = mux.scrub_everything();
    assert_eq!(verified, N, "scrub must verify every checksummed block");
    let s = mux.stats().snapshot();
    assert!(s.corruptions_detected > 0, "period-3 rot over a full pass");
    assert_eq!(
        s.corruptions_repaired, s.corruptions_detected,
        "with a replica present every detection must repair"
    );
    assert_eq!(s.blocks_quarantined, 0);
    assert_eq!(s.scrub_blocks_verified, N);
    // Foreground reads after the pass (fault off) are clean.
    dev.set_fault_mode(FaultMode::None);
    let mut buf = vec![0u8; BLOCK as usize];
    for b in 0..N {
        mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
        assert!(pattern_check(b * BLOCK, &buf));
    }
}

#[test]
fn paced_scrub_covers_everything_across_maintenance_ticks() {
    let (mux, dev) = rig_no_autotier();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    const N: u64 = 48;
    mux.write(f.ino, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    assert_eq!(mux.mirror_range(f.ino, 0, N, 1).unwrap(), N);
    dev.set_fault_mode(FaultMode::BitRot { period: 4, seed: 5 });
    // The token bucket and per-tick budget pace the walk: one tick must
    // NOT cover all 48 blocks, but repeated ticks (with virtual time
    // advancing to refill the bucket) must complete the pass.
    let clock = dev.clock();
    let first = mux.maintenance_tick().scrubbed;
    assert!(first > 0, "scrubber must make progress");
    assert!(first < N, "pacing must bound a single tick (got {first})");
    let mut total = first;
    for _ in 0..64 {
        clock.advance(100_000_000); // 100 virtual ms refills the bucket
        total += mux.maintenance_tick().scrubbed;
        if mux.stats().snapshot().scrub_passes > 0 {
            break;
        }
    }
    let s = mux.stats().snapshot();
    assert!(s.scrub_passes >= 1, "full pass never completed");
    assert!(total >= N, "every block visited at least once");
    assert_eq!(s.corruptions_repaired, s.corruptions_detected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random rot rates, seeds and file sizes: a scrub pass detects every
    /// rotted read, and the detected/repaired/quarantined ledger always
    /// balances. With a replica, repair succeeds 100% of the time —
    /// nothing stays quarantined; without one, whatever the bounded
    /// re-read cannot fix is quarantined rather than served.
    #[test]
    fn scrub_ledger_balances(
        blocks in 4u64..40,
        period in 1u64..6,
        seed in 1u64..u64::MAX,
        replicated in any::<bool>(),
    ) {
        let (mux, dev) = rig();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        mux.write(f.ino, 0, &pattern_at(0, (blocks * BLOCK) as usize)).unwrap();
        if replicated {
            prop_assert_eq!(mux.mirror_range(f.ino, 0, blocks, 1).unwrap(), blocks);
        }
        dev.set_fault_mode(FaultMode::BitRot { period, seed });
        mux.scrub_everything();
        let s = mux.stats().snapshot();
        prop_assert_eq!(s.scrub_blocks_verified + s.blocks_quarantined, blocks);
        prop_assert_eq!(
            s.corruptions_detected,
            s.corruptions_repaired + s.blocks_quarantined
        );
        if replicated {
            prop_assert_eq!(s.corruptions_repaired, s.corruptions_detected);
            prop_assert_eq!(s.blocks_quarantined, 0);
        }
        // Post-storm reads: every block either serves the exact pattern
        // or fails Corrupt — never wrong bytes.
        dev.set_fault_mode(FaultMode::None);
        let mut buf = vec![0u8; BLOCK as usize];
        for b in 0..blocks {
            match mux.read(f.ino, b * BLOCK, &mut buf) {
                Ok(_) => prop_assert!(pattern_check(b * BLOCK, &buf)),
                Err(e) => prop_assert!(matches!(e, VfsError::Corrupt { .. })),
            }
        }
    }
}
