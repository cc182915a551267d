//! Edge cases of the metafile persistence and recovery paths.

use std::sync::Arc;

use mux::persist::IntentKind;
use mux::{LruPolicy, Mux, MuxOptions, PinnedPolicy, TierConfig, BLOCK};
use simdev::{DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, OpenFlags, Vfs, ROOT_INO};

fn tier_pair() -> (Arc<MemFs>, Arc<MemFs>) {
    (
        Arc::new(MemFs::new("a", 1 << 28)),
        Arc::new(MemFs::new("b", 1 << 28)),
    )
}

fn configs(a: &Arc<MemFs>, b: &Arc<MemFs>) -> Vec<(TierConfig, Arc<dyn FileSystem>)> {
    vec![
        (
            TierConfig {
                name: "a".into(),
                class: DeviceClass::Pmem,
            },
            a.clone() as Arc<dyn FileSystem>,
        ),
        (
            TierConfig {
                name: "b".into(),
                class: DeviceClass::Ssd,
            },
            b.clone() as Arc<dyn FileSystem>,
        ),
    ]
}

#[test]
fn recovery_with_corrupt_snapshot_falls_back_to_reconciliation() {
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(LruPolicy::default_watermarks()),
            MuxOptions::default(),
        );
        for (cfg, fs) in configs(&a, &b) {
            mux.add_tier(cfg, fs);
        }
        mux.enable_metafile(0).unwrap();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        mux.write(f.ino, 0, &vec![3u8; (2 * BLOCK) as usize])
            .unwrap();
        mux.sync().unwrap();
    }
    // Corrupt the snapshot's magic.
    let snap = a.lookup(ROOT_INO, ".mux.snapshot").unwrap();
    a.write(snap.ino, 0, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
    // Recovery must not succeed with garbage — it errors on the snapshot…
    let r = Mux::recover(
        clock.clone(),
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        configs(&a, &b),
        0,
    );
    assert!(r.is_err(), "corrupt snapshot must be detected");
    // …but after deleting the bad snapshot, reconciliation rebuilds the
    // namespace directly from the tiers.
    a.unlink(ROOT_INO, ".mux.snapshot").unwrap();
    let mux2 = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        configs(&a, &b),
        0,
    )
    .unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    let mut buf = vec![0u8; (2 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 3));
}

#[test]
fn torn_begin_intent_before_any_copy_is_harmless() {
    // Reachable crash point: the begin-intent append tore before its
    // fsync completed — which means no copy bytes ever reached the
    // destination. Recovery sees no valid intent and keeps the primary.
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        for (cfg, fs) in configs(&a, &b) {
            mux.add_tier(cfg, fs);
        }
        mux.enable_metafile(0).unwrap();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        mux.write(f.ino, 0, &vec![5u8; (4 * BLOCK) as usize])
            .unwrap();
        mux.snapshot_metafile().unwrap();
    }
    // A torn begin record: 11 garbage bytes (< one full record).
    let intents = a.lookup(ROOT_INO, ".mux.intents").unwrap();
    a.write(intents.ino, 0, &[1u8; 11]).unwrap();
    let mux2 = Mux::recover(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
        configs(&a, &b),
        0,
    )
    .unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    let mut buf = vec![0u8; (4 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 5));
}

#[test]
fn uncommitted_migration_debris_is_punched_on_recovery() {
    // Reachable crash point: begin intent durable, copy half-landed on
    // the destination, no commit record. Recovery must punch the debris
    // and keep serving from the (intact) source.
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    let ino;
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        for (cfg, fs) in configs(&a, &b) {
            mux.add_tier(cfg, fs);
        }
        mux.enable_metafile(0).unwrap();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        ino = f.ino;
        mux.write(f.ino, 0, &vec![5u8; (4 * BLOCK) as usize])
            .unwrap();
        mux.snapshot_metafile().unwrap();
        // Simulate the crash window inside migrate_range: intent journaled,
        // then half the copy lands on the destination, then power fails.
        mux.journal(IntentKind::MoveBegin, f.ino, 0, 2, 1).unwrap();
    }
    let bf = b.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    b.write(bf.ino, 0, &vec![0xEEu8; BLOCK as usize]).unwrap(); // debris
    let mux2 = Mux::recover(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
        configs(&a, &b),
        0,
    )
    .unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    assert_eq!(f.ino, ino);
    let mut buf = vec![0u8; (4 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&x| x == 5),
        "debris must not shadow the source copy"
    );
    // And the debris block really was punched from the destination.
    assert_eq!(b.lookup(ROOT_INO, "f").unwrap().blocks_bytes, 0);
}

/// Builds a two-tier Mux, writes one synced file, and returns the tiers
/// (with a valid snapshot + empty journal on tier a).
fn synced_stack(clock: &VirtualClock) -> (Arc<MemFs>, Arc<MemFs>, u64) {
    let (a, b) = tier_pair();
    let ino;
    {
        let mux = Mux::new(
            clock.clone(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        for (cfg, fs) in configs(&a, &b) {
            mux.add_tier(cfg, fs);
        }
        mux.enable_metafile(0).unwrap();
        let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        ino = f.ino;
        mux.write(f.ino, 0, &vec![7u8; (4 * BLOCK) as usize])
            .unwrap();
        mux.sync().unwrap();
    }
    (a, b, ino)
}

fn recover_pair(clock: &VirtualClock, a: &Arc<MemFs>, b: &Arc<MemFs>) -> tvfs::VfsResult<Mux> {
    Mux::recover(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
        configs(a, b),
        0,
    )
}

#[test]
fn truncated_snapshot_never_panics_and_reports_corruption() {
    // Every truncation point of a valid snapshot must either fail cleanly
    // (truncated structure detected) or recover (empty file ≡ no
    // snapshot); none may panic or invent data.
    let clock = VirtualClock::new();
    let (a, b, _) = synced_stack(&clock);
    let snap = a.lookup(ROOT_INO, ".mux.snapshot").unwrap();
    let mut raw = vec![0u8; snap.size as usize];
    a.read(snap.ino, 0, &mut raw).unwrap();
    for cut in 0..raw.len() {
        let (a2, b2) = tier_pair();
        // Rebuild tier contents: copy natives, then install the cut
        // snapshot.
        copy_root(&a, &a2);
        copy_root(&b, &b2);
        let s2 = a2.lookup(ROOT_INO, ".mux.snapshot").unwrap();
        a2.setattr(s2.ino, &tvfs::SetAttr::truncate(0)).unwrap();
        a2.write(s2.ino, 0, &raw[..cut]).unwrap();
        match recover_pair(&clock, &a2, &b2) {
            Ok(m) => {
                // Whatever recovered must serve the synced file intact.
                let f = m.lookup(ROOT_INO, "f").unwrap();
                let mut buf = vec![0u8; (4 * BLOCK) as usize];
                m.read(f.ino, 0, &mut buf).unwrap();
                assert!(buf.iter().all(|&x| x == 7), "cut={cut}");
            }
            Err(e) => {
                assert!(
                    matches!(e, tvfs::VfsError::Corrupt { .. }),
                    "cut={cut}: unexpected error class {e}"
                );
            }
        }
    }
}

/// Copies every regular file in `src`'s root into `dst` (test helper for
/// cloning MemFs tier images).
fn copy_root(src: &Arc<MemFs>, dst: &Arc<MemFs>) {
    for e in src.readdir(ROOT_INO).unwrap() {
        if e.kind != FileType::Regular {
            continue;
        }
        let attr = src.getattr(e.ino).unwrap();
        let mut data = vec![0u8; attr.size as usize];
        src.read(e.ino, 0, &mut data).unwrap();
        let n = dst
            .create(ROOT_INO, &e.name, FileType::Regular, 0o644)
            .unwrap();
        dst.write(n.ino, 0, &data).unwrap();
    }
}

#[test]
fn duplicate_commit_records_replay_idempotently() {
    // A crash between the commit append and the journal truncate can
    // leave the same COMMIT twice (append retried). The union collapse
    // must treat them as one: blocks stay on the destination, nothing is
    // punched twice, recovery succeeds.
    let clock = VirtualClock::new();
    let (a, b, ino) = synced_stack(&clock);
    {
        let mux = recover_pair(&clock, &a, &b).unwrap();
        mux.migrate_range(ino, 0, 2, 1).unwrap();
        // Journal a duplicate of the COMMIT the migration just wrote.
        mux.journal(IntentKind::MoveCommit, ino, 0, 2, 1).unwrap();
    }
    let mux2 = recover_pair(&clock, &a, &b).unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    let mut buf = vec![0u8; (4 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 7));
}

#[test]
fn begin_with_no_commit_keeps_source_authoritative() {
    // The journal ends in a bare BEGIN: the migration never committed,
    // so recovery must serve every block from the source, regardless of
    // what reached the destination.
    let clock = VirtualClock::new();
    let (a, b, ino) = synced_stack(&clock);
    {
        let mux = recover_pair(&clock, &a, &b).unwrap();
        mux.journal(IntentKind::MoveBegin, ino, 1, 2, 1).unwrap();
    }
    let mux2 = recover_pair(&clock, &a, &b).unwrap();
    let f = mux2.lookup(ROOT_INO, "f").unwrap();
    let mut buf = vec![0u8; (4 * BLOCK) as usize];
    mux2.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 7));
}

#[test]
fn empty_intent_journal_recovers() {
    let clock = VirtualClock::new();
    let (a, b, _) = synced_stack(&clock);
    // sync() truncates the journal, so it is already empty — recovery
    // must treat a zero-length journal as "nothing to replay".
    let intents = a.lookup(ROOT_INO, ".mux.intents").unwrap();
    assert_eq!(intents.size, 0);
    let mux2 = recover_pair(&clock, &a, &b).unwrap();
    assert!(mux2.lookup(ROOT_INO, "f").is_ok());
}

mod corrupt_snapshot_fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Arbitrary byte mutations of a valid snapshot (flips at random
        /// offsets plus a random truncation) must never panic recovery:
        /// every outcome is either a clean `Corrupt` error or a
        /// successful recovery that still serves the synced file.
        #[test]
        fn arbitrary_snapshot_corruption_never_panics(
            flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..16),
            cut in any::<u16>(),
        ) {
            let clock = VirtualClock::new();
            let (a, b, _) = synced_stack(&clock);
            let snap = a.lookup(ROOT_INO, ".mux.snapshot").unwrap();
            let mut raw = vec![0u8; snap.size as usize];
            a.read(snap.ino, 0, &mut raw).unwrap();
            for (off, byte) in flips {
                let i = off as usize % raw.len();
                raw[i] ^= byte;
            }
            let keep = raw.len() - (cut as usize % raw.len());
            raw.truncate(keep);
            a.setattr(snap.ino, &tvfs::SetAttr::truncate(0)).unwrap();
            a.write(snap.ino, 0, &raw).unwrap();
            match recover_pair(&clock, &a, &b) {
                Ok(m) => {
                    let f = m.lookup(ROOT_INO, "f").unwrap();
                    let mut buf = vec![0u8; (4 * BLOCK) as usize];
                    m.read(f.ino, 0, &mut buf).unwrap();
                    prop_assert!(buf.iter().all(|&x| x == 7));
                }
                Err(e) => prop_assert!(
                    matches!(e, tvfs::VfsError::Corrupt { .. }),
                    "unexpected error class: {e}"
                ),
            }
        }
    }
}

#[test]
fn periodic_snapshots_via_snapshot_every() {
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    let mux = Mux::new(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions {
            snapshot_every: 4,
            ..Default::default()
        },
    );
    for (cfg, fs) in configs(&a, &b) {
        mux.add_tier(cfg, fs);
    }
    mux.enable_metafile(0).unwrap();
    // Each create is a metadata mutation; every 4th snapshots.
    for i in 0..9 {
        mux.create(ROOT_INO, &format!("f{i}"), FileType::Regular, 0o644)
            .unwrap();
    }
    let snap = a.lookup(ROOT_INO, ".mux.snapshot").unwrap();
    assert!(snap.size > 0, "automatic snapshot never happened");
}

#[test]
fn mux_behind_vfs_mount_with_metafile() {
    // The full composition: applications → Vfs → Mux → tiers, with the
    // metafile enabled, exercised through paths only.
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    let mux = Arc::new(Mux::new(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
    ));
    for (cfg, fs) in configs(&a, &b) {
        mux.add_tier(cfg, fs);
    }
    mux.enable_metafile(0).unwrap();
    let vfs = Vfs::new();
    vfs.mount("/", mux).unwrap();
    vfs.mkdir("/data").unwrap();
    let fd = vfs.open("/data/file.bin", OpenFlags::read_write()).unwrap();
    vfs.write(fd, &vec![9u8; 10_000]).unwrap();
    vfs.fsync(fd).unwrap();
    vfs.close(fd).unwrap();
    // The metafile snapshot lives on tier a, invisible to the Mux
    // namespace but present on the native FS.
    assert!(a.lookup(ROOT_INO, ".mux.snapshot").is_ok());
    assert!(vfs.stat("/.mux.snapshot").is_err());
    assert_eq!(vfs.stat("/data/file.bin").unwrap().size, 10_000);
}
