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
        mux.snapshot_metafile().unwrap();
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

/// Builds a two-tier Mux, writes one synced file, checkpoints, and
/// returns the tiers (with a valid checkpoint + empty journal on tier a).
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
        mux.snapshot_metafile().unwrap();
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
    // The checkpoint truncated the journal, so it is already empty —
    // recovery must treat a zero-length journal as "nothing to replay".
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
fn small_fsyncs_that_cross_the_budget_checkpoint_exactly_once() {
    let clock = VirtualClock::new();
    let (a, b) = tier_pair();
    let mux = Mux::new(
        clock.clone(),
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
    );
    for (cfg, fs) in configs(&a, &b) {
        mux.add_tier(cfg, fs);
    }
    mux.enable_metafile(0).unwrap();
    let journal = a.lookup(ROOT_INO, ".mux.intents").unwrap().ino;
    let snapshot_size = || a.lookup(ROOT_INO, ".mux.snapshot").unwrap().size;
    // Each round is one create + one block + one fsync: a link record and
    // an upsert, a couple of hundred bytes against the one-block floor of
    // the budget.
    let mut grew = 0;
    let mut rounds = 0;
    while mux.stats().snapshot().checkpoints == 0 {
        let before = a.getattr(journal).unwrap().size;
        let f = mux
            .create(ROOT_INO, &format!("f{rounds}"), FileType::Regular, 0o644)
            .unwrap();
        mux.write(f.ino, 0, &vec![rounds as u8; BLOCK as usize])
            .unwrap();
        mux.fsync(f.ino).unwrap();
        let after = a.getattr(journal).unwrap().size;
        let status = mux.metalog_status();
        assert_eq!(status.journal_bytes, after);
        assert!(after <= status.journal_budget, "journal over budget");
        assert_eq!(
            (
                status.pending_records,
                status.pending_inodes,
                status.dirty_ranges
            ),
            (0, 0, 0),
            "an fsync leaves nothing queued"
        );
        if mux.stats().snapshot().checkpoints == 0 {
            assert!(after > before, "an fsync with news appends");
            assert_eq!(snapshot_size(), 0, "no checkpoint before the budget");
            grew += 1;
        } else {
            assert_eq!(after, 0, "the checkpoint truncates the journal");
        }
        rounds += 1;
        assert!(rounds < 200, "the journal never crossed one block");
    }
    assert!(
        grew >= 8,
        "the floor is a block, not a record: {grew} appends"
    );
    assert_eq!(mux.stats().snapshot().checkpoints, 1);
    assert!(snapshot_size() > 0);
    assert!(mux.stats().snapshot().metalog_bytes >= BLOCK / 2);
    // An fsync with nothing new does no journal I/O at all.
    let (writes, size) = (mux.stats().snapshot().metalog_bytes, snapshot_size());
    mux.fsync(ROOT_INO).unwrap();
    mux.sync().unwrap();
    assert_eq!(mux.stats().snapshot().metalog_bytes, writes);
    assert_eq!(a.getattr(journal).unwrap().size, 0);
    assert_eq!(snapshot_size(), size);
    mux.check_metafile().unwrap();
    // Checkpoint + nothing recovers everything.
    drop(mux);
    let back = Mux::recover(
        clock,
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
        configs(&a, &b),
        0,
    )
    .unwrap();
    for i in 0..rounds {
        let f = back.lookup(ROOT_INO, &format!("f{i}")).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        back.read(f.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == i as u8), "file f{i}");
    }
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

/// The delta log against its oracle: seeded scripts over every mutation
/// the metafile records, with the full snapshot encoding as the judge.
mod delta_log_differential {
    use super::*;
    use mux::StripingPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tvfs::{SetAttr, VfsError};

    const REGION: u64 = 24 * BLOCK;
    const SLOTS: usize = 5;
    const DIRS: usize = 2;

    /// One file of the flat model: where it is, what it holds.
    struct Flat {
        ino: u64,
        dir: Option<usize>,
        name: String,
        data: Vec<u8>,
        size: u64,
    }

    struct World {
        mux: Mux,
        /// `(ino, name)` of the directories that exist.
        dirs: [Option<(u64, String)>; DIRS],
        files: [Option<Flat>; SLOTS],
        names: u32,
    }

    fn tiers3() -> Vec<(TierConfig, Arc<dyn FileSystem>)> {
        [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd]
            .into_iter()
            .enumerate()
            .map(|(i, class)| {
                let fs = Arc::new(MemFs::new(format!("t{i}"), 1 << 28)) as Arc<dyn FileSystem>;
                let name = format!("t{i}");
                (TierConfig { name, class }, fs)
            })
            .collect()
    }

    impl World {
        fn parent(&self, dir: Option<usize>) -> u64 {
            dir.map_or(ROOT_INO, |d| self.dirs[d].as_ref().expect("dir exists").0)
        }

        fn fresh_name(&mut self, stem: &str) -> String {
            self.names += 1;
            format!("{stem}{}", self.names)
        }

        /// A directory that exists, or the root.
        fn some_dir(&self, rng: &mut StdRng) -> Option<usize> {
            let d = rng.gen_range(0..DIRS as u64 + 1) as usize;
            (d < DIRS && self.dirs[d].is_some()).then_some(d)
        }

        fn step(&mut self, rng: &mut StdRng) -> bool {
            let slot = rng.gen_range(0..SLOTS as u64) as usize;
            let (block, n, to) = (
                rng.gen_range(0..REGION / BLOCK),
                1 + rng.gen_range(0..8),
                rng.gen_range(0..3) as u32,
            );
            let live = self.files[slot].is_some();
            match (rng.gen_range(0..19), live) {
                (0 | 1, false) => {
                    let dir = self.some_dir(rng);
                    let name = self.fresh_name("f");
                    let a = self
                        .mux
                        .create(self.parent(dir), &name, FileType::Regular, 0o644)
                        .unwrap();
                    self.files[slot] = Some(Flat {
                        ino: a.ino,
                        dir,
                        name,
                        data: vec![0u8; (2 * REGION) as usize],
                        size: 0,
                    });
                }
                (2, _) if rng.gen_range(0..8) == 0 => {
                    let set = SetAttr {
                        mode: Some(0o700 + rng.gen_range(0..64) as u32),
                        ..Default::default()
                    };
                    self.mux.setattr(ROOT_INO, &set).unwrap();
                }
                (2, _) => {
                    let d = rng.gen_range(0..DIRS as u64) as usize;
                    match &self.dirs[d] {
                        None => {
                            let name = self.fresh_name("d");
                            let a = self
                                .mux
                                .create(ROOT_INO, &name, FileType::Directory, 0o755)
                                .unwrap();
                            self.dirs[d] = Some((a.ino, name));
                        }
                        // A directory that exists is renamed or chmod-ed:
                        // both are a new mkdir record of the same inode.
                        Some((ino, old)) if rng.gen_range(0..2) == 0 => {
                            let (ino, old) = (*ino, old.clone());
                            let name = self.fresh_name("d");
                            self.mux.rename(ROOT_INO, &old, ROOT_INO, &name).unwrap();
                            self.dirs[d] = Some((ino, name));
                        }
                        Some((ino, _)) => {
                            let set = SetAttr {
                                mode: Some(0o700 + rng.gen_range(0..64) as u32),
                                ..Default::default()
                            };
                            self.mux.setattr(*ino, &set).unwrap();
                        }
                    }
                }
                (3..=6, true) => {
                    let f = self.files[slot].as_mut().unwrap();
                    let off = rng.gen_range(0..REGION - 1);
                    let len = (1 + rng.gen_range(0..3 * BLOCK)).min(REGION - off);
                    let buf = vec![1 + rng.gen_range(0..255) as u8; len as usize];
                    assert_eq!(self.mux.write(f.ino, off, &buf).unwrap(), buf.len());
                    f.data[off as usize..(off + len) as usize].copy_from_slice(&buf);
                    f.size = f.size.max(off + len);
                }
                (7, true) => {
                    let f = self.files[slot].as_mut().unwrap();
                    let size = 1 + rng.gen_range(0..REGION - 1);
                    self.mux.setattr(f.ino, &SetAttr::truncate(size)).unwrap();
                    if size < f.size {
                        f.data[size as usize..f.size as usize].fill(0);
                    }
                    f.size = size;
                }
                (8, true) => {
                    let f = self.files[slot].as_mut().unwrap();
                    let (off, len) = (rng.gen_range(0..REGION), 1 + rng.gen_range(0..4 * BLOCK));
                    self.mux.punch_hole(f.ino, off, len).unwrap();
                    f.data[off as usize..(off + len) as usize].fill(0);
                }
                (9, true) => {
                    // Rename, possibly into another directory — or chmod.
                    let dir = self.some_dir(rng);
                    let name = self.fresh_name("f");
                    let to = self.parent(dir);
                    let f = self.files[slot].as_ref().unwrap();
                    let from = self.parent(f.dir);
                    self.mux.rename(from, &f.name, to, &name).unwrap();
                    let f = self.files[slot].as_mut().unwrap();
                    (f.dir, f.name) = (dir, name);
                }
                (10, true) => {
                    // Rename over another live file: its target dies.
                    let over = (slot + 1 + rng.gen_range(0..SLOTS as u64 - 1) as usize) % SLOTS;
                    let Some(victim) = self.files[over].take() else {
                        return false;
                    };
                    let f = self.files[slot].as_ref().unwrap();
                    let (from, to) = (self.parent(f.dir), self.parent(victim.dir));
                    self.mux.rename(from, &f.name, to, &victim.name).unwrap();
                    let f = self.files[slot].as_mut().unwrap();
                    (f.dir, f.name) = (victim.dir, victim.name);
                }
                (11, true) => {
                    let f = self.files[slot].take().unwrap();
                    self.mux.unlink(self.parent(f.dir), &f.name).unwrap();
                }
                (12, true) => {
                    let ino = self.files[slot].as_ref().unwrap().ino;
                    self.mux.migrate_range(ino, block, n, to).unwrap();
                }
                (13, true) => {
                    let ino = self.files[slot].as_ref().unwrap().ino;
                    self.mux.mirror_range(ino, block, n, to).unwrap();
                }
                (14, true) => {
                    let ino = self.files[slot].as_ref().unwrap().ino;
                    self.mux.unmirror_range(ino, block, n, to).unwrap();
                }
                (15, true) => {
                    let ino = self.files[slot].as_ref().unwrap().ino;
                    let set = SetAttr {
                        mode: Some(0o600 + rng.gen_range(0..64) as u32),
                        ..Default::default()
                    };
                    self.mux.setattr(ino, &set).unwrap();
                }
                (16 | 17, _) => {
                    // A file's fsync, or its directory's.
                    let ino = match &self.files[slot] {
                        Some(f) => f.ino,
                        None => ROOT_INO,
                    };
                    self.mux.fsync(ino).unwrap();
                    return true;
                }
                (18, _) => {
                    self.mux.sync().unwrap();
                    return true;
                }
                _ => {}
            }
            false
        }

        /// Every live file resolves by path and reads back as the model.
        fn verify(&self, mux: &Mux, seed: u64) {
            for f in self.files.iter().flatten() {
                let parent = match f.dir {
                    None => ROOT_INO,
                    Some(d) => {
                        let name = &self.dirs[d].as_ref().unwrap().1;
                        mux.lookup(ROOT_INO, name).unwrap().ino
                    }
                };
                let attr = mux
                    .lookup(parent, &f.name)
                    .unwrap_or_else(|e| panic!("seed {seed}: {} is gone: {e}", f.name));
                assert_eq!(attr.size, f.size, "seed {seed}: size of {}", f.name);
                let mut buf = vec![0u8; f.size as usize];
                assert_eq!(mux.read(attr.ino, 0, &mut buf).unwrap(), buf.len());
                assert!(
                    buf == f.data[..f.size as usize],
                    "seed {seed}: bytes of {}",
                    f.name
                );
            }
        }
    }

    /// Every entry below the native directory `native` is a live Mux path
    /// of the same kind below `dir`, bar the metafile's own files.
    fn native_paths_are_live(mux: &Mux, fs: &dyn FileSystem, native: u64, dir: u64, seed: u64) {
        const METAFILE: [&str; 3] = [".mux.snapshot", ".mux.snapshot.new", ".mux.intents"];
        for e in fs.readdir(native).unwrap() {
            if dir == ROOT_INO && METAFILE.contains(&e.name.as_str()) {
                continue;
            }
            let live = mux
                .lookup(dir, &e.name)
                .unwrap_or_else(|err| panic!("seed {seed}: {} has no Mux path: {err}", e.name));
            assert_eq!(live.kind, e.kind, "seed {seed}: kind of {}", e.name);
            if e.kind == FileType::Directory {
                native_paths_are_live(mux, fs, e.ino, live.ino, seed);
            }
        }
    }

    #[test]
    fn checkpoint_plus_journal_equals_a_full_snapshot_at_every_flush() {
        let (mut flushes, mut checkpoints, mut appended) = (0u64, 0u64, 0u64);
        for seed in 1..=40u64 {
            let clock = VirtualClock::new();
            let tiers = tiers3();
            let mux = Mux::new(
                clock.clone(),
                Arc::new(StripingPolicy::new(2)),
                MuxOptions::default(),
            );
            for (cfg, fs) in tiers.clone() {
                mux.add_tier(cfg, fs);
            }
            mux.enable_metafile(0).unwrap();
            let mut w = World {
                mux,
                dirs: [None, None],
                files: [None, None, None, None, None],
                names: 0,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..300 {
                if w.step(&mut rng) {
                    flushes += 1;
                    if let Err(e) = w.mux.check_metafile() {
                        panic!("seed {seed}, step {step}: {e}");
                    }
                    let status = w.mux.metalog_status();
                    assert!(status.journal_bytes <= status.journal_budget);
                    assert_eq!(
                        (
                            status.pending_records,
                            status.pending_inodes,
                            status.dirty_ranges
                        ),
                        (0, 0, 0),
                        "seed {seed}, step {step}: a flush leaves nothing queued"
                    );
                }
            }
            w.mux.sync().unwrap();
            w.mux.check_metafile().unwrap();
            for (_, fs) in &tiers {
                native_paths_are_live(&w.mux, fs.as_ref(), fs.root_ino(), ROOT_INO, seed);
            }
            let stats = w.mux.stats().snapshot();
            checkpoints += stats.checkpoints;
            appended += stats.metalog_bytes;
            // MemFs keeps every byte: what a crash takes is Mux's memory.
            w.verify(&w.mux, seed);
            let policy = Arc::new(StripingPolicy::new(2));
            let back = Mux::recover(clock, policy, MuxOptions::default(), tiers, 0).unwrap();
            w.verify(&back, seed);
            // Nothing the script unlinked came back.
            let live = w.files.iter().flatten().count() as u64;
            assert_eq!(back.statfs().unwrap().inodes, live, "seed {seed}");
            assert!(matches!(
                back.lookup(ROOT_INO, "never-created"),
                Err(VfsError::NotFound)
            ));
        }
        // Not vacuous: the scripts flushed often, mostly by appending, and
        // crossed the journal's budget mid-script many times over.
        assert!(flushes > 1_000, "{flushes} flushes");
        assert!(checkpoints >= 40, "{checkpoints} checkpoints");
        assert!(
            appended / flushes > 50,
            "{appended} B over {flushes} flushes"
        );
    }
}

/// Journal frames that are not what replay expects: garbage, duplicates,
/// unknown kinds, other generations.
mod hostile_journal {
    use super::*;
    use proptest::prelude::*;

    /// `payload length u32 | kind u8 | generation u64` ahead of the payload,
    /// a CRC-32C behind it.
    const HEAD: usize = 13;

    fn frames_of(raw: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut at = 0;
        while at + HEAD + 4 <= raw.len() {
            let len = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
            out.push(at..at + HEAD + len + 4);
            at += HEAD + len + 4;
        }
        assert_eq!(at, raw.len(), "the journal is whole frames");
        out
    }

    /// Rewrites a frame's kind or generation and makes its CRC fit again.
    fn reseal(frame: &mut [u8], kind: Option<u8>, generation: Option<u64>) {
        if let Some(k) = kind {
            frame[4] = k;
        }
        if let Some(g) = generation {
            frame[5..HEAD].copy_from_slice(&g.to_le_bytes());
        }
        let body = frame.len() - 4;
        let crc = mux::crc32c(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The synced, checkpointed file `f` of `synced_stack`, then a journal
    /// of every record kind about *other* files: whatever happens to that
    /// journal, `f` must come back whole. Returns the tiers and the journal.
    fn stack_with_journal(clock: &VirtualClock) -> (Arc<MemFs>, Arc<MemFs>, Vec<u8>) {
        let (a, b, _) = synced_stack(clock);
        {
            let mux = recover_pair(clock, &a, &b).unwrap();
            // The first flush after a recovery re-bases the log.
            mux.fsync(ROOT_INO).unwrap();
            let d = mux
                .create(ROOT_INO, "d", FileType::Directory, 0o755)
                .unwrap();
            let g = mux.create(d.ino, "g", FileType::Regular, 0o644).unwrap();
            mux.write(g.ino, 0, &vec![9u8; (3 * BLOCK) as usize])
                .unwrap();
            mux.fsync(g.ino).unwrap();
            mux.migrate_range(g.ino, 0, 2, 1).unwrap();
            mux.mirror_range(g.ino, 2, 1, 1).unwrap();
            mux.rename(d.ino, "g", ROOT_INO, "h").unwrap();
            mux.sync().unwrap();
            mux.unmirror_range(g.ino, 2, 1, 1).unwrap();
            let k = mux.create(d.ino, "k", FileType::Regular, 0o644).unwrap();
            mux.write(k.ino, 0, &[4u8; 100]).unwrap();
            mux.unlink(d.ino, "k").unwrap();
            mux.sync().unwrap();
            mux.check_metafile().unwrap();
        }
        let j = a.lookup(ROOT_INO, ".mux.intents").unwrap();
        let mut raw = vec![0u8; j.size as usize];
        a.read(j.ino, 0, &mut raw).unwrap();
        assert!(frames_of(&raw).len() >= 12, "a journal worth mangling");
        (a, b, raw)
    }

    fn install(a: &Arc<MemFs>, journal: &[u8]) {
        let j = a.lookup(ROOT_INO, ".mux.intents").unwrap();
        a.setattr(j.ino, &tvfs::SetAttr::truncate(0)).unwrap();
        a.write(j.ino, 0, journal).unwrap();
    }

    fn f_is_whole(m: &Mux) {
        let f = m.lookup(ROOT_INO, "f").unwrap();
        let mut buf = vec![0u8; (4 * BLOCK) as usize];
        m.read(f.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
    }

    #[test]
    fn frames_of_another_generation_are_skipped_not_replayed() {
        // What a crash between a checkpoint's rename and its journal
        // truncation leaves: the new checkpoint under the old journal.
        let clock = VirtualClock::new();
        let (a, b, journal) = stack_with_journal(&clock);
        {
            let mux = recover_pair(&clock, &a, &b).unwrap();
            mux.rename(ROOT_INO, "h", ROOT_INO, "z").unwrap();
            mux.snapshot_metafile().unwrap();
        }
        install(&a, &journal);
        let m = recover_pair(&clock, &a, &b).unwrap();
        f_is_whole(&m);
        // The checkpoint holds the file as `z`; the stale journal's story
        // of it — made in `d` as `g`, renamed `h` — was not told again.
        assert!(m.lookup(ROOT_INO, "z").is_ok());
        assert!(m.lookup(ROOT_INO, "h").is_err());
        let d = m.lookup(ROOT_INO, "d").unwrap();
        assert!(m.readdir(d.ino).unwrap().is_empty());
        // A frame of the checkpoint's own generation after the stale ones
        // still counts: stale frames are skipped, they do not end the log.
        let mut fresh = journal.clone();
        let first = frames_of(&journal)[0].clone();
        let mut mkdir = journal[first].to_vec();
        assert_eq!(mkdir[4], 7, "the journal opens with d's mkdir");
        let generation = u64::from_le_bytes(mkdir[5..HEAD].try_into().unwrap());
        reseal(&mut mkdir, None, Some(generation + 1));
        fresh.extend_from_slice(&mkdir);
        install(&a, &fresh);
        let m = recover_pair(&clock, &a, &b).unwrap();
        assert_eq!(m.lookup(ROOT_INO, "d").unwrap().ino, d.ino);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Arbitrary damage to a valid journal — flipped bytes, a cut, a
        /// frame repeated somewhere later, frames resealed with an unknown
        /// kind or another generation — never panics recovery and never
        /// reaches the checkpointed file the journal does not mention.
        #[test]
        fn arbitrary_journal_damage_never_panics(
            flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
            cut in any::<u16>(),
            repeats in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            reseals in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..4),
        ) {
            let clock = VirtualClock::new();
            let (a, b, journal) = stack_with_journal(&clock);
            let frames = frames_of(&journal);
            let mut parts: Vec<Vec<u8>> = frames.iter().map(|r| journal[r.clone()].to_vec()).collect();
            for (which, kind, stale) in reseals {
                let i = which as usize % parts.len();
                if stale {
                    reseal(&mut parts[i], None, Some(u64::from(kind)));
                } else {
                    reseal(&mut parts[i], Some(11 + kind % 200), None);
                }
            }
            for (which, place) in repeats {
                let copy = parts[which as usize % parts.len()].clone();
                let at = 1 + place as usize % parts.len();
                parts.insert(at, copy);
            }
            let mut raw: Vec<u8> = parts.concat();
            for (off, byte) in flips {
                let i = off as usize % raw.len();
                raw[i] ^= byte;
            }
            raw.truncate(raw.len() - cut as usize % raw.len() / 2);
            install(&a, &raw);
            match recover_pair(&clock, &a, &b) {
                Ok(m) => {
                    f_is_whole(&m);
                    // Whatever else came back reads without panicking.
                    for e in m.readdir(ROOT_INO).unwrap() {
                        if e.kind == FileType::Regular {
                            let size = m.getattr(e.ino).unwrap().size;
                            let _ = m.read(e.ino, 0, &mut vec![0u8; size as usize]);
                        }
                    }
                    // And the journal it left is one recovery can read again.
                    drop(m);
                    f_is_whole(&recover_pair(&clock, &a, &b).unwrap());
                }
                Err(e) => prop_assert!(
                    matches!(e, tvfs::VfsError::Corrupt { .. }),
                    "unexpected error class: {e}"
                ),
            }
        }
    }
}
