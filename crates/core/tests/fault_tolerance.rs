//! Fault-tolerance integration tests: circuit breaker, retry/backoff,
//! fault-atomic OCC migration aborts, graceful degradation (redirected
//! writes), and sick-tier evacuation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mux::{Mux, MuxOptions, PinnedPolicy, TierConfig, TierHealthState, TraceEventKind, BLOCK};
use simdev::{Device, DeviceClass, FaultMode, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsError, VfsResult,
    ROOT_INO,
};
use workloads::{pattern_at, pattern_check};

/// Tier 0 = NovaFs on a real simulated device (fault-injectable), tier 1 =
/// MemFs. Placement pinned to tier 0.
fn rig() -> (Arc<Mux>, VirtualClock, Device, Arc<MemFs>) {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let nova =
        Arc::new(novafs::NovaFs::format(dev.clone(), novafs::NovaOptions::default()).unwrap());
    let mem = Arc::new(MemFs::new("healthy-tier", 1 << 28));
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    ));
    mux.add_tier(
        TierConfig {
            name: "faulty".into(),
            class: DeviceClass::Pmem,
        },
        nova as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "healthy".into(),
            class: DeviceClass::Ssd,
        },
        mem.clone() as Arc<dyn FileSystem>,
    );
    (mux, clock, dev, mem)
}

/// The inverse rig: the fault-injectable device backs the *destination*
/// tier (id 1); the primary (id 0) is a MemFs.
fn rig_faulty_destination() -> (Arc<Mux>, Device, Arc<MemFs>) {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let nova =
        Arc::new(novafs::NovaFs::format(dev.clone(), novafs::NovaOptions::default()).unwrap());
    let mem = Arc::new(MemFs::new("primary", 1 << 28));
    let mux = Arc::new(Mux::new(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    ));
    mux.add_tier(
        TierConfig {
            name: "primary".into(),
            class: DeviceClass::Pmem,
        },
        mem.clone() as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "faulty-dst".into(),
            class: DeviceClass::Ssd,
        },
        nova as Arc<dyn FileSystem>,
    );
    (mux, dev, mem)
}

#[test]
fn occ_abort_on_failstop_destination_keeps_source_authoritative() {
    let (mux, dev, _mem) = rig_faulty_destination();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    let data = pattern_at(0, (16 * BLOCK) as usize);
    mux.write(f.ino, 0, &data).unwrap();
    // The destination device dies a few operations into the copy.
    dev.set_fault_mode(FaultMode::FailStop { remaining_ops: 6 });
    let err = mux.migrate_range(f.ino, 0, 16, 1);
    assert!(err.is_err(), "migration onto a dying tier must fail");
    // The abort was clean: counted, and the source still owns and serves
    // every block — no loss, no double ownership.
    assert_eq!(mux.occ_stats().aborts(), 1);
    let mut buf = vec![0u8; (16 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf), "source data corrupted by the abort");
    // The breaker saw the destination's errors.
    let h = mux.tier_health(1);
    assert!(h.errors > 0, "destination errors must be recorded");
    assert_ne!(h.state, TierHealthState::Healthy);
    // A later write is unaffected (it targets the healthy primary).
    mux.write(f.ino, 0, &pattern_at(7, BLOCK as usize)).unwrap();
}

#[test]
fn nospace_abort_punches_destination_debris() {
    let clock = VirtualClock::new();
    let prim = Arc::new(MemFs::new("prim", 1 << 28));
    // Destination too small for the full range: the copy dies on NoSpace
    // partway through.
    let tiny = Arc::new(MemFs::new("tiny", 4 * BLOCK));
    let mux = Mux::new(clock, Arc::new(PinnedPolicy::new(0)), MuxOptions::default());
    mux.add_tier(
        TierConfig {
            name: "prim".into(),
            class: DeviceClass::Pmem,
        },
        prim as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "tiny".into(),
            class: DeviceClass::Ssd,
        },
        tiny.clone() as Arc<dyn FileSystem>,
    );
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (16 * BLOCK) as usize))
        .unwrap();
    let err = mux.migrate_range(f.ino, 0, 16, 1).unwrap_err();
    assert!(
        matches!(err, VfsError::NoSpace),
        "expected NoSpace, got {err:?}"
    );
    assert_eq!(mux.occ_stats().aborts(), 1);
    // NoSpace is not a device fault: the breaker must not punish the tier.
    assert_eq!(mux.tier_health(1).state, TierHealthState::Healthy);
    // Whatever landed on the destination before the failure was punched
    // back out — the BLT never pointed there.
    assert_eq!(
        tiny.lookup(ROOT_INO, "f").unwrap().blocks_bytes,
        0,
        "destination debris must be punched on abort"
    );
    let mut buf = vec![0u8; (16 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf));
}

#[test]
fn intermittent_faults_are_absorbed_by_retry() {
    let (mux, _clock, dev, _mem) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    // Roughly one in 24 device ops fails transiently; bounded retries with
    // virtual-clock backoff must hide every one of them (deterministic:
    // the fault pattern is a pure function of the seed).
    dev.set_fault_mode(FaultMode::Intermittent {
        period: 24,
        seed: 42,
    });
    for i in 0..32u64 {
        let data = pattern_at(i, BLOCK as usize);
        mux.write(f.ino, i * BLOCK, &data)
            .unwrap_or_else(|e| panic!("write {i} surfaced a transient fault: {e:?}"));
    }
    let mut buf = vec![0u8; BLOCK as usize];
    for i in 0..32u64 {
        mux.read(f.ino, i * BLOCK, &mut buf)
            .unwrap_or_else(|e| panic!("read {i} surfaced a transient fault: {e:?}"));
        assert!(pattern_check(i, &buf));
    }
    // The retries are visible in the stats, the scheduler accounting, and
    // the health counters.
    let s = mux.stats().snapshot();
    assert!(s.io_retries > 0, "expected transient faults to be retried");
    assert!(s.io_errors >= s.io_retries);
    assert_eq!(s.io_retries, mux.scheduler().total_retries());
    assert_eq!(mux.tier_health(0).retries, s.io_retries);
    // The tier never latched: transient noise is not a dead device.
    assert!(mux.health().can_write(0));
}

#[test]
fn circuit_breaker_trips_and_writes_redirect() {
    let (mux, _clock, dev, mem) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (4 * BLOCK) as usize))
        .unwrap();
    dev.set_fault_mode(FaultMode::FailStop { remaining_ops: 0 });
    // Each failed dispatch burns 1 + io_retries(3) consecutive errors;
    // read_only_after=8 means the second failing write trips ReadOnly.
    let mut failures = 0;
    let payload = pattern_at(9, BLOCK as usize);
    loop {
        match mux.write(f.ino, 0, &payload) {
            Ok(_) => break, // the breaker tripped and the write redirected
            Err(_) => {
                failures += 1;
                assert!(failures < 16, "breaker never tripped");
            }
        }
    }
    let status = mux.tier_status();
    let sick = status.iter().find(|t| t.id == 0).unwrap();
    assert!(
        !sick.is_writable(),
        "tier 0 must be fenced: {:?}",
        sick.health
    );
    assert!(mux.stats().snapshot().redirected_writes > 0);
    assert!(mux.tier_health(0).trips >= 2, "Degraded then ReadOnly");
    // The redirected block now lives on (and reads from) the healthy tier.
    let mut buf = vec![0u8; BLOCK as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(9, &buf));
    assert!(mem.lookup(ROOT_INO, "f").unwrap().blocks_bytes >= BLOCK);
    // Keep failing reads on still-stranded blocks: the breaker latches
    // Offline, after which reads stop dispatching to the tier at all.
    let mut offline_failures = 0;
    while mux.tier_health(0).state != TierHealthState::Offline {
        assert!(mux.read(f.ino, 2 * BLOCK, &mut buf).is_err());
        offline_failures += 1;
        assert!(offline_failures < 16, "breaker never latched Offline");
    }
    // Offline reads fail fast (no replica for block 2) without touching
    // the device; errors stop accumulating.
    let errs_before = mux.tier_health(0).errors;
    assert!(mux.read(f.ino, 2 * BLOCK, &mut buf).is_err());
    assert_eq!(mux.tier_health(0).errors, errs_before);
    // New writes to other offsets keep landing on the healthy tier.
    mux.write(f.ino, 8 * BLOCK, &payload).unwrap();
}

#[test]
fn evacuation_drains_fenced_tier_via_occ() {
    let (mux, _clock, _dev, mem) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (8 * BLOCK) as usize))
        .unwrap();
    // Fence the tier proactively (say, ahead of maintenance): reads still
    // work, so evacuation can pull the data off through the OCC migrator.
    mux.health().force_state(0, TierHealthState::ReadOnly);
    let summary = mux.evacuate_tier(0).unwrap();
    assert_eq!(
        summary.failed, 0,
        "evacuation must fully drain: {summary:?}"
    );
    assert_eq!(summary.blocks_moved, 8);
    // All data now lives on the healthy tier and still reads back.
    assert_eq!(mem.lookup(ROOT_INO, "f").unwrap().blocks_bytes, 8 * BLOCK);
    let mut buf = vec![0u8; (8 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf));
    // Nothing is planned on a second sweep.
    let again = mux.evacuate_tier(0).unwrap();
    assert_eq!(again.planned, 0);
    // An operator reset re-admits the tier.
    mux.health().reset(0);
    assert_eq!(mux.tier_health(0).state, TierHealthState::Healthy);
    assert!(mux.tier_status().iter().all(|t| t.is_writable()));
}

#[test]
fn migration_refuses_fenced_destination() {
    let (mux, _clock, _dev, _mem) = rig();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (2 * BLOCK) as usize))
        .unwrap();
    mux.health().force_state(1, TierHealthState::ReadOnly);
    assert!(
        mux.migrate_range(f.ino, 0, 2, 1).is_err(),
        "must not migrate onto a fenced tier"
    );
    mux.health().reset(1);
    mux.migrate_range(f.ino, 0, 2, 1).unwrap();
}

#[test]
fn tier_status_reports_health_states() {
    let (mux, _clock, _dev, _mem) = rig();
    assert!(mux
        .tier_status()
        .iter()
        .all(|t| t.health == TierHealthState::Healthy));
    mux.health().force_state(0, TierHealthState::Degraded);
    mux.health().force_state(1, TierHealthState::Offline);
    let status = mux.tier_status();
    let t0 = status.iter().find(|t| t.id == 0).unwrap();
    let t1 = status.iter().find(|t| t.id == 1).unwrap();
    assert_eq!(t0.health, TierHealthState::Degraded);
    assert!(t0.is_writable() && t0.is_readable());
    assert_eq!(t1.health, TierHealthState::Offline);
    assert!(!t1.is_writable() && !t1.is_readable());
}

/// A pass-through [`FileSystem`] whose next `setattr`, `unlink`, `rename`
/// and `punch_hole` each fail once with a transient [`VfsError::Io`] after
/// [`FlakyFs::arm`].
struct FlakyFs {
    inner: MemFs,
    /// One flag per metadata call, in the order above.
    armed: [AtomicBool; 4],
}

impl FlakyFs {
    fn arm(&self) {
        self.armed
            .iter()
            .for_each(|a| a.store(true, Ordering::SeqCst));
    }

    fn strike(&self, call: usize) -> VfsResult<()> {
        match self.armed[call].swap(false, Ordering::SeqCst) {
            true => Err(VfsError::Io("flaky metadata call".into())),
            false => Ok(()),
        }
    }
}

impl FileSystem for FlakyFs {
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
        self.strike(0)?;
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
        self.strike(1)?;
        self.inner.unlink(parent, name)
    }
    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.strike(2)?;
        self.inner.rename(parent, name, new_parent, new_name)
    }
    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.inner.readdir(ino)
    }
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.inner.read(ino, off, buf)
    }
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.inner.write(ino, off, data)
    }
    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        self.strike(3)?;
        self.inner.punch_hole(ino, off, len)
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
        self.inner.statfs()
    }
}

/// Truncate, unlink, rename and punch reach the tiers through the same
/// retried dispatch as reads and writes: a transient error is absorbed,
/// counted and traced instead of failing the call.
#[test]
fn metadata_fan_outs_retry_transient_errors() {
    let fs = Arc::new(FlakyFs {
        inner: MemFs::new("flaky", 1 << 28),
        armed: Default::default(),
    });
    let mux = Mux::new(
        VirtualClock::new(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    );
    let cfg = TierConfig {
        name: "flaky".into(),
        class: DeviceClass::Ssd,
    };
    mux.add_tier(cfg, fs.clone() as Arc<dyn FileSystem>);
    let d = mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    let f = mux.create(d.ino, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (8 * BLOCK) as usize))
        .unwrap();
    let g = mux.create(ROOT_INO, "g", FileType::Regular, 0o644).unwrap();
    mux.write(g.ino, 0, b"g").unwrap();
    type Op<'a> = (&'a str, Box<dyn Fn(&Mux) -> VfsResult<()> + 'a>);
    let ops: [Op; 5] = [
        (
            "truncate",
            Box::new(|m| m.setattr(f.ino, &SetAttr::truncate(6 * BLOCK)).map(drop)),
        ),
        ("punch", Box::new(|m| m.punch_hole(f.ino, BLOCK, BLOCK))),
        (
            "file rename",
            Box::new(|m| m.rename(ROOT_INO, "g", d.ino, "h")),
        ),
        (
            "dir rename",
            Box::new(|m| m.rename(ROOT_INO, "d", ROOT_INO, "e")),
        ),
        ("unlink", Box::new(|m| m.unlink(d.ino, "h"))),
    ];
    for (what, op) in ops {
        let retries = mux.stats().snapshot().io_retries;
        mux.trace().clear();
        fs.arm();
        op(&mux).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert!(
            mux.stats().snapshot().io_retries > retries,
            "{what} was not retried"
        );
        let events = mux.trace_snapshot();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::Retry { .. })),
            "{what} traced no retry"
        );
    }
    // The tier ends where the calls left the namespace.
    let e = fs.inner.lookup(ROOT_INO, "e").unwrap();
    assert!(fs.inner.lookup(ROOT_INO, "d").is_err());
    assert!(fs.inner.lookup(e.ino, "h").is_err());
    assert!(fs.inner.lookup(ROOT_INO, "g").is_err());
    let nf = fs.inner.lookup(e.ino, "f").unwrap();
    assert_eq!(nf.size, 6 * BLOCK);
    let mut buf = vec![0u8; (6 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf[BLOCK as usize..2 * BLOCK as usize]
        .iter()
        .all(|&b| b == 0));
    assert!(pattern_check(0, &buf[..BLOCK as usize]));
    assert!(pattern_check(2 * BLOCK, &buf[2 * BLOCK as usize..]));
}

/// A pass-through [`FileSystem`] over xefs whose next `fsync` or
/// `fsync_many` fails once with the error given to [`FlakyFsyncFs::arm`].
struct FlakyFsyncFs {
    inner: xefs::XeFs,
    armed: Mutex<Option<VfsError>>,
}

impl FlakyFsyncFs {
    fn arm(&self, e: VfsError) {
        *self.armed.lock().unwrap() = Some(e);
    }

    fn strike(&self) -> VfsResult<()> {
        match self.armed.lock().unwrap().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A Mux over one flaky xefs tier holding the metafile.
fn flaky_xefs_mux(clock: &VirtualClock, dev: &Device) -> (Mux, Arc<FlakyFsyncFs>) {
    let fs = Arc::new(FlakyFsyncFs {
        inner: xefs::XeFs::format(dev.clone(), xefs::XeOptions::default()).unwrap(),
        armed: Mutex::new(None),
    });
    let mux = Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    );
    mux.add_tier(ssd_cfg(), fs.clone() as Arc<dyn FileSystem>);
    mux.enable_metafile(0).unwrap();
    (mux, fs)
}

fn ssd_cfg() -> TierConfig {
    TierConfig {
        name: "ssd".into(),
        class: DeviceClass::Ssd,
    }
}

impl FileSystem for FlakyFsyncFs {
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
        self.inner.read(ino, off, buf)
    }
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.inner.write(ino, off, data)
    }
    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        self.inner.punch_hole(ino, off, len)
    }
    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.inner.next_data(ino, off)
    }
    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.strike()?;
        self.inner.fsync(ino)
    }
    fn fsync_many(&self, inos: &[InodeNo]) -> VfsResult<()> {
        self.strike()?;
        self.inner.fsync_many(inos)
    }
    fn sync(&self) -> VfsResult<()> {
        self.inner.sync()
    }
    fn statfs(&self) -> VfsResult<StatFs> {
        self.inner.statfs()
    }
}

/// A flush that outgrows the journal's budget runs the data's barrier
/// before it checkpoints. When that barrier fails, the records the flush
/// already took must not be lost: the retried fsync checkpoints them, and
/// a crash after it keeps every name and byte.
#[test]
fn failed_barrier_before_a_budget_checkpoint_loses_no_records() {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::nvme_ssd(), 64 << 20, clock.clone());
    let (mux, fs) = flaky_xefs_mux(&clock, &dev);
    // Enough queued records to outgrow the empty checkpoint's budget.
    let files: Vec<(String, InodeNo)> = (0..64u64)
        .map(|i| {
            let name = format!("f{i:02}");
            let f = mux
                .create(ROOT_INO, &name, FileType::Regular, 0o644)
                .unwrap();
            mux.write(f.ino, 0, &pattern_at(i * BLOCK, BLOCK as usize))
                .unwrap();
            (name, f.ino)
        })
        .collect();
    let status = mux.metalog_status();
    assert_eq!(status.pending_records, files.len());
    assert_eq!(status.journal_bytes, 0);
    let (retries, checkpoints) = {
        let s = mux.stats().snapshot();
        (s.io_retries, s.checkpoints)
    };
    fs.arm(VfsError::Io("flaky fsync".into()));
    mux.fsync(files[0].1).unwrap();
    let s = mux.stats().snapshot();
    assert!(s.io_retries > retries, "the failed barrier was not retried");
    assert_eq!(
        s.checkpoints,
        checkpoints + 1,
        "the flush did not checkpoint"
    );
    // Checkpoint and journal describe the live state: nothing was lost.
    mux.check_metafile().unwrap();
    // The other files' data is owed too once each is fsync'd.
    for &(_, ino) in &files[1..] {
        mux.fsync(ino).unwrap();
    }
    drop(mux);
    dev.crash();
    let back = xefs::XeFs::mount(dev, xefs::XeOptions::default()).unwrap();
    let tiers = vec![(ssd_cfg(), Arc::new(back) as Arc<dyn FileSystem>)];
    let policy = Arc::new(PinnedPolicy::new(0));
    let mux = Mux::recover(clock, policy, MuxOptions::default(), tiers, 0).unwrap();
    let mut names: Vec<String> = mux
        .readdir(ROOT_INO)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    let want: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want);
    for (i, (name, _)) in files.iter().enumerate() {
        let f = mux.lookup(ROOT_INO, name).unwrap();
        assert_eq!(f.size, BLOCK, "{name}");
        let mut buf = vec![0u8; BLOCK as usize];
        mux.read(f.ino, 0, &mut buf).unwrap();
        assert!(pattern_check(i as u64 * BLOCK, &buf), "{name}");
    }
}

/// A directory fsync on the metafile's tier tolerates a native directory
/// removed since it was resolved, as it does on every other tier: the
/// journal goes out on its own barrier, and no checkpoint is forced.
#[test]
fn directory_gone_from_the_metafile_tier_still_flushes_the_journal() {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::nvme_ssd(), 64 << 20, clock.clone());
    let (mux, fs) = flaky_xefs_mux(&clock, &dev);
    let d = mux
        .create(ROOT_INO, "d", FileType::Directory, 0o755)
        .unwrap();
    mux.sync().unwrap();
    let journal = mux.metalog_status().journal_bytes;
    let checkpoints = mux.stats().snapshot().checkpoints;
    let f = mux.create(d.ino, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, b"named").unwrap();
    fs.arm(VfsError::NotFound);
    mux.fsync(d.ino).unwrap();
    let status = mux.metalog_status();
    assert!(
        status.journal_bytes > journal,
        "the journal was not appended"
    );
    assert_eq!(status.pending_records, 0);
    assert_eq!(mux.stats().snapshot().checkpoints, checkpoints);
    mux.check_metafile().unwrap();
}

/// A checkpoint copies the records of unchanged files from the last one
/// it kept. One that fails part-way keeps no image, so the next encodes
/// every file; and the image kept follows the live state down: after most
/// files are unlinked, one checkpoint keeps exactly one full encoding.
#[test]
fn a_failed_checkpoint_keeps_no_image_and_the_kept_one_is_one_encoding() {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::nvme_ssd(), 64 << 20, clock.clone());
    let (mux, fs) = flaky_xefs_mux(&clock, &dev);
    let files: Vec<(String, InodeNo)> = (0..40u64)
        .map(|i| {
            let name = format!("f{i:02}");
            let f = mux
                .create(ROOT_INO, &name, FileType::Regular, 0o644)
                .unwrap();
            mux.write(f.ino, 0, &pattern_at(i * BLOCK, BLOCK as usize))
                .unwrap();
            (name, f.ino)
        })
        .collect();
    // Files encoded and copied by the checkpoint `checkpoint` runs.
    let counted = |checkpoint: &dyn Fn() -> VfsResult<()>| {
        let before = mux.stats().snapshot();
        checkpoint().unwrap();
        let after = mux.stats().snapshot();
        mux.check_checkpoint().unwrap();
        (
            after.checkpoint_files_encoded - before.checkpoint_files_encoded,
            after.checkpoint_files_copied - before.checkpoint_files_copied,
        )
    };
    // The records outgrow the empty checkpoint's journal budget.
    let sync = || mux.sync();
    assert_eq!(counted(&sync), (40, 0), "the first checkpoint is full");
    let snapshot = || mux.snapshot_metafile();
    assert_eq!(counted(&snapshot), (0, 40), "nothing changed");
    for &(_, ino) in &files[..3] {
        mux.write(ino, BLOCK, b"more").unwrap();
    }
    assert_eq!(counted(&snapshot), (3, 37));
    // The staged image's fsync fails: nothing is kept.
    mux.write(files[3].1, BLOCK, b"more").unwrap();
    fs.arm(VfsError::Io("flaky fsync".into()));
    assert!(mux.snapshot_metafile().is_err());
    assert_eq!(mux.metalog_status().image_bytes, 0);
    assert_eq!(counted(&snapshot), (40, 0), "the retry is full");
    mux.check_metafile().unwrap();
    // Most files go; the image kept is the one full encoding of the rest.
    for (name, _) in &files[4..] {
        mux.unlink(ROOT_INO, name).unwrap();
    }
    assert_eq!(counted(&|| mux.fsync(ROOT_INO).and(snapshot())), (0, 4));
    let on_tier = fs.lookup(ROOT_INO, ".mux.snapshot").unwrap().size;
    assert_eq!(mux.metalog_status().image_bytes, on_tier);
    drop(mux);
    dev.crash();
    let back = xefs::XeFs::mount(dev, xefs::XeOptions::default()).unwrap();
    let tiers = vec![(ssd_cfg(), Arc::new(back) as Arc<dyn FileSystem>)];
    let policy = Arc::new(PinnedPolicy::new(0));
    let mux = Mux::recover(clock, policy, MuxOptions::default(), tiers, 0).unwrap();
    assert_eq!(mux.statfs().unwrap().inodes, 4);
    for (i, (name, _)) in files[..4].iter().enumerate() {
        let f = mux.lookup(ROOT_INO, name).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        mux.read(f.ino, 0, &mut buf).unwrap();
        assert!(pattern_check(i as u64 * BLOCK, &buf), "{name}");
    }
}
