//! The simulated device: a RAM-backed byte store with virtual timing,
//! a volatile write cache, and crash/fault injection.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crashplan::PlanVerdict;
use crate::{CrashPlan, DeviceProfile, DeviceStats, FaultMode, VirtualClock, SIM_PAGE};

/// Page slots per leaf of the media index: one leaf maps 2 MiB of device.
const LEAF_PAGES: usize = 512;
/// Most undo buffers kept for reuse once their records are dropped.
const SPARE_BUFFERS: usize = 64;
/// Largest undo buffer kept for reuse, in bytes of capacity.
const SPARE_MAX_BYTES: usize = 64 << 10;

type Page = [u8; SIM_PAGE];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// What a never-written page holds.
static ZERO_PAGE: Page = [0; SIM_PAGE];

/// Errors a device can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Access beyond the device capacity.
    OutOfBounds {
        /// Requested offset.
        off: u64,
        /// Requested length.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// Injected or modelled I/O failure.
    Io(String),
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfBounds { off, len, capacity } => {
                write!(f, "access [{off}, {off}+{len}) beyond capacity {capacity}")
            }
            DevError::Io(msg) => write!(f, "device I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DevError {}

/// Construction parameters for a [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Timing model.
    pub profile: DeviceProfile,
    /// Capacity in bytes.
    pub capacity: u64,
    /// When `true`, unflushed writes are undo-logged so [`Device::crash`]
    /// can discard them, at the cost of one copy of the overwritten bytes
    /// per write. A device that never crashes can disable it to keep no
    /// rollback state between flushes (`repro`'s testbed does); `muxbench`
    /// tracks on `varmail`, which crashes and recovers.
    pub track_durability: bool,
}

/// What the device logic needs of the store that holds its bytes.
trait Store: Default {
    /// Copies `[off, off+buf.len())` into `buf`; never-written bytes are
    /// zeros.
    fn read(&self, off: u64, buf: &mut [u8]);
    /// Stores `data` at `off`.
    fn write(&mut self, off: u64, data: &[u8]);
    /// The bytes at `[off, off+len)`, in a buffer an undo record keeps.
    fn save(&mut self, off: u64, len: usize) -> Vec<u8>;
    /// Takes back a buffer from [`Store::save`] once its record is dropped.
    fn recycle(&mut self, buf: Vec<u8>);
}

/// The media: a directory of leaves indexed by page number, each leaf a
/// fixed array of [`LEAF_PAGES`] page slots. The directory grows to the
/// highest leaf written, and leaves and pages are allocated on first
/// write; an absent one reads as zeros.
#[derive(Default)]
struct Media {
    leaves: Vec<Option<Box<Leaf>>>,
    /// Buffers of dropped undo records, handed out again by `save`.
    spare: Vec<Vec<u8>>,
}

/// Splits `[off, off+len)` at page boundaries into (page number, offset in
/// the page, offset in the range, length) pieces.
fn page_spans(off: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let cur = off + done as u64;
            let in_page = (cur % SIM_PAGE as u64) as usize;
            let n = (SIM_PAGE - in_page).min(len - done);
            let span = (cur / SIM_PAGE as u64, in_page, done, n);
            done += n;
            span
        })
    })
}

impl Media {
    fn page(&self, page_no: u64) -> &Page {
        let leaf = self.leaves.get((page_no / LEAF_PAGES as u64) as usize);
        let page =
            leaf.and_then(|l| l.as_ref()?[(page_no % LEAF_PAGES as u64) as usize].as_deref());
        page.unwrap_or(&ZERO_PAGE)
    }

    fn page_mut(&mut self, page_no: u64) -> &mut Page {
        let at = (page_no / LEAF_PAGES as u64) as usize;
        if at >= self.leaves.len() {
            self.leaves.resize_with(at + 1, || None);
        }
        let leaf = self.leaves[at].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        leaf[(page_no % LEAF_PAGES as u64) as usize].get_or_insert_with(|| Box::new([0; SIM_PAGE]))
    }

    /// Leaves and pages allocated.
    #[cfg(test)]
    fn footprint(&self) -> (usize, usize) {
        let leaves = self.leaves.iter().flatten();
        let pages = leaves.clone().flat_map(|l| l.iter().flatten()).count();
        (leaves.count(), pages)
    }
}

impl Store for Media {
    fn read(&self, off: u64, buf: &mut [u8]) {
        for (page_no, at, done, n) in page_spans(off, buf.len()) {
            buf[done..done + n].copy_from_slice(&self.page(page_no)[at..at + n]);
        }
    }

    fn write(&mut self, off: u64, data: &[u8]) {
        for (page_no, at, done, n) in page_spans(off, data.len()) {
            self.page_mut(page_no)[at..at + n].copy_from_slice(&data[done..done + n]);
        }
    }

    fn save(&mut self, off: u64, len: usize) -> Vec<u8> {
        let mut old = self.spare.pop().unwrap_or_default();
        old.reserve(len);
        for (page_no, at, _, n) in page_spans(off, len) {
            old.extend_from_slice(&self.page(page_no)[at..at + n]);
        }
        old
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS && buf.capacity() <= SPARE_MAX_BYTES {
            buf.clear();
            self.spare.push(buf);
        }
    }
}

struct Inner<S> {
    media: S,
    /// End offset of the last access, for the sequentiality/seek model.
    last_end: u64,
    fault: FaultMode,
    /// Undo records for unflushed writes, oldest first.
    undo: Vec<UndoRecord>,
    /// Machine-wide crash point this device participates in, if any.
    plan: Option<CrashPlan>,
}

struct UndoRecord {
    off: u64,
    /// Content of `[off, off+new_len)` before the write (zero-extended).
    old: Vec<u8>,
}

/// A simulated storage device.
///
/// Cloneable handle (`Arc` inside); all methods are thread-safe. Every data
/// operation charges virtual time on the shared [`VirtualClock`] according
/// to the device's [`DeviceProfile`] and records [`DeviceStats`].
#[derive(Clone)]
pub struct Device {
    shared: Arc<Shared>,
}

/// The device proper, generic over its store only so that tests can run it
/// on an oracle store.
struct Shared<S = Media> {
    profile: DeviceProfile,
    capacity: u64,
    clock: VirtualClock,
    stats: DeviceStats,
    track_durability: bool,
    inner: Mutex<Inner<S>>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("profile", &self.shared.profile.name)
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl Device {
    /// Creates a device with the given configuration, charging time to
    /// `clock`.
    pub fn new(config: DeviceConfig, clock: VirtualClock) -> Self {
        Self {
            shared: Arc::new(Shared::new(config, clock)),
        }
    }

    /// Convenience constructor with durability tracking enabled.
    pub fn with_profile(profile: DeviceProfile, capacity: u64, clock: VirtualClock) -> Self {
        Self::new(
            DeviceConfig {
                profile,
                capacity,
                track_durability: true,
            },
            clock,
        )
    }

    /// The device's timing profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.shared.profile
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.shared.capacity
    }

    /// The clock this device charges.
    pub fn clock(&self) -> &VirtualClock {
        &self.shared.clock
    }

    /// Operation statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.shared.stats
    }

    /// Sets the fault-injection mode.
    pub fn set_fault_mode(&self, mode: FaultMode) {
        self.shared.inner.lock().fault = mode;
    }

    /// Attaches (or with `None`, detaches) a [`CrashPlan`]. Clone the same
    /// plan onto every device of a stack so a crash point takes all of them
    /// down at the same instant; detaching models powering back on.
    pub fn set_crash_plan(&self, plan: Option<CrashPlan>) {
        self.shared.inner.lock().plan = plan;
    }

    /// Reads `buf.len()` bytes at `off` into `buf`, returning the virtual
    /// service time in nanoseconds. Unwritten regions read as zeros.
    pub fn read(&self, off: u64, buf: &mut [u8]) -> Result<u64, DevError> {
        self.shared.read(off, buf)
    }

    /// Writes `data` at `off`, returning the virtual service time.
    ///
    /// The write lands in the volatile write cache: it is readable
    /// immediately but only survives [`Device::crash`] once flushed.
    pub fn write(&self, off: u64, data: &[u8]) -> Result<u64, DevError> {
        self.shared.write(off, data)
    }

    /// Persists all cached writes (a full persistence barrier).
    pub fn flush(&self) -> u64 {
        self.shared.flush_range(None)
    }

    /// Persists cached writes that overlap `[off, off+len)` — the CLWB/
    /// CLFLUSH path on byte-addressable devices.
    pub fn flush_range(&self, off: u64, len: u64) -> u64 {
        self.shared.flush_range(Some((off, len)))
    }

    /// Simulates a power failure: every unflushed write is rolled back (or,
    /// under [`FaultMode::TornWrites`], torn at a deterministic point).
    ///
    /// The device remains usable afterwards, as if powered back on.
    pub fn crash(&self) {
        self.shared.crash()
    }

    /// Number of writes currently unpersisted (test aid).
    pub fn unflushed_writes(&self) -> usize {
        self.shared.inner.lock().undo.len()
    }
}

impl<S: Store> Shared<S> {
    fn new(config: DeviceConfig, clock: VirtualClock) -> Self {
        Self {
            profile: config.profile,
            capacity: config.capacity,
            clock,
            stats: DeviceStats::default(),
            track_durability: config.track_durability,
            inner: Mutex::new(Inner {
                media: S::default(),
                last_end: 0,
                fault: FaultMode::None,
                undo: Vec::new(),
                plan: None,
            }),
        }
    }

    fn check_bounds(&self, off: u64, len: u64) -> Result<(), DevError> {
        if off.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(DevError::OutOfBounds {
                off,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    fn read(&self, off: u64, buf: &mut [u8]) -> Result<u64, DevError> {
        self.check_bounds(off, buf.len() as u64)?;
        let mut inner = self.inner.lock();
        if inner.plan.as_ref().is_some_and(|p| p.power_off()) {
            return Err(DevError::Io("simulated power loss".into()));
        }
        if inner.fault.tick_should_fail() {
            return Err(DevError::Io("injected fail-stop".into()));
        }
        let p = &self.profile;
        if p.seek_ns > 0 && off != inner.last_end {
            self.stats.on_seek();
        }
        let ns = p.read_cost(off, buf.len() as u64, inner.last_end);
        // Bit rot fires before the data leaves the device: a single stored
        // bit inside the range being read flips — persistently, with no
        // undo record (media decay is durable) — and the corrupted bytes
        // are served as if nothing happened.
        if let Some((delta, mask)) = inner.fault.tick_bit_rot(buf.len() as u64) {
            let mut byte = [0u8; 1];
            inner.media.read(off + delta, &mut byte);
            byte[0] ^= mask;
            inner.media.write(off + delta, &byte);
            self.stats.on_corruption();
        }
        inner.media.read(off, buf);
        inner.last_end = off + buf.len() as u64;
        drop(inner);
        self.clock.advance(ns);
        self.stats.on_read(buf.len() as u64, ns);
        Ok(ns)
    }

    fn write(&self, off: u64, data: &[u8]) -> Result<u64, DevError> {
        self.check_bounds(off, data.len() as u64)?;
        let mut inner = self.inner.lock();
        if let Some(plan) = inner.plan.clone() {
            match plan.tick_mutation(Some(data.len() as u64)) {
                PlanVerdict::Run => {}
                PlanVerdict::Trip { keep } => {
                    // Power loss mid-write: the write cache is lost, but a
                    // deterministic sector-aligned prefix of this very write
                    // may still land (torn write). Apply it after rollback
                    // and without an undo record — it is durable.
                    Self::rollback(&mut inner, None);
                    if keep > 0 {
                        inner.media.write(off, &data[..keep as usize]);
                    }
                    return Err(DevError::Io("simulated power loss".into()));
                }
                PlanVerdict::Off => return Err(DevError::Io("simulated power loss".into())),
            }
        }
        if inner.fault.tick_should_fail() {
            return Err(DevError::Io("injected fail-stop".into()));
        }
        let p = &self.profile;
        if p.seek_ns > 0 && off != inner.last_end {
            self.stats.on_seek();
        }
        let ns = p.write_cost(off, data.len() as u64, inner.last_end);
        // Silent write corruption: a lost write is acknowledged but never
        // stored; a misdirected write is stored whole at the wrong
        // page-aligned offset (with normal durability semantics there),
        // leaving the intended range untouched. Neither returns an error.
        let lost = matches!(inner.fault, FaultMode::LostWrite);
        let landing = if lost {
            None
        } else {
            Some(
                inner
                    .fault
                    .tick_misdirect(off, data.len() as u64, self.capacity)
                    .unwrap_or(off),
            )
        };
        if lost || landing != Some(off) {
            self.stats.on_corruption();
        }
        if let Some(at) = landing {
            if self.track_durability {
                let old = inner.media.save(at, data.len());
                inner.undo.push(UndoRecord { off: at, old });
            }
            inner.media.write(at, data);
        }
        inner.last_end = off + data.len() as u64;
        drop(inner);
        self.clock.advance(ns);
        self.stats.on_write(data.len() as u64, ns);
        Ok(ns)
    }

    /// Persists the cached writes that overlap `range` as `(off, len)`,
    /// or with `None` every one.
    fn flush_range(&self, range: Option<(u64, u64)>) -> u64 {
        let mut inner = self.inner.lock();
        if let Some(plan) = inner.plan.clone() {
            match plan.tick_mutation(None) {
                PlanVerdict::Run => {}
                PlanVerdict::Trip { .. } => {
                    Self::rollback(&mut inner, None);
                    return 0;
                }
                PlanVerdict::Off => return 0,
            }
        }
        let Inner { media, undo, .. } = &mut *inner;
        match range {
            None => undo.drain(..).for_each(|r| media.recycle(r.old)),
            Some((off, len)) => undo.retain_mut(|r| {
                let keep = r.off + r.old.len() as u64 <= off || r.off >= off + len;
                if !keep {
                    media.recycle(std::mem::take(&mut r.old));
                }
                keep
            }),
        }
        drop(inner);
        let ns = self.profile.flush_ns;
        self.clock.advance(ns);
        self.stats.on_flush(ns);
        ns
    }

    fn crash(&self) {
        let mut inner = self.inner.lock();
        let torn_seed = match inner.fault {
            FaultMode::TornWrites { seed } => Some(seed),
            _ => None,
        };
        Self::rollback(&mut inner, torn_seed);
    }

    /// Restores the last-flushed image: rolls back every undo record
    /// (newest first so overlapping writes restore correctly), optionally
    /// keeping a deterministic torn prefix of each unflushed write.
    fn rollback(inner: &mut Inner<S>, torn_seed: Option<u64>) {
        let Inner { media, undo, .. } = inner;
        for (i, rec) in undo.drain(..).enumerate().rev() {
            let keep = match torn_seed {
                // Deterministic tear point in [0, len]: a prefix of the new
                // data survives, the rest rolls back.
                Some(seed) => {
                    let h = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64)
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    (h % (rec.old.len() as u64 + 1)) as usize
                }
                None => 0,
            };
            if keep < rec.old.len() {
                media.write(rec.off + keep as u64, &rec.old[keep..]);
            }
            media.recycle(rec.old);
        }
        inner.last_end = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hdd, nvme_ssd, pmem, StatsSnapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pm_dev() -> Device {
        Device::with_profile(pmem(), 1 << 26, VirtualClock::new())
    }

    #[test]
    fn read_unwritten_returns_zeros() {
        let d = pm_dev();
        let mut buf = [0xFFu8; 64];
        d.read(1000, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let d = pm_dev();
        d.write(4090, b"hello world").unwrap(); // spans a page boundary
        let mut buf = [0u8; 11];
        d.read(4090, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let d = pm_dev();
        let cap = d.capacity();
        assert!(matches!(
            d.write(cap - 4, &[0u8; 8]),
            Err(DevError::OutOfBounds { .. })
        ));
        let mut b = [0u8; 8];
        assert!(d.read(cap, &mut b).is_err());
        // Overflowing offset must not panic.
        assert!(d.read(u64::MAX, &mut b).is_err());
    }

    #[test]
    fn clock_advances_on_io() {
        let d = pm_dev();
        let t0 = d.clock().now_ns();
        d.write(0, &[1u8; 4096]).unwrap();
        assert!(d.clock().now_ns() > t0);
    }

    #[test]
    fn stats_recorded() {
        let d = pm_dev();
        d.write(0, &[1u8; 100]).unwrap();
        let mut b = [0u8; 50];
        d.read(0, &mut b).unwrap();
        d.flush();
        let s = d.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 50);
        assert_eq!(s.flushes, 1);
        assert!(s.busy_ns > 0);
    }

    #[test]
    fn crash_discards_unflushed() {
        let d = pm_dev();
        d.write(0, b"durable").unwrap();
        d.flush();
        d.write(0, b"ephemer").unwrap();
        d.crash();
        let mut b = [0u8; 7];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"durable");
    }

    #[test]
    fn crash_preserves_flushed_range() {
        let d = pm_dev();
        d.write(0, b"aaaa").unwrap();
        d.write(100, b"bbbb").unwrap();
        // Writes that end where the range starts, or start where it ends,
        // do not overlap it.
        d.write(200, b"cccc").unwrap();
        d.write(204, b"dddd").unwrap();
        d.write(208, b"eeee").unwrap();
        d.flush_range(0, 4);
        d.flush_range(204, 4);
        d.crash();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 12];
        d.read(0, &mut a).unwrap();
        d.read(100, &mut b).unwrap();
        d.read(200, &mut c).unwrap();
        assert_eq!(&a, b"aaaa");
        assert_eq!(b, [0u8; 4]);
        assert_eq!(&c, b"\0\0\0\0dddd\0\0\0\0");
    }

    #[test]
    fn crash_rolls_back_overlapping_writes_in_order() {
        let d = pm_dev();
        d.write(0, b"11111111").unwrap();
        d.flush();
        d.write(0, b"22222222").unwrap();
        d.write(4, b"3333").unwrap();
        d.crash();
        let mut b = [0u8; 8];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"11111111");
    }

    #[test]
    fn torn_writes_keep_prefix_only() {
        let d = pm_dev();
        d.write(0, b"old_old_old_old_").unwrap();
        d.flush();
        d.set_fault_mode(FaultMode::TornWrites { seed: 7 });
        d.write(0, b"new_new_new_new_").unwrap();
        d.crash();
        let mut b = [0u8; 16];
        d.read(0, &mut b).unwrap();
        // Some prefix is new, the suffix is old; the whole buffer must be a
        // valid tear of the two.
        let tear = (0..=16)
            .find(|&k| b[..k] == b"new_new_new_new_"[..k] && b[k..] == b"old_old_old_old_"[k..]);
        assert!(tear.is_some(), "buffer {b:?} is not a prefix-tear");
    }

    #[test]
    fn fail_stop_injects_errors() {
        let d = pm_dev();
        d.set_fault_mode(FaultMode::FailStop { remaining_ops: 1 });
        d.write(0, b"x").unwrap();
        assert!(matches!(d.write(0, b"y"), Err(DevError::Io(_))));
        // Reads fail too.
        let mut b = [0u8; 1];
        assert!(d.read(0, &mut b).is_err());
    }

    #[test]
    fn hdd_random_slower_than_sequential() {
        let clock = VirtualClock::new();
        let d = Device::with_profile(hdd(), 1 << 30, clock.clone());
        let data = vec![0u8; 4096];
        let t_start = clock.now_ns();
        for i in 0..16 {
            d.write(i * 4096, &data).unwrap();
        }
        let seq = clock.now_ns() - t_start;
        let t_start = clock.now_ns();
        for i in 0..16 {
            d.write(((i * 7919) % 1024) * (1 << 20), &data).unwrap();
        }
        let rand = clock.now_ns() - t_start;
        assert!(
            rand > seq * 5,
            "random {rand} should dwarf sequential {seq}"
        );
        assert!(d.stats().snapshot().seeks >= 16);
    }

    #[test]
    fn ssd_faster_than_hdd_random() {
        let clock = VirtualClock::new();
        let ssd = Device::with_profile(nvme_ssd(), 1 << 30, clock.clone());
        let hdd_dev = Device::with_profile(hdd(), 1 << 30, clock.clone());
        let data = vec![0u8; 4096];
        let ssd_ns = ssd.write(123 << 20, &data).unwrap();
        let hdd_ns = hdd_dev.write(123 << 20, &data).unwrap();
        assert!(hdd_ns > ssd_ns * 10);
    }

    #[test]
    fn untracked_device_keeps_writes_on_crash() {
        let d = Device::new(
            DeviceConfig {
                profile: pmem(),
                capacity: 1 << 20,
                track_durability: false,
            },
            VirtualClock::new(),
        );
        d.write(0, b"stay").unwrap();
        d.crash();
        let mut b = [0u8; 4];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"stay");
        assert_eq!(d.unflushed_writes(), 0);
    }

    #[test]
    fn crash_plan_probe_counts_mutations_only() {
        let d = pm_dev();
        let plan = CrashPlan::probe();
        d.set_crash_plan(Some(plan.clone()));
        d.write(0, b"a").unwrap();
        let mut b = [0u8; 1];
        d.read(0, &mut b).unwrap(); // reads don't count
        d.flush();
        d.flush_range(0, 1);
        assert_eq!(plan.ops_seen(), 3);
        assert!(!plan.tripped());
    }

    #[test]
    fn crash_plan_trips_at_k_and_loses_unflushed() {
        let d = pm_dev();
        d.write(0, b"durable").unwrap();
        d.flush();
        // Ops so far don't count: the plan attaches now.
        let plan = CrashPlan::new(2);
        d.set_crash_plan(Some(plan.clone()));
        d.write(0, b"ephemr1").unwrap(); // op 1: lands, unflushed
        let err = d.write(0, b"ephemr2").unwrap_err(); // op 2: trips
        assert!(matches!(err, DevError::Io(_)));
        assert!(plan.tripped());
        // Power is off: everything fails, flush persists nothing.
        assert!(d.write(100, b"x").is_err());
        let mut b = [0u8; 7];
        assert!(d.read(0, &mut b).is_err());
        assert_eq!(d.flush(), 0);
        // Power back on: the flushed image survived, the rest rolled back.
        d.set_crash_plan(None);
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"durable");
    }

    #[test]
    fn crash_plan_is_shared_across_devices() {
        let clock = VirtualClock::new();
        let d1 = Device::with_profile(pmem(), 1 << 20, clock.clone());
        let d2 = Device::with_profile(pmem(), 1 << 20, clock);
        let plan = CrashPlan::new(2);
        d1.set_crash_plan(Some(plan.clone()));
        d2.set_crash_plan(Some(plan));
        d1.write(0, b"x").unwrap(); // op 1 on d1
        assert!(d2.write(0, b"y").is_err()); // op 2 on d2 trips both
        assert!(d1.write(4, b"z").is_err()); // d1 is dead too
    }

    #[test]
    fn crash_plan_flush_at_trip_persists_nothing() {
        let d = pm_dev();
        d.write(0, b"old").unwrap();
        d.flush();
        let plan = CrashPlan::new(2);
        d.set_crash_plan(Some(plan));
        d.write(0, b"new").unwrap(); // op 1
        assert_eq!(d.flush(), 0); // op 2: power dies during the barrier
        d.set_crash_plan(None);
        let mut b = [0u8; 3];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"old");
        assert_eq!(d.unflushed_writes(), 0);
    }

    #[test]
    fn crash_plan_torn_tail_keeps_aligned_prefix() {
        // Scan seeds until one yields a strictly partial tear, proving the
        // prefix mechanism works and stays boundary-aligned.
        let mut saw_partial = false;
        for seed in 0..32 {
            let d = pm_dev();
            d.write(0, &[b'o'; 1024]).unwrap();
            d.flush();
            let plan = CrashPlan::with_torn_tail(1, 256, seed);
            d.set_crash_plan(Some(plan));
            assert!(d.write(0, &[b'n'; 1024]).is_err());
            d.set_crash_plan(None);
            let mut b = [0u8; 1024];
            d.read(0, &mut b).unwrap();
            let keep = b.iter().take_while(|&&c| c == b'n').count();
            assert_eq!(keep % 256, 0, "tear not sector-aligned: {keep}");
            assert!(b[keep..].iter().all(|&c| c == b'o'));
            if keep > 0 && keep < 1024 {
                saw_partial = true;
            }
        }
        assert!(saw_partial, "no seed produced a partial tear");
    }

    #[test]
    fn bit_rot_flips_one_stored_bit_and_persists() {
        let d = pm_dev();
        let data = [0xAAu8; 512];
        d.write(0, &data).unwrap();
        d.flush();
        d.set_fault_mode(FaultMode::BitRot { period: 1, seed: 9 });
        let mut got = [0u8; 512];
        d.read(0, &mut got).unwrap(); // no error: the device lies
        let flipped: u32 = got
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit rots per firing read");
        // The rot is in the store, not the transfer: a healthy re-read
        // sees the same corrupted image, and so does a post-crash read
        // (the flip is durable media decay, not an unflushed write).
        d.set_fault_mode(FaultMode::None);
        let mut again = [0u8; 512];
        d.read(0, &mut again).unwrap();
        assert_eq!(got, again);
        d.crash();
        d.read(0, &mut again).unwrap();
        assert_eq!(got, again);
        assert_eq!(d.stats().snapshot().corruptions, 1);
    }

    #[test]
    fn bit_rot_same_seed_same_damage() {
        let mk = || {
            let d = pm_dev();
            d.write(0, &[0x55u8; 4096]).unwrap();
            d.flush();
            d.set_fault_mode(FaultMode::BitRot {
                period: 2,
                seed: 77,
            });
            let mut b = vec![0u8; 4096];
            for _ in 0..8 {
                d.read(0, &mut b).unwrap();
            }
            b
        };
        assert_eq!(mk(), mk(), "identical seeds must rot identically");
    }

    #[test]
    fn lost_write_acks_but_persists_nothing() {
        let d = pm_dev();
        d.write(0, b"original").unwrap();
        d.flush();
        d.set_fault_mode(FaultMode::LostWrite);
        let ns = d.write(0, b"vanished").unwrap();
        assert!(ns > 0, "the lie still charges service time");
        assert_eq!(d.unflushed_writes(), 0, "nothing reached the write cache");
        let mut b = [0u8; 8];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b, b"original");
        assert_eq!(d.stats().snapshot().corruptions, 1);
    }

    #[test]
    fn misdirected_write_lands_whole_on_a_wrong_page() {
        let d = pm_dev();
        d.write(0, &[1u8; 4096]).unwrap();
        d.flush();
        d.set_fault_mode(FaultMode::MisdirectedWrite { seed: 13 });
        d.write(0, &[2u8; 4096]).unwrap();
        d.set_fault_mode(FaultMode::None);
        // The intended page silently kept its old content...
        let mut b = vec![0u8; 4096];
        d.read(0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 1), "intended range must be stale");
        // ...and the payload landed whole on some other page.
        let cap = d.capacity();
        let found = (1..cap / SIM_PAGE as u64).any(|p| {
            let mut q = vec![0u8; 4096];
            d.read(p * SIM_PAGE as u64, &mut q).unwrap();
            q.iter().all(|&x| x == 2)
        });
        assert!(found, "misdirected payload not found anywhere");
        assert_eq!(d.stats().snapshot().corruptions, 1);
    }

    #[test]
    fn misdirected_write_respects_crash_semantics() {
        // The stray landing obeys the same volatility rules as any write:
        // unflushed, it rolls back on crash.
        let d = pm_dev();
        d.flush();
        d.set_fault_mode(FaultMode::MisdirectedWrite { seed: 13 });
        d.write(0, &[2u8; 4096]).unwrap();
        d.set_fault_mode(FaultMode::None);
        assert_eq!(d.unflushed_writes(), 1);
        d.crash();
        let cap = d.capacity();
        for p in 0..cap / SIM_PAGE as u64 {
            let mut q = vec![0u8; 4096];
            d.read(p * SIM_PAGE as u64, &mut q).unwrap();
            assert!(q.iter().all(|&x| x == 0), "stray write survived the crash");
        }
    }

    #[test]
    fn silent_write_modes_still_count_as_crash_plan_mutations() {
        // A lost or misdirected write is still a command the device
        // received: crash enumeration must count it.
        let d = pm_dev();
        let plan = CrashPlan::probe();
        d.set_crash_plan(Some(plan.clone()));
        d.set_fault_mode(FaultMode::LostWrite);
        d.write(0, b"a").unwrap();
        d.set_fault_mode(FaultMode::MisdirectedWrite { seed: 1 });
        d.write(0, b"b").unwrap();
        assert_eq!(plan.ops_seen(), 2);
    }

    #[test]
    fn concurrent_writers_disjoint_ranges() {
        let d = pm_dev();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let d = d.clone();
                std::thread::spawn(move || {
                    let data = vec![i as u8 + 1; 1024];
                    for j in 0..32 {
                        d.write(i * (1 << 20) + j * 1024, &data).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4u64 {
            let mut b = vec![0u8; 1024];
            d.read(i * (1 << 20), &mut b).unwrap();
            assert!(b.iter().all(|&x| x == i as u8 + 1));
        }
    }

    #[test]
    fn index_holds_only_the_leaves_and_pages_written() {
        let d = Device::with_profile(pmem(), 1 << 30, VirtualClock::new());
        d.write(0, &[1; SIM_PAGE]).unwrap();
        d.write((1 << 30) - SIM_PAGE as u64, &[2; SIM_PAGE])
            .unwrap();
        // Reads, and the undo records of writes over never-written pages,
        // allocate nothing.
        let mut b = vec![0; 64 << 10];
        d.read(1 << 29, &mut b).unwrap();
        assert_eq!(d.shared.inner.lock().media.footprint(), (2, 2));
    }

    #[test]
    fn flushed_undo_buffers_are_reused_up_to_a_bound() {
        let d = pm_dev();
        let spares = || d.shared.inner.lock().media.spare.len();
        for i in 0..2 * SPARE_BUFFERS as u64 {
            d.write(i * SIM_PAGE as u64, &[1; SIM_PAGE]).unwrap();
        }
        d.flush();
        assert_eq!(spares(), SPARE_BUFFERS);
        d.write(0, &[2; SIM_PAGE]).unwrap();
        d.flush_range(0, 1);
        assert_eq!(spares(), SPARE_BUFFERS);
        // A large record's buffer is dropped, not kept.
        d.write(0, &vec![3; 2 * SPARE_MAX_BYTES]).unwrap();
        d.flush();
        assert_eq!(spares(), SPARE_BUFFERS - 1);
    }

    /// The media store before the two-level index: one map entry per
    /// written page, and a fresh zero-filled buffer per undo record.
    mod oracle {
        use std::collections::HashMap;

        use crate::SIM_PAGE;

        #[derive(Default)]
        pub(super) struct Pages(HashMap<u64, Box<[u8; SIM_PAGE]>>);

        impl super::super::Store for Pages {
            fn read(&self, off: u64, buf: &mut [u8]) {
                let mut done = 0usize;
                while done < buf.len() {
                    let cur = off + done as u64;
                    let page_no = cur / SIM_PAGE as u64;
                    let in_page = (cur % SIM_PAGE as u64) as usize;
                    let n = (SIM_PAGE - in_page).min(buf.len() - done);
                    match self.0.get(&page_no) {
                        Some(p) => buf[done..done + n].copy_from_slice(&p[in_page..in_page + n]),
                        None => buf[done..done + n].fill(0),
                    }
                    done += n;
                }
            }

            fn write(&mut self, off: u64, data: &[u8]) {
                let mut done = 0usize;
                while done < data.len() {
                    let cur = off + done as u64;
                    let page_no = cur / SIM_PAGE as u64;
                    let in_page = (cur % SIM_PAGE as u64) as usize;
                    let n = (SIM_PAGE - in_page).min(data.len() - done);
                    let page = self
                        .0
                        .entry(page_no)
                        .or_insert_with(|| Box::new([0u8; SIM_PAGE]));
                    page[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
                    done += n;
                }
            }

            fn save(&mut self, off: u64, len: usize) -> Vec<u8> {
                let mut old = vec![0u8; len];
                self.read(off, &mut old);
                old
            }

            fn recycle(&mut self, _: Vec<u8>) {}
        }
    }

    const LEAF_BYTES: u64 = (LEAF_PAGES * SIM_PAGE) as u64;
    /// Four leaves; scripted writes stay below [`WRITTEN`], so the last
    /// leaf and a half are only reached by a misdirected write.
    const CAP: u64 = 4 * LEAF_BYTES;
    const WRITTEN: u64 = 5 << 20;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Writes `len` bytes of the test's noise, starting at `from`.
        Write {
            off: u64,
            len: usize,
            from: usize,
        },
        Read {
            off: u64,
            len: usize,
        },
        Flush,
        FlushRange {
            off: u64,
            len: u64,
        },
        Crash,
        Fault(FaultMode),
        /// Attaches a fresh plan that trips at this mutation, torn at
        /// 512-byte boundaries with the seed if one is given; `None`
        /// detaches it.
        Plan(Option<(u64, Option<u64>)>),
    }

    /// An offset a few pages either side of a leaf boundary, or anywhere
    /// below [`WRITTEN`].
    fn near_edge(rng: &mut StdRng) -> u64 {
        if rng.gen_bool(0.5) {
            let edge = LEAF_BYTES * rng.gen_range(1..3u64);
            edge + rng.gen_range(0..6 * SIM_PAGE as u64) - 3 * SIM_PAGE as u64
        } else {
            rng.gen_range(0..WRITTEN - (64 << 10))
        }
    }

    const MAX_LEN: usize = 64 << 10;

    fn length(rng: &mut StdRng) -> usize {
        if rng.gen_bool(0.1) {
            rng.gen_range(1..=MAX_LEN)
        } else {
            rng.gen_range(1..=3 * SIM_PAGE + 1)
        }
    }

    fn gen_op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..100) {
            0..=37 => Op::Write {
                off: near_edge(rng),
                len: length(rng),
                from: rng.gen_range(0..MAX_LEN),
            },
            38..=61 => Op::Read {
                off: if rng.gen_bool(0.2) {
                    rng.gen_range(WRITTEN..CAP - (64 << 10))
                } else {
                    near_edge(rng)
                },
                len: length(rng),
            },
            62..=68 => Op::Flush,
            69..=77 => Op::FlushRange {
                off: near_edge(rng),
                len: length(rng) as u64,
            },
            78..=82 => Op::Crash,
            83..=93 => Op::Fault(match rng.gen_range(0..10) {
                0..=3 => FaultMode::None,
                4 => FaultMode::TornWrites { seed: rng.gen() },
                5 => FaultMode::BitRot {
                    period: rng.gen_range(1..4),
                    seed: rng.gen(),
                },
                6 => FaultMode::LostWrite,
                7 => FaultMode::MisdirectedWrite { seed: rng.gen() },
                _ => FaultMode::FailStop {
                    remaining_ops: rng.gen_range(0..6),
                },
            }),
            _ => Op::Plan(
                rng.gen_bool(0.5)
                    .then(|| (rng.gen_range(1..8), rng.gen_bool(0.5).then(|| rng.gen()))),
            ),
        }
    }

    /// What one op returned and left behind on one device.
    #[derive(Debug, PartialEq)]
    struct Seen {
        ret: Result<u64, DevError>,
        bytes: Vec<u8>,
        unflushed: usize,
        powered_off: bool,
        stats: StatsSnapshot,
        now: u64,
    }

    fn apply<S: Store>(d: &Shared<S>, op: Op, noise: &[u8]) -> Seen {
        let mut bytes = Vec::new();
        let ret = match op {
            Op::Write { off, len, from } => d.write(off, &noise[from..from + len]),
            Op::Read { off, len } => {
                bytes = vec![0xEE; len];
                d.read(off, &mut bytes)
            }
            Op::Flush => Ok(d.flush_range(None)),
            Op::FlushRange { off, len } => Ok(d.flush_range(Some((off, len)))),
            Op::Crash => {
                d.crash();
                Ok(0)
            }
            Op::Fault(mode) => {
                d.inner.lock().fault = mode;
                Ok(0)
            }
            Op::Plan(plan) => {
                d.inner.lock().plan = plan.map(|(at, tear)| match tear {
                    Some(seed) => CrashPlan::with_torn_tail(at, 512, seed),
                    None => CrashPlan::new(at),
                });
                Ok(0)
            }
        };
        let inner = d.inner.lock();
        Seen {
            ret,
            bytes,
            unflushed: inner.undo.len(),
            powered_off: inner.plan.as_ref().is_some_and(|p| p.tripped()),
            stats: d.stats.snapshot(),
            now: d.clock.now_ns(),
        }
    }

    /// Seeded op scripts run on a device over the two-level index and on
    /// one over the oracle store; every op returns, reads and counts the
    /// same on both, and so do the whole media at the end.
    #[test]
    fn agrees_with_the_hash_map_store() {
        let (mut crossing_writes, mut trips, mut corruptions) = (0, 0, 0);
        for seed in 0..16u64 {
            let config = DeviceConfig {
                profile: pmem(),
                capacity: CAP,
                track_durability: seed % 4 != 3,
            };
            let new = Shared::<Media>::new(config.clone(), VirtualClock::new());
            let old = Shared::<oracle::Pages>::new(config, VirtualClock::new());
            let mut rng = StdRng::seed_from_u64(seed);
            let noise: Vec<u8> = (0..2 * MAX_LEN).map(|_| rng.gen()).collect();
            let mut was_off = false;
            let mut script: Vec<Op> = (0..600).map(|_| gen_op(&mut rng)).collect();
            script.extend([
                Op::Plan(None),
                Op::Fault(FaultMode::None),
                Op::Read {
                    off: 0,
                    len: CAP as usize,
                },
                Op::Crash,
                Op::Read {
                    off: 0,
                    len: CAP as usize,
                },
            ]);
            for (step, &op) in script.iter().enumerate() {
                let seen = apply(&new, op, &noise);
                assert_eq!(
                    seen,
                    apply(&old, op, &noise),
                    "seed {seed} step {step}: {op:?}"
                );
                if let (Op::Write { off, len, .. }, Ok(_)) = (op, &seen.ret) {
                    crossing_writes +=
                        usize::from(off / LEAF_BYTES != (off + len as u64 - 1) / LEAF_BYTES);
                }
                trips += usize::from(seen.powered_off && !was_off);
                was_off = seen.powered_off;
            }
            corruptions += new.stats.snapshot().corruptions;
        }
        assert!(
            crossing_writes > 100,
            "{crossing_writes} leaf-crossing writes"
        );
        assert!(trips > 10, "{trips} crash-plan trips");
        assert!(corruptions > 100, "{corruptions} silent corruptions");
    }
}
