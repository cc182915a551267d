//! The Cache Controller: an SCM-resident shared block cache (paper §2.5).
//!
//! Native file systems each keep their own DRAM page cache, but that cache
//! "cannot be shared across devices" and DRAM "is difficult to scale", so
//! Mux offloads caching to a Storage-Class-Memory device: one preallocated
//! cache file on the PM tier, accessed through a DAX window (direct device
//! loads/stores, no per-access file-system call), with multi-generational
//! LRU replacement ([`crate::mglru`]).
//!
//! Writes invalidate (write-invalidate keeps a single authoritative copy in
//! the tiers); reads from slow tiers fill the cache.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simdev::{Device, DeviceClass, VirtualClock};
use tvfs::{VfsError, VfsResult};

use crate::file::MuxIno;
use crate::hist::{LatencyRegistry, OpKind, CACHE_TIER};
use crate::mglru::Mglru;
use crate::trace::{TraceBuffer, TraceEventKind};
use crate::types::BLOCK;

/// Where cache slots physically live.
pub trait CacheBackend: Send + Sync {
    /// Reads one block-sized slot at byte offset `slot_off` in the cache
    /// space.
    fn read_slot(&self, slot_off: u64, buf: &mut [u8]) -> VfsResult<()>;
    /// Writes one slot.
    fn write_slot(&self, slot_off: u64, data: &[u8]) -> VfsResult<()>;
    /// Usable bytes.
    fn capacity(&self) -> u64;
}

/// A DAX window: the cache file's device extents, accessed with raw device
/// loads/stores — the paper's "DAX memory mapping for the cache file".
pub struct DaxWindow {
    dev: Device,
    /// `(device_byte_offset, byte_len)` runs forming the cache space.
    extents: Vec<(u64, u64)>,
    capacity: u64,
}

impl DaxWindow {
    /// Builds a window over the given device extents.
    pub fn new(dev: Device, extents: Vec<(u64, u64)>) -> Self {
        let capacity = extents.iter().map(|(_, l)| l).sum();
        DaxWindow {
            dev,
            extents,
            capacity,
        }
    }

    fn locate(&self, slot_off: u64) -> VfsResult<u64> {
        let mut within = slot_off;
        for &(dev_off, len) in &self.extents {
            if within < len {
                return Ok(dev_off + within);
            }
            within -= len;
        }
        Err(VfsError::InvalidArgument("slot beyond cache window".into()))
    }
}

impl CacheBackend for DaxWindow {
    fn read_slot(&self, slot_off: u64, buf: &mut [u8]) -> VfsResult<()> {
        let dev_off = self.locate(slot_off)?;
        self.dev.read(dev_off, buf)?;
        Ok(())
    }

    fn write_slot(&self, slot_off: u64, data: &[u8]) -> VfsResult<()> {
        let dev_off = self.locate(slot_off)?;
        self.dev.write(dev_off, data)?;
        Ok(())
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// Configuration for the cache controller.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Only blocks read from tiers of this class or slower are cached
    /// (caching PM-resident data in a PM cache would be pointless).
    pub cache_from: DeviceClass,
    /// MGLRU generations.
    pub generations: u64,
    /// Insertions per generation before aging.
    pub age_threshold: u64,
    /// Insert fresh blocks into the youngest generation (classic-LRU
    /// emulation) instead of the oldest (MGLRU scan resistance).
    pub insert_young: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            cache_from: DeviceClass::Ssd,
            generations: 4,
            age_threshold: 1024,
            insert_young: false,
        }
    }
}

struct CacheInner {
    /// `(file, block)` → slot index.
    map: HashMap<(MuxIno, u64), u64>,
    /// Slot index → key (for eviction bookkeeping).
    rev: HashMap<u64, (MuxIno, u64)>,
    free: Vec<u64>,
    lru: Mglru<(MuxIno, u64)>,
    hits: u64,
    misses: u64,
}

/// Observability hookup: cache operations record their virtual-time
/// duration under [`CACHE_TIER`] and emit hit/miss events.
struct CacheObserver {
    clock: VirtualClock,
    lat: Arc<LatencyRegistry>,
    trace: Arc<TraceBuffer>,
}

/// The SCM block cache.
pub struct CacheController {
    backend: Box<dyn CacheBackend>,
    config: CacheConfig,
    inner: Mutex<CacheInner>,
    observer: Mutex<Option<CacheObserver>>,
}

impl CacheController {
    /// Builds a cache over `backend` (all slots initially free).
    pub fn new(backend: Box<dyn CacheBackend>, config: CacheConfig) -> Self {
        let slots = backend.capacity() / BLOCK;
        CacheController {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                rev: HashMap::new(),
                free: (0..slots).rev().collect(),
                lru: Mglru::with_insertion(
                    config.generations,
                    config.age_threshold,
                    config.insert_young,
                ),
                hits: 0,
                misses: 0,
            }),
            backend,
            config,
            observer: Mutex::new(None),
        }
    }

    /// Wires the cache into an observability layer: lookups and fills
    /// record their latency under [`CACHE_TIER`], and every lookup emits a
    /// `CacheHit`/`CacheMiss` trace event. Called by `Mux::attach_cache`;
    /// a standalone controller records nothing.
    pub fn attach_observer(
        &self,
        clock: VirtualClock,
        lat: Arc<LatencyRegistry>,
        trace: Arc<TraceBuffer>,
    ) {
        *self.observer.lock() = Some(CacheObserver { clock, lat, trace });
    }

    /// Runs `f`, records its virtual-time duration as `op`, and reports
    /// the outcome `f` exposes through `event(&result)` as a trace event.
    fn observed<T>(
        &self,
        op: OpKind,
        ino: MuxIno,
        block: u64,
        f: impl FnOnce() -> T,
        event: impl FnOnce(&T) -> Option<TraceEventKind>,
    ) -> T {
        let obs = self.observer.lock();
        let Some(o) = obs.as_ref() else {
            drop(obs);
            return f();
        };
        let t0 = o.clock.now_ns();
        let out = f();
        o.lat.record(op, CACHE_TIER, o.clock.now_ns() - t0);
        if let Some(kind) = event(&out) {
            o.trace.push(
                o.clock.now_ns(),
                kind,
                CACHE_TIER,
                ino,
                block * BLOCK,
                BLOCK,
            );
        }
        out
    }

    /// Whether data living on a tier of `class` should be cached.
    pub fn should_cache(&self, class: DeviceClass) -> bool {
        class >= self.config.cache_from
    }

    /// Total slots.
    pub fn capacity_blocks(&self) -> u64 {
        self.backend.capacity() / BLOCK
    }

    /// Resident blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.inner.lock().map.len() as u64
    }

    /// `(hits, misses)` so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        let i = self.inner.lock();
        (i.hits, i.misses)
    }

    /// Looks up one block; on a hit, fills `buf` from SCM and returns
    /// `true`.
    pub fn lookup(&self, ino: MuxIno, block: u64, buf: &mut [u8]) -> VfsResult<bool> {
        self.observed(
            OpKind::CacheLookup,
            ino,
            block,
            || {
                let slot = {
                    let mut inner = self.inner.lock();
                    match inner.map.get(&(ino, block)).copied() {
                        Some(s) => {
                            inner.lru.touch(&(ino, block));
                            inner.hits += 1;
                            Some(s)
                        }
                        None => {
                            inner.misses += 1;
                            None
                        }
                    }
                };
                match slot {
                    Some(s) => {
                        self.backend.read_slot(s * BLOCK, buf)?;
                        Ok(true)
                    }
                    None => Ok(false),
                }
            },
            |res| match res {
                Ok(true) => Some(TraceEventKind::CacheHit),
                // A backend error is served as a miss by the read path.
                Ok(false) | Err(_) => Some(TraceEventKind::CacheMiss),
            },
        )
    }

    /// Inserts one block's content, evicting if needed.
    pub fn fill(&self, ino: MuxIno, block: u64, data: &[u8]) -> VfsResult<()> {
        self.observed(
            OpKind::CacheFill,
            ino,
            block,
            || self.fill_inner(ino, block, data),
            |_| None,
        )
    }

    fn fill_inner(&self, ino: MuxIno, block: u64, data: &[u8]) -> VfsResult<()> {
        debug_assert_eq!(data.len() as u64, BLOCK);
        let slot = {
            let mut inner = self.inner.lock();
            if let Some(&s) = inner.map.get(&(ino, block)) {
                inner.lru.touch(&(ino, block));
                s
            } else {
                let s = match inner.free.pop() {
                    Some(s) => s,
                    None => {
                        // Evict the coldest entry and reuse its slot.
                        let Some(victim) = inner.lru.evict() else {
                            return Ok(()); // zero-capacity cache
                        };
                        let Some(s) = inner.map.remove(&victim) else {
                            // LRU and map disagree — drop the fill rather
                            // than panic; the cache is best-effort.
                            return Ok(());
                        };
                        inner.rev.remove(&s);
                        s
                    }
                };
                inner.map.insert((ino, block), s);
                inner.rev.insert(s, (ino, block));
                inner.lru.insert((ino, block));
                s
            }
        };
        self.backend.write_slot(slot * BLOCK, data)
    }

    /// Drops `[block, block+n)` of a file (write-invalidate; unlink and
    /// truncate pass ranges that run to the end of the block space). The
    /// work is bounded by what is cached, not by the range asked for: a
    /// range wider than the population walks the cached keys instead.
    pub fn invalidate(&self, ino: MuxIno, block: u64, n: u64) {
        let mut inner = self.inner.lock();
        let range = block..block.saturating_add(n);
        let keys: Vec<(MuxIno, u64)> = if n <= inner.map.len() as u64 {
            range.map(|b| (ino, b)).collect()
        } else {
            let cached = inner.map.keys().copied();
            cached
                .filter(|(i, b)| *i == ino && range.contains(b))
                .collect()
        };
        for k in keys {
            if let Some(s) = inner.map.remove(&k) {
                inner.rev.remove(&s);
                inner.lru.remove(&k);
                inner.free.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{pmem, VirtualClock};

    fn controller(slots: u64) -> CacheController {
        let dev = Device::with_profile(pmem(), 64 << 20, VirtualClock::new());
        // A contiguous DAX window starting at 1 MiB.
        let window = DaxWindow::new(dev, vec![(1 << 20, slots * BLOCK)]);
        CacheController::new(Box::new(window), CacheConfig::default())
    }

    fn block(b: u8) -> Vec<u8> {
        vec![b; BLOCK as usize]
    }

    #[test]
    fn fill_then_hit() {
        let c = controller(8);
        c.fill(1, 0, &block(7)).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        assert!(c.lookup(1, 0, &mut buf).unwrap());
        assert_eq!(buf, block(7));
        assert!(!c.lookup(1, 1, &mut buf).unwrap());
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn eviction_when_full() {
        let c = controller(2);
        c.fill(1, 0, &block(0)).unwrap();
        c.fill(1, 1, &block(1)).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        c.lookup(1, 1, &mut buf).unwrap(); // touch 1 → 0 is coldest
        c.fill(1, 2, &block(2)).unwrap();
        assert!(!c.lookup(1, 0, &mut buf).unwrap(), "0 evicted");
        assert!(c.lookup(1, 1, &mut buf).unwrap());
        assert!(c.lookup(1, 2, &mut buf).unwrap());
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn refill_same_block_updates_content() {
        let c = controller(4);
        c.fill(1, 0, &block(1)).unwrap();
        c.fill(1, 0, &block(2)).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        c.lookup(1, 0, &mut buf).unwrap();
        assert_eq!(buf, block(2));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn invalidate_range_and_file() {
        let c = controller(8);
        for b in 0..4 {
            c.fill(1, b, &block(b as u8)).unwrap();
        }
        c.fill(2, 0, &block(9)).unwrap();
        c.invalidate(1, 1, 2);
        let mut buf = vec![0u8; BLOCK as usize];
        assert!(c.lookup(1, 0, &mut buf).unwrap());
        assert!(!c.lookup(1, 1, &mut buf).unwrap());
        assert!(!c.lookup(1, 2, &mut buf).unwrap());
        assert!(c.lookup(1, 3, &mut buf).unwrap());
        c.invalidate(1, 0, u64::MAX);
        assert!(!c.lookup(1, 0, &mut buf).unwrap());
        assert!(c.lookup(2, 0, &mut buf).unwrap());
    }

    #[test]
    fn invalidate_is_bounded_by_the_population_not_the_range() {
        // A truncate's range runs to the end of the block space: counting
        // through it would never return.
        let c = controller(64);
        for b in 0..8 {
            c.fill(1, b, &block(b as u8)).unwrap();
        }
        c.fill(2, 5, &block(9)).unwrap();
        c.invalidate(1, 3, u64::MAX / BLOCK - 3);
        let mut buf = vec![0u8; BLOCK as usize];
        for b in 0..8 {
            assert_eq!(c.lookup(1, b, &mut buf).unwrap(), b < 3, "block {b}");
        }
        assert!(c.lookup(2, 5, &mut buf).unwrap(), "another file's block");
        assert_eq!(c.resident_blocks(), 4);
    }

    #[test]
    fn should_cache_respects_class_floor() {
        let c = controller(1);
        assert!(!c.should_cache(DeviceClass::Pmem));
        assert!(!c.should_cache(DeviceClass::CxlSsd));
        assert!(c.should_cache(DeviceClass::Ssd));
        assert!(c.should_cache(DeviceClass::Hdd));
    }

    #[test]
    fn dax_window_spans_extents() {
        let dev = Device::with_profile(pmem(), 64 << 20, VirtualClock::new());
        let w = DaxWindow::new(dev, vec![(0, BLOCK), (10 * BLOCK, BLOCK)]);
        assert_eq!(w.capacity(), 2 * BLOCK);
        w.write_slot(BLOCK, &block(5)).unwrap(); // second slot → second extent
        let mut buf = vec![0u8; BLOCK as usize];
        w.read_slot(BLOCK, &mut buf).unwrap();
        assert_eq!(buf, block(5));
        // Beyond the window errors.
        assert!(w.read_slot(2 * BLOCK, &mut buf).is_err());
    }

    #[test]
    fn zero_capacity_cache_is_harmless() {
        let c = controller(0);
        c.fill(1, 0, &block(1)).unwrap();
        let mut buf = vec![0u8; BLOCK as usize];
        assert!(!c.lookup(1, 0, &mut buf).unwrap());
    }
}
