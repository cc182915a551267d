//! The Mux file system: VFS Call Processor, FS Multiplexer and VFS Call
//! Maker (paper Figure 1c).
//!
//! `Mux` implements [`FileSystem`] towards applications. Each user request
//! is split along Block Lookup Table extents into per-tier sub-requests,
//! dispatched to the native file systems *through the same trait*, and the
//! results are merged into one response. All file metadata is answered
//! from the collective inode — `getattr` never fans out.
//!
//! Concurrency (see DESIGN.md "Concurrency model"): the file table and the
//! namespace are [`ShardedMap`]s keyed by inode, so operations on distinct
//! files never contend on a Mux-global lock. Per-file ordering is the
//! business of [`MuxFile`]'s `io_lock`/OCC machinery; counters, histograms
//! and the trace ring are atomic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simdev::VirtualClock;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsError, VfsResult,
    ROOT_INO,
};

use crate::autotier::{EpochAction, EpochReport, TokenBucket};
use crate::cache::CacheController;
use crate::file::{subtract_ranges, FileState, MuxFile, MuxIno};
use crate::health::{HealthRegistry, HealthSnapshot};
use crate::hist::CACHE_TIER;
use crate::hist::{LatencyRegistry, LatencyReport, OpKind};
use crate::integrity::VerifyOutcome;
use crate::meta::{AttrKind, CollectiveInode};
use crate::mutate::Change;
use crate::occ::{Asker, OccStats};
use crate::persist::{Barrier, NsRecord};
use crate::policy::MigrationPlan;
use crate::policy::{PlacementCtx, TierStatus, TieringPolicy};
use crate::sched::{thread_tenant, Admission, IoScheduler};
use crate::shard::{RemoveIf, ShardedMap};
use crate::stats::MuxStats;
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};
use crate::types::{MuxOptions, TenantId, TierConfig, TierId, BLOCK};

/// Bound on owner-change retries in the read path: how many times one
/// block read chases a concurrent migration commit before its last read
/// pins the mapping (see `Mux::read_pinned`).
const READ_REVALIDATE_HOPS: u32 = 4;

/// A registered tier: a native file system plus its description.
pub struct TierHandle {
    /// Tier id (index at registration).
    pub id: TierId,
    /// Static description.
    pub config: TierConfig,
    /// The native file system, spoken to through the VFS trait.
    pub fs: Arc<dyn FileSystem>,
    /// Tier is being removed; no new placements.
    pub draining: AtomicBool,
    /// Timestamp granularity of the native file system in ns (paper §4,
    /// "Feature Imparity": e.g. FAT records timestamps at two-second
    /// granularity). The collective inode keeps full precision; values
    /// lazily pushed to this tier are rounded down to a multiple of this.
    pub timestamp_granularity_ns: AtomicU64,
}

/// One entry in a Mux directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsEntry {
    /// A regular file.
    File(MuxIno),
    /// A directory.
    Dir(MuxIno),
}

impl NsEntry {
    pub(crate) fn ino(&self) -> MuxIno {
        match self {
            NsEntry::File(i) | NsEntry::Dir(i) => *i,
        }
    }
}

/// A Mux directory node.
pub struct MuxDir {
    /// Parent directory (self for the root).
    pub parent: MuxIno,
    /// Name within the parent.
    pub name: String,
    /// Children.
    pub entries: BTreeMap<String, NsEntry>,
    /// Directory attributes (kept by Mux; directories are not tiered).
    pub attr: FileAttr,
}

/// The uniform namespace (paper §2.1): Mux's own directory tree, mirrored
/// lazily into the native file systems as files materialize on tiers.
///
/// Both tables are sharded by inode, so namespace operations on unrelated
/// directories/files run fully in parallel. Multi-node mutations (create,
/// unlink, rename) are sequences of single-shard steps ordered so that an
/// entry visible in a parent always points at a node that exists —
/// node-first on insert, link-first on removal (transient [`VfsError::Stale`]
/// during an unlink is the one documented exception).
#[derive(Default)]
pub struct Namespace {
    /// Directory nodes by Mux ino.
    pub dirs: ShardedMap<MuxIno, MuxDir>,
    /// File ino → (parent dir, name).
    pub file_loc: ShardedMap<MuxIno, (MuxIno, String)>,
}

impl Namespace {
    /// `dir` and each directory above it short of the root, innermost
    /// first, with its name.
    fn lineage(&self, dir: MuxIno) -> VfsResult<Vec<(MuxIno, String)>> {
        let mut line = Vec::new();
        let mut cur = dir;
        while cur != ROOT_INO {
            let (parent, name) = self
                .dirs
                .view(&cur, |d| (d.parent, d.name.clone()))
                .ok_or(VfsError::Stale)?;
            line.push((cur, name));
            cur = parent;
            if line.len() > 4096 {
                return Err(VfsError::Io("namespace cycle".into()));
            }
        }
        Ok(line)
    }

    /// The names of the directories from the root down to `dir`.
    fn path_components(&self, dir: MuxIno) -> VfsResult<Vec<String>> {
        let line = self.lineage(dir)?;
        Ok(line.into_iter().rev().map(|(_, n)| n).collect())
    }

    /// The entry `name` in directory `parent`: `Err(NotFound)` if the
    /// parent does not exist, `Ok(None)` if the name is absent.
    fn entry(&self, parent: MuxIno, name: &str) -> VfsResult<Option<NsEntry>> {
        self.dirs
            .view(&parent, |d| d.entries.get(name).copied())
            .ok_or(VfsError::NotFound)
    }
}

/// Index of a device class in per-class cost tables.
pub(crate) fn class_index(c: simdev::DeviceClass) -> usize {
    match c {
        simdev::DeviceClass::Pmem => 0,
        simdev::DeviceClass::CxlSsd => 1,
        simdev::DeviceClass::Ssd => 2,
        simdev::DeviceClass::Hdd => 3,
    }
}

/// What one dispatch-path read carries from planning into its runs.
struct ReadOp<'a> {
    file: &'a MuxFile,
    /// The request's byte range, clipped to EOF.
    off: u64,
    end: u64,
    /// The SCM cache, if one is attached.
    cache: Option<Arc<CacheController>>,
    /// Fast-path tokens sampled before the BLT resolved anything: a
    /// mapping inserted by this read is stamped with them, so any epoch
    /// bump or health transition that races the read invalidates the
    /// entry instead of racing it.
    fp_epoch: u64,
    fp_gen: u64,
}

impl ReadOp<'_> {
    /// The part of blocks `[first, first + nblocks)` the caller asked
    /// for, as `(byte offset, length)`.
    fn user_range(&self, first: u64, nblocks: u64) -> (u64, usize) {
        let start = (first * BLOCK).max(self.off);
        let end = ((first + nblocks) * BLOCK).min(self.end);
        (start, (end - start) as usize)
    }
}

/// The two buffers a dispatch-path read reuses across its runs.
struct ReadScratch {
    /// One block: SCM-cache look-ups and partly requested blocks.
    page: [u8; BLOCK as usize],
    /// The CRC of every block of the run being verified.
    crcs: Vec<u32>,
}

/// One native read of a dispatch-path read: consecutive blocks with one
/// BLT owner and one chosen source.
struct ReadRun {
    first: u64,
    nblocks: u64,
    /// The BLT owner the blocks are revalidated against.
    owner: TierId,
    /// The copy that is read: the owner, or a faster Healthy replica.
    source: TierId,
    /// The request covers every block whole, so the run reads straight
    /// into the caller's buffer. A partly requested block is a run of
    /// one through the scratch page.
    whole: bool,
}

/// A native read already made on a block's behalf, with its bytes (if
/// any) in the block's page: where [`Mux::read_block`] starts when a run
/// hands it a block.
struct FirstTry {
    source: Arc<TierHandle>,
    nino: InodeNo,
    /// [`MuxFile::version_now`] from before the read.
    v0: u64,
    result: VfsResult<usize>,
}

/// The Mux tiered file system.
///
/// # Examples
///
/// Building a two-tier hierarchy from any [`FileSystem`] implementations
/// and writing through the unified namespace:
///
/// ```
/// use std::sync::Arc;
/// use mux::{LruPolicy, Mux, MuxOptions, TierConfig};
/// use simdev::{DeviceClass, VirtualClock};
/// use tvfs::{memfs::MemFs, FileSystem, FileType, ROOT_INO};
///
/// let mux = Mux::new(
///     VirtualClock::new(),
///     Arc::new(LruPolicy::default_watermarks()),
///     MuxOptions::default(),
/// );
/// mux.add_tier(
///     TierConfig { name: "fast".into(), class: DeviceClass::Pmem },
///     Arc::new(MemFs::new("fast", 1 << 24)) as Arc<dyn FileSystem>,
/// );
/// mux.add_tier(
///     TierConfig { name: "slow".into(), class: DeviceClass::Hdd },
///     Arc::new(MemFs::new("slow", 1 << 26)) as Arc<dyn FileSystem>,
/// );
/// let f = mux.create(ROOT_INO, "hello", FileType::Regular, 0o644).unwrap();
/// mux.write(f.ino, 0, b"tiered").unwrap();
/// mux.migrate_file(f.ino, 1).unwrap(); // demote to the slow tier
/// let mut buf = [0u8; 6];
/// mux.read(f.ino, 0, &mut buf).unwrap();
/// assert_eq!(&buf, b"tiered");
/// ```
pub struct Mux {
    pub(crate) opts: MuxOptions,
    pub(crate) clock: VirtualClock,
    pub(crate) policy: RwLock<Arc<dyn TieringPolicy>>,
    pub(crate) tiers: RwLock<Vec<Arc<TierHandle>>>,
    pub(crate) ns: Namespace,
    pub(crate) files: ShardedMap<MuxIno, Arc<MuxFile>>,
    pub(crate) next_ino: AtomicU64,
    pub(crate) stats: MuxStats,
    pub(crate) occ: OccStats,
    pub(crate) cache: RwLock<Option<Arc<CacheController>>>,
    pub(crate) sched: IoScheduler,
    /// The durable metafile, if enabled (see [`crate::persist`]); held
    /// across its I/O, so never taken under a file's state lock.
    pub(crate) metafile: Mutex<Option<crate::persist::MetafileHandle>>,
    /// Set once a metafile is enabled: without one, mutators queue nothing.
    pub(crate) metalog_on: AtomicBool,
    /// What the next metafile flush will write. A leaf lock.
    pub(crate) pending: Mutex<crate::persist::Pending>,
    /// Per-tier circuit breaker (see [`crate::health`]).
    pub(crate) health: HealthRegistry,
    /// Per-op×tier latency histograms (see [`crate::hist`]).
    pub(crate) lat: Arc<LatencyRegistry>,
    /// Typed observability event ring (see [`crate::trace`]).
    pub(crate) trace: Arc<TraceBuffer>,
    /// The autonomous background tiering engine (see [`crate::autotier`]),
    /// driven by [`Mux::maintenance_tick`].
    pub(crate) autotier: crate::autotier::Engine,
    /// Background scrubber cursor + pacing (see [`crate::integrity`]),
    /// also driven by [`Mux::maintenance_tick`].
    pub(crate) scrub: Mutex<crate::integrity::ScrubState>,
    /// Lock-free read fast path: seqlock cache of resolved block → tier
    /// mappings (see [`crate::fastpath`] and PERFORMANCE.md).
    pub(crate) fastpath: crate::fastpath::FastPath,
}

impl Mux {
    /// Creates an empty Mux with the given policy. Register tiers with
    /// [`Mux::add_tier`] before use.
    pub fn new(clock: VirtualClock, policy: Arc<dyn TieringPolicy>, opts: MuxOptions) -> Self {
        let ns = Namespace::default();
        ns.dirs.insert(
            ROOT_INO,
            MuxDir {
                parent: ROOT_INO,
                name: String::new(),
                entries: BTreeMap::new(),
                attr: {
                    let mut a = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
                    a.nlink = 2;
                    a
                },
            },
        );
        let health = HealthRegistry::new(opts.health.clone());
        let trace = Arc::new(TraceBuffer::new(opts.trace_capacity));
        health.attach_tracer(clock.clone(), trace.clone());
        let autotier = crate::autotier::Engine::new(&opts.autotier);
        let scrub = Mutex::new(crate::integrity::ScrubState::new(&opts.integrity));
        let fastpath = crate::fastpath::FastPath::new(opts.fastpath.slots);
        let sched = IoScheduler::with_config(opts.qos.clone());
        Mux {
            opts,
            clock,
            policy: RwLock::new(policy),
            tiers: RwLock::new(Vec::new()),
            ns,
            files: ShardedMap::new(),
            next_ino: AtomicU64::new(ROOT_INO + 1),
            stats: MuxStats::default(),
            occ: OccStats::default(),
            cache: RwLock::new(None),
            sched,
            metafile: Mutex::new(None),
            metalog_on: AtomicBool::new(false),
            pending: Mutex::new(Default::default()),
            health,
            lat: Arc::new(LatencyRegistry::new()),
            trace,
            autotier,
            scrub,
            fastpath,
        }
    }

    /// Registers a native file system as a tier; "the user only needs to
    /// mount the new file system and register it with Mux" (§2.1). Works
    /// at runtime.
    pub fn add_tier(&self, config: TierConfig, fs: Arc<dyn FileSystem>) -> TierId {
        let mut tiers = self.tiers.write();
        let id = tiers.len() as TierId;
        tiers.push(Arc::new(TierHandle {
            id,
            config,
            fs,
            draining: AtomicBool::new(false),
            timestamp_granularity_ns: AtomicU64::new(1),
        }));
        // The tier table changed shape: retire every cached fast-path
        // mapping at once rather than reasoning about which survive.
        self.fastpath_epoch_bump();
        id
    }

    /// Replaces the tiering policy at runtime.
    pub fn set_policy(&self, policy: Arc<dyn TieringPolicy>) {
        *self.policy.write() = policy;
    }

    /// Declares a tier's native timestamp granularity (§4, Feature
    /// Imparity — e.g. 2 s for a FAT-backed tier). Mux's collective inode
    /// keeps full-precision values; only the copies lazily synchronized to
    /// that tier are rounded.
    pub fn set_tier_timestamp_granularity(
        &self,
        tier: TierId,
        granularity_ns: u64,
    ) -> VfsResult<()> {
        self.tier(tier)?
            .timestamp_granularity_ns
            .store(granularity_ns.max(1), Ordering::Relaxed);
        Ok(())
    }

    /// Attaches the SCM cache controller (and wires it into this Mux's
    /// observability layer: cache hit/miss events and lookup/fill latency
    /// histograms).
    pub fn attach_cache(&self, cache: Arc<CacheController>) {
        cache.attach_observer(self.clock.clone(), self.lat.clone(), self.trace.clone());
        *self.cache.write() = Some(cache);
    }

    /// Mux-level operation counters.
    pub fn stats(&self) -> &MuxStats {
        &self.stats
    }

    /// The latency histogram registry (for recording; snapshots come from
    /// [`Mux::latency_report`]).
    pub fn latency(&self) -> &LatencyRegistry {
        &self.lat
    }

    /// Snapshot of every non-empty latency histogram, one entry per
    /// (operation kind, tier) pair that saw traffic.
    pub fn latency_report(&self) -> LatencyReport {
        self.lat.report()
    }

    /// Snapshot of every non-empty per-tenant latency histogram.
    pub fn tenant_latency_report(&self) -> crate::hist::TenantLatencyReport {
        self.lat.tenant_report()
    }

    /// Tenant a file's background work is charged to (0 for unknown
    /// files).
    pub fn file_tenant(&self, ino: MuxIno) -> TenantId {
        self.files.get(&ino).map_or(0, |f| f.tenant())
    }

    /// The observability event ring.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Copies out the retained trace events, oldest first.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// OCC synchronizer counters.
    pub fn occ_stats(&self) -> &OccStats {
        &self.occ
    }

    /// The background I/O scheduler.
    pub fn scheduler(&self) -> &IoScheduler {
        &self.sched
    }

    /// The per-tier circuit breaker (inspect, reset, or fence tiers).
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Health counters of one tier.
    pub fn tier_health(&self, tier: TierId) -> HealthSnapshot {
        self.health.snapshot(tier)
    }

    /// Current tier table (id, name, class, space) as shown to policies;
    /// draining tiers are excluded. Every tier reserves one
    /// `max_dispatch_bytes` piece, the largest native write Mux issues (see
    /// [`TierStatus::has_room`]).
    pub fn tier_status(&self) -> Vec<TierStatus> {
        self.tiers
            .read()
            .iter()
            .filter(|t| !t.draining.load(Ordering::Acquire))
            .map(|t| {
                let st = t.fs.statfs().unwrap_or(StatFs {
                    total_bytes: 0,
                    free_bytes: 0,
                    inodes: 0,
                    block_size: BLOCK as u32,
                });
                TierStatus {
                    id: t.id,
                    name: t.config.name.clone(),
                    class: t.config.class,
                    free_bytes: st.free_bytes,
                    total_bytes: st.total_bytes,
                    reserve_bytes: self.opts.cost.max_dispatch_bytes,
                    health: self.health.state(t.id),
                }
            })
            .collect()
    }

    /// Fraction of a tier's capacity in use right now (0.0 when the tier
    /// is unknown or reports no capacity). QoS admission reads this per
    /// action so within-tick bursts are visible immediately.
    pub(crate) fn tier_utilization(&self, tier: TierId) -> f64 {
        match self.tier(tier) {
            Ok(t) => match t.fs.statfs() {
                Ok(st) if st.total_bytes > 0 => 1.0 - st.free_bytes as f64 / st.total_bytes as f64,
                _ => 0.0,
            },
            Err(_) => 0.0,
        }
    }

    pub(crate) fn tier(&self, id: TierId) -> VfsResult<Arc<TierHandle>> {
        self.tiers
            .read()
            .get(id as usize)
            .cloned()
            .ok_or_else(|| VfsError::InvalidArgument(format!("no tier {id}")))
    }

    pub(crate) fn charge(&self, ns: u64) {
        self.clock.advance(ns);
    }

    pub(crate) fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Emits one trace event stamped with the current virtual time.
    pub(crate) fn trace_event(
        &self,
        kind: TraceEventKind,
        tier: TierId,
        ino: u64,
        off: u64,
        len: u64,
    ) {
        self.trace.push(self.now(), kind, tier, ino, off, len);
    }

    pub(crate) fn get_file(&self, ino: MuxIno) -> VfsResult<Arc<MuxFile>> {
        self.files.get(&ino).ok_or(VfsError::NotFound)
    }

    /// Publishes an invalidation of blocks `[first, first + nblocks)` of
    /// a file into the fast-path cache, *after* the authoritative state
    /// changed (PERFORMANCE.md §4 lists who calls and why). With `tier`,
    /// only mappings that point at that tier die: dropping one residency
    /// of a mirrored block never evicts the other copy's hot entry. A
    /// range wider than the cache degrades to the whole-file sweep, which
    /// is bounded by the cache size instead of the range.
    pub(crate) fn fastpath_invalidate(
        &self,
        ino: MuxIno,
        first: u64,
        nblocks: u64,
        tier: Option<TierId>,
    ) {
        let dropped = if nblocks as usize > self.fastpath.capacity() {
            self.fastpath.invalidate_file(ino)
        } else {
            self.fastpath.invalidate_blocks(ino, first, nblocks, tier)
        };
        if dropped > 0 {
            MuxStats::add(&self.stats.fastpath_invalidations, 1);
        }
    }

    /// Global fast-path invalidation: bump the epoch so every cached
    /// mapping goes stale at once (tier add/remove, crash recovery).
    pub(crate) fn fastpath_epoch_bump(&self) {
        self.fastpath.bump_epoch();
        MuxStats::add(&self.stats.fastpath_invalidations, 1);
    }

    /// Drains deferred fast-path hit bookkeeping into the heat map and
    /// per-file access times, and emits one batched
    /// [`TraceEventKind::FastPathBatch`] event. Called from
    /// [`Mux::maintenance_tick`] (before the planner, so heat is current)
    /// and opportunistically from the read path every
    /// [`crate::FastPathConfig::flush_every`] hits.
    pub(crate) fn fastpath_flush(&self) {
        let mut drained = self.fastpath.take_pending();
        if drained.is_empty() {
            return;
        }
        let now = self.now();
        let hits = drained.iter();
        self.autotier
            .heat
            .record_all(hits.map(|&(ino, _, _, n)| (ino, n, false)));
        // Access times: each file hears of the tiers that served it, in
        // drain order (the sort is stable), under one hold of its lock.
        drained.sort_by_key(|&(ino, ..)| ino);
        for of_file in drained.chunk_by(|a, b| a.0 == b.0) {
            if let Some(file) = self.files.get(&of_file[0].0) {
                let mut st = file.state.write();
                for &(_, _, tier, _) in of_file {
                    st.meta.on_read(tier, now);
                }
                self.mark_reencode(file.ino, &mut st);
            }
        }
        self.trace_event(
            TraceEventKind::FastPathBatch {
                hits: drained.iter().map(|d| d.3).sum(),
            },
            CACHE_TIER,
            0,
            0,
            0,
        );
    }

    /// Attempts to serve a read entirely from the lock-free fast path.
    /// `Some((bytes, tier))` on a hit; `None` sends the caller to the
    /// dispatch path (and counts a fallback). Never returns an error:
    /// retries, failover, repair and strikes are dispatch-path business.
    fn fastpath_read(&self, ino: MuxIno, off: u64, buf: &mut [u8]) -> Option<(usize, TierId)> {
        let r = self.try_fastpath_read(ino, off, buf);
        if r.is_none() {
            MuxStats::add(&self.stats.fastpath_fallbacks, 1);
        }
        r
    }

    fn try_fastpath_read(&self, ino: MuxIno, off: u64, buf: &mut [u8]) -> Option<(usize, TierId)> {
        let len = buf.len() as u64;
        let block = off / BLOCK;
        // One block only: splits, short reads at EOF and holes past the
        // cached size are dispatch-path shapes.
        if off.checked_add(len - 1)? / BLOCK != block {
            return None;
        }
        let (e, slot) = self.fastpath.lookup(ino, block)?;
        if e.epoch != self.fastpath.epoch() || e.gen != self.health.generation() {
            return None; // tier set or tier health moved since insert
        }
        if off + len > e.size {
            // `size` is a conservative lower bound (appends only grow it,
            // truncate invalidates the file): reads past it fall back,
            // which can only cost speed, never correctness.
            return None;
        }
        let handle = self.tier(e.tier).ok()?;
        self.charge(self.opts.cost.fastpath_ns);
        let byte_addressable = matches!(
            handle.config.class,
            simdev::DeviceClass::Pmem | simdev::DeviceClass::CxlSsd
        );
        if off.is_multiple_of(BLOCK) && len == BLOCK {
            // Exactly one aligned block: read and verify in the caller's
            // buffer. A `None` below leaves unverified bytes there, which
            // the dispatch path overwrites from scratch.
            buf.fill(0); // sparse tails read as zeros
            self.fastpath_read_block(&handle, &e, &slot, buf)?;
        } else if !byte_addressable {
            // Whole-block scratch read: on page-cached tiers it costs the
            // same as the sub-range, and it makes the content
            // CRC-verifiable before a byte reaches the caller.
            let mut page = [0u8; BLOCK as usize];
            self.fastpath_read_block(&handle, &e, &slot, &mut page)?;
            let in_pg = (off % BLOCK) as usize;
            buf.copy_from_slice(&page[in_pg..in_pg + buf.len()]);
        } else {
            // Sub-block read on a byte-addressable (DAX-class) tier: copy
            // exactly the requested bytes. Per-read CRC is deliberately
            // skipped here — verifying would mean reading the whole block
            // and forfeiting byte-addressability, the very overhead this
            // path exists to kill. The background scrubber patrols these
            // blocks instead (PERFORMANCE.md, "What the fast path gives
            // up").
            buf.fill(0); // sparse tails read as zeros
            handle.fs.read(e.nino, off, buf).ok()?;
            if !self.fastpath_still_valid(&slot, &e) {
                // The bytes may be torn mid-write; the dispatch path
                // overwrites `buf` from scratch, so nothing stale leaks.
                return None;
            }
        }
        let pending = self.fastpath.note_hit(&slot);
        MuxStats::add(&self.stats.fastpath_hits, 1);
        MuxStats::add(&self.stats.reads, 1);
        MuxStats::add(&self.stats.bytes_read, len);
        MuxStats::add_tenant(&self.stats.tenant_reads, thread_tenant(), 1);
        if pending >= self.opts.fastpath.flush_every {
            self.fastpath_flush();
        }
        Some((buf.len(), e.tier))
    }

    /// Reads the whole block a fast-path entry maps into `page` (one
    /// zeroed block) and checks it: against the entry's CRC when it
    /// carries a verified one, then against the slot (see
    /// [`Mux::fastpath_still_valid`]). `None` sends the read to the
    /// dispatch path.
    fn fastpath_read_block(
        &self,
        handle: &TierHandle,
        e: &crate::fastpath::Entry,
        slot: &crate::fastpath::SlotRef,
        page: &mut [u8],
    ) -> Option<()> {
        handle.fs.read(e.nino, e.block * BLOCK, page).ok()?;
        if e.verified && crate::integrity::crc32c(page) != e.crc {
            // Rot, or a write racing this read — indistinguishable
            // from here, and striking on ambiguity would fence healthy
            // tiers. Drop the mapping; the dispatch path re-reads,
            // verifies against the live checksum and repairs/strikes
            // with full context.
            self.fastpath.invalidate(e.ino, e.block);
            MuxStats::add(&self.stats.fastpath_invalidations, 1);
            return None;
        }
        self.fastpath_still_valid(slot, e).then_some(())
    }

    /// The post-read half of the fast-path protocol: the slot must be
    /// byte-identical to the lookup and both global tokens unmoved,
    /// proving no invalidation was published while the native read was in
    /// flight.
    fn fastpath_still_valid(
        &self,
        slot: &crate::fastpath::SlotRef,
        e: &crate::fastpath::Entry,
    ) -> bool {
        self.fastpath.revalidate(slot)
            && self.fastpath.epoch() == e.epoch
            && self.health.generation() == e.gen
    }

    /// A file's block placement as `(block, n_blocks, tier)` extents in
    /// file order — where the data actually lives after placement,
    /// migration, or fault-driven redirection.
    pub fn file_placement(&self, ino: MuxIno) -> VfsResult<Vec<(u64, u64, TierId)>> {
        let file = self.get_file(ino)?;
        let state = file.state.read();
        Ok(state
            .blt
            .extents()
            .into_iter()
            .map(|e| (e.start, e.len, e.value))
            .collect())
    }

    /// A file's replica placement as `(block, n_blocks, tier)` extents in
    /// file order — the extra full copies beyond [`Mux::file_placement`]
    /// that the mirror machinery maintains.
    pub fn file_replicas(&self, ino: MuxIno) -> VfsResult<Vec<(u64, u64, TierId)>> {
        let file = self.get_file(ino)?;
        let state = file.state.read();
        Ok(state
            .replicas
            .iter()
            .map(|e| (e.start, e.len, e.value))
            .collect())
    }

    /// The autotier engine (heat map and queue inspection).
    pub fn autotier(&self) -> &crate::autotier::Engine {
        &self.autotier
    }

    /// Enqueues one migration for the autotier executor, as if the planner
    /// had emitted it — the direction (promotion vs demotion) is derived
    /// from the destination's device class versus the range's current
    /// placement. Used by tests and crash scenarios that need a
    /// deterministic plan; normal operation lets
    /// [`Mux::maintenance_tick`]'s planner fill the queue.
    pub fn autotier_enqueue(&self, plan: MigrationPlan) -> VfsResult<()> {
        let dest_rank = class_index(self.tier(plan.to)?.config.class);
        let cur_rank = self
            .file_placement(plan.ino)?
            .iter()
            .find(|&&(start, len, _)| {
                start < plan.block + plan.n_blocks && start + len > plan.block
            })
            .map(|&(_, _, tid)| self.tier(tid).map(|t| class_index(t.config.class)))
            .transpose()?
            .unwrap_or(dest_rank);
        let promote = dest_rank < cur_rank;
        self.autotier_enqueue_action(EpochAction::Migrate { plan, promote });
        Ok(())
    }

    /// Enqueues an arbitrary epoch action — mirror and unmirror included —
    /// for the autotier executor, bypassing the planner. The crash matrix
    /// uses this to drive the replica lifecycle deterministically.
    pub fn autotier_enqueue_action(&self, action: EpochAction) {
        self.autotier.state.lock().queue.push_back(vec![action]);
    }

    /// One deterministic turn of the autotier engine (see
    /// [`crate::autotier`]). Call it from the workload loop on the virtual
    /// clock — there is no hidden background thread, so every migration the
    /// engine performs is attributable to a tick and enumerable by the
    /// crash matrix.
    ///
    /// Each tick: (1) if an epoch boundary has passed, close the previous
    /// epoch, run the planner over current tier occupancy, file placement
    /// and access records, and decay the heat map; (2) check the
    /// yield-to-foreground condition (the recent foreground read p95);
    /// (3) unless yielding, run the queued chains in order through the
    /// OCC migration path under the token-bucket byte-rate limit, leaving
    /// a chain at the front for the next tick when its step loses an OCC
    /// race ([`VfsError::Busy`]) or finds the bucket empty; (4) advance
    /// the integrity scrubber ([`crate::integrity`]) under its own token
    /// bucket — the scrubber shares the yield decision, so a busy
    /// foreground pauses both background consumers. Steps (1)–(3) run
    /// only when autotier is enabled; the scrubber runs whenever checksums
    /// are on.
    pub fn maintenance_tick(&self) -> EpochReport {
        let cfg = &self.opts.autotier;
        let mut report = EpochReport::default();
        let mut fg_busy = false;
        // (0) Fold deferred fast-path hit bookkeeping into the heat map
        // first, so the planner below sees current access frequencies.
        self.fastpath_flush();
        if cfg.enabled {
            self.autotier_tick(&mut report, &mut fg_busy);
            // (3½) Lazy resync: writes absorbed on the fast copy leave the
            // slower ex-replica owing a fresh copy; repay the debt in the
            // background, bounded per tick, unless the foreground is busy.
            if !fg_busy {
                report.resynced = self.resync_tick();
            }
        }
        // (4) Scrubber.
        if !fg_busy {
            report.scrubbed = self.scrub_tick();
        }
        report
    }

    /// Steps (1)–(3) of [`Mux::maintenance_tick`]; sets `fg_busy` when the
    /// yield-to-foreground condition holds.
    fn autotier_tick(&self, report: &mut EpochReport, fg_busy: &mut bool) {
        let cfg = &self.opts.autotier;
        let mut state = self.autotier.state.lock();

        // (1) Planner, at most once per epoch.
        let now = self.now();
        let due = match state.last_plan_ns {
            None => true,
            Some(t) => now.saturating_sub(t) >= cfg.epoch_ns,
        };
        if due {
            if state.epoch > 0 {
                self.trace_event(
                    TraceEventKind::EpochEnd {
                        epoch: state.epoch,
                        moved: state.epoch_moved,
                    },
                    CACHE_TIER,
                    0,
                    0,
                    0,
                );
            }
            state.epoch += 1;
            state.epoch_moved = 0;
            state.last_plan_ns = Some(now);
            report.planned_epoch = true;
            self.trace_event(
                TraceEventKind::EpochStart { epoch: state.epoch },
                CACHE_TIER,
                0,
                0,
                0,
            );
            let tiers = self.tier_status();
            let files = self.file_views();
            let policy = self.policy.read().clone();
            // QoS plan-time fencing: plan_epoch hands all headroom to the
            // hottest files, so a hot antagonist tenant would consume
            // every epoch's budget and starve colder tenants forever.
            // When any tier is at or past the admission threshold, tenants
            // over their fair share of recent background bytes there are
            // excluded from this epoch's plan (via the pinned predicate),
            // leaving the headroom to under-share tenants.
            let mut blocked_tenants: Vec<TenantId> = Vec::new();
            let mut file_tenant: BTreeMap<MuxIno, TenantId> = BTreeMap::new();
            if self.sched.config().enabled {
                self.files.for_each(|_, f| {
                    file_tenant.insert(f.ino, f.tenant());
                });
                let mut tenants: Vec<TenantId> = file_tenant.values().copied().collect();
                tenants.sort_unstable();
                tenants.dedup();
                for t in &tiers {
                    if t.total_bytes == 0 {
                        continue;
                    }
                    let util = 1.0 - t.free_bytes as f64 / t.total_bytes as f64;
                    if util < self.sched.config().admit_utilization {
                        continue;
                    }
                    for &tn in &tenants {
                        // Judged against every tenant that owns files —
                        // not just the ledger-active set — so a first
                        // mover that filled the tier before anyone else
                        // was served still counts as over its share.
                        if !blocked_tenants.contains(&tn)
                            && self.sched.over_fair_share_among(t.id, tn, &tenants, now)
                        {
                            blocked_tenants.push(tn);
                        }
                    }
                }
                if !blocked_tenants.is_empty() {
                    let excluded = file_tenant
                        .values()
                        .filter(|tn| blocked_tenants.contains(tn))
                        .count() as u64;
                    MuxStats::add(&self.stats.qos_plan_exclusions, excluded);
                }
            }
            let plan = crate::autotier::plan_epoch(cfg, &tiers, &files, &|ino| {
                policy.is_pinned(ino)
                    || file_tenant
                        .get(&ino)
                        .is_some_and(|tn| blocked_tenants.contains(tn))
            });
            self.autotier.heat.decay(cfg.decay);
            report.vetoes = plan.vetoes;
            MuxStats::add(&self.stats.planner_vetoes, plan.vetoes);
            report.planned = plan.actions().count();
            for (p, promote) in plan.actions().filter_map(EpochAction::migrate) {
                let kind = TraceEventKind::PlanEmitted { promote };
                self.trace_event(kind, p.to, p.ino, p.block * BLOCK, p.n_blocks * BLOCK);
            }
            state.queue.extend(plan.chains);
        }
        report.epoch = state.epoch;

        // (2) Yield to foreground I/O: if the foreground read p95 since the
        // previous tick is past the threshold, leave the queue for a calmer
        // tick.
        let n_tiers = self.tiers.read().len();
        let mut worst_p95 = 0u64;
        let mut snaps = Vec::with_capacity(n_tiers);
        for t in 0..n_tiers {
            // End-to-end user reads (MuxRead): fast-path hits never record
            // an OpKind::Read dispatch, so watching Read here would go
            // blind exactly when the foreground is busiest.
            let snap = self.lat.hist(OpKind::MuxRead, t as TierId).snapshot();
            if let Some(prev) = state.last_read_hist.get(t).and_then(|s| s.as_ref()) {
                worst_p95 = worst_p95.max(snap.delta_since(prev).p95());
            }
            snaps.push(Some(snap));
        }
        state.last_read_hist = snaps;
        *fg_busy = cfg.yield_read_p95_ns > 0 && worst_p95 > cfg.yield_read_p95_ns;
        if !state.queue.is_empty() && *fg_busy {
            report.yielded = true;
            self.trace_event(
                TraceEventKind::MigrationSkipped {
                    read_p95_ns: worst_p95,
                },
                CACHE_TIER,
                0,
                0,
                0,
            );
        }

        // (3) Executor: the queued chains, in order (see
        // [`Mux::run_chain`]).
        let state = &mut *state;
        if !report.yielded {
            let mut asker = Asker::Planner(&mut state.bucket, report);
            while let Some(chain) = state.queue.front_mut() {
                // A chain that ended is empty; one that waits keeps its
                // steps at the front of the queue.
                let _ = self.run_chain(chain, &mut asker);
                if !chain.is_empty() {
                    break;
                }
                state.queue.pop_front();
            }
        }
        state.epoch_moved += report.blocks_moved + report.mirrored;
        report.queued = state.queue.iter().map(Vec::len).sum();
    }

    /// Paces one step of an epoch's chain ([`Mux::run_chain`]): `Some`
    /// lets it run, `None` drops its chain, and `Busy` leaves the chain
    /// waiting. Migrations and mirror copies both move bytes and pay the
    /// token buckets, once they have run ([`Mux::pay_step`]): this only
    /// checks that both buckets hold the bytes at the instant it returns,
    /// which the step then pays at, so a step that waits pays nothing for
    /// waiting. An unmirror is an instant hole punch that frees
    /// space, so it runs for free (throttling reclamation would be
    /// self-defeating under watermark pressure). A dry shared bucket makes
    /// the chain wait; a QoS refusal drops it, and the planner re-plans
    /// what is still worth moving next epoch (same precedent as the lazy
    /// resync pass), so a fenced tenant's backlog cannot pile up in the
    /// queue and head-of-line-block other tenants.
    pub(crate) fn admit_step(
        &self,
        step: &EpochAction,
        bucket: &mut TokenBucket,
        report: &mut EpochReport,
    ) -> VfsResult<Option<u64>> {
        let p = step.plan();
        let bytes = p.n_blocks * BLOCK;
        let tenant = self.files.get(&p.ino).map_or(0, |f| f.tenant());
        let traced = |kind| self.trace_event(kind, p.to, p.ino, p.block * BLOCK, bytes);
        // QoS admission for steps that consume space on a destination tier
        // (promotions and mirror copies). The tier's occupancy is re-read
        // per step, so a burst admitted earlier in this same tick is
        // visible to the next decision.
        let consumes_space = matches!(
            step,
            EpochAction::Migrate { promote: true, .. } | EpochAction::Mirror(_)
        );
        let refused = |counter: &AtomicU64, n: u64, kind| {
            MuxStats::add(counter, n);
            traced(kind);
            Ok(None)
        };
        if consumes_space {
            let util = self.tier_utilization(p.to);
            match self
                .sched
                .admit_background(p.to, tenant, bytes, util, self.now())
            {
                Admission::Admit => {}
                Admission::Defer => {
                    let kind = TraceEventKind::QosDeferred { tenant };
                    return refused(&self.stats.qos_deferrals, 1, kind);
                }
                Admission::Shed => {
                    let kind = TraceEventKind::QosShed { tenant };
                    return refused(&self.stats.qos_sheds, 1, kind);
                }
            }
        }
        let now = self.now();
        if step.unmirror().is_some() {
            return Ok(Some(now));
        }
        // Per-tenant pacing: a tenant whose private bucket is dry drops its
        // chain instead of waiting, so it cannot stall other tenants queued
        // behind it the way the shared bucket does.
        if !self.sched.tenant_can_take(tenant, bytes, now) {
            let kind = TraceEventKind::QosThrottled { tenant };
            return refused(&self.stats.qos_tenant_throttled_bytes, bytes, kind);
        }
        if !bucket.can_take(bytes, now) {
            report.throttled_bytes += bytes;
            MuxStats::add(&self.stats.throttled_bytes, bytes);
            traced(TraceEventKind::MigrationThrottled);
            return Err(VfsError::Busy);
        }
        Ok(Some(now))
    }

    /// Takes the bytes of an epoch's step that has run from its tenant's
    /// bucket and the shared one, at the instant `at` when
    /// [`Mux::admit_step`] found both holding them. An unmirror is free.
    pub(crate) fn pay_step(&self, step: &EpochAction, bucket: &mut TokenBucket, at: u64) {
        if step.unmirror().is_none() {
            let p = step.plan();
            let bytes = p.n_blocks * BLOCK;
            let tenant = self.files.get(&p.ino).map_or(0, |f| f.tenant());
            self.sched.tenant_try_take(tenant, bytes, at);
            bucket.try_take(bytes, at);
        }
    }

    /// Runs one native-tier dispatch through the bounded
    /// retry-with-backoff loop, feeding the outcome to the circuit
    /// breaker. Only transient [`VfsError::Io`] errors are retried —
    /// `NoSpace`, `InvalidArgument`, etc. surface immediately. Backoff is
    /// charged on the shared virtual clock, so retry schedules are
    /// deterministic. Retrying stops early if the breaker latches the tier
    /// `Offline` mid-loop.
    ///
    /// This is the dispatch boundary: the whole loop's virtual-time
    /// duration (native service + device time + any backoff) is recorded
    /// into the `(kind, tier)` latency histogram, and every retry emits a
    /// [`TraceEventKind::Retry`] event.
    pub(crate) fn tier_io<T>(
        &self,
        kind: OpKind,
        tier: TierId,
        mut op: impl FnMut() -> VfsResult<T>,
    ) -> VfsResult<T> {
        let cfg = self.health.config();
        let t0 = self.now();
        let mut attempt = 0u32;
        let result = loop {
            match op() {
                Ok(v) => {
                    self.health.record_success(tier);
                    break Ok(v);
                }
                Err(VfsError::Io(e)) => {
                    MuxStats::add(&self.stats.io_errors, 1);
                    self.health.record_error(tier);
                    if attempt >= cfg.io_retries || !self.health.can_read(tier) {
                        break Err(VfsError::Io(e));
                    }
                    attempt += 1;
                    MuxStats::add(&self.stats.io_retries, 1);
                    self.health.record_retry(tier);
                    self.sched.note_retry(tier, self.now());
                    self.trace_event(TraceEventKind::Retry { attempt }, tier, 0, 0, 0);
                    self.charge(cfg.backoff_ns(attempt));
                }
                Err(e) => break Err(e),
            }
        };
        self.lat.record(kind, tier, self.now() - t0);
        result
    }

    /// The one charged crossing into a native file system: charges
    /// `dispatch_ns`, emits a [`TraceEventKind::Dispatch`] event over
    /// `(ino, off, len)` and runs `op` through [`Mux::tier_io`]. Every
    /// charged call into a tier goes through here; the uncharged ones —
    /// native path walks, migration copies, `sync`, scrub and repair
    /// reads, best-effort cleanup — call `tier_io` alone.
    pub(crate) fn dispatch<T>(
        &self,
        kind: OpKind,
        tier: TierId,
        ino: MuxIno,
        off: u64,
        len: u64,
        op: impl FnMut() -> VfsResult<T>,
    ) -> VfsResult<T> {
        self.charge(self.opts.cost.dispatch_ns);
        self.trace_event(TraceEventKind::Dispatch { op: kind }, tier, ino, off, len);
        self.tier_io(kind, tier, op)
    }

    /// The best tier that can accept `need` bytes of new data right now:
    /// healthier before sicker, then faster class, then most free space.
    /// `exclude` additionally vetoes one tier (the one being avoided).
    pub(crate) fn healthiest_writable_tier(
        &self,
        need: u64,
        exclude: Option<TierId>,
    ) -> VfsResult<TierId> {
        self.tier_status()
            .into_iter()
            .filter(|t| Some(t.id) != exclude && t.is_writable() && t.has_room(need))
            .min_by_key(|t| (t.health, t.class, u64::MAX - t.free_bytes))
            .map(|t| t.id)
            .ok_or_else(|| VfsError::Io("no writable tier with space left".into()))
    }

    /// Reads one full block by any means available: the owning tier (with
    /// retries) if it is not offline, else the block's replica. Used for
    /// redirect merges and for evacuating sick tiers.
    pub(crate) fn read_block_anyhow(
        &self,
        file: &MuxFile,
        tier: TierId,
        block: u64,
        page: &mut [u8],
    ) -> VfsResult<usize> {
        if self.health.can_read(tier) {
            match self.read_native_block(file, tier, block, page, OpKind::Read) {
                Ok(got) => return Ok(got),
                Err(VfsError::Io(_)) => {} // fall through to the replica
                Err(e) => return Err(e),
            }
        }
        let rep = file.state.read().replicas.get(block);
        match rep.filter(|&rt| rt != tier) {
            Some(rt) => {
                MuxStats::add(&self.stats.replica_failovers, 1);
                self.read_native_block(file, rt, block, page, OpKind::Read)
            }
            None => Err(VfsError::Io(format!(
                "tier {tier} unreadable and block {block} has no replica"
            ))),
        }
    }

    /// Reads `block` of `file` whole from its native file on `tier` into
    /// `page`: retried and recorded under `kind`, but uncharged — the
    /// off-path reads of redirects, repair, the scrubber and read-back.
    fn read_native_block(
        &self,
        file: &MuxFile,
        tier: TierId,
        block: u64,
        page: &mut [u8],
        kind: OpKind,
    ) -> VfsResult<usize> {
        let handle = self.tier(tier)?;
        let nino = self.ensure_native(file, tier)?;
        self.tier_io(kind, tier, || {
            handle.fs.read(nino, block * BLOCK, &mut *page)
        })
    }

    /// Tries to serve one block of a dispatch-path read from the SCM
    /// cache, copying the requested part into `buf`. `page` is one block
    /// of scratch. `true` when served.
    fn cache_read(
        &self,
        op: &ReadOp,
        cache: &CacheController,
        block: u64,
        page: &mut [u8],
        buf: &mut [u8],
    ) -> bool {
        let ino = op.file.ino;
        // The cache is best-effort: a backend error is a miss.
        let mut hit = cache.lookup(ino, block, page).unwrap_or(false);
        if hit && self.checksum_refutes(op.file, block, page) {
            // The cache device can rot too: a hit whose content no longer
            // matches a trusted checksum is dropped and re-fetched from
            // the owning tier (which verifies and repairs) — no strike,
            // since a racing write is indistinguishable from rot here.
            cache.invalidate(ino, block, 1);
            hit = false;
        }
        if !hit {
            MuxStats::add(&self.stats.cache_misses, 1);
            return false;
        }
        let (at, len) = op.user_range(block, 1);
        let in_pg = (at % BLOCK) as usize;
        buf[(at - op.off) as usize..][..len].copy_from_slice(&page[in_pg..][..len]);
        MuxStats::add(&self.stats.cache_hits, 1);
        true
    }

    /// Mirror-aware source selection (§4, replicas as first-class
    /// placement): a block whose Healthy replica sits on a strictly
    /// faster device class is served from the replica. A merely sick (but
    /// readable) primary still serves — it must keep feeding the breaker
    /// and the repair chain — and an offline primary fails over in
    /// [`Mux::read_block`]'s error path.
    fn read_source(&self, owner: TierId, replica: Option<TierId>) -> VfsResult<TierId> {
        use crate::health::TierHealthState::Healthy;
        let Some(rt) = replica.filter(|&rt| rt != owner) else {
            return Ok(owner);
        };
        if self.health.state(rt) != Healthy
            || class_index(self.tier(rt)?.config.class)
                >= class_index(self.tier(owner)?.config.class)
        {
            return Ok(owner);
        }
        if self.health.state(owner) == Healthy {
            MuxStats::add(&self.stats.mirror_reads_fast, 1);
        }
        Ok(rt)
    }

    /// One native read of blocks `[first, first + nblocks)` on the
    /// dispatch path: the crossing charge, the counter, the trace event
    /// (carrying the part of the blocks the caller asked for) and the
    /// retried call itself.
    fn dispatch_read(
        &self,
        op: &ReadOp,
        handle: &TierHandle,
        nino: InodeNo,
        first: u64,
        nblocks: u64,
        dst: &mut [u8],
    ) -> VfsResult<usize> {
        let (at, len) = op.user_range(first, nblocks);
        MuxStats::add(&self.stats.dispatches, 1);
        let ino = op.file.ino;
        self.dispatch(OpKind::Read, handle.id, ino, at, len as u64, || {
            handle.fs.read(nino, first * BLOCK, dst)
        })
    }

    /// Whether a dispatch read served from `handle`'s tier publishes the
    /// mappings it resolved to the lock-free fast path: only from a
    /// Healthy non-HDD tier (HDD seeks dwarf the dispatch tax, and a cold
    /// tier should keep heat-visible dispatches), and never for a tier
    /// the SCM cache fronts (a fast-path hit would bypass the cache and
    /// starve it).
    fn fastpath_publishes(&self, op: &ReadOp, handle: &TierHandle) -> bool {
        let class = handle.config.class;
        self.opts.fastpath.enabled
            && self.health.state(handle.id) == crate::health::TierHealthState::Healthy
            && class != simdev::DeviceClass::Hdd
            && !op.cache.as_ref().is_some_and(|c| c.should_cache(class))
    }

    /// Serves one run of a dispatch-path read: one native read, then the
    /// per-block work over the bytes in hand. Whole blocks land in the
    /// caller's buffer; a partly requested block goes through the scratch
    /// page, because it can only be verified whole.
    fn read_run(
        &self,
        op: &ReadOp,
        run: &ReadRun,
        buf: &mut [u8],
        scratch: &mut ReadScratch,
    ) -> VfsResult<()> {
        let (at, len) = op.user_range(run.first, run.nblocks);
        let dst = &mut buf[(at - op.off) as usize..][..len];
        if run.whole {
            return self.read_run_into(op, run, dst, &mut scratch.crcs);
        }
        self.read_run_into(op, run, &mut scratch.page, &mut scratch.crcs)?;
        let in_pg = (at % BLOCK) as usize;
        dst.copy_from_slice(&scratch.page[in_pg..][..len]);
        Ok(())
    }

    /// [`Mux::read_run`] with the destination chosen: `dst` is the run's
    /// blocks, whole.
    ///
    /// The native read comes first, then one pass under one state lock
    /// does for every block what [`Mux::read_block`] does for one — owner
    /// and version revalidation, checksum verification, fast-path
    /// publication. A block that surprises (owner moved, a write in the
    /// window, trusted mismatch) is handed to `read_block` together with
    /// the read already made, so chase, failover and repair exist once.
    fn read_run_into(
        &self,
        op: &ReadOp,
        run: &ReadRun,
        dst: &mut [u8],
        crcs: &mut Vec<u32>,
    ) -> VfsResult<()> {
        use crate::integrity::VerifyOutcome;
        const PAGE: usize = BLOCK as usize;
        let file = op.file;
        let blocks = run.first..run.first + run.nblocks;
        let handle = self.tier(run.source)?;
        let v0 = file.version_now();
        let mut read = None;
        let mut failed = None;
        // An offline source is not dispatched to: every block goes
        // straight to its other copy (or errors) in `read_block`.
        if self.health.can_read(run.source) {
            let nino = self.ensure_native(file, run.source)?;
            match self.dispatch_read(op, &handle, nino, run.first, run.nblocks, dst) {
                Ok(got) => {
                    // Past a short native read lies sparse content.
                    dst[got..].fill(0);
                    read = Some((nino, got));
                }
                // Which block failed is unknown. A one-block run hands its
                // error to the failover; a longer one is re-read block by
                // block, so that only the bad block needs its other copy.
                Err(VfsError::Io(e)) if run.nblocks == 1 => {
                    failed = Some(FirstTry {
                        source: handle.clone(),
                        nino,
                        v0,
                        result: Err(VfsError::Io(e)),
                    });
                }
                Err(VfsError::Io(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let Some((nino, got)) = read else {
            for (block, page) in blocks.zip(dst.chunks_exact_mut(PAGE)) {
                self.read_block(op, block, run.owner, page, failed.take())?;
            }
            return Ok(());
        };
        let checksums = self.opts.integrity.checksums;
        crcs.clear();
        if checksums {
            crcs.extend(dst.chunks_exact(PAGE).map(crate::integrity::crc32c));
        }
        let cache = op
            .cache
            .as_deref()
            .filter(|c| c.should_cache(handle.config.class));
        let publish = self.fastpath_publishes(op, &handle);
        let mut surprised: Vec<u64> = Vec::new();
        let mut verified = false;
        {
            // Under the state lock the BLT cannot swing, and every
            // invalidation sweep follows the state change it publishes:
            // an insert made here either sees the change (and is skipped)
            // or is followed by its sweep.
            let mut st = file.state.write();
            let stable = file.version_now() == v0;
            let fsize = st.meta.attr.size;
            for (i, block) in blocks.clone().enumerate() {
                if !stable || st.blt.tier_of(block) != Some(run.owner) {
                    surprised.push(block);
                    continue;
                }
                let mut crc = None;
                if checksums {
                    match self.verify_checksum(file.ino, &mut st, block, crcs[i]) {
                        VerifyOutcome::Unknown => {}
                        VerifyOutcome::Match => crc = Some(crcs[i]),
                        VerifyOutcome::Dropped => {
                            MuxStats::add(&self.stats.checksums_dropped, 1);
                        }
                        VerifyOutcome::Mismatch { .. } => {
                            surprised.push(block);
                            continue;
                        }
                    }
                }
                verified |= crc.is_some();
                if publish {
                    self.fastpath.insert(
                        file.ino,
                        block,
                        run.source,
                        nino,
                        fsize,
                        crc.unwrap_or(0),
                        crc.is_some(),
                        op.fp_epoch,
                        op.fp_gen,
                    );
                }
            }
        }
        if verified {
            self.health.record_verified(run.source);
        }
        for (i, (block, page)) in blocks.zip(dst.chunks_exact_mut(PAGE)).enumerate() {
            let got = got.saturating_sub(i * PAGE).min(PAGE);
            if surprised.contains(&block) {
                let first = FirstTry {
                    source: handle.clone(),
                    nino,
                    v0,
                    result: Ok(got),
                };
                self.read_block(op, block, run.owner, page, Some(first))?;
            } else if let Some(c) = cache.filter(|_| got > 0) {
                // Publish the verified page (page-granular cache),
                // best-effort — fill failures must not fail the read.
                let _ = c.fill(file.ino, block, page);
            }
        }
        Ok(())
    }

    /// Serves one block of a dispatch-path read into `page` (one whole
    /// block) by whatever it takes: chasing a concurrent migration
    /// commit, failing over to the block's other copy, verifying and
    /// repairing. [`Mux::read_run_into`] calls it for every block that
    /// did not go by the book, passing the native read it already made
    /// as `first`.
    fn read_block(
        &self,
        op: &ReadOp,
        block: u64,
        owner: TierId,
        page: &mut [u8],
        mut first: Option<FirstTry>,
    ) -> VfsResult<()> {
        let file = op.file;
        let ino = file.ino;
        // An OCC migration may commit (swinging the BLT) and punch the
        // source while a dispatch is in flight. The commit protocol
        // orders BLT-swing before punch, so re-checking the owner *after*
        // the read makes the torn case detectable: chase the new owner,
        // bounded by READ_REVALIDATE_HOPS.
        //
        // The BLT owner this read validates against; a chase after a
        // concurrent migration commit updates it.
        let mut expect = owner;
        let mut hops = 0u32;
        loop {
            if first.is_none() && hops >= READ_REVALIDATE_HOPS {
                // Every chase lost its race: the block moved again before
                // each read landed. The last read pins the mapping, so
                // what it serves is the copy the table names.
                match self.read_pinned(op, block, page)? {
                    Some((owner, pinned)) => {
                        expect = owner;
                        first = Some(pinned);
                    }
                    None => {
                        // Unmapped since the plan: a hole now.
                        page.fill(0);
                        return Ok(());
                    }
                }
            }
            let (rhandle, nino, v0, primary) = match first.take() {
                Some(f) => (f.source, Some(f.nino), f.v0, f.result),
                None => {
                    let replica = file.state.read().replicas.get(block);
                    let handle = self.tier(self.read_source(expect, replica)?)?;
                    let v0 = file.version_now();
                    if self.health.can_read(handle.id) {
                        let nino = self.ensure_native(file, handle.id)?;
                        // A short native read must leave zeros behind it,
                        // not an earlier attempt's bytes.
                        page.fill(0);
                        let got = self.dispatch_read(op, &handle, nino, block, 1, page);
                        (handle, Some(nino), v0, got)
                    } else {
                        // Offline tier: don't dispatch, go straight to
                        // the replica (or error) below.
                        let offline = format!("tier {} is offline", handle.id);
                        (handle, None, v0, Err(VfsError::Io(offline)))
                    }
                }
            };
            let read_tier = rhandle.id;
            let mut primary_nino = nino;
            let mut served_tier = read_tier;
            let got = match primary {
                Ok(got) => got,
                Err(VfsError::Io(primary_err)) => {
                    // The chosen copy failed: fail over to the block's
                    // other copy — the replica when the primary was
                    // serving, the primary when a replica was (§4
                    // replication).
                    let rep = if read_tier == expect {
                        file.state.read().replicas.get(block)
                    } else {
                        Some(expect).filter(|&t| self.health.can_read(t))
                    };
                    match rep {
                        Some(rt) if rt != read_tier => {
                            let rh = self.tier(rt)?;
                            let rino = self.ensure_native(file, rt)?;
                            page.fill(0);
                            let got = self.dispatch_read(op, &rh, rino, block, 1, page)?;
                            MuxStats::add(&self.stats.replica_failovers, 1);
                            primary_nino = None; // don't cache-fill off the sick tier
                            served_tier = rt;
                            got
                        }
                        _ => return Err(VfsError::Io(primary_err)),
                    }
                }
                Err(e) => return Err(e),
            };
            let owner_now = file.state.read().blt.tier_of(block);
            if let Some(t) = owner_now {
                if t != expect && hops < READ_REVALIDATE_HOPS {
                    hops += 1;
                    expect = t;
                    MuxStats::add(&self.stats.read_revalidations, 1);
                    continue;
                }
            }
            // Verify before serving — but only when the block
            // demonstrably still lives where it was read from and no
            // write landed mid-read; either race makes a mismatch
            // meaningless (the write and migration paths keep the table
            // consistent on their own).
            if owner_now == Some(expect) && file.version_now() == v0 {
                self.verify_and_repair(file, served_tier, block, page, Some(v0))?;
            } else if hops < READ_REVALIDATE_HOPS && self.checksum_refutes(file, block, page) {
                // The version moved under the read — a write, or a mover's
                // window: the source may have lost the block and regained
                // it since the plan, so owning it now says nothing about
                // the bytes, and the checksum says they are wrong. Read
                // again rather than serve a reclaimed copy's zeros.
                hops += 1;
                MuxStats::add(&self.stats.read_revalidations, 1);
                continue;
            }
            if let (Some(_), Some(c)) = (primary_nino, &op.cache) {
                // Publish the verified page (page-granular cache),
                // best-effort — fill failures must not fail the read.
                // Only if the block still lives where it was read from:
                // a commit+punch since the read would cache stale zeros
                // otherwise.
                if c.should_cache(rhandle.config.class)
                    && got > 0
                    && file.state.read().blt.tier_of(block) == Some(expect)
                {
                    let _ = c.fill(ino, block, page);
                }
            }
            // Publish the resolved mapping to the lock-free fast path:
            // only off a deliberately chosen copy — primary or fast
            // replica; sick-tier failovers must keep feeding the breaker
            // through the dispatch path.
            if primary_nino.is_some()
                && owner_now == Some(expect)
                && file.version_now() == v0
                && self.fastpath_publishes(op, &rhandle)
            {
                let (fsize, crc, crc_verified) = {
                    let st = file.state.read();
                    let trusted = self.opts.integrity.checksums && st.checksums.is_trusted(block);
                    (
                        st.meta.attr.size,
                        if trusted {
                            st.checksums.get(block).unwrap_or(0)
                        } else {
                            0
                        },
                        trusted,
                    )
                };
                self.fastpath.insert(
                    ino,
                    block,
                    read_tier,
                    primary_nino.unwrap_or(0),
                    fsize,
                    crc,
                    crc_verified,
                    op.fp_epoch,
                    op.fp_gen,
                );
                // Close the insert-after-invalidate race: a migration
                // that committed while this insert was in flight may have
                // already swept the slot. The BLT swings before the sweep
                // runs, so re-checking owner + version here catches it;
                // on mismatch, self-invalidate.
                if file.state.read().blt.tier_of(block) != Some(expect) || file.version_now() != v0
                {
                    self.fastpath.invalidate(ino, block);
                }
            }
            return Ok(());
        }
    }

    /// One native read of `block` into `page` under the file's state read
    /// lock: no commit can swing the Block Lookup Table or the replica
    /// map while it runs, and a mover punches a copy only after both stop
    /// naming it, so the bytes read are the named copy's — the reader's
    /// twin of a mover's fall back to the exclusive `io_lock`. Returns
    /// the owner and the read, or `None` for an unmapped block.
    fn read_pinned(
        &self,
        op: &ReadOp,
        block: u64,
        page: &mut [u8],
    ) -> VfsResult<Option<(TierId, FirstTry)>> {
        let file = op.file;
        let st = file.state.read();
        let Some(owner) = st.blt.tier_of(block) else {
            return Ok(None);
        };
        let source = self.tier(self.read_source(owner, st.replicas.get(block))?)?;
        let Some(&nino) = st.native.get(&source.id) else {
            // Materializing takes the state lock: do it unpinned, then
            // pin again (each round adds a tier, so this ends).
            drop(st);
            self.ensure_native(file, source.id)?;
            return self.read_pinned(op, block, page);
        };
        let v0 = file.version_now();
        page.fill(0);
        let result = if self.health.can_read(source.id) {
            self.dispatch_read(op, &source, nino, block, 1, page)
        } else {
            Err(VfsError::Io(format!("tier {} is offline", source.id)))
        };
        Ok(Some((
            owner,
            FirstTry {
                source,
                nino,
                v0,
                result,
            },
        )))
    }

    /// Whether `page` contradicts a trusted checksum of `block`.
    fn checksum_refutes(&self, file: &MuxFile, block: u64, page: &[u8]) -> bool {
        if !self.opts.integrity.checksums {
            return false;
        }
        let crc = crate::integrity::crc32c(page);
        let st = file.state.read();
        st.checksums.is_trusted(block) && st.checksums.get(block) != Some(crc)
    }

    /// The native file system backing a tier. The bench's fault-injection
    /// harness uses this to touch blocks *beneath* Mux — device faults
    /// tick per native access, so corrupting exactly N stored blocks
    /// requires going around the dispatch layer.
    pub fn tier_fs(&self, tier: TierId) -> VfsResult<Arc<dyn FileSystem>> {
        Ok(self.tier(tier)?.fs.clone())
    }

    /// Where one file block physically lives right now: the owning tier
    /// and the file's native inode there (materializing the file on that
    /// tier if needed). Errors if the block is unmapped.
    pub fn native_location(&self, ino: MuxIno, block: u64) -> VfsResult<(TierId, InodeNo)> {
        let file = self.get_file(ino)?;
        let tier = file
            .state
            .read()
            .blt
            .tier_of(block)
            .ok_or_else(|| VfsError::InvalidArgument(format!("block {block} is unmapped")))?;
        let nino = self.ensure_native(&file, tier)?;
        Ok((tier, nino))
    }

    /// Verifies a full-block `page` against the file's checksum table and,
    /// on a trusted mismatch, runs the repair chain (see
    /// [`crate::integrity`]):
    ///
    /// 1. count + trace the detection and strike `tier`'s breaker;
    /// 2. bounded re-read of the same tier — transfer-path flukes settle
    ///    back to the expected checksum;
    /// 3. the block's other copy — replica or primary, whichever `tier`
    ///    is not — *itself verified* against the expected checksum before
    ///    it is trusted, served to the caller and rewritten over the
    ///    rotten copy;
    /// 4. no healthy copy anywhere: quarantine the block and fail with a
    ///    located [`VfsError::Corrupt`], so not one corrupt byte reaches
    ///    the caller.
    ///
    /// On success `page` holds verified content.
    ///
    /// `read_version` is the caller's [`MuxFile::version_now`] snapshot
    /// from before it read `page`, when it has one: a mismatch whose
    /// window contains a completed write is a race, not rot.
    pub(crate) fn verify_and_repair(
        &self,
        file: &MuxFile,
        tier: TierId,
        block: u64,
        page: &mut [u8],
        read_version: Option<u64>,
    ) -> VfsResult<()> {
        use crate::integrity::{crc32c, VerifyOutcome};
        if !self.opts.integrity.checksums {
            return Ok(());
        }
        let actual = crc32c(page);
        let outcome = self.verify_checksum(file.ino, &mut file.state.write(), block, actual);
        let expected = match outcome {
            VerifyOutcome::Unknown => return Ok(()),
            VerifyOutcome::Match => {
                self.health.record_verified(tier);
                return Ok(());
            }
            VerifyOutcome::Dropped => {
                MuxStats::add(&self.stats.checksums_dropped, 1);
                return Ok(());
            }
            VerifyOutcome::Mismatch { expected, .. } => expected,
        };
        // A mismatch is only evidence of rot if no user write could have
        // swapped the block under us. The write path dispatches its
        // native data before it records the new checksum, so a read
        // overlapping that window legitimately holds new bytes against
        // the old checksum — or, if the write completed between our
        // version check and here, old bytes against the new one. Either
        // copy is real data: serve the page as-is and leave re-verifying
        // to the scrubber once the dust settles.
        if file.writes_in_flight.load(Ordering::SeqCst) != 0
            || read_version.is_some_and(|v| file.version_now() != v)
        {
            return Ok(());
        }
        // Trusted mismatch: the device acked this read and served wrong
        // bytes. Count it, trace it, strike the breaker.
        MuxStats::add(&self.stats.corruptions_detected, 1);
        self.trace_event(
            TraceEventKind::CorruptionDetected { expected, actual },
            tier,
            file.ino,
            block * BLOCK,
            BLOCK,
        );
        self.health.record_corruption(tier);
        // (2) Bounded re-read of the primary.
        if self.health.can_read(tier) {
            for _ in 0..self.opts.integrity.reread_retries {
                let mut fresh = vec![0u8; BLOCK as usize];
                let reread = self.read_native_block(file, tier, block, &mut fresh, OpKind::Scrub);
                if reread.is_err() {
                    break;
                }
                if crc32c(&fresh) == expected {
                    page.copy_from_slice(&fresh);
                    file.state.write().checksums.unquarantine(block);
                    MuxStats::add(&self.stats.corruptions_repaired, 1);
                    self.trace_event(
                        TraceEventKind::CorruptionRepaired {
                            from_replica: false,
                        },
                        tier,
                        file.ino,
                        block * BLOCK,
                        BLOCK,
                    );
                    return Ok(());
                }
            }
        }
        // (3) The verified other copy, whichever role it plays: the
        // replica when the primary rotted, the primary when the read was
        // served from a rotted replica.
        let (owner, other) = {
            let st = file.state.read();
            let owner = st.blt.tier_of(block);
            let copies = [st.replicas.get(block), owner];
            (owner, copies.into_iter().flatten().find(|&t| t != tier))
        };
        if let Some(rt) = other.filter(|&rt| self.health.can_read(rt)) {
            let mut fresh = vec![0u8; BLOCK as usize];
            let rread = self.read_native_block(file, rt, block, &mut fresh, OpKind::Scrub);
            if rread.is_ok() && crc32c(&fresh) == expected {
                page.copy_from_slice(&fresh);
                // Scrub the rot off the bad copy, best-effort: the
                // content is already safe in the caller's hands.
                if self.health.can_write(tier) {
                    if let (Ok(handle), Ok(nino)) =
                        (self.tier(tier), self.ensure_native(file, tier))
                    {
                        let _ = self.tier_io(OpKind::Write, tier, || {
                            handle.fs.write(nino, block * BLOCK, &fresh)
                        });
                    }
                }
                file.state.write().checksums.unquarantine(block);
                MuxStats::add(&self.stats.corruptions_repaired, 1);
                self.trace_event(
                    TraceEventKind::CorruptionRepaired {
                        from_replica: Some(rt) != owner,
                    },
                    rt,
                    file.ino,
                    block * BLOCK,
                    BLOCK,
                );
                return Ok(());
            }
        }
        // (4) Unrepairable: fence the block from callers.
        if file.state.write().checksums.quarantine(block) {
            // A quarantined block must never be served by the fast path.
            self.fastpath_invalidate(file.ino, block, 1, None);
            MuxStats::add(&self.stats.blocks_quarantined, 1);
            self.trace_event(
                TraceEventKind::BlockQuarantined,
                tier,
                file.ino,
                block * BLOCK,
                BLOCK,
            );
        }
        Err(VfsError::corrupt_at(
            format!(
                "block {block} failed CRC-32C verification \
                 (expected {expected:#010x}, got {actual:#010x}) and no healthy copy exists"
            ),
            tier,
            file.ino,
            block * BLOCK,
        ))
    }

    /// Reads and verifies one checksummed block where it currently lives.
    /// Returns `true` when the block verified (clean or repaired); `false`
    /// when it was skipped (unmapped, unreadable tier, racing write or
    /// migration) or quarantined.
    fn scrub_block(&self, file: &MuxFile, block: u64) -> bool {
        let Some((tier, mut page, v0)) = self.read_owned_block(file, block) else {
            return false;
        };
        // A write or migration racing the scrub read makes any mismatch
        // meaningless; those paths keep the table consistent themselves.
        if file.version_now() != v0 || file.state.read().blt.tier_of(block) != Some(tier) {
            return false;
        }
        self.verify_and_repair(file, tier, block, &mut page, Some(v0))
            .is_ok()
    }

    /// Reads one block whole from its Block Lookup Table owner, off the
    /// foreground path (`OpKind::Scrub`): the scrubber's and the write
    /// read-back's source. Returns the owner, the block and the file
    /// version from before the read — the caller decides what a racing
    /// write or migration means; `None` when the block is unmapped, its
    /// tier unreadable or the read failed.
    pub(crate) fn read_owned_block(
        &self,
        file: &MuxFile,
        block: u64,
    ) -> Option<(TierId, Vec<u8>, u64)> {
        let tier = file.state.read().blt.tier_of(block)?;
        if !self.health.can_read(tier) {
            return None;
        }
        let v0 = file.version_now();
        let mut page = vec![0u8; BLOCK as usize];
        self.read_native_block(file, tier, block, &mut page, OpKind::Scrub)
            .ok()?;
        Some((tier, page, v0))
    }

    /// One paced scrubber step (stage (4) of [`Mux::maintenance_tick`]):
    /// walks checksummed blocks in deterministic `(ino, block)` order under
    /// the token bucket and per-tick block budget, verifying and repairing
    /// each. Emits a [`TraceEventKind::ScrubPass`] every time the cursor
    /// wraps past the last inode. Returns blocks verified this tick.
    fn scrub_tick(&self) -> u64 {
        let icfg = &self.opts.integrity;
        if !icfg.checksums || !icfg.scrub_enabled {
            return 0;
        }
        let mut scrub = self.scrub.lock();
        let mut inos = self.files.keys();
        if inos.is_empty() {
            return 0;
        }
        inos.sort_unstable();
        let (cur_ino, cur_block) = scrub.cursor.unwrap_or((0, 0));
        let mut idx = inos.partition_point(|&i| i < cur_ino);
        let mut next_block = if inos.get(idx) == Some(&cur_ino) {
            cur_block
        } else {
            0
        };
        let mut verified = 0u64;
        let mut budget = icfg.scrub_blocks_per_tick;
        let mut saw_entries = false;
        let mut wrapped = false;
        'walk: loop {
            if idx >= inos.len() {
                wrapped = true;
                scrub.cursor = None;
                break;
            }
            if let Some(file) = self.files.get(&inos[idx]) {
                let entries = file.state.read().checksums.entries();
                saw_entries |= !entries.is_empty();
                for (block, _) in entries {
                    if block < next_block {
                        continue;
                    }
                    if budget == 0 || !scrub.bucket.try_take(BLOCK, self.now()) {
                        scrub.cursor = Some((inos[idx], block));
                        break 'walk;
                    }
                    budget -= 1;
                    if self.scrub_block(&file, block) {
                        verified += 1;
                    }
                }
            }
            idx += 1;
            next_block = 0;
        }
        scrub.pass_verified += verified;
        if wrapped && (saw_entries || scrub.pass_verified > 0) {
            self.end_scrub_pass(&mut scrub);
        }
        MuxStats::add(&self.stats.scrub_blocks_verified, verified);
        verified
    }

    /// Closes the scrubber's current pass: counts it and emits its
    /// [`TraceEventKind::ScrubPass`] with the blocks the pass verified.
    fn end_scrub_pass(&self, scrub: &mut crate::integrity::ScrubState) {
        scrub.passes += 1;
        let verified = std::mem::take(&mut scrub.pass_verified);
        MuxStats::add(&self.stats.scrub_passes, 1);
        let pass = scrub.passes;
        let kind = TraceEventKind::ScrubPass { pass, verified };
        self.trace_event(kind, CACHE_TIER, 0, 0, 0);
    }

    /// Verifies every checksummed block of every file once, ignoring the
    /// scrubber's pacing — tests and the `integrity` experiment use this
    /// for a deterministic full pass without driving maintenance ticks.
    /// Counts as a completed pass (cursor reset, `scrub_passes` bumped,
    /// `scrub_pass` trace event). Returns the number of blocks verified.
    pub fn scrub_everything(&self) -> u64 {
        if !self.opts.integrity.checksums {
            return 0;
        }
        let mut inos = self.files.keys();
        inos.sort_unstable();
        let mut verified = 0u64;
        for ino in inos {
            let Some(file) = self.files.get(&ino) else {
                continue;
            };
            let entries = file.state.read().checksums.entries();
            for (block, _) in entries {
                if self.scrub_block(&file, block) {
                    verified += 1;
                }
            }
        }
        MuxStats::add(&self.stats.scrub_blocks_verified, verified);
        // A forced full walk is still a completed pass: reset the paced
        // cursor (everything it would visit was just visited) and account
        // for it exactly like a wrap.
        let mut scrub = self.scrub.lock();
        scrub.cursor = None;
        scrub.pass_verified += verified;
        self.end_scrub_pass(&mut scrub);
        verified
    }

    /// Looks up `name` in the native directory `parent`; with `create`,
    /// makes it as that `(kind, mode)` if absent. Two threads
    /// materializing the same path race benignly: the loser's create
    /// returns [`VfsError::Exists`] and loops back to the lookup, so both
    /// observe the same native inode.
    fn native_lookup(
        &self,
        handle: &TierHandle,
        parent: InodeNo,
        name: &str,
        create: Option<(FileType, u32)>,
    ) -> VfsResult<FileAttr> {
        loop {
            let found = self.tier_io(OpKind::Meta, handle.id, || handle.fs.lookup(parent, name));
            let (Err(VfsError::NotFound), Some((kind, mode))) = (&found, create) else {
                return found;
            };
            match self.tier_io(OpKind::Meta, handle.id, || {
                handle.fs.create(parent, name, kind, mode)
            }) {
                Err(VfsError::Exists) => continue, // lost the create race
                made => return made,
            }
        }
    }

    /// The native inode of the directory `comps` names below a tier's
    /// root — the one walk behind materializing, unlinking and renaming
    /// native twins. With `create`, missing directories are made.
    fn native_dir(
        &self,
        handle: &TierHandle,
        comps: &[String],
        create: bool,
    ) -> VfsResult<InodeNo> {
        let dir = create.then_some((FileType::Directory, 0o755));
        let mut cur = handle.fs.root_ino();
        for comp in comps {
            let a = self.native_lookup(handle, cur, comp, dir)?;
            if !a.is_dir() {
                return Err(VfsError::NotDir);
            }
            cur = a.ino;
        }
        Ok(cur)
    }

    /// `st.checksums.verify`, listing the file for re-encoding when that
    /// drops an untrusted checksum.
    pub(crate) fn verify_checksum(
        &self,
        ino: MuxIno,
        st: &mut FileState,
        block: u64,
        actual: u32,
    ) -> VerifyOutcome {
        let outcome = st.checksums.verify(block, actual);
        if outcome == VerifyOutcome::Dropped {
            self.mark_reencode(ino, st);
        }
        outcome
    }

    /// Materializes the file on `tier` (creating parent directories and a
    /// sparse file as needed) and returns the native inode.
    pub(crate) fn ensure_native(&self, file: &MuxFile, tier: TierId) -> VfsResult<InodeNo> {
        if let Some(&nino) = file.state.read().native.get(&tier) {
            return Ok(nino);
        }
        let handle = self.tier(tier)?;
        let (parent, name) = self.ns.file_loc.get(&file.ino).ok_or(VfsError::Stale)?;
        let comps = self.ns.path_components(parent)?;
        let dir = self.native_dir(&handle, &comps, true)?;
        let made = Some((FileType::Regular, 0o644));
        let nino = self.native_lookup(&handle, dir, &name, made)?.ino;
        let mut st = file.state.write();
        st.native.insert(tier, nino);
        self.mark_dirty(file.ino, &mut st, None);
        Ok(nino)
    }

    /// Every tier that materializes the file, with its native inode
    /// there — the fan-out of truncate, punch and fsync. In tier order:
    /// map order would make the fan-out (and its trace) differ run to run.
    fn natives(&self, file: &MuxFile) -> Vec<(TierId, InodeNo)> {
        let st = file.state.read();
        let mut natives: Vec<_> = st.native.iter().map(|(&t, &n)| (t, n)).collect();
        natives.sort_unstable();
        natives
    }

    /// Every tier where the directory `dir` resolves, with its native
    /// inode there — the fan-out of a directory fsync. In tier order.
    fn native_dirs(&self, dir: MuxIno) -> VfsResult<Vec<(TierId, InodeNo)>> {
        let comps = self.ns.path_components(dir)?;
        let mut natives = Vec::new();
        for tier in 0..self.tiers.read().len() as TierId {
            if let Ok(nino) = self.native_dir(&*self.tier(tier)?, &comps, false) {
                natives.push((tier, nino));
            }
        }
        Ok(natives)
    }

    /// Lazy metadata sync: pushes the collective inode's values to the
    /// tiers whose native copies went stale when affinity moved.
    fn push_stale_attrs(&self, file: &MuxFile) -> VfsResult<()> {
        let (stale, attr) = {
            let mut st = file.state.write();
            (st.meta.take_stale(), st.meta.attr)
        };
        for tid in stale {
            if let Some(&nino) = file.state.read().native.get(&tid) {
                let handle = self.tier(tid)?;
                // Respect the tier's native timestamp semantics (§4): a
                // FAT-granularity tier only ever sees rounded values.
                let gran = handle
                    .timestamp_granularity_ns
                    .load(Ordering::Relaxed)
                    .max(1);
                let set = SetAttr {
                    atime_ns: Some(attr.atime_ns / gran * gran),
                    mtime_ns: Some(attr.mtime_ns / gran * gran),
                    mode: Some(attr.mode),
                    ..Default::default()
                };
                let _ = self.tier_io(OpKind::Meta, tid, || handle.fs.setattr(nino, &set));
            }
        }
        Ok(())
    }

    /// Moves or removes the native twins of `entry`, named `name` in the
    /// directory `comps`, in tier order: on every tier that materializes
    /// the file, or where the directory resolves. `to` is the new
    /// `(directory, name)` of a rename; `None` unlinks. A tier that lacks
    /// the twin has nothing to do, and a native directory that still holds
    /// entries stays where it is.
    fn fan_out_entry(
        &self,
        entry: NsEntry,
        comps: &[String],
        name: &str,
        to: Option<(&[String], &str)>,
    ) -> VfsResult<()> {
        let tiers: Vec<TierId> = match entry {
            NsEntry::File(ino) => self
                .natives(&*self.get_file(ino)?)
                .into_iter()
                .map(|n| n.0)
                .collect(),
            NsEntry::Dir(_) => (0..self.tiers.read().len() as TierId).collect(),
        };
        for tier in tiers {
            let handle = self.tier(tier)?;
            let Ok(dir) = self.native_dir(&handle, comps, false) else {
                continue;
            };
            if let NsEntry::Dir(_) = entry {
                if !self
                    .native_lookup(&handle, dir, name, None)
                    .is_ok_and(|a| a.is_dir())
                {
                    continue;
                }
            }
            let done = match to {
                Some((new_comps, new_name)) => {
                    let new_dir = self.native_dir(&handle, new_comps, true)?;
                    self.dispatch(OpKind::Meta, tier, entry.ino(), 0, 0, || {
                        handle.fs.rename(dir, name, new_dir, new_name)
                    })
                }
                None => self.dispatch(OpKind::Meta, tier, entry.ino(), 0, 0, || {
                    handle.fs.unlink(dir, name)
                }),
            };
            match done {
                Ok(()) | Err(VfsError::NotFound) => {}
                Err(VfsError::NotEmpty) if to.is_none() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl FileSystem for Mux {
    fn fs_name(&self) -> &str {
        "mux"
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        match entry {
            NsEntry::Dir(i) => self.ns.dirs.view(&i, |d| d.attr).ok_or(VfsError::Stale),
            NsEntry::File(i) => self
                .files
                .view(&i, |f| f.state.read().meta.attr)
                .ok_or(VfsError::Stale),
        }
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns);
        // Served entirely from the collective inode — no native calls.
        if let Some(a) = self.ns.dirs.view(&ino, |d| d.attr) {
            return Ok(a);
        }
        Ok(self.get_file(ino)?.state.read().meta.attr)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let now = self.now();
        let dir_result = self.ns.dirs.update(&ino, |d| {
            if set.size.is_some() {
                return Err(VfsError::IsDir);
            }
            if let Some(m) = set.mode {
                d.attr.mode = m;
            }
            if let Some(u) = set.uid {
                d.attr.uid = u;
            }
            if let Some(g) = set.gid {
                d.attr.gid = g;
            }
            d.attr.ctime_ns = now;
            // The metafile keeps a directory's link and mode.
            self.log_ns(|| NsRecord::Mkdir {
                parent: d.parent,
                name: d.name.clone(),
                ino,
                mode: d.attr.mode,
            });
            Ok(d.attr)
        });
        if let Some(res) = dir_result {
            return res;
        }
        let file = self.get_file(ino)?;
        let _io = file.io_lock.write(); // exclude concurrent writes
        let open = file.write_window();
        let old_size = file.state.read().meta.attr.size;
        if let Some(new_size) = set.size.filter(|&s| s < old_size) {
            // Fan out the truncate to every tier materializing the file,
            // then report the cut tail.
            for (tid, nino) in self.natives(&file) {
                let handle = self.tier(tid)?;
                // Native sparse files may be shorter than the logical
                // size; only shrink those that extend past the cut.
                self.dispatch(OpKind::Meta, tid, ino, new_size, 0, || {
                    if handle.fs.getattr(nino)?.size > new_size {
                        handle.fs.setattr(nino, &SetAttr::truncate(new_size))?;
                    }
                    Ok(())
                })?;
            }
            self.commit_cut(&file, &open, new_size, None, Some((new_size, now)))?;
        }
        let mut st = file.state.write();
        if let Some(size) = set.size.filter(|&s| s > old_size) {
            // Growth stores no byte anywhere: the new tail is a hole.
            st.meta.attr.size = size;
        }
        if let Some(m) = set.mode {
            st.meta.attr.mode = m;
            let owner = st.meta.owner(AttrKind::Mode);
            st.meta.set_owner(AttrKind::Mode, owner); // unchanged owner
        }
        if let Some(u) = set.uid {
            st.meta.attr.uid = u;
        }
        if let Some(g) = set.gid {
            st.meta.attr.gid = g;
        }
        if let Some(t) = set.atime_ns {
            st.meta.attr.atime_ns = t;
        }
        if let Some(t) = set.mtime_ns {
            st.meta.attr.mtime_ns = t;
        }
        st.meta.attr.ctime_ns = now;
        self.mark_dirty(ino, &mut st, None);
        Ok(st.meta.attr)
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        if name.is_empty() || name.contains('/') {
            return Err(VfsError::InvalidArgument("bad name".into()));
        }
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let now = self.now();
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        let attr = FileAttr::new(ino, kind, mode, now);
        // Node-first, link-second: the new node becomes reachable only
        // once the parent's shard lock has atomically checked the name
        // and inserted the entry, so a concurrent lookup never finds an
        // entry whose node is missing. On a lost name race the node is
        // unwound and `Exists` surfaces, exactly as under the old global
        // namespace lock.
        match kind {
            FileType::Directory => {
                let mut dattr = attr;
                dattr.nlink = 2;
                self.ns.dirs.insert(
                    ino,
                    MuxDir {
                        parent,
                        name: name.to_string(),
                        entries: BTreeMap::new(),
                        attr: dattr,
                    },
                );
                let linked = self.ns.dirs.update(&parent, |dir| {
                    if dir.entries.contains_key(name) {
                        return Err(VfsError::Exists);
                    }
                    dir.entries.insert(name.to_string(), NsEntry::Dir(ino));
                    dir.attr.nlink += 1;
                    // Queued under the parent's lock: an unlink of this
                    // name can only queue after it.
                    self.log_ns(|| NsRecord::Mkdir {
                        parent,
                        name: name.to_string(),
                        ino,
                        mode,
                    });
                    Ok(())
                });
                match linked {
                    Some(Ok(())) => {}
                    Some(Err(e)) => {
                        self.ns.dirs.remove(&ino);
                        return Err(e);
                    }
                    None => {
                        self.ns.dirs.remove(&ino);
                        return Err(VfsError::NotFound);
                    }
                }
            }
            FileType::Regular => {
                // The host file system (initial affinity owner for all
                // metadata, §2.3) is whatever the policy would pick for the
                // first byte.
                let tier_status = self.tier_status();
                let host = if tier_status.is_empty() {
                    0
                } else {
                    let policy = self.policy.read().clone();
                    policy.place(&PlacementCtx {
                        ino,
                        off: 0,
                        len: 0,
                        file_size: 0,
                        is_append: true,
                        sync: false,
                        tiers: &tier_status,
                    })
                };
                let file = Arc::new(MuxFile::new(ino, CollectiveInode::new(attr, host)));
                // Stamp the creating thread's tenant: all background work
                // on this file is charged to it (runtime-only; remounted
                // files default to tenant 0).
                file.set_tenant(thread_tenant());
                self.files.insert(ino, Arc::clone(&file));
                // The link record below says only where the file is; its
                // attributes and owners travel in its first upsert. Marked
                // once a flush can find the file: one that took the mark
                // and found no file would take the mark for an unlink's.
                self.mark_dirty(ino, &mut file.state.write(), None);
                self.ns.file_loc.insert(ino, (parent, name.to_string()));
                let linked = self.ns.dirs.update(&parent, |dir| {
                    if dir.entries.contains_key(name) {
                        return Err(VfsError::Exists);
                    }
                    dir.entries.insert(name.to_string(), NsEntry::File(ino));
                    self.log_ns(|| NsRecord::Link {
                        parent,
                        name: name.to_string(),
                        ino,
                    });
                    Ok(())
                });
                match linked {
                    Some(Ok(())) => {}
                    other => {
                        self.ns.file_loc.remove(&ino);
                        self.files.remove(&ino);
                        return Err(match other {
                            Some(Err(e)) => e,
                            _ => VfsError::NotFound,
                        });
                    }
                }
            }
        }
        let mut out = attr;
        if kind == FileType::Directory {
            out.nlink = 2;
        }
        Ok(out)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        let comps = self.ns.path_components(parent)?;
        match entry {
            NsEntry::Dir(ino) => {
                if self.ns.dirs.view(&ino, |d| !d.entries.is_empty()) == Some(true) {
                    return Err(VfsError::NotEmpty);
                }
                // Natives first, as for a file, so a failed fan-out leaves
                // the directory whole; a create racing the removal vetoes
                // it below and only costs its native twin a re-create.
                self.fan_out_entry(entry, &comps, name, None)?;
                // Detach the node atomically with the emptiness check, so
                // a concurrent create inside the dying directory either
                // happens-before (vetoing the removal) or fails NotFound.
                match self.ns.dirs.remove_if(&ino, |d| d.entries.is_empty()) {
                    RemoveIf::Removed(_) => {}
                    RemoveIf::Vetoed => return Err(VfsError::NotEmpty),
                    RemoveIf::Missing => return Err(VfsError::Stale),
                }
                self.ns.dirs.update(&parent, |p| {
                    p.entries.remove(name);
                    p.attr.nlink = p.attr.nlink.saturating_sub(1);
                });
                self.log_ns(|| NsRecord::Rmdir { ino });
            }
            NsEntry::File(ino) => {
                let file = self.get_file(ino)?;
                let _io = file.io_lock.write();
                let open = file.write_window();
                self.fan_out_entry(entry, &comps, name, None)?;
                // Native inodes can be reused after the fan-out above:
                // forget them, so that nothing below (a retired replica's
                // punch) reaches for one, then drop every block — a stale
                // fast-path mapping could hand another file's bytes to a
                // racing reader.
                file.state.write().native.clear();
                self.commit_cut(&file, &open, 0, None, None)?;
                // Link-first removal: once the entry leaves the parent, new
                // lookups fail NotFound; the node tables are cleaned after.
                self.ns.dirs.update(&parent, |p| {
                    p.entries.remove(name);
                });
                self.ns.file_loc.remove(&ino);
                self.files.remove(&ino);
                self.autotier.heat.forget(ino);
                // A policy's only per-file state is configuration (pins).
                self.policy.read().forget(ino);
                self.log_ns(|| NsRecord::Unlink { ino });
            }
        }
        Ok(())
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        let existing = self.ns.entry(new_parent, new_name)?;
        if existing == Some(entry) {
            return Ok(()); // renamed onto itself
        }
        let new_line = self.ns.lineage(new_parent)?;
        if new_line.iter().any(|&(d, _)| NsEntry::Dir(d) == entry) {
            return Err(VfsError::InvalidArgument(format!(
                "cannot move directory {name} below itself"
            )));
        }
        // Replace the target if it exists: `unlink` refuses a non-empty
        // directory.
        if existing.is_some() {
            self.unlink(new_parent, new_name)?;
        }
        // Fan out, so native paths stay congruent with the namespace.
        let old_comps = self.ns.path_components(parent)?;
        let new_comps = self.ns.path_components(new_parent)?;
        self.fan_out_entry(entry, &old_comps, name, Some((&new_comps, new_name)))?;
        // Unlink-then-relink across two shard steps. The entry is briefly
        // in neither directory; a racing lookup during that window sees
        // NotFound (documented rename anomaly — never double-visibility).
        let taken = self
            .ns
            .dirs
            .update(&parent, |d| d.entries.remove(name))
            .ok_or(VfsError::NotFound)?
            .ok_or(VfsError::NotFound)?;
        let inserted = self
            .ns
            .dirs
            .update(&new_parent, |d| {
                d.entries.insert(new_name.to_string(), taken);
            })
            .is_some();
        if !inserted {
            // New parent vanished mid-rename: restore the old link.
            self.ns.dirs.update(&parent, |d| {
                d.entries.insert(name.to_string(), taken);
            });
            return Err(VfsError::NotFound);
        }
        // A rename is, to the metafile, a link of an inode it knows.
        match taken {
            NsEntry::File(ino) => {
                self.ns
                    .file_loc
                    .insert(ino, (new_parent, new_name.to_string()));
                self.log_ns(|| NsRecord::Link {
                    parent: new_parent,
                    name: new_name.to_string(),
                    ino,
                });
            }
            NsEntry::Dir(ino) => {
                let mode = self.ns.dirs.update(&ino, |dd| {
                    dd.parent = new_parent;
                    dd.name = new_name.to_string();
                    dd.attr.mode
                });
                self.log_ns(|| NsRecord::Mkdir {
                    parent: new_parent,
                    name: new_name.to_string(),
                    ino,
                    mode: mode.unwrap_or(0o755),
                });
            }
        }
        Ok(())
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.charge(self.opts.cost.call_processor_ns);
        self.ns
            .dirs
            .view(&ino, |dir| {
                dir.entries
                    .iter()
                    .map(|(name, e)| DirEntry {
                        name: name.clone(),
                        ino: e.ino(),
                        kind: match e {
                            NsEntry::Dir(_) => FileType::Directory,
                            NsEntry::File(_) => FileType::Regular,
                        },
                    })
                    .collect()
            })
            .ok_or(VfsError::NotFound)
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let t0 = self.now();
        // Fast path first: a cached, still-valid block → tier mapping
        // serves the read with no shard lock, no BLT walk and no retry
        // machinery (see crate::fastpath and PERFORMANCE.md). Anything
        // surprising falls through to the dispatch path below.
        if self.opts.fastpath.enabled && !buf.is_empty() {
            if let Some((n, tier)) = self.fastpath_read(ino, off, buf) {
                let dt = self.now().saturating_sub(t0);
                self.lat.record(OpKind::MuxRead, tier, dt);
                self.lat.record_tenant(OpKind::MuxRead, thread_tenant(), dt);
                return Ok(n);
            }
        }
        let cost = &self.opts.cost;
        // Sampled before the BLT resolves anything: a mapping inserted
        // below is stamped with these values, so any epoch bump or health
        // transition that races this read invalidates the entry instead
        // of racing it.
        let fp_epoch = self.fastpath.epoch();
        let fp_gen = self.health.generation();
        self.charge(cost.call_processor_ns + cost.blt_lookup_ns + cost.occ_check_ns);
        let file = self.get_file(ino)?;
        let now = self.now();
        let st = file.state.read();
        let size = st.meta.attr.size;
        if off >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        let first = off / BLOCK;
        let last = (off + n as u64 - 1) / BLOCK;
        let plan = st.blt.plan(first, last - first + 1);
        let replicas = st.replicas.overlapping(first, last - first + 1);
        drop(st);
        let op = ReadOp {
            file: &file,
            off,
            end: off + n as u64,
            cache: self.cache.read().clone(),
            fp_epoch,
            fp_gen,
        };
        let max_blocks = (cost.max_dispatch_bytes / BLOCK).max(1);
        let mut scratch = ReadScratch {
            page: [0u8; BLOCK as usize],
            crcs: Vec::new(),
        };
        // Holes read as zeros; mapped segments are filled by their runs.
        let mut mapped_to = off;
        // The plan is cut into runs: maximal stretches of consecutive
        // blocks with one BLT owner and one chosen source that the SCM
        // cache did not serve, capped at `max_dispatch_bytes`. A run is
        // one native read; everything per block happens afterwards, over
        // bytes already in hand (see `read_run`). A block the request
        // covers only partly is a run of its own: verifying it takes the
        // whole block, which has no room in the caller's buffer.
        let mut run: Option<ReadRun> = None;
        let mut rep = replicas.iter().peekable();
        for seg in &plan {
            let (seg_at, seg_len) = op.user_range(seg.start, seg.len);
            buf[(mapped_to - off) as usize..(seg_at - off) as usize].fill(0);
            mapped_to = seg_at + seg_len as u64;
            let owner = seg.value;
            let class = self.tier(owner)?.config.class;
            let cache = op.cache.as_deref().filter(|c| c.should_cache(class));
            for block in seg.start..seg.start + seg.len {
                if cache.is_some_and(|c| self.cache_read(&op, c, block, &mut scratch.page, buf)) {
                    continue;
                }
                while rep.next_if(|e| e.start + e.len <= block).is_some() {}
                let replica = rep.peek().filter(|e| e.start <= block).map(|e| e.value);
                let source = self.read_source(owner, replica)?;
                let whole = block * BLOCK >= off && (block + 1) * BLOCK <= op.end;
                if let Some(r) = run.as_mut().filter(|r| {
                    r.whole
                        && whole
                        && r.owner == owner
                        && r.source == source
                        && r.first + r.nblocks == block
                        && r.nblocks < max_blocks
                }) {
                    r.nblocks += 1;
                    continue;
                }
                if let Some(r) = run.take() {
                    self.read_run(&op, &r, buf, &mut scratch)?;
                }
                run = Some(ReadRun {
                    first: block,
                    nblocks: 1,
                    owner,
                    source,
                    whole,
                });
            }
        }
        if let Some(r) = run.take() {
            self.read_run(&op, &r, buf, &mut scratch)?;
        }
        buf[(mapped_to - off) as usize..n].fill(0);
        let last_tier = plan.last().map(|seg| seg.value);
        self.charge(cost.merge_ns);
        let tiers = plan.iter().map(|seg| seg.value);
        self.account(ino, off, n as u64, false, tiers);
        // Metadata affinity: the tier serving the final block owns atime.
        if let Some(t) = last_tier {
            let mut st = file.state.write();
            st.meta.on_read(t, now);
            self.mark_reencode(ino, &mut st);
        }
        let dt = self.now().saturating_sub(t0);
        self.lat
            .record(OpKind::MuxRead, last_tier.unwrap_or(CACHE_TIER), dt);
        self.lat.record_tenant(OpKind::MuxRead, thread_tenant(), dt);
        Ok(n)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let cost = &self.opts.cost;
        self.charge(cost.call_processor_ns + cost.occ_check_ns);
        let file = self.get_file(ino)?;
        let now = self.now();
        let _io = file.io_lock.read();
        // Open the write window before the first native dispatch: until
        // `commit` returns, stored data and stored checksums may
        // disagree, and the verify path must know that.
        let open = file.write_window();
        let len = data.len() as u64;
        let (mut plan, old_size) = self.plan_write(&file, off, len, false)?;
        let left = self.dispatch_write(&file, &mut plan, off, data)?;
        let first = off / BLOCK;
        let n = (off + len - 1) / BLOCK - first + 1;
        let written = Change::Written {
            plan: &plan,
            data,
            old_size,
            now,
        };
        self.commit(&file, &open, first, n, written)?;
        for (tier, b, n) in left {
            self.punch_unowned(&file, b, n, tier);
        }
        self.charge(cost.meta_update_ns + cost.merge_ns);
        self.account(ino, off, len, true, plan.iter().map(|seg| seg.tier));
        Ok(data.len())
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.blt_lookup_ns);
        let file = self.get_file(ino)?;
        let _io = file.io_lock.read();
        // The native punches below change stored content before `commit`
        // drops the checksums that describe it: same window as a write.
        let open = file.write_window();
        let first = off / BLOCK;
        let end = off + len;
        let plan = file
            .state
            .read()
            .blt
            .plan(first, end.div_ceil(BLOCK) - first);
        for seg in &plan {
            let handle = self.tier(seg.value)?;
            let nino = self.ensure_native(&file, seg.value)?;
            let seg_start = (seg.start * BLOCK).max(off);
            let seg_len = ((seg.start + seg.len) * BLOCK).min(end) - seg_start;
            self.dispatch(OpKind::Write, seg.value, ino, seg_start, seg_len, || {
                handle.fs.punch_hole(nino, seg_start, seg_len)
            })?;
        }
        self.commit_cut(&file, &open, off, Some(end), None)?;
        // Like truncate and unlink, a punch reaches every tier that holds
        // the file, not only the owners: a tier may store bytes of blocks
        // it does not own (a replica a write left stale and no resync has
        // refreshed), and recovery adopts whatever a tier holds of a block
        // nothing maps.
        let (b0, b1) = (off.div_ceil(BLOCK), end / BLOCK);
        for (tid, _) in self.natives(&file) {
            let punched: Vec<(u64, u64)> = plan
                .iter()
                .filter(|seg| seg.value == tid)
                .map(|seg| (seg.start, seg.len))
                .collect();
            for (s, l) in subtract_ranges(b0, b1.saturating_sub(b0), &punched) {
                self.punch_unowned(&file, s, l, tid);
            }
        }
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.blt_lookup_ns);
        let file = self.get_file(ino)?;
        let st = file.state.read();
        let size = st.meta.attr.size;
        if off >= size {
            return Ok(None);
        }
        match st.blt.next_mapped(off / BLOCK) {
            Some(e) => {
                let start = (e.start * BLOCK).max(off);
                let end = ((e.start + e.len) * BLOCK).min(size);
                if start >= size {
                    return Ok(None);
                }
                Ok(Some((start, end - start)))
            }
            None => Ok(None),
        }
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns);
        let (file, natives) = if self.ns.dirs.contains(&ino) {
            (None, self.native_dirs(ino)?)
        } else {
            let file = self.get_file(ino)?;
            MuxStats::add(&self.stats.fsyncs, 1);
            let natives = self.natives(&file);
            (Some(file), natives)
        };
        // Fan out to every participating file system and synchronize their
        // completion (paper §4). The metafile's own tier comes last: its
        // barrier carries the journal.
        let meta_tier = self.metafile.lock().as_ref().map(|h| h.tier);
        let mut on_meta_tier = None;
        for (tid, nino) in natives {
            if !self.health.can_read(tid) {
                // Offline tier: nothing reachable to flush; surviving
                // tiers still synchronize rather than wedging every fsync.
                continue;
            }
            if Some(tid) == meta_tier {
                on_meta_tier = Some(nino);
                continue;
            }
            let handle = self.tier(tid)?;
            match self.dispatch(OpKind::Fsync, tid, ino, 0, 0, || handle.fs.fsync(nino)) {
                // A native directory removed since it was resolved.
                Err(VfsError::NotFound) if file.is_none() => {}
                done => done?,
            }
        }
        if let Some(file) = &file {
            self.push_stale_attrs(file)?;
        }
        // The data is durable natively, or rides the journal's barrier:
        // now the records that name it.
        match (meta_tier, on_meta_tier) {
            (Some(tid), Some(nino)) => {
                let barrier = match file {
                    Some(_) => Barrier::Fsync(Some(nino)),
                    None => Barrier::Dir(nino),
                };
                self.dispatch(OpKind::Fsync, tid, ino, 0, 0, || {
                    self.flush_metalog(barrier)
                })
            }
            _ => self.flush_metalog(Barrier::Fsync(None)),
        }
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns);
        let meta_tier = self.metafile.lock().as_ref().map(|h| h.tier);
        let mut meta_online = false;
        for t in self.tiers.read().iter() {
            if !self.health.can_read(t.id) {
                continue; // offline: skip rather than wedge global sync
            }
            if Some(t.id) == meta_tier {
                meta_online = true;
                continue; // its sync is the journal's barrier, below
            }
            self.tier_io(OpKind::Fsync, t.id, || t.fs.sync())?;
        }
        match meta_tier {
            Some(tid) if meta_online => {
                self.tier_io(OpKind::Fsync, tid, || self.flush_metalog(Barrier::Sync))
            }
            _ => self.flush_metalog(Barrier::Fsync(None)),
        }
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        // Aggregated across tiers: the hierarchy is "a single device to the
        // host" (§1).
        let mut total = 0;
        let mut free = 0;
        for t in self.tiers.read().iter() {
            if let Ok(st) = t.fs.statfs() {
                total += st.total_bytes;
                free += st.free_bytes;
            }
        }
        Ok(StatFs {
            total_bytes: total,
            free_bytes: free,
            inodes: self.files.len() as u64,
            block_size: BLOCK as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use simdev::DeviceClass;
    use tvfs::memfs::MemFs;

    use super::*;
    use crate::policy::LruPolicy;

    const FILE: u64 = 64;

    /// Mux over roomy PM, SSD and HDD `MemFs` tiers with only the executor
    /// left to run: its queue is filled by hand. File `a` sits on PM, file
    /// `b` on the SSD, `b` read `b_reads` times and `a` ten times. Another
    /// user of the SSD leaves it exactly its reserve free. `tune` adjusts
    /// the options.
    fn rig(b_reads: u64, tune: impl FnOnce(&mut MuxOptions)) -> (Mux, MuxIno, MuxIno) {
        let clock = VirtualClock::new();
        let mut opts = MuxOptions::default();
        opts.autotier.mirror_enabled = false;
        opts.autotier.yield_read_p95_ns = 0;
        tune(&mut opts);
        let mux = Mux::new(clock, Arc::new(LruPolicy), opts);
        let classes = [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd];
        let mut natives = Vec::new();
        for (i, class) in classes.into_iter().enumerate() {
            let fs = Arc::new(MemFs::new(format!("t{i}"), 64 << 20));
            let config = TierConfig {
                name: format!("t{i}"),
                class,
            };
            mux.add_tier(config, fs.clone() as Arc<dyn FileSystem>);
            natives.push(fs);
        }
        let mk = |name: &str, reads: u64| {
            let ino = mux
                .create(ROOT_INO, name, FileType::Regular, 0o644)
                .unwrap()
                .ino;
            mux.write(ino, 0, &vec![ino as u8; (FILE * BLOCK) as usize])
                .unwrap();
            let mut buf = [0u8; BLOCK as usize];
            for k in 0..reads {
                mux.read(ino, (k % FILE) * BLOCK, &mut buf).unwrap();
            }
            ino
        };
        let a = mk("a", 10);
        let b = mk("b", b_reads);
        mux.migrate_file(b, 1).unwrap();
        let ssd = &natives[1];
        let ballast = ssd
            .create(ROOT_INO, "ballast", FileType::Regular, 0o644)
            .unwrap()
            .ino;
        let free = ssd.statfs().unwrap().free_bytes;
        let room = free - mux.opts.cost.max_dispatch_bytes;
        ssd.write(ballast, 0, &vec![0u8; room as usize]).unwrap();
        // Nothing plans: the executor runs the queue below.
        mux.autotier.state.lock().last_plan_ns = Some(mux.now());
        (mux, a, b)
    }

    /// Queues one chain of whole-file demotions.
    fn queue(mux: &Mux, moves: &[(MuxIno, TierId)]) {
        let chain = moves.iter().map(|&(ino, to)| EpochAction::Migrate {
            plan: MigrationPlan {
                ino,
                block: 0,
                n_blocks: FILE,
                to,
            },
            promote: false,
        });
        mux.autotier.state.lock().queue.push_back(chain.collect());
    }

    fn ssd(mux: &Mux) -> TierStatus {
        mux.tier_status().into_iter().find(|t| t.id == 1).unwrap()
    }

    fn tier_of(mux: &Mux, ino: MuxIno) -> Vec<TierId> {
        let placement = mux.file_placement(ino).unwrap();
        placement.iter().map(|e| e.2).collect()
    }

    #[test]
    fn a_busy_step_keeps_its_chain_at_the_front() {
        // The planner sinks `b` to the HDD to make the SSD room for `a`.
        // Another mover holds `b`'s migration flag: the sink step is
        // `Busy`, and the whole chain waits at the front of the queue.
        let (mux, a, b) = rig(0, |_| {});
        assert!(!ssd(&mux).has_room(BLOCK));
        queue(&mux, &[(b, 2), (a, 1)]);
        let flag = &mux.get_file(b).unwrap().migrating;
        flag.store(true, Ordering::Release);
        let report = mux.maintenance_tick();
        assert_eq!((report.executed, report.failed, report.queued), (0, 0, 2));
        assert_eq!((tier_of(&mux, a), tier_of(&mux, b)), (vec![0], vec![1]));

        // The next tick runs the chain in plan order.
        flag.store(false, Ordering::Release);
        let report = mux.maintenance_tick();
        assert_eq!((report.executed, report.failed, report.queued), (2, 0, 0));
        assert_eq!((tier_of(&mux, a), tier_of(&mux, b)), (vec![1], vec![2]));
        assert_eq!(mux.stats().snapshot().auto_demotions, 2 * FILE);
        let st = ssd(&mux);
        assert!(
            st.free_bytes >= st.reserve_bytes,
            "the SSD keeps its reserve"
        );
    }

    #[test]
    fn a_planned_move_without_room_is_dropped() {
        // `b` is hotter than `a`: nothing on the SSD may make way for it,
        // and the move is dropped, not run into the reserve.
        let (mux, a, b) = rig(20, |_| {});
        queue(&mux, &[(a, 1)]);
        let report = mux.maintenance_tick();
        assert_eq!(report.failed, 1);
        assert_eq!((tier_of(&mux, a), tier_of(&mux, b)), (vec![0], vec![1]));
        let st = ssd(&mux);
        assert_eq!(st.free_bytes, st.reserve_bytes, "the SSD keeps its reserve");
    }

    #[test]
    fn a_waiting_step_pays_its_buckets_once() {
        // The shared and the tenant bucket hold exactly the chain's bytes
        // and refill a byte a second. The sink step meets `Busy` for a
        // hundred ticks, and then the chain runs: it paid nothing while it
        // waited.
        let bytes = 2 * FILE * BLOCK;
        let (mux, a, b) = rig(0, |o| {
            o.autotier.rate_bytes_per_sec = 1;
            o.autotier.burst_bytes = bytes;
            o.qos.tenant_rate_bytes_per_sec = 1;
            o.qos.tenant_burst_bytes = bytes;
        });
        queue(&mux, &[(b, 2), (a, 1)]);
        let flag = &mux.get_file(b).unwrap().migrating;
        flag.store(true, Ordering::Release);
        for _ in 0..100 {
            let report = mux.maintenance_tick();
            assert_eq!((report.executed, report.failed, report.queued), (0, 0, 2));
        }
        flag.store(false, Ordering::Release);
        let report = mux.maintenance_tick();
        assert_eq!((report.executed, report.failed, report.queued), (2, 0, 0));
        assert_eq!((tier_of(&mux, a), tier_of(&mux, b)), (vec![1], vec![2]));
        // Each bucket paid the two steps once: both are empty.
        let (now, tenant) = (mux.now(), mux.get_file(a).unwrap().tenant());
        assert_eq!(mux.autotier.state.lock().bucket.available(now), 0);
        assert!(!mux.sched.tenant_can_take(tenant, 1, now));
    }
}
