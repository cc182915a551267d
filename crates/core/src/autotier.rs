//! The autonomous background tiering engine.
//!
//! Everything the paper keeps at the Mux layer — placement, migration,
//! pluggable policies — only matters if something actually *moves* the
//! data. This module is that something: an epoch-based scan → plan →
//! migrate loop (the defining component of a tiering system in the
//! tiered-storage literature) built from three parts:
//!
//! 1. **Heat accounting** ([`HeatMap`]) — the one per-inode access
//!    record: read/write counters with exponential decay, the last access
//!    time and a slow-read mark, beside an [`Mglru`] recency ladder, so one
//!    source serves every planner's frequency ("how often") and recency
//!    ("how recently") signals. Mux feeds it from the dispatch seam on
//!    every user read and write; migration copies do not self-heat.
//! 2. **Planner** ([`plan_epoch`]) — a *pure function* from tier
//!    occupancy, file layouts, heat scores and pin state to a bounded
//!    batch of promotion/demotion [`MigrationPlan`]s. Purity is the
//!    point: the planner invariants (never a pinned file, never an
//!    unhealthy or over-watermark destination, never more than the epoch
//!    byte budget) are property-tested directly, with no Mux in the loop.
//! 3. **Executor** (driven by [`crate::Mux::maintenance_tick`]) — a
//!    [`TokenBucket`] byte-rate limiter on the virtual clock drains the
//!    plan queue through the OCC migration path, backs off when a
//!    migration loses an OCC race ([`tvfs::VfsError::Busy`]), and yields
//!    to foreground I/O when the recent foreground read p95 exceeds the
//!    configured threshold.
//!
//! The whole loop is virtual-clock driven and runs only inside
//! `maintenance_tick`, so it stays deterministic and crash-enumerable:
//! the crash matrix can cut power at every device operation of an epoch.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::file::MuxIno;
use crate::health::TierHealthState;
use crate::mglru::Mglru;
use crate::policy::{FileView, Heat, MigrationPlan, TierStatus};
use crate::types::{TierId, BLOCK};

/// Configuration of the autotier engine (one per [`crate::Mux`], in
/// [`crate::MuxOptions::autotier`]).
#[derive(Debug, Clone)]
pub struct AutotierConfig {
    /// Master switch; when `false`, [`crate::Mux::maintenance_tick`] is a
    /// no-op.
    pub enabled: bool,
    /// Epoch length in virtual ns: the planner runs at most once per
    /// epoch; ticks in between only drain the executor queue.
    pub epoch_ns: u64,
    /// Plan demotions off a tier above this utilization — just enough to
    /// bring it back to it — and never plan a move that would push the
    /// *destination* above it.
    pub high_watermark: f64,
    /// Upper bound on bytes planned per epoch.
    pub max_bytes_per_epoch: u64,
    /// Upper bound on plans emitted per epoch.
    pub max_plans_per_epoch: usize,
    /// Token-bucket refill rate for executed migration bytes, per virtual
    /// second.
    pub rate_bytes_per_sec: u64,
    /// Token-bucket capacity (burst size) in bytes.
    pub burst_bytes: u64,
    /// Heat score at or above which a file is promoted toward the fastest
    /// healthy tier.
    pub hot_threshold: f64,
    /// Heat score at or below which a file's replicas are retired: a cold
    /// file keeps no fast copy. Its primary is not moved for being cold —
    /// only the pressure pass demotes, coldest first, and only what does
    /// not fit below `high_watermark`.
    pub cold_threshold: f64,
    /// Multiplicative per-epoch decay of heat scores, in `(0, 1]`.
    pub decay: f64,
    /// Executor yields when the foreground read p95 since the previous
    /// tick exceeds this (0 disables the latency check).
    pub yield_read_p95_ns: u64,
    /// Generations in the recency ladder.
    pub recency_generations: u64,
    /// Master switch for mirror placement (MOST): when `true`, the planner
    /// emits [`EpochAction::Mirror`] / [`EpochAction::Unmirror`] actions so
    /// the hottest read-heavy inodes stay replicated on the two fastest
    /// healthy classes.
    pub mirror_enabled: bool,
    /// Upper bound on replica bytes *created* per epoch — the explicit
    /// fast-tier capacity budget for mirrors, separate from
    /// `max_bytes_per_epoch` (which paces primary moves).
    pub mirror_bytes_per_epoch: u64,
    /// Replicas may fill a destination up to this utilization — above the
    /// primary `high_watermark`, because retiring a mirror is an instant
    /// hole punch while evicting a primary needs a migration. Crossing it
    /// triggers unmirroring (watermark pressure).
    pub mirror_watermark: f64,
    /// Minimum read fraction (reads / weighted accesses) for an inode to
    /// qualify as read-heavy and be mirrored.
    pub mirror_read_frac: f64,
    /// Per-tick byte cap on lazy resync of replicas invalidated by writes
    /// (the slow copy catches up in the background; see
    /// [`crate::Mux::maintenance_tick`]).
    pub resync_bytes_per_tick: u64,
}

impl Default for AutotierConfig {
    fn default() -> Self {
        AutotierConfig {
            enabled: true,
            epoch_ns: 100_000_000, // 100 ms of virtual time
            high_watermark: 0.90,
            max_bytes_per_epoch: 32 << 20,
            max_plans_per_epoch: 128,
            rate_bytes_per_sec: 256 << 20,
            burst_bytes: 8 << 20,
            hot_threshold: 4.0,
            cold_threshold: 0.5,
            decay: 0.5,
            yield_read_p95_ns: 50_000_000, // well above a healthy HDD p95
            recency_generations: 4,
            mirror_enabled: true,
            mirror_bytes_per_epoch: 8 << 20,
            mirror_watermark: 0.97,
            mirror_read_frac: 0.75,
            resync_bytes_per_tick: 4 << 20,
        }
    }
}

// ---------------------------------------------------------------------
// Heat accounting
// ---------------------------------------------------------------------

/// The one per-inode access record: exponentially-decayed read/write
/// frequency, the last access time and the slow-read mark, kept beside an
/// [`Mglru`] recency ladder. Every planner reads it through
/// [`FileView::heat`]; no policy keeps access state of its own.
///
/// Each access adds `1 + 0.1·log2(blocks)` to the frequency, writes count
/// double; the score scales the frequency by the file's MGLRU generation
/// so a file with a large historical score that has gone quiet cools
/// faster than decay alone would manage. A record that [`HeatMap::decay`]
/// prunes as noise takes its last access time and its slow-read mark
/// with it.
#[derive(Debug)]
pub struct HeatMap {
    inner: Mutex<HeatInner>,
}

#[derive(Debug)]
struct HeatInner {
    records: HashMap<MuxIno, Record>,
    recency: Mglru<MuxIno>,
}

#[derive(Debug, Default)]
struct Record {
    freq: f64,
    /// The write-contributed share of `freq`, tracked separately so the
    /// mirror planner can tell read-heavy inodes (worth replicating) from
    /// write-heavy ones (whose mirrors would churn on every burst).
    write_freq: f64,
    /// Virtual ns of the last access.
    last_ns: u64,
    /// See [`Heat::slow_read`].
    slow_read: bool,
}

impl HeatMap {
    /// An empty heat map with `generations` recency generations.
    pub fn new(generations: u64) -> Self {
        HeatMap {
            inner: Mutex::new(HeatInner {
                records: HashMap::new(),
                // Age every 64 promotions so a sustained hot set opens new
                // generations and quiet files fall behind.
                recency: Mglru::new(generations, 64),
            }),
        }
    }

    /// Records one user access of `n_blocks` blocks. It carries no time:
    /// the file's last access time stays as it was.
    pub fn record(&self, ino: MuxIno, n_blocks: u64, is_write: bool) {
        self.inner.lock().touch(ino, n_blocks, is_write);
    }

    /// Records a batch of `(ino, n_blocks, is_write)` accesses made at
    /// `now`, in order, under one acquisition of the lock.
    pub fn record_all(&self, now: u64, accesses: impl IntoIterator<Item = (MuxIno, u64, bool)>) {
        let mut inner = self.inner.lock();
        for (ino, n_blocks, is_write) in accesses {
            inner.touch(ino, n_blocks, is_write).last_ns = now;
        }
    }

    /// Marks that a read of `ino` was served below the fastest tier. A file
    /// with no record (never accessed, or forgotten) stays unmarked.
    pub(crate) fn note_slow_read(&self, ino: MuxIno) {
        if let Some(r) = self.inner.lock().records.get_mut(&ino) {
            r.slow_read = true;
        }
    }

    /// Clears the slow-read mark of every file in `files` whose extents all
    /// sit on `fastest`: nothing of it is left to promote.
    pub(crate) fn clear_slow_reads(&self, fastest: TierId, files: &[FileView]) {
        let mut inner = self.inner.lock();
        for f in files {
            if f.extents.iter().all(|&(_, _, tid)| tid == fastest) {
                if let Some(r) = inner.records.get_mut(&f.ino) {
                    r.slow_read = false;
                }
            }
        }
    }

    /// Files the map holds state for — live files only, once unlinked
    /// ones are forgotten.
    pub fn tracked(&self) -> usize {
        let inner = self.inner.lock();
        inner.records.len().max(inner.recency.len())
    }

    /// Forgets a file (unlink).
    pub fn forget(&self, ino: MuxIno) {
        let mut inner = self.inner.lock();
        inner.records.remove(&ino);
        inner.recency.remove(&ino);
    }

    /// Applies one epoch of exponential decay and drops records that have
    /// cooled to noise.
    pub fn decay(&self, factor: f64) {
        let mut inner = self.inner.lock();
        let mut dead = Vec::new();
        for (&ino, r) in inner.records.iter_mut() {
            r.freq *= factor;
            r.write_freq *= factor;
            if r.freq < 1e-3 {
                dead.push(ino);
            }
        }
        for ino in dead {
            inner.records.remove(&ino);
            inner.recency.remove(&ino);
        }
    }

    /// The access record of one file.
    pub fn heat(&self, ino: MuxIno) -> Heat {
        self.inner.lock().heat(ino)
    }

    /// Fills every view's [`FileView::heat`] under one hold of the lock.
    pub(crate) fn fill(&self, files: &mut [FileView]) {
        let inner = self.inner.lock();
        for f in files {
            f.heat = inner.heat(f.ino);
        }
    }
}

impl HeatInner {
    fn touch(&mut self, ino: MuxIno, n_blocks: u64, is_write: bool) -> &mut Record {
        if !self.recency.touch(&ino) {
            self.recency.insert(ino);
        }
        let weight = if is_write { 2.0 } else { 1.0 };
        let add = weight * (1.0 + (n_blocks as f64).log2().max(0.0) * 0.1);
        let r = self.records.entry(ino).or_default();
        r.freq += add;
        if is_write {
            r.write_freq += add;
        }
        r
    }

    fn heat(&self, ino: MuxIno) -> Heat {
        let Some(r) = self.records.get(&ino) else {
            return Heat::default();
        };
        let read_frac = if r.freq <= 0.0 {
            0.0
        } else {
            ((r.freq - r.write_freq) / r.freq).clamp(0.0, 1.0)
        };
        Heat {
            score: self.score(ino, r.freq),
            read_frac,
            last_access_ns: r.last_ns,
            slow_read: r.slow_read,
        }
    }

    fn score(&self, ino: MuxIno, freq: f64) -> f64 {
        if freq == 0.0 {
            return 0.0;
        }
        // Recency scaling: youngest generation keeps the full frequency
        // score; each older generation halves it; untracked files (evicted
        // from the ladder) keep a floor so a huge score cannot hide.
        match self.recency.generation(&ino) {
            Some(g) => {
                let age = self.recency.max_generation().saturating_sub(g);
                freq * 0.5f64.powi(age.min(8) as i32)
            }
            None => freq * 0.25,
        }
    }
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// One unit of work the planner hands the executor. Mirrors and
/// unmirrors reuse [`MigrationPlan`] as a plain range descriptor: for a
/// `Mirror`, `to` is the tier that gains the replica; for an `Unmirror`,
/// `to` is the tier whose replica is retired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochAction {
    /// Move the primary copy; `promote` tags the direction (toward a
    /// faster device class).
    Migrate {
        /// The range and destination.
        plan: MigrationPlan,
        /// `true` for a promotion, `false` for a demotion.
        promote: bool,
    },
    /// Create a checksum-verified extra copy on `plan.to` (the primary
    /// stays where it is).
    Mirror(MigrationPlan),
    /// Retire the replica on `plan.to` (hole-punch; the primary is
    /// untouched).
    Unmirror(MigrationPlan),
}

impl EpochAction {
    /// The `(plan, promote)` pair if this is a primary move.
    pub fn migrate(&self) -> Option<(&MigrationPlan, bool)> {
        match self {
            EpochAction::Migrate { plan, promote } => Some((plan, *promote)),
            _ => None,
        }
    }

    /// The range descriptor if this creates a mirror.
    pub fn mirror(&self) -> Option<&MigrationPlan> {
        match self {
            EpochAction::Mirror(p) => Some(p),
            _ => None,
        }
    }

    /// The range descriptor if this retires a mirror.
    pub fn unmirror(&self) -> Option<&MigrationPlan> {
        match self {
            EpochAction::Unmirror(p) => Some(p),
            _ => None,
        }
    }
}

/// One epoch's output: ordered actions and the number of vetoed
/// candidate moves.
#[derive(Debug, Clone, Default)]
pub struct EpochPlan {
    /// Actions in execution order. An `Unmirror` covering a range always
    /// precedes any demotion `Migrate` of that range (property-tested).
    pub actions: Vec<EpochAction>,
    /// Candidate moves dropped: pinned file, no healthy under-watermark
    /// destination, or exhausted epoch budget.
    pub vetoes: u64,
}

/// Speed rank of a device class (0 = fastest).
fn class_rank(c: simdev::DeviceClass) -> usize {
    crate::mux::class_index(c)
}

struct PlanCtx<'a> {
    cfg: &'a AutotierConfig,
    /// Tiers sorted fastest class first.
    sorted: Vec<&'a TierStatus>,
    /// Projected free bytes per tier, accounting for already-planned moves.
    free: HashMap<TierId, u64>,
    budget_bytes: u64,
    /// Separate budget for replica bytes created this epoch.
    mirror_budget: u64,
    plans: Vec<EpochAction>,
    /// Replica ranges already scheduled for retirement this epoch, per
    /// `(ino, tier)`, so overlapping passes never retire twice.
    retired: HashMap<(MuxIno, TierId), Vec<(u64, u64)>>,
    vetoes: u64,
}

impl PlanCtx<'_> {
    fn rank(&self, id: TierId) -> Option<usize> {
        self.sorted.iter().position(|t| t.id == id)
    }

    fn projected_free(&self, t: &TierStatus) -> u64 {
        self.free.get(&t.id).copied().unwrap_or(t.free_bytes)
    }

    /// Bytes that can land on `t` before its projected utilization would
    /// exceed the high watermark. `None` for unhealthy destinations: the
    /// autotier never plans onto a tier that is Degraded, ReadOnly or
    /// Offline — unlike foreground writes, background moves have no
    /// urgency, so even a Degraded tier is off limits.
    fn headroom(&self, t: &TierStatus) -> Option<u64> {
        if t.health != TierHealthState::Healthy {
            return None;
        }
        let free = self.projected_free(t);
        let reserve = ((1.0 - self.cfg.high_watermark) * t.total_bytes as f64) as u64;
        Some(free.saturating_sub(reserve))
    }

    /// Bytes of *replica* data that can land on `t`: replicas are allowed
    /// into the band between the high watermark and the mirror watermark,
    /// because retiring one is an instant hole punch rather than a
    /// migration. Same health rule as [`PlanCtx::headroom`].
    fn mirror_headroom(&self, t: &TierStatus) -> Option<u64> {
        if t.health != TierHealthState::Healthy {
            return None;
        }
        let free = self.projected_free(t);
        let reserve = ((1.0 - self.cfg.mirror_watermark) * t.total_bytes as f64) as u64;
        Some(free.saturating_sub(reserve))
    }

    /// Emits a plan for up to `n` blocks of `(ino, block..)` into `to`,
    /// clipped to the epoch budget and the destination headroom. Returns
    /// the blocks actually planned.
    fn emit(&mut self, ino: MuxIno, block: u64, n: u64, to: &TierStatus, promote: bool) -> u64 {
        if self.plans.len() >= self.cfg.max_plans_per_epoch || self.budget_bytes < BLOCK {
            self.vetoes += 1;
            return 0;
        }
        let Some(headroom) = self.headroom(to) else {
            self.vetoes += 1;
            return 0;
        };
        let max_blocks = (headroom / BLOCK).min(self.budget_bytes / BLOCK).min(n);
        if max_blocks == 0 {
            self.vetoes += 1;
            return 0;
        }
        let bytes = max_blocks * BLOCK;
        self.budget_bytes -= bytes;
        *self.free.entry(to.id).or_insert(to.free_bytes) -= bytes;
        self.plans.push(EpochAction::Migrate {
            plan: MigrationPlan {
                ino,
                block,
                n_blocks: max_blocks,
                to: to.id,
            },
            promote,
        });
        max_blocks
    }

    /// Emits a mirror of up to `n` blocks onto `to`, clipped to the mirror
    /// byte budget and the mirror-watermark headroom. Returns the blocks
    /// actually planned.
    fn emit_mirror(&mut self, ino: MuxIno, block: u64, n: u64, to: &TierStatus) -> u64 {
        if self.plans.len() >= self.cfg.max_plans_per_epoch || self.mirror_budget < BLOCK {
            self.vetoes += 1;
            return 0;
        }
        let Some(headroom) = self.mirror_headroom(to) else {
            self.vetoes += 1;
            return 0;
        };
        let max_blocks = (headroom / BLOCK).min(self.mirror_budget / BLOCK).min(n);
        if max_blocks == 0 {
            self.vetoes += 1;
            return 0;
        }
        let bytes = max_blocks * BLOCK;
        self.mirror_budget -= bytes;
        *self.free.entry(to.id).or_insert(to.free_bytes) -= bytes;
        self.plans.push(EpochAction::Mirror(MigrationPlan {
            ino,
            block,
            n_blocks: max_blocks,
            to: to.id,
        }));
        max_blocks
    }

    /// Emits the retirement of the replica range `(block, n)` on `tier`,
    /// minus any part already retired this epoch. Credits the freed bytes
    /// back to the tier's projection. Returns the blocks retired.
    fn emit_unmirror(&mut self, ino: MuxIno, block: u64, n: u64, tier: TierId) -> u64 {
        let done = self.retired.get(&(ino, tier)).cloned().unwrap_or_default();
        let fresh = crate::file::subtract_ranges(block, n, &done);
        let mut retired = 0;
        for (s, l) in fresh {
            self.retired.entry((ino, tier)).or_default().push((s, l));
            self.plans.push(EpochAction::Unmirror(MigrationPlan {
                ino,
                block: s,
                n_blocks: l,
                to: tier,
            }));
            retired += l;
        }
        if retired > 0 {
            if let Some(t) = self.sorted.iter().find(|t| t.id == tier) {
                let base = t.free_bytes;
                let e = self.free.entry(tier).or_insert(base);
                *e = e.saturating_add(retired * BLOCK);
            }
        }
        retired
    }

    /// Retires every replica of `f` overlapping `[block, block+n)` — the
    /// unmirror-before-demote rule: a range never demotes while a fast
    /// copy of it still occupies mirror capacity.
    fn retire_overlapping(&mut self, f: &FileView, block: u64, n: u64) {
        for &(rs, rl, rt) in &f.replicas {
            let a = rs.max(block);
            let b = (rs + rl).min(block + n);
            if a < b {
                self.emit_unmirror(f.ino, a, b - a, rt);
            }
        }
    }
}

/// Plans one epoch of promotions, demotions, mirror placements and
/// mirror retirements. Pure: everything the decision depends on is in
/// the arguments.
///
/// Guarantees (property-tested in `tests/autotier_prop.rs`):
///
/// * no plan touches a file for which `pinned` returns `true`;
/// * every migrate/mirror destination is [`TierHealthState::Healthy`];
///   migrations stay at or below the high watermark even after all
///   planned bytes land, mirrors at or below the mirror watermark;
/// * migrated bytes never exceed `cfg.max_bytes_per_epoch`, mirrored
///   bytes never exceed `cfg.mirror_bytes_per_epoch`, and the number of
///   actions never exceeds `cfg.max_plans_per_epoch` (plus the unmirrors
///   that demotions force ahead of themselves);
/// * an `Unmirror` covering a demoted range precedes its demotion.
pub fn plan_epoch(
    cfg: &AutotierConfig,
    tiers: &[TierStatus],
    files: &[FileView],
    pinned: &dyn Fn(MuxIno) -> bool,
) -> EpochPlan {
    let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
    sorted.sort_by_key(|t| (class_rank(t.class), t.id));
    if sorted.len() < 2 {
        return EpochPlan::default();
    }
    let read_heavy = |f: &FileView| cfg.mirror_enabled && f.heat.read_frac >= cfg.mirror_read_frac;
    let mut cx = PlanCtx {
        cfg,
        free: HashMap::new(),
        budget_bytes: cfg.max_bytes_per_epoch,
        mirror_budget: if cfg.mirror_enabled {
            cfg.mirror_bytes_per_epoch
        } else {
            0
        },
        plans: Vec::new(),
        retired: HashMap::new(),
        vetoes: 0,
        sorted,
    };

    // --- Promotions: hottest files first, toward the fastest healthy
    // tier with watermark headroom. Read-heavy files keep their primary
    // off the fastest class when mirroring is on — the mirror pass gives
    // them fast-tier residency as an evictable replica instead, so the
    // scarcest capacity is never pinned down by a copy that a fence or a
    // watermark squeeze would have to migrate away. ---
    let mut hot: Vec<&FileView> = files
        .iter()
        .filter(|f| f.heat.score >= cfg.hot_threshold)
        .collect();
    hot.sort_by(|a, b| {
        (b.heat.score)
            .partial_cmp(&a.heat.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for f in &hot {
        if pinned(f.ino) {
            cx.vetoes += 1;
            continue;
        }
        let fastest_allowed = if read_heavy(f) { 1 } else { 0 };
        for &(block, n, tid) in &f.extents {
            let Some(cur_rank) = cx.rank(tid) else {
                continue;
            };
            // Fastest allowed healthy destination strictly above the
            // current tier.
            let dest = (fastest_allowed..cur_rank)
                .map(|i| cx.sorted[i])
                .find(|t| cx.headroom(t).map(|h| h >= BLOCK).unwrap_or(false));
            match dest {
                Some(d) => {
                    let d = *cx.sorted.iter().find(|t| t.id == d.id).unwrap();
                    cx.emit(f.ino, block, n, d, true);
                }
                None if cur_rank > fastest_allowed => cx.vetoes += 1,
                None => {}
            }
        }
    }

    // --- Pressure demotions: a tier whose *primary* bytes exceed the
    // high watermark sheds the excess, coldest residents first, to the
    // next slower healthy tier — the paper's §3.1 eviction "if no space
    // left on faster devices", and the only pass that moves a primary
    // down. Resident mirrors yield first (an instant punch beats a
    // migration); replica bytes are excluded from the trigger so a tier
    // legitimately filled to the mirror watermark with evictable copies
    // is not pressured. Past even the mirror watermark, replicas alone
    // are shed back to it. ---
    for i in 0..cx.sorted.len() {
        let t = cx.sorted[i];
        let used = t.total_bytes.saturating_sub(cx.projected_free(t));
        let replica_bytes: u64 = files
            .iter()
            .flat_map(|f| f.replicas.iter())
            .filter(|&&(_, _, rt)| rt == t.id)
            .map(|&(_, rl, _)| rl * BLOCK)
            .sum();
        let over =
            |mark: f64, bytes: u64| bytes.saturating_sub((mark * t.total_bytes as f64) as u64);
        let excess = over(cfg.high_watermark, used.saturating_sub(replica_bytes));
        let mut need_bytes = if excess > 0 {
            excess
        } else {
            over(cfg.mirror_watermark, used)
        };
        if need_bytes == 0 {
            continue;
        }
        let mut reps: Vec<(f64, MuxIno, u64, u64)> = files
            .iter()
            .flat_map(|f| {
                f.replicas
                    .iter()
                    .filter(|&&(_, _, rt)| rt == t.id)
                    .map(move |&(rs, rl, _)| (f.heat.score, f.ino, rs, rl))
            })
            .collect();
        reps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, ino, rs, rl) in reps {
            if need_bytes == 0 {
                break;
            }
            let got = cx.emit_unmirror(ino, rs, rl, t.id);
            need_bytes = need_bytes.saturating_sub(got * BLOCK);
        }
        if excess == 0 {
            continue;
        }
        let mut residents: Vec<&FileView> = files
            .iter()
            .filter(|f| f.extents.iter().any(|&(_, _, tid)| tid == t.id))
            .collect();
        residents.sort_by(|a, b| {
            (a.heat.score)
                .partial_cmp(&b.heat.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for f in residents {
            if need_bytes == 0 {
                break;
            }
            if pinned(f.ino) {
                cx.vetoes += 1;
                continue;
            }
            for &(block, n, tid) in &f.extents {
                if tid != t.id || need_bytes == 0 {
                    continue;
                }
                let dest = (i + 1..cx.sorted.len())
                    .map(|j| cx.sorted[j])
                    .find(|d| cx.headroom(d).map(|h| h >= BLOCK).unwrap_or(false));
                let Some(d) = dest else {
                    cx.vetoes += 1;
                    continue;
                };
                cx.retire_overlapping(f, block, n);
                let moved = cx.emit(f.ino, block, n, d, false);
                need_bytes = need_bytes.saturating_sub(moved * BLOCK);
                if moved == 0 {
                    break;
                }
            }
        }
    }

    // --- Replica retirement: a file whose heat decayed to the floor
    // keeps no fast copy. Its primary stays where it is — cold data moves
    // down only when the pressure pass needs its space — and since this
    // is not a primary move, pins do not apply. ---
    for f in files {
        if f.heat.score <= cfg.cold_threshold {
            for &(rb, rn, rt) in &f.replicas {
                cx.emit_unmirror(f.ino, rb, rn, rt);
            }
        }
    }

    // --- Mirror placement: the hottest read-heavy files gain a replica
    // on the fastest healthy tier above their primary, under the mirror
    // byte budget and the mirror watermark (MOST: tiering and mirroring
    // co-designed — hot data resident on PM *and* SSD, reads served from
    // the fastest copy, the slow copy keeping durability under a fence).
    // ---
    if cfg.mirror_enabled {
        for f in &hot {
            if !read_heavy(f) {
                continue;
            }
            if pinned(f.ino) {
                cx.vetoes += 1;
                continue;
            }
            for &(block, n, tid) in &f.extents {
                let Some(cur_rank) = cx.rank(tid) else {
                    continue;
                };
                if cur_rank == 0 {
                    continue; // already primary on the fastest tier
                }
                let dest = (0..cur_rank)
                    .map(|i| cx.sorted[i])
                    .find(|t| cx.mirror_headroom(t).map(|h| h >= BLOCK).unwrap_or(false));
                let Some(d) = dest else {
                    cx.vetoes += 1;
                    continue;
                };
                // One extra copy at most: blocks already replicated
                // anywhere are skipped.
                let covered: Vec<(u64, u64)> =
                    f.replicas.iter().map(|&(rs, rl, _)| (rs, rl)).collect();
                for (s, l) in crate::file::subtract_ranges(block, n, &covered) {
                    cx.emit_mirror(f.ino, s, l, d);
                }
            }
        }
    }

    EpochPlan {
        actions: cx.plans,
        vetoes: cx.vetoes,
    }
}

// ---------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------

// The bucket now lives at the scheduler seam (it also paces per-tenant
// background streams there); re-exported here for its original users.
pub use crate::sched::TokenBucket;

// ---------------------------------------------------------------------
// Engine state (owned by Mux)
// ---------------------------------------------------------------------

/// What one [`crate::Mux::maintenance_tick`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochReport {
    /// Epoch counter after this tick.
    pub epoch: u64,
    /// Whether the planner ran (the epoch interval had elapsed).
    pub planned_epoch: bool,
    /// Plans the planner emitted this tick.
    pub planned: usize,
    /// Plans the executor completed this tick.
    pub executed: usize,
    /// Blocks the executor moved this tick.
    pub blocks_moved: u64,
    /// Bytes deferred by the rate limiter this tick.
    pub throttled_bytes: u64,
    /// Candidate moves the planner vetoed this tick.
    pub vetoes: u64,
    /// Plans that failed to execute (and were dropped).
    pub failed: usize,
    /// Whether the executor yielded to foreground I/O.
    pub yielded: bool,
    /// Plans still queued after this tick.
    pub queued: usize,
    /// Blocks the background scrubber verified this tick (see
    /// [`crate::integrity`]).
    pub scrubbed: u64,
    /// Replica blocks the executor created this tick.
    pub mirrored: u64,
    /// Replica blocks the executor retired this tick.
    pub unmirrored: u64,
    /// Replica blocks lazily resynced after write invalidation this tick.
    pub resynced: u64,
}

/// Mutable engine state behind one lock; [`crate::Mux`] owns exactly one.
#[derive(Debug)]
pub struct Engine {
    /// The shared heat source.
    pub heat: HeatMap,
    pub(crate) state: Mutex<EngineState>,
}

#[derive(Debug)]
pub(crate) struct EngineState {
    pub(crate) epoch: u64,
    pub(crate) last_plan_ns: Option<u64>,
    /// Blocks moved during the current epoch (reported at epoch end).
    pub(crate) epoch_moved: u64,
    pub(crate) queue: std::collections::VecDeque<EpochAction>,
    pub(crate) bucket: TokenBucket,
    /// Per-tier foreground-read histogram snapshots at the previous tick
    /// (for recent-p95 deltas).
    pub(crate) last_read_hist: Vec<Option<crate::hist::HistSnapshot>>,
}

impl Engine {
    /// A fresh engine for `cfg`.
    pub fn new(cfg: &AutotierConfig) -> Self {
        Engine {
            heat: HeatMap::new(cfg.recency_generations),
            state: Mutex::new(EngineState {
                epoch: 0,
                last_plan_ns: None,
                epoch_moved: 0,
                queue: std::collections::VecDeque::new(),
                bucket: TokenBucket::new(cfg.rate_bytes_per_sec, cfg.burst_bytes),
                last_read_hist: Vec::new(),
            }),
        }
    }

    /// Plans waiting for the executor.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Epochs started so far.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::DeviceClass;

    fn tier(id: TierId, class: DeviceClass, free: u64, total: u64) -> TierStatus {
        TierStatus {
            id,
            name: format!("t{id}"),
            class,
            free_bytes: free,
            total_bytes: total,
            health: TierHealthState::Healthy,
        }
    }

    fn tiers() -> Vec<TierStatus> {
        vec![
            tier(0, DeviceClass::Pmem, 800 * BLOCK, 1000 * BLOCK),
            tier(1, DeviceClass::Ssd, 9000 * BLOCK, 10_000 * BLOCK),
            tier(2, DeviceClass::Hdd, 100_000 * BLOCK, 100_000 * BLOCK),
        ]
    }

    /// A never-accessed file: heat score 0, read fraction 0.
    fn fv(ino: MuxIno, extents: Vec<(u64, u64, TierId)>) -> FileView {
        FileView {
            ino,
            extents,
            ..FileView::default()
        }
    }

    /// A file with heat `score` and no read/write split (read fraction 0:
    /// never read-heavy, so never mirrored).
    fn scored(ino: MuxIno, extents: Vec<(u64, u64, TierId)>, score: f64) -> FileView {
        let mut f = fv(ino, extents);
        f.heat.score = score;
        f
    }

    /// A hot file whose accesses were all reads.
    fn read_hot(ino: MuxIno, extents: Vec<(u64, u64, TierId)>) -> FileView {
        let mut f = scored(ino, extents, 10.0);
        f.heat.read_frac = 1.0;
        f
    }

    #[test]
    fn heat_records_decays_and_forgets() {
        let h = HeatMap::new(4);
        h.record(1, 8, false);
        h.record(1, 8, false);
        let hot = h.heat(1).score;
        assert!(hot > 2.0, "two 8-block reads score > 2, got {hot}");
        h.decay(0.5);
        assert!(h.heat(1).score < hot);
        // Decay to noise drops the record entirely, with its last access
        // time and its slow-read mark.
        h.record_all(42, [(1, 8, false)]);
        h.note_slow_read(1);
        assert_eq!((h.heat(1).last_access_ns, h.heat(1).slow_read), (42, true));
        for _ in 0..32 {
            h.decay(0.5);
        }
        assert_eq!(h.heat(1), Heat::default());
        assert_eq!(h.tracked(), 0);
    }

    #[test]
    fn writes_heat_twice_as_fast_as_reads() {
        let h = HeatMap::new(4);
        h.record(1, 1, false);
        h.record(2, 1, true);
        assert!(h.heat(2).score > h.heat(1).score);
        assert_eq!(h.heat(1).read_frac, 1.0);
        assert_eq!(h.heat(2).read_frac, 0.0);
    }

    #[test]
    fn planner_promotes_hot_files_upward() {
        let cfg = AutotierConfig::default();
        let t = tiers();
        let files = vec![scored(7, vec![(0, 16, 2)], 10.0)];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        assert_eq!(out.actions.len(), 1);
        let (p, promote) = out.actions[0].migrate().expect("a primary move");
        assert!(promote);
        assert_eq!(p.ino, 7);
        assert_eq!(p.to, 0, "fastest healthy tier wins");
    }

    #[test]
    fn planner_skips_pinned_files() {
        let cfg = AutotierConfig::default();
        let t = tiers();
        let files = vec![scored(7, vec![(0, 16, 2)], 10.0)];
        let out = plan_epoch(&cfg, &t, &files, &|ino| ino == 7);
        assert!(out.actions.is_empty());
        assert!(out.vetoes >= 1);
    }

    #[test]
    fn planner_vetoes_unhealthy_destinations() {
        let cfg = AutotierConfig::default();
        let mut t = tiers();
        t[0].health = TierHealthState::Degraded; // even Degraded is off limits
        let files = vec![scored(7, vec![(0, 16, 2)], 10.0)];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        // The promotion falls through to the SSD tier (still healthy).
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.actions[0].migrate().unwrap().0.to, 1);
        // With both fast tiers sick there is nowhere to go.
        t[1].health = TierHealthState::ReadOnly;
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        assert!(out.actions.is_empty());
        assert!(out.vetoes >= 1);
    }

    #[test]
    fn planner_respects_destination_watermark() {
        let cfg = AutotierConfig::default();
        let mut t = tiers();
        // PM has 5% free: already above the 90% high watermark.
        t[0].free_bytes = 50 * BLOCK;
        // SSD at exactly the watermark: 10% free.
        t[1].free_bytes = 1000 * BLOCK;
        let files = vec![scored(7, vec![(0, 16, 2)], 10.0)];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        assert!(
            out.actions.is_empty(),
            "no destination has watermark headroom: {:?}",
            out.actions
        );
    }

    #[test]
    fn planner_demotes_under_pressure_coldest_first() {
        let cfg = AutotierConfig::default();
        let mut t = tiers();
        t[0].free_bytes = 20 * BLOCK; // PM 98% full
        let files = vec![
            scored(1, vec![(0, 64, 0)], 0.6), // cool-ish: above the cold floor, below hot
            scored(2, vec![(0, 64, 0)], 20.0), // hot, already on the fastest tier
        ];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        let demotions: Vec<_> = out
            .actions
            .iter()
            .filter_map(|a| a.migrate())
            .filter(|&(_, p)| !p)
            .collect();
        assert!(!demotions.is_empty());
        assert_eq!(demotions[0].0.ino, 1, "coldest resident demotes first");
        assert_eq!(demotions[0].0.to, 1, "next slower tier");
    }

    #[test]
    fn planner_leaves_cold_files_with_room_in_place() {
        let cfg = AutotierConfig::default();
        let t = tiers(); // PM 20 % used: far below the high watermark
        let mut f = fv(3, vec![(0, 8, 0)]);
        f.replicas = vec![(0, 8, 1)];
        let out = plan_epoch(&cfg, &t, &[f], &|_| false);
        assert!(
            out.actions.iter().all(|a| a.migrate().is_none()),
            "a cold file on a tier with room keeps its primary: {:?}",
            out.actions
        );
        let unm: Vec<_> = out.actions.iter().filter_map(|a| a.unmirror()).collect();
        assert_eq!(unm.len(), 1, "only its replica retires: {:?}", out.actions);
        assert_eq!(
            (unm[0].ino, unm[0].block, unm[0].n_blocks, unm[0].to),
            (3, 0, 8, 1)
        );
    }

    #[test]
    fn pressure_sheds_only_the_excess() {
        let cfg = AutotierConfig::default();
        let mut t = tiers();
        t[0].free_bytes = 50 * BLOCK; // PM 95 % full: 50 blocks over 90 %
        let extent = 16;
        let files: Vec<FileView> = (0..40)
            .map(|i| scored(i, vec![(0, extent, 0)], 1.0 + i as f64 * 0.01)) // cool, never hot
            .collect();
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        let demoted: u64 = out
            .actions
            .iter()
            .filter_map(|a| a.migrate())
            .map(|(p, promote)| {
                assert!(!promote);
                assert_eq!(p.to, 1, "next slower tier");
                p.n_blocks
            })
            .sum();
        let excess = 50;
        assert!(demoted >= excess, "{demoted} blocks shed of {excess} over");
        assert!(
            demoted < excess + extent,
            "{demoted} blocks shed: more than the {excess} over, rounded up to one extent"
        );
    }

    /// Applies an epoch's primary moves to block-level placements.
    fn apply(placement: &mut HashMap<MuxIno, Vec<TierId>>, plan: &EpochPlan) {
        for (p, _) in plan.actions.iter().filter_map(|a| a.migrate()) {
            let blocks = placement.get_mut(&p.ino).unwrap();
            for b in &mut blocks[p.block as usize..(p.block + p.n_blocks) as usize] {
                *b = p.to;
            }
        }
    }

    /// Run-length extents of a block-level placement.
    fn extents_of(blocks: &[TierId]) -> Vec<(u64, u64, TierId)> {
        let mut out: Vec<(u64, u64, TierId)> = Vec::new();
        for (b, &tier) in blocks.iter().enumerate() {
            match out.last_mut() {
                Some(e) if e.2 == tier && e.0 + e.1 == b as u64 => e.1 += 1,
                _ => out.push((b as u64, 1, tier)),
            }
        }
        out
    }

    #[test]
    fn the_planners_own_promotions_never_trip_the_pressure_pass() {
        let cfg = AutotierConfig::default();
        // A native file system that spends 64 bytes of metadata per data
        // block: free space shrinks by more than the planner projects.
        let overhead = 64;
        let (pm, ssd) = (1000 * BLOCK, 100_000 * BLOCK);
        // Forty hot files of 32 blocks on the SSD: 1280 blocks, more than
        // the PM tier holds below its watermark.
        let mut placement: HashMap<MuxIno, Vec<TierId>> =
            (0..40).map(|i| (i, vec![1; 32])).collect();
        let mut demotions = Vec::new();
        for epoch in 0..12 {
            let used = |tier: TierId| {
                let n = placement.values().flatten().filter(|&&t| t == tier).count() as u64;
                n * (BLOCK + overhead)
            };
            let t = vec![
                tier(0, DeviceClass::Pmem, pm.saturating_sub(used(0)), pm),
                tier(1, DeviceClass::Ssd, ssd - used(1), ssd),
            ];
            let mut files: Vec<FileView> = placement
                .iter()
                .map(|(&ino, blocks)| scored(ino, extents_of(blocks), 10.0 + ino as f64))
                .collect();
            files.sort_by_key(|f| f.ino);
            let out = plan_epoch(&cfg, &t, &files, &|_| false);
            let demoted: u64 = out
                .actions
                .iter()
                .filter_map(|a| a.migrate())
                .filter(|&(_, promote)| !promote)
                .map(|(p, _)| p.n_blocks)
                .sum();
            demotions.push((epoch, demoted));
            apply(&mut placement, &out);
        }
        // The first fill overshoots by the overhead on every block it
        // promoted, and one demotion sheds that; from then on the tier
        // holds still.
        assert!(
            demotions[3..].iter().all(|&(_, d)| d == 0),
            "demoted blocks per epoch: {demotions:?}"
        );
    }

    #[test]
    fn planner_honours_byte_budget() {
        let cfg = AutotierConfig {
            max_bytes_per_epoch: 10 * BLOCK,
            ..AutotierConfig::default()
        };
        let t = tiers();
        let files = vec![scored(7, vec![(0, 64, 2)], 10.0)];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        let total: u64 = out
            .actions
            .iter()
            .filter_map(|a| a.migrate())
            .map(|(p, _)| p.n_blocks)
            .sum();
        assert!(total <= 10, "planned {total} blocks over a 10-block budget");
    }

    #[test]
    fn planner_mirrors_hot_read_heavy_files_to_the_fastest_tier() {
        let cfg = AutotierConfig::default();
        let t = tiers();
        // Hot read-heavy file primary on SSD: the planner must not move
        // the primary to PM (it is read-heavy) but must mirror it there.
        let files = vec![read_hot(7, vec![(0, 16, 1)])];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        let mirrors: Vec<_> = out.actions.iter().filter_map(|a| a.mirror()).collect();
        assert_eq!(mirrors.len(), 1, "expected one mirror: {:?}", out.actions);
        assert_eq!((mirrors[0].ino, mirrors[0].to), (7, 0));
        assert_eq!(mirrors[0].n_blocks, 16);
        assert!(
            out.actions.iter().all(|a| a.migrate().is_none()),
            "read-heavy primary must stay put: {:?}",
            out.actions
        );
    }

    #[test]
    fn planner_never_mirrors_already_replicated_blocks() {
        let cfg = AutotierConfig::default();
        let t = tiers();
        let mut f = read_hot(7, vec![(0, 16, 1)]);
        f.replicas = vec![(4, 4, 0)]; // blocks 4..8 already mirrored on PM
        let out = plan_epoch(&cfg, &t, &[f], &|_| false);
        let mirrored: Vec<(u64, u64)> = out
            .actions
            .iter()
            .filter_map(|a| a.mirror())
            .map(|p| (p.block, p.n_blocks))
            .collect();
        assert_eq!(mirrored, vec![(0, 4), (8, 8)], "gap respected");
    }

    #[test]
    fn planner_honours_mirror_budget_and_watermark() {
        let cfg = AutotierConfig {
            mirror_bytes_per_epoch: 5 * BLOCK,
            ..AutotierConfig::default()
        };
        let t = tiers();
        let files = vec![read_hot(7, vec![(0, 64, 1)])];
        let out = plan_epoch(&cfg, &t, &files, &|_| false);
        let total: u64 = out
            .actions
            .iter()
            .filter_map(|a| a.mirror())
            .map(|p| p.n_blocks)
            .sum();
        assert!(total <= 5, "mirrored {total} blocks over a 5-block budget");
    }

    #[test]
    fn planner_retires_mirrors_of_cold_files() {
        let cfg = AutotierConfig::default();
        let t = tiers();
        let mut f = fv(3, vec![(0, 8, 2)]);
        f.replicas = vec![(0, 8, 0)];
        let out = plan_epoch(&cfg, &t, &[f], &|_| false);
        let unm: Vec<_> = out.actions.iter().filter_map(|a| a.unmirror()).collect();
        assert_eq!(unm.len(), 1);
        assert_eq!(
            (unm[0].ino, unm[0].block, unm[0].n_blocks, unm[0].to),
            (3, 0, 8, 0)
        );
    }

    #[test]
    fn planner_unmirrors_before_demoting() {
        let cfg = AutotierConfig::default();
        let mut t = tiers();
        t[0].free_bytes = 20 * BLOCK; // PM 98 % full
                                      // Cold file primary on the pressured PM with an SSD replica: the
                                      // demotion of the primary must be preceded by the replica's
                                      // retirement.
        let mut f = fv(3, vec![(0, 8, 0)]);
        f.replicas = vec![(0, 8, 1)];
        let out = plan_epoch(&cfg, &t, &[f], &|_| false);
        let unm_at = out
            .actions
            .iter()
            .position(|a| a.unmirror().is_some())
            .expect("an unmirror");
        let dem_at = out
            .actions
            .iter()
            .position(|a| matches!(a.migrate(), Some((_, false))))
            .expect("a demotion");
        assert!(
            unm_at < dem_at,
            "unmirror precedes demote: {:?}",
            out.actions
        );
    }

    #[test]
    fn token_bucket_paces_bytes() {
        let mut b = TokenBucket::new(1_000_000, 1000); // 1 MB/s, 1000-byte burst
        assert!(b.try_take(1000, 0));
        assert!(!b.try_take(1, 0), "bucket empty");
        // 500 µs refills 500 bytes.
        assert!(!b.try_take(1000, 500_000));
        assert!(b.try_take(500, 500_000));
        // Never exceeds capacity.
        assert_eq!(b.available(10_000_000_000), 1000);
    }

    #[test]
    fn oversized_requests_pass_on_a_full_bucket() {
        let mut b = TokenBucket::new(1000, 100);
        assert!(
            b.try_take(10_000, 0),
            "full bucket admits oversized request"
        );
        assert!(!b.try_take(10_000, 0));
    }
}
