//! The OCC Synchronizer (paper §2.4) and the one range mover built on it.
//!
//! Data movement between file systems cannot use a shared lock — "no
//! universal lock among them exists" — so Mux uses optimistic concurrency
//! control: "data movement does not change the content of the data; so, a
//! data movement process is considered successful if the content of the
//! data remains unchanged throughout the process."
//!
//! Every byte that changes tiers — a migration, a replica copy, an
//! evacuation, a lazy resync — goes through `Mux::relocate`, whose stages
//! each exist once:
//!
//! 1. **Admit** — the destination exists, is not draining and accepts
//!    writes; set the file's migration flag (one mover per file).
//! 2. **Journal begin** — before any byte lands on the destination.
//! 3. **Copy rounds** — read the range from the source file system(s) in
//!    scheduler-ordered chunks, write it into the destination's sparse
//!    file at the same offsets, fsync. Writers append to the file's dirty
//!    window, which stays open from the first round to the swing.
//! 4. **Validate** — take the file's `io_lock` exclusively for an instant
//!    (this only waits out writes already in flight): if a dirty range
//!    intersects the range, retry just the conflicting blocks, up to
//!    `migration_retries` times; then hold `io_lock` exclusively across
//!    one last round, so the process "will be completed in a finite amount
//!    of time".
//! 5. **Swing** (`Mux::swing`) — the copied blocks become visible
//!    atomically: the Block Lookup Table swings (`Flip::Move`) or the
//!    replica map gains an entry (`Flip::Replicate`).
//! 6. **Journal commit**, then **reclaim** the moved blocks' source copies.
//!
//! `Writers` picks whether rounds start optimistic (`Writers::Race`)
//! or already exclusive (`Writers::Exclude`). A device fault in any
//! round unwinds through the same stages: what earlier rounds validated is
//! swung, journaled and reclaimed; the rest of what the run wrote to the
//! destination is punched.

use std::sync::atomic::{AtomicU64, Ordering};

use tvfs::{VfsError, VfsResult};

use crate::autotier::{EpochAction, EpochReport, TokenBucket};
use crate::file::{clip_ranges, ranges_intersect, subtract_ranges, MuxFile, MuxIno};
use crate::hist::OpKind;
use crate::mux::Mux;
use crate::persist::IntentKind;
use crate::policy::{FileView, MigrationPlan};
use crate::sched::IoRequest;
use crate::stats::MuxStats;
use crate::trace::TraceEventKind;
use crate::types::{TierId, BLOCK};

/// Counters for the OCC synchronizer.
#[derive(Debug, Default)]
pub struct OccStats {
    /// Migration attempts started.
    pub migrations: AtomicU64,
    /// Copy rounds that found conflicting writes at validation.
    pub conflicts: AtomicU64,
    /// Optimistic retry rounds executed.
    pub retries: AtomicU64,
    /// Migrations that fell back to lock-based copying.
    pub fallbacks: AtomicU64,
    /// Blocks whose ownership moved.
    pub blocks_moved: AtomicU64,
    /// Virtual nanoseconds the per-file `io_lock` was held *exclusively*
    /// by migration code — the §2.4 "critical path" that OCC minimizes
    /// (user writes stall only while this lock is held).
    pub lock_hold_vns: AtomicU64,
    /// Migrations aborted by a device fault (cleanly: source authoritative
    /// for uncommitted blocks, destination debris punched).
    pub aborts: AtomicU64,
    /// Aborts that still committed the blocks validated before the fault.
    pub partial_commits: AtomicU64,
}

impl OccStats {
    fn bump(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// `(migrations, conflicts, retries, fallbacks, blocks_moved)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.migrations.load(Ordering::Relaxed),
            self.conflicts.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
            self.blocks_moved.load(Ordering::Relaxed),
        )
    }

    /// Virtual ns migrations spent holding the per-file write lock.
    pub fn lock_hold_vns(&self) -> u64 {
        self.lock_hold_vns.load(Ordering::Relaxed)
    }

    /// Fault-aborted migrations.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Aborts that partially committed validated blocks.
    pub fn partial_commits(&self) -> u64 {
        self.partial_commits.load(Ordering::Relaxed)
    }
}

/// How a migration concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Nothing needed to move (already on the destination / holes only).
    NothingToDo,
    /// Committed optimistically after `retries` conflict-retry rounds.
    Committed {
        /// Conflict-retry rounds that ran before the commit.
        retries: u32,
    },
    /// Committed, but only after falling back to lock-based copying.
    LockFallback,
}

/// What [`Mux::relocate`] flips once the copy is durable and validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flip {
    /// Swing the Block Lookup Table: `to` becomes the owner and the
    /// source copies are reclaimed (migration, §2.4).
    Move,
    /// Record a replica: the owner keeps serving writes and `to` holds a
    /// CRC-verified second copy (replication, §4). The source check has no
    /// defence against a racing writer, so this pairs with
    /// [`Writers::Exclude`].
    Replicate,
}

impl Flip {
    /// The begin and commit records that bracket this flip in the journal.
    fn journal_kinds(self) -> (IntentKind, IntentKind) {
        match self {
            Flip::Move => (IntentKind::MoveBegin, IntentKind::MoveCommit),
            Flip::Replicate => (IntentKind::MirrorBegin, IntentKind::MirrorCommit),
        }
    }
}

/// How [`Mux::relocate`] treats writers that race the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Writers {
    /// Optimistic: copy unlocked, validate, retry the conflicted blocks;
    /// after `migration_retries` conflicted rounds the next one excludes.
    Race,
    /// Pessimistic: hold the file's `io_lock` exclusively from the first
    /// copied byte — the OCC ablation's baseline and the mirror copy's mode
    /// (a paced background job, not a hot path).
    Exclude,
}

/// What becomes of the bytes behind replica entries
/// [`Mux::retire_replicas`] drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retire {
    /// Reclaim them, sparing blocks the Block Lookup Table owns there.
    Punch,
    /// Leave them and owe a tier a fresh copy of the range — the given
    /// one, or each replica's own: the maintenance tick re-mirrors what is
    /// parked in `resync_pending`.
    OweResync(Option<TierId>),
}

/// Drops replica entries of `[block, block+n)` recorded on `to`: the
/// caller just swung (or replayed) the range's Block Lookup Table
/// ownership onto `to`, so any replica there is now the primary's own
/// tier shadowing itself. The bytes stay — they *are* the primary copy —
/// only the aliasing map entries go. Returns the number of absorbed
/// blocks. Must run under the same state write lock as the BLT swing so
/// no reader observes the shadowed window.
pub(crate) fn absorb_shadowed_replicas(
    st: &mut crate::file::FileState,
    block: u64,
    n: u64,
    to: TierId,
) -> u64 {
    // Clipped to the swung window: the part of an extent outside it is
    // still a valid replica of an elsewhere-primary.
    let mut absorbed = 0;
    for (s, l) in st.replicas_on(block, n, to) {
        st.replicas.remove(s, l);
        absorbed += l;
    }
    absorbed
}

/// Who asked for a chain ([`Mux::run_chain`]): how its steps are paced
/// and counted, and what a short room does to its move.
pub(crate) enum Asker<'a> {
    /// An epoch's plan: each step passes QoS admission and the shared
    /// token bucket first, and counts in the tick's report.
    Planner(&'a mut TokenBucket, &'a mut EpochReport),
    /// A chain of [`Mux::run_policy_migrations`]: unpaced, counted in the
    /// pass's summary, and dropped with `NoSpace` when its room falls
    /// short, like an epoch's.
    Policy(&'a mut MigrationSummary),
    /// An explicit move: it runs even when its room falls short.
    User,
}

impl Asker<'_> {
    /// Counts a step done that moved, mirrored or retired `blocks`; `last`
    /// tells a chain's own move from the room steps ahead of it.
    fn tally(&mut self, mux: &Mux, step: &EpochAction, last: bool, blocks: u64) {
        let report = match self {
            Asker::Planner(_, report) => report,
            Asker::Policy(summary) => {
                summary.executed += usize::from(blocks > 0);
                summary.blocks_moved += u64::from(step.migrate().is_some()) * blocks;
                return;
            }
            Asker::User => {
                if !last && step.migrate().is_some() {
                    MuxStats::add(&mux.stats.room_demotions, blocks);
                }
                return;
            }
        };
        report.executed += 1;
        let counter = match step {
            EpochAction::Migrate { promote: true, .. } => &mux.stats.auto_promotions,
            EpochAction::Migrate { .. } => &mux.stats.auto_demotions,
            EpochAction::Mirror(_) => return report.mirrored += blocks,
            EpochAction::Unmirror(_) => return report.unmirrored += blocks,
        };
        report.blocks_moved += blocks;
        MuxStats::add(counter, blocks);
    }

    /// Counts `steps` of a chain dropped after one of them failed.
    fn dropped(&mut self, steps: usize) {
        match self {
            Asker::Planner(_, report) => report.failed += steps,
            Asker::Policy(summary) => summary.failed += steps,
            Asker::User => {}
        }
    }
}

/// Result of one migration pass ([`Mux::run_policy_migrations`],
/// [`Mux::evacuate_tier`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationSummary {
    /// Steps planned.
    pub planned: usize,
    /// Steps that moved, mirrored or retired something.
    pub executed: usize,
    /// Total blocks moved.
    pub blocks_moved: u64,
    /// Steps that failed, or were dropped after an earlier step of their
    /// chain failed (e.g. destination out of space).
    pub failed: usize,
}

impl MigrationSummary {
    /// Counts one executed plan of `blocks` blocks by how it ended.
    fn tally(&mut self, blocks: u64, result: VfsResult<MigrationOutcome>) {
        match result {
            Ok(MigrationOutcome::NothingToDo) => {}
            Ok(_) => {
                self.executed += 1;
                self.blocks_moved += blocks;
            }
            Err(_) => self.failed += 1,
        }
    }
}

impl Mux {
    /// Mapped extents of `[block, block+n)` that lack a copy on `to`, as
    /// `(source tier, start, len)`: everything the Block Lookup Table maps
    /// elsewhere, minus — for a replica — what `to` already mirrors.
    fn uncopied(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        to: TierId,
        flip: Flip,
    ) -> Vec<(TierId, u64, u64)> {
        let st = file.state.read();
        let mirrored = match flip {
            Flip::Move => Vec::new(),
            Flip::Replicate => st.replicas_on(block, n, to),
        };
        subtract_ranges(block, n, &mirrored)
            .into_iter()
            .flat_map(|(s, l)| st.blt.plan(s, l))
            .filter(|e| e.value != to)
            .map(|e| (e.value, e.start, e.len))
            .collect()
    }

    /// Copies what `[block, block+n)` of `file` lacks on tier `to` (no
    /// commit). Copies flow through the I/O scheduler so seek-bound
    /// sources are read in elevator order.
    fn copy_range(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        to: TierId,
        flip: Flip,
    ) -> VfsResult<()> {
        let dst = self.tier(to)?;
        let dst_ino = self.ensure_native(file, to)?;
        // Queue per-source reads and drain in device order.
        let mut by_tier: Vec<(TierId, Vec<IoRequest>)> = Vec::new();
        // Small enough that a native file system's internal locking
        // never stalls foreground I/O for long; large enough to amortize
        // per-request overheads.
        const COPY_CHUNK: u64 = 256 << 10;
        for (src_tier, start, len) in self.uncopied(file, block, n, to, flip) {
            // Bound buffer sizes: split large extents into copy chunks.
            let mut off = start * BLOCK;
            let end = (start + len) * BLOCK;
            while off < end {
                let len = COPY_CHUNK.min(end - off);
                let req = IoRequest {
                    ino: file.ino,
                    off,
                    len,
                    write: false,
                    tenant: file.tenant(),
                };
                match by_tier.iter_mut().find(|(t, _)| *t == src_tier) {
                    Some((_, v)) => v.push(req),
                    None => by_tier.push((src_tier, vec![req])),
                }
                off += len;
            }
        }
        for (tier, reqs) in by_tier {
            let src = self.tier(tier)?;
            let src_ino = self.ensure_native(file, tier)?;
            for r in reqs {
                self.sched.submit(tier, r);
            }
            // Determine drain order from the source device class via the
            // registered profile-ish heuristic: seek-bound tiers are
            // elevator-ordered inside the scheduler.
            let profile = match src.config.class {
                simdev::DeviceClass::Hdd => simdev::hdd(),
                simdev::DeviceClass::Ssd => simdev::nvme_ssd(),
                simdev::DeviceClass::CxlSsd => simdev::cxl_ssd(),
                simdev::DeviceClass::Pmem => simdev::pmem(),
            };
            // Drain only this file's requests: concurrent migrations of
            // other files share the per-tier queue, and stealing their
            // requests would leave their copies short (committed holes).
            for r in self.sched.drain_for(tier, &profile, file.ino) {
                let mut buf = vec![0u8; r.len as usize];
                let chunk = if self.health.can_read(tier) {
                    self.tier_io(OpKind::MigrationCopy, tier, || {
                        src.fs.read(src_ino, r.off, &mut buf[..])
                    })
                } else {
                    Err(VfsError::Io(format!("tier {tier} is offline")))
                };
                match chunk {
                    Ok(got) => {
                        // Sparse shorter file: the tail reads as zeros.
                        buf[got..].fill(0);
                    }
                    Err(VfsError::Io(_)) => {
                        // Source is failing: salvage block by block — a
                        // replica can serve blocks the primary cannot,
                        // which is what lets a sick tier be evacuated.
                        for (i, page) in buf.chunks_mut(BLOCK as usize).enumerate() {
                            self.read_block_anyhow(file, tier, r.off / BLOCK + i as u64, page)?;
                        }
                    }
                    Err(e) => return Err(e),
                }
                if flip == Flip::Replicate {
                    self.verify_replica_source(file, tier, r.off / BLOCK, &buf)?;
                }
                let wrote = self.tier_io(OpKind::MigrationCopy, to, || {
                    dst.fs.write(dst_ino, r.off, &buf)
                })?;
                if wrote != buf.len() {
                    return Err(VfsError::Io("short migration write".into()));
                }
            }
        }
        Ok(())
    }

    /// A replica is the repair source for the read path and the scrubber —
    /// mirroring silently-rotted source data would defeat both. Verifies
    /// every trusted block of a chunk read from `tier` and fails the copy
    /// on a mismatch rather than propagate bad bytes.
    fn verify_replica_source(
        &self,
        file: &MuxFile,
        tier: TierId,
        first: u64,
        buf: &[u8],
    ) -> VfsResult<()> {
        use crate::integrity::{crc32c, VerifyOutcome};
        if !self.opts.integrity.checksums {
            return Ok(());
        }
        for (b, page) in (first..).zip(buf.chunks(BLOCK as usize)) {
            let outcome = self.verify_checksum(file.ino, &mut file.state.write(), b, crc32c(page));
            if let VerifyOutcome::Mismatch { expected, actual } = outcome {
                MuxStats::add(&self.stats.corruptions_detected, 1);
                self.trace_event(
                    TraceEventKind::CorruptionDetected { expected, actual },
                    tier,
                    file.ino,
                    b * BLOCK,
                    BLOCK,
                );
                self.health.record_corruption(tier);
                return Err(VfsError::corrupt_at(
                    format!(
                        "refusing to mirror block {b}: source copy on \
                         tier {tier} failed CRC-32C verification"
                    ),
                    tier,
                    file.ino,
                    b * BLOCK,
                ));
            }
        }
        Ok(())
    }

    /// Punches, out of `file`'s native file on `tier`, every block of
    /// `[block, block+n)` that neither the Block Lookup Table nor the
    /// replica map names there: a failed copy's debris, a committed
    /// move's source copies, a retired replica's bytes. Best effort —
    /// nothing maps the punched blocks, so a failed punch (e.g. a dying
    /// device) only leaves invisible debris that recovery or a later copy
    /// overwrites; it must not fail the caller.
    pub(crate) fn punch_unowned(&self, file: &MuxFile, block: u64, n: u64, tier: TierId) {
        let (owned, nino) = {
            let st = file.state.read();
            let mut owned = st.replicas_on(block, n, tier);
            let mapped = st.blt.plan(block, n);
            owned.extend(
                mapped
                    .iter()
                    .filter(|e| e.value == tier)
                    .map(|e| (e.start, e.len)),
            );
            (owned, st.native.get(&tier).copied())
        };
        if let (Ok(handle), Some(nino)) = (self.tier(tier), nino) {
            for (db, dl) in subtract_ranges(block, n, &owned) {
                let punch = || handle.fs.punch_hole(nino, db * BLOCK, dl * BLOCK);
                let _ = self.tier_io(OpKind::Write, tier, punch);
            }
        }
    }

    /// The one place blocks that already have an owner change hands: the
    /// full commit, the partial commit of an aborted run and the write
    /// path's mirror role swap all come through here. Under one state
    /// write lock the mapped extents of `ranges` either swing to `to` in
    /// the Block Lookup Table — absorbing replica entries `to` held, which
    /// would now shadow their own primary — or gain a replica entry on
    /// `to`. The fast path is invalidated *after* the flip and *before*
    /// any caller punches a superseded copy: a lock-free read that raced
    /// the flip fails its post-read slot recheck, and no stale mapping
    /// survives into the punch window. Returns whether anything flipped.
    pub(crate) fn swing(
        &self,
        file: &MuxFile,
        ranges: &[(u64, u64)],
        to: TierId,
        flip: Flip,
    ) -> bool {
        let mut flipped = false;
        let mut absorbed = 0;
        {
            let mut st = file.state.write();
            for &(b, l) in ranges {
                for seg in st.blt.plan(b, l) {
                    match flip {
                        Flip::Move => st.blt.assign(seg.start, seg.len, to),
                        Flip::Replicate if seg.value != to => {
                            st.replicas.insert(seg.start, seg.len, to)
                        }
                        Flip::Replicate => continue,
                    }
                    flipped = true;
                }
                if flip == Flip::Move {
                    absorbed += absorb_shadowed_replicas(&mut st, b, l, to);
                }
                self.mark_dirty(file.ino, &mut st, Some((b, l)));
            }
        }
        if absorbed > 0 {
            MuxStats::add(&self.stats.mirrors_retired, absorbed);
        }
        if flipped {
            // Only these ranges changed; the rest of the file's mappings
            // stay hot.
            for &(b, l) in ranges {
                self.fastpath_invalidate(file.ino, b, l, None);
            }
        }
        flipped
    }

    /// The range mover: copy → make durable → validate → flip → reclaim,
    /// the one protocol behind migration (§2.4) and replication (§4); the
    /// module docs walk the stages. An aborted run settles whatever
    /// sub-ranges it swung like a commit would and punches the rest of
    /// what it wrote to `to`: the Block Lookup Table and the replica map
    /// stay authoritative, nothing lost, nothing double-owned.
    ///
    /// Returns the outcome and the number of blocks that gained their copy
    /// on `to`.
    fn relocate(
        &self,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
        flip: Flip,
        writers: Writers,
    ) -> VfsResult<(MigrationOutcome, u64)> {
        let file = self.get_file(ino)?;
        if self.tier(to)?.draining.load(Ordering::Acquire) {
            return Err(VfsError::InvalidArgument(
                "destination tier is being removed".into(),
            ));
        }
        if !self.health.can_write(to) {
            return Err(VfsError::Io(format!(
                "destination tier {to} is {}",
                self.health.state(to).label()
            )));
        }
        let sources = self.uncopied(&file, block, n, to, flip);
        if sources.is_empty() {
            return Ok((MigrationOutcome::NothingToDo, 0));
        }
        // One mover at a time per file: a BLT swing under a mirror copy
        // could leave the replica shadowing its own primary.
        if file.migrating.swap(true, Ordering::AcqRel) {
            return Err(VfsError::Busy);
        }
        OccStats::bump(&self.occ.migrations, 1);
        let (off, len) = (block * BLOCK, n * BLOCK);
        self.trace_event(TraceEventKind::MigrationBegin, to, ino, off, len);
        let (begin, commit) = flip.journal_kinds();
        let (result, swung) = match self.journal(begin, ino, block, n, to) {
            Ok(()) => self.run_rounds(&file, block, n, to, flip, writers),
            Err(e) => (Err(e), Vec::new()),
        };
        file.migrating.store(false, Ordering::Release);
        if result.is_err() {
            OccStats::bump(&self.occ.aborts, 1);
            let partial = !swung.is_empty();
            self.trace_event(
                TraceEventKind::MigrationAbort { partial },
                to,
                ino,
                off,
                len,
            );
            // Blocks a racing writer freshly placed on `to` are mapped
            // there, so they are never punched.
            self.punch_unowned(&file, block, n, to);
        }
        // What this run gave a copy on `to`: the sources inside `swung`.
        let moved: Vec<(TierId, u64, u64)> = sources
            .iter()
            .flat_map(|&(tier, s, l)| {
                clip_ranges(&swung, s, l)
                    .into_iter()
                    .map(move |(b, k)| (tier, b, k))
            })
            .collect();
        let blocks = moved.iter().map(|m| m.2).sum();
        // Recovery must treat the swung sub-ranges as real data, not
        // intent debris: the commit records go in before any source copy
        // is reclaimed, and an unjournaled flip reclaims nothing.
        let settled = swung
            .iter()
            .try_for_each(|&(b, l)| self.journal(commit, ino, b, l, to));
        if settled.is_ok() && !moved.is_empty() {
            match flip {
                Flip::Move => {
                    // `to` is a (possibly new) participant whose native
                    // metadata never saw the collective inode: queue
                    // lazy sync.
                    file.state.write().meta.mark_stale(to);
                    for &(tier, b, l) in &moved {
                        self.punch_unowned(&file, b, l, tier);
                    }
                    OccStats::bump(&self.occ.blocks_moved, blocks);
                }
                Flip::Replicate => {
                    MuxStats::add(&self.stats.mirrors_created, blocks);
                    for &(primary, b, l) in &moved {
                        let kind = TraceEventKind::MirrorCreated { primary };
                        self.trace_event(kind, to, ino, b * BLOCK, l * BLOCK);
                    }
                }
            }
        }
        let outcome = result?;
        settled?;
        Ok((outcome, blocks))
    }

    /// Stage 3 of [`Mux::relocate`]: the copy/validate rounds and the
    /// swing. Returns the result and the sub-ranges that were swung — the
    /// whole range on success, the salvage of a partial commit on error.
    ///
    /// The file's dirty window opens here and stays open until the swing,
    /// so no write goes unrecorded between rounds. Invariant at the top
    /// of every round: each block of the range outside `todo ∪ dirty` has
    /// a fresh copy on `to`, durable since an earlier round's fsync. The
    /// commit therefore validates the *whole* range against the dirty
    /// window and swings it at once.
    fn run_rounds(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        to: TierId,
        flip: Flip,
        writers: Writers,
    ) -> (VfsResult<MigrationOutcome>, Vec<(u64, u64)>) {
        let cost = &self.opts.cost;
        let (off, len) = (block * BLOCK, n * BLOCK);
        // Ends an exclusive `io_lock` hold: the §2.4 critical path.
        let release = |io: parking_lot::RwLockWriteGuard<'_, ()>, t0: u64| {
            let held = self.clock.now_ns() - t0;
            OccStats::bump(&self.occ.lock_hold_vns, held);
            self.lat.record(OpKind::MigrationCommit, to, held);
            drop(io);
        };
        let mut todo: Vec<(u64, u64)> = vec![(block, n)];
        let mut retries = 0u32;
        file.begin_migration();
        loop {
            // Out of optimism: block writers for this round, so it "will
            // be completed in a finite amount of time" (§2.4).
            let exclusive = writers == Writers::Exclude || retries > self.opts.migration_retries;
            let mut held = exclusive.then(|| {
                OccStats::bump(&self.occ.fallbacks, 1);
                (file.io_lock.write(), self.clock.now_ns())
            });
            // Writes since the last round staled whatever they touched.
            todo.extend(file.take_dirty());
            todo = clip_ranges(&todo, block, n);
            let round = todo
                .iter()
                .try_for_each(|&(b, l)| self.copy_range(file, b, l, to, flip))
                .and_then(|()| {
                    // Durable on `to` before the flip can make it visible:
                    // a snapshot that names the copy promises all of it.
                    let dst_ino = self.ensure_native(file, to)?;
                    let dst = self.tier(to)?;
                    self.tier_io(OpKind::MigrationCopy, to, || dst.fs.fsync(dst_ino))
                });
            if let Err(e) = round {
                // Device fault mid-copy: abort cleanly. Blocks still in
                // `todo` or dirtied since stay with their sources; what
                // earlier rounds copied and validated gets committed.
                let (io, t0) = held.unwrap_or_else(|| (file.io_lock.write(), self.clock.now_ns()));
                todo.extend(file.peek_dirty());
                let mut keep = subtract_ranges(block, n, &todo);
                if self.swing(file, &keep, to, flip) {
                    OccStats::bump(&self.occ.partial_commits, 1);
                } else {
                    keep.clear();
                }
                file.end_migration();
                release(io, t0);
                return (Err(e), keep);
            }
            todo.clear();
            if held.is_none() {
                self.charge(cost.occ_check_ns);
                if !ranges_intersect(&file.peek_dirty(), block, n) {
                    held = Some((file.io_lock.write(), self.clock.now_ns()));
                }
            }
            if let Some((io, t0)) = held {
                // The exclusive instant waited out writes in flight;
                // recheck, then flip.
                let clean = !ranges_intersect(&file.peek_dirty(), block, n);
                if clean {
                    if !exclusive {
                        // The only work on the user-visible critical
                        // path: the revalidation plus the BLT swing.
                        self.charge(cost.occ_check_ns + cost.blt_lookup_ns + cost.meta_update_ns);
                    }
                    self.swing(file, &[(block, n)], to, flip);
                    file.end_migration();
                }
                release(io, t0);
                if clean {
                    if !exclusive {
                        let kind = TraceEventKind::MigrationValidate { conflicted: false };
                        self.trace_event(kind, to, file.ino, off, len);
                    }
                    let kind = TraceEventKind::MigrationCommit { retries };
                    self.trace_event(kind, to, file.ino, off, len);
                    let outcome = if exclusive {
                        MigrationOutcome::LockFallback
                    } else {
                        MigrationOutcome::Committed { retries }
                    };
                    return (Ok(outcome), vec![(block, n)]);
                }
                // A write slipped in between validate and commit.
            }
            OccStats::bump(&self.occ.conflicts, 1);
            let kind = TraceEventKind::MigrationValidate { conflicted: true };
            self.trace_event(kind, to, file.ino, off, len);
            retries += 1;
            OccStats::bump(&self.occ.retries, 1);
        }
    }

    /// Drops the replica entries of `[block, block+n)` — those recorded on
    /// tier `on`, or with `None` every one — and deals with their bytes as
    /// `fate` says: the one retirement behind [`Mux::unmirror_range`], the
    /// write path's mirror role swap and `Mux::commit`'s stale replicas.
    /// Returns the replica blocks retired; a range with no replica costs
    /// one map lookup.
    ///
    /// Order: journal first (recovery starts from a snapshot that may
    /// still name the replica and must not resurrect a diverged copy),
    /// then drop the entries, then retire the range's fast-path mappings
    /// — onto `on` only, the other copy's stay hot — and only then punch:
    /// a lock-free reader must never hold a mapping onto reclaimed bytes.
    pub(crate) fn retire_replicas(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        on: Option<TierId>,
        fate: Retire,
    ) -> VfsResult<u64> {
        let mut victims = file.state.read().replicas.overlapping(block, n);
        victims.retain(|e| on.is_none_or(|t| e.value == t));
        if victims.is_empty() {
            return Ok(0);
        }
        for v in &victims {
            self.journal(IntentKind::Unmirror, file.ino, v.start, v.len, v.value)?;
        }
        {
            let mut st = file.state.write();
            for v in &victims {
                st.replicas.remove(v.start, v.len);
                if let Retire::OweResync(owed) = fate {
                    let owed = owed.unwrap_or(v.value);
                    st.resync_pending.insert(v.start, v.len, owed);
                }
                self.mark_dirty(file.ino, &mut st, Some((v.start, v.len)));
            }
        }
        self.fastpath_invalidate(file.ino, block, n, on);
        for v in &victims {
            if fate == Retire::Punch {
                self.punch_unowned(file, v.start, v.len, v.value);
            }
            let (off, len) = (v.start * BLOCK, v.len * BLOCK);
            self.trace_event(TraceEventKind::MirrorRetired, v.value, file.ino, off, len);
        }
        let retired = victims.iter().map(|v| v.len).sum();
        MuxStats::add(&self.stats.mirrors_retired, retired);
        Ok(retired)
    }

    /// One paced lazy-resync step (stage (3½) of
    /// [`Mux::maintenance_tick`]): walks files in deterministic inode
    /// order and re-mirrors ranges parked in `resync_pending` — replica
    /// copies a write invalidated (or a role swap displaced) — through the
    /// full fault-atomic [`Mux::mirror_range`] protocol, bounded by
    /// `resync_bytes_per_tick`. The debt map is transient: a crash simply
    /// forgets it and the planner re-plans the mirror next epoch. Returns
    /// replica blocks re-established this tick.
    pub(crate) fn resync_tick(&self) -> u64 {
        let cfg = &self.opts.autotier;
        if !cfg.mirror_enabled || cfg.resync_bytes_per_tick == 0 {
            return 0;
        }
        let mut budget_blocks = cfg.resync_bytes_per_tick / BLOCK;
        let mut resynced = 0u64;
        let mut inos = self.files.keys();
        inos.sort_unstable();
        'files: for ino in inos {
            let Some(file) = self.files.get(&ino) else {
                continue;
            };
            loop {
                if budget_blocks == 0 {
                    break 'files;
                }
                let Some((start, len, to)) = file
                    .state
                    .read()
                    .resync_pending
                    .iter()
                    .next()
                    .map(|e| (e.start, e.len.min(budget_blocks), e.value))
                else {
                    break;
                };
                // Retire the debt before copying: if the copy fails the
                // planner re-plans, and a write racing this resync
                // re-parks its own range rather than fighting over one.
                file.state.write().resync_pending.remove(start, len);
                if !self.health.can_write(to) {
                    continue; // sick destination: drop, replan later
                }
                match self.mirror_range(ino, start, len, to) {
                    Ok(n) => {
                        budget_blocks = budget_blocks.saturating_sub(len);
                        if n > 0 {
                            resynced += n;
                            MuxStats::add(&self.stats.lazy_resyncs, 1);
                            self.trace_event(
                                TraceEventKind::LazyResync,
                                to,
                                ino,
                                start * BLOCK,
                                len * BLOCK,
                            );
                        }
                    }
                    Err(VfsError::Busy) => {
                        // A migration holds the flag: re-park and move on.
                        file.state.write().resync_pending.insert(start, len, to);
                        break;
                    }
                    Err(_) => {} // dropped; the planner re-plans if still hot
                }
            }
        }
        resynced
    }

    /// Migrates `[block, block+n)` of file `ino` to tier `to` using the
    /// OCC synchronizer. A destination without room for what the range
    /// brings to it ([`crate::policy::TierStatus::has_room`]) first sheds
    /// what the pressure pass would shed there: its replicas, then its
    /// coldest primaries — only files colder than `ino`, never `ino`
    /// itself — each to the next slower tier with room.
    /// [`crate::MuxStats::room_demotions`] counts the blocks demoted.
    /// Asked for explicitly, the move then runs even if the room is still
    /// short: the native file system has the last word, and a range that
    /// does not fit aborts with `NoSpace`, its copied blocks punched
    /// (`tests/fault_tolerance.rs` drives that abort through here).
    pub fn migrate_range(
        &self,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<MigrationOutcome> {
        let plan = MigrationPlan {
            ino,
            block,
            n_blocks: n,
            to,
        };
        self.run_move(plan)
    }

    /// Runs the one chain of an explicit move: the steps
    /// [`crate::autotier::plan_room`] plans to make `plan.to` room for what
    /// the range brings to it, shedding only files colder than the moved
    /// one, then the move.
    fn run_move(&self, plan: MigrationPlan) -> VfsResult<MigrationOutcome> {
        let (need, room) = self.room_for(&plan)?;
        let mut chain = Vec::new();
        if !room {
            let files = self.file_views();
            let score = self.autotier.heat.heat(plan.ino).score;
            let policy = self.policy.read().clone();
            let keep = |f: &FileView| f.ino == plan.ino || policy.is_pinned(f.ino);
            let (cfg, tiers) = (&self.opts.autotier, self.tier_status());
            chain = crate::autotier::plan_room(cfg, &tiers, &files, plan.to, need, score, &keep);
        }
        // Only an epoch's chains read `promote`.
        chain.push(EpochAction::Migrate {
            plan,
            promote: false,
        });
        self.run_chain(&mut chain, &mut Asker::User)
    }

    /// The bytes moving `p`'s range brings to `p.to`, and whether the tier
    /// has room for them ([`crate::policy::TierStatus::has_room`]). A tier
    /// whose space the table does not show (one being drained, or one
    /// whose `statfs` failed, as over a partitioned link) counts as having
    /// room: the mover refuses it.
    fn room_for(&self, p: &MigrationPlan) -> VfsResult<(u64, bool)> {
        let file = self.get_file(p.ino)?;
        let incoming = self.uncopied(&file, p.block, p.n_blocks, p.to, Flip::Move);
        let need = incoming.iter().map(|&(_, _, l)| l).sum::<u64>() * BLOCK;
        let tiers = self.tier_status();
        let shown = tiers.iter().find(|t| t.id == p.to && t.total_bytes > 0);
        Ok((need, shown.is_none_or(|t| t.has_room(need))))
    }

    /// The one executor: runs `chain` in order, removing each step once it
    /// is done, and returns the outcome of its last move. A move's room is
    /// a precondition its chain's earlier steps made true, checked and
    /// never made here: a move into a tier without room for what it brings
    /// fails with `NoSpace`. A step that fails drops the rest of its chain,
    /// which leaves it empty. What else happens depends on who asked: an
    /// epoch's step first passes [`Mux::admit_step`] and pays once it has
    /// run, and one that must wait — another mover holds its file's
    /// migration flag (`Busy`), or the token bucket is dry — keeps the
    /// chain, from that step on, for a later tick; an explicit move runs
    /// even when its room steps failed.
    pub(crate) fn run_chain(
        &self,
        chain: &mut Vec<EpochAction>,
        asker: &mut Asker,
    ) -> VfsResult<MigrationOutcome> {
        let mut outcome = MigrationOutcome::NothingToDo;
        while let Some(step) = chain.first() {
            let (last, user) = (chain.len() == 1, matches!(asker, Asker::User));
            let result = match asker {
                Asker::Planner(bucket, report) => {
                    let Some(at) = self.admit_step(step, bucket, report)? else {
                        chain.clear();
                        break;
                    };
                    let result = self.run_step(step, false);
                    if !matches!(result, Err(VfsError::Busy)) {
                        self.pay_step(step, bucket, at);
                    }
                    result
                }
                _ => self.run_step(step, last && user),
            };
            match result {
                Ok((o, blocks)) => {
                    asker.tally(self, step, last, blocks);
                    outcome = o;
                    chain.remove(0);
                }
                // The room stays short; the move asked for runs anyway.
                Err(_) if user && !last => drop(chain.drain(..chain.len() - 1)),
                // Another mover holds the file's migration flag: wait, not spin.
                Err(VfsError::Busy) => return Err(VfsError::Busy),
                Err(e) => {
                    asker.dropped(chain.len());
                    chain.clear();
                    return Err(e);
                }
            }
        }
        Ok(outcome)
    }

    /// Runs one step of a chain — a move, after its room check unless
    /// `forced`, a mirror copy or a replica's retirement — and returns the
    /// move's outcome (`NothingToDo` for the replica steps) and the blocks
    /// moved, mirrored or retired.
    fn run_step(&self, step: &EpochAction, forced: bool) -> VfsResult<(MigrationOutcome, u64)> {
        let p = step.plan();
        let (ino, block, n, to) = (p.ino, p.block, p.n_blocks, p.to);
        match step {
            EpochAction::Migrate { .. } if !forced && !self.room_for(p)?.1 => {
                Err(VfsError::NoSpace)
            }
            EpochAction::Migrate { .. } => {
                let (o, _) = self.relocate(ino, block, n, to, Flip::Move, Writers::Race)?;
                Ok((o, u64::from(o != MigrationOutcome::NothingToDo) * n))
            }
            EpochAction::Mirror(_) => {
                self.relocate(ino, block, n, to, Flip::Replicate, Writers::Exclude)
            }
            EpochAction::Unmirror(_) => Ok((
                MigrationOutcome::NothingToDo,
                self.unmirror_range(ino, block, n, to)?,
            )),
        }
    }

    /// Migrates `[block, block+n)` holding the file's `io_lock`
    /// exclusively for the *entire* copy — the traditional pessimistic
    /// scheme the OCC ablation compares against. Writers stall for the
    /// whole migration instead of only the commit instant.
    pub fn migrate_range_lock_based(
        &self,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<MigrationOutcome> {
        let moved = self.relocate(ino, block, n, to, Flip::Move, Writers::Exclude)?;
        Ok(moved.0)
    }

    /// Mirrors `[block, block+n)` onto tier `to` — the MOST-style deliberate
    /// placement primitive and the paper-§4 replication seam. The Block
    /// Lookup Table is unchanged — the primary copy keeps serving writes —
    /// but the replica is recorded and the read path serves whichever
    /// healthy copy is fastest. Returns the number of blocks copied.
    pub fn mirror_range(&self, ino: MuxIno, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let copied = self.relocate(ino, block, n, to, Flip::Replicate, Writers::Exclude)?;
        Ok(copied.1)
    }

    /// Retires the replicas of `[block, block+n)` that live on tier `to`
    /// and punches their bytes. Returns the replica blocks retired.
    pub fn unmirror_range(&self, ino: MuxIno, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let file = self.get_file(ino)?;
        self.retire_replicas(&file, block, n, Some(to), Retire::Punch)
    }

    /// Migrates an entire file to `to`.
    pub fn migrate_file(&self, ino: MuxIno, to: TierId) -> VfsResult<MigrationOutcome> {
        let file = self.get_file(ino)?;
        let end = file.state.read().blt.end();
        if end == 0 {
            return Ok(MigrationOutcome::NothingToDo);
        }
        self.migrate_range(ino, 0, end, to)
    }

    /// Snapshot of every file's block placement and access record, sorted
    /// by inode — the shared input of [`Mux::run_policy_migrations`] and
    /// the autotier planner ([`crate::Mux::maintenance_tick`]).
    pub(crate) fn file_views(&self) -> Vec<FileView> {
        let mut files: Vec<FileView> = Vec::new();
        self.files.for_each(|_, f| {
            let st = f.state.read();
            files.push(FileView {
                ino: f.ino,
                extents: st
                    .blt
                    .extents()
                    .iter()
                    .map(|e| (e.start, e.len, e.value))
                    .collect(),
                replicas: st
                    .replicas
                    .iter()
                    .map(|e| (e.start, e.len, e.value))
                    .collect(),
                heat: Default::default(),
            });
        });
        // Shard iteration order is hash-dependent; sort so policy plans
        // (and the virtual-time costs of executing them) are deterministic.
        files.sort_unstable_by_key(|f| f.ino);
        self.autotier.heat.fill(&mut files);
        files
    }

    /// One migration pass, run now: plans with the call the autotier tick
    /// makes ([`crate::autotier::plan_epoch`], the policy's pins as its
    /// veto) and runs each chain in order, unpaced. It plans whether or
    /// not [`crate::AutotierConfig::enabled`] is set, and neither starts
    /// an epoch nor decays the access record. A chain whose step finds
    /// another mover at work is dropped, not kept for later.
    pub fn run_policy_migrations(&self) -> MigrationSummary {
        let (tiers, files) = (self.tier_status(), self.file_views());
        let policy = self.policy.read().clone();
        let pinned = |ino| policy.is_pinned(ino);
        let plan = crate::autotier::plan_epoch(&self.opts.autotier, &tiers, &files, &pinned);
        let mut summary = MigrationSummary {
            planned: plan.actions().count(),
            ..Default::default()
        };
        for mut chain in plan.chains {
            let _ = self.run_chain(&mut chain, &mut Asker::Policy(&mut summary));
            summary.failed += chain.len();
        }
        summary
    }

    /// Every extent the Block Lookup Tables map to `tier`, as
    /// `(ino, start, len)` in deterministic inode order.
    fn extents_on(&self, tier: TierId) -> Vec<(MuxIno, u64, u64)> {
        let on_tier = |f: FileView| {
            let mine = f.extents.into_iter().filter(move |e| e.2 == tier);
            mine.map(move |(start, len, _)| (f.ino, start, len))
        };
        self.file_views().into_iter().flat_map(on_tier).collect()
    }

    /// Drains every block off a (typically sick) tier onto the healthiest
    /// writable tiers, reusing the OCC migrator — the graceful-degradation
    /// sweep to run after a circuit breaker trips `ReadOnly`. Unlike
    /// [`Mux::remove_tier`] the tier stays registered (it may be reset via
    /// [`crate::HealthRegistry::reset`] and re-admitted later), and
    /// per-range failures are tallied in the summary instead of aborting
    /// the sweep — under live faults some ranges may only move on a later
    /// attempt (or from their replicas).
    pub fn evacuate_tier(&self, tier: TierId) -> VfsResult<MigrationSummary> {
        self.tier(tier)?;
        let mut summary = MigrationSummary::default();
        for (ino, b, l) in self.extents_on(tier) {
            summary.planned += 1;
            match self.healthiest_writable_tier(l * BLOCK, Some(tier)) {
                Ok(dest) => summary.tally(l, self.migrate_range(ino, b, l, dest)),
                Err(_) => summary.failed += 1,
            }
        }
        Ok(summary)
    }

    /// Removes a tier: drains every block off it, then drops the handle.
    /// "To remove a device, data must be migrated first" (§2.1).
    pub fn remove_tier(&self, tier: TierId) -> VfsResult<()> {
        let handle = self.tier(tier)?;
        handle.draining.store(true, Ordering::Release);
        let drained = self.drain_tier(tier);
        if drained.is_err() {
            handle.draining.store(false, Ordering::Release);
        }
        drained
    }

    /// The body of [`Mux::remove_tier`], with the tier already marked
    /// draining (so `tier_status` no longer offers it).
    fn drain_tier(&self, tier: TierId) -> VfsResult<()> {
        // Destination: the policy's choice among remaining tiers, per extent.
        let remaining = self.tier_status();
        if remaining.is_empty() {
            return Err(VfsError::Busy);
        }
        for (ino, b, l) in self.extents_on(tier) {
            let Ok(file) = self.get_file(ino) else {
                continue;
            };
            let policy = self.policy.read().clone();
            let dest = policy.place(&crate::policy::PlacementCtx {
                ino,
                off: b * BLOCK,
                len: l * BLOCK,
                file_size: file.state.read().meta.attr.size,
                is_append: false,
                sync: false,
                tiers: &remaining,
            });
            if dest == tier {
                return Err(VfsError::InvalidArgument(
                    "policy keeps placing on the draining tier".into(),
                ));
            }
            self.migrate_range(ino, b, l, dest)?;
        }
        // Forget the native handles on the drained tier.
        self.files.for_each(|&ino, f| {
            let mut st = f.state.write();
            if st.native.remove(&tier).is_some() {
                self.mark_dirty(ino, &mut st, None);
            }
        });
        // Every fast-path mapping referencing the drained tier's native
        // inodes is now dead; the migrations above invalidated per file,
        // but an epoch bump retires any straggler wholesale.
        self.fastpath_epoch_bump();
        // Keep the slot (ids are indexes) but mark it permanently drained.
        Ok(())
    }
}
