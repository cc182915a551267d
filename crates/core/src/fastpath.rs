//! The lock-free read fast path (see PERFORMANCE.md).
//!
//! A [`FastPath`] is a fixed-size, 4-way set-associative, seqlock-style
//! cache of resolved `(ino, block) → (tier, native inode, checksum)`
//! mappings. A read that hits a valid entry skips the sharded file-table
//! lock, the Block Lookup Table extent walk, the health/retry/backoff
//! machinery and the per-read trace/bookkeeping tail of the dispatch path
//! (`Mux::read`'s slow path), paying only [`crate::CostModel::fastpath_ns`]
//! plus the native read itself. Anything surprising — a miss, a stale
//! epoch, a fenced tier, a checksum mismatch, a torn seqlock window —
//! falls back to the full dispatch path, which remains the single place
//! where retries, replica failover, corruption strikes and repair happen.
//!
//! # Invalidation scheme
//!
//! Entries are validated (and re-validated *after* the native read) against
//! three tokens:
//!
//! * the **global epoch** ([`FastPath::epoch`]) — bumped by coarse,
//!   rare events: tier add/remove, crash recovery, block quarantine;
//! * the **health generation** ([`crate::HealthRegistry::generation`]) —
//!   bumped on *every* circuit-breaker transition, so a tier fence
//!   instantly invalidates the whole cache without walking it;
//! * the **slot seqlock** — bumped by targeted invalidations: writes,
//!   truncate, `punch_hole`, unlink, and OCC migration commits/aborts
//!   (published *before* stale source copies are punched, so a reader
//!   that raced the commit always detects it on the post-read recheck).
//!
//! # Why a racing insert cannot resurrect a stale mapping
//!
//! Writers (insert/invalidate) claim a slot by CAS-ing its sequence from
//! even to odd; a loser simply skips — the cache is best-effort. That
//! leaves one hazard: an insert computed from pre-migration state could
//! complete *after* the migration's invalidation pass already swept the
//! slot. The dispatch path closes it in one of two ways. Its
//! single-block routine re-checks the Block Lookup Table owner and the
//! file version *after* the insert and self-invalidates on mismatch: the
//! BLT swings before the invalidation pass runs, so at least one of the
//! two checks observes the migration. A multi-block run instead checks
//! owner and version and inserts *while holding the file's state lock*:
//! the swing takes that lock, so it either precedes the check (and the
//! insert is skipped) or follows the insert, with its sweep behind it.
//!
//! # Deferred bookkeeping
//!
//! Fast-path hits do not touch the heat map, the tiering policy or the
//! collective inode inline. Each hit bumps a per-slot counter; the
//! counters are drained by [`crate::Mux::maintenance_tick`] (and whenever
//! [`FastPathConfig::flush_every`](crate::FastPathConfig) hits accumulate)
//! into batched `heat`/`atime`/policy updates plus one
//! [`crate::TraceEventKind::FastPathBatch`] trace event.
//!
//! The drain costs O(slots hit), not O(slots): the hit that takes a
//! slot's counter off zero also appends the slot's index to a bounded
//! pending list, and [`FastPath::take_pending`] visits the listed slots
//! only. A list that overflowed, or holds an entry a reader had claimed
//! but not yet written, sends that one drain back to the full sweep, so
//! no counter is ever stranded off the list.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::types::TierId;

/// Ways per set: a set must overflow five resident blocks before entries
/// start evicting each other, which keeps conflict misses negligible at
/// the default sizing (see PERFORMANCE.md, "Sizing the cache").
const WAYS: usize = 4;

/// One cached mapping. All fields are individual atomics (a safe-Rust
/// seqlock): readers snapshot them between two sequence reads, writers
/// flip the sequence odd while storing. `seq` odd = slot mid-write;
/// `ino == 0` = slot empty (Mux inodes start above [`tvfs::ROOT_INO`]).
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    ino: AtomicU64,
    block: AtomicU64,
    /// Native inode on the owning tier.
    nino: AtomicU64,
    /// File size (bytes) observed at insert — a *lower bound*: only
    /// truncate shrinks a file, and truncate invalidates the whole file.
    size: AtomicU64,
    /// Owning tier (high 32 bits) | CRC-32C of the block (low 32 bits).
    tier_crc: AtomicU64,
    /// Bit 0: the CRC field came from a *trusted* checksum entry.
    flags: AtomicU64,
    /// Global-epoch value captured at insert.
    epoch: AtomicU64,
    /// Health-generation value captured at insert.
    gen: AtomicU64,
    /// Fast-path hits since the last bookkeeping flush (advisory).
    hits: AtomicU64,
}

const FLAG_VERIFIED: u64 = 1;

/// The pending list holds one entry per this many slots. Past that share
/// the sequential full sweep is no dearer than sorting the list and
/// chasing it through the slot array.
const SLOTS_PER_PENDING_ENTRY: usize = 16;

/// The low half of a pending-list word (an entry's slot index, the
/// cursor's claim count); the high half is the drain epoch.
const LOW: u64 = u32::MAX as u64;

/// A decoded, seqlock-consistent snapshot of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Mux inode.
    pub ino: u64,
    /// Block index within the file.
    pub block: u64,
    /// Owning tier at insert time.
    pub tier: TierId,
    /// The file's native inode on `tier`.
    pub nino: u64,
    /// File size lower bound (bytes).
    pub size: u64,
    /// Expected CRC-32C of the full block (valid when `verified`).
    pub crc: u32,
    /// Whether `crc` came from a trusted checksum entry.
    pub verified: bool,
    /// Global-epoch value captured at insert.
    pub epoch: u64,
    /// Health-generation value captured at insert.
    pub gen: u64,
}

/// Token for re-validating a lookup after the native read completed.
#[derive(Debug, Clone, Copy)]
pub struct SlotRef {
    idx: usize,
    seq: u64,
}

/// The seqlock mapping cache. One per [`crate::Mux`]; shared by all
/// reader threads without any lock.
pub struct FastPath {
    slots: Box<[Slot]>,
    /// `slots.len() / WAYS - 1`; sets are power-of-two.
    set_mask: u64,
    /// Round-robin victim cursors, one per set.
    victims: Box<[AtomicU64]>,
    epoch: AtomicU64,
    /// Hits accumulated since the last bookkeeping flush.
    pending: AtomicU64,
    /// Indices of the slots whose `hits` left zero since the last drain,
    /// each tagged with the drain epoch it was claimed in: epoch (high 32
    /// bits) | slot index (low 32 bits).
    pending_slots: Box<[AtomicU64]>,
    /// Current drain epoch (high 32 bits) | entries claimed in it (low 32
    /// bits; past `pending_slots.len()` the list has overflowed).
    pending_cursor: AtomicU64,
}

impl FastPath {
    /// A cache with at least `slots` entries (rounded up to a power of
    /// two, minimum one set).
    pub fn new(slots: usize) -> Self {
        let sets = (slots.max(WAYS) / WAYS).next_power_of_two();
        let n = sets * WAYS;
        assert!(n as u64 <= LOW, "slot indices must fit a pending entry");
        FastPath {
            slots: (0..n).map(|_| Slot::default()).collect(),
            set_mask: sets as u64 - 1,
            victims: (0..sets).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            pending_slots: (0..n / SLOTS_PER_PENDING_ENTRY)
                .map(|_| AtomicU64::new(0))
                .collect(),
            // Epoch 1: a never-written entry (epoch 0) is not current.
            pending_cursor: AtomicU64::new(1 << 32),
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidates every entry at once by moving the global epoch.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn set_of(&self, ino: u64, block: u64) -> usize {
        // splitmix64-style finalizer over the packed key: cheap, and block
        // neighbours scatter to distinct sets.
        let mut x = ino.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ block;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        (x & self.set_mask) as usize * WAYS
    }

    /// Seqlock-consistent read of one slot; `None` when mid-write.
    fn read_slot(&self, idx: usize) -> Option<(Entry, SlotRef)> {
        let s = &self.slots[idx];
        let s1 = s.seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        let e = Entry {
            ino: s.ino.load(Ordering::Relaxed),
            block: s.block.load(Ordering::Relaxed),
            tier: (s.tier_crc.load(Ordering::Relaxed) >> 32) as TierId,
            nino: s.nino.load(Ordering::Relaxed),
            size: s.size.load(Ordering::Relaxed),
            crc: s.tier_crc.load(Ordering::Relaxed) as u32,
            verified: s.flags.load(Ordering::Relaxed) & FLAG_VERIFIED != 0,
            epoch: s.epoch.load(Ordering::Relaxed),
            gen: s.gen.load(Ordering::Relaxed),
        };
        fence(Ordering::Acquire);
        if s.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        Some((e, SlotRef { idx, seq: s1 }))
    }

    /// Finds a stable entry for `(ino, block)`. The caller must still
    /// check the entry's epoch/generation tokens and, after using the
    /// mapping, [`FastPath::revalidate`] the returned [`SlotRef`].
    pub fn lookup(&self, ino: u64, block: u64) -> Option<(Entry, SlotRef)> {
        let base = self.set_of(ino, block);
        for w in 0..WAYS {
            if let Some((e, r)) = self.read_slot(base + w) {
                if e.ino == ino && e.block == block {
                    return Some((e, r));
                }
            }
        }
        None
    }

    /// Whether the slot is unchanged since the lookup that produced `r` —
    /// the post-read half of the seqlock protocol. A `false` answer means
    /// some invalidation (write, migration commit, quarantine, …)
    /// published into the slot while the native read was in flight; the
    /// bytes just read must be discarded.
    pub fn revalidate(&self, r: &SlotRef) -> bool {
        fence(Ordering::Acquire);
        self.slots[r.idx].seq.load(Ordering::Relaxed) == r.seq
    }

    /// Records one fast-path hit on the slot behind `r` and returns the
    /// total hits pending a bookkeeping flush.
    pub fn note_hit(&self, r: &SlotRef) -> u64 {
        if self.slots[r.idx].hits.fetch_add(1, Ordering::Relaxed) == 0 {
            // First hit since the slot was drained: list it. The claim
            // (Release) pairs with the drain's cursor swap (Acquire) and
            // the entry store (Release) with the drain's entry load
            // (Acquire): a drain that sees either also sees the count.
            let cur = self.pending_cursor.fetch_add(1, Ordering::AcqRel);
            if let Some(entry) = self.pending_slots.get((cur & LOW) as usize) {
                entry.store(cur & !LOW | r.idx as u64, Ordering::Release);
            }
        }
        self.pending.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Claims `idx` for writing: CAS even→odd. Best-effort (a concurrent
    /// writer wins and we skip); returns the claimed (odd) value.
    fn claim(&self, idx: usize) -> Option<u64> {
        let s = &self.slots[idx];
        let cur = s.seq.load(Ordering::Relaxed);
        if cur & 1 != 0 {
            return None;
        }
        s.seq
            .compare_exchange(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| cur + 1)
    }

    fn publish(&self, idx: usize, odd: u64) {
        fence(Ordering::Release);
        self.slots[idx].seq.store(odd + 1, Ordering::Release);
    }

    /// Inserts (or refreshes) a mapping. `epoch`/`gen` are the global
    /// tokens the *caller* sampled before resolving the mapping — never
    /// current values, so a concurrent epoch bump invalidates the entry
    /// rather than racing it. Best-effort under contention.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        ino: u64,
        block: u64,
        tier: TierId,
        nino: u64,
        size: u64,
        crc: u32,
        verified: bool,
        epoch: u64,
        gen: u64,
    ) {
        let base = self.set_of(ino, block);
        // Way choice: the key's own slot, else an empty/stale way, else
        // the set's round-robin victim.
        let mut way = None;
        for w in 0..WAYS {
            match self.read_slot(base + w) {
                Some((e, _)) if e.ino == ino && e.block == block => {
                    way = Some(w);
                    break;
                }
                Some((e, _)) if e.ino == 0 || e.epoch != self.epoch() => {
                    way.get_or_insert(w);
                }
                _ => {}
            }
        }
        let set = base / WAYS;
        let w = way
            .unwrap_or_else(|| self.victims[set].fetch_add(1, Ordering::Relaxed) as usize % WAYS);
        let idx = base + w;
        let Some(odd) = self.claim(idx) else {
            return;
        };
        let s = &self.slots[idx];
        s.ino.store(ino, Ordering::Relaxed);
        s.block.store(block, Ordering::Relaxed);
        s.nino.store(nino, Ordering::Relaxed);
        s.size.store(size, Ordering::Relaxed);
        s.tier_crc
            .store((tier as u64) << 32 | crc as u64, Ordering::Relaxed);
        s.flags
            .store(if verified { FLAG_VERIFIED } else { 0 }, Ordering::Relaxed);
        s.epoch.store(epoch, Ordering::Relaxed);
        s.gen.store(gen, Ordering::Relaxed);
        s.hits.store(0, Ordering::Relaxed);
        self.publish(idx, odd);
    }

    fn invalidate_idx(&self, idx: usize) -> bool {
        let Some(odd) = self.claim(idx) else {
            // Mid-write by a concurrent inserter: its own owner/version
            // check — after the insert, or around it under the file's
            // state lock — covers this slot (module docs).
            return false;
        };
        self.slots[idx].ino.store(0, Ordering::Relaxed);
        self.publish(idx, odd);
        true
    }

    /// Drops the entry for `(ino, block)` if present.
    pub fn invalidate(&self, ino: u64, block: u64) -> bool {
        self.invalidate_blocks(ino, block, 1, None) > 0
    }

    /// Drops every entry of `ino` (full-slot sweep); returns how many.
    pub fn invalidate_file(&self, ino: u64) -> u64 {
        let mut n = 0;
        for idx in 0..self.slots.len() {
            if self.slots[idx].ino.load(Ordering::Relaxed) == ino && self.invalidate_idx(idx) {
                n += 1;
            }
        }
        n
    }

    /// Drops entries of `ino` in `[first, first + nblocks)` by direct set
    /// probing — O(blocks), for the write path; returns how many. With
    /// `tier`, only where the cached mapping points at that tier: retiring
    /// one residency of a mirrored block must not evict the other copy's
    /// hot mapping (an unmirror on the slow tier leaves the fast
    /// primary's entries serving).
    pub fn invalidate_blocks(
        &self,
        ino: u64,
        first: u64,
        nblocks: u64,
        tier: Option<TierId>,
    ) -> u64 {
        let mut n = 0;
        for b in first..first.saturating_add(nblocks) {
            let base = self.set_of(ino, b);
            for w in 0..WAYS {
                if let Some((e, _)) = self.read_slot(base + w) {
                    if e.ino == ino && e.block == b {
                        if tier.is_none_or(|t| e.tier == t) && self.invalidate_idx(base + w) {
                            n += 1;
                        }
                        break;
                    }
                }
            }
        }
        n
    }

    /// Hits accumulated since the last [`FastPath::take_pending`].
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Drains the per-slot hit counters for a bookkeeping flush: returns
    /// `(ino, block, tier, hits)` per slot that saw fast-path traffic, in
    /// slot-index order (the heat map's float sums and the recency ladder
    /// depend on the order). Advisory by design — a hit racing the drain
    /// lands in the next flush, and a slot rewritten mid-drain forfeits
    /// its count.
    pub fn take_pending(&self) -> Vec<(u64, u64, TierId, u64)> {
        self.pending.store(0, Ordering::Relaxed);
        // Close the current epoch's list and open the next.
        let cur = self
            .pending_cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                Some((c & !LOW).wrapping_add(1 << 32))
            })
            .expect("the update closure never declines");
        let (epoch, claimed) = (cur & !LOW, (cur & LOW) as usize);
        // Every claimed entry must carry this epoch's tag: one that does
        // not belongs to a reader between its claim and its store, and
        // only the full sweep can find that reader's slot.
        let mut listed = Vec::with_capacity(claimed.min(self.pending_slots.len()));
        let complete = self.pending_slots.get(..claimed).is_some_and(|entries| {
            entries.iter().all(|entry| {
                let e = entry.load(Ordering::Acquire);
                listed.push((e & LOW) as usize);
                e & !LOW == epoch
            })
        });
        if !complete {
            return self.drain_all();
        }
        // A slot re-inserted between drains is listed once per key.
        listed.sort_unstable();
        listed.dedup();
        listed
            .into_iter()
            .filter_map(|idx| self.drain_slot(idx))
            .collect()
    }

    /// The full sweep: every slot, in index order.
    fn drain_all(&self) -> Vec<(u64, u64, TierId, u64)> {
        (0..self.slots.len())
            .filter_map(|idx| self.drain_slot(idx))
            .collect()
    }

    /// Takes one slot's hit count, with the mapping it belongs to.
    fn drain_slot(&self, idx: usize) -> Option<(u64, u64, TierId, u64)> {
        let s = &self.slots[idx];
        if s.hits.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let hits = s.hits.swap(0, Ordering::Relaxed);
        let (e, _) = self.read_slot(idx)?;
        (hits != 0 && e.ino != 0).then_some((e.ino, e.block, e.tier, hits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fp() -> FastPath {
        FastPath::new(64)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let f = fp();
        f.insert(7, 3, 1, 42, 8192, 0xDEAD_BEEF, true, f.epoch(), 5);
        let (e, r) = f.lookup(7, 3).expect("hit");
        assert_eq!(
            (e.ino, e.block, e.tier, e.nino, e.size),
            (7, 3, 1, 42, 8192)
        );
        assert_eq!(e.crc, 0xDEAD_BEEF);
        assert!(e.verified);
        assert_eq!(e.gen, 5);
        assert!(f.revalidate(&r));
        assert!(f.lookup(7, 4).is_none());
        assert!(f.lookup(8, 3).is_none());
    }

    #[test]
    fn invalidate_drops_the_entry_and_fails_revalidate() {
        let f = fp();
        f.insert(7, 3, 0, 1, 4096, 0, false, f.epoch(), 0);
        let (_, r) = f.lookup(7, 3).unwrap();
        assert!(f.invalidate(7, 3));
        assert!(f.lookup(7, 3).is_none());
        assert!(!f.revalidate(&r), "in-flight readers must discard");
        assert!(!f.invalidate(7, 3), "already gone");
    }

    #[test]
    fn epoch_bump_invalidates_without_touching_slots() {
        let f = fp();
        let e0 = f.epoch();
        f.insert(7, 3, 0, 1, 4096, 0, false, e0, 0);
        f.bump_epoch();
        // The entry is still physically present; the *token* is stale.
        let (e, _) = f.lookup(7, 3).unwrap();
        assert_ne!(e.epoch, f.epoch());
    }

    #[test]
    fn invalidate_file_sweeps_all_blocks() {
        let f = fp();
        for b in 0..32 {
            f.insert(9, b, 0, 1, 1 << 20, 0, false, f.epoch(), 0);
        }
        f.insert(10, 0, 0, 2, 4096, 0, false, f.epoch(), 0);
        // Set conflicts may have evicted a few of the 32, so assert the
        // sweep found *everything still resident*, not the insert count.
        let resident = (0..32).filter(|&b| f.lookup(9, b).is_some()).count() as u64;
        assert!(resident > 0);
        assert_eq!(f.invalidate_file(9), resident);
        for b in 0..32 {
            assert!(f.lookup(9, b).is_none());
        }
        assert!(f.lookup(10, 0).is_some(), "other files untouched");
    }

    #[test]
    fn invalidate_blocks_is_targeted() {
        let f = fp();
        for b in 0..8 {
            f.insert(9, b, 0, 1, 1 << 20, 0, false, f.epoch(), 0);
        }
        assert_eq!(f.invalidate_blocks(9, 2, 3, None), 3);
        assert!(f.lookup(9, 1).is_some());
        assert!(f.lookup(9, 2).is_none());
        assert!(f.lookup(9, 4).is_none());
        assert!(f.lookup(9, 5).is_some());
    }

    #[test]
    fn invalidate_blocks_tier_spares_the_other_residency() {
        let f = fp();
        // Blocks 0..4 cached on tier 0, blocks 4..8 cached on tier 1.
        for b in 0..4 {
            f.insert(9, b, 0, 1, 1 << 20, 0, false, f.epoch(), 0);
        }
        for b in 4..8 {
            f.insert(9, b, 1, 2, 1 << 20, 0, false, f.epoch(), 0);
        }
        // Retiring tier 1's residency of the whole range only kills the
        // tier-1 mappings; tier 0's stay hot.
        assert_eq!(f.invalidate_blocks(9, 0, 8, Some(1)), 4);
        for b in 0..4 {
            assert!(f.lookup(9, b).is_some(), "tier-0 mapping evicted");
        }
        for b in 4..8 {
            assert!(f.lookup(9, b).is_none(), "tier-1 mapping survived");
        }
        // A second sweep finds nothing.
        assert_eq!(f.invalidate_blocks(9, 0, 8, Some(1)), 0);
    }

    #[test]
    fn set_associativity_tolerates_colliding_keys() {
        // Force collisions by overflowing a tiny cache: every insert must
        // still be retrievable unless evicted by a *full* set, and lookups
        // never return the wrong key.
        let f = FastPath::new(8); // 2 sets × 4 ways
        for b in 0..64u64 {
            f.insert(1, b, 0, 1, 1 << 20, b as u32, false, f.epoch(), 0);
            let (e, _) = f.lookup(1, b).expect("just-inserted key present");
            assert_eq!(e.crc, b as u32);
        }
    }

    #[test]
    fn pending_hits_drain_once() {
        let f = fp();
        f.insert(7, 3, 2, 1, 4096, 0, false, f.epoch(), 0);
        let (_, r) = f.lookup(7, 3).unwrap();
        assert_eq!(f.note_hit(&r), 1);
        assert_eq!(f.note_hit(&r), 2);
        let drained = f.take_pending();
        assert_eq!(drained, vec![(7, 3, 2, 2)]);
        assert!(f.take_pending().is_empty());
        assert_eq!(f.pending(), 0);
    }

    /// The drain this module had before the pending list: every slot, in
    /// index order. The listed drain must return exactly this.
    fn sweep(f: &FastPath) -> Vec<(u64, u64, TierId, u64)> {
        f.pending.store(0, Ordering::Relaxed);
        f.drain_all()
    }

    #[test]
    fn listed_drain_agrees_with_the_full_sweep() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 64 slots list 4 entries (a third of the batches overflow), 1024
        // list 64 (none does): both sides of the fallback.
        for (slots, seed) in [(64, 1u64), (64, 2), (1024, 3), (1024, 4), (1024, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (listed, swept) = (FastPath::new(slots), FastPath::new(slots));
            let mut overflowed = 0;
            for round in 0..400 {
                for _ in 0..rng.gen_range(1..40u32) {
                    let (ino, block) = (rng.gen_range(1..4u64), rng.gen_range(0..64u64));
                    match rng.gen_range(0..10u32) {
                        // Re-inserting a hit slot forfeits its count.
                        0..=2 => {
                            for f in [&listed, &swept] {
                                f.insert(ino, block, 1, ino, 1 << 20, 0, false, 0, 0);
                            }
                        }
                        // So does invalidating it.
                        3 => {
                            for f in [&listed, &swept] {
                                f.invalidate(ino, block);
                            }
                        }
                        _ => {
                            for f in [&listed, &swept] {
                                if let Some((_, r)) = f.lookup(ino, block) {
                                    f.note_hit(&r);
                                }
                            }
                        }
                    }
                }
                let claimed = (listed.pending_cursor.load(Ordering::Relaxed) & LOW) as usize;
                overflowed += usize::from(claimed > listed.pending_slots.len());
                assert_eq!(listed.pending(), swept.pending());
                assert_eq!(
                    listed.take_pending(),
                    sweep(&swept),
                    "slots {slots} seed {seed} round {round}"
                );
                assert_eq!(listed.pending(), 0);
            }
            // Nothing stranded off the list: a sweep finds no leftovers.
            assert!(sweep(&listed).is_empty());
            assert_eq!(overflowed > 100, slots == 64, "{overflowed} overflows");
            assert!(overflowed < 400 && (overflowed == 0 || slots == 64));
        }
    }

    #[test]
    fn a_claimed_but_unwritten_entry_sends_the_drain_to_the_sweep() {
        let f = FastPath::new(1024);
        for b in 0..3 {
            f.insert(7, b, 0, 1, 1 << 20, 0, false, f.epoch(), 0);
        }
        let (_, r0) = f.lookup(7, 0).unwrap();
        let (_, r1) = f.lookup(7, 1).unwrap();
        f.note_hit(&r0);
        // A reader stalled between claiming its entry and writing it.
        f.slots[r1.idx].hits.fetch_add(1, Ordering::Relaxed);
        let claim = f.pending_cursor.fetch_add(1, Ordering::AcqRel);
        let mut drained = f.take_pending();
        drained.sort_unstable();
        assert_eq!(drained, vec![(7, 0, 0, 1), (7, 1, 0, 1)]);
        // Its late store lands in a closed epoch and misleads no later
        // drain: the entry's next claimant is found by the sweep too.
        f.pending_slots[(claim & LOW) as usize]
            .store(claim & !LOW | r1.idx as u64, Ordering::Release);
        let (_, r2) = f.lookup(7, 2).unwrap();
        f.note_hit(&r2);
        f.slots[r0.idx].hits.fetch_add(1, Ordering::Relaxed);
        f.pending_cursor.fetch_add(1, Ordering::AcqRel);
        let mut drained = f.take_pending();
        drained.sort_unstable();
        assert_eq!(drained, vec![(7, 0, 0, 1), (7, 2, 0, 1)]);
        assert!(f.take_pending().is_empty());
    }

    #[test]
    fn concurrent_hammer_never_tears() {
        // N writers rewrite the same keys with self-consistent payloads
        // (nino == crc == size) while readers verify every stable snapshot
        // is internally consistent — the seqlock's whole contract.
        let f = Arc::new(FastPath::new(16));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let f = Arc::clone(&f);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let v = t * 1_000_000 + i;
                    f.insert(1, i % 8, 0, v, v, v as u32, false, f.epoch(), 0);
                    if i.is_multiple_of(3) {
                        f.invalidate(1, (i + 1) % 8);
                    }
                    i += 1;
                }
            }));
        }
        for _ in 0..2 {
            let f = Arc::clone(&f);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    for b in 0..8 {
                        if let Some((e, r)) = f.lookup(1, b) {
                            assert_eq!(e.nino, e.size, "torn slot observed");
                            assert_eq!(e.nino as u32, e.crc, "torn slot observed");
                            let _ = f.revalidate(&r);
                            seen += 1;
                        }
                    }
                }
                assert!(seen > 0);
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
