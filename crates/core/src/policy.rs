//! The Policy Runner: user-defined tiering policies (paper §2.1).
//!
//! "Mux decouples tiering policies from file system implementation. It
//! exposes an interface for users to specify policies on data placement and
//! user request dispatching. All the placement and migration policies in
//! existing tiered file systems can be expressed using simple functions."
//!
//! [`TieringPolicy`] is that interface: a policy places new data and pins
//! files. Planning — which data moves, and where — is one pure function,
//! [`crate::autotier::plan_epoch`], over the tiers, the files with their
//! access records and the policy's pins; both the autotier tick and
//! [`crate::Mux::run_policy_migrations`] call it. Implementations
//! provided here:
//!
//! * [`LruPolicy`] — the policy the paper's evaluation uses: "a simple LRU
//!   policy that evicts cold data to the slower device if no space left on
//!   faster devices, and promotes data back upon access" (§3.1). It places
//!   on the fastest tier with room; the planner does the rest.
//! * [`TpfsPolicy`] — TPFS-style placement "based on the I/O size,
//!   synchronicity, and access history" (§2.1's worked example).
//! * [`HotColdPolicy`] — new data lands on the slowest tier, and the
//!   planner promotes what turns hot.
//! * [`PinnedPolicy`] — explicit per-file pinning with a default.
//! * [`StripingPolicy`] — round-robin block striping (load balancing).
//!
//! None of them keeps access state. Mux keeps one access record per inode
//! in [`crate::autotier::HeatMap`] and hands the planner a snapshot of it
//! on [`FileView::heat`]. The only per-file state a policy holds is
//! configuration: [`PinnedPolicy`]'s pins.
//!
//! The eBPF-style loadable policy lives in [`crate::policy_vm`].

use std::collections::HashMap;

use parking_lot::Mutex;
use simdev::DeviceClass;

use crate::file::MuxIno;
use crate::health::TierHealthState;
use crate::types::TierId;

/// Live information about one tier, given to policies.
#[derive(Debug, Clone)]
pub struct TierStatus {
    /// Tier id.
    pub id: TierId,
    /// Registration name.
    pub name: String,
    /// Device class (the hierarchy ordering).
    pub class: DeviceClass,
    /// Free capacity in bytes.
    pub free_bytes: u64,
    /// Total capacity in bytes.
    pub total_bytes: u64,
    /// Bytes the tier keeps free: the largest single native write Mux
    /// issues, which a copy-on-write file system must allocate before it
    /// frees the pages it displaces. See [`TierStatus::has_room`].
    pub reserve_bytes: u64,
    /// Circuit-breaker state (see [`crate::health`]). Policies must not
    /// place new data on tiers that are not [`TierStatus::is_writable`].
    pub health: TierHealthState,
}

impl TierStatus {
    /// The capacity rule placement and planning read: the tier has room
    /// for `need` more bytes iff they leave its reserve free. A tier is
    /// full when it has room for less than one native write.
    pub fn has_room(&self, need: u64) -> bool {
        self.free_bytes >= need.saturating_add(self.reserve_bytes)
    }

    /// Bytes that can land here before the tier dips into its reserve.
    pub fn room(&self) -> u64 {
        self.free_bytes.saturating_sub(self.reserve_bytes)
    }

    /// Whether new data may be placed on this tier.
    pub fn is_writable(&self) -> bool {
        matches!(
            self.health,
            TierHealthState::Healthy | TierHealthState::Degraded
        )
    }

    /// Whether reads may be dispatched to this tier.
    pub fn is_readable(&self) -> bool {
        self.health != TierHealthState::Offline
    }
}

/// Context for a placement decision (one contiguous run of new blocks).
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// File being written.
    pub ino: MuxIno,
    /// Byte offset of the run.
    pub off: u64,
    /// Byte length of the run.
    pub len: u64,
    /// Current logical file size.
    pub file_size: u64,
    /// The run starts at or beyond the current end of file.
    pub is_append: bool,
    /// The writer requested synchronous semantics.
    pub sync: bool,
    /// Registered tiers, fastest class first.
    pub tiers: &'a [TierStatus],
}

/// One file's access record as the planner sees it: a snapshot of its
/// [`crate::autotier::HeatMap`] entry, all zero for a file with none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Heat {
    /// Decayed access frequency scaled by recency (see
    /// [`crate::autotier::HeatMap`]).
    pub score: f64,
    /// Share of the weighted accesses that were reads.
    pub read_frac: f64,
}

/// One file's placement and access record, as shown to the planner.
#[derive(Debug, Clone, Default)]
pub struct FileView {
    /// File identity.
    pub ino: MuxIno,
    /// `(block, n_blocks, tier)` extents.
    pub extents: Vec<(u64, u64, TierId)>,
    /// `(block, n_blocks, tier)` replica (mirror) ranges — extra read-only
    /// copies beyond the primary extents above.
    pub replicas: Vec<(u64, u64, TierId)>,
    /// The file's access record when the views were taken.
    pub heat: Heat,
}

/// A range of one file and the tier it moves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// File to move blocks of.
    pub ino: MuxIno,
    /// First block.
    pub block: u64,
    /// Run length.
    pub n_blocks: u64,
    /// Destination tier.
    pub to: TierId,
}

/// A tiering policy: where new data goes, and which files stay put.
/// What moves later is planned by [`crate::autotier::plan_epoch`] from
/// the access record Mux keeps, with [`TieringPolicy::is_pinned`] as its
/// veto.
///
/// # Examples
///
/// "All the placement and migration policies in existing tiered file
/// systems can be expressed using simple functions" (§2.1) — a complete
/// custom policy is one method:
///
/// ```
/// use mux::{PlacementCtx, TierId, TieringPolicy};
///
/// struct AlwaysFastest;
///
/// impl TieringPolicy for AlwaysFastest {
///     fn name(&self) -> &str { "always-fastest" }
///     fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
///         ctx.tiers.iter().min_by_key(|t| t.class).map(|t| t.id).unwrap_or(0)
///     }
/// }
/// ```
pub trait TieringPolicy: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Picks the tier for a run of new blocks.
    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId;

    /// Places a run of new blocks, possibly splitting it across tiers
    /// (striping / load balancing). Returns `(byte_len, tier)` pieces that
    /// must sum to `ctx.len`. The default delegates to [`Self::place`]
    /// without splitting.
    fn place_run(&self, ctx: &PlacementCtx<'_>) -> Vec<(u64, TierId)> {
        vec![(ctx.len, self.place(ctx))]
    }

    /// Mux does not call this hook: accesses go to the one access record
    /// in [`crate::autotier::HeatMap`], which the planner reads on
    /// [`FileView::heat`]. It stays only so that implementations that
    /// still define it keep compiling.
    fn on_access(&self, _ino: MuxIno, _block: u64, _n_blocks: u64, _is_write: bool, _now_ns: u64) {}

    /// Mux does not call this hook: where a read was served is not part
    /// of the access record. It stays only so that implementations that
    /// still define it keep compiling.
    fn on_tier_read(&self, _ino: MuxIno, _tier: TierId, _is_fastest: bool, _now_ns: u64) {}

    /// Mux does not call this hook: every pass plans with
    /// [`crate::autotier::plan_epoch`]. It stays only so that
    /// implementations that still define it keep compiling.
    fn plan_migrations(&self, _tiers: &[TierStatus], _files: &[FileView]) -> Vec<MigrationPlan> {
        Vec::new()
    }

    /// Whether a file is pinned to its current placement: the planner
    /// ([`crate::autotier::plan_epoch`]) never moves it, up or down, nor
    /// mirrors it. Defaults to `false`; [`PinnedPolicy`] overrides it.
    fn is_pinned(&self, _ino: MuxIno) -> bool {
        false
    }

    /// The file is gone (unlink): drop any per-inode configuration the
    /// policy holds for it, such as [`PinnedPolicy`]'s pins.
    fn forget(&self, _ino: MuxIno) {}
}

fn fastest_with_space(tiers: &[TierStatus], need: u64) -> TierId {
    // Sick (read-only / offline) tiers are vetoed for new placements; if
    // every tier is sick, fall back to considering all of them — Mux's
    // write path makes the final call and will surface the error.
    let mut sorted: Vec<&TierStatus> = tiers.iter().filter(|t| t.is_writable()).collect();
    if sorted.is_empty() {
        sorted = tiers.iter().collect();
    }
    sorted.sort_by_key(|t| t.class);
    for t in &sorted {
        if t.has_room(need) {
            return t.id;
        }
    }
    // No tier has room: the one with the most free space.
    sorted
        .iter()
        .max_by_key(|t| t.free_bytes)
        .map(|t| t.id)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// LRU (the paper's evaluation policy)
// ---------------------------------------------------------------------

/// The paper's §3.1 policy: place on the fastest tier with room. The
/// planner ([`crate::autotier::plan_epoch`]) evicts the coldest data off a
/// tier short of its reserve and promotes hot data back; "room" is the one
/// capacity rule, [`TierStatus::has_room`], with no fractional watermark
/// to set.
#[derive(Debug, Default, Clone, Copy)]
pub struct LruPolicy;

impl LruPolicy {
    /// The policy. The name is older than the capacity rule that replaced
    /// its 70 % / 90 % watermarks; callers still use it.
    pub fn default_watermarks() -> Self {
        LruPolicy
    }
}

impl TieringPolicy for LruPolicy {
    fn name(&self) -> &str {
        "lru"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        fastest_with_space(ctx.tiers, ctx.len)
    }
}

// ---------------------------------------------------------------------
// TPFS-style
// ---------------------------------------------------------------------

/// TPFS-style placement: small or synchronous writes go to persistent
/// memory; large asynchronous writes go to the capacity tiers by size band.
pub struct TpfsPolicy {
    /// Writes at or below this size (bytes) go to the fastest tier.
    pub small_threshold: u64,
    /// Writes above this size go to the slowest tier.
    pub large_threshold: u64,
}

impl Default for TpfsPolicy {
    fn default() -> Self {
        TpfsPolicy {
            small_threshold: 64 * 1024,
            large_threshold: 16 * 1024 * 1024,
        }
    }
}

impl TieringPolicy for TpfsPolicy {
    fn name(&self) -> &str {
        "tpfs"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        let mut sorted: Vec<&TierStatus> = ctx.tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        let pick = if ctx.sync || ctx.len <= self.small_threshold {
            sorted.first()
        } else if ctx.len >= self.large_threshold {
            sorted.last()
        } else {
            sorted.get(sorted.len() / 2)
        };
        let preferred = pick.map(|t| t.id).unwrap_or(0);
        // Spill down if the preferred tier is out of space or unhealthy.
        if let Some(t) = ctx.tiers.iter().find(|t| t.id == preferred) {
            if !t.has_room(ctx.len) || !t.is_writable() {
                return fastest_with_space(ctx.tiers, ctx.len);
            }
        }
        preferred
    }
}

// ---------------------------------------------------------------------
// Hot / cold classification
// ---------------------------------------------------------------------

/// Cold-first placement: new data lands on the slowest tier with room,
/// and the planner promotes a file once its heat score reaches
/// [`crate::AutotierConfig::hot_threshold`].
#[derive(Debug, Default, Clone, Copy)]
pub struct HotColdPolicy;

impl HotColdPolicy {
    /// The policy.
    pub fn new() -> Self {
        HotColdPolicy
    }
}

impl TieringPolicy for HotColdPolicy {
    fn name(&self) -> &str {
        "hot-cold"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        let slowest = ctx.tiers.iter().max_by_key(|t| t.class);
        match slowest {
            Some(t) if !t.has_room(ctx.len) || !t.is_writable() => {
                fastest_with_space(ctx.tiers, ctx.len)
            }
            Some(t) => t.id,
            None => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Pinned
// ---------------------------------------------------------------------

/// Explicit placement: pinned files go where they are pinned, everything
/// else to `default_tier`. A pin steers where a file's new data lands and
/// vetoes every planned move of the file; it does not move data the file
/// already has (use [`crate::Mux::migrate_file`] for that).
pub struct PinnedPolicy {
    pins: Mutex<HashMap<MuxIno, TierId>>,
    /// Tier for unpinned files.
    pub default_tier: TierId,
}

impl PinnedPolicy {
    /// All unpinned files go to `default_tier`.
    pub fn new(default_tier: TierId) -> Self {
        PinnedPolicy {
            pins: Mutex::new(HashMap::new()),
            default_tier,
        }
    }

    /// Pins a file to a tier: its new data lands there, and the planner
    /// leaves the file where it is.
    pub fn pin(&self, ino: MuxIno, tier: TierId) {
        self.pins.lock().insert(ino, tier);
    }

    /// Removes a pin.
    pub fn unpin(&self, ino: MuxIno) {
        self.pins.lock().remove(&ino);
    }

    /// Files with an explicit pin.
    pub fn tracked(&self) -> usize {
        self.pins.lock().len()
    }
}

impl TieringPolicy for PinnedPolicy {
    fn name(&self) -> &str {
        "pinned"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        self.pins
            .lock()
            .get(&ctx.ino)
            .copied()
            .unwrap_or(self.default_tier)
    }

    fn is_pinned(&self, ino: MuxIno) -> bool {
        // Only explicit pins count: a `default_tier` placement is a
        // preference, not a pin, so the autotier engine may still move
        // unpinned files.
        self.pins.lock().contains_key(&ino)
    }

    fn forget(&self, ino: MuxIno) {
        self.unpin(ino);
    }
}

// ---------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------

/// Round-robin block striping across all tiers — the load-balancing shape
/// §2.2 mentions ("a file can be stored on multiple devices as a result of
/// load balancing").
pub struct StripingPolicy {
    /// Stripe unit in blocks.
    pub stripe_blocks: u64,
}

impl StripingPolicy {
    /// Stripe unit in Mux blocks.
    pub fn new(stripe_blocks: u64) -> Self {
        StripingPolicy {
            stripe_blocks: stripe_blocks.max(1),
        }
    }
}

impl TieringPolicy for StripingPolicy {
    fn name(&self) -> &str {
        "striping"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        if ctx.tiers.is_empty() {
            return 0;
        }
        let stripe = (ctx.off / crate::types::BLOCK) / self.stripe_blocks;
        let mut sorted: Vec<&TierStatus> = ctx.tiers.iter().collect();
        sorted.sort_by_key(|t| t.id);
        sorted[(stripe % sorted.len() as u64) as usize].id
    }

    fn place_run(&self, ctx: &PlacementCtx<'_>) -> Vec<(u64, TierId)> {
        // Split the run at stripe boundaries so each stripe lands on its
        // own tier.
        let stripe_bytes = self.stripe_blocks * crate::types::BLOCK;
        let mut out = Vec::new();
        let mut off = ctx.off;
        let end = ctx.off + ctx.len;
        while off < end {
            let stripe_end = (off / stripe_bytes + 1) * stripe_bytes;
            let piece = stripe_end.min(end) - off;
            let sub = PlacementCtx {
                ino: ctx.ino,
                off,
                len: piece,
                file_size: ctx.file_size,
                is_append: ctx.is_append,
                sync: ctx.sync,
                tiers: ctx.tiers,
            };
            out.push((piece, self.place(&sub)));
            off += piece;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotier::HeatMap;

    /// The reserve Mux gives every tier: one 512 KiB native write.
    const RESERVE: u64 = 128 * 4096;

    fn tiers() -> Vec<TierStatus> {
        vec![
            TierStatus {
                id: 0,
                name: "pm".into(),
                class: DeviceClass::Pmem,
                free_bytes: 100 * 4096,
                total_bytes: 1000 * 4096,
                reserve_bytes: RESERVE,
                health: TierHealthState::Healthy,
            },
            TierStatus {
                id: 1,
                name: "ssd".into(),
                class: DeviceClass::Ssd,
                free_bytes: 10_000 * 4096,
                total_bytes: 20_000 * 4096,
                reserve_bytes: RESERVE,
                health: TierHealthState::Healthy,
            },
            TierStatus {
                id: 2,
                name: "hdd".into(),
                class: DeviceClass::Hdd,
                free_bytes: 100_000 * 4096,
                total_bytes: 100_000 * 4096,
                reserve_bytes: RESERVE,
                health: TierHealthState::Healthy,
            },
        ]
    }

    fn ctx(tiers: &[TierStatus], len: u64, sync: bool) -> PlacementCtx<'_> {
        PlacementCtx {
            ino: 1,
            off: 0,
            len,
            file_size: 0,
            is_append: true,
            sync,
            tiers,
        }
    }

    #[test]
    fn lru_places_on_fastest_with_room() {
        let t = tiers();
        let p = LruPolicy::default_watermarks();
        // PM has 100 blocks free, short of its 128-block reserve → SSD.
        assert_eq!(p.place(&ctx(&t, 4096, false)), 1);
        let mut t2 = t.clone();
        t2[0].free_bytes = 900 * 4096; // PM now mostly free
        assert_eq!(p.place(&ctx(&t2, 4096, false)), 0);
    }

    #[test]
    fn forgotten_and_vanished_files_leave_no_policy_state() {
        let heat = HeatMap::new(4);
        for ino in 1..=100 {
            heat.record(ino, 1, false);
        }
        assert_eq!(heat.tracked(), 100);
        for ino in 1..=99 {
            heat.forget(ino);
        }
        assert_eq!(heat.tracked(), 1);
        assert_eq!(heat.heat(7), Heat::default());
    }

    #[test]
    fn tpfs_small_and_sync_to_pm_large_to_hdd() {
        let mut t = tiers();
        t[0].free_bytes = 500 * 4096;
        let p = TpfsPolicy::default();
        assert_eq!(p.place(&ctx(&t, 1024, false)), 0, "small write → PM");
        assert_eq!(p.place(&ctx(&t, 1 << 20, true)), 0, "sync write → PM");
        assert_ne!(
            p.place(&ctx(&t, 32 << 20, true)),
            0,
            "sync write larger than PM free space must spill"
        );
        assert_eq!(p.place(&ctx(&t, 32 << 20, false)), 2, "large write → HDD");
        assert_eq!(p.place(&ctx(&t, 1 << 20, false)), 1, "medium → SSD");
    }

    #[test]
    fn tpfs_spills_when_preferred_full() {
        let mut t = tiers();
        t[0].free_bytes = 0;
        let p = TpfsPolicy::default();
        let got = p.place(&ctx(&t, 1024, false));
        assert_ne!(got, 0, "must spill off the full PM tier");
    }

    #[test]
    fn hotcold_learns_and_migrates() {
        let mut t = tiers();
        let p = HotColdPolicy::new();
        // New data is cold: it lands on the HDD...
        assert_eq!(p.place(&ctx(&t, 4096, false)), 2);
        // ...and moves up once its access record says it is hot.
        let heat = HeatMap::new(4);
        for _ in 0..10 {
            heat.record(7, 8, true);
        }
        let mut files = vec![FileView {
            ino: 7,
            extents: vec![(0, 4, 2)],
            ..FileView::default()
        }];
        heat.fill(&mut files);
        let cfg = crate::AutotierConfig::default();
        let plan = crate::autotier::plan_epoch(&cfg, &t, &files, &|ino| p.is_pinned(ino));
        let moves: Vec<_> = plan.actions().filter_map(|a| a.migrate()).collect();
        assert!(
            matches!(moves[..], [(m, true)] if m.ino == 7 && m.to < 2),
            "{moves:?}"
        );
        // A slowest tier without room spills to the fastest with room.
        t[2].free_bytes = 0;
        assert_eq!(p.place(&ctx(&t, 4096, false)), 1);
    }

    #[test]
    fn pinned_policy_honours_pins() {
        let t = tiers();
        let p = PinnedPolicy::new(1);
        assert_eq!(p.place(&ctx(&t, 1, false)), 1);
        assert!(!p.is_pinned(1), "default placement is not a pin");
        p.pin(1, 2);
        assert!(p.is_pinned(1));
        assert_eq!(p.place(&ctx(&t, 1, false)), 2);
        p.unpin(1);
        assert!(!p.is_pinned(1));
        assert_eq!(p.place(&ctx(&t, 1, false)), 1);
    }

    #[test]
    fn placement_vetoes_unwritable_tiers() {
        let mut t = tiers();
        t[0].free_bytes = 900 * 4096; // PM would normally win
        t[0].health = TierHealthState::ReadOnly;
        let lru = LruPolicy::default_watermarks();
        assert_eq!(lru.place(&ctx(&t, 4096, false)), 1, "LRU skips sick PM");
        let tpfs = TpfsPolicy::default();
        assert_ne!(
            tpfs.place(&ctx(&t, 1024, false)),
            0,
            "TPFS small-write preference must yield to health"
        );
        // All tiers sick: fall back to *some* answer (Mux surfaces errors).
        for tier in t.iter_mut() {
            tier.health = TierHealthState::Offline;
        }
        lru.place(&ctx(&t, 4096, false)); // must not panic
    }

    #[test]
    fn striping_distributes_by_offset() {
        let t = tiers();
        let p = StripingPolicy::new(4);
        let mut c = ctx(&t, 4096, false);
        let mut seen = std::collections::HashSet::new();
        for stripe in 0..3u64 {
            c.off = stripe * 4 * 4096;
            seen.insert(p.place(&c));
        }
        assert_eq!(seen.len(), 3, "three stripes → three tiers");
        // Same stripe → same tier (deterministic).
        c.off = 0;
        let a = p.place(&c);
        let b = p.place(&c);
        assert_eq!(a, b);
    }
}
