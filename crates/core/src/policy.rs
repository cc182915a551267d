//! The Policy Runner: user-defined tiering policies (paper §2.1).
//!
//! "Mux decouples tiering policies from file system implementation. It
//! exposes an interface for users to specify policies on data placement and
//! user request dispatching. All the placement and migration policies in
//! existing tiered file systems can be expressed using simple functions."
//!
//! [`TieringPolicy`] is that interface. Implementations provided here:
//!
//! * [`LruPolicy`] — the policy the paper's evaluation uses: "a simple LRU
//!   policy that evicts cold data to the slower device if no space left on
//!   faster devices, and promotes data back upon access" (§3.1).
//! * [`TpfsPolicy`] — TPFS-style placement "based on the I/O size,
//!   synchronicity, and access history" (§2.1's worked example).
//! * [`HotColdPolicy`] — frequency-based hot/cold classification.
//! * [`PinnedPolicy`] — explicit per-file pinning with a default.
//! * [`StripingPolicy`] — round-robin block striping (load balancing).
//!
//! None of them keeps access state. Mux keeps one access record per inode
//! in [`crate::autotier::HeatMap`] and hands each planner a snapshot of it
//! on [`FileView::heat`], so a planner is a function of `(tiers, files)`.
//! The only per-file state a policy holds is configuration:
//! [`PinnedPolicy`]'s pins.
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

/// One file's access record as a planner sees it: a snapshot of its
/// [`crate::autotier::HeatMap`] entry, all zero for a file with none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Heat {
    /// Decayed access frequency scaled by recency (see
    /// [`crate::autotier::HeatMap`]).
    pub score: f64,
    /// Share of the weighted accesses that were reads.
    pub read_frac: f64,
    /// Virtual ns of the last access.
    pub last_access_ns: u64,
    /// A read was served below the fastest tier since the file was last
    /// seen wholly on it: the promotion signal of a policy that "promotes
    /// data back upon access" (§3.1).
    pub slow_read: bool,
}

/// One file's placement and access record, as shown to the planners.
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

/// A migration the policy wants executed.
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

/// A tiering policy: placement and migration planning over the access
/// record Mux keeps (see [`FileView::heat`]).
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
    /// in [`crate::autotier::HeatMap`], which planners read on
    /// [`FileView::heat`]. It stays only so that implementations that
    /// still define it keep compiling.
    fn on_access(&self, _ino: MuxIno, _block: u64, _n_blocks: u64, _is_write: bool, _now_ns: u64) {}

    /// Mux does not call this hook: a read served below the fastest tier
    /// sets [`Heat::slow_read`] in the access record instead. It stays only
    /// so that implementations that still define it keep compiling.
    fn on_tier_read(&self, _ino: MuxIno, _tier: TierId, _is_fastest: bool, _now_ns: u64) {}

    /// Plans migrations given tier occupancy, file layouts and access
    /// records. Called by the migration engine; an empty plan means
    /// nothing to do.
    fn plan_migrations(&self, _tiers: &[TierStatus], _files: &[FileView]) -> Vec<MigrationPlan> {
        Vec::new()
    }

    /// Whether a file is pinned to its current placement. The autotier
    /// engine ([`crate::autotier`]) never plans moves for pinned files.
    /// Defaults to `false`; [`PinnedPolicy`] overrides it.
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

/// The paper's §3.1 policy: place on the fastest tier with room, demote the
/// least recently accessed files off a tier that has dipped into its
/// reserve — only as much as it is short — and promote files whose reads
/// were served below the fastest tier while that tier has room. "Room" is
/// the one capacity rule, [`TierStatus::has_room`]; there is no fractional
/// watermark to set.
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

    fn plan_migrations(&self, tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        // Demotion: a tier short of its reserve moves the coldest files'
        // blocks down until it is not.
        for (i, t) in sorted.iter().enumerate() {
            let mut need_bytes = t.reserve_bytes.saturating_sub(t.free_bytes);
            if need_bytes == 0 {
                continue;
            }
            let Some(down) = sorted.get(i + 1).map(|d| d.id) else {
                continue; // bottom tier: nowhere to demote
            };
            // Least recently accessed first.
            let mut candidates: Vec<&FileView> = files
                .iter()
                .filter(|f| f.extents.iter().any(|&(_, _, tid)| tid == t.id))
                .collect();
            candidates.sort_by_key(|f| f.heat.last_access_ns);
            for f in candidates {
                if need_bytes == 0 {
                    break;
                }
                for &(block, n, tid) in &f.extents {
                    if tid != t.id || need_bytes == 0 {
                        continue;
                    }
                    plans.push(MigrationPlan {
                        ino: f.ino,
                        block,
                        n_blocks: n,
                        to: down,
                    });
                    need_bytes = need_bytes.saturating_sub(n * crate::types::BLOCK);
                }
            }
        }
        // Promotion: files a read found below the fastest tier move up if
        // there is room. Mux keeps the mark until the file sits wholly on
        // the fastest tier ([`crate::Mux::run_policy_migrations`]).
        if let Some(fast) = sorted.first() {
            let mut room = fast.room();
            for f in files.iter().filter(|f| f.heat.slow_read) {
                for &(block, n, tid) in &f.extents {
                    if tid == fast.id || room == 0 {
                        continue;
                    }
                    plans.push(MigrationPlan {
                        ino: f.ino,
                        block,
                        n_blocks: n,
                        to: fast.id,
                    });
                    room = room.saturating_sub(n * crate::types::BLOCK);
                }
            }
        }
        plans
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

/// Frequency-based classification: a file whose heat score reaches
/// `hot_threshold` moves to the fastest tier, every other file sinks to
/// the slowest. Placement sees no access record, so new data lands where
/// cold data belongs and moves up once planning finds it hot.
pub struct HotColdPolicy {
    /// Score ([`Heat::score`]) at or above which a file is hot.
    pub hot_threshold: f64,
}

impl HotColdPolicy {
    /// Standard parameters.
    pub fn new() -> Self {
        HotColdPolicy { hot_threshold: 4.0 }
    }
}

impl Default for HotColdPolicy {
    fn default() -> Self {
        Self::new()
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

    fn plan_migrations(&self, tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        let (Some(fast), Some(slow)) = (sorted.first(), sorted.last()) else {
            return Vec::new();
        };
        if fast.id == slow.id {
            return Vec::new();
        }
        let mut plans = Vec::new();
        for f in files {
            let hot = f.heat.score >= self.hot_threshold;
            for &(block, n, tid) in &f.extents {
                if hot && tid != fast.id && fast.free_bytes > n * crate::types::BLOCK {
                    plans.push(MigrationPlan {
                        ino: f.ino,
                        block,
                        n_blocks: n,
                        to: fast.id,
                    });
                } else if !hot && tid == fast.id {
                    plans.push(MigrationPlan {
                        ino: f.ino,
                        block,
                        n_blocks: n,
                        to: slow.id,
                    });
                }
            }
        }
        plans
    }
}

// ---------------------------------------------------------------------
// Pinned
// ---------------------------------------------------------------------

/// Explicit placement: pinned files go where they are pinned, everything
/// else to `default_tier`.
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

    /// Pins a file to a tier (affects future placement and planning).
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

    fn plan_migrations(&self, _tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        let pins = self.pins.lock();
        let mut plans = Vec::new();
        for f in files {
            let Some(&want) = pins.get(&f.ino) else {
                continue;
            };
            for &(block, n, tid) in &f.extents {
                if tid != want {
                    plans.push(MigrationPlan {
                        ino: f.ino,
                        block,
                        n_blocks: n,
                        to: want,
                    });
                }
            }
        }
        plans
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

    fn view(ino: MuxIno, extents: Vec<(u64, u64, TierId)>) -> FileView {
        FileView {
            ino,
            extents,
            ..FileView::default()
        }
    }

    #[test]
    fn lru_demotes_coldest_first() {
        let mut t = tiers();
        t[0].free_bytes = 0; // PM 100% full
        let p = LruPolicy::default_watermarks();
        let mut files = vec![view(1, vec![(0, 50, 0)]), view(2, vec![(0, 50, 0)])];
        files[0].heat.last_access_ns = 100; // file 1 accessed at t=100
        files[1].heat.last_access_ns = 999_999; // file 2 hot
        let plans = p.plan_migrations(&t, &files);
        assert!(!plans.is_empty());
        // Coldest (ino 1) must be demoted before ino 2, to the SSD.
        assert_eq!(plans[0].ino, 1);
        assert_eq!(plans[0].to, 1);
    }

    #[test]
    fn lru_promotes_slow_reads() {
        let mut t = tiers();
        t[0].free_bytes = 900 * 4096;
        let p = LruPolicy::default_watermarks();
        let heat = HeatMap::new(4);
        heat.record_all(42, [(5, 4, false)]);
        heat.note_slow_read(5);
        let mut files = vec![view(5, vec![(0, 4, 2)])];
        heat.fill(&mut files);
        let plan = vec![MigrationPlan {
            ino: 5,
            block: 0,
            n_blocks: 4,
            to: 0,
        }];
        assert_eq!(p.plan_migrations(&t, &files), plan);
        // Still a candidate until the move has happened...
        heat.clear_slow_reads(0, &files);
        heat.fill(&mut files);
        assert_eq!(p.plan_migrations(&t, &files), plan);
        // ...and no longer once the file sits wholly on the fastest tier.
        let mut promoted = vec![view(5, vec![(0, 4, 0)])];
        heat.fill(&mut promoted);
        assert!(p.plan_migrations(&t, &promoted).is_empty());
        heat.clear_slow_reads(0, &promoted);
        heat.fill(&mut files);
        assert!(!files[0].heat.slow_read);
        assert!(p.plan_migrations(&t, &files).is_empty());
    }

    #[test]
    fn forgotten_and_vanished_files_leave_no_policy_state() {
        let heat = HeatMap::new(4);
        for ino in 1..=100 {
            heat.record_all(ino, [(ino, 1, false)]);
            heat.note_slow_read(ino);
        }
        assert_eq!(heat.tracked(), 100);
        for ino in 1..=99 {
            heat.forget(ino);
        }
        assert_eq!(heat.tracked(), 1);
        // A slow read of a file already gone leaves no record behind.
        heat.note_slow_read(7);
        assert_eq!(heat.tracked(), 1);
        assert_eq!(heat.heat(7), Heat::default());
    }

    #[test]
    fn planning_twice_over_the_same_views_gives_the_same_plans() {
        let mut t = tiers();
        t[0].free_bytes = 900 * 4096; // PM has room for promotions
        let heat = HeatMap::new(4);
        for _ in 0..4 {
            heat.record_all(1, [(1, 8, false)]); // hot: score 5.2
        }
        heat.record_all(2, [(2, 1, false)]);
        heat.note_slow_read(2);
        let mut files = vec![
            view(1, vec![(0, 4, 2)]),
            view(2, vec![(0, 4, 1)]),
            view(3, vec![(0, 60, 0)]),
        ];
        heat.fill(&mut files);
        let policies: [&dyn TieringPolicy; 2] =
            [&LruPolicy::default_watermarks(), &HotColdPolicy::new()];
        for p in policies {
            let first = p.plan_migrations(&t, &files);
            assert!(!first.is_empty(), "{} plans nothing", p.name());
            assert_eq!(p.plan_migrations(&t, &files), first, "{}", p.name());
        }
    }

    /// The stateful LRU planner the access record replaced, kept as the
    /// oracle the record-driven [`LruPolicy`] is checked against. It kept
    /// its own last access times and promotion candidates, and dropped a
    /// candidate while planning. It visited candidates in `HashMap` order,
    /// which is unspecified; the `BTreeMap` here visits them in inode
    /// order, the order of the views.
    struct StatefulLru {
        last_access: HashMap<MuxIno, u64>,
        promote: std::collections::BTreeMap<MuxIno, u64>,
    }

    impl StatefulLru {
        fn plan_migrations(
            &mut self,
            tiers: &[TierStatus],
            files: &[FileView],
        ) -> Vec<MigrationPlan> {
            let mut plans = Vec::new();
            let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
            sorted.sort_by_key(|t| t.class);
            for (i, t) in sorted.iter().enumerate() {
                let mut need_bytes = t.reserve_bytes.saturating_sub(t.free_bytes);
                if need_bytes == 0 {
                    continue;
                }
                let Some(down) = sorted.get(i + 1).map(|d| d.id) else {
                    continue;
                };
                let mut candidates: Vec<&FileView> = files
                    .iter()
                    .filter(|f| f.extents.iter().any(|&(_, _, tid)| tid == t.id))
                    .collect();
                candidates.sort_by_key(|f| self.last_access.get(&f.ino).copied().unwrap_or(0));
                for f in candidates {
                    if need_bytes == 0 {
                        break;
                    }
                    for &(block, n, tid) in &f.extents {
                        if tid != t.id || need_bytes == 0 {
                            continue;
                        }
                        plans.push(MigrationPlan {
                            ino: f.ino,
                            block,
                            n_blocks: n,
                            to: down,
                        });
                        need_bytes = need_bytes.saturating_sub(n * crate::types::BLOCK);
                    }
                }
            }
            if let Some(fast) = sorted.first() {
                let mut room = fast.free_bytes.saturating_sub(fast.reserve_bytes);
                let by_ino: HashMap<MuxIno, &FileView> = files.iter().map(|f| (f.ino, f)).collect();
                self.promote.retain(|ino, _| {
                    let Some(f) = by_ino.get(ino) else {
                        return false;
                    };
                    for &(block, n, tid) in &f.extents {
                        if tid == fast.id || room == 0 {
                            continue;
                        }
                        plans.push(MigrationPlan {
                            ino: *ino,
                            block,
                            n_blocks: n,
                            to: fast.id,
                        });
                        room = room.saturating_sub(n * crate::types::BLOCK);
                    }
                    f.extents.iter().any(|&(_, _, tid)| tid != fast.id)
                });
            }
            plans
        }
    }

    /// Seeded scripts of accesses, slow reads, creates, unlinks and
    /// planning passes, run against the oracle and against the record:
    /// every pass must emit the same plans.
    #[test]
    fn the_record_driven_lru_plans_what_the_stateful_one_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // PM, SSD and HDD capacities in blocks: room for 64 and 256 blocks
        // above the reserve on PM and SSD.
        const CAP: [u64; 3] = [64 + RESERVE / 4096, 256 + RESERVE / 4096, 1 << 20];
        let (mut promotions, mut demotions, mut unlinks) = (0, 0, 0);
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let lru = LruPolicy::default_watermarks();
            let mut oracle = StatefulLru {
                last_access: HashMap::new(),
                promote: Default::default(),
            };
            let heat = HeatMap::new(4);
            // ino → the tier of each of its blocks.
            let mut placement: std::collections::BTreeMap<MuxIno, Vec<TierId>> = Default::default();
            let (mut next_ino, mut now) = (1, 0);
            for _ in 0..300 {
                now += rng.gen_range(0..3u64); // repeats share one `now`
                let live: Vec<MuxIno> = placement.keys().copied().collect();
                let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
                match rng.gen_range(0..10u32) {
                    0 | 1 => {
                        // One to three runs, each on its own tier.
                        let mut blocks = Vec::new();
                        for _ in 0..rng.gen_range(1..=3) {
                            let tier = rng.gen_range(0..3u32);
                            blocks.extend(vec![tier; rng.gen_range(1..=6)]);
                        }
                        placement.insert(next_ino, blocks);
                        next_ino += 1;
                    }
                    2 if !live.is_empty() => {
                        let ino = pick(&mut rng);
                        placement.remove(&ino);
                        oracle.last_access.remove(&ino);
                        oracle.promote.remove(&ino);
                        heat.forget(ino);
                        unlinks += 1;
                    }
                    3..=6 if !live.is_empty() => {
                        // A batch at one `now`, as a fast-path drain has.
                        let batch: Vec<MuxIno> =
                            (0..rng.gen_range(1..=4)).map(|_| pick(&mut rng)).collect();
                        for &ino in &batch {
                            oracle.last_access.insert(ino, now);
                        }
                        heat.record_all(now, batch.iter().map(|&ino| (ino, 1, false)));
                    }
                    7 if !live.is_empty() => {
                        // A dispatch read: accounted, then marked when the
                        // tier serving its last block is not the fastest.
                        let ino = pick(&mut rng);
                        oracle.last_access.insert(ino, now);
                        heat.record_all(now, [(ino, 1, false)]);
                        if *placement[&ino].last().unwrap() != 0 {
                            oracle.promote.insert(ino, now);
                            heat.note_slow_read(ino);
                        }
                    }
                    _ => {
                        let t: Vec<TierStatus> = tiers()
                            .into_iter()
                            .zip(CAP)
                            .map(|(mut t, cap)| {
                                let used = placement.values().flatten().filter(|&&b| b == t.id);
                                t.total_bytes = cap * 4096;
                                t.free_bytes = cap.saturating_sub(used.count() as u64) * 4096;
                                t
                            })
                            .collect();
                        let blocks = placement.iter();
                        let mut files: Vec<FileView> =
                            blocks.map(|(&ino, b)| view(ino, extents_of(b))).collect();
                        heat.fill(&mut files);
                        let want = oracle.plan_migrations(&t, &files);
                        let got = lru.plan_migrations(&t, &files);
                        assert_eq!(got, want, "seed {seed}, now {now}");
                        heat.clear_slow_reads(0, &files);
                        for p in got {
                            let blocks = placement.get_mut(&p.ino).unwrap();
                            let range = p.block as usize..(p.block + p.n_blocks) as usize;
                            let up = blocks[range.clone()].iter().all(|&b| b > p.to);
                            if up {
                                promotions += 1
                            } else {
                                demotions += 1
                            }
                            blocks[range].fill(p.to);
                        }
                    }
                }
            }
        }
        assert!(
            promotions > 100 && demotions > 100 && unlinks > 100,
            "{promotions} promotions, {demotions} demotions, {unlinks} unlinks"
        );
    }

    /// Run-length `(block, n_blocks, tier)` extents of a block placement.
    fn extents_of(blocks: &[TierId]) -> Vec<(u64, u64, TierId)> {
        let mut out: Vec<(u64, u64, TierId)> = Vec::new();
        for (b, &tier) in blocks.iter().enumerate() {
            match out.last_mut() {
                Some(e) if e.2 == tier => e.1 += 1,
                _ => out.push((b as u64, 1, tier)),
            }
        }
        out
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
        let t = tiers();
        let p = HotColdPolicy::new();
        let heat = HeatMap::new(4);
        for _ in 0..10 {
            heat.record_all(0, [(7, 8, false)]);
        }
        let mut files = vec![view(7, vec![(0, 4, 2)]), view(8, vec![(0, 4, 0)])];
        heat.fill(&mut files);
        assert!(files[0].heat.score >= p.hot_threshold);
        let plans = p.plan_migrations(&t, &files);
        assert!(plans.contains(&MigrationPlan {
            ino: 7,
            block: 0,
            n_blocks: 4,
            to: 0
        }));
        assert!(plans.contains(&MigrationPlan {
            ino: 8,
            block: 0,
            n_blocks: 4,
            to: 2
        }));
        // New data is cold until planning finds it hot.
        assert_eq!(p.place(&ctx(&t, 4096, false)), 2);
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
        let files = vec![view(1, vec![(0, 4, 0)])];
        let plans = p.plan_migrations(&t, &files);
        assert_eq!(plans[0].to, 2);
        p.unpin(1);
        assert!(p.plan_migrations(&t, &files).is_empty());
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
