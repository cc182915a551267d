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
    /// Circuit-breaker state (see [`crate::health`]). Policies must not
    /// place new data on tiers that are not [`TierStatus::is_writable`].
    pub health: TierHealthState,
}

impl TierStatus {
    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_bytes == 0 {
            return 1.0;
        }
        1.0 - self.free_bytes as f64 / self.total_bytes as f64
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

/// One block range of one file, as shown to `plan_migrations`.
#[derive(Debug, Clone)]
pub struct FileView {
    /// File identity.
    pub ino: MuxIno,
    /// `(block, n_blocks, tier)` extents.
    pub extents: Vec<(u64, u64, TierId)>,
    /// `(block, n_blocks, tier)` replica (mirror) ranges — extra read-only
    /// copies beyond the primary extents above.
    pub replicas: Vec<(u64, u64, TierId)>,
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

/// A tiering policy: placement + access tracking + migration planning.
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

    /// Observes an access (for recency/frequency tracking).
    fn on_access(&self, _ino: MuxIno, _block: u64, _n_blocks: u64, _is_write: bool, _now_ns: u64) {}

    /// Observes that a read was served by a specific (non-fastest) tier —
    /// the promotion signal for policies that "promote data back upon
    /// access" (§3.1).
    fn on_tier_read(&self, _ino: MuxIno, _tier: TierId, _is_fastest: bool, _now_ns: u64) {}

    /// Plans migrations given tier occupancy and file layouts. Called by
    /// the migration engine; an empty plan means nothing to do.
    fn plan_migrations(&self, _tiers: &[TierStatus], _files: &[FileView]) -> Vec<MigrationPlan> {
        Vec::new()
    }

    /// Whether a file is pinned to its current placement. The autotier
    /// engine ([`crate::autotier`]) never plans moves for pinned files.
    /// Defaults to `false`; [`PinnedPolicy`] overrides it.
    fn is_pinned(&self, _ino: MuxIno) -> bool {
        false
    }

    /// The file is gone (unlink): drop whatever per-inode state
    /// [`Self::on_access`] and [`Self::on_tier_read`] accumulated for it,
    /// so that the policy's memory follows the live files.
    fn forget(&self, _ino: MuxIno) {}
}

fn fastest_with_space(tiers: &[TierStatus], need: u64, watermark: f64) -> TierId {
    // Sick (read-only / offline) tiers are vetoed for new placements; if
    // every tier is sick, fall back to considering all of them — Mux's
    // write path makes the final call and will surface the error.
    let mut sorted: Vec<&TierStatus> = tiers.iter().filter(|t| t.is_writable()).collect();
    if sorted.is_empty() {
        sorted = tiers.iter().collect();
    }
    sorted.sort_by_key(|t| t.class);
    for t in &sorted {
        if t.free_bytes > need && t.utilization() < watermark {
            return t.id;
        }
    }
    // Everything is above the watermark: the tier with the most room.
    sorted
        .iter()
        .max_by_key(|t| t.free_bytes)
        .map(|t| t.id)
        .unwrap_or(0)
}

#[allow(dead_code)] // used by custom policies built on these helpers
fn next_slower(tiers: &[TierStatus], from: TierId) -> Option<TierId> {
    let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
    sorted.sort_by_key(|t| t.class);
    let pos = sorted.iter().position(|t| t.id == from)?;
    sorted.get(pos + 1).map(|t| t.id)
}

// ---------------------------------------------------------------------
// LRU (the paper's evaluation policy)
// ---------------------------------------------------------------------

/// The paper's §3.1 policy: place on the fastest tier, demote cold files
/// when a tier fills beyond the high watermark, promote on access.
pub struct LruPolicy {
    inner: Mutex<LruInner>,
    /// Demote when utilization exceeds this.
    pub high_watermark: f64,
    /// Demote until utilization falls below this.
    pub low_watermark: f64,
}

struct LruInner {
    /// ino → last access (virtual ns).
    last_access: HashMap<MuxIno, u64>,
    /// Files recently read from a slower tier (promotion candidates).
    promote: HashMap<MuxIno, u64>,
}

impl LruPolicy {
    /// Watermarks in `[0,1]`, `low < high`.
    pub fn new(low_watermark: f64, high_watermark: f64) -> Self {
        LruPolicy {
            inner: Mutex::new(LruInner {
                last_access: HashMap::new(),
                promote: HashMap::new(),
            }),
            high_watermark,
            low_watermark,
        }
    }

    /// Default 70 % / 90 % watermarks.
    pub fn default_watermarks() -> Self {
        Self::new(0.70, 0.90)
    }

    /// Marks a file as a promotion candidate (Mux calls this when a read
    /// is served by a non-fastest tier).
    pub fn note_slow_read(&self, ino: MuxIno, now_ns: u64) {
        self.inner.lock().promote.insert(ino, now_ns);
    }

    /// Inodes the policy holds access or promotion state for.
    pub fn tracked(&self) -> usize {
        let inner = self.inner.lock();
        inner.last_access.len().max(inner.promote.len())
    }
}

impl TieringPolicy for LruPolicy {
    fn name(&self) -> &str {
        "lru"
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        fastest_with_space(ctx.tiers, ctx.len, self.high_watermark)
    }

    fn on_access(&self, ino: MuxIno, _block: u64, _n: u64, _w: bool, now_ns: u64) {
        self.inner.lock().last_access.insert(ino, now_ns);
    }

    fn on_tier_read(&self, ino: MuxIno, _tier: TierId, is_fastest: bool, now_ns: u64) {
        if !is_fastest {
            self.note_slow_read(ino, now_ns);
        }
    }

    fn forget(&self, ino: MuxIno) {
        let mut inner = self.inner.lock();
        inner.last_access.remove(&ino);
        inner.promote.remove(&ino);
    }

    fn plan_migrations(&self, tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        let mut inner = self.inner.lock();
        let mut plans = Vec::new();
        let mut sorted: Vec<&TierStatus> = tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        // Demotion: for each over-watermark tier, move the coldest files'
        // blocks down until we would be under the low watermark.
        for (i, t) in sorted.iter().enumerate() {
            if t.utilization() <= self.high_watermark {
                continue;
            }
            let Some(down) = sorted.get(i + 1).map(|d| d.id) else {
                continue; // bottom tier: nowhere to demote
            };
            let mut need_bytes =
                ((t.utilization() - self.low_watermark) * t.total_bytes as f64) as u64;
            // Coldest first.
            let mut candidates: Vec<&FileView> = files
                .iter()
                .filter(|f| f.extents.iter().any(|&(_, _, tid)| tid == t.id))
                .collect();
            candidates.sort_by_key(|f| inner.last_access.get(&f.ino).copied().unwrap_or(0));
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
        // Promotion: recently-touched files with blocks below the fastest
        // tier move up if there is room. A candidate stays one until it is
        // wholly on the fastest tier, or gone.
        if let Some(fast) = sorted.first() {
            let mut room = fast
                .free_bytes
                .saturating_sub(((1.0 - self.high_watermark) * fast.total_bytes as f64) as u64);
            let by_ino: HashMap<MuxIno, &FileView> = if inner.promote.is_empty() {
                HashMap::new()
            } else {
                files.iter().map(|f| (f.ino, f)).collect()
            };
            inner.promote.retain(|ino, _| {
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
            if t.free_bytes <= ctx.len || !t.is_writable() {
                return fastest_with_space(ctx.tiers, ctx.len, 0.99);
            }
        }
        preferred
    }
}

// ---------------------------------------------------------------------
// Hot / cold classification
// ---------------------------------------------------------------------

/// Frequency-based classification with exponential decay: hot files place
/// and stay on the fastest tier, cold files sink.
pub struct HotColdPolicy {
    scores: Mutex<HashMap<MuxIno, f64>>,
    /// Score above which a file is hot.
    pub hot_threshold: f64,
    /// Multiplicative decay applied on every planning pass.
    pub decay: f64,
}

impl HotColdPolicy {
    /// Standard parameters.
    pub fn new() -> Self {
        HotColdPolicy {
            scores: Mutex::new(HashMap::new()),
            hot_threshold: 4.0,
            decay: 0.5,
        }
    }

    /// Current hotness of a file.
    pub fn score(&self, ino: MuxIno) -> f64 {
        self.scores.lock().get(&ino).copied().unwrap_or(0.0)
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
        let hot = self.score(ctx.ino) >= self.hot_threshold;
        let mut sorted: Vec<&TierStatus> = ctx.tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        let pick = if hot { sorted.first() } else { sorted.last() };
        let preferred = pick.map(|t| t.id).unwrap_or(0);
        if let Some(t) = ctx.tiers.iter().find(|t| t.id == preferred) {
            if t.free_bytes <= ctx.len || !t.is_writable() {
                return fastest_with_space(ctx.tiers, ctx.len, 0.99);
            }
        }
        preferred
    }

    fn on_access(&self, ino: MuxIno, _block: u64, n: u64, _w: bool, _now: u64) {
        *self.scores.lock().entry(ino).or_insert(0.0) += 1.0 + (n as f64).log2().max(0.0) * 0.1;
    }

    fn forget(&self, ino: MuxIno) {
        self.scores.lock().remove(&ino);
    }

    fn plan_migrations(&self, tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        let mut scores = self.scores.lock();
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
            let hot = scores.get(&f.ino).copied().unwrap_or(0.0) >= self.hot_threshold;
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
        for v in scores.values_mut() {
            *v *= self.decay;
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
    counter: Mutex<u64>,
    /// Stripe unit in blocks.
    pub stripe_blocks: u64,
}

impl StripingPolicy {
    /// Stripe unit in Mux blocks.
    pub fn new(stripe_blocks: u64) -> Self {
        StripingPolicy {
            counter: Mutex::new(0),
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
        let mut c = self.counter.lock();
        *c += 1;
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

    fn tiers() -> Vec<TierStatus> {
        vec![
            TierStatus {
                id: 0,
                name: "pm".into(),
                class: DeviceClass::Pmem,
                free_bytes: 100 * 4096,
                total_bytes: 1000 * 4096,
                health: TierHealthState::Healthy,
            },
            TierStatus {
                id: 1,
                name: "ssd".into(),
                class: DeviceClass::Ssd,
                free_bytes: 10_000 * 4096,
                total_bytes: 20_000 * 4096,
                health: TierHealthState::Healthy,
            },
            TierStatus {
                id: 2,
                name: "hdd".into(),
                class: DeviceClass::Hdd,
                free_bytes: 100_000 * 4096,
                total_bytes: 100_000 * 4096,
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
        // PM is 90% full (at watermark) → place on SSD.
        assert_eq!(p.place(&ctx(&t, 4096, false)), 1);
        let mut t2 = t.clone();
        t2[0].free_bytes = 900 * 4096; // PM now mostly free
        assert_eq!(p.place(&ctx(&t2, 4096, false)), 0);
    }

    #[test]
    fn lru_demotes_coldest_first() {
        let mut t = tiers();
        t[0].free_bytes = 0; // PM 100% full
        let p = LruPolicy::default_watermarks();
        p.on_access(1, 0, 1, false, 100); // file 1 accessed at t=100
        p.on_access(2, 0, 1, false, 999_999); // file 2 hot
        let files = vec![
            FileView {
                ino: 1,
                extents: vec![(0, 50, 0)],
                replicas: Vec::new(),
            },
            FileView {
                ino: 2,
                extents: vec![(0, 50, 0)],
                replicas: Vec::new(),
            },
        ];
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
        p.note_slow_read(5, 42);
        let files = vec![FileView {
            ino: 5,
            extents: vec![(0, 4, 2)],
            replicas: Vec::new(),
        }];
        let plan = vec![MigrationPlan {
            ino: 5,
            block: 0,
            n_blocks: 4,
            to: 0,
        }];
        assert_eq!(p.plan_migrations(&t, &files), plan);
        // Still a candidate until the move has happened...
        assert_eq!(p.plan_migrations(&t, &files), plan);
        // ...and no longer once the file sits wholly on the fastest tier.
        let promoted = vec![FileView {
            ino: 5,
            extents: vec![(0, 4, 0)],
            replicas: Vec::new(),
        }];
        assert!(p.plan_migrations(&t, &promoted).is_empty());
        assert_eq!(p.tracked(), 0);
        assert!(p.plan_migrations(&t, &files).is_empty());
    }

    #[test]
    fn forgotten_and_vanished_files_leave_no_policy_state() {
        let t = tiers();
        let lru = LruPolicy::default_watermarks();
        let hot = HotColdPolicy::new();
        for ino in 1..=100 {
            lru.on_access(ino, 0, 1, false, ino);
            lru.on_tier_read(ino, 2, false, ino);
            hot.on_access(ino, 0, 1, false, ino);
        }
        assert_eq!(lru.tracked(), 100);
        for ino in 1..=99 {
            lru.forget(ino);
            hot.forget(ino);
        }
        assert_eq!(lru.tracked(), 1);
        assert_eq!(hot.scores.lock().len(), 1);
        // A promotion candidate the planner can no longer find is dropped.
        lru.inner.lock().last_access.clear();
        assert!(lru.plan_migrations(&t, &[]).is_empty());
        assert_eq!(lru.tracked(), 0);
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
        for _ in 0..10 {
            p.on_access(7, 0, 8, false, 0);
        }
        assert!(p.score(7) >= p.hot_threshold);
        let files = vec![
            FileView {
                ino: 7,
                extents: vec![(0, 4, 2)],
                replicas: Vec::new(),
            },
            FileView {
                ino: 8,
                extents: vec![(0, 4, 0)],
                replicas: Vec::new(),
            },
        ];
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
        // Scores decay.
        let before = p.score(7);
        p.plan_migrations(&t, &[]);
        assert!(p.score(7) < before);
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
        let files = vec![FileView {
            ino: 1,
            extents: vec![(0, 4, 0)],
            replicas: Vec::new(),
        }];
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
