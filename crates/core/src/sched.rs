//! The I/O scheduler (paper §4, "Improving The I/O Scheduler").
//!
//! "We currently use a simple scheduling algorithm based on device profiles
//! (performance characteristics and feature sets)." Background I/O
//! (migration copies, cache fills) is queued per tier and drained in a
//! device-appropriate order: elevator (offset-sorted, adjacent requests
//! merged) for seek-bound devices, FIFO with merging for solid-state
//! devices. Foreground user I/O never queues — it dispatches directly —
//! so the scheduler shapes only Mux's own asynchronous work.
//!
//! # Multi-tenant QoS
//!
//! Because Mux owns this seam (rather than a device driver), it is also
//! where per-tenant policy lives:
//!
//! * **Weighted fair queueing** — when a drained batch holds requests
//!   from more than one tenant, each tenant's sub-batch keeps its
//!   device-appropriate order, and the sub-batches are interleaved by
//!   virtual finish time (`bytes / weight`), so a tenant with weight 3
//!   gets ~3× the bytes of a weight-1 tenant in any drain prefix.
//! * **Per-tenant rate limits** — a [`TokenBucket`] per tenant
//!   (generalizing the autotier executor's global bucket) paces each
//!   tenant's background bytes independently.
//! * **Admission control** — [`IoScheduler::admit_background`] defers or
//!   sheds a tenant's background work when the destination tier is
//!   saturated *and* that tenant is already over its fair share of
//!   recent background bytes there.
//!
//! All of it is driven from `maintenance_tick` on the virtual clock, so
//! scheduling decisions stay deterministic and crash-enumerable.
//!
//! Tenant identity travels with the calling thread
//! ([`set_thread_tenant`]) because the [`tvfs::FileSystem`] call surface
//! cannot grow a tenant argument without breaking every native file
//! system; files remember the tenant that created them for background
//! attribution (runtime-only — remounted files default to tenant 0).

use std::cell::Cell;
use std::collections::HashMap;

use parking_lot::Mutex;
use simdev::DeviceProfile;

use crate::types::{TenantId, TierId, MAX_TENANTS};

thread_local! {
    static THREAD_TENANT: Cell<TenantId> = const { Cell::new(0) };
}

/// Tags the calling thread's subsequent Mux operations with `tenant`.
/// Workload drivers call this once per worker; untagged threads are
/// tenant 0.
pub fn set_thread_tenant(tenant: TenantId) {
    THREAD_TENANT.with(|t| t.set(tenant));
}

/// The calling thread's current tenant tag (0 if never set).
pub fn thread_tenant() -> TenantId {
    THREAD_TENANT.with(|t| t.get())
}

/// Clamps a tenant id onto a fixed accounting slot (ids at or above
/// [`MAX_TENANTS`] share the last slot, mirroring the tier-slot clamp in
/// the latency registry).
pub fn tenant_slot(tenant: TenantId) -> usize {
    (tenant as usize).min(MAX_TENANTS - 1)
}

/// Multi-tenant QoS knobs for the I/O scheduler seam.
///
/// The defaults are behavior-neutral for a single-tenant workload: one
/// tenant is always exactly at its fair share (never over), so admission
/// always admits, and a lone tenant's drains skip the fair-queue
/// interleave entirely.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Master switch for admission control and per-tenant pacing. Fair
    /// queueing in drains is always on (it is a no-op for one tenant).
    pub enabled: bool,
    /// Fair-share weights per tenant slot (see [`tenant_slot`]). A zero
    /// weight is treated as 1.
    pub weights: [u32; MAX_TENANTS],
    /// Per-tenant background byte rate; 0 = unlimited (no per-tenant
    /// bucket).
    pub tenant_rate_bytes_per_sec: u64,
    /// Per-tenant bucket capacity (burst) in bytes.
    pub tenant_burst_bytes: u64,
    /// A tier is *saturated* for admission once its utilization reaches
    /// this fraction; over-share tenants are deferred beyond it.
    pub admit_utilization: f64,
    /// Over-share tenants are shed (dropped, not just deferred) once
    /// utilization reaches this fraction.
    pub shed_utilization: f64,
    /// Half-life of the decayed per-tenant share ledger: how quickly a
    /// burst of background bytes stops counting against a tenant.
    pub share_half_life_ns: u64,
    /// A tier also counts as saturated when its recent dispatch retries
    /// ([`IoScheduler::recent_retries`]) reach this count; 0 disables
    /// the retry trigger.
    pub saturation_retries: u64,
    /// Width of one retry accounting window.
    pub retry_window_ns: u64,
    /// Upper bound on a merged request's length in a drain. Caps how
    /// much adjacent-request coalescing can defeat token-bucket
    /// granularity; a merged request never exceeds this, and requests
    /// submitted larger than it are left unmerged.
    pub max_merge_bytes: u64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            enabled: true,
            weights: [1; MAX_TENANTS],
            tenant_rate_bytes_per_sec: 0,
            tenant_burst_bytes: 8 << 20,
            admit_utilization: 0.75,
            shed_utilization: 0.95,
            share_half_life_ns: 1_000_000_000,
            saturation_retries: 8,
            retry_window_ns: 1_000_000_000,
            max_merge_bytes: 1 << 20,
        }
    }
}

impl QosConfig {
    /// Effective fair-share weight of a tenant (zero-weight slots count
    /// as 1 so virtual-time math never divides by zero).
    pub fn weight(&self, tenant: TenantId) -> u64 {
        u64::from(self.weights[tenant_slot(tenant)].max(1))
    }
}

/// One queued background request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoRequest {
    /// File it belongs to (for accounting).
    pub ino: u64,
    /// Byte offset on the tier.
    pub off: u64,
    /// Byte length.
    pub len: u64,
    /// Write (vs read).
    pub write: bool,
    /// Tenant the request is charged to.
    pub tenant: TenantId,
}

/// Admission decision for one unit of background work
/// ([`IoScheduler::admit_background`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Execute now; the bytes were charged to the tenant's share.
    Admit,
    /// Drop for now and let the planner re-plan next epoch (the tier is
    /// saturated and the tenant is over its fair share).
    Defer,
    /// Drop outright; the tier is critically full for this tenant.
    Shed,
}

/// A byte-rate limiter on the virtual clock: the executor takes tokens
/// for every migrated byte and stalls (leaving plans queued) when the
/// bucket runs dry.
///
/// Refills carry the sub-byte remainder (`dt·rate mod 1e9`) across
/// calls, so many tiny refills grant exactly the same tokens as one
/// large refill — frequent small ticks no longer undershoot the
/// configured rate.
#[derive(Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    capacity: u64,
    tokens: u64,
    /// Unconverted refill credit in byte·nanoseconds (< 1e9).
    carry: u128,
    last_refill_ns: u64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_bytes_per_sec`, holding at most
    /// `capacity` bytes of burst.
    pub fn new(rate_bytes_per_sec: u64, capacity: u64) -> Self {
        TokenBucket {
            rate_bytes_per_sec,
            capacity,
            tokens: capacity,
            carry: 0,
            last_refill_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_refill_ns);
        self.last_refill_ns = self.last_refill_ns.max(now_ns);
        let num = dt as u128 * self.rate_bytes_per_sec as u128 + self.carry;
        let add = u64::try_from(num / 1_000_000_000).unwrap_or(u64::MAX);
        if self.tokens.saturating_add(add) >= self.capacity {
            // A full bucket cannot bank credit for the future.
            self.tokens = self.capacity;
            self.carry = 0;
        } else {
            self.tokens += add;
            self.carry = num % 1_000_000_000;
        }
    }

    /// Whether [`TokenBucket::try_take`] of `bytes` would succeed at
    /// `now_ns`; takes nothing.
    pub fn can_take(&mut self, bytes: u64, now_ns: u64) -> bool {
        self.refill(now_ns);
        // Oversized requests (> capacity) are granted once the bucket is
        // full — they could never succeed otherwise.
        self.tokens >= bytes.min(self.capacity)
    }

    /// Takes `bytes` tokens if available at `now_ns`; `false` leaves the
    /// bucket untouched (beyond the refill).
    pub fn try_take(&mut self, bytes: u64, now_ns: u64) -> bool {
        let ok = self.can_take(bytes, now_ns);
        if ok {
            self.tokens -= bytes.min(self.capacity);
        }
        ok
    }

    /// Tokens currently available (after refilling at `now_ns`).
    pub fn available(&mut self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        self.tokens
    }
}

/// Cumulative + two-bucket windowed retry counts for one tier. The
/// cumulative total feeds stats; pacing decisions read the windowed view
/// so a long-lived scheduler doesn't mistake lifetime history for
/// current load.
#[derive(Debug, Default)]
struct RetryState {
    total: u64,
    window_start_ns: u64,
    cur: u64,
    prev: u64,
}

impl RetryState {
    /// Rotates the windows forward to `now_ns`.
    fn roll(&mut self, now_ns: u64, window_ns: u64) {
        if window_ns == 0 {
            return;
        }
        let elapsed = now_ns.saturating_sub(self.window_start_ns);
        if elapsed >= 2 * window_ns {
            self.prev = 0;
            self.cur = 0;
            self.window_start_ns = now_ns;
        } else if elapsed >= window_ns {
            self.prev = self.cur;
            self.cur = 0;
            self.window_start_ns += window_ns;
        }
    }
}

/// Decayed per-(tier, tenant) background byte ledger entry.
#[derive(Debug, Default, Clone, Copy)]
struct Share {
    bytes: f64,
    last_ns: u64,
}

impl Share {
    fn decayed(&self, now_ns: u64, half_life_ns: u64) -> f64 {
        if half_life_ns == 0 {
            return self.bytes;
        }
        let dt = now_ns.saturating_sub(self.last_ns) as f64;
        self.bytes * 0.5f64.powf(dt / half_life_ns as f64)
    }
}

#[derive(Debug, Default)]
struct QosState {
    shares: HashMap<(TierId, TenantId), Share>,
    buckets: HashMap<TenantId, TokenBucket>,
}

/// Per-tier background queues with multi-tenant QoS (see the module
/// docs).
#[derive(Debug, Default)]
pub struct IoScheduler {
    cfg: QosConfig,
    queues: Mutex<HashMap<TierId, Vec<IoRequest>>>,
    retries: Mutex<HashMap<TierId, RetryState>>,
    qos: Mutex<QosState>,
}

impl IoScheduler {
    /// An empty scheduler with default QoS knobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scheduler with the given QoS configuration.
    pub fn with_config(cfg: QosConfig) -> Self {
        IoScheduler {
            cfg,
            ..Self::default()
        }
    }

    /// The QoS configuration this scheduler enforces.
    pub fn config(&self) -> &QosConfig {
        &self.cfg
    }

    /// Queues a background request for `tier`.
    pub fn submit(&self, tier: TierId, req: IoRequest) {
        self.queues.lock().entry(tier).or_default().push(req);
    }

    /// Pending requests for a tier.
    pub fn pending(&self, tier: TierId) -> usize {
        self.queues.lock().get(&tier).map_or(0, Vec::len)
    }

    /// Records one dispatch retry against `tier` at virtual time
    /// `now_ns` (the retry loop re-enters the device path, so pacing
    /// decisions should see that load).
    pub fn note_retry(&self, tier: TierId, now_ns: u64) {
        let mut retries = self.retries.lock();
        let st = retries.entry(tier).or_default();
        st.roll(now_ns, self.cfg.retry_window_ns);
        st.total += 1;
        st.cur += 1;
    }

    /// Cumulative dispatch retries recorded against a tier (for stats;
    /// never resets).
    pub fn retries(&self, tier: TierId) -> u64 {
        self.retries.lock().get(&tier).map_or(0, |s| s.total)
    }

    /// Cumulative dispatch retries across all tiers.
    pub fn total_retries(&self) -> u64 {
        self.retries.lock().values().map(|s| s.total).sum()
    }

    /// Dispatch retries within roughly the last two retry windows — the
    /// view pacing decisions should read instead of the lifetime
    /// [`IoScheduler::retries`] total.
    pub fn recent_retries(&self, tier: TierId, now_ns: u64) -> u64 {
        let mut retries = self.retries.lock();
        match retries.get_mut(&tier) {
            Some(st) => {
                st.roll(now_ns, self.cfg.retry_window_ns);
                st.cur + st.prev
            }
            None => 0,
        }
    }

    /// Estimated service time of a request on a device (used to order
    /// drains across tiers and for pacing decisions).
    pub fn estimate_ns(profile: &DeviceProfile, req: &IoRequest) -> u64 {
        if req.write {
            profile.write_cost(req.off, req.len, u64::MAX)
        } else {
            profile.read_cost(req.off, req.len, u64::MAX)
        }
    }

    /// Drains a tier's queue in dispatch order for the given device:
    /// seek-bound devices get an elevator sweep with adjacent-request
    /// merging; others get FIFO with merging. Batches holding more than
    /// one tenant's requests are interleaved by weighted virtual finish
    /// time (see the module docs); a single tenant's batch is returned
    /// in plain device order.
    pub fn drain(&self, tier: TierId, profile: &DeviceProfile) -> Vec<IoRequest> {
        let reqs = self.queues.lock().remove(&tier).unwrap_or_default();
        self.interleave(reqs, profile)
    }

    /// Drains only the queued requests belonging to file `ino`, leaving
    /// every other file's requests queued. Per-file background streams
    /// (migration copies are serialized per file by `MuxFile::migrating`)
    /// must use this instead of [`IoScheduler::drain`]: a whole-queue
    /// drain would steal requests a concurrent migration of a *different*
    /// file just submitted for the same source tier, leaving that
    /// migration to copy nothing and commit holes.
    pub fn drain_for(&self, tier: TierId, profile: &DeviceProfile, ino: u64) -> Vec<IoRequest> {
        let mut queues = self.queues.lock();
        let mine = match queues.get_mut(&tier) {
            Some(q) => {
                let mut mine = Vec::new();
                q.retain(|r| {
                    if r.ino == ino {
                        mine.push(r.clone());
                        false
                    } else {
                        true
                    }
                });
                if q.is_empty() {
                    queues.remove(&tier);
                }
                mine
            }
            None => Vec::new(),
        };
        drop(queues);
        // One file belongs to one tenant, so no interleave is needed.
        order(mine, profile, self.cfg.max_merge_bytes)
    }

    /// Weighted-fair interleave of a drained batch: each tenant's
    /// sub-batch keeps device order, and sub-batches merge by virtual
    /// finish time `Σ len / weight`.
    fn interleave(&self, reqs: Vec<IoRequest>, profile: &DeviceProfile) -> Vec<IoRequest> {
        if reqs.is_empty() {
            return reqs;
        }
        let first = reqs[0].tenant;
        if reqs.iter().all(|r| r.tenant == first) {
            return order(reqs, profile, self.cfg.max_merge_bytes);
        }
        // Group by tenant in first-arrival order (keeps the result
        // deterministic for a given submission sequence).
        let mut groups: Vec<(TenantId, Vec<IoRequest>)> = Vec::new();
        for r in reqs {
            match groups.iter_mut().find(|(t, _)| *t == r.tenant) {
                Some((_, g)) => g.push(r),
                None => groups.push((r.tenant, vec![r])),
            }
        }
        // Fixed-point virtual time so equal-weight tenants tie exactly.
        const SCALE: u128 = 1 << 16;
        let mut tagged: Vec<(u128, usize, IoRequest)> = Vec::new();
        for (gi, (tenant, g)) in groups.into_iter().enumerate() {
            let w = u128::from(self.cfg.weight(tenant));
            let mut vtime: u128 = 0;
            for r in order(g, profile, self.cfg.max_merge_bytes) {
                vtime += u128::from(r.len.max(1)) * SCALE / w;
                tagged.push((vtime, gi, r));
            }
        }
        tagged.sort_by_key(|a| (a.0, a.1));
        tagged.into_iter().map(|(_, _, r)| r).collect()
    }

    /// Admission control for one unit of background work headed at
    /// `tier` on behalf of `tenant`.
    ///
    /// While the tier is unsaturated (utilization below
    /// `admit_utilization` and no recent retry storm), everything is
    /// admitted and charged to the tenant's decayed share ledger. Once
    /// saturated, a tenant *over its fair share* of recent background
    /// bytes on that tier is deferred — or shed outright past
    /// `shed_utilization` — while under-share tenants keep being
    /// admitted, so saturation headroom goes to whoever has had the
    /// least of it.
    pub fn admit_background(
        &self,
        tier: TierId,
        tenant: TenantId,
        bytes: u64,
        utilization: f64,
        now_ns: u64,
    ) -> Admission {
        if !self.cfg.enabled {
            return Admission::Admit;
        }
        let saturated = utilization >= self.cfg.admit_utilization
            || (self.cfg.saturation_retries > 0
                && self.recent_retries(tier, now_ns) >= self.cfg.saturation_retries);
        let mut qos = self.qos.lock();
        if saturated && over_fair_share(&self.cfg, &qos, tier, tenant, &[], now_ns) {
            return if utilization >= self.cfg.shed_utilization {
                Admission::Shed
            } else {
                Admission::Defer
            };
        }
        let share = qos.shares.entry((tier, tenant)).or_default();
        share.bytes = share.decayed(now_ns, self.cfg.share_half_life_ns) + bytes as f64;
        share.last_ns = now_ns;
        Admission::Admit
    }

    /// Whether `tenant` holds more than its weight-fraction of the
    /// recent (decayed) background bytes charged against `tier`.
    pub fn over_fair_share(&self, tier: TierId, tenant: TenantId, now_ns: u64) -> bool {
        over_fair_share(&self.cfg, &self.qos.lock(), tier, tenant, &[], now_ns)
    }

    /// [`IoScheduler::over_fair_share`] with an explicit competitor
    /// `universe`: every tenant listed counts toward the weight
    /// denominator even if it has no ledger share yet. The planner uses
    /// this form so a first mover that monopolized a saturated tier is
    /// judged against the tenants that *exist*, not only the tenants
    /// that already got background bytes through — otherwise the hog is
    /// "alone" on the ledger and never over its share, and the starved
    /// tenant can never be served to appear on it.
    pub fn over_fair_share_among(
        &self,
        tier: TierId,
        tenant: TenantId,
        universe: &[TenantId],
        now_ns: u64,
    ) -> bool {
        over_fair_share(&self.cfg, &self.qos.lock(), tier, tenant, universe, now_ns)
    }

    /// Takes `bytes` from `tenant`'s private rate bucket; always grants
    /// when per-tenant pacing is disabled (rate 0) or QoS is off.
    pub fn tenant_try_take(&self, tenant: TenantId, bytes: u64, now_ns: u64) -> bool {
        self.tenant_bucket(tenant, |b| b.try_take(bytes, now_ns))
    }

    /// Whether [`IoScheduler::tenant_try_take`] would succeed; takes
    /// nothing.
    pub fn tenant_can_take(&self, tenant: TenantId, bytes: u64, now_ns: u64) -> bool {
        self.tenant_bucket(tenant, |b| b.can_take(bytes, now_ns))
    }

    /// `ask` of `tenant`'s bucket; `true` when tenants are not paced.
    fn tenant_bucket(&self, tenant: TenantId, ask: impl FnOnce(&mut TokenBucket) -> bool) -> bool {
        if !self.cfg.enabled || self.cfg.tenant_rate_bytes_per_sec == 0 {
            return true;
        }
        let mut qos = self.qos.lock();
        let bucket = qos.buckets.entry(tenant).or_insert_with(|| {
            TokenBucket::new(
                self.cfg.tenant_rate_bytes_per_sec,
                self.cfg.tenant_burst_bytes,
            )
        });
        ask(bucket)
    }
}

/// Fair-share test over the decayed ledger. The weight denominator
/// counts tenants active on the tier, the asking tenant, and any extra
/// competitors in `universe`, so fairness is relative to who is
/// actually competing — including tenants that have not been served
/// yet.
fn over_fair_share(
    cfg: &QosConfig,
    qos: &QosState,
    tier: TierId,
    tenant: TenantId,
    universe: &[TenantId],
    now_ns: u64,
) -> bool {
    let mut total = 0.0f64;
    let mut mine = 0.0f64;
    let mut weight_total = 0u64;
    let mut counted: Vec<TenantId> = Vec::new();
    for ((t, who), share) in qos.shares.iter() {
        if *t != tier {
            continue;
        }
        let b = share.decayed(now_ns, cfg.share_half_life_ns);
        if b <= f64::EPSILON {
            continue;
        }
        total += b;
        weight_total += cfg.weight(*who);
        counted.push(*who);
        if *who == tenant {
            mine = b;
        }
    }
    for &extra in universe.iter().chain(std::iter::once(&tenant)) {
        if !counted.contains(&extra) {
            weight_total += cfg.weight(extra);
            counted.push(extra);
        }
    }
    if total < 1.0 || weight_total == 0 {
        return false;
    }
    let fair = cfg.weight(tenant) as f64 / weight_total as f64;
    mine / total > fair + 1e-9
}

/// Orders a drained batch for one device: elevator sweep on seek-bound
/// devices, then adjacent same-direction, same-file, same-tenant
/// merging, with merged length capped at `max_merge_bytes`.
fn order(
    mut reqs: Vec<IoRequest>,
    profile: &DeviceProfile,
    max_merge_bytes: u64,
) -> Vec<IoRequest> {
    if reqs.is_empty() {
        return reqs;
    }
    if profile.seek_ns > 0 {
        // Elevator: one ascending sweep minimizes seeks.
        reqs.sort_by_key(|r| (r.write, r.off));
    }
    // Merge adjacent same-direction, same-file, same-tenant requests —
    // but never past the cap, so one long sequential stream cannot
    // collapse into a single giant request that defeats token-bucket
    // granularity or monopolizes a drain.
    let mut merged: Vec<IoRequest> = Vec::with_capacity(reqs.len());
    for r in reqs {
        match merged.last_mut() {
            Some(last)
                if last.write == r.write
                    && last.ino == r.ino
                    && last.tenant == r.tenant
                    && last.off + last.len == r.off
                    && last.len + r.len <= max_merge_bytes =>
            {
                last.len += r.len;
            }
            _ => merged.push(r),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{hdd, nvme_ssd};

    fn req(ino: u64, off: u64, len: u64, write: bool) -> IoRequest {
        IoRequest {
            ino,
            off,
            len,
            write,
            tenant: 0,
        }
    }

    fn treq(tenant: TenantId, ino: u64, off: u64, len: u64) -> IoRequest {
        IoRequest {
            ino,
            off,
            len,
            write: false,
            tenant,
        }
    }

    #[test]
    fn hdd_drain_sorts_by_offset() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 9000, 100, false));
        s.submit(0, req(1, 100, 100, false));
        s.submit(0, req(1, 5000, 100, false));
        let out = s.drain(0, &hdd());
        let offs: Vec<u64> = out.iter().map(|r| r.off).collect();
        assert_eq!(offs, vec![100, 5000, 9000]);
        assert_eq!(s.pending(0), 0);
    }

    #[test]
    fn ssd_drain_keeps_fifo() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 9000, 100, false));
        s.submit(0, req(1, 100, 100, false));
        let out = s.drain(0, &nvme_ssd());
        let offs: Vec<u64> = out.iter().map(|r| r.off).collect();
        assert_eq!(offs, vec![9000, 100]);
    }

    #[test]
    fn adjacent_requests_merge() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 0, 4096, true));
        s.submit(0, req(1, 4096, 4096, true));
        s.submit(0, req(1, 8192, 4096, true));
        s.submit(0, req(1, 20000, 4096, true));
        let out = s.drain(0, &nvme_ssd());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], req(1, 0, 3 * 4096, true));
    }

    #[test]
    fn merge_respects_direction_and_file() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 0, 4096, true));
        s.submit(0, req(1, 4096, 4096, false)); // read: no merge
        s.submit(0, req(2, 8192, 4096, false)); // other file: no merge
        let out = s.drain(0, &nvme_ssd());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn merge_respects_tenant() {
        let s = IoScheduler::new();
        let mut a = req(1, 0, 4096, true);
        a.tenant = 1;
        let mut b = req(1, 4096, 4096, true);
        b.tenant = 2;
        s.submit(0, a);
        s.submit(0, b);
        let out = s.drain(0, &nvme_ssd());
        assert_eq!(
            out.len(),
            2,
            "adjacent requests of different tenants must not merge"
        );
    }

    #[test]
    fn merge_is_capped_at_max_merge_bytes() {
        let s = IoScheduler::with_config(QosConfig {
            max_merge_bytes: 8192,
            ..Default::default()
        });
        s.submit(0, req(1, 0, 4096, true));
        s.submit(0, req(1, 4096, 4096, true));
        s.submit(0, req(1, 8192, 4096, true));
        let out = s.drain(0, &nvme_ssd());
        // Without the cap this collapsed into one 12 KiB request.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], req(1, 0, 8192, true));
        assert_eq!(out[1], req(1, 8192, 4096, true));
    }

    #[test]
    fn elevator_merges_after_sorting() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 4096, 4096, false));
        s.submit(0, req(1, 0, 4096, false));
        let out = s.drain(0, &hdd());
        assert_eq!(out.len(), 1, "sorted adjacent requests must merge");
        assert_eq!(out[0].len, 8192);
    }

    #[test]
    fn queues_are_per_tier() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 0, 1, false));
        s.submit(1, req(1, 0, 1, false));
        assert_eq!(s.pending(0), 1);
        assert_eq!(s.pending(1), 1);
        s.drain(0, &nvme_ssd());
        assert_eq!(s.pending(0), 0);
        assert_eq!(s.pending(1), 1);
    }

    #[test]
    fn retry_accounting_is_per_tier() {
        let s = IoScheduler::new();
        assert_eq!(s.total_retries(), 0);
        s.note_retry(0, 0);
        s.note_retry(0, 0);
        s.note_retry(2, 0);
        assert_eq!(s.retries(0), 2);
        assert_eq!(s.retries(1), 0);
        assert_eq!(s.retries(2), 1);
        assert_eq!(s.total_retries(), 3);
    }

    #[test]
    fn recent_retries_decay_while_cumulative_grows() {
        let w = QosConfig::default().retry_window_ns;
        let s = IoScheduler::new();
        s.note_retry(0, 0);
        s.note_retry(0, 0);
        s.note_retry(0, 0);
        // Within the window both views agree.
        assert_eq!(s.recent_retries(0, 0), 3);
        assert_eq!(s.retries(0), 3);
        // One window later the burst is still visible (previous window).
        assert_eq!(s.recent_retries(0, w + w / 5), 3);
        s.note_retry(0, w + w / 5);
        assert_eq!(s.recent_retries(0, w + w / 5), 4);
        // Two idle windows later the recent view is empty — the old
        // monotonic counter would still have reported lifetime totals
        // here, which is the bug this view fixes.
        assert_eq!(s.recent_retries(0, 4 * w), 0);
        assert_eq!(s.retries(0), 4, "cumulative view never resets");
    }

    #[test]
    fn drain_for_leaves_other_files_queued() {
        let s = IoScheduler::new();
        s.submit(0, req(1, 0, 4096, false));
        s.submit(0, req(2, 4096, 4096, false));
        s.submit(0, req(1, 4096, 4096, false));
        let out = s.drain_for(0, &nvme_ssd(), 1);
        assert_eq!(out.len(), 1, "ino 1's adjacent requests merge");
        assert_eq!(out[0], req(1, 0, 8192, false));
        // Ino 2's request is untouched and still pending.
        assert_eq!(s.pending(0), 1);
        let rest = s.drain_for(0, &nvme_ssd(), 2);
        assert_eq!(rest, vec![req(2, 4096, 4096, false)]);
        assert_eq!(s.pending(0), 0);
    }

    #[test]
    fn drain_for_elevator_orders_like_drain() {
        let s = IoScheduler::new();
        s.submit(0, req(7, 9000, 100, false));
        s.submit(0, req(7, 100, 100, false));
        let out = s.drain_for(0, &hdd(), 7);
        let offs: Vec<u64> = out.iter().map(|r| r.off).collect();
        assert_eq!(offs, vec![100, 9000]);
    }

    #[test]
    fn estimates_track_device_speed() {
        let r = req(1, 1 << 30, 4096, false);
        assert!(IoScheduler::estimate_ns(&hdd(), &r) > IoScheduler::estimate_ns(&nvme_ssd(), &r));
    }

    #[test]
    fn token_bucket_carries_fractional_refills() {
        // 1000 B/s: a 1000 ns tick earns 1e-3 bytes, which the old
        // refill floored to zero *and* discarded — 10k such ticks
        // granted 0 bytes instead of 10.
        let mut tiny = TokenBucket::new(1000, 1 << 20);
        assert!(tiny.try_take(1 << 20, 0), "bucket starts full");
        for i in 1..=10_000u64 {
            tiny.refill(i * 1000);
        }
        let mut big = TokenBucket::new(1000, 1 << 20);
        assert!(big.try_take(1 << 20, 0));
        assert_eq!(
            tiny.available(10_000 * 1000),
            big.available(10_000 * 1000),
            "many tiny refills must grant the same tokens as one large one"
        );
        assert_eq!(big.available(10_000 * 1000), 10);
    }

    #[test]
    fn token_bucket_drops_carry_when_full() {
        let mut b = TokenBucket::new(1000, 100);
        // Saturate: long idle fills the bucket; the remainder must not
        // be banked as future credit.
        assert_eq!(b.available(10_000_000_000), 100);
        assert!(b.try_take(100, 10_000_000_000));
        // 1 ns later, a full second's credit cannot appear.
        assert_eq!(b.available(10_000_000_001), 0);
    }

    #[test]
    fn thread_tenant_defaults_to_zero_and_sticks() {
        assert_eq!(thread_tenant(), 0);
        set_thread_tenant(5);
        assert_eq!(thread_tenant(), 5);
        set_thread_tenant(0);
    }

    #[test]
    fn wfq_interleaves_equal_weight_tenants() {
        let s = IoScheduler::new();
        // Strided offsets so nothing merges; tenants submit in runs, so
        // FIFO would drain all of tenant 1 before tenant 2.
        for i in 0..4u64 {
            s.submit(0, treq(1, 1, i * 8192, 4096));
        }
        for i in 0..4u64 {
            s.submit(0, treq(2, 2, i * 8192, 4096));
        }
        let out = s.drain(0, &nvme_ssd());
        let tenants: Vec<TenantId> = out.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn wfq_gives_weighted_tenants_proportional_prefixes() {
        let mut cfg = QosConfig::default();
        cfg.weights[1] = 3;
        cfg.weights[2] = 1;
        let s = IoScheduler::with_config(cfg);
        for i in 0..6u64 {
            s.submit(0, treq(1, 1, i * 8192, 4096));
            s.submit(0, treq(2, 2, i * 8192, 4096));
        }
        let out = s.drain(0, &nvme_ssd());
        // Weight 3 tenant finishes 3 requests per virtual unit, weight 1
        // finishes 1: every 4-request prefix splits 3:1.
        let first: Vec<TenantId> = out[..4].iter().map(|r| r.tenant).collect();
        assert_eq!(first.iter().filter(|t| **t == 1).count(), 3);
        assert_eq!(first.iter().filter(|t| **t == 2).count(), 1);
        let next: Vec<TenantId> = out[4..8].iter().map(|r| r.tenant).collect();
        assert_eq!(next.iter().filter(|t| **t == 1).count(), 3);
    }

    #[test]
    fn single_tenant_drain_is_plain_device_order() {
        let s = IoScheduler::new();
        s.submit(0, treq(3, 1, 8192, 4096));
        s.submit(0, treq(3, 1, 0, 4096));
        let out = s.drain(0, &nvme_ssd());
        let offs: Vec<u64> = out.iter().map(|r| r.off).collect();
        assert_eq!(offs, vec![8192, 0], "lone tenant keeps FIFO untouched");
    }

    #[test]
    fn admission_always_admits_below_saturation() {
        let s = IoScheduler::new();
        for i in 0..32u64 {
            assert_eq!(
                s.admit_background(0, 1, 1 << 20, 0.40, i * 1000),
                Admission::Admit
            );
        }
    }

    #[test]
    fn admission_single_tenant_is_its_own_fair_share() {
        // A lone tenant is exactly at (never over) its fair share, so
        // even a saturated tier keeps admitting it.
        let s = IoScheduler::new();
        for i in 0..8u64 {
            assert_eq!(s.admit_background(0, 0, 1 << 20, 0.90, i), Admission::Admit);
        }
    }

    #[test]
    fn over_fair_share_among_counts_unserved_competitors() {
        // The hog monopolizes the tier before the victim gets a single
        // byte through. On the ledger alone the hog is a lone tenant
        // (never over share); judged against the universe of tenants
        // that exist, it is over — and the victim is not.
        let s = IoScheduler::new();
        for i in 0..8u64 {
            assert_eq!(s.admit_background(0, 1, 8 << 20, 0.20, i), Admission::Admit);
        }
        assert!(!s.over_fair_share(0, 1, 8));
        assert!(s.over_fair_share_among(0, 1, &[1, 2], 8));
        assert!(!s.over_fair_share_among(0, 2, &[1, 2], 8));
        // A hog alone in its universe is still its own fair share.
        assert!(!s.over_fair_share_among(0, 1, &[1], 8));
    }

    #[test]
    fn admission_defers_then_sheds_the_over_share_tenant() {
        let s = IoScheduler::new();
        // Tenant 1 racks up share while the tier is still open.
        for i in 0..8u64 {
            assert_eq!(s.admit_background(0, 1, 8 << 20, 0.50, i), Admission::Admit);
        }
        // Tenant 2 has a sliver of share (so both are "active").
        assert_eq!(s.admit_background(0, 2, 4096, 0.50, 8), Admission::Admit);
        // Saturated: the over-share tenant defers, the under-share one
        // keeps going.
        assert_eq!(s.admit_background(0, 1, 8 << 20, 0.80, 9), Admission::Defer);
        assert_eq!(s.admit_background(0, 2, 4096, 0.80, 9), Admission::Admit);
        // Critically full: the over-share tenant is shed outright.
        assert_eq!(s.admit_background(0, 1, 8 << 20, 0.96, 10), Admission::Shed);
    }

    #[test]
    fn admission_share_decays_back_to_admit() {
        let s = IoScheduler::new();
        assert_eq!(
            s.admit_background(0, 1, 64 << 20, 0.50, 0),
            Admission::Admit
        );
        assert_eq!(s.admit_background(0, 2, 4096, 0.50, 0), Admission::Admit);
        assert_eq!(s.admit_background(0, 1, 1 << 20, 0.80, 1), Admission::Defer);
        // Many half-lives later tenant 1's burst has decayed to dust and
        // it is admitted again.
        let later = 64 * QosConfig::default().share_half_life_ns;
        assert_eq!(
            s.admit_background(0, 1, 1 << 20, 0.80, later),
            Admission::Admit
        );
    }

    #[test]
    fn admission_disabled_admits_everything() {
        let s = IoScheduler::with_config(QosConfig {
            enabled: false,
            ..Default::default()
        });
        for _ in 0..4 {
            assert_eq!(
                s.admit_background(0, 1, 64 << 20, 0.99, 0),
                Admission::Admit
            );
        }
    }

    #[test]
    fn retry_storm_saturates_admission() {
        let cfg = QosConfig {
            saturation_retries: 4,
            ..Default::default()
        };
        let s = IoScheduler::with_config(cfg);
        // Give tenant 1 the dominant share at an unsaturated utilization.
        assert_eq!(s.admit_background(0, 1, 8 << 20, 0.10, 0), Admission::Admit);
        assert_eq!(s.admit_background(0, 2, 4096, 0.10, 0), Admission::Admit);
        for _ in 0..4 {
            s.note_retry(0, 1);
        }
        // Low utilization, but the retry storm marks the tier saturated.
        assert_eq!(s.admit_background(0, 1, 8 << 20, 0.10, 2), Admission::Defer);
    }

    #[test]
    fn tenant_bucket_paces_per_tenant() {
        let s = IoScheduler::with_config(QosConfig {
            tenant_rate_bytes_per_sec: 1 << 20,
            tenant_burst_bytes: 1 << 20,
            ..Default::default()
        });
        // Tenant 1 drains its own bucket; tenant 2's is untouched.
        assert!(s.tenant_try_take(1, 1 << 20, 0));
        assert!(!s.tenant_try_take(1, 1 << 20, 0));
        assert!(s.tenant_try_take(2, 1 << 20, 0));
        // A second later tenant 1 has earned a full bucket back.
        assert!(s.tenant_try_take(1, 1 << 20, 1_000_000_000));
    }

    #[test]
    fn tenant_bucket_unlimited_by_default() {
        let s = IoScheduler::new();
        for _ in 0..64 {
            assert!(s.tenant_try_take(1, u64::MAX, 0));
        }
    }
}
