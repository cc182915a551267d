//! Operation counters for Mux.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sched::tenant_slot;
use crate::types::{TenantId, MAX_TENANTS};

/// Counters exposed by [`crate::Mux::stats`].
#[derive(Debug, Default)]
pub struct MuxStats {
    /// User read operations.
    pub reads: AtomicU64,
    /// User write operations.
    pub writes: AtomicU64,
    /// Bytes read by users.
    pub bytes_read: AtomicU64,
    /// Bytes written by users.
    pub bytes_written: AtomicU64,
    /// Sub-requests dispatched to native file systems.
    pub dispatches: AtomicU64,
    /// Reads split across more than one tier.
    pub split_reads: AtomicU64,
    /// Writes split across more than one tier.
    pub split_writes: AtomicU64,
    /// SCM cache hits.
    pub cache_hits: AtomicU64,
    /// SCM cache misses.
    pub cache_misses: AtomicU64,
    /// fsync fan-outs issued.
    pub fsyncs: AtomicU64,
    /// Native dispatches retried after a transient I/O error.
    pub io_retries: AtomicU64,
    /// Native dispatch errors observed (including ones a retry absorbed).
    pub io_errors: AtomicU64,
    /// Write segments redirected off an unhealthy tier.
    pub redirected_writes: AtomicU64,
    /// Reads served by a replica after the primary tier failed.
    pub replica_failovers: AtomicU64,
    /// Block reads re-dispatched because a concurrent migration commit
    /// moved the block while the read was in flight.
    pub read_revalidations: AtomicU64,
    /// Blocks the autotier engine promoted toward a faster tier.
    pub auto_promotions: AtomicU64,
    /// Blocks the autotier engine demoted toward a slower tier.
    pub auto_demotions: AtomicU64,
    /// Migration bytes the autotier rate limiter deferred to a later tick.
    pub throttled_bytes: AtomicU64,
    /// Candidate moves the autotier planner dropped (pinned file, unhealthy
    /// or over-watermark destination, or exhausted epoch budget).
    pub planner_vetoes: AtomicU64,
    /// Trusted block-checksum mismatches detected (read path or scrubber).
    pub corruptions_detected: AtomicU64,
    /// Corrupt blocks restored (re-read settled, or rewritten from a
    /// verified replica).
    pub corruptions_repaired: AtomicU64,
    /// Corrupt blocks with no healthy copy anywhere, fenced off from
    /// callers until they are overwritten.
    pub blocks_quarantined: AtomicU64,
    /// Untrusted (snapshot-loaded) checksums dropped on first mismatch —
    /// post-crash ambiguity, not corruption (see [`crate::integrity`]).
    pub checksums_dropped: AtomicU64,
    /// Completed background scrub passes over the whole namespace.
    pub scrub_passes: AtomicU64,
    /// Blocks the background scrubber has read and verified.
    pub scrub_blocks_verified: AtomicU64,
    /// Reads served entirely by the lock-free fast path
    /// ([`crate::fastpath`]): no shard lock, no BLT walk, no retry
    /// machinery.
    pub fastpath_hits: AtomicU64,
    /// Fast-path attempts that fell back to the dispatch path (cache
    /// miss, stale epoch/health generation, seqlock race, CRC mismatch,
    /// or multi-block / out-of-bounds request shape).
    pub fastpath_fallbacks: AtomicU64,
    /// Invalidations published into the fast-path cache (per-block and
    /// per-file sweeps from writes/truncate/unlink/migrations/quarantine,
    /// plus global epoch bumps from tier add/remove and recovery).
    pub fastpath_invalidations: AtomicU64,
    /// Blocks mirrored onto a second tier by deliberate placement
    /// (autotier `Mirror` actions and `Mux::mirror_range`).
    pub mirrors_created: AtomicU64,
    /// Replica blocks retired (heat decay, watermark pressure, demotion
    /// prep, a write absorbing the range on the fast copy, or a write
    /// leaving the replica stale).
    pub mirrors_retired: AtomicU64,
    /// Block reads served by a replica that is *faster* than the healthy
    /// primary — the mirror payoff counter (distinct from
    /// `replica_failovers`, which counts degraded-mode rescues).
    pub mirror_reads_fast: AtomicU64,
    /// Blocks re-replicated by the lazy resync pass in `maintenance_tick`
    /// after a write was absorbed on the fast copy.
    pub lazy_resyncs: AtomicU64,
    /// Background actions QoS admission deferred (dropped for this epoch;
    /// the planner re-plans them) because the destination tier was
    /// saturated and the tenant over its fair share.
    pub qos_deferrals: AtomicU64,
    /// Background actions QoS admission shed outright (destination tier
    /// critically full for an over-share tenant).
    pub qos_sheds: AtomicU64,
    /// Background bytes deferred by a per-tenant rate bucket.
    pub qos_tenant_throttled_bytes: AtomicU64,
    /// Candidate files the planner skipped because their tenant was
    /// plan-blocked (over fair share on a saturated destination tier).
    pub qos_plan_exclusions: AtomicU64,
    /// Read operations that arrived over a cluster link — this node served
    /// them on behalf of a remote peer (see `crates/cluster`).
    pub remote_reads: AtomicU64,
    /// Write operations that arrived over a cluster link.
    pub remote_writes: AtomicU64,
    /// Payload bytes moved for remote peers (read responses + write
    /// requests), excluding RPC framing.
    pub remote_bytes: AtomicU64,
    /// Bytes appended to the metafile journal: intents, namespace records
    /// and inode upserts, frames included (see [`crate::persist`]).
    pub metalog_bytes: AtomicU64,
    /// Metafile checkpoints written — on request, or because a flush
    /// would have pushed the journal past its budget.
    pub checkpoints: AtomicU64,
    /// User read operations per tenant slot (see
    /// [`crate::sched::tenant_slot`]).
    pub tenant_reads: [AtomicU64; MAX_TENANTS],
    /// User write operations per tenant slot.
    pub tenant_writes: [AtomicU64; MAX_TENANTS],
}

/// Plain snapshot of [`MuxStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxStatsSnapshot {
    /// User read operations.
    pub reads: u64,
    /// User write operations.
    pub writes: u64,
    /// Bytes read by users.
    pub bytes_read: u64,
    /// Bytes written by users.
    pub bytes_written: u64,
    /// Sub-requests dispatched to native file systems.
    pub dispatches: u64,
    /// Reads split across tiers.
    pub split_reads: u64,
    /// Writes split across tiers.
    pub split_writes: u64,
    /// SCM cache hits.
    pub cache_hits: u64,
    /// SCM cache misses.
    pub cache_misses: u64,
    /// fsync fan-outs.
    pub fsyncs: u64,
    /// Dispatches retried after transient errors.
    pub io_retries: u64,
    /// Dispatch errors observed.
    pub io_errors: u64,
    /// Write segments redirected off unhealthy tiers.
    pub redirected_writes: u64,
    /// Replica-served reads after primary failure.
    pub replica_failovers: u64,
    /// Block reads re-dispatched after a racing migration commit.
    pub read_revalidations: u64,
    /// Blocks auto-promoted toward a faster tier.
    pub auto_promotions: u64,
    /// Blocks auto-demoted toward a slower tier.
    pub auto_demotions: u64,
    /// Migration bytes deferred by the autotier rate limiter.
    pub throttled_bytes: u64,
    /// Candidate moves the autotier planner vetoed.
    pub planner_vetoes: u64,
    /// Trusted checksum mismatches detected.
    pub corruptions_detected: u64,
    /// Corrupt blocks repaired (re-read or replica).
    pub corruptions_repaired: u64,
    /// Corrupt blocks quarantined (no healthy copy).
    pub blocks_quarantined: u64,
    /// Untrusted snapshot checksums dropped on mismatch.
    pub checksums_dropped: u64,
    /// Completed scrub passes.
    pub scrub_passes: u64,
    /// Blocks verified by the scrubber.
    pub scrub_blocks_verified: u64,
    /// Reads served entirely by the lock-free fast path.
    pub fastpath_hits: u64,
    /// Fast-path attempts that fell back to the dispatch path.
    pub fastpath_fallbacks: u64,
    /// Invalidations published into the fast-path cache.
    pub fastpath_invalidations: u64,
    /// Blocks mirrored onto a second tier by deliberate placement.
    pub mirrors_created: u64,
    /// Replica blocks retired.
    pub mirrors_retired: u64,
    /// Block reads served by a replica faster than the healthy primary.
    pub mirror_reads_fast: u64,
    /// Blocks re-replicated by the lazy resync pass.
    pub lazy_resyncs: u64,
    /// Background actions QoS admission deferred.
    pub qos_deferrals: u64,
    /// Background actions QoS admission shed outright.
    pub qos_sheds: u64,
    /// Background bytes deferred by a per-tenant rate bucket.
    pub qos_tenant_throttled_bytes: u64,
    /// Planner candidates skipped because their tenant was plan-blocked.
    pub qos_plan_exclusions: u64,
    /// Read operations served on behalf of a remote peer.
    pub remote_reads: u64,
    /// Write operations served on behalf of a remote peer.
    pub remote_writes: u64,
    /// Payload bytes moved for remote peers.
    pub remote_bytes: u64,
    /// Bytes appended to the metafile journal.
    pub metalog_bytes: u64,
    /// Metafile checkpoints written.
    pub checkpoints: u64,
    /// User read operations per tenant slot.
    pub tenant_reads: [u64; MAX_TENANTS],
    /// User write operations per tenant slot.
    pub tenant_writes: [u64; MAX_TENANTS],
}

impl MuxStats {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to a per-tenant counter array at `tenant`'s slot.
    pub fn add_tenant(counters: &[AtomicU64; MAX_TENANTS], tenant: TenantId, n: u64) {
        counters[tenant_slot(tenant)].fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> MuxStatsSnapshot {
        MuxStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            split_reads: self.split_reads.load(Ordering::Relaxed),
            split_writes: self.split_writes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            redirected_writes: self.redirected_writes.load(Ordering::Relaxed),
            replica_failovers: self.replica_failovers.load(Ordering::Relaxed),
            read_revalidations: self.read_revalidations.load(Ordering::Relaxed),
            auto_promotions: self.auto_promotions.load(Ordering::Relaxed),
            auto_demotions: self.auto_demotions.load(Ordering::Relaxed),
            throttled_bytes: self.throttled_bytes.load(Ordering::Relaxed),
            planner_vetoes: self.planner_vetoes.load(Ordering::Relaxed),
            corruptions_detected: self.corruptions_detected.load(Ordering::Relaxed),
            corruptions_repaired: self.corruptions_repaired.load(Ordering::Relaxed),
            blocks_quarantined: self.blocks_quarantined.load(Ordering::Relaxed),
            checksums_dropped: self.checksums_dropped.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            scrub_blocks_verified: self.scrub_blocks_verified.load(Ordering::Relaxed),
            fastpath_hits: self.fastpath_hits.load(Ordering::Relaxed),
            fastpath_fallbacks: self.fastpath_fallbacks.load(Ordering::Relaxed),
            fastpath_invalidations: self.fastpath_invalidations.load(Ordering::Relaxed),
            mirrors_created: self.mirrors_created.load(Ordering::Relaxed),
            mirrors_retired: self.mirrors_retired.load(Ordering::Relaxed),
            mirror_reads_fast: self.mirror_reads_fast.load(Ordering::Relaxed),
            lazy_resyncs: self.lazy_resyncs.load(Ordering::Relaxed),
            qos_deferrals: self.qos_deferrals.load(Ordering::Relaxed),
            qos_sheds: self.qos_sheds.load(Ordering::Relaxed),
            qos_tenant_throttled_bytes: self.qos_tenant_throttled_bytes.load(Ordering::Relaxed),
            qos_plan_exclusions: self.qos_plan_exclusions.load(Ordering::Relaxed),
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            remote_writes: self.remote_writes.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            metalog_bytes: self.metalog_bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            tenant_reads: std::array::from_fn(|i| self.tenant_reads[i].load(Ordering::Relaxed)),
            tenant_writes: std::array::from_fn(|i| self.tenant_writes[i].load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let s = MuxStats::default();
        MuxStats::add(&s.reads, 2);
        MuxStats::add(&s.bytes_read, 100);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.writes, 0);
    }

    #[test]
    fn fault_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.io_errors, 3);
        MuxStats::add(&s.io_retries, 2);
        MuxStats::add(&s.redirected_writes, 1);
        MuxStats::add(&s.replica_failovers, 1);
        let snap = s.snapshot();
        assert_eq!(snap.io_errors, 3);
        assert_eq!(snap.io_retries, 2);
        assert_eq!(snap.redirected_writes, 1);
        assert_eq!(snap.replica_failovers, 1);
    }

    #[test]
    fn autotier_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.auto_promotions, 5);
        MuxStats::add(&s.auto_demotions, 4);
        MuxStats::add(&s.throttled_bytes, 1 << 20);
        MuxStats::add(&s.planner_vetoes, 2);
        let snap = s.snapshot();
        assert_eq!(snap.auto_promotions, 5);
        assert_eq!(snap.auto_demotions, 4);
        assert_eq!(snap.throttled_bytes, 1 << 20);
        assert_eq!(snap.planner_vetoes, 2);
    }

    #[test]
    fn integrity_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.corruptions_detected, 4);
        MuxStats::add(&s.corruptions_repaired, 3);
        MuxStats::add(&s.blocks_quarantined, 1);
        MuxStats::add(&s.checksums_dropped, 2);
        MuxStats::add(&s.scrub_passes, 5);
        MuxStats::add(&s.scrub_blocks_verified, 640);
        let snap = s.snapshot();
        assert_eq!(snap.corruptions_detected, 4);
        assert_eq!(snap.corruptions_repaired, 3);
        assert_eq!(snap.blocks_quarantined, 1);
        assert_eq!(snap.checksums_dropped, 2);
        assert_eq!(snap.scrub_passes, 5);
        assert_eq!(snap.scrub_blocks_verified, 640);
    }

    #[test]
    fn mirror_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.mirrors_created, 16);
        MuxStats::add(&s.mirrors_retired, 8);
        MuxStats::add(&s.mirror_reads_fast, 1000);
        MuxStats::add(&s.lazy_resyncs, 4);
        let snap = s.snapshot();
        assert_eq!(snap.mirrors_created, 16);
        assert_eq!(snap.mirrors_retired, 8);
        assert_eq!(snap.mirror_reads_fast, 1000);
        assert_eq!(snap.lazy_resyncs, 4);
    }

    #[test]
    fn qos_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.qos_deferrals, 3);
        MuxStats::add(&s.qos_sheds, 1);
        MuxStats::add(&s.qos_tenant_throttled_bytes, 4096);
        MuxStats::add(&s.qos_plan_exclusions, 7);
        MuxStats::add_tenant(&s.tenant_reads, 1, 10);
        MuxStats::add_tenant(&s.tenant_writes, 1, 5);
        MuxStats::add_tenant(&s.tenant_reads, 99, 2); // clamps to last slot
        let snap = s.snapshot();
        assert_eq!(snap.qos_deferrals, 3);
        assert_eq!(snap.qos_sheds, 1);
        assert_eq!(snap.qos_tenant_throttled_bytes, 4096);
        assert_eq!(snap.qos_plan_exclusions, 7);
        assert_eq!(snap.tenant_reads[1], 10);
        assert_eq!(snap.tenant_writes[1], 5);
        assert_eq!(snap.tenant_reads[MAX_TENANTS - 1], 2);
        assert_eq!(snap.tenant_reads[0], 0);
    }

    #[test]
    fn remote_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.remote_reads, 12);
        MuxStats::add(&s.remote_writes, 3);
        MuxStats::add(&s.remote_bytes, 15 * 4096);
        let snap = s.snapshot();
        assert_eq!(snap.remote_reads, 12);
        assert_eq!(snap.remote_writes, 3);
        assert_eq!(snap.remote_bytes, 15 * 4096);
    }

    #[test]
    fn fastpath_counters_snapshot() {
        let s = MuxStats::default();
        MuxStats::add(&s.fastpath_hits, 100);
        MuxStats::add(&s.fastpath_fallbacks, 7);
        MuxStats::add(&s.fastpath_invalidations, 3);
        let snap = s.snapshot();
        assert_eq!(snap.fastpath_hits, 100);
        assert_eq!(snap.fastpath_fallbacks, 7);
        assert_eq!(snap.fastpath_invalidations, 3);
    }
}
