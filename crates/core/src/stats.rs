//! Operation counters for Mux.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sched::tenant_slot;
use crate::types::{TenantId, MAX_TENANTS};

simdev::counters! {
    /// Counters exposed by [`crate::Mux::stats`].
    pub struct MuxStats;
    /// Plain snapshot of [`MuxStats`].
    pub struct MuxStatsSnapshot {
        /// User read operations.
        reads,
        /// User write operations.
        writes,
        /// Bytes read by users.
        bytes_read,
        /// Bytes written by users.
        bytes_written,
        /// Sub-requests dispatched to native file systems.
        dispatches,
        /// Reads split across more than one tier.
        split_reads,
        /// Writes split across more than one tier.
        split_writes,
        /// SCM cache hits.
        cache_hits,
        /// SCM cache misses.
        cache_misses,
        /// User fsync calls on files.
        fsyncs,
        /// Native dispatches retried after a transient I/O error.
        io_retries,
        /// Native dispatch errors observed (including ones a retry absorbed).
        io_errors,
        /// Write segments redirected off an unhealthy tier.
        redirected_writes,
        /// Reads served by a replica after the primary tier failed.
        replica_failovers,
        /// Block reads re-dispatched because a concurrent migration commit
        /// moved the block while the read was in flight.
        read_revalidations,
        /// Blocks the autotier engine promoted toward a faster tier.
        auto_promotions,
        /// Blocks the autotier engine demoted toward a slower tier.
        auto_demotions,
        /// Migration bytes the autotier rate limiter deferred to a later tick.
        throttled_bytes,
        /// Candidate moves the autotier planner dropped (pinned file, unhealthy
        /// destination or one without room above its reserve or under the
        /// cap, or exhausted epoch budget).
        planner_vetoes,
        /// Blocks an explicit migration demoted to make room on a full
        /// destination ([`crate::Mux::migrate_range`]).
        room_demotions,
        /// Trusted block-checksum mismatches detected (read path or scrubber).
        corruptions_detected,
        /// Corrupt blocks restored (re-read settled, or rewritten from a
        /// verified replica).
        corruptions_repaired,
        /// Corrupt blocks with no healthy copy anywhere, fenced off from
        /// callers until they are overwritten.
        blocks_quarantined,
        /// Untrusted (snapshot-loaded) checksums dropped on first mismatch —
        /// post-crash ambiguity, not corruption (see [`crate::integrity`]).
        checksums_dropped,
        /// Completed background scrub passes over the whole namespace.
        scrub_passes,
        /// Blocks the background scrubber has read and verified.
        scrub_blocks_verified,
        /// Reads served entirely by the lock-free fast path
        /// ([`crate::fastpath`]): no shard lock, no BLT walk, no retry
        /// machinery.
        fastpath_hits,
        /// Fast-path attempts that fell back to the dispatch path (cache
        /// miss, stale epoch/health generation, seqlock race, CRC mismatch,
        /// or multi-block / out-of-bounds request shape).
        fastpath_fallbacks,
        /// Invalidations published into the fast-path cache (per-block and
        /// per-file sweeps from writes/truncate/unlink/migrations/quarantine,
        /// plus global epoch bumps from tier add/remove and recovery).
        fastpath_invalidations,
        /// Blocks mirrored onto a second tier by deliberate placement
        /// (autotier `Mirror` actions and `Mux::mirror_range`).
        mirrors_created,
        /// Replica blocks retired (heat decay, watermark pressure, demotion
        /// prep, a write absorbing the range on the fast copy, or a write
        /// leaving the replica stale).
        mirrors_retired,
        /// Block reads served by a replica that is *faster* than the healthy
        /// primary — the mirror payoff counter (distinct from
        /// `replica_failovers`, which counts degraded-mode rescues).
        mirror_reads_fast,
        /// Blocks re-replicated by the lazy resync pass in `maintenance_tick`
        /// after a write was absorbed on the fast copy.
        lazy_resyncs,
        /// Background actions QoS admission deferred (dropped for this epoch;
        /// the planner re-plans them) because the destination tier was
        /// saturated and the tenant over its fair share.
        qos_deferrals,
        /// Background actions QoS admission shed outright (destination tier
        /// critically full for an over-share tenant).
        qos_sheds,
        /// Background bytes deferred by a per-tenant rate bucket.
        qos_tenant_throttled_bytes,
        /// Candidate files the planner skipped because their tenant was
        /// plan-blocked (over fair share on a saturated destination tier).
        qos_plan_exclusions,
        /// Read operations that arrived over a cluster link — this node served
        /// them on behalf of a remote peer (see `crates/cluster`).
        remote_reads,
        /// Write operations that arrived over a cluster link.
        remote_writes,
        /// Payload bytes moved for remote peers (read responses + write
        /// requests), excluding RPC framing.
        remote_bytes,
        /// Bytes appended to the metafile journal: intents, namespace records
        /// and inode upserts, frames included (see [`crate::persist`]).
        metalog_bytes,
        /// Metafile checkpoints written — on request, or because a flush
        /// would have pushed the journal past its budget.
        checkpoints,
        /// File records a checkpoint encoded from the live state: every
        /// file in a full encoding, the changed ones in an incremental one.
        checkpoint_files_encoded,
        /// File records a checkpoint copied verbatim from the last image.
        checkpoint_files_copied,
        /// User read operations per tenant slot (see
        /// [`crate::sched::tenant_slot`]).
        tenant_reads[MAX_TENANTS],
        /// User write operations per tenant slot.
        tenant_writes[MAX_TENANTS],
    }
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

    #[test]
    fn every_mux_counter_reaches_its_snapshot() {
        let s = MuxStats::default();
        let mut next = 0;
        for c in s.cells().flat_map(|(_, cells)| cells) {
            next += 1;
            MuxStats::add(c, next);
        }
        let snap = s.snapshot();
        let got: Vec<u64> = snap.values().flat_map(|(_, v)| v.to_vec()).collect();
        assert_eq!(got, (1..=next).collect::<Vec<_>>());
        assert_eq!(MuxStatsSnapshot::FIELDS.len(), 46);

        // Out-of-range tenants clamp to the last slot.
        let before = s.snapshot().tenant_reads;
        MuxStats::add_tenant(&s.tenant_reads, 99, 2);
        let after = s.snapshot().tenant_reads;
        assert_eq!(after[MAX_TENANTS - 1], before[MAX_TENANTS - 1] + 2);
        assert_eq!(after[..MAX_TENANTS - 1], before[..MAX_TENANTS - 1]);
    }
}
