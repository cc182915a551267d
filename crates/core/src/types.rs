//! Core identifiers, options and the crossing-cost model.

use simdev::DeviceClass;

/// Mux block size: the granularity of the Block Lookup Table and of
/// block-level data distribution (paper §2.2).
pub const BLOCK: u64 = 4096;

/// Identifier of a registered tier (index into Mux's tier table).
pub type TierId = u32;

/// Identifier of a tenant (a workload sharing the Mux instance). Tenant 0
/// is the default for untagged traffic; ids at or above [`MAX_TENANTS`]
/// share the last accounting slot.
pub type TenantId = u32;

/// Number of distinct tenant accounting slots (histograms, stats
/// counters). Fixed so the per-tenant observability tables stay
/// lock-free and allocation-free, like the per-tier ones.
pub const MAX_TENANTS: usize = 8;

/// Static description of a tier at registration time.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Human-readable name, e.g. `"pm-nova"`.
    pub name: String,
    /// Device class, used by policies for promote/demote directions.
    pub class: DeviceClass,
}

/// Virtual-time costs of Mux's own software path (the indirection the
/// paper's §3.2 quantifies). Charged on the shared clock per operation;
/// device and native-file-system time is charged by those layers.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// VFS Call Processor entry (argument validation, inode resolution).
    pub call_processor_ns: u64,
    /// One Block Lookup Table query (extent-tree descent).
    pub blt_lookup_ns: u64,
    /// Issuing one split sub-request to a native file system (the VFS Call
    /// Maker: handle translation + call frame).
    pub dispatch_ns: u64,
    /// Merging sub-request results into the unified response.
    pub merge_ns: u64,
    /// Collective-inode / affinity bookkeeping per mutation.
    pub meta_update_ns: u64,
    /// OCC version + migration-flag check on the write path.
    pub occ_check_ns: u64,
    /// Maximum bytes per dispatched sub-request; larger user requests are
    /// split (this is what makes Mux's write overhead grow on slow devices
    /// — §3.2 measures 1.6 %→3.5 % from PM to HDD).
    pub max_dispatch_bytes: u64,
    /// Entire Mux software cost of a fast-path read hit: one seqlock
    /// cache probe plus the post-read revalidation (see
    /// [`crate::fastpath`] and PERFORMANCE.md). Replaces the
    /// `call_processor + blt_lookup + occ_check + dispatch + merge`
    /// stack (660 ns at the defaults) when the fast path hits.
    pub fastpath_ns: u64,
    /// Additional *write-path* crossing cost in ns per KiB dispatched,
    /// indexed by [`simdev::DeviceClass`] order (PM, CXL-SSD, SSD, HDD).
    /// Models the per-segment work Mux re-enters in the native stack —
    /// bounce-buffer copies, bio segment setup, completion waits — which
    /// scales with request size and deepens down the hierarchy.
    /// Calibrated against the paper's §3.2 write-overhead band (see
    /// EXPERIMENTS.md).
    pub write_dispatch_extra_ns_per_kib: [u64; 4],
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            call_processor_ns: 150,
            blt_lookup_ns: 120,
            dispatch_ns: 250,
            merge_ns: 80,
            meta_update_ns: 100,
            occ_check_ns: 60,
            max_dispatch_bytes: 512 * 1024,
            fastpath_ns: 40,
            write_dispatch_extra_ns_per_kib: [2, 4, 11, 150],
        }
    }
}

/// Configuration for the lock-free read fast path ([`crate::fastpath`]).
#[derive(Debug, Clone)]
pub struct FastPathConfig {
    /// Master switch. Off, every read takes the full dispatch path.
    pub enabled: bool,
    /// Mapping-cache capacity in slots (rounded up to a power of two;
    /// 4-way set-associative). At 80 bytes per slot the default costs
    /// 5 MiB and covers a 256 MiB hot set of 4 KiB blocks.
    pub slots: usize,
    /// Flush deferred hit bookkeeping (heat map, policy, atime, trace)
    /// after this many fast-path hits, in addition to the flush at every
    /// [`crate::Mux::maintenance_tick`].
    pub flush_every: u64,
}

impl Default for FastPathConfig {
    fn default() -> Self {
        FastPathConfig {
            enabled: true,
            slots: 1 << 16,
            flush_every: 256,
        }
    }
}

/// Construction options for [`crate::Mux`].
#[derive(Debug, Clone)]
pub struct MuxOptions {
    /// Crossing-cost model.
    pub cost: CostModel,
    /// OCC migration retries before falling back to lock-based migration
    /// (paper §2.4: bounded retries bound the replication lag).
    pub migration_retries: u32,
    /// Tier health thresholds and the I/O retry/backoff policy.
    pub health: crate::health::HealthConfig,
    /// Capacity of the observability event ring
    /// ([`crate::trace::TraceBuffer`]); 0 disables event tracing. Latency
    /// histograms are always on (they are fixed-size and lock-free).
    pub trace_capacity: usize,
    /// The autonomous background tiering engine ([`crate::autotier`]),
    /// driven by [`crate::Mux::maintenance_tick`].
    pub autotier: crate::autotier::AutotierConfig,
    /// End-to-end data integrity: block checksums, read-path repair and
    /// the background scrubber ([`crate::integrity`]).
    pub integrity: crate::integrity::IntegrityConfig,
    /// The lock-free read fast path ([`crate::fastpath`]).
    pub fastpath: FastPathConfig,
    /// Multi-tenant QoS at the I/O scheduler seam ([`crate::sched`]):
    /// weighted fair queues, per-tenant rate limits, and background
    /// admission control.
    pub qos: crate::sched::QosConfig,
}

impl Default for MuxOptions {
    fn default() -> Self {
        MuxOptions {
            cost: CostModel::default(),
            migration_retries: 3,
            health: crate::health::HealthConfig::default(),
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
            autotier: crate::autotier::AutotierConfig::default(),
            integrity: crate::integrity::IntegrityConfig::default(),
            fastpath: FastPathConfig::default(),
            qos: crate::sched::QosConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = MuxOptions::default();
        assert!(o.cost.max_dispatch_bytes >= BLOCK);
        assert!(o.migration_retries > 0);
        assert_eq!(o.cost.max_dispatch_bytes % BLOCK, 0);
        assert!(o.fastpath.enabled);
        assert!(o.fastpath.slots >= 4);
        assert!(o.fastpath.flush_every > 0);
        // The fast path must actually be faster than the dispatch stack
        // it replaces, or the whole exercise is pointless.
        assert!(
            o.cost.fastpath_ns
                < o.cost.call_processor_ns
                    + o.cost.blt_lookup_ns
                    + o.cost.occ_check_ns
                    + o.cost.dispatch_ns
                    + o.cost.merge_ns
        );
    }
}
