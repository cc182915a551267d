//! Mux — a tiered file system that talks to file systems, not device
//! drivers.
//!
//! This crate is the primary contribution of *"Rethinking Tiered Storage:
//! Talk to File Systems, Not Device Drivers"* (HotOS '25). [`Mux`] slots
//! between the VFS layer and device-specific native file systems: it
//! implements [`tvfs::FileSystem`] towards applications and *consumes* the
//! same trait from the native file systems registered as tiers — issuing
//! "the same VFS function that invokes it, but with different file handles,
//! lengths, and offsets" (paper §2.1).
//!
//! The components follow Figure 1(c) of the paper:
//!
//! | Paper component      | Module |
//! |----------------------|--------|
//! | VFS Call Processor   | [`Mux`]'s `FileSystem` impl |
//! | FS Multiplexer / VFS Call Maker | [`Mux`] dispatch logic (request splitting per the Block Lookup Table, per-tier calls, result merge); every mutation's plan → dispatch → commit → account stages live in `mutate.rs` |
//! | File Blk. Tracker    | [`blt`] — the Block Lookup Table extent tree |
//! | Metadata Tracker     | [`meta`] — per-attribute metadata affinity + the collective inode |
//! | State Bookkeeper     | [`crate::file`] — per-file versions, migration flags, per-tier handles; [`persist`] — the durable Mux metafile |
//! | OCC Synchronizer     | [`occ`] — the one range mover: copy → durable → validate → flip → reclaim, behind migration and §4 replication alike |
//! | Policy Runner        | [`policy`] (trait + built-ins), [`policy_vm`] (the eBPF-style loadable policy) |
//! | Cache Controller     | [`cache`] + [`mglru`] — the SCM cache file with multi-generational LRU |
//!
//! Plus the §4 discussion items that have concrete implementations here:
//! the device-profile-driven I/O [`sched`]uler, runtime tier add/remove,
//! per-tier fault tolerance ([`health`] — circuit breaker, bounded
//! retry with backoff, and graceful degradation when a device sickens),
//! and the observability layer ([`trace`] — typed event ring; [`hist`] —
//! per-op×tier latency histograms; see OBSERVABILITY.md). The read hot
//! path bypasses the dispatch machinery entirely through [`fastpath`] — a
//! lock-free seqlock mapping cache (see PERFORMANCE.md).

#![warn(missing_docs)]

pub mod autotier;
pub mod blt;
pub mod cache;
pub mod crashtest;
pub mod fastpath;
pub mod file;
pub mod health;
pub mod hist;
pub mod integrity;
pub mod meta;
pub mod mglru;
mod mutate;
mod mux;
pub mod occ;
pub mod persist;
pub mod policy;
pub mod policy_vm;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod types;

pub use autotier::{AutotierConfig, EpochAction, EpochPlan, EpochReport};
pub use blt::BlockLookupTable;
pub use cache::{CacheConfig, CacheController};
pub use crashtest::{
    run_matrix, standard_scenarios, structural_check, CrashMatrix, Scenario, TierDef,
};
pub use fastpath::FastPath;
pub use health::{HealthConfig, HealthRegistry, HealthSnapshot, TierHealthState};
pub use hist::{
    HistSnapshot, LatencyRegistry, LatencyReport, OpKind, TenantLatencyReport, CACHE_TIER,
};
pub use integrity::{crc32c, ChecksumTable, IntegrityConfig, VerifyOutcome};
pub use meta::{AttrKind, CollectiveInode};
pub use mux::{Mux, TierHandle};
pub use occ::{MigrationOutcome, OccStats};
pub use policy::{
    HotColdPolicy, LruPolicy, PinnedPolicy, PlacementCtx, StripingPolicy, TieringPolicy, TpfsPolicy,
};
pub use policy_vm::{PolicyProgram, VmOp, VmPolicy};
pub use sched::{set_thread_tenant, thread_tenant, Admission, IoScheduler, QosConfig, TokenBucket};
pub use shard::{RemoveIf, ShardedMap};
pub use stats::MuxStats;
pub use trace::{TraceBuffer, TraceEvent, TraceEventKind};
pub use types::{
    CostModel, FastPathConfig, MuxOptions, TenantId, TierConfig, TierId, BLOCK, MAX_TENANTS,
};
