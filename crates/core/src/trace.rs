//! Structured event tracing (observability).
//!
//! A [`TraceBuffer`] is a bounded ring of typed [`TraceEvent`]s — dispatch,
//! split, cache hit/miss, migration phases, retry, redirect, health
//! transition — each stamped with the [`simdev::VirtualClock`] time, the
//! tier involved, the inode, and the byte range. Recording is one atomic
//! sequence claim plus one short per-slot lock (no global lock, no
//! allocation after the buffer is warm), so concurrent dispatch threads
//! trace without contending; when the ring is full the oldest events are
//! overwritten and [`TraceBuffer::recorded`] keeps the true total.
//!
//! # Examples
//!
//! ```
//! use mux::trace::{TraceBuffer, TraceEventKind};
//!
//! let buf = TraceBuffer::new(128);
//! buf.push(0, TraceEventKind::CacheMiss, 1, 7, 0, 4096);
//! let events = buf.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].ino, 7);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::health::TierHealthState;
use crate::hist::OpKind;
use crate::types::TierId;

/// Default ring capacity used by [`crate::MuxOptions`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// What happened. Variants carry only the fields the common envelope
/// ([`TraceEvent`]) does not already hold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum TraceEventKind {
    /// A native dispatch was issued to the event's tier.
    Dispatch {
        /// Operation class of the dispatch.
        op: OpKind,
    },
    /// A user read/write straddled placement boundaries and was split into
    /// `parts` native dispatches.
    Split {
        /// Number of native dispatches the call became.
        parts: u32,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
    /// The SCM cache served a block without touching the owning tier.
    CacheHit,
    /// The SCM cache did not hold the block; the read fell through to the
    /// event's tier.
    CacheMiss,
    /// An OCC migration of the event's byte range started; the event's tier
    /// is the destination.
    MigrationBegin,
    /// The OCC validate step ran; `conflicted` tells whether concurrent
    /// writes dirtied the copied range (forcing a retry round).
    MigrationValidate {
        /// Whether validation found dirty (conflicting) blocks.
        conflicted: bool,
    },
    /// The migration committed: the BLT now points at the event's tier.
    MigrationCommit {
        /// OCC retry rounds that were needed before the commit.
        retries: u32,
    },
    /// The migration was aborted and rolled back.
    MigrationAbort {
        /// `true` if validated blocks were still committed (partial
        /// commit) before the rollback of the remainder.
        partial: bool,
    },
    /// A failed native dispatch is being retried against the same tier.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A write aimed at `from` was redirected to the event's (healthy)
    /// tier because `from` is read-only or offline.
    Redirect {
        /// The unhealthy tier the write was originally placed on.
        from: TierId,
    },
    /// The health circuit breaker moved the event's tier between states.
    HealthTransition {
        /// State before the transition.
        from: TierHealthState,
        /// State after the transition.
        to: TierHealthState,
    },
    /// An autotier epoch began: the planner is about to run.
    EpochStart {
        /// Monotone epoch number.
        epoch: u64,
    },
    /// An autotier epoch's executor pass finished.
    EpochEnd {
        /// Monotone epoch number.
        epoch: u64,
        /// Blocks the executor moved during this tick.
        moved: u64,
    },
    /// The autotier planner emitted a migration plan for the event's byte
    /// range; the event's tier is the destination.
    PlanEmitted {
        /// `true` for a promotion (toward a faster class), `false` for a
        /// demotion.
        promote: bool,
    },
    /// The autotier rate limiter ran out of tokens; the event's byte range
    /// stays queued for a later tick.
    MigrationThrottled,
    /// The autotier executor yielded to foreground I/O this tick (recent
    /// read latency above the configured threshold).
    MigrationSkipped {
        /// The foreground read p95 since the previous tick, on the worst
        /// tier, that made the executor yield.
        read_p95_ns: u64,
    },
    /// A trusted block checksum failed verification on the event's tier;
    /// the event's byte range is the affected block.
    CorruptionDetected {
        /// The checksum the block was expected to carry.
        expected: u32,
        /// The checksum the served bytes actually had.
        actual: u32,
    },
    /// A corrupt block was restored; the event's tier is where the good
    /// copy came from.
    CorruptionRepaired {
        /// `true` when a verified replica supplied the bytes (and the
        /// primary was rewritten); `false` when a bounded re-read settled
        /// to the expected checksum, or when the primary supplied them
        /// to repair a rotted replica.
        from_replica: bool,
    },
    /// A corrupt block had no healthy copy anywhere and was quarantined:
    /// reads fail with [`tvfs::VfsError::Corrupt`] until it is rewritten.
    BlockQuarantined,
    /// The background scrubber finished one full pass over the namespace.
    ScrubPass {
        /// Monotone pass number (1-based).
        pass: u64,
        /// Blocks verified during this pass.
        verified: u64,
    },
    /// Deferred fast-path bookkeeping was flushed: this many fast-path
    /// read hits were folded into the heat map, tiering policy and access
    /// times since the previous flush. Fast-path hits emit no per-read
    /// `dispatch` event — this batch record is their trace footprint (see
    /// [`crate::fastpath`]).
    FastPathBatch {
        /// Fast-path hits drained in this flush.
        hits: u64,
    },
    /// A mirror of the event's byte range was created on the event's tier
    /// (the primary copy is unchanged and keeps serving writes).
    MirrorCreated {
        /// Tier holding the primary copy of the range.
        primary: TierId,
    },
    /// The replica of the event's byte range on the event's tier was
    /// retired (heat decay, watermark pressure, demotion prep, or a write
    /// absorbed on the fast copy).
    MirrorRetired,
    /// The lazy resync pass re-mirrored the event's byte range onto the
    /// event's tier after a write was absorbed on the fast copy.
    LazyResync,
    /// QoS admission deferred a background action for the event's byte
    /// range (destination tier saturated, tenant over fair share); the
    /// planner re-plans it next epoch.
    QosDeferred {
        /// Tenant whose action was deferred.
        tenant: u32,
    },
    /// QoS admission shed a background action outright (destination tier
    /// critically full for an over-share tenant).
    QosShed {
        /// Tenant whose action was shed.
        tenant: u32,
    },
    /// A per-tenant rate bucket ran dry; the event's byte range stays
    /// un-executed until the planner re-plans it.
    QosThrottled {
        /// Tenant whose bucket ran dry.
        tenant: u32,
    },
    /// A cluster link to a peer node went down (injected partition or a
    /// breaker decision). The event's `tier` field carries the *peer node
    /// id*, not a tier id.
    LinkPartitioned,
    /// A cluster link to a peer node came back; traffic may resume. The
    /// event's `tier` field carries the peer node id.
    LinkHealed,
    /// A VFS op arrived over a cluster link and was executed by this node
    /// on behalf of a peer. The event's `tier` field carries the
    /// *requesting* node id; ino/off/len describe the local operation.
    RemoteDispatch {
        /// Operation class of the remote call.
        op: OpKind,
    },
}

impl TraceEventKind {
    /// Stable short label for rendering (`dispatch`, `migration_commit`, …).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Dispatch { .. } => "dispatch",
            TraceEventKind::Split { .. } => "split",
            TraceEventKind::CacheHit => "cache_hit",
            TraceEventKind::CacheMiss => "cache_miss",
            TraceEventKind::MigrationBegin => "migration_begin",
            TraceEventKind::MigrationValidate { .. } => "migration_validate",
            TraceEventKind::MigrationCommit { .. } => "migration_commit",
            TraceEventKind::MigrationAbort { .. } => "migration_abort",
            TraceEventKind::Retry { .. } => "retry",
            TraceEventKind::Redirect { .. } => "redirect",
            TraceEventKind::HealthTransition { .. } => "health_transition",
            TraceEventKind::EpochStart { .. } => "epoch_start",
            TraceEventKind::EpochEnd { .. } => "epoch_end",
            TraceEventKind::PlanEmitted { .. } => "plan_emitted",
            TraceEventKind::MigrationThrottled => "migration_throttled",
            TraceEventKind::MigrationSkipped { .. } => "migration_skipped",
            TraceEventKind::CorruptionDetected { .. } => "corruption_detected",
            TraceEventKind::CorruptionRepaired { .. } => "corruption_repaired",
            TraceEventKind::BlockQuarantined => "block_quarantined",
            TraceEventKind::ScrubPass { .. } => "scrub_pass",
            TraceEventKind::FastPathBatch { .. } => "fast_path_batch",
            TraceEventKind::MirrorCreated { .. } => "mirror_created",
            TraceEventKind::MirrorRetired => "mirror_retired",
            TraceEventKind::LazyResync => "lazy_resync",
            TraceEventKind::QosDeferred { .. } => "qos_deferred",
            TraceEventKind::QosShed { .. } => "qos_shed",
            TraceEventKind::QosThrottled { .. } => "qos_throttled",
            TraceEventKind::LinkPartitioned => "link_partitioned",
            TraceEventKind::LinkHealed => "link_healed",
            TraceEventKind::RemoteDispatch { .. } => "remote_dispatch",
        }
    }
}

/// One traced event: the common envelope plus the kind-specific payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotone sequence number (never reset by ring wraparound).
    pub seq: u64,
    /// Virtual-clock timestamp, ns.
    pub at_ns: u64,
    /// Tier the event concerns ([`crate::hist::CACHE_TIER`] when none).
    pub tier: TierId,
    /// Inode involved (0 when not file-specific).
    pub ino: u64,
    /// Byte offset of the affected range.
    pub off: u64,
    /// Byte length of the affected range (0 when not range-specific).
    pub len: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Bounded, thread-safe ring buffer of [`TraceEvent`]s.
///
/// A capacity of 0 disables tracing entirely: [`TraceBuffer::push`]
/// becomes a no-op and nothing is retained.
///
/// Concurrency: a push claims its sequence number with one atomic
/// `fetch_add` and then writes `slot = seq % capacity` under that slot's
/// own mutex — two pushes contend only when they land on the same slot.
/// A slot is only overwritten by a *newer* sequence number, so a slow
/// thread that claimed seq `n` cannot clobber a faster thread's `n +
/// capacity` after the fact. [`TraceBuffer::clear`] advances an atomic
/// floor instead of touching the slots; readers ignore events below it.
pub struct TraceBuffer {
    cap: usize,
    /// Next sequence number to hand out == total events ever pushed.
    seq: AtomicU64,
    /// Events with `seq <` this are considered cleared.
    floor: AtomicU64,
    slots: Box<[Mutex<Option<TraceEvent>>]>,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let slots: Vec<Mutex<Option<TraceEvent>>> =
            (0..capacity).map(|_| Mutex::new(None)).collect();
        TraceBuffer {
            cap: capacity,
            seq: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Whether events are being retained (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Appends one event stamped at `at_ns`, overwriting the oldest event
    /// if the ring is full. No-op when disabled.
    pub fn push(
        &self,
        at_ns: u64,
        kind: TraceEventKind,
        tier: TierId,
        ino: u64,
        off: u64,
        len: u64,
    ) {
        if self.cap == 0 {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            at_ns,
            tier,
            ino,
            off,
            len,
            kind,
        };
        let mut slot = self.slots[(seq % self.cap as u64) as usize].lock();
        match &*slot {
            Some(old) if old.seq > seq => {} // a newer wrap already landed here
            _ => *slot = Some(ev),
        }
    }

    /// Total events ever recorded (including those the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events dropped by wraparound so far (cleared events don't count as
    /// dropped — they were discarded on purpose).
    pub fn dropped(&self) -> u64 {
        let seq = self.seq.load(Ordering::Relaxed);
        let pushed_since_floor = seq - self.floor.load(Ordering::Relaxed).min(seq);
        pushed_since_floor - pushed_since_floor.min(self.cap as u64)
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let floor = self.floor.load(Ordering::Relaxed);
        let mut out: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().clone())
            .filter(|e| e.seq >= floor)
            .collect();
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Discards retained events (sequence numbering continues).
    pub fn clear(&self) {
        // Raise the floor to the current sequence; slots stay as they are
        // and readers filter them out.
        let seq = self.seq.load(Ordering::Relaxed);
        self.floor.fetch_max(seq, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("cap", &self.cap)
            .field("retained", &self.events().len())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(buf: &TraceBuffer, i: u64) {
        buf.push(i * 10, TraceEventKind::CacheHit, 0, i, 0, 4096);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let buf = TraceBuffer::new(4);
        for i in 0..6 {
            ev(&buf, i);
        }
        assert_eq!(buf.recorded(), 6);
        assert_eq!(buf.dropped(), 2);
        let events = buf.events();
        assert_eq!(events.len(), 4);
        // Oldest-first, and the two oldest (ino 0, 1) are gone.
        let inos: Vec<u64> = events.iter().map(|e| e.ino).collect();
        assert_eq!(inos, vec![2, 3, 4, 5]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "seq survives wraparound");
    }

    #[test]
    fn partial_ring_returns_in_order() {
        let buf = TraceBuffer::new(8);
        for i in 0..3 {
            ev(&buf, i);
        }
        let events = buf.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let buf = TraceBuffer::new(0);
        ev(&buf, 1);
        assert!(!buf.enabled());
        assert_eq!(buf.recorded(), 0);
        assert!(buf.events().is_empty());
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let buf = TraceBuffer::new(4);
        ev(&buf, 0);
        ev(&buf, 1);
        buf.clear();
        assert!(buf.events().is_empty());
        ev(&buf, 2);
        assert_eq!(buf.events()[0].seq, 2);
    }

    #[test]
    fn concurrent_pushes_keep_unique_monotone_seqs() {
        use std::sync::Arc;
        let buf = Arc::new(TraceBuffer::new(256));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        buf.push(i, TraceEventKind::CacheMiss, 0, t, 0, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(buf.recorded(), 1600);
        assert_eq!(buf.dropped(), 1600 - 256);
        let events = buf.events();
        assert_eq!(events.len(), 256);
        // Strictly increasing seqs — no slot holds a stale wrap.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.iter().all(|e| e.seq >= 1600 - 256));
    }

    #[test]
    fn exact_capacity_fill_then_wrap() {
        let buf = TraceBuffer::new(3);
        for i in 0..3 {
            ev(&buf, i);
        }
        assert_eq!(buf.dropped(), 0);
        let inos: Vec<u64> = buf.events().iter().map(|e| e.ino).collect();
        assert_eq!(inos, vec![0, 1, 2]);
        ev(&buf, 3);
        let inos: Vec<u64> = buf.events().iter().map(|e| e.ino).collect();
        assert_eq!(inos, vec![1, 2, 3]);
    }
}
