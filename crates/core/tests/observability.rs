//! Observability integration tests: trace events for migrations (including
//! a forced abort matching the OCC phases), dispatch latency histograms,
//! cache hit/miss events, health-transition events, and retry events.

use std::sync::Arc;

use mux::{
    CacheConfig, CacheController, Mux, MuxOptions, OpKind, PinnedPolicy, TierConfig,
    TierHealthState, TraceEventKind, BLOCK, CACHE_TIER,
};
use simdev::{Device, DeviceClass, FaultMode, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, ROOT_INO};
use workloads::pattern_at;

/// Tier 0 = MemFs primary, tier 1 = NovaFs on a fault-injectable device.
fn rig_faulty_destination() -> (Arc<Mux>, Device) {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let nova =
        Arc::new(novafs::NovaFs::format(dev.clone(), novafs::NovaOptions::default()).unwrap());
    let mem = Arc::new(MemFs::new("primary", 1 << 28));
    let mux = Arc::new(Mux::new(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    ));
    mux.add_tier(
        TierConfig {
            name: "primary".into(),
            class: DeviceClass::Pmem,
        },
        mem as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "faulty-dst".into(),
            class: DeviceClass::Ssd,
        },
        nova as Arc<dyn FileSystem>,
    );
    (mux, dev)
}

/// The migration-phase events for one inode, in order.
fn migration_events(mux: &Mux, ino: u64) -> Vec<TraceEventKind> {
    mux.trace_snapshot()
        .into_iter()
        .filter(|e| e.ino == ino)
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::MigrationBegin
                    | TraceEventKind::MigrationValidate { .. }
                    | TraceEventKind::MigrationCommit { .. }
                    | TraceEventKind::MigrationAbort { .. }
            )
        })
        .map(|e| e.kind)
        .collect()
}

#[test]
fn successful_migration_traces_begin_validate_commit() {
    let (mux, _dev) = rig_faulty_destination();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (8 * BLOCK) as usize))
        .unwrap();
    mux.migrate_range(f.ino, 0, 8, 1).unwrap();
    let phases = migration_events(&mux, f.ino);
    assert_eq!(
        phases,
        vec![
            TraceEventKind::MigrationBegin,
            TraceEventKind::MigrationValidate { conflicted: false },
            TraceEventKind::MigrationCommit { retries: 0 },
        ],
        "uncontended OCC migration is begin → validate(clean) → commit"
    );
    // The envelope carries the destination tier and the byte range.
    let ev = mux
        .trace_snapshot()
        .into_iter()
        .find(|e| e.kind == TraceEventKind::MigrationBegin)
        .unwrap();
    assert_eq!(ev.tier, 1);
    assert_eq!((ev.off, ev.len), (0, 8 * BLOCK));
    // Migration phases also landed in the latency registry.
    let rep = mux.latency_report();
    assert!(rep.get(OpKind::MigrationCopy, 1).is_some());
    assert!(rep.get(OpKind::MigrationCommit, 1).is_some());
}

#[test]
fn forced_abort_trace_matches_occ_phases() {
    let (mux, dev) = rig_faulty_destination();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (16 * BLOCK) as usize))
        .unwrap();
    // The destination device dies a few operations into the copy phase:
    // the migration must abort before ever validating or committing.
    dev.set_fault_mode(FaultMode::FailStop { remaining_ops: 6 });
    assert!(mux.migrate_range(f.ino, 0, 16, 1).is_err());
    assert_eq!(mux.occ_stats().aborts(), 1);
    let phases = migration_events(&mux, f.ino);
    assert_eq!(
        phases,
        vec![
            TraceEventKind::MigrationBegin,
            TraceEventKind::MigrationAbort { partial: false },
        ],
        "fault during copy aborts without validate/commit"
    );
    // Timestamps and sequence numbers are monotone over the whole trace.
    let events = mux.trace_snapshot();
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    // The dying device also tripped the breaker: the transition is traced.
    let transitions: Vec<_> = events
        .iter()
        .filter(|e| e.tier == 1)
        .filter_map(|e| match e.kind {
            TraceEventKind::HealthTransition { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert!(
        transitions.contains(&(TierHealthState::Healthy, TierHealthState::Degraded)),
        "breaker escalation must be traced, got {transitions:?}"
    );
}

#[test]
fn dispatch_latency_is_recorded_per_op_and_tier() {
    let (mux, _dev) = rig_faulty_destination();
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    let data = pattern_at(0, (4 * BLOCK) as usize);
    mux.write(f.ino, 0, &data).unwrap();
    let mut buf = vec![0u8; (4 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    mux.fsync(f.ino).unwrap();
    let rep = mux.latency_report();
    // Tier 0 served writes, reads, fsync, and namespace materialization.
    for op in [OpKind::Write, OpKind::Read, OpKind::Fsync, OpKind::Meta] {
        let h = rep
            .get(op, 0)
            .unwrap_or_else(|| panic!("no histogram for {op:?} on tier 0"));
        assert!(h.count > 0);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max_ns.max(h.p99()));
    }
    // The 4-block read was one run: one native read, one histogram sample.
    assert_eq!(rep.get(OpKind::Read, 0).unwrap().count, 1);
    // Nothing was dispatched to tier 1.
    assert!(rep.get(OpKind::Read, 1).is_none());
    // Dispatch events carry inode and byte range.
    let dispatches: Vec<_> = mux
        .trace_snapshot()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Dispatch { op: OpKind::Read }))
        .collect();
    assert_eq!(dispatches.len(), 1);
    assert!(dispatches.iter().all(|e| e.ino == f.ino && e.tier == 0));
    assert_eq!(dispatches[0].off, 0);
    assert_eq!(dispatches[0].len, 4 * BLOCK);
    // A read that covers its first and last block only partly is three
    // runs: the partial blocks go through the scratch page one by one.
    let mut buf = vec![0u8; (2 * BLOCK) as usize];
    mux.read(f.ino, BLOCK / 2, &mut buf).unwrap();
    assert_eq!(buf, data[(BLOCK / 2) as usize..][..buf.len()]);
    let ranges: Vec<_> = mux
        .trace_snapshot()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Dispatch { op: OpKind::Read }))
        .skip(1)
        .map(|e| (e.off, e.len))
        .collect();
    assert_eq!(
        ranges,
        [
            (BLOCK / 2, BLOCK / 2),
            (BLOCK, BLOCK),
            (2 * BLOCK, BLOCK / 2)
        ]
    );
}

#[test]
fn retries_emit_trace_events() {
    let (mux, dev) = rig_faulty_destination();
    // Pin placement onto the faulty device's tier.
    mux.set_policy(Arc::new(PinnedPolicy::new(1)));
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    dev.set_fault_mode(FaultMode::Intermittent {
        period: 24,
        seed: 42,
    });
    for i in 0..32u64 {
        mux.write(f.ino, i * BLOCK, &pattern_at(i, BLOCK as usize))
            .unwrap();
    }
    let retries = mux
        .trace_snapshot()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Retry { .. }))
        .count() as u64;
    assert!(retries > 0, "intermittent faults must emit retry events");
    assert_eq!(retries, mux.stats().snapshot().io_retries);
}

#[test]
fn cache_lookups_trace_hits_and_misses() {
    let clock = VirtualClock::new();
    let mem = Arc::new(MemFs::new("ssd", 1 << 28));
    let mux = Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    );
    mux.add_tier(
        TierConfig {
            name: "ssd".into(),
            class: DeviceClass::Ssd, // slow enough to be cached
        },
        mem as Arc<dyn FileSystem>,
    );
    let scm = Device::with_profile(simdev::pmem(), 16 << 20, clock);
    let window = mux::cache::DaxWindow::new(scm, vec![(0, 64 * BLOCK)]);
    mux.attach_cache(Arc::new(CacheController::new(
        Box::new(window),
        CacheConfig::default(),
    )));
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, (2 * BLOCK) as usize))
        .unwrap();
    let mut buf = vec![0u8; (2 * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap(); // misses, then fills
    mux.read(f.ino, 0, &mut buf).unwrap(); // hits
    let events = mux.trace_snapshot();
    let hits = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CacheHit)
        .count();
    let misses = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CacheMiss)
        .count();
    assert_eq!((hits, misses), (2, 2));
    // Cache events live under the cache pseudo-tier, with byte ranges.
    assert!(events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CacheHit)
        .all(|e| e.tier == CACHE_TIER && e.len == BLOCK));
    // And the cache latency histograms saw the traffic.
    let rep = mux.latency_report();
    assert_eq!(rep.get(OpKind::CacheLookup, CACHE_TIER).unwrap().count, 4);
    assert_eq!(rep.get(OpKind::CacheFill, CACHE_TIER).unwrap().count, 2);
}

#[test]
fn trace_can_be_disabled_without_losing_histograms() {
    let clock = VirtualClock::new();
    let mem = Arc::new(MemFs::new("t0", 1 << 26));
    let mux = Mux::new(
        clock,
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions {
            trace_capacity: 0,
            ..Default::default()
        },
    );
    mux.add_tier(
        TierConfig {
            name: "t0".into(),
            class: DeviceClass::Pmem,
        },
        mem as Arc<dyn FileSystem>,
    );
    let f = mux.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    mux.write(f.ino, 0, &pattern_at(0, BLOCK as usize)).unwrap();
    assert!(!mux.trace().enabled());
    assert!(mux.trace_snapshot().is_empty());
    assert!(mux.latency_report().get(OpKind::Write, 0).is_some());
}
