//! Real multi-threaded races against the sharded Mux core.
//!
//! These tests drive genuinely concurrent readers, writers, migrators and
//! evacuations (no virtual-time interleaving tricks) and assert the three
//! properties the concurrency model owes callers: no lost updates,
//! block-level placement that stays consistent, and OCC counters that
//! match the conflicts actually observed. They are also the suite the CI
//! ThreadSanitizer job runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use mux::{LruPolicy, Mux, MuxOptions, PinnedPolicy, TierConfig, TieringPolicy, BLOCK};
use simdev::{DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, VfsError, ROOT_INO};
use workloads::{pattern_at, pattern_check};

fn rig(policy: Arc<dyn TieringPolicy>) -> Arc<Mux> {
    let mux = Arc::new(Mux::new(VirtualClock::new(), policy, MuxOptions::default()));
    let classes = [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd];
    for (i, class) in classes.into_iter().enumerate() {
        mux.add_tier(
            TierConfig {
                name: format!("tier{i}"),
                class,
            },
            Arc::new(MemFs::new(format!("tier{i}"), 1 << 30)) as Arc<dyn FileSystem>,
        );
    }
    mux
}

#[test]
fn racing_writers_on_disjoint_files_never_interfere() {
    let mux = rig(Arc::new(LruPolicy::default_watermarks()));
    let threads = 8;
    let blocks_per_file = 32u64;
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let mux = Arc::clone(&mux);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let ino = mux
                    .create(ROOT_INO, &format!("f{t}"), FileType::Regular, 0o644)
                    .unwrap()
                    .ino;
                for b in 0..blocks_per_file {
                    let off = b * BLOCK;
                    mux.write(ino, off, &pattern_at(off, BLOCK as usize))
                        .unwrap();
                }
                for b in 0..blocks_per_file {
                    let off = b * BLOCK;
                    let mut buf = vec![0u8; BLOCK as usize];
                    assert_eq!(mux.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
                    assert!(pattern_check(off, &buf), "thread {t} block {b} corrupt");
                }
            });
        }
    });
    assert_eq!(mux.statfs().unwrap().inodes, threads as u64);
    // Every file fully readable from the main thread afterwards.
    for t in 0..threads {
        let attr = mux.lookup(ROOT_INO, &format!("f{t}")).unwrap();
        assert_eq!(attr.size, blocks_per_file * BLOCK);
    }
}

#[test]
fn racing_writers_on_disjoint_blocks_of_one_file_lose_nothing() {
    let mux = rig(Arc::new(LruPolicy::default_watermarks()));
    let threads = 8u64;
    let blocks_per_thread = 16u64;
    let ino = mux
        .create(ROOT_INO, "shared", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    let barrier = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let mux = Arc::clone(&mux);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                // Interleaved ownership (stride = threads) maximizes
                // adjacent-block contention in the BLT.
                for i in 0..blocks_per_thread {
                    let b = i * threads + t;
                    let off = b * BLOCK;
                    mux.write(ino, off, &pattern_at(off, BLOCK as usize))
                        .unwrap();
                }
            });
        }
    });
    let total = threads * blocks_per_thread;
    for b in 0..total {
        let off = b * BLOCK;
        let mut buf = vec![0u8; BLOCK as usize];
        assert_eq!(mux.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
        assert!(pattern_check(off, &buf), "block {b} lost or torn");
    }
    // Placement is consistent: every block mapped exactly once, extents
    // cover [0, total) with no overlap.
    let mut placement = mux.file_placement(ino).unwrap();
    placement.sort_unstable();
    let mut covered = 0u64;
    for (start, len, _tier) in placement {
        assert_eq!(start, covered, "placement gap or overlap at block {start}");
        covered = start + len;
    }
    assert_eq!(covered, total);
}

#[test]
fn concurrent_creates_of_one_name_have_exactly_one_winner() {
    let mux = rig(Arc::new(LruPolicy::default_watermarks()));
    let threads = 8;
    let barrier = Barrier::new(threads);
    let wins = AtomicU64::new(0);
    let exists = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let mux = Arc::clone(&mux);
            let barrier = &barrier;
            let wins = &wins;
            let exists = &exists;
            s.spawn(move || {
                barrier.wait();
                match mux.create(ROOT_INO, "contested", FileType::Regular, 0o644) {
                    Ok(_) => wins.fetch_add(1, Ordering::Relaxed),
                    Err(VfsError::Exists) => exists.fetch_add(1, Ordering::Relaxed),
                    Err(e) => panic!("unexpected error: {e:?}"),
                };
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), 1);
    assert_eq!(exists.load(Ordering::Relaxed), threads as u64 - 1);
    // The surviving entry resolves and is writable; no orphan nodes leak.
    let ino = mux.lookup(ROOT_INO, "contested").unwrap().ino;
    mux.write(ino, 0, b"winner").unwrap();
    assert_eq!(mux.statfs().unwrap().inodes, 1);
}

#[test]
fn namespace_churn_with_concurrent_readdir_stays_consistent() {
    let mux = rig(Arc::new(LruPolicy::default_watermarks()));
    let threads = 4u64;
    let rounds = 50;
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Churners: each creates and unlinks its own names repeatedly.
        for t in 0..threads {
            let mux = Arc::clone(&mux);
            let done = &done;
            s.spawn(move || {
                for r in 0..rounds {
                    let name = format!("churn-{t}-{}", r % 5);
                    let ino = mux
                        .create(ROOT_INO, &name, FileType::Regular, 0o644)
                        .unwrap()
                        .ino;
                    mux.write(ino, 0, b"x").unwrap();
                    mux.unlink(ROOT_INO, &name).unwrap();
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        // Reader: readdir + lookup every visible entry, tolerating the
        // documented transients (an entry unlinked between the two calls,
        // or unlinked and re-created under the same name — churners reuse
        // their five names, and inos are a never-reused bump counter, so
        // a re-created name resolves to a strictly newer ino), until
        // every churner has finished.
        let mux = Arc::clone(&mux);
        let stop = &stop;
        let done = &done;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for e in mux.readdir(ROOT_INO).unwrap() {
                    match mux.lookup(ROOT_INO, &e.name) {
                        Ok(a) => assert!(
                            a.ino >= e.ino,
                            "lookup went back in time: {} resolved to ino {} \
                             after readdir saw {}",
                            e.name,
                            a.ino,
                            e.ino
                        ),
                        Err(VfsError::NotFound) | Err(VfsError::Stale) => {}
                        Err(other) => panic!("lookup failed: {other:?}"),
                    }
                }
                if done.load(Ordering::Acquire) == threads {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        });
    });
    // All churned names are gone and the file table is empty.
    let leftover: Vec<String> = mux
        .readdir(ROOT_INO)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(leftover.is_empty(), "leftover entries: {leftover:?}");
    assert_eq!(mux.statfs().unwrap().inodes, 0);
}

#[test]
fn readers_racing_migrations_never_see_torn_or_stale_blocks() {
    let mux = rig(Arc::new(PinnedPolicy::new(0)));
    let blocks = 64u64;
    let ino = mux
        .create(ROOT_INO, "hot", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    for b in 0..blocks {
        let off = b * BLOCK;
        mux.write(ino, off, &pattern_at(off, BLOCK as usize))
            .unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Four readers hammer random-ish blocks; content never changes, so
        // every read must verify regardless of where the block lives.
        for t in 0..4u64 {
            let mux = Arc::clone(&mux);
            let stop = &stop;
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let b = (i * 17 + t) % blocks;
                    let off = b * BLOCK;
                    let mut buf = vec![0u8; BLOCK as usize];
                    let got = mux.read(ino, off, &mut buf).unwrap();
                    assert_eq!(got, BLOCK as usize);
                    assert!(
                        pattern_check(off, &buf),
                        "reader {t} saw torn/stale block {b}"
                    );
                    i += 1;
                }
            });
        }
        // Migrator: bounce the whole file between tiers under fire.
        for round in 0..12 {
            let to = [1u32, 2, 0][round % 3];
            mux.migrate_range(ino, 0, blocks, to).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (migs, _c, _r, _f, moved) = mux.occ_stats().snapshot();
    assert_eq!(migs, 12);
    assert_eq!(moved, 12 * blocks, "every round moved every block");
    // Reads raced commits; some may have chased the moved block. The
    // counter existing (and the asserts above passing) is the contract;
    // whether any hop actually happened is timing-dependent.
    let _ = mux.stats().snapshot().read_revalidations;
}

#[test]
fn occ_conflict_counters_match_observed_retry_rounds() {
    let mux = rig(Arc::new(PinnedPolicy::new(0)));
    let blocks = 256u64;
    let ino = mux
        .create(ROOT_INO, "contended", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(ino, 0, &vec![3u8; (blocks * BLOCK) as usize])
        .unwrap();
    let stop = AtomicBool::new(false);
    let started = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = {
            let mux = Arc::clone(&mux);
            let (stop, started) = (&stop, &started);
            s.spawn(move || {
                let page = vec![9u8; BLOCK as usize];
                let mut i = 0u64;
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    mux.write(ino, (i % blocks) * BLOCK, &page).unwrap();
                    started.store(true, Ordering::Relaxed);
                    i += 1;
                    writes += 1;
                }
                writes
            })
        };
        // The migrations race a writer that is already running: on a busy
        // host the writer thread may otherwise first run after the last
        // round has committed.
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        for round in 0..8 {
            let to = if round % 2 == 0 { 1 } else { 2 };
            mux.migrate_range(ino, 0, blocks, to).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().unwrap() > 0, "writer made progress");
    });
    let (migs, conflicts, retries, fallbacks, moved) = mux.occ_stats().snapshot();
    assert_eq!(migs, 8);
    assert!(
        moved >= 8 * blocks,
        "dirty blocks are re-copied, never skipped"
    );
    // The synchronizer bumps `retries` exactly once per detected conflict
    // round; with a real racing writer both counters move in lockstep.
    assert_eq!(
        conflicts, retries,
        "every observed conflict is matched by exactly one retry round"
    );
    assert!(fallbacks <= migs, "fallbacks are a subset of migrations");
}

#[test]
fn evacuation_races_writers_without_losing_blocks() {
    let mux = rig(Arc::new(PinnedPolicy::new(0)));
    let files = 4u64;
    let blocks = 32u64;
    let inos: Vec<u64> = (0..files)
        .map(|i| {
            let ino = mux
                .create(ROOT_INO, &format!("evac{i}"), FileType::Regular, 0o644)
                .unwrap()
                .ino;
            for b in 0..blocks {
                let off = b * BLOCK;
                mux.write(ino, off, &pattern_at(off, BLOCK as usize))
                    .unwrap();
            }
            ino
        })
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writers keep rewriting the same pattern (idempotent) while tier
        // 0 is drained underneath them.
        for (t, &ino) in inos.iter().enumerate() {
            let mux = Arc::clone(&mux);
            let stop = &stop;
            s.spawn(move || {
                let mut b = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let off = (b % blocks) * BLOCK;
                    mux.write(ino, off, &pattern_at(off, BLOCK as usize))
                        .unwrap();
                    b += 1;
                }
            });
        }
        let summary = mux.evacuate_tier(0).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(summary.failed, 0, "no range failed to move");
    });
    // All data intact, and nothing the evacuation saw remains on tier 0.
    // (Writers kept writing during the sweep, so post-sweep blocks may
    // legitimately land back on tier 0 — content is the invariant.)
    for &ino in &inos {
        for b in 0..blocks {
            let off = b * BLOCK;
            let mut buf = vec![0u8; BLOCK as usize];
            assert_eq!(mux.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
            assert!(pattern_check(off, &buf), "ino {ino} block {b} corrupt");
        }
    }
}

#[test]
fn fastpath_readers_racing_migration_commits_and_tier_fences_stay_correct() {
    // The lock-free fast path serves reads from a seqlock cache that OCC
    // commits invalidate per-block and tier fences invalidate wholesale
    // (health generation). Hammer both invalidation sources under real
    // reader fire: every read must return the written pattern whether it
    // was served by the fast path or fell back to the dispatch path.
    let mux = rig(Arc::new(PinnedPolicy::new(0)));
    let blocks = 64u64;
    let ino = mux
        .create(ROOT_INO, "hot", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    for b in 0..blocks {
        let off = b * BLOCK;
        mux.write(ino, off, &pattern_at(off, BLOCK as usize))
            .unwrap();
    }
    // Populate the fast path: a second sequential read of every block
    // hits the entries the first pass inserted.
    let mut buf = vec![0u8; BLOCK as usize];
    for pass in 0..2 {
        for b in 0..blocks {
            let off = b * BLOCK;
            assert_eq!(mux.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
            assert!(pattern_check(off, &buf), "warm pass {pass} block {b}");
        }
    }
    let before = mux.stats().snapshot();
    assert!(
        before.fastpath_hits > 0,
        "warmup produced no fast-path hits"
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Four readers hammer the file; content never changes, so every
        // read must verify regardless of which path served it.
        for t in 0..4u64 {
            let mux = Arc::clone(&mux);
            let stop = &stop;
            s.spawn(move || {
                let mut i = t;
                let mut buf = vec![0u8; BLOCK as usize];
                while !stop.load(Ordering::Relaxed) {
                    let b = (i * 13 + t) % blocks;
                    let off = b * BLOCK;
                    let got = mux.read(ino, off, &mut buf).unwrap();
                    assert_eq!(got, BLOCK as usize);
                    assert!(
                        pattern_check(off, &buf),
                        "reader {t} saw torn/stale block {b}"
                    );
                    i += 1;
                }
            });
        }
        // Fencer: bounce tier health Healthy <-> ReadOnly while commits
        // land. Each transition bumps the health generation, so every
        // cached entry published before the fence dies at once.
        {
            let mux = Arc::clone(&mux);
            let stop = &stop;
            s.spawn(move || {
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    let state = if flip {
                        mux::TierHealthState::ReadOnly
                    } else {
                        mux::TierHealthState::Healthy
                    };
                    // Fence tier 2 (HDD): never the read-serving tier, so
                    // reads keep succeeding while the generation churns.
                    mux.health().force_state(2, state);
                    flip = !flip;
                    std::thread::yield_now();
                }
                mux.health().force_state(2, mux::TierHealthState::Healthy);
            });
        }
        // Migrator: bounce the whole file between PM and SSD under fire.
        // Every OCC commit swings the BLT and invalidates the migrated
        // blocks' fast-path entries.
        for round in 0..12 {
            let to = [1u32, 0][round % 2];
            mux.migrate_range(ino, 0, blocks, to).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (migs, _c, _r, _f, moved) = mux.occ_stats().snapshot();
    assert_eq!(migs, 12);
    assert_eq!(moved, 12 * blocks, "every round moved every block");
    // The final migration round killed every cached entry. One more read
    // pass therefore either misses (fallback now) or hits an entry that a
    // racing reader re-inserted via the dispatch path (its miss was a
    // fallback already) — so fallbacks must have grown either way, no
    // matter how the scheduler starved the reader threads.
    for b in 0..blocks {
        let off = b * BLOCK;
        assert_eq!(mux.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
        assert!(pattern_check(off, &buf), "post-race block {b} corrupt");
    }
    let after = mux.stats().snapshot();
    // Commits and fences must have published invalidations, and reads
    // must have taken the fallback path (entries die under them) — both
    // without a single wrong byte.
    assert!(
        after.fastpath_invalidations > before.fastpath_invalidations,
        "migration commits published no fast-path invalidations"
    );
    assert!(
        after.fastpath_fallbacks > before.fastpath_fallbacks,
        "no read ever fell back while entries were being invalidated"
    );
}

#[test]
fn racing_tenant_streams_drain_fairly_without_cross_tenant_theft() {
    // Two tenants submit their background streams concurrently while a
    // whole-queue drainer (maintenance) and an ino-scoped drainer (a
    // migration copy stream) race them. The scheduler owes three things:
    // conservation (every submitted request drained exactly once),
    // isolation (drain_for never hands one file's stream another file's —
    // i.e. another tenant's — requests), and weighted-fair interleaving
    // within every mixed batch.
    use std::collections::HashSet;
    use std::sync::Mutex;

    use mux::sched::IoRequest;
    use mux::IoScheduler;
    use simdev::hdd;

    let sched = Arc::new(IoScheduler::new());
    let per_tenant = 256u64;
    // Stride-2 offsets are never adjacent, so request merging cannot fold
    // two submissions into one and every request stays individually
    // observable on the drain side.
    let stride = 2 * BLOCK;
    let submitted = per_tenant * 2;
    let taken = AtomicU64::new(0);
    let barrier = Barrier::new(4);
    let mixed = Mutex::new(Vec::<Vec<IoRequest>>::new());
    let scoped = Mutex::new(Vec::<Vec<IoRequest>>::new());
    std::thread::scope(|s| {
        for tenant in [1u32, 2] {
            let sched = Arc::clone(&sched);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..per_tenant {
                    sched.submit(
                        0,
                        IoRequest {
                            ino: tenant as u64,
                            off: i * stride,
                            len: BLOCK,
                            write: false,
                            tenant,
                        },
                    );
                }
            });
        }
        // Scoped drainer: tenant 1's per-file migration stream.
        {
            let sched = Arc::clone(&sched);
            let barrier = &barrier;
            let scoped = &scoped;
            let taken = &taken;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..64 {
                    let batch = sched.drain_for(0, &hdd(), 1);
                    if !batch.is_empty() {
                        taken.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        scoped.lock().unwrap().push(batch);
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Whole-queue drainer (the maintenance tick) until conservation.
        barrier.wait();
        while taken.load(Ordering::Relaxed) < submitted {
            let batch = sched.drain(0, &hdd());
            if batch.is_empty() {
                std::thread::yield_now();
                continue;
            }
            taken.fetch_add(batch.len() as u64, Ordering::Relaxed);
            mixed.lock().unwrap().push(batch);
        }
    });
    assert_eq!(sched.pending(0), 0);
    // No cross-tenant theft: the ino-scoped stream saw only its own file.
    for batch in scoped.lock().unwrap().iter() {
        for r in batch {
            assert_eq!((r.ino, r.tenant), (1, 1), "drain_for leaked {r:?}");
        }
    }
    // Conservation: every (tenant, off) drained exactly once, none lost.
    let mut seen = HashSet::new();
    for batch in mixed
        .lock()
        .unwrap()
        .iter()
        .chain(scoped.lock().unwrap().iter())
    {
        for r in batch {
            assert!(seen.insert((r.tenant, r.off)), "duplicate drain of {r:?}");
        }
    }
    assert_eq!(seen.len() as u64, submitted);
    for tenant in [1u32, 2] {
        for i in 0..per_tenant {
            assert!(seen.contains(&(tenant, i * stride)), "lost request");
        }
    }
    // Fairness: equal weights and equal request sizes mean every mixed
    // batch interleaves the two tenants one-for-one until the smaller
    // stream runs out — the first 2*min(a, b) slots hold min(a, b) each.
    let mut saw_mixed_batch = false;
    for batch in mixed.lock().unwrap().iter() {
        let a = batch.iter().filter(|r| r.tenant == 1).count();
        let b = batch.len() - a;
        let m = a.min(b);
        if m == 0 {
            continue;
        }
        saw_mixed_batch = true;
        let head_a = batch[..2 * m].iter().filter(|r| r.tenant == 1).count();
        assert_eq!(
            head_a,
            m,
            "unfair prefix: {head_a}/{m} tenant-1 slots in a {}-request batch",
            batch.len()
        );
    }
    // With two racing submitters the whole-queue drainer essentially
    // always catches both streams queued at least once; if a pathological
    // schedule ever drained them strictly separately, fairness was simply
    // never exercised (not violated), so don't fail on it — but do keep
    // the signal visible under --nocapture.
    if !saw_mixed_batch {
        eprintln!("note: no mixed batch observed; fairness not exercised this run");
    }
}

#[test]
fn fastpath_hits_racing_the_drain_are_counted_exactly_once() {
    // Four readers note hits on a shared cache while a fifth thread drains
    // it as fast as it can, until 300 drains have found something. The
    // cache is small (256 slots list 16 pending entries), so drains take
    // the listed path, the overflow sweep, and the sweep forced by an
    // entry a reader has claimed but not yet written. No slot is rewritten
    // meanwhile, so nothing is forfeited: every hit must come out of
    // exactly one drain, credited to the block it was noted on.
    const READERS: u64 = 4;
    const KEYS: u64 = 48;
    let fp = Arc::new(mux::FastPath::new(256));
    for b in 0..KEYS {
        fp.insert(7, b, 0, 1, 1 << 30, 0, false, fp.epoch(), 0);
    }
    let resident: Vec<u64> = (0..KEYS).filter(|&b| fp.lookup(7, b).is_some()).collect();
    assert!(resident.len() > 32);
    let start = Arc::new(Barrier::new(READERS as usize + 1));
    let drains = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let (fp, start, drains) = (fp.clone(), start.clone(), drains.clone());
            let resident = resident.clone();
            std::thread::spawn(move || {
                let mut noted = vec![0u64; KEYS as usize];
                start.wait();
                let mut i = t;
                while drains.load(Ordering::Acquire) < 300 {
                    let b = resident[(i * 31 % resident.len() as u64) as usize];
                    let (_, slot) = fp.lookup(7, b).expect("nothing evicts");
                    fp.note_hit(&slot);
                    noted[b as usize] += 1;
                    i += 1;
                }
                noted
            })
        })
        .collect();
    let mut drained = vec![0u64; KEYS as usize];
    let drain = |drained: &mut Vec<u64>| {
        let batch = fp.take_pending();
        for &(ino, block, tier, hits) in &batch {
            assert_eq!((ino, tier), (7, 0));
            drained[block as usize] += hits;
        }
        !batch.is_empty()
    };
    start.wait();
    while drains.load(Ordering::Relaxed) < 300 {
        if drain(&mut drained) {
            drains.fetch_add(1, Ordering::Release);
        }
    }
    let mut noted = vec![0u64; KEYS as usize];
    for r in readers {
        for (sum, n) in noted.iter_mut().zip(r.join().unwrap()) {
            *sum += n;
        }
    }
    drain(&mut drained);
    assert_eq!(drained, noted);
    assert!(!drain(&mut drained), "a second drain finds nothing");
}

/// The metafile's delta log under real concurrency: four threads create,
/// write and fsync files of their own while a fifth renames a set of its
/// own and fsyncs the directory, long enough for the journal to cross its
/// budget several times — so checkpoints (metafile mutex → every file's
/// state) race mutators (file state → dirty mark → pending list) and
/// flushes race each other. Afterwards the log must describe the live state
/// exactly, and a Mux rebuilt from it must serve every acknowledged byte
/// under every acknowledged name.
#[test]
fn racing_fsyncs_and_renames_across_checkpoints_lose_nothing() {
    const WRITERS: u64 = 4;
    const FILES: u64 = 40;
    const RENAMED: u64 = 6;
    const ROUNDS: u64 = 25;
    let fses: Vec<Arc<MemFs>> = (0..2)
        .map(|i| Arc::new(MemFs::new(format!("tier{i}"), 1 << 30)))
        .collect();
    let tiers = || {
        let classes = [DeviceClass::Pmem, DeviceClass::Ssd];
        let tier = |(fs, class): (&Arc<MemFs>, DeviceClass)| {
            let name = fs.fs_name().to_string();
            (
                TierConfig { name, class },
                fs.clone() as Arc<dyn FileSystem>,
            )
        };
        fses.iter().zip(classes).map(tier).collect::<Vec<_>>()
    };
    let policy = || Arc::new(LruPolicy::default_watermarks());
    let clock = VirtualClock::new();
    let mux = Mux::new(clock.clone(), policy(), MuxOptions::default());
    for (cfg, fs) in tiers() {
        mux.add_tier(cfg, fs);
    }
    mux.enable_metafile(0).unwrap();
    let renamed: Vec<u64> = (0..RENAMED)
        .map(|k| {
            let a = mux
                .create(ROOT_INO, &format!("r{k}_0"), FileType::Regular, 0o644)
                .unwrap();
            mux.write(a.ino, 0, &pattern_at(k * BLOCK, BLOCK as usize))
                .unwrap();
            a.ino
        })
        .collect();
    mux.sync().unwrap();
    let barrier = Barrier::new(WRITERS as usize + 1);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let (mux, barrier) = (&mux, &barrier);
            s.spawn(move || {
                barrier.wait();
                for f in 0..FILES {
                    let name = format!("w{t}_{f}");
                    let ino = mux
                        .create(ROOT_INO, &name, FileType::Regular, 0o644)
                        .unwrap()
                        .ino;
                    for b in 0..1 + f % 3 {
                        let off = b * BLOCK;
                        mux.write(ino, off, &pattern_at(off + t, BLOCK as usize))
                            .unwrap();
                    }
                    // Moving a block makes the upsert carry two tiers.
                    if f % 5 == 0 {
                        mux.migrate_range(ino, 0, 1, 1).unwrap();
                    }
                    mux.fsync(ino).unwrap();
                }
            });
        }
        let (mux, barrier) = (&mux, &barrier);
        s.spawn(move || {
            barrier.wait();
            for round in 1..=ROUNDS {
                for k in 0..RENAMED {
                    let (old, new) = (format!("r{k}_{}", round - 1), format!("r{k}_{round}"));
                    mux.rename(ROOT_INO, &old, ROOT_INO, &new).unwrap();
                }
                mux.fsync(ROOT_INO).unwrap();
            }
        });
    });
    // Every thread's last call was an acknowledged fsync.
    let stats = mux.stats().snapshot();
    assert!(stats.checkpoints >= 3, "{} checkpoints", stats.checkpoints);
    let log = mux.metalog_status();
    assert_eq!(
        (log.pending_records, log.pending_inodes, log.dirty_ranges),
        (0, 0, 0)
    );
    mux.check_metafile().unwrap();
    // The crash: Mux's memory is gone, the tiers keep what they were told.
    drop(mux);
    let back = Mux::recover(clock, policy(), MuxOptions::default(), tiers(), 0).unwrap();
    let read_block = |ino: u64, off: u64| {
        let mut buf = vec![0u8; BLOCK as usize];
        assert_eq!(back.read(ino, off, &mut buf).unwrap(), BLOCK as usize);
        buf
    };
    for t in 0..WRITERS {
        for f in 0..FILES {
            let a = back.lookup(ROOT_INO, &format!("w{t}_{f}")).unwrap();
            assert_eq!(a.size, (1 + f % 3) * BLOCK, "size of w{t}_{f}");
            for b in 0..1 + f % 3 {
                let want = pattern_at(b * BLOCK + t, BLOCK as usize);
                assert!(read_block(a.ino, b * BLOCK) == want, "w{t}_{f} block {b}");
            }
        }
    }
    for (k, &ino) in renamed.iter().enumerate() {
        let a = back.lookup(ROOT_INO, &format!("r{k}_{ROUNDS}")).unwrap();
        assert_eq!(a.ino, ino, "r{k} kept its inode through {ROUNDS} renames");
        assert!(read_block(ino, 0) == pattern_at(k as u64 * BLOCK, BLOCK as usize));
    }
    assert_eq!(
        back.statfs().unwrap().inodes,
        WRITERS * FILES + RENAMED,
        "no name came back twice"
    );
}
