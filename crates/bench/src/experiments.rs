//! One function per table/figure of the paper, plus the ablations listed
//! in DESIGN.md. All results are returned as serializable structs; the
//! `repro` binary renders them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mux::{
    CacheConfig, CacheController, HotColdPolicy, LruPolicy, MuxOptions, OpKind, PinnedPolicy,
    TieringPolicy, TraceEvent, BLOCK, CACHE_TIER,
};
use serde::{Deserialize, Serialize};
use simdev::DeviceClass;
use strata::StrataOptions;
use tvfs::{FileSystem, FileType, ROOT_INO};
use workloads::{pattern_at, HotCold, Permutation, Sequential, UniformRandom, Zipfian};

use crate::testbed::{build_mux_stack, build_single_tier, build_strata, Capacities, Tier};

fn mk(fs: &dyn FileSystem, name: &str) -> u64 {
    fs.create(ROOT_INO, name, FileType::Regular, 0o644)
        .unwrap()
        .ino
}

fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

// ---------------------------------------------------------------------
// Figure 3a — migration matrix
// ---------------------------------------------------------------------

/// One cell of the migration matrix.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationCell {
    /// Source tier label.
    pub from: String,
    /// Destination tier label.
    pub to: String,
    /// Mux migration throughput, MB/s.
    pub mux_mbps: f64,
    /// Strata migration throughput, MB/s (`None` = not supported).
    pub strata_mbps: Option<f64>,
}

/// Figure 3a result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3a {
    /// The six ordered device pairs.
    pub cells: Vec<MigrationCell>,
    /// Headline ratio: Mux / Strata on the PM→SSD path (paper: 2.59×).
    pub pm_to_ssd_ratio: f64,
}

/// Runs the Figure 3a experiment: data migration throughput between every
/// device pair, Mux vs Strata.
pub fn fig3a(payload_bytes: u64) -> Fig3a {
    let caps = Capacities::default();
    let labels = ["PM", "SSD", "HDD"];
    let mut cells = Vec::new();
    for from in 0..3u32 {
        for to in 0..3u32 {
            if from == to {
                continue;
            }
            // --- Mux: pin data onto `from`, migrate to `to`. Small
            // native caches so the copy hits devices, not DRAM. ---
            let policy = Arc::new(PinnedPolicy::new(from));
            let stack = crate::testbed::build_mux_stack_cached(
                caps,
                policy,
                MuxOptions::default(),
                4 << 20,
            );
            let ino = mk(stack.mux.as_ref(), "victim");
            let chunk = 4 << 20;
            let mut off = 0u64;
            while off < payload_bytes {
                let n = chunk.min(payload_bytes - off);
                stack
                    .mux
                    .write(ino, off, &pattern_at(off, n as usize))
                    .unwrap();
                off += n;
            }
            stack.mux.fsync(ino).unwrap();
            let t0 = stack.clock.now_ns();
            stack
                .mux
                .migrate_range(ino, 0, payload_bytes / BLOCK, to)
                .unwrap();
            let mux_mbps = mbps(payload_bytes, stack.clock.now_ns() - t0);
            // --- Strata: only PM→SSD and PM→HDD exist. ---
            let strata_mbps = {
                let s = build_strata(caps, StrataOptions::default());
                let (from_class, to_class) = (
                    [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd][from as usize],
                    [DeviceClass::Pmem, DeviceClass::Ssd, DeviceClass::Hdd][to as usize],
                );
                let sino = mk(s.as_ref(), "victim");
                s.set_placement_target(Some(from as usize));
                let mut off = 0u64;
                while off < payload_bytes {
                    let n = chunk.min(payload_bytes - off);
                    s.write(sino, off, &pattern_at(off, n as usize)).unwrap();
                    off += n;
                }
                s.force_digest().unwrap();
                let clock = s.devices()[0].clock().clone();
                let t0 = clock.now_ns();
                match s.migrate(from_class, to_class, u64::MAX) {
                    Ok(_) => Some(mbps(payload_bytes, clock.now_ns() - t0)),
                    Err(_) => None,
                }
            };
            cells.push(MigrationCell {
                from: labels[from as usize].into(),
                to: labels[to as usize].into(),
                mux_mbps,
                strata_mbps,
            });
        }
    }
    let pm_ssd = cells
        .iter()
        .find(|c| c.from == "PM" && c.to == "SSD")
        .unwrap();
    let ratio = pm_ssd.mux_mbps / pm_ssd.strata_mbps.unwrap_or(f64::INFINITY);
    Fig3a {
        pm_to_ssd_ratio: ratio,
        cells,
    }
}

// ---------------------------------------------------------------------
// Figure 3b — per-device I/O throughput
// ---------------------------------------------------------------------

/// One device's bar pair.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bRow {
    /// Device label.
    pub device: String,
    /// Strata throughput, MB/s.
    pub strata_mbps: f64,
    /// Mux throughput, MB/s.
    pub mux_mbps: f64,
    /// Mux / Strata (paper: 1.08 / 1.46 / 1.07).
    pub ratio: f64,
}

/// Runs the Figure 3b experiment: random-write throughput with all I/O
/// directed at one device, Strata vs Mux (scaled-down Strata
/// microbenchmark).
pub fn fig3b(total_bytes: u64, op_size: u64) -> Vec<Fig3bRow> {
    let caps = Capacities::default();
    let mut rows = Vec::new();
    for (i, tier) in [Tier::Pm, Tier::Ssd, Tier::Hdd].into_iter().enumerate() {
        // --- Mux, pinned to the tier. ---
        let stack = build_mux_stack(
            caps,
            Arc::new(PinnedPolicy::new(i as u32)),
            MuxOptions::default(),
        );
        // Write-once random order (the paper's 90 GB of random writes,
        // scaled): every block is written exactly once, shuffled.
        let region = total_bytes;
        let ino = mk(stack.mux.as_ref(), "bench");
        let mut gen = Permutation::new(region, op_size, 42);
        let t0 = stack.clock.now_ns();
        let mut written = 0u64;
        let payload = vec![0xA5u8; op_size as usize];
        while written < total_bytes {
            stack.mux.write(ino, gen.next_off(), &payload).unwrap();
            written += op_size;
        }
        stack.mux.fsync(ino).unwrap();
        let mux_mbps = mbps(total_bytes, stack.clock.now_ns() - t0);
        // --- Strata, digestion directed at the tier. ---
        let s = build_strata(caps, StrataOptions::default());
        s.set_placement_target(Some(i));
        let sino = mk(s.as_ref(), "bench");
        let mut gen = Permutation::new(region, op_size, 42);
        let clock = s.devices()[0].clock().clone();
        let t0 = clock.now_ns();
        let mut written = 0u64;
        while written < total_bytes {
            s.write(sino, gen.next_off(), &payload).unwrap();
            written += op_size;
        }
        s.sync().unwrap();
        let strata_mbps = mbps(total_bytes, clock.now_ns() - t0);
        rows.push(Fig3bRow {
            device: tier.label().into(),
            strata_mbps,
            mux_mbps,
            ratio: mux_mbps / strata_mbps,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §3.2 — read-latency overhead
// ---------------------------------------------------------------------

/// One tier's worst-case read-latency comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ReadOverheadRow {
    /// Tier label.
    pub tier: String,
    /// Native average latency, ns.
    pub native_ns: f64,
    /// Mux average latency, ns.
    pub mux_ns: f64,
    /// Overhead percentage (paper: +52.4 / +87.3 / +6.6).
    pub overhead_pct: f64,
    /// Mux steady-state median *end-to-end* read latency, ns (the
    /// `mux-read` histogram: what a caller of `Mux::read` experiences on
    /// either path; warmup excluded).
    pub mux_p50_ns: u64,
    /// Mux steady-state p95 end-to-end read latency, ns.
    pub mux_p95_ns: u64,
    /// Mux steady-state p99 end-to-end read latency, ns.
    pub mux_p99_ns: u64,
    /// Steady-state median of the native-callee dispatch (`read`
    /// histogram): the slow path's native sub-request only, excluding
    /// Mux's own crossing costs. Recorded alongside the end-to-end number
    /// so the two can never be conflated again (this field is what the
    /// old `mux_p50_ns` accidentally measured).
    pub dispatch_p50_ns: u64,
    /// Fast-path hits during the measured window.
    pub fastpath_hits: u64,
    /// Fast-path fallbacks during the measured window.
    pub fastpath_fallbacks: u64,
    /// Fast-path hit rate over the measured window, percent.
    pub fastpath_hit_pct: f64,
}

/// Per-tier configuration for the worst-case read experiment (file size
/// and page-cache size reproduce each native file system's §3.2 operating
/// point; see EXPERIMENTS.md).
fn read_cfg(tier: Tier) -> (u64, u64) {
    match tier {
        // DAX: no page cache; file size is immaterial to the hit rate.
        Tier::Pm => (64 << 20, 0),
        // Hot working set: file fits fully in the DRAM page cache.
        Tier::Ssd => (48 << 20, 64 << 20),
        // Cold tail: the file exceeds the cache by ~0.1 %, so a sliver of
        // reads pay the full seek penalty and dominate the average.
        Tier::Hdd => (16402 * 4096, 16384 * 4096),
    }
}

/// Runs the §3.2 read experiment: repeated 1-byte reads at random offsets,
/// Mux vs direct native access.
pub fn read_overhead(ops: usize) -> Vec<ReadOverheadRow> {
    let mut rows = Vec::new();
    for tier in Tier::ALL {
        let (file_size, cache) = read_cfg(tier);
        let st = build_single_tier(
            tier,
            4 * file_size.max(64 << 20),
            cache,
            Arc::new(LruPolicy::default_watermarks()),
            MuxOptions::default(),
        );
        let chunk = 4u64 << 20;
        // Native measurement.
        let native_ns = {
            let ino = mk(st.native.as_ref(), "f");
            let mut off = 0u64;
            while off < file_size {
                let n = chunk.min(file_size - off);
                st.native
                    .write(ino, off, &pattern_at(off, n as usize))
                    .unwrap();
                off += n;
            }
            st.native.fsync(ino).unwrap();
            let mut gen = UniformRandom::new(file_size, 1, 1, 7);
            let mut one = [0u8; 1];
            // Warm to steady state: one sequential touch of every block
            // (uniform random draws alone leave ~30 % of blocks cold at
            // the FULL scale), then the random warm loop.
            for b in 0..file_size / 4096 {
                st.native.read(ino, b * 4096, &mut one).unwrap();
            }
            for _ in 0..ops {
                st.native.read(ino, gen.next_off(), &mut one).unwrap();
            }
            let t0 = st.native_clock.now_ns();
            for _ in 0..ops {
                st.native.read(ino, gen.next_off(), &mut one).unwrap();
            }
            (st.native_clock.now_ns() - t0) as f64 / ops as f64
        };
        // Mux measurement (same workload, same seed, same warmup — the
        // sequential pass doubles as fast-path population: each block's
        // first dispatch-path read publishes its mapping).
        let (mux_ns, mux_hist, dispatch_hist, fp_hits, fp_falls) = {
            let ino = mk(st.mux.as_ref(), "f");
            let mut off = 0u64;
            while off < file_size {
                let n = chunk.min(file_size - off);
                st.mux
                    .write(ino, off, &pattern_at(off, n as usize))
                    .unwrap();
                off += n;
            }
            st.mux.fsync(ino).unwrap();
            let mut gen = UniformRandom::new(file_size, 1, 1, 7);
            let mut one = [0u8; 1];
            for b in 0..file_size / 4096 {
                st.mux.read(ino, b * 4096, &mut one).unwrap();
            }
            for _ in 0..ops {
                st.mux.read(ino, gen.next_off(), &mut one).unwrap();
            }
            // Snapshot after warmup so the reported percentiles and
            // fast-path counters cover only the measured steady state.
            let warm_mux = st.mux.latency().hist(OpKind::MuxRead, 0).snapshot();
            let warm_dispatch = st.mux.latency().hist(OpKind::Read, 0).snapshot();
            let warm_stats = st.mux.stats().snapshot();
            let t0 = st.mux_clock.now_ns();
            for _ in 0..ops {
                st.mux.read(ino, gen.next_off(), &mut one).unwrap();
            }
            let stats = st.mux.stats().snapshot();
            (
                (st.mux_clock.now_ns() - t0) as f64 / ops as f64,
                st.mux
                    .latency()
                    .hist(OpKind::MuxRead, 0)
                    .snapshot()
                    .delta_since(&warm_mux),
                st.mux
                    .latency()
                    .hist(OpKind::Read, 0)
                    .snapshot()
                    .delta_since(&warm_dispatch),
                stats.fastpath_hits - warm_stats.fastpath_hits,
                stats.fastpath_fallbacks - warm_stats.fastpath_fallbacks,
            )
        };
        rows.push(ReadOverheadRow {
            tier: tier.label().into(),
            native_ns,
            mux_ns,
            overhead_pct: (mux_ns / native_ns - 1.0) * 100.0,
            mux_p50_ns: mux_hist.p50(),
            mux_p95_ns: mux_hist.p95(),
            mux_p99_ns: mux_hist.p99(),
            dispatch_p50_ns: dispatch_hist.p50(),
            fastpath_hits: fp_hits,
            fastpath_fallbacks: fp_falls,
            fastpath_hit_pct: if fp_hits + fp_falls > 0 {
                fp_hits as f64 / (fp_hits + fp_falls) as f64 * 100.0
            } else {
                0.0
            },
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §3.2 — write-throughput overhead
// ---------------------------------------------------------------------

/// One tier's sequential-write comparison.
#[derive(Debug, Clone, Serialize)]
pub struct WriteOverheadRow {
    /// Tier label.
    pub tier: String,
    /// Native throughput, MB/s.
    pub native_mbps: f64,
    /// Mux throughput, MB/s.
    pub mux_mbps: f64,
    /// Throughput reduction percentage (paper: −1.6 / −2.2 / −3.5).
    pub overhead_pct: f64,
}

/// Runs the §3.2 write experiment: repeated 4 MiB sequential writes.
pub fn write_overhead(n_writes: usize) -> Vec<WriteOverheadRow> {
    let op = 4u64 << 20;
    let mut rows = Vec::new();
    for tier in Tier::ALL {
        let region = n_writes as u64 * op;
        let st = build_single_tier(
            tier,
            2 * region + (64 << 20),
            64 << 20,
            Arc::new(LruPolicy::default_watermarks()),
            MuxOptions::default(),
        );
        let payload = vec![0x5Au8; op as usize];
        // fsync every 8 writes (32 MiB batches): enough to keep the run
        // device-bound without turning it into an fsync benchmark.
        let native_mbps = {
            let ino = mk(st.native.as_ref(), "f");
            let mut seq = Sequential::new(region, op);
            let t0 = st.native_clock.now_ns();
            for i in 0..n_writes {
                st.native.write(ino, seq.next_off(), &payload).unwrap();
                if i % 8 == 7 {
                    st.native.fsync(ino).unwrap();
                }
            }
            st.native.fsync(ino).unwrap();
            mbps(n_writes as u64 * op, st.native_clock.now_ns() - t0)
        };
        let mux_mbps = {
            let ino = mk(st.mux.as_ref(), "f");
            let mut seq = Sequential::new(region, op);
            let t0 = st.mux_clock.now_ns();
            for i in 0..n_writes {
                st.mux.write(ino, seq.next_off(), &payload).unwrap();
                if i % 8 == 7 {
                    st.mux.fsync(ino).unwrap();
                }
            }
            st.mux.fsync(ino).unwrap();
            mbps(n_writes as u64 * op, st.mux_clock.now_ns() - t0)
        };
        rows.push(WriteOverheadRow {
            tier: tier.label().into(),
            native_mbps,
            mux_mbps,
            overhead_pct: (1.0 - mux_mbps / native_mbps) * 100.0,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §2.3 — metadata space overhead
// ---------------------------------------------------------------------

/// One file-size point of the metadata-overhead sweep.
#[derive(Debug, Clone, Serialize)]
pub struct MetaOverheadRow {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Byte-array BLT encoding size.
    pub blt_bytes: u64,
    /// Overhead ratio (paper bound: < 0.025 %).
    pub overhead_pct: f64,
}

/// Sweeps file sizes and reports the Block Lookup Table's byte-array
/// space overhead.
pub fn meta_overhead() -> Vec<MetaOverheadRow> {
    let mut rows = Vec::new();
    for mb in [1u64, 16, 256, 1024, 10 * 1024] {
        let file_bytes = mb << 20;
        let blocks = file_bytes / BLOCK;
        let mut blt = mux::BlockLookupTable::new();
        blt.assign(0, blocks, 0);
        let blt_bytes = blt.encode_bytemap().len() as u64;
        rows.push(MetaOverheadRow {
            file_bytes,
            blt_bytes,
            overhead_pct: blt_bytes as f64 / file_bytes as f64 * 100.0,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Ablation A1 — OCC vs lock-based migration
// ---------------------------------------------------------------------

/// Result of the OCC ablation.
#[derive(Debug, Clone, Serialize)]
pub struct OccAblation {
    /// Virtual ns migrations held the per-file write lock under OCC
    /// (deterministic: the §2.4 critical path).
    pub occ_lock_hold_vns: u64,
    /// Same, under whole-copy locking.
    pub locked_lock_hold_vns: u64,
    /// Worst single write-op stall while OCC migrations ran (real ns;
    /// indicative only — scheduler-noisy on small machines).
    pub occ_max_stall_ns: u64,
    /// Worst single write-op stall under lock-based migration (real ns).
    pub locked_max_stall_ns: u64,
    /// Writer ops completed during the OCC migration windows.
    pub occ_writer_ops: u64,
    /// Writer ops completed during the lock-based migration windows.
    pub locked_writer_ops: u64,
    /// OCC conflicts detected.
    pub occ_conflicts: u64,
    /// OCC retry rounds.
    pub occ_retries: u64,
    /// Migrations that fell back to locking.
    pub occ_fallbacks: u64,
}

/// Runs a concurrent writer against back-to-back migrations, once with the
/// OCC synchronizer and once with whole-copy locking. The §2.4 claim is
/// about the *critical path*: under OCC a write never waits for a whole
/// file copy, so the worst single-op stall stays small; under pessimistic
/// locking some unlucky write waits out the entire migration.
pub fn ablation_occ(rounds: usize) -> OccAblation {
    fn run(rounds: usize, locked: bool) -> (u64, u64, (u64, u64, u64, u64, u64), u64) {
        let stack = build_mux_stack(
            Capacities::default(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        let ino = mk(stack.mux.as_ref(), "f");
        let blocks = 2048u64;
        stack
            .mux
            .write(ino, 0, &vec![1u8; (blocks * BLOCK) as usize])
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let max_stall = Arc::new(AtomicU64::new(0));
        let writer = {
            let mux = Arc::clone(&stack.mux);
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            let max_stall = Arc::clone(&max_stall);
            std::thread::spawn(move || -> Result<(), tvfs::VfsError> {
                let mut i = 0u64;
                let page = vec![7u8; BLOCK as usize];
                // Rewrite a hot *subset* (first 64 blocks): the realistic
                // conflict shape. OCC retries only those; whole-copy
                // locking stalls the writer for the entire file.
                while !stop.load(Ordering::Relaxed) {
                    let t0 = std::time::Instant::now();
                    mux.write(ino, (i % 64) * BLOCK, &page)?;
                    let dt = t0.elapsed().as_nanos() as u64;
                    max_stall.fetch_max(dt, Ordering::Relaxed);
                    ops.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                Ok(())
            })
        };
        let mut during = 0u64;
        for r in 0..rounds {
            if writer.is_finished() {
                break; // writer died mid-run; the join below surfaces why
            }
            let to = if r % 2 == 0 { 1 } else { 2 };
            let before = ops.load(Ordering::Relaxed);
            if locked {
                stack
                    .mux
                    .migrate_range_lock_based(ino, 0, blocks, to)
                    .unwrap();
            } else {
                stack.mux.migrate_range(ino, 0, blocks, to).unwrap();
            }
            during += ops.load(Ordering::Relaxed) - before;
        }
        stop.store(true, Ordering::Relaxed);
        // Worker failures must fail the experiment, not vanish: a panic is
        // re-raised on this thread, an I/O error becomes one.
        match writer.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("concurrent writer failed: {e:?}"),
            Err(payload) => std::panic::resume_unwind(payload),
        }
        (
            max_stall.load(Ordering::Relaxed),
            during,
            stack.mux.occ_stats().snapshot(),
            stack.mux.occ_stats().lock_hold_vns(),
        )
    }
    let (occ_stall, occ_ops, occ_stats, occ_hold) = run(rounds, false);
    let (locked_stall, locked_ops, _, locked_hold) = run(rounds, true);
    OccAblation {
        occ_lock_hold_vns: occ_hold,
        locked_lock_hold_vns: locked_hold,
        occ_max_stall_ns: occ_stall,
        locked_max_stall_ns: locked_stall,
        occ_writer_ops: occ_ops,
        locked_writer_ops: locked_ops,
        occ_conflicts: occ_stats.1,
        occ_retries: occ_stats.2,
        occ_fallbacks: occ_stats.3,
    }
}

// ---------------------------------------------------------------------
// Ablation A2 — SCM cache on/off, MGLRU vs plain LRU
// ---------------------------------------------------------------------

/// One cache configuration's result.
#[derive(Debug, Clone, Serialize)]
pub struct CacheAblationRow {
    /// Configuration label.
    pub config: String,
    /// Average read latency, ns.
    pub avg_read_ns: f64,
    /// SCM cache hit rate (0 when disabled).
    pub hit_rate: f64,
}

/// Zipfian reads over HDD-resident files, with the SCM cache disabled,
/// with MGLRU, and with an (approximated) single-generation LRU.
pub fn ablation_cache(ops: usize) -> Vec<CacheAblationRow> {
    let mut rows = Vec::new();
    for (label, cache_cfg) in [
        ("no SCM cache", None),
        (
            "SCM cache, MGLRU (4 gens)",
            Some(CacheConfig {
                cache_from: DeviceClass::Ssd,
                generations: 4,
                age_threshold: 512,
                insert_young: false,
            }),
        ),
        (
            "SCM cache, plain LRU (1 gen)",
            Some(CacheConfig {
                cache_from: DeviceClass::Ssd,
                generations: 2,
                age_threshold: u64::MAX, // never ages
                insert_young: true,      // → classic LRU order
            }),
        ),
    ] {
        // Native DRAM caches are kept small (4 MiB) so the HDD actually
        // gets exercised; the SCM cache is what stands between reads and
        // 8 ms seeks.
        let stack = crate::testbed::build_mux_stack_cached(
            Capacities::default(),
            Arc::new(PinnedPolicy::new(2)), // data lives on the HDD
            MuxOptions::default(),
            4 << 20,
        );
        let n_files = 64u64;
        let file_blocks = 64u64;
        let mut inos = Vec::new();
        for i in 0..n_files {
            let ino = mk(stack.mux.as_ref(), &format!("f{i}"));
            stack
                .mux
                .write(ino, 0, &vec![i as u8; (file_blocks * BLOCK) as usize])
                .unwrap();
            stack.mux.fsync(ino).unwrap();
            inos.push(ino);
        }
        let cache = cache_cfg.map(|cfg| {
            // SCM cache window: a dedicated region of the PM device
            // accessed via DAX (1024 slots = 4 MiB, a quarter of the data set,
            // so the replacement policy is constantly deciding).
            let window = mux::cache::DaxWindow::new(
                stack.devices[0].clone(),
                vec![(stack.devices[0].capacity() - (4 << 20), 4 << 20)],
            );
            Arc::new(CacheController::new(Box::new(window), cfg))
        });
        if let Some(c) = &cache {
            stack.mux.attach_cache(Arc::clone(c));
        }
        let mut zipf = Zipfian::new(n_files * file_blocks, 0.9, 3);
        let mut buf = vec![0u8; BLOCK as usize];
        // Zipfian working set plus periodic cold scans (the access shape
        // MGLRU is designed for: one scan must not flush the hot set).
        let mut scan_file = 0u64;
        let mut access = |stack: &crate::testbed::MuxStack, i: usize| {
            if i % 256 == 255 {
                // Cold scan burst: two whole files.
                for _ in 0..2 {
                    scan_file = (scan_file + 1) % n_files;
                    for b in 0..file_blocks {
                        let mut pg = vec![0u8; BLOCK as usize];
                        stack
                            .mux
                            .read(inos[scan_file as usize], b * BLOCK, &mut pg)
                            .unwrap();
                    }
                }
            } else {
                let item = zipf.next_item();
                let (f, b) = (item / file_blocks, item % file_blocks);
                stack
                    .mux
                    .read(inos[f as usize], b * BLOCK, &mut buf)
                    .unwrap();
            }
        };
        // Warmup then measure.
        for i in 0..ops / 2 {
            access(&stack, i);
        }
        let (h0, m0) = cache.as_ref().map(|c| c.hit_stats()).unwrap_or((0, 0));
        let t0 = stack.clock.now_ns();
        for i in 0..ops {
            access(&stack, i);
        }
        let avg = (stack.clock.now_ns() - t0) as f64 / ops as f64;
        let hit_rate = cache
            .as_ref()
            .map(|c| {
                let (h, m) = c.hit_stats();
                (h - h0) as f64 / ((h - h0) + (m - m0)).max(1) as f64
            })
            .unwrap_or(0.0);
        rows.push(CacheAblationRow {
            config: label.into(),
            avg_read_ns: avg,
            hit_rate,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Ablation A3 — policy comparison
// ---------------------------------------------------------------------

/// One policy's result on the hot/cold workload.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyAblationRow {
    /// Policy name.
    pub policy: String,
    /// Average read latency after convergence, ns.
    pub avg_read_ns: f64,
    /// Fraction of hot-file blocks resident on the PM tier at the end.
    pub hot_on_fast: f64,
}

/// Hot/cold workload under different tiering policies; each policy's
/// placement runs with migration passes between access phases, which plan
/// with the autotier's planner. The worst case pins every file to the
/// HDD, so no pass moves any of them.
pub fn ablation_policy(ops: usize) -> Vec<PolicyAblationRow> {
    let to_hdd = Arc::new(PinnedPolicy::new(2));
    let policies: Vec<(&str, Arc<dyn TieringPolicy>)> = vec![
        ("lru", Arc::new(LruPolicy::default_watermarks())),
        ("hot-cold", Arc::new(HotColdPolicy::new())),
        ("tpfs", Arc::new(mux::TpfsPolicy::default())),
        ("pinned-to-hdd (worst case)", to_hdd.clone()),
    ];
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let stack = crate::testbed::build_mux_stack_cached(
            Capacities {
                pm: 64 << 20, // small PM keeps placement decisions hard
                ssd: 512 << 20,
                hdd: 4 << 30,
            },
            policy,
            MuxOptions::default(),
            256 << 10, // tiny native caches: tier choice dominates latency
        );
        let n_files = 64u64;
        let file_blocks = 32u64;
        let mut gen = HotCold::new(n_files, 0.125, 0.9, 11);
        let mut inos = Vec::new();
        let pins = name.starts_with("pinned");
        for i in 0..n_files {
            let ino = mk(stack.mux.as_ref(), &format!("f{i}"));
            if pins {
                to_hdd.pin(ino, 2);
            }
            stack
                .mux
                .write(ino, 0, &vec![i as u8; (file_blocks * BLOCK) as usize])
                .unwrap();
            stack.mux.fsync(ino).unwrap();
            inos.push(ino);
        }
        let mut buf = vec![0u8; BLOCK as usize];
        // Block index varies per access so the touched set spans whole
        // files (a fixed block per file would fit any tiny cache).
        let mut step = 0u64;
        let mut next_block = |f: u64| {
            step += 1;
            (f * 7 + step * 13) % file_blocks
        };
        // Access phases interleaved with policy migration passes.
        for _phase in 0..4 {
            for _ in 0..ops / 8 {
                let f = gen.next_item();
                let b = next_block(f);
                stack
                    .mux
                    .read(inos[f as usize], b * BLOCK, &mut buf)
                    .unwrap();
            }
            stack.mux.run_policy_migrations();
        }
        // Measure converged read latency on the same distribution.
        let t0 = stack.clock.now_ns();
        for _ in 0..ops {
            let f = gen.next_item();
            let b = next_block(f);
            stack
                .mux
                .read(inos[f as usize], b * BLOCK, &mut buf)
                .unwrap();
        }
        let avg = (stack.clock.now_ns() - t0) as f64 / ops as f64;
        // How much of the hot set ended up on PM?
        let mut hot_blocks = 0u64;
        let mut hot_on_pm = 0u64;
        for f in 0..gen.hot_items() {
            let ino = inos[f as usize];
            let status = stack.mux.tier_status();
            let _ = status;
            // Count via per-tier allocation probes.
            if let Some((_, l)) = stack.mux.next_data(ino, 0).unwrap() {
                let _ = l;
            }
            let file_view = stack
                .mux
                .getattr(ino)
                .map(|a| a.blocks_bytes / BLOCK)
                .unwrap_or(0);
            hot_blocks += file_view;
            hot_on_pm += blocks_on_tier(&stack, ino, 0);
        }
        rows.push(PolicyAblationRow {
            policy: name.into(),
            avg_read_ns: avg,
            hot_on_fast: if hot_blocks == 0 {
                0.0
            } else {
                hot_on_pm as f64 / hot_blocks as f64
            },
        });
    }
    rows
}

fn blocks_on_tier(stack: &crate::testbed::MuxStack, ino: u64, tier: u32) -> u64 {
    // The native file's allocated bytes on that tier ≈ blocks held there.
    let handle = match tier {
        0 => &stack.nova,
        _ => return 0,
    };
    // Probe via lookup from the native root using the Mux path name.
    let name = {
        // Files in these experiments live in the root with known names;
        // find the matching dentry by ino through readdir.
        let entries = stack.mux.readdir(ROOT_INO).unwrap();
        entries.into_iter().find(|e| e.ino == ino).map(|e| e.name)
    };
    let Some(name) = name else { return 0 };
    match handle.lookup(ROOT_INO, &name) {
        Ok(attr) => attr.blocks_bytes / BLOCK,
        Err(_) => 0,
    }
}

// ---------------------------------------------------------------------
// Robustness — degraded-mode throughput under a fenced tier
// ---------------------------------------------------------------------

/// Result of the degraded-mode experiment.
#[derive(Debug, Clone, Serialize)]
pub struct DegradedMode {
    /// Overwrite throughput with every tier healthy (PM-resident), MB/s.
    pub healthy_mbps: f64,
    /// Overwrite throughput after the PM tier is forced Offline, so the
    /// write path redirects every segment to the SSD, MB/s.
    pub degraded_mbps: f64,
    /// `degraded / healthy` — the cost of losing the fastest tier.
    pub ratio: f64,
    /// Redirected write segments observed during the degraded run.
    pub redirected_writes: u64,
    /// The tier that was fenced.
    pub offline_tier: String,
}

/// Measures what fencing the fastest tier costs: a file is laid out on
/// PM, then overwritten twice with 1 MiB sequential writes — once with
/// all tiers healthy, once with PM forced Offline so the degradation
/// backstop redirects every overwrite to the SSD.
pub fn degraded_mode(n_writes: usize) -> DegradedMode {
    let op = 1u64 << 20;
    let run = |fence: bool| -> (f64, u64) {
        let st = build_mux_stack(
            Capacities::default(),
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
        );
        let ino = mk(st.mux.as_ref(), "f");
        let payload = vec![0xA5u8; op as usize];
        let mut seq = Sequential::new(n_writes as u64 * op, op);
        for _ in 0..n_writes {
            st.mux.write(ino, seq.next_off(), &payload).unwrap();
        }
        st.mux.fsync(ino).unwrap();
        if fence {
            st.mux
                .health()
                .force_state(0, mux::TierHealthState::Offline);
        }
        let before = st.mux.stats().snapshot().redirected_writes;
        let mut seq = Sequential::new(n_writes as u64 * op, op);
        let t0 = st.clock.now_ns();
        for i in 0..n_writes {
            st.mux.write(ino, seq.next_off(), &payload).unwrap();
            if i % 8 == 7 {
                st.mux.fsync(ino).unwrap();
            }
        }
        st.mux.fsync(ino).unwrap();
        let tp = mbps(n_writes as u64 * op, st.clock.now_ns() - t0);
        (tp, st.mux.stats().snapshot().redirected_writes - before)
    };
    let (healthy_mbps, _) = run(false);
    let (degraded_mbps, redirected_writes) = run(true);
    DegradedMode {
        healthy_mbps,
        degraded_mbps,
        ratio: degraded_mbps / healthy_mbps,
        redirected_writes,
        offline_tier: "PM (novafs)".into(),
    }
}

// ---------------------------------------------------------------------
// Observability — per-tier latency breakdown
// ---------------------------------------------------------------------

/// Human label for a histogram tier slot in the standard three-tier stack.
pub fn tier_label(tier: u32) -> String {
    match tier {
        0 => "PM (novafs)".into(),
        1 => "SSD (xefs)".into(),
        2 => "HDD (e4fs)".into(),
        CACHE_TIER => "SCM cache".into(),
        t => format!("tier {t}"),
    }
}

/// One (operation kind × tier) histogram summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Operation-kind label (see `OpKind::label`).
    pub op: String,
    /// Tier label.
    pub tier: String,
    /// Samples recorded.
    pub count: u64,
    /// Median dispatch latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Largest single dispatch, ns (exact).
    pub max_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: u64,
}

/// One device's busy-time attribution for the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceBusyRow {
    /// Device label.
    pub device: String,
    /// Total virtual ns the device was busy.
    pub busy_ns: u64,
    /// Busy ns attributable to reads.
    pub read_busy_ns: u64,
    /// Busy ns attributable to writes.
    pub write_busy_ns: u64,
    /// Busy ns attributable to flushes.
    pub flush_busy_ns: u64,
}

/// Result of the latency-breakdown run (see OBSERVABILITY.md for the
/// field-by-field schema).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Every non-empty (operation, tier) histogram.
    pub rows: Vec<LatencyRow>,
    /// Device-level service-time attribution.
    pub devices: Vec<DeviceBusyRow>,
    /// Trace events recorded (ring capacity permitting).
    pub trace_recorded: u64,
    /// Trace events evicted by ring wraparound.
    pub trace_dropped: u64,
    /// The newest trace events, oldest first.
    pub trace_tail: Vec<TraceEvent>,
}

/// Summarizes a [`mux::LatencyReport`] into labelled rows.
pub fn latency_rows(report: &mux::LatencyReport) -> Vec<LatencyRow> {
    report
        .entries
        .iter()
        .map(|e| LatencyRow {
            op: e.op.label().into(),
            tier: tier_label(e.tier),
            count: e.hist.count,
            p50_ns: e.hist.p50(),
            p95_ns: e.hist.p95(),
            p99_ns: e.hist.p99(),
            max_ns: e.hist.max_ns,
            mean_ns: e.hist.mean_ns(),
        })
        .collect()
}

/// Runs a mixed read/write workload over a file deliberately spread across
/// all three tiers, then reports every (operation, tier) latency histogram,
/// per-device busy-time attribution, and the tail of the trace ring — the
/// observability-layer headline experiment.
pub fn latency_breakdown(ops: usize) -> LatencyBreakdown {
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities::default(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
        4 << 20, // small native caches: latencies reflect the devices
    );
    let ino = mk(stack.mux.as_ref(), "f");
    let file_blocks = 768u64;
    stack
        .mux
        .write(ino, 0, &pattern_at(0, (file_blocks * BLOCK) as usize))
        .unwrap();
    stack.mux.fsync(ino).unwrap();
    // Spread the file: first third stays on PM, middle third moves to the
    // SSD, last third to the HDD — so reads exercise every tier.
    stack.mux.migrate_range(ino, 256, 256, 1).unwrap();
    stack.mux.migrate_range(ino, 512, 256, 2).unwrap();
    let mut gen = UniformRandom::new(file_blocks * BLOCK, BLOCK, BLOCK, 9);
    let mut buf = vec![0u8; BLOCK as usize];
    for i in 0..ops {
        let off = gen.next_off();
        if i % 4 == 3 {
            // Overwrites land on whichever tier holds the block, giving
            // per-tier write histograms too.
            stack
                .mux
                .write(ino, off, &pattern_at(off, BLOCK as usize))
                .unwrap();
        } else {
            stack.mux.read(ino, off, &mut buf).unwrap();
        }
        if i % 64 == 63 {
            stack.mux.fsync(ino).unwrap();
        }
    }
    stack.mux.fsync(ino).unwrap();
    let labels = ["PM (novafs)", "SSD (xefs)", "HDD (e4fs)"];
    let devices = stack
        .devices
        .iter()
        .zip(labels)
        .map(|(d, label)| {
            let s = d.stats().snapshot();
            DeviceBusyRow {
                device: label.into(),
                busy_ns: s.busy_ns,
                read_busy_ns: s.read_busy_ns,
                write_busy_ns: s.write_busy_ns,
                flush_busy_ns: s.flush_busy_ns,
            }
        })
        .collect();
    let events = stack.mux.trace_snapshot();
    let tail_from = events.len().saturating_sub(32);
    LatencyBreakdown {
        rows: latency_rows(&stack.mux.latency_report()),
        devices,
        trace_recorded: stack.mux.trace().recorded(),
        trace_dropped: stack.mux.trace().dropped(),
        trace_tail: events[tail_from..].to_vec(),
    }
}

// ---------------------------------------------------------------------
// Scaling — the multi-threaded engine over the sharded Mux core
// ---------------------------------------------------------------------

/// One (stack config, workload mix, thread count) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingCell {
    /// Stack under test: `tiered` (PM+SSD+HDD Mux) or `pm-mux` (Mux over
    /// a single PM tier — pure software-path scaling).
    pub config: String,
    /// Workload mix label (`read-heavy` = 95% uniform reads, `mixed` =
    /// 50/50 zipfian).
    pub mix: String,
    /// Worker threads.
    pub threads: usize,
    /// Operations completed across workers.
    pub total_ops: u64,
    /// MiB moved across workers.
    pub total_mib: f64,
    /// Modeled parallel elapsed time (max worker charge), ms.
    pub elapsed_model_ms: f64,
    /// Aggregate throughput on the modeled N-core machine, MiB/s.
    pub throughput_mib_s: f64,
    /// Throughput relative to this config+mix's single-thread cell.
    pub speedup_vs_1t: f64,
    /// Pattern-verification failures (must be 0).
    pub verify_failures: u64,
}

/// Thread-scaling sweep: the workload engine at 1→16 workers against two
/// stack configurations and two mixes. Time is the per-thread virtual
/// ledger model (see `workloads::engine`): each worker's charges count as
/// its own core's busy time, so aggregate throughput on ideal hardware is
/// `total bytes / max worker time`. Lost scaling therefore measures real
/// serialization in the Mux software path (shared locks), which is what
/// the sharded maps are meant to eliminate.
pub fn scaling(ops_per_thread: u64) -> Vec<ScalingCell> {
    use workloads::{run_engine, EngineConfig};
    const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
    let mixes: [(&str, f64, f64); 2] = [("read-heavy", 0.95, 0.0), ("mixed", 0.5, 0.9)];
    let mut cells = Vec::new();
    for config in ["tiered", "pm-mux"] {
        for (mix, read_fraction, zipf_theta) in mixes {
            for threads in THREADS {
                // Fresh stack per cell: no cross-cell cache or placement
                // state, so cells are independently reproducible.
                let fs: Arc<dyn FileSystem> = match config {
                    "tiered" => {
                        build_mux_stack(
                            Capacities::default(),
                            Arc::new(LruPolicy::default_watermarks()),
                            MuxOptions::default(),
                        )
                        .mux
                    }
                    _ => {
                        build_single_tier(
                            Tier::Pm,
                            512 << 20,
                            64 << 20,
                            Arc::new(PinnedPolicy::new(0)),
                            MuxOptions::default(),
                        )
                        .mux
                    }
                };
                let rep = run_engine(
                    fs.as_ref(),
                    &EngineConfig {
                        threads,
                        ops_per_thread,
                        read_fraction,
                        op_size: 4096,
                        region_bytes: 4 << 20,
                        zipf_theta,
                        seed: 42,
                        shared_file: false,
                        verify: true,
                        tenant_mixes: Vec::new(),
                    },
                )
                .expect("engine run failed");
                cells.push(ScalingCell {
                    config: config.into(),
                    mix: mix.into(),
                    threads,
                    total_ops: rep.total_ops,
                    total_mib: rep.total_bytes as f64 / (1 << 20) as f64,
                    elapsed_model_ms: rep.elapsed_model_ns as f64 / 1e6,
                    throughput_mib_s: rep.throughput_mib_s(),
                    speedup_vs_1t: 0.0, // filled below
                    verify_failures: rep.verify_failures(),
                });
            }
        }
    }
    // Normalize each (config, mix) group by its single-thread cell.
    let singles: Vec<(String, String, f64)> = cells
        .iter()
        .filter(|c| c.threads == 1)
        .map(|c| (c.config.clone(), c.mix.clone(), c.throughput_mib_s))
        .collect();
    for c in cells.iter_mut() {
        if let Some((_, _, base)) = singles
            .iter()
            .find(|(cfg, mix, _)| *cfg == c.config && *mix == c.mix)
        {
            if *base > 0.0 {
                c.speedup_vs_1t = c.throughput_mib_s / base;
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// Crash matrix — deterministic crash-point enumeration (DESIGN.md,
// "Crash consistency")
// ---------------------------------------------------------------------

/// Runs the full crash-point matrix: every standard scenario of
/// `mux::crashtest`, over every mutating device operation, against a
/// novafs (pmem) + xefs (nvme ssd) stack with the metafile on tier 0.
/// `torn_pass` additionally repeats every point with torn trailing
/// writes (512-byte-aligned surviving prefix).
pub fn crash_matrix(torn_pass: bool) -> mux::CrashMatrix {
    use mux::crashtest::TierDef;
    let cap = 2048 * BLOCK;
    let tiers = vec![
        TierDef {
            config: mux::TierConfig {
                name: "pmem".into(),
                class: DeviceClass::Pmem,
            },
            profile: simdev::pmem(),
            capacity: cap,
            format: |dev| {
                Ok(
                    Arc::new(novafs::NovaFs::format(dev, novafs::NovaOptions::default())?)
                        as Arc<dyn FileSystem>,
                )
            },
            mount: |dev| {
                Ok(
                    Arc::new(novafs::NovaFs::mount(dev, novafs::NovaOptions::default())?)
                        as Arc<dyn FileSystem>,
                )
            },
        },
        TierDef {
            config: mux::TierConfig {
                name: "ssd".into(),
                class: DeviceClass::Ssd,
            },
            profile: simdev::nvme_ssd(),
            capacity: cap,
            format: |dev| {
                Ok(Arc::new(xefs::XeFs::format(
                    dev,
                    xefs::XeOptions {
                        journal_blocks: 256,
                        ..xefs::XeOptions::default()
                    },
                )?) as Arc<dyn FileSystem>)
            },
            mount: |dev| {
                Ok(Arc::new(xefs::XeFs::mount(
                    dev,
                    xefs::XeOptions {
                        journal_blocks: 256,
                        ..xefs::XeOptions::default()
                    },
                )?) as Arc<dyn FileSystem>)
            },
        },
    ];
    mux::crashtest::run_matrix(&tiers, 0, &mux::crashtest::standard_scenarios(), torn_pass)
        .expect("crash matrix probe runs must succeed")
}

// ---------------------------------------------------------------------
// Autotier — convergence of the autonomous tiering engine
// ---------------------------------------------------------------------

/// One side (daemon on / daemon off) of the autotier experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotierRun {
    /// Fraction of hot-set blocks resident on PM or SSD at the end.
    pub convergence: f64,
    /// Steady-state read p50 (final measurement phase), ns.
    pub read_p50_ns: u64,
    /// Steady-state read p95 (final measurement phase), ns.
    pub read_p95_ns: u64,
    /// Foreground read throughput over every workload batch, MB/s
    /// (migration ticks excluded — they run between batches).
    pub fg_mbps: f64,
    /// Blocks the engine promoted.
    pub auto_promotions: u64,
    /// Blocks the engine demoted.
    pub auto_demotions: u64,
    /// Bytes the rate limiter deferred.
    pub throttled_bytes: u64,
    /// Planner vetoes.
    pub planner_vetoes: u64,
}

/// Result of the autotier convergence experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotierResult {
    /// Files in the working set.
    pub files: u64,
    /// Blocks per file.
    pub file_blocks: u64,
    /// Hot-set size (top decile of the zipfian popularity ranking).
    pub hot_files: u64,
    /// Workload epochs run before the measurement phase.
    pub epochs: usize,
    /// With the engine ticking every epoch.
    pub daemon_on: AutotierRun,
    /// Same workload, engine disabled.
    pub daemon_off: AutotierRun,
    /// Foreground throughput ratio, daemon-on / daemon-off.
    pub fg_ratio: f64,
    /// Whether the hot set converged (≥ 90 % of its blocks off the HDD).
    pub converged: bool,
}

fn autotier_one(
    daemon: bool,
    files: u64,
    file_blocks: u64,
    epochs: usize,
    ops: usize,
) -> AutotierRun {
    let mut opts = MuxOptions::default();
    opts.autotier.enabled = daemon;
    // Everything starts on the HDD tier (a placement preference, not a
    // pin — the engine is free to move the data).
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities {
            pm: 64 << 20,
            ssd: 512 << 20,
            hdd: 4 << 30,
        },
        Arc::new(PinnedPolicy::new(2)),
        opts,
        256 << 10, // tiny native caches: tier residency dominates latency
    );
    let epoch_ns = mux::AutotierConfig::default().epoch_ns;
    let mut inos = Vec::new();
    for i in 0..files {
        let ino = mk(stack.mux.as_ref(), &format!("f{i}"));
        stack
            .mux
            .write(ino, 0, &vec![i as u8; (file_blocks * BLOCK) as usize])
            .unwrap();
        stack.mux.fsync(ino).unwrap();
        inos.push(ino);
    }
    // The zipfian hot set is the top decile by popularity rank (item 0 is
    // the most popular).
    let mut gen = Zipfian::new(files, 0.99, 7);
    let mut buf = vec![0u8; BLOCK as usize];
    let mut step = 0u64;
    let next = |g: &mut Zipfian, step: &mut u64| {
        *step += 1;
        let f = g.next_item();
        (f, (f * 7 + *step * 13) % file_blocks)
    };
    let mut fg_bytes = 0u64;
    let mut fg_ns = 0u64;
    for _ in 0..epochs {
        let t0 = stack.clock.now_ns();
        for _ in 0..ops {
            let (f, b) = next(&mut gen, &mut step);
            stack
                .mux
                .read(inos[f as usize], b * BLOCK, &mut buf)
                .unwrap();
        }
        fg_ns += stack.clock.now_ns() - t0;
        fg_bytes += ops as u64 * BLOCK;
        // Background time passes between batches; the engine (when
        // enabled) plans and migrates here, off the foreground path.
        stack.clock.advance(epoch_ns);
        stack.mux.maintenance_tick();
    }
    // Steady-state per-op latency distribution (no ticks: placement is
    // whatever the engine converged to).
    let mut lat: Vec<u64> = Vec::with_capacity(ops);
    for _ in 0..ops {
        let (f, b) = next(&mut gen, &mut step);
        let t0 = stack.clock.now_ns();
        stack
            .mux
            .read(inos[f as usize], b * BLOCK, &mut buf)
            .unwrap();
        lat.push(stack.clock.now_ns() - t0);
    }
    lat.sort_unstable();
    let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p) as usize];

    // Convergence: hot-set blocks resident off the HDD class.
    let hdd_tiers: Vec<u32> = stack
        .mux
        .tier_status()
        .into_iter()
        .filter(|t| t.class == DeviceClass::Hdd)
        .map(|t| t.id)
        .collect();
    let hot_files = (files / 10).max(1);
    let mut hot_blocks = 0u64;
    let mut hot_fast = 0u64;
    for f in 0..hot_files {
        for (_, n, tid) in stack.mux.file_placement(inos[f as usize]).unwrap() {
            hot_blocks += n;
            if !hdd_tiers.contains(&tid) {
                hot_fast += n;
            }
        }
    }
    let stats = stack.mux.stats().snapshot();
    AutotierRun {
        convergence: if hot_blocks == 0 {
            0.0
        } else {
            hot_fast as f64 / hot_blocks as f64
        },
        read_p50_ns: pct(0.50),
        read_p95_ns: pct(0.95),
        fg_mbps: mbps(fg_bytes, fg_ns),
        auto_promotions: stats.auto_promotions,
        auto_demotions: stats.auto_demotions,
        throttled_bytes: stats.throttled_bytes,
        planner_vetoes: stats.planner_vetoes,
    }
}

/// The autotier convergence experiment: a zipfian hot-set workload whose
/// data starts entirely on the HDD tier. With the engine ticking, the hot
/// set must migrate up (≥ 90 % of its blocks off the HDD) and steady-state
/// read latency must beat a daemon-off run of the same workload, while
/// foreground throughput stays within 20 %.
pub fn autotier(files: u64, file_blocks: u64, epochs: usize, ops: usize) -> AutotierResult {
    let on = autotier_one(true, files, file_blocks, epochs, ops);
    let off = autotier_one(false, files, file_blocks, epochs, ops);
    let fg_ratio = if off.fg_mbps > 0.0 {
        on.fg_mbps / off.fg_mbps
    } else {
        1.0
    };
    AutotierResult {
        files,
        file_blocks,
        hot_files: (files / 10).max(1),
        epochs,
        converged: on.convergence >= 0.9,
        fg_ratio,
        daemon_on: on,
        daemon_off: off,
    }
}

// ---------------------------------------------------------------------
// Mirror — replicas as first-class placement (DESIGN.md, "Mirror
// placement")
// ---------------------------------------------------------------------

/// One arm (mirroring on / mirroring off) of the mirror experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MirrorRun {
    /// Steady-state read p50 (measurement phase, no ticks), ns.
    pub read_p50_ns: u64,
    /// Steady-state read p99 (measurement phase, no ticks), ns.
    pub read_p99_ns: u64,
    /// Read throughput over the measurement phase, MB/s.
    pub healthy_mbps: f64,
    /// Goodput after the PM tier is fenced: bytes of reads that still
    /// succeed per second of model time, MB/s.
    pub degraded_mbps: f64,
    /// Reads that succeeded after the fence.
    pub degraded_reads_ok: u64,
    /// Reads that failed after the fence (sole copy behind the fence).
    pub degraded_reads_err: u64,
    /// Blocks whose *primary* ended on the PM tier.
    pub pm_primary_blocks: u64,
    /// Blocks with a *replica* on the PM tier.
    pub pm_replica_blocks: u64,
    /// Replica blocks created by the engine.
    pub mirrors_created: u64,
    /// Replica blocks retired by the engine.
    pub mirrors_retired: u64,
    /// Reads served from a replica faster than the primary.
    pub mirror_reads_fast: u64,
    /// Stale replica blocks re-synced after write absorption.
    pub lazy_resyncs: u64,
}

/// Result of the mirror placement experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MirrorResult {
    /// Files in the working set.
    pub files: u64,
    /// Blocks per file.
    pub file_blocks: u64,
    /// Workload epochs run before the measurement phase.
    pub epochs: usize,
    /// With `mirror_enabled = true`.
    pub mirrored: MirrorRun,
    /// Same workload, mirroring disabled (single-copy placement).
    pub baseline: MirrorRun,
    /// Read p99 ratio, mirrored / baseline (< 1.0 is a win).
    pub p99_ratio: f64,
    /// Degraded goodput ratio, mirrored / baseline (> 1.0 is a win).
    pub degraded_ratio: f64,
    /// Whether the mirrored arm's read p99 beat the single-copy baseline.
    pub p99_improved: bool,
    /// Whether the mirrored arm's fenced-PM goodput beat the baseline.
    pub degraded_improved: bool,
}

fn mirror_one(mirrors: bool, files: u64, file_blocks: u64, epochs: usize, ops: usize) -> MirrorRun {
    let mut opts = MuxOptions::default();
    opts.autotier.enabled = true;
    opts.autotier.mirror_enabled = mirrors;
    // The PM tier is deliberately tiny relative to the working set, and
    // capped for primaries: they may occupy only half of it
    // (`high_watermark`, the planner's optional cap) — migration headroom
    // is expensive to reclaim — while replicas may pack it nearly full,
    // because retiring a replica is an instant hole punch. That asymmetry is the whole
    // point of mirror placement: the same scarce fast tier serves more
    // of the read traffic when its contents are evictable copies.
    opts.autotier.high_watermark = 0.5;
    opts.autotier.mirror_watermark = 0.95;
    // Every file in the (uniformly swept) working set must count as hot.
    opts.autotier.hot_threshold = 1.0;
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities {
            pm: 16 << 20,
            ssd: 512 << 20,
            hdd: 4 << 30,
        },
        // Data starts on the SSD tier (a preference, not a pin).
        Arc::new(PinnedPolicy::new(1)),
        opts,
        256 << 10, // tiny native caches: tier residency dominates latency
    );
    let epoch_ns = mux::AutotierConfig::default().epoch_ns;
    let mut inos = Vec::new();
    for i in 0..files {
        let ino = mk(stack.mux.as_ref(), &format!("m{i}"));
        stack
            .mux
            .write(ino, 0, &vec![i as u8; (file_blocks * BLOCK) as usize])
            .unwrap();
        stack.mux.fsync(ino).unwrap();
        inos.push(ino);
    }
    let mut gen = Zipfian::new(files, 0.99, 11);
    let mut buf = vec![0u8; BLOCK as usize];
    let mut step = 0u64;
    let next = |g: &mut Zipfian, step: &mut u64| {
        *step += 1;
        let f = g.next_item();
        (f, (f * 7 + *step * 13) % file_blocks)
    };
    // Convergence epochs: a full sweep keeps every file read-heavy and
    // hot (so the planner sees the whole set as mirror candidates), and
    // a zipfian tail concentrates the popularity ranking.
    for _ in 0..epochs {
        for (i, &ino) in inos.iter().enumerate() {
            stack
                .mux
                .read(ino, ((i as u64 * 3 + step) % file_blocks) * BLOCK, &mut buf)
                .unwrap();
        }
        for _ in 0..ops {
            let (f, b) = next(&mut gen, &mut step);
            stack
                .mux
                .read(inos[f as usize], b * BLOCK, &mut buf)
                .unwrap();
        }
        stack.clock.advance(epoch_ns);
        stack.mux.maintenance_tick();
    }
    // Measurement phase: steady-state read latency, no ticks.
    let mut lat: Vec<u64> = Vec::with_capacity(ops);
    let t0 = stack.clock.now_ns();
    for _ in 0..ops {
        let (f, b) = next(&mut gen, &mut step);
        let o0 = stack.clock.now_ns();
        stack
            .mux
            .read(inos[f as usize], b * BLOCK, &mut buf)
            .unwrap();
        lat.push(stack.clock.now_ns() - o0);
    }
    let healthy_ns = stack.clock.now_ns() - t0;
    lat.sort_unstable();
    let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p) as usize];

    // Final placement census before the fence.
    let pm_tiers: Vec<u32> = stack
        .mux
        .tier_status()
        .into_iter()
        .filter(|t| t.class == DeviceClass::Pmem)
        .map(|t| t.id)
        .collect();
    let mut pm_primary_blocks = 0u64;
    let mut pm_replica_blocks = 0u64;
    for &ino in &inos {
        for (_, n, tid) in stack.mux.file_placement(ino).unwrap() {
            if pm_tiers.contains(&tid) {
                pm_primary_blocks += n;
            }
        }
        for (_, n, tid) in stack.mux.file_replicas(ino).unwrap() {
            if pm_tiers.contains(&tid) {
                pm_replica_blocks += n;
            }
        }
    }

    // Degraded phase: fence the PM tier and measure read goodput. A
    // mirrored stack falls back to the (slower, but intact) primaries;
    // a single-copy stack loses every block it promoted onto PM. Reads
    // that hit the fence fail fast in dispatch without any device I/O,
    // so a raw bytes-over-time rate would be blind to availability —
    // the phase is therefore a closed loop with a fixed client-side gap
    // per request, and goodput counts only the bytes actually served.
    const THINK_NS: u64 = 2_000;
    stack
        .mux
        .health()
        .force_state(0, mux::TierHealthState::Offline);
    let mut ok = 0u64;
    let mut err = 0u64;
    let d0 = stack.clock.now_ns();
    for _ in 0..ops {
        let (f, b) = next(&mut gen, &mut step);
        match stack.mux.read(inos[f as usize], b * BLOCK, &mut buf) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
        stack.clock.advance(THINK_NS);
    }
    let degraded_ns = stack.clock.now_ns() - d0;
    let stats = stack.mux.stats().snapshot();
    MirrorRun {
        read_p50_ns: pct(0.50),
        read_p99_ns: pct(0.99),
        healthy_mbps: mbps(ops as u64 * BLOCK, healthy_ns),
        degraded_mbps: mbps(ok * BLOCK, degraded_ns),
        degraded_reads_ok: ok,
        degraded_reads_err: err,
        pm_primary_blocks,
        pm_replica_blocks,
        mirrors_created: stats.mirrors_created,
        mirrors_retired: stats.mirrors_retired,
        mirror_reads_fast: stats.mirror_reads_fast,
        lazy_resyncs: stats.lazy_resyncs,
    }
}

/// The mirror placement experiment: a read-heavy zipfian working set that
/// starts on the SSD tier, with a PM tier too small to promote everything
/// into. With mirroring on, the engine keeps primaries on the SSD and
/// packs the PM with evictable replicas, so steady-state read p99 must
/// beat the single-copy baseline — and after the PM tier is fenced, read
/// goodput must also beat the baseline, because every fenced replica
/// still has a live primary underneath it.
pub fn mirror(files: u64, file_blocks: u64, epochs: usize, ops: usize) -> MirrorResult {
    let on = mirror_one(true, files, file_blocks, epochs, ops);
    let off = mirror_one(false, files, file_blocks, epochs, ops);
    let p99_ratio = if off.read_p99_ns > 0 {
        on.read_p99_ns as f64 / off.read_p99_ns as f64
    } else {
        1.0
    };
    let degraded_ratio = if off.degraded_mbps > 0.0 {
        on.degraded_mbps / off.degraded_mbps
    } else {
        f64::INFINITY
    };
    MirrorResult {
        files,
        file_blocks,
        epochs,
        p99_ratio,
        degraded_ratio,
        p99_improved: on.read_p99_ns < off.read_p99_ns,
        degraded_improved: on.degraded_mbps > off.degraded_mbps,
        mirrored: on,
        baseline: off,
    }
}

// ---------------------------------------------------------------------
// Integrity — silent-corruption storm and scrubber overhead
// ---------------------------------------------------------------------

/// One bit-rot storm: every primary device read rots a bit, and the mux
/// must detect every rotten block and either repair it (replica present)
/// or refuse to serve it (no replica) — never return corrupt bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntegrityStorm {
    /// Blocks in the victim file (all on the rotting tier).
    pub blocks: u64,
    /// Foreground reads issued during the storm (one per block).
    pub reads: u64,
    /// Corruption events the fault layer actually injected at the device.
    pub rotted_reads: u64,
    /// Checksum mismatches the mux detected.
    pub detected: u64,
    /// Blocks repaired (replica rewrite over the rotten primary).
    pub repaired: u64,
    /// Blocks quarantined (no healthy copy existed).
    pub quarantined: u64,
    /// Bytes that reached the caller differing from what was written.
    /// The whole experiment exists to keep this at zero.
    pub corrupt_bytes_served: u64,
    /// detected / blocks — 1.0 means no rotten block slipped through.
    pub detection_rate: f64,
    /// repaired / detected — 1.0 when every detection had a healthy copy.
    pub repair_rate: f64,
}

/// Result of the end-to-end integrity experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntegrityResult {
    /// Storm with a replica on the stable tier: detect + repair, callers
    /// never see an error.
    pub replicated: IntegrityStorm,
    /// Storm without a replica: detect + quarantine, callers get
    /// `Corrupt` instead of rotten bytes.
    pub unreplicated: IntegrityStorm,
    /// Foreground read p50 with the background scrubber disabled, ns.
    pub scrub_off_p50_ns: u64,
    /// Foreground read p95 with the background scrubber disabled, ns.
    pub scrub_off_p95_ns: u64,
    /// Foreground read p50 with the scrubber patrolling every tick, ns.
    pub scrub_on_p50_ns: u64,
    /// Foreground read p95 with the scrubber patrolling every tick, ns.
    pub scrub_on_p95_ns: u64,
    /// scrub-on p95 / scrub-off p95 — the scrubber's foreground tax.
    pub scrub_p95_ratio: f64,
    /// Full passes the paced scrubber completed during the overhead run.
    pub scrub_passes: u64,
    /// Blocks the scrubber verified during the overhead run.
    pub scrub_blocks_verified: u64,
}

fn integrity_storm(replicated: bool, blocks: u64, seed: u64) -> IntegrityStorm {
    let mut opts = MuxOptions::default();
    // This half of the experiment measures detection/repair accounting,
    // not fencing (the chaos suite covers the breaker): push the health
    // thresholds out of reach so the tier stays writable mid-storm and
    // the denominators stay exact.
    opts.autotier.enabled = false;
    opts.health.degraded_after = 1_000_000;
    opts.health.read_only_after = 1_000_000;
    opts.health.offline_after = 1_000_000;
    opts.health.window_error_rate = 2.0;
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities {
            pm: 64 << 20,
            ssd: 512 << 20,
            hdd: 4 << 30,
        },
        Arc::new(PinnedPolicy::new(0)), // victim data lands on the PM tier
        opts,
        256 << 10,
    );
    let ino = mk(stack.mux.as_ref(), "victim");
    stack
        .mux
        .write(ino, 0, &pattern_at(0, (blocks * BLOCK) as usize))
        .unwrap();
    stack.mux.fsync(ino).unwrap();
    if replicated {
        assert_eq!(stack.mux.mirror_range(ino, 0, blocks, 1).unwrap(), blocks);
    }
    // The storm: every device read of the primary copy flips a stored
    // bit. Period 1 means each of the `blocks` foreground reads below is
    // guaranteed to hit rot, so detection_rate has an exact denominator.
    stack.devices[0].set_fault_mode(simdev::FaultMode::BitRot { period: 1, seed });
    let mut buf = vec![0u8; BLOCK as usize];
    let mut corrupt_bytes_served = 0u64;
    let mut reads = 0u64;
    for b in 0..blocks {
        reads += 1;
        if stack.mux.read(ino, b * BLOCK, &mut buf).is_ok() {
            let want = pattern_at(b * BLOCK, BLOCK as usize);
            corrupt_bytes_served +=
                buf.iter().zip(want.iter()).filter(|(a, b)| a != b).count() as u64;
        }
    }
    stack.devices[0].set_fault_mode(simdev::FaultMode::None);
    let s = stack.mux.stats().snapshot();
    let rotted_reads = stack.devices[0].stats().snapshot().corruptions;
    IntegrityStorm {
        blocks,
        reads,
        rotted_reads,
        detected: s.corruptions_detected,
        repaired: s.corruptions_repaired,
        quarantined: s.blocks_quarantined,
        corrupt_bytes_served,
        detection_rate: s.corruptions_detected as f64 / blocks as f64,
        repair_rate: if s.corruptions_detected == 0 {
            0.0
        } else {
            s.corruptions_repaired as f64 / s.corruptions_detected as f64
        },
    }
}

fn scrub_overhead_run(
    scrub_on: bool,
    files: u64,
    file_blocks: u64,
    epochs: usize,
    ops: usize,
) -> (u64, u64, u64, u64) {
    let mut opts = MuxOptions::default();
    // Isolate the scrubber: no tiering engine, placement is static.
    opts.autotier.enabled = false;
    opts.integrity.scrub_enabled = scrub_on;
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities {
            pm: 64 << 20,
            ssd: 512 << 20,
            hdd: 4 << 30,
        },
        Arc::new(PinnedPolicy::new(1)),
        opts,
        256 << 10,
    );
    let mut inos = Vec::new();
    for i in 0..files {
        let ino = mk(stack.mux.as_ref(), &format!("f{i}"));
        stack
            .mux
            .write(ino, 0, &pattern_at(0, (file_blocks * BLOCK) as usize))
            .unwrap();
        stack.mux.fsync(ino).unwrap();
        inos.push(ino);
    }
    let epoch_ns = mux::AutotierConfig::default().epoch_ns;
    let mut gen = Zipfian::new(files, 0.99, 11);
    let mut buf = vec![0u8; BLOCK as usize];
    let mut step = 0u64;
    let mut lat: Vec<u64> = Vec::with_capacity(epochs * ops);
    for _ in 0..epochs {
        for _ in 0..ops {
            step += 1;
            let f = gen.next_item();
            let b = (f * 7 + step * 13) % file_blocks;
            let t0 = stack.clock.now_ns();
            stack
                .mux
                .read(inos[f as usize], b * BLOCK, &mut buf)
                .unwrap();
            lat.push(stack.clock.now_ns() - t0);
        }
        // The scrubber patrols here, between workload batches, paced by
        // its token bucket.
        stack.clock.advance(epoch_ns);
        stack.mux.maintenance_tick();
    }
    lat.sort_unstable();
    let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p) as usize];
    let s = stack.mux.stats().snapshot();
    (
        pct(0.50),
        pct(0.95),
        s.scrub_passes,
        s.scrub_blocks_verified,
    )
}

/// The end-to-end integrity experiment. Two bit-rot storms (with and
/// without a replica) establish that every rotten block is detected and
/// either repaired or quarantined — zero corrupt bytes served — and a
/// scrub on/off A-B run bounds the scrubber's foreground read tax.
pub fn integrity(
    storm_blocks: u64,
    files: u64,
    file_blocks: u64,
    epochs: usize,
    ops: usize,
) -> IntegrityResult {
    let replicated = integrity_storm(true, storm_blocks, 41);
    let unreplicated = integrity_storm(false, storm_blocks, 43);
    let (off_p50, off_p95, _, _) = scrub_overhead_run(false, files, file_blocks, epochs, ops);
    let (on_p50, on_p95, passes, verified) =
        scrub_overhead_run(true, files, file_blocks, epochs, ops);
    IntegrityResult {
        replicated,
        unreplicated,
        scrub_off_p50_ns: off_p50,
        scrub_off_p95_ns: off_p95,
        scrub_on_p50_ns: on_p50,
        scrub_on_p95_ns: on_p95,
        scrub_p95_ratio: if off_p95 == 0 {
            1.0
        } else {
            on_p95 as f64 / off_p95 as f64
        },
        scrub_passes: passes,
        scrub_blocks_verified: verified,
    }
}

// ---------------------------------------------------------------------
// QoS — multi-tenant antagonist isolation (DESIGN.md, "Multi-tenant
// QoS")
// ---------------------------------------------------------------------

/// One arm of the QoS antagonist experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosRun {
    /// Victim read p50 over the measurement phase (exact latencies), ns.
    pub victim_read_p50_ns: u64,
    /// Victim read p99 over the measurement phase (exact latencies), ns.
    pub victim_read_p99_ns: u64,
    /// Antagonist read p50 (0 in the antagonist-free arm), ns.
    pub antagonist_read_p50_ns: u64,
    /// Antagonist read p99 (0 in the antagonist-free arm), ns.
    pub antagonist_read_p99_ns: u64,
    /// Victim blocks resident on the PM class after convergence.
    pub victim_pm_blocks: u64,
    /// Total victim blocks.
    pub victim_blocks: u64,
    /// Tenants excluded from epoch plans while over fair share.
    pub qos_plan_exclusions: u64,
    /// Background actions deferred by admission control.
    pub qos_deferrals: u64,
    /// Background actions shed by admission control.
    pub qos_sheds: u64,
    /// Background bytes dropped by per-tenant pacing.
    pub qos_tenant_throttled_bytes: u64,
    /// Victim MuxRead p99 from the per-tenant histogram (log2-bucketed,
    /// informational — the gates use the exact vectors above).
    pub victim_hist_p99_ns: u64,
    /// Antagonist MuxRead p99 from the per-tenant histogram.
    pub antagonist_hist_p99_ns: u64,
}

/// Result of the multi-tenant QoS experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosResult {
    /// Files in the victim's working set.
    pub victim_files: u64,
    /// Blocks per victim file.
    pub file_blocks: u64,
    /// Files in the antagonist's working set.
    pub ant_files: u64,
    /// Blocks per antagonist file.
    pub ant_file_blocks: u64,
    /// Warm-up epochs before the measurement phase.
    pub epochs: usize,
    /// Victim reads per epoch (the antagonist issues 4×).
    pub ops: usize,
    /// Victim alone on the stack — the interference-free baseline.
    pub alone: QosRun,
    /// Victim + antagonist, QoS disabled.
    pub unfenced: QosRun,
    /// Victim + antagonist, QoS enabled.
    pub qos: QosRun,
    /// unfenced victim p99 / alone victim p99 — how badly an unfenced
    /// antagonist starves the victim.
    pub unfenced_blowup: f64,
    /// qos victim p99 / alone victim p99 — what the victim pays with
    /// QoS on (the gate requires ≤ 2×).
    pub qos_blowup: f64,
    /// Whether QoS held the victim within 2× of the alone baseline.
    pub qos_protected: bool,
    /// Whether the unfenced arm shows material starvation (≥ 3×).
    pub unfenced_starved: bool,
}

/// Victim tenant id in the QoS experiment.
const QOS_VICTIM: u32 = 1;
/// Antagonist tenant id in the QoS experiment.
const QOS_ANTAGONIST: u32 = 2;

fn qos_one(
    contended: bool,
    qos_on: bool,
    victim_files: u64,
    file_blocks: u64,
    epochs: usize,
    ops: usize,
) -> QosRun {
    let ant_files = victim_files * 2;
    let ant_file_blocks = file_blocks * 2;
    let mut opts = MuxOptions::default();
    opts.autotier.enabled = true;
    // Single-copy placement: both tenants are read-heavy, and replicas
    // would let the PM tier serve them both — the experiment is about
    // who gets the scarce *primary* promotions.
    opts.autotier.mirror_enabled = false;
    // A small per-epoch budget makes promotion bandwidth itself a
    // contended resource: the hot antagonist consumes every epoch's
    // budget and headroom unless admission fences it.
    opts.autotier.max_bytes_per_epoch = 4 << 20;
    opts.qos.enabled = qos_on;
    // PM counts as contended well before it is full,
    // so fair-share fencing kicks in while there is still headroom left
    // to hand to the under-served tenant.
    opts.qos.admit_utilization = 0.45;
    // Fairness memory must span the run: the antagonist's HDD reads
    // advance virtual time by seconds per epoch, and with the default
    // 1 s half-life its early land grab would decay off the ledger
    // before the victim was ever served — leaving the victim's fresh
    // crumbs looking like the over-share party.
    opts.qos.share_half_life_ns = 60_000_000_000;
    let stack = crate::testbed::build_mux_stack_cached(
        Capacities {
            pm: 16 << 20,
            ssd: 512 << 20,
            hdd: 4 << 30,
        },
        // Data starts on the SSD tier (a preference, not a pin).
        Arc::new(PinnedPolicy::new(1)),
        opts,
        256 << 10, // tiny native caches: tier residency dominates latency
    );
    let epoch_ns = mux::AutotierConfig::default().epoch_ns;
    // Victim: a PM-sized working set on the SSD, hoping to be promoted.
    mux::set_thread_tenant(QOS_VICTIM);
    let mut victims = Vec::new();
    for i in 0..victim_files {
        let ino = mk(stack.mux.as_ref(), &format!("v{i}"));
        stack
            .mux
            .write(ino, 0, &vec![i as u8; (file_blocks * BLOCK) as usize])
            .unwrap();
        stack.mux.fsync(ino).unwrap();
        victims.push(ino);
    }
    // Antagonist: a hotter, larger working set demoted to the HDD, from
    // where every read hammers the slow tier and begs for promotion.
    let mut ants = Vec::new();
    if contended {
        mux::set_thread_tenant(QOS_ANTAGONIST);
        for i in 0..ant_files {
            let ino = mk(stack.mux.as_ref(), &format!("a{i}"));
            stack
                .mux
                .write(ino, 0, &vec![!i as u8; (ant_file_blocks * BLOCK) as usize])
                .unwrap();
            stack.mux.fsync(ino).unwrap();
            stack.mux.migrate_range(ino, 0, ant_file_blocks, 2).unwrap();
            ants.push(ino);
        }
    }
    // Warm epochs: deterministic round-robin sweeps keep per-file heat
    // uniform within each tenant, with the antagonist clearly hotter
    // per file (4× the ops over 2× the files), so hottest-first
    // planning always prefers it when nothing fences it.
    let mut vstep = 0u64;
    let mut astep = 0u64;
    let mut buf = vec![0u8; BLOCK as usize];
    for _ in 0..epochs {
        mux::set_thread_tenant(QOS_VICTIM);
        for _ in 0..ops {
            let f = victims[(vstep % victim_files) as usize];
            stack
                .mux
                .read(f, (vstep * 13 % file_blocks) * BLOCK, &mut buf)
                .unwrap();
            vstep += 1;
        }
        if contended {
            mux::set_thread_tenant(QOS_ANTAGONIST);
            for _ in 0..ops * 4 {
                let f = ants[(astep % ant_files) as usize];
                stack
                    .mux
                    .read(f, (astep * 13 % ant_file_blocks) * BLOCK, &mut buf)
                    .unwrap();
                astep += 1;
            }
        }
        stack.clock.advance(epoch_ns);
        stack.mux.maintenance_tick();
    }
    // Measurement phase: exact per-read latencies, no ticks (placement
    // is whatever each arm converged to). The per-tenant histograms are
    // recorded too, but their log2 buckets quantize p99 to a bucket
    // upper bound — the gates need these exact vectors.
    mux::set_thread_tenant(QOS_VICTIM);
    let mut vlat: Vec<u64> = Vec::with_capacity(ops);
    for _ in 0..ops {
        let f = victims[(vstep % victim_files) as usize];
        let t0 = stack.clock.now_ns();
        stack
            .mux
            .read(f, (vstep * 13 % file_blocks) * BLOCK, &mut buf)
            .unwrap();
        vlat.push(stack.clock.now_ns() - t0);
        vstep += 1;
    }
    let mut alat: Vec<u64> = Vec::new();
    if contended {
        mux::set_thread_tenant(QOS_ANTAGONIST);
        for _ in 0..ops {
            let f = ants[(astep % ant_files) as usize];
            let t0 = stack.clock.now_ns();
            stack
                .mux
                .read(f, (astep * 13 % ant_file_blocks) * BLOCK, &mut buf)
                .unwrap();
            alat.push(stack.clock.now_ns() - t0);
            astep += 1;
        }
    }
    mux::set_thread_tenant(0);
    vlat.sort_unstable();
    alat.sort_unstable();
    let pct = |lat: &[u64], p: f64| {
        if lat.is_empty() {
            0
        } else {
            lat[(((lat.len() - 1) as f64) * p) as usize]
        }
    };
    // Placement census: how much of the victim made it onto PM.
    let pm_tiers: Vec<u32> = stack
        .mux
        .tier_status()
        .into_iter()
        .filter(|t| t.class == DeviceClass::Pmem)
        .map(|t| t.id)
        .collect();
    let mut victim_pm_blocks = 0u64;
    let mut victim_blocks = 0u64;
    for &ino in &victims {
        for (_, n, tid) in stack.mux.file_placement(ino).unwrap() {
            victim_blocks += n;
            if pm_tiers.contains(&tid) {
                victim_pm_blocks += n;
            }
        }
    }
    let stats = stack.mux.stats().snapshot();
    let tenants = stack.mux.tenant_latency_report();
    let hist_p99 = |tenant: u32| tenants.get(OpKind::MuxRead, tenant).map_or(0, |h| h.p99());
    QosRun {
        victim_read_p50_ns: pct(&vlat, 0.50),
        victim_read_p99_ns: pct(&vlat, 0.99),
        antagonist_read_p50_ns: pct(&alat, 0.50),
        antagonist_read_p99_ns: pct(&alat, 0.99),
        victim_pm_blocks,
        victim_blocks,
        qos_plan_exclusions: stats.qos_plan_exclusions,
        qos_deferrals: stats.qos_deferrals,
        qos_sheds: stats.qos_sheds,
        qos_tenant_throttled_bytes: stats.qos_tenant_throttled_bytes,
        victim_hist_p99_ns: hist_p99(QOS_VICTIM),
        antagonist_hist_p99_ns: hist_p99(QOS_ANTAGONIST),
    }
}

/// The multi-tenant QoS experiment: a PM-sized victim working set on
/// the SSD vs a hotter, larger antagonist hammering the HDD, competing
/// for the same scarce PM promotions. Three arms on fresh stacks:
/// victim alone (baseline), contended with QoS disabled (the antagonist
/// monopolizes promotion headroom and the victim never reaches PM), and
/// contended with QoS enabled (plan-time fair-share fencing plus
/// admission control hand the headroom back). The gate requires the
/// QoS arm's victim p99 within 2× of the baseline while the unfenced
/// arm blows up by at least 3×.
pub fn qos(victim_files: u64, file_blocks: u64, epochs: usize, ops: usize) -> QosResult {
    let alone = qos_one(false, true, victim_files, file_blocks, epochs, ops);
    let unfenced = qos_one(true, false, victim_files, file_blocks, epochs, ops);
    let fenced = qos_one(true, true, victim_files, file_blocks, epochs, ops);
    let blowup = |run: &QosRun| {
        if alone.victim_read_p99_ns == 0 {
            1.0
        } else {
            run.victim_read_p99_ns as f64 / alone.victim_read_p99_ns as f64
        }
    };
    let unfenced_blowup = blowup(&unfenced);
    let qos_blowup = blowup(&fenced);
    QosResult {
        victim_files,
        file_blocks,
        ant_files: victim_files * 2,
        ant_file_blocks: file_blocks * 2,
        epochs,
        ops,
        unfenced_blowup,
        qos_blowup,
        qos_protected: qos_blowup <= 2.0,
        unfenced_starved: unfenced_blowup >= 3.0,
        alone,
        unfenced,
        qos: fenced,
    }
}

// ---------------------------------------------------------------------
// Cluster — sharded scale-out namespace
// ---------------------------------------------------------------------

/// One row of the cluster scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterScaleRow {
    /// Mux nodes in the cluster.
    pub nodes: usize,
    /// Simulated client frontends (fixed across rows).
    pub clients: usize,
    /// Operations completed.
    pub total_ops: u64,
    /// MiB moved.
    pub total_mib: f64,
    /// Cluster elapsed virtual time (max over node and link ledgers), ms.
    pub elapsed_ms: f64,
    /// Aggregate throughput, MiB/s.
    pub agg_mib_s: f64,
    /// Fraction of routed ops that crossed a node boundary.
    pub remote_frac: f64,
    /// Busiest inter-node link's wire occupancy, ms.
    pub max_link_busy_ms: f64,
    /// Throughput relative to ideal linear scaling from the 1-node row
    /// (`tput_n / (n * tput_1)`); filled by [`cluster()`](fn@cluster).
    pub efficiency: f64,
    /// Pattern-verification failures (must be 0).
    pub verify_failures: u64,
}

/// The partition/heal chaos arm (4 nodes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterChaos {
    /// Cluster size.
    pub nodes: usize,
    /// Operations attempted across all phases.
    pub ops_attempted: u64,
    /// Operations that failed (partitioned owner — never acked).
    pub ops_failed: u64,
    /// Writes acknowledged to the client.
    pub acked_writes: u64,
    /// Bytes those acks covered.
    pub acked_bytes: u64,
    /// Acked bytes unreadable or wrong after heal. The whole point: 0.
    pub lost_bytes: u64,
    /// Creates attempted while a node was dark, and how many the
    /// two-choice placer routed to a live node (must match).
    pub creates_during_partition: u64,
    /// See `creates_during_partition`.
    pub creates_rerouted: u64,
    /// RPCs refused without touching the wire (peer breaker open).
    pub breaker_fast_fails: u64,
    /// Cross-node migrations rolled back (the mid-partition attempt).
    pub migration_aborts: u64,
    /// Staging/intent orphans left anywhere after heal (must be 0).
    pub debris_after_heal: u64,
    /// Nodes failing the crash-oracle structural check after heal (0).
    pub structural_violations: u64,
    /// Partition events injected.
    pub partitions: u64,
    /// Heal events injected.
    pub heals: u64,
}

/// Full cluster experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Streams (top-level files) per run.
    pub streams: usize,
    /// 4-KiB blocks per stream region.
    pub region_blocks: u64,
    /// Scaling sweep rows.
    pub rows: Vec<ClusterScaleRow>,
    /// Efficiency at 4 nodes — the CI gate (>= 0.8 = within 20% of
    /// ideal linear).
    pub scaling_4n: f64,
    /// The chaos arm.
    pub chaos: ClusterChaos,
}

/// Simulated client frontends driving the cluster.
const CLUSTER_CLIENTS: usize = 8;

fn cluster_home(stream: usize, nodes: usize) -> usize {
    // Client affinity: stream s belongs to client s % CLIENTS, attached
    // to node client % n. Ownership is wherever two-choice placement put
    // the stream, so remote traffic emerges naturally.
    (stream % CLUSTER_CLIENTS) % nodes
}

fn cluster_scale_run(
    nodes: usize,
    streams: usize,
    region_blocks: u64,
    ops: usize,
) -> ClusterScaleRow {
    use cluster::set_thread_home;
    let c = crate::testbed::build_cluster(nodes, 512 << 20, cluster::ClusterConfig::default());
    set_thread_home(0);
    let mut ginos = Vec::with_capacity(streams);
    for s in 0..streams {
        set_thread_home(cluster_home(s, nodes));
        let ino = mk(c.as_ref(), &format!("stream-{s}.dat"));
        c.write(ino, 0, &pattern_at(0, (region_blocks * BLOCK) as usize))
            .unwrap();
        ginos.push(ino);
    }
    // Measure only the steady state: snapshot every ledger after prefill.
    let t0 = c.instant();
    let mut bytes = 0u64;
    let mut verify_failures = 0u64;
    let mut buf = vec![0u8; BLOCK as usize];
    for i in 0..ops {
        let s = i % streams;
        set_thread_home(cluster_home(s, nodes));
        let round = (i / streams) as u64;
        let block = (round.wrapping_mul(0x9e37).wrapping_add(s as u64 * 7)) % region_blocks;
        let off = block * BLOCK;
        if i % 20 == 19 {
            c.write(ginos[s], off, &pattern_at(off, BLOCK as usize))
                .unwrap();
        } else {
            c.read(ginos[s], off, &mut buf).unwrap();
            if !workloads::pattern_check(off, &buf) {
                verify_failures += 1;
            }
        }
        bytes += BLOCK;
    }
    let elapsed_ns = c.elapsed_since(&t0).max(1);
    let snap = c.stats().snapshot();
    let routed = (snap.routed_local + snap.routed_remote).max(1);
    let max_link_busy = c
        .link_reports()
        .iter()
        .map(|l| l.busy_ns)
        .max()
        .unwrap_or(0);
    ClusterScaleRow {
        nodes,
        clients: CLUSTER_CLIENTS,
        total_ops: ops as u64,
        total_mib: bytes as f64 / (1 << 20) as f64,
        elapsed_ms: elapsed_ns as f64 / 1e6,
        agg_mib_s: bytes as f64 / (1 << 20) as f64 / (elapsed_ns as f64 / 1e9),
        remote_frac: snap.routed_remote as f64 / routed as f64,
        max_link_busy_ms: max_link_busy as f64 / 1e6,
        efficiency: 0.0, // filled by the caller
        verify_failures,
    }
}

fn cluster_chaos_run(streams: usize, region_blocks: u64, ops: usize) -> ClusterChaos {
    use cluster::set_thread_home;
    use std::collections::HashSet;
    const NODES: usize = 4;
    let c = crate::testbed::build_cluster(NODES, 512 << 20, cluster::ClusterConfig::default());
    set_thread_home(0);
    let mut ginos = Vec::with_capacity(streams);
    for s in 0..streams {
        set_thread_home(cluster_home(s, NODES));
        ginos.push(mk(c.as_ref(), &format!("chaos-{s}.dat")));
    }
    let victim = c.owner_of(ginos[0]).unwrap();
    let mut acked: HashSet<(u64, u64)> = HashSet::new();
    let mut acked_writes = 0u64;
    let mut ops_failed = 0u64;
    let mut creates = 0u64;
    let mut rerouted = 0u64;
    let mut dark = false;
    let mut buf = vec![0u8; BLOCK as usize];
    for i in 0..ops {
        if i == ops / 3 {
            c.partition_node(victim);
            dark = true;
            // A migration into the dark node must roll back cleanly.
            let (g, src) = ginos
                .iter()
                .find_map(|&g| {
                    let o = c.owner_of(g).unwrap();
                    (o != victim).then_some((g, o))
                })
                .expect("some stream lives off the victim");
            set_thread_home(src);
            assert!(c.migrate_to_node(g, victim).is_err());
        }
        if i == 2 * ops / 3 {
            c.heal_node(victim);
            dark = false;
        }
        let s = i % streams;
        let mut home = cluster_home(s, NODES);
        if dark && home == victim {
            // Clients of the dark node reconnect to its neighbor.
            home = (victim + 1) % NODES;
        }
        set_thread_home(home);
        if dark && i % 97 == 0 {
            // Placement must route around the dark candidate.
            creates += 1;
            let ino = mk(c.as_ref(), &format!("chaos-extra-{i}.dat"));
            if c.owner_of(ino).unwrap() != victim {
                rerouted += 1;
            }
            continue;
        }
        let round = (i / streams) as u64;
        let block = (round.wrapping_mul(0x9e37).wrapping_add(s as u64 * 7)) % region_blocks;
        let off = block * BLOCK;
        if i % 2 == 0 {
            // The pattern is a pure function of the offset, so replays of
            // an applied-but-unacked write can never corrupt acked data.
            match c.write(ginos[s], off, &pattern_at(off, BLOCK as usize)) {
                Ok(_) => {
                    acked.insert((ginos[s], off));
                    acked_writes += 1;
                }
                Err(_) => ops_failed += 1,
            }
        } else if c.read(ginos[s], off, &mut buf).is_err() {
            ops_failed += 1;
        }
    }
    // The oracle: every byte the cluster acked must read back intact.
    let mut lost_bytes = 0u64;
    for &(g, off) in &acked {
        match c.read(g, off, &mut buf) {
            Ok(n) if n == BLOCK as usize && workloads::pattern_check(off, &buf) => {}
            _ => lost_bytes += BLOCK,
        }
    }
    let mut structural_violations = 0u64;
    for n in 0..NODES {
        if mux::structural_check(&c.node(n).mux).is_err() {
            structural_violations += 1;
        }
    }
    let snap = c.stats().snapshot();
    ClusterChaos {
        nodes: NODES,
        ops_attempted: ops as u64,
        ops_failed,
        acked_writes,
        acked_bytes: acked_writes * BLOCK,
        lost_bytes,
        creates_during_partition: creates,
        creates_rerouted: rerouted,
        breaker_fast_fails: snap.breaker_fast_fails,
        migration_aborts: snap.migration_aborts,
        debris_after_heal: c.scan_debris().len() as u64,
        structural_violations,
        partitions: snap.partitions,
        heals: snap.heals,
    }
}

/// The cluster experiment: an aggregate-throughput scaling sweep over
/// 1/2/4/8 Mux nodes plus a 4-node partition/heal chaos arm.
///
/// Eight simulated clients drive `streams` top-level files with a 95/5
/// read/write mix. Every node charges its own virtual clock and every
/// link its own occupancy ledger, so cluster elapsed time is the max
/// across all of them — aggregate throughput on the modeled hardware is
/// `bytes / elapsed`. Efficiency at n nodes is throughput relative to
/// ideal linear scaling from the 1-node row; the CI gate holds the
/// 4-node figure at >= 0.8.
///
/// The chaos arm partitions the node owning stream 0 a third of the way
/// in, heals it at two thirds, attempts a migration into the dark node
/// (must abort without debris), keeps serving the surviving shards, and
/// finally verifies every acked write byte-for-byte: `lost_bytes` must
/// be 0.
pub fn cluster(streams: usize, region_blocks: u64, ops: usize, chaos_ops: usize) -> ClusterResult {
    let mut rows: Vec<ClusterScaleRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| cluster_scale_run(n, streams, region_blocks, ops))
        .collect();
    let base = rows[0].agg_mib_s.max(f64::MIN_POSITIVE);
    for r in rows.iter_mut() {
        r.efficiency = r.agg_mib_s / (r.nodes as f64 * base);
    }
    let scaling_4n = rows
        .iter()
        .find(|r| r.nodes == 4)
        .map(|r| r.efficiency)
        .unwrap_or(0.0);
    let chaos = cluster_chaos_run(streams / 2, region_blocks, chaos_ops);
    ClusterResult {
        streams,
        region_blocks,
        rows,
        scaling_4n,
        chaos,
    }
}
