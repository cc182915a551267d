//! `muxstat` — pretty-prints the Mux observability surface.
//!
//! ```text
//! muxstat [--events N] [--from FILE] [--spans FILE]
//! ```
//!
//! Without arguments, runs a small built-in mixed workload (writes, cached
//! reads, a successful migration, and a fault-forced migration abort)
//! against the standard three-tier stack, then dumps every layer of the
//! observability surface: tier health, every `MuxStats` counter, OCC
//! migration counters, per-(operation × tier) latency percentiles, every
//! `DeviceStats` counter, and the tail of the trace ring.
//!
//! With `--from FILE`, re-renders a `bench_results/latency_breakdown.json`,
//! `bench_results/integrity.json`, or `bench_results/cluster.json`
//! previously written by `repro` instead of running anything. With
//! `--spans FILE`, reads a `muxbench` span file
//! (`benchmark/out/trace_<workload>.jsonl`) and prints, per op kind, Mux's
//! own host time — each op less the native and policy calls under it — as
//! mean, p50 and p99, and the mean and share of the slowest 1 % of ops. See
//! OBSERVABILITY.md for how to read the output.

use std::sync::Arc;

use bench::experiments::{self as ex, ClusterResult, IntegrityResult, LatencyBreakdown};
use bench::report;
use bench::testbed::{build_mux_stack_cached, Capacities};
use mux::{CacheConfig, CacheController, MuxOptions, PinnedPolicy, BLOCK};
use simdev::{DeviceClass, FaultMode};
use tvfs::{FileSystem, FileType, ROOT_INO};
use workloads::pattern_at;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut tail = 48usize;
    let mut from: Option<String> = None;
    let mut spans: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--events" | "-n" => {
                i += 1;
                tail = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--events needs a number");
                    std::process::exit(2);
                });
            }
            "--from" | "-f" => {
                i += 1;
                from = args.get(i).cloned();
                if from.is_none() {
                    eprintln!("--from needs a file path");
                    std::process::exit(2);
                }
            }
            "--spans" | "-s" => {
                i += 1;
                spans = args.get(i).cloned();
                if spans.is_none() {
                    eprintln!("--spans needs a file path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: muxstat [--events N] [--from FILE] [--spans FILE]\n\
                     \x20 --events N    trace-tail length for the demo run (default 48)\n\
                     \x20 --from FILE   re-render a latency_breakdown.json,\n\
                     \x20               integrity.json or cluster.json instead of running\n\
                     \x20 --spans FILE  Mux self host time per op kind of a muxbench\n\
                     \x20               span file (benchmark/out/trace_<workload>.jsonl)"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(path) = spans {
        let rendered = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| report::render_spans(&text).map_err(|e| format!("{path}: {e}")));
        match rendered {
            Ok(table) => println!("== muxstat — Mux self host time per op, {path} ==\n\n{table}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(path) = from {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        // The file is whichever result shape parses: a latency breakdown
        // or an integrity run.
        if let Ok(parsed) = serde_json::from_str::<LatencyBreakdown>(&text) {
            println!("== muxstat — re-rendering {path} ==\n");
            println!("{}", report::render_latency(&parsed));
        } else if let Ok(parsed) = serde_json::from_str::<IntegrityResult>(&text) {
            println!("== muxstat — re-rendering {path} ==\n");
            println!("{}", report::render_integrity(&parsed));
        } else if let Ok(parsed) = serde_json::from_str::<ClusterResult>(&text) {
            println!("== muxstat — re-rendering {path} ==\n");
            println!("{}", report::render_cluster(&parsed));
        } else {
            eprintln!(
                "cannot parse {path} as latency_breakdown.json, integrity.json, or cluster.json"
            );
            std::process::exit(1);
        }
        return;
    }
    demo(tail);
}

/// Runs the built-in workload and dumps every observability layer.
fn demo(tail: usize) {
    let stack = build_mux_stack_cached(
        Capacities::default(),
        Arc::new(PinnedPolicy::new(1)), // data lands on the SSD tier
        MuxOptions::default(),
        4 << 20,
    );
    // SCM cache: a DAX window at the tail of the PM device, so the SSD
    // reads below produce cache-lookup/fill/hit traffic.
    let window = mux::cache::DaxWindow::new(
        stack.devices[0].clone(),
        vec![(stack.devices[0].capacity() - (4 << 20), 4 << 20)],
    );
    stack.mux.attach_cache(Arc::new(CacheController::new(
        Box::new(window),
        CacheConfig {
            cache_from: DeviceClass::Ssd,
            ..Default::default()
        },
    )));
    let f = stack
        .mux
        .create(ROOT_INO, "demo", FileType::Regular, 0o644)
        .unwrap();
    let blocks = 256u64;
    stack
        .mux
        .write(f.ino, 0, &pattern_at(0, (blocks * BLOCK) as usize))
        .unwrap();
    stack.mux.fsync(f.ino).unwrap();
    // Two passes over the first half: the first fills the SCM cache, the
    // second hits it. Each pass runs as a different tenant so the
    // per-tenant attribution surface below has something to show.
    let mut buf = vec![0u8; BLOCK as usize];
    for tenant in [1u32, 2] {
        mux::set_thread_tenant(tenant);
        for b in 0..blocks / 2 {
            stack.mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
        }
    }
    mux::set_thread_tenant(0);
    // A successful OCC migration (SSD → PM)...
    stack.mux.migrate_range(f.ino, 0, 64, 0).unwrap();
    // ...and a fault-forced abort: the HDD is dead when the copy starts
    // (op budget 0 — e4fs's page cache absorbs small writes, so a nonzero
    // budget could let a short copy slip through without touching the disk).
    stack.devices[2].set_fault_mode(FaultMode::FailStop { remaining_ops: 0 });
    let aborted = stack.mux.migrate_range(f.ino, 128, 64, 2);
    stack.devices[2].set_fault_mode(FaultMode::None);
    stack.mux.health().reset(2);
    // Silent corruption: replicate a few of the PM-resident blocks onto
    // the SSD, then rot the PM device (novafs has no page cache, so every
    // read actually touches the rotting media). Reads over the replicated
    // blocks detect + repair; one unreplicated read ends in quarantine.
    // A full scrub pass closes the segment.
    stack.mux.mirror_range(f.ino, 32, 8, 1).unwrap();
    stack.devices[0].set_fault_mode(FaultMode::BitRot { period: 1, seed: 7 });
    for b in 32..36u64 {
        stack.mux.read(f.ino, b * BLOCK, &mut buf).unwrap();
    }
    let _ = stack.mux.read(f.ino, 44 * BLOCK, &mut buf); // no replica: quarantined
    stack.devices[0].set_fault_mode(FaultMode::None);
    stack.mux.scrub_everything();
    stack.mux.health().reset(0);

    println!("== muxstat — Mux observability snapshot (built-in demo workload) ==\n");
    // `room` is what placement and the planner may still put on a tier:
    // free space above its reserve (DESIGN.md "Planning").
    println!("Tiers (KiB)");
    for t in stack.mux.tier_status() {
        println!(
            "  tier {}  {:<10} {:<6}  free {:>7}  reserve {:>4}  room {:>7}  of {:>7}  {}",
            t.id,
            t.name,
            format!("{:?}", t.class),
            t.free_bytes >> 10,
            t.reserve_bytes >> 10,
            t.room() >> 10,
            t.total_bytes >> 10,
            t.health.label(),
        );
    }
    println!("\nMux counters");
    let s = stack.mux.stats().snapshot();
    print_counters("  ", s.values());
    let (migrations, conflicts, retries, fallbacks, blocks_moved) =
        stack.mux.occ_stats().snapshot();
    println!("\nOCC migration");
    println!(
        "  migrations {}  blocks_moved {}  conflicts {}  retries {}  fallbacks {}",
        migrations, blocks_moved, conflicts, retries, fallbacks
    );
    println!(
        "  aborts {}  partial_commits {}  lock_hold {} vns  (forced abort: {})",
        stack.mux.occ_stats().aborts(),
        stack.mux.occ_stats().partial_commits(),
        stack.mux.occ_stats().lock_hold_vns(),
        if aborted.is_err() { "yes" } else { "no" },
    );
    println!("\nPer-tenant latency");
    let tenants = stack.mux.tenant_latency_report();
    for e in &tenants.entries {
        println!(
            "  tenant {} {:<9} p50 {:>8} ns  p99 {:>8} ns  ({} samples)",
            e.tenant,
            format!("{:?}", e.op),
            e.hist.p50(),
            e.hist.p99(),
            e.hist.count
        );
    }
    println!("\nPer-tier dispatch latency (ns, virtual time)");
    print!(
        "{}",
        report::latency_table(&ex::latency_rows(&stack.mux.latency_report()))
    );
    println!("\nDevice counters (busy times in virtual ns)");
    for (dev, label) in stack.devices.iter().zip(["PM", "SSD", "HDD"]) {
        println!("  {label}");
        print_counters("    ", dev.stats().snapshot().values());
    }
    let events = stack.mux.trace_snapshot();
    let from = events.len().saturating_sub(tail);
    println!(
        "\nTrace ring: {} recorded, {} dropped; last {} events:",
        stack.mux.trace().recorded(),
        stack.mux.trace().dropped(),
        events.len() - from
    );
    print!("{}", report::trace_lines(&events[from..]));
    // The corruption/scrub story, pulled out of the general tail so it
    // survives being drowned in cache and dispatch traffic.
    let integrity: Vec<mux::TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                mux::TraceEventKind::CorruptionDetected { .. }
                    | mux::TraceEventKind::CorruptionRepaired { .. }
                    | mux::TraceEventKind::BlockQuarantined
                    | mux::TraceEventKind::ScrubPass { .. }
            )
        })
        .cloned()
        .collect();
    let ifrom = integrity.len().saturating_sub(tail);
    println!(
        "\nIntegrity events ({} in the ring; last {}):",
        integrity.len(),
        integrity.len() - ifrom
    );
    print!("{}", report::trace_lines(&integrity[ifrom..]));
    cluster_demo();
}

/// A two-node cluster vignette: remote dispatch, a partition, a heal —
/// then the per-direction link counters and cluster trace events.
fn cluster_demo() {
    use cluster::set_thread_home;
    use mux::BLOCK as BLK;
    let c = bench::testbed::build_cluster(2, 64 << 20, cluster::ClusterConfig::default());
    set_thread_home(0);
    // Enough files that both shards own some; write/read each so the
    // wire carries bulk payload in both directions.
    let mut buf = vec![0u8; BLK as usize];
    for i in 0..8 {
        let f = c
            .create(ROOT_INO, &format!("c{i}"), FileType::Regular, 0o644)
            .unwrap();
        c.write(f.ino, 0, &pattern_at(0, BLK as usize)).unwrap();
        c.read(f.ino, 0, &mut buf).unwrap();
    }
    // One partition/heal cycle so the drop counters and the
    // link_partitioned/link_healed events have something to show.
    c.partition_node(1);
    for i in 0..8 {
        if let Ok(a) = c.lookup(ROOT_INO, &format!("c{i}")) {
            let _ = c.read(a.ino, 0, &mut buf);
        }
    }
    c.heal_node(1);
    println!("\n== Cluster links (two-node vignette) ==\n");
    println!("Inter-node links (per-direction wire counters)");
    for l in c.link_reports() {
        println!(
            "  {}<->{}  wire busy {} ns  propagation awaited {} ns",
            l.a, l.b, l.busy_ns, l.latency_ns
        );
        print_counters("    ", l.stats.values());
    }
    println!("\nCluster counters");
    print_counters("  ", c.stats().snapshot().values());
    for n in 0..c.node_count() {
        println!("  node {n}:");
        let s = c.node(n).mux.stats().snapshot();
        print_counters(
            "    ",
            s.values().filter(|(name, _)| name.starts_with("remote_")),
        );
    }
    let events: Vec<mux::TraceEvent> = c
        .node(0)
        .mux
        .trace()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                mux::TraceEventKind::RemoteDispatch { .. }
                    | mux::TraceEventKind::LinkPartitioned
                    | mux::TraceEventKind::LinkHealed
            )
        })
        .cloned()
        .collect();
    let from = events.len().saturating_sub(12);
    println!(
        "\nCluster trace events on node 0 ({} total; last {}):",
        events.len(),
        events.len() - from
    );
    print!("{}", report::trace_lines(&events[from..]));
}

/// Prints `name value` pairs of a counter table, wrapped at 80 columns; a
/// per-slot counter prints as `name [v0 v1 ...]`.
fn print_counters<'a>(indent: &str, values: impl Iterator<Item = (&'static str, &'a [u64])>) {
    let mut line = String::new();
    for (name, v) in values {
        let item = match v {
            [one] => format!("{name} {one}"),
            slots => {
                let slots: Vec<String> = slots.iter().map(u64::to_string).collect();
                format!("{name} [{}]", slots.join(" "))
            }
        };
        if !line.is_empty() && indent.len() + line.len() + 2 + item.len() > 80 {
            println!("{indent}{line}");
            line.clear();
        }
        if !line.is_empty() {
            line.push_str("  ");
        }
        line.push_str(&item);
    }
    if !line.is_empty() {
        println!("{indent}{line}");
    }
}
