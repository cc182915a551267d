//! Table rendering and JSON output for the repro harness.

use std::fmt::Write as _;

use serde::Serialize;

use crate::experiments::*;

/// Renders a value grid with headers as a fixed-width table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, "  {:<w$}", c, w = widths[i]);
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for r in rows {
        line(&mut out, r);
    }
    out
}

/// Renders Figure 3a (migration matrix).
pub fn render_fig3a(f: &Fig3a) -> String {
    let mut rows = Vec::new();
    for c in &f.cells {
        rows.push(vec![
            format!("{} → {}", c.from, c.to),
            format!("{:.0}", c.mux_mbps),
            c.strata_mbps
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "N/S".into()),
        ]);
    }
    let mut s = String::from("Figure 3a — data-migration throughput (MB/s, virtual time)\n");
    s += &table(&["path", "Mux", "Strata"], &rows);
    let _ = writeln!(
        s,
        "\n  Mux supports 6/6 paths; Strata 2/6 (paper: same).\n  PM→SSD: Mux is {:.2}x Strata (paper: 2.59x).",
        f.pm_to_ssd_ratio
    );
    s
}

/// Renders Figure 3b (per-device throughput).
pub fn render_fig3b(rows: &[Fig3bRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                format!("{:.0}", r.strata_mbps),
                format!("{:.0}", r.mux_mbps),
                format!("{:.2}x", r.ratio),
            ]
        })
        .collect();
    let mut s =
        String::from("Figure 3b — per-device random-write throughput (MB/s, virtual time)\n");
    s += &table(&["device", "Strata", "Mux", "Mux/Strata"], &body);
    s += "\n  Paper ratios: 1.08x (PM), 1.46x (SSD), 1.07x (HDD).\n";
    s
}

/// Renders the §3.2 read-latency table.
pub fn render_read_overhead(rows: &[ReadOverheadRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tier.clone(),
                format!("{:.0}", r.native_ns),
                format!("{:.0}", r.mux_ns),
                format!("+{:.1}%", r.overhead_pct),
                format!("{}", r.mux_p50_ns),
                format!("{}", r.mux_p95_ns),
                format!("{}", r.mux_p99_ns),
                format!("{}", r.dispatch_p50_ns),
                format!("{:.1}%", r.fastpath_hit_pct),
            ]
        })
        .collect();
    let mut s = String::from(
        "§3.2 — worst-case read latency (1-byte random reads; avg ns, virtual time)\n",
    );
    s += &table(
        &[
            "tier", "native", "Mux", "overhead", "Mux p50", "Mux p95", "Mux p99", "disp p50",
            "fp hit",
        ],
        &body,
    );
    s += "\n  Paper: +52.4% (PM), +87.3% (SSD), +6.6% (HDD).\n\
          \x20 Mux percentiles are end-to-end (mux-read kind, steady state, warmup\n\
          \x20 excluded); `disp p50` is the native-callee dispatch inside the slow\n\
          \x20 path, and `fp hit` the steady-state fast-path hit rate.\n";
    s
}

/// Renders the §3.2 write-throughput table.
pub fn render_write_overhead(rows: &[WriteOverheadRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tier.clone(),
                format!("{:.0}", r.native_mbps),
                format!("{:.0}", r.mux_mbps),
                format!("-{:.1}%", r.overhead_pct),
            ]
        })
        .collect();
    let mut s = String::from(
        "§3.2 — sequential write throughput (4 MiB writes + fsync; MB/s, virtual time)\n",
    );
    s += &table(&["tier", "native", "Mux", "overhead"], &body);
    s += "\n  Paper: -1.6% (PM), -2.2% (SSD), -3.5% (HDD).\n";
    s
}

/// Renders the metadata-overhead sweep.
pub fn render_meta_overhead(rows: &[MetaOverheadRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} MiB", r.file_bytes >> 20),
                format!("{}", r.blt_bytes),
                format!("{:.4}%", r.overhead_pct),
            ]
        })
        .collect();
    let mut s = String::from("§2.3 — Block Lookup Table space overhead (byte-array encoding)\n");
    s += &table(&["file size", "BLT bytes", "overhead"], &body);
    s += "\n  Paper bound: < 0.025%.\n";
    s
}

/// Renders the OCC ablation.
pub fn render_occ(a: &OccAblation) -> String {
    format!(
        "Ablation A1 — OCC vs lock-based migration (concurrent writer)\n\
         \x20 exclusive-lock time across all migrations (virtual, deterministic):\n\
         \x20    OCC synchronizer: {:>12.1} µs  (revalidate + BLT swing only)\n\
         \x20    whole-copy lock:  {:>12.1} µs  (the entire copy)\n\
         \x20    critical path shrunk {:.0}x\n\
         \x20 writer ops inside migration windows (indicative): OCC {}, locked {}\n\
         \x20 conflicts detected: {}, retry rounds: {}, lock fallbacks: {}\n",
        a.occ_lock_hold_vns as f64 / 1e3,
        a.locked_lock_hold_vns as f64 / 1e3,
        a.locked_lock_hold_vns as f64 / a.occ_lock_hold_vns.max(1) as f64,
        a.occ_writer_ops,
        a.locked_writer_ops,
        a.occ_conflicts,
        a.occ_retries,
        a.occ_fallbacks,
    )
}

/// Renders the cache ablation.
pub fn render_cache(rows: &[CacheAblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                format!("{:.0}", r.avg_read_ns),
                format!("{:.1}%", r.hit_rate * 100.0),
            ]
        })
        .collect();
    let mut s = String::from("Ablation A2 — SCM cache (zipfian reads over HDD data)\n");
    s += &table(&["configuration", "avg read ns", "hit rate"], &body);
    s
}

/// Renders the policy ablation.
pub fn render_policy(rows: &[PolicyAblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.0}", r.avg_read_ns),
                format!("{:.0}%", r.hot_on_fast * 100.0),
            ]
        })
        .collect();
    let mut s = String::from("Ablation A3 — tiering policies (hot/cold workload)\n");
    s += &table(&["policy", "avg read ns", "hot data on PM"], &body);
    s
}

/// Renders the degraded-mode (fenced-tier) experiment.
pub fn render_degraded(d: &DegradedMode) -> String {
    let body = vec![vec![
        format!("{:.1}", d.healthy_mbps),
        format!("{:.1}", d.degraded_mbps),
        format!("{:.2}x", d.ratio),
        d.redirected_writes.to_string(),
        d.offline_tier.clone(),
    ]];
    let mut s = String::from("Robustness — overwrite throughput with the fastest tier fenced\n");
    s += &table(
        &[
            "healthy MB/s",
            "degraded MB/s",
            "ratio",
            "redirected",
            "fenced tier",
        ],
        &body,
    );
    s
}

/// Renders (operation × tier) latency rows as a percentile table.
pub fn latency_table(rows: &[LatencyRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.op.clone(),
                r.tier.clone(),
                r.count.to_string(),
                r.p50_ns.to_string(),
                r.p95_ns.to_string(),
                r.p99_ns.to_string(),
                r.max_ns.to_string(),
                r.mean_ns.to_string(),
            ]
        })
        .collect();
    table(
        &["op", "tier", "count", "p50", "p95", "p99", "max", "mean"],
        &body,
    )
}

/// Renders trace events as one line per event, oldest first.
pub fn trace_lines(events: &[mux::TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        let tier = if e.tier == mux::CACHE_TIER {
            "cache".to_string()
        } else {
            format!("t{}", e.tier)
        };
        let _ = writeln!(
            s,
            "  #{:<6} {:>12} ns  {:<5} ino {:<4} [{:>8}..{:>8})  {}",
            e.seq,
            e.at_ns,
            tier,
            e.ino,
            e.off,
            e.off + e.len,
            e.kind.label(),
        );
    }
    s
}

/// Renders the observability-layer latency-breakdown experiment.
pub fn render_latency(b: &LatencyBreakdown) -> String {
    let mut s = String::from(
        "Observability — per-tier dispatch latency (ns, virtual time; \
         log2-bucket percentiles)\n",
    );
    s += &latency_table(&b.rows);
    s += "\nDevice busy-time attribution (virtual ns)\n";
    let dev_body: Vec<Vec<String>> = b
        .devices
        .iter()
        .map(|d| {
            vec![
                d.device.clone(),
                d.busy_ns.to_string(),
                d.read_busy_ns.to_string(),
                d.write_busy_ns.to_string(),
                d.flush_busy_ns.to_string(),
            ]
        })
        .collect();
    s += &table(&["device", "busy", "read", "write", "flush"], &dev_body);
    let _ = writeln!(
        s,
        "\nTrace ring: {} events recorded, {} dropped; last {}:",
        b.trace_recorded,
        b.trace_dropped,
        b.trace_tail.len()
    );
    s += &trace_lines(&b.trace_tail);
    s
}

/// Renders the thread-scaling sweep.
pub fn render_scaling(cells: &[ScalingCell]) -> String {
    let mut s = String::from("Scaling — multi-threaded engine, modeled N-core throughput\n");
    let body: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.config.clone(),
                c.mix.clone(),
                c.threads.to_string(),
                c.total_ops.to_string(),
                format!("{:.1}", c.throughput_mib_s),
                format!("{:.2}x", c.speedup_vs_1t),
                c.verify_failures.to_string(),
            ]
        })
        .collect();
    s += &table(
        &[
            "config",
            "mix",
            "threads",
            "ops",
            "MiB/s",
            "speedup",
            "verify_fail",
        ],
        &body,
    );
    s
}

/// Renders the autotier convergence experiment.
pub fn render_autotier(r: &AutotierResult) -> String {
    let mut s = format!(
        "Autotier — zipfian hot set ({} of {} files) starting on HDD, {} epochs\n",
        r.hot_files, r.files, r.epochs
    );
    let row = |name: &str, run: &crate::experiments::AutotierRun| {
        vec![
            name.to_string(),
            format!("{:.1}%", run.convergence * 100.0),
            format!("{}", run.read_p50_ns),
            format!("{}", run.read_p95_ns),
            format!("{:.1}", run.fg_mbps),
            run.auto_promotions.to_string(),
            run.auto_demotions.to_string(),
            run.throttled_bytes.to_string(),
            run.planner_vetoes.to_string(),
        ]
    };
    s += &table(
        &[
            "daemon",
            "hot on fast",
            "read p50 ns",
            "read p95 ns",
            "fg MB/s",
            "promoted",
            "demoted",
            "throttled B",
            "vetoes",
        ],
        &[row("on", &r.daemon_on), row("off", &r.daemon_off)],
    );
    let _ = writeln!(
        s,
        "  converged: {} (target >= 90% of hot-set blocks off HDD); fg throughput ratio on/off: {:.2}",
        r.converged, r.fg_ratio
    );
    s
}

/// Renders the mirror placement experiment.
pub fn render_mirror(r: &MirrorResult) -> String {
    let mut s = format!(
        "Mirror — read-heavy zipfian set ({} files x {} blocks) on SSD, scarce PM, {} epochs\n",
        r.files, r.file_blocks, r.epochs
    );
    let row = |name: &str, run: &crate::experiments::MirrorRun| {
        vec![
            name.to_string(),
            format!("{}", run.read_p50_ns),
            format!("{}", run.read_p99_ns),
            format!("{:.1}", run.healthy_mbps),
            format!("{:.1}", run.degraded_mbps),
            format!("{}/{}", run.degraded_reads_ok, run.degraded_reads_err),
            run.pm_primary_blocks.to_string(),
            run.pm_replica_blocks.to_string(),
            run.mirror_reads_fast.to_string(),
        ]
    };
    s += &table(
        &[
            "arm",
            "read p50 ns",
            "read p99 ns",
            "healthy MB/s",
            "fenced MB/s",
            "fenced ok/err",
            "PM primaries",
            "PM replicas",
            "replica reads",
        ],
        &[row("mirrored", &r.mirrored), row("baseline", &r.baseline)],
    );
    let _ = writeln!(
        s,
        "  mirrors created/retired: {}/{}; lazy resyncs: {}",
        r.mirrored.mirrors_created, r.mirrored.mirrors_retired, r.mirrored.lazy_resyncs
    );
    let _ = writeln!(
        s,
        "  read p99 ratio mirrored/baseline: {:.2} (improved: {}); fenced-PM goodput ratio: {:.2} (improved: {})",
        r.p99_ratio, r.p99_improved, r.degraded_ratio, r.degraded_improved
    );
    s
}

/// Renders the integrity experiment: two bit-rot storms plus the scrub
/// on/off overhead pair.
pub fn render_integrity(r: &IntegrityResult) -> String {
    let mut s = format!(
        "Integrity — bit-rot storm over {} blocks (every primary read rots)\n",
        r.replicated.blocks
    );
    let row = |name: &str, st: &crate::experiments::IntegrityStorm| {
        vec![
            name.to_string(),
            st.reads.to_string(),
            st.rotted_reads.to_string(),
            st.detected.to_string(),
            st.repaired.to_string(),
            st.quarantined.to_string(),
            st.corrupt_bytes_served.to_string(),
            format!("{:.0}%", st.detection_rate * 100.0),
            format!("{:.0}%", st.repair_rate * 100.0),
        ]
    };
    s += &table(
        &[
            "storm",
            "reads",
            "rotted",
            "detected",
            "repaired",
            "quarantined",
            "corrupt B served",
            "detect",
            "repair",
        ],
        &[
            row("replicated", &r.replicated),
            row("unreplicated", &r.unreplicated),
        ],
    );
    let _ = writeln!(
        s,
        "  scrubber tax: fg read p50 {} -> {} ns, p95 {} -> {} ns (ratio {:.3}, budget 1.25)",
        r.scrub_off_p50_ns,
        r.scrub_on_p50_ns,
        r.scrub_off_p95_ns,
        r.scrub_on_p95_ns,
        r.scrub_p95_ratio
    );
    let _ = writeln!(
        s,
        "  scrub passes: {} ({} blocks verified in the background)",
        r.scrub_passes, r.scrub_blocks_verified
    );
    s
}

/// Renders the multi-tenant QoS antagonist experiment: one row per arm.
pub fn render_qos(r: &QosResult) -> String {
    let mut s = format!(
        "QoS — PM-reader victim ({} files x {} blocks) vs HDD antagonist ({} files x {} blocks), {} epochs\n",
        r.victim_files, r.file_blocks, r.ant_files, r.ant_file_blocks, r.epochs
    );
    let row = |name: &str, run: &crate::experiments::QosRun| {
        vec![
            name.to_string(),
            run.victim_read_p50_ns.to_string(),
            run.victim_read_p99_ns.to_string(),
            run.antagonist_read_p99_ns.to_string(),
            format!("{}/{}", run.victim_pm_blocks, run.victim_blocks),
            run.qos_plan_exclusions.to_string(),
            format!("{}/{}", run.qos_deferrals, run.qos_sheds),
        ]
    };
    s += &table(
        &[
            "arm",
            "victim p50 ns",
            "victim p99 ns",
            "antag p99 ns",
            "victim PM blocks",
            "plan excl",
            "defer/shed",
        ],
        &[
            row("alone", &r.alone),
            row("unfenced", &r.unfenced),
            row("qos", &r.qos),
        ],
    );
    let _ = writeln!(
        s,
        "  victim p99 blowup vs alone: unfenced {:.2}x (starved: {}), qos {:.2}x (protected: {}, budget 2.0)",
        r.unfenced_blowup, r.unfenced_starved, r.qos_blowup, r.qos_protected
    );
    s
}

/// Writes any serializable result as JSON next to the binary.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all("bench_results")?;
    let path = format!("bench_results/{name}.json");
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

/// Renders the crash matrix: one row per scenario × tear mode.
pub fn render_crash(m: &mux::CrashMatrix) -> String {
    let body: Vec<Vec<String>> = m
        .scenarios
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                s.mode.clone(),
                s.crash_points.to_string(),
                s.recovered.to_string(),
                s.failures.len().to_string(),
            ]
        })
        .collect();
    let mut s = String::from("Crash consistency — exhaustive crash-point enumeration\n");
    s += &table(
        &["scenario", "mode", "points", "recovered", "failed"],
        &body,
    );
    let _ = writeln!(
        s,
        "  total: {} points, {} recovered, {} violated, {} panicked",
        m.total_points, m.recovered, m.violated, m.panicked
    );
    for sc in &m.scenarios {
        for f in sc.failures.iter().take(3) {
            let _ = writeln!(
                s,
                "  FAIL {}[{}] k={} {}: {}",
                sc.scenario, sc.mode, f.k, f.kind, f.detail
            );
        }
    }
    s
}

/// Renders the cluster scale-out experiment.
pub fn render_cluster(r: &crate::experiments::ClusterResult) -> String {
    let mut s = format!(
        "Cluster — sharded namespace, {} streams x {} blocks, 95/5 mix, {} clients\n",
        r.streams,
        r.region_blocks,
        r.rows.first().map(|x| x.clients).unwrap_or(0)
    );
    let body: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|c| {
            vec![
                c.nodes.to_string(),
                c.total_ops.to_string(),
                format!("{:.1}", c.total_mib),
                format!("{:.2}", c.elapsed_ms),
                format!("{:.1}", c.agg_mib_s),
                format!("{:.0}%", c.remote_frac * 100.0),
                format!("{:.2}", c.max_link_busy_ms),
                format!("{:.2}", c.efficiency),
                c.verify_failures.to_string(),
            ]
        })
        .collect();
    s += &table(
        &[
            "nodes",
            "ops",
            "MiB",
            "elapsed ms",
            "agg MiB/s",
            "remote",
            "link busy ms",
            "efficiency",
            "verify_fail",
        ],
        &body,
    );
    let _ = writeln!(
        s,
        "  scaling at 4 nodes: {:.2} of ideal linear (gate >= 0.80)",
        r.scaling_4n
    );
    let c = &r.chaos;
    let _ = writeln!(
        s,
        "\nChaos — {} nodes, partition at 1/3, heal at 2/3:\n  \
         ops {} (failed while dark: {})  acked writes {} ({} bytes)\n  \
         lost acked bytes: {}  (gate == 0)\n  \
         creates rerouted around dark node: {}/{}  breaker fast-fails: {}\n  \
         migration aborts: {}  debris after heal: {}  structural violations: {}\n  \
         partitions/heals: {}/{}",
        c.nodes,
        c.ops_attempted,
        c.ops_failed,
        c.acked_writes,
        c.acked_bytes,
        c.lost_bytes,
        c.creates_rerouted,
        c.creates_during_partition,
        c.breaker_fast_fails,
        c.migration_aborts,
        c.debris_after_heal,
        c.structural_violations,
        c.partitions,
        c.heals
    );
    s
}

/// One line of a `muxbench` span file (`benchmark/out/trace_<w>.jsonl`):
/// a client op or tick (`op.*`, `tick`), or a native or policy call made
/// under the op numbered `op`.
#[derive(serde::Deserialize)]
struct SpanLine {
    name: String,
    op: u64,
    wall_start_ns: u64,
    wall_end_ns: u64,
}

/// Per op kind of a span file, Mux's own host time: each op's span less
/// the native and policy calls under it, as mean, p50 and p99, and the
/// mean and share of that time of the slowest 1 % of the kind's ops.
pub fn render_spans(jsonl: &str) -> Result<String, String> {
    let mut children: std::collections::HashMap<u64, u64> = Default::default();
    let mut ops: Vec<(String, u64, u64)> = Vec::new();
    for (n, line) in jsonl.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let s: SpanLine = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let wall = s.wall_end_ns.saturating_sub(s.wall_start_ns);
        if s.name.starts_with("op.") || s.name == "tick" {
            ops.push((s.name, s.op, wall));
        } else {
            *children.entry(s.op).or_default() += wall;
        }
    }
    let mut by_kind: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    for (kind, op, wall) in ops {
        let own = wall.saturating_sub(children.get(&op).copied().unwrap_or(0));
        by_kind.entry(kind).or_default().push(own);
    }
    let rows: Vec<Vec<String>> = by_kind
        .into_iter()
        .map(|(kind, mut own)| {
            own.sort_unstable();
            let n = own.len();
            let total: u64 = own.iter().sum();
            // Nearest rank.
            let pct = |p: usize| own[(n * p).div_ceil(100).max(1) - 1];
            let top_n = n.div_ceil(100);
            let top: u64 = own[n - top_n..].iter().sum();
            vec![
                kind,
                n.to_string(),
                format!("{:.0}", total as f64 / n as f64),
                pct(50).to_string(),
                pct(99).to_string(),
                format!("{:.0}", top as f64 / top_n as f64),
                format!("{:.1}", 100.0 * top as f64 / total.max(1) as f64),
                format!("{:.2}", total as f64 / 1e6),
            ]
        })
        .collect();
    Ok(table(
        &[
            "op",
            "count",
            "self mean ns",
            "p50 ns",
            "p99 ns",
            "top 1% mean ns",
            "top 1% share %",
            "self total ms",
        ],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, op: u64, wall0: u64, wall1: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"op\":{op},\"wall_start_ns\":{wall0},\"wall_end_ns\":{wall1},\"virt_start_ns\":0,\"virt_end_ns\":0}}\n"
        )
    }

    #[test]
    fn span_self_time_is_the_op_less_its_calls() {
        // 99 fsyncs of 10 ns self time and one of 1 010 (1 100 less 90 in
        // native calls): the top 1 % holds half of the kind's self time.
        let mut jsonl = String::new();
        for op in 0..100 {
            let wall = if op == 7 { 1_100 } else { 10 };
            if op == 7 {
                jsonl += &span("xefs.write", op, 0, 40);
                jsonl += &span("xefs.fsync", op, 40, 90);
            }
            jsonl += &span("op.fsync", op, 0, wall);
        }
        jsonl += &span("op.read", 100, 0, 25);
        let out = render_spans(&jsonl).unwrap();
        let row = |kind: &str| -> Vec<String> {
            let line = out
                .lines()
                .find(|l| l.trim_start().starts_with(kind))
                .unwrap();
            line.split_whitespace().map(str::to_string).collect()
        };
        assert_eq!(
            row("op.fsync"),
            ["op.fsync", "100", "20", "10", "10", "1010", "50.5", "0.00"]
        );
        assert_eq!(
            row("op.read"),
            ["op.read", "1", "25", "25", "25", "25", "100.0", "0.00"]
        );
        assert!(render_spans("{\"name\":1}").is_err());
    }
}
