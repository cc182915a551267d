//! Counter snapshots read through each layer's public stats API. A
//! snapshot is a flat map; the measured phase is the difference of two.

use std::collections::BTreeMap;

use crate::stack::{Stack, DEV_CLASSES};

pub type Counters = BTreeMap<String, f64>;

pub fn snapshot(stack: &Stack) -> Counters {
    let mut c = Counters::new();
    let mut add = |key: &str, v: u64| *c.entry(key.to_string()).or_insert(0.0) += v as f64;
    for mux in &stack.muxes {
        let s = mux.stats().snapshot();
        add("mux.reads", s.reads);
        add("mux.writes", s.writes);
        add("mux.dispatches", s.dispatches);
        add("mux.splits", s.split_reads + s.split_writes);
        add("mux.io_retries", s.io_retries);
        add("mux.io_errors", s.io_errors);
        add("fastpath.hits", s.fastpath_hits);
        add("fastpath.fallbacks", s.fastpath_fallbacks);
        add("fastpath.invalidations", s.fastpath_invalidations);
        add("integrity.corruptions_detected", s.corruptions_detected);
        add("autotier.promotions", s.auto_promotions);
        add("autotier.demotions", s.auto_demotions);
        add("autotier.mirrors_created", s.mirrors_created);
        add("autotier.mirrors_retired", s.mirrors_retired);
        add("autotier.mirror_reads_fast", s.mirror_reads_fast);
        add("autotier.lazy_resyncs", s.lazy_resyncs);
        add("autotier.throttled_bytes", s.throttled_bytes);
        add("autotier.planner_vetoes", s.planner_vetoes);
        let (migrations, _conflicts, retries, _fallbacks, blocks) = mux.occ_stats().snapshot();
        add("occ.blocks_migrated", blocks);
        add("occ.commits", migrations - mux.occ_stats().aborts());
        add("occ.aborts", mux.occ_stats().aborts());
        add("occ.retries", retries);
        add("occ.lock_hold_virt_ns", mux.occ_stats().lock_hold_vns());
        add("trace.events_recorded", mux.trace().recorded());
        add("trace.events_dropped", mux.trace().dropped());
        add("sched.total_retries", mux.scheduler().total_retries());
    }
    for (kind, dev, _) in &stack.tiers {
        let s = dev.stats().snapshot();
        let class = DEV_CLASSES[kind.index()];
        add(&format!("simdev.{class}.reads"), s.reads);
        add(&format!("simdev.{class}.writes"), s.writes);
        add(&format!("simdev.{class}.flushes"), s.flushes);
        add(&format!("simdev.{class}.bytes_written"), s.bytes_written);
        add(&format!("simdev.{class}.busy_ns"), s.busy_ns);
        add(&format!("simdev.{class}.seeks"), s.seeks);
    }
    if let Some(cluster) = &stack.cluster {
        let s = cluster.stats().snapshot();
        add("cluster.routed_local", s.routed_local);
        add("cluster.routed_remote", s.routed_remote);
        add("cluster.rpc_failures", s.rpc_failures);
        let mut busiest = 0;
        for link in cluster.link_reports() {
            add("netfs.link_msgs", link.stats.messages());
            add("netfs.link_bytes", link.stats.bytes());
            busiest = busiest.max(link.busy_ns);
        }
        add("netfs.link_busy_ns_max", busiest);
    }
    c
}

/// `end - start`, key by key (keys absent at the start count from zero).
pub fn delta(end: &Counters, start: &Counters) -> Counters {
    end.iter()
        .map(|(k, v)| (k.clone(), v - start.get(k).copied().unwrap_or(0.0)))
        .collect()
}
