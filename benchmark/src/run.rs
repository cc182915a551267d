//! One workload, one process. A repetition builds the workload on a fresh
//! stack (that is `setup_s`), runs its fixed measured phase and checks
//! every byte; repetitions continue until `--seconds` of measured time
//! have passed, and each metric is the median over the repetitions.
//!
//! `--trace 0` measures the end-to-end metrics with no wrappers installed.
//! `--trace 1` runs every repetition three ways from the same seed, one
//! after another: bare, with spans in place, and the native twin; then the
//! layer replay; and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::counters::{self, Counters};
use crate::harness::{median, rss_mib, timer_wall_ns, Recorder, KINDS};
use crate::replay;
use crate::span::{AggSnapshot, Tracer, FS_KINDS, P_ON_ACCESS, P_PLACE, P_PLAN};
use crate::stack::DEV_CLASSES;
use crate::workloads::{build, Extras, Target};

/// Spans kept whole for `out/trace_<workload>.jsonl`; totals cover all.
const SPAN_CAP: usize = 1 << 18;

/// `setup_s` is the median of at least this many set-ups, also where one
/// long repetition fills the `--seconds` window alone (`varmail`).
const MIN_SETUPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Repeat until this much measured wall time has passed (the driver's
    /// form).
    Seconds(f64),
    /// A fixed number of repetitions.
    Reps(usize),
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub until: Until,
    pub trace: bool,
    /// Divides the op count of the measured phase (`--quick`: 20).
    pub shrink: u32,
    /// `selftest`: flip one expected byte in the first measured phase.
    pub flip_one: bool,
}

pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Metrics,
}

pub type Metrics = BTreeMap<String, f64>;

/// What a traced pass reads off the layers when the measured phase ends,
/// before the checks add their own calls and counts.
struct Observed {
    counters: Counters,
    /// `(block, n_blocks, tier)` extents of every file (single-Mux stacks).
    placements: Vec<Vec<(u64, u64, u32)>>,
    /// Per native file system kind: span totals and fsync count.
    fs: Vec<(AggSnapshot, u64)>,
    place: AggSnapshot,
    on_access: AggSnapshot,
    plan: AggSnapshot,
}

/// One finished pass: the workload built, measured, checked and dropped.
struct Pass {
    rec: Recorder,
    /// Wall seconds to build the stack, preload and warm.
    setup_s: f64,
    space_amp: f64,
    rss_growth_mib: f64,
    extras: Extras,
    observed: Option<Observed>,
}

/// Builds, measures and checks one pass.
fn pass(a: &RunArgs, target: Target, tracer: Option<&Arc<Tracer>>, flip_one: bool) -> Option<Pass> {
    let t0 = Instant::now();
    let mut w = build(
        &a.workload,
        a.seed,
        target,
        tracer.cloned(),
        a.shrink.max(1),
    )?;
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.reset();
    }
    w.client().model.flip_next = flip_one;
    let before = tracer.map(|_| counters::snapshot(&w.client().stack));
    let rss0 = rss_mib().1;
    w.client().rec.start_measuring();
    w.measured();
    w.client().rec.stop_measuring();
    let rss_growth_mib = rss_mib().1 - rss0;
    let c = w.client();
    let observed = tracer.zip(before).map(|(t, before)| Observed {
        counters: counters::delta(&counters::snapshot(&c.stack), &before),
        placements: match c.stack.muxes.first().filter(|_| c.stack.cluster.is_none()) {
            Some(mux) => c
                .inos
                .iter()
                .filter_map(|&ino| mux.file_placement(ino).ok())
                .collect(),
            None => Vec::new(),
        },
        fs: (0..FS_KINDS.len()).map(|k| t.fs_totals(k)).collect(),
        place: t.policy_totals(P_PLACE),
        on_access: t.policy_totals(P_ON_ACCESS),
        plan: t.policy_totals(P_PLAN),
    });
    // Σ tier `statfs` used bytes over live user bytes.
    let used: u64 = c
        .stack
        .tiers
        .iter()
        .map(|(_, _, fs)| fs.statfs().map_or(0, |s| s.used_bytes()))
        .sum();
    let space_amp = used as f64 / c.model.live_bytes().max(1) as f64;
    let mut extras = Extras::new();
    w.finish(&mut extras);
    Some(Pass {
        rec: std::mem::take(&mut w.client().rec),
        setup_s,
        space_amp,
        rss_growth_mib,
        extras,
        observed,
    })
}

/// Per-key median over the repetitions' metric maps.
fn medians(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for key in reps.iter().flat_map(|m| m.keys()) {
        if !out.contains_key(key) {
            let mut vals: Vec<f64> = reps.iter().filter_map(|m| m.get(key).copied()).collect();
            out.insert(key.clone(), median(&mut vals));
        }
    }
    out
}

pub fn run(a: &RunArgs, out_dir: &Path) -> Output {
    let tracer = a.trace.then(|| Tracer::new(SPAN_CAP));
    let mut reps: Vec<Metrics> = Vec::new();
    let (mut attempted, mut failed, mut measured_ns) = (0, 0, 0u64);
    let mut correct = true;
    let mut last_traced: Option<Pass> = None;
    loop {
        let flip = a.flip_one && reps.is_empty();
        let mut m = Metrics::new();
        // Every pass of this repetition; the traced one, if any, second.
        let mut passes = vec![pass(a, Target::Mux, None, flip)
            .unwrap_or_else(|| panic!("unknown workload {}", a.workload))];
        if let Some(tracer) = &tracer {
            let traced = pass(a, Target::Mux, Some(tracer), false)
                .expect("the bare pass of this workload was built");
            let twin = pass(a, Target::Native, None, false);
            per_layer(a, &passes[0], &traced, twin.as_ref(), &mut m);
            correct &= traced.rec.span_overruns == 0;
            measured_ns += traced.rec.measured_wall_ns();
            passes.push(traced);
            passes.extend(twin);
        } else {
            let bare = &passes[0];
            m.insert("setup_s".into(), bare.setup_s);
            m.insert("virt_ns_per_op".into(), bare.rec.virt_ns_per_op());
            m.insert("virt_p99_ns".into(), bare.rec.summary.virt_p99);
            m.insert("space_amp".into(), bare.space_amp);
            host_times(&bare.rec, &mut m);
        }
        measured_ns += passes[0].rec.measured_wall_ns();
        attempted += passes.iter().map(|p| p.rec.attempted).sum::<u64>();
        failed += passes.iter().map(|p| p.rec.failed).sum::<u64>();
        if tracer.is_some() {
            last_traced = Some(passes.swap_remove(1));
        }
        reps.push(m);
        let stop = match a.until {
            Until::Seconds(s) => measured_ns as f64 / 1e9 >= s,
            Until::Reps(n) => reps.len() >= n,
        };
        if stop {
            break;
        }
    }
    let repetitions = reps.len();
    // Set-ups without a measured phase, until `setup_s` has MIN_SETUPS samples.
    if let (false, Until::Seconds(_)) = (a.trace, a.until) {
        while reps.len() < MIN_SETUPS {
            let t0 = Instant::now();
            let mut w = build(&a.workload, a.seed, Target::Mux, None, a.shrink.max(1))
                .expect("this workload was built before");
            let setup_s = t0.elapsed().as_secs_f64();
            attempted += w.client().rec.attempted;
            failed += w.client().rec.failed;
            reps.push(Metrics::from([("setup_s".to_string(), setup_s)]));
        }
    }
    let mut metrics = medians(&reps);
    if let (Some(tracer), Some(traced)) = (&tracer, &last_traced) {
        // Once per run, from the last repetition: the layer replay over its
        // key stream, and its spans written out.
        let whole_file = vec![(0, u64::MAX >> 16, 0)];
        let placement = traced
            .observed
            .as_ref()
            .and_then(|o| o.placements.first())
            .unwrap_or(&whole_file);
        let mut extras = Extras::new();
        replay::run(&traced.rec.touches, placement, &mut extras);
        metrics.extend(extras.into_iter().map(|(k, v)| (k.to_string(), v)));
        metrics.insert("workloads.timer_wall_ns".into(), timer_wall_ns());
        let written = std::fs::create_dir_all(out_dir).and_then(|()| {
            tracer.write_jsonl(&out_dir.join(format!("trace_{}.jsonl", a.workload)))
        });
        if let Err(e) = written {
            eprintln!("muxbench: could not write the span file: {e}");
            correct = false;
        }
    }
    metrics.insert("peak_rss_mib".into(), rss_mib().0);
    metrics.insert("fail_frac".into(), failed as f64 / attempted.max(1) as f64);
    eprintln!(
        "muxbench: {} seed {}: {} repetition(s), {:.2} s measured",
        a.workload,
        a.seed,
        repetitions,
        measured_ns as f64 / 1e9
    );
    Output {
        attempted,
        failed,
        correct: correct && failed == 0,
        metrics,
    }
}

/// Host times of one bare measured phase: `wall_*` as measured, the
/// host-speed factor of that phase, and `refwall_*`, the same times at the
/// reference host speed (see probe.rs).
fn host_times(rec: &Recorder, m: &mut Metrics) {
    let f = rec.probe.factor();
    m.insert("workloads.host_speed_factor".into(), f);
    for (name, value, is_rate) in [
        ("wall_ops_per_s", rec.wall_ops_per_s(), true),
        ("wall_p50_ns", rec.summary.wall_p50, false),
        ("wall_p99_ns", rec.summary.wall_p99, false),
    ] {
        m.insert(name.into(), value);
        m.insert(
            format!("ref{name}"),
            if is_rate { value * f } else { value / f },
        );
    }
}

/// `num / den`, or nothing where the denominator is zero: the metric is
/// undefined for this workload and is left out, never zero-filled.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Every per-layer metric one repetition can give: host-time numbers that
/// need no spans from the bare pass, self times, calls and counters from
/// the traced pass, the floor from the native twin. A metric that is
/// undefined for the workload (no twin, no ticks, no such tier, no such op
/// kind) is not inserted.
fn per_layer(a: &RunArgs, bare: &Pass, traced: &Pass, twin: Option<&Pass>, m: &mut Metrics) {
    let p = &bare.rec;
    host_times(p, m);
    let mut put = |k: &str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(k.to_string(), v);
        }
    };
    put("mux.rss_growth_mib", Some(bare.rss_growth_mib));
    put("mux.wall_growth_ratio", Some(p.summary.growth_ratio));
    if !p.tick_moved.is_empty() {
        put("mux.tick_wall_ms", Some(p.tick_wall_ns as f64 / 1e6));
        put(
            "mux.tick_wall_max_us",
            Some(p.tick_wall_max_ns as f64 / 1e3),
        );
        put("mux.tick_virt_ms", Some(p.tick_virt_ns as f64 / 1e6));
        let half = p.tick_moved.len() / 2;
        let early: u64 = p.tick_moved[..half].iter().sum();
        let late: u64 = p.tick_moved[p.tick_moved.len() - half..].iter().sum();
        put(
            "autotier.ticks_moving",
            Some(p.tick_moved.iter().filter(|&&b| b > 0).count() as f64),
        );
        put(
            "autotier.moved_late_over_early",
            ratio(late as f64, early as f64),
        );
    }
    for (k, kind) in KINDS.iter().enumerate() {
        let (n, wall_p50, virt) = p.summary.kinds[k];
        if n > 0 {
            put(&format!("tvfs.{kind}_wall_p50_ns"), Some(wall_p50));
            put(
                &format!("tvfs.{kind}_virt_ns"),
                ratio(virt as f64, n as f64),
            );
        }
    }

    let o = traced
        .observed
        .as_ref()
        .expect("a pass with a tracer observes the layers");
    // A counter the stack does not have (no cluster, no such device class)
    // is absent from the snapshot, and so is its metric.
    let get = |k: &str| o.counters.get(k).copied();
    let count = |k: &str| get(k).unwrap_or(0.0);
    if get("cluster.routed_local").is_some() {
        for (i, side) in ["local", "remote"].iter().enumerate() {
            let s = p.by_owner[i];
            put(
                &format!("cluster.{side}_wall_ns_per_op"),
                ratio(s.wall_ns as f64, s.n as f64),
            );
            put(
                &format!("cluster.{side}_virt_ns_per_op"),
                ratio(s.virt_ns as f64, s.n as f64),
            );
        }
    }
    let t = &traced.rec;
    let ops = t.summary.ops as f64;
    put("mux.self_wall_ns_per_op", Some(t.self_wall_ns as f64 / ops));
    put("mux.self_virt_ns_per_op", Some(t.self_virt_ns as f64 / ops));
    let native_calls: u64 = o.fs.iter().map(|(s, _)| s.calls).sum();
    let native_bytes: u64 = o.fs.iter().map(|(s, _)| s.bytes).sum();
    put("mux.native_calls_per_op", Some(native_calls as f64 / ops));
    put(
        "mux.native_bytes_per_user_byte",
        ratio(native_bytes as f64, t.user_bytes as f64),
    );
    put("mux.dispatches_per_op", Some(count("mux.dispatches") / ops));
    put(
        "mux.split_frac",
        ratio(
            count("mux.splits"),
            count("mux.reads") + count("mux.writes"),
        ),
    );
    for (k, kind) in FS_KINDS.iter().enumerate() {
        let (s, fsyncs) = o.fs[k];
        if get(&format!("simdev.{}.reads", DEV_CLASSES[k])).is_none() {
            continue;
        }
        put(&format!("{kind}.calls_per_op"), Some(s.calls as f64 / ops));
        put(
            &format!("{kind}.wall_ns_per_call"),
            ratio(s.wall_ns as f64, s.calls as f64),
        );
        put(
            &format!("{kind}.virt_ns_per_call"),
            ratio(s.virt_ns as f64, s.calls as f64),
        );
        put(&format!("{kind}.fsyncs"), Some(fsyncs as f64));
    }
    put(
        "policy.on_access_wall_ns",
        ratio(o.on_access.wall_ns as f64, o.on_access.calls as f64),
    );
    put(
        "policy.on_access_calls_per_op",
        Some(o.on_access.calls as f64 / ops),
    );
    put(
        "policy.place_wall_ns",
        ratio(o.place.wall_ns as f64, o.place.calls as f64),
    );
    if o.plan.calls > 0 {
        put("policy.plan_wall_ms", Some(o.plan.wall_ns as f64 / 1e6));
    }
    put(
        "fastpath.hit_rate",
        ratio(
            count("fastpath.hits"),
            count("fastpath.hits") + count("fastpath.fallbacks"),
        ),
    );
    for key in [
        "mux.io_retries",
        "mux.io_errors",
        "fastpath.fallbacks",
        "fastpath.invalidations",
        "integrity.corruptions_detected",
        "autotier.promotions",
        "autotier.demotions",
        "autotier.mirrors_created",
        "autotier.mirrors_retired",
        "autotier.mirror_reads_fast",
        "autotier.lazy_resyncs",
        "autotier.throttled_bytes",
        "autotier.planner_vetoes",
        "occ.blocks_migrated",
        "occ.commits",
        "occ.aborts",
        "occ.retries",
        "occ.lock_hold_virt_ns",
        "trace.events_recorded",
        "trace.events_dropped",
        "sched.total_retries",
        "cluster.rpc_failures",
        "simdev.hdd.seeks",
    ] {
        put(key, get(key));
    }
    let mut device_bytes_written = 0.0;
    for class in DEV_CLASSES {
        for field in ["reads", "writes", "flushes", "bytes_written"] {
            let key = format!("simdev.{class}.{field}");
            put(&key, get(&key));
        }
        device_bytes_written += count(&format!("simdev.{class}.bytes_written"));
        put(
            &format!("simdev.{class}.busy_virt_ms"),
            get(&format!("simdev.{class}.busy_ns")).map(|ns| ns / 1e6),
        );
    }
    let remote_ops = count("cluster.routed_remote");
    put(
        "cluster.remote_frac",
        ratio(remote_ops, remote_ops + count("cluster.routed_local")),
    );
    put(
        "netfs.link_msgs_per_remote_op",
        ratio(count("netfs.link_msgs"), remote_ops),
    );
    put(
        "netfs.link_bytes_per_remote_op",
        ratio(count("netfs.link_bytes"), remote_ops),
    );
    put(
        "netfs.link_busy_virt_ms_max",
        get("netfs.link_busy_ns_max").map(|ns| ns / 1e6),
    );
    put(
        "blt.segments_per_file",
        ratio(
            o.placements.iter().map(|p| p.len() as f64).sum(),
            o.placements.len() as f64,
        ),
    );
    // Model-time and space metrics of the end-to-end list, repeated here so
    // a traced run carries every number that must repeat exactly.
    put("virt_ns_per_op", Some(t.virt_ns_per_op()));
    put("space_amp", Some(traced.space_amp));
    put("virt_p99_ns", Some(t.summary.virt_p99));
    put(
        "write_amp",
        ratio(device_bytes_written, t.user_bytes_written as f64),
    );
    // Both passes did the same ops, seconds apart: the ratio of their
    // times, each at the reference host speed, is what the spans cost.
    put(
        "workloads.trace_overhead_pct",
        ratio(
            t.measured_wall_ns() as f64 / t.probe.factor(),
            p.measured_wall_ns() as f64 / p.probe.factor(),
        )
        .map(|r| (r - 1.0) * 100.0),
    );
    for key in [
        "persist.recover_wall_ms",
        "persist.lost_acked_bytes",
        "persist.snapshot_wall_ms",
        "recover_virt_ms",
        "occ.migrate_wall_us_per_mib",
        "occ.migrate_virt_us_per_mib",
    ] {
        put(key, traced.extras.get(key).copied());
    }
    eprintln!(
        "muxbench: {}: {ops} ops; self + child spans {:.1} ns/op, traced op {:.1} ns/op, bare op {:.1} ns/op",
        a.workload,
        (t.self_wall_ns + t.child_wall_ns) as f64 / ops,
        t.summary.op_wall_ns as f64 / ops,
        p.summary.op_wall_ns as f64 / p.summary.ops.max(1) as f64,
    );

    if let Some(n) = twin.map(|t| &t.rec) {
        put(
            "native.wall_ns_per_op",
            ratio(n.summary.op_wall_ns as f64, n.summary.ops as f64),
        );
        put("native.wall_p50_ns", Some(n.summary.wall_p50));
        put("native.virt_ns_per_op", Some(n.virt_ns_per_op()));
        put("native.virt_p99_ns", Some(n.summary.virt_p99));
        put(
            "virt_overhead_pct",
            ratio(t.virt_ns_per_op(), n.virt_ns_per_op()).map(|r| (r - 1.0) * 100.0),
        );
    }
}
