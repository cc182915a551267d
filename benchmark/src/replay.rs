//! Layer replay: standalone instances of a layer's public type driven by
//! the workload's own key stream and timed on the host clock, in batches
//! of 64 calls so the timer's cost is spread thin. These are the numbers
//! that say what one call of a layer costs when nothing else is in the way.

use std::hint::black_box;
use std::time::Instant;

use mux::autotier::HeatMap;
use mux::hist::LatencyHistogram;
use mux::mglru::Mglru;
use mux::sched::IoRequest;
use mux::trace::DEFAULT_TRACE_CAPACITY;
use mux::{
    crc32c, AutotierConfig, BlockLookupTable, ChecksumTable, FastPath, FastPathConfig, IoScheduler,
    OpKind, ShardedMap, TraceBuffer, TraceEventKind,
};
use netfs::{LinkDir, LinkProfile, SimLink};
use simdev::VirtualClock;

use crate::harness::Touch;
use crate::oracle::{self, BLOCK};
use crate::workloads::Extras;

const BATCH: usize = 64;

/// Mean wall ns per call of `f` over `items`, timed per batch.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = 0u128;
    for batch in items.chunks(BATCH) {
        let t0 = Instant::now();
        for item in batch {
            f(item);
        }
        total += t0.elapsed().as_nanos();
    }
    total as f64 / items.len().max(1) as f64
}

/// Replays `touches` (the head of the measured key stream) through each
/// layer. `placement` is the first file's `(block, n_blocks, tier)`
/// extents at the end of the run.
pub fn run(touches: &[Touch], placement: &[(u64, u64, u32)], out: &mut Extras) {
    if touches.is_empty() {
        return;
    }
    let tenth = (touches.len() / 10).max(1);
    let (first, last) = (&touches[..tenth], &touches[touches.len() - tenth..]);

    let fp = FastPath::new(FastPathConfig::default().slots);
    let epoch = fp.epoch();
    out.insert(
        "fastpath.insert_wall_ns",
        per_call(touches, |t| {
            fp.insert(t.ino, t.block, 0, t.ino, u64::MAX, 0, false, epoch, 0)
        }),
    );
    out.insert(
        "fastpath.lookup_wall_ns",
        per_call(touches, |t| {
            black_box(fp.lookup(t.ino, t.block));
        }),
    );
    out.insert(
        "fastpath.invalidate_wall_ns",
        per_call(touches, |t| {
            black_box(fp.invalidate(t.ino, t.block));
        }),
    );

    let mut blt = BlockLookupTable::new();
    for &(block, n, tier) in placement {
        blt.assign(block, n, tier);
    }
    out.insert(
        "blt.plan_wall_ns",
        per_call(touches, |t| {
            black_box(blt.plan(t.block, t.n_blocks));
        }),
    );

    let mut page = vec![0u8; BLOCK as usize];
    oracle::content(1, 1, 1, 0, &mut page);
    out.insert(
        "integrity.crc32c_wall_ns_per_block",
        per_call(&touches[..touches.len().min(1 << 13)], |_| {
            black_box(crc32c(black_box(&page)));
        }),
    );
    let mut table = ChecksumTable::new();
    out.insert(
        "integrity.table_wall_ns",
        per_call(touches, |t| {
            table.record(t.block, t.block as u32);
            black_box(table.verify(t.block, t.block as u32));
        }),
    );

    // Heat and recency over the whole stream; the first and last tenth are
    // timed. A bounded layer gives last == first.
    let generations = AutotierConfig::default().recency_generations;
    let heat = HeatMap::new(generations);
    let mid = &touches[tenth..touches.len() - tenth];
    let record = |t: &Touch| heat.record(t.ino, t.n_blocks, t.write);
    out.insert(
        "autotier.heat_record_wall_ns_first",
        per_call(first, record),
    );
    mid.iter().for_each(record);
    out.insert("autotier.heat_record_wall_ns_last", per_call(last, record));
    let mut lru: Mglru<u64> = Mglru::new(generations, 64);
    for t in &touches[..touches.len() - tenth] {
        if lru.generation(&t.ino).is_some() {
            lru.touch(&t.ino);
        } else {
            lru.insert(t.ino);
        }
    }
    out.insert(
        "mglru.touch_wall_ns_last",
        per_call(last, |t| {
            if lru.generation(&t.ino).is_some() {
                lru.touch(&t.ino);
            } else {
                lru.insert(t.ino);
            }
        }),
    );

    let hist = LatencyHistogram::new();
    out.insert(
        "hist.record_wall_ns",
        per_call(touches, |t| hist.record(t.block.wrapping_mul(97) % 100_000)),
    );
    let trace = TraceBuffer::new(DEFAULT_TRACE_CAPACITY);
    out.insert(
        "trace.push_wall_ns",
        per_call(touches, |t| {
            trace.push(
                t.block,
                TraceEventKind::Dispatch {
                    op: OpKind::MuxRead,
                },
                0,
                t.ino,
                t.block * BLOCK,
                BLOCK,
            )
        }),
    );
    let shard: ShardedMap<u64, u64> = ShardedMap::new();
    for t in touches {
        shard.insert(t.ino, t.block);
    }
    out.insert(
        "shard.view_wall_ns",
        per_call(touches, |t| {
            black_box(shard.view(&t.ino, |v| *v));
        }),
    );

    let sched = IoScheduler::new();
    let profile = simdev::nvme_ssd();
    let mut total = 0u128;
    for batch in touches.chunks(BATCH) {
        let t0 = Instant::now();
        for t in batch {
            sched.submit(
                0,
                IoRequest {
                    ino: t.ino,
                    off: t.block * BLOCK,
                    len: t.n_blocks * BLOCK,
                    write: t.write,
                    tenant: 0,
                },
            );
        }
        black_box(sched.drain(0, &profile));
        total += t0.elapsed().as_nanos();
    }
    out.insert(
        "sched.submit_drain_wall_ns",
        total as f64 / touches.len() as f64,
    );

    let link = SimLink::new(LinkProfile::datacenter(), VirtualClock::new());
    out.insert(
        "netfs.transfer_wall_ns",
        per_call(touches, |t| {
            black_box(link.transfer(LinkDir::Request, t.n_blocks * BLOCK).is_ok());
        }),
    );
}
