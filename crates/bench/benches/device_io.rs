//! Criterion: core data structures on the hot paths — Block Lookup Table
//! operations and MGLRU maintenance (the constant factors behind every
//! Figure 3b dispatch).

use criterion::{criterion_group, criterion_main, Criterion};
use mux::mglru::Mglru;
use mux::BlockLookupTable;

fn bench_blt(c: &mut Criterion) {
    let mut g = c.benchmark_group("blt");
    // A realistically fragmented table: 1024 extents over 64k blocks.
    let mut blt = BlockLookupTable::new();
    for i in 0..1024u64 {
        blt.assign(i * 64, 48, (i % 3) as u32);
    }
    g.bench_function("lookup_fragmented", |b| {
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + 977) % (1024 * 64);
            criterion::black_box(blt.tier_of(pos));
        })
    });
    g.bench_function("plan_64_blocks", |b| {
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + 977) % (1024 * 64 - 64);
            criterion::black_box(blt.plan(pos, 64));
        })
    });
    g.bench_function("assign_and_coalesce", |b| {
        let mut t = BlockLookupTable::new();
        let mut i = 0u64;
        b.iter(|| {
            t.assign(i % 4096, 4, ((i / 4096) % 3) as u32);
            i += 4;
        })
    });
    g.bench_function("bytemap_encode_64k_blocks", |b| {
        b.iter(|| criterion::black_box(blt.encode_bytemap()))
    });
    g.finish();
}

fn bench_mglru(c: &mut Criterion) {
    let mut g = c.benchmark_group("mglru");
    g.bench_function("touch_insert_evict_cycle", |b| {
        let mut m: Mglru<u64> = Mglru::new(4, 256);
        for k in 0..4096u64 {
            m.insert(k);
        }
        let mut k = 0u64;
        b.iter(|| {
            m.touch(&(k % 4096));
            m.insert(4096 + k);
            m.evict();
            k += 1;
        })
    });
    // Bounded bookkeeping: a touch costs the same however many came before.
    g.bench_function("touch_after_1m_touches", |b| {
        let mut m: Mglru<u64> = Mglru::new(4, 64);
        for k in 0..64u64 {
            m.insert(k);
        }
        for k in 0..1_000_000u64 {
            m.touch(&(k.wrapping_mul(2_654_435_761) % 64));
        }
        let mut k = 0u64;
        b.iter(|| {
            criterion::black_box(m.touch(&(k % 64)));
            k += 1;
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_blt, bench_mglru
}
criterion_main!(benches);
