//! Criterion: core data structures on the hot paths — Block Lookup Table
//! operations and MGLRU maintenance (the constant factors behind every
//! Figure 3b dispatch), and the native file systems' page cache.

use criterion::{criterion_group, criterion_main, Criterion};
use mux::mglru::Mglru;
use mux::BlockLookupTable;
use tvfs::PageCache;

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

/// A full 64 MiB cache of 4 KiB pages (xefs's and e4fs's default): 16 384
/// pages of 4-page files, inodes `1..=4096`, the first `dirty` files
/// written oldest and left dirty. The calls below touch one file, so their
/// cost must not grow with what else is resident.
fn full_cache(dirty: u64) -> PageCache {
    const PAGE: usize = 4096;
    let mut cache = PageCache::new(16_384 * PAGE as u64, PAGE);
    for ino in 1..=4096u64 {
        for pg in 0..4 {
            if ino <= dirty {
                cache.update_dirty(ino, pg, || vec![0; PAGE], |d| d[0] = 1);
            } else {
                cache.insert_clean(ino, pg, vec![ino as u8; PAGE]);
            }
        }
    }
    cache
}

fn bench_page_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    // What writeback does to the cache for a 4-page file, re-dirtied first.
    g.bench_function("take_dirty_4_pages", |b| {
        let mut cache = full_cache(0);
        b.iter(|| {
            for pg in 0..4 {
                cache.update_dirty(7, pg, Vec::new, |d| d[0] ^= 1);
            }
            let pages = cache.dirty_page_list(7);
            cache.mark_clean(7);
            pages
        })
    });
    // A hit on a random page: the copy `dram_copy_ns` stands for.
    g.bench_function("get_4k_hit", |b| {
        let mut cache = full_cache(0);
        let mut out = vec![0; 4096];
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 2_654_435_761) % 16_384;
            cache.get(1 + k / 4, k % 4, 0, &mut out)
        })
    });
    // Unlink of a 4-page file, read back in first.
    g.bench_function("invalidate_one_inode", |b| {
        let mut cache = full_cache(0);
        b.iter(|| {
            for pg in 0..4 {
                cache.insert_clean(7, pg, vec![7; 4096]);
            }
            cache.invalidate(7, ..);
        })
    });
    // A miss into the full cache when its 4 096 oldest pages are pinned
    // dirty: each insert evicts the oldest clean page, behind all of them.
    g.bench_function("insert_clean_behind_4096_dirty", |b| {
        let mut cache = full_cache(1024);
        let mut ino = 1 << 20;
        b.iter(|| {
            cache.insert_clean(ino, 0, vec![1; 4096]);
            ino += 1;
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_blt, bench_mglru, bench_page_cache
}
criterion_main!(benches);
