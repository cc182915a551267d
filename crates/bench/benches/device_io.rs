//! Criterion: core data structures on the hot paths — Block Lookup Table
//! operations and MGLRU maintenance (the constant factors behind every
//! Figure 3b dispatch), the native file systems' page cache, the
//! CRC-32C every dispatch-path block is verified with, the extent tree
//! behind novafs's copy-on-write overwrite, and the simulated media under
//! every native file system.

use criterion::{criterion_group, criterion_main, Criterion};
use mux::mglru::Mglru;
use mux::{crc32c, BlockLookupTable};
use novafs::{NovaFs, NovaOptions, PAGE};
use simdev::{pmem, Device, DeviceConfig, VirtualClock};
use tvfs::{FileSystem, FileType, Linear, PageCache, RangeMap, ROOT_INO};

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

fn bench_integrity(c: &mut Criterion) {
    let mut g = c.benchmark_group("integrity");
    let data: Vec<u8> = (0..64 << 10)
        .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    // One block, as every read verifies it.
    g.bench_function("crc32c_4k", |b| {
        b.iter(|| crc32c(criterion::black_box(&data[..4096])))
    });
    // The streaming rate: a 64 KiB read's sixteen blocks in one call.
    g.bench_function("crc32c_64k", |b| {
        b.iter(|| crc32c(criterion::black_box(&data)))
    });
    g.finish();
}

/// A step of a fixed-stride walk over `n` slots that visits every one.
fn next_slot(k: &mut u64, n: u64) -> u64 {
    *k = (*k + 2_654_435_761) % n;
    *k
}

fn bench_extent_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("extent_tree");
    // A file fragmented to single pages: 16 384 one-page extents whose
    // device pages never run on. Each iteration re-maps one page to a
    // fresh device page and collects what it displaced, as a
    // copy-on-write overwrite does.
    g.bench_function("replace_1_of_16k_single_page_extents", |b| {
        const N: u64 = 16_384;
        let mut m: RangeMap<Linear> = RangeMap::new();
        for p in 0..N {
            m.insert(p, 1, Linear(2 * p));
        }
        let (mut k, mut fresh) = (0, 1 << 40);
        b.iter(|| {
            let mut freed = 0;
            fresh += 2;
            m.replace(next_slot(&mut k, N), 1, Linear(fresh), |e| freed += e.len);
            freed
        })
    });
    // A random 4 KiB novafs overwrite of a 64 MiB file that random
    // overwrites have already fragmented to about as many extents as pages.
    g.bench_function("novafs_overwrite_4k_fragmented_64m", |b| {
        const PAGES: u64 = (64 << 20) / PAGE;
        let dev = Device::new(
            DeviceConfig {
                profile: pmem(),
                capacity: 128 << 20,
                track_durability: false,
            },
            VirtualClock::new(),
        );
        let fs = NovaFs::format(dev, NovaOptions::default()).unwrap();
        let f = fs.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        let chunk = vec![0x5A; 1 << 20];
        for mb in 0..64 {
            fs.write(f.ino, mb << 20, &chunk).unwrap();
        }
        let page = vec![0xA5; PAGE as usize];
        let mut k = 0;
        for _ in 0..PAGES {
            fs.write(f.ino, next_slot(&mut k, PAGES) * PAGE, &page)
                .unwrap();
        }
        b.iter(|| {
            fs.write(f.ino, next_slot(&mut k, PAGES) * PAGE, &page)
                .unwrap()
        })
    });
    g.finish();
}

/// A 64 MiB PM device written page by page and flushed, as the preload of
/// a 64 MiB novafs file leaves it.
fn written_pm(track_durability: bool) -> Device {
    let dev = Device::new(
        DeviceConfig {
            profile: pmem(),
            capacity: 64 << 20,
            track_durability,
        },
        VirtualClock::new(),
    );
    let page = vec![0x5A; PAGE as usize];
    for p in 0..(64 << 20) / PAGE {
        dev.write(p * PAGE, &page).unwrap();
    }
    dev.flush();
    dev
}

fn bench_simdev(c: &mut Criterion) {
    const PAGES: u64 = (64 << 20) / PAGE;
    let mut g = c.benchmark_group("simdev");
    let dev = written_pm(false);
    // A random aligned 64 KiB read done the way novafs does it: one 4 KiB
    // device read per page.
    g.bench_function("read_64k_as_16_pages", |b| {
        let mut out = vec![0; 64 << 10];
        let mut k = 0;
        b.iter(|| {
            let first = next_slot(&mut k, PAGES / 16) * 16;
            for (i, chunk) in out.chunks_mut(PAGE as usize).enumerate() {
                dev.read((first + i as u64) * PAGE, chunk).unwrap();
            }
            out[0]
        })
    });
    g.bench_function("read_1b_random", |b| {
        let mut out = [0; 1];
        let mut k = 0;
        b.iter(|| {
            dev.read(next_slot(&mut k, 64 << 20), &mut out).unwrap();
            out[0]
        })
    });
    // A tracked 4 KiB overwrite made durable at once: the write, its undo
    // record, and the barrier that drops the record.
    let tracked = written_pm(true);
    g.bench_function("write_4k_then_flush_range", |b| {
        let page = vec![0xA5; PAGE as usize];
        let mut k = 0;
        b.iter(|| {
            let off = next_slot(&mut k, PAGES) * PAGE;
            tracked.write(off, &page).unwrap();
            tracked.flush_range(off, PAGE)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_blt, bench_mglru, bench_page_cache, bench_integrity, bench_extent_tree, bench_simdev
}
criterion_main!(benches);
