//! A DRAM page cache with LRU eviction and dirty-page pinning.
//!
//! Linux keeps the page cache in the VFS layer; block-device file systems
//! (`xefs`, `e4fs`) use this one. `novafs` does not — NOVA's DAX path reads
//! persistent memory directly, one of the device-specific behaviours the
//! paper's evaluation depends on (§3.2: the relative Mux overhead differs
//! per tier largely because the *base* read path differs).
//!
//! Clean pages are evicted LRU-first; dirty pages are pinned until the
//! owning file system writes them back.
//!
//! Every call costs what it touches, not what is resident: pages live in
//! one ordered map per inode, a set names the inodes that own dirty pages,
//! and the LRU holds clean pages only, so the eviction victim is always its
//! first entry.

use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap};
use std::ops::RangeBounds;

use simdev::Device;

use crate::{InodeNo, VfsResult};

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Clean pages evicted.
    pub evictions: u64,
}

struct Page {
    data: Box<[u8]>,
    /// Recency: a clean page's key in the LRU.
    stamp: u64,
}

/// One inode's resident pages.
#[derive(Default)]
struct InodePages {
    pages: BTreeMap<u64, Page>,
    /// The dirty subset of `pages`.
    dirty: BTreeSet<u64>,
}

/// An LRU page cache keyed by `(inode, page index)`.
pub struct PageCache {
    page_size: usize,
    capacity_pages: usize,
    inodes: HashMap<InodeNo, InodePages>,
    /// Clean pages by stamp, oldest first. Dirty pages are pinned and so
    /// absent: a page is in here exactly when it is resident and clean.
    lru: BTreeMap<u64, (InodeNo, u64)>,
    /// Inodes whose dirty set is non-empty.
    dirty_inodes: BTreeSet<InodeNo>,
    next_stamp: u64,
    stats: CacheStats,
    /// Resident pages.
    len: usize,
    /// Dirty pages (checked on every write for writeback throttling).
    dirty_count: usize,
}

impl PageCache {
    /// Creates a cache holding at most `capacity_bytes` of `page_size`
    /// pages.
    pub fn new(capacity_bytes: u64, page_size: usize) -> Self {
        PageCache {
            page_size,
            capacity_pages: (capacity_bytes as usize / page_size).max(1),
            inodes: HashMap::new(),
            lru: BTreeMap::new(),
            dirty_inodes: BTreeSet::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
            len: 0,
            dirty_count: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maximum resident pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Current resident pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inodes with at least one resident page.
    pub fn resident_inodes(&self) -> usize {
        self.inodes.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn stamp(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    fn page(&self, ino: InodeNo, page: u64) -> Option<&Page> {
        self.inodes.get(&ino)?.pages.get(&page)
    }

    /// Looks up a page, copying `out.len()` bytes from `offset` within it
    /// into `out` on a hit.
    pub fn get(&mut self, ino: InodeNo, page: u64, offset: usize, out: &mut [u8]) -> bool {
        let Some(p) = self
            .inodes
            .get_mut(&ino)
            .and_then(|i| i.pages.get_mut(&page))
        else {
            self.stats.misses += 1;
            return false;
        };
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if self.lru.remove(&p.stamp).is_some() {
            self.lru.insert(stamp, (ino, page));
        }
        p.stamp = stamp;
        out.copy_from_slice(&p.data[offset..offset + out.len()]);
        self.stats.hits += 1;
        true
    }

    /// Whether a page is resident (no LRU bump, no stats).
    pub fn contains(&self, ino: InodeNo, page: u64) -> bool {
        self.page(ino, page).is_some()
    }

    /// Inserts a clean page (after a device read), evicting if needed.
    pub fn insert_clean(&mut self, ino: InodeNo, page: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len(), self.page_size);
        let stamp = self.stamp();
        match self.inodes.entry(ino).or_default().pages.entry(page) {
            btree_map::Entry::Occupied(o) => {
                // Keep the dirty status: a racing writer's page must not be
                // silently marked clean, so a dirty one stays out of the LRU.
                let p = o.into_mut();
                p.data.copy_from_slice(&data);
                if self.lru.remove(&p.stamp).is_some() {
                    self.lru.insert(stamp, (ino, page));
                }
                p.stamp = stamp;
            }
            btree_map::Entry::Vacant(v) => {
                v.insert(Page {
                    data: data.into_boxed_slice(),
                    stamp,
                });
                self.lru.insert(stamp, (ino, page));
                self.len += 1;
                self.evict_to_capacity();
            }
        }
    }

    /// Modifies (or creates) a page and marks it dirty. `init` provides the
    /// base content when the page is not resident (e.g. read from device or
    /// zeros); `apply` mutates it. Returns whether the page was not dirty
    /// before.
    pub fn update_dirty(
        &mut self,
        ino: InodeNo,
        page: u64,
        init: impl FnOnce() -> Vec<u8>,
        apply: impl FnOnce(&mut [u8]),
    ) -> bool {
        let stamp = self.stamp();
        let inode = self.inodes.entry(ino).or_default();
        let p = match inode.pages.entry(page) {
            btree_map::Entry::Occupied(o) => {
                let p = o.into_mut();
                self.lru.remove(&p.stamp);
                p
            }
            btree_map::Entry::Vacant(v) => {
                let data = init();
                debug_assert_eq!(data.len(), self.page_size);
                self.len += 1;
                v.insert(Page {
                    data: data.into_boxed_slice(),
                    stamp,
                })
            }
        };
        p.stamp = stamp;
        apply(&mut p.data);
        let newly = inode.dirty.insert(page);
        if newly {
            self.dirty_count += 1;
            if inode.dirty.len() == 1 {
                self.dirty_inodes.insert(ino);
            }
        }
        self.evict_to_capacity();
        newly
    }

    /// Writes resident pages to `dev`, each at its device block —
    /// `(block, inode, page)` — in device-block order with every run of
    /// consecutive blocks merged into one command: the block layer's
    /// elevator pass, which gives writeback its device-friendly shape
    /// (§3.1). The pages stay as they are; [`PageCache::mark_clean`]
    /// unpins them.
    pub fn write_back(&self, dev: &Device, mut pages: Vec<(u64, InodeNo, u64)>) -> VfsResult<()> {
        pages.sort_unstable_by_key(|&(block, ..)| block);
        let data = |&(_, ino, page): &(u64, InodeNo, u64)| {
            &self
                .page(ino, page)
                .expect("pages written back are resident")
                .data
        };
        let mut blob = Vec::new();
        for run in pages.chunk_by(|a, b| b.0 == a.0 + 1) {
            let at = run[0].0 * self.page_size as u64;
            if let [one] = run {
                dev.write(at, data(one))?;
                continue;
            }
            blob.clear();
            for p in run {
                blob.extend_from_slice(data(p));
            }
            dev.write(at, &blob)?;
        }
        Ok(())
    }

    /// Marks every dirty page of `ino` clean in place — its bytes were
    /// written back — then evicts back to capacity.
    pub fn mark_clean(&mut self, ino: InodeNo) {
        if let Some(inode) = self.inodes.get_mut(&ino) {
            let dirty = std::mem::take(&mut inode.dirty);
            if !dirty.is_empty() {
                self.dirty_count -= dirty.len();
                self.dirty_inodes.remove(&ino);
            }
            for pg in dirty {
                self.lru.insert(inode.pages[&pg].stamp, (ino, pg));
            }
        }
        self.evict_to_capacity();
    }

    /// Dirty page count for one inode.
    pub fn dirty_pages(&self, ino: InodeNo) -> usize {
        self.inodes.get(&ino).map_or(0, |i| i.dirty.len())
    }

    /// Total dirty pages (O(1)).
    pub fn total_dirty(&self) -> usize {
        self.dirty_count
    }

    /// Inodes that currently own dirty pages, ascending.
    pub fn dirty_inodes(&self) -> Vec<InodeNo> {
        self.dirty_inodes.iter().copied().collect()
    }

    /// Sorted list of `ino`'s dirty page indexes.
    pub fn dirty_page_list(&self, ino: InodeNo) -> Vec<u64> {
        self.inodes
            .get(&ino)
            .map_or_else(Vec::new, |i| i.dirty.iter().copied().collect())
    }

    /// Drops `ino`'s pages in `range`, dirty ones included — the caller is
    /// deleting, truncating or hole-punching the file. Panics if `range`
    /// starts after it ends.
    pub fn invalidate(&mut self, ino: InodeNo, range: impl RangeBounds<u64>) {
        let Some(inode) = self.inodes.get_mut(&ino) else {
            return;
        };
        let doomed: Vec<u64> = inode.pages.range(range).map(|(&pg, _)| pg).collect();
        self.len -= doomed.len();
        for pg in doomed {
            let p = inode.pages.remove(&pg).expect("listed above");
            if inode.dirty.remove(&pg) {
                self.dirty_count -= 1;
            } else {
                self.lru.remove(&p.stamp);
            }
        }
        if inode.dirty.is_empty() {
            self.dirty_inodes.remove(&ino);
        }
        if inode.pages.is_empty() {
            self.inodes.remove(&ino);
        }
    }

    fn evict_to_capacity(&mut self) {
        while self.len > self.capacity_pages {
            // Nothing clean: everything is pinned, so overcommit until
            // writeback.
            let Some((_, (ino, pg))) = self.lru.pop_first() else {
                break;
            };
            let inode = self
                .inodes
                .get_mut(&ino)
                .expect("an LRU entry names a resident page");
            inode.pages.remove(&pg);
            if inode.pages.is_empty() {
                self.inodes.remove(&ino);
            }
            self.len -= 1;
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::prelude::*;
    use simdev::{nvme_ssd, VirtualClock};

    use super::*;

    fn page(b: u8) -> Vec<u8> {
        vec![b; 64]
    }

    fn cache(pages: u64) -> PageCache {
        PageCache::new(pages * 64, 64)
    }

    /// What writeback reads: `ino`'s dirty pages and their bytes.
    fn dirty_bytes(c: &PageCache, ino: InodeNo) -> Vec<(u64, Vec<u8>)> {
        c.dirty_page_list(ino)
            .into_iter()
            .map(|pg| {
                (
                    pg,
                    c.page(ino, pg).expect("dirty is resident").data.to_vec(),
                )
            })
            .collect()
    }

    /// Writeback without a device: the bytes, then [`PageCache::mark_clean`].
    fn take_dirty(c: &mut PageCache, ino: InodeNo) -> Vec<(u64, Vec<u8>)> {
        let taken = dirty_bytes(c, ino);
        c.mark_clean(ino);
        taken
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache(4);
        c.insert_clean(1, 0, page(7));
        let mut out = vec![0u8; 64];
        assert!(c.get(1, 0, 0, &mut out));
        assert_eq!(out, page(7));
        assert!(!c.get(1, 1, 0, &mut out));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        // A hit can copy part of the page.
        let mut part = [0u8; 3];
        assert!(c.get(1, 0, 61, &mut part));
        assert_eq!(part, [7; 3]);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(2);
        c.insert_clean(1, 0, page(0));
        c.insert_clean(1, 1, page(1));
        // Touch page 0 so page 1 is the LRU victim.
        let mut out = vec![0u8; 64];
        c.get(1, 0, 0, &mut out);
        c.insert_clean(1, 2, page(2));
        assert!(c.contains(1, 0));
        assert!(!c.contains(1, 1));
        assert!(c.contains(1, 2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_pages_survive_eviction_pressure() {
        let mut c = cache(2);
        c.update_dirty(1, 0, || page(0), |d| d[0] = 9);
        c.update_dirty(1, 1, || page(1), |d| d[0] = 9);
        c.insert_clean(1, 2, page(2));
        // Clean page 2 must be the victim even though it is newest.
        assert!(c.contains(1, 0));
        assert!(c.contains(1, 1));
        assert!(!c.contains(1, 2));
    }

    #[test]
    fn take_dirty_returns_sorted_and_cleans() {
        let mut c = cache(8);
        c.update_dirty(1, 5, || page(5), |_| {});
        c.update_dirty(1, 2, || page(2), |_| {});
        c.update_dirty(2, 0, || page(0), |_| {});
        let taken = take_dirty(&mut c, 1);
        assert_eq!(
            taken.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![2, 5]
        );
        assert_eq!(c.dirty_pages(1), 0);
        assert_eq!(c.dirty_pages(2), 1);
        // Pages remain resident, now clean.
        assert!(c.contains(1, 5));
        assert_eq!(c.dirty_inodes(), vec![2]);
    }

    #[test]
    fn update_dirty_applies_over_init() {
        let mut c = cache(4);
        assert!(c.update_dirty(
            1,
            0,
            || page(3),
            |d| {
                d[10] = 42;
            },
        ));
        let mut out = vec![0u8; 64];
        c.get(1, 0, 0, &mut out);
        assert_eq!(out[9], 3);
        assert_eq!(out[10], 42);
        // Second update must not re-init, and the page was dirty already.
        assert!(!c.update_dirty(1, 0, || panic!("must not init again"), |d| d[11] = 43));
        c.get(1, 0, 0, &mut out);
        assert_eq!(out[10], 42);
        assert_eq!(out[11], 43);
    }

    #[test]
    fn insert_clean_on_dirty_page_keeps_dirty_flag() {
        let mut c = cache(4);
        c.update_dirty(1, 0, || page(1), |_| {});
        c.insert_clean(1, 0, page(2));
        assert_eq!(c.dirty_pages(1), 1);
    }

    #[test]
    fn invalidate_drops_all_pages() {
        let mut c = cache(8);
        c.insert_clean(1, 0, page(0));
        c.update_dirty(1, 1, || page(1), |_| {});
        c.insert_clean(2, 0, page(9));
        c.invalidate(1, ..);
        assert!(!c.contains(1, 0));
        assert!(!c.contains(1, 1));
        assert!(c.contains(2, 0));
        assert_eq!(c.resident_inodes(), 1);
        assert!(c.dirty_inodes().is_empty());
    }

    #[test]
    fn invalidate_from_truncates() {
        let mut c = cache(8);
        for pg in 0..4 {
            c.insert_clean(1, pg, page(pg as u8));
        }
        c.invalidate(1, 2..);
        assert!(c.contains(1, 0));
        assert!(c.contains(1, 1));
        assert!(!c.contains(1, 2));
        assert!(!c.contains(1, 3));
    }

    #[test]
    fn dirty_counter_stays_consistent_through_mixed_ops() {
        let mut c = cache(16);
        for i in 0..3u64 {
            for p in 0..4u64 {
                c.update_dirty(i, p, || page(1), |_| {});
            }
        }
        assert_eq!(c.total_dirty(), 12);
        c.update_dirty(0, 0, || page(0), |_| {}); // already dirty: no double count
        assert_eq!(c.total_dirty(), 12);
        c.mark_clean(0);
        assert_eq!(c.total_dirty(), 8);
        c.invalidate(1, ..);
        assert_eq!(c.total_dirty(), 4);
        c.invalidate(2, 0..2);
        assert_eq!(c.total_dirty(), 2);
        c.invalidate(2, 3..);
        assert_eq!(c.total_dirty(), 1);
        c.invalidate(2, ..);
        assert_eq!(c.total_dirty(), 0);
        // Re-dirtying a clean resident page counts again.
        c.update_dirty(0, 0, || page(0), |_| {});
        assert_eq!(c.total_dirty(), 1);
    }

    #[test]
    fn all_dirty_overcommits_instead_of_losing_data() {
        let mut c = cache(2);
        for pg in 0..4 {
            c.update_dirty(1, pg, || page(pg as u8), |_| {});
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_dirty(), 4);
        // Writeback lets it shrink again.
        c.mark_clean(1);
        assert!(c.len() <= 2);
    }

    #[test]
    fn write_back_merges_consecutive_blocks() {
        let dev = Device::with_profile(nvme_ssd(), 1 << 20, VirtualClock::new());
        let mut c = cache(8);
        for (ino, pg, b) in [(1, 0, 1u8), (1, 1, 2), (2, 7, 3)] {
            c.update_dirty(ino, pg, || page(b), |_| {});
        }
        // Blocks 5, 3 and 4: one command for 3..=5, whatever the order given.
        c.write_back(&dev, vec![(5, 2, 7), (3, 1, 0), (4, 1, 1)])
            .unwrap();
        assert_eq!(dev.stats().snapshot().writes, 1);
        let mut got = vec![0u8; 3 * 64];
        dev.read(3 * 64, &mut got).unwrap();
        assert_eq!(got, [page(1), page(2), page(3)].concat());
        // Writing back leaves the pages dirty until marked clean.
        assert_eq!(c.total_dirty(), 3);
    }

    /// The cache this module had before it was indexed: one map over every
    /// resident page, with an LRU over clean and dirty pages alike. Every
    /// per-inode call scans the whole cache and eviction walks past every
    /// pinned page, but its hits, victims and page orders are the
    /// specification.
    mod oracle {
        use std::collections::{BTreeMap, HashMap};

        use super::super::CacheStats;
        use crate::InodeNo;

        struct Page {
            data: Box<[u8]>,
            dirty: bool,
            stamp: u64,
        }

        pub struct PageCache {
            page_size: usize,
            capacity_pages: usize,
            pages: HashMap<(InodeNo, u64), Page>,
            lru: BTreeMap<u64, (InodeNo, u64)>,
            next_stamp: u64,
            stats: CacheStats,
            dirty_count: usize,
        }

        impl PageCache {
            pub fn new(capacity_bytes: u64, page_size: usize) -> Self {
                PageCache {
                    page_size,
                    capacity_pages: (capacity_bytes as usize / page_size).max(1),
                    pages: HashMap::new(),
                    lru: BTreeMap::new(),
                    next_stamp: 0,
                    stats: CacheStats::default(),
                    dirty_count: 0,
                }
            }

            pub fn len(&self) -> usize {
                self.pages.len()
            }

            pub fn stats(&self) -> CacheStats {
                self.stats
            }

            fn touch(&mut self, key: (InodeNo, u64)) {
                let stamp = self.next_stamp;
                self.next_stamp += 1;
                if let Some(p) = self.pages.get_mut(&key) {
                    self.lru.remove(&p.stamp);
                    p.stamp = stamp;
                    self.lru.insert(stamp, key);
                }
            }

            pub fn get(&mut self, ino: InodeNo, page: u64, out: &mut [u8]) -> bool {
                let key = (ino, page);
                if self.pages.contains_key(&key) {
                    self.touch(key);
                    let p = &self.pages[&key];
                    out.copy_from_slice(&p.data);
                    self.stats.hits += 1;
                    true
                } else {
                    self.stats.misses += 1;
                    false
                }
            }

            pub fn contains(&self, ino: InodeNo, page: u64) -> bool {
                self.pages.contains_key(&(ino, page))
            }

            pub fn insert_clean(&mut self, ino: InodeNo, page: u64, data: &[u8]) {
                debug_assert_eq!(data.len(), self.page_size);
                let key = (ino, page);
                let stamp = self.next_stamp;
                self.next_stamp += 1;
                if let Some(p) = self.pages.get_mut(&key) {
                    let was_dirty = p.dirty;
                    self.lru.remove(&p.stamp);
                    p.data.copy_from_slice(data);
                    p.dirty = was_dirty;
                    p.stamp = stamp;
                    self.lru.insert(stamp, key);
                    return;
                }
                self.pages.insert(
                    key,
                    Page {
                        data: data.to_vec().into_boxed_slice(),
                        dirty: false,
                        stamp,
                    },
                );
                self.lru.insert(stamp, key);
                self.evict_to_capacity();
            }

            pub fn update_dirty(
                &mut self,
                ino: InodeNo,
                page: u64,
                init: impl FnOnce() -> Vec<u8>,
                apply: impl FnOnce(&mut [u8]),
            ) {
                let key = (ino, page);
                if !self.pages.contains_key(&key) {
                    let data = init();
                    debug_assert_eq!(data.len(), self.page_size);
                    let stamp = self.next_stamp;
                    self.next_stamp += 1;
                    self.pages.insert(
                        key,
                        Page {
                            data: data.into_boxed_slice(),
                            dirty: false,
                            stamp,
                        },
                    );
                    self.lru.insert(stamp, key);
                }
                self.touch(key);
                let p = self.pages.get_mut(&key).expect("just inserted");
                apply(&mut p.data);
                if !p.dirty {
                    p.dirty = true;
                    self.dirty_count += 1;
                }
                self.evict_to_capacity();
            }

            pub fn take_dirty(&mut self, ino: InodeNo) -> Vec<(u64, Vec<u8>)> {
                let mut out: Vec<(u64, Vec<u8>)> = self
                    .pages
                    .iter_mut()
                    .filter(|((i, _), p)| *i == ino && p.dirty)
                    .map(|((_, pg), p)| {
                        p.dirty = false;
                        (*pg, p.data.to_vec())
                    })
                    .collect();
                self.dirty_count -= out.len();
                out.sort_by_key(|(pg, _)| *pg);
                self.evict_to_capacity();
                out
            }

            pub fn dirty_pages(&self, ino: InodeNo) -> usize {
                self.pages
                    .iter()
                    .filter(|((i, _), p)| *i == ino && p.dirty)
                    .count()
            }

            pub fn total_dirty(&self) -> usize {
                self.dirty_count
            }

            pub fn dirty_inodes(&self) -> Vec<InodeNo> {
                let mut v: Vec<InodeNo> = self
                    .pages
                    .iter()
                    .filter(|(_, p)| p.dirty)
                    .map(|((i, _), _)| *i)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }

            fn drop_where(&mut self, doomed: impl Fn(&(InodeNo, u64)) -> bool) {
                let keys: Vec<(InodeNo, u64)> =
                    self.pages.keys().filter(|k| doomed(k)).copied().collect();
                for k in keys {
                    if let Some(p) = self.pages.remove(&k) {
                        self.lru.remove(&p.stamp);
                        if p.dirty {
                            self.dirty_count -= 1;
                        }
                    }
                }
            }

            pub fn invalidate(&mut self, ino: InodeNo) {
                self.drop_where(|(i, _)| *i == ino);
            }

            pub fn invalidate_range(&mut self, ino: InodeNo, from_page: u64, to_page: u64) {
                self.drop_where(|(i, pg)| *i == ino && (from_page..to_page).contains(pg));
            }

            pub fn dirty_page_list(&self, ino: InodeNo) -> Vec<u64> {
                let mut v: Vec<u64> = self
                    .pages
                    .iter()
                    .filter(|((i, _), p)| *i == ino && p.dirty)
                    .map(|((_, pg), _)| *pg)
                    .collect();
                v.sort_unstable();
                v
            }

            pub fn invalidate_from(&mut self, ino: InodeNo, from_page: u64) {
                self.drop_where(|(i, pg)| *i == ino && *pg >= from_page);
            }

            fn evict_to_capacity(&mut self) {
                while self.pages.len() > self.capacity_pages {
                    if self.pages.len() == self.dirty_count {
                        break;
                    }
                    let victim = self
                        .lru
                        .iter()
                        .map(|(_, &k)| k)
                        .find(|k| !self.pages[k].dirty);
                    match victim {
                        Some(k) => {
                            let p = self.pages.remove(&k).expect("present");
                            self.lru.remove(&p.stamp);
                            self.stats.evictions += 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    /// Seeded op scripts run against the indexed cache and the oracle side
    /// by side; after every op the return values, the bytes, the counters
    /// and the residency of every key agree — so every eviction victim is
    /// the oracle's.
    #[test]
    fn agrees_with_the_full_scan_oracle() {
        const PS: usize = 8;
        let mut evictions = 0;
        let mut evictions_past_pins = 0;
        for capacity in [4u64, 7, 16, 64] {
            for seed in 0..16u64 {
                let mut rng = StdRng::seed_from_u64(seed * 977 + capacity);
                let n_inodes = 3 + seed % 3;
                let n_pages = capacity + capacity / 2 + 2;
                let mut new = PageCache::new(capacity * PS as u64, PS);
                let mut old = oracle::PageCache::new(capacity * PS as u64, PS);
                // A quarter of the scripts open by dirtying more pages than
                // the cache holds and write back less: pinned pages then sit
                // ahead of every clean one in the LRU.
                let dirty_bias = if seed % 4 == 0 {
                    for k in 0..capacity + 2 {
                        let (ino, pg) = (k % n_inodes, k / n_inodes);
                        new.update_dirty(ino, pg, || vec![1; PS], |_| {});
                        old.update_dirty(ino, pg, || vec![1; PS], |_| {});
                    }
                    8
                } else {
                    3
                };
                let mut fill = 0u8;
                for step in 0..1200 {
                    let ctx = format!("capacity={capacity} seed={seed} step={step}");
                    let ino = rng.gen_range(0..n_inodes);
                    let pg = rng.gen_range(0..n_pages);
                    fill = fill.wrapping_add(1);
                    // More pinned pages than the cache holds: no clean page
                    // is left, so a victim now is a page just inserted and
                    // the oracle's eviction walks past every pinned one.
                    let pinned_ahead = new.total_dirty() > capacity as usize;
                    let evictions_before = new.stats().evictions;
                    match rng.gen_range(0..11 + dirty_bias) {
                        0..=2 => {
                            let mut a = [0u8; PS];
                            let mut b = [0u8; PS];
                            let hit = new.get(ino, pg, 0, &mut a);
                            assert_eq!(hit, old.get(ino, pg, &mut b), "{ctx}");
                            assert_eq!(a, b, "{ctx}");
                        }
                        3..=4 => {
                            new.insert_clean(ino, pg, vec![fill; PS]);
                            old.insert_clean(ino, pg, &[fill; PS]);
                        }
                        5 => {
                            let taken = take_dirty(&mut new, ino);
                            assert_eq!(taken, old.take_dirty(ino), "{ctx}");
                        }
                        6 => {
                            new.invalidate(ino, ..);
                            old.invalidate(ino);
                        }
                        7 => {
                            let to = pg + rng.gen_range(0..4u64);
                            new.invalidate(ino, pg..to);
                            old.invalidate_range(ino, pg, to);
                        }
                        8 => {
                            new.invalidate(ino, pg..);
                            old.invalidate_from(ino, pg);
                        }
                        9 => {
                            assert_eq!(new.dirty_page_list(ino), old.dirty_page_list(ino), "{ctx}");
                        }
                        10 => {
                            let (mut a, mut b) = ([0u8; PS], [0u8; PS]);
                            // The writeback readers see the same bytes.
                            for (p, bytes) in dirty_bytes(&new, ino) {
                                assert!(new.get(ino, p, 0, &mut a), "{ctx}");
                                assert!(old.get(ino, p, &mut b), "{ctx}");
                                assert_eq!(bytes, b, "{ctx}");
                                assert_eq!(a, b, "{ctx}");
                            }
                        }
                        _ => {
                            let off = rng.gen_range(0..PS);
                            let newly = new.update_dirty(
                                ino,
                                pg,
                                || vec![fill; PS],
                                |d| d[off] = fill ^ 0x5a,
                            );
                            assert_eq!(newly, !old.dirty_page_list(ino).contains(&pg), "{ctx}");
                            old.update_dirty(ino, pg, || vec![fill; PS], |d| d[off] = fill ^ 0x5a);
                        }
                    }
                    assert_eq!(new.stats(), old.stats(), "{ctx}");
                    assert_eq!(new.len(), old.len(), "{ctx}");
                    assert_eq!(new.total_dirty(), old.total_dirty(), "{ctx}");
                    for i in 0..n_inodes {
                        assert_eq!(new.dirty_pages(i), old.dirty_pages(i), "{ctx} ino {i}");
                        for p in 0..n_pages {
                            assert_eq!(new.contains(i, p), old.contains(i, p), "{ctx} {i}/{p}");
                        }
                    }
                    // The indexes agree with the pages they index.
                    assert_eq!(new.lru.len(), new.len - new.dirty_count, "{ctx}");
                    assert_eq!(
                        new.inodes.values().map(|i| i.pages.len()).sum::<usize>(),
                        new.len,
                        "{ctx}"
                    );
                    assert!(new.inodes.values().all(|i| !i.pages.is_empty()), "{ctx}");
                    assert_eq!(new.dirty_inodes(), old.dirty_inodes(), "{ctx}");
                    if pinned_ahead && new.stats().evictions > evictions_before {
                        evictions_past_pins += 1;
                    }
                }
                evictions += new.stats().evictions;
            }
        }
        assert!(evictions > 1000, "the scripts must evict: {evictions}");
        assert!(
            evictions_past_pins > 0,
            "some eviction must find more pinned pages ahead of its victim than the cache holds"
        );
    }
}
