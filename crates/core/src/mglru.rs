//! Multi-generational LRU (paper §2.5: "We use Multi-generational LRU for
//! cache replacement, which is also the algorithm Linux uses for its page
//! caches").
//!
//! Entries belong to generations. Accessed entries are promoted to the
//! youngest generation lazily (re-tagged; stale queue nodes are skipped at
//! eviction). Eviction pops from the oldest non-empty generation in FIFO
//! order; aging opens a new youngest generation when the current one has
//! absorbed enough insertions, so one burst of accesses cannot flush the
//! whole cache the way plain LRU allows.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A multi-generational LRU over keys `K`.
#[derive(Debug)]
pub struct Mglru<K: Hash + Eq + Clone> {
    /// Key → unique stamp of its newest queue node (stale nodes carry an
    /// older stamp and are skipped at eviction).
    stamp_of: HashMap<K, u64>,
    /// Per-generation FIFO queues of `(key, stamp)` (lazily cleaned).
    queues: HashMap<u64, VecDeque<(K, u64)>>,
    next_stamp: u64,
    min_gen: u64,
    max_gen: u64,
    /// Generations kept before the oldest ones become eviction fodder.
    n_gens: u64,
    /// Insertions into the youngest generation since it was opened.
    young_inserts: u64,
    /// Aging threshold: youngest-generation insertions that trigger a new
    /// generation.
    age_threshold: u64,
    /// Where fresh keys land: `false` (default, the MGLRU behaviour) puts
    /// once-accessed keys into the *oldest* generation so a scan cannot
    /// flush the multi-touch working set; `true` emulates classic LRU by
    /// inserting at the youngest.
    insert_young: bool,
}

impl<K: Hash + Eq + Clone> Mglru<K> {
    /// `n_gens` generations; a new one opens every `age_threshold`
    /// insertions/promotions.
    pub fn new(n_gens: u64, age_threshold: u64) -> Self {
        Self::with_insertion(n_gens, age_threshold, false)
    }

    /// [`Mglru::new`] with explicit insertion behaviour (`insert_young =
    /// true` approximates classic LRU).
    pub fn with_insertion(n_gens: u64, age_threshold: u64, insert_young: bool) -> Self {
        Mglru {
            stamp_of: HashMap::new(),
            queues: HashMap::new(),
            next_stamp: 0,
            min_gen: 0,
            max_gen: n_gens.max(2) - 1,
            n_gens: n_gens.max(2),
            young_inserts: 0,
            age_threshold: age_threshold.max(1),
            insert_young,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.stamp_of.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.stamp_of.is_empty()
    }

    /// Youngest generation currently open. Generation numbers grow
    /// monotonically, so `max_generation() - generation(k)` is a key's age
    /// in generations.
    pub fn max_generation(&self) -> u64 {
        self.max_gen
    }

    /// Whether `k` is tracked.
    pub fn contains(&self, k: &K) -> bool {
        self.stamp_of.contains_key(k)
    }

    /// Generation a key's live node sits in (tests/diagnostics). Linear in
    /// queue size; not for hot paths.
    pub fn generation(&self, k: &K) -> Option<u64> {
        let stamp = *self.stamp_of.get(k)?;
        self.queues
            .iter()
            .find(|(_, q)| q.iter().any(|(qk, s)| *s == stamp && qk == k))
            .map(|(&g, _)| g)
    }

    fn bump_to(&mut self, k: K, generation: u64) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        self.stamp_of.insert(k.clone(), stamp);
        self.queues
            .entry(generation)
            .or_default()
            .push_back((k, stamp));
        if generation == self.max_gen {
            self.young_inserts += 1;
            if self.young_inserts >= self.age_threshold {
                self.age();
            }
        }
    }

    fn bump_young(&mut self, k: K) {
        self.bump_to(k, self.max_gen);
    }

    /// Inserts a new (once-accessed) key — into the oldest generation by
    /// default (scan resistance), or the youngest with `insert_young`.
    pub fn insert(&mut self, k: K) {
        if self.insert_young {
            self.bump_young(k);
        } else {
            self.bump_to(k, self.min_gen);
        }
    }

    /// Promotes an accessed key to the youngest generation.
    pub fn touch(&mut self, k: &K) {
        if self.stamp_of.contains_key(k) {
            self.bump_young(k.clone());
        }
    }

    /// Removes a key.
    pub fn remove(&mut self, k: &K) {
        self.stamp_of.remove(k);
        // Queue nodes are cleaned lazily at eviction.
    }

    /// Opens a new youngest generation (aging).
    fn age(&mut self) {
        self.max_gen += 1;
        self.young_inserts = 0;
        // Keep the window bounded: fold surplus old generations together.
        while self.max_gen - self.min_gen + 1 > self.n_gens {
            let old = self.queues.remove(&self.min_gen).unwrap_or_default();
            self.min_gen += 1;
            let merged = self.queues.entry(self.min_gen).or_default();
            for node in old.into_iter().rev() {
                merged.push_front(node);
            }
        }
    }

    /// Evicts the coldest key, if any.
    pub fn evict(&mut self) -> Option<K> {
        let mut g = self.min_gen;
        loop {
            if let Some(q) = self.queues.get_mut(&g) {
                while let Some((k, stamp)) = q.pop_front() {
                    if self.stamp_of.get(&k) == Some(&stamp) {
                        self.stamp_of.remove(&k);
                        return Some(k);
                    }
                    // Stale node (promoted or removed): skip.
                }
            }
            if g >= self.max_gen {
                return None;
            }
            g += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insert_order_within_a_generation() {
        let mut m = Mglru::new(4, 1000);
        m.insert(1);
        m.insert(2);
        m.insert(3);
        assert_eq!(m.evict(), Some(1));
        assert_eq!(m.evict(), Some(2));
        assert_eq!(m.evict(), Some(3));
        assert_eq!(m.evict(), None);
        assert!(m.is_empty());
    }

    #[test]
    fn touch_promotes_out_of_eviction_order() {
        let mut m = Mglru::new(4, 1000);
        m.insert(1);
        m.insert(2);
        m.insert(3);
        m.touch(&1);
        assert_eq!(m.evict(), Some(2));
        assert_eq!(m.evict(), Some(3));
        assert_eq!(m.evict(), Some(1));
    }

    #[test]
    fn remove_prevents_eviction() {
        let mut m = Mglru::new(4, 1000);
        m.insert(1);
        m.insert(2);
        m.remove(&1);
        assert_eq!(m.evict(), Some(2));
        assert_eq!(m.evict(), None);
    }

    #[test]
    fn aging_separates_generations() {
        // Age after every 2 *young* insertions; touches go young.
        let mut m = Mglru::with_insertion(4, 2, true);
        m.insert(1);
        m.insert(2); // gen G, then age
        m.insert(3); // younger gen
        let g1 = m.generation(&1).unwrap();
        let g3 = m.generation(&3).unwrap();
        assert!(g3 > g1, "3 must be in a younger generation");
        // Old generation evicts first even though 3 was never touched.
        assert_eq!(m.evict(), Some(1));
        assert_eq!(m.evict(), Some(2));
        assert_eq!(m.evict(), Some(3));
    }

    #[test]
    fn fresh_inserts_land_old_and_scans_evict_first() {
        // The MGLRU insertion point: once-accessed keys must not displace
        // the multi-touch working set.
        let mut m = Mglru::new(4, 1000);
        for k in 0..4 {
            m.insert(k);
            m.touch(&k); // second access → young
        }
        for k in 100..104 {
            m.insert(k); // scan: once-accessed, lands old
        }
        for _ in 0..4 {
            let v = m.evict().unwrap();
            assert!(v >= 100, "scan key must evict before working set, got {v}");
        }
    }

    #[test]
    fn burst_does_not_flush_older_working_set() {
        // The MGLRU property: a scan burst lands in young generations and
        // gets evicted before the repeatedly-touched working set.
        let mut m = Mglru::new(4, 4);
        for k in 0..4 {
            m.insert(k); // working set, gen 0..
        }
        for k in 0..4 {
            m.touch(&k); // promote working set
        }
        for k in 100..108 {
            m.insert(k); // scan burst, younger gens
        }
        // Re-touch the working set again: it is now youngest.
        for k in 0..4 {
            m.touch(&k);
        }
        // Evict 8: the burst keys must all go before any working-set key.
        let mut evicted = Vec::new();
        for _ in 0..8 {
            evicted.push(m.evict().unwrap());
        }
        for k in 100..108 {
            assert!(evicted.contains(&k), "burst key {k} should be evicted");
        }
        for k in 0..4 {
            assert!(
                !evicted.contains(&k),
                "working-set key {k} evicted too early"
            );
        }
    }

    #[test]
    fn generation_window_stays_bounded() {
        let mut m = Mglru::new(3, 1);
        for k in 0..100 {
            m.insert(k);
        }
        assert!(m.max_gen - m.min_gen < 3);
        // All 100 keys still evictable.
        let mut n = 0;
        while m.evict().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
