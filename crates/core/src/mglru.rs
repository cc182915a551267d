//! Multi-generational LRU (paper §2.5: "We use Multi-generational LRU for
//! cache replacement, which is also the algorithm Linux uses for its page
//! caches").
//!
//! Entries belong to generations. Accessed entries are promoted to the
//! youngest generation. Eviction pops from the oldest non-empty generation
//! in FIFO order; aging opens a new youngest generation when the current
//! one has absorbed enough insertions, so one burst of accesses cannot
//! flush the whole cache the way plain LRU allows.
//!
//! The ladder is intrusive: one slab node per tracked key, doubly linked by
//! slab index into its generation's list. Insert, touch, remove, evict and
//! aging (folding the oldest generation into the next is a list splice)
//! each visit a constant number of nodes, and the slab holds exactly
//! [`Mglru::len`] nodes however many touches came before.

use std::collections::HashMap;
use std::hash::Hash;

/// "No node": the end of a list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K> {
    key: K,
    /// Generation the node was last linked into. Folding moves whole
    /// lists without visiting their nodes, so a node's live generation is
    /// this clamped to `min_gen`.
    gen: u64,
    prev: usize,
    next: usize,
}

/// One generation's FIFO list: evict from `head`, link at `tail`.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// A multi-generational LRU over keys `K`.
#[derive(Debug)]
pub struct Mglru<K: Hash + Eq + Clone> {
    /// Key → slab index of its node.
    index: HashMap<K, usize>,
    /// Dense slab: a freed node's place is taken by the last node.
    nodes: Vec<Node<K>>,
    /// The window is always exactly `n_gens` generations wide, so
    /// generation `g`'s list lives at `g % n_gens`.
    lists: Vec<List>,
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
    /// Slab node accesses, for the bounded-cost test.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
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
        let n_gens = n_gens.max(2);
        Mglru {
            index: HashMap::new(),
            nodes: Vec::new(),
            lists: vec![EMPTY; n_gens as usize],
            min_gen: 0,
            max_gen: n_gens - 1,
            n_gens,
            young_inserts: 0,
            age_threshold: age_threshold.max(1),
            insert_young,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Youngest generation currently open. Generation numbers grow
    /// monotonically, so `max_generation() - generation(k)` is a key's age
    /// in generations.
    pub fn max_generation(&self) -> u64 {
        self.max_gen
    }

    /// Whether `k` is tracked.
    pub fn contains(&self, k: &K) -> bool {
        self.index.contains_key(k)
    }

    /// Generation a key sits in.
    pub fn generation(&self, k: &K) -> Option<u64> {
        let &i = self.index.get(k)?;
        Some(self.node(i).gen.max(self.min_gen))
    }

    fn visit(&self) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
    }

    fn node(&self, i: usize) -> &Node<K> {
        self.visit();
        &self.nodes[i]
    }

    fn node_mut(&mut self, i: usize) -> &mut Node<K> {
        self.visit();
        &mut self.nodes[i]
    }

    /// The list a node linked at `gen` is on now.
    fn list_of(&self, gen: u64) -> usize {
        (gen.max(self.min_gen) % self.n_gens) as usize
    }

    /// Points the forward link into a position of list `l` — `prev`'s, or
    /// the list's head when there is no `prev` — at `to`.
    fn set_next(&mut self, l: usize, prev: usize, to: usize) {
        match prev {
            NIL => self.lists[l].head = to,
            p => self.node_mut(p).next = to,
        }
    }

    /// Points the backward link into a position of list `l` — `next`'s, or
    /// the list's tail when there is no `next` — at `to`.
    fn set_prev(&mut self, l: usize, next: usize, to: usize) {
        match next {
            NIL => self.lists[l].tail = to,
            n => self.node_mut(n).prev = to,
        }
    }

    /// Links node `i` at the tail of `generation`, aging when the youngest
    /// generation has absorbed its share.
    fn link(&mut self, i: usize, generation: u64) {
        let l = self.list_of(generation);
        let tail = self.lists[l].tail;
        let node = self.node_mut(i);
        (node.gen, node.prev, node.next) = (generation, tail, NIL);
        self.set_next(l, tail, i);
        self.lists[l].tail = i;
        if generation == self.max_gen {
            self.young_inserts += 1;
            if self.young_inserts >= self.age_threshold {
                self.age();
            }
        }
    }

    /// Takes node `i` off its list; the node itself stays in the slab.
    fn unlink(&mut self, i: usize) {
        let node = self.node(i);
        let (l, prev, next) = (self.list_of(node.gen), node.prev, node.next);
        self.set_next(l, prev, next);
        self.set_prev(l, next, prev);
    }

    /// Frees the slab slot of node `i` — already unlinked, and unindexed by
    /// the caller — and returns its key. The last slab node moves into the
    /// gap, so its neighbours and its index entry are re-pointed.
    fn release(&mut self, i: usize) -> K {
        let freed = self.nodes.swap_remove(i);
        if i < self.nodes.len() {
            self.visit();
            let moved = &self.nodes[i];
            let (gen, prev, next) = (moved.gen, moved.prev, moved.next);
            *self
                .index
                .get_mut(&moved.key)
                .expect("every slab node is indexed") = i;
            let l = self.list_of(gen);
            self.set_next(l, prev, i);
            self.set_prev(l, next, i);
        }
        freed.key
    }

    /// Inserts a new (once-accessed) key — into the oldest generation by
    /// default (scan resistance), or the youngest with `insert_young`. A
    /// key already tracked moves there.
    pub fn insert(&mut self, k: K) {
        let i = match self.index.get(&k) {
            Some(&i) => {
                self.unlink(i);
                i
            }
            None => {
                let i = self.nodes.len();
                self.index.insert(k.clone(), i);
                self.nodes.push(Node {
                    key: k,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        let generation = if self.insert_young {
            self.max_gen
        } else {
            self.min_gen
        };
        self.link(i, generation);
    }

    /// Promotes an accessed key to the youngest generation; `false` when
    /// the key is not tracked.
    pub fn touch(&mut self, k: &K) -> bool {
        let Some(&i) = self.index.get(k) else {
            return false;
        };
        self.unlink(i);
        self.link(i, self.max_gen);
        true
    }

    /// Removes a key.
    pub fn remove(&mut self, k: &K) {
        if let Some(i) = self.index.remove(k) {
            self.unlink(i);
            self.release(i);
        }
    }

    /// Opens a new youngest generation (aging) and keeps the window
    /// bounded by folding the oldest generation into the next: its list is
    /// spliced in front, so its keys still evict first.
    fn age(&mut self) {
        self.max_gen += 1;
        self.young_inserts = 0;
        let (old, merged) = (self.list_of(self.min_gen), self.list_of(self.min_gen + 1));
        // `old` is also the new youngest generation's list: leave it empty.
        let List { head, tail } = std::mem::replace(&mut self.lists[old], EMPTY);
        self.min_gen += 1;
        if tail == NIL {
            return;
        }
        let merged_head = self.lists[merged].head;
        self.node_mut(tail).next = merged_head;
        self.set_prev(merged, merged_head, tail);
        self.lists[merged].head = head;
    }

    /// Evicts the coldest key, if any.
    pub fn evict(&mut self) -> Option<K> {
        let i = (self.min_gen..=self.max_gen)
            .map(|g| self.lists[self.list_of(g)].head)
            .find(|&head| head != NIL)?;
        self.unlink(i);
        let k = self.release(i);
        self.index.remove(&k);
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Random insert / touch / remove / evict scripts over a small key
    /// space (so re-inserts of live keys and touches of dead ones happen),
    /// checked against the oracle after every step.
    #[test]
    fn agrees_with_the_lazy_queue_oracle() {
        for insert_young in [false, true] {
            for age_threshold in [1, 2, 64] {
                for seed in 0..8u64 {
                    let n_gens = 2 + seed % 4;
                    let mut rng = StdRng::seed_from_u64(seed * 131 + age_threshold);
                    let mut new = Mglru::with_insertion(n_gens, age_threshold, insert_young);
                    let mut old =
                        oracle::Mglru::with_insertion(n_gens, age_threshold, insert_young);
                    let keys = 1 + rng.gen_range(0..48u64);
                    for step in 0..4000 {
                        let k = rng.gen_range(0..keys);
                        let ctx = format!(
                            "young={insert_young} age={age_threshold} seed={seed} step={step}"
                        );
                        match rng.gen_range(0..10u32) {
                            0..=3 => {
                                new.insert(k);
                                old.insert(k);
                            }
                            4..=6 => {
                                assert_eq!(new.touch(&k), old.contains(&k), "{ctx}");
                                old.touch(&k);
                            }
                            7 => {
                                new.remove(&k);
                                old.remove(&k);
                            }
                            _ => assert_eq!(new.evict(), old.evict(), "{ctx}"),
                        }
                        assert_eq!(new.len(), old.len(), "{ctx}");
                        assert_eq!(new.nodes.len(), new.len(), "{ctx}");
                        assert_eq!(new.max_generation(), old.max_generation(), "{ctx}");
                        for k in 0..keys {
                            assert_eq!(new.generation(&k), old.generation(&k), "{ctx} key {k}");
                        }
                    }
                    // Drain: the whole eviction order agrees.
                    loop {
                        let (a, b) = (new.evict(), old.evict());
                        assert_eq!(a, b);
                        if a.is_none() {
                            break;
                        }
                    }
                    assert!(new.is_empty() && new.nodes.is_empty());
                }
            }
        }
    }

    /// ROADMAP 1c: bookkeeping is bounded by live state, not by uptime.
    #[test]
    fn a_million_touches_leave_64_nodes_and_a_flat_touch_cost() {
        let mut m = Mglru::new(4, 64);
        for k in 0..64u64 {
            m.insert(k);
        }
        for i in 1..=1_000_000u64 {
            let before = m.visits.get();
            assert!(m.touch(&(i.wrapping_mul(2_654_435_761) % 64)));
            let visited = m.visits.get() - before;
            // The same bound for the first touch and the millionth: the
            // node and its two old neighbours, the node again and the new
            // tail, and the two list ends a fold joins.
            assert!(visited <= 7, "touch {i} visited {visited} nodes");
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m.nodes.len(), 64, "one slab node per live key");
    }

    /// The ladder this module had before it went intrusive: promoted and
    /// removed keys leave stale `(key, stamp)` queue nodes behind, skipped
    /// at eviction. Slow and unbounded, but its eviction order and
    /// generation numbers are the specification.
    mod oracle {
        use std::collections::{HashMap, VecDeque};
        use std::hash::Hash;

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
            /// insertions/promotions into the youngest.
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

            /// Youngest generation currently open.
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
    }
}
