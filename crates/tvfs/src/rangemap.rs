//! An extent tree: a map from `u64` ranges to values, with splitting and
//! coalescing.
//!
//! This is the data structure behind both the native file systems' extent
//! maps (file page → device page) and Mux's Block Lookup Table (file block →
//! tier; paper §2.2 "we use an extent tree as a high-performance data
//! structure"). Keys are abstract units (pages, blocks or bytes — the caller
//! chooses).

use std::collections::BTreeMap;

/// A value that can live in a [`RangeMap`] segment.
///
/// Segments cover `[start, start+len)`; the value logically varies along the
/// segment via [`Segmentable::advance`] (e.g. a device-page mapping advances
/// page-by-page, while a tier id is constant).
pub trait Segmentable: Copy + Eq + std::fmt::Debug {
    /// The value `delta` units into a segment that starts with `self`.
    fn advance(&self, delta: u64) -> Self;

    /// Whether a segment holding `other` directly after a segment of length
    /// `len` holding `self` can be merged into one segment.
    fn can_append(&self, len: u64, other: &Self) -> bool;
}

/// Constant-valued segments: tier ids, flags.
impl Segmentable for u32 {
    fn advance(&self, _delta: u64) -> Self {
        *self
    }

    fn can_append(&self, _len: u64, other: &Self) -> bool {
        self == other
    }
}

/// Valueless segments: a `RangeMap<()>` is a set of ranges.
impl Segmentable for () {
    fn advance(&self, _delta: u64) -> Self {}

    fn can_append(&self, _len: u64, _other: &Self) -> bool {
        true
    }
}

/// Linearly advancing segments: contiguous page mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear(pub u64);

impl Segmentable for Linear {
    fn advance(&self, delta: u64) -> Self {
        Linear(self.0 + delta)
    }

    fn can_append(&self, len: u64, other: &Self) -> bool {
        self.0 + len == other.0
    }
}

/// One contiguous mapped extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent<V> {
    /// First unit covered.
    pub start: u64,
    /// Number of units covered.
    pub len: u64,
    /// Value at `start` (use [`Segmentable::advance`] for later units).
    pub value: V,
}

/// An ordered map from disjoint `u64` ranges to [`Segmentable`] values.
///
/// # Examples
///
/// ```
/// use tvfs::{Linear, RangeMap};
///
/// // A file-page → device-page extent map.
/// let mut m: RangeMap<Linear> = RangeMap::new();
/// m.insert(0, 10, Linear(100));      // pages 0..10 at device 100..110
/// m.insert(3, 2, Linear(500));       // overwrite splits the extent
/// assert_eq!(m.get(2), Some(Linear(102)));
/// assert_eq!(m.get(4), Some(Linear(501)));
/// assert_eq!(m.get(5), Some(Linear(105)));
/// assert_eq!(m.segment_count(), 3);
/// assert_eq!(m.covered(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeMap<V> {
    segs: BTreeMap<u64, (u64, V)>,
    /// Incrementally maintained unit count (queried on hot paths).
    covered: u64,
}

impl<V: Segmentable> RangeMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        RangeMap {
            segs: BTreeMap::new(),
            covered: 0,
        }
    }

    /// Number of stored segments (after coalescing).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Whether nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total units covered by all segments (O(1)).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Maps `[start, start+len)` to `value` (advancing along the range),
    /// overwriting any previous mappings in that range.
    pub fn insert(&mut self, start: u64, len: u64, value: V) {
        if len == 0 {
            return;
        }
        self.remove(start, len);
        self.segs.insert(start, (len, value));
        self.covered += len;
        self.coalesce_around(start);
    }

    /// Unmaps `[start, start+len)`, splitting boundary segments.
    pub fn remove(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("range overflow");
        // Left neighbour overlapping the start?
        if let Some((&s, &(l, v))) = self.segs.range(..start).next_back() {
            if s + l > start {
                // Truncate it to end at `start`.
                self.segs.insert(s, (start - s, v));
                self.covered -= (s + l).min(end) - start;
                if s + l > end {
                    // It also extends past the removal: re-insert the tail.
                    self.segs.insert(end, (s + l - end, v.advance(end - s)));
                }
            }
        }
        // Segments starting inside the range.
        let inside: Vec<u64> = self.segs.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let (l, v) = self.segs.remove(&s).expect("present");
            self.covered -= (s + l).min(end) - s;
            if s + l > end {
                self.segs.insert(end, (s + l - end, v.advance(end - s)));
            }
        }
    }

    /// Value mapped at `pos`, if any.
    pub fn get(&self, pos: u64) -> Option<V> {
        let (&s, &(l, v)) = self.segs.range(..=pos).next_back()?;
        if s + l > pos {
            Some(v.advance(pos - s))
        } else {
            None
        }
    }

    /// Iterates the mapped extents intersecting `[start, start+len)`,
    /// clipped to that window.
    pub fn overlapping(&self, start: u64, len: u64) -> Vec<Extent<V>> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let end = start.saturating_add(len);
        // The segment starting before `start` may lap in.
        if let Some((&s, &(l, v))) = self.segs.range(..start).next_back() {
            if s + l > start {
                let clip_end = (s + l).min(end);
                out.push(Extent {
                    start,
                    len: clip_end - start,
                    value: v.advance(start - s),
                });
            }
        }
        for (&s, &(l, v)) in self.segs.range(start..end) {
            let clip_end = (s + l).min(end);
            out.push(Extent {
                start: s,
                len: clip_end - s,
                value: v,
            });
        }
        out
    }

    /// All extents, in order.
    pub fn iter(&self) -> impl Iterator<Item = Extent<V>> + '_ {
        self.segs.iter().map(|(&s, &(l, v))| Extent {
            start: s,
            len: l,
            value: v,
        })
    }

    /// First mapped extent at or after `pos` (clipped at the start), i.e.
    /// `SEEK_DATA`.
    pub fn next_mapped(&self, pos: u64) -> Option<Extent<V>> {
        if let Some(v) = self.get(pos) {
            let (&s, &(l, _)) = self.segs.range(..=pos).next_back().expect("get hit");
            return Some(Extent {
                start: pos,
                len: s + l - pos,
                value: v,
            });
        }
        self.segs.range(pos..).next().map(|(&s, &(l, v))| Extent {
            start: s,
            len: l,
            value: v,
        })
    }

    /// Largest mapped position + 1, or 0 if empty.
    pub fn end(&self) -> u64 {
        self.segs
            .iter()
            .next_back()
            .map(|(&s, &(l, _))| s + l)
            .unwrap_or(0)
    }

    fn coalesce_around(&mut self, start: u64) {
        // Try to merge with left neighbour.
        let mut anchor = start;
        if let Some((&ls, &(ll, lv))) = self.segs.range(..start).next_back() {
            if ls + ll == start {
                let (l, v) = self.segs[&start];
                if lv.can_append(ll, &v) {
                    self.segs.remove(&start);
                    self.segs.insert(ls, (ll + l, lv));
                    anchor = ls;
                }
            }
        }
        // Try to merge with right neighbour.
        let (al, av) = self.segs[&anchor];
        if let Some((&rs, &(rl, rv))) = self.segs.range(anchor + 1..).next() {
            if anchor + al == rs && av.can_append(al, &rv) {
                self.segs.remove(&rs);
                self.segs.insert(anchor, (al + rl, av));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get() {
        let mut m = RangeMap::new();
        m.insert(10, 5, 7u32);
        assert_eq!(m.get(9), None);
        assert_eq!(m.get(10), Some(7));
        assert_eq!(m.get(14), Some(7));
        assert_eq!(m.get(15), None);
    }

    #[test]
    fn linear_values_advance() {
        let mut m = RangeMap::new();
        m.insert(100, 8, Linear(500));
        assert_eq!(m.get(100), Some(Linear(500)));
        assert_eq!(m.get(107), Some(Linear(507)));
    }

    #[test]
    fn overwrite_splits_old_segment() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.insert(3, 4, Linear(500));
        assert_eq!(m.get(2), Some(Linear(102)));
        assert_eq!(m.get(3), Some(Linear(500)));
        assert_eq!(m.get(6), Some(Linear(503)));
        assert_eq!(m.get(7), Some(Linear(107)));
        assert_eq!(m.segment_count(), 3);
        assert_eq!(m.covered(), 10);
    }

    #[test]
    fn adjacent_equal_constant_segments_coalesce() {
        let mut m = RangeMap::new();
        m.insert(0, 5, 1u32);
        m.insert(5, 5, 1u32);
        assert_eq!(m.segment_count(), 1);
        m.insert(10, 5, 2u32);
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn adjacent_linear_segments_coalesce_only_when_contiguous() {
        let mut m = RangeMap::new();
        m.insert(0, 4, Linear(100));
        m.insert(4, 4, Linear(104)); // contiguous on both axes
        assert_eq!(m.segment_count(), 1);
        m.insert(8, 4, Linear(999)); // key-adjacent, value not contiguous
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn remove_middle_splits() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.remove(4, 2);
        assert_eq!(m.get(3), Some(Linear(103)));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(5), None);
        assert_eq!(m.get(6), Some(Linear(106)));
        assert_eq!(m.covered(), 8);
    }

    #[test]
    fn remove_spanning_multiple_segments() {
        let mut m = RangeMap::new();
        m.insert(0, 4, 1u32);
        m.insert(10, 4, 2u32);
        m.insert(20, 4, 3u32);
        m.remove(2, 20);
        assert_eq!(m.get(1), Some(1));
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(21), None);
        assert_eq!(m.get(22), Some(3));
    }

    #[test]
    fn overlapping_clips_to_window() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.insert(20, 10, Linear(200));
        let got = m.overlapping(5, 18);
        assert_eq!(
            got,
            vec![
                Extent {
                    start: 5,
                    len: 5,
                    value: Linear(105)
                },
                Extent {
                    start: 20,
                    len: 3,
                    value: Linear(200)
                },
            ]
        );
    }

    #[test]
    fn next_mapped_seek_data() {
        let mut m = RangeMap::new();
        m.insert(10, 5, 1u32);
        assert_eq!(
            m.next_mapped(0),
            Some(Extent {
                start: 10,
                len: 5,
                value: 1
            })
        );
        assert_eq!(
            m.next_mapped(12),
            Some(Extent {
                start: 12,
                len: 3,
                value: 1
            })
        );
        assert_eq!(m.next_mapped(15), None);
    }

    #[test]
    fn end_tracks_last_extent() {
        let mut m = RangeMap::new();
        assert_eq!(m.end(), 0);
        m.insert(10, 5, 1u32);
        assert_eq!(m.end(), 15);
        m.insert(100, 1, 1u32);
        assert_eq!(m.end(), 101);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut m = RangeMap::new();
        m.insert(5, 0, 1u32);
        assert!(m.is_empty());
        m.insert(5, 3, 1u32);
        m.remove(5, 0);
        assert_eq!(m.covered(), 3);
        assert!(m.overlapping(0, 0).is_empty());
    }
}
